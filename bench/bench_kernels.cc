// Throughput of the per-row pixel loops (src/codec/row_ops.h, src/codec/row_hash.h and
// RgbToYuv), plus the deterministic parity checksums the bench_diff gate pins.
//
// Each loop processes SLIM_KB_ROWS rows of SLIM_KB_WIDTH pixels (best of SLIM_KB_REPS
// reps) and reports GB/s of input pixels consumed. The scalar body is always timed; on
// targets with SSE2, ScanColors and PackBitmapRow are also timed through their vector
// body, with the speedup over scalar that justifies keeping it. Content is chosen per
// loop so no early exit shortcuts the work: bicolor rows for the two-color scan and
// bit-packer (the full-row "is this text?" worst case), equal rows for the diff (the
// dominant refinement case — rows whose full hash collided but must be confirmed),
// random 24-bit pixels for the hash and YUV conversion. One more row times a 640x480
// raycast frame (the Quake case study's renderer), in GB/s of indexed pixels written.
//
// The timing numbers are machine-dependent and excluded from the bench_diff gate
// (bench_diff_smoke_kernels skips "gbps"/"speedup"); what the committed baseline pins
// are the parity.<loop>.checksum metrics — 32-bit folds of each loop's outputs over a
// fixed pseudo-random input set, CHECKed identical between the vector and scalar bodies
// here and compared against the baseline by ctest. A change that alters output on any
// target moves the checksum and fails the gate.
//
// Knobs: SLIM_KB_WIDTH (default 1280), SLIM_KB_ROWS (default 2048), SLIM_KB_REPS
// (default 9).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/codec/row_hash.h"
#include "src/codec/row_ops.h"
#include "src/color/yuv.h"
#include "src/obs/bench_report.h"
#include "src/obs/trace.h"
#include "src/quake/raycaster.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace slim {
namespace {

// Best wall time of `reps` calls to `pass`, after one warm-up call.
double BestMs(int reps, const std::function<uint64_t()>& pass) {
  double best_ms = 0;
  uint64_t sink = 0;
  for (int rep = 0; rep <= reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    sink ^= pass();
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (rep > 0) {
      best_ms = best_ms == 0 ? ms : std::min(best_ms, ms);
    }
  }
  if (sink == 0x5a5a5a5a5a5a5a5aull) {  // keep the sink observable
    std::printf("!");
  }
  return best_ms;
}

// 32-bit FNV-1a fold used for the parity checksums (exactly representable as a double,
// so the JSON round-trip through bench_diff compares it without tolerance slop).
struct Fold {
  uint32_t h = 2166136261u;
  void Byte(uint8_t b) { h = (h ^ b) * 16777619u; }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      Byte(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }
};

// The fixed input set the parity checksums run over: widths 0..130 at offsets 0/1/3,
// drawn from a seeded Rng — identical on every machine and every run.
struct ParityInputs {
  std::vector<Pixel> random;   // 24-bit noise
  std::vector<Pixel> bicolor;  // two colors, for scan/pack
  ParityInputs() {
    Rng rng(0x5eed);
    random.resize(160);
    bicolor.resize(160);
    for (size_t i = 0; i < random.size(); ++i) {
      random[i] = static_cast<Pixel>(rng.NextU64() & 0xffffff);
      bicolor[i] = (rng.NextU64() & 1) ? 0xc0ffee : 0x101010;
    }
  }
};

constexpr size_t kParityOffsets[] = {0, 1, 3};
constexpr size_t kParityMaxWidth = 130;

// The output checksum of one loop. `scalar` selects the scalar reference body of
// ScanColors/PackBitmapRow; the other loops have only one body.
uint32_t ParityChecksum(const std::string& name, bool scalar, const ParityInputs& in) {
  const auto scan_colors = scalar ? ScanColorsScalar : ScanColors;
  const auto pack_bitmap_row = scalar ? PackBitmapRowScalar : PackBitmapRow;
  Fold fold;
  for (const size_t offset : kParityOffsets) {
    for (size_t w = 0; w + offset < kParityMaxWidth; ++w) {
      if (name == "row_hash") {
        fold.U64(RowHash64(std::span<const Pixel>(in.random.data() + offset, w)));
      } else if (name == "scan_colors") {
        ColorScan scan;
        scan_colors(in.bicolor.data() + offset, w, &scan);
        scan_colors(in.random.data() + offset, w / 2, &scan);  // mid-state entry
        fold.U32(static_cast<uint32_t>(scan.distinct));
        fold.U32(scan.first);
        fold.U32(scan.second);
      } else if (name == "pack_bitmap_row") {
        uint8_t out[(kParityMaxWidth + 7) / 8] = {};
        pack_bitmap_row(in.bicolor.data() + offset, w, 0xc0ffee, out);
        for (size_t i = 0; i < (w + 7) / 8; ++i) {
          fold.Byte(out[i]);
        }
      } else if (name == "row_diff_span") {
        std::vector<Pixel> b(in.random.begin() + offset,
                             in.random.begin() + offset + w);
        if (w > 2) {
          b[w / 3] ^= 0xffffff;  // plant one diff so lo/hi carry information
        }
        int32_t lo = -1, hi = -1;
        const bool changed = RowDiffSpan(in.random.data() + offset, b.data(), w, &lo, &hi);
        fold.U32(changed ? 1u : 0u);
        fold.U32(static_cast<uint32_t>(lo));
        fold.U32(static_cast<uint32_t>(hi));
      } else {  // rgb_to_yuv_row
        for (size_t i = 0; i < w; ++i) {
          const Yuv yuv = RgbToYuv(in.random[offset + i]);
          fold.Byte(yuv.y);
          fold.Byte(yuv.u);
          fold.Byte(yuv.v);
        }
      }
    }
  }
  return fold.h;
}

}  // namespace
}  // namespace slim

int main() {
  using namespace slim;
  const int32_t width = EnvInt("SLIM_KB_WIDTH", 1280);
  const int rows = EnvInt("SLIM_KB_ROWS", 2048);
  const int reps = EnvInt("SLIM_KB_REPS", 9);

  ScopedTraceFromEnv trace;
  BenchReporter report("kernels",
                       "Throughput and scalar/SSE2 parity of the per-row pixel loops");
  report.Knob("SLIM_KB_WIDTH", width);
  report.Knob("SLIM_KB_ROWS", rows);
  report.Knob("SLIM_KB_REPS", reps);
  std::printf("Pixel row loops, %d rows x %d px, best of %d\n", rows, width, reps);

  // Inputs, built once. Each pass reads `rows` distinct rows out of a buffer a few rows
  // larger than L2 so the working set resembles framebuffer scans, not a single hot
  // cache line.
  const size_t n = static_cast<size_t>(width);
  const size_t total = n * static_cast<size_t>(rows);
  Rng rng(0xbe7c);
  std::vector<Pixel> noise(total), bicolor(total);
  for (size_t i = 0; i < total; ++i) {
    noise[i] = static_cast<Pixel>(rng.NextU64() & 0xffffff);
    bicolor[i] = (rng.NextU64() & 7) ? 0x123456 : 0xfedcba;
  }
  const std::vector<Pixel> noise_copy = noise;  // equal rows for the diff
  std::vector<uint8_t> bits(n / 8 + 8);
  std::vector<Yuv> yuv(n);

  // One body of one loop: processes the row starting at pixel `at`, returns a sink value
  // so the optimizer cannot delete the work.
  struct Body {
    const char* label;
    std::function<uint64_t(size_t at)> row;
  };
  const auto scan_with = [&](void (*scan_colors)(const Pixel*, size_t, ColorScan*)) {
    return [&, scan_colors](size_t at) -> uint64_t {
      ColorScan scan;  // fresh per row: scan the whole row, never early-exit
      scan_colors(bicolor.data() + at, n, &scan);
      return static_cast<uint64_t>(scan.distinct) + scan.first + scan.second;
    };
  };
  const auto pack_with = [&](void (*pack)(const Pixel*, size_t, Pixel, uint8_t*)) {
    return [&, pack](size_t at) -> uint64_t {
      pack(bicolor.data() + at, n, 0xfedcba, bits.data());
      return bits[0] + bits[n / 8 - 1];
    };
  };
  struct Loop {
    const char* name;
    std::vector<Body> bodies;  // bodies[0] is the scalar reference
  };
  const Loop loops[] = {
      {"row_hash",
       {{"scalar",
         [&](size_t at) { return RowHash64(std::span<const Pixel>(noise.data() + at, n)); }}}},
      {"scan_colors",
       {{"scalar", scan_with(ScanColorsScalar)},
#if defined(__SSE2__)
        {"sse2", scan_with(ScanColors)}
#endif
       }},
      {"pack_bitmap_row",
       {{"scalar", pack_with(PackBitmapRowScalar)},
#if defined(__SSE2__)
        {"sse2", pack_with(PackBitmapRow)}
#endif
       }},
      {"row_diff_span",
       {{"scalar",
         [&](size_t at) -> uint64_t {
           int32_t lo = 0, hi = 0;
           return RowDiffSpan(noise.data() + at, noise_copy.data() + at, n, &lo, &hi) ? 1
                                                                                      : 0;
         }}}},
      {"rgb_to_yuv_row",
       {{"scalar",
         [&](size_t at) -> uint64_t {
           for (size_t i = 0; i < n; ++i) {
             yuv[i] = RgbToYuv(noise[at + i]);
           }
           return yuv[0].y + yuv[n / 2].u + yuv[n - 1].v;
         }}}},
  };

  const double gb = static_cast<double>(total) * sizeof(Pixel) / 1e9;
  const ParityInputs parity_inputs;
  for (const Loop& loop : loops) {
    // Parity checksum first: the vector body must fold to the scalar value, and that
    // value is the deterministic metric the committed baseline pins.
    const uint32_t checksum = ParityChecksum(loop.name, /*scalar=*/true, parity_inputs);
    SLIM_CHECK(ParityChecksum(loop.name, /*scalar=*/false, parity_inputs) == checksum);
    report.Metric(std::string("parity.") + loop.name + ".checksum",
                  static_cast<int64_t>(checksum), "fnv32");

    double scalar_ms = 0;
    std::printf("  %-16s", loop.name);
    for (const Body& body : loop.bodies) {
      const double best_ms = BestMs(reps, [&] {
        uint64_t sink = 0;
        for (int r = 0; r < rows; ++r) {
          sink += body.row(static_cast<size_t>(r) * n);
        }
        return sink;
      });
      const double gbps = best_ms > 0 ? gb * 1000.0 / best_ms : 0;
      const std::string prefix = std::string(loop.name) + "." + body.label;
      report.Metric(prefix + ".gbps", gbps, "GB/s");
      if (scalar_ms == 0) {
        scalar_ms = best_ms;
        std::printf("  %s %6.2f GB/s", body.label, gbps);
      } else {
        const double speedup = best_ms > 0 ? scalar_ms / best_ms : 0;
        report.Metric(prefix + ".speedup", speedup, "x");
        std::printf("   %s %6.2f GB/s (%4.2fx)", body.label, gbps, speedup);
      }
    }
    std::printf("\n");
  }

  // One 640x480 raycast frame per pass, a new camera each time.
  const RaycastEngine engine(640, 480);
  int frame = 0;
  const double raycast_ms = BestMs(reps, [&] {
    const std::vector<uint8_t> pixels = engine.RenderFrame(engine.DemoCamera(frame++));
    return static_cast<uint64_t>(pixels[pixels.size() / 2]);
  });
  const double raycast_gbps = raycast_ms > 0 ? 640.0 * 480 / 1e9 * 1000.0 / raycast_ms : 0;
  report.Metric("raycast.gbps", raycast_gbps, "GB/s");
  std::printf("  %-16s  %.2f ms/frame (640x480)\n", "raycast", raycast_ms);

  return report.Write() ? 0 : 1;
}
