#include "src/color/yuv.h"

#include <algorithm>
#include <array>
#include <climits>
#include <type_traits>

#include "src/codec/kernels/kernels.h"
#include "src/codec/kernels/kernels_internal.h"
#include "src/util/check.h"

namespace slim {

namespace {

// ClampByte(lround(x)), branch-free. Clamping first in double is equivalent: x <= 0 and
// x >= 255 round to values that clamp to the same ends. In between, x - trunc(x) is exact,
// so comparing it with 0.5 rounds halves away from zero as lround does.
inline uint8_t RoundToByte(double x) {
  const double clamped = std::min(std::max(x, 0.0), 255.0);
  const int whole = static_cast<int>(clamped);
  return static_cast<uint8_t>(whole + (clamped - whole >= 0.5 ? 1 : 0));
}

// YuvToRgb's channels as the double expressions that define them.
double RedValue(uint8_t y, uint8_t v) { return y + 1.402 * (v - 128.0); }
double GreenValue(uint8_t y, uint8_t u, uint8_t v) {
  return y - 0.344136 * (u - 128.0) - 0.714136 * (v - 128.0);
}
double BlueValue(uint8_t y, uint8_t u) { return y + 1.772 * (u - 128.0); }

// The same channels without per-pixel doubles. Each is y + c, with the chroma term c one of
// 1.402 v', -0.344136 u' - 0.714136 v' and 1.772 u' (v' = v - 128, u' = u - 128). The
// coefficients are multiples of 1e-6, so 1e6 c is an integer, and c is either exactly
// halfway between two integers (a tie) or at least 1e-6 from every half-integer. The double
// expression is within 1e-12 of y + c, so away from ties it rounds to y + nearest(c) for
// every y, and the tables hold nearest(c). At a tie the outcome hangs on how the double
// expression rounds, so those entries (u' = +-125 for blue, two (u, v) pairs for green)
// hold kTie and the channel evaluates its double expression.
constexpr int16_t kTie = INT16_MIN;

int16_t NearestOrTie(int64_t micros) {
  const int64_t magnitude = micros < 0 ? -micros : micros;
  if (magnitude % 1'000'000 == 500'000) {
    return kTie;
  }
  const auto nearest = static_cast<int16_t>((magnitude + 500'000) / 1'000'000);
  return micros < 0 ? static_cast<int16_t>(-nearest) : nearest;
}

struct ChromaTerms {
  ChromaTerms() {
    for (int64_t a = 0; a < 256; ++a) {
      red[static_cast<size_t>(a)] = NearestOrTie(1'402'000 * (a - 128));
      blue[static_cast<size_t>(a)] = NearestOrTie(1'772'000 * (a - 128));
      for (int64_t b = 0; b < 256; ++b) {
        green[static_cast<size_t>(a << 8 | b)] =
            NearestOrTie(-344'136 * (a - 128) - 714'136 * (b - 128));
      }
    }
  }
  std::array<int16_t, 256> red;           // by v
  std::array<int16_t, 256> blue;          // by u
  std::array<int16_t, 256 * 256> green;  // by u << 8 | v
};

const ChromaTerms& Terms() {
  static const ChromaTerms terms;
  return terms;
}

uint8_t AddTerm(uint8_t y, int16_t term) {
  return static_cast<uint8_t>(std::clamp(y + term, 0, 255));
}

template <class Exact>
uint8_t Channel(uint8_t y, int16_t term, Exact exact) {
  return term == kTie ? RoundToByte(exact()) : AddTerm(y, term);
}

inline Pixel ConvertYuv(const ChromaTerms& t, uint8_t y, uint8_t u, uint8_t v) {
  return MakePixel(
      Channel(y, t.red[v], [&] { return RedValue(y, v); }),
      Channel(y, t.green[static_cast<size_t>(u) << 8 | v], [&] { return GreenValue(y, u, v); }),
      Channel(y, t.blue[u], [&] { return BlueValue(y, u); }));
}

// Converts pixels [x_begin, x_end) of a row whose pixel x takes chroma sample x >> kShift.
// The pixels that share a chroma sample share its three terms.
template <int kShift>
void ConvertRow(const ChromaTerms& t, const uint8_t* y, const uint8_t* u, const uint8_t* v,
                int32_t x_begin, int32_t x_end, Pixel* out) {
  for (int32_t x = x_begin; x < x_end;) {
    const int32_t c = x >> kShift;
    const int32_t run_end = std::min(x_end, (c + 1) << kShift);
    const int16_t red = t.red[v[c]];
    const int16_t green = t.green[static_cast<size_t>(u[c]) << 8 | v[c]];
    const int16_t blue = t.blue[u[c]];
    if (red == kTie || green == kTie || blue == kTie) {
      for (; x < run_end; ++x) {
        *out++ = ConvertYuv(t, y[x], u[c], v[c]);
      }
    } else {
      for (; x < run_end; ++x) {
        *out++ = MakePixel(AddTerm(y[x], red), AddTerm(y[x], green), AddTerm(y[x], blue));
      }
    }
  }
}

// Expands the top `bits` bits of a component back to 8 bits by bit replication.
constexpr uint8_t ExpandBits(uint32_t value, int bits) {
  uint32_t out = value << (8 - bits);
  int filled = bits;
  while (filled < 8) {
    out |= out >> filled;
    filled *= 2;
  }
  return static_cast<uint8_t>(out & 0xff);
}

// ExpandBits as a 256-entry table per sample width.
template <int kBits>
constexpr std::array<uint8_t, 256> kExpand = [] {
  std::array<uint8_t, 256> table{};
  for (uint32_t i = 0; i < (1u << kBits); ++i) {
    table[i] = ExpandBits(i, kBits);
  }
  return table;
}();

// Chroma is always halved in x; c_sub_y is 1 (4:2:2) or 2 (4:2:0).
struct DepthSpec {
  int y_bits;
  int c_bits;
  int c_sub_y;
};

DepthSpec SpecFor(CscsDepth depth) {
  switch (depth) {
    case CscsDepth::k16:
      return {8, 8, 1};
    case CscsDepth::k12:
      return {8, 8, 2};
    case CscsDepth::k8:
      return {6, 4, 2};
    case CscsDepth::k6:
      return {4, 4, 2};
    case CscsDepth::k5:
      return {4, 2, 2};
  }
  SLIM_CHECK(false);
}

int32_t ChromaWidth(int32_t w) { return (w + 1) / 2; }
int32_t ChromaHeight(int32_t h, const DepthSpec& spec) {
  return (h + spec.c_sub_y - 1) / spec.c_sub_y;
}

size_t PlaneBytes(int64_t samples, int bits) {
  return (static_cast<size_t>(samples) * bits + 7) / 8;
}

// Samples pack MSB-first into whole-byte groups: 8/kBits samples per byte for 2, 4 and 8
// bits, and 4 samples per 3 bytes for 6 bits. The row code moves a group at a time and
// single samples only at unaligned heads and at tails.
template <int kBits>
constexpr size_t kGroupBytes = kBits == 6 ? 3 : 1;
template <int kBits>
constexpr size_t kGroupSamples = kGroupBytes<kBits> * 8 / kBits;

// MSB-first bit packer into a pre-sized buffer.
class BitPacker {
 public:
  explicit BitPacker(uint8_t* out) : out_(out) {}

  // Packs the top kBits bits of each sample.
  template <int kBits>
  void Put(const uint8_t* samples, size_t n) {
    size_t i = 0;
    for (; i < n && fill_ != 0; ++i) {
      PutOne<kBits>(samples[i]);
    }
    for (; i + kGroupSamples<kBits> <= n; i += kGroupSamples<kBits>) {
      uint32_t group = 0;
      for (size_t j = 0; j < kGroupSamples<kBits>; ++j) {
        group = group << kBits | samples[i + j] >> (8 - kBits);
      }
      for (size_t j = kGroupBytes<kBits>; j-- > 0;) {
        *out_++ = static_cast<uint8_t>(group >> (8 * j));
      }
    }
    for (; i < n; ++i) {
      PutOne<kBits>(samples[i]);
    }
  }

  // Pads a partial byte with zero bits; planes start byte-aligned.
  void Align() {
    if (fill_ > 0) {
      *out_++ = static_cast<uint8_t>(acc_ << (8 - fill_));
      fill_ = 0;
    }
  }

  const uint8_t* end() const { return out_; }

 private:
  template <int kBits>
  void PutOne(uint8_t sample) {
    acc_ = acc_ << kBits | sample >> (8 - kBits);
    fill_ += kBits;
    if (fill_ >= 8) {
      fill_ -= 8;
      *out_++ = static_cast<uint8_t>(acc_ >> fill_);
    }
  }

  uint8_t* out_;
  uint32_t acc_ = 0;  // the low fill_ bits are pending
  int fill_ = 0;
};

// Calls f(std::integral_constant<int, bits>{}) for a sample width the depths use.
template <class F>
void WithSampleBits(int bits, F f) {
  switch (bits) {
    case 2:
      return f(std::integral_constant<int, 2>{});
    case 4:
      return f(std::integral_constant<int, 4>{});
    case 6:
      return f(std::integral_constant<int, 6>{});
    case 8:
      return f(std::integral_constant<int, 8>{});
  }
  SLIM_CHECK(false);
}

void PackSamples(const uint8_t* samples, size_t n, int bits, BitPacker* packer) {
  WithSampleBits(bits, [&](auto b) { packer->Put<b()>(samples, n); });
}

// Reads n kBits-wide samples starting at payload bit `bit`, expanding each to 8 bits. Bytes
// past the end of the payload read as zero: a truncated payload decodes without reading
// out of bounds.
template <int kBits>
void UnpackSamplesN(std::span<const uint8_t> payload, size_t bit, uint8_t* out, size_t n) {
  auto byte_at = [&](size_t i) -> uint32_t { return i < payload.size() ? payload[i] : 0; };
  auto one = [&] {
    const uint32_t pair = byte_at(bit / 8) << 8 | byte_at(bit / 8 + 1);
    const uint32_t sample = pair >> (16 - kBits - bit % 8) & ((1u << kBits) - 1);
    bit += kBits;
    return kExpand<kBits>[sample];
  };
  size_t i = 0;
  for (; i < n && bit % 8 != 0; ++i) {
    out[i] = one();
  }
  for (; i + kGroupSamples<kBits> <= n && bit / 8 + kGroupBytes<kBits> <= payload.size();
       i += kGroupSamples<kBits>) {
    uint32_t group = 0;
    for (size_t j = 0; j < kGroupBytes<kBits>; ++j) {
      group = group << 8 | payload[bit / 8 + j];
    }
    for (size_t j = 0; j < kGroupSamples<kBits>; ++j) {
      const size_t shift = (kGroupSamples<kBits> - 1 - j) * kBits;
      out[i + j] = kExpand<kBits>[group >> shift & ((1u << kBits) - 1)];
    }
    bit += 8 * kGroupBytes<kBits>;
  }
  for (; i < n; ++i) {
    out[i] = one();
  }
}

void UnpackSamples(std::span<const uint8_t> payload, size_t bit, int bits, uint8_t* out,
                   size_t n) {
  WithSampleBits(bits, [&](auto b) { UnpackSamplesN<b()>(payload, bit, out, n); });
}

// One source row for the converter: w luma samples, and chroma rows in which pixel x's
// sample sits at index x >> kChromaShift of the row source.
struct SourceRow {
  const uint8_t* y;
  const uint8_t* u;
  const uint8_t* v;
};

// Row access to a CSCS payload. Each plane starts byte-aligned and packs its samples back
// to back, so row r of a plane starts at bit r * samples_per_row * bits: any row decodes on
// its own, without unpacking the planes in full.
class CscsRows {
 public:
  static constexpr int kChromaShift = 1;

  CscsRows(std::span<const uint8_t> payload, int32_t w, int32_t h, CscsDepth depth)
      : payload_(payload), spec_(SpecFor(depth)), w_(w), cw_(ChromaWidth(w)),
        u_offset_(PlaneBytes(static_cast<int64_t>(w) * h, spec_.y_bits) * 8),
        v_offset_(u_offset_ + PlaneBytes(static_cast<int64_t>(cw_) * ChromaHeight(h, spec_),
                                         spec_.c_bits) * 8),
        y_(static_cast<size_t>(w)), u_(static_cast<size_t>(cw_)), v_(static_cast<size_t>(cw_)) {}

  // Decodes source row `row`; the result is valid until the next call.
  SourceRow operator()(int32_t row) {
    UnpackSamples(payload_, static_cast<size_t>(row) * w_ * spec_.y_bits, spec_.y_bits,
                  y_.data(), y_.size());
    const size_t chroma_bits =
        static_cast<size_t>(row / spec_.c_sub_y) * cw_ * spec_.c_bits;
    UnpackSamples(payload_, u_offset_ + chroma_bits, spec_.c_bits, u_.data(), u_.size());
    UnpackSamples(payload_, v_offset_ + chroma_bits, spec_.c_bits, v_.data(), v_.size());
    return {y_.data(), u_.data(), v_.data()};
  }

 private:
  std::span<const uint8_t> payload_;
  DepthSpec spec_;
  int32_t w_;
  int32_t cw_;
  size_t u_offset_;
  size_t v_offset_;
  std::vector<uint8_t> y_;
  std::vector<uint8_t> u_;
  std::vector<uint8_t> v_;
};

// Row access to a full-resolution YuvImage (chroma already replicated).
struct ImageRows {
  static constexpr int kChromaShift = 0;

  SourceRow operator()(int32_t row) const {
    const size_t at = static_cast<size_t>(row) * image.width();
    return {image.y_plane().data() + at, image.u_plane().data() + at,
            image.v_plane().data() + at};
  }

  const YuvImage& image;
};

// The part of a dst_w x dst_h output to produce: `part` is in output coordinates, `first`
// is where its top-left pixel goes, and rows are `stride` pixels apart.
struct RgbTarget {
  Rect part;
  Pixel* first;
  size_t stride;
};

// Bilinear YUV->RGB scale of a sw x sh source to dst_w x dst_h, written to `target`. Every
// output pixel is computed with the same double expressions, in the same order, as the
// per-pixel reference (a horizontal lerp on rows y0 and y1, then a vertical lerp, each
// channel rounded with lround and converted by YuvToRgb), so the result is bit-identical.
// What changes is where the work sits: x0/x1/fx once per column, y0/y1/fy once per row,
// and each source row's horizontal lerp once, cached for the output rows that reuse it.
// When the sizes match, fx and fy are 0 and the lerps return the samples exactly, so that
// case is a straight per-pixel conversion.
template <class Rows>
void ConvertScaled(Rows rows, int32_t sw, int32_t sh, int32_t dst_w, int32_t dst_h,
                   const RgbTarget& target) {
  constexpr int kShift = Rows::kChromaShift;
  const ChromaTerms& terms = Terms();
  const Rect& part = target.part;
  if (sw == dst_w && sh == dst_h) {
    for (int32_t dy = part.y; dy < part.bottom(); ++dy) {
      const SourceRow src = rows(dy);
      ConvertRow<kShift>(terms, src.y, src.u, src.v, part.x, part.right(),
                         target.first + static_cast<size_t>(dy - part.y) * target.stride);
    }
    return;
  }

  const size_t n = static_cast<size_t>(part.w);
  const double x_ratio = static_cast<double>(sw) / dst_w;
  const double y_ratio = static_cast<double>(sh) / dst_h;
  std::vector<int32_t> x0s(n);
  std::vector<int32_t> x1s(n);
  std::vector<double> fxs(n);
  for (size_t i = 0; i < n; ++i) {
    const int32_t dx = part.x + static_cast<int32_t>(i);
    const double sx = std::max(0.0, (dx + 0.5) * x_ratio - 0.5);
    x0s[i] = std::min(static_cast<int32_t>(sx), sw - 1);
    x1s[i] = std::min(x0s[i] + 1, sw - 1);
    fxs[i] = sx - x0s[i];
  }

  // Horizontally lerped source rows, one slot per row parity: y1 is y0 or y0 + 1, so the
  // two rows an output row blends never evict each other.
  struct Lerped {
    int32_t row = -1;
    std::vector<double> y, u, v;
  };
  Lerped slots[2];
  for (Lerped& slot : slots) {
    slot.y.resize(n);
    slot.u.resize(n);
    slot.v.resize(n);
  }
  auto lerped = [&](int32_t row) -> const Lerped& {
    Lerped& slot = slots[row & 1];
    if (slot.row != row) {
      slot.row = row;
      const SourceRow src = rows(row);
      for (size_t i = 0; i < n; ++i) {
        const int32_t x0 = x0s[i];
        const int32_t x1 = x1s[i];
        const double fx = fxs[i];
        auto lerp = [fx](uint8_t a, uint8_t b) { return a * (1 - fx) + b * fx; };
        slot.y[i] = lerp(src.y[x0], src.y[x1]);
        slot.u[i] = lerp(src.u[x0 >> kShift], src.u[x1 >> kShift]);
        slot.v[i] = lerp(src.v[x0 >> kShift], src.v[x1 >> kShift]);
      }
    }
    return slot;
  };

  for (int32_t dy = part.y; dy < part.bottom(); ++dy) {
    const double sy = std::max(0.0, (dy + 0.5) * y_ratio - 0.5);
    const int32_t y0 = std::min(static_cast<int32_t>(sy), sh - 1);
    const int32_t y1 = std::min(y0 + 1, sh - 1);
    const double fy = sy - y0;
    const Lerped& top = lerped(y0);
    const Lerped& bot = lerped(y1);
    Pixel* out = target.first + static_cast<size_t>(dy - part.y) * target.stride;
    for (size_t i = 0; i < n; ++i) {
      out[i] = ConvertYuv(terms, RoundToByte(top.y[i] * (1 - fy) + bot.y[i] * fy),
                          RoundToByte(top.u[i] * (1 - fy) + bot.u[i] * fy),
                          RoundToByte(top.v[i] * (1 - fy) + bot.v[i] * fy));
    }
  }
}

}  // namespace

Yuv RgbToYuv(Pixel rgb) {
  // Fixed-point BT.601 (20-bit coefficients, round-half-up) shared with the SIMD kernel
  // layer — the single-pixel and bulk conversions must agree bit-for-bit, and integer
  // arithmetic is what makes the per-tier vector implementations exactly reproducible.
  // Differs from the old double-based lround formula by at most 1 LSB on ~0.06% of the
  // 2^24 inputs (verified exhaustively).
  Yuv out;
  RgbToYuvScalarOne(rgb, &out.y, &out.u, &out.v);
  return out;
}

Pixel YuvToRgb(Yuv yuv) { return ConvertYuv(Terms(), yuv.y, yuv.u, yuv.v); }

int BitsPerPixel(CscsDepth depth) { return static_cast<int>(depth); }

YuvImage::YuvImage(int32_t width, int32_t height) : width_(width), height_(height) {
  SLIM_CHECK(width > 0 && height > 0);
  const size_t n = static_cast<size_t>(width) * height;
  y_.assign(n, 0);
  u_.assign(n, 128);
  v_.assign(n, 128);
}

Yuv YuvImage::At(int32_t x, int32_t y) const {
  SLIM_DCHECK(x >= 0 && x < width_ && y >= 0 && y < height_);
  const size_t i = static_cast<size_t>(y) * width_ + x;
  return Yuv{y_[i], u_[i], v_[i]};
}

void YuvImage::Set(int32_t x, int32_t y, Yuv value) {
  SLIM_DCHECK(x >= 0 && x < width_ && y >= 0 && y < height_);
  const size_t i = static_cast<size_t>(y) * width_ + x;
  y_[i] = value.y;
  u_[i] = value.u;
  v_[i] = value.v;
}

YuvImage YuvImage::FromPixels(std::span<const Pixel> rgb, int32_t w, int32_t h) {
  SLIM_CHECK(rgb.size() >= static_cast<size_t>(w) * h);
  YuvImage image(w, h);
  // Row-span conversion straight into the planes through the dispatched kernel — no
  // per-pixel bounds-checked Set() calls; this loop is the whole CSCS encode cost for
  // video frames, so it gets the vector tier when the CPU has one.
  const KernelOps& kernels = Kernels();
  for (int32_t y = 0; y < h; ++y) {
    const size_t row = static_cast<size_t>(y) * w;
    kernels.rgb_to_yuv_row(rgb.data() + row, static_cast<size_t>(w),
                           image.y_.data() + row, image.u_.data() + row,
                           image.v_.data() + row);
  }
  return image;
}

size_t CscsPayloadBytes(int32_t w, int32_t h, CscsDepth depth) {
  const DepthSpec spec = SpecFor(depth);
  const int64_t c_samples = static_cast<int64_t>(ChromaWidth(w)) * ChromaHeight(h, spec);
  return PlaneBytes(static_cast<int64_t>(w) * h, spec.y_bits) +
         2 * PlaneBytes(c_samples, spec.c_bits);
}

std::vector<uint8_t> PackCscsPayload(const YuvImage& image, CscsDepth depth) {
  const DepthSpec spec = SpecFor(depth);
  const int32_t w = image.width();
  const int32_t h = image.height();
  std::vector<uint8_t> out(CscsPayloadBytes(w, h, depth));
  BitPacker packer(out.data());
  // Y plane: quantize by keeping top bits. The plane is one run of samples, rows included.
  PackSamples(image.y_plane().data(), static_cast<size_t>(w) * h, spec.y_bits, &packer);
  packer.Align();
  // Chroma planes: average each subsampling block (rounded, over the pixels inside the
  // image), then quantize.
  const int32_t cw = ChromaWidth(w);
  const int32_t ch = ChromaHeight(h, spec);
  std::vector<uint8_t> averaged(static_cast<size_t>(cw));
  for (const std::span<const uint8_t> plane : {image.u_plane(), image.v_plane()}) {
    for (int32_t cy = 0; cy < ch; ++cy) {
      const int32_t y = cy * spec.c_sub_y;
      const uint8_t* row0 = plane.data() + static_cast<size_t>(y) * w;
      const uint8_t* row1 = spec.c_sub_y == 2 && y + 1 < h ? row0 + w : nullptr;
      for (int32_t cx = 0; cx < cw; ++cx) {
        const int32_t x = cx * 2;
        const bool pair = x + 1 < w;
        int sum = row0[x] + (pair ? row0[x + 1] : 0);
        int count = pair ? 2 : 1;
        if (row1 != nullptr) {
          sum += row1[x] + (pair ? row1[x + 1] : 0);
          count *= 2;
        }
        averaged[static_cast<size_t>(cx)] = static_cast<uint8_t>((sum + count / 2) / count);
      }
      PackSamples(averaged.data(), averaged.size(), spec.c_bits, &packer);
    }
    packer.Align();
  }
  SLIM_DCHECK(packer.end() == out.data() + out.size());
  return out;
}

YuvImage UnpackCscsPayload(std::span<const uint8_t> payload, int32_t w, int32_t h,
                           CscsDepth depth) {
  YuvImage image(w, h);
  CscsRows rows(payload, w, h, depth);
  const auto width = static_cast<size_t>(w);
  for (int32_t y = 0; y < h; ++y) {
    const SourceRow src = rows(y);
    const size_t at = static_cast<size_t>(y) * width;
    uint8_t* y_out = image.mutable_y_plane().data() + at;
    uint8_t* u_out = image.mutable_u_plane().data() + at;
    uint8_t* v_out = image.mutable_v_plane().data() + at;
    // Chroma is replicated across its subsampling block.
    for (size_t x = 0; x < width; ++x) {
      y_out[x] = src.y[x];
      u_out[x] = src.u[x >> CscsRows::kChromaShift];
      v_out[x] = src.v[x >> CscsRows::kChromaShift];
    }
  }
  return image;
}

std::vector<Pixel> YuvToRgbScaled(const YuvImage& image, int32_t dst_w, int32_t dst_h) {
  SLIM_CHECK(dst_w > 0 && dst_h > 0);
  std::vector<Pixel> out(static_cast<size_t>(dst_w) * dst_h);
  ConvertScaled(ImageRows{image}, image.width(), image.height(), dst_w, dst_h,
                RgbTarget{Rect{0, 0, dst_w, dst_h}, out.data(), static_cast<size_t>(dst_w)});
  return out;
}

void DecodeCscsToRgb(std::span<const uint8_t> payload, int32_t src_w, int32_t src_h,
                     CscsDepth depth, const Rect& dst, Framebuffer* fb) {
  SLIM_CHECK(src_w > 0 && src_h > 0 && fb != nullptr);
  const Rect clipped = Intersect(dst, fb->bounds());
  if (clipped.empty()) {
    return;
  }
  const RgbTarget target{Rect{clipped.x - dst.x, clipped.y - dst.y, clipped.w, clipped.h},
                         fb->MutableRow(clipped.y, clipped.x, clipped.w).data(),
                         static_cast<size_t>(fb->width())};
  ConvertScaled(CscsRows(payload, src_w, src_h, depth), src_w, src_h, dst.w, dst.h, target);
}

}  // namespace slim
