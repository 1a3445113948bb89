// Parity properties of the per-row pixel loops (src/codec/row_ops.h, src/codec/row_hash.h,
// RgbToYuv in src/color/yuv.h). ScanColors and PackBitmapRow have an SSE2 body on x86;
// it must be bit-identical to the exported scalar reference on every input, because the
// encoder's wire bytes may not depend on the build target. The loops without a vector
// body are checked against a plain restatement of their definition. The fuzz matrix
// covers widths 0..257, unaligned row offsets (so vector loads straddle cache lines and
// nothing assumes 16-byte alignment), degenerate empty/1px spans, and adversarial
// content (uniform, bicolor, third color planted at every interesting position, noise).
//
// Every span is copied into a buffer of exactly its width before the call, so a vector
// body that reads or writes one block past the end is an out-of-bounds access the asan
// preset reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "src/codec/row_hash.h"
#include "src/codec/row_ops.h"
#include "src/color/yuv.h"
#include "src/util/rng.h"

namespace slim {
namespace {

// The fuzz width sweep: every width in [0, 257] at several unaligned pixel offsets.
constexpr int32_t kMaxWidth = 257;
constexpr size_t kOffsets[] = {0, 1, 2, 3, 5, 7};

// Source pixels for every (width, offset) pair; spans are copied out with Exact().
std::vector<Pixel> RandomPixels(Rng* rng, size_t palette = 0) {
  std::vector<Pixel> data(kMaxWidth + 8);
  for (Pixel& p : data) {
    p = palette == 0 ? static_cast<Pixel>(rng->NextU64() & 0xffffff)
                     : static_cast<Pixel>(rng->NextBelow(palette) * 0x123457);
  }
  return data;
}

// data[offset, offset + w) in a heap buffer of exactly w pixels.
std::vector<Pixel> Exact(const std::vector<Pixel>& data, size_t offset, int32_t w) {
  return std::vector<Pixel>(data.begin() + offset, data.begin() + offset + w);
}

// The 4-lane FNV-1a row hash restated lane by lane: pixel i of the 4-aligned prefix goes
// to lane i % 4, the tail to lane 0, then the lanes fold and avalanche.
uint64_t RowHashReference(const std::vector<Pixel>& row) {
  constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t lane[4] = {0xcbf29ce484222325ull, 0x9e3779b97f4a7c15ull, 0xbf58476d1ce4e5b9ull,
                      0x94d049bb133111ebull};
  const size_t body = row.size() / 4 * 4;
  for (size_t i = 0; i < row.size(); ++i) {
    uint64_t& h = lane[i < body ? i % 4 : 0];
    h = (h ^ row[i]) * kPrime;
  }
  uint64_t h = (((lane[0] ^ lane[1]) * kPrime ^ lane[2]) * kPrime ^ lane[3]) * kPrime;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

TEST(KernelsTest, RowHashParityFuzz) {
  Rng rng(0xae01);
  for (int round = 0; round < 4; ++round) {
    const std::vector<Pixel> data = RandomPixels(&rng, round == 0 ? 0 : 3);
    for (const size_t offset : kOffsets) {
      for (int32_t w = 0; w <= kMaxWidth; ++w) {
        const std::vector<Pixel> row = Exact(data, offset, w);
        ASSERT_EQ(RowHash64(row), RowHashReference(row)) << "w=" << w << " offset=" << offset;
      }
    }
  }
}

TEST(KernelsTest, ScanColorsParityFuzz) {
  Rng rng(0xae02);
  for (int round = 0; round < 6; ++round) {
    // Rounds: uniform, bicolor x2, tricolor (early-exit), planted third color, noise.
    const size_t palette = round < 1 ? 1 : round < 3 ? 2 : round < 5 ? 3 : 0;
    std::vector<Pixel> data = RandomPixels(&rng, palette);
    if (round == 4) {
      // Adversarial: bicolor everywhere; a third color is planted per width below at
      // the start, middle, or end — the exact spots a vector early-exit can get wrong.
      for (Pixel& p : data) {
        p = (p & 1) ? 0x111111 : 0x222222;
      }
    }
    for (const size_t offset : kOffsets) {
      for (int32_t w = 0; w <= kMaxWidth; ++w) {
        std::vector<Pixel> row = Exact(data, offset, w);
        if (round == 4 && w > 0) {
          row[rng.NextBelow(3) * static_cast<size_t>(w - 1) / 2] = 0x333333;
        }
        ColorScan want;
        ScanColorsScalar(row.data(), row.size(), &want);
        ColorScan got;
        ScanColors(row.data(), row.size(), &got);
        ASSERT_EQ(got.distinct, want.distinct) << "w=" << w << " offset=" << offset;
        ASSERT_EQ(got.first, want.first) << "w=" << w;
        ASSERT_EQ(got.second, want.second) << "w=" << w;
      }
    }
  }
}

// The encoder feeds one ColorScan across many rows; mid-state entry must match too.
TEST(KernelsTest, ScanColorsMultiRowContinuation) {
  Rng rng(0xae03);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::vector<Pixel>> rows;
    for (int r = 0; r < 3; ++r) {
      const std::vector<Pixel> src = RandomPixels(&rng, 1 + static_cast<size_t>(round % 4));
      rows.push_back(Exact(src, 0, 33 + round));
    }
    ColorScan want;
    ColorScan got;
    for (const auto& row : rows) {
      ScanColorsScalar(row.data(), row.size(), &want);
      ScanColors(row.data(), row.size(), &got);
    }
    EXPECT_EQ(got.distinct, want.distinct) << "round " << round;
    EXPECT_EQ(got.first, want.first) << "round " << round;
    EXPECT_EQ(got.second, want.second) << "round " << round;
  }
}

TEST(KernelsTest, PackBitmapRowParityFuzz) {
  Rng rng(0xae04);
  const Pixel fg = 0xabcdef;
  for (int round = 0; round < 4; ++round) {
    std::vector<Pixel> data = RandomPixels(&rng, 2);
    for (Pixel& p : data) {
      p = (p & 1) ? fg : 0x000042;
    }
    for (const size_t offset : kOffsets) {
      for (int32_t w = 0; w <= kMaxWidth; ++w) {
        const std::vector<Pixel> row = Exact(data, offset, w);
        const size_t stride = (static_cast<size_t>(w) + 7) / 8;
        // Poison both outputs so unwritten bytes and stale trailing bits both surface.
        std::vector<uint8_t> want(stride + 2, 0xaa), got(stride + 2, 0x55);
        PackBitmapRowScalar(row.data(), row.size(), fg, want.data());
        PackBitmapRow(row.data(), row.size(), fg, got.data());
        ASSERT_EQ(std::vector<uint8_t>(got.begin(), got.begin() + stride),
                  std::vector<uint8_t>(want.begin(), want.begin() + stride))
            << "w=" << w << " offset=" << offset;
        ASSERT_EQ(got[stride], 0x55) << "w=" << w;  // must not write past (n+7)/8 bytes
      }
    }
  }
}

TEST(KernelsTest, RowDiffSpanParityFuzz) {
  Rng rng(0xae05);
  const std::vector<Pixel> base = RandomPixels(&rng);
  for (const size_t offset : kOffsets) {
    for (int32_t w = 1; w <= kMaxWidth; ++w) {
      for (int variant = 0; variant < 5; ++variant) {
        const std::vector<Pixel> a = Exact(base, offset, w);
        std::vector<Pixel> b = a;
        // Variants: identical, diff at first, diff at last, single random diff, two
        // random diffs (tests that lo/hi bracket, not just find-any).
        if (variant == 1) {
          b[0] ^= 0xffffff;
        } else if (variant == 2) {
          b[static_cast<size_t>(w) - 1] ^= 0xffffff;
        } else if (variant == 3) {
          b[rng.NextBelow(static_cast<uint64_t>(w))] ^= 0xffffff;
        } else if (variant == 4) {
          b[rng.NextBelow(static_cast<uint64_t>(w))] ^= 0xffffff;
          b[rng.NextBelow(static_cast<uint64_t>(w))] ^= 0xffffff;
        }
        int32_t want_lo = w, want_hi = 0;
        for (int32_t i = 0; i < w; ++i) {
          if (a[static_cast<size_t>(i)] != b[static_cast<size_t>(i)]) {
            want_lo = std::min(want_lo, i);
            want_hi = i + 1;
          }
        }
        const bool want = want_hi > 0;
        int32_t lo = -1, hi = -1;
        const bool changed = RowDiffSpan(a.data(), b.data(), a.size(), &lo, &hi);
        ASSERT_EQ(changed, want) << "w=" << w << " variant=" << variant;
        if (want) {
          ASSERT_EQ(lo, want_lo) << "w=" << w;
          ASSERT_EQ(hi, want_hi) << "w=" << w;
        }
      }
    }
  }
  // Degenerate: an empty span is "no difference".
  int32_t lo = 7, hi = 7;
  EXPECT_FALSE(RowDiffSpan(base.data(), base.data() + 1, 0, &lo, &hi));
}

TEST(KernelsTest, RgbToYuvParityFuzz) {
  Rng rng(0xae06);
  std::vector<Pixel> data = RandomPixels(&rng);
  // Saturated corners exercise the U/V clamp (pure blue/red hit 255.5 -> 256 -> 255).
  const Pixel corners[] = {0x000000, 0xffffff, 0xff0000, 0x00ff00, 0x0000ff,
                           0x00ffff, 0xff00ff, 0xffff00, 0x808080, 0x7f8081};
  for (size_t i = 0; i < std::size(corners); ++i) {
    data[i * 13 % data.size()] = corners[i];
  }
  EXPECT_EQ(RgbToYuv(0x000000), (Yuv{0, 128, 128}));
  EXPECT_EQ(RgbToYuv(0xffffff), (Yuv{255, 128, 128}));
  EXPECT_EQ(RgbToYuv(0x808080), (Yuv{128, 128, 128}));
  EXPECT_EQ(RgbToYuv(0x0000ff).u, 255);
  EXPECT_EQ(RgbToYuv(0xff0000).v, 255);
  for (const size_t offset : kOffsets) {
    for (int32_t w = 1; w <= kMaxWidth; ++w) {
      const std::vector<Pixel> row = Exact(data, offset, w);
      const YuvImage image = YuvImage::FromPixels(row, w, 1);
      for (int32_t x = 0; x < w; ++x) {
        ASSERT_EQ(image.At(x, 0), RgbToYuv(row[static_cast<size_t>(x)]))
            << "w=" << w << " offset=" << offset << " x=" << x;
      }
    }
  }
}

// FromPixels is RgbToYuv applied to every pixel of a multi-row image.
TEST(KernelsTest, FromPixelsMatchesSinglePixelConversion) {
  Rng rng(0xae07);
  const int32_t w = 61, h = 17;
  std::vector<Pixel> rgb(static_cast<size_t>(w) * h);
  for (Pixel& p : rgb) {
    p = static_cast<Pixel>(rng.NextU64() & 0xffffff);
  }
  const YuvImage image = YuvImage::FromPixels(rgb, w, h);
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      const Yuv want = RgbToYuv(rgb[static_cast<size_t>(y) * w + x]);
      ASSERT_EQ(image.At(x, y), want) << "at " << x << "," << y;
    }
  }
}

}  // namespace
}  // namespace slim
