// Tests for RGB<->YUV conversion and the CSCS payload encodings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/color/yuv.h"
#include "src/util/rng.h"

namespace slim {
namespace {

// The per-bit / per-pixel colour path the library shipped before its row code, kept here
// verbatim as the oracle the row code must match bit for bit.
namespace reference {

uint8_t ClampByte(int v) { return static_cast<uint8_t>(std::clamp(v, 0, 255)); }

uint8_t ExpandBits(uint32_t value, int bits) {
  uint32_t out = value << (8 - bits);
  int filled = bits;
  while (filled < 8) {
    out |= out >> filled;
    filled *= 2;
  }
  return static_cast<uint8_t>(out & 0xff);
}

struct DepthSpec {
  int y_bits;
  int c_bits;
  int c_sub_x;
  int c_sub_y;
};

DepthSpec SpecFor(CscsDepth depth) {
  switch (depth) {
    case CscsDepth::k16:
      return {8, 8, 2, 1};
    case CscsDepth::k12:
      return {8, 8, 2, 2};
    case CscsDepth::k8:
      return {6, 4, 2, 2};
    case CscsDepth::k6:
      return {4, 4, 2, 2};
    case CscsDepth::k5:
      return {4, 2, 2, 2};
  }
  return {};
}

class BitWriter {
 public:
  explicit BitWriter(std::vector<uint8_t>* out) : out_(out) {}

  void Write(uint32_t value, int bits) {
    for (int i = bits - 1; i >= 0; --i) {
      if (bit_pos_ == 0) {
        out_->push_back(0);
      }
      const uint8_t bit = (value >> i) & 1;
      out_->back() |= static_cast<uint8_t>(bit << (7 - bit_pos_));
      bit_pos_ = (bit_pos_ + 1) & 7;
    }
  }

  void AlignByte() { bit_pos_ = 0; }

 private:
  std::vector<uint8_t>* out_;
  int bit_pos_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> data) : data_(data) {}

  uint32_t Read(int bits) {
    uint32_t value = 0;
    for (int i = 0; i < bits; ++i) {
      uint8_t bit = 0;
      if (byte_pos_ < data_.size()) {
        bit = (data_[byte_pos_] >> (7 - bit_pos_)) & 1;
      }
      value = (value << 1) | bit;
      if (++bit_pos_ == 8) {
        bit_pos_ = 0;
        ++byte_pos_;
      }
    }
    return value;
  }

  void AlignByte() {
    if (bit_pos_ != 0) {
      bit_pos_ = 0;
      ++byte_pos_;
    }
  }

 private:
  std::span<const uint8_t> data_;
  size_t byte_pos_ = 0;
  int bit_pos_ = 0;
};

Pixel YuvToRgb(Yuv yuv) {
  const double y = yuv.y;
  const double u = yuv.u - 128.0;
  const double v = yuv.v - 128.0;
  const uint8_t r = ClampByte(static_cast<int>(std::lround(y + 1.402 * v)));
  const uint8_t g = ClampByte(static_cast<int>(std::lround(y - 0.344136 * u - 0.714136 * v)));
  const uint8_t b = ClampByte(static_cast<int>(std::lround(y + 1.772 * u)));
  return MakePixel(r, g, b);
}

std::vector<uint8_t> PackCscsPayload(const YuvImage& image, CscsDepth depth) {
  const DepthSpec spec = SpecFor(depth);
  const int32_t w = image.width();
  const int32_t h = image.height();
  std::vector<uint8_t> out;
  out.reserve(CscsPayloadBytes(w, h, depth));
  BitWriter writer(&out);
  // Y plane: quantize by keeping top bits.
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      writer.Write(image.At(x, y).y >> (8 - spec.y_bits), spec.y_bits);
    }
  }
  writer.AlignByte();
  // Chroma planes: average each subsampling block, then quantize.
  const int32_t cw = (w + spec.c_sub_x - 1) / spec.c_sub_x;
  const int32_t ch = (h + spec.c_sub_y - 1) / spec.c_sub_y;
  for (const bool is_u : {true, false}) {
    for (int32_t cy = 0; cy < ch; ++cy) {
      for (int32_t cx = 0; cx < cw; ++cx) {
        int sum = 0;
        int count = 0;
        for (int32_t dy = 0; dy < spec.c_sub_y; ++dy) {
          for (int32_t dx = 0; dx < spec.c_sub_x; ++dx) {
            const int32_t px = cx * spec.c_sub_x + dx;
            const int32_t py = cy * spec.c_sub_y + dy;
            if (px < w && py < h) {
              const Yuv s = image.At(px, py);
              sum += is_u ? s.u : s.v;
              ++count;
            }
          }
        }
        const int avg = count > 0 ? (sum + count / 2) / count : 128;
        writer.Write(static_cast<uint32_t>(avg) >> (8 - spec.c_bits), spec.c_bits);
      }
    }
    writer.AlignByte();
  }
  return out;
}

YuvImage UnpackCscsPayload(std::span<const uint8_t> payload, int32_t w, int32_t h,
                           CscsDepth depth) {
  const DepthSpec spec = SpecFor(depth);
  YuvImage image(w, h);
  BitReader reader(payload);
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      Yuv s = image.At(x, y);
      s.y = ExpandBits(reader.Read(spec.y_bits), spec.y_bits);
      image.Set(x, y, s);
    }
  }
  reader.AlignByte();
  const int32_t cw = (w + spec.c_sub_x - 1) / spec.c_sub_x;
  const int32_t ch = (h + spec.c_sub_y - 1) / spec.c_sub_y;
  for (const bool is_u : {true, false}) {
    for (int32_t cy = 0; cy < ch; ++cy) {
      for (int32_t cx = 0; cx < cw; ++cx) {
        const uint8_t value = ExpandBits(reader.Read(spec.c_bits), spec.c_bits);
        for (int32_t dy = 0; dy < spec.c_sub_y; ++dy) {
          for (int32_t dx = 0; dx < spec.c_sub_x; ++dx) {
            const int32_t px = cx * spec.c_sub_x + dx;
            const int32_t py = cy * spec.c_sub_y + dy;
            if (px < w && py < h) {
              Yuv s = image.At(px, py);
              if (is_u) {
                s.u = value;
              } else {
                s.v = value;
              }
              image.Set(px, py, s);
            }
          }
        }
      }
    }
    reader.AlignByte();
  }
  return image;
}

std::vector<Pixel> YuvToRgbScaled(const YuvImage& image, int32_t dst_w, int32_t dst_h) {
  std::vector<Pixel> out(static_cast<size_t>(dst_w) * dst_h);
  const int32_t sw = image.width();
  const int32_t sh = image.height();
  const double x_ratio = static_cast<double>(sw) / dst_w;
  const double y_ratio = static_cast<double>(sh) / dst_h;
  for (int32_t dy = 0; dy < dst_h; ++dy) {
    const double sy = std::max(0.0, (dy + 0.5) * y_ratio - 0.5);
    const int32_t y0 = std::min(static_cast<int32_t>(sy), sh - 1);
    const int32_t y1 = std::min(y0 + 1, sh - 1);
    const double fy = sy - y0;
    for (int32_t dx = 0; dx < dst_w; ++dx) {
      const double sx = std::max(0.0, (dx + 0.5) * x_ratio - 0.5);
      const int32_t x0 = std::min(static_cast<int32_t>(sx), sw - 1);
      const int32_t x1 = std::min(x0 + 1, sw - 1);
      const double fx = sx - x0;
      auto lerp = [&](auto get) {
        const double top = get(x0, y0) * (1 - fx) + get(x1, y0) * fx;
        const double bot = get(x0, y1) * (1 - fx) + get(x1, y1) * fx;
        return top * (1 - fy) + bot * fy;
      };
      Yuv s;
      s.y = ClampByte(static_cast<int>(
          std::lround(lerp([&](int32_t x, int32_t y) { return double{1} * image.At(x, y).y; }))));
      s.u = ClampByte(static_cast<int>(
          std::lround(lerp([&](int32_t x, int32_t y) { return double{1} * image.At(x, y).u; }))));
      s.v = ClampByte(static_cast<int>(
          std::lround(lerp([&](int32_t x, int32_t y) { return double{1} * image.At(x, y).v; }))));
      out[static_cast<size_t>(dy) * dst_w + dx] = reference::YuvToRgb(s);
    }
  }
  return out;
}

}  // namespace reference

constexpr CscsDepth kAllDepths[] = {CscsDepth::k16, CscsDepth::k12, CscsDepth::k8,
                                    CscsDepth::k6, CscsDepth::k5};

YuvImage RandomImage(int32_t w, int32_t h, Rng* rng) {
  YuvImage image(w, h);
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      image.Set(x, y, Yuv{static_cast<uint8_t>(rng->NextBelow(256)),
                          static_cast<uint8_t>(rng->NextBelow(256)),
                          static_cast<uint8_t>(rng->NextBelow(256))});
    }
  }
  return image;
}

// Every width 1..67 against a handful of heights, and every height 1..67 against a handful
// of widths: odd sizes, 1xN and Nx1 included.
std::vector<std::pair<int32_t, int32_t>> ParitySizes() {
  std::vector<std::pair<int32_t, int32_t>> sizes;
  for (int32_t n = 1; n <= 67; ++n) {
    for (const int32_t m : {1, 2, 3, 4, 7, 16}) {
      sizes.emplace_back(n, m);
      sizes.emplace_back(m, n);
    }
  }
  return sizes;
}

void ExpectSameImage(const YuvImage& got, const YuvImage& want) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  EXPECT_TRUE(std::ranges::equal(got.y_plane(), want.y_plane()));
  EXPECT_TRUE(std::ranges::equal(got.u_plane(), want.u_plane()));
  EXPECT_TRUE(std::ranges::equal(got.v_plane(), want.v_plane()));
}

// The pixels of a fb_w x fb_h framebuffer after the reference decode of `payload` at dst.
std::vector<Pixel> ReferenceDecode(std::span<const uint8_t> payload, int32_t sw, int32_t sh,
                                   CscsDepth depth, const Rect& dst, int32_t fb_w,
                                   int32_t fb_h) {
  Framebuffer fb(fb_w, fb_h, MakePixel(1, 2, 3));
  fb.SetPixels(dst, reference::YuvToRgbScaled(
                        reference::UnpackCscsPayload(payload, sw, sh, depth), dst.w, dst.h));
  return {fb.data().begin(), fb.data().end()};
}

// The same after the fused decode.
std::vector<Pixel> FusedDecode(std::span<const uint8_t> payload, int32_t sw, int32_t sh,
                               CscsDepth depth, const Rect& dst, int32_t fb_w, int32_t fb_h) {
  Framebuffer fb(fb_w, fb_h, MakePixel(1, 2, 3));
  DecodeCscsToRgb(payload, sw, sh, depth, dst, &fb);
  return {fb.data().begin(), fb.data().end()};
}

int ChannelError(Pixel a, Pixel b) {
  return std::max({std::abs(PixelR(a) - PixelR(b)), std::abs(PixelG(a) - PixelG(b)),
                   std::abs(PixelB(a) - PixelB(b))});
}

TEST(YuvTest, GrayAxisMapsToNeutralChroma) {
  for (int v = 0; v <= 255; v += 15) {
    const Yuv yuv = RgbToYuv(MakePixel(static_cast<uint8_t>(v), static_cast<uint8_t>(v),
                                       static_cast<uint8_t>(v)));
    EXPECT_NEAR(yuv.y, v, 1);
    EXPECT_NEAR(yuv.u, 128, 1);
    EXPECT_NEAR(yuv.v, 128, 1);
  }
}

TEST(YuvTest, PrimariesHaveExpectedLuma) {
  EXPECT_NEAR(RgbToYuv(MakePixel(255, 0, 0)).y, 76, 2);   // 0.299 * 255
  EXPECT_NEAR(RgbToYuv(MakePixel(0, 255, 0)).y, 150, 2);  // 0.587 * 255
  EXPECT_NEAR(RgbToYuv(MakePixel(0, 0, 255)).y, 29, 2);   // 0.114 * 255
}

TEST(YuvTest, RoundTripErrorBounded) {
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const Pixel p = static_cast<Pixel>(rng.NextU64() & 0xffffff);
    const Pixel q = YuvToRgb(RgbToYuv(p));
    EXPECT_LE(ChannelError(p, q), 3) << std::hex << p;
  }
}

TEST(CscsTest, PayloadBytesMatchDepthBudget) {
  // For block-aligned sizes the payload must be exactly depth/8 bytes per pixel.
  for (const CscsDepth depth : {CscsDepth::k16, CscsDepth::k12, CscsDepth::k8, CscsDepth::k6,
                                CscsDepth::k5}) {
    const int32_t w = 64;
    const int32_t h = 32;
    const size_t expected =
        static_cast<size_t>(w) * h * static_cast<size_t>(BitsPerPixel(depth)) / 8;
    EXPECT_EQ(CscsPayloadBytes(w, h, depth), expected) << BitsPerPixel(depth);
  }
}

TEST(CscsTest, PackedSizeMatchesPredictedSize) {
  Rng rng(9);
  for (const CscsDepth depth : {CscsDepth::k16, CscsDepth::k12, CscsDepth::k8, CscsDepth::k6,
                                CscsDepth::k5}) {
    for (const auto& [w, h] : {std::pair{17, 9}, std::pair{64, 48}, std::pair{3, 3}}) {
      YuvImage image(w, h);
      for (int32_t y = 0; y < h; ++y) {
        for (int32_t x = 0; x < w; ++x) {
          image.Set(x, y, Yuv{static_cast<uint8_t>(rng.NextBelow(256)),
                              static_cast<uint8_t>(rng.NextBelow(256)),
                              static_cast<uint8_t>(rng.NextBelow(256))});
        }
      }
      EXPECT_EQ(PackCscsPayload(image, depth).size(), CscsPayloadBytes(w, h, depth));
    }
  }
}

TEST(CscsTest, SixteenBitRoundTripPreservesLumaExactly) {
  Rng rng(11);
  YuvImage image(32, 16);
  for (int32_t y = 0; y < 16; ++y) {
    for (int32_t x = 0; x < 32; ++x) {
      image.Set(x, y, Yuv{static_cast<uint8_t>(rng.NextBelow(256)), 128, 128});
    }
  }
  const auto payload = PackCscsPayload(image, CscsDepth::k16);
  const YuvImage back = UnpackCscsPayload(payload, 32, 16, CscsDepth::k16);
  for (int32_t y = 0; y < 16; ++y) {
    for (int32_t x = 0; x < 32; ++x) {
      EXPECT_EQ(back.At(x, y).y, image.At(x, y).y);
    }
  }
}

TEST(CscsTest, UniformImageSurvivesEveryDepth) {
  YuvImage image(24, 24);
  const Yuv value = RgbToYuv(MakePixel(120, 64, 200));
  for (int32_t y = 0; y < 24; ++y) {
    for (int32_t x = 0; x < 24; ++x) {
      image.Set(x, y, value);
    }
  }
  for (const CscsDepth depth : {CscsDepth::k16, CscsDepth::k12, CscsDepth::k8, CscsDepth::k6,
                                CscsDepth::k5}) {
    const YuvImage back =
        UnpackCscsPayload(PackCscsPayload(image, depth), 24, 24, depth);
    const int tolerance = BitsPerPixel(depth) >= 12 ? 1 : 40;  // quantization widens error
    for (int32_t y = 0; y < 24; ++y) {
      for (int32_t x = 0; x < 24; ++x) {
        EXPECT_NEAR(back.At(x, y).y, value.y, tolerance);
        EXPECT_NEAR(back.At(x, y).u, value.u, tolerance);
        EXPECT_NEAR(back.At(x, y).v, value.v, tolerance);
      }
    }
  }
}

TEST(CscsTest, RoundTripErrorShrinksWithDepth) {
  // Aggregate luma error must be monotone in bit depth for natural content.
  Rng rng(13);
  YuvImage image(64, 64);
  for (int32_t y = 0; y < 64; ++y) {
    for (int32_t x = 0; x < 64; ++x) {
      // Smooth gradient plus noise, photograph-like.
      const auto base = static_cast<uint8_t>((x * 2 + y) & 0xff);
      image.Set(x, y, Yuv{base, static_cast<uint8_t>(96 + (x & 31)),
                          static_cast<uint8_t>(160 - (y & 31))});
    }
  }
  double previous_error = 1e18;
  for (const CscsDepth depth : {CscsDepth::k5, CscsDepth::k6, CscsDepth::k8, CscsDepth::k12,
                                CscsDepth::k16}) {
    const YuvImage back = UnpackCscsPayload(PackCscsPayload(image, depth), 64, 64, depth);
    double err = 0;
    for (int32_t y = 0; y < 64; ++y) {
      for (int32_t x = 0; x < 64; ++x) {
        err += std::abs(back.At(x, y).y - image.At(x, y).y) +
               std::abs(back.At(x, y).u - image.At(x, y).u) +
               std::abs(back.At(x, y).v - image.At(x, y).v);
      }
    }
    EXPECT_LE(err, previous_error) << "depth " << BitsPerPixel(depth);
    previous_error = err;
  }
}

TEST(ScaleTest, IdentityScaleMatchesDirectConversion) {
  Rng rng(17);
  YuvImage image(20, 12);
  for (int32_t y = 0; y < 12; ++y) {
    for (int32_t x = 0; x < 20; ++x) {
      image.Set(x, y, Yuv{static_cast<uint8_t>(rng.NextBelow(256)),
                          static_cast<uint8_t>(rng.NextBelow(256)),
                          static_cast<uint8_t>(rng.NextBelow(256))});
    }
  }
  const auto out = YuvToRgbScaled(image, 20, 12);
  for (int32_t y = 0; y < 12; ++y) {
    for (int32_t x = 0; x < 20; ++x) {
      EXPECT_EQ(out[static_cast<size_t>(y) * 20 + x], YuvToRgb(image.At(x, y)));
    }
  }
}

TEST(ScaleTest, UpscaleOfUniformImageStaysUniform) {
  YuvImage image(8, 8);
  const Yuv value = RgbToYuv(MakePixel(40, 180, 90));
  for (int32_t y = 0; y < 8; ++y) {
    for (int32_t x = 0; x < 8; ++x) {
      image.Set(x, y, value);
    }
  }
  const auto out = YuvToRgbScaled(image, 32, 24);  // the paper's 2x video upscale and more
  const Pixel expected = YuvToRgb(value);
  for (const Pixel p : out) {
    EXPECT_LE(ChannelError(p, expected), 1);
  }
}

TEST(ScaleTest, UpscaleInterpolatesBetweenExtremes) {
  YuvImage image(2, 1);
  image.Set(0, 0, Yuv{0, 128, 128});
  image.Set(1, 0, Yuv{255, 128, 128});
  const auto out = YuvToRgbScaled(image, 8, 1);
  // Values must be monotone left to right.
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(PixelR(out[i]), PixelR(out[i - 1]));
  }
  EXPECT_LT(PixelR(out[0]), 64);
  EXPECT_GT(PixelR(out[7]), 192);
}

TEST(YuvParityTest, YuvToRgbMatchesReferenceOnAllInputs) {
  int64_t mismatches = 0;
  for (int y = 0; y < 256; ++y) {
    for (int u = 0; u < 256; ++u) {
      for (int v = 0; v < 256; ++v) {
        const Yuv yuv{static_cast<uint8_t>(y), static_cast<uint8_t>(u), static_cast<uint8_t>(v)};
        mismatches += YuvToRgb(yuv) != reference::YuvToRgb(yuv) ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(CscsParityTest, PackAndUnpackMatchReferenceAtEverySize) {
  Rng rng(21);
  for (const CscsDepth depth : kAllDepths) {
    for (const auto& [w, h] : ParitySizes()) {
      SCOPED_TRACE(testing::Message() << BitsPerPixel(depth) << " bpp " << w << "x" << h);
      const YuvImage image = RandomImage(w, h, &rng);
      const std::vector<uint8_t> payload = PackCscsPayload(image, depth);
      ASSERT_EQ(payload, reference::PackCscsPayload(image, depth));
      ExpectSameImage(UnpackCscsPayload(payload, w, h, depth),
                      reference::UnpackCscsPayload(payload, w, h, depth));
    }
  }
}

TEST(ScaleParityTest, YuvToRgbScaledMatchesReference) {
  Rng rng(23);
  // Identity, the half-line 2x vertical, 2x both ways, non-integer ratios (7->13) and
  // downscales (the server decodes frames clipped smaller than their source).
  const std::pair<int32_t, int32_t> kRatios[] = {{1, 1}, {1, 2}, {2, 2}, {7, 13}, {3, 5},
                                                 {13, 7}, {5, 3}};
  for (const auto& [w, h] : ParitySizes()) {
    const YuvImage image = RandomImage(w, h, &rng);
    for (const auto& [num_x, num_y] : kRatios) {
      for (const bool swap : {false, true}) {
        const int32_t dw = std::max(1, w * (swap ? num_y : num_x) / (swap ? num_x : num_y));
        const int32_t dh = std::max(1, h * num_y / num_x);
        SCOPED_TRACE(testing::Message() << w << "x" << h << " -> " << dw << "x" << dh);
        ASSERT_EQ(YuvToRgbScaled(image, dw, dh), reference::YuvToRgbScaled(image, dw, dh));
      }
    }
  }
}

TEST(CscsParityTest, FusedDecodeMatchesUnpackThenScale) {
  Rng rng(29);
  for (const CscsDepth depth : kAllDepths) {
    for (const auto& [w, h] : ParitySizes()) {
      const std::vector<uint8_t> payload = PackCscsPayload(RandomImage(w, h, &rng), depth);
      const Rect dsts[] = {
          {3, 2, w, h},                        // identity
          {0, 0, w, 2 * h},                    // half-line mode: 2x vertical
          {1, 1, (w * 13 + 6) / 7, (h * 13 + 6) / 7},  // 7 -> 13
          {5, 4, 2 * w + 1, h + 3},            // mixed ratios
          {-2, -3, w + 4, 2 * h},              // clipped at the top-left edge
          {60, 50, 3 * w, 3 * h},              // clipped at the bottom-right edge
      };
      for (const Rect& dst : dsts) {
        SCOPED_TRACE(testing::Message() << BitsPerPixel(depth) << " bpp " << w << "x" << h
                                        << " -> " << dst.ToString());
        ASSERT_EQ(FusedDecode(payload, w, h, depth, dst, 80, 72),
                  ReferenceDecode(payload, w, h, depth, dst, 80, 72));
      }
    }
  }
}

TEST(CscsParityTest, FusedDecodeMatchesReferenceAtVideoSizes) {
  Rng rng(31);
  struct Case {
    int32_t sw, sh;
    CscsDepth depth;
    Rect dst;
  };
  // Section 7's streams: MPEG full frames, half-line MPEG, JPEG fields and the contended
  // 640x480 8 bpp stream.
  const Case cases[] = {
      {720, 480, CscsDepth::k6, {40, 40, 720, 480}},
      {720, 240, CscsDepth::k6, {40, 40, 720, 480}},
      {640, 240, CscsDepth::k12, {0, 0, 640, 480}},
      {640, 480, CscsDepth::k8, {600, 40, 640, 480}},
  };
  for (const Case& c : cases) {
    const std::vector<uint8_t> payload = PackCscsPayload(RandomImage(c.sw, c.sh, &rng), c.depth);
    EXPECT_EQ(FusedDecode(payload, c.sw, c.sh, c.depth, c.dst, 1280, 1024),
              ReferenceDecode(payload, c.sw, c.sh, c.depth, c.dst, 1280, 1024))
        << c.sw << "x" << c.sh;
  }
}

TEST(CscsParityTest, ShortPayloadsReadAsZeroPadded) {
  // UnpackCscsPayload parses untrusted bytes: a truncated or empty payload must decode as if
  // zero-padded (the reference bit reader's behaviour) and never read past its end, which
  // the asan preset checks.
  Rng rng(37);
  for (const CscsDepth depth : kAllDepths) {
    for (const auto& [w, h] : {std::pair{9, 7}, std::pair{1, 5}, std::pair{16, 2}}) {
      const std::vector<uint8_t> full = PackCscsPayload(RandomImage(w, h, &rng), depth);
      for (size_t len = 0; len < full.size(); ++len) {
        SCOPED_TRACE(testing::Message() << BitsPerPixel(depth) << " bpp " << w << "x" << h
                                        << " truncated to " << len);
        // A heap copy of exactly `len` bytes, so any read past the end is an asan error.
        const std::vector<uint8_t> cut(full.begin(), full.begin() + static_cast<ptrdiff_t>(len));
        ExpectSameImage(UnpackCscsPayload(cut, w, h, depth),
                        reference::UnpackCscsPayload(cut, w, h, depth));
        const Rect dst{0, 0, 2 * w, 2 * h};
        ASSERT_EQ(FusedDecode(cut, w, h, depth, dst, 2 * w, 2 * h),
                  ReferenceDecode(cut, w, h, depth, dst, 2 * w, 2 * h));
      }
    }
  }
}

}  // namespace
}  // namespace slim
