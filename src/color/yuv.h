// Color-space conversion and the CSCS pixel encodings.
//
// The SLIM CSCS display command carries YUV data that the console converts back to RGB with
// optional bilinear upscaling (Section 2.2, Table 5). The Sun Ray 1 supports several bit
// depths; the paper measures 16, 12, 8 and 5 bits/pixel variants and the MPEG player uses a
// 6 bits/pixel mode. We realize those depths as planar YUV with chroma subsampling plus
// component quantization:
//
//   depth   luma       chroma               bits/pixel
//   16      Y8 / px    U8,V8 per 2x1 block  8 + 16/2  = 16     (4:2:2)
//   12      Y8 / px    U8,V8 per 2x2 block  8 + 16/4  = 12     (4:2:0)
//    8      Y6 / px    U4,V4 per 2x2 block  6 + 8/4   = 8      (4:2:0, quantized)
//    6      Y4 / px    U4,V4 per 2x2 block  4 + 8/4   = 6      (4:2:0, quantized)
//    5      Y4 / px    U2,V2 per 2x2 block  4 + 4/4   = 5      (4:2:0, quantized)
//
// Quantized components store the top bits of the 8-bit value and are expanded by bit
// replication on decode. RGB->YUV uses BT.601 studio-swing-free ("full range") constants
// in 20-bit fixed point shared with the SIMD kernel layer (src/codec/kernels/), so the
// conversion is bit-identical across kernel tiers and between the single-pixel and bulk
// (FromPixels) paths.
//
// Decode is one fused pass, DecodeCscsToRgb: it unpacks each source row straight from the
// payload (every plane starts byte-aligned, so any row can be located and read on its own;
// quantized samples expand through a 256-entry table), lerps it horizontally, and converts
// YUV->RGB into the destination rows. No full-resolution, chroma-replicated YuvImage is
// built in between. The server (to keep its framebuffer in sync) and the console (to
// display what it received) both decode through it. UnpackCscsPayload and YuvToRgbScaled
// are the same row code with a YuvImage at one end.
//
// The row code is exact, not approximate. YuvToRgb and the bilinear scale are defined by
// double arithmetic rounded with lround, and the row code reproduces them bit for bit:
//   - The scale evaluates the same double expressions in the same order, with x0/x1/fx
//     hoisted per column, y0/y1/fy per row, and each source row's horizontal lerp cached for
//     the output rows that reuse it. A replicated chroma sample at x is the subsampled
//     sample at x/2, so reading the subsampled row yields the same doubles. lround becomes
//     an inlined trunc-and-compare, exact for the values below 2^31 it sees.
//   - YuvToRgb is y plus a chroma term whose coefficients are multiples of 1e-6. Unless the
//     term sits exactly halfway between two integers, the double result rounds to y plus
//     the term's nearest integer, which tables indexed by chroma hold; the few exact ties
//     evaluate the double expression.
// Neither survives -ffast-math or FP contraction into FMA, so yuv.cc is built with
// -ffp-contract=off and must not get -ffast-math. tests/color_test.cc keeps the per-bit / per-pixel reference code and checks
// the row code against it, YuvToRgb on all 2^24 inputs.

#ifndef SRC_COLOR_YUV_H_
#define SRC_COLOR_YUV_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/fb/framebuffer.h"

namespace slim {

struct Yuv {
  uint8_t y = 0;
  uint8_t u = 128;
  uint8_t v = 128;
  bool operator==(const Yuv&) const = default;
};

Yuv RgbToYuv(Pixel rgb);
Pixel YuvToRgb(Yuv yuv);

enum class CscsDepth : uint8_t {
  k16 = 16,
  k12 = 12,
  k8 = 8,
  k6 = 6,
  k5 = 5,
};

// Bits of payload per pixel for a depth (matches the enum value).
int BitsPerPixel(CscsDepth depth);

// A planar, full-resolution YUV image; the staging format between video sources / renderers
// and the CSCS encoder.
class YuvImage {
 public:
  YuvImage(int32_t width, int32_t height);

  int32_t width() const { return width_; }
  int32_t height() const { return height_; }

  Yuv At(int32_t x, int32_t y) const;
  void Set(int32_t x, int32_t y, Yuv value);

  // Converts an RGB block (row-major, w*h) into this image. Sizes must match.
  static YuvImage FromPixels(std::span<const Pixel> rgb, int32_t w, int32_t h);

  std::span<const uint8_t> y_plane() const { return y_; }
  std::span<const uint8_t> u_plane() const { return u_; }
  std::span<const uint8_t> v_plane() const { return v_; }
  std::span<uint8_t> mutable_y_plane() { return y_; }
  std::span<uint8_t> mutable_u_plane() { return u_; }
  std::span<uint8_t> mutable_v_plane() { return v_; }

 private:
  int32_t width_;
  int32_t height_;
  std::vector<uint8_t> y_;
  std::vector<uint8_t> u_;
  std::vector<uint8_t> v_;
};

// Packs a YuvImage into the CSCS wire payload for a depth. Deterministic layout: the whole
// (possibly subsampled/quantized) Y plane, then U, then V, each byte-packed MSB-first.
std::vector<uint8_t> PackCscsPayload(const YuvImage& image, CscsDepth depth);

// Number of payload bytes PackCscsPayload produces for a w*h image at the given depth.
size_t CscsPayloadBytes(int32_t w, int32_t h, CscsDepth depth);

// Unpacks a CSCS payload back into a full-resolution YuvImage (chroma is replicated across
// its subsampling block; quantized components are bit-replicated back to 8 bits). A short
// payload reads as if padded with zero bytes.
YuvImage UnpackCscsPayload(std::span<const uint8_t> payload, int32_t w, int32_t h,
                           CscsDepth depth);

// Converts the YUV image to RGB pixels, bilinearly scaled to dst_w x dst_h.
// When the sizes match this is a straight conversion.
std::vector<Pixel> YuvToRgbScaled(const YuvImage& image, int32_t dst_w, int32_t dst_h);

// The fused decode: writes the src_w x src_h CSCS payload into fb at dst, bilinearly scaled
// to dst's size and clipped to fb's bounds. Pixel-identical to
// fb->SetPixels(dst, YuvToRgbScaled(UnpackCscsPayload(...), dst.w, dst.h)), short payloads
// included.
void DecodeCscsToRgb(std::span<const uint8_t> payload, int32_t src_w, int32_t src_h,
                     CscsDepth depth, const Rect& dst, Framebuffer* fb);

}  // namespace slim

#endif  // SRC_COLOR_YUV_H_
