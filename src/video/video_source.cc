#include "src/video/video_source.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/util/check.h"

namespace slim {

SyntheticVideoSource::SyntheticVideoSource(int32_t width, int32_t height, uint64_t seed)
    : width_(width), height_(height), seed_(seed) {
  SLIM_CHECK(width > 0 && height > 0);
}

YuvImage SyntheticVideoSource::Frame(int index) const {
  return Render(index, 0, 1, height_);
}

YuvImage SyntheticVideoSource::Field(int index, bool odd) const {
  return Render(index, std::min(height_ - 1, odd ? 1 : 0), 2, std::max(1, height_ / 2));
}

namespace {

uint8_t ToByte(double value) { return static_cast<uint8_t>(std::clamp(value, 0.0, 255.0)); }

// A moving disc: inside radius `r` of (cx, cy) a pixel takes luma base + sign * distance
// and a fixed chroma.
struct Disc {
  double cx;
  double cy;
  double r;
  double base;
  double sign;
  uint8_t u;
  uint8_t v;

  // Paints row y. hypot(a, b) >= |a| and >= |b|, so no pixel farther than r from the
  // centre along either axis can be inside: only the bounding box pays for hypot.
  void Paint(int32_t y, int32_t width, double* luma, uint8_t* u_row, uint8_t* v_row) const {
    const double dy = y - cy;
    if (std::abs(dy) >= r) {
      return;
    }
    const int32_t x_begin = std::max(0, static_cast<int32_t>(std::floor(cx - r)));
    const int32_t x_end = std::min(width, static_cast<int32_t>(std::ceil(cx + r)) + 1);
    for (int32_t x = x_begin; x < x_end; ++x) {
      const double d = std::hypot(x - cx, dy);
      if (d < r) {
        luma[x] = base + sign * d;
        u_row[x] = u;
        v_row[x] = v;
      }
    }
  }
};

}  // namespace

YuvImage SyntheticVideoSource::Render(int index, int32_t first, int32_t step,
                                      int32_t rows) const {
  YuvImage frame(width_, rows);
  // A slowly panning luminance field, two moving "objects", and per-frame grain. Everything
  // derives from (seed, index, x, y) so frames are reproducible and genuinely moving.
  const double t = index * 0.12;
  const double pan_x = 40.0 * std::sin(t * 0.35);
  const double pan_y = 24.0 * std::cos(t * 0.21);
  const Disc discs[] = {
      {width_ * (0.5 + 0.3 * std::sin(t)), height_ * (0.5 + 0.3 * std::cos(t * 1.3)), 40.0,
       220.0, -1.0, 90, 170},
      {width_ * (0.5 + 0.35 * std::cos(t * 0.7)), height_ * (0.5 + 0.25 * std::sin(t * 0.9)),
       28.0, 60.0, 1.0, 170, 90},
  };
  // The field is separable: luma is 110 + 70 sin(gx) cos(1.4 gy), u depends on x alone and
  // v on y alone, so the trigonometry runs once per column and once per row.
  const auto width = static_cast<size_t>(width_);
  std::vector<double> luma_x(width);
  std::vector<uint8_t> u_x(width);
  for (size_t x = 0; x < width; ++x) {
    const double gx = (static_cast<int32_t>(x) + pan_x) * 0.02;
    luma_x[x] = 70.0 * std::sin(gx);
    u_x[x] = ToByte(128.0 + 30.0 * std::sin(gx * 0.5 + t));
  }
  std::vector<double> luma(width);
  Rng grain(seed_ ^ (static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ull));
  const int32_t last = first + (rows - 1) * step;
  for (int32_t y = 0, row = 0; y <= last; ++y) {
    if (y < first || (y - first) % step != 0) {
      // A row this render does not return still draws its grain, so the rows it does
      // return see the same grain stream as in the full frame.
      for (size_t x = 0; x < width; ++x) {
        grain.NextDouble();
      }
      continue;
    }
    const size_t at = static_cast<size_t>(row++) * width;
    uint8_t* y_row = frame.mutable_y_plane().data() + at;
    uint8_t* u_row = frame.mutable_u_plane().data() + at;
    uint8_t* v_row = frame.mutable_v_plane().data() + at;
    const double gy = (y + pan_y) * 0.02;
    const double luma_y = std::cos(gy * 1.4);
    for (size_t x = 0; x < width; ++x) {
      luma[x] = 110.0 + luma_x[x] * luma_y;
    }
    std::copy(u_x.begin(), u_x.end(), u_row);
    std::fill_n(v_row, width, ToByte(128.0 + 30.0 * std::cos(gy * 0.5 - t)));
    for (const Disc& disc : discs) {
      disc.Paint(y, width_, luma.data(), u_row, v_row);
    }
    for (size_t x = 0; x < width; ++x) {
      y_row[x] = ToByte(luma[x] + (grain.NextDouble() - 0.5) * 10.0);
    }
  }
  return frame;
}

SimDuration VideoCpuModel::MpegFrameCost(int64_t decode_pixels, int64_t sent_pixels) const {
  return static_cast<SimDuration>(mpeg_decode_ns_per_pixel *
                                  static_cast<double>(decode_pixels)) +
         static_cast<SimDuration>(convert_ns_per_pixel * static_cast<double>(sent_pixels));
}

SimDuration VideoCpuModel::JpegFieldCost(int64_t pixels) const {
  return static_cast<SimDuration>((jpeg_decode_ns_per_pixel + convert_ns_per_pixel) *
                                  static_cast<double>(pixels));
}

SimDuration VideoCpuModel::QuakeTranslateCost(int64_t pixels) const {
  return static_cast<SimDuration>(translate_ns_per_pixel * static_cast<double>(pixels));
}

SimDuration VideoCpuModel::SendCost(int64_t bytes) const {
  return static_cast<SimDuration>(send_ns_per_byte * static_cast<double>(bytes));
}

}  // namespace slim
