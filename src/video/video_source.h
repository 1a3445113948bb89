// Synthetic video sources (paper Section 7.1/7.2 substitutes).
//
// We have neither an MPEG-II clip nor an NTSC capture card, and the experiments do not care
// about picture content — they measure the server decode pipeline, the CSCS encoding rate,
// bandwidth, and the console's sustained processing. SyntheticVideoSource produces moving,
// photograph-statistics YUV frames (panning gradients, moving objects, film grain), and the
// server-side costs of the codecs it stands in for are modeled in VideoCpuModel.

#ifndef SRC_VIDEO_VIDEO_SOURCE_H_
#define SRC_VIDEO_VIDEO_SOURCE_H_

#include <cstdint>

#include "src/color/yuv.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace slim {

class SyntheticVideoSource {
 public:
  SyntheticVideoSource(int32_t width, int32_t height, uint64_t seed);

  int32_t width() const { return width_; }
  int32_t height() const { return height_; }

  // Produces frame `index` (deterministic; frames differ from each other).
  YuvImage Frame(int index) const;

  // Interlaced field capture: even or odd lines only, at half height (the NTSC path).
  YuvImage Field(int index, bool odd) const;

 private:
  // Renders `rows` rows of frame `index`: source rows first, first + step, ... .
  YuvImage Render(int index, int32_t first, int32_t step, int32_t rows) const;

  int32_t width_;
  int32_t height_;
  uint64_t seed_;
};

// Server-side CPU costs of the media pipelines, calibrated to the paper's reported rates on
// a ~336 MHz UltraSPARC-II (Section 7: MPEG-II 720x480 at 20 Hz consumes nearly a CPU;
// JPEG NTSC field decode fully consumes one; Quake translation costs 30 ms/frame and its
// transmission 13 ms/frame at 640x480).
struct VideoCpuModel {
  double mpeg_decode_ns_per_pixel = 60.0;   // full-frame MPEG-II decode
  double jpeg_decode_ns_per_pixel = 250.0;  // JPEG field decompression
  double convert_ns_per_pixel = 60.0;       // YUV extraction / packing for CSCS
  double translate_ns_per_pixel = 97.0;     // Quake 8-bit -> 5-bit YUV table lookup
  double send_ns_per_byte = 30.0;           // UDP transmit path

  SimDuration MpegFrameCost(int64_t decode_pixels, int64_t sent_pixels) const;
  SimDuration JpegFieldCost(int64_t pixels) const;
  SimDuration QuakeTranslateCost(int64_t pixels) const;
  SimDuration SendCost(int64_t bytes) const;
};

}  // namespace slim

#endif  // SRC_VIDEO_VIDEO_SOURCE_H_
