// Tests for the video sources, media pipeline, raycast engine and YUV translation layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/quake/raycaster.h"
#include "src/server/slim_server.h"
#include "src/video/pipeline.h"
#include "src/video/video_source.h"

namespace slim {
namespace {

// SyntheticVideoSource::Frame/Field as the library shipped them before the hoisted row
// renderer, kept verbatim (as free functions) as the oracle it must match bit for bit.
namespace reference {

YuvImage Frame(int32_t width_, int32_t height_, uint64_t seed_, int index) {
  YuvImage frame(width_, height_);
  const double t = index * 0.12;
  const double pan_x = 40.0 * std::sin(t * 0.35);
  const double pan_y = 24.0 * std::cos(t * 0.21);
  const double ox1 = width_ * (0.5 + 0.3 * std::sin(t));
  const double oy1 = height_ * (0.5 + 0.3 * std::cos(t * 1.3));
  const double ox2 = width_ * (0.5 + 0.35 * std::cos(t * 0.7));
  const double oy2 = height_ * (0.5 + 0.25 * std::sin(t * 0.9));
  Rng grain(seed_ ^ (static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ull));
  for (int32_t y = 0; y < height_; ++y) {
    for (int32_t x = 0; x < width_; ++x) {
      const double gx = (x + pan_x) * 0.02;
      const double gy = (y + pan_y) * 0.02;
      double luma = 110.0 + 70.0 * std::sin(gx) * std::cos(gy * 1.4);
      double u = 128.0 + 30.0 * std::sin(gx * 0.5 + t);
      double v = 128.0 + 30.0 * std::cos(gy * 0.5 - t);
      const double d1 = std::hypot(x - ox1, y - oy1);
      if (d1 < 40.0) {
        luma = 220.0 - d1;
        u = 90.0;
        v = 170.0;
      }
      const double d2 = std::hypot(x - ox2, y - oy2);
      if (d2 < 28.0) {
        luma = 60.0 + d2;
        u = 170.0;
        v = 90.0;
      }
      luma += (grain.NextDouble() - 0.5) * 10.0;
      frame.Set(x, y,
                Yuv{static_cast<uint8_t>(std::clamp(luma, 0.0, 255.0)),
                    static_cast<uint8_t>(std::clamp(u, 0.0, 255.0)),
                    static_cast<uint8_t>(std::clamp(v, 0.0, 255.0))});
    }
  }
  return frame;
}

YuvImage Field(int32_t width_, int32_t height_, uint64_t seed_, int index, bool odd) {
  const YuvImage full = Frame(width_, height_, seed_, index);
  YuvImage field(width_, std::max(1, height_ / 2));
  for (int32_t y = 0; y < field.height(); ++y) {
    const int32_t src_y = std::min(height_ - 1, y * 2 + (odd ? 1 : 0));
    for (int32_t x = 0; x < width_; ++x) {
      field.Set(x, y, full.At(x, src_y));
    }
  }
  return field;
}

}  // namespace reference

void ExpectSameImage(const YuvImage& got, const YuvImage& want) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  EXPECT_TRUE(std::ranges::equal(got.y_plane(), want.y_plane()));
  EXPECT_TRUE(std::ranges::equal(got.u_plane(), want.u_plane()));
  EXPECT_TRUE(std::ranges::equal(got.v_plane(), want.v_plane()));
}

TEST(VideoSourceParityTest, FramesAndFieldsMatchReference) {
  // Sizes from the real streams down to ones where the discs cover or overhang the whole
  // picture; odd heights and 1-pixel edges exercise the field row mapping.
  const std::pair<int32_t, int32_t> kSizes[] = {{160, 120}, {67, 45}, {97, 1}, {1, 7}, {2, 3}};
  for (const uint64_t seed : {1ull, 42ull, 0x5eedull}) {
    for (const auto& [w, h] : kSizes) {
      const SyntheticVideoSource source(w, h, seed);
      for (int index = 0; index < 40; ++index) {
        SCOPED_TRACE(testing::Message() << w << "x" << h << " seed " << seed << " frame "
                                        << index);
        ExpectSameImage(source.Frame(index), reference::Frame(w, h, seed, index));
        for (const bool odd : {false, true}) {
          ExpectSameImage(source.Field(index, odd), reference::Field(w, h, seed, index, odd));
        }
      }
    }
  }
}

TEST(VideoSourceParityTest, VideoSizedFramesMatchReference) {
  // Section 7's 720x480 MPEG and 640x480 streams, where the discs' bounding boxes are a
  // small part of the picture.
  for (const auto& [w, h] : {std::pair{720, 480}, std::pair{640, 480}}) {
    const SyntheticVideoSource source(w, h, 9);
    for (const int index : {0, 7, 23, 39}) {
      SCOPED_TRACE(testing::Message() << w << "x" << h << " frame " << index);
      ExpectSameImage(source.Frame(index), reference::Frame(w, h, 9, index));
      ExpectSameImage(source.Field(index, index % 2 == 1),
                      reference::Field(w, h, 9, index, index % 2 == 1));
    }
  }
}

TEST(VideoSourceTest, FramesAreDeterministicAndMoving) {
  SyntheticVideoSource source(64, 48, 42);
  const YuvImage a0 = source.Frame(0);
  const YuvImage a0_again = source.Frame(0);
  const YuvImage a5 = source.Frame(5);
  int same = 0;
  int diff = 0;
  for (int32_t y = 0; y < 48; ++y) {
    for (int32_t x = 0; x < 64; ++x) {
      same += a0.At(x, y) == a0_again.At(x, y) ? 1 : 0;
      diff += a0.At(x, y) == a5.At(x, y) ? 0 : 1;
    }
  }
  EXPECT_EQ(same, 64 * 48) << "same frame index must reproduce exactly";
  EXPECT_GT(diff, 64 * 48 / 2) << "distant frames must differ (motion)";
}

TEST(VideoSourceTest, FieldsAreHalfHeightAndInterlaced) {
  SyntheticVideoSource source(64, 48, 7);
  const YuvImage even = source.Field(3, false);
  const YuvImage odd = source.Field(3, true);
  EXPECT_EQ(even.height(), 24);
  EXPECT_EQ(odd.height(), 24);
  const YuvImage full = source.Frame(3);
  EXPECT_EQ(even.At(10, 5), full.At(10, 10));
  EXPECT_EQ(odd.At(10, 5), full.At(10, 11));
}

TEST(VideoCpuModelTest, CostsScaleWithWork) {
  const VideoCpuModel model;
  EXPECT_GT(model.MpegFrameCost(720 * 480, 720 * 480), model.MpegFrameCost(720 * 480, 720 * 240));
  EXPECT_GT(model.JpegFieldCost(640 * 240), model.JpegFieldCost(320 * 240));
  EXPECT_GT(model.SendCost(100000), model.SendCost(1000));
  // Calibration sanity: one full MPEG frame costs ~45 ms, capping the server at ~20 Hz.
  const SimDuration frame = model.MpegFrameCost(720 * 480, 720 * 480) +
                            model.SendCost(720 * 480 * 6 / 8);
  EXPECT_GT(frame, Milliseconds(40));
  EXPECT_LT(frame, Milliseconds(55));
}

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture()
      : fabric_(&sim_, {}),
        server_(&sim_, &fabric_, ServerOptions{}),
        console_(&sim_, &fabric_, ConsoleOptions{}) {
    const uint64_t card = server_.auth().IssueCard(1);
    session_ = &server_.CreateSession(card);
    console_.InsertCard(server_.node(), card);
    sim_.Run();
  }

  Simulator sim_;
  Fabric fabric_;
  SlimServer server_;
  Console console_;
  ServerSession* session_ = nullptr;
};

TEST_F(PipelineFixture, UnconstrainedPipelineHitsTargetFps) {
  SyntheticVideoSource source(160, 120, 3);
  MediaPipelineOptions options;
  options.target_fps = 24.0;
  options.depth = CscsDepth::k12;
  options.dst = Rect{0, 0, 160, 120};
  options.run_for = Seconds(5);
  MediaPipeline pipeline(&sim_, session_, options,
                         [&](int index, SimDuration* cost) {
                           *cost = Milliseconds(2);  // trivially cheap production
                           return source.Frame(index);
                         });
  pipeline.Start();
  sim_.RunUntil(Seconds(5));
  EXPECT_NEAR(pipeline.AchievedFps(), 24.0, 1.0);
  EXPECT_EQ(pipeline.frames_dropped(), 0);
}

TEST_F(PipelineFixture, CpuBoundPipelineDegradesToProductionRate) {
  SyntheticVideoSource source(160, 120, 3);
  MediaPipelineOptions options;
  options.target_fps = 30.0;
  options.depth = CscsDepth::k12;
  options.dst = Rect{0, 0, 160, 120};
  options.run_for = Seconds(5);
  MediaPipeline pipeline(&sim_, session_, options,
                         [&](int index, SimDuration* cost) {
                           *cost = Milliseconds(50);  // ~20 Hz server ceiling
                           return source.Frame(index);
                         });
  pipeline.Start();
  sim_.RunUntil(Seconds(5));
  // Production-limited: ~1/(50 ms + send cost), NOT quantized down to a 33 ms tick grid.
  EXPECT_NEAR(pipeline.AchievedFps(), 19.3, 1.0);
  EXPECT_GT(pipeline.frames_dropped(), 0);
}

TEST_F(PipelineFixture, FramesReachConsolePixelExact) {
  SyntheticVideoSource source(80, 60, 9);
  MediaPipelineOptions options;
  options.target_fps = 10.0;
  options.depth = CscsDepth::k16;
  options.dst = Rect{20, 20, 80, 60};
  options.run_for = Seconds(1);
  MediaPipeline pipeline(&sim_, session_, options,
                         [&](int index, SimDuration* cost) {
                           *cost = Milliseconds(1);
                           return source.Frame(index);
                         });
  pipeline.Start();
  sim_.Run();
  EXPECT_GT(pipeline.frames_sent(), 5);
  EXPECT_EQ(session_->framebuffer().ContentHash(), console_.framebuffer().ContentHash());
  EXPECT_GT(console_.cscs_stream_hits(), 0) << "steady stream must hit the warm path";
}

TEST(RaycastTest, FrameHasFloorCeilingAndWalls) {
  RaycastEngine engine(160, 120);
  const Camera cam = engine.DemoCamera(0);
  EXPECT_FALSE(engine.IsWall(cam.x, cam.y)) << "demo path must stay out of walls";
  const auto frame = engine.RenderFrame(cam);
  ASSERT_EQ(frame.size(), 160u * 120u);
  std::set<uint8_t> indices(frame.begin(), frame.end());
  EXPECT_GT(indices.size(), 10u) << "scene should use many palette entries";
  // Ceiling base colors occupy palette entries 0..7, floor 8..15.
  EXPECT_LT(frame[0], 8) << "top-left pixel should be ceiling";
  EXPECT_GE(frame[160 * 119], 8);
  EXPECT_LT(frame[160 * 119], 16);
}

TEST(RaycastTest, DeterministicAcrossInstances) {
  RaycastEngine a(64, 48, 99);
  RaycastEngine b(64, 48, 99);
  EXPECT_EQ(a.RenderFrame(a.DemoCamera(10)), b.RenderFrame(b.DemoCamera(10)));
  EXPECT_EQ(a.palette(), b.palette());
}

TEST(RaycastTest, CameraMotionChangesFrame) {
  RaycastEngine engine(64, 48);
  const auto f0 = engine.RenderFrame(engine.DemoCamera(0));
  const auto f30 = engine.RenderFrame(engine.DemoCamera(30));
  EXPECT_NE(f0, f30);
}

TEST(RaycastTest, DemoPathStaysClearForThousandsOfFrames) {
  RaycastEngine engine(32, 24);
  for (int frame = 0; frame < 3000; frame += 7) {
    const Camera cam = engine.DemoCamera(frame);
    ASSERT_FALSE(engine.IsWall(cam.x, cam.y)) << "frame " << frame;
  }
}

TEST(RaycastTest, SceneComplexityBounded) {
  RaycastEngine engine(64, 48);
  for (int frame = 0; frame < 500; frame += 11) {
    const double c = engine.SceneComplexity(engine.DemoCamera(frame));
    EXPECT_GE(c, 0.5);
    EXPECT_LE(c, 1.5);
  }
}

TEST(TranslationTest, LutMatchesDirectConversion) {
  RaycastEngine engine(32, 24);
  const YuvTranslationLayer translation(engine.palette());
  const auto frame = engine.RenderFrame(engine.DemoCamera(5));
  const YuvImage yuv = translation.Translate(frame, 32, 24);
  for (int32_t y = 0; y < 24; ++y) {
    for (int32_t x = 0; x < 32; ++x) {
      const Yuv expected = RgbToYuv(engine.palette()[frame[static_cast<size_t>(y) * 32 + x]]);
      EXPECT_EQ(yuv.At(x, y), expected);
    }
  }
}

TEST(TranslationTest, FiveBitPayloadSizeMatchesPaper) {
  // 640x480 at 5 bpp = 192,000 bytes per frame; at 20 Hz that is ~30 Mbps, the regime the
  // paper reports for Quake (22-26 Mbps at 18-21 Hz).
  EXPECT_EQ(CscsPayloadBytes(640, 480, CscsDepth::k5), 192000u);
}

}  // namespace
}  // namespace slim
