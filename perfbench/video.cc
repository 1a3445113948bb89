// Workload `video`: Section 7's media paths.
//
// Three worlds, each with its own simulator, fabric, server and console:
//   mpeg      MPEG-II 720x480 full frames at 6 bpp (server-bound, ~20 fps, ~40 Mbps)
//   halfline  the same clip sending every other line, upscaled at the console
//   contended a 640x480 8 bpp stream on a console that allocates 25 Mbps, with pacing
//             and backpressure adaptation on
// In each, the user types into a PIM window beside the stream: open-loop keystrokes on a
// fixed kKeyPeriod cadence (seeded keys), so every seed samples the same phases of the
// frame pipeline and the latency percentiles compare across seeds. The CSCS pack/unpack/scale path, the video source,
// fragmentation and console queueing carry the host time; damage refinement and the
// encoder see only the keystroke echo. Late in the horizon, at a seeded moment, the user
// stops typing and moves to a second console while the stream plays; the blackout runs
// from the card insert to the first frame presented at the new desk.

#include <memory>
#include <string>

#include "harness.h"
#include "src/apps/application.h"
#include "src/color/yuv.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/server/slim_server.h"
#include "src/util/rng.h"
#include "src/video/pipeline.h"
#include "src/video/video_source.h"

namespace perfbench {
namespace {

using namespace slim;

constexpr SimDuration kHorizon = Milliseconds(1500);
constexpr int32_t kWidth = 1280;
constexpr int32_t kHeight = 1024;
constexpr int kStreams = 3;
constexpr SimDuration kKeyPeriod = Milliseconds(66);
// The user stops typing this long before the horizon ends and gets up; the move to the
// second console comes at a seeded moment in the next 200 ms, leaving the stream time
// to reach the new desk.
constexpr SimDuration kStopTyping = Milliseconds(500);

struct VideoWorld {
  VideoWorld(ServerOptions server_options, ConsoleOptions console_options)
      : fabric(&sim, FabricOptions{}),
        server(&sim, &fabric, server_options),
        console(&sim, &fabric, console_options),
        hotdesk(&sim, &fabric, console_options) {}

  Simulator sim;
  Fabric fabric;
  SlimServer server;
  Console console;
  Console hotdesk;
};

struct StreamSpec {
  const char* name;
  int32_t src_w;
  int32_t src_h;
  bool half_lines;  // MPEG half-line mode: fields upscaled at the console
  CscsDepth depth;
  Rect dst;
  bool contended;   // 25 Mbps console, pacing + adaptation
};

// Times, in the traced run, the CSCS path's colour kernels on the frame just produced:
// the server's pack, and the unpack and scale both the server and the console perform.
void ColorReplica(const YuvImage& frame, CscsDepth depth, const Rect& dst, Probe* probe,
                  uint64_t id) {
  const std::vector<uint8_t> payload =
      Timed(probe, kColorPack, id, [&] { return PackCscsPayload(frame, depth); });
  const YuvImage unpacked = Timed(probe, kColorUnpack, id, [&] {
    return UnpackCscsPayload(payload, frame.width(), frame.height(), depth);
  });
  Timed(probe, kColorScale, id, [&] { return YuvToRgbScaled(unpacked, dst.w, dst.h); });
}

void RunStream(const StreamSpec& spec, uint64_t seed, Probe* probe, bool setup_only,
               RepResult* rep) {
  SimOutcome& out = rep->sim;
  Stopwatch watch;

  // --- Set-up: world, login, the app's initial paint ---
  watch.Start();
  ServerOptions server_options;
  server_options.session_width = kWidth;
  server_options.session_height = kHeight;
  server_options.pacing.enabled = spec.contended;
  server_options.pacing.adapt = spec.contended;
  ConsoleOptions console_options;
  console_options.width = kWidth;
  console_options.height = kHeight;
  console_options.record_service_log = false;
  if (spec.contended) {
    console_options.allocatable_bps = 25'000'000;
  }
  auto world = std::make_unique<VideoWorld>(server_options, console_options);
  Simulator& sim = world->sim;
  const uint64_t card = world->server.auth().IssueCard(static_cast<uint32_t>(seed));
  ServerSession& session = world->server.CreateSession(card);
  std::unique_ptr<Application> app = MakeApplication(AppKind::kPim, &session, seed * 13 + 5);
  InputFeed feed(&world->server, &session, app.get(), &world->console, probe);

  bool in_horizon = false;
  SimOutcome::WireTally& wire = out.wire["video"];
  SimTime deadline = 0;
  int64_t frames = 0;
  world->console.set_apply_callback([&](const ServiceRecord& rec) {
    out.digest.AddRecord(rec);
    feed.OnApplied(rec, &out.key_ms["video"]);
    if (in_horizon) {
      wire.bytes += static_cast<double>(rec.wire_bytes);
      out.queue_wait_ms.push_back(ToMillis(rec.start - rec.arrival));
      if (rec.type == CommandType::kCscs && rec.completion <= deadline) {
        ++frames;
      }
    }
  });
  SimTime inserted = -1;
  world->hotdesk.set_apply_callback([&](const ServiceRecord& rec) {
    out.digest.AddRecord(rec);
    if (rec.type != CommandType::kCscs) {
      return;
    }
    if (inserted >= 0) {
      out.blackout_ms.push_back(ToMillis(rec.completion - inserted));
      inserted = -1;
    }
    if (in_horizon) {
      wire.bytes += static_cast<double>(rec.wire_bytes);
      if (rec.completion <= deadline) {
        ++frames;
      }
    }
  });

  world->console.InsertCard(world->server.node(), card);
  sim.Run();
  {
    const uint64_t id = NextSpanId();
    RootSpan root(probe, "start", id);
    Timed(probe, kApps, id, [&] { app->Start(); });
    session.Flush();
  }
  sim.Run();
  auto source = std::make_shared<SyntheticVideoSource>(spec.src_w, spec.src_h,
                                                       Rng::MixSeed(seed, spec.src_h));
  rep->setup_s += watch.Stop();
  if (setup_only) {
    return;
  }

  // --- Horizon: the stream and open-loop keystrokes ---
  watch.Start();
  in_horizon = true;
  if (probe != nullptr) {
    probe->set_counting(true);
  }
  const uint64_t events_before = sim.events_executed();
  MediaPipelineOptions options;
  options.target_fps = 30.0;
  options.depth = spec.depth;
  options.dst = spec.dst;
  options.run_for = kHorizon;
  const VideoCpuModel cpu;
  MediaPipeline pipeline(
      &sim, &session, options, [&, source](int index, SimDuration* cost) {
        const uint64_t id = NextSpanId();
        RootSpan root(probe, "frame", id);
        rep->queue_peak = std::max(rep->queue_peak, sim.pending_events());
        if (spec.contended) {
          // The wire is the story here, not the decoder: a nominal production cost keeps
          // the stream CPU-unconstrained so every lost frame is the allocator's doing.
          *cost = Milliseconds(5);
        } else {
          const int64_t full = static_cast<int64_t>(spec.src_w) * 480;
          *cost = cpu.MpegFrameCost(full, spec.half_lines ? full / 2 : full);
        }
        YuvImage frame = Timed(probe, kVideoSource, id, [&] {
          return spec.half_lines ? source->Field(index, false) : source->Frame(index);
        });
        if (probe != nullptr) {
          ColorReplica(frame, spec.depth, spec.dst, probe, id);
        }
        return frame;
      });
  pipeline.Start();
  const SimTime start = sim.now();
  deadline = start + kHorizon;
  Rng keys(Rng::MixSeed(seed, 0x6b657973));
  for (SimTime at = start + kKeyPeriod; at < deadline - kStopTyping; at += kKeyPeriod) {
    const uint32_t keycode = 'a' + static_cast<uint32_t>(keys.NextBelow(26));
    sim.ScheduleAt(at, [&, keycode] { feed.SendKey(keycode); });
  }
  const SimTime move_at = deadline - kStopTyping +
                         static_cast<SimDuration>(keys.NextBelow(200)) * kMillisecond;
  sim.ScheduleAt(move_at, [&] {
    inserted = sim.now();
    world->hotdesk.InsertCard(world->server.node(), card);
  });
  sim.Run();
  in_horizon = false;
  rep->events += sim.events_executed() - events_before;
  if (probe != nullptr) {
    probe->set_counting(false);
  }
  rep->horizon_wall_s += watch.Stop();

  // Quiescence at the new desk: the session's truth and the console's soft state agree,
  // and the stream came back there.
  const uint64_t truth = session.framebuffer().ContentHash();
  if (session.console() != world->hotdesk.node() ||
      world->hotdesk.framebuffer().ContentHash() != truth) {
    out.check_failures.push_back(std::string("video ") + spec.name +
                                 ": server framebuffer != console framebuffer");
  }
  if (inserted >= 0) {
    out.check_failures.push_back(std::string("video ") + spec.name +
                                 ": no frame reached the new desk");
  }
  out.digest.Add(truth);

  out.attempted += pipeline.frames_sent() + pipeline.frames_dropped() + feed.sent() + 1;
  AddCounter(&out, "note.no_pixel_inputs", static_cast<double>(feed.no_pixels()));
  out.failed += feed.lost();
  AccountReplica(feed.replica(), &out);
  out.frames += frames;
  wire.ops += frames;
  out.stream_seconds += ToSeconds(kHorizon);
  AccountConsole(world->console, static_cast<double>(kHorizon), &out);
  AccountConsole(world->hotdesk, 0.0, &out);
  AccountServer(world->server, &out);
  AccountFabric(world->fabric,
                {world->server.node(), world->console.node(), world->hotdesk.node()}, &out);
}

}  // namespace

RepResult RunVideo(uint64_t seed, Probe* probe, bool setup_only) {
  static const StreamSpec kSpecs[kStreams] = {
      {"mpeg", 720, 480, false, CscsDepth::k6, Rect{40, 40, 720, 480}, false},
      {"halfline", 720, 240, true, CscsDepth::k6, Rect{40, 40, 720, 480}, false},
      {"contended", 640, 480, false, CscsDepth::k8, Rect{600, 40, 640, 480}, true},
  };
  RepResult rep;
  rep.horizon_sim_s = ToSeconds(kHorizon);
  for (int i = 0; i < kStreams; ++i) {
    RunStream(kSpecs[i], Rng::MixSeed(seed, 0x766964, static_cast<uint64_t>(i)), probe,
              setup_only, &rep);
  }
  return rep;
}

}  // namespace perfbench
