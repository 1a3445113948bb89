// Shared machinery of the end-to-end benchmark (see perfbench/README.md).
//
// Two clocks run side by side. Sim-clock results (latencies, bytes, frame rates,
// blackouts) are deterministic per seed and land in SimOutcome. Host-clock results are
// steady_clock readings taken around the workload's set-up and its fixed simulated
// horizon (RepResult), and — in the traced run only — around calls into each layer's
// public functions, made from these files (Probe).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/apps/application.h"
#include "src/codec/damage_tracker.h"
#include "src/codec/encoder.h"
#include "src/console/console.h"
#include "src/fb/framebuffer.h"
#include "src/net/fabric.h"
#include "src/server/session.h"
#include "src/server/slim_server.h"
#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace perfbench {

using slim::SimTime;

int64_t NowNs();

// The layers the traced run times from outside, in the order they are reported.
enum Layer : int {
  kApps = 0,        // Application::OnKey/OnClick/Start, or the farm's scripted drawing
  kServerFlush,     // ServerSession::Flush
  kCodecRefine,     // DamageTracker::Refine on the pre-flush framebuffer and damage
  kCodecEncode,     // Encoder::EncodeDamage on the refined region
  kProtoSerialize,  // SerializeMessage on the encoded commands
  kProtoParse,      // ParseMessage on the serialized bytes
  kConsoleDecode,   // ApplyCommand on the parsed commands
  kVideoSource,     // the MediaPipeline frame producer
  kColorPack,       // PackCscsPayload on the produced frame
  kColorUnpack,     // UnpackCscsPayload on the packed payload
  kColorScale,      // YuvToRgbScaled on the unpacked frame
  kCkptCapture,     // ServerSession::CaptureCheckpoint
  kCkptEncode,      // EncodeCheckpoint
  kCkptDecode,      // DecodeCheckpoint
  kLayerCount,
};
const char* LayerMetricName(Layer layer);  // e.g. "apps.render_ns"

// Host-time recorder of the traced run. A null Probe* means the untraced run: every
// timing helper then calls straight through.
class Probe {
 public:
  explicit Probe(bool keep_spans) : keep_spans_(keep_spans) {}

  // Layer totals accumulate only while counting (the fixed horizon, not set-up).
  void set_counting(bool counting) { counting_ = counting; }
  int64_t layer_ns(Layer layer) const { return layer_ns_[layer]; }
  int64_t layer_calls(Layer layer) const { return layer_calls_[layer]; }

  // Chrome trace B/E pair; spans of one input or frame share `id` (args.id).
  void Begin(const char* name, uint64_t id);
  void End(const char* name, uint64_t id);
  void Add(Layer layer, int64_t ns) {
    if (counting_) {
      layer_ns_[layer] += ns;
      ++layer_calls_[layer];
    }
  }

  // Writes the spans as a Chrome trace_event JSON array. False on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    char ph;
    int64_t ts_ns;
    uint64_t id;
  };
  // Bound on kept events so a long traced run cannot grow without limit; once reached,
  // only whole B/E pairs already open are closed.
  static constexpr size_t kMaxEvents = 400'000;

  bool keep_spans_;
  bool counting_ = false;
  int64_t origin_ns_ = NowNs();
  size_t dropped_opens_ = 0;
  std::vector<Event> events_;
  int64_t layer_ns_[kLayerCount] = {};
  int64_t layer_calls_[kLayerCount] = {};
};

// Runs fn(), timing it as one span of `layer` when probe is non-null.
template <typename F>
decltype(auto) Timed(Probe* probe, Layer layer, uint64_t id, F&& fn) {
  if (probe == nullptr) {
    return fn();
  }
  struct Guard {
    Probe* probe;
    Layer layer;
    uint64_t id;
    int64_t start = NowNs();
    ~Guard() {
      probe->Add(layer, NowNs() - start);
      probe->End(LayerMetricName(layer), id);
    }
  };
  probe->Begin(LayerMetricName(layer), id);
  Guard guard{probe, layer, id};
  return fn();
}

// A root span ("input", "frame", "handoff") grouping one operation's layer spans.
class RootSpan {
 public:
  RootSpan(Probe* probe, const char* name, uint64_t id) : probe_(probe), name_(name), id_(id) {
    if (probe_ != nullptr) {
      probe_->Begin(name_, id_);
    }
  }
  ~RootSpan() {
    if (probe_ != nullptr) {
      probe_->End(name_, id_);
    }
  }
  RootSpan(const RootSpan&) = delete;
  RootSpan& operator=(const RootSpan&) = delete;

 private:
  Probe* probe_;
  const char* name_;
  uint64_t id_;
};

// Traced-run stand-in for the codec, protocol and console layers: it repeats, on the
// exact framebuffer and pending damage a benchmark-issued Flush is about to encode, what
// the session's pipeline does, and times each step. It keeps its own DamageTracker in
// step with the session's through the session's public shadow and row hashes.
class CodecReplica {
 public:
  CodecReplica(int32_t width, int32_t height);
  // Call immediately before session.Flush().
  void Run(const slim::ServerSession& session, Probe* probe, uint64_t id);

  int64_t damaged_px = 0;
  int64_t refined_px = 0;
  int64_t raw_bytes = 0;      // 32-bit pixels of every encoded command's destination
  int64_t encoded_bytes = 0;  // serialized message bytes of the same commands
  int64_t msgs = 0;

 private:
  void SyncShadow(const slim::DamageTracker& truth);

  slim::DamageTracker tracker_;
  slim::Encoder encoder_;
  slim::Framebuffer console_fb_;
};

// Consoles scan out at 75 Hz (the Sun Ray 1 at 1280x1024): pixels written at sim time t
// become visible at the next refresh boundary.
constexpr slim::SimDuration kRefreshPeriod = slim::kSecond / 75;
SimTime PresentedAt(SimTime completion);

// Matches each input event to the console completion of the display commands its
// handler sent; its latency runs from the send to the refresh that shows the last of
// them. After the handler's Flush, `target_seq` is the transport seq of the last message
// it put on the wire toward the console; when the flush left work queued (paced or
// deferred), the input is answered by the first non-video command at or after `min_seq`
// instead.
class EchoTracker {
 public:
  void Expect(SimTime sent, uint64_t min_seq, uint64_t target_seq);
  // Feeds one applied console command; appends resolved latencies (ms).
  void OnApplied(const slim::ServiceRecord& rec, std::vector<double>* latencies_ms);
  // Inputs whose exact target message never presented: lost on the way (failures).
  int64_t lost() const;
  // Deferred inputs never answered: their damage refined away to nothing (no pixels).
  int64_t unanswered_deferred() const;

 private:
  struct Pending {
    SimTime sent;
    uint64_t min_seq;
    uint64_t target_seq;  // 0: first non-CSCS command with seq >= min_seq
  };
  std::deque<Pending> pending_;
};

struct SimOutcome;

// Drives an Application on a session the way Application::BindInput does — OnKey or
// OnClick, then Flush — through a handler installed by the benchmark, so the traced run
// can time the app, the codec/protocol/console replica and the flush separately, and
// every input is registered with the console's EchoTracker. Inputs travel one clean,
// ordered console->server path, so send times pair with handler calls in FIFO order.
class InputFeed {
 public:
  InputFeed(slim::SlimServer* server, slim::ServerSession* session, slim::Application* app,
            slim::Console* console, Probe* probe);
  InputFeed(const InputFeed&) = delete;
  InputFeed& operator=(const InputFeed&) = delete;

  void SendKey(uint32_t keycode);
  void SendClick(int32_t x, int32_t y);
  // Feed every command the console applies.
  void OnApplied(const slim::ServiceRecord& rec, std::vector<double>* key_ms) {
    echo_.OnApplied(rec, key_ms);
  }

  int64_t sent() const { return sent_; }
  // Inputs the app answered without changing a pixel (no latency sample).
  int64_t no_pixels() const { return no_pixels_ + echo_.unanswered_deferred(); }
  // Inputs whose pixels never reached the console (failures).
  int64_t lost() const { return echo_.lost(); }
  const CodecReplica& replica() const { return replica_; }

 private:
  void Handle(const slim::Message& msg);

  slim::SlimServer* server_;
  slim::ServerSession* session_;
  slim::Application* app_;
  slim::Console* console_;
  Probe* probe_;
  CodecReplica replica_;
  EchoTracker echo_;
  std::deque<SimTime> send_times_;
  int64_t sent_ = 0;
  int64_t no_pixels_ = 0;
};

// The transport seq that the last message of a flush just made will carry toward the
// session's console, or 0 when it cannot be known. Without pacing or migration the server
// sends in FIFO order, so the session's queued messages precede it in the console's seq
// space; paced and checkpoint flows may overtake each other, so there only an empty queue
// gives an exact answer.
uint64_t ExpectedLastSeq(slim::SlimServer& server, const slim::ServerSession& session);

// Process-wide id for root spans (inputs, frames, handoffs).
uint64_t NextSpanId();

// Adds the traced-run codec/protocol counters of one replica to the outcome.
void AccountReplica(const CodecReplica& replica, SimOutcome* out);

// 64-bit FNV-1a fold: the wire digest over ordered ServiceRecords and final hashes.
class Digest {
 public:
  void Add(uint64_t v);
  void AddRecord(const slim::ServiceRecord& rec);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

// Display updates: commands separated by less than 2 ms of arrival time form one update.
class UpdateCounter {
 public:
  void OnApplied(const slim::ServiceRecord& rec);
  int64_t updates() const { return updates_; }

 private:
  SimTime last_arrival_ = -1;
  int64_t updates_ = 0;
};

// Everything one run of a workload's world yields on the sim clock. Deterministic per
// seed: two reps of one seed must agree exactly (checked through `digest`).
struct SimOutcome {
  // Input -> its pixels presented, by group. key_p50/p99 are geometric means of the
  // groups' percentiles (desktop: one group per application, as the paper reports them).
  std::map<std::string, std::vector<double>> key_ms;
  // Server->console wire bytes and the operations they served, by group. The reported
  // wire_bytes_per_op is the geometric mean of the groups' bytes per operation (desktop:
  // one group per application, so Photoshop's megabyte filters do not drown the rest).
  struct WireTally {
    double bytes = 0;
    int64_t ops = 0;
  };
  std::map<std::string, WireTally> wire;
  int64_t frames = 0;               // display updates (video: CSCS frames) presented
  double stream_seconds = 0;        // sessions (streams) x horizon seconds
  std::vector<double> blackout_ms;  // hotdesk / failover blackouts
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;  // output checks that did not hold
  Digest digest;
  // Per-layer sim-side counters read from the public stats() snapshots.
  std::map<std::string, double> counters;
  double console_busy_ns = 0;   // decode pipeline busy time, summed over consoles
  double console_span_ns = 0;   // consoles x horizon
  std::vector<double> queue_wait_ms;
};

struct RepResult {
  double setup_s = 0;         // host: world building, login/attach, initial paint
  double horizon_wall_s = 0;  // host: the fixed simulated horizon (and its drain)
  double horizon_sim_s = 0;   // the workload's fixed horizon, simulated seconds
  uint64_t events = 0;        // simulator events executed during the horizon
  size_t queue_peak = 0;      // largest pending-event count sampled
  int64_t checkpoint_blob_bytes = 0;
  SimOutcome sim;
};

// Host stopwatch that splits a rep's wall time into set-up and horizon.
class Stopwatch {
 public:
  void Start() { start_ = NowNs(); }
  double Stop() { return static_cast<double>(NowNs() - start_) * 1e-9; }

 private:
  int64_t start_ = 0;
};

// Reads a console's end-of-run counters into the outcome (dropped, rejected, busy).
void AccountConsole(slim::Console& console, double horizon_ns, SimOutcome* out);

// Sums one counter of the per-layer report.
void AddCounter(SimOutcome* out, const std::string& name, double value);
// Transport counters of one endpoint (console and server sides alike).
void AccountEndpoint(const slim::SlimEndpoint& endpoint, SimOutcome* out);
// Server-side transmit-queue and pacing counters, plus its endpoint's transport counters.
void AccountServer(slim::SlimServer& server, SimOutcome* out);
// Datagrams and bytes every node put on the fabric, and every datagram it lost.
void AccountFabric(const slim::Fabric& fabric, const std::vector<slim::NodeId>& nodes,
                   SimOutcome* out);

double Percentile(std::vector<double> values, double p);

// The workloads. Each builds its worlds from `seed`, runs the fixed horizon, checks
// its outputs and fills a RepResult. `probe` is null in the untraced run. With
// `setup_only` a workload stops after set-up (extra set-up samples; only setup_s is
// meaningful).
RepResult RunDesktop(uint64_t seed, Probe* probe, bool setup_only);
RepResult RunVideo(uint64_t seed, Probe* probe, bool setup_only);
RepResult RunFarm(uint64_t seed, Probe* probe, bool setup_only);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
