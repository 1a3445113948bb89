#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <type_traits>
#include <variant>

#include "src/codec/decoder.h"
#include "src/protocol/messages.h"

namespace perfbench {

using namespace slim;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* LayerMetricName(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "apps.render_ns",       "server.flush_ns",     "codec.refine_ns",
      "codec.encode_ns",      "protocol.serialize_ns", "protocol.parse_ns",
      "console.decode_ns",    "video.source_ns",     "color.pack_ns",
      "color.unpack_ns",      "color.scale_ns",      "checkpoint.capture_ns",
      "checkpoint.encode_ns", "checkpoint.decode_ns",
  };
  return kNames[layer];
}

// ---------------------------------------------------------------------------
// Probe

void Probe::Begin(const char* name, uint64_t id) {
  if (!keep_spans_) {
    return;
  }
  if (events_.size() >= kMaxEvents || dropped_opens_ > 0) {
    ++dropped_opens_;
    return;
  }
  events_.push_back(Event{name, 'B', NowNs() - origin_ns_, id});
}

void Probe::End(const char* name, uint64_t id) {
  if (!keep_spans_) {
    return;
  }
  if (dropped_opens_ > 0) {
    --dropped_opens_;
    return;
  }
  events_.push_back(Event{name, 'E', NowNs() - origin_ns_, id});
}

bool Probe::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                  "\"args\":{\"name\":\"slim_e2e host clock\"}}");
  for (const Event& e : events_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"%c\",\"ts\":%.3f,"
                 "\"pid\":1,\"tid\":1,\"args\":{\"id\":%llu}}",
                 e.name, e.ph, static_cast<double>(e.ts_ns) / 1000.0,
                 static_cast<unsigned long long>(e.id));
  }
  std::fprintf(f, "\n]\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// CodecReplica

namespace {

std::optional<DisplayCommand> AsDisplayCommand(MessageBody&& body) {
  return std::visit(
      [](auto&& b) -> std::optional<DisplayCommand> {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_constructible_v<DisplayCommand, T>) {
          return DisplayCommand(std::move(b));
        } else {
          return std::nullopt;
        }
      },
      std::move(body));
}

}  // namespace

CodecReplica::CodecReplica(int32_t width, int32_t height)
    : tracker_(width, height), console_fb_(width, height) {}

void CodecReplica::SyncShadow(const DamageTracker& truth) {
  if (!truth.valid()) {
    tracker_.Invalidate();
    return;
  }
  const Framebuffer& shadow = truth.shadow();
  if (!tracker_.valid()) {
    std::vector<uint64_t> hashes(static_cast<size_t>(shadow.height()));
    for (int32_t y = 0; y < shadow.height(); ++y) {
      hashes[static_cast<size_t>(y)] = truth.row_hash(y);
    }
    tracker_.RestoreShadow(shadow.data(), hashes, true);
    return;
  }
  // Drawing the session transmitted out of band (direct fills, copies, deferred
  // flushes) moved its shadow without us; copy just the rows whose hashes differ.
  for (int32_t y = 0; y < shadow.height(); ++y) {
    if (tracker_.row_hash(y) != truth.row_hash(y)) {
      tracker_.SyncRect(shadow, Rect{0, y, shadow.width(), 1});
    }
  }
}

void CodecReplica::Run(const ServerSession& session, Probe* probe, uint64_t id) {
  if (probe == nullptr || session.pending_damage().empty()) {
    return;
  }
  if (const DamageTracker* truth = session.damage_tracker()) {
    SyncShadow(*truth);
  }
  const Framebuffer& fb = session.framebuffer();
  Region damage = session.pending_damage();
  damage.Coalesce(64);
  damaged_px += damage.area();
  std::vector<DisplayCommand> cmds;
  const Region refined = Timed(probe, kCodecRefine, id, [&] {
    return tracker_.Refine(fb, damage, encoder_.options().scroll_max_shift, &cmds);
  });
  refined_px += refined.area();
  if (!refined.empty()) {
    std::vector<DisplayCommand> encoded =
        Timed(probe, kCodecEncode, id, [&] { return encoder_.EncodeDamage(fb, refined); });
    for (DisplayCommand& cmd : encoded) {
      cmds.push_back(std::move(cmd));
    }
  }
  for (DisplayCommand& cmd : cmds) {
    raw_bytes += AffectedPixels(cmd) * static_cast<int64_t>(sizeof(Pixel));
    Message msg;
    msg.session_id = session.id();
    msg.seq = static_cast<uint64_t>(++msgs);
    msg.body = std::visit([](auto&& c) { return MessageBody(std::move(c)); }, std::move(cmd));
    const std::vector<uint8_t> bytes =
        Timed(probe, kProtoSerialize, id, [&] { return SerializeMessage(msg); });
    encoded_bytes += static_cast<int64_t>(bytes.size());
    std::optional<Message> parsed =
        Timed(probe, kProtoParse, id, [&] { return ParseMessage(bytes); });
    if (!parsed) {
      continue;
    }
    if (std::optional<DisplayCommand> decoded = AsDisplayCommand(std::move(parsed->body))) {
      Timed(probe, kConsoleDecode, id, [&] { (void)ApplyCommand(*decoded, &console_fb_); });
    }
  }
}

// ---------------------------------------------------------------------------
// InputFeed

uint64_t ExpectedLastSeq(SlimServer& server, const ServerSession& session) {
  const uint64_t sent = server.endpoint().send_seq(session.console());
  const bool fifo = !server.options().pacing.enabled && server.migration() == nullptr;
  if (fifo) {
    return sent + static_cast<uint64_t>(server.tx_queue().depth(session.id()));
  }
  return server.tx_queue().total_depth() == 0 ? sent : 0;
}

uint64_t NextSpanId() {
  static uint64_t next = 0;
  return ++next;
}

InputFeed::InputFeed(SlimServer* server, ServerSession* session, Application* app,
                     Console* console, Probe* probe)
    : server_(server),
      session_(session),
      app_(app),
      console_(console),
      probe_(probe),
      replica_(session->framebuffer().width(), session->framebuffer().height()) {
  session_->set_input_handler([this](const Message& msg) { Handle(msg); });
}

void InputFeed::SendKey(uint32_t keycode) {
  ++sent_;
  send_times_.push_back(session_->simulator()->now());
  console_->SendKey(server_->node(), session_->id(), keycode, /*pressed=*/true);
}

void InputFeed::SendClick(int32_t x, int32_t y) {
  ++sent_;
  send_times_.push_back(session_->simulator()->now());
  console_->SendMouse(server_->node(), session_->id(), x, y, /*buttons=*/1,
                      /*is_motion=*/false);
}

void InputFeed::Handle(const Message& msg) {
  const auto* key = std::get_if<KeyEventMsg>(&msg.body);
  const auto* mouse = std::get_if<MouseEventMsg>(&msg.body);
  if (send_times_.empty() || (key == nullptr && mouse == nullptr)) {
    return;
  }
  const SimTime sent = send_times_.front();
  send_times_.pop_front();
  const uint64_t id = NextSpanId();
  RootSpan root(probe_, "input", id);
  const NodeId console = console_->node();
  const uint64_t min_seq = server_->endpoint().send_seq(console) + 1;
  const int64_t commands_before = session_->commands_sent();
  Timed(probe_, kApps, id, [&] {
    if (key != nullptr) {
      app_->OnKey(key->keycode);
    } else {
      app_->OnClick(mouse->x, mouse->y);
    }
  });
  replica_.Run(*session_, probe_, id);
  Timed(probe_, kServerFlush, id, [&] { session_->Flush(); });
  if (session_->commands_sent() == commands_before && session_->pending_damage().empty()) {
    ++no_pixels_;
    return;
  }
  echo_.Expect(sent, min_seq, ExpectedLastSeq(*server_, *session_));
}

void AccountReplica(const CodecReplica& replica, SimOutcome* out) {
  AddCounter(out, "codec.damaged_px", static_cast<double>(replica.damaged_px));
  AddCounter(out, "codec.refined_px", static_cast<double>(replica.refined_px));
  AddCounter(out, "codec.raw_bytes", static_cast<double>(replica.raw_bytes));
  AddCounter(out, "codec.encoded_bytes", static_cast<double>(replica.encoded_bytes));
  AddCounter(out, "protocol.msgs", static_cast<double>(replica.msgs));
}

// ---------------------------------------------------------------------------
// EchoTracker, Digest, UpdateCounter

SimTime PresentedAt(SimTime completion) {
  return (completion + kRefreshPeriod - 1) / kRefreshPeriod * kRefreshPeriod;
}

void EchoTracker::Expect(SimTime sent, uint64_t min_seq, uint64_t target_seq) {
  pending_.push_back(Pending{sent, min_seq, target_seq});
}

void EchoTracker::OnApplied(const ServiceRecord& rec, std::vector<double>* latencies_ms) {
  // Pending lists are short (inputs in flight for one console), so a scan is cheap; exact
  // seq matches may resolve out of order when a replay fills a gap late.
  for (auto it = pending_.begin(); it != pending_.end();) {
    const bool done = it->target_seq != 0
                          ? rec.seq == it->target_seq
                          : rec.type != CommandType::kCscs && rec.seq >= it->min_seq;
    if (done) {
      latencies_ms->push_back(ToMillis(PresentedAt(rec.completion) - it->sent));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

int64_t EchoTracker::lost() const {
  return std::count_if(pending_.begin(), pending_.end(),
                       [](const Pending& p) { return p.target_seq != 0; });
}

int64_t EchoTracker::unanswered_deferred() const {
  return static_cast<int64_t>(pending_.size()) - lost();
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::AddRecord(const ServiceRecord& rec) {
  Add(static_cast<uint64_t>(rec.type));
  Add(static_cast<uint64_t>(rec.pixels));
  Add(static_cast<uint64_t>(rec.wire_bytes));
}

void UpdateCounter::OnApplied(const ServiceRecord& rec) {
  if (last_arrival_ < 0 || rec.arrival - last_arrival_ >= Milliseconds(2)) {
    ++updates_;
  }
  last_arrival_ = rec.arrival;
}

// ---------------------------------------------------------------------------
// Helpers

void AddCounter(SimOutcome* out, const std::string& name, double value) {
  out->counters[name] += value;
}

void AccountConsole(Console& console, double horizon_ns, SimOutcome* out) {
  AddCounter(out, "console.dropped", static_cast<double>(console.commands_dropped()));
  AddCounter(out, "console.rejected", static_cast<double>(console.commands_rejected()));
  out->failed += console.commands_dropped() + console.commands_rejected();
  out->console_busy_ns += static_cast<double>(console.busy_time());
  out->console_span_ns += horizon_ns;
  AccountEndpoint(console.endpoint(), out);
}

void AccountEndpoint(const SlimEndpoint& endpoint, SimOutcome* out) {
  const TransportStats& t = endpoint.stats();
  AddCounter(out, "net.transport.messages", static_cast<double>(t.messages_sent));
  AddCounter(out, "net.transport.fragments", static_cast<double>(t.fragments_sent));
  AddCounter(out, "net.transport.nacks", static_cast<double>(t.nacks_sent));
  AddCounter(out, "net.transport.replays", static_cast<double>(t.replays_sent));
  AddCounter(out, "net.transport.duplicates", static_cast<double>(t.duplicate_messages));
  AddCounter(out, "net.transport.reassembly_timeouts",
             static_cast<double>(t.reassembly_timeouts));
  AddCounter(out, "net.delivered", static_cast<double>(t.messages_received));
}

void AccountServer(SlimServer& server, SimOutcome* out) {
  AccountEndpoint(server.endpoint(), out);
  const TransmitQueue& txq = server.tx_queue();
  out->counters["server.txq_max_depth"] =
      std::max(out->counters["server.txq_max_depth"], static_cast<double>(txq.max_depth()));
  AddCounter(out, "server.pace_delayed", static_cast<double>(txq.pace_delayed()));
  AddCounter(out, "server.coalesced_flushes",
             static_cast<double>(server.pacing_stats().coalesced_flushes));
  AddCounter(out, "server.video_dropped",
             static_cast<double>(server.pacing_stats().video_dropped));
}

void AccountFabric(const Fabric& fabric, const std::vector<NodeId>& nodes, SimOutcome* out) {
  for (const NodeId node : nodes) {
    const LinkStats& up = fabric.uplink_stats(node);
    const LinkStats& down = fabric.downlink_stats(node);
    AddCounter(out, "net.fabric.datagrams", static_cast<double>(up.datagrams_sent));
    AddCounter(out, "net.fabric.bytes", static_cast<double>(up.bytes_sent));
    AddCounter(out, "net.fabric.dropped",
               static_cast<double>(up.datagrams_dropped_queue + up.datagrams_dropped_loss +
                                   down.datagrams_dropped_queue +
                                   down.datagrams_dropped_loss));
  }
  AddCounter(out, "net.fabric.dropped",
             static_cast<double>(fabric.fault_stats().datagrams_dropped));
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
