// Workload `farm`: a migrating server pool on a lossy fabric (DESIGN.md §9).
//
// Three migration-enabled servers share one fabric with 1% loss and 1 ms jitter on every
// pair: two serve users, the third is the warm standby of the second. kUsers sessions at
// 640x480 receive a scripted keystroke/drawing stream (open loop, one key per kKeyPeriod
// from a seeded phase) through whichever server owns them. The fixed cadence bounds how
// long a lost key waits for the next one to reveal the gap, so the loss tail of the
// latency distribution has the same shape on every seed. On a fixed schedule each user
// hotdesks to a desk homed on the other serving server (a cross-server pull migration);
// later the second server is killed and the users it owns fail over to the standby. A
// handoff counts as converged when exactly one live server owns the session, it is
// attached to the user's new console, and that console shows the pixels the session had
// when the user left; one that does not converge within kConvergeLimit is a counted
// failure.

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/apps/content.h"
#include "src/apps/font.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/server/checkpoint.h"
#include "src/server/migration.h"
#include "src/server/slim_server.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace slim;

constexpr int kServers = 3;
constexpr int kServing = 2;  // servers_[kServing] is the warm standby of servers_[kVictim]
constexpr int kVictim = 1;
constexpr int kUsers = 8;
constexpr int32_t kWidth = 640;
constexpr int32_t kHeight = 480;
constexpr SimDuration kHorizon = Seconds(26);
constexpr SimDuration kDrain = Seconds(3);
// Not a multiple of the 75 Hz refresh, so each user's keys sample every refresh phase.
constexpr SimDuration kKeyPeriod = Milliseconds(103);
constexpr SimDuration kPoll = Milliseconds(5);
constexpr SimDuration kRetap = Milliseconds(1000);
constexpr SimDuration kConvergeLimit = Seconds(5);
// After a handoff the user checks the restored screen before typing again.
constexpr SimDuration kResumePause = Seconds(1);
// User u hotdesks at kFirstMove + u * kMoveSpacing. The victim server dies at kKillAt; the
// users it owns stop typing at kIdleAt, two standby intervals earlier, so the standby
// holds their final screen. The interval covers four paced 640x480 blobs.
constexpr SimDuration kFirstMove = Seconds(1);
constexpr SimDuration kMoveSpacing = Milliseconds(1200);
constexpr SimDuration kIdleAt = Seconds(12) + Milliseconds(500);
constexpr SimDuration kKillAt = Seconds(21) + Milliseconds(500);
constexpr SimDuration kStandbyInterval = Milliseconds(4500);

enum class Phase { kActive, kDraining, kBlackout, kIdle, kGaveUp };

struct User {
  int index = 0;
  uint64_t card = 0;
  Console* console = nullptr;  // where the user sits now
  Phase phase = Phase::kActive;
  ServerSession* handled = nullptr;  // session object carrying our input handler
  std::vector<SimTime> sent_at;      // by input id (the keycode)
  EchoTracker echo;
  UpdateCounter updates;
  std::unique_ptr<CodecReplica> replica;
  int32_t cursor = 0;
  // The handoff in progress.
  Console* target = nullptr;
  SlimServer* target_server = nullptr;
  SimTime move_started = 0;
  SimTime resume_at = 0;
  SimTime last_tap = 0;
  SimTime last_target_completion = 0;
  uint64_t expected_hash = 0;
  bool failover = false;
};

class Farm {
 public:
  Farm(uint64_t seed, Probe* probe, RepResult* rep)
      : seed_(seed), probe_(probe), rep_(rep), out_(rep->sim), fabric_(&sim_, FabricFor(seed)) {}

  void SetUp();
  void RunHorizon();
  void Check();
  uint64_t events() const { return sim_.events_executed(); }

 private:
  static FabricOptions FabricFor(uint64_t seed) {
    FabricOptions options;
    options.fault_seed = Rng::MixSeed(seed, 0x6661756c74);
    return options;
  }
  SlimServer* OwnerOf(const User& u) const { return pool_.owner(u.card); }
  ServerSession* SessionOf(const User& u) const {
    SlimServer* owner = OwnerOf(u);
    return owner == nullptr ? nullptr : owner->SessionForCard(u.card);
  }
  void InstallHandler(User& u, SlimServer* server, ServerSession* session);
  void Handle(User& u, SlimServer* server, ServerSession* session, const Message& msg);
  void Draw(User& u, ServerSession& session, uint32_t input_id);
  void ScheduleKeys(User& u, Rng rng);
  void SendKey(User& u);
  void BeginMove(User& u, Console* target, SlimServer* target_server, bool failover);
  void TryStartMove(User& u);
  void Poll(User& u);
  void OnApplied(User& u, Console* console, const ServiceRecord& rec);

  uint64_t seed_;
  Probe* probe_;
  RepResult* rep_;
  SimOutcome& out_;
  bool in_horizon_ = false;
  SimTime horizon_start_ = 0;
  Simulator sim_;
  Fabric fabric_;
  ServerPool pool_;
  std::vector<std::unique_ptr<SlimServer>> servers_;
  std::vector<MigrationManager*> managers_;
  std::vector<std::unique_ptr<Console>> consoles_;  // 3 per user: home, desk, failover
  std::vector<User> users_;
  int64_t handoffs_ = 0;
  int64_t failed_handoffs_ = 0;
  int64_t diverged_ = 0;
};

void Farm::SetUp() {
  FaultProfile lossy;
  lossy.loss = 0.01;
  lossy.delay_jitter = Milliseconds(1);
  ServerOptions server_options;
  server_options.session_width = kWidth;
  server_options.session_height = kHeight;
  for (int s = 0; s < kServers; ++s) {
    servers_.push_back(std::make_unique<SlimServer>(&sim_, &fabric_, server_options));
    managers_.push_back(&servers_.back()->EnableMigration(pool_, MigrationOptions{}));
  }
  ConsoleOptions console_options;
  console_options.width = kWidth;
  console_options.height = kHeight;
  console_options.record_service_log = false;
  users_.resize(kUsers);
  for (int i = 0; i < kUsers; ++i) {
    User& u = users_[static_cast<size_t>(i)];
    u.index = i;
    u.card = pool_.IssueCard(static_cast<uint32_t>(i + 1));
    u.replica = std::make_unique<CodecReplica>(kWidth, kHeight);
    for (int c = 0; c < 3; ++c) {
      consoles_.push_back(std::make_unique<Console>(&sim_, &fabric_, console_options));
      Console* console = consoles_.back().get();
      console->set_apply_callback(
          [this, &u, console](const ServiceRecord& rec) { OnApplied(u, console, rec); });
    }
    u.console = consoles_[static_cast<size_t>(3 * i)].get();
  }
  // Every pair of nodes is lossy; the fault schedule follows the seed.
  fabric_.InjectFaults(lossy);

  // Log in at the home console (re-tapping a card whose attach was lost) and paint
  // seeded photo content edge to edge.
  for (int round = 0; round < 20; ++round) {
    bool all_attached = true;
    for (User& u : users_) {
      ServerSession* session = SessionOf(u);
      if (session == nullptr || session->console() != u.console->node()) {
        all_attached = false;
        SlimServer& home = *servers_[static_cast<size_t>(u.index % kServing)];
        u.console->InsertCard(home.node(), u.card);
      }
    }
    if (all_attached) {
      break;
    }
    sim_.RunFor(Milliseconds(100));
  }
  Rng paint(Rng::MixSeed(seed_, 0x7061696e74));
  for (User& u : users_) {
    ServerSession* session = SessionOf(u);
    if (session == nullptr) {
      out_.check_failures.push_back("farm: login did not create a session");
      return;
    }
    InstallHandler(u, OwnerOf(u), session);
    for (int32_t y = 0; y < kHeight; y += 120) {
      for (int32_t x = 0; x < kWidth; x += 160) {
        session->PutImage(Rect{x, y, 160, 120}, MakePhotoBlock(&paint, 160, 120));
      }
    }
    session->Flush();
  }
  sim_.RunFor(Seconds(2));
}

void Farm::InstallHandler(User& u, SlimServer* server, ServerSession* session) {
  u.handled = session;
  session->set_input_handler(
      [this, &u, server, session](const Message& msg) { Handle(u, server, session, msg); });
}

void Farm::Draw(User& u, ServerSession& session, uint32_t input_id) {
  // A terminal-style stream: one glyph per key on 30-column lines, a small photo every
  // 16th key, and a cleared line at each wrap.
  const Font& font = DefaultFont();
  const int32_t cols = 30;
  const int32_t line = (u.cursor / cols) % (kHeight / font.line_height() - 1);
  const int32_t col = u.cursor % cols;
  const int32_t y = 8 + line * font.line_height();
  if (col == 0) {
    session.FillRect(Rect{8, y, cols * font.char_width(), font.line_height()}, UiPanel());
  }
  const char text[2] = {static_cast<char>('a' + input_id % 26), '\0'};
  const auto glyphs = font.Shape(text);
  session.DrawGlyphs(8 + col * font.char_width(), y, glyphs, UiText(), UiPanel());
  if (input_id % 16 == 15) {
    Rng rng(Rng::MixSeed(seed_, static_cast<uint64_t>(u.index), input_id));
    session.PutImage(Rect{400, 8 + static_cast<int32_t>(input_id % 5) * 90, 96, 72},
                     MakePhotoBlock(&rng, 96, 72));
  }
  ++u.cursor;
}

void Farm::Handle(User& u, SlimServer* server, ServerSession* session, const Message& msg) {
  const auto* key = std::get_if<KeyEventMsg>(&msg.body);
  if (key == nullptr || !key->pressed || key->keycode >= u.sent_at.size()) {
    return;
  }
  const uint32_t input_id = key->keycode;
  const uint64_t span = NextSpanId();
  RootSpan root(probe_, "input", span);
  const NodeId console = session->console();
  const uint64_t min_seq = server->endpoint().send_seq(console) + 1;
  Timed(probe_, kApps, span, [&] { Draw(u, *session, input_id); });
  u.replica->Run(*session, probe_, span);
  Timed(probe_, kServerFlush, span, [&] { session->Flush(); });
  u.echo.Expect(u.sent_at[input_id], min_seq, ExpectedLastSeq(*server, *session));
}

void Farm::SendKey(User& u) {
  ServerSession* session = SessionOf(u);
  if (u.phase != Phase::kActive || sim_.now() < u.resume_at || session == nullptr ||
      session->console() != u.console->node()) {
    return;  // the user is between desks; the key is not typed
  }
  SlimServer* owner = OwnerOf(u);
  if (session != u.handled) {
    InstallHandler(u, owner, session);
  }
  const auto input_id = static_cast<uint32_t>(u.sent_at.size());
  u.sent_at.push_back(sim_.now());
  rep_->queue_peak = std::max(rep_->queue_peak, sim_.pending_events());
  u.console->SendKey(owner->node(), session->id(), input_id, /*pressed=*/true);
}

void Farm::ScheduleKeys(User& u, Rng rng) {
  const SimTime end = horizon_start_ + kHorizon;
  const SimTime phase = static_cast<SimDuration>(rng.NextBelow(kKeyPeriod));
  for (SimTime at = sim_.now() + phase; at < end; at += kKeyPeriod) {
    sim_.ScheduleAt(at, [this, &u] { SendKey(u); });
  }
}

void Farm::BeginMove(User& u, Console* target, SlimServer* target_server, bool failover) {
  if (u.phase == Phase::kGaveUp) {
    return;
  }
  u.phase = Phase::kDraining;
  u.target = target;
  u.target_server = target_server;
  u.failover = failover;
  u.move_started = sim_.now();
  TryStartMove(u);
}

void Farm::TryStartMove(User& u) {
  // The user leaves once the last keystroke's echo is on screen (or after 500 ms).
  if (u.echo.lost() + u.echo.unanswered_deferred() > 0 &&
      sim_.now() - u.move_started < Milliseconds(500)) {
    sim_.Schedule(kPoll, [this, &u] { TryStartMove(u); });
    return;
  }
  ++handoffs_;
  const uint64_t span = NextSpanId();
  RootSpan root(probe_, "handoff", span);
  if (ServerSession* session = SessionOf(u)) {
    if (!u.failover) {
      u.expected_hash = session->framebuffer().ContentHash();
    }
    if (probe_ != nullptr) {
      SessionCheckpoint ckpt;
      Timed(probe_, kCkptCapture, span, [&] { session->CaptureCheckpoint(&ckpt); });
      const std::vector<uint8_t> blob =
          Timed(probe_, kCkptEncode, span, [&] { return EncodeCheckpoint(ckpt); });
      Timed(probe_, kCkptDecode, span, [&] { return DecodeCheckpoint(blob); });
      rep_->checkpoint_blob_bytes =
          std::max(rep_->checkpoint_blob_bytes, static_cast<int64_t>(blob.size()));
    }
  }
  u.phase = Phase::kBlackout;
  u.move_started = sim_.now();
  u.last_target_completion = u.move_started;
  u.last_tap = u.move_started;
  u.target->InsertCard(u.target_server->node(), u.card);
  sim_.Schedule(kPoll, [this, &u] { Poll(u); });
}

void Farm::Poll(User& u) {
  SlimServer* owner = OwnerOf(u);
  ServerSession* session = SessionOf(u);
  int owners = 0;
  for (const auto& s : servers_) {
    if (pool_.alive(s.get()) && s->SessionForCard(u.card) != nullptr) {
      ++owners;
    }
  }
  const bool attached = session != nullptr && session->attached() &&
                        session->console() == u.target->node();
  if (owners == 1 && owner == u.target_server && attached &&
      u.target->framebuffer().ContentHash() == u.expected_hash &&
      session->framebuffer().ContentHash() == u.expected_hash) {
    out_.blackout_ms.push_back(ToMillis(u.last_target_completion - u.move_started));
    u.console = u.target;
    u.phase = Phase::kActive;
    u.resume_at = sim_.now() + kResumePause;
    InstallHandler(u, owner, session);
    return;
  }
  if (sim_.now() - u.move_started > kConvergeLimit) {
    ++failed_handoffs_;
    u.phase = Phase::kGaveUp;
    return;
  }
  if (!attached && sim_.now() - u.last_tap >= kRetap) {
    // The screen is still dark: tap the card again, as a user would.
    u.last_tap = sim_.now();
    u.target->InsertCard(u.target_server->node(), u.card);
  }
  sim_.Schedule(kPoll, [this, &u] { Poll(u); });
}

void Farm::OnApplied(User& u, Console* console, const ServiceRecord& rec) {
  out_.digest.AddRecord(rec);
  u.echo.OnApplied(rec, &out_.key_ms["farm"]);
  if (u.phase == Phase::kBlackout && console == u.target) {
    u.last_target_completion = std::max(u.last_target_completion, rec.completion);
  }
  if (in_horizon_) {
    u.updates.OnApplied(rec);
    out_.wire["farm"].bytes += static_cast<double>(rec.wire_bytes);
    out_.queue_wait_ms.push_back(ToMillis(rec.start - rec.arrival));
  }
}

void Farm::RunHorizon() {
  in_horizon_ = true;
  horizon_start_ = sim_.now();
  // Standby replication starts with the horizon, so its ticks keep the same phase against
  // the scripted moves whatever the login took.
  managers_[kVictim]->EnableStandby(servers_[kServing].get(), kStandbyInterval);
  Rng keys(Rng::MixSeed(seed_, 0x6b657973));
  for (User& u : users_) {
    ScheduleKeys(u, keys.Split());
    Console* desk = consoles_[static_cast<size_t>(3 * u.index + 1)].get();
    SlimServer* next = servers_[static_cast<size_t>((u.index + 1) % kServing)].get();
    sim_.ScheduleAt(horizon_start_ + kFirstMove + u.index * kMoveSpacing,
                    [this, &u, desk, next] { BeginMove(u, desk, next, /*failover=*/false); });
  }
  SlimServer* doomed = servers_[kVictim].get();
  SlimServer* standby = servers_[kServing].get();
  sim_.ScheduleAt(horizon_start_ + kIdleAt, [this, doomed] {
    for (User& u : users_) {
      if (OwnerOf(u) == doomed && u.phase == Phase::kActive) {
        u.phase = Phase::kIdle;
      }
    }
  });
  sim_.ScheduleAt(horizon_start_ + kKillAt, [this, doomed, standby] {
    std::vector<User*> victims;
    for (User& u : users_) {
      if (OwnerOf(u) == doomed) {
        victims.push_back(&u);
        if (ServerSession* session = SessionOf(u)) {
          u.expected_hash = session->framebuffer().ContentHash();
        }
      }
    }
    pool_.KillServer(doomed);
    for (User* u : victims) {
      Console* spare = consoles_[static_cast<size_t>(3 * u->index + 2)].get();
      BeginMove(*u, spare, standby, /*failover=*/true);
    }
  });
  sim_.RunFor(kHorizon);
  in_horizon_ = false;
  sim_.RunFor(kDrain);
}

void Farm::Check() {
  for (User& u : users_) {
    ServerSession* session = SessionOf(u);
    if (u.phase == Phase::kGaveUp) {
      continue;  // counted as a failed handoff
    }
    if (session == nullptr || session->console() != u.console->node()) {
      out_.check_failures.push_back("farm: user " + std::to_string(u.index) +
                                    " ends without a session attached to their console");
      continue;
    }
    // The console applies display commands in arrival order, so a jittered or replayed
    // command that lands after a newer overlapping one leaves stale pixels: a session whose
    // console disagrees with it at quiescence has lost updates, a counted failure.
    if (session->framebuffer().ContentHash() != u.console->framebuffer().ContentHash()) {
      ++diverged_;
    }
    out_.digest.Add(session->framebuffer().ContentHash());
  }
  for (size_t s = 0; s < servers_.size(); ++s) {
    if (pool_.alive(servers_[s].get()) && managers_[s]->MigrationInFlight()) {
      out_.check_failures.push_back("farm: server " + std::to_string(s) +
                                    " ends with a migration in flight");
    }
  }
  int64_t inputs = 0;
  for (User& u : users_) {
    inputs += static_cast<int64_t>(u.sent_at.size());
    out_.failed += u.echo.lost();
    out_.frames += u.updates.updates();
    AccountReplica(*u.replica, &out_);
  }
  out_.attempted += inputs + handoffs_;
  out_.failed += failed_handoffs_ + diverged_;
  AddCounter(&out_, "note.diverged_sessions", static_cast<double>(diverged_));
  AddCounter(&out_, "note.failed_handoffs", static_cast<double>(failed_handoffs_));
  out_.stream_seconds += kUsers * ToSeconds(kHorizon);
  std::vector<NodeId> nodes;
  for (size_t s = 0; s < servers_.size(); ++s) {
    AccountServer(*servers_[s], &out_);
    nodes.push_back(servers_[s]->node());
    const MigrationStats& m = managers_[s]->stats();
    AddCounter(&out_, "migration.chunk_bytes", static_cast<double>(m.chunk_bytes_sent));
    AddCounter(&out_, "migration.committed", static_cast<double>(m.committed));
    AddCounter(&out_, "migration.aborted", static_cast<double>(m.aborted));
    AddCounter(&out_, "migration.retries", static_cast<double>(m.retries));
    out_.wire["farm"].bytes += static_cast<double>(m.chunk_bytes_sent);
  }
  for (const auto& c : consoles_) {
    AccountConsole(*c, static_cast<double>(kHorizon) / 3.0, &out_);
    nodes.push_back(c->node());
  }
  AccountFabric(fabric_, nodes, &out_);
  out_.wire["farm"].ops += handoffs_;
}

}  // namespace

RepResult RunFarm(uint64_t seed, Probe* probe, bool setup_only) {
  RepResult rep;
  rep.horizon_sim_s = ToSeconds(kHorizon);
  Stopwatch watch;
  watch.Start();
  auto farm = std::make_unique<Farm>(seed, probe, &rep);
  farm->SetUp();
  rep.setup_s = watch.Stop();
  if (setup_only || !rep.sim.check_failures.empty()) {
    return rep;
  }
  watch.Start();
  if (probe != nullptr) {
    probe->set_counting(true);
  }
  const uint64_t events_before = farm->events();
  farm->RunHorizon();
  rep.events = farm->events() - events_before;
  if (probe != nullptr) {
    probe->set_counting(false);
  }
  rep.horizon_wall_s = watch.Stop();
  farm->Check();
  return rep;
}

}  // namespace perfbench
