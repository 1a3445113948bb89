// Workload `desktop`: the paper's user study (Sections 3.1 and 5).
//
// kGroups private worlds (simulator, clean 100 Mbps fabric, server), each serving four
// users at 1280x1024, one per synthetic application, so a group is a lightly shared
// server like the paper's two-server study. The server charges its CPU pipeline before
// each transmission (the response-time setting). UserModel inputs arrive open loop on
// their own sim-time schedule for the fixed horizon. After the horizon drains, every user
// walks to a second console on the same server (a hotdesk within one server); the forced
// repaints give the blackouts. No CSCS, no loss, no migration.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/apps/application.h"
#include "src/console/console.h"
#include "src/net/fabric.h"
#include "src/server/slim_server.h"
#include "src/util/rng.h"
#include "src/workload/user_model.h"

namespace perfbench {
namespace {

using namespace slim;

constexpr int kGroups = 6;
constexpr SimDuration kHorizon = Seconds(60);
constexpr int32_t kWidth = 1280;
constexpr int32_t kHeight = 1024;

ConsoleOptions DesktopConsole() {
  ConsoleOptions options;
  options.width = kWidth;
  options.height = kHeight;
  options.record_service_log = false;  // the benchmark folds records as they apply
  return options;
}

ServerOptions DesktopServer() {
  ServerOptions options;
  options.session_width = kWidth;
  options.session_height = kHeight;
  options.model_cpu_delay = true;
  return options;
}

// One user of a group: a session running one application, the console the user works
// at, and the console they hotdesk to at the end.
struct DesktopUser {
  DesktopUser(Simulator* sim, Fabric* fabric, SlimServer* server, AppKind kind,
              uint64_t seed, Probe* probe)
      : kind(kind),
        console(sim, fabric, DesktopConsole()),
        hotdesk(sim, fabric, DesktopConsole()),
        card(server->auth().IssueCard(static_cast<uint32_t>(seed))),
        session(&server->CreateSession(card)),
        app(MakeApplication(kind, session, seed * 31 + 7)),
        feed(server, session, app.get(), &console, probe),
        model(kind, Rng(seed * 0xc0ffee + 17)),
        clicks(seed * 0xdab + 3) {}

  AppKind kind;
  Console console;
  Console hotdesk;
  uint64_t card;
  ServerSession* session;
  std::unique_ptr<Application> app;
  InputFeed feed;
  UserModel model;
  Rng clicks;
  UpdateCounter updates;
  SimTime hotdesk_done = 0;
};

struct Group {
  Group() : fabric(&sim, FabricOptions{}), server(&sim, &fabric, DesktopServer()) {}

  Simulator sim;
  Fabric fabric;
  SlimServer server;
  std::vector<std::unique_ptr<DesktopUser>> users;
};

void RunGroup(uint64_t group_seed, Probe* probe, bool setup_only, RepResult* rep) {
  SimOutcome& out = rep->sim;
  Stopwatch watch;

  // --- Set-up: world, smart-card logins, initial paints ---
  watch.Start();
  auto group = std::make_unique<Group>();
  Simulator& sim = group->sim;
  bool in_horizon = false;
  for (int k = 0; k < kAppKindCount; ++k) {
    const auto kind = static_cast<AppKind>(k);
    group->users.push_back(std::make_unique<DesktopUser>(
        &sim, &group->fabric, &group->server, kind,
        Rng::MixSeed(group_seed, static_cast<uint64_t>(k) + 1), probe));
    DesktopUser& u = *group->users.back();
    SimOutcome::WireTally& wire = out.wire[AppKindName(kind)];
    std::vector<double>& key_ms = out.key_ms[AppKindName(kind)];
    u.console.set_apply_callback([&out, &u, &wire, &key_ms, &in_horizon](const ServiceRecord& rec) {
      out.digest.AddRecord(rec);
      u.feed.OnApplied(rec, &key_ms);
      if (in_horizon) {
        u.updates.OnApplied(rec);
        wire.bytes += static_cast<double>(rec.wire_bytes);
        out.queue_wait_ms.push_back(ToMillis(rec.start - rec.arrival));
      }
    });
    u.hotdesk.set_apply_callback([&out, &u](const ServiceRecord& rec) {
      out.digest.AddRecord(rec);
      u.hotdesk_done = std::max(u.hotdesk_done, rec.completion);
    });
    u.console.InsertCard(group->server.node(), u.card);
  }
  sim.Run();
  for (auto& u : group->users) {
    const uint64_t id = NextSpanId();
    RootSpan root(probe, "start", id);
    Timed(probe, kApps, id, [&] { u->app->Start(); });
    u->session->Flush();
  }
  sim.Run();
  rep->setup_s += watch.Stop();
  if (setup_only) {
    return;
  }

  // --- Horizon: open-loop user inputs ---
  watch.Start();
  in_horizon = true;
  if (probe != nullptr) {
    probe->set_counting(true);
  }
  const uint64_t events_before = sim.events_executed();
  const SimTime end = sim.now() + kHorizon;
  std::function<void(DesktopUser&)> schedule_next = [&](DesktopUser& u) {
    const UserModel::NextEvent event = u.model.Next();
    const SimTime at = sim.now() + event.delay;
    if (at > end) {
      return;
    }
    sim.ScheduleAt(at, [&, event, user = &u]() {
      rep->queue_peak = std::max(rep->queue_peak, sim.pending_events());
      if (event.is_key) {
        user->feed.SendKey(event.keycode);
      } else {
        user->feed.SendClick(static_cast<int32_t>(user->clicks.NextBelow(kWidth)),
                               static_cast<int32_t>(user->clicks.NextBelow(kHeight)));
      }
      schedule_next(*user);
    });
  };
  for (auto& u : group->users) {
    schedule_next(*u);
  }
  sim.Run();
  in_horizon = false;

  // Quiescence: every session's truth and its console's soft state must agree.
  for (auto& u : group->users) {
    if (u->session->framebuffer().ContentHash() != u->console.framebuffer().ContentHash()) {
      out.check_failures.push_back(std::string("desktop ") + AppKindName(u->kind) +
                                   ": server framebuffer != console framebuffer");
    }
  }

  // Everyone walks to another desk on the same server at once: releases and forced
  // repaints share the server pipeline and the switch.
  const SimTime inserted = sim.now();
  for (auto& u : group->users) {
    u->hotdesk.InsertCard(group->server.node(), u->card);
  }
  sim.Run();
  rep->events += sim.events_executed() - events_before;
  if (probe != nullptr) {
    probe->set_counting(false);
  }
  rep->horizon_wall_s += watch.Stop();

  std::vector<NodeId> nodes = {group->server.node()};
  for (auto& u : group->users) {
    const uint64_t truth = u->session->framebuffer().ContentHash();
    if (u->session->console() != u->hotdesk.node() ||
        u->hotdesk.framebuffer().ContentHash() != truth) {
      out.check_failures.push_back(std::string("desktop ") + AppKindName(u->kind) +
                                   ": hotdesk repaint does not match the session");
    } else {
      out.blackout_ms.push_back(ToMillis(u->hotdesk_done - inserted));
    }
    out.digest.Add(truth);
    out.attempted += u->feed.sent() + 1;
    out.failed += u->feed.lost();
    out.wire[AppKindName(u->kind)].ops += u->feed.sent();
    out.frames += u->updates.updates();
    out.stream_seconds += ToSeconds(kHorizon);
    AddCounter(&out, "note.no_pixel_inputs", static_cast<double>(u->feed.no_pixels()));
    AccountConsole(u->console, static_cast<double>(kHorizon), &out);
    AccountConsole(u->hotdesk, 0.0, &out);
    AccountReplica(u->feed.replica(), &out);
    nodes.push_back(u->console.node());
    nodes.push_back(u->hotdesk.node());
  }
  AccountServer(group->server, &out);
  AccountFabric(group->fabric, nodes, &out);
}

}  // namespace

RepResult RunDesktop(uint64_t seed, Probe* probe, bool setup_only) {
  RepResult rep;
  rep.horizon_sim_s = ToSeconds(kHorizon);
  for (int g = 0; g < kGroups; ++g) {
    RunGroup(Rng::MixSeed(seed, 0x6465736b, static_cast<uint64_t>(g)), probe, setup_only,
             &rep);
  }
  return rep;
}

}  // namespace perfbench
