// slim_e2e: the end-to-end benchmark program (see perfbench/README.md).
//
//   slim_e2e --workload desktop|video|farm --seed N --seconds S --trace 0|1
//            [--trace-out trace.json]
//
// Runs reps of the workload until S host seconds have passed, at least one more than
// the workload's sample reps. Every rep builds its worlds from its own seed derived from
// --seed. The sim-clock outcomes of the first (sample) reps are pooled; one last rep
// repeats the first world and must reproduce it exactly (digest, latency and blackout
// samples). wall_per_sim_s is the host time of all reps but the first (warm-up) one over
// their simulated time, so it averages over every world the run built; setup_s is a
// median that also draws on extra set-up-only reps.
// --trace 0 reports the end-to-end metrics. --trace 1 spends half of the time untraced
// and half traced, and reports the per-layer metrics, including the tracing overhead.
// The last line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. A failed output check exits 1.

#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

// setup_s is a median over at least this many set-ups when the extra set-up-only reps
// fit in kSetupShare of the run.
constexpr size_t kSetupSamples = 25;
constexpr double kSetupShare = 0.1;
// Stop starting reps past this point, so one run always ends well inside 180 s.
constexpr double kHardStopS = 120.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out = "slim_e2e_trace.json";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args->trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

using WorkloadFn = RepResult (*)(uint64_t seed, Probe* probe, bool setup_only);

struct Workload {
  const char* name;
  WorkloadFn run;
  size_t samples;  // sample reps: distinct seeds whose sim-clock outcomes are pooled
};

// A farm world's blackouts step with the 1 s card re-tap, so its worst one varies by a
// step between worlds and needs many worlds to settle.
constexpr Workload kWorkloads[] = {
    {"desktop", &RunDesktop, 8},
    {"video", &RunVideo, 3},
    {"farm", &RunFarm, 9},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

uint64_t RepSeed(uint64_t seed, size_t rep) { return slim::Rng::MixSeed(seed, 0x726570, rep); }

// Set-up-only reps each build different worlds, so set-up time covers many contents.
uint64_t SetupSeed(uint64_t seed, size_t rep) {
  return slim::Rng::MixSeed(seed, 0x7365747570, rep);
}

double WallPerSim(const RepResult& r) { return r.horizon_wall_s / r.horizon_sim_s; }

double Elapsed(int64_t since_ns) { return static_cast<double>(NowNs() - since_ns) * 1e-9; }

// The reps host-clock metrics use: all but the first, warm-up one when enough remain.
std::vector<const RepResult*> HostReps(const std::vector<RepResult>& reps) {
  std::vector<const RepResult*> out;
  for (size_t i = reps.size() >= 4 ? 1 : 0; i < reps.size(); ++i) {
    out.push_back(&reps[i]);
  }
  return out;
}

// Runs reps until `budget_s` has passed since `start_ns` (and at least `min_reps`).
// `make_probe(i)` returns the probe for rep i (null for untraced reps).
template <typename MakeProbe>
void RunReps(const Workload& w, uint64_t seed, double budget_s, size_t min_reps,
             int64_t run_start_ns, MakeProbe make_probe, std::vector<RepResult>* reps) {
  const int64_t start = NowNs();
  for (size_t i = 0;; ++i) {
    if (i >= min_reps && (Elapsed(start) >= budget_s || Elapsed(run_start_ns) >= kHardStopS)) {
      return;
    }
    reps->push_back(w.run(RepSeed(seed, i), make_probe(i), /*setup_only=*/false));
  }
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

double Counter(const SimOutcome& sim, const char* name) {
  const auto it = sim.counters.find(name);
  return it == sim.counters.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Geometric mean of f(group) over a map's groups (0 for no groups).
template <typename Map, typename F>
double GeoMean(const Map& groups, F f) {
  if (groups.empty()) {
    return 0.0;
  }
  double log_sum = 0;
  for (const auto& [name, value] : groups) {
    log_sum += std::log(f(value));
  }
  return std::exp(log_sum / static_cast<double>(groups.size()));
}

double WireBytesPerOp(const SimOutcome& sim) {
  return GeoMean(sim.wire, [](const SimOutcome::WireTally& t) {
    return Ratio(t.bytes, static_cast<double>(t.ops));
  });
}

double KeyPercentile(const SimOutcome& sim, double p) {
  return GeoMean(sim.key_ms, [p](const std::vector<double>& v) { return Percentile(v, p); });
}

size_t KeySamples(const SimOutcome& sim) {
  size_t n = 0;
  for (const auto& [group, samples] : sim.key_ms) {
    n += samples.size();
  }
  return n;
}

// Two reps of one seed must agree exactly on the sim clock.
bool Twins(const RepResult& a, const RepResult& b) {
  return a.sim.digest.value() == b.sim.digest.value() && a.sim.key_ms == b.sim.key_ms &&
         a.sim.blackout_ms == b.sim.blackout_ms;
}

// The sim-clock outcome of the sample reps, as if one world held them all.
SimOutcome Pool(const std::vector<RepResult>& reps, size_t samples) {
  SimOutcome pooled;
  for (size_t i = 0; i < std::min(reps.size(), samples); ++i) {
    const SimOutcome& s = reps[i].sim;
    for (const auto& [group, samples] : s.key_ms) {
      std::vector<double>& into = pooled.key_ms[group];
      into.insert(into.end(), samples.begin(), samples.end());
    }
    pooled.blackout_ms.insert(pooled.blackout_ms.end(), s.blackout_ms.begin(),
                              s.blackout_ms.end());
    pooled.queue_wait_ms.insert(pooled.queue_wait_ms.end(), s.queue_wait_ms.begin(),
                                s.queue_wait_ms.end());
    for (const auto& [group, tally] : s.wire) {
      pooled.wire[group].bytes += tally.bytes;
      pooled.wire[group].ops += tally.ops;
    }
    for (const auto& [name, value] : s.counters) {
      pooled.counters[name] += value;
    }
    pooled.frames += s.frames;
    pooled.stream_seconds += s.stream_seconds;
    pooled.attempted += s.attempted;
    pooled.failed += s.failed;
    pooled.digest.Add(s.digest.value());
  }
  return pooled;
}

// The worst blackout of each sample rep, whose median is blackout_max_ms: the worst
// case of one rep's worlds, steadier across seeds than the worst of all pooled samples.
std::vector<double> WorstBlackouts(const std::vector<RepResult>& reps, size_t samples) {
  std::vector<double> worst;
  for (size_t i = 0; i < std::min(reps.size(), samples); ++i) {
    const std::vector<double>& b = reps[i].sim.blackout_ms;
    if (!b.empty()) {
      worst.push_back(*std::max_element(b.begin(), b.end()));
    }
  }
  return worst;
}

std::vector<Metric> EndToEnd(const std::vector<RepResult>& reps, const SimOutcome& sim,
                             size_t samples, const std::vector<double>& setup) {
  // Host seconds over simulated seconds summed across reps: the worlds' contents, and so
  // their costs, differ by seed, and a sum weighs each world by the time it took.
  double wall_s = 0;
  double sim_s = 0;
  for (const RepResult* r : HostReps(reps)) {
    wall_s += r->horizon_wall_s;
    sim_s += r->horizon_sim_s;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"wall_per_sim_s", wall_s / sim_s, "s/s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
      {"key_p50_ms", KeyPercentile(sim, 0.5), "ms"},
      {"key_p99_ms", KeyPercentile(sim, 0.99), "ms"},
      {"wire_bytes_per_op", WireBytesPerOp(sim), "B"},
      {"fps", Ratio(static_cast<double>(sim.frames), sim.stream_seconds), "frames/s"},
      {"blackout_p50_ms", Percentile(sim.blackout_ms, 0.5), "ms"},
      {"blackout_max_ms", Median(WorstBlackouts(reps, samples)), "ms"},
  };
}

std::vector<Metric> PerLayer(const std::vector<RepResult>& plain,
                             const std::vector<RepResult>& traced,
                             const std::vector<std::unique_ptr<Probe>>& probes) {
  const RepResult& first = traced.front();
  const SimOutcome& sim = first.sim;
  // Host ns spent in a layer per simulated second of the horizon, median over traced reps.
  auto layer_ns = [&](Layer layer) {
    std::vector<double> v;
    for (size_t i = 0; i < traced.size(); ++i) {
      v.push_back(static_cast<double>(probes[i]->layer_ns(layer)) / traced[i].horizon_sim_s);
    }
    return Median(v);
  };
  auto calls = [&](Layer layer) { return static_cast<double>(probes[0]->layer_calls(layer)); };
  std::vector<double> event_ns;
  for (const RepResult* r : HostReps(plain)) {
    event_ns.push_back(r->horizon_wall_s * 1e9 /
                       static_cast<double>(std::max<uint64_t>(r->events, 1)));
  }
  // Traced over untraced wall of the same seed, leaving out the warm-up pair.
  std::vector<double> overhead;
  const size_t pairs = std::min(plain.size(), traced.size());
  for (size_t i = pairs > 1 ? 1 : 0; i < pairs; ++i) {
    overhead.push_back(WallPerSim(traced[i]) / WallPerSim(plain[i]) - 1.0);
  }
  const double sent =
      Counter(sim, "net.transport.messages") + Counter(sim, "net.transport.replays");
  std::vector<Metric> m = {
      {"sim.events", static_cast<double>(first.events), "count"},
      {"sim.event_ns", Median(event_ns), "ns"},
      {"sim.queue_peak", static_cast<double>(first.queue_peak), "count"},
      {"apps.render_ns", layer_ns(kApps), "ns/s"},
      {"apps.calls", calls(kApps), "count"},
      {"server.flush_ns", layer_ns(kServerFlush), "ns/s"},
      {"server.flush_calls", calls(kServerFlush), "count"},
      {"server.txq_max_depth", Counter(sim, "server.txq_max_depth"), "count"},
      {"server.pace_delayed", Counter(sim, "server.pace_delayed"), "count"},
      {"server.coalesced_flushes", Counter(sim, "server.coalesced_flushes"), "count"},
      {"server.video_dropped", Counter(sim, "server.video_dropped"), "count"},
      {"codec.refine_ns", layer_ns(kCodecRefine), "ns/s"},
      {"codec.encode_ns", layer_ns(kCodecEncode), "ns/s"},
      {"codec.damaged_px", Counter(sim, "codec.damaged_px"), "count"},
      {"codec.refined_px", Counter(sim, "codec.refined_px"), "count"},
      {"codec.refine_keep_ratio",
       Ratio(Counter(sim, "codec.refined_px"), Counter(sim, "codec.damaged_px")), "ratio"},
      {"codec.compression_ratio",
       Ratio(Counter(sim, "codec.raw_bytes"), Counter(sim, "codec.encoded_bytes")), "ratio"},
      {"protocol.serialize_ns", layer_ns(kProtoSerialize), "ns/s"},
      {"protocol.parse_ns", layer_ns(kProtoParse), "ns/s"},
      {"protocol.msgs", Counter(sim, "protocol.msgs"), "count"},
      {"net.transport.messages", Counter(sim, "net.transport.messages"), "count"},
      {"net.transport.fragments", Counter(sim, "net.transport.fragments"), "count"},
      {"net.transport.nacks", Counter(sim, "net.transport.nacks"), "count"},
      {"net.transport.replays", Counter(sim, "net.transport.replays"), "count"},
      {"net.transport.duplicates", Counter(sim, "net.transport.duplicates"), "count"},
      {"net.transport.reassembly_timeouts", Counter(sim, "net.transport.reassembly_timeouts"),
       "count"},
      {"net.fabric.datagrams", Counter(sim, "net.fabric.datagrams"), "count"},
      {"net.fabric.dropped", Counter(sim, "net.fabric.dropped"), "count"},
      {"net.fabric.bytes", Counter(sim, "net.fabric.bytes"), "B"},
      {"net.useful_ratio", Ratio(Counter(sim, "net.delivered"), sent), "ratio"},
      {"console.decode_ns", layer_ns(kConsoleDecode), "ns/s"},
      {"console.busy_ratio", Ratio(sim.console_busy_ns, sim.console_span_ns), "ratio"},
      {"console.queue_wait_p99_ms", Percentile(sim.queue_wait_ms, 0.99), "ms"},
      {"console.dropped", Counter(sim, "console.dropped"), "count"},
      {"console.rejected", Counter(sim, "console.rejected"), "count"},
      {"video.source_ns", layer_ns(kVideoSource), "ns/s"},
      {"color.pack_ns", layer_ns(kColorPack), "ns/s"},
      {"color.unpack_ns", layer_ns(kColorUnpack), "ns/s"},
      {"color.scale_ns", layer_ns(kColorScale), "ns/s"},
      {"checkpoint.capture_ns", layer_ns(kCkptCapture), "ns/s"},
      {"checkpoint.encode_ns", layer_ns(kCkptEncode), "ns/s"},
      {"checkpoint.decode_ns", layer_ns(kCkptDecode), "ns/s"},
      {"checkpoint.blob_bytes", static_cast<double>(first.checkpoint_blob_bytes), "B"},
      {"migration.chunk_bytes", Counter(sim, "migration.chunk_bytes"), "B"},
      {"migration.committed", Counter(sim, "migration.committed"), "count"},
      {"migration.aborted", Counter(sim, "migration.aborted"), "count"},
      {"migration.retries", Counter(sim, "migration.retries"), "count"},
      {"trace.overhead_ratio", Median(overhead), "ratio"},
  };
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload desktop|video|farm --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
#ifdef __GLIBC__
  // Keep freed memory in the heap for the next rep instead of returning framebuffer-sized
  // blocks to the kernel: otherwise whether a rep's allocations reuse pages or fault in
  // fresh zeroed ones flips with glibc's adaptive mmap threshold, and set-up time with it
  // (by up to 2x on video). The warm-up rep pays the page faults once.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  const int64_t run_start = NowNs();
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  std::vector<std::unique_ptr<Probe>> probes;
  std::vector<double> setup;
  const auto untraced = [](size_t) -> Probe* { return nullptr; };
  if (!args.trace) {
    RunReps(*workload, args.seed, args.seconds, workload->samples + 1, run_start, untraced,
            &plain);
    // The twin of the first (warm-up) rep: with it, every world the run built counts once
    // in the host metrics.
    plain.push_back(workload->run(RepSeed(args.seed, 0), nullptr, /*setup_only=*/false));
    for (const RepResult* r : HostReps(plain)) {
      setup.push_back(r->setup_s);
    }
    const int64_t extra_start = NowNs();
    while (setup.size() < kSetupSamples && Elapsed(extra_start) < kSetupShare * args.seconds &&
           Elapsed(run_start) < kHardStopS) {
      setup.push_back(
          workload->run(SetupSeed(args.seed, setup.size()), nullptr, /*setup_only=*/true)
              .setup_s);
    }
  } else {
    RunReps(*workload, args.seed, args.seconds / 2, 3, run_start, untraced, &plain);
    RunReps(*workload, args.seed, args.seconds / 2, 2, run_start,
            [&](size_t i) {
              probes.push_back(std::make_unique<Probe>(/*keep_spans=*/i == 0));
              return probes.back().get();
            },
            &traced);
  }

  bool correct = true;
  for (const std::vector<RepResult>* reps : {&plain, &traced}) {
    for (const RepResult& r : *reps) {
      for (const std::string& failure : r.sim.check_failures) {
        std::fprintf(stderr, "check failed: %s\n", failure.c_str());
        correct = false;
      }
    }
  }
  // The last untraced rep repeats the first; traced reps repeat the untraced ones, which
  // also shows the tracing leaves the simulation untouched.
  bool repeatable = args.trace || Twins(plain.back(), plain.front());
  for (size_t i = 0; i < std::min(plain.size(), traced.size()); ++i) {
    repeatable = repeatable && Twins(traced[i], plain[i]);
  }
  if (!repeatable) {
    std::fprintf(stderr, "check failed: two reps of one seed disagree on the sim clock\n");
    correct = false;
  }
  const SimOutcome sim = Pool(plain, workload->samples);
  if (args.trace && !probes.front()->WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "check failed: cannot write %s\n", args.trace_out.c_str());
    correct = false;
  }

  std::printf("workload %s seed %" PRIu64 ": %zu untraced + %zu traced reps\n",
              args.workload.c_str(), args.seed, plain.size(), traced.size());
  std::printf("host wall per sim-s by rep:");
  for (const RepResult& r : plain) {
    std::printf(" %.4g", WallPerSim(r));
  }
  std::printf("\n");
  if (!setup.empty()) {
    std::printf("setup s by sample:");
    for (const double s : setup) {
      std::printf(" %.3g", s);
    }
    std::printf("\n");
  }
  std::printf("wire digest %016" PRIx64 ", key samples %zu, blackout samples %zu, "
              "attempted %" PRId64 ", failed %" PRId64 "\n",
              sim.digest.value(), KeySamples(sim), sim.blackout_ms.size(), sim.attempted,
              sim.failed);
  for (const auto& [group, samples] : sim.key_ms) {
    std::printf("key latency ms, %s (%zu samples):", group.c_str(), samples.size());
    for (const double p : {0.5, 0.9, 0.99, 0.999}) {
      std::printf(" p%g %.3f", p * 100, Percentile(samples, p));
    }
    std::printf("\n");
  }
  // Counters that explain the result line but are not metrics.
  for (const auto& [name, value] : sim.counters) {
    if (name.rfind("note.", 0) == 0) {
      std::printf("%s %.0f\n", name.c_str(), value);
    }
  }
  PrintResult(correct, sim.attempted, sim.failed,
              args.trace ? PerLayer(plain, traced, probes)
                         : EndToEnd(plain, sim, workload->samples, setup));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
