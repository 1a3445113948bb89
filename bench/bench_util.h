// Shared helpers for the figure/table harnesses.
//
// Every harness prints the paper-style rows for its tables or figures. Scale knobs come
// from the environment so the default run finishes in seconds while a paper-scale run
// (SLIM_USERS=50 SLIM_MINUTES=10) reproduces the full study:
//
//   SLIM_USERS    simulated users per application      (default 12, paper 50)
//   SLIM_MINUTES  simulated minutes per user session   (default 5, paper 10)
//   SLIM_SECONDS  horizon for sharing experiments      (default 60)
//
// Alongside the text, every harness writes BENCH_<name>.json reports through BenchReporter
// (see src/obs/bench_report.h) into $SLIM_BENCH_DIR (cwd by default), and the harnesses
// that drive full sessions honor SLIM_TRACE=<path.json> via ScopedTraceFromEnv.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>

#include "src/obs/bench_report.h"
#include "src/obs/trace.h"

namespace slim {

// EnvInt (strtol-validated, warns and falls back on garbage) comes from
// src/obs/bench_report.h so the library and the harnesses parse knobs identically.

inline void PrintHeader(const char* title, const char* paper_reference) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_reference);
  std::printf("==============================================================\n");
}

}  // namespace slim

#endif  // BENCH_BENCH_UTIL_H_
