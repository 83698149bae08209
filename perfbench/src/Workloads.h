//===- Workloads.h - The benchmark's four workloads ---------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload sets itself up several times before and again after its
/// measured phase (setup_s is the median of all set-ups), measures for
/// Options::Seconds with tracing off and prints the end-to-end metrics, or,
/// with Options::Trace, runs once untraced and once traced and prints the
/// per-layer metrics. Every verdict passes the correctness gate either way.
///
/// End-to-end metrics, common to all workloads (README.md maps them):
/// setup_s, peak_rss_mb, wall_s, p50_ms, tail_ms, solved, ops_per_s.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

/// Set-up repetitions at each end of the measured phase; setup_s reports
/// the median of all of them. A host slowdown lasting a few seconds then
/// moves the samples at one end only.
inline constexpr int SetupRepeats = 6;

/// Runs \p SetUp SetupRepeats times, appending the wall seconds of each
/// call to \p Seconds, and returns the last call's state. The previous
/// state is destroyed before each timed call.
template <typename F>
auto repeatSetup(std::vector<double> &Seconds, F &&SetUp) {
  decltype(SetUp()) State{};
  for (int I = 0; I < SetupRepeats; ++I) {
    State = {};
    double Start = now();
    State = SetUp();
    Seconds.push_back(now() - Start);
  }
  return State;
}

/// The set-up every workload shares: trained networks from the
/// benchmark's cache and the golden ONNX fixtures.
struct BaseSetup {
  NetworkSet Nets;
  double NetworksSeconds = 0.0;
  double OnnxSeconds = 0.0;
};
BaseSetup setupBase(const Options &Opt, Report &Rep);

/// The pinned expected verdicts shipped next to the benchmark.
const ExpectedVerdicts &expectedVerdicts(const Options &Opt);

/// The seven latency/size metrics every workload prints untraced (peak
/// RSS is read when they are printed).
struct EndToEnd {
  std::vector<double> SetupSeconds;
  double WallSeconds = 0.0;
  double P50Ms = 0.0;
  double TailMs = 0.0;
  double Solved = 0.0;
  double OpsPerSecond = 0.0;
};
void reportEndToEnd(const EndToEnd &E, Report &Rep);

int runSlate(Options &Opt, Report &Rep);
int runDeep(Options &Opt, Report &Rep);
int runServe(Options &Opt, Report &Rep);
int runCegar(Options &Opt, Report &Rep);

/// Decides the whole property pool once at \p Budget seconds and prints
/// "name verdict nodes seconds" lines (regenerates expected_verdicts.txt).
int writeExpected(Options &Opt, double Budget);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
