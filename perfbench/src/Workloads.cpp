//===- Workloads.cpp - Set-up and reporting shared by the workloads -------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <iostream>

using namespace perfbench;

BaseSetup perfbench::setupBase(const Options &Opt, Report &Rep) {
  BaseSetup B;
  double Start = now();
  B.Nets = loadNetworks(Opt.DataDir);
  B.NetworksSeconds = now() - Start;
  B.OnnxSeconds = importOnnxFixtures(Opt, Rep);
  return B;
}

const ExpectedVerdicts &perfbench::expectedVerdicts(const Options &Opt) {
  static ExpectedVerdicts Expected;
  static bool Loaded = false;
  if (!Loaded) {
    std::string Path = Opt.RepoRoot + "/perfbench/expected_verdicts.txt";
    if (!Expected.load(Path)) {
      std::cerr << "perfbench: cannot read " << Path << "\n";
      std::exit(2);
    }
    Loaded = true;
  }
  return Expected;
}

void perfbench::reportEndToEnd(const EndToEnd &E, Report &Rep) {
  std::cout << "setup samples (s):";
  for (double S : E.SetupSeconds)
    std::cout << " " << S;
  std::cout << "\n";
  Rep.metric("setup_s", median(E.SetupSeconds), "s");
  Rep.metric("peak_rss_mb", peakRssMb(), "MB");
  Rep.metric("wall_s", E.WallSeconds, "s");
  Rep.metric("p50_ms", E.P50Ms, "ms");
  Rep.metric("tail_ms", E.TailMs, "ms");
  Rep.metric("solved", E.Solved, "count");
  Rep.metric("ops_per_s", E.OpsPerSecond, "1/s");
}
