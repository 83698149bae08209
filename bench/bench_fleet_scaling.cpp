//===- bench_fleet_scaling.cpp - Multi-process fleet scaling ------------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Measures the process-mode counterpart of bench_parallel_scaling: the
// FleetCoordinator expanding the nodes of hard ACAS proof searches on
// 1/2/4 charon_worker child processes. Every fleet run is checked bit-for-bit
// against its serial Verifier::verify baseline (verdict, counterexample,
// objective) — the runner aborts on any contradiction, so the JSON is
// only ever produced by runs whose fleet verdicts were identical.
//
// Emits BENCH_fleet.json (schema "charon-bench-scaling/1", mode
// "processes") — the same schema bench_parallel_scaling writes in thread
// mode, so the two series plot on one chart. The document records the
// host core count: on a single-core host the interesting columns are the
// restart counter and the per-worker work distribution, not wall speedup.
// The schema's steals column always reads 0 here: one scheduler owns the
// frontier, so no work is stolen.
//
//   --fleet-out=PATH     output JSON path (default BENCH_fleet.json)
//   --fleet-worker=PATH  charon_worker binary (default: CHARON_WORKER_BIN
//                        env, then <this binary's dir>/charon_worker)
//   --fleet-cache=DIR    ACAS network cache dir (default networks)
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/PolicyIo.h"
#include "data/Benchmarks.h"
#include "fleet/FleetCoordinator.h"
#include "support/Check.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace charon;
using namespace charon::bench;

namespace {

// The worker binary, in precedence order: --fleet-worker, the env var
// ctest exports for the fleet tests, then a sibling of this executable
// (both live in the examples/ build dir when built in-tree).
std::string findWorkerBinary(const std::string &Flag, const char *Argv0) {
  if (!Flag.empty())
    return Flag;
  if (const char *Env = std::getenv("CHARON_WORKER_BIN"))
    return Env;
  std::string Self = Argv0;
  size_t Slash = Self.rfind('/');
  std::string Dir = Slash == std::string::npos ? "." : Self.substr(0, Slash);
  for (const char *Rel : {"/charon_worker", "/../examples/charon_worker"}) {
    std::string Candidate = Dir + Rel;
    if (::access(Candidate.c_str(), X_OK) == 0)
      return Candidate;
  }
  return "";
}

void checkIdentical(const RobustnessProperty &Prop, const VerifyResult &Serial,
                    const VerifyResult &Fleet) {
  if (Serial.Result != Fleet.Result)
    reportFatalError("fleet bench: fleet verdict differs from serial");
  if (Serial.Result != Outcome::Falsified)
    return;
  if (Serial.Counterexample.size() != Fleet.Counterexample.size())
    reportFatalError("fleet bench: counterexample dimension differs");
  for (size_t I = 0; I < Serial.Counterexample.size(); ++I)
    if (Serial.Counterexample[I] != Fleet.Counterexample[I])
      reportFatalError("fleet bench: counterexample is not bit-identical");
  if (Serial.ObjectiveAtCex != Fleet.ObjectiveAtCex)
    reportFatalError("fleet bench: objective at cex is not bit-identical");
  (void)Prop;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = "BENCH_fleet.json";
  std::string WorkerFlag;
  std::string CacheDir = "networks";
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (std::strncmp(Arg, "--fleet-out=", 12) == 0)
      OutPath = Arg + 12;
    else if (std::strncmp(Arg, "--fleet-worker=", 15) == 0)
      WorkerFlag = Arg + 15;
    else if (std::strncmp(Arg, "--fleet-cache=", 14) == 0)
      CacheDir = Arg + 14;
    else {
      std::fprintf(stderr,
                   "usage: %s [--fleet-out=P] [--fleet-worker=P] "
                   "[--fleet-cache=D]\n",
                   argv[0]);
      return 2;
    }
  }

  std::string WorkerBin = findWorkerBinary(WorkerFlag, argv[0]);
  if (WorkerBin.empty()) {
    std::fprintf(stderr,
                 "cannot locate charon_worker; pass --fleet-worker=PATH or "
                 "set CHARON_WORKER_BIN\n");
    return 1;
  }

  HarnessConfig Config = defaultHarnessConfig();
  VerificationPolicy Policy = loadOrDefaultPolicy(Config);
  // Coordinator and workers must expand nodes under the same policy, or
  // node expansions would diverge from the serial baseline: forward the
  // policy file only when the coordinator actually loaded it.
  std::string PolicyPath =
      loadPolicyFile(Config.PolicyPath) ? Config.PolicyPath : std::string();

  std::printf("== Fleet scaling: node expansions across processes ==\n");
  std::printf("(worker %s, %u hardware cores)\n\n", WorkerBin.c_str(),
              std::thread::hardware_concurrency());

  BenchmarkSuite Suite = makeAcasSuite(8, 321, CacheDir);

  // Shared semantic config: identical for the serial baseline and every
  // fleet run, so verdict identity is over the exact same search.
  VerifierConfig VC;
  VC.TimeLimitSeconds = 4.0 * Config.BudgetSeconds;
  VC.Seed = 7;

  // Serial baselines; keep the decided instances, hardest first.
  struct Instance {
    const RobustnessProperty *Prop;
    VerifyResult Serial;
  };
  std::vector<Instance> Instances;
  for (const RobustnessProperty &Prop : Suite.Properties) {
    Verifier V(Suite.Net, Policy, VC);
    VerifyResult R = V.verify(Prop);
    std::printf("  serial %-10s %-9s %8.4f s  (%ld nodes)\n",
                Prop.Name.c_str(), toString(R.Result), R.Stats.Seconds,
                R.Stats.NodesExpanded);
    if (R.Result != Outcome::Timeout)
      Instances.push_back({&Prop, std::move(R)});
  }
  std::sort(Instances.begin(), Instances.end(),
            [](const Instance &A, const Instance &B) {
              return A.Serial.Stats.Seconds > B.Serial.Stats.Seconds;
            });
  if (Instances.size() > 6)
    Instances.resize(6);
  if (Instances.empty()) {
    std::fprintf(stderr, "no decided ACAS instances under the current "
                         "budget; raise CHARON_BENCH_BUDGET\n");
    return 1;
  }

  double SerialSeconds = 0.0;
  long SerialNodes = 0;
  std::vector<std::string> Names;
  for (const Instance &Inst : Instances) {
    SerialSeconds += Inst.Serial.Stats.Seconds;
    SerialNodes += Inst.Serial.Stats.NodesExpanded;
    Names.push_back(Inst.Prop->Name);
  }
  std::printf("\n%zu hardest decided instances selected (serial %.3f s, "
              "%ld nodes)\n\n",
              Instances.size(), SerialSeconds, SerialNodes);

  std::printf("%-10s %-14s %-8s %-8s %-10s %s\n", "workers", "wall-seconds",
              "speedup", "steals", "restarts", "per-worker-expanded");
  std::vector<ScalingPoint> Points;
  for (unsigned Workers : {1u, 2u, 4u}) {
    FleetConfig FC;
    FC.WorkerBinary = WorkerBin;
    FC.Workers = Workers;
    FC.PolicyPath = PolicyPath;
    FleetCoordinator Fleet(Policy, FC);

    ScalingPoint P;
    P.Workers = static_cast<int>(Workers);
    P.PerWorkerExpanded.assign(Workers, 0);
    Stopwatch Watch;
    for (const Instance &Inst : Instances) {
      FleetJobReport Report;
      VerifyResult R = Fleet.verify(Suite.Net, *Inst.Prop, VC, nullptr,
                                    &Report);
      // A Timeout against a decided serial baseline is an identity miss
      // (dispatch overhead ate the budget), recorded honestly rather than
      // aborted on; contradicting decided verdicts abort the run.
      if (R.Result == Outcome::Timeout) {
        P.VerdictsIdentical = false;
        std::fprintf(stderr, "  (%u workers: %s timed out in the fleet but "
                             "decided serially)\n",
                     Workers, Inst.Prop->Name.c_str());
      } else {
        checkIdentical(*Inst.Prop, Inst.Serial, R);
      }
      P.NodesExpanded += R.Stats.NodesExpanded;
      P.Steals += Report.Steals;
      P.WorkerRestarts += Report.Restarts;
      for (size_t I = 0;
           I < Report.PerWorkerExpanded.size() && I < P.PerWorkerExpanded.size();
           ++I)
        P.PerWorkerExpanded[I] += Report.PerWorkerExpanded[I];
    }
    P.WallSeconds = Watch.seconds();
    P.Speedup = P.WallSeconds > 0.0 ? SerialSeconds / P.WallSeconds : 1.0;

    std::printf("%-10u %-14.3f %-8.2f %-8ld %-10ld [", Workers, P.WallSeconds,
                P.Speedup, P.Steals, P.WorkerRestarts);
    for (size_t I = 0; I < P.PerWorkerExpanded.size(); ++I)
      std::printf("%s%ld", I ? " " : "", P.PerWorkerExpanded[I]);
    std::printf("]%s\n", P.VerdictsIdentical ? "" : "  TIMEOUT-MISS");
    Points.push_back(std::move(P));
  }

  if (!writeScalingJsonFile(OutPath, "processes", Names, SerialSeconds,
                            SerialNodes, Points)) {
    std::fprintf(stderr, "failed to write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu points)\n", OutPath.c_str(), Points.size());
  std::printf("Verdicts are checked bit-for-bit against serial runs at every "
              "worker\ncount; on single-core hosts expect flat wall-clock and "
              "read the\nwork-distribution columns instead.\n");
  return 0;
}
