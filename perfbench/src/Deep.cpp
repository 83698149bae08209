//===- Deep.cpp - Refinement-heavy properties under three executors -------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
//
// A fixed, named handful of refinement-heavy properties (tens to hundreds
// of proof-tree nodes each), decided under a generous budget three ways:
// serial Verifier::verify, Verifier::verifyParallel on one thread per core,
// and FleetCoordinator::verify with one worker process per core. Only here
// do the frontier scheduler, the thread pool and the process fleet do the
// work. Verdicts, counterexamples and objectives must be bit-identical
// across the three legs.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Workloads.h"

#include "fleet/FleetCoordinator.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>

using namespace perfbench;

namespace {

/// Pinned by name (never chosen by timing the build under test).
const char *const DeepInstances[] = {
    "mnist_6x100/p24", "mnist_6x100/p26", "mnist_9x200/p6",
    "cifar_6x100/p7",
};
constexpr size_t MaxDeepInstances = 8;
static_assert(std::size(DeepInstances) <= MaxDeepInstances);

VerifierConfig deepConfig() {
  VerifierConfig VC;
  VC.TimeLimitSeconds = 60.0;
  VC.EmitCertificate = true;
  return VC;
}

struct DeepOp {
  const BenchmarkSuite *Suite;
  const RobustnessProperty *Prop;
};

/// The pinned instances in a fixed order: the order decides which worker
/// first receives which network, and the fleet leg's time depends on it, so
/// the seed changes nothing here.
std::vector<DeepOp> deepOps(const NetworkSet &Nets) {
  std::vector<DeepOp> Ops;
  for (const char *Name : DeepInstances) {
    std::string Full(Name);
    const BenchmarkSuite &S = Nets.suite(Full.substr(0, Full.find('/')));
    for (const RobustnessProperty &P : S.Properties)
      if (P.Name == Full)
        Ops.push_back({&S, &P});
  }
  return Ops;
}

bool sameBits(double A, double B) { return std::memcmp(&A, &B, sizeof A) == 0; }

bool bitIdentical(const VerifyResult &A, const VerifyResult &B) {
  if (A.Result != B.Result || !sameBits(A.ObjectiveAtCex, B.ObjectiveAtCex) ||
      A.Counterexample.size() != B.Counterexample.size())
    return false;
  return A.Counterexample.size() == 0 ||
         std::memcmp(A.Counterexample.data(), B.Counterexample.data(),
                     A.Counterexample.size() * sizeof(double)) == 0;
}

enum Leg { Serial, Threads, Fleet, NumLegs };
const char *const LegNames[] = {"serial", "threads", "fleet"};

struct Executors {
  std::unique_ptr<ThreadPool> Pool;
  std::unique_ptr<FleetCoordinator> Fleet;
};

/// Threads of the thread leg and workers of the fleet leg: one core stays
/// for the fleet's coordinator loop, so threads in use never exceed nproc.
unsigned parallelWidth() { return std::max(1u, hostThreads() - 1); }

/// Starts the thread pool and constructs the fleet (its workers spawn on
/// first dispatch).
Executors startExecutors(const Options &Opt) {
  Executors X;
  unsigned N = parallelWidth();
  X.Pool = std::make_unique<ThreadPool>(N);
  FleetConfig FC;
  FC.WorkerBinary = Opt.WorkerBinary;
  FC.Workers = N;
  X.Fleet = std::make_unique<FleetCoordinator>(pinnedPolicy(), FC);
  return X;
}

/// One concurrent point-region job per worker seat, so every worker is
/// spawned and holds a network before the timed passes. Returns seconds
/// (fleet.spawn_s).
double spawnWorkers(Executors &X, const std::vector<DeepOp> &Ops) {
  double Start = now();
  std::vector<std::thread> Warm;
  for (unsigned W = 0; W < X.Fleet->workers(); ++W)
    Warm.emplace_back([&, W] {
      const DeepOp &Op = Ops[W % Ops.size()];
      Vector C = Op.Prop->Region.center();
      RobustnessProperty Point{Box(C, C), Op.Prop->TargetClass, "warmup"};
      (void)X.Fleet->verify(Op.Suite->Net, Point, deepConfig());
    });
  for (std::thread &T : Warm)
    T.join();
  return now() - Start;
}

/// One set-up: the networks, the pinned instances (pointing into them)
/// and the executors.
struct DeepSetup {
  BaseSetup Base;
  std::vector<DeepOp> Ops;
  Executors X;
};

struct FleetTotals {
  long Shards = 0, Steals = 0, Restarts = 0, Inline = 0;
  std::vector<long> PerWorker;
};

struct PassResult {
  VerifyResult Results[NumLegs][MaxDeepInstances];
  double Seconds[NumLegs][MaxDeepInstances] = {};
  double SerialCpu[MaxDeepInstances] = {}; ///< process CPU s, serial leg
  double LegWall[NumLegs] = {};
  double Wall = 0.0;
};

PassResult runPass(const std::vector<DeepOp> &Ops, Executors &X,
                   const VerificationPolicy &Policy, SpanLog *Log,
                   SpanLog *ThreadLog, FleetTotals &FT) {
  PassResult P;
  double PassStart = now();
  for (int L = 0; L < NumLegs; ++L) {
    double LegStart = now();
    for (size_t I = 0; I < Ops.size(); ++I) {
      VerifierConfig VC = deepConfig();
      SpanLog *Sink = L == Serial ? Log : L == Threads ? ThreadLog : nullptr;
      long Op = long(L * 100 + int(I));
      Span S;
      S.Name = std::string("verify.") + LegNames[L];
      S.Op = Op;
      long Id = -1;
      if (Log) {
        Id = Log->add(S);
        if (Sink)
          VC.Trace = Sink->sinkFor(Id, Op);
      }
      const Network &Net = Ops[I].Suite->Net;
      const RobustnessProperty &Prop = *Ops[I].Prop;
      FleetJobReport FR;
      double T0 = now();
      double C0 = processCpuSeconds();
      if (L == Serial)
        P.Results[L][I] = Verifier(Net, Policy, VC).verify(Prop);
      else if (L == Threads)
        P.Results[L][I] =
            Verifier(Net, Policy, VC).verifyParallel(Prop, *X.Pool);
      else
        P.Results[L][I] = X.Fleet->verify(Net, Prop, VC, nullptr, &FR);
      double T1 = now();
      P.Seconds[L][I] = T1 - T0;
      if (L == Serial)
        P.SerialCpu[I] = processCpuSeconds() - C0;
      if (L == Fleet) {
        FT.Shards += FR.Shards;
        FT.Steals += FR.Steals;
        FT.Restarts += FR.Restarts;
        FT.Inline += FR.Inline;
        FT.PerWorker.resize(
            std::max(FT.PerWorker.size(), FR.PerWorkerExpanded.size()));
        for (size_t W = 0; W < FR.PerWorkerExpanded.size(); ++W)
          FT.PerWorker[W] += FR.PerWorkerExpanded[W];
      }
      if (Log) {
        S.Start = T0;
        S.End = T1;
        Log->replace(Id, S);
      }
    }
    P.LegWall[L] = now() - LegStart;
  }
  P.Wall = now() - PassStart;
  return P;
}

void gatePass(Options &Opt, const std::vector<DeepOp> &Ops, PassResult &P,
              Report &Rep, CertCost *Cost) {
  const ExpectedVerdicts &Expected = expectedVerdicts(Opt);
  for (int L = 0; L < NumLegs; ++L)
    for (size_t I = 0; I < Ops.size(); ++I) {
      VerifyResult &R = P.Results[L][I];
      applyTamper(Opt, R);
      if (!gateVerdict(Ops[I].Suite->Net, *Ops[I].Prop, R,
                       deepConfig().Delta, Rep, &Expected,
                       L == Serial ? Cost : nullptr))
        continue;
      if (R.Result == Outcome::Timeout)
        Rep.fail(Ops[I].Prop->Name + ": " + LegNames[L] +
                 " leg timed out under the generous budget");
      else if (L != Serial && !bitIdentical(R, P.Results[Serial][I]))
        Rep.fail(Ops[I].Prop->Name + ": " + LegNames[L] +
                 " verdict is not bit-identical to serial");
    }
}

double imbalance(const std::vector<long> &Counts) {
  if (Counts.empty())
    return 0.0;
  double Sum = 0.0, Max = 0.0;
  for (long C : Counts) {
    Sum += double(C);
    Max = std::max(Max, double(C));
  }
  return Sum > 0 ? Max / (Sum / double(Counts.size())) : 0.0;
}

} // namespace

int perfbench::runDeep(Options &Opt, Report &Rep) {
  EndToEnd E;
  auto SetUp = [&] {
    DeepSetup St;
    St.Base = setupBase(Opt, Rep);
    St.Ops = deepOps(St.Base.Nets);
    St.X = startExecutors(Opt);
    return St;
  };
  DeepSetup St = repeatSetup(E.SetupSeconds, SetUp);
  BaseSetup &Base = St.Base;
  Executors &X = St.X;
  const std::vector<DeepOp> &Ops = St.Ops;
  VerificationPolicy Policy = pinnedPolicy();
  std::cout << "deep: " << Ops.size() << " instances x " << NumLegs
            << " executors, " << parallelWidth() << " threads / workers\n";
  // Outside setup_s: spawning the workers and shipping them networks costs
  // seconds and varies from run to run; it is reported on its own.
  double SpawnSeconds = spawnWorkers(X, Ops);

  FleetTotals FT;
  if (!Opt.Trace) {
    // The first pass ships networks to the workers and warms the pool; it
    // is gated but not timed.
    PassResult Warm = runPass(Ops, X, Policy, nullptr, nullptr, FT);
    gatePass(Opt, Ops, Warm, Rep, nullptr);
    double Start = now();
    std::vector<double> Walls, Legs[NumLegs], Solved;
    std::vector<double> OpMs[NumLegs][MaxDeepInstances];
    std::vector<double> CpuMs[MaxDeepInstances];
    do {
      PassResult P = runPass(Ops, X, Policy, nullptr, nullptr, FT);
      double Decided = 0;
      std::cout << "deep pass:";
      for (int L = 0; L < NumLegs; ++L) {
        Legs[L].push_back(P.LegWall[L]);
        std::cout << " " << LegNames[L] << " " << P.LegWall[L] << " s";
        for (size_t I = 0; I < Ops.size(); ++I)
          if (P.Results[L][I].Result != Outcome::Timeout) {
            ++Decided;
            OpMs[L][I].push_back(P.Seconds[L][I] * 1e3);
            if (L == Serial)
              CpuMs[I].push_back(P.SerialCpu[I] * 1e3);
          }
      }
      std::cout << "\n";
      Walls.push_back(P.Wall);
      Solved.push_back(Decided);
      gatePass(Opt, Ops, P, Rep, nullptr);
      if (Walls.size() >= 2 && now() - Start + P.Wall > Opt.Seconds)
        break;
    } while (true);
    X = Executors(); // reap the workers so their peak RSS is counted
    // The bounded metrics follow the serial leg in CPU time (median over
    // the passes): the threads and fleet legs keep every core busy, and on
    // a host whose steal time comes and goes their wall times moved by
    // 30-40% between identical runs, median or best pass alike. Their
    // times are printed per leg below (best pass and median pass) with no
    // bound. Four instances are too few for a percentile with ten samples
    // beyond it, so the tail is the slowest instance.
    std::vector<double> InstanceMs;
    double SerialCpuSum = 0.0;
    for (size_t I = 0; I < Ops.size(); ++I)
      if (!CpuMs[I].empty()) {
        InstanceMs.push_back(median(CpuMs[I]));
        SerialCpuSum += median(CpuMs[I]) / 1e3;
      }
    E.WallSeconds = SerialCpuSum;
    E.P50Ms = percentile(InstanceMs, 50.0);
    E.TailMs = percentile(InstanceMs, 100.0);
    E.Solved = median(Solved);
    E.OpsPerSecond = double(InstanceMs.size()) / SerialCpuSum;
    for (int L = 0; L < NumLegs; ++L) {
      double Best = 0.0;
      for (size_t I = 0; I < Ops.size(); ++I)
        if (!OpMs[L][I].empty())
          Best += *std::min_element(OpMs[L][I].begin(), OpMs[L][I].end()) /
                  1e3;
      Rep.detail(std::string("deep.") + LegNames[L] + "_s", Best, "s");
      Rep.detail(std::string("deep.") + LegNames[L] + "_median_pass_s",
                 median(Legs[L]), "s");
    }
    Rep.detail("deep.passes", double(Walls.size()), "count");
    Rep.detail("fleet.spawn_s", SpawnSeconds, "s");
    St = DeepSetup(); // release before the closing set-ups
    repeatSetup(E.SetupSeconds, SetUp);
    reportEndToEnd(E, Rep);
    return 0;
  }

  LayerReport L;
  L.NetworksSeconds = Base.NetworksSeconds;
  L.OnnxSeconds = Base.OnnxSeconds;
  // The first pass ships networks to the workers and warms the pool, so
  // the overhead compares the second (untraced) pass with the traced one,
  // on the two legs the sink can reach (the fleet runs jobs with a sink
  // inline, so its leg stays untraced).
  (void)runPass(Ops, X, Policy, nullptr, nullptr, FT);
  PassResult Plain = runPass(Ops, X, Policy, nullptr, nullptr, FT);
  L.UntracedWall = Plain.LegWall[Serial] + Plain.LegWall[Threads];
  SpanLog Log, ThreadLog;
  FT = FleetTotals();
  PassResult P = runPass(Ops, X, Policy, &Log, &ThreadLog, FT);
  L.TracedWall = P.LegWall[Serial] + P.LegWall[Threads];
  X = Executors();
  gatePass(Opt, Ops, P, Rep, &L.Cert);
  std::vector<long> Replayed;
  for (size_t I = 0; I < Ops.size(); ++I) {
    const VerifyResult &R = P.Results[Serial][I];
    if (!R.Certificate)
      continue;
    Replayed.push_back(long(I));
    replayCertificate(Ops[I].Suite->Net, *Ops[I].Prop, deepConfig(),
                      *R.Certificate, Policy, Log, long(I), L.Layers, Rep);
  }
  L.Search = searchTotals(Log, "verify.serial");
  L.ReplayedNodeSeconds = nodeSecondsOf(Log, Replayed);
  L.Spans = &Log;
  reportLayers(L, Opt.Seed, Rep);

  std::vector<long> PerThread;
  for (const auto &[Thread, Nodes] : ThreadLog.nodesPerThread())
    PerThread.push_back(Nodes);
  Rep.detail("threads.imbalance", imbalance(PerThread), "ratio");
  for (int Leg = 0; Leg < NumLegs; ++Leg)
    Rep.detail(std::string("deep.") + LegNames[Leg] + "_s", P.LegWall[Leg],
               "s");
  Rep.detail("fleet.spawn_s", SpawnSeconds, "s");
  Rep.detail("fleet.shards", double(FT.Shards), "count");
  Rep.detail("fleet.steals", double(FT.Steals), "count");
  Rep.detail("fleet.restarts", double(FT.Restarts), "count");
  Rep.detail("fleet.inline", double(FT.Inline), "count");
  Rep.detail("fleet.imbalance", imbalance(FT.PerWorker), "ratio");
  Log.write(Opt.DataDir + "/trace-deep-" + std::to_string(Opt.Seed) +
            ".jsonl");
  return 0;
}
