//===- Slate.cpp - The Sec. 7 property slate (Fig. 6 / cactus) -------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
//
// A seeded slate of brightening properties drawn from the seven evaluation
// networks, each decided once, serially, through Verifier::verify at a
// fixed budget with certificates on. PGD, the policy, zonotope analysis
// and search bookkeeping do the work; no executor, service or CEGAR code
// runs.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Workloads.h"

#include "support/Random.h"

#include <iostream>

using namespace perfbench;

namespace {

constexpr int SlatePerSuite = 20;
constexpr double SlateBudget = 0.5;

struct SlateOp {
  const BenchmarkSuite *Suite;
  const RobustnessProperty *Prop;
};

/// The Sec. 7 slate: the first SlatePerSuite properties of every network
/// (buildAllSuites at that size) in a seeded interleaved order. The
/// verifier keeps its default seed, so each property's work is pinned and
/// the run seed changes only the order.
std::vector<SlateOp> pickSlate(const NetworkSet &Nets, uint64_t Seed) {
  std::vector<SlateOp> Ops;
  for (const BenchmarkSuite &S : Nets.Suites)
    for (int I = 0; I < SlatePerSuite; ++I)
      Ops.push_back({&S, &S.Properties[size_t(I)]});
  std::vector<int> Order(Ops.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = int(I);
  Rng R(Seed * 0x2545f4914f6cdd1dull + 11);
  R.shuffle(Order);
  std::vector<SlateOp> Out;
  for (int I : Order)
    Out.push_back(Ops[size_t(I)]);
  return Out;
}

VerifierConfig slateConfig() {
  VerifierConfig VC;
  VC.TimeLimitSeconds = SlateBudget;
  VC.EmitCertificate = true;
  return VC;
}

struct PassResult {
  std::vector<VerifyResult> Results;
  std::vector<double> Seconds;
  std::vector<double> CpuSeconds; ///< process CPU time of each verify call
  double Wall = 0.0;
};

PassResult runPass(const std::vector<SlateOp> &Ops,
                   const VerificationPolicy &Policy, SpanLog *Log) {
  PassResult P;
  double Start = now();
  for (size_t I = 0; I < Ops.size(); ++I) {
    VerifierConfig VC = slateConfig();
    Span S;
    S.Name = "verify";
    S.Op = long(I);
    long Id = -1;
    if (Log) {
      Id = Log->add(S);
      VC.Trace = Log->sinkFor(Id, long(I));
    }
    double T0 = now();
    double C0 = processCpuSeconds();
    P.Results.push_back(
        Verifier(Ops[I].Suite->Net, Policy, VC).verify(*Ops[I].Prop));
    double T1 = now();
    P.Seconds.push_back(T1 - T0);
    P.CpuSeconds.push_back(processCpuSeconds() - C0);
    if (Log) {
      S.Start = T0;
      S.End = T1;
      Log->replace(Id, S);
    }
  }
  P.Wall = now() - Start;
  return P;
}

void gatePass(Options &Opt, const std::vector<SlateOp> &Ops, PassResult &P,
              Report &Rep, CertCost *Cost) {
  const ExpectedVerdicts &Expected = expectedVerdicts(Opt);
  for (size_t I = 0; I < Ops.size(); ++I) {
    applyTamper(Opt, P.Results[I]);
    gateVerdict(Ops[I].Suite->Net, *Ops[I].Prop, P.Results[I],
                slateConfig().Delta, Rep, &Expected, Cost);
  }
}

} // namespace

int perfbench::runSlate(Options &Opt, Report &Rep) {
  EndToEnd E;
  auto SetUp = [&] { return setupBase(Opt, Rep); };
  BaseSetup Base = repeatSetup(E.SetupSeconds, SetUp);
  VerificationPolicy Policy = pinnedPolicy();
  std::vector<SlateOp> Ops = pickSlate(Base.Nets, Opt.Seed);
  std::cout << "slate: " << Ops.size() << " properties at " << SlateBudget
            << " s each\n";

  if (!Opt.Trace) {
    double Start = now();
    std::vector<double> Walls, Solved, LatenciesMs, DecidedWallMs;
    do {
      PassResult P = runPass(Ops, Policy, nullptr);
      long Decided = 0;
      for (size_t I = 0; I < Ops.size(); ++I) {
        // Time to verdict in CPU time, as the paper reports it (Sec. 7.1),
        // over every property with a Timeout counted at the budget: the
        // rank of each percentile then does not move when a property near
        // the budget flips between decided and Timeout.
        bool Timeout = P.Results[I].Result == Outcome::Timeout;
        LatenciesMs.push_back(Timeout ? SlateBudget * 1e3
                                      : P.CpuSeconds[I] * 1e3);
        if (!Timeout) {
          ++Decided;
          DecidedWallMs.push_back(P.Seconds[I] * 1e3);
        }
      }
      Walls.push_back(P.Wall);
      Solved.push_back(double(Decided));
      gatePass(Opt, Ops, P, Rep, nullptr);
      if (now() - Start + P.Wall > Opt.Seconds)
        break;
    } while (true);
    E.WallSeconds = median(Walls);
    E.Solved = median(Solved);
    E.OpsPerSecond = E.Solved / E.WallSeconds;
    E.P50Ms = percentile(LatenciesMs, 50.0);
    // About a sixth of the slate times out, so p90 would read the budget.
    E.TailMs = percentile(LatenciesMs, 75.0);
    Rep.detail("slate.passes", double(Walls.size()), "count");
    Rep.detail("slate.ttv_p50_ms", percentile(DecidedWallMs, 50.0), "ms");
    Rep.detail("slate.ttv_p90_ms", percentile(DecidedWallMs, 90.0), "ms");
    Base = BaseSetup(); // release before the closing set-ups
    repeatSetup(E.SetupSeconds, SetUp);
    reportEndToEnd(E, Rep);
    return 0;
  }

  LayerReport L;
  L.NetworksSeconds = Base.NetworksSeconds;
  L.OnnxSeconds = Base.OnnxSeconds;
  L.UntracedWall = runPass(Ops, Policy, nullptr).Wall;
  SpanLog Log;
  PassResult P = runPass(Ops, Policy, &Log);
  L.TracedWall = P.Wall;
  gatePass(Opt, Ops, P, Rep, &L.Cert);
  std::vector<long> Replayed;
  for (size_t I = 0; I < Ops.size(); ++I) {
    const VerifyResult &R = P.Results[I];
    if (!R.Certificate)
      continue;
    Replayed.push_back(long(I));
    replayCertificate(Ops[I].Suite->Net, *Ops[I].Prop, slateConfig(),
                      *R.Certificate, Policy, Log, long(I), L.Layers, Rep);
  }
  L.Search = searchTotals(Log, "verify");
  L.ReplayedNodeSeconds = nodeSecondsOf(Log, Replayed);
  L.Spans = &Log;
  reportLayers(L, Opt.Seed, Rep);
  Log.write(Opt.DataDir + "/trace-slate-" + std::to_string(Opt.Seed) +
            ".jsonl");
  return 0;
}

int perfbench::writeExpected(Options &Opt, double Budget) {
  NetworkSet Nets = loadNetworks(Opt.DataDir);
  VerificationPolicy Policy = pinnedPolicy();
  VerifierConfig VC;
  VC.TimeLimitSeconds = Budget;
  for (const BenchmarkSuite &S : Nets.Suites)
    for (const RobustnessProperty &Prop : S.Properties) {
      double T0 = now();
      VerifyResult R = Verifier(S.Net, Policy, VC).verify(Prop);
      std::cout << Prop.Name << " "
                << (R.Result == Outcome::Verified    ? "verified"
                    : R.Result == Outcome::Falsified ? "falsified"
                                                     : "timeout")
                << " " << R.Stats.NodesExpanded << " " << now() - T0
                << std::endl;
    }
  return 0;
}
