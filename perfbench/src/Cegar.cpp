//===- Cegar.cpp - Abstract-first verification (VerifierConfig::Cegar) ----===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
//
// Seeded CEGAR runs (Elboher et al.'s neuron merging) over three instance
// kinds: redundant MLPs whose duplicated neurons merging collapses, dense
// random MLPs where a ball is falsifiable and abstraction is pure overhead,
// and pinned ACAS properties. Every verdict is checked against a direct
// (non-CEGAR) run of the same instance, outside the timed passes.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Workloads.h"

#include "nn/Builder.h"
#include "nn/Dense.h"
#include "nn/Relu.h"
#include "support/Random.h"

#include <algorithm>
#include <iostream>
#include <memory>

using namespace perfbench;

namespace {

constexpr int RedundantCount = 10;
constexpr int DenseCount = 10;
constexpr size_t Width = 256;
constexpr int HiddenLayers = 3;
constexpr double CegarBudget = 2.0;
/// ACAS properties of the pinned suite (makeAcasSuite(8, 321)), by index.
const size_t AcasPicks[] = {0, 1, 2, 3, 4, 5, 6, 7};

struct Instance {
  std::string Name;
  Network Net;
  RobustnessProperty Prop;
  double MergeRatio = 0.25;
  long OriginalNeurons = 0;
};

long hiddenNeurons(const Network &Net) {
  long N = 0;
  for (size_t I = 0; I < Net.numLayers(); ++I)
    if (Net.layer(I).isRelu())
      N += long(Net.layer(I).outputSize());
  return N;
}

/// A width-Width ReLU MLP whose hidden neurons are \p Factor-fold copies of
/// a seeded base net's (outgoing weights split evenly): the same function
/// as the base, and the regime neuron merging targets.
Network redundantMlp(Rng &R, int Factor) {
  size_t F = size_t(Factor);
  Network Base = makeMlp(Width, std::vector<size_t>(HiddenLayers, Width / F),
                         10, R);
  double Inv = 1.0 / double(Factor);
  Network Net;
  size_t DenseIndex = 0;
  for (size_t L = 0; L < Base.numLayers(); ++L) {
    const Layer &Lay = Base.layer(L);
    if (Lay.isRelu()) {
      Net.addLayer(std::make_unique<ReluLayer>(Lay.outputSize() * F));
      continue;
    }
    auto Affine = Lay.affineForm();
    const Matrix &W = *Affine->W;
    const Vector &B = *Affine->B;
    bool First = DenseIndex++ == 0;
    bool Last = L + 1 == Base.numLayers();
    size_t RowCopies = Last ? 1 : F, ColCopies = First ? 1 : F;
    Matrix WE(W.rows() * RowCopies, W.cols() * ColCopies);
    Vector BE(W.rows() * RowCopies);
    for (size_t P = 0; P < W.rows(); ++P) {
      for (size_t A = 0; A < RowCopies; ++A) {
        BE[P * RowCopies + A] = B[P];
        for (size_t Q = 0; Q < W.cols(); ++Q)
          for (size_t C = 0; C < ColCopies; ++C)
            WE(P * RowCopies + A, Q * ColCopies + C) =
                First ? W(P, Q) : W(P, Q) * Inv;
      }
    }
    Net.addLayer(std::make_unique<DenseLayer>(std::move(WE), std::move(BE)));
  }
  return Net;
}

RobustnessProperty ballAround(const Network &Net, Rng &R, double Radius,
                              const std::string &Name) {
  Vector Center(Width);
  for (size_t I = 0; I < Width; ++I)
    Center[I] = R.uniform(0.3, 0.7);
  RobustnessProperty P;
  P.Region = Box::linfBall(Center, Radius, 0.0, 1.0);
  P.TargetClass = Net.classify(Center);
  P.Name = Name;
  return P;
}

/// Instances are pinned by name and their own seed; the run seed only
/// rotates the order they run in.
std::vector<Instance> makeInstances(const NetworkSet &Nets, uint64_t Seed) {
  std::vector<Instance> Out;
  for (int I = 0; I < RedundantCount; ++I) {
    Rng R(17 + uint64_t(I));
    Instance X;
    X.Name = "cegar/redundant/" + std::to_string(I);
    X.Net = redundantMlp(R, 8);
    X.Prop = ballAround(X.Net, R, 0.002, X.Name);
    X.MergeRatio = 0.5;
    Out.push_back(std::move(X));
  }
  for (int I = 0; I < DenseCount; ++I) {
    Rng R(500 + uint64_t(I));
    Instance X;
    X.Name = "cegar/dense/" + std::to_string(I);
    X.Net = makeMlp(Width, std::vector<size_t>(HiddenLayers, Width), 10, R);
    X.Prop = ballAround(X.Net, R, 0.05, X.Name);
    Out.push_back(std::move(X));
  }
  for (size_t I : AcasPicks) {
    Instance X;
    X.Name = "cegar/acas/" + std::to_string(I);
    X.Net = Nets.Acas.Net.clone();
    X.Prop = Nets.Acas.Properties[I];
    X.Prop.Name = X.Name;
    Out.push_back(std::move(X));
  }
  for (Instance &X : Out)
    X.OriginalNeurons = hiddenNeurons(X.Net);
  std::rotate(Out.begin(), Out.begin() + long(Seed % Out.size()), Out.end());
  return Out;
}

/// One set-up: the networks and the instances built from them.
struct CegarSetup {
  BaseSetup Base;
  std::vector<Instance> Xs;
};

VerifierConfig cegarConfig(const Instance &X, bool Cegar) {
  VerifierConfig VC;
  VC.TimeLimitSeconds = CegarBudget;
  VC.EmitCertificate = true;
  VC.Cegar.Enabled = Cegar;
  VC.Cegar.InitialMergeRatio = X.MergeRatio;
  return VC;
}

struct PassResult {
  std::vector<VerifyResult> Results;
  std::vector<double> Seconds;
  std::vector<double> CpuSeconds; ///< process CPU time of each verify call
  double Wall = 0.0;
};

PassResult runPass(const std::vector<Instance> &Xs,
                   const VerificationPolicy &Policy, SpanLog *Log,
                   bool Cegar, long OpBase) {
  PassResult P;
  double Start = now();
  for (size_t I = 0; I < Xs.size(); ++I) {
    VerifierConfig VC = cegarConfig(Xs[I], Cegar);
    long Op = OpBase + long(I);
    Span S;
    S.Name = Cegar ? "verify.cegar" : "verify.direct";
    S.Op = Op;
    long Id = -1;
    if (Log) {
      Id = Log->add(S);
      VC.Trace = Log->sinkFor(Id, Op);
    }
    double T0 = now();
    double C0 = processCpuSeconds();
    P.Results.push_back(Verifier(Xs[I].Net, Policy, VC).verify(Xs[I].Prop));
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

/// Gates the CEGAR verdicts, and each against the direct run's: the two
/// may differ only inside the delta band (Verified vs. a Falsified witness
/// with objective in (0, delta]).
void gatePass(Options &Opt, const std::vector<Instance> &Xs, PassResult &P,
              const PassResult &Direct, Report &Rep, CertCost *Cost) {
  for (size_t I = 0; I < Xs.size(); ++I) {
    VerifyResult &R = P.Results[I];
    applyTamper(Opt, R);
    if (!gateVerdict(Xs[I].Net, Xs[I].Prop, R, cegarConfig(Xs[I], true).Delta,
                     Rep, nullptr, Cost))
      continue;
    const VerifyResult &D = Direct.Results[I];
    if (R.Result == Outcome::Timeout || D.Result == Outcome::Timeout ||
        R.Result == D.Result)
      continue;
    const VerifyResult &F = R.Result == Outcome::Falsified ? R : D;
    if (!(F.ObjectiveAtCex > 0.0))
      Rep.fail(Xs[I].Name + ": CEGAR says " + toString(R.Result) +
               ", direct search says " + toString(D.Result));
  }
}

} // namespace

int perfbench::runCegar(Options &Opt, Report &Rep) {
  EndToEnd E;
  auto SetUp = [&] {
    CegarSetup St;
    St.Base = setupBase(Opt, Rep);
    St.Xs = makeInstances(St.Base.Nets, Opt.Seed);
    return St;
  };
  CegarSetup St = repeatSetup(E.SetupSeconds, SetUp);
  const BaseSetup &Base = St.Base;
  const std::vector<Instance> &Xs = St.Xs;
  VerificationPolicy Policy = pinnedPolicy();
  std::cout << "cegar: " << Xs.size() << " instances (" << RedundantCount
            << " redundant, " << DenseCount << " dense, "
            << std::size(AcasPicks) << " ACAS), budget " << CegarBudget
            << " s\n";

  // Untimed: the direct verdicts every CEGAR verdict is checked against.
  SpanLog DirectLog;
  PassResult Direct =
      runPass(Xs, Policy, Opt.Trace ? &DirectLog : nullptr, false, 1000);
  for (size_t I = 0; I < Xs.size(); ++I)
    gateVerdict(Xs[I].Net, Xs[I].Prop, Direct.Results[I],
                cegarConfig(Xs[I], false).Delta, Rep);

  if (!Opt.Trace) {
    double Start = now();
    std::vector<double> Walls, Solved, LatenciesMs;
    do {
      PassResult P = runPass(Xs, Policy, nullptr, true, 0);
      double Decided = 0;
      for (size_t I = 0; I < Xs.size(); ++I)
        if (P.Results[I].Result != Outcome::Timeout) {
          ++Decided;
          LatenciesMs.push_back(P.CpuSeconds[I] * 1e3); // as the paper
        }
      Walls.push_back(P.Wall);
      Solved.push_back(Decided);
      gatePass(Opt, Xs, P, Direct, Rep, nullptr);
      if (now() - Start + P.Wall > Opt.Seconds)
        break;
    } while (true);
    E.WallSeconds = median(Walls);
    E.Solved = median(Solved);
    E.OpsPerSecond = E.Solved / E.WallSeconds;
    E.P50Ms = percentile(LatenciesMs, 50.0);
    E.TailMs = percentile(LatenciesMs, 90.0);
    Rep.detail("cegar.passes", double(Walls.size()), "count");
    Rep.detail("cegar.direct_wall_s", Direct.Wall, "s");
    St = CegarSetup(); // release before the closing set-ups
    repeatSetup(E.SetupSeconds, SetUp);
    reportEndToEnd(E, Rep);
    return 0;
  }

  LayerReport L;
  L.NetworksSeconds = Base.NetworksSeconds;
  L.OnnxSeconds = Base.OnnxSeconds;
  L.UntracedWall = runPass(Xs, Policy, nullptr, true, 0).Wall;
  SpanLog Log;
  PassResult P = runPass(Xs, Policy, &Log, true, 0);
  L.TracedWall = P.Wall;
  gatePass(Opt, Xs, P, Direct, Rep, &L.Cert);

  // The layer split replays the direct runs' certificates: CEGAR's own
  // Verified verdicts carry none.
  std::vector<long> Replayed;
  for (size_t I = 0; I < Xs.size(); ++I) {
    const VerifyResult &R = Direct.Results[I];
    if (!R.Certificate)
      continue;
    Replayed.push_back(1000 + long(I));
    replayCertificate(Xs[I].Net, Xs[I].Prop, cegarConfig(Xs[I], false),
                      *R.Certificate, Policy, DirectLog, 1000 + long(I),
                      L.Layers, Rep);
  }
  L.Search = searchTotals(Log, "verify.cegar");
  L.ReplayedNodeSeconds = nodeSecondsOf(DirectLog, Replayed);
  L.Spans = &Log;
  reportLayers(L, Opt.Seed, Rep);

  long Rounds = 0, Spurious = 0, Fallbacks = 0;
  double Share = 0.0;
  for (size_t I = 0; I < Xs.size(); ++I) {
    const VerifyStats &St = P.Results[I].Stats;
    Rounds += St.CegarRounds;
    Spurious += St.CegarSpuriousCexes;
    Fallbacks += St.CegarFallbacks;
    Share += double(St.CegarAbstractNeurons) / double(Xs[I].OriginalNeurons);
  }
  Rep.detail("cegar.rounds", double(Rounds), "count");
  Rep.detail("cegar.spurious", double(Spurious), "count");
  Rep.detail("cegar.fallbacks", double(Fallbacks), "count");
  Rep.detail("cegar.abstract_share", Share / double(Xs.size()), "ratio");
  Rep.detail("cegar.round_s", Log.RoundSeconds, "s");
  Rep.detail("cegar.round_events", double(Log.Rounds), "count");
  Log.write(Opt.DataDir + "/trace-cegar-" + std::to_string(Opt.Seed) +
            ".jsonl");
  DirectLog.write(Opt.DataDir + "/trace-cegar-direct-" +
                  std::to_string(Opt.Seed) + ".jsonl");
  return 0;
}
