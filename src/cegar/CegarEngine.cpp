//===- CegarEngine.cpp - Abstraction-refinement verification driver -----------===//

#include "cegar/CegarEngine.h"

#include "cegar/Abstractor.h"
#include "cert/Certificate.h"
#include "opt/Pgd.h"
#include "search/SearchEngine.h"
#include "support/Random.h"
#include "support/Timer.h"

using namespace charon;

namespace {

/// Total hidden (post-ReLU) neurons of a network, for size reporting.
long hiddenNeurons(const Network &Net) {
  long N = 0;
  for (size_t I = 0; I < Net.numLayers(); ++I)
    if (Net.layer(I).isRelu())
      N += static_cast<long>(Net.layer(I).outputSize());
  return N;
}

void emitRound(const TraceSink &Trace, int Round, long AbstractNeurons,
               long OriginalNeurons, long Spurious, const char *Outcome,
               double Seconds) {
  if (!Trace)
    return;
  TraceEvent E;
  E.Kind = "cegar_round";
  E.Round = Round;
  E.AbstractNeurons = AbstractNeurons;
  E.OriginalNeurons = OriginalNeurons;
  E.SpuriousCexes = Spurious;
  E.Outcome = Outcome;
  E.Seconds = Seconds;
  Trace(E);
}

} // namespace

CegarEngine::CegarEngine(const Network &N, const VerificationPolicy &P,
                         const VerifierConfig &C)
    : Net(N), Policy(P), Config(C) {}

VerifyResult CegarEngine::run(const RobustnessProperty &Prop,
                              ThreadPool *Pool) const {
  Stopwatch Watch;
  // TimeLimitSeconds <= 0 is unlimited, which is also what a 0 handed to an
  // inner search means: an exhausted budget ends the run as Timeout instead.
  const bool Limited = Config.TimeLimitSeconds > 0.0;
  Deadline Budget(Limited ? Config.TimeLimitSeconds : -1.0);

  VerifyStats Acc;
  long OriginalNeurons = hiddenNeurons(Net);

  // Inner searches never recurse into CEGAR. The complete fallback is
  // withheld from abstract rounds — it would decide the *abstract* network
  // exactly, wasting a solver call on a question we only need one side of —
  // and restored for the direct phase.
  VerifierConfig Abstract = Config;
  Abstract.Cegar.Enabled = false;
  Abstract.CompleteFallback = nullptr;
  // An abstract-net proof tree is no certificate for the original query
  // (wrong network fingerprint, wrong property); falsifications instead
  // certify below via the concretely replayed witness, and the direct
  // fallback inherits EmitCertificate untouched.
  Abstract.EmitCertificate = false;
  VerifierConfig Direct = Config;
  Direct.Cegar.Enabled = false;

  auto Finish = [&](VerifyResult R) {
    R.Stats.Seconds = Watch.seconds();
    return R;
  };
  auto TimedOut = [&]() {
    VerifyResult R;
    R.Result = Outcome::Timeout;
    R.Stats = Acc;
    return Finish(std::move(R));
  };

  auto RunDirect = [&]() {
    ++Acc.CegarFallbacks;
    double Remaining = Budget.remaining();
    if (Remaining == 0.0)
      return TimedOut();
    Direct.TimeLimitSeconds = Limited ? Remaining : -1.0;
    VerifyResult R = SearchEngine(Net, Policy, Direct).run(Prop, nullptr,
                                                           Pool);
    VerifyStats Inner = R.Stats;
    Acc += Inner;
    R.Stats = Acc;
    return Finish(std::move(R));
  };

  RefinementMap Map =
      canAbstract(Net)
          ? initialPartition(Net, Prop.TargetClass,
                             Config.Cegar.InitialMergeRatio)
          : RefinementMap();
  if (Map.Layers.empty())
    return RunDirect();

  RobustnessProperty AbsProp;
  AbsProp.Region = Prop.Region;
  AbsProp.TargetClass = 0; // the margin network's constant-zero output
  AbsProp.Name = Prop.Name;

  for (int Round = 0; Round < Config.Cegar.MaxRounds; ++Round) {
    if (Budget.expired() ||
        (Config.CancelRequested && Config.CancelRequested()))
      return TimedOut();

    Stopwatch RoundWatch;
    Network AbsNet =
        buildAbstractNetwork(Net, Map, Prop.Region.lower());
    long AbsNeurons = static_cast<long>(Map.abstractNeurons());
    if (AbsNeurons > Acc.CegarAbstractNeurons)
      Acc.CegarAbstractNeurons = AbsNeurons;

    // Abstract rounds get at most half of what remains: an abstraction the
    // search cannot decide quickly is not helping, and the direct fallback
    // must always inherit a real share of the budget rather than a
    // burned-out clock. Unlimited budgets pass through unchanged.
    double Remaining = Budget.remaining();
    if (Remaining == 0.0)
      return TimedOut();
    Abstract.TimeLimitSeconds = Limited ? Remaining * 0.5 : -1.0;
    VerifyResult R =
        SearchEngine(AbsNet, Policy, Abstract).run(AbsProp, nullptr, Pool);
    Acc += R.Stats;
    ++Acc.CegarRounds;

    if (R.Result == Outcome::Verified) {
      // Soundness: the abstraction over-approximates every competitor
      // margin, so robustness of the abstract net implies robustness of
      // the original. No certificate is emitted here even on request: the
      // proof evidence is the abstract net's tree, which a standalone
      // checker cannot bind to the original network.
      emitRound(Config.Trace, Round, AbsNeurons, OriginalNeurons,
                Acc.CegarSpuriousCexes, "verified", RoundWatch.seconds());
      VerifyResult Out;
      Out.Result = Outcome::Verified;
      Out.Stats = Acc;
      return Finish(std::move(Out));
    }
    if (R.Result == Outcome::Timeout) {
      // The search could not decide even the *smaller* net within its
      // slice, so further rounds are hopeless: spend what is left of the
      // budget on the original network instead. The abstract frontier is
      // dropped (it cannot resume a search over the original network);
      // any timeout checkpoint now comes from the direct fallback.
      emitRound(Config.Trace, Round, AbsNeurons, OriginalNeurons,
                Acc.CegarSpuriousCexes, "timeout", RoundWatch.seconds());
      return RunDirect();
    }

    // Candidate counterexample: replay through the original network with
    // the batched concrete engine (bit-identical to the scalar path).
    Matrix X(1, R.Counterexample.size());
    for (size_t I = 0; I < R.Counterexample.size(); ++I)
      X(0, I) = R.Counterexample[I];
    double FOrig = Net.objectiveBatch(X, Prop.TargetClass)[0];
    if (FOrig <= Config.Delta) {
      emitRound(Config.Trace, Round, AbsNeurons, OriginalNeurons,
                Acc.CegarSpuriousCexes, "falsified", RoundWatch.seconds());
      VerifyResult Out;
      Out.Result = Outcome::Falsified;
      Out.Counterexample = R.Counterexample;
      Out.ObjectiveAtCex = FOrig;
      Out.Stats = Acc;
      if (Config.EmitCertificate)
        Out.Certificate = std::make_shared<ProofCertificate>(
            buildFalsifiedCertificate(Net, Prop, Config, Out.Counterexample,
                                      Out.ObjectiveAtCex));
      return Finish(std::move(Out));
    }

    // Spurious under direct replay — but the abstract minimizer is often a
    // good starting basin for the original objective (the synergy the paper
    // is built on). One warm-started concrete PGD polish costs a single
    // optimizer call and frequently lands the real counterexample without
    // burning refinement rounds on a falsifiable property.
    {
      PgdConfig Polish = Config.Pgd;
      Polish.EarlyStopObjective = Config.Delta;
      Rng PolishR(Config.Seed + 0x9e3779b97f4a7c15ull *
                                    static_cast<uint64_t>(Round + 1));
      PgdResult P = pgdMinimize(Net, Prop.Region, Prop.TargetClass, Polish,
                                PolishR, &R.Counterexample);
      ++Acc.PgdCalls;
      if (P.Objective <= Config.Delta) {
        emitRound(Config.Trace, Round, AbsNeurons, OriginalNeurons,
                  Acc.CegarSpuriousCexes, "falsified", RoundWatch.seconds());
        VerifyResult Out;
        Out.Result = Outcome::Falsified;
        Out.Counterexample = P.X;
        Out.ObjectiveAtCex = P.Objective;
        Out.Stats = Acc;
        if (Config.EmitCertificate)
          Out.Certificate = std::make_shared<ProofCertificate>(
              buildFalsifiedCertificate(Net, Prop, Config, Out.Counterexample,
                                        Out.ObjectiveAtCex));
        return Finish(std::move(Out));
      }
    }

    ++Acc.CegarSpuriousCexes;
    emitRound(Config.Trace, Round, AbsNeurons, OriginalNeurons,
              Acc.CegarSpuriousCexes, "spurious", RoundWatch.seconds());
    int Splits = refinePartition(Map, Net, AbsNet, R.Counterexample,
                                 Config.Cegar.RefinePerRound);
    if (Splits == 0)
      break; // Already the exact margin network; nothing left to refine.
  }

  return RunDirect();
}
