//===- Digest.cpp - Content digests for properties and configs ---------------===//

#include "core/Digest.h"

#include "support/Fnv1a.h"

using namespace charon;

uint64_t charon::digestProperty(const RobustnessProperty &Prop) {
  Fnv1a H;
  H.u64(Prop.Region.dim());
  for (size_t I = 0, E = Prop.Region.dim(); I < E; ++I)
    H.f64(Prop.Region.lower()[I]).f64(Prop.Region.upper()[I]);
  H.u64(Prop.TargetClass);
  return H.digest();
}

uint64_t charon::digestVerifierConfigSemantics(const VerifierConfig &Config) {
  Fnv1a H;
  H.f64(Config.Delta);
  H.u64(Config.Pgd.Steps);
  H.u64(Config.Pgd.Restarts);
  H.f64(Config.Pgd.StepScale);
  H.u64(static_cast<uint64_t>(Config.Optimizer));
  H.u64(Config.UseCounterexampleSearch ? 1 : 0);
  H.u64(Config.Seed);
  H.u64(static_cast<uint64_t>(Config.SearchOrder));
  H.u64(Config.CompleteFallback ? 1 : 0);
  H.f64(Config.CompleteFallbackDiameter);
  // Kernel precision changes every abstract margin, so checkpoints and
  // certificates must never cross-validate between precisions. The SIMD
  // level is deliberately NOT digested: per-level accumulation differences
  // are tolerance-class noise, like thread-count nondeterminism isn't.
  H.u64(static_cast<uint64_t>(Config.Precision));
  // CEGAR changes which network the search runs on (and hence which
  // counterexample a falsifiable query returns), so the whole block is
  // semantic, not budget-like.
  H.u64(Config.Cegar.Enabled ? 1 : 0);
  H.f64(Config.Cegar.InitialMergeRatio);
  H.u64(static_cast<uint64_t>(Config.Cegar.MaxRounds));
  H.u64(static_cast<uint64_t>(Config.Cegar.RefinePerRound));
  return H.digest();
}

uint64_t charon::digestVerifierConfig(const VerifierConfig &Config) {
  Fnv1a H;
  H.u64(digestVerifierConfigSemantics(Config));
  H.f64(Config.TimeLimitSeconds);
  H.u64(static_cast<uint64_t>(Config.MaxDepth));
  return H.digest();
}
