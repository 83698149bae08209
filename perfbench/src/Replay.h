//===- Replay.h - Per-layer split of recorded proof searches ------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's layer split. Every expanded node of a proof
/// certificate is replayed through the public layer calls the engine makes
/// for it — pgdMinimize with the node's path seed and its parent's witness,
/// VerificationPolicy::chooseDomain, analyzeRobustness under the chosen
/// domain, VerificationPolicy::choosePartition — each timed as a span.
/// Each replayed node is a gated operation: an outcome that differs from
/// the certificate's fails the run, since the split would then no longer
/// describe the procedure the engine runs. Verified leaves are then
/// re-analysed under every domain to guard the domain kernels the default
/// policy never picks.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Common.h"

#include "cert/Certificate.h"

namespace perfbench {

/// Layer counters and seconds accumulated over replayed certificates.
struct LayerTotals {
  long PgdCalls = 0;
  long PgdFalsified = 0;
  long PolicyCalls = 0;
  long AnalyzeCalls = 0;
  long AnalyzeVerified = 0;
  double PgdSeconds = 0.0;
  double PolicySeconds = 0.0;
  double AnalyzeSeconds = 0.0;
  std::map<std::string, long> DomainCalls;
  /// Verified leaves recorded for the domain replay.
  struct Leaf {
    const Network *Net;
    Box Region;
    size_t K;
  };
  std::vector<Leaf> Leaves;

  double layerSeconds() const {
    return PgdSeconds + PolicySeconds + AnalyzeSeconds;
  }
};

/// Replays every expanded node of \p Cert as spans of operation \p Op,
/// gating each node's outcome against the certificate in \p Rep.
void replayCertificate(const Network &Net, const RobustnessProperty &Prop,
                       const VerifierConfig &Config,
                       const ProofCertificate &Cert,
                       const VerificationPolicy &Policy, SpanLog &Log,
                       long Op, LayerTotals &Totals, Report &Rep);

/// Re-analyses up to \p MaxLeaves recorded leaves (a seeded sample) under
/// each domain and prints/returns abstract.replay_s.<domain>.
void replayDomains(const LayerTotals &Totals, size_t MaxLeaves, uint64_t Seed,
                   Report &Rep);

/// Prints the per-layer metrics every workload reports in its traced run.
struct LayerReport {
  SearchTotals Search;
  /// Node seconds of the operations whose certificates were replayed (the
  /// denominator of trace.coverage).
  double ReplayedNodeSeconds = 0.0;
  LayerTotals Layers;
  CertCost Cert;
  double NetworksSeconds = 0.0;
  double OnnxSeconds = 0.0;
  double UntracedWall = 0.0;
  double TracedWall = 0.0;
  /// The traced pass's spans; each span name's count and self time is
  /// printed as detail.
  const SpanLog *Spans = nullptr;
};
void reportLayers(const LayerReport &L, uint64_t Seed, Report &Rep);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
