//===- Replay.cpp - Per-layer split of recorded proof searches ------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "abstract/Analyzer.h"
#include "opt/Pgd.h"
#include "search/ProofTree.h"
#include "support/Random.h"

#include <algorithm>
#include <iostream>
#include <numeric>

using namespace perfbench;

namespace {

std::string domainKey(const DomainSpec &Spec) {
  std::string Base = Spec.Base == BaseDomainKind::Interval ? "interval"
                     : Spec.Base == BaseDomainKind::Zonotope
                         ? "zonotope"
                     : Spec.Base == BaseDomainKind::SymbolicInterval
                         ? "symbolic_interval"
                         : "polyhedra";
  return Spec.Disjuncts > 1 ? Base + "_p" + std::to_string(Spec.Disjuncts)
                            : Base;
}

bool sameVector(const Vector &A, const Vector &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I] != B[I])
      return false;
  return true;
}

/// Times \p Fn as a top-level span named \p Name: the replay runs after
/// the verify call it explains has ended.
template <typename F>
double timed(SpanLog &Log, const char *Name, long Op, F &&Fn) {
  Span S;
  S.Name = Name;
  S.Op = Op;
  S.Start = now();
  Fn();
  S.End = now();
  Log.add(S);
  return S.End - S.Start;
}

} // namespace

void perfbench::replayCertificate(const Network &Net,
                                  const RobustnessProperty &Prop,
                                  const VerifierConfig &Config,
                                  const ProofCertificate &Cert,
                                  const VerificationPolicy &Policy,
                                  SpanLog &Log, long Op, LayerTotals &T,
                                  Report &Rep) {
  // Parents before children: the child's warm start is its parent's
  // witness, exactly as the engine hands it down.
  std::vector<size_t> Order(Cert.Nodes.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Cert.Nodes[A].Path.size() < Cert.Nodes[B].Path.size();
  });
  std::map<std::vector<uint8_t>, Vector> Witness;
  size_t K = Prop.TargetClass;
  // Each replayed node is gated: it must reach the recorded outcome with
  // the recorded justification (counterexample and objective, domain and
  // margin, or split dimension), bit for bit.
  auto Expect = [&](const CertNode &Node, CertNodeKind Got, bool Same) {
    Rep.attempt();
    if (Node.Kind == Got && Same)
      return;
    std::string Path;
    for (uint8_t Bit : Node.Path)
      Path += char('0' + Bit);
    Rep.fail(Prop.Name + ": replayed node [" + Path + "] is " +
             toString(Got) +
             (Node.Kind == Got ? " on other evidence" : "") +
             ", the certificate says " + toString(Node.Kind));
  };
  for (size_t Idx : Order) {
    const CertNode &Node = Cert.Nodes[Idx];
    if (Node.Kind == CertNodeKind::Pruned)
      continue;
    uint64_t Seed = ProofTree::rootSeed(Config.Seed);
    for (uint8_t Bit : Node.Path)
      Seed = ProofTree::childSeed(Seed, Bit);
    const Vector *Warm = nullptr;
    if (!Node.Path.empty()) {
      auto It = Witness.find(
          std::vector<uint8_t>(Node.Path.begin(), Node.Path.end() - 1));
      if (It != Witness.end())
        Warm = &It->second;
    }

    Rng R(Seed);
    PgdConfig Search = Config.Pgd;
    Search.EarlyStopObjective = Config.Delta;
    PgdResult P;
    ++T.PgdCalls;
    T.PgdSeconds += timed(Log, "pgdMinimize", Op, [&] {
      P = pgdMinimize(Net, Node.Region, K, Search, R, Warm);
    });
    if (P.Objective <= Config.Delta) {
      ++T.PgdFalsified;
      Expect(Node, CertNodeKind::Falsified,
             P.Objective == Node.CexObjective && sameVector(P.X, Node.Cex));
      continue;
    }

    RobustnessProperty Sub{Node.Region, K, Prop.Name};
    DomainSpec Spec;
    ++T.PolicyCalls;
    T.PolicySeconds += timed(Log, "chooseDomain", Op, [&] {
      Spec = Policy.chooseDomain(Net, Sub, P.X, P.Objective);
    });
    ++T.DomainCalls[domainKey(Spec)];
    AnalysisResult A;
    ++T.AnalyzeCalls;
    T.AnalyzeSeconds += timed(Log, "analyzeRobustness", Op, [&] {
      A = analyzeRobustness(Net, Node.Region, K, Spec, nullptr,
                            Config.Precision);
    });
    if (A.Verified) {
      ++T.AnalyzeVerified;
      Expect(Node, CertNodeKind::Verified,
             Spec == Node.Domain && A.Margin == Node.Margin);
      T.Leaves.push_back({&Net, Node.Region, K});
      continue;
    }
    ++T.PolicyCalls;
    SplitChoice Split;
    T.PolicySeconds += timed(Log, "choosePartition", Op, [&] {
      Split = Policy.choosePartition(Net, Sub, P.X, P.Objective);
    });
    Expect(Node, CertNodeKind::Split, Split.Dim == Node.SplitDim);
    Witness.emplace(Node.Path, std::move(P.X));
  }
}

void perfbench::replayDomains(const LayerTotals &T, size_t MaxLeaves,
                              uint64_t Seed, Report &Rep) {
  std::vector<int> Pick(T.Leaves.size());
  std::iota(Pick.begin(), Pick.end(), 0);
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 3);
  R.shuffle(Pick);
  if (Pick.size() > MaxLeaves)
    Pick.resize(MaxLeaves);
  const std::pair<const char *, DomainSpec> Domains[] = {
      {"interval", {BaseDomainKind::Interval, 1}},
      {"zonotope", {BaseDomainKind::Zonotope, 1}},
      {"zonotope_p4", {BaseDomainKind::Zonotope, 4}},
      {"symbolic_interval", {BaseDomainKind::SymbolicInterval, 1}},
      {"polyhedra", {BaseDomainKind::Polyhedra, 1}},
  };
  for (const auto &[Name, Spec] : Domains) {
    double Start = now();
    for (int I : Pick) {
      const LayerTotals::Leaf &L = T.Leaves[size_t(I)];
      (void)analyzeRobustness(*L.Net, L.Region, L.K, Spec);
    }
    Rep.metric(std::string("abstract.replay_s.") + Name, now() - Start, "s");
  }
  Rep.detail("abstract.replay_leaves", double(Pick.size()), "count");
}

void perfbench::reportLayers(const LayerReport &L, uint64_t Seed,
                             Report &Rep) {
  const SearchTotals &S = L.Search;
  const LayerTotals &T = L.Layers;
  Rep.metric("search.nodes", double(S.Nodes), "count");
  Rep.metric("search.splits", double(S.Splits), "count");
  Rep.metric("search.node_s", S.NodeSeconds, "s");
  Rep.metric("search.self_s", std::max(0.0, S.VerifySeconds - S.NodeSeconds),
             "s");
  Rep.metric("opt.pgd_calls", double(T.PgdCalls), "count");
  Rep.metric("opt.pgd_s", T.PgdSeconds, "s");
  Rep.metric("opt.falsify_yield",
             T.PgdCalls ? double(T.PgdFalsified) / double(T.PgdCalls) : 0.0,
             "ratio");
  Rep.metric("core.policy_calls", double(T.PolicyCalls), "count");
  Rep.metric("core.policy_s", T.PolicySeconds, "s");
  for (const auto &[Domain, Calls] : T.DomainCalls)
    Rep.detail("core.domain_calls." + Domain, double(Calls), "count");
  Rep.metric("abstract.analyze_calls", double(T.AnalyzeCalls), "count");
  Rep.metric("abstract.analyze_s", T.AnalyzeSeconds, "s");
  Rep.metric("abstract.verify_yield",
             T.AnalyzeCalls ? double(T.AnalyzeVerified) / double(T.AnalyzeCalls)
                            : 0.0,
             "ratio");
  replayDomains(T, 24, Seed, Rep);
  Rep.metric("cert.check_s", L.Cert.Seconds, "s");
  Rep.metric("cert.bytes", L.Cert.Bytes, "bytes");
  Rep.metric("setup.networks_s", L.NetworksSeconds, "s");
  Rep.metric("setup.onnx_import_s", L.OnnxSeconds, "s");
  Rep.metric("trace.coverage",
             L.ReplayedNodeSeconds > 0
                 ? T.layerSeconds() / L.ReplayedNodeSeconds
                 : 0.0,
             "ratio");
  Rep.metric("trace.overhead_share",
             L.UntracedWall > 0 ? L.TracedWall / L.UntracedWall - 1.0 : 0.0,
             "ratio");
  if (L.Spans)
    for (const auto &[Name, N] : L.Spans->totals()) {
      Rep.detail("span." + Name + ".count", double(N.Count), "count");
      Rep.detail("span." + Name + ".self_s", N.SelfSeconds, "s");
    }
}
