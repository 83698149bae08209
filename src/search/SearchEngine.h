//===- SearchEngine.h - Explicit proof-tree search engine --------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1 as an explicit, schedulable search over a materialized
/// ProofTree. One node-expansion function (counterexample search, Eq. 4
/// refutation check, pi_alpha domain choice + abstract analysis, optional
/// complete fallback, pi_I split choice) and one scheduler (runStep) serve
/// every driver: the serial loop, the ThreadPool-backed executor, and the
/// process fleet differ only in who drains the Frontier and where a node's
/// expansion runs — in process, or in a charon_worker that calls the same
/// expandNode (see fleet/FleetCoordinator.h).
///
/// Determinism contract:
///  - A node's expansion is a pure function of (network, policy, config,
///    node path, region, warm witness): its RNG seed folds from the split
///    path, never from a shared counter, so scheduling cannot perturb it.
///  - When several nodes falsify, the engine returns the DFS-earliest
///    falsification — the one the sequential LIFO driver finds — and the
///    parallel executor keeps expanding DFS-earlier open nodes until that
///    choice is confirmed. Clean runs (no deadline/cancel interruption)
///    therefore return bit-identical verdicts, counterexamples, and
///    objectives regardless of thread count and frontier order.
///  - Expansions commit atomically: a deadline that aborts the abstract
///    analysis mid-node leaves the node open and uncounted. Timeout
///    verdicts carry a SearchCheckpoint of the open frontier, and resuming
///    it replays exactly the uninterrupted run's remaining expansions.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SEARCH_SEARCHENGINE_H
#define CHARON_SEARCH_SEARCHENGINE_H

#include "core/Policy.h"
#include "core/Property.h"
#include "core/Verifier.h"
#include "search/Checkpoint.h"
#include "search/Frontier.h"
#include "search/ProofTree.h"

namespace charon {
class ThreadPool;

/// Outcome of expanding one node, staged off to the side so the scheduler
/// can commit it atomically under the search-state lock — or discard it
/// wholesale when the abstract analysis was aborted by the deadline
/// (Kind == Aborted), which is what makes checkpoint/resume replay the
/// uninterrupted run. Plain data, so a worker process can ship it back.
struct NodeExpansion {
  enum class Kind : uint8_t { Falsified, Verified, Split, Aborted };
  Kind Result = Kind::Aborted;
  Vector Cex;                ///< Falsified: the (delta-)counterexample
  double CexObjective = 0.0; ///< Falsified: F at the counterexample
  SplitChoice Split;         ///< Split: pi_I's hyperplane
  Vector XStar;              ///< Split: witness handed to the children
  DomainSpec Domain;         ///< pi_alpha's choice (valid iff DomainChosen)
  bool DomainChosen = false;
  double Margin = 0.0;       ///< analysis margin (valid iff MarginKnown)
  bool MarginKnown = false;
  double PgdObjective = 0.0; ///< F(x*) of this node's search
  VerifyStats Stats;         ///< this node's counters (discarded on Aborted)
  double Seconds = 0.0;      ///< node wall-clock, for the trace event
};

/// Where a node's expansion runs: given the node's region, warm witness
/// (null when none), path seed, and the job's deadline, returns exactly
/// what SearchEngine::expandNode would. The fleet passes one that ships
/// the node to a worker process.
using NodeExpander = std::function<NodeExpansion(
    const Box &Region, const Vector *Warm, uint64_t Seed,
    const Deadline &Budget)>;

/// The proof-search engine. Stateless across runs; each run() builds its
/// own tree and frontier, so one engine can serve many properties.
class SearchEngine {
public:
  SearchEngine(const Network &Net, const VerificationPolicy &Policy,
               const VerifierConfig &Config);

  /// Decides \p Prop. With \p Pool null the caller's thread drains the
  /// frontier; otherwise node expansions are fanned out over the pool.
  /// With \p Resume non-null and compatible (same network fingerprint,
  /// property digest, and budget-free config digest), the search continues
  /// from the checkpoint's frontier; incompatible checkpoints are ignored.
  /// \p Expand, when set, replaces the in-process expandNode call; it must
  /// honor expandNode's contract for the verdict to stay bit-identical.
  VerifyResult run(const RobustnessProperty &Prop,
                   const SearchCheckpoint *Resume, ThreadPool *Pool,
                   const NodeExpander &Expand = nullptr) const;

  /// The one node-expansion function (Algorithm 1 lines 2-8 on one
  /// region). A pure function of (network, policy, semantic config,
  /// target class, region, warm witness, seed) — only a \p Budget that
  /// expires mid-analysis changes the answer, to Aborted.
  NodeExpansion expandNode(const RobustnessProperty &Prop, const Box &Region,
                           const Vector *Warm, uint64_t Seed,
                           const Deadline *Budget) const;

private:
  struct SearchState;

  /// Pops, expands, and commits one node. Returns Stepped after useful
  /// work, NoWork when the frontier is empty but expansions are in flight
  /// (parallel workers wait and retry), Finished when the search is over.
  enum class StepResult { Stepped, NoWork, Finished };
  StepResult runStep(SearchState &S) const;

  /// Builds the final VerifyResult (and checkpoint on Timeout).
  VerifyResult finish(SearchState &S, const RobustnessProperty &Prop) const;

  const Network &Net;
  const VerificationPolicy &Policy;
  const VerifierConfig &Config;
};

} // namespace charon

#endif // CHARON_SEARCH_SEARCHENGINE_H
