//===- FleetCoordinator.h - Process transport for node expansions -*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scales one verification job across worker *processes* without a second
/// scheduler: verify() runs the ordinary SearchEngine with one lane per
/// worker seat, and each lane ships the node it popped to a fork/exec'd
/// charon_worker over the JSONL control channel (FleetProtocol.h). The
/// worker calls the same SearchEngine::expandNode the in-process path
/// calls, and the lane hands the reply back to the engine, which commits
/// it exactly as it commits an in-process expansion.
///
/// Why the verdict stays bit-identical to the serial Verifier::verify:
/// the engine's own determinism contract (SearchEngine.h). A node's
/// expansion is a pure function of its inputs — region, warm witness,
/// path seed, and the semantic config, all of which travel bit-exactly —
/// and the engine confirms the DFS-earliest falsification whatever order
/// the lanes finish in. A worker that dies mid-node (EOF, or the chaos
/// hook's SIGKILL) is killed, counted, respawned, and sent the same node
/// again; the replay computes exactly what the lost worker would have.
///
/// Because the coordinator holds the whole proof tree, decided verdicts
/// certify (VerifierConfig::EmitCertificate) exactly as verifyParallel's
/// do. The trace sink and cancel hook stay with the coordinator's
/// scheduler; only jobs with a complete-fallback callback or CEGAR cannot
/// cross the wire and run inline — slower, never wrong.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_FLEET_FLEETCOORDINATOR_H
#define CHARON_FLEET_FLEETCOORDINATOR_H

#include "core/Policy.h"
#include "core/Verifier.h"
#include "fleet/FleetProtocol.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

namespace charon {
class Network;

/// Fleet settings.
struct FleetConfig {
  /// Path of the charon_worker binary (execvp semantics: a bare name
  /// searches PATH). Empty disables process dispatch — every job runs
  /// inline.
  std::string WorkerBinary;
  /// Worker processes to keep alive. 0 behaves like an empty WorkerBinary.
  unsigned Workers = 2;
  /// Policy file forwarded to workers (--policy). Must match the policy
  /// the coordinator was built with, or worker expansions would diverge
  /// from serial runs; empty means both sides use the built-in default.
  std::string PolicyPath;
  /// Test hook: once total dispatches exceed this count, SIGKILL the
  /// worker that received the latest dispatch (exactly once). Negative
  /// disables. Exercises the dead-worker replay path deterministically.
  int ChaosKillAfterDispatches = -1;
};

/// Cumulative coordinator counters (monotone over the fleet's lifetime).
struct FleetStats {
  long Jobs = 0;            ///< verify() calls accepted
  long NodesDispatched = 0; ///< expand commands sent (replays included)
  long WorkerRestarts = 0;  ///< dead workers detected and replaced
  long InlineFallbacks = 0; ///< jobs run in-process (non-transportable
                            ///< config or no workers configured)
};

/// Per-job accounting, filled when verify() is given a report pointer.
struct FleetJobReport {
  long Shards = 0; ///< node dispatches for this job (replays included)
  /// Always 0: one scheduler owns the frontier, so no work is ever stolen.
  /// Kept so reports and benchmarks written against the field still build.
  long Steals = 0;
  long Restarts = 0; ///< worker deaths while this job's nodes ran
  bool Inline = false;
  std::vector<long> PerWorkerExpanded; ///< nodes expanded, by worker seat
};

/// The fleet: owns the worker processes. Thread-safe; concurrent verify()
/// calls share the seats (the service layer funnels whole jobs through one
/// fleet).
class FleetCoordinator {
public:
  FleetCoordinator(VerificationPolicy Policy, FleetConfig Config);
  ~FleetCoordinator();

  FleetCoordinator(const FleetCoordinator &) = delete;
  FleetCoordinator &operator=(const FleetCoordinator &) = delete;

  /// Decides \p Prop on \p Net across the fleet. Blocking; bit-identical
  /// verdict/counterexample/objective to Verifier(Net, policy,
  /// Config).verify(Prop, Resume), with the same deadline, cancellation,
  /// checkpoint, and certificate behavior.
  VerifyResult verify(const Network &Net, const RobustnessProperty &Prop,
                      const VerifierConfig &Config,
                      const SearchCheckpoint *Resume = nullptr,
                      FleetJobReport *Report = nullptr);

  FleetStats stats() const;
  unsigned workers() const { return Config.Workers; }

private:
  struct Seat;
  struct Job;
  enum class Reply { Expanded, Died, Refused };

  NodeExpansion expand(Job &J, const Box &Region, const Vector *Warm,
                       uint64_t Seed, const Deadline &Budget);
  Reply dispatch(Seat &S, Job &J, ExpandSpec &Spec, const Deadline &Budget,
                 NodeExpansion &Out);
  Reply died(Seat &S, Job &J);
  Seat *checkout();
  void checkin(Seat &S);

  VerificationPolicy Policy;
  FleetConfig Config;

  mutable std::mutex Mutex;
  std::condition_variable SeatFreed;
  std::vector<std::unique_ptr<Seat>> Seats;
  FleetStats Counters;
  bool ChaosFired = false;
};

} // namespace charon

#endif // CHARON_FLEET_FLEETCOORDINATOR_H
