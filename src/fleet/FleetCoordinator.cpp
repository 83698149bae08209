//===- FleetCoordinator.cpp - Multi-process sharded proof search --------------===//

#include "fleet/FleetCoordinator.h"

#include "cert/Certificate.h"
#include "core/Digest.h"
#include "nn/Io.h"
#include "nn/Network.h"

#include <algorithm>
#include <cstdio>
#include <csignal>
#include <set>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

using namespace charon;

namespace {
/// Milliseconds between coordinator housekeeping passes (deadline checks,
/// steals, dispatch) when no worker event wakes the loop earlier.
constexpr int TickMs = 20;
/// A slot that dies this many times in a row without completing a single
/// shard is considered broken (e.g. the worker binary fails to exec) and
/// is no longer used; with every slot broken, shards drain inline.
constexpr int BrokenSlotDeaths = 3;
} // namespace

/// One schedulable unit of work: a contiguous DFS run of some job's open
/// frontier. The DFS key of a shard is its first open node's path.
struct FleetCoordinator::Shard {
  uint64_t Id = 0;
  uint64_t Job = 0;
  SearchCheckpoint Cp;
  /// Steal attempts leave single-node shards alone until this instant —
  /// re-yielding a frontier that cannot be split would only abort and
  /// replay its in-flight node expansion forever.
  double StealBackoffUntil = 0.0;
};

/// One in-flight verify() call.
struct FleetCoordinator::JobRec {
  uint64_t Id = 0;
  const Network *Net = nullptr;
  const RobustnessProperty *Prop = nullptr;
  VerifierConfig Cfg;
  RunSpec Spec; ///< wire projection; Shard/Budget/Checkpoint set per dispatch
  uint64_t NetFp = 0;
  std::string NetText;
  double DeadlineAt = -1.0; ///< monotone seconds; < 0 = unlimited
  bool StopRequested = false;
  long Outstanding = 0; ///< live shards (queued + running + inline)
  /// DFS-earliest falsification seen so far (the shard-level analogue of
  /// the engine's confirmation rule).
  bool HasCand = false;
  std::vector<uint8_t> CandKey;
  std::vector<double> CandCex;
  double CandObj = 0.0;
  /// Unfinished frontiers from deadline/cancel cut-offs; merged into the
  /// resumable Timeout checkpoint.
  std::vector<SearchCheckpoint> Remnants;
  VerifyStats Agg; ///< stats of terminally resolved shards
  FleetJobReport Report;
  bool Done = false;
};

/// One worker seat: the child process (respawned on death) and the shard
/// it is currently running.
struct FleetCoordinator::Slot {
  std::unique_ptr<WorkerProcess> Proc;
  std::set<uint64_t> LoadedNets;
  bool Busy = false;
  Shard Current;
  double RunStart = 0.0;
  bool YieldRequested = false; ///< cancel sent to steal the frontier
  bool StopSent = false;       ///< cancel sent to stop (deadline/prune)
  int ConsecutiveDeaths = 0;
  bool Broken = false;
};

static const std::vector<uint8_t> &shardKey(const SearchCheckpoint &Cp) {
  return Cp.Open.front().Path;
}

FleetCoordinator::FleetCoordinator(VerificationPolicy Policy,
                                   FleetConfig Config)
    : Policy(std::move(Policy)), Config(std::move(Config)),
      Start(std::chrono::steady_clock::now()) {
  // A write into a dead child must fail with EPIPE, not kill the process.
  ::signal(SIGPIPE, SIG_IGN);
  for (unsigned I = 0; I < this->Config.Workers; ++I)
    Slots.push_back(std::make_unique<Slot>());
  if (this->Config.Workers > 0 && !this->Config.WorkerBinary.empty()) {
    if (::pipe(WakePipe) == 0) {
      ::fcntl(WakePipe[0], F_SETFL, O_NONBLOCK);
      ::fcntl(WakePipe[1], F_SETFL, O_NONBLOCK);
      ::fcntl(WakePipe[0], F_SETFD, FD_CLOEXEC);
      ::fcntl(WakePipe[1], F_SETFD, FD_CLOEXEC);
      LoopThread = std::thread([this] { loop(); });
    }
  }
}

FleetCoordinator::~FleetCoordinator() {
  {
    std::lock_guard<std::mutex> L(Mutex);
    Stopping = true;
    JobCv.notify_all();
  }
  wake();
  if (LoopThread.joinable())
    LoopThread.join();
  for (auto &S : Slots)
    if (S->Proc)
      S->Proc->shutdown(Config.ShutdownGraceSeconds);
  if (WakePipe[0] >= 0)
    ::close(WakePipe[0]);
  if (WakePipe[1] >= 0)
    ::close(WakePipe[1]);
}

double FleetCoordinator::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

void FleetCoordinator::wake() {
  if (WakePipe[1] >= 0) {
    char B = 'w';
    (void)!::write(WakePipe[1], &B, 1);
  }
}

FleetStats FleetCoordinator::stats() const {
  std::lock_guard<std::mutex> L(Mutex);
  return Counters;
}

FleetCoordinator::JobRec *FleetCoordinator::findJob(uint64_t Id) {
  for (auto &J : Jobs)
    if (J->Id == Id)
      return J.get();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// verify(): job intake and result composition
//===----------------------------------------------------------------------===//

VerifyResult FleetCoordinator::verify(const Network &Net,
                                      const RobustnessProperty &Prop,
                                      const VerifierConfig &Cfg,
                                      const SearchCheckpoint *Resume,
                                      FleetJobReport *Report) {
  bool FleetUsable = LoopThread.joinable();
  if (!FleetUsable || !configTransportable(Cfg)) {
    {
      std::lock_guard<std::mutex> L(Mutex);
      ++Counters.Jobs;
      ++Counters.InlineFallbacks;
    }
    if (Report) {
      *Report = FleetJobReport();
      Report->Inline = true;
      Report->PerWorkerExpanded.assign(Config.Workers, 0);
    }
    Verifier V(Net, Policy, Cfg);
    return V.verify(Prop, Resume);
  }

  uint64_t NetFp = fingerprintNetwork(Net);
  uint64_t PropDig = digestProperty(Prop);
  uint64_t SemDig = digestVerifierConfigSemantics(Cfg);

  SearchCheckpoint Root;
  if (Resume && Resume->NetworkFingerprint == NetFp &&
      Resume->PropertyDigest == PropDig && Resume->ConfigDigest == SemDig) {
    Root = *Resume;
  } else {
    // Same rule as the serial driver: an incompatible checkpoint is
    // ignored and the search starts from the root frontier.
    Root.Order = Cfg.SearchOrder;
    Root.NetworkFingerprint = NetFp;
    Root.PropertyDigest = PropDig;
    Root.ConfigDigest = SemDig;
    CheckpointNode RootNode;
    RootNode.Region = Prop.Region;
    Root.Open.push_back(std::move(RootNode));
  }

  std::unique_lock<std::mutex> L(Mutex);
  ++Counters.Jobs;
  auto JOwn = std::make_unique<JobRec>();
  JobRec *J = JOwn.get();
  J->Id = NextJobId++;
  J->Net = &Net;
  J->Prop = &Prop;
  J->Cfg = Cfg;
  J->Spec = runSpecFromJob(Cfg, Prop, NetFp);
  J->NetFp = NetFp;
  J->NetText = serializeNetwork(Net);
  J->DeadlineAt = Cfg.TimeLimitSeconds > 0 ? now() + Cfg.TimeLimitSeconds : -1;
  J->Outstanding = 1;
  J->Report.PerWorkerExpanded.assign(Config.Workers, 0);
  Jobs.push_back(std::move(JOwn));

  Shard RootShard;
  RootShard.Id = NextShardId++;
  RootShard.Job = J->Id;
  RootShard.Cp = std::move(Root);
  Queue.push_back(std::move(RootShard));
  wake();

  JobCv.wait(L, [&] { return J->Done || Stopping; });

  VerifyResult R;
  if (J->HasCand) {
    R.Result = Outcome::Falsified;
    R.Counterexample = Vector(J->CandCex);
    R.ObjectiveAtCex = J->CandObj;
    for (const SearchCheckpoint &Rem : J->Remnants)
      J->Agg += Rem.Stats;
    R.Stats = J->Agg;
    if (Cfg.EmitCertificate)
      R.Certificate =
          std::make_shared<ProofCertificate>(buildFalsifiedCertificate(
              Net, Prop, Cfg, R.Counterexample, R.ObjectiveAtCex));
  } else if (!J->Remnants.empty() || J->StopRequested || !J->Done) {
    R.Result = Outcome::Timeout;
    if (!J->Remnants.empty()) {
      SearchCheckpoint Merged = mergeCheckpoints(J->Remnants);
      Merged.Stats += J->Agg;
      R.Stats = Merged.Stats;
      R.Checkpoint = std::make_shared<const SearchCheckpoint>(std::move(Merged));
    } else {
      R.Stats = J->Agg;
    }
  } else {
    // All shards verified. Fleet runs are checkpoint-resumed searches, so
    // (as with the serial resume path) Verified carries no certificate.
    R.Result = Outcome::Verified;
    R.Stats = J->Agg;
  }
  if (Report)
    *Report = J->Report;

  Jobs.erase(std::find_if(Jobs.begin(), Jobs.end(),
                          [&](const auto &P) { return P.get() == J; }));
  return R;
}

//===----------------------------------------------------------------------===//
// Event loop
//===----------------------------------------------------------------------===//

void FleetCoordinator::loop() {
  for (;;) {
    std::vector<pollfd> Fds;
    std::vector<size_t> SlotOf;
    {
      std::lock_guard<std::mutex> L(Mutex);
      if (Stopping)
        return;
      Fds.push_back({WakePipe[0], POLLIN, 0});
      for (size_t I = 0; I < Slots.size(); ++I)
        if (Slots[I]->Proc && Slots[I]->Proc->channelOpen()) {
          Fds.push_back({Slots[I]->Proc->outFd(), POLLIN, 0});
          SlotOf.push_back(I);
        }
    }
    ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()), TickMs);

    std::lock_guard<std::mutex> L(Mutex);
    if (Stopping)
      return;
    if (Fds[0].revents & POLLIN) {
      char Buf[64];
      while (::read(WakePipe[0], Buf, sizeof(Buf)) > 0)
        ;
    }
    for (size_t K = 1; K < Fds.size(); ++K)
      if (Fds[K].revents & (POLLIN | POLLHUP | POLLERR))
        handleWorkerLines(SlotOf[K - 1]);
    // Catch deaths poll cannot report (a chaos kill closes the fds).
    for (size_t I = 0; I < Slots.size(); ++I)
      if (Slots[I]->Busy &&
          (!Slots[I]->Proc || !Slots[I]->Proc->channelOpen()))
        handleWorkerDeath(I);
    pollJobStops();
    dispatchShards();
    maybeSteal();
  }
}

void FleetCoordinator::handleWorkerLines(size_t SlotIdx) {
  Slot &S = *Slots[SlotIdx];
  if (!S.Proc)
    return;
  bool Alive = S.Proc->onReadable();
  std::string Line;
  while (S.Proc->popLine(Line)) {
    std::string Err;
    if (auto Ev = parseEventLine(Line, &Err))
      handleEvent(SlotIdx, *Ev);
    else
      std::fprintf(stderr, "charon-fleet: bad event from worker %zu: %s\n",
                   SlotIdx, Err.c_str());
  }
  if (!Alive)
    handleWorkerDeath(SlotIdx);
}

void FleetCoordinator::handleEvent(size_t SlotIdx, const FleetEvent &Ev) {
  Slot &S = *Slots[SlotIdx];
  switch (Ev.K) {
  case FleetEvent::Kind::Ready:
  case FleetEvent::Kind::Pong:
    return;
  case FleetEvent::Kind::Loaded:
    S.LoadedNets.insert(Ev.Fingerprint);
    return;
  case FleetEvent::Kind::Error:
    std::fprintf(stderr, "charon-fleet: worker %zu error: %s\n", SlotIdx,
                 Ev.Message.c_str());
    if (S.Busy) {
      // The worker refused the shard (e.g. digest mismatch). Requeueing
      // would loop; running it inline guarantees progress and the same
      // answer.
      Shard Failed = std::move(S.Current);
      S.Busy = false;
      S.YieldRequested = S.StopSent = false;
      runShardInline(std::move(Failed));
    }
    return;
  case FleetEvent::Kind::Done:
    break;
  }

  if (!S.Busy || Ev.Shard != S.Current.Id)
    return; // stale done for a shard this coordinator no longer tracks

  Shard Sh = std::move(S.Current);
  bool WasYield = S.YieldRequested;
  S.Busy = false;
  S.YieldRequested = S.StopSent = false;
  S.ConsecutiveDeaths = 0;

  JobRec *J = findJob(Sh.Job);
  if (!J || J->Done)
    return;
  if (SlotIdx < J->Report.PerWorkerExpanded.size())
    J->Report.PerWorkerExpanded[SlotIdx] += Ev.ExpandedHere;

  const std::vector<uint8_t> &Key = shardKey(Sh.Cp);
  bool Pruned = J->HasCand && dfsPathPrecedes(J->CandKey, Key);

  if (Ev.Outcome == "falsified") {
    if (!J->HasCand || dfsPathPrecedes(Key, J->CandKey)) {
      J->HasCand = true;
      J->CandKey = Key;
      J->CandCex = Ev.Cex;
      J->CandObj = Ev.Objective;
      pruneLaterShards(*J);
    }
    J->Agg += Ev.Stats;
    --J->Outstanding;
  } else if (Ev.Outcome == "verified") {
    J->Agg += Ev.Stats;
    --J->Outstanding;
  } else { // timeout: yielded for a steal, stopped, or budget expiry
    std::optional<SearchCheckpoint> Cp =
        deserializeCheckpoint(Ev.CheckpointText);
    if (Pruned) {
      // A DFS-later shard can only find DFS-later witnesses: its partial
      // work is counted and its frontier dropped.
      J->Agg += Ev.Stats;
      --J->Outstanding;
    } else if (J->StopRequested) {
      J->Remnants.push_back(Cp ? std::move(*Cp) : std::move(Sh.Cp));
      --J->Outstanding;
    } else if (!Cp || Cp->Open.empty()) {
      // Unparseable or empty frontier from a timeout (should not happen):
      // replay the original shard — determinism makes replay safe.
      Sh.Id = NextShardId++;
      requeueFront(std::move(Sh));
    } else if (WasYield) {
      // The steal: split the yielded frontier across the idle seats.
      size_t Idle = 0;
      for (const auto &SlotPtr : Slots)
        if (!SlotPtr->Busy && !SlotPtr->Broken)
          ++Idle;
      size_t Pieces = std::min(Idle + 1, Cp->Open.size());
      if (Pieces <= 1) {
        Shard Back;
        Back.Id = NextShardId++;
        Back.Job = J->Id;
        Back.Cp = std::move(*Cp);
        Back.StealBackoffUntil = now() + 4 * Config.StealAfterSeconds;
        requeueFront(std::move(Back));
      } else {
        std::vector<SearchCheckpoint> Parts = splitCheckpoint(*Cp, Pieces);
        for (size_t P = Parts.size(); P-- > 0;) {
          Shard Piece;
          Piece.Id = NextShardId++;
          Piece.Job = J->Id;
          Piece.Cp = std::move(Parts[P]);
          Queue.push_front(std::move(Piece));
        }
        J->Outstanding += static_cast<long>(Pieces) - 1;
        Counters.Steals += static_cast<long>(Pieces) - 1;
        J->Report.Steals += static_cast<long>(Pieces) - 1;
      }
    } else if (J->DeadlineAt > 0 && now() >= J->DeadlineAt - 0.01) {
      // The worker's budget ran out a beat before the coordinator's
      // deadline check: same thing.
      J->Remnants.push_back(std::move(*Cp));
      --J->Outstanding;
    } else {
      // Spurious early return (conservative worker budget): continue it.
      Shard Back;
      Back.Id = NextShardId++;
      Back.Job = J->Id;
      Back.Cp = std::move(*Cp);
      requeueFront(std::move(Back));
    }
  }
  maybeFinish(*J);
}

void FleetCoordinator::handleWorkerDeath(size_t SlotIdx) {
  Slot &S = *Slots[SlotIdx];
  if (S.Proc)
    S.Proc->kill();
  S.Proc.reset();
  S.LoadedNets.clear();
  ++Counters.WorkerRestarts;
  if (++S.ConsecutiveDeaths >= BrokenSlotDeaths)
    S.Broken = true;
  if (S.Busy) {
    // The dead worker's outstanding shard is requeued verbatim: replaying
    // it recomputes exactly what the lost worker would have computed, so
    // no subtree is lost and no verdict fabricated.
    if (JobRec *J = findJob(S.Current.Job))
      ++J->Report.Restarts;
    S.Busy = false;
    S.YieldRequested = S.StopSent = false;
    Shard Sh = std::move(S.Current);
    Sh.Id = NextShardId++;
    requeueFront(std::move(Sh));
  }
}

void FleetCoordinator::requeueFront(Shard &&S) { Queue.push_front(std::move(S)); }

void FleetCoordinator::resolveAsRemnant(JobRec &J, Shard &&S) {
  J.Remnants.push_back(std::move(S.Cp));
  --J.Outstanding;
}

void FleetCoordinator::pruneLaterShards(JobRec &J) {
  // Queued DFS-later shards are dropped outright (their base stats are
  // still counted: splitCheckpoint keeps the accumulated stats on one
  // shard of the chain, so this never double-counts).
  for (auto It = Queue.begin(); It != Queue.end();) {
    if (It->Job == J.Id && dfsPathPrecedes(J.CandKey, shardKey(It->Cp))) {
      J.Agg += It->Cp.Stats;
      --J.Outstanding;
      It = Queue.erase(It);
    } else {
      ++It;
    }
  }
  // Running DFS-later shards are cancelled; their timeout-done events will
  // arrive and be pruned above.
  for (auto &SlotPtr : Slots) {
    Slot &S = *SlotPtr;
    if (S.Busy && S.Current.Job == J.Id && !S.StopSent &&
        dfsPathPrecedes(J.CandKey, shardKey(S.Current.Cp))) {
      if (!S.YieldRequested && S.Proc)
        S.Proc->sendLine(formatCancelCommand(S.Current.Id));
      S.StopSent = true;
    }
  }
}

void FleetCoordinator::pollJobStops() {
  for (auto &JOwn : Jobs) {
    JobRec &J = *JOwn;
    if (J.Done || J.StopRequested)
      continue;
    bool Deadline = J.DeadlineAt > 0 && now() >= J.DeadlineAt;
    bool Cancelled = J.Cfg.CancelRequested && J.Cfg.CancelRequested();
    if (!Deadline && !Cancelled)
      continue;
    J.StopRequested = true;
    for (auto It = Queue.begin(); It != Queue.end();) {
      if (It->Job == J.Id) {
        resolveAsRemnant(J, std::move(*It));
        It = Queue.erase(It);
      } else {
        ++It;
      }
    }
    for (auto &SlotPtr : Slots) {
      Slot &S = *SlotPtr;
      if (S.Busy && S.Current.Job == J.Id && !S.StopSent) {
        if (!S.YieldRequested && S.Proc)
          S.Proc->sendLine(formatCancelCommand(S.Current.Id));
        S.StopSent = true;
      }
    }
    maybeFinish(J);
  }
}

void FleetCoordinator::maybeFinish(JobRec &J) {
  if (!J.Done && J.Outstanding == 0) {
    J.Done = true;
    JobCv.notify_all();
  }
}

void FleetCoordinator::dispatchShards() {
  size_t Guard = 0;
  while (!Queue.empty() && Guard++ < Slots.size() * 4 + 16) {
    JobRec *J = findJob(Queue.front().Job);
    if (!J || J->Done) {
      Queue.pop_front();
      continue;
    }
    if (Queue.front().Cp.Open.empty()) {
      // Nothing left to search in this shard: trivially verified.
      J->Agg += Queue.front().Cp.Stats;
      Queue.pop_front();
      --J->Outstanding;
      maybeFinish(*J);
      continue;
    }
    if (J->StopRequested) {
      resolveAsRemnant(*J, std::move(Queue.front()));
      Queue.pop_front();
      maybeFinish(*J);
      continue;
    }

    // Find (or revive) an idle seat.
    Slot *Seat = nullptr;
    size_t SeatIdx = 0;
    bool AnyUsable = false;
    for (size_t I = 0; I < Slots.size() && !Seat; ++I) {
      Slot &S = *Slots[I];
      if (S.Busy || S.Broken)
        continue;
      AnyUsable = true;
      if (!S.Proc || !S.Proc->channelOpen()) {
        auto P = std::make_unique<WorkerProcess>();
        std::vector<std::string> Args;
        if (!Config.PolicyPath.empty()) {
          Args.push_back("--policy");
          Args.push_back(Config.PolicyPath);
        }
        std::string Err;
        if (!P->spawn(Config.WorkerBinary, Args, &Err)) {
          std::fprintf(stderr, "charon-fleet: spawn failed: %s\n",
                       Err.c_str());
          if (++S.ConsecutiveDeaths >= BrokenSlotDeaths)
            S.Broken = true;
          continue;
        }
        S.Proc = std::move(P);
        S.LoadedNets.clear();
      }
      Seat = &S;
      SeatIdx = I;
    }
    if (!Seat) {
      bool AllBroken = true;
      for (const auto &S : Slots)
        if (!S->Broken)
          AllBroken = false;
      (void)AnyUsable;
      if (AllBroken) {
        // Every seat is unusable (worker binary cannot run): drain the
        // queue in-process so jobs still terminate with correct verdicts.
        Shard S = std::move(Queue.front());
        Queue.pop_front();
        runShardInline(std::move(S));
        continue;
      }
      break; // seats exist but all are busy
    }

    Shard S = std::move(Queue.front());
    Queue.pop_front();
    if (!Seat->LoadedNets.count(J->NetFp)) {
      if (!Seat->Proc->sendLine(formatLoadCommand(J->NetFp, J->NetText))) {
        requeueFront(std::move(S));
        handleWorkerDeath(SeatIdx);
        continue;
      }
      // Optimistic: a load failure surfaces as an error event or EOF.
      Seat->LoadedNets.insert(J->NetFp);
    }
    RunSpec Spec = J->Spec;
    Spec.Shard = S.Id;
    Spec.CheckpointText = serializeCheckpoint(S.Cp);
    Spec.BudgetSeconds =
        J->DeadlineAt > 0 ? std::max(0.01, J->DeadlineAt - now()) : -1.0;
    if (!Seat->Proc->sendLine(formatRunCommand(Spec))) {
      requeueFront(std::move(S));
      handleWorkerDeath(SeatIdx);
      continue;
    }
    Seat->Busy = true;
    Seat->Current = std::move(S);
    Seat->RunStart = now();
    Seat->YieldRequested = Seat->StopSent = false;
    ++TotalDispatches;
    ++Counters.ShardsDispatched;
    ++J->Report.Shards;
    if (Config.ChaosKillAfterDispatches >= 0 && !ChaosFired &&
        TotalDispatches > Config.ChaosKillAfterDispatches) {
      ChaosFired = true;
      Seat->Proc->kill(); // the death sweep requeues the shard next tick
    }
  }
}

void FleetCoordinator::maybeSteal() {
  if (!Config.EnableStealing || !Queue.empty())
    return;
  bool AnyIdle = false;
  for (const auto &S : Slots)
    if (!S->Busy && !S->Broken)
      AnyIdle = true;
  if (!AnyIdle)
    return;
  double Now = now();
  Slot *Victim = nullptr;
  for (auto &SlotPtr : Slots) {
    Slot &S = *SlotPtr;
    if (!S.Busy || S.YieldRequested || S.StopSent)
      continue;
    if (Now - S.RunStart < Config.StealAfterSeconds)
      continue;
    if (Now < S.Current.StealBackoffUntil)
      continue;
    if (!Victim || S.RunStart < Victim->RunStart)
      Victim = &S;
  }
  if (!Victim || !Victim->Proc)
    return;
  if (Victim->Proc->sendLine(formatCancelCommand(Victim->Current.Id)))
    Victim->YieldRequested = true;
}

bool FleetCoordinator::runShardInline(Shard &&S) {
  JobRec *J = findJob(S.Job);
  if (!J || J->Done)
    return false;
  VerifierConfig Cfg = J->Cfg;
  Cfg.TimeLimitSeconds =
      J->DeadlineAt > 0 ? std::max(0.01, J->DeadlineAt - now()) : -1.0;
  Cfg.EmitCertificate = false; // certificates are composed at job level
  Verifier V(*J->Net, Policy, Cfg);
  VerifyResult R = V.verify(*J->Prop, &S.Cp);

  const std::vector<uint8_t> &Key = shardKey(S.Cp);
  bool Pruned = J->HasCand && dfsPathPrecedes(J->CandKey, Key);
  switch (R.Result) {
  case Outcome::Falsified:
    if (!J->HasCand || dfsPathPrecedes(Key, J->CandKey)) {
      J->HasCand = true;
      J->CandKey = Key;
      J->CandCex.assign(R.Counterexample.data(),
                        R.Counterexample.data() + R.Counterexample.size());
      J->CandObj = R.ObjectiveAtCex;
      pruneLaterShards(*J);
    }
    J->Agg += R.Stats;
    break;
  case Outcome::Verified:
    J->Agg += R.Stats;
    break;
  case Outcome::Timeout:
    if (Pruned)
      J->Agg += R.Stats;
    else if (R.Checkpoint)
      J->Remnants.push_back(*R.Checkpoint);
    else
      J->Remnants.push_back(std::move(S.Cp));
    break;
  }
  --J->Outstanding;
  maybeFinish(*J);
  return true;
}
