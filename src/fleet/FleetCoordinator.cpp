//===- FleetCoordinator.cpp - Process transport for node expansions -----------===//

#include "fleet/FleetCoordinator.h"

#include "core/Digest.h"
#include "fleet/WorkerProcess.h"
#include "nn/Io.h"
#include "support/ThreadPool.h"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <set>

using namespace charon;

namespace {
/// A seat that dies this many times in a row without expanding a node is
/// broken (e.g. the worker binary cannot exec) and no longer used; with
/// every seat broken, lanes expand their nodes in process.
constexpr int BrokenSeatDeaths = 3;
/// Grace given to each worker between "quit" and SIGKILL at shutdown.
constexpr double ShutdownGraceSeconds = 2.0;

/// The worker's next event; nullopt once it is dead. A line that does not
/// parse comes back as an error event.
std::optional<FleetEvent> awaitEvent(WorkerProcess &Proc) {
  std::string Line;
  if (!Proc.readLine(Line))
    return std::nullopt;
  std::string Err;
  if (auto Ev = parseEventLine(Line, &Err))
    return Ev;
  FleetEvent Bad;
  Bad.K = FleetEvent::Kind::Error;
  Bad.Message = "unparseable event: " + Err;
  return Bad;
}

/// True when a worker's expansion fits the node it was sent: the engine
/// splits the region on Split.Dim and hands the vectors to the children.
bool fitsRegion(const NodeExpansion &E, const Box &Region) {
  using Kind = NodeExpansion::Kind;
  if (E.Result == Kind::Falsified)
    return E.Cex.size() == Region.dim();
  if (E.Result == Kind::Split)
    return E.Split.Dim < Region.dim() && E.XStar.size() == Region.dim();
  return true;
}
} // namespace

/// One worker seat: the child process (respawned on death) and the
/// networks it holds. Only the lane that checked the seat out touches the
/// process; Busy and Broken are guarded by the coordinator's Mutex.
struct FleetCoordinator::Seat {
  size_t Index = 0;
  WorkerProcess Proc;
  std::set<uint64_t> LoadedNets;
  int ConsecutiveDeaths = 0;
  bool Busy = false;
  bool Broken = false;
};

/// One verify() call, shared by its lanes.
struct FleetCoordinator::Job {
  Job(const Network &N, const RobustnessProperty &P, const VerifierConfig &C,
      const VerificationPolicy &Policy)
      : Net(N), Prop(P), Config(C), Engine(N, Policy, C),
        Fingerprint(fingerprintNetwork(N)) {}

  const Network &Net;
  const RobustnessProperty &Prop;
  const VerifierConfig &Config;
  SearchEngine Engine; ///< runs the search; expands nodes no seat can take
  uint64_t Fingerprint;
  /// The load command, built once on the first load a seat needs and
  /// shared by every lane (it carries the whole network as text).
  std::once_flag LoadLineBuilt;
  std::string LoadLine;
  FleetJobReport Report; ///< guarded by the coordinator's Mutex
};

FleetCoordinator::FleetCoordinator(VerificationPolicy P, FleetConfig C)
    : Policy(std::move(P)), Config(std::move(C)) {
  // A write into a dead child must fail with EPIPE, not kill the process.
  ::signal(SIGPIPE, SIG_IGN);
  if (Config.WorkerBinary.empty())
    return;
  for (unsigned I = 0; I < Config.Workers; ++I) {
    Seats.push_back(std::make_unique<Seat>());
    Seats.back()->Index = I;
  }
}

FleetCoordinator::~FleetCoordinator() {
  for (auto &S : Seats)
    S->Proc.shutdown(ShutdownGraceSeconds);
}

FleetStats FleetCoordinator::stats() const {
  std::lock_guard<std::mutex> L(Mutex);
  return Counters;
}

VerifyResult FleetCoordinator::verify(const Network &Net,
                                      const RobustnessProperty &Prop,
                                      const VerifierConfig &Cfg,
                                      const SearchCheckpoint *Resume,
                                      FleetJobReport *Report) {
  bool Transport = !Seats.empty() && configTransportable(Cfg);
  {
    std::lock_guard<std::mutex> L(Mutex);
    ++Counters.Jobs;
    Counters.InlineFallbacks += Transport ? 0 : 1;
  }
  if (!Transport) {
    if (Report) {
      *Report = FleetJobReport();
      Report->Inline = true;
      Report->PerWorkerExpanded.assign(Config.Workers, 0);
    }
    return Verifier(Net, Policy, Cfg).verify(Prop, Resume);
  }

  Job J(Net, Prop, Cfg, Policy);
  J.Report.PerWorkerExpanded.assign(Seats.size(), 0);
  ThreadPool Lanes(static_cast<unsigned>(Seats.size()));
  VerifyResult R = J.Engine.run(
      Prop, Resume, &Lanes,
      [this, &J](const Box &Region, const Vector *Warm, uint64_t Seed,
                 const Deadline &Budget) {
        return expand(J, Region, Warm, Seed, Budget);
      });
  if (Report) {
    std::lock_guard<std::mutex> L(Mutex);
    *Report = J.Report;
  }
  return R;
}

NodeExpansion FleetCoordinator::expand(Job &J, const Box &Region,
                                       const Vector *Warm, uint64_t Seed,
                                       const Deadline &Budget) {
  ExpandSpec Spec;
  Spec.Fingerprint = J.Fingerprint;
  Spec.Label = J.Prop.TargetClass;
  Spec.Region = Region;
  if (Warm)
    Spec.Warm = *Warm;
  Spec.PathSeed = Seed;
  Spec.Config = J.Config;
  NodeExpansion Out;
  while (Seat *S = checkout()) {
    Reply R = dispatch(*S, J, Spec, Budget, Out);
    checkin(*S);
    if (R == Reply::Expanded)
      return Out;
    if (R == Reply::Refused)
      break;
    // Reply::Died: replay the same node on whichever seat comes free.
  }
  // Every seat is broken, or a worker refused the node: the expansion is a
  // pure function of its inputs, so computing it here gives the same answer.
  return J.Engine.expandNode(J.Prop, Region, Warm, Seed, &Budget);
}

FleetCoordinator::Reply FleetCoordinator::dispatch(Seat &S, Job &J,
                                                   ExpandSpec &Spec,
                                                   const Deadline &Budget,
                                                   NodeExpansion &Out) {
  auto Refused = [&](const FleetEvent &Ev) {
    std::fprintf(stderr, "charon-fleet: worker %zu refused a node: %s\n",
                 S.Index, Ev.Message.c_str());
    return Reply::Refused;
  };
  if (!S.Proc.channelOpen()) {
    std::vector<std::string> Args;
    if (!Config.PolicyPath.empty())
      Args = {"--policy", Config.PolicyPath};
    std::string Err;
    S.LoadedNets.clear();
    if (!S.Proc.spawn(Config.WorkerBinary, Args, &Err)) {
      std::fprintf(stderr, "charon-fleet: spawn failed: %s\n", Err.c_str());
      return died(S, J);
    }
    if (!awaitEvent(S.Proc)) // the ready event; EOF when exec failed
      return died(S, J);
  }
  if (!S.LoadedNets.count(J.Fingerprint)) {
    std::call_once(J.LoadLineBuilt, [&J] {
      J.LoadLine = formatLoadCommand(J.Fingerprint, serializeNetwork(J.Net));
    });
    if (!S.Proc.sendLine(J.LoadLine))
      return died(S, J);
    std::optional<FleetEvent> Loaded = awaitEvent(S.Proc);
    if (!Loaded)
      return died(S, J);
    if (Loaded->K != FleetEvent::Kind::Loaded)
      return Refused(*Loaded);
    S.LoadedNets.insert(J.Fingerprint);
  }

  double Left = Budget.remaining();
  Spec.BudgetSeconds = std::isinf(Left) ? -1.0 : Left;
  if (!S.Proc.sendLine(formatExpandCommand(Spec)))
    return died(S, J);
  bool Chaos = false;
  {
    std::lock_guard<std::mutex> L(Mutex);
    ++J.Report.Shards;
    ++Counters.NodesDispatched;
    if (Config.ChaosKillAfterDispatches >= 0 && !ChaosFired &&
        Counters.NodesDispatched > Config.ChaosKillAfterDispatches)
      Chaos = ChaosFired = true;
  }
  if (Chaos)
    S.Proc.kill(); // the read below sees EOF; the node is replayed

  std::optional<FleetEvent> Ev = awaitEvent(S.Proc);
  if (!Ev)
    return died(S, J);
  if (Ev->K != FleetEvent::Kind::Expanded)
    return Refused(*Ev);
  if (!fitsRegion(Ev->Expansion, Spec.Region)) {
    Ev->Message = "expansion does not fit the node's region";
    return Refused(*Ev);
  }
  Out = std::move(Ev->Expansion);
  S.ConsecutiveDeaths = 0;
  std::lock_guard<std::mutex> L(Mutex);
  J.Report.PerWorkerExpanded[S.Index] += Out.Stats.NodesExpanded;
  return Reply::Expanded;
}

FleetCoordinator::Reply FleetCoordinator::died(Seat &S, Job &J) {
  S.Proc.kill();
  std::lock_guard<std::mutex> L(Mutex);
  ++Counters.WorkerRestarts;
  ++J.Report.Restarts;
  if (++S.ConsecutiveDeaths >= BrokenSeatDeaths) {
    S.Broken = true;
    SeatFreed.notify_all(); // waiters may now find every seat broken
  }
  return Reply::Died;
}

FleetCoordinator::Seat *FleetCoordinator::checkout() {
  std::unique_lock<std::mutex> L(Mutex);
  while (true) {
    bool AllBroken = true;
    for (auto &S : Seats) {
      if (S->Broken)
        continue;
      AllBroken = false;
      if (!S->Busy) {
        S->Busy = true;
        return S.get();
      }
    }
    if (AllBroken)
      return nullptr;
    SeatFreed.wait(L);
  }
}

void FleetCoordinator::checkin(Seat &S) {
  std::lock_guard<std::mutex> L(Mutex);
  S.Busy = false;
  SeatFreed.notify_one();
}
