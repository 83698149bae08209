//===- charon_worker.cpp - Fleet worker process -------------------------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// One seat of the verification fleet (src/fleet/): reads JSONL commands on
// stdin, expands one proof-tree node per "expand" command with the same
// SearchEngine::expandNode the in-process search calls, and reports JSONL
// events on stdout. Not meant to be driven by hand — FleetCoordinator
// fork/execs it — but the protocol is plain text, so you can:
// echo '{"cmd":"ping"}' | charon_worker.
//
//   charon_worker [--policy F]
//
// The worker is single-threaded and answers commands in order. It holds
// no search state: the coordinator's scheduler owns the proof tree, polls
// its deadline and cancel hook between nodes, and each expansion aborts
// its analysis at the budget the command carries.
//
// A malformed command line produces an error event and the worker keeps
// serving — one bad line must not abort the stream (the same rule the
// batch service follows). So does a node that does not match its loaded
// network.
//
//===----------------------------------------------------------------------===//

#include "core/Digest.h"
#include "core/PolicyIo.h"
#include "fleet/FleetProtocol.h"
#include "nn/Io.h"
#include "support/JsonLine.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>

using namespace charon;

namespace {

void emit(const std::string &Line) {
  std::fwrite(Line.data(), 1, Line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

std::string load(const FleetCommand &Cmd, std::map<uint64_t, Network> &Nets) {
  std::istringstream Is(Cmd.NetworkText);
  auto Net = loadNetwork(Is);
  if (!Net)
    return formatErrorEvent("load: malformed network text");
  uint64_t Fp = fingerprintNetwork(*Net);
  if (Fp != Cmd.Fingerprint)
    return formatErrorEvent("load: network fingerprint mismatch");
  Nets.insert_or_assign(Fp, std::move(*Net));
  return formatLoadedEvent(Fp);
}

std::string expand(const ExpandSpec &Spec,
                   const std::map<uint64_t, Network> &Nets,
                   const VerificationPolicy &Policy) {
  auto It = Nets.find(Spec.Fingerprint);
  if (It == Nets.end())
    return formatErrorEvent("expand: unknown network fingerprint " +
                            json::formatU64(Spec.Fingerprint));
  const Network &Net = It->second;
  if (Spec.Region.dim() != Net.inputSize() || Spec.Label >= Net.outputSize())
    return formatErrorEvent("expand: node does not match the network");
  RobustnessProperty Prop{Spec.Region, Spec.Label, ""};
  Deadline Budget(Spec.BudgetSeconds);
  NodeExpansion E = SearchEngine(Net, Policy, Spec.Config)
                        .expandNode(Prop, Spec.Region,
                                    Spec.Warm.empty() ? nullptr : &Spec.Warm,
                                    Spec.PathSeed, &Budget);
  return formatExpandedEvent(E);
}

} // namespace

int main(int Argc, char **Argv) {
  // A coordinator that died mid-conversation must surface as a failed
  // write, not a SIGPIPE death.
  std::signal(SIGPIPE, SIG_IGN);
  // Expand lines carry whole regions; read them in bulk, not per char.
  std::ios::sync_with_stdio(false);

  std::string PolicyPath;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--policy") && I + 1 < Argc)
      PolicyPath = Argv[++I];
    else {
      std::fprintf(stderr, "usage: %s [--policy F]\n", Argv[0]);
      return 2;
    }
  }

  VerificationPolicy Policy;
  if (!PolicyPath.empty()) {
    if (auto P = loadPolicyFile(PolicyPath))
      Policy = *P;
    else
      std::fprintf(stderr,
                   "charon_worker: warning: bad policy file %s, using "
                   "default\n",
                   PolicyPath.c_str());
  }

  std::map<uint64_t, Network> Nets;
  emit(formatReadyEvent());
  std::string Line;
  while (std::getline(std::cin, Line)) {
    if (Line.empty())
      continue;
    std::string Err;
    auto Cmd = parseCommandLine(Line, &Err);
    if (!Cmd) {
      emit(formatErrorEvent(Err));
      continue;
    }
    switch (Cmd->K) {
    case FleetCommand::Kind::Load:
      emit(load(*Cmd, Nets));
      break;
    case FleetCommand::Kind::Expand:
      emit(expand(Cmd->Expand, Nets, Policy));
      break;
    case FleetCommand::Kind::Ping:
      emit(formatPongEvent());
      break;
    case FleetCommand::Kind::Quit:
      return 0;
    }
  }
  return 0;
}
