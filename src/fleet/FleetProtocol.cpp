//===- FleetProtocol.cpp - Coordinator/worker JSONL control channel -----------===//

#include "fleet/FleetProtocol.h"

#include "core/Digest.h"
#include "support/JsonLine.h"

using namespace charon;
using json::formatU64;
using json::ObjectWriter;
using json::parseU64;
using json::toInteger;
using json::Value;

namespace {

/// Stores \p Msg as the parse error and yields the failed result.
std::nullopt_t fail(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
  return std::nullopt;
}

/// Stats travel as the twelve StatsCounters followed by Seconds.
std::vector<double> statsToArray(const VerifyStats &S) {
  std::vector<double> A;
  for (long VerifyStats::*Counter : StatsCounters)
    A.push_back(static_cast<double>(S.*Counter));
  A.push_back(S.Seconds);
  return A;
}

bool statsFromArray(const std::vector<double> &A, VerifyStats &S) {
  if (A.size() != std::size(StatsCounters) + 1)
    return false;
  for (size_t I = 0; I < std::size(StatsCounters); ++I)
    if (!toInteger(A[I], S.*StatsCounters[I]))
      return false;
  S.Seconds = A.back();
  return true;
}

const char *const KindNames[] = {"falsified", "verified", "split",
                                 "aborted"};

bool kindFromName(const std::string &Name, NodeExpansion::Kind &Out) {
  for (size_t I = 0; I < std::size(KindNames); ++I)
    if (Name == KindNames[I]) {
      Out = static_cast<NodeExpansion::Kind>(I);
      return true;
    }
  return false;
}

/// The semantic config fields, in wire order.
ObjectWriter &writeConfig(ObjectWriter &W, const VerifierConfig &C) {
  return W.num("delta", C.Delta)
      .num("maxdepth", C.MaxDepth)
      .num("pgd_steps", C.Pgd.Steps)
      .num("pgd_restarts", C.Pgd.Restarts)
      .num("pgd_step_scale", C.Pgd.StepScale)
      .str("optimizer", C.Optimizer == CexSearchKind::Fgsm ? "fgsm" : "pgd")
      .flag("use_cex_search", C.UseCounterexampleSearch)
      .str("seed", formatU64(C.Seed))
      .str("order", toString(C.SearchOrder))
      .str("precision",
           C.Precision == KernelPrecision::Float32 ? "float32" : "double");
}

/// Parses one semantic config key into \p C; false when \p Key is not one
/// or its value is mistyped or out of range.
bool readConfigKey(const std::string &Key, const Value &V, VerifierConfig &C) {
  auto Word = [&](const char *A, const char *B) {
    return V.K == Value::Str && (V.S == A || V.S == B);
  };
  if (Key == "delta" && V.K == Value::Num && V.N > 0.0)
    C.Delta = V.N;
  else if (Key == "maxdepth" && V.K == Value::Num)
    return toInteger(V.N, C.MaxDepth);
  else if (Key == "pgd_steps" && V.K == Value::Num)
    return toInteger(V.N, C.Pgd.Steps);
  else if (Key == "pgd_restarts" && V.K == Value::Num)
    return toInteger(V.N, C.Pgd.Restarts);
  else if (Key == "pgd_step_scale" && V.K == Value::Num)
    C.Pgd.StepScale = V.N;
  else if (Key == "optimizer" && Word("pgd", "fgsm"))
    C.Optimizer = V.S == "fgsm" ? CexSearchKind::Fgsm : CexSearchKind::Pgd;
  else if (Key == "use_cex_search" && V.K == Value::Bool)
    C.UseCounterexampleSearch = V.B;
  else if (Key == "seed" && V.K == Value::Str)
    return parseU64(V.S, C.Seed);
  else if (Key == "order" && Word("lifo", "best-first"))
    C.SearchOrder = V.S == "lifo" ? FrontierOrder::Lifo
                                  : FrontierOrder::BestFirst;
  else if (Key == "precision" && Word("double", "float32"))
    C.Precision = V.S == "double" ? KernelPrecision::Double
                                  : KernelPrecision::Float32;
  else
    return false;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Formatting
//===----------------------------------------------------------------------===//

std::string charon::formatLoadCommand(uint64_t Fingerprint,
                                      const std::string &NetworkText) {
  return ObjectWriter()
      .str("cmd", "load")
      .str("fingerprint", formatU64(Fingerprint))
      .str("network", NetworkText)
      .done();
}

std::string charon::formatExpandCommand(const ExpandSpec &Spec) {
  const Box &R = Spec.Region;
  ObjectWriter W;
  W.str("cmd", "expand")
      .str("fingerprint", formatU64(Spec.Fingerprint))
      .num("label", static_cast<double>(Spec.Label))
      .nums("lower", R.lower().data(), R.dim())
      .nums("upper", R.upper().data(), R.dim())
      .nums("warm", Spec.Warm.data(), Spec.Warm.size())
      .str("path_seed", formatU64(Spec.PathSeed))
      .num("budget", Spec.BudgetSeconds);
  return writeConfig(W, Spec.Config).done();
}

std::string charon::formatPingCommand() { return "{\"cmd\":\"ping\"}"; }
std::string charon::formatQuitCommand() { return "{\"cmd\":\"quit\"}"; }

std::string charon::formatReadyEvent() { return "{\"event\":\"ready\"}"; }
std::string charon::formatPongEvent() { return "{\"event\":\"pong\"}"; }

std::string charon::formatLoadedEvent(uint64_t Fingerprint) {
  return ObjectWriter()
      .str("event", "loaded")
      .str("fingerprint", formatU64(Fingerprint))
      .done();
}

std::string charon::formatExpandedEvent(const NodeExpansion &E) {
  ObjectWriter W;
  W.str("event", "expanded")
      .str("kind", KindNames[static_cast<size_t>(E.Result)])
      .num("pgd_objective", E.PgdObjective);
  if (E.Result == NodeExpansion::Kind::Falsified)
    W.nums("cex", E.Cex.data(), E.Cex.size())
        .num("cex_objective", E.CexObjective);
  if (E.Result == NodeExpansion::Kind::Split)
    W.num("split_dim", static_cast<double>(E.Split.Dim))
        .num("split_cut", E.Split.Cut)
        .nums("xstar", E.XStar.data(), E.XStar.size());
  if (E.DomainChosen)
    W.num("domain", static_cast<double>(E.Domain.Base))
        .num("disjuncts", E.Domain.Disjuncts);
  if (E.MarginKnown)
    W.num("margin", E.Margin);
  return W.nums("stats", statsToArray(E.Stats))
      .num("seconds", E.Seconds)
      .done();
}

std::string charon::formatErrorEvent(const std::string &Message) {
  return ObjectWriter().str("event", "error").str("message", Message).done();
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

std::optional<FleetCommand> charon::parseCommandLine(const std::string &Line,
                                                     std::string *Error) {
  json::Object Obj;
  if (!json::parseObjectLine(Line, Obj, Error))
    return std::nullopt;
  auto CmdIt = Obj.find("cmd");
  if (CmdIt == Obj.end() || CmdIt->second.K != Value::Str)
    return fail(Error, "missing \"cmd\"");
  const std::string &Cmd = CmdIt->second.S;

  FleetCommand Out;
  if (Cmd == "ping") {
    Out.K = FleetCommand::Kind::Ping;
    return Out;
  }
  if (Cmd == "quit") {
    Out.K = FleetCommand::Kind::Quit;
    return Out;
  }
  if (Cmd == "load") {
    Out.K = FleetCommand::Kind::Load;
    auto FpIt = Obj.find("fingerprint");
    auto NetIt = Obj.find("network");
    if (FpIt == Obj.end() || FpIt->second.K != Value::Str ||
        !parseU64(FpIt->second.S, Out.Fingerprint) || NetIt == Obj.end() ||
        NetIt->second.K != Value::Str)
      return fail(Error, "load needs \"fingerprint\" and \"network\"");
    Out.NetworkText = std::move(NetIt->second.S); // a whole network
    return Out;
  }
  if (Cmd != "expand")
    return fail(Error, "unknown cmd: " + Cmd);

  Out.K = FleetCommand::Kind::Expand;
  ExpandSpec &S = Out.Expand;
  std::vector<double> Lower, Upper;
  bool HaveFp = false, HaveSeed = false;
  for (auto &[Key, V] : Obj) { // arrays are moved out: a region is large
    if (Key == "cmd")
      continue;
    if (Key == "fingerprint" && V.K == Value::Str &&
        parseU64(V.S, S.Fingerprint))
      HaveFp = true;
    else if (Key == "label" && V.K == Value::Num && toInteger(V.N, S.Label))
      ;
    else if (Key == "lower" && V.K == Value::NumArray)
      Lower = std::move(V.A);
    else if (Key == "upper" && V.K == Value::NumArray)
      Upper = std::move(V.A);
    else if (Key == "warm" && V.K == Value::NumArray)
      S.Warm = Vector(std::move(V.A));
    else if (Key == "path_seed" && V.K == Value::Str &&
             parseU64(V.S, S.PathSeed))
      HaveSeed = true;
    else if (Key == "budget" && V.K == Value::Num)
      S.BudgetSeconds = V.N;
    else if (!readConfigKey(Key, V, S.Config))
      return fail(Error, "unknown, mistyped or out-of-range expand key: " +
                             Key);
  }
  if (!HaveFp || !HaveSeed)
    return fail(Error, "expand needs \"fingerprint\" and \"path_seed\"");
  if (Lower.empty() || Lower.size() != Upper.size())
    return fail(Error, "expand needs matching \"lower\"/\"upper\"");
  for (size_t I = 0; I < Lower.size(); ++I)
    if (Lower[I] > Upper[I])
      return fail(Error, "expand region has inverted bounds");
  if (!S.Warm.empty() && S.Warm.size() != Lower.size())
    return fail(Error, "expand \"warm\" does not match the region");
  S.Region = Box(Vector(std::move(Lower)), Vector(std::move(Upper)));
  return Out;
}

std::optional<FleetEvent> charon::parseEventLine(const std::string &Line,
                                                 std::string *Error) {
  json::Object Obj;
  if (!json::parseObjectLine(Line, Obj, Error))
    return std::nullopt;
  auto EvIt = Obj.find("event");
  if (EvIt == Obj.end() || EvIt->second.K != Value::Str)
    return fail(Error, "missing \"event\"");
  const std::string &Ev = EvIt->second.S;

  FleetEvent Out;
  if (Ev == "ready") {
    Out.K = FleetEvent::Kind::Ready;
    return Out;
  }
  if (Ev == "pong") {
    Out.K = FleetEvent::Kind::Pong;
    return Out;
  }
  if (Ev == "loaded") {
    Out.K = FleetEvent::Kind::Loaded;
    auto It = Obj.find("fingerprint");
    if (It == Obj.end() || It->second.K != Value::Str ||
        !parseU64(It->second.S, Out.Fingerprint))
      return fail(Error, "loaded needs \"fingerprint\"");
    return Out;
  }
  if (Ev == "error") {
    Out.K = FleetEvent::Kind::Error;
    auto It = Obj.find("message");
    if (It != Obj.end() && It->second.K == Value::Str)
      Out.Message = It->second.S;
    return Out;
  }
  if (Ev != "expanded")
    return fail(Error, "unknown event: " + Ev);

  Out.K = FleetEvent::Kind::Expanded;
  NodeExpansion &E = Out.Expansion;
  bool HaveKind = false, HaveStats = false, HaveCex = false,
       HaveSplit = false;
  int Base = 0;
  for (auto &[Key, V] : Obj) {
    if (Key == "event")
      continue;
    if (Key == "kind" && V.K == Value::Str && kindFromName(V.S, E.Result))
      HaveKind = true;
    else if (Key == "pgd_objective" && V.K == Value::Num)
      E.PgdObjective = V.N;
    else if (Key == "cex" && V.K == Value::NumArray) {
      E.Cex = Vector(std::move(V.A));
      HaveCex = true;
    } else if (Key == "cex_objective" && V.K == Value::Num)
      E.CexObjective = V.N;
    else if (Key == "split_dim" && V.K == Value::Num &&
             toInteger(V.N, E.Split.Dim))
      HaveSplit = true;
    else if (Key == "split_cut" && V.K == Value::Num)
      E.Split.Cut = V.N;
    else if (Key == "xstar" && V.K == Value::NumArray)
      E.XStar = Vector(std::move(V.A));
    else if (Key == "domain" && V.K == Value::Num && toInteger(V.N, Base) &&
             Base >= 0 && Base <= static_cast<int>(BaseDomainKind::Polyhedra))
      E.DomainChosen = true;
    else if (Key == "disjuncts" && V.K == Value::Num &&
             toInteger(V.N, E.Domain.Disjuncts) && E.Domain.Disjuncts >= 1)
      ;
    else if (Key == "margin" && V.K == Value::Num) {
      E.Margin = V.N;
      E.MarginKnown = true;
    } else if (Key == "stats" && V.K == Value::NumArray)
      HaveStats = statsFromArray(V.A, E.Stats);
    else if (Key == "seconds" && V.K == Value::Num)
      E.Seconds = V.N;
    else
      return fail(Error, "unknown or mistyped expanded key: " + Key);
  }
  if (E.DomainChosen)
    E.Domain.Base = static_cast<BaseDomainKind>(Base);
  if (!HaveKind)
    return fail(Error, "expanded needs a valid \"kind\"");
  if (!HaveStats)
    return fail(Error, "expanded needs a 13-element \"stats\"");
  if (HaveCex != (E.Result == NodeExpansion::Kind::Falsified))
    return fail(Error, "expanded carries \"cex\" iff kind is falsified");
  if (HaveSplit != (E.Result == NodeExpansion::Kind::Split))
    return fail(Error, "expanded carries \"split_dim\" iff kind is split");
  return Out;
}

//===----------------------------------------------------------------------===//
// Config transport
//===----------------------------------------------------------------------===//

bool charon::configTransportable(const VerifierConfig &Config) {
  // The complete fallback runs inside a node expansion, CEGAR outside the
  // node scheduler; neither can run in a worker. Both are also digested,
  // so the round-trip below would catch them — listed here for clarity.
  if (Config.CompleteFallback || Config.Cegar.Enabled)
    return false;
  ExpandSpec Probe;
  Probe.Region = Box(Vector{0.0}, Vector{1.0});
  Probe.Config = Config;
  auto Back = parseCommandLine(formatExpandCommand(Probe));
  return Back && digestVerifierConfigSemantics(Back->Expand.Config) ==
                     digestVerifierConfigSemantics(Config);
}
