//===- FleetProtocol.cpp - Coordinator/worker JSONL control channel -----------===//

#include "fleet/FleetProtocol.h"

#include "core/Digest.h"
#include "core/Property.h"
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
bool statsFromArray(const std::vector<double> &A, VerifyStats &S) {
  if (A.size() != std::size(StatsCounters) + 1)
    return false;
  for (size_t I = 0; I < std::size(StatsCounters); ++I)
    if (!toInteger(A[I], S.*StatsCounters[I]))
      return false;
  S.Seconds = A.back();
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Command formatting
//===----------------------------------------------------------------------===//

std::string charon::formatLoadCommand(uint64_t Fingerprint,
                                      const std::string &NetworkText) {
  return ObjectWriter()
      .str("cmd", "load")
      .str("fingerprint", formatU64(Fingerprint))
      .str("network", NetworkText)
      .done();
}

std::string charon::formatRunCommand(const RunSpec &Spec) {
  return ObjectWriter()
      .str("cmd", "run")
      .num("shard", static_cast<double>(Spec.Shard))
      .str("fingerprint", formatU64(Spec.Fingerprint))
      .num("label", static_cast<double>(Spec.Label))
      .nums("lower", Spec.Lower)
      .nums("upper", Spec.Upper)
      .num("delta", Spec.Delta)
      .num("budget", Spec.BudgetSeconds)
      .num("maxdepth", Spec.MaxDepth)
      .num("pgd_steps", Spec.PgdSteps)
      .num("pgd_restarts", Spec.PgdRestarts)
      .num("pgd_step_scale", Spec.PgdStepScale)
      .str("optimizer", Spec.Optimizer)
      .flag("use_cex_search", Spec.UseCexSearch)
      .str("seed", formatU64(Spec.Seed))
      .str("order", Spec.Order)
      .str("precision", Spec.Precision)
      .str("checkpoint", Spec.CheckpointText)
      .done();
}

std::string charon::formatCancelCommand(uint64_t Shard) {
  return ObjectWriter()
      .str("cmd", "cancel")
      .num("shard", static_cast<double>(Shard))
      .done();
}

std::string charon::formatPingCommand() { return "{\"cmd\":\"ping\"}"; }
std::string charon::formatQuitCommand() { return "{\"cmd\":\"quit\"}"; }

//===----------------------------------------------------------------------===//
// Event formatting
//===----------------------------------------------------------------------===//

std::string charon::formatReadyEvent() { return "{\"event\":\"ready\"}"; }
std::string charon::formatPongEvent() { return "{\"event\":\"pong\"}"; }

std::string charon::formatLoadedEvent(uint64_t Fingerprint) {
  return ObjectWriter()
      .str("event", "loaded")
      .str("fingerprint", formatU64(Fingerprint))
      .done();
}

std::string charon::formatDoneEvent(const FleetEvent &Ev) {
  std::vector<double> Stats;
  for (long VerifyStats::*Counter : StatsCounters)
    Stats.push_back(static_cast<double>(Ev.Stats.*Counter));
  Stats.push_back(Ev.Stats.Seconds);
  return ObjectWriter()
      .str("event", "done")
      .num("shard", static_cast<double>(Ev.Shard))
      .str("outcome", Ev.Outcome)
      .nums("cex", Ev.Cex)
      .num("objective", Ev.Objective)
      .nums("stats", Stats)
      .num("expanded_here", static_cast<double>(Ev.ExpandedHere))
      .str("checkpoint", Ev.CheckpointText)
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
  if (Cmd == "cancel") {
    Out.K = FleetCommand::Kind::Cancel;
    auto It = Obj.find("shard");
    if (It == Obj.end() || It->second.K != Value::Num ||
        !toInteger(It->second.N, Out.CancelShard))
      return fail(Error, "cancel needs \"shard\"");
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
    Out.NetworkText = NetIt->second.S;
    return Out;
  }
  if (Cmd != "run")
    return fail(Error, "unknown cmd: " + Cmd);

  Out.K = FleetCommand::Kind::Run;
  RunSpec &R = Out.Run;
  for (const auto &[Key, V] : Obj) {
    if (Key == "cmd")
      continue;
    if (Key == "shard" && V.K == Value::Num && toInteger(V.N, R.Shard))
      ;
    else if (Key == "fingerprint" && V.K == Value::Str &&
             parseU64(V.S, R.Fingerprint))
      ;
    else if (Key == "label" && V.K == Value::Num && toInteger(V.N, R.Label))
      ;
    else if (Key == "lower" && V.K == Value::NumArray)
      R.Lower = V.A;
    else if (Key == "upper" && V.K == Value::NumArray)
      R.Upper = V.A;
    else if (Key == "delta" && V.K == Value::Num)
      R.Delta = V.N;
    else if (Key == "budget" && V.K == Value::Num)
      R.BudgetSeconds = V.N;
    else if (Key == "maxdepth" && V.K == Value::Num &&
             toInteger(V.N, R.MaxDepth))
      ;
    else if (Key == "pgd_steps" && V.K == Value::Num &&
             toInteger(V.N, R.PgdSteps))
      ;
    else if (Key == "pgd_restarts" && V.K == Value::Num &&
             toInteger(V.N, R.PgdRestarts))
      ;
    else if (Key == "pgd_step_scale" && V.K == Value::Num)
      R.PgdStepScale = V.N;
    else if (Key == "optimizer" && V.K == Value::Str)
      R.Optimizer = V.S;
    else if (Key == "use_cex_search" && V.K == Value::Bool)
      R.UseCexSearch = V.B;
    else if (Key == "seed" && V.K == Value::Str && parseU64(V.S, R.Seed))
      ;
    else if (Key == "order" && V.K == Value::Str)
      R.Order = V.S;
    else if (Key == "precision" && V.K == Value::Str)
      R.Precision = V.S;
    else if (Key == "checkpoint" && V.K == Value::Str)
      R.CheckpointText = V.S;
    else
      return fail(Error, "unknown or mistyped run key: " + Key);
  }
  if (R.Lower.empty() || R.Lower.size() != R.Upper.size())
    return fail(Error, "run needs matching \"lower\"/\"upper\"");
  if (R.CheckpointText.empty())
    return fail(Error, "run needs \"checkpoint\"");
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
  if (Ev != "done")
    return fail(Error, "unknown event: " + Ev);

  Out.K = FleetEvent::Kind::Done;
  bool HaveStats = false;
  for (const auto &[Key, V] : Obj) {
    if (Key == "event")
      continue;
    if (Key == "shard" && V.K == Value::Num && toInteger(V.N, Out.Shard))
      ;
    else if (Key == "outcome" && V.K == Value::Str)
      Out.Outcome = V.S;
    else if (Key == "cex" && V.K == Value::NumArray)
      Out.Cex = V.A;
    else if (Key == "objective" && V.K == Value::Num)
      Out.Objective = V.N;
    else if (Key == "stats" && V.K == Value::NumArray)
      HaveStats = statsFromArray(V.A, Out.Stats);
    else if (Key == "expanded_here" && V.K == Value::Num &&
             toInteger(V.N, Out.ExpandedHere))
      ;
    else if (Key == "checkpoint" && V.K == Value::Str)
      Out.CheckpointText = V.S;
    else
      return fail(Error, "unknown or mistyped done key: " + Key);
  }
  if (Out.Outcome != "verified" && Out.Outcome != "falsified" &&
      Out.Outcome != "timeout")
    return fail(Error, "done needs a valid \"outcome\"");
  if (!HaveStats)
    return fail(Error, "done needs a 13-element \"stats\"");
  return Out;
}

//===----------------------------------------------------------------------===//
// Config transport
//===----------------------------------------------------------------------===//

VerifierConfig charon::configFromRunSpec(const RunSpec &Spec) {
  VerifierConfig C;
  C.Delta = Spec.Delta;
  C.TimeLimitSeconds = Spec.BudgetSeconds;
  C.MaxDepth = Spec.MaxDepth;
  C.Pgd.Steps = Spec.PgdSteps;
  C.Pgd.Restarts = Spec.PgdRestarts;
  C.Pgd.StepScale = Spec.PgdStepScale;
  C.Optimizer =
      Spec.Optimizer == "fgsm" ? CexSearchKind::Fgsm : CexSearchKind::Pgd;
  C.UseCounterexampleSearch = Spec.UseCexSearch;
  C.Seed = Spec.Seed;
  C.SearchOrder = Spec.Order == "best-first" ? FrontierOrder::BestFirst
                                             : FrontierOrder::Lifo;
  C.Precision = Spec.Precision == "float32" ? KernelPrecision::Float32
                                            : KernelPrecision::Double;
  return C;
}

RunSpec charon::runSpecFromJob(const VerifierConfig &Config,
                               const RobustnessProperty &Prop,
                               uint64_t Fingerprint) {
  RunSpec Spec;
  Spec.Fingerprint = Fingerprint;
  Spec.Label = Prop.TargetClass;
  Spec.Lower.resize(Prop.Region.dim());
  Spec.Upper.resize(Prop.Region.dim());
  for (size_t I = 0; I < Prop.Region.dim(); ++I) {
    Spec.Lower[I] = Prop.Region.lower()[I];
    Spec.Upper[I] = Prop.Region.upper()[I];
  }
  Spec.Delta = Config.Delta;
  Spec.BudgetSeconds = Config.TimeLimitSeconds;
  Spec.MaxDepth = Config.MaxDepth;
  Spec.PgdSteps = Config.Pgd.Steps;
  Spec.PgdRestarts = Config.Pgd.Restarts;
  Spec.PgdStepScale = Config.Pgd.StepScale;
  Spec.Optimizer = Config.Optimizer == CexSearchKind::Fgsm ? "fgsm" : "pgd";
  Spec.UseCexSearch = Config.UseCounterexampleSearch;
  Spec.Seed = Config.Seed;
  Spec.Order =
      Config.SearchOrder == FrontierOrder::BestFirst ? "best-first" : "lifo";
  Spec.Precision =
      Config.Precision == KernelPrecision::Float32 ? "float32" : "double";
  return Spec;
}

bool charon::configTransportable(const VerifierConfig &Config) {
  // Process-local hooks the wire cannot carry. Trace is not digested, so
  // it needs an explicit check; the others are also caught by the digest
  // comparison below, listed here for clarity.
  if (Config.Trace || Config.CompleteFallback || Config.Cegar.Enabled)
    return false;
  RobustnessProperty Probe;
  Probe.Region = Box(Vector(std::vector<double>{0.0}),
                     Vector(std::vector<double>{1.0}));
  RunSpec Spec = runSpecFromJob(Config, Probe, 0);
  return digestVerifierConfigSemantics(configFromRunSpec(Spec)) ==
         digestVerifierConfigSemantics(Config);
}
