//===- RequestIo.cpp - JSON-lines batch request/response protocol -------------===//

#include "service/RequestIo.h"

#include "linalg/Box.h"
#include "support/JsonLine.h"

#include <istream>

using namespace charon;
using json::ObjectWriter;
using json::toInteger;
using json::Value;

namespace {

/// Stores \p Msg as the parse error and yields the failed result.
std::nullopt_t fail(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
  return std::nullopt;
}

Vector toVector(const std::vector<double> &A) {
  return Vector(std::vector<double>(A));
}

} // namespace

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

std::optional<ServiceRequest>
charon::parseRequestLine(const std::string &Line, std::string *Error) {
  json::Object Obj;
  if (!json::parseObjectLine(Line, Obj, Error))
    return std::nullopt;

  ServiceRequest Req;
  for (const auto &[Key, V] : Obj) {
    if (Key == "network" && V.K == Value::Str)
      Req.Network = V.S;
    else if (Key == "name" && V.K == Value::Str)
      Req.Name = V.S;
    else if (Key == "label" && V.K == Value::Num && toInteger(V.N, Req.Label))
      ;
    else if (Key == "epsilon" && V.K == Value::Num)
      Req.Epsilon = V.N;
    else if (Key == "center" && V.K == Value::NumArray)
      Req.Center = toVector(V.A);
    else if (Key == "lower" && V.K == Value::NumArray)
      Req.Lower = toVector(V.A);
    else if (Key == "upper" && V.K == Value::NumArray)
      Req.Upper = toVector(V.A);
    else if (Key == "budget" && V.K == Value::Num)
      Req.BudgetSeconds = V.N;
    else if (Key == "delta" && V.K == Value::Num)
      Req.Delta = V.N;
    else if (Key == "priority" && V.K == Value::Num &&
             toInteger(V.N, Req.Priority))
      ;
    else
      return fail(Error, "unknown or mistyped key: " + Key);
  }
  if (Req.Network.empty())
    return fail(Error, "missing \"network\"");
  bool HasBall = Req.Epsilon >= 0.0 && !Req.Center.empty();
  bool HasBox = !Req.Lower.empty() || !Req.Upper.empty();
  if (HasBall == HasBox)
    return fail(Error, "give exactly one of center+epsilon or lower+upper");
  if (HasBox && Req.Lower.size() != Req.Upper.size())
    return fail(Error, "lower/upper length mismatch");
  return Req;
}

std::string charon::formatRequestLine(const ServiceRequest &Req) {
  ObjectWriter W;
  W.str("network", Req.Network);
  if (!Req.Name.empty())
    W.str("name", Req.Name);
  W.num("label", static_cast<double>(Req.Label));
  if (Req.Epsilon >= 0.0 && !Req.Center.empty())
    W.num("epsilon", Req.Epsilon).nums("center", Req.Center.data(),
                                       Req.Center.size());
  else
    W.nums("lower", Req.Lower.data(), Req.Lower.size())
        .nums("upper", Req.Upper.data(), Req.Upper.size());
  return W.num("budget", Req.BudgetSeconds)
      .num("delta", Req.Delta)
      .num("priority", Req.Priority)
      .done();
}

std::optional<RobustnessProperty>
charon::requestProperty(const ServiceRequest &Req) {
  RobustnessProperty Prop;
  Prop.TargetClass = Req.Label;
  Prop.Name = Req.Name.empty() ? Req.Network : Req.Name;
  if (Req.Epsilon >= 0.0 && !Req.Center.empty()) {
    Prop.Region = Box::linfBall(Req.Center, Req.Epsilon, 0.0, 1.0);
    return Prop;
  }
  if (Req.Lower.empty() || Req.Lower.size() != Req.Upper.size())
    return std::nullopt;
  for (size_t I = 0; I < Req.Lower.size(); ++I)
    if (Req.Lower[I] > Req.Upper[I])
      return std::nullopt;
  Prop.Region = Box(Req.Lower, Req.Upper);
  return Prop;
}

std::vector<BatchLine> charon::parseRequestBatch(std::istream &Is) {
  std::vector<BatchLine> Out;
  std::string Line;
  int LineNo = 0;
  while (std::getline(Is, Line)) {
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    BatchLine Entry;
    Entry.LineNo = LineNo;
    std::string Error;
    Entry.Request = parseRequestLine(Line, &Error);
    if (!Entry.Request)
      Entry.Error = Error.empty() ? "malformed request" : Error;
    Out.push_back(std::move(Entry));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Responses
//===----------------------------------------------------------------------===//

std::string charon::formatResponseLine(const ServiceResponse &Resp) {
  ObjectWriter W;
  W.str("name", Resp.Name)
      .str("network", Resp.Network)
      .str("outcome", toString(Resp.Result))
      .num("seconds", Resp.Seconds)
      .flag("cache_hit", Resp.CacheHit)
      .flag("cancelled", Resp.Cancelled)
      .nums("counterexample", Resp.Counterexample.data(),
            Resp.Counterexample.size());
  if (!Resp.Error.empty())
    W.str("error", Resp.Error);
  return W.done();
}

std::optional<ServiceResponse>
charon::parseResponseLine(const std::string &Line, std::string *Error) {
  json::Object Obj;
  if (!json::parseObjectLine(Line, Obj, Error))
    return std::nullopt;

  ServiceResponse Resp;
  for (const auto &[Key, V] : Obj) {
    if (Key == "name" && V.K == Value::Str)
      Resp.Name = V.S;
    else if (Key == "network" && V.K == Value::Str)
      Resp.Network = V.S;
    else if (Key == "outcome" && V.K == Value::Str) {
      if (V.S == "verified")
        Resp.Result = Outcome::Verified;
      else if (V.S == "falsified")
        Resp.Result = Outcome::Falsified;
      else if (V.S == "timeout")
        Resp.Result = Outcome::Timeout;
      else
        return fail(Error, "unknown outcome: " + V.S);
    } else if (Key == "seconds" && V.K == Value::Num)
      Resp.Seconds = V.N;
    else if (Key == "cache_hit" && V.K == Value::Bool)
      Resp.CacheHit = V.B;
    else if (Key == "cancelled" && V.K == Value::Bool)
      Resp.Cancelled = V.B;
    else if (Key == "counterexample" && V.K == Value::NumArray)
      Resp.Counterexample = toVector(V.A);
    else if (Key == "error" && V.K == Value::Str)
      Resp.Error = V.S;
    else
      return fail(Error, "unknown or mistyped key: " + Key);
  }
  return Resp;
}
