//===- Common.cpp - Shared machinery of the end-to-end benchmark ----------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "cert/CertChecker.h"
#include "cert/Certificate.h"
#include "core/Digest.h"
#include "linalg/SimdDispatch.h"
#include "nn/Io.h"
#include "onnx/OnnxImport.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>

using namespace perfbench;

namespace {
const auto ProcessStart = std::chrono::steady_clock::now();

void printNumber(std::ostream &Os, double X) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", X);
  Os << Buf;
}
} // namespace

double perfbench::now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       ProcessStart)
      .count();
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  Metrics.push_back({Name, Value, Unit});
  detail(Name, Value, Unit);
}

void Report::detail(const std::string &Name, double Value,
                    const std::string &Unit) {
  std::ostringstream Os;
  Os << "  " << Name << " = ";
  printNumber(Os, Value);
  Os << " " << Unit << "\n";
  std::cout << Os.str() << std::flush;
}

void Report::fail(const std::string &Why) {
  ++Failed;
  std::cerr << "perfbench: correctness gate: " << Why << "\n";
}

void Report::print() const {
  std::ostringstream Os;
  double Share = Attempted > 0 ? double(Failed) / double(Attempted) : 0.0;
  Os << "  failed_share = ";
  printNumber(Os, Share);
  Os << " ratio (" << Failed << " of " << Attempted << " gated operations)\n";
  Os << "{\"correct\": " << (Failed == 0 && Attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      Os << ", ";
    Os << "\"" << Metrics[I].Name << "\": {\"value\": ";
    double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : -1.0;
    printNumber(Os, V);
    Os << ", \"unit\": \"" << Metrics[I].Unit << "\"}";
  }
  Os << "}}\n";
  std::cout << Os.str() << std::flush;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P / 100.0 * double(V.size()));
  size_t Idx = Rank < 1.0 ? 0 : size_t(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::peakRssMb() {
  struct rusage Self{}, Children{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Children);
  return double(Self.ru_maxrss + Children.ru_maxrss) / 1024.0;
}

unsigned perfbench::hostThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

void perfbench::printHostFacts() {
  std::cout << "host: nproc " << hostThreads() << ", simd";
  for (kernels::SimdLevel L : kernels::availableSimdLevels())
    std::cout << " " << kernels::simdLevelName(L);
  std::cout << " (active " << kernels::simdLevelName(kernels::simdLevel())
            << "), build " << PERFBENCH_BUILD_TYPE << "\n";
}

//===----------------------------------------------------------------------===//
// Networks and pinned inputs
//===----------------------------------------------------------------------===//

const BenchmarkSuite &NetworkSet::suite(const std::string &Name) const {
  for (const BenchmarkSuite &S : Suites)
    if (S.Name == Name)
      return S;
  std::cerr << "perfbench: unknown suite " << Name << "\n";
  std::exit(2);
}

NetworkSet perfbench::loadNetworks(const std::string &DataDir) {
  NetworkSet Set;
  for (SuiteConfig SC : paperSuiteConfigs(PoolPerSuite)) {
    SC.CacheDir = DataDir;
    Set.Suites.push_back(makeImageSuite(SC));
  }
  Set.Acas = makeAcasSuite(AcasProperties, AcasSeed, DataDir);
  return Set;
}

double perfbench::importOnnxFixtures(const Options &Opt, Report &Rep) {
  double Start = now();
  for (const char *Name : {"mixed", "mlp_sigmoid"}) {
    std::string Base = Opt.RepoRoot + "/tests/onnx/fixtures/" + Name;
    onnx::ImportResult Imported = onnx::importModelFile(Base + ".onnx");
    std::optional<Network> Twin = loadNetworkFile(Base + ".net");
    Rep.attempt();
    if (!Imported.Net || !Twin) {
      Rep.fail("cannot load fixture " + Base + ": " + Imported.Error);
      continue;
    }
    if (fingerprintNetwork(*Imported.Net) != fingerprintNetwork(*Twin))
      Rep.fail("ONNX fixture " + Base + " differs from its .net twin");
  }
  return now() - Start;
}

bool perfbench::parseOutcome(const std::string &S, Outcome &Out) {
  if (S == "verified")
    Out = Outcome::Verified;
  else if (S == "falsified")
    Out = Outcome::Falsified;
  else if (S == "timeout")
    Out = Outcome::Timeout;
  else
    return false;
  return true;
}

bool ExpectedVerdicts::load(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Ls(Line);
    std::string Name, Verdict;
    long Nodes = 0;
    Outcome O;
    if (!(Ls >> Name >> Verdict >> Nodes) || !parseOutcome(Verdict, O))
      return false;
    Map[Name] = {O, Nodes};
  }
  return !Map.empty();
}

bool ExpectedVerdicts::contradicts(const std::string &Name,
                                   Outcome Got) const {
  auto It = Map.find(Name);
  if (It == Map.end() || It->second.first == Outcome::Timeout ||
      Got == Outcome::Timeout)
    return false;
  return It->second.first != Got;
}

//===----------------------------------------------------------------------===//
// Correctness gate
//===----------------------------------------------------------------------===//

void perfbench::applyTamper(Options &Opt, VerifyResult &R) {
  if (Opt.Tamper == "flip" && R.Result != Outcome::Timeout) {
    // Report the opposite verdict, keeping the evidence of the real one.
    R.Result = R.Result == Outcome::Verified ? Outcome::Falsified
                                             : Outcome::Verified;
    Opt.Tamper.clear();
  } else if (Opt.Tamper == "cex" && R.Result == Outcome::Falsified &&
             !R.Counterexample.empty()) {
    R.Counterexample[0] += 2.0; // inputs live in [0, 1]
    Opt.Tamper.clear();
  }
}

bool perfbench::gateVerdict(const Network &Net, const RobustnessProperty &Prop,
                            const VerifyResult &R, double Delta, Report &Rep,
                            const ExpectedVerdicts *Expected, CertCost *Cost) {
  Rep.attempt();
  const std::string &Name = Prop.Name;
  if (R.Result == Outcome::Falsified) {
    if (R.Counterexample.size() != Prop.Region.dim() ||
        !Prop.Region.contains(R.Counterexample)) {
      Rep.fail(Name + ": counterexample outside its region");
      return false;
    }
    double F = Net.objective(R.Counterexample, Prop.TargetClass);
    if (!(F <= Delta)) {
      Rep.fail(Name + ": counterexample objective " + std::to_string(F) +
               " above delta");
      return false;
    }
  }
  if (R.Certificate && R.Result != Outcome::Timeout) {
    double Start = now();
    CertCheckReport Check = checkCertificate(Net, Prop, *R.Certificate);
    if (Cost) {
      Cost->Seconds += now() - Start;
      Cost->Bytes += double(serializeCertificate(*R.Certificate).size());
    }
    if (!Check.Accepted || R.Certificate->Verdict != R.Result) {
      Rep.fail(Name + ": certificate rejected" +
               (Check.Errors.empty() ? std::string()
                                     : ": " + Check.Errors.front()));
      return false;
    }
  }
  if (Expected && Expected->contradicts(Name, R.Result)) {
    Rep.fail(Name + ": verdict " + toString(R.Result) +
             " contradicts the pinned verdict");
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Span log
//===----------------------------------------------------------------------===//

long SpanLog::add(Span S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(std::move(S));
  return long(Spans.size()) - 1;
}

void SpanLog::replace(long Id, Span S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[size_t(Id)] = std::move(S);
}

TraceSink SpanLog::sinkFor(long Parent, long Op) {
  return [this, Parent, Op](const TraceEvent &E) {
    double End = now();
    Span S;
    S.Start = End - E.Seconds;
    S.End = End;
    S.Parent = Parent;
    S.Op = Op;
    S.Thread = long(std::hash<std::thread::id>()(std::this_thread::get_id()) &
                    0x7fffffff);
    bool Round = std::string(E.Kind) == "cegar_round";
    S.Name = Round ? "cegar_round" : std::string("node.") + E.Outcome;
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Round) {
      ++Rounds;
      RoundSeconds += E.Seconds;
    }
    Spans.push_back(std::move(S));
  };
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

std::map<std::string, SpanLog::NameTotals> SpanLog::totals() const {
  std::vector<Span> All = snapshot();
  std::vector<double> Covered(All.size(), 0.0);
  for (const Span &S : All)
    if (S.Parent >= 0 && size_t(S.Parent) < All.size())
      Covered[size_t(S.Parent)] += S.End - S.Start;
  std::map<std::string, NameTotals> Out;
  for (size_t I = 0; I < All.size(); ++I) {
    NameTotals &T = Out[All[I].Name];
    double D = All[I].End - All[I].Start;
    ++T.Count;
    T.Seconds += D;
    T.SelfSeconds += std::max(0.0, D - Covered[I]);
  }
  return Out;
}

std::map<long, long> SpanLog::nodesPerThread() const {
  std::map<long, long> Out;
  for (const Span &S : snapshot())
    if (S.Name.rfind("node.", 0) == 0)
      ++Out[S.Thread];
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  std::ofstream Os(Path);
  for (const Span &S : snapshot()) {
    Os << "{\"name\":\"" << S.Name << "\",\"start\":";
    printNumber(Os, S.Start);
    Os << ",\"end\":";
    printNumber(Os, S.End);
    Os << ",\"parent\":" << S.Parent << ",\"op\":" << S.Op
       << ",\"thread\":" << S.Thread << "}\n";
  }
  return bool(Os);
}

SearchTotals perfbench::searchTotals(const SpanLog &Log,
                                     const std::string &VerifyName) {
  SearchTotals T;
  for (const auto &[Name, N] : Log.totals()) {
    if (Name == VerifyName)
      T.VerifySeconds += N.Seconds;
    if (Name.rfind("node.", 0) != 0 || Name == "node.aborted")
      continue;
    T.Nodes += N.Count;
    T.NodeSeconds += N.Seconds;
    if (Name == "node.split")
      T.Splits += N.Count;
  }
  return T;
}

double perfbench::nodeSecondsOf(const SpanLog &Log,
                                const std::vector<long> &Ops) {
  std::vector<long> Sorted = Ops;
  std::sort(Sorted.begin(), Sorted.end());
  double Sum = 0.0;
  for (const Span &S : Log.snapshot())
    if (S.Name.rfind("node.", 0) == 0 && S.Name != "node.aborted" &&
        std::binary_search(Sorted.begin(), Sorted.end(), S.Op))
      Sum += S.End - S.Start;
  return Sum;
}
