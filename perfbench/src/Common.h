//===- Common.h - Shared machinery of the end-to-end benchmark ----*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, the result line, percentiles, the correctness gate, the span
/// log of the traced run, and the network set every workload loads. All
/// timing is taken here, outside the library, around its public entry
/// points.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "core/Policy.h"
#include "core/Verifier.h"
#include "data/Benchmarks.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {
using namespace charon;

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string DataDir = ".bench_build/perfbench";
  std::string WorkerBinary;
  std::string RepoRoot = ".";
  /// Self-test only: "flip" reports the first decided verdict flipped,
  /// "cex" moves the first counterexample out of its region. Either must
  /// make the correctness gate fail.
  std::string Tamper;
};

/// Seconds on a process-wide steady clock.
double now();

/// The run's result: metrics in print order plus the correctness tally.
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Prints a named figure on its own line without adding it to the result
  /// line (workload-specific detail and the per-layer breakdown).
  void detail(const std::string &Name, double Value, const std::string &Unit);
  /// One operation passed through the correctness gate.
  void attempt(long N = 1) { Attempted += N; }
  /// One gated operation failed; \p Why goes to stderr.
  void fail(const std::string &Why);
  long failed() const { return Failed; }
  /// Prints the final JSON line.
  void print() const;

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Metrics;
  long Attempted = 0;
  long Failed = 0;
};

/// Nearest-rank percentile (P in [0, 100]) of \p V; 0 for an empty input.
double percentile(std::vector<double> V, double P);

double median(std::vector<double> V);

/// Peak resident set of this process plus its largest reaped child, MB.
double peakRssMb();

//===----------------------------------------------------------------------===//
// Networks and pinned inputs
//===----------------------------------------------------------------------===//

/// The trained networks every workload draws from: the seven evaluation
/// suites of Sec. 7 (a property pool of \c PoolPerSuite each) and the
/// ACAS-like network with its pinned property set.
struct NetworkSet {
  std::vector<BenchmarkSuite> Suites;
  BenchmarkSuite Acas;
  const BenchmarkSuite &suite(const std::string &Name) const;
};

inline constexpr int PoolPerSuite = 40;
inline constexpr int AcasProperties = 8;
inline constexpr uint64_t AcasSeed = 321;

/// Loads (or, in the prepare step, trains) every network from the
/// benchmark's own cache under \p DataDir.
NetworkSet loadNetworks(const std::string &DataDir);

/// Imports the golden ONNX fixtures and checks each against its `.net`
/// twin; mismatches are reported as failures. Returns seconds spent in the
/// ONNX and `.net` loaders.
double importOnnxFixtures(const Options &Opt, Report &Rep);

/// A pinned verdict per named property (perfbench/expected_verdicts.txt:
/// "name verdict nodes" lines).
/// Timeout entries constrain nothing.
class ExpectedVerdicts {
public:
  bool load(const std::string &Path);
  /// True when \p Got contradicts the pinned verdict of \p Name.
  bool contradicts(const std::string &Name, Outcome Got) const;
  bool has(const std::string &Name) const { return Map.count(Name) != 0; }
  Outcome get(const std::string &Name) const { return Map.at(Name).first; }
  /// Proof-tree nodes the pinned run expanded (a count, not a time).
  long nodes(const std::string &Name) const { return Map.at(Name).second; }

private:
  std::map<std::string, std::pair<Outcome, long>> Map;
};

/// Parses "verified"/"falsified"/"timeout".
bool parseOutcome(const std::string &S, Outcome &Out);

/// The shipped default policy: never the cached policy file.
inline VerificationPolicy pinnedPolicy() { return VerificationPolicy(); }

//===----------------------------------------------------------------------===//
// Correctness gate
//===----------------------------------------------------------------------===//

/// Applies the self-test tamper (if any) to the first eligible result.
void applyTamper(Options &Opt, VerifyResult &R);

/// Time and size of the certificates checked by gateVerdict.
struct CertCost {
  double Seconds = 0.0;
  double Bytes = 0.0;
};

/// Gates one verdict: a Falsified counterexample must lie in the region
/// and meet delta; a certificate, when present, must be accepted by the
/// checker; a decided verdict must not contradict \p Expected. Returns
/// false (after Report::fail) on any violation. When \p Cost is given,
/// certificate-check time and bytes are added to it.
bool gateVerdict(const Network &Net, const RobustnessProperty &Prop,
                 const VerifyResult &R, double Delta, Report &Rep,
                 const ExpectedVerdicts *Expected = nullptr,
                 CertCost *Cost = nullptr);

//===----------------------------------------------------------------------===//
// Traced-run span log
//===----------------------------------------------------------------------===//

/// One span: a named interval, the span that caused it, and the operation
/// (property or request) it belongs to.
struct Span {
  std::string Name;
  double Start = 0.0;
  double End = 0.0;
  long Parent = -1;
  long Op = -1;
  long Thread = 0;
};

/// In-memory span store, written out when the run ends.
class SpanLog {
public:
  long add(Span S);
  /// Overwrites span \p Id (a span opened before its end was known).
  void replace(long Id, Span S);
  /// Installs a trace sink that turns every engine event into a child span
  /// of \p Parent (end = receipt time, start = end - Seconds).
  TraceSink sinkFor(long Parent, long Op);
  std::vector<Span> snapshot() const;
  /// Sum of durations and self times (duration minus covered child time)
  /// per span name.
  struct NameTotals {
    long Count = 0;
    double Seconds = 0.0;
    double SelfSeconds = 0.0;
  };
  std::map<std::string, NameTotals> totals() const;
  /// Nodes seen per thread (the sink's calling thread).
  std::map<long, long> nodesPerThread() const;
  bool write(const std::string &Path) const;
  /// CEGAR round events seen by the sinks, and their seconds.
  long Rounds = 0;
  double RoundSeconds = 0.0;

private:
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

/// Node-trace totals of a set of verify calls.
struct SearchTotals {
  long Nodes = 0;
  long Splits = 0;
  double NodeSeconds = 0.0;
  double VerifySeconds = 0.0;
};
SearchTotals searchTotals(const SpanLog &Log, const std::string &VerifyName);

/// Node seconds of the spans whose operation is in \p Ops.
double nodeSecondsOf(const SpanLog &Log, const std::vector<long> &Ops);

/// Prints the host facts: nproc, the SIMD levels and the active one, and the
/// build type. (run.py prints which pinned environment variables it
/// removed.)
void printHostFacts();

/// Hardware threads available to the run.
unsigned hostThreads();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
