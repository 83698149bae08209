//===- FleetTests.cpp - fleet protocol, worker, and coordinator tests --------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Three layers, bottom up: the JSONL protocol (expand/expanded round-trips
// of every field, non-finite and malformed-line rejection, config
// transportability), a live charon_worker child driven directly over its
// pipes (ping, malformed-line recovery, node expansions bit-identical to
// the in-process SearchEngine::expandNode), and the FleetCoordinator
// against the serial verifier (bit-identical verdicts at 1/2/4 workers,
// node replay under a chaos kill, inline fallback, resumable fleet
// timeouts, checkable certificates, traced jobs on the workers).
//
// The worker-process tests need the built charon_worker binary; ctest
// exports its path as CHARON_WORKER_BIN (see tests/CMakeLists.txt). When
// the variable is missing the process-level tests skip rather than fail,
// so the protocol layer stays testable in isolation.
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetCoordinator.h"
#include "fleet/FleetProtocol.h"
#include "fleet/WorkerProcess.h"

#include "cert/CertChecker.h"
#include "core/Digest.h"
#include "data/Benchmarks.h"
#include "nn/Io.h"
#include "search/Checkpoint.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <sstream>

using namespace charon;

namespace {

constexpr double BudgetSeconds = 3.0;
constexpr const char *CacheDir = "/tmp/charon-test-networks";

const char *workerBinary() { return std::getenv("CHARON_WORKER_BIN"); }

bool sameVector(const Vector &A, const Vector &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I] != B[I])
      return false;
  return true;
}

bool sameBits(double A, double B) { return std::memcmp(&A, &B, sizeof A) == 0; }

bool sameBits(const Vector &A, const Vector &B) {
  return A.size() == B.size() &&
         (A.size() == 0 ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

/// Every field of two expansions bit for bit, except the wall-clock ones.
void expectSameExpansion(const NodeExpansion &A, const NodeExpansion &B) {
  EXPECT_EQ(A.Result, B.Result);
  EXPECT_TRUE(sameBits(A.Cex, B.Cex));
  EXPECT_TRUE(sameBits(A.CexObjective, B.CexObjective));
  EXPECT_EQ(A.Split.Dim, B.Split.Dim);
  EXPECT_TRUE(sameBits(A.Split.Cut, B.Split.Cut));
  EXPECT_TRUE(sameBits(A.XStar, B.XStar));
  EXPECT_EQ(A.DomainChosen, B.DomainChosen);
  EXPECT_TRUE(A.Domain == B.Domain);
  EXPECT_EQ(A.MarginKnown, B.MarginKnown);
  EXPECT_TRUE(sameBits(A.Margin, B.Margin));
  EXPECT_TRUE(sameBits(A.PgdObjective, B.PgdObjective));
  for (long VerifyStats::*Counter : StatsCounters)
    EXPECT_EQ(A.Stats.*Counter, B.Stats.*Counter);
}

//===----------------------------------------------------------------------===//
// Protocol layer
//===----------------------------------------------------------------------===//

ExpandSpec sampleSpec() {
  ExpandSpec Spec;
  Spec.Fingerprint = 0xdeadbeefcafef00dull; // needs the full 64 bits
  Spec.Label = 3;
  Spec.Region = Box(Vector{0.0, 0.25, -1.5}, Vector{1.0, 0.75, 2.5});
  Spec.Warm = Vector{0.5, -0.0, 0.1};
  Spec.PathSeed = 0xfedcba9876543210ull;
  Spec.BudgetSeconds = 12.5;
  VerifierConfig &C = Spec.Config;
  C.Delta = 1e-5;
  C.MaxDepth = 123;
  C.Pgd.Steps = 17;
  C.Pgd.Restarts = 5;
  C.Pgd.StepScale = 0.4;
  C.Optimizer = CexSearchKind::Fgsm;
  C.UseCounterexampleSearch = false;
  C.Seed = 0xffffffffffffffffull;
  C.SearchOrder = FrontierOrder::BestFirst;
  C.Precision = KernelPrecision::Float32;
  return Spec;
}

TEST(FleetProtocolTest, ExpandCommandRoundTrips) {
  ExpandSpec Spec = sampleSpec();
  std::string Err;
  auto Cmd = parseCommandLine(formatExpandCommand(Spec), &Err);
  ASSERT_TRUE(Cmd.has_value()) << Err;
  ASSERT_EQ(Cmd->K, FleetCommand::Kind::Expand);
  const ExpandSpec &R = Cmd->Expand;
  EXPECT_EQ(R.Fingerprint, Spec.Fingerprint);
  EXPECT_EQ(R.Label, Spec.Label);
  EXPECT_TRUE(sameBits(R.Region.lower(), Spec.Region.lower()));
  EXPECT_TRUE(sameBits(R.Region.upper(), Spec.Region.upper()));
  EXPECT_TRUE(sameBits(R.Warm, Spec.Warm)); // -0.0 keeps its sign
  EXPECT_EQ(R.PathSeed, Spec.PathSeed);
  EXPECT_EQ(R.BudgetSeconds, Spec.BudgetSeconds);
  const VerifierConfig &C = R.Config, &W = Spec.Config;
  EXPECT_EQ(C.Delta, W.Delta);
  EXPECT_EQ(C.MaxDepth, W.MaxDepth);
  EXPECT_EQ(C.Pgd.Steps, W.Pgd.Steps);
  EXPECT_EQ(C.Pgd.Restarts, W.Pgd.Restarts);
  EXPECT_EQ(C.Pgd.StepScale, W.Pgd.StepScale);
  EXPECT_EQ(C.Optimizer, W.Optimizer);
  EXPECT_EQ(C.UseCounterexampleSearch, W.UseCounterexampleSearch);
  EXPECT_EQ(C.Seed, W.Seed);
  EXPECT_EQ(C.SearchOrder, W.SearchOrder);
  EXPECT_EQ(C.Precision, W.Precision);
  EXPECT_EQ(digestVerifierConfigSemantics(C), digestVerifierConfigSemantics(W));

  // No warm witness (the root) round-trips as empty.
  Spec.Warm = Vector();
  auto Root = parseCommandLine(formatExpandCommand(Spec));
  ASSERT_TRUE(Root.has_value());
  EXPECT_EQ(Root->Expand.Warm.size(), 0u);
}

TEST(FleetProtocolTest, ExpandedEventRoundTripsEveryKind) {
  NodeExpansion Split;
  Split.Result = NodeExpansion::Kind::Split;
  Split.Split = {2, 0.625};
  Split.XStar = Vector{0.125, -0.0, 0.875};
  Split.Domain = {BaseDomainKind::Zonotope, 3};
  Split.DomainChosen = true;
  Split.Margin = -3.5e-4;
  Split.MarginKnown = true;
  Split.PgdObjective = 0.1 + 0.2; // not exactly representable in decimal
  long Counter = 1;
  for (long VerifyStats::*Field : StatsCounters)
    Split.Stats.*Field = Counter++ * 1000003;
  Split.Stats.Seconds = 0.75;
  Split.Seconds = 0.0125;

  NodeExpansion Falsified;
  Falsified.Result = NodeExpansion::Kind::Falsified;
  Falsified.Cex = Vector{0.25, 0.5};
  Falsified.CexObjective = -1e-300;
  Falsified.PgdObjective = -1e-300;

  NodeExpansion Verified = Split;
  Verified.Result = NodeExpansion::Kind::Verified;
  Verified.Split = SplitChoice();
  Verified.XStar = Vector();
  Verified.Domain = {BaseDomainKind::Interval, 1};

  NodeExpansion Aborted;
  Aborted.Result = NodeExpansion::Kind::Aborted;
  Aborted.Domain = {BaseDomainKind::Polyhedra, 1};
  Aborted.DomainChosen = true;

  for (const NodeExpansion *E : {&Split, &Falsified, &Verified, &Aborted}) {
    std::string Err;
    auto Back = parseEventLine(formatExpandedEvent(*E), &Err);
    ASSERT_TRUE(Back.has_value()) << Err;
    ASSERT_EQ(Back->K, FleetEvent::Kind::Expanded);
    expectSameExpansion(Back->Expansion, *E);
    EXPECT_EQ(Back->Expansion.Stats.Seconds, E->Stats.Seconds);
    EXPECT_EQ(Back->Expansion.Seconds, E->Seconds);
  }
}

TEST(FleetProtocolTest, NonFiniteValuesNeverCrossTheWire) {
  const double Nan = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  std::string Err;

  ExpandSpec Spec = sampleSpec();
  Spec.Warm[1] = Nan;
  EXPECT_FALSE(parseCommandLine(formatExpandCommand(Spec), &Err).has_value());
  Spec = sampleSpec();
  Spec.Region = Box(Vector{-Inf, 0.0, 0.0}, Vector{1.0, 1.0, 1.0});
  EXPECT_FALSE(parseCommandLine(formatExpandCommand(Spec), &Err).has_value());
  Spec = sampleSpec();
  Spec.BudgetSeconds = Inf;
  EXPECT_FALSE(parseCommandLine(formatExpandCommand(Spec), &Err).has_value());
  Spec = sampleSpec();
  Spec.Config.Pgd.StepScale = Nan;
  EXPECT_FALSE(parseCommandLine(formatExpandCommand(Spec), &Err).has_value());

  NodeExpansion E;
  E.Result = NodeExpansion::Kind::Verified;
  E.Margin = Inf;
  E.MarginKnown = true;
  EXPECT_FALSE(parseEventLine(formatExpandedEvent(E), &Err).has_value());
  E.MarginKnown = false;
  E.PgdObjective = Nan;
  EXPECT_FALSE(parseEventLine(formatExpandedEvent(E), &Err).has_value());
  E.PgdObjective = 0.0;
  E.Stats.Seconds = Inf;
  EXPECT_FALSE(parseEventLine(formatExpandedEvent(E), &Err).has_value());
}

TEST(FleetProtocolTest, LoadCommandCarriesNetworkTextVerbatim) {
  std::string NetText = "charon-net 1\nlayer dense 2 3\n0.5 -0.25 \"quoted\"\n";
  auto Cmd = parseCommandLine(formatLoadCommand(77, NetText));
  ASSERT_TRUE(Cmd.has_value());
  ASSERT_EQ(Cmd->K, FleetCommand::Kind::Load);
  EXPECT_EQ(Cmd->Fingerprint, 77u);
  EXPECT_EQ(Cmd->NetworkText, NetText);
}

TEST(FleetProtocolTest, SimpleLinesRoundTrip) {
  EXPECT_EQ(parseCommandLine(formatPingCommand())->K, FleetCommand::Kind::Ping);
  EXPECT_EQ(parseCommandLine(formatQuitCommand())->K, FleetCommand::Kind::Quit);
  EXPECT_EQ(parseEventLine(formatReadyEvent())->K, FleetEvent::Kind::Ready);
  EXPECT_EQ(parseEventLine(formatPongEvent())->K, FleetEvent::Kind::Pong);
  auto Loaded = parseEventLine(formatLoadedEvent(0x8000000000000001ull));
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->Fingerprint, 0x8000000000000001ull);
  auto Error = parseEventLine(formatErrorEvent("bad \"node\"\nnews"));
  ASSERT_TRUE(Error.has_value());
  EXPECT_EQ(Error->Message, "bad \"node\"\nnews");
}

TEST(FleetProtocolTest, MalformedLinesReportAReason) {
  std::string Err;
  EXPECT_FALSE(parseCommandLine("not json at all", &Err).has_value());
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(parseCommandLine("{\"cmd\":\"warp\"}", &Err).has_value());
  EXPECT_FALSE(parseCommandLine("{\"no_cmd\":1}", &Err).has_value());
  // The retired shard protocol is gone.
  EXPECT_FALSE(parseCommandLine("{\"cmd\":\"cancel\",\"shard\":1}", &Err)
                   .has_value());
  EXPECT_FALSE(parseEventLine("{\"event\":\"???\"}", &Err).has_value());
  EXPECT_FALSE(parseEventLine("{", &Err).has_value());

  // Expand lines are checked field by field.
  std::string Good = formatExpandCommand(sampleSpec());
  auto Edit = [&](const std::string &From, const std::string &To) {
    std::string Line = Good;
    size_t At = Line.find(From);
    EXPECT_NE(At, std::string::npos) << From;
    return Line.replace(At, From.size(), To);
  };
  ASSERT_TRUE(parseCommandLine(Good).has_value());
  EXPECT_FALSE(parseCommandLine(Edit("\"delta\":1.0000000000000001e-05",
                                     "\"delta\":0"))
                   .has_value());
  EXPECT_FALSE(parseCommandLine(Edit("\"fgsm\"", "\"adam\"")).has_value());
  EXPECT_FALSE(parseCommandLine(Edit("\"upper\":[1,", "\"upper\":[-1,"))
                   .has_value()); // inverted bounds
  EXPECT_FALSE(parseCommandLine(Edit("\"warm\":[0.5,", "\"warm\":["))
                   .has_value()); // warm of the wrong dimension
  EXPECT_FALSE(parseCommandLine(Edit("\"label\":3", "\"label\":-3"))
                   .has_value());

  // An expanded event must carry exactly its kind's payload.
  NodeExpansion Split;
  Split.Result = NodeExpansion::Kind::Split;
  Split.XStar = Vector{0.5};
  std::string Line = formatExpandedEvent(Split);
  ASSERT_TRUE(parseEventLine(Line).has_value());
  Line.replace(Line.find("\"split\""), 7, "\"verified\"");
  EXPECT_FALSE(parseEventLine(Line, &Err).has_value());
}

TEST(FleetProtocolTest, ConfigTransportability) {
  VerifierConfig Plain;
  EXPECT_TRUE(configTransportable(Plain));

  VerifierConfig Tuned;
  Tuned.Delta = 1e-4;
  Tuned.Seed = 99;
  Tuned.Optimizer = CexSearchKind::Fgsm;
  Tuned.SearchOrder = FrontierOrder::BestFirst;
  Tuned.Precision = KernelPrecision::Float32;
  EXPECT_TRUE(configTransportable(Tuned));

  // The trace sink runs in the coordinator's scheduler, not in a worker.
  VerifierConfig Traced;
  Traced.Trace = [](const TraceEvent &) {};
  EXPECT_TRUE(configTransportable(Traced));

  VerifierConfig Fallback;
  Fallback.CompleteFallback = [](const Network &, const Box &, size_t) {
    return Outcome::Timeout;
  };
  EXPECT_FALSE(configTransportable(Fallback));

  VerifierConfig Cegar;
  Cegar.Cegar.Enabled = true;
  EXPECT_FALSE(configTransportable(Cegar));
}

//===----------------------------------------------------------------------===//
// A live worker over its pipes
//===----------------------------------------------------------------------===//

/// Waits up to \p TimeoutSec for the next event line from \p W.
std::optional<FleetEvent> awaitEvent(WorkerProcess &W,
                                     double TimeoutSec = 10.0) {
  std::string Line;
  if (!W.readLine(Line, TimeoutSec))
    return std::nullopt;
  std::string Err;
  auto Ev = parseEventLine(Line, &Err);
  EXPECT_TRUE(Ev.has_value()) << "unparseable event: " << Line << ": " << Err;
  return Ev;
}

class FleetWorkerTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!workerBinary())
      GTEST_SKIP() << "CHARON_WORKER_BIN not set";
    std::string Err;
    ASSERT_TRUE(Worker.spawn(workerBinary(), {}, &Err)) << Err;
    auto Ready = awaitEvent(Worker);
    ASSERT_TRUE(Ready.has_value());
    ASSERT_EQ(Ready->K, FleetEvent::Kind::Ready);
  }

  void TearDown() override { Worker.shutdown(1.0); }

  /// Ships \p Net to the worker and waits for the acknowledgement.
  void load(const Network &Net) {
    std::ostringstream NetOs;
    saveNetwork(Net, NetOs);
    uint64_t Fp = fingerprintNetwork(Net);
    ASSERT_TRUE(Worker.sendLine(formatLoadCommand(Fp, NetOs.str())));
    auto Loaded = awaitEvent(Worker);
    ASSERT_TRUE(Loaded.has_value());
    ASSERT_EQ(Loaded->K, FleetEvent::Kind::Loaded);
    EXPECT_EQ(Loaded->Fingerprint, Fp);
  }

  /// The worker's expansion of one node.
  std::optional<NodeExpansion> remoteExpand(const ExpandSpec &Spec) {
    EXPECT_TRUE(Worker.sendLine(formatExpandCommand(Spec)));
    auto Ev = awaitEvent(Worker, 4 * BudgetSeconds);
    if (!Ev || Ev->K != FleetEvent::Kind::Expanded) {
      ADD_FAILURE() << "no expanded event"
                    << (Ev ? ": " + Ev->Message : std::string());
      return std::nullopt;
    }
    return Ev->Expansion;
  }

  WorkerProcess Worker;
};

TEST_F(FleetWorkerTest, PingPong) {
  ASSERT_TRUE(Worker.sendLine(formatPingCommand()));
  auto Ev = awaitEvent(Worker);
  ASSERT_TRUE(Ev.has_value());
  EXPECT_EQ(Ev->K, FleetEvent::Kind::Pong);
}

TEST_F(FleetWorkerTest, MalformedLineYieldsErrorAndWorkerKeepsServing) {
  ASSERT_TRUE(Worker.sendLine("this is not a command"));
  auto Err = awaitEvent(Worker);
  ASSERT_TRUE(Err.has_value());
  EXPECT_EQ(Err->K, FleetEvent::Kind::Error);
  EXPECT_FALSE(Err->Message.empty());

  // The stream survives the bad line — same rule as the batch service.
  ASSERT_TRUE(Worker.sendLine(formatPingCommand()));
  auto Pong = awaitEvent(Worker);
  ASSERT_TRUE(Pong.has_value());
  EXPECT_EQ(Pong->K, FleetEvent::Kind::Pong);
}

TEST_F(FleetWorkerTest, ExpandAgainstUnloadedOrMismatchedNetworkIsAnError) {
  ExpandSpec Spec = sampleSpec();
  Spec.Fingerprint = 12345; // never loaded
  ASSERT_TRUE(Worker.sendLine(formatExpandCommand(Spec)));
  auto Ev = awaitEvent(Worker);
  ASSERT_TRUE(Ev.has_value());
  EXPECT_EQ(Ev->K, FleetEvent::Kind::Error);

  // A loaded network whose input size the node does not match.
  BenchmarkSuite Suite = makeAcasSuite(1, 321, CacheDir);
  load(Suite.Net);
  Spec.Fingerprint = fingerprintNetwork(Suite.Net);
  ASSERT_TRUE(Worker.sendLine(formatExpandCommand(Spec)));
  Ev = awaitEvent(Worker);
  ASSERT_TRUE(Ev.has_value());
  EXPECT_EQ(Ev->K, FleetEvent::Kind::Error);
}

TEST_F(FleetWorkerTest, RootAndChildExpansionsMatchInProcessBitForBit) {
  BenchmarkSuite Suite = makeAcasSuite(4, 321, CacheDir);
  load(Suite.Net);
  VerifierConfig Config;
  Config.Seed = 7;
  VerificationPolicy Policy;
  SearchEngine Engine(Suite.Net, Policy, Config);

  int Children = 0;
  for (const RobustnessProperty &Prop : Suite.Properties) {
    SCOPED_TRACE(Prop.Name);
    ProofTree Tree(Config.Seed);
    NodeId Root = Tree.addRoot(Prop.Region);
    ExpandSpec Spec;
    Spec.Fingerprint = fingerprintNetwork(Suite.Net);
    Spec.Label = Prop.TargetClass;
    Spec.Region = Prop.Region;
    Spec.PathSeed = Tree.node(Root).PathSeed;
    Spec.Config = Config;
    NodeExpansion Local =
        Engine.expandNode(Prop, Spec.Region, nullptr, Spec.PathSeed, nullptr);
    auto Remote = remoteExpand(Spec);
    ASSERT_TRUE(Remote.has_value());
    expectSameExpansion(*Remote, Local);
    if (Local.Result != NodeExpansion::Kind::Split)
      continue;

    // The lower child: split region, its own path seed, and the parent's
    // witness as warm start — every input the scheduler would send.
    auto [Lower, Upper] = Prop.Region.split(Local.Split.Dim, Local.Split.Cut);
    auto [LId, UId] =
        Tree.addChildren(Root, Lower, Upper, Local.XStar, Local.PgdObjective);
    (void)UId;
    Spec.Region = Lower;
    Spec.Warm = Local.XStar;
    Spec.PathSeed = Tree.node(LId).PathSeed;
    NodeExpansion LocalChild = Engine.expandNode(Prop, Spec.Region,
                                                 &Spec.Warm, Spec.PathSeed,
                                                 nullptr);
    auto RemoteChild = remoteExpand(Spec);
    ASSERT_TRUE(RemoteChild.has_value());
    expectSameExpansion(*RemoteChild, LocalChild);
    ++Children;
  }
  EXPECT_GE(Children, 1) << "no ACAS root split; the child leg never ran";
}

//===----------------------------------------------------------------------===//
// Coordinator vs. serial verifier
//===----------------------------------------------------------------------===//

class FleetIdentityTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!workerBinary())
      GTEST_SKIP() << "CHARON_WORKER_BIN not set";
  }

  FleetConfig fleetConfig(unsigned Workers) {
    FleetConfig FC;
    FC.WorkerBinary = workerBinary();
    FC.Workers = Workers;
    return FC;
  }
};

TEST_F(FleetIdentityTest, VerdictsMatchSerialAtOneTwoAndFourWorkers) {
  BenchmarkSuite Suite = makeAcasSuite(4, 321, CacheDir);
  VerifierConfig Config;
  Config.Seed = 7;
  Config.TimeLimitSeconds = BudgetSeconds;
  Verifier V(Suite.Net, VerificationPolicy(), Config);

  std::vector<VerifyResult> Serial;
  for (const RobustnessProperty &Prop : Suite.Properties)
    Serial.push_back(V.verify(Prop));

  int Compared = 0;
  for (unsigned Workers : {1u, 2u, 4u}) {
    FleetCoordinator Fleet(VerificationPolicy(), fleetConfig(Workers));
    for (size_t I = 0; I < Suite.Properties.size(); ++I) {
      SCOPED_TRACE(Suite.Properties[I].Name + " workers=" +
                   std::to_string(Workers));
      FleetJobReport Report;
      VerifyResult R = Fleet.verify(Suite.Net, Suite.Properties[I], Config,
                                    nullptr, &Report);
      EXPECT_FALSE(Report.Inline) << "transportable config must not fall back";
      // Timeouts are wall-clock races; only decided runs are comparable.
      if (Serial[I].Result == Outcome::Timeout || R.Result == Outcome::Timeout)
        continue;
      ++Compared;
      EXPECT_EQ(R.Result, Serial[I].Result);
      EXPECT_EQ(R.ObjectiveAtCex, Serial[I].ObjectiveAtCex);
      EXPECT_TRUE(sameVector(R.Counterexample, Serial[I].Counterexample));
      if (Serial[I].Result == Outcome::Verified) {
        // Verified runs expand exactly the serial node set, so the summed
        // counters agree; falsified fleet runs may add speculative work.
        EXPECT_EQ(R.Stats.NodesExpanded, Serial[I].Stats.NodesExpanded);
        EXPECT_EQ(R.Stats.Splits, Serial[I].Stats.Splits);
        EXPECT_EQ(R.Stats.PgdCalls, Serial[I].Stats.PgdCalls);
      }
    }
  }
  EXPECT_GE(Compared, 6) << "too few properties decided within budget";
}

TEST_F(FleetIdentityTest, SurvivesAWorkerKillWithIdenticalVerdict) {
  BenchmarkSuite Suite = makeAcasSuite(4, 321, CacheDir);
  VerifierConfig Config;
  Config.Seed = 7;
  Config.TimeLimitSeconds = BudgetSeconds;
  Verifier V(Suite.Net, VerificationPolicy(), Config);

  FleetConfig FC = fleetConfig(2);
  FC.ChaosKillAfterDispatches = 0; // murder the first dispatched worker
  FleetCoordinator Fleet(VerificationPolicy(), FC);

  long Restarts = 0;
  int Compared = 0;
  for (const RobustnessProperty &Prop : Suite.Properties) {
    SCOPED_TRACE(Prop.Name);
    VerifyResult Serial = V.verify(Prop);
    FleetJobReport Report;
    VerifyResult R = Fleet.verify(Suite.Net, Prop, Config, nullptr, &Report);
    Restarts += Report.Restarts;
    if (Serial.Result == Outcome::Timeout || R.Result == Outcome::Timeout)
      continue;
    ++Compared;
    EXPECT_EQ(R.Result, Serial.Result);
    EXPECT_EQ(R.ObjectiveAtCex, Serial.ObjectiveAtCex);
    EXPECT_TRUE(sameVector(R.Counterexample, Serial.Counterexample));
  }
  EXPECT_GE(Compared, 1);
  // The chaos hook fires exactly once per coordinator; the requeue path
  // must have run (and is also counted in the cumulative stats).
  EXPECT_GE(Restarts, 1);
  EXPECT_GE(Fleet.stats().WorkerRestarts, 1);
}

TEST_F(FleetIdentityTest, NonTransportableConfigRunsInline) {
  BenchmarkSuite Suite = makeAcasSuite(1, 321, CacheDir);
  const RobustnessProperty &Prop = Suite.Properties.front();
  VerifierConfig Config;
  Config.Seed = 7;
  Config.TimeLimitSeconds = BudgetSeconds;
  Config.Cegar.Enabled = true; // process-local: cannot cross the wire

  FleetCoordinator Fleet(VerificationPolicy(), fleetConfig(2));
  FleetJobReport Report;
  VerifyResult R = Fleet.verify(Suite.Net, Prop, Config, nullptr, &Report);
  EXPECT_TRUE(Report.Inline);
  EXPECT_GE(Fleet.stats().InlineFallbacks, 1);

  Verifier V(Suite.Net, VerificationPolicy(), Config);
  VerifyResult Serial = V.verify(Prop);
  if (Serial.Result != Outcome::Timeout && R.Result != Outcome::Timeout) {
    EXPECT_EQ(R.Result, Serial.Result);
    EXPECT_TRUE(sameVector(R.Counterexample, Serial.Counterexample));
  }
}

TEST(FleetFallbackTest, UnrunnableWorkerBinaryExpandsInProcess) {
  // Every spawn dies at exec, so each seat breaks after three deaths and
  // the lanes expand their nodes in process — same verdict, no hang.
  BenchmarkSuite Suite = makeAcasSuite(1, 321, CacheDir);
  const RobustnessProperty &Prop = Suite.Properties.front();
  VerifierConfig Config;
  Config.Seed = 7;
  Config.TimeLimitSeconds = BudgetSeconds;

  FleetConfig FC;
  FC.WorkerBinary = "/nonexistent/charon_worker";
  FC.Workers = 2;
  FleetCoordinator Fleet(VerificationPolicy(), FC);
  FleetJobReport Report;
  VerifyResult R = Fleet.verify(Suite.Net, Prop, Config, nullptr, &Report);
  EXPECT_FALSE(Report.Inline);
  EXPECT_EQ(Report.Restarts, 6); // three deaths per seat, then broken
  EXPECT_EQ(Fleet.stats().WorkerRestarts, 6);

  VerifyResult Serial = Verifier(Suite.Net, VerificationPolicy(), Config)
                            .verify(Prop);
  if (Serial.Result != Outcome::Timeout && R.Result != Outcome::Timeout) {
    EXPECT_EQ(R.Result, Serial.Result);
    EXPECT_EQ(R.ObjectiveAtCex, Serial.ObjectiveAtCex);
    EXPECT_TRUE(sameVector(R.Counterexample, Serial.Counterexample));
  }
}

TEST_F(FleetIdentityTest, FleetTimeoutCheckpointResumesSerially) {
  BenchmarkSuite Suite = makeAcasSuite(4, 321, CacheDir);
  VerifierConfig Tight;
  Tight.Seed = 7;
  Tight.TimeLimitSeconds = 0.05; // force an interruption on hard properties

  FleetCoordinator Fleet(VerificationPolicy(), fleetConfig(2));
  for (const RobustnessProperty &Prop : Suite.Properties) {
    VerifyResult R = Fleet.verify(Suite.Net, Prop, Tight);
    if (R.Result != Outcome::Timeout)
      continue;
    // A fleet timeout must hand back a resumable checkpoint exactly like
    // the serial engine's: correct digests, and the serial verifier picks
    // it up (rather than restarting) under a bigger budget.
    ASSERT_TRUE(R.Checkpoint != nullptr);
    EXPECT_EQ(R.Checkpoint->NetworkFingerprint,
              fingerprintNetwork(Suite.Net));
    EXPECT_EQ(R.Checkpoint->PropertyDigest, digestProperty(Prop));
    EXPECT_EQ(R.Checkpoint->ConfigDigest,
              digestVerifierConfigSemantics(Tight));
    EXPECT_FALSE(R.Checkpoint->Open.empty());

    VerifierConfig Generous = Tight;
    Generous.TimeLimitSeconds = BudgetSeconds;
    Verifier V(Suite.Net, VerificationPolicy(), Generous);
    VerifyResult Resumed = V.verify(Prop, R.Checkpoint.get());
    if (Resumed.Result == Outcome::Falsified) {
      EXPECT_TRUE(Prop.Region.contains(Resumed.Counterexample, 1e-12));
      EXPECT_LE(Suite.Net.objective(Resumed.Counterexample, Prop.TargetClass),
                Generous.Delta);
    }
    // The resumed run continues the interrupted search: its cumulative
    // counters include the fleet's committed expansions.
    EXPECT_GE(Resumed.Stats.NodesExpanded, R.Stats.NodesExpanded);
    return; // one resumable timeout is the whole point
  }
  GTEST_SKIP() << "no property timed out under the tight budget";
}

TEST_F(FleetIdentityTest, DecidedVerdictsCarryCheckableCertificates) {
  BenchmarkSuite Suite = makeAcasSuite(4, 321, CacheDir);
  VerifierConfig Config;
  Config.Seed = 7;
  Config.TimeLimitSeconds = BudgetSeconds;
  Config.EmitCertificate = true;

  FleetCoordinator Fleet(VerificationPolicy(), fleetConfig(2));
  int Checked = 0;
  for (const RobustnessProperty &Prop : Suite.Properties) {
    SCOPED_TRACE(Prop.Name);
    VerifyResult R = Fleet.verify(Suite.Net, Prop, Config);
    if (R.Result == Outcome::Timeout)
      continue;
    // The coordinator holds the whole proof tree, so Verified certifies
    // too — not only Falsified.
    ASSERT_TRUE(R.Certificate != nullptr) << toString(R.Result);
    EXPECT_EQ(R.Certificate->Verdict, R.Result);
    CertCheckReport Check = checkCertificate(Suite.Net, Prop, *R.Certificate);
    EXPECT_TRUE(Check.Accepted)
        << (Check.Errors.empty() ? "" : Check.Errors.front());
    ++Checked;
  }
  EXPECT_GE(Checked, 2) << "too few properties decided within budget";
}

TEST_F(FleetIdentityTest, TracedConfigRunsOnTheWorkers) {
  BenchmarkSuite Suite = makeAcasSuite(4, 321, CacheDir);
  const RobustnessProperty &Prop = Suite.Properties.front();
  VerifierConfig Config;
  Config.Seed = 7;
  Config.TimeLimitSeconds = BudgetSeconds;
  std::mutex EventsMutex;
  long Events = 0;
  Config.Trace = [&](const TraceEvent &) {
    std::lock_guard<std::mutex> L(EventsMutex);
    ++Events;
  };

  FleetCoordinator Fleet(VerificationPolicy(), fleetConfig(2));
  FleetJobReport Report;
  VerifyResult R = Fleet.verify(Suite.Net, Prop, Config, nullptr, &Report);
  EXPECT_FALSE(Report.Inline);
  EXPECT_EQ(Fleet.stats().InlineFallbacks, 0);
  EXPECT_GE(Report.Shards, 1);
  long Expanded = 0;
  for (long N : Report.PerWorkerExpanded)
    Expanded += N;
  EXPECT_EQ(Expanded, R.Stats.NodesExpanded);
  // Every committed expansion is traced, plus any aborted one.
  EXPECT_GE(Events, R.Stats.NodesExpanded);
}

} // namespace
