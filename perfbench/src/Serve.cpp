//===- Serve.cpp - Open-loop traffic into the verification service --------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
//
// Seeded Poisson arrivals at three fixed rates into an in-process
// VerificationService whose persistent cache file is replayed at set-up.
// Requests are ACAS balls and image-slate brightenings at a serving
// deadline. A stated share are exact repeats, smaller concentric balls
// (subsumption hits) and repeats under a second semantic config
// (certificate re-check hits) of queries answered before the run, whose
// answers the cache file holds. Each request is timed from its due time;
// the generator (this thread) stamps completions by polling the handles
// between arrivals. The service's executor times each cache miss's verify
// call on its worker thread, and each phase's service CPU time is taken,
// for the bounded figures.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Workloads.h"

#include "abstract/Analyzer.h"
#include "service/VerificationService.h"
#include "support/Random.h"

#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

using namespace perfbench;

namespace {

/// Arrival rates (requests per second). The last is above the service's
/// capacity.
const double Rates[] = {250.0, 500.0, 3000.0};
constexpr int NumRates = 3;
constexpr int MidRate = 1;
/// The phases in run order: a rate (index into Rates) and the share of
/// --seconds the phase lasts. The middle rate, whose figures are bounded,
/// opens and closes the run, so they span the run instead of one stretch
/// of it. The overload phase is short because the backlog it
/// builds takes longer to drain.
struct PhaseSpec {
  int Rate;
  double Share;
};
const PhaseSpec Phases[] = {{MidRate, 0.3}, {0, 0.2}, {2, 0.1}, {MidRate, 0.3}};
constexpr int NumPhases = 4;
constexpr int OverloadPhase = 2; ///< index into Phases
/// p99 latency limit from due time, at the middle rate.
constexpr double LatencyLimitMs = 250.0;
/// Per-request verification deadline.
constexpr double ServeDeadline = 1.0;
/// Queries answered before the run; their answers fill the cache file.
constexpr int HistoryQueries = 160;
/// Image queries: pool properties of these networks that the pinned run
/// decided at the root (one node). Deeper networks and the conv net cost
/// tens of ms per node; a few of those make the tail a lottery over the
/// mix instead of a measure of queueing.
const char *const ImageSuites[] = {"mnist_3x100", "mnist_6x100",
                                   "cifar_3x100", "cifar_6x100"};
constexpr long ImageMaxNodes = 1;
/// Share of fresh queries that are image properties (the rest are ACAS
/// balls). Image misses cost several times an ACAS miss; kept to about 2%
/// of the requests they sit above p90, which then measures queueing
/// behind the ACAS class instead of the edge between the two.
constexpr double ImageShare = 0.03;
/// Share of requests of each repeat kind (exact, subsumed, certified).
/// With these the cache answers about a third of the requests, which keeps
/// the median inside the miss class instead of on the hit/miss edge.
constexpr double RepeatShare = 0.08;
/// Latency recorded for a Timeout or failed request (a miss).
constexpr double MissMs = 1e6;

enum class Kind { Fresh, Exact, Subsumed, Certified };

struct Query {
  Kind K = Kind::Fresh;
  size_t Net = 0; ///< index into Serving::Nets (0 = ACAS)
  RobustnessProperty Prop;
  bool SecondConfig = false;
  int History = -1; ///< the history query this one repeats
};

VerifierConfig serveConfig(bool Second) {
  VerifierConfig VC;
  VC.TimeLimitSeconds = ServeDeadline;
  VC.EmitCertificate = true;
  if (Second)
    VC.Pgd.Restarts = 3; // a different semantic config digest
  return VC;
}

/// Networks and query generators shared by the history and the stream.
struct Serving {
  std::vector<const Network *> Nets;
  std::vector<std::pair<size_t, const RobustnessProperty *>> Images;
  const Network *Acas = nullptr;

  /// A seeded ACAS ball that one zonotope pass proves (decided at the
  /// root), redrawn otherwise: the same single-node criterion as the image
  /// queries, so the latency tail measures queueing, not the few balls
  /// that straddle a decision boundary.
  RobustnessProperty acasBall(Rng &R) const {
    RobustnessProperty P;
    P.Name = "acas-ball";
    for (int Try = 0; Try < 100; ++Try) {
      double Eps = R.uniform(0.001, 0.005);
      Vector Center(Acas->inputSize());
      for (size_t J = 0; J < Center.size(); ++J)
        Center[J] = R.uniform(0.1, 0.9);
      P.Region = Box::linfBall(Center, Eps, 0.0, 1.0);
      P.TargetClass = Acas->classify(P.Region.center());
      if (analyzeRobustness(*Acas, P.Region, P.TargetClass, DomainSpec())
              .Verified)
        break;
    }
    return P;
  }

  Query fresh(Rng &R) const {
    Query Q;
    if (R.uniform() < ImageShare) {
      const auto &Img = Images[R.uniformInt(Images.size())];
      Q.Net = Img.first;
      Q.Prop = *Img.second;
    } else {
      Q.Prop = acasBall(R);
    }
    return Q;
  }
};

Serving makeServing(const NetworkSet &Nets, const ExpectedVerdicts &Expected) {
  Serving S;
  S.Acas = &Nets.Acas.Net;
  S.Nets.push_back(&Nets.Acas.Net);
  for (const BenchmarkSuite &Suite : Nets.Suites) {
    S.Nets.push_back(&Suite.Net);
    if (std::find(std::begin(ImageSuites), std::end(ImageSuites),
                  Suite.Name) == std::end(ImageSuites))
      continue;
    for (const RobustnessProperty &P : Suite.Properties)
      if (Expected.has(P.Name) && Expected.get(P.Name) != Outcome::Timeout &&
          Expected.nodes(P.Name) <= ImageMaxNodes)
        S.Images.push_back({S.Nets.size() - 1, &P});
  }
  return S;
}

struct History {
  std::vector<Query> Queries;
  std::vector<VerifyResult> Results;
};

/// CPU seconds the calling thread has run.
double threadCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

/// A live service: registry ids line up with Serving::Nets.
struct Live {
  std::unique_ptr<VerificationService> Service;
  /// Thread-CPU seconds of each cache miss's Verifier::verify call, taken
  /// on the worker that ran it; negative for a request that did not verify.
  /// Indexed by the number a request carries as its property name
  /// (request() sets it).
  std::shared_ptr<std::vector<double>> VerifyCpu =
      std::make_shared<std::vector<double>>();
  std::vector<NetworkId> Ids;
  double StartSeconds = 0.0;
  double ReplaySeconds = 0.0;
};

/// One set-up: the networks and a service that has replayed the cache
/// file.
struct ServeSetup {
  BaseSetup Base;
  Live L;
};

Live startService(const Serving &S, const std::string &CacheFile) {
  Live L;
  double Start = now();
  ServiceConfig SC;
  SC.Workers = std::max(1u, hostThreads() - 1); // one core for the generator
  SC.CacheCapacity = 1 << 16;
  // The executor is the service's own miss path (a sequential Verifier
  // under the service's policy) with the call timed on its worker thread.
  SC.Executor = [Policy = pinnedPolicy(), VerifyCpu = L.VerifyCpu](
                    const Network &Net, const RobustnessProperty &Prop,
                    const VerifierConfig &VC, const SearchCheckpoint *Resume) {
    double Cpu = threadCpuSeconds();
    VerifyResult R = Verifier(Net, Policy, VC).verify(Prop, Resume);
    size_t Slot = size_t(std::stoul(Prop.Name));
    if (Slot < VerifyCpu->size())
      (*VerifyCpu)[Slot] = threadCpuSeconds() - Cpu;
    return R;
  };
  L.Service = std::make_unique<VerificationService>(pinnedPolicy(), SC);
  for (const Network *N : S.Nets)
    L.Ids.push_back(L.Service->registry().add(N->clone()));
  double Replay = now();
  L.StartSeconds = Replay - Start;
  if (!CacheFile.empty() && !L.Service->cache().attachFile(CacheFile)) {
    std::cerr << "perfbench: cannot attach cache file " << CacheFile << "\n";
    std::exit(2);
  }
  L.ReplaySeconds = now() - Replay;
  return L;
}

/// The request for \p Q, the \p Slot-th of its phase. The property's name
/// (not part of any cache key) carries the slot for the executor.
JobRequest request(const Live &L, const Query &Q, size_t Slot) {
  JobRequest Req;
  Req.Net = L.Ids[Q.Net];
  Req.Prop = Q.Prop;
  Req.Prop.Name = std::to_string(Slot);
  Req.Config = serveConfig(Q.SecondConfig);
  return Req;
}

long fileBytes(const std::string &Path) {
  struct stat St{};
  return ::stat(Path.c_str(), &St) == 0 ? long(St.st_size) : 0;
}

bool copyFile(const std::string &From, const std::string &To) {
  std::ifstream In(From, std::ios::binary);
  std::ofstream Out(To, std::ios::binary | std::ios::trunc);
  Out << In.rdbuf();
  return bool(In) && bool(Out);
}

/// Answers the history queries into a fresh cache file.
History makeHistory(const Serving &S, uint64_t Seed, const std::string &Path) {
  std::remove(Path.c_str());
  History H;
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 101);
  for (int I = 0; I < HistoryQueries; ++I)
    H.Queries.push_back(S.fresh(R));
  Live L = startService(S, Path);
  std::vector<JobHandle> Handles;
  for (const Query &Q : H.Queries)
    Handles.push_back(L.Service->submit(request(L, Q, Handles.size())));
  for (JobHandle &Hd : Handles)
    H.Results.push_back(Hd.outcome().Result);
  L.Service->shutdown();
  return H;
}

/// The seeded request stream of one phase: (due offset, query) pairs.
std::vector<std::pair<double, Query>> makeStream(const Serving &S,
                                                 const History &H, Rng &R,
                                                 double Rate, double Length) {
  std::vector<int> Decided, Verified, Certified;
  for (size_t I = 0; I < H.Results.size(); ++I) {
    const VerifyResult &Res = H.Results[I];
    if (Res.Result == Outcome::Timeout)
      continue;
    Decided.push_back(int(I));
    if (Res.Result == Outcome::Verified && H.Queries[I].Net == 0)
      Verified.push_back(int(I));
    if (Res.Certificate)
      Certified.push_back(int(I));
  }
  auto Pick = [&](const std::vector<int> &From) {
    return From[R.uniformInt(From.size())];
  };
  std::vector<std::pair<double, Query>> Stream;
  double T = 0.0;
  while (true) {
    T += -std::log(1.0 - R.uniform()) / Rate;
    if (T >= Length)
      break;
    double U = R.uniform();
    Query Q;
    if (U < RepeatShare && !Decided.empty()) {
      int I = Pick(Decided);
      Q = H.Queries[size_t(I)];
      Q.K = Kind::Exact;
      Q.History = I;
    } else if (U < 2 * RepeatShare && !Verified.empty()) {
      // A concentric ball of half the radius.
      int I = Pick(Verified);
      Q = H.Queries[size_t(I)];
      const Box &Outer = Q.Prop.Region;
      Vector C = Outer.center(), Lo = Outer.lower(), Hi = Outer.upper();
      for (size_t J = 0; J < C.size(); ++J) {
        Lo[J] = C[J] - 0.5 * (C[J] - Lo[J]);
        Hi[J] = C[J] + 0.5 * (Hi[J] - C[J]);
      }
      Q.Prop.Region = Box(Lo, Hi);
      Q.K = Kind::Subsumed;
      Q.History = I;
    } else if (U < 3 * RepeatShare && !Certified.empty()) {
      int I = Pick(Certified);
      Q = H.Queries[size_t(I)];
      Q.SecondConfig = true;
      Q.K = Kind::Certified;
      Q.History = I;
    } else {
      Q = S.fresh(R);
    }
    Stream.push_back({T, std::move(Q)});
  }
  return Stream;
}

struct Record {
  double Due = 0.0, Submit = 0.0, Done = 0.0;
  JobOutcome Out;
  double VerifyCpu = -1.0; ///< see Live::VerifyCpu
};

struct PhaseResult {
  std::vector<Record> Records;
  double Makespan = 0.0;
  /// CPU seconds the service's threads spent while the phase ran: process
  /// CPU time less the generator thread's.
  double ServiceCpu = 0.0;
  size_t Backlog = 0; ///< requests still open when the last one arrived
};

/// Submits \p Stream on schedule and stamps completions by polling.
PhaseResult runPhase(Live &L, const std::vector<std::pair<double, Query>> &Stream,
                     SpanLog *Log, long OpBase) {
  PhaseResult P;
  size_t N = Stream.size();
  P.Records.resize(N);
  std::vector<JobHandle> Handles(N);
  std::vector<long> SpanIds(N, -1);
  std::vector<size_t> Open;
  L.VerifyCpu->assign(N, -1.0);
  double ProcessCpu = processCpuSeconds(), GeneratorCpu = threadCpuSeconds();
  double Base = now() + 0.005;
  size_t Next = 0;
  while (Next < N || !Open.empty()) {
    double T = now();
    for (size_t K = 0; K < Open.size();) {
      if (Handles[Open[K]].done()) {
        P.Records[Open[K]].Done = T;
        Open[K] = Open.back();
        Open.pop_back();
      } else {
        ++K;
      }
    }
    if (Next < N && T >= Base + Stream[Next].first) {
      Record &Rec = P.Records[Next];
      Rec.Due = Base + Stream[Next].first;
      JobRequest Req = request(L, Stream[Next].second, Next);
      if (Log) {
        Span S;
        S.Name = "submit";
        S.Op = OpBase + long(Next);
        SpanIds[Next] = Log->add(S);
        Req.Config.Trace = Log->sinkFor(SpanIds[Next], S.Op);
      }
      Rec.Submit = now();
      Handles[Next] = L.Service->submit(std::move(Req));
      Open.push_back(Next);
      if (++Next == N)
        P.Backlog = Open.size();
      continue;
    }
    double Wait = Next < N ? Base + Stream[Next].first - now() : 1.0;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::clamp(Wait, 0.0, 100e-6)));
  }
  P.ServiceCpu = (processCpuSeconds() - ProcessCpu) -
                 (threadCpuSeconds() - GeneratorCpu);
  for (size_t I = 0; I < N; ++I) {
    P.Records[I].Out = Handles[I].outcome();
    P.Records[I].VerifyCpu = (*L.VerifyCpu)[I];
    if (Log) {
      Span S;
      S.Name = "submit";
      S.Op = OpBase + long(I);
      S.Start = P.Records[I].Due;
      S.End = P.Records[I].Done;
      Log->replace(SpanIds[I], S);
    }
  }
  if (N)
    P.Makespan = P.Records.back().Done - P.Records.front().Due;
  for (const Record &Rec : P.Records)
    P.Makespan = std::max(P.Makespan, Rec.Done - P.Records.front().Due);
  return P;
}

double latencyMs(const Record &Rec) {
  if (Rec.Out.Cancelled || Rec.Out.Result.Result == Outcome::Timeout)
    return MissMs;
  return (Rec.Done - Rec.Due) * 1e3;
}

/// Gates every response of a phase against the pinned verdicts and the
/// history answers it repeats.
void gatePhase(Options &Opt, const Serving &S, const History &H,
               const std::vector<std::pair<double, Query>> &Stream,
               PhaseResult &P, Report &Rep, CertCost *Cost,
               std::vector<const ProofCertificate *> &Checked) {
  const ExpectedVerdicts &Expected = expectedVerdicts(Opt);
  for (size_t I = 0; I < Stream.size(); ++I) {
    const Query &Q = Stream[I].second;
    VerifyResult &R = P.Records[I].Out.Result;
    applyTamper(Opt, R);
    if (P.Records[I].Out.Cancelled) {
      Rep.attempt();
      Rep.fail(Q.Prop.Name + ": service returned a cancelled job");
      continue;
    }
    // A subsumed hit carries the certificate of the enclosing history
    // query; check it there, and the verdict here.
    const RobustnessProperty &CertProp =
        Q.K == Kind::Subsumed ? H.Queries[size_t(Q.History)].Prop : Q.Prop;
    const ProofCertificate *Cert = R.Certificate.get();
    bool Seen = Cert && std::find(Checked.begin(), Checked.end(), Cert) !=
                            Checked.end();
    VerifyResult Gated = R;
    if (Seen)
      Gated.Certificate.reset();
    else if (Cert)
      Checked.push_back(Cert);
    if (Q.K == Kind::Subsumed && R.Result == Outcome::Verified) {
      if (!gateVerdict(*S.Nets[Q.Net], CertProp, Gated,
                       serveConfig(false).Delta, Rep, nullptr, Cost))
        continue;
    } else if (!gateVerdict(*S.Nets[Q.Net], Q.Prop, Gated,
                            serveConfig(false).Delta, Rep, &Expected, Cost)) {
      continue;
    }
    if (Q.History < 0 || R.Result == Outcome::Timeout)
      continue;
    Outcome Before = H.Results[size_t(Q.History)].Result;
    bool Contradicts = Q.K == Kind::Subsumed ? R.Result != Outcome::Verified
                                             : R.Result != Before;
    if (Contradicts)
      Rep.fail(Q.Prop.Name + ": repeat of a history query answered " +
               toString(R.Result) + ", history said " + toString(Before));
  }
}

struct ServeRun {
  PhaseResult Phases[NumPhases];
  std::vector<std::pair<double, Query>> Streams[NumPhases];
  CacheStats Cache; ///< summed over the phases' services
  long LogBytes = 0; ///< cache-file bytes appended during the phases
  unsigned Workers = 0;
};

std::string livePath(const Options &Opt) {
  return Opt.DataDir + "/serve-live.cache";
}

std::string historyPath(const Options &Opt) {
  return Opt.DataDir + "/serve-history.cache";
}

/// A service started on a fresh copy of the history cache file.
Live restartService(const Options &Opt, const Serving &S) {
  copyFile(historyPath(Opt), livePath(Opt));
  return startService(S, livePath(Opt));
}

/// Runs the phases, each on a service restarted from the same cache file
/// so every phase sees the same cache state.
ServeRun runAllPhases(const Serving &S, const History &H, const Options &Opt,
                      SpanLog *Log) {
  ServeRun Run;
  Rng R(Opt.Seed * 0x94d049bb133111ebull + 7);
  for (int K = 0; K < NumPhases; ++K) {
    Run.Streams[K] = makeStream(S, H, R, Rates[Phases[K].Rate],
                                Opt.Seconds * Phases[K].Share);
    Live L = restartService(Opt, S);
    long Before = fileBytes(livePath(Opt));
    Run.Phases[K] = runPhase(L, Run.Streams[K], Log, long(K) * 1000000);
    Run.Workers = L.Service->workers();
    L.Service->shutdown();
    CacheStats CS = L.Service->cache().stats();
    Run.Cache.ExactHits += CS.ExactHits;
    Run.Cache.SubsumptionHits += CS.SubsumptionHits;
    Run.Cache.CertifiedHits += CS.CertifiedHits;
    Run.LogBytes += fileBytes(livePath(Opt)) - Before;
  }
  return Run;
}

double runSeconds(const ServeRun &Run) {
  double Sum = 0.0;
  for (const PhaseResult &P : Run.Phases)
    for (const Record &Rec : P.Records)
      Sum += Rec.Out.RunSeconds;
  return Sum;
}

void reportService(const ServeRun &Run, EndToEnd &E, Report &Rep) {
  double Sustained = 0.0;
  for (int Rate = 0; Rate < NumRates; ++Rate) {
    std::vector<double> Lat;
    size_t Backlog = 0;
    double Cpu = 0.0;
    for (int K = 0; K < NumPhases; ++K) {
      if (Phases[K].Rate != Rate)
        continue;
      for (const Record &Rec : Run.Phases[K].Records)
        Lat.push_back(latencyMs(Rec));
      Backlog = std::max(Backlog, Run.Phases[K].Backlog);
      Cpu += Run.Phases[K].ServiceCpu;
    }
    double P99 = percentile(Lat, 99.0);
    std::string Tag = "serve.r" + std::to_string(int(Rates[Rate]));
    Rep.detail(Tag + ".p50_ms", percentile(Lat, 50.0), "ms");
    Rep.detail(Tag + ".p90_ms", percentile(Lat, 90.0), "ms");
    Rep.detail(Tag + ".p99_ms", P99, "ms");
    Rep.detail(Tag + ".backlog", double(Backlog), "count");
    Rep.detail(Tag + ".cpu_ms", Cpu * 1e3 / double(Lat.size()), "ms");
    if (P99 <= LatencyLimitMs && Backlog <= 2 * Run.Workers)
      Sustained = Rates[Rate];
  }
  // The bounded figures are CPU time, like slate's and cegar's. On a
  // shared host the wall time of the same verify call moved by up to 75%
  // between stretches of one run (the vCPU taken away, a busy sibling), and
  // the latency percentiles from due time with it; the wall figures above
  // and the service.* lines stay printed for reading, not bounding. p50 and
  // tail are over the middle rate's cache misses: thread CPU time of the
  // verify call, p50 and p90 (p99 falls among the image queries, whose
  // wide kernels also run on the kernel pool's threads).
  std::vector<double> Late, Queue, RunMs, MissCpuMs;
  long Misses = 0, Within = 0;
  for (int K = 0; K < NumPhases; ++K) {
    if (Phases[K].Rate != MidRate)
      continue;
    for (const Record &Rec : Run.Phases[K].Records) {
      double Ms = latencyMs(Rec);
      Misses += Ms >= MissMs;
      Within += Ms <= LatencyLimitMs;
      Late.push_back((Rec.Submit - Rec.Due) * 1e3);
      Queue.push_back(Rec.Out.QueueSeconds * 1e3);
      RunMs.push_back(Rec.Out.RunSeconds * 1e3);
      if (Rec.VerifyCpu >= 0.0)
        MissCpuMs.push_back(Rec.VerifyCpu * 1e3);
    }
  }
  E.P50Ms = percentile(MissCpuMs, 50.0);
  E.TailMs = percentile(MissCpuMs, 90.0);
  double ServiceCpu = 0.0;
  for (const PhaseResult &P : Run.Phases)
    ServiceCpu += P.ServiceCpu;
  const PhaseResult &High = Run.Phases[OverloadPhase];
  E.WallSeconds = ServiceCpu;
  E.Solved = double(Within);
  E.OpsPerSecond = double(High.Records.size()) / High.ServiceCpu;
  Rep.detail("serve.miss_samples", double(MissCpuMs.size()), "count");
  Rep.detail("serve.overload_qps",
             double(High.Records.size()) / High.Makespan, "1/s");
  Rep.detail("serve.sustained_qps", Sustained, "1/s");
  Rep.detail("serve.deadline_misses", double(Misses), "count");
  Rep.detail("serve.late_ms", percentile(Late, 99.0), "ms");
  Rep.detail("service.queue_p50_ms", percentile(Queue, 50.0), "ms");
  Rep.detail("service.queue_p99_ms", percentile(Queue, 99.0), "ms");
  Rep.detail("service.run_p50_ms", percentile(RunMs, 50.0), "ms");
  Rep.detail("service.run_p99_ms", percentile(RunMs, 99.0), "ms");
  long Requests = 0, Resumed = 0;
  for (const PhaseResult &P : Run.Phases)
    for (const Record &Rec : P.Records) {
      ++Requests;
      Resumed += Rec.Out.Resumed;
    }
  Rep.detail("service.hit_share", double(Run.Cache.hits()) / double(Requests),
             "ratio");
  Rep.detail("service.exact_hits", double(Run.Cache.ExactHits), "count");
  Rep.detail("service.subsumed_hits", double(Run.Cache.SubsumptionHits),
             "count");
  Rep.detail("service.certified_hits", double(Run.Cache.CertifiedHits),
             "count");
  Rep.detail("service.resumed", double(Resumed), "count");
  Rep.detail("service.cache_log_bytes", double(Run.LogBytes), "bytes");
}

} // namespace

int perfbench::runServe(Options &Opt, Report &Rep) {
  History H;
  {
    // Untimed: the queries answered before the run, persisted to the cache
    // file the service replays at set-up.
    NetworkSet Nets = loadNetworks(Opt.DataDir);
    Serving S = makeServing(Nets, expectedVerdicts(Opt));
    H = makeHistory(S, Opt.Seed, historyPath(Opt));
  }

  EndToEnd E;
  std::vector<double> StartS, ReplayS;
  auto SetUp = [&] {
    ServeSetup St;
    St.Base = setupBase(Opt, Rep);
    St.L = restartService(Opt, makeServing(St.Base.Nets, expectedVerdicts(Opt)));
    StartS.push_back(St.L.StartSeconds);
    ReplayS.push_back(St.L.ReplaySeconds);
    return St;
  };
  ServeSetup St = repeatSetup(E.SetupSeconds, SetUp);
  St.L = Live(); // every phase starts its own service on the cache file
  const BaseSetup &Base = St.Base;
  Serving S = makeServing(Base.Nets, expectedVerdicts(Opt));
  std::cout << "serve: " << std::max(1u, hostThreads() - 1)
            << " workers, rates " << Rates[0] << "/" << Rates[1] << "/"
            << Rates[2] << " per s, deadline " << ServeDeadline
            << " s, p99 limit " << LatencyLimitMs << " ms, " << S.Images.size()
            << " image queries eligible\n";

  std::vector<const ProofCertificate *> Checked;
  auto Gate = [&](ServeRun &Run, CertCost *Cost) {
    for (int K = 0; K < NumPhases; ++K)
      gatePhase(Opt, S, H, Run.Streams[K], Run.Phases[K], Rep, Cost, Checked);
  };
  auto Cleanup = [&] {
    std::remove(livePath(Opt).c_str());
    std::remove(historyPath(Opt).c_str());
  };

  if (!Opt.Trace) {
    ServeRun Run = runAllPhases(S, H, Opt, nullptr);
    Gate(Run, nullptr);
    reportService(Run, E, Rep);
    St = ServeSetup(); // release before the closing set-ups
    repeatSetup(E.SetupSeconds, SetUp);
    Rep.detail("setup.service_start_s", median(StartS), "s");
    Rep.detail("setup.cache_replay_s", median(ReplayS), "s");
    reportEndToEnd(E, Rep);
    Cleanup();
    return 0;
  }

  LayerReport LR;
  LR.NetworksSeconds = Base.NetworksSeconds;
  LR.OnnxSeconds = Base.OnnxSeconds;
  ServeRun Plain = runAllPhases(S, H, Opt, nullptr);
  LR.UntracedWall = runSeconds(Plain);
  Gate(Plain, nullptr);
  SpanLog Log;
  ServeRun Traced = runAllPhases(S, H, Opt, &Log);
  LR.TracedWall = runSeconds(Traced);
  Checked.clear();
  Gate(Traced, &LR.Cert);
  std::vector<long> Replayed;
  VerificationPolicy Policy = pinnedPolicy();
  // The layer split covers the middle rate's cache misses.
  for (int K = 0; K < NumPhases; ++K) {
    if (Phases[K].Rate != MidRate)
      continue;
    for (size_t I = 0; I < Traced.Streams[K].size(); ++I) {
      const JobOutcome &Out = Traced.Phases[K].Records[I].Out;
      const Query &Q = Traced.Streams[K][I].second;
      if (Out.CacheHit || !Out.Result.Certificate)
        continue;
      long Op = long(K) * 1000000 + long(I);
      Replayed.push_back(Op);
      replayCertificate(*S.Nets[Q.Net], Q.Prop, serveConfig(Q.SecondConfig),
                        *Out.Result.Certificate, Policy, Log, Op, LR.Layers,
                        Rep);
    }
  }
  LR.Search = searchTotals(Log, "submit");
  // A request's span includes its queueing, so search.self_s is taken
  // against the service's run seconds instead.
  LR.Search.VerifySeconds = LR.TracedWall;
  LR.ReplayedNodeSeconds = nodeSecondsOf(Log, Replayed);
  LR.Spans = &Log;
  reportLayers(LR, Opt.Seed, Rep);
  Log.write(Opt.DataDir + "/trace-serve-" + std::to_string(Opt.Seed) +
            ".jsonl");
  Cleanup();
  return 0;
}
