//===- charon_serve.cpp - Batch verification service driver -------------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Drives the verification service from a JSON-lines request file (or stdin):
// each input line names a network file and a robustness query; each output
// line reports the verdict, timing, cache-hit flag, and counterexample. A
// malformed or unusable request line produces an error *response* line in
// its place (same input order) and the rest of the batch still runs.
// Networks repeated across requests are loaded once (registry dedup) and
// repeated or subsumed queries are answered from the result cache.
//
//   charon_serve [requests.jsonl] [options]
//
// Options:
//   --workers <n>        worker threads (default: hardware concurrency;
//                        at most 1024)
//   --cache <n>          result-cache capacity in entries (default 4096)
//   --no-cache           disable the result cache
//   --cache-file <f>     persist the result cache to <f>: entries (verdicts,
//                        certificates, checkpoints) survive restarts, so a
//                        relaunched server answers repeats and re-checkable
//                        queries from disk
//   --certify            emit proof certificates with decided verdicts (what
//                        makes cross-config CertifiedHits possible)
//   --policy <file>      learned policy (default: built-in policy)
//   --fleet-workers <n>  expand each job's proof-tree nodes on <n>
//                        charon_worker *processes* via the fleet
//                        coordinator; 0 = in-process verifier (default;
//                        at most 1024)
//   --worker-bin <path>  fleet worker binary (default: charon_worker next to
//                        this executable)
//   --fleet-chaos-kill <n>  test hook: kill a worker after <n> dispatches
//   --quiet              suppress the stderr summary
//
// Counts must be plain non-negative decimal integers; anything else (signs,
// trailing bytes, overflow, a count above its bound) is a usage error and
// exits 2.
//
//===----------------------------------------------------------------------===//

#include "core/PolicyIo.h"
#include "fleet/FleetCoordinator.h"
#include "service/RequestIo.h"
#include "service/VerificationService.h"
#include "support/TextCodec.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

using namespace charon;

namespace {

/// Upper bound for --workers and --fleet-workers: each unit is a thread or
/// a process, so a typo must not ask the host for billions of them.
constexpr unsigned MaxWorkers = 1024;

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [requests.jsonl] [--workers N] [--cache N] "
               "[--no-cache] [--cache-file F] [--certify] [--policy F] "
               "[--fleet-workers N] [--worker-bin PATH] "
               "[--fleet-chaos-kill N] [--quiet]\n",
               Argv0);
  std::exit(2);
}

/// The value of a count flag: a decimal integer in [0, Max], else usage().
template <class IntT>
IntT countFlag(const char *Text, IntT Max, const char *Argv0) {
  IntT Value;
  if (!parseInteger(Text, Value) || Value > Max)
    usage(Argv0);
  return Value;
}

std::string siblingWorkerBinary(const char *Argv0) {
  std::string Self(Argv0);
  size_t Slash = Self.rfind('/');
  if (Slash == std::string::npos)
    return "charon_worker"; // bare invocation: let execvp search PATH
  return Self.substr(0, Slash + 1) + "charon_worker";
}

} // namespace

int main(int Argc, char **Argv) {
  std::string RequestPath;
  std::string PolicyPath;
  std::string CacheFile;
  std::string WorkerBin = siblingWorkerBinary(Argv[0]);
  ServiceConfig SC;
  unsigned FleetWorkers = 0;
  int ChaosKill = -1;
  bool Certify = false;
  bool Quiet = false;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--workers") && I + 1 < Argc)
      SC.Workers = countFlag(Argv[++I], MaxWorkers, Argv[0]);
    else if (!std::strcmp(Argv[I], "--cache") && I + 1 < Argc)
      SC.CacheCapacity = countFlag(Argv[++I], SIZE_MAX, Argv[0]);
    else if (!std::strcmp(Argv[I], "--no-cache"))
      SC.EnableCache = false;
    else if (!std::strcmp(Argv[I], "--cache-file") && I + 1 < Argc)
      CacheFile = Argv[++I];
    else if (!std::strcmp(Argv[I], "--certify"))
      Certify = true;
    else if (!std::strcmp(Argv[I], "--policy") && I + 1 < Argc)
      PolicyPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--fleet-workers") && I + 1 < Argc)
      FleetWorkers = countFlag(Argv[++I], MaxWorkers, Argv[0]);
    else if (!std::strcmp(Argv[I], "--worker-bin") && I + 1 < Argc)
      WorkerBin = Argv[++I];
    else if (!std::strcmp(Argv[I], "--fleet-chaos-kill") && I + 1 < Argc)
      ChaosKill = static_cast<int>(
          countFlag(Argv[++I], static_cast<unsigned>(INT_MAX), Argv[0]));
    else if (!std::strcmp(Argv[I], "--quiet"))
      Quiet = true;
    else if (Argv[I][0] != '-' && RequestPath.empty())
      RequestPath = Argv[I];
    else
      usage(Argv[0]);
  }

  VerificationPolicy Policy;
  if (!PolicyPath.empty()) {
    if (auto P = loadPolicyFile(PolicyPath))
      Policy = *P;
    else
      std::fprintf(stderr, "warning: bad policy file %s, using default\n",
                   PolicyPath.c_str());
  }

  std::ifstream File;
  std::istream *In = &std::cin;
  if (!RequestPath.empty()) {
    File.open(RequestPath);
    if (!File) {
      std::fprintf(stderr, "error: cannot open %s\n", RequestPath.c_str());
      return 2;
    }
    In = &File;
  }

  // The fleet (when enabled) must outlive the service that dispatches
  // into it.
  std::unique_ptr<FleetCoordinator> Fleet;
  if (FleetWorkers > 0) {
    FleetConfig FC;
    FC.WorkerBinary = WorkerBin;
    FC.Workers = FleetWorkers;
    FC.PolicyPath = PolicyPath;
    FC.ChaosKillAfterDispatches = ChaosKill;
    Fleet = std::make_unique<FleetCoordinator>(Policy, FC);
    SC.Executor = [&Fleet](const Network &Net, const RobustnessProperty &Prop,
                           const VerifierConfig &Config,
                           const SearchCheckpoint *Resume) {
      return Fleet->verify(Net, Prop, Config, Resume);
    };
  }

  VerificationService Service(Policy, SC);
  if (!CacheFile.empty() &&
      !Service.cache().attachFile(CacheFile))
    std::fprintf(stderr,
                 "warning: cannot attach cache file %s (bad file or another "
                 "writer holds it); running memory-only\n",
                 CacheFile.c_str());

  // Parse the whole file up front. A bad line is reported as an error
  // response (in input order) and the remaining requests still run.
  std::vector<BatchLine> Lines = parseRequestBatch(*In);
  struct Entry {
    int LineNo = 0;
    std::string Error;
    int JobIndex = -1; ///< into Jobs/Requests when Error is empty
  };
  std::vector<Entry> Entries;
  std::vector<JobRequest> Jobs;
  std::vector<ServiceRequest> Requests;
  int BadLines = 0;
  for (BatchLine &BL : Lines) {
    Entry E;
    E.LineNo = BL.LineNo;
    if (!BL.Error.empty()) {
      E.Error = BL.Error;
      Entries.push_back(std::move(E));
      ++BadLines;
      continue;
    }
    ServiceRequest &Req = *BL.Request;
    auto Net = Service.registry().addFromFile(Req.Network);
    if (!Net) {
      E.Error = "cannot load network " + Req.Network;
      Entries.push_back(std::move(E));
      ++BadLines;
      continue;
    }
    auto Prop = requestProperty(Req);
    if (!Prop) {
      E.Error = "bad region";
      Entries.push_back(std::move(E));
      ++BadLines;
      continue;
    }
    if (Prop->Region.dim() != Service.registry().network(*Net).inputSize() ||
        Req.Label >= Service.registry().network(*Net).outputSize()) {
      E.Error = "query does not match network";
      Entries.push_back(std::move(E));
      ++BadLines;
      continue;
    }
    JobRequest Job;
    Job.Net = *Net;
    Job.Prop = std::move(*Prop);
    Job.Config.TimeLimitSeconds = Req.BudgetSeconds;
    Job.Config.Delta = Req.Delta;
    Job.Config.EmitCertificate = Certify;
    Job.Priority = Req.Priority;
    E.JobIndex = static_cast<int>(Jobs.size());
    Jobs.push_back(std::move(Job));
    Requests.push_back(std::move(Req));
    Entries.push_back(std::move(E));
  }

  BatchReport Report = Service.runBatch(Jobs);

  for (const Entry &E : Entries) {
    ServiceResponse Resp;
    if (E.JobIndex < 0) {
      Resp.Error = "line " + std::to_string(E.LineNo) + ": " + E.Error;
      std::fprintf(stderr, "error: %s\n", Resp.Error.c_str());
    } else {
      const JobOutcome &Out = Report.Outcomes[E.JobIndex];
      Resp.Name = Jobs[E.JobIndex].Prop.Name;
      Resp.Network = Requests[E.JobIndex].Network;
      Resp.Result = Out.Result.Result;
      Resp.CacheHit = Out.CacheHit;
      Resp.Cancelled = Out.Cancelled;
      Resp.Seconds = Out.RunSeconds;
      if (Out.Result.Result == Outcome::Falsified)
        Resp.Counterexample = Out.Result.Counterexample;
    }
    std::printf("%s\n", formatResponseLine(Resp).c_str());
  }

  if (!Quiet) {
    CacheStats CS = Service.cache().stats();
    std::fprintf(stderr,
                 "%zu jobs in %.3fs (%.1f jobs/s, %u workers): "
                 "%d verified, %d falsified, %d timeout; "
                 "cache %ld hits (%ld exact, %ld subsumed, %ld certified), "
                 "%ld misses, %ld loaded from disk\n",
                 Report.Outcomes.size(), Report.WallSeconds,
                 Report.jobsPerSecond(), Service.workers(), Report.Verified,
                 Report.Falsified, Report.Timeout, CS.hits(), CS.ExactHits,
                 CS.SubsumptionHits, CS.CertifiedHits, CS.Misses, CS.Loaded);
    if (Fleet) {
      FleetStats FS = Fleet->stats();
      std::fprintf(stderr,
                   "fleet: %u workers, %ld jobs (%ld inline), %ld nodes "
                   "dispatched, %ld worker restarts\n",
                   Fleet->workers(), FS.Jobs, FS.InlineFallbacks,
                   FS.NodesDispatched, FS.WorkerRestarts);
    }
  }
  return BadLines ? 2 : (Report.Timeout ? 1 : 0);
}
