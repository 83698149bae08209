//===- FleetProtocol.h - Coordinator/worker JSONL control channel -*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The control channel between the fleet coordinator and charon_worker
/// processes: one JSON object per line over the worker's stdin/stdout,
/// reusing the service protocol's JSON subset (support/JsonLine.h). The
/// unit of work is one proof-tree node: the coordinator's SearchEngine
/// schedules the whole search, ships a node's inputs in an "expand"
/// command, and commits the "expanded" reply exactly as it commits an
/// in-process SearchEngine::expandNode call.
///
/// Commands (coordinator -> worker):
/// \code
///   {"cmd":"load","fingerprint":"<u64>","network":"<.net text>"}
///   {"cmd":"expand","fingerprint":"<u64>","label":3,"lower":[...],
///    "upper":[...],"warm":[...],"path_seed":"<u64>","budget":9.5,
///    "delta":1e-6,"maxdepth":400,"pgd_steps":25,"pgd_restarts":2,
///    "pgd_step_scale":0.3,"optimizer":"pgd","use_cex_search":true,
///    "seed":"7","order":"lifo","precision":"double"}
///   {"cmd":"ping"}   {"cmd":"quit"}
/// \endcode
///
/// Events (worker -> coordinator):
/// \code
///   {"event":"ready"}   {"event":"pong"}
///   {"event":"loaded","fingerprint":"<u64>"}
///   {"event":"expanded","kind":"split","pgd_objective":0.4,
///    "domain":1,"disjuncts":2,"margin":-0.03,"split_dim":4,
///    "split_cut":0.5,"xstar":[...],"stats":[...13 numbers...],
///    "seconds":0.002}
///   {"event":"error","message":"..."}
/// \endcode
///
/// An expanded event carries "cex"/"cex_objective" only for kind
/// "falsified", "split_dim"/"split_cut"/"xstar" only for "split",
/// "domain"/"disjuncts" only when pi_alpha chose a domain, and "margin"
/// only when the analysis finished. 64-bit values ride as decimal strings
/// (a double cannot hold them); every number must be finite, so a NaN or
/// infinity never crosses the wire. A malformed command line yields an
/// error event and the worker keeps serving (the batch-service rule that
/// one bad line must not abort the stream).
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_FLEET_FLEETPROTOCOL_H
#define CHARON_FLEET_FLEETPROTOCOL_H

#include "core/Verifier.h"
#include "search/SearchEngine.h"

#include <optional>
#include <string>

namespace charon {

/// One node expansion shipped to a worker: the node's inputs to
/// SearchEngine::expandNode, the job's remaining budget, and the config.
/// Only the config's semantic fields (the ones the digest covers, minus
/// the coordinator-side CEGAR and complete-fallback hooks) travel.
struct ExpandSpec {
  uint64_t Fingerprint = 0; ///< network to expand against (must be loaded)
  size_t Label = 0;         ///< target class
  Box Region;               ///< the node's region
  Vector Warm;              ///< warm-start witness (empty = none)
  uint64_t PathSeed = 0;    ///< the node's path-derived RNG seed
  double BudgetSeconds = -1.0; ///< job budget left; < 0 = unlimited
  VerifierConfig Config;
};

/// One parsed command line.
struct FleetCommand {
  enum class Kind { Load, Expand, Ping, Quit } K = Kind::Ping;
  uint64_t Fingerprint = 0; ///< Load
  std::string NetworkText;  ///< Load
  ExpandSpec Expand;        ///< Expand
};

/// One parsed event line.
struct FleetEvent {
  enum class Kind { Ready, Loaded, Expanded, Pong, Error } K = Kind::Ready;
  uint64_t Fingerprint = 0; ///< Loaded
  NodeExpansion Expansion;  ///< Expanded
  std::string Message;      ///< Error
};

/// Command formatters (one line, no trailing newline).
std::string formatLoadCommand(uint64_t Fingerprint,
                              const std::string &NetworkText);
std::string formatExpandCommand(const ExpandSpec &Spec);
std::string formatPingCommand();
std::string formatQuitCommand();

/// Event formatters.
std::string formatReadyEvent();
std::string formatPongEvent();
std::string formatLoadedEvent(uint64_t Fingerprint);
std::string formatExpandedEvent(const NodeExpansion &E);
std::string formatErrorEvent(const std::string &Message);

/// Parsers (inverse of the formatters); nullopt with a reason on any
/// malformed line.
std::optional<FleetCommand> parseCommandLine(const std::string &Line,
                                             std::string *Error = nullptr);
std::optional<FleetEvent> parseEventLine(const std::string &Line,
                                         std::string *Error = nullptr);

/// True when nodes of a job under \p Config can expand in a worker: no
/// process-local hook the node expansion would call (complete-fallback
/// callback) or that runs outside the node scheduler (CEGAR), and a
/// semantics digest unchanged by an expand-command round-trip. The trace
/// sink and the cancel hook stay with the coordinator's scheduler, so they
/// do not matter. Non-transportable jobs run inline in the coordinator —
/// slower, never wrong.
bool configTransportable(const VerifierConfig &Config);

} // namespace charon

#endif // CHARON_FLEET_FLEETPROTOCOL_H
