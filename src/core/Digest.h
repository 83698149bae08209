//===- Digest.h - Content digests for properties and configs ----*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stable 64-bit content digests used by the verification service layer:
/// a property digest (region bounds + target class) and a verifier-config
/// digest (every field that can change verify()'s verdict). With the
/// network fingerprint (fingerprintNetwork, declared beside Network in
/// nn/Network.h) they are FNV-1a over the exact bit patterns, so they are
/// stable across runs and processes and identical content always collides
/// deliberately — the foundation of result-cache keys and network
/// deduplication.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_CORE_DIGEST_H
#define CHARON_CORE_DIGEST_H

#include "core/Property.h"
#include "core/Verifier.h"
#include "nn/Network.h"

#include <cstdint>

namespace charon {

/// Digest of a robustness property: region bounds and target class. The
/// display name is deliberately excluded — two queries about the same
/// region and class are the same query.
uint64_t digestProperty(const RobustnessProperty &Prop);

/// Digest of every VerifierConfig field that can influence the verdict or
/// the counterexample (delta, budget, depth cap, optimizer kind and
/// hyperparameters, seed, frontier order). A config with a CompleteFallback
/// installed is marked distinct from one without, but two different
/// fallback callbacks are indistinguishable — callers who vary the fallback
/// should not share a result cache across them. CancelRequested, the trace
/// sink, and EmitCertificate are excluded entirely: the first can only
/// truncate a run to Timeout and the others only observe it; none changes
/// a verdict.
uint64_t digestVerifierConfig(const VerifierConfig &Config);

/// Budget-free variant of digestVerifierConfig: every field above except
/// the wall-clock budget (TimeLimitSeconds) and the depth cap (MaxDepth),
/// which can only truncate a run to Timeout, never flip a completed
/// verdict. This is the digest a SearchCheckpoint carries — resuming an
/// interrupted search under a fresh (or larger) budget is the whole point,
/// so budgets must not invalidate the checkpoint.
uint64_t digestVerifierConfigSemantics(const VerifierConfig &Config);

} // namespace charon

#endif // CHARON_CORE_DIGEST_H
