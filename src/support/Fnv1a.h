//===- Fnv1a.h - Incremental 64-bit FNV-1a hasher ---------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-wise 64-bit FNV-1a hash behind every content digest: network
/// fingerprints (nn/Network.h) and the property and verifier-config digests
/// (core/Digest.h). Digests are persisted in certificates, checkpoints,
/// cache logs and fleet messages, so the byte stream each absorbs — and the
/// hash itself — must never change.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SUPPORT_FNV1A_H
#define CHARON_SUPPORT_FNV1A_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace charon {

/// Incremental 64-bit FNV-1a hasher.
class Fnv1a {
public:
  /// Absorbs \p Len raw bytes.
  Fnv1a &bytes(const void *Data, size_t Len);

  /// Absorbs an unsigned integer (little-endian byte order).
  Fnv1a &u64(uint64_t V);

  /// Absorbs a double's bit pattern; -0.0 is normalized to 0.0 so equal
  /// values hash equally.
  Fnv1a &f64(double V);

  /// Absorbs a string's length and bytes (length-prefixing keeps "ab","c"
  /// distinct from "a","bc").
  Fnv1a &str(std::string_view S);

  /// The digest of everything absorbed so far.
  uint64_t digest() const { return State; }

private:
  uint64_t State = 0xcbf29ce484222325ull;
};

} // namespace charon

#endif // CHARON_SUPPORT_FNV1A_H
