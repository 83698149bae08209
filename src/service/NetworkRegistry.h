//===- NetworkRegistry.h - Shared network store with dedup --------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service-side store of networks under verification. Each network is
/// loaded (or registered) once, given a stable small integer ID, and
/// fingerprinted by content (FNV-1a over layer shapes + weights, see
/// fingerprintNetwork in nn/Network.h). Registering the same weights twice
/// — whether from the same file, a different path, or an in-memory clone —
/// returns the existing ID, so every query against "the same network"
/// shares one read-only instance and one cache-key namespace.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SERVICE_NETWORKREGISTRY_H
#define CHARON_SERVICE_NETWORKREGISTRY_H

#include "nn/Network.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace charon {

/// Stable handle to a registered network.
using NetworkId = uint32_t;

/// Thread-safe store of deduplicated, read-only networks.
class NetworkRegistry {
public:
  /// Registers \p Net (by move), returning its ID. If a network with the
  /// same content fingerprint is already present, \p Net is dropped and
  /// the existing ID is returned.
  NetworkId add(Network Net);

  /// Loads the network file at \p Path and registers it. Repeated loads of
  /// the same path skip the file read entirely; distinct paths with
  /// identical contents still dedupe by fingerprint. Returns nullopt when
  /// the file is missing or malformed.
  std::optional<NetworkId> addFromFile(const std::string &Path);

  /// The registered network. The reference stays valid for the registry's
  /// lifetime; networks are immutable once registered.
  const Network &network(NetworkId Id) const;

  /// Content fingerprint of a registered network (stable across runs);
  /// the network's own memo, taken when it was registered.
  uint64_t fingerprint(NetworkId Id) const;

  /// Number of distinct networks held.
  size_t size() const;

private:
  mutable std::mutex Mutex;
  // unique_ptr keeps Network references stable as the vector grows.
  std::vector<std::unique_ptr<Network>> Entries;
  std::unordered_map<uint64_t, NetworkId> ByFingerprint;
  std::unordered_map<std::string, NetworkId> ByPath;
};

} // namespace charon

#endif // CHARON_SERVICE_NETWORKREGISTRY_H
