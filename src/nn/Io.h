//===- Io.h - Network (de)serialization --------------------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text serialization for networks so trained models can be saved once and
/// re-verified across runs (and inspected by hand). The format is a simple
/// line-oriented description; see saveNetwork() for the grammar.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_NN_IO_H
#define CHARON_NN_IO_H

#include "nn/Network.h"

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

namespace charon {

/// Largest tensor (element count) a network file or fuzz network spec may
/// declare for data it does not carry: spatial layer shapes, conv kernels,
/// and seed-regenerated weights. Sized far above every benchmark network;
/// it keeps int index arithmetic exact and construction-time tables small.
inline constexpr int64_t MaxDeclaredTensorSize = int64_t(1) << 24;

/// Writes \p Net to \p Os.
///
/// Format (whitespace separated):
/// \code
///   charon-network 1 <num-layers>
///   dense <in> <out> <out*in weights row-major> <out biases>
///   relu <n> | sigmoid <n> | tanh <n> | flatten <n>
///   conv <inC> <inH> <inW> <outC> <kH> <kW> <stride> <pad> <weights> <bias>
///   maxpool <inC> <inH> <inW> <poolH> <poolW> <stride>
///   avgpool <inC> <inH> <inW> <poolH> <poolW> <stride>
///   residual <num-body-layers> <body layers...>
/// \endcode
/// Residual bodies recurse into the same per-layer grammar; the loader
/// rejects bodies whose shapes the analyzer could not handle (the same
/// affine/activation/identity restriction the ResidualLayer constructor
/// asserts). Numbers follow support/TextCodec.h: weights must be finite,
/// and a declared dense or conv size must fit in the bytes that follow.
void saveNetwork(const Network &Net, std::ostream &Os);

/// Renders \p Net in the same format, as a string.
std::string serializeNetwork(const Network &Net);

/// Parses a network from \p Is; returns nullopt on malformed input.
std::optional<Network> loadNetwork(std::istream &Is);

/// Convenience: save to / load from a file path. Load returns nullopt when
/// the file is missing or malformed.
bool saveNetworkFile(const Network &Net, const std::string &Path);
std::optional<Network> loadNetworkFile(const std::string &Path);

} // namespace charon

#endif // CHARON_NN_IO_H
