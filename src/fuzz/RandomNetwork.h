//===- RandomNetwork.h - Seeded random networks and properties ---*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzer's test-case generator: seeded random networks over the full
/// layer zoo (Dense, Conv2D, max/average pooling, ReLU/sigmoid/tanh
/// activations, identity Flatten, residual blocks) of configurable shape,
/// plus random robustness properties over them. A generated network is fully described by a small
/// NetworkSpec (architecture numbers + weight seed), so a failing fuzz case
/// can be persisted as a few integers and rebuilt bit-identically later —
/// the foundation of the replayable repro corpus.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_FUZZ_RANDOMNETWORK_H
#define CHARON_FUZZ_RANDOMNETWORK_H

#include "core/Property.h"
#include "nn/Network.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace charon {
class Rng;
class TextReader;

/// Shape ranges the generator draws from. Defaults keep networks small
/// enough that every abstract domain (including powersets and polyhedra)
/// analyzes a case in milliseconds, which is what lets a 60-second campaign
/// cover thousands of oracle checks.
struct GeneratorConfig {
  size_t MinInputs = 2;
  size_t MaxInputs = 6;
  size_t MinOutputs = 2;
  size_t MaxOutputs = 5;
  int MinHiddenLayers = 1;
  int MaxHiddenLayers = 3;
  size_t MinWidth = 2;
  size_t MaxWidth = 8;
  /// Probability of generating a convolutional (Conv2D [+ MaxPool2D])
  /// architecture instead of an MLP.
  double ConvProbability = 0.25;
  /// Probability that a convolutional case includes a MaxPool2D layer.
  double PoolProbability = 0.5;
  /// Probability that hidden activations are smooth (sigmoid or tanh, an
  /// even split) instead of ReLU — exercises the relaxation transformers.
  double SmoothActProbability = 0.3;
  /// Probability that a pooled conv case uses AveragePool2D instead of
  /// MaxPool2D.
  double AvgPoolProbability = 0.5;
  /// Probability that a conv case inserts an (identity) Flatten layer
  /// before the dense head.
  double FlattenProbability = 0.25;
  /// Probability that an MLP case wraps a square hidden block in a
  /// residual (identity-skip) layer.
  double ResidualProbability = 0.25;
  /// Half-width range of generated property regions (before clipping).
  double MinHalfWidth = 0.01;
  double MaxHalfWidth = 0.4;
  /// Probability that a property targets the class the network assigns to
  /// the region center (likely-robust case) rather than a uniformly random
  /// class (likely-falsifiable case). Both kinds exercise different oracle
  /// paths, so the generator mixes them.
  double CenterClassProbability = 0.5;
};

/// Architecture family of a generated network.
enum class FuzzArch { Mlp, Conv };

/// Complete, serializable description of a generated network: rebuild with
/// buildNetwork() and you get bit-identical weights (He init replayed from
/// WeightSeed through the deterministic splitmix Rng).
struct NetworkSpec {
  FuzzArch Arch = FuzzArch::Mlp;
  uint64_t WeightSeed = 0;

  // MLP shape (Arch == Mlp).
  size_t Inputs = 2;
  size_t Outputs = 2;
  std::vector<size_t> Hidden;

  // Conv shape (Arch == Conv): input tensor Channels x Height x Width,
  // one conv layer (+ReLU), optional 2x2/stride-2 max pool, dense head.
  int Channels = 1;
  int Height = 4;
  int Width = 4;
  int ConvChannels = 2;
  int Kernel = 3;
  int Stride = 1;
  int Pad = 1;
  bool WithPool = false;

  // Layer-zoo extension (defaults replay the pre-zoo generator exactly;
  // the fields serialize as an optional trailer so the existing repro
  // corpus parses unchanged).
  ActivationKind Act = ActivationKind::Relu; ///< hidden activation
  bool WithResidual = false; ///< Mlp: insert a residual Dense+Act block
  bool AvgPool = false;      ///< Conv: AveragePool2D instead of MaxPool2D
  bool WithFlatten = false;  ///< Conv: identity Flatten before the head

  bool operator==(const NetworkSpec &O) const;
};

/// Draws a random architecture from \p Config.
NetworkSpec generateNetworkSpec(Rng &R, const GeneratorConfig &Config);

/// Deterministically materializes \p Spec (same spec, same weights).
Network buildNetwork(const NetworkSpec &Spec);

/// Input dimensionality of the network \p Spec describes.
size_t specInputSize(const NetworkSpec &Spec);

/// Output dimensionality of the network \p Spec describes.
size_t specOutputSize(const NetworkSpec &Spec);

/// Draws a random robustness property for \p Net: an L-infinity ball around
/// a random center (clipped to [0, 1]) with the target class chosen per
/// GeneratorConfig::CenterClassProbability.
RobustnessProperty generateProperty(Rng &R, const Network &Net,
                                    const GeneratorConfig &Config);

/// Single-line serialization of \p Spec (used inside repro files):
///   mlp <seed> <in> <out> <num-hidden> <h...> [zoo <act> <res>]
///   conv <seed> <C> <H> <W> <outC> <k> <stride> <pad> <pool> <out>
///     [zoo <act> <avg> <flat>]
/// The "zoo" trailer is optional on input, so pre-zoo corpus files parse
/// to specs with the default (ReLU, no residual/avg-pool/flatten) fields.
void writeNetworkSpec(const NetworkSpec &Spec, std::ostream &Os);
std::string serializeNetworkSpec(const NetworkSpec &Spec);

/// Parses writeNetworkSpec() output; false on malformed input.
bool readNetworkSpec(std::istream &Is, NetworkSpec &Spec);
bool readNetworkSpec(TextReader &R, NetworkSpec &Spec);

} // namespace charon

#endif // CHARON_FUZZ_RANDOMNETWORK_H
