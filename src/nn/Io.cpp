//===- Io.cpp - Network (de)serialization -----------------------------------===//

#include "nn/Io.h"

#include "nn/Activation.h"
#include "nn/AvgPool2D.h"
#include "nn/Conv2D.h"
#include "nn/Dense.h"
#include "nn/Flatten.h"
#include "nn/MaxPool2D.h"
#include "nn/Relu.h"
#include "nn/Residual.h"
#include "support/TextCodec.h"

#include <ostream>

using namespace charon;

namespace {

/// One data row of the format: every value followed by a space.
void writeRow(TextWriter &W, const double *V, size_t N) {
  for (size_t I = 0; I < N; ++I)
    W << V[I] << " ";
  W << "\n";
}

template <class PoolT>
void writePool(TextWriter &W, const char *Kind, const Layer &L) {
  const auto &P = static_cast<const PoolT &>(L);
  const TensorShape &In = P.inputShape();
  W << Kind << " " << In.Channels << " " << In.Height << " " << In.Width
    << " " << P.poolHeight() << " " << P.poolWidth() << " " << P.stride()
    << "\n";
}

void saveLayer(const Layer &L, TextWriter &W) {
  switch (L.kind()) {
  case LayerKind::Dense: {
    const auto &D = static_cast<const DenseLayer &>(L);
    W << "dense " << D.inputSize() << " " << D.outputSize() << "\n";
    for (size_t R = 0; R < D.weights().rows(); ++R)
      writeRow(W, D.weights().row(R), D.weights().cols());
    writeRow(W, D.bias().data(), D.bias().size());
    break;
  }
  case LayerKind::Relu:
    W << "relu " << L.inputSize() << "\n";
    break;
  case LayerKind::Sigmoid:
    W << "sigmoid " << L.inputSize() << "\n";
    break;
  case LayerKind::Tanh:
    W << "tanh " << L.inputSize() << "\n";
    break;
  case LayerKind::Conv2D: {
    const auto &C = static_cast<const Conv2DLayer &>(L);
    const TensorShape &In = C.inputShape();
    W << "conv " << In.Channels << " " << In.Height << " " << In.Width << " "
      << C.outputShape().Channels << " " << C.kernelHeight() << " "
      << C.kernelWidth() << " " << C.stride() << " " << C.padding() << "\n";
    for (int Oc = 0; Oc < C.outputShape().Channels; ++Oc)
      for (int Ic = 0; Ic < In.Channels; ++Ic)
        for (int Ky = 0; Ky < C.kernelHeight(); ++Ky)
          for (int Kx = 0; Kx < C.kernelWidth(); ++Kx)
            W << C.kernelAt(Oc, Ic, Ky, Kx) << " ";
    W << "\n";
    writeRow(W, C.bias().data(), C.bias().size());
    break;
  }
  case LayerKind::MaxPool2D:
    writePool<MaxPool2DLayer>(W, "maxpool", L);
    break;
  case LayerKind::AvgPool2D:
    writePool<AvgPool2DLayer>(W, "avgpool", L);
    break;
  case LayerKind::Flatten:
    W << "flatten " << L.inputSize() << "\n";
    break;
  case LayerKind::Residual: {
    const Network *Body = L.residualBody();
    W << "residual " << Body->numLayers() << "\n";
    for (size_t I = 0, E = Body->numLayers(); I < E; ++I)
      saveLayer(Body->layer(I), W);
    break;
  }
  }
}

bool tensorFits(int64_t C, int64_t H, int64_t W) {
  return C > 0 && H > 0 && W > 0 && C * H <= MaxDeclaredTensorSize / W;
}

std::unique_ptr<Layer> loadLayer(TextReader &R, bool InResidualBody) {
  std::string_view Kind;
  if (!R.token(Kind))
    return nullptr;
  if (Kind == "dense") {
    size_t In = 0, Out = 0;
    // Out x In weights plus Out biases.
    if (!R.integer(In) || !R.integer(Out) || !R.fits({Out, In + 1}))
      return nullptr;
    Matrix W(Out, In);
    for (size_t Row = 0; Row < Out; ++Row)
      if (!R.f64s(W.row(Row), In))
        return nullptr;
    Vector B(Out);
    if (!R.f64s(B.data(), Out))
      return nullptr;
    return std::make_unique<DenseLayer>(std::move(W), std::move(B));
  }
  if (Kind == "relu" || Kind == "sigmoid" || Kind == "tanh" ||
      Kind == "flatten") {
    // Nothing is allocated here, but analysis allocates per-coordinate
    // state, so the width is bounded like every other declared tensor.
    size_t N = 0;
    if (!R.integer(N) || N == 0 || N > size_t(MaxDeclaredTensorSize))
      return nullptr;
    if (Kind == "relu")
      return std::make_unique<ReluLayer>(N);
    if (Kind == "sigmoid")
      return std::make_unique<SigmoidLayer>(N);
    if (Kind == "tanh")
      return std::make_unique<TanhLayer>(N);
    return std::make_unique<FlattenLayer>(N);
  }
  if (Kind == "conv") {
    TensorShape In;
    int OutC = 0, KH = 0, KW = 0, S = 0, P = 0;
    if (!R.integer(In.Channels) || !R.integer(In.Height) ||
        !R.integer(In.Width) || !R.integer(OutC) || !R.integer(KH) ||
        !R.integer(KW) || !R.integer(S) || !R.integer(P))
      return nullptr;
    if (In.Channels <= 0 || In.Height <= 0 || In.Width <= 0 || OutC <= 0 ||
        KH <= 0 || KW <= 0 || S <= 0 || P < 0 || P > MaxDeclaredTensorSize)
      return nullptr;
    int64_t SpanH = int64_t(In.Height) + 2 * int64_t(P) - KH;
    int64_t SpanW = int64_t(In.Width) + 2 * int64_t(P) - KW;
    // The OutC x InC x KH x KW kernel taps must fit the bytes left.
    if (SpanH < 0 || SpanW < 0 ||
        !tensorFits(In.Channels, In.Height, In.Width) ||
        !tensorFits(OutC, SpanH / S + 1, SpanW / S + 1) ||
        !R.fits({uint64_t(OutC), uint64_t(In.Channels), uint64_t(KH),
                 uint64_t(KW)}) ||
        uint64_t(OutC) * In.Channels * KH * KW > MaxDeclaredTensorSize)
      return nullptr;
    auto C = std::make_unique<Conv2DLayer>(In, OutC, KH, KW, S, P);
    for (int Oc = 0; Oc < OutC; ++Oc)
      for (int Ic = 0; Ic < In.Channels; ++Ic)
        for (int Ky = 0; Ky < KH; ++Ky)
          for (int Kx = 0; Kx < KW; ++Kx)
            if (!R.f64(C->kernelAt(Oc, Ic, Ky, Kx)))
              return nullptr;
    if (!R.f64s(C->bias().data(), C->bias().size()))
      return nullptr;
    return C;
  }
  if (Kind == "maxpool" || Kind == "avgpool") {
    TensorShape In;
    int PH = 0, PW = 0, S = 0;
    if (!R.integer(In.Channels) || !R.integer(In.Height) ||
        !R.integer(In.Width) || !R.integer(PH) || !R.integer(PW) ||
        !R.integer(S))
      return nullptr;
    if (!tensorFits(In.Channels, In.Height, In.Width) || PH <= 0 || PW <= 0 ||
        S <= 0 || In.Height < PH || In.Width < PW)
      return nullptr;
    // The layer tabulates PH x PW input indices per output element.
    int64_t Outputs = int64_t(In.Channels) * ((In.Height - PH) / S + 1) *
                      ((In.Width - PW) / S + 1);
    if (Outputs > MaxDeclaredTensorSize / PH / PW)
      return nullptr;
    if (Kind == "maxpool")
      return std::make_unique<MaxPool2DLayer>(In, PH, PW, S);
    return std::make_unique<AvgPool2DLayer>(In, PH, PW, S);
  }
  if (Kind == "residual") {
    // Bodies hold only affine/activation/identity layers, so a nested
    // residual is rejected before it can recurse.
    size_t BodyLayers = 0;
    if (InResidualBody || !R.integer(BodyLayers) || BodyLayers == 0)
      return nullptr;
    Network Body;
    for (size_t I = 0; I < BodyLayers; ++I) {
      std::unique_ptr<Layer> L = loadLayer(R, /*InResidualBody=*/true);
      if (!L)
        return nullptr;
      if (I > 0 && L->inputSize() != Body.outputSize())
        return nullptr;
      Body.addLayer(std::move(L));
    }
    if (Body.inputSize() != Body.outputSize())
      return nullptr; // Identity skip needs matching sizes.
    for (size_t I = 0, E = Body.numLayers(); I < E; ++I) {
      const Layer &L = Body.layer(I);
      if (!L.affineForm() && !L.activationKind() && !L.isIdentity())
        return nullptr; // Body restricted to analyzable layer shapes.
    }
    return std::make_unique<ResidualLayer>(std::move(Body));
  }
  return nullptr;
}

std::optional<Network> parseNetwork(std::string_view Text) {
  TextReader R(Text);
  size_t NumLayers = 0;
  if (!R.header("charon-network", 1) || !R.integer(NumLayers))
    return std::nullopt;

  Network Net;
  for (size_t I = 0; I < NumLayers; ++I) {
    std::unique_ptr<Layer> L = loadLayer(R, /*InResidualBody=*/false);
    if (!L)
      return std::nullopt;
    if (I > 0 && L->inputSize() != Net.outputSize())
      return std::nullopt;
    Net.addLayer(std::move(L));
  }
  return Net;
}

} // namespace

std::string charon::serializeNetwork(const Network &Net) {
  TextWriter W;
  W << "charon-network 1 " << Net.numLayers() << "\n";
  for (size_t I = 0, E = Net.numLayers(); I < E; ++I)
    saveLayer(Net.layer(I), W);
  return W.take();
}

void charon::saveNetwork(const Network &Net, std::ostream &Os) {
  Os << serializeNetwork(Net);
}

std::optional<Network> charon::loadNetwork(std::istream &Is) {
  return parseNetwork(readStream(Is));
}

bool charon::saveNetworkFile(const Network &Net, const std::string &Path) {
  return saveFile(Path, serializeNetwork(Net));
}

std::optional<Network> charon::loadNetworkFile(const std::string &Path) {
  return loadFile(Path, parseNetwork);
}
