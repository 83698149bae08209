//===- Conv2D.h - 2-D convolution layer -------------------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 2-D convolution with zero padding. Tensors are flattened channel-major:
/// index(c, y, x) = c*H*W + y*W + x. Sec. 2.1 of the paper treats
/// convolutional layers as affine transformations for analysis purposes.
///
/// Two views of the same map, each built once per weight state:
///  - the tap plan (kernels::ConvTapPlan): each output position's in-window
///    (input, weight) pairs, shared by the output channels, plus
///    channel-major filters. Concrete execution (forward, backward, PGD)
///    and the zonotope transformer (AbstractElement::applyConv) run from
///    it, so a pass costs one multiply-add per real tap per channel;
///  - \c affineForm(), the lowered dense matrix. Its remaining readers are
///    the Interval, Polyhedra and SymbolicInterval domains (through
///    applyConv's default), the Reluplex baseline, the CEGAR abstractor and
///    the network fingerprint. They keep it until the domains take an
///    operator interface instead of a matrix.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_NN_CONV2D_H
#define CHARON_NN_CONV2D_H

#include "linalg/Kernels.h"
#include "nn/Layer.h"
#include "support/Lazy.h"

namespace charon {
class Rng;

/// Shape of a conv/pool input or output tensor.
struct TensorShape {
  int Channels;
  int Height;
  int Width;

  int size() const { return Channels * Height * Width; }
  int index(int C, int Y, int X) const { return (C * Height + Y) * Width + X; }
};

/// 2-D convolution layer with stride and zero padding.
class Conv2DLayer : public Layer {
public:
  /// Creates a zero-initialized convolution from \p In (shape) with
  /// \p OutChannels filters of size \p KernelH x \p KernelW.
  Conv2DLayer(TensorShape In, int OutChannels, int KernelH, int KernelW,
              int Stride, int Pad);

  /// He-initializes the kernels.
  void initHe(Rng &R);

  LayerKind kind() const override { return LayerKind::Conv2D; }
  size_t inputSize() const override { return InShape.size(); }
  size_t outputSize() const override { return OutShape.size(); }

  Vector forward(const Vector &Input) const override;
  Vector backward(const Vector &Input, const Vector &GradOut,
                  bool AccumulateParams) override;
  Matrix forwardBatch(const Matrix &X) const override;
  Matrix backwardBatch(const Matrix &X, const Matrix &GradOut) const override;
  void applyGradients(double LearningRate, double BatchSize) override;
  void zeroGradients() override;

  std::optional<AffineView> affineForm() const override;

  std::unique_ptr<Layer> clone() const override;

  const TensorShape &inputShape() const { return InShape; }
  const TensorShape &outputShape() const { return OutShape; }
  int kernelHeight() const { return KH; }
  int kernelWidth() const { return KW; }
  int stride() const { return S; }
  int padding() const { return P; }

  /// Kernel weight for (output channel, input channel, ky, kx).
  double kernelAt(int Oc, int Ic, int Ky, int Kx) const {
    return Kernels[kernelIndex(Oc, Ic, Ky, Kx)];
  }
  double &kernelAt(int Oc, int Ic, int Ky, int Kx) {
    dropDerived();
    return Kernels[kernelIndex(Oc, Ic, Ky, Kx)];
  }

  const Vector &bias() const { return B; }
  Vector &bias() {
    dropDerived();
    return B;
  }

  /// The tap plan the concrete passes and the zonotope run from (built
  /// once per weight state, thread-safe on first use).
  const kernels::ConvTapPlan &tapPlan() const;

  /// True once affineForm() has built the dense lowering for the current
  /// weights (tests use it to check which paths avoid it).
  bool loweringBuilt() const { return Lowered.built(); }

private:
  int kernelIndex(int Oc, int Ic, int Ky, int Kx) const {
    return ((Oc * InShape.Channels + Ic) * KH + Ky) * KW + Kx;
  }

  /// Dense lowering y = W x + b of the convolution.
  struct LoweredForm {
    Matrix W;
    Vector Bias;
  };
  LoweredForm buildLowered() const;

  /// The tap plan: per-position tap lists in CSR form (ascending input
  /// index, the order of the Ic/Ky/Kx window loops, each weight indexed
  /// inside one filter), their input-to-position transpose, and
  /// channel-major copies of the filters and bias. Exactly-zero weights
  /// keep their taps.
  kernels::ConvTapPlan buildPlan() const;
  size_t filterSize() const {
    return static_cast<size_t>(InShape.Channels) * KH * KW;
  }
  size_t positions() const {
    return static_cast<size_t>(OutShape.Height) * OutShape.Width;
  }

  /// Drops everything derived from the weights.
  void dropDerived() {
    Lowered.reset();
    Plan.reset();
  }

  /// Out = bias + taps (ascending) for one point, all channels per tap.
  void forwardRow(const double *In, double *Out) const;
  /// GradIn += GradOut . W for one point, outputs ascending, zero output
  /// gradients skipped. With a non-null \p Input also accumulates the
  /// parameter gradients into \p GradK and \p GradBias.
  void backwardRow(const double *GradOut, double *GradIn,
                   const double *Input = nullptr, double *GradK = nullptr,
                   double *GradBias = nullptr) const;

  TensorShape InShape;
  TensorShape OutShape;
  int KH, KW, S, P;
  std::vector<double> Kernels;
  Vector B;
  std::vector<double> GradKernels;
  Vector GradB;

  /// The lowering and the tap plan, built once per weight state
  /// (thread-safe on first use) and dropped by every member that can
  /// change a weight.
  Lazy<LoweredForm> Lowered;
  Lazy<kernels::ConvTapPlan> Plan;
};

} // namespace charon

#endif // CHARON_NN_CONV2D_H
