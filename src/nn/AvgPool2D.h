//===- AvgPool2D.h - 2-D average pooling layer ------------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 2-D average pooling. Unlike max pooling, averaging is a linear map, so
/// the layer exposes a lowered \c affineForm() (built once, like Conv2D) and
/// every abstract domain gets an exact transformer for free.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_NN_AVGPOOL2D_H
#define CHARON_NN_AVGPOOL2D_H

#include "nn/Conv2D.h"
#include "nn/Layer.h"
#include "support/Lazy.h"

namespace charon {

/// Non-overlapping (or strided) 2-D average pooling.
class AvgPool2DLayer : public Layer {
public:
  /// Pools \p In with windows of \p PoolH x \p PoolW and stride \p Stride.
  AvgPool2DLayer(TensorShape In, int PoolH, int PoolW, int Stride);

  LayerKind kind() const override { return LayerKind::AvgPool2D; }
  size_t inputSize() const override { return InShape.size(); }
  size_t outputSize() const override { return OutShape.size(); }

  Vector forward(const Vector &Input) const override;
  Vector backward(const Vector &Input, const Vector &GradOut,
                  bool AccumulateParams) override;

  std::optional<AffineView> affineForm() const override;

  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<AvgPool2DLayer>(InShape, PH, PW, S);
  }

  const TensorShape &inputShape() const { return InShape; }
  const TensorShape &outputShape() const { return OutShape; }
  int poolHeight() const { return PH; }
  int poolWidth() const { return PW; }
  int stride() const { return S; }

private:
  struct LoweredForm {
    Matrix W;
    Vector Bias;
  };
  LoweredForm buildLowered() const;

  TensorShape InShape;
  TensorShape OutShape;
  int PH, PW, S;
  /// Windows[o] lists the flat input indices averaged into output o, in
  /// ascending order (the same order the lowered matrix row visits them).
  std::vector<std::vector<int>> Windows;

  /// Built once, thread-safe on first use; the layer has no weights.
  Lazy<LoweredForm> Lowered;
};

} // namespace charon

#endif // CHARON_NN_AVGPOOL2D_H
