//===- AvgPool2D.cpp - 2-D average pooling layer ----------------------------===//

#include "nn/AvgPool2D.h"

using namespace charon;

AvgPool2DLayer::AvgPool2DLayer(TensorShape In, int PoolH, int PoolW,
                               int Stride)
    : InShape(In), PH(PoolH), PW(PoolW), S(Stride) {
  OutShape.Channels = In.Channels;
  OutShape.Height = (In.Height - PoolH) / Stride + 1;
  OutShape.Width = (In.Width - PoolW) / Stride + 1;
  assert(OutShape.Height > 0 && OutShape.Width > 0 && "pool output is empty");
  Windows.resize(OutShape.size());
  for (int C = 0; C < OutShape.Channels; ++C) {
    for (int Oy = 0; Oy < OutShape.Height; ++Oy) {
      for (int Ox = 0; Ox < OutShape.Width; ++Ox) {
        std::vector<int> &Pool = Windows[OutShape.index(C, Oy, Ox)];
        for (int Py = 0; Py < PH; ++Py)
          for (int Px = 0; Px < PW; ++Px)
            Pool.push_back(InShape.index(C, Oy * S + Py, Ox * S + Px));
      }
    }
  }
}

Vector AvgPool2DLayer::forward(const Vector &Input) const {
  assert(Input.size() == static_cast<size_t>(InShape.size()) &&
         "avgpool input size mismatch");
  double Inv = 1.0 / (PH * PW);
  Vector Out(OutShape.size());
  // Accumulate Inv * x term by term in ascending input-index order — the
  // same sequence of nonzero contributions the lowered matrix row produces,
  // so concrete eval and the affine abstract view agree.
  for (size_t O = 0, E = Windows.size(); O < E; ++O) {
    double Acc = 0.0;
    for (int Idx : Windows[O])
      Acc += Inv * Input[Idx];
    Out[O] = Acc;
  }
  return Out;
}

Vector AvgPool2DLayer::backward(const Vector &Input, const Vector &GradOut,
                                bool) {
  assert(GradOut.size() == static_cast<size_t>(OutShape.size()) &&
         "avgpool gradient size mismatch");
  (void)Input;
  double Inv = 1.0 / (PH * PW);
  Vector GradIn(InShape.size());
  for (size_t O = 0, E = Windows.size(); O < E; ++O)
    for (int Idx : Windows[O])
      GradIn[Idx] += Inv * GradOut[O];
  return GradIn;
}

AvgPool2DLayer::LoweredForm AvgPool2DLayer::buildLowered() const {
  double Inv = 1.0 / (PH * PW);
  LoweredForm Form;
  Form.W = Matrix(OutShape.size(), InShape.size());
  Form.Bias = Vector(OutShape.size());
  for (size_t O = 0, E = Windows.size(); O < E; ++O)
    for (int Idx : Windows[O])
      Form.W(O, Idx) = Inv;
  return Form;
}

std::optional<AffineView> AvgPool2DLayer::affineForm() const {
  const LoweredForm &Form = Lowered.get([this] { return buildLowered(); });
  return AffineView{&Form.W, &Form.Bias};
}
