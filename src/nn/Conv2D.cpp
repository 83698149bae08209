//===- Conv2D.cpp - 2-D convolution layer ----------------------------------===//

#include "nn/Conv2D.h"

#include "linalg/Kernels.h"
#include "support/Random.h"

#include <cmath>

using namespace charon;

static TensorShape convOutputShape(const TensorShape &In, int OutChannels,
                                   int KH, int KW, int S, int P) {
  TensorShape Out;
  Out.Channels = OutChannels;
  Out.Height = (In.Height + 2 * P - KH) / S + 1;
  Out.Width = (In.Width + 2 * P - KW) / S + 1;
  assert(Out.Height > 0 && Out.Width > 0 && "convolution output is empty");
  return Out;
}

Conv2DLayer::Conv2DLayer(TensorShape In, int OutChannels, int KernelH,
                         int KernelW, int Stride, int Pad)
    : InShape(In),
      OutShape(convOutputShape(In, OutChannels, KernelH, KernelW, Stride, Pad)),
      KH(KernelH), KW(KernelW), S(Stride), P(Pad),
      Kernels(static_cast<size_t>(OutChannels) * In.Channels * KernelH *
              KernelW),
      B(static_cast<size_t>(OutChannels)),
      GradKernels(Kernels.size()), GradB(B.size()) {}

void Conv2DLayer::initHe(Rng &R) {
  double FanIn = static_cast<double>(InShape.Channels) * KH * KW;
  double Scale = std::sqrt(2.0 / FanIn);
  for (double &K : Kernels)
    K = R.gaussian(0.0, Scale);
  B.fill(0.0);
  dropDerived();
}

kernels::ConvTapPlan Conv2DLayer::buildPlan() const {
  kernels::ConvTapPlan T;
  T.Inputs = InShape.size();
  T.Positions = positions();
  T.Channels = static_cast<size_t>(OutShape.Channels);
  T.Stride = (T.Channels + 3) / 4 * 4;
  T.Begin.reserve(T.Positions + 1);
  T.Begin.push_back(0);
  for (int Oy = 0; Oy < OutShape.Height; ++Oy) {
    for (int Ox = 0; Ox < OutShape.Width; ++Ox) {
      for (int Ic = 0; Ic < InShape.Channels; ++Ic) {
        for (int Ky = 0; Ky < KH; ++Ky) {
          int Iy = Oy * S + Ky - P;
          if (Iy < 0 || Iy >= InShape.Height)
            continue;
          for (int Kx = 0; Kx < KW; ++Kx) {
            int Ix = Ox * S + Kx - P;
            if (Ix < 0 || Ix >= InShape.Width)
              continue;
            T.Taps.push_back(
                {static_cast<uint32_t>(InShape.index(Ic, Iy, Ix)),
                 static_cast<uint32_t>(kernelIndex(0, Ic, Ky, Kx))});
          }
        }
      }
      T.Begin.push_back(T.Taps.size());
    }
  }

  // The transpose, positions ascending per input (a counting sort).
  T.UseBegin.assign(T.Inputs + 1, 0);
  for (const kernels::Tap &Tp : T.Taps)
    ++T.UseBegin[Tp.In + 1];
  for (size_t I = 0; I < T.Inputs; ++I)
    T.UseBegin[I + 1] += T.UseBegin[I];
  T.Uses.resize(T.Taps.size());
  std::vector<size_t> Next(T.UseBegin.begin(), T.UseBegin.end() - 1);
  for (size_t Pos = 0; Pos < T.Positions; ++Pos)
    for (size_t I = T.Begin[Pos]; I < T.Begin[Pos + 1]; ++I)
      T.Uses[Next[T.Taps[I].In]++] = {static_cast<uint32_t>(Pos),
                                      T.Taps[I].K};

  T.FilterT.assign(filterSize() * T.Stride, 0.0);
  T.BiasT.assign(T.Stride, 0.0);
  for (size_t Oc = 0; Oc < T.Channels; ++Oc) {
    for (size_t K = 0; K < filterSize(); ++K)
      T.FilterT[K * T.Stride + Oc] = Kernels[Oc * filterSize() + K];
    T.BiasT[Oc] = B[Oc];
  }
  return T;
}

const kernels::ConvTapPlan &Conv2DLayer::tapPlan() const {
  return Plan.get([this] { return buildPlan(); });
}

void Conv2DLayer::forwardRow(const double *In, double *Out) const {
  const kernels::ConvTapPlan &T = tapPlan();
  kernels::convTapsRow(T, In, T.BiasT.data(), Out);
}

void Conv2DLayer::backwardRow(const double *GradOut, double *GradIn,
                              const double *Input, double *GradK,
                              double *GradBias) const {
  // GradIn accumulates through the dispatched tapAxpy, whose rounding is
  // the saxpy's that matMul over the zero-filled lowered rows would apply,
  // so this pass keeps the bits of the dense backward at every SIMD level.
  const kernels::ConvTapPlan &T = tapPlan();
  for (int Oc = 0; Oc < OutShape.Channels; ++Oc) {
    const double *Filter = Kernels.data() + Oc * filterSize();
    for (size_t Pos = 0, E = positions(); Pos < E; ++Pos) {
      double G = *GradOut++;
      if (G == 0.0)
        continue;
      const kernels::Tap *Row = T.Taps.data() + T.Begin[Pos];
      const size_t N = T.Begin[Pos + 1] - T.Begin[Pos];
      kernels::tapAxpy(GradIn, Filter, Row, N, G);
      if (!Input)
        continue;
      GradBias[Oc] += G;
      double *FilterGrad = GradK + Oc * filterSize();
      for (size_t I = 0; I < N; ++I)
        FilterGrad[Row[I].K] += G * Input[Row[I].In];
    }
  }
}

Vector Conv2DLayer::forward(const Vector &Input) const {
  assert(Input.size() == static_cast<size_t>(InShape.size()) &&
         "conv input size mismatch");
  Vector Out(OutShape.size());
  forwardRow(Input.data(), Out.data());
  return Out;
}

Vector Conv2DLayer::backward(const Vector &Input, const Vector &GradOut,
                             bool AccumulateParams) {
  assert(GradOut.size() == static_cast<size_t>(OutShape.size()) &&
         "conv gradient size mismatch");
  Vector GradIn(InShape.size());
  if (AccumulateParams)
    backwardRow(GradOut.data(), GradIn.data(), Input.data(),
                GradKernels.data(), GradB.data());
  else
    backwardRow(GradOut.data(), GradIn.data());
  return GradIn;
}

Matrix Conv2DLayer::forwardBatch(const Matrix &X) const {
  assert(X.cols() == static_cast<size_t>(InShape.size()) &&
         "conv batched input size mismatch");
  // Rows run the per-point body, so batched and per-point agree bit for bit.
  Matrix Out = Matrix::uninit(X.rows(), OutShape.size());
  kernels::parallelFor(X.rows(), 2 * OutShape.Channels * tapPlan().Taps.size(),
                       [&](size_t Begin, size_t End) {
                         for (size_t I = Begin; I < End; ++I)
                           forwardRow(X.row(I), Out.row(I));
                       });
  return Out;
}

Matrix Conv2DLayer::backwardBatch(const Matrix &X, const Matrix &GradOut) const {
  assert(GradOut.cols() == static_cast<size_t>(OutShape.size()) &&
         X.rows() == GradOut.rows() && "conv batched gradient size mismatch");
  Matrix GradIn(X.rows(), InShape.size());
  kernels::parallelFor(X.rows(), 2 * OutShape.Channels * tapPlan().Taps.size(),
                       [&](size_t Begin, size_t End) {
                         for (size_t I = Begin; I < End; ++I)
                           backwardRow(GradOut.row(I), GradIn.row(I));
                       });
  return GradIn;
}

void Conv2DLayer::applyGradients(double LearningRate, double BatchSize) {
  double Step = LearningRate / BatchSize;
  for (size_t I = 0, E = Kernels.size(); I < E; ++I)
    Kernels[I] -= Step * GradKernels[I];
  for (size_t I = 0, E = B.size(); I < E; ++I)
    B[I] -= Step * GradB[I];
  dropDerived();
}

void Conv2DLayer::zeroGradients() {
  std::fill(GradKernels.begin(), GradKernels.end(), 0.0);
  GradB.fill(0.0);
}

Conv2DLayer::LoweredForm Conv2DLayer::buildLowered() const {
  LoweredForm Form;
  Form.W = Matrix(OutShape.size(), InShape.size());
  Form.Bias = Vector(OutShape.size());
  // Each output coordinate owns exactly one W row, so the scatter shards
  // cleanly across rows.
  const kernels::ConvTapPlan &T = tapPlan();
  const size_t Positions = positions();
  kernels::parallelFor(
      Form.W.rows(), filterSize(), [&](size_t Begin, size_t End) {
        for (size_t Row = Begin; Row < End; ++Row) {
          const size_t Oc = Row / Positions, Pos = Row % Positions;
          const double *Filter = Kernels.data() + Oc * filterSize();
          Form.Bias[Row] = B[Oc];
          double *WRow = Form.W.row(Row);
          for (size_t I = T.Begin[Pos], IE = T.Begin[Pos + 1]; I < IE; ++I)
            WRow[T.Taps[I].In] = Filter[T.Taps[I].K];
        }
      });
  return Form;
}

std::optional<AffineView> Conv2DLayer::affineForm() const {
  const LoweredForm &Form = Lowered.get([this] { return buildLowered(); });
  return AffineView{&Form.W, &Form.Bias};
}

std::unique_ptr<Layer> Conv2DLayer::clone() const {
  auto Copy =
      std::make_unique<Conv2DLayer>(InShape, OutShape.Channels, KH, KW, S, P);
  Copy->Kernels = Kernels;
  Copy->B = B;
  return Copy;
}
