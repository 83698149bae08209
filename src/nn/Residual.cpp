//===- Residual.cpp - Residual (skip-connection) block ----------------------===//

#include "nn/Residual.h"

#include <cassert>

using namespace charon;

ResidualLayer::ResidualLayer(Network F) : Body(std::move(F)) {
  assert(Body.numLayers() > 0 && "residual body must be non-empty");
  assert(Body.inputSize() == Body.outputSize() &&
         "identity skip needs matching body input/output sizes");
#ifndef NDEBUG
  for (size_t I = 0, E = Body.numLayers(); I < E; ++I) {
    const Layer &L = Body.layer(I);
    assert((L.affineForm() || L.activationKind() || L.isIdentity()) &&
           "residual body layers must be affine, activation, or identity");
  }
#endif
}

Vector ResidualLayer::forward(const Vector &Input) const {
  assert(Input.size() == inputSize() && "residual input size mismatch");
  Vector Out = Body.evaluate(Input);
  for (size_t I = 0, N = Out.size(); I < N; ++I)
    Out[I] = Input[I] + Out[I];
  return Out;
}

Vector ResidualLayer::backward(const Vector &Input, const Vector &GradOut,
                               bool AccumulateParams) {
  assert(Input.size() == inputSize() && GradOut.size() == outputSize() &&
         "residual gradient size mismatch");
  // dL/dx = GradOut + J_F(x)^T GradOut: replay the body forward to get every
  // intermediate activation, then walk its layers in reverse.
  std::vector<Vector> Acts = Body.evaluateWithActivations(Input);
  Vector G = GradOut;
  for (size_t I = Body.numLayers(); I > 0; --I)
    G = Body.layer(I - 1).backward(Acts[I - 1], G, AccumulateParams);
  for (size_t I = 0, N = G.size(); I < N; ++I)
    G[I] = GradOut[I] + G[I];
  return G;
}

Matrix ResidualLayer::forwardBatch(const Matrix &X) const {
  assert(X.cols() == inputSize() && "residual batched input size mismatch");
  Matrix Out = Body.evaluateBatch(X);
  for (size_t R = 0, B = Out.rows(); R < B; ++R)
    for (size_t C = 0, N = Out.cols(); C < N; ++C)
      Out(R, C) = X(R, C) + Out(R, C);
  return Out;
}

Matrix ResidualLayer::backwardBatch(const Matrix &X,
                                    const Matrix &GradOut) const {
  assert(X.cols() == inputSize() && GradOut.cols() == outputSize() &&
         X.rows() == GradOut.rows() && "residual batched gradient mismatch");
  std::vector<Matrix> Acts = Body.evaluateBatchWithActivations(X);
  Matrix G = GradOut;
  for (size_t I = Body.numLayers(); I > 0; --I)
    G = Body.layer(I - 1).backwardBatch(Acts[I - 1], G);
  for (size_t R = 0, B = G.rows(); R < B; ++R)
    for (size_t C = 0, N = G.cols(); C < N; ++C)
      G(R, C) = GradOut(R, C) + G(R, C);
  return G;
}

void ResidualLayer::applyGradients(double LearningRate, double BatchSize) {
  Plan.reset();
  Body.applyGradients(LearningRate, BatchSize);
}

void ResidualLayer::zeroGradients() { Body.zeroGradients(); }

const ResidualLayer::ResidualPlan &ResidualLayer::plan() const {
  return Plan.get([this] { return buildPlan(); });
}

ResidualLayer::ResidualPlan ResidualLayer::buildPlan() const {
  size_t N = inputSize();
  ResidualPlan P;

  // Dup = [I; I]: state becomes [x; x], skip copy in the first N coords.
  P.DupW = Matrix(2 * N, N);
  for (size_t I = 0; I < N; ++I) {
    P.DupW(I, I) = 1.0;
    P.DupW(N + I, I) = 1.0;
  }
  P.DupB = Vector(2 * N);

  for (size_t LI = 0, E = Body.numLayers(); LI < E; ++LI) {
    const Layer &L = Body.layer(LI);
    if (L.isIdentity())
      continue;
    ResidualStep Step;
    if (auto Affine = L.affineForm()) {
      // Block-diagonal [[I, 0], [0, W]] over [x; z], bias [0; b].
      size_t Kin = L.inputSize(), Kout = L.outputSize();
      Step.IsAffine = true;
      Step.W = Matrix(N + Kout, N + Kin);
      for (size_t I = 0; I < N; ++I)
        Step.W(I, I) = 1.0;
      for (size_t R = 0; R < Kout; ++R)
        for (size_t C = 0; C < Kin; ++C)
          Step.W(N + R, N + C) = (*Affine->W)(R, C);
      Step.B = Vector(N + Kout);
      for (size_t R = 0; R < Kout; ++R)
        Step.B[N + R] = (*Affine->B)[R];
      Step.Act = ActivationKind::Relu;
      Step.Begin = Step.End = 0;
    } else {
      auto Act = L.activationKind();
      assert(Act && "residual body layer is neither affine nor activation");
      Step.IsAffine = false;
      Step.Act = *Act;
      Step.Begin = N;
      Step.End = N + L.outputSize();
    }
    P.Steps.push_back(std::move(Step));
  }

  // Sum = [I I]: y = x + z.
  P.SumW = Matrix(N, 2 * N);
  for (size_t I = 0; I < N; ++I) {
    P.SumW(I, I) = 1.0;
    P.SumW(I, N + I) = 1.0;
  }
  P.SumB = Vector(N);
  return P;
}
