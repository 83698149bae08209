//===- BatchExecTests.cpp - Batched execution engine bit-identity --------------===//
//
// The batched concrete execution engine promises results bit-identical to
// the per-point scalar path (DESIGN.md, "Batched concrete execution").
// These tests pin that contract at every level: per-layer forwardBatch /
// backwardBatch against row-by-row scalar evaluation, Conv2D against its
// lowered affine form, the batched Network objective and gradient, and the
// two PGD engines (plus the passes a PGD step costs) — under both the
// serial and the forced-threaded kernel configuration.
//
//===----------------------------------------------------------------------===//

#include "linalg/Kernels.h"
#include "linalg/SimdDispatch.h"
#include "nn/Builder.h"
#include "nn/Conv2D.h"
#include "nn/Dense.h"
#include "nn/MaxPool2D.h"
#include "nn/Network.h"
#include "nn/Relu.h"
#include "opt/Pgd.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

using namespace charon;

namespace {

/// Restores the parallel threshold when a test scope ends.
class ThresholdGuard {
public:
  ThresholdGuard() : Saved(kernels::parallelThreshold()) {}
  ~ThresholdGuard() { kernels::setParallelThreshold(Saved); }

private:
  size_t Saved;
};

// == on doubles treats -0.0 == 0.0 as equal, which is exactly the contract:
// values bit-identical up to zero sign.
void expectValueEqual(const Matrix &Got, const Matrix &Want) {
  ASSERT_EQ(Got.rows(), Want.rows());
  ASSERT_EQ(Got.cols(), Want.cols());
  for (size_t I = 0; I < Got.rows(); ++I)
    for (size_t J = 0; J < Got.cols(); ++J)
      ASSERT_EQ(Got(I, J), Want(I, J)) << "at (" << I << ", " << J << ")";
}

Matrix randomMatrix(size_t Rows, size_t Cols, Rng &R, double Lo = -1.0,
                    double Hi = 1.0) {
  Matrix M(Rows, Cols);
  for (size_t I = 0; I < Rows; ++I)
    for (size_t J = 0; J < Cols; ++J)
      M(I, J) = R.uniform(Lo, Hi);
  return M;
}

Vector rowToVector(const Matrix &M, size_t I) {
  Vector V(M.cols());
  const double *Row = M.row(I);
  std::copy(Row, Row + M.cols(), V.data());
  return V;
}

/// The scalar reference: forward() row by row.
Matrix forwardRows(const Layer &L, const Matrix &X) {
  Matrix Out(X.rows(), L.outputSize());
  for (size_t I = 0; I < X.rows(); ++I) {
    Vector Y = L.forward(rowToVector(X, I));
    std::copy(Y.data(), Y.data() + Y.size(), Out.row(I));
  }
  return Out;
}

/// The scalar reference: backward() row by row, without accumulation.
Matrix backwardRows(Layer &L, const Matrix &X, const Matrix &GradOut) {
  Matrix Out(X.rows(), L.inputSize());
  for (size_t I = 0; I < X.rows(); ++I) {
    Vector G = L.backward(rowToVector(X, I), rowToVector(GradOut, I),
                          /*AccumulateParams=*/false);
    std::copy(G.data(), G.data() + G.size(), Out.row(I));
  }
  return Out;
}

/// Restores the SIMD level when a test scope ends.
class SimdLevelGuard {
public:
  SimdLevelGuard() : Saved(kernels::simdLevel()) {}
  ~SimdLevelGuard() { kernels::setSimdLevel(Saved); }

private:
  kernels::SimdLevel Saved;
};

/// Runs \p Body once with threading disabled and once with every kernel
/// call forced onto the pool — the engine promises identical bits either
/// way (threading shards independent output rows only).
template <typename Fn> void underBothThreadings(Fn Body) {
  ThresholdGuard Guard;
  kernels::setParallelThreshold(size_t(1) << 40);
  Body();
  kernels::setParallelThreshold(0);
  Body();
}

const size_t BatchSizes[] = {0, 1, 3, 17};

void checkLayerBatchIdentity(Layer &L, uint64_t Seed) {
  Rng R(Seed);
  for (size_t B : BatchSizes) {
    Matrix X = randomMatrix(B, L.inputSize(), R);
    Matrix GradOut = randomMatrix(B, L.outputSize(), R);
    Matrix WantFwd = forwardRows(L, X);
    Matrix WantBwd = backwardRows(L, X, GradOut);
    underBothThreadings([&] {
      expectValueEqual(L.forwardBatch(X), WantFwd);
      expectValueEqual(L.backwardBatch(X, GradOut), WantBwd);
    });
  }
}

} // namespace

TEST(BatchExecTest, DenseMatchesScalarRows) {
  Rng R(41);
  // Deliberately non-square so a transposed shape would be caught.
  DenseLayer L(randomMatrix(5, 7, R), rowToVector(randomMatrix(1, 5, R), 0));
  checkLayerBatchIdentity(L, 42);
}

TEST(BatchExecTest, ReluMatchesScalarRows) {
  ReluLayer L(9);
  checkLayerBatchIdentity(L, 43);
}

TEST(BatchExecTest, Conv2DMatchesScalarRows) {
  // Non-square spatial dims, padding, and a stride that does not divide
  // the input evenly.
  Conv2DLayer L(TensorShape{2, 5, 4}, /*OutChannels=*/3, /*KernelH=*/3,
                /*KernelW=*/2, /*Stride=*/2, /*Pad=*/1);
  Rng R(44);
  L.initHe(R);
  checkLayerBatchIdentity(L, 45);
}

TEST(BatchExecTest, Conv2DPassesMatchLoweredAffineForm) {
  // Stride 2, pad 1, a non-square kernel, several channels and one exactly
  // zero weight (its tap stays in the window): forward is b + W.x with the
  // bias first and W's entries ascending; backward is W^T.g through the
  // active saxpy, as matTVec computes it over the zero-filled rows.
  Conv2DLayer L(TensorShape{3, 6, 5}, /*OutChannels=*/2, /*KernelH=*/3,
                /*KernelW=*/2, /*Stride=*/2, /*Pad=*/1);
  Rng R(58);
  L.initHe(R);
  L.kernelAt(1, 2, 1, 0) = 0.0;
  L.bias()[0] = 0.25;
  L.bias()[1] = -0.5;
  std::optional<AffineView> Affine = L.affineForm();
  ASSERT_TRUE(Affine);
  const Matrix &W = *Affine->W;
  const Vector &B = *Affine->B;

  Matrix X = randomMatrix(4, L.inputSize(), R);
  Matrix GradOut = randomMatrix(4, L.outputSize(), R);
  GradOut(1, 3) = 0.0;
  SimdLevelGuard Guard;
  for (kernels::SimdLevel Level : kernels::availableSimdLevels()) {
    SCOPED_TRACE(kernels::simdLevelName(Level));
    ASSERT_TRUE(kernels::setSimdLevel(Level));
    Matrix WantFwd(X.rows(), L.outputSize());
    Matrix WantBwd(X.rows(), L.inputSize());
    for (size_t I = 0; I < X.rows(); ++I) {
      for (size_t O = 0; O < W.rows(); ++O) {
        double Sum = B[O];
        for (size_t J = 0; J < W.cols(); ++J)
          Sum += W(O, J) * X(I, J);
        WantFwd(I, O) = Sum;
      }
      Vector G = matTVec(W, rowToVector(GradOut, I));
      std::copy(G.data(), G.data() + G.size(), WantBwd.row(I));
    }
    expectValueEqual(forwardRows(L, X), WantFwd);
    expectValueEqual(backwardRows(L, X, GradOut), WantBwd);
    underBothThreadings([&] {
      expectValueEqual(L.forwardBatch(X), WantFwd);
      expectValueEqual(L.backwardBatch(X, GradOut), WantBwd);
    });
  }
}

TEST(BatchExecTest, Conv2DChannelWalkMatchesPerChannelWalk) {
  // The forward pass walks each position's taps once for all output
  // channels (vector bodies over channel blocks). Every output must keep the
  // per-channel walk's bits: bias first, then one multiply and one add per
  // in-window tap in (Ic, Ky, Kx) order. Channel counts cover one partial
  // vector, a padded block, whole blocks and a second block; a weight edited
  // after the first pass must be seen by the next one.
  SimdLevelGuard Guard;
  for (int OutC : {1, 3, 8, 16, 20}) {
    SCOPED_TRACE("OutChannels=" + std::to_string(OutC));
    const TensorShape In{3, 7, 6};
    Conv2DLayer L(In, OutC, /*KernelH=*/3, /*KernelW=*/2, /*Stride=*/2,
                  /*Pad=*/1);
    Rng R(60 + OutC);
    L.initHe(R);
    for (int C = 0; C < OutC; ++C)
      L.bias()[C] = R.uniform(-0.5, 0.5);
    Matrix X = randomMatrix(5, L.inputSize(), R);
    auto Reference = [&] {
      const TensorShape &Out = L.outputShape();
      Matrix Want(X.rows(), L.outputSize());
      for (size_t I = 0; I < X.rows(); ++I)
        for (int Oc = 0; Oc < Out.Channels; ++Oc)
          for (int Oy = 0; Oy < Out.Height; ++Oy)
            for (int Ox = 0; Ox < Out.Width; ++Ox) {
              double Sum = L.bias()[Oc];
              for (int Ic = 0; Ic < In.Channels; ++Ic)
                for (int Ky = 0; Ky < L.kernelHeight(); ++Ky) {
                  int Iy = Oy * L.stride() + Ky - L.padding();
                  if (Iy < 0 || Iy >= In.Height)
                    continue;
                  for (int Kx = 0; Kx < L.kernelWidth(); ++Kx) {
                    int Ix = Ox * L.stride() + Kx - L.padding();
                    if (Ix < 0 || Ix >= In.Width)
                      continue;
                    Sum += static_cast<const Conv2DLayer &>(L).kernelAt(
                               Oc, Ic, Ky, Kx) *
                           X(I, static_cast<size_t>(In.index(Ic, Iy, Ix)));
                  }
                }
              Want(I, static_cast<size_t>(Out.index(Oc, Oy, Ox))) = Sum;
            }
      return Want;
    };
    for (int Round = 0; Round < 2; ++Round) {
      if (Round == 1)
        L.kernelAt(OutC - 1, 2, 1, 1) = 0.75;
      Matrix Want = Reference();
      for (kernels::SimdLevel Level : kernels::availableSimdLevels()) {
        SCOPED_TRACE(kernels::simdLevelName(Level));
        ASSERT_TRUE(kernels::setSimdLevel(Level));
        expectValueEqual(forwardRows(L, X), Want);
        underBothThreadings(
            [&] { expectValueEqual(L.forwardBatch(X), Want); });
      }
    }
  }
}

TEST(BatchExecTest, MaxPool2DMatchesScalarRows) {
  MaxPool2DLayer L(TensorShape{2, 6, 4}, /*PoolH=*/2, /*PoolW=*/2,
                   /*Stride=*/2);
  checkLayerBatchIdentity(L, 46);
}

TEST(BatchExecTest, NetworkObjectiveBatchMatchesScalarOnMlp) {
  Rng NetRng(47);
  Network Net = makeMlp(6, {11, 9}, 4, NetRng);
  Rng R(48);
  for (size_t B : BatchSizes) {
    Matrix X = randomMatrix(B, Net.inputSize(), R);
    for (size_t K = 0; K < 4; ++K) {
      Vector WantF(B);
      Matrix WantG(B, Net.inputSize());
      for (size_t I = 0; I < B; ++I) {
        Vector Xi = rowToVector(X, I);
        WantF[I] = Net.objective(Xi, K);
        Vector G = Net.objectiveGradient(Xi, K);
        std::copy(G.data(), G.data() + G.size(), WantG.row(I));
      }
      underBothThreadings([&] {
        Vector F = Net.objectiveBatch(X, K);
        ASSERT_EQ(F.size(), B);
        for (size_t I = 0; I < B; ++I)
          ASSERT_EQ(F[I], WantF[I]);
        expectValueEqual(Net.objectiveGradientBatch(X, K), WantG);
      });
    }
  }
}

TEST(BatchExecTest, NetworkObjectiveBatchMatchesScalarOnLeNet) {
  Rng NetRng(49);
  Network Net = makeLeNet(TensorShape{1, 10, 10}, 4, NetRng);
  Rng R(50);
  Matrix X = randomMatrix(5, Net.inputSize(), R, 0.0, 1.0);
  Vector WantF(X.rows());
  Matrix WantG(X.rows(), Net.inputSize());
  for (size_t I = 0; I < X.rows(); ++I) {
    Vector Xi = rowToVector(X, I);
    WantF[I] = Net.objective(Xi, 1);
    Vector G = Net.objectiveGradient(Xi, 1);
    std::copy(G.data(), G.data() + G.size(), WantG.row(I));
  }
  underBothThreadings([&] {
    Vector F = Net.objectiveBatch(X, 1);
    for (size_t I = 0; I < X.rows(); ++I)
      ASSERT_EQ(F[I], WantF[I]);
    expectValueEqual(Net.objectiveGradientBatch(X, 1), WantG);
  });
}

namespace {

/// One sweep of checkPgdEnginesBitIdentical at the current level and
/// threading.
void checkPgdEnginesAtLevel(const Network &Net, const Box &Region,
                            const Vector &Warm) {
  PgdConfig Variants[5];
  Variants[1].Restarts = 6;
  Variants[2].Restarts = 5;
  Variants[2].EarlyStopObjective = -std::numeric_limits<double>::infinity();
  Variants[3].Restarts = 1;
  Variants[3].Steps = 40;
  Variants[4].Restarts = 3;

  for (PgdConfig Config : Variants) {
    for (const Vector *WarmStart :
         {static_cast<const Vector *>(nullptr), &Warm}) {
      for (size_t K = 0; K < Net.outputSize(); ++K) {
        PgdConfig Scalar = Config;
        Scalar.Engine = PgdEngine::Scalar;
        PgdConfig Batched = Config;
        Batched.Engine = PgdEngine::Batched;
        Rng R1(9 + K), R2(9 + K);
        PgdResult A = pgdMinimize(Net, Region, K, Scalar, R1, WarmStart);
        PgdResult B = pgdMinimize(Net, Region, K, Batched, R2, WarmStart);
        ASSERT_EQ(A.Objective, B.Objective);
        ASSERT_TRUE(approxEqual(A.X, B.X, 0.0));
      }
    }
  }
}

/// Runs both PGD engines over several population shapes (B = 1, 2, 3, 5
/// and 6: odd sizes leave the paired dense kernels an unpaired row), each
/// cold and warm-started, for every target class, at every SIMD level with
/// threading off and forced; results must agree bit for bit.
void checkPgdEnginesBitIdentical(const Network &Net, const Box &Region,
                                 const Vector &Warm) {
  SimdLevelGuard Guard;
  for (kernels::SimdLevel Level : kernels::availableSimdLevels()) {
    SCOPED_TRACE(kernels::simdLevelName(Level));
    ASSERT_TRUE(kernels::setSimdLevel(Level));
    underBothThreadings([&] { checkPgdEnginesAtLevel(Net, Region, Warm); });
  }
}

/// Identity layer counting the batched passes that cross it.
class CountingLayer : public Layer {
public:
  explicit CountingLayer(size_t N) : Size(N) {}

  LayerKind kind() const override { return LayerKind::Flatten; }
  size_t inputSize() const override { return Size; }
  size_t outputSize() const override { return Size; }
  bool isIdentity() const override { return true; }

  Vector forward(const Vector &Input) const override { return Input; }
  Vector backward(const Vector &, const Vector &GradOut, bool) override {
    return GradOut;
  }
  Matrix forwardBatch(const Matrix &X) const override {
    ++Forwards;
    return X;
  }
  Matrix backwardBatch(const Matrix &, const Matrix &GradOut) const override {
    ++Backwards;
    return GradOut;
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<CountingLayer>(Size);
  }

  mutable int Forwards = 0;
  mutable int Backwards = 0;

private:
  size_t Size;
};

} // namespace

TEST(BatchExecTest, PgdEnginesBitIdentical) {
  Rng NetRng(51);
  Network Net = makeMlp(8, {16, 16}, 3, NetRng);
  Box Region = Box::uniform(8, -0.7, 0.4);
  Rng WarmRng(52);
  const Vector Warm = Box::uniform(8, -2.0, 2.0).sample(WarmRng);
  checkPgdEnginesBitIdentical(Net, Region, Warm);
}

TEST(BatchExecTest, PgdEnginesBitIdenticalOnLeNet) {
  Rng NetRng(54);
  Network Net = makeLeNet(TensorShape{1, 10, 10}, 4, NetRng);
  Box Region = Box::uniform(Net.inputSize(), 0.2, 0.6);
  Rng WarmRng(55);
  const Vector Warm = Box::uniform(Net.inputSize(), 0.0, 1.0).sample(WarmRng);
  checkPgdEnginesBitIdentical(Net, Region, Warm);
}

TEST(BatchExecTest, PgdStepCostsOneForwardAndOneBackward) {
  // The objective pass that scores a step's population is reused for the
  // next step's gradient: S steps issue S + 1 batched forwards (the start
  // population plus one per step) and S backwards.
  Rng NetRng(56);
  Network Mlp = makeMlp(8, {16, 16}, 3, NetRng);
  Network Net;
  auto Counter = std::make_unique<CountingLayer>(Mlp.inputSize());
  const CountingLayer *Counts = Counter.get();
  Net.addLayer(std::move(Counter));
  for (size_t I = 0; I < Mlp.numLayers(); ++I)
    Net.addLayer(Mlp.layer(I).clone());

  PgdConfig Config;
  Config.Steps = 12;
  Config.Restarts = 3;
  Config.EarlyStopObjective = -std::numeric_limits<double>::infinity();
  Rng R(57);
  pgdMinimize(Net, Box::uniform(8, -0.7, 0.4), 0, Config, R);
  EXPECT_EQ(Counts->Backwards, Config.Steps);
  EXPECT_EQ(Counts->Forwards, Config.Steps + 1);
}

TEST(BatchExecTest, FgsmMatchesManualScalarReplication) {
  Rng NetRng(53);
  Network Net = makeMlp(7, {10}, 3, NetRng);
  Box Region = Box::uniform(7, -0.5, 0.9);

  // The classic single-point FGSM, written out with the scalar calls.
  Vector X = Region.center();
  Vector G = Net.objectiveGradient(X, 2);
  for (size_t I = 0; I < X.size(); ++I) {
    if (G[I] > 0.0)
      X[I] = Region.lower()[I];
    else if (G[I] < 0.0)
      X[I] = Region.upper()[I];
  }
  double Want = Net.objective(X, 2);

  PgdResult Got = fgsmMinimize(Net, Region, 2);
  ASSERT_EQ(Got.Objective, Want);
  ASSERT_TRUE(approxEqual(Got.X, X, 0.0));
}
