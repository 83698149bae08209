//===- ZonotopeLayoutTests.cpp - Generator-matrix layout equivalence ---------===//
//
// The zonotope domain moved from a vector-of-generator-vectors layout to a
// contiguous generator matrix with a sparse one-hot tail and batched kernels.
// These tests pin the refactor against a faithful in-test copy of the
// historical implementation: every transformer, bound query, meet, and
// compaction must agree within 1e-12 on randomized ACAS-scale stacks (most
// agree to the bit at SimdLevel::Scalar — the meet differs only in the
// rounding of its incremental running sum). Every comparison runs at every
// SIMD level the build + host support, and a separate test checks that
// forcing every kernel onto the thread pool is bit-identical to the serial
// path at each level.
//
// The float32 mode (KernelPrecision::Float32) never promises agreement with
// the reference — it promises *containment*: its outward-rounded pads must
// make every bound at least as wide as the exact double bound. The tests at
// the bottom pin that dominance on randomized stacks, check the pads stay
// within a sane factor of the double bounds, and prove the check can fire by
// flipping the rounding direction inward (the simulated unsound mode).
//
// A convolution reaches the zonotope through its tap plan, not its dense
// lowering (ZonotopeElement::applyConv). The conv tests check that path
// against the lowered product on LeNet and on generated conv nets: it must
// contain concrete executions and agree with the lowering's bounds within a
// stated tolerance, in both precisions, and a zonotope analysis must never
// build the lowering at all.
//
//===----------------------------------------------------------------------===//

#include "abstract/Analyzer.h"
#include "abstract/ZonotopeElement.h"
#include "fuzz/RandomNetwork.h"
#include "linalg/Kernels.h"
#include "linalg/KernelsF32.h"
#include "linalg/SimdDispatch.h"
#include "nn/Builder.h"
#include "nn/Conv2D.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace charon;

namespace {

/// Verbatim port of the pre-refactor vector-of-generators zonotope — the
/// reference semantics the batched implementation must reproduce.
class RefZonotope {
public:
  explicit RefZonotope(const Box &Region) : Center(Region.center()) {
    for (size_t I = 0, E = Region.dim(); I < E; ++I) {
      double HalfWidth = 0.5 * Region.width(I);
      if (HalfWidth == 0.0)
        continue;
      Vector G(Region.dim());
      G[I] = HalfWidth;
      Generators.push_back(std::move(G));
    }
  }
  RefZonotope(Vector C, std::vector<Vector> Gens)
      : Center(std::move(C)), Generators(std::move(Gens)) {}

  size_t dim() const { return Center.size(); }

  double radius(size_t I) const {
    double Sum = 0.0;
    for (const Vector &G : Generators)
      Sum += std::fabs(G[I]);
    return Sum;
  }

  void applyAffine(const Matrix &W, const Vector &B) {
    Center = matVec(W, Center);
    Center += B;
    for (Vector &G : Generators)
      G = matVec(W, G);
  }

  void applyRelu() {
    size_t N = dim();
    Vector Radius(N);
    for (const Vector &G : Generators)
      for (size_t I = 0; I < N; ++I)
        Radius[I] += std::fabs(G[I]);

    std::vector<std::pair<size_t, double>> Fresh;
    for (size_t I = 0; I < N; ++I) {
      double L = Center[I] - Radius[I];
      double U = Center[I] + Radius[I];
      if (L >= 0.0)
        continue;
      if (U <= 0.0) {
        Center[I] = 0.0;
        for (Vector &G : Generators)
          G[I] = 0.0;
        continue;
      }
      double Lambda = U / (U - L);
      double Mu = -Lambda * L * 0.5;
      Center[I] = Lambda * Center[I] + Mu;
      for (Vector &G : Generators)
        G[I] *= Lambda;
      Fresh.emplace_back(I, Mu);
    }
    for (const auto &[I, Mu] : Fresh) {
      Vector G(N);
      G[I] = Mu;
      Generators.push_back(std::move(G));
    }
  }

  void applyMaxPool(const PoolSpec &Spec) {
    size_t OutDim = Spec.PoolIndices.size();
    size_t N = dim();
    Vector Radius(N);
    for (const Vector &G : Generators)
      for (size_t I = 0; I < N; ++I)
        Radius[I] += std::fabs(G[I]);

    Vector NewCenter(OutDim);
    std::vector<Vector> NewGens(Generators.size(), Vector(OutDim));
    std::vector<std::pair<size_t, double>> Fresh;
    for (size_t O = 0; O < OutDim; ++O) {
      const std::vector<int> &Pool = Spec.PoolIndices[O];
      int Dominant = -1;
      for (int Candidate : Pool) {
        double CandLo = Center[Candidate] - Radius[Candidate];
        bool Dominates = true;
        for (int Other : Pool) {
          if (Other == Candidate)
            continue;
          if (CandLo < Center[Other] + Radius[Other]) {
            Dominates = false;
            break;
          }
        }
        if (Dominates) {
          Dominant = Candidate;
          break;
        }
      }
      if (Dominant >= 0) {
        NewCenter[O] = Center[Dominant];
        for (size_t E = 0; E < Generators.size(); ++E)
          NewGens[E][O] = Generators[E][Dominant];
        continue;
      }
      double L = Center[Pool.front()] - Radius[Pool.front()];
      double U = Center[Pool.front()] + Radius[Pool.front()];
      for (size_t I = 1; I < Pool.size(); ++I) {
        L = std::max(L, Center[Pool[I]] - Radius[Pool[I]]);
        U = std::max(U, Center[Pool[I]] + Radius[Pool[I]]);
      }
      NewCenter[O] = 0.5 * (L + U);
      Fresh.emplace_back(O, 0.5 * (U - L));
    }
    Center = std::move(NewCenter);
    Generators = std::move(NewGens);
    for (const auto &[O, HalfWidth] : Fresh) {
      if (HalfWidth == 0.0)
        continue;
      Vector G(OutDim);
      G[O] = HalfWidth;
      Generators.push_back(std::move(G));
    }
  }

  double lowerBound(size_t I) const { return Center[I] - radius(I); }
  double upperBound(size_t I) const { return Center[I] + radius(I); }

  double lowerBoundDiff(size_t K, size_t J) const {
    double Diff = Center[K] - Center[J];
    for (const Vector &G : Generators)
      Diff -= std::fabs(G[K] - G[J]);
    return Diff;
  }

  std::unique_ptr<RefZonotope> meetHalfspaceAtZero(size_t D,
                                                   bool NonNegative) const {
    double Sign = NonNegative ? -1.0 : 1.0;
    size_t M = Generators.size();
    std::vector<double> A(M);
    double TotalMag = 0.0;
    for (size_t J = 0; J < M; ++J) {
      A[J] = Sign * Generators[J][D];
      TotalMag += std::fabs(A[J]);
    }
    double E = -Sign * Center[D];
    if (TotalMag <= E)
      return std::make_unique<RefZonotope>(Center, Generators);
    if (-TotalMag > E)
      return nullptr;

    // The historical O(M^2) rescan of min-terms per tightened symbol.
    std::vector<double> LoEps(M, -1.0), HiEps(M, 1.0);
    for (int Pass = 0; Pass < 2; ++Pass) {
      for (size_t J = 0; J < M; ++J) {
        if (A[J] == 0.0)
          continue;
        double OthersMin = 0.0;
        for (size_t K = 0; K < M; ++K) {
          if (K == J)
            continue;
          OthersMin += std::min(A[K] * LoEps[K], A[K] * HiEps[K]);
        }
        double Rhs = E - OthersMin;
        if (A[J] > 0.0)
          HiEps[J] = std::min(HiEps[J], Rhs / A[J]);
        else
          LoEps[J] = std::max(LoEps[J], Rhs / A[J]);
        if (LoEps[J] > HiEps[J])
          return nullptr;
      }
    }

    Vector NewCenter = Center;
    std::vector<Vector> NewGens;
    for (size_t J = 0; J < M; ++J) {
      double Mid = 0.5 * (LoEps[J] + HiEps[J]);
      double Rad = 0.5 * (HiEps[J] - LoEps[J]);
      if (Mid != 0.0)
        for (size_t I = 0, N = dim(); I < N; ++I)
          NewCenter[I] += Mid * Generators[J][I];
      if (Rad == 0.0)
        continue;
      Vector G = Generators[J];
      if (Rad != 1.0)
        G *= Rad;
      NewGens.push_back(std::move(G));
    }
    return std::make_unique<RefZonotope>(std::move(NewCenter),
                                         std::move(NewGens));
  }

  void compact(double Tol) {
    size_t N = dim();
    Vector Folded(N);
    std::vector<Vector> Kept;
    for (Vector &G : Generators) {
      double Mag = 0.0;
      for (size_t I = 0; I < N; ++I)
        Mag += std::fabs(G[I]);
      if (Mag <= Tol) {
        for (size_t I = 0; I < N; ++I)
          Folded[I] += std::fabs(G[I]);
      } else {
        Kept.push_back(std::move(G));
      }
    }
    Generators = std::move(Kept);
    for (size_t I = 0; I < N; ++I) {
      if (Folded[I] == 0.0)
        continue;
      Vector G(N);
      G[I] = Folded[I];
      Generators.push_back(std::move(G));
    }
  }

  size_t numGenerators() const { return Generators.size(); }
  Vector generator(size_t E) const { return Generators[E]; }
  const Vector &center() const { return Center; }

private:
  Vector Center;
  std::vector<Vector> Generators;
};

Matrix randomWeights(size_t Rows, size_t Cols, Rng &R) {
  Matrix W(Rows, Cols);
  for (size_t I = 0; I < Rows; ++I)
    for (size_t J = 0; J < Cols; ++J)
      W(I, J) = R.gaussian(0.0, 1.0 / std::sqrt(double(Cols)));
  return W;
}

Vector randomBias(size_t N, Rng &R) {
  Vector B(N);
  for (size_t I = 0; I < N; ++I)
    B[I] = R.uniform(-0.1, 0.1);
  return B;
}

Box randomInputBox(size_t N, Rng &R) {
  Vector C(N);
  for (size_t I = 0; I < N; ++I)
    C[I] = R.uniform(0.2, 0.8);
  return Box::linfBall(C, 0.05, 0.0, 1.0);
}

void expectSameBounds(const ZonotopeElement &Got, const RefZonotope &Want,
                      double Tol) {
  ASSERT_EQ(Got.dim(), Want.dim());
  ASSERT_EQ(Got.numGenerators(), Want.numGenerators());
  for (size_t I = 0; I < Got.dim(); ++I) {
    EXPECT_NEAR(Got.lowerBound(I), Want.lowerBound(I), Tol) << "dim " << I;
    EXPECT_NEAR(Got.upperBound(I), Want.upperBound(I), Tol) << "dim " << I;
  }
}

void expectSameGenerators(const ZonotopeElement &Got, const RefZonotope &Want,
                          double Tol) {
  ASSERT_EQ(Got.numGenerators(), Want.numGenerators());
  for (size_t E = 0; E < Got.numGenerators(); ++E) {
    Vector G = Got.generatorRow(E);
    Vector W = Want.generator(E);
    for (size_t I = 0; I < Got.dim(); ++I)
      ASSERT_NEAR(G[I], W[I], Tol) << "generator " << E << " dim " << I;
  }
}

/// Restores the SIMD level when a test scope ends.
class SimdGuard {
public:
  SimdGuard() : Saved(kernels::simdLevel()) {}
  ~SimdGuard() { kernels::setSimdLevel(Saved); }

private:
  kernels::SimdLevel Saved;
};

/// Restores the float32 error direction when a test scope ends.
class ErrDirGuard {
public:
  ErrDirGuard() : Saved(kernels::float32ErrDir()) {}
  ~ErrDirGuard() { kernels::setFloat32ErrDirForTest(Saved); }

private:
  double Saved;
};

/// Runs \p Body once per available SIMD level with that level active.
template <typename Fn> void forEachSimdLevel(Fn Body) {
  SimdGuard Guard;
  for (kernels::SimdLevel L : kernels::availableSimdLevels()) {
    SCOPED_TRACE(std::string("simd=") + kernels::simdLevelName(L));
    ASSERT_TRUE(kernels::setSimdLevel(L));
    Body();
  }
}

} // namespace

// An ACAS-scale Dense+ReLU stack: every layer's bounds, every generator, and
// every pairwise margin must match the historical layout at every SIMD level
// (at SimdLevel::Scalar the serial kernels preserve accumulation order
// exactly, so Tol = 0 would also pass; 1e-12 is the contract the issue
// states and it absorbs the AVX2/FMA regrouping too).
TEST(ZonotopeLayoutTest, DenseReluStackMatchesReference) {
  forEachSimdLevel([&] {
    for (uint64_t Seed : {7u, 19u, 23u}) {
      Rng R(Seed);
      const size_t Sizes[] = {5, 50, 50, 50, 5};
      Box In = randomInputBox(Sizes[0], R);
      ZonotopeElement Z(In);
      RefZonotope Ref(In);
      expectSameBounds(Z, Ref, 0.0);

      for (size_t L = 0; L + 1 < std::size(Sizes); ++L) {
        Matrix W = randomWeights(Sizes[L + 1], Sizes[L], R);
        Vector B = randomBias(Sizes[L + 1], R);
        Z.applyAffine(W, B);
        Ref.applyAffine(W, B);
        expectSameBounds(Z, Ref, 1e-12);
        if (L + 2 < std::size(Sizes)) {
          Z.applyRelu();
          Ref.applyRelu();
          expectSameBounds(Z, Ref, 1e-12);
          expectSameGenerators(Z, Ref, 1e-12);
        }
      }
      for (size_t K = 0; K < Sizes[4]; ++K)
        for (size_t J = 0; J < Sizes[4]; ++J) {
          if (K == J)
            continue;
          EXPECT_NEAR(Z.lowerBoundDiff(K, J), Ref.lowerBoundDiff(K, J),
                      1e-12);
        }
    }
  });
}

TEST(ZonotopeLayoutTest, MaxPoolMatchesReference) {
  forEachSimdLevel([&] {
    Rng R(31);
    Box In = randomInputBox(16, R);
    ZonotopeElement Z(In);
    RefZonotope Ref(In);
    Matrix W = randomWeights(16, 16, R);
    Vector B = randomBias(16, R);
    Z.applyAffine(W, B);
    Ref.applyAffine(W, B);
    Z.applyRelu();
    Ref.applyRelu();

    PoolSpec Spec;
    for (size_t O = 0; O < 4; ++O)
      Spec.PoolIndices.push_back(
          {int(4 * O), int(4 * O + 1), int(4 * O + 2), int(4 * O + 3)});
    Z.applyMaxPool(Spec);
    Ref.applyMaxPool(Spec);
    expectSameBounds(Z, Ref, 1e-12);
    expectSameGenerators(Z, Ref, 1e-12);

    // Pool again while fresh one-hot symbols are still sparse: overlapping
    // windows copy sparse coordinates into two outputs each, exercising the
    // prefix materialization (non-overlapping pools never densify).
    PoolSpec Spec2;
    Spec2.PoolIndices.push_back({0, 1, 2});
    Spec2.PoolIndices.push_back({1, 2, 3});
    Z.applyMaxPool(Spec2);
    Ref.applyMaxPool(Spec2);
    expectSameBounds(Z, Ref, 1e-12);
    expectSameGenerators(Z, Ref, 1e-12);
  });
}

// The meet rewrites the O(M^2) others-minimum rescan as an incremental
// running sum; agreement is within rounding (1e-12), not bitwise.
TEST(ZonotopeLayoutTest, MeetHalfspaceMatchesReference) {
  forEachSimdLevel([&] {
    size_t Meets = 0;
    for (uint64_t Seed : {3u, 11u, 29u, 41u}) {
      Rng R(Seed);
      Box In = randomInputBox(8, R);
      ZonotopeElement Z(In);
      RefZonotope Ref(In);
      Matrix W = randomWeights(8, 8, R);
      Vector B = randomBias(8, R);
      Z.applyAffine(W, B);
      Ref.applyAffine(W, B);
      Z.applyRelu();
      Ref.applyRelu();

      for (size_t D = 0; D < 8; ++D)
        for (bool NonNegative : {true, false}) {
          auto Got = Z.meetHalfspaceAtZero(D, NonNegative);
          auto Want = Ref.meetHalfspaceAtZero(D, NonNegative);
          ASSERT_EQ(Got == nullptr, Want == nullptr)
              << "dim " << D << " nonneg " << NonNegative;
          if (!Got)
            continue;
          ++Meets;
          auto *GotZ = static_cast<ZonotopeElement *>(Got.get());
          expectSameBounds(*GotZ, *Want, 1e-12);
          expectSameGenerators(*GotZ, *Want, 1e-12);
        }
    }
    EXPECT_GT(Meets, 0u); // The sweep must exercise non-trivial meets.
  });
}

TEST(ZonotopeLayoutTest, CompactMatchesReference) {
  forEachSimdLevel([&] {
    Rng R(57);
    Box In = randomInputBox(12, R);
    ZonotopeElement Z(In);
    RefZonotope Ref(In);
    for (int Layer = 0; Layer < 3; ++Layer) {
      Matrix W = randomWeights(12, 12, R);
      Vector B = randomBias(12, R);
      Z.applyAffine(W, B);
      Ref.applyAffine(W, B);
      Z.applyRelu();
      Ref.applyRelu();
    }
    ASSERT_GT(Z.numGenerators(), 12u);
    Z.compact(0.05);
    Ref.compact(0.05);
    expectSameBounds(Z, Ref, 1e-12);
    expectSameGenerators(Z, Ref, 1e-12);
    ASSERT_LT(Z.numGenerators(), Ref.numGenerators() + 1); // Same count.
  });
}

// Forcing every kernel onto the thread pool must not change a single bit at
// any SIMD level: threading shards output rows (or, for absColumnSums,
// whole columns), never accumulation order.
TEST(ZonotopeLayoutTest, ForcedThreadingIsBitIdentical) {
  Rng R(83);
  const size_t Sizes[] = {10, 64, 64, 10};
  Box In = randomInputBox(Sizes[0], R);

  std::vector<Matrix> Ws;
  std::vector<Vector> Bs;
  for (size_t L = 0; L + 1 < std::size(Sizes); ++L) {
    Ws.push_back(randomWeights(Sizes[L + 1], Sizes[L], R));
    Bs.push_back(randomBias(Sizes[L + 1], R));
  }

  auto Propagate = [&](KernelPrecision P) {
    ZonotopeElement Z(In, P);
    for (size_t L = 0; L < Ws.size(); ++L) {
      Z.applyAffine(Ws[L], Bs[L]);
      if (L + 1 < Ws.size())
        Z.applyRelu();
    }
    Vector Out(2 * Z.dim());
    for (size_t I = 0; I < Z.dim(); ++I) {
      Out[2 * I] = Z.lowerBound(I);
      Out[2 * I + 1] = Z.upperBound(I);
    }
    return Out;
  };

  forEachSimdLevel([&] {
    for (KernelPrecision P : {KernelPrecision::Double,
                              KernelPrecision::Float32}) {
      SCOPED_TRACE(toString(P));
      size_t Saved = kernels::parallelThreshold();
      kernels::setParallelThreshold(size_t(1) << 40);
      Vector Serial = Propagate(P);
      kernels::setParallelThreshold(0);
      Vector Threaded = Propagate(P);
      kernels::setParallelThreshold(Saved);

      for (size_t I = 0; I < Serial.size(); ++I)
        ASSERT_EQ(Serial[I], Threaded[I]) << "entry " << I;
    }
  });
}

//===----------------------------------------------------------------------===//
// Float32 mode: containment instead of agreement
//===----------------------------------------------------------------------===//

namespace {

/// Drives a double and a float32 element through the same layer stack and
/// asserts, after every layer, that the float32 interval contains the double
/// interval (dominance — the soundness invariant) while staying within a
/// sane width of it (the pads must not be garbage-loose). Returns true iff
/// dominance held everywhere, so the inward-flip test can assert failure.
bool float32DominatesDouble(uint64_t Seed, bool ExpectDominance) {
  Rng R(Seed);
  const size_t Sizes[] = {6, 40, 40, 6};
  Box In = randomInputBox(Sizes[0], R);
  ZonotopeElement Zd(In, KernelPrecision::Double);
  ZonotopeElement Zf(In, KernelPrecision::Float32);
  EXPECT_EQ(Zf.precision(), KernelPrecision::Float32);

  bool Dominates = true;
  auto CheckLayer = [&]() {
    for (size_t I = 0; I < Zd.dim(); ++I) {
      double Lo = Zd.lowerBound(I), Hi = Zd.upperBound(I);
      // The double bounds sit within ordinary rounding of the exact-real
      // bounds; the float pads are orders of magnitude above that, so
      // dominance must hold with this tiny slack to spare.
      double Slack = 1e-10 * (1.0 + std::max(std::fabs(Lo), std::fabs(Hi)));
      bool Ok = Zf.lowerBound(I) <= Lo + Slack && Zf.upperBound(I) >= Hi - Slack;
      Dominates = Dominates && Ok;
      if (ExpectDominance) {
        EXPECT_LE(Zf.lowerBound(I), Lo + Slack) << "dim " << I;
        EXPECT_GE(Zf.upperBound(I), Hi - Slack) << "dim " << I;
        // Not garbage-loose either: float32 noise on O(1) values.
        EXPECT_NEAR(Zf.lowerBound(I), Lo, 1e-3) << "dim " << I;
        EXPECT_NEAR(Zf.upperBound(I), Hi, 1e-3) << "dim " << I;
      }
    }
  };

  for (size_t L = 0; L + 1 < std::size(Sizes); ++L) {
    Matrix W = randomWeights(Sizes[L + 1], Sizes[L], R);
    Vector B = randomBias(Sizes[L + 1], R);
    Zd.applyAffine(W, B);
    Zf.applyAffine(W, B);
    CheckLayer();
    if (L + 2 < std::size(Sizes)) {
      Zd.applyRelu();
      Zf.applyRelu();
      CheckLayer();
    }
  }

  // The verdict-carrying query: the float32 margin must never exceed the
  // double margin (a wider abstraction can only lose precision).
  for (size_t K = 0; K < Zd.dim(); ++K)
    for (size_t J = 0; J < Zd.dim(); ++J) {
      if (K == J)
        continue;
      double Dd = Zd.lowerBoundDiff(K, J);
      double Df = Zf.lowerBoundDiff(K, J);
      double Slack = 1e-10 * (1.0 + std::fabs(Dd));
      Dominates = Dominates && Df <= Dd + Slack;
      if (ExpectDominance)
        EXPECT_LE(Df, Dd + Slack) << "margin (" << K << ", " << J << ")";
    }
  return Dominates;
}

} // namespace

TEST(ZonotopeFloat32Test, OutwardRoundedBoundsDominateDouble) {
  forEachSimdLevel([&] {
    for (uint64_t Seed : {7u, 19u, 23u, 57u})
      float32DominatesDouble(Seed, /*ExpectDominance=*/true);
  });
}

TEST(ZonotopeFloat32Test, MaxPoolKeepsDominance) {
  forEachSimdLevel([&] {
    Rng R(131);
    Box In = randomInputBox(16, R);
    ZonotopeElement Zd(In, KernelPrecision::Double);
    ZonotopeElement Zf(In, KernelPrecision::Float32);
    Matrix W = randomWeights(16, 16, R);
    Vector B = randomBias(16, R);
    Zd.applyAffine(W, B);
    Zf.applyAffine(W, B);
    Zd.applyRelu();
    Zf.applyRelu();

    // Overlapping windows force the sparse prefix to materialize in both
    // modes (the float mode folds the conversion error into its pad).
    PoolSpec Spec;
    Spec.PoolIndices.push_back({0, 1, 2});
    Spec.PoolIndices.push_back({1, 2, 3});
    Spec.PoolIndices.push_back({4, 5});
    Spec.PoolIndices.push_back({6, 7, 8, 9});
    Zd.applyMaxPool(Spec);
    Zf.applyMaxPool(Spec);
    ASSERT_EQ(Zf.dim(), Zd.dim());
    for (size_t I = 0; I < Zd.dim(); ++I) {
      double Slack = 1e-10 * (1.0 + std::fabs(Zd.lowerBound(I)));
      EXPECT_LE(Zf.lowerBound(I), Zd.lowerBound(I) + Slack) << "dim " << I;
      EXPECT_GE(Zf.upperBound(I), Zd.upperBound(I) - Slack) << "dim " << I;
    }
  });
}

TEST(ZonotopeFloat32Test, InwardFlipBreaksDominance) {
  // With the error direction flipped every pad term shrinks the radius: the
  // float32 bounds land strictly inside the double bounds somewhere, which
  // is exactly the unsoundness the dominance check (and the fuzz oracle
  // built on it) must detect. This proves the check is not vacuous.
  ErrDirGuard Guard;
  kernels::setFloat32ErrDirForTest(-1.0);
  bool AnyViolation = false;
  for (uint64_t Seed : {7u, 19u, 23u, 57u})
    AnyViolation =
        AnyViolation || !float32DominatesDouble(Seed, /*ExpectDominance=*/false);
  EXPECT_TRUE(AnyViolation)
      << "inward-rounded float32 bounds still dominated double everywhere";
}

//===----------------------------------------------------------------------===//
// Convolutions through the tap plan
//===----------------------------------------------------------------------===//

namespace {

/// propagate() with every Conv2D applied through its dense lowering: the
/// path the tap plan replaced, as the reference.
void propagateLowered(const Network &Net, AbstractElement &Elem) {
  for (size_t I = 0, E = Net.numLayers(); I < E; ++I) {
    const Layer &L = Net.layer(I);
    if (L.isIdentity())
      continue;
    if (auto Affine = L.affineForm())
      Elem.applyAffine(*Affine->W, *Affine->B);
    else if (auto Act = L.activationKind())
      Elem.applyActivation(*Act, 0, Elem.dim());
    else if (const PoolSpec *Spec = L.poolSpec())
      Elem.applyMaxPool(*Spec);
    else
      FAIL() << "unexpected layer kind in a conv net";
  }
}

/// Relative agreement: |Got - Want| <= Tol * (1 + |Want|).
void expectAgree(double Got, double Want, double Tol, const char *What,
                 size_t I) {
  EXPECT_LE(std::fabs(Got - Want), Tol * (1.0 + std::fabs(Want)))
      << What << " " << I << ": taps " << Got << " lowered " << Want;
}

/// Propagates \p Region through \p Net both ways at precision \p P and
/// checks the tap path: every output bound and pairwise margin within
/// \p Tol of the lowering's, and every sampled concrete output inside the
/// tap path's bounds.
void checkConvTapsAgainstLowering(const Network &Net, const Box &Region,
                                  KernelPrecision P, double Tol, Rng &R) {
  ZonotopeElement Taps(Region, P), Lowered(Region, P);
  ASSERT_TRUE(propagate(Net, Taps));
  propagateLowered(Net, Lowered);
  ASSERT_EQ(Taps.dim(), Lowered.dim());
  for (size_t I = 0; I < Taps.dim(); ++I) {
    expectAgree(Taps.lowerBound(I), Lowered.lowerBound(I), Tol, "lower", I);
    expectAgree(Taps.upperBound(I), Lowered.upperBound(I), Tol, "upper", I);
  }
  for (size_t K = 0; K < Taps.dim(); ++K)
    for (size_t J = 0; J < Taps.dim(); ++J)
      if (K != J)
        expectAgree(Taps.lowerBoundDiff(K, J), Lowered.lowerBoundDiff(K, J),
                    Tol, "margin", K * Taps.dim() + J);
  for (int S = 0; S < 32; ++S) {
    Vector Y = Net.evaluate(Region.sample(R));
    for (size_t I = 0; I < Y.size(); ++I) {
      double Slack = 1e-9 * (1.0 + std::fabs(Y[I]));
      EXPECT_LE(Taps.lowerBound(I), Y[I] + Slack) << "output " << I;
      EXPECT_GE(Taps.upperBound(I), Y[I] - Slack) << "output " << I;
    }
  }
}

/// Conv nets to test on: the mnist_conv-shaped LeNet and generated conv
/// nets from the fuzz generator (random channels, kernels, strides, pads,
/// pools and activations).
std::vector<Network> convTestNets() {
  std::vector<Network> Nets;
  Rng NetRng(71);
  Nets.push_back(makeLeNet(TensorShape{1, 10, 10}, 10, NetRng));
  GeneratorConfig Config;
  Config.ConvProbability = 1.0;
  Rng SpecRng(72);
  for (int I = 0; I < 12; ++I)
    Nets.push_back(buildNetwork(generateNetworkSpec(SpecRng, Config)));
  return Nets;
}

} // namespace

// Tolerances: in double the tap walk differs from the lowered product only
// in rounding (mul + add over the real taps against the product's fma chain
// over the zero-filled row), so bounds agree to 1e-9 relative. In float32
// both paths carry their own outward pads, so they agree only to float
// noise: 1e-3 relative on these O(1)-scaled nets.
TEST(ZonotopeConvTest, TapsMatchLoweredProductAndContainExecutions) {
  std::vector<Network> Nets = convTestNets();
  forEachSimdLevel([&] {
    Rng R(73);
    for (size_t N = 0; N < Nets.size(); ++N) {
      SCOPED_TRACE("net " + std::to_string(N));
      const Network &Net = Nets[N];
      Vector C(Net.inputSize());
      for (size_t I = 0; I < C.size(); ++I)
        C[I] = R.uniform(0.2, 0.8);
      Box Region = Box::linfBall(C, N == 0 ? 0.02 : 0.1, 0.0, 1.0);
      {
        SCOPED_TRACE("double");
        checkConvTapsAgainstLowering(Net, Region, KernelPrecision::Double,
                                     1e-9, R);
      }
      {
        SCOPED_TRACE("float32");
        checkConvTapsAgainstLowering(Net, Region, KernelPrecision::Float32,
                                     1e-3, R);
      }
      // The float tap path stays sound against the double tap path.
      ZonotopeElement Zd(Region), Zf(Region, KernelPrecision::Float32);
      ASSERT_TRUE(propagate(Net, Zd));
      ASSERT_TRUE(propagate(Net, Zf));
      for (size_t I = 0; I < Zd.dim(); ++I) {
        double Slack = 1e-10 * (1.0 + std::fabs(Zd.lowerBound(I)) +
                                std::fabs(Zd.upperBound(I)));
        EXPECT_LE(Zf.lowerBound(I), Zd.lowerBound(I) + Slack) << "dim " << I;
        EXPECT_GE(Zf.upperBound(I), Zd.upperBound(I) - Slack) << "dim " << I;
      }
    }
  });
}

TEST(ZonotopeConvTest, TapsAreBitIdenticalAcrossThreading) {
  std::vector<Network> Nets = convTestNets();
  forEachSimdLevel([&] {
    for (KernelPrecision P :
         {KernelPrecision::Double, KernelPrecision::Float32}) {
      SCOPED_TRACE(toString(P));
      const Network &Net = Nets.front();
      Box Region = Box::uniform(Net.inputSize(), 0.3, 0.35);
      size_t Saved = kernels::parallelThreshold();
      kernels::setParallelThreshold(size_t(1) << 40);
      ZonotopeElement Serial(Region, P);
      ASSERT_TRUE(propagate(Net, Serial));
      kernels::setParallelThreshold(0);
      ZonotopeElement Threaded(Region, P);
      ASSERT_TRUE(propagate(Net, Threaded));
      kernels::setParallelThreshold(Saved);
      for (size_t I = 0; I < Serial.dim(); ++I) {
        ASSERT_EQ(Serial.lowerBound(I), Threaded.lowerBound(I)) << I;
        ASSERT_EQ(Serial.upperBound(I), Threaded.upperBound(I)) << I;
      }
    }
  });
}

TEST(ZonotopeConvTest, ZonotopeAnalysisNeverBuildsTheLowering) {
  Rng NetRng(74);
  const Network Original = makeLeNet(TensorShape{1, 10, 10}, 10, NetRng);
  auto ConvLayers = [](const Network &Net) {
    std::vector<const Conv2DLayer *> Convs;
    for (size_t I = 0; I < Net.numLayers(); ++I)
      if (Net.layer(I).kind() == LayerKind::Conv2D)
        Convs.push_back(static_cast<const Conv2DLayer *>(&Net.layer(I)));
    return Convs;
  };
  Network Fresh = Original.clone();
  ASSERT_EQ(ConvLayers(Fresh).size(), 3u);
  Box Region = Box::uniform(Fresh.inputSize(), 0.4, 0.45);
  DomainSpec Zono{BaseDomainKind::Zonotope, 1};
  DomainSpec Zono2{BaseDomainKind::Zonotope, 2};
  analyzeRobustness(Fresh, Region, 0, Zono);
  analyzeRobustness(Fresh, Region, 0, Zono2);
  analyzeRobustness(Fresh, Region, 0, Zono, nullptr, KernelPrecision::Float32);
  for (const Conv2DLayer *C : ConvLayers(Fresh))
    EXPECT_FALSE(C->loweringBuilt());
  // The flag is live: a domain on the default path does build it.
  analyzeRobustness(Fresh, Region, 0,
                    DomainSpec{BaseDomainKind::Interval, 1});
  for (const Conv2DLayer *C : ConvLayers(Fresh))
    EXPECT_TRUE(C->loweringBuilt());
}
