//===- KernelTests.cpp - Dispatched kernels vs naive references --------------===//
//
// The kernels in linalg/Kernels.h run behind a runtime SIMD dispatch table
// (linalg/SimdDispatch.h). These tests sweep every level the build + host
// support and pin the determinism contract at each one:
//
//  - at SimdLevel::Scalar every kernel is bit-identical to its naive
//    single-threaded reference loop (the historical contract);
//  - elementwise kernels (scaleColumns, gatherColumns, relu*) and
//    absColumnSums are bit-identical across *all* levels;
//  - reductions (matMul, matMulTransposed, absRowSums) may regroup their
//    accumulation under AVX2/FMA, but stay bit-identical across thread
//    counts *within* a level and within a small tolerance of the reference;
//  - the float32 kernels (linalg/KernelsF32.h) stay within the closed-form
//    error bounds the zonotope float mode folds into its pad, and the
//    outward-rounding helpers really round outward (and flip inward under
//    the test-only direction override).
//
// The paired-row bodies (AffineRows, MatMulRows take two rows per weight
// row) are also driven directly through the internal dispatch table, so
// shards that start at an odd row are covered whatever the pool size.
//
// Each product/sweep case runs both below and above the parallel threshold
// (setParallelThreshold(0) forces every kernel onto the thread pool), on
// shapes including empty, single-row, and strongly non-square matrices.
//
//===----------------------------------------------------------------------===//

#include "linalg/Kernels.h"
#include "linalg/KernelsF32.h"
#include "linalg/Matrix.h"
#include "linalg/SimdDispatch.h"
#include "linalg/SimdOpsImpl.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

using namespace charon;

namespace {

Matrix randomMatrix(size_t Rows, size_t Cols, Rng &R, double ZeroFrac = 0.0) {
  Matrix M(Rows, Cols);
  for (size_t I = 0; I < Rows; ++I)
    for (size_t J = 0; J < Cols; ++J)
      M(I, J) = R.uniform() < ZeroFrac ? 0.0 : R.uniform(-2.0, 2.0);
  return M;
}

Matrix naiveMatMul(const Matrix &A, const Matrix &B) {
  Matrix C(A.rows(), B.cols());
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < B.cols(); ++J) {
      double Sum = 0.0;
      for (size_t K = 0; K < A.cols(); ++K)
        Sum += A(I, K) * B(K, J);
      C(I, J) = Sum;
    }
  return C;
}

Matrix naiveMatMulTransposed(const Matrix &A, const Matrix &B) {
  Matrix C(A.rows(), B.rows());
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < B.rows(); ++J) {
      double Sum = 0.0;
      for (size_t K = 0; K < A.cols(); ++K)
        Sum += A(I, K) * B(J, K);
      C(I, J) = Sum;
    }
  return C;
}

Vector naiveAbsRowSums(const Matrix &A) {
  Vector Out(A.rows());
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < A.cols(); ++J)
      Out[I] += std::fabs(A(I, J));
  return Out;
}

Vector naiveAbsColumnSums(const Matrix &A) {
  Vector Out(A.cols());
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < A.cols(); ++J)
      Out[J] += std::fabs(A(I, J));
  return Out;
}

// == on doubles treats -0.0 == 0.0 as equal, which is exactly the contract:
// values bit-identical up to zero sign.
void expectValueEqual(const Matrix &Got, const Matrix &Want) {
  ASSERT_EQ(Got.rows(), Want.rows());
  ASSERT_EQ(Got.cols(), Want.cols());
  for (size_t I = 0; I < Got.rows(); ++I)
    for (size_t J = 0; J < Got.cols(); ++J)
      ASSERT_EQ(Got(I, J), Want(I, J)) << "at (" << I << ", " << J << ")";
}

void expectValueEqual(const Vector &Got, const Vector &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I)
    ASSERT_EQ(Got[I], Want[I]) << "at " << I;
}

void expectValueEqualF(const MatrixF &Got, const MatrixF &Want) {
  ASSERT_EQ(Got.rows(), Want.rows());
  ASSERT_EQ(Got.cols(), Want.cols());
  for (size_t I = 0; I < Got.rows(); ++I)
    for (size_t J = 0; J < Got.cols(); ++J)
      ASSERT_EQ(Got(I, J), Want(I, J)) << "at (" << I << ", " << J << ")";
}

// Reductions regroup their accumulation under AVX2/FMA: compare against the
// naive reference with a relative tolerance far above double noise but far
// below any real defect.
void expectClose(const Matrix &Got, const Matrix &Want, double Tol) {
  ASSERT_EQ(Got.rows(), Want.rows());
  ASSERT_EQ(Got.cols(), Want.cols());
  for (size_t I = 0; I < Got.rows(); ++I)
    for (size_t J = 0; J < Got.cols(); ++J)
      ASSERT_NEAR(Got(I, J), Want(I, J),
                  Tol * std::max(1.0, std::fabs(Want(I, J))))
          << "at (" << I << ", " << J << ")";
}

void expectClose(const Vector &Got, const Vector &Want, double Tol) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I)
    ASSERT_NEAR(Got[I], Want[I], Tol * std::max(1.0, std::fabs(Want[I])))
        << "at " << I;
}

/// Restores the parallel threshold when a test scope ends.
class ThresholdGuard {
public:
  ThresholdGuard() : Saved(kernels::parallelThreshold()) {}
  ~ThresholdGuard() { kernels::setParallelThreshold(Saved); }

private:
  size_t Saved;
};

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

/// Runs \p Body once per available SIMD level with that level active, under
/// a SCOPED_TRACE naming the level.
template <typename Fn> void forEachSimdLevel(Fn Body) {
  SimdGuard Guard;
  for (kernels::SimdLevel L : kernels::availableSimdLevels()) {
    SCOPED_TRACE(std::string("simd=") + kernels::simdLevelName(L));
    ASSERT_TRUE(kernels::setSimdLevel(L));
    Body(L);
  }
}

// The shapes every product/sweep test runs over: empty operands, single
// rows/columns, strongly rectangular, and a large-enough square that blocked
// panels actually wrap around.
struct Shape {
  size_t M, K, N;
};
const Shape ProductShapes[] = {
    {0, 0, 0}, {0, 7, 3},  {3, 7, 0},   {1, 1, 1},    {1, 17, 5},
    {5, 1, 9}, {9, 33, 1}, {13, 7, 61}, {40, 90, 17}, {70, 70, 70},
};

} // namespace

TEST(KernelTest, DispatchLevelsRoundTrip) {
  SimdGuard Guard;
  std::vector<kernels::SimdLevel> Levels = kernels::availableSimdLevels();
  ASSERT_FALSE(Levels.empty());
  EXPECT_EQ(Levels.front(), kernels::SimdLevel::Scalar);
  EXPECT_STREQ(kernels::simdLevelName(kernels::SimdLevel::Scalar), "scalar");
  EXPECT_STREQ(kernels::simdLevelName(kernels::SimdLevel::Avx2), "avx2");
  EXPECT_STREQ(toString(KernelPrecision::Double), "double");
  EXPECT_STREQ(toString(KernelPrecision::Float32), "float32");
  for (kernels::SimdLevel L : Levels) {
    ASSERT_TRUE(kernels::setSimdLevel(L));
    EXPECT_EQ(kernels::simdLevel(), L);
  }
}

TEST(KernelTest, MatMulMatchesNaiveSerialAndParallel) {
  Rng R(101);
  for (const Shape &S : ProductShapes) {
    Matrix A = randomMatrix(S.M, S.K, R, 0.3); // Zeros exercise the skip path.
    Matrix B = randomMatrix(S.K, S.N, R);
    Matrix Want = naiveMatMul(A, B);
    forEachSimdLevel([&](kernels::SimdLevel L) {
      ThresholdGuard G;
      kernels::setParallelThreshold(size_t(1) << 40); // Always serial.
      Matrix Serial = matMul(A, B);
      if (L == kernels::SimdLevel::Scalar)
        expectValueEqual(Serial, Want);
      else
        expectClose(Serial, Want, 1e-12);
      kernels::setParallelThreshold(0); // Always threaded.
      expectValueEqual(matMul(A, B), Serial); // Bit-identical within a level.
    });
  }
}

TEST(KernelTest, MatMulTransposedMatchesNaiveSerialAndParallel) {
  Rng R(202);
  for (const Shape &S : ProductShapes) {
    Matrix A = randomMatrix(S.M, S.K, R);
    Matrix B = randomMatrix(S.N, S.K, R); // B is N x K; product is M x N.
    Matrix Want = naiveMatMulTransposed(A, B);
    forEachSimdLevel([&](kernels::SimdLevel L) {
      ThresholdGuard G;
      kernels::setParallelThreshold(size_t(1) << 40);
      Matrix Serial = kernels::matMulTransposed(A, B);
      if (L == kernels::SimdLevel::Scalar)
        expectValueEqual(Serial, Want);
      else
        expectClose(Serial, Want, 1e-12);
      kernels::setParallelThreshold(0);
      expectValueEqual(kernels::matMulTransposed(A, B), Serial);
    });
  }
}

TEST(KernelTest, MatMulTransposedIntoWritesOffsetBlock) {
  Rng R(303);
  Matrix A = randomMatrix(6, 11, R);
  Matrix B = randomMatrix(4, 11, R);
  forEachSimdLevel([&](kernels::SimdLevel) {
    // The Into form must agree bit-for-bit with the level's own full
    // product and leave rows outside the block untouched.
    Matrix Want = kernels::matMulTransposed(A, B);
    Matrix C(9, 4);
    for (size_t I = 0; I < C.rows(); ++I)
      for (size_t J = 0; J < C.cols(); ++J)
        C(I, J) = -7.0; // Sentinel: rows outside the block must survive.
    kernels::matMulTransposedInto(A, B, C, 2);
    for (size_t I = 0; I < C.rows(); ++I)
      for (size_t J = 0; J < C.cols(); ++J) {
        if (I >= 2 && I < 8)
          ASSERT_EQ(C(I, J), Want(I - 2, J));
        else
          ASSERT_EQ(C(I, J), -7.0);
      }
  });
}

TEST(KernelTest, AbsColumnSumsExactAtEveryLevelAndThreading) {
  Rng R(404);
  const Shape Shapes[] = {{0, 0, 0}, {0, 5, 0}, {1, 9, 0},
                          {9, 1, 0}, {23, 57, 0}, {67, 130, 0}};
  for (const Shape &S : Shapes) {
    Matrix A = randomMatrix(S.M, S.K, R, 0.2);
    Vector Want = naiveAbsColumnSums(A);
    // absColumnSums accumulates each column in ascending-row order at every
    // level and shards by *columns*, so it is bit-identical to the naive
    // loop across all levels and thread counts.
    forEachSimdLevel([&](kernels::SimdLevel) {
      ThresholdGuard G;
      kernels::setParallelThreshold(size_t(1) << 40);
      expectValueEqual(kernels::absColumnSums(A), Want);
      kernels::setParallelThreshold(0);
      expectValueEqual(kernels::absColumnSums(A), Want);
    });
  }
}

TEST(KernelTest, AbsRowSumsMatchNaive) {
  Rng R(414);
  const Shape Shapes[] = {{0, 0, 0}, {0, 5, 0}, {1, 9, 0},
                          {9, 1, 0}, {23, 57, 0}};
  for (const Shape &S : Shapes) {
    Matrix A = randomMatrix(S.M, S.K, R, 0.2);
    Vector Want = naiveAbsRowSums(A);
    forEachSimdLevel([&](kernels::SimdLevel L) {
      ThresholdGuard G;
      kernels::setParallelThreshold(size_t(1) << 40);
      Vector Serial = kernels::absRowSums(A);
      if (L == kernels::SimdLevel::Scalar)
        expectValueEqual(Serial, Want);
      else
        expectClose(Serial, Want, 1e-12);
      kernels::setParallelThreshold(0);
      expectValueEqual(kernels::absRowSums(A), Serial);
    });
  }
}

TEST(KernelTest, ScaleColumnsMatchesNaiveSerialAndParallel) {
  Rng R(505);
  const Shape Shapes[] = {{0, 4, 0}, {1, 6, 0}, {17, 1, 0}, {31, 44, 0}};
  for (const Shape &S : Shapes) {
    Matrix A = randomMatrix(S.M, S.K, R);
    Vector Scale(S.K);
    for (size_t J = 0; J < S.K; ++J)
      Scale[J] = J % 3 == 0 ? 0.0 : R.uniform(0.0, 1.0); // ReLU-like scales.

    Matrix Want = A;
    for (size_t I = 0; I < S.M; ++I)
      for (size_t J = 0; J < S.K; ++J)
        Want(I, J) *= Scale[J];

    // Elementwise: exact at every level.
    forEachSimdLevel([&](kernels::SimdLevel) {
      Matrix Serial = A, Threaded = A;
      ThresholdGuard G;
      kernels::setParallelThreshold(size_t(1) << 40);
      kernels::scaleColumns(Serial, Scale);
      kernels::setParallelThreshold(0);
      kernels::scaleColumns(Threaded, Scale);
      expectValueEqual(Serial, Want);
      expectValueEqual(Threaded, Want);
    });
  }
}

TEST(KernelTest, ReluKernelsExactAtEveryLevel) {
  Rng R(515);
  const Shape Shapes[] = {{0, 3, 0}, {1, 1, 0}, {7, 19, 0}, {13, 70, 0}};
  for (const Shape &S : Shapes) {
    Matrix X = randomMatrix(S.M, S.K, R, 0.25); // Zeros hit the tie-break.
    Matrix GradOut = randomMatrix(S.M, S.K, R);
    Matrix WantFwd(S.M, S.K), WantBwd(S.M, S.K);
    for (size_t I = 0; I < S.M; ++I)
      for (size_t J = 0; J < S.K; ++J) {
        WantFwd(I, J) = X(I, J) > 0.0 ? X(I, J) : 0.0;
        WantBwd(I, J) = X(I, J) > 0.0 ? GradOut(I, J) : 0.0;
      }
    forEachSimdLevel([&](kernels::SimdLevel) {
      ThresholdGuard G;
      for (size_t Threshold : {size_t(1) << 40, size_t(0)}) {
        kernels::setParallelThreshold(Threshold);
        expectValueEqual(kernels::reluBatch(X), WantFwd);
        expectValueEqual(kernels::reluBackwardBatch(X, GradOut), WantBwd);
      }
    });
  }
}

TEST(KernelTest, GatherColumnsMatchesNaiveSerialAndParallel) {
  Rng R(606);
  const Shape Shapes[] = {{0, 6, 3}, {1, 6, 4}, {25, 9, 13}};
  for (const Shape &S : Shapes) {
    Matrix A = randomMatrix(S.M, S.K, R);
    std::vector<int> SrcCol(S.N);
    for (size_t O = 0; O < S.N; ++O)
      SrcCol[O] = O % 4 == 0 ? -1 : int(R.uniformInt(S.K));

    Matrix Want(S.M, S.N);
    for (size_t I = 0; I < S.M; ++I)
      for (size_t O = 0; O < S.N; ++O)
        Want(I, O) = SrcCol[O] < 0 ? 0.0 : A(I, SrcCol[O]);

    forEachSimdLevel([&](kernels::SimdLevel) {
      Matrix Serial(S.M, S.N), Threaded(S.M, S.N);
      ThresholdGuard G;
      kernels::setParallelThreshold(size_t(1) << 40);
      kernels::gatherColumns(A, SrcCol, Serial);
      kernels::setParallelThreshold(0);
      kernels::gatherColumns(A, SrcCol, Threaded);
      expectValueEqual(Serial, Want);
      expectValueEqual(Threaded, Want);
    });
  }
}

TEST(KernelTest, OneHotKernelsMatchDenseEquivalents) {
  Rng R(707);
  Matrix W = randomMatrix(9, 14, R);
  std::vector<kernels::OneHot> Sparse = {
      {3, 0.75}, {0, -1.25}, {13, 2.0}, {3, -0.0625}};
  forEachSimdLevel([&](kernels::SimdLevel) {
    Matrix C(Sparse.size() + 2, W.rows());
    for (size_t I = 0; I < C.rows(); ++I)
      for (size_t J = 0; J < C.cols(); ++J)
        C(I, J) = -7.0;
    kernels::oneHotMatMulInto(Sparse, W, C, 2);
    for (size_t J = 0; J < C.cols(); ++J) {
      ASSERT_EQ(C(0, J), -7.0);
      ASSERT_EQ(C(1, J), -7.0);
    }
    // One multiply per element: exact at every level.
    for (size_t S = 0; S < Sparse.size(); ++S)
      for (size_t J = 0; J < W.rows(); ++J)
        ASSERT_EQ(C(2 + S, J), Sparse[S].Mag * W(J, Sparse[S].Coord))
            << "at (" << S << ", " << J << ")";

    Vector Sums(Sparse.size() + 1);
    Sums[0] = -3.0;
    kernels::oneHotRowSumsInto(Sparse, Sums, 1);
    ASSERT_EQ(Sums[0], -3.0);
    for (size_t S = 0; S < Sparse.size(); ++S)
      ASSERT_EQ(Sums[1 + S], std::fabs(Sparse[S].Mag));
  });
}

TEST(KernelTest, SaxpyAndTapAxpyArePositionIndependentWithinALevel) {
  // A 4 x 300 "lowered" matrix whose rows are mostly zero: each row keeps a
  // few in-window entries, one of them an exact zero weight.
  Rng R(808);
  const size_t Rows = 4, Cols = 300;
  Matrix D(Rows, Cols);
  std::vector<std::vector<kernels::Tap>> Taps(Rows);
  for (size_t Row = 0; Row < Rows; ++Row)
    for (size_t C = 3 * Row; C < Cols; C += 7 + Row) {
      Taps[Row].push_back({static_cast<uint32_t>(C),
                           static_cast<uint32_t>(Row * Cols + C)});
      D(Row, C) = C % 5 == 0 ? 0.0 : R.uniform(-1.0, 1.0);
    }
  const Vector G{0.7, 0.0, -1.3, 0.37};
  Matrix GRow(1, Rows);
  for (size_t Row = 0; Row < Rows; ++Row)
    GRow(0, Row) = G[Row];
  forEachSimdLevel([&](kernels::SimdLevel L) {
    // matMul feeds saxpy 256-column panels while matTVec feeds whole rows;
    // the tap list skips the zero-filled columns. All three promise the
    // same bits within a level.
    const Vector Whole = matTVec(D, G);
    Matrix Want(1, Cols);
    std::copy(Whole.data(), Whole.data() + Cols, Want.row(0));
    expectValueEqual(matMul(GRow, D), Want);
    Matrix Tapped(1, Cols);
    for (size_t Row = 0; Row < Rows; ++Row)
      if (G[Row] != 0.0)
        kernels::tapAxpy(Tapped.row(0), D.row(0), Taps[Row].data(),
                         Taps[Row].size(), G[Row]);
    expectValueEqual(Tapped, Want);
    if (L == kernels::SimdLevel::Scalar)
      for (size_t C = 0; C < Cols; ++C) {
        double Sum = 0.0;
        for (size_t Row = 0; Row < Rows; ++Row)
          if (G[Row] != 0.0)
            Sum += G[Row] * D(Row, C);
        ASSERT_EQ(Whole[C], Sum);
      }
  });
}

TEST(KernelTest, PairedRowKernelsMatchPerRowBitForBit) {
  // AffineRows and MatMulRows run two population rows per weight row. Every
  // output must keep the per-point bits: matVec's dot plus the bias, and
  // matTVec's saxpy sequence with its zero skips. Row counts are odd and
  // even; some gradient entries are zero in only one row of a pair; shards
  // start at even and odd rows.
  Rng R(909);
  const size_t RowCounts[] = {1, 2, 3, 5, 8};
  const Shape WeightShapes[] = {{0, 1, 1}, {0, 7, 3}, {0, 16, 9},
                                {0, 37, 21}, {0, 300, 6}};
  forEachSimdLevel([&](kernels::SimdLevel) {
    const kernels::detail::SimdOps &Ops = kernels::detail::activeOps();
    for (size_t Rows : RowCounts) {
      for (const Shape &S : WeightShapes) {
        SCOPED_TRACE("rows=" + std::to_string(Rows) + " K=" +
                     std::to_string(S.K) + " N=" + std::to_string(S.N));
        Matrix X = randomMatrix(Rows, S.K, R);
        Matrix W = randomMatrix(S.N, S.K, R);
        Vector B(S.N);
        for (size_t J = 0; J < S.N; ++J)
          B[J] = R.uniform(-1.0, 1.0);
        // Gradients for the backward product: zeros land in one row of a
        // pair only (odd rows zero every third entry, even rows never). An
        // infinite weight in row 0 makes each skip visible: a row that
        // multiplied it by its zero would read NaN.
        Matrix G = randomMatrix(Rows, S.N, R);
        for (size_t I = 1; I < Rows; I += 2)
          for (size_t J = 0; J < S.N; J += 3)
            G(I, J) = 0.0;
        Matrix WInf = W;
        WInf(0, S.K / 2) = std::numeric_limits<double>::infinity();
        Matrix WantAffine(Rows, S.N), WantMatMul(Rows, S.K);
        for (size_t I = 0; I < Rows; ++I) {
          Vector XRow(S.K), GRow(S.N);
          std::copy(X.row(I), X.row(I) + S.K, XRow.data());
          std::copy(G.row(I), G.row(I) + S.N, GRow.data());
          Vector Y = matVec(W, XRow);
          for (size_t J = 0; J < S.N; ++J)
            WantAffine(I, J) = Y[J] + B[J];
          Vector T = matTVec(WInf, GRow);
          std::copy(T.data(), T.data() + S.K, WantMatMul.row(I));
        }
        {
          ThresholdGuard TG;
          kernels::setParallelThreshold(0);
          expectValueEqual(kernels::affineBatch(X, W, B), WantAffine);
          expectValueEqual(matMul(G, WInf), WantMatMul);
          kernels::setParallelThreshold(size_t(1) << 40);
          expectValueEqual(kernels::affineBatch(X, W, B), WantAffine);
          expectValueEqual(matMul(G, WInf), WantMatMul);
        }
        for (size_t Begin = 0; Begin < Rows; ++Begin) {
          Matrix OutA(Rows, S.N), OutM(Rows, S.K);
          Ops.AffineRows(X, W, B.data(), OutA, Begin, Rows);
          Ops.MatMulRows(G, WInf, OutM, Begin, Rows);
          for (size_t I = Begin; I < Rows; ++I) {
            for (size_t J = 0; J < S.N; ++J)
              ASSERT_EQ(OutA(I, J), WantAffine(I, J))
                  << "affine begin " << Begin << " at (" << I << ", " << J
                  << ")";
            for (size_t J = 0; J < S.K; ++J)
              ASSERT_EQ(OutM(I, J), WantMatMul(I, J))
                  << "matMul begin " << Begin << " at (" << I << ", " << J
                  << ")";
          }
        }
      }
    }
  });
}

TEST(KernelTest, MatMulTransposedShardsHoldWholeMicroBlocks) {
  // Each shard of the generator product packs all of B, so a shard gets at
  // least four rows: six rows run as one shard even with every kernel forced
  // onto the pool, and the bits do not depend on it.
  ThresholdGuard G;
  kernels::setParallelThreshold(0);
  std::vector<size_t> Sizes;
  std::mutex M;
  kernels::parallelFor(
      6, 1,
      [&](size_t Begin, size_t End) {
        std::lock_guard<std::mutex> Lock(M);
        Sizes.push_back(End - Begin);
      },
      /*MinPerShard=*/4);
  ASSERT_EQ(Sizes.size(), 1u);
  EXPECT_EQ(Sizes[0], 6u);
  Sizes.clear();
  kernels::parallelFor(
      64, 1,
      [&](size_t Begin, size_t End) {
        std::lock_guard<std::mutex> Lock(M);
        Sizes.push_back(End - Begin);
      },
      /*MinPerShard=*/4);
  for (size_t N : Sizes)
    EXPECT_GE(N, 4u);
  EXPECT_EQ(Sizes.size(), std::min<size_t>(kernels::kernelThreads(), 16));

  Rng R(910);
  Matrix A = randomMatrix(6, 90, R), B = randomMatrix(40, 90, R);
  forEachSimdLevel([&](kernels::SimdLevel) {
    kernels::setParallelThreshold(size_t(1) << 40);
    Matrix Serial = kernels::matMulTransposed(A, B);
    kernels::setParallelThreshold(0);
    expectValueEqual(kernels::matMulTransposed(A, B), Serial);
  });
}

TEST(KernelTest, ParallelForPartitionsExactly) {
  ThresholdGuard G;
  kernels::setParallelThreshold(0);
  for (size_t N : {size_t(0), size_t(1), size_t(7), size_t(1000)}) {
    std::vector<std::atomic<int>> Hits(N);
    kernels::parallelFor(N, 1, [&](size_t Begin, size_t End) {
      ASSERT_LE(Begin, End);
      ASSERT_LE(End, N);
      for (size_t I = Begin; I < End; ++I)
        Hits[I].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Hits[I].load(), 1) << "index " << I;
  }
}

TEST(KernelTest, ThresholdRoundTrips) {
  ThresholdGuard G;
  kernels::setParallelThreshold(12345);
  EXPECT_EQ(kernels::parallelThreshold(), 12345u);
  EXPECT_GE(kernels::kernelThreads(), 1u);
}

//===----------------------------------------------------------------------===//
// Float32 kernels and the outward-rounding error model
//===----------------------------------------------------------------------===//

TEST(KernelF32Test, RoundTripConversions) {
  Rng R(901);
  Matrix A = randomMatrix(5, 17, R);
  MatrixF F = kernels::toFloat32(A);
  ASSERT_EQ(F.rows(), A.rows());
  ASSERT_EQ(F.cols(), A.cols());
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < A.cols(); ++J)
      ASSERT_EQ(F(I, J), static_cast<float>(A(I, J)));
  Matrix D = kernels::toDouble(F); // float -> double is exact.
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < A.cols(); ++J)
      ASSERT_EQ(D(I, J), static_cast<double>(F(I, J)));
}

TEST(KernelF32Test, MatMulTransposedFStaysWithinGammaBound) {
  Rng R(902);
  for (const Shape &S : ProductShapes) {
    MatrixF A = kernels::toFloat32(randomMatrix(S.M, S.K, R));
    MatrixF B = kernels::toFloat32(randomMatrix(S.N, S.K, R));
    // Exact double reference over the widened float operands, plus the
    // absolute-value dot that scales the gamma bound.
    Matrix Exact(S.M, S.N), AbsDot(S.M, S.N);
    for (size_t I = 0; I < S.M; ++I)
      for (size_t J = 0; J < S.N; ++J) {
        double Sum = 0.0, Abs = 0.0;
        for (size_t K = 0; K < S.K; ++K) {
          double P = double(A(I, K)) * double(B(J, K));
          Sum += P;
          Abs += std::fabs(P);
        }
        Exact(I, J) = Sum;
        AbsDot(I, J) = Abs;
      }
    double Gamma = kernels::float32Gamma(S.K);
    forEachSimdLevel([&](kernels::SimdLevel) {
      ThresholdGuard G;
      kernels::setParallelThreshold(size_t(1) << 40);
      MatrixF Serial(S.M, S.N);
      kernels::matMulTransposedIntoF(A, B, Serial, 0);
      for (size_t I = 0; I < S.M; ++I)
        for (size_t J = 0; J < S.N; ++J)
          ASSERT_LE(std::fabs(double(Serial(I, J)) - Exact(I, J)),
                    Gamma * AbsDot(I, J) + 1e-30)
              << "at (" << I << ", " << J << ")";
      kernels::setParallelThreshold(0);
      MatrixF Threaded(S.M, S.N);
      kernels::matMulTransposedIntoF(A, B, Threaded, 0);
      expectValueEqualF(Threaded, Serial); // Deterministic within a level.
    });
  }
}

TEST(KernelF32Test, ColumnAndRowSumsMatchDoubleAccumulation) {
  Rng R(903);
  Matrix Src = randomMatrix(23, 41, R, 0.2);
  MatrixF A = kernels::toFloat32(Src);
  Vector WantCols(A.cols()), WantRows(A.rows());
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < A.cols(); ++J) {
      WantCols[J] += std::fabs(double(A(I, J)));
      WantRows[I] += std::fabs(double(A(I, J)));
    }
  forEachSimdLevel([&](kernels::SimdLevel) {
    ThresholdGuard G;
    for (size_t Threshold : {size_t(1) << 40, size_t(0)}) {
      kernels::setParallelThreshold(Threshold);
      expectValueEqual(kernels::absColumnSumsF(A), WantCols);
      expectValueEqual(kernels::absRowSumsF(A), WantRows);
    }
  });
}

TEST(KernelF32Test, ScaleAndGatherAreExactPerEntry) {
  Rng R(904);
  MatrixF A = kernels::toFloat32(randomMatrix(9, 26, R));
  Vector Scale(A.cols());
  for (size_t J = 0; J < A.cols(); ++J)
    Scale[J] = J % 3 == 0 ? 0.0 : R.uniform(0.0, 1.0);
  std::vector<int> SrcCol = {-1, 3, 0, 25, 3};
  forEachSimdLevel([&](kernels::SimdLevel) {
    MatrixF Scaled = A;
    kernels::scaleColumnsF(Scaled, Scale);
    for (size_t I = 0; I < A.rows(); ++I)
      for (size_t J = 0; J < A.cols(); ++J)
        ASSERT_EQ(Scaled(I, J),
                  static_cast<float>(Scale[J] * double(A(I, J))));
    MatrixF Out(A.rows(), SrcCol.size());
    kernels::gatherColumnsF(A, SrcCol, Out);
    for (size_t I = 0; I < A.rows(); ++I)
      for (size_t O = 0; O < SrcCol.size(); ++O)
        ASSERT_EQ(Out(I, O), SrcCol[O] < 0 ? 0.0f : A(I, SrcCol[O]));
  });
}

TEST(KernelF32Test, OneHotMatMulTracksExactConversionError) {
  Rng R(905);
  Matrix W = randomMatrix(7, 11, R);
  // A magnitude with plenty of mantissa bits so the float conversion
  // genuinely loses something.
  std::vector<kernels::OneHot> Sparse = {{4, 1.0 / 3.0}, {10, -0.7211}};
  MatrixF C(Sparse.size(), W.rows());
  Vector Err(W.rows());
  kernels::oneHotMatMulIntoF(Sparse, W, C, 0, Err);
  Vector WantErr(W.rows());
  for (size_t S = 0; S < Sparse.size(); ++S)
    for (size_t J = 0; J < W.rows(); ++J) {
      double Val = Sparse[S].Mag * W(J, Sparse[S].Coord);
      float F = static_cast<float>(Val);
      ASSERT_EQ(C(S, J), F);
      WantErr[J] += std::fabs(Val - double(F));
    }
  expectValueEqual(Err, WantErr);
  bool AnyLoss = false;
  for (size_t J = 0; J < W.rows(); ++J)
    AnyLoss = AnyLoss || Err[J] > 0.0;
  EXPECT_TRUE(AnyLoss) << "conversion error test vector lost no precision";
}

TEST(KernelF32Test, OutwardRoundingRoundsOutAndFlipsInward) {
  ErrDirGuard Guard;
  kernels::setFloat32ErrDirForTest(1.0);
  EXPECT_GT(kernels::float32Gamma(16), 0.0);
  EXPECT_GT(kernels::float32Eta(), 0.0);
  EXPECT_GT(kernels::float32ScaleEps(), 0.0);
  for (double X : {0.0, 1e-20, 0.125, 1.0, 3.75e4}) {
    double Out = kernels::roundOut(X, 12.0);
    EXPECT_GT(Out, X) << "X = " << X; // nextafter guarantees strict growth
    EXPECT_LT(Out, X * (1.0 + 1e-12) + 1e-300) << "X = " << X;
  }
  // Flipped, every term turns inward: the simulated unsound mode the fuzz
  // oracle must catch.
  kernels::setFloat32ErrDirForTest(-1.0);
  EXPECT_LT(kernels::float32Gamma(16), 0.0);
  EXPECT_LT(kernels::float32Eta(), 0.0);
  for (double X : {1e-20, 0.125, 1.0, 3.75e4})
    EXPECT_LT(kernels::roundOut(X, 12.0), X) << "X = " << X;
}

TEST(KernelF32Test, AffinePadDominatesExactAbsMatVec) {
  Rng R(906);
  Matrix W = randomMatrix(31, 47, R);
  Vector V(W.cols());
  for (size_t K = 0; K < W.cols(); ++K)
    V[K] = R.uniform(0.0, 1e-4); // Pads are small non-negative radii.
  Vector Want(W.rows());
  for (size_t J = 0; J < W.rows(); ++J)
    for (size_t K = 0; K < W.cols(); ++K)
      Want[J] += std::fabs(W(J, K)) * V[K];
  ThresholdGuard G;
  for (size_t Threshold : {size_t(1) << 40, size_t(0)}) {
    kernels::setParallelThreshold(Threshold);
    Vector Pad = kernels::float32AffinePad(W, V);
    for (size_t J = 0; J < W.rows(); ++J) {
      // Outward: never below the exact double value, and within a hair of it.
      ASSERT_GE(Pad[J], Want[J]) << "at " << J;
      ASSERT_LE(Pad[J], Want[J] * (1.0 + 1e-10) + 1e-30) << "at " << J;
    }
  }
}
