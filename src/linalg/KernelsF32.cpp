//===- KernelsF32.cpp - Sound float32 kernels for the abstract path ---------===//

#include "linalg/KernelsF32.h"

#include "linalg/Kernels.h"
#include "linalg/SimdOpsImpl.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cfloat>
#include <cmath>
#include <limits>

using namespace charon;
using namespace charon::kernels;

//===----------------------------------------------------------------------===//
// Scalar shard bodies (shared with backends lacking float variants)
//===----------------------------------------------------------------------===//

void detail::mmtRowsFScalar(const MatrixF &A, const MatrixF &B, MatrixF &C,
                            size_t RowOffset, size_t Begin, size_t End) {
  const size_t K = A.cols();
  const size_t N = B.rows();
  for (size_t I = Begin; I < End; ++I) {
    const float *ARow = A.row(I);
    float *CRow = C.row(RowOffset + I);
    for (size_t J = 0; J < N; ++J) {
      const float *BRow = B.row(J);
      float Sum = 0.0f;
      for (size_t Kk = 0; Kk < K; ++Kk)
        Sum += ARow[Kk] * BRow[Kk];
      CRow[J] = Sum;
    }
  }
}

void detail::scaleColumnsRowsFScalar(MatrixF &A, const Vector &Scale,
                                     size_t Begin, size_t End) {
  const double *S = Scale.data();
  const size_t NC = A.cols();
  for (size_t I = Begin; I < End; ++I) {
    float *Row = A.row(I);
    for (size_t J = 0; J < NC; ++J)
      Row[J] = static_cast<float>(S[J] * static_cast<double>(Row[J]));
  }
}

void detail::absColumnSumsColsFScalar(const MatrixF &A, double *Out,
                                      size_t ColBegin, size_t ColEnd) {
  const size_t NR = A.rows();
  for (size_t I = 0; I < NR; ++I) {
    const float *Row = A.row(I);
    for (size_t J = ColBegin; J < ColEnd; ++J)
      Out[J] += std::fabs(static_cast<double>(Row[J]));
  }
}

//===----------------------------------------------------------------------===//
// Public float kernels (dispatch + sharding)
//===----------------------------------------------------------------------===//

MatrixF kernels::toFloat32(const Matrix &A) {
  MatrixF F = MatrixF::uninit(A.rows(), A.cols());
  for (size_t I = 0, NR = A.rows(); I < NR; ++I) {
    const double *Row = A.row(I);
    float *FRow = F.row(I);
    for (size_t J = 0, NC = A.cols(); J < NC; ++J)
      FRow[J] = static_cast<float>(Row[J]);
  }
  return F;
}

Matrix kernels::toDouble(const MatrixF &A) {
  Matrix D = Matrix::uninit(A.rows(), A.cols());
  for (size_t I = 0, NR = A.rows(); I < NR; ++I) {
    const float *Row = A.row(I);
    double *DRow = D.row(I);
    for (size_t J = 0, NC = A.cols(); J < NC; ++J)
      DRow[J] = static_cast<double>(Row[J]);
  }
  return D;
}

void kernels::matMulTransposedIntoF(const MatrixF &A, const MatrixF &B,
                                    MatrixF &C, size_t RowOffset) {
  assert(A.cols() == B.cols() && "matMulTransposedF shape mismatch");
  assert(C.cols() == B.rows() && RowOffset + A.rows() <= C.rows() &&
         "matMulTransposedF destination too small");
  const detail::SimdOps &Ops = detail::activeOps();
  parallelFor(A.rows(), 2 * A.cols() * B.rows(),
              [&A, &B, &C, RowOffset, &Ops](size_t Begin, size_t End) {
                Ops.MmtRowsF(A, B, C, RowOffset, Begin, End);
              });
}

Vector kernels::absColumnSumsF(const MatrixF &A) {
  Vector Out(A.cols());
  double *OutData = Out.data();
  const detail::SimdOps &Ops = detail::activeOps();
  parallelFor(A.cols(), A.rows(),
              [&A, OutData, &Ops](size_t Begin, size_t End) {
                Ops.AbsColumnSumsColsF(A, OutData, Begin, End);
              });
  return Out;
}

Vector kernels::absRowSumsF(const MatrixF &A) {
  Vector Out(A.rows());
  parallelFor(A.rows(), A.cols(), [&A, &Out](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I) {
      const float *Row = A.row(I);
      double Sum = 0.0;
      for (size_t J = 0, NC = A.cols(); J < NC; ++J)
        Sum += std::fabs(static_cast<double>(Row[J]));
      Out[I] = Sum;
    }
  });
  return Out;
}

void kernels::scaleColumnsF(MatrixF &A, const Vector &Scale) {
  assert(A.cols() == Scale.size() && "scaleColumnsF shape mismatch");
  const detail::SimdOps &Ops = detail::activeOps();
  parallelFor(A.rows(), A.cols(), [&A, &Scale, &Ops](size_t Begin, size_t End) {
    Ops.ScaleColumnsRowsF(A, Scale, Begin, End);
  });
}

void kernels::gatherColumnsF(const MatrixF &A, const std::vector<int> &SrcCol,
                             MatrixF &Out) {
  assert(Out.rows() == A.rows() && Out.cols() == SrcCol.size() &&
         "gatherColumnsF shape mismatch");
  parallelFor(A.rows(), SrcCol.size(),
              [&A, &SrcCol, &Out](size_t Begin, size_t End) {
                for (size_t I = Begin; I < End; ++I) {
                  const float *Row = A.row(I);
                  float *OutRow = Out.row(I);
                  for (size_t O = 0, NO = SrcCol.size(); O < NO; ++O)
                    OutRow[O] = SrcCol[O] < 0 ? 0.0f : Row[SrcCol[O]];
                }
              });
}

void kernels::oneHotMatMulIntoF(const std::vector<OneHot> &Sparse,
                                const Matrix &W, MatrixF &C, size_t RowOffset,
                                Vector &ErrOut) {
  assert(C.cols() == W.rows() && RowOffset + Sparse.size() <= C.rows() &&
         "oneHotMatMulIntoF destination too small");
  assert(ErrOut.size() == W.rows() && "oneHotMatMulIntoF error size mismatch");
  const size_t NR = W.rows();
  // Serial: ErrOut[r] is shared across generators, and the tail is orders of
  // magnitude cheaper than the dense product it rides along with.
  for (size_t S = 0, NS = Sparse.size(); S < NS; ++S) {
    const OneHot &G = Sparse[S];
    assert(G.Coord < W.cols() && "one-hot coordinate range");
    float *Row = C.row(RowOffset + S);
    for (size_t R = 0; R < NR; ++R) {
      double Val = G.Mag * W(R, G.Coord);
      float F = static_cast<float>(Val);
      Row[R] = F;
      ErrOut[R] += std::fabs(Val - static_cast<double>(F));
    }
  }
}

void kernels::convTapsRowsIntoF(const ConvTapPlan &P, const MatrixF &X,
                                MatrixF &C, size_t RowOffset) {
  assert(X.cols() == P.Inputs && C.cols() == P.Channels * P.Positions &&
         RowOffset + X.rows() <= C.rows() &&
         "convTapsRowsIntoF shape mismatch");
  constexpr size_t Block = 16;
  parallelFor(
      X.rows(), 2 * P.Channels * P.Taps.size(),
      [&P, &X, &C, RowOffset](size_t Begin, size_t End) {
        const size_t NC = P.Channels, St = P.Stride;
        for (size_t R = Begin; R < End; ++R) {
          const float *In = X.row(R);
          float *Out = C.row(RowOffset + R);
          for (size_t Pos = 0; Pos < P.Positions; ++Pos) {
            const Tap *T = P.Taps.data() + P.Begin[Pos];
            const size_t NT = P.Begin[Pos + 1] - P.Begin[Pos];
            for (size_t CB = 0; CB < NC; CB += Block) {
              const size_t NB = NC - CB < Block ? NC - CB : Block;
              float Acc[Block] = {};
              for (size_t I = 0; I < NT; ++I) {
                const float Xv = In[T[I].In];
                const double *W = P.FilterT.data() + T[I].K * St + CB;
                for (size_t Ch = 0; Ch < NB; ++Ch)
                  Acc[Ch] += static_cast<float>(W[Ch]) * Xv;
              }
              for (size_t Ch = 0; Ch < NB; ++Ch)
                Out[(CB + Ch) * P.Positions + Pos] = Acc[Ch];
            }
          }
        }
      });
}

void kernels::oneHotConvIntoF(const std::vector<OneHot> &Sparse,
                              const ConvTapPlan &P, MatrixF &C,
                              size_t RowOffset, Vector &ErrOut) {
  assert(C.cols() == P.Channels * P.Positions &&
         RowOffset + Sparse.size() <= C.rows() &&
         "oneHotConvIntoF destination too small");
  assert(ErrOut.size() == C.cols() && "oneHotConvIntoF error size mismatch");
  // Serial for the reason oneHotMatMulIntoF is: ErrOut is shared.
  for (size_t S = 0, NS = Sparse.size(); S < NS; ++S) {
    const OneHot &G = Sparse[S];
    assert(G.Coord < P.Inputs && "one-hot coordinate range");
    float *Row = C.row(RowOffset + S);
    std::fill(Row, Row + C.cols(), 0.0f);
    for (size_t U = P.UseBegin[G.Coord], UE = P.UseBegin[G.Coord + 1]; U < UE;
         ++U) {
      const double *W = P.FilterT.data() + P.Uses[U].K * P.Stride;
      for (size_t Ch = 0; Ch < P.Channels; ++Ch) {
        const size_t R = Ch * P.Positions + P.Uses[U].In;
        double Val = G.Mag * W[Ch];
        float F = static_cast<float>(Val);
        Row[R] = F;
        ErrOut[R] += std::fabs(Val - static_cast<double>(F));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Outward-rounding error model
//===----------------------------------------------------------------------===//

namespace {

/// 2^-24: unit roundoff of float32.
constexpr double EpsF = 1.0 / 16777216.0;

/// Unit roundoff of double (DBL_EPSILON is 2 ulp of 1.0).
constexpr double EpsD = DBL_EPSILON / 2.0;

std::atomic<double> &errDirState() {
  static std::atomic<double> Dir{1.0};
  return Dir;
}

} // namespace

double kernels::float32ErrDir() {
  return errDirState().load(std::memory_order_relaxed);
}

void kernels::setFloat32ErrDirForTest(double Dir) {
  errDirState().store(Dir, std::memory_order_relaxed);
}

double kernels::float32Outward(double NonNeg) {
  return float32ErrDir() * NonNeg;
}

double kernels::roundOut(double X, double Terms) {
  double Dir = float32ErrDir();
  double Y = X + Dir * (std::fabs(X) * (Terms * EpsD));
  return Dir > 0.0
             ? std::nextafter(Y, std::numeric_limits<double>::infinity())
             : std::nextafter(Y, -std::numeric_limits<double>::infinity());
}

double kernels::float32Gamma(size_t K) {
  return float32ErrDir() * 2.0 * (static_cast<double>(K) + 8.0) * EpsF;
}

double kernels::float32Eta() { return float32ErrDir() * 1e-33; }

double kernels::float32ScaleEps() { return float32ErrDir() * 1.5 * EpsF; }

Vector kernels::float32AffinePad(const Matrix &W, const Vector &V) {
  assert(W.cols() == V.size() && "float32AffinePad shape mismatch");
  Vector Out(W.rows());
  const double Terms = static_cast<double>(W.cols()) + 2.0;
  const double Eta = float32Eta();
  const double *VData = V.data();
  parallelFor(W.rows(), 2 * W.cols(),
              [&W, &Out, VData, Terms, Eta](size_t Begin, size_t End) {
                for (size_t J = Begin; J < End; ++J) {
                  const double *Row = W.row(J);
                  double Sum = 0.0;
                  for (size_t Kk = 0, NK = W.cols(); Kk < NK; ++Kk)
                    Sum += std::fabs(Row[Kk]) * VData[Kk];
                  Out[J] = roundOut(Sum, Terms) + Eta;
                }
              });
  return Out;
}

Vector kernels::float32ConvPad(const ConvTapPlan &P, const Vector &V) {
  assert(V.size() == P.Inputs && "float32ConvPad shape mismatch");
  Vector Out(P.Channels * P.Positions);
  const double Terms = static_cast<double>(P.Inputs) + 2.0;
  const double Eta = float32Eta();
  const double *VData = V.data();
  const size_t TapsPerPosition =
      P.Taps.size() / std::max<size_t>(1, P.Positions);
  parallelFor(Out.size(), 2 * TapsPerPosition,
              [&P, &Out, VData, Terms, Eta](size_t Begin, size_t End) {
                for (size_t J = Begin; J < End; ++J) {
                  const size_t Ch = J / P.Positions, Pos = J % P.Positions;
                  double Sum = 0.0;
                  for (size_t I = P.Begin[Pos], IE = P.Begin[Pos + 1]; I < IE;
                       ++I)
                    Sum += std::fabs(P.FilterT[P.Taps[I].K * P.Stride + Ch]) *
                           VData[P.Taps[I].In];
                  Out[J] = roundOut(Sum, Terms) + Eta;
                }
              });
  return Out;
}
