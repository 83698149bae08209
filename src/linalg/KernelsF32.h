//===- KernelsF32.h - Sound float32 kernels for the abstract path -*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Float32 counterparts of the generator-matrix kernels, plus the rigorous
/// error accounting that keeps reduced precision *sound*. The zonotope
/// float mode (abstract/ZonotopeElement.cpp) stores its generator matrix as
/// float32 and carries an explicit per-coordinate error radius ("pad"). The
/// invariant maintained is:
///
///   concretization(float generators) inflated by the pad box
///     contains
///   the exact-real-arithmetic image of the previous element,
///
/// so every bound computed from (float radii + pad) over-approximates the
/// bound exact arithmetic would give, and verdicts stay sound. The pad is
/// grown with closed-form forward error bounds instead of per-operation
/// directed rounding:
///
///  - one float32 dot of length K (operands already float, one operand
///    converted from double, FMA or not) has error at most
///    float32Gamma(K) * sum_k |a_k| * |b_k|;
///  - summed over all generators e, sum_e sum_k |g_ek| |W(j,k)| equals
///    sum_k ColSum_k * |W(j,k)| with ColSum the per-column L1 norms of the
///    generator matrix — so the pad update is ONE double |W|-matVec
///    (float32AffinePad), not a second generator-matrix product;
///  - double-precision accumulation of the pads themselves is inflated by
///    roundOut (a relative eps_d slack plus one outward nextafter), and a
///    tiny absolute slush float32Eta() absorbs float underflow.
///
/// Directionality: all error terms pass through an internal sign that tests
/// and the fuzzer can flip (setFloat32ErrDirForTest) — with the sign
/// negative the pads *shrink* the radius instead of growing it, simulating
/// an inward-rounding bug so the soundness oracles can prove they catch
/// one. Real runs never touch the sign.
///
/// The float kernels promise no cross-level bit-identity (unlike the double
/// kernels' scalar contracts): any rounding they produce is covered by the
/// pad. They are still deterministic for a fixed SIMD level and shard
/// layout.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_LINALG_KERNELSF32_H
#define CHARON_LINALG_KERNELSF32_H

#include "linalg/Kernels.h"
#include "linalg/Matrix.h"
#include "linalg/MatrixF.h"

#include <vector>

namespace charon {
namespace kernels {

/// Rounds every entry of \p A to float32 (to nearest; the conversion error
/// is covered by float32Gamma in the consuming pad update).
MatrixF toFloat32(const Matrix &A);

/// Exact widening copy back to double (float -> double is exact).
Matrix toDouble(const MatrixF &A);

/// C rows [RowOffset, RowOffset + A.rows()) = A * B^T in float32
/// arithmetic (float accumulators). Same shape contract as the double
/// matMulTransposedInto.
void matMulTransposedIntoF(const MatrixF &A, const MatrixF &B, MatrixF &C,
                           size_t RowOffset);

/// Per-column L1 norms of a float matrix, accumulated in double in
/// ascending-row order (each |entry| is exact in double; the accumulation
/// rounds to nearest — consumers inflate with roundOut).
Vector absColumnSumsF(const MatrixF &A);

/// Per-row L1 norms, accumulated in double (compaction criterion).
Vector absRowSumsF(const MatrixF &A);

/// A(i, j) = (float)(Scale[j] * (double)A(i, j)) for every row: the batched
/// ReLU rescale. One double multiply then one float rounding per entry, so
/// the per-entry relative error is below float32ScaleEps().
void scaleColumnsF(MatrixF &A, const Vector &Scale);

/// Out(i, o) = SrcCol[o] < 0 ? 0 : A(i, SrcCol[o]) — exact copies, same
/// contract as the double gatherColumns.
void gatherColumnsF(const MatrixF &A, const std::vector<int> &SrcCol,
                    MatrixF &Out);

/// Float counterpart of oneHotMatMulInto: computes Val = Sparse[s].Mag *
/// W(r, Sparse[s].Coord) in double, stores (float)Val into C(RowOffset + s,
/// r), and accumulates the *exact* conversion error |Val - (double)(float)Val|
/// into ErrOut[r] (size W.rows(), zero-initialized by the caller). Callers
/// fold roundOut(ErrOut[r], Sparse.size() + 2) into the pad, which covers
/// both the conversion losses and their double accumulation here.
void oneHotMatMulIntoF(const std::vector<OneHot> &Sparse, const Matrix &W,
                       MatrixF &C, size_t RowOffset, Vector &ErrOut);

/// Float counterpart of convTapsRowsInto: each row of \p X through the
/// convolution's linear part with weights rounded to float and float
/// accumulators, taps in order. A tap-list dot has at most Inputs terms, so
/// float32Gamma(Inputs) bounds its error as it does the lowered product's.
void convTapsRowsIntoF(const ConvTapPlan &P, const MatrixF &X, MatrixF &C,
                       size_t RowOffset);

/// Float counterpart of oneHotConvInto with oneHotMatMulIntoF's exact
/// conversion-error accounting into \p ErrOut (size Channels * Positions).
void oneHotConvIntoF(const std::vector<OneHot> &Sparse, const ConvTapPlan &P,
                     MatrixF &C, size_t RowOffset, Vector &ErrOut);

//===----------------------------------------------------------------------===//
// Outward-rounding error model
//===----------------------------------------------------------------------===//

/// +1.0 normally. Tests flip it to -1.0 to turn every outward error term
/// inward, simulating an unsound low-precision transformer.
double float32ErrDir();
void setFloat32ErrDirForTest(double Dir);

/// \p NonNeg (an error magnitude >= 0) signed by the current direction.
double float32Outward(double NonNeg);

/// Inflates \p X (>= 0) outward past the result of a \p Terms-term double
/// accumulation: X * (1 + Terms * eps_d) plus one nextafter step. With the
/// test direction flipped it deflates instead.
double roundOut(double X, double Terms);

/// Relative error bound of one float32 dot of length \p K including the
/// double->float conversion of one operand: 2 * (K + 8) * 2^-24, signed by
/// the current direction.
double float32Gamma(size_t K);

/// Absolute underflow slush added per pad coordinate (covers subnormal
/// flushing across any realistic generator count), signed.
double float32Eta();

/// Per-entry relative error of scaleColumnsF (one double multiply + one
/// float rounding): 1.5 * 2^-24, signed.
double float32ScaleEps();

/// The affine pad update: Out_j = roundOut(sum_k |W(j,k)| * V_k, K + 2)
/// + float32Eta(), with V_k = Pad_k + float32Gamma(K) * EffColSum_k
/// computed by the caller. One double abs-matVec, sharded by rows.
Vector float32AffinePad(const Matrix &W, const Vector &V);

/// float32AffinePad for a convolution's lowered W, summed over the taps
/// (the lowering's nonzero entries, in the same ascending order) with the
/// dense update's Terms = Inputs + 2.
Vector float32ConvPad(const ConvTapPlan &P, const Vector &V);

} // namespace kernels
} // namespace charon

#endif // CHARON_LINALG_KERNELSF32_H
