//===- Kernels.h - Blocked/threaded dense kernels ---------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched linear-algebra kernels behind the abstract transformers: a
/// generator-matrix zonotope pushes all noise symbols through an affine layer
/// with one cache-blocked matrix product instead of one matVec per symbol.
///
/// Every kernel is deterministic for a fixed SIMD level (see
/// linalg/SimdDispatch.h for the runtime backend selection and the exact
/// cross-level bit-identity contract). At the scalar level each kernel
/// preserves the per-element accumulation order of its naive reference
/// (ascending k for products, ascending row for column sums), so results are
/// bit-identical to the unblocked single-threaded loops and deterministic
/// across thread counts. Threading shards output *rows* (or disjoint column
/// blocks for absColumnSums); no two shards touch the same output element.
///
/// Threshold model: a kernel runs single-threaded when its approximate flop
/// count is below parallelThreshold(), so ACAS-scale analyses (tens of
/// dimensions) never pay pool latency; large Dense+ReLU stacks shard across
/// the process-wide kernel ThreadPool. Both knobs have env overrides
/// (CHARON_KERNEL_THRESHOLD, CHARON_KERNEL_THREADS) so the sanitizer build
/// can force the threaded paths on small fuzz networks.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_LINALG_KERNELS_H
#define CHARON_LINALG_KERNELS_H

#include "linalg/Matrix.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace charon {
namespace kernels {

/// Flop threshold below which kernels stay single-threaded. Initialized from
/// CHARON_KERNEL_THRESHOLD when set (values <= 1 force threading everywhere).
size_t parallelThreshold();

/// Overrides the threshold at runtime; 0 forces every kernel parallel.
void setParallelThreshold(size_t Flops);

/// Worker count of the kernel pool: CHARON_KERNEL_THREADS, else hardware
/// concurrency. 1 disables threading entirely.
unsigned kernelThreads();

/// Runs Body(Begin, End) over a partition of [0, N). Single-threaded when
/// N * CostPerItem < parallelThreshold(); otherwise shards contiguously
/// across the kernel pool (the shard layout depends only on N and the pool
/// size, keeping runs deterministic).
///
/// \p MinPerShard caps the shard count at N / MinPerShard (at least one), for
/// bodies with a fixed per-shard cost worth at least that many items (the
/// AVX2 generator product packs all of B in every shard).
void parallelFor(size_t N, size_t CostPerItem,
                 const std::function<void(size_t, size_t)> &Body,
                 size_t MinPerShard = 1);

/// C = A * B^T without materializing the transpose: A is M x K, B is N x K,
/// C is M x N with C(i,j) = dot(A.row(i), B.row(j)). This is the zonotope
/// generator update NewG = G * W^T — both operands are traversed row-major.
Matrix matMulTransposed(const Matrix &A, const Matrix &B);

/// Writes A * B^T into rows [RowOffset, RowOffset + A.rows()) of \p C, which
/// must already have B.rows() columns. Lets callers compute into a larger
/// preallocated block (e.g. dense generators above a materialized sparse
/// tail) without a copy.
void matMulTransposedInto(const Matrix &A, const Matrix &B, Matrix &C,
                          size_t RowOffset);

/// Per-row L1 norms: Out[i] = sum_j |A(i, j)|. For a generator matrix this
/// is each noise symbol's total magnitude (the compaction criterion).
Vector absRowSums(const Matrix &A);

/// Per-column L1 norms: Out[j] = sum_i |A(i, j)|. For a generator matrix
/// this is the per-coordinate deviation radius. Sharded by *column* blocks:
/// every column accumulates its |entries| in ascending-row order within its
/// shard, so the result is bit-identical to the single-threaded row-major
/// pass (the layout-equivalence contract) at every thread count and SIMD
/// level.
Vector absColumnSums(const Matrix &A);

/// A(i, j) *= Scale[j] for every row — the batched ReLU rescaling (Scale
/// holds 1, 0, or lambda per coordinate). One contiguous sweep, sharded by
/// rows.
void scaleColumns(Matrix &A, const Vector &Scale);

/// Out(i, o) = SrcCol[o] < 0 ? 0 : A(i, SrcCol[o]) for every row. The
/// batched max-pool gather: each output coordinate copies its dominant input
/// column or starts at zero for interval-hull fallback windows. \p Out must
/// be pre-sized to A.rows() x SrcCol.size().
void gatherColumns(const Matrix &A, const std::vector<int> &SrcCol,
                   Matrix &Out);

/// One term of a sparse row: the weight W[K] times coordinate In.
struct Tap {
  uint32_t In;
  uint32_t K;
};

/// Y[T.In] += A * W[T.K] for each of the \p N taps in order, with the active
/// dispatch table's saxpy rounding (one fma per term at AVX2). A tap list
/// holding a dense row's in-window entries therefore gives the bits a saxpy
/// over the whole zero-filled row would (x + A * 0 leaves x unchanged), so
/// Conv2D's backward passes visit only real taps and still match the matMul
/// path Dense uses.
void tapAxpy(double *Y, const double *W, const Tap *Taps, size_t N, double A);

/// A 2-D convolution as the kernels see it: tap lists plus channel-major
/// filters, with no window geometry. Conv2DLayer builds one per weight state.
/// Outputs are channel-major, Out[c * Positions + p], like the layer's.
struct ConvTapPlan {
  size_t Inputs = 0;    ///< input coordinates
  size_t Positions = 0; ///< output positions per channel
  size_t Channels = 0;  ///< output channels
  /// Row length of FilterT and BiasT: Channels rounded up to a multiple of
  /// four, zero padded, so vector bodies load whole channel blocks.
  size_t Stride = 0;
  /// Taps of position p are Taps[Begin[p], Begin[p + 1]), ascending in input
  /// index; Tap::K indexes one filter (every channel shares the list).
  std::vector<size_t> Begin;
  std::vector<Tap> Taps;
  /// The transposed index: the positions input i feeds are
  /// Uses[UseBegin[i], UseBegin[i + 1]), with Tap::In holding the *output
  /// position* and Tap::K the filter weight. Used to scatter one-hots.
  std::vector<size_t> UseBegin;
  std::vector<Tap> Uses;
  /// FilterT[K * Stride + c] = weight K of filter c.
  std::vector<double> FilterT;
  /// BiasT[c] = bias of channel c.
  std::vector<double> BiasT;
};

/// One point through a convolution: Out[c * Positions + p] starts at
/// Bias[c] (zero when \p Bias is null) and adds FilterT[K * Stride + c] *
/// In[In] for each tap of p in order, one multiply then one add per tap at
/// every SIMD level (no fma), so every level gives the scalar bits. The
/// vector body walks the taps once for all output channels.
void convTapsRow(const ConvTapPlan &P, const double *In, const double *Bias,
                 double *Out);

/// Rows [RowOffset, RowOffset + X.rows()) of \p C = the convolution's linear
/// part (no bias) applied to each row of \p X: the zonotope's generator
/// update through the taps instead of the dense lowering. Sharded by rows.
void convTapsRowsInto(const ConvTapPlan &P, const Matrix &X, Matrix &C,
                      size_t RowOffset);

//===----------------------------------------------------------------------===//
// Sparse one-hot tail kernels
//===----------------------------------------------------------------------===//

/// A one-hot generator row: magnitude \p Mag at coordinate \p Coord, zero
/// everywhere else. ZonotopeElement keeps freshly introduced noise symbols
/// in this form so the tail never costs a dense row until a transformer
/// genuinely mixes coordinates.
struct OneHot {
  size_t Coord;
  double Mag;
};

/// Writes the affine image of each one-hot generator into \p C without
/// materializing the one-hot rows: C(RowOffset + s, r) = Sparse[s].Mag *
/// W(r, Sparse[s].Coord). One multiply per output element (bit-identical at
/// every SIMD level); sharded across generators.
void oneHotMatMulInto(const std::vector<OneHot> &Sparse, const Matrix &W,
                      Matrix &C, size_t RowOffset);

/// oneHotMatMulInto for a convolution's linear part: row RowOffset + s is
/// zero except where input Sparse[s].Coord feeds an output, which gets the
/// single product Mag * weight (the bits the dense lowering gives there).
void oneHotConvInto(const std::vector<OneHot> &Sparse, const ConvTapPlan &P,
                    Matrix &C, size_t RowOffset);

/// Per-generator L1 norms of the one-hot tail: Out[RowOffset + s] =
/// |Sparse[s].Mag| (each virtual row has a single entry). The sparse
/// counterpart of absRowSums.
void oneHotRowSumsInto(const std::vector<OneHot> &Sparse, Vector &Out,
                       size_t RowOffset);

//===----------------------------------------------------------------------===//
// Batched concrete execution (rows = batch points)
//===----------------------------------------------------------------------===//

/// Batched affine layer application: Out(i, j) = dot(X.row(i), W.row(j)) + b_j,
/// the bias added after the full dot exactly as Dense::forward does (matVec
/// then Y += B). X is B x K (one input point per row), W is N x K, Out is
/// B x N. Each dot uses the active backend's matVec scheme, so every output
/// element is bit-identical to the per-point pass. Sharded by batch rows;
/// within a shard the rows run in pairs, so each W row streams once per pair.
Matrix affineBatch(const Matrix &X, const Matrix &W, const Vector &Bias);

/// Batched ReLU forward: Out(i, j) = X(i, j) > 0 ? X(i, j) : 0, replicating
/// the scalar tie-break at exactly zero.
Matrix reluBatch(const Matrix &X);

/// Batched ReLU backward: Out(i, j) = X(i, j) > 0 ? GradOut(i, j) : 0, where
/// \p X is the input the forward pass saw.
Matrix reluBackwardBatch(const Matrix &X, const Matrix &GradOut);

/// Batched max-pool forward over \p Pools (one flat-index list per output
/// coordinate): Out(i, o) = max over Pools[o] of X(i, idx), initialized from
/// the first window element and folded left with std::max in window order —
/// the exact scalar comparison sequence.
Matrix poolMaxBatch(const Matrix &X,
                    const std::vector<std::vector<int>> &Pools);

/// Batched max-pool backward: routes GradOut(i, o) to the *first* argmax of
/// window \p Pools[o] in row i (strict > scan, matching the scalar layer),
/// accumulating into a zero matrix of \p InputCols columns.
Matrix poolMaxBackwardBatch(const Matrix &X, const Matrix &GradOut,
                            const std::vector<std::vector<int>> &Pools,
                            size_t InputCols);

} // namespace kernels
} // namespace charon

#endif // CHARON_LINALG_KERNELS_H
