//===- ZonotopeElement.h - Zonotope abstract domain --------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The zonotope abstract domain (Ghorbal, Goubault, Putot — "Taylor1+",
/// CAV'09), the second base domain the paper's policy can select. A zonotope
/// is the affine image of a unit hypercube of noise symbols:
///
///   gamma(Z) = { Center + sum_e eps_e * G_e : eps in [-1,1]^m }.
///
/// Affine maps are exact; ReLU on a crossing neuron uses the minimal-area
/// linear relaxation (slope u/(u-l)) plus one fresh noise symbol; the
/// halfspace meet used by powerset case splits tightens noise-symbol bounds
/// (Girard's method) and renormalizes.
///
/// Storage is a contiguous row-major G x N *generator matrix* (one row per
/// noise symbol) plus a tail of *sparse one-hot generators* — the fresh
/// symbols ReLU and max-pool introduce are mu * e_i, so they are kept as
/// (coordinate, magnitude) pairs until the next affine layer densifies them.
/// All transformers are batched kernels over this layout (linalg/Kernels.h):
/// applyAffine is one blocked G x N x M product plus one sparse
/// oneHotMatMulInto pass (applyConv the same two steps through the layer's
/// tap plan), activations one fused column-rescale sweep,
/// applyMaxPool one column gather that materializes only the *prefix* of the
/// sparse tail feeding overlapping windows (non-overlapping pools never
/// densify the tail at all). Per-coordinate deviation radii are cached and
/// invalidated on mutation, making repeated bound queries (the powerset
/// split search is quadratic in them) O(1) after the first.
///
/// Generator ordering contract: dense rows precede sparse entries, oldest
/// first — the exact order the historical vector-of-generators layout
/// produced, which keeps accumulation orders (and therefore every bound, to
/// the last bit on serial scalar paths) identical to that layout.
///
/// Precision modes: the default stores generators as doubles. Constructing
/// with KernelPrecision::Float32 stores the dense generator block as float32
/// (half the memory traffic, twice the SIMD lanes) and carries an explicit
/// per-coordinate error radius Pad that is grown with outward-rounded
/// forward error bounds (linalg/KernelsF32.h), so every bound this element
/// reports still over-approximates what exact real arithmetic would give —
/// verdicts remain sound, they are just (slightly) less precise. Center and
/// the sparse tail stay double in both modes. A halfspace meet on a float
/// element returns a double element (float generators embed exactly; the pad
/// becomes one-hot box generators), so powerset splitting degrades gracefully.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_ABSTRACT_ZONOTOPEELEMENT_H
#define CHARON_ABSTRACT_ZONOTOPEELEMENT_H

#include "abstract/AbstractElement.h"
#include "linalg/Kernels.h"
#include "linalg/MatrixF.h"
#include "linalg/SimdDispatch.h"

#include <vector>

namespace charon {

/// Zonotope abstract element: Center + span of generator rows over [-1,1]^m.
class ZonotopeElement : public AbstractElement {
public:
  /// A one-hot generator Mag * e_Coord, kept sparse until densified (the
  /// shared kernel-layer representation, see linalg/Kernels.h).
  using SparseGenerator = kernels::OneHot;

  /// Abstraction of the box \p Region: one generator per nonzero-width
  /// dimension (exact in both precision modes — the initial one-hot
  /// magnitudes stay double). All initial generators are one-hot and stay
  /// sparse until the first affine layer.
  explicit ZonotopeElement(const Box &Region,
                           KernelPrecision P = KernelPrecision::Double);

  /// Assembles a double-mode element from an explicit layout. \p DenseGens
  /// is G x N (may have zero rows); \p SparseGens are appended after the
  /// dense rows in order.
  ZonotopeElement(Vector C, Matrix DenseGens,
                  std::vector<SparseGenerator> SparseGens = {});

  std::unique_ptr<AbstractElement> clone() const override;
  size_t dim() const override { return Center.size(); }

  void applyAffine(const Matrix &W, const Vector &B) override;
  /// The convolution's exact affine image through its tap plan, never its
  /// dense lowering: dense generator rows run the bias-free tap walk,
  /// one-hots scatter through the plan's input-to-position index, and the
  /// center takes the layer's forward pass. Both precisions.
  void applyConv(const Conv2DLayer &L) override;
  void applyActivation(ActivationKind K, size_t Begin, size_t End) override;
  void applyMaxPool(const PoolSpec &Spec) override;

  double lowerBound(size_t I) const override;
  double upperBound(size_t I) const override;
  double lowerBoundDiff(size_t K, size_t J) const override;

  std::unique_ptr<AbstractElement>
  meetHalfspaceAtZero(size_t D, bool NonNegative) const override;

  /// Number of noise symbols currently tracked (dense rows + sparse tail).
  size_t numGenerators() const { return denseRows() + Sparse.size(); }

  const Vector &center() const { return Center; }

  /// The kernel precision this element's generator matrix runs at.
  KernelPrecision precision() const { return Prec; }

  /// The dense generator block: one row per (densified) noise symbol.
  /// Double mode only (empty in float mode; see denseGeneratorsF).
  const Matrix &denseGenerators() const { return Dense; }

  /// The float32 dense generator block (float mode only).
  const MatrixF &denseGeneratorsF() const { return DenseF; }

  /// The per-coordinate outward-rounded error radius (float mode; empty in
  /// double mode). Folded into every bound this element reports.
  const Vector &errorPad() const { return Pad; }

  /// The sparse one-hot tail, in creation order (newer than every dense row).
  const std::vector<SparseGenerator> &sparseGenerators() const {
    return Sparse;
  }

  /// Materialized copy of generator \p E (dense rows first, then the sparse
  /// tail) — for tests and diagnostics, not hot paths.
  Vector generatorRow(size_t E) const;

  /// Drops generators whose total magnitude is below \p Tol, folding their
  /// mass into per-dimension "box" generators. Keeps ReLU-heavy analyses
  /// from accumulating unboundedly many symbols.
  void compact(double Tol);

private:
  size_t denseRows() const {
    return Prec == KernelPrecision::Float32 ? DenseF.rows() : Dense.rows();
  }

  /// Per-coordinate deviation radii (sum of |g_I| over generators, plus Pad
  /// in float mode), cached until the next mutation.
  const Vector &radii() const;
  void invalidateRadii() { RadiiValid = false; }

  /// The affine step shared by applyAffine and applyConv; \p Op supplies
  /// the linear map's kernels (see the operator structs in the .cpp).
  template <typename LinearOp> void applyLinear(const LinearOp &Op);

  /// Densifies the sparse prefix [0, Prefix) into the dense block
  /// (mode-appropriate storage), leaving [Prefix, end) in place.
  void materializeSparsePrefix(size_t Prefix);

  Vector Center;
  KernelPrecision Prec = KernelPrecision::Double;
  /// G x N generator matrix: row e is noise symbol e's coefficient vector
  /// (double mode).
  Matrix Dense;
  /// Float-mode generator storage (Dense stays 0 x N then).
  MatrixF DenseF;
  /// Float-mode per-coordinate error radius (outward-rounded, sound).
  Vector Pad;
  /// Fresh one-hot symbols, logically appended after the dense rows.
  std::vector<SparseGenerator> Sparse;

  mutable Vector RadiiCache;
  mutable bool RadiiValid = false;
};

} // namespace charon

#endif // CHARON_ABSTRACT_ZONOTOPEELEMENT_H
