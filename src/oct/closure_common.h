//===- oct/closure_common.h - Shared closure utilities ----------*- C++ -*-===//
///
/// \file
/// Scratch buffers shared by the optimized closure algorithms. The
/// paper's locality optimizations (Section 5.2) buffer the pivot rows,
/// pivot columns, and the diagonal operands in contiguous arrays; the
/// scratch owns those arrays so repeated closures do not re-allocate.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_CLOSURE_COMMON_H
#define OPTOCT_OCT_CLOSURE_COMMON_H

#include "oct/dbm.h"
#include "support/aligned.h"

#include <vector>

namespace optoct {

/// Reusable per-closure working storage (linear space, Section 5.2/5.3).
struct ClosureScratch {
  /// Pivot column buffers: ColK[i] = O(i, 2k), ColK1[i] = O(i, 2k+1).
  AlignedBuffer<double> ColK, ColK1;
  /// Pivot row buffers: RowK[j] = O(2k, j), RowK1[j] = O(2k+1, j).
  /// By coherence RowK[j] = ColK1[j^1] and RowK1[j] = ColK[j^1].
  AlignedBuffer<double> RowK, RowK1;
  /// Strengthening operand buffer: T[j] = O(j^1, j), so the diagonal
  /// operand d_i = O(i, i^1) is T[i^1].
  AlignedBuffer<double> T;
  /// Index lists of finite entries for the sparse closure (Section 5.3).
  std::vector<unsigned> IdxRowK, IdxRowK1, IdxT;
  /// The extended rows {2v, 2v+1} of the variables a restricted
  /// strengthening covers (strengthenSparseRestricted).
  std::vector<unsigned> EVars;
  /// The components the decomposed strengthening merges: those holding
  /// a finite unary bound (Section 5.4).
  std::vector<std::size_t> BoundedComps;
  /// The one place a component of a decomposed octagon is closed: the
  /// decomposed closure packs each component here, counts its sparsity
  /// and runs the dense or sparse shortest-path kernel; the incremental
  /// closure packs each touched component here and runs its pivot
  /// passes. Both scatter the block back. Per-thread like the rest of
  /// the scratch, so no closure allocates it.
  HalfDbm DenseTmp;

  /// Grows the buffers to hold at least \p Dim (= 2n) doubles each.
  void ensure(unsigned Dim) {
    if (Dim <= Capacity)
      return;
    ColK.resizeDiscard(Dim);
    ColK1.resizeDiscard(Dim);
    RowK.resizeDiscard(Dim);
    RowK1.resizeDiscard(Dim);
    T.resizeDiscard(Dim);
    Capacity = Dim;
  }

private:
  unsigned Capacity = 0;
};

} // namespace optoct

#endif // OPTOCT_OCT_CLOSURE_COMMON_H
