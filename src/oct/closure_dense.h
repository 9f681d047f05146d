//===- oct/closure_dense.h - Optimized dense closure ------------*- C++ -*-===//
///
/// \file
/// The paper's dense closure (Section 5.2, Algorithm 3) on the packed
/// half representation:
///
///   * Operation-count halving: the 2k-th and (2k+1)-th Floyd-Warshall
///     iterations are fused into a single iteration k of the outer loop.
///     The entries of rows/columns 2k and 2k+1 are updated first — these
///     need operands only from the lower triangle, so the asymmetry issue
///     that forces APRON to do two extra min operations per iteration
///     never arises — after which the remaining entries can be updated in
///     any order with exactly two min operations each.
///   * Locality of reference: the updated pivot columns are stored in
///     contiguous arrays (and, by coherence, yield the pivot rows by an
///     xor-of-index permutation) before the remaining entries are
///     updated, so the inner loop streams sequentially instead of
///     walking columns.
///   * Scalar replacement: the two column operands of a row are loaded
///     once per row.
///   * Vectorization: the inner update and the strengthening step run on
///     SIMD kernels (oct/simd_kernels.h).
///
/// Total operation count: 8n^3 + O(n^2) min operations versus
/// 16n^3 + O(n^2) for APRON's Algorithm 2.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_CLOSURE_DENSE_H
#define OPTOCT_OCT_CLOSURE_DENSE_H

#include "oct/closure_common.h"
#include "oct/dbm.h"

namespace optoct {

/// Shortest-path step of Algorithm 3 on a fully initialized half DBM.
void shortestPathDense(HalfDbm &M, ClosureScratch &Scratch);

/// Vectorized strengthening on a fully initialized half DBM.
void strengthenDense(HalfDbm &M, ClosureScratch &Scratch);

/// Full strong closure: shortest path + strengthening + emptiness check.
/// Returns false if the octagon is empty; on true the matrix is strongly
/// closed with a zero diagonal.
bool closureDense(HalfDbm &M, ClosureScratch &Scratch);

} // namespace optoct

#endif // OPTOCT_OCT_CLOSURE_DENSE_H
