//===- oct/closure_sparse.h - Index-driven sparse closure -------*- C++ -*-===//
///
/// \file
/// The paper's sparse closure (Section 5.3). Sparse DBMs keep no
/// persistent index of their finite entries (that would cost quadratic
/// space); instead, each pivot iteration builds a linear-space index of
/// the finite entries in the pivot rows/columns and performs a min
/// operation only when both operands are finite. The strengthening step
/// likewise indexes the finite diagonal operands. Complexity is
/// O(n^2 + sum_k k_k * l_k), quadratic for very sparse matrices.
///
/// The decomposed closure (Section 5.4) runs the shortest-path step on
/// each sparse component packed into a contiguous block
/// (oct/blocked_layout.h), the same pack its dense components take.
/// Strengthening keeps a *restricted* form over a sorted variable list:
/// the merged component it strengthens is rarely worth a pack.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_CLOSURE_SPARSE_H
#define OPTOCT_OCT_CLOSURE_SPARSE_H

#include "oct/closure_common.h"
#include "oct/dbm.h"

#include <cstddef>
#include <vector>

namespace optoct {

/// Sparse shortest-path closure of a fully initialized half DBM (no
/// strengthening, no emptiness check).
void shortestPathSparse(HalfDbm &M, ClosureScratch &Scratch);

/// Sparse strengthening restricted to \p Vars (sorted ascending).
void strengthenSparseRestricted(HalfDbm &M, const std::vector<unsigned> &Vars,
                                ClosureScratch &Scratch);

/// Full sparse strong closure of a fully initialized matrix. Computes
/// the exact number of finite entries into \p NniOut (the sparse closure
/// "can calculate nni precisely without incurring large overheads",
/// Section 4.2). Returns false if the octagon is empty.
bool closureSparse(HalfDbm &M, ClosureScratch &Scratch, std::size_t &NniOut);

} // namespace optoct

#endif // OPTOCT_OCT_CLOSURE_SPARSE_H
