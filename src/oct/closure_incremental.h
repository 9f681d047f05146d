//===- oct/closure_incremental.h - Incremental closure ----------*- C++ -*-===//
///
/// \file
/// Incremental strong closure (Section 5.6): when a closed DBM is
/// modified only in the rows/columns of a few variables (after a guard),
/// closure is restored in quadratic time by one pivot-pair pass per
/// touched variable — the same double loop as one iteration of the
/// outermost loop of the dense shortest-path closure — followed by a
/// strengthening step. All of Algorithm 3's optimizations (column
/// buffering, scalar replacement, vectorization) apply.
///
/// In the library, only Octagon::close() runs the pivot passes, over
/// the variables a guard record holds: on each touched component as
/// one block (oct/blocked_layout.h), with the touched variables
/// renumbered to block positions (a whole partition's block is the
/// matrix itself), then strengthenAndMerge on the whole matrix.
/// Assignments need neither: their record's closure writes x's closed
/// rows directly (Octagon::writeAssignedRows).
///
/// incrementalClosureDense is the whole-matrix entry point of
/// bench_incremental and tests/test_closure.cpp. It runs the same pivot
/// pass and the same strengthening kernel as that one leg on a
/// whole-partition block, without the Octagon bookkeeping.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_CLOSURE_INCREMENTAL_H
#define OPTOCT_OCT_CLOSURE_INCREMENTAL_H

#include "oct/closure_common.h"
#include "oct/dbm.h"

#include <vector>

namespace optoct {

/// One fused pivot-pair pass (variable \p K) of Algorithm 3 over the
/// whole fully initialized half DBM \p M, vectorized. The shortest-path
/// half of the incremental closure: no strengthening, no emptiness
/// check. It only lowers entries.
void incrementalPivotPass(HalfDbm &M, unsigned K, ClosureScratch &Scratch);

/// Incremental strong closure of a fully initialized half DBM that was
/// strongly closed before the rows/columns of the \p NumTouched
/// variables at \p Touched were modified. Returns false if the octagon
/// became empty. Allocates nothing beyond growing \p Scratch.
bool incrementalClosureDense(HalfDbm &M, const unsigned *Touched,
                             unsigned NumTouched, ClosureScratch &Scratch);
inline bool incrementalClosureDense(HalfDbm &M,
                                    const std::vector<unsigned> &Touched,
                                    ClosureScratch &Scratch) {
  return incrementalClosureDense(M, Touched.data(),
                                 static_cast<unsigned>(Touched.size()),
                                 Scratch);
}

} // namespace optoct

#endif // OPTOCT_OCT_CLOSURE_INCREMENTAL_H
