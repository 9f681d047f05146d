//===- oct/closure_incremental.h - Incremental closure ----------*- C++ -*-===//
///
/// \file
/// Incremental strong closure (Section 5.6): when a closed DBM is
/// modified only in the rows/columns of a few variables (the typical
/// situation after the meet of an assignment or guard), closure is
/// restored in quadratic time by one pivot-pair pass per touched
/// variable — the same double loop as one iteration of the outermost
/// loop of the dense shortest-path closure — followed by a
/// strengthening step. All of Algorithm 3's optimizations (column
/// buffering, scalar replacement, vectorization) apply.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_CLOSURE_INCREMENTAL_H
#define OPTOCT_OCT_CLOSURE_INCREMENTAL_H

#include "oct/closure_common.h"
#include "oct/dbm.h"

#include <cstddef>
#include <vector>

namespace optoct {

/// Incremental strong closure of a fully initialized half DBM that was
/// strongly closed before the rows/columns of the variables in
/// \p Touched were modified. Returns false if the octagon became empty.
bool incrementalClosureDense(HalfDbm &M, const std::vector<unsigned> &Touched,
                             ClosureScratch &Scratch);

/// Restricted variant for the Decomposed kind: the DBM is meaningful
/// only on \p Vars (sorted; must contain every variable of \p Touched)
/// and the pass touches only entries within \p Vars. The caller is
/// responsible for the emptiness check on the component diagonal.
/// Returns the number of entries lowered from +inf to a finite bound:
/// closure only lowers entries, so this is exactly the change to the
/// component's count of finite entries.
std::size_t incrementalClosureRestricted(HalfDbm &M,
                                  const std::vector<unsigned> &Vars,
                                  const std::vector<unsigned> &Touched,
                                  ClosureScratch &Scratch);

} // namespace optoct

#endif // OPTOCT_OCT_CLOSURE_INCREMENTAL_H
