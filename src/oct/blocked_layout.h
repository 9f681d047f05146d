//===- oct/blocked_layout.h - Contiguous per-component sub-DBMs -*- C++ -*-===//
///
/// \file
/// The blocked component layout that closes the decomposed-vectorization
/// gap: a live component with m variables owns exactly the sub-half-DBM
/// a standalone m-variable octagon would (2m(m+1) packed doubles, the
/// component's variables renumbered 0..m-1), and pack() gathers it into
/// a contiguous scratch block with one pass through the coherence index.
/// The lattice operators (oct/octagon_ops.cpp) then run the flat span
/// kernels of oct/simd_kernels.h over a whole block — or over many small
/// components' blocks laid end to end, so k tiny components pay one
/// kernel dispatch instead of k — and scatter() writes the results back
/// to the same slots pack() read. Closure uses the same pair: the full
/// closure (dense and sparse components alike) and the incremental
/// closure pack one component at a time into ClosureScratch::DenseTmp,
/// close it there and scatter it back, so no closure kernel walks a
/// component in place. A component over every variable is the one
/// exception: its block is the matrix's own layout, so it is closed on
/// the matrix with nothing packed.
///
/// Slot-set equivalence (what keeps nni exact): a block holds exactly
/// the stored lower-triangle slots whose variable pair lies inside the
/// component — the same set the scalar legs' forEachComponentSlot
/// visits — so a counting kernel's finite count over the block equals
/// the scalar leg's count over the component, entry for entry.
///
/// Two pack flavors mirror the two partition semantics of Section 4:
///   * packComponent — pure span copies. Valid when every pair of the
///     component is materialized in the source buffer: refined
///     partitions (join/widen: each refined pair lies inside one
///     component of *each* input) and FullyInit matrices.
///   * packComponentEntry — reads through the partition like
///     Octagon::entry(), substituting implicit trivia (+inf, 0 on the
///     diagonal) for unrelated pairs. Needed for union-merged
///     partitions (meet, narrowing on partial inputs) and for
///     Decomposed receivers of inclusion/equality, whose merged
///     components can relate pairs neither input materialized. Falls
///     back to the pure-copy pack when the whole component sits inside
///     one source block (the common case when both inputs agree on the
///     partition).
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_BLOCKED_LAYOUT_H
#define OPTOCT_OCT_BLOCKED_LAYOUT_H

#include "oct/dbm.h"
#include "oct/partition.h"
#include "support/aligned.h"

#include <cstddef>
#include <vector>

namespace optoct {

/// Packed size of one m-variable component block: the sub-half-DBM of
/// an m-variable octagon, 2m(m+1) doubles.
inline std::size_t blockSize(std::size_t NumCompVars) {
  return 2 * NumCompVars * (NumCompVars + 1);
}

/// Per-thread pack/scatter scratch: two operand areas and one result
/// area, each large enough for every component block of one operator
/// call laid end to end (bounded by matSize(n), since components are
/// disjoint). Grown geometrically like the closure scratch and wired
/// into reserveClosureScratch() so the batch runtime's worker arenas
/// pre-size it.
struct BlockScratch {
  AlignedBuffer<double> A;
  AlignedBuffer<double> B;
  AlignedBuffer<double> R;

  void ensure(std::size_t Len) {
    if (A.size() >= Len)
      return;
    std::size_t Cap = A.size() ? A.size() : 64;
    while (Cap < Len)
      Cap *= 2;
    A.resizeDiscard(Cap);
    B.resizeDiscard(Cap);
    R.resizeDiscard(Cap);
  }
};

/// The calling thread's pack/scatter scratch.
BlockScratch &blockScratch();

/// Pre-sizes the calling thread's scratch for octagons of \p NumVars.
void reserveBlockScratch(unsigned NumVars);

/// Gathers the component \p Vars (sorted ascending) of \p M into the
/// contiguous block \p Dst (blockSize(Vars.size()) doubles). Pure span
/// copies: every pair of \p Vars must be materialized in \p M.
void packComponent(double *Dst, const HalfDbm &M,
                   const std::vector<unsigned> &Vars);

/// Like packComponent, but reads through partition \p P with
/// Octagon::entry() semantics: pairs not related by \p P read as +inf
/// (0 on the true diagonal), so union-merged components pack correctly
/// from inputs that never materialized them. \p FullyInit short-cuts to
/// the pure-copy pack (every slot of a fully initialized buffer is
/// meaningful).
void packComponentEntry(double *Dst, const HalfDbm &M, const Partition &P,
                        bool FullyInit, const std::vector<unsigned> &Vars);

/// Scatters the block \p Src (as produced by packComponent) back to the
/// component's slots of \p M — the exact inverse copy of packComponent.
void scatterComponent(const double *Src, HalfDbm &M,
                      const std::vector<unsigned> &Vars);

/// Number of finite entries among the component's slots of \p M — the
/// slots packComponent reads, counted over the same row spans.
std::size_t countComponentFinite(const HalfDbm &M,
                                 const std::vector<unsigned> &Vars);

/// Packs just the two stored rows of block-variable \p A (position in
/// \p Vars): Dst[0 .. 2A+1] = the component row of 2A, Dst[2A+2 ..
/// 4A+3] = the row of 2A+1. Returns the packed length 4(A+1). The
/// early-exit predicates (leq/equals) pack one row pair at a time so a
/// violation in the first rows costs one tiny pack + one kernel call,
/// preserving the pointwise legs' early-exit profile on misses.
std::size_t packRowPair(double *Dst, const HalfDbm &M,
                        const std::vector<unsigned> &Vars, std::size_t A);

/// Row-pair flavor of packComponentEntry: same trivia substitution,
/// two rows only. Returns the packed length 4(A+1).
std::size_t packRowPairEntry(double *Dst, const HalfDbm &M,
                             const Partition &P, bool FullyInit,
                             const std::vector<unsigned> &Vars, std::size_t A);

} // namespace optoct

#endif // OPTOCT_OCT_BLOCKED_LAYOUT_H
