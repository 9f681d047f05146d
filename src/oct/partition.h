//===- oct/partition.h - Independent variable components --------*- C++ -*-===//
///
/// \file
/// Independent components of an octagon (Section 3.3): a partition of a
/// subset V' of the variables such that variables in different blocks are
/// related only by trivial inequalities. Variables outside every block
/// participate in no non-trivial inequality at all (not even unary ones).
///
/// The octagon operators maintain this partition online:
///   * meet induces the union of the connectivity relations, i.e. blocks
///     that overlap across the two inputs merge;
///   * join and widening induce the intersection of the relations, i.e.
///     the common refinement of the two partitions (Section 4.3);
///   * strengthening merges blocks holding finite unary bounds
///     (Section 5.4);
///   * the sparse/decomposed closures recompute the partition exactly
///     (Section 3.5).
///
/// Maintained partitions may over-approximate the exact one (coarser
/// blocks, never finer), which costs operations but never precision.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_PARTITION_H
#define OPTOCT_OCT_PARTITION_H

#include <cassert>
#include <cstddef>
#include <vector>

namespace optoct {

class HalfDbm;

/// A partition of a subset of {0, ..., NumVars-1} into disjoint sorted
/// blocks. The empty partition (no blocks) describes the Top octagon.
class Partition {
public:
  Partition() = default;
  explicit Partition(unsigned NumVars) : CompOf(NumVars, -1) {}

  /// The single-block partition {0..NumVars-1}; describes a Dense DBM.
  static Partition whole(unsigned NumVars);

  unsigned numVars() const { return static_cast<unsigned>(CompOf.size()); }
  std::size_t numComponents() const { return Comps.size(); }
  bool empty() const { return Comps.empty(); }

  /// The block with index \p C, sorted ascending.
  const std::vector<unsigned> &component(std::size_t C) const {
    return Comps[C];
  }

  /// Index of the block containing \p Var, or -1 if Var is in no block.
  int componentOf(unsigned Var) const { return CompOf[Var]; }
  bool contains(unsigned Var) const { return CompOf[Var] >= 0; }

  /// Sum over blocks of their sizes (|V'|).
  std::size_t coveredVars() const;

  /// Ensures \p Var belongs to some block, creating a singleton if not.
  /// Returns the block index.
  std::size_t addSingleton(unsigned Var);

  /// Records a non-trivial relation between \p U and \p V: merges their
  /// blocks (creating singletons as needed). Returns the index of the
  /// resulting block.
  std::size_t relate(unsigned U, unsigned V);

  /// Merges all listed blocks into one. \p CompIndices need not be
  /// sorted; duplicates are fine. Returns the resulting block index, or
  /// -1 if the list was empty.
  int mergeComponents(const std::vector<std::size_t> &CompIndices);

  /// Removes \p Var from its block (no-op if uncovered). The remaining
  /// block is kept as-is — a conservative over-approximation, since
  /// removing a cut variable could split it.
  void removeVar(unsigned Var);

  /// Grows (or shrinks) the variable universe. When shrinking, all
  /// removed variables must already be uncovered.
  void resizeVars(unsigned NewNumVars) {
    for (std::size_t V = NewNumVars; V < CompOf.size(); ++V)
      assert(CompOf[V] < 0 && "shrinking over a covered variable");
    CompOf.resize(NewNumVars, -1);
  }

  /// True for the single-block partition covering every variable.
  bool isWhole() const {
    return Comps.size() == 1 && Comps[0].size() == CompOf.size();
  }

  /// Partition induced by the union of the connectivity relations
  /// (meet): blocks from either input that share a variable merge.
  static Partition unionMerge(const Partition &A, const Partition &B);

  /// Partition induced by the intersection of the connectivity relations
  /// (join, widening): the common refinement; variables covered by only
  /// one input drop out.
  static Partition refine(const Partition &A, const Partition &B);

  /// True if every block of \p Finer is contained in a block of *this —
  /// i.e. *this is coarser or equal (over-approximates Finer).
  bool coarsens(const Partition &Finer) const;

  bool operator==(const Partition &Other) const;

  /// Appends, as new blocks, the exact independent components of the
  /// entries of \p M restricted to \p Vars (sorted ascending, none of
  /// them covered yet): U and V are related iff some inequality between
  /// them is finite, and a variable with no finite entry besides its
  /// diagonal stays uncovered. Returns the number of finite entries
  /// inside the appended blocks (their sub-DBMs, diagonals included).
  /// One O(|Vars|^2) pass over the rows of \p M. Blocks are appended
  /// in the order of their smallest member, members ascending.
  std::size_t appendExactComponents(const HalfDbm &M,
                                    const std::vector<unsigned> &Vars);

private:
  void rebuildIndex();

  std::vector<std::vector<unsigned>> Comps;
  std::vector<int> CompOf;
};

/// The exact independent components of the (fully meaningful) entries
/// of \p M restricted to \p Vars (sorted ascending), as
/// Partition::appendExactComponents appends them.
Partition extractPartition(const HalfDbm &M, const std::vector<unsigned> &Vars);

/// Exact components over all variables of \p M (requires M fully
/// initialized).
Partition extractPartition(const HalfDbm &M);

} // namespace optoct

#endif // OPTOCT_OCT_PARTITION_H
