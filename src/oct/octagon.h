//===- oct/octagon.h - The OptOctagon abstract domain -----------*- C++ -*-===//
///
/// \file
/// The paper's optimized Octagon abstract domain element. An Octagon
/// owns a complete pre-allocated half DBM augmented with:
///
///   * a Kind (Top / Decomposed / Sparse / Dense, Section 3) describing
///     how the buffer is interpreted,
///   * the independent-component partition (Section 3.3): entries whose
///     variable pair is not inside one component are *implicitly* +inf
///     (0 on the diagonal) and may be uninitialized in the buffer,
///   * the number nni of finite entries, used for the sparsity decision
///     D = 1 - nni/(2n^2+2n) at closure points (Section 3.5).
///
/// Operators follow Section 4: they work on the submatrices induced by
/// the partition (meet merges components, join/widening intersect
/// them), and closure dispatches between the dense (Algorithm 3),
/// sparse, and decomposed algorithms of Section 5, recomputing the
/// exact partition when the sparse paths run.
///
/// Closure/consistency conventions:
///   * close() is idempotent and cached via the Closed flag; emptiness
///     is detected by closure and cached in the Empty flag.
///   * close() is the one way a closure runs, inside the audit when it
///     is on. Every state is closed once, and incrementally where a
///     closed element only changed in the rows of a few variables.
///     Constraints met into a closed element (addConstraints, a guard
///     or an assume) leave it unclosed, bit for bit, with the variables
///     of every lowered entry in a small inline record. close() restores
///     closure with the pivot passes over the recorded variables alone
///     (Section 5.6), recounts nni and takes Section 3.5's kind
///     decision. Strong closure is canonical, so the entries equal a
///     full closure's; the partition may stay coarser than the exact one
///     a full closure recomputes. Successive guards add to the record;
///     x := +-x + c and addVars commute with closure and keep it; every
///     other change drops it, as does a record that outgrows
///     DeferredCloseCutoff variables, and a full closure runs instead.
///   * Assignments are closed by construction. x := +-y + c, x := c and
///     the interval fallback forget x in a closed element and meet its
///     new bounds; the record then names the assignment in place of a
///     guard's variables, and close() writes x's closed rows directly
///     (Mine): for x := +-y + c, y's rows shifted by c; for a bounded
///     x, the strengthening of x's bounds against the one block that
///     holds finite unary bounds. No pivot pass or strengthening sweep
///     runs; nni follows the cells written, and the kind decision is
///     taken as after any closure.
///   * The statistics sink counts full closures (numClosures, the Fig. 7
///     trace, nmin/nmax). Incremental closures, after an assignment or
///     after guards, are counted apart (numIncrementalClosures).
///   * The lattice operators (join, widening, narrowing, inclusion,
///     equality) take const operands and never mutate them. An operand
///     whose algorithm needs the closed form and that is not closed is
///     closed into per-thread operand scratch (closedOperand), so a
///     stored element keeps its exact buffer, partition and Closed flag.
///   * join's result is closed. Widening closes only its newer operand
///     (in scratch) and leaves its result unclosed: a widening iterate
///     must stay unclosed for termination, and inclusion A ⊑ B needs
///     only A closed, so the iterate never has to be closed in place.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_OCTAGON_H
#define OPTOCT_OCT_OCTAGON_H

#include "oct/closure_common.h"
#include "oct/constraint.h"
#include "oct/dbm.h"
#include "oct/partition.h"
#include "support/budget.h"
#include "support/stats.h"

#include <array>
#include <string>
#include <vector>

namespace optoct {

class FullDbm; // oct/closure_reference.h — the audit recovery path

/// The four DBM types of Section 3.
enum class DbmKind {
  Top,        ///< No non-trivial inequality; empty partition.
  Decomposed, ///< Valid only inside components; lazily initialized.
  Sparse,     ///< Fully initialized, sparsity D >= t; partition exact.
  Dense,      ///< Fully initialized, treated as one whole component.
};

/// Kind tags recorded in closure trace events (Fig. 7).
enum ClosureKindTag {
  CK_Top = 0,
  CK_Dense = 1,
  CK_Sparse = 2,
  CK_Decomposed = 3,
};

/// Installs a statistics sink that all Octagon closures on the calling
/// thread report to (nullptr to disable). The sink is thread-local:
/// every worker of a parallel batch installs its own sink, so
/// concurrent analyses never share a statistics object. Used by the
/// analyzer adapters, the batch runtime, and the benches.
void setOctStatsSink(OctStats *Sink);
OctStats *octStatsSink();

/// Pre-grows the calling thread's closure scratch (pivot buffers and
/// the decomposed-closure dense submatrix temp) for octagons of up to
/// \p NumVars variables. The batch runtime's per-worker arenas call
/// this once per worker so no job re-allocates scratch mid-analysis.
void reserveClosureScratch(unsigned NumVars);

/// An element of the optimized Octagon domain over a fixed set of
/// variables 0..numVars()-1.
class Octagon {
public:
  /// Constructs the top element (no constraints).
  explicit Octagon(unsigned NumVars);

  /// Copies charge DBM-cell fuel (support/budget.h) like fresh
  /// construction — copies dominate the engine's allocation profile, so
  /// the cell budget is a deterministic memory-pressure proxy. Moves
  /// transfer the buffer and charge nothing. Defined inline: the engine
  /// copies an octagon on every block visit, and an out-of-line ctor
  /// costs measurable batch throughput. Copy assignment reuses the
  /// destination's buffer when it is large enough and charges nothing.
  Octagon(const Octagon &Other)
      : M(Other.M), P(Other.P), Kind(Other.Kind),
        NniExplicit(Other.NniExplicit), FullyInit(Other.FullyInit),
        Closed(Other.Closed), Empty(Other.Empty), DeferOp(Other.DeferOp),
        NumDeferred(Other.NumDeferred), Deferred(Other.Deferred) {
    support::chargeDbmCells(M.size());
  }
  Octagon &operator=(const Octagon &Other) = default;
  Octagon(Octagon &&Other) = default;
  Octagon &operator=(Octagon &&Other) = default;

  static Octagon makeTop(unsigned NumVars) { return Octagon(NumVars); }
  static Octagon makeBottom(unsigned NumVars);

  unsigned numVars() const { return M.numVars(); }
  DbmKind kind() const { return Kind; }
  const Partition &partition() const { return P; }
  bool isClosed() const { return Closed; }
  /// The packed half-DBM buffer as stored; slots outside the partition
  /// hold no meaning unless the buffer is fully initialized.
  const HalfDbm &dbm() const { return M; }

  /// Number of finite entries the materialized half DBM would have
  /// (including the implicit diagonal of uncovered variables).
  std::size_t nni() const;

  /// Sparsity D = 1 - nni/(2n^2 + 2n)  (Section 3.5).
  double sparsity() const;

  /// Emptiness test; closes first (emptiness is only decidable on the
  /// strongly closed form).
  bool isBottom();

  /// Trivially-true test: no non-trivial constraint is stored. (A
  /// non-closed octagon may still be semantically top; callers close
  /// first when they need the semantic test.)
  bool isTop() const { return !Empty && P.empty(); }

  /// Reads the conceptual full-DBM entry (i, j), honoring the implicit
  /// trivial values outside the partition.
  double entry(unsigned I, unsigned J) const;

  /// The tightest stored bound for an octagonal constraint's left-hand
  /// side (2x the variable bound for unary constraints).
  double boundOf(const OctCons &C) const {
    auto E = C.toEntry();
    return entry(E.Row, E.Col);
  }

  /// Strong closure with kind dispatch (Section 5); cached. After the
  /// call the octagon is closed (or known empty). An element closed but
  /// for recorded guards closes incrementally (see the conventions).
  void close();

  /// The most variables a deferred guard record holds. Guards that
  /// lower entries of more variables since the last closure are closed
  /// in full. bench_incremental's |T| sweep sizes it: up to 12 touched
  /// variables the incremental closure beats the full one at every
  /// component size measured (16 to 96), and at 16 it no longer does on
  /// a 16-variable component (EXPERIMENTS.md).
  static constexpr unsigned DeferredCloseCutoff = 12;

  /// Lattice operators (Section 4). Operands are read-only; join, the
  /// widenings' newer operand and narrowing's older operand are read in
  /// their closed form.
  static Octagon meet(const Octagon &A, const Octagon &B);
  static Octagon join(const Octagon &A, const Octagon &B);
  static Octagon widen(const Octagon &Old, const Octagon &New);
  static Octagon narrow(const Octagon &Old, const Octagon &New);

  /// Widening with thresholds (Mine): a growing bound jumps to the
  /// smallest threshold in \p Thresholds (sorted ascending) that still
  /// dominates the new value, instead of straight to +inf. Plain
  /// widening is the empty-threshold special case.
  static Octagon widenWithThresholds(const Octagon &Old, const Octagon &New,
                                     const std::vector<double> &Thresholds);

  /// Inclusion gamma(this) ⊆ gamma(Other). Reads *this closed and
  /// Other as stored: with the left side closed the pointwise test is
  /// exact whether or not Other is closed (Mine).
  bool leq(const Octagon &Other) const;
  /// Semantic equality; compares both sides' closed forms.
  bool equals(const Octagon &Other) const;

  /// Meets with one octagonal constraint. The result is unclosed; when
  /// the octagon was closed (or closed but for earlier guards), the
  /// next close() restores closure incrementally (Section 5.6).
  void addConstraint(const OctCons &C);

  /// Meets with several constraints at once; one deferred incremental
  /// closure covers the variables of every entry they lower.
  void addConstraints(const std::vector<OctCons> &Cs);

  /// Assignment transfer function x := e. Exact for the octagonal forms
  /// x := c, x := +-y + c (including y == x); otherwise falls back to
  /// the interval approximation of e.
  void assign(unsigned X, const LinExpr &E);

  /// Forgets all constraints on \p X (non-deterministic assignment).
  void havoc(unsigned X);

  /// Variable bounds [lo, hi] of \p V; closes first.
  Interval bounds(unsigned V);

  /// Interval value of a linear expression under the current bounds.
  Interval evalInterval(const LinExpr &E);

  /// All non-trivial constraints of the (closed) octagon, without
  /// coherent duplicates. Closes first. Listed by variable, in the
  /// baseline library's order: VA ascending, then VB <= VA ascending,
  /// then the signs, so no representation decision moves the order.
  std::vector<OctCons> constraints();

  /// Appends \p Count fresh unconstrained variables (indices at the
  /// end). Preserves closure.
  void addVars(unsigned Count);

  /// Removes the last \p Count variables and all their constraints.
  /// Requires a closed octagon to preserve the remaining relations.
  void removeTrailingVars(unsigned Count);

  /// The invariant text that canonical reports, cache records and daemon
  /// replies carry (renderConstraints over constraints()). Closes first.
  /// The text depends on the abstract element alone: not on the SIMD
  /// tier, the partition, the kind or OctConfig.
  std::string str(const std::vector<std::string> *Names = nullptr);

private:
  struct PrivateTag {};
  Octagon(unsigned NumVars, PrivateTag); ///< No buffer initialization.

  double entryRaw(unsigned I, unsigned J) const { return M.get(I, J); }

  /// True when every entry of the buffer is meaningful.
  bool fullyInit() const { return FullyInit; }

  /// Makes the whole buffer meaningful by materializing the implicit
  /// trivial entries outside the partition.
  void materialize();

  /// Merges partition blocks, initializing the cross entries between
  /// previously distinct blocks to +inf. Returns the merged block index.
  int mergeComponentsInit(const std::vector<std::size_t> &CompIndices);

  /// Ensures U and V are covered and share a block (initializing new
  /// trivial entries as needed).
  void relateInit(unsigned U, unsigned V);

  /// Writes one full-DBM entry assuming its pair is inside a component.
  void setEntry(unsigned I, unsigned J, double Value);

  /// Closure back ends (Section 5.2-5.5).
  void closeMonolithic();
  void closeDecomposed();

  /// Kind dispatch of close() without the audit wrapper.
  void closeInner();

  /// Audited closure (support/audit.h): snapshots the pre-closure
  /// element, runs closeInner, validates the result (and, on sampled
  /// closures, cross-checks it against the reference closure); on a
  /// failed check discards the DBM and recomputes from the snapshot via
  /// closureFullReference so the analysis continues soundly.
  void closeAudited();

  /// Validation half of the audit: zero diagonal, no NaN, closedness
  /// spot-checks. On success returns true; on failure fills \p Defect.
  bool auditValidate(std::string &Defect);

  /// Replaces this octagon's state with the already-closed reference
  /// matrix \p Ref (the recovery path; also used when a cross-check
  /// disagreement makes the optimized result untrustworthy).
  void adoptReferenceClosure(const FullDbm &Ref);

  /// Emptiness check over the covered diagonal, then its normalization
  /// to 0. Returns false (and marks the octagon empty) on a negative
  /// diagonal entry.
  bool normalizeCoveredDiagonal();

  /// Strengthening phase of the decomposed closure: merges components
  /// holding finite unary bounds, then strengthens (Section 5.4).
  void strengthenAndMerge();

  /// The merge half of strengthenAndMerge: merges every component that
  /// holds a finite unary bound, in index order. Returns the merged
  /// block, or -1 when no component is bounded.
  int mergeBoundedComponents();

  /// The incremental closure: closeInner's path for an element that
  /// holds a record. A guard record restores closure over the recorded
  /// variables; an assignment record writes x's closed rows
  /// (writeAssignedRows). Both then take the kind decision. The
  /// whole-matrix leg recomputes nni and, on a sparse matrix, the
  /// partition as closeMonolithic does; the decomposed leg keeps the
  /// maintained partition.
  void closeDeferred();

  /// The shortest-path half of the incremental closure on a decomposed
  /// element: each component holding a touched variable is packed once,
  /// the pivot passes of its touched variables run on the block, and
  /// the block is scattered back.
  void pivotTouchedComponents(const unsigned *Touched, unsigned NumTouched);

  /// Adds \p V to the deferred guard record. Returns false, dropping
  /// the record, when it is full.
  bool recordDeferred(unsigned V);

  /// What the deferred record describes.
  enum class DeferredOp : unsigned char {
    Guards,  ///< Met constraints over the variables in the record.
    Copy,    ///< x := y + c, x and y in the record, c the met m[2y][2x].
    NegCopy, ///< x := -y + c, c the met m[2y+1][2x].
    Bounded, ///< x := c or an interval: x alone, its unary pair met.
  };

  /// Ends an assignment on a closed element whose x was forgotten and
  /// met with its new bounds: records the assignment and closes, which
  /// writes x's closed rows.
  void closeAssignment(DeferredOp Op, unsigned X, unsigned Y);

  /// The closure of an assignment record (Mine's closed-form transfer):
  /// x's rows within its block are y's rows shifted by c (Copy,
  /// NegCopy), or the strengthening of x's unary bounds against the
  /// one block holding finite unary bounds, which x joins (Bounded).
  /// A closed element holds at most one such block, so these are the
  /// only entries a closure would lower. Each write updates nni.
  void writeAssignedRows(DeferredOp Op, unsigned X, unsigned Y);

  /// nni recounted over the components: their finite entries, plus the
  /// diagonal zeros of the uncovered variables of a materialized buffer.
  std::size_t recountNni() const;

  /// Recomputes Kind from the partition/sparsity after a closure.
  void reclassify();

  /// Forgets X's constraints and removes it from the partition
  /// (expects a closed octagon so no transitive information is lost).
  void forgetVar(unsigned X);

  /// Exact assignment x := x + c: shifts all bounds mentioning x.
  /// Preserves closure.
  void shiftVar(unsigned X, double C);

  /// Exact assignment x := -x + c: swaps x's positive/negative rows and
  /// shifts. Preserves closure.
  void negateShiftVar(unsigned X, double C);

  void markEmpty();

  HalfDbm M;
  Partition P;
  DbmKind Kind = DbmKind::Top;
  std::size_t NniExplicit = 0; ///< Finite entries inside components.
  bool FullyInit = false;
  bool Closed = true; ///< Top is closed.
  bool Empty = false;
  /// What the record describes while NumDeferred != 0; Guards
  /// otherwise.
  DeferredOp DeferOp = DeferredOp::Guards;
  /// The deferred record: while NumDeferred != 0 the element is its
  /// closed form met with constraints whose entries all lie in the rows
  /// and columns of Deferred[0..NumDeferred), or, for an assignment,
  /// with x forgotten and its new bounds met.
  unsigned NumDeferred = 0;
  std::array<unsigned, DeferredCloseCutoff> Deferred{};

  /// Returns \p O itself when it is closed, otherwise its closure in
  /// the calling thread's operand scratch \p Slot (0 or 1). The result
  /// is valid until the next call with the same slot on this thread.
  static const Octagon &closedOperand(const Octagon &O, unsigned Slot);

  static ClosureScratch &scratch();
  friend void reserveClosureScratch(unsigned NumVars);
  /// Test peer: inspects and drops the deferred record, so a test can
  /// close a bit-identical copy in full.
  friend struct OctagonTestAccess;
};

} // namespace optoct

#endif // OPTOCT_OCT_OCTAGON_H
