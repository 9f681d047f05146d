//===- oct/octagon.cpp - The OptOctagon abstract domain ------------------===//

#include "oct/octagon.h"

#include "oct/blocked_layout.h"
#include "oct/closure_dense.h"
#include "oct/closure_incremental.h"
#include "oct/closure_reference.h"
#include "oct/closure_sparse.h"
#include "oct/config.h"
#include "support/audit.h"
#include "support/budget.h"
#include "support/faultinject.h"
#include "support/timing.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace optoct;

OctConfig &optoct::octConfig() {
  static OctConfig Config;
  return Config;
}

// Per-thread: each analysis thread installs its own sink, so concurrent
// engines (src/runtime) never share a statistics object.
static thread_local OctStats *StatsSink = nullptr;

void optoct::setOctStatsSink(OctStats *Sink) { StatsSink = Sink; }
OctStats *optoct::octStatsSink() { return StatsSink; }

ClosureScratch &Octagon::scratch() {
  static thread_local ClosureScratch S;
  return S;
}

void optoct::reserveClosureScratch(unsigned NumVars) {
  ClosureScratch &S = Octagon::scratch();
  S.ensure(2 * NumVars);
  S.DenseTmp.resizeDiscard(NumVars);
  // The lattice operators' blocked component layout shares the same
  // per-worker pre-sizing hook.
  reserveBlockScratch(NumVars);
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

Octagon::Octagon(unsigned NumVars, PrivateTag)
    : M(NumVars), P(NumVars), Kind(DbmKind::Top), Closed(false) {
  support::chargeDbmCells(M.size());
}

Octagon::Octagon(unsigned NumVars) : M(NumVars), P(NumVars) {
  support::faultPoint("oct.alloc");
  support::chargeDbmCells(M.size());
  if (octConfig().EnableDecomposition) {
    // Top type (Section 3.4): the matrix is allocated but left
    // uninitialized; the empty partition makes every entry implicitly
    // trivial.
    Kind = DbmKind::Top;
    Closed = true;
    return;
  }
  // Decomposition disabled (ablation): everything is a whole-matrix
  // octagon, fully materialized from the start.
  M.initTop();
  P = Partition::whole(NumVars);
  Kind = DbmKind::Dense;
  FullyInit = true;
  Closed = true;
  NniExplicit = 2 * static_cast<std::size_t>(NumVars);
}

Octagon Octagon::makeBottom(unsigned NumVars) {
  Octagon O(NumVars);
  O.markEmpty();
  return O;
}

void Octagon::markEmpty() {
  Empty = true;
  Closed = true;
  NumDeferred = 0;
}

//===----------------------------------------------------------------------===//
// Entry access and simple queries
//===----------------------------------------------------------------------===//

double Octagon::entry(unsigned I, unsigned J) const {
  assert(!Empty && "entry() on the empty octagon");
  if (FullyInit)
    return M.get(I, J);
  if (I == J)
    return 0.0;
  unsigned U = I / 2, V = J / 2;
  if (U == V)
    return P.contains(U) ? M.get(I, J) : Infinity;
  int CU = P.componentOf(U);
  if (CU < 0 || CU != P.componentOf(V))
    return Infinity;
  return M.get(I, J);
}

std::size_t Octagon::nni() const {
  if (FullyInit)
    return NniExplicit;
  // Uncovered variables contribute their two implicit diagonal zeros.
  return NniExplicit + 2 * (numVars() - P.coveredVars());
}

double Octagon::sparsity() const {
  unsigned N = numVars();
  std::size_t Total = HalfDbm::matSize(N);
  if (Total == 0)
    return 0.0;
  return 1.0 - static_cast<double>(nni()) / static_cast<double>(Total);
}

bool Octagon::isBottom() {
  close();
  return Empty;
}

//===----------------------------------------------------------------------===//
// Lazy initialization of component entries
//===----------------------------------------------------------------------===//

void Octagon::setEntry(unsigned I, unsigned J, double Value) {
  double Old = M.get(I, J);
  M.set(I, J, Value);
  NniExplicit += static_cast<std::size_t>(isFinite(Value)) -
                 static_cast<std::size_t>(isFinite(Old));
}

int Octagon::mergeComponentsInit(const std::vector<std::size_t> &CompIndices) {
  if (!FullyInit) {
    // Initialize the cross entries between every pair of distinct
    // blocks being merged (Section 3: trivial entries are inserted only
    // when needed). Each covered variable's own block entries are
    // already valid.
    for (std::size_t A = 0; A != CompIndices.size(); ++A)
      for (std::size_t B = 0; B != A; ++B) {
        if (CompIndices[A] == CompIndices[B])
          continue;
        for (unsigned U : P.component(CompIndices[A]))
          for (unsigned V : P.component(CompIndices[B]))
            M.initPairTrivial(U, V);
      }
  }
  return P.mergeComponents(CompIndices);
}

void Octagon::relateInit(unsigned U, unsigned V) {
  if (!octConfig().EnableDecomposition)
    return; // partition is permanently whole
  int CU = P.componentOf(U);
  // A materialized buffer already counts a variable's diagonal zeros;
  // a lazy one counts them once the variable is covered.
  if (CU < 0) {
    if (!FullyInit) {
      M.initPairTrivial(U, U);
      NniExplicit += 2;
    }
    CU = static_cast<int>(P.addSingleton(U));
  }
  if (U == V)
    return;
  int CV = P.componentOf(V);
  if (CV < 0) {
    if (!FullyInit) {
      M.initPairTrivial(V, V);
      NniExplicit += 2;
    }
    CV = static_cast<int>(P.addSingleton(V));
  }
  if (CU != CV)
    mergeComponentsInit({static_cast<std::size_t>(CU),
                         static_cast<std::size_t>(CV)});
}

void Octagon::materialize() {
  if (FullyInit)
    return;
  unsigned N = numVars();
  for (unsigned U = 0; U != N; ++U) {
    if (!P.contains(U))
      M.initPairTrivial(U, U);
    int CU = P.componentOf(U);
    for (unsigned V = 0; V != U; ++V) {
      int CV = P.componentOf(V);
      if (CU < 0 || CU != CV)
        M.initPairTrivial(U, V);
    }
  }
  NniExplicit += 2 * (N - P.coveredVars());
  FullyInit = true;
}

//===----------------------------------------------------------------------===//
// Closure dispatch (Section 5)
//===----------------------------------------------------------------------===//

void Octagon::close() {
  if (Closed || Empty)
    return;
  if (support::auditEnabled()) {
    // Level-1 recovery ladder (support/audit.h): validate the result,
    // optionally cross-check it against the reference closure, and on
    // corruption recompute from a pre-closure snapshot.
    closeAudited();
    return;
  }
  closeInner();
}

void Octagon::closeInner() {
  std::uint64_t Begin = StatsSink ? readCycles() : 0;
  int Tag;

  // A whole partition means every pair lies inside the single
  // component, so the buffer is in fact fully initialized.
  if (P.isWhole() && !FullyInit)
    FullyInit = true;

  if (NumDeferred != 0) {
    closeDeferred();
    Closed = true;
    if (StatsSink)
      StatsSink->recordIncrementalClosure(readCycles() - Begin);
    return;
  }

  if (P.empty()) {
    // Top closure (Section 5.5): nothing to minimize.
    Kind = DbmKind::Top;
    Tag = CK_Top;
  } else if (!octConfig().EnableDecomposition || P.isWhole()) {
    Tag = sparsity() >= octConfig().SparsityThreshold &&
                  octConfig().EnableSparse
              ? CK_Sparse
              : CK_Dense;
    closeMonolithic();
  } else {
    Tag = CK_Decomposed;
    closeDecomposed();
  }

  Closed = true;
  if (StatsSink)
    StatsSink->recordClosure(readCycles() - Begin, numVars(), Tag);
}

void Octagon::closeMonolithic() {
  assert(FullyInit && "monolithic closure needs a materialized matrix");
  OctConfig &Cfg = octConfig();
  if (Cfg.EnableSparse && sparsity() >= Cfg.SparsityThreshold) {
    std::size_t Nni = 0;
    if (!closureSparse(M, scratch(), Nni)) {
      markEmpty();
      return;
    }
    NniExplicit = Nni;
    // Piggyback the exact recomputation of the independent components
    // on the sparse closure (Section 3.5).
    if (Cfg.EnableDecomposition)
      P = extractPartition(M);
    reclassify();
    return;
  }
  if (!closureDense(M, scratch())) {
    markEmpty();
    return;
  }
  // Dense operators over-approximate nni as 2n^2+2n (Section 4.1).
  NniExplicit = M.size();
  reclassify();
}

void Octagon::closeDecomposed() {
  OctConfig &Cfg = octConfig();

  // Shortest-path closure per component; it cannot connect variables in
  // different components (Section 5.4). Each component is packed into a
  // contiguous temporary (the per-thread scratch, reused across
  // closures), where its own sparsity is counted (Sections 3.3 and 4.3)
  // and the dense or sparse kernel runs, then scattered back.
  HalfDbm &Tmp = scratch().DenseTmp;
  for (std::size_t C = 0, E = P.numComponents(); C != E; ++C) {
    const std::vector<unsigned> &Vars = P.component(C);
    Tmp.resizeDiscard(static_cast<unsigned>(Vars.size()));
    packComponent(Tmp.data(), M, Vars);
    double SubD = 1.0 - static_cast<double>(Tmp.countFinite()) /
                            static_cast<double>(Tmp.size());
    if (Cfg.EnableSparse && SubD >= Cfg.SparsityThreshold)
      shortestPathSparse(Tmp, scratch());
    else
      shortestPathDense(Tmp, scratch());
    scatterComponent(Tmp.data(), M, Vars);
  }

  strengthenAndMerge();
  if (!normalizeCoveredDiagonal())
    return;

  // Exact recomputation of the components within each (possibly merged)
  // block, counting nni in the same pass (Section 3.5).
  Partition NewP(numVars());
  std::size_t Nni = 0;
  for (std::size_t C = 0, E = P.numComponents(); C != E; ++C)
    Nni += NewP.appendExactComponents(M, P.component(C));
  P = std::move(NewP);
  if (FullyInit)
    Nni += 2 * (numVars() - P.coveredVars());
  NniExplicit = Nni;
  reclassify();
}

bool Octagon::normalizeCoveredDiagonal() {
  // One pass: the entries of an empty octagon are meaningless, so the
  // zeros written before a negative entry turns up do no harm.
  for (std::size_t C = 0, E = P.numComponents(); C != E; ++C)
    for (unsigned V : P.component(C)) {
      double &D0 = M.at(2 * V, 2 * V), &D1 = M.at(2 * V + 1, 2 * V + 1);
      if (D0 < 0.0 || D1 < 0.0) {
        markEmpty();
        return false;
      }
      D0 = 0.0;
      D1 = 0.0;
    }
  return true;
}

int Octagon::mergeBoundedComponents() {
  // Components holding a finite unary (diagonal-block) bound: only those
  // participate in strengthening, and they merge into a single component
  // (Section 5.4).
  std::vector<std::size_t> &Bounded = scratch().BoundedComps;
  Bounded.clear();
  for (std::size_t C = 0, E = P.numComponents(); C != E; ++C) {
    for (unsigned V : P.component(C))
      if (isFinite(M.at(2 * V, 2 * V + 1)) ||
          isFinite(M.at(2 * V + 1, 2 * V))) {
        Bounded.push_back(C);
        break;
      }
  }
  if (Bounded.size() < 2)
    return Bounded.empty() ? -1 : static_cast<int>(Bounded[0]);
  return mergeComponentsInit(Bounded);
}

void Octagon::strengthenAndMerge() {
  int Merged = mergeBoundedComponents();
  if (Merged < 0)
    return;
  // The merged submatrix is likely sparse: use the sparse strengthening
  // (Section 5.4).
  strengthenSparseRestricted(
      M, P.component(static_cast<std::size_t>(Merged)), scratch());
}

void Octagon::reclassify() {
  if (Empty)
    return;
  unsigned N = numVars();
  if (!octConfig().EnableDecomposition) {
    Kind = sparsity() >= octConfig().SparsityThreshold ? DbmKind::Sparse
                                                       : DbmKind::Dense;
    return;
  }
  if (P.empty()) {
    Kind = DbmKind::Top;
    return;
  }
  if (sparsity() < octConfig().SparsityThreshold) {
    // Switch to the Dense type (Section 3.5): requires a fully
    // initialized matrix.
    materialize();
    P = Partition::whole(N);
    Kind = DbmKind::Dense;
    return;
  }
  Kind = P.isWhole() || (P.numComponents() == 1 && FullyInit)
             ? DbmKind::Sparse
             : DbmKind::Decomposed;
}

//===----------------------------------------------------------------------===//
// Audited closure (the Level-1 recovery ladder, support/audit.h)
//===----------------------------------------------------------------------===//

namespace {

/// Entry-level agreement for the cross-check. Exact equality covers the
/// common case (identical bounds, both +inf); the tolerance absorbs the
/// different floating-point evaluation orders of the optimized closures
/// vs. Algorithm 1 along equal-length shortest paths.
bool boundsAgree(double A, double B) {
  if (A == B)
    return true;
  if (std::isnan(A) || std::isnan(B))
    return false;
  return std::abs(A - B) <=
         1e-9 * std::max({1.0, std::abs(A), std::abs(B)});
}

/// `L <= R` with the same epsilon, for the closedness spot-checks
/// (rounding in the strengthening half-sums may leave the triangle
/// inequality epsilon-violated without any corruption).
bool leqWithTolerance(double L, double R) {
  if (std::isnan(L) || std::isnan(R))
    return false;
  return L <= R + 1e-9 * std::max({1.0, std::abs(L), std::abs(R)});
}

std::string describeCell(unsigned I, unsigned J, double V) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "m[%u][%u]=%.17g", I, J, V);
  return Buf;
}

} // namespace

bool Octagon::auditValidate(std::string &Defect) {
  if (Empty)
    return true; // nothing representable to check
  const unsigned N = numVars(), D = 2 * N;

  // Zero diagonal on every *stored* live cell. entry() reports the
  // implicit 0 for uncovered variables, so it would mask a corrupted
  // buffer slot; go to the buffer directly.
  if (FullyInit) {
    for (unsigned I = 0; I != D; ++I) {
      double Diag = M.at(I, I);
      if (!(Diag == 0.0)) {
        Defect = "nonzero diagonal " + describeCell(I, I, Diag);
        return false;
      }
    }
  } else {
    for (std::size_t C = 0, E = P.numComponents(); C != E; ++C)
      for (unsigned V : P.component(C))
        for (unsigned S = 0; S != 2; ++S) {
          double Diag = M.at(2 * V + S, 2 * V + S);
          if (!(Diag == 0.0)) {
            Defect = "nonzero diagonal " +
                     describeCell(2 * V + S, 2 * V + S, Diag);
            return false;
          }
        }
  }

  // NaN scan over the semantically live cells: every stored cell when
  // the buffer is fully materialized, the component submatrices
  // otherwise. A NaN bound poisons every min() it meets downstream.
  if (FullyInit) {
    const double *Buf = M.data();
    for (std::size_t I = 0, E = M.size(); I != E; ++I)
      if (std::isnan(Buf[I])) {
        Defect = "NaN in DBM buffer (packed index " + std::to_string(I) + ")";
        return false;
      }
  } else {
    for (std::size_t C = 0, E = P.numComponents(); C != E; ++C) {
      const std::vector<unsigned> &Vars = P.component(C);
      for (std::size_t A = 0; A != Vars.size(); ++A)
        for (std::size_t B = 0; B <= A; ++B)
          for (unsigned R = 0; R != 2; ++R)
            for (unsigned S = 0; S != 2; ++S) {
              double V = M.at(2 * Vars[A] + R, 2 * Vars[B] + S);
              if (std::isnan(V)) {
                Defect = "NaN at " +
                         describeCell(2 * Vars[A] + R, 2 * Vars[B] + S, V);
                return false;
              }
            }
    }
  }

  // Closedness spot-checks on sampled (i, j, k) triples: a strongly
  // closed matrix satisfies m[i][j] <= m[i][k] + m[k][j] for all
  // triples. Sampling is seeded and tick-keyed, so a job checks the
  // same triples for any worker interleaving.
  support::AuditConfig Config = support::auditConfig();
  if (D >= 2 && Config.SpotCheckTriples != 0) {
    std::uint64_t Salt = support::auditHash(Config.Seed ^ support::auditNextTick());
    for (unsigned K = 0; K != Config.SpotCheckTriples; ++K) {
      std::uint64_t H = support::auditHash(Salt ^ (0x100000001b3ull * (K + 1)));
      unsigned I = static_cast<unsigned>(H % D);
      unsigned J = static_cast<unsigned>((H >> 21) % D);
      unsigned Via = static_cast<unsigned>((H >> 42) % D);
      double Direct = entry(I, J);
      double Leg1 = entry(I, Via), Leg2 = entry(Via, J);
      double ViaSum = boundAdd(Leg1, Leg2);
      if (!leqWithTolerance(Direct, ViaSum)) {
        Defect = "closedness violation " + describeCell(I, J, Direct) +
                 " > m[" + std::to_string(I) + "][" + std::to_string(Via) +
                 "] + m[" + std::to_string(Via) + "][" + std::to_string(J) +
                 "] = " + std::to_string(ViaSum);
        return false;
      }
    }
  }
  return true;
}

void Octagon::adoptReferenceClosure(const FullDbm &Ref) {
  Ref.toHalf(M);
  Empty = false;
  Closed = true;
  FullyInit = true;
  NniExplicit = M.countFinite();
  P = octConfig().EnableDecomposition ? extractPartition(M)
                                      : Partition::whole(numVars());
  reclassify();
}

void Octagon::closeAudited() {
  // Pre-closure snapshot, taken through entry() so the implicit trivial
  // entries of partial kinds materialize as +inf/0: the exact input the
  // reference closure needs for recovery or cross-checking.
  const unsigned D = 2 * numVars();
  FullDbm Input(numVars());
  for (unsigned I = 0; I != D; ++I)
    for (unsigned J = 0; J != D; ++J)
      Input.at(I, J) = I == J ? 0.0 : entry(I, J);
  const bool CrossCheck = support::auditShouldCrossCheck();

  closeInner();

  support::AuditLog *Log = support::auditLogSink();
  if (Log)
    Log->recordValidation();

  // Corruption hook for the audit tests: a PoisonBound rule here lands
  // NaN in a live cell of the *closed* result, downstream of every
  // sanitizing layer — exactly the silent-corruption shape (bit flip,
  // vectorization bug) the audit exists to catch.
  if (!Empty && !P.empty()) {
    unsigned U = P.component(0)[0];
    support::faultPoint("closure.result", &M.at(2 * U + 1, 2 * U));
  } else {
    support::faultPoint("closure.result");
  }

  std::string Defect;
  if (!auditValidate(Defect)) {
    // Discard the corrupt DBM: recompute from the snapshot via the
    // reference path, and continue soundly.
    if (Log)
      Log->recordIncident("closure.validate", Defect);
    FullDbm Ref = Input;
    if (closureFullReference(Ref))
      adoptReferenceClosure(Ref);
    else
      markEmpty();
    return;
  }

  if (!CrossCheck)
    return;
  if (Log)
    Log->recordCrossCheck();
  FullDbm Ref = Input;
  bool RefNonEmpty = closureFullReference(Ref);
  std::string Mismatch;
  if (Empty != !RefNonEmpty)
    Mismatch = Empty ? "optimized closure reports empty, reference does not"
                     : "reference closure reports empty, optimized does not";
  else if (!Empty)
    for (unsigned I = 0; I != D && Mismatch.empty(); ++I)
      for (unsigned J = 0; J != D; ++J) {
        if (I == J)
          continue;
        if (!boundsAgree(entry(I, J), Ref.at(I, J))) {
          Mismatch = "optimized " + describeCell(I, J, entry(I, J)) +
                     " vs reference " + describeCell(I, J, Ref.at(I, J));
          break;
        }
      }
  if (Mismatch.empty())
    return;
  if (Log)
    Log->recordIncident("closure.crosscheck", Mismatch);
  // The independent implementations disagree; trust the executable
  // specification (Algorithm 1) and adopt its result.
  if (RefNonEmpty)
    adoptReferenceClosure(Ref);
  else
    markEmpty();
}

//===----------------------------------------------------------------------===//
// Incremental closure (Section 5.6)
//===----------------------------------------------------------------------===//

bool Octagon::recordDeferred(unsigned V) {
  for (unsigned K = 0; K != NumDeferred; ++K)
    if (Deferred[K] == V)
      return true;
  if (NumDeferred == DeferredCloseCutoff) {
    NumDeferred = 0;
    return false;
  }
  Deferred[NumDeferred++] = V;
  return true;
}

void Octagon::pivotTouchedComponents(const unsigned *Touched,
                                     unsigned NumTouched) {
  // The touched variables already share one component with everything
  // the new constraints relate them to. At most DeferredCloseCutoff
  // variables arrive here, so their components fit a fixed array. The
  // components are disjoint, so their order does not matter.
  std::array<int, DeferredCloseCutoff> Comps;
  unsigned NumComps = 0;
  for (unsigned T = 0; T != NumTouched; ++T) {
    int C = P.componentOf(Touched[T]);
    if (C >= 0 && std::find(Comps.begin(), Comps.begin() + NumComps, C) ==
                      Comps.begin() + NumComps)
      Comps[NumComps++] = C;
  }
  HalfDbm &Tmp = scratch().DenseTmp;
  for (unsigned K = 0; K != NumComps; ++K) {
    const std::vector<unsigned> &Vars =
        P.component(static_cast<std::size_t>(Comps[K]));
    Tmp.resizeDiscard(static_cast<unsigned>(Vars.size()));
    packComponent(Tmp.data(), M, Vars);
    for (unsigned T = 0; T != NumTouched; ++T) {
      if (P.componentOf(Touched[T]) != Comps[K])
        continue;
      auto Pos = std::lower_bound(Vars.begin(), Vars.end(), Touched[T]) -
                 Vars.begin();
      incrementalPivotPass(Tmp, static_cast<unsigned>(Pos), scratch());
    }
    scatterComponent(Tmp.data(), M, Vars);
  }
}

std::size_t Octagon::recountNni() const {
  std::size_t Nni = FullyInit ? 2 * (numVars() - P.coveredVars()) : 0;
  for (std::size_t C = 0, E = P.numComponents(); C != E; ++C)
    Nni += countComponentFinite(M, P.component(C));
  return Nni;
}

void Octagon::writeAssignedRows(DeferredOp Op, unsigned X, unsigned Y) {
  const unsigned XX = 2 * X, XX1 = 2 * X + 1;
  if (Op == DeferredOp::Bounded) {
    // x := c or an interval: x is a bounded singleton and joins the one
    // block that holds finite unary bounds, as strengthenAndMerge would
    // merge them. Nothing else relates to x, so x's entries are their
    // strengthening, (m[i][i^1] + m[j^1][j]) / 2, evaluated as the
    // strengthening kernels evaluate it; the rest of the block is
    // strongly closed already.
    std::size_t B = static_cast<std::size_t>(mergeBoundedComponents());
    double Up = M.at(XX1, XX), Lo = M.at(XX, XX1);
    for (unsigned V : P.component(B)) {
      if (V == X)
        continue;
      for (unsigned I = 2 * V; I != 2 * V + 2; ++I) {
        double Di = M.get(I, I ^ 1u);
        setEntry(I, XX, (Di + Up) * 0.5);
        setEntry(I, XX1, (Di + Lo) * 0.5);
      }
    }
    return;
  }
  // x := y + c (x := -y + c): x equals y + c (-y + c), so its tight
  // bounds are y's (y's negated) shifted by c. x already shares y's
  // block, and v = y needs no case of its own: y's diagonal is 0.
  const unsigned YPos = Op == DeferredOp::Copy ? 2 * Y : 2 * Y + 1;
  const unsigned YNeg = YPos ^ 1u;
  const double C = M.get(YPos, XX); // the met x - yhat <= c
  for (unsigned V : P.component(static_cast<std::size_t>(P.componentOf(X)))) {
    if (V == X)
      continue;
    for (unsigned I = 2 * V; I != 2 * V + 2; ++I) {
      double ToPos = M.get(I, YPos), ToNeg = M.get(I, YNeg);
      setEntry(I, XX, ToPos + C);
      setEntry(I, XX1, ToNeg - C);
    }
  }
  setEntry(XX1, XX, M.get(YNeg, YPos) + 2 * C);
  setEntry(XX, XX1, M.get(YPos, YNeg) - 2 * C);
}

void Octagon::closeDeferred() {
  // The record is consumed here whatever the outcome.
  std::array<unsigned, DeferredCloseCutoff> T = Deferred;
  unsigned NumT = NumDeferred;
  DeferredOp Op = DeferOp;
  NumDeferred = 0;
  DeferOp = DeferredOp::Guards;
  OctConfig &Cfg = octConfig();

  if (FullyInit && (P.isWhole() || !Cfg.EnableDecomposition)) {
    // The whole-matrix leg of closeMonolithic, with the pivot passes of
    // the recorded variables, or an assignment's rows, in place of the
    // full shortest-path closure. The sparse-or-dense decision reads
    // the same pre-closure sparsity, and the bookkeeping after it is
    // the same.
    bool SparseLeg = Cfg.EnableSparse && sparsity() >= Cfg.SparsityThreshold;
    if (Op != DeferredOp::Guards) {
      writeAssignedRows(Op, T[0], T[1]);
    } else if (!incrementalClosureDense(M, T.data(), NumT, scratch())) {
      markEmpty();
      return;
    }
    if (SparseLeg) {
      NniExplicit = M.countFinite();
      if (Cfg.EnableDecomposition)
        P = extractPartition(M);
    } else {
      NniExplicit = M.size(); // dense over-approximation (Section 4.1)
    }
    reclassify();
    return;
  }

  // The decomposed leg. The maintained partition stays (it may be
  // coarser than the exact one; only a full closure recomputes that).
  if (Op != DeferredOp::Guards) {
    // A closed element's nni is exact, so counting the writes keeps it
    // exact; only a Dense element may carry Section 4.1's
    // over-approximation (or one a forget lowered), and it is
    // recounted.
    bool Recount = Kind == DbmKind::Dense;
    writeAssignedRows(Op, T[0], T[1]);
    if (Recount)
      NniExplicit = recountNni();
    reclassify();
    return;
  }
  // Guards: pivot passes on the touched components only, then the same
  // strengthening and emptiness check as closeDecomposed. nni is
  // recounted over the components, so Section 3.5's kind decision reads
  // an exact count whatever the element's history.
  pivotTouchedComponents(T.data(), NumT);
  strengthenAndMerge();
  if (!normalizeCoveredDiagonal())
    return;
  NniExplicit = recountNni();
  reclassify();
}
