//===- oct/octagon_transfer.cpp - Transfer functions ---------------------===//
///
/// \file
/// Constraint meets, assignments, havoc, bound queries, constraint
/// extraction, and dimension management for the OptOctagon domain.
///
//===----------------------------------------------------------------------===//

#include "oct/config.h"
#include "oct/octagon.h"
#include "support/faultinject.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace optoct;

//===----------------------------------------------------------------------===//
// Constraints
//===----------------------------------------------------------------------===//

void Octagon::addConstraint(const OctCons &C) { addConstraints({C}); }

void Octagon::addConstraints(const std::vector<OctCons> &Cs) {
  if (Empty || Cs.empty())
    return;
  bool Changed = false;
  // A closed element, or one closed but for earlier guards, records the
  // variables of every entry this meet lowers, so close() can restore
  // closure incrementally; a record that fills up is dropped.
  bool Track = Closed || NumDeferred != 0;

  for (const OctCons &C : Cs) {
    assert(C.I < numVars() && (C.isUnary() || C.J < numVars()) &&
           "constraint variable out of range");
    OctCons::Entry E = C.toEntry();
    double Bound = E.Bound;
    support::faultPoint("oct.constraint", &Bound);
    // Boundary sanitization: bounds enter the DBM only here, so the
    // closure kernels never see NaN or -inf. A NaN bound carries no
    // information — dropping it keeps the octagon (soundly) weaker. A
    // -inf bound is unsatisfiable.
    if (std::isnan(Bound))
      continue;
    if (Bound == -Infinity) {
      markEmpty();
      return;
    }
    relateInit(C.I, C.isUnary() ? C.I : C.J);
    double Old = M.get(E.Row, E.Col);
    if (Bound < Old) {
      setEntry(E.Row, E.Col, Bound);
      Changed = true;
      Track = Track && recordDeferred(C.I) &&
              (C.isUnary() || recordDeferred(C.J));
    }
  }
  if (!Changed)
    return;
  // Like APRON's meet-with-constraints, the result is left unclosed, so
  // every operator sees the same element as before; the next closure is
  // incremental over the record (Section 5.6), or full without one.
  if (!Track)
    NumDeferred = 0;
  Closed = false;
  // A whole partition keeps a Sparse or Dense kind; a Top input leaves
  // with a partition, so it is Top no longer.
  if (P.empty())
    Kind = DbmKind::Top;
  else if (Kind == DbmKind::Top || !P.isWhole())
    Kind = DbmKind::Decomposed;
}

//===----------------------------------------------------------------------===//
// Assignment
//===----------------------------------------------------------------------===//

void Octagon::shiftVar(unsigned X, double C) {
  if (Empty || !P.contains(X))
    return; // an unconstrained x stays unconstrained under x := x + c
  // Entry (i, 2x) gains c, (i, 2x+1) loses c; the rows of x are
  // adjusted implicitly through coherence. Finiteness is unaffected.
  for (unsigned V : P.component(static_cast<std::size_t>(P.componentOf(X)))) {
    if (V == X)
      continue;
    for (unsigned S = 0; S != 2; ++S) {
      unsigned I = 2 * V + S;
      M.set(I, 2 * X, M.get(I, 2 * X) + C);
      M.set(I, 2 * X + 1, M.get(I, 2 * X + 1) - C);
    }
  }
  M.at(2 * X + 1, 2 * X) += 2 * C; //  2x <= b   ->  2x <= b + 2c
  M.at(2 * X, 2 * X + 1) -= 2 * C; // -2x <= b   -> -2x <= b - 2c
}

void Octagon::negateShiftVar(unsigned X, double C) {
  if (Empty || !P.contains(X))
    return; // an unconstrained x stays unconstrained under x := -x + c
  for (unsigned V : P.component(static_cast<std::size_t>(P.componentOf(X)))) {
    if (V == X)
      continue;
    for (unsigned S = 0; S != 2; ++S) {
      unsigned I = 2 * V + S;
      double Pos = M.get(I, 2 * X);     // old bound on  x - vhat_i
      double Neg = M.get(I, 2 * X + 1); // old bound on -x - vhat_i
      M.set(I, 2 * X, Neg + C);
      M.set(I, 2 * X + 1, Pos - C);
    }
  }
  double Up = M.at(2 * X + 1, 2 * X); // old  2x <= Up
  double Lo = M.at(2 * X, 2 * X + 1); // old -2x <= Lo
  M.at(2 * X + 1, 2 * X) = Lo + 2 * C;
  M.at(2 * X, 2 * X + 1) = Up - 2 * C;
}

void Octagon::forgetVar(unsigned X) {
  int C = P.componentOf(X);
  if (C < 0)
    return;
  for (unsigned V : P.component(static_cast<std::size_t>(C))) {
    if (V == X)
      continue;
    for (unsigned R = 0; R != 2; ++R)
      for (unsigned S = 0; S != 2; ++S)
        setEntry(2 * V + R, 2 * X + S, Infinity);
  }
  setEntry(2 * X, 2 * X + 1, Infinity);
  setEntry(2 * X + 1, 2 * X, Infinity);
  if (octConfig().EnableDecomposition) {
    // X's diagonal zeros become implicit again, unless the buffer is
    // materialized and still counts them.
    if (!FullyInit)
      NniExplicit -= 2;
    P.removeVar(X);
  }
}

void Octagon::assign(unsigned X, const LinExpr &E) {
  assert(X < numVars() && "assignment target out of range");
  if (Empty)
    return;

  // A non-finite constant (C-API input, overflowed fold) has no
  // octagonal encoding that avoids NaN arithmetic in the shift paths;
  // forgetting the target is the sound approximation.
  if (!std::isfinite(E.Const)) {
    havoc(X);
    return;
  }

  // Exact octagonal forms first (Section 2: assignments are meets of
  // the two induced inequalities).
  if (const auto *Term = E.octagonalTerm()) {
    int A = Term->first;
    unsigned Y = Term->second;
    if (Y == X) {
      // x := +-x + c is an invertible shift; closure is preserved.
      if (A == 1) {
        shiftVar(X, E.Const);
        return;
      }
      negateShiftVar(X, E.Const);
      return;
    }
    close();
    if (Empty)
      return;
    forgetVar(X);
    relateInit(X, Y);
    if (A == 1) {
      // x - y <= c and y - x <= -c.
      setEntry(2 * Y, 2 * X, E.Const);
      setEntry(2 * X, 2 * Y, -E.Const);
    } else {
      // x + y <= c and -x - y <= -c.
      setEntry(2 * Y + 1, 2 * X, E.Const);
      setEntry(2 * Y, 2 * X + 1, -E.Const);
    }
    closeAssignment(A == 1 ? DeferredOp::Copy : DeferredOp::NegCopy, X, Y);
    return;
  }

  if (E.Terms.empty()) {
    // x := c.
    close();
    if (Empty)
      return;
    forgetVar(X);
    relateInit(X, X);
    setEntry(2 * X + 1, 2 * X, 2 * E.Const);
    setEntry(2 * X, 2 * X + 1, -2 * E.Const);
    closeAssignment(DeferredOp::Bounded, X, X);
    return;
  }

  // General linear expression: interval fallback (as in APRON).
  Interval Iv = evalInterval(E);
  close();
  if (Empty)
    return;
  forgetVar(X);
  if (Iv.isBottom()) {
    markEmpty();
    return;
  }
  if (!isFinite(Iv.Hi) && !isFinite(-Iv.Lo))
    return; // unconstrained result; X stays forgotten
  relateInit(X, X);
  if (isFinite(Iv.Hi))
    setEntry(2 * X + 1, 2 * X, 2 * Iv.Hi);
  if (Iv.Lo != -Infinity)
    setEntry(2 * X, 2 * X + 1, -2 * Iv.Lo);
  closeAssignment(DeferredOp::Bounded, X, X);
}

void Octagon::closeAssignment(DeferredOp Op, unsigned X, unsigned Y) {
  // The element was closed, so no guard record is pending.
  Closed = false;
  DeferOp = Op;
  Deferred[0] = X;
  Deferred[1] = Y;
  NumDeferred = 2;
  close();
}

void Octagon::havoc(unsigned X) {
  assert(X < numVars() && "havoc target out of range");
  if (Empty)
    return;
  close();
  if (Empty)
    return;
  forgetVar(X);
  // Projection of a strongly closed octagon stays strongly closed.
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

Interval Octagon::bounds(unsigned V) {
  assert(V < numVars() && "variable out of range");
  close();
  if (Empty)
    return {Infinity, -Infinity};
  Interval Iv;
  double Up = entry(2 * V + 1, 2 * V); //  2v <= Up
  double Lo = entry(2 * V, 2 * V + 1); // -2v <= Lo
  if (isFinite(Up))
    Iv.Hi = Up / 2;
  if (isFinite(Lo))
    Iv.Lo = -Lo / 2;
  return Iv;
}

Interval Octagon::evalInterval(const LinExpr &E) {
  close();
  if (Empty)
    return {Infinity, -Infinity};
  double Lo = E.Const, Hi = E.Const;
  for (const auto &[Coef, Var] : E.Terms) {
    if (Coef == 0)
      continue;
    Interval B = bounds(Var);
    double C = static_cast<double>(Coef);
    // Coef != 0, so C * inf is a correctly-signed infinity (no NaN), and
    // the running Lo/Hi only ever accumulate same-signed infinities.
    if (Coef > 0) {
      Lo += C * B.Lo;
      Hi += C * B.Hi;
    } else {
      Lo += C * B.Hi;
      Hi += C * B.Lo;
    }
  }
  return {Lo, Hi};
}

std::vector<OctCons> Octagon::constraints() {
  close();
  std::vector<OctCons> Out;
  if (Empty)
    return Out;
  // Entries outside VA's block are trivial, so walking the block's
  // members up to VA (blocks are sorted) lists in the baseline's order.
  for (unsigned VA = 0, N = numVars(); VA != N; ++VA) {
    int CA = P.componentOf(VA);
    if (CA < 0)
      continue;
    for (unsigned VB : P.component(static_cast<std::size_t>(CA))) {
      if (VB > VA)
        break;
      for (unsigned R = 0; R != 2; ++R)
        for (unsigned S = 0; S != 2; ++S) {
          unsigned I = 2 * VA + R, J = 2 * VB + S;
          if (I == J)
            continue;
          double Bound = M.at(I, J);
          if (!isFinite(Bound))
            continue;
          // Entry (i,j) encodes vhat_j - vhat_i <= bound.
          if (VA == VB) {
            // Unary: (2v+1,2v) is 2v <= b; (2v,2v+1) is -2v <= b.
            if (R == 1)
              Out.push_back(OctCons::upper(VA, Bound / 2));
            else
              Out.push_back(OctCons::lower(VA, Bound / 2));
            continue;
          }
          int CoefB = S == 0 ? +1 : -1; // vhat_j contributes +-vB
          int CoefA = R == 0 ? -1 : +1; // -vhat_i contributes -+vA
          Out.push_back({CoefB, VB, CoefA, VA, Bound});
        }
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Dimension management
//===----------------------------------------------------------------------===//

void Octagon::addVars(unsigned Count) {
  if (Count == 0)
    return;
  unsigned OldN = numVars(), NewN = OldN + Count;
  HalfDbm NewM(NewN);
  // The packed layout is a prefix-extension: entry indices of existing
  // rows do not change when variables are appended.
  std::memcpy(NewM.data(), M.data(), HalfDbm::matSize(OldN) * sizeof(double));
  if (FullyInit) {
    for (unsigned I = 2 * OldN; I != 2 * NewN; ++I) {
      double *Row = NewM.row(I);
      std::size_t Len = (I | 1u) + 1;
      for (std::size_t J = 0; J != Len; ++J)
        Row[J] = Infinity;
      NewM.at(I, I) = 0.0;
    }
    NniExplicit += 2 * Count;
  }
  M = std::move(NewM);
  P.resizeVars(NewN);
  // The Dense kind and the decomposition-disabled mode keep the whole
  // partition as an invariant; elsewhere fresh variables stay uncovered.
  if (Kind == DbmKind::Dense || !octConfig().EnableDecomposition)
    P = Partition::whole(NewN);
  // Fresh variables are unconstrained: closure and emptiness are
  // unaffected.
}

void Octagon::removeTrailingVars(unsigned Count) {
  if (Count == 0)
    return;
  assert(Count <= numVars() && "removing more variables than exist");
  unsigned OldN = numVars(), NewN = OldN - Count;
  if (!Empty)
    close();
  if (Empty) {
    M = HalfDbm(NewN);
    P = Partition(NewN);
    if (!octConfig().EnableDecomposition)
      P = Partition::whole(NewN);
    return;
  }
  for (unsigned V = NewN; V != OldN; ++V)
    P.removeVar(V);
  HalfDbm NewM(NewN);
  // NewN == 0 leaves both buffers empty; memcpy's pointers are declared
  // nonnull even for size 0, so the degenerate copy must be skipped.
  if (NewN != 0)
    std::memcpy(NewM.data(), M.data(),
                HalfDbm::matSize(NewN) * sizeof(double));
  M = std::move(NewM);
  P.resizeVars(NewN);
  if (!octConfig().EnableDecomposition)
    P = Partition::whole(NewN);

  NniExplicit = recountNni();
  reclassify();
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

std::string Octagon::str(const std::vector<std::string> *Names) {
  std::vector<OctCons> Cs = constraints();
  return Empty ? "bottom" : renderConstraints(Cs, Names);
}
