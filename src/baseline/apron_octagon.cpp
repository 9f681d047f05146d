//===- baseline/apron_octagon.cpp - Reference octagon domain -------------===//

#include "baseline/apron_octagon.h"

#include "baseline/closure_apron.h"
#include "support/timing.h"

#include <algorithm>
#include <cassert>

using namespace optoct;
using namespace optoct::baseline;

// Per-thread, mirroring setOctStatsSink: concurrent analyses each get
// their own sink.
static thread_local OctStats *ApronStats = nullptr;

void optoct::baseline::setApronStatsSink(OctStats *Sink) {
  ApronStats = Sink;
}

ApronOctagon::ApronOctagon(unsigned NumVars) : M(NumVars) { M.initTop(); }

ApronOctagon ApronOctagon::makeBottom(unsigned NumVars) {
  ApronOctagon O(NumVars);
  O.markEmpty();
  return O;
}

bool ApronOctagon::isBottom() {
  close();
  return Empty;
}

bool ApronOctagon::isTop() const {
  if (Empty)
    return false;
  unsigned D = M.dim();
  for (unsigned I = 0; I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      if (I != J && isFinite(M.at(I, J)))
        return false;
  return true;
}

void ApronOctagon::close() {
  if (Closed || Empty)
    return;
  std::uint64_t Begin = ApronStats ? readCycles() : 0;
  bool Feasible = baselineClosureMode() == BaselineClosureMode::Apron
                      ? closureApron(M)
                      : closureVectorizedFW(M);
  if (!Feasible)
    markEmpty();
  Closed = true;
  if (ApronStats)
    ApronStats->recordClosure(readCycles() - Begin, numVars(), /*KindTag=*/0);
}

void ApronOctagon::incrementalClose(const std::vector<unsigned> &Touched) {
  if (Empty)
    return;
  if (!incrementalClosureApron(M, Touched))
    markEmpty();
  Closed = true;
}

const ApronOctagon &ApronOctagon::closedOperand(const ApronOctagon &O,
                                                unsigned Slot) {
  if (O.Closed)
    return O;
  // Copy assignment reuses a slot's buffer once it is large enough.
  static thread_local ApronOctagon Scratch[2] = {ApronOctagon(0),
                                                 ApronOctagon(0)};
  assert(Slot < 2 && "two operand slots");
  ApronOctagon &S = Scratch[Slot];
  S = O;
  S.close();
  return S;
}

ApronOctagon ApronOctagon::meet(const ApronOctagon &A, const ApronOctagon &B) {
  assert(A.numVars() == B.numVars() && "dimension mismatch");
  if (A.Empty || B.Empty)
    return makeBottom(A.numVars());
  ApronOctagon R(A.numVars());
  for (std::size_t I = 0, E = R.M.size(); I != E; ++I)
    R.M.data()[I] = std::min(A.M.data()[I], B.M.data()[I]);
  R.Closed = false;
  return R;
}

ApronOctagon ApronOctagon::join(const ApronOctagon &AIn,
                                const ApronOctagon &BIn) {
  assert(AIn.numVars() == BIn.numVars() && "dimension mismatch");
  const ApronOctagon &A = closedOperand(AIn, 0);
  const ApronOctagon &B = closedOperand(BIn, 1);
  if (A.Empty)
    return B;
  if (B.Empty)
    return A;
  ApronOctagon R(A.numVars());
  for (std::size_t I = 0, E = R.M.size(); I != E; ++I)
    R.M.data()[I] = std::max(A.M.data()[I], B.M.data()[I]);
  R.Closed = true; // max of strongly closed matrices is strongly closed
  return R;
}

ApronOctagon ApronOctagon::widen(const ApronOctagon &Old,
                                 const ApronOctagon &New) {
  static const std::vector<double> NoThresholds;
  return widenWithThresholds(Old, New, NoThresholds);
}

ApronOctagon
ApronOctagon::widenWithThresholds(const ApronOctagon &Old,
                                  const ApronOctagon &NewIn,
                                  const std::vector<double> &Thresholds) {
  assert(Old.numVars() == NewIn.numVars() && "dimension mismatch");
  const ApronOctagon &New = closedOperand(NewIn, 1);
  if (Old.Empty)
    return New;
  if (New.Empty)
    return Old;
  // Unary DBM entries (2x the variable bound) land on 2t, binary on t.
  std::vector<double> Doubled;
  Doubled.reserve(Thresholds.size());
  for (double T : Thresholds)
    Doubled.push_back(2 * T);
  ApronOctagon R(Old.numVars());
  unsigned D = R.M.dim();
  for (unsigned I = 0; I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J) {
      double VO = Old.M.at(I, J);
      double VN = New.M.at(I, J);
      if (VN <= VO) {
        R.M.at(I, J) = VO;
        continue;
      }
      const std::vector<double> &Set = I / 2 == J / 2 ? Doubled : Thresholds;
      auto It = std::lower_bound(Set.begin(), Set.end(), VN);
      R.M.at(I, J) = It == Set.end() ? Infinity : *It;
    }
  R.Closed = false;
  return R;
}

ApronOctagon ApronOctagon::narrow(const ApronOctagon &OldIn,
                                  const ApronOctagon &New) {
  assert(OldIn.numVars() == New.numVars() && "dimension mismatch");
  const ApronOctagon &Old = closedOperand(OldIn, 0);
  if (Old.Empty || New.Empty)
    return makeBottom(Old.numVars());
  ApronOctagon R(Old.numVars());
  for (std::size_t I = 0, E = R.M.size(); I != E; ++I) {
    double VO = Old.M.data()[I];
    R.M.data()[I] = isFinite(VO) ? VO : New.M.data()[I];
  }
  R.Closed = false;
  return R;
}

bool ApronOctagon::leq(const ApronOctagon &Other) const {
  assert(numVars() == Other.numVars() && "dimension mismatch");
  const ApronOctagon &A = closedOperand(*this, 0);
  if (A.Empty)
    return true;
  if (Other.Empty)
    return false;
  for (std::size_t I = 0, E = A.M.size(); I != E; ++I)
    if (A.M.data()[I] > Other.M.data()[I])
      return false;
  return true;
}

bool ApronOctagon::equals(const ApronOctagon &OtherIn) const {
  assert(numVars() == OtherIn.numVars() && "dimension mismatch");
  const ApronOctagon &A = closedOperand(*this, 0);
  const ApronOctagon &B = closedOperand(OtherIn, 1);
  if (A.Empty || B.Empty)
    return A.Empty == B.Empty;
  for (std::size_t I = 0, E = A.M.size(); I != E; ++I)
    if (A.M.data()[I] != B.M.data()[I])
      return false;
  return true;
}

void ApronOctagon::addConstraint(const OctCons &C) { addConstraints({C}); }

void ApronOctagon::addConstraints(const std::vector<OctCons> &Cs) {
  if (Empty || Cs.empty())
    return;
  bool Changed = false;
  for (const OctCons &C : Cs) {
    OctCons::Entry E = C.toEntry();
    double Old = M.get(E.Row, E.Col);
    if (E.Bound < Old) {
      M.set(E.Row, E.Col, E.Bound);
      Changed = true;
    }
  }
  if (!Changed)
    return;
  // Left unclosed, as in APRON: the next operator triggers full closure.
  Closed = false;
}

void ApronOctagon::forgetVar(unsigned X) {
  unsigned D = M.dim();
  for (unsigned I = 0; I != D; ++I) {
    if (I == 2 * X || I == 2 * X + 1)
      continue;
    M.set(I, 2 * X, Infinity);
    M.set(I, 2 * X + 1, Infinity);
  }
  M.at(2 * X, 2 * X + 1) = Infinity;
  M.at(2 * X + 1, 2 * X) = Infinity;
}

void ApronOctagon::shiftVar(unsigned X, double C) {
  if (Empty)
    return;
  unsigned D = M.dim();
  for (unsigned I = 0; I != D; ++I) {
    if (I == 2 * X || I == 2 * X + 1)
      continue;
    M.set(I, 2 * X, M.get(I, 2 * X) + C);
    M.set(I, 2 * X + 1, M.get(I, 2 * X + 1) - C);
  }
  M.at(2 * X + 1, 2 * X) += 2 * C;
  M.at(2 * X, 2 * X + 1) -= 2 * C;
}

void ApronOctagon::negateShiftVar(unsigned X, double C) {
  if (Empty)
    return;
  unsigned D = M.dim();
  for (unsigned I = 0; I != D; ++I) {
    if (I == 2 * X || I == 2 * X + 1)
      continue;
    double Pos = M.get(I, 2 * X);
    double Neg = M.get(I, 2 * X + 1);
    M.set(I, 2 * X, Neg + C);
    M.set(I, 2 * X + 1, Pos - C);
  }
  double Up = M.at(2 * X + 1, 2 * X);
  double Lo = M.at(2 * X, 2 * X + 1);
  M.at(2 * X + 1, 2 * X) = Lo + 2 * C;
  M.at(2 * X, 2 * X + 1) = Up - 2 * C;
}

void ApronOctagon::assign(unsigned X, const LinExpr &E) {
  if (Empty)
    return;
  if (const auto *Term = E.octagonalTerm()) {
    int A = Term->first;
    unsigned Y = Term->second;
    if (Y == X) {
      if (A == 1)
        shiftVar(X, E.Const);
      else
        negateShiftVar(X, E.Const);
      return;
    }
    close();
    if (Empty)
      return;
    forgetVar(X);
    if (A == 1) {
      M.set(2 * Y, 2 * X, E.Const);
      M.set(2 * X, 2 * Y, -E.Const);
    } else {
      M.set(2 * Y + 1, 2 * X, E.Const);
      M.set(2 * Y, 2 * X + 1, -E.Const);
    }
    Closed = false;
    // The new arcs live in the bands of both x and y.
    incrementalClose({X, Y});
    return;
  }
  if (E.Terms.empty()) {
    close();
    if (Empty)
      return;
    forgetVar(X);
    M.at(2 * X + 1, 2 * X) = 2 * E.Const;
    M.at(2 * X, 2 * X + 1) = -2 * E.Const;
    Closed = false;
    incrementalClose({X});
    return;
  }
  Interval Iv = evalInterval(E);
  close();
  if (Empty)
    return;
  forgetVar(X);
  if (Iv.isBottom()) {
    markEmpty();
    return;
  }
  if (isFinite(Iv.Hi))
    M.at(2 * X + 1, 2 * X) = 2 * Iv.Hi;
  if (Iv.Lo != -Infinity)
    M.at(2 * X, 2 * X + 1) = -2 * Iv.Lo;
  Closed = false;
  incrementalClose({X});
}

void ApronOctagon::havoc(unsigned X) {
  if (Empty)
    return;
  close();
  if (Empty)
    return;
  forgetVar(X);
}

Interval ApronOctagon::bounds(unsigned V) {
  close();
  if (Empty)
    return {Infinity, -Infinity};
  Interval Iv;
  double Up = M.at(2 * V + 1, 2 * V);
  double Lo = M.at(2 * V, 2 * V + 1);
  if (isFinite(Up))
    Iv.Hi = Up / 2;
  if (isFinite(Lo))
    Iv.Lo = -Lo / 2;
  return Iv;
}

Interval ApronOctagon::evalInterval(const LinExpr &E) {
  close();
  if (Empty)
    return {Infinity, -Infinity};
  double Lo = E.Const, Hi = E.Const;
  for (const auto &[Coef, Var] : E.Terms) {
    if (Coef == 0)
      continue;
    Interval B = bounds(Var);
    double C = static_cast<double>(Coef);
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

std::vector<OctCons> ApronOctagon::constraints() {
  close();
  std::vector<OctCons> Out;
  if (Empty)
    return Out;
  unsigned N = numVars();
  for (unsigned VA = 0; VA != N; ++VA)
    for (unsigned VB = 0; VB <= VA; ++VB)
      for (unsigned R = 0; R != 2; ++R)
        for (unsigned S = 0; S != 2; ++S) {
          unsigned I = 2 * VA + R, J = 2 * VB + S;
          if (I == J)
            continue;
          double Bound = M.at(I, J);
          if (!isFinite(Bound))
            continue;
          if (VA == VB) {
            if (R == 1)
              Out.push_back(OctCons::upper(VA, Bound / 2));
            else
              Out.push_back(OctCons::lower(VA, Bound / 2));
            continue;
          }
          int CoefB = S == 0 ? +1 : -1;
          int CoefA = R == 0 ? -1 : +1;
          Out.push_back({CoefB, VB, CoefA, VA, Bound});
        }
  return Out;
}

void ApronOctagon::addVars(unsigned Count) {
  if (Count == 0)
    return;
  unsigned OldN = numVars(), NewN = OldN + Count;
  HalfDbm NewM(NewN);
  NewM.initTop();
  for (unsigned I = 0; I != 2 * OldN; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      NewM.at(I, J) = M.at(I, J);
  M = std::move(NewM);
}

void ApronOctagon::removeTrailingVars(unsigned Count) {
  if (Count == 0)
    return;
  unsigned NewN = numVars() - Count;
  if (!Empty)
    close();
  HalfDbm NewM(NewN);
  if (Empty) {
    NewM.initTop();
    M = std::move(NewM);
    return;
  }
  for (unsigned I = 0; I != 2 * NewN; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      NewM.at(I, J) = M.at(I, J);
  M = std::move(NewM);
}

std::string ApronOctagon::str(const std::vector<std::string> *Names) {
  std::vector<OctCons> Cs = constraints();
  return Empty ? "bottom" : renderConstraints(Cs, Names);
}
