//===- zone/zone_domain.cpp - Zone (DBM) abstract domain ------------------===//

#include "zone/zone_domain.h"

#include "oct/value.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace optoct;
using namespace optoct::zone;

ZoneDomain::ZoneDomain(unsigned NumVars)
    : N(NumVars),
      M((static_cast<std::size_t>(NumVars) + 1) * (NumVars + 1)) {
  M.fill(Infinity);
  for (unsigned I = 0; I != dim(); ++I)
    at(I, I) = 0.0;
}

ZoneDomain ZoneDomain::makeBottom(unsigned NumVars) {
  ZoneDomain Z(NumVars);
  Z.markEmpty();
  return Z;
}

bool ZoneDomain::isBottom() {
  close();
  return Empty;
}

bool ZoneDomain::isTop() const {
  if (Empty)
    return false;
  for (unsigned I = 0; I != dim(); ++I)
    for (unsigned J = 0; J != dim(); ++J)
      if (I != J && isFinite(at(I, J)))
        return false;
  return true;
}

void ZoneDomain::close() {
  if (Closed || Empty)
    return;
  unsigned D = dim();
  for (unsigned K = 0; K != D; ++K)
    for (unsigned I = 0; I != D; ++I) {
      double Ik = at(I, K);
      if (!isFinite(Ik))
        continue;
      for (unsigned J = 0; J != D; ++J) {
        double Path = Ik + at(K, J);
        if (Path < at(I, J))
          at(I, J) = Path;
      }
    }
  for (unsigned I = 0; I != D; ++I)
    if (at(I, I) < 0.0) {
      markEmpty();
      return;
    }
  Closed = true;
}

const ZoneDomain &ZoneDomain::closedOperand(const ZoneDomain &Z,
                                            unsigned Slot) {
  if (Z.Closed)
    return Z;
  static thread_local ZoneDomain Scratch[2] = {ZoneDomain(0), ZoneDomain(0)};
  assert(Slot < 2 && "two operand slots");
  ZoneDomain &S = Scratch[Slot];
  S = Z;
  S.close();
  return S;
}

ZoneDomain ZoneDomain::meet(const ZoneDomain &A, const ZoneDomain &B) {
  assert(A.N == B.N && "dimension mismatch");
  if (A.Empty || B.Empty)
    return makeBottom(A.N);
  ZoneDomain R(A.N);
  for (std::size_t I = 0, E = R.M.size(); I != E; ++I)
    R.M[I] = std::min(A.M[I], B.M[I]);
  R.Closed = false;
  return R;
}

ZoneDomain ZoneDomain::join(const ZoneDomain &AIn, const ZoneDomain &BIn) {
  assert(AIn.N == BIn.N && "dimension mismatch");
  const ZoneDomain &A = closedOperand(AIn, 0);
  const ZoneDomain &B = closedOperand(BIn, 1);
  if (A.Empty)
    return B;
  if (B.Empty)
    return A;
  ZoneDomain R(A.N);
  for (std::size_t I = 0, E = R.M.size(); I != E; ++I)
    R.M[I] = std::max(A.M[I], B.M[I]);
  R.Closed = true; // max of closed DBMs is closed
  return R;
}

ZoneDomain ZoneDomain::widen(const ZoneDomain &Old, const ZoneDomain &New) {
  static const std::vector<double> NoThresholds;
  return widenWithThresholds(Old, New, NoThresholds);
}

ZoneDomain
ZoneDomain::widenWithThresholds(const ZoneDomain &Old, const ZoneDomain &NewIn,
                                const std::vector<double> &Thresholds) {
  assert(Old.N == NewIn.N && "dimension mismatch");
  const ZoneDomain &New = closedOperand(NewIn, 1);
  if (Old.Empty)
    return New;
  if (New.Empty)
    return Old;
  ZoneDomain R(Old.N);
  for (std::size_t I = 0, E = R.M.size(); I != E; ++I) {
    double VO = Old.M[I];
    double VN = New.M[I];
    if (VN <= VO) {
      R.M[I] = VO;
      continue;
    }
    auto It = std::lower_bound(Thresholds.begin(), Thresholds.end(), VN);
    R.M[I] = It == Thresholds.end() ? Infinity : *It;
  }
  R.Closed = false;
  return R;
}

ZoneDomain ZoneDomain::narrow(const ZoneDomain &OldIn, const ZoneDomain &New) {
  assert(OldIn.N == New.N && "dimension mismatch");
  const ZoneDomain &Old = closedOperand(OldIn, 0);
  if (Old.Empty || New.Empty)
    return makeBottom(Old.N);
  ZoneDomain R(Old.N);
  for (std::size_t I = 0, E = R.M.size(); I != E; ++I)
    R.M[I] = isFinite(Old.M[I]) ? Old.M[I] : New.M[I];
  R.Closed = false;
  return R;
}

bool ZoneDomain::leq(const ZoneDomain &Other) const {
  assert(N == Other.N && "dimension mismatch");
  const ZoneDomain &A = closedOperand(*this, 0);
  if (A.Empty)
    return true;
  if (Other.Empty)
    return false;
  for (std::size_t I = 0, E = A.M.size(); I != E; ++I)
    if (A.M[I] > Other.M[I])
      return false;
  return true;
}

bool ZoneDomain::equals(const ZoneDomain &OtherIn) const {
  assert(N == OtherIn.N && "dimension mismatch");
  const ZoneDomain &A = closedOperand(*this, 0);
  const ZoneDomain &B = closedOperand(OtherIn, 1);
  if (A.Empty || B.Empty)
    return A.Empty == B.Empty;
  for (std::size_t I = 0, E = A.M.size(); I != E; ++I)
    if (A.M[I] != B.M[I])
      return false;
  return true;
}

void ZoneDomain::addConstraint(const OctCons &C) { addConstraints({C}); }

void ZoneDomain::addConstraints(const std::vector<OctCons> &Cs) {
  if (Empty)
    return;
  for (const OctCons &C : Cs) {
    if (C.isUnary()) {
      // v <= c is v - zero <= c (entry (0, v+1)); -v <= c is (v+1, 0).
      if (C.CoefI > 0)
        tighten(0, C.I + 1, C.Bound);
      else
        tighten(C.I + 1, 0, C.Bound);
      continue;
    }
    if (C.CoefI == 1 && C.CoefJ == -1) { // vi - vj <= c
      tighten(C.J + 1, C.I + 1, C.Bound);
      continue;
    }
    if (C.CoefI == -1 && C.CoefJ == 1) { // vj - vi <= c
      tighten(C.I + 1, C.J + 1, C.Bound);
      continue;
    }
    // Sums are not representable: absorb each side through the
    // partner's bound (as the interval domain does). Requires closure
    // for tight partner bounds; a plain read keeps it sound.
    close();
    if (Empty)
      return;
    // CoefI*vi + CoefJ*vj <= c, with CoefI == CoefJ == +-1.
    auto lower = [&](unsigned V) { return -at(V + 1, 0); }; // -(-v<=c)
    auto upper = [&](unsigned V) { return at(0, V + 1); };
    if (C.CoefI == 1) { // vi + vj <= c
      double LoJ = lower(C.J);
      if (LoJ != -Infinity)
        tighten(0, C.I + 1, C.Bound - LoJ);
      double LoI = lower(C.I);
      if (LoI != -Infinity)
        tighten(0, C.J + 1, C.Bound - LoI);
    } else { // -vi - vj <= c, i.e. vi + vj >= -c
      double HiJ = upper(C.J);
      if (HiJ != Infinity)
        tighten(C.I + 1, 0, C.Bound + HiJ);
      double HiI = upper(C.I);
      if (HiI != Infinity)
        tighten(C.J + 1, 0, C.Bound + HiI);
    }
  }
}

Interval ZoneDomain::evalInterval(const LinExpr &E) {
  close();
  if (Empty)
    return {Infinity, -Infinity};
  double Lo = E.Const, Hi = E.Const;
  for (const auto &[Coef, Var] : E.Terms) {
    if (Coef == 0)
      continue;
    double VLo = at(Var + 1, 0) == Infinity ? -Infinity : -at(Var + 1, 0);
    double VHi = at(0, Var + 1);
    double C = static_cast<double>(Coef);
    if (Coef > 0) {
      Lo += C * VLo;
      Hi += C * VHi;
    } else {
      Lo += C * VHi;
      Hi += C * VLo;
    }
  }
  return {Lo, Hi};
}

void ZoneDomain::forgetRow(unsigned X) {
  unsigned V = X + 1;
  for (unsigned I = 0; I != dim(); ++I) {
    if (I == V)
      continue;
    at(I, V) = Infinity;
    at(V, I) = Infinity;
  }
}

void ZoneDomain::assign(unsigned X, const LinExpr &E) {
  if (Empty)
    return;
  if (const auto *Term = E.octagonalTerm()) {
    int A = Term->first;
    unsigned Y = Term->second;
    if (A == 1 && Y == X) {
      // x := x + c: shift x's row/column.
      unsigned V = X + 1;
      for (unsigned I = 0; I != dim(); ++I) {
        if (I == V)
          continue;
        at(I, V) += E.Const; // bound on x - var(I)
        at(V, I) -= E.Const; // bound on var(I) - x
      }
      return;
    }
    if (A == 1) {
      // x := y + c: difference-exact.
      close();
      if (Empty)
        return;
      forgetRow(X);
      tighten(Y + 1, X + 1, E.Const);  // x - y <= c
      tighten(X + 1, Y + 1, -E.Const); // y - x <= -c
      close();
      return;
    }
    // x := -y + c is not a difference; fall through to intervals.
  }
  Interval Value = evalInterval(E); // closes
  if (Empty)
    return;
  if (Value.isBottom()) {
    markEmpty();
    return;
  }
  forgetRow(X);
  if (isFinite(Value.Hi))
    tighten(0, X + 1, Value.Hi);
  if (Value.Lo != -Infinity)
    tighten(X + 1, 0, -Value.Lo);
  close();
}

void ZoneDomain::havoc(unsigned X) {
  if (Empty)
    return;
  close();
  if (Empty)
    return;
  forgetRow(X);
}

Interval ZoneDomain::bounds(unsigned V) {
  close();
  if (Empty)
    return {Infinity, -Infinity};
  Interval Iv;
  if (isFinite(at(0, V + 1)))
    Iv.Hi = at(0, V + 1);
  if (isFinite(at(V + 1, 0)))
    Iv.Lo = -at(V + 1, 0);
  return Iv;
}

double ZoneDomain::boundOf(const OctCons &C) {
  close();
  if (Empty)
    return -Infinity;
  if (C.isUnary()) {
    Interval B = bounds(C.I);
    double Up = C.CoefI > 0 ? B.Hi : (B.Lo == -Infinity ? Infinity : -B.Lo);
    return 2.0 * Up;
  }
  if (C.CoefI == 1 && C.CoefJ == -1)
    return at(C.J + 1, C.I + 1);
  if (C.CoefI == -1 && C.CoefJ == 1)
    return at(C.I + 1, C.J + 1);
  // Sums: interval precision.
  auto upper = [&](int Coef, unsigned V) {
    Interval B = bounds(V);
    return Coef > 0 ? B.Hi : (B.Lo == -Infinity ? Infinity : -B.Lo);
  };
  return upper(C.CoefI, C.I) + upper(C.CoefJ, C.J);
}

void ZoneDomain::addVars(unsigned Count) {
  if (Count == 0)
    return;
  ZoneDomain Bigger(N + Count);
  for (unsigned I = 0; I != dim(); ++I)
    for (unsigned J = 0; J != dim(); ++J)
      Bigger.at(I, J) = at(I, J);
  Bigger.Closed = Closed;
  Bigger.Empty = Empty;
  *this = std::move(Bigger);
}

void ZoneDomain::removeTrailingVars(unsigned Count) {
  assert(Count <= N && "removing more variables than exist");
  if (Count == 0)
    return;
  if (!Empty)
    close();
  ZoneDomain Smaller(N - Count);
  if (Empty) {
    Smaller.markEmpty();
  } else {
    for (unsigned I = 0; I != Smaller.dim(); ++I)
      for (unsigned J = 0; J != Smaller.dim(); ++J)
        Smaller.at(I, J) = at(I, J);
    Smaller.Closed = true;
  }
  *this = std::move(Smaller);
}

std::string ZoneDomain::str(const std::vector<std::string> *Names) {
  if (Empty)
    return "bottom";
  close();
  if (Empty)
    return "bottom";
  auto Name = [&](unsigned V) {
    if (Names && V < Names->size())
      return (*Names)[V];
    char Buf[16];
    std::snprintf(Buf, sizeof(Buf), "v%u", V);
    return std::string(Buf);
  };
  std::string Out;
  char Buf[96];
  for (unsigned I = 0; I != dim(); ++I)
    for (unsigned J = 0; J != dim(); ++J) {
      if (I == J || !isFinite(at(I, J)))
        continue;
      if (!Out.empty())
        Out += " && ";
      // + 0.0 canonicalizes negative zero so printed bounds never
      // depend on which sign of zero survived a min tie.
      if (I == 0)
        std::snprintf(Buf, sizeof(Buf), "%s <= %g", Name(J - 1).c_str(),
                      at(I, J) + 0.0);
      else if (J == 0)
        std::snprintf(Buf, sizeof(Buf), "%s >= %g", Name(I - 1).c_str(),
                      -at(I, J) + 0.0);
      else
        std::snprintf(Buf, sizeof(Buf), "%s - %s <= %g", Name(J - 1).c_str(),
                      Name(I - 1).c_str(), at(I, J) + 0.0);
      Out += Buf;
    }
  return Out.empty() ? "top" : Out;
}
