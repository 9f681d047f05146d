//===- itv/interval_domain.cpp - Interval abstract domain -----------------===//

#include "itv/interval_domain.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace optoct;
using namespace optoct::itv;

bool IntervalDomain::isTop() const {
  if (Empty)
    return false;
  for (const Interval &Iv : Vars)
    if (!Iv.isTop())
      return false;
  return true;
}

void IntervalDomain::refine(unsigned V, double Lo, double Hi) {
  assert(V < Vars.size() && "variable out of range");
  Interval &Iv = Vars[V];
  if (Lo > Iv.Lo)
    Iv.Lo = Lo;
  if (Hi < Iv.Hi)
    Iv.Hi = Hi;
  if (Iv.isBottom())
    markEmpty();
}

IntervalDomain IntervalDomain::meet(const IntervalDomain &A,
                                    const IntervalDomain &B) {
  assert(A.numVars() == B.numVars() && "dimension mismatch");
  if (A.Empty || B.Empty)
    return makeBottom(A.numVars());
  IntervalDomain R = A;
  for (unsigned V = 0; V != R.numVars(); ++V)
    R.refine(V, B.Vars[V].Lo, B.Vars[V].Hi);
  return R;
}

IntervalDomain IntervalDomain::join(const IntervalDomain &A,
                                    const IntervalDomain &B) {
  assert(A.numVars() == B.numVars() && "dimension mismatch");
  if (A.Empty)
    return B;
  if (B.Empty)
    return A;
  IntervalDomain R(A.numVars());
  for (unsigned V = 0; V != R.numVars(); ++V) {
    R.Vars[V].Lo = std::min(A.Vars[V].Lo, B.Vars[V].Lo);
    R.Vars[V].Hi = std::max(A.Vars[V].Hi, B.Vars[V].Hi);
  }
  return R;
}

IntervalDomain IntervalDomain::widen(const IntervalDomain &Old,
                                     const IntervalDomain &New) {
  static const std::vector<double> NoThresholds;
  return widenWithThresholds(Old, New, NoThresholds);
}

IntervalDomain
IntervalDomain::widenWithThresholds(const IntervalDomain &Old,
                                    const IntervalDomain &New,
                                    const std::vector<double> &Thresholds) {
  assert(Old.numVars() == New.numVars() && "dimension mismatch");
  if (Old.Empty)
    return New;
  if (New.Empty)
    return Old;
  IntervalDomain R(Old.numVars());
  for (unsigned V = 0; V != R.numVars(); ++V) {
    if (New.Vars[V].Lo < Old.Vars[V].Lo) {
      // Land on the largest -t that still contains the new lower bound
      // (ascending t gives descending -t; the first hit is the largest).
      double Landing = -Infinity;
      for (double T : Thresholds)
        if (-T <= New.Vars[V].Lo) {
          Landing = -T;
          break;
        }
      R.Vars[V].Lo = Landing;
    } else {
      R.Vars[V].Lo = Old.Vars[V].Lo;
    }
    if (New.Vars[V].Hi > Old.Vars[V].Hi) {
      double Landing = Infinity;
      for (double T : Thresholds)
        if (T >= New.Vars[V].Hi) {
          Landing = T;
          break;
        }
      R.Vars[V].Hi = Landing;
    } else {
      R.Vars[V].Hi = Old.Vars[V].Hi;
    }
  }
  return R;
}

IntervalDomain IntervalDomain::narrow(const IntervalDomain &Old,
                                      const IntervalDomain &New) {
  assert(Old.numVars() == New.numVars() && "dimension mismatch");
  if (Old.Empty || New.Empty)
    return makeBottom(Old.numVars());
  IntervalDomain R = Old;
  for (unsigned V = 0; V != R.numVars(); ++V) {
    if (R.Vars[V].Lo == -Infinity)
      R.Vars[V].Lo = New.Vars[V].Lo;
    if (R.Vars[V].Hi == Infinity)
      R.Vars[V].Hi = New.Vars[V].Hi;
  }
  return R;
}

bool IntervalDomain::leq(const IntervalDomain &Other) const {
  assert(numVars() == Other.numVars() && "dimension mismatch");
  if (Empty)
    return true;
  if (Other.Empty)
    return false;
  for (unsigned V = 0; V != numVars(); ++V)
    if (Vars[V].Lo < Other.Vars[V].Lo || Vars[V].Hi > Other.Vars[V].Hi)
      return false;
  return true;
}

bool IntervalDomain::equals(const IntervalDomain &Other) const {
  return leq(Other) && Other.leq(*this);
}

void IntervalDomain::addConstraint(const OctCons &C) { addConstraints({C}); }

void IntervalDomain::addConstraints(const std::vector<OctCons> &Cs) {
  if (Empty)
    return;
  for (const OctCons &C : Cs) {
    if (Empty)
      return;
    if (C.isUnary()) {
      if (C.CoefI > 0)
        refine(C.I, -Infinity, C.Bound); //  v <= c
      else
        refine(C.I, -C.Bound, Infinity); // -v <= c
      continue;
    }
    // coefI*vi + coefJ*vj <= c: propagate through the partner's bound.
    const Interval &IvJ = Vars[C.J];
    const Interval &IvI = Vars[C.I];
    // Solve for vi: coefI*vi <= c - coefJ*vj, maximized over vj.
    double PartnerJ = C.CoefJ > 0 ? IvJ.Lo : IvJ.Hi; // minimizes coefJ*vj
    if (PartnerJ == -Infinity || PartnerJ == Infinity) {
      // No refinement possible for vi from an unbounded partner.
    } else if (C.CoefI > 0)
      refine(C.I, -Infinity, C.Bound - C.CoefJ * PartnerJ);
    else
      refine(C.I, -(C.Bound - C.CoefJ * PartnerJ), Infinity);
    if (Empty)
      return;
    double PartnerI = C.CoefI > 0 ? IvI.Lo : IvI.Hi;
    if (PartnerI == -Infinity || PartnerI == Infinity) {
      // Likewise for vj.
    } else if (C.CoefJ > 0)
      refine(C.J, -Infinity, C.Bound - C.CoefI * PartnerI);
    else
      refine(C.J, -(C.Bound - C.CoefI * PartnerI), Infinity);
  }
}

Interval IntervalDomain::evalInterval(const LinExpr &E) {
  if (Empty)
    return {Infinity, -Infinity};
  double Lo = E.Const, Hi = E.Const;
  for (const auto &[Coef, Var] : E.Terms) {
    if (Coef == 0)
      continue;
    const Interval &B = Vars[Var];
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

void IntervalDomain::assign(unsigned X, const LinExpr &E) {
  if (Empty)
    return;
  Interval Value = evalInterval(E);
  if (Value.isBottom()) {
    markEmpty();
    return;
  }
  Vars[X] = Value;
}

void IntervalDomain::havoc(unsigned X) {
  if (Empty)
    return;
  Vars[X] = Interval{};
}

Interval IntervalDomain::bounds(unsigned V) {
  if (Empty)
    return {Infinity, -Infinity};
  return Vars[V];
}

double IntervalDomain::boundOf(const OctCons &C) const {
  if (Empty)
    return -Infinity;
  auto upper = [&](int Coef, unsigned V) {
    const Interval &Iv = Vars[V];
    return Coef > 0 ? Iv.Hi : (Iv.Lo == -Infinity ? Infinity : -Iv.Lo);
  };
  if (C.isUnary())
    return 2.0 * upper(C.CoefI, C.I);
  return upper(C.CoefI, C.I) + upper(C.CoefJ, C.J);
}

void IntervalDomain::addVars(unsigned Count) {
  Vars.insert(Vars.end(), Count, Interval{});
}

void IntervalDomain::removeTrailingVars(unsigned Count) {
  assert(Count <= Vars.size() && "removing more variables than exist");
  Vars.resize(Vars.size() - Count);
}

std::string IntervalDomain::str(const std::vector<std::string> *Names) {
  if (Empty)
    return "bottom";
  std::string Out;
  char Buf[96];
  for (unsigned V = 0; V != numVars(); ++V) {
    const Interval &Iv = Vars[V];
    if (Iv.isTop())
      continue;
    std::string Name;
    if (Names && V < Names->size())
      Name = (*Names)[V];
    else {
      std::snprintf(Buf, sizeof(Buf), "v%u", V);
      Name = Buf;
    }
    if (!Out.empty())
      Out += " && ";
    if (Iv.Lo == -Infinity)
      std::snprintf(Buf, sizeof(Buf), "%s <= %g", Name.c_str(), Iv.Hi);
    else if (Iv.Hi == Infinity)
      std::snprintf(Buf, sizeof(Buf), "%s >= %g", Name.c_str(), Iv.Lo);
    else
      std::snprintf(Buf, sizeof(Buf), "%s in [%g, %g]", Name.c_str(), Iv.Lo,
                    Iv.Hi);
    Out += Buf;
  }
  return Out.empty() ? "top" : Out;
}
