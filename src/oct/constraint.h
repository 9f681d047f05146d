//===- oct/constraint.h - Octagonal constraints and linear exprs -*- C++ -*-===//
///
/// \file
/// The constraint language of the Octagon domain: inequalities
/// a*vi + b*vj <= c with a, b in {-1, 0, +1} (Section 2.1), plus general
/// linear expressions used by assignment transfer functions (handled
/// exactly when octagonal, by interval approximation otherwise).
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_CONSTRAINT_H
#define OPTOCT_OCT_CONSTRAINT_H

#include "oct/value.h"

#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace optoct {

/// An octagonal inequality CoefI*Var(I) + CoefJ*Var(J) <= Bound.
/// CoefI is +1 or -1; CoefJ is +1, -1, or 0 (0 for a unary constraint,
/// in which case J is ignored and conventionally equals I).
struct OctCons {
  int CoefI;
  unsigned I;
  int CoefJ;
  unsigned J;
  double Bound;

  /// vi - vj <= c
  static OctCons diff(unsigned I, unsigned J, double C) {
    assert(I != J && "binary constraint needs distinct variables");
    return {+1, I, -1, J, C};
  }
  /// vi + vj <= c
  static OctCons sum(unsigned I, unsigned J, double C) {
    assert(I != J && "binary constraint needs distinct variables");
    return {+1, I, +1, J, C};
  }
  /// -vi - vj <= c
  static OctCons negSum(unsigned I, unsigned J, double C) {
    assert(I != J && "binary constraint needs distinct variables");
    return {-1, I, -1, J, C};
  }
  /// vi <= c
  static OctCons upper(unsigned I, double C) { return {+1, I, 0, I, C}; }
  /// -vi <= c  (i.e. vi >= -c)
  static OctCons lower(unsigned I, double C) { return {-1, I, 0, I, C}; }

  bool isUnary() const { return CoefJ == 0; }

  /// The (row, col) of the full-DBM entry encoding this constraint, and
  /// the entry's bound (2*Bound for unary constraints). Entry (i,j)=c
  /// encodes vhat_j - vhat_i <= c with vhat_{2v} = +v, vhat_{2v+1} = -v.
  struct Entry {
    unsigned Row, Col;
    double Bound;
  };
  Entry toEntry() const {
    if (isUnary()) {
      // +v <= c  ->  vhat_{2v} - vhat_{2v+1} <= 2c
      // -v <= c  ->  vhat_{2v+1} - vhat_{2v} <= 2c
      if (CoefI > 0)
        return {2 * I + 1, 2 * I, 2 * Bound};
      return {2 * I, 2 * I + 1, 2 * Bound};
    }
    // CoefI*vI + CoefJ*vJ <= c  <=>  vhat_col - vhat_row <= c with
    // vhat_col representing CoefI*vI and vhat_row representing -CoefJ*vJ.
    unsigned Col = CoefI > 0 ? 2 * I : 2 * I + 1;
    unsigned Row = CoefJ > 0 ? 2 * J + 1 : 2 * J;
    return {Row, Col, Bound};
  }
};

/// The invariant text of a non-empty element's constraints, in the
/// order given: "top" for none, otherwise the constraints joined by
/// " && ", each as "[-]a +|- b <= c" or "[-]a <= c" with the bound in
/// %g. Variables are named from \p Names where it has an entry, "v<i>"
/// otherwise. Both octagon libraries print their invariants with it.
std::string renderConstraints(const std::vector<OctCons> &Cs,
                              const std::vector<std::string> *Names);

/// Upper/lower bounds of a variable or expression; either end may be
/// infinite.
struct Interval {
  double Lo = -Infinity;
  double Hi = Infinity;

  bool isBottom() const { return Lo > Hi; }
  bool isTop() const { return Lo == -Infinity && Hi == Infinity; }
};

/// A linear expression sum(Coef_k * Var_k) + Const with integer
/// coefficients. Terms hold distinct variables.
struct LinExpr {
  std::vector<std::pair<int, unsigned>> Terms; ///< (coefficient, variable)
  double Const = 0.0;

  static LinExpr constant(double C) { return {{}, C}; }
  static LinExpr variable(unsigned V) { return {{{1, V}}, 0.0}; }

  /// Adds Coef * Var, combining with an existing term for Var.
  void addTerm(int Coef, unsigned Var);

  /// Returns the single (coefficient, variable) term if the expression
  /// has exactly one term with coefficient +-1 — the octagon-exact
  /// assignment forms x := +-y + c — otherwise nullptr.
  const std::pair<int, unsigned> *octagonalTerm() const {
    if (Terms.size() != 1 || (Terms[0].first != 1 && Terms[0].first != -1))
      return nullptr;
    return &Terms[0];
  }

  std::string str() const;
};

} // namespace optoct

#endif // OPTOCT_OCT_CONSTRAINT_H
