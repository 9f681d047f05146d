//===- itv/interval_domain.h - Interval abstract domain ---------*- C++ -*-===//
///
/// \file
/// A classic interval (box) domain implementing the same interface as
/// optoct::Octagon, so the analyzer template runs unchanged over it.
/// It serves two purposes:
///
///   * a precision baseline — the paper motivates octagons with
///     properties intervals cannot prove (relational loop invariants,
///     array accesses guarded by symbolic lengths); the comparison
///     bench and tests make that concrete;
///   * a speed ceiling — intervals are O(n) per operation, showing how
///     much of the octagon cost the paper's optimizations recover.
///
/// Binary octagonal constraints are absorbed by bound propagation
/// (x - y <= c refines x's upper bound from y's, and y's lower bound
/// from x's), which is the standard sound approximation.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_ITV_INTERVAL_DOMAIN_H
#define OPTOCT_ITV_INTERVAL_DOMAIN_H

#include "oct/constraint.h"

#include <string>
#include <vector>

namespace optoct::itv {

/// An abstract element: one interval per variable, or bottom.
class IntervalDomain {
public:
  explicit IntervalDomain(unsigned NumVars) : Vars(NumVars) {}

  static IntervalDomain makeTop(unsigned NumVars) {
    return IntervalDomain(NumVars);
  }
  static IntervalDomain makeBottom(unsigned NumVars) {
    IntervalDomain D(NumVars);
    D.Empty = true;
    return D;
  }

  unsigned numVars() const { return static_cast<unsigned>(Vars.size()); }
  bool isBottom() { return Empty; }
  bool isTop() const;

  /// Intervals have no closure; present for interface compatibility.
  void close() {}

  static IntervalDomain meet(const IntervalDomain &A,
                             const IntervalDomain &B);
  static IntervalDomain join(const IntervalDomain &A,
                             const IntervalDomain &B);
  static IntervalDomain widen(const IntervalDomain &Old,
                              const IntervalDomain &New);
  static IntervalDomain narrow(const IntervalDomain &Old,
                               const IntervalDomain &New);
  /// Widening with thresholds: growing bounds land on the next
  /// threshold (upper) or its negation (lower) before +-infinity.
  static IntervalDomain
  widenWithThresholds(const IntervalDomain &Old, const IntervalDomain &New,
                      const std::vector<double> &Thresholds);

  bool leq(const IntervalDomain &Other) const;
  bool equals(const IntervalDomain &Other) const;

  void addConstraint(const OctCons &C);
  void addConstraints(const std::vector<OctCons> &Cs);
  void assign(unsigned X, const LinExpr &E);
  void havoc(unsigned X);

  Interval bounds(unsigned V);
  Interval evalInterval(const LinExpr &E);

  /// The tightest DBM-entry-scaled bound the box implies for an
  /// octagonal constraint (2x the variable bound for unary ones) —
  /// interface-compatible with Octagon::boundOf so assertion checking
  /// works at interval precision.
  double boundOf(const OctCons &C) const;

  void addVars(unsigned Count);
  void removeTrailingVars(unsigned Count);

  std::string str(const std::vector<std::string> *Names = nullptr);

private:
  void markEmpty() { Empty = true; }
  /// Tightens variable \p V to [Lo, Hi] ∩ current; may empty the box.
  void refine(unsigned V, double Lo, double Hi);

  std::vector<Interval> Vars;
  bool Empty = false;
};

} // namespace optoct::itv

#endif // OPTOCT_ITV_INTERVAL_DOMAIN_H
