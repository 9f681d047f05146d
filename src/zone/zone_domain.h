//===- zone/zone_domain.h - Zone (DBM) abstract domain ----------*- C++ -*-===//
///
/// \file
/// The zone domain: conjunctions of difference constraints
/// `v_i - v_j <= c` and bounds `±v_i <= c`, the weakly-relational
/// stepping stone between intervals and octagons (it cannot express
/// sums `v_i + v_j <= c`). Implemented the classic way — an
/// (n+1)×(n+1) DBM over the variables plus a zero variable, closed by
/// plain Floyd-Warshall (no strengthening step and no coherence,
/// which is exactly the machinery the octagon's ± encoding adds).
///
/// It implements the same interface as optoct::Octagon, so the
/// analyzer, the comparison bench, and the precision-ladder tests
/// (interval ⊑ zone ⊑ octagon) run over it unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_ZONE_ZONE_DOMAIN_H
#define OPTOCT_ZONE_ZONE_DOMAIN_H

#include "oct/constraint.h"
#include "support/aligned.h"

#include <string>
#include <vector>

namespace optoct::zone {

/// A zone over n variables: DBM of dimension n+1 where index 0 is the
/// constant-zero variable and index v+1 stands for v. Entry
/// M(i,j) = c encodes var(j) - var(i) <= c.
class ZoneDomain {
public:
  explicit ZoneDomain(unsigned NumVars);

  static ZoneDomain makeTop(unsigned NumVars) { return ZoneDomain(NumVars); }
  static ZoneDomain makeBottom(unsigned NumVars);

  unsigned numVars() const { return N; }
  bool isBottom();
  bool isTop() const;

  /// Floyd-Warshall closure; cached via the Closed flag.
  void close();

  static ZoneDomain meet(const ZoneDomain &A, const ZoneDomain &B);
  /// Operands are const, as in optoct::Octagon: one that must be read
  /// closed but is not is closed into per-thread operand scratch.
  static ZoneDomain join(const ZoneDomain &A, const ZoneDomain &B);
  static ZoneDomain widen(const ZoneDomain &Old, const ZoneDomain &New);
  static ZoneDomain narrow(const ZoneDomain &Old, const ZoneDomain &New);
  static ZoneDomain widenWithThresholds(const ZoneDomain &Old,
                                        const ZoneDomain &New,
                                        const std::vector<double> &Thresholds);

  bool leq(const ZoneDomain &Other) const;
  bool equals(const ZoneDomain &Other) const;

  /// Octagonal constraints: differences and unary bounds are exact;
  /// sums (v_i + v_j <= c) are absorbed through the partner's bound
  /// like the interval domain does (sound).
  void addConstraint(const OctCons &C);
  void addConstraints(const std::vector<OctCons> &Cs);
  void assign(unsigned X, const LinExpr &E);
  void havoc(unsigned X);

  Interval bounds(unsigned V);
  Interval evalInterval(const LinExpr &E);

  /// DBM-entry-scaled bound for an octagonal constraint (2x for unary),
  /// interface-compatible with Octagon::boundOf; sums are answered at
  /// interval precision.
  double boundOf(const OctCons &C);

  void addVars(unsigned Count);
  void removeTrailingVars(unsigned Count);

  std::string str(const std::vector<std::string> *Names = nullptr);

private:
  unsigned dim() const { return N + 1; }
  double &at(unsigned I, unsigned J) {
    return M[static_cast<std::size_t>(I) * dim() + J];
  }
  double at(unsigned I, unsigned J) const {
    return M[static_cast<std::size_t>(I) * dim() + J];
  }
  void markEmpty() {
    Empty = true;
    Closed = true;
  }
  /// \p Z itself when closed, else its closure in the calling thread's
  /// operand scratch \p Slot (0 or 1), valid until that slot's next use.
  static const ZoneDomain &closedOperand(const ZoneDomain &Z, unsigned Slot);
  /// Tightens entry (I, J) to \p Bound.
  void tighten(unsigned I, unsigned J, double Bound) {
    if (Bound < at(I, J)) {
      at(I, J) = Bound;
      Closed = false;
    }
  }
  void forgetRow(unsigned X); ///< clears var X's row/column (index X+1)

  unsigned N;
  AlignedBuffer<double> M; ///< (n+1)^2 row-major full DBM
  bool Closed = true;
  bool Empty = false;
};

} // namespace optoct::zone

#endif // OPTOCT_ZONE_ZONE_DOMAIN_H
