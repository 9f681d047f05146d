//===- baseline/apron_octagon.h - Reference octagon domain ------*- C++ -*-===//
///
/// \file
/// The baseline octagon implementation standing in for APRON in every
/// experiment: a dense half DBM with Algorithm 2 closure, no sparsity
/// or decomposition tracking, and scalar operators. Its interface
/// mirrors optoct::Octagon so the analyzer can be instantiated with
/// either library — the paper's "keep the APRON API, replace the
/// implementation" methodology in reverse.
///
/// The operand contract is Octagon's too: the lattice operators take
/// const operands, and one that must be read closed but is not is
/// closed into per-thread operand scratch, never in place. Widening
/// reads only its newer operand closed and leaves its result unclosed.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_BASELINE_APRON_OCTAGON_H
#define OPTOCT_BASELINE_APRON_OCTAGON_H

#include "oct/constraint.h"
#include "oct/dbm.h"
#include "support/stats.h"

#include <string>
#include <vector>

namespace optoct::baseline {

/// Statistics sink for the baseline library's closures (mirrors
/// setOctStatsSink).
void setApronStatsSink(OctStats *Sink);

/// A dense octagon element in the style of the original APRON octagon
/// domain.
class ApronOctagon {
public:
  /// Constructs the top element.
  explicit ApronOctagon(unsigned NumVars);

  static ApronOctagon makeTop(unsigned NumVars) {
    return ApronOctagon(NumVars);
  }
  static ApronOctagon makeBottom(unsigned NumVars);

  unsigned numVars() const { return M.numVars(); }
  bool isClosed() const { return Closed; }
  bool isBottom();
  bool isTop() const;

  double entry(unsigned I, unsigned J) const { return M.get(I, J); }
  double boundOf(const OctCons &C) const {
    OctCons::Entry E = C.toEntry();
    return entry(E.Row, E.Col);
  }

  /// Strong closure (Algorithm 2); cached via the Closed flag.
  void close();

  static ApronOctagon meet(const ApronOctagon &A, const ApronOctagon &B);
  static ApronOctagon join(const ApronOctagon &A, const ApronOctagon &B);
  static ApronOctagon widen(const ApronOctagon &Old, const ApronOctagon &New);
  static ApronOctagon narrow(const ApronOctagon &Old, const ApronOctagon &New);
  /// Widening with thresholds (variable-level values; unary entries use
  /// their doubles), mirroring Octagon::widenWithThresholds.
  static ApronOctagon
  widenWithThresholds(const ApronOctagon &Old, const ApronOctagon &New,
                      const std::vector<double> &Thresholds);

  /// Inclusion; reads *this closed and Other as stored.
  bool leq(const ApronOctagon &Other) const;
  bool equals(const ApronOctagon &Other) const;

  void addConstraint(const OctCons &C);
  void addConstraints(const std::vector<OctCons> &Cs);
  void assign(unsigned X, const LinExpr &E);
  void havoc(unsigned X);

  Interval bounds(unsigned V);
  Interval evalInterval(const LinExpr &E);
  std::vector<OctCons> constraints();

  void addVars(unsigned Count);
  void removeTrailingVars(unsigned Count);

  std::string str(const std::vector<std::string> *Names = nullptr);

private:
  /// \p O itself when closed, else its closure in the calling thread's
  /// operand scratch \p Slot (0 or 1), valid until that slot's next use.
  static const ApronOctagon &closedOperand(const ApronOctagon &O,
                                           unsigned Slot);

  void markEmpty() {
    Empty = true;
    Closed = true;
  }
  void forgetVar(unsigned X);
  void shiftVar(unsigned X, double C);
  void negateShiftVar(unsigned X, double C);
  void incrementalClose(const std::vector<unsigned> &Touched);

  HalfDbm M;
  bool Closed = true;
  bool Empty = false;
};

} // namespace optoct::baseline

#endif // OPTOCT_BASELINE_APRON_OCTAGON_H
