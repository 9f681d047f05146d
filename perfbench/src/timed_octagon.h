//===- perfbench/src/timed_octagon.h - Span-timed Octagon ------*- C++ -*-===//
///
/// \file
/// TimedOctagon forwards every public operation the fixpoint engine
/// uses to an optoct::Octagon and accumulates, per operation class, the
/// call count and the timestamp-counter ticks spent in the call. The
/// closures an operation triggers are read back from the calling
/// thread's OctStats closure trace (which the caller must enable) and
/// subtracted, so the classes hold *self* time and closure time is
/// split by ClosureKindTag instead. It is the benchmark's span recorder
/// for the octagon layer; the library itself is not instrumented.
///
/// Single-threaded by design: the traced replay runs in one thread and
/// the accumulators are plain globals.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_PERFBENCH_TIMED_OCTAGON_H
#define OPTOCT_PERFBENCH_TIMED_OCTAGON_H

#include "oct/octagon.h"
#include "support/timing.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class OctOp { Join, Meet, Widen, Narrow, Leq, Transfer, Scope, Count };

struct OctOpClock {
  std::uint64_t SelfTicks[static_cast<int>(OctOp::Count)] = {};
  std::uint64_t Calls[static_cast<int>(OctOp::Count)] = {};
  std::uint64_t LeqTrue = 0;

  void reset() { *this = OctOpClock(); }
};

inline OctOpClock TimedOps;

/// Times one TimedOctagon call; closure ticks recorded in the calling
/// thread's OctStats trace during the call are excluded.
class OpSpan {
public:
  explicit OpSpan(OctOp Op)
      : Op(Op), Sink(optoct::octStatsSink()),
        TraceBegin(Sink ? Sink->trace().size() : 0),
        Begin(optoct::readCycles()) {}
  ~OpSpan() {
    std::uint64_t Ticks = optoct::readCycles() - Begin;
    if (Sink) {
      const std::vector<optoct::ClosureEvent> &T = Sink->trace();
      for (std::size_t I = TraceBegin; I < T.size(); ++I)
        Ticks -= std::min(Ticks, T[I].Cycles);
    }
    TimedOps.SelfTicks[static_cast<int>(Op)] += Ticks;
    ++TimedOps.Calls[static_cast<int>(Op)];
  }
  OpSpan(const OpSpan &) = delete;
  OpSpan &operator=(const OpSpan &) = delete;

private:
  OctOp Op;
  optoct::OctStats *Sink;
  std::size_t TraceBegin;
  std::uint64_t Begin;
};

class TimedOctagon {
public:
  explicit TimedOctagon(unsigned NumVars) : O(NumVars) {}
  explicit TimedOctagon(optoct::Octagon O) : O(std::move(O)) {}

  static TimedOctagon makeTop(unsigned NumVars) {
    OpSpan S(OctOp::Transfer);
    return TimedOctagon(optoct::Octagon::makeTop(NumVars));
  }
  static TimedOctagon makeBottom(unsigned NumVars) {
    OpSpan S(OctOp::Transfer);
    return TimedOctagon(optoct::Octagon::makeBottom(NumVars));
  }

  unsigned numVars() const { return O.numVars(); }
  const optoct::Octagon &octagon() const { return O; }

  bool isBottom() {
    OpSpan S(OctOp::Transfer);
    return O.isBottom();
  }
  double boundOf(const optoct::OctCons &C) const {
    OpSpan S(OctOp::Transfer);
    return O.boundOf(C);
  }
  optoct::Interval evalInterval(const optoct::LinExpr &E) {
    OpSpan S(OctOp::Transfer);
    return O.evalInterval(E);
  }

  static TimedOctagon meet(const TimedOctagon &A, const TimedOctagon &B) {
    OpSpan S(OctOp::Meet);
    return TimedOctagon(optoct::Octagon::meet(A.O, B.O));
  }
  static TimedOctagon join(TimedOctagon &A, TimedOctagon &B) {
    OpSpan S(OctOp::Join);
    return TimedOctagon(optoct::Octagon::join(A.O, B.O));
  }
  static TimedOctagon widen(const TimedOctagon &Old, TimedOctagon &New) {
    OpSpan S(OctOp::Widen);
    return TimedOctagon(optoct::Octagon::widen(Old.O, New.O));
  }
  static TimedOctagon
  widenWithThresholds(const TimedOctagon &Old, TimedOctagon &New,
                      const std::vector<double> &Thresholds) {
    OpSpan S(OctOp::Widen);
    return TimedOctagon(
        optoct::Octagon::widenWithThresholds(Old.O, New.O, Thresholds));
  }
  static TimedOctagon narrow(TimedOctagon &Old, const TimedOctagon &New) {
    OpSpan S(OctOp::Narrow);
    return TimedOctagon(optoct::Octagon::narrow(Old.O, New.O));
  }
  bool leq(TimedOctagon &Other) {
    OpSpan S(OctOp::Leq);
    bool R = O.leq(Other.O);
    TimedOps.LeqTrue += R;
    return R;
  }

  void addConstraint(const optoct::OctCons &C) {
    OpSpan S(OctOp::Transfer);
    O.addConstraint(C);
  }
  void addConstraints(const std::vector<optoct::OctCons> &Cs) {
    OpSpan S(OctOp::Transfer);
    O.addConstraints(Cs);
  }
  void assign(unsigned X, const optoct::LinExpr &E) {
    OpSpan S(OctOp::Transfer);
    O.assign(X, E);
  }
  void havoc(unsigned X) {
    OpSpan S(OctOp::Transfer);
    O.havoc(X);
  }

  void addVars(unsigned Count) {
    OpSpan S(OctOp::Scope);
    O.addVars(Count);
  }
  void removeTrailingVars(unsigned Count) {
    OpSpan S(OctOp::Scope);
    O.removeTrailingVars(Count);
  }

  /// Rendering is the serialize layer's work, not an octagon op.
  std::string str(const std::vector<std::string> *Names = nullptr) {
    return O.str(Names);
  }

private:
  optoct::Octagon O;
};

} // namespace perfbench

#endif // OPTOCT_PERFBENCH_TIMED_OCTAGON_H
