//===- support/stats.h - Analysis statistics registry ----------*- C++ -*-===//
///
/// \file
/// Counters and cycle accumulators for the octagon operators. The paper's
/// evaluation reports per-benchmark closure counts, DBM sizes (Table 2),
/// aggregate closure time (Fig. 6), octagon-analysis time (Fig. 8), and
/// per-closure traces (Fig. 7); OctStats collects all of that.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SUPPORT_STATS_H
#define OPTOCT_SUPPORT_STATS_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace optoct {

/// One recorded closure event, for the Fig. 7 trace.
struct ClosureEvent {
  std::uint64_t Cycles; ///< Duration of this closure call.
  unsigned NumVars;     ///< Number of variables in the DBM.
  int KindTag;          ///< Which closure ran (library-specific tag).
};

/// Statistics gathered while a program analysis runs against one octagon
/// library. Attached to the domain adapters in src/analysis.
///
/// A closure is a full closure of one element (dense, sparse, decomposed
/// or top); it is counted, traced and sizes nmin/nmax. The incremental
/// closures that restore a closed element after guards (Section 5.6),
/// or write an assignment's closed rows, are counted apart, with their
/// own cycles, and record no trace event.
class OctStats {
public:
  void recordClosure(std::uint64_t Cycles, unsigned NumVars, int KindTag) {
    ++NumClosures;
    ClosureCycles += Cycles;
    if (NumVars < MinVars)
      MinVars = NumVars;
    if (NumVars > MaxVars)
      MaxVars = NumVars;
    if (TraceEnabled)
      Trace.push_back({Cycles, NumVars, KindTag});
  }

  void recordIncrementalClosure(std::uint64_t Cycles) {
    ++NumIncrementalClosures;
    IncrementalCycles += Cycles;
  }

  void addOctagonCycles(std::uint64_t Cycles) { OctagonCycles += Cycles; }

  void reset() {
    NumClosures = 0;
    ClosureCycles = 0;
    NumIncrementalClosures = 0;
    IncrementalCycles = 0;
    OctagonCycles = 0;
    MinVars = std::numeric_limits<unsigned>::max();
    MaxVars = 0;
    Trace.clear();
  }

  void enableTrace(bool On) { TraceEnabled = On; }

  std::uint64_t numClosures() const { return NumClosures; }
  std::uint64_t closureCycles() const { return ClosureCycles; }
  std::uint64_t numIncrementalClosures() const {
    return NumIncrementalClosures;
  }
  std::uint64_t incrementalCycles() const { return IncrementalCycles; }
  std::uint64_t octagonCycles() const { return OctagonCycles; }
  unsigned minVars() const { return NumClosures == 0 ? 0 : MinVars; }
  unsigned maxVars() const { return MaxVars; }
  const std::vector<ClosureEvent> &trace() const { return Trace; }

private:
  std::uint64_t NumClosures = 0;
  std::uint64_t ClosureCycles = 0;
  std::uint64_t NumIncrementalClosures = 0;
  std::uint64_t IncrementalCycles = 0;
  std::uint64_t OctagonCycles = 0;
  unsigned MinVars = std::numeric_limits<unsigned>::max();
  unsigned MaxVars = 0;
  bool TraceEnabled = false;
  std::vector<ClosureEvent> Trace;
};

} // namespace optoct

#endif // OPTOCT_SUPPORT_STATS_H
