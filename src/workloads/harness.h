//===- workloads/harness.h - Benchmark execution harness --------*- C++ -*-===//
///
/// \file
/// Runs a workload under one of the two octagon libraries and collects
/// the measurements the paper reports: closure count and aggregate
/// closure cycles (Fig. 6, Table 2), total octagon-operation cycles
/// (Fig. 8), wall-clock analysis time, per-closure traces (Fig. 7), and
/// DBM size extremes (Table 2).
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_WORKLOADS_HARNESS_H
#define OPTOCT_WORKLOADS_HARNESS_H

#include "support/stats.h"
#include "workloads/workload.h"

#include <cstdint>
#include <string>
#include <vector>

namespace optoct::workloads {

/// Which octagon implementation to run the analyzer with.
enum class Library {
  OptOctagon, ///< The paper's optimized library (src/oct).
  Apron,      ///< The APRON-style dense baseline (src/baseline).
  ApronFW,    ///< Baseline with the vectorized full-DBM FW closure
              ///< (the Fig. 6(a) comparison point).
};

/// Measurements from one analysis run.
struct RunResult {
  std::uint64_t NumClosures = 0; ///< Full closures.
  std::uint64_t ClosureCycles = 0;
  /// Incremental closures (after assignments and guards), OptOctagon
  /// only.
  std::uint64_t IncrementalClosures = 0;
  std::uint64_t OctagonCycles = 0; ///< All domain operations.
  unsigned NMin = 0, NMax = 0;     ///< DBM sizes seen at closures.
  double WallSeconds = 0.0;        ///< Whole analysis wall time.
  unsigned AssertsProven = 0, AssertsTotal = 0;
  std::uint64_t BlockVisits = 0;
  std::vector<ClosureEvent> Trace; ///< Filled when tracing is enabled.
};

/// Generates, parses, and analyzes \p Spec under \p Lib.
/// Asserts internally that the program is well-formed.
RunResult runWorkload(const WorkloadSpec &Spec, Library Lib,
                      bool TraceClosures = false);

/// Parallel driver: runs every spec under \p Lib sharded over \p Jobs
/// worker threads (0 = one per hardware thread, 1 = serial in the
/// calling thread). Results are in spec order and carry the same
/// counters and verdicts as serial runs — the analyses are independent
/// and the library state is thread-local — but the wall-clock fields
/// reflect contention when several jobs share a core.
std::vector<RunResult> runWorkloads(const std::vector<WorkloadSpec> &Specs,
                                    Library Lib, unsigned Jobs,
                                    bool TraceClosures = false);

/// Time (seconds) of one repetition of the client dataflow analyses on
/// \p Spec's CFG, and the Table 3 end-to-end measurement: analysis under
/// \p Lib plus \p ClientReps dataflow repetitions.
struct EndToEndResult {
  double TotalSeconds = 0.0;
  double OctSeconds = 0.0;
  double PctOct = 0.0;
};
EndToEndResult runEndToEnd(const WorkloadSpec &Spec, Library Lib,
                           unsigned ClientReps);

/// Measures one repetition of the client analyses (for calibrating the
/// repetition count against a target %oct).
double measureClientRep(const WorkloadSpec &Spec);

} // namespace optoct::workloads

#endif // OPTOCT_WORKLOADS_HARNESS_H
