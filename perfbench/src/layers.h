//===- perfbench/src/layers.h - Per-layer accounting -----------*- C++ -*-===//
///
/// \file
/// The per-layer metric set every traced run prints (zeros where a
/// workload does not run a layer — that is the "predicted flat" side of
/// the layer table in README.md), and the traced in-process pipeline
/// that fills its analyzer layers: parse -> Cfg::build ->
/// analyze<TimedOctagon> -> render + canonicalize + serialize.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_PERFBENCH_LAYERS_H
#define OPTOCT_PERFBENCH_LAYERS_H

#include "bench.h"
#include "timed_octagon.h"

#include "analysis/engine.h"
#include "runtime/batch.h"

#include <cstdint>
#include <string>

namespace perfbench {

/// Sums over a traced replay. Times in timestamp-counter ticks (octagon
/// layer) or milliseconds (everything else).
struct LayerTotals {
  // Octagon layer (ticks; ops are self time, closures excluded).
  std::uint64_t CloseTicks[4] = {}; ///< Indexed by ClosureKindTag.
  std::uint64_t CloseN[4] = {};
  OctOpClock Ops;
  unsigned NMax = 0;
  // Analyzer layers (ms) and their work counts.
  double ParseMs = 0, CfgMs = 0, EngineMs = 0, SerializeMs = 0;
  std::uint64_t SourceBytes = 0, Blocks = 0, BlockVisits = 0,
                SerializeBytes = 0;

  LayerTotals &operator+=(const LayerTotals &O);
  std::uint64_t octTicks() const;
  /// Engine bookkeeping: engine wall minus every octagon span.
  double analysisSelfMs(double TicksPerMs) const {
    return EngineMs - static_cast<double>(octTicks()) / TicksPerMs;
  }
  /// Spans of the analyzer pipeline (parse + cfg + engine + serialize).
  double pipelineMs() const {
    return ParseMs + CfgMs + EngineMs + SerializeMs;
  }
};

/// Runs one job through the traced pipeline and returns the JobResult
/// runtime::runJob would have produced (same fields, same rendering),
/// accumulating layer totals into \p T. The serialize span covers
/// invariant rendering, canonicalization and serialization; the
/// record is returned through \p Record.
optoct::runtime::JobResult tracedJob(const optoct::runtime::BatchJob &Job,
                                     const optoct::analysis::AnalysisOptions &E,
                                     LayerTotals &T, std::string &Record);

/// Non-octagon layers of a daemon run: replay means per request, the
/// fixed-rate phase's transport and generator figures, DaemonStats.
struct ServerLayers {
  double LookupUs = 0, InsertUs = 0, EncodeUs = 0, DecodeUs = 0,
         FingerprintUs = 0, FrameBytes = 0, ConnectMs = 0, LoadMs = 0;
  double HitRatio = 0, Evictions = 0;
  double RttResidualP50Ms = 0, RttResidualP99Ms = 0;
  double QueuePeak = 0, Shed = 0, Coalesced = 0, WorkersSpawned = 0;
  double LateP99Ms = 0, LateMaxMs = 0, BacklogGrowth = 0;
};

/// Emits the whole per-layer metric set. \p Units is how many passes or
/// requests the totals cover (per-layer times are per pass on
/// paper-suite and per request on the daemon workloads).
void emitLayers(Outcome &O, const LayerTotals &T, double Units,
                double TicksPerMs, const ServerLayers &S,
                double ResidualMs, double OverheadPct);

} // namespace perfbench

#endif // OPTOCT_PERFBENCH_LAYERS_H
