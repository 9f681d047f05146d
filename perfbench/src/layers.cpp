//===- perfbench/src/layers.cpp - Per-layer accounting --------------------===//

#include "layers.h"

#include "cfg/cfg.h"
#include "lang/parser.h"
#include "runtime/arena.h"

#include <algorithm>

using namespace optoct;

namespace perfbench {

LayerTotals &LayerTotals::operator+=(const LayerTotals &O) {
  for (int K = 0; K != 4; ++K) {
    CloseTicks[K] += O.CloseTicks[K];
    CloseN[K] += O.CloseN[K];
  }
  for (int I = 0; I != static_cast<int>(OctOp::Count); ++I) {
    Ops.SelfTicks[I] += O.Ops.SelfTicks[I];
    Ops.Calls[I] += O.Ops.Calls[I];
  }
  Ops.LeqTrue += O.Ops.LeqTrue;
  NMax = std::max(NMax, O.NMax);
  ParseMs += O.ParseMs;
  CfgMs += O.CfgMs;
  EngineMs += O.EngineMs;
  SerializeMs += O.SerializeMs;
  SourceBytes += O.SourceBytes;
  Blocks += O.Blocks;
  BlockVisits += O.BlockVisits;
  SerializeBytes += O.SerializeBytes;
  return *this;
}

std::uint64_t LayerTotals::octTicks() const {
  std::uint64_t Sum = 0;
  for (std::uint64_t C : CloseTicks)
    Sum += C;
  for (std::uint64_t S : Ops.SelfTicks)
    Sum += S;
  return Sum;
}

runtime::JobResult tracedJob(const runtime::BatchJob &Job,
                             const analysis::AnalysisOptions &E,
                             LayerTotals &T, std::string &Record) {
  runtime::JobResult R;
  R.Name = Job.Name;
  R.Attempts = 1;

  Clock::time_point T0 = Clock::now();
  std::string Error;
  auto Prog = lang::parseProgram(Job.Source, Error);
  Clock::time_point T1 = Clock::now();
  T.ParseMs += msBetween(T0, T1);
  T.SourceBytes += Job.Source.size();
  if (!Prog) {
    R.Status = runtime::JobStatus::Failed;
    R.Error = Error;
    Record = canonicalRecord(R);
    return R;
  }

  cfg::Cfg Graph = cfg::Cfg::build(*Prog);
  Clock::time_point T2 = Clock::now();
  T.CfgMs += msBetween(T1, T2);
  T.Blocks += Graph.size();

  runtime::WorkerArena &Arena = runtime::thisThreadArena();
  Arena.reserve(64); // runtime::BatchOptions::ReserveVars default
  runtime::JobScope Scope(Arena, /*TraceClosures=*/true);
  TimedOps.reset();
  Clock::time_point T3 = Clock::now();
  auto Result = analysis::analyze<TimedOctagon>(Graph, E);
  Clock::time_point T4 = Clock::now();
  T.EngineMs += msBetween(T3, T4);
  LayerTotals Ops;
  for (const ClosureEvent &Ev : Scope.stats().trace()) {
    int K = std::clamp(Ev.KindTag, 0, 3);
    Ops.CloseTicks[K] += Ev.Cycles;
    ++Ops.CloseN[K];
  }
  Ops.Ops = TimedOps;
  Ops.BlockVisits = Result.BlockVisits;
  T += Ops;

  // Serialize layer: the same result rendering runtime::runJob does,
  // then the daemon's canonicalize + serialize.
  if (Result.Status == analysis::RunStatus::Degraded) {
    R.Status = runtime::JobStatus::Degraded;
    R.Detail = Result.StatusDetail;
  } else {
    R.Status = runtime::JobStatus::Ok;
  }
  R.Ok = true;
  R.AssertsTotal = static_cast<unsigned>(Result.Asserts.size());
  R.AssertsProven = Result.assertsProven();
  for (const analysis::AssertOutcome &A : Result.Asserts)
    if (!A.Proven)
      R.UnprovenAssertLines.push_back(A.Line);
  for (unsigned B : Graph.rpo()) {
    const cfg::BasicBlock &Block = Graph.block(B);
    if (!Block.IsLoopHead)
      continue;
    std::string Inv = Result.BlockInvariant[B]
                          ? Result.BlockInvariant[B]->str(&Block.SlotNames)
                          : std::string("unreachable");
    R.LoopInvariants.push_back("bb" + std::to_string(B) + ": " + Inv);
  }
  R.NumClosures = Scope.stats().numClosures();
  R.BlockVisits = Result.BlockVisits;
  R.NMin = Scope.stats().minVars();
  R.NMax = Scope.stats().maxVars();
  T.NMax = std::max(T.NMax, R.NMax);
  Record = canonicalRecord(R);
  T.SerializeMs += msBetween(T4, Clock::now());
  T.SerializeBytes += Record.size();
  return R;
}

void emitLayers(Outcome &O, const LayerTotals &T, double Units,
                double TicksPerMs, const ServerLayers &S, double ResidualMs,
                double OverheadPct) {
  double U = Units > 0 ? Units : 1.0;
  auto TickMs = [&](std::uint64_t Ticks) {
    return static_cast<double>(Ticks) / TicksPerMs / U;
  };
  auto PerUnit = [&](double V) { return V / U; };
  auto Op = [&](OctOp K) { return static_cast<int>(K); };

  O.add("oct.close.dense_ms", TickMs(T.CloseTicks[CK_Dense]), "ms");
  O.add("oct.close.sparse_ms", TickMs(T.CloseTicks[CK_Sparse]), "ms");
  O.add("oct.close.decomposed_ms", TickMs(T.CloseTicks[CK_Decomposed]), "ms");
  O.add("oct.close.top_ms", TickMs(T.CloseTicks[CK_Top]), "ms");
  O.add("oct.close.dense_n", PerUnit(T.CloseN[CK_Dense]), "count");
  O.add("oct.close.sparse_n", PerUnit(T.CloseN[CK_Sparse]), "count");
  O.add("oct.close.decomposed_n", PerUnit(T.CloseN[CK_Decomposed]), "count");
  O.add("oct.close.top_n", PerUnit(T.CloseN[CK_Top]), "count");
  O.add("oct.join_ms", TickMs(T.Ops.SelfTicks[Op(OctOp::Join)]), "ms");
  O.add("oct.meet_ms", TickMs(T.Ops.SelfTicks[Op(OctOp::Meet)]), "ms");
  O.add("oct.widen_ms", TickMs(T.Ops.SelfTicks[Op(OctOp::Widen)]), "ms");
  O.add("oct.narrow_ms", TickMs(T.Ops.SelfTicks[Op(OctOp::Narrow)]), "ms");
  O.add("oct.leq_ms", TickMs(T.Ops.SelfTicks[Op(OctOp::Leq)]), "ms");
  O.add("oct.join_n", PerUnit(T.Ops.Calls[Op(OctOp::Join)]), "count");
  O.add("oct.widen_n", PerUnit(T.Ops.Calls[Op(OctOp::Widen)]), "count");
  O.add("oct.leq_n", PerUnit(T.Ops.Calls[Op(OctOp::Leq)]), "count");
  std::uint64_t Leqs = T.Ops.Calls[Op(OctOp::Leq)];
  O.add("oct.leq_hit_ratio",
        Leqs ? static_cast<double>(T.Ops.LeqTrue) / Leqs : 0.0, "ratio");
  O.add("oct.transfer_ms", TickMs(T.Ops.SelfTicks[Op(OctOp::Transfer)]), "ms");
  O.add("oct.scope_ms", TickMs(T.Ops.SelfTicks[Op(OctOp::Scope)]), "ms");
  O.add("oct.nmax", T.NMax, "count");
  O.add("analysis.self_ms", PerUnit(T.analysisSelfMs(TicksPerMs)), "ms");
  O.add("analysis.block_visits", PerUnit(T.BlockVisits), "count");
  O.add("lang.parse_ms", PerUnit(T.ParseMs), "ms");
  O.add("lang.bytes", PerUnit(T.SourceBytes), "bytes");
  O.add("cfg.build_ms", PerUnit(T.CfgMs), "ms");
  O.add("cfg.blocks", PerUnit(T.Blocks), "count");
  O.add("serialize.ms", PerUnit(T.SerializeMs), "ms");
  O.add("serialize.bytes", PerUnit(T.SerializeBytes), "bytes");
  O.add("cache.lookup_us", S.LookupUs, "us");
  O.add("cache.hit_ratio", S.HitRatio, "ratio");
  O.add("cache.insert_us", S.InsertUs, "us");
  O.add("cache.evictions", S.Evictions, "count");
  O.add("cache.load_ms", S.LoadMs, "ms");
  O.add("protocol.encode_us", S.EncodeUs, "us");
  O.add("protocol.decode_us", S.DecodeUs, "us");
  O.add("protocol.fingerprint_us", S.FingerprintUs, "us");
  O.add("protocol.frame_bytes", S.FrameBytes, "bytes");
  O.add("client.connect_ms", S.ConnectMs, "ms");
  O.add("server.rtt_residual_p50_ms", S.RttResidualP50Ms, "ms");
  O.add("server.rtt_residual_p99_ms", S.RttResidualP99Ms, "ms");
  O.add("server.queue_peak", S.QueuePeak, "count");
  O.add("server.shed", S.Shed, "count");
  O.add("server.coalesced", S.Coalesced, "count");
  O.add("server.workers_spawned", S.WorkersSpawned, "count");
  O.add("runtime.residual_ms", ResidualMs, "ms");
  O.add("trace.overhead_pct", OverheadPct, "%");
  O.add("error_rate",
        O.Attempted ? static_cast<double>(O.Failed) / O.Attempted : 0.0,
        "ratio");
  O.add("gen.late_p99_ms", S.LateP99Ms, "ms");
  O.add("gen.late_max_ms", S.LateMaxMs, "ms");
  O.add("gen.backlog_growth", S.BacklogGrowth, "count");
}

} // namespace perfbench
