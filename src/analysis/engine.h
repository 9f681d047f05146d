//===- analysis/engine.h - Worklist fixpoint engine -------------*- C++ -*-===//
///
/// \file
/// The abstract-interpretation fixpoint engine, templated over the
/// octagon implementation so the identical analysis runs against
/// OptOctagon and the APRON-style baseline (the paper's methodology:
/// same analyzer, different library).
///
/// Classic worklist algorithm in reverse post-order with widening at
/// loop heads after a configurable delay, followed by optional
/// narrowing sweeps, then one final pass that checks assertions and
/// records invariants.
///
/// The fixpoint step copies an element only where the semantics need
/// one, and closes each state once. The domains' lattice operators take
/// const operands, so a stored invariant is read, never closed in
/// place. A loop head's unclosed widening or narrowing iterate, which
/// must stay unclosed for termination, is widened as stored; every
/// other read of it (the block visit, the join into the slot, the
/// narrowing sweep and the final pass) reads a closed copy made once
/// beside it and dropped when the slot is stored again. Each edge's
/// post-state is closed once (isBottom; after guards the octagon closes
/// incrementally) and tested for inclusion in the stored target first:
/// inclusion needs only its left side closed, and the target changes
/// iff the post-state is not included (a join is the pointwise max of
/// closed DBMs, closure only tightens the target, widening keeps every
/// bound that did not grow). Only then are join and widening computed,
/// straight into the stored slot. A block's post-state moves along its
/// last out-edge. The returned invariants are the stored slots: a loop
/// head's is its unclosed iterate.
///
/// Octagon work is timed with the cycle counter around every domain
/// call so the harnesses can report the Fig. 8 octagon-analysis time
/// and the Table 3 %oct share.
///
/// Fault tolerance: the engine runs under the budgets of
/// support/budget.h. The worklist loop charges block-visit fuel
/// (AnalysisOptions::MaxBlockVisits) and polls the thread-local
/// cancellation token (wall-clock deadline, watchdog flag, DBM-cell
/// fuel charged by the domain). When any budget trips, the run
/// *degrades* instead of crashing: every block invariant is widened to
/// Top — trivially sound, pointwise weaker than the converged result —
/// assertions are re-checked under those Top states, and the result
/// carries RunStatus::Degraded with the tripped reason. Exceptions
/// other than BudgetExceeded (bad_alloc, injected faults) propagate to
/// the caller; the batch runtime isolates them per job.
///
/// Thread-safety contract (relied on by src/runtime): analyze() is
/// re-entrant — it keeps all state in locals and touches no mutable
/// globals, so any number of engines may run concurrently on distinct
/// Cfg objects. The pieces it builds on uphold the same contract:
///   * the domains' statistics sinks (setOctStatsSink /
///     setApronStatsSink) and the baseline closure-mode selector are
///     thread-local — install per-thread, around each job;
///   * the octagon closure scratch is thread-local (see
///     reserveClosureScratch for pre-warming worker threads);
///   * octConfig() is read-mostly process state: configure it before
///     spawning analysis threads and leave it alone while they run.
/// The Cfg and the AST it points into are read-only during analysis and
/// may be shared across threads.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_ANALYSIS_ENGINE_H
#define OPTOCT_ANALYSIS_ENGINE_H

#include "analysis/transfer.h"
#include "cfg/cfg.h"
#include "support/budget.h"
#include "support/faultinject.h"
#include "support/stats.h"
#include "support/timing.h"

#include <optional>
#include <set>
#include <string>
#include <vector>

namespace optoct::analysis {

/// Engine knobs.
struct AnalysisOptions {
  /// Joins performed at a loop head before switching to widening.
  unsigned WideningDelay = 2;
  /// Descending (narrowing) sweeps after stabilization.
  unsigned NarrowingPasses = 1;
  /// Block-visit fuel: exceeding it degrades the run to Top invariants
  /// with RunStatus::Degraded (a recoverable result, not an assert).
  unsigned MaxBlockVisits = 100000;
  /// Interval-linearize non-octagonal guards (a sound precision
  /// extension in the spirit of APRON's tree-constraint handling).
  bool LinearizeGuards = true;
  /// Widening thresholds (variable-level bounds, ascending). When
  /// non-empty, growing bounds land on the next threshold before
  /// +infinity, often recovering loop bounds without narrowing.
  std::vector<double> WideningThresholds;
};

/// How a run ended.
enum class RunStatus {
  Ok,       ///< Converged within budget; invariants are the fixpoint.
  Degraded, ///< A budget tripped; invariants are sound but Top.
};

/// Per-run results.
template <typename DomainT> struct AnalysisResult {
  /// Invariant at each block entry; nullopt = unreachable.
  std::vector<std::optional<DomainT>> BlockInvariant;
  std::vector<AssertOutcome> Asserts;
  std::uint64_t BlockVisits = 0;
  std::uint64_t OctagonCycles = 0; ///< Cycles spent in domain operations.

  RunStatus Status = RunStatus::Ok;
  /// Which budget tripped when Status == Degraded.
  support::BudgetReason DegradedBy = support::BudgetReason::None;
  std::string StatusDetail; ///< Human-readable degradation cause.

  unsigned assertsProven() const {
    unsigned N = 0;
    for (const AssertOutcome &A : Asserts)
      N += A.Proven;
    return N;
  }
};

/// Runs the analysis of \p G with domain \p DomainT.
template <typename DomainT>
AnalysisResult<DomainT> analyze(const cfg::Cfg &G,
                                const AnalysisOptions &Opts = {}) {
  AnalysisResult<DomainT> Result;
  std::size_t NumBlocks = G.size();
  Result.BlockInvariant.resize(NumBlocks);
  std::vector<unsigned> JoinCount(NumBlocks, 0);

  std::uint64_t OctCycles = 0;

  // Worklist ordered by reverse post-order index.
  auto Less = [&G](unsigned A, unsigned B) {
    return G.rpoIndex(A) < G.rpoIndex(B) || (G.rpoIndex(A) == G.rpoIndex(B) && A < B);
  };
  std::set<unsigned, decltype(Less)> Worklist(Less);

  Result.BlockInvariant[G.entry()] =
      DomainT::makeTop(G.block(G.entry()).NumSlots);
  Worklist.insert(G.entry());

  // A loop head's slot holds an unclosed widening or narrowing iterate
  // (IsIterate). Widening reads it as stored; every other read wants
  // its closed form, so a closed copy is made once, lazily, beside it
  // (copy + isBottom, which every domain has) and dropped whenever the
  // slot is stored. Any other slot is read as stored: a join result and
  // a post-state that isBottom closed are closed already.
  std::vector<char> IsIterate(NumBlocks, 0);
  std::vector<std::optional<DomainT>> ClosedIterate(NumBlocks);
  auto closedSlot = [&](unsigned B) -> DomainT & {
    if (!IsIterate[B])
      return *Result.BlockInvariant[B];
    std::optional<DomainT> &Copy = ClosedIterate[B];
    if (!Copy) {
      Copy.emplace(*Result.BlockInvariant[B]);
      Copy->isBottom();
    }
    return *Copy;
  };
  auto store = [&](unsigned B, DomainT Value, bool Iterate) {
    Result.BlockInvariant[B] = std::move(Value);
    IsIterate[B] = Iterate;
    ClosedIterate[B].reset();
  };

  // Propagates the post-state \p Out of a block along \p E, merging it
  // into the target. Returns true when the target changed.
  auto propagate = [&](DomainT Out, const cfg::Edge &E, bool Widen) {
    std::uint64_t Begin = readCycles();
    bool Changed = false;
    applyEdge(Out, E, Opts.LinearizeGuards);
    if (!Out.isBottom()) {
      std::optional<DomainT> &Target = Result.BlockInvariant[E.Target];
      if (!Target) {
        store(E.Target, std::move(Out), /*Iterate=*/false);
        Changed = true;
      } else if (!Out.leq(*Target)) {
        DomainT Joined = DomainT::join(closedSlot(E.Target), Out);
        if (Widen)
          Joined = Opts.WideningThresholds.empty()
                       ? DomainT::widen(*Target, Joined)
                       : DomainT::widenWithThresholds(
                             *Target, Joined, Opts.WideningThresholds);
        store(E.Target, std::move(Joined), /*Iterate=*/Widen);
        Changed = true;
      }
    }
    OctCycles += readCycles() - Begin;
    return Changed;
  };

  try {
  while (!Worklist.empty()) {
    unsigned B = *Worklist.begin();
    Worklist.erase(Worklist.begin());
    if (++Result.BlockVisits > Opts.MaxBlockVisits)
      throw support::BudgetExceeded(
          support::BudgetReason::BlockVisits,
          "block-visit budget exhausted (widening not converging?)");
    support::pollBudget();
    support::faultPoint("engine.visit");

    const cfg::BasicBlock &Block = G.block(B);
    std::uint64_t Begin = readCycles();
    DomainT State = closedSlot(B);
    for (const lang::Stmt *S : Block.Stmts)
      applyStmt(State, *S, nullptr, Opts.LinearizeGuards);
    OctCycles += readCycles() - Begin;

    for (std::size_t I = 0, NumSuccs = Block.Succs.size(); I != NumSuccs;
         ++I) {
      const cfg::Edge &E = Block.Succs[I];
      bool TargetIsLoopHead = G.block(E.Target).IsLoopHead;
      bool Widen = false;
      if (TargetIsLoopHead && Result.BlockInvariant[E.Target]) {
        // Count merges into the loop head; widen once the delay is
        // spent.
        Widen = ++JoinCount[E.Target] > Opts.WideningDelay;
      }
      bool Changed = I + 1 == NumSuccs ? propagate(std::move(State), E, Widen)
                                       : propagate(State, E, Widen);
      if (Changed)
        Worklist.insert(E.Target);
    }
  }

  // Narrowing: decreasing sweeps from the reached post-fixpoint.
  // Each block's input is recomputed from its predecessors' post-states;
  // loop heads tighten with the narrowing operator, other blocks take
  // the recomputed value (sound: transfer functions are monotone and
  // the iteration starts at a post-fixpoint). A predecessor's post-state
  // is recomputed for each edge that reads it, not kept for its later
  // successors: kept, the post-states of loop heads and branches stay
  // live while the blocks between their successors are swept, which
  // raised a daemon worker's peak resident memory by about 0.35 MB on
  // the small daemon-churn programs.
  for (unsigned Pass = 0; Pass != Opts.NarrowingPasses; ++Pass) {
    std::uint64_t Begin = readCycles();
    for (unsigned B : G.rpo()) {
      support::pollBudget();
      if (B == G.entry())
        continue;
      std::optional<DomainT> NewIn;
      for (unsigned P : G.preds()[B]) {
        if (!Result.BlockInvariant[P])
          continue;
        for (const cfg::Edge &E : G.block(P).Succs) {
          if (E.Target != B)
            continue;
          DomainT Out = closedSlot(P);
          for (const lang::Stmt *S : G.block(P).Stmts)
            applyStmt(Out, *S, nullptr, Opts.LinearizeGuards);
          applyEdge(Out, E, Opts.LinearizeGuards);
          if (Out.isBottom())
            continue;
          NewIn = NewIn ? std::optional<DomainT>(DomainT::join(*NewIn, Out))
                        : std::optional<DomainT>(std::move(Out));
        }
      }
      if (!NewIn || !Result.BlockInvariant[B])
        continue;
      if (G.block(B).IsLoopHead)
        store(B, DomainT::narrow(closedSlot(B), *NewIn), /*Iterate=*/true);
      else
        store(B, std::move(*NewIn), /*Iterate=*/false);
    }
    OctCycles += readCycles() - Begin;
  }
  } catch (const support::BudgetExceeded &E) {
    // A budget tripped mid-iteration: the stored states are not a
    // fixpoint and must not be reported as invariants. Degrade every
    // block to Top — trivially sound and pointwise weaker than the
    // converged result — then run the final pass under those states.
    // Polling is muted so the cleanup cannot trip the same budget;
    // the caller's BudgetScope restores the token on unwind.
    support::disarmCurrentBudget();
    Result.Status = RunStatus::Degraded;
    Result.DegradedBy = E.reason();
    Result.StatusDetail = E.what();
    for (unsigned B = 0; B != NumBlocks; ++B)
      store(B, DomainT::makeTop(G.block(B).NumSlots), /*Iterate=*/false);
  }

  // Final pass: recheck assertions under the stable invariants.
  for (unsigned B : G.rpo()) {
    if (!Result.BlockInvariant[B]) {
      // Unreachable block: its assertions hold vacuously.
      for (const lang::Stmt *S : G.block(B).Stmts)
        if (S->Kind == lang::StmtKind::Assert)
          Result.Asserts.push_back({S->Line, true});
      continue;
    }
    std::uint64_t Begin = readCycles();
    DomainT State = closedSlot(B);
    for (const lang::Stmt *S : G.block(B).Stmts)
      applyStmt(State, *S, &Result.Asserts, Opts.LinearizeGuards);
    OctCycles += readCycles() - Begin;
  }

  Result.OctagonCycles = OctCycles;
  return Result;
}

} // namespace optoct::analysis

#endif // OPTOCT_ANALYSIS_ENGINE_H
