//===- tests/reference_engine.h - The copying fixpoint step -----*- C++ -*-===//
///
/// \file
/// referenceAnalyze: the worklist engine as it was before the copy-free
/// step, kept as a test oracle (without its cycle timing and fault
/// site, which do not shape results). Its propagate copies the stored
/// target to join it (TargetCopy), widens, then copies the result again
/// to test inclusion (Probe); its narrowing sweep recomputes a
/// predecessor's post-state once per (predecessor, edge). The engine in
/// analysis/engine.h tests inclusion before it joins, reads the stored
/// target through const operators, and moves instead of copying where
/// it can; expectMatchesReference checks that this changes nothing a
/// caller can observe, and that it never closes more often.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_TESTS_REFERENCE_ENGINE_H
#define OPTOCT_TESTS_REFERENCE_ENGINE_H

#include "analysis/engine.h"
#include "baseline/apron_octagon.h"
#include "oct/octagon.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

namespace optoct::testing {

template <typename DomainT>
analysis::AnalysisResult<DomainT>
referenceAnalyze(const cfg::Cfg &G, const analysis::AnalysisOptions &Opts = {}) {
  using namespace analysis;
  AnalysisResult<DomainT> Result;
  std::size_t NumBlocks = G.size();
  Result.BlockInvariant.resize(NumBlocks);
  std::vector<unsigned> JoinCount(NumBlocks, 0);

  auto Less = [&G](unsigned A, unsigned B) {
    return G.rpoIndex(A) < G.rpoIndex(B) ||
           (G.rpoIndex(A) == G.rpoIndex(B) && A < B);
  };
  std::set<unsigned, decltype(Less)> Worklist(Less);

  Result.BlockInvariant[G.entry()] =
      DomainT::makeTop(G.block(G.entry()).NumSlots);
  Worklist.insert(G.entry());

  auto propagate = [&](DomainT Out, const cfg::Edge &E, bool Widen) {
    bool Changed = false;
    applyEdge(Out, E, Opts.LinearizeGuards);
    if (!Out.isBottom()) {
      std::optional<DomainT> &Target = Result.BlockInvariant[E.Target];
      if (!Target) {
        Target = std::move(Out);
        Changed = true;
      } else {
        DomainT TargetCopy = *Target;
        DomainT Joined = DomainT::join(TargetCopy, Out);
        if (Widen)
          Joined = Opts.WideningThresholds.empty()
                       ? DomainT::widen(*Target, Joined)
                       : DomainT::widenWithThresholds(
                             *Target, Joined, Opts.WideningThresholds);
        DomainT Probe = Joined;
        if (!Probe.leq(*Target)) {
          *Target = std::move(Joined);
          Changed = true;
        }
      }
    }
    return Changed;
  };

  try {
    while (!Worklist.empty()) {
      unsigned B = *Worklist.begin();
      Worklist.erase(Worklist.begin());
      if (++Result.BlockVisits > Opts.MaxBlockVisits)
        throw support::BudgetExceeded(support::BudgetReason::BlockVisits,
                                      "block-visit budget exhausted");
      support::pollBudget();

      const cfg::BasicBlock &Block = G.block(B);
      DomainT State = *Result.BlockInvariant[B];
      for (const lang::Stmt *S : Block.Stmts)
        applyStmt(State, *S, nullptr, Opts.LinearizeGuards);

      for (const cfg::Edge &E : Block.Succs) {
        bool Widen = false;
        if (G.block(E.Target).IsLoopHead && Result.BlockInvariant[E.Target])
          Widen = ++JoinCount[E.Target] > Opts.WideningDelay;
        if (propagate(State, E, Widen))
          Worklist.insert(E.Target);
      }
    }

    for (unsigned Pass = 0; Pass != Opts.NarrowingPasses; ++Pass) {
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
            DomainT Out = *Result.BlockInvariant[P];
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
          Result.BlockInvariant[B] =
              DomainT::narrow(*Result.BlockInvariant[B], *NewIn);
        else
          Result.BlockInvariant[B] = std::move(*NewIn);
      }
    }
  } catch (const support::BudgetExceeded &E) {
    support::disarmCurrentBudget();
    Result.Status = RunStatus::Degraded;
    Result.DegradedBy = E.reason();
    Result.StatusDetail = E.what();
    for (std::size_t B = 0; B != NumBlocks; ++B)
      Result.BlockInvariant[B] =
          DomainT::makeTop(G.block(static_cast<unsigned>(B)).NumSlots);
  }

  for (unsigned B : G.rpo()) {
    if (!Result.BlockInvariant[B]) {
      for (const lang::Stmt *S : G.block(B).Stmts)
        if (S->Kind == lang::StmtKind::Assert)
          Result.Asserts.push_back({S->Line, true});
      continue;
    }
    DomainT State = *Result.BlockInvariant[B];
    for (const lang::Stmt *S : G.block(B).Stmts)
      applyStmt(State, *S, &Result.Asserts, Opts.LinearizeGuards);
  }
  return Result;
}

/// Routes the closures of \p DomainT on this thread to a sink.
inline void installClosureSink(const Octagon *, OctStats *S) {
  setOctStatsSink(S);
}
inline void installClosureSink(const baseline::ApronOctagon *, OctStats *S) {
  baseline::setApronStatsSink(S);
}

/// Runs analyze and referenceAnalyze on \p G and expects the same
/// observable result: every block's rendered invariant and Closed flag
/// (a stored widening iterate stays unclosed in both), the assertion
/// outcomes, the block visits and the run status. The copy-free step
/// must also never close more often than the reference.
template <typename DomainT>
void expectMatchesReference(const cfg::Cfg &G,
                            const analysis::AnalysisOptions &Opts,
                            const std::string &What) {
  SCOPED_TRACE(What);
  OctStats Fast, Ref;
  installClosureSink(static_cast<const DomainT *>(nullptr), &Fast);
  analysis::AnalysisResult<DomainT> A = analysis::analyze<DomainT>(G, Opts);
  installClosureSink(static_cast<const DomainT *>(nullptr), &Ref);
  analysis::AnalysisResult<DomainT> R = referenceAnalyze<DomainT>(G, Opts);
  installClosureSink(static_cast<const DomainT *>(nullptr), nullptr);

  EXPECT_EQ(A.BlockVisits, R.BlockVisits);
  EXPECT_EQ(A.Status, R.Status);
  ASSERT_EQ(A.Asserts.size(), R.Asserts.size());
  for (std::size_t I = 0; I != A.Asserts.size(); ++I) {
    EXPECT_EQ(A.Asserts[I].Line, R.Asserts[I].Line);
    EXPECT_EQ(A.Asserts[I].Proven, R.Asserts[I].Proven)
        << "line " << A.Asserts[I].Line;
  }
  ASSERT_EQ(A.BlockInvariant.size(), R.BlockInvariant.size());
  for (std::size_t B = 0; B != A.BlockInvariant.size(); ++B) {
    ASSERT_EQ(A.BlockInvariant[B].has_value(), R.BlockInvariant[B].has_value())
        << "block " << B;
    if (!A.BlockInvariant[B])
      continue;
    EXPECT_EQ(A.BlockInvariant[B]->isClosed(), R.BlockInvariant[B]->isClosed())
        << "block " << B;
    DomainT AI = *A.BlockInvariant[B], RI = *R.BlockInvariant[B];
    EXPECT_EQ(AI.str(), RI.str()) << "block " << B;
  }
  EXPECT_LE(Fast.numClosures(), Ref.numClosures());
}

} // namespace optoct::testing

#endif // OPTOCT_TESTS_REFERENCE_ENGINE_H
