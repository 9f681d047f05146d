//===- bench/bench_incremental.cpp - A4: incremental closure --------------===//
///
/// \file
/// Experiment A4 (Section 5.6): on an almost-closed DBM — a strongly
/// closed matrix with one variable's band tightened — the incremental
/// closure restores strong closure in quadratic time versus the cubic
/// full closure.
///
/// The x := y + c rows compare the three ways an assignment on a closed
/// element can be closed: the closed-form copy Octagon::assign runs
/// (x's rows written from y's, BM_AssignCopy), the forget-then-meet
/// matrix closed by the pivot passes over x and y
/// (BM_AssignIncremental), and the same matrix closed in full
/// (BM_AssignFull). Every iteration first copies its input back;
/// BM_AssignFloorCopy and BM_AssignFloorMeet time that copy (and, for
/// the matrix rows, the forget and meet) alone, so the difference to
/// them is the closure's own time.
///
/// The |T| sweep sizes Octagon::DeferredCloseCutoff. A closed component
/// of n variables gains guards over |T| of them (a unary bound on each
/// and a difference between neighbours, the shape a batch of guards
/// leaves); BM_SweepIncremental restores closure with the |T| pivot
/// passes and one strengthening, BM_SweepFull with the full dense
/// closure of the same input. Their ratio per (n, |T|) is the crossover
/// table in EXPERIMENTS.md.
///
//===----------------------------------------------------------------------===//

#include "baseline/closure_apron.h"
#include "oct/closure_dense.h"
#include "oct/closure_incremental.h"
#include "oct/dbm.h"
#include "oct/octagon.h"
#include "support/random.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

using namespace optoct;

namespace {

/// A random strongly closed matrix over \p NumVars variables.
HalfDbm makeClosed(unsigned NumVars) {
  Rng R(4321 + NumVars);
  HalfDbm M(NumVars);
  M.initTop();
  for (unsigned I = 0, D = M.dim(); I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      if (I != J && R.chance(0.6))
        M.at(I, J) = R.intIn(0, 40);
  ClosureScratch Scratch;
  closureDense(M, Scratch);
  return M;
}

/// A closed matrix plus one tightened band around variable 0.
HalfDbm makeAlmostClosed(unsigned NumVars) {
  HalfDbm M = makeClosed(NumVars);
  // Tighten a few entries in variable 0's band.
  for (unsigned I = 2; I != std::min(M.dim(), 10u); ++I)
    M.set(I, 0, 1.0);
  return M;
}

/// A closed matrix met with guards over variables 0..NumTouched-1: an
/// upper bound on each and x_{k+1} - x_k <= 1 between neighbours. Every
/// entry they lower lies in the touched variables' bands.
HalfDbm makeGuarded(unsigned NumVars, unsigned NumTouched) {
  HalfDbm M = makeClosed(NumVars);
  auto Lower = [&M](unsigned I, unsigned J, double V) {
    M.set(I, J, std::min(M.get(I, J), V));
  };
  for (unsigned K = 0; K != NumTouched; ++K) {
    Lower(2 * K + 1, 2 * K, 2.0); // 2x_k <= 2
    if (K + 1 != NumTouched)
      Lower(2 * K, 2 * (K + 1), 1.0); // x_{k+1} - x_k <= 1
  }
  return M;
}

std::vector<unsigned> firstVars(unsigned Count) {
  std::vector<unsigned> Vars(Count);
  for (unsigned V = 0; V != Count; ++V)
    Vars[V] = V;
  return Vars;
}

void BM_IncrementalClosure(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  HalfDbm Input = makeAlmostClosed(N);
  HalfDbm Work(N);
  ClosureScratch Scratch;
  // The tightened arcs touch variable 0 and variables 1..4.
  std::vector<unsigned> Touched = firstVars(std::min(N, 5u));
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(incrementalClosureDense(Work, Touched, Scratch));
  }
}
BENCHMARK(BM_IncrementalClosure)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_FullClosureAfterUpdate(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  HalfDbm Input = makeAlmostClosed(N);
  HalfDbm Work(N);
  ClosureScratch Scratch;
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(closureDense(Work, Scratch));
  }
}
BENCHMARK(BM_FullClosureAfterUpdate)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_ApronIncrementalClosure(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  HalfDbm Input = makeAlmostClosed(N);
  HalfDbm Work(N);
  std::vector<unsigned> Touched = firstVars(std::min(N, 5u));
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(baseline::incrementalClosureApron(Work, Touched));
  }
}
BENCHMARK(BM_ApronIncrementalClosure)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

/// x := y + c on a closed matrix, forget-then-meet: x's rows forgotten,
/// then x - y <= c and y - x <= -c met. Closure is left to the caller.
void forgetAndMeet(HalfDbm &M, unsigned X, unsigned Y, double C) {
  for (unsigned I = 0, D = M.dim(); I != D; ++I)
    if (I / 2 != X) {
      M.set(I, 2 * X, Infinity);
      M.set(I, 2 * X + 1, Infinity);
    }
  M.set(2 * X, 2 * X + 1, Infinity);
  M.set(2 * X + 1, 2 * X, Infinity);
  M.set(2 * Y, 2 * X, C);
  M.set(2 * X, 2 * Y, -C);
}

constexpr unsigned AssignX = 0, AssignY = 1;
constexpr double AssignC = 3.0;

/// The closed matrix of makeClosed as an Octagon: its finite entries
/// met into Top and closed (it comes out Dense).
Octagon makeClosedOctagon(unsigned NumVars) {
  HalfDbm Closed = makeClosed(NumVars);
  std::vector<OctCons> Cs;
  for (unsigned I = 0, D = Closed.dim(); I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J) {
      double B = Closed.at(I, J);
      if (I == J || !isFinite(B))
        continue;
      unsigned VA = I / 2, VB = J / 2;
      if (VA == VB)
        Cs.push_back(I & 1u ? OctCons::upper(VA, B / 2)
                            : OctCons::lower(VA, B / 2));
      else
        Cs.push_back({J & 1u ? -1 : +1, VB, I & 1u ? +1 : -1, VA, B});
    }
  Octagon O(NumVars);
  O.addConstraints(Cs);
  O.close();
  return O;
}

void BM_AssignCopy(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Octagon Input = makeClosedOctagon(N);
  LinExpr E = LinExpr::variable(AssignY);
  E.Const = AssignC;
  Octagon Work = Input;
  for (auto _ : State) {
    Work = Input;
    Work.assign(AssignX, E);
    benchmark::DoNotOptimize(Work.isClosed());
  }
}
BENCHMARK(BM_AssignCopy)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_AssignFloorCopy(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Octagon Input = makeClosedOctagon(N);
  Octagon Work = Input;
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(Work.isClosed());
  }
}
BENCHMARK(BM_AssignFloorCopy)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_AssignFloorMeet(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  HalfDbm Input = makeClosed(N);
  HalfDbm Work(N);
  for (auto _ : State) {
    Work = Input;
    forgetAndMeet(Work, AssignX, AssignY, AssignC);
    benchmark::DoNotOptimize(Work.data());
  }
}
BENCHMARK(BM_AssignFloorMeet)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_AssignIncremental(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  HalfDbm Input = makeClosed(N);
  HalfDbm Work(N);
  ClosureScratch Scratch;
  std::vector<unsigned> Touched = {AssignX, AssignY};
  for (auto _ : State) {
    Work = Input;
    forgetAndMeet(Work, AssignX, AssignY, AssignC);
    benchmark::DoNotOptimize(incrementalClosureDense(Work, Touched, Scratch));
  }
}
BENCHMARK(BM_AssignIncremental)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_AssignFull(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  HalfDbm Input = makeClosed(N);
  HalfDbm Work(N);
  ClosureScratch Scratch;
  for (auto _ : State) {
    Work = Input;
    forgetAndMeet(Work, AssignX, AssignY, AssignC);
    benchmark::DoNotOptimize(closureDense(Work, Scratch));
  }
}
BENCHMARK(BM_AssignFull)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

/// (n, |T|) pairs of the sweep: |T| from 1 up to n at each component
/// size.
void sweepArgs(benchmark::internal::Benchmark *B) {
  for (int N : {16, 32, 64, 96})
    for (int T : {1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96})
      if (T <= N)
        B->Args({N, T});
}

void BM_SweepIncremental(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  unsigned T = static_cast<unsigned>(State.range(1));
  HalfDbm Input = makeGuarded(N, T);
  HalfDbm Work(N);
  ClosureScratch Scratch;
  std::vector<unsigned> Touched = firstVars(T);
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(incrementalClosureDense(Work, Touched, Scratch));
  }
}
BENCHMARK(BM_SweepIncremental)->Apply(sweepArgs);

void BM_SweepFull(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  unsigned T = static_cast<unsigned>(State.range(1));
  HalfDbm Input = makeGuarded(N, T);
  HalfDbm Work(N);
  ClosureScratch Scratch;
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(closureDense(Work, Scratch));
  }
}
BENCHMARK(BM_SweepFull)->Apply(sweepArgs);

} // namespace

BENCHMARK_MAIN();
