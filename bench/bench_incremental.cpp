//===- bench/bench_incremental.cpp - A4: incremental closure --------------===//
///
/// \file
/// Experiment A4 (Section 5.6): on an almost-closed DBM — a strongly
/// closed matrix with one variable's band tightened, the situation after
/// every assignment — the incremental closure restores strong closure in
/// quadratic time versus the cubic full closure.
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
