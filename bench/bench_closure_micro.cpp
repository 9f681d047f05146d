//===- bench/bench_closure_micro.cpp - Closure micro-benchmarks -----------===//
///
/// \file
/// Experiment A1: isolates the paper's closure-level claims on random
/// DBMs — the operation-count halving of Algorithm 3 (vs. APRON's
/// Algorithm 2 and vs. full-DBM Floyd-Warshall), the effect of
/// vectorization + locality, and the sparse closure's gains on sparse
/// inputs — as a function of the number of variables.
///
//===----------------------------------------------------------------------===//

#include "baseline/closure_apron.h"
#include "oct/closure_dense.h"
#include "oct/closure_reference.h"
#include "oct/closure_sparse.h"
#include "oct/dbm.h"
#include "oct/simd_dispatch.h"
#include "support/random.h"

#include <benchmark/benchmark.h>

using namespace optoct;

namespace {

/// A reusable random input matrix (copied into the working buffer each
/// iteration so every closure starts from the same unclosed state).
HalfDbm makeInput(unsigned NumVars, double Density) {
  Rng R(1234 + NumVars);
  HalfDbm M(NumVars);
  M.initTop();
  for (unsigned I = 0, D = M.dim(); I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      if (I != J && R.chance(Density))
        M.at(I, J) = R.intIn(0, 40); // non-negative: no empty octagons
  return M;
}

void BM_ClosureApron(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  HalfDbm Input = makeInput(N, 0.9);
  HalfDbm Work(N);
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(baseline::closureApron(Work));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ClosureApron)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_ClosureFullReference(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  HalfDbm Input = makeInput(N, 0.9);
  for (auto _ : State) {
    FullDbm Work(Input);
    benchmark::DoNotOptimize(closureFullReference(Work));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ClosureFullReference)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_ClosureFW(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  HalfDbm Input = makeInput(N, 0.9);
  HalfDbm Work(N);
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(baseline::closureVectorizedFW(Work));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ClosureFW)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_ClosureDenseScalar(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  SimdTier Saved = activeSimdTier();
  simdForceTier(SimdTier::Scalar);
  HalfDbm Input = makeInput(N, 0.9);
  HalfDbm Work(N);
  ClosureScratch Scratch;
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(closureDense(Work, Scratch));
  }
  simdForceTier(Saved);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ClosureDenseScalar)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_ClosureDenseVectorized(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  HalfDbm Input = makeInput(N, 0.9);
  HalfDbm Work(N);
  ClosureScratch Scratch;
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(closureDense(Work, Scratch));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ClosureDenseVectorized)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

/// Sparse closure on matrices of varying density (second argument is
/// density in percent).
void BM_ClosureSparse(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  double Density = static_cast<double>(State.range(1)) / 100.0;
  HalfDbm Input = makeInput(N, Density);
  HalfDbm Work(N);
  ClosureScratch Scratch;
  std::size_t Nni = 0;
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(closureSparse(Work, Scratch, Nni));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ClosureSparse)
    ->Args({64, 1})
    ->Args({64, 5})
    ->Args({64, 20})
    ->Args({64, 90})
    ->Args({96, 1})
    ->Args({96, 5});

} // namespace

BENCHMARK_MAIN();
