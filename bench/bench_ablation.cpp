//===- bench/bench_ablation.cpp - A5: optimization ablations --------------===//
///
/// \file
/// Experiment A5: each of the paper's optimizations toggled
/// independently on the jwgqbjzs workload (the most closure-heavy one):
///
///   * full OptOctagon (everything on),
///   * vectorization off (the pinned-scalar SIMD tier for every kernel),
///   * sparse closure off (dense closures regardless of density),
///   * decomposition off (monolithic matrices, no components),
///   * sparsity threshold sweep (t in {0.5, 0.75, 0.9}),
///
/// plus the APRON baseline for scale.
///
//===----------------------------------------------------------------------===//

#include "oct/config.h"
#include "oct/simd_dispatch.h"
#include "support/table.h"
#include "workloads/harness.h"

#include <cstdio>
#include <functional>

using namespace optoct;
using namespace optoct::workloads;

int main() {
  const WorkloadSpec *Spec = findBenchmark("jwgqbjzs");
  if (!Spec) {
    std::fprintf(stderr, "jwgqbjzs benchmark missing\n");
    return 1;
  }

  std::printf("=== Ablation: the paper's optimizations, toggled on "
              "jwgqbjzs ===\n\n");

  struct Config {
    const char *Name;
    std::function<void()> Apply;
  };
  const Config Configs[] = {
      {"full OptOctagon", [] {}},
      {"no vectorization", [] { simdForceTier(SimdTier::Scalar); }},
      {"no sparse closure", [] { octConfig().EnableSparse = false; }},
      {"no decomposition",
       [] { octConfig().EnableDecomposition = false; }},
      {"no decomp, no sparse, no vec (scalar Alg. 3 only)",
       [] {
         octConfig().EnableDecomposition = false;
         octConfig().EnableSparse = false;
         simdForceTier(SimdTier::Scalar);
       }},
      {"threshold t = 0.5", [] { octConfig().SparsityThreshold = 0.5; }},
      {"threshold t = 0.9", [] { octConfig().SparsityThreshold = 0.9; }},
  };

  TextTable Table({"Configuration", "analysis ms", "#closures",
                   "closure Mcycles"});
  OctConfig Saved = octConfig();
  SimdTier SavedTier = activeSimdTier();
  for (const Config &C : Configs) {
    octConfig() = Saved;
    simdForceTier(SavedTier);
    C.Apply();
    RunResult R = runWorkload(*Spec, Library::OptOctagon);
    Table.addRow({C.Name, TextTable::num(R.WallSeconds * 1e3, 1),
                  std::to_string(R.NumClosures),
                  TextTable::num(static_cast<double>(R.ClosureCycles) / 1e6,
                                 1)});
  }
  octConfig() = Saved;
  simdForceTier(SavedTier);
  RunResult Apron = runWorkload(*Spec, Library::Apron);
  Table.addRow({"APRON baseline", TextTable::num(Apron.WallSeconds * 1e3, 1),
                std::to_string(Apron.NumClosures),
                TextTable::num(static_cast<double>(Apron.ClosureCycles) / 1e6,
                               1)});
  std::printf("%s\n", Table.render().c_str());
  return 0;
}
