//===- bench/bench_table2_stats.cpp - Table 2 reproduction ----------------===//
///
/// \file
/// Reproduces Table 2: per benchmark, the minimum and maximum number of
/// variables in DBMs at closure time and the number of closure
/// operations, next to the paper's published values. Sizes are scaled
/// (see workloads/benchmarks.cpp), so the columns should match in shape,
/// not absolutely. #closures counts full closures; the incremental
/// closures after assignments and guards (Section 5.6) are a column of
/// their own.
///
//===----------------------------------------------------------------------===//

#include "support/table.h"
#include "workloads/harness.h"

#include <cstdio>

using namespace optoct;
using namespace optoct::workloads;

int main() {
  std::printf("=== Table 2: closure statistics per benchmark ===\n");
  std::printf("(measured with OptOctagon; paper values in parentheses)\n\n");

  TextTable Table({"Benchmark", "Analyzer", "n_min (paper)", "n_max (paper)",
                   "#closures (paper)", "#incremental", "asserts"});
  for (const WorkloadSpec &Spec : paperBenchmarks()) {
    RunResult R = runWorkload(Spec, Library::OptOctagon);
    char NMin[32], NMax[32], Clo[32], Incr[32], Asserts[32];
    std::snprintf(NMin, sizeof(NMin), "%u (%u)", R.NMin, Spec.PaperNMin);
    std::snprintf(NMax, sizeof(NMax), "%u (%u)", R.NMax, Spec.PaperNMax);
    std::snprintf(Clo, sizeof(Clo), "%llu (%u)",
                  static_cast<unsigned long long>(R.NumClosures),
                  Spec.PaperClosures);
    std::snprintf(Incr, sizeof(Incr), "%llu",
                  static_cast<unsigned long long>(R.IncrementalClosures));
    std::snprintf(Asserts, sizeof(Asserts), "%u/%u", R.AssertsProven,
                  R.AssertsTotal);
    Table.addRow({Spec.Name, Spec.Analyzer, NMin, NMax, Clo, Incr, Asserts});
  }
  std::printf("%s\n", Table.render().c_str());
  return 0;
}
