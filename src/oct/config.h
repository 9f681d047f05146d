//===- oct/config.h - Runtime configuration of the library ------*- C++ -*-===//
///
/// \file
/// Global knobs corresponding to the paper's design choices, exposed so
/// the ablation benchmarks (bench_ablation, bench_fig7_trace) and the
/// CLI analyzer (`optoct --no-decomposition`, `--no-sparse`,
/// `--threshold=t`) can toggle each optimization independently:
///   * SparsityThreshold — the t in "use Dense if D < t" (Section 3.5).
///   * EnableDecomposition — maintain independent components (Section 3.3).
///   * EnableSparse — use the sparse closure for sparse DBMs (Section 5.3).
/// Strengthening has one mode, the paper's: decomposed strengthening
/// merges every component holding a unary bound (Section 5.4).
///
/// The knobs are set in-process only; no environment variable reaches
/// them. The batch runtime, optoctd and the C API never write them, so
/// every serving path runs the defaults below, and a request's
/// canonical bytes depend on no representation setting.
/// The scalar/vector ablation (Section 5.2) is the SIMD tier alone:
/// OPTOCT_SIMD=scalar|avx2|avx512 (read by oct/simd_dispatch.cpp at
/// startup), or simdForceTier(SimdTier::Scalar) in-process.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_CONFIG_H
#define OPTOCT_OCT_CONFIG_H

namespace optoct {

/// Mutable global configuration. Read-mostly and process-wide: the
/// domain only ever reads it, so any number of concurrent analyses may
/// run under one configuration. Writes are not synchronized — flip the
/// knobs only while no analysis thread is running (benchmarks toggle
/// them between runs; the CLI sets them before it analyzes).
struct OctConfig {
  /// Sparsity decision threshold t (Section 3.5): a DBM with sparsity
  /// D = 1 - nni/(2n^2+2n) is treated as dense when D < t.
  double SparsityThreshold = 0.75;

  /// Maintain and exploit independent components (online decomposition).
  bool EnableDecomposition = true;

  /// Use the index-driven sparse closure when D >= SparsityThreshold.
  bool EnableSparse = true;
};

/// Library-wide configuration instance.
OctConfig &octConfig();

} // namespace optoct

#endif // OPTOCT_OCT_CONFIG_H
