//===- oct/config.h - Runtime configuration of the library ------*- C++ -*-===//
///
/// \file
/// Global knobs corresponding to the paper's design choices, exposed so
/// the ablation benchmarks (bench_ablation) can toggle each optimization
/// independently:
///   * SparsityThreshold — the t in "use Dense if D < t" (Section 3.5).
///   * EnableDecomposition — maintain independent components (Section 3.3).
///   * EnableSparse — use the sparse closure for sparse DBMs (Section 5.3).
/// Strengthening has one mode, the paper's: decomposed strengthening
/// merges every component holding a unary bound (Section 5.4).
///
/// Every knob's *initial* value can be overridden from the environment,
/// so CI legs and external harnesses can force a configuration without
/// recompiling (the benches record these variables in their JSON
/// headers for cross-machine comparability):
///   * OPTOCT_DECOMPOSITION=0        — no independent components
///   * OPTOCT_SPARSE=0               — no sparse closure
///   * OPTOCT_SPARSITY_THRESHOLD=t   — the Section 3.5 threshold, in [0,1]
///   * OPTOCT_SIMD=scalar|avx2|avx512 — force a kernel tier (this one is
///     read by oct/simd_dispatch.cpp at startup, not through octConfig())
/// The scalar/vector ablation (Section 5.2) is the SIMD tier alone:
/// OPTOCT_SIMD=scalar, or simdForceTier(SimdTier::Scalar) in-process.
/// For the boolean flags, "0" means off and any other non-empty value
/// means on; unset/empty keeps the built-in default. The variables are
/// read once, on first use of octConfig(); later writes through
/// octConfig() still win (the ablation benches toggle knobs between
/// runs as before).
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_CONFIG_H
#define OPTOCT_OCT_CONFIG_H

namespace optoct {

/// Mutable global configuration. Read-mostly and process-wide: the
/// domain only ever reads it, so any number of concurrent analyses may
/// run under one configuration. Writes are not synchronized — flip the
/// knobs only while no analysis thread is running (benchmarks toggle
/// them between runs; the batch runtime configures before spawning
/// workers).
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
