//===- oct/simd_kernels.h - Per-ISA kernel table (runtime dispatch) -*- C++ -*-===//
///
/// \file
/// One vtable of every SIMD-sensitive kernel in the domain: the span
/// kernels of the quadratic lattice operators (join/meet/widen/narrow/
/// leq/eq) and the min-plus family of the dense closure and
/// strengthening (Section 5.2). Each tier — pinned scalar, AVX2,
/// AVX-512 — is a separate translation unit compiled with function
/// target attributes, so one binary carries all three and
/// `simd_dispatch.h` selects the best supported tier once at startup.
/// Call sites fetch the table once per operator or closure call
/// (`const SpanKernels &Kern = activeSpanKernels();`) and call its
/// entries directly.
///
/// Contract shared by all tiers (tests/test_kernels.cpp enforces it
/// per tier against SpanKernelsScalar; tests/test_differential.cpp
/// checks the operators built on it against the APRON-style baseline
/// under every tier):
///   * For identical inputs, every tier produces bitwise-identical
///     outputs *and* identical finite-entry counts, so the tier (and
///     OPTOCT_SIMD) never changes an analysis result, only its speed.
///   * Ties resolve like MAXPD/MINPD (second operand), no FMA
///     contraction is permitted, and the threshold search of the
///     widening kernel resolves to exactly the std::lower_bound result.
///   * The *Count kernels return the number of finite entries written
///     (!= +inf, matching isFinite), so the operators keep nni exact
///     without a second scan over the result.
///   * Loads are unaligned throughout: packed half-DBM rows start at
///     arbitrary offsets.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_SIMD_KERNELS_H
#define OPTOCT_OCT_SIMD_KERNELS_H

#include <cstddef>

/// The scalar tier doubles as the ablation baseline, so -O3 must not
/// silently turn it back into SIMD: on GCC the kernel is compiled with
/// auto-vectorization off, on Clang the loops carry a
/// vectorize(disable) pragma. (Intrinsic bodies in the AVX tiers are
/// unaffected — they are explicit builtins, not loop transforms.)
#if defined(__clang__)
#define OPTOCT_SCALAR_KERNEL
#define OPTOCT_SCALAR_LOOP                                                     \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define OPTOCT_SCALAR_KERNEL                                                   \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#define OPTOCT_SCALAR_LOOP
#else
#define OPTOCT_SCALAR_KERNEL
#define OPTOCT_SCALAR_LOOP
#endif

/// The AVX tiers exist only on x86; elsewhere the scalar table is the
/// one and only tier.
#if defined(__x86_64__) || defined(__i386__)
#define OPTOCT_SIMD_X86 1
#endif

namespace optoct {

/// Function-pointer table for one ISA tier. Pointers are filled by the
/// per-tier translation units (simd_kernels_{scalar,avx2,avx512}.cpp);
/// the active table is selected once by simd_dispatch.cpp and read via
/// relaxed atomic loads from any number of analysis threads.
struct SpanKernels {
  /// Tier name as reported in logs, bench headers, and OPTOCT_SIMD.
  const char *Name;

  // --- Lattice-operator span kernels, j in [0, Len) ---
  /// Dst[j] = max(A[j], B[j]): the join's span map. Two-source, so the
  /// Dense/Dense join is one pass with no preparatory buffer copy.
  void (*MaxSpan)(double *Dst, const double *A, const double *B,
                  std::size_t Len);
  /// Dst[j] = min(A[j], B[j]): the meet's span map.
  void (*MinSpan)(double *Dst, const double *A, const double *B,
                  std::size_t Len);
  /// MaxSpan / MinSpan returning the finite count.
  std::size_t (*MaxSpanCount)(double *Dst, const double *A, const double *B,
                              std::size_t Len);
  std::size_t (*MinSpanCount)(double *Dst, const double *A, const double *B,
                              std::size_t Len);
  /// Standard narrowing: Dst[j] = OldS[j] if finite, else NewS[j].
  std::size_t (*NarrowSpanCount)(double *Dst, const double *OldS,
                                 const double *NewS, std::size_t Len);
  /// Widening: a bound survives iff it did not grow (NewS <= OldS);
  /// growing bounds jump to the smallest dominating threshold of the
  /// sorted [Thr, Thr+ThrN) or to +inf. The caller picks the set (raw
  /// for binary entries, doubled for unary ones); the threshold scan
  /// runs only for lanes that grew.
  std::size_t (*WidenSpanCount)(double *Dst, const double *OldS,
                                const double *NewS, std::size_t Len,
                                const double *Thr, std::size_t ThrN);
  /// All A[j] <= B[j] / all A[j] == B[j], exiting early on the first
  /// vector block holding a violating lane.
  bool (*SpanLeq)(const double *A, const double *B, std::size_t Len);
  bool (*SpanEq)(const double *A, const double *B, std::size_t Len);

  // --- Closure/strengthening min-plus kernels, j in [0, Len) ---
  /// Dst[j] = min(Dst[j], A + RowA[j], B + RowB[j]): the remaining-
  /// entries update of the dense closure (Algorithm 3), with the
  /// scalar-replaced column operands A, B and buffered pivot rows.
  void (*MinPlusRow2)(double *Dst, const double *RowA, double A,
                      const double *RowB, double B, std::size_t Len);
  /// Dst[j] = min(Dst[j], A + RowA[j]): the single-pivot variant of the
  /// full-DBM Floyd-Warshall.
  void (*MinPlusRow1)(double *Dst, const double *RowA, double A,
                      std::size_t Len);
  /// Dst[j] = min(Dst[j], (Di + T[j]) / 2): strengthening with the
  /// diagonal operands pre-gathered into the contiguous array T.
  void (*StrengthenRow)(double *Dst, const double *T, double Di,
                        std::size_t Len);
};

/// The pinned-scalar tier: always present, genuinely scalar (the
/// ablation baseline and the OPTOCT_SIMD=scalar override both land
/// here).
extern const SpanKernels SpanKernelsScalar;

#if OPTOCT_SIMD_X86
/// 256-bit AVX2 tier: the kernels PR 4 shipped, now compiled with
/// target attributes so a portable (OPTOCT_NATIVE=OFF) build still
/// carries them.
extern const SpanKernels SpanKernelsAvx2;
/// 512-bit tier (avx512f/dq/bw/vl) with masked tails.
extern const SpanKernels SpanKernelsAvx512;
#endif

} // namespace optoct

#endif // OPTOCT_OCT_SIMD_KERNELS_H
