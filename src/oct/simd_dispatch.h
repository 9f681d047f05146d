//===- oct/simd_dispatch.h - Startup SIMD tier selection --------*- C++ -*-===//
///
/// \file
/// Selects, once at startup, which per-ISA kernel table (simd_kernels.h)
/// the whole process runs: the highest tier the CPU supports, or the
/// tier named by OPTOCT_SIMD=scalar|avx2|avx512. An explicit request
/// for an unsupported tier degrades to the best supported one and logs
/// the downgrade to stderr (CI's runtime-dispatch leg asserts on that
/// line), so a field report always states the tier actually running.
///
/// Concurrency: the active table is a constinit atomic pointer,
/// initialized to the scalar table before any dynamic initializer runs
/// and upgraded by this TU's dynamic initializer while the process is
/// still single-threaded. Readers use relaxed loads — the table
/// contents are immutable — so fetching the table costs one indirect
/// load; TSan runs the Blocked/SimdDispatch test groups over it.
/// simdForceTier() exists for tests and benches and must only be called
/// while no analysis thread is running (same contract as octConfig()).
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_SIMD_DISPATCH_H
#define OPTOCT_OCT_SIMD_DISPATCH_H

#include "oct/simd_kernels.h"

#include <atomic>
#include <string>

namespace optoct {

/// ISA tiers, ordered: a higher tier strictly extends the features of
/// every lower one.
enum class SimdTier { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// "scalar" / "avx2" / "avx512".
const char *simdTierName(SimdTier Tier);

/// Parses an OPTOCT_SIMD value; returns false (leaving \p Tier alone)
/// for anything that is not a tier name.
bool simdParseTier(const char *Value, SimdTier &Tier);

/// True iff the running CPU (and, for AVX-512, the OS's XCR0 state)
/// supports \p Tier. Scalar is always supported.
bool simdTierSupported(SimdTier Tier);

/// Highest supported tier on this machine.
SimdTier simdBestTier();

/// Pure selection policy: what tier does \p EnvValue (the OPTOCT_SIMD
/// setting, or null/empty for auto) yield on this machine? When the
/// request must be downgraded or cannot be parsed, a one-line
/// diagnostic is appended to \p LogOut (if non-null). Does not install
/// anything — exposed separately so tests can probe the policy without
/// mutating process state.
SimdTier simdSelectTier(const char *EnvValue, std::string *LogOut);

namespace detail {
/// The active table. Never null: statically points at the scalar tier,
/// retargeted during startup (or by simdForceTier) only.
extern std::atomic<const SpanKernels *> ActiveSpanKernels;
} // namespace detail

/// The kernel table every hot path dispatches through.
inline const SpanKernels &activeSpanKernels() {
  return *detail::ActiveSpanKernels.load(std::memory_order_relaxed);
}

/// Tier of the active table.
SimdTier activeSimdTier();

/// Installs \p Tier (downgrading to the best supported tier if needed)
/// and returns what was actually installed. Test/bench hook: call only
/// while single-threaded.
SimdTier simdForceTier(SimdTier Tier);

/// Re-runs the startup selection (OPTOCT_SIMD + CPU probes) and
/// installs the result. Returns the installed tier.
SimdTier simdResetTier();

} // namespace optoct

#endif // OPTOCT_OCT_SIMD_DISPATCH_H
