//===- tests/oct_test_util.h - Shared test helpers --------------*- C++ -*-===//
///
/// \file
/// Random coherent DBM / octagon generation for the differential and
/// property test suites. Bounds are small integers so every closure
/// arithmetic result is exact in double precision and matrices can be
/// compared with operator==. Also the SIMD-tier loop the kernel,
/// closure and operator suites run their checks under.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_TESTS_OCT_TEST_UTIL_H
#define OPTOCT_TESTS_OCT_TEST_UTIL_H

#include "oct/closure_reference.h"
#include "oct/dbm.h"
#include "oct/simd_dispatch.h"
#include "support/random.h"

#include <gtest/gtest.h>

#include <vector>

namespace optoct::test {

/// Every SIMD tier this machine can execute, scalar first.
inline std::vector<SimdTier> supportedSimdTiers() {
  std::vector<SimdTier> Tiers;
  for (SimdTier T : {SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512})
    if (simdTierSupported(T))
      Tiers.push_back(T);
  return Tiers;
}

/// Runs \p Fn(Tier) once with each supported tier installed
/// (simdForceTier), then reinstalls the tier that was active before.
template <typename FnT> void forEachSimdTier(FnT Fn) {
  SimdTier Saved = activeSimdTier();
  for (SimdTier T : supportedSimdTiers()) {
    simdForceTier(T);
    Fn(T);
  }
  simdForceTier(Saved);
}

/// Fills \p M as a random coherent half DBM: each conceptual inequality
/// is finite with probability \p Density, with an integer bound in
/// [LoBound, HiBound]. The diagonal is zero.
inline void randomizeDbm(HalfDbm &M, Rng &R, double Density, int LoBound = -4,
                         int HiBound = 24) {
  unsigned D = M.dim();
  M.initTop();
  for (unsigned I = 0; I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J) {
      if (I == J)
        continue;
      if (R.chance(Density))
        M.at(I, J) = R.intIn(LoBound, HiBound);
    }
}

/// Like randomizeDbm but only populates entries whose variables share a
/// block of \p Blocks, producing a decomposable matrix.
inline void randomizeBlockDbm(HalfDbm &M, Rng &R,
                              const std::vector<std::vector<unsigned>> &Blocks,
                              double Density, int LoBound = -4,
                              int HiBound = 24) {
  M.initTop();
  for (const auto &Block : Blocks)
    for (std::size_t A = 0; A != Block.size(); ++A)
      for (std::size_t B = 0; B <= A; ++B) {
        unsigned Hi = std::max(Block[A], Block[B]);
        unsigned Lo = std::min(Block[A], Block[B]);
        for (unsigned RR = 0; RR != 2; ++RR)
          for (unsigned S = 0; S != 2; ++S) {
            unsigned I = 2 * Hi + RR, J = 2 * Lo + S;
            if (I == J)
              continue;
            if (R.chance(Density))
              M.at(I, J) = R.intIn(LoBound, HiBound);
          }
      }
}

/// Strong closure via the executable specification (Algorithm 1 on the
/// full DBM). Returns false when empty; otherwise stores the closed
/// matrix back into \p M.
inline bool referenceClose(HalfDbm &M) {
  FullDbm Full(M);
  if (!closureFullReference(Full))
    return false;
  Full.toHalf(M);
  return true;
}

/// Asserts the two half DBMs agree on all stored entries.
inline void expectDbmEq(const HalfDbm &A, const HalfDbm &B,
                        const char *What) {
  ASSERT_EQ(A.numVars(), B.numVars());
  for (unsigned I = 0, D = A.dim(); I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      ASSERT_EQ(A.at(I, J), B.at(I, J))
          << What << ": mismatch at (" << I << "," << J << ")";
}

} // namespace optoct::test

#endif // OPTOCT_TESTS_OCT_TEST_UTIL_H
