//===- tests/test_serialize.cpp - Canonical invariant text stability -----===//
///
/// \file
/// The invariant text that cache records, batch reports and daemon
/// replies carry (Octagon::str()) must not depend on the kernel tier or
/// the representation that computed the element.
///
//===----------------------------------------------------------------------===//

#include "oct_test_util.h"

#include "baseline/apron_octagon.h"
#include "oct/config.h"
#include "oct/octagon.h"
#include "support/random.h"

#include <gtest/gtest.h>

using namespace optoct;

namespace {

// The daemon's invariant cache replays results byte for byte across
// processes whose kernel configuration may differ (a cache file written
// under OPTOCT_SIMD=scalar must hit under the AVX-512 tier and vice
// versa). Records and replies carry Octagon::str() text, so that only
// holds if str() is a pure function of the abstract element:
// bit-identical output across the SIMD tiers and across the dense and
// the decomposed representation, since str() lists constraints by
// variable whatever the partition.
TEST(Serialize, ByteStableAcrossKernelAndRepresentationConfigs) {
  struct ConfigSaver {
    bool Dec = octConfig().EnableDecomposition;
    ~ConfigSaver() { octConfig().EnableDecomposition = Dec; }
  } Saved;

  // Constraint scripts are generated once, as plain data, so every
  // configuration replays the exact same construction.
  struct Script {
    unsigned NumVars;
    std::vector<OctCons> ConsA, ConsB;
  };
  std::vector<Script> Scripts;
  Rng R(31337);
  for (int It = 0; It != 40; ++It) {
    Script S;
    // Straddle the sparse/dense and vector-width thresholds.
    S.NumVars = 1 + static_cast<unsigned>(R.indexBelow(24));
    auto GenInto = [&](std::vector<OctCons> &Out) {
      for (int K = 0, E = R.intIn(0, 16); K != E; ++K) {
        unsigned I = static_cast<unsigned>(R.indexBelow(S.NumVars));
        unsigned J = static_cast<unsigned>(R.indexBelow(S.NumVars));
        double Bound = R.intIn(-9, 30) + (R.chance(0.3) ? 0.5 : 0.0);
        if (I == J || R.chance(0.3)) {
          Out.push_back(R.chance(0.5) ? OctCons::upper(I, Bound)
                                      : OctCons::lower(I, Bound));
          continue;
        }
        switch (R.intIn(0, 2)) {
        case 0:
          Out.push_back(OctCons::diff(I, J, Bound));
          break;
        case 1:
          Out.push_back(OctCons::sum(I, J, Bound));
          break;
        default:
          Out.push_back(OctCons::negSum(I, J, Bound));
          break;
        }
      }
    };
    GenInto(S.ConsA);
    GenInto(S.ConsB);
    Scripts.push_back(std::move(S));
  }

  // Replay under the installed tier: closure of A (str() closes),
  // plus a join and a widening to route through the binary kernels.
  auto Replay = [&](bool Dec) {
    octConfig().EnableDecomposition = Dec;
    std::vector<std::string> Bytes;
    for (const Script &S : Scripts) {
      Octagon A(S.NumVars), B(S.NumVars);
      for (const OctCons &C : S.ConsA)
        A.addConstraint(C);
      for (const OctCons &C : S.ConsB)
        B.addConstraint(C);
      Bytes.push_back(A.str());
      Octagon J = Octagon::join(A, B);
      Bytes.push_back(J.str());
      Octagon W = Octagon::widen(A, B);
      Bytes.push_back(W.str());
    }
    return Bytes;
  };

  // The baseline is the startup tier, decomposed; every tier must print
  // the same bytes in both representations.
  const std::vector<std::string> Baseline = Replay(/*Dec=*/true);
  test::forEachSimdTier([&](SimdTier Tier) {
    for (bool Dec : {true, false}) {
      std::vector<std::string> Got = Replay(Dec);
      ASSERT_EQ(Got.size(), Baseline.size());
      for (std::size_t I = 0; I != Got.size(); ++I) {
        EXPECT_EQ(Got[I], Baseline[I])
            << simdTierName(Tier) << (Dec ? " decomposed" : " dense")
            << " diverged from the startup tier's decomposed bytes on case "
            << I;
      }
    }
  });
}

// An element met with contradictory constraints is empty only once it
// is closed; str() closes before it asks, so both libraries print
// "bottom", not "top".
TEST(Serialize, UnclosedEmptyElementPrintsBottom) {
  Octagon O(2);
  baseline::ApronOctagon A(2);
  for (const OctCons &C :
       {OctCons::diff(0, 1, -1.0), OctCons::diff(1, 0, -1.0)}) {
    O.addConstraint(C);
    A.addConstraint(C);
  }
  EXPECT_EQ(O.str(), "bottom");
  EXPECT_EQ(A.str(), "bottom");
}

} // namespace
