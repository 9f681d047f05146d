//===- tests/test_serialize.cpp - Canonical invariant text stability -----===//
///
/// \file
/// The invariant text that cache records, batch reports and daemon
/// replies carry (Octagon::str()) must not depend on the kernel tier or
/// the representation that computed the element.
///
//===----------------------------------------------------------------------===//

#include "oct_test_util.h"

#include "oct/config.h"
#include "oct/octagon.h"
#include "support/random.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace optoct;

namespace {

// The daemon's invariant cache replays results byte for byte across
// processes whose kernel configuration may differ (a cache file written
// under OPTOCT_SIMD=scalar must hit under the AVX-512 tier and vice
// versa). Records and replies carry Octagon::str() text, so that only
// holds if str() is a pure function of the abstract element and the
// decomposition setting: bit-identical output across the SIMD tiers.
// str() lists constraints component by component, so the dense and the
// decomposed representation print the same constraints in different
// orders; across them the test compares the sorted constraint lists.
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

  auto SortedConstraints = [](const std::string &Text) {
    std::vector<std::string> Cs;
    for (std::size_t Pos = 0;;) {
      std::size_t End = Text.find(" && ", Pos);
      Cs.push_back(Text.substr(Pos, End - Pos));
      if (End == std::string::npos)
        break;
      Pos = End + 4;
    }
    std::sort(Cs.begin(), Cs.end());
    return Cs;
  };

  // Baselines: the startup tier, decomposed and dense.
  const std::vector<std::string> Baseline[2] = {Replay(/*Dec=*/false),
                                                Replay(/*Dec=*/true)};
  ASSERT_EQ(Baseline[0].size(), Baseline[1].size());
  for (std::size_t I = 0; I != Baseline[0].size(); ++I)
    EXPECT_EQ(SortedConstraints(Baseline[0][I]),
              SortedConstraints(Baseline[1][I]))
        << "dense and decomposed disagree on case " << I;
  test::forEachSimdTier([&](SimdTier Tier) {
    for (bool Dec : {true, false}) {
      std::vector<std::string> Got = Replay(Dec);
      ASSERT_EQ(Got.size(), Baseline[Dec].size());
      for (std::size_t I = 0; I != Got.size(); ++I) {
        EXPECT_EQ(Got[I], Baseline[Dec][I])
            << simdTierName(Tier) << (Dec ? " decomposed" : " dense")
            << " diverged from the startup tier on case " << I;
      }
    }
  });
}

} // namespace
