//===- tests/test_serialize.cpp - Octagon serialization tests --------------===//

#include "oct/serialize.h"

#include "oct_test_util.h"

#include "oct/config.h"
#include "support/random.h"

#include <gtest/gtest.h>

using namespace optoct;

namespace {

TEST(Serialize, TopRoundTrip) {
  Octagon O(4);
  std::string Text = serializeOctagon(O);
  std::string Error;
  auto Back = deserializeOctagon(Text, Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_TRUE(Back->isTop());
  EXPECT_EQ(Back->numVars(), 4u);
}

TEST(Serialize, BottomRoundTrip) {
  Octagon O = Octagon::makeBottom(3);
  std::string Text = serializeOctagon(O);
  EXPECT_NE(Text.find("bottom"), std::string::npos);
  std::string Error;
  auto Back = deserializeOctagon(Text, Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_TRUE(Back->isBottom());
}

TEST(Serialize, ConstraintsRoundTrip) {
  Octagon O(3);
  O.addConstraint(OctCons::upper(0, 4.5));
  O.addConstraint(OctCons::diff(1, 0, -2.0));
  O.addConstraint(OctCons::negSum(1, 2, 7.0));
  std::string Text = serializeOctagon(O);
  std::string Error;
  auto Back = deserializeOctagon(Text, Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_TRUE(O.equals(*Back));
}

TEST(Serialize, RandomRoundTripSweep) {
  Rng R(31337);
  for (int It = 0; It != 60; ++It) {
    unsigned N = 1 + static_cast<unsigned>(R.indexBelow(10));
    Octagon O(N);
    for (int K = 0, E = R.intIn(0, 12); K != E; ++K) {
      unsigned I = static_cast<unsigned>(R.indexBelow(N));
      unsigned J = static_cast<unsigned>(R.indexBelow(N));
      double Bound = R.intIn(-5, 20) + (R.chance(0.3) ? 0.5 : 0.0);
      if (I == J || R.chance(0.3)) {
        O.addConstraint(R.chance(0.5) ? OctCons::upper(I, Bound)
                                      : OctCons::lower(I, Bound));
        continue;
      }
      switch (R.intIn(0, 2)) {
      case 0:
        O.addConstraint(OctCons::diff(I, J, Bound));
        break;
      case 1:
        O.addConstraint(OctCons::sum(I, J, Bound));
        break;
      default:
        O.addConstraint(OctCons::negSum(I, J, Bound));
        break;
      }
    }
    std::string Text = serializeOctagon(O);
    std::string Error;
    auto Back = deserializeOctagon(Text, Error);
    ASSERT_TRUE(Back) << Error;
    EXPECT_TRUE(O.equals(*Back)) << Text;
  }
}

TEST(Serialize, RejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(deserializeOctagon("not an octagon", Error));
  EXPECT_FALSE(deserializeOctagon("octagon", Error));
  EXPECT_FALSE(deserializeOctagon("octagon 2\nc 1 0 1 1 3.0\n", Error));
  EXPECT_NE(Error.find("end"), std::string::npos);
  EXPECT_FALSE(deserializeOctagon("octagon 2\nc 5 0 1 1 3.0\nend\n", Error));
  EXPECT_FALSE(deserializeOctagon("octagon 2\nc 1 0 1 9 3.0\nend\n", Error));
  EXPECT_FALSE(deserializeOctagon("octagon 2\nc 1 0 1 0 3.0\nend\n", Error));
  EXPECT_FALSE(deserializeOctagon("octagon 2\nx\nend\n", Error));
}

// Property: serialize → deserialize → equals, over octagons whose
// bounds stress the representation edges — ±huge magnitudes, bounds
// that strengthen to .5, octagons that close to bottom, and dimensions
// well past the small sizes the analysis usually sees. Serialized
// octagons are a durability surface now (checkpoint files), so the
// round trip is a crash-safety property, not a convenience.
TEST(Serialize, PropertyRoundTripEdgeBounds) {
  Rng R(0xc0ffee);
  const double Extremes[] = {1e308,        -1e308, 4.9e-324, -4.9e-324,
                             1.5e-10,      -2.5,   0.0,      1e16 + 1,
                             -(1e16 + 1.0)};
  for (int It = 0; It != 40; ++It) {
    unsigned N = 1 + static_cast<unsigned>(R.indexBelow(24));
    Octagon O(N);
    for (int K = 0, E = R.intIn(0, 10); K != E; ++K) {
      unsigned I = static_cast<unsigned>(R.indexBelow(N));
      unsigned J = static_cast<unsigned>(R.indexBelow(N));
      double Bound = Extremes[R.indexBelow(sizeof(Extremes) /
                                           sizeof(Extremes[0]))];
      if (I == J)
        O.addConstraint(R.chance(0.5) ? OctCons::upper(I, Bound)
                                      : OctCons::lower(I, Bound));
      else
        O.addConstraint(R.chance(0.5) ? OctCons::diff(I, J, Bound)
                                      : OctCons::sum(I, J, Bound));
    }
    std::string Text = serializeOctagon(O);
    std::string Error;
    auto Back = deserializeOctagon(Text, Error);
    ASSERT_TRUE(Back) << Error << "\n" << Text;
    if (Text.find("bottom") != std::string::npos)
      // Huge bounds can overflow closure arithmetic to -inf: the
      // element is semantically empty (gamma = {}) even when the
      // diagonal check missed it, and serialization canonicalizes it
      // to bottom. gamma-exact, representation-tightening.
      EXPECT_TRUE(Back->isBottom()) << Text;
    else
      EXPECT_TRUE(O.equals(*Back)) << Text;
    // Second trip: the serialized form is a fixpoint.
    EXPECT_EQ(serializeOctagon(*Back), Text);
  }
}

TEST(Serialize, LargeDimensionRoundTrip) {
  Octagon O(300);
  O.addConstraint(OctCons::upper(0, 1.0));
  O.addConstraint(OctCons::diff(299, 0, -7.25));
  O.addConstraint(OctCons::sum(150, 151, 1e100));
  std::string Text = serializeOctagon(O);
  std::string Error;
  auto Back = deserializeOctagon(Text, Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_EQ(Back->numVars(), 300u);
  EXPECT_TRUE(O.equals(*Back));
}

TEST(Serialize, BottomViaContradictionRoundTrips) {
  // An octagon that *closes* to bottom must serialize as bottom.
  Octagon O(2);
  O.addConstraint(OctCons::upper(0, 1.0));
  O.addConstraint(OctCons::lower(0, -5.0)); // x0 <= 1 and x0 >= 5
  std::string Text = serializeOctagon(O);
  EXPECT_NE(Text.find("bottom"), std::string::npos);
  std::string Error;
  auto Back = deserializeOctagon(Text, Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_TRUE(Back->isBottom());
}

TEST(Serialize, RejectsHostileVariableCounts) {
  std::string Error;
  // Would overflow 2n(n+1) or drive a multi-terabyte allocation; must
  // be a clean parse error, not a bad_alloc or a wrapped-around size.
  EXPECT_FALSE(deserializeOctagon("octagon 4000000000\nend\n", Error));
  EXPECT_FALSE(deserializeOctagon("octagon 1048577\nend\n", Error));
  EXPECT_FALSE(deserializeOctagon("octagon -1\nend\n", Error));
  // The cap itself is about hostile headers, not legitimate sizes:
  // a count just inside must parse (top allocates lazily enough).
  auto Ok = deserializeOctagon("octagon 1024\nend\n", Error);
  ASSERT_TRUE(Ok) << Error;
  EXPECT_EQ(Ok->numVars(), 1024u);
}

TEST(Serialize, MutationFuzzSmokeNeverCrashes) {
  // Fuzz smoke over the deserializer: random single-byte mutations of a
  // valid serialization must either parse or fail cleanly — never
  // crash, hang, or throw. (Checkpoint bytes after a crash are exactly
  // this kind of input.)
  Octagon O(5);
  O.addConstraint(OctCons::upper(0, 3.5));
  O.addConstraint(OctCons::diff(1, 2, -2.0));
  O.addConstraint(OctCons::negSum(3, 4, 10.0));
  const std::string Seed = serializeOctagon(O);
  Rng R(20260805);
  const char Charset[] = "0123456789c end-+.\n\0x";
  for (int It = 0; It != 500; ++It) {
    std::string Mutant = Seed;
    int Edits = R.intIn(1, 4);
    for (int E = 0; E != Edits; ++E) {
      std::size_t Pos = R.indexBelow(Mutant.size());
      Mutant[Pos] = Charset[R.indexBelow(sizeof(Charset) - 1)];
    }
    std::string Error;
    auto Back = deserializeOctagon(Mutant, Error);
    if (!Back) {
      EXPECT_FALSE(Error.empty()) << "rejection must say why";
    }
  }
  // Truncations of every length, same contract.
  for (std::size_t Len = 0; Len < Seed.size(); ++Len) {
    std::string Error;
    deserializeOctagon(Seed.substr(0, Len), Error);
  }
}

// The daemon's invariant cache replays serialized results byte for
// byte across processes whose kernel configuration may differ (a cache
// file written under OPTOCT_SIMD=scalar must hit under the AVX-512 tier
// and vice versa). That only holds if serializeOctagon is a pure
// function of the abstract element — bit-identical output across the
// SIMD tiers and the dense/decomposed representations.
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

  // Replay under the installed tier: closure of A (serialize closes),
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
      Bytes.push_back(serializeOctagon(A));
      Octagon J = Octagon::join(A, B);
      Bytes.push_back(serializeOctagon(J));
      Octagon W = Octagon::widen(A, B);
      Bytes.push_back(serializeOctagon(W));
    }
    return Bytes;
  };

  // Baseline: the startup tier, decomposed.
  const std::vector<std::string> Baseline = Replay(/*Dec=*/true);
  test::forEachSimdTier([&](SimdTier Tier) {
    for (bool Dec : {true, false}) {
      std::vector<std::string> Got = Replay(Dec);
      ASSERT_EQ(Got.size(), Baseline.size());
      for (std::size_t I = 0; I != Got.size(); ++I) {
        EXPECT_EQ(Got[I], Baseline[I])
            << simdTierName(Tier) << (Dec ? " decomposed" : " dense")
            << " diverged from the startup tier on case " << I;
      }
    }
  });
}

TEST(Serialize, PreservesFractionalBounds) {
  // Strengthening produces .5 bounds; they must survive the round trip.
  Octagon O(2);
  O.addConstraint(OctCons::upper(0, 3.0));
  O.addConstraint(OctCons::upper(1, 2.0));
  O.addConstraint(OctCons::sum(0, 1, 4.0));
  O.close();
  std::string Text = serializeOctagon(O);
  std::string Error;
  auto Back = deserializeOctagon(Text, Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_TRUE(O.equals(*Back));
}

} // namespace
