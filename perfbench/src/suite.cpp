//===- perfbench/src/suite.cpp - The paper-suite workload -----------------===//
///
/// \file
/// The 17 Table 2 programs, reseeded, analyzed in process through
/// runtime::runBatch (thread mode, one worker); each pass ends in a
/// canonical reportToJson. The inputs come from a fixed pool of
/// reseedings; the run seed picks which. Verdicts and loop invariants
/// are checked against an oracle for the whole pool, computed with the
/// independent baseline library (src/baseline) and committed in
/// perfbench/expected/. The traced run replays
/// every job through the span-timed pipeline of layers.h and checks
/// that its canonical report is byte-identical to the untraced one.
///
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "layers.h"

#include "baseline/apron_octagon.h"
#include "baseline/closure_apron.h"
#include "cfg/cfg.h"
#include "lang/parser.h"
#include "workloads/workload.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <cstdio>
#include <map>
#include <sstream>
#include <thread>

using namespace optoct;

namespace perfbench {
namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// The input pool: PoolSets reseedings of each of the 17 programs. The
/// oracle covers the whole pool, so any run seed is checked against
/// committed expectations.
constexpr unsigned PoolSets = 64;
/// Input sets per run, one from each quarter of every program's cost
/// range (see runSets).
constexpr unsigned InputSets = 4;

/// Reseeding \p K of Table 2 program \p I.
runtime::BatchJob poolJob(std::size_t I, unsigned K) {
  workloads::WorkloadSpec S = workloads::paperBenchmarks()[I];
  S.Seed = static_cast<unsigned>(mixSeed(mixSeed(0x5eed, K), I));
  return {S.Name + "#" + std::to_string(K), workloads::generateProgram(S)};
}

/// Pool set \p K: the 17 Table 2 programs, reseeded.
std::vector<runtime::BatchJob> poolSet(unsigned K) {
  std::vector<runtime::BatchJob> Jobs;
  for (std::size_t I = 0; I != workloads::paperBenchmarks().size(); ++I)
    Jobs.push_back(poolJob(I, K));
  return Jobs;
}

std::string poolOrderPath(const Args &A) {
  return A.ExpectedDir + "/pool-order.txt";
}

/// One reseeding in the committed pool order, with what it cost to
/// analyze when the order was measured.
struct PoolEntry {
  unsigned K = 0;
  double Ms = 0;
};

/// Reads the committed pool order: per program (in paperBenchmarks()
/// order), its PoolSets reseedings from cheapest to dearest to analyze,
/// one "name K:ms K:ms ..." line each.
bool readPoolOrder(const Args &A, std::vector<std::vector<PoolEntry>> &Order) {
  std::string Text;
  if (!readFile(poolOrderPath(A), Text))
    return false;
  std::map<std::string, std::vector<PoolEntry>> ByName;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream Fields(Line);
    std::string Name, Field;
    Fields >> Name;
    std::vector<PoolEntry> &Es = ByName[Name];
    std::vector<unsigned> Ks;
    while (Fields >> Field) {
      PoolEntry E;
      if (std::sscanf(Field.c_str(), "%u:%lf", &E.K, &E.Ms) != 2)
        return false;
      Es.push_back(E);
      Ks.push_back(E.K);
    }
    std::sort(Ks.begin(), Ks.end());
    for (unsigned K = 0; K != PoolSets; ++K)
      if (Ks.size() != PoolSets || Ks[K] != K)
        return false;
  }
  Order.clear();
  for (const workloads::WorkloadSpec &S : workloads::paperBenchmarks()) {
    auto It = ByName.find(S.Name);
    if (It == ByName.end())
      return false;
    Order.push_back(It->second);
  }
  return true;
}

/// The run's input sets. A reseeding changes a program's cost by up to
/// 3x (jwgqbjzs, half of a pass, by 2x), so four sets drawn at random
/// from the pool would differ from seed to seed by more than the gate's
/// bound. Instead the sampling is stratified. Per program, a rank R below
/// Q = PoolSets / 4 names four reseedings, at ranks R, 2Q-1-R, 2Q+R and
/// 4Q-1-R of the committed pool order: one from each quarter of the cost
/// range, a cheap pick in each half matched by a dear one. Of the Q
/// choices of R, the seed picks one of the half whose four picks cost
/// closest to the median choice's, and set J takes the J-th pick. Every
/// seed still gets its own inputs.
std::vector<std::vector<runtime::BatchJob>>
runSets(std::uint64_t Seed, const std::vector<std::vector<PoolEntry>> &Order) {
  constexpr unsigned Q = PoolSets / InputSets;
  auto Ranks = [](unsigned R) {
    return std::array<unsigned, InputSets>{R, 2 * Q - 1 - R, 2 * Q + R,
                                           4 * Q - 1 - R};
  };
  std::vector<std::vector<runtime::BatchJob>> Sets(InputSets);
  for (std::size_t I = 0; I != Order.size(); ++I) {
    std::vector<double> Cost(Q, 0.0);
    for (unsigned R = 0; R != Q; ++R)
      for (unsigned Rank : Ranks(R))
        Cost[R] += Order[I][Rank].Ms;
    double Median = median(Cost);
    std::vector<unsigned> Rs(Q);
    for (unsigned R = 0; R != Q; ++R)
      Rs[R] = R;
    std::stable_sort(Rs.begin(), Rs.end(), [&](unsigned X, unsigned Y) {
      return std::abs(Cost[X] - Median) < std::abs(Cost[Y] - Median);
    });
    std::array<unsigned, InputSets> Picks =
        Ranks(Rs[mixSeed(Seed, I) % (Q / 2)]);
    for (unsigned J = 0; J != InputSets; ++J)
      Sets[J].push_back(poolJob(I, Order[I][Picks[J]].K));
  }
  return Sets;
}

/// What the oracle fixes per job: a digest of the input text it was
/// computed for, the verdicts, and a 64-bit digest of the rendered
/// loop-head invariants (the full text runs to megabytes per set).
struct Verdict {
  std::uint64_t InputDigest = 0;
  unsigned Proven = 0, Total = 0;
  std::vector<int> Unproven;
  std::uint64_t InvariantDigest = 0;

  bool operator==(const Verdict &) const = default;
};

/// "bbN: c1 && c2 && ..." with the conjuncts sorted: the two libraries
/// enumerate the same constraints in different orders.
std::string sortedConjuncts(const std::string &Inv) {
  std::size_t Colon = Inv.find(": ");
  std::size_t Pos = Colon == std::string::npos ? 0 : Colon + 2;
  std::vector<std::string> Parts;
  for (;;) {
    std::size_t And = Inv.find(" && ", Pos);
    Parts.push_back(Inv.substr(Pos, And == std::string::npos ? And : And - Pos));
    if (And == std::string::npos)
      break;
    Pos = And + 4;
  }
  std::sort(Parts.begin(), Parts.end());
  std::string Out = Colon == std::string::npos ? "" : Inv.substr(0, Colon + 2);
  for (std::size_t I = 0; I != Parts.size(); ++I)
    Out += (I ? " && " : "") + Parts[I];
  return Out;
}

std::uint64_t digestInvariants(const std::vector<std::string> &Invs) {
  std::uint64_t H = digest64("");
  for (const std::string &I : Invs)
    H = digest64(sortedConjuncts(I) + "\n", H);
  return H;
}

std::string oraclePath(const Args &A) {
  return A.ExpectedDir + "/paper-suite.txt";
}

/// Renders an octagon the way Octagon::str does, including its
/// negative-zero canonicalization, from the baseline's constraints.
std::string renderBaseline(baseline::ApronOctagon &D,
                           const std::vector<std::string> &Names) {
  if (D.isBottom())
    return "bottom";
  std::vector<OctCons> Cs = D.constraints();
  if (Cs.empty())
    return "top";
  std::string Out;
  for (const OctCons &C : Cs) {
    if (!Out.empty())
      Out += " && ";
    char Buf[160];
    double Bound = C.Bound + 0.0;
    if (C.isUnary())
      std::snprintf(Buf, sizeof(Buf), "%s%s <= %g", C.CoefI < 0 ? "-" : "",
                    Names[C.I].c_str(), Bound);
    else
      std::snprintf(Buf, sizeof(Buf), "%s%s %c %s <= %g",
                    C.CoefI < 0 ? "-" : "", Names[C.I].c_str(),
                    C.CoefJ < 0 ? '-' : '+', Names[C.J].c_str(), Bound);
    Out += Buf;
  }
  return Out;
}

/// The baseline library's verdict for one job; false if it fails.
bool baselineVerdict(const runtime::BatchJob &Job, Verdict &V,
                     std::string &Error) {
  V.InputDigest = digest64(Job.Source);
  auto Prog = lang::parseProgram(Job.Source, Error);
  if (!Prog)
    return false;
  cfg::Cfg G = cfg::Cfg::build(*Prog);
  auto Res = analysis::analyze<baseline::ApronOctagon>(G);
  if (Res.Status != analysis::RunStatus::Ok) {
    Error = "baseline analysis degraded: " + Res.StatusDetail;
    return false;
  }
  V.Total = static_cast<unsigned>(Res.Asserts.size());
  V.Proven = Res.assertsProven();
  for (const analysis::AssertOutcome &As : Res.Asserts)
    if (!As.Proven)
      V.Unproven.push_back(As.Line);
  std::vector<std::string> Invs;
  for (unsigned B : G.rpo()) {
    const cfg::BasicBlock &Block = G.block(B);
    if (!Block.IsLoopHead)
      continue;
    Invs.push_back("bb" + std::to_string(B) + ": " +
                   (Res.BlockInvariant[B]
                        ? renderBaseline(*Res.BlockInvariant[B],
                                         Block.SlotNames)
                        : std::string("unreachable")));
  }
  V.InvariantDigest = digestInvariants(Invs);
  return true;
}

std::string renderOracle(const std::map<std::string, Verdict> &M) {
  std::ostringstream Out;
  for (const auto &[Name, V] : M) {
    Out << "job " << Name << "\ninput " << V.InputDigest << "\nasserts "
        << V.Proven << " " << V.Total << "\n";
    for (int L : V.Unproven)
      Out << "uline " << L << "\n";
    Out << "invdigest " << V.InvariantDigest << "\n";
  }
  return Out.str();
}

bool parseOracle(const std::string &Text, std::map<std::string, Verdict> &M) {
  std::istringstream In(Text);
  std::string Line;
  Verdict *Cur = nullptr;
  while (std::getline(In, Line)) {
    std::size_t Sp = Line.find(' ');
    if (Sp == std::string::npos)
      return false;
    std::string Key = Line.substr(0, Sp), Rest = Line.substr(Sp + 1);
    std::istringstream Nums(Rest);
    if (Key == "job") {
      Cur = &M[Rest];
    } else if (!Cur) {
      return false;
    } else if (Key == "input") {
      if (!(Nums >> Cur->InputDigest))
        return false;
    } else if (Key == "asserts") {
      if (!(Nums >> Cur->Proven >> Cur->Total))
        return false;
    } else if (Key == "uline") {
      int L = 0;
      if (!(Nums >> L))
        return false;
      Cur->Unproven.push_back(L);
    } else if (Key == "invdigest") {
      if (!(Nums >> Cur->InvariantDigest))
        return false;
    } else {
      return false;
    }
  }
  return !M.empty();
}

Verdict verdictOf(const runtime::JobResult &R, std::uint64_t InputDigest) {
  return {InputDigest, R.AssertsProven, R.AssertsTotal, R.UnprovenAssertLines,
          digestInvariants(R.LoopInvariants)};
}

/// Compares one pass's results with the oracle; returns mismatches.
std::uint64_t checkOracle(const runtime::BatchReport &Rep,
                          const std::map<std::string, Verdict> &Oracle,
                          Outcome &O) {
  std::uint64_t Bad = 0;
  for (const runtime::JobResult &R : Rep.Results) {
    auto It = Oracle.find(R.Name);
    if (R.Status != runtime::JobStatus::Ok) {
      ++Bad;
      O.mismatch(R.Name + ": status " + runtime::jobStatusName(R.Status));
    } else if (It == Oracle.end() ||
               !(It->second == verdictOf(R, It->second.InputDigest))) {
      ++Bad;
      O.mismatch(R.Name + ": verdicts/invariants differ from the baseline "
                          "oracle");
    }
  }
  return Bad;
}

runtime::BatchOptions batchOptions() {
  runtime::BatchOptions Opts;
  Opts.Jobs = 1;
  Opts.Isolation = runtime::IsolationMode::Thread;
  Opts.CaptureInvariants = true;
  return Opts;
}

struct Pass {
  double WallS = 0;
  std::string Canonical;
  runtime::BatchReport Report;
};

Pass untracedPass(const std::vector<runtime::BatchJob> &Jobs) {
  Pass P;
  Clock::time_point T0 = Clock::now();
  P.Report = runtime::runBatch(Jobs, batchOptions());
  P.Canonical = runtime::reportToJson(P.Report, /*Canonical=*/true);
  P.WallS = msBetween(T0, Clock::now()) / 1000.0;
  return P;
}

} // namespace

int writeSuiteOracle(const Args &A) {
  // The baseline is independent of src/oct's decomposed and sparse
  // closures; its vectorized Floyd-Warshall closure keeps the one-off
  // oracle computation for the pool to minutes. Four threads share the
  // jobs.
  std::vector<runtime::BatchJob> Jobs;
  for (unsigned K = 0; K != PoolSets; ++K) {
    std::vector<runtime::BatchJob> S = poolSet(K);
    Jobs.insert(Jobs.end(), S.begin(), S.end());
  }
  // Longest first, so no thread ends up alone with a jwgqbjzs.
  std::stable_sort(Jobs.begin(), Jobs.end(), [](const auto &X, const auto &Y) {
    return X.Source.size() > Y.Source.size();
  });
  std::vector<Verdict> Verdicts(Jobs.size());
  std::vector<std::string> Errors(Jobs.size());
  std::atomic<std::size_t> Next{0};
  auto Work = [&] {
    baseline::setBaselineClosureMode(
        baseline::BaselineClosureMode::VectorizedFW);
    for (std::size_t I; (I = Next.fetch_add(1)) < Jobs.size();)
      if (!baselineVerdict(Jobs[I], Verdicts[I], Errors[I]) &&
          Errors[I].empty())
        Errors[I] = "baseline analysis failed";
  };
  std::vector<std::thread> Helpers;
  for (int I = 0; I != 3; ++I)
    Helpers.emplace_back(Work);
  Work();
  for (std::thread &H : Helpers)
    H.join();

  std::map<std::string, Verdict> M;
  for (std::size_t I = 0; I != Jobs.size(); ++I) {
    if (!Errors[I].empty()) {
      std::fprintf(stderr, "oracle: %s: %s\n", Jobs[I].Name.c_str(),
                   Errors[I].c_str());
      return 1;
    }
    M[Jobs[I].Name] = Verdicts[I];
  }
  std::string Tmp = oraclePath(A) + ".tmp";
  if (!writeFile(Tmp, renderOracle(M)) ||
      std::rename(Tmp.c_str(), oraclePath(A).c_str()) != 0) {
    std::fprintf(stderr, "oracle: cannot write %s\n", oraclePath(A).c_str());
    return 1;
  }
  return 0;
}

int writePoolOrder(const Args &A) {
  // Each pool job analyzed three times, by four threads; its cost is the
  // fastest of the three.
  const std::size_t Programs = workloads::paperBenchmarks().size();
  std::vector<runtime::BatchJob> Jobs;
  for (std::size_t I = 0; I != Programs; ++I)
    for (unsigned K = 0; K != PoolSets; ++K)
      Jobs.push_back(poolJob(I, K));
  std::vector<double> Cost(Jobs.size(), Inf);
  std::atomic<std::size_t> Next{0};
  auto Work = [&] {
    for (std::size_t N; (N = Next.fetch_add(1)) < 3 * Jobs.size();) {
      runtime::JobResult R = runtime::runJob(Jobs[N / 3], batchOptions());
      Cost[N / 3] = std::min(Cost[N / 3], R.WallSeconds);
    }
  };
  std::vector<std::thread> Helpers;
  for (int I = 0; I != 3; ++I)
    Helpers.emplace_back(Work);
  Work();
  for (std::thread &H : Helpers)
    H.join();

  std::string Out;
  for (std::size_t I = 0; I != Programs; ++I) {
    std::vector<unsigned> Ks(PoolSets);
    for (unsigned K = 0; K != PoolSets; ++K)
      Ks[K] = K;
    std::stable_sort(Ks.begin(), Ks.end(), [&](unsigned X, unsigned Y) {
      return Cost[I * PoolSets + X] < Cost[I * PoolSets + Y];
    });
    Out += workloads::paperBenchmarks()[I].Name;
    for (unsigned K : Ks) {
      char Buf[48];
      std::snprintf(Buf, sizeof(Buf), " %u:%.3f", K,
                    Cost[I * PoolSets + K] * 1000.0);
      Out += Buf;
    }
    Out += '\n';
  }
  std::string Tmp = poolOrderPath(A) + ".tmp";
  if (!writeFile(Tmp, Out) ||
      std::rename(Tmp.c_str(), poolOrderPath(A).c_str()) != 0) {
    std::fprintf(stderr, "pool order: cannot write %s\n",
                 poolOrderPath(A).c_str());
    return 1;
  }
  return 0;
}

Outcome runSuite(const Args &A) {
  Outcome O;

  std::vector<std::vector<PoolEntry>> Order;
  if (!readPoolOrder(A, Order)) {
    O.Invalid = true;
    O.note("no readable pool order file " + poolOrderPath(A));
    return O;
  }
  std::vector<std::vector<runtime::BatchJob>> Sets = runSets(A.Seed, Order);
  for (const std::vector<runtime::BatchJob> &Set : Sets) {
    std::string List = "input set:";
    for (const runtime::BatchJob &J : Set)
      List += " " + J.Name;
    O.note(List);
  }

  std::string OracleText;
  std::map<std::string, Verdict> Oracle;
  if (!readFile(oraclePath(A), OracleText) ||
      !parseOracle(OracleText, Oracle)) {
    O.Invalid = true;
    O.note("no readable oracle file " + oraclePath(A));
    return O;
  }
  // The oracle holds for the texts it was computed from; if the
  // generator now writes other programs, nothing checks the outputs.
  for (const std::vector<runtime::BatchJob> &Set : Sets)
    for (const runtime::BatchJob &J : Set) {
      auto It = Oracle.find(J.Name);
      if (It == Oracle.end() || It->second.InputDigest != digest64(J.Source)) {
        O.Invalid = true;
        O.note(J.Name + ": the generated input differs from the one the "
                        "committed oracle was computed for");
        return O;
      }
      if (A.CorruptExpected)
        It->second.InvariantDigest ^= 1;
    }

  // Set-up: what the program does with the texts before analysis, parse
  // and CFG construction of every input, eleven times (it takes tens of
  // milliseconds, so one figure is mostly noise). Generating the texts is
  // the benchmark's own work and is not timed.
  std::vector<double> SetupS;
  for (int Rep = 0; Rep != 11; ++Rep) {
    Clock::time_point T0 = Clock::now();
    for (const std::vector<runtime::BatchJob> &Set : Sets)
      for (const runtime::BatchJob &J : Set) {
        std::string Error;
        auto Prog = lang::parseProgram(J.Source, Error);
        if (!Prog) {
          O.mismatch(J.Name + ": generated program does not parse: " + Error);
          return O;
        }
        cfg::Cfg::build(*Prog);
      }
    SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
  }

  // Every pass is checked against the oracle, and against the first
  // canonical report of its input set. Reports run to 15 MB, so only
  // their digests are kept: peak_rss_mb is then the analyzer's, not the
  // benchmark's bookkeeping.
  std::vector<std::uint64_t> Reference(InputSets, 0);
  auto CheckPass = [&](const Pass &P, unsigned Set) {
    O.Attempted += P.Report.Results.size();
    std::uint64_t Bad = checkOracle(P.Report, Oracle, O);
    std::uint64_t Digest = digest64(P.Canonical);
    if (Reference[Set] == 0) {
      Reference[Set] = Digest;
    } else if (Digest != Reference[Set]) {
      O.mismatch("canonical report differs between passes");
      Bad = P.Report.Results.size();
    }
    O.Failed += Bad;
  };

  Clock::time_point Start = Clock::now();
  auto TimeLeft = [&] {
    return msBetween(Start, Clock::now()) < A.Seconds * 1000.0;
  };

  if (!A.Trace) {
    // Rounds of one pass per input set, until the time is up. Host noise
    // on a shared machine only ever adds time, in stretches of seconds to
    // minutes; so a set's pass time is assembled from the fastest
    // instance of each part over the run's passes: each job's analysis
    // (JobResult::WallSeconds) and the rest of the pass (batch
    // scheduling, tallying, the canonical report).
    std::vector<std::vector<double>> JobBest(InputSets);
    std::vector<double> RestBest(InputSets, Inf), Walls;
    std::vector<double> JobMs;
    std::string List = "pass walls (s) by round:";
    do {
      for (unsigned Set = 0; Set != InputSets; ++Set) {
        Pass P = untracedPass(Sets[Set]);
        CheckPass(P, Set);
        Walls.push_back(P.WallS);
        JobBest[Set].resize(P.Report.Results.size(), Inf);
        double JobsS = 0;
        for (std::size_t J = 0; J != P.Report.Results.size(); ++J) {
          double S = P.Report.Results[J].WallSeconds;
          JobBest[Set][J] = std::min(JobBest[Set][J], S);
          JobsS += S;
          JobMs.push_back(S * 1000.0);
        }
        RestBest[Set] = std::min(RestBest[Set], P.WallS - JobsS);
        List += " " + std::to_string(P.WallS);
      }
      List += " |";
    } while (TimeLeft());
    double Wall = 0;
    for (unsigned Set = 0; Set != InputSets; ++Set) {
      double Best = RestBest[Set];
      for (double S : JobBest[Set])
        Best += S;
      Wall += Best / InputSets;
    }
    O.note(std::to_string(Walls.size() / InputSets) + " rounds of " +
           std::to_string(InputSets) + " input sets, " +
           std::to_string(Sets[0].size()) + " jobs per pass, " +
           std::to_string(JobMs.size()) + " latency samples; best-case " +
           "pass " + std::to_string(Wall) + " s, median pass " +
           std::to_string(median(Walls)) + " s");
    O.note(List);
    O.add("batch_wall_s", Wall, "s");
    O.add("latency_p50_ms", median(JobMs), "ms");
    O.add("latency_p99_ms", quantile(JobMs, 0.99), "ms");
    O.add("setup_s", median(SetupS), "s");
    O.add("peak_rss_mb", selfPeakRssMb(), "MiB");
    return O;
  }

  // Traced run: alternate an untraced and a traced pass of the same
  // input set, taking the sets in turn.
  double TicksPerMs = cyclesPerMs();
  std::vector<double> JobMs;
  double UntracedMs = 0, TracedMs = 0, ResidualMs = 0, SelfMs = 0;
  LayerTotals T;
  unsigned Passes = 0;
  for (; Passes == 0 || TimeLeft(); ++Passes) {
    unsigned Set = Passes % InputSets;
    const std::vector<runtime::BatchJob> &Jobs = Sets[Set];
    Pass P = untracedPass(Jobs);
    CheckPass(P, Set);
    UntracedMs += P.WallS * 1000.0;
    for (const runtime::JobResult &R : P.Report.Results)
      JobMs.push_back(R.WallSeconds * 1000.0);

    LayerTotals PassT;
    runtime::BatchReport Rep;
    Clock::time_point T0 = Clock::now();
    for (const runtime::BatchJob &J : Jobs) {
      std::string Record;
      Rep.Results.push_back(tracedJob(J, batchOptions().Engine, PassT, Record));
    }
    Clock::time_point T1 = Clock::now();
    runtime::tallyBatchReport(Rep);
    std::string Canonical = runtime::reportToJson(Rep, /*Canonical=*/true);
    Clock::time_point T2 = Clock::now();
    PassT.SerializeMs += msBetween(T1, T2);
    PassT.SerializeBytes += Canonical.size();
    double PassMs = msBetween(T0, T2);
    TracedMs += PassMs;
    if (digest64(Canonical) != Reference[Set])
      O.mismatch("traced canonical report differs from the untraced one");
    ResidualMs += PassMs - PassT.pipelineMs();
    SelfMs += PassT.analysisSelfMs(TicksPerMs);
    T += PassT;
  }
  // The layers must tile the traced passes: what no span covers is at
  // most 5% of their time, summed over the run.
  if (ResidualMs < 0 || ResidualMs > 0.05 * TracedMs || SelfMs < 0) {
    O.Invalid = true;
    O.note("layer sum check failed: traced passes " + std::to_string(TracedMs) +
           " ms, residual " + std::to_string(ResidualMs) +
           " ms, analysis self " + std::to_string(SelfMs) + " ms");
  }
  double Overhead = (TracedMs - UntracedMs) / UntracedMs * 100.0;
  O.note("traced passes " + std::to_string(Passes) + ", traced " +
         std::to_string(TracedMs) + " ms, untraced " +
         std::to_string(UntracedMs) +
         " ms; layer-sum tolerance: residual within [0, 5%] of the traced "
         "passes");
  O.add("latency_p50_ms", median(JobMs), "ms");
  O.add("latency_p99_ms", quantile(JobMs, 0.99), "ms");
  // Derived: jobs per second over the untraced passes, as the batch
  // runtime serves them one after another.
  O.add("capacity_rps",
        static_cast<double>(JobMs.size()) / (UntracedMs / 1000.0), "1/s");
  emitLayers(O, T, Passes, TicksPerMs, ServerLayers{}, ResidualMs / Passes,
             Overhead);
  return O;
}

} // namespace perfbench
