//===- tools/optoct_cli.cpp - Command-line analyzer -----------------------===//
///
/// \file
/// The command-line front end: analyze a mini-IMP program with the
/// octagon domain and report assertion results, invariants, and
/// statistics.
///
///   optoct <file.imp> [options]
///     --library=opt|apron   octagon implementation (default opt)
///     --invariants          print the invariant at every block entry
///     --loop-invariants     print invariants at loop heads only
///     --stats               closure count/cycles, octagon time
///     --dump-cfg            print the control-flow graph
///     --no-decomposition    disable online decomposition
///     --no-sparse           disable the sparse closure
///     --threshold=<t>       sparsity threshold (default 0.75)
///     --widening-delay=<k>  joins before widening (default 2)
///     --narrowing=<k>       descending passes (default 1)
///     --thresholds=a,b,...  widening thresholds (ascending)
///     --no-linearize        disable guard linearization
///
/// Exit code: 0 if all assertions proven, 1 if some are unknown,
/// 2 on usage/parse errors.
///
//===----------------------------------------------------------------------===//

#include "analysis/engine.h"
#include "baseline/apron_octagon.h"
#include "cfg/cfg.h"
#include "lang/parser.h"
#include "oct/config.h"
#include "oct/octagon.h"
#include "support/stats.h"
#include "support/timing.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

using namespace optoct;

namespace {

/// stoul/stod throw on garbage and out-of-range values; a CLI must
/// diagnose, not terminate.
bool parseUnsigned(const std::string &Val, const char *Flag, unsigned &Out) {
  try {
    std::size_t End = 0;
    unsigned long Wide = std::stoul(Val, &End);
    if (End == Val.size() && Wide <= 0xfffffffful) {
      Out = static_cast<unsigned>(Wide);
      return true;
    }
  } catch (const std::exception &) {
  }
  std::fprintf(stderr, "error: %s expects a non-negative integer, got '%s'\n",
               Flag, Val.c_str());
  return false;
}

bool parseDouble(const std::string &Val, const char *Flag, double &Out) {
  try {
    std::size_t End = 0;
    Out = std::stod(Val, &End);
    if (End == Val.size())
      return true;
  } catch (const std::exception &) {
  }
  std::fprintf(stderr, "error: %s expects a number, got '%s'\n", Flag,
               Val.c_str());
  return false;
}

struct CliOptions {
  std::string File;
  bool UseApron = false;
  bool PrintInvariants = false;
  bool PrintLoopInvariants = false;
  bool PrintStats = false;
  bool DumpCfg = false;
  analysis::AnalysisOptions Engine;
};

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <file.imp> [--library=opt|apron] [--invariants]\n"
               "       [--loop-invariants] [--stats] [--dump-cfg]\n"
               "       [--no-decomposition] [--no-sparse]\n"
               "       [--threshold=<t>] [--widening-delay=<k>] "
               "[--narrowing=<k>]\n",
               Argv0);
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--invariants")
      Opts.PrintInvariants = true;
    else if (Arg == "--loop-invariants")
      Opts.PrintLoopInvariants = true;
    else if (Arg == "--stats")
      Opts.PrintStats = true;
    else if (Arg == "--dump-cfg")
      Opts.DumpCfg = true;
    else if (Arg == "--library=opt")
      Opts.UseApron = false;
    else if (Arg == "--library=apron")
      Opts.UseApron = true;
    else if (Arg == "--no-decomposition")
      octConfig().EnableDecomposition = false;
    else if (Arg == "--no-sparse")
      octConfig().EnableSparse = false;
    else if (Arg.rfind("--threshold=", 0) == 0) {
      if (!parseDouble(Arg.substr(12), "--threshold",
                       octConfig().SparsityThreshold))
        return false;
    } else if (Arg.rfind("--widening-delay=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(17), "--widening-delay",
                         Opts.Engine.WideningDelay))
        return false;
    } else if (Arg.rfind("--narrowing=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(12), "--narrowing",
                         Opts.Engine.NarrowingPasses))
        return false;
    } else if (Arg == "--no-linearize")
      Opts.Engine.LinearizeGuards = false;
    else if (Arg.rfind("--thresholds=", 0) == 0) {
      std::stringstream List(Arg.substr(13));
      std::string Item;
      while (std::getline(List, Item, ',')) {
        double T;
        if (!parseDouble(Item, "--thresholds", T))
          return false;
        Opts.Engine.WideningThresholds.push_back(T);
      }
      std::sort(Opts.Engine.WideningThresholds.begin(),
                Opts.Engine.WideningThresholds.end());
    }
    else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    } else if (Opts.File.empty())
      Opts.File = Arg;
    else {
      std::fprintf(stderr, "error: multiple input files\n");
      return false;
    }
  }
  if (Opts.File.empty()) {
    std::fprintf(stderr, "error: no input file\n");
    return false;
  }
  return true;
}

template <typename DomainT>
int runAnalysis(const CliOptions &Opts, const cfg::Cfg &Graph,
                void (*SetSink)(OctStats *)) {
  OctStats Stats;
  SetSink(&Stats);
  WallTimer Timer;
  Timer.start();
  auto Result = analysis::analyze<DomainT>(Graph, Opts.Engine);
  Timer.stop();
  SetSink(nullptr);

  if (Opts.PrintInvariants || Opts.PrintLoopInvariants) {
    std::printf("invariants:\n");
    for (unsigned B : Graph.rpo()) {
      const cfg::BasicBlock &Block = Graph.block(B);
      if (Opts.PrintLoopInvariants && !Block.IsLoopHead)
        continue;
      std::printf("  bb%u%s: ", B, Block.IsLoopHead ? " (loop head)" : "");
      if (!Result.BlockInvariant[B]) {
        std::printf("unreachable\n");
        continue;
      }
      DomainT Inv = *Result.BlockInvariant[B];
      std::printf("%s\n", Inv.str(&Block.SlotNames).c_str());
    }
  }

  unsigned Proven = Result.assertsProven();
  std::size_t Total = Result.Asserts.size();
  for (const auto &A : Result.Asserts)
    if (!A.Proven)
      std::printf("assert at line %d: unknown\n", A.Line);
  std::printf("%u of %zu assertions proven\n", Proven, Total);

  if (Opts.PrintStats) {
    std::printf("stats: %llu closures (n in [%u, %u]), %.1f Mcycles in "
                "closure,\n       %.1f Mcycles in octagon ops, %.1f ms "
                "analysis time, %llu block visits\n",
                static_cast<unsigned long long>(Stats.numClosures()),
                Stats.minVars(), Stats.maxVars(),
                static_cast<double>(Stats.closureCycles()) / 1e6,
                static_cast<double>(Result.OctagonCycles) / 1e6,
                Timer.seconds() * 1e3,
                static_cast<unsigned long long>(Result.BlockVisits));
  }
  return Proven == Total ? 0 : 1;
}

int run(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage(Argv[0]);
    return 2;
  }

  std::ifstream In(Opts.File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Opts.File.c_str());
    return 2;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  std::string Error;
  auto Prog = lang::parseProgram(Buffer.str(), Error);
  if (!Prog) {
    std::fprintf(stderr, "%s: %s\n", Opts.File.c_str(), Error.c_str());
    return 2;
  }
  cfg::Cfg Graph = cfg::Cfg::build(*Prog);
  if (Opts.DumpCfg)
    std::printf("%s", Graph.str().c_str());

  if (Opts.UseApron)
    return runAnalysis<baseline::ApronOctagon>(Opts, Graph,
                                               baseline::setApronStatsSink);
  return runAnalysis<Octagon>(Opts, Graph, setOctStatsSink);
}

} // namespace

int main(int Argc, char **Argv) {
  // Anything escaping here would std::terminate with no diagnostic.
  try {
    return run(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "optoct: fatal: %s\n", E.what());
    return 2;
  } catch (...) {
    std::fprintf(stderr, "optoct: fatal: unknown error\n");
    return 2;
  }
}
