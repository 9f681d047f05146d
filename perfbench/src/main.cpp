//===- perfbench/src/main.cpp - Benchmark harness entry point -------------===//
///
/// \file
/// optoct_perfbench <workload> --seed=N --seconds=S --trace=0|1
///                  --optoctd=<path> --work-dir=<dir> --expected-dir=<dir>
///                  [--corrupt-expected]
/// optoct_perfbench oracle --expected-dir=<dir>
/// optoct_perfbench pool-order --expected-dir=<dir>
///
/// Runs one workload (paper-suite, daemon-hot, daemon-churn) and prints,
/// as its last stdout line, one JSON object: correct, invalid,
/// attempted, failed, the metrics (name -> value, unit), notes and the
/// dispatched SIMD tier. perfbench/run.py builds this binary, adds the
/// run header and prints the summary; see perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "oct/simd_dispatch.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

void printOutcome(const Outcome &O) {
  std::string Out = "{\"correct\": ";
  Out += O.Correct ? "true" : "false";
  Out += ", \"invalid\": ";
  Out += O.Invalid ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(O.Attempted);
  Out += ", \"failed\": " + std::to_string(O.Failed);
  Out += ", \"simd_tier\": " +
         jsonString(optoct::simdTierName(optoct::activeSimdTier()));
  Out += ", \"metrics\": {";
  for (std::size_t I = 0; I != O.Metrics.size(); ++I) {
    // JSON has no infinity: a latency of requests never served is null.
    char Buf[64] = "null";
    if (std::isfinite(O.Metrics[I].Value))
      std::snprintf(Buf, sizeof(Buf), "%.17g", O.Metrics[I].Value);
    Out += (I ? ", " : "") + jsonString(O.Metrics[I].Name) +
           ": {\"value\": " + Buf +
           ", \"unit\": " + jsonString(O.Metrics[I].Unit) + "}";
  }
  Out += "}, \"notes\": [";
  for (std::size_t I = 0; I != O.Notes.size(); ++I)
    Out += (I ? ", " : "") + jsonString(O.Notes[I]);
  Out += "]}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  if (Argc < 2)
    return false;
  A.Workload = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix, std::string &Out) {
      std::string P = Prefix;
      if (Arg.rfind(P, 0) != 0)
        return false;
      Out = Arg.substr(P.size());
      return true;
    };
    std::string V;
    if (Value("--seed=", V))
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Value("--seconds=", V))
      A.Seconds = std::atof(V.c_str());
    else if (Value("--trace=", V))
      A.Trace = V == "1";
    else if (Value("--optoctd=", A.Optoctd) ||
             Value("--work-dir=", A.WorkDir) ||
             Value("--expected-dir=", A.ExpectedDir))
      continue;
    else if (Arg == "--corrupt-expected")
      A.CorruptExpected = true;
    else {
      std::fprintf(stderr, "optoct_perfbench: unknown argument '%s'\n",
                   Arg.c_str());
      return false;
    }
  }
  return A.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: optoct_perfbench <paper-suite|daemon-hot|"
                 "daemon-churn> --seed=N --seconds=S --trace=0|1 "
                 "--optoctd=<path> --work-dir=<dir> --expected-dir=<dir> "
                 "[--corrupt-expected]\n"
                 "       optoct_perfbench oracle --expected-dir=<dir>\n"
                 "       optoct_perfbench pool-order --expected-dir=<dir>\n");
    return 2;
  }
  if (A.Workload == "oracle")
    return writeSuiteOracle(A);
  if (A.Workload == "pool-order")
    return writePoolOrder(A);

  Outcome O;
  if (A.Workload == "paper-suite")
    O = runSuite(A);
  else if (A.Workload == "daemon-hot" || A.Workload == "daemon-churn")
    O = runDaemon(A, A.Workload == "daemon-hot");
  else {
    std::fprintf(stderr, "optoct_perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  printOutcome(O);
  return 0;
}
