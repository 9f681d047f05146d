//===- workloads/harness.cpp - Benchmark execution harness ----------------===//

#include "workloads/harness.h"

#include "analysis/engine.h"
#include "baseline/apron_octagon.h"
#include "baseline/closure_apron.h"
#include "cfg/cfg.h"
#include "dataflow/dataflow.h"
#include "lang/parser.h"
#include "oct/octagon.h"
#include "runtime/thread_pool.h"
#include "support/timing.h"

#include <future>

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace optoct;
using namespace optoct::workloads;

namespace {

struct ParsedWorkload {
  lang::Program Prog;
  cfg::Cfg Graph;
};

ParsedWorkload parseWorkload(const WorkloadSpec &Spec) {
  std::string Source = generateProgram(Spec);
  std::string Error;
  auto P = lang::parseProgram(Source, Error);
  if (!P) {
    std::fprintf(stderr, "workload %s failed to parse: %s\n",
                 Spec.Name.c_str(), Error.c_str());
    std::abort();
  }
  ParsedWorkload W{std::move(*P), cfg::Cfg()};
  W.Graph = cfg::Cfg::build(W.Prog);
  return W;
}

template <typename DomainT>
RunResult runWith(const cfg::Cfg &Graph, bool TraceClosures,
                  void (*SetSink)(OctStats *)) {
  OctStats Stats;
  Stats.enableTrace(TraceClosures);
  SetSink(&Stats);
  WallTimer Timer;
  Timer.start();
  auto Result = analysis::analyze<DomainT>(Graph);
  Timer.stop();
  SetSink(nullptr);

  RunResult R;
  R.NumClosures = Stats.numClosures();
  R.ClosureCycles = Stats.closureCycles();
  R.IncrementalClosures = Stats.numIncrementalClosures();
  R.OctagonCycles = Result.OctagonCycles;
  R.NMin = Stats.minVars();
  R.NMax = Stats.maxVars();
  R.WallSeconds = Timer.seconds();
  R.AssertsTotal = static_cast<unsigned>(Result.Asserts.size());
  R.AssertsProven = Result.assertsProven();
  R.BlockVisits = Result.BlockVisits;
  if (TraceClosures)
    R.Trace = Stats.trace();
  return R;
}

} // namespace

RunResult optoct::workloads::runWorkload(const WorkloadSpec &Spec,
                                         Library Lib, bool TraceClosures) {
  ParsedWorkload W = parseWorkload(Spec);
  if (Lib == Library::OptOctagon)
    return runWith<Octagon>(W.Graph, TraceClosures, setOctStatsSink);
  baseline::setBaselineClosureMode(Lib == Library::ApronFW
                                       ? baseline::BaselineClosureMode::VectorizedFW
                                       : baseline::BaselineClosureMode::Apron);
  RunResult R = runWith<baseline::ApronOctagon>(W.Graph, TraceClosures,
                                                baseline::setApronStatsSink);
  baseline::setBaselineClosureMode(baseline::BaselineClosureMode::Apron);
  return R;
}

std::vector<RunResult>
optoct::workloads::runWorkloads(const std::vector<WorkloadSpec> &Specs,
                                Library Lib, unsigned Jobs,
                                bool TraceClosures) {
  std::vector<RunResult> Results(Specs.size());
  unsigned Workers =
      Jobs == 0 ? runtime::ThreadPool::defaultWorkerCount() : Jobs;
  if (Workers <= 1 || Specs.size() <= 1) {
    for (std::size_t I = 0; I != Specs.size(); ++I)
      Results[I] = runWorkload(Specs[I], Lib, TraceClosures);
    return Results;
  }
  // runWorkload installs its stats sink and baseline closure mode on
  // the worker thread it runs on; both are thread-local, so jobs on
  // different workers never interfere.
  runtime::ThreadPool Pool(Workers);
  std::vector<std::future<RunResult>> Futures;
  Futures.reserve(Specs.size());
  for (const WorkloadSpec &Spec : Specs)
    Futures.push_back(Pool.submit([&Spec, Lib, TraceClosures] {
      return runWorkload(Spec, Lib, TraceClosures);
    }));
  for (std::size_t I = 0; I != Futures.size(); ++I)
    Results[I] = Futures[I].get();
  return Results;
}

double optoct::workloads::measureClientRep(const WorkloadSpec &Spec) {
  ParsedWorkload W = parseWorkload(Spec);
  // Warm up once, then measure a small batch for stability.
  dataflow::runClientAnalyses(W.Graph, 1);
  WallTimer Timer;
  Timer.start();
  volatile std::uint64_t Sink = dataflow::runClientAnalyses(W.Graph, 5);
  Timer.stop();
  (void)Sink;
  return Timer.seconds() / 5.0;
}

EndToEndResult optoct::workloads::runEndToEnd(const WorkloadSpec &Spec,
                                              Library Lib,
                                              unsigned ClientReps) {
  ParsedWorkload W = parseWorkload(Spec);
  WallTimer Total;
  Total.start();
  RunResult Oct;
  if (Lib == Library::OptOctagon)
    Oct = runWith<Octagon>(W.Graph, false, setOctStatsSink);
  else
    Oct = runWith<baseline::ApronOctagon>(W.Graph, false,
                                          baseline::setApronStatsSink);
  volatile std::uint64_t Sink =
      dataflow::runClientAnalyses(W.Graph, ClientReps);
  (void)Sink;
  Total.stop();

  EndToEndResult E;
  E.TotalSeconds = Total.seconds();
  E.OctSeconds = Oct.WallSeconds;
  E.PctOct = E.TotalSeconds > 0 ? 100.0 * E.OctSeconds / E.TotalSeconds : 0;
  return E;
}
