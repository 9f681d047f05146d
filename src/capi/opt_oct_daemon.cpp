//===- capi/opt_oct_daemon.cpp - C API for the analysis daemon ------------===//

#include "capi/opt_oct_daemon.h"

#include "runtime/journal.h"
#include "server/replica.h"

using namespace optoct;

/// Both connect flavors are one ReplicaClient; a single-socket handle
/// uses server::singleDaemonOptions.
struct opt_oct_daemon_t {
  explicit opt_oct_daemon_t(server::ReplicaOptions Opts)
      : Client(std::move(Opts)) {}
  server::ReplicaClient Client;
};

struct opt_oct_daemon_result_t {
  server::AnalyzeResponse Response;
  runtime::JobResult Result; ///< Decoded record; valid when Response.Ok.
  const char *Path = "";     ///< replyPathName of how it was served.
};

namespace {

int statusCode(const runtime::JobResult &R) {
  switch (R.Status) {
  case runtime::JobStatus::Ok:
    return OPT_OCT_BATCH_JOB_OK;
  case runtime::JobStatus::Degraded:
    return OPT_OCT_BATCH_JOB_DEGRADED;
  case runtime::JobStatus::Failed:
    return OPT_OCT_BATCH_JOB_FAILED;
  case runtime::JobStatus::Timeout:
    return OPT_OCT_BATCH_JOB_TIMEOUT;
  case runtime::JobStatus::Crashed:
    return OPT_OCT_BATCH_JOB_CRASHED;
  }
  return -1;
}

opt_oct_daemon_result_t *analyzeImpl(opt_oct_daemon_t *D, const char *Name,
                                     const char *Source,
                                     const analysis::AnalysisOptions &Engine,
                                     uint64_t MaxDbmCells) {
  if (!D || !Name || !Source)
    return nullptr;
  try {
    server::AnalyzeRequest Req;
    Req.Job.Name = Name;
    Req.Job.Source = Source;
    Req.Engine = Engine;
    Req.MaxDbmCells = MaxDbmCells;
    server::AnalyzeResponse Resp;
    server::ReplicaReplyInfo Info;
    std::string Error;
    if (!D->Client.analyze(Req, Resp, Error, &Info))
      return nullptr; // every endpoint down and local fallback off
    auto *R = new opt_oct_daemon_result_t;
    R->Response = std::move(Resp);
    R->Path = server::replyPathName(Info.Path);
    if (R->Response.Ok &&
        !runtime::deserializeJobResult(R->Response.ResultRecord, R->Result,
                                       Error)) {
      // A served response with an unparseable record is a daemon bug;
      // surface it as a rejection rather than crashing the caller.
      R->Response.Ok = false;
      R->Response.Error = "bad result record: " + Error;
    }
    return R;
  } catch (...) {
    return nullptr;
  }
}

} // namespace

extern "C" {

opt_oct_daemon_t *opt_oct_daemon_connect(const char *socket_path) {
  if (!socket_path)
    return nullptr;
  try {
    server::ReplicaOptions RO = server::singleDaemonOptions(socket_path);
    RO.Retry.MaxAttempts = 1; // single-shot unless set_retry opts in
    auto *D = new opt_oct_daemon_t(std::move(RO));
    std::string Error;
    if (!D->Client.connect(Error)) {
      delete D;
      return nullptr;
    }
    return D;
  } catch (...) {
    return nullptr;
  }
}

opt_oct_daemon_t *opt_oct_daemon_connect_replicas(const char *endpoints,
                                                  uint64_t hedge_after_ms,
                                                  int local_fallback) {
  if (!endpoints)
    return nullptr;
  try {
    server::ReplicaOptions RO;
    RO.Endpoints = server::parseEndpointList(endpoints);
    if (RO.Endpoints.empty())
      return nullptr;
    RO.HedgeAfterMs = hedge_after_ms;
    RO.LocalFallback = local_fallback != 0;
    RO.Retry.MaxAttempts = 1; // single sweep unless set_retry opts in
    return new opt_oct_daemon_t(std::move(RO));
  } catch (...) {
    return nullptr;
  }
}

void opt_oct_daemon_disconnect(opt_oct_daemon_t *d) { delete d; }

void opt_oct_daemon_set_retry(opt_oct_daemon_t *d, unsigned max_attempts,
                              unsigned base_backoff_ms,
                              unsigned max_backoff_ms) {
  if (!d)
    return;
  server::RetryPolicy Defaults;
  server::RetryPolicy &P = d->Client.retryPolicy();
  P.MaxAttempts = max_attempts != 0 ? max_attempts : 1;
  P.BaseBackoffMs =
      base_backoff_ms != 0 ? base_backoff_ms : Defaults.BaseBackoffMs;
  P.MaxBackoffMs =
      max_backoff_ms != 0 ? max_backoff_ms : Defaults.MaxBackoffMs;
}

opt_oct_daemon_result_t *opt_oct_daemon_analyze(opt_oct_daemon_t *d,
                                                const char *name,
                                                const char *source) {
  return analyzeImpl(d, name, source, analysis::AnalysisOptions(), 0);
}

opt_oct_daemon_result_t *
opt_oct_daemon_analyze_opts(opt_oct_daemon_t *d, const char *name,
                            const char *source, unsigned widening_delay,
                            unsigned narrowing_passes,
                            uint64_t max_dbm_cells) {
  analysis::AnalysisOptions Engine;
  Engine.WideningDelay = widening_delay;
  Engine.NarrowingPasses = narrowing_passes;
  return analyzeImpl(d, name, source, Engine, max_dbm_cells);
}

int opt_oct_daemon_result_ok(const opt_oct_daemon_result_t *r) {
  if (!r)
    return -1;
  return r->Response.Ok ? 1 : 0;
}

int opt_oct_daemon_result_overloaded(const opt_oct_daemon_result_t *r) {
  return r && r->Response.Overloaded ? 1 : 0;
}

uint64_t opt_oct_daemon_result_retry_ms(const opt_oct_daemon_result_t *r) {
  return r && r->Response.Overloaded ? r->Response.RetryMs : 0;
}

int opt_oct_daemon_result_cached(const opt_oct_daemon_result_t *r) {
  return r && r->Response.Cached ? 1 : 0;
}

uint64_t opt_oct_daemon_result_key(const opt_oct_daemon_result_t *r) {
  return r ? r->Response.Key : 0;
}

int opt_oct_daemon_result_status(const opt_oct_daemon_result_t *r) {
  if (!r || !r->Response.Ok)
    return -1;
  return statusCode(r->Result);
}

const char *opt_oct_daemon_result_error(const opt_oct_daemon_result_t *r) {
  if (!r)
    return "";
  if (!r->Response.Ok)
    return r->Response.Error.c_str();
  return r->Result.Error.c_str();
}

unsigned
opt_oct_daemon_result_asserts_proven(const opt_oct_daemon_result_t *r) {
  return r && r->Response.Ok ? r->Result.AssertsProven : 0;
}

unsigned
opt_oct_daemon_result_asserts_total(const opt_oct_daemon_result_t *r) {
  return r && r->Response.Ok ? r->Result.AssertsTotal : 0;
}

const char *opt_oct_daemon_result_path(const opt_oct_daemon_result_t *r) {
  return r ? r->Path : "";
}

size_t
opt_oct_daemon_result_num_invariants(const opt_oct_daemon_result_t *r) {
  return r && r->Response.Ok ? r->Result.LoopInvariants.size() : 0;
}

const char *opt_oct_daemon_result_invariant(const opt_oct_daemon_result_t *r,
                                            size_t i) {
  if (!r || !r->Response.Ok || i >= r->Result.LoopInvariants.size())
    return nullptr;
  return r->Result.LoopInvariants[i].c_str();
}

void opt_oct_daemon_result_free(opt_oct_daemon_result_t *r) { delete r; }

} // extern "C"
