//===- capi/opt_oct_batch.cpp - C API for the batch runtime ---------------===//

#include "capi/opt_oct_batch.h"

#include "runtime/batch.h"
#include "runtime/shard.h"

using namespace optoct;

struct opt_oct_batch_report_t {
  runtime::BatchReport Report;
};

namespace {

const runtime::JobResult *jobAt(const opt_oct_batch_report_t *R, size_t I) {
  if (!R || I >= R->Report.Results.size())
    return nullptr;
  return &R->Report.Results[I];
}

} // namespace

extern "C" {

opt_oct_batch_report_t *
opt_oct_batch_run(const char *const *names, const char *const *sources,
                  size_t count, const opt_oct_batch_options_t *opts) {
  if (count != 0 && (!names || !sources))
    return nullptr;
  const opt_oct_batch_options_t O = opts ? *opts : opt_oct_batch_options_t{};
  // Never lets an exception cross the C boundary: the runtime's own
  // option checks (std::invalid_argument) and journal, fingerprint and
  // fork failures (std::runtime_error) all become the documented NULL.
  try {
    std::vector<runtime::BatchJob> Jobs;
    Jobs.reserve(count);
    for (size_t I = 0; I != count; ++I)
      // NULL entries become cleanly failing jobs, not UB.
      Jobs.push_back({names[I] ? names[I] : "(null)",
                      sources[I] ? sources[I] : ""});
    runtime::BatchOptions Opts;
    Opts.Jobs = O.jobs;
    Opts.Budget.DeadlineMs = O.deadline_ms;
    Opts.Budget.MaxDbmCells = O.max_dbm_cells;
    Opts.MaxAttempts = O.max_attempts == 0 ? 1 : O.max_attempts;
    if (O.isolate_process)
      Opts.Isolation = runtime::IsolationMode::Process;
    Opts.MaxRssMb = O.max_rss_mb;
    Opts.JournalPath = O.journal ? O.journal : "";
    Opts.Resume = O.resume != 0;
    runtime::BatchReport Report;
    if (O.nodes == 0) {
      Report = runtime::runBatch(Jobs, Opts);
    } else {
      runtime::ShardOptions Shard;
      Shard.Nodes = O.nodes;
      Shard.ShardSize = O.shard_size;
      if (O.lease_ms != 0)
        Shard.LeaseMs = O.lease_ms;
      Report = runtime::runShardedBatch(Jobs, Opts, Shard);
    }
    return new opt_oct_batch_report_t{std::move(Report)};
  } catch (...) {
    return nullptr;
  }
}

size_t opt_oct_batch_num_jobs(const opt_oct_batch_report_t *r) {
  return r ? r->Report.Results.size() : 0;
}

unsigned opt_oct_batch_workers(const opt_oct_batch_report_t *r) {
  return r ? r->Report.Workers : 0;
}

double opt_oct_batch_wall_seconds(const opt_oct_batch_report_t *r) {
  return r ? r->Report.WallSeconds : 0.0;
}

uint64_t opt_oct_batch_total_closures(const opt_oct_batch_report_t *r) {
  return r ? r->Report.NumClosures : 0;
}

unsigned opt_oct_batch_jobs_resumed(const opt_oct_batch_report_t *r) {
  return r ? r->Report.JobsResumed : 0;
}

unsigned opt_oct_batch_jobs_lost(const opt_oct_batch_report_t *r) {
  return r ? r->Report.Shard.JobsLost : 0;
}

uint64_t opt_oct_batch_audit_incidents(const opt_oct_batch_report_t *r) {
  return r ? r->Report.AuditIncidentTotal : 0;
}

const char *opt_oct_batch_job_name(const opt_oct_batch_report_t *r, size_t i) {
  const runtime::JobResult *J = jobAt(r, i);
  return J ? J->Name.c_str() : nullptr;
}

int opt_oct_batch_job_ok(const opt_oct_batch_report_t *r, size_t i) {
  const runtime::JobResult *J = jobAt(r, i);
  return J ? (J->Ok ? 1 : 0) : -1;
}

int opt_oct_batch_job_status(const opt_oct_batch_report_t *r, size_t i) {
  const runtime::JobResult *J = jobAt(r, i);
  if (!J)
    return -1;
  switch (J->Status) {
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

unsigned opt_oct_batch_job_attempts(const opt_oct_batch_report_t *r,
                                    size_t i) {
  const runtime::JobResult *J = jobAt(r, i);
  return J ? J->Attempts : 0;
}

const char *opt_oct_batch_job_error(const opt_oct_batch_report_t *r,
                                    size_t i) {
  const runtime::JobResult *J = jobAt(r, i);
  return J ? J->Error.c_str() : nullptr;
}

unsigned opt_oct_batch_job_asserts_proven(const opt_oct_batch_report_t *r,
                                          size_t i) {
  const runtime::JobResult *J = jobAt(r, i);
  return J ? J->AssertsProven : 0;
}

unsigned opt_oct_batch_job_asserts_total(const opt_oct_batch_report_t *r,
                                         size_t i) {
  const runtime::JobResult *J = jobAt(r, i);
  return J ? J->AssertsTotal : 0;
}

uint64_t opt_oct_batch_job_closures(const opt_oct_batch_report_t *r,
                                    size_t i) {
  const runtime::JobResult *J = jobAt(r, i);
  return J ? J->NumClosures : 0;
}

void opt_oct_batch_free(opt_oct_batch_report_t *r) { delete r; }

} // extern "C"
