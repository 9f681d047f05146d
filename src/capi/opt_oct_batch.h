/*===- capi/opt_oct_batch.h - C API for the batch runtime -------*- C -*-===*
 *
 * C-linkage surface over the parallel batch-analysis runtime
 * (src/runtime): submit a set of named mini-IMP sources, analyze them
 * with the OptOctagon domain spread over a worker pool, and read the
 * per-job verdicts and aggregate statistics back.
 *
 * Results are deterministic in the job set: the same sources produce
 * the same verdicts and invariants for any worker count (only timing
 * fields vary). Indices into the report follow submission order.
 *
 * One entry point, opt_oct_batch_run, covers every execution tier —
 * in-process threads or forked worker processes — and every recovery
 * knob, through an options struct whose zero value
 * is the plain threaded run.
 *
 * Robustness: opt_oct_batch_run returns NULL on invalid arguments
 * (NULL name/source arrays with count > 0, or an option combination
 * the runtime rejects) instead of invoking undefined behavior; NULL
 * array *entries* become jobs that fail cleanly. All accessors
 * tolerate NULL reports and out-of-range indices, returning the
 * documented error value.
 *
 *===---------------------------------------------------------------------===*/

#ifndef OPTOCT_CAPI_OPT_OCT_BATCH_H
#define OPTOCT_CAPI_OPT_OCT_BATCH_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct opt_oct_batch_report_t opt_oct_batch_report_t;

/* Per-job final status codes (opt_oct_batch_job_status). */
#define OPT_OCT_BATCH_JOB_OK 0       /* converged                      */
#define OPT_OCT_BATCH_JOB_DEGRADED 1 /* budget tripped; sound but Top  */
#define OPT_OCT_BATCH_JOB_FAILED 2   /* parse error or exception       */
#define OPT_OCT_BATCH_JOB_TIMEOUT 3  /* deadline passed                */
#define OPT_OCT_BATCH_JOB_CRASHED 4  /* worker process died (isolated) */

/* Batch options. Zero every field (or pass NULL) for the default run:
 * threads, one per hardware thread, no budgets, no journal. */
typedef struct opt_oct_batch_options_t {
  /* Workers: 0 = one per hardware thread, 1 = serial in the caller.
   * With isolate_process these are worker processes. */
  unsigned jobs;
  /* Per-attempt wall-clock deadline and cumulative DBM-cell budget
   * (0 = off). Budget trips degrade a job to sound Top invariants or a
   * timeout status; with isolate_process the deadline escalates to a
   * hard SIGKILL of the worker shortly after. */
  uint64_t deadline_ms;
  uint64_t max_dbm_cells;
  /* Attempts per job (0 is treated as 1): jobs that fail with an
   * exception (or, isolated, crash their worker) are retried. */
  unsigned max_attempts;
  /* Nonzero: each job runs inside a forked worker process under a
   * supervisor, so a segfault, memory exhaustion or a hang is contained
   * (OPT_OCT_BATCH_JOB_CRASHED / _TIMEOUT) instead of taking the caller
   * down. NULL if no worker can be spawned at all. */
  int isolate_process;
  /* Isolated workers' address-space growth cap in MiB via RLIMIT_AS
   * (0 = unlimited; ignored under sanitizers). */
  uint64_t max_rss_mb;
  /* Append-only checkpoint journal (fsync per completed job); NULL or
   * "" = none. */
  const char *journal;
  /* Nonzero: load `journal` first and run only the jobs missing from it
   * — the report is identical to an uninterrupted run, even after the
   * caller was SIGKILLed mid-batch. Needs a journal written by the same
   * job set (fingerprint check); NULL without a journal or on a
   * mismatch. */
  int resume;
} opt_oct_batch_options_t;

/* Analyzes `count` mini-IMP programs under `opts` (NULL = all zero).
 * `names` and `sources` are parallel arrays of NUL-terminated strings;
 * names key the per-job results. NULL on invalid arguments or options,
 * an unwritable journal, a resume fingerprint mismatch, or when no
 * worker process can be forked. */
opt_oct_batch_report_t *opt_oct_batch_run(const char *const *names,
                                          const char *const *sources,
                                          size_t count,
                                          const opt_oct_batch_options_t *opts);

/* Report-level accessors. */
size_t opt_oct_batch_num_jobs(const opt_oct_batch_report_t *r);
unsigned opt_oct_batch_workers(const opt_oct_batch_report_t *r);
double opt_oct_batch_wall_seconds(const opt_oct_batch_report_t *r);
uint64_t opt_oct_batch_total_closures(const opt_oct_batch_report_t *r);
/* Jobs whose results were loaded from the journal instead of run. */
unsigned opt_oct_batch_jobs_resumed(const opt_oct_batch_report_t *r);
/* Corruption events detected and recovered by the audit layer (0 when
 * audit mode was off). */
uint64_t opt_oct_batch_audit_incidents(const opt_oct_batch_report_t *r);

/* Per-job accessors; i < opt_oct_batch_num_jobs(r). NULL reports and
 * out-of-range indices return NULL / -1 / 0 as appropriate. */
const char *opt_oct_batch_job_name(const opt_oct_batch_report_t *r, size_t i);
/* 1 when the job produced (possibly degraded) results; 0 on error; -1
 * on an invalid report/index. */
int opt_oct_batch_job_ok(const opt_oct_batch_report_t *r, size_t i);
/* One of the OPT_OCT_BATCH_JOB_* codes; -1 on invalid report/index. */
int opt_oct_batch_job_status(const opt_oct_batch_report_t *r, size_t i);
/* Attempts the job consumed (1 = no retry); 0 on invalid report/index. */
unsigned opt_oct_batch_job_attempts(const opt_oct_batch_report_t *r, size_t i);
/* Parse/exception text for failed jobs ("" for successful ones). */
const char *opt_oct_batch_job_error(const opt_oct_batch_report_t *r, size_t i);
unsigned opt_oct_batch_job_asserts_proven(const opt_oct_batch_report_t *r,
                                          size_t i);
unsigned opt_oct_batch_job_asserts_total(const opt_oct_batch_report_t *r,
                                         size_t i);
uint64_t opt_oct_batch_job_closures(const opt_oct_batch_report_t *r, size_t i);

void opt_oct_batch_free(opt_oct_batch_report_t *r);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* OPTOCT_CAPI_OPT_OCT_BATCH_H */
