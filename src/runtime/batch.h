//===- runtime/batch.h - Parallel batch-analysis scheduler ------*- C++ -*-===//
///
/// \file
/// Batch front end of the runtime: takes a set of analysis jobs (each a
/// named mini-IMP source), spreads them across a work-stealing thread
/// pool (runtime/thread_pool.h), runs the domain-polymorphic fixpoint
/// engine on each with the OptOctagon domain, and aggregates assertion
/// verdicts, loop invariants, and per-operator statistics into one
/// report.
///
/// Determinism: each job is parsed and analyzed independently with no
/// shared mutable state (see the thread-safety contract in
/// analysis/engine.h), and results are keyed by submission index, so a
/// batch produces identical invariants and verdicts regardless of the
/// worker count or the interleaving — only the timing fields vary.
///
/// Fault isolation: every job attempt runs under its own try/catch and
/// its own armed CancellationToken (support/budget.h). A job that
/// throws is recorded as Failed — with the exception text appended to
/// its failure log — and retried with exponential backoff up to
/// BatchOptions::MaxAttempts; budget trips are terminal (they would
/// recur deterministically) and map to Degraded or Timeout statuses. A
/// watchdog thread scans the armed tokens and flags jobs stuck past
/// their deadline via requestCancel.
///
/// KNOWN LIMIT of thread isolation: the watchdog can only *request*
/// cancellation — the job notices at its next pollBudget(). A job that
/// never polls (a tight non-polling loop, e.g. deep inside the AVX2
/// closure kernels) keeps its worker thread forever, and because
/// threads cannot be killed safely, runBatch cannot complete until it
/// returns. The watchdog escalates by warning on stderr once the job
/// has overstayed its soft cancel (so the stall is never silent), and a
/// job that *did* stop at a poll reports how it was stopped
/// (self-detected deadline vs. watchdog soft cancel) in its failure
/// detail. The real fix is IsolationMode::Process: each job runs in a
/// forked worker process (runtime/supervisor.h) that the supervisor
/// hard-kills with SIGKILL once it overstays the deadline, and a
/// segfaulting, OOM-killed, or wedged job costs exactly one worker —
/// the new JobStatus::Crashed — never the batch. Thread mode stays the
/// zero-overhead default.
///
/// Crash survival of the batch itself: with a JournalPath, the calling
/// process is the only journal writer and fsyncs each completed job
/// (runtime/journal.h). If it is SIGKILLed, its process-mode workers
/// exit on EOF of their job pipes, and a rerun with Resume runs only
/// the jobs missing from the journal. Its canonical report
/// (reportToJson) equals an uninterrupted run's, in either mode.
/// Process isolation plus the journal is the one batch path that
/// survives the death of a job, a worker and the batch process.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_RUNTIME_BATCH_H
#define OPTOCT_RUNTIME_BATCH_H

#include "analysis/engine.h"
#include "support/audit.h"
#include "support/budget.h"

#include <cstdint>
#include <string>
#include <vector>

namespace optoct::runtime {

/// One analysis request: a named mini-IMP program.
struct BatchJob {
  std::string Name;   ///< Report key (file name or workload name).
  std::string Source; ///< Mini-IMP program text.
};

/// How a job ended (final attempt).
enum class JobStatus {
  Ok,       ///< Converged; results are the fixpoint invariants.
  Degraded, ///< A fuel budget tripped; invariants sound but Top.
  Failed,   ///< Parse error or exception on every allowed attempt.
  Timeout,  ///< Deadline passed: self-polled, watchdog soft cancel, or
            ///< (process mode) the supervisor's hard SIGKILL.
  Crashed,  ///< Process mode only: the worker process died under the
            ///< job — segfault, abort, OOM/external kill, rlimit — on
            ///< every allowed attempt. The failure log names the signal
            ///< or limit per attempt.
};

const char *jobStatusName(JobStatus S);

/// Where jobs execute.
enum class IsolationMode {
  Thread,  ///< In-process worker threads (zero-overhead default).
  Process, ///< Forked worker processes under a supervisor: survives
           ///< segfaults, OOM kills, and hard hangs at the cost of one
           ///< fork + pipe round-trip per job (runtime/supervisor.h).
};

/// Per-job outcome.
struct JobResult {
  std::string Name;
  bool Ok = false;    ///< Analysis produced (possibly degraded) results.
  std::string Error;  ///< Parse/exception message when !Ok.

  JobStatus Status = JobStatus::Failed;
  unsigned Attempts = 0;     ///< Attempts consumed (1 = no retry).
  std::string Detail;        ///< Degradation cause when not Ok-status.
  /// One line per non-Ok attempt ("attempt N: <what>"), across retries.
  std::vector<std::string> FailureLog;

  unsigned AssertsProven = 0, AssertsTotal = 0;
  std::vector<int> UnprovenAssertLines; ///< Source lines left unknown.
  /// Rendered invariants at loop heads, in RPO ("bb<i>: <octagon>").
  std::vector<std::string> LoopInvariants;

  // Per-operator statistics (from the worker's OctStats sink).
  std::uint64_t NumClosures = 0;
  std::uint64_t ClosureCycles = 0;
  std::uint64_t OctagonCycles = 0;
  std::uint64_t BlockVisits = 0;
  unsigned NMin = 0, NMax = 0; ///< DBM sizes seen at closures.
  double WallSeconds = 0.0;    ///< This job alone (on its worker).

  // Level-1 audit counters (support/audit.h) for the final attempt;
  // all zero when audit mode is off.
  std::uint64_t AuditValidations = 0;
  std::uint64_t AuditCrossChecks = 0;
  std::uint64_t AuditIncidentCount = 0;
  /// "where: detail" per recovered corruption (capped by the log).
  std::vector<std::string> AuditIncidents;
};

/// Scheduler knobs.
struct BatchOptions {
  /// Worker threads; 0 = one per hardware thread, 1 = run serially in
  /// the calling thread (no pool).
  unsigned Jobs = 1;
  /// Engine configuration applied to every job.
  analysis::AnalysisOptions Engine;
  /// Record rendered loop-head invariants in each JobResult (the
  /// serial-vs-parallel determinism oracle; cheap relative to analysis).
  bool CaptureInvariants = true;
  /// Arena pre-warm: per-worker scratch is grown for DBMs of up to this
  /// many variables before the first job runs.
  unsigned ReserveVars = 64;

  /// Per-attempt budgets applied to every job (zeros = unlimited).
  support::AnalysisBudget Budget;
  /// Attempts per job; only Failed (exception) outcomes and, under
  /// process isolation and in optoctd, worker crashes are retried —
  /// budget trips and hard kills are deterministic and terminal.
  unsigned MaxAttempts = 1;
  /// Exponential backoff before retry k sleeps
  /// min(BackoffBaseMs << (k-1), BackoffCapMs) milliseconds.
  unsigned BackoffBaseMs = 10;
  unsigned BackoffCapMs = 1000;
  /// Watchdog scan period; it flags armed tokens past their deadline.
  /// 0 disables the watchdog (self-polling still enforces deadlines).
  unsigned WatchdogPollMs = 20;

  /// Process isolation (the third rung of the recovery ladder; see the
  /// file comment). Thread mode ignores the three knobs below it.
  IsolationMode Isolation = IsolationMode::Thread;
  /// Per-worker address-space growth limit in MiB: RLIMIT_AS is set to
  /// the address space the worker maps at fork plus this much, so what
  /// a worker inherits from its parent (a warm daemon's cache) does not
  /// count against it. 0 = unlimited. Ignored in sanitizer builds,
  /// whose shadow mappings need the whole address space. Process mode
  /// only.
  std::uint64_t MaxRssMb = 0;
  /// Workers are retired and respawned after this many jobs, bounding
  /// leak accumulation in long batches; 0 = never recycle.
  unsigned RecycleAfter = 0;
  /// Hard-kill escalation: with a deadline armed, the supervisor
  /// SIGKILLs a worker still busy DeadlineMs + HardKillGraceMs after
  /// job start — the grace window is the soft cancel's chance to land
  /// at a poll. The job reports Timeout with a "hard-killed" detail.
  unsigned HardKillGraceMs = 500;

  /// Level-1 recovery: audit configuration applied process-wide for the
  /// batch's duration when Audit.Enabled is set. Per-job incident
  /// counters land in the JobResults.
  support::AuditConfig Audit;

  /// Level-2 recovery: path of the append-only checkpoint journal
  /// (runtime/journal.h); empty disables journaling. Completed jobs are
  /// fsync'd to it as they finish.
  std::string JournalPath;
  /// Load previously journaled results first and run only the jobs
  /// missing from the journal. The journal must have been written by
  /// the same job set and engine options (fingerprint check); a
  /// mismatch throws std::runtime_error, and Resume without a
  /// JournalPath throws std::invalid_argument (nothing to resume from).
  bool Resume = false;
};

/// Supervisor-side counters for a process-isolated run (all zero in
/// thread mode). Deterministic given the job set and fault plan, but
/// placement-dependent, so they render only in non-canonical JSON.
struct SupervisorStats {
  unsigned WorkersSpawned = 0;  ///< Forks, including respawns.
  unsigned WorkersCrashed = 0;  ///< Died with a job in flight.
  unsigned WorkersRecycled = 0; ///< Retired after RecycleAfter jobs.
  unsigned HardKills = 0;       ///< SIGKILL escalations past deadline.
};

/// Whole-batch outcome. Results[i] always corresponds to Jobs[i].
struct BatchReport {
  std::vector<JobResult> Results;
  double WallSeconds = 0.0; ///< Submission to last completion.
  unsigned Workers = 1;     ///< Worker count actually used.

  // Status counts (JobsOk counts Status == Ok only).
  unsigned JobsOk = 0;
  unsigned JobsDegraded = 0;
  unsigned JobsFailed = 0;
  unsigned JobsTimedOut = 0;
  unsigned JobsCrashed = 0; ///< Process mode: worker died under the job.
  unsigned Retries = 0;     ///< Extra attempts consumed across all jobs.
  unsigned JobsResumed = 0; ///< Results loaded from the journal, not run.
  SupervisorStats Supervisor; ///< Process-mode pool counters.

  // Aggregates over all jobs with results (Ok flag).
  unsigned AssertsProven = 0, AssertsTotal = 0;
  std::uint64_t NumClosures = 0;
  std::uint64_t ClosureCycles = 0;
  std::uint64_t OctagonCycles = 0;
  std::uint64_t BlockVisits = 0;
  /// Corruption events detected and recovered by the audit layer.
  std::uint64_t AuditIncidentTotal = 0;

  /// Completed jobs per second of batch wall time.
  double throughput() const {
    return WallSeconds > 0 ? Results.size() / WallSeconds : 0.0;
  }
};

/// Runs one job in the calling thread, through the thread's arena.
/// This is exactly the unit the scheduler submits to its workers.
JobResult runJob(const BatchJob &Job, const BatchOptions &Opts = {});

/// One isolated attempt with no retry loop: the unit a process-mode
/// worker executes per job message. Never throws. \p Retryable is set
/// only for exception failures (parse errors and budget trips recur
/// deterministically); the supervisor owns the cross-attempt retry and
/// backoff policy in process mode.
JobResult runJobSingleAttempt(const BatchJob &Job, const BatchOptions &Opts,
                              bool &Retryable);

/// Runs every job, spread over Opts.Jobs workers, and aggregates.
/// Throws std::invalid_argument for Resume without a JournalPath, and
/// std::runtime_error when the journal cannot be opened or resumed.
BatchReport runBatch(const std::vector<BatchJob> &Jobs,
                     const BatchOptions &Opts = {});

/// Folds Report.Results into the status counts and aggregate fields,
/// as runBatch does; for callers that assemble Results themselves.
void tallyBatchReport(BatchReport &Report);

/// Machine-readable rendering of a report (the CLI's --json output).
/// With \p Canonical set, every timing-dependent field (wall times,
/// throughput, cycle counters, resume count) is omitted: two runs of
/// the same job set — uninterrupted, or killed and resumed, at any
/// worker count — render byte-identical canonical reports. This is the
/// oracle the crash-safety tests and the CI kill-and-resume smoke diff.
std::string reportToJson(const BatchReport &Report, bool Canonical = false);

} // namespace optoct::runtime

#endif // OPTOCT_RUNTIME_BATCH_H
