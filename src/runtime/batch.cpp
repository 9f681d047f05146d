//===- runtime/batch.cpp - Parallel batch-analysis scheduler --------------===//

#include "runtime/batch.h"

#include "cfg/cfg.h"
#include "lang/parser.h"
#include "oct/octagon.h"
#include "runtime/arena.h"
#include "runtime/journal.h"
#include "runtime/supervisor.h"
#include "runtime/thread_pool.h"
#include "support/faultinject.h"
#include "support/timing.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

using namespace optoct;
using namespace optoct::runtime;

const char *optoct::runtime::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Ok:
    return "ok";
  case JobStatus::Degraded:
    return "degraded";
  case JobStatus::Failed:
    return "failed";
  case JobStatus::Timeout:
    return "timeout";
  case JobStatus::Crashed:
    return "crashed";
  }
  return "unknown";
}

namespace {

/// Deadline and cancellation flag a run as Timeout; fuel budgets as
/// Degraded.
JobStatus statusForBudgetReason(support::BudgetReason Why) {
  return (Why == support::BudgetReason::Deadline ||
          Why == support::BudgetReason::Cancelled)
             ? JobStatus::Timeout
             : JobStatus::Degraded;
}

/// One isolated attempt at a job. Never throws: any escape is folded
/// into the result's status. \p Retryable is set only for exception
/// failures — parse errors and budget trips recur deterministically, so
/// retrying them would just burn the backoff.
JobResult runJobAttemptInner(const BatchJob &Job, const BatchOptions &Opts,
                             support::CancellationToken &Token,
                             bool &Retryable) {
  Retryable = false;
  JobResult R;
  R.Name = Job.Name;

  // Keep the watchdog idle between attempts: a stale passed deadline
  // must not flag the backoff sleep or the next attempt's arm window.
  struct DeadlineClear {
    support::CancellationToken &T;
    ~DeadlineClear() { T.clearDeadline(); }
  } Clear{Token};

  try {
    support::FaultJobScope FaultScope(Job.Name.c_str());
    Token.arm(Opts.Budget);
    support::BudgetScope Scope(&Token);
    support::faultPoint("batch.job");

    std::string Error;
    auto Prog = lang::parseProgram(Job.Source, Error);
    if (!Prog) {
      R.Status = JobStatus::Failed;
      R.Error = Error;
      return R;
    }
    cfg::Cfg Graph = cfg::Cfg::build(*Prog);

    WorkerArena &Arena = thisThreadArena();
    Arena.reserve(Opts.ReserveVars);
    JobScope JScope(Arena);

    WallTimer Timer;
    Timer.start();
    auto Result = analysis::analyze<Octagon>(Graph, Opts.Engine);
    Timer.stop();

    // The engine produced a sound result (possibly degraded). Result
    // rendering below must not trip the budget and lose it.
    support::disarmCurrentBudget();

    if (Result.Status == analysis::RunStatus::Degraded) {
      R.Status = statusForBudgetReason(Result.DegradedBy);
      R.Detail = Result.StatusDetail;
    } else {
      R.Status = JobStatus::Ok;
    }
    R.Ok = true;
    R.WallSeconds = Timer.seconds();
    R.AssertsTotal = static_cast<unsigned>(Result.Asserts.size());
    R.AssertsProven = Result.assertsProven();
    for (const analysis::AssertOutcome &A : Result.Asserts)
      if (!A.Proven)
        R.UnprovenAssertLines.push_back(A.Line);
    if (Opts.CaptureInvariants) {
      for (unsigned B : Graph.rpo()) {
        const cfg::BasicBlock &Block = Graph.block(B);
        if (!Block.IsLoopHead)
          continue;
        std::string Inv = Result.BlockInvariant[B]
                              ? Result.BlockInvariant[B]->str(&Block.SlotNames)
                              : std::string("unreachable");
        R.LoopInvariants.push_back("bb" + std::to_string(B) + ": " + Inv);
      }
    }
    R.NumClosures = JScope.stats().numClosures();
    R.ClosureCycles = JScope.stats().closureCycles();
    R.OctagonCycles = Result.OctagonCycles;
    R.BlockVisits = Result.BlockVisits;
    R.NMin = JScope.stats().minVars();
    R.NMax = JScope.stats().maxVars();
  } catch (const support::BudgetExceeded &E) {
    // A budget tripped outside the engine's own recovery (an injected
    // timeout at the batch.job site, or fuel exhausted before the
    // worklist started): no sound result exists for this job.
    R.Status = statusForBudgetReason(E.reason());
    R.Error = E.what();
  } catch (const std::exception &E) {
    R.Status = JobStatus::Failed;
    R.Error = E.what();
    Retryable = true;
  } catch (...) {
    R.Status = JobStatus::Failed;
    R.Error = "unknown exception";
    Retryable = true;
  }
  return R;
}

/// Attempt wrapper owning the per-attempt audit log (Level-1 recovery):
/// each attempt gets a fresh log so the sampling ticks — and therefore
/// the cross-check picks — are a function of the job alone, independent
/// of worker count or which attempt this is. The harvested counters
/// ride in the JobResult for the operator report.
JobResult runJobAttempt(const BatchJob &Job, const BatchOptions &Opts,
                        support::CancellationToken &Token, bool &Retryable) {
  support::AuditLog ALog;
  support::AuditLog *Prev = support::auditLogSink();
  support::setAuditLogSink(&ALog);
  JobResult R = runJobAttemptInner(Job, Opts, Token, Retryable);
  support::setAuditLogSink(Prev);
  R.AuditValidations = ALog.validations();
  R.AuditCrossChecks = ALog.crossChecks();
  R.AuditIncidentCount = ALog.incidentCount();
  for (const support::AuditIncident &I : ALog.incidents())
    R.AuditIncidents.push_back(I.Where + ": " + I.Detail);
  return R;
}

/// Full per-job unit: attempts with exponential backoff until the job
/// stops failing or the attempt cap is hit.
JobResult runJobWithRetry(const BatchJob &Job, const BatchOptions &Opts,
                          support::CancellationToken &Token) {
  unsigned MaxAttempts = std::max(1u, Opts.MaxAttempts);
  std::vector<std::string> Log;
  for (unsigned Attempt = 1;; ++Attempt) {
    bool Retryable = false;
    JobResult R = runJobAttempt(Job, Opts, Token, Retryable);
    R.Attempts = Attempt;
    if (R.Status != JobStatus::Ok)
      Log.push_back("attempt " + std::to_string(Attempt) + ": " +
                    (R.Error.empty() ? R.Detail : R.Error));
    if (R.Status != JobStatus::Failed || !Retryable ||
        Attempt >= MaxAttempts) {
      R.FailureLog = std::move(Log);
      return R;
    }
    std::uint64_t Delay =
        std::min<std::uint64_t>(Opts.BackoffCapMs,
                                static_cast<std::uint64_t>(Opts.BackoffBaseMs)
                                    << std::min(Attempt - 1, 20u));
    if (Delay != 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
  }
}

/// Background scanner flagging jobs stuck past their deadline. The
/// token array is sized up front and never reallocates, so the scan
/// needs no registry lock: deadlinePassed/requestCancel are the tokens'
/// cross-thread-safe entry points.
///
/// Escalation: cancellation is cooperative, so a job that never reaches
/// a pollBudget() keeps running after the soft cancel — and thread mode
/// has no safe way to stop it (see the KNOWN LIMIT note in batch.h).
/// Once a job has overstayed its soft cancel by about a second the
/// watchdog warns on stderr, naming the job, so the stall is never
/// silent; the actual fix is IsolationMode::Process.
class Watchdog {
public:
  Watchdog(unsigned PollMs, std::vector<support::CancellationToken> &Tokens,
           const std::vector<BatchJob> &Jobs)
      : Tokens(Tokens), Jobs(Jobs), CancelScans(Tokens.size(), 0),
        Thr([this, PollMs] { run(PollMs); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stop = true;
    }
    Cv.notify_all();
    Thr.join();
  }

private:
  void run(unsigned PollMs) {
    const unsigned WarnScans = std::max(1u, 1000 / std::max(1u, PollMs));
    std::unique_lock<std::mutex> Lock(Mu);
    while (!Stop) {
      for (std::size_t I = 0; I != Tokens.size(); ++I) {
        support::CancellationToken &T = Tokens[I];
        if (!T.deadlinePassed()) {
          CancelScans[I] = 0; // attempt over (or rearmed for retry)
          continue;
        }
        if (!T.cancelRequested()) {
          T.requestCancel(support::BudgetReason::Deadline);
          CancelScans[I] = 1;
          continue;
        }
        if (++CancelScans[I] == WarnScans)
          std::fprintf(
              stderr,
              "optoct: watchdog: job '%s' ignored its soft cancel for "
              "~%u ms and is still running (it is not reaching a "
              "cancellation poll); thread isolation cannot stop it — "
              "rerun with --isolate=process for a hard kill\n",
              Jobs[I].Name.c_str(), WarnScans * PollMs);
      }
      Cv.wait_for(Lock, std::chrono::milliseconds(PollMs),
                  [this] { return Stop; });
    }
  }

  std::vector<support::CancellationToken> &Tokens;
  const std::vector<BatchJob> &Jobs;
  std::vector<unsigned> CancelScans; ///< Scans spent cancel-pending.
  std::mutex Mu;
  std::condition_variable Cv;
  bool Stop = false;
  std::thread Thr;
};

} // namespace

void optoct::runtime::tallyBatchReport(BatchReport &Report) {
  for (const JobResult &R : Report.Results) {
    switch (R.Status) {
    case JobStatus::Ok:
      ++Report.JobsOk;
      break;
    case JobStatus::Degraded:
      ++Report.JobsDegraded;
      break;
    case JobStatus::Failed:
      ++Report.JobsFailed;
      break;
    case JobStatus::Timeout:
      ++Report.JobsTimedOut;
      break;
    case JobStatus::Crashed:
      ++Report.JobsCrashed;
      break;
    }
    if (R.Attempts > 1)
      Report.Retries += R.Attempts - 1;
    Report.AuditIncidentTotal += R.AuditIncidentCount;
    if (!R.Ok)
      continue;
    Report.AssertsProven += R.AssertsProven;
    Report.AssertsTotal += R.AssertsTotal;
    Report.NumClosures += R.NumClosures;
    Report.ClosureCycles += R.ClosureCycles;
    Report.OctagonCycles += R.OctagonCycles;
    Report.BlockVisits += R.BlockVisits;
  }
}


JobResult optoct::runtime::runJob(const BatchJob &Job,
                                  const BatchOptions &Opts) {
  support::CancellationToken Token;
  return runJobWithRetry(Job, Opts, Token);
}

JobResult optoct::runtime::runJobSingleAttempt(const BatchJob &Job,
                                               const BatchOptions &Opts,
                                               bool &Retryable) {
  // No watchdog here: in a process-mode worker the deadline is enforced
  // by self-polling from the inside and by the supervisor's hard-kill
  // escalation from the outside.
  support::CancellationToken Token;
  JobResult R = runJobAttempt(Job, Opts, Token, Retryable);
  R.Attempts = 1;
  return R;
}

BatchReport optoct::runtime::runBatch(const std::vector<BatchJob> &Jobs,
                                      const BatchOptions &Opts) {
  if (Opts.Resume && Opts.JournalPath.empty())
    throw std::invalid_argument("resume requires a journal path");
  BatchReport Report;
  Report.Results.resize(Jobs.size());
  unsigned Workers =
      Opts.Jobs == 0 ? ThreadPool::defaultWorkerCount() : Opts.Jobs;
  Report.Workers = Workers;

  // Level-1 recovery: arm the audit layer for the batch's duration.
  // Applied before workers spawn (the config is process-wide).
  std::optional<support::AuditConfigScope> AuditScope;
  if (Opts.Audit.Enabled)
    AuditScope.emplace(Opts.Audit);

  // Level-2 recovery: open (or resume) the checkpoint journal. Journal
  // setup problems throw — silently running an unjournaled batch would
  // betray the crash-safety the caller asked for.
  JournalWriter Journal;
  std::vector<char> Done(Jobs.size(), 0);
  if (!Opts.JournalPath.empty()) {
    std::uint64_t Fp = jobSetFingerprint(Jobs, Opts);
    std::string JErr;
    if (Opts.Resume) {
      JournalLoad Load = loadJournal(Opts.JournalPath);
      if (!Load.Error.empty())
        throw std::runtime_error("journal resume: " + Load.Error);
      if (Load.Fingerprint != Fp || Load.JobCount != Jobs.size())
        throw std::runtime_error(
            "journal resume: journal was written by a different job set "
            "or engine configuration (fingerprint mismatch)");
      for (auto &Rec : Load.Records) {
        if (Rec.first >= Jobs.size())
          continue; // defensive: checksummed, but still untrusted
        if (!Done[Rec.first])
          ++Report.JobsResumed;
        Report.Results[Rec.first] = std::move(Rec.second);
        Done[Rec.first] = 1;
      }
      if (!Journal.openResume(Opts.JournalPath, Load.ValidBytes, JErr))
        throw std::runtime_error("journal resume: " + JErr);
    } else {
      if (!Journal.open(Opts.JournalPath, Fp, Jobs.size(), JErr))
        throw std::runtime_error("journal: " + JErr);
    }
  }
  std::vector<std::size_t> Pending;
  Pending.reserve(Jobs.size());
  for (std::size_t I = 0; I != Jobs.size(); ++I)
    if (!Done[I])
      Pending.push_back(I);

  // Level-3 recovery: hand the pending jobs to the process supervisor.
  // The journal stays in this (the supervisor's) process — workers
  // never touch it — so the completion callback is the durability
  // point, exactly like the thread path's RunOne.
  if (Opts.Isolation == IsolationMode::Process) {
    WallTimer Timer;
    Timer.start();
    if (!Pending.empty())
      Report.Supervisor = runSupervised(
          Jobs, Pending, Opts, Report.Results,
          [&Journal](std::size_t I, const JobResult &R) {
            if (Journal.isOpen())
              Journal.append(I, R);
          });
    Timer.stop();
    Journal.close();
    Report.WallSeconds = Timer.seconds();
    tallyBatchReport(Report);
    return Report;
  }

  // One token per job, alive for the whole batch so the watchdog can
  // scan without coordination (see Watchdog).
  std::vector<support::CancellationToken> Tokens(Jobs.size());
  std::optional<Watchdog> Dog;
  if (Opts.Budget.DeadlineMs != 0 && Opts.WatchdogPollMs != 0 &&
      !Pending.empty())
    Dog.emplace(Opts.WatchdogPollMs, Tokens, Jobs);

  // Checkpoint in completion order, from the completing worker: the
  // journal write is the job's durability point, so an immediately
  // following crash loses at most in-flight jobs. Append failures
  // (disk full) don't fail the batch — the analysis result is still
  // good — but they do surface on the next resume as missing records.
  auto RunOne = [&](std::size_t I) {
    JobResult R = runJobWithRetry(Jobs[I], Opts, Tokens[I]);
    if (Journal.isOpen())
      Journal.append(I, R);
    return R;
  };

  WallTimer Timer;
  Timer.start();
  if (Workers <= 1 || Pending.size() <= 1) {
    for (std::size_t I : Pending)
      Report.Results[I] = RunOne(I);
  } else {
    ThreadPool Pool(Workers,
                    [&Opts] { thisThreadArena().reserve(Opts.ReserveVars); });
    std::vector<std::future<JobResult>> Futures;
    Futures.reserve(Pending.size());
    for (std::size_t I : Pending)
      Futures.push_back(Pool.submit([&RunOne, I] { return RunOne(I); }));
    for (std::size_t K = 0; K != Futures.size(); ++K)
      Report.Results[Pending[K]] = Futures[K].get();
  }
  Timer.stop();
  Dog.reset(); // join before anyone can touch the tokens again
  Journal.close();
  Report.WallSeconds = Timer.seconds();

  tallyBatchReport(Report);
  return Report;
}

namespace {

void appendEscaped(std::ostringstream &Out, const std::string &S) {
  Out << '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out << "\\\"";
      break;
    case '\\':
      Out << "\\\\";
      break;
    case '\n':
      Out << "\\n";
      break;
    case '\t':
      Out << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out << Buf;
      } else
        Out << C;
    }
  }
  Out << '"';
}

} // namespace

std::string optoct::runtime::reportToJson(const BatchReport &Report,
                                          bool Canonical) {
  std::ostringstream Out;
  Out << "{\n";
  if (!Canonical) {
    // Timing-dependent fields vary run to run (and resumed jobs carry
    // no fresh timing at all); canonical rendering drops them so
    // interrupted-and-resumed == uninterrupted, byte for byte.
    Out << "  \"workers\": " << Report.Workers << ",\n";
    Out << "  \"wall_seconds\": " << Report.WallSeconds << ",\n";
    Out << "  \"throughput_jobs_per_sec\": " << Report.throughput() << ",\n";
    Out << "  \"jobs_resumed\": " << Report.JobsResumed << ",\n";
    if (Report.Supervisor.WorkersSpawned != 0) {
      // Pool counters are placement-dependent (which worker a crash
      // lands on), so they stay out of canonical output.
      const SupervisorStats &S = Report.Supervisor;
      Out << "  \"supervisor\": {\"workers_spawned\": " << S.WorkersSpawned
          << ", \"workers_crashed\": " << S.WorkersCrashed
          << ", \"workers_recycled\": " << S.WorkersRecycled
          << ", \"hard_kills\": " << S.HardKills << "},\n";
    }
  }
  Out << "  \"jobs_ok\": " << Report.JobsOk << ",\n";
  Out << "  \"jobs_degraded\": " << Report.JobsDegraded << ",\n";
  Out << "  \"jobs_failed\": " << Report.JobsFailed << ",\n";
  Out << "  \"jobs_timeout\": " << Report.JobsTimedOut << ",\n";
  Out << "  \"jobs_crashed\": " << Report.JobsCrashed << ",\n";
  Out << "  \"retries\": " << Report.Retries << ",\n";
  Out << "  \"asserts_proven\": " << Report.AssertsProven << ",\n";
  Out << "  \"asserts_total\": " << Report.AssertsTotal << ",\n";
  Out << "  \"num_closures\": " << Report.NumClosures << ",\n";
  if (!Canonical) {
    Out << "  \"closure_cycles\": " << Report.ClosureCycles << ",\n";
    Out << "  \"octagon_cycles\": " << Report.OctagonCycles << ",\n";
  }
  Out << "  \"block_visits\": " << Report.BlockVisits << ",\n";
  Out << "  \"audit_incidents\": " << Report.AuditIncidentTotal << ",\n";
  Out << "  \"jobs\": [\n";
  for (std::size_t I = 0; I != Report.Results.size(); ++I) {
    const JobResult &R = Report.Results[I];
    Out << "    {\"name\": ";
    appendEscaped(Out, R.Name);
    Out << ", \"ok\": " << (R.Ok ? "true" : "false");
    Out << ", \"status\": \"" << jobStatusName(R.Status) << "\"";
    Out << ", \"attempts\": " << R.Attempts;
    if (!R.Detail.empty()) {
      Out << ", \"detail\": ";
      appendEscaped(Out, R.Detail);
    }
    if (!R.FailureLog.empty()) {
      Out << ", \"failure_log\": [";
      for (std::size_t L = 0; L != R.FailureLog.size(); ++L) {
        Out << (L ? ", " : "");
        appendEscaped(Out, R.FailureLog[L]);
      }
      Out << "]";
    }
    if (!R.Ok) {
      Out << ", \"error\": ";
      appendEscaped(Out, R.Error);
    } else {
      Out << ", \"asserts_proven\": " << R.AssertsProven
          << ", \"asserts_total\": " << R.AssertsTotal
          << ", \"unproven_lines\": [";
      for (std::size_t L = 0; L != R.UnprovenAssertLines.size(); ++L)
        Out << (L ? ", " : "") << R.UnprovenAssertLines[L];
      Out << "], \"num_closures\": " << R.NumClosures;
      if (!Canonical)
        Out << ", \"closure_cycles\": " << R.ClosureCycles
            << ", \"octagon_cycles\": " << R.OctagonCycles;
      Out << ", \"block_visits\": " << R.BlockVisits
          << ", \"n_min\": " << R.NMin << ", \"n_max\": " << R.NMax;
      if (!Canonical)
        Out << ", \"wall_seconds\": " << R.WallSeconds;
      Out << ", \"loop_invariants\": [";
      for (std::size_t L = 0; L != R.LoopInvariants.size(); ++L) {
        Out << (L ? ", " : "");
        appendEscaped(Out, R.LoopInvariants[L]);
      }
      Out << "]";
    }
    if (R.AuditValidations != 0 || R.AuditIncidentCount != 0) {
      Out << ", \"audit_validations\": " << R.AuditValidations
          << ", \"audit_cross_checks\": " << R.AuditCrossChecks
          << ", \"audit_incidents\": " << R.AuditIncidentCount;
      if (!R.AuditIncidents.empty()) {
        Out << ", \"audit_incident_log\": [";
        for (std::size_t L = 0; L != R.AuditIncidents.size(); ++L) {
          Out << (L ? ", " : "");
          appendEscaped(Out, R.AuditIncidents[L]);
        }
        Out << "]";
      }
    }
    Out << "}" << (I + 1 == Report.Results.size() ? "" : ",") << "\n";
  }
  Out << "  ]\n";
  Out << "}\n";
  return Out.str();
}
