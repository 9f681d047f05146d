//===- runtime/supervisor.h - Process-isolated job scheduler ----*- C++ -*-===//
///
/// \file
/// Level 3 of the recovery ladder: a supervised pool of forked worker
/// processes, so that a job which segfaults, gets OOM-killed, or hangs
/// in a non-polling loop costs exactly one worker — never the batch.
///
/// Supervisor is the one job scheduler over those workers. Two owners
/// drive it: runSupervised (batch process mode) and optoctd's cache
/// misses (server/server.h). The owner submits jobs under tags of its
/// own and gets each one back exactly once, through a completion
/// callback; everything in between is the scheduler's:
///
///   owner ──submit(tag)──► queue ──job pipe──► worker 1..N
///     ▲                                           │
///     └──── OnDone(tag, Outcome) ◄──result pipe───┘
///
/// The scheduler never calls poll(2): it appends its workers' result
/// pipes to the owner's pollfd vector (addPollFds) and services the
/// entries that fired (service), so the daemon still waits on clients
/// and workers in one poll.
///
/// Jobs travel as checksummed frames (runtime/ipc.h). Each worker runs
/// one attempt per job message (runJobSingleAttempt) and writes one
/// result frame back; the scheduler owns every cross-attempt policy,
/// so a dying worker can corrupt nothing but its own in-flight frame,
/// which the checksum catches:
///   * one job per worker, handed out as soon as a worker is idle —
///     at submit, after every result, and after every top-up;
///   * the recycle-quota mirror: a worker that has returned
///     RecycleAfter results is retiring on its own and gets no job;
///   * retries: a transient failure (an exception, Retryable) and a
///     crash get another attempt, on a fresh worker for a crash, after
///     min(BackoffBaseMs << (k-1), BackoffCapMs), up to MaxAttempts;
///   * the hard kill: a worker busy past the hard limit (deadline +
///     HardKillGraceMs, or the owner's ceiling when no deadline is set)
///     is SIGKILLed and its job ends Timeout — deadlines recur, so a
///     hard kill is never retried;
///   * death classification, with one pid-free text per kind:
///       crash      "worker killed by SIGSEGV", naming the signal and
///                  any armed limit ("... under RLIMIT_AS 256 MiB ...");
///       hard kill  "hard-killed (SIGKILL) <limit> ms after job start;
///                  job never reached a cancellation poll".
///     Equal runs give byte-equal reports, crashes included.
///
/// The processes and their pipes are a ChildPool (runtime/child_pool.h):
/// spawning, draining, kill-once, reaping and retiring live there, as
/// do the resource fences (RLIMIT_AS past the fork-time mapping plus
/// MaxRssMb, an RLIMIT_CPU backstop re-armed before every job).
/// topUp() respawns lost workers every round, so a failed fork costs a
/// round, never a worker slot.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_RUNTIME_SUPERVISOR_H
#define OPTOCT_RUNTIME_SUPERVISOR_H

#include "runtime/batch.h"
#include "runtime/child_pool.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <poll.h>

namespace optoct::runtime {

/// Fires in the supervisor process as each job reaches a *terminal*
/// result (success or final failure) — the journal append hook.
using JobCompletionFn =
    std::function<void(std::size_t Index, const JobResult &Result)>;

/// The whole life of a job worker, the body the Supervisor hands to
/// ChildPool::spawn: read a Job frame from \p JobFd, run one attempt
/// (runJobSingleAttempt), write a Result frame to \p ResFd, repeat;
/// retire after Opts.RecycleAfter jobs. Re-arms the RLIMIT_CPU backstop
/// before every job. Exits only via _Exit.
[[noreturn]] void runJobWorker(int JobFd, int ResFd, BatchOptions Opts);

class Supervisor {
public:
  /// A job's end, handed to its owner once.
  struct Outcome {
    JobResult Result;       ///< Terminal; Attempts and FailureLog filled.
    bool Retryable = false; ///< The final attempt failed transiently.
    unsigned Deaths = 0;    ///< Worker deaths (crashes, hard kills) it cost.
    bool Shed = false;      ///< Dropped from the queue by shed(), never run
                            ///< to an end (Result is Failed with the why).
  };
  using DoneFn = std::function<void(std::uint64_t Tag, Outcome &&)>;
  /// Fds a forked worker must close besides its siblings' pipes.
  using CloseFdsFn = std::function<std::vector<int>()>;

  /// \p Opts (must outlive the scheduler) gives the fences, attempts,
  /// backoff, recycle quota, deadline and grace. \p CeilingMs is the
  /// hard limit while Opts has no deadline (0 = none).
  Supervisor(const BatchOptions &Opts, DoneFn OnDone,
             std::uint64_t CeilingMs = 0, CloseFdsFn CloseFds = {});
  Supervisor(const Supervisor &) = delete;
  Supervisor &operator=(const Supervisor &) = delete;

  /// Spawns workers until \p Want are alive (tolerating transient fork
  /// failure, see ChildPool::topUp), then hands out queued jobs. Returns
  /// the live worker count.
  std::size_t topUp(std::size_t Want);

  /// Queues \p Job under \p Tag (unique among unfinished jobs) and hands
  /// it to an idle worker at once if there is one. \p EngineBlob
  /// (ipc::encodeEngineOptions) overrides the workers' engine options.
  void submit(std::uint64_t Tag, BatchJob Job, std::string EngineBlob = {});

  /// Appends one POLLIN entry per worker to \p Fds.
  void addPollFds(std::vector<pollfd> &Fds);

  /// After the owner's poll: services the entries addPollFds appended
  /// at \p Fds[Base]. Reads results, classifies deaths, hard-kills
  /// overdue workers, releases due retries and hands out jobs.
  void service(const std::vector<pollfd> &Fds, std::size_t Base);

  /// Drain mode: ends every queued job (and every one waiting out a
  /// retry backoff) as shed, with a Failed result naming \p Why, and
  /// retries nothing from here on. Running jobs still finish.
  void shed(const std::string &Why);

  /// Ends every worker (ChildPool::retire) and forgets every unfinished
  /// job without a callback; counters survive. topUp() starts afresh.
  void retire();

  std::size_t queued() const { return Ready.size() + Delayed.size(); }
  std::size_t running() const { return Tasks.size() - queued(); }
  const SupervisorStats &stats() const { return Stats; }

private:
  using Clock = std::chrono::steady_clock;

  struct Worker {
    Child Proc;
    bool Busy = false;
    unsigned JobsDone = 0;   ///< Results received; mirrors the worker's
                             ///< own recycle counter exactly.
    bool HardKilled = false; ///< Scheduler SIGKILL past the hard limit.
    std::uint64_t Tag = 0;
    Clock::time_point Start{};
  };

  struct Task {
    BatchJob Job;
    std::string EngineBlob;
    unsigned Attempts = 0;
    unsigned Deaths = 0;
    std::vector<std::string> Log; ///< "attempt N: <what>" accumulator.
  };

  bool dying(const Worker &W) const;
  void assign();
  /// Schedules another attempt after the backoff; false (nothing done)
  /// when attempts are spent or shed() stopped retries.
  bool retry(std::uint64_t Tag, unsigned AttemptsSoFar);
  void finish(std::uint64_t Tag, JobResult &&R, bool Retryable,
              bool Shed = false);
  void onFrame(Worker &W, ipc::MsgType Type, const std::string &Body);
  void onExit(const Worker &W, const ChildExit &Exit);
  void hardKillScan();

  const BatchOptions &Opts;
  DoneFn OnDone;
  CloseFdsFn CloseFds;
  std::uint64_t HardLimitMs;
  ChildPool Pool;
  std::list<Worker> Workers;
  std::size_t Polled = 0; ///< Workers that addPollFds covered.
  std::unordered_map<std::uint64_t, Task> Tasks;
  std::deque<std::uint64_t> Ready;
  std::vector<std::pair<Clock::time_point, std::uint64_t>> Delayed;
  bool NoRetry = false; ///< Set by shed().
  SupervisorStats Stats;
};

/// Runs Jobs[I] for each I in \p Pending inside forked worker
/// processes, writing Results[I] as jobs finish: a loop of Supervisor
/// rounds. Worker count, budgets, retry/backoff, RLIMITs, recycling,
/// and the hard-kill grace all come from \p Opts (Opts.Jobs == 0 means
/// one worker per hardware thread). Returns the pool counters. Throws
/// std::runtime_error only if no worker can be spawned at all;
/// individual worker deaths are the business being handled, not errors.
SupervisorStats
runSupervised(const std::vector<BatchJob> &Jobs,
              const std::vector<std::size_t> &Pending,
              const BatchOptions &Opts, std::vector<JobResult> &Results,
              const JobCompletionFn &OnComplete = {});

} // namespace optoct::runtime

#endif // OPTOCT_RUNTIME_SUPERVISOR_H
