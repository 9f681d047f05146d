//===- runtime/supervisor.cpp - Process-isolated worker pool --------------===//

#include "runtime/supervisor.h"

#include "runtime/child_pool.h"
#include "runtime/ipc.h"
#include "runtime/thread_pool.h"
#include "support/faultinject.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <list>
#include <stdexcept>
#include <string>

using namespace optoct;
using namespace optoct::runtime;

namespace {

using Clock = std::chrono::steady_clock;

struct Worker {
  Child Proc;
  bool Busy = false;
  unsigned JobsDone = 0;   ///< Results received; mirrors the worker's
                           ///< own recycle counter exactly.
  bool HardKilled = false; ///< Supervisor SIGKILL past the deadline.
  std::size_t Job = 0;
  Clock::time_point Start{};
};

struct JobTrack {
  unsigned Attempts = 0;
  bool Done = false;
  std::vector<std::string> Log; ///< "attempt N: <what>" accumulator.
};

class Supervisor {
public:
  Supervisor(const std::vector<BatchJob> &Jobs,
             const std::vector<std::size_t> &Pending,
             const BatchOptions &Opts, std::vector<JobResult> &Results,
             const JobCompletionFn &OnComplete)
      : Jobs(Jobs), Opts(Opts), Results(Results), OnComplete(OnComplete),
        Track(Jobs.size()), Pool(&Opts) {
    // Jobs outside Pending (resumed from a journal) are not ours to run.
    for (JobTrack &T : Track)
      T.Done = true;
    for (std::size_t I : Pending) {
      Track[I].Done = false;
      Ready.push_back(I);
    }
    Remaining = Pending.size();
    unsigned Requested =
        Opts.Jobs == 0 ? ThreadPool::defaultWorkerCount() : Opts.Jobs;
    Target = static_cast<unsigned>(std::min<std::size_t>(
        std::max(1u, Requested), std::max<std::size_t>(1, Remaining)));
    MaxAttempts = std::max(1u, Opts.MaxAttempts);
    PollMs = Opts.WatchdogPollMs == 0 ? 20 : Opts.WatchdogPollMs;
  }

  SupervisorStats run() {
    while (Remaining != 0) {
      promoteDelayed();
      topUpWorkers();
      if (Workers.empty() && Stats.WorkersSpawned == 0)
        throw std::runtime_error(
            "process isolation: cannot fork any worker: " +
            std::string(std::strerror(errno)));
      if (Workers.empty()) {
        failRemaining("process isolation: cannot respawn workers: " +
                      std::string(std::strerror(errno)));
        break;
      }
      assignJobs();
      Pool.pollRound(
          Workers, PollMs,
          [this](Worker &W, ipc::MsgType Type, const std::string &Body) {
            handleFrame(W, Type, Body);
          },
          [this](Worker &W, const ChildExit &Exit) { onExit(W, Exit); });
      hardKillScan();
    }
    // Every job already has a result: nothing of value is lost past
    // this point.
    Pool.retire();
    Workers.clear();
    return Stats;
  }

private:
  void topUpWorkers() {
    std::size_t Want =
        std::min<std::size_t>(Target, std::max<std::size_t>(1, Remaining));
    Pool.topUp(Want, [this] {
      Workers.emplace_back();
      auto Main = [this](int In, int Out) { runJobWorker(In, Out, Opts); };
      if (!Pool.spawn(Workers.back().Proc, Main)) {
        Workers.pop_back();
        return false;
      }
      ++Stats.WorkersSpawned;
      return true;
    });
  }

  /// Excluded from assignment: killed, or retiring on its own after its
  /// recycle quota.
  bool dying(const Worker &W) const {
    return W.Proc.killed() ||
           (Opts.RecycleAfter != 0 && W.JobsDone >= Opts.RecycleAfter);
  }

  // --- Assignment and retry -------------------------------------------------

  void promoteDelayed() {
    Clock::time_point Now = Clock::now();
    for (auto It = Delayed.begin(); It != Delayed.end();) {
      if (It->first <= Now) {
        Ready.push_back(It->second);
        It = Delayed.erase(It);
      } else
        ++It;
    }
  }

  void assignJobs() {
    for (Worker &W : Workers) {
      if (Ready.empty())
        return;
      if (W.Busy || dying(W))
        continue;
      std::size_t Idx = Ready.front();
      Ready.pop_front();
      JobTrack &T = Track[Idx];
      ++T.Attempts;
      W.Busy = true;
      W.Job = Idx;
      W.HardKilled = false;
      W.Start = Clock::now();
      if (!ipc::writeFrame(W.Proc.ToFd, ipc::MsgType::Job,
                           ipc::encodeJob(Idx, T.Attempts, Jobs[Idx]))) {
        // The worker is dead or dying; hand the job to someone else
        // (this send consumed no attempt) and let the EOF path reap.
        --T.Attempts;
        W.Busy = false;
        Pool.kill(W.Proc, "job pipe write failed");
        Ready.push_front(Idx);
      }
    }
  }

  void scheduleRetry(std::size_t Idx, unsigned AttemptsSoFar) {
    std::uint64_t Delay = std::min<std::uint64_t>(
        Opts.BackoffCapMs,
        static_cast<std::uint64_t>(Opts.BackoffBaseMs)
            << std::min(AttemptsSoFar - 1, 20u));
    Delayed.emplace_back(Clock::now() + std::chrono::milliseconds(Delay),
                         Idx);
  }

  void finalize(std::size_t Idx, JobResult &&R) {
    JobTrack &T = Track[Idx];
    R.Attempts = T.Attempts;
    R.FailureLog = T.Log;
    T.Done = true;
    Results[Idx] = std::move(R);
    if (OnComplete)
      OnComplete(Idx, Results[Idx]);
    --Remaining;
  }

  /// Fails every unfinished job; called only once no worker is left, so
  /// each of them is waiting in Ready or Delayed.
  void failRemaining(const std::string &Why) {
    Ready.clear();
    Delayed.clear();
    for (std::size_t Idx = 0; Idx != Track.size(); ++Idx) {
      if (Track[Idx].Done)
        continue;
      JobResult R;
      R.Name = Jobs[Idx].Name;
      R.Status = JobStatus::Failed;
      R.Error = Why;
      if (Track[Idx].Attempts == 0)
        ++Track[Idx].Attempts; // consumed by the failure itself
      Track[Idx].Log.push_back(
          "attempt " + std::to_string(Track[Idx].Attempts) + ": " + Why);
      finalize(Idx, std::move(R));
    }
  }

  // --- Event loop -----------------------------------------------------------

  void handleFrame(Worker &W, ipc::MsgType Type, const std::string &Body) {
    std::size_t Idx = 0;
    bool Retryable = false;
    JobResult R;
    std::string Error;
    if (Type != ipc::MsgType::Result ||
        !ipc::decodeResult(Body, Idx, Retryable, R, Error) || !W.Busy ||
        Idx != W.Job) {
      Pool.kill(W.Proc, Error.empty() ? "result protocol violation" : Error);
      return;
    }
    W.Busy = false;
    // Race guard: the worker self-retires after RecycleAfter jobs, and
    // this result may have been its last. Stop assigning to it *now*
    // (dying() reads this count) — a job written into the pipe after
    // the worker decided to _Exit would be silently dropped and misread
    // as a crash at EOF. Both sides count completions identically, so
    // this mirror is exact.
    ++W.JobsDone;
    JobTrack &T = Track[Idx];
    if (R.Status != JobStatus::Ok)
      T.Log.push_back("attempt " + std::to_string(T.Attempts) + ": " +
                      (R.Error.empty() ? R.Detail : R.Error));
    // Same policy as the thread-mode retry loop: only exception
    // failures are worth another attempt.
    if (R.Status == JobStatus::Failed && Retryable &&
        T.Attempts < MaxAttempts) {
      scheduleRetry(Idx, T.Attempts);
      return;
    }
    finalize(Idx, std::move(R));
  }

  /// A worker died (the pool has reaped it): classify its death; the
  /// respawn happens via topUp.
  void onExit(const Worker &W, const ChildExit &Exit) {
    if (!W.Busy) {
      if (Exit.Recycled)
        ++Stats.WorkersRecycled;
      return;
    }
    ++Stats.WorkersCrashed; // the worker did die with a job aboard
    std::size_t Idx = W.Job;
    JobTrack &T = Track[Idx];
    JobResult R;
    R.Name = Jobs[Idx].Name;
    if (W.HardKilled) {
      R.Status = JobStatus::Timeout;
      R.Error = "hard-killed (SIGKILL) " +
                std::to_string(Opts.Budget.DeadlineMs) + "+" +
                std::to_string(Opts.HardKillGraceMs) +
                " ms after job start; job never reached a cancellation "
                "poll";
    } else {
      R.Status = JobStatus::Crashed;
      R.Error = "worker pid " + std::to_string(Exit.Pid) + " " + Exit.What;
    }
    T.Log.push_back("attempt " + std::to_string(T.Attempts) + ": " +
                    R.Error);
    // Deadlines recur, so a hard kill is terminal; a crash gets a fresh
    // worker after a backoff while attempts remain.
    if (!W.HardKilled && T.Attempts < MaxAttempts)
      scheduleRetry(Idx, T.Attempts);
    else
      finalize(Idx, std::move(R));
  }

  void hardKillScan() {
    if (Opts.Budget.DeadlineMs == 0)
      return;
    auto Limit = std::chrono::milliseconds(Opts.Budget.DeadlineMs +
                                           Opts.HardKillGraceMs);
    Clock::time_point Now = Clock::now();
    for (Worker &W : Workers) {
      if (!W.Busy || W.Proc.killed() || Now - W.Start < Limit)
        continue;
      // The soft cancel had its window (the worker's own armed token
      // plus the grace); escalate. SIGKILL cannot be caught, blocked,
      // or ignored — the EOF lands at the next poll and classifies
      // this as a hard timeout.
      W.HardKilled = true;
      Pool.kill(W.Proc, "hard-killed past the deadline");
      ++Stats.HardKills;
    }
  }

  const std::vector<BatchJob> &Jobs;
  const BatchOptions &Opts;
  std::vector<JobResult> &Results;
  const JobCompletionFn &OnComplete;

  std::vector<JobTrack> Track;
  std::deque<std::size_t> Ready;
  std::vector<std::pair<Clock::time_point, std::size_t>> Delayed;
  ChildPool Pool;
  std::list<Worker> Workers;
  SupervisorStats Stats;
  std::size_t Remaining = 0;
  unsigned Target = 1;
  unsigned MaxAttempts = 1;
  unsigned PollMs = 20;
};

} // namespace

void optoct::runtime::runJobWorker(int JobFd, int ResFd, BatchOptions Opts) {
  // Supervisor-side concerns never run in a worker: the journal is
  // appended by the parent only, and isolation does not nest.
  Opts.JournalPath.clear();
  Opts.Resume = false;
  Opts.Isolation = IsolationMode::Thread;

  unsigned Done = 0;
  for (;;) {
    ipc::MsgType Type{};
    std::string Body;
    ipc::ReadStatus RS = ipc::readFrame(JobFd, Type, Body);
    if (RS == ipc::ReadStatus::Eof)
      std::_Exit(0); // owner closed the job pipe: batch over
    if (RS != ipc::ReadStatus::Ok || Type != ipc::MsgType::Job)
      std::_Exit(WorkerProtocolExitCode);
    std::size_t Index = 0;
    unsigned Attempt = 0;
    BatchJob Job;
    std::string EngineBlob;
    if (!ipc::decodeJob(Body, Index, Attempt, Job, &EngineBlob))
      std::_Exit(WorkerProtocolExitCode);
    // The daemon sends per-job result-shaping options (its requests are
    // heterogeneous); the batch supervisor sends none and the forked
    // defaults in Opts stand.
    BatchOptions JobOpts = Opts;
    if (!EngineBlob.empty() &&
        !ipc::decodeEngineOptions(EngineBlob, JobOpts.Engine,
                                  JobOpts.Budget.MaxDbmCells))
      std::_Exit(WorkerProtocolExitCode);
    // A retried job reruns here with fresh fault counters; replay the
    // prior lethal attempts so burned-out rules stay burned out
    // (support/faultinject.h).
    if (Attempt > 1)
      support::FaultPlan::global().notePriorLethalAttempts(Job.Name,
                                                           Attempt - 1);
    armCpuBackstop(Opts.Budget.DeadlineMs); // per job, not per lifetime
    bool Retryable = false;
    JobResult R = runJobSingleAttempt(Job, JobOpts, Retryable);
    if (!ipc::writeFrame(ResFd, ipc::MsgType::Result,
                         ipc::encodeResult(Index, Retryable, R)))
      std::_Exit(WorkerProtocolExitCode); // owner died; nothing to do
    ++Done;
    if (Opts.RecycleAfter != 0 && Done >= Opts.RecycleAfter)
      std::_Exit(WorkerRecycleExitCode);
  }
}

SupervisorStats optoct::runtime::runSupervised(
    const std::vector<BatchJob> &Jobs, const std::vector<std::size_t> &Pending,
    const BatchOptions &Opts, std::vector<JobResult> &Results,
    const JobCompletionFn &OnComplete) {
  Supervisor S(Jobs, Pending, Opts, Results, OnComplete);
  return S.run();
}
