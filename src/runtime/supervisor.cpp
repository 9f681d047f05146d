//===- runtime/supervisor.cpp - Process-isolated job scheduler ------------===//

#include "runtime/supervisor.h"

#include "runtime/thread_pool.h"
#include "support/faultinject.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

using namespace optoct;
using namespace optoct::runtime;

namespace {

std::string attemptLine(unsigned Attempt, const std::string &What) {
  return "attempt " + std::to_string(Attempt) + ": " + What;
}

} // namespace

Supervisor::Supervisor(const BatchOptions &Opts, DoneFn OnDone,
                       std::uint64_t CeilingMs, CloseFdsFn CloseFds)
    : Opts(Opts), OnDone(std::move(OnDone)), CloseFds(std::move(CloseFds)),
      HardLimitMs(Opts.Budget.DeadlineMs != 0
                      ? Opts.Budget.DeadlineMs + Opts.HardKillGraceMs
                      : CeilingMs),
      Pool(Opts) {}

std::size_t Supervisor::topUp(std::size_t Want) {
  Pool.topUp(Want, [this] {
    Workers.emplace_back();
    auto Main = [this](int In, int Out) { runJobWorker(In, Out, Opts); };
    if (!Pool.spawn(Workers.back().Proc, Main,
                    CloseFds ? CloseFds() : std::vector<int>())) {
      Workers.pop_back();
      return false;
    }
    ++Stats.WorkersSpawned;
    return true;
  });
  assign();
  return Workers.size();
}

void Supervisor::submit(std::uint64_t Tag, BatchJob Job,
                        std::string EngineBlob) {
  Task &T = Tasks[Tag];
  T.Job = std::move(Job);
  T.EngineBlob = std::move(EngineBlob);
  Ready.push_back(Tag);
  assign();
}

void Supervisor::addPollFds(std::vector<pollfd> &Fds) {
  ChildPool::addPollFds(Workers, Fds);
  Polled = Workers.size();
}

void Supervisor::service(const std::vector<pollfd> &Fds, std::size_t Base) {
  Pool.service(
      Workers, Fds.data() + Base, Polled,
      [this](Worker &W, ipc::MsgType Type, const std::string &Body) {
        onFrame(W, Type, Body);
      },
      [this](const Worker &W, const ChildExit &Exit) { onExit(W, Exit); });
  Polled = 0;
  hardKillScan();
  Clock::time_point Now = Clock::now();
  for (auto It = Delayed.begin(); It != Delayed.end();) {
    if (It->first <= Now) {
      Ready.push_back(It->second);
      It = Delayed.erase(It);
    } else
      ++It;
  }
  assign();
}

void Supervisor::shed(const std::string &Why) {
  NoRetry = true;
  std::vector<std::uint64_t> Tags(Ready.begin(), Ready.end());
  for (const auto &D : Delayed)
    Tags.push_back(D.second);
  Ready.clear();
  Delayed.clear();
  for (std::uint64_t Tag : Tags) {
    Task &T = Tasks.at(Tag);
    T.Attempts = std::max(1u, T.Attempts); // consumed by the shed itself
    T.Log.push_back(attemptLine(T.Attempts, Why));
    JobResult R;
    R.Name = T.Job.Name;
    R.Status = JobStatus::Failed;
    R.Error = Why;
    finish(Tag, std::move(R), /*Retryable=*/false, /*Shed=*/true);
  }
}

void Supervisor::retire() {
  Pool.retire();
  Workers.clear();
  Polled = 0;
  Tasks.clear();
  Ready.clear();
  Delayed.clear();
  NoRetry = false;
}

/// Excluded from assignment: killed, or retiring on its own after its
/// recycle quota.
bool Supervisor::dying(const Worker &W) const {
  return W.Proc.killed() ||
         (Opts.RecycleAfter != 0 && W.JobsDone >= Opts.RecycleAfter);
}

void Supervisor::assign() {
  for (Worker &W : Workers) {
    if (Ready.empty())
      return;
    if (W.Busy || dying(W))
      continue;
    std::uint64_t Tag = Ready.front();
    Ready.pop_front();
    Task &T = Tasks.at(Tag);
    ++T.Attempts;
    if (!ipc::writeFrame(W.Proc.ToFd, ipc::MsgType::Job,
                         ipc::encodeJob(Tag, T.Attempts, T.Job,
                                        T.EngineBlob))) {
      // The worker is dead or dying; hand the job to someone else
      // (this send consumed no attempt) and let the EOF path reap.
      --T.Attempts;
      Pool.kill(W.Proc, "job pipe write failed");
      Ready.push_front(Tag);
      continue;
    }
    W.Busy = true;
    W.Tag = Tag;
    W.HardKilled = false;
    W.Start = Clock::now();
  }
}

bool Supervisor::retry(std::uint64_t Tag, unsigned AttemptsSoFar) {
  if (NoRetry || AttemptsSoFar >= std::max(1u, Opts.MaxAttempts))
    return false;
  std::uint64_t Delay = std::min<std::uint64_t>(
      Opts.BackoffCapMs, static_cast<std::uint64_t>(Opts.BackoffBaseMs)
                             << std::min(AttemptsSoFar - 1, 20u));
  Delayed.emplace_back(Clock::now() + std::chrono::milliseconds(Delay), Tag);
  return true;
}

void Supervisor::finish(std::uint64_t Tag, JobResult &&R, bool Retryable,
                        bool Shed) {
  auto It = Tasks.find(Tag);
  Outcome O;
  O.Result = std::move(R);
  O.Result.Attempts = It->second.Attempts;
  O.Result.FailureLog = std::move(It->second.Log);
  O.Retryable = Retryable;
  O.Deaths = It->second.Deaths;
  O.Shed = Shed;
  Tasks.erase(It);
  OnDone(Tag, std::move(O));
}

void Supervisor::onFrame(Worker &W, ipc::MsgType Type,
                         const std::string &Body) {
  std::size_t Tag = 0;
  bool Retryable = false;
  JobResult R;
  std::string Error;
  if (Type != ipc::MsgType::Result ||
      !ipc::decodeResult(Body, Tag, Retryable, R, Error) || !W.Busy ||
      Tag != W.Tag) {
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
  Task &T = Tasks.at(Tag);
  if (R.Status != JobStatus::Ok)
    T.Log.push_back(
        attemptLine(T.Attempts, R.Error.empty() ? R.Detail : R.Error));
  // Same policy as the thread-mode retry loop: only exception failures
  // are worth another attempt.
  Retryable = Retryable && R.Status == JobStatus::Failed;
  if (!Retryable || !retry(Tag, T.Attempts))
    finish(Tag, std::move(R), Retryable);
}

/// A worker died (the pool has reaped it): classify its death; the
/// respawn happens in the owner's next topUp().
void Supervisor::onExit(const Worker &W, const ChildExit &Exit) {
  if (!W.Busy) {
    if (Exit.Recycled)
      ++Stats.WorkersRecycled;
    return;
  }
  ++Stats.WorkersCrashed; // the worker did die with a job aboard
  Task &T = Tasks.at(W.Tag);
  ++T.Deaths;
  JobResult R;
  R.Name = T.Job.Name;
  if (W.HardKilled) {
    R.Status = JobStatus::Timeout;
    R.Error = "hard-killed (SIGKILL) " + std::to_string(HardLimitMs) +
              " ms after job start; job never reached a cancellation poll";
  } else {
    R.Status = JobStatus::Crashed;
    R.Error = "worker " + Exit.What;
  }
  T.Log.push_back(attemptLine(T.Attempts, R.Error));
  // Deadlines recur, so a hard kill is terminal; a crash gets a fresh
  // worker after a backoff while attempts remain.
  if (W.HardKilled || !retry(W.Tag, T.Attempts))
    finish(W.Tag, std::move(R), /*Retryable=*/false);
}

void Supervisor::hardKillScan() {
  if (HardLimitMs == 0)
    return;
  auto Limit = std::chrono::milliseconds(HardLimitMs);
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
  std::size_t Remaining = Pending.size();
  Supervisor S(Opts, [&](std::uint64_t I, Supervisor::Outcome &&O) {
    Results[I] = std::move(O.Result);
    if (OnComplete)
      OnComplete(I, Results[I]);
    --Remaining;
  });
  for (std::size_t I : Pending)
    S.submit(I, Jobs[I]);
  std::size_t Target = std::max(
      1u, Opts.Jobs == 0 ? ThreadPool::defaultWorkerCount() : Opts.Jobs);
  std::vector<pollfd> Fds;
  while (Remaining != 0) {
    if (S.topUp(std::min(Target, Remaining)) == 0) {
      std::string Why = std::strerror(errno);
      if (S.stats().WorkersSpawned == 0)
        throw std::runtime_error(
            "process isolation: cannot fork any worker: " + Why);
      S.shed("process isolation: cannot respawn workers: " + Why);
      break;
    }
    Fds.clear();
    S.addPollFds(Fds);
    ::poll(Fds.data(), Fds.size(), static_cast<int>(PoolTickMs));
    S.service(Fds, 0);
  }
  // Every job already has a result: the pool retires with S, and
  // nothing of value is lost past this point.
  return S.stats();
}
