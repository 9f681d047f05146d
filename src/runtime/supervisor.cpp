//===- runtime/supervisor.cpp - Process-isolated worker pool --------------===//

#include "runtime/supervisor.h"

#include "runtime/ipc.h"
#include "runtime/thread_pool.h"
#include "support/faultinject.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <list>
#include <stdexcept>
#include <string>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace optoct;
using namespace optoct::runtime;

// Sanitizer shadow mappings reserve terabytes of address space; an
// RLIMIT_AS fence would kill every worker at startup. Detect both the
// GCC define and the clang feature-test spelling.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||     \
    __has_feature(memory_sanitizer)
#define OPTOCT_SANITIZED 1
#endif
#endif
#if !defined(OPTOCT_SANITIZED) &&                                              \
    (defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__))
#define OPTOCT_SANITIZED 1
#endif
#ifndef OPTOCT_SANITIZED
#define OPTOCT_SANITIZED 0
#endif

namespace {

using Clock = std::chrono::steady_clock;

const char *signalName(int Sig) {
  switch (Sig) {
  case SIGSEGV:
    return "SIGSEGV";
  case SIGABRT:
    return "SIGABRT";
  case SIGBUS:
    return "SIGBUS";
  case SIGILL:
    return "SIGILL";
  case SIGFPE:
    return "SIGFPE";
  case SIGKILL:
    return "SIGKILL";
  case SIGXCPU:
    return "SIGXCPU";
  case SIGTERM:
    return "SIGTERM";
  default:
    return nullptr;
  }
}

std::string describeSignal(int Sig) {
  if (const char *N = signalName(Sig))
    return N;
  return "signal " + std::to_string(Sig);
}

/// The address space this process has mapped, in bytes: VmSize, the
/// first field of /proc/self/statm, in pages. 0 if it cannot be read.
/// Raw syscalls only: it runs in a freshly forked child.
std::uint64_t mappedBytes() {
  int Fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return 0;
  char Buf[64];
  ssize_t N = ::read(Fd, Buf, sizeof(Buf));
  ::close(Fd);
  std::uint64_t Pages = 0;
  for (ssize_t I = 0; I < N && Buf[I] >= '0' && Buf[I] <= '9'; ++I)
    Pages = Pages * 10 + static_cast<std::uint64_t>(Buf[I] - '0');
  return Pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

/// Child-side resource fences, applied before the first job.
void applyWorkerLimits(const BatchOptions &Opts) {
  if (Opts.MaxRssMb != 0 && !OPTOCT_SANITIZED) {
    // The fence is MaxRssMb *beyond* what the worker inherited at fork:
    // a worker forked from a warm daemon already maps the parent's
    // cache, which it never touches and which must not eat its budget.
    std::uint64_t Inherited = mappedBytes();
    rlim_t Limit = RLIM_INFINITY;
    if (Opts.MaxRssMb <= (RLIM_INFINITY - Inherited) >> 20)
      Limit = static_cast<rlim_t>(Inherited + (Opts.MaxRssMb << 20));
    struct rlimit RL;
    RL.rlim_cur = RL.rlim_max = Limit;
    ::setrlimit(RLIMIT_AS, &RL);
  }
  if (Opts.Budget.DeadlineMs != 0) {
    // CPU-time backstop for the case where the supervisor itself is
    // wedged: generous (4x the wall deadline, >= 2 s — RLIMIT_CPU has
    // one-second granularity) so it never beats the SIGKILL
    // escalation, but a runaway spinner cannot burn a core forever.
    rlim_t Secs =
        static_cast<rlim_t>(Opts.Budget.DeadlineMs * 4 / 1000 + 2);
    struct rlimit RL;
    RL.rlim_cur = Secs;
    RL.rlim_max = Secs + 2;
    ::setrlimit(RLIMIT_CPU, &RL);
  }
}

/// The whole life of a worker process: read a job frame, run one
/// attempt, write one result frame, repeat; retire after RecycleAfter
/// jobs. Exits only via _Exit — no atexit handlers, no flushing of
/// stdio buffers duplicated by fork.
[[noreturn]] void workerMain(int JobFd, int ResFd, BatchOptions Opts) {
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
      std::_Exit(0); // supervisor closed the job pipe: batch over
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
    bool Retryable = false;
    JobResult R = runJobSingleAttempt(Job, JobOpts, Retryable);
    if (!ipc::writeFrame(ResFd, ipc::MsgType::Result,
                         ipc::encodeResult(Index, Retryable, R)))
      std::_Exit(WorkerProtocolExitCode); // supervisor died; nothing to do
    ++Done;
    if (Opts.RecycleAfter != 0 && Done >= Opts.RecycleAfter)
      std::_Exit(WorkerRecycleExitCode);
  }
}

/// Ignores SIGPIPE for the supervisor's lifetime (writes to a crashed
/// worker's pipe must fail with EPIPE, not kill the batch) and
/// restores the old disposition on exit.
class SigPipeGuard {
public:
  SigPipeGuard() {
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &SA, &Old);
  }
  ~SigPipeGuard() { ::sigaction(SIGPIPE, &Old, nullptr); }

private:
  struct sigaction Old;
};

struct Worker {
  pid_t Pid = -1;
  int JobFd = -1; ///< Supervisor -> worker (blocking writes).
  int ResFd = -1; ///< Worker -> supervisor (nonblocking reads).
  bool Busy = false;
  bool Dying = false;      ///< Excluded from assignment (kill sent, or
                           ///< retiring after its recycle quota).
  unsigned JobsDone = 0;   ///< Results received; mirrors the worker's
                           ///< own recycle counter exactly.
  bool HardKilled = false; ///< Supervisor SIGKILL past the deadline.
  std::size_t Job = 0;
  Clock::time_point Start{};
  std::string Note; ///< Extra classification context (protocol fault).
  ipc::FrameReader Reader;
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
        Track(Jobs.size()) {
    for (std::size_t I : Pending)
      Ready.push_back(I);
    Remaining = Pending.size();
    unsigned Requested =
        Opts.Jobs == 0 ? ThreadPool::defaultWorkerCount() : Opts.Jobs;
    Target = static_cast<unsigned>(std::min<std::size_t>(
        std::max(1u, Requested), std::max<std::size_t>(1, Remaining)));
    MaxAttempts = std::max(1u, Opts.MaxAttempts);
    PollMs = Opts.WatchdogPollMs == 0 ? 20 : Opts.WatchdogPollMs;
  }

  SupervisorStats run() {
    SigPipeGuard PipeGuard;
    for (unsigned I = 0; I != Target; ++I)
      spawnWorker();
    if (Workers.empty())
      throw std::runtime_error(
          "process isolation: cannot fork any worker: " +
          std::string(std::strerror(errno)));
    while (Remaining != 0) {
      promoteDelayed();
      topUpWorkers();
      if (Workers.empty()) {
        failRemaining("process isolation: cannot respawn workers: " +
                      std::string(std::strerror(errno)));
        break;
      }
      assignJobs();
      pollOnce();
      hardKillScan();
    }
    shutdown();
    return Stats;
  }

private:
  // --- Spawning -------------------------------------------------------------

  bool spawnWorker() {
    // The siblings' pipes must not stay open in the child or their
    // EOFs would never fire.
    std::vector<int> Siblings;
    for (const Worker &W : Workers) {
      Siblings.push_back(W.JobFd);
      Siblings.push_back(W.ResFd);
    }
    WorkerProcess P;
    if (!spawnJobWorker(Opts, Siblings, P))
      return false;
    Worker W;
    W.Pid = P.Pid;
    W.JobFd = P.JobFd;
    W.ResFd = P.ResFd;
    Workers.push_back(std::move(W));
    ++Stats.WorkersSpawned;
    return true;
  }

  void topUpWorkers() {
    unsigned Want = static_cast<unsigned>(
        std::min<std::size_t>(Target, std::max<std::size_t>(1, Remaining)));
    unsigned Attempts = 0;
    while (Workers.size() < Want && Attempts < 3) {
      if (!spawnWorker()) {
        ++Attempts;
        if (Workers.empty())
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        else
          break; // degraded pool is fine; retry next loop
      }
    }
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
    for (auto It = Workers.begin(); It != Workers.end() && !Ready.empty();
         ++It) {
      Worker &W = *It;
      if (W.Busy || W.Dying)
        continue;
      std::size_t Idx = Ready.front();
      Ready.pop_front();
      JobTrack &T = Track[Idx];
      ++T.Attempts;
      W.Busy = true;
      W.Job = Idx;
      W.HardKilled = false;
      W.Start = Clock::now();
      if (!ipc::writeFrame(W.JobFd, ipc::MsgType::Job,
                           ipc::encodeJob(Idx, T.Attempts, Jobs[Idx]))) {
        // The worker is dead or dying; hand the job to someone else
        // (this send consumed no attempt) and let the EOF path reap.
        --T.Attempts;
        W.Busy = false;
        W.Dying = true;
        ::kill(W.Pid, SIGKILL);
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

  void failRemaining(const std::string &Why) {
    for (std::size_t Idx = 0; Idx != Track.size(); ++Idx) {
      if (Track[Idx].Done)
        continue;
      bool Pending = std::find(Ready.begin(), Ready.end(), Idx) !=
                     Ready.end();
      for (const auto &D : Delayed)
        Pending = Pending || D.second == Idx;
      for (const Worker &W : Workers)
        Pending = Pending || (W.Busy && W.Job == Idx);
      if (!Pending)
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

  void pollOnce() {
    std::vector<struct pollfd> Fds;
    std::vector<std::list<Worker>::iterator> ByFd;
    for (auto It = Workers.begin(); It != Workers.end(); ++It) {
      Fds.push_back({It->ResFd, POLLIN, 0});
      ByFd.push_back(It);
    }
    int N = ::poll(Fds.data(), Fds.size(), static_cast<int>(PollMs));
    if (N <= 0)
      return;
    // Collect exits first, then reap outside the fd walk (reaping
    // erases list nodes).
    std::vector<std::list<Worker>::iterator> Exited;
    for (std::size_t I = 0; I != Fds.size(); ++I) {
      if ((Fds[I].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
        continue;
      if (drainWorker(*ByFd[I]))
        Exited.push_back(ByFd[I]);
    }
    for (auto It : Exited)
      reapWorker(It);
  }

  /// Reads everything available; returns true on EOF (worker gone).
  bool drainWorker(Worker &W) {
    char Buf[65536];
    bool Eof = false;
    for (;;) {
      ssize_t N = ::read(W.ResFd, Buf, sizeof(Buf));
      if (N > 0) {
        W.Reader.feed(Buf, static_cast<std::size_t>(N));
        continue;
      }
      if (N == 0) {
        Eof = true;
        break;
      }
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      Eof = true; // unexpected pipe error: treat as death
      break;
    }
    ipc::MsgType Type{};
    std::string Body;
    while (W.Reader.next(Type, Body))
      handleFrame(W, Type, Body);
    if (W.Reader.corrupt() && !W.Dying) {
      // Garbage on the wire: this worker can no longer be trusted.
      W.Note = "corrupt result frame";
      W.Dying = true;
      ::kill(W.Pid, SIGKILL);
    }
    return Eof;
  }

  void handleFrame(Worker &W, ipc::MsgType Type, const std::string &Body) {
    std::size_t Idx = 0;
    bool Retryable = false;
    JobResult R;
    std::string Error;
    if (Type != ipc::MsgType::Result ||
        !ipc::decodeResult(Body, Idx, Retryable, R, Error) || !W.Busy ||
        Idx != W.Job) {
      if (!W.Dying) {
        W.Note = Error.empty() ? "result protocol violation" : Error;
        W.Dying = true;
        ::kill(W.Pid, SIGKILL);
      }
      return;
    }
    W.Busy = false;
    // Race guard: the worker self-retires after RecycleAfter jobs, and
    // this result may have been its last. Stop assigning to it *now* —
    // a job written into the pipe after the worker decided to _Exit
    // would be silently dropped and misread as a crash at EOF. Both
    // sides count completions identically, so this mirror is exact.
    ++W.JobsDone;
    if (Opts.RecycleAfter != 0 && W.JobsDone >= Opts.RecycleAfter)
      W.Dying = true; // exiting on its own; EOF will reap it cleanly
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

  /// EOF seen: classify the corpse and respawn happens via topUp.
  void reapWorker(std::list<Worker>::iterator It) {
    Worker &W = *It;
    int St = 0;
    // EOF means the worker is in (or through) its exit path; a
    // blocking waitpid is bounded and leaves no zombie behind.
    (void)::waitpid(W.Pid, &St, 0);
    if (W.Busy) {
      std::size_t Idx = W.Job;
      JobTrack &T = Track[Idx];
      std::string What;
      if (W.HardKilled) {
        What = "hard-killed (SIGKILL) " +
               std::to_string(Opts.Budget.DeadlineMs) + "+" +
               std::to_string(Opts.HardKillGraceMs) +
               " ms after job start; job never reached a cancellation "
               "poll";
        ++Stats.WorkersCrashed; // the worker did die with a job aboard
        T.Log.push_back("attempt " + std::to_string(T.Attempts) + ": " +
                        What);
        JobResult R;
        R.Name = Jobs[Idx].Name;
        R.Status = JobStatus::Timeout;
        R.Error = What;
        finalize(Idx, std::move(R)); // deadlines recur: terminal
      } else {
        What = "worker pid " + std::to_string(W.Pid) + " " +
               describeWorkerDeath(St, Opts);
        if (!W.Note.empty())
          What += " [" + W.Note + "]";
        ++Stats.WorkersCrashed;
        T.Log.push_back("attempt " + std::to_string(T.Attempts) + ": " +
                        What);
        if (T.Attempts < MaxAttempts) {
          scheduleRetry(Idx, T.Attempts); // fresh worker, backoff
        } else {
          JobResult R;
          R.Name = Jobs[Idx].Name;
          R.Status = JobStatus::Crashed;
          R.Error = What;
          finalize(Idx, std::move(R));
        }
      }
    } else if (WIFEXITED(St) && WEXITSTATUS(St) == WorkerRecycleExitCode) {
      ++Stats.WorkersRecycled;
    }
    ::close(W.JobFd);
    ::close(W.ResFd);
    Workers.erase(It);
  }

  void hardKillScan() {
    if (Opts.Budget.DeadlineMs == 0)
      return;
    auto Limit = std::chrono::milliseconds(Opts.Budget.DeadlineMs +
                                           Opts.HardKillGraceMs);
    Clock::time_point Now = Clock::now();
    for (Worker &W : Workers) {
      if (!W.Busy || W.Dying || Now - W.Start < Limit)
        continue;
      // The soft cancel had its window (the worker's own armed token
      // plus the grace); escalate. SIGKILL cannot be caught, blocked,
      // or ignored — the EOF lands at the next poll and classifies
      // this as a hard timeout.
      W.HardKilled = true;
      W.Dying = true;
      ::kill(W.Pid, SIGKILL);
      ++Stats.HardKills;
    }
  }

  void shutdown() {
    // Closing the job pipes is the retirement signal: idle workers see
    // EOF and _Exit(0). Give them a moment, then force the stragglers
    // — every job already has a result, so nothing of value can be
    // lost past this point.
    for (Worker &W : Workers)
      ::close(W.JobFd);
    Clock::time_point Deadline = Clock::now() + std::chrono::seconds(2);
    for (Worker &W : Workers) {
      int St = 0;
      for (;;) {
        pid_t Got = ::waitpid(W.Pid, &St, WNOHANG);
        if (Got == W.Pid || Got < 0)
          break;
        if (Clock::now() >= Deadline) {
          ::kill(W.Pid, SIGKILL);
          ::waitpid(W.Pid, &St, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      ::close(W.ResFd);
    }
    Workers.clear();
  }

  const std::vector<BatchJob> &Jobs;
  const BatchOptions &Opts;
  std::vector<JobResult> &Results;
  const JobCompletionFn &OnComplete;

  std::vector<JobTrack> Track;
  std::deque<std::size_t> Ready;
  std::vector<std::pair<Clock::time_point, std::size_t>> Delayed;
  std::list<Worker> Workers;
  SupervisorStats Stats;
  std::size_t Remaining = 0;
  unsigned Target = 1;
  unsigned MaxAttempts = 1;
  unsigned PollMs = 20;
};

} // namespace

bool optoct::runtime::spawnJobWorker(const BatchOptions &Opts,
                                     const std::vector<int> &ExtraCloseFds,
                                     WorkerProcess &Out) {
  int JobP[2], ResP[2];
  if (::pipe(JobP) != 0)
    return false;
  if (::pipe(ResP) != 0) {
    ::close(JobP[0]);
    ::close(JobP[1]);
    return false;
  }
  std::fflush(nullptr); // fork duplicates unflushed stdio buffers
  pid_t Pid = ::fork();
  if (Pid < 0) {
    for (int Fd : {JobP[0], JobP[1], ResP[0], ResP[1]})
      ::close(Fd);
    return false;
  }
  if (Pid == 0) {
    // Child: keep only this worker's two ends.
    ::close(JobP[1]);
    ::close(ResP[0]);
    for (int Fd : ExtraCloseFds)
      ::close(Fd);
    applyWorkerLimits(Opts);
    workerMain(JobP[0], ResP[1], Opts); // noreturn
  }
  ::close(JobP[0]);
  ::close(ResP[1]);
  ::fcntl(ResP[0], F_SETFL, ::fcntl(ResP[0], F_GETFL, 0) | O_NONBLOCK);
  Out.Pid = Pid;
  Out.JobFd = JobP[1];
  Out.ResFd = ResP[0];
  return true;
}

std::string optoct::runtime::describeWorkerDeath(int WaitStatus,
                                                 const BatchOptions &Opts) {
  if (WIFSIGNALED(WaitStatus)) {
    int Sig = WTERMSIG(WaitStatus);
    std::string What = "killed by " + describeSignal(Sig);
    if (Sig == SIGABRT && Opts.MaxRssMb != 0 && !OPTOCT_SANITIZED)
      What += " (allocation failure under RLIMIT_AS " +
              std::to_string(Opts.MaxRssMb) + " MiB past fork)";
    else if (Sig == SIGKILL)
      What += " (external kill — kernel OOM killer?)";
    else if (Sig == SIGXCPU)
      What += " (RLIMIT_CPU backstop)";
    return What;
  }
  if (WIFEXITED(WaitStatus))
    return "exited unexpectedly with status " +
           std::to_string(WEXITSTATUS(WaitStatus));
  return "vanished";
}

SupervisorStats optoct::runtime::runSupervised(
    const std::vector<BatchJob> &Jobs, const std::vector<std::size_t> &Pending,
    const BatchOptions &Opts, std::vector<JobResult> &Results,
    const JobCompletionFn &OnComplete) {
  Supervisor S(Jobs, Pending, Opts, Results, OnComplete);
  return S.run();
}
