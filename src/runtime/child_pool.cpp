//===- runtime/child_pool.cpp - Forked child-process pool -----------------===//

#include "runtime/child_pool.h"

#include "support/faultinject.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>
#include <thread>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace optoct;
using namespace optoct::runtime;

namespace {

std::mutex PipeGuardMu;
unsigned PipeGuards = 0;
struct sigaction SavedSigPipe;

std::string describeSignal(int Sig) {
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
    return "signal " + std::to_string(Sig);
  }
}

/// Human-readable classification of a waitpid status: names the signal
/// and whatever plausibly sent it — the owner's recorded kill reason,
/// or an armed fence ("killed by SIGABRT (allocation failure under
/// RLIMIT_AS 256 MiB past fork)").
std::string describeExit(int Status, const std::string &KillReason,
                         const BatchOptions &Fences) {
  if (WIFEXITED(Status))
    return "exited unexpectedly with status " +
           std::to_string(WEXITSTATUS(Status));
  int Sig = WTERMSIG(Status);
  std::string What = "killed by " + describeSignal(Sig);
  if (Sig == SIGKILL)
    What += " (" +
            (KillReason.empty() ? "external kill — kernel OOM killer?"
                                : KillReason) +
            ")";
  else if (Sig == SIGABRT && Fences.MaxRssMb != 0 && !OPTOCT_SANITIZED)
    What += " (allocation failure under RLIMIT_AS " +
            std::to_string(Fences.MaxRssMb) + " MiB past fork)";
  else if (Sig == SIGXCPU)
    What += " (RLIMIT_CPU backstop)";
  return What;
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

/// Child-side resource fences, applied before the body runs.
void applyFences(const BatchOptions &Opts) {
  if (Opts.MaxRssMb != 0 && !OPTOCT_SANITIZED) {
    // The fence is MaxRssMb *beyond* what the child inherited at fork:
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
  armCpuBackstop(Opts.Budget.DeadlineMs);
}

} // namespace

void optoct::runtime::armCpuBackstop(std::uint64_t DeadlineMs) {
  if (DeadlineMs == 0)
    return;
  // RLIMIT_CPU counts the whole process lifetime and has one-second
  // granularity, so the budget for the next job is the CPU already
  // used (rounded up) plus the backstop. The hard limit stays where it
  // is: an unprivileged process cannot raise it again, and every later
  // job needs a higher soft limit than this one.
  struct rusage RU = {};
  struct rlimit RL = {};
  if (::getrusage(RUSAGE_SELF, &RU) != 0 || ::getrlimit(RLIMIT_CPU, &RL) != 0)
    return;
  std::uint64_t UsedUs =
      static_cast<std::uint64_t>(RU.ru_utime.tv_sec + RU.ru_stime.tv_sec) *
          1000000 +
      static_cast<std::uint64_t>(RU.ru_utime.tv_usec + RU.ru_stime.tv_usec);
  RL.rlim_cur = static_cast<rlim_t>(UsedUs / 1000000 + 1 +
                                    DeadlineMs * 4 / 1000 + 2);
  if (RL.rlim_max != RLIM_INFINITY)
    RL.rlim_cur = std::min(RL.rlim_cur, RL.rlim_max);
  ::setrlimit(RLIMIT_CPU, &RL);
}

SigPipeIgnore::SigPipeIgnore() {
  std::lock_guard<std::mutex> Lock(PipeGuardMu);
  if (PipeGuards++ != 0)
    return;
  struct sigaction SA = {};
  SA.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &SA, &SavedSigPipe);
}

SigPipeIgnore::~SigPipeIgnore() {
  std::lock_guard<std::mutex> Lock(PipeGuardMu);
  if (--PipeGuards == 0)
    ::sigaction(SIGPIPE, &SavedSigPipe, nullptr);
}

bool ChildPool::spawn(Child &C, const Body &Main,
                      const std::vector<int> &ExtraCloseFds) {
  try {
    support::faultPoint("child.spawn");
  } catch (const std::bad_alloc &) {
    errno = EAGAIN; // what a fork refused for lack of resources reports
    return false;
  }
  int In[2], Out[2];
  if (::pipe(In) != 0)
    return false;
  if (::pipe(Out) != 0) {
    ::close(In[0]);
    ::close(In[1]);
    return false;
  }
  std::fflush(nullptr); // fork duplicates unflushed stdio buffers
  pid_t Pid = ::fork();
  if (Pid < 0) {
    for (int Fd : {In[0], In[1], Out[0], Out[1]})
      ::close(Fd);
    return false;
  }
  if (Pid == 0) {
    // Keep only this child's two ends: a sibling's pipe held open here
    // would suppress that sibling's EOFs in both directions.
    ::close(In[1]);
    ::close(Out[0]);
    for (const Entry &M : Live) {
      ::close(M.ToFd);
      ::close(M.FromFd);
    }
    for (int Fd : ExtraCloseFds)
      ::close(Fd);
    applyFences(Fences);
    Main(In[0], Out[1]);
    std::_Exit(0);
  }
  ::close(In[0]);
  ::close(Out[1]);
  ::fcntl(Out[0], F_SETFL, ::fcntl(Out[0], F_GETFL, 0) | O_NONBLOCK);
  C = Child();
  C.Pid = Pid;
  C.ToFd = In[1];
  C.FromFd = Out[0];
  Live.push_back({Pid, In[1], Out[0]});
  return true;
}

void ChildPool::topUp(std::size_t Want,
                      const std::function<bool()> &SpawnOne) {
  for (unsigned Failures = 0; Live.size() < Want && Failures < 3;) {
    if (SpawnOne())
      continue;
    ++Failures;
    if (!Live.empty())
      break; // a degraded pool still makes progress; retry next round
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

bool ChildPool::drain(Child &C) {
  char Buf[65536];
  for (;;) {
    ssize_t N = ::read(C.FromFd, Buf, sizeof(Buf));
    if (N > 0) {
      C.Reader.feed(Buf, static_cast<std::size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return false;
    if (N < 0)
      kill(C, "output pipe read failed"); // the child may still be alive
    C.Eof = true;
    return true;
  }
}

void ChildPool::kill(Child &C, const std::string &Why) {
  if (C.killed() || C.Pid <= 0)
    return;
  C.KillReason = Why;
  ::kill(C.Pid, SIGKILL);
}

void ChildPool::closeInput(Child &C) {
  if (C.ToFd < 0)
    return;
  ::close(C.ToFd);
  for (Entry &M : Live)
    if (M.Pid == C.Pid)
      M.ToFd = -1;
  C.ToFd = -1;
}

ChildExit ChildPool::reap(Child &C) {
  // EOF means the child is in (or through) its exit path, so the wait
  // is short. Without it the child may be alive and blocked on its
  // input — waiting on it would wedge the owner.
  if (!C.Eof)
    kill(C, "reaped before it exited");
  ChildExit X;
  X.Pid = C.Pid;
  int St = 0;
  pid_t Got = -1;
  while (C.Pid > 0 && (Got = ::waitpid(C.Pid, &St, 0)) < 0 && errno == EINTR) {
  }
  if (Got > 0) {
    X.Recycled = WIFEXITED(St) && WEXITSTATUS(St) == WorkerRecycleExitCode;
    X.What = describeExit(St, C.KillReason, Fences);
  } else {
    X.What = "vanished";
  }
  closeInput(C);
  if (C.FromFd >= 0)
    ::close(C.FromFd);
  Live.erase(std::remove_if(Live.begin(), Live.end(),
                            [&](const Entry &M) { return M.Pid == C.Pid; }),
             Live.end());
  C = Child();
  return X;
}

void ChildPool::retire() {
  for (Entry &M : Live)
    if (M.ToFd >= 0)
      ::close(M.ToFd);
  auto Deadline = std::chrono::steady_clock::now() + RetireGrace;
  for (const Entry &M : Live) {
    int St = 0;
    while (::waitpid(M.Pid, &St, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() >= Deadline) {
        ::kill(M.Pid, SIGKILL);
        ::waitpid(M.Pid, &St, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::close(M.FromFd);
  }
  Live.clear();
}
