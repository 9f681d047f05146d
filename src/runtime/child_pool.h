//===- runtime/child_pool.h - Forked child-process pool ---------*- C++ -*-===//
///
/// \file
/// The fork-pool primitive under the job workers of runtime::Supervisor
/// (runtime/supervisor.h), which runs both batch process mode and
/// optoctd's cache misses. The supervisor embeds a Child in its worker
/// record and keeps only the job-scheduling policy; every child-process
/// mechanic lives here:
///
///   * spawn   — pipe pair, fflush, fork; the child closes every other
///               member's pipe ends (and any extra fds the owner names),
///               applies the resource fences and runs its body; the
///               owner's read end is nonblocking.
///   * drain   — read until EAGAIN into the child's FrameReader; EOF on
///               that pipe is the child's death certificate.
///   * kill    — SIGKILL at most once, recording why.
///   * reap    — SIGKILL first unless EOF was already seen (a child that
///               broke protocol may still be blocked on its input), then
///               wait, close both fds and classify the death, naming the
///               owner's kill reason rather than guessing at the kernel.
///   * retire  — close every input pipe (the children's exit signal),
///               wait up to RetireGrace, SIGKILL stragglers, reap all.
///   * service — after the owner's poll over addPollFds' entries: drain,
///               hand over frames, reap the dead.
///
/// A failed spawn is no lost slot: topUp() refills the pool every
/// round, and the "child.spawn" fault site (support/faultinject.h)
/// makes a spawn fail on demand to prove it.
///
/// Fences (from the BatchOptions the pool is built with; a default
/// BatchOptions arms none): RLIMIT_AS at the address space mapped at fork plus
/// MaxRssMb (skipped in sanitizer builds, whose shadow mappings need
/// the whole address space), and an RLIMIT_CPU backstop derived from
/// the deadline, which a job worker re-arms before every job
/// (armCpuBackstop) so it bounds one job, not the worker's lifetime.
///
/// While a pool exists SIGPIPE is ignored: a write to a dead child's
/// pipe fails with EPIPE instead of killing the owner.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_RUNTIME_CHILD_POOL_H
#define OPTOCT_RUNTIME_CHILD_POOL_H

#include "runtime/batch.h"
#include "runtime/ipc.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/types.h>

// Sanitizer shadow mappings reserve terabytes of address space; an
// RLIMIT_AS fence would kill every worker at startup, so sanitizer
// builds skip it (OPTOCT_SANITIZED is 1). Detect both the GCC define
// and the clang feature-test spelling.
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

namespace optoct::runtime {

/// Child self-exit codes. Distinct from the fault injector's
/// deterministic crash exit (42) so an injected kind=crash in a child
/// still classifies as a crash, not a recycle.
constexpr int WorkerRecycleExitCode = 46;  ///< Clean retirement after N jobs.
constexpr int WorkerProtocolExitCode = 47; ///< Pipe protocol breakdown.

/// How long retire() lets children exit on their own before SIGKILL.
constexpr std::chrono::milliseconds RetireGrace{2000};

/// Event-loop tick of every owner (poll timeout): the latency floor of
/// hard-kill scans, retry backoffs and idle stop checks.
constexpr unsigned PoolTickMs = 20;

/// Ignores SIGPIPE while any guard is alive; the last one to go
/// restores the disposition the first one found.
class SigPipeIgnore {
public:
  SigPipeIgnore();
  ~SigPipeIgnore();
  SigPipeIgnore(const SigPipeIgnore &) = delete;
  SigPipeIgnore &operator=(const SigPipeIgnore &) = delete;
};

/// One forked child and the owner's ends of its pipes. Embedded by each
/// owner's member record; reset to this default state by reap().
struct Child {
  pid_t Pid = -1;
  int ToFd = -1;   ///< Owner -> child (blocking writes).
  int FromFd = -1; ///< Child -> owner (nonblocking reads).
  ipc::FrameReader Reader; ///< Frames read from FromFd by drain().
  bool Eof = false;        ///< FromFd closed: the child is exiting.
  std::string KillReason;  ///< Why the owner killed it; empty = never.

  bool killed() const { return !KillReason.empty(); }
};

/// How a reaped child ended.
struct ChildExit {
  pid_t Pid = -1;
  bool Recycled = false; ///< Exited with WorkerRecycleExitCode.
  std::string What;      ///< "killed by SIGSEGV", "exited ... 3", ...
};

class ChildPool {
public:
  /// Runs in the forked child with its two pipe ends; must not return.
  using Body = std::function<void(int InFd, int OutFd)>;

  /// \p Fences must outlive the pool.
  explicit ChildPool(const BatchOptions &Fences) : Fences(Fences) {}
  /// Retires whatever is still alive.
  ~ChildPool() { retire(); }
  ChildPool(const ChildPool &) = delete;
  ChildPool &operator=(const ChildPool &) = delete;

  /// Forks a child running \p Main into \p C. Besides every other live
  /// member's pipe ends, the child closes \p ExtraCloseFds (listeners,
  /// client sockets, a leased cache snapshot: anything whose EOF or
  /// lease must not be held open by a forked copy). False (nothing spawned, errno preserved) if a pipe
  /// or the fork fails; the "child.spawn" fault site's kind=alloc fails
  /// it with EAGAIN.
  bool spawn(Child &C, const Body &Main,
             const std::vector<int> &ExtraCloseFds = {});

  /// Calls \p SpawnOne until the pool has \p Want live children,
  /// tolerating transient fork failure: up to three failures, pausing
  /// between them only while no child is alive at all.
  void topUp(std::size_t Want, const std::function<bool()> &SpawnOne);

  /// Reads everything available into C.Reader. True once the pipe hit
  /// EOF or failed: the child is gone or going, reap it.
  bool drain(Child &C);

  /// Appends one POLLIN entry per member's output pipe to \p Fds.
  template <class Member>
  static void addPollFds(const std::list<Member> &Members,
                         std::vector<struct pollfd> &Fds) {
    for (const Member &M : Members)
      Fds.push_back({M.Proc.FromFd, POLLIN, 0});
  }

  /// Services the first \p Count of \p Members against \p Fired, their
  /// addPollFds entries after a poll: drains the fired pipes, hands every
  /// complete frame to OnFrame(Member &, MsgType, Body), kills a member
  /// whose stream is corrupt, and reaps each member whose pipe hit EOF —
  /// OnExit(Member &, const ChildExit &) — before erasing it.
  template <class Member, class OnFrameFn, class OnExitFn>
  void service(std::list<Member> &Members, const struct pollfd *Fired,
               std::size_t Count, OnFrameFn OnFrame, OnExitFn OnExit) {
    auto It = Members.begin();
    for (std::size_t I = 0; I != Count && It != Members.end(); ++I) {
      if (Fired[I].revents & (POLLIN | POLLHUP | POLLERR))
        drain(It->Proc);
      ipc::MsgType Type{};
      std::string Body;
      while (It->Proc.Reader.next(Type, Body))
        OnFrame(*It, Type, Body);
      if (It->Proc.Reader.corrupt())
        kill(It->Proc, "corrupt frame");
      if (!It->Proc.Eof) {
        ++It;
        continue;
      }
      OnExit(*It, reap(It->Proc));
      It = Members.erase(It);
    }
  }

  /// SIGKILLs \p C unless it was already killed; \p Why names the kill
  /// in reap()'s classification.
  void kill(Child &C, const std::string &Why);

  /// Closes the owner's input pipe to \p C (its exit signal).
  void closeInput(Child &C);

  /// Collects \p C's exit status and closes its fds, then resets \p C.
  /// Kills it first unless drain() saw EOF, so the wait is prompt.
  ChildExit reap(Child &C);

  /// Ends every live child: input pipes closed, up to RetireGrace to
  /// exit, SIGKILL for the stragglers. Owners drop their records after.
  void retire();

private:
  struct Entry {
    pid_t Pid;
    int ToFd;
    int FromFd;
  };

  const BatchOptions &Fences;
  SigPipeIgnore PipeGuard;
  std::vector<Entry> Live; ///< The owner ends of every live child.
};

/// Re-arms this process's RLIMIT_CPU backstop for one more job under
/// \p DeadlineMs (no-op when 0): the soft limit becomes the CPU time
/// used so far plus 4x the deadline plus 2 s, generous enough never to
/// beat the owner's SIGKILL escalation. Called in a child.
void armCpuBackstop(std::uint64_t DeadlineMs);

} // namespace optoct::runtime

#endif // OPTOCT_RUNTIME_CHILD_POOL_H
