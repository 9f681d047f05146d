//===- runtime/supervisor.h - Process-isolated worker pool ------*- C++ -*-===//
///
/// \file
/// Level 3 of the recovery ladder: a supervised pool of forked worker
/// processes, so that a job which segfaults, gets OOM-killed, or hangs
/// in a non-polling loop costs exactly one worker — never the batch.
///
/// Architecture (fork-pool, no exec — workers inherit the code and the
/// armed audit/fault configuration by inheritance, not by re-parsing):
///
///   supervisor (the runBatch caller's thread)
///     ├─ job pipe ──► worker 1 ──► result pipe ─┐
///     ├─ job pipe ──► worker 2 ──► result pipe ─┼─► poll(2) loop
///     └─ job pipe ──► worker N ──► result pipe ─┘
///
/// Jobs travel as checksummed frames (runtime/ipc.h). Each worker runs
/// one attempt per job message (runJobSingleAttempt) and writes one
/// result frame back; the *supervisor* owns every cross-attempt
/// policy — retry with exponential backoff on a fresh worker, terminal
/// classification, journal appends (workers never touch the journal) —
/// so a dying worker can corrupt nothing but its own in-flight frame,
/// which the checksum catches.
///
/// Death handling. The worker processes and their pipes are a
/// ChildPool (runtime/child_pool.h), which owns spawning, draining,
/// killing, reaping and retiring them. A worker's result-pipe EOF is its
/// death certificate (the write end closes on exit, however it exits);
/// the pool reaps the corpse and the supervisor classifies:
///   * WIFSIGNALED (SIGSEGV/SIGABRT/SIGBUS/SIGKILL/...) with a job in
///     flight  -> JobStatus::Crashed, failure log names the signal and
///     any armed limit;
///   * supervisor-initiated SIGKILL (deadline + grace elapsed, the
///     "heartbeat" being the absence of a result past the soft-cancel
///     window) -> JobStatus::Timeout with a hard-kill detail;
///   * clean recycle exit (after BatchOptions::RecycleAfter jobs)
///     -> respawn, no job affected.
/// Dead workers are respawned while unfinished jobs remain, the pool
/// never blocks on a corpse (zombies are reaped in the event loop),
/// and a lost frame is indistinguishable from a crash — which is the
/// correct reading.
///
/// Resource fencing per worker (the pool's fences, applied in the child
/// before any job): RLIMIT_AS at the address space mapped at fork plus
/// BatchOptions::MaxRssMb (skipped in sanitizer builds, whose shadow
/// mappings need the whole address space) and an RLIMIT_CPU backstop
/// derived from the deadline, re-armed before every job, for the case
/// where the supervisor itself is wedged.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_RUNTIME_SUPERVISOR_H
#define OPTOCT_RUNTIME_SUPERVISOR_H

#include "runtime/batch.h"

#include <cstddef>
#include <functional>
#include <vector>

namespace optoct::runtime {

/// Fires in the supervisor process as each job reaches a *terminal*
/// result (success or final failure) — the journal append hook.
using JobCompletionFn =
    std::function<void(std::size_t Index, const JobResult &Result)>;

/// The whole life of a job worker, the body the supervisor and the
/// analysis daemon (server/server.h) both hand to ChildPool::spawn:
/// read a Job frame from \p JobFd, run one attempt
/// (runJobSingleAttempt), write a Result frame to \p ResFd, repeat;
/// retire after Opts.RecycleAfter jobs. Re-arms the RLIMIT_CPU backstop
/// before every job. Exits only via _Exit.
[[noreturn]] void runJobWorker(int JobFd, int ResFd, BatchOptions Opts);

/// Runs Jobs[I] for each I in \p Pending inside forked worker
/// processes, writing Results[I] as jobs finish. Worker count, budgets,
/// retry/backoff, RLIMITs, recycling, and the hard-kill grace all come
/// from \p Opts (Opts.Jobs == 0 means one worker per hardware thread).
/// Returns the pool counters. Throws std::runtime_error only if no
/// worker can be spawned at all; individual worker deaths are the
/// business being handled, not errors.
SupervisorStats
runSupervised(const std::vector<BatchJob> &Jobs,
              const std::vector<std::size_t> &Pending,
              const BatchOptions &Opts, std::vector<JobResult> &Results,
              const JobCompletionFn &OnComplete = {});

} // namespace optoct::runtime

#endif // OPTOCT_RUNTIME_SUPERVISOR_H
