//===- support/faultinject.h - Deterministic fault injection ----*- C++ -*-===//
///
/// \file
/// Seeded, deterministic fault injection for robustness tests. Code
/// under test declares named *sites* (faultPoint("engine.visit"), ...);
/// a process-wide FaultPlan decides — purely from (rule, site, job
/// name, per-job hit count, seed) — whether a given visit triggers a
/// fault. Nothing depends on thread identity or scheduling, so a batch
/// run produces the same injected faults for any worker count.
///
/// Sites currently wired in:
///   * "batch.job"      — start of every batch job attempt
///   * "engine.visit"   — every fixpoint block visit
///   * "closure.pivot"  — every pivot iteration of the dense/sparse/
///                        incremental closures
///   * "closure.result" — after every audited closure (PoisonBound
///                        target is a live DBM cell, simulating a
///                        silent corruption the audit must catch)
///   * "oct.alloc"      — every Octagon buffer construction
///   * "oct.constraint" — every constraint meet (PoisonBound target)
///   * "journal.append" — after each durable batch-journal append
///   * "cache.persist"  — in the daemon cache's shared-save path,
///                        after taking the flock but before the atomic
///                        rename (Crash here must leave the previous
///                        valid snapshot on disk)
///   * "child.spawn"    — every ChildPool::spawn, in the owner process
///                        (AllocFail makes the spawn fail with EAGAIN)
///
/// Fault kinds: AllocFail throws std::bad_alloc, Slow sleeps,
/// Timeout raises BudgetExceeded(Deadline), PoisonBound overwrites the
/// caller-supplied bound with NaN (exercising the bound-sanitizing
/// layer in the octagon domain), Crash terminates the process
/// immediately via std::_Exit — no atexit handlers, no stream flushes —
/// emulating a SIGKILL for the crash-at-checkpoint resume tests.
///
/// Three further *lethal* kinds exist to prove the process-isolation
/// containment claim (runtime/supervisor.h) rather than assert it:
///   * Segv resets the SIGSEGV disposition and raises it raw — a
///     genuine signal death, even under sanitizers that would otherwise
///     intercept the fault and exit cleanly;
///   * Oom allocates and touches memory in an unbounded loop until
///     malloc fails (under the supervisor's RLIMIT_AS that is quick),
///     then dies the way unhandled allocation failure does (SIGABRT).
///     A 1 GiB self-cap keeps a thread-mode misuse from OOMing the
///     host;
///   * Hang spins without ever reaching a cancellation poll — the
///     failure mode the thread-mode watchdog can flag but not stop —
///     capped at ten minutes so a misconfigured run eventually frees
///     CI. Only the supervisor's hard wall-clock kill resolves it
///     promptly.
/// None of these can be contained by try/catch; inject them only under
/// --isolate=process (or in tests that expect the whole process down).
///
/// Hit counters are keyed by (rule, job name) and persist across retry
/// attempts, so a rule with hits=1 fails a job's first attempt and
/// lets the retry succeed — deterministically. A rule additionally
/// skips its first After matching visits: site=journal.append,
/// kind=crash,after=3 lets three checkpoints commit and kills the
/// process at the fourth.
///
/// Cost contract: with an empty plan, faultPoint() is one relaxed
/// atomic load and a predicted-not-taken branch.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SUPPORT_FAULTINJECT_H
#define OPTOCT_SUPPORT_FAULTINJECT_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace optoct::support {

enum class FaultKind {
  AllocFail,
  Slow,
  Timeout,
  PoisonBound,
  Crash,
  Segv, ///< raise(SIGSEGV) with the default disposition restored.
  Oom,  ///< Allocate-and-touch loop until the address-space limit kills.
  Hang, ///< Non-polling busy spin; immune to cooperative cancellation.
};

/// True for kinds that take the whole process down (or wedge it) and
/// therefore can only be contained by process isolation.
inline bool faultKindLethal(FaultKind K) {
  return K == FaultKind::Crash || K == FaultKind::Segv ||
         K == FaultKind::Oom || K == FaultKind::Hang;
}

/// Exit code of a Crash fault, distinct from the CLIs' error exits so
/// the resume tests can assert the death was the injected one.
constexpr int FaultCrashExitCode = 42;

/// One injection rule. A site visit triggers the rule when the site
/// matches, the job-name filter matches, the seeded coin for
/// (seed, site, job) comes up, and fewer than Hits triggers have been
/// recorded for this (rule, job) pair so far.
struct FaultRule {
  std::string Site;       ///< Exact site name ("engine.visit", ...).
  std::string JobPattern; ///< Substring of the job name; empty = all.
  FaultKind Kind = FaultKind::AllocFail;
  unsigned Hits = 1;      ///< Triggers before the rule burns out (per job).
  unsigned After = 0;     ///< Matching visits skipped before the first
                          ///< trigger (per job) — "crash at the Nth".
  unsigned SlowMs = 50;   ///< Sleep duration for Slow.
  double Probability = 1.0; ///< Seed-hashed per-(site,job) gate.
};

/// Process-wide injection plan. Configure before analysis threads run;
/// clear() between test cases. Trigger bookkeeping is internally
/// locked (fault injection is a test facility; the lock is only taken
/// when the plan is non-empty).
class FaultPlan {
public:
  static FaultPlan &global();

  void clear();                    ///< Drop all rules and counters; disarm.
  void setSeed(std::uint64_t S);   ///< Seed for the probability gates.
  void addRule(FaultRule Rule);

  /// Parses "site=<s>,kind=<alloc|slow|timeout|poison|crash|segv|oom|
  /// hang>[,job=<substr>][,hits=<n>][,after=<n>][,ms=<n>][,prob=<p>]"
  /// (the CLI --inject syntax). Returns false with \p Error set on a
  /// malformed spec.
  bool parseRule(const std::string &Spec, std::string &Error);

  /// Forgets which triggers have fired but keeps the rules — used to
  /// replay one plan against several equivalent runs (e.g. the
  /// serial-vs-parallel determinism oracle).
  void resetCounters();

  /// Process-isolation retry support. Thread-mode retries see one
  /// monotonic per-(rule, job) hit counter, so a hits=1 rule fails the
  /// first attempt and lets the retry pass. A job retried on a *fresh
  /// worker process* would restart those counters at zero and a lethal
  /// rule would re-fire forever. Before rerunning attempt k+1, the
  /// worker calls this with k: every *lethal* rule (faultKindLethal)
  /// matching \p Job has its counter raised to at least
  /// After + min(k, Hits) — the visit count the rule had reached when
  /// it killed the k-th attempt — as if the dead attempts' visits had
  /// happened in this process.
  /// Non-lethal rules keep their honest in-process counts (they cannot
  /// have killed the previous worker).
  void notePriorLethalAttempts(const std::string &Job, unsigned PriorAttempts);

private:
  friend void faultPointSlow(const char *Site, double *Bound);
  FaultPlan() = default;
  struct State;
  State &state();
};

namespace detail {
/// True iff the global plan has at least one rule.
extern std::atomic<bool> FaultsArmed;
/// The calling thread's current job name (nullptr outside a job).
/// constinit inline for the same reason as budget.h's TlsToken: every
/// TU sees the constant initializer, so accesses compile to direct TLS
/// loads with no _ZTW wrapper (whose returned address GCC's UBSan
/// falsely flags as null at -O2).
constinit inline thread_local const char *FaultJobName = nullptr;
} // namespace detail

/// RAII: names the batch job running on this thread so rules with a
/// job filter (and the per-job hit counters) can key on it.
class FaultJobScope {
public:
  explicit FaultJobScope(const char *JobName) : Prev(detail::FaultJobName) {
    detail::FaultJobName = JobName;
  }
  ~FaultJobScope() { detail::FaultJobName = Prev; }
  FaultJobScope(const FaultJobScope &) = delete;
  FaultJobScope &operator=(const FaultJobScope &) = delete;

private:
  const char *Prev;
};

/// Slow path: consults the plan and applies any triggered fault.
void faultPointSlow(const char *Site, double *Bound);

/// Injection point. \p Bound, when given, is the target of PoisonBound
/// rules at this site.
inline void faultPoint(const char *Site, double *Bound = nullptr) {
  if (detail::FaultsArmed.load(std::memory_order_relaxed))
    faultPointSlow(Site, Bound);
}

} // namespace optoct::support

#endif // OPTOCT_SUPPORT_FAULTINJECT_H
