//===- runtime/shard.h - Sharded multi-node batch coordinator ---*- C++ -*-===//
///
/// \file
/// Level 4 of the recovery ladder: a coordinator that shards a batch
/// across several worker-*node* processes and survives losing any of
/// them — including itself. Where Level 3 (runtime/supervisor.h)
/// isolates one job per forked worker, Level 4 isolates whole job
/// *shards* per forked node, each node durably journaling its own
/// completions; losing a node loses at most its in-flight job's wall
/// time, never its finished work.
///
/// Architecture (fork-no-exec, like the supervisor — nodes inherit the
/// job vector, so control frames carry indices, never sources):
///
///   coordinator (the runShardedBatch caller's thread)
///     ├─ ctrl pipe ─► node 0 ─► heartbeat pipe ─┐      journal.node0
///     ├─ ctrl pipe ─► node 1 ─► heartbeat pipe ─┼─► poll(2) loop
///     └─ ctrl pipe ─► node N ─► heartbeat pipe ─┘      journal.nodeN
///
/// The node processes are a ChildPool (runtime/child_pool.h), the same
/// primitive under the supervisor's and the daemon's workers: it owns
/// spawning, draining, killing, reaping and retiring them, and names a
/// death by the coordinator's recorded kill reason (lease expiry, a
/// broken pipe) instead of guessing at the kernel. The coordinator keeps
/// the lease policy. Nodes are unfenced (no RLIMIT_AS, no recycling), so
/// runShardedBatch rejects BatchOptions::MaxRssMb, RecycleAfter and
/// process isolation instead of ignoring them.
///
/// Lease protocol. The coordinator chunks pending jobs into shards and
/// grants each as a *lease* (id + duration) over the checksummed IPC
/// frames (runtime/ipc.h). A node heartbeats on every job boundary
/// (Start before, Done after the record is fsync'd, Drained when its
/// queue empties); every heartbeat renews the lease. A lease whose
/// heartbeats stop — node crashed, OOM-killed, or wedged — expires; the
/// coordinator SIGKILLs the corpse (guaranteeing a single writer per
/// node journal) and re-leases the incomplete jobs to another node.
/// The Start heartbeat names the in-flight suspect: on a node death it
/// alone is re-leased in an isolated single-job shard (and alone burns
/// a release attempt), so one poison job cannot drag its shard-mates
/// over the release cap. A suspect exceeding ShardOptions::MaxJobReleases
/// is declared *lost* — unrecoverable shard loss, the CLI's exit 4 —
/// and deliberately not journaled, so a later resume retries it.
///
/// Work stealing. A node that drains its queue while another still has
/// a deep one gets the back half of the deepest queue: the coordinator
/// Trims those indices off the victim's lease and grants them as a new
/// lease to the idle node. The trim can race the victim (both may run
/// a stolen job); duplicate completions are expected and resolved at
/// merge time.
///
/// Merge. Results never ride the pipes: each node appends to its own
/// fsync'd journal (runtime/journal.h, same format and fingerprint as
/// the single-node journal), and the coordinator assembles the final
/// report by *merging the journals* — every run exercises the same
/// path a crash recovery does. Duplicate records for one job are
/// deduplicated deterministically by journal record checksum (lowest
/// FNV-64 wins; ties keep the first in sorted journal order), journals
/// with torn tails salvage their valid prefix, and a journal whose
/// fingerprint differs from the batch's refuses the merge. Canonical
/// JSON (reportToJson) omits every timing- and placement-dependent
/// field, so the merged report is byte-identical to a single-node run
/// of the same job set — even after killing nodes mid-run, and even
/// after SIGKILLing the coordinator itself and resuming from the
/// surviving journals (BatchOptions::Resume).
///
/// The single-node path pays nothing for any of this: runBatch never
/// constructs a coordinator, and no node process exists unless
/// runShardedBatch is called (the CLI's --nodes flag).
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_RUNTIME_SHARD_H
#define OPTOCT_RUNTIME_SHARD_H

#include "runtime/batch.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace optoct::runtime {

/// Coordinator knobs. Timing knobs (lease duration, poll period) are
/// excluded from the job-set fingerprint, like worker counts: journals
/// written under any lease timing resume under any other.
struct ShardOptions {
  /// Worker-node processes (slots). At least 1.
  unsigned Nodes = 2;
  /// Jobs per lease; 0 picks max(1, pending / (4 * Nodes)) so every
  /// node sees several leases per batch and stealing has texture.
  unsigned ShardSize = 0;
  /// Lease duration. Renewed by every heartbeat, and nodes heartbeat on
  /// each job boundary, so this must exceed the longest single job (arm
  /// BatchOptions::Budget.DeadlineMs to bound that); a node silent for
  /// LeaseMs is presumed dead and its lease is revoked.
  std::uint64_t LeaseMs = 10000;
  /// Times one job may be re-leased after killing (or being in flight
  /// during the death of) its node before it is declared lost.
  unsigned MaxJobReleases = 5;
  /// Grant a drained node's next lease by stealing from the deepest
  /// still-working node when no unleased shard remains.
  bool WorkSteal = true;
};

/// "<prefix>.node<slot>" — one journal per node slot. A respawned node
/// reuses its slot's journal (resuming its valid prefix), so a slot has
/// exactly one writer at a time.
std::string shardNodeJournalPath(const std::string &Prefix, unsigned Slot);

/// Every existing "<prefix>.node<k>" journal, sorted by slot. Scans the
/// prefix's directory, so it finds journals from a previous run with a
/// different node count (resume does not require matching --nodes).
std::vector<std::string> listShardJournals(const std::string &Prefix);

/// Outcome of merging per-node journals into one result set.
struct ShardMergeResult {
  /// Deduplicated records, sorted by job index (one entry per index).
  std::vector<std::pair<std::size_t, JobResult>> Results;
  unsigned JournalsMerged = 0;
  unsigned JournalsSkipped = 0;      ///< Unreadable / bad-magic journals.
  unsigned DuplicatesDiscarded = 0;  ///< Extra records for a job dropped
                                     ///< by the checksum dedup rule.
  bool TornTails = false;            ///< Some journal salvaged a prefix.
  /// Non-empty = merge refused: a readable journal carries a different
  /// job-set fingerprint (cross-batch merge) or job count.
  std::string Error;
};

/// Merges the journals at \p Paths for the batch identified by
/// \p Fingerprint / \p JobCount. Dedup rule (deterministic given the
/// journal bytes): for each job index, keep the record whose serialized
/// body has the lowest fnv1a64, ties resolved by \p Paths order then
/// record order. Salvages torn tails; refuses fingerprint mismatches.
ShardMergeResult
mergeShardJournals(const std::vector<std::string> &Paths,
                   std::uint64_t Fingerprint, std::size_t JobCount);

/// Runs \p Jobs sharded across Shard.Nodes forked node processes and
/// merges their journals into one report (byte-identical to runBatch's
/// in canonical JSON). Per-job execution semantics (engine options,
/// budgets, retries, audit) come from \p Opts, and so do the journal
/// knobs: per-node journals land at "<Opts.JournalPath>.node<slot>"
/// (empty = a private temp prefix, deleted after the run), and
/// Opts.Resume first merges every existing "<prefix>.node*" journal and
/// runs only the jobs missing from it — the coordinator-crash recovery
/// path. Opts.Jobs is ignored (Shard.Nodes is the parallelism).
/// Throws std::invalid_argument, before forking anything, for Resume
/// without a JournalPath and for the per-job process fences nodes do
/// not have (IsolationMode::Process, MaxRssMb, RecycleAfter).
/// Throws std::runtime_error if no node can ever be forked, on journal
/// I/O setup failure, or on a resume fingerprint mismatch. Node deaths,
/// expired leases, and duplicate completions are the business being
/// handled, not errors; jobs lost past the release cap are reported via
/// BatchReport::Shard.JobsLost with synthesized Crashed results.
BatchReport runShardedBatch(const std::vector<BatchJob> &Jobs,
                            const BatchOptions &Opts,
                            const ShardOptions &Shard);

} // namespace optoct::runtime

#endif // OPTOCT_RUNTIME_SHARD_H
