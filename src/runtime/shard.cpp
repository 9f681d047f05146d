//===- runtime/shard.cpp - Sharded multi-node batch coordinator -----------===//

#include "runtime/shard.h"

#include "runtime/child_pool.h"
#include "runtime/ipc.h"
#include "runtime/journal.h"
#include "support/faultinject.h"
#include "support/fnv.h"
#include "support/timing.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <stdexcept>

#include <dirent.h>
#include <poll.h>
#include <unistd.h>

using namespace optoct;
using namespace optoct::runtime;

namespace {

using Clock = std::chrono::steady_clock;

/// Node self-exit when its own journal cannot be opened or appended —
/// a node without durability is useless, and dying loudly converts the
/// condition into the coordinator's well-trodden death path.
constexpr int NodeJournalExitCode = 48;

/// The whole life of a worker node: open (or resume) the slot journal,
/// then loop — block for a lease, run its jobs in queue order with a
/// heartbeat on every job boundary, journal each result before its Done
/// heartbeat, announce Drained, repeat. Exits only via _Exit (no atexit
/// handlers, no stdio flushing duplicated by fork).
[[noreturn]] void shardNodeMain(int CtrlFd, int HbFd,
                                const std::string &JournalPath,
                                std::uint64_t Fingerprint,
                                const std::vector<BatchJob> &Jobs,
                                BatchOptions Opts) {
  // Coordinator-side concerns never run in a node: the node's journal
  // is the slot journal, and isolation tiers do not nest.
  Opts.JournalPath.clear();
  Opts.Resume = false;
  Opts.Isolation = IsolationMode::Thread;

  // Same audit arming a single-node runBatch does, so per-job audit
  // counters land identically in the journaled records.
  std::optional<support::AuditConfigScope> AuditScope;
  if (Opts.Audit.Enabled)
    AuditScope.emplace(Opts.Audit);

  // A respawned node inherits its dead predecessor's slot journal:
  // resume the valid prefix (the predecessor fsync'd every record) so a
  // slot accumulates one journal across any number of respawns.
  JournalWriter Journal;
  {
    JournalLoad Load = loadJournal(JournalPath);
    std::string Err;
    bool Opened =
        (Load.Error.empty() && Load.HeaderOk &&
         Load.Fingerprint == Fingerprint && Load.JobCount == Jobs.size())
            ? Journal.openResume(JournalPath, Load.ValidBytes, Err)
            : Journal.open(JournalPath, Fingerprint, Jobs.size(), Err);
    if (!Opened)
      std::_Exit(NodeJournalExitCode);
  }

  std::uint64_t CurLease = 0;
  std::deque<ipc::LeasedJob> Queue;

  // Applies every control frame already sitting in the pipe (stolen-job
  // trims land here between jobs). Returns false on coordinator EOF.
  auto DrainControl = [&]() -> bool {
    for (;;) {
      struct pollfd P = {CtrlFd, POLLIN, 0};
      int N = ::poll(&P, 1, 0);
      if (N <= 0 || (P.revents & (POLLIN | POLLHUP)) == 0)
        return true;
      ipc::MsgType Type{};
      std::string Body;
      ipc::ReadStatus RS = ipc::readFrame(CtrlFd, Type, Body);
      if (RS == ipc::ReadStatus::Eof)
        return false;
      if (RS != ipc::ReadStatus::Ok || Type != ipc::MsgType::Trim)
        std::_Exit(WorkerProtocolExitCode);
      std::uint64_t TrimLease = 0;
      std::vector<std::size_t> Drop;
      if (!ipc::decodeTrim(Body, TrimLease, Drop))
        std::_Exit(WorkerProtocolExitCode);
      if (TrimLease != CurLease)
        continue; // stale trim for a lease this node no longer holds
      for (std::size_t Idx : Drop)
        Queue.erase(std::remove_if(Queue.begin(), Queue.end(),
                                   [Idx](const ipc::LeasedJob &J) {
                                     return J.Index == Idx;
                                   }),
                    Queue.end());
    }
  };

  auto Beat = [&](ipc::HeartbeatKind Kind, std::size_t Index) {
    if (!ipc::writeFrame(HbFd, ipc::MsgType::Heartbeat,
                         ipc::encodeHeartbeat(CurLease, Kind, Index))) {
      Journal.close();
      std::_Exit(0); // coordinator gone; finished work is journaled
    }
  };

  for (;;) {
    ipc::MsgType Type{};
    std::string Body;
    ipc::ReadStatus RS = ipc::readFrame(CtrlFd, Type, Body);
    if (RS == ipc::ReadStatus::Eof) {
      Journal.close();
      std::_Exit(0); // coordinator closed the control pipe: batch over
    }
    if (RS != ipc::ReadStatus::Ok)
      std::_Exit(WorkerProtocolExitCode);
    if (Type == ipc::MsgType::Trim)
      continue; // stale trim that raced the previous lease's drain
    if (Type != ipc::MsgType::Lease)
      std::_Exit(WorkerProtocolExitCode);

    std::uint64_t LeaseMs = 0;
    std::vector<ipc::LeasedJob> Leased;
    if (!ipc::decodeLease(Body, CurLease, LeaseMs, Leased))
      std::_Exit(WorkerProtocolExitCode);
    Queue.assign(Leased.begin(), Leased.end());

    while (true) {
      if (!DrainControl()) {
        Journal.close();
        std::_Exit(0);
      }
      if (Queue.empty())
        break;
      ipc::LeasedJob J = Queue.front();
      Queue.pop_front();
      if (J.Index >= Jobs.size())
        std::_Exit(WorkerProtocolExitCode);
      // Start heartbeat first: it renews the lease and names this job
      // as the in-flight suspect should the node die under it.
      Beat(ipc::HeartbeatKind::Start, J.Index);
      // A re-leased job reruns here with fresh fault counters; replay
      // the prior lethal attempts so burned-out injection rules stay
      // burned out (same contract as a Level 3 retry).
      if (J.Attempt > 1)
        support::FaultPlan::global().notePriorLethalAttempts(
            Jobs[J.Index].Name, J.Attempt - 1);
      // Full single-node per-job semantics (retry loop included), so
      // the journaled record is byte-identical to what runBatch's
      // thread mode would have produced for this job.
      JobResult R = runJob(Jobs[J.Index], Opts);
      if (!Journal.append(J.Index, R))
        std::_Exit(NodeJournalExitCode);
      Beat(ipc::HeartbeatKind::Done, J.Index);
    }
    Beat(ipc::HeartbeatKind::Drained, 0);
  }
}

struct Node {
  Child Proc; ///< Control frames in, heartbeat frames out.
  unsigned Slot = 0;
  std::uint64_t LeaseId = 0; ///< 0 = idle.
  Clock::time_point Expiry{};
  /// Leased jobs without a Done heartbeat yet, in lease/queue order.
  std::vector<std::size_t> Outstanding;
  bool HasSuspect = false; ///< A Start heartbeat names the job in
  std::size_t Suspect = 0; ///< flight when the node dies.
};

class Coordinator {
public:
  Coordinator(const std::vector<BatchJob> &Jobs, const BatchOptions &Opts,
              const ShardOptions &Shard, const std::string &Prefix,
              std::uint64_t Fingerprint, std::vector<char> &DoneFlag,
              std::vector<JobResult> &Results, ShardStats &Stats)
      : Jobs(Jobs), Opts(Opts), Shard(Shard), Prefix(Prefix),
        Fingerprint(Fingerprint), DoneFlag(DoneFlag), Results(Results),
        Stats(Stats), Releases(Jobs.size(), 0), Lost(Jobs.size(), 0) {
    std::vector<std::size_t> Pending;
    for (std::size_t I = 0; I != Jobs.size(); ++I)
      if (!DoneFlag[I])
        Pending.push_back(I);
    Remaining = Pending.size();
    unsigned Slots = std::max(1u, Shard.Nodes);
    std::size_t Size =
        Shard.ShardSize != 0
            ? Shard.ShardSize
            : std::max<std::size_t>(1, Pending.size() / (4 * Slots));
    for (std::size_t At = 0; At < Pending.size(); At += Size)
      ShardQueue.emplace_back(
          Pending.begin() + At,
          Pending.begin() + std::min(At + Size, Pending.size()));
    // One node per pending job at most — but not capped by the shard
    // count: extra nodes start idle and immediately steal, which is the
    // intended texture when ShardSize is large.
    Target = static_cast<unsigned>(
        std::min<std::size_t>(Slots, std::max<std::size_t>(1, Remaining)));
    MaxReleases = std::max(1u, Shard.MaxJobReleases);
    PollMs = std::max(1u, Shard.PollMs);
    LeaseDur = std::chrono::milliseconds(std::max<std::uint64_t>(1, Shard.LeaseMs));
  }

  const std::vector<char> &lostFlags() const { return Lost; }

  void run() {
    while (Remaining != 0) {
      topUp();
      if (Members.empty() && Stats.NodesSpawned == 0)
        throw std::runtime_error("shard coordinator: cannot fork any node: " +
                                 std::string(std::strerror(errno)));
      if (Members.empty()) {
        failRemaining("shard coordinator: cannot respawn nodes: " +
                      std::string(std::strerror(errno)));
        break;
      }
      assignLeases();
      maybeSteal();
      Pool.pollRound(
          Members, PollMs,
          [this](Node &N, ipc::MsgType Type, const std::string &Body) {
            handleHeartbeat(N, Type, Body);
          },
          [this](const Node &N, const ChildExit &Exit) { onExit(N, Exit); });
      expiryScan();
    }
    // Closing the control pipes is the retirement signal: nodes see EOF
    // and _Exit(0) with their journals closed. All completed work is
    // already fsync'd, so nothing can be lost to the SIGKILL backstop.
    Pool.retire();
    Members.clear();
  }

private:
  void topUp() {
    std::size_t Want =
        std::min<std::size_t>(Target, std::max<std::size_t>(1, Remaining));
    Pool.topUp(Want, [this] {
      unsigned Slot = freeSlot();
      Members.emplace_back();
      Members.back().Slot = Slot;
      auto Main = [&](int In, int Out) {
        shardNodeMain(In, Out, shardNodeJournalPath(Prefix, Slot),
                      Fingerprint, Jobs, Opts);
      };
      if (!Pool.spawn(Members.back().Proc, Main)) {
        Members.pop_back();
        return false;
      }
      ++Stats.NodesSpawned;
      return true;
    });
  }

  unsigned freeSlot() const {
    // Reuse the lowest slot no live node holds, so a respawn resumes
    // its predecessor's journal (exactly one live writer per slot).
    for (unsigned S = 0;; ++S) {
      bool Taken = false;
      for (const Node &N : Members)
        Taken = Taken || N.Slot == S;
      if (!Taken)
        return S;
    }
  }

  // --- Leasing and stealing -------------------------------------------------

  void assignLeases() {
    for (Node &N : Members) {
      if (N.Proc.killed() || N.LeaseId != 0)
        continue;
      while (!ShardQueue.empty()) {
        std::vector<std::size_t> Chunk = std::move(ShardQueue.front());
        ShardQueue.pop_front();
        // A queued job can complete meanwhile (a trim raced the victim,
        // which ran it anyway); don't re-lease finished work.
        Chunk.erase(std::remove_if(Chunk.begin(), Chunk.end(),
                                   [this](std::size_t I) {
                                     return DoneFlag[I] != 0;
                                   }),
                    Chunk.end());
        if (Chunk.empty())
          continue;
        std::vector<ipc::LeasedJob> Leased;
        Leased.reserve(Chunk.size());
        for (std::size_t I : Chunk)
          Leased.push_back({I, Releases[I] + 1});
        std::uint64_t Id = ++NextLease;
        if (!ipc::writeFrame(N.Proc.ToFd, ipc::MsgType::Lease,
                             ipc::encodeLease(Id, Shard.LeaseMs, Leased))) {
          // Node is dead or dying; requeue and let the EOF path reap.
          ShardQueue.push_front(std::move(Chunk));
          Pool.kill(N.Proc, "control pipe write failed");
          break;
        }
        N.LeaseId = Id;
        N.Expiry = Clock::now() + LeaseDur;
        N.Outstanding = std::move(Chunk);
        N.HasSuspect = false;
        ++Stats.LeasesGranted;
        break;
      }
    }
  }

  void maybeSteal() {
    if (!Shard.WorkSteal || !ShardQueue.empty())
      return;
    bool IdleExists = false;
    for (const Node &N : Members)
      IdleExists = IdleExists || (!N.Proc.killed() && N.LeaseId == 0);
    if (!IdleExists)
      return;
    // Victim: the busy node with the deepest queue of not-yet-started
    // jobs (the in-flight suspect is never stealable).
    Node *Victim = nullptr;
    std::size_t Best = 1; // need >= 2 stealable to leave the victim one
    for (Node &N : Members) {
      if (N.Proc.killed() || N.LeaseId == 0)
        continue;
      std::size_t Stealable = N.Outstanding.size() -
                              (N.HasSuspect ? 1 : 0);
      if (Stealable > Best) {
        Best = Stealable;
        Victim = &N;
      }
    }
    if (!Victim)
      return;
    // Take the back half of the victim's queue — the jobs it would
    // reach last — and trim them off its lease. The trim can race jobs
    // the victim already started; the journal-merge dedup absorbs any
    // duplicate completion deterministically.
    std::vector<std::size_t> Queued;
    for (std::size_t I : Victim->Outstanding)
      if (!(Victim->HasSuspect && I == Victim->Suspect))
        Queued.push_back(I);
    std::vector<std::size_t> Steal(Queued.end() - Queued.size() / 2,
                                   Queued.end());
    if (Steal.empty())
      return;
    for (std::size_t I : Steal)
      Victim->Outstanding.erase(std::remove(Victim->Outstanding.begin(),
                                            Victim->Outstanding.end(), I),
                                Victim->Outstanding.end());
    // If the victim is dead the stolen jobs are queued anyway, and its
    // reap re-leases the rest.
    if (!ipc::writeFrame(Victim->Proc.ToFd, ipc::MsgType::Trim,
                         ipc::encodeTrim(Victim->LeaseId, Steal)))
      Pool.kill(Victim->Proc, "control pipe write failed");
    Stats.JobsStolen += static_cast<unsigned>(Steal.size());
    ShardQueue.push_back(std::move(Steal));
  }

  // --- Heartbeats, deaths and expiry ---------------------------------------

  void handleHeartbeat(Node &N, ipc::MsgType Type, const std::string &Body) {
    std::uint64_t Lease = 0;
    ipc::HeartbeatKind Kind{};
    std::size_t Idx = 0;
    if (Type != ipc::MsgType::Heartbeat ||
        !ipc::decodeHeartbeat(Body, Lease, Kind, Idx)) {
      Pool.kill(N.Proc, "heartbeat protocol violation");
      return;
    }
    if (Lease != N.LeaseId)
      return; // heartbeat for a revoked lease: the sender lost it
    N.Expiry = Clock::now() + LeaseDur;
    switch (Kind) {
    case ipc::HeartbeatKind::Start:
      N.HasSuspect = true;
      N.Suspect = Idx;
      break;
    case ipc::HeartbeatKind::Done:
      N.HasSuspect = false;
      N.Outstanding.erase(std::remove(N.Outstanding.begin(),
                                      N.Outstanding.end(), Idx),
                          N.Outstanding.end());
      if (Idx < DoneFlag.size() && !DoneFlag[Idx]) {
        DoneFlag[Idx] = 1;
        --Remaining;
      }
      break;
    case ipc::HeartbeatKind::Drained:
      // Anything still listed was trimmed away (and is already queued
      // elsewhere); this lease is spent.
      N.LeaseId = 0;
      N.HasSuspect = false;
      N.Outstanding.clear();
      break;
    }
  }

  /// A node died (the pool has reaped it): re-lease what it still owed.
  void onExit(const Node &N, const ChildExit &Exit) {
    ++Stats.NodesDied;
    if (N.LeaseId != 0) {
      std::vector<std::size_t> Incomplete;
      for (std::size_t I : N.Outstanding)
        if (!DoneFlag[I])
          Incomplete.push_back(I);
      std::string Death = "node slot " + std::to_string(N.Slot) + " (pid " +
                          std::to_string(Exit.Pid) + ") " + Exit.What;
      if (N.HasSuspect) {
        // Exactly one job was in flight (Start with no Done): it alone
        // burns a release attempt and is quarantined in its own
        // single-job shard, so a poison job cannot repeatedly drag its
        // shard-mates down with it.
        std::size_t S = N.Suspect;
        Incomplete.erase(std::remove(Incomplete.begin(), Incomplete.end(), S),
                         Incomplete.end());
        if (S < DoneFlag.size() && !DoneFlag[S]) {
          unsigned R = ++Releases[S];
          if (R >= MaxReleases)
            loseJob(S, "unrecoverable shard loss: job was in flight for " +
                           std::to_string(R) + " node deaths (release cap " +
                           std::to_string(MaxReleases) + "); last: " + Death);
          else {
            ShardQueue.push_front({S});
            ++Stats.Releases;
          }
        }
      } else if (++SuspectlessDeaths > std::max(8u, 2 * Target)) {
        // Nodes keep dying before their first job starts: the
        // environment, not a job, is at fault. Stop thrashing.
        failRemaining("unrecoverable shard loss: nodes died " +
                      std::to_string(SuspectlessDeaths) +
                      " times before starting any job; last: " + Death);
      }
      if (!Incomplete.empty()) {
        Stats.Releases += static_cast<unsigned>(Incomplete.size());
        ShardQueue.push_back(std::move(Incomplete));
      }
    }
  }

  void expiryScan() {
    Clock::time_point Now = Clock::now();
    for (Node &N : Members) {
      if (N.Proc.killed() || N.LeaseId == 0 || Now < N.Expiry)
        continue;
      // No heartbeat for a whole lease: the node is dead or wedged.
      // SIGKILL before re-leasing keeps the slot journal single-writer;
      // the EOF lands at the next poll and the reap path re-leases.
      ++Stats.LeasesExpired;
      Pool.kill(N.Proc, "lease expired: no heartbeat for " +
                            std::to_string(LeaseDur.count()) + " ms");
    }
  }

  // --- Loss accounting ------------------------------------------------------

  void loseJob(std::size_t Idx, const std::string &Why) {
    if (DoneFlag[Idx])
      return;
    JobResult R;
    R.Name = Jobs[Idx].Name;
    R.Status = JobStatus::Crashed;
    R.Error = Why;
    R.Attempts = std::max(1u, Releases[Idx]);
    Results[Idx] = std::move(R);
    // Deliberately *not* journaled: a resume must retry a lost job, not
    // replay the loss verdict.
    Lost[Idx] = 1;
    DoneFlag[Idx] = 1;
    ++Stats.JobsLost;
    --Remaining;
  }

  void failRemaining(const std::string &Why) {
    ShardQueue.clear();
    for (std::size_t I = 0; I != DoneFlag.size(); ++I)
      if (!DoneFlag[I])
        loseJob(I, Why);
  }

  const std::vector<BatchJob> &Jobs;
  const BatchOptions &Opts;
  const ShardOptions &Shard;
  const std::string &Prefix;
  std::uint64_t Fingerprint;
  std::vector<char> &DoneFlag;
  std::vector<JobResult> &Results;
  ShardStats &Stats;

  std::vector<unsigned> Releases; ///< Node deaths charged to this job.
  std::vector<char> Lost;
  std::deque<std::vector<std::size_t>> ShardQueue;
  ChildPool Pool; ///< Unfenced: a node runs whole shards, not one job.
  std::list<Node> Members;
  std::size_t Remaining = 0;
  std::uint64_t NextLease = 0;
  unsigned SuspectlessDeaths = 0;
  unsigned Target = 1;
  unsigned MaxReleases = 5;
  unsigned PollMs = 20;
  std::chrono::milliseconds LeaseDur{10000};
};

/// Splits a journal prefix into (directory, basename).
void splitPrefix(const std::string &Prefix, std::string &Dir,
                 std::string &Base) {
  std::size_t Slash = Prefix.find_last_of('/');
  if (Slash == std::string::npos) {
    Dir = ".";
    Base = Prefix;
  } else {
    Dir = Slash == 0 ? "/" : Prefix.substr(0, Slash);
    Base = Prefix.substr(Slash + 1);
  }
}

} // namespace

std::string optoct::runtime::shardNodeJournalPath(const std::string &Prefix,
                                                  unsigned Slot) {
  return Prefix + ".node" + std::to_string(Slot);
}

std::vector<std::string>
optoct::runtime::listShardJournals(const std::string &Prefix) {
  std::string Dir, Base;
  splitPrefix(Prefix, Dir, Base);
  std::string Want = Base + ".node";
  std::vector<std::pair<unsigned long, std::string>> Found;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (struct dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() <= Want.size() || Name.compare(0, Want.size(), Want) != 0)
        continue;
      std::string Suffix = Name.substr(Want.size());
      if (Suffix.find_first_not_of("0123456789") != std::string::npos)
        continue;
      Found.emplace_back(std::strtoul(Suffix.c_str(), nullptr, 10),
                         Dir + "/" + Name);
    }
    ::closedir(D);
  }
  std::sort(Found.begin(), Found.end());
  std::vector<std::string> Paths;
  for (auto &F : Found)
    Paths.push_back(std::move(F.second));
  return Paths;
}

ShardMergeResult
optoct::runtime::mergeShardJournals(const std::vector<std::string> &Paths,
                                    std::uint64_t Fingerprint,
                                    std::size_t JobCount) {
  ShardMergeResult M;
  struct Candidate {
    std::uint64_t Sum;
    JobResult R;
  };
  std::map<std::size_t, Candidate> Best;
  for (const std::string &Path : Paths) {
    JournalLoad Load = loadJournal(Path);
    if (!Load.Error.empty()) {
      // Unreadable or not a journal at all: a node may have died before
      // writing its header. Its completed work, if any, never existed.
      ++M.JournalsSkipped;
      continue;
    }
    if (Load.Fingerprint != Fingerprint || Load.JobCount != JobCount) {
      M.Error = "journal " + Path +
                ": job-set fingerprint mismatch — it belongs to a "
                "different batch (refusing cross-batch merge)";
      M.Results.clear();
      return M;
    }
    M.TornTails = M.TornTails || Load.TailCorrupt;
    ++M.JournalsMerged;
    for (auto &Rec : Load.Records) {
      if (Rec.first >= JobCount)
        continue; // checksummed, but still untrusted after a crash
      // Dedup rule: lowest record checksum wins, ties keep the earlier
      // record in path order. Deterministic given the journal bytes —
      // every coordinator (or resume) merging these journals picks the
      // same record, which is what makes the canonical report stable
      // across re-lease duplicates.
      std::uint64_t Sum = support::fnv1a64(serializeJobResult(Rec.second));
      auto It = Best.find(Rec.first);
      if (It == Best.end()) {
        Best.emplace(Rec.first, Candidate{Sum, std::move(Rec.second)});
      } else {
        ++M.DuplicatesDiscarded;
        if (Sum < It->second.Sum)
          It->second = Candidate{Sum, std::move(Rec.second)};
      }
    }
  }
  for (auto &B : Best)
    M.Results.emplace_back(B.first, std::move(B.second.R));
  return M;
}

BatchReport optoct::runtime::runShardedBatch(const std::vector<BatchJob> &Jobs,
                                             const BatchOptions &Opts,
                                             const ShardOptions &Shard) {
  if (Opts.Resume && Opts.JournalPath.empty())
    throw std::invalid_argument("resume requires a journal path");
  if (Opts.Isolation == IsolationMode::Process || Opts.MaxRssMb != 0 ||
      Opts.RecycleAfter != 0)
    throw std::invalid_argument(
        "sharded runs isolate jobs in unfenced node processes; process "
        "isolation, a max RSS and worker recycling do not apply to them");
  BatchReport Report;
  Report.Results.resize(Jobs.size());
  Report.Workers = std::max(1u, Shard.Nodes);
  Report.Shard.Nodes = std::max(1u, Shard.Nodes);
  if (Jobs.empty())
    return Report;

  std::uint64_t Fp = jobSetFingerprint(Jobs, Opts);

  // Resolve the journal prefix; an empty one gets a private temp
  // directory torn down when the run ends (there is nothing durable to
  // resume in that case, but the merge path still runs for real).
  std::string Prefix = Opts.JournalPath;
  std::string TempDir;
  if (Prefix.empty()) {
    const char *T = ::getenv("TMPDIR");
    std::string Templ =
        std::string(T && *T ? T : "/tmp") + "/optoct-shard-XXXXXX";
    std::vector<char> Buf(Templ.begin(), Templ.end());
    Buf.push_back('\0');
    if (!::mkdtemp(Buf.data()))
      throw std::runtime_error(
          "shard coordinator: cannot create temp journal dir: " +
          std::string(std::strerror(errno)));
    TempDir = Buf.data();
    Prefix = TempDir + "/journal";
  }
  struct TempDirGuard {
    std::string Dir, Prefix;
    ~TempDirGuard() {
      if (Dir.empty())
        return;
      for (const std::string &P : listShardJournals(Prefix))
        ::unlink(P.c_str());
      ::rmdir(Dir.c_str());
    }
  } Guard{TempDir, Prefix};

  std::vector<char> Done(Jobs.size(), 0);
  if (Opts.Resume) {
    // Coordinator-crash recovery: merge whatever journals survive and
    // run only what's missing. Any fingerprint mismatch refuses the
    // whole resume — mixing batches would corrupt the report silently.
    ShardMergeResult M =
        mergeShardJournals(listShardJournals(Prefix), Fp, Jobs.size());
    if (!M.Error.empty())
      throw std::runtime_error("shard resume: " + M.Error);
    for (auto &Rec : M.Results) {
      Done[Rec.first] = 1;
      ++Report.JobsResumed;
    }
  } else {
    // A fresh run must not inherit stale journals (from a previous
    // batch at the same prefix, or more node slots than this run has).
    for (const std::string &P : listShardJournals(Prefix))
      ::unlink(P.c_str());
  }

  WallTimer Timer;
  Timer.start();
  std::size_t Pending = 0;
  for (char D : Done)
    Pending += D ? 0 : 1;
  std::vector<char> LostFlags(Jobs.size(), 0);
  if (Pending != 0) {
    Coordinator C(Jobs, Opts, Shard, Prefix, Fp, Done, Report.Results,
                  Report.Shard);
    C.run();
    LostFlags = C.lostFlags();
  }

  // The merge is the single source of truth for every non-lost result —
  // the same path a coordinator-crash resume takes, exercised on every
  // run. Records for jobs we synthesized a loss for are still preferred
  // if they exist (a "lost" job that actually journaled a record before
  // its node died is not lost at all).
  ShardMergeResult M =
      mergeShardJournals(listShardJournals(Prefix), Fp, Jobs.size());
  if (!M.Error.empty())
    throw std::runtime_error("shard merge: " + M.Error);
  Report.Shard.DuplicatesDiscarded += M.DuplicatesDiscarded;
  std::vector<char> HasRecord(Jobs.size(), 0);
  for (auto &Rec : M.Results) {
    if (LostFlags[Rec.first]) {
      LostFlags[Rec.first] = 0;
      --Report.Shard.JobsLost;
    }
    HasRecord[Rec.first] = 1;
    Report.Results[Rec.first] = std::move(Rec.second);
  }
  for (std::size_t I = 0; I != Jobs.size(); ++I) {
    if (HasRecord[I] || LostFlags[I])
      continue;
    // Done via heartbeat (or never finished at all) but no durable
    // record anywhere — e.g. a journal append failed on a full disk.
    JobResult R;
    R.Name = Jobs[I].Name;
    R.Status = JobStatus::Crashed;
    R.Error = "unrecoverable shard loss: no journal record for this job "
              "survived the run";
    R.Attempts = 1;
    Report.Results[I] = std::move(R);
    ++Report.Shard.JobsLost;
  }
  Timer.stop();
  Report.WallSeconds = Timer.seconds();
  tallyBatchReport(Report);
  return Report;
}
