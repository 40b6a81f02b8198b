// Replay engine (paper §4.3).
//
// Replays one interleaving at a time: resets the system under test to its
// initial state (or restores a shared-prefix snapshot), executes the events
// in the interleaving's order through the RDL proxy, then runs the
// configured assertions. Two execution modes:
//
//  * fast (default) — events are invoked in order on the calling thread; the
//    order is trivially enforced. This is what the benchmarks use.
//  * threaded — one worker thread per replica, with the global event order
//    enforced through a Redlock-style distributed mutex plus a turn counter
//    in the mini-Redis server, mirroring the paper's deployment across
//    machines. Used by tests/examples to validate the lock protocol.
//
// The run loop lives in sched::ParallelExplorer (src/sched/explorer.hpp): it
// pulls interleavings from an enumerator, gives each worker its own engine
// over an isolated subject fixture, and commits outcomes through
// commit_outcome below. It also models the paper's resource accounting: like
// the DMCK "server [that] keeps track of which interleavings have been
// explored", it charges every explored interleaving to one BudgetAccount;
// when the configured budget is exceeded the run "crashes" (Fig. 10's
// succeed-or-crash experiment).
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "core/assertions.hpp"
#include "core/enumerate.hpp"
#include "core/prefix_cache.hpp"
#include "kvstore/server.hpp"
#include "proxy/proxy.hpp"

namespace erpi::core {

class IndependenceLearner;  // core/dpor.hpp — dynamic-pruning relation
class FootprintRecorder;    // core/dpor.hpp — per-event footprint hook

/// Thread-safe ledger for the Fig. 10 resource budget. One account may be
/// shared by several threads (the explorer's workers): charges are
/// atomic and the crash verdict latches exactly once, so concurrent callers
/// agree on whether the run crashed.
class BudgetAccount {
 public:
  explicit BudgetAccount(uint64_t budget_bytes = UINT64_MAX) noexcept
      : budget_bytes_(budget_bytes) {}

  uint64_t budget_bytes() const noexcept { return budget_bytes_; }
  uint64_t charged_bytes() const noexcept {
    return charged_.load(std::memory_order_relaxed);
  }

  /// Atomically add `bytes` to the running total.
  void charge(uint64_t bytes) noexcept {
    charged_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// True when the running total plus `extra_bytes` exceeds the budget; the
  /// crash flag latches on first exceedance and stays set.
  bool crash_if_exceeded(uint64_t extra_bytes = 0) noexcept {
    if (charged_.load(std::memory_order_relaxed) + extra_bytes > budget_bytes_) {
      crashed_.store(true, std::memory_order_relaxed);
    }
    return crashed_.load(std::memory_order_relaxed);
  }

  bool crashed() const noexcept { return crashed_.load(std::memory_order_relaxed); }

  /// Non-latching admission-control reservation (the service daemon charges
  /// each accepted job's estimated footprint up front). Atomically adds
  /// `bytes` when the total would stay within budget and returns true;
  /// returns false — without touching the crash latch — when it would not.
  bool try_reserve(uint64_t bytes) noexcept {
    uint64_t current = charged_.load(std::memory_order_relaxed);
    for (;;) {
      if (current + bytes > budget_bytes_) return false;
      if (charged_.compare_exchange_weak(current, current + bytes,
                                         std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  /// Return a reservation made with try_reserve (job finished or rejected
  /// downstream). Saturates at zero rather than underflowing.
  void release(uint64_t bytes) noexcept {
    uint64_t current = charged_.load(std::memory_order_relaxed);
    for (;;) {
      const uint64_t next = current > bytes ? current - bytes : 0;
      if (charged_.compare_exchange_weak(current, next, std::memory_order_relaxed)) {
        return;
      }
    }
  }

 private:
  uint64_t budget_bytes_;
  std::atomic<uint64_t> charged_{0};
  std::atomic<bool> crashed_{false};
};

/// Bytes the explored-interleaving log grows by for one interleaving: one
/// key string per explored interleaving (the DMCK server's tracking entry).
inline uint64_t explored_log_entry_bytes(const Interleaving& il) noexcept {
  return il.order.size() * 3 + 48;
}

/// Builds a fresh subject-system fixture (replica set + simulated network).
/// The parallel scheduler calls it once per worker so workers never share
/// mutable subject state.
using SubjectFactory = std::function<std::unique_ptr<proxy::Rdl>()>;

/// Builds fresh assertion instances bound to `subject` (so observers like
/// the ResourceProfiler can attach to that fixture's network). Called once
/// per parallel worker; cross-interleaving assertions therefore compare
/// within one worker's shard only (see DESIGN.md "Parallel exploration").
using AssertionFactory = std::function<AssertionList(proxy::Rdl& subject)>;

/// Default snapshot retention for incremental prefix replay: enough to cover
/// every useful depth at the unit counts the experiments sweep (n <= 9 keeps
/// at most n-2 snapshots alive) while capping memory on deeper workloads.
inline constexpr size_t kDefaultMaxSnapshotDepth = 16;

/// Guided-exploration searcher strategies (DESIGN.md §12). A searcher ranks
/// the frontier of enumeration subtrees before replay; the *commit* order (and
/// with it explored counts, the violation floor and stop_on_violation
/// semantics) follows that rank deterministically at any worker count.
///
///  * LexOrder        — the enumerator's native stream order. With
///    SearchOptions::deterministic_order (the default) workers pull straight
///    from the enumerator stream, byte-identical to prior releases.
///  * RandomPath      — seeded pseudo-random subtree order (klee-style random
///    tree descent, collapsed to a deterministic priority). Same seed ⇒ same
///    order on every run and worker count.
///  * ViolationFirst  — subtrees whose prefixes sit closest to previously
///    violating interleavings go first. Priors come from
///    SearchOptions-independent channels: explicit Session::Config::
///    violation_priors and the outcome corpus's violation records (the
///    Datalog bridge's violation/4 relation). With no priors it degenerates
///    to lex order.
///  * CoverageWeighted — greedy max-new-coverage order over (context,
///    prefix-position, operation) features, so early replays spread across
///    untouched fault-plan × subject-operation pairs instead of grinding one
///    corner of the tree.
///  * Interleaved     — klee-mc style round-robin over several searchers
///    (SearchOptions::interleaved; defaults to ViolationFirst / RandomPath /
///    CoverageWeighted).
enum class SearchStrategy { LexOrder, RandomPath, ViolationFirst, CoverageWeighted, Interleaved };

const char* search_strategy_name(SearchStrategy strategy) noexcept;

/// Guided-exploration knobs (Session::Config::search, sched::ExplorerOptions).
struct SearchOptions {
  SearchStrategy strategy = SearchStrategy::LexOrder;
  /// Force lex (enumerator stream) commit order. Defaults on: LexOrder with
  /// deterministic_order pulls from the enumerator stream and its reports
  /// are byte-identical to prior releases. Clearing it routes even
  /// LexOrder through the subtree frontier + work stealing (same report
  /// fields; the budget is charged at generation instead of interleaved with
  /// replay — see DESIGN.md §12 for the exact parity limits).
  bool deterministic_order = true;
  /// RandomPath / Interleaved seed. Same seed + same searcher ⇒ identical
  /// ReplayReport at any parallelism and snapshot depth.
  uint64_t seed = 42;
  /// Interleaved constituents, in rotation order. Empty = the default trio
  /// {ViolationFirst, RandomPath, CoverageWeighted}.
  std::vector<SearchStrategy> interleaved;
  /// Frontier granularity: largest item count per subtree handle before the
  /// splitter recurses a level deeper. 0 = auto (≈ stream / 64 — a pure
  /// function of the stream, so the partition and every searcher ranking are
  /// identical at any worker count).
  size_t max_subtree_items = 0;

  /// True when these options route exploration through the guided frontier
  /// instead of the enumerator stream.
  bool guided() const noexcept {
    return strategy != SearchStrategy::LexOrder || !deterministic_order;
  }
};

/// Explorer scheduling telemetry (guided exploration, DESIGN.md §12): the
/// stream refill size, frontier shape, steal traffic and worker idle
/// time. Collected only when ExplorerOptions::collect_stats is set (timing
/// fields are wall-clock noise, so reports stay byte-stable by default) and
/// omitted from to_json when all-zero, SandboxStats-style.
struct ExplorerStats {
  uint64_t batch_size = 0;        // stream source: items per worker refill
  uint64_t subtrees = 0;          // frontier handles after ranking
  uint64_t steals = 0;            // steal operations across the frontier
  uint64_t splits = 0;            // steals that split the victim's handle
  double queue_wait_seconds = 0;  // summed worker wait for work
  double max_idle_fraction = 0;   // max over workers of idle / wall-clock

  void merge(const ExplorerStats& other) noexcept {
    batch_size = std::max(batch_size, other.batch_size);
    subtrees += other.subtrees;
    steals += other.steals;
    splits += other.splits;
    queue_wait_seconds += other.queue_wait_seconds;
    max_idle_fraction = std::max(max_idle_fraction, other.max_idle_fraction);
  }

  bool any() const noexcept {
    return batch_size != 0 || subtrees != 0 || steals != 0 || splits != 0 ||
           queue_wait_seconds != 0 || max_idle_fraction != 0;
  }

  util::Json to_json() const;
};

/// Where a replay executes (DESIGN.md §9).
///
///  * None    — in the exploring process, on the worker's thread (the
///    historical engine; fastest, but a subject that segfaults/aborts or
///    allocates without bound takes the whole exploration down with it).
///  * Process — in a per-worker sandbox child behind an AFL-style fork
///    server (src/sandbox/). A child death (signal), memory-cap trip, or
///    blown watchdog deadline becomes a structured crashed/oom/timed_out
///    outcome; the child is respawned, the item retried once in a fresh
///    child, and deterministic failures are quarantined while exploration
///    completes. Crash-free runs produce reports identical to None.
enum class Isolation { None, Process };

const char* isolation_name(Isolation isolation) noexcept;

/// Sandbox anomaly counters (crash-isolated replay, DESIGN.md §9). One shard
/// per fork-server worker; core::merge_sandbox_stats sums them into the run
/// report. Every field is zero on a crash-free run — and always zero under
/// Isolation::None — which keeps sandboxed reports byte-identical to
/// in-process reports when nothing misbehaves.
struct SandboxStats {
  uint64_t crashes = 0;          // child deaths on a signal (SIGSEGV, ...)
  uint64_t oom_kills = 0;        // structured oom exits (RLIMIT_AS tripped)
  uint64_t timeouts = 0;         // supervisor SIGKILLs for a blown deadline
  uint64_t respawns = 0;         // fresh children forked after a death
  uint64_t retries = 0;          // items re-executed in a fresh child
  uint64_t retry_successes = 0;  // retries that came back clean (collateral)
  /// Runner spawn attempts that failed (fork EAGAIN, handshake timeout) and
  /// were retried under exponential backoff before one succeeded or the
  /// supervisor gave up.
  uint64_t respawn_failures = 0;

  void merge(const SandboxStats& other) noexcept {
    crashes += other.crashes;
    oom_kills += other.oom_kills;
    timeouts += other.timeouts;
    respawns += other.respawns;
    retries += other.retries;
    retry_successes += other.retry_successes;
    respawn_failures += other.respawn_failures;
  }

  bool any() const noexcept {
    return crashes | oom_kills | timeouts | respawns | retries | retry_successes |
           respawn_failures;
  }

  util::Json to_json() const;
};

/// Structured classification of one durable-log recovery driven by a
/// storage-fault plan (DESIGN.md §13). A damaged replica's recovery is either
/// faithful (Recovered: the rebuilt state matches the pre-damage state), an
/// honest structured loss report (MissingEntries: the subject detected the
/// damage and names the first missing durable entry plus how many are gone),
/// or a contract violation (Diverged: the subject claimed success while its
/// rebuilt state silently disagrees with the pre-damage history — a subject
/// must never silently reconcile past damaged history).
struct RecoveryVerdict {
  enum class Status { Recovered, MissingEntries, Diverged };

  Status status = Status::Recovered;
  /// MissingEntries only: seqno of the first durable entry the subject could
  /// not find, and the total count of missing entries.
  uint64_t first_missing = 0;
  uint64_t missing_count = 0;

  bool operator==(const RecoveryVerdict&) const = default;
};

const char* recovery_status_name(RecoveryVerdict::Status status) noexcept;
std::optional<RecoveryVerdict::Status> recovery_status_from_name(
    std::string_view name) noexcept;

/// Observes replay execution at interleaving positions. This is the hook the
/// fault-schedule layer (src/faults) uses to fire scheduled actions — core
/// stays ignorant of fault plans and only promises *when* the hooks run:
///
///  * on_replay_begin — after the subject was reset (resume_depth == 0) or
///    restored from a shared-prefix snapshot (resume_depth > 0), before any
///    event of this interleaving executes.
///  * before_event — immediately before the event at position `pos` is
///    invoked. In threaded-lock mode the call happens on the worker thread
///    that owns the turn, so it is serialized with the subject exactly like
///    the invoke it precedes.
///
/// Observer effects are part of replayed state: whatever a hook does to the
/// subject/network at or before position p is captured by the prefix snapshot
/// taken at depth p+1, so snapshot reuse stays consistent with the hooks.
///
///  * finish_outcome — after the interleaving's events executed and the
///    assertions ran, with the outcome the engine is about to hand back. The
///    fault layer uses it to attach the structured RecoveryVerdict (and, for
///    a Diverged recovery, a violation) to the outcome. Not called for
///    cancelled (timed-out) replays.
struct InterleavingOutcome;

class ReplayObserver {
 public:
  virtual ~ReplayObserver() = default;
  virtual void on_replay_begin(proxy::Rdl& subject, const Interleaving& il,
                               size_t resume_depth) = 0;
  virtual void before_event(proxy::Rdl& subject, const Interleaving& il, size_t pos) = 0;
  virtual void finish_outcome(proxy::Rdl& subject, const Interleaving& il,
                              InterleavingOutcome& outcome) {
    (void)subject;
    (void)il;
    (void)outcome;
  }
};

struct ReplayOptions {
  /// Stop after this many interleavings (the paper's 10 K experiment cap).
  uint64_t max_interleavings = 10'000;
  /// Stop at the first assertion violation (bug reproduced).
  bool stop_on_violation = true;
  /// Incremental prefix replay: retain up to this many subject snapshots so
  /// the next interleaving resumes from the deepest shared-prefix checkpoint
  /// instead of a full reset. 0 disables the cache entirely — every
  /// interleaving resets and re-executes from scratch, byte-identical to the
  /// pre-snapshot engine.
  size_t max_snapshot_depth = kDefaultMaxSnapshotDepth;
  /// Where the prefix cache may snapshot, indexed by event id (see
  /// PrefixCache::set_boundaries); empty = after every event.
  /// sched::ParallelExplorer::run fills it from its enumerator, so set it
  /// only when driving replay_one directly.
  std::vector<bool> checkpoint_boundaries;
  /// Execute through per-replica worker threads + distributed lock.
  bool threaded = false;
  /// KV server hosting the distributed lock (required when threaded).
  kv::Server* lock_server = nullptr;
  /// Simulated memory budget in bytes; exceeding it aborts the run with
  /// crashed=true (Fig. 10). Counts the explored-interleaving log plus any
  /// extra cache reported by `extra_cache_bytes`. Ignored when `budget` is
  /// injected below.
  uint64_t resource_budget_bytes = UINT64_MAX;
  /// Shared budget ledger. When null each explorer run keeps a private
  /// account seeded from `resource_budget_bytes`; inject one to share
  /// accounting across runs (the fault explorer charges every plan's sweep
  /// against a single account, atomically, crash-once).
  BudgetAccount* budget = nullptr;
  /// Extra memory to charge against the budget (e.g. the Random enumerator's
  /// dedup cache, the pruning pipeline's canonical-form set).
  std::function<uint64_t()> extra_cache_bytes;
  /// Per-engine replay observer (fault-schedule hooks). Invoked once in the
  /// engine constructor with the engine's subject; the returned observer then
  /// receives on_replay_begin/before_event for every interleaving this engine
  /// replays. Parallel workers each construct their own observer instance, so
  /// observers may keep per-fixture mutable state without locking.
  std::function<std::shared_ptr<ReplayObserver>(proxy::Rdl& subject)> observer_factory;
  /// Dynamic-pruning footprint learning (DESIGN.md §15). When set, the engine
  /// installs a FootprintRecorder on its subject for the engine's lifetime
  /// and streams each executed event's read/write footprint into the learner
  /// under `footprint_context`. Null (the default) records nothing and adds
  /// zero per-event overhead.
  std::shared_ptr<IndependenceLearner> footprint_learner;
  /// Context key footprints are observed under — the fault-plan kind for
  /// fault sweeps, "none" otherwise. Independence queries union conflicts
  /// over all contexts, so a new context only ever widens the relation.
  std::string footprint_context = "none";
  /// Replay watchdog: when > 0, sched::ParallelExplorer bounds every replay
  /// to this many milliseconds. A replay that exceeds the deadline is
  /// recorded as a structured `timed_out` outcome (not a crash), its key is
  /// quarantined in the report, the worker's fixture is rebuilt, and
  /// exploration continues. A run over a borrowed fixture (Session::end with
  /// an assertion list) has no factory to rebuild from and ignores it.
  /// Under Isolation::Process the supervisor escalates from the cooperative
  /// in-process cancel to SIGKILLing the sandbox child — a replay stuck
  /// inside subject code (unreachable by the cooperative flag) is reclaimed
  /// instead of leaking a hung thread.
  uint64_t watchdog_timeout_ms = 0;
  /// Crash isolation (DESIGN.md §9). Process mode is driven through
  /// sched::ParallelExplorer: each worker owns a fork-server sandbox child
  /// and ships work items to it over a pipe-based protocol instead of
  /// replaying on its own thread. Session::Config::isolation plumbs through
  /// here.
  Isolation isolation = Isolation::None;
  /// Process mode only: RLIMIT_AS cap installed in every sandbox child, in
  /// bytes (0 = unlimited). An allocation pushed over the cap surfaces as a
  /// structured `oom` outcome instead of taking the exploration down.
  uint64_t sandbox_memory_limit_bytes = 0;
  /// Process mode only: how many times a crashed/oomed work item is retried
  /// in a fresh child before being quarantined as deterministic. The default
  /// single retry separates deterministic crashes from collateral damage a
  /// previous item left in the child.
  int sandbox_max_retries = 1;
  /// Process mode only: how many consecutive runner-spawn failures (fork
  /// EAGAIN, ready-handshake timeout, fixture-build error) the supervisor
  /// absorbs — backing off exponentially between attempts — before giving up
  /// on the sandbox. Each failed attempt bumps SandboxStats::respawn_failures.
  int sandbox_spawn_max_retries = 4;
  /// First backoff sleep after a failed spawn attempt, doubled per
  /// consecutive failure and capped at sandbox_spawn_backoff_cap_ms.
  uint64_t sandbox_spawn_backoff_ms = 10;
  uint64_t sandbox_spawn_backoff_cap_ms = 1000;
  /// Cooperative cancellation token. When set and flipped true, the explorer
  /// stops pulling new interleavings (it checks the token before every pull
  /// and before every replay, the fault explorer additionally between plans)
  /// and the run drains to a deterministic committed prefix with
  /// ReplayReport::cancelled set. The
  /// service daemon flips it when a job's client disconnects mid-stream or
  /// its deadline expires; unlike the budget crash latch it carries no
  /// "crashed" connotation.
  std::shared_ptr<std::atomic<bool>> cancel;
  /// Per-interleaving outcome tap: index, interleaving, and everything the
  /// replay observed (violations, timed_out). Same threading contract as
  /// on_interleaving_done — serialized, ascending index order — and delivered
  /// immediately before it. The faults:: layer journals from this hook.
  std::function<void(uint64_t, const Interleaving&, const InterleavingOutcome&)> on_outcome;
  /// Invoked after each interleaving with its 1-based index and the
  /// interleaving itself (the Session uses this to poll the constraints
  /// directory and to persist replayed interleavings).
  ///
  /// Threading contract: sched::ParallelExplorer invokes the callback on the
  /// calling thread, strictly serialized, in ascending index order, never
  /// concurrently with itself, while holding the enumerator lock — so the
  /// callback may mutate the enumerator / pruning pipeline without
  /// additional locking. The callback must not re-enter the explorer.
  std::function<void(uint64_t, const Interleaving&)> on_interleaving_done;
};

struct ReplayReport {
  uint64_t explored = 0;
  uint64_t violations = 0;
  bool reproduced = false;  // at least one assertion violation observed
  /// 1-based count of interleavings explored when the first violation fired.
  uint64_t first_violation_index = 0;
  std::string first_violation_assertion;
  std::optional<Interleaving> first_violation;
  bool exhausted = false;  // enumerator ran dry
  bool hit_cap = false;    // max_interleavings reached
  bool crashed = false;    // resource budget exceeded
  /// Structured form of `crashed`: the budget ran out mid-run and the
  /// counters above hold partial results. Never thrown across threads — the
  /// parallel explorer latches it on the shared BudgetAccount and drains.
  bool budget_exhausted = false;
  /// Cooperative cancellation (ReplayOptions::cancel) stopped the run early:
  /// the counters hold the deterministic committed prefix up to the point
  /// the token flipped. Omitted from to_json when false.
  bool cancelled = false;
  /// The run journal hit a write failure (ENOSPC/EIO) mid-run and degraded:
  /// exploration completed but the journal is truncated, so resuming from it
  /// is disabled. Omitted from to_json when false.
  bool journal_degraded = false;
  /// Same for the outcome corpus: a segment write failed, the store stopped
  /// persisting, and the report's corpus counters cover only the prefix that
  /// made it to disk. Omitted from to_json when false.
  bool corpus_degraded = false;
  /// Replays the watchdog cut off (quarantined, not counted as violations).
  uint64_t timed_out = 0;
  /// Sandboxed replays that died on a signal twice in a row (deterministic
  /// crash; quarantined). Only ever nonzero under Isolation::Process.
  uint64_t crashed_replays = 0;
  /// Sandboxed replays that tripped the RLIMIT_AS memory cap twice in a row
  /// (deterministic blow-up; quarantined). Isolation::Process only.
  uint64_t oom_replays = 0;
  /// Keys of quarantined interleavings (watchdog timeouts, deterministic
  /// crashes, deterministic ooms), in exploration order. Under fault
  /// exploration each key is prefixed with the plan ("plan/il-key").
  std::vector<std::string> quarantined;
  /// Structured view of `quarantined`, same order: why each key was pulled
  /// from the run, and for crashes the terminating signal number.
  struct Quarantine {
    std::string key;
    std::string reason;  // "timed_out" | "crashed" | "oom"
    int signal = 0;      // crashes only (SIGSEGV, SIGABRT, SIGKILL, ...)

    bool operator==(const Quarantine&) const = default;
  };
  std::vector<Quarantine> quarantine_records;
  /// Fork-server anomaly counters, merged across sandbox workers. All-zero
  /// (and omitted from to_json) outside Isolation::Process and on crash-free
  /// sandboxed runs, keeping crash-free reports identical across modes.
  SandboxStats sandbox;
  /// Explorer scheduling telemetry (batch sizing, frontier shape, steal
  /// traffic, idle time). All-zero — and omitted from to_json — unless stats
  /// collection was explicitly enabled (Session::Config::
  /// collect_explorer_stats), because its timing fields are wall-clock noise
  /// and would perturb otherwise byte-stable reports.
  ExplorerStats explorer;
  /// Fault-schedule dimensions (zero/empty outside faults:: runs). `explored`
  /// then counts (interleaving, plan) pairs in plan-major order, and the
  /// first violation is additionally named as a pair: the plan's key() plus
  /// the 1-based interleaving ordinal within that plan's sweep.
  uint64_t plans_explored = 0;
  uint64_t pairs_skipped_from_journal = 0;
  std::string first_violation_plan;
  uint64_t first_violation_plan_interleaving = 0;
  /// Durable-log recovery verdict counters (storage-fault plans, DESIGN.md
  /// §13). All-zero — and omitted from to_json, SandboxStats-style — outside
  /// storage-fault sweeps, keeping non-storage reports byte-identical to
  /// prior releases. Diverged recoveries additionally count as violations
  /// (the never-silently-diverge contract), so recoveries_diverged never
  /// exceeds `violations`.
  uint64_t recoveries_clean = 0;
  uint64_t recoveries_missing_entries = 0;
  uint64_t recoveries_diverged = 0;
  double elapsed_seconds = 0.0;
  /// First few violation messages, for reports.
  std::vector<std::string> messages;
  /// Incremental prefix-replay counters (all zero when the cache is off).
  PrefixReplayStats prefix;

  /// Serializable form (EXPERIMENTS tooling, CI artifacts).
  util::Json to_json() const;
};

/// What replaying a single interleaving observed (no run-level aggregation).
struct InterleavingOutcome {
  struct Violation {
    std::string assertion;
    std::string message;  // formatted report line, includes the interleaving key
  };
  std::vector<Violation> violations;
  /// The watchdog cancelled this replay (hung lock protocol / deadlocked
  /// subject). No violations are reported for a timed-out replay; the run
  /// quarantines it and keeps exploring. Under Isolation::Process this means
  /// the supervisor SIGKILLed a child that blew the deadline.
  bool timed_out = false;
  /// Sandbox child died on a signal replaying this item — twice, in fresh
  /// children, so the crash is deterministic. `term_signal` is the signal
  /// that killed the child. Isolation::Process only.
  bool crashed = false;
  int term_signal = 0;
  /// Sandbox child exceeded the RLIMIT_AS memory cap twice in a row.
  bool oom = false;
  /// Structured durable-log recovery verdict (storage-fault plans only;
  /// absent everywhere else). A Diverged verdict always rides with a
  /// "durable-log-recovery" violation in `violations`.
  std::optional<RecoveryVerdict> recovery;

  /// Anything that pulls the item from normal aggregation (no violations are
  /// reported; the run quarantines the key and keeps exploring).
  bool quarantine() const noexcept { return timed_out || crashed || oom; }
  const char* quarantine_reason() const noexcept {
    return timed_out ? "timed_out" : crashed ? "crashed" : "oom";
  }
};

/// Commit one outcome into the run report: the explored count, quarantine
/// keys, recovery counters, violations and first-violation fields. The one
/// aggregation every run shares — the explorer's in-order committer and the
/// fault explorer (live and journal-merged pairs alike) — so all report
/// shapes agree at any parallelism. A non-empty `plan_key` names the fault
/// plan: quarantine keys become "plan/il-key", messages are prefixed with
/// the plan, and a first violation records the plan and `plan_ordinal`.
void commit_outcome(ReplayReport& report, const Interleaving& il,
                    const InterleavingOutcome& outcome, std::string_view plan_key = {},
                    uint64_t plan_ordinal = 0);

class ReplayEngine {
 public:
  ReplayEngine(proxy::RdlProxy& proxy, ReplayOptions options);
  /// Uninstalls the footprint recorder from the subject (if one was wired).
  ~ReplayEngine();

  /// Replay exactly one interleaving (restore-or-reset → execute → assert)
  /// without touching any run-level state. This is the building block the
  /// explorer drives from its workers — each worker owns its own engine,
  /// proxy, subject and prefix cache, so concurrent replay_one calls never
  /// share mutable subject state. Does not call Assertion::on_run_start and
  /// does not deliver on_interleaving_done; callers own that protocol.
  InterleavingOutcome replay_one(const Interleaving& il, const EventSet& events,
                                 const AssertionList& assertions);

  /// Incremental-replay counters since construction.
  const PrefixReplayStats& prefix_stats() const noexcept { return prefix_stats_; }

  /// Bytes currently retained by the prefix snapshot cache. Thread-safe; the
  /// explorer polls workers' engines for budget checks.
  uint64_t snapshot_cache_bytes() const noexcept {
    return cache_ ? cache_->bytes() : 0;
  }

  /// Cooperative cancellation for the replay watchdog: flips an atomic that
  /// the execute loops poll (per event in fast mode, per lock-spin iteration
  /// in threaded mode). A cancelled replay_one returns a `timed_out` outcome
  /// and leaves subject/cache state unspecified — callers must discard the
  /// fixture (sched::WorkerContext rebuilds it). The flag is one-way; a
  /// cancelled engine is not reused.
  void request_cancel() noexcept {
    cancel_requested_.store(true, std::memory_order_relaxed);
  }
  bool cancel_requested() const noexcept {
    return cancel_requested_.load(std::memory_order_relaxed);
  }

 private:
  void execute_fast(const Interleaving& il, const EventSet& events, size_t start,
                    std::vector<util::Result<util::Json>>& results);
  void execute_threaded(const Interleaving& il, const EventSet& events, size_t start,
                        std::vector<util::Result<util::Json>>& results);

  proxy::RdlProxy* proxy_;
  ReplayOptions options_;
  PrefixReplayStats prefix_stats_;
  std::unique_ptr<PrefixCache> cache_;  // null when max_snapshot_depth == 0
  std::shared_ptr<ReplayObserver> observer_;  // from options_.observer_factory
  /// Owned footprint hook (null unless options_.footprint_learner is set);
  /// installed on the subject in the constructor, uninstalled in ~ReplayEngine.
  std::unique_ptr<FootprintRecorder> recorder_;
  std::atomic<bool> cancel_requested_{false};
};

}  // namespace erpi::core
