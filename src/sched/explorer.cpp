#include "sched/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/profile.hpp"
#include "sandbox/supervisor.hpp"
#include "sched/frontier.hpp"
#include "sched/queue.hpp"
#include "util/stopwatch.hpp"

namespace erpi::sched {
namespace {

struct WorkItem {
  uint64_t index = 0;  // 1-based commit position (stream order or searcher rank)
  core::Interleaving interleaving;
  /// Resolved by ExplorerOptions::outcome_cache at pull time: committed
  /// without a replay.
  std::optional<core::InterleavingOutcome> cached;
};

struct Done {
  uint64_t index = 0;
  core::Interleaving interleaving;
  core::InterleavingOutcome outcome;
  bool skipped = false;  // past the violation floor, cancelled, or aborted
};

/// Monotone atomic min.
void lower_floor(std::atomic<uint64_t>& floor, uint64_t index) {
  uint64_t current = floor.load(std::memory_order_relaxed);
  while (index < current &&
         !floor.compare_exchange_weak(current, index, std::memory_order_relaxed)) {
  }
}

/// Stream refill size. One worker pulls one interleaving at a time, so each
/// budget check sees the snapshot bytes of every replay before it and a
/// runtime constraint applied in on_interleaving_done reaches the very next
/// pull. More workers refill enough per lock that a straggler never leaves
/// siblings idle (≥ 4 refills per worker across the cap), capped so the
/// enumerator lock stays off the profile.
size_t auto_batch_size(uint64_t cap, int workers) {
  if (workers == 1) return 1;
  const uint64_t per_worker = cap / (static_cast<uint64_t>(workers) * 4 + 1);
  return static_cast<size_t>(std::clamp<uint64_t>(per_worker, 1, 32));
}

}  // namespace

struct ParallelExplorer::Pool {
  std::vector<std::unique_ptr<WorkerContext>> contexts;
  std::vector<std::unique_ptr<sandbox::ForkServer>> sandboxes;

  int size() const { return static_cast<int>(contexts.size() + sandboxes.size()); }

  core::InterleavingOutcome replay(int w, const core::Interleaving& il,
                                   const core::EventSet& events) {
    const auto slot = static_cast<size_t>(w);
    return sandboxes.empty() ? contexts[slot]->replay_one(il, events)
                             : sandboxes[slot]->replay_one(il);
  }

  /// Live snapshot-cache bytes across workers. Thread-safe; sandboxed workers
  /// report their children's sizes through an atomic refreshed per outcome.
  uint64_t snapshot_cache_bytes() const {
    uint64_t bytes = 0;
    for (const auto& ctx : contexts) bytes += ctx->snapshot_cache_bytes();
    for (const auto& sb : sandboxes) bytes += sb->snapshot_cache_bytes();
    return bytes;
  }
};

ParallelExplorer::ParallelExplorer(ExplorerOptions options) : options_(std::move(options)) {}

core::ReplayOptions ParallelExplorer::worker_options(core::Enumerator& enumerator,
                                                     const core::EventSet& events) const {
  // Every worker's prefix cache (sandbox children included) snapshots only
  // where this run's enumerator says a later interleaving can diverge.
  core::ReplayOptions replay = options_.replay;
  replay.checkpoint_boundaries = core::checkpoint_boundaries(enumerator, events);
  return replay;
}

core::ReplayReport ParallelExplorer::run(core::Enumerator& enumerator,
                                         const core::EventSet& events) {
  if (!options_.subject_factory) {
    throw std::invalid_argument("ParallelExplorer requires a subject factory");
  }
  const int workers = std::max(1, options_.parallelism);
  const core::ReplayOptions replay = worker_options(enumerator, events);
  // Worker contexts (or their sandbox fork servers) are built up front on
  // this thread so factory failures throw before any thread exists — and, in
  // Process isolation, so every fork happens while this process is still
  // single-threaded (see src/sandbox/supervisor.hpp).
  Pool pool;
  for (int w = 0; w < workers; ++w) {
    if (replay.isolation == core::Isolation::Process) {
      pool.sandboxes.push_back(std::make_unique<sandbox::ForkServer>(
          options_.subject_factory, options_.assertion_factory, replay, events));
    } else {
      pool.contexts.push_back(std::make_unique<WorkerContext>(
          options_.subject_factory, options_.assertion_factory, replay));
    }
  }
  return explore(enumerator, events, pool);
}

core::ReplayReport ParallelExplorer::run(core::Enumerator& enumerator,
                                         const core::EventSet& events,
                                         proxy::RdlProxy& proxy,
                                         const core::AssertionList& assertions) {
  if (options_.replay.isolation == core::Isolation::Process) {
    throw std::invalid_argument(
        "process isolation rebuilds fixtures in sandbox children; it cannot "
        "borrow a caller-owned fixture");
  }
  Pool pool;
  pool.contexts.push_back(std::make_unique<WorkerContext>(
      proxy, assertions, worker_options(enumerator, events)));
  return explore(enumerator, events, pool);
}

core::ReplayReport ParallelExplorer::explore(core::Enumerator& enumerator,
                                             const core::EventSet& events, Pool& pool) {
  const int workers = pool.size();
  const core::ReplayOptions& replay = options_.replay;
  const uint64_t cap = replay.max_interleavings;
  const bool stop_on_violation = replay.stop_on_violation;
  const bool collect = options_.collect_stats;
  const auto cancel_requested = [token = replay.cancel] {
    return token && token->load(std::memory_order_relaxed);
  };

  core::BudgetAccount local_budget(replay.resource_budget_bytes);
  core::BudgetAccount* budget = replay.budget != nullptr ? replay.budget : &local_budget;

  util::Stopwatch watch;
  core::ReplayReport report;

  // ---- pull: the only way an interleaving leaves the enumerator ----
  // Callers hold enum_mu. Cooperative cancel sits where the budget check
  // does, between pulls, so the committed stream stays a deterministic
  // prefix. The budget check counts the log so far plus live caches; worker
  // prefix-snapshot caches count too, and unlike the other components their
  // live size is scheduling-dependent, so crash points from snapshot memory
  // may vary across worker counts (DESIGN.md "Incremental prefix replay").
  std::mutex enum_mu;  // enumerator access + callback-side pipeline mutation
  bool crashed = false;
  bool exhausted = false;
  bool cancelled = false;
  const auto pull = [&]() -> std::optional<WorkItem> {
    if (cancel_requested()) {
      cancelled = true;
      return std::nullopt;
    }
    const uint64_t extra = (replay.extra_cache_bytes ? replay.extra_cache_bytes() : 0) +
                           pool.snapshot_cache_bytes();
    if (budget->crash_if_exceeded(extra)) {
      crashed = true;
      return std::nullopt;
    }
    auto il = enumerator.next();
    if (!il) {
      exhausted = true;
      return std::nullopt;
    }
    budget->charge(core::explored_log_entry_bytes(*il));
    WorkItem item;
    item.interleaving = std::move(*il);
    // Corpus reuse: a cached outcome is committed at its position like any
    // replayed one; the budget was charged above exactly as for a replay.
    if (options_.outcome_cache) item.cached = options_.outcome_cache(item.interleaving);
    return item;
  };

  // ---- the work source: take(w, item) hands worker w its next item ----
  std::atomic<uint64_t> violation_floor{std::numeric_limits<uint64_t>::max()};
  std::function<bool(int, WorkItem&)> take;
  std::optional<Frontier> frontier;
  std::vector<core::Interleaving> stream;  // guided: the materialized stream
  std::vector<std::optional<core::InterleavingOutcome>> cached;  // ... its cache hits
  std::vector<size_t> order;  // guided: commit ordinal - 1 → stream index
  std::vector<std::deque<WorkItem>> batches(static_cast<size_t>(workers));  // stream
  const size_t batch_size = auto_batch_size(cap, workers);
  uint64_t next_index = 1;
  bool drained = false;
  if (options_.search.guided()) {
    // Materialize the capped stream on this thread. Guided search charges
    // all generation up front (a full sweep's totals are identical to the
    // stream source; a stop_on_violation run charges generation the stream
    // source may not reach — DESIGN.md §12 spells out the parity limits).
    while (stream.size() < cap) {
      auto item = pull();
      if (!item) break;
      stream.push_back(std::move(item->interleaving));
      cached.push_back(std::move(item->cached));
    }
    // Rank: subtree partition + searcher. The commit ordinal of an item is
    // its position in the ranked concatenation, so the report is fixed here,
    // before any replay. The auto granularity must be a pure function of the
    // stream — never of the worker count — or the partition (and with it the
    // ranking) would change with parallelism and break report identity.
    const size_t max_subtree = options_.search.max_subtree_items != 0
                                   ? options_.search.max_subtree_items
                                   : std::max<size_t>(1, stream.size() / 64);
    const std::vector<core::SubtreeSpan> subtrees =
        core::split_tree_order(stream, max_subtree);
    SearcherDeps deps;
    deps.events = &events;
    deps.violation_priors = options_.violation_priors;
    deps.coverage = options_.coverage;
    deps.context_key = options_.context_key;
    const std::vector<size_t> rank =
        make_searcher(options_.search, std::move(deps))->select(stream, subtrees);
    std::vector<Frontier::Handle> ranges;
    ranges.reserve(rank.size());
    order.reserve(stream.size());
    for (const size_t r : rank) {
      const auto& span = subtrees[r];
      ranges.push_back({order.size(), order.size() + span.size()});
      for (size_t i = span.begin; i < span.end; ++i) order.push_back(i);
    }
    if (stop_on_violation) {
      // Cached violations lower the floor before any replay; the ascending
      // ordinal scan's first hit is the minimum.
      for (size_t o = 0; o < order.size(); ++o) {
        if (cached[order[o]] && !cached[order[o]]->violations.empty()) {
          lower_floor(violation_floor, o + 1);
          break;
        }
      }
    }
    frontier.emplace(std::move(ranges), workers);
    if (collect) report.explorer.subtrees = subtrees.size();
    // The frontier hands out each ordinal exactly once, so its item can be
    // moved out of the stream without a lock.
    take = [&](int w, WorkItem& item) {
      const auto slot = frontier->take(w);
      if (!slot) return false;
      const size_t idx = order[*slot];
      item.index = *slot + 1;
      item.interleaving = std::move(stream[idx]);
      item.cached = std::move(cached[idx]);
      return true;
    };
  } else {
    if (collect) report.explorer.batch_size = batch_size;
    take = [&](int w, WorkItem& item) {
      auto& batch = batches[static_cast<size_t>(w)];
      if (batch.empty()) {
        std::lock_guard lock(enum_mu);
        while (!drained && batch.size() < batch_size) {
          std::optional<WorkItem> pulled;
          if (next_index <= cap &&
              !(stop_on_violation && next_index > violation_floor.load())) {
            pulled = pull();
          }
          if (!pulled) {
            drained = true;
            break;
          }
          pulled->index = next_index++;
          if (stop_on_violation && pulled->cached && !pulled->cached->violations.empty()) {
            lower_floor(violation_floor, pulled->index);
          }
          batch.push_back(std::move(*pulled));
        }
      }
      if (batch.empty()) return false;
      item = std::move(batch.front());
      batch.pop_front();
      return true;
    };
  }

  // ---- the worker body, shared by the inline and the threaded pool ----
  std::atomic<bool> abort{false};
  std::vector<double> busy(static_cast<size_t>(workers), 0.0);  // replay time
  std::vector<double> wait(static_cast<size_t>(workers), 0.0);  // time in take
  const auto work = [&](int w, const auto& emit) {
    while (true) {
      util::Stopwatch take_watch;
      WorkItem item;
      const bool taken = take(w, item);
      if (collect) wait[static_cast<size_t>(w)] += take_watch.elapsed_seconds();
      if (!taken) return;
      Done d;
      d.index = item.index;
      if (abort.load() || cancel_requested() ||
          (stop_on_violation && d.index > violation_floor.load())) {
        d.skipped = true;
      } else {
        if (item.cached) {
          d.outcome = std::move(*item.cached);
        } else {
          util::Stopwatch replay_watch;
          d.outcome = pool.replay(w, item.interleaving, events);
          if (collect) busy[static_cast<size_t>(w)] += replay_watch.elapsed_seconds();
        }
        if (stop_on_violation && !d.outcome.violations.empty()) {
          lower_floor(violation_floor, d.index);
        }
      }
      d.interleaving = std::move(item.interleaving);
      if (!emit(std::move(d))) return;
    }
  };

  // ---- commit: one outcome, in index order; false = stop committing ----
  const auto commit = [&](const Done& d) {
    core::commit_outcome(report, d.interleaving, d.outcome);
    if (replay.on_outcome || replay.on_interleaving_done) {
      // Serialized, ascending delivery under the enumerator lock: callbacks
      // may mutate the pruning pipeline a worker pulls from concurrently.
      std::lock_guard lock(enum_mu);
      if (replay.on_outcome) replay.on_outcome(report.explored, d.interleaving, d.outcome);
      if (replay.on_interleaving_done) replay.on_interleaving_done(report.explored, d.interleaving);
    }
    return !(stop_on_violation && !d.outcome.violations.empty());
  };

  util::Stopwatch section;
  if (workers == 1) {
    // Inline: items arrive in index order, so each commits as it finishes.
    // A skipped item can only follow a cancel — nothing after it commits.
    work(0, [&](Done&& d) { return !d.skipped && commit(d); });
  } else {
    BoundedQueue<Done> done(std::numeric_limits<size_t>::max());
    std::atomic<int> active_workers{workers};
    std::mutex error_mu;
    std::exception_ptr first_error;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        try {
          work(w, [&](Done&& d) {
            (void)done.push(std::move(d));
            return true;
          });
        } catch (...) {
          {
            std::lock_guard lock(error_mu);
            if (!first_error) first_error = std::current_exception();
          }
          // take() never blocks, so the abort flag alone drains the pool
          // (remaining items turn into skipped results).
          abort.store(true);
        }
        if (active_workers.fetch_sub(1) == 1) done.close();
      });
    }
    // Committer (this thread): reorder by index, commit in ascending order.
    std::map<uint64_t, Done> reorder;
    uint64_t next_commit = 1;
    bool stopped = false;
    while (auto d = done.pop()) {
      if (abort.load() || stopped) continue;  // drain only
      reorder.emplace(d->index, std::move(*d));
      for (auto it = reorder.find(next_commit); !stopped && it != reorder.end();
           it = reorder.find(next_commit)) {
        // A skipped item can only sit past a committed violation or a
        // cancel; reaching one here means committing is over.
        if (it->second.skipped) {
          stopped = true;
          break;
        }
        stopped = !commit(it->second);
        reorder.erase(it);
        ++next_commit;
      }
    }
    for (auto& thread : threads) thread.join();
    if (first_error) std::rethrow_exception(first_error);
  }
  const double section_seconds = section.elapsed_seconds();

  // Terminal flags: a stop_on_violation run that reproduced never reaches
  // the crash/exhaustion the generator may have overrun into.
  const bool stopped_at_violation = stop_on_violation && report.reproduced;
  report.crashed = crashed && !stopped_at_violation;
  // Budget overrun never throws out of a worker: the pull latches it on the
  // shared account, workers drain, and the report carries partial results
  // with the structured flag set.
  report.budget_exhausted = report.crashed;
  report.exhausted = exhausted && !stopped_at_violation;
  // A token that flipped after the last pull still marks the run: workers
  // may have skipped the tail, so the report is a cancelled prefix either way.
  report.cancelled = (cancelled || cancel_requested()) && !stopped_at_violation;
  report.hit_cap = report.explored >= cap;
  report.elapsed_seconds = watch.elapsed_seconds();

  worker_assertions_.clear();
  std::vector<core::PrefixReplayStats> prefix_shards;
  std::vector<core::SandboxStats> sandbox_shards;
  for (const auto& ctx : pool.contexts) {
    worker_assertions_.push_back(ctx->assertions());
    prefix_shards.push_back(ctx->prefix_stats());
  }
  // Sandboxed fixtures live in the children, so there are no parent-side
  // assertion instances to expose (worker_assertions() stays empty); prefix
  // and anomaly counters are what the supervisors accumulated over IPC.
  for (const auto& sb : pool.sandboxes) {
    prefix_shards.push_back(sb->prefix_stats());
    sandbox_shards.push_back(sb->stats());
  }
  report.prefix = core::merge_prefix_stats(prefix_shards);
  report.sandbox = core::merge_sandbox_stats(sandbox_shards);
  if (collect) {
    if (frontier) {
      report.explorer.steals = frontier->steals();
      report.explorer.splits = frontier->splits();
    }
    // Idle is measured against the shared section wall clock: a worker that
    // drains early while a straggler keeps replaying counts as idle for the
    // difference — exactly the imbalance work stealing removes.
    for (int w = 0; w < workers; ++w) {
      const auto slot = static_cast<size_t>(w);
      report.explorer.queue_wait_seconds += wait[slot];
      report.explorer.max_idle_fraction = std::max(
          report.explorer.max_idle_fraction,
          section_seconds > 0 ? std::max(0.0, section_seconds - busy[slot]) / section_seconds
                              : 0);
    }
  }
  return report;
}

}  // namespace erpi::sched
