#include "sched/explorer.hpp"

#include <algorithm>
#include <atomic>
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
  uint64_t index = 0;  // 1-based position in the enumerator stream
  core::Interleaving interleaving;
};

struct Batch {
  std::vector<WorkItem> items;
};

struct Done {
  uint64_t index = 0;  // 1-based commit position (stream order or searcher rank)
  core::Interleaving interleaving;
  core::InterleavingOutcome outcome;
  bool skipped = false;  // early-cancelled past the violation floor (or abort)
};

/// Monotone atomic min.
void lower_floor(std::atomic<uint64_t>& floor, uint64_t index) {
  uint64_t current = floor.load(std::memory_order_relaxed);
  while (index < current &&
         !floor.compare_exchange_weak(current, index, std::memory_order_relaxed)) {
  }
}

/// Work-stealing-friendly sizing: enough batches that a straggler never
/// leaves siblings idle (≥ 4 batches per worker across the cap), capped so
/// queue traffic stays negligible next to replay cost.
size_t auto_batch_size(uint64_t cap, int workers) {
  const uint64_t per_worker = cap / (static_cast<uint64_t>(workers) * 4 + 1);
  return static_cast<size_t>(std::clamp<uint64_t>(per_worker, 1, 32));
}

/// Commit one outcome into the report — the aggregation both engines share,
/// identical to the sequential engine's per-interleaving bookkeeping. Returns
/// true when a stop_on_violation run must stop committing here.
bool commit_item(Done item, core::ReplayReport& report,
                 const core::ReplayOptions& replay, std::mutex& callback_mu) {
  ++report.explored;
  if (item.outcome.quarantine()) {
    // Quarantine (watchdog timeout, deterministic sandbox crash or oom):
    // counted per kind, keyed, never a violation — and committed in order,
    // so the quarantine list is deterministic.
    if (item.outcome.timed_out) {
      ++report.timed_out;
    } else if (item.outcome.crashed) {
      ++report.crashed_replays;
    } else {
      ++report.oom_replays;
    }
    std::string qkey;
    item.interleaving.append_key(qkey);
    report.quarantine_records.push_back(
        {qkey, item.outcome.quarantine_reason(), item.outcome.term_signal});
    report.quarantined.push_back(std::move(qkey));
  }
  core::count_recovery(report, item.outcome);
  for (const auto& violation : item.outcome.violations) {
    ++report.violations;
    if (report.messages.size() < 16) report.messages.push_back(violation.message);
    if (!report.reproduced) {
      report.reproduced = true;
      report.first_violation_index = report.explored;
      report.first_violation_assertion = violation.assertion;
      report.first_violation = item.interleaving;
    }
  }
  if (replay.on_outcome || replay.on_interleaving_done) {
    // Serialized, ascending delivery under the shared mutex (the streaming
    // engine passes the enumerator lock: its callbacks may mutate the
    // pruning pipeline the dispatcher reads concurrently).
    std::lock_guard lock(callback_mu);
    if (replay.on_outcome) {
      replay.on_outcome(report.explored, item.interleaving, item.outcome);
    }
    if (replay.on_interleaving_done) {
      replay.on_interleaving_done(report.explored, item.interleaving);
    }
  }
  return replay.stop_on_violation && !item.outcome.violations.empty();
}

/// Drain the results channel, committing in ascending index order (= stream
/// order for the streaming engine, searcher-rank order for the guided one).
void commit_loop(BoundedQueue<Done>& done, std::atomic<bool>& abort,
                 core::ReplayReport& report, const core::ReplayOptions& replay,
                 std::mutex& callback_mu) {
  std::map<uint64_t, Done> reorder;
  uint64_t next_commit = 1;
  bool stopped = false;
  while (auto d = done.pop()) {
    if (abort.load()) continue;  // drain only; the error is rethrown by the caller
    reorder.emplace(d->index, std::move(*d));
    while (!stopped) {
      auto it = reorder.find(next_commit);
      if (it == reorder.end()) break;
      // A skipped item can only sit past a committed violation; reaching one
      // here means commit already stopped (or an abort raced) — never count it.
      if (it->second.skipped) break;
      Done item = std::move(it->second);
      reorder.erase(it);
      if (commit_item(std::move(item), report, replay, callback_mu)) stopped = true;
      ++next_commit;
    }
  }
}

}  // namespace

ParallelExplorer::ParallelExplorer(ExplorerOptions options) : options_(std::move(options)) {
  if (!options_.subject_factory) {
    throw std::invalid_argument("ParallelExplorer requires a subject factory");
  }
}

core::ReplayReport ParallelExplorer::run(core::Enumerator& enumerator,
                                         const core::EventSet& events) {
  const int workers = std::max(1, options_.parallelism);

  core::BudgetAccount local_budget(options_.replay.resource_budget_bytes);
  core::BudgetAccount* budget =
      options_.replay.budget != nullptr ? options_.replay.budget : &local_budget;

  util::Stopwatch watch;
  core::ReplayReport report;

  // Worker contexts (or their sandbox fork servers) are built up front on
  // this thread so factory failures throw before any thread exists — and, in
  // Process isolation, so every fork happens while this process is still
  // single-threaded (see src/sandbox/supervisor.hpp).
  const bool sandboxed = options_.replay.isolation == core::Isolation::Process;
  // Every worker's prefix cache (sandbox children included) snapshots only
  // where this run's enumerator says a later interleaving can diverge.
  core::ReplayOptions worker_replay = options_.replay;
  worker_replay.checkpoint_boundaries = core::checkpoint_boundaries(enumerator, events);
  std::vector<std::unique_ptr<WorkerContext>> contexts;
  std::vector<std::unique_ptr<sandbox::ForkServer>> sandboxes;
  if (sandboxed) {
    sandboxes.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      sandboxes.push_back(std::make_unique<sandbox::ForkServer>(
          options_.subject_factory, options_.assertion_factory, worker_replay, events));
    }
  } else {
    contexts.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      contexts.push_back(std::make_unique<WorkerContext>(
          options_.subject_factory, options_.assertion_factory, worker_replay, budget));
    }
  }

  bool crashed = false;
  bool exhausted = false;
  bool cancelled = false;
  std::vector<WorkerTelemetry> telemetry(static_cast<size_t>(workers));
  if (options_.search.guided()) {
    run_guided(enumerator, events, workers, budget, contexts, sandboxes, report,
               crashed, exhausted, cancelled, telemetry);
  } else {
    run_streaming(enumerator, events, workers, budget, contexts, sandboxes, report,
                  crashed, exhausted, cancelled, telemetry);
  }

  // Sequential parity for the terminal flags: a stop_on_violation run that
  // reproduced never reaches the crash/exhaustion the generator may have
  // overrun into.
  const bool stopped_at_violation = options_.replay.stop_on_violation && report.reproduced;
  report.crashed = crashed && !stopped_at_violation;
  // Budget overrun never throws out of a worker: the generator latches it on
  // the shared account, workers drain, and the report carries partial
  // results with the structured flag set.
  report.budget_exhausted = report.crashed;
  report.exhausted = exhausted && !stopped_at_violation;
  report.cancelled = cancelled && !stopped_at_violation;
  report.hit_cap = report.explored >= options_.replay.max_interleavings;
  report.elapsed_seconds = watch.elapsed_seconds();

  worker_assertions_.clear();
  std::vector<core::PrefixReplayStats> prefix_shards;
  std::vector<core::SandboxStats> sandbox_shards;
  prefix_shards.reserve(static_cast<size_t>(workers));
  for (const auto& ctx : contexts) {
    worker_assertions_.push_back(ctx->assertions());
    prefix_shards.push_back(ctx->prefix_stats());
  }
  // Sandboxed fixtures live in the children, so there are no parent-side
  // assertion instances to expose (worker_assertions() stays empty); prefix
  // and anomaly counters are what the supervisors accumulated over IPC.
  for (const auto& sb : sandboxes) {
    prefix_shards.push_back(sb->prefix_stats());
    sandbox_shards.push_back(sb->stats());
  }
  report.prefix = core::merge_prefix_stats(prefix_shards);
  report.sandbox = core::merge_sandbox_stats(sandbox_shards);
  if (options_.collect_stats) {
    for (const auto& t : telemetry) {
      report.explorer.queue_wait_seconds += t.wait_seconds;
      report.explorer.max_idle_fraction =
          std::max(report.explorer.max_idle_fraction, t.idle_fraction);
    }
  }
  return report;
}

void ParallelExplorer::run_streaming(core::Enumerator& enumerator,
                                     const core::EventSet& events, int workers,
                                     core::BudgetAccount* budget,
                                     std::vector<std::unique_ptr<WorkerContext>>& contexts,
                                     std::vector<std::unique_ptr<sandbox::ForkServer>>& sandboxes,
                                     core::ReplayReport& report, bool& crashed,
                                     bool& exhausted, bool& cancelled,
                                     std::vector<WorkerTelemetry>& telemetry) {
  const uint64_t cap = options_.replay.max_interleavings;
  const bool stop_on_violation = options_.replay.stop_on_violation;
  const bool sandboxed = !sandboxes.empty();
  const bool collect = options_.collect_stats;
  const std::shared_ptr<std::atomic<bool>> cancel_token = options_.replay.cancel;
  const size_t batch_size =
      options_.batch_size != 0 ? options_.batch_size : auto_batch_size(cap, workers);
  if (collect) report.explorer.batch_size = batch_size;

  BoundedQueue<Batch> work(static_cast<size_t>(workers) * 2);
  BoundedQueue<Done> done(std::numeric_limits<size_t>::max());

  std::mutex enum_mu;  // enumerator access + callback-side pipeline mutation
  std::atomic<uint64_t> violation_floor{std::numeric_limits<uint64_t>::max()};
  std::atomic<bool> dispatch_crashed{false};
  std::atomic<bool> dispatch_exhausted{false};
  std::atomic<bool> dispatch_cancelled{false};
  std::atomic<bool> abort{false};
  std::atomic<int> active_workers{workers};
  std::mutex error_mu;
  std::exception_ptr first_error;

  auto record_error = [&](std::exception_ptr error) {
    {
      std::lock_guard lock(error_mu);
      if (!first_error) first_error = error;
    }
    abort.store(true);
    work.close();
  };

  // ---- dispatcher: the only thread that touches the enumerator ----
  std::thread dispatcher([&] {
    try {
      uint64_t next_index = 1;
      while (!abort.load()) {
        if (next_index > cap) break;
        if (stop_on_violation && next_index > violation_floor.load()) break;
        Batch batch;
        bool stop_dispatch = false;
        {
          std::lock_guard lock(enum_mu);
          while (batch.items.size() < batch_size) {
            if (next_index > cap ||
                (stop_on_violation && next_index > violation_floor.load())) {
              break;
            }
            // Cooperative cancel sits where the budget check does: between
            // pulls, so the committed stream stays a deterministic prefix.
            if (cancel_token && cancel_token->load(std::memory_order_relaxed)) {
              dispatch_cancelled.store(true);
              stop_dispatch = true;
              break;
            }
            // Budget check exactly where the sequential engine does it:
            // before pulling, counting the log so far plus live caches.
            // Worker prefix-snapshot caches count too; unlike the other
            // components their live size is scheduling-dependent, so crash
            // points from snapshot memory may vary across worker counts
            // (DESIGN.md "Incremental prefix replay").
            uint64_t extra =
                options_.replay.extra_cache_bytes ? options_.replay.extra_cache_bytes() : 0;
            for (const auto& ctx : contexts) extra += ctx->snapshot_cache_bytes();
            // Sandboxed workers report their children's cache sizes through
            // an atomic refreshed on every outcome.
            for (const auto& sb : sandboxes) extra += sb->snapshot_cache_bytes();
            if (budget->crash_if_exceeded(extra)) {
              dispatch_crashed.store(true);
              stop_dispatch = true;
              break;
            }
            auto il = enumerator.next();
            if (!il) {
              dispatch_exhausted.store(true);
              stop_dispatch = true;
              break;
            }
            budget->charge(core::explored_log_entry_bytes(*il));
            // Corpus reuse: a cached outcome bypasses the worker pool and is
            // committed at its stream position like any worker result. The
            // budget was charged above exactly as for a replayed pair, and a
            // cached violation lowers the floor just as a worker would.
            if (options_.outcome_cache) {
              if (auto cached = options_.outcome_cache(*il)) {
                Done d;
                d.index = next_index;
                d.outcome = std::move(*cached);
                d.interleaving = std::move(*il);
                if (stop_on_violation && !d.outcome.violations.empty()) {
                  lower_floor(violation_floor, d.index);
                }
                (void)done.push(std::move(d));
                ++next_index;
                continue;
              }
            }
            batch.items.push_back({next_index, std::move(*il)});
            ++next_index;
          }
        }
        if (!batch.items.empty() &&
            work.push(std::move(batch)) == QueuePush::Closed) {
          break;
        }
        if (stop_dispatch) break;
      }
    } catch (...) {
      record_error(std::current_exception());
    }
    work.close();
  });

  // ---- workers: isolated replay, shared only through thread-safe state ----
  auto worker_fn = [&](int w) {
    WorkerContext* ctx = sandboxed ? nullptr : contexts[static_cast<size_t>(w)].get();
    sandbox::ForkServer* sandbox =
        sandboxed ? sandboxes[static_cast<size_t>(w)].get() : nullptr;
    util::Stopwatch wall;
    double busy_seconds = 0;
    double wait_seconds = 0;
    try {
      while (true) {
        util::Stopwatch pop_watch;
        auto batch = work.pop();
        if (collect) wait_seconds += pop_watch.elapsed_seconds();
        if (!batch) break;
        for (auto& item : batch->items) {
          Done d;
          d.index = item.index;
          const bool cancelled =
              abort.load() ||
              (cancel_token && cancel_token->load(std::memory_order_relaxed)) ||
              (stop_on_violation && item.index > violation_floor.load());
          if (cancelled) {
            d.skipped = true;
          } else {
            util::Stopwatch replay_watch;
            d.outcome = sandbox ? sandbox->replay_one(item.interleaving)
                                : ctx->replay_one(item.interleaving, events);
            if (collect) busy_seconds += replay_watch.elapsed_seconds();
            if (stop_on_violation && !d.outcome.violations.empty()) {
              lower_floor(violation_floor, item.index);
            }
          }
          d.interleaving = std::move(item.interleaving);
          (void)done.push(std::move(d));
        }
      }
    } catch (...) {
      record_error(std::current_exception());
    }
    if (collect) {
      const double total = wall.elapsed_seconds();
      telemetry[static_cast<size_t>(w)].wait_seconds = wait_seconds;
      telemetry[static_cast<size_t>(w)].idle_fraction =
          total > 0 ? std::max(0.0, total - busy_seconds) / total : 0;
    }
    if (active_workers.fetch_sub(1) == 1) done.close();
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker_fn, w);

  // ---- committer (this thread): in-order merge = deterministic semantics ----
  commit_loop(done, abort, report, options_.replay, enum_mu);

  dispatcher.join();
  for (auto& worker : pool) worker.join();
  if (first_error) std::rethrow_exception(first_error);

  crashed = dispatch_crashed.load();
  exhausted = dispatch_exhausted.load();
  // A token that flipped after dispatch ended still marks the run: workers
  // may have skipped the tail, so the report is a cancelled prefix either way.
  cancelled = dispatch_cancelled.load() ||
              (cancel_token && cancel_token->load(std::memory_order_relaxed));
}

void ParallelExplorer::run_guided(core::Enumerator& enumerator,
                                  const core::EventSet& events, int workers,
                                  core::BudgetAccount* budget,
                                  std::vector<std::unique_ptr<WorkerContext>>& contexts,
                                  std::vector<std::unique_ptr<sandbox::ForkServer>>& sandboxes,
                                  core::ReplayReport& report, bool& crashed,
                                  bool& exhausted, bool& cancelled,
                                  std::vector<WorkerTelemetry>& telemetry) {
  const uint64_t cap = options_.replay.max_interleavings;
  const bool stop_on_violation = options_.replay.stop_on_violation;
  const bool sandboxed = !sandboxes.empty();
  const bool collect = options_.collect_stats;
  const std::shared_ptr<std::atomic<bool>> cancel_token = options_.replay.cancel;

  // ---- phase A: materialize the (capped) stream on this thread, with the
  // same budget protocol the streaming dispatcher runs — check before each
  // pull, charge after — and the same outcome-cache resolution. Guided search
  // charges all generation up front (a full sweep's totals are identical to
  // streaming; a stop_on_violation run charges generation the streaming
  // engine may not reach — DESIGN.md §12 spells out the parity limits).
  std::vector<core::Interleaving> items;
  std::vector<std::optional<core::InterleavingOutcome>> cached;
  while (items.size() < cap) {
    if (cancel_token && cancel_token->load(std::memory_order_relaxed)) {
      cancelled = true;
      break;
    }
    uint64_t extra =
        options_.replay.extra_cache_bytes ? options_.replay.extra_cache_bytes() : 0;
    for (const auto& ctx : contexts) extra += ctx->snapshot_cache_bytes();
    for (const auto& sb : sandboxes) extra += sb->snapshot_cache_bytes();
    if (budget->crash_if_exceeded(extra)) {
      crashed = true;
      break;
    }
    auto il = enumerator.next();
    if (!il) {
      exhausted = true;
      break;
    }
    budget->charge(core::explored_log_entry_bytes(*il));
    cached.push_back(options_.outcome_cache ? options_.outcome_cache(*il) : std::nullopt);
    items.push_back(std::move(*il));
  }

  // ---- rank: subtree partition + searcher. The commit ordinal of an item
  // is its position in the ranked concatenation, so the report is fixed here,
  // before any worker exists. The auto granularity must be a pure function of
  // the stream — never of the worker count — or the partition (and with it
  // the ranking) would change with parallelism and break report identity.
  const size_t max_subtree = options_.search.max_subtree_items != 0
                                 ? options_.search.max_subtree_items
                                 : std::max<size_t>(1, items.size() / 64);
  const std::vector<core::SubtreeSpan> subtrees = core::split_tree_order(items, max_subtree);
  SearcherDeps deps;
  deps.events = &events;
  deps.violation_priors = options_.violation_priors;
  deps.coverage = options_.coverage;
  deps.context_key = options_.context_key;
  const std::unique_ptr<Searcher> searcher = make_searcher(options_.search, std::move(deps));
  const std::vector<size_t> rank = searcher->select(items, subtrees);

  std::vector<size_t> order;  // ordinal - 1 → stream index
  order.reserve(items.size());
  std::vector<Frontier::Handle> ranges;
  ranges.reserve(rank.size());
  for (const size_t r : rank) {
    const auto& span = subtrees[r];
    ranges.push_back({order.size(), order.size() + span.size()});
    for (size_t i = span.begin; i < span.end; ++i) order.push_back(i);
  }
  Frontier frontier(std::move(ranges), workers);
  if (collect) {
    report.explorer.subtrees = subtrees.size();
  }

  std::atomic<uint64_t> violation_floor{std::numeric_limits<uint64_t>::max()};
  if (stop_on_violation) {
    // Cached violations lower the floor before any replay, exactly as the
    // streaming dispatcher's inline resolution does.
    for (size_t o = 0; o < order.size(); ++o) {
      if (cached[order[o]] && !cached[order[o]]->violations.empty()) {
        lower_floor(violation_floor, static_cast<uint64_t>(o) + 1);
        break;  // ascending ordinal scan: the first hit is the minimum
      }
    }
  }

  // ---- phase B: workers drain the work-stealing frontier ----
  BoundedQueue<Done> done(std::numeric_limits<size_t>::max());
  std::atomic<bool> abort{false};
  std::atomic<int> active_workers{workers};
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::mutex callback_mu;

  auto record_error = [&](std::exception_ptr error) {
    {
      std::lock_guard lock(error_mu);
      if (!first_error) first_error = error;
    }
    // No queue to close: frontier.take never blocks, so the abort flag alone
    // drains the pool (remaining takes turn into skipped commits).
    abort.store(true);
  };

  std::vector<double> busy(static_cast<size_t>(workers), 0.0);  // replay time
  auto worker_fn = [&](int w) {
    WorkerContext* ctx = sandboxed ? nullptr : contexts[static_cast<size_t>(w)].get();
    sandbox::ForkServer* sandbox =
        sandboxed ? sandboxes[static_cast<size_t>(w)].get() : nullptr;
    double busy_seconds = 0;
    try {
      while (auto slot = frontier.take(w)) {
        const uint64_t ordinal = static_cast<uint64_t>(*slot) + 1;
        const size_t idx = order[*slot];
        Done d;
        d.index = ordinal;
        const bool cancel_item =
            abort.load() ||
            (cancel_token && cancel_token->load(std::memory_order_relaxed)) ||
            (stop_on_violation && ordinal > violation_floor.load());
        if (cancel_item) {
          d.skipped = true;
        } else if (cached[idx]) {
          d.outcome = *cached[idx];
          if (stop_on_violation && !d.outcome.violations.empty()) {
            lower_floor(violation_floor, ordinal);
          }
        } else {
          util::Stopwatch replay_watch;
          d.outcome = sandbox ? sandbox->replay_one(items[idx])
                              : ctx->replay_one(items[idx], events);
          if (collect) busy_seconds += replay_watch.elapsed_seconds();
          if (stop_on_violation && !d.outcome.violations.empty()) {
            lower_floor(violation_floor, ordinal);
          }
        }
        d.interleaving = items[idx];
        (void)done.push(std::move(d));
      }
    } catch (...) {
      record_error(std::current_exception());
    }
    if (collect) busy[static_cast<size_t>(w)] = busy_seconds;
    if (active_workers.fetch_sub(1) == 1) done.close();
  };
  // Idle is measured against the shared parallel-section wall clock: a worker
  // that drains early and exits while a straggler keeps replaying counts as
  // idle for the difference — exactly the imbalance work stealing removes.
  util::Stopwatch section;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker_fn, w);

  // ---- committer (this thread): ascending rank-ordinal merge ----
  commit_loop(done, abort, report, options_.replay, callback_mu);

  for (auto& worker : pool) worker.join();
  const double section_seconds = section.elapsed_seconds();
  if (first_error) std::rethrow_exception(first_error);

  if (cancel_token && cancel_token->load(std::memory_order_relaxed)) cancelled = true;

  if (collect) {
    report.explorer.steals = frontier.steals();
    report.explorer.splits = frontier.splits();
    for (size_t w = 0; w < busy.size(); ++w) {
      telemetry[w].idle_fraction =
          section_seconds > 0
              ? std::max(0.0, section_seconds - busy[w]) / section_seconds
              : 0;
    }
  }
}

}  // namespace erpi::sched
