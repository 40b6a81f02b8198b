#include "core/replay.hpp"

#include <stdexcept>
#include <thread>

#include "core/dpor.hpp"
#include "kvstore/lock.hpp"
#include "util/log.hpp"

namespace erpi::core {

const char* isolation_name(Isolation isolation) noexcept {
  switch (isolation) {
    case Isolation::None: return "none";
    case Isolation::Process: return "process";
  }
  return "?";
}

const char* recovery_status_name(RecoveryVerdict::Status status) noexcept {
  switch (status) {
    case RecoveryVerdict::Status::Recovered: return "recovered";
    case RecoveryVerdict::Status::MissingEntries: return "missing_entries";
    case RecoveryVerdict::Status::Diverged: return "diverged";
  }
  return "?";
}

std::optional<RecoveryVerdict::Status> recovery_status_from_name(
    std::string_view name) noexcept {
  if (name == "recovered") return RecoveryVerdict::Status::Recovered;
  if (name == "missing_entries") return RecoveryVerdict::Status::MissingEntries;
  if (name == "diverged") return RecoveryVerdict::Status::Diverged;
  return std::nullopt;
}

const char* search_strategy_name(SearchStrategy strategy) noexcept {
  switch (strategy) {
    case SearchStrategy::LexOrder: return "lex";
    case SearchStrategy::RandomPath: return "random_path";
    case SearchStrategy::ViolationFirst: return "violation_first";
    case SearchStrategy::CoverageWeighted: return "coverage_weighted";
    case SearchStrategy::Interleaved: return "interleaved";
  }
  return "?";
}

util::Json ExplorerStats::to_json() const {
  util::Json j = util::Json::object();
  j["batch_size"] = static_cast<int64_t>(batch_size);
  j["subtrees"] = static_cast<int64_t>(subtrees);
  j["steals"] = static_cast<int64_t>(steals);
  j["splits"] = static_cast<int64_t>(splits);
  j["queue_wait_seconds"] = queue_wait_seconds;
  j["max_idle_fraction"] = max_idle_fraction;
  return j;
}

util::Json SandboxStats::to_json() const {
  util::Json j = util::Json::object();
  j["crashes"] = static_cast<int64_t>(crashes);
  j["oom_kills"] = static_cast<int64_t>(oom_kills);
  j["timeouts"] = static_cast<int64_t>(timeouts);
  j["respawns"] = static_cast<int64_t>(respawns);
  j["retries"] = static_cast<int64_t>(retries);
  j["retry_successes"] = static_cast<int64_t>(retry_successes);
  // Omitted when zero so reports from runs that never saw a failed spawn
  // serialize byte-identically to prior releases.
  if (respawn_failures != 0) {
    j["respawn_failures"] = static_cast<int64_t>(respawn_failures);
  }
  return j;
}

util::Json ReplayReport::to_json() const {
  util::Json j = util::Json::object();
  j["explored"] = static_cast<int64_t>(explored);
  j["violations"] = static_cast<int64_t>(violations);
  j["reproduced"] = reproduced;
  j["first_violation_index"] = static_cast<int64_t>(first_violation_index);
  j["first_violation_assertion"] = first_violation_assertion;
  if (first_violation) j["first_violation"] = first_violation->key();
  j["exhausted"] = exhausted;
  j["hit_cap"] = hit_cap;
  j["crashed"] = crashed;
  j["budget_exhausted"] = budget_exhausted;
  // Robustness flags are omitted when false so unaffected runs serialize
  // byte-identically to prior releases (the same discipline as the sandbox
  // and recovery blocks below).
  if (cancelled) j["cancelled"] = true;
  if (journal_degraded) j["journal_degraded"] = true;
  if (corpus_degraded) j["corpus_degraded"] = true;
  j["timed_out"] = static_cast<int64_t>(timed_out);
  j["crashed_replays"] = static_cast<int64_t>(crashed_replays);
  j["oom_replays"] = static_cast<int64_t>(oom_replays);
  util::Json quarantine = util::Json::array();
  for (const auto& key : quarantined) quarantine.push_back(key);
  j["quarantined"] = std::move(quarantine);
  util::Json records = util::Json::array();
  for (const auto& record : quarantine_records) {
    util::Json r = util::Json::object();
    r["key"] = record.key;
    r["reason"] = record.reason;
    r["signal"] = static_cast<int64_t>(record.signal);
    records.push_back(std::move(r));
  }
  j["quarantine_records"] = std::move(records);
  // Omitted when all-zero so crash-free sandboxed reports serialize
  // byte-identically to Isolation::None reports.
  if (sandbox.any()) j["sandbox"] = sandbox.to_json();
  // Likewise omitted by default: explorer stats carry wall-clock timing, so
  // they only appear when stats collection was explicitly requested.
  if (explorer.any()) j["explorer"] = explorer.to_json();
  // Recovery counters are omitted when all-zero, so reports from runs
  // without storage-fault plans serialize byte-identically to prior releases.
  if (recoveries_clean != 0 || recoveries_missing_entries != 0 || recoveries_diverged != 0) {
    j["recoveries_clean"] = static_cast<int64_t>(recoveries_clean);
    j["recoveries_missing_entries"] = static_cast<int64_t>(recoveries_missing_entries);
    j["recoveries_diverged"] = static_cast<int64_t>(recoveries_diverged);
  }
  j["plans_explored"] = static_cast<int64_t>(plans_explored);
  j["pairs_skipped_from_journal"] = static_cast<int64_t>(pairs_skipped_from_journal);
  j["first_violation_plan"] = first_violation_plan;
  j["first_violation_plan_interleaving"] =
      static_cast<int64_t>(first_violation_plan_interleaving);
  j["elapsed_seconds"] = elapsed_seconds;
  util::Json msgs = util::Json::array();
  for (const auto& message : messages) msgs.push_back(message);
  j["messages"] = std::move(msgs);
  j["prefix"] = prefix.to_json();
  return j;
}

void commit_outcome(ReplayReport& report, const Interleaving& il,
                    const InterleavingOutcome& outcome, std::string_view plan_key,
                    uint64_t plan_ordinal) {
  ++report.explored;
  if (outcome.quarantine()) {
    // Quarantine (watchdog timeout, deterministic sandbox crash or oom):
    // counted per kind, keyed, never a violation — and committed in order,
    // so the quarantine list is deterministic.
    if (outcome.timed_out) {
      ++report.timed_out;
    } else if (outcome.crashed) {
      ++report.crashed_replays;
    } else {
      ++report.oom_replays;
    }
    std::string key;
    if (!plan_key.empty()) {
      key += plan_key;
      key += '/';
    }
    il.append_key(key);
    report.quarantine_records.push_back(
        {key, outcome.quarantine_reason(), outcome.term_signal});
    report.quarantined.push_back(std::move(key));
  }
  if (outcome.recovery) {
    switch (outcome.recovery->status) {
      case RecoveryVerdict::Status::Recovered: ++report.recoveries_clean; break;
      case RecoveryVerdict::Status::MissingEntries: ++report.recoveries_missing_entries; break;
      case RecoveryVerdict::Status::Diverged: ++report.recoveries_diverged; break;
    }
  }
  for (const auto& violation : outcome.violations) {
    ++report.violations;
    if (report.messages.size() < 16) {
      if (plan_key.empty()) {
        report.messages.push_back(violation.message);
      } else {
        std::string message = "[plan ";
        message += plan_key;
        message += "] ";
        message += violation.message;
        report.messages.push_back(std::move(message));
      }
    }
    if (!report.reproduced) {
      report.reproduced = true;
      report.first_violation_index = report.explored;
      report.first_violation_assertion = violation.assertion;
      report.first_violation = il;
      if (!plan_key.empty()) {
        report.first_violation_plan = plan_key;
        report.first_violation_plan_interleaving = plan_ordinal;
      }
    }
  }
}

ReplayEngine::ReplayEngine(proxy::RdlProxy& proxy, ReplayOptions options)
    : proxy_(&proxy), options_(std::move(options)) {
  if (options_.threaded && options_.lock_server == nullptr) {
    throw std::invalid_argument("threaded replay requires a lock_server");
  }
  if (options_.max_snapshot_depth > 0) {
    cache_ = std::make_unique<PrefixCache>(options_.max_snapshot_depth, &prefix_stats_);
    cache_->set_boundaries(options_.checkpoint_boundaries);
  }
  if (options_.observer_factory) observer_ = options_.observer_factory(proxy.target());
  if (options_.footprint_learner != nullptr) {
    recorder_ = std::make_unique<FootprintRecorder>(
        [learner = options_.footprint_learner, context = options_.footprint_context](
            int event_id, Footprint&& fp) {
          learner->observe(context, event_id, std::move(fp));
        });
    proxy_->target().set_footprint_recorder(recorder_.get());
  }
}

ReplayEngine::~ReplayEngine() {
  if (recorder_ != nullptr) proxy_->target().set_footprint_recorder(nullptr);
}

void ReplayEngine::execute_fast(const Interleaving& il, const EventSet& events, size_t start,
                                std::vector<util::Result<util::Json>>& results) {
  for (size_t pos = start; pos < il.size(); ++pos) {
    if (cancel_requested_.load(std::memory_order_relaxed)) return;
    if (observer_) observer_->before_event(proxy_->target(), il, pos);
    const Event& event = events.at(static_cast<size_t>(il.order[pos]));
    if (recorder_) recorder_->begin_event(event.id);
    results.emplace_back(proxy_->invoke(event));
    if (recorder_) recorder_->end_event();
    if (cache_) cache_->note_executed(proxy_->target(), il, pos);
  }
}

void ReplayEngine::execute_threaded(const Interleaving& il, const EventSet& events,
                                    size_t start,
                                    std::vector<util::Result<util::Json>>& results) {
  // Pre-size results, keeping the first `start` entries restored from the
  // prefix cache; each worker writes only its own positions, and the turn
  // counter guarantees mutual exclusion between writers.
  results.resize(il.size(), util::Result<util::Json>(util::Json()));

  // Collect the replicas that participate and each one's positions in order.
  // Positions inside the restored prefix are already satisfied.
  std::map<net::ReplicaId, std::vector<size_t>> positions_by_replica;
  for (size_t pos = start; pos < il.size(); ++pos) {
    const Event& event = events.at(static_cast<size_t>(il.order[pos]));
    positions_by_replica[event.replica].push_back(pos);
  }

  kv::Client control(*options_.lock_server);
  const std::string turn_key = "erpi:turn";
  control.set(turn_key, std::to_string(start));

  std::vector<std::thread> workers;
  workers.reserve(positions_by_replica.size());
  for (const auto& [replica, positions] : positions_by_replica) {
    workers.emplace_back([&, replica = replica, positions = positions] {
      kv::DistributedMutex mutex(*options_.lock_server, "erpi:replay-lock",
                                 kv::DistributedMutex::Options{},
                                 0x9e3779b9u ^ static_cast<uint64_t>(replica));
      kv::Client client(*options_.lock_server);
      for (const size_t pos : positions) {
        // Wait for our turn under the distributed lock — the same shared-key
        // mutex discipline the paper uses across machines.
        while (true) {
          // Watchdog cancellation: a hung replay spins here forever when an
          // earlier turn never completes, so the spin loop is where workers
          // must notice the deadline and bail.
          if (cancel_requested_.load(std::memory_order_relaxed)) return;
          if (!mutex.lock()) {
            ERPI_ERROR("replay") << "lock acquisition timed out (replica " << replica << ")";
            return;
          }
          const auto turn = client.get(turn_key);
          const bool ours = turn && std::stoull(*turn) == pos;
          if (ours) {
            if (observer_) observer_->before_event(proxy_->target(), il, pos);
            const Event& event = events.at(static_cast<size_t>(il.order[pos]));
            // Turn ownership serializes workers, so the shared recorder sees
            // begin/end pairs in execution order despite the thread handoff.
            if (recorder_) recorder_->begin_event(event.id);
            results[pos] = proxy_->invoke(event);
            if (recorder_) recorder_->end_event();
            // Snapshot under the same turn-ownership discipline the
            // results[pos] write relies on: only the turn owner touches the
            // subject or the cache, so note_executed is serialized.
            if (cache_) cache_->note_executed(proxy_->target(), il, pos);
            client.set(turn_key, std::to_string(pos + 1));
            mutex.unlock();
            break;
          }
          mutex.unlock();
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
}

InterleavingOutcome ReplayEngine::replay_one(const Interleaving& il, const EventSet& events,
                                             const AssertionList& assertions) {
  std::vector<util::Result<util::Json>> results;
  results.reserve(il.size());

  // Restore the deepest shared-prefix checkpoint, or fall back to the full
  // reset every interleaving historically started from.
  const size_t start =
      cache_ ? cache_->begin_replay(proxy_->target(), il, results) : 0;
  if (start == 0) {
    proxy_->target().reset();
    results.clear();
  }
  prefix_stats_.events_skipped += start;
  prefix_stats_.events_executed += il.size() - start;

  if (observer_) observer_->on_replay_begin(proxy_->target(), il, start);

  if (options_.threaded) {
    execute_threaded(il, events, start, results);
  } else {
    execute_fast(il, events, start, results);
  }
  if (cancel_requested_.load(std::memory_order_relaxed)) {
    // Watchdog fired mid-replay: subject and cache state are unspecified, so
    // skip end_replay/assertions and hand back a structured timeout. The
    // caller discards this fixture.
    InterleavingOutcome cancelled;
    cancelled.timed_out = true;
    return cancelled;
  }
  if (cache_) cache_->end_replay(il, results);

  const TestContext ctx{proxy_->target(), il, events, results};
  InterleavingOutcome outcome;
  for (const auto& assertion : assertions) {
    const auto status = assertion->check(ctx);
    if (!status.is_ok()) {
      std::string message = assertion->name() + ": " + status.error().message +
                            " [interleaving ";
      il.append_key(message);
      message += ']';
      outcome.violations.push_back({assertion->name(), std::move(message)});
    }
  }
  if (observer_) observer_->finish_outcome(proxy_->target(), il, outcome);
  return outcome;
}

}  // namespace erpi::core
