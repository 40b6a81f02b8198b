// Incremental prefix replay: equivalence + accounting tests.
//
// The contract of the prefix cache is that it is a pure performance
// optimisation — replaying with snapshots enabled must produce the same
// ReplayReport (explored counts, violations, messages, first-violation data,
// persisted log) as full-reset replay, across subjects, parallelism and
// snapshot-depth settings. These tests pin that contract, plus the resource
// accounting: retained snapshot bytes charge the Fig. 10 budget, depth 0
// reproduces the legacy engine's execution counts exactly, and the depth
// budget evicts — and the placement: snapshots only where the enumerator
// says a later interleaving can resume, none at all under randomized orders.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bugs/registry.hpp"
#include "core/session.hpp"
#include "kvstore/server.hpp"
#include "subjects/crdt_collection.hpp"
#include "subjects/town.hpp"

namespace erpi::core {
namespace {

util::Json jobj(std::initializer_list<std::pair<const char*, util::Json>> kv) {
  util::Json j = util::Json::object();
  for (auto& [key, value] : kv) j[key] = value;
  return j;
}

struct Scenario {
  std::string name;
  std::function<std::unique_ptr<proxy::Rdl>()> make_subject;
  std::function<void(proxy::RdlProxy&)> workload;
  AssertionFactory assertions;
  std::function<void(Session::Config&)> configure;  // optional
  /// True when the assertion list carries cross-interleaving state. Such
  /// assertions see only the interleavings their own worker replayed, and
  /// batch->worker assignment is timing-dependent, so at parallelism > 1 their
  /// violation messages are not comparable across runs (independent of the
  /// prefix cache). Only scheduling-invariant report fields are compared then.
  bool stateful_assertions = false;
  /// True when the scenario's order is unit-contiguous lexicographic, so the
  /// cache must snapshot and restore (exercising the subject's
  /// clone_replicas/adopt_replicas hooks). Randomized orders never snapshot.
  bool lexicographic = false;
};

/// `sc` under a Grouped-lexicographic order: the variant that keeps the
/// subject's snapshot hooks under the equivalence check.
Scenario lexicographic_variant(Scenario sc) {
  sc.name += "-lex";
  auto base_configure = sc.configure;
  sc.configure = [base_configure](Session::Config& config) {
    if (base_configure) base_configure(config);
    config.generation_order = GroupedEnumerator::Order::Lexicographic;
  };
  sc.lexicographic = true;
  return sc;
}

Scenario town_scenario() {
  Scenario sc;
  sc.name = "town";
  sc.make_subject = [] { return std::make_unique<subjects::TownApp>(2); };
  sc.workload = [](proxy::RdlProxy& proxy) {
    (void)proxy.update(0, "report", jobj({{"problem", "otb"}}));
    (void)proxy.sync_req(0, 1);
    (void)proxy.exec_sync(0, 1);
    (void)proxy.update(1, "report", jobj({{"problem", "ph"}}));
    (void)proxy.sync_req(1, 0);
    (void)proxy.exec_sync(1, 0);
    (void)proxy.update(1, "resolve", jobj({{"problem", "otb"}}));
    (void)proxy.sync_req(1, 0);
    (void)proxy.exec_sync(1, 0);
    (void)proxy.update(0, "report", jobj({{"problem", "lamp"}}));
    (void)proxy.query(0, "transmit");
  };
  sc.assertions = [](proxy::Rdl&) -> AssertionList {
    util::Json expected = util::Json::array();
    expected.push_back("lamp");
    expected.push_back("ph");
    return {query_result_equals(10, expected)};
  };
  sc.configure = [](Session::Config& config) {
    config.generation_order = GroupedEnumerator::Order::Lexicographic;
    config.spec_groups = {{0, 1, 2}, {3, 4, 5}};
  };
  sc.lexicographic = true;
  return sc;
}

Scenario collection_scenario() {
  Scenario sc;
  sc.name = "crdt_collection";
  sc.make_subject = [] { return std::make_unique<subjects::CrdtCollection>(2); };
  sc.workload = [](proxy::RdlProxy& proxy) {
    (void)proxy.update(0, "set_add", jobj({{"element", "a"}}));
    (void)proxy.sync_req(0, 1);
    (void)proxy.exec_sync(0, 1);
    (void)proxy.update(1, "set_remove", jobj({{"element", "a"}}));
    (void)proxy.sync_req(1, 0);
    (void)proxy.exec_sync(1, 0);
    (void)proxy.update(0, "counter_inc", jobj({{"by", 2}}));
  };
  sc.assertions = [](proxy::Rdl&) -> AssertionList {
    return {converge_if_same_witness({0, 1}, {"seen"}, {"set"})};
  };
  return sc;
}

std::vector<Scenario> all_scenarios() {
  std::vector<Scenario> scenarios{town_scenario(), collection_scenario(),
                                  lexicographic_variant(collection_scenario())};
  // One registry bug per remaining subject: real workloads, real pruning
  // config (so the PrunedEnumerator path is exercised too), under the
  // bug's default shuffled order and under a lexicographic one — only the
  // latter takes snapshots.
  // Roshi-1/ReplicaDB-1 use stateless per-interleaving custom assertions;
  // OrbitDB-1/Yorkie-1 include consistent_across_interleavings_if_same_witness.
  for (const auto& [name, stateful] :
       std::vector<std::pair<const char*, bool>>{{"Roshi-1", false},
                                                 {"OrbitDB-1", true},
                                                 {"ReplicaDB-1", false},
                                                 {"Yorkie-1", true}}) {
    const auto& bug = bugs::find_bug(name);
    Scenario sc;
    sc.name = bug.name;
    sc.make_subject = bug.make_subject;
    sc.workload = bug.workload;
    auto make_assertions = bug.assertions;
    sc.assertions = [make_assertions](proxy::Rdl&) { return make_assertions(); };
    sc.configure = bug.configure;
    sc.stateful_assertions = stateful;
    scenarios.push_back(sc);
    scenarios.push_back(lexicographic_variant(std::move(sc)));
  }
  return scenarios;
}

struct RunOutput {
  ReplayReport report;
  std::vector<std::string> persisted;
};

RunOutput run_scenario(const Scenario& sc, size_t max_snapshot_depth, int parallelism,
                       bool persist = false) {
  auto subject = sc.make_subject();
  proxy::RdlProxy proxy(*subject);
  Session::Config config;
  config.replay.stop_on_violation = false;
  config.replay.max_interleavings = 300;
  if (sc.configure) sc.configure(config);
  config.parallelism = parallelism;
  config.subject_factory = sc.make_subject;
  config.max_snapshot_depth = max_snapshot_depth;
  config.persist = persist;
  Session session(proxy, std::move(config));
  session.start();
  sc.workload(proxy);
  RunOutput out;
  out.report = session.end(sc.assertions);
  if (persist) {
    for (size_t i = 0; i < session.store().interleaving_count(); ++i) {
      out.persisted.push_back(session.store().load(i).key());
    }
  }
  return out;
}

/// The report fields that stay fixed no matter how batches land on workers.
void expect_invariant_fields_equal(const ReplayReport& got, const ReplayReport& want,
                                   const std::string& label) {
  EXPECT_EQ(got.explored, want.explored) << label;
  EXPECT_EQ(got.exhausted, want.exhausted) << label;
  EXPECT_EQ(got.hit_cap, want.hit_cap) << label;
  EXPECT_EQ(got.crashed, want.crashed) << label;
}

/// Everything observable except timing and the prefix counters themselves.
void expect_reports_equal(const ReplayReport& got, const ReplayReport& want,
                          const std::string& label) {
  expect_invariant_fields_equal(got, want, label);
  EXPECT_EQ(got.violations, want.violations) << label;
  EXPECT_EQ(got.reproduced, want.reproduced) << label;
  EXPECT_EQ(got.first_violation_index, want.first_violation_index) << label;
  EXPECT_EQ(got.first_violation_assertion, want.first_violation_assertion) << label;
  EXPECT_EQ(got.first_violation.has_value(), want.first_violation.has_value()) << label;
  if (got.first_violation && want.first_violation) {
    EXPECT_EQ(got.first_violation->key(), want.first_violation->key()) << label;
  }
  EXPECT_EQ(got.messages, want.messages) << label;
}

// ---------------------------------------------------------------------------
// Report equivalence: incremental == full-reset, everywhere
// ---------------------------------------------------------------------------

class PrefixEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(PrefixEquivalence, IncrementalReplayIsReportIdenticalToFullReset) {
  const Scenario& sc = GetParam();
  for (const int parallelism : {1, 4}) {
    const RunOutput baseline = run_scenario(sc, /*max_snapshot_depth=*/0, parallelism);
    ASSERT_GT(baseline.report.explored, 0u);
    for (const size_t depth : {size_t{2}, size_t{SIZE_MAX}}) {
      const RunOutput incremental = run_scenario(sc, depth, parallelism);
      const std::string label = sc.name + " p=" + std::to_string(parallelism) +
                                " depth=" + std::to_string(depth);
      if (parallelism > 1 && sc.stateful_assertions) {
        expect_invariant_fields_equal(incremental.report, baseline.report, label);
      } else {
        expect_reports_equal(incremental.report, baseline.report, label);
      }
      if (sc.lexicographic) {
        EXPECT_GT(incremental.report.prefix.snapshots_restored, 0u) << label;
      } else {
        EXPECT_EQ(incremental.report.prefix.snapshots_taken, 0u) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubjects, PrefixEquivalence,
                         ::testing::ValuesIn(all_scenarios()), [](const auto& info) {
                           std::string name = info.param.name;
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(PrefixEquivalence, PersistedLogIdenticalWithAndWithoutSnapshots) {
  const Scenario sc = town_scenario();
  const RunOutput baseline = run_scenario(sc, 0, 1, /*persist=*/true);
  ASSERT_FALSE(baseline.persisted.empty());
  for (const int parallelism : {1, 4}) {
    const RunOutput incremental = run_scenario(sc, SIZE_MAX, parallelism, /*persist=*/true);
    EXPECT_EQ(incremental.persisted, baseline.persisted) << "p=" << parallelism;
  }
}

TEST(PrefixEquivalence, ThreadedModeMatchesWithSnapshotsOnAndOff) {
  // Threaded replay drives the distributed-lock protocol per event; snapshots
  // ride the turn-ownership discipline. Keep the cap small: every threaded
  // interleaving spins up one thread per replica.
  auto run_threaded = [](size_t depth, int parallelism) {
    static kv::Server lock_server;  // sequential path needs an explicit server
    Scenario sc = town_scenario();
    auto base_configure = sc.configure;
    sc.configure = [base_configure, parallelism](Session::Config& config) {
      base_configure(config);
      config.replay.max_interleavings = 24;
      config.replay.threaded = true;
      if (parallelism == 1) config.replay.lock_server = &lock_server;
    };
    return run_scenario(sc, depth, parallelism);
  };
  for (const int parallelism : {1, 4}) {
    const RunOutput baseline = run_threaded(0, parallelism);
    ASSERT_EQ(baseline.report.explored, 24u);
    const RunOutput incremental = run_threaded(SIZE_MAX, parallelism);
    expect_reports_equal(incremental.report, baseline.report,
                         "threaded p=" + std::to_string(parallelism));
  }
}

// ---------------------------------------------------------------------------
// Counters and accounting
// ---------------------------------------------------------------------------

TEST(PrefixReplay, DepthZeroReproducesLegacyExecutionExactly) {
  const Scenario sc = town_scenario();
  const RunOutput out = run_scenario(sc, 0, 1);
  const auto& prefix = out.report.prefix;
  // 11 events per interleaving, every one executed from a full reset.
  EXPECT_EQ(prefix.events_executed, out.report.explored * 11);
  EXPECT_EQ(prefix.events_skipped, 0u);
  EXPECT_EQ(prefix.snapshots_taken, 0u);
  EXPECT_EQ(prefix.snapshots_restored, 0u);
  EXPECT_EQ(prefix.snapshots_evicted, 0u);
  EXPECT_EQ(prefix.cache_bytes_peak, 0u);
}

TEST(PrefixReplay, LexicographicSweepSkipsMostPrefixWork) {
  const Scenario sc = town_scenario();
  const RunOutput full = run_scenario(sc, 0, 1);
  const RunOutput incremental = run_scenario(sc, SIZE_MAX, 1);
  ASSERT_EQ(incremental.report.explored, full.report.explored);
  const uint64_t total = full.report.prefix.events_executed;
  const uint64_t executed = incremental.report.prefix.events_executed;
  EXPECT_EQ(executed + incremental.report.prefix.events_skipped, total);
  // ISSUE acceptance: >= 40% fewer events executed on a lexicographic sweep.
  EXPECT_LE(executed * 10, total * 6)
      << "only " << (100.0 - 100.0 * static_cast<double>(executed) / static_cast<double>(total))
      << "% reduction";
  EXPECT_GT(incremental.report.prefix.snapshots_taken, 0u);
  EXPECT_GT(incremental.report.prefix.snapshots_restored, 0u);
  EXPECT_GT(incremental.report.prefix.cache_bytes_peak, 0u);
}

TEST(PrefixReplay, DepthBudgetEvicts) {
  const Scenario sc = town_scenario();
  const RunOutput out = run_scenario(sc, 2, 1);
  // Each replay of the 6 units takes up to k-2 = 4 snapshots but only 2 may
  // stay.
  EXPECT_GT(out.report.prefix.snapshots_evicted, 0u);
  EXPECT_GT(out.report.prefix.snapshots_restored, 0u);
}

TEST(PrefixReplay, SnapshotMemoryAloneCrashesTheBudget) {
  const Scenario sc = town_scenario();
  constexpr uint64_t kCap = 40;
  // explored_log_entry_bytes for 11 events = 11*3 + 48 = 81. With the other
  // live-cache charge pinned to zero below, a budget of exactly cap * 81 is
  // never *exceeded* by the log, so any crash is attributable to retained
  // snapshot bytes alone.
  constexpr uint64_t kBudget = kCap * 81;
  auto run_budgeted = [&](size_t depth) {
    Scenario budgeted = sc;
    auto base_configure = sc.configure;
    budgeted.configure = [base_configure](Session::Config& config) {
      base_configure(config);
      config.replay.max_interleavings = kCap;
      config.replay.resource_budget_bytes = kBudget;
      // Suppress the session's default pruning-pipeline charge; this test
      // isolates log bytes vs snapshot bytes.
      config.replay.extra_cache_bytes = [] { return uint64_t{0}; };
    };
    return run_scenario(budgeted, depth, 1);
  };
  const RunOutput without = run_budgeted(0);
  EXPECT_FALSE(without.report.crashed);
  EXPECT_EQ(without.report.explored, kCap);

  const RunOutput with_snapshots = run_budgeted(SIZE_MAX);
  EXPECT_TRUE(with_snapshots.report.crashed);
  EXPECT_LT(with_snapshots.report.explored, kCap);
}

// ---------------------------------------------------------------------------
// Snapshot allocation failure: degrade, don't die
// ---------------------------------------------------------------------------

/// TownApp with a snapshot() that throws std::bad_alloc — every call, or
/// every call after the first `succeed_first` — standing in for a subject
/// whose checkpoint needs more heap than is left. Composition around TownApp
/// because SubjectBase::snapshot() is final.
class AllocFailingSnapshotTown : public proxy::Rdl {
 public:
  AllocFailingSnapshotTown(int replicas, int succeed_first)
      : inner_(replicas), succeed_first_(succeed_first) {}

  std::string name() const override { return inner_.name(); }
  int replica_count() const override { return inner_.replica_count(); }
  util::Result<util::Json> invoke(net::ReplicaId replica, const std::string& op,
                                  const util::Json& args) override {
    return inner_.invoke(replica, op, args);
  }
  util::Json replica_state(net::ReplicaId replica) const override {
    return inner_.replica_state(replica);
  }
  void reset() override { inner_.reset(); }
  proxy::Snapshot snapshot() override {
    if (calls_++ >= succeed_first_) throw std::bad_alloc();
    return inner_.snapshot();
  }
  bool restore(const proxy::Snapshot& snap) override { return inner_.restore(snap); }

 private:
  subjects::TownApp inner_;
  int succeed_first_;
  int calls_ = 0;  // per-fixture, like any real memory pressure would be
};

TEST(PrefixReplay, SnapshotBadAllocFallsBackToFullResetAndLatchesCounter) {
  const Scenario baseline_sc = town_scenario();
  auto failing_sc = [&](int succeed_first) {
    Scenario sc = baseline_sc;
    sc.make_subject = [succeed_first] {
      return std::make_unique<AllocFailingSnapshotTown>(2, succeed_first);
    };
    return sc;
  };
  const RunOutput baseline = run_scenario(baseline_sc, 0, 1);
  ASSERT_GT(baseline.report.explored, 0u);

  for (const int parallelism : {1, 4}) {
    // Every snapshot() call fails: the run must behave exactly like
    // depth 0 (all events executed from full resets), latch the counter,
    // and never let the bad_alloc escape a worker.
    const RunOutput out =
        run_scenario(failing_sc(0), /*max_snapshot_depth=*/SIZE_MAX, parallelism);
    const std::string label = "always-failing p=" + std::to_string(parallelism);
    if (parallelism > 1) {
      expect_invariant_fields_equal(out.report, baseline.report, label);
    } else {
      expect_reports_equal(out.report, baseline.report, label);
    }
    EXPECT_GT(out.report.prefix.snapshot_alloc_failures, 0u) << label;
    EXPECT_EQ(out.report.prefix.snapshots_taken, 0u) << label;
    EXPECT_EQ(out.report.prefix.snapshots_restored, 0u) << label;
    EXPECT_EQ(out.report.prefix.events_skipped, 0u) << label;
    EXPECT_EQ(out.report.prefix.cache_bytes_peak, 0u) << label;
  }

  // Memory pressure arriving mid-run: the first few snapshots land, later
  // ones fail. Cached prefixes keep getting reused; the report still matches.
  const RunOutput degraded = run_scenario(failing_sc(4), SIZE_MAX, 1);
  expect_reports_equal(degraded.report, baseline.report, "degrading");
  EXPECT_GT(degraded.report.prefix.snapshot_alloc_failures, 0u);
  EXPECT_GT(degraded.report.prefix.snapshots_taken, 0u);
}

// ---------------------------------------------------------------------------
// Placement: snapshot only where a later interleaving can resume
// ---------------------------------------------------------------------------

/// Town scenario under another exploration mode or order (cap 300, no stop).
Scenario town_with(ExplorationMode mode, GroupedEnumerator::Order order) {
  Scenario sc = town_scenario();
  sc.name = std::string(exploration_mode_name(mode)) +
            (order == GroupedEnumerator::Order::Lexicographic ? "-lex" : "-shuffled");
  auto base_configure = sc.configure;
  sc.configure = [base_configure, mode, order](Session::Config& config) {
    base_configure(config);
    config.mode = mode;
    config.generation_order = order;
  };
  sc.lexicographic = mode == ExplorationMode::Dfs ||
                     (mode == ExplorationMode::ErPi &&
                      order == GroupedEnumerator::Order::Lexicographic);
  return sc;
}

/// The report as JSON without its wall-clock field.
std::string report_without_timing(const ReplayReport& report) {
  util::Json j = report.to_json();
  j.as_object().erase("elapsed_seconds");
  return j.dump();
}

/// Snapshots a run of `sc` must take at unbounded depth on one worker, from
/// the boundary rule alone: each interleaving resumes at the deepest of the
/// previous one's first k-2 boundaries inside their common prefix and
/// snapshots its remaining boundaries up to the (k-2)-th.
uint64_t expected_snapshots(const Scenario& sc) {
  auto subject = sc.make_subject();
  proxy::RdlProxy proxy(*subject);
  Session::Config config;
  sc.configure(config);
  config.replay.max_interleavings = 300;
  Session session(proxy, std::move(config));
  session.start();
  sc.workload(proxy);
  session.finish_capture();
  auto enumerator = session.make_enumerator();
  const std::vector<bool> boundaries = checkpoint_boundaries(*enumerator, session.events());
  const auto k = static_cast<uint64_t>(std::count(boundaries.begin(), boundaries.end(), true));
  uint64_t total = 0;
  std::optional<Interleaving> prev;
  for (uint64_t i = 0; i < 300; ++i) {
    auto il = enumerator->next();
    if (!il) break;
    const size_t common = prev ? common_prefix_len(*prev, *il) : 0;
    uint64_t shared = 0;  // boundaries inside the common prefix
    for (size_t pos = 0; pos < common; ++pos) shared += boundaries[il->order[pos]] ? 1 : 0;
    total += k - 2 - std::min(shared, k - 2);
    prev = std::move(il);
  }
  return total;
}

TEST(PrefixPlacement, RandomizedOrdersNeverSnapshot) {
  for (const auto& sc : {town_with(ExplorationMode::ErPi, GroupedEnumerator::Order::Shuffled),
                         town_with(ExplorationMode::Rand, GroupedEnumerator::Order::Shuffled)}) {
    for (const int parallelism : {1, 4}) {
      const std::string label = sc.name + " p=" + std::to_string(parallelism);
      const RunOutput full = run_scenario(sc, 0, parallelism);
      const RunOutput cached = run_scenario(sc, SIZE_MAX, parallelism);
      ASSERT_GT(full.report.explored, 0u) << label;
      EXPECT_EQ(cached.report.prefix.snapshots_taken, 0u) << label;
      EXPECT_EQ(cached.report.prefix.cache_bytes_peak, 0u) << label;
      // The cache never built anything, so the whole report — prefix
      // counters included — is the depth-0 report.
      EXPECT_EQ(report_without_timing(cached.report), report_without_timing(full.report))
          << label;
    }
  }
}

TEST(PrefixPlacement, GroupedLexSnapshotsOnlyAtUnitEnds) {
  // Drive the cache the way ReplayEngine::replay_one does, watching the
  // snapshot counter after every executed event to learn each snapshot's
  // depth.
  const Scenario sc = town_scenario();
  auto subject = sc.make_subject();
  proxy::RdlProxy proxy(*subject);
  proxy.start_capture();
  sc.workload(proxy);
  const EventSet events = proxy.end_capture();
  const auto units = build_units(events, {{0, 1, 2}, {3, 4, 5}});
  const size_t k = units.size();
  ASSERT_EQ(k, 6u);  // two spec groups, the resolve's sync pair, three singletons
  GroupedEnumerator enumerator(units, GroupedEnumerator::Order::Lexicographic);

  PrefixReplayStats stats;
  PrefixCache cache(SIZE_MAX, &stats);
  cache.set_boundaries(checkpoint_boundaries(enumerator, events));
  uint64_t replays = 0;
  while (auto il = enumerator.next()) {
    if (++replays > 300) break;
    std::vector<util::Result<util::Json>> results;
    const size_t start = cache.begin_replay(*subject, *il, results);
    if (start == 0) {
      subject->reset();
      results.clear();
    }
    // Unit ends of this interleaving, by depth.
    std::vector<size_t> unit_ends;
    for (size_t pos = 0; pos < il->size(); ++pos) {
      for (const auto& unit : units) {
        if (unit.events.back() == il->order[pos]) unit_ends.push_back(pos + 1);
      }
    }
    ASSERT_EQ(unit_ends.size(), k);
    uint64_t taken = 0;
    for (size_t pos = start; pos < il->size(); ++pos) {
      results.emplace_back(proxy.invoke(events.at(static_cast<size_t>(il->order[pos]))));
      const uint64_t before = stats.snapshots_taken;
      cache.note_executed(*subject, *il, pos);
      if (stats.snapshots_taken == before) continue;
      ++taken;
      const size_t depth = pos + 1;
      const auto it = std::find(unit_ends.begin(), unit_ends.end(), depth);
      ASSERT_NE(it, unit_ends.end()) << "snapshot at depth " << depth << " inside a unit of "
                                     << il->key();
      EXPECT_LT(static_cast<size_t>(it - unit_ends.begin()), k - 2)
          << "snapshot after the last two units of " << il->key();
    }
    EXPECT_LE(taken, k - 2) << il->key();
    cache.end_replay(*il, results);
  }
  EXPECT_GT(stats.snapshots_taken, 0u);
  EXPECT_GT(stats.snapshots_restored, 0u);
}

TEST(PrefixPlacement, SnapshotCountsFollowTheBoundaryRule) {
  // Counts of the same two runs when the cache snapshotted after every event
  // up to depth n-2, before placement followed the enumerator.
  constexpr uint64_t kPerEventDfsSnapshots = 221;
  constexpr uint64_t kPerEventLexSnapshots = 735;
  constexpr uint64_t kPerEventLexEventsSkipped = 1965;

  const Scenario lex = town_with(ExplorationMode::ErPi, GroupedEnumerator::Order::Lexicographic);
  const Scenario dfs = town_with(ExplorationMode::Dfs, GroupedEnumerator::Order::Lexicographic);
  const RunOutput lex_run = run_scenario(lex, SIZE_MAX, 1);
  const RunOutput dfs_run = run_scenario(dfs, SIZE_MAX, 1);
  for (const auto& [sc, out] : {std::pair{&lex, &lex_run}, std::pair{&dfs, &dfs_run}}) {
    ASSERT_EQ(out->report.explored, 300u) << sc->name;
    EXPECT_EQ(out->report.prefix.snapshots_taken, expected_snapshots(*sc)) << sc->name;
  }
  // DFS checkpoints after every event, as before.
  EXPECT_EQ(dfs_run.report.prefix.snapshots_taken, kPerEventDfsSnapshots);
  // Grouped-lex drops only the snapshots no replay resumed from: far fewer
  // taken, the same events skipped.
  EXPECT_LT(lex_run.report.prefix.snapshots_taken * 2, kPerEventLexSnapshots);
  EXPECT_EQ(lex_run.report.prefix.events_skipped, kPerEventLexEventsSkipped);
  // Per-worker caches obey the same per-replay bound: at most k-2 = 4.
  const RunOutput parallel = run_scenario(lex, SIZE_MAX, 4);
  EXPECT_LE(parallel.report.prefix.snapshots_taken, parallel.report.explored * 4);
  EXPECT_GT(parallel.report.prefix.snapshots_restored, 0u);
}

}  // namespace
}  // namespace erpi::core
