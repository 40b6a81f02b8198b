// Replay-engine tests: reset-per-interleaving, violation reporting, caps,
// resource budget, fast-vs-threaded equivalence under the distributed lock.
// Runs go through the explorer's one-worker loop over the fixture's live
// proxy, the way Session::end drives them.
#include <gtest/gtest.h>

#include "core/replay.hpp"
#include "core/session.hpp"
#include "kvstore/server.hpp"
#include "sched/explorer.hpp"
#include "subjects/town.hpp"

namespace erpi::core {
namespace {

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

struct Fixture {
  Fixture() : town(2), proxy(town) {
    proxy.start_capture();
    proxy.update(0, "report", problem("otb"));
    proxy.sync_req(0, 1);
    proxy.exec_sync(0, 1);
    proxy.update(1, "resolve", problem("otb"));
    proxy.sync_req(1, 0);
    proxy.exec_sync(1, 0);
    proxy.query(0, "transmit");
    events = proxy.end_capture();
    units = build_units(events);
  }

  std::unique_ptr<Enumerator> enumerator() {
    return std::make_unique<GroupedEnumerator>(units);
  }

  subjects::TownApp town;
  proxy::RdlProxy proxy;
  proxy::EventSet events;
  std::vector<EventUnit> units;
};

/// One worker, inline, borrowing the fixture's proxy and `assertions`.
ReplayReport run_replay(Fixture& fx, const ReplayOptions& options, Enumerator& enumerator,
                        const AssertionList& assertions) {
  sched::ExplorerOptions explorer_options;
  explorer_options.parallelism = 1;
  explorer_options.replay = options;
  sched::ParallelExplorer explorer(std::move(explorer_options));
  return explorer.run(enumerator, fx.events, fx.proxy, assertions);
}

TEST(ReplayEngine, ExploresWholeUniverseWithoutStopOnViolation) {
  Fixture fx;
  ReplayOptions options;
  options.stop_on_violation = false;
  options.max_interleavings = 1000;
  auto enumerator = fx.enumerator();
  util::Json expected = util::Json::array();  // empty transmission
  const auto report =
      run_replay(fx, options, *enumerator, {query_result_equals(6, expected)});
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.explored, 120u);  // 5 units
  EXPECT_GT(report.violations, 0u);  // the synced interleavings transmit {otb}
  EXPECT_LT(report.violations, report.explored);
}

TEST(ReplayEngine, StopsAtFirstViolation) {
  Fixture fx;
  ReplayOptions options;
  auto enumerator = fx.enumerator();
  // identity order transmits {} (otb resolved); expecting {otb} violates later
  util::Json expected = util::Json::array();
  expected.push_back("otb");
  const auto report =
      run_replay(fx, options, *enumerator, {query_result_equals(6, expected)});
  ASSERT_TRUE(report.reproduced);
  EXPECT_EQ(report.violations, 1u);
  EXPECT_EQ(report.first_violation_index, 1u);  // identity itself violates here
  ASSERT_TRUE(report.first_violation);
  EXPECT_FALSE(report.messages.empty());
  EXPECT_EQ(report.first_violation_assertion, "query_result_equals");
}

TEST(ReplayEngine, EachInterleavingStartsFromInitialState) {
  Fixture fx;
  ReplayOptions options;
  options.stop_on_violation = false;
  options.max_interleavings = 10;
  bool state_leak = false;
  options.on_interleaving_done = [&](uint64_t, const Interleaving&) {
    // after each interleaving, replica 0 holds at most one problem; if state
    // leaked across interleavings the set would accumulate
    const auto state = fx.town.replica_state(0);
    if (state["problems"].size() > 1) state_leak = true;
  };
  auto enumerator = fx.enumerator();
  run_replay(fx, options, *enumerator, {});
  EXPECT_FALSE(state_leak);
}

TEST(ReplayEngine, HonorsInterleavingCap) {
  Fixture fx;
  ReplayOptions options;
  options.max_interleavings = 7;
  options.stop_on_violation = false;
  auto enumerator = fx.enumerator();
  const auto report = run_replay(fx, options, *enumerator, {});
  EXPECT_EQ(report.explored, 7u);
  EXPECT_TRUE(report.hit_cap);
  EXPECT_FALSE(report.exhausted);
}

TEST(ReplayEngine, CrashesWhenResourceBudgetExceeded) {
  Fixture fx;
  ReplayOptions options;
  options.stop_on_violation = false;
  options.resource_budget_bytes = 600;  // a handful of explored-log entries
  auto enumerator = fx.enumerator();
  const auto report = run_replay(fx, options, *enumerator, {});
  EXPECT_TRUE(report.crashed);
  EXPECT_LT(report.explored, 120u);
}

TEST(ReplayEngine, ThreadedModeMatchesFastMode) {
  Fixture fast_fx;
  ReplayOptions fast_options;
  fast_options.stop_on_violation = false;
  fast_options.max_interleavings = 24;
  auto fast_enum = fast_fx.enumerator();
  util::Json expected = util::Json::array();
  const auto fast_report =
      run_replay(fast_fx, fast_options, *fast_enum, {query_result_equals(6, expected)});

  Fixture threaded_fx;
  kv::Server lock_server;
  ReplayOptions threaded_options;
  threaded_options.stop_on_violation = false;
  threaded_options.max_interleavings = 24;
  threaded_options.threaded = true;
  threaded_options.lock_server = &lock_server;
  auto threaded_enum = threaded_fx.enumerator();
  const auto threaded_report = run_replay(threaded_fx, threaded_options, *threaded_enum,
                                          {query_result_equals(6, expected)});

  EXPECT_EQ(fast_report.explored, threaded_report.explored);
  EXPECT_EQ(fast_report.violations, threaded_report.violations);
}

TEST(ReplayReport, JsonSerialization) {
  Fixture fx;
  ReplayOptions options;
  auto enumerator = fx.enumerator();
  util::Json expected = util::Json::array();
  expected.push_back("otb");
  const auto report =
      run_replay(fx, options, *enumerator, {query_result_equals(6, expected)});
  const auto j = report.to_json();
  EXPECT_EQ(j["reproduced"].as_bool(), report.reproduced);
  EXPECT_EQ(j["explored"].as_int(), static_cast<int64_t>(report.explored));
  EXPECT_EQ(j["first_violation"].as_string(), report.first_violation->key());
  EXPECT_FALSE(j["messages"].as_array().empty());
  // round-trips through the JSON layer
  EXPECT_TRUE(util::Json::parse(j.dump()).take() == j);
}

TEST(ReplayEngine, ThreadedModeRequiresLockServer) {
  Fixture fx;
  ReplayOptions options;
  options.threaded = true;
  EXPECT_THROW(ReplayEngine(fx.proxy, options), std::invalid_argument);
}

}  // namespace
}  // namespace erpi::core
