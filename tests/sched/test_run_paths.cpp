// Differential check across the ways a run can start. Session::end with an
// assertion list and end with an assertion factory at parallelism 1 run the
// explorer's inline worker over the live proxy; end with a factory at
// parallelism 4 runs a factory-built pool. All three must commit the same
// report for every Table 1 bug, at the Fig. 8 ER-π first-violation index —
// and a parallelism-1 run must start no thread at all.
#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <map>
#include <string>

#include "bugs/registry.hpp"
#include "core/session.hpp"
#include "sched/explorer.hpp"
#include "service/job.hpp"

namespace erpi::sched {
namespace {

using core::AssertionList;
using core::ReplayReport;
using core::Session;

enum class EndPath { AssertionList, Factory };

/// bugs::run_bug's ER-π configuration (seed 42, stop at the first
/// violation), ended through `path` at `parallelism`.
ReplayReport hunt(const bugs::BugScenario& bug, EndPath path, int parallelism,
                  const AssertionList& extra = {}) {
  auto subject = bug.make_subject();
  proxy::RdlProxy proxy(*subject);
  Session::Config config;
  config.mode = core::ExplorationMode::ErPi;
  config.replay.max_interleavings = 10'000;
  config.replay.stop_on_violation = true;
  config.random_seed = 42;
  if (bug.configure) bug.configure(config);
  config.parallelism = parallelism;
  config.subject_factory = bug.make_subject;
  Session session(proxy, std::move(config));
  session.start();
  bug.workload(proxy);
  AssertionList assertions = bug.assertions();
  assertions.insert(assertions.end(), extra.begin(), extra.end());
  if (path == EndPath::AssertionList) return session.end(assertions);
  return session.end([&bug](proxy::Rdl&) { return bug.assertions(); });
}

/// Threads of this process, from the /proc/self/task entries.
size_t thread_count() {
  size_t count = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    closedir(dir);
  }
  return count;
}

TEST(RunPaths, EveryBugCommitsTheSameReportOnEveryPath) {
  // Fig. 8's ER-π interleavings to the first violation (seed 42).
  const std::map<std::string, uint64_t> fig8 = {
      {"Roshi-1", 1},     {"Roshi-2", 5},      {"Roshi-3", 230},  {"OrbitDB-1", 4},
      {"OrbitDB-2", 2},   {"OrbitDB-3", 5},    {"OrbitDB-4", 165}, {"OrbitDB-5", 9},
      {"ReplicaDB-1", 18}, {"ReplicaDB-2", 2}, {"Yorkie-1", 33},  {"Yorkie-2", 294}};
  ASSERT_EQ(bugs::all_bugs().size(), fig8.size());
  for (const auto& bug : bugs::all_bugs()) {
    const ReplayReport list = hunt(bug, EndPath::AssertionList, 1);
    ASSERT_TRUE(list.reproduced) << bug.name;
    EXPECT_EQ(list.first_violation_index, fig8.at(bug.name)) << bug.name;
    const std::string expected = service::stable_report_json(list).dump();
    for (const int parallelism : {1, 4}) {
      const ReplayReport factory = hunt(bug, EndPath::Factory, parallelism);
      EXPECT_EQ(service::stable_report_json(factory).dump(), expected)
          << bug.name << " end(AssertionFactory) p=" << parallelism;
    }
  }
}

TEST(RunPaths, ParallelismOneStartsNoThread) {
  // The assertion runs inside the replay loop, so it sees every thread the
  // run has started by then.
  const size_t before = thread_count();
  size_t most = 0;
  const AssertionList probe = {core::custom("thread-count", [&](const core::TestContext&) {
    most = std::max(most, thread_count());
    return util::Status::ok();
  })};
  const auto& bug = bugs::find_bug("Roshi-3");  // 230 replays before it stops

  // Over the live proxy: Session::end(AssertionList).
  const ReplayReport borrowed = hunt(bug, EndPath::AssertionList, 1, probe);
  ASSERT_EQ(borrowed.first_violation_index, 230u);
  EXPECT_EQ(most, before);

  // Over a factory-built fixture: one explorer worker (a fault plan's sweep).
  most = 0;
  auto subject = bug.make_subject();
  proxy::RdlProxy proxy(*subject);
  Session session(proxy, {});
  session.start();
  bug.workload(proxy);
  session.finish_capture();
  ExplorerOptions options;
  options.parallelism = 1;
  options.replay.stop_on_violation = false;
  options.replay.max_interleavings = 100;
  options.subject_factory = bug.make_subject;
  options.assertion_factory = [&](proxy::Rdl&) { return probe; };
  ParallelExplorer explorer(std::move(options));
  auto enumerator = session.make_enumerator();
  const ReplayReport built = explorer.run(*enumerator, session.events());
  ASSERT_EQ(built.explored, 100u);
  EXPECT_EQ(most, before);
}

}  // namespace
}  // namespace erpi::sched
