// Decorator transparency: the traced run's timing wrappers (subject
// subclass/decorator, assertion wrapper, timed journal and corpus streams)
// must not change what any workload computes. For each workload the stable
// report with every probe installed is byte-identical to the report without
// them.
#include <gtest/gtest.h>

#include <filesystem>

#include "bugs/registry.hpp"
#include "subjects/subject_base.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using erpibench::Counter;

/// Path prefix for a fault sweep's journal and corpus in a fresh directory.
std::string fresh_store_prefix(const char* name) {
  const auto dir = std::filesystem::current_path() / "transparency-stores" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return (dir / "fault").string();
}

TEST(Transparency, TableOneHuntReportsUnchanged) {
  for (const auto& bug : erpi::bugs::all_bugs()) {
    for (const uint64_t seed : {42u, 7u}) {
      EXPECT_EQ(erpibench::hunt_report(bug.name, seed, false).dump(),
                erpibench::hunt_report(bug.name, seed, true).dump())
          << bug.name << " seed " << seed;
    }
  }
}

TEST(Transparency, TownSweepReportUnchanged) {
  const int workers = erpibench::sweep_workers();
  const auto plain = erpibench::town_sweep_report(workers, std::nullopt, false);
  erpibench::reset_counters();
  const auto probed = erpibench::town_sweep_report(workers, std::nullopt, true);
  EXPECT_EQ(plain.dump(), probed.dump());
  // The probes really were on.
  const auto counters = erpibench::counter_totals();
  EXPECT_GT(erpibench::at(counters, Counter::InvokeCount), 0u);
  EXPECT_GT(erpibench::at(counters, Counter::AssertCount), 0u);
}

TEST(Transparency, FaultSweepReportUnchanged) {
  const int workers = erpibench::sweep_workers();
  const auto plain = erpibench::fault_sweep_report(workers, std::nullopt, false, fresh_store_prefix("plain"));
  erpibench::reset_counters();
  const auto probed = erpibench::fault_sweep_report(workers, std::nullopt, true, fresh_store_prefix("probed"));
  EXPECT_EQ(plain.dump(), probed.dump());
  const auto counters = erpibench::counter_totals();
  EXPECT_GT(erpibench::at(counters, Counter::JournalBytes), 0u);
  EXPECT_GT(erpibench::at(counters, Counter::CorpusBytes), 0u);
}

TEST(Transparency, FaultSweepSubjectIsStillASubjectBase) {
  // faults::PlanRuntime dynamic_casts the subject to SubjectBase; a plain
  // decorator would silently turn every fault plan into a no-op.
  const auto town = erpibench::make_town(true);
  EXPECT_NE(dynamic_cast<erpi::subjects::SubjectBase*>(town.get()), nullptr);
  // ... and the plans still fire: the first violation comes from a
  // dropped sync, which only a live fault plan can cause.
  const auto probed = erpibench::fault_sweep_report(1, 0, true, fresh_store_prefix("fires"));
  EXPECT_EQ(probed["first_violation_plan"].as_string().rfind("drop:", 0), 0u)
      << probed["first_violation_plan"].dump();
  EXPECT_GT(probed["violations"].as_int(), 0);
}

TEST(Transparency, ServiceJobReportsUnchanged) {
  for (const auto& scenario : erpibench::service_scenarios()) {
    EXPECT_EQ(erpibench::service_direct_report(scenario, false).dump(),
              erpibench::service_direct_report(scenario, true).dump())
        << scenario;
  }
}

}  // namespace
