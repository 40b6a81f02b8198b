// Parallel exploration scaling sweep: replays a fixed pruned universe
// (7 units -> 5040 interleavings of the town app) with sched::ParallelExplorer
// — first the "sequential" row, one inline worker over a borrowed fixture
// (what Session::end runs), then factory-built pools at increasing worker
// counts — and emits a BENCH_*.json-style document with interleavings/sec
// and speedup vs the sequential row. The sweep also cross-checks the
// determinism guarantee: every run must report identical explored /
// violations counts.
//
// Usage: bench_parallel [--workers 1,2,4,8] [--cap N] [--out BENCH_parallel.json]
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "sched/explorer.hpp"
#include "subjects/town.hpp"
#include "util/stopwatch.hpp"

using namespace erpi;

namespace {

util::Json problem(const char* name) {
  util::Json j = util::Json::object();
  j["problem"] = name;
  return j;
}

/// Capture the fixed workload: 12 events, grouped into 7 units -> 5040
/// interleavings.
core::EventSet capture_events() {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  proxy.start_capture();
  (void)proxy.update(0, "report", problem("otb"));   // e0 ┐
  (void)proxy.sync_req(0, 1);                        // e1 │ unit 1
  (void)proxy.exec_sync(0, 1);                       // e2 ┘
  (void)proxy.update(1, "report", problem("ph"));    // e3 ┐
  (void)proxy.sync_req(1, 0);                        // e4 │ unit 2
  (void)proxy.exec_sync(1, 0);                       // e5 ┘
  (void)proxy.update(1, "resolve", problem("otb"));  // e6   unit 3
  (void)proxy.sync_req(1, 0);                        // e7 ┐ unit 4 (auto-pair)
  (void)proxy.exec_sync(1, 0);                       // e8 ┘
  (void)proxy.update(0, "report", problem("lamp"));  // e9   unit 5
  (void)proxy.update(1, "report", problem("pipe"));  // e10  unit 6
  (void)proxy.query(0, "transmit");                  // e11  unit 7
  return proxy.end_capture();
}

core::AssertionList make_assertions() {
  // what the identity interleaving transmits at replica 0 (OrSet sorted)
  util::Json expected = util::Json::array();
  expected.push_back("lamp");
  expected.push_back("ph");
  return {core::query_result_equals(11, expected)};
}

struct RunResult {
  uint64_t explored = 0;
  uint64_t violations = 0;
  double seconds = 0;
};

RunResult run_sequential(const core::EventSet& events, const std::vector<core::EventUnit>& units,
                         uint64_t cap) {
  subjects::TownApp town(2);
  proxy::RdlProxy proxy(town);
  sched::ExplorerOptions options;
  options.parallelism = 1;
  options.replay.stop_on_violation = false;
  options.replay.max_interleavings = cap;
  sched::ParallelExplorer explorer(std::move(options));
  core::GroupedEnumerator enumerator(units);
  const auto report = explorer.run(enumerator, events, proxy, make_assertions());
  return {report.explored, report.violations, report.elapsed_seconds};
}

RunResult run_parallel(const core::EventSet& events, const std::vector<core::EventUnit>& units,
                       uint64_t cap, int workers) {
  sched::ExplorerOptions options;
  options.parallelism = workers;
  options.replay.stop_on_violation = false;
  options.replay.max_interleavings = cap;
  options.subject_factory = [] { return std::make_unique<subjects::TownApp>(2); };
  options.assertion_factory = [](proxy::Rdl&) { return make_assertions(); };
  sched::ParallelExplorer explorer(std::move(options));
  core::GroupedEnumerator enumerator(units);
  const auto report = explorer.run(enumerator, events);
  return {report.explored, report.violations, report.elapsed_seconds};
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> worker_counts = {1, 2, 4, 8};
  uint64_t cap = 100'000;  // the 5040-interleaving universe fits under this
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cap") == 0 && i + 1 < argc) cap = std::stoull(argv[++i]);
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      worker_counts.clear();
      std::string spec = argv[++i];
      for (size_t pos = 0; pos < spec.size();) {
        const size_t comma = spec.find(',', pos);
        int n = 0;
        try {
          n = std::stoi(spec.substr(pos, comma - pos));
        } catch (const std::exception&) {
          n = 0;
        }
        if (n < 1) {
          std::fprintf(stderr, "bench_parallel: --workers wants a comma-separated list of positive ints, got '%s'\n",
                       spec.c_str());
          return 2;
        }
        worker_counts.push_back(n);
        pos = comma == std::string::npos ? spec.size() : comma + 1;
      }
    }
  }

  const auto events = capture_events();
  const auto units = core::build_units(events, {{0, 1, 2}, {3, 4, 5}});
  const uint64_t universe = core::factorial_saturated(units.size());
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== Parallel exploration sweep: %zu units, %" PRIu64
              " interleavings, %u core%s ===\n\n",
              units.size(), universe, cores, cores == 1 ? "" : "s");

  const RunResult sequential = run_sequential(events, units, cap);
  const double seq_rate = static_cast<double>(sequential.explored) / sequential.seconds;
  std::printf("  sequential (inline): %6" PRIu64 " interleavings in %7.3fs  (%8.0f il/s)\n",
              sequential.explored, sequential.seconds, seq_rate);

  util::Json doc = util::Json::object();
  doc["bench"] = "parallel";
  doc["subject"] = "town";
  doc["hardware_cores"] = static_cast<int64_t>(cores);
  doc["units"] = static_cast<int64_t>(units.size());
  doc["universe"] = static_cast<int64_t>(universe);
  doc["explored"] = static_cast<int64_t>(sequential.explored);
  util::Json seq = util::Json::object();
  seq["seconds"] = sequential.seconds;
  seq["interleavings_per_sec"] = seq_rate;
  doc["sequential"] = std::move(seq);

  bool deterministic = true;
  util::Json runs = util::Json::array();
  for (const int workers : worker_counts) {
    const RunResult result = run_parallel(events, units, cap, workers);
    const double rate = static_cast<double>(result.explored) / result.seconds;
    const double speedup = sequential.seconds / result.seconds;
    std::printf("  %2d worker%s:        %8" PRIu64 " interleavings in %7.3fs  (%8.0f il/s, %5.2fx)\n",
                workers, workers == 1 ? " " : "s", result.explored, result.seconds, rate,
                speedup);
    if (result.explored != sequential.explored || result.violations != sequential.violations) {
      std::printf("  !! determinism check FAILED at %d workers (explored %" PRIu64
                  " vs %" PRIu64 ", violations %" PRIu64 " vs %" PRIu64 ")\n",
                  workers, result.explored, sequential.explored, result.violations,
                  sequential.violations);
      deterministic = false;
    }
    if (static_cast<unsigned>(workers) > cores) {
      std::printf("     (core-bound: %d workers on %u core%s; speedup is capped at %u)\n",
                  workers, cores, cores == 1 ? "" : "s", cores);
    }
    util::Json row = util::Json::object();
    row["workers"] = static_cast<int64_t>(workers);
    row["explored"] = static_cast<int64_t>(result.explored);
    row["violations"] = static_cast<int64_t>(result.violations);
    row["seconds"] = result.seconds;
    row["interleavings_per_sec"] = rate;
    row["speedup_vs_sequential"] = speedup;
    runs.push_back(std::move(row));
  }
  doc["runs"] = std::move(runs);
  doc["deterministic"] = deterministic;

  std::printf("\n%s\n", doc.dump().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << doc.dump() << "\n";
    if (out.good()) {
      std::printf("(written to %s)\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "bench_parallel: could not write %s\n", out_path.c_str());
      return 2;
    }
  }
  return deterministic ? 0 : 1;
}
