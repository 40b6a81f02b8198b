// erpibench: runs one benchmark workload and prints its metrics.
//
//   erpibench --workload NAME --seed N --seconds S --trace 0|1
//             --expected DIR [--work-dir DIR] [--record]
//
// Human-readable notes go to stdout first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The untraced run
// (--trace 0) prints the end-to-end metrics, the traced run (--trace 1) the
// per-layer metrics. Exits 1 when a correctness gate fails, 2 on bad usage.
// --record rewrites the expected reports from the plain configuration.
#include <fcntl.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "erpibench: %s\nusage: erpibench --workload NAME --seed N --seconds S "
               "--trace 0|1 --expected DIR [--work-dir DIR] [--record]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  erpibench::Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--record") {
        options.record = true;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value == "1";
      } else if (arg == "--expected") {
        options.expected_dir = value;
      } else if (arg == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (options.workload.empty() || options.expected_dir.empty()) {
    return usage("--workload and --expected are required");
  }

  std::printf("erpibench %s seed=%" PRIu64 " seconds=%g trace=%d\n", options.workload.c_str(),
              options.seed, options.seconds, options.trace ? 1 : 0);
  // Earlier runs leave megabytes of journals and reports dirty in the page
  // cache. Flush them before anything is timed, so that their write-back
  // does not land inside this run's measurements.
  if (const int dir = ::open(options.work_dir.c_str(), O_RDONLY | O_DIRECTORY); dir >= 0) {
    ::syncfs(dir);
    ::close(dir);
  }
  erpibench::Outcome outcome;
  try {
    outcome = erpibench::run_workload(options);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "erpibench: %s\n", ex.what());
    return 2;
  }
  if (options.record) return 0;
  if (options.trace) {
    const std::string path = options.work_dir + "/trace-" + options.workload + ".jsonl";
    if (!erpibench::write_spans(path)) std::fprintf(stderr, "erpibench: could not write %s\n", path.c_str());
  }

  erpi::util::Json result = erpi::util::Json::object();
  result["correct"] = outcome.correct;
  result["attempted"] = outcome.attempted;
  result["failed"] = outcome.failed;
  result["metrics"] = outcome.metrics;
  std::printf("  failed_share %.6f (%" PRIu64 " of %" PRIu64 " operations)\n",
              outcome.attempted ? static_cast<double>(outcome.failed) /
                                      static_cast<double>(outcome.attempted)
                                : 0.0,
              outcome.failed, outcome.attempted);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
