// The benchmark's four workloads (see ../README.md for why each exists).
//
// Every workload runs against the library's public API only. An untraced
// run yields the end-to-end metrics; a traced run installs the timing probes
// of probes.hpp and yields the per-layer metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/assertions.hpp"
#include "core/session.hpp"
#include "proxy/rdl.hpp"
#include "util/json.hpp"

namespace erpibench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory holding the recorded expected reports (the correctness gates).
  std::string expected_dir;
  /// Scratch directory for stores, journals and sockets; relative paths in
  /// it must stay short (AF_UNIX socket paths).
  std::string work_dir = ".";
  /// Re-record the expected reports from the plain configuration instead of
  /// measuring.
  bool record = false;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  erpi::util::Json metrics = erpi::util::Json::object();

  void metric(const std::string& name, double value, const char* unit);
  void mismatch(const std::string& what);
};

/// Runs one workload; throws std::invalid_argument on an unknown name.
Outcome run_workload(const Options& options);

// ---- fixtures shared with the transparency tests --------------------------

/// Worker count for the parallel workloads: one worker per core left after
/// the dispatcher and the committer threads, at least one.
int sweep_workers();

/// The town fixture, timed (probes.hpp) or plain.
std::unique_ptr<erpi::proxy::Rdl> make_town(bool timed);

/// Stable report of one full town-sweep / fault-sweep exploration.
/// `probes` installs every timing wrapper the traced run uses.
erpi::util::Json town_sweep_report(int parallelism, std::optional<size_t> snapshot_depth,
                                   bool probes);
erpi::util::Json fault_sweep_report(int parallelism, std::optional<size_t> snapshot_depth,
                                    bool probes, const std::string& store_dir);

/// Stable report of one Table-1 bug hunt in default ER-pi mode.
erpi::util::Json hunt_report(const std::string& bug, uint64_t random_seed, bool probes);

/// Direct (daemon-less) stable report of one service-jobs job template.
erpi::util::Json service_direct_report(const std::string& scenario, bool probes);
const std::vector<std::string>& service_scenarios();

}  // namespace erpibench
