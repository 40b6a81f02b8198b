// Shared pieces of the workloads: statistics, result files, and the two
// metric sets (end-to-end from the untraced run, per-layer from the traced
// run). Private to the benchmark.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/assertions.hpp"
#include "core/prefix_cache.hpp"
#include "core/replay.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace erpibench {

// ---- statistics -----------------------------------------------------------

/// Harrell-Davis estimate of the q-quantile (q in (0, 1)): a Beta-weighted
/// average of every order statistic. Unlike a single order statistic it does
/// not jump when the sample has a gap at the quantile (the Table-1 bugs
/// fall into clusters an order of magnitude apart). 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
/// num / den, or 0 when den is not positive.
double ratio(double num, double den);

/// Prints a timing's sample count and how many samples lie beyond the
/// reported percentile, so an unsupported percentile is visible.
void note_samples(const char* what, const std::vector<double>& samples, double q);

uint64_t self_peak_rss_kb();

/// A seed for sub-stream `index` of the workload seed `seed`.
uint64_t derive_seed(uint64_t seed, uint64_t index);
/// Uniform in [0, 1), independent of the standard library's distributions.
double unit_uniform(std::mt19937_64& rng);

// ---- files ----------------------------------------------------------------

std::optional<erpi::util::Json> read_json(const std::string& path);
void write_json(const std::string& path, const erpi::util::Json& j);
/// `<expected_dir>/<name>.json`; a missing file is a gate mismatch.
erpi::util::Json expected_report(const Options& options, const std::string& name,
                                 Outcome& out);

// ---- metrics ----------------------------------------------------------------

Counters operator-(const Counters& a, const Counters& b);
void operator+=(Counters& a, const Counters& b);

/// Everything the traced run feeds into the per-layer metrics. Fields a
/// workload does not exercise stay zero and print as zero.
struct Layers {
  uint64_t pairs = 0;
  Counters counters{};
  double gen_ns = 0;
  uint64_t gen_candidates = 0;
  uint64_t admitted = 0;
  uint64_t examined = 0;
  erpi::core::PrefixReplayStats prefix;
  erpi::core::ExplorerStats explorer;
  std::vector<double> commit_gaps_us;
  uint64_t plans = 0;
  std::vector<double> plan_switch_ms;
  std::vector<double> admit_ms;
  uint64_t backlog_max = 0;
  uint64_t admissions = 0;
  uint64_t rejected = 0;
  std::vector<double> lag_ms;
  /// Jobs per second a closed loop drew from the daemon.
  double capacity_jobs_per_s = 0;
  /// Exploration-call wall time times the threads replaying in it.
  double busy_ns = 0;
  double traced_wall_ns = 0;
  double untraced_wall_ns = 0;
};


void emit_layers(Outcome& out, const Layers& d);

/// Every end-to-end metric, from the untraced run's samples.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> ttfv_ms;
  std::vector<double> job_ms;
  /// The timing samples above, in time order, fall into this many equal
  /// consecutive windows: each percentile is taken per window and the median
  /// over windows is reported.
  size_t windows = 1;
  /// Report each median as that of the fastest window instead of the median
  /// over windows.
  bool best_window = false;
  double pairs = 0;
  double explore_s = 0;
  double max_rate = 0;
  double peak_rss_mb = 0;
};

/// The q-percentile of each of `windows` equal consecutive slices of
/// `samples`, in order.
std::vector<double> window_percentiles(const std::vector<double>& samples, size_t windows,
                                       double q);
/// Median over the windows of window_percentiles.
double windowed_percentile(const std::vector<double>& samples, size_t windows, double q);

void emit_end_to_end(Outcome& out, const EndToEnd& e);

erpi::core::AssertionList maybe_timed(erpi::core::AssertionList assertions, bool probes);

/// The service-jobs workload (service_jobs.cpp).
void run_service(const Options& options, Outcome& out);

}  // namespace erpibench
