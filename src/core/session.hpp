// The ER-pi developer-facing API (paper §4, §5.2): the higher-order
// Start()/End() pair that brackets the application-logic segment under test.
//
//   erpi::core::Session session(proxy, config);
//   session.start();
//   ... application workload calling the RDL through `proxy` ...
//   auto report = session.end({assertion, ...});
//
// end() runs the full workflow of Procedure "Workflow": extract the captured
// events, build units (Event Grouping + spec groups), generate interleavings
// in the configured exploration mode, prune (Replica-Specific up front;
// Event-Independence / Failed-Ops from config and from runtime constraint
// files), persist to the Datalog store, replay every surviving interleaving,
// and evaluate the test assertions after each one.
//
// Parallel exploration (src/sched/): set config.parallelism > 1, hand start()
// a replica-set factory that clones the subject fixture, and call the
// end(AssertionFactory) overload so every worker gets its own assertion
// state:
//
//   Session session(proxy, config);              // config.parallelism = 8
//   session.start([] { return std::make_unique<subjects::TownApp>(2); });
//   ... workload ...
//   auto report = session.end([](proxy::Rdl&) -> AssertionList {
//     return {query_result_equals(9, expected)};
//   });
//
// Every end() runs the same explorer loop. parallelism == 1 runs it inline on
// the calling thread over the live proxy, and any parallelism gives the same
// explored count, first_violation_index and persisted log.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "core/constraints.hpp"
#include "core/dpor.hpp"
#include "core/persist.hpp"
#include "core/pruning.hpp"
#include "core/replay.hpp"

namespace erpi::core {

/// Exploration modes of the evaluation (§6.3).
enum class ExplorationMode { ErPi, Dfs, Rand };

const char* exploration_mode_name(ExplorationMode mode) noexcept;

/// What a cross-run outcome corpus (Config::corpus_path) is used for.
///   Reuse — skip replaying (interleaving, plan) classes already proven
///           under a compatible fingerprint; the merged report stays
///           byte-identical to an uncached run.
///   Diff  — replay everything and compare each live outcome against the
///           stored record, surfacing regressions as a corpus::OutcomeDiff.
enum class CorpusMode { Reuse, Diff };

const char* corpus_mode_name(CorpusMode mode) noexcept;

class Session {
 public:
  struct Config {
    ExplorationMode mode = ExplorationMode::ErPi;
    /// Enables Replica-Specific pruning for these options (ER-pi mode only).
    std::optional<ReplicaSpecificPruner::Options> replica_specific;
    /// Developer-specified event groups (Algorithm 1's spec_group input).
    SpecGroups spec_groups;
    /// Statically known independence / failed-ops constraints.
    std::vector<IndependencePruner::Spec> independence;
    std::vector<FailedOpsPruner::Spec> failed_ops;
    /// Directory polled for runtime constraint JSON files ("" = disabled).
    std::string constraints_dir;
    ReplayOptions replay;
    uint64_t random_seed = 42;  // Rand-mode and shuffled-ER-pi seeding
    /// DFS child-order seed (0 = ascending event ids); see DfsEnumerator.
    uint64_t dfs_branch_seed = 0;
    /// ER-pi generation order (see GroupedEnumerator::Order). Shuffled is the
    /// experimental default; Lexicographic gives deterministic exhaustive
    /// sweeps for counting.
    GroupedEnumerator::Order generation_order = GroupedEnumerator::Order::Shuffled;
    /// Generation-time subtree pruning (DESIGN.md §10). Default on; the
    /// oracle chain only engages when every configured pruner supports it,
    /// and produces byte-identical reports either way — this switch exists
    /// for A/B benchmarking and parity tests, not correctness.
    bool generation_pruning = true;
    /// Persist events/units and every replayed interleaving into Datalog.
    bool persist = false;
    /// Worker count for parallel exploration (sched::ParallelExplorer).
    /// 1 (default) replays inline on the calling thread over the live proxy;
    /// > 1 requires a subject factory and the end(AssertionFactory) overload.
    int parallelism = 1;
    /// Clones the subject-system fixture for each parallel worker (also
    /// settable through start(SubjectFactory)).
    SubjectFactory subject_factory;
    /// Snapshot retention for incremental prefix replay; overrides
    /// replay.max_snapshot_depth when set. 0 disables the prefix cache and
    /// restores full-reset replay exactly (see ReplayOptions).
    std::optional<size_t> max_snapshot_depth;
    /// Crash isolation (DESIGN.md §9): Isolation::Process replays every
    /// interleaving inside per-worker sandbox children behind fork servers,
    /// so a subject that segfaults/aborts, allocates without bound
    /// (replay.sandbox_memory_limit_bytes) or hangs
    /// (replay.watchdog_timeout_ms) is quarantined as a structured
    /// crashed/oom/timed_out outcome instead of killing the exploration.
    /// Requires a subject factory and the end(AssertionFactory) overload —
    /// the children rebuild the fixture from the factory — and works at any
    /// parallelism (1 included: the run is driven through
    /// sched::ParallelExplorer with one worker). Overrides replay.isolation
    /// when set. Crash-free runs report identically to Isolation::None.
    Isolation isolation = Isolation::None;
    /// Crash-safe resume journal path for fault-schedule exploration
    /// (faults::explore_with_faults). "" disables journaling. When the file
    /// already exists and its fingerprint matches the run configuration, the
    /// journaled (interleaving, plan) pairs are skipped and their recorded
    /// outcomes merged into the final report — so a SIGKILLed run picks up
    /// where it left off; otherwise a fresh journal is started at this path.
    std::string resume_journal;
    /// Records between RunJournal atomic-rename checkpoints (and corpus
    /// segment rolls). Smaller values bound post-crash recovery work at the
    /// cost of more rewrites; values < 1 are clamped to 1.
    size_t journal_checkpoint_every = RunJournal::kCheckpointEvery;
    /// Directory of the cross-run persistent outcome corpus
    /// (corpus::Store; DESIGN.md §11). "" disables the corpus. Unlike
    /// resume_journal (one run's crash-safety), the corpus accumulates
    /// proven outcomes across runs and machines under per-configuration
    /// fingerprints.
    std::string corpus_path;
    /// How the corpus is consulted (ignored unless corpus_path is set).
    CorpusMode corpus_mode = CorpusMode::Reuse;
    /// Guided exploration (DESIGN.md §12). The default — LexOrder with
    /// deterministic_order — keeps today's engines bit-for-bit. Any other
    /// setting routes the run through sched::ParallelExplorer's subtree
    /// frontier (even at parallelism 1, which therefore needs a subject
    /// factory and the end(AssertionFactory) overload, like
    /// Isolation::Process) and replays in the searcher's order.
    SearchOptions search;
    /// Previously violating interleavings fed to the ViolationFirst
    /// searcher as priors, in addition to the corpus's violation records
    /// (corpus::violation_priors loads them from a store directory).
    std::vector<Interleaving> violation_priors;
    /// Record scheduling telemetry into ReplayReport::explorer (chosen
    /// batch size, frontier shape, steal traffic, queue-wait/idle time).
    /// Off by default: the timing fields are wall-clock noise and would
    /// perturb otherwise byte-stable reports.
    bool collect_explorer_stats = false;
    /// Dynamic partial-order reduction (DESIGN.md §15): learn per-event state
    /// footprints from replays and cut commuting subtrees at generation time
    /// via a sleep-set oracle appended to the static chain. Default off — an
    /// A/B toggle; commuting-free workloads report byte-identically either
    /// way.
    DporOptions dynamic_pruning;
  };

  Session(proxy::RdlProxy& proxy, Config config);

  /// Begin capturing RDL calls.
  void start();

  /// Begin capturing and register the replica-set factory used to clone the
  /// subject fixture per parallel worker (overrides Config::subject_factory).
  void start(SubjectFactory subject_factory);

  /// Stop capturing, generate + prune + replay, check assertions.
  /// Requires parallelism == 1 (shared assertion instances cannot be handed
  /// to concurrent workers); throws std::invalid_argument otherwise.
  ReplayReport end(const AssertionList& assertions);

  /// Parallelism-aware end(): builds one assertion set per worker via the
  /// factory. With parallelism == 1 this calls the factory once against the
  /// captured proxy's subject and behaves exactly like end(AssertionList).
  /// (Constrained template so end({}) still resolves to the list overload.)
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_r_v<AssertionList, F&, proxy::Rdl&>>>
  ReplayReport end(F&& assertion_factory) {
    return end_with_factory(AssertionFactory(std::forward<F>(assertion_factory)));
  }
  ReplayReport end_with_factory(const AssertionFactory& assertion_factory);

  /// Stop capturing and run the grouping/persist half of end() — events and
  /// units become available, make_enumerator() works — without replaying
  /// anything. Idempotent until the next start(). This is the entry point for
  /// drivers that own the replay loop themselves (faults::FaultExplorer runs
  /// the interleaving stream once per fault plan via make_enumerator()).
  void finish_capture();

  const Config& config() const noexcept { return config_; }

  // ---- post-run introspection ----
  const EventSet& events() const noexcept { return events_; }
  const std::vector<EventUnit>& units() const noexcept { return units_; }

  /// After a parallel end(): each worker's assertion instances, for merging
  /// observer state (e.g. collect_profiles over ResourceProfiler samples).
  /// Empty after a run on the live proxy (parallelism 1).
  const std::vector<AssertionList>& worker_assertions() const noexcept {
    return worker_assertions_;
  }

  struct PruningReport {
    uint64_t event_count = 0;
    uint64_t unit_count = 0;
    uint64_t event_universe = 0;  // event_count! (saturated)
    uint64_t unit_universe = 0;   // unit_count!  (saturated)
    PruningPipeline::Stats pipeline;
  };
  PruningReport pruning_report() const;

  /// The Datalog store (populated when config.persist is set).
  InterleavingStore& store() noexcept { return store_; }

  /// Build a fresh enumerator for the configured mode over the captured
  /// events — exposed so benchmarks can drive exploration directly.
  std::unique_ptr<Enumerator> make_enumerator();

  /// Idempotent per capture; a no-op unless Config::dynamic_pruning.enabled.
  /// Creates the independence learner, runs `seed` (the corpus warm start —
  /// corpus::FootprintBank lives above core in the layering, so drivers
  /// inject it rather than core linking it), trains the learner with one
  /// deterministic capture-order priming replay, and in paranoid mode
  /// verifies candidate pairs on fresh fixtures. make_enumerator() calls
  /// this automatically; drivers that want a warm start must call it with
  /// their seed before the relation freezes at the first enumerator build.
  void prepare_dynamic_pruning(
      const std::function<void(IndependenceLearner&)>& seed = {});

  /// The dynamic-pruning learner (null until prepare_dynamic_pruning() ran
  /// with dynamic pruning enabled). Drivers read it for journal digests
  /// (IndependenceLearner::relation_digest) and corpus export.
  const std::shared_ptr<IndependenceLearner>& dpor_learner() const noexcept {
    return dpor_learner_;
  }

 private:
  struct PreparedRun {
    std::unique_ptr<Enumerator> enumerator;
    ReplayOptions replay;
    PrunedEnumerator* pruned = nullptr;
  };
  PreparedRun prepare_run();
  void finish_run(const PreparedRun& prepared);
  PruningPipeline build_pipeline() const;

  proxy::RdlProxy* proxy_;
  Config config_;
  EventSet events_;
  std::vector<EventUnit> units_;
  datalog::Database db_;
  InterleavingStore store_;
  ConstraintWatcher watcher_;
  PrunedEnumerator* active_pruned_ = nullptr;  // live during end()
  std::shared_ptr<IndependenceLearner> dpor_learner_;
  PruningPipeline::Stats last_stats_;
  std::vector<AssertionList> worker_assertions_;
  bool captured_ = false;  // finish_capture() ran since the last start()
};

}  // namespace erpi::core
