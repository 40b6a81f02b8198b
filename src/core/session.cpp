#include "core/session.hpp"

#include <numeric>
#include <stdexcept>

#include "sched/explorer.hpp"
#include "util/log.hpp"

namespace erpi::core {

const char* exploration_mode_name(ExplorationMode mode) noexcept {
  switch (mode) {
    case ExplorationMode::ErPi: return "er-pi";
    case ExplorationMode::Dfs: return "dfs";
    case ExplorationMode::Rand: return "rand";
  }
  return "?";
}

const char* corpus_mode_name(CorpusMode mode) noexcept {
  switch (mode) {
    case CorpusMode::Reuse: return "reuse";
    case CorpusMode::Diff: return "diff";
  }
  return "?";
}

Session::Session(proxy::RdlProxy& proxy, Config config)
    : proxy_(&proxy),
      config_(std::move(config)),
      store_(db_),
      watcher_(config_.constraints_dir) {}

void Session::start() {
  captured_ = false;
  dpor_learner_.reset();  // footprints are per-capture: new events, new ids
  proxy_->start_capture();
}

void Session::start(SubjectFactory subject_factory) {
  config_.subject_factory = std::move(subject_factory);
  start();
}

PruningPipeline Session::build_pipeline() const {
  PruningPipeline pipeline;
  if (config_.replica_specific) {
    pipeline.add(
        std::make_unique<ReplicaSpecificPruner>(events_, *config_.replica_specific));
  }
  for (const auto& spec : config_.independence) {
    pipeline.add(std::make_unique<IndependencePruner>(spec));
  }
  for (const auto& spec : config_.failed_ops) {
    pipeline.add(std::make_unique<FailedOpsPruner>(spec));
  }
  if (dpor_learner_ != nullptr) {
    pipeline.set_dynamic_oracle_factory(
        [learner = dpor_learner_](const OracleDomain& domain) {
          return make_dpor_oracle(domain, learner);
        });
  }
  return pipeline;
}

std::unique_ptr<Enumerator> Session::make_enumerator() {
  prepare_dynamic_pruning();
  switch (config_.mode) {
    case ExplorationMode::ErPi: {
      auto inner = std::make_unique<GroupedEnumerator>(units_, config_.generation_order,
                                                       config_.random_seed);
      auto pruned =
          std::make_unique<PrunedEnumerator>(std::move(inner), build_pipeline());
      pruned->set_generation_pruning(config_.generation_pruning);
      return pruned;
    }
    case ExplorationMode::Dfs: {
      std::vector<int> ids(events_.size());
      std::iota(ids.begin(), ids.end(), 0);
      auto dfs = std::make_unique<DfsEnumerator>(std::move(ids), config_.dfs_branch_seed);
      if (dpor_learner_ == nullptr) return dfs;
      // Dynamic pruning only: DFS has no static pruners, so the wrapping
      // pipeline carries just the learned-independence oracle factory.
      PruningPipeline pipeline;
      pipeline.set_dynamic_oracle_factory(
          [learner = dpor_learner_](const OracleDomain& domain) {
            return make_dpor_oracle(domain, learner);
          });
      auto pruned = std::make_unique<PrunedEnumerator>(std::move(dfs), std::move(pipeline));
      pruned->set_generation_pruning(config_.generation_pruning);
      return pruned;
    }
    case ExplorationMode::Rand: {
      std::vector<int> ids(events_.size());
      std::iota(ids.begin(), ids.end(), 0);
      return std::make_unique<RandomEnumerator>(std::move(ids), config_.random_seed);
    }
  }
  return nullptr;
}

void Session::finish_capture() {
  if (captured_) return;
  captured_ = true;
  events_ = proxy_->end_capture();
  worker_assertions_.clear();

  // State 1-2: extract events, apply grouping (plus any groups already
  // waiting in the constraints directory) and generate interleavings.
  SpecGroups groups = config_.spec_groups;
  Constraints initial = watcher_.poll();
  groups.insert(groups.end(), initial.groups.begin(), initial.groups.end());
  config_.independence.insert(config_.independence.end(), initial.independence.begin(),
                              initial.independence.end());
  config_.failed_ops.insert(config_.failed_ops.end(), initial.failed_ops.begin(),
                            initial.failed_ops.end());
  units_ = build_units(events_, groups);

  if (config_.persist) {
    store_.persist_events(events_);
    store_.persist_units(units_);
  }
}

Session::PreparedRun Session::prepare_run() {
  finish_capture();

  PreparedRun prepared;
  prepared.enumerator = make_enumerator();
  prepared.pruned = dynamic_cast<PrunedEnumerator*>(prepared.enumerator.get());
  active_pruned_ = prepared.pruned;

  // State 3-4: replay one by one; between interleavings, poll the
  // constraints directory and extend the pruning pipeline dynamically.
  // (In parallel mode this callback runs serialized on the explorer's
  // control thread while holding the enumerator lock — see ReplayOptions.)
  prepared.replay = config_.replay;
  if (config_.max_snapshot_depth) {
    prepared.replay.max_snapshot_depth = *config_.max_snapshot_depth;
  }
  if (dpor_learner_ != nullptr && prepared.replay.footprint_learner == nullptr) {
    // Keep observing during enumeration: late widenings are telemetry for
    // this run and training data for the next one (corpus export).
    prepared.replay.footprint_learner = dpor_learner_;
  }
  if (config_.isolation != Isolation::None) {
    prepared.replay.isolation = config_.isolation;
  }
  auto user_hook = prepared.replay.on_interleaving_done;
  auto* pruned = prepared.pruned;
  prepared.replay.on_interleaving_done = [this, pruned, user_hook](uint64_t index,
                                                                   const Interleaving& il) {
    if (config_.persist) store_.persist(il);
    if (pruned != nullptr && !config_.constraints_dir.empty()) {
      Constraints fresh = watcher_.poll();
      if (!fresh.empty()) {
        ERPI_INFO("session") << "applying runtime constraints after interleaving " << index;
        for (const auto& spec : fresh.independence) {
          pruned->pipeline().add(std::make_unique<IndependencePruner>(spec));
        }
        for (const auto& spec : fresh.failed_ops) {
          pruned->pipeline().add(std::make_unique<FailedOpsPruner>(spec));
        }
      }
    }
    if (user_hook) user_hook(index, il);
  };
  if (!prepared.replay.extra_cache_bytes) {
    if (pruned != nullptr) {
      prepared.replay.extra_cache_bytes = [pruned] {
        return pruned->pipeline().cache_bytes();
      };
    } else if (auto* random = dynamic_cast<RandomEnumerator*>(prepared.enumerator.get());
               random != nullptr) {
      // Rand's dedup cache is its dominant memory cost (Fig. 10).
      prepared.replay.extra_cache_bytes = [random] { return random->cache_bytes(); };
    }
  }
  return prepared;
}

void Session::prepare_dynamic_pruning(
    const std::function<void(IndependenceLearner&)>& seed) {
  if (!config_.dynamic_pruning.enabled || dpor_learner_ != nullptr) return;
  finish_capture();
  dpor_learner_ = std::make_shared<IndependenceLearner>(config_.dynamic_pruning);
  dpor_learner_->set_events(events_);
  if (seed) seed(*dpor_learner_);

  // Priming replay: one deterministic capture-order execution on the live
  // fixture, so footprints exist before the relation freezes at the first
  // enumerator build and even a cold run can cut non-sync pairs. The fixture
  // is reset afterwards, and replay engines reset again before every
  // interleaving — priming leaves no trace in reports.
  FootprintRecorder recorder([this](int event_id, Footprint&& fp) {
    dpor_learner_->observe("none", event_id, std::move(fp));
  });
  proxy::Rdl& subject = proxy_->target();
  subject.reset();
  subject.set_footprint_recorder(&recorder);
  for (const proxy::Event& event : events_) {
    recorder.begin_event(event.id);
    (void)proxy_->invoke(event);
    recorder.end_event();
  }
  subject.set_footprint_recorder(nullptr);
  subject.reset();
  dpor_learner_->note_training_run();

  if (config_.dynamic_pruning.paranoid && config_.subject_factory) {
    verify_candidate_pairs(*dpor_learner_, events_, config_.subject_factory);
  }
}

void Session::finish_run(const PreparedRun& prepared) {
  if (prepared.pruned != nullptr) last_stats_ = prepared.pruned->pipeline().stats();
  active_pruned_ = nullptr;
}

ReplayReport Session::end(const AssertionList& assertions) {
  if (config_.parallelism > 1) {
    throw std::invalid_argument(
        "parallelism > 1 needs end(AssertionFactory) so each worker owns its "
        "assertion state");
  }
  if (config_.isolation == Isolation::Process ||
      config_.replay.isolation == Isolation::Process) {
    throw std::invalid_argument(
        "process isolation needs end(AssertionFactory) and a subject factory: "
        "the sandbox children rebuild the fixture and its assertions from the "
        "factories");
  }
  if (config_.search.guided()) {
    throw std::invalid_argument(
        "guided search needs end(AssertionFactory) and a subject factory: the "
        "run is driven through sched::ParallelExplorer, whose workers rebuild "
        "the fixture and its assertions from the factories");
  }
  PreparedRun prepared = prepare_run();
  // One worker, inline on this thread, over the live proxy and the caller's
  // assertion instances.
  sched::ExplorerOptions options;
  options.parallelism = 1;
  options.replay = prepared.replay;
  sched::ParallelExplorer explorer(std::move(options));
  ReplayReport report = explorer.run(*prepared.enumerator, events_, *proxy_, assertions);
  finish_run(prepared);
  return report;
}

ReplayReport Session::end_with_factory(const AssertionFactory& assertion_factory) {
  const bool sandboxed = config_.isolation == Isolation::Process ||
                         config_.replay.isolation == Isolation::Process;
  if (config_.parallelism <= 1 && !sandboxed && !config_.search.guided()) {
    // One assertion set over the live fixture: the same run as
    // end(AssertionList).
    AssertionList assertions;
    if (assertion_factory) assertions = assertion_factory(proxy_->target());
    const int saved_parallelism = config_.parallelism;  // may be 0/negative
    config_.parallelism = 1;
    auto report = end(assertions);
    config_.parallelism = saved_parallelism;
    return report;
  }
  // Sandboxed and guided runs always go through the explorer (even at
  // parallelism 1): sandboxed fixtures must be rebuilt from the factory
  // inside each child, and guided search is the explorer's frontier engine.
  if (!config_.subject_factory) {
    throw std::invalid_argument(
        "parallel exploration requires a subject factory "
        "(Session::start(factory) or Config::subject_factory)");
  }
  if (config_.search.guided() && !config_.resume_journal.empty()) {
    throw std::invalid_argument(
        "guided search cannot resume from a journal: journal skip-and-merge "
        "assumes the enumerator's stream order, which a searcher reorders");
  }

  PreparedRun prepared = prepare_run();
  sched::ExplorerOptions options;
  options.parallelism = config_.parallelism;
  options.replay = prepared.replay;
  options.subject_factory = config_.subject_factory;
  options.assertion_factory = assertion_factory;
  options.search = config_.search;
  options.collect_stats = config_.collect_explorer_stats;
  if (!config_.violation_priors.empty()) {
    options.violation_priors = std::make_shared<const std::vector<Interleaving>>(
        config_.violation_priors);
  }
  sched::ParallelExplorer explorer(std::move(options));
  ReplayReport report = explorer.run(*prepared.enumerator, events_);
  worker_assertions_ = explorer.worker_assertions();
  finish_run(prepared);
  return report;
}

Session::PruningReport Session::pruning_report() const {
  PruningReport out;
  out.event_count = events_.size();
  out.unit_count = units_.size();
  out.event_universe = factorial_saturated(events_.size());
  out.unit_universe = factorial_saturated(units_.size());
  out.pipeline = last_stats_;
  return out;
}

}  // namespace erpi::core
