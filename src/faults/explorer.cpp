#include "faults/explorer.hpp"

#include <map>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/dpor.hpp"
#include "core/persist.hpp"
#include "corpus/footprints.hpp"
#include "faults/runtime.hpp"
#include "sched/explorer.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace erpi::faults {

namespace {

/// Footprints are keyed per plan *kind* ("none", "drop", ...), not per plan
/// instance — "drop:3" and "drop:5" perturb events in the same way, and
/// per-instance contexts would never accumulate kSyncTrustRuns confirmations.
std::string plan_kind_context(const FaultPlan& plan) {
  const std::string key = plan.key();
  const auto colon = key.find(':');
  return colon == std::string::npos ? key : key.substr(0, colon);
}

}  // namespace

uint64_t run_fingerprint(const core::Session& session,
                         const std::vector<FaultPlan>& plans,
                         const CatalogOptions& catalog,
                         const core::ReplayOptions& replay,
                         FingerprintPurpose purpose) {
  util::Fnv1aHasher hasher;
  const auto& config = session.config();
  hasher.bytes(core::exploration_mode_name(config.mode));
  hasher.u64(static_cast<uint64_t>(config.generation_order));
  hasher.u64(config.random_seed);
  hasher.u64(config.dfs_branch_seed);
  hasher.u64(replay.max_interleavings);
  hasher.u64(replay.stop_on_violation ? 1 : 0);
  // Snapshot depth and placement shape the budget trajectory a resumed run
  // must recreate, but not replay outcomes — the corpus namespace drops them
  // so sweeps at different depths share proven classes. Placement only
  // matters with the cache on, so depth-0 journals stay resumable.
  if (purpose == FingerprintPurpose::Journal) {
    hasher.u64(replay.max_snapshot_depth);
    if (replay.max_snapshot_depth > 0) hasher.bytes(core::kCheckpointPlacement);
  }
  hasher.u64(replay.threaded ? 1 : 0);
  for (const auto& event : session.events()) hasher.bytes(event.to_json().dump());
  for (const auto& unit : session.units()) {
    for (const int id : unit.events) hasher.i64(id);
    hasher.bytes("/");
  }
  for (const auto& plan : plans) hasher.bytes(plan.key());
  // Catalog options are hashed even though the plan keys already are:
  // two option sets can compose the *same* catalog today (e.g.
  // partition_window_length with max_partition_windows == 0) yet diverge on
  // the next capture, and a stale journal/corpus entry under the old options
  // must never be silently reused.
  hasher.u64(catalog.baseline ? 1 : 0);
  hasher.u64(catalog.max_drops);
  hasher.u64(catalog.max_duplicates);
  hasher.u64(catalog.max_partition_windows);
  hasher.u64(catalog.partition_window_length);
  hasher.u64(catalog.max_crash_restarts);
  hasher.u64(catalog.max_torn_tails);
  hasher.u64(catalog.torn_tail_entries);
  hasher.u64(catalog.max_drop_log_entries);
  hasher.u64(catalog.max_duplicate_segments);
  hasher.u64(catalog.duplicate_segment_entries);
  hasher.u64(catalog.max_stale_snapshot_recoveries);
  hasher.u64(catalog.stale_suffix_keep);
  hasher.u64(catalog.max_plans);
  // Dynamic pruning reshapes which interleavings are generated at all, so
  // both namespaces hash its options; the journal additionally pins the
  // learned relation itself — a resumed run must regenerate the exact same
  // stream to merge the journaled prefix soundly.
  hasher.u64(config.dynamic_pruning.enabled ? 1 : 0);
  hasher.u64(config.dynamic_pruning.paranoid ? 1 : 0);
  hasher.u64(config.dynamic_pruning.footprint_schema);
  if (purpose == FingerprintPurpose::Journal && session.dpor_learner() != nullptr) {
    hasher.u64(session.dpor_learner()->relation_digest());
  }
  return hasher.digest();
}

FaultExplorer::FaultExplorer(core::Session& session, CatalogOptions catalog)
    : session_(&session), catalog_options_(catalog) {}

core::ReplayReport FaultExplorer::run(const core::AssertionFactory& assertion_factory) {
  session_->finish_capture();
  const auto& config = session_->config();
  if (!config.subject_factory) {
    throw std::invalid_argument(
        "fault-schedule exploration requires a subject factory "
        "(Session::start(factory) or Config::subject_factory)");
  }

  // Effective replay options, resolved the way Session::prepare_run does.
  core::ReplayOptions replay = config.replay;
  if (config.max_snapshot_depth) replay.max_snapshot_depth = *config.max_snapshot_depth;
  if (config.isolation != core::Isolation::None) replay.isolation = config.isolation;

  const bool guided = config.search.guided();
  if (guided && !config.resume_journal.empty()) {
    throw std::invalid_argument(
        "guided search cannot resume from a journal: journal skip-and-merge "
        "assumes the enumerator's stream order, which a searcher reorders");
  }

  // The catalog needs the replica count; probe one fixture for it.
  int replica_count = 0;
  {
    const auto probe = config.subject_factory();
    if (probe == nullptr) {
      throw std::invalid_argument("subject factory returned a null fixture");
    }
    replica_count = probe->replica_count();
  }
  plans_ = build_catalog(session_->events(), replica_count, catalog_options_);
  worker_assertions_.clear();

  // ---- dynamic pruning: warm-start and prime before fingerprinting --------
  // The journal fingerprint pins the learned relation (see run_fingerprint),
  // so the learner must reach its frozen-input state — corpus seed plus the
  // priming replay — before fingerprints are computed.
  std::optional<corpus::FootprintBank> footprint_bank;
  uint64_t footprint_fp = 0;
  if (config.dynamic_pruning.enabled && !config.corpus_path.empty()) {
    footprint_bank.emplace(corpus::FootprintBank::load(config.corpus_path));
    footprint_fp = core::dpor_context_fingerprint(session_->events(),
                                                  config.dynamic_pruning.footprint_schema);
    session_->prepare_dynamic_pruning([&](core::IndependenceLearner& learner) {
      footprint_bank->seed_learner(learner, footprint_fp);
    });
  } else {
    session_->prepare_dynamic_pruning();  // no-op unless enabled
  }

  util::Stopwatch watch;
  core::ReplayReport report;

  // One budget spans the whole sweep, like one sequential run would charge.
  core::BudgetAccount local_budget(replay.resource_budget_bytes);
  core::BudgetAccount* budget = replay.budget != nullptr ? replay.budget : &local_budget;

  // ---- crash-safe journal: load what a killed run already explored --------
  const size_t checkpoint_every =
      config.journal_checkpoint_every < 1 ? 1 : config.journal_checkpoint_every;
  const uint64_t fingerprint = run_fingerprint(*session_, plans_, catalog_options_, replay,
                                               FingerprintPurpose::Journal);
  std::map<std::string, std::vector<core::RunJournal::Record>> journaled;
  if (!config.resume_journal.empty()) {
    if (auto loaded = core::RunJournal::load(config.resume_journal)) {
      if (loaded->fingerprint == fingerprint) {
        for (auto& record : loaded->records) {
          journaled[record.plan].push_back(std::move(record));
        }
      } else {
        ERPI_INFO("faults") << "resume journal fingerprint mismatch, starting fresh: "
                            << config.resume_journal;
      }
    }
  }
  std::optional<core::RunJournal> journal;
  if (!config.resume_journal.empty()) {
    journal = core::RunJournal::create(config.resume_journal, fingerprint, checkpoint_every,
                                       journal_stream_factory_);
    // Re-seed the fresh journal with the resumed prefix so a second kill
    // resumes from at least this far, then compact it in one atomic rename.
    for (const auto& plan : plans_) {
      const auto it = journaled.find(plan.key());
      if (it == journaled.end()) continue;
      for (const auto& record : it->second) journal->append(record);
    }
    journal->checkpoint();
  }

  // ---- cross-run outcome corpus (DESIGN.md §11) ---------------------------
  corpus_stats_ = {};
  outcome_diff_ = {};
  std::optional<corpus::Store> store;
  uint64_t corpus_fp = 0;
  if (!config.corpus_path.empty()) {
    corpus::StoreOptions store_options;
    store_options.segment_roll_records = checkpoint_every;
    store.emplace(corpus::Store::open(config.corpus_path, store_options,
                                      corpus_stream_factory_));
    store->begin_run();
    corpus_fp = run_fingerprint(*session_, plans_, catalog_options_, replay,
                                FingerprintPurpose::Corpus);
  }
  const bool reuse = store && config.corpus_mode == core::CorpusMode::Reuse;

  // ---- guided-search inputs, shared across the whole plan sweep -----------
  // ViolationFirst priors: explicit config priors plus every distinct
  // violating interleaving the corpus has recorded under ANY fingerprint or
  // plan — a violation's neighborhood transfers across configurations even
  // when outcome reuse must not (the violation/4 relation's corpus-side view).
  std::shared_ptr<const std::vector<core::Interleaving>> priors;
  std::shared_ptr<sched::CoverageState> coverage;
  if (guided) {
    auto combined = std::make_shared<std::vector<core::Interleaving>>(
        config.violation_priors);
    if (store) {
      std::unordered_set<std::string> seen;
      for (const auto& prior : *combined) seen.insert(prior.key());
      store->for_each_sorted([&](const corpus::Record& record) {
        if (record.kind != corpus::OutcomeKind::Violation) return;
        if (!seen.insert(record.il).second) return;
        combined->push_back(core::Interleaving::from_key(record.il));
      });
    }
    if (!combined->empty()) priors = std::move(combined);
    // One CoverageState across every plan's sweep: later plans' searchers
    // rank still-uncovered fault-plan × operation pairs first.
    coverage = std::make_shared<sched::CoverageState>();
  }

  // Offer one committed outcome to the corpus — live replays, cache hits and
  // journal-merged pairs all pass through here (on the control threads, under
  // the explorer's enumerator mutex while a plan run is live). Reuse mode
  // proves new classes; diff mode compares against the stored record and
  // persists last-wins so the corpus tracks the current library behavior.
  const auto offer_to_corpus = [&](const std::string& plan_key, const std::string& il_key,
                                   const core::InterleavingOutcome& outcome) {
    if (!store) return;
    const corpus::Record* prior = store->lookup(corpus_fp, plan_key, il_key);
    if (reuse) {
      if (prior != nullptr) return;  // already proven (a cache hit lands here)
      store->append(corpus::Record::from_outcome(corpus_fp, plan_key, il_key, outcome));
      ++corpus_stats_.appended;
      return;
    }
    corpus::Record live = corpus::Record::from_outcome(corpus_fp, plan_key, il_key, outcome);
    if (prior == nullptr) {
      ++outcome_diff_.missing;
      store->append(std::move(live));
      return;
    }
    ++outcome_diff_.compared;
    if (prior->same_outcome(live)) {
      ++outcome_diff_.unchanged;  // the lookup above refreshed its recency
      return;
    }
    outcome_diff_.changed.push_back({plan_key, il_key, *prior, live});
    store->append(std::move(live));
  };

  // ---- plan-major sweep ----------------------------------------------------
  bool stopped = false;         // stop_on_violation hit
  bool all_exhausted = true;    // every plan's stream ran dry
  bool any_hit_cap = false;

  // The caller's outcome tap survives the per-plan overwrite below: the
  // commit lambda re-delivers every pair — live, cache-hit and
  // journal-merged alike — with the *global* pair index, which is what a
  // streaming consumer (the service daemon's progress deltas) wants.
  const auto user_on_outcome = replay.on_outcome;

  // Commit one (interleaving, plan) pair into the run report — live
  // outcomes and journal-merged outcomes alike go through
  // core::commit_outcome, so resumed and uninterrupted runs produce
  // identical reports.
  const auto commit = [&](const std::string& plan_key, uint64_t plan_ordinal,
                          const core::Interleaving& il,
                          const core::InterleavingOutcome& outcome, bool from_journal) {
    if (from_journal) ++report.pairs_skipped_from_journal;
    core::commit_outcome(report, il, outcome, plan_key, plan_ordinal);
    if (!outcome.violations.empty() && replay.stop_on_violation) stopped = true;
    if (user_on_outcome) user_on_outcome(report.explored, il, outcome);
  };

  for (const auto& plan : plans_) {
    if (stopped || budget->crashed()) break;
    // Cooperative cancel between plans (the per-plan explorer checks the
    // same token between interleavings).
    if (replay.cancel && replay.cancel->load(std::memory_order_relaxed)) {
      report.cancelled = true;
      break;
    }
    ++report.plans_explored;
    const std::string plan_key = plan.key();

    // Merge the journaled prefix of this plan's sweep (an ascending 1..m
    // prefix, because the committer journals in commit order).
    uint64_t skip = 0;
    if (const auto it = journaled.find(plan_key); it != journaled.end()) {
      for (const auto& record : it->second) {
        core::InterleavingOutcome outcome;
        outcome.timed_out = record.timed_out;
        // Sandbox outcomes resume as-recorded: a known-crashing pair is
        // quarantined again without re-executing it.
        if (record.crash_signal != 0) {
          outcome.crashed = true;
          outcome.term_signal = record.crash_signal;
        }
        outcome.oom = record.oom;
        for (const auto& violation : record.violations) {
          outcome.violations.push_back({violation.assertion, violation.message});
        }
        if (!record.recovery.empty()) {
          if (const auto status = core::recovery_status_from_name(record.recovery)) {
            core::RecoveryVerdict verdict;
            verdict.status = *status;
            verdict.first_missing = record.recovery_first;
            verdict.missing_count = record.recovery_count;
            outcome.recovery = verdict;
          }
        }
        // Journal-merged pairs are proven outcomes of this configuration —
        // the corpus learns them (or diffs against them) like live commits.
        offer_to_corpus(plan_key, record.key, outcome);
        commit(plan_key, record.interleaving, core::Interleaving::from_key(record.key),
               outcome, /*from_journal=*/true);
        skip = record.interleaving;
        if (stopped) break;
      }
    }
    if (stopped) break;

    // Rebuild the enumerator for this plan and drain the journaled prefix,
    // charging the explored-interleaving budget exactly as the explorer's
    // pull would have — so a resumed run's budget trajectory matches.
    auto enumerator = session_->make_enumerator();
    if (plan.kind != FaultPlan::Kind::None) {
      // Footprints were learned under the unfaulted ("none") context; a fault
      // plan changes what events touch, so dynamic cuts stay off for faulted
      // plans and their replays instead train the plan kind's context for
      // future (union-across-contexts, conservative) queries.
      if (auto* pruned = dynamic_cast<core::PrunedEnumerator*>(enumerator.get())) {
        pruned->set_dynamic_pruning(false);
      }
    }
    bool drained_dry = false;
    for (uint64_t i = 0; i < skip; ++i) {
      const auto il = enumerator->next();
      if (!il) {
        drained_dry = true;
        break;
      }
      budget->charge(core::explored_log_entry_bytes(*il));
    }
    if (drained_dry) continue;  // journal covered the whole (short) stream

    const uint64_t cap = replay.max_interleavings;
    sched::ExplorerOptions options;
    options.parallelism = std::max(1, config.parallelism);
    options.replay = replay;
    options.replay.budget = budget;
    options.replay.max_interleavings = cap > skip ? cap - skip : 0;
    options.replay.extra_cache_bytes = nullptr;
    options.replay.on_interleaving_done = nullptr;
    if (session_->dpor_learner() != nullptr) {
      options.replay.footprint_learner = session_->dpor_learner();
      options.replay.footprint_context = plan_kind_context(plan);
    }
    options.replay.observer_factory = [plan](proxy::Rdl& subject) {
      return std::make_shared<PlanRuntime>(plan, subject);
    };
    options.replay.on_outcome = [&](uint64_t index, const core::Interleaving& il,
                                    const core::InterleavingOutcome& outcome) {
      const uint64_t plan_ordinal = skip + index;
      std::string il_key;
      il.append_key(il_key);
      if (journal) {
        core::RunJournal::Record record;
        record.plan = plan_key;
        record.interleaving = plan_ordinal;
        record.key = il_key;
        record.timed_out = outcome.timed_out;
        if (outcome.crashed) record.crash_signal = outcome.term_signal;
        record.oom = outcome.oom;
        for (const auto& violation : outcome.violations) {
          record.violations.push_back({violation.assertion, violation.message});
        }
        if (outcome.recovery) {
          record.recovery = core::recovery_status_name(outcome.recovery->status);
          record.recovery_first = outcome.recovery->first_missing;
          record.recovery_count = outcome.recovery->missing_count;
        }
        journal->append(record);
      }
      offer_to_corpus(plan_key, il_key, outcome);
      commit(plan_key, plan_ordinal, il, outcome, /*from_journal=*/false);
    };
    options.subject_factory = config.subject_factory;
    options.assertion_factory = assertion_factory;
    options.search = config.search;
    options.collect_stats = config.collect_explorer_stats;
    options.violation_priors = priors;
    options.coverage = coverage;
    options.context_key = plan_key;
    if (reuse) {
      // The explorer resolves already-proven classes straight from the
      // corpus at pull time; misses replay normally and are appended via
      // offer_to_corpus.
      options.outcome_cache = [&](const core::Interleaving& il)
          -> std::optional<core::InterleavingOutcome> {
        std::string il_key;
        il.append_key(il_key);
        const corpus::Record* record = store->lookup(corpus_fp, plan_key, il_key);
        if (record != nullptr && record->kind != corpus::OutcomeKind::BudgetExhausted) {
          ++corpus_stats_.hits;
          return record->to_outcome();
        }
        ++corpus_stats_.misses;
        return std::nullopt;
      };
    }

    sched::ParallelExplorer explorer(std::move(options));
    const core::ReplayReport plan_report = explorer.run(*enumerator, session_->events());
    for (const auto& assertions : explorer.worker_assertions()) {
      worker_assertions_.push_back(assertions);
    }
    report.prefix.merge(plan_report.prefix);
    report.sandbox.merge(plan_report.sandbox);
    report.explorer.merge(plan_report.explorer);
    if (!plan_report.exhausted) all_exhausted = false;
    if (plan_report.hit_cap) any_hit_cap = true;
    if (plan_report.crashed) {
      report.crashed = true;
      report.budget_exhausted = true;
      break;
    }
    if (plan_report.cancelled) {
      report.cancelled = true;
      break;
    }
  }

  if (journal) journal->checkpoint();
  // Fold this run's segments into the sorted index when they have piled up
  // (persisting recency refreshes along the way); cheap runs skip the rewrite.
  if (store) store->maybe_compact();
  // Persist what this run learned about event footprints so the next run
  // starts warm (and the kSyncTrustRuns gate can open).
  if (footprint_bank && session_->dpor_learner() != nullptr &&
      footprint_bank->absorb(*session_->dpor_learner(), footprint_fp) &&
      !footprint_bank->save(config.corpus_path)) {
    report.corpus_degraded = true;
  }

  // Mid-run write failures degrade instead of throwing (satellite: graceful
  // ENOSPC/EIO): the sweep completed, the flags tell the caller that resume /
  // reuse coverage is partial.
  if (journal && journal->degraded()) report.journal_degraded = true;
  if (store && store->degraded()) report.corpus_degraded = true;

  if (!stopped && !report.crashed && !report.cancelled) {
    report.exhausted = all_exhausted;
    report.hit_cap = any_hit_cap;
  }
  report.elapsed_seconds = watch.elapsed_seconds();
  return report;
}

core::ReplayReport explore_with_faults(core::Session& session,
                                       const core::AssertionFactory& assertion_factory,
                                       const CatalogOptions& catalog) {
  FaultExplorer explorer(session, catalog);
  return explorer.run(assertion_factory);
}

}  // namespace erpi::faults
