// ER-pi's four pruning algorithms (paper §3).
//
// Each pruner is a *canonicalization*: it maps an interleaving to the
// representative of its equivalence class (interleavings that provably lead
// to the same assertion outcomes). The pipeline deduplicates canonical forms,
// so the first member of each class is replayed and the rest are pruned.
//
//  1. Event Grouping (Alg. 1) acts at generation time — the GroupedEnumerator
//     permutes units instead of events — and is also available as a
//     canonicalizer (GroupPruner) so the reduction can be measured against
//     the raw-event universe (Fig. 9).
//  2. Replica-Specific (Alg. 2, ReplicaSpecificPruner): when a specific
//     replica is explored, events outside the causal past of that replica's
//     observation can be permuted freely.
//  3. Event-Independence (Alg. 3, IndependencePruner): developer-declared
//     mutually independent events may be reordered when nothing that affects
//     them interleaves between them.
//  4. Failed-Ops (Alg. 4, FailedOpsPruner): operations doomed to fail after
//     certain predecessor operations may be reordered among themselves.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/enumerate.hpp"
#include "core/interleaving.hpp"
#include "core/pruning_incremental.hpp"

namespace erpi::core {

class Pruner {
 public:
  virtual ~Pruner() = default;

  virtual std::string name() const = 0;

  /// Rewrite `il` into its class representative. Returns true if changed.
  virtual bool canonicalize(Interleaving& il) const = 0;

  /// Incremental form of this pruner for generation-time subtree pruning
  /// (DESIGN.md §10), or nullptr when no oracle upholds the
  /// soundness/exactness contract for this pruner over `domain` (the chain
  /// then falls back to generate-then-test). Default: no oracle.
  virtual std::unique_ptr<PrefixOracle> make_prefix_oracle(const OracleDomain& domain) const {
    (void)domain;
    return nullptr;
  }
};

/// Event Grouping as a canonicalizer over the raw-event universe: each
/// group's followers are moved to sit immediately after their leader.
class GroupPruner : public Pruner {
 public:
  explicit GroupPruner(const std::vector<EventUnit>& units);

  std::string name() const override { return "event_grouping"; }
  bool canonicalize(Interleaving& il) const override;
  std::unique_ptr<PrefixOracle> make_prefix_oracle(const OracleDomain& domain) const override;

  bool trivial() const noexcept { return followers_.empty(); }
  const std::unordered_set<int>& follower_ids() const noexcept { return follower_ids_; }
  const std::unordered_map<int, std::vector<int>>& followers() const noexcept {
    return followers_;
  }

 private:
  std::unordered_map<int, std::vector<int>> followers_;  // leader -> followers
  std::unordered_set<int> follower_ids_;
};

/// Replica-Specific pruning (Algorithm 2).
class ReplicaSpecificPruner : public Pruner {
 public:
  struct Options {
    net::ReplicaId replica = 0;
    /// Event whose outcome the test observes. -1 = the last captured event
    /// executing at `replica`.
    int observation_event = -1;
    /// Paper-faithful conservative mode: merge a class only when the
    /// observation event has an empty causal past (it comes first), exactly
    /// the merge of the paper's §3.1 (24 -> 19 in the motivating example).
    /// The default dependency-closure mode merges every class whose causal
    /// past matches and prunes harder.
    bool conservative = false;
  };

  ReplicaSpecificPruner(const EventSet& events, Options options);

  std::string name() const override { return "replica_specific"; }
  bool canonicalize(Interleaving& il) const override;
  /// Conservative mode only: the observation-first classes collapse to one
  /// canonical sequence, which the oracle predicts exactly. The
  /// dependency-closure mode has no closed prefix form — no oracle, so its
  /// presence in a pipeline disables generation-time cuts entirely.
  std::unique_ptr<PrefixOracle> make_prefix_oracle(const OracleDomain& domain) const override;

  const Options& options() const noexcept { return options_; }

  /// Positions (into `il`) of the causal past of the observation event —
  /// exposed for tests and for the Datalog cross-check.
  std::vector<size_t> impacting_positions(const Interleaving& il) const;

 private:
  const EventSet* events_;
  Options options_;
};

/// Event-Independence pruning (Algorithm 3).
class IndependencePruner : public Pruner {
 public:
  struct Spec {
    std::vector<int> independent_events;
    /// Events known not to affect the independent ones; any *other* event
    /// interleaved between the independent events blocks the merge (this is
    /// the R(ev, iev) impact check of the pseudo-code).
    std::set<int> neutral_events;
  };

  explicit IndependencePruner(Spec spec);

  std::string name() const override { return "event_independence"; }
  bool canonicalize(Interleaving& il) const override;
  std::unique_ptr<PrefixOracle> make_prefix_oracle(const OracleDomain& domain) const override;

  const Spec& spec() const noexcept { return spec_; }

 private:
  Spec spec_;
  std::set<int> independent_set_;
};

/// Failed-Ops pruning (Algorithm 4).
class FailedOpsPruner : public Pruner {
 public:
  struct Spec {
    std::vector<int> predecessor_events;  // ops that succeed and doom the rest
    std::vector<int> successor_events;    // ops that fail once preceded
  };

  explicit FailedOpsPruner(Spec spec);

  std::string name() const override { return "failed_ops"; }
  bool canonicalize(Interleaving& il) const override;
  std::unique_ptr<PrefixOracle> make_prefix_oracle(const OracleDomain& domain) const override;

  const Spec& spec() const noexcept { return spec_; }

 private:
  Spec spec_;
};

/// Ordered pruner chain with canonical-form deduplication and per-algorithm
/// accounting (Fig. 9 reproduces from these stats).
class PruningPipeline {
 public:
  struct Stats {
    uint64_t admitted = 0;
    uint64_t pruned = 0;
    /// interleavings pruned with this algorithm contributing (an interleaving
    /// rewritten by several pruners counts towards each).
    std::unordered_map<std::string, uint64_t> pruned_by;
  };

  void add(std::unique_ptr<Pruner> pruner);
  size_t pruner_count() const noexcept { return pruners_.size(); }

  /// True if `il` is its class representative (first seen); false = prune it.
  bool admit(const Interleaving& il);

  /// Build the generation-time oracle chain for this pipeline over `domain`
  /// (DESIGN.md §10), or nullptr when any pruner lacks an oracle or the
  /// composition guards reject the combination — the caller then keeps the
  /// exact generate-then-test behavior. The chain accounts cut subtrees into
  /// this pipeline's Stats, so it must not outlive the pipeline. When
  /// `include_dynamic` is set and a dynamic-oracle factory is installed, its
  /// oracle (DESIGN.md §15) is appended after the static per-pruner oracles;
  /// a pipeline with no static pruners but a live dynamic oracle still gets
  /// a chain.
  std::unique_ptr<OracleChain> make_oracle_chain(const OracleDomain& domain,
                                                 bool include_dynamic = true);

  /// Factory for the dynamic-independence oracle (DESIGN.md §15), consulted
  /// by make_oracle_chain after the static oracles are built. May return
  /// nullptr (e.g. the learner is untrained) — the chain then carries the
  /// static oracles only. Installing or clearing the factory bumps version()
  /// so an already-attached chain detaches rather than cut with a stale
  /// relation.
  using DynamicOracleFactory =
      std::function<std::unique_ptr<PrefixOracle>(const OracleDomain&)>;
  void set_dynamic_oracle_factory(DynamicOracleFactory factory);
  bool has_dynamic_oracle_factory() const noexcept {
    return static_cast<bool>(dynamic_factory_);
  }

  /// Cut-subtree accounting (called by OracleChain): `subtree` completions
  /// skipped wholesale, `changed[i]` of them would have been rewritten by
  /// pruner i. Charges stats_ exactly as admit() would have, one candidate
  /// at a time. `changed` may carry one slot beyond the static pruners: that
  /// slot belongs to the appended dynamic-independence oracle and is
  /// attributed under its name (kDporOracleName).
  void account_subtree(uint64_t subtree, const std::vector<uint64_t>& changed);

  /// Bumped by add(); lets an attached oracle chain detect mid-run pipeline
  /// mutations (runtime constraints), after which cuts become unsound —
  /// PrunedEnumerator detaches the chain and falls back to filtering.
  uint64_t version() const noexcept { return version_; }

  const std::vector<std::unique_ptr<Pruner>>& pruners() const noexcept { return pruners_; }

  const Stats& stats() const noexcept { return stats_; }
  /// Exact bytes held by the dedup set: one packed key (key_width bytes per
  /// event) plus kDedupEntryOverheadBytes per admitted class (Fig. 10
  /// resource accounting; the set only grows on admit).
  uint64_t cache_bytes() const noexcept;
  void reset();

 private:
  std::vector<std::unique_ptr<Pruner>> pruners_;
  DynamicOracleFactory dynamic_factory_;
  std::unordered_set<std::string> seen_;
  Stats stats_;
  uint64_t version_ = 0;
  int key_width_ = 0;        // 0 until the first admit() fixes it
  size_t key_events_ = 0;    // events per key, fixed with key_width_
  // admit() scratch: steady-state admission of a duplicate allocates nothing.
  Interleaving canonical_scratch_;
  std::string key_scratch_;
  std::vector<const Pruner*> changed_scratch_;
};

/// Lazy enumerator = inner enumerator + pruning pipeline. When the inner
/// enumerator exposes a generation tree (DFS, Grouped-lex) and every pruner
/// supports an oracle, subtrees of guaranteed-duplicates are cut at the
/// source instead of being generated and filtered — with byte-identical
/// admitted sequence, stats and budget charges either way (DESIGN.md
/// §10). set_generation_pruning(false) forces the legacy filter path.
class PrunedEnumerator : public Enumerator {
 public:
  PrunedEnumerator(std::unique_ptr<Enumerator> inner, PruningPipeline pipeline);

  std::optional<Interleaving> next() override;
  uint64_t universe_size() const override { return inner_->universe_size(); }
  void reset() override;
  /// Pruning only drops interleavings, so the inner placement still holds.
  bool checkpoint_after(int event_id) const override {
    return inner_->checkpoint_after(event_id);
  }

  PruningPipeline& pipeline() noexcept { return pipeline_; }
  Enumerator& inner() noexcept { return *inner_; }

  /// Toggle generation-time cuts (default on; takes effect before the first
  /// next() after construction or reset()).
  void set_generation_pruning(bool enabled) noexcept { generation_pruning_ = enabled; }
  /// Toggle the dynamic-independence oracle (DESIGN.md §15) independently of
  /// the static chain (default on; consulted when the oracle chain is built
  /// at the first next()). The fault explorer clears it for non-trivial
  /// fault plans, whose perturbed executions the learned relation does not
  /// model.
  void set_dynamic_pruning(bool enabled) noexcept { dynamic_pruning_ = enabled; }
  /// The live oracle chain, if one is attached (telemetry/testing).
  const OracleChain* oracle_chain() const noexcept { return oracle_.get(); }

 private:
  void ensure_oracle();

  std::unique_ptr<Enumerator> inner_;
  PruningPipeline pipeline_;
  bool generation_pruning_ = true;
  bool dynamic_pruning_ = true;
  bool oracle_setup_done_ = false;
  std::unique_ptr<OracleChain> oracle_;
  uint64_t pipeline_version_at_attach_ = 0;
};

}  // namespace erpi::core
