// Generation-time subtree pruning (DESIGN.md §10).
//
// The legacy pipeline is generate-then-test: every candidate in the factorial
// universe is materialized, canonicalized by up to four O(n) rewrites, packed
// and hashed before being discarded. This layer lifts each canonicalizer into
// an incremental *prefix oracle* consulted by the tree-shaped enumerators
// (DFS over events, Grouped-lex over units) at every extension step: when no
// completion of the current prefix can be the first-generated member of its
// equivalence class, the whole (n-k)! subtree is skipped in O(1).
//
// Contract (the two properties every oracle must uphold):
//
//  * Soundness — never cut a representative. A subtree may be cut only if
//    every completion C has an earlier-generated candidate W with the same
//    composite canonical form (so C's dedup key is guaranteed to already be
//    in the seen-set when the legacy path would have reached it). The cut
//    criterion is therefore *rank-lex-minimality*: a prefix survives iff some
//    completion is the generation-order minimum of its class. Note this is
//    NOT "the prefix matches the canonical form": with a shuffled DFS child
//    order the first-generated member of a class (the one the legacy path
//    admits) need not be the canonical rewrite target.
//  * Exactness — counters match closed-form subtree sizes. A cut charges
//    `pruned += (n-k)!` and, per pruner, `pruned_by[name] += changed`, where
//    `changed` is the exact number of completions that pruner would have
//    rewritten (computed in closed form from the prefix state). An oracle
//    that cannot count its contribution exactly returns nullopt and the chain
//    declines the cut — exactness is never traded for speed.
//
// With that, the admitted sequence, PruningPipeline::Stats (including
// pruned_by multi-attribution), budget charges and the full ReplayReport
// are byte-identical with oracles on vs. off, at any parallelism and
// snapshot depth. The chain refuses to build (make_oracle_chain returns
// nullptr, falling back to generate-then-test) whenever a pruner combination
// would violate either property — see the composition guards in
// pruning_incremental.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/interleaving.hpp"

namespace erpi::core {

class Pruner;
class PruningPipeline;

/// The generation tree an oracle chain walks: either raw events (DFS) or
/// units (Grouped-lex). `rank_of_event` is the child-try order — the oracle's
/// notion of "generated earlier" — which for DFS is the (possibly
/// branch-seed-shuffled) child index and for Grouped-lex the owning unit's
/// index. Built by Enumerator::prefix_domain().
struct OracleDomain {
  bool unit_generation = false;
  /// Symbols per candidate: event count (DFS) or unit count (Grouped-lex).
  size_t slot_count = 0;
  size_t event_count = 0;
  /// Indexed by event id. In unit generation, an event's rank is its unit's.
  std::vector<int> rank_of_event;
  // Unit generation only:
  std::vector<EventUnit> units;
  std::vector<int> unit_of_event;  // by event id
  std::vector<int> pos_in_unit;    // by event id
};

/// One pruner's incremental view of the prefix under construction. Pushes
/// mirror the enumerator's walk event by event; pop undoes the latest push.
class PrefixOracle {
 public:
  virtual ~PrefixOracle() = default;

  virtual const std::string& name() const = 0;

  /// Extend the prefix with `event_id`. Returns false when this push makes
  /// the prefix non-viable: considering this pruner's classes alone, no
  /// completion of the extended prefix can be the first-generated member of
  /// its class. The condition must be monotone (hold for the whole subtree);
  /// the chain latches it until the push is popped, so deeper pushes need not
  /// re-report it.
  virtual bool push(int event_id) = 0;
  virtual void pop() = 0;
  virtual void reset() = 0;

  /// Exact number of completions of the current prefix this pruner would
  /// rewrite (its pruned_by contribution if the subtree is cut), given
  /// `remaining_slots` free generation slots. nullopt = cannot be computed in
  /// closed form from the prefix state — the chain then declines the cut.
  virtual std::optional<uint64_t> changed_in_subtree(uint64_t remaining_slots) const = 0;
};

/// The per-enumerator chain of oracles, built by
/// PruningPipeline::make_oracle_chain. The enumerator calls push_event /
/// push_unit after tentatively extending its path; Verdict::Cut means the
/// extension's subtree was accounted as pruned and the chain already unwound
/// its own state — the enumerator must abandon the extension without a
/// matching pop. Verdict::Descend means walk on (and pop on backtrack).
class OracleChain {
 public:
  enum class Verdict { Descend, Cut };

  struct Telemetry {
    uint64_t extensions = 0;         // push_event/push_unit calls
    uint64_t subtrees_cut = 0;       // cuts taken
    uint64_t candidates_skipped = 0; // sum of cut subtree sizes
    uint64_t blocked_cuts = 0;       // cut condition held but a count was nullopt
  };

  OracleChain(PruningPipeline* pipeline, OracleDomain domain,
              std::vector<std::unique_ptr<PrefixOracle>> oracles);
  ~OracleChain();

  /// Event-domain extension (DfsEnumerator).
  Verdict push_event(int event_id);
  void pop_event();

  /// Unit-domain extension (GroupedEnumerator, lexicographic walk). Pushes
  /// the unit's events in order; a Cut covers the whole unit subtree.
  Verdict push_unit(size_t unit_index);
  void pop_unit(size_t unit_index);

  void reset();

  const Telemetry& telemetry() const noexcept { return telemetry_; }
  size_t depth() const noexcept { return depth_; }

 private:
  Verdict finish_extension(size_t events_pushed);
  bool try_cut();
  void push_oracles(int event_id);
  void pop_oracles(size_t events);

  PruningPipeline* pipeline_;
  OracleDomain domain_;
  std::vector<std::unique_ptr<PrefixOracle>> oracles_;
  // Per-oracle count of pushes currently in violation (latched cut votes).
  std::vector<uint32_t> violation_depth_;
  std::vector<std::vector<bool>> violation_log_;  // per oracle, per push
  size_t depth_ = 0;  // slots placed
  Telemetry telemetry_;
  std::vector<uint64_t> changed_scratch_;  // try_cut scratch
};

}  // namespace erpi::core
