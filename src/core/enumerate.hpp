// Interleaving enumerators — the three exploration modes of the paper's
// evaluation (§6.3):
//
//  * GroupedEnumerator — ER-pi's generator: lexicographic permutations of
//    event *units* (so Event Grouping pruning is already applied at the
//    source). Downstream pruners filter further (see pruning.hpp).
//  * DfsEnumerator — the baseline tree search: an explicit DFS over the
//    permutation tree of raw events ("starts at an empty root node and
//    recursively explores each event ... by backtracking and expanding").
//  * RandomEnumerator — the baseline random search: shuffles raw events,
//    re-shuffling until an unexplored permutation is found; the growing
//    dedup cache is what makes Rand's per-interleaving cost climb.
//
// All enumerators are lazy: next() yields one interleaving at a time, so
// factorial universes never have to be materialized.
#pragma once

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/interleaving.hpp"
#include "core/pruning_incremental.hpp"
#include "util/rng.hpp"

namespace erpi::core {

class Enumerator {
 public:
  virtual ~Enumerator() = default;

  /// The next unexplored interleaving, or nullopt when exhausted.
  virtual std::optional<Interleaving> next() = 0;

  /// Size of the full universe this enumerator draws from (saturated).
  virtual uint64_t universe_size() const = 0;

  /// Restart from the beginning.
  virtual void reset() = 0;

  /// Interleavings handed out so far.
  uint64_t emitted() const noexcept { return emitted_; }

  /// Prefix-cache placement (DESIGN.md §7): true when a later interleaving
  /// of this stream can diverge from an earlier one right after `event_id`,
  /// so a snapshot taken there may be restored. Answered per event id and
  /// fixed for the enumerator's lifetime. The default — every event — is
  /// right for any order; unit-contiguous orders narrow it to unit ends and
  /// randomized orders, which promise no shared prefix, answer false.
  virtual bool checkpoint_after(int /*event_id*/) const { return true; }

  /// Generation-time subtree pruning (DESIGN.md §10): enumerators whose
  /// emission order is a deterministic tree walk describe that tree here so
  /// PrunedEnumerator can build a matching oracle chain. nullopt = no
  /// tree structure (randomized orders) — the legacy generate-then-test path
  /// is used unchanged.
  virtual std::optional<OracleDomain> prefix_domain() const { return std::nullopt; }

  /// Attach (or detach, with nullptr) an oracle chain consulted at every
  /// extension of the generation tree. Must be called before the first
  /// next() after construction or reset(); detaching mid-run is allowed and
  /// simply stops further cuts. Returns false if this enumerator cannot
  /// consult oracles (then the chain must not be attached).
  virtual bool attach_prefix_oracle(OracleChain* /*chain*/) { return false; }

 protected:
  uint64_t emitted_ = 0;
};

/// A contiguous span of a materialized enumeration stream whose members all
/// share an event prefix of at least `prefix_len` positions — one subtree of
/// the enumeration tree, the hand-out unit of guided exploration's
/// work-stealing frontier (DESIGN.md §12). Spans are half-open [begin, end)
/// indices into the materialized item vector, in stream order.
struct SubtreeSpan {
  size_t begin = 0;
  size_t end = 0;
  size_t prefix_len = 0;

  size_t size() const noexcept { return end - begin; }
  bool operator==(const SubtreeSpan&) const = default;
};

/// Partition a materialized enumeration stream into subtree spans of at most
/// `max_items` items each by recursively descending the shared-prefix tree:
/// a span too large to hand out whole is split into its children — maximal
/// consecutive runs agreeing on the event at the next position. Works on any
/// stream; tree-ordered streams (lexicographic, DFS) split along real subtree
/// boundaries (so span members share replay prefixes and a worker draining a
/// span keeps its snapshot cache hot), while unstructured streams degrade to
/// fixed-size chunks. Deterministic: depends only on the items and max_items.
std::vector<SubtreeSpan> split_tree_order(const std::vector<Interleaving>& items,
                                          size_t max_items);

/// Per-entry overhead charged for one dedup-set node (hash bucket pointer,
/// node header, string header) on top of the packed key payload — shared by
/// every dedup cache (Random, Grouped-shuffled, PruningPipeline) so their
/// cache_bytes() formulas stay consistent with each other.
inline constexpr uint64_t kDedupEntryOverheadBytes = 48;

/// The enumerator's checkpoint_after answers for every event of `events`,
/// indexed by event id — what the replay run loops hand their prefix caches.
std::vector<bool> checkpoint_boundaries(const Enumerator& enumerator, const EventSet& events);

/// Narrowest per-id byte width able to represent every id in [0, max_id].
inline int packed_key_width(uint64_t max_id) noexcept {
  if (max_id < 0x100) return 1;
  if (max_id < 0x10000) return 2;
  return 4;
}

/// Fixed-width little-endian byte packing of an id sequence: the dedup-cache
/// key. One reserve + one allocation per key (and SSO for small sequences),
/// unlike the old "3,0,1,2" text rendering which reallocated while growing.
template <typename Seq>
void append_packed_dedup_key(const Seq& order, int width, std::string& out) {
  out.reserve(out.size() + order.size() * static_cast<size_t>(width));
  for (const auto id : order) {
    auto value = static_cast<uint64_t>(id);
    for (int byte = 0; byte < width; ++byte) {
      out.push_back(static_cast<char>(value & 0xff));
      value >>= 8;
    }
  }
}

template <typename Seq>
std::string packed_dedup_key(const Seq& order, int width) {
  std::string key;
  append_packed_dedup_key(order, width, key);
  return key;
}

/// Permutations of units (ER-pi generation). Two emission orders:
///  * Lexicographic — deterministic std::next_permutation sweep; used where
///    exact enumeration order matters (e.g. counting the motivating
///    example's 19 interleavings).
///  * Shuffled — seeded random unit permutations with a dedup cache, which
///    is how the replay engine walks the pruned space in the experiments:
///    unlike a lexicographic sweep it reaches reorderings of *early* units
///    long before exhausting the tail. Detects exhaustion exactly (the
///    cache covers the whole universe) for small unit counts.
class GroupedEnumerator : public Enumerator {
 public:
  enum class Order { Lexicographic, Shuffled };

  explicit GroupedEnumerator(std::vector<EventUnit> units,
                             Order order = Order::Lexicographic, uint64_t seed = 42);

  std::optional<Interleaving> next() override;
  uint64_t universe_size() const override;
  void reset() override;
  /// Lexicographic: the last event of each unit (units run contiguously, so
  /// a later permutation can only diverge at a unit end). Shuffled: none.
  bool checkpoint_after(int event_id) const override;

  /// Lexicographic mode is a deterministic tree walk over unit indices.
  std::optional<OracleDomain> prefix_domain() const override;
  bool attach_prefix_oracle(OracleChain* chain) override;

  const std::vector<EventUnit>& units() const noexcept { return units_; }
  /// Approximate bytes held by the Shuffled-mode dedup cache.
  uint64_t cache_bytes() const noexcept;

 private:
  std::optional<Interleaving> next_lexicographic();
  std::optional<Interleaving> next_lexicographic_walk();
  std::optional<Interleaving> next_shuffled();

  std::vector<EventUnit> units_;
  Order emit_order_;
  uint64_t seed_;
  util::Rng rng_;
  std::vector<size_t> order_;
  std::unordered_set<std::string> seen_;  // Shuffled mode dedup
  int key_width_ = 1;
  bool exhausted_ = false;
  bool first_ = true;
  // Oracle-mode lexicographic walk: an explicit DFS over unit indices that
  // emits the exact std::next_permutation sequence (ascending unused index at
  // every depth) while letting the chain cut subtrees. Once a chain has been
  // attached the walk stays the source of truth even after a mid-run detach,
  // so the emission stream is continuous.
  OracleChain* oracle_ = nullptr;
  bool use_walk_ = false;
  std::vector<size_t> walk_stack_;       // next unit index to try, per depth
  std::vector<size_t> walk_path_;        // chosen unit indices
  std::vector<bool> walk_used_;
};

/// Explicit DFS over the permutation tree of raw event ids. Consecutive
/// leaves can diverge at any depth, so it keeps the default placement of a
/// checkpoint after every event.
class DfsEnumerator : public Enumerator {
 public:
  /// `branch_seed` shuffles the (otherwise arbitrary) order in which the
  /// tree's children are tried — 0 keeps ascending id order. Used by the
  /// Fig. 10 succeed-or-crash experiment to model run-to-run variance.
  explicit DfsEnumerator(std::vector<int> event_ids, uint64_t branch_seed = 0);

  std::optional<Interleaving> next() override;
  uint64_t universe_size() const override;
  void reset() override;

  std::optional<OracleDomain> prefix_domain() const override;
  bool attach_prefix_oracle(OracleChain* chain) override;

  /// Tree nodes expanded so far (a cost proxy for the baseline's bookkeeping).
  uint64_t nodes_expanded() const noexcept { return nodes_expanded_; }

 private:
  struct Frame {
    size_t next_choice = 0;  // next unused-event index to try at this depth
  };

  std::vector<int> event_ids_;
  std::vector<Frame> stack_;
  std::vector<int> path_;          // chosen event ids, by depth
  std::vector<bool> used_;
  bool exhausted_ = false;
  uint64_t nodes_expanded_ = 0;
  OracleChain* oracle_ = nullptr;
};

/// Random shuffling with a seen-cache ("caching the composed interleavings to
/// avoid repetition").
class RandomEnumerator : public Enumerator {
 public:
  RandomEnumerator(std::vector<int> event_ids, uint64_t seed = 0xabcd);

  std::optional<Interleaving> next() override;
  uint64_t universe_size() const override;
  void reset() override;
  /// Shuffles share no guaranteed prefix: never checkpoint.
  bool checkpoint_after(int /*event_id*/) const override { return false; }

  /// Total shuffle attempts, including rejected duplicates — the source of
  /// Rand's time blow-up in Fig. 8b.
  uint64_t shuffles() const noexcept { return shuffles_; }
  /// Approximate bytes held by the dedup cache (Fig. 10 resource accounting).
  uint64_t cache_bytes() const noexcept;

  /// Give up after this many consecutive duplicate shuffles (treat the
  /// universe as exhausted). Default: 64 * n.
  void set_max_consecutive_duplicates(uint64_t limit) noexcept { dup_limit_ = limit; }

 private:
  std::vector<int> event_ids_;
  uint64_t seed_;
  util::Rng rng_;
  std::unordered_set<std::string> seen_;
  uint64_t shuffles_ = 0;
  uint64_t dup_limit_;
  int key_width_ = 1;
  bool exhausted_ = false;
};

}  // namespace erpi::core
