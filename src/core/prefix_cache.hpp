// Prefix-sharing incremental replay (perf optimisation over paper §4.3).
//
// Adjacent interleavings emitted by a lexicographic (or DFS) enumerator share
// long prefixes — for n units, std::next_permutation changes only the tail,
// so consecutive orders typically agree on the first n-2 units. Re-executing
// that shared prefix from a full reset dominates replay cost. The PrefixCache
// removes it: while an interleaving executes, the engine checkpoints the
// subject (replica state + simulated network) after events where a later
// interleaving can diverge; on the next interleaving it restores the deepest
// checkpoint inside the shared prefix and re-executes only the divergent
// suffix.
//
// Placement: the enumerator names the *boundary* events a later interleaving
// of its stream can diverge after (Enumerator::checkpoint_after) — unit ends
// for Grouped-lex, every event for DFS, none for randomized orders. With k
// boundaries in an interleaving, two distinct interleavings share at most
// k-2 of them, so the cache snapshots only after the first k-2 boundaries: a
// starting point is kept only where replay can actually resume from it.
//
// Invariant: every cached entry is a snapshot taken at some depth d of the
// *most recently replayed* interleaving (`prev_`) — any subset of depths
// keeps it — so for any entry with
// depth d <= common_prefix_len(prev_, next), restoring it reproduces exactly
// the state `next` would reach after executing its first d events — and
// `prev_results_[0..d)` are the results those events produced.
//
// The cache is strictly per-engine (one per parallel worker): snapshots hold
// deep copies of one subject fixture's state and are rejected by any other
// fixture's restore(). Retained snapshot bytes are reported through bytes()
// so the Fig. 10 resource budget covers checkpoint memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/interleaving.hpp"
#include "proxy/rdl.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace erpi::core {

/// Names the rule that decides where the cache snapshots. Retained snapshot
/// bytes feed the Fig. 10 budget trajectory, so a run journal pins the rule
/// (faults::run_fingerprint): a journal written under another placement must
/// not be resumed under this one. Change the tag whenever the rule changes.
inline constexpr const char* kCheckpointPlacement = "boundaries-k-2";

/// Counters for the incremental-replay fast path. Owned by the replay engine
/// (one per parallel worker); merged into the run report when workers join.
struct PrefixReplayStats {
  uint64_t events_executed = 0;   // events actually invoked on the subject
  uint64_t events_skipped = 0;    // events satisfied by a prefix restore
  uint64_t snapshots_taken = 0;
  uint64_t snapshots_restored = 0;
  uint64_t snapshots_evicted = 0;
  /// snapshot() threw std::bad_alloc mid-cache-fill: the entry was dropped
  /// and replay fell back to shallower snapshots / full resets instead of
  /// letting the exception escape the worker.
  uint64_t snapshot_alloc_failures = 0;
  /// High-water mark of retained snapshot bytes. Merging sums the peaks:
  /// caches are concurrently resident, so the sum bounds the joint footprint.
  uint64_t cache_bytes_peak = 0;

  void merge(const PrefixReplayStats& other) noexcept {
    events_executed += other.events_executed;
    events_skipped += other.events_skipped;
    snapshots_taken += other.snapshots_taken;
    snapshots_restored += other.snapshots_restored;
    snapshots_evicted += other.snapshots_evicted;
    snapshot_alloc_failures += other.snapshot_alloc_failures;
    cache_bytes_peak += other.cache_bytes_peak;
  }

  util::Json to_json() const;
};

/// Stack of subject snapshots keyed by prefix depth against the previously
/// replayed interleaving. Not thread-safe except for bytes(), which the
/// explorer polls for budget checks.
class PrefixCache {
 public:
  /// `max_entries` caps the number of retained snapshots (ISSUE's
  /// max_snapshot_depth); callers guarantee it is >= 1. `stats` outlives the
  /// cache and receives snapshot counters.
  PrefixCache(size_t max_entries, PrefixReplayStats* stats)
      : max_entries_(max_entries), stats_(stats) {}

  /// Snapshot placement, indexed by event id: true after events a later
  /// interleaving can diverge after (checkpoint_boundaries()). Empty = every
  /// event. Fewer than two boundaries leave nothing restorable, so the cache
  /// stays empty and replay always full-resets. Drops cached state.
  void set_boundaries(std::vector<bool> boundaries);

  /// Prepare to replay `il`. Restores the deepest cached snapshot whose depth
  /// fits inside the prefix shared with the previous interleaving. Fills
  /// `results` with the previous replay's results for the restored prefix and
  /// returns the depth execution should resume from (0 = caller must
  /// full-reset).
  size_t begin_replay(proxy::Rdl& subject, const Interleaving& il,
                      std::vector<util::Result<util::Json>>& results);

  /// Record that `il`'s event at position `pos` has executed: snapshot the
  /// subject at depth pos+1 when that event is one of `il`'s first k-2
  /// boundaries (deeper ones can never be restored). `il` must be the
  /// interleaving passed to the last begin_replay. A subject that reports
  /// snapshots unsupported disables the cache.
  void note_executed(proxy::Rdl& subject, const Interleaving& il, size_t pos);

  /// Finish replaying `il`: it becomes the prefix baseline for the next call.
  void end_replay(const Interleaving& il,
                  const std::vector<util::Result<util::Json>>& results);

  /// Retained snapshot bytes. Thread-safe (budget checks cross threads).
  uint64_t bytes() const noexcept { return bytes_.load(std::memory_order_relaxed); }

  bool disabled() const noexcept { return disabled_; }

  /// Drop all snapshots and the baseline (used between runs).
  void clear();

 private:
  struct Entry {
    size_t depth = 0;  // events executed before the snapshot was taken
    proxy::Snapshot snap;
  };

  void drop_entry_bytes(const Entry& entry) noexcept;
  bool is_boundary(int event_id) const noexcept {
    const auto id = static_cast<size_t>(event_id);
    return boundaries_.empty() || (id < boundaries_.size() && boundaries_[id]);
  }

  size_t max_entries_;
  PrefixReplayStats* stats_;
  std::vector<bool> boundaries_;  // by event id; empty = every event
  bool inert_ = false;            // < 2 boundaries: never snapshot
  size_t snapshot_limit_ = 0;     // deepest snapshot depth for the current il
  std::vector<Entry> entries_;  // ascending depth
  Interleaving prev_;
  std::vector<util::Result<util::Json>> prev_results_;
  std::atomic<uint64_t> bytes_{0};
  bool disabled_ = false;
};

}  // namespace erpi::core
