#include "core/prefix_cache.hpp"

#include <algorithm>

namespace erpi::core {

util::Json PrefixReplayStats::to_json() const {
  util::Json j = util::Json::object();
  j["events_executed"] = static_cast<int64_t>(events_executed);
  j["events_skipped"] = static_cast<int64_t>(events_skipped);
  j["snapshots_taken"] = static_cast<int64_t>(snapshots_taken);
  j["snapshots_restored"] = static_cast<int64_t>(snapshots_restored);
  j["snapshots_evicted"] = static_cast<int64_t>(snapshots_evicted);
  j["snapshot_alloc_failures"] = static_cast<int64_t>(snapshot_alloc_failures);
  j["cache_bytes_peak"] = static_cast<int64_t>(cache_bytes_peak);
  return j;
}

void PrefixCache::drop_entry_bytes(const Entry& entry) noexcept {
  bytes_.fetch_sub(entry.snap.bytes, std::memory_order_relaxed);
}

void PrefixCache::set_boundaries(std::vector<bool> boundaries) {
  clear();
  inert_ = !boundaries.empty() &&
           std::count(boundaries.begin(), boundaries.end(), true) < 2;
  boundaries_ = std::move(boundaries);
}

void PrefixCache::clear() {
  for (const auto& entry : entries_) drop_entry_bytes(entry);
  entries_.clear();
  prev_ = Interleaving{};
  prev_results_.clear();
  disabled_ = false;
}

size_t PrefixCache::begin_replay(proxy::Rdl& subject, const Interleaving& il,
                                 std::vector<util::Result<util::Json>>& results) {
  if (disabled_ || inert_) return 0;
  // Deepest useful snapshot for `il`: its (k-2)-th boundary — the third from
  // the end — since two distinct interleavings share at most k-2 of their k
  // boundaries. With a boundary after every event this is depth n-2.
  snapshot_limit_ = 0;
  for (size_t pos = il.size(), after = 0; pos-- > 0;) {
    if (is_boundary(il.order[pos]) && ++after == 3) {
      snapshot_limit_ = pos + 1;
      break;
    }
  }
  if (entries_.empty()) return 0;
  // How deep the shared prefix with the previous interleaving reaches:
  // compare the orders directly (O(n), negligible next to replay cost).
  const size_t shared = common_prefix_len(prev_, il);

  // Snapshots deeper than the shared prefix can never be restored again —
  // the next baseline becomes `il`, which diverges from them.
  while (!entries_.empty() && entries_.back().depth > shared) {
    drop_entry_bytes(entries_.back());
    entries_.pop_back();
    ++stats_->snapshots_evicted;
  }
  if (entries_.empty()) return 0;

  const Entry& deepest = entries_.back();
  if (!subject.restore(deepest.snap)) {
    // Defensive: a failing restore invalidates every assumption about the
    // subject's state, so fall back to full resets for the whole run.
    for (const auto& entry : entries_) drop_entry_bytes(entry);
    entries_.clear();
    disabled_ = true;
    return 0;
  }
  ++stats_->snapshots_restored;
  results.assign(prev_results_.begin(),
                 prev_results_.begin() + static_cast<ptrdiff_t>(deepest.depth));
  return deepest.depth;
}

void PrefixCache::note_executed(proxy::Rdl& subject, const Interleaving& il, size_t pos) {
  if (disabled_ || inert_) return;
  const size_t depth = pos + 1;
  if (depth > snapshot_limit_ || !is_boundary(il.order[pos])) return;

  proxy::Snapshot snap;
  try {
    snap = subject.snapshot();
  } catch (const std::bad_alloc&) {
    // Checkpointing is an optimisation, never worth the run: skip this
    // entry, latch the counter, and let the next interleaving fall back to
    // whatever shallower snapshot (or full reset) still fits in memory. The
    // subject itself is unchanged — snapshot() is a read.
    ++stats_->snapshot_alloc_failures;
    return;
  }
  if (!snap.valid()) {
    // Subject has no snapshot support: disable for the whole run rather than
    // probing again on every event.
    clear();
    disabled_ = true;
    return;
  }
  bytes_.fetch_add(snap.bytes, std::memory_order_relaxed);
  ++stats_->snapshots_taken;
  entries_.push_back(Entry{depth, std::move(snap)});
  // Depth budget: retain at most max_entries_ snapshots, evicting the
  // shallowest first — deep snapshots are the ones adjacent lexicographic
  // permutations restore.
  while (entries_.size() > max_entries_) {
    drop_entry_bytes(entries_.front());
    entries_.erase(entries_.begin());
    ++stats_->snapshots_evicted;
  }
  stats_->cache_bytes_peak =
      std::max(stats_->cache_bytes_peak, bytes_.load(std::memory_order_relaxed));
}

void PrefixCache::end_replay(const Interleaving& il,
                             const std::vector<util::Result<util::Json>>& results) {
  if (disabled_ || inert_) return;
  prev_ = il;
  prev_results_ = results;
}

}  // namespace erpi::core
