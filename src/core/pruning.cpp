#include "core/pruning.hpp"

#include <algorithm>

#include "core/dpor.hpp"

namespace erpi::core {

// ---------------------------------------------------------------------------
// GroupPruner
// ---------------------------------------------------------------------------

GroupPruner::GroupPruner(const std::vector<EventUnit>& units) {
  for (const auto& unit : units) {
    if (unit.events.size() < 2) continue;
    followers_[unit.leader()] =
        std::vector<int>(unit.events.begin() + 1, unit.events.end());
    for (size_t i = 1; i < unit.events.size(); ++i) follower_ids_.insert(unit.events[i]);
  }
}

bool GroupPruner::canonicalize(Interleaving& il) const {
  if (followers_.empty()) return false;
  std::vector<int> canonical;
  canonical.reserve(il.order.size());
  for (const int id : il.order) {
    if (follower_ids_.count(id) > 0) continue;  // re-inserted after its leader
    canonical.push_back(id);
    const auto it = followers_.find(id);
    if (it != followers_.end()) {
      canonical.insert(canonical.end(), it->second.begin(), it->second.end());
    }
  }
  if (canonical == il.order) return false;
  il.order = std::move(canonical);
  return true;
}

// ---------------------------------------------------------------------------
// ReplicaSpecificPruner
// ---------------------------------------------------------------------------

ReplicaSpecificPruner::ReplicaSpecificPruner(const EventSet& events, Options options)
    : events_(&events), options_(options) {
  if (options_.observation_event < 0) {
    // default: the last captured event executing at the explored replica
    for (const auto& event : events) {
      if (event.replica == options_.replica) options_.observation_event = event.id;
    }
  }
}

std::vector<size_t> ReplicaSpecificPruner::impacting_positions(const Interleaving& il) const {
  const auto obs_pos = il.position_of(options_.observation_event);
  if (!obs_pos) return {};

  // The state a replica exposes at some position is determined by every
  // earlier event executing at that replica; each executed sync in that
  // prefix in turn depends on the sender's state when the paired sync_req
  // was issued. Close over that relation.
  std::vector<bool> impacting(il.size(), false);
  // worklist of (replica, position): "replica's state at this position matters"
  std::vector<std::pair<net::ReplicaId, size_t>> work;
  impacting[*obs_pos] = true;
  work.emplace_back((*events_)[static_cast<size_t>(options_.observation_event)].replica,
                    *obs_pos);

  while (!work.empty()) {
    const auto [replica, upto] = work.back();
    work.pop_back();
    for (size_t pos = 0; pos < upto; ++pos) {
      const Event& event = (*events_)[static_cast<size_t>(il.order[pos])];
      if (event.replica != replica || impacting[pos]) continue;
      impacting[pos] = true;
      if (event.is_exec_sync()) {
        // find the paired sync_req (same channel, latest send before pos)
        for (size_t req = pos; req-- > 0;) {
          const Event& cand = (*events_)[static_cast<size_t>(il.order[req])];
          if (cand.is_sync_req() && cand.from == event.from && cand.to == event.to) {
            if (!impacting[req]) {
              impacting[req] = true;
              work.emplace_back(cand.from, req);
            }
            break;
          }
        }
      }
    }
  }

  std::vector<size_t> out;
  for (size_t pos = 0; pos < il.size(); ++pos) {
    if (impacting[pos]) out.push_back(pos);
  }
  return out;
}

bool ReplicaSpecificPruner::canonicalize(Interleaving& il) const {
  const auto impacting = impacting_positions(il);
  if (impacting.empty() || impacting.size() == il.size()) return false;

  if (options_.conservative) {
    // Paper-faithful mode: merge only the classes the paper's §3.1 narrative
    // merges — the observation event comes first, so nothing impacts it and
    // every later ordering is outcome-equivalent ("interleaving ev_IV into
    // the first position would always cause the empty set").
    if (impacting.size() != 1 || impacting[0] != 0) return false;
  }

  // Canonical form: impacting events keep their relative order up front;
  // non-impacting events follow, sorted by event id.
  std::vector<bool> keep(il.size(), false);
  for (const size_t pos : impacting) keep[pos] = true;
  std::vector<int> canonical;
  canonical.reserve(il.size());
  std::vector<int> tail;
  for (size_t pos = 0; pos < il.size(); ++pos) {
    (keep[pos] ? canonical : tail).push_back(il.order[pos]);
  }
  std::sort(tail.begin(), tail.end());
  canonical.insert(canonical.end(), tail.begin(), tail.end());
  if (canonical == il.order) return false;
  il.order = std::move(canonical);
  return true;
}

// ---------------------------------------------------------------------------
// IndependencePruner
// ---------------------------------------------------------------------------

IndependencePruner::IndependencePruner(Spec spec) : spec_(std::move(spec)) {
  independent_set_.insert(spec_.independent_events.begin(), spec_.independent_events.end());
}

bool IndependencePruner::canonicalize(Interleaving& il) const {
  if (independent_set_.size() < 2) return false;
  std::vector<size_t> positions;
  for (size_t pos = 0; pos < il.size(); ++pos) {
    if (independent_set_.count(il.order[pos]) > 0) positions.push_back(pos);
  }
  if (positions.size() < 2) return false;

  // R(ev, iev) check: every event interleaved between the first and last
  // independent event must itself be independent or declared neutral.
  for (size_t pos = positions.front() + 1; pos < positions.back(); ++pos) {
    const int id = il.order[pos];
    if (independent_set_.count(id) == 0 && spec_.neutral_events.count(id) == 0) {
      return false;
    }
  }

  // Canonical order: the independent events sorted by id, re-seated into
  // their original position slots.
  std::vector<int> sorted_events;
  sorted_events.reserve(positions.size());
  for (const size_t pos : positions) sorted_events.push_back(il.order[pos]);
  std::vector<int> before = sorted_events;
  std::sort(sorted_events.begin(), sorted_events.end());
  if (sorted_events == before) return false;
  for (size_t i = 0; i < positions.size(); ++i) il.order[positions[i]] = sorted_events[i];
  return true;
}

// ---------------------------------------------------------------------------
// FailedOpsPruner
// ---------------------------------------------------------------------------

FailedOpsPruner::FailedOpsPruner(Spec spec) : spec_(std::move(spec)) {}

bool FailedOpsPruner::canonicalize(Interleaving& il) const {
  if (spec_.successor_events.size() < 2) return false;
  std::vector<size_t> pred_positions;
  std::vector<size_t> succ_positions;
  const std::set<int> preds(spec_.predecessor_events.begin(), spec_.predecessor_events.end());
  const std::set<int> succs(spec_.successor_events.begin(), spec_.successor_events.end());
  for (size_t pos = 0; pos < il.size(); ++pos) {
    if (preds.count(il.order[pos]) > 0) pred_positions.push_back(pos);
    if (succs.count(il.order[pos]) > 0) succ_positions.push_back(pos);
  }
  if (pred_positions.empty() || succ_positions.size() < 2) return false;

  // Every predecessor must precede every successor — only then are all the
  // successor operations guaranteed to fail, making their order irrelevant.
  if (pred_positions.back() >= succ_positions.front()) return false;

  std::vector<int> sorted_events;
  sorted_events.reserve(succ_positions.size());
  for (const size_t pos : succ_positions) sorted_events.push_back(il.order[pos]);
  std::vector<int> before = sorted_events;
  std::sort(sorted_events.begin(), sorted_events.end());
  if (sorted_events == before) return false;
  for (size_t i = 0; i < succ_positions.size(); ++i) {
    il.order[succ_positions[i]] = sorted_events[i];
  }
  return true;
}

// ---------------------------------------------------------------------------
// PruningPipeline / PrunedEnumerator
// ---------------------------------------------------------------------------

void PruningPipeline::add(std::unique_ptr<Pruner> pruner) {
  pruners_.push_back(std::move(pruner));
  ++version_;
}

void PruningPipeline::set_dynamic_oracle_factory(DynamicOracleFactory factory) {
  dynamic_factory_ = std::move(factory);
  ++version_;
}

bool PruningPipeline::admit(const Interleaving& il) {
  canonical_scratch_ = il;  // copy-assign reuses the scratch capacity
  changed_scratch_.clear();
  for (const auto& pruner : pruners_) {
    if (pruner->canonicalize(canonical_scratch_)) changed_scratch_.push_back(pruner.get());
  }
  if (key_width_ == 0) {
    // Every candidate permutes the same id set, so the width fixed by the
    // first one holds for the whole run (and cache_bytes() stays exact).
    uint64_t max_id = 0;
    for (const int id : il.order) {
      max_id = std::max(max_id, static_cast<uint64_t>(std::max(id, 0)));
    }
    key_width_ = packed_key_width(max_id);
    key_events_ = il.order.size();
  }
  key_scratch_.clear();
  append_packed_dedup_key(canonical_scratch_.order, key_width_, key_scratch_);
  if (seen_.insert(key_scratch_).second) {
    ++stats_.admitted;
    return true;
  }
  ++stats_.pruned;
  for (const Pruner* pruner : changed_scratch_) ++stats_.pruned_by[pruner->name()];
  return false;
}

void PruningPipeline::account_subtree(uint64_t subtree, const std::vector<uint64_t>& changed) {
  stats_.pruned += subtree;
  for (size_t i = 0; i < changed.size(); ++i) {
    // Only touched names get a map entry, exactly like the per-candidate
    // path. Slots beyond the static pruners belong to the appended
    // dynamic-independence oracle (DESIGN.md §15).
    if (changed[i] == 0) continue;
    if (i < pruners_.size()) {
      stats_.pruned_by[pruners_[i]->name()] += changed[i];
    } else {
      stats_.pruned_by[kDporOracleName] += changed[i];
    }
  }
}

uint64_t PruningPipeline::cache_bytes() const noexcept {
  return seen_.size() *
         (static_cast<uint64_t>(key_events_) * static_cast<uint64_t>(key_width_) +
          kDedupEntryOverheadBytes);
}

void PruningPipeline::reset() {
  seen_.clear();
  stats_ = Stats{};
  key_width_ = 0;
  key_events_ = 0;
}

PrunedEnumerator::PrunedEnumerator(std::unique_ptr<Enumerator> inner, PruningPipeline pipeline)
    : inner_(std::move(inner)), pipeline_(std::move(pipeline)) {}

void PrunedEnumerator::ensure_oracle() {
  if (oracle_setup_done_) return;
  oracle_setup_done_ = true;
  if (!generation_pruning_) return;
  const bool want_dynamic = dynamic_pruning_ && pipeline_.has_dynamic_oracle_factory();
  if (pipeline_.pruner_count() == 0 && !want_dynamic) return;
  const auto domain = inner_->prefix_domain();
  if (!domain) return;
  auto chain = pipeline_.make_oracle_chain(*domain, want_dynamic);
  if (chain == nullptr) return;
  if (!inner_->attach_prefix_oracle(chain.get())) return;
  oracle_ = std::move(chain);
  pipeline_version_at_attach_ = pipeline_.version();
}

std::optional<Interleaving> PrunedEnumerator::next() {
  ensure_oracle();
  if (oracle_ != nullptr && pipeline_.version() != pipeline_version_at_attach_) {
    // Runtime constraints extended the pipeline mid-run. Keys already in the
    // dedup set were computed with the *old* pipeline, so a cut's
    // earlier-witness guarantee no longer implies a key hit — detach and
    // filter candidates individually for the rest of the run, exactly like
    // the legacy path does from this point.
    inner_->attach_prefix_oracle(nullptr);
    oracle_.reset();
  }
  while (auto il = inner_->next()) {
    if (pipeline_.admit(*il)) {
      ++emitted_;
      return il;
    }
  }
  return std::nullopt;
}

void PrunedEnumerator::reset() {
  if (oracle_ != nullptr) inner_->attach_prefix_oracle(nullptr);
  oracle_.reset();
  oracle_setup_done_ = false;  // rebuilt lazily on the next pull
  inner_->reset();
  pipeline_.reset();
  emitted_ = 0;
}

}  // namespace erpi::core
