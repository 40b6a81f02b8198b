// ParallelExplorer — the one exploration loop (paper §4.3: pull an
// interleaving, replay it, assert, commit), at any worker count, with
// deterministic violation semantics (stateless model checkers shard their
// search across cores the same way).
//
// Architecture (N workers, one committer):
//
//   worker w (×N) ── take(w) ──▶ replay on its own fixture ──(index, outcome)──┐
//      take(w) is one of two sources:                                         │
//       * stream: refill a private batch under the enumerator mutex; the pull │
//         does the cancel check, the budget check-then-charge and the         │
//         outcome-cache lookup, in that order, once per interleaving;         │
//       * guided: the next ordinal from the ranked Frontier (DESIGN.md §12).  │
//                                                                             ▼
//   committer (calling thread) ◀── results channel, reordered by index ───────┘
//      commits outcomes in ascending index order through core::commit_outcome
//      and delivers on_outcome / on_interleaving_done serialized, in order.
//
// With one worker there is no thread, channel or reorder map: the worker
// runs inline on the calling thread, pulls one interleaving at a time and
// commits each outcome as soon as it finishes — the plain sequential loop.
// A run over a borrowed fixture (Session::end's live proxy and assertion
// list) is such a run.
//
// Determinism guarantee: because every interleaving is tagged with its
// position in the enumerator stream and outcomes are *committed* in that
// order, the merged report's explored / violations / first_violation_index /
// first_violation_assertion / messages are identical for every worker count
// and every thread schedule — including stop_on_violation runs, where the
// first committed violation is provably the lowest-index one:
//
//   * workers that find a violation at index v lower an atomic "violation
//     floor" (monotone min); workers skip any index > floor, but every index
//     < floor is still replayed and reported, so a lower violation can never
//     be lost;
//   * commits ascend, so the first committed violation is the stream's
//     first violation; committing stops there and explored == that index.
//
// Caveat (documented in DESIGN.md): assertions are instantiated per worker,
// so *cross-interleaving* assertions compare state within one worker's shard
// only. Per-interleaving assertions are bit-for-bit identical to one worker.
//
// Guided exploration (DESIGN.md §12): when ExplorerOptions::search asks for a
// non-default searcher (or clears deterministic_order), the capped stream is
// first materialized on the calling thread through the same pull, then
// partitioned into enumeration subtrees and ranked by the searcher; workers
// drain a work-stealing frontier of subtree handles while the committer
// merges outcomes in *rank* order. The report is a pure function of
// (stream, SearchOptions) — identical at every worker count — it just walks
// the space in the searcher's order instead of lex.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/replay.hpp"
#include "sched/searcher.hpp"
#include "sched/worker.hpp"

namespace erpi::sandbox {
class ForkServer;
}

namespace erpi::sched {

struct ExplorerOptions {
  /// Worker count. Values < 1 are clamped to 1. One worker runs inline on
  /// the calling thread.
  int parallelism = 2;
  /// Run-wide replay options (cap, stop_on_violation, threaded, budget,
  /// extra_cache_bytes, on_interleaving_done). Per-worker fields
  /// (lock_server) are rewired inside each WorkerContext. With
  /// replay.isolation == Isolation::Process each worker drives a
  /// sandbox::ForkServer instead of an in-process fixture: replays execute
  /// in per-worker child processes, and child deaths surface as structured
  /// crashed/oom/timed_out outcomes instead of taking the run down.
  core::ReplayOptions replay;
  /// Builds one isolated subject fixture per worker. Required unless the run
  /// borrows a fixture.
  core::SubjectFactory subject_factory;
  /// Builds one assertion set per worker (may be empty).
  core::AssertionFactory assertion_factory;
  /// Cross-run outcome cache consulted when an interleaving is pulled
  /// (corpus reuse mode; DESIGN.md §11). Called under the enumerator mutex,
  /// after the budget is charged exactly as for a replayed pair. Returning an
  /// outcome resolves the pair without replaying it: the outcome is committed
  /// at its stream position through the same in-order path as replayed
  /// results, so explored counts, first_violation_index, stop_on_violation
  /// semantics and callback order are identical to an uncached run.
  std::function<std::optional<core::InterleavingOutcome>(const core::Interleaving&)>
      outcome_cache;
  /// Guided exploration (DESIGN.md §12): searcher strategy and determinism
  /// knobs. The default (LexOrder + deterministic_order) pulls from the
  /// enumerator stream, byte-identical to prior releases.
  core::SearchOptions search;
  /// ViolationFirst priors: previously violating interleavings (explicit
  /// session config plus the outcome corpus's violation records).
  std::shared_ptr<const std::vector<core::Interleaving>> violation_priors;
  /// CoverageWeighted feature memory, shared across explorations — the fault
  /// explorer shares one instance across its per-plan sweeps so later plans
  /// steer toward still-uncovered fault-plan × operation pairs.
  std::shared_ptr<CoverageState> coverage;
  /// Context tag mixed into coverage features (e.g. the fault plan's key).
  std::string context_key;
  /// Record scheduling telemetry into ReplayReport::explorer (stream refill
  /// size, frontier shape, steal traffic, wait and idle time). Off by
  /// default: the timing fields are wall-clock noise and would perturb
  /// otherwise byte-stable reports.
  bool collect_stats = false;
};

class ParallelExplorer {
 public:
  explicit ParallelExplorer(ExplorerOptions options);

  /// Explore `enumerator`'s stream with `parallelism` workers, each over a
  /// fixture built from the factories (or a sandbox child under
  /// Isolation::Process). The enumerator is only ever touched under a mutex
  /// (enumerators stay single-threaded); the same mutex is held while
  /// on_interleaving_done runs, so callbacks may extend the pruning pipeline
  /// mid-run.
  core::ReplayReport run(core::Enumerator& enumerator, const core::EventSet& events);

  /// The same loop with one worker over a caller-owned fixture: `proxy` and
  /// `assertions` are borrowed for the run (Session::end's live fixture).
  /// Runs inline on the calling thread; `parallelism`, the factories and the
  /// watchdog are not used. Rejects Isolation::Process, which rebuilds
  /// fixtures inside sandbox children.
  core::ReplayReport run(core::Enumerator& enumerator, const core::EventSet& events,
                         proxy::RdlProxy& proxy, const core::AssertionList& assertions);

  /// Post-run: every worker's assertion instances, for merging observer
  /// state (e.g. core::collect_profiles over ResourceProfiler samples).
  /// Empty under Isolation::Process — the fixtures (and their assertion
  /// instances) live and die inside the sandbox children, so observer state
  /// cannot be harvested across the process boundary (documented limitation,
  /// DESIGN.md §9).
  const std::vector<core::AssertionList>& worker_assertions() const noexcept {
    return worker_assertions_;
  }

 private:
  struct Pool;  // one run's workers: in-process contexts or sandbox children

  /// Replay options every worker of a run over `enumerator` starts from.
  core::ReplayOptions worker_options(core::Enumerator& enumerator,
                                     const core::EventSet& events) const;
  core::ReplayReport explore(core::Enumerator& enumerator, const core::EventSet& events,
                             Pool& pool);

  ExplorerOptions options_;
  std::vector<core::AssertionList> worker_assertions_;
};

}  // namespace erpi::sched
