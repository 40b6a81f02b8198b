// WorkerContext — one explorer worker's isolated replay universe.
//
// The invariant the explorer depends on: workers never share mutable subject
// state. Each context therefore owns a private copy of everything a replay
// touches:
//
//   * its own subject fixture (replica set + simulated network), built by the
//     caller-supplied SubjectFactory;
//   * its own RdlProxy over that fixture;
//   * its own assertion instances (AssertionFactory) — so cross-interleaving
//     assertion state is per-worker, see DESIGN.md "Parallel exploration";
//   * in threaded mode, its own kv::Server hosting that worker's distributed
//     lock — the lock protocol is exercised per interleaving on a private
//     server;
//   * its own ReplayEngine over all of the above.
//
// A *borrowed* context is the one exception: it replays on a caller-owned
// proxy and assertion list (Session::end's live fixture), for a run with a
// single worker. The only shared pieces are explicitly thread-safe: the
// BudgetAccount (atomic charge, crash-once) and the explorer's channels.
//
// Replay watchdog (ReplayOptions::watchdog_timeout_ms > 0): each replay runs
// on a short-lived thread; if it misses the deadline the engine is cancelled
// cooperatively, the whole fixture is abandoned to the hung thread (shared
// ownership, so nothing dangles) and rebuilt fresh, and the interleaving is
// reported as a structured timed_out outcome. See DESIGN.md §8 for what can
// and cannot be reclaimed from a hung replay. A borrowed context has no
// factory to rebuild from, so it runs without the watchdog.
#pragma once

#include <memory>

#include "core/replay.hpp"

namespace erpi::sched {

class WorkerContext {
 public:
  /// Owns a fixture built from the factories. `base` carries the run-wide
  /// replay options; in threaded mode the context hosts its lock on a
  /// private kv::Server.
  WorkerContext(const core::SubjectFactory& subject_factory,
                const core::AssertionFactory& assertion_factory,
                core::ReplayOptions base);

  /// Borrows `proxy` (and the subject behind it) and `assertions` from the
  /// caller, who keeps them alive for the context's lifetime. Threaded mode
  /// uses `base.lock_server` when set. The watchdog is off.
  WorkerContext(proxy::RdlProxy& proxy, core::AssertionList assertions,
                core::ReplayOptions base);

  WorkerContext(const WorkerContext&) = delete;
  WorkerContext& operator=(const WorkerContext&) = delete;

  /// Replay one interleaving against this worker's fixture. With a watchdog
  /// configured, a replay that exceeds the deadline returns
  /// outcome.timed_out == true and this context transparently rebuilds its
  /// fixture before the next call.
  core::InterleavingOutcome replay_one(const core::Interleaving& il,
                                       const core::EventSet& events);

  const core::AssertionList& assertions() const noexcept { return fixture_->assertions; }

  /// This worker's incremental-replay counters (read after the pool joins).
  /// Counters from fixtures abandoned to hung replays are not included —
  /// a thread stuck inside the subject may still be mutating them.
  core::PrefixReplayStats prefix_stats() const { return fixture_->engine->prefix_stats(); }

  /// Bytes retained by this worker's prefix snapshot cache. Thread-safe; the
  /// explorer polls it for shared-budget checks.
  uint64_t snapshot_cache_bytes() const noexcept {
    return fixture_->engine->snapshot_cache_bytes();
  }

 private:
  /// Everything a replay touches, bundled so a hung replay thread can keep a
  /// shared reference while the worker moves on to a fresh instance.
  struct Fixture {
    std::unique_ptr<proxy::Rdl> subject;             // null when borrowed
    std::unique_ptr<proxy::RdlProxy> owned_proxy;    // null when borrowed
    proxy::RdlProxy* proxy = nullptr;
    std::unique_ptr<kv::Server> lock_server;  // threaded mode, no caller server
    core::AssertionList assertions;
    std::unique_ptr<core::ReplayEngine> engine;
  };

  std::shared_ptr<Fixture> build_fixture() const;
  /// Wire the lock server and engine into a fixture whose proxy and
  /// assertions are set, and start its assertions' run.
  void attach_engine(Fixture& fixture) const;
  core::InterleavingOutcome replay_with_watchdog(const core::Interleaving& il,
                                                 const core::EventSet& events);

  core::SubjectFactory subject_factory_;
  core::AssertionFactory assertion_factory_;
  core::ReplayOptions options_;
  std::shared_ptr<Fixture> fixture_;
};

}  // namespace erpi::sched
