// Crash-isolated replay sandbox: an AFL-style fork server per parallel
// worker (DESIGN.md §9).
//
// Process layout (one ForkServer per worker):
//
//   explorer process ──control socket──> fork server S (single-threaded)
//          │                                  │ fork-per-respawn
//          └───────data socket───────> runner R (builds the subject fixture,
//                                      loops: read work item → replay →
//                                      write outcome)
//
// Why two levels: fork() from a multi-threaded process is only safe for
// async-signal-safe code, and respawns happen while the worker pool is
// running. So the explorer forks each server S exactly once, on the control
// thread, *before* any pool thread exists; S stays single-threaded forever
// and performs every runner fork on command. Respawning after a crash is
// therefore always a fork from a single-threaded process, no matter how many
// worker threads the parent runs.
//
// Outcome taxonomy (ISSUE 4):
//   * crashed   — R died on a signal (SIGSEGV, SIGABRT, SIGKILL...). The item
//                 is retried once in a fresh child; a second death means the
//                 crash is deterministic and the item is quarantined with the
//                 signal number. A retry that comes back clean is collateral
//                 damage from an earlier item and is only counted.
//   * oom       — R tripped RLIMIT_AS: the child catches std::bad_alloc,
//                 best-effort writes a structured "oom" response, and exits
//                 with kOomExitCode so the reason survives even if the write
//                 loses the race. Same retry-once policy as crashes.
//   * timed_out — R blew the watchdog deadline; the supervisor SIGKILLs it.
//                 Matches the in-process watchdog semantics (PR 3): no retry,
//                 quarantined immediately.
//
// The supervisor never reads the data socket for liveness: S keeps the runner
// end open for future runners, so runner death is detected via S's framed
// {"exited", status} notice on the control socket (S sits in waitpid while a
// runner lives). replay_one polls data + control together.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "core/replay.hpp"
#include "sandbox/protocol.hpp"

namespace erpi::sandbox {

/// One worker's fork server + current runner. Not thread-safe: owned and
/// driven by exactly one worker thread (construction and destruction happen
/// on the explorer's control thread while the pool is quiescent — that is
/// what keeps every fork single-threaded). Only snapshot_cache_bytes() may be
/// called concurrently (the explorer's budget polls).
class ForkServer {
 public:
  /// Forks the server process and spawns the first runner (which builds its
  /// fixture from `subject_factory`/`assertion_factory` inside the child).
  /// `base` carries the run-wide replay options; the supervisor owns the
  /// watchdog (base.watchdog_timeout_ms) and the retry policy
  /// (base.sandbox_max_retries), the child gets a scrubbed copy (no
  /// callbacks, no budget, Isolation::None). `events` must outlive this
  /// object. MUST be constructed while the calling process is
  /// single-threaded.
  ForkServer(core::SubjectFactory subject_factory,
             core::AssertionFactory assertion_factory, core::ReplayOptions base,
             const core::EventSet& events);

  /// Kills the current runner, shuts the server down and reaps it.
  ~ForkServer();

  ForkServer(const ForkServer&) = delete;
  ForkServer& operator=(const ForkServer&) = delete;

  /// Ship one interleaving to the runner and wait for its outcome, enforcing
  /// the watchdog deadline and the crash/oom respawn-and-retry-once policy.
  /// Throws on supervisor-level failures (fork server died, child reported a
  /// structured error) — mirroring how an in-process replay exception aborts
  /// the run.
  core::InterleavingOutcome replay_one(const core::Interleaving& il);

  /// Anomaly counters for this worker's sandbox (read after the pool joins).
  const core::SandboxStats& stats() const noexcept { return stats_; }

  /// Cumulative incremental-replay counters: dead runners' final tallies plus
  /// the live runner's latest report (read after the pool joins).
  core::PrefixReplayStats prefix_stats() const;

  /// Live runner's snapshot-cache bytes as of its last response. Thread-safe;
  /// the explorer polls it for shared-budget checks.
  uint64_t snapshot_cache_bytes() const noexcept {
    return cache_bytes_.load(std::memory_order_relaxed);
  }

 private:
  enum class AttemptKind { Ok, Crashed, Oom, TimedOut };

  struct Attempt {
    AttemptKind kind = AttemptKind::Ok;
    int signal = 0;  // Crashed only
    WorkResponse response;  // Ok only
  };

  void spawn_runner();
  /// Exponential-backoff sleep for the current spawn-failure streak:
  /// sandbox_spawn_backoff_ms doubled per consecutive failure, capped at
  /// sandbox_spawn_backoff_cap_ms. Keeps fork-EAGAIN storms from hot-looping.
  void spawn_backoff_sleep(int streak) const;
  Attempt attempt_once(const core::Interleaving& il);
  /// Consume the runner's ready handshake (nullopt) or its build-time
  /// failure (the classified attempt).
  std::optional<Attempt> await_ready(int deadline_ms);
  /// Consume the server's {"exited"} notice for the current runner, fold its
  /// prefix stats and clear the data socket. Returns the waitpid status.
  int reap_runner();
  static AttemptKind classify_exit(int wait_status, int& signal);
  [[noreturn]] void throw_server_lost(const char* where) const;

  core::ReplayOptions options_;  // supervisor's view (watchdog, retries)
  int control_fd_ = -1;  // to the fork server
  int data_fd_ = -1;     // to the current runner
  pid_t server_pid_ = -1;
  pid_t runner_pid_ = -1;
  bool spawned_once_ = false;  // distinguishes first spawn from respawns
  bool ready_pending_ = true;  // handshake not yet consumed for this runner
  /// Consecutive failed spawn attempts (fork failure or fixture-build error)
  /// since the last healthy runner; drives the exponential backoff and the
  /// give-up threshold (options_.sandbox_spawn_max_retries).
  int spawn_failure_streak_ = 0;

  core::SandboxStats stats_;
  core::PrefixReplayStats prefix_dead_;  // folded from dead runners
  core::PrefixReplayStats prefix_live_;  // live runner's latest cumulative
  std::atomic<uint64_t> cache_bytes_{0};
};

}  // namespace erpi::sandbox
