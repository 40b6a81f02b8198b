// IPC wire format for the crash-isolated replay sandbox (DESIGN.md §9).
//
// Two channels per worker, both AF_UNIX stream socketpairs created before the
// fork server is spawned:
//
//  * control — parent <-> fork server. Parent sends single-byte commands
//    (kSpawnCommand / kQuitCommand); the server answers with framed JSON
//    notices: {"spawned": pid} right after forking a runner, and
//    {"exited": pid, "status": wait_status} once waitpid reaps it. Every
//    runner produces exactly one exited notice, which is how the supervisor
//    learns a child died (the server keeps the runner end of the data socket
//    open for future runners, so the parent never sees EOF there).
//
//  * data — parent <-> current runner. Framed JSON work items flow down
//    ({"order": [event ids...]}) and framed JSON outcomes flow back
//    ({"status": "ok" | "oom" | "error", "violations": [...], "prefix":
//    {cumulative counters}, "cache_bytes": n}). A runner that trips the
//    memory cap best-effort writes the "oom" response and exits with
//    kOomExitCode so the parent learns the reason even when the write loses
//    the race with the exit.
//
// Framing is the shared 4-byte little-endian length prefix from
// util/frame.hpp (also used by the exploration-service daemon). All
// parent-side writes use send(MSG_NOSIGNAL) so a dead peer surfaces as an
// error return instead of SIGPIPE.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>

#include "core/interleaving.hpp"
#include "core/prefix_cache.hpp"
#include "core/replay.hpp"
#include "util/frame.hpp"

namespace erpi::sandbox {

/// Control-channel command bytes (parent -> fork server).
inline constexpr char kSpawnCommand = 'S';
inline constexpr char kQuitCommand = 'Q';

/// Exit code a runner uses for a structured out-of-memory death (RLIMIT_AS
/// tripped -> std::bad_alloc reached the child loop).
inline constexpr int kOomExitCode = 66;

// ---- framing ---------------------------------------------------------------
// Re-exported from util/frame.hpp so existing sandbox call sites keep their
// unqualified names; the implementations live in src/util/frame.cpp.

using util::drain_nonblocking;
using util::read_frame;
using util::wait_readable;
using util::wait_readable2;
using util::write_frame;

// ---- work items ------------------------------------------------------------

std::string encode_request(const core::Interleaving& il);
std::optional<core::Interleaving> decode_request(const std::string& payload);

// ---- outcomes --------------------------------------------------------------

struct WorkResponse {
  enum class Status { Ok, Oom, Error };

  Status status = Status::Ok;
  std::string error;  // Status::Error only
  std::vector<core::InterleavingOutcome::Violation> violations;
  /// Storage-fault replays: the durable-log recovery verdict the child's
  /// observer attached to the outcome. Absent for non-storage plans, so
  /// network/crash responses serialize exactly as before.
  std::optional<core::RecoveryVerdict> recovery;
  /// Cumulative for the runner's lifetime; the supervisor folds the last
  /// value into its per-worker tally when the runner dies.
  core::PrefixReplayStats prefix;
  /// Live snapshot-cache bytes, for the explorer's shared-budget polls.
  uint64_t cache_bytes = 0;
};

std::string encode_response(const WorkResponse& response);
std::optional<WorkResponse> decode_response(const std::string& payload);

// ---- fork-server notices ---------------------------------------------------

struct SpawnNotice {
  pid_t pid = -1;
};
struct ExitNotice {
  pid_t pid = -1;
  int wait_status = 0;  // waitpid status, classify with WIFSIGNALED/WIFEXITED
};
/// fork() itself failed inside the server (EAGAIN under pid pressure, ...).
/// The server stays alive and the supervisor decides whether to retry with
/// backoff or give up — this replaces the old behaviour of the server
/// _exit(1)-ing and taking the whole channel down with it.
struct SpawnFailedNotice {
  int err = 0;  // errno from the failed fork()
};

std::string encode_spawn_notice(const SpawnNotice& notice);
std::string encode_exit_notice(const ExitNotice& notice);
std::string encode_spawn_failed_notice(const SpawnFailedNotice& notice);

/// Decode any notice kind; exactly one optional is set on success.
struct ControlNotice {
  std::optional<SpawnNotice> spawned;
  std::optional<ExitNotice> exited;
  std::optional<SpawnFailedNotice> spawn_failed;
};
std::optional<ControlNotice> decode_notice(const std::string& payload);

}  // namespace erpi::sandbox
