// In-memory tracing for the benchmark's traced run.
//
// Two mechanisms, both fed only from the benchmark's own probes (timing
// wrappers around the library's public entry and extension points):
//
//  * Layer counters: per-thread shards of (count, nanoseconds, bytes)
//    counters for the hot layer boundaries (subject invokes, snapshots,
//    assertion checks, journal writes). A shard is merged into the global
//    totals when its thread exits, so workers never contend on a shared
//    cache line. Read the totals after the threads that fed them have joined.
//  * Spans: coarse phases (setup, exploration call, generation pass, one
//    service job) with name, start, end, parent and workload run id. They are
//    kept in memory and written out once, when the benchmark ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace erpibench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Counter : size_t {
  InvokeCount,
  InvokeNs,
  SyncPayloadCount,
  SyncPayloadNs,
  ResetCount,
  ResetNs,
  SnapshotCount,
  SnapshotNs,
  SnapshotSizingNs,
  RestoreCount,
  RestoreNs,
  AssertCount,
  AssertNs,
  JournalWriteNs,
  JournalBytes,
  JournalFlushes,
  JournalStreams,
  CorpusWriteNs,
  CorpusBytes,
  CorpusFlushes,
  CorpusStreams,
  kCount,
};

using Counters = std::array<uint64_t, static_cast<size_t>(Counter::kCount)>;

/// Add to this thread's shard.
void count(Counter counter, uint64_t amount);

/// Global totals plus the calling thread's live shard.
Counters counter_totals();

/// Zero the global totals and the calling thread's shard.
void reset_counters();

inline uint64_t at(const Counters& c, Counter counter) {
  return c[static_cast<size_t>(counter)];
}

/// Times a scope into a (count, ns) counter pair.
class ScopedTimer {
 public:
  ScopedTimer(Counter count_counter, Counter ns_counter)
      : count_(count_counter), ns_(ns_counter), start_(now_ns()) {}
  ~ScopedTimer() {
    count(ns_, static_cast<uint64_t>(now_ns() - start_));
    count(count_, 1);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Counter count_;
  Counter ns_;
  int64_t start_;
};

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t run_id = 0;
};

/// Records one span on destruction; spans opened on the same thread while it
/// is live become its children.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  int64_t saved_parent_;
};

/// Record a span measured elsewhere (e.g. from timestamps another thread
/// took); returns its id for use as a parent.
int64_t record_span(std::string name, int64_t start_ns, int64_t end_ns, int64_t parent);

/// Workload run id stamped into every span recorded from now on.
void set_run_id(int64_t run_id);

/// Write every span as one JSON object per line. False on I/O failure.
bool write_spans(const std::string& path);

}  // namespace erpibench
