#include "trace.hpp"

#include <atomic>
#include <fstream>
#include <mutex>

#include "util/json.hpp"

namespace erpibench {

namespace {

struct Global {
  std::mutex mu;
  Counters totals{};  // guarded by mu
  std::vector<Span> spans;  // guarded by mu
};

Global& global() {
  static Global g;
  return g;
}

struct Shard {
  Counters values{};
  ~Shard() {
    Global& g = global();
    std::lock_guard lock(g.mu);
    for (size_t i = 0; i < values.size(); ++i) g.totals[i] += values[i];
  }
};

thread_local Shard t_shard;
thread_local int64_t t_parent = 0;
std::atomic<int64_t> g_next_span{1};
std::atomic<int64_t> g_run_id{0};

/// Copy of every span recorded so far.
std::vector<Span> spans() {
  Global& g = global();
  std::lock_guard lock(g.mu);
  return g.spans;
}

}  // namespace

void count(Counter counter, uint64_t amount) {
  t_shard.values[static_cast<size_t>(counter)] += amount;
}

Counters counter_totals() {
  Global& g = global();
  std::lock_guard lock(g.mu);
  Counters out = g.totals;
  for (size_t i = 0; i < out.size(); ++i) out[i] += t_shard.values[i];
  return out;
}

void reset_counters() {
  Global& g = global();
  std::lock_guard lock(g.mu);
  g.totals = {};
  t_shard.values = {};
}

ScopedSpan::ScopedSpan(std::string name) : saved_parent_(t_parent) {
  span_.name = std::move(name);
  span_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_parent;
  span_.run_id = g_run_id.load(std::memory_order_relaxed);
  t_parent = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = now_ns();
  t_parent = saved_parent_;
  Global& g = global();
  std::lock_guard lock(g.mu);
  g.spans.push_back(std::move(span_));
}

int64_t record_span(std::string name, int64_t start_ns, int64_t end_ns, int64_t parent) {
  Span span;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.run_id = g_run_id.load(std::memory_order_relaxed);
  const int64_t id = span.id;
  Global& g = global();
  std::lock_guard lock(g.mu);
  g.spans.push_back(std::move(span));
  return id;
}

void set_run_id(int64_t run_id) { g_run_id.store(run_id, std::memory_order_relaxed); }

bool write_spans(const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  for (const Span& span : spans()) {
    erpi::util::Json j = erpi::util::Json::object();
    j["name"] = span.name;
    j["start_ns"] = span.start_ns;
    j["end_ns"] = span.end_ns;
    j["id"] = span.id;
    j["parent"] = span.parent;
    j["run_id"] = span.run_id;
    out << j.dump() << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace erpibench
