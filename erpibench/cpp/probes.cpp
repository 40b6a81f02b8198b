#include "probes.hpp"

#include <fstream>
#include <streambuf>

#include "trace.hpp"

namespace erpibench {

using erpi::util::Json;
using erpi::util::Result;
using erpi::util::Status;

Result<Json> TimedTown::do_invoke(erpi::net::ReplicaId replica, const std::string& op,
                                  const Json& args) {
  ScopedTimer timer(Counter::InvokeCount, Counter::InvokeNs);
  return TownApp::do_invoke(replica, op, args);
}

Result<std::string> TimedTown::make_sync_payload(erpi::net::ReplicaId from,
                                                 erpi::net::ReplicaId to, const Json& args) {
  const int64_t start = now_ns();
  auto payload = TownApp::make_sync_payload(from, to, args);
  const auto ns = static_cast<uint64_t>(now_ns() - start);
  count(Counter::SyncPayloadNs, ns);
  count(Counter::SyncPayloadCount, 1);
  count(Counter::InvokeNs, ns);
  count(Counter::InvokeCount, 1);
  return payload;
}

Status TimedTown::apply_sync_payload(erpi::net::ReplicaId from, erpi::net::ReplicaId to,
                                     const std::string& payload) {
  const int64_t start = now_ns();
  auto status = TownApp::apply_sync_payload(from, to, payload);
  const auto ns = static_cast<uint64_t>(now_ns() - start);
  count(Counter::SyncPayloadNs, ns);
  count(Counter::SyncPayloadCount, 1);
  count(Counter::InvokeNs, ns);
  count(Counter::InvokeCount, 1);
  return status;
}

void TimedTown::do_reset() {
  ScopedTimer timer(Counter::ResetCount, Counter::ResetNs);
  TownApp::do_reset();
}

std::shared_ptr<const void> TimedTown::clone_replicas() const {
  ScopedTimer timer(Counter::SnapshotCount, Counter::SnapshotNs);
  return TownApp::clone_replicas();
}

bool TimedTown::adopt_replicas(const void* saved) {
  ScopedTimer timer(Counter::RestoreCount, Counter::RestoreNs);
  return TownApp::adopt_replicas(saved);
}

uint64_t TimedTown::replica_state_bytes() const {
  // SubjectBase::snapshot() sizes every checkpoint by rendering the replica
  // states; that is snapshot work, so it lands in the snapshot time (not in
  // the snapshot count, which clone_replicas() already took), and is also
  // counted on its own.
  const int64_t start = now_ns();
  const uint64_t bytes = TownApp::replica_state_bytes();
  const auto ns = static_cast<uint64_t>(now_ns() - start);
  count(Counter::SnapshotNs, ns);
  count(Counter::SnapshotSizingNs, ns);
  return bytes;
}

Result<Json> TimedRdl::invoke(erpi::net::ReplicaId replica, const std::string& op,
                              const Json& args) {
  const int64_t start = now_ns();
  auto result = inner_->invoke(replica, op, args);
  const auto ns = static_cast<uint64_t>(now_ns() - start);
  count(Counter::InvokeNs, ns);
  count(Counter::InvokeCount, 1);
  if (op == erpi::proxy::kSyncReqOp || op == erpi::proxy::kExecSyncOp) {
    count(Counter::SyncPayloadNs, ns);
    count(Counter::SyncPayloadCount, 1);
  }
  return result;
}

void TimedRdl::reset() {
  ScopedTimer timer(Counter::ResetCount, Counter::ResetNs);
  inner_->reset();
}

erpi::proxy::Snapshot TimedRdl::snapshot() {
  ScopedTimer timer(Counter::SnapshotCount, Counter::SnapshotNs);
  return inner_->snapshot();
}

bool TimedRdl::restore(const erpi::proxy::Snapshot& snap) {
  ScopedTimer timer(Counter::RestoreCount, Counter::RestoreNs);
  return inner_->restore(snap);
}

Status TimedAssertion::check(const erpi::core::TestContext& ctx) {
  ScopedTimer timer(Counter::AssertCount, Counter::AssertNs);
  return inner_->check(ctx);
}

erpi::core::AssertionList timed(const erpi::core::AssertionList& assertions) {
  erpi::core::AssertionList out;
  out.reserve(assertions.size());
  for (const auto& assertion : assertions) {
    out.push_back(std::make_shared<TimedAssertion>(assertion));
  }
  return out;
}

namespace {

/// Unbuffered pass-through to a file buffer: every write and flush the
/// store issues reaches the file exactly as with a plain std::ofstream, and
/// is timed on the way.
class TimedFileBuf : public std::streambuf {
 public:
  TimedFileBuf(Counter ns, Counter bytes, Counter flushes)
      : ns_(ns), bytes_(bytes), flushes_(flushes) {}

  bool open(const std::string& path, std::ios::openmode mode) {
    return file_.open(path, mode | std::ios::out) != nullptr;
  }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const int64_t start = now_ns();
    const std::streamsize written = file_.sputn(s, n);
    count(ns_, static_cast<uint64_t>(now_ns() - start));
    count(bytes_, static_cast<uint64_t>(written));
    return written;
  }

  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
    const char c = traits_type::to_char_type(ch);
    return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
  }

  int sync() override {
    const int64_t start = now_ns();
    const int rc = file_.pubsync();
    count(ns_, static_cast<uint64_t>(now_ns() - start));
    count(flushes_, 1);
    return rc;
  }

 private:
  std::filebuf file_;
  Counter ns_;
  Counter bytes_;
  Counter flushes_;
};

class TimedFileStream : public std::ostream {
 public:
  TimedFileStream(const std::string& path, std::ios::openmode mode, Counter ns, Counter bytes,
                  Counter flushes, Counter streams)
      : std::ostream(nullptr), buf_(ns, bytes, flushes) {
    rdbuf(&buf_);
    if (!buf_.open(path, mode)) setstate(std::ios::failbit);
    count(streams, 1);
  }

 private:
  TimedFileBuf buf_;
};

}  // namespace

erpi::core::RunJournal::StreamFactory timed_journal_streams() {
  return [](const std::string& path, bool truncate) -> std::unique_ptr<std::ostream> {
    // The same open modes RunJournal uses for its own std::ofstream.
    return std::make_unique<TimedFileStream>(
        path, truncate ? std::ios::trunc : std::ios::app, Counter::JournalWriteNs,
        Counter::JournalBytes, Counter::JournalFlushes, Counter::JournalStreams);
  };
}

erpi::corpus::Store::StreamFactory timed_corpus_streams() {
  return [](const std::string& path) -> std::unique_ptr<std::ostream> {
    return std::make_unique<TimedFileStream>(path, std::ios::trunc, Counter::CorpusWriteNs,
                                             Counter::CorpusBytes, Counter::CorpusFlushes,
                                             Counter::CorpusStreams);
  };
}

}  // namespace erpibench
