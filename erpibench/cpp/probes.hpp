// Timing probes installed only in the traced run. Each wraps a public entry
// or extension point of the library and records into the layer counters of
// trace.hpp; none changes what the wrapped object does.
#pragma once

#include <memory>
#include <ostream>
#include <string>

#include "core/assertions.hpp"
#include "core/persist.hpp"
#include "corpus/store.hpp"
#include "proxy/rdl.hpp"
#include "subjects/town.hpp"

namespace erpibench {

/// The town fixture with its protected subject hooks timed. A subclass, not
/// a decorator: faults::PlanRuntime dynamic_casts the subject to SubjectBase
/// and would silently disable every fault plan on a plain proxy::Rdl wrapper.
class TimedTown : public erpi::subjects::TownApp {
 public:
  using TownApp::TownApp;

 protected:
  erpi::util::Result<erpi::util::Json> do_invoke(erpi::net::ReplicaId replica,
                                                 const std::string& op,
                                                 const erpi::util::Json& args) override;
  erpi::util::Result<std::string> make_sync_payload(erpi::net::ReplicaId from,
                                                    erpi::net::ReplicaId to,
                                                    const erpi::util::Json& args) override;
  erpi::util::Status apply_sync_payload(erpi::net::ReplicaId from, erpi::net::ReplicaId to,
                                        const std::string& payload) override;
  void do_reset() override;
  std::shared_ptr<const void> clone_replicas() const override;
  bool adopt_replicas(const void* saved) override;
  uint64_t replica_state_bytes() const override;
};

/// Decorator around any subject (the Table-1 bug subjects): times invoke,
/// reset, snapshot and restore on the proxy::Rdl interface.
class TimedRdl : public erpi::proxy::Rdl {
 public:
  explicit TimedRdl(std::unique_ptr<erpi::proxy::Rdl> inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  int replica_count() const override { return inner_->replica_count(); }
  erpi::util::Result<erpi::util::Json> invoke(erpi::net::ReplicaId replica,
                                              const std::string& op,
                                              const erpi::util::Json& args) override;
  erpi::util::Json replica_state(erpi::net::ReplicaId replica) const override {
    return inner_->replica_state(replica);
  }
  void reset() override;
  erpi::proxy::Snapshot snapshot() override;
  bool restore(const erpi::proxy::Snapshot& snap) override;
  void set_footprint_recorder(erpi::core::FootprintRecorder* recorder) override {
    inner_->set_footprint_recorder(recorder);
  }

 private:
  std::unique_ptr<erpi::proxy::Rdl> inner_;
};

/// Times each check of the wrapped assertion.
class TimedAssertion : public erpi::core::Assertion {
 public:
  explicit TimedAssertion(std::shared_ptr<erpi::core::Assertion> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void on_run_start() override { inner_->on_run_start(); }
  erpi::util::Status check(const erpi::core::TestContext& ctx) override;

 private:
  std::shared_ptr<erpi::core::Assertion> inner_;
};

erpi::core::AssertionList timed(const erpi::core::AssertionList& assertions);

/// Stream factories writing through a real file while counting bytes,
/// flushes and the time spent in both.
erpi::core::RunJournal::StreamFactory timed_journal_streams();
erpi::corpus::Store::StreamFactory timed_corpus_streams();

}  // namespace erpibench
