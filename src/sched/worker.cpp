#include "sched/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace erpi::sched {

WorkerContext::WorkerContext(const core::SubjectFactory& subject_factory,
                             const core::AssertionFactory& assertion_factory,
                             core::ReplayOptions base)
    : subject_factory_(subject_factory),
      assertion_factory_(assertion_factory),
      options_(std::move(base)) {
  if (!subject_factory_) {
    throw std::invalid_argument("parallel exploration requires a subject factory");
  }
  options_.lock_server = nullptr;  // every worker hosts its own lock
  fixture_ = build_fixture();
}

WorkerContext::WorkerContext(proxy::RdlProxy& proxy, core::AssertionList assertions,
                             core::ReplayOptions base)
    : options_(std::move(base)) {
  options_.watchdog_timeout_ms = 0;  // nothing to rebuild a hung fixture from
  fixture_ = std::make_shared<Fixture>();
  fixture_->proxy = &proxy;
  fixture_->assertions = std::move(assertions);
  attach_engine(*fixture_);
}

std::shared_ptr<WorkerContext::Fixture> WorkerContext::build_fixture() const {
  auto fixture = std::make_shared<Fixture>();
  fixture->subject = subject_factory_();
  if (fixture->subject == nullptr) {
    throw std::invalid_argument("subject factory returned a null fixture");
  }
  fixture->owned_proxy = std::make_unique<proxy::RdlProxy>(*fixture->subject);
  fixture->proxy = fixture->owned_proxy.get();
  if (assertion_factory_) fixture->assertions = assertion_factory_(*fixture->subject);
  attach_engine(*fixture);
  return fixture;
}

void WorkerContext::attach_engine(Fixture& fixture) const {
  core::ReplayOptions options = options_;
  if (options.threaded && options.lock_server == nullptr) {
    fixture.lock_server = std::make_unique<kv::Server>();
    options.lock_server = fixture.lock_server.get();
  }
  fixture.engine = std::make_unique<core::ReplayEngine>(*fixture.proxy, std::move(options));
  for (const auto& assertion : fixture.assertions) assertion->on_run_start();
}

core::InterleavingOutcome WorkerContext::replay_one(const core::Interleaving& il,
                                                    const core::EventSet& events) {
  if (options_.watchdog_timeout_ms == 0) {
    return fixture_->engine->replay_one(il, events, fixture_->assertions);
  }
  return replay_with_watchdog(il, events);
}

namespace {

/// Shared between the watchdog (this worker) and the replay thread. The
/// replay thread holds shared ownership of everything it touches, so a hung
/// replay can outlive the WorkerContext without dangling.
struct WatchState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  core::InterleavingOutcome outcome;
  std::exception_ptr error;
};

}  // namespace

core::InterleavingOutcome WorkerContext::replay_with_watchdog(const core::Interleaving& il,
                                                              const core::EventSet& events) {
  auto state = std::make_shared<WatchState>();
  auto fixture = fixture_;
  auto il_copy = std::make_shared<core::Interleaving>(il);
  auto events_copy = std::make_shared<core::EventSet>(events);

  std::thread runner([state, fixture, il_copy, events_copy] {
    core::InterleavingOutcome outcome;
    std::exception_ptr error;
    try {
      outcome = fixture->engine->replay_one(*il_copy, *events_copy, fixture->assertions);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard lock(state->mu);
    state->outcome = std::move(outcome);
    state->error = error;
    state->done = true;
    state->cv.notify_all();
  });

  std::unique_lock lock(state->mu);
  const bool finished =
      state->cv.wait_for(lock, std::chrono::milliseconds(options_.watchdog_timeout_ms),
                         [&] { return state->done; });
  lock.unlock();

  if (finished) {
    runner.join();
    if (state->error) std::rethrow_exception(state->error);
    return std::move(state->outcome);
  }

  // Deadline blown. Cancel cooperatively — the engine's execute loops poll
  // the flag, so lock-protocol spins unwind promptly — then abandon this
  // fixture to the (possibly still running) replay thread and rebuild. A
  // thread truly blocked *inside* the subject cannot be reclaimed; it keeps
  // the abandoned fixture alive via shared ownership and leaks with it
  // (documented in DESIGN.md §8).
  fixture->engine->request_cancel();
  runner.detach();
  fixture_ = build_fixture();

  core::InterleavingOutcome timed_out;
  timed_out.timed_out = true;
  return timed_out;
}

}  // namespace erpi::sched
