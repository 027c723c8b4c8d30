/// Continuous-batching serving-layer invariants: state-pool accounting,
/// iteration-level scheduling (stable per-sequence token streams under
/// batch join/leave, deadline expiry freeing slots, conserved
/// counters), server routing/metrics, the repository's
/// "workload": "sequence" entries, and the retry/degrade client path.

#include "serving/sequence/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/json.hpp"
#include "serving/repository.hpp"
#include "serving/resilience/retry.hpp"
#include "serving/sequence/state_pool.hpp"
#include "serving/server.hpp"

namespace harvest::serving::sequence {
namespace {

nn::TokenModelConfig tiny_model() {
  nn::TokenModelConfig config;
  config.name = "tiny-lm";
  config.arch = "rwkv";
  config.vocab = 64;
  config.dim = 8;
  config.depth = 2;
  config.max_tokens = 64;
  return config;
}

SequenceBackendPtr sim_backend(std::uint64_t seed = 42) {
  // Zero per-step cost model: steps execute instantly in wall time.
  TokenCostModel cost;
  cost.step_overhead_s = 0.0;
  cost.prefill_overhead_s = 0.0;
  cost.macs_per_token = 0.0;
  return std::make_unique<SimSequenceBackend>(tiny_model(), cost, seed);
}

/// Delegating backend whose prefill blocks until opened — makes queue
/// buildup (and therefore shedding) deterministic in tests.
class GatedBackend final : public SequenceBackend {
 public:
  explicit GatedBackend(SequenceBackendPtr inner) : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  const nn::TokenModelConfig& model_config() const override {
    return inner_->model_config();
  }
  nn::SequenceStateSpec state_spec() const override {
    return inner_->state_spec();
  }

  core::Result<SequenceStepResult> prefill(const std::int32_t* prompt,
                                           std::int64_t count,
                                           nn::SequenceState& state) override {
    std::unique_lock lock(mutex_);
    ++entered_;
    entered_cv_.notify_all();
    open_cv_.wait(lock, [&] { return open_; });
    lock.unlock();
    return inner_->prefill(prompt, count, state);
  }

  core::Result<SequenceStepResult> decode(const std::int32_t* last_tokens,
                                          nn::SequenceState* const* states,
                                          std::int64_t count) override {
    return inner_->decode(last_tokens, states, count);
  }

  /// Block until a prefill is parked on the gate.
  void await_entered() {
    std::unique_lock lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ > 0; });
  }
  void open() {
    std::lock_guard lock(mutex_);
    open_ = true;
    open_cv_.notify_all();
  }

 private:
  SequenceBackendPtr inner_;
  std::mutex mutex_;
  std::condition_variable open_cv_, entered_cv_;
  bool open_ = false;
  int entered_ = 0;
};

/// Delegating backend whose *decode* blocks until opened — stages the
/// stalled-step scenario the scheduler's idle-eviction reap handles.
class GatedDecodeBackend final : public SequenceBackend {
 public:
  explicit GatedDecodeBackend(SequenceBackendPtr inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  const nn::TokenModelConfig& model_config() const override {
    return inner_->model_config();
  }
  nn::SequenceStateSpec state_spec() const override {
    return inner_->state_spec();
  }

  core::Result<SequenceStepResult> prefill(const std::int32_t* prompt,
                                           std::int64_t count,
                                           nn::SequenceState& state) override {
    return inner_->prefill(prompt, count, state);
  }

  core::Result<SequenceStepResult> decode(const std::int32_t* last_tokens,
                                          nn::SequenceState* const* states,
                                          std::int64_t count) override {
    std::unique_lock lock(mutex_);
    ++entered_;
    entered_cv_.notify_all();
    open_cv_.wait(lock, [&] { return open_; });
    lock.unlock();
    return inner_->decode(last_tokens, states, count);
  }

  void await_entered() {
    std::unique_lock lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ > 0; });
  }
  void open() {
    std::lock_guard lock(mutex_);
    open_ = true;
    open_cv_.notify_all();
  }

 private:
  SequenceBackendPtr inner_;
  std::mutex mutex_;
  std::condition_variable open_cv_, entered_cv_;
  bool open_ = false;
  int entered_ = 0;
};

SequenceRequest make_request(std::int64_t prompt_len,
                             std::int64_t max_new_tokens) {
  SequenceRequest request;
  request.prompt.assign(static_cast<std::size_t>(prompt_len), 3);
  request.max_new_tokens = max_new_tokens;
  return request;
}

// ---------------------------------------------------------- state pool

TEST(StatePool, LeasesAreZeroedAndAccounted) {
  nn::SequenceStateSpec spec;
  spec.kind = nn::StateKind::kRecurrent;
  spec.layers = 2;
  spec.dim = 4;
  spec.max_tokens = 16;
  StatePoolConfig config;
  config.slots = 2;
  StatePool pool(spec, config);
  EXPECT_EQ(pool.slots(), 2);
  EXPECT_EQ(pool.active(), 0);
  EXPECT_EQ(pool.capacity_bytes(), 2 * spec.bytes_per_sequence());

  auto a = pool.acquire(0.0);
  ASSERT_TRUE(a.has_value());
  // Dirty the slab, return the slot, re-lease: it must come back clean.
  a->state.layer(0)[0] = 42.0f;
  a->state.advance(5);
  EXPECT_EQ(pool.used_bytes(), spec.bytes_per_sequence());

  auto b = pool.acquire(0.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(a->slot, b->slot);
  EXPECT_EQ(pool.active(), 2);
  EXPECT_FALSE(pool.acquire(0.0).has_value());  // exhausted

  EXPECT_TRUE(pool.release(a->slot, a->generation));
  auto c = pool.acquire(0.0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->slot, a->slot);
  EXPECT_EQ(c->state.length(), 0);
  EXPECT_EQ(c->state.layer(0)[0], 0.0f);
}

TEST(StatePool, CapacityBytesCapsSlots) {
  nn::SequenceStateSpec spec;
  spec.kind = nn::StateKind::kKvCache;
  spec.layers = 2;
  spec.dim = 8;
  spec.max_tokens = 16;
  StatePoolConfig config;
  config.slots = 100;
  // Budget for exactly 3 sequences: the pool must not allocate 100.
  config.capacity_bytes = 3 * spec.bytes_per_sequence() +
                          spec.bytes_per_sequence() / 2;
  StatePool pool(spec, config);
  EXPECT_EQ(pool.slots(), 3);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(pool.acquire(0.0).has_value());
  EXPECT_FALSE(pool.acquire(0.0).has_value());
}

TEST(StatePool, IdleLeasesAreEvicted) {
  nn::SequenceStateSpec spec;
  spec.kind = nn::StateKind::kRecurrent;
  spec.layers = 1;
  spec.dim = 4;
  spec.max_tokens = 8;
  StatePoolConfig config;
  config.slots = 2;
  config.idle_timeout_s = 1.0;
  StatePool pool(spec, config);

  auto stale = pool.acquire(0.0);
  auto fresh = pool.acquire(0.0);
  ASSERT_TRUE(stale.has_value() && fresh.has_value());
  EXPECT_TRUE(pool.touch(fresh->slot, fresh->generation, 5.0));

  const auto evicted = pool.evict_idle(5.5);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], stale->slot);
  EXPECT_EQ(pool.active(), 1);
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_TRUE(pool.acquire(5.5).has_value());  // slot is reusable
}

// Regression for the eviction-aliasing bug: evict_idle used to free a
// slot while the owner still held its Lease; the stale owner's
// release() then returned the *next* owner's slot to the free list, so
// a third acquire aliased two live sequences onto the same slab rows
// and the counters drifted. Generation stamping makes the stale lease
// inert.
TEST(StatePool, StaleLeaseIsInertAfterEviction) {
  nn::SequenceStateSpec spec;
  spec.kind = nn::StateKind::kRecurrent;
  spec.layers = 1;
  spec.dim = 4;
  spec.max_tokens = 8;
  StatePoolConfig config;
  config.slots = 1;
  config.idle_timeout_s = 1.0;
  StatePool pool(spec, config);

  auto stale = pool.acquire(0.0);
  ASSERT_TRUE(stale.has_value());
  ASSERT_EQ(pool.evict_idle(2.0).size(), 1u);  // invalidates `stale`

  // The slot re-leases to a new owner...
  auto owner = pool.acquire(2.0);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(owner->slot, stale->slot);
  EXPECT_NE(owner->generation, stale->generation);
  EXPECT_EQ(pool.active(), 1);

  // ...and the stale lease can neither refresh nor free it. Pre-fix,
  // this release freed the new owner's slot (active dropped to 0 and a
  // third acquire aliased the slab row).
  EXPECT_FALSE(pool.touch(stale->slot, stale->generation, 2.0));
  EXPECT_FALSE(pool.release(stale->slot, stale->generation));
  EXPECT_EQ(pool.active(), 1);
  EXPECT_FALSE(pool.acquire(2.0).has_value()) << "slab row aliased";

  // The current owner's lease still works, and double-release no-ops.
  EXPECT_TRUE(pool.touch(owner->slot, owner->generation, 2.5));
  EXPECT_TRUE(pool.release(owner->slot, owner->generation));
  EXPECT_FALSE(pool.release(owner->slot, owner->generation));
  EXPECT_EQ(pool.active(), 0);
}

// Concurrent acquire/touch/evict/release storm (run under TSan by the
// `sanitize` target). The drain-time conservation law: every acquire
// ends as exactly one successful release or one idle eviction — stale
// releases must not double-free.
TEST(StatePool, ConcurrentLifecycleConserves) {
  nn::SequenceStateSpec spec;
  spec.kind = nn::StateKind::kRecurrent;
  spec.layers = 1;
  spec.dim = 4;
  spec.max_tokens = 8;
  StatePoolConfig config;
  config.slots = 8;
  config.idle_timeout_s = 1e-4;
  StatePool pool(spec, config);

  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<std::uint64_t> releases_ok{0};
  std::atomic<bool> stop{false};

  std::thread evictor([&] {
    while (!stop.load()) {
      const double now = std::chrono::duration<double>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count();
      pool.evict_idle(now);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const double now =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
        auto lease = pool.acquire(now);
        if (!lease.has_value()) continue;
        acquires.fetch_add(1);
        // Hold some leases long enough for the evictor to reap them.
        if ((i + t) % 3 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
        const double later =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
        // NOTE: no slab writes here — only the single-owner scheduler
        // thread may dereference the state, and a stale holder writing
        // after eviction is exactly the bug this suite pins down. The
        // stress covers the lifecycle bookkeeping.
        pool.touch(lease->slot, lease->generation, later);
        if (pool.release(lease->slot, lease->generation)) {
          releases_ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  evictor.join();

  // Anything still leased at join time was held by no one; a final
  // sweep may reclaim stragglers the evictor raced past.
  EXPECT_EQ(pool.active(),
            static_cast<std::int64_t>(acquires.load() - releases_ok.load() -
                                      pool.evictions()));
  EXPECT_EQ(acquires.load(), releases_ok.load() + pool.evictions());
  EXPECT_EQ(pool.active(), 0);
}

// ----------------------------------------------------------- scheduler

TEST(SequenceScheduler, GeneratesBudgetAndStreamsTokensInOrder) {
  SequenceSchedulerConfig config;
  config.max_active = 4;
  MetricsRegistry metrics;
  SequenceScheduler scheduler("tiny-lm", sim_backend(), StatePoolConfig{},
                              config, &metrics);

  std::vector<TokenEvent> events;
  std::mutex events_mutex;
  SequenceRequest request = make_request(4, 6);
  request.on_token = [&](const TokenEvent& e) {
    std::lock_guard lock(events_mutex);
    events.push_back(e);
  };
  auto submitted = scheduler.submit(std::move(request));
  ASSERT_TRUE(submitted.is_ok());
  const SequenceResponse response = submitted.value().get();

  EXPECT_TRUE(response.status.is_ok());
  EXPECT_EQ(response.outcome, SequenceOutcome::kOk);
  ASSERT_EQ(response.tokens.size(), 6u);
  EXPECT_EQ(response.timing.steps, 5);  // first token came from prefill
  EXPECT_GT(response.timing.ttft_s, 0.0);
  EXPECT_GE(response.timing.total_s, response.timing.ttft_s);

  std::lock_guard lock(events_mutex);
  ASSERT_EQ(events.size(), 6u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].index, static_cast<std::int64_t>(i));
    EXPECT_EQ(events[i].token, response.tokens[i]);
    EXPECT_EQ(events[i].last, i + 1 == events.size());
  }

  const SequenceCounters counters = metrics.counters();
  EXPECT_EQ(counters.submitted, 1u);
  EXPECT_EQ(counters.completed, 1u);
  EXPECT_EQ(counters.tokens_generated, 6u);
  EXPECT_TRUE(counters.conserved());
}

TEST(SequenceScheduler, TokenStreamsStableUnderJoinAndLeave) {
  // The serving-layer reordering invariance: whatever batches form as
  // sequences join and retire, each request's token stream must equal
  // its solo run (the sim backend is a pure function of (last token,
  // position), so any cross-row leakage would change the stream).
  std::vector<std::vector<std::int32_t>> solo;
  for (int r = 0; r < 6; ++r) {
    MetricsRegistry metrics;
    SequenceScheduler scheduler("tiny-lm", sim_backend(), StatePoolConfig{},
                                SequenceSchedulerConfig{}, &metrics);
    auto submitted =
        scheduler.submit(make_request(2 + r, 3 + 2 * r));
    ASSERT_TRUE(submitted.is_ok());
    solo.push_back(submitted.value().get().tokens);
  }

  SequenceSchedulerConfig config;
  config.max_active = 3;  // force joins/leaves: 6 requests, 3 slots
  config.length_multiple_of = 4;
  StatePoolConfig pool;
  pool.slots = 3;
  MetricsRegistry metrics;
  SequenceScheduler scheduler("tiny-lm", sim_backend(), pool, config,
                              &metrics);
  std::vector<std::future<SequenceResponse>> futures;
  for (int r = 0; r < 6; ++r) {
    auto submitted =
        scheduler.submit(make_request(2 + r, 3 + 2 * r));
    ASSERT_TRUE(submitted.is_ok());
    futures.push_back(std::move(submitted.value()));
  }
  for (int r = 0; r < 6; ++r) {
    const SequenceResponse response = futures[static_cast<std::size_t>(r)].get();
    EXPECT_TRUE(response.status.is_ok());
    EXPECT_EQ(response.tokens, solo[static_cast<std::size_t>(r)])
        << "request " << r << " stream changed under batching";
  }
  EXPECT_TRUE(metrics.counters().conserved());
  EXPECT_EQ(metrics.counters().completed, 6u);
}

TEST(SequenceScheduler, InvalidPromptsFailFast) {
  MetricsRegistry metrics;
  SequenceScheduler scheduler("tiny-lm", sim_backend(), StatePoolConfig{},
                              SequenceSchedulerConfig{}, &metrics);
  auto empty = scheduler.submit(make_request(0, 4));
  EXPECT_EQ(empty.status().code(), core::StatusCode::kInvalidArgument);
  auto oversized = scheduler.submit(make_request(64, 4));  // == max_tokens
  EXPECT_EQ(oversized.status().code(), core::StatusCode::kInvalidArgument);
  const SequenceCounters counters = metrics.counters();
  EXPECT_EQ(counters.failed, 2u);
  EXPECT_TRUE(counters.conserved());
}

TEST(SequenceScheduler, DeadlineExpiryFreesSlotAndConserves) {
  MetricsRegistry metrics;
  SequenceScheduler scheduler("tiny-lm", sim_backend(), StatePoolConfig{},
                              SequenceSchedulerConfig{}, &metrics);
  SequenceRequest request = make_request(4, 8);
  request.deadline_s = 1e-9;  // expired before the worker can admit it
  auto submitted = scheduler.submit(std::move(request));
  ASSERT_TRUE(submitted.is_ok());
  const SequenceResponse response = submitted.value().get();
  EXPECT_EQ(response.outcome, SequenceOutcome::kExpired);
  EXPECT_EQ(response.status.code(), core::StatusCode::kDeadlineExceeded);

  // A full-budget follow-up still runs: no slot leaked.
  auto follow_up = scheduler.submit(make_request(4, 2));
  ASSERT_TRUE(follow_up.is_ok());
  EXPECT_EQ(follow_up.value().get().outcome, SequenceOutcome::kOk);
  EXPECT_EQ(scheduler.pool().active(), 0);

  const SequenceCounters counters = metrics.counters();
  EXPECT_EQ(counters.expired, 1u);
  EXPECT_EQ(counters.completed, 1u);
  EXPECT_TRUE(counters.conserved());
}

TEST(SequenceScheduler, FullQueueShedsDeterministically) {
  auto gated = std::make_unique<GatedBackend>(sim_backend());
  GatedBackend* gate = gated.get();
  SequenceSchedulerConfig config;
  config.max_active = 1;
  config.max_queue_depth = 1;
  MetricsRegistry metrics;
  SequenceScheduler scheduler("tiny-lm", std::move(gated), StatePoolConfig{},
                              config, &metrics);

  // First request parks inside prefill; second fills the queue; third
  // must shed with kResourceExhausted.
  auto first = scheduler.submit(make_request(2, 2));
  ASSERT_TRUE(first.is_ok());
  gate->await_entered();
  auto second = scheduler.submit(make_request(2, 2));
  ASSERT_TRUE(second.is_ok());
  auto third = scheduler.submit(make_request(2, 2));
  EXPECT_EQ(third.status().code(), core::StatusCode::kResourceExhausted);

  gate->open();
  EXPECT_EQ(first.value().get().outcome, SequenceOutcome::kOk);
  EXPECT_EQ(second.value().get().outcome, SequenceOutcome::kOk);
  const SequenceCounters counters = metrics.counters();
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.completed, 2u);
  EXPECT_TRUE(counters.conserved());
}

TEST(SequenceScheduler, IdleEvictionRetiresAsEvictedAndConserves) {
  // A decode step that stalls past the pool's idle timeout leaves the
  // lease stale; the scheduler's reap must retire the sequence as
  // kEvicted (not hang, not alias the slot) and keep the books exact.
  auto gated = std::make_unique<GatedDecodeBackend>(sim_backend());
  GatedDecodeBackend* gate = gated.get();
  SequenceSchedulerConfig config;
  config.max_active = 1;
  StatePoolConfig pool;
  pool.slots = 1;
  pool.idle_timeout_s = 0.02;
  MetricsRegistry metrics;
  SequenceScheduler scheduler("tiny-lm", std::move(gated), pool, config,
                              &metrics);

  auto stalled = scheduler.submit(make_request(2, 8));
  ASSERT_TRUE(stalled.is_ok());
  gate->await_entered();  // parked inside the first decode step
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate->open();

  const SequenceResponse response = stalled.value().get();
  EXPECT_EQ(response.outcome, SequenceOutcome::kEvicted);
  EXPECT_EQ(response.status.code(), core::StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler.pool().active(), 0);
  EXPECT_GE(scheduler.pool().evictions(), 1u);

  // The slot is reusable by a fresh sequence (no aliasing, no leak).
  auto follow_up = scheduler.submit(make_request(2, 2));
  ASSERT_TRUE(follow_up.is_ok());
  EXPECT_EQ(follow_up.value().get().outcome, SequenceOutcome::kOk);

  const SequenceCounters counters = metrics.counters();
  EXPECT_EQ(counters.evicted, 1u);
  EXPECT_EQ(counters.completed, 1u);
  EXPECT_TRUE(counters.conserved());
}

TEST(SequenceScheduler, ShutdownDrainsAndConserves) {
  auto gated = std::make_unique<GatedBackend>(sim_backend());
  GatedBackend* gate = gated.get();
  SequenceSchedulerConfig config;
  config.max_active = 1;
  MetricsRegistry metrics;
  SequenceScheduler scheduler("tiny-lm", std::move(gated), StatePoolConfig{},
                              config, &metrics);

  auto in_flight = scheduler.submit(make_request(2, 4));
  ASSERT_TRUE(in_flight.is_ok());
  gate->await_entered();
  auto queued = scheduler.submit(make_request(2, 4));
  ASSERT_TRUE(queued.is_ok());

  gate->open();
  scheduler.shutdown();
  // Both futures resolve: the in-flight sequence either completed or
  // was evicted mid-decode; the queued one was shed or completed,
  // depending on how far the worker got. Either way nothing hangs and
  // the books balance.
  in_flight.value().get();
  queued.value().get();
  EXPECT_TRUE(metrics.counters().conserved());
  EXPECT_EQ(scheduler.pool().active(), 0);

  auto late = scheduler.submit(make_request(2, 2));
  EXPECT_EQ(late.status().code(), core::StatusCode::kUnavailable);
  EXPECT_TRUE(metrics.counters().conserved());
}

// -------------------------------------------------------------- server

TEST(ServerSequence, RoutesMetricsAndPrometheus) {
  Server server(1);
  SequenceDeploymentConfig config;
  config.name = "agri-lm";
  config.scheduler.max_active = 2;
  ASSERT_TRUE(server
                  .register_sequence_model(
                      config, [] { return sim_backend(); })
                  .is_ok());
  // Names collide across image and sequence namespaces.
  EXPECT_FALSE(server
                   .register_sequence_model(
                       config, [] { return sim_backend(); })
                   .is_ok());
  EXPECT_EQ(server.sequence_model_names(),
            std::vector<std::string>{"agri-lm"});

  SequenceRequest request = make_request(3, 5);
  request.model = "agri-lm";
  SequenceResponse response = server.generate_sync(std::move(request));
  EXPECT_TRUE(response.status.is_ok());
  EXPECT_EQ(response.tokens.size(), 5u);
  EXPECT_GT(response.tokens_per_s, 0.0);

  SequenceRequest unknown = make_request(3, 5);
  unknown.model = "nope";
  EXPECT_EQ(server.generate_sync(std::move(unknown)).status.code(),
            core::StatusCode::kNotFound);

  ASSERT_NE(server.metrics("agri-lm"), nullptr);
  EXPECT_TRUE(server.metrics("agri-lm")->counters().conserved());
  ASSERT_NE(server.sequence_scheduler("agri-lm"), nullptr);

  const std::string text = server.prometheus_text();
  EXPECT_NE(text.find("harvest_sequences_active"), std::string::npos);
  EXPECT_NE(text.find("harvest_sequence_state_pool_bytes"),
            std::string::npos);
  EXPECT_NE(text.find("harvest_sequence_outcomes_total"), std::string::npos);
  EXPECT_NE(text.find("harvest_sequence_ttft_seconds"), std::string::npos);
  EXPECT_NE(text.find("model=\"agri-lm\""), std::string::npos);

  server.shutdown();
  SequenceRequest after = make_request(3, 5);
  after.model = "agri-lm";
  EXPECT_EQ(server.generate_sync(std::move(after)).status.code(),
            core::StatusCode::kUnavailable);
}

TEST(ServerSequence, RepositoryLoadsSequenceWorkload) {
  const char* config_text = R"({
    "models": [
      {
        "name": "agri-lm-sim",
        "workload": "sequence",
        "backend": "sim",
        "architecture": "rwkv",
        "vocab": 64, "dim": 16, "depth": 2, "max_tokens": 64,
        "max_active": 4, "max_new_tokens": 8
      },
      {
        "name": "agri-lm-native",
        "workload": "sequence",
        "backend": "native",
        "architecture": "attn",
        "vocab": 32, "dim": 16, "depth": 1, "heads": 2, "max_tokens": 32,
        "max_active": 2, "slots": 4
      }
    ]
  })";
  auto parsed = core::Json::parse(config_text);
  ASSERT_TRUE(parsed.is_ok());
  Server server(1);
  ASSERT_TRUE(load_repository(server, parsed.value()).is_ok());
  EXPECT_EQ(server.sequence_model_names().size(), 2u);

  for (const char* name : {"agri-lm-sim", "agri-lm-native"}) {
    SequenceRequest request = make_request(4, 4);
    request.model = name;
    const SequenceResponse response = server.generate_sync(std::move(request));
    EXPECT_TRUE(response.status.is_ok()) << name;
    EXPECT_EQ(response.tokens.size(), 4u) << name;
  }
  server.shutdown();
}

TEST(ServerSequence, RepositoryRejectsBadSequenceEntries) {
  for (const char* bad : {
           R"({"models":[{"name":"x","workload":"sequence","architecture":"lstm"}]})",
           R"({"models":[{"name":"x","workload":"sequence","max_active":0}]})",
           R"({"models":[{"name":"x","workload":"sequence","slots":1,"max_active":4}]})",
           R"({"models":[{"name":"x","workload":"teapot"}]})",
           R"({"models":[{"name":"x","workload":"sequence","backend":"sim","dim":0}]})",
           R"({"models":[{"name":"x","workload":"sequence","architecture":"attn","dim":16,"heads":3}]})",
           R"({"models":[{"name":"x","workload":"sequence","weights":"/nonexistent/agri-lm.hvst"}]})",
       }) {
    auto parsed = core::Json::parse(bad);
    ASSERT_TRUE(parsed.is_ok());
    Server server(1);
    EXPECT_FALSE(load_repository(server, parsed.value()).is_ok()) << bad;
    server.shutdown();
  }
}

/// The value of the first exposition sample that starts with `prefix`
/// (family name plus the opening of its label set); -1 when absent.
double sample_value(const std::string& text, const std::string& prefix) {
  const std::size_t at = text.find(prefix);
  if (at == std::string::npos) return -1.0;
  const std::size_t value = text.find("} ", at);
  return value == std::string::npos ? -1.0
                                    : std::stod(text.substr(value + 2));
}

TEST(ServerSequence, RetiredSequenceIsARequest) {
  Server server(1);
  SequenceDeploymentConfig config;
  config.name = "agri-lm";
  ASSERT_TRUE(server
                  .register_sequence_model(
                      config, [] { return sim_backend(); })
                  .is_ok());
  for (int i = 0; i < 3; ++i) {
    SequenceRequest request = make_request(3, 4);
    request.model = "agri-lm";
    EXPECT_TRUE(server.generate_sync(std::move(request)).status.is_ok());
  }
  const std::string text = server.prometheus_text();
  EXPECT_EQ(sample_value(
                text, "harvest_request_latency_seconds_count{model=\"agri-lm\""),
            3.0);
  EXPECT_EQ(sample_value(
                text, "harvest_queue_time_seconds_count{model=\"agri-lm\""),
            3.0);
  EXPECT_EQ(sample_value(
                text, "harvest_requests_completed_total{model=\"agri-lm\""),
            3.0);
  EXPECT_EQ(sample_value(text, "harvest_sequence_outcomes_total{model=\"agri-lm\","
                               "outcome=\"ok\""),
            3.0);
  ASSERT_NE(server.metrics("agri-lm"), nullptr);
  EXPECT_EQ(server.metrics("agri-lm")->snapshot(1.0).completed, 3u);
  server.shutdown();
}

TEST(ServerSequence, RetiredSequenceRecordsItsDecodeTime) {
  Server server(1);
  SequenceDeploymentConfig config;
  config.name = "agri-lm";
  ASSERT_TRUE(server
                  .register_sequence_model(
                      config, [] { return sim_backend(); })
                  .is_ok());
  double decode_s = 0.0;
  for (int i = 0; i < 5; ++i) {
    SequenceRequest request = make_request(3, 4);
    request.model = "agri-lm";
    const SequenceResponse response = server.generate_sync(std::move(request));
    EXPECT_TRUE(response.status.is_ok());
    decode_s += std::max(0.0, response.timing.total_s - response.timing.queue_s);
  }
  const std::string text = server.prometheus_text();
  EXPECT_EQ(sample_value(
                text, "harvest_inference_time_seconds_count{model=\"agri-lm\""),
            5.0);
  const double sum = sample_value(
      text, "harvest_inference_time_seconds_sum{model=\"agri-lm\"");
  EXPECT_GT(sum, 0.0);
  // The exposition prints six significant digits.
  EXPECT_NEAR(sum, decode_s, 1e-5 * decode_s);
  server.shutdown();
}

// -------------------------------------------------------------- client

TEST(RetryingSequenceClient, FallsBackToDegradeModel) {
  Server server(1);
  SequenceDeploymentConfig config;
  config.name = "agri-lm-small";
  ASSERT_TRUE(server
                  .register_sequence_model(
                      config, [] { return sim_backend(); })
                  .is_ok());

  resilience::ClientOptions options;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_s = 1e-4;
  options.fallback_model = "agri-lm-small";
  resilience::RetryingClient client(server, options);

  // Target deployment does not exist: not retryable, but the fallback
  // model answers.
  SequenceRequest request = make_request(3, 4);
  request.model = "agri-lm-big";
  const SequenceResponse response = client.generate_sync(std::move(request));
  EXPECT_TRUE(response.status.is_ok());
  EXPECT_EQ(response.tokens.size(), 4u);
  const auto counters = client.counters();
  EXPECT_EQ(counters.attempts, 1u);
  EXPECT_EQ(counters.retries, 0u);
  EXPECT_EQ(counters.degraded, 1u);
  server.shutdown();
}

TEST(RetryingSequenceClient, RetriesShedRequests) {
  auto gated = std::make_unique<GatedBackend>(sim_backend());
  GatedBackend* gate = gated.get();
  Server server(1);
  SequenceDeploymentConfig config;
  config.name = "agri-lm";
  config.scheduler.max_active = 1;
  config.scheduler.max_queue_depth = 1;
  auto shared = std::make_shared<SequenceBackendPtr>(std::move(gated));
  ASSERT_TRUE(server
                  .register_sequence_model(
                      config, [shared] { return std::move(*shared); })
                  .is_ok());

  // Park the worker and fill the queue, so the client's first attempt
  // sheds; open the gate from another thread while it backs off.
  auto first = server.submit_sequence([&] {
    SequenceRequest r = make_request(2, 2);
    r.model = "agri-lm";
    return r;
  }());
  ASSERT_TRUE(first.is_ok());
  gate->await_entered();
  auto second = server.submit_sequence([&] {
    SequenceRequest r = make_request(2, 2);
    r.model = "agri-lm";
    return r;
  }());
  ASSERT_TRUE(second.is_ok());

  resilience::ClientOptions options;
  options.retry.max_attempts = 6;
  options.retry.initial_backoff_s = 20e-3;
  options.retry.jitter = 0.0;
  resilience::RetryingClient client(server, options);
  // The gate stays closed until the client has provably shed once (its
  // retry counter bumps before the backoff sleep), so attempt 1 always
  // fails; once open, the worker drains instantly and a later attempt
  // lands in the emptied queue.
  std::thread opener([&] {
    while (client.counters().retries == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gate->open();
  });
  SequenceRequest request = make_request(2, 2);
  request.model = "agri-lm";
  const SequenceResponse response = client.generate_sync(std::move(request));
  opener.join();
  EXPECT_TRUE(response.status.is_ok());
  EXPECT_GE(client.counters().retries, 1u);
  first.value().get();
  second.value().get();
  server.shutdown();
  EXPECT_TRUE(server.metrics("agri-lm")->counters().conserved());
}

TEST(RetryingSequenceClient, DeadlineStoppedRetryIsAbandonedNotRetried) {
  auto gated = std::make_unique<GatedBackend>(sim_backend());
  GatedBackend* gate = gated.get();
  Server server(1);
  SequenceDeploymentConfig config;
  config.name = "agri-lm";
  config.scheduler.max_active = 1;
  config.scheduler.max_queue_depth = 1;
  auto shared = std::make_shared<SequenceBackendPtr>(std::move(gated));
  ASSERT_TRUE(server
                  .register_sequence_model(
                      config, [shared] { return std::move(*shared); })
                  .is_ok());

  // Park the worker and fill the queue, so every submit sheds.
  auto first = server.submit_sequence([&] {
    SequenceRequest r = make_request(2, 2);
    r.model = "agri-lm";
    return r;
  }());
  ASSERT_TRUE(first.is_ok());
  gate->await_entered();
  auto second = server.submit_sequence([&] {
    SequenceRequest r = make_request(2, 2);
    r.model = "agri-lm";
    return r;
  }());
  ASSERT_TRUE(second.is_ok());

  // The first backoff (20 ms) overruns the 1 ms budget, so the client
  // gives up after one attempt without taking a retry.
  resilience::ClientOptions options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff_s = 20e-3;
  options.retry.jitter = 0.0;
  resilience::RetryingClient client(server, options);
  SequenceRequest request = make_request(2, 2);
  request.model = "agri-lm";
  request.deadline_s = 1e-3;
  const SequenceResponse response = client.generate_sync(std::move(request));
  EXPECT_EQ(response.outcome, SequenceOutcome::kShed);
  const auto counters = client.counters();
  EXPECT_EQ(counters.attempts, 1u);
  EXPECT_EQ(counters.retries, 0u);
  EXPECT_EQ(counters.abandoned, 1u);

  gate->open();
  first.value().get();
  second.value().get();
  server.shutdown();
}

TEST(RetryingSequenceClient, RetriesCountInTheDeploymentRegistry) {
  auto gated = std::make_unique<GatedBackend>(sim_backend());
  GatedBackend* gate = gated.get();
  Server server(1);
  SequenceDeploymentConfig config;
  config.name = "agri-lm";
  config.scheduler.max_active = 1;
  config.scheduler.max_queue_depth = 1;
  auto shared = std::make_shared<SequenceBackendPtr>(std::move(gated));
  ASSERT_TRUE(server
                  .register_sequence_model(
                      config, [shared] { return std::move(*shared); })
                  .is_ok());
  const auto agri_request = [] {
    SequenceRequest r = make_request(2, 2);
    r.model = "agri-lm";
    return r;
  };
  // Park the worker and fill the queue: the client's first attempt
  // sheds, and the gate opens once its retry is on the books.
  auto first = server.submit_sequence(agri_request());
  ASSERT_TRUE(first.is_ok());
  gate->await_entered();
  auto second = server.submit_sequence(agri_request());
  ASSERT_TRUE(second.is_ok());

  resilience::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_s = 20e-3;
  policy.jitter = 0.0;
  resilience::RetryingClient client(server, policy);
  std::thread opener([&] {
    while (client.counters().retries == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gate->open();
  });
  const SequenceResponse response = client.generate_sync(agri_request());
  opener.join();
  EXPECT_TRUE(response.status.is_ok());
  first.value().get();
  second.value().get();

  const std::string text = server.prometheus_text();
  EXPECT_EQ(sample_value(text, "harvest_retries_total{model=\"agri-lm\""),
            static_cast<double>(client.counters().retries));
  EXPECT_GE(sample_value(text, "harvest_retries_total{model=\"agri-lm\""),
            1.0);
  EXPECT_GE(sample_value(text,
                         "harvest_requests_shed_total{model=\"agri-lm\""),
            1.0);
  server.shutdown();
}

}  // namespace
}  // namespace harvest::serving::sequence
