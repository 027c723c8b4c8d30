/// Resilience subsystem tests: seeded fault injection, retry/backoff
/// clients, admission control and graceful degradation — on the unit
/// level, against the real threaded server, and inside the DES. The
/// reproducibility contract (same seed → byte-identical fault sequence
/// and counters) is asserted explicitly; it is what makes the
/// fault × retry × shedding ablation curves comparable.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/json.hpp"
#include "data/datasets.hpp"
#include "platform/device.hpp"
#include "serving/online_sim.hpp"
#include "serving/repository.hpp"
#include "serving/resilience/admission.hpp"
#include "serving/resilience/fault.hpp"
#include "serving/resilience/retry.hpp"
#include "serving/server.hpp"

namespace harvest::serving {
namespace {

using resilience::AdmissionConfig;
using resilience::AdmissionController;
using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::RetryingClient;
using resilience::RetryPolicy;

// ------------------------------------------------------------ test doubles

/// Instant backend with deterministic zero logits and a call counter.
class CountingBackend : public Backend {
 public:
  const std::string& name() const override { return name_; }
  std::int64_t max_batch() const override { return 8; }
  std::int64_t num_classes() const override { return 4; }
  std::int64_t input_size() const override { return 16; }
  core::Result<BackendResult> infer(const tensor::Tensor& batch) override {
    calls_.fetch_add(1);
    BackendResult result;
    result.logits = tensor::Tensor::zeros(
        tensor::Shape{batch.shape()[0], num_classes()});
    return result;
  }
  int calls() const { return calls_.load(); }

 private:
  std::string name_ = "counting";
  std::atomic<int> calls_{0};
};

/// Fails the first `failures` infer calls with kInternal, then succeeds.
class FailNTimesBackend final : public CountingBackend {
 public:
  explicit FailNTimesBackend(int failures) : failures_(failures) {}
  core::Result<BackendResult> infer(const tensor::Tensor& batch) override {
    if (fails_.fetch_add(1) < failures_) {
      return core::Status::internal("transient test failure");
    }
    return CountingBackend::infer(batch);
  }

 private:
  int failures_;
  std::atomic<int> fails_{0};
};

/// Sleeps per call so the batcher queue backs up under a burst.
class SlowBackend final : public CountingBackend {
 public:
  explicit SlowBackend(double seconds) : seconds_(seconds) {}
  core::Result<BackendResult> infer(const tensor::Tensor& batch) override {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds_));
    return CountingBackend::infer(batch);
  }

 private:
  double seconds_;
};

preproc::EncodedImage tiny_input(std::uint64_t seed) {
  const preproc::Image img = preproc::synthesize_field_image(20, 20, seed);
  return preproc::encode_image(img, preproc::ImageFormat::kAgJpeg);
}

ModelDeploymentConfig tiny_deployment(const std::string& name) {
  ModelDeploymentConfig config;
  config.name = name;
  config.max_batch = 4;
  config.instances = 1;
  config.max_queue_delay_s = 1e-3;
  config.preproc.output_size = 16;
  return config;
}

InferenceRequest request_for(const std::string& model, std::uint64_t seed) {
  InferenceRequest request;
  request.model = model;
  request.input = tiny_input(seed);
  return request;
}

const data::DatasetSpec& plant_village() {
  static const data::DatasetSpec spec = *data::find_dataset("Plant Village");
  return spec;
}

// ------------------------------------------------------------- fault plan

TEST(FaultPlan, ParsesRepositoryKeys) {
  const auto json = core::Json::parse(R"({
    "seed": 9,
    "transient_error_rate": 0.05,
    "transient_code": "internal",
    "latency_spike_rate": 0.01,
    "latency_spike_ms": 20.0,
    "crash_period_calls": 100,
    "crash_downtime_calls": 5,
    "crash_mtbf_s": 3.0,
    "crash_downtime_ms": 500.0,
    "stall_rate": 0.02,
    "stall_ms": 80.0
  })");
  ASSERT_TRUE(json.is_ok());
  const auto plan = resilience::parse_fault_plan(json.value());
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan.value().seed, 9u);
  EXPECT_DOUBLE_EQ(plan.value().transient_error_rate, 0.05);
  EXPECT_EQ(plan.value().transient_code, core::StatusCode::kInternal);
  EXPECT_DOUBLE_EQ(plan.value().latency_spike_s, 0.020);
  EXPECT_EQ(plan.value().crash_period_calls, 100);
  EXPECT_DOUBLE_EQ(plan.value().crash_downtime_s, 0.5);
  EXPECT_DOUBLE_EQ(plan.value().stall_s, 0.080);
  EXPECT_TRUE(plan.value().backend_faults());
  EXPECT_TRUE(plan.value().any());
}

TEST(FaultPlan, RejectsBadRatesAndCodes) {
  for (const char* bad : {R"({"transient_error_rate": 1.5})",
                          R"({"stall_rate": -0.1})",
                          R"({"transient_code": "teapot"})",
                          R"({"crash_period_calls": 10})"}) {
    const auto json = core::Json::parse(bad);
    ASSERT_TRUE(json.is_ok()) << bad;
    EXPECT_FALSE(resilience::parse_fault_plan(json.value()).is_ok()) << bad;
  }
}

TEST(FaultInjection, SameSeedSameDecisionStream) {
  FaultPlan plan;
  plan.seed = 11;
  plan.transient_error_rate = 0.3;
  plan.latency_spike_rate = 0.2;
  plan.latency_spike_s = 0.001;
  FaultInjector a(plan, /*instance_salt=*/0);
  FaultInjector b(plan, /*instance_salt=*/0);
  for (int i = 0; i < 200; ++i) {
    const FaultInjector::Decision da = a.next();
    const FaultInjector::Decision db = b.next();
    EXPECT_EQ(da.status.code(), db.status.code());
    EXPECT_EQ(da.delay_s, db.delay_s);
    EXPECT_EQ(da.fail_fast, db.fail_fast);
  }
  EXPECT_EQ(a.injected_errors(), b.injected_errors());
  EXPECT_GT(a.injected_errors(), 0);

  // A different salt is a different (still deterministic) stream.
  FaultInjector c(plan, /*instance_salt=*/1);
  int diverged = 0;
  for (int i = 0; i < 200; ++i) {
    if (c.next().status.code() != core::StatusCode::kOk) ++diverged;
  }
  EXPECT_NE(diverged, a.injected_errors());
}

TEST(FaultInjection, CrashClockFailsFastForTheDowntimeWindow) {
  FaultPlan plan;
  plan.crash_period_calls = 5;
  plan.crash_downtime_calls = 2;
  FaultInjector injector(plan, 0);
  int fail_fast = 0;
  for (int i = 0; i < 20; ++i) {
    const FaultInjector::Decision d = injector.next();
    if (d.fail_fast) {
      ++fail_fast;
      EXPECT_EQ(d.status.code(), core::StatusCode::kUnavailable);
    }
  }
  // Calls 5,6 then 10,11 then 15,16 then 20: two-call windows at each
  // period boundary.
  EXPECT_EQ(fail_fast, 7);
}

TEST(FaultInjection, FaultyBackendSpendsEngineTimeOnTransients) {
  FaultPlan plan;
  plan.transient_error_rate = 1.0;
  plan.transient_code = core::StatusCode::kUnavailable;
  auto counting = std::make_unique<CountingBackend>();
  CountingBackend* inner = counting.get();
  resilience::FaultyBackend faulty(std::move(counting), plan, 0);
  const tensor::Tensor batch =
      tensor::Tensor::zeros(tensor::Shape{2, 3, 16, 16});
  const auto result = faulty.infer(batch);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kUnavailable);
  // Transient faults run the engine first (work done, answer lost).
  EXPECT_EQ(inner->calls(), 1);
}

TEST(FaultInjection, WrapWithFaultsIsPassthroughWithoutBackendFaults) {
  FaultPlan plan;
  plan.stall_rate = 0.5;  // DES-only fault: no backend wrapping needed
  auto backend = std::make_unique<CountingBackend>();
  Backend* raw = backend.get();
  BackendPtr wrapped = resilience::wrap_with_faults(std::move(backend), plan, 0);
  EXPECT_EQ(wrapped.get(), raw);

  plan.transient_error_rate = 0.1;
  BackendPtr decorated =
      resilience::wrap_with_faults(std::move(wrapped), plan, 0);
  EXPECT_NE(decorated.get(), raw);
}

// ----------------------------------------------------------------- retry

TEST(Retry, RetryableCodes) {
  EXPECT_TRUE(RetryPolicy::retryable(core::StatusCode::kUnavailable));
  EXPECT_TRUE(RetryPolicy::retryable(core::StatusCode::kResourceExhausted));
  EXPECT_TRUE(RetryPolicy::retryable(core::StatusCode::kInternal));
  EXPECT_FALSE(RetryPolicy::retryable(core::StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(RetryPolicy::retryable(core::StatusCode::kInvalidArgument));
  EXPECT_FALSE(RetryPolicy::retryable(core::StatusCode::kNotFound));
}

TEST(Retry, BackoffGrowsAndClampsDeterministically) {
  RetryPolicy policy;
  policy.initial_backoff_s = 1e-3;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 3e-3;
  policy.jitter = 0.0;  // deterministic for the arithmetic check
  core::Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.backoff_s(1, rng), 1e-3);
  EXPECT_DOUBLE_EQ(policy.backoff_s(2, rng), 2e-3);
  EXPECT_DOUBLE_EQ(policy.backoff_s(3, rng), 3e-3);  // clamped
  EXPECT_DOUBLE_EQ(policy.backoff_s(7, rng), 3e-3);

  policy.jitter = 0.5;
  for (int i = 0; i < 50; ++i) {
    const double b = policy.backoff_s(2, rng);
    EXPECT_GT(b, 1e-3 - 1e-12);  // jitter shrinks by at most 50%
    EXPECT_LE(b, 2e-3);
  }
}

TEST(Retry, ParseValidatesPolicy) {
  const auto good = core::Json::parse(
      R"({"max_attempts": 4, "initial_backoff_ms": 2.0, "jitter": 0.25})");
  ASSERT_TRUE(good.is_ok());
  const auto policy = resilience::parse_retry_policy(good.value());
  ASSERT_TRUE(policy.is_ok());
  EXPECT_EQ(policy.value().max_attempts, 4);
  EXPECT_DOUBLE_EQ(policy.value().initial_backoff_s, 2e-3);
  EXPECT_TRUE(policy.value().enabled());

  const auto bad = core::Json::parse(R"({"max_attempts": 0})");
  ASSERT_TRUE(bad.is_ok());
  EXPECT_FALSE(resilience::parse_retry_policy(bad.value()).is_ok());
}

TEST(Retry, DeadlineRuleAbandonsOnTheEqualityBoundary) {
  // The one rule RetryingClient and the online and continuum DESs share:
  // a backoff that ends exactly at the deadline is not taken. Binary
  // fractions keep elapsed + backoff exact.
  RetryPolicy policy;
  policy.max_attempts = 3;
  EXPECT_TRUE(policy.overruns_deadline(0.25, 0.75, 1.0));   // == deadline
  EXPECT_TRUE(policy.overruns_deadline(0.5, 0.75, 1.0));    // past it
  EXPECT_FALSE(policy.overruns_deadline(0.25, 0.625, 1.0)); // inside it
  EXPECT_FALSE(policy.overruns_deadline(0.25, 0.75, 0.0));  // no deadline
  policy.respect_deadline = false;
  EXPECT_FALSE(policy.overruns_deadline(0.5, 0.75, 1.0));
}

TEST(Retry, ClientRetriesUntilSuccess) {
  Server server(1);
  ASSERT_TRUE(server
                  .register_model(tiny_deployment("flaky"),
                                  [] {
                                    return std::make_unique<FailNTimesBackend>(
                                        2);
                                  })
                  .is_ok());
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_s = 1e-4;
  policy.max_backoff_s = 1e-3;
  RetryingClient client(server, policy);
  const InferenceResponse response =
      client.infer_sync(request_for("flaky", 1));
  EXPECT_TRUE(response.status.is_ok()) << response.status.message();
  const RetryingClient::Counters counters = client.counters();
  EXPECT_EQ(counters.attempts, 3u);  // fail, fail, success
  EXPECT_EQ(counters.retries, 2u);
  EXPECT_EQ(counters.abandoned, 0u);
  // The deployment registry saw the same retries.
  const MetricsSnapshot snap = server.metrics("flaky")->snapshot(1.0);
  EXPECT_EQ(snap.retries, 2u);
  EXPECT_EQ(snap.retry_abandoned, 0u);
  server.shutdown();
}

TEST(Retry, ClientAbandonsWhenAttemptsExhausted) {
  Server server(1);
  ASSERT_TRUE(server
                  .register_model(tiny_deployment("dead"),
                                  [] {
                                    return std::make_unique<FailNTimesBackend>(
                                        1000000);
                                  })
                  .is_ok());
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_s = 1e-4;
  policy.max_backoff_s = 1e-3;
  RetryingClient client(server, policy);
  const InferenceResponse response =
      client.infer_sync(request_for("dead", 1));
  EXPECT_FALSE(response.status.is_ok());
  const RetryingClient::Counters counters = client.counters();
  EXPECT_EQ(counters.attempts, 3u);
  EXPECT_EQ(counters.abandoned, 1u);
  EXPECT_EQ(server.metrics("dead")->snapshot(1.0).retry_abandoned, 1u);
  server.shutdown();
}

TEST(Retry, ClientHonoursDeadlineBudget) {
  Server server(1);
  ASSERT_TRUE(server
                  .register_model(tiny_deployment("dead"),
                                  [] {
                                    return std::make_unique<FailNTimesBackend>(
                                        1000000);
                                  })
                  .is_ok());
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff_s = 10.0;  // any backoff overruns the budget
  policy.max_backoff_s = 10.0;
  policy.jitter = 0.0;
  RetryingClient client(server, policy);
  InferenceRequest request = request_for("dead", 1);
  request.deadline_s = 0.5;
  const InferenceResponse response = client.infer_sync(std::move(request));
  EXPECT_FALSE(response.status.is_ok());
  const RetryingClient::Counters counters = client.counters();
  // One attempt, then the 10 s backoff would blow the 0.5 s budget.
  EXPECT_EQ(counters.attempts, 1u);
  EXPECT_EQ(counters.retries, 0u);
  EXPECT_EQ(counters.abandoned, 1u);
  server.shutdown();
}

// ------------------------------------------------------------- admission

TEST(Admission, DepthThresholdSheds) {
  AdmissionConfig config;
  config.max_queue_depth = 4;
  AdmissionController controller(config, /*instances=*/1);
  EXPECT_TRUE(controller.enabled());
  EXPECT_TRUE(controller.admit(0));
  EXPECT_TRUE(controller.admit(3));
  EXPECT_FALSE(controller.admit(4));
  EXPECT_FALSE(controller.admit(100));
}

TEST(Admission, DelayThresholdUsesPriorThenTracksObservations) {
  AdmissionConfig config;
  config.max_estimated_delay_s = 0.1;
  config.service_time_prior_s = 0.01;  // 10 ms/request prior
  AdmissionController controller(config, /*instances=*/2);
  // depth 10 → 10 × 10 ms / 2 instances = 50 ms < 100 ms.
  EXPECT_TRUE(controller.admit(10));
  EXPECT_DOUBLE_EQ(controller.estimated_delay_s(10), 0.05);
  EXPECT_FALSE(controller.admit(30));  // 150 ms > 100 ms

  // The engine turns out 10× slower than the prior; the EWMA converges
  // and the same depth now sheds.
  for (int i = 0; i < 50; ++i) controller.observe_batch(4, 0.4);
  EXPECT_NEAR(controller.service_time_s(), 0.1, 0.02);
  EXPECT_FALSE(controller.admit(10));
}

TEST(Admission, DisabledControllerAdmitsEverything) {
  AdmissionController controller(AdmissionConfig{}, 1);
  EXPECT_FALSE(controller.enabled());
  EXPECT_TRUE(controller.admit(1u << 20));
}

TEST(Admission, ParseValidatesConfig) {
  const auto good = core::Json::parse(
      R"({"max_queue_depth": 64, "max_estimated_delay_ms": 80.0})");
  ASSERT_TRUE(good.is_ok());
  const auto config = resilience::parse_admission_config(good.value());
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config.value().max_queue_depth, 64u);
  EXPECT_DOUBLE_EQ(config.value().max_estimated_delay_s, 0.08);

  const auto bad = core::Json::parse(R"({"max_queue_depth": -1})");
  ASSERT_TRUE(bad.is_ok());
  EXPECT_FALSE(resilience::parse_admission_config(bad.value()).is_ok());
}

TEST(Admission, ServerShedsWithResourceExhausted) {
  Server server(1);
  ModelDeploymentConfig config = tiny_deployment("slow");
  config.admission.max_queue_depth = 2;
  config.max_queue_delay_s = 5e-3;
  ASSERT_TRUE(server
                  .register_model(config,
                                  [] {
                                    return std::make_unique<SlowBackend>(0.05);
                                  })
                  .is_ok());
  // Burst far past the depth bound; the worker drains 4 per 50 ms.
  std::vector<std::future<InferenceResponse>> accepted;
  std::int64_t sheds = 0;
  for (int i = 0; i < 32; ++i) {
    auto submitted = server.submit(request_for("slow", i));
    if (submitted.is_ok()) {
      accepted.push_back(std::move(submitted).value());
    } else {
      EXPECT_EQ(submitted.status().code(),
                core::StatusCode::kResourceExhausted);
      ++sheds;
    }
  }
  EXPECT_GT(sheds, 0);
  for (auto& f : accepted) f.get();
  const MetricsSnapshot snap = server.metrics("slow")->snapshot(1.0);
  EXPECT_EQ(snap.shed, static_cast<std::uint64_t>(sheds));
  EXPECT_EQ(snap.outcomes[static_cast<std::size_t>(RequestOutcome::kShed)],
            static_cast<std::uint64_t>(sheds));
  // The shed outcome is visible in the Prometheus exposition.
  const std::string text = server.prometheus_text();
  EXPECT_NE(text.find("harvest_requests_outcome_total"), std::string::npos);
  EXPECT_NE(text.find("outcome=\"shed\""), std::string::npos);
  server.shutdown();
}

TEST(Admission, ServerDegradesToInt8Twin) {
  Server server(1);
  ModelDeploymentConfig primary = tiny_deployment("crop");
  primary.admission.max_queue_depth = 1;
  primary.degrade_to = "crop_int8";
  ASSERT_TRUE(server
                  .register_model(primary,
                                  [] {
                                    return std::make_unique<SlowBackend>(0.05);
                                  })
                  .is_ok());
  ModelDeploymentConfig twin = tiny_deployment("crop_int8");
  twin.precision = "int8";
  ASSERT_TRUE(server
                  .register_model(twin,
                                  [] {
                                    return std::make_unique<CountingBackend>();
                                  })
                  .is_ok());
  std::vector<std::future<InferenceResponse>> accepted;
  for (int i = 0; i < 16; ++i) {
    auto submitted = server.submit(request_for("crop", i));
    if (submitted.is_ok()) accepted.push_back(std::move(submitted).value());
  }
  for (auto& f : accepted) f.get();
  // The fast twin admits what the primary could not; nothing is shed.
  const MetricsSnapshot primary_snap = server.metrics("crop")->snapshot(1.0);
  EXPECT_GT(primary_snap.degraded, 0u);
  EXPECT_EQ(primary_snap.shed, 0u);
  EXPECT_GT(server.metrics("crop_int8")->snapshot(1.0).completed, 0u);
  server.shutdown();
}

// ------------------------------------------------------------ repository

TEST(Repository, ParsesResilienceKeysAndValidatesDegradeTarget) {
  const auto config = core::Json::parse(R"({
    "models": [
      {"name": "vit", "architecture": "vit", "image": 16, "patch": 4,
       "dim": 16, "depth": 1, "heads": 2, "classes": 4, "max_batch": 4,
       "faults": {"transient_error_rate": 0.1, "seed": 5},
       "admission": {"max_queue_depth": 8},
       "degrade_to": "vit_int8"},
      {"name": "vit_int8", "architecture": "vit", "image": 16, "patch": 4,
       "dim": 16, "depth": 1, "heads": 2, "classes": 4, "max_batch": 4,
       "precision": "int8"}
    ]
  })");
  ASSERT_TRUE(config.is_ok());
  Server server(1);
  ASSERT_TRUE(load_repository(server, config.value()).is_ok());
  ASSERT_NE(server.admission("vit"), nullptr);
  EXPECT_TRUE(server.admission("vit")->enabled());
  EXPECT_EQ(server.admission("vit")->config().max_queue_depth, 8u);
  // The injected faults surface as real kUnavailable responses; a
  // deterministic 10% stream must fail at least once in 64 requests.
  std::int64_t failed = 0;
  for (int i = 0; i < 64; ++i) {
    const InferenceResponse response =
        server.infer_sync(request_for("vit", i));
    if (!response.status.is_ok()) ++failed;
  }
  EXPECT_GT(failed, 0);
  server.shutdown();
}

TEST(Repository, RejectsUnknownDegradeTarget) {
  const auto config = core::Json::parse(R"({
    "models": [
      {"name": "vit", "architecture": "vit", "image": 16, "patch": 4,
       "dim": 16, "depth": 1, "heads": 2, "classes": 4,
       "degrade_to": "ghost"}
    ]
  })");
  ASSERT_TRUE(config.is_ok());
  Server server(1);
  const core::Status status = load_repository(server, config.value());
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("ghost"), std::string::npos);
  server.shutdown();
}

TEST(Repository, RejectsSelfDegrade) {
  const auto config = core::Json::parse(R"({
    "models": [
      {"name": "vit", "architecture": "vit", "image": 16, "patch": 4,
       "dim": 16, "depth": 1, "heads": 2, "classes": 4,
       "degrade_to": "vit"}
    ]
  })");
  ASSERT_TRUE(config.is_ok());
  Server server(1);
  EXPECT_FALSE(load_repository(server, config.value()).is_ok());
  server.shutdown();
}

// ------------------------------------------------------------------- DES

OnlineSimConfig des_config(double qps) {
  OnlineSimConfig config;
  config.arrival_rate_qps = qps;
  config.duration_s = 5.0;
  config.max_batch = 32;
  config.max_queue_delay_s = 2e-3;
  config.instances = 1;
  config.seed = 42;
  config.deadline_s = 0.1;
  return config;
}

TEST(ResilienceSim, FaultPlanCountersAreBitReproducible) {
  OnlineSimConfig config = des_config(1000.0);
  config.faults.transient_error_rate = 0.05;
  config.faults.stall_rate = 0.02;
  config.faults.stall_s = 0.01;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_s = 1e-3;
  const OnlineSimReport a =
      simulate_online(platform::a100(), "ViT_Small", plant_village(), config);
  const OnlineSimReport b =
      simulate_online(platform::a100(), "ViT_Small", plant_village(), config);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);  // bitwise
  EXPECT_EQ(a.goodput_img_per_s, b.goodput_img_per_s);
  EXPECT_GT(a.retries, 0);
}

TEST(ResilienceSim, ArrivalsConservedAcrossOutcomes) {
  OnlineSimConfig config = des_config(1000.0);
  config.faults.transient_error_rate = 0.05;
  config.retry.max_attempts = 2;
  config.admission.max_queue_depth = 64;
  const OnlineSimReport report =
      simulate_online(platform::a100(), "ViT_Small", plant_village(), config);
  // Every arrival ends exactly one way: completed, shed, rejected at
  // the capacity bound, or failed (faults + retries exhausted).
  EXPECT_EQ(report.arrivals,
            report.completed + report.shed + report.rejected + report.failed);
}

TEST(ResilienceSim, RetriesRecoverGoodputUnderTransientFaults) {
  OnlineSimConfig faulty = des_config(1000.0);
  faulty.faults.transient_error_rate = 0.05;
  const OnlineSimReport no_retry =
      simulate_online(platform::a100(), "ViT_Small", plant_village(), faulty);
  faulty.retry.max_attempts = 3;
  faulty.retry.initial_backoff_s = 1e-3;
  const OnlineSimReport with_retry =
      simulate_online(platform::a100(), "ViT_Small", plant_village(), faulty);
  EXPECT_GT(no_retry.failed, 0);
  EXPECT_GT(with_retry.retries, 0);
  EXPECT_LT(with_retry.failed, no_retry.failed);
  EXPECT_GT(with_retry.goodput_img_per_s, no_retry.goodput_img_per_s);
}

TEST(ResilienceSim, SheddingDominatesGoodputUnderOverload) {
  // Acceptance gate: at two overload points, the shedding deployment
  // strictly beats the no-shedding one on goodput (completions within
  // the deadline per second).
  for (double qps : {8000.0, 16000.0}) {
    OnlineSimConfig config = des_config(qps);
    config.max_batch = 64;
    const OnlineSimReport unshedded =
        simulate_online(platform::a100(), "ViT_Small", plant_village(),
                        config);
    config.admission.max_estimated_delay_s = 0.08;
    const OnlineSimReport shedded =
        simulate_online(platform::a100(), "ViT_Small", plant_village(),
                        config);
    EXPECT_GT(shedded.shed, 0) << qps;
    EXPECT_GT(shedded.goodput_img_per_s, unshedded.goodput_img_per_s) << qps;
    // The shed deployment keeps its p99 inside the same order of
    // magnitude as the deadline; the unshedded one does not.
    EXPECT_LT(shedded.p99_latency_s, unshedded.p99_latency_s) << qps;
  }
}

TEST(ResilienceSim, CrashWindowsCostLatency) {
  OnlineSimConfig healthy = des_config(2000.0);
  healthy.instances = 2;
  const OnlineSimReport baseline = simulate_online(
      platform::a100(), "ViT_Small", plant_village(), healthy);
  OnlineSimConfig crashing = healthy;
  crashing.faults.crash_mtbf_s = 1.0;
  crashing.faults.crash_downtime_s = 0.3;
  const OnlineSimReport crashed = simulate_online(
      platform::a100(), "ViT_Small", plant_village(), crashing);
  EXPECT_EQ(crashed.arrivals, baseline.arrivals);  // same arrival stream
  EXPECT_GT(crashed.p99_latency_s, baseline.p99_latency_s);
  EXPECT_GT(crashed.deadline_misses, baseline.deadline_misses);
}

TEST(ResilienceSim, StallsDelayButDoNotLoseRequests) {
  OnlineSimConfig config = des_config(500.0);
  config.faults.stall_rate = 0.1;
  config.faults.stall_s = 0.05;
  const OnlineSimReport report =
      simulate_online(platform::a100(), "ViT_Small", plant_village(), config);
  EXPECT_EQ(report.completed + report.rejected, report.arrivals);
  // A 50 ms stall inside a 100 ms budget shows up in the tail.
  EXPECT_GT(report.p99_latency_s, 0.05);
}

// -------------------------------------------------- outcome label plumbing

TEST(Outcomes, NamesAndPrometheusFamily) {
  EXPECT_STREQ(request_outcome_name(RequestOutcome::kOk), "ok");
  EXPECT_STREQ(request_outcome_name(RequestOutcome::kFailed), "failed");
  EXPECT_STREQ(request_outcome_name(RequestOutcome::kShed), "shed");
  EXPECT_STREQ(request_outcome_name(RequestOutcome::kDeadlineMissed),
               "deadline_missed");

  MetricsRegistry registry;
  RequestTiming timing;
  timing.total_s = 0.01;
  registry.record(timing, RequestOutcome::kOk);
  registry.record(timing, RequestOutcome::kFailed);
  registry.record(timing, RequestOutcome::kDeadlineMissed);
  registry.record(timing, RequestOutcome::kShed);
  const MetricsSnapshot snap = registry.snapshot(1.0);
  EXPECT_EQ(snap.outcomes[static_cast<std::size_t>(RequestOutcome::kOk)], 1u);
  EXPECT_EQ(snap.outcomes[static_cast<std::size_t>(RequestOutcome::kFailed)],
            1u);
  EXPECT_EQ(snap.outcomes[static_cast<std::size_t>(
                RequestOutcome::kDeadlineMissed)],
            1u);
  EXPECT_EQ(snap.outcomes[static_cast<std::size_t>(RequestOutcome::kShed)],
            1u);
  // Distinguishable in the exposition: one labelled sample per outcome.
  obs::PrometheusWriter writer;
  registry.render_prometheus(writer, "m");
  const std::string text = writer.str();
  for (const char* label :
       {"outcome=\"ok\"", "outcome=\"failed\"", "outcome=\"shed\"",
        "outcome=\"deadline_missed\""}) {
    EXPECT_NE(text.find(label), std::string::npos) << label;
  }
}

}  // namespace
}  // namespace harvest::serving
