/// Trace-context propagation tests: one request must yield one
/// causally-linked span tree — across the native serving stack
/// (client_request → request → queue/preprocess/inference/respond, and
/// client_request → deliver for the response's trip back to the client),
/// across retry attempts and degrade failover, and through the DES's
/// simulated hops — and obs::critical_path must attribute the tree's
/// end-to-end latency to within the documented residue.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "data/datasets.hpp"
#include "nn/init.hpp"
#include "nn/models.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "platform/device.hpp"
#include "preproc/codec.hpp"
#include "preproc/image.hpp"
#include "serving/native_backend.hpp"
#include "serving/online_sim.hpp"
#include "serving/resilience/fault.hpp"
#include "serving/resilience/retry.hpp"
#include "serving/server.hpp"

namespace harvest {
namespace {

using obs::TraceRecorder;

struct Span {
  std::string name;
  std::uint64_t span_id = 0;
  std::uint64_t parent = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// All 'X' spans belonging to `trace_id`, from the parsed export.
std::vector<Span> spans_of(const core::Json& doc, std::uint64_t trace_id) {
  std::vector<Span> out;
  for (const core::Json& event : doc.find("traceEvents")->as_array()) {
    if (event.get_string("ph", "") != "X") continue;
    const core::Json* args = event.find("args");
    if (args == nullptr) continue;
    if (static_cast<std::uint64_t>(args->get_int("trace_id", 0)) != trace_id) {
      continue;
    }
    Span span;
    span.name = event.get_string("name", "");
    span.span_id = static_cast<std::uint64_t>(args->get_int("span_id", 0));
    span.parent = static_cast<std::uint64_t>(args->get_int("parent", 0));
    span.ts_us = event.get_number("ts", 0.0);
    span.dur_us = event.get_number("dur", 0.0);
    out.push_back(std::move(span));
  }
  return out;
}

/// The tree is connected iff every span's parent is another span of the
/// same tree — except exactly one root.
std::size_t count_roots(const std::vector<Span>& spans) {
  std::set<std::uint64_t> ids;
  for (const Span& s : spans) ids.insert(s.span_id);
  std::size_t roots = 0;
  for (const Span& s : spans) {
    if (s.parent == 0 || ids.find(s.parent) == ids.end()) ++roots;
  }
  return roots;
}

std::size_t count_named(const std::vector<Span>& spans,
                        const std::string& name) {
  std::size_t n = 0;
  for (const Span& s : spans) n += s.name == name;
  return n;
}

serving::ModelDeploymentConfig tiny_deployment(const std::string& name) {
  serving::ModelDeploymentConfig config;
  config.name = name;
  config.max_batch = 4;
  config.instances = 1;
  config.max_queue_delay_s = 1e-3;
  config.preproc.output_size = 16;
  return config;
}

serving::BackendPtr tiny_backend() {
  nn::ModelPtr model = nn::build_vit({"ctx-vit", 16, 4, 16, 2, 2, 2, 4});
  nn::init_weights(*model, 7);
  return std::make_unique<serving::NativeBackend>(std::move(model), 8);
}

serving::InferenceRequest tiny_request(const std::string& model, int seed) {
  serving::InferenceRequest request;
  request.model = model;
  request.input = preproc::encode_image(
      preproc::synthesize_field_image(20, 20, seed),
      preproc::ImageFormat::kAgJpeg);
  return request;
}

core::Json parsed_trace() {
  auto doc = core::Json::parse(TraceRecorder::instance().to_json().dump(1));
  EXPECT_TRUE(doc.is_ok());
  return doc.is_ok() ? std::move(doc).value() : core::Json();
}

TEST(TraceContext, NativeRequestYieldsOneConnectedTree) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.enable();
  recorder.clear();
  core::Json doc;
  {
    serving::Server server(/*preproc_threads=*/1);
    ASSERT_TRUE(
        server.register_model(tiny_deployment("vit"), tiny_backend).is_ok());
    serving::resilience::RetryingClient client(server, {});
    const serving::InferenceResponse response =
        client.infer_sync(tiny_request("vit", 1));
    EXPECT_TRUE(response.status.is_ok());
    server.shutdown();
    doc = parsed_trace();
  }
  recorder.disable();

  const std::vector<std::uint64_t> ids = obs::trace_ids(doc);
  ASSERT_EQ(ids.size(), 1u);
  const std::vector<Span> spans = spans_of(doc, ids.front());
  EXPECT_EQ(count_roots(spans), 1u);
  EXPECT_EQ(count_named(spans, "client_request"), 1u);
  EXPECT_EQ(count_named(spans, "request"), 1u);
  for (const char* stage : {"queue", "preprocess", "inference", "respond"}) {
    EXPECT_EQ(count_named(spans, stage), 1u) << stage;
  }

  // Critical path: the segments tile the root within the residue bound
  // (client-side submit overhead is the only unattributed time).
  auto path = obs::critical_path(doc, ids.front());
  ASSERT_TRUE(path.is_ok()) << path.status().message();
  EXPECT_EQ(path.value().root_name, "client_request");
  EXPECT_EQ(path.value().attempts, 1u);
  EXPECT_GT(path.value().end_to_end_us, 0.0);
  const double residue =
      std::abs(path.value().unattributed_us) / path.value().end_to_end_us;
  EXPECT_LT(residue, 0.05) << path.value().to_string();
}

TEST(TraceContext, ResponseHandOffIsOneStampAcrossRequestRespondDeliver) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.enable();
  recorder.clear();
  core::Json doc;
  {
    serving::Server server(/*preproc_threads=*/1);
    ASSERT_TRUE(
        server.register_model(tiny_deployment("vit"), tiny_backend).is_ok());
    serving::resilience::RetryingClient client(server, {});
    EXPECT_TRUE(client.infer_sync(tiny_request("vit", 3)).status.is_ok());
    server.shutdown();
    doc = parsed_trace();
  }
  recorder.disable();

  const std::vector<std::uint64_t> ids = obs::trace_ids(doc);
  ASSERT_EQ(ids.size(), 1u);
  std::map<std::string, Span> by_name;
  for (const Span& s : spans_of(doc, ids.front())) by_name[s.name] = s;
  for (const char* name : {"request", "respond", "deliver"}) {
    ASSERT_EQ(by_name.count(name), 1u) << name;
  }
  const Span& request = by_name["request"];
  const Span& respond = by_name["respond"];
  const Span& deliver = by_name["deliver"];
  // The executor's hand-off stamp ends the server's request and respond
  // spans and starts the client's deliver span: no gap, no overlap.
  const double handed_off = request.ts_us + request.dur_us;
  EXPECT_NEAR(respond.ts_us + respond.dur_us, handed_off, 1e-3);
  EXPECT_NEAR(deliver.ts_us, handed_off, 1e-3);
  // respond covers the response's construction, not an empty instant.
  EXPECT_GT(respond.dur_us, 0.0);
  EXPECT_EQ(deliver.parent, by_name["client_request"].span_id);
}

TEST(TraceContext, RetryAttemptsShareOneTrace) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.enable();
  recorder.clear();
  core::Json doc;
  {
    serving::Server server(/*preproc_threads=*/1);
    // Every batch fails: both attempts burn out and the client abandons.
    serving::resilience::FaultPlan faults;
    faults.transient_error_rate = 1.0;
    ASSERT_TRUE(server
                    .register_model(tiny_deployment("vit"),
                                    [faults] {
                                      return serving::resilience::
                                          wrap_with_faults(tiny_backend(),
                                                           faults, /*salt=*/0);
                                    })
                    .is_ok());
    serving::resilience::RetryPolicy policy;
    policy.max_attempts = 2;
    policy.initial_backoff_s = 1e-3;
    policy.max_backoff_s = 2e-3;
    serving::resilience::RetryingClient client(server, policy);
    const serving::InferenceResponse response =
        client.infer_sync(tiny_request("vit", 2));
    EXPECT_FALSE(response.status.is_ok());
    server.shutdown();
    doc = parsed_trace();
  }
  recorder.disable();

  const std::vector<std::uint64_t> ids = obs::trace_ids(doc);
  ASSERT_EQ(ids.size(), 1u);
  const std::vector<Span> spans = spans_of(doc, ids.front());
  // One tree: both server attempts and the backoff hang off the single
  // client_request root.
  EXPECT_EQ(count_roots(spans), 1u);
  EXPECT_EQ(count_named(spans, "client_request"), 1u);
  EXPECT_EQ(count_named(spans, "request"), 2u);
  EXPECT_EQ(count_named(spans, "retry_backoff"), 1u);
  // Each answered attempt's hand-off back to the client is traced.
  EXPECT_EQ(count_named(spans, "deliver"), 2u);

  std::uint64_t client_span = 0;
  for (const Span& s : spans) {
    if (s.name == "client_request") client_span = s.span_id;
  }
  for (const Span& s : spans) {
    if (s.name == "request" || s.name == "retry_backoff" ||
        s.name == "deliver") {
      EXPECT_EQ(s.parent, client_span) << s.name;
    }
  }

  auto path = obs::critical_path(doc, ids.front());
  ASSERT_TRUE(path.is_ok());
  EXPECT_EQ(path.value().attempts, 2u);
  EXPECT_GT(path.value().segment(obs::Segment::kBackoff), 0.0);
  EXPECT_GT(path.value().segment(obs::Segment::kTransmit), 0.0);
  EXPECT_EQ(obs::classify_segment("deliver"), obs::Segment::kTransmit);
}

/// Sequence backend whose first prefill fails transiently, so the first
/// attempt of a sequence request retires as failed and is retried.
class FlakyPrefillBackend final : public serving::sequence::SequenceBackend {
 public:
  FlakyPrefillBackend() {
    nn::TokenModelConfig config;
    config.vocab = 64;
    config.dim = 8;
    config.depth = 1;
    config.max_tokens = 32;
    serving::sequence::TokenCostModel free_steps;
    free_steps.step_overhead_s = 0.0;
    free_steps.prefill_overhead_s = 0.0;
    free_steps.macs_per_token = 0.0;
    inner_ = std::make_unique<serving::sequence::SimSequenceBackend>(
        config, free_steps);
  }

  const std::string& name() const override { return inner_->name(); }
  const nn::TokenModelConfig& model_config() const override {
    return inner_->model_config();
  }
  nn::SequenceStateSpec state_spec() const override {
    return inner_->state_spec();
  }
  core::Result<serving::sequence::SequenceStepResult> prefill(
      const std::int32_t* prompt, std::int64_t count,
      nn::SequenceState& state) override {
    if (failures_left_ > 0) {
      --failures_left_;
      return core::Status::internal("injected prefill failure");
    }
    return inner_->prefill(prompt, count, state);
  }
  core::Result<serving::sequence::SequenceStepResult> decode(
      const std::int32_t* last_tokens, nn::SequenceState* const* states,
      std::int64_t count) override {
    return inner_->decode(last_tokens, states, count);
  }

 private:
  serving::sequence::SequenceBackendPtr inner_;
  int failures_left_ = 1;  ///< scheduler-thread only
};

TEST(TraceContext, RetriedSequenceAttemptsShareOneTrace) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.enable();
  recorder.clear();
  core::Json doc;
  {
    serving::Server server(/*preproc_threads=*/1);
    serving::SequenceDeploymentConfig config;
    config.name = "agri-lm";
    ASSERT_TRUE(server
                    .register_sequence_model(
                        config,
                        [] { return std::make_unique<FlakyPrefillBackend>(); })
                    .is_ok());
    serving::resilience::RetryPolicy policy;
    policy.max_attempts = 2;
    policy.initial_backoff_s = 1e-3;
    policy.max_backoff_s = 2e-3;
    serving::resilience::RetryingClient client(server, policy);
    serving::sequence::SequenceRequest request;
    request.model = "agri-lm";
    request.prompt = {1, 2, 3};
    request.max_new_tokens = 3;
    const serving::sequence::SequenceResponse response =
        client.generate_sync(std::move(request));
    EXPECT_TRUE(response.status.is_ok());
    EXPECT_EQ(client.counters().retries, 1u);
    server.shutdown();
    doc = parsed_trace();
  }
  recorder.disable();

  const std::vector<std::uint64_t> ids = obs::trace_ids(doc);
  ASSERT_EQ(ids.size(), 1u);
  const std::vector<Span> spans = spans_of(doc, ids.front());
  // One tree: both scheduler attempts and the backoff hang off the
  // single client_request root.
  EXPECT_EQ(count_roots(spans), 1u);
  EXPECT_EQ(count_named(spans, "client_request"), 1u);
  EXPECT_EQ(count_named(spans, "sequence_request"), 2u);
  EXPECT_EQ(count_named(spans, "retry_backoff"), 1u);

  std::uint64_t client_span = 0;
  for (const Span& s : spans) {
    if (s.name == "client_request") client_span = s.span_id;
  }
  for (const Span& s : spans) {
    if (s.name == "sequence_request" || s.name == "retry_backoff") {
      EXPECT_EQ(s.parent, client_span) << s.name;
    }
  }
}

TEST(TraceContext, DegradeFailoverStaysInTheSameTree) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.enable();
  recorder.clear();
  core::Json doc;
  std::uint64_t degraded = 0;
  {
    serving::Server server(/*preproc_threads=*/1);
    // Primary sheds as soon as one request queues; its twin accepts
    // everything. A long queue delay keeps the first request parked so
    // the burst reliably overflows the depth-1 bound.
    serving::ModelDeploymentConfig primary = tiny_deployment("vit");
    primary.max_queue_delay_s = 0.05;
    primary.admission.max_queue_depth = 1;
    primary.degrade_to = "vit_twin";
    ASSERT_TRUE(server.register_model(primary, tiny_backend).is_ok());
    ASSERT_TRUE(server.register_model(tiny_deployment("vit_twin"), tiny_backend)
                    .is_ok());

    std::vector<std::future<serving::InferenceResponse>> futures;
    for (int i = 0; i < 4; ++i) {
      auto result = server.submit(tiny_request("vit", i));
      ASSERT_TRUE(result.is_ok());
      futures.push_back(std::move(result).value());
    }
    for (auto& future : futures) {
      EXPECT_TRUE(future.get().status.is_ok());
    }
    degraded = server.metrics("vit")->snapshot(1.0).degraded;
    server.shutdown();
    doc = parsed_trace();
  }
  recorder.disable();
  ASSERT_GT(degraded, 0u);

  // Every request — served by the primary or failed over to the twin —
  // is exactly one connected tree with one request root.
  const std::vector<std::uint64_t> ids = obs::trace_ids(doc);
  ASSERT_EQ(ids.size(), 4u);
  for (std::uint64_t id : ids) {
    const std::vector<Span> spans = spans_of(doc, id);
    EXPECT_EQ(count_roots(spans), 1u) << "trace " << id;
    EXPECT_EQ(count_named(spans, "request"), 1u) << "trace " << id;
  }
  // The degrade hand-offs left trace-stamped instant markers.
  std::size_t degrade_marks = 0;
  for (const core::Json& event : doc.find("traceEvents")->as_array()) {
    if (event.get_string("name", "") == "degraded" &&
        event.get_string("ph", "") == "i") {
      const core::Json* args = event.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_GT(args->get_int("trace_id", 0), 0);
      ++degrade_marks;
    }
  }
  EXPECT_EQ(degrade_marks, degraded);
}

TEST(TraceContext, SimulatedRequestsTileExactlyOnVirtualTracks) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.enable();
  recorder.clear();

  serving::OnlineSimConfig config;
  config.arrival_rate_qps = 200.0;
  config.duration_s = 1.0;
  config.max_batch = 16;
  config.max_queue_delay_s = 2e-3;
  config.overlap_preproc = false;  // sequential stages tile the root
  config.trace = &recorder;
  const serving::OnlineSimReport report = serving::simulate_online(
      platform::a100(), "ViT_Small", *data::find_dataset("Plant Village"),
      config);
  const core::Json doc = parsed_trace();
  recorder.disable();
  ASSERT_GT(report.completed, 0);

  const std::vector<std::uint64_t> ids = obs::trace_ids(doc);
  ASSERT_FALSE(ids.empty());
  for (std::size_t i = 0; i < std::min<std::size_t>(ids.size(), 10); ++i) {
    const std::vector<Span> spans = spans_of(doc, ids[i]);
    EXPECT_EQ(count_roots(spans), 1u);
    EXPECT_EQ(count_named(spans, "request"), 1u);
    auto path = obs::critical_path(doc, ids[i]);
    ASSERT_TRUE(path.is_ok());
    // Simulated timestamps are exact: queue + preprocess + inference
    // tile the request span to within rounding.
    EXPECT_LE(std::abs(path.value().unattributed_us),
              1e-3 * path.value().end_to_end_us + 1e-3)
        << path.value().to_string();
  }
}

}  // namespace
}  // namespace harvest
