#include "serving/model_instance.hpp"

#include <algorithm>
#include <cmath>

#include "core/time.hpp"
#include "obs/trace.hpp"

namespace harvest::serving {

void fill_prediction(const tensor::Tensor& logits, std::int64_t row,
                     InferenceResponse& response) {
  const std::int64_t classes = logits.shape()[1];
  const float* data = logits.f32() + row * classes;
  response.logits.assign(data, data + classes);
  // Stable softmax for the confidence score.
  float peak = data[0];
  std::int64_t arg = 0;
  for (std::int64_t c = 1; c < classes; ++c) {
    if (data[c] > peak) {
      peak = data[c];
      arg = c;
    }
  }
  double denom = 0.0;
  for (std::int64_t c = 0; c < classes; ++c) {
    denom += std::exp(static_cast<double>(data[c] - peak));
  }
  response.predicted_class = arg;
  response.confidence = static_cast<float>(1.0 / denom);
}

BatchExecutor::BatchExecutor(std::string name, preproc::PreprocSpec preproc_spec,
                             MetricsRegistry& metrics, core::ThreadPool* pool,
                             resilience::AdmissionController* admission)
    : name_(std::move(name)), preproc_spec_(preproc_spec), metrics_(&metrics),
      pool_(pool), admission_(admission) {}

namespace {

/// RAII in-flight gauge: counts the batch from drop-filtering to the
/// last response promise being fulfilled.
struct InflightGuard {
  MetricsRegistry* metrics;
  std::int64_t n;
  InflightGuard(MetricsRegistry* m, std::int64_t count) : metrics(m), n(count) {
    metrics->inflight_add(n);
  }
  ~InflightGuard() { metrics->inflight_add(-n); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;
};

}  // namespace

void BatchExecutor::execute(std::vector<PendingRequest> batch,
                            Backend& backend, double cold_start_s) {
  const auto started = std::chrono::steady_clock::now();
  batches_executed_.fetch_add(1, std::memory_order_relaxed);
  if (cold_start_s > 0.0) {
    // The claimed stream was paged out (or never built): the reload
    // time is this batch's cold start, charged once per reload.
    metrics_->record_cold_start(cold_start_s);
  }
  obs::TraceRecorder& tracer = obs::TraceRecorder::instance();
  // Per-request span recorder: linked into the request's trace tree
  // when a context is active, plain id-correlated span otherwise.
  auto record_span = [&tracer](std::string_view name,
                               const PendingRequest& pending, double start_us,
                               double end_us, std::int64_t batch_size) {
    if (pending.request.trace.active()) {
      tracer.record_child(name, "serving", start_us, end_us,
                          pending.request.trace, pending.request.id,
                          batch_size);
    } else {
      tracer.record_complete(name, "serving", start_us, end_us,
                             pending.request.id, batch_size);
    }
  };
  if (tracer.enabled()) {
    // One queue span per request: enqueue to batch formation.
    for (const PendingRequest& pending : batch) {
      record_span("queue", pending, tracer.to_us(pending.enqueued_at),
                  tracer.to_us(started),
                  static_cast<std::int64_t>(batch.size()));
    }
    if (cold_start_s > 0.0) {
      // The reload ran immediately before `started`; tile it in so the
      // trace shows which requests paid the paging penalty.
      const auto cold_begin =
          started - std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(cold_start_s));
      for (const PendingRequest& pending : batch) {
        record_span("cold_load", pending, tracer.to_us(cold_begin),
                    tracer.to_us(started),
                    static_cast<std::int64_t>(batch.size()));
      }
    }
  }

  // Real-time hygiene: a request whose deadline already expired while
  // queueing is worthless — answer it immediately instead of spending
  // preprocessing/inference on it (§2.2.3: the vehicle has moved on).
  std::erase_if(batch, [&](PendingRequest& pending) {
    const double waited =
        std::chrono::duration<double>(started - pending.enqueued_at).count();
    if (pending.request.deadline_s <= 0.0 ||
        waited <= pending.request.deadline_s) {
      return false;
    }
    InferenceResponse response;
    response.id = pending.request.id;
    response.status = core::Status::deadline_exceeded(
        "dropped: deadline expired while queued");
    response.timing.queue_s = waited;
    response.timing.total_s = waited;
    response.handed_off = started;
    metrics_->record(response.timing, RequestOutcome::kDeadlineMissed,
                     pending.request.trace.trace_id);
    tracer.record_instant("dropped_deadline", "serving",
                          pending.request.trace);
    // Close the request tree: its whole life was the queue.
    tracer.record_root("request", "serving",
                       tracer.to_us(pending.enqueued_at),
                       tracer.to_us(started), pending.request.trace,
                       pending.request.id);
    pending.promise.set_value(std::move(response));
    return true;
  });
  if (batch.empty()) return;
  const std::int64_t n = static_cast<std::int64_t>(batch.size());
  InflightGuard inflight(metrics_, n);

  auto fail_all = [&](const core::Status& status) {
    const auto failed_at = std::chrono::steady_clock::now();
    for (PendingRequest& pending : batch) {
      InferenceResponse response;
      response.id = pending.request.id;
      response.status = status;
      response.handed_off = failed_at;
      metrics_->record(response.timing, RequestOutcome::kFailed,
                       pending.request.trace.trace_id);
      tracer.record_root("request", "serving",
                         tracer.to_us(pending.enqueued_at),
                         tracer.to_us(failed_at), pending.request.trace,
                         pending.request.id, n);
      pending.promise.set_value(std::move(response));
    }
  };

  // Stage 1: preprocessing (encoded images → model-ready tensor).
  core::WallTimer preproc_timer;
  std::vector<preproc::EncodedImage> inputs;
  inputs.reserve(batch.size());
  for (PendingRequest& pending : batch) {
    // Moved, not copied (a 4K raw frame is 25 MB): nothing reads the
    // request's input after this point.
    inputs.push_back(std::move(pending.request.input));
  }
  core::Result<tensor::Tensor> preprocessed =
      [&]() -> core::Result<tensor::Tensor> {
    obs::ScopedSpan span("preprocess", "serving");
    span.set_batch(n);
    if (pool_ != nullptr) {
      preproc::DaliPipeline pipeline(*pool_);
      return pipeline.run(inputs, preproc_spec_);
    }
    preproc::CpuPipeline pipeline;
    return pipeline.run(inputs, preproc_spec_);
  }();
  if (!preprocessed.is_ok()) {
    fail_all(preprocessed.status());
    return;
  }
  const double preproc_s = preproc_timer.elapsed_seconds();
  const auto preproc_done = std::chrono::steady_clock::now();

  // Stage 2: inference.
  core::Result<BackendResult> inferred = [&]() -> core::Result<BackendResult> {
    obs::ScopedSpan span("inference", "serving");
    span.set_batch(n);
    return backend.infer(preprocessed.value());
  }();
  if (!inferred.is_ok()) {
    fail_all(inferred.status());
    return;
  }
  const BackendResult& result = inferred.value();
  const auto infer_done = std::chrono::steady_clock::now();

  // Stage 3: respond.
  obs::ScopedSpan respond_span("respond", "serving");
  respond_span.set_batch(n);
  const auto finished = std::chrono::steady_clock::now();
  if (admission_ != nullptr) {
    // Feed the measured service time (preprocess + infer, as executed)
    // back into the deployment's shed-threshold estimate.
    admission_->observe_batch(
        n, std::chrono::duration<double>(finished - started).count());
  }
  for (std::int64_t i = 0; i < n; ++i) {
    PendingRequest& pending = batch[static_cast<std::size_t>(i)];
    InferenceResponse response;
    response.id = pending.request.id;
    fill_prediction(result.logits, i, response);
    response.timing.queue_s =
        std::chrono::duration<double>(started - pending.enqueued_at).count();
    response.timing.preprocess_s = preproc_s;
    response.timing.inference_s = result.device_seconds;
    response.timing.total_s =
        std::chrono::duration<double>(finished - pending.enqueued_at).count();
    response.timing.batch_size = n;
    const bool missed = pending.request.deadline_s > 0.0 &&
                        response.timing.total_s > pending.request.deadline_s;
    if (missed) {
      response.status = core::Status::deadline_exceeded(
          "completed after the request deadline");
    }
    metrics_->record(response.timing,
                     missed ? RequestOutcome::kDeadlineMissed
                            : RequestOutcome::kOk,
                     pending.request.trace.trace_id);
    // The response is built: stamp the hand-off. timing.* keeps
    // `finished` (service time as executed); the trace runs on to here.
    response.handed_off = std::chrono::steady_clock::now();
    if (pending.request.trace.active()) {
      // Stage child spans at the exact batch boundaries: with the queue
      // span recorded at batch formation, queue → preprocess → inference
      // → respond tile the root "request" span from enqueue to the
      // hand-off, so critical-path sums reproduce the end-to-end latency.
      // A client's "deliver" span starts at the same stamp and covers
      // the rest of the trip (span recording, promise, caller wake-up).
      record_span("preprocess", pending, tracer.to_us(started),
                  tracer.to_us(preproc_done), n);
      record_span("inference", pending, tracer.to_us(preproc_done),
                  tracer.to_us(infer_done), n);
      record_span("respond", pending, tracer.to_us(infer_done),
                  tracer.to_us(response.handed_off), n);
      tracer.record_root("request", "serving",
                         tracer.to_us(pending.enqueued_at),
                         tracer.to_us(response.handed_off),
                         pending.request.trace, pending.request.id, n);
    } else {
      tracer.record_complete("request", "serving",
                             tracer.to_us(pending.enqueued_at),
                             tracer.to_us(response.handed_off),
                             pending.request.id, n);
    }
    pending.promise.set_value(std::move(response));
  }
}

}  // namespace harvest::serving
