#include "serving/resilience/retry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/time.hpp"
#include "obs/trace.hpp"

namespace harvest::serving::resilience {

bool RetryPolicy::retryable(core::StatusCode code) {
  switch (code) {
    case core::StatusCode::kUnavailable:
    case core::StatusCode::kResourceExhausted:
    case core::StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

double RetryPolicy::backoff_s(int attempt, core::Rng& rng) const {
  const double exponent = static_cast<double>(std::max(attempt, 1) - 1);
  double base = initial_backoff_s * std::pow(backoff_multiplier, exponent);
  base = std::min(base, max_backoff_s);
  const double j = std::clamp(jitter, 0.0, 1.0);
  return base * (1.0 - j * rng.next_double());
}

core::Result<RetryPolicy> parse_retry_policy(const core::Json& json) {
  if (!json.is_object()) {
    return core::Status::invalid_argument("\"retry\" must be an object");
  }
  RetryPolicy policy;
  policy.max_attempts = static_cast<int>(json.get_int("max_attempts", 1));
  if (policy.max_attempts < 1) {
    return core::Status::invalid_argument("max_attempts must be >= 1");
  }
  policy.initial_backoff_s = json.get_number("initial_backoff_ms", 1.0) * 1e-3;
  policy.backoff_multiplier = json.get_number("backoff_multiplier", 2.0);
  policy.max_backoff_s = json.get_number("max_backoff_ms", 100.0) * 1e-3;
  policy.jitter = json.get_number("jitter", 0.5);
  policy.respect_deadline = json.get_bool("respect_deadline", true);
  if (policy.initial_backoff_s < 0.0 || policy.max_backoff_s < 0.0 ||
      policy.backoff_multiplier < 1.0 || policy.jitter < 0.0 ||
      policy.jitter > 1.0) {
    return core::Status::invalid_argument(
        "retry policy needs backoffs >= 0, multiplier >= 1, jitter in [0,1]");
  }
  return policy;
}

RetryingClient::RetryingClient(Server& server, ClientOptions options,
                               std::uint64_t seed)
    : server_(&server), options_(std::move(options)), rng_(seed) {}

template <typename Request, typename Response>
Response RetryingClient::run(Request request,
                             Response (Server::*submit)(Request)) {
  obs::TraceRecorder& tracer = obs::TraceRecorder::instance();
  // Client-side trace context: one "client_request" span covers every
  // attempt and backoff of this logical request; each attempt's server
  // root span and the "deliver" span of its response parent to it.
  // Honors a pre-set trace id.
  obs::TraceContext client_ctx;
  const auto client_start = std::chrono::steady_clock::now();
  if (tracer.enabled()) {
    client_ctx.trace_id = request.trace.trace_id != 0 ? request.trace.trace_id
                                                      : obs::next_trace_id();
    client_ctx.root_span_id = obs::next_span_id();
    client_ctx.parent_span_id = request.trace.parent_span_id;
    request.trace.trace_id = client_ctx.trace_id;
    request.trace.parent_span_id = client_ctx.root_span_id;
  }
  const auto send = [&](int attempt) {
    Request copy = request;  // the submit path consumes its argument
    Response response = (server_->*submit)(std::move(copy));
    if constexpr (std::is_same_v<Response, InferenceResponse>) {
      if (client_ctx.active() &&
          response.handed_off != std::chrono::steady_clock::time_point{}) {
        // The response's trip from the executor's hand-off back to this
        // thread: promise fulfilment and the caller's wake-up.
        tracer.record_child("deliver", "serving",
                            tracer.to_us(response.handed_off),
                            tracer.to_us(std::chrono::steady_clock::now()),
                            client_ctx, response.id, attempt);
      }
    }
    return response;
  };
  core::WallTimer budget;
  Response response;
  bool gave_up = false;
  int attempt = 1;
  for (;; ++attempt) {
    {
      std::scoped_lock lock(mutex_);
      ++counters_.attempts;
    }
    response = send(attempt);
    if (response.status.is_ok() ||
        !RetryPolicy::retryable(response.status.code())) {
      break;
    }
    if (attempt >= options_.retry.max_attempts) {
      gave_up = true;
      break;
    }
    double backoff;
    {
      std::scoped_lock lock(mutex_);
      backoff = options_.retry.backoff_s(attempt, rng_);
    }
    // Deadline-aware budget: never sleep into certain failure.
    if (options_.retry.overruns_deadline(budget.elapsed_seconds(), backoff,
                                         request.deadline_s)) {
      gave_up = true;
      break;
    }
    {
      std::scoped_lock lock(mutex_);
      ++counters_.retries;
    }
    if (MetricsRegistry* metrics = server_->mutable_metrics(request.model)) {
      metrics->record_retry();
    }
    const auto backoff_start = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    if (tracer.enabled()) {
      if (client_ctx.active()) {
        tracer.record_child("retry_backoff", "serving",
                            tracer.to_us(backoff_start),
                            tracer.to_us(std::chrono::steady_clock::now()),
                            client_ctx, response.id, attempt);
      } else {
        tracer.record_complete("retry_backoff", "serving",
                               tracer.to_us(backoff_start),
                               tracer.to_us(std::chrono::steady_clock::now()),
                               response.id, attempt);
      }
    }
  }
  if (!response.status.is_ok() && !options_.fallback_model.empty() &&
      options_.fallback_model != request.model) {
    // Graceful degradation: one shot at the fallback deployment, in the
    // same trace.
    {
      std::scoped_lock lock(mutex_);
      ++counters_.degraded;
    }
    tracer.record_instant("degraded", "serving", client_ctx);
    request.model = options_.fallback_model;
    response = send(attempt + 1);
  } else if (gave_up) {
    {
      std::scoped_lock lock(mutex_);
      ++counters_.abandoned;
    }
    if (MetricsRegistry* metrics = server_->mutable_metrics(request.model)) {
      metrics->record_retry_abandoned();
    }
  }
  finish_trace(client_ctx, client_start, response.id);
  return response;
}

InferenceResponse RetryingClient::infer_sync(InferenceRequest request) {
  return run(std::move(request), &Server::infer_sync);
}

sequence::SequenceResponse RetryingClient::generate_sync(
    sequence::SequenceRequest request) {
  return run(std::move(request), &Server::generate_sync);
}

void RetryingClient::finish_trace(
    const obs::TraceContext& client_ctx,
    std::chrono::steady_clock::time_point client_start, std::uint64_t id) {
  if (!client_ctx.active()) return;
  obs::TraceRecorder& tracer = obs::TraceRecorder::instance();
  tracer.record_root("client_request", "serving", tracer.to_us(client_start),
                     tracer.to_us(std::chrono::steady_clock::now()),
                     client_ctx, id);
}

RetryingClient::Counters RetryingClient::counters() const {
  std::scoped_lock lock(mutex_);
  return counters_;
}

}  // namespace harvest::serving::resilience
