#include "serving/sequence/sequence_client.hpp"

#include <chrono>
#include <thread>

#include "obs/trace.hpp"

namespace harvest::serving::sequence {

RetryingSequenceClient::RetryingSequenceClient(Server& server,
                                               SequenceClientOptions options,
                                               std::uint64_t seed)
    : server_(&server), options_(std::move(options)),
      rng_(core::splitmix64(seed)) {}

SequenceResponse RetryingSequenceClient::generate_sync(
    SequenceRequest request) {
  auto& recorder = obs::TraceRecorder::instance();
  // One trace for all attempts: each submit becomes a sibling
  // "sequence_request" root under the shared trace id.
  if (recorder.enabled() && request.trace.trace_id == 0) {
    request.trace.trace_id = obs::next_trace_id();
  }
  const auto start = std::chrono::steady_clock::now();

  SequenceResponse response;
  const int max_attempts = std::max(options_.retry.max_attempts, 1);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.attempts;
    }
    SequenceRequest this_attempt = request;  // prompt + callback copy
    auto submitted = server_->submit_sequence(std::move(this_attempt));
    if (submitted.is_ok()) {
      response = submitted.value().get();
    } else {
      response = SequenceResponse{};
      response.id = request.id;
      response.status = submitted.status();
      response.outcome =
          submitted.status().code() == core::StatusCode::kResourceExhausted
              ? SequenceOutcome::kShed
              : SequenceOutcome::kFailed;
    }
    if (response.status.is_ok()) return response;
    if (!resilience::RetryPolicy::retryable(response.status.code()) ||
        attempt == max_attempts) {
      break;
    }
    double backoff = 0.0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      backoff = options_.retry.backoff_s(attempt, rng_);
    }
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (options_.retry.overruns_deadline(elapsed, backoff,
                                         request.deadline_s)) {
      break;  // budget gone: abandoned, not retried
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.retries;
    }
    recorder.record_instant("retry_backoff", "sequence", request.trace);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }

  // Graceful degradation: one shot at the fallback deployment.
  if (!options_.fallback_model.empty() &&
      options_.fallback_model != request.model) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.degraded;
    }
    recorder.record_instant("degraded", "sequence", request.trace);
    request.model = options_.fallback_model;
    auto submitted = server_->submit_sequence(std::move(request));
    if (submitted.is_ok()) return submitted.value().get();
    SequenceResponse fallback;
    fallback.status = submitted.status();
    fallback.outcome = SequenceOutcome::kFailed;
    return fallback;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.abandoned;
  return response;
}

RetryingSequenceClient::Counters RetryingSequenceClient::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace harvest::serving::sequence
