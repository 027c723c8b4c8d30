#pragma once

/// \file request.hpp
/// Request/response types of the HARVEST serving runtime. The frontend
/// submits one encoded image per request (§3: "the frontend transmits or
/// locally reads input data and generates requests to the backend");
/// the dynamic batcher groups requests into engine batches.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "obs/trace.hpp"
#include "preproc/codec.hpp"

namespace harvest::serving {

struct InferenceRequest {
  std::uint64_t id = 0;
  std::string model;              ///< target model deployment
  preproc::EncodedImage input;
  double deadline_s = 0.0;        ///< 0 = none (real-time scenario sets one)
  /// Distributed-trace context. Left default, the server starts a fresh
  /// trace at submit; a client (RetryingClient, DES frontend) may
  /// pre-populate trace_id/parent_span_id so every hop and retry of one
  /// logical request lands in the same span tree.
  obs::TraceContext trace;
  /// Tenant-quota accounting handle, attached by Server::submit. Its
  /// deleter decrements the tenant's outstanding count when the request
  /// reaches any terminal state (answered, failed, shed, dropped) —
  /// whichever code path destroys the request last.
  std::shared_ptr<void> completion_token;
};

/// Per-request timing breakdown (§3.1: request latency = dataset
/// preprocessing + model preprocessing + inference).
struct RequestTiming {
  double queue_s = 0.0;
  double preprocess_s = 0.0;
  double inference_s = 0.0;
  double total_s = 0.0;
  std::int64_t batch_size = 0;  ///< size of the batch this request rode in
};

/// How a request left the system. Distinguishing these terminal states
/// is what makes the Prometheus export debuggable under overload: a
/// request shed by admission control, one dropped after its deadline,
/// and one the backend genuinely failed are different operational
/// problems with different fixes.
enum class RequestOutcome : int {
  kOk = 0,             ///< answered successfully
  kFailed = 1,         ///< backend/preprocessing error
  kShed = 2,           ///< rejected by admission control (kResourceExhausted)
  kDeadlineMissed = 3, ///< dropped while queued or completed too late
};
inline constexpr std::size_t kRequestOutcomeCount = 4;

/// Prometheus label value for an outcome ("ok", "failed", "shed",
/// "deadline_missed").
const char* request_outcome_name(RequestOutcome outcome);

struct InferenceResponse {
  std::uint64_t id = 0;
  core::Status status;
  std::int64_t predicted_class = -1;
  float confidence = 0.0f;            ///< softmax probability of the argmax
  std::vector<float> logits;          ///< full output row
  RequestTiming timing;
  /// When the executor handed the response back: stamped just before it
  /// fulfils the request's promise, after the response is built. The
  /// server's "request" span ends here and a client's "deliver" span
  /// starts here, so the response's trip back to the caller is traced.
  /// Left default when no executor answered (e.g. shed at submit).
  std::chrono::steady_clock::time_point handed_off{};
};

}  // namespace harvest::serving
