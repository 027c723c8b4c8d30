#pragma once

/// \file retry.hpp
/// Client-side retry with exponential backoff, jitter, and a
/// deadline-aware budget. The serving runtime answers transient failures
/// (kUnavailable, kResourceExhausted, kInternal) fast; whether a request
/// is worth re-submitting is the *frontend's* call — it knows the
/// deadline and how much of it is left. `RetryingClient` wraps a
/// `Server` with that loop; the DES prices the same policy in simulated
/// time (online_sim.hpp).

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/json.hpp"
#include "core/rng.hpp"
#include "serving/server.hpp"

namespace harvest::serving::resilience {

struct RetryPolicy {
  /// Total tries including the first; 1 = retries disabled.
  int max_attempts = 1;
  /// Backoff before retry k (1-based): initial · multiplier^(k-1),
  /// clamped to max, then multiplied by a jitter factor drawn uniformly
  /// from [1 − jitter, 1] (decorrelates synchronized retry storms).
  double initial_backoff_s = 1e-3;
  double backoff_multiplier = 2.0;
  double max_backoff_s = 0.1;
  double jitter = 0.5;  ///< in [0, 1]
  /// With a request deadline set, abandon instead of sleeping past it
  /// (the backoff that would overrun the remaining budget is not taken).
  bool respect_deadline = true;

  bool enabled() const { return max_attempts > 1; }

  /// Codes worth re-submitting: the server shed or dropped the request
  /// (kUnavailable, kResourceExhausted) or the backend failed
  /// transiently (kInternal). Bad requests and deadline misses are not
  /// retryable — the answer would not change / the budget is gone.
  static bool retryable(core::StatusCode code);

  /// Jittered backoff before retry `attempt` (1-based count of failures
  /// so far). Deterministic given the rng state.
  double backoff_s(int attempt, core::Rng& rng) const;

  /// The deadline rule of every retry loop (RetryingClient and the
  /// DESs): with `respect_deadline` and a deadline set, a request that
  /// has used `elapsed_s` of its `deadline_s` budget abandons instead of
  /// taking a backoff that ends at or past the deadline.
  bool overruns_deadline(double elapsed_s, double backoff_s,
                         double deadline_s) const {
    return respect_deadline && deadline_s > 0.0 &&
           elapsed_s + backoff_s >= deadline_s;
  }
};

/// Parse a `"retry"` JSON object (model-repository / bench configs):
/// max_attempts, initial_backoff_ms, backoff_multiplier, max_backoff_ms,
/// jitter, respect_deadline. See docs/RESILIENCE.md.
core::Result<RetryPolicy> parse_retry_policy(const core::Json& json);

/// What a RetryingClient does with a request: its retry policy and
/// where the request goes once retries cannot save it. A bare
/// RetryPolicy converts, so `RetryingClient(server, policy)` reads as
/// before.
struct ClientOptions {
  ClientOptions() = default;
  ClientOptions(RetryPolicy policy) : retry(policy) {}  // NOLINT

  RetryPolicy retry;
  /// After the last failed attempt, send the request once to this
  /// deployment (empty = fail outright); a failure there is final.
  std::string fallback_model;
};

/// Synchronous retrying frontend for image and sequence requests, one
/// retry loop for both. Counts attempts/retries/abandons both locally
/// and in the deployment's MetricsRegistry, and, when tracing is
/// enabled, records a `client_request` root that parents every
/// attempt's server root (`request` / `sequence_request`), a `deliver`
/// span per answered image attempt and a `retry_backoff` span per
/// backoff. Thread-safe.
class RetryingClient {
 public:
  RetryingClient(Server& server, ClientOptions options,
                 std::uint64_t seed = 42);

  /// Submit-and-wait with retries. The returned response is the last
  /// attempt's.
  InferenceResponse infer_sync(InferenceRequest request);
  /// The same for a sequence request; streaming callbacks fire for
  /// every attempt.
  sequence::SequenceResponse generate_sync(sequence::SequenceRequest request);

  struct Counters {
    std::uint64_t attempts = 0;   ///< submits issued (first tries + retries)
    std::uint64_t retries = 0;    ///< re-submits after a retryable failure
    std::uint64_t abandoned = 0;  ///< gave up (attempts or budget exhausted)
    std::uint64_t degraded = 0;   ///< sent to the fallback model
  };
  Counters counters() const;

 private:
  /// The retry loop: `submit` is Server::infer_sync or
  /// Server::generate_sync.
  template <typename Request, typename Response>
  Response run(Request request, Response (Server::*submit)(Request));

  /// Close the logical request's "client_request" root span (covers
  /// every attempt + backoff); no-op without an active context.
  static void finish_trace(const obs::TraceContext& client_ctx,
                           std::chrono::steady_clock::time_point client_start,
                           std::uint64_t id);

  Server* server_;
  ClientOptions options_;
  mutable std::mutex mutex_;
  core::Rng rng_;
  Counters counters_;
};

}  // namespace harvest::serving::resilience
