#include "serving/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/units.hpp"

namespace harvest::serving {

namespace {

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

namespace sequence {

const char* sequence_outcome_name(SequenceOutcome outcome) {
  switch (outcome) {
    case SequenceOutcome::kOk: return "ok";
    case SequenceOutcome::kFailed: return "failed";
    case SequenceOutcome::kShed: return "shed";
    case SequenceOutcome::kExpired: return "expired";
    case SequenceOutcome::kEvicted: return "evicted";
  }
  return "unknown";
}

}  // namespace sequence

const char* request_outcome_name(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk: return "ok";
    case RequestOutcome::kFailed: return "failed";
    case RequestOutcome::kShed: return "shed";
    case RequestOutcome::kDeadlineMissed: return "deadline_missed";
  }
  return "?";
}

std::string MetricsSnapshot::to_string() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "completed=%llu failed=%llu deadline_misses=%llu shed=%llu "
      "retries=%llu abandoned=%llu degraded=%llu tput=%s "
      "latency mean=%s p50=%s p95=%s p99=%s | queue=%s preproc=%s infer=%s "
      "| mean batch=%.1f | flushes full=%llu pref=%llu timeout=%llu "
      "shutdown=%llu",
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(deadline_misses),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(retry_abandoned),
      static_cast<unsigned long long>(degraded),
      core::format_rate(throughput_img_per_s).c_str(),
      core::format_seconds(mean_latency_s).c_str(),
      core::format_seconds(p50_latency_s).c_str(),
      core::format_seconds(p95_latency_s).c_str(),
      core::format_seconds(p99_latency_s).c_str(),
      core::format_seconds(mean_queue_s).c_str(),
      core::format_seconds(mean_preprocess_s).c_str(),
      core::format_seconds(mean_inference_s).c_str(), batch_sizes.mean(),
      static_cast<unsigned long long>(
          flushes[static_cast<std::size_t>(FlushReason::kFullBatch)]),
      static_cast<unsigned long long>(
          flushes[static_cast<std::size_t>(FlushReason::kPreferredSize)]),
      static_cast<unsigned long long>(
          flushes[static_cast<std::size_t>(FlushReason::kTimeout)]),
      static_cast<unsigned long long>(
          flushes[static_cast<std::size_t>(FlushReason::kShutdown)]));
  return buf;
}

void MetricsRegistry::record(const RequestTiming& timing,
                             RequestOutcome outcome, std::uint64_t trace_id) {
  if (outcome == RequestOutcome::kShed) {
    record_shed();
    return;
  }
  double now_s = 0.0;
  {
    std::scoped_lock lock(mutex_);
    ++outcomes_[static_cast<std::size_t>(outcome)];
    switch (outcome) {
      case RequestOutcome::kOk:
        ++completed_;
        break;
      case RequestOutcome::kDeadlineMissed:
        // A missed deadline is still a failed answer from the client's
        // point of view; the legacy failed counter keeps including it.
        ++failed_;
        ++deadline_misses_;
        break;
      default:
        ++failed_;
        break;
    }
    total_latency_.add(timing.total_s);
    queue_.add(timing.queue_s);
    preprocess_.add(timing.preprocess_s);
    inference_.add(timing.inference_s);
    latency_hist_.observe(timing.total_s);
    queue_hist_.observe(timing.queue_s);
    preprocess_hist_.observe(timing.preprocess_s);
    inference_hist_.observe(timing.inference_s);
    latency_digest_.add(timing.total_s, trace_id);
    if (timing.batch_size > 0) {
      batch_sizes_.add(static_cast<double>(timing.batch_size));
    }
    now_s = clock_ ? clock_() : steady_now_s();
  }
  // Outside mutex_: SloTracker synchronizes itself, and its burn-rate
  // alert may call back into paths that re-enter this registry.
  if (slo_.enabled()) {
    slo_.record(now_s, outcome == RequestOutcome::kOk, timing.total_s);
  }
}

void MetricsRegistry::record(const RequestTiming& timing, bool ok,
                             bool deadline_missed) {
  if (ok && deadline_missed) {
    // Legacy combination: the request was answered, but late. Counts as
    // completed *and* as a deadline miss (the pre-outcome contract).
    record(timing, RequestOutcome::kOk);
    std::scoped_lock lock(mutex_);
    ++deadline_misses_;
    return;
  }
  record(timing, ok               ? RequestOutcome::kOk
                 : deadline_missed ? RequestOutcome::kDeadlineMissed
                                   : RequestOutcome::kFailed);
}

void MetricsRegistry::record_shed() {
  double now_s = 0.0;
  {
    std::scoped_lock lock(mutex_);
    ++shed_;
    ++outcomes_[static_cast<std::size_t>(RequestOutcome::kShed)];
    now_s = clock_ ? clock_() : steady_now_s();
  }
  // A shed request is an unanswered request: it spends error budget.
  if (slo_.enabled()) slo_.record(now_s, false, 0.0);
}

void MetricsRegistry::record_retry() {
  std::scoped_lock lock(mutex_);
  ++retries_;
}

void MetricsRegistry::record_retry_abandoned() {
  std::scoped_lock lock(mutex_);
  ++retry_abandoned_;
}

void MetricsRegistry::record_degraded() {
  std::scoped_lock lock(mutex_);
  ++degraded_;
}

void MetricsRegistry::record_submitted() {
  std::scoped_lock lock(mutex_);
  ++sequences_submitted_;
}

void MetricsRegistry::record_admitted() {
  std::scoped_lock lock(mutex_);
  ++sequences_admitted_;
}

void MetricsRegistry::record_sequence(
    const sequence::SequenceResponse& response, std::uint64_t trace_id) {
  using sequence::SequenceOutcome;
  RequestTiming timing;
  timing.queue_s = response.timing.queue_s;
  timing.total_s = response.timing.total_s;
  // A sequence has no preprocessing stage; everything after admission
  // (prefill and decode) is its inference time.
  timing.inference_s =
      std::max(0.0, response.timing.total_s - response.timing.queue_s);
  RequestOutcome outcome = RequestOutcome::kFailed;
  switch (response.outcome) {
    case SequenceOutcome::kOk: outcome = RequestOutcome::kOk; break;
    case SequenceOutcome::kShed: outcome = RequestOutcome::kShed; break;
    case SequenceOutcome::kExpired:
      outcome = RequestOutcome::kDeadlineMissed;
      break;
    case SequenceOutcome::kFailed:
    case SequenceOutcome::kEvicted: break;
  }
  record(timing, outcome, trace_id);
  // After record(): counters() must never see an eviction whose failed
  // outcome is not yet counted.
  std::scoped_lock lock(mutex_);
  if (response.outcome == SequenceOutcome::kEvicted) ++sequences_evicted_;
  tokens_generated_ += static_cast<std::uint64_t>(response.tokens.size());
  if (response.outcome == SequenceOutcome::kOk) {
    if (response.timing.ttft_s > 0.0) {
      ttft_digest_.add(response.timing.ttft_s, trace_id);
    }
    if (response.tokens_per_s > 0.0) {
      tokens_per_s_digest_.add(response.tokens_per_s, trace_id);
    }
  }
}

void MetricsRegistry::record_decode_step(std::int64_t rows) {
  std::scoped_lock lock(mutex_);
  ++decode_steps_;
  decode_rows_ += static_cast<std::uint64_t>(rows);
}

sequence::SequenceCounters MetricsRegistry::counters() const {
  std::scoped_lock lock(mutex_);
  return sequence_counters();
}

sequence::SequenceCounters MetricsRegistry::sequence_counters() const {
  const auto outcome = [this](RequestOutcome o) {
    return outcomes_[static_cast<std::size_t>(o)];
  };
  sequence::SequenceCounters counters;
  counters.submitted = sequences_submitted_;
  counters.admitted = sequences_admitted_;
  counters.completed = outcome(RequestOutcome::kOk);
  counters.shed = shed_;
  counters.failed = outcome(RequestOutcome::kFailed) - sequences_evicted_;
  counters.expired = outcome(RequestOutcome::kDeadlineMissed);
  counters.evicted = sequences_evicted_;
  counters.tokens_generated = tokens_generated_;
  counters.steps = decode_steps_;
  return counters;
}

void MetricsRegistry::record_flush(FlushReason reason,
                                   std::int64_t batch_size) {
  std::scoped_lock lock(mutex_);
  ++flushes_[static_cast<std::size_t>(reason)];
  (void)batch_size;  // batch distribution already tracked per request
}

void MetricsRegistry::record_cold_start(double seconds) {
  std::scoped_lock lock(mutex_);
  ++cold_starts_;
  cold_start_digest_.add(seconds);
}

void MetricsRegistry::inflight_add(std::int64_t delta) {
  inflight_.fetch_add(delta, std::memory_order_relaxed);
}

std::int64_t MetricsRegistry::inflight() const {
  return inflight_.load(std::memory_order_relaxed);
}

void MetricsRegistry::set_queue_depth_probe(
    std::function<std::size_t()> probe) {
  std::scoped_lock lock(mutex_);
  queue_depth_probe_ = std::move(probe);
}

void MetricsRegistry::configure_slo(const obs::SloConfig& slo,
                                    double window_s) {
  slo_.configure(slo, window_s);
}

void MetricsRegistry::set_slo_alert(double burn_threshold,
                                    obs::SloTracker::AlertFn fn) {
  slo_.set_alert(burn_threshold, std::move(fn));
}

void MetricsRegistry::set_clock(std::function<double()> clock) {
  std::scoped_lock lock(mutex_);
  clock_ = std::move(clock);
}

double MetricsRegistry::clock_now() const {
  std::scoped_lock lock(mutex_);
  return clock_ ? clock_() : steady_now_s();
}

MetricsSnapshot MetricsRegistry::snapshot(double wall_seconds) const {
  std::scoped_lock lock(mutex_);
  MetricsSnapshot snap;
  snap.completed = completed_;
  snap.failed = failed_;
  snap.deadline_misses = deadline_misses_;
  snap.outcomes = outcomes_;
  snap.shed = shed_;
  snap.retries = retries_;
  snap.retry_abandoned = retry_abandoned_;
  snap.degraded = degraded_;
  // Guard the observation window: a zero, negative, or non-finite
  // window must not turn throughput into inf/NaN.
  const double window =
      std::isfinite(wall_seconds) && wall_seconds > 0.0 ? wall_seconds : 0.0;
  snap.wall_seconds = window;
  snap.throughput_img_per_s =
      window > 0.0 ? static_cast<double>(completed_) / window : 0.0;
  snap.batch_sizes = batch_sizes_;
  snap.mean_latency_s = total_latency_.mean();
  snap.p50_latency_s = total_latency_.quantile(0.5);
  snap.p95_latency_s = total_latency_.quantile(0.95);
  snap.p99_latency_s = total_latency_.quantile(0.99);
  snap.mean_queue_s = queue_.mean();
  snap.mean_preprocess_s = preprocess_.mean();
  snap.mean_inference_s = inference_.mean();
  snap.digest_p99_latency_s =
      latency_digest_.count() > 0 ? latency_digest_.quantile(0.99) : 0.0;
  snap.flushes = flushes_;
  snap.cold_starts = cold_starts_;
  snap.cold_start_p99_s =
      cold_start_digest_.count() > 0 ? cold_start_digest_.quantile(0.99) : 0.0;
  const double now_s = clock_ ? clock_() : steady_now_s();
  snap.slo_enabled = slo_.enabled();
  snap.slo_burn_rate = slo_.burn_rate(now_s);
  snap.slo_budget_remaining = slo_.budget_remaining();
  return snap;
}

void MetricsRegistry::render_prometheus(obs::PrometheusWriter& out,
                                        const std::string& model,
                                        const std::string& precision) const {
  std::scoped_lock lock(mutex_);
  const obs::PrometheusWriter::Labels labels = {{"model", model},
                                                {"precision", precision}};
  out.counter("harvest_requests_completed_total",
              "Requests answered successfully.",
              static_cast<double>(completed_), labels);
  out.counter("harvest_requests_failed_total",
              "Requests answered with a non-OK status.",
              static_cast<double>(failed_), labels);
  out.counter("harvest_deadline_misses_total",
              "Requests that missed their deadline.",
              static_cast<double>(deadline_misses_), labels);
  // Terminal-state family: the one label that separates "the backend
  // broke" from "we shed on purpose" from "the deadline passed".
  for (std::size_t o = 0; o < kRequestOutcomeCount; ++o) {
    obs::PrometheusWriter::Labels outcome_labels = labels;
    outcome_labels.emplace_back(
        "outcome", request_outcome_name(static_cast<RequestOutcome>(o)));
    out.counter("harvest_requests_outcome_total",
                "Requests by terminal state (ok/failed/shed/deadline_missed).",
                static_cast<double>(outcomes_[o]), outcome_labels);
  }
  out.counter("harvest_requests_shed_total",
              "Requests shed by admission control before queueing.",
              static_cast<double>(shed_), labels);
  out.counter("harvest_retries_total",
              "Client-side retry re-submits against this deployment.",
              static_cast<double>(retries_), labels);
  out.counter("harvest_retry_abandoned_total",
              "Requests whose client exhausted its retry budget.",
              static_cast<double>(retry_abandoned_), labels);
  out.counter("harvest_degraded_total",
              "Requests failed over to the deployment's degrade twin.",
              static_cast<double>(degraded_), labels);
  out.histogram("harvest_request_latency_seconds",
                "End-to-end request latency (submit to response).",
                latency_hist_, labels);
  out.histogram("harvest_queue_time_seconds",
                "Time spent waiting in the dynamic batcher queue.",
                queue_hist_, labels);
  out.histogram("harvest_preprocess_time_seconds",
                "Batch preprocessing time attributed to the request.",
                preprocess_hist_, labels);
  out.histogram("harvest_inference_time_seconds",
                "Engine inference time attributed to the request.",
                inference_hist_, labels);
  for (std::size_t r = 0; r < kFlushReasonCount; ++r) {
    obs::PrometheusWriter::Labels flush_labels = labels;
    flush_labels.emplace_back(
        "reason", flush_reason_name(static_cast<FlushReason>(r)));
    out.counter("harvest_batch_flush_total",
                "Batches dispatched, by flush reason.",
                static_cast<double>(flushes_[r]), flush_labels);
  }
  out.counter("harvest_cold_starts_total",
              "Batches that had to reload a paged-out backend stream "
              "before executing.",
              static_cast<double>(cold_starts_), labels);
  if (cold_start_digest_.count() > 0) {
    out.summary("harvest_cold_start_seconds",
                "Backend-stream reload (model paging cold start) "
                "latency quantiles.",
                cold_start_digest_, labels);
  }
  // Digest-backed summary: adaptive tail resolution with exemplar
  // trace ids on the quantile samples.
  out.summary("harvest_request_latency_quantiles",
              "End-to-end latency quantiles from the t-digest, with "
              "trace-id exemplars.",
              latency_digest_, labels);
  if (sequences_submitted_ > 0) render_sequences(out, model);
  out.gauge("harvest_inflight_requests",
            "Requests currently in preprocessing or inference.",
            static_cast<double>(inflight_.load(std::memory_order_relaxed)),
            labels);
  if (queue_depth_probe_) {
    out.gauge("harvest_queue_depth", "Requests waiting in the batcher queue.",
              static_cast<double>(queue_depth_probe_()), labels);
  }
  if (slo_.enabled()) {
    const double now_s = clock_ ? clock_() : steady_now_s();
    out.gauge("harvest_slo_burn_rate",
              "Error-budget burn rate over the sliding window (1 = "
              "spending the budget exactly as provisioned).",
              slo_.burn_rate(now_s), labels);
    out.gauge("harvest_slo_budget_remaining",
              "Fraction of the cumulative error budget left (negative = "
              "overspent).",
              slo_.budget_remaining(), labels);
  }
}

void MetricsRegistry::render_sequences(obs::PrometheusWriter& out,
                                       const std::string& model) const {
  using sequence::SequenceOutcome;
  const obs::PrometheusWriter::Labels labels = {{"model", model}};
  const sequence::SequenceCounters counters = sequence_counters();
  const auto outcome_counter = [&](SequenceOutcome outcome,
                                   std::uint64_t value) {
    obs::PrometheusWriter::Labels outcome_labels = labels;
    outcome_labels.emplace_back("outcome",
                                sequence::sequence_outcome_name(outcome));
    out.counter("harvest_sequence_outcomes_total",
                "Sequences by terminal outcome.",
                static_cast<double>(value), outcome_labels);
  };
  outcome_counter(SequenceOutcome::kOk, counters.completed);
  outcome_counter(SequenceOutcome::kFailed, counters.failed);
  outcome_counter(SequenceOutcome::kShed, counters.shed);
  outcome_counter(SequenceOutcome::kExpired, counters.expired);
  outcome_counter(SequenceOutcome::kEvicted, counters.evicted);
  out.counter("harvest_sequence_submitted_total",
              "Sequence requests received.",
              static_cast<double>(counters.submitted), labels);
  out.counter("harvest_sequence_tokens_total", "Tokens generated.",
              static_cast<double>(counters.tokens_generated), labels);
  out.counter("harvest_sequence_decode_steps_total",
              "Packed decode iterations executed.",
              static_cast<double>(counters.steps), labels);
  out.summary("harvest_sequence_ttft_seconds",
              "Time to first token of completed sequences, with trace-id "
              "exemplars.",
              ttft_digest_, labels);
  out.summary("harvest_sequence_tokens_per_second",
              "Per-sequence decode rate of completed sequences.",
              tokens_per_s_digest_, labels);
  if (decode_steps_ > 0) {
    out.gauge("harvest_sequence_mean_batch_rows",
              "Mean live sequences per decode iteration.",
              static_cast<double>(decode_rows_) /
                  static_cast<double>(decode_steps_),
              labels);
  }
}

void MetricsRegistry::reset() {
  std::scoped_lock lock(mutex_);
  completed_ = 0;
  failed_ = 0;
  deadline_misses_ = 0;
  outcomes_ = {};
  shed_ = 0;
  retries_ = 0;
  retry_abandoned_ = 0;
  degraded_ = 0;
  total_latency_ = core::Percentiles();
  queue_ = core::RunningStats();
  preprocess_ = core::RunningStats();
  inference_ = core::RunningStats();
  batch_sizes_ = core::RunningStats();
  latency_hist_.reset();
  queue_hist_.reset();
  preprocess_hist_.reset();
  inference_hist_.reset();
  latency_digest_ = obs::QuantileDigest();
  cold_starts_ = 0;
  cold_start_digest_ = obs::QuantileDigest();
  flushes_ = {};
  sequences_submitted_ = 0;
  sequences_admitted_ = 0;
  sequences_evicted_ = 0;
  tokens_generated_ = 0;
  decode_steps_ = 0;
  decode_rows_ = 0;
  ttft_digest_ = obs::QuantileDigest();
  tokens_per_s_digest_ = obs::QuantileDigest();
  inflight_.store(0, std::memory_order_relaxed);
  slo_.configure(slo_.config(), slo_.window_s());
}

}  // namespace harvest::serving
