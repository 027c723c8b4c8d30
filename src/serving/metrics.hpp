#pragma once

/// \file metrics.hpp
/// Thread-safe serving metrics: request counters, per-stage latency
/// distributions (running stats *and* explicit-bucket histograms),
/// batcher flush-reason counters, and live gauges, with a renderable
/// snapshot plus a Prometheus text-format exposition. The same registry
/// is fed by the real threaded server and the discrete-event
/// simulation, so reports are comparable across the two execution
/// modes, and by the sequence scheduler, whose retired sequences are
/// requests like any other plus token-generation state of their own.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "core/stats.hpp"
#include "obs/digest.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "serving/batcher.hpp"
#include "serving/request.hpp"
#include "serving/sequence/sequence_request.hpp"

namespace harvest::serving {

struct MetricsSnapshot {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t deadline_misses = 0;
  /// Terminal-state counts indexed by RequestOutcome (ok / failed /
  /// shed / deadline_missed) — the label that keeps a shed request
  /// distinguishable from a backend failure.
  std::array<std::uint64_t, kRequestOutcomeCount> outcomes{};
  std::uint64_t shed = 0;             ///< rejected by admission control
  std::uint64_t retries = 0;          ///< client re-submits
  std::uint64_t retry_abandoned = 0;  ///< client gave up retrying
  std::uint64_t degraded = 0;         ///< failed over to the degrade twin
  double wall_seconds = 0.0;          ///< observation window (clamped >= 0)
  double throughput_img_per_s = 0.0;
  core::RunningStats batch_sizes;
  // Latency quantiles (seconds).
  double mean_latency_s = 0.0;
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double mean_queue_s = 0.0;
  double mean_preprocess_s = 0.0;
  double mean_inference_s = 0.0;
  /// Digest-backed tail estimate (adaptive resolution; trustworthy even
  /// outside the fixed histogram bucket range).
  double digest_p99_latency_s = 0.0;
  // SLO accounting (zeros when the deployment declares no SLO).
  bool slo_enabled = false;
  double slo_burn_rate = 0.0;
  double slo_budget_remaining = 1.0;
  /// Batch flush counts by reason, indexed by FlushReason.
  FlushCounts flushes{};
  // Model-paging cold starts (weight-store stream reloads).
  std::uint64_t cold_starts = 0;
  double cold_start_p99_s = 0.0;

  std::string to_string() const;
};

class MetricsRegistry {
 public:
  /// Record one finished request with its terminal outcome. kShed is
  /// accepted but does not feed the latency histograms (a shed request
  /// never queued); prefer record_shed() for sheds, which need no
  /// timing. `trace_id`, when nonzero, becomes the latency digest's
  /// exemplar candidate so tail quantiles link back to request trees.
  void record(const RequestTiming& timing, RequestOutcome outcome,
              std::uint64_t trace_id = 0);

  /// Legacy two-flag form, mapped onto RequestOutcome (ok → kOk,
  /// deadline_missed → kDeadlineMissed, else kFailed).
  void record(const RequestTiming& timing, bool ok, bool deadline_missed);

  /// One request shed by admission control before it queued.
  void record_shed();
  /// One client-side retry (re-submit after a retryable failure).
  void record_retry();
  /// One request whose client exhausted its retry budget.
  void record_retry_abandoned();
  /// One request failed over to the deployment's degrade twin.
  void record_degraded();

  /// Record one dispatched batch and why the batcher flushed it.
  void record_flush(FlushReason reason, std::int64_t batch_size);

  /// One model-paging cold start: the deployment's backend stream was
  /// paged out (or never built) and had to reload before a batch could
  /// run. Feeds a counter and a t-digest of reload latencies.
  void record_cold_start(double seconds);

  // Token generation. A sequence scheduler feeds these; the registry
  // renders the `harvest_sequence*` families once it has been fed.

  /// One sequence request received / admitted into the live batch.
  void record_submitted();
  void record_admitted();
  /// One retired sequence: a request through record() (expired as
  /// kDeadlineMissed, evicted as kFailed, shed as record_shed()) plus
  /// its generated tokens and, once completed, its TTFT and tokens/s.
  void record_sequence(const sequence::SequenceResponse& response,
                       std::uint64_t trace_id = 0);
  /// One packed decode iteration over `rows` live sequences.
  void record_decode_step(std::int64_t rows);
  /// Sequence outcomes, which obey submitted == retired().
  sequence::SequenceCounters counters() const;

  /// Live gauge: requests currently being preprocessed/inferred.
  void inflight_add(std::int64_t delta);
  std::int64_t inflight() const;

  /// Live gauge: depth of the deployment's request queue, sampled at
  /// exposition time (set once at deployment registration).
  void set_queue_depth_probe(std::function<std::size_t()> probe);

  /// Declare the deployment's SLO; outcomes recorded from now on feed
  /// the burn-rate window. `window_s` is the sliding alert window.
  void configure_slo(const obs::SloConfig& slo, double window_s = 60.0);
  /// Burn-rate alert passthrough (edge-triggered; see SloTracker).
  void set_slo_alert(double burn_threshold, obs::SloTracker::AlertFn fn);
  /// Override the SLO clock (seconds). The DES injects simulated time;
  /// the default reads the process steady clock.
  void set_clock(std::function<double()> clock);
  const obs::SloTracker& slo() const { return slo_; }
  double clock_now() const;

  /// Produce a snapshot over the given observation window. Non-finite
  /// or negative windows are clamped to zero (throughput reads 0
  /// instead of inf/NaN).
  MetricsSnapshot snapshot(double wall_seconds) const;

  /// Append this registry's metric families to a Prometheus text
  /// exposition, labelled with `model` and the deployment's numeric
  /// `precision` — fp32 and int8 deployments of the same model stay
  /// distinguishable in one scrape.
  void render_prometheus(obs::PrometheusWriter& out, const std::string& model,
                         const std::string& precision = "fp32") const;

  void reset();

 private:
  // Both with mutex_ held.
  sequence::SequenceCounters sequence_counters() const;
  void render_sequences(obs::PrometheusWriter& out,
                        const std::string& model) const;

  mutable std::mutex mutex_;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t deadline_misses_ = 0;
  std::array<std::uint64_t, kRequestOutcomeCount> outcomes_{};
  std::uint64_t shed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t retry_abandoned_ = 0;
  std::uint64_t degraded_ = 0;
  core::Percentiles total_latency_;
  core::RunningStats queue_;
  core::RunningStats preprocess_;
  core::RunningStats inference_;
  core::RunningStats batch_sizes_;
  obs::BucketHistogram latency_hist_;
  obs::BucketHistogram queue_hist_;
  obs::BucketHistogram preprocess_hist_;
  obs::BucketHistogram inference_hist_;
  obs::QuantileDigest latency_digest_;
  std::uint64_t cold_starts_ = 0;
  obs::QuantileDigest cold_start_digest_;
  FlushCounts flushes_{};
  // Token generation; `failed` of a sequence is outcomes_[kFailed]
  // minus the evictions, which the request outcomes cannot tell apart.
  std::uint64_t sequences_submitted_ = 0;
  std::uint64_t sequences_admitted_ = 0;
  std::uint64_t sequences_evicted_ = 0;
  std::uint64_t tokens_generated_ = 0;
  std::uint64_t decode_steps_ = 0;
  std::uint64_t decode_rows_ = 0;
  obs::QuantileDigest ttft_digest_;
  obs::QuantileDigest tokens_per_s_digest_;
  std::function<std::size_t()> queue_depth_probe_;
  std::function<double()> clock_;  ///< SLO time source; guarded by mutex_
  std::atomic<std::int64_t> inflight_{0};
  obs::SloTracker slo_;  ///< internally synchronized; kept outside mutex_
};

}  // namespace harvest::serving
