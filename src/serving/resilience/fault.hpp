#pragma once

/// \file fault.hpp
/// Seeded fault injection for the serving stack. A `FaultPlan` describes
/// which failure modes to inject — transient backend errors, latency
/// spikes, instance crashes with timed recovery, and transmission stalls
/// (§2.2 of the paper: the online/real-time scenarios live or die on
/// exactly these tail events). The plan is consumed two ways:
///
/// * `FaultyBackend` decorates any real `Backend` (NativeBackend, or a
///   SimBackend) and injects faults into `infer()` — the serving layer
///   above cannot tell an injected fault from a real one.
/// * `simulate_online*` (the DES) prices the same plan in simulated
///   time, so fault × retry × shedding ablations run in milliseconds.
///
/// Every draw comes from an explicitly seeded `core::Rng`; with a fixed
/// seed, two runs inject byte-identical fault sequences.

#include <cstdint>
#include <mutex>

#include "core/json.hpp"
#include "core/rng.hpp"
#include "core/status.hpp"
#include "serving/backend.hpp"

namespace harvest::serving::resilience {

struct FaultPlan {
  /// Base seed; each injector salts it with its instance index so
  /// sibling instances of one deployment fail independently but
  /// reproducibly.
  std::uint64_t seed = 1;

  /// P(one infer call fails with `transient_code`). The batch occupies
  /// the engine for its full service time before failing (the realistic
  /// worst case: work done, answer lost).
  double transient_error_rate = 0.0;
  core::StatusCode transient_code = core::StatusCode::kUnavailable;

  /// P(one infer call is slowed by `latency_spike_s`) — models GC
  /// pauses, thermal throttling, a noisy neighbour.
  double latency_spike_rate = 0.0;
  double latency_spike_s = 0.0;

  /// Real backends: after every `crash_period_calls` infer calls the
  /// instance crashes and answers kUnavailable for the next
  /// `crash_downtime_calls` calls (a call-count clock keeps wall-clock
  /// jitter out of the reproducibility contract). 0 = never.
  std::int64_t crash_period_calls = 0;
  std::int64_t crash_downtime_calls = 0;

  /// DES only: exponential time-between-crashes and a timed recovery
  /// window during which the instance accepts no new batches.
  double crash_mtbf_s = 0.0;
  double crash_downtime_s = 0.0;

  /// DES only: P(a request's transmission stalls for `stall_s` before it
  /// reaches the queue) — the edge→cloud uplink hiccup of §2.2.1.
  double stall_rate = 0.0;
  double stall_s = 0.0;

  /// Any backend-visible fault configured (transient/spike/crash)?
  bool backend_faults() const {
    return transient_error_rate > 0.0 || latency_spike_rate > 0.0 ||
           crash_period_calls > 0;
  }
  bool any() const {
    return backend_faults() || crash_mtbf_s > 0.0 || stall_rate > 0.0;
  }

  /// One fault draw at `rate` (one of the rates above). A zero rate
  /// consumes no random number, so every draw stays where it is in the
  /// stream whichever other faults a plan switches on.
  static bool fires(double rate, core::Rng& rng) {
    return rate > 0.0 && rng.bernoulli(rate);
  }
};

/// Parse a `"faults"` JSON object (model-repository key; see
/// docs/RESILIENCE.md). Rates are validated to [0, 1], durations are
/// given in milliseconds (`*_ms`), `transient_code` is `"unavailable"`
/// or `"internal"`.
core::Result<FaultPlan> parse_fault_plan(const core::Json& json);

/// Per-instance fault decision stream. Thread-safe (one infer call at a
/// time draws).
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, std::uint64_t instance_salt);

  /// What to inject into the next infer call.
  struct Decision {
    core::Status status = core::Status::ok();  ///< non-OK = fail the call
    double delay_s = 0.0;                      ///< added latency (spike)
    /// Crash faults fail before the engine runs; transient faults fail
    /// after it (work done, answer lost).
    bool fail_fast = false;
  };
  Decision next();

  std::int64_t calls() const;
  std::int64_t injected_errors() const;

 private:
  FaultPlan plan_;
  mutable std::mutex mutex_;
  core::Rng rng_;
  std::int64_t calls_ = 0;
  std::int64_t injected_errors_ = 0;
  std::int64_t crashed_for_ = 0;  ///< remaining downtime calls
};

/// Backend decorator that injects per the plan. Latency spikes sleep on
/// the instance thread (the batch really is late); errors return without
/// touching the inner backend (crash) or after the inner call would have
/// run (transient — the engine time is spent, the answer is dropped).
class FaultyBackend final : public Backend {
 public:
  FaultyBackend(BackendPtr inner, const FaultPlan& plan,
                std::uint64_t instance_salt);

  const std::string& name() const override;
  std::int64_t max_batch() const override;
  std::int64_t num_classes() const override;
  std::int64_t input_size() const override;
  const std::string& precision() const override;
  core::Result<BackendResult> infer(const tensor::Tensor& batch) override;

  const FaultInjector& injector() const { return injector_; }

 private:
  BackendPtr inner_;
  FaultInjector injector_;
};

/// Wrap `backend` when the plan has backend-visible faults; otherwise
/// return it untouched (zero overhead for fault-free deployments).
BackendPtr wrap_with_faults(BackendPtr backend, const FaultPlan& plan,
                            std::uint64_t instance_salt);

}  // namespace harvest::serving::resilience
