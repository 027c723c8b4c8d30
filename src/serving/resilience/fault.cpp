#include "serving/resilience/fault.hpp"

#include <chrono>
#include <thread>

namespace harvest::serving::resilience {

namespace {

core::Status validate_rate(double rate, const char* what) {
  if (rate < 0.0 || rate > 1.0) {
    return core::Status::invalid_argument(std::string(what) +
                                          " must be in [0, 1]");
  }
  return core::Status::ok();
}

}  // namespace

core::Result<FaultPlan> parse_fault_plan(const core::Json& json) {
  if (!json.is_object()) {
    return core::Status::invalid_argument("\"faults\" must be an object");
  }
  FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(json.get_int("seed", 1));
  plan.transient_error_rate = json.get_number("transient_error_rate", 0.0);
  HARVEST_RETURN_IF_ERROR(
      validate_rate(plan.transient_error_rate, "transient_error_rate"));
  const std::string code = json.get_string("transient_code", "unavailable");
  if (code == "unavailable") {
    plan.transient_code = core::StatusCode::kUnavailable;
  } else if (code == "internal") {
    plan.transient_code = core::StatusCode::kInternal;
  } else {
    return core::Status::invalid_argument(
        "transient_code must be \"unavailable\" or \"internal\", got \"" +
        code + "\"");
  }
  plan.latency_spike_rate = json.get_number("latency_spike_rate", 0.0);
  HARVEST_RETURN_IF_ERROR(
      validate_rate(plan.latency_spike_rate, "latency_spike_rate"));
  plan.latency_spike_s = json.get_number("latency_spike_ms", 0.0) * 1e-3;
  plan.crash_period_calls = json.get_int("crash_period_calls", 0);
  plan.crash_downtime_calls = json.get_int("crash_downtime_calls", 0);
  if (plan.crash_period_calls < 0 || plan.crash_downtime_calls < 0) {
    return core::Status::invalid_argument("crash_*_calls must be >= 0");
  }
  if (plan.crash_period_calls > 0 && plan.crash_downtime_calls == 0) {
    return core::Status::invalid_argument(
        "crash_period_calls needs crash_downtime_calls > 0");
  }
  plan.crash_mtbf_s = json.get_number("crash_mtbf_s", 0.0);
  plan.crash_downtime_s = json.get_number("crash_downtime_ms", 0.0) * 1e-3;
  plan.stall_rate = json.get_number("stall_rate", 0.0);
  HARVEST_RETURN_IF_ERROR(validate_rate(plan.stall_rate, "stall_rate"));
  plan.stall_s = json.get_number("stall_ms", 0.0) * 1e-3;
  return plan;
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t instance_salt)
    : plan_(plan), rng_(core::splitmix64(plan.seed) ^ instance_salt) {}

FaultInjector::Decision FaultInjector::next() {
  std::scoped_lock lock(mutex_);
  ++calls_;
  Decision decision;
  // Crash clock first: a crashed instance answers nothing until it has
  // sat out its downtime (kUnavailable, fail-fast — the process is gone).
  if (crashed_for_ > 0) {
    --crashed_for_;
    ++injected_errors_;
    decision.status =
        core::Status::unavailable("injected fault: instance crashed");
    decision.fail_fast = true;
    return decision;
  }
  if (plan_.crash_period_calls > 0 && calls_ % plan_.crash_period_calls == 0) {
    crashed_for_ = plan_.crash_downtime_calls - 1;
    ++injected_errors_;
    decision.status =
        core::Status::unavailable("injected fault: instance crashed");
    decision.fail_fast = true;
    return decision;
  }
  if (FaultPlan::fires(plan_.latency_spike_rate, rng_)) {
    decision.delay_s = plan_.latency_spike_s;
  }
  if (FaultPlan::fires(plan_.transient_error_rate, rng_)) {
    ++injected_errors_;
    decision.status = core::Status(plan_.transient_code,
                                   "injected fault: transient error");
  }
  return decision;
}

std::int64_t FaultInjector::calls() const {
  std::scoped_lock lock(mutex_);
  return calls_;
}

std::int64_t FaultInjector::injected_errors() const {
  std::scoped_lock lock(mutex_);
  return injected_errors_;
}

FaultyBackend::FaultyBackend(BackendPtr inner, const FaultPlan& plan,
                             std::uint64_t instance_salt)
    : inner_(std::move(inner)), injector_(plan, instance_salt) {
  HARVEST_CHECK_MSG(inner_ != nullptr, "FaultyBackend needs an inner backend");
}

const std::string& FaultyBackend::name() const { return inner_->name(); }
std::int64_t FaultyBackend::max_batch() const { return inner_->max_batch(); }
std::int64_t FaultyBackend::num_classes() const {
  return inner_->num_classes();
}
std::int64_t FaultyBackend::input_size() const { return inner_->input_size(); }
const std::string& FaultyBackend::precision() const {
  return inner_->precision();
}

core::Result<BackendResult> FaultyBackend::infer(const tensor::Tensor& batch) {
  const FaultInjector::Decision decision = injector_.next();
  // A crash fails fast (the engine never saw the batch); a transient
  // error spends the engine time first — work done, answer lost — which
  // is the worst case the retry budget has to absorb.
  if (decision.fail_fast) return decision.status;
  if (decision.delay_s > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(decision.delay_s));
  }
  core::Result<BackendResult> result = inner_->infer(batch);
  if (!decision.status.is_ok()) return decision.status;
  return result;
}

BackendPtr wrap_with_faults(BackendPtr backend, const FaultPlan& plan,
                            std::uint64_t instance_salt) {
  if (backend == nullptr || !plan.backend_faults()) return backend;
  return std::make_unique<FaultyBackend>(std::move(backend), plan,
                                         instance_salt);
}

}  // namespace harvest::serving::resilience
