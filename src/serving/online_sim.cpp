#include "serving/online_sim.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "platform/perf_model.hpp"
#include "preproc/cost_model.hpp"
#include "sim/simulator.hpp"

namespace harvest::serving {
namespace {

/// One waiting request in the simulated queue.
struct SimRequest {
  double arrived = 0.0;   ///< original arrival (latency baseline)
  double enqueued = 0.0;  ///< when it (re-)entered the queue (aging clock)
  int attempts = 0;       ///< completed dispatch attempts (retry counter)
  /// Trace linkage (assigned at arrival when tracing is wired): every
  /// simulated hop of this request — transmit stall, queue, stages,
  /// retry backoff — lands in one causally-linked tree, same shape as
  /// the real server's.
  obs::TraceContext trace;
};

/// Shared mutable state of one simulation run.
struct SimState {
  sim::Simulator simulator;
  std::deque<SimRequest> queue;
  std::vector<char> instance_busy;
  /// Instance i accepts no new batches before this simulated time
  /// (crash recovery window; 0 = healthy).
  std::vector<double> crashed_until;
  double busy_time = 0.0;
  std::int64_t arrivals = 0;
  std::int64_t rejected = 0;
  std::int64_t shed = 0;
  std::int64_t failed = 0;
  std::int64_t retries = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t on_time = 0;  ///< completions within the deadline budget
  core::Percentiles latencies;
  core::RunningStats batch_sizes;
  std::int64_t completed = 0;
  FlushCounts flushes{};
  std::vector<OnlineSimSample> samples;
};

/// Virtual trace tids for simulated instances, clear of real thread
/// ids assigned by the recorder.
constexpr std::uint32_t kSimTidBase = 1000;

}  // namespace

OnlineSimReport simulate_online(const platform::DeviceSpec& device,
                                const std::string& model,
                                const data::DatasetSpec& dataset,
                                const OnlineSimConfig& config) {
  const ConstantTrace trace(config.arrival_rate_qps);
  return simulate_online_trace(device, model, dataset, config, trace);
}

OnlineSimReport simulate_online_trace(const platform::DeviceSpec& device,
                                      const std::string& model,
                                      const data::DatasetSpec& dataset,
                                      const OnlineSimConfig& config,
                                      const ArrivalTrace& trace) {
  HARVEST_CHECK_MSG(config.instances >= 1 && config.max_batch >= 1,
                    "bad online sim config");
  const platform::EngineModel engine =
      platform::make_engine_model(device, model);
  auto spec = nn::find_model_spec(model);
  HARVEST_CHECK(spec.has_value());
  const preproc::WorkloadImageStats stats = dataset.image_stats();
  const std::int64_t engine_cap = engine.max_batch();
  const std::int64_t max_batch =
      std::min<std::int64_t>(config.max_batch,
                             std::max<std::int64_t>(engine_cap, 1));

  SimState state;
  state.instance_busy.assign(static_cast<std::size_t>(config.instances), 0);
  state.crashed_until.assign(static_cast<std::size_t>(config.instances), 0.0);
  core::Rng rng(config.seed);
  // Faults draw from their own stream so the arrival sequence is
  // bit-identical across fault/retry/shedding configurations — ablation
  // curves compare policies, not resampled workloads.
  core::Rng fault_rng(core::splitmix64(config.faults.seed) ^
                      0xFA'17'5EEDULL);
  const resilience::FaultPlan& faults = config.faults;

  /// Stage times of one batch on one instance.
  struct StageTimes {
    double preprocess = 0.0;
    double inference = 0.0;
    double service = 0.0;
  };
  auto service_time = [&](std::int64_t batch) {
    StageTimes t;
    t.inference = engine.estimate(batch).latency_s;
    t.preprocess =
        preproc::estimate_preproc(device, stats, config.preproc_method, batch,
                                  spec->input_size)
            .latency_s;
    t.service = config.overlap_preproc ? std::max(t.inference, t.preprocess)
                                       : t.inference + t.preprocess;
    return t;
  };

  // Admission mirrors the real server's controller; absent an explicit
  // prior, the delay threshold is seeded from the calibrated platform
  // model (per-request service time at the largest batch).
  resilience::AdmissionConfig admission_cfg = config.admission;
  if (admission_cfg.max_estimated_delay_s > 0.0 &&
      admission_cfg.service_time_prior_s <= 0.0) {
    admission_cfg.service_time_prior_s =
        service_time(max_batch).service / static_cast<double>(max_batch);
  }
  resilience::AdmissionController admission(admission_cfg, config.instances);

  // SLO accounting in simulated time; doubles into the metrics
  // registry's tracker when one is wired (clock switched to the DES).
  obs::SloTracker slo_tracker(config.slo, config.slo_window_s);
  if (config.metrics != nullptr) {
    if (config.slo.enabled()) {
      config.metrics->configure_slo(config.slo, config.slo_window_s);
    }
    config.metrics->set_clock([&state] { return state.simulator.now(); });
  }
  auto slo_record = [&](bool ok, double latency_s) {
    if (config.slo.enabled()) {
      slo_tracker.record(state.simulator.now(), ok, latency_s);
    }
  };

  auto trace_queue_depth = [&] {
    if (config.trace == nullptr) return;
    config.trace->record_counter_at(model + "/queue_depth",
                                    state.simulator.now() * 1e6,
                                    static_cast<double>(state.queue.size()));
  };
  const std::uint32_t uplink_tid =
      kSimTidBase + static_cast<std::uint32_t>(config.instances);
  if (config.trace != nullptr) {
    for (int i = 0; i < config.instances; ++i) {
      config.trace->set_virtual_thread_name(
          kSimTidBase + static_cast<std::uint32_t>(i),
          model + " sim-instance#" + std::to_string(i));
    }
    config.trace->set_virtual_thread_name(uplink_tid, model + " sim-uplink");
  }
  /// Request-tree spans at simulated timestamps: the request's root, and
  /// its children (transmit stall, queue, stages, retry backoff).
  auto root_span = [&](double start_s, double end_s, const SimRequest& request,
                       std::uint32_t tid, std::int64_t batch = -1) {
    if (config.trace == nullptr) return;
    config.trace->record_root("request", "sim", start_s * 1e6, end_s * 1e6,
                              request.trace, 0, batch, tid);
  };
  auto child_span = [&](const char* name, double start_s, double end_s,
                        const SimRequest& request, std::uint32_t tid,
                        std::int64_t batch = -1) {
    if (config.trace == nullptr) return;
    config.trace->record_child(name, "sim", start_s * 1e6, end_s * 1e6,
                               request.trace, 0, batch, tid);
  };

  // Mutually recursive closures: dispatch is invoked from arrivals,
  // timeouts, completions and crash recoveries; retries re-enter the
  // queue from completions.
  std::function<void()> try_dispatch;
  std::function<void(SimRequest)> enqueue_retry;

  auto push_request = [&](SimRequest request) {
    request.enqueued = state.simulator.now();
    state.queue.push_back(request);
    trace_queue_depth();
    // A simulated nanosecond past the deadline: (t + d) - t can round
    // below d, and a flush event that misfires "not aged yet" would
    // strand the final queued request with no later event to drain it.
    state.simulator.schedule_in(config.max_queue_delay_s + 1e-9,
                                [&] { try_dispatch(); });
    try_dispatch();
  };

  // Fresh arrivals pass admission control, then the capacity bound.
  auto enqueue_arrival = [&](SimRequest request) {
    if (admission.enabled() && !admission.admit(state.queue.size())) {
      ++state.shed;
      if (config.metrics != nullptr) config.metrics->record_shed();
      slo_record(false, 0.0);
      return;
    }
    if (state.queue.size() >= config.queue_capacity) {
      ++state.rejected;
      slo_record(false, 0.0);
      return;
    }
    push_request(request);
  };

  // Retries skip admission (the client already owns the slot — shedding
  // a retry would turn one admitted request into a retry storm) but
  // still respect the hard capacity bound.
  enqueue_retry = [&](SimRequest request) {
    if (state.queue.size() >= config.queue_capacity) {
      ++state.failed;
      if (config.metrics != nullptr && config.retry.enabled()) {
        config.metrics->record_retry_abandoned();
      }
      return;
    }
    push_request(request);
  };

  try_dispatch = [&] {
    for (;;) {
      if (state.queue.empty()) return;
      const bool full =
          state.queue.size() >= static_cast<std::size_t>(max_batch);
      const bool aged = state.simulator.now() - state.queue.front().enqueued >=
                        config.max_queue_delay_s;
      if (!full && !aged) return;
      // Find an idle instance that is not inside a crash window.
      std::size_t idle = state.instance_busy.size();
      for (std::size_t i = 0; i < state.instance_busy.size(); ++i) {
        if (state.instance_busy[i] == 0 &&
            state.simulator.now() >= state.crashed_until[i]) {
          idle = i;
          break;
        }
      }
      if (idle == state.instance_busy.size()) return;  // all busy/crashed

      const std::size_t take =
          std::min(state.queue.size(), static_cast<std::size_t>(max_batch));
      std::vector<SimRequest> requests(
          state.queue.begin(),
          state.queue.begin() + static_cast<std::ptrdiff_t>(take));
      state.queue.erase(state.queue.begin(),
                        state.queue.begin() + static_cast<std::ptrdiff_t>(take));
      trace_queue_depth();
      const FlushReason reason =
          full ? FlushReason::kFullBatch : FlushReason::kTimeout;
      ++state.flushes[static_cast<std::size_t>(reason)];
      if (config.metrics != nullptr) {
        config.metrics->record_flush(reason, static_cast<std::int64_t>(take));
      }
      state.instance_busy[idle] = 1;
      const double dispatched_at = state.simulator.now();
      StageTimes stages = service_time(static_cast<std::int64_t>(take));
      // Injected faults, priced in simulated time. A transient failure
      // occupies the engine for its full service time before failing
      // (work done, answer lost) — same contract as FaultyBackend.
      const bool batch_fails =
          resilience::FaultPlan::fires(faults.transient_error_rate, fault_rng);
      if (resilience::FaultPlan::fires(faults.latency_spike_rate, fault_rng)) {
        stages.inference += faults.latency_spike_s;
        stages.service += faults.latency_spike_s;
      }
      admission.observe_batch(static_cast<std::int64_t>(take), stages.service);
      state.busy_time += stages.service;
      state.batch_sizes.add(static_cast<double>(take));
      const double done_at = dispatched_at + stages.service;
      if (config.trace != nullptr) {
        obs::TraceEvent event;
        event.name = batch_fails ? "batch_failed" : "batch";
        event.cat = "sim";
        event.ph = 'X';
        event.ts_us = dispatched_at * 1e6;
        event.dur_us = stages.service * 1e6;
        event.tid = kSimTidBase + static_cast<std::uint32_t>(idle);
        event.batch = static_cast<std::int64_t>(take);
        config.trace->record(std::move(event));
      }
      state.simulator.schedule_at(done_at, [&, idle, requests, dispatched_at,
                                            stages, done_at, take,
                                            batch_fails] {
        state.instance_busy[idle] = 0;
        const std::uint32_t tid =
            kSimTidBase + static_cast<std::uint32_t>(idle);
        // Stage boundaries for the per-request trace tree. Without
        // pipeline overlap the stages tile [dispatch, done]; with
        // overlap, preprocess and inference both start at dispatch and
        // the spans visibly overlap (which is the point).
        const double infer_start =
            dispatched_at + (config.overlap_preproc ? 0.0 : stages.preprocess);
        for (const SimRequest& request : requests) {
          RequestTiming timing;
          timing.queue_s = dispatched_at - request.enqueued;
          timing.preprocess_s = stages.preprocess;
          timing.inference_s = stages.inference;
          timing.total_s = done_at - request.arrived;
          timing.batch_size = static_cast<std::int64_t>(take);
          child_span("queue", request.enqueued, dispatched_at, request, tid,
                     static_cast<std::int64_t>(take));
          child_span("preprocess", dispatched_at,
                     dispatched_at + stages.preprocess, request, tid,
                     static_cast<std::int64_t>(take));
          child_span("inference", infer_start, infer_start + stages.inference,
                     request, tid, static_cast<std::int64_t>(take));
          if (!batch_fails) {
            const double latency = done_at - request.arrived;
            state.latencies.add(latency);
            ++state.completed;
            const bool missed =
                config.deadline_s > 0.0 && latency > config.deadline_s;
            if (missed) {
              ++state.deadline_misses;
            } else {
              ++state.on_time;
            }
            if (config.metrics != nullptr) {
              config.metrics->record(timing,
                                     missed ? RequestOutcome::kDeadlineMissed
                                            : RequestOutcome::kOk,
                                     request.trace.trace_id);
            }
            slo_record(!missed, latency);
            root_span(request.arrived, done_at, request, tid,
                      static_cast<std::int64_t>(take));
            continue;
          }
          // Failed batch: retry per policy, with the deadline budget.
          const int done_attempts = request.attempts + 1;
          bool retriable = config.retry.enabled() &&
                           done_attempts < config.retry.max_attempts;
          double retry_at = 0.0;
          if (retriable) {
            const double backoff =
                config.retry.backoff_s(done_attempts, fault_rng);
            retry_at = done_at + backoff;
            retriable = !config.retry.overruns_deadline(
                done_at - request.arrived, backoff, config.deadline_s);
          }
          if (retriable) {
            ++state.retries;
            if (config.metrics != nullptr) config.metrics->record_retry();
            child_span("backoff", done_at, retry_at, request, tid);
            SimRequest again = request;
            again.attempts = done_attempts;
            state.simulator.schedule_at(retry_at,
                                        [&, again] { enqueue_retry(again); });
          } else {
            ++state.failed;
            if (config.metrics != nullptr) {
              if (config.retry.enabled()) {
                config.metrics->record_retry_abandoned();
              }
              config.metrics->record(timing, RequestOutcome::kFailed,
                                     request.trace.trace_id);
            }
            slo_record(false, timing.total_s);
            root_span(request.arrived, done_at, request, tid);
          }
        }
        try_dispatch();
      });
    }
  };

  // Crash process: exponential time-to-failure per instance; a crashed
  // instance finishes its in-flight batch but accepts no new ones until
  // recovery. The failure clock restarts after each recovery.
  std::function<void(std::size_t)> arm_crash;
  arm_crash = [&](std::size_t i) {
    const double at =
        state.simulator.now() + fault_rng.exponential(1.0 / faults.crash_mtbf_s);
    if (at >= config.duration_s) return;
    state.simulator.schedule_at(at, [&, i] {
      const double recovery = state.simulator.now() + faults.crash_downtime_s;
      state.crashed_until[i] = recovery;
      if (config.trace != nullptr) {
        obs::TraceEvent event;
        event.name = "crash";
        event.cat = "sim";
        event.ph = 'X';
        event.ts_us = state.simulator.now() * 1e6;
        event.dur_us = faults.crash_downtime_s * 1e6;
        event.tid = kSimTidBase + static_cast<std::uint32_t>(i);
        config.trace->record(std::move(event));
      }
      state.simulator.schedule_at(recovery, [&, i] {
        try_dispatch();
        arm_crash(i);
      });
    });
  };
  if (faults.crash_mtbf_s > 0.0 && faults.crash_downtime_s > 0.0) {
    for (std::size_t i = 0; i < state.crashed_until.size(); ++i) arm_crash(i);
  }

  // Periodic gauge sampling (simulated-time sampler).
  std::function<void()> sample_gauges = [&] {
    if (state.simulator.now() > config.duration_s) return;
    OnlineSimSample sample;
    sample.t_s = state.simulator.now();
    sample.queue_depth = static_cast<double>(state.queue.size());
    for (char busy : state.instance_busy) {
      sample.busy_instances += busy != 0 ? 1.0 : 0.0;
    }
    state.samples.push_back(sample);
    state.simulator.schedule_in(config.sample_interval_s,
                                [&] { sample_gauges(); });
  };
  if (config.sample_interval_s > 0.0) sample_gauges();

  // Arrival process: each arrival enqueues itself (possibly after a
  // transmission stall), and books the next arrival from the (possibly
  // time-varying) trace via thinning.
  std::function<void()> arrive = [&] {
    if (state.simulator.now() >= config.duration_s) return;
    ++state.arrivals;
    SimRequest request;
    request.arrived = state.simulator.now();
    if (config.trace != nullptr && config.trace->enabled()) {
      request.trace.trace_id = obs::next_trace_id();
      request.trace.root_span_id = obs::next_span_id();
    }
    if (resilience::FaultPlan::fires(faults.stall_rate, fault_rng)) {
      // The uplink hiccup delays the request's *arrival at the queue*;
      // its latency clock started when it left the client.
      child_span("transmit", request.arrived, request.arrived + faults.stall_s,
                 request, uplink_tid);
      state.simulator.schedule_in(faults.stall_s,
                                  [&, request] { enqueue_arrival(request); });
    } else {
      enqueue_arrival(request);
    }
    const double next = next_arrival(trace, state.simulator.now(), rng);
    if (std::isfinite(next) && next < config.duration_s) {
      state.simulator.schedule_at(next, [&] { arrive(); });
    }
  };
  {
    const double first = next_arrival(trace, 0.0, rng);
    if (std::isfinite(first) && first < config.duration_s) {
      state.simulator.schedule_at(first, [&] { arrive(); });
    }
  }

  state.simulator.run();

  OnlineSimReport report;
  report.arrivals = state.arrivals;
  report.completed = state.completed;
  report.rejected = state.rejected;
  report.shed = state.shed;
  report.failed = state.failed;
  report.retries = state.retries;
  report.deadline_misses = state.deadline_misses;
  const double horizon = std::max(state.simulator.now(), config.duration_s);
  report.throughput_img_per_s =
      horizon > 0.0 ? static_cast<double>(state.completed) / horizon : 0.0;
  report.goodput_img_per_s =
      horizon > 0.0 ? static_cast<double>(state.on_time) / horizon : 0.0;
  report.mean_latency_s = state.latencies.mean();
  report.p50_latency_s = state.latencies.quantile(0.5);
  report.p95_latency_s = state.latencies.p95();
  report.p99_latency_s = state.latencies.p99();
  report.mean_batch_size = state.batch_sizes.mean();
  report.flushes = state.flushes;
  report.samples = std::move(state.samples);
  report.instance_utilization =
      state.busy_time /
      (static_cast<double>(config.instances) * std::max(horizon, 1e-9));
  report.slo_enabled = config.slo.enabled();
  if (config.slo.enabled()) {
    report.slo_burn_rate = slo_tracker.burn_rate(state.simulator.now());
    report.slo_budget_remaining = slo_tracker.budget_remaining();
  }
  // The registry outlives `state`; it must not keep a clock bound to the
  // simulator about to be destroyed.
  if (config.metrics != nullptr) config.metrics->set_clock(nullptr);
  return report;
}

}  // namespace harvest::serving
