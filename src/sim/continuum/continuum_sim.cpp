#include "sim/continuum/continuum_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <vector>

#include "core/status.hpp"
#include "core/rng.hpp"
#include "obs/digest.hpp"
#include "serving/fair_queue.hpp"
#include "sim/arrivals.hpp"
#include "sim/simulator.hpp"

namespace harvest::sim::continuum {

using serving::resilience::FaultPlan;

namespace {

/// Virtual thread ids for simulated-hop spans. The single-node DES owns
/// 1000+ (online_sim's kSimTidBase); the fleet gets its own block.
constexpr std::uint32_t kTidEdge = 2000;
constexpr std::uint32_t kTidUplink = 2001;
constexpr std::uint32_t kTidCloud = 2002;

constexpr double kPi = 3.14159265358979323846;

/// One queued/in-flight image. `arrival` never changes (the latency and
/// deadline anchor); `enqueued` is the current queue's entry time (the
/// queue-span anchor, reset on every hop and retry).
struct QReq {
  double arrival = 0.0;
  double enqueued = 0.0;
  std::uint32_t node = 0;       ///< originating edge node (retries re-route)
  std::uint16_t attempts = 0;   ///< failures so far
  std::uint16_t trace_slot = 0; ///< 1-based index into traced contexts; 0 = off
};

enum class EventKind : std::uint8_t {
  kEdgeDone,    ///< a = node
  kUplinkDone,  ///< a = farm
  kCloudDone,   ///< a = region, b = inflight slot
  kRetry,       ///< re-route one request; payload in `req`
  kScaleTick,   ///< a = region
};

/// Payload of one fleet event; the queue holds its time and tie-break.
struct Event {
  EventKind kind = EventKind::kEdgeDone;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double service_s = 0.0;  ///< kEdgeDone/kCloudDone: the batch's price
  QReq req;                ///< kRetry only
};

/// Pre-draws the whole fleet's arrival stream: per node, drone-sync
/// session starts follow a diurnal × burst modulated Poisson process
/// (Lewis–Shedler thinning against the analytic bound `burst_multiplier`,
/// since shape(t) <= 1 × burst_multiplier), and each session emits
/// Poisson image arrivals at `session_rate_img_s` for an exponential
/// stretch. Per-node splitmix-salted streams make the draw independent
/// of node count ordering — and of the placement policy, which is what
/// makes cross-policy reports comparable on an identical workload.
std::vector<Arrival> draw_fleet_arrivals(const ArrivalCurve& curve,
                                         std::int64_t nodes,
                                         std::uint64_t seed) {
  std::vector<Arrival> out;
  if (nodes < 1 || curve.duration_s <= 0.0 || curve.users < 1) return out;

  // Normalize the session-start rate so the expected fleet volume is
  // users × images_per_user_per_day.
  double shape_integral = 0.0;
  const double dt = 1.0;
  for (double t = 0.0; t < curve.duration_s; t += dt) {
    shape_integral += curve.shape(t) * dt;
  }
  const double images_per_session =
      curve.session_rate_img_s * curve.session_mean_s;
  if (shape_integral <= 0.0 || images_per_session <= 0.0) return out;
  const double images_per_node = curve.images_per_user_per_day *
                                 static_cast<double>(curve.users) /
                                 static_cast<double>(nodes);
  const double kappa =
      images_per_node / images_per_session / shape_integral;
  const double rate_bound = kappa * std::max(curve.burst_multiplier, 1.0);
  if (rate_bound <= 0.0) return out;

  for (std::int64_t node = 0; node < nodes; ++node) {
    core::Rng rng = stream_rng(seed, static_cast<std::uint64_t>(node));
    double t = 0.0;
    for (;;) {
      t += rng.exponential(rate_bound);
      if (t >= curve.duration_s) break;
      if (!rng.bernoulli(kappa * curve.shape(t) / rate_bound)) continue;
      const double len = rng.exponential(1.0 / curve.session_mean_s);
      double ta = t;
      for (;;) {
        ta += rng.exponential(curve.session_rate_img_s);
        if (ta >= t + len || ta >= curve.duration_s) break;
        out.push_back(Arrival{ta, static_cast<std::uint32_t>(node)});
      }
    }
  }
  sort_arrivals(out);
  return out;
}

}  // namespace

double ArrivalCurve::shape(double t) const {
  double diurnal = night_floor;
  if (day_end_s > day_start_s && t >= day_start_s && t <= day_end_s) {
    const double phase = (t - day_start_s) / (day_end_s - day_start_s);
    diurnal = night_floor +
              (1.0 - night_floor) * std::max(0.0, std::sin(kPi * phase));
  }
  const bool burst = t >= burst_start_s && t < burst_end_s;
  return diurnal * (burst ? std::max(burst_multiplier, 0.0) : 1.0);
}

ContinuumReport simulate_continuum(const ContinuumConfig& config) {
  auto priced = price_topology(config.topology);
  HARVEST_CHECK_MSG(priced.is_ok(), "continuum topology failed to price");
  const ContinuumCosts costs = std::move(priced).value();
  const ContinuumTopology& topo = config.topology;
  const PlacementConfig& place = config.placement;
  const auto nodes = static_cast<std::size_t>(topo.nodes());
  const auto farms = static_cast<std::size_t>(topo.farms());
  const auto regions = static_cast<std::size_t>(topo.regions);
  const auto nodes_per_farm = static_cast<std::size_t>(topo.nodes_per_farm);
  const auto farms_per_region =
      static_cast<std::size_t>(topo.farms_per_region);

  ContinuumReport report;
  std::memset(&report, 0, sizeof(report));  // zero padding: memcmp contract

  // ---- Pre-drawn workload (identical across policies). ---------------
  const std::vector<Arrival> arrivals =
      draw_fleet_arrivals(config.arrivals, topo.nodes(), config.seed);

  // ---- Shared production policies. -----------------------------------
  serving::resilience::AdmissionConfig admission_config = config.admission;
  if (admission_config.service_time_prior_s <= 0.0) {
    admission_config.service_time_prior_s = costs.edge.per_image_s();
  }
  serving::resilience::AdmissionController admission(admission_config, 1);
  core::Rng fault_rng(core::splitmix64(config.faults.seed) ^
                      0xFA'17'5EEDULL);
  core::Rng retry_rng(core::splitmix64(config.seed ^ 0x8E'7247'BEEFULL));
  obs::SloTracker slo_tracker(config.slo);

  // ---- Fleet state. ---------------------------------------------------
  std::vector<std::deque<QReq>> edge_q(nodes);
  std::vector<char> edge_busy(nodes, 0);
  std::vector<std::vector<QReq>> edge_inflight(nodes);

  std::vector<std::deque<QReq>> uplink_q(farms);
  std::vector<char> uplink_busy(farms, 0);
  std::vector<QReq> uplink_inflight(farms);

  struct Region {
    std::vector<std::deque<QReq>> farm_q;  ///< per local farm index
    std::vector<double> farm_vt;           ///< WFQ stored virtual times
    serving::WfqClock wfq;
    std::size_t queued = 0;   ///< total across farm_q
    std::int64_t active = 0;  ///< replica cap right now
    std::int64_t busy = 0;    ///< replicas running a batch
    double last_change_s = 0.0;
    double replica_seconds = 0.0;

    void roll_replicas(double now) {
      replica_seconds += static_cast<double>(active) * (now - last_change_s);
      last_change_s = now;
    }
  };
  std::vector<Region> region_state(regions);
  const bool autoscaling = place.policy == PlacementPolicy::kAutoscale;
  for (Region& region : region_state) {
    region.farm_q.resize(farms_per_region);
    region.farm_vt.assign(farms_per_region, 0.0);
    region.active = autoscaling ? place.min_replicas : topo.cloud_replicas;
  }
  std::vector<std::vector<QReq>> cloud_inflight;  ///< slot pool
  std::vector<std::uint32_t> cloud_free_slots;

  EventQueue<Event> events;
  double now = 0.0;
  std::size_t cursor = 0;
  std::uint64_t peak_completed = 0;

  obs::QuantileDigest total_digest;
  obs::QuantileDigest edge_digest;
  obs::QuantileDigest cloud_digest;
  std::vector<obs::TraceContext> traced;

  const double pw_start = config.peak_window_start_s >= 0.0
                              ? config.peak_window_start_s
                              : config.arrivals.burst_start_s;
  const double pw_end = config.peak_window_end_s >= 0.0
                            ? config.peak_window_end_s
                            : config.arrivals.burst_end_s;

  const bool tracing = config.trace != nullptr &&
                       config.trace_sample_every > 0;
  if (tracing) {
    config.trace->set_virtual_thread_name(kTidEdge, "continuum edge");
    config.trace->set_virtual_thread_name(kTidUplink, "continuum uplink");
    config.trace->set_virtual_thread_name(kTidCloud, "continuum cloud");
  }
  /// Simulated-time spans of a sampled image: its root, and the hops
  /// causally linked under it.
  const auto root_span = [&](double start_s, double end_s, const QReq& req,
                             std::uint32_t tid) {
    if (!tracing || req.trace_slot == 0) return;
    config.trace->record_root("request", "continuum", start_s * 1e6,
                              end_s * 1e6, traced[req.trace_slot - 1], 0, -1,
                              tid);
  };
  const auto child_span = [&](const char* name, double start_s, double end_s,
                              const QReq& req, std::uint32_t tid,
                              std::int64_t batch = -1) {
    if (!tracing || req.trace_slot == 0) return;
    config.trace->record_child(name, "continuum", start_s * 1e6, end_s * 1e6,
                               traced[req.trace_slot - 1], 0, batch, tid);
  };

  const auto slo_record = [&](bool ok, double latency_s) {
    if (config.slo.enabled()) slo_tracker.record(now, ok, latency_s);
  };

  // ---- Outcome accounting. --------------------------------------------
  const auto shed_one = [&](const QReq& req) {
    ++report.shed;
    slo_record(false, 0.0);
    root_span(req.arrival, now, req, kTidEdge);
  };

  const auto complete_one = [&](const QReq& req, double extra_latency_s,
                                bool at_cloud) {
    const double latency = now - req.arrival + extra_latency_s;
    const bool on_time =
        config.deadline_s <= 0.0 || latency <= config.deadline_s;
    TierStats& tier = at_cloud ? report.cloud : report.edge;
    if (on_time) {
      ++report.completed;
      ++tier.completed;
      const double done = now + extra_latency_s;
      if (done >= pw_start && done < pw_end) ++peak_completed;
    } else {
      ++report.deadline_missed;
      ++tier.deadline_missed;
    }
    const std::uint64_t exemplar =
        req.trace_slot != 0 ? traced[req.trace_slot - 1].trace_id : 0;
    total_digest.add(latency, exemplar);
    (at_cloud ? cloud_digest : edge_digest).add(latency, exemplar);
    slo_record(on_time, latency);
    root_span(req.arrival, req.arrival + latency, req,
              at_cloud ? kTidCloud : kTidEdge);
  };

  // ---- Routing (forward declarations via std::function-free lambdas
  // would be circular; use explicit helpers instead). -------------------
  const auto kick_edge = [&](std::uint32_t node) {
    auto& queue = edge_q[node];
    if (edge_busy[node] != 0 || queue.empty()) return;
    const auto batch = std::min<std::size_t>(
        queue.size(), static_cast<std::size_t>(costs.edge.max_batch));
    const bool degraded =
        place.degrade_queue_threshold > 0 &&
        queue.size() >=
            static_cast<std::size_t>(place.degrade_queue_threshold);
    double service = degraded ? costs.edge.degraded_s[batch]
                              : costs.edge.service_s[batch];
    if (FaultPlan::fires(config.faults.latency_spike_rate, fault_rng)) {
      service += config.faults.latency_spike_s;
    }
    auto& inflight = edge_inflight[node];
    inflight.assign(queue.begin(),
                    queue.begin() + static_cast<std::ptrdiff_t>(batch));
    queue.erase(queue.begin(),
                queue.begin() + static_cast<std::ptrdiff_t>(batch));
    edge_busy[node] = 1;
    for (const QReq& req : inflight) {
      child_span("queue", req.enqueued, now, req, kTidEdge);
    }
    events.push(now + service, Event{EventKind::kEdgeDone, node,
                                     degraded ? 1u : 0u, service, QReq{}});
  };

  const auto kick_uplink = [&](std::uint32_t farm) {
    auto& queue = uplink_q[farm];
    if (uplink_busy[farm] != 0 || queue.empty()) return;
    QReq req = queue.front();
    queue.pop_front();
    child_span("queue", req.enqueued, now, req, kTidUplink);
    double transfer = costs.uplink.transfer_time_s(costs.upload_bytes);
    if (FaultPlan::fires(config.faults.stall_rate, fault_rng)) {
      transfer += config.faults.stall_s;
    }
    report.transmit_bytes +=
        costs.upload_bytes + costs.uplink.per_request_overhead_bytes;
    child_span("offload", now, now + transfer, req, kTidUplink);
    uplink_inflight[farm] = req;
    uplink_busy[farm] = 1;
    events.push(now + transfer,
                Event{EventKind::kUplinkDone, farm, 0, 0.0, QReq{}});
  };

  const auto kick_cloud = [&](std::uint32_t region_index) {
    Region& region = region_state[region_index];
    while (region.busy < region.active && region.queued > 0) {
      // WFQ across the region's farms: min effective virtual time among
      // backlogged farms, lowest farm index on ties.
      std::size_t pick = farms_per_region;
      double best = 0.0;
      for (std::size_t f = 0; f < farms_per_region; ++f) {
        if (region.farm_q[f].empty()) continue;
        const double eff = region.wfq.effective(region.farm_vt[f]);
        if (pick == farms_per_region || eff < best) {
          pick = f;
          best = eff;
        }
      }
      if (pick == farms_per_region) return;
      auto& queue = region.farm_q[pick];
      const auto batch = std::min<std::size_t>(
          queue.size(), static_cast<std::size_t>(costs.cloud.max_batch));
      region.farm_vt[pick] = region.wfq.charge(
          region.farm_vt[pick], static_cast<double>(batch), 1.0);
      double service = costs.cloud.service_s[batch];
      if (FaultPlan::fires(config.faults.latency_spike_rate, fault_rng)) {
        service += config.faults.latency_spike_s;
      }
      std::uint32_t slot;
      if (!cloud_free_slots.empty()) {
        slot = cloud_free_slots.back();
        cloud_free_slots.pop_back();
      } else {
        slot = static_cast<std::uint32_t>(cloud_inflight.size());
        cloud_inflight.emplace_back();
      }
      auto& inflight = cloud_inflight[slot];
      inflight.assign(queue.begin(),
                      queue.begin() + static_cast<std::ptrdiff_t>(batch));
      queue.erase(queue.begin(),
                  queue.begin() + static_cast<std::ptrdiff_t>(batch));
      region.queued -= batch;
      ++region.busy;
      for (const QReq& req : inflight) {
        child_span("queue", req.enqueued, now, req, kTidCloud);
      }
      events.push(now + service, Event{EventKind::kCloudDone, region_index,
                                       slot, service, QReq{}});
    }
  };

  /// Enqueue locally. False when the node's queue is full or admission
  /// sheds (the caller decides whether that means "offload" or "shed").
  const auto try_edge = [&](QReq req) {
    auto& queue = edge_q[req.node];
    if (queue.size() >= static_cast<std::size_t>(topo.edge_queue_capacity)) {
      return false;
    }
    if (admission.enabled() && !admission.admit(queue.size())) return false;
    req.enqueued = now;
    queue.push_back(req);
    kick_edge(req.node);
    return true;
  };

  /// Enqueue on the farm's uplink. False when the uplink queue is full.
  const auto try_uplink = [&](QReq req) {
    const auto farm = req.node / static_cast<std::uint32_t>(nodes_per_farm);
    auto& queue = uplink_q[farm];
    if (queue.size() >=
        static_cast<std::size_t>(topo.uplink_queue_capacity)) {
      return false;
    }
    req.enqueued = now;
    queue.push_back(req);
    ++report.offloaded;
    kick_uplink(farm);
    return true;
  };

  /// The placement decision: edge, uplink, or shed. Retries re-enter
  /// here, so a request can migrate tiers across attempts.
  const auto route = [&](const QReq& req) {
    switch (place.policy) {
      case PlacementPolicy::kEdgeOnly:
        if (!try_edge(req)) shed_one(req);
        return;
      case PlacementPolicy::kCloudOnly:
        if (!try_uplink(req)) shed_one(req);
        return;
      case PlacementPolicy::kEdgeFirst:
      case PlacementPolicy::kAutoscale: {
        const bool pressured =
            edge_q[req.node].size() >=
            static_cast<std::size_t>(place.offload_queue_threshold);
        if (pressured) {
          if (try_uplink(req) || try_edge(req)) return;
        } else if (try_edge(req) || try_uplink(req)) {
          return;
        }
        shed_one(req);
        return;
      }
      case PlacementPolicy::kBandwidthAware: {
        const auto farm =
            req.node / static_cast<std::uint32_t>(nodes_per_farm);
        const auto region_index =
            farm / static_cast<std::uint32_t>(farms_per_region);
        const Region& region = region_state[region_index];
        const double est_edge =
            static_cast<double>(edge_q[req.node].size() + 1) *
            admission.service_time_s();
        const double est_cloud =
            static_cast<double>(uplink_q[farm].size() + 1) *
                costs.uplink.transfer_time_s(costs.upload_bytes) +
            costs.uplink.rtt_s +
            static_cast<double>(region.queued) /
                static_cast<double>(std::max<std::int64_t>(region.active, 1)) *
                costs.cloud.per_image_s() +
            costs.cloud.service_s[1];
        if (est_edge <= est_cloud) {
          if (try_edge(req) || try_uplink(req)) return;
        } else {
          if (try_uplink(req) || try_edge(req)) return;
        }
        shed_one(req);
        return;
      }
    }
  };

  /// A failed attempt: retry with backoff (re-routing = migration), or
  /// account the loss.
  const auto retry_or_fail = [&](QReq req) {
    ++req.attempts;
    if (config.retry.enabled() && req.attempts < config.retry.max_attempts) {
      const double backoff =
          config.retry.backoff_s(req.attempts, retry_rng);
      if (!config.retry.overruns_deadline(now - req.arrival, backoff,
                                          config.deadline_s)) {
        ++report.retries;
        child_span("backoff", now, now + backoff, req, kTidEdge);
        events.push(now + backoff, Event{EventKind::kRetry, 0, 0, 0.0, req});
        return;
      }
      // The backoff would overrun the deadline budget: abandon.
      ++report.deadline_missed;
      slo_record(false, now - req.arrival);
      root_span(req.arrival, now, req, kTidEdge);
      return;
    }
    ++report.failed;
    slo_record(false, now - req.arrival);
    root_span(req.arrival, now, req, kTidEdge);
  };

  const auto any_work_left = [&] {
    if (cursor < arrivals.size()) return true;
    for (std::size_t n = 0; n < nodes; ++n) {
      if (edge_busy[n] != 0 || !edge_q[n].empty()) return true;
    }
    for (std::size_t f = 0; f < farms; ++f) {
      if (uplink_busy[f] != 0 || !uplink_q[f].empty()) return true;
    }
    for (const Region& region : region_state) {
      if (region.busy > 0 || region.queued > 0) return true;
    }
    return false;
  };

  if (autoscaling) {
    for (std::uint32_t r = 0; r < regions; ++r) {
      events.push(place.scale_interval_s,
                  Event{EventKind::kScaleTick, r, 0, 0.0, QReq{}});
    }
  }

  // ---- The event loop. ------------------------------------------------
  while (cursor < arrivals.size() || !events.empty()) {
    const bool take_arrival =
        cursor < arrivals.size() &&
        (events.empty() || arrivals[cursor].t <= events.top().when);
    if (take_arrival) {
      const Arrival& arrival = arrivals[cursor++];
      now = arrival.t;
      ++report.submitted;
      QReq req;
      req.arrival = now;
      req.enqueued = now;
      req.node = arrival.id;
      if (tracing && report.submitted % config.trace_sample_every == 0 &&
          traced.size() < 0xFFFE) {
        obs::TraceContext ctx;
        ctx.trace_id = obs::next_trace_id();
        ctx.root_span_id = obs::next_span_id();
        traced.push_back(ctx);
        req.trace_slot = static_cast<std::uint16_t>(traced.size());
      }
      route(req);
      continue;
    }

    const auto next = events.pop();
    now = next.when;
    const Event& event = next.payload;
    switch (event.kind) {
      case EventKind::kEdgeDone: {
        const std::uint32_t node = event.a;
        edge_busy[node] = 0;
        auto& inflight = edge_inflight[node];
        ++report.edge.batches;
        if (event.b != 0) ++report.edge.degraded_batches;
        report.edge.busy_s += event.service_s;
        report.edge.energy_j += event.service_s * costs.edge.power_w;
        admission.observe_batch(static_cast<std::int64_t>(inflight.size()),
                                event.service_s);
        const bool faulted =
            FaultPlan::fires(config.faults.transient_error_rate, fault_rng);
        const double infer_start = now - event.service_s;
        for (const QReq& req : inflight) {
          child_span("inference", infer_start, now, req, kTidEdge,
                     static_cast<std::int64_t>(inflight.size()));
        }
        if (faulted) {
          // Work done, answers lost — the realistic worst case.
          for (const QReq& req : inflight) retry_or_fail(req);
        } else {
          for (const QReq& req : inflight) complete_one(req, 0.0, false);
        }
        inflight.clear();
        kick_edge(node);
        break;
      }
      case EventKind::kUplinkDone: {
        const std::uint32_t farm = event.a;
        uplink_busy[farm] = 0;
        QReq req = uplink_inflight[farm];
        const auto region_index =
            farm / static_cast<std::uint32_t>(farms_per_region);
        Region& region = region_state[region_index];
        if (region.queued >=
            static_cast<std::size_t>(topo.cloud_queue_capacity)) {
          // Regional backlog cap: shed after the transfer — wasted
          // uplink, exactly the failure cloud-side admission prevents.
          shed_one(req);
        } else {
          const auto local_farm = farm % farms_per_region;
          req.enqueued = now;
          region.farm_q[local_farm].push_back(req);
          ++region.queued;
          kick_cloud(region_index);
        }
        kick_uplink(farm);
        break;
      }
      case EventKind::kCloudDone: {
        const std::uint32_t region_index = event.a;
        Region& region = region_state[region_index];
        --region.busy;
        auto& inflight = cloud_inflight[event.b];
        ++report.cloud.batches;
        report.cloud.busy_s += event.service_s;
        report.cloud.energy_j += event.service_s * costs.cloud.power_w;
        const bool faulted =
            FaultPlan::fires(config.faults.transient_error_rate, fault_rng);
        const double infer_start = now - event.service_s;
        for (const QReq& req : inflight) {
          child_span("inference", infer_start, now, req, kTidCloud,
                     static_cast<std::int64_t>(inflight.size()));
        }
        if (faulted) {
          for (const QReq& req : inflight) retry_or_fail(req);
        } else {
          // The response ride home is the link's RTT (upload already
          // elapsed in simulated time on the uplink hop).
          for (const QReq& req : inflight) {
            complete_one(req, costs.uplink.rtt_s, true);
          }
        }
        inflight.clear();
        cloud_free_slots.push_back(event.b);
        kick_cloud(region_index);
        break;
      }
      case EventKind::kRetry:
        route(event.req);
        break;
      case EventKind::kScaleTick: {
        const std::uint32_t region_index = event.a;
        Region& region = region_state[region_index];
        const double backlog_per_replica =
            static_cast<double>(region.queued) /
            static_cast<double>(std::max<std::int64_t>(region.active, 1));
        if (backlog_per_replica >= place.scale_up_backlog_per_replica &&
            region.active < place.max_replicas) {
          region.roll_replicas(now);
          ++region.active;
          ++report.scale_ups;
          kick_cloud(region_index);
        } else if (backlog_per_replica <=
                       place.scale_down_backlog_per_replica &&
                   region.active > place.min_replicas) {
          // Busy replicas finish their batch; we only stop starting new
          // ones above the reduced cap.
          region.roll_replicas(now);
          --region.active;
          ++report.scale_downs;
        }
        if (any_work_left()) {
          events.push(now + place.scale_interval_s,
                      Event{EventKind::kScaleTick, region_index, 0, 0.0,
                            QReq{}});
        }
        break;
      }
    }
  }

  // ---- Aggregate. ------------------------------------------------------
  report.sim_time_s = now;
  const double duration = std::max(config.arrivals.duration_s, 1e-9);
  report.goodput_img_s = static_cast<double>(report.completed) / duration;
  if (pw_end > pw_start) {
    report.peak_goodput_img_s =
        static_cast<double>(peak_completed) / (pw_end - pw_start);
  }
  const auto digest_q = [](const obs::QuantileDigest& digest, double q) {
    return digest.count() > 0 ? digest.quantile(q) : 0.0;
  };
  report.p50_s = digest_q(total_digest, 0.5);
  report.p99_s = digest_q(total_digest, 0.99);
  report.edge.p50_s = digest_q(edge_digest, 0.5);
  report.edge.p99_s = digest_q(edge_digest, 0.99);
  report.cloud.p50_s = digest_q(cloud_digest, 0.5);
  report.cloud.p99_s = digest_q(cloud_digest, 0.99);
  for (Region& region : region_state) {
    region.roll_replicas(now);
    report.replica_seconds += region.replica_seconds;
  }
  report.energy_j = report.edge.energy_j + report.cloud.energy_j +
                    report.transmit_bytes * config.uplink_energy_j_per_byte;
  if (report.completed > 0) {
    report.energy_per_image_j =
        report.energy_j / static_cast<double>(report.completed);
  }
  if (config.slo.enabled()) {
    report.slo_burn_rate = slo_tracker.burn_rate(now);
    report.slo_budget_remaining = slo_tracker.budget_remaining();
  }
  return report;
}

}  // namespace harvest::sim::continuum
