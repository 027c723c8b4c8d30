#include "serving/tenant_sim.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <queue>
#include <vector>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "serving/fair_queue.hpp"
#include "sim/arrivals.hpp"

namespace harvest::serving {

namespace {

/// Pre-draws one tenant's arrival times: an on/off modulated Poisson
/// process (exponential burst lengths, Poisson arrivals while on), on
/// the tenant's own arrival stream.
void draw_arrivals(const TenantSimConfig& config, std::uint32_t tenant,
                   std::vector<sim::Arrival>* out) {
  core::Rng rng = sim::stream_rng(config.seed, tenant);
  double rate = config.base_rate;
  if (tenant == 0) rate *= config.hot_multiplier;
  if (rate <= 0.0) return;
  const bool modulated = config.burst_on_s > 0.0 && config.burst_off_s > 0.0;

  double t = 0.0;
  bool on = true;
  double phase_end = modulated ? rng.exponential(1.0 / config.burst_on_s)
                               : config.duration_s;
  while (t < config.duration_s) {
    if (!on) {
      t = phase_end;
      on = true;
      phase_end = t + rng.exponential(1.0 / config.burst_on_s);
      continue;
    }
    const double dt = rng.exponential(rate);
    if (modulated && t + dt >= phase_end) {
      // Burst ended before the next arrival (memoryless: discard it).
      t = phase_end;
      on = false;
      phase_end = t + rng.exponential(1.0 / config.burst_off_s);
      continue;
    }
    t += dt;
    if (t >= config.duration_s) break;
    out->push_back(sim::Arrival{t, tenant});
  }
}

}  // namespace

const char* fleet_policy_name(FleetPolicy policy) {
  switch (policy) {
    case FleetPolicy::kSharedFifo: return "shared_fifo";
    case FleetPolicy::kWfq: return "wfq";
  }
  return "unknown";
}

TenantSimReport simulate_tenants(const TenantSimConfig& config) {
  TenantSimReport report;
  const auto tenants = static_cast<std::size_t>(std::max<std::int64_t>(
      config.tenants, 1));
  const auto workers = static_cast<std::size_t>(std::max<std::int64_t>(
      config.workers, 1));
  const auto max_batch = static_cast<std::size_t>(std::max<std::int64_t>(
      config.max_batch, 1));

  // ---- Pre-draw and merge every tenant's arrival stream. -------------
  std::vector<sim::Arrival> arrivals;
  for (std::size_t tenant = 0; tenant < tenants; ++tenant) {
    draw_arrivals(config, static_cast<std::uint32_t>(tenant), &arrivals);
  }
  sim::sort_arrivals(arrivals);
  report.arrivals = arrivals.size();

  // ---- Event loop: workers are a min-heap of free times. -------------
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      worker_free;
  for (std::size_t w = 0; w < workers; ++w) worker_free.push(0.0);

  std::vector<std::deque<double>> queues(tenants);  // queued arrival times
  std::vector<double> vt(tenants, 0.0);             // WFQ virtual times
  WfqClock wfq;
  double now = 0.0;

  std::vector<std::uint64_t> completed_per_tenant(tenants, 0);
  std::vector<double> hot_lat;
  std::vector<double> victim_lat;
  double victim_lat_sum = 0.0;
  std::uint64_t good = 0;

  const double weight_of_0 =
      config.tenant0_weight > 0.0 ? config.tenant0_weight : 1.0;

  std::size_t next = 0;  // arrival cursor
  const auto admit = [&](double horizon) {
    while (next < arrivals.size() && arrivals[next].t <= horizon) {
      const auto& a = arrivals[next++];
      auto& q = queues[a.id];
      if (config.queue_capacity > 0 && q.size() >= config.queue_capacity) {
        ++report.shed;
      } else {
        q.push_back(a.t);
      }
    }
  };

  for (;;) {
    const bool backlog = std::any_of(
        queues.begin(), queues.end(),
        [](const std::deque<double>& q) { return !q.empty(); });
    if (!backlog) {
      if (next >= arrivals.size()) break;  // drained
      // Idle: jump the clock to the next arrival instant.
      now = std::max(now, arrivals[next].t);
      admit(now);
      continue;
    }
    const double tw = worker_free.top();
    now = std::max(now, tw);
    admit(now);

    // Pick the tenant with queued work and the lowest policy key: its
    // oldest arrival (FIFO) or its effective virtual time (WFQ); the
    // lowest index wins ties.
    std::size_t pick = tenants;  // sentinel
    double best = 0.0;
    for (std::size_t t = 0; t < tenants; ++t) {
      if (queues[t].empty()) continue;
      const double key = config.policy == FleetPolicy::kSharedFifo
                             ? queues[t].front()
                             : wfq.effective(vt[t]);
      if (pick == tenants || key < best) {
        pick = t;
        best = key;
      }
    }

    // Form the batch: up to max_batch queued requests of that tenant.
    auto& q = queues[pick];
    const std::size_t batch = std::min(q.size(), max_batch);
    if (config.policy == FleetPolicy::kWfq) {
      vt[pick] = wfq.charge(vt[pick], static_cast<double>(batch),
                            pick == 0 ? weight_of_0 : 1.0);
    }
    const double finish = now + config.service_base_s +
                          config.service_per_item_s *
                              static_cast<double>(batch);
    worker_free.pop();
    worker_free.push(finish);
    ++report.batches;
    report.sim_time_s = std::max(report.sim_time_s, finish);

    for (std::size_t i = 0; i < batch; ++i) {
      const double lat = finish - q.front();
      q.pop_front();
      ++completed_per_tenant[pick];
      ++report.completed;
      if (config.deadline_s <= 0.0 || lat <= config.deadline_s) ++good;
      if (pick == 0) {
        hot_lat.push_back(lat);
      } else {
        victim_lat.push_back(lat);
        victim_lat_sum += lat;
      }
    }
  }

  // ---- Aggregate. ----------------------------------------------------
  report.hot_completed = completed_per_tenant.empty()
                             ? 0
                             : completed_per_tenant[0];
  report.completed_t0 = report.hot_completed;
  report.completed_t1 = tenants > 1 ? completed_per_tenant[1] : 0;
  report.victim_completed = report.completed - report.hot_completed;
  if (report.sim_time_s > 0.0) {
    report.throughput_req_s =
        static_cast<double>(report.completed) / report.sim_time_s;
    report.goodput_req_s = static_cast<double>(good) / report.sim_time_s;
  }
  std::sort(hot_lat.begin(), hot_lat.end());
  std::sort(victim_lat.begin(), victim_lat.end());
  report.hot_p99_s = core::nearest_rank(hot_lat, 0.99);
  report.victim_p99_s = core::nearest_rank(victim_lat, 0.99);
  if (!victim_lat.empty()) {
    report.victim_mean_s =
        victim_lat_sum / static_cast<double>(victim_lat.size());
  }
  // Jain's fairness index over the victims' completed counts.
  if (tenants > 1) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t t = 1; t < tenants; ++t) {
      const auto x = static_cast<double>(completed_per_tenant[t]);
      sum += x;
      sum_sq += x * x;
    }
    report.fairness_index =
        sum_sq > 0.0
            ? (sum * sum) /
                  (static_cast<double>(tenants - 1) * sum_sq)
            : 1.0;
  } else {
    report.fairness_index = 1.0;
  }
  return report;
}

}  // namespace harvest::serving
