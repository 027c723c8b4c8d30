#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "data/datasets.hpp"
#include "platform/device.hpp"
#include "serving/online_sim.hpp"
#include "serving/tenant_sim.hpp"

namespace harvest::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimesExecuteInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ActionsCanScheduleFurtherEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule_in(1.0, chain);
  };
  sim.schedule_in(1.0, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, ScheduleInIsRelativeToNow) {
  Simulator sim;
  double observed = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(0.5, [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(observed, 2.5);
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  EXPECT_EQ(sim.run(5.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), 1u);  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrains) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.run(4.0);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, SameTimeEventScheduledFromActionStillRuns) {
  Simulator sim;
  bool inner = false;
  sim.schedule_at(1.0, [&] { sim.schedule_at(1.0, [&] { inner = true; }); });
  sim.run();
  EXPECT_TRUE(inner);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(SimulatorDeath, PastSchedulingAborts) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(1.0, [] {}), "into the past");
}

TEST(Simulator, ManyEventsDeterministic) {
  auto run_once = [] {
    Simulator sim;
    std::vector<double> times;
    for (int i = 0; i < 1000; ++i) {
      const double when = static_cast<double>((i * 7919) % 100);
      sim.schedule_at(when, [&times, &sim] { times.push_back(sim.now()); });
    }
    sim.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

struct Hop {
  int kind = 0;
  std::uint32_t node = 0;
};

TEST(EventQueue, PopsTypedPayloadsInTimeOrder) {
  EventQueue<Hop> queue;
  queue.push(2.0, Hop{2, 20});
  queue.push(0.5, Hop{1, 10});
  queue.push(7.0, Hop{3, 30});
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_DOUBLE_EQ(queue.top().when, 0.5);
  std::vector<double> times;
  std::vector<std::uint32_t> nodes;
  while (!queue.empty()) {
    const auto event = queue.pop();
    times.push_back(event.when);
    nodes.push_back(event.payload.node);
    EXPECT_EQ(static_cast<std::uint32_t>(event.payload.kind) * 10,
              event.payload.node);
  }
  EXPECT_EQ(times, (std::vector<double>{0.5, 2.0, 7.0}));
  EXPECT_EQ(nodes, (std::vector<std::uint32_t>{10, 20, 30}));
}

TEST(EventQueue, EqualTimesPopInPushOrder) {
  EventQueue<int> queue;
  // Interleave two timestamps so heap order alone cannot give push order.
  for (int i = 0; i < 64; ++i) queue.push(i % 2 == 0 ? 3.0 : 1.0, i);
  std::vector<int> order;
  while (!queue.empty()) {
    const auto event = queue.pop();
    EXPECT_EQ(event.seq, static_cast<std::uint64_t>(event.payload));
    order.push_back(event.payload);
  }
  std::vector<int> expected;
  for (int i = 1; i < 64; i += 2) expected.push_back(i);
  for (int i = 0; i < 64; i += 2) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, EventsPushedWhileDrainingKeepTheOrder) {
  // The fleet-DES pattern: each popped event schedules follow-ups, some
  // at the current time (which must run after everything already queued
  // for that time) and some later.
  EventQueue<int> queue;
  queue.push(1.0, 0);
  queue.push(1.0, 1);
  queue.push(4.0, 2);
  std::vector<std::pair<double, int>> popped;
  int next_id = 3;
  while (!queue.empty()) {
    const auto event = queue.pop();
    popped.emplace_back(event.when, event.payload);
    if (event.payload < 2) {
      queue.push(event.when, next_id++);        // same time: after the rest
      queue.push(event.when + 2.0, next_id++);  // later: before t = 4
    }
  }
  const std::vector<std::pair<double, int>> expected = {
      {1.0, 0}, {1.0, 1}, {1.0, 3}, {1.0, 5}, {3.0, 4}, {3.0, 6}, {4.0, 2}};
  EXPECT_EQ(popped, expected);
}

// ------------------------------------------------- closed-form queueing
//
// With batching off, one server and no faults, the online and tenant
// DESs are M/D/1 queues: Poisson arrivals, FIFO, and a deterministic
// service time S. The mean wait must then match Pollaczek–Khinchine,
// Wq = ρS / (2(1 − ρ)). M/M/c is not checked: every DES prices service
// deterministically from its cost model, so no exponential-service
// configuration exists to compare against.
//
// Tolerance. Successive waits are correlated, so the sampling error of
// a run's mean latency shrinks with the run length T (in service times),
// not with the raw sample count. For M/M/1 the time-average number in
// system has relative asymptotic variance 2(1 + ρ) / (ρ(1 − ρ)²) per
// service time (Whitt, "Planning queueing simulations", 1989). In heavy
// traffic that variance scales with c_a² + c_s², which is 2 for M/M/1
// and 1 for M/D/1, so M/D/1 gets half of it. By Little's law the mean
// latency W = S + Wq has the same relative error. The test allows four
// such standard errors: about 4.5% of Wq at T = 10⁶ service times.

double md1_wait(double rho, double service_s) {
  return rho * service_s / (2.0 * (1.0 - rho));
}

double md1_latency_tolerance(double rho, double service_s, double run_s) {
  const double services = run_s / service_s;
  const double rel_se = std::sqrt((1.0 + rho) /
                                  (rho * (1.0 - rho) * (1.0 - rho) * services));
  return 4.0 * rel_se * (service_s + md1_wait(rho, service_s));
}

constexpr double kMd1Services = 1e6;  // run length in service times

TEST(MD1, OnlineSimMatchesPollaczekKhinchine) {
  const data::DatasetSpec dataset = *data::find_dataset("Plant Village");
  serving::OnlineSimConfig config;
  config.max_batch = 1;
  config.instances = 1;
  config.queue_capacity = std::numeric_limits<std::size_t>::max();
  config.seed = 11;
  // The service time: one light-load run, where busy time / completions
  // is the per-batch price of a batch of one.
  config.arrival_rate_qps = 1.0;
  config.duration_s = 100.0;
  const serving::OnlineSimReport probe = serving::simulate_online(
      platform::a100(), "ViT_Tiny", dataset, config);
  const double service_s =
      probe.instance_utilization / probe.throughput_img_per_s;
  ASSERT_GT(service_s, 0.0);
  for (const double rho : {0.5, 0.8}) {
    config.arrival_rate_qps = rho / service_s;
    config.duration_s = kMd1Services * service_s;
    const serving::OnlineSimReport report = serving::simulate_online(
        platform::a100(), "ViT_Tiny", dataset, config);
    ASSERT_EQ(report.completed, report.arrivals);
    ASSERT_DOUBLE_EQ(report.mean_batch_size, 1.0);
    EXPECT_NEAR(report.mean_latency_s - service_s, md1_wait(rho, service_s),
                md1_latency_tolerance(rho, service_s, config.duration_s))
        << "rho = " << rho;
  }
}

TEST(MD1, TenantSimMatchesPollaczekKhinchine) {
  // FIFO over the merged tenant streams, one worker, batches of one,
  // bursts off, no queue bound, and a flat per-batch price.
  serving::TenantSimConfig config;
  config.policy = serving::FleetPolicy::kSharedFifo;
  config.tenants = 4;
  config.workers = 1;
  config.max_batch = 1;
  config.burst_on_s = 0.0;
  config.queue_capacity = 0;
  config.service_base_s = 1e-3;
  config.service_per_item_s = 0.0;
  config.seed = 5;
  const double service_s = config.service_base_s;
  for (const double rho : {0.5, 0.8}) {
    // Merged Poisson rate ρ/S, split evenly; victims are tenants 1..3,
    // whose mean wait under FIFO is the whole queue's (PASTA).
    config.base_rate =
        rho / service_s / static_cast<double>(config.tenants);
    config.duration_s = kMd1Services * service_s;
    const serving::TenantSimReport report = serving::simulate_tenants(config);
    ASSERT_TRUE(report.conserved());
    ASSERT_EQ(report.shed, 0u);
    EXPECT_NEAR(report.victim_mean_s - service_s, md1_wait(rho, service_s),
                md1_latency_tolerance(rho, service_s, config.duration_s))
        << "rho = " << rho;
  }
}

}  // namespace
}  // namespace harvest::sim
