#include "sim/continuum/continuum_sim.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "serving/fair_queue.hpp"

namespace harvest::sim::continuum {
namespace {

// ---------------------------------------------------------------------
// WfqClock — the start-time WFQ core shared with serving::WorkerPool.
// ---------------------------------------------------------------------

TEST(WfqClock, EffectiveNeverRunsBehindGlobalTime) {
  serving::WfqClock wfq;
  EXPECT_EQ(wfq.now(), 0.0);
  // An idle tenant's stale virtual time snaps forward to the clock.
  EXPECT_EQ(wfq.effective(5.0), 5.0);
  wfq.charge(10.0, 4.0, 1.0);
  EXPECT_EQ(wfq.now(), 10.0);
  EXPECT_EQ(wfq.effective(3.0), 10.0);
}

TEST(WfqClock, ChargeIsStartTagPlusWeightedWork) {
  serving::WfqClock wfq;
  // Backlogged tenant at vt 2 with weight 2 pays work/2 on top of its
  // start tag; the global clock advances to the start tag, not the end.
  const double vt = wfq.charge(2.0, 8.0, 2.0);
  EXPECT_DOUBLE_EQ(vt, 6.0);
  EXPECT_DOUBLE_EQ(wfq.now(), 2.0);
}

TEST(WfqClock, HeavierWeightAccruesVirtualTimeSlower) {
  serving::WfqClock wfq;
  double heavy = 0.0;
  double light = 0.0;
  for (int i = 0; i < 4; ++i) {
    heavy = wfq.charge(heavy, 1.0, 4.0);
    light = wfq.charge(light, 1.0, 1.0);
  }
  // Same work: the weight-4 tenant's clock advanced 4x slower, so it
  // would be picked next by a min-effective-vt dispatcher.
  EXPECT_LT(wfq.effective(heavy), wfq.effective(light));
}

TEST(WfqClock, ZeroWeightIsFloorNotDivideByZero) {
  serving::WfqClock wfq;
  const double vt = wfq.charge(0.0, 1.0, 0.0);
  EXPECT_TRUE(std::isfinite(vt));
  EXPECT_GT(vt, 0.0);
}

// ---------------------------------------------------------------------
// Topology / policy validation — every name resolves or the parse fails
// with the offending name in the message (docs/MODEL_REPOSITORY.md).
// ---------------------------------------------------------------------

core::Json parse_json(const char* text) {
  auto parsed = core::Json::parse(text);
  EXPECT_TRUE(parsed.is_ok()) << text;
  return parsed.value();
}

TEST(ContinuumTopology, DefaultsParseAndPrice) {
  auto topology = parse_continuum_topology(parse_json("{}"));
  ASSERT_TRUE(topology.is_ok());
  EXPECT_EQ(topology.value().nodes(), 4 * 50 * 10);
  auto costs = price_topology(topology.value());
  ASSERT_TRUE(costs.is_ok());
  EXPECT_GT(costs.value().edge.per_image_s(), 0.0);
  EXPECT_GT(costs.value().cloud.per_image_s(), 0.0);
  EXPECT_GT(costs.value().upload_bytes, 0.0);  // dataset mean kicks in
}

TEST(ContinuumTopology, UnknownNamesFailWithTheNameInTheMessage) {
  const struct {
    const char* json;
    const char* needle;
  } cases[] = {
      {R"({"edge": {"device": "TPU9000"}})", "TPU9000"},
      {R"({"cloud": {"preproc": "IMAGEMAGICK"}})", "IMAGEMAGICK"},
      {R"({"model": "GPT-17"})", "GPT-17"},
      {R"({"dataset": "MNIST-Barn"})", "MNIST-Barn"},
      {R"({"uplink": "carrier-pigeon"})", "carrier-pigeon"},
  };
  for (const auto& c : cases) {
    auto topology = parse_continuum_topology(parse_json(c.json));
    ASSERT_FALSE(topology.is_ok()) << c.json;
    EXPECT_NE(topology.status().message().find(c.needle), std::string::npos)
        << topology.status().message();
  }
}

TEST(ContinuumTopology, InvalidShapesAreRejected) {
  EXPECT_FALSE(
      parse_continuum_topology(parse_json(R"({"regions": 0})")).is_ok());
  EXPECT_FALSE(parse_continuum_topology(
                   parse_json(R"({"edge": {"max_batch": 0}})"))
                   .is_ok());
  EXPECT_FALSE(parse_continuum_topology(
                   parse_json(R"({"upload_bytes_per_image": -1})"))
                   .is_ok());
  EXPECT_FALSE(parse_continuum_topology(
                   parse_json(R"({"edge_queue_capacity": 0})"))
                   .is_ok());
  EXPECT_FALSE(parse_continuum_topology(parse_json(R"([1, 2])")).is_ok());
}

TEST(ContinuumPolicy, NamesRoundTripAndBadConfigsFail) {
  for (const char* name : {"edge_only", "cloud_only", "edge_first",
                           "bandwidth_aware", "autoscale"}) {
    auto policy = parse_placement_policy(name);
    ASSERT_TRUE(policy.is_ok()) << name;
    EXPECT_STREQ(placement_policy_name(policy.value()), name);
  }
  EXPECT_FALSE(parse_placement_policy("edge_sometimes").is_ok());
  EXPECT_FALSE(
      parse_placement_config(parse_json(R"({"policy": "edge_sometimes"})"))
          .is_ok());
  EXPECT_FALSE(parse_placement_config(
                   parse_json(R"({"offload_queue_threshold": 0})"))
                   .is_ok());
  EXPECT_FALSE(parse_placement_config(
                   parse_json(R"({"min_replicas": 3, "max_replicas": 2})"))
                   .is_ok());
  EXPECT_FALSE(parse_placement_config(parse_json(
                   R"({"scale_up_backlog_per_replica": 4,
                       "scale_down_backlog_per_replica": 8})"))
                   .is_ok());
  auto config = parse_placement_config(parse_json(R"({"policy": "autoscale"})"));
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config.value().policy, PlacementPolicy::kAutoscale);
}

// ---------------------------------------------------------------------
// Offload threshold — exact semantics.
// ---------------------------------------------------------------------

/// One Jetson, one farm; every arrival lands inside the node's FIRST
/// service time, so the local queue only grows. Edge-first must then
/// keep exactly 1 (in service) + threshold (queued) images local and
/// offload every other arrival.
ContinuumConfig frozen_node_config() {
  ContinuumConfig config;
  config.topology.regions = 1;
  config.topology.farms_per_region = 1;
  config.topology.nodes_per_farm = 1;
  auto costs = price_topology(config.topology);
  EXPECT_TRUE(costs.is_ok());
  const double service1 = costs.value().edge.service_s[1];

  auto& curve = config.arrivals;
  curve.duration_s = 0.8 * service1;
  curve.users = 400;
  curve.images_per_user_per_day = 1.0;
  curve.night_floor = 1.0;            // flat shape: no diurnal dip
  curve.burst_start_s = 0.0;          // empty burst window
  curve.burst_end_s = 0.0;
  curve.burst_multiplier = 1.0;
  curve.session_rate_img_s = 3000.0;  // dense micro-sessions
  curve.session_mean_s = 0.01;

  config.seed = 99;
  config.deadline_s = 0.0;  // disabled: only routing is under test
  config.placement.policy = PlacementPolicy::kEdgeFirst;
  return config;
}

TEST(ContinuumSim, EdgeFirstOffloadsExactlyAboveThreshold) {
  for (const std::int64_t threshold : {4, 8, 16}) {
    ContinuumConfig config = frozen_node_config();
    config.placement.offload_queue_threshold = threshold;
    const ContinuumReport report = simulate_continuum(config);
    ASSERT_GT(report.submitted,
              static_cast<std::uint64_t>(threshold) + 1);
    // 1 in service + `threshold` queued stay local; the rest offload.
    EXPECT_EQ(report.offloaded,
              report.submitted - 1 - static_cast<std::uint64_t>(threshold));
    EXPECT_EQ(report.edge.completed,
              static_cast<std::uint64_t>(threshold) + 1);
    EXPECT_EQ(report.cloud.completed, report.offloaded);
    EXPECT_EQ(report.shed, 0u);
    EXPECT_TRUE(report.conserved());
  }
}

TEST(ContinuumSim, ArrivalStreamIsPolicyIndependent) {
  ContinuumConfig config = frozen_node_config();
  ContinuumReport reports[3];
  const PlacementPolicy policies[] = {PlacementPolicy::kEdgeOnly,
                                      PlacementPolicy::kCloudOnly,
                                      PlacementPolicy::kEdgeFirst};
  for (int i = 0; i < 3; ++i) {
    config.placement.policy = policies[i];
    reports[i] = simulate_continuum(config);
  }
  // Same seed => byte-identical workload for every policy.
  EXPECT_EQ(reports[0].submitted, reports[1].submitted);
  EXPECT_EQ(reports[1].submitted, reports[2].submitted);
  EXPECT_EQ(reports[0].offloaded, 0u);
  EXPECT_EQ(reports[1].offloaded, reports[1].submitted);
}

// ---------------------------------------------------------------------
// Conservation + determinism at fleet scale (shrunk).
// ---------------------------------------------------------------------

ContinuumConfig faulty_fleet_config() {
  ContinuumConfig config;
  config.topology.regions = 1;
  config.topology.farms_per_region = 2;
  config.topology.nodes_per_farm = 3;
  config.topology.cloud_replicas = 2;

  auto& curve = config.arrivals;
  curve.users = 2000;
  curve.images_per_user_per_day = 3.0;
  curve.duration_s = 3600.0;
  curve.day_start_s = 0.0;
  curve.day_end_s = 3600.0;
  curve.night_floor = 0.3;
  curve.burst_start_s = 900.0;
  curve.burst_end_s = 2700.0;
  curve.burst_multiplier = 4.0;
  curve.session_rate_img_s = 3.0;
  curve.session_mean_s = 20.0;

  config.seed = 11;
  config.deadline_s = 8.0;
  config.admission.max_queue_depth = 16;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_s = 0.1;
  config.retry.max_backoff_s = 0.5;
  config.faults.seed = 5;
  config.faults.transient_error_rate = 0.05;
  config.faults.latency_spike_rate = 0.02;
  config.faults.latency_spike_s = 0.3;
  config.faults.stall_rate = 0.05;
  config.faults.stall_s = 1.0;
  config.slo.latency_target_s = 8.0;
  config.slo.availability_target = 0.99;
  config.placement.offload_queue_threshold = 4;
  config.placement.min_replicas = 1;
  config.placement.max_replicas = 2;
  config.placement.scale_interval_s = 30.0;
  return config;
}

TEST(ContinuumSim, EveryPolicyConservesRequestsUnderFaults) {
  // submitted == completed + shed + failed + deadline_missed: no image
  // may vanish across nodes, uplinks, tiers, retries or migrations —
  // even with transient faults, latency spikes and uplink stalls on.
  for (const PlacementPolicy policy :
       {PlacementPolicy::kEdgeOnly, PlacementPolicy::kCloudOnly,
        PlacementPolicy::kEdgeFirst, PlacementPolicy::kBandwidthAware,
        PlacementPolicy::kAutoscale}) {
    ContinuumConfig config = faulty_fleet_config();
    config.placement.policy = policy;
    const ContinuumReport report = simulate_continuum(config);
    EXPECT_GT(report.submitted, 1000u) << placement_policy_name(policy);
    EXPECT_GT(report.completed, 0u) << placement_policy_name(policy);
    EXPECT_TRUE(report.conserved())
        << placement_policy_name(policy) << ": " << report.submitted
        << " != " << report.completed << " + " << report.shed << " + "
        << report.failed << " + " << report.deadline_missed;
  }
}

TEST(ContinuumSim, ReportIsBitReproducible) {
  ContinuumConfig config = faulty_fleet_config();
  config.placement.policy = PlacementPolicy::kAutoscale;
  const ContinuumReport a = simulate_continuum(config);
  const ContinuumReport b = simulate_continuum(config);
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(ContinuumReport)), 0);

  config.seed = 12;  // ...and the comparison has power: a new seed is
  const ContinuumReport c = simulate_continuum(config);  // a new day.
  EXPECT_NE(std::memcmp(&a, &c, sizeof(ContinuumReport)), 0);
}

TEST(ContinuumSim, AutoscaleSavesReplicaSecondsOnAQuietCloud) {
  // The V100 tier soaks this fleet's offload stream with one replica;
  // autoscale should stay at min_replicas and bank the difference.
  ContinuumConfig config = faulty_fleet_config();
  config.placement.policy = PlacementPolicy::kEdgeFirst;
  const ContinuumReport fixed = simulate_continuum(config);
  config.placement.policy = PlacementPolicy::kAutoscale;
  const ContinuumReport scaled = simulate_continuum(config);
  EXPECT_LT(scaled.replica_seconds, fixed.replica_seconds);
}

TEST(ContinuumSim, AutoscaleScalesUpWhenTheRegionBacklogs) {
  // Swap the regional tier for an edge-class device (JetsonOrinNano,
  // ~0.65 s/img) fed over fiber, so the uplinks deliver images faster
  // than one replica serves them: the backlog-per-replica watermark must
  // trip and add replicas. Both tiers come from the fixed device catalog,
  // so the premise holds on any host (a `HostCPU` tier would be priced
  // from the test machine's core count).
  ContinuumConfig config = faulty_fleet_config();
  config.topology.cloud = {"JetsonOrinNano", "PyTorch", 8, false};
  config.topology.uplink = "Fiber";
  config.placement.policy = PlacementPolicy::kAutoscale;
  config.placement.min_replicas = 1;
  config.placement.max_replicas = 4;
  config.placement.scale_interval_s = 10.0;
  config.placement.scale_up_backlog_per_replica = 4.0;
  config.placement.scale_down_backlog_per_replica = 1.0;
  const ContinuumReport report = simulate_continuum(config);
  EXPECT_GT(report.scale_ups, 0u);
  EXPECT_TRUE(report.conserved());
}

// ---------------------------------------------------------------------
// Tracing — simulated hops must speak the production span vocabulary,
// so obs::critical_path attributes fleet latency unchanged.
// ---------------------------------------------------------------------

TEST(ContinuumSim, TracedHopsFeedCriticalPathAttribution) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.enable();
  ContinuumConfig config = frozen_node_config();
  config.placement.offload_queue_threshold = 4;
  config.trace = &recorder;
  config.trace_sample_every = 1;  // every image
  const ContinuumReport report = simulate_continuum(config);
  const core::Json doc = recorder.to_json();
  recorder.disable();
  ASSERT_GT(report.offloaded, 0u);

  const std::vector<std::uint64_t> ids = obs::trace_ids(doc);
  ASSERT_GT(ids.size(), 4u);
  std::size_t with_transmit = 0;
  std::size_t edge_local = 0;
  for (const std::uint64_t id : ids) {
    auto path = obs::critical_path(doc, id);
    ASSERT_TRUE(path.is_ok());
    EXPECT_GT(path.value().end_to_end_us, 0.0);
    const double transmit = path.value().segment(obs::Segment::kTransmit);
    const double inference = path.value().segment(obs::Segment::kInference);
    EXPECT_GT(inference, 0.0);
    if (transmit > 0.0) {
      ++with_transmit;  // the "offload" span classified as transmit
    } else {
      ++edge_local;
    }
  }
  // Both worlds exist in one trace: images served on the Jetson and
  // images that crossed the uplink.
  EXPECT_GT(with_transmit, 0u);
  EXPECT_GT(edge_local, 0u);
}

}  // namespace
}  // namespace harvest::sim::continuum
