/// continuum_des: the four discrete-event simulators, on the configs of
/// the ablations that exercise them — simulate_continuum on the full
/// million-user day of ablation_continuum_scale (all five placement
/// policies), and simulate_online / simulate_tenants / simulate_sequences
/// on configs of ablation_resilience, ablation_multi_tenancy and
/// ablation_continuous_batching, their simulated durations sized so each
/// run takes a fraction of a second of wall time. No image path runs here,
/// so a DES change and an image-path change cannot move each other's
/// workloads.

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "data/datasets.hpp"
#include "nn/token_model.hpp"
#include "platform/device.hpp"
#include "serving/online_sim.hpp"
#include "serving/sequence/sequence_sim.hpp"
#include "serving/tenant_sim.hpp"
#include "sim/continuum/continuum_sim.hpp"

namespace harvest::benchmark {
namespace {

namespace cont = sim::continuum;

// Simulated seconds of one run of each smaller simulator, sized for 0.2
// to 0.5 wall seconds on a 4-core Xeon, so that a window holds several
// runs of every simulator. Each run also stays well below the continuum
// day's 150 MB peak: a 3000 s sequence run, whose vectors grow by
// doubling, peaked at 162 MB for some seeds and 200 MB for others.
constexpr double kOnlineDurationS = 600.0;
constexpr double kTenantDurationS = 400.0;
constexpr double kSequenceDurationS = 1000.0;

constexpr cont::PlacementPolicy kPolicies[] = {
    cont::PlacementPolicy::kEdgeOnly, cont::PlacementPolicy::kCloudOnly,
    cont::PlacementPolicy::kEdgeFirst, cont::PlacementPolicy::kBandwidthAware,
    cont::PlacementPolicy::kAutoscale};

/// The full scenario of ablation_continuum_scale: 1M users/day of CRSA
/// frames over 2000 Jetsons and four V100 regions.
cont::ContinuumConfig continuum_config(std::uint64_t seed) {
  cont::ContinuumConfig config;
  cont::ContinuumTopology& topo = config.topology;
  topo.regions = 4;
  topo.farms_per_region = 50;
  topo.nodes_per_farm = 10;
  topo.cloud_replicas = 8;
  topo.model = "ViT_Small";
  topo.dataset = "CRSA";
  topo.uplink = "5G-midband";
  topo.upload_bytes_per_image =
      data::find_dataset("CRSA")->image_stats().mean_pixels * 0.4;
  topo.edge = {"JetsonOrinNano", "CV2", 8, false};
  topo.cloud = {"V100", "DALI 224", 64, true};
  config.arrivals.users = 1'000'000;
  config.arrivals.images_per_user_per_day = 3.0;
  config.arrivals.duration_s = 86'400.0;
  config.arrivals.burst_multiplier = 6.0;
  config.arrivals.session_rate_img_s = 4.0;
  config.arrivals.session_mean_s = 90.0;
  config.seed = seed;
  config.deadline_s = 10.0;
  config.placement.offload_queue_threshold = 8;
  config.placement.degrade_queue_threshold = 24;
  config.placement.min_replicas = 1;
  config.placement.max_replicas = topo.cloud_replicas;
  config.admission.max_queue_depth = 64;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_s = 0.25;
  config.retry.max_backoff_s = 2.0;
  config.faults.seed = core::splitmix64(seed ^ 7);
  config.faults.transient_error_rate = 0.005;
  config.faults.latency_spike_rate = 0.01;
  config.faults.latency_spike_s = 0.5;
  config.faults.stall_rate = 0.01;
  config.faults.stall_s = 2.0;
  config.slo.latency_target_s = config.deadline_s;
  config.slo.availability_target = 0.99;
  config.uplink_energy_j_per_byte = 2e-6;
  return config;
}

/// ablation_resilience's crash + stall row with retries: ViT_Small on an
/// A100, 3000 qps, two instances, transient faults, crashes and stalls.
serving::OnlineSimConfig online_config(std::uint64_t seed) {
  serving::OnlineSimConfig config;
  config.arrival_rate_qps = 3000.0;
  config.duration_s = kOnlineDurationS;
  config.max_batch = 64;
  config.max_queue_delay_s = 5e-3;
  config.instances = 2;
  config.seed = seed;
  config.deadline_s = 0.1;
  config.slo.latency_target_s = config.deadline_s;
  config.slo.availability_target = 0.999;
  config.slo_window_s = 10.0;
  config.faults.seed = core::splitmix64(seed ^ 11);
  config.faults.transient_error_rate = 0.05;
  config.faults.crash_mtbf_s = 2.0;
  config.faults.crash_downtime_s = 0.5;
  config.faults.stall_rate = 0.01;
  config.faults.stall_s = 0.1;
  config.retry.max_attempts = 3;
  config.retry.initial_backoff_s = 1e-3;
  config.retry.max_backoff_s = 10e-3;
  return config;
}

/// ablation_multi_tenancy's gated row: 1000 bursty tenants, one of them
/// 10000x hot, on 4 workers under WFQ.
serving::TenantSimConfig tenant_config(std::uint64_t seed) {
  serving::TenantSimConfig config;
  config.policy = serving::FleetPolicy::kWfq;
  config.tenants = 1000;
  config.workers = 4;
  config.duration_s = kTenantDurationS;
  config.seed = seed;
  config.base_rate = 2.0;
  config.burst_on_s = 0.5;
  config.burst_off_s = 2.0;
  config.service_base_s = 2e-3;
  config.service_per_item_s = 1e-3;
  config.max_batch = 8;
  config.queue_capacity = 4096;
  config.deadline_s = 0.25;
  config.hot_multiplier = 10000.0;
  return config;
}

/// ablation_continuous_batching's saturation row: continuous batching at
/// 600 seq/s, priced on a 50 GMAC/s device.
serving::sequence::SequenceSimConfig sequence_config(
    std::uint64_t seed, const serving::sequence::TokenCostModel& cost) {
  serving::sequence::SequenceSimConfig config;
  config.policy = serving::sequence::BatchPolicy::kContinuous;
  config.arrival_rate = 600.0;
  config.duration_s = kSequenceDurationS;
  config.seed = seed;
  config.prompt_min = 8;
  config.prompt_max = 64;
  config.decode_min = 4;
  config.decode_max = 64;
  config.max_active = 8;
  config.queue_capacity = 256;
  config.length_multiple_of = 4;
  config.ttft_deadline_s = 0.25;
  config.cost = cost;
  return config;
}

/// What the simulators are given before they run: the continuum
/// topology priced into service tables and the token cost model.
struct Prepared {
  cont::ContinuumConfig continuum;
  serving::sequence::TokenCostModel token_cost;
};

core::Result<Prepared> prepare(std::uint64_t seed) {
  Prepared prepared;
  prepared.continuum = continuum_config(seed);
  const auto priced = cont::price_topology(prepared.continuum.topology);
  if (!priced.is_ok()) return priced.status();
  prepared.token_cost = serving::sequence::TokenCostModel::for_model(
      nn::TokenModelConfig{}, 50e9);
  return prepared;
}

std::string job_name(cont::PlacementPolicy policy) {
  return std::string("continuum.") + cont::placement_policy_name(policy);
}

struct Job {
  std::string name;
  double wall_s = 0.0;
  double requests = 0.0;  ///< simulated requests (images or sequences)
};

/// FNV-1a over the bytes of plain-old-data reports.
class Checksum {
 public:
  template <typename T>
  void add(const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

template <typename Fn>
double timed(Fn&& fn) {
  core::WallTimer timer;
  fn();
  return timer.elapsed_seconds();
}

/// One simulator, as a call that runs it once and returns its wall time
/// and simulated requests. Every run adds its checks to `result`; a run
/// given a `checksum` (the first round) folds its report into it.
using Simulator = std::function<Job(Checksum*, RunResult&)>;

std::vector<Simulator> simulators(const Prepared& prepared,
                                  std::uint64_t seed) {
  std::vector<Simulator> sims;
  for (const cont::PlacementPolicy policy : kPolicies) {
    const std::string name = job_name(policy);
    sims.push_back([&prepared, policy, name](Checksum* checksum,
                                             RunResult& result) {
      cont::ContinuumConfig config = prepared.continuum;
      config.placement.policy = policy;
      cont::ContinuumReport report;
      const double wall_s =
          timed([&] { report = cont::simulate_continuum(config); });
      result.check(name + ".conserved", report.conserved(),
                   std::to_string(report.submitted) + " submitted");
      if (checksum != nullptr) {
        checksum->add(report);
        if (policy == cont::PlacementPolicy::kEdgeFirst) {
          const cont::ContinuumReport again = cont::simulate_continuum(config);
          result.check(name + ".deterministic",
                       std::memcmp(&report, &again, sizeof(report)) == 0,
                       "repeated run compared with memcmp");
        }
      }
      return Job{name, wall_s, static_cast<double>(report.submitted)};
    });
  }

  sims.push_back([seed](Checksum* checksum, RunResult& result) {
    serving::OnlineSimReport o;
    const double wall_s = timed([&] {
      o = serving::simulate_online(platform::a100(), "ViT_Small",
                                   *data::find_dataset("Plant Village"),
                                   online_config(seed));
    });
    if (checksum != nullptr) {
      for (const std::int64_t v : {o.arrivals, o.completed, o.rejected, o.shed,
                                   o.failed, o.retries, o.deadline_misses}) {
        checksum->add(v);
      }
    }
    result.check("online.conserved",
                 o.arrivals == o.completed + o.rejected + o.shed + o.failed,
                 std::to_string(o.arrivals) + " arrivals");
    return Job{"online", wall_s, static_cast<double>(o.arrivals)};
  });

  sims.push_back([seed](Checksum* checksum, RunResult& result) {
    serving::TenantSimReport t;
    const double wall_s =
        timed([&] { t = serving::simulate_tenants(tenant_config(seed)); });
    if (checksum != nullptr) checksum->add(t);
    result.check("tenant.conserved", t.conserved(),
                 std::to_string(t.arrivals) + " arrivals");
    return Job{"tenant", wall_s, static_cast<double>(t.arrivals)};
  });

  sims.push_back([&prepared, seed](Checksum* checksum, RunResult& result) {
    serving::sequence::SequenceSimReport s;
    const double wall_s = timed([&] {
      s = serving::sequence::simulate_sequences(
          sequence_config(seed, prepared.token_cost));
    });
    if (checksum != nullptr) checksum->add(s);
    result.check("sequence.conserved", s.conserved(),
                 std::to_string(s.arrivals) + " arrivals");
    return Job{"sequence", wall_s, static_cast<double>(s.arrivals)};
  });
  return sims;
}

/// Jobs whose name starts with `prefix`: their wall times, and their
/// simulated requests per wall second.
struct JobTotals {
  std::vector<double> walls;
  double wall_s = 0.0;
  double requests = 0.0;

  double req_per_s() const { return wall_s > 0.0 ? requests / wall_s : 0.0; }
};

JobTotals totals(const std::vector<Job>& jobs, const std::string& prefix) {
  JobTotals t;
  for (const Job& job : jobs) {
    if (job.name.rfind(prefix, 0) != 0) continue;
    t.walls.push_back(job.wall_s);
    t.wall_s += job.wall_s;
    t.requests += job.requests;
  }
  return t;
}

}  // namespace

bool is_des_workload(const std::string& name) { return name == "continuum_des"; }

core::Result<double> des_setup_s(const RunOptions& options) {
  core::Result<Prepared> prepared = core::Status::internal("not prepared");
  const double seconds =
      timed([&] { prepared = prepare(core::splitmix64(options.seed)); });
  if (!prepared.is_ok()) return prepared.status();
  return seconds;
}

RunResult run_des_workload(const RunOptions& options) {
  RunResult result;
  result.not_exercised = {"serving.", "preproc.", "nn.",     "platform.",
                          "tensor.",  "obs.",     "loadgen."};
  const std::uint64_t seed = core::splitmix64(options.seed);

  const core::Result<Prepared> prepared = prepare(seed);
  if (!prepared.is_ok()) {
    result.check("price_topology", false, prepared.status().message());
    return result;
  }

  // The simulators in turn, until the next run would overrun the window
  // (judged by that simulator's first run); the first round always
  // completes. Every wall time reported is a median over runs.
  const std::vector<Simulator> sims = simulators(prepared.value(), seed);
  std::vector<Job> jobs;
  Checksum checksum;
  // Peak resident set over the first round, which runs every simulator
  // once in a fixed order: how many later runs fit depends on the host's
  // speed, and the memory metric must not.
  double first_round_rss_mb = 0.0;
  core::WallTimer elapsed;
  for (std::size_t i = 0;; ++i) {
    const std::size_t k = i % sims.size();
    const bool first_round = i < sims.size();
    if (!first_round &&
        elapsed.elapsed_seconds() + jobs[k].wall_s > options.seconds) {
      break;
    }
    jobs.push_back(sims[k](first_round ? &checksum : nullptr, result));
    if (i + 1 == sims.size()) first_round_rss_mb = peak_rss_mb();
  }

  // One check per simulator run: conservation, or the determinism repeat.
  for (const core::Json& check : result.checks.as_array()) {
    ++result.attempted;
    if (!check.get_bool("ok", false)) ++result.failed;
  }
  result.details["runs"] = core::Json(static_cast<std::int64_t>(jobs.size()));
  result.details["checksum"] = core::Json(checksum.hex());
  std::printf("continuum_des: %zu simulator runs, report checksum %s\n",
              jobs.size(), checksum.hex().c_str());

  // Each policy's day: its wall time to simulate, the median over runs.
  std::vector<double> day_s;
  for (const cont::PlacementPolicy policy : kPolicies) {
    day_s.push_back(median(totals(jobs, job_name(policy)).walls));
  }
  if (!options.trace) {
    // A user's latency here is the time to simulate the fleet's day under
    // one placement policy: the median policy's and the slowest policy's.
    result.metric("latency_p50_ms", median(day_s) * 1e3, "ms");
    result.metric("latency_tail_ms", quantile(day_s, 1.0) * 1e3, "ms");
    result.metric("throughput_per_s", totals(jobs, "").req_per_s(), "1/s");
    // One thread allocates and frees in a fixed order, so this peak
    // repeats for a seed; across seeds 1-10, where the simulators' queues
    // cross a vector doubling moved it between 132 and 153 MB.
    result.metric("memory_mb", first_round_rss_mb, "MB");
    return result;
  }
  for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
    result.metric("sim." + job_name(kPolicies[p]) + ".wall_s", day_s[p], "s");
  }
  result.metric("sim.continuum.req_per_s",
                totals(jobs, "continuum.").req_per_s(), "1/s");
  for (const std::string name : {"online", "tenant", "sequence"}) {
    const JobTotals t = totals(jobs, name);
    result.metric("sim." + name + ".wall_s", median(t.walls), "s");
    result.metric("sim." + name + ".req_per_s", t.req_per_s(), "1/s");
  }
  return result;
}

}  // namespace harvest::benchmark
