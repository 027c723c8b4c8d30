/// harvest_bench — the repository benchmark program.
///
///   harvest_bench --workload=<name> --seed=<n> [--seconds=<s>] [--trace]
///                 [--commit=<sha>]
///   harvest_bench --workload=<name> --setup-only
///
/// Workloads: online_pv_fp32, offline_mixed_int8, realtime_crsa4k
/// (real Server -> NativeBackend requests from encoded bytes to logits)
/// and continuum_des (the four discrete-event simulators). The last line
/// of standard output is one JSON object with the run context, the
/// output checks, and every metric with its unit; the exit code is 0
/// only when every check passed. --setup-only times the workload's
/// set-up once and prints {"setup_s": <seconds>}. See benchmark/README.md.

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <malloc.h>
#include <omp.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/cli.hpp"
#include "core/stats.hpp"
#include "nn/qgemm.hpp"

namespace harvest::benchmark {

void RunResult::metric(const std::string& name, double value,
                       const std::string& unit) {
  core::Json entry = core::Json::object();
  entry["value"] = core::Json(value);
  entry["unit"] = core::Json(unit);
  metrics[name] = std::move(entry);
}

void RunResult::check(const std::string& name, bool ok,
                      const std::string& detail) {
  core::Json entry = core::Json::object();
  entry["name"] = core::Json(name);
  entry["ok"] = core::Json(ok);
  entry["detail"] = core::Json(detail);
  checks.push_back(std::move(entry));
  correct = correct && ok;
}

double quantile(const std::vector<double>& values, double q) {
  core::Percentiles p;
  p.reserve(values.size());
  for (double v : values) p.add(v);
  return p.quantile(q);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double live_heap_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1048576.0;
}

namespace {

/// The processor brand string, from CPUID.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const std::size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

/// Host, ISA and thread count: a latency profile identifies the platform
/// under it, so no number is read without the platform it came from.
core::Json run_context(const std::string& commit) {
  core::Json isa = core::Json::object();
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  isa["avx2"] = core::Json(__builtin_cpu_supports("avx2") != 0);
  isa["avx512f"] = core::Json(__builtin_cpu_supports("avx512f") != 0);
  isa["avxvnni"] = core::Json(__builtin_cpu_supports("avxvnni") != 0);
#endif
  core::Json context = core::Json::object();
  context["cpu"] = core::Json(cpu_model());
  context["isa"] = std::move(isa);
  context["qgemm_isa"] = core::Json(std::string(nn::qgemm_isa()));
  context["nproc"] =
      core::Json(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  context["omp_max_threads"] =
      core::Json(static_cast<std::int64_t>(omp_get_max_threads()));
  context["build_type"] = core::Json(std::string(HARVEST_BENCH_BUILD_TYPE));
  context["commit"] = core::Json(commit);
  return context;
}

}  // namespace
}  // namespace harvest::benchmark

int main(int argc, char** argv) {
  using namespace harvest;
  using namespace harvest::benchmark;
  const core::CliArgs args(argc, argv);
  RunOptions options;
  options.workload = args.get("workload", "");
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.seconds = args.get_double("seconds", 20.0);
  options.trace = args.get_bool("trace", false);
  if (!is_image_workload(options.workload) &&
      !is_des_workload(options.workload)) {
    std::fprintf(stderr,
                 "usage: harvest_bench --workload=<online_pv_fp32|"
                 "offline_mixed_int8|realtime_crsa4k|continuum_des> "
                 "--seed=<n> [--seconds=<s>] [--trace] [--commit=<sha>] "
                 "[--setup-only]\n");
    return 2;
  }
  if (options.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  if (args.get_bool("setup-only", false)) {
    const core::Result<double> setup_s = is_image_workload(options.workload)
                                             ? image_setup_s(options)
                                             : des_setup_s(options);
    if (!setup_s.is_ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   setup_s.status().message().c_str());
      return 1;
    }
    core::Json out = core::Json::object();
    out["setup_s"] = core::Json(setup_s.value());
    std::printf("%s\n", out.dump().c_str());
    return 0;
  }

  const core::Json context = run_context(args.get("commit", "unknown"));
  std::printf("context: %s\n", context.dump().c_str());
  std::fflush(stdout);

  RunResult result = is_image_workload(options.workload)
                         ? run_image_workload(options)
                         : run_des_workload(options);

  core::Json out = core::Json::object();
  out["workload"] = core::Json(options.workload);
  out["seed"] = core::Json(static_cast<std::int64_t>(options.seed));
  out["seconds"] = core::Json(options.seconds);
  out["trace"] = core::Json(options.trace);
  out["context"] = context;
  out["correct"] = core::Json(result.correct);
  out["attempted"] = core::Json(result.attempted);
  out["failed"] = core::Json(result.failed);
  out["checks"] = std::move(result.checks);
  out["details"] = std::move(result.details);
  core::Json skipped = core::Json::array();
  for (const std::string& prefix : result.not_exercised) {
    skipped.push_back(core::Json(prefix));
  }
  out["not_exercised"] = std::move(skipped);
  out["metrics"] = std::move(result.metrics);
  std::printf("%s\n", out.dump().c_str());
  return result.correct ? 0 : 1;
}
