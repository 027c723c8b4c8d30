#pragma once

/// \file bench_util.hpp
/// Shared plumbing for the reproduction harness: every bench binary
/// prints human-readable tables to stdout and drops a machine-readable
/// JSON report into ./bench_reports/.

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <string>
#include <sys/stat.h>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/cli.hpp"
#include "core/log.hpp"
#include "harvest/report.hpp"

namespace harvest::bench {

inline std::string report_dir() {
  const std::string dir = "bench_reports";
  ::mkdir(dir.c_str(), 0755);  // best effort; write() reports failures
  return dir;
}

/// Standard bench prologue: quiet-by-default logging (overridable via
/// the HARVEST_LOG_LEVEL environment variable), banner.
inline void banner(const char* experiment, const char* description) {
  core::set_log_level(core::resolve_log_level("", core::LogLevel::kWarn));
  core::set_log_format(core::resolve_log_format());
  std::printf("\n================================================================\n");
  std::printf("HARVEST reproduction — %s\n%s\n", experiment, description);
  std::printf("================================================================\n\n");
}

/// Argument-aware prologue: parses flags, applies the log level with
/// `--log-level` > HARVEST_LOG_LEVEL > warn precedence, and prints the
/// banner. Benches taking CLI flags should use this over banner().
inline core::CliArgs init(int argc, const char* const* argv,
                          const char* experiment, const char* description) {
  core::CliArgs args(argc, argv);
  core::set_log_level(core::resolve_log_level(args.get("log-level", ""),
                                              core::LogLevel::kWarn));
  core::set_log_format(core::resolve_log_format());
  std::printf("\n================================================================\n");
  std::printf("HARVEST reproduction — %s\n%s\n", experiment, description);
  std::printf("================================================================\n\n");
  return args;
}

/// OpenMP team width for the next parallel regions (no-op without OpenMP).
inline void set_threads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

/// Exact GELU in double: x · ½ · (1 + erf(x/√2)).
inline double gelu_ref(double x) {
  return 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0)));
}

/// Inputs of the sweeps' fused-GELU gates: 10⁵ points in [-10, 10],
/// then ±0, denormals, ±FLT_MIN, ±FLT_MAX and NaN.
inline std::vector<float> gelu_gate_points() {
  constexpr int kPoints = 100000;
  std::vector<float> x;
  for (int i = 0; i < kPoints; ++i) {
    x.push_back(static_cast<float>(-10.0 + 20.0 * i / (kPoints - 1)));
  }
  for (const float v : {0.0f, FLT_TRUE_MIN, FLT_MIN, FLT_MAX}) {
    x.push_back(v);
    x.push_back(-v);
  }
  x.push_back(std::nanf(""));
  return x;
}

/// Worst |got - gelu_ref(x)| / max(1, |gelu_ref(x)|). NaN in must give
/// NaN out; a NaN from a finite x, or a number from a NaN, counts as an
/// infinite error.
inline double gelu_rel_error(const std::vector<float>& x,
                             const std::vector<float>& got) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) != std::isnan(got[i])) return INFINITY;
    if (std::isnan(x[i])) continue;
    const double want = gelu_ref(x[i]);
    worst = std::max(worst, std::fabs(static_cast<double>(got[i]) - want) /
                                std::max(1.0, std::fabs(want)));
  }
  return worst;
}

inline void finish(const api::Report& report) {
  const std::string dir = report_dir();
  if (report.write(dir)) {
    std::printf("\n[report written to %s/]\n", dir.c_str());
  } else {
    std::printf("\n[warning: could not write JSON report]\n");
  }
}

}  // namespace harvest::bench
