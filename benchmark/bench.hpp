#pragma once

/// \file bench.hpp
/// Shared types of the repository benchmark program (`harvest_bench`).
/// One process runs one workload once and reports a RunResult: whether
/// every output check passed, how many operations it attempted and how
/// many failed, and its metrics by name and unit. `benchmark/run.py`
/// builds the program, runs it and prints the metrics that
/// BENCHMARK.json names.

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/status.hpp"

namespace harvest::benchmark {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measured window of one run
  /// false: end-to-end metrics from an untraced run; true: per-layer
  /// metrics from a run that also records spans.
  bool trace = false;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  core::Json metrics = core::Json::object();  ///< name -> {value, unit}
  core::Json checks = core::Json::array();    ///< {name, ok, detail}
  core::Json details = core::Json::object();  ///< workload facts (not metrics)
  /// Metric-name prefixes of layers this workload never runs; the runner
  /// reports those per-layer metrics as 0.
  std::vector<std::string> not_exercised;

  void metric(const std::string& name, double value, const std::string& unit);
  /// Record an output check; a failing check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);
};

/// Exact quantile (linear interpolation between closest ranks); 0 when
/// `values` is empty.
double quantile(const std::vector<double>& values, double q);
double median(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Heap memory the process holds now, in MB: bytes in allocated chunks,
/// plus blocks mapped for large allocations. Unlike the resident set it
/// leaves out what the allocator keeps after a free, which with several
/// threads allocating varied from 68 to 178 MB between runs of one
/// server while the bytes in use stayed at 91 MB.
double live_heap_mb();

bool is_image_workload(const std::string& name);
bool is_des_workload(const std::string& name);

RunResult run_image_workload(const RunOptions& options);
RunResult run_des_workload(const RunOptions& options);

/// Seconds of the workload's set-up alone: server, model build, quantize,
/// prepare() and register_model for an image workload; pricing the
/// continuum topology and the token cost model for the DES. The runner
/// measures it in fresh processes, so each sample pays what a new
/// deployment pays (cold allocator, first OpenMP team).
core::Result<double> image_setup_s(const RunOptions& options);
core::Result<double> des_setup_s(const RunOptions& options);

}  // namespace harvest::benchmark
