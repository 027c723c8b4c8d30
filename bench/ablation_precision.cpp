/// Ablation C: numerical precision sweep (FP32 / FP16-BF16 / INT8),
/// supporting §3.1's discussion: "lower-precision formats like INT8 or
/// FP16 offer faster inference but may reduce accuracy; BF16 or FP16
/// provides a common balance". The engine model scales its calibrated
/// native-precision peak by the tensor-core rate ratio.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/table.hpp"
#include "core/time.hpp"
#include "core/units.hpp"
#include "nn/gemm.hpp"
#include "nn/models.hpp"
#include "nn/qgemm.hpp"
#include "platform/perf_model.hpp"

namespace {

/// int8/fp32 speedup per round, and the median of the rounds.
struct MeasuredSpeedup {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  int rounds = 0;
};

/// Measured host reference: the actual int8/fp32 kernel speedup on this
/// machine, from the same packed kernels the native backend runs
/// (nn::gemm_bt vs nn::qgemm_bt_dequant on the ViT-Base projection
/// shape). Anchors the analytic tensor-core ratios below to a number
/// measured seconds earlier; the full sweep lives in `qgemm_sweep`.
/// A single timing of one shape swings by ±5% from run to run, so the
/// speedup is the median of kRounds rounds, each timing both kernels
/// back to back with the order alternating between rounds; the min and
/// max are kept beside it.
MeasuredSpeedup measured_int8_speedup() {
  using namespace harvest;
  constexpr std::int64_t m = 197, n = 768, k = 768, reps = 20;
  constexpr int kRounds = 15;
  std::vector<float> af(static_cast<std::size_t>(m * k), 0.25f);
  std::vector<float> btf(static_cast<std::size_t>(n * k), -0.5f);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  std::vector<std::int8_t> a(af.size(), 31);
  std::vector<std::int8_t> bt(btf.size(), -63);
  std::vector<float> sm(static_cast<std::size_t>(m), 0.01f);
  std::vector<float> sn(static_cast<std::size_t>(n), 0.02f);
  nn::QGemmEpilogue ep;
  ep.scale_m = sm.data();
  ep.scale_n = sn.data();

  const auto time_reps = [&](auto&& fn) {
    core::WallTimer timer;
    for (std::int64_t r = 0; r < reps; ++r) fn();
    return timer.elapsed_seconds();
  };
  const auto run_fp32 = [&] {
    nn::gemm_bt(af.data(), btf.data(), c.data(), m, n, k);
  };
  const auto run_int8 = [&] {
    nn::qgemm_bt_dequant(a.data(), bt.data(), c.data(), m, n, k, ep);
  };
  run_fp32();  // warmup
  run_int8();
  std::vector<double> ratios;
  for (int round = 0; round < kRounds; ++round) {
    double fp32_s = 0.0;
    double int8_s = 0.0;
    if (round % 2 == 0) {
      fp32_s = time_reps(run_fp32);
      int8_s = time_reps(run_int8);
    } else {
      int8_s = time_reps(run_int8);
      fp32_s = time_reps(run_fp32);
    }
    ratios.push_back(int8_s > 0.0 ? fp32_s / int8_s : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  return {ratios[ratios.size() / 2], ratios.front(), ratios.back(), kRounds};
}

}  // namespace

int main() {
  using namespace harvest;
  bench::banner("Ablation C", "Engine throughput at FP32 / native half / INT8 "
                "per model and platform (BS64 where it fits)");

  api::Report report("ablation_precision");
  const MeasuredSpeedup measured = measured_int8_speedup();
  const double host_speedup = measured.median;
  std::printf("measured on this host (int8 %s kernel vs fp32 %s kernel, "
              "ViT-Base proj 197x768x768): INT8/FP32 = %.2fx (median of %d "
              "rounds, min %.2fx, max %.2fx) — reference point for the "
              "analytic columns below\n\n",
              nn::qgemm_isa(), nn::gemm_isa(), host_speedup, measured.rounds,
              measured.min, measured.max);
  report.set_meta("host_measured_int8_speedup", core::Json(host_speedup));
  report.set_meta("host_measured_int8_speedup_min", core::Json(measured.min));
  report.set_meta("host_measured_int8_speedup_max", core::Json(measured.max));
  report.set_meta("host_measured_int8_rounds",
                  core::Json(static_cast<std::int64_t>(measured.rounds)));
  report.set_meta("host_int8_isa", core::Json(std::string(nn::qgemm_isa())));
  report.set_meta("host_fp32_isa", core::Json(std::string(nn::gemm_isa())));
  const std::vector<platform::Precision> precisions = {
      platform::Precision::kFP32, platform::Precision::kFP16,
      platform::Precision::kINT8};

  for (const platform::DeviceSpec* device : platform::evaluated_platforms()) {
    std::printf("--- %s (native %s) ---\n", device->name.c_str(),
                platform::precision_name(device->native_precision));
    core::TextTable table("");
    table.set_header({"Model", "BS", "FP32 img/s", "half img/s", "INT8 img/s",
                      "INT8/FP32", "host meas."});
    for (const nn::ModelSpec& spec : nn::evaluated_models()) {
      nn::ModelPtr model = nn::build_by_name(spec.name);
      const nn::ModelProfile profile = model->profile(1);
      std::vector<double> rates;
      std::int64_t batch = 64;
      for (platform::Precision precision : precisions) {
        const platform::EngineModel engine(*device, spec, model->profile(1),
                                           precision);
        batch = std::min<std::int64_t>(64, std::max<std::int64_t>(
                                               engine.max_batch(), 1));
        const platform::EngineEstimate est = engine.estimate(batch);
        rates.push_back(est.oom ? 0.0 : est.throughput_img_per_s);
      }
      table.add_row({spec.name, std::to_string(batch),
                     core::format_fixed(rates[0], 0),
                     core::format_fixed(rates[1], 0),
                     core::format_fixed(rates[2], 0),
                     rates[0] > 0.0
                         ? core::format_fixed(rates[2] / rates[0], 2) + "x"
                         : "-",
                     core::format_fixed(host_speedup, 2) + "x"});
      core::Json row = core::Json::object();
      row["platform"] = core::Json(device->name);
      row["model"] = core::Json(spec.name);
      row["batch"] = core::Json(batch);
      row["fp32_img_s"] = core::Json(rates[0]);
      row["half_img_s"] = core::Json(rates[1]);
      row["int8_img_s"] = core::Json(rates[2]);
      report.add_row(std::move(row));
      (void)profile;
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n");
  }

  std::printf("Expected shape: INT8 > half > FP32 everywhere; the gap shrinks "
              "at small batches where the fixed per-kernel overheads (not the "
              "math rate) dominate.\n");
  bench::finish(report);
  return 0;
}
