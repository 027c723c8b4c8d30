/// INT8 GEMM shape sweep for the packed int8 kernel (nn/qgemm.hpp).
/// Sweeps the same real layer shapes as the fp32 gemm_sweep — ViT
/// QKV/proj/MLP projections at their true token counts, im2col-lowered
/// ResNet-50 stage convs, the classifier head — and reports achieved
/// GMAC/s, at one thread and at omp_get_max_threads(), for:
///
///   fp32   — nn::gemm_bt, the packed fp32 kernel (the baseline the
///            int8 speedup acceptance is measured against)
///   int8   — nn::qgemm_bt_dequant, packed int8 with the fused
///            dequantizing epilogue (B packed per call, like fp32)
///   int8-pp — nn::qgemm_prepacked_dequant, weights packed once ahead
///            of time (the production path of every quantized layer)
///
/// A second table has one row per entry of the int8 kernel table
/// (nn::qgemm_kernels()): its prepacked rate, as the geometric mean over
/// the gated shapes, at one thread and at the full team.
///
/// Two gates make the numbers trustworthy:
///   1. exact-int32 correctness: every kernel of the table must match
///      the naive reference bit-for-bit on every swept and odd-shaped
///      case, and the fused epilogue must match a scalar dequant
///      reference;
///   2. end-to-end top-1 agreement: a quantize_model'd ViT must agree
///      with its fp32 twin on a batch of inputs.
/// Either failing exits 1. In full mode a third gate requires the
/// geometric-mean int8 speedup over the Linear/attention shapes to
/// clear 2x at one thread.
///
/// The fused GELU epilogue is gated too: on every kernel entry it must
/// read within 2e-6 (relative) of the double-precision formula. A
/// third table times ViT_Tiny's fc1 (prepacked, scales and bias) with
/// and without that GELU, at batch 1 (257 rows) and 16 (4112 rows), at
/// one thread and at the full team.
///
/// Results land in bench_reports/BENCH_qgemm.json. `--smoke` runs the
/// correctness + agreement gates plus one timed shape in seconds, and
/// is wired into ctest under the `perf` label.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench/bench_util.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "core/time.hpp"
#include "core/units.hpp"
#include "nn/gemm.hpp"
#include "nn/graph.hpp"
#include "nn/init.hpp"
#include "nn/models.hpp"
#include "nn/qgemm.hpp"
#include "nn/quant.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace {

using harvest::bench::gelu_ref;
using harvest::bench::set_threads;
using harvest::nn::QGemmEpilogue;

struct SweepShape {
  const char* layer;  ///< which real layer this shape comes from
  std::int64_t m, n, k;
  bool gated;  ///< counts toward the >=2x Linear/attention speedup gate
};

/// Shapes taken from the evaluated models' hot GEMMs (Table 3
/// geometry). The gated rows are the dense/attention projections the
/// acceptance criterion names; the im2col conv rows are reported but
/// not gated (their speedup is measured end-to-end by the conv tests).
const std::vector<SweepShape>& sweep_shapes() {
  static const std::vector<SweepShape> shapes = {
      {"vit_tiny.qkv   (t=257,d=192)", 257, 576, 192, true},
      {"vit_tiny.fc1   (t=257,d=192)", 257, 768, 192, true},
      {"vit_base.qkv   (t=197,d=768)", 197, 2304, 768, true},
      {"vit_base.proj  (t=197,d=768)", 197, 768, 768, true},
      {"vit_base.fc1   (t=197,d=768)", 197, 3072, 768, true},
      {"vit_base.fc2   (t=197,d=768)", 197, 768, 3072, true},
      {"vit_attn.score (t=196,hd=64)", 196, 196, 64, true},
      {"resnet50.l2.3x3 (28²,3×3×128)", 128, 784, 1152, false},
      {"resnet50.l4.1x1 (7²,1×1×512)", 2048, 49, 512, false},
      {"head.fc        (bs=8)", 8, 39, 2048, false},
  };
  return shapes;
}

/// Odd-shaped cases for the exact-correctness pass: M%4≠0, N%16≠0, odd
/// K (pair padding), K straddling the KC blocking boundary,
/// degenerate-adjacent.
const std::vector<SweepShape>& smoke_shapes() {
  static const std::vector<SweepShape> shapes = {
      {"odd.mnk", 7, 13, 9, false},        {"odd.m", 5, 64, 32, false},
      {"odd.n", 16, 33, 48, false},        {"odd.k", 12, 32, 257, false},
      {"tall", 131, 17, 300, false},       {"wide", 9, 515, 70, false},
      {"kc-straddle", 33, 49, 513, false}, {"mc-straddle", 197, 31, 40, false},
      {"vec1", 1, 129, 77, false},         {"col1", 63, 1, 260, false},
  };
  return shapes;
}

void fill_i8(std::vector<std::int8_t>& v, unsigned seed) {
  unsigned state = seed * 2654435761u + 12345u;
  for (std::int8_t& x : v) {
    state = state * 1664525u + 1013904223u;
    // Full symmetric quantized range [-127, 127]; -128 never occurs in
    // real quantized data (quantize_symmetric clamps at ±127).
    x = static_cast<std::int8_t>(static_cast<int>(state >> 16) % 255 - 127);
  }
}

void fill_f32(std::vector<float>& v, unsigned seed) {
  unsigned state = seed * 2654435761u + 12345u;
  for (float& x : v) {
    state = state * 1664525u + 1013904223u;
    x = static_cast<float>(static_cast<int>(state >> 16) % 2001 - 1000) /
        500.0f;
  }
}

/// Exact int32 + fused-epilogue correctness for one shape. Returns
/// false (and prints) on any packed-vs-naive int32 mismatch; the fp32
/// epilogue is checked against a scalar dequant of the naive
/// accumulators with a small relative tolerance.
bool check_shape(const SweepShape& s) {
  using namespace harvest;
  const auto m = s.m, n = s.n, k = s.k;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> bt(static_cast<std::size_t>(n * k));
  fill_i8(a, static_cast<unsigned>(m * 31 + n));
  fill_i8(bt, static_cast<unsigned>(n * 17 + k));

  std::vector<std::int32_t> want(static_cast<std::size_t>(m * n));
  std::vector<std::int32_t> got(want.size());
  nn::qgemm_bt_naive(a.data(), bt.data(), want.data(), m, n, k);
  nn::qgemm_bt(a.data(), bt.data(), got.data(), m, n, k);
  if (std::memcmp(want.data(), got.data(),
                  want.size() * sizeof(std::int32_t)) != 0) {
    std::fprintf(stderr, "FAIL: packed int32 mismatch on %s\n", s.layer);
    return false;
  }
  for (const nn::QGemmKernel& kernel : nn::qgemm_kernels()) {
    nn::qgemm_bt_with_kernel(kernel, a.data(), bt.data(), got.data(), m, n, k);
    if (std::memcmp(want.data(), got.data(),
                    want.size() * sizeof(std::int32_t)) != 0) {
      std::fprintf(stderr, "FAIL: %s kernel int32 mismatch on %s\n",
                   kernel.name, s.layer);
      return false;
    }
  }

  // Fused dequant epilogue (per-row × per-col scale, bias, ReLU) vs a
  // scalar dequant of the exact accumulators.
  std::vector<float> scale_m(static_cast<std::size_t>(m));
  std::vector<float> scale_n(static_cast<std::size_t>(n));
  std::vector<float> bias_n(static_cast<std::size_t>(n));
  fill_f32(scale_m, 3);
  fill_f32(scale_n, 5);
  fill_f32(bias_n, 7);
  for (float& x : scale_m) x = std::fabs(x) / 64.0f + 1e-4f;
  for (float& x : scale_n) x = std::fabs(x) / 64.0f + 1e-4f;

  QGemmEpilogue ep;
  ep.scale_m = scale_m.data();
  ep.scale_n = scale_n.data();
  ep.bias_n = bias_n.data();
  ep.act = QGemmEpilogue::Act::kRelu;
  std::vector<float> fgot(want.size());
  nn::qgemm_bt_dequant(a.data(), bt.data(), fgot.data(), m, n, k, ep);

  nn::QGemmPackedB packed(bt.data(), n, k);
  std::vector<float> pgot(want.size());
  nn::qgemm_prepacked_dequant(a.data(), packed, pgot.data(), m, ep);

  // The same with the fused GELU, against the double-precision formula.
  ep.act = QGemmEpilogue::Act::kGelu;
  std::vector<float> ggot(want.size());
  nn::qgemm_prepacked_dequant(a.data(), packed, ggot.data(), m, ep);

  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float v =
          static_cast<float>(want[i * n + j]) * scale_m[i] * scale_n[j] +
          bias_n[j];
      const float ref = std::max(0.0f, v);
      const float tol = 1e-5f * (std::fabs(ref) + 1.0f);
      if (std::fabs(fgot[i * n + j] - ref) > tol ||
          std::fabs(pgot[i * n + j] - ref) > tol) {
        std::fprintf(stderr, "FAIL: dequant epilogue mismatch on %s\n",
                     s.layer);
        return false;
      }
      const double gref = gelu_ref(v);
      if (std::fabs(static_cast<double>(ggot[i * n + j]) - gref) >
          1e-5 * (std::fabs(gref) + 1.0)) {
        std::fprintf(stderr, "FAIL: dequant GELU epilogue mismatch on %s\n",
                     s.layer);
        return false;
      }
    }
  }
  return true;
}

/// Worst relative error of the fused GELU over every kernel entry, each
/// gate point the column bias of a 1×n product with A = 0 (so the
/// retire sees exactly the point).
double gelu_worst_rel_error() {
  using namespace harvest;
  constexpr std::int64_t kK = 4;
  const std::vector<float> x = bench::gelu_gate_points();
  const auto n = static_cast<std::int64_t>(x.size());
  const std::vector<std::int8_t> a(kK, 0);
  const std::vector<std::int8_t> bt(x.size() * kK, 0);
  std::vector<float> got(x.size());
  QGemmEpilogue ep;
  ep.bias_n = x.data();
  ep.act = QGemmEpilogue::Act::kGelu;
  double worst = 0.0;
  for (const nn::QGemmKernel& kernel : nn::qgemm_kernels()) {
    const nn::QGemmPackedB packed(kernel, bt.data(), n, kK);
    nn::qgemm_prepacked_dequant(a.data(), packed, got.data(), 1, ep);
    worst = std::max(worst, bench::gelu_rel_error(x, got));
  }
  return worst;
}

/// Time `fn` adaptively: enough repetitions to cross `min_seconds`.
/// Returns GMAC/s for the given MAC count.
template <typename Fn>
double time_gmacs(double macs, double min_seconds, Fn&& fn) {
  fn();  // warmup (also first-touch of any thread-local pack buffers)
  std::int64_t reps = 1;
  for (;;) {
    harvest::core::WallTimer timer;
    for (std::int64_t r = 0; r < reps; ++r) fn();
    const double elapsed = timer.elapsed_seconds();
    if (elapsed >= min_seconds || reps >= (std::int64_t{1} << 20)) {
      return macs * static_cast<double>(reps) / elapsed / 1e9;
    }
    reps *= 2;
  }
}

struct AgreementResult {
  double top1_agreement = 0.0;
  double relative_l2 = 0.0;
  std::int64_t images = 0;
};

/// End-to-end gate: run the same batch through a fp32 ViT and its
/// quantize_model'd twin (identical weights via the same init seed) and
/// compare predictions — the whole-model version of what
/// ablation_quant_accuracy measures for a single head.
AgreementResult e2e_agreement() {
  using namespace harvest;
  constexpr std::int64_t kBatch = 16;

  nn::ViTConfig config = nn::vit_tiny_config();
  nn::ModelPtr fp32 = nn::build_vit(config);
  nn::init_weights(*fp32, 42);
  nn::ModelPtr int8 = nn::build_vit(config);
  nn::init_weights(*int8, 42);
  nn::quantize_model(*int8);

  const tensor::Shape& per_image = fp32->input_shape();
  tensor::Tensor input(tensor::Shape{kBatch, per_image.dim(0),
                                     per_image.dim(1), per_image.dim(2)},
                       tensor::DType::kF32);
  core::Rng rng(7);
  for (float& v : input.f32_span()) v = rng.next_float() * 2.0f - 1.0f;

  const tensor::Tensor fp32_logits = fp32->forward(input);
  const tensor::Tensor int8_logits = int8->forward(input);
  const std::int64_t classes = fp32->num_classes();

  AgreementResult result;
  result.images = kBatch;
  double err_num = 0.0;
  double err_den = 0.0;
  std::int64_t agree = 0;
  for (std::int64_t b = 0; b < kBatch; ++b) {
    std::span<const float> frow{fp32_logits.f32() + b * classes,
                                static_cast<std::size_t>(classes)};
    std::span<const float> qrow{int8_logits.f32() + b * classes,
                                static_cast<std::size_t>(classes)};
    if (tensor::argmax(frow) == tensor::argmax(qrow)) ++agree;
    for (std::int64_t c = 0; c < classes; ++c) {
      const double d = static_cast<double>(frow[static_cast<std::size_t>(c)] -
                                           qrow[static_cast<std::size_t>(c)]);
      err_num += d * d;
      err_den += static_cast<double>(frow[static_cast<std::size_t>(c)]) *
                 static_cast<double>(frow[static_cast<std::size_t>(c)]);
    }
  }
  result.top1_agreement = static_cast<double>(agree) / kBatch;
  result.relative_l2 = err_den > 0.0 ? std::sqrt(err_num / err_den) : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace harvest;
  core::CliArgs args = bench::init(
      argc, argv, "INT8 GEMM sweep",
      "Packed int8 kernel throughput across real model layer shapes vs the "
      "packed fp32 kernel, gated on exact-int32 correctness and end-to-end "
      "top-1 agreement");
  const bool smoke = args.has("smoke");
  const double min_seconds = smoke ? 0.01 : args.get_double("min-seconds", 0.25);

  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  std::printf("threads: %d   isa: %s   mode: %s\n\n", threads, nn::qgemm_isa(),
              smoke ? "smoke" : "full");

  api::Report report("BENCH_qgemm");
  report.set_meta("threads", core::Json(static_cast<std::int64_t>(threads)));
  report.set_meta("isa", core::Json(std::string(nn::qgemm_isa())));
  report.set_meta("mode", core::Json(std::string(smoke ? "smoke" : "full")));

  // ---- gate 1: exact-int32 correctness ------------------------------
  std::vector<SweepShape> checks = smoke_shapes();
  if (!smoke) {
    checks.insert(checks.end(), sweep_shapes().begin(), sweep_shapes().end());
  }
  bool exact = true;
  for (const SweepShape& s : checks) exact = check_shape(s) && exact;
  std::printf("correctness: packed vs naive int32 on %zu shapes, %zu "
              "kernels — %s\n",
              checks.size(), nn::qgemm_kernels().size(),
              exact ? "exact" : "MISMATCH");
  report.set_meta("int32_exact", core::Json(exact));
  if (!exact) return 1;
  const double gelu_tolerance = 2e-6;
  const double gelu_worst = gelu_worst_rel_error();
  std::printf("fused GELU: worst |gelu - double ref| / max(1, |ref|) = %.3g "
              "over %zu kernels, tol %.0e — %s\n",
              gelu_worst, nn::qgemm_kernels().size(), gelu_tolerance,
              gelu_worst <= gelu_tolerance ? "OK" : "FAIL");
  report.set_meta("gelu_max_rel_error", core::Json(gelu_worst));
  if (!(gelu_worst <= gelu_tolerance)) {
    std::fprintf(stderr, "FAIL: fused GELU diverges from double reference\n");
    return 1;
  }

  // ---- gate 2: end-to-end top-1 agreement ---------------------------
  const AgreementResult agreement = e2e_agreement();
  std::printf("e2e: quantized ViT vs fp32 twin — top-1 agreement %.0f%% "
              "(%lld images), logits rel. L2 %.3f%%\n\n",
              agreement.top1_agreement * 100.0,
              static_cast<long long>(agreement.images),
              agreement.relative_l2 * 100.0);
  report.set_meta("e2e_top1_agreement", core::Json(agreement.top1_agreement));
  report.set_meta("e2e_logits_relative_l2", core::Json(agreement.relative_l2));
  if (agreement.top1_agreement < 0.75 || agreement.relative_l2 > 0.05) {
    std::fprintf(stderr, "FAIL: quantized model diverges from fp32 twin\n");
    return 1;
  }

  if (smoke) {
    // One timed shape so the smoke run still exercises the timing
    // plumbing and records a speedup sample — including the prepacked
    // path, loosely gated (the 10 ms windows are noisy) so a packing-
    // layout regression of the prepacked<packed class still trips it.
    const SweepShape s = sweep_shapes()[3];  // vit_base.proj
    std::vector<std::int8_t> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<std::int8_t> bt(static_cast<std::size_t>(s.n * s.k));
    std::vector<float> af(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> btf(static_cast<std::size_t>(s.n * s.k));
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
    fill_i8(a, 1);
    fill_i8(bt, 2);
    fill_f32(af, 1);
    fill_f32(btf, 2);
    std::vector<float> sm(static_cast<std::size_t>(s.m), 0.01f);
    std::vector<float> sn(static_cast<std::size_t>(s.n), 0.02f);
    QGemmEpilogue ep;
    ep.scale_m = sm.data();
    ep.scale_n = sn.data();
    const double macs = static_cast<double>(s.m) * static_cast<double>(s.n) *
                        static_cast<double>(s.k);
    const double fp32_rate = time_gmacs(macs, min_seconds, [&] {
      nn::gemm_bt(af.data(), btf.data(), c.data(), s.m, s.n, s.k);
    });
    const double int8_rate = time_gmacs(macs, min_seconds, [&] {
      nn::qgemm_bt_dequant(a.data(), bt.data(), c.data(), s.m, s.n, s.k, ep);
    });
    nn::QGemmPackedB packed(bt.data(), s.n, s.k);
    const double prepacked_rate = time_gmacs(macs, min_seconds, [&] {
      nn::qgemm_prepacked_dequant(a.data(), packed, c.data(), s.m, ep);
    });
    std::printf("smoke throughput (%s): fp32 %.2f GMAC/s, int8 %.2f GMAC/s "
                "(%.2fx), int8-pp %.2f GMAC/s\n",
                s.layer, fp32_rate, int8_rate, int8_rate / fp32_rate,
                prepacked_rate);
    bench::finish(report);
    if (prepacked_rate < 0.5 * int8_rate) {
      std::fprintf(stderr, "FAIL: prepacked int8 path below half the "
                           "pack-on-the-fly rate\n");
      return 1;
    }
    return 0;
  }

  // ---- throughput sweep ---------------------------------------------
  const std::string tmax = std::to_string(threads) + "t";
  core::TextTable table("INT8 GEMM sweep (GMAC/s)");
  table.set_header({"layer shape", "M", "N", "K", "fp32 1t", "int8 1t",
                    "int8-pp 1t", "int8/fp32 1t", "fp32 " + tmax,
                    "int8-pp " + tmax, "int8-pp/fp32 " + tmax, "gated"});
  double log_speedup_sum = 0.0;
  double log_speedup_sum_tmax = 0.0;
  std::int64_t gated_count = 0;
  // Per-shape regression gate: prepacked weights skip the per-call B
  // pack, so the prepacked rate must keep up with pack-on-the-fly on
  // every shape (0.9 headroom absorbs timing noise). This is the gate
  // the vit_tiny.qkv prepacked regression (misaligned panel storage)
  // would have tripped.
  std::vector<std::string> prepacked_regressions;
  // Per-kernel log-rate sums over the gated shapes, at 1 thread and at
  // the full team.
  const std::size_t num_kernels = nn::qgemm_kernels().size();
  std::vector<double> kernel_log_t1(num_kernels, 0.0);
  std::vector<double> kernel_log_tmax(num_kernels, 0.0);
  for (const SweepShape& s : sweep_shapes()) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<std::int8_t> bt(static_cast<std::size_t>(s.n * s.k));
    std::vector<float> af(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> btf(static_cast<std::size_t>(s.n * s.k));
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
    fill_i8(a, 1);
    fill_i8(bt, 2);
    fill_f32(af, 1);
    fill_f32(btf, 2);
    std::vector<float> sm(static_cast<std::size_t>(s.m), 0.01f);
    std::vector<float> sn(static_cast<std::size_t>(s.n), 0.02f);
    std::vector<float> bias(static_cast<std::size_t>(s.n), 0.1f);
    QGemmEpilogue ep;
    ep.scale_m = sm.data();
    ep.scale_n = sn.data();
    ep.bias_n = bias.data();
    const double macs = static_cast<double>(s.m) * static_cast<double>(s.n) *
                        static_cast<double>(s.k);

    // Same thread count, same A·Bᵀ orientation, B packed per call on
    // both sides — the only variable is the operand type.
    const auto run_fp32 = [&] {
      nn::gemm_bt(af.data(), btf.data(), c.data(), s.m, s.n, s.k);
    };
    nn::QGemmPackedB packed(bt.data(), s.n, s.k);
    const auto run_prepacked = [&] {
      nn::qgemm_prepacked_dequant(a.data(), packed, c.data(), s.m, ep);
    };
    set_threads(1);
    const double fp32_rate = time_gmacs(macs, min_seconds, run_fp32);
    const double int8_rate = time_gmacs(macs, min_seconds, [&] {
      nn::qgemm_bt_dequant(a.data(), bt.data(), c.data(), s.m, s.n, s.k, ep);
    });
    const double prepacked_rate = time_gmacs(macs, min_seconds, run_prepacked);
    set_threads(threads);
    const double fp32_rate_tmax = time_gmacs(macs, min_seconds, run_fp32);
    const double prepacked_rate_tmax =
        time_gmacs(macs, min_seconds, run_prepacked);
    const double speedup = int8_rate / fp32_rate;
    const double speedup_tmax = prepacked_rate_tmax / fp32_rate_tmax;
    if (s.gated) {
      log_speedup_sum += std::log(speedup);
      log_speedup_sum_tmax += std::log(speedup_tmax);
      ++gated_count;
      for (std::size_t e = 0; e < num_kernels; ++e) {
        const nn::QGemmPackedB kernel_packed(nn::qgemm_kernels()[e],
                                             bt.data(), s.n, s.k);
        const auto run_kernel = [&] {
          nn::qgemm_prepacked_dequant(a.data(), kernel_packed, c.data(), s.m,
                                      ep);
        };
        set_threads(1);
        kernel_log_t1[e] += std::log(time_gmacs(macs, min_seconds, run_kernel));
        set_threads(threads);
        kernel_log_tmax[e] +=
            std::log(time_gmacs(macs, min_seconds, run_kernel));
      }
    }
    if (prepacked_rate < 0.9 * int8_rate) {
      prepacked_regressions.push_back(s.layer);
    }

    table.add_row({s.layer, std::to_string(s.m), std::to_string(s.n),
                   std::to_string(s.k), core::format_fixed(fp32_rate, 2),
                   core::format_fixed(int8_rate, 2),
                   core::format_fixed(prepacked_rate, 2),
                   core::format_fixed(speedup, 2) + "x",
                   core::format_fixed(fp32_rate_tmax, 2),
                   core::format_fixed(prepacked_rate_tmax, 2),
                   core::format_fixed(speedup_tmax, 2) + "x",
                   s.gated ? "yes" : "-"});

    core::Json row = core::Json::object();
    row["layer"] = core::Json(std::string(s.layer));
    row["m"] = core::Json(s.m);
    row["n"] = core::Json(s.n);
    row["k"] = core::Json(s.k);
    row["gated"] = core::Json(s.gated);
    row["fp32_gmacs"] = core::Json(fp32_rate);
    row["int8_gmacs"] = core::Json(int8_rate);
    row["int8_prepacked_gmacs"] = core::Json(prepacked_rate);
    row["int8_speedup_vs_fp32"] = core::Json(speedup);
    row["fp32_gmacs_tmax"] = core::Json(fp32_rate_tmax);
    row["int8_prepacked_gmacs_tmax"] = core::Json(prepacked_rate_tmax);
    row["int8_prepacked_speedup_vs_fp32_tmax"] = core::Json(speedup_tmax);
    report.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);

  const auto geomean_of = [&](double log_sum) {
    return gated_count > 0
               ? std::exp(log_sum / static_cast<double>(gated_count))
               : 0.0;
  };
  core::TextTable kernel_table(
      "INT8 kernel table (int8-pp GMAC/s, geomean over gated shapes)");
  kernel_table.set_header({"kernel", "MR x NR", "1t", tmax});
  core::Json kernels = core::Json::array();
  for (std::size_t e = 0; e < num_kernels; ++e) {
    const nn::QGemmKernel& kernel = nn::qgemm_kernels()[e];
    const double t1 = geomean_of(kernel_log_t1[e]);
    const double tn = geomean_of(kernel_log_tmax[e]);
    kernel_table.add_row({kernel.name,
                          std::to_string(kernel.mr) + " x " +
                              std::to_string(kernel.nr),
                          core::format_fixed(t1, 2),
                          core::format_fixed(tn, 2)});
    core::Json entry = core::Json::object();
    entry["kernel"] = core::Json(std::string(kernel.name));
    entry["mr"] = core::Json(kernel.mr);
    entry["nr"] = core::Json(kernel.nr);
    entry["int8_prepacked_gmacs_t1"] = core::Json(t1);
    entry["int8_prepacked_gmacs_tmax"] = core::Json(tn);
    kernels.push_back(std::move(entry));
  }
  std::printf("\n");
  std::fputs(kernel_table.render().c_str(), stdout);
  report.set_meta("kernels", std::move(kernels));

  // ---- fc1 with and without its fused GELU ---------------------------
  core::TextTable fc1_table(
      "ViT_Tiny fc1 int8, prepacked + scales + bias (ms per call)");
  fc1_table.set_header({"batch", "M", "epilogue", "1t", tmax});
  core::Json fc1_rows = core::Json::array();
  for (const std::int64_t batch : {1, 16}) {
    const std::int64_t m = 257 * batch, n = 768, k = 192;
    std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> bt(static_cast<std::size_t>(n * k));
    std::vector<float> c(static_cast<std::size_t>(m * n));
    fill_i8(a, 1);
    fill_i8(bt, 2);
    std::vector<float> sm(static_cast<std::size_t>(m), 0.01f);
    std::vector<float> sn(static_cast<std::size_t>(n), 0.02f);
    std::vector<float> bias(static_cast<std::size_t>(n));
    fill_f32(bias, 3);
    const nn::QGemmPackedB packed(bt.data(), n, k);
    const double macs = static_cast<double>(m) * static_cast<double>(n) *
                        static_cast<double>(k);
    for (const QGemmEpilogue::Act act :
         {QGemmEpilogue::Act::kNone, QGemmEpilogue::Act::kGelu}) {
      QGemmEpilogue ep;
      ep.scale_m = sm.data();
      ep.scale_n = sn.data();
      ep.bias_n = bias.data();
      ep.act = act;
      const auto run = [&] {
        nn::qgemm_prepacked_dequant(a.data(), packed, c.data(), m, ep);
      };
      set_threads(1);
      const double t1 = time_gmacs(macs, min_seconds, run);
      set_threads(threads);
      const double tn = time_gmacs(macs, min_seconds, run);
      const char* name =
          act == QGemmEpilogue::Act::kGelu ? "bias+gelu" : "bias";
      fc1_table.add_row({std::to_string(batch), std::to_string(m), name,
                         core::format_fixed(macs / t1 / 1e6, 3),
                         core::format_fixed(macs / tn / 1e6, 3)});
      core::Json row = core::Json::object();
      row["batch"] = core::Json(batch);
      row["m"] = core::Json(m);
      row["n"] = core::Json(n);
      row["k"] = core::Json(k);
      row["epilogue"] = core::Json(std::string(name));
      row["ms_t1"] = core::Json(macs / t1 / 1e6);
      row["ms_tmax"] = core::Json(macs / tn / 1e6);
      fc1_rows.push_back(std::move(row));
    }
  }
  std::printf("\n");
  std::fputs(fc1_table.render().c_str(), stdout);
  report.set_meta("fc1_gelu", std::move(fc1_rows));

  const double geomean = geomean_of(log_speedup_sum);
  const double geomean_tmax = geomean_of(log_speedup_sum_tmax);
  std::printf("\ngeomean int8/fp32 speedup over gated Linear/attention "
              "shapes: %.2fx at 1 thread (gate: >=2x), int8-pp/fp32 %.2fx "
              "at %d threads\n",
              geomean, geomean_tmax, threads);
  report.set_meta("gated_geomean_speedup", core::Json(geomean));
  report.set_meta("gated_geomean_speedup_tmax", core::Json(geomean_tmax));
  report.set_meta("speedup_gate_ok", core::Json(geomean >= 2.0));
  report.set_meta("prepacked_gate_ok",
                  core::Json(prepacked_regressions.empty()));
  bench::finish(report);
  if (geomean < 2.0) {
    std::fprintf(stderr, "FAIL: int8 speedup below the 2x acceptance gate\n");
    return 1;
  }
  if (!prepacked_regressions.empty()) {
    for (const std::string& layer : prepacked_regressions) {
      std::fprintf(stderr,
                   "FAIL: prepacked int8 slower than pack-on-the-fly on %s\n",
                   layer.c_str());
    }
    return 1;
  }
  return 0;
}
