/// GEMM shape sweep for the packed-panel kernel rework. Sweeps (M,N,K)
/// shapes lifted from the actual CNN/ViT layers this library executes
/// (ViT QKV/proj/MLP projections, the im2col-lowered ResNet stages, the
/// classifier head) and reports achieved GFLOP/s for:
///
///   packed — the current nn::gemm (packed panels, fused epilogue, the
///            micro-kernel dispatched for this host's ISA), at one
///            thread and at omp_get_max_threads()
///   legacy — the pre-rework blocked-but-unpacked kernel, compiled into
///            this binary verbatim as the baseline the speedup
///            acceptance is measured against (max threads)
///   naive  — triple loop, timed only on small shapes (else estimated)
///
/// The report's meta records `gemm_isa` (the dispatched micro-kernel),
/// so a rate is attributable to the kernel path that produced it.
///
/// The sweep's best sustained rate then feeds `nn::profile_layer_mfu`
/// over a real ViT graph, so the per-layer MFU table uses a peak that
/// was *measured on this machine seconds earlier* rather than a spec
/// number. Results land in bench_reports/BENCH_gemm.json for the perf
/// trajectory tooling (see docs/PERFORMANCE.md).
///
/// A second table times ViT_Tiny's fc1 (prepacked weights, bias) with
/// and without its fused GELU epilogue, at batch 1 (257 rows) and 16
/// (4112 rows), at one thread and at omp_get_max_threads(); the
/// difference is what the GELU costs the block.
///
/// `--smoke` runs a seconds-long correctness-focused subset (exit 1 on
/// any packed-vs-naive mismatch, or on a fused GELU further than 2e-6
/// relative from the double-precision formula on any kernel entry) and
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
#include "core/table.hpp"
#include "core/time.hpp"
#include "core/units.hpp"
#include "nn/gemm.hpp"
#include "nn/graph.hpp"
#include "nn/init.hpp"
#include "nn/mfu.hpp"
#include "nn/models.hpp"
#include "tensor/tensor.hpp"

namespace {

using harvest::bench::gelu_ref;
using harvest::bench::set_threads;
using harvest::nn::GemmEpilogue;

// ------------------------------------------------------------------
// Legacy baseline: the blocked-but-unpacked kernel this PR replaced.
// Kept verbatim (module-local) so the speedup numbers in the JSON
// report always compare against the same code, not against whatever
// nn::gemm currently is.

constexpr std::int64_t kLegacyMc = 64;
constexpr std::int64_t kLegacyKc = 256;
constexpr std::int64_t kLegacyNc = 512;

inline void legacy_micro_kernel(const float* a, const float* b, float* c,
                                std::int64_t kc, std::int64_t lda,
                                std::int64_t ldb, std::int64_t ldc,
                                std::int64_t mr, std::int64_t nr) {
  float acc[4][16] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    for (std::int64_t i = 0; i < mr; ++i) {
      const float aval = a[i * lda + p];
      for (std::int64_t j = 0; j < nr; ++j) {
        acc[i][j] += aval * brow[j];
      }
    }
  }
  for (std::int64_t i = 0; i < mr; ++i) {
    for (std::int64_t j = 0; j < nr; ++j) {
      c[i * ldc + j] += acc[i][j];
    }
  }
}

void legacy_gemm(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t n, std::int64_t k) {
  std::memset(c, 0, static_cast<std::size_t>(m) * static_cast<std::size_t>(n) *
                        sizeof(float));
#pragma omp parallel for schedule(static)
  for (std::int64_t i0 = 0; i0 < m; i0 += kLegacyMc) {
    const std::int64_t i_hi = std::min(m, i0 + kLegacyMc);
    for (std::int64_t p0 = 0; p0 < k; p0 += kLegacyKc) {
      const std::int64_t p_hi = std::min(k, p0 + kLegacyKc);
      const std::int64_t kc = p_hi - p0;
      for (std::int64_t j0 = 0; j0 < n; j0 += kLegacyNc) {
        const std::int64_t j_hi = std::min(n, j0 + kLegacyNc);
        for (std::int64_t i = i0; i < i_hi; i += 4) {
          const std::int64_t mr = std::min<std::int64_t>(4, i_hi - i);
          for (std::int64_t j = j0; j < j_hi; j += 16) {
            const std::int64_t nr = std::min<std::int64_t>(16, j_hi - j);
            legacy_micro_kernel(a + i * k + p0, b + p0 * n + j, c + i * n + j,
                                kc, k, n, n, mr, nr);
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------------

struct SweepShape {
  const char* layer;  ///< which real layer this shape comes from
  std::int64_t m, n, k;
};

/// Shapes taken from the evaluated models' hot GEMMs (Table 3 geometry):
/// ViT projections at their true token counts, im2col-lowered ResNet-50
/// stage convs, and the tiny classifier head.
const std::vector<SweepShape>& sweep_shapes() {
  static const std::vector<SweepShape> shapes = {
      {"vit_tiny.qkv   (t=257,d=192)", 257, 576, 192},
      {"vit_tiny.fc1   (t=257,d=192)", 257, 768, 192},
      {"vit_base.qkv   (t=197,d=768)", 197, 2304, 768},
      {"vit_base.proj  (t=197,d=768)", 197, 768, 768},
      {"vit_base.fc1   (t=197,d=768)", 197, 3072, 768},
      {"vit_base.fc2   (t=197,d=768)", 197, 768, 3072},
      {"vit_attn.score (t=196,hd=64)", 196, 196, 64},
      {"resnet50.conv1 (112²,7×7×3)", 64, 12544, 147},
      {"resnet50.l2.3x3 (28²,3×3×128)", 128, 784, 1152},
      {"resnet50.l4.1x1 (7²,1×1×512)", 2048, 49, 512},
      {"head.fc        (bs=8)", 8, 39, 2048},
  };
  return shapes;
}

/// Small odd-shaped cases for the smoke correctness pass: M%4≠0,
/// N%16≠0, K straddling the KC blocking boundary, degenerate-adjacent.
const std::vector<SweepShape>& smoke_shapes() {
  static const std::vector<SweepShape> shapes = {
      {"odd.mnk", 7, 13, 9},         {"odd.m", 5, 64, 32},
      {"odd.n", 16, 33, 48},         {"odd.k", 12, 32, 257},
      {"tall", 131, 17, 300},        {"wide", 9, 515, 70},
      {"kc-straddle", 33, 49, 513},  {"mc-straddle", 197, 31, 40},
      {"vec1", 1, 129, 77},          {"col1", 63, 1, 260},
  };
  return shapes;
}

void fill_pattern(std::vector<float>& v, unsigned seed) {
  // Deterministic, cheap, full-range-ish values; no <random> needed.
  unsigned state = seed * 2654435761u + 12345u;
  for (float& x : v) {
    state = state * 1664525u + 1013904223u;
    x = static_cast<float>(static_cast<int>(state >> 16) % 2001 - 1000) / 500.0f;
  }
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, static_cast<double>(std::fabs(a[i] - b[i])));
  }
  return worst;
}

/// Worst relative error of the fused GELU over every kernel entry, each
/// gate point the column bias of a 1×n GEMM with A = 0 (so the epilogue
/// sees exactly the point).
double gelu_worst_rel_error() {
  using namespace harvest;
  const std::vector<float> x = bench::gelu_gate_points();
  const auto n = static_cast<std::int64_t>(x.size());
  const std::vector<float> a(1, 0.0f);
  const std::vector<float> b(x.size(), 0.0f);
  std::vector<float> got(x.size());
  GemmEpilogue ep;
  ep.bias_n = x.data();
  ep.act = nn::EpilogueAct::kGelu;
  double worst = 0.0;
  for (const nn::GemmKernel& kernel : nn::gemm_kernels()) {
    nn::gemm_with_kernel(kernel, a.data(), 1, b.data(), n, false, got.data(),
                         n, 1, n, 1, false, ep);
    worst = std::max(worst, bench::gelu_rel_error(x, got));
  }
  return worst;
}

/// Time `fn` adaptively: enough repetitions to cross `min_seconds`.
/// Three independent samples, best taken — interference on a shared
/// machine only ever slows a sample down, so max GFLOP/s is the robust
/// estimate of what the kernel sustains.
template <typename Fn>
double time_gflops(double flops, double min_seconds, Fn&& fn) {
  fn();  // warmup (also first-touch of any thread-local pack buffers)
  double best = 0.0;
  for (int sample = 0; sample < 3; ++sample) {
    std::int64_t reps = 1;
    for (;;) {
      harvest::core::WallTimer timer;
      for (std::int64_t r = 0; r < reps; ++r) fn();
      const double elapsed = timer.elapsed_seconds();
      if (elapsed >= min_seconds || reps >= (std::int64_t{1} << 20)) {
        best = std::max(best,
                        flops * static_cast<double>(reps) / elapsed / 1e9);
        break;
      }
      reps *= 2;
    }
  }
  return best;
}

/// Correctness of the packed kernel family vs gemm_naive on one shape.
/// Exercises plain, accumulate, transposed-B, strided, and the fused
/// bias+activation epilogues. Returns the worst |Δ|/K across variants —
/// normalized by the reduction depth, matching the K-scaled bound the
/// unit suite uses (fp32 reassociation error grows with K).
double check_shape(const SweepShape& s) {
  using namespace harvest;
  const auto m = s.m, n = s.n, k = s.k;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> bt(static_cast<std::size_t>(n * k));
  std::vector<float> bias(static_cast<std::size_t>(n));
  fill_pattern(a, static_cast<unsigned>(m * 31 + n));
  fill_pattern(b, static_cast<unsigned>(n * 17 + k));
  fill_pattern(bias, static_cast<unsigned>(k + 7));
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t p = 0; p < k; ++p) bt[j * k + p] = b[p * n + j];
  }

  std::vector<float> want(static_cast<std::size_t>(m * n));
  std::vector<float> got(want.size());
  double worst = 0.0;

  nn::gemm_naive(a.data(), b.data(), want.data(), m, n, k);
  nn::gemm(a.data(), b.data(), got.data(), m, n, k);
  worst = std::max(worst, max_abs_diff(want, got));

  nn::gemm_bt(a.data(), bt.data(), got.data(), m, n, k);
  worst = std::max(worst, max_abs_diff(want, got));

  // accumulate=true on top of an existing C.
  fill_pattern(got, 99);
  std::vector<float> acc_want = got;
  nn::gemm_naive(a.data(), b.data(), acc_want.data(), m, n, k, true);
  nn::gemm(a.data(), b.data(), got.data(), m, n, k, true);
  worst = std::max(worst, max_abs_diff(acc_want, got));

  // Fused bias + ReLU epilogue vs explicit reference passes.
  std::vector<float> ep_want = want;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float& x = ep_want[i * n + j];
      x = std::max(0.0f, x + bias[j]);
    }
  }
  GemmEpilogue ep;
  ep.bias_n = bias.data();
  ep.act = nn::EpilogueAct::kRelu;
  nn::gemm_ex(a.data(), b.data(), got.data(), m, n, k, false, ep);
  worst = std::max(worst, max_abs_diff(ep_want, got));

  // Fused bias + GELU epilogue vs the double-precision formula.
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      ep_want[i * n + j] =
          static_cast<float>(gelu_ref(want[i * n + j] + bias[j]));
    }
  }
  ep.act = nn::EpilogueAct::kGelu;
  nn::gemm_ex(a.data(), b.data(), got.data(), m, n, k, false, ep);
  worst = std::max(worst, max_abs_diff(ep_want, got));

  // Strided views: operands embedded in wider row pitches.
  const std::int64_t lda = k + 5, ldb = n + 3, ldc = n + 9;
  std::vector<float> wa(static_cast<std::size_t>(m * lda));
  std::vector<float> wb(static_cast<std::size_t>(k * ldb));
  std::vector<float> wc(static_cast<std::size_t>(m * ldc), 0.5f);
  fill_pattern(wa, 3);
  fill_pattern(wb, 4);
  for (std::int64_t i = 0; i < m; ++i) {
    std::memcpy(wa.data() + i * lda, a.data() + i * k, sizeof(float) * k);
  }
  for (std::int64_t p = 0; p < k; ++p) {
    std::memcpy(wb.data() + p * ldb, b.data() + p * n, sizeof(float) * n);
  }
  nn::gemm_strided(wa.data(), lda, wb.data(), ldb, wc.data(), ldc, m, n, k);
  double strided_worst = 0.0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      strided_worst = std::max(
          strided_worst, static_cast<double>(std::fabs(
                             wc[i * ldc + j] - want[i * n + j])));
    }
  }
  worst = std::max(worst, strided_worst);
  return worst / static_cast<double>(k);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace harvest;
  core::CliArgs args = bench::init(
      argc, argv, "GEMM sweep",
      "Packed-panel GEMM throughput across real model layer shapes, "
      "vs the pre-rework blocked kernel and the naive triple loop");
  const bool smoke = args.has("smoke");
  const double min_seconds = smoke ? 0.01 : args.get_double("min-seconds", 0.25);

  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  std::printf("threads: %d   isa: %s   mode: %s\n\n", threads, nn::gemm_isa(),
              smoke ? "smoke" : "full");

  api::Report report("BENCH_gemm");
  report.set_meta("threads", core::Json(static_cast<std::int64_t>(threads)));
  report.set_meta("gemm_isa", core::Json(std::string(nn::gemm_isa())));
  report.set_meta("mode", core::Json(std::string(smoke ? "smoke" : "full")));

  // ---- correctness gate (always; the sweep is meaningless if wrong) --
  const double tolerance = 1e-4;
  double worst = 0.0;
  const char* worst_layer = "-";
  std::vector<SweepShape> checks = smoke_shapes();
  if (!smoke) {
    checks.insert(checks.end(), sweep_shapes().begin(), sweep_shapes().end());
  }
  for (const SweepShape& s : checks) {
    const double diff = check_shape(s);
    if (diff > worst) {
      worst = diff;
      worst_layer = s.layer;
    }
  }
  std::printf("correctness: worst |packed - naive|/K = %.3g (%s), tol %.0e — %s\n\n",
              worst, worst_layer, tolerance, worst <= tolerance ? "OK" : "FAIL");
  report.set_meta("correctness_max_abs_diff_per_k", core::Json(worst));
  if (worst > tolerance) {
    std::fprintf(stderr, "FAIL: packed GEMM diverges from naive reference\n");
    return 1;
  }
  const double gelu_tolerance = 2e-6;
  const double gelu_worst = gelu_worst_rel_error();
  std::printf("fused GELU: worst |gelu - double ref| / max(1, |ref|) = %.3g "
              "over %zu kernels, tol %.0e — %s\n\n",
              gelu_worst, nn::gemm_kernels().size(), gelu_tolerance,
              gelu_worst <= gelu_tolerance ? "OK" : "FAIL");
  report.set_meta("gelu_max_rel_error", core::Json(gelu_worst));
  if (!(gelu_worst <= gelu_tolerance)) {
    std::fprintf(stderr, "FAIL: fused GELU diverges from double reference\n");
    return 1;
  }
  if (smoke) {
    // Short throughput sanity on one representative shape so the smoke
    // run still exercises the timing plumbing.
    const SweepShape s = sweep_shapes()[3];  // vit_base.proj
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
    fill_pattern(a, 1);
    fill_pattern(b, 2);
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.n) * static_cast<double>(s.k);
    const double gflops = time_gflops(flops, min_seconds, [&] {
      nn::gemm(a.data(), b.data(), c.data(), s.m, s.n, s.k);
    });
    std::printf("smoke throughput (%s): %.2f GFLOP/s\n", s.layer, gflops);
    bench::finish(report);
    return 0;
  }

  // ---- throughput sweep ---------------------------------------------
  core::TextTable table("GEMM sweep (GFLOP/s)");
  table.set_header({"layer shape", "M", "N", "K", "packed 1t",
                    "packed " + std::to_string(threads) + "t", "legacy",
                    "naive", "packed/legacy"});
  double best_gflops = 0.0;
  double best_gflops_t1 = 0.0;
  for (const SweepShape& s : sweep_shapes()) {
    std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n));
    fill_pattern(a, 1);
    fill_pattern(b, 2);
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.n) * static_cast<double>(s.k);

    const auto run_packed = [&] {
      nn::gemm(a.data(), b.data(), c.data(), s.m, s.n, s.k);
    };
    set_threads(1);
    const double packed_t1 = time_gflops(flops, min_seconds, run_packed);
    set_threads(threads);
    const double packed = time_gflops(flops, min_seconds, run_packed);
    const double legacy = time_gflops(flops, min_seconds, [&] {
      legacy_gemm(a.data(), b.data(), c.data(), s.m, s.n, s.k);
    });
    // The naive loop is 1-2 orders slower; time it only where cheap.
    double naive = 0.0;
    if (flops <= 2e8) {
      naive = time_gflops(flops, min_seconds, [&] {
        nn::gemm_naive(a.data(), b.data(), c.data(), s.m, s.n, s.k);
      });
    }
    best_gflops = std::max(best_gflops, packed);
    best_gflops_t1 = std::max(best_gflops_t1, packed_t1);

    table.add_row({s.layer, std::to_string(s.m), std::to_string(s.n),
                   std::to_string(s.k), core::format_fixed(packed_t1, 2),
                   core::format_fixed(packed, 2), core::format_fixed(legacy, 2),
                   naive > 0.0 ? core::format_fixed(naive, 2) : "-",
                   core::format_fixed(packed / legacy, 2) + "x"});

    core::Json row = core::Json::object();
    row["layer"] = core::Json(std::string(s.layer));
    row["m"] = core::Json(s.m);
    row["n"] = core::Json(s.n);
    row["k"] = core::Json(s.k);
    row["packed_gflops_t1"] = core::Json(packed_t1);
    row["packed_gflops"] = core::Json(packed);
    row["legacy_gflops"] = core::Json(legacy);
    if (naive > 0.0) row["naive_gflops"] = core::Json(naive);
    row["speedup_vs_legacy"] = core::Json(packed / legacy);
    report.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);
  report.set_meta("best_packed_gflops", core::Json(best_gflops));
  report.set_meta("best_packed_gflops_t1", core::Json(best_gflops_t1));

  // ---- fc1 with and without its fused GELU ---------------------------
  const std::string tmax = std::to_string(threads) + "t";
  core::TextTable fc1_table("ViT_Tiny fc1, prepacked + bias (ms per call)");
  fc1_table.set_header({"batch", "M", "epilogue", "1t", tmax,
                        "GFLOP/s " + tmax});
  core::Json fc1_rows = core::Json::array();
  for (const std::int64_t batch : {1, 16}) {
    const std::int64_t m = 257 * batch, n = 768, k = 192;
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> w_t(static_cast<std::size_t>(n * k));
    std::vector<float> bias(static_cast<std::size_t>(n));
    std::vector<float> c(static_cast<std::size_t>(m * n));
    fill_pattern(a, 1);
    fill_pattern(w_t, 2);
    fill_pattern(bias, 3);
    const nn::GemmPackedB packed(w_t.data(), k, /*b_transposed=*/true, n, k);
    const double flops = 2.0 * static_cast<double>(m) *
                         static_cast<double>(n) * static_cast<double>(k);
    for (const nn::EpilogueAct act :
         {nn::EpilogueAct::kNone, nn::EpilogueAct::kGelu}) {
      GemmEpilogue ep;
      ep.bias_n = bias.data();
      ep.act = act;
      const auto run = [&] {
        nn::gemm_prepacked_ex(a.data(), k, packed, c.data(), n, m, false, ep);
      };
      set_threads(1);
      const double t1 = time_gflops(flops, min_seconds, run);
      set_threads(threads);
      const double tn = time_gflops(flops, min_seconds, run);
      const char* name = act == nn::EpilogueAct::kGelu ? "bias+gelu" : "bias";
      fc1_table.add_row({std::to_string(batch), std::to_string(m), name,
                         core::format_fixed(flops / t1 / 1e6, 3),
                         core::format_fixed(flops / tn / 1e6, 3),
                         core::format_fixed(tn, 2)});
      core::Json row = core::Json::object();
      row["batch"] = core::Json(batch);
      row["m"] = core::Json(m);
      row["n"] = core::Json(n);
      row["k"] = core::Json(k);
      row["epilogue"] = core::Json(std::string(name));
      row["ms_t1"] = core::Json(flops / t1 / 1e6);
      row["ms_tmax"] = core::Json(flops / tn / 1e6);
      fc1_rows.push_back(std::move(row));
    }
  }
  std::printf("\n");
  std::fputs(fc1_table.render().c_str(), stdout);
  report.set_meta("fc1_gelu", std::move(fc1_rows));

  // ---- per-layer MFU against the rate just measured ------------------
  std::printf("\nPer-layer MFU of a real ViT graph, peak = best sweep rate "
              "(%.2f GFLOP/s):\n\n", best_gflops);
  nn::ViTConfig config = nn::vit_tiny_config();
  nn::ModelPtr model = nn::build_vit(config);
  nn::init_weights(*model, 42);
  model->prepare();  // AOT weight packing, as the serving load path does
  const tensor::Shape& per_image = model->input_shape();  // [C, H, W]
  const tensor::Tensor input = tensor::Tensor::full(
      {4, per_image.dim(0), per_image.dim(1), per_image.dim(2)}, 0.1f);
  // Ten timed passes with a per-layer min: on a shared machine a layer
  // only needs one interference-free pass to report its true rate.
  const nn::MfuReport mfu = nn::profile_layer_mfu(*model, input, best_gflops,
                                                  /*warmup=*/1, /*iters=*/10);
  std::fputs(mfu.to_table().c_str(), stdout);
  report.set_meta("mfu", mfu.to_json());

  bench::finish(report);
  return 0;
}
