/// Fused-attention sweep for the kernel ceiling push. Benchmarks the
/// flash-style fused attention (`self_attention_fused_batched`: K/V
/// streamed in tiles through an online softmax, T×T scores never
/// materialized) against the naive two-pass path
/// (`self_attention_batched`) on the ViT geometries this library
/// actually serves, plus the single-query decode kernel against a
/// scalar reference.
///
/// Acceptance gate (full mode, exit 1 on failure):
///   - fused >= 1.5x naive wall-clock on the gated ViT shapes
///   - max |fused - naive| <= 1e-4 everywhere
///
/// Per-shape scratch footprints are reported alongside (fused is
/// O(T·head_dim) per thread; naive needs a heads·T² score buffer per
/// image). Results land in bench_reports/BENCH_attention.json for the
/// perf trajectory tooling (see docs/PERFORMANCE.md).
///
/// `--smoke` runs a seconds-long correctness-only subset (odd tokens,
/// odd head_dim, tile-boundary straddles, decode) and is wired into
/// ctest under the `perf` label.

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
#include "nn/attention.hpp"

namespace {

struct AttnShape {
  const char* name;  ///< which real model geometry this comes from
  std::int64_t batch, tokens, dim, heads;
  bool gated;  ///< participates in the >=1.5x speedup gate
};

/// The two paper ViT geometries (Table 3) are gated; the extras probe
/// tile-boundary behaviour and longer sequences without gating (their
/// arithmetic intensity differs from the shapes the gate was set on).
const std::vector<AttnShape>& sweep_shapes() {
  static const std::vector<AttnShape> shapes = {
      {"vit_tiny  (t=257,d=192,h=3)", 4, 257, 192, 3, true},
      {"vit_base  (t=197,d=768,h=12)", 4, 197, 768, 12, true},
      {"vit_small (t=197,d=384,h=6)", 4, 197, 384, 6, false},
      {"long_seq  (t=512,d=192,h=3)", 2, 512, 192, 3, false},
  };
  return shapes;
}

/// Odd/boundary shapes for the correctness pass: tokens not a multiple
/// of the kv tile (64) or the q tile (4), head_dim off the 8-lane and
/// 16-column grids, single-token and tiny cases.
const std::vector<AttnShape>& smoke_shapes() {
  static const std::vector<AttnShape> shapes = {
      {"odd.t", 2, 7, 48, 3, false},
      {"odd.hd", 2, 33, 60, 3, false},      // head_dim 20
      {"odd.hd9", 1, 19, 36, 4, false},     // head_dim 9
      {"tile.straddle", 2, 65, 64, 2, false},
      {"tile.straddle2", 1, 130, 96, 3, false},
      {"single.token", 3, 1, 64, 4, false},
      {"vit_tiny.small", 1, 257, 192, 3, false},
  };
  return shapes;
}

void fill_pattern(std::vector<float>& v, unsigned seed) {
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

/// Adaptive ms/call: repetitions double until `min_seconds` elapses.
/// Three independent samples, minimum taken — the noise-robust estimator
/// for a shared machine (slowdowns are one-sided).
template <typename Fn>
double time_ms(double min_seconds, Fn&& fn) {
  fn();  // warmup (first-touch of thread-local scratch)
  double best = 1e30;
  for (int sample = 0; sample < 3; ++sample) {
    std::int64_t reps = 1;
    for (;;) {
      harvest::core::WallTimer timer;
      for (std::int64_t r = 0; r < reps; ++r) fn();
      const double elapsed = timer.elapsed_seconds();
      if (elapsed >= min_seconds || reps >= (std::int64_t{1} << 20)) {
        best = std::min(best, elapsed / static_cast<double>(reps) * 1e3);
        break;
      }
      reps *= 2;
    }
  }
  return best;
}

/// Fused vs naive on one shape; returns max |Δ| over the whole output.
double check_shape(const AttnShape& s) {
  using namespace harvest;
  const std::int64_t elems = s.batch * s.tokens * 3 * s.dim;
  std::vector<float> qkv(static_cast<std::size_t>(elems));
  fill_pattern(qkv, static_cast<unsigned>(s.tokens * 31 + s.dim));
  std::vector<float> want(static_cast<std::size_t>(s.batch * s.tokens * s.dim));
  std::vector<float> got(want.size());
  nn::self_attention_batched(qkv.data(), want.data(), s.batch, s.tokens,
                             s.dim, s.heads);
  nn::self_attention_fused_batched(qkv.data(), got.data(), s.batch, s.tokens,
                                   s.dim, s.heads);
  return max_abs_diff(want, got);
}

/// Scalar two-pass decode reference (a std::exp softmax over a scores
/// buffer) for the decode kernel check.
void decode_reference(const float* q, const float* k_rows, const float* v_rows,
                      std::int64_t pitch, float* out, std::int64_t len,
                      std::int64_t hd, float scale) {
  std::vector<float> scores(static_cast<std::size_t>(len));
  float max_score = -1e30f;
  for (std::int64_t j = 0; j < len; ++j) {
    float s = 0.0f;
    for (std::int64_t c = 0; c < hd; ++c) s += q[c] * k_rows[j * pitch + c];
    s *= scale;
    scores[static_cast<std::size_t>(j)] = s;
    max_score = std::max(max_score, s);
  }
  float denom = 0.0f;
  for (std::int64_t j = 0; j < len; ++j) {
    const float e = std::exp(scores[static_cast<std::size_t>(j)] - max_score);
    scores[static_cast<std::size_t>(j)] = e;
    denom += e;
  }
  std::memset(out, 0, static_cast<std::size_t>(hd) * sizeof(float));
  const float inv = 1.0f / denom;
  for (std::int64_t j = 0; j < len; ++j) {
    const float p = scores[static_cast<std::size_t>(j)] * inv;
    for (std::int64_t c = 0; c < hd; ++c) out[c] += p * v_rows[j * pitch + c];
  }
}

/// Decode kernel vs the scalar reference across cache lengths (includes
/// len=1, the first decode step). Returns worst |Δ|.
double check_decode() {
  const std::int64_t hd = 32, heads = 4, d = heads * hd;
  const std::int64_t lens[] = {1, 2, 7, 63, 64, 65, 200};
  std::vector<float> cache(static_cast<std::size_t>(2 * 256 * d));
  std::vector<float> q(static_cast<std::size_t>(d));
  fill_pattern(cache, 11);
  fill_pattern(q, 13);
  std::vector<float> want(static_cast<std::size_t>(hd));
  std::vector<float> got(want.size());
  double worst = 0.0;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  for (const std::int64_t len : lens) {
    for (std::int64_t h = 0; h < heads; ++h) {
      const float* kc = cache.data() + h * hd;
      const float* vc = cache.data() + 256 * d + h * hd;
      decode_reference(q.data() + h * hd, kc, vc, d, want.data(), len, hd,
                       scale);
      harvest::nn::attention_decode_fused(q.data() + h * hd, kc, vc, d,
                                          got.data(), len, hd, scale);
      worst = std::max(worst, max_abs_diff(want, got));
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace harvest;
  core::CliArgs args = bench::init(
      argc, argv, "Attention sweep",
      "Flash-style fused attention vs the two-pass naive path on real "
      "ViT geometries, plus the single-query decode kernel");
  const bool smoke = args.has("smoke");
  const double min_seconds = smoke ? 0.01 : args.get_double("min-seconds", 0.2);
  const double tolerance = 1e-4;
  const double gate_speedup = 1.5;

  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  std::printf("threads: %d   mode: %s\n\n", threads, smoke ? "smoke" : "full");

  api::Report report("BENCH_attention");
  report.set_meta("threads", core::Json(static_cast<std::int64_t>(threads)));
  report.set_meta("mode", core::Json(std::string(smoke ? "smoke" : "full")));
  report.set_meta("tolerance", core::Json(tolerance));
  report.set_meta("gate_min_speedup", core::Json(gate_speedup));

  // ---- correctness gate (always) ------------------------------------
  double worst = 0.0;
  const char* worst_shape = "-";
  std::vector<AttnShape> checks = smoke_shapes();
  checks.insert(checks.end(), sweep_shapes().begin(), sweep_shapes().end());
  for (const AttnShape& s : checks) {
    const double diff = check_shape(s);
    if (diff > worst) {
      worst = diff;
      worst_shape = s.name;
    }
  }
  const double decode_worst = check_decode();
  std::printf("correctness: worst |fused - naive| = %.3g (%s), decode %.3g, "
              "tol %.0e — %s\n\n",
              worst, worst_shape, decode_worst, tolerance,
              std::max(worst, decode_worst) <= tolerance ? "OK" : "FAIL");
  report.set_meta("correctness_max_abs_diff", core::Json(worst));
  report.set_meta("decode_max_abs_diff", core::Json(decode_worst));
  if (worst > tolerance || decode_worst > tolerance) {
    std::fprintf(stderr, "FAIL: fused attention diverges from naive path\n");
    return 1;
  }
  if (smoke) {
    bench::finish(report);
    return 0;
  }

  // ---- throughput sweep + speedup gate ------------------------------
  core::TextTable table("Attention sweep (ms/batch)");
  table.set_header({"shape", "batch", "naive", "fused", "speedup",
                    "scratch naive", "scratch fused"});
  bool gate_pass = true;
  for (const AttnShape& s : sweep_shapes()) {
    std::vector<float> qkv(
        static_cast<std::size_t>(s.batch * s.tokens * 3 * s.dim));
    std::vector<float> out(
        static_cast<std::size_t>(s.batch * s.tokens * s.dim));
    fill_pattern(qkv, 3);

    const double naive_ms = time_ms(min_seconds, [&] {
      nn::self_attention_batched(qkv.data(), out.data(), s.batch, s.tokens,
                                 s.dim, s.heads);
    });
    const double fused_ms = time_ms(min_seconds, [&] {
      nn::self_attention_fused_batched(qkv.data(), out.data(), s.batch,
                                       s.tokens, s.dim, s.heads);
    });
    const double speedup = naive_ms / fused_ms;
    // Naive scratch: the heads·T² score buffer one image needs.
    const std::size_t naive_scratch = static_cast<std::size_t>(
        s.heads * s.tokens * s.tokens * static_cast<std::int64_t>(sizeof(float)));
    const std::size_t fused_scratch =
        nn::self_attention_fused_scratch_bytes(s.tokens, s.dim, s.heads);
    const bool row_ok = !s.gated || speedup >= gate_speedup;
    gate_pass = gate_pass && row_ok;

    table.add_row({s.name, std::to_string(s.batch),
                   core::format_fixed(naive_ms, 3),
                   core::format_fixed(fused_ms, 3),
                   core::format_fixed(speedup, 2) + "x" +
                       (s.gated ? (row_ok ? " (gate ok)" : " (GATE FAIL)")
                                : ""),
                   core::format_bytes(static_cast<double>(naive_scratch)),
                   core::format_bytes(static_cast<double>(fused_scratch))});

    core::Json row = core::Json::object();
    row["shape"] = core::Json(std::string(s.name));
    row["batch"] = core::Json(s.batch);
    row["tokens"] = core::Json(s.tokens);
    row["dim"] = core::Json(s.dim);
    row["heads"] = core::Json(s.heads);
    row["naive_ms"] = core::Json(naive_ms);
    row["fused_ms"] = core::Json(fused_ms);
    row["speedup"] = core::Json(speedup);
    row["gated"] = core::Json(s.gated);
    row["scratch_bytes"] = core::Json(static_cast<std::int64_t>(fused_scratch));
    row["naive_scratch_bytes"] =
        core::Json(static_cast<std::int64_t>(naive_scratch));
    report.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);

  // ---- decode kernel throughput (report-only) -----------------------
  {
    const std::int64_t hd = 32, heads = 4, d = heads * hd, len = 256;
    std::vector<float> cache(static_cast<std::size_t>(2 * len * d));
    std::vector<float> q(static_cast<std::size_t>(d));
    std::vector<float> out(static_cast<std::size_t>(d));
    fill_pattern(cache, 5);
    fill_pattern(q, 6);
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    const double fused_us = 1e3 * time_ms(min_seconds, [&] {
      for (std::int64_t h = 0; h < heads; ++h) {
        nn::attention_decode_fused(q.data() + h * hd, cache.data() + h * hd,
                                   cache.data() + len * d + h * hd, d,
                                   out.data() + h * hd, len, hd, scale);
      }
    });
    const double ref_us = 1e3 * time_ms(min_seconds, [&] {
      for (std::int64_t h = 0; h < heads; ++h) {
        decode_reference(q.data() + h * hd, cache.data() + h * hd,
                         cache.data() + len * d + h * hd, d,
                         out.data() + h * hd, len, hd, scale);
      }
    });
    std::printf("\ndecode (len=%lld, d=%lld, h=%lld): reference %.2f us, "
                "fused %.2f us (%.2fx)\n",
                static_cast<long long>(len), static_cast<long long>(d),
                static_cast<long long>(heads), ref_us, fused_us,
                ref_us / fused_us);
    report.set_meta("decode_reference_us", core::Json(ref_us));
    report.set_meta("decode_fused_us", core::Json(fused_us));
    report.set_meta("decode_speedup", core::Json(ref_us / fused_us));
  }

  report.set_meta("gate_pass", core::Json(gate_pass));
  if (!gate_pass) {
    std::fprintf(stderr,
                 "FAIL: fused attention below %.1fx on a gated ViT shape\n",
                 gate_speedup);
    bench::finish(report);
    return 1;
  }
  bench::finish(report);
  return 0;
}
