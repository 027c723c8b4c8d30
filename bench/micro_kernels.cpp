/// Real-execution microbenchmarks (google-benchmark) of the kernels the
/// library actually runs on the host: GEMM (blocked vs naive),
/// convolution, attention, the preprocessing transforms and the codecs.
/// This is the Table 1 "practical FLOPS" methodology applied to the CPU
/// backend — counters report sustained GFLOPS / pixel rates.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/rng.hpp"
#include "nn/attention.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "nn/qgemm.hpp"
#include "nn/quant.hpp"
#include "preproc/codec.hpp"
#include "preproc/pipeline.hpp"
#include "preproc/transforms.hpp"

namespace {

using namespace harvest;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.next_float() - 0.5f;
  return v;
}

void BM_GemmBlocked(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = random_vec(static_cast<std::size_t>(n * n), 1);
  const auto b = random_vec(static_cast<std::size_t>(n * n), 2);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    nn::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * static_cast<double>(n) *
          static_cast<double>(n) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNaive(benchmark::State& state) {
  const auto n = state.range(0);
  const auto a = random_vec(static_cast<std::size_t>(n * n), 1);
  const auto b = random_vec(static_cast<std::size_t>(n * n), 2);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    nn::gemm_naive(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * static_cast<double>(n) *
          static_cast<double>(n) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128);

void BM_QGemmInt8(benchmark::State& state) {
  const auto n = state.range(0);
  core::Rng rng(9);
  std::vector<std::int8_t> a(static_cast<std::size_t>(n * n));
  std::vector<std::int8_t> b(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  std::vector<std::int32_t> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    nn::qgemm_bt(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * static_cast<double>(n) *
          static_cast<double>(n) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QGemmInt8)->Arg(64)->Arg(256);

void BM_Conv2d(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  tensor::Tensor input(tensor::Shape{1, channels, 56, 56}, tensor::DType::kF32);
  tensor::Tensor weight(tensor::Shape{channels, channels * 9},
                        tensor::DType::kF32);
  core::Rng rng(3);
  for (float& v : input.f32_span()) v = rng.next_float();
  for (float& v : weight.f32_span()) v = rng.next_float();
  const nn::Conv2dParams params{channels, channels, 3, 1, 1};
  tensor::Tensor scratch;
  for (auto _ : state) {
    tensor::Tensor out = nn::conv2d(input, weight, nullptr, params, scratch);
    benchmark::DoNotOptimize(out.f32());
  }
  const double macs = 56.0 * 56.0 * static_cast<double>(channels) *
                      static_cast<double>(channels) * 9.0;
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * macs * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv2d)->Arg(16)->Arg(64);

void BM_SelfAttention(benchmark::State& state) {
  const std::int64_t tokens = state.range(0);
  constexpr std::int64_t kDim = 192;
  constexpr std::int64_t kHeads = 3;
  const auto qkv = random_vec(static_cast<std::size_t>(tokens * 3 * kDim), 4);
  std::vector<float> out(static_cast<std::size_t>(tokens * kDim));
  std::vector<float> scratch(static_cast<std::size_t>(kHeads * tokens * tokens));
  for (auto _ : state) {
    nn::self_attention(qkv.data(), out.data(), scratch.data(), tokens, kDim,
                       kHeads);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * tokens);
}
BENCHMARK(BM_SelfAttention)->Arg(64)->Arg(257);

void BM_ResizeBilinear(benchmark::State& state) {
  const preproc::Image input = preproc::synthesize_field_image(
      state.range(0), state.range(0), 5);
  for (auto _ : state) {
    preproc::Image out = preproc::resize(input, 224, 224);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["Mpix/s"] = benchmark::Counter(
      224.0 * 224.0 * static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ResizeBilinear)->Arg(256)->Arg(1024);

void BM_PerspectiveWarp(benchmark::State& state) {
  const std::int64_t edge = state.range(0);
  const preproc::Image input = preproc::synthesize_field_image(edge, edge, 6);
  const preproc::Homography h = preproc::crsa_rectification(edge, edge);
  for (auto _ : state) {
    auto out = preproc::perspective_warp(input, h, edge, edge);
    benchmark::DoNotOptimize(out.value().data());
  }
  state.counters["Mpix/s"] = benchmark::Counter(
      static_cast<double>(edge) * static_cast<double>(edge) *
          static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PerspectiveWarp)->Arg(256)->Arg(512);

/// The realtime scenario's whole per-frame preprocessing: a 3840×2160 raw
/// CRSA frame, warped and resized to 224² and normalized into a batch slot.
void BM_PreprocessCrsa4k(benchmark::State& state) {
  const preproc::EncodedImage frame = preproc::encode_image(
      preproc::synthesize_field_image(3840, 2160, 9), preproc::ImageFormat::kRaw);
  preproc::PreprocSpec spec;
  spec.output_size = 224;
  spec.perspective = true;
  tensor::Tensor batch(tensor::Shape{1, 3, 224, 224}, tensor::DType::kF32);
  for (auto _ : state) {
    const core::Status st = preproc::preprocess_into(frame, spec, batch, 0);
    if (!st.is_ok()) state.SkipWithError(st.to_string().c_str());
    benchmark::DoNotOptimize(batch.f32());
    benchmark::ClobberMemory();
  }
  state.counters["frames/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PreprocessCrsa4k)->Unit(benchmark::kMillisecond);

void BM_AgJpegDecode(benchmark::State& state) {
  const std::int64_t edge = state.range(0);
  const preproc::Image input = preproc::synthesize_field_image(edge, edge, 7);
  const preproc::EncodedImage encoded =
      preproc::encode_image(input, preproc::ImageFormat::kAgJpeg);
  for (auto _ : state) {
    auto out = preproc::decode_image(encoded);
    benchmark::DoNotOptimize(out.value().data());
  }
  state.counters["Mpix/s"] = benchmark::Counter(
      static_cast<double>(edge) * static_cast<double>(edge) *
          static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AgJpegDecode)->Arg(128)->Arg(256);

void BM_AtifDecode(benchmark::State& state) {
  const std::int64_t edge = state.range(0);
  const preproc::Image input = preproc::synthesize_field_image(edge, edge, 8);
  const preproc::EncodedImage encoded =
      preproc::encode_image(input, preproc::ImageFormat::kAtif);
  for (auto _ : state) {
    auto out = preproc::decode_image(encoded);
    benchmark::DoNotOptimize(out.value().data());
  }
  state.counters["Mpix/s"] = benchmark::Counter(
      static_cast<double>(edge) * static_cast<double>(edge) *
          static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AtifDecode)->Arg(128)->Arg(256);

}  // namespace
