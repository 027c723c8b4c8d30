#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "core/thread_pool.hpp"
#include "platform/device.hpp"
#include "preproc/cost_model.hpp"
#include "preproc/pipeline.hpp"
#include "tensor/ops.hpp"

namespace harvest::preproc {
namespace {

std::vector<EncodedImage> make_batch(std::size_t n, std::int64_t size,
                                     ImageFormat format) {
  std::vector<EncodedImage> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Image img = synthesize_field_image(size, size, 100 + i);
    batch.push_back(encode_image(img, format));
  }
  return batch;
}

// -------------------------------------------------------------- executors

TEST(CpuPipeline, ProducesModelReadyBatch) {
  CpuPipeline pipeline;
  PreprocSpec spec;
  spec.output_size = 32;
  const auto batch = make_batch(3, 48, ImageFormat::kAgJpeg);
  auto result = pipeline.run(batch, spec);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().shape(), tensor::Shape({3, 3, 32, 32}));
  for (float v : result.value().f32_span()) EXPECT_TRUE(std::isfinite(v));
}

TEST(CpuPipeline, EmptyBatchRejected) {
  CpuPipeline pipeline;
  PreprocSpec spec;
  EXPECT_FALSE(pipeline.run({}, spec).is_ok());
}

TEST(CpuPipeline, CorruptImageFailsCleanly) {
  CpuPipeline pipeline;
  PreprocSpec spec;
  auto batch = make_batch(2, 32, ImageFormat::kAgJpeg);
  batch[1].bytes.resize(4);
  auto result = pipeline.run(batch, spec);
  EXPECT_FALSE(result.is_ok());
}

TEST(DaliPipeline, MatchesCpuPipelineBitwise) {
  // Same transforms, different execution strategy — identical tensors.
  core::ThreadPool pool(2);
  DaliPipeline dali(pool);
  CpuPipeline cpu;
  PreprocSpec spec;
  spec.output_size = 24;
  const auto batch = make_batch(5, 40, ImageFormat::kAtif);
  auto a = dali.run(batch, spec);
  auto b = cpu.run(batch, spec);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(tensor::max_abs_diff(a.value(), b.value()), 0.0f);
}

TEST(DaliPipeline, PropagatesWorstSlotFailure) {
  core::ThreadPool pool(2);
  DaliPipeline dali(pool);
  PreprocSpec spec;
  auto batch = make_batch(4, 24, ImageFormat::kPpm);
  batch[2].bytes.clear();
  EXPECT_FALSE(dali.run(batch, spec).is_ok());
}

TEST(Cv2Pipeline, AlwaysAppliesPerspective) {
  Cv2Pipeline cv2;
  CpuPipeline plain;
  PreprocSpec spec;
  spec.output_size = 32;
  spec.perspective = false;  // cv2 must override this
  const auto batch = make_batch(1, 64, ImageFormat::kRaw);
  auto warped = cv2.run(batch, spec);
  auto unwarped = plain.run(batch, spec);
  ASSERT_TRUE(warped.is_ok());
  ASSERT_TRUE(unwarped.is_ok());
  EXPECT_GT(tensor::max_abs_diff(warped.value(), unwarped.value()), 0.01f);
}

TEST(Pipeline, PerspectiveSpecAppliedByCpuPath) {
  CpuPipeline cpu;
  PreprocSpec plain;
  plain.output_size = 32;
  PreprocSpec warped = plain;
  warped.perspective = true;
  const auto batch = make_batch(1, 64, ImageFormat::kRaw);
  auto a = cpu.run(batch, plain);
  auto b = cpu.run(batch, warped);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_GT(tensor::max_abs_diff(a.value(), b.value()), 0.01f);
}

TEST(Pipeline, MethodNamesAndOutputSizes) {
  EXPECT_STREQ(preproc_method_name(PreprocMethod::kDali224), "DALI 224");
  EXPECT_STREQ(preproc_method_name(PreprocMethod::kPyTorch), "PyTorch");
  EXPECT_EQ(preproc_output_size(PreprocMethod::kDali96, 224), 96);
  EXPECT_EQ(preproc_output_size(PreprocMethod::kDali32, 224), 32);
  EXPECT_EQ(preproc_output_size(PreprocMethod::kPyTorch, 224), 224);
  EXPECT_EQ(preproc_output_size(PreprocMethod::kCv2, 32), 32);
}

// ------------------------------------------------- fused preprocessing

tensor::Tensor slot_tensor(std::int64_t size) {
  return tensor::Tensor(tensor::Shape{1, 3, size, size}, tensor::DType::kF32);
}

/// The chain the fused pass replaces: decode → warp → resize (when the
/// size differs) → normalize.
tensor::Tensor reference_chain(const EncodedImage& encoded,
                               const Homography* warp, std::int64_t size) {
  Image image = decode_image(encoded).value();
  if (warp != nullptr) {
    image = perspective_warp(image, *warp, image.width(), image.height())
                .value();
  }
  if (image.width() != size || image.height() != size) {
    image = resize(image, size, size);
  }
  tensor::Tensor out = slot_tensor(size);
  normalize_into(image, Normalization{}, out, 0);
  return out;
}

bool same_bytes(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.f32(), b.f32(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// preprocess_into, with and without the CRSA warp, against the chain.
void expect_preprocess_matches_chain(const EncodedImage& encoded,
                                     std::int64_t size) {
  const Homography crsa = crsa_rectification(encoded.width, encoded.height);
  for (bool perspective : {false, true}) {
    SCOPED_TRACE(std::string(format_name(encoded.format)) + " " +
                 std::to_string(encoded.width) + "x" +
                 std::to_string(encoded.height) + " -> " +
                 std::to_string(size) + (perspective ? " warped" : ""));
    PreprocSpec spec;
    spec.output_size = size;
    spec.perspective = perspective;
    tensor::Tensor fused = slot_tensor(size);
    const core::Status st = preprocess_into(encoded, spec, fused, 0);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_TRUE(same_bytes(
        fused, reference_chain(encoded, perspective ? &crsa : nullptr, size)));
  }
}

/// One CRSA camera frame at the feed's 3840×2160, built once.
const EncodedImage& crsa_frame() {
  static const EncodedImage frame = encode_image(
      synthesize_field_image(3840, 2160, 21), ImageFormat::kRaw);
  return frame;
}

std::uint64_t fnv1a64(const tensor::Tensor& t) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(t.f32());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < static_cast<std::size_t>(t.numel()) * sizeof(float);
       ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

TEST(PreprocessInto, MatchesWarpResizeNormalizeChain) {
  // The CRSA feed: a warped 4K raw frame to the model's 224².
  expect_preprocess_matches_chain(crsa_frame(), 224);
  // Odd geometries, downsampled and upsampled, at every output size the
  // executors use; 224×224 at 224 takes the no-resize branch.
  for (const auto& [w, h] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {97, 61}, {1, 1}, {2, 3}, {224, 224}}) {
    const EncodedImage raw =
        encode_image(synthesize_field_image(w, h, 40), ImageFormat::kRaw);
    for (std::int64_t size : {16, 32, 96, 224}) {
      expect_preprocess_matches_chain(raw, size);
    }
  }
  // Every codec: the non-raw ones decode before the fused pass.
  const Image image = synthesize_field_image(97, 61, 41);
  for (ImageFormat format : {ImageFormat::kRaw, ImageFormat::kPpm,
                             ImageFormat::kBmp, ImageFormat::kAtif,
                             ImageFormat::kAgJpeg}) {
    const EncodedImage encoded = encode_image(image, format);
    for (std::int64_t size : {32, 224}) {
      expect_preprocess_matches_chain(encoded, size);
    }
  }
  // Homographies other than the CRSA one, through the fused pass itself:
  // the identity, and a shift that leaves a black border.
  const Homography identity;
  const Homography shift({1, 0, 30, 0, 1, -7, 0, 0, 1});
  for (const Homography* warp : {&identity, &shift}) {
    for (std::int64_t size : {16, 61, 96, 224}) {
      SCOPED_TRACE("homography " + std::string(warp == &identity ? "identity"
                                                                 : "shift") +
                   " -> " + std::to_string(size));
      tensor::Tensor fused = slot_tensor(size);
      ASSERT_TRUE(
          resize_normalize_into(image, warp, size, Normalization{}, fused, 0)
              .is_ok());
      EXPECT_TRUE(same_bytes(
          fused, reference_chain(encode_image(image, ImageFormat::kRaw), warp,
                                 size)));
    }
  }
}

TEST(PreprocessInto, CrsaFrameMatchesPinnedDigest) {
  // The benchmark's reference logits are computed with preprocess_into
  // itself, so they cannot see a change to the shared bilinear arithmetic.
  // This digest was taken from the unfused decode → warp → resize →
  // normalize chain before the two were merged.
  PreprocSpec spec;
  spec.perspective = true;
  tensor::Tensor out = slot_tensor(224);
  ASSERT_TRUE(preprocess_into(crsa_frame(), spec, out, 0).is_ok());
  EXPECT_EQ(fnv1a64(out), 0x924d7c03bfb4a8ccULL);
}

TEST(PreprocessInto, RejectsNonPositiveOutputSize) {
  const auto batch = make_batch(1, 24, ImageFormat::kRaw);
  for (std::int64_t size : {0, -4}) {
    PreprocSpec spec;
    spec.output_size = size;
    tensor::Tensor dst(tensor::Shape{1, 3, size, size}, tensor::DType::kF32);
    const core::Status st = preprocess_into(batch[0], spec, dst, 0);
    EXPECT_EQ(st.code(), core::StatusCode::kInvalidArgument) << size;
    CpuPipeline cpu;
    EXPECT_EQ(cpu.run(batch, spec).status().code(),
              core::StatusCode::kInvalidArgument)
        << size;
  }
}

TEST(PreprocessInto, HostileRawFailsLikeDecodeRaw) {
  // Each malformed frame fails in place (view_raw) with the status the
  // copying decoder gives, never reading past the buffer.
  auto raw = [](std::int64_t w, std::int64_t h, std::size_t payload) {
    std::vector<std::uint8_t> bytes(16 + payload, 7);
    std::memcpy(bytes.data(), &w, 8);
    std::memcpy(bytes.data() + 8, &h, 8);
    return bytes;
  };
  const std::int64_t too_big = (std::int64_t{1} << 20) + 1;
  const std::vector<std::pair<const char*, std::vector<std::uint8_t>>> cases = {
      {"empty", {}},
      {"short header", std::vector<std::uint8_t>(15, 1)},
      {"header only", raw(4, 4, 0)},
      {"truncated payload", raw(4, 4, 4 * 4 * 3 - 1)},
      {"zero width", raw(0, 4, 48)},
      {"zero height", raw(4, 0, 48)},
      {"negative width", raw(-4, 4, 48)},
      {"negative height", raw(4, -4, 48)},
      {"width above 2^20", raw(too_big, 1, 64)},
      {"height above 2^20", raw(1, too_big, 64)},
  };
  for (const auto& [name, bytes] : cases) {
    SCOPED_TRACE(name);
    const core::Status decoded = decode_raw(bytes).status();
    EXPECT_EQ(decoded.code(), core::StatusCode::kInvalidArgument);
    EncodedImage encoded;
    encoded.format = ImageFormat::kRaw;
    encoded.bytes = bytes;
    for (bool perspective : {false, true}) {
      PreprocSpec spec;
      spec.output_size = 16;
      spec.perspective = perspective;
      tensor::Tensor dst = slot_tensor(16);
      const core::Status st = preprocess_into(encoded, spec, dst, 0);
      EXPECT_EQ(st.code(), decoded.code());
      EXPECT_EQ(st.message(), decoded.message());
    }
  }
}

// ------------------------------------------------------------- cost model

TEST(CostModel, DecodeFactorsOrdered) {
  EXPECT_EQ(format_decode_factor(ImageFormat::kRaw), 0.0);
  EXPECT_LT(format_decode_factor(ImageFormat::kPpm),
            format_decode_factor(ImageFormat::kAgJpeg));
  EXPECT_GT(format_decode_factor(ImageFormat::kAtif),
            format_decode_factor(ImageFormat::kAgJpeg));
}

WorkloadImageStats stats_for(double pixels, ImageFormat format,
                             bool warp = false) {
  WorkloadImageStats s;
  s.mean_pixels = pixels;
  s.mean_encoded_bytes = pixels;
  s.format = format;
  s.needs_perspective = warp;
  return s;
}

TEST(CostModel, SmallerDaliOutputsAreFaster) {
  const auto stats = stats_for(256 * 256, ImageFormat::kAgJpeg);
  const auto& dev = platform::a100();
  const double t224 =
      estimate_preproc(dev, stats, PreprocMethod::kDali224, 64).latency_s;
  const double t96 =
      estimate_preproc(dev, stats, PreprocMethod::kDali96, 64).latency_s;
  const double t32 =
      estimate_preproc(dev, stats, PreprocMethod::kDali32, 64).latency_s;
  EXPECT_GT(t224, t96);
  EXPECT_GT(t96, t32);
}

TEST(CostModel, LatencyGrowsWithBatchAndPixels) {
  const auto& dev = platform::v100();
  const auto small = stats_for(100 * 100, ImageFormat::kAgJpeg);
  const auto large = stats_for(1000 * 1000, ImageFormat::kAgJpeg);
  EXPECT_GT(estimate_preproc(dev, small, PreprocMethod::kDali224, 64).latency_s,
            estimate_preproc(dev, small, PreprocMethod::kDali224, 8).latency_s);
  EXPECT_GT(estimate_preproc(dev, large, PreprocMethod::kDali224, 8).latency_s,
            estimate_preproc(dev, small, PreprocMethod::kDali224, 8).latency_s);
}

TEST(CostModel, A100DaliBeatsV100BeatsJetson) {
  // Fig. 7's platform ordering (A100's hardware JPEG engine dominates).
  const auto stats = stats_for(256 * 256, ImageFormat::kAgJpeg);
  const double a100 =
      estimate_preproc(platform::a100(), stats, PreprocMethod::kDali224, 64)
          .throughput_img_per_s;
  const double v100 =
      estimate_preproc(platform::v100(), stats, PreprocMethod::kDali224, 64)
          .throughput_img_per_s;
  const double jetson = estimate_preproc(platform::jetson_orin_nano(), stats,
                                         PreprocMethod::kDali224, 64)
                            .throughput_img_per_s;
  EXPECT_GT(a100, v100);
  EXPECT_GT(v100, jetson);
}

TEST(CostModel, GpuBatchedBeatsCpuSingleImage) {
  // §4.2/§5: "GPU-accelerated preprocessing frameworks like NVIDIA DALI
  // demonstrate significant speedups over traditional CPU-based
  // pipelines".
  const auto stats = stats_for(256 * 256, ImageFormat::kAgJpeg);
  const auto& dev = platform::a100();
  const double dali =
      estimate_preproc(dev, stats, PreprocMethod::kDali224, 64)
          .throughput_img_per_s;
  const double pytorch =
      estimate_preproc(dev, stats, PreprocMethod::kPyTorch, 1)
          .throughput_img_per_s;
  EXPECT_GT(dali, 4.0 * pytorch);
}

TEST(CostModel, Crsa4kOnCpuIsRealTimeHostile) {
  // §4.2: OpenCV on the CRSA feed "demonstrates poor performance in
  // real-time scenarios" — hundreds of ms per frame on the edge CPU.
  const auto stats = stats_for(3840.0 * 2160.0, ImageFormat::kRaw, true);
  const auto est = estimate_preproc(platform::jetson_orin_nano(), stats,
                                    PreprocMethod::kCv2, 1);
  EXPECT_GT(est.latency_s, 0.1);
}

TEST(CostModel, RawFeedSkipsDecode) {
  const auto& dev = platform::a100();
  const auto raw = stats_for(512 * 512, ImageFormat::kRaw);
  const auto jpeg = stats_for(512 * 512, ImageFormat::kAgJpeg);
  EXPECT_LT(estimate_preproc(dev, raw, PreprocMethod::kPyTorch, 1).latency_s,
            estimate_preproc(dev, jpeg, PreprocMethod::kPyTorch, 1).latency_s);
}

TEST(CostModel, PoolBytesScaleWithBatch) {
  const auto stats = stats_for(224 * 224, ImageFormat::kAgJpeg);
  const auto& dev = platform::jetson_orin_nano();
  const auto b8 = estimate_preproc(dev, stats, PreprocMethod::kDali224, 8);
  const auto b64 = estimate_preproc(dev, stats, PreprocMethod::kDali224, 64);
  EXPECT_NEAR(b64.pool_bytes / b8.pool_bytes, 8.0, 1e-9);
  EXPECT_GT(b8.pool_bytes, 0.0);
}

TEST(CostModel, ThroughputLatencyConsistency) {
  const auto stats = stats_for(100 * 100, ImageFormat::kAgJpeg);
  const auto est = estimate_preproc(platform::v100(), stats,
                                    PreprocMethod::kDali96, 32);
  EXPECT_NEAR(est.throughput_img_per_s * est.latency_s, 32.0, 1e-6);
}

}  // namespace
}  // namespace harvest::preproc
