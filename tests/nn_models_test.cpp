#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>

#include "nn/init.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"
#include "tensor/ops.hpp"

namespace harvest::nn {

/// gtest prints a parameter into the listed test name; without this it
/// dumps the raw bytes of the spec, whose first word is a heap address,
/// so the ctest names would change from one build to the next.
void PrintTo(const ModelSpec& spec, std::ostream* os) { *os << spec.name; }

namespace {

/// Table 3 reproduction: the real graphs must land on the paper's
/// reported parameter counts and GFLOPs/image (projection-MAC
/// convention) within a small tolerance.
class Table3 : public ::testing::TestWithParam<ModelSpec> {};

TEST_P(Table3, ParameterCountMatchesPaper) {
  const ModelSpec& spec = GetParam();
  // Table 3's counts reproduce with the 39-class agricultural head for
  // the ViTs (5.39/21.40/85.80M) but with the original 1000-class
  // ImageNet head for ResNet-50 (25.56M) — see EXPERIMENTS.md.
  const std::int64_t head = spec.name == "ResNet50" ? 1000 : 39;
  ModelPtr model = build_by_name(spec.name, head);
  ASSERT_NE(model, nullptr);
  const double params_m = static_cast<double>(model->param_count()) / 1e6;
  EXPECT_NEAR(params_m, spec.reported_params_m,
              spec.reported_params_m * 0.02)
      << spec.name;
}

TEST_P(Table3, ProjectionMacsMatchPaperGflops) {
  const ModelSpec& spec = GetParam();
  ModelPtr model = build_by_name(spec.name);
  ASSERT_NE(model, nullptr);
  const double gflops = model->profile(1).projection_macs() / 1e9;
  EXPECT_NEAR(gflops, spec.reported_gflops_per_image,
              spec.reported_gflops_per_image * 0.02)
      << spec.name;
}

TEST_P(Table3, InputSizeMatches) {
  const ModelSpec& spec = GetParam();
  ModelPtr model = build_by_name(spec.name);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->input_shape()[1], spec.input_size);
  EXPECT_EQ(model->input_shape()[2], spec.input_size);
}

INSTANTIATE_TEST_SUITE_P(
    PaperModels, Table3, ::testing::ValuesIn(evaluated_models()),
    [](const ::testing::TestParamInfo<ModelSpec>& param_info) {
      return param_info.param.name;
    });

TEST(Table3, FourModelsInPaperOrder) {
  const auto& specs = evaluated_models();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "ViT_Tiny");
  EXPECT_EQ(specs[1].name, "ViT_Small");
  EXPECT_EQ(specs[2].name, "ViT_Base");
  EXPECT_EQ(specs[3].name, "ResNet50");
}

TEST(Table3, FindModelSpec) {
  EXPECT_TRUE(find_model_spec("ViT_Base").has_value());
  EXPECT_FALSE(find_model_spec("AlexNet").has_value());
  EXPECT_EQ(build_by_name("nonsense"), nullptr);
}

TEST(ComputeBreakdown, ViTTinyMlpAttentionSplitMatchesPaper) {
  // §4.0.2: "MLP layers account for 81.73% in ViT Tiny, attention 18.23%".
  ModelPtr model = build_by_name("ViT_Tiny");
  const ModelProfile profile = model->profile(1);
  const double dense = profile.macs_of(OpKind::kDense);
  const double attn = profile.macs_of(OpKind::kAttention);
  const double mlp_share = dense / (dense + attn);
  const double attn_share = attn / (dense + attn);
  EXPECT_NEAR(mlp_share, 0.8173, 0.01);
  EXPECT_NEAR(attn_share, 0.1823, 0.01);
}

TEST(ComputeBreakdown, ResNetIsConvDominated) {
  // §4.0.2: "convolution operations account for 99.5% of ResNet50".
  ModelPtr model = build_by_name("ResNet50");
  const ModelProfile profile = model->profile(1);
  EXPECT_NEAR(profile.share_of(OpKind::kConv), 0.995, 0.005);
  EXPECT_DOUBLE_EQ(profile.macs_of(OpKind::kAttention), 0.0);
}

TEST(ComputeBreakdown, ViTBaseIsMoreMlpDominatedThanTiny) {
  // Attention matmuls shrink relative to projections as dim grows at
  // fixed token count.
  ModelPtr tiny = build_by_name("ViT_Tiny");
  ModelPtr base = build_by_name("ViT_Base");
  const ModelProfile pt = tiny->profile(1);
  const ModelProfile pb = base->profile(1);
  EXPECT_GT(pb.share_of(OpKind::kDense), pt.share_of(OpKind::kDense));
}

TEST(Profile, PeakActivationGrowsWithModelSize) {
  ModelPtr tiny = build_by_name("ViT_Tiny");
  ModelPtr base = build_by_name("ViT_Base");
  EXPECT_GT(base->profile(1).peak_activation_bytes_fp16,
            tiny->profile(1).peak_activation_bytes_fp16);
}

TEST(Profile, ParamBytesAreTwoPerParamAtFp16) {
  ModelPtr model = build_by_name("ViT_Tiny");
  const ModelProfile profile = model->profile(1);
  EXPECT_DOUBLE_EQ(profile.param_bytes_fp16,
                   2.0 * static_cast<double>(profile.param_count));
}

TEST(Serialize, RoundTripIsBitExact) {
  ViTConfig config{"mini", 8, 2, 16, 2, 2, 2, 5};
  ModelPtr original = build_vit(config);
  init_weights(*original, 1234);

  const std::string path = ::testing::TempDir() + "/mini.hvst";
  ASSERT_TRUE(save_weights(*original, path).is_ok());

  ModelPtr loaded = build_vit(config);
  init_weights(*loaded, 999);  // different weights before loading
  ASSERT_TRUE(load_weights(*loaded, path).is_ok());

  auto orig_params = original->params();
  auto loaded_params = loaded->params();
  ASSERT_EQ(orig_params.size(), loaded_params.size());
  for (std::size_t i = 0; i < orig_params.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(*orig_params[i].tensor,
                                   *loaded_params[i].tensor),
              0.0f)
        << orig_params[i].name;
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsArchitectureMismatch) {
  ViTConfig small{"mini", 8, 2, 16, 2, 2, 2, 5};
  ViTConfig bigger{"mini", 8, 2, 24, 2, 2, 2, 5};
  ModelPtr a = build_vit(small);
  init_weights(*a, 1);
  const std::string path = ::testing::TempDir() + "/mismatch.hvst";
  ASSERT_TRUE(save_weights(*a, path).is_ok());
  ModelPtr b = build_vit(bigger);
  const core::Status status = load_weights(*b, path);
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileIsNotFound) {
  ViTConfig config{"mini", 8, 2, 16, 2, 2, 2, 5};
  ModelPtr model = build_vit(config);
  EXPECT_EQ(load_weights(*model, "/nonexistent/dir/x.hvst").code(),
            core::StatusCode::kNotFound);
}

TEST(Serialize, RejectsCorruptMagic) {
  const std::string path = ::testing::TempDir() + "/garbage.hvst";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a checkpoint at all", f);
  std::fclose(f);
  ViTConfig config{"mini", 8, 2, 16, 2, 2, 2, 5};
  ModelPtr model = build_vit(config);
  EXPECT_EQ(load_weights(*model, path).code(),
            core::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Init, DeterministicByName) {
  ViTConfig config{"mini", 8, 2, 16, 2, 2, 2, 5};
  ModelPtr model = build_vit(config);
  init_weights(*model, 77);
  // Norm gains are 1, biases 0, weights non-trivial.
  for (NamedParam& p : model->params()) {
    const std::string& name = p.name;
    if (name.ends_with(".gamma")) {
      for (float v : p.tensor->f32_span()) EXPECT_EQ(v, 1.0f);
    } else if (name.ends_with(".bias") || name.ends_with(".beta")) {
      for (float v : p.tensor->f32_span()) EXPECT_EQ(v, 0.0f);
    } else if (name.ends_with(".weight")) {
      EXPECT_GT(static_cast<double>(
                    std::abs(tensor::sum(*p.tensor))) +
                    std::abs(static_cast<double>(p.tensor->f32()[0])),
                0.0)
          << name;
    }
  }
}

}  // namespace
}  // namespace harvest::nn
