/// HVST checkpoint coverage for the RWKV family: the image classifier
/// (nn/rwkv.hpp) with its per-block decay tensors, and the explicit
/// save_params/load_params entry points the token models serialize
/// through. The round-trip contract is bit-exactness — recurrent decay
/// parameters are exponentiated inside the WKV scan, so even 1-ulp drift
/// would compound over a sequence.

#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "nn/init.hpp"
#include "nn/models.hpp"
#include "nn/rwkv.hpp"
#include "tensor/ops.hpp"

namespace harvest::nn {
namespace {

RwkvConfig mini_config() {
  RwkvConfig config;
  config.name = "ser-rwkv";
  config.image = 8;
  config.patch = 2;
  config.dim = 16;
  config.depth = 3;
  config.num_classes = 7;
  return config;
}

tensor::Tensor random_input(std::uint64_t seed) {
  tensor::Tensor t(tensor::Shape{1, 3, 8, 8}, tensor::DType::kF32);
  core::Rng rng(seed);
  for (float& v : t.f32_span()) v = rng.next_float() - 0.5f;
  return t;
}

TEST(SerializeRwkv, RoundTripIsBitExactIncludingDecay) {
  ModelPtr original = build_rwkv(mini_config());
  init_weights(*original, 77);
  const std::string path = ::testing::TempDir() + "/ser-rwkv.hvst";
  ASSERT_TRUE(save_weights(*original, path).is_ok());

  ModelPtr loaded = build_rwkv(mini_config());
  init_weights(*loaded, 1);
  ASSERT_TRUE(load_weights(*loaded, path).is_ok());

  auto orig_params = original->params();
  auto loaded_params = loaded->params();
  ASSERT_EQ(orig_params.size(), loaded_params.size());
  std::size_t decay_tensors = 0;
  for (std::size_t i = 0; i < orig_params.size(); ++i) {
    ASSERT_EQ(orig_params[i].name, loaded_params[i].name);
    if (orig_params[i].name.find("decay") != std::string::npos) {
      ++decay_tensors;
    }
    const auto a = orig_params[i].tensor->f32_span();
    const auto b = loaded_params[i].tensor->f32_span();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << orig_params[i].name;
  }
  // One decay vector per block — the recurrent parameters the WKV scan
  // exponentiates must actually be in the checkpoint.
  EXPECT_EQ(decay_tensors, 3u);

  const tensor::Tensor input = random_input(5);
  EXPECT_EQ(tensor::max_abs_diff(original->forward(input),
                                 loaded->forward(input)),
            0.0f);
  std::remove(path.c_str());
}

TEST(SerializeParams, ExplicitListRoundTrips) {
  // The token-model path: serialize a bare NamedParam list, no Model.
  tensor::Tensor a(tensor::Shape{3, 4}, tensor::DType::kF32);
  tensor::Tensor b(tensor::Shape{5}, tensor::DType::kF32);
  core::Rng rng(9);
  for (float& v : a.f32_span()) v = rng.next_float();
  for (float& v : b.f32_span()) v = rng.next_float();
  std::vector<NamedParam> params{{"m.weight", &a}, {"m.bias", &b}};

  const std::string path = ::testing::TempDir() + "/params.hvst";
  ASSERT_TRUE(save_params(params, path).is_ok());

  tensor::Tensor a2(tensor::Shape{3, 4}, tensor::DType::kF32);
  tensor::Tensor b2(tensor::Shape{5}, tensor::DType::kF32);
  std::vector<NamedParam> loaded{{"m.weight", &a2}, {"m.bias", &b2}};
  ASSERT_TRUE(load_params(loaded, path).is_ok());
  EXPECT_EQ(tensor::max_abs_diff(a, a2), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(b, b2), 0.0f);
  std::remove(path.c_str());
}

TEST(SerializeParams, RejectsShapeMismatch) {
  tensor::Tensor a(tensor::Shape{3, 4}, tensor::DType::kF32);
  std::vector<NamedParam> params{{"m.weight", &a}};
  const std::string path = ::testing::TempDir() + "/params-shape.hvst";
  ASSERT_TRUE(save_params(params, path).is_ok());

  tensor::Tensor wrong(tensor::Shape{4, 3}, tensor::DType::kF32);
  std::vector<NamedParam> loaded{{"m.weight", &wrong}};
  EXPECT_EQ(load_params(loaded, path).code(),
            core::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeParams, RejectsDuplicateRecord) {
  // A file that stores `m.weight` twice and no `m.bias` has the right
  // count; loading it must fail instead of leaving m.bias stale.
  tensor::Tensor a(tensor::Shape{3, 4}, tensor::DType::kF32);
  a.f32_span()[0] = 1.0f;
  std::vector<NamedParam> twice{{"m.weight", &a}, {"m.weight", &a}};
  const std::string path = ::testing::TempDir() + "/params-dup.hvst";
  ASSERT_TRUE(save_params(twice, path).is_ok());

  tensor::Tensor w(tensor::Shape{3, 4}, tensor::DType::kF32);
  tensor::Tensor b(tensor::Shape{3, 4}, tensor::DType::kF32);
  std::vector<NamedParam> loaded{{"m.weight", &w}, {"m.bias", &b}};
  EXPECT_EQ(load_params(loaded, path).code(),
            core::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeParams, RejectsTrailingBytes) {
  tensor::Tensor a(tensor::Shape{3, 4}, tensor::DType::kF32);
  std::vector<NamedParam> params{{"m.weight", &a}};
  const std::string path = ::testing::TempDir() + "/params-trailing.hvst";
  ASSERT_TRUE(save_params(params, path).is_ok());
  ASSERT_TRUE(load_params(params, path).is_ok());
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputc(0, f);
  std::fclose(f);
  EXPECT_EQ(load_params(params, path).code(),
            core::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeParams, RejectsWrongArchitecture) {
  // A ViT checkpoint must not load into an RWKV model: the name check
  // fires before any data is copied.
  ViTConfig vit_config{"ser-vit", 8, 2, 16, 2, 2, 2, 7};
  ModelPtr vit = build_vit(vit_config);
  init_weights(*vit, 3);
  const std::string path = ::testing::TempDir() + "/ser-vit.hvst";
  ASSERT_TRUE(save_weights(*vit, path).is_ok());

  ModelPtr rwkv = build_rwkv(mini_config());
  init_weights(*rwkv, 3);
  EXPECT_EQ(load_weights(*rwkv, path).code(),
            core::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeParams, MissingFileIsNotFound) {
  ModelPtr model = build_rwkv(mini_config());
  EXPECT_EQ(load_weights(*model, "/nonexistent/dir/x.hvst").code(),
            core::StatusCode::kNotFound);
}

}  // namespace
}  // namespace harvest::nn
