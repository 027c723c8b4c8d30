#include "serving/repository.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "nn/init.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"
#include "preproc/image.hpp"

namespace harvest::serving {
namespace {

preproc::EncodedImage tiny_input(std::uint64_t seed) {
  const preproc::Image img = preproc::synthesize_field_image(24, 24, seed);
  return preproc::encode_image(img, preproc::ImageFormat::kAgJpeg);
}

core::Json parse(const char* text) {
  auto result = core::Json::parse(text);
  HARVEST_CHECK(result.is_ok());
  return std::move(result).value();
}

TEST(Repository, RegistersNativeVitAndServes) {
  Server server(1);
  const core::Json config = parse(R"({
    "models": [{
      "name": "weeds", "backend": "native", "architecture": "vit",
      "image": 16, "patch": 4, "dim": 16, "depth": 1, "heads": 2,
      "classes": 4, "max_batch": 4, "instances": 1,
      "preproc": {"output_size": 16}
    }]
  })");
  ASSERT_TRUE(load_repository(server, config).is_ok());
  InferenceRequest request;
  request.model = "weeds";
  request.input = tiny_input(1);
  const InferenceResponse response = server.infer_sync(std::move(request));
  ASSERT_TRUE(response.status.is_ok()) << response.status.to_string();
  EXPECT_LT(response.predicted_class, 4);
}

TEST(Repository, RegistersAllThreeArchitectures) {
  Server server(1);
  const core::Json config = parse(R"({
    "models": [
      {"name": "a", "backend": "native", "architecture": "vit",
       "image": 16, "patch": 4, "dim": 16, "depth": 1, "heads": 2,
       "classes": 3, "preproc": {"output_size": 16}},
      {"name": "b", "backend": "native", "architecture": "resnet",
       "image": 32, "stages": [1], "classes": 3,
       "preproc": {"output_size": 32}},
      {"name": "c", "backend": "native", "architecture": "rwkv",
       "image": 16, "patch": 4, "dim": 16, "depth": 1,
       "classes": 3, "preproc": {"output_size": 16}}
    ]
  })");
  ASSERT_TRUE(load_repository(server, config).is_ok());
  EXPECT_EQ(server.model_names().size(), 3u);
  for (const char* name : {"a", "b", "c"}) {
    InferenceRequest request;
    request.model = name;
    request.input = tiny_input(2);
    const InferenceResponse response = server.infer_sync(std::move(request));
    EXPECT_TRUE(response.status.is_ok()) << name;
  }
}

TEST(Repository, RegistersSimBackend) {
  Server server(1);
  const core::Json config = parse(R"({
    "models": [{
      "name": "cloud-vit", "backend": "sim",
      "model": "ViT_Tiny", "device": "A100",
      "classes": 39, "max_batch": 64
    }]
  })");
  ASSERT_TRUE(load_repository(server, config).is_ok());
  InferenceRequest request;
  request.model = "cloud-vit";
  request.input = tiny_input(3);
  const InferenceResponse response = server.infer_sync(std::move(request));
  ASSERT_TRUE(response.status.is_ok());
  EXPECT_GT(response.timing.inference_s, 0.0);  // simulated device time
}

TEST(Repository, LoadsWeightsFromCheckpoint) {
  // Save a known model, point the repository at it, and confirm the
  // served prediction matches direct execution of that checkpoint.
  nn::ViTConfig config{"ckpt-vit", 16, 4, 16, 1, 2, 4, 4};
  nn::ModelPtr reference = nn::build_vit(config);
  nn::init_weights(*reference, 555);
  const std::string path = ::testing::TempDir() + "/repo_ckpt.hvst";
  ASSERT_TRUE(nn::save_weights(*reference, path).is_ok());

  Server server(1);
  core::Json repo = parse(R"({
    "models": [{
      "name": "ckpt", "backend": "native", "architecture": "vit",
      "image": 16, "patch": 4, "dim": 16, "depth": 1, "heads": 2,
      "classes": 4, "seed": 999, "preproc": {"output_size": 16}
    }]
  })");
  repo["models"].as_array()[0]["weights"] = core::Json(path);
  ASSERT_TRUE(load_repository(server, repo).is_ok());

  const preproc::EncodedImage input = tiny_input(4);
  InferenceRequest request;
  request.model = "ckpt";
  request.input = input;
  const InferenceResponse served = server.infer_sync(std::move(request));
  ASSERT_TRUE(served.status.is_ok());

  preproc::CpuPipeline pipeline;
  preproc::PreprocSpec spec;
  spec.output_size = 16;
  auto batch = pipeline.run(std::span(&input, 1), spec);
  ASSERT_TRUE(batch.is_ok());
  tensor::Tensor logits = reference->forward(batch.value());
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(served.logits[static_cast<std::size_t>(c)], logits.f32()[c],
                1e-4f);
  }
  std::remove(path.c_str());
}

TEST(Repository, ServesInt8AndFp32SideBySide) {
  // The same architecture + seed deployed twice, once per precision.
  // Both must serve, and the Prometheus exposition must carry the
  // precision label so the two streams are comparable live.
  Server server(1);
  const core::Json config = parse(R"({
    "models": [
      {"name": "weeds-fp32", "backend": "native", "architecture": "vit",
       "image": 16, "patch": 4, "dim": 16, "depth": 1, "heads": 2,
       "classes": 4, "seed": 7, "preproc": {"output_size": 16}},
      {"name": "weeds-int8", "backend": "native", "architecture": "vit",
       "image": 16, "patch": 4, "dim": 16, "depth": 1, "heads": 2,
       "classes": 4, "seed": 7, "precision": "int8",
       "preproc": {"output_size": 16}}
    ]
  })");
  ASSERT_TRUE(load_repository(server, config).is_ok());

  const preproc::EncodedImage input = tiny_input(5);
  std::vector<InferenceResponse> responses;
  for (const char* name : {"weeds-fp32", "weeds-int8"}) {
    InferenceRequest request;
    request.model = name;
    request.input = input;
    responses.push_back(server.infer_sync(std::move(request)));
    ASSERT_TRUE(responses.back().status.is_ok()) << name;
  }
  // Same weights, same input: int8 quantization must not flip the
  // prediction on this tiny head.
  EXPECT_EQ(responses[0].predicted_class, responses[1].predicted_class);

  const std::string text = server.prometheus_text();
  EXPECT_NE(text.find("model=\"weeds-fp32\",precision=\"fp32\""),
            std::string::npos);
  EXPECT_NE(text.find("model=\"weeds-int8\",precision=\"int8\""),
            std::string::npos);
}

TEST(Repository, RejectsUnknownPrecisionAndSimInt8) {
  Server server(1);
  EXPECT_FALSE(load_repository(server, parse(R"({
    "models": [{"name": "x", "backend": "native", "architecture": "vit",
                "image": 16, "patch": 4, "dim": 16, "depth": 1, "heads": 2,
                "precision": "fp8"}]})")).is_ok());
  // The sim backend prices precision analytically (Ablation C), so an
  // int8 sim deployment is a config error, not a silent fp32 fallback.
  EXPECT_FALSE(load_repository(server, parse(R"({
    "models": [{"name": "y", "backend": "sim", "model": "ViT_Tiny",
                "device": "A100", "precision": "int8"}]})")).is_ok());
}

TEST(Repository, RejectsBadConfigs) {
  Server server(1);
  EXPECT_FALSE(load_repository(server, parse("{}")).is_ok());
  EXPECT_FALSE(load_repository(server, parse(R"({"models": 3})")).is_ok());
  EXPECT_FALSE(load_repository(server, parse(R"({"models": [5]})")).is_ok());
  EXPECT_FALSE(load_repository(server, parse(R"({
    "models": [{"name": "x", "backend": "native",
                "architecture": "alexnet"}]})")).is_ok());
  EXPECT_FALSE(load_repository(server, parse(R"({
    "models": [{"name": "x", "backend": "sim", "model": "ViT_Tiny",
                "device": "TPU"}]})")).is_ok());
  EXPECT_FALSE(load_repository(server, parse(R"({
    "models": [{"name": "x", "backend": "sim", "model": "AlexNet",
                "device": "A100"}]})")).is_ok());
  EXPECT_FALSE(load_repository(server, parse(R"({
    "models": [{"name": "x", "backend": "grpc"}]})")).is_ok());
  // Invalid geometry: dim not divisible by heads.
  EXPECT_FALSE(load_repository(server, parse(R"({
    "models": [{"name": "x", "backend": "native", "architecture": "vit",
                "dim": 10, "heads": 3}]})")).is_ok());
}

TEST(Repository, MissingWeightsFileFailsRegistration) {
  Server server(1);
  const core::Json config = parse(R"({
    "models": [{
      "name": "x", "backend": "native", "architecture": "vit",
      "image": 16, "patch": 4, "dim": 16, "depth": 1, "heads": 2,
      "weights": "/nonexistent/w.hvst"
    }]
  })");
  EXPECT_FALSE(load_repository(server, config).is_ok());
}

TEST(Repository, LoadFromFile) {
  const std::string path = ::testing::TempDir() + "/repo.json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs(R"({"models": [{"name": "m", "backend": "sim",
               "model": "ResNet50", "device": "V100"}]})", f);
  std::fclose(f);
  Server server(1);
  EXPECT_TRUE(load_repository_file(server, path).is_ok());
  EXPECT_EQ(server.model_names().size(), 1u);
  EXPECT_FALSE(load_repository_file(server, "/no/such/file.json").is_ok());
  std::remove(path.c_str());
}

// ------------------------------------------------- repository validation

TEST(Repository, DuplicateDeploymentNamesRejected) {
  Server server(1);
  const core::Json config = parse(R"({
    "models": [
      {"name": "dup", "backend": "sim", "model": "ResNet50", "device": "V100"},
      {"name": "dup", "backend": "sim", "model": "ViT_Tiny", "device": "A100"}
    ]
  })");
  const core::Status status = load_repository(server, config);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("duplicate deployment name"),
            std::string::npos);
  EXPECT_NE(status.message().find("dup"), std::string::npos);
  // The pre-pass rejects the whole repository: nothing half-registers.
  EXPECT_TRUE(server.model_names().empty());
}

TEST(Repository, NonPositiveInstancesRejected) {
  Server server(1);
  const core::Json config = parse(R"({
    "models": [{"name": "bad-inst", "backend": "sim", "model": "ResNet50",
                "device": "V100", "instances": 0}]
  })");
  const core::Status status = load_repository(server, config);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bad-inst"), std::string::npos);
  EXPECT_NE(status.message().find("instances > 0"), std::string::npos);
}

TEST(Repository, NonPositiveQueueCapacityRejected) {
  Server server(1);
  const core::Json config = parse(R"({
    "models": [{"name": "bad-q", "backend": "sim", "model": "ResNet50",
                "device": "V100", "queue_capacity": -1}]
  })");
  const core::Status status = load_repository(server, config);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bad-q"), std::string::npos);
  EXPECT_NE(status.message().find("queue_capacity > 0"), std::string::npos);
}

TEST(Repository, NonPositivePreprocOutputSizeRejected) {
  // Caught at load time with a status; it used to reach the resize's
  // CHECK on the first request and abort the process.
  for (const char* size : {"0", "-4"}) {
    Server server(1);
    const std::string config =
        std::string(R"({"models": [{"name": "bad-pre", "backend": "native",
          "architecture": "vit", "image": 16, "patch": 4, "dim": 16,
          "depth": 1, "heads": 2, "classes": 4,
          "preproc": {"output_size": )") +
        size + "}}]}";
    const core::Status status = load_repository(server, parse(config.c_str()));
    ASSERT_FALSE(status.is_ok()) << size;
    EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("bad-pre"), std::string::npos);
    EXPECT_NE(status.message().find("preproc.output_size >= 1"),
              std::string::npos);
    EXPECT_TRUE(server.model_names().empty());
  }
}

TEST(Repository, BadTenantWeightAndQuotaRejected) {
  Server server(1);
  EXPECT_FALSE(load_repository(server, parse(R"({
    "models": [{"name": "w", "backend": "sim", "model": "ResNet50",
                "device": "V100", "weight": 0}]})"))
                   .is_ok());
  EXPECT_FALSE(load_repository(server, parse(R"({
    "models": [{"name": "q", "backend": "sim", "model": "ResNet50",
                "device": "V100", "quota": -2}]})"))
                   .is_ok());
}

TEST(Repository, TenantKeysReachTheServer) {
  Server server(1);
  const core::Json config = parse(R"({
    "models": [
      {"name": "vit-farm", "backend": "sim", "model": "ViT_Tiny",
       "device": "A100", "tenant": "farm", "weight": 4, "quota": 9},
      {"name": "resnet-farm", "backend": "sim", "model": "ResNet50",
       "device": "V100", "tenant": "farm"}
    ]
  })");
  ASSERT_TRUE(load_repository(server, config).is_ok());
  ASSERT_EQ(server.tenant_names().size(), 1u);
  const TenantState* tenant = server.tenant("farm");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->weight.load(), 4.0);
  EXPECT_EQ(tenant->quota.load(), 9);
}

TEST(Repository, IdenticalNativeModelsShareOneWeightEntry) {
  Server server(1);
  const core::Json config = parse(R"({
    "models": [
      {"name": "weeds-a", "backend": "native", "architecture": "vit",
       "image": 16, "patch": 4, "dim": 16, "depth": 1, "heads": 2,
       "classes": 4, "preproc": {"output_size": 16}},
      {"name": "weeds-b", "backend": "native", "architecture": "vit",
       "image": 16, "patch": 4, "dim": 16, "depth": 1, "heads": 2,
       "classes": 4, "preproc": {"output_size": 16}}
    ]
  })");
  ASSERT_TRUE(load_repository(server, config).is_ok());
  const WeightStore::Stats stats = server.weight_store().stats();
  EXPECT_EQ(stats.entries, 1u);  // same content signature -> one entry
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
  EXPECT_GT(stats.naive_bytes, stats.resident_bytes);
}

TEST(Repository, TopLevelWorkersAndWeightBudgetApply) {
  Server server(1);
  const core::Json config = parse(R"({
    "workers": 2,
    "weight_budget_bytes": 1048576,
    "models": [
      {"name": "a", "backend": "sim", "model": "ResNet50", "device": "V100",
       "instances": 4},
      {"name": "b", "backend": "sim", "model": "ViT_Tiny", "device": "A100",
       "instances": 4}
    ]
  })");
  ASSERT_TRUE(load_repository(server, config).is_ok());
  // Explicit target consolidates below the sum of instances (8).
  EXPECT_EQ(server.worker_pool().workers(), 2u);
  EXPECT_EQ(server.weight_store().budget_bytes(), 1048576u);

  Server reject(1);
  EXPECT_FALSE(
      load_repository(reject, parse(R"({"workers": 0, "models": []})"))
          .is_ok());
  EXPECT_FALSE(load_repository(
                   reject, parse(R"({"weight_budget_bytes": -1, "models": []})"))
                   .is_ok());
}

TEST(Repository, MalformedJsonFileRejected) {
  const std::string path = ::testing::TempDir() + "/bad.json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("{not json", f);
  std::fclose(f);
  Server server(1);
  EXPECT_FALSE(load_repository_file(server, path).is_ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace harvest::serving
