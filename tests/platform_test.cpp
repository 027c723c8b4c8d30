#include <gtest/gtest.h>

#include <ostream>

#include "nn/models.hpp"
#include "platform/calibration.hpp"
#include "platform/device.hpp"
#include "platform/gemm_bench.hpp"
#include "platform/memory.hpp"
#include "platform/perf_model.hpp"

namespace harvest::platform {

/// gtest prints a parameter into the listed test name; without this it
/// dumps the raw bytes of the anchor, whose first word is a heap address,
/// so the ctest names would change from one build to the next.
void PrintTo(const EngineAnchor& anchor, std::ostream* os) {
  *os << anchor.device << "/" << anchor.model;
}

namespace {

// ---------------------------------------------------------------- devices

TEST(Devices, Table1Values) {
  EXPECT_DOUBLE_EQ(a100().theory_tflops, 312.0);
  EXPECT_DOUBLE_EQ(a100().practical_tflops, 236.3);
  EXPECT_EQ(a100().cpu_cores, 128);
  EXPECT_DOUBLE_EQ(v100().theory_tflops, 112.0);
  EXPECT_DOUBLE_EQ(v100().practical_tflops, 92.6);
  EXPECT_EQ(v100().cpu_cores, 40);
  EXPECT_DOUBLE_EQ(jetson_orin_nano().theory_tflops, 17.0);
  EXPECT_DOUBLE_EQ(jetson_orin_nano().practical_tflops, 11.4);
  EXPECT_EQ(jetson_orin_nano().cpu_cores, 6);
  EXPECT_TRUE(jetson_orin_nano().unified_memory);
  EXPECT_FALSE(a100().unified_memory);
}

TEST(Devices, Table1EfficiencyBand) {
  // §4: "FLOPS efficiency achieved on each platform ranges from 75.74%
  // to 82.68%" (cloud platforms).
  EXPECT_NEAR(a100().practical_tflops / a100().theory_tflops, 0.7574, 1e-3);
  EXPECT_NEAR(v100().practical_tflops / v100().theory_tflops, 0.8268, 1e-3);
}

TEST(Devices, ScenarioAssignments) {
  EXPECT_TRUE(a100().supports(Scenario::kOnline));
  EXPECT_TRUE(a100().supports(Scenario::kOffline));
  EXPECT_FALSE(a100().supports(Scenario::kRealTime));
  EXPECT_TRUE(jetson_orin_nano().supports(Scenario::kRealTime));
  EXPECT_FALSE(jetson_orin_nano().supports(Scenario::kOnline));
}

TEST(Devices, RegistryLookup) {
  EXPECT_EQ(evaluated_platforms().size(), 3u);
  EXPECT_EQ(find_device("A100"), &a100());
  EXPECT_EQ(find_device("HostCPU"), &host_cpu());
  EXPECT_EQ(find_device("TPU"), nullptr);
}

TEST(Devices, PrecisionScaling) {
  // INT8 doubles, FP32 halves relative to native half precision.
  EXPECT_DOUBLE_EQ(a100().practical_tflops_at(Precision::kINT8), 2 * 236.3);
  EXPECT_DOUBLE_EQ(a100().practical_tflops_at(Precision::kFP32), 0.5 * 236.3);
  EXPECT_DOUBLE_EQ(a100().practical_tflops_at(Precision::kBF16), 236.3);
  EXPECT_DOUBLE_EQ(v100().practical_tflops_at(Precision::kFP16), 92.6);
}

TEST(Devices, EngineBudgetSubtractsReserve) {
  const DeviceSpec& jetson = jetson_orin_nano();
  EXPECT_LT(jetson.engine_memory_budget_bytes(), jetson.gpu_mem_bytes);
  EXPECT_GT(jetson.engine_memory_budget_bytes(), 0.0);
}

// ------------------------------------------------------------ calibration

TEST(Calibration, TwelveAnchors) {
  EXPECT_EQ(engine_anchors().size(), 12u);
  EXPECT_TRUE(find_anchor("A100", "ViT_Tiny").has_value());
  EXPECT_FALSE(find_anchor("A100", "AlexNet").has_value());
}

TEST(Calibration, JetsonWallsAreOomCloudAreNot) {
  for (const EngineAnchor& anchor : engine_anchors()) {
    if (anchor.device == "JetsonOrinNano") {
      EXPECT_TRUE(anchor.oom_wall) << anchor.model;
    } else {
      EXPECT_FALSE(anchor.oom_wall) << anchor.model;
      EXPECT_EQ(anchor.max_batch, 1024) << anchor.model;
    }
  }
}

// ------------------------------------------------------------ perf model

struct AnchorCase {
  EngineAnchor anchor;
};

class EngineAnchors : public ::testing::TestWithParam<EngineAnchor> {};

TEST_P(EngineAnchors, ModelReproducesPublishedThroughput) {
  const EngineAnchor& anchor = GetParam();
  const DeviceSpec* device = find_device(anchor.device);
  ASSERT_NE(device, nullptr);
  const EngineModel engine = make_engine_model(*device, anchor.model);
  const EngineEstimate est = engine.estimate(anchor.anchor_batch);
  ASSERT_FALSE(est.oom);
  EXPECT_NEAR(est.throughput_img_per_s, anchor.anchor_img_per_s,
              anchor.anchor_img_per_s * 1e-3)
      << anchor.device << "/" << anchor.model;
}

TEST_P(EngineAnchors, MaxBatchLandsOnPublishedWall) {
  const EngineAnchor& anchor = GetParam();
  const DeviceSpec* device = find_device(anchor.device);
  const EngineModel engine = make_engine_model(*device, anchor.model);
  if (anchor.oom_wall) {
    EXPECT_EQ(engine.max_batch(), anchor.max_batch)
        << anchor.device << "/" << anchor.model;
    EXPECT_TRUE(engine.estimate(anchor.max_batch + 1).oom);
    EXPECT_FALSE(engine.estimate(anchor.max_batch).oom);
  } else {
    // Cloud GPUs run the full sweep without OOM.
    EXPECT_GE(engine.max_batch(), 1024);
    EXPECT_FALSE(engine.estimate(1024).oom);
  }
}

TEST_P(EngineAnchors, LatencyIsMonotoneAndThroughputBounded) {
  const EngineAnchor& anchor = GetParam();
  const DeviceSpec* device = find_device(anchor.device);
  const EngineModel engine = make_engine_model(*device, anchor.model);
  double prev_latency = 0.0;
  double prev_throughput = 0.0;
  for (std::int64_t batch = 1; batch <= anchor.max_batch; batch *= 2) {
    const EngineEstimate est = engine.estimate(batch);
    ASSERT_FALSE(est.oom) << batch;
    EXPECT_GT(est.latency_s, prev_latency) << batch;
    EXPECT_GE(est.throughput_img_per_s, prev_throughput * 0.999) << batch;
    EXPECT_LE(est.throughput_img_per_s, engine.upper_bound_img_per_s());
    EXPECT_GT(est.mfu_vs_practical, 0.0);
    EXPECT_LT(est.mfu_vs_practical, 1.0);
    EXPECT_LT(est.mfu_vs_theory, est.mfu_vs_practical);
    prev_latency = est.latency_s;
    prev_throughput = est.throughput_img_per_s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAnchors, EngineAnchors, ::testing::ValuesIn(engine_anchors()),
    [](const ::testing::TestParamInfo<EngineAnchor>& param_info) {
      return param_info.param.device + "_" + param_info.param.model;
    });

TEST(EngineModel, UpperBoundMatchesTable3Arithmetic) {
  // Table 3: upper bound = practical TFLOPS / GFLOPs-per-image.
  const EngineModel engine = make_engine_model(a100(), "ViT_Tiny");
  EXPECT_NEAR(engine.upper_bound_img_per_s(), 236.3e12 / 1.37e9, 1.0);
  const EngineModel jetson = make_engine_model(jetson_orin_nano(), "ViT_Base");
  EXPECT_NEAR(jetson.upper_bound_img_per_s(), 11.4e12 / 16.86e9, 1.0);
}

TEST(EngineModel, IdealLatencyIsLinear) {
  const EngineModel engine = make_engine_model(v100(), "ResNet50");
  EXPECT_NEAR(engine.ideal_latency_s(64), 64.0 * engine.ideal_latency_s(1),
              1e-9);
  // Real latency exceeds the ideal everywhere (Fig. 6's solid vs dashed).
  EXPECT_GT(engine.estimate(64).latency_s, engine.ideal_latency_s(64));
}

TEST(EngineModel, SaturationIncreasesWithBatch) {
  const EngineModel engine = make_engine_model(a100(), "ViT_Small");
  EXPECT_LT(engine.saturation(1), engine.saturation(16));
  EXPECT_LT(engine.saturation(16), engine.saturation(1024));
  EXPECT_LE(engine.saturation(1 << 20), 1.0);
}

TEST(EngineModel, RooflineIsALowerEnvelopeAtLargeBatch) {
  const EngineModel engine = make_engine_model(a100(), "ViT_Base");
  // The uncalibrated roofline is optimistic: it must undercut the
  // calibrated latency at large batch.
  EXPECT_LT(engine.roofline_latency_s(1024), engine.estimate(1024).latency_s);
}

TEST(EngineModel, MemoryBudgetOverrideShrinksMaxBatch) {
  EngineModel engine = make_engine_model(jetson_orin_nano(), "ViT_Base");
  const std::int64_t before = engine.max_batch();
  engine.set_memory_budget_bytes(engine.memory_budget_bytes() / 2.0);
  EXPECT_LT(engine.max_batch(), before);
}

TEST(EngineModel, Int8RaisesThroughputFp32Lowers) {
  nn::ModelPtr model = nn::build_by_name("ResNet50");
  const auto spec = *nn::find_model_spec("ResNet50");
  const EngineModel native(a100(), spec, model->profile(1));
  const EngineModel int8(a100(), spec, model->profile(1), Precision::kINT8);
  const EngineModel fp32(a100(), spec, model->profile(1), Precision::kFP32);
  const double t_native = native.estimate(256).throughput_img_per_s;
  EXPECT_GT(int8.estimate(256).throughput_img_per_s, t_native);
  EXPECT_LT(fp32.estimate(256).throughput_img_per_s, t_native);
}

TEST(EngineModel, FallbackForUncalibratedPairsIsSane) {
  // Host CPU has no anchors; the heuristic must still give monotone,
  // bounded curves.
  const EngineModel engine = make_engine_model(host_cpu(), "ViT_Tiny");
  const EngineEstimate e1 = engine.estimate(1);
  const EngineEstimate e8 = engine.estimate(8);
  EXPECT_GT(e8.latency_s, e1.latency_s);
  EXPECT_GE(e8.throughput_img_per_s, e1.throughput_img_per_s);
  EXPECT_GT(engine.eff_max(), 0.0);
  EXPECT_LE(engine.eff_max(), 1.0);
}

// ---------------------------------------------------------------- memory

TEST(MemoryTracker, ReserveReleaseCycle) {
  MemoryTracker tracker(1000.0);
  EXPECT_TRUE(tracker.reserve("engine", 600.0).is_ok());
  EXPECT_DOUBLE_EQ(tracker.used_bytes(), 600.0);
  EXPECT_DOUBLE_EQ(tracker.available_bytes(), 400.0);
  EXPECT_TRUE(tracker.reserve("preproc", 400.0).is_ok());
  EXPECT_EQ(tracker.reservation_count(), 2u);
  EXPECT_TRUE(tracker.release("engine").is_ok());
  EXPECT_DOUBLE_EQ(tracker.used_bytes(), 400.0);
}

TEST(MemoryTracker, OverCommitIsOom) {
  MemoryTracker tracker(100.0);
  EXPECT_TRUE(tracker.reserve("a", 80.0).is_ok());
  const core::Status status = tracker.reserve("b", 30.0);
  EXPECT_EQ(status.code(), core::StatusCode::kOutOfMemory);
  EXPECT_DOUBLE_EQ(tracker.used_bytes(), 80.0);  // failed reserve is a no-op
}

TEST(MemoryTracker, ResizeExistingTag) {
  MemoryTracker tracker(100.0);
  EXPECT_TRUE(tracker.reserve("pool", 40.0).is_ok());
  EXPECT_TRUE(tracker.reserve("pool", 90.0).is_ok());  // grow within capacity
  EXPECT_DOUBLE_EQ(tracker.reserved_bytes("pool"), 90.0);
  EXPECT_FALSE(tracker.reserve("pool", 120.0).is_ok());
  EXPECT_DOUBLE_EQ(tracker.reserved_bytes("pool"), 90.0);
  EXPECT_TRUE(tracker.reserve("pool", 10.0).is_ok());  // shrink
  EXPECT_DOUBLE_EQ(tracker.used_bytes(), 10.0);
}

TEST(MemoryTracker, ReleaseUnknownTagFails) {
  MemoryTracker tracker(10.0);
  EXPECT_EQ(tracker.release("ghost").code(), core::StatusCode::kNotFound);
}

TEST(MemoryTracker, NegativeReservationRejected) {
  MemoryTracker tracker(10.0);
  EXPECT_EQ(tracker.reserve("x", -1.0).code(),
            core::StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------- gemm bench

TEST(GemmBench, SimulatedRateApproachesPracticalPeak) {
  const GemmPoint big = simulate_gemm_flops(a100(), 8192, Precision::kBF16);
  EXPECT_NEAR(big.gflops / 1000.0, 236.3, 236.3 * 0.02);
  const GemmPoint small = simulate_gemm_flops(a100(), 64, Precision::kBF16);
  EXPECT_LT(small.gflops, big.gflops);  // overhead dominates small GEMMs
}

TEST(GemmBench, SweepIsMonotoneTowardPeak) {
  const auto sweep =
      simulate_gemm_sweep(v100(), {256, 1024, 4096, 8192}, Precision::kFP16);
  ASSERT_EQ(sweep.size(), 4u);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GT(sweep[i].gflops, sweep[i - 1].gflops);
  }
  EXPECT_LE(sweep.back().gflops, 92.6e3);
}

TEST(GemmBench, HostMeasurementProducesRealRate) {
  const GemmPoint point = measure_host_gemm_flops(128, 2);
  EXPECT_GT(point.gflops, 0.05);  // any real machine beats 50 MFLOPS
  EXPECT_GT(point.seconds, 0.0);
  EXPECT_EQ(point.size, 128);
}

}  // namespace
}  // namespace harvest::platform
