#pragma once

/// \file obs_util.hpp
/// Shared observability pass for the bench harness: when a bench is run
/// with `--trace=<file>` / `--metrics=<file>`, this drives a short burst
/// of *real* requests through the serving stack (Server → DynamicBatcher
/// → NativeBackend executing a scaled-down ViT) with the trace recorder
/// armed, then writes the Chrome trace-event JSON, the Prometheus text
/// exposition, and prints the per-layer MFU table. The goal is a
/// load-anything artifact: open the trace in Perfetto and see the
/// queue → preprocess → inference → respond → deliver lifecycle of every
/// request plus the per-layer spans inside each forward.

#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cli.hpp"
#include "core/log.hpp"
#include "nn/init.hpp"
#include "nn/mfu.hpp"
#include "nn/models.hpp"
#include "obs/critical_path.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "platform/gemm_bench.hpp"
#include "preproc/codec.hpp"
#include "preproc/image.hpp"
#include "serving/native_backend.hpp"
#include "serving/resilience/retry.hpp"
#include "serving/server.hpp"
#include "tensor/tensor.hpp"

namespace harvest::bench {

/// Output destinations requested on the command line; empty = skip.
struct ObsArtifacts {
  std::string trace_path;
  std::string metrics_path;
};

inline ObsArtifacts obs_artifacts(const core::CliArgs& args) {
  return ObsArtifacts{args.get("trace", ""), args.get("metrics", "")};
}

inline bool obs_requested(const ObsArtifacts& obs) {
  return !obs.trace_path.empty() || !obs.metrics_path.empty();
}

/// The scaled-down ViT used for the live pass: real attention blocks so
/// per-layer spans and the FLOPs join are meaningful, sized so the whole
/// burst finishes in well under a second on a laptop CPU.
inline nn::ViTConfig live_vit_config() {
  nn::ViTConfig config;
  config.name = "vit_live";
  config.image = 32;
  config.patch = 8;
  config.dim = 64;
  config.depth = 4;
  config.heads = 4;
  config.mlp_ratio = 2;
  config.num_classes = 39;
  return config;
}

/// Run the live characterization burst and write the requested
/// artifacts. Returns true when every requested file was written.
inline bool run_live_characterization(const ObsArtifacts& obs) {
  using namespace std::chrono_literals;
  static constexpr std::int64_t kMaxBatch = 4;
  constexpr int kBurst = 8;     ///< back-to-back → full-batch flushes
  constexpr int kTrickle = 8;   ///< spaced → max-delay timeout flushes
  const std::string model_name = "vit_live";

  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  if (!obs.trace_path.empty()) {
    recorder.enable();
    recorder.set_thread_name("bench-main");
  }

  bool ok = true;
  {
    serving::Server server(/*preproc_threads=*/2);
    serving::ModelDeploymentConfig config;
    config.name = model_name;
    config.max_batch = kMaxBatch;
    config.instances = 1;
    config.max_queue_delay_s = 2e-3;
    config.preproc.output_size = live_vit_config().image;
    // Declare an SLO so the Prometheus dump exercises the burn-rate
    // gauges and the latency digest carries exemplars worth following.
    config.slo.latency_target_s = 0.25;
    config.slo.availability_target = 0.99;
    config.slo_window_s = 10.0;
    const core::Status registered =
        server.register_model(config, [] {
          nn::ModelPtr model = nn::build_vit(live_vit_config());
          nn::init_weights(*model, /*seed=*/7);
          return std::make_unique<serving::NativeBackend>(std::move(model),
                                                          kMaxBatch);
        });
    if (!registered.is_ok()) {
      std::printf("[obs] could not deploy %s: %s\n", model_name.c_str(),
                  registered.message().c_str());
      return false;
    }

    obs::TimeSeriesSampler sampler;
    sampler.add_probe("queue_depth", [&] {
      return static_cast<double>(server.queue_depth(model_name));
    });
    sampler.add_probe("inflight", [&] {
      const serving::MetricsRegistry* metrics = server.metrics(model_name);
      return metrics != nullptr ? static_cast<double>(metrics->inflight())
                                : 0.0;
    });
    sampler.start(/*interval_s=*/1e-3);

    // Submit through the retrying frontend so every request tree carries
    // the full span hierarchy: client_request → request → queue /
    // preprocess / inference / respond, and client_request → deliver
    // for each response's trip back to its client thread.
    serving::resilience::RetryPolicy retry;
    retry.max_attempts = 2;
    serving::resilience::RetryingClient client(server, retry);

    auto submit_one = [&client, &model_name](std::uint64_t seed) {
      return std::async(std::launch::async, [&client, &model_name, seed] {
        const preproc::Image img =
            preproc::synthesize_field_image(24, 24, seed);
        serving::InferenceRequest request;
        request.model = model_name;
        request.input =
            preproc::encode_image(img, preproc::ImageFormat::kAgJpeg);
        return client.infer_sync(std::move(request));
      });
    };

    std::vector<std::future<serving::InferenceResponse>> pending;
    for (int i = 0; i < kBurst; ++i) {
      pending.push_back(submit_one(static_cast<std::uint64_t>(i)));
    }
    for (int i = 0; i < kTrickle; ++i) {
      std::this_thread::sleep_for(4ms);  // outlives max_queue_delay_s
      pending.push_back(submit_one(static_cast<std::uint64_t>(kBurst + i)));
    }
    int completed = 0;
    for (auto& future : pending) {
      if (future.get().status.is_ok()) ++completed;
    }
    sampler.stop();
    std::printf("[obs] live pass: %d/%zu requests completed\n", completed,
                pending.size());

    // Worked critical-path example (docs/OBSERVABILITY.md): walk the
    // first recorded request tree and attribute its end-to-end latency.
    if (!obs.trace_path.empty()) {
      const core::Json doc = recorder.to_json();
      const std::vector<std::uint64_t> ids = obs::trace_ids(doc);
      if (!ids.empty()) {
        auto path = obs::critical_path(doc, ids.front());
        if (path.is_ok()) {
          std::printf("\nCritical path, trace %llu of %zu:\n%s",
                      static_cast<unsigned long long>(ids.front()), ids.size(),
                      path.value().to_string().c_str());
        }
      }
    }

    if (!obs.metrics_path.empty()) {
      const std::string text = server.prometheus_text();
      std::FILE* f = std::fopen(obs.metrics_path.c_str(), "w");
      if (f != nullptr) {
        const bool wrote =
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
        const bool closed = std::fclose(f) == 0;
        ok = ok && wrote && closed;
        std::printf("[obs] Prometheus exposition → %s\n",
                    obs.metrics_path.c_str());
      } else {
        std::printf("[obs] could not open %s\n", obs.metrics_path.c_str());
        ok = false;
      }
    }
    server.shutdown();
  }

  if (!obs.trace_path.empty()) {
    const bool wrote = recorder.write(obs.trace_path);
    if (wrote) {
      std::printf("[obs] Chrome trace (%zu events%s) → %s — load it at "
                  "https://ui.perfetto.dev\n",
                  recorder.event_count(),
                  recorder.dropped() > 0 ? ", ring overflowed" : "",
                  obs.trace_path.c_str());
    } else {
      std::printf("[obs] could not write trace to %s\n",
                  obs.trace_path.c_str());
    }
    recorder.disable();
    ok = ok && wrote;
  }
  return ok;
}

inline constexpr std::int64_t kLiveMfuBatch = 4;

/// Per-layer MFU table for the live model: measured layer times joined
/// with analytic FLOPs, against the sustained host GEMM rate as peak.
inline void print_live_mfu_table() {
  const platform::GemmPoint peak =
      platform::measure_host_gemm_flops(/*size=*/256, /*iters=*/2);
  nn::ModelPtr model = nn::build_vit(live_vit_config());
  nn::init_weights(*model, /*seed=*/7);
  const nn::ViTConfig config = live_vit_config();
  const tensor::Tensor input = tensor::Tensor::full(
      {kLiveMfuBatch, 3, config.image, config.image}, 0.5f);
  const nn::MfuReport report =
      nn::profile_layer_mfu(*model, input, peak.gflops);
  std::printf("\nPer-layer MFU, %s @ batch %lld (peak = host GEMM "
              "%.1f GFLOP/s):\n",
              model->name().c_str(), static_cast<long long>(kLiveMfuBatch),
              peak.gflops);
  std::fputs(report.to_table().c_str(), stdout);
}

}  // namespace harvest::bench
