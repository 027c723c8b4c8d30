#include "serving/repository.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/init.hpp"
#include "nn/models.hpp"
#include "nn/quant.hpp"
#include "nn/rwkv.hpp"
#include "nn/serialize.hpp"
#include "platform/perf_model.hpp"
#include "nn/token_model.hpp"
#include "serving/native_backend.hpp"
#include "serving/resilience/fault.hpp"
#include "serving/sequence/sequence_backend.hpp"
#include "serving/sim_backend.hpp"

namespace harvest::serving {
namespace {

core::Result<nn::ModelPtr> build_native_model(const core::Json& entry) {
  const std::string architecture = entry.get_string("architecture", "vit");
  const std::int64_t classes = entry.get_int("classes", 39);
  nn::ModelPtr model;
  if (architecture == "vit") {
    nn::ViTConfig config;
    config.name = entry.get_string("name", "vit");
    config.image = entry.get_int("image", 32);
    config.patch = entry.get_int("patch", 4);
    config.dim = entry.get_int("dim", 64);
    config.depth = entry.get_int("depth", 2);
    config.heads = entry.get_int("heads", 4);
    config.num_classes = classes;
    if (config.dim % config.heads != 0) {
      return core::Status::invalid_argument("dim must divide into heads");
    }
    model = nn::build_vit(config);
  } else if (architecture == "resnet") {
    nn::ResNetConfig config;
    config.name = entry.get_string("name", "resnet");
    config.image = entry.get_int("image", 64);
    config.num_classes = classes;
    const core::Json* stages = entry.find("stages");
    if (stages != nullptr && stages->is_array()) {
      config.stage_blocks.clear();
      for (const core::Json& stage : stages->as_array()) {
        config.stage_blocks.push_back(stage.as_int());
      }
    } else {
      config.stage_blocks = {1, 1};
    }
    model = nn::build_resnet(config);
  } else if (architecture == "rwkv") {
    nn::RwkvConfig config;
    config.name = entry.get_string("name", "rwkv");
    config.image = entry.get_int("image", 32);
    config.patch = entry.get_int("patch", 4);
    config.dim = entry.get_int("dim", 64);
    config.depth = entry.get_int("depth", 2);
    config.num_classes = classes;
    model = nn::build_rwkv(config);
  } else {
    return core::Status::invalid_argument("unknown architecture: " +
                                          architecture);
  }

  nn::init_weights(*model,
                   static_cast<std::uint64_t>(entry.get_int("seed", 1)));
  const std::string weights = entry.get_string("weights", "");
  if (!weights.empty()) {
    HARVEST_RETURN_IF_ERROR(nn::load_weights(*model, weights));
  }
  // Quantize after the weights are final — the rewrite snapshots them.
  if (entry.get_string("precision", "fp32") == "int8") {
    nn::quantize_model(*model);
  }
  // AOT weight packing: the per-call GEMM pack pass moves out of the
  // steady-state forward and into the measured model-load cold start.
  model->prepare();
  return model;
}

/// The token-model keys of a "workload": "sequence" entry, shared by
/// its native and sim backends.
core::Result<nn::TokenModelConfig> parse_token_model_config(
    const core::Json& entry) {
  nn::TokenModelConfig config;
  config.name = entry.get_string("name", "agri-lm");
  config.arch = entry.get_string("architecture", "rwkv");
  config.vocab = entry.get_int("vocab", 512);
  config.dim = entry.get_int("dim", 128);
  config.depth = entry.get_int("depth", 4);
  config.heads = entry.get_int("heads", 4);
  config.max_tokens = entry.get_int("max_tokens", 256);
  if (config.arch != "rwkv" && config.arch != "attn") {
    return core::Status::invalid_argument("unknown architecture: " +
                                          config.arch);
  }
  if (config.vocab <= 0 || config.dim <= 0 || config.depth <= 0 ||
      config.max_tokens <= 0) {
    return core::Status::invalid_argument(
        "sequence entry needs vocab/dim/depth/max_tokens > 0");
  }
  if (config.arch == "attn" &&
      (config.heads <= 0 || config.dim % config.heads != 0)) {
    return core::Status::invalid_argument("dim must divide into heads");
  }
  return config;
}

core::Result<nn::TokenModelPtr> build_token_model_entry(
    const nn::TokenModelConfig& config, const core::Json& entry) {
  nn::TokenModelPtr model = nn::build_token_model(config);
  nn::init_token_model(*model,
                       static_cast<std::uint64_t>(entry.get_int("seed", 1)));
  const std::string weights = entry.get_string("weights", "");
  if (!weights.empty()) {
    HARVEST_RETURN_IF_ERROR(nn::load_token_model(*model, weights));
  }
  // As for image models: pack the GEMM weights at load, not in the first
  // decode step.
  model->prepare();
  return model;
}

/// "workload": "sequence" entries deploy a continuous-batching token
/// model (docs/SEQUENCE_SERVING.md) instead of an image deployment.
core::Status register_sequence_entry(Server& server, const core::Json& entry) {
  SequenceDeploymentConfig deployment;
  deployment.name = entry.get_string("name", "");
  deployment.scheduler.max_active = entry.get_int("max_active", 8);
  deployment.scheduler.max_queue_depth =
      static_cast<std::size_t>(entry.get_int("max_queue_depth", 256));
  deployment.scheduler.length_multiple_of =
      entry.get_int("length_multiple_of", 1);
  deployment.scheduler.default_max_new_tokens =
      entry.get_int("max_new_tokens", 32);
  deployment.scheduler.default_deadline_s =
      entry.get_number("deadline_ms", 0.0) * 1e-3;
  deployment.pool.slots =
      entry.get_int("slots", std::max<std::int64_t>(
                                 deployment.scheduler.max_active, 1));
  deployment.pool.capacity_bytes =
      static_cast<std::size_t>(entry.get_int("state_capacity_bytes", 0));
  deployment.pool.idle_timeout_s = entry.get_number("idle_timeout_s", 0.0);
  if (deployment.scheduler.max_active <= 0 ||
      deployment.scheduler.length_multiple_of <= 0) {
    return core::Status::invalid_argument(
        "sequence entry needs max_active > 0 and length_multiple_of > 0");
  }
  if (deployment.pool.slots < deployment.scheduler.max_active) {
    return core::Status::invalid_argument(
        "sequence entry needs slots >= max_active");
  }
  auto parsed = parse_token_model_config(entry);
  if (!parsed.is_ok()) return parsed.status();
  const nn::TokenModelConfig config = std::move(parsed).value();

  const std::string backend = entry.get_string("backend", "native");
  if (backend == "native") {
    // Built (and its weights loaded) here, so a broken entry fails
    // before registration; the factory hands this one model over.
    auto built = build_token_model_entry(config, entry);
    if (!built.is_ok()) return built.status();
    auto model = std::make_shared<nn::TokenModelPtr>(std::move(built).value());
    const std::int64_t multiple = deployment.scheduler.length_multiple_of;
    return server.register_sequence_model(
        deployment, [model, multiple]() -> sequence::SequenceBackendPtr {
          if (*model == nullptr) return nullptr;
          return std::make_unique<sequence::NativeSequenceBackend>(
              std::move(*model), multiple);
        });
  }
  if (backend == "sim") {
    double mac_rate = 50e9;
    if (const std::string device_name = entry.get_string("device", "");
        !device_name.empty()) {
      const platform::DeviceSpec* device = platform::find_device(device_name);
      if (device == nullptr) {
        return core::Status::invalid_argument("unknown device: " +
                                              device_name);
      }
      // practical TFLOPs → MAC/s (one MAC = two FLOPs).
      mac_rate =
          device->practical_tflops_at(platform::Precision::kFP32) * 0.5e12;
    }
    const auto cost = sequence::TokenCostModel::for_model(config, mac_rate);
    const auto seed = static_cast<std::uint64_t>(entry.get_int("seed", 42));
    return server.register_sequence_model(
        deployment, [config, cost, seed]() -> sequence::SequenceBackendPtr {
          return std::make_unique<sequence::SimSequenceBackend>(config, cost,
                                                                seed);
        });
  }
  return core::Status::invalid_argument("unknown backend: " + backend);
}

core::Status register_entry(
    Server& server, const core::Json& entry,
    std::vector<std::pair<std::string, std::string>>& degrade_edges) {
  if (!entry.is_object()) {
    return core::Status::invalid_argument("model entry must be an object");
  }
  const std::string workload = entry.get_string("workload", "image");
  if (workload == "sequence") {
    return register_sequence_entry(server, entry);
  }
  if (workload != "image") {
    return core::Status::invalid_argument("unknown workload: " + workload);
  }
  ModelDeploymentConfig deployment;
  deployment.name = entry.get_string("name", "");
  deployment.max_batch = entry.get_int("max_batch", 8);
  deployment.instances = entry.get_int("instances", 1);
  if (deployment.instances <= 0) {
    return core::Status::invalid_argument(
        "deployment '" + deployment.name + "' needs instances > 0 (got " +
        std::to_string(deployment.instances) + ")");
  }
  deployment.max_queue_delay_s =
      entry.get_number("max_queue_delay_ms", 2.0) * 1e-3;
  deployment.batched_preproc = entry.get_bool("batched_preproc", true);
  // Multi-tenancy keys (docs/MULTITENANCY.md): the fair-share principal
  // this deployment bills to, its WFQ weight and outstanding-request
  // quota, and the batcher's back-pressure bound.
  deployment.tenant = entry.get_string("tenant", "");
  deployment.weight = entry.get_number("weight", 1.0);
  deployment.quota = entry.get_int("quota", 0);
  const std::int64_t queue_capacity = entry.get_int("queue_capacity", 4096);
  if (queue_capacity <= 0) {
    return core::Status::invalid_argument(
        "deployment '" + deployment.name + "' needs queue_capacity > 0 (got " +
        std::to_string(queue_capacity) + ")");
  }
  deployment.queue_capacity = static_cast<std::size_t>(queue_capacity);
  if (deployment.weight <= 0.0) {
    return core::Status::invalid_argument(
        "deployment '" + deployment.name + "' needs weight > 0");
  }
  if (deployment.quota < 0) {
    return core::Status::invalid_argument(
        "deployment '" + deployment.name + "' needs quota >= 0");
  }
  if (const core::Json* preferred = entry.find("preferred_batch_sizes")) {
    if (preferred->is_array()) {
      for (const core::Json& size : preferred->as_array()) {
        deployment.preferred_batch_sizes.push_back(size.as_int());
      }
    }
  }
  if (const core::Json* preproc = entry.find("preproc")) {
    deployment.preproc.output_size = preproc->get_int("output_size", 224);
    deployment.preproc.perspective = preproc->get_bool("perspective", false);
    if (deployment.preproc.output_size < 1) {
      return core::Status::invalid_argument(
          "deployment '" + deployment.name +
          "' needs preproc.output_size >= 1 (got " +
          std::to_string(deployment.preproc.output_size) + ")");
    }
  }

  // Resilience keys (docs/RESILIENCE.md): fault injection decorates the
  // deployment's backends; admission/degrade_to configure overload
  // control. degrade_to targets are validated after the whole repository
  // is loaded, so a twin may be declared later in the array.
  resilience::FaultPlan faults;
  if (const core::Json* fault_json = entry.find("faults")) {
    auto parsed = resilience::parse_fault_plan(*fault_json);
    if (!parsed.is_ok()) return parsed.status();
    faults = parsed.value();
  }
  if (const core::Json* admission_json = entry.find("admission")) {
    auto parsed = resilience::parse_admission_config(*admission_json);
    if (!parsed.is_ok()) return parsed.status();
    deployment.admission = parsed.value();
  }
  // Service-level objectives (docs/OBSERVABILITY.md): latency and
  // availability targets feeding the burn-rate tracker. Optional keys
  // tune the sliding window and the admission-pressure alert threshold.
  if (const core::Json* slo_json = entry.find("slo")) {
    if (!slo_json->is_object()) {
      return core::Status::invalid_argument("\"slo\" must be an object");
    }
    deployment.slo.latency_target_s =
        slo_json->get_number("latency_target_ms", 0.0) * 1e-3;
    deployment.slo.availability_target =
        slo_json->get_number("availability_target", 0.0);
    deployment.slo_window_s = slo_json->get_number("window_s", 60.0);
    deployment.slo_burn_alert = slo_json->get_number("burn_alert", 2.0);
    if (deployment.slo.latency_target_s < 0.0 ||
        deployment.slo.availability_target < 0.0 ||
        deployment.slo.availability_target >= 1.0 ||
        deployment.slo_window_s <= 0.0 || deployment.slo_burn_alert <= 0.0) {
      return core::Status::invalid_argument(
          "slo needs latency_target_ms >= 0, availability_target in [0, 1), "
          "window_s > 0, burn_alert > 0");
    }
  }

  deployment.degrade_to = entry.get_string("degrade_to", "");
  if (deployment.degrade_to == deployment.name &&
      !deployment.degrade_to.empty()) {
    return core::Status::invalid_argument(
        "degrade_to must not point at the deployment itself: " +
        deployment.name);
  }
  if (!deployment.degrade_to.empty()) {
    degrade_edges.emplace_back(deployment.name, deployment.degrade_to);
  }

  const std::string backend = entry.get_string("backend", "native");
  deployment.precision = entry.get_string("precision", "fp32");
  if (deployment.precision != "fp32" && deployment.precision != "int8") {
    return core::Status::invalid_argument("unknown precision: " +
                                          deployment.precision);
  }
  if (backend == "sim" && deployment.precision != "fp32") {
    return core::Status::invalid_argument(
        "sim backend only supports fp32 (the device model prices fp16/int8 "
        "analytically elsewhere)");
  }
  if (backend == "native") {
    if (deployment.preproc.output_size == 224 && !entry.contains("preproc")) {
      // Default the preprocessing size to the model's input when the
      // config does not pin it.
      deployment.preproc.output_size = entry.get_int("image", 32);
    }
    // Validate the model once up front so a broken entry fails here,
    // not inside the instance factory.
    auto probe = build_native_model(entry);
    if (!probe.is_ok()) return probe.status();
    // Resident-bytes accounting for the weight store: what one built
    // backend stream of this model keeps in memory.
    for (const nn::NamedParam& param : probe.value()->params()) {
      if (param.tensor != nullptr) {
        deployment.model_bytes += param.tensor->size_bytes();
      }
    }
    // Weight-sharing key: the content signature of what the factory
    // builds. Deployments with equal signatures (same backbone at the
    // same precision and batch shape) share in-memory streams. An
    // explicit "weight_key" overrides; fault-injected deployments stay
    // private (their decorated streams are not interchangeable).
    if (entry.contains("weight_key")) {
      deployment.weight_key = entry.get_string("weight_key", "");
    } else if (entry.find("faults") == nullptr) {
      std::string stages_sig;
      if (const core::Json* stages = entry.find("stages");
          stages != nullptr && stages->is_array()) {
        for (const core::Json& stage : stages->as_array()) {
          stages_sig += std::to_string(stage.as_int()) + ",";
        }
      }
      deployment.weight_key =
          "native|" + entry.get_string("architecture", "vit") + "|" +
          std::to_string(entry.get_int("image", 32)) + "|" +
          std::to_string(entry.get_int("patch", 4)) + "|" +
          std::to_string(entry.get_int("dim", 64)) + "|" +
          std::to_string(entry.get_int("depth", 2)) + "|" +
          std::to_string(entry.get_int("heads", 4)) + "|" +
          std::to_string(entry.get_int("classes", 39)) + "|" + stages_sig +
          "|" + std::to_string(entry.get_int("seed", 1)) + "|" +
          entry.get_string("weights", "") + "|" + deployment.precision + "|" +
          std::to_string(deployment.max_batch);
    }
    const std::int64_t max_batch = deployment.max_batch;
    const std::string precision = deployment.precision;
    // The factory runs once per instance, in order, on one thread; the
    // counter salts each instance's fault stream so siblings fail
    // independently but reproducibly.
    return server.register_model(
        deployment,
        [entry, max_batch, precision, faults,
         salt = std::make_shared<std::atomic<std::uint64_t>>(0)]()
            -> BackendPtr {
          auto model = build_native_model(entry);
          if (!model.is_ok()) return nullptr;
          BackendPtr built = std::make_unique<NativeBackend>(
              std::move(model).value(), max_batch, precision);
          return resilience::wrap_with_faults(std::move(built), faults,
                                              salt->fetch_add(1));
        });
  }
  if (backend == "sim") {
    const std::string model_name = entry.get_string("model", "");
    const std::string device_name = entry.get_string("device", "");
    const platform::DeviceSpec* device = platform::find_device(device_name);
    if (device == nullptr) {
      return core::Status::invalid_argument("unknown device: " + device_name);
    }
    if (!nn::find_model_spec(model_name).has_value()) {
      return core::Status::invalid_argument("unknown sim model: " + model_name);
    }
    if (!entry.contains("preproc")) {
      deployment.preproc.output_size =
          nn::find_model_spec(model_name)->input_size;
    }
    const std::int64_t classes = entry.get_int("classes", 39);
    const std::int64_t max_batch = deployment.max_batch;
    // Sim backends are weightless (model_bytes stays 0; never paged)
    // but still dedup: same (model, device, classes, batch) share.
    if (entry.contains("weight_key")) {
      deployment.weight_key = entry.get_string("weight_key", "");
    } else if (entry.find("faults") == nullptr) {
      deployment.weight_key = "sim|" + model_name + "|" + device_name + "|" +
                              std::to_string(classes) + "|" +
                              std::to_string(max_batch);
    }
    return server.register_model(
        deployment,
        [model_name, device, classes, max_batch, faults,
         salt = std::make_shared<std::atomic<std::uint64_t>>(0)]()
            -> BackendPtr {
          BackendPtr built = std::make_unique<SimBackend>(
              platform::make_engine_model(*device, model_name), classes,
              max_batch);
          return resilience::wrap_with_faults(std::move(built), faults,
                                              salt->fetch_add(1));
        });
  }
  return core::Status::invalid_argument("unknown backend: " + backend);
}

}  // namespace

core::Status load_repository(Server& server, const core::Json& config) {
  const core::Json* models = config.find("models");
  if (models == nullptr || !models->is_array()) {
    return core::Status::invalid_argument(
        "repository config needs a \"models\" array");
  }
  // Duplicate-name pre-pass: fail before registering anything, naming
  // the offender. (The server would also reject the second
  // registration, but by then the first half of the repository is
  // already live — fail-fast keeps a bad config all-or-nothing up to
  // the duplicate.)
  {
    std::vector<std::string> seen;
    for (const core::Json& entry : models->as_array()) {
      if (!entry.is_object()) continue;  // register_entry reports this
      const std::string name = entry.get_string("name", "");
      if (name.empty()) continue;
      if (std::find(seen.begin(), seen.end(), name) != seen.end()) {
        return core::Status::invalid_argument(
            "duplicate deployment name in repository: '" + name + "'");
      }
      seen.push_back(name);
    }
  }
  // Fleet-level keys: a pinned shared-pool size (consolidation below
  // the sum of instances) and the weight store's paging budget. Applied
  // before any model registers so the first deployment already obeys.
  if (config.contains("workers")) {
    const std::int64_t workers = config.get_int("workers", 0);
    if (workers <= 0) {
      return core::Status::invalid_argument(
          "repository \"workers\" must be > 0");
    }
    server.set_worker_target(static_cast<std::size_t>(workers));
  }
  if (config.contains("weight_budget_bytes")) {
    const std::int64_t budget = config.get_int("weight_budget_bytes", 0);
    if (budget < 0) {
      return core::Status::invalid_argument(
          "repository \"weight_budget_bytes\" must be >= 0");
    }
    server.weight_store().set_budget_bytes(static_cast<std::size_t>(budget));
  }
  std::vector<std::pair<std::string, std::string>> degrade_edges;
  for (const core::Json& entry : models->as_array()) {
    HARVEST_RETURN_IF_ERROR(register_entry(server, entry, degrade_edges));
  }
  // Post-pass: every degrade target must be a registered deployment.
  for (const auto& [from, to] : degrade_edges) {
    if (server.metrics(to) == nullptr) {
      return core::Status::invalid_argument(
          "deployment '" + from + "' degrades to unknown deployment '" + to +
          "'");
    }
  }
  return core::Status::ok();
}

core::Status load_repository_file(Server& server, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return core::Status::not_found("cannot open " + path);
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(f);
  auto parsed = core::Json::parse(text);
  if (!parsed.is_ok()) return parsed.status();
  return load_repository(server, parsed.value());
}

}  // namespace harvest::serving
