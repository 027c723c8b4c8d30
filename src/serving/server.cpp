#include "serving/server.hpp"

#include <mutex>
#include <shared_mutex>
#include <utility>

#include "core/log.hpp"
#include "obs/trace.hpp"

namespace harvest::serving {

Server::Server(std::size_t preproc_threads)
    : preproc_pool_(std::max<std::size_t>(preproc_threads, 1)),
      worker_pool_(weight_store_) {}

Server::~Server() { shutdown(); }

void Server::set_worker_target(std::size_t workers) {
  std::unique_lock lock(deployments_mutex_);
  worker_target_ = workers;
  if (workers > 0) worker_pool_.ensure_workers(workers);
}

core::Status Server::register_model(
    const ModelDeploymentConfig& config,
    const std::function<BackendPtr()>& backend_factory) {
  if (config.name.empty()) {
    return core::Status::invalid_argument("model name must not be empty");
  }
  if (config.instances < 1 || config.max_batch < 1) {
    return core::Status::invalid_argument("instances and max_batch must be >=1");
  }
  if (config.queue_capacity < 1) {
    return core::Status::invalid_argument("queue_capacity must be >= 1");
  }
  if (config.weight <= 0.0 || config.quota < 0) {
    return core::Status::invalid_argument(
        "tenant weight must be > 0 and quota >= 0");
  }
  // Writer side: the name check and the final emplace must be atomic
  // with respect to concurrent registrations and readers.
  std::unique_lock lock(deployments_mutex_);
  if (deployments_.count(config.name) != 0) {
    return core::Status::invalid_argument("model already registered: " +
                                          config.name);
  }
  if (shut_down_.load(std::memory_order_acquire)) {
    return core::Status::unavailable("server is shut down");
  }
  auto deployment = std::make_unique<Deployment>(config);
  deployment->batcher.set_trace_label(config.name);
  // Queue-depth gauge for the Prometheus exposition; the batcher
  // outlives the metrics registry's consumers (both live in Deployment).
  DynamicBatcher* batcher = &deployment->batcher;
  deployment->metrics.set_queue_depth_probe(
      [batcher] { return batcher->queued(); });
  if (config.slo.enabled()) {
    deployment->metrics.configure_slo(config.slo, config.slo_window_s);
    // Burn-rate feedback into the resilience layer: while the error
    // budget burns faster than the alert threshold, the admission
    // controller runs with tightened thresholds (sheds earlier), giving
    // the deployment headroom to recover. Edge-triggered both ways.
    resilience::AdmissionController* admission = &deployment->admission;
    const std::string model_name = config.name;
    deployment->metrics.set_slo_alert(
        config.slo_burn_alert,
        [admission, model_name](bool firing, double burn) {
          admission->set_pressure(firing);
          HARVEST_LOG_WARN("slo burn alert %s for '%s' (burn rate %.2f)",
                           firing ? "FIRING" : "resolved", model_name.c_str(),
                           burn);
        });
  }
  // Backend streams come from the deduplicated weight store: equal
  // weight keys share one entry (one set of in-memory streams); an
  // empty key gets a private, unshared entry.
  const std::string weight_key = config.weight_key.empty()
                                     ? "private:" + config.name
                                     : config.weight_key;
  auto entry = weight_store_.acquire(
      weight_key, backend_factory,
      static_cast<std::size_t>(config.instances), config.model_bytes);
  if (!entry.is_ok()) {
    deployment->batcher.shutdown();
    return entry.status();
  }
  deployment->entry = entry.value();
  // Tenant registry: the fair-share/quota principal. Several
  // deployments may bill to one tenant; non-default weight/quota
  // declarations win over the defaults earlier siblings left.
  const std::string tenant_name =
      config.tenant.empty() ? config.name : config.tenant;
  const auto tenant_it = tenants_.find(tenant_name);
  if (tenant_it == tenants_.end()) {
    auto tenant = std::make_shared<TenantState>();
    tenant->name = tenant_name;
    tenant->weight.store(config.weight, std::memory_order_relaxed);
    tenant->quota.store(config.quota, std::memory_order_relaxed);
    deployment->tenant = tenant;
    tenants_.emplace(tenant_name, std::move(tenant));
  } else {
    deployment->tenant = tenant_it->second;
    if (config.weight != 1.0) {
      deployment->tenant->weight.store(config.weight,
                                       std::memory_order_relaxed);
    }
    if (config.quota != 0) {
      deployment->tenant->quota.store(config.quota, std::memory_order_relaxed);
    }
  }
  deployment->executor = std::make_unique<BatchExecutor>(
      config.name, config.preproc, deployment->metrics,
      config.batched_preproc ? &preproc_pool_ : nullptr,
      &deployment->admission);
  worker_pool_.add_deployment(config.name, deployment->tenant,
                              &deployment->batcher, deployment->entry,
                              deployment->executor.get(),
                              &deployment->metrics, config.instances);
  deployment->batcher.set_ready_callback([this] { worker_pool_.notify(); });
  total_instances_ += static_cast<std::size_t>(config.instances);
  // Auto-sized pool keeps the pre-pool concurrency (one worker per
  // declared instance); an explicit target consolidates below that.
  worker_pool_.ensure_workers(worker_target_ > 0 ? worker_target_
                                                 : total_instances_);
  deployments_.emplace(config.name, std::move(deployment));
  HARVEST_LOG_INFO("deployed model '%s': %lld instance cap, max batch %lld, "
                   "max queue delay %.3f ms, tenant '%s'",
                   config.name.c_str(),
                   static_cast<long long>(config.instances),
                   static_cast<long long>(config.max_batch),
                   config.max_queue_delay_s * 1e3, tenant_name.c_str());
  return core::Status::ok();
}

core::Status Server::register_sequence_model(
    const SequenceDeploymentConfig& config,
    const std::function<sequence::SequenceBackendPtr()>& backend_factory) {
  if (config.name.empty()) {
    return core::Status::invalid_argument("model name must not be empty");
  }
  std::unique_lock lock(deployments_mutex_);
  if (deployments_.count(config.name) != 0 ||
      sequence_deployments_.count(config.name) != 0) {
    return core::Status::invalid_argument("model already registered: " +
                                          config.name);
  }
  if (shut_down_.load(std::memory_order_acquire)) {
    return core::Status::unavailable("server is shut down");
  }
  sequence::SequenceBackendPtr backend = backend_factory();
  if (backend == nullptr) {
    return core::Status::internal("sequence backend factory returned null");
  }
  auto deployment = std::make_unique<SequenceDeployment>();
  deployment->config = config;
  deployment->scheduler = std::make_unique<sequence::SequenceScheduler>(
      config.name, std::move(backend), config.pool, config.scheduler,
      &deployment->metrics);
  HARVEST_LOG_INFO(
      "deployed sequence model '%s': max active %lld, %lld state slot(s), "
      "%zu-deep queue",
      config.name.c_str(), static_cast<long long>(config.scheduler.max_active),
      static_cast<long long>(deployment->scheduler->pool().slots()),
      config.scheduler.max_queue_depth);
  sequence_deployments_.emplace(config.name, std::move(deployment));
  return core::Status::ok();
}

core::Result<std::future<sequence::SequenceResponse>> Server::submit_sequence(
    sequence::SequenceRequest request) {
  if (shut_down_.load(std::memory_order_acquire)) {
    return core::Status::unavailable("server is shut down");
  }
  std::shared_lock lock(deployments_mutex_);
  const auto it = sequence_deployments_.find(request.model);
  if (it == sequence_deployments_.end()) {
    return core::Status::not_found("no sequence model named " + request.model);
  }
  if (request.id == 0) {
    request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second->scheduler->submit(std::move(request));
}

sequence::SequenceResponse Server::generate_sync(
    sequence::SequenceRequest request) {
  auto submitted = submit_sequence(std::move(request));
  if (!submitted.is_ok()) {
    sequence::SequenceResponse response;
    response.status = submitted.status();
    response.outcome =
        submitted.status().code() == core::StatusCode::kResourceExhausted
            ? sequence::SequenceOutcome::kShed
            : sequence::SequenceOutcome::kFailed;
    return response;
  }
  return submitted.value().get();
}

const sequence::SequenceScheduler* Server::sequence_scheduler(
    const std::string& model) const {
  std::shared_lock lock(deployments_mutex_);
  const auto it = sequence_deployments_.find(model);
  return it == sequence_deployments_.end() ? nullptr
                                           : it->second->scheduler.get();
}

std::vector<std::string> Server::sequence_model_names() const {
  std::shared_lock lock(deployments_mutex_);
  std::vector<std::string> names;
  names.reserve(sequence_deployments_.size());
  for (const auto& [name, unused] : sequence_deployments_) {
    names.push_back(name);
  }
  return names;
}

core::Result<std::future<InferenceResponse>> Server::submit(
    InferenceRequest request) {
  if (shut_down_.load(std::memory_order_acquire)) {
    return core::Status::unavailable("server is shut down");
  }
  std::shared_lock lock(deployments_mutex_);
  const auto it = deployments_.find(request.model);
  if (it == deployments_.end()) {
    return core::Status::not_found("no model named " + request.model);
  }
  if (request.id == 0) {
    request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  }
  // Tenant quota gate — before admission control, because a tenant over
  // its outstanding budget must be rejected regardless of how healthy
  // the target deployment's queue is (isolation, not overload).
  if (const TenantPtr& tenant = it->second->tenant; tenant != nullptr) {
    const std::int64_t quota =
        tenant->quota.load(std::memory_order_relaxed);
    const std::int64_t outstanding =
        tenant->outstanding.fetch_add(1, std::memory_order_acq_rel);
    if (quota > 0 && outstanding >= quota) {
      tenant->outstanding.fetch_sub(1, std::memory_order_acq_rel);
      it->second->metrics.record_shed();
      obs::TraceRecorder::instance().record_instant("quota_shed", "serving",
                                                    request.trace);
      return core::Status::resource_exhausted(
          "tenant '" + tenant->name + "' quota exceeded (" +
          std::to_string(quota) + " outstanding requests)");
    }
    // Balanced by the token's deleter on any terminal path — answered,
    // failed, shed downstream, or dropped on the floor.
    TenantPtr owner = tenant;
    request.completion_token = std::shared_ptr<void>(
        static_cast<void*>(nullptr), [owner](void*) {
          owner->outstanding.fetch_sub(1, std::memory_order_acq_rel);
        });
  }
  // Trace-context propagation: start a fresh trace unless the client
  // (retry loop, DES frontend) already opened one. Every submit —
  // including each retry attempt — gets its own root span id, so one
  // logical request shows up as N sibling "request" spans under the
  // client span.
  if (obs::TraceRecorder::instance().enabled() &&
      request.trace.trace_id == 0) {
    request.trace.trace_id = obs::next_trace_id();
  }
  if (request.trace.active()) {
    request.trace.root_span_id = obs::next_span_id();
  }
  return admit_and_enqueue(*it->second, std::move(request));
}

core::Result<std::future<InferenceResponse>> Server::admit_and_enqueue(
    Deployment& deployment, InferenceRequest request) {
  if (!deployment.admission.enabled() ||
      deployment.admission.admit(deployment.batcher.queued())) {
    return deployment.batcher.submit(std::move(request));
  }
  // Overloaded. Graceful degradation first: hand the request to the
  // configured twin (typically the INT8 deployment of the same model)
  // if that twin would itself admit it.
  if (!deployment.config.degrade_to.empty()) {
    const auto twin_it = deployments_.find(deployment.config.degrade_to);
    if (twin_it != deployments_.end()) {
      Deployment& twin = *twin_it->second;
      if (!twin.admission.enabled() ||
          twin.admission.admit(twin.batcher.queued())) {
        deployment.metrics.record_degraded();
        obs::TraceRecorder::instance().record_instant("degraded", "serving",
                                                      request.trace);
        request.model = deployment.config.degrade_to;
        return twin.batcher.submit(std::move(request));
      }
    }
  }
  deployment.metrics.record_shed();
  obs::TraceRecorder::instance().record_instant("shed", "serving",
                                                request.trace);
  return core::Status::resource_exhausted(
      "admission control shed the request (queue depth " +
      std::to_string(deployment.batcher.queued()) + ", estimated delay " +
      std::to_string(deployment.admission.estimated_delay_s(
          deployment.batcher.queued())) +
      " s)");
}

InferenceResponse Server::infer_sync(InferenceRequest request) {
  auto submitted = submit(std::move(request));
  if (!submitted.is_ok()) {
    InferenceResponse response;
    response.status = submitted.status();
    return response;
  }
  return submitted.value().get();
}

const MetricsRegistry* Server::metrics(const std::string& model) const {
  std::shared_lock lock(deployments_mutex_);
  if (const auto it = deployments_.find(model); it != deployments_.end()) {
    return &it->second->metrics;
  }
  const auto it = sequence_deployments_.find(model);
  return it == sequence_deployments_.end() ? nullptr : &it->second->metrics;
}

MetricsRegistry* Server::mutable_metrics(const std::string& model) {
  // Every registry is a non-const member of a deployment this server
  // owns; the const lookup only keeps one copy of the name resolution.
  return const_cast<MetricsRegistry*>(std::as_const(*this).metrics(model));
}

const resilience::AdmissionController* Server::admission(
    const std::string& model) const {
  std::shared_lock lock(deployments_mutex_);
  const auto it = deployments_.find(model);
  return it == deployments_.end() ? nullptr : &it->second->admission;
}

std::vector<std::string> Server::model_names() const {
  std::shared_lock lock(deployments_mutex_);
  std::vector<std::string> names;
  names.reserve(deployments_.size());
  for (const auto& [name, unused] : deployments_) names.push_back(name);
  return names;
}

const TenantState* Server::tenant(const std::string& name) const {
  std::shared_lock lock(deployments_mutex_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Server::tenant_names() const {
  std::shared_lock lock(deployments_mutex_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, unused] : tenants_) names.push_back(name);
  return names;
}

std::size_t Server::queue_depth(const std::string& model) const {
  std::shared_lock lock(deployments_mutex_);
  const auto it = deployments_.find(model);
  return it == deployments_.end() ? 0 : it->second->batcher.queued();
}

std::string Server::prometheus_text() const {
  obs::PrometheusWriter writer;
  {
    std::shared_lock lock(deployments_mutex_);
    for (const auto& [name, deployment] : deployments_) {
      deployment->metrics.render_prometheus(writer, name,
                                            deployment->config.precision);
    }
    for (const auto& [name, deployment] : sequence_deployments_) {
      deployment->metrics.render_prometheus(writer, name);
      // The scheduler's own gauges: the live batch and the state pool
      // it leases from.
      const sequence::SequenceScheduler& scheduler = *deployment->scheduler;
      const sequence::StatePool& pool = scheduler.pool();
      const obs::PrometheusWriter::Labels labels = {{"model", name}};
      writer.gauge("harvest_sequences_active",
                   "Sequences currently in the live decode batch.",
                   static_cast<double>(scheduler.active()), labels);
      writer.gauge("harvest_sequence_state_pool_bytes",
                   "State-pool bytes leased to live sequences.",
                   static_cast<double>(pool.used_bytes()), labels);
      writer.gauge("harvest_sequence_state_pool_capacity_bytes",
                   "State-pool byte capacity.",
                   static_cast<double>(pool.capacity_bytes()), labels);
      writer.gauge("harvest_sequence_state_pool_occupancy",
                   "Leased state-pool slots / total slots.",
                   pool.slots() > 0 ? static_cast<double>(pool.active()) /
                                          static_cast<double>(pool.slots())
                                    : 0.0,
                   labels);
    }
    // Per-tenant isolation gauges: outstanding vs quota is the signal
    // that one tenant is eating the fleet.
    for (const auto& [name, tenant] : tenants_) {
      const obs::PrometheusWriter::Labels labels = {{"tenant", name}};
      writer.gauge("harvest_tenant_outstanding",
                   "Requests admitted for this tenant and not yet answered.",
                   static_cast<double>(
                       tenant->outstanding.load(std::memory_order_relaxed)),
                   labels);
      writer.gauge("harvest_tenant_weight",
                   "WFQ share weight of this tenant.",
                   tenant->weight.load(std::memory_order_relaxed), labels);
      writer.gauge("harvest_tenant_quota",
                   "Outstanding-request quota (0 = unlimited).",
                   static_cast<double>(
                       tenant->quota.load(std::memory_order_relaxed)),
                   labels);
    }
  }
  // Fleet-level weight store: resident vs naive bytes is the dedup win;
  // cold loads and pageouts are the paging churn.
  const WeightStore::Stats ws = weight_store_.stats();
  writer.gauge("harvest_weight_resident_bytes",
               "Bytes of backend streams currently resident in the "
               "deduplicated weight store.",
               static_cast<double>(ws.resident_bytes));
  writer.gauge("harvest_weight_naive_bytes",
               "Bytes the same deployments would occupy without weight "
               "sharing (each at its full stream count).",
               static_cast<double>(ws.naive_bytes));
  writer.gauge("harvest_weight_entries",
               "Distinct weight-store entries (unique backbones).",
               static_cast<double>(ws.entries));
  writer.counter("harvest_weight_dedup_hits_total",
                 "Deployments that attached to an existing weight entry "
                 "instead of loading a private copy.",
                 static_cast<double>(ws.dedup_hits));
  writer.counter("harvest_weight_cold_loads_total",
                 "Backend-stream builds performed on demand (lazy first "
                 "build or reload after page-out).",
                 static_cast<double>(ws.cold_loads));
  writer.counter("harvest_weight_pageouts_total",
                 "Idle backend streams paged out to fit the byte budget.",
                 static_cast<double>(ws.pageouts));
  writer.gauge("harvest_worker_pool_threads",
               "Workers in the shared serving pool.",
               static_cast<double>(worker_pool_.workers()));
  writer.gauge("harvest_worker_pool_busy",
               "Shared-pool workers currently executing a batch.",
               static_cast<double>(worker_pool_.busy()));
  writer.gauge("harvest_preproc_pool_threads",
               "Workers in the shared preprocessing pool.",
               static_cast<double>(preproc_pool_.size()));
  writer.gauge("harvest_preproc_pool_active",
               "Preprocessing pool workers currently running a task.",
               static_cast<double>(preproc_pool_.active()));
  writer.gauge("harvest_preproc_pool_utilization",
               "Active preprocessing workers / pool size.",
               preproc_pool_.size() > 0
                   ? static_cast<double>(preproc_pool_.active()) /
                         static_cast<double>(preproc_pool_.size())
                   : 0.0);
  // Trace-ring health: silent span truncation (ring overwrites) must be
  // visible in the same scrape as the metrics derived from the trace.
  const obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  writer.counter("harvest_trace_dropped_total",
                 "Trace events overwritten because a per-thread ring "
                 "filled up.",
                 static_cast<double>(recorder.dropped()));
  for (const auto& ring : recorder.ring_stats()) {
    obs::PrometheusWriter::Labels ring_labels = {
        {"tid", std::to_string(ring.tid)}};
    if (!ring.name.empty()) ring_labels.emplace_back("thread", ring.name);
    writer.gauge("harvest_trace_ring_events",
                 "Trace events currently retained in this thread's ring.",
                 static_cast<double>(ring.events), ring_labels);
    writer.gauge("harvest_trace_ring_occupancy",
                 "Retained events / ring capacity for this thread.",
                 ring.capacity > 0 ? static_cast<double>(ring.events) /
                                         static_cast<double>(ring.capacity)
                                   : 0.0,
                 ring_labels);
  }
  return writer.str();
}

void Server::shutdown() {
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  // Writer lock: register_model may be mutating the map concurrently.
  // In-flight submit() calls have either observed shut_down_ already or
  // hold the reader lock, so they finish before we start draining.
  std::unique_lock lock(deployments_mutex_);
  HARVEST_LOG_DEBUG("server shutdown: draining %zu deployment(s)",
                    deployments_.size());
  // Order matters: batcher shutdown turns every nonempty queue into an
  // immediately-ready drain flush; the pool drains those, joins, and
  // only then may the store stop handing out streams.
  for (auto& [name, deployment] : deployments_) {
    deployment->batcher.shutdown();
  }
  worker_pool_.shutdown();
  weight_store_.shutdown();
  // Sequence schedulers drain their queues (shed) and live batches
  // (evicted), then join.
  for (auto& [name, deployment] : sequence_deployments_) {
    deployment->scheduler->shutdown();
  }
}

}  // namespace harvest::serving
