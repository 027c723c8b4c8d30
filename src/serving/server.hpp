#pragma once

/// \file server.hpp
/// The HARVEST serving core — the from-scratch stand-in for NVIDIA
/// Triton in the paper's pipeline (§3), grown to fleet scale. A server
/// hosts named model deployments; each deployment owns a dynamic
/// batcher and a metrics registry, bills to a *tenant* (weight + quota),
/// and executes on one shared WFQ worker pool with backend streams from
/// the deduplicated WeightStore — hundreds of fine-tune deployments
/// share backbones and threads instead of stacking private copies. The
/// frontend calls `submit()` and receives a future.

#include <map>
#include <memory>
#include <shared_mutex>

#include "core/thread_pool.hpp"
#include "serving/batcher.hpp"
#include "serving/metrics.hpp"
#include "serving/model_instance.hpp"
#include "serving/resilience/admission.hpp"
#include "serving/sequence/scheduler.hpp"
#include "serving/weight_store.hpp"
#include "serving/worker_pool.hpp"

namespace harvest::serving {

struct ModelDeploymentConfig {
  std::string name;
  std::int64_t max_batch = 8;
  /// Concurrency cap on the shared worker pool (the pre-pool meaning —
  /// dedicated execution streams — survives as "at most this many
  /// workers execute my batches at once").
  std::int64_t instances = 1;
  double max_queue_delay_s = 2e-3;
  std::vector<std::int64_t> preferred_batch_sizes;
  preproc::PreprocSpec preproc;
  /// Batched thread-parallel preprocessing (DALI-style) instead of
  /// sequential per-image CPU preprocessing.
  bool batched_preproc = true;
  /// Numeric precision the deployment's engines execute in ("fp32" or
  /// "int8"). Labels every metric and trace thread of the deployment so
  /// the same model can be served at both precisions side by side and
  /// compared live.
  std::string precision = "fp32";
  /// Overload control: shed arrivals with kResourceExhausted before
  /// they queue, by queue depth and/or estimated queueing delay.
  /// Disabled by default (both thresholds 0).
  resilience::AdmissionConfig admission;
  /// Graceful degradation: when admission sheds, fail the request over
  /// to this deployment instead (typically the model's INT8 twin, which
  /// clears its queue several times faster). Empty = shed outright.
  std::string degrade_to;
  /// Service-level objectives ("slo" key in the repository JSON). When
  /// declared, the deployment's MetricsRegistry tracks error-budget
  /// burn rate; sustained burn above `slo_burn_alert` pressures the
  /// admission controller (tightened thresholds) until it recovers.
  obs::SloConfig slo;
  double slo_window_s = 60.0;   ///< sliding burn-rate window
  double slo_burn_alert = 2.0;  ///< alert / pressure threshold
  /// Multi-tenancy keys (docs/MULTITENANCY.md). `tenant` names the
  /// fair-share/quota principal this deployment bills to (empty = a
  /// private tenant named after the deployment). `weight` scales the
  /// tenant's WFQ share; `quota` bounds its outstanding requests
  /// across all its deployments (0 = unlimited). When several
  /// deployments name one tenant, non-default weight/quota values win.
  std::string tenant;
  double weight = 1.0;
  std::int64_t quota = 0;
  /// Batcher back-pressure bound ("queue_capacity" in the repository).
  std::size_t queue_capacity = 4096;
  /// Weight-sharing key: deployments with equal keys share one
  /// WeightStore entry (one set of in-memory backend streams). Empty =
  /// a private entry — no sharing.
  std::string weight_key;
  /// Bytes one backend stream keeps resident (prices weight-store
  /// paging; 0 = weightless, never paged).
  std::size_t model_bytes = 0;
};

/// A sequence deployment ("workload": "sequence" in the repository):
/// one continuous-batching scheduler + state pool per model, served by
/// the same Server beside the image deployments.
struct SequenceDeploymentConfig {
  std::string name;
  sequence::SequenceSchedulerConfig scheduler;
  sequence::StatePoolConfig pool;
};

class Server {
 public:
  /// `preproc_threads` sizes the shared preprocessing pool.
  explicit Server(std::size_t preproc_threads = 2);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Deploy a model. The factory builds one backend stream; streams
  /// build lazily in the WeightStore (the first eagerly, so a broken
  /// factory fails here). Fails if the name is taken.
  core::Status register_model(const ModelDeploymentConfig& config,
                              const std::function<BackendPtr()>& backend_factory);

  /// Route a request to its deployment's batcher (tenant quota, then
  /// admission control, then enqueue).
  core::Result<std::future<InferenceResponse>> submit(InferenceRequest request);

  /// Convenience: submit and wait.
  InferenceResponse infer_sync(InferenceRequest request);

  /// Deployment metrics, image or sequence (nullptr when unknown).
  const MetricsRegistry* metrics(const std::string& model) const;

  /// Writable registry access for frontend-side recorders (retry
  /// clients). nullptr when unknown.
  MetricsRegistry* mutable_metrics(const std::string& model);

  /// Deployment admission controller (nullptr when unknown). Exposed so
  /// drivers can inspect the live service-time estimate.
  const resilience::AdmissionController* admission(
      const std::string& model) const;

  std::vector<std::string> model_names() const;

  /// Deploy a sequence model (continuous batching). The name shares the
  /// image deployments' namespace.
  core::Status register_sequence_model(
      const SequenceDeploymentConfig& config,
      const std::function<sequence::SequenceBackendPtr()>& backend_factory);

  /// Route a sequence request to its scheduler.
  core::Result<std::future<sequence::SequenceResponse>> submit_sequence(
      sequence::SequenceRequest request);

  /// Convenience: submit and wait.
  sequence::SequenceResponse generate_sync(sequence::SequenceRequest request);

  /// Sequence-deployment introspection (nullptr/empty when unknown).
  const sequence::SequenceScheduler* sequence_scheduler(
      const std::string& model) const;
  std::vector<std::string> sequence_model_names() const;

  /// Current batcher queue depth for a deployment (0 when unknown).
  std::size_t queue_depth(const std::string& model) const;

  /// Pin the shared worker pool's size. Default (0) auto-grows the pool
  /// to the sum of registered `instances`; an explicit target below
  /// that consolidates — deployments time-share the smaller pool under
  /// WFQ. Grow-only; call before registering models to consolidate.
  void set_worker_target(std::size_t workers);

  /// Shared weight store (budget configuration / stats).
  WeightStore& weight_store() { return weight_store_; }
  const WeightStore& weight_store() const { return weight_store_; }

  const WorkerPool& worker_pool() const { return worker_pool_; }

  /// Tenant registry lookup (nullptr when unknown).
  const TenantState* tenant(const std::string& name) const;
  std::vector<std::string> tenant_names() const;

  /// Prometheus text-format exposition over every deployment, plus
  /// server-level gauges (preprocessing pool, weight store, worker
  /// pool, per-tenant outstanding/quota, sequence schedulers' live
  /// batch and state pool).
  std::string prometheus_text() const;

  /// Stop accepting requests, drain the worker pool, join everything.
  /// Safe to call from any thread, concurrently with submit();
  /// idempotent.
  void shutdown();

 private:
  struct Deployment {
    ModelDeploymentConfig config;
    DynamicBatcher batcher;
    MetricsRegistry metrics;
    resilience::AdmissionController admission;
    std::unique_ptr<BatchExecutor> executor;
    WeightStore::EntryPtr entry;
    TenantPtr tenant;

    explicit Deployment(const ModelDeploymentConfig& c)
        : config(c),
          batcher(BatcherConfig{c.max_batch, c.max_queue_delay_s,
                                c.queue_capacity, c.preferred_batch_sizes}),
          admission(c.admission, static_cast<int>(c.instances)) {}
  };

  /// Admission check + optional degrade failover; called under the
  /// reader lock. Returns the batcher future, a kResourceExhausted shed,
  /// or the twin's response future.
  core::Result<std::future<InferenceResponse>> admit_and_enqueue(
      Deployment& deployment, InferenceRequest request);

  core::ThreadPool preproc_pool_;
  WeightStore weight_store_;
  /// Guards the deployments map itself: register_model/shutdown take the
  /// writer side; submit and the read-only accessors take the reader
  /// side. Deployment contents (batcher, metrics) are internally
  /// synchronized and may be used after the lock is released.
  struct SequenceDeployment {
    SequenceDeploymentConfig config;
    MetricsRegistry metrics;
    std::unique_ptr<sequence::SequenceScheduler> scheduler;
  };

  mutable std::shared_mutex deployments_mutex_;
  std::map<std::string, std::unique_ptr<Deployment>> deployments_;
  std::map<std::string, std::unique_ptr<SequenceDeployment>>
      sequence_deployments_;
  std::map<std::string, TenantPtr> tenants_;
  std::size_t worker_target_ = 0;    ///< 0 = auto (sum of instances)
  std::size_t total_instances_ = 0;  ///< guarded by deployments_mutex_
  std::atomic<std::uint64_t> next_request_id_{1};
  // Read by submitting threads while shutdown() runs — must be atomic.
  std::atomic<bool> shut_down_{false};
  /// Declared last: joins its workers (which walk the structures above)
  /// before anything else tears down.
  WorkerPool worker_pool_;
};

}  // namespace harvest::serving
