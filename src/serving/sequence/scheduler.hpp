#pragma once

/// \file scheduler.hpp
/// Iteration-level (continuous) batching for sequence requests — the
/// sequence counterpart to DynamicBatcher. Where the image batcher
/// groups whole requests into one forward pass, this scheduler runs
/// *one decode step per iteration* over every live sequence, admits
/// new sequences into the running batch between steps, and retires
/// finished ones immediately — no sequence ever waits for the rest of
/// its batch to finish (the inefficiency `ablation_continuous_batching`
/// quantifies).
///
/// Each live sequence contributes exactly one packed row per step
/// (histories live in the state pool), so a batch of mixed-length
/// sequences wastes zero compute on padding; `length_multiple_of`
/// rounds the packed row count to a kernel-friendly multiple.
///
/// Admission is where resilience hooks in: a bounded submit queue sheds
/// with kResourceExhausted, deadlines expire sequences while queued or
/// mid-decode (freeing their state slot immediately), and shutdown
/// drains queued requests as shed / live ones as evicted — keeping the
/// counters conserved.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serving/metrics.hpp"
#include "serving/sequence/sequence_backend.hpp"
#include "serving/sequence/sequence_request.hpp"
#include "serving/sequence/state_pool.hpp"

namespace harvest::serving::sequence {

struct SequenceSchedulerConfig {
  /// Live-batch bound; also the packed GEMM's max row count.
  std::int64_t max_active = 8;
  /// Submit-queue bound; arrivals beyond it shed. 0 = unbounded.
  std::size_t max_queue_depth = 256;
  /// Packed row-count rounding fed to the backend.
  std::int64_t length_multiple_of = 1;
  /// Applied when a request leaves max_new_tokens <= 0.
  std::int64_t default_max_new_tokens = 32;
  /// Applied when a request leaves deadline_s == 0. 0 = none.
  double default_deadline_s = 0.0;
};

class SequenceScheduler {
 public:
  SequenceScheduler(std::string model_name, SequenceBackendPtr backend,
                    const StatePoolConfig& pool_config,
                    const SequenceSchedulerConfig& config,
                    MetricsRegistry* metrics);
  ~SequenceScheduler();

  SequenceScheduler(const SequenceScheduler&) = delete;
  SequenceScheduler& operator=(const SequenceScheduler&) = delete;

  /// Enqueue; sheds with kResourceExhausted when the queue is full,
  /// kUnavailable after shutdown. Prompt-vs-context validation happens
  /// here so oversized requests fail fast.
  core::Result<std::future<SequenceResponse>> submit(SequenceRequest request);

  void shutdown();

  const std::string& model_name() const { return model_name_; }
  const SequenceSchedulerConfig& config() const { return config_; }
  const StatePool& pool() const { return pool_; }
  std::size_t queued() const;
  std::int64_t active() const {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    SequenceRequest request;
    std::promise<SequenceResponse> promise;
    Clock::time_point submitted;
    double deadline_abs_s = 0.0;  ///< seconds on now_s() clock; 0 = none
  };

  struct Live {
    SequenceRequest request;
    std::promise<SequenceResponse> promise;
    Clock::time_point submitted;
    double deadline_abs_s = 0.0;
    StatePool::Lease lease;
    std::vector<std::int32_t> tokens;
    std::int64_t max_new_tokens = 0;
    std::int64_t steps = 0;
    double ttft_s = 0.0;
    double queue_s = 0.0;
    double first_token_time_s = 0.0;  ///< now_s() at first token
  };

  double now_s() const;
  void worker();
  /// Move queued requests into the live batch while there is room.
  void admit();
  /// One packed decode iteration over the live batch.
  void step();
  /// Retire live sequences whose state the pool idle-evicted (their
  /// leases went stale) as kEvicted, preserving counter conservation.
  void reap_idle();
  void emit_token(Live& live, std::int32_t token);
  bool generation_done(const Live& live) const;
  void retire(Live& live, SequenceOutcome outcome, core::Status status);
  /// Retire without a leased slot (shed / pre-admission expiry).
  void resolve_unadmitted(Pending&& pending, SequenceOutcome outcome,
                          core::Status status);

  std::string model_name_;
  SequenceBackendPtr backend_;
  StatePool pool_;
  SequenceSchedulerConfig config_;
  MetricsRegistry* metrics_;
  Clock::time_point epoch_;

  mutable std::mutex mutex_;  ///< guards queue_ and shutdown handshake
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool shutdown_ = false;

  /// Worker-thread private: the live batch, in stable admission order.
  std::vector<std::unique_ptr<Live>> live_;
  std::atomic<std::int64_t> active_{0};

  std::atomic<std::uint64_t> next_id_{1};
  std::thread worker_;
};

}  // namespace harvest::serving::sequence
