#include "serving/sequence/scheduler.hpp"

#include <algorithm>

#include "core/log.hpp"
#include "obs/trace.hpp"

namespace harvest::serving::sequence {

SequenceScheduler::SequenceScheduler(std::string model_name,
                                     SequenceBackendPtr backend,
                                     const StatePoolConfig& pool_config,
                                     const SequenceSchedulerConfig& config,
                                     MetricsRegistry* metrics)
    : model_name_(std::move(model_name)), backend_(std::move(backend)),
      pool_(backend_->state_spec(), pool_config), config_(config),
      metrics_(metrics), epoch_(Clock::now()) {
  HARVEST_CHECK(backend_ != nullptr);
  HARVEST_CHECK(config_.max_active > 0);
  worker_ = std::thread([this] { worker(); });
}

SequenceScheduler::~SequenceScheduler() { shutdown(); }

double SequenceScheduler::now_s() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

std::size_t SequenceScheduler::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

core::Result<std::future<SequenceResponse>> SequenceScheduler::submit(
    SequenceRequest request) {
  if (metrics_ != nullptr) metrics_->record_submitted();
  if (request.id == 0) {
    request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::int64_t max_tokens = backend_->model_config().max_tokens;
  if (request.prompt.empty() ||
      static_cast<std::int64_t>(request.prompt.size()) >= max_tokens) {
    if (metrics_ != nullptr) {
      SequenceResponse rejected;
      rejected.outcome = SequenceOutcome::kFailed;
      metrics_->record_sequence(rejected);
    }
    return core::Status::invalid_argument(
        "prompt must be non-empty and leave room in the " +
        std::to_string(max_tokens) + "-token context");
  }
  if (obs::TraceRecorder::instance().enabled() &&
      request.trace.trace_id == 0) {
    request.trace.trace_id = obs::next_trace_id();
  }
  if (request.trace.active()) {
    request.trace.root_span_id = obs::next_span_id();
  }

  Pending pending;
  pending.submitted = Clock::now();
  if (request.deadline_s == 0.0) request.deadline_s = config_.default_deadline_s;
  if (request.deadline_s > 0.0) {
    pending.deadline_abs_s =
        std::chrono::duration<double>(pending.submitted - epoch_).count() +
        request.deadline_s;
  }
  std::future<SequenceResponse> future = pending.promise.get_future();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      if (metrics_ != nullptr) metrics_->record_shed();
      return core::Status::unavailable("sequence scheduler is shut down");
    }
    if (config_.max_queue_depth > 0 &&
        queue_.size() >= config_.max_queue_depth) {
      if (metrics_ != nullptr) metrics_->record_shed();
      obs::TraceRecorder::instance().record_instant("shed", "sequence",
                                                    request.trace);
      return core::Status::resource_exhausted(
          "sequence queue full (" + std::to_string(queue_.size()) + ")");
    }
    pending.request = std::move(request);
    queue_.push_back(std::move(pending));
  }
  cv_.notify_one();
  return future;
}

void SequenceScheduler::worker() {
  obs::TraceRecorder::instance().set_thread_name("seq:" + model_name_);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        return shutdown_ || !queue_.empty() || !live_.empty();
      });
      if (shutdown_) break;
    }
    admit();
    if (!live_.empty()) step();
    reap_idle();
  }

  // Drain: queued requests were never admitted (shed), live sequences
  // lose their slots (evicted) — conservation holds through shutdown.
  std::deque<Pending> leftover;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    leftover.swap(queue_);
  }
  for (Pending& pending : leftover) {
    resolve_unadmitted(std::move(pending), SequenceOutcome::kShed,
                       core::Status::unavailable("scheduler shut down"));
  }
  for (auto& live : live_) {
    retire(*live, SequenceOutcome::kEvicted,
           core::Status::unavailable("scheduler shut down"));
  }
  live_.clear();
  active_.store(0, std::memory_order_relaxed);
}

void SequenceScheduler::admit() {
  auto& recorder = obs::TraceRecorder::instance();
  while (static_cast<std::int64_t>(live_.size()) < config_.max_active) {
    Pending pending;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) return;
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    const double now = now_s();
    if (pending.deadline_abs_s > 0.0 && now > pending.deadline_abs_s) {
      // Expired while queued; never leases a slot.
      resolve_unadmitted(std::move(pending), SequenceOutcome::kExpired,
                         core::Status::deadline_exceeded(
                             "deadline passed while queued"));
      continue;
    }
    std::optional<StatePool::Lease> lease = pool_.acquire(now);
    if (!lease.has_value()) {
      // Pool exhausted: put it back and keep stepping; retirements will
      // free a slot.
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_front(std::move(pending));
      return;
    }

    auto live = std::make_unique<Live>();
    live->request = std::move(pending.request);
    live->promise = std::move(pending.promise);
    live->submitted = pending.submitted;
    live->deadline_abs_s = pending.deadline_abs_s;
    live->lease = std::move(lease).value();
    live->queue_s = now - std::chrono::duration<double>(
                              pending.submitted - epoch_).count();
    live->max_new_tokens = live->request.max_new_tokens > 0
                               ? live->request.max_new_tokens
                               : config_.default_max_new_tokens;
    // Clamp generation to the context capacity.
    live->max_new_tokens = std::min(
        live->max_new_tokens,
        backend_->model_config().max_tokens -
            static_cast<std::int64_t>(live->request.prompt.size()));
    if (metrics_ != nullptr) metrics_->record_admitted();

    const double prefill_start_us = recorder.now_us();
    auto result = backend_->prefill(
        live->request.prompt.data(),
        static_cast<std::int64_t>(live->request.prompt.size()),
        live->lease.state);
    recorder.record_child("prefill", "sequence", prefill_start_us,
                          recorder.now_us(), live->request.trace,
                          live->request.id,
                          static_cast<std::int64_t>(
                              live->request.prompt.size()));
    if (!result.is_ok()) {
      retire(*live, SequenceOutcome::kFailed, result.status());
      continue;
    }
    live->ttft_s = now_s() - std::chrono::duration<double>(
                                 live->submitted - epoch_).count();
    live->first_token_time_s = now_s();
    recorder.record_instant("first_token", "sequence", live->request.trace);
    emit_token(*live, result.value().tokens[0]);
    if (generation_done(*live)) {
      retire(*live, SequenceOutcome::kOk, core::Status::ok());
      continue;
    }
    live_.push_back(std::move(live));
    active_.store(static_cast<std::int64_t>(live_.size()),
                  std::memory_order_relaxed);
  }
}

void SequenceScheduler::step() {
  auto& recorder = obs::TraceRecorder::instance();
  // Deadline sweep first: an expired sequence must not consume another
  // step, and its slot frees before the batch runs.
  for (auto& live : live_) {
    if (live->deadline_abs_s > 0.0 && now_s() > live->deadline_abs_s) {
      retire(*live, SequenceOutcome::kExpired,
             core::Status::deadline_exceeded("deadline passed mid-decode"));
      live.reset();
    }
  }
  std::erase_if(live_, [](const std::unique_ptr<Live>& l) { return !l; });
  active_.store(static_cast<std::int64_t>(live_.size()),
                std::memory_order_relaxed);
  if (live_.empty()) return;

  const std::int64_t rows = static_cast<std::int64_t>(live_.size());
  std::vector<std::int32_t> last_tokens(static_cast<std::size_t>(rows));
  std::vector<nn::SequenceState*> states(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    last_tokens[static_cast<std::size_t>(i)] = live_[static_cast<std::size_t>(
        i)]->tokens.back();
    states[static_cast<std::size_t>(i)] =
        &live_[static_cast<std::size_t>(i)]->lease.state;
  }

  const double t0 = now_s();
  const double t0_us = recorder.now_us();
  auto result = backend_->decode(last_tokens.data(), states.data(), rows);
  const double t1_us = recorder.now_us();
  if (metrics_ != nullptr) metrics_->record_decode_step(rows);
  recorder.record_complete("decode_step", "sequence", t0_us, t1_us, 0, rows);

  if (!result.is_ok()) {
    for (auto& live : live_) {
      retire(*live, SequenceOutcome::kFailed, result.status());
    }
    live_.clear();
    active_.store(0, std::memory_order_relaxed);
    return;
  }

  for (std::int64_t i = 0; i < rows; ++i) {
    Live& live = *live_[static_cast<std::size_t>(i)];
    ++live.steps;
    // Per-step span under the sequence's own trace tree.
    recorder.record_child("decode_step", "sequence", t0_us, t1_us,
                          live.request.trace, live.request.id, rows);
    emit_token(live, result.value().tokens[static_cast<std::size_t>(i)]);
    // Refresh the idle clock with the step's *start* time: a decode
    // that stalled past the idle timeout must leave the lease stale so
    // reap_idle() can reclaim it, instead of laundering the stall into
    // a fresh timestamp.
    pool_.touch(live.lease.slot, live.lease.generation, t0);
    if (generation_done(live)) {
      retire(live, SequenceOutcome::kOk, core::Status::ok());
      live_[static_cast<std::size_t>(i)].reset();  // retire immediately
    }
  }
  std::erase_if(live_, [](const std::unique_ptr<Live>& l) { return !l; });
  active_.store(static_cast<std::int64_t>(live_.size()),
                std::memory_order_relaxed);
}

void SequenceScheduler::reap_idle() {
  // Idle eviction under backend stalls: when a decode step takes longer
  // than the pool's idle timeout, the pool reclaims the slots (bumping
  // their lease generations so our leases go stale). The sequences that
  // lost their state must retire as kEvicted — their leases can no
  // longer touch the slab — keeping submitted == completed + shed +
  // failed + expired + evicted exact.
  const std::vector<std::int64_t> evicted = pool_.evict_idle(now_s());
  if (evicted.empty()) return;
  for (auto& live : live_) {
    const bool gone =
        std::find(evicted.begin(), evicted.end(), live->lease.slot) !=
        evicted.end();
    if (!gone) continue;
    live->lease.slot = -1;  // the pool owns the slot again
    retire(*live, SequenceOutcome::kEvicted,
           core::Status::resource_exhausted(
               "sequence state evicted after idle timeout"));
    live.reset();
  }
  std::erase_if(live_, [](const std::unique_ptr<Live>& l) { return !l; });
  active_.store(static_cast<std::int64_t>(live_.size()),
                std::memory_order_relaxed);
}

void SequenceScheduler::emit_token(Live& live, std::int32_t token) {
  live.tokens.push_back(token);
  if (live.request.on_token) {
    TokenEvent event;
    event.request_id = live.request.id;
    event.token = token;
    event.index = static_cast<std::int64_t>(live.tokens.size()) - 1;
    event.last = generation_done(live);
    event.since_submit_s =
        std::chrono::duration<double>(Clock::now() - live.submitted).count();
    live.request.on_token(event);
  }
}

bool SequenceScheduler::generation_done(const Live& live) const {
  if (static_cast<std::int64_t>(live.tokens.size()) >= live.max_new_tokens) {
    return true;
  }
  return live.request.eos_token >= 0 && !live.tokens.empty() &&
         live.tokens.back() == live.request.eos_token;
}

void SequenceScheduler::retire(Live& live, SequenceOutcome outcome,
                               core::Status status) {
  auto& recorder = obs::TraceRecorder::instance();
  if (live.lease.slot >= 0) {
    // No-ops (returns false) when the pool already idle-evicted this
    // lease — the slot then belongs to the free list or a newer lease,
    // and freeing it again would alias two sequences onto one slab row.
    pool_.release(live.lease.slot, live.lease.generation);
    live.lease.slot = -1;
  }
  SequenceResponse response;
  response.id = live.request.id;
  response.status = std::move(status);
  response.outcome = outcome;
  response.tokens = std::move(live.tokens);
  response.timing.queue_s = live.queue_s;
  response.timing.ttft_s = live.ttft_s;
  response.timing.total_s =
      std::chrono::duration<double>(Clock::now() - live.submitted).count();
  response.timing.steps = live.steps;
  const double decode_window = now_s() - live.first_token_time_s;
  if (response.tokens.size() > 1 && decode_window > 0.0) {
    response.tokens_per_s =
        static_cast<double>(response.tokens.size() - 1) / decode_window;
  }
  if (outcome != SequenceOutcome::kOk) {
    recorder.record_instant(sequence_outcome_name(outcome), "sequence",
                            live.request.trace);
  }
  recorder.record_root("sequence_request", "sequence",
                       recorder.to_us(live.submitted), recorder.now_us(),
                       live.request.trace, live.request.id,
                       static_cast<std::int64_t>(response.tokens.size()));
  if (metrics_ != nullptr) {
    metrics_->record_sequence(response, live.request.trace.trace_id);
  }
  live.promise.set_value(std::move(response));
}

void SequenceScheduler::resolve_unadmitted(Pending&& pending,
                                           SequenceOutcome outcome,
                                           core::Status status) {
  SequenceResponse response;
  response.id = pending.request.id;
  response.status = std::move(status);
  response.outcome = outcome;
  response.timing.total_s =
      std::chrono::duration<double>(Clock::now() - pending.submitted).count();
  obs::TraceRecorder::instance().record_instant(
      sequence_outcome_name(outcome), "sequence", pending.request.trace);
  if (metrics_ != nullptr) {
    metrics_->record_sequence(response, pending.request.trace.trace_id);
  }
  pending.promise.set_value(std::move(response));
}

void SequenceScheduler::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

}  // namespace harvest::serving::sequence
