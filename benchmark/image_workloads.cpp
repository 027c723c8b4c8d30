/// The three image workloads: real requests through Server ->
/// DynamicBatcher -> BatchExecutor (preprocessing) -> NativeBackend,
/// from encoded bytes to logits, one per scenario of the paper (§2.2).
///
/// Every layer is measured from outside, through public surfaces only:
/// the RequestTiming of each response, the deployment's MetricsRegistry
/// snapshot, the spans TraceRecorder already emits (traced runs), and
/// replay calls into decode_image / preprocess_into / NativeBackend::infer
/// / profile_layer_mfu / measure_host_gemm_flops.
///
/// Load comes from this process: the calling thread submits, one
/// collector thread waits on the response futures. Open-loop requests
/// are timed from the moment they were due, so a stalled submitter
/// shows up as latency, and the submitter's own lateness is reported.

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <semaphore>
#include <set>
#include <stop_token>
#include <string_view>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "data/datasets.hpp"
#include "nn/init.hpp"
#include "nn/mfu.hpp"
#include "nn/models.hpp"
#include "nn/quant.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "platform/gemm_bench.hpp"
#include "preproc/image.hpp"
#include "preproc/pipeline.hpp"
#include "serving/native_backend.hpp"
#include "serving/server.hpp"
#include "tensor/buffer.hpp"

namespace harvest::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

enum class Arrivals {
  kPoisson,     ///< open loop, independent users
  kFixedRate,   ///< open loop, a camera at a fixed frame rate
  kClosedLoop,  ///< a fixed number of requests always in flight
};

struct ImageWorkload {
  std::string_view name;
  std::string_view precision;  ///< "fp32" | "int8"
  std::int64_t max_batch;
  double max_queue_delay_s;
  Arrivals arrivals;
  double rate_img_s;       ///< open loops
  int inflight;            ///< closed loop
  double deadline_s;       ///< carried on every request; 0 = none
  double latency_limit_s;  ///< an answer counts as good within it; 0 = any
  bool random_inputs;      ///< users pick any image; cameras and jobs cycle
  double warmup_s;
  /// The highest quantile with ten samples beyond it in a 20 s window, so
  /// that a few slow samples (a stall of the host) cannot set a run's tail.
  double tail_quantile;
  double logit_tolerance;  ///< max |logit - reference| of a correct answer
  bool perspective;        ///< CRSA rectification before resize
};

// Why these three (benchmark/README.md has the long form):
// * online: forward is ~98% of service time and 4 img/s keeps the engine
//   about a third busy, so queues form and drain — kernel, threading and
//   batching changes show here. At 6 img/s (half busy) the median request
//   waits in queue, so host speed drift is amplified: in a queueing model
//   of this deployment a 15% slower service raised the median by 32% at
//   6 img/s and by 14% at 4 img/s.
// * offline: the same nn and serving layers used differently — int8,
//   full-batch flushes, a heavier decode mix across five datasets.
// * realtime: preprocessing-bound at batch 1 (decode, warp and copies of
//   25 MB frames); nn changes show little here.
constexpr ImageWorkload kImageWorkloads[] = {
    {"online_pv_fp32", "fp32", 8, 5e-3, Arrivals::kPoisson, 4.0, 0, 0.0, 0.5,
     true, 2.0, 0.875, 1e-4, false},
    {"offline_mixed_int8", "int8", 16, 2e-3, Arrivals::kClosedLoop, 0.0, 32,
     0.0, 0.0, false, 2.0, 0.95, 1e-3, false},
    {"realtime_crsa4k", "fp32", 4, 2e-3, Arrivals::kFixedRate, 2.0, 0, 0.5,
     0.5, false, 2.0, 0.75, 1e-4, true},
};

constexpr std::int64_t kClasses = 39;
constexpr std::uint64_t kWeightSeed = 7;
constexpr std::uint64_t kSizeSeed = 2025;
constexpr std::uint64_t kArrivalSeed = 0xa221;
constexpr std::size_t kPreprocThreads = 2;
constexpr std::int64_t kReferenceBatch = 8;
constexpr std::size_t kTraceEventsPerThread = 1 << 17;

const ImageWorkload* find_workload(std::string_view name) {
  for (const ImageWorkload& w : kImageWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

preproc::PreprocSpec preproc_spec(const ImageWorkload& w) {
  preproc::PreprocSpec spec;
  spec.output_size = nn::vit_tiny_config(kClasses).image;
  spec.perspective = w.perspective;
  return spec;
}

/// `count` distinct samples of a dataset. Their sizes follow the
/// dataset's size distribution (Fig. 4) drawn with one fixed seed, so
/// every workload seed serves the same size mix and only the pixel
/// content changes: with per-seed sizes, peak RSS of the offline mix
/// differed by half between seeds.
std::vector<preproc::EncodedImage> dataset_samples(const std::string& dataset,
                                                   std::uint64_t seed,
                                                   std::int64_t count) {
  const data::DatasetSpec spec = *data::find_dataset(dataset);
  std::vector<preproc::EncodedImage> samples;
  for (std::int64_t i = 0; i < count; ++i) {
    const auto [width, height] = spec.sizes.sample(kSizeSeed, i);
    const preproc::Image image = preproc::synthesize_field_image(
        width, height,
        core::splitmix64(seed ^ core::splitmix64(static_cast<std::uint64_t>(i))));
    samples.push_back(preproc::encode_image(image, spec.format));
  }
  return samples;
}

/// The workload's distinct encoded inputs, made before anything is timed.
std::vector<preproc::EncodedImage> make_inputs(const ImageWorkload& w,
                                               std::uint64_t seed) {
  if (w.name == "online_pv_fp32") {
    return dataset_samples("Plant Village", seed, 64);
  }
  if (w.name == "realtime_crsa4k") return dataset_samples("CRSA", seed, 8);
  // offline: 16 samples of each classification dataset, interleaved so
  // that cycling through the inputs visits the datasets round-robin.
  std::vector<std::vector<preproc::EncodedImage>> per_dataset;
  for (const data::DatasetSpec& spec : data::classification_datasets()) {
    per_dataset.push_back(dataset_samples(
        spec.name, core::splitmix64(seed ^ (per_dataset.size() + 1)), 16));
  }
  std::vector<preproc::EncodedImage> inputs;
  for (std::size_t j = 0; j < 16; ++j) {
    for (const auto& samples : per_dataset) inputs.push_back(samples[j]);
  }
  return inputs;
}

nn::ModelPtr build_model(const ImageWorkload& w) {
  nn::ModelPtr model = nn::build_vit(nn::vit_tiny_config(kClasses));
  nn::init_weights(*model, kWeightSeed);
  if (w.precision == "int8") nn::quantize_model(*model);
  model->prepare();
  return model;
}

/// Server construction, model build, quantize, prepare() and
/// register_model: the set-up a deployment pays before its first request.
std::unique_ptr<serving::Server> deploy(const ImageWorkload& w) {
  auto server = std::make_unique<serving::Server>(kPreprocThreads);
  serving::ModelDeploymentConfig config;
  config.name = std::string(w.name);
  config.max_batch = w.max_batch;
  config.instances = 1;
  config.max_queue_delay_s = w.max_queue_delay_s;
  config.preproc = preproc_spec(w);
  config.batched_preproc = true;
  config.precision = std::string(w.precision);
  const core::Status status = server->register_model(config, [&w] {
    return std::make_unique<serving::NativeBackend>(
        build_model(w), w.max_batch, std::string(w.precision));
  });
  if (!status.is_ok()) {
    std::fprintf(stderr, "register_model failed: %s\n",
                 status.message().c_str());
    return nullptr;
  }
  return server;
}

struct References {
  std::vector<std::vector<float>> logits;  ///< per distinct input
  std::vector<double> decode_s;      ///< single-thread decode_image
  std::vector<double> preprocess_s;  ///< single-thread preprocess_into
};

/// Reference logits for every distinct input: the single-image CPU
/// preprocessing path (what CpuPipeline runs per image) and batch-8
/// forwards on a separately built model with the same weights. The
/// preprocessing calls are timed on the side — the decode/transform
/// replay of the per-layer metrics.
core::Result<References> compute_references(
    const ImageWorkload& w, const std::vector<preproc::EncodedImage>& inputs,
    nn::Model& model) {
  const preproc::PreprocSpec spec = preproc_spec(w);
  References refs;
  const auto n = static_cast<std::int64_t>(inputs.size());
  for (std::int64_t start = 0; start < n; start += kReferenceBatch) {
    const std::int64_t b = std::min(kReferenceBatch, n - start);
    tensor::Tensor batch(
        tensor::Shape{b, 3, spec.output_size, spec.output_size},
        tensor::DType::kF32);
    for (std::int64_t k = 0; k < b; ++k) {
      const preproc::EncodedImage& input =
          inputs[static_cast<std::size_t>(start + k)];
      core::WallTimer timer;
      const auto decoded = preproc::decode_image(input);
      refs.decode_s.push_back(timer.elapsed_seconds());
      if (!decoded.is_ok()) return decoded.status();
      timer.reset();
      const core::Status st = preproc::preprocess_into(input, spec, batch, k);
      refs.preprocess_s.push_back(timer.elapsed_seconds());
      if (!st.is_ok()) return st;
    }
    const tensor::Tensor out = model.forward(batch);
    for (std::int64_t k = 0; k < b; ++k) {
      const float* row = out.f32() + k * kClasses;
      refs.logits.emplace_back(row, row + kClasses);
    }
  }
  return refs;
}

/// Due times in [start_s, start_s + length_s). Poisson arrivals are drawn
/// as a Poisson process conditioned on its count, from one fixed seed:
/// every workload seed offers the same arrivals, and only the images
/// change. With per-seed arrivals, the online median latency of seed 2
/// read about 30% above seed 1's in each of three paired runs.
std::vector<double> arrival_times(const ImageWorkload& w, double start_s,
                                  double length_s, core::Rng& rng) {
  const auto n = static_cast<std::size_t>(std::llround(w.rate_img_s * length_s));
  std::vector<double> times(n);
  for (std::size_t i = 0; i < n; ++i) {
    times[i] = start_s + (w.arrivals == Arrivals::kPoisson
                              ? rng.uniform(0.0, length_s)
                              : static_cast<double>(i) / w.rate_img_s);
  }
  std::sort(times.begin(), times.end());
  return times;
}

/// One submitted request: written by the submitter before hand-off and
/// by the collector after its response arrives.
struct Request {
  bool timed = false;       ///< inside the measured window
  std::size_t input = 0;    ///< index into the distinct inputs
  double due_s = 0.0;       ///< seconds from phase start
  double submit_s = 0.0;
  core::StatusCode code = core::StatusCode::kOk;
  bool answered = false;    ///< a response arrived (no submit error)
  serving::RequestTiming timing;
  double done_s = 0.0;      ///< submit + server-side total
  bool logits_checked = false;
  bool logits_ok = true;
  double logit_diff = 0.0;

  double latency_s() const { return done_s - due_s; }
  double lag_s() const { return submit_s - due_s; }
};

struct Phase {
  std::deque<Request> requests;  ///< deque: stable addresses on push_back
  double window_start_s = 0.0;
  double window_s = 0.0;
  serving::MetricsSnapshot before;
  serving::MetricsSnapshot after;
  std::uint64_t heap_allocs = 0;  ///< AlignedBuffer heap allocations
  /// Highest live heap sampled in the window, after each submit and each
  /// response: requests queued and batches in flight count.
  double heap_peak_mb = 0.0;
};

/// Drives one phase (warm-up, then the measured window) against a
/// deployed server and checks every answer against the references.
class LoadGenerator {
 public:
  LoadGenerator(serving::Server& server, const ImageWorkload& w,
                const std::vector<preproc::EncodedImage>& inputs,
                const References& refs, std::uint64_t seed)
      : server_(server), w_(w), inputs_(inputs), refs_(refs),
        arrival_rng_(kArrivalSeed),
        input_rng_(core::splitmix64(seed ^ 0x1a9e7ULL)) {}

  Phase run(double warmup_s, double window_s) {
    Phase phase;
    phase.window_start_s = warmup_s;
    phase.window_s = window_s;
    if (warmup_s > 0.0) fill_one_batch(phase);
    std::counting_semaphore<> slots(std::max(w_.inflight, 1));
    Inbox inbox;
    double collector_peak_mb = 0.0;
    std::jthread collector([&](std::stop_token stop) {
      collector_peak_mb = collect(inbox, slots, stop);
    });
    t0_ = Clock::now() + std::chrono::milliseconds(10);
    if (w_.arrivals == Arrivals::kClosedLoop) {
      submit_closed_loop(phase, inbox, slots);
    } else {
      submit_open_loop(phase, inbox);
    }
    inbox.close();
    collector.join();
    phase.after = snapshot();
    phase.heap_allocs =
        tensor::AlignedBuffer::heap_allocation_count() - allocs_at_open_;
    phase.heap_peak_mb = std::max(phase.heap_peak_mb, collector_peak_mb);
    return phase;
  }

 private:
  struct Item {
    Request* request = nullptr;
    std::future<serving::InferenceResponse> future;
  };

  class Inbox {
   public:
    void push(Item item) {
      {
        std::scoped_lock lock(mutex_);
        items_.push_back(std::move(item));
      }
      cv_.notify_one();
    }
    void close() {
      {
        std::scoped_lock lock(mutex_);
        closed_ = true;
      }
      cv_.notify_one();
    }
    /// False once closed and empty, or when stop is requested.
    bool pop(Item& item, std::stop_token stop) {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, stop, [this] { return !items_.empty() || closed_; });
      if (items_.empty()) return false;
      item = std::move(items_.front());
      items_.pop_front();
      return true;
    }

   private:
    std::mutex mutex_;
    std::condition_variable_any cv_;
    std::deque<Item> items_;
    bool closed_ = false;
  };

  /// One full batch, submitted back to back and awaited, before the
  /// warm-up proper: the backend's request arena then reaches its largest
  /// size the same way in every run. Grown from whatever batch sizes the
  /// arrivals happened to form first, it kept a different set of blocks
  /// each run, and the online workload's peak RSS varied by half.
  void fill_one_batch(Phase& phase) {
    std::vector<std::pair<Request*, std::future<serving::InferenceResponse>>>
        pending;
    std::vector<serving::InferenceRequest> requests;
    for (std::int64_t i = 0; i < w_.max_batch; ++i) {
      Request& r = phase.requests.emplace_back();
      r.input = next_input();
      requests.push_back(make_request(r));
    }
    t0_ = Clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Request& r = phase.requests[i];
      auto submitted = server_.submit(std::move(requests[i]));
      if (!submitted.is_ok()) {
        r.code = submitted.status().code();
        continue;
      }
      pending.emplace_back(&r, std::move(submitted.value()));
    }
    for (auto& [r, future] : pending) record(*r, future.get());
  }

  serving::MetricsSnapshot snapshot() const {
    const serving::MetricsRegistry* metrics =
        server_.metrics(std::string(w_.name));
    return metrics != nullptr ? metrics->snapshot(0.0)
                              : serving::MetricsSnapshot{};
  }

  double since_t0(Clock::time_point t) const {
    return std::chrono::duration<double>(t - t0_).count();
  }

  /// Counters the window is measured against, read just before its first
  /// request is submitted.
  void open_window(Phase& phase) {
    phase.before = snapshot();
    allocs_at_open_ = tensor::AlignedBuffer::heap_allocation_count();
  }

  serving::InferenceRequest make_request(const Request& r) const {
    serving::InferenceRequest request;
    request.model = std::string(w_.name);
    request.input = inputs_[r.input];
    request.deadline_s = w_.deadline_s;
    return request;
  }

  /// False when the server refused the request. After a true return the
  /// collector owns `r`.
  bool submit(Phase& phase, Request& r, serving::InferenceRequest request,
              Inbox& inbox) {
    auto submitted = server_.submit(std::move(request));
    if (!submitted.is_ok()) {
      r.code = submitted.status().code();
      return false;
    }
    if (r.timed) {
      phase.heap_peak_mb = std::max(phase.heap_peak_mb, live_heap_mb());
    }
    inbox.push(Item{&r, std::move(submitted.value())});
    return true;
  }

  std::size_t next_input() {
    if (w_.random_inputs) {
      return static_cast<std::size_t>(input_rng_.uniform_int(
          0, static_cast<std::int64_t>(inputs_.size()) - 1));
    }
    return sequence_++ % inputs_.size();
  }

  void submit_open_loop(Phase& phase, Inbox& inbox) {
    const std::vector<double> warm =
        arrival_times(w_, 0.0, phase.window_start_s, arrival_rng_);
    const std::vector<double> timed = arrival_times(
        w_, phase.window_start_s, phase.window_s, arrival_rng_);
    bool window_open = false;
    for (std::size_t i = 0; i < warm.size() + timed.size(); ++i) {
      Request& r = phase.requests.emplace_back();
      r.timed = i >= warm.size();
      r.due_s = r.timed ? timed[i - warm.size()] : warm[i];
      r.input = next_input();
      // Copy the payload before sleeping: a 25 MB frame copy must not
      // make the generator late.
      serving::InferenceRequest request = make_request(r);
      if (r.timed && !window_open) {
        open_window(phase);
        window_open = true;
      }
      std::this_thread::sleep_until(
          t0_ + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(r.due_s)));
      r.submit_s = since_t0(Clock::now());
      submit(phase, r, std::move(request), inbox);
    }
  }

  void submit_closed_loop(Phase& phase, Inbox& inbox,
                          std::counting_semaphore<>& slots) {
    const double end_s = phase.window_start_s + phase.window_s;
    bool window_open = false;
    for (;;) {
      slots.acquire();
      const double now_s = since_t0(Clock::now());
      if (now_s >= end_s) {
        slots.release();
        break;
      }
      Request& r = phase.requests.emplace_back();
      r.timed = now_s >= phase.window_start_s;
      r.input = next_input();
      if (r.timed && !window_open) {
        open_window(phase);
        window_open = true;
      }
      serving::InferenceRequest request = make_request(r);
      r.due_s = r.submit_s = since_t0(Clock::now());
      if (!submit(phase, r, std::move(request), inbox)) slots.release();
    }
  }

  /// Records every response; returns the highest live heap sampled
  /// after a response of the window.
  double collect(Inbox& inbox, std::counting_semaphore<>& slots,
                 std::stop_token stop) {
    double peak_mb = 0.0;
    Item item;
    while (inbox.pop(item, stop)) {
      const serving::InferenceResponse response = item.future.get();
      record(*item.request, response);
      if (item.request->timed) peak_mb = std::max(peak_mb, live_heap_mb());
      if (w_.arrivals == Arrivals::kClosedLoop) slots.release();
    }
    return peak_mb;
  }

  void record(Request& r, const serving::InferenceResponse& response) const {
    r.answered = true;
    r.code = response.status.code();
    r.timing = response.timing;
    // The server's total runs from enqueue, which follows submit_s by
    // microseconds.
    r.done_s = r.submit_s + response.timing.total_s;
    if (response.logits.empty()) return;
    r.logits_checked = true;
    const std::vector<float>& ref = refs_.logits[r.input];
    if (response.logits.size() != ref.size()) {
      r.logits_ok = false;
      r.logit_diff = std::numeric_limits<double>::infinity();
      return;
    }
    std::size_t ref_top1 = 0;
    for (std::size_t c = 0; c < ref.size(); ++c) {
      r.logit_diff = std::max(
          r.logit_diff,
          static_cast<double>(std::fabs(response.logits[c] - ref[c])));
      if (ref[c] > ref[ref_top1]) ref_top1 = c;
    }
    r.logits_ok = r.logit_diff <= w_.logit_tolerance &&
                  response.predicted_class ==
                      static_cast<std::int64_t>(ref_top1);
  }

  serving::Server& server_;
  const ImageWorkload& w_;
  const std::vector<preproc::EncodedImage>& inputs_;
  const References& refs_;
  core::Rng arrival_rng_;
  core::Rng input_rng_;
  std::size_t sequence_ = 0;
  Clock::time_point t0_;
  std::uint64_t allocs_at_open_ = 0;
};

bool is_ok(const Request& r) { return r.code == core::StatusCode::kOk; }

/// Failed operations: errors other than a missed deadline (which is a
/// latency outcome, counted against goodput instead).
bool is_failure(const Request& r) {
  return r.code != core::StatusCode::kOk &&
         r.code != core::StatusCode::kDeadlineExceeded;
}

struct Batch {
  std::int64_t size = 0;
  double preprocess_s = 0.0;
  double inference_s = 0.0;
};

/// Batches of the window. Every member of a batch carries the same
/// timing fields, so equal (size, preprocess, inference) triples are one
/// batch.
std::vector<Batch> window_batches(const Phase& phase) {
  std::set<std::tuple<std::int64_t, double, double>> seen;
  std::vector<Batch> batches;
  for (const Request& r : phase.requests) {
    if (!r.timed || !r.answered || r.timing.batch_size <= 0) continue;
    const auto key = std::make_tuple(r.timing.batch_size,
                                     r.timing.preprocess_s,
                                     r.timing.inference_s);
    if (seen.insert(key).second) {
      batches.push_back(
          {r.timing.batch_size, r.timing.preprocess_s, r.timing.inference_s});
    }
  }
  return batches;
}

/// Latency of every answer of the window, late ones included: with only
/// answers in time, a run in which the host slowed every frame past its
/// deadline read a latency of 0.
std::vector<double> window_latencies_ms(const Phase& phase) {
  std::vector<double> ms;
  for (const Request& r : phase.requests) {
    if (r.timed && r.answered && !is_failure(r)) {
      ms.push_back(r.latency_s() * 1e3);
    }
  }
  return ms;
}

/// Answers that are correct and within the workload's latency limit, per
/// second from the window's start to its last answer.
double window_goodput(const Phase& phase, const ImageWorkload& w) {
  std::int64_t good = 0;
  double last_done_s = phase.window_start_s;
  for (const Request& r : phase.requests) {
    if (!r.timed || !r.answered) continue;
    last_done_s = std::max(last_done_s, r.done_s);
    if (is_ok(r) && r.logits_ok &&
        (w.latency_limit_s <= 0.0 || r.latency_s() <= w.latency_limit_s)) {
      ++good;
    }
  }
  const double span_s = last_done_s - phase.window_start_s;
  return span_s > 0.0 ? static_cast<double>(good) / span_s : 0.0;
}

void check_phase(const Phase& phase, const ImageWorkload& w,
                 const std::string& label, RunResult& result) {
  std::int64_t timed = 0, failed = 0, mismatched = 0, checked = 0;
  double max_diff = 0.0;
  for (const Request& r : phase.requests) {
    if (r.logits_checked) {
      ++checked;
      max_diff = std::max(max_diff, r.logit_diff);
      if (!r.logits_ok) ++mismatched;
    }
    if (!r.timed) continue;
    ++timed;
    if (is_failure(r)) ++failed;
  }
  result.attempted += timed;
  result.failed += failed;
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "%lld answers checked, %lld mismatched; max |dlogit| %.3g "
                "(tolerance %.0e, top-1 must agree)",
                static_cast<long long>(checked),
                static_cast<long long>(mismatched), max_diff,
                w.logit_tolerance);
  result.check(label + ".logits", checked > 0 && mismatched == 0, detail);
  const double prior = result.details.get_number("max_logit_diff", 0.0);
  result.details["max_logit_diff"] = core::Json(std::max(prior, max_diff));
  std::snprintf(detail, sizeof(detail), "%lld timed requests",
                static_cast<long long>(timed));
  result.check(label + ".window", timed > 0, detail);
}

void end_to_end_metrics(const Phase& phase, const ImageWorkload& w,
                        RunResult& result) {
  const std::vector<double> latency_ms = window_latencies_ms(phase);
  result.metric("latency_p50_ms", median(latency_ms), "ms");
  result.metric("latency_tail_ms", quantile(latency_ms, w.tail_quantile),
                "ms");
  result.metric("throughput_per_s", window_goodput(phase, w), "1/s");
  result.metric("memory_mb", phase.heap_peak_mb, "MB");
  result.details["latency_samples"] =
      core::Json(static_cast<std::int64_t>(latency_ms.size()));
  result.details["tail_quantile"] = core::Json(w.tail_quantile);
}

std::uint64_t flush_total(const serving::FlushCounts& counts) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  return total;
}

/// serving / preproc / nn / tensor / loadgen metrics of an untraced phase.
void layer_metrics(const Phase& phase, const References& refs,
                   double flops_per_img, double peak_gflops,
                   RunResult& result) {
  std::vector<double> queue_ms, lag_ms;
  std::int64_t timed = 0, dropped = 0, shed = 0;
  for (const Request& r : phase.requests) {
    if (!r.timed) continue;
    ++timed;
    lag_ms.push_back(r.lag_s() * 1e3);
    if (r.code == core::StatusCode::kResourceExhausted) ++shed;
    if (!r.answered) continue;
    if (r.code == core::StatusCode::kDeadlineExceeded &&
        r.timing.batch_size == 0) {
      ++dropped;
    }
    queue_ms.push_back(r.timing.queue_s * 1e3);
  }
  const std::vector<Batch> batches = window_batches(phase);
  std::vector<double> preproc_ms_per_img, infer_ms, infer_ms_per_img;
  double preproc_busy_s = 0.0, infer_busy_s = 0.0, images = 0.0;
  for (const Batch& b : batches) {
    const auto n = static_cast<double>(b.size);
    preproc_ms_per_img.push_back(b.preprocess_s / n * 1e3);
    infer_ms.push_back(b.inference_s * 1e3);
    infer_ms_per_img.push_back(b.inference_s / n * 1e3);
    preproc_busy_s += b.preprocess_s;
    infer_busy_s += b.inference_s;
    images += n;
  }
  const std::size_t timeout = static_cast<std::size_t>(
      serving::FlushReason::kTimeout);
  const double flushes = static_cast<double>(flush_total(phase.after.flushes) -
                                             flush_total(phase.before.flushes));
  const double timeout_flushes = static_cast<double>(
      phase.after.flushes[timeout] - phase.before.flushes[timeout]);

  result.metric("serving.queue_ms.p50", median(queue_ms), "ms");
  result.metric("serving.queue_ms.p95", quantile(queue_ms, 0.95), "ms");
  result.metric("serving.batch_size.mean",
                batches.empty() ? 0.0
                                : images / static_cast<double>(batches.size()),
                "count");
  result.metric("serving.timeout_flush_ratio",
                flushes > 0.0 ? timeout_flushes / flushes : 0.0, "ratio");
  result.metric("serving.deadline_dropped", static_cast<double>(dropped),
                "count");
  result.metric("serving.shed", static_cast<double>(shed), "count");
  result.metric("serving.cold_starts",
                static_cast<double>(phase.after.cold_starts -
                                    phase.before.cold_starts),
                "count");

  std::vector<double> decode_ms, transform_ms;
  for (std::size_t i = 0; i < refs.decode_s.size(); ++i) {
    decode_ms.push_back(refs.decode_s[i] * 1e3);
    transform_ms.push_back((refs.preprocess_s[i] - refs.decode_s[i]) * 1e3);
  }
  result.metric("preproc.ms_per_img.p50", median(preproc_ms_per_img), "ms");
  result.metric("preproc.busy_share", preproc_busy_s / phase.window_s,
                "ratio");
  result.metric("preproc.decode_ms_per_img", median(decode_ms), "ms");
  result.metric("preproc.transform_ms_per_img", median(transform_ms), "ms");

  const double gflops =
      infer_busy_s > 0.0 ? flops_per_img * images / infer_busy_s / 1e9 : 0.0;
  result.metric("nn.infer_ms_per_batch.p50", median(infer_ms), "ms");
  result.metric("nn.ms_per_img.p50", median(infer_ms_per_img), "ms");
  result.metric("nn.busy_share", infer_busy_s / phase.window_s, "ratio");
  result.metric("nn.gflops", gflops, "GFLOP/s");
  result.metric("nn.mfu", peak_gflops > 0.0 ? gflops / peak_gflops : 0.0,
                "ratio");
  result.metric("platform.host_gemm_gflops", peak_gflops, "GFLOP/s");

  result.metric("tensor.heap_allocs_per_img",
                timed > 0 ? static_cast<double>(phase.heap_allocs) /
                                static_cast<double>(timed)
                          : 0.0,
                "count");
  result.metric("loadgen.lag_ms.p99", quantile(lag_ms, 0.99), "ms");
  result.metric("loadgen.lag_ms.max", quantile(lag_ms, 1.0), "ms");
}

enum class LayerGroup { kEmbed, kBlocks, kHead };

LayerGroup layer_group(std::string_view layer) {
  if (layer == "embed") return LayerGroup::kEmbed;
  if (layer.rfind("block", 0) == 0) return LayerGroup::kBlocks;
  return LayerGroup::kHead;  // final_ln, cls, head
}

/// obs.* and nn.layer.* metrics from the spans of a traced phase.
void trace_metrics(const core::Json& doc, std::uint64_t dropped,
                   const nn::MfuReport& per_image, double peak_gflops,
                   RunResult& result) {
  // Request trees: where each request's time went.
  double segment_us[static_cast<int>(obs::Segment::kSegmentCount)] = {};
  double end_to_end_us = 0.0, unattributed_us = 0.0;
  std::int64_t trees = 0;
  for (const std::uint64_t id : obs::trace_ids(doc)) {
    const auto path = obs::critical_path(doc, id);
    if (!path.is_ok()) continue;
    ++trees;
    end_to_end_us += path.value().end_to_end_us;
    unattributed_us += path.value().unattributed_us;
    for (int s = 0; s < static_cast<int>(obs::Segment::kSegmentCount); ++s) {
      segment_us[s] += path.value().segment_us[s];
    }
  }
  auto share = [&](double us) {
    return end_to_end_us > 0.0 ? us / end_to_end_us : 0.0;
  };
  auto segment = [&](obs::Segment s) {
    return share(segment_us[static_cast<int>(s)]);
  };
  const double unattributed = share(unattributed_us);
  result.metric("obs.cp.queue_share", segment(obs::Segment::kQueue), "ratio");
  result.metric("obs.cp.preprocess_share", segment(obs::Segment::kPreprocess),
                "ratio");
  result.metric("obs.cp.inference_share", segment(obs::Segment::kInference),
                "ratio");
  // The server's "respond" stage classifies as the transmit segment.
  result.metric("obs.cp.respond_share", segment(obs::Segment::kTransmit),
                "ratio");
  result.metric("obs.cp.unattributed_share", unattributed, "ratio");
  result.metric("obs.trace_dropped", static_cast<double>(dropped), "count");
  result.details["traced_requests"] = core::Json(trees);

  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "%llu events dropped, %lld request trees",
                static_cast<unsigned long long>(dropped),
                static_cast<long long>(trees));
  result.check("trace.complete", dropped == 0 && trees > 0, detail);
  std::snprintf(detail, sizeof(detail), "unattributed share %.4f (max 0.05)",
                unattributed);
  result.check("trace.attributed", unattributed <= 0.05, detail);

  // Layer spans of Model::forward, joined with the analytic FLOPs.
  std::map<std::string, double> flops_per_img;
  for (const nn::LayerMfu& layer : per_image.layers) {
    flops_per_img[layer.layer] = layer.flops;
  }
  double self_us[3] = {};
  double block_flops = 0.0;
  double images = 0.0;
  for (const core::Json& event : doc.find("traceEvents")->as_array()) {
    if (event.get_string("ph", "") != "X" ||
        event.get_string("cat", "") != "nn") {
      continue;
    }
    const std::string name = event.get_string("name", "");
    const core::Json* args = event.find("args");
    const double batch =
        args != nullptr ? args->get_number("batch", 0.0) : 0.0;
    const LayerGroup group = layer_group(name);
    self_us[static_cast<int>(group)] += event.get_number("dur", 0.0);
    if (group == LayerGroup::kEmbed) images += batch;
    if (group == LayerGroup::kBlocks) block_flops += flops_per_img[name] * batch;
  }
  auto per_img_ms = [&](LayerGroup g) {
    return images > 0.0 ? self_us[static_cast<int>(g)] / 1e3 / images : 0.0;
  };
  const double block_s = self_us[static_cast<int>(LayerGroup::kBlocks)] / 1e6;
  result.metric("nn.layer.embed.self_ms", per_img_ms(LayerGroup::kEmbed),
                "ms/img");
  result.metric("nn.layer.blocks.self_ms", per_img_ms(LayerGroup::kBlocks),
                "ms/img");
  result.metric("nn.layer.head.self_ms", per_img_ms(LayerGroup::kHead),
                "ms/img");
  result.metric("nn.layer.blocks.mfu",
                block_s > 0.0 && peak_gflops > 0.0
                    ? block_flops / block_s / 1e9 / peak_gflops
                    : 0.0,
                "ratio");
}

/// Forward images per second of NativeBackend::infer on one batch at
/// `threads` OpenMP threads (best of the repetitions: interference on a
/// shared host only ever slows a run down).
double forward_rate(serving::NativeBackend& backend,
                    const tensor::Tensor& batch, int threads, int min_reps) {
  omp_set_num_threads(threads);
  double best_s = std::numeric_limits<double>::infinity();
  core::WallTimer total;
  for (int rep = 0; rep < 8 && (rep < min_reps || total.elapsed_seconds() < 0.5);
       ++rep) {
    core::WallTimer timer;
    const auto inferred = backend.infer(batch);
    if (!inferred.is_ok()) return 0.0;
    best_s = std::min(best_s, timer.elapsed_seconds());
  }
  return static_cast<double>(batch.shape()[0]) / best_s;
}

std::int64_t modal_batch(const std::vector<Batch>& batches) {
  std::map<std::int64_t, std::int64_t> counts;
  for (const Batch& b : batches) ++counts[b.size];
  std::int64_t mode = 1, best = 0;
  for (const auto& [size, count] : counts) {
    if (count > best) {
      best = count;
      mode = size;
    }
  }
  return mode;
}

void thread_scaling_metrics(const ImageWorkload& w, nn::ModelPtr model,
                            const std::vector<preproc::EncodedImage>& inputs,
                            std::int64_t batch_size, RunResult& result) {
  std::vector<preproc::EncodedImage> members;
  for (std::int64_t i = 0; i < batch_size; ++i) {
    members.push_back(inputs[static_cast<std::size_t>(i) % inputs.size()]);
  }
  preproc::CpuPipeline pipeline;
  const auto batch = pipeline.run(members, preproc_spec(w));
  if (!batch.is_ok()) {
    result.check("replay.batch", false, batch.status().message());
    return;
  }
  serving::NativeBackend backend(std::move(model), batch_size,
                                 std::string(w.precision));
  const int max_threads = omp_get_max_threads();
  (void)backend.infer(batch.value());  // warm-up at full width
  const double tmax = forward_rate(backend, batch.value(), max_threads, 2);
  const double t1 = forward_rate(backend, batch.value(), 1, 1);
  omp_set_num_threads(max_threads);
  result.metric("nn.fwd_img_s.t1", t1, "img/s");
  result.metric("nn.fwd_img_s.tmax", tmax, "img/s");
  result.metric("nn.thread_scaling", t1 > 0.0 ? tmax / t1 : 0.0, "x");
  result.details["replay_batch"] = core::Json(batch_size);
  result.details["replay_threads"] =
      core::Json(static_cast<std::int64_t>(max_threads));
}

}  // namespace

bool is_image_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

core::Result<double> image_setup_s(const RunOptions& options) {
  const ImageWorkload& w = *find_workload(options.workload);
  core::WallTimer timer;
  const std::unique_ptr<serving::Server> server = deploy(w);
  const double seconds = timer.elapsed_seconds();
  if (server == nullptr) return core::Status::internal("register_model failed");
  server->shutdown();
  return seconds;
}

RunResult run_image_workload(const RunOptions& options) {
  const ImageWorkload& w = *find_workload(options.workload);
  RunResult result;
  result.not_exercised = {"sim."};

  const std::vector<preproc::EncodedImage> inputs =
      make_inputs(w, options.seed);
  nn::ModelPtr reference_model = build_model(w);
  auto refs = compute_references(w, inputs, *reference_model);
  if (!refs.is_ok()) {
    result.check("references", false, refs.status().message());
    return result;
  }
  result.details["distinct_inputs"] =
      core::Json(static_cast<std::int64_t>(inputs.size()));

  std::unique_ptr<serving::Server> server = deploy(w);
  if (server == nullptr) {
    result.check("deploy", false, "register_model failed");
    return result;
  }

  LoadGenerator load(*server, w, inputs, refs.value(), options.seed);
  if (!options.trace) {
    const Phase phase = load.run(w.warmup_s, options.seconds);
    server->shutdown();
    check_phase(phase, w, "window", result);
    end_to_end_metrics(phase, w, result);
    return result;
  }

  // Traced run: half the window untraced (layer counters and the
  // overhead baseline), then half with the span recorder on.
  const Phase untraced = load.run(w.warmup_s, options.seconds / 2.0);
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.enable(kTraceEventsPerThread);
  const Phase traced = load.run(0.0, options.seconds / 2.0);
  const core::Json doc = recorder.to_json();
  const std::uint64_t dropped = recorder.dropped();
  recorder.disable();
  server->shutdown();
  check_phase(untraced, w, "untraced", result);
  check_phase(traced, w, "traced", result);

  const double peak_gflops =
      platform::measure_host_gemm_flops(/*size=*/768, /*iters=*/4).gflops;
  const nn::MfuReport per_image = nn::profile_layer_mfu(
      *reference_model,
      tensor::Tensor::full(
          {1, 3, preproc_spec(w).output_size, preproc_spec(w).output_size},
          0.5f),
      peak_gflops, /*warmup=*/0, /*iters=*/1);
  layer_metrics(untraced, refs.value(), per_image.total_flops(), peak_gflops,
                result);
  trace_metrics(doc, dropped, per_image, peak_gflops, result);
  const double p50_untraced = median(window_latencies_ms(untraced));
  const double p50_traced = median(window_latencies_ms(traced));
  result.metric("obs.trace_overhead_pct",
                p50_untraced > 0.0
                    ? (p50_traced - p50_untraced) / p50_untraced * 100.0
                    : 0.0,
                "%");
  thread_scaling_metrics(w, std::move(reference_model), inputs,
                         modal_batch(window_batches(untraced)), result);
  return result;
}

}  // namespace harvest::benchmark
