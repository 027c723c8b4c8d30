#include "serving/sequence/sequence_sim.hpp"

#include <algorithm>
#include <deque>
#include <vector>

#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/status.hpp"

namespace harvest::serving::sequence {

namespace {

struct SimSeq {
  double t_arrive = 0.0;
  std::int64_t prompt = 0;
  std::int64_t decode = 0;   ///< tokens to generate (incl. the prefill token)
  std::int64_t fail_at = -1; ///< fail after generating this many; -1 = never

  std::int64_t done = 0;     ///< tokens generated so far
  double ttft_s = -1.0;
  bool finished = false;     ///< completed or failed (static: zombie row)
  bool failed = false;
};

std::int64_t round_up(std::int64_t n, std::int64_t multiple) {
  if (multiple <= 1) return n;
  return ((n + multiple - 1) / multiple) * multiple;
}

}  // namespace

const char* batch_policy_name(BatchPolicy policy) {
  switch (policy) {
    case BatchPolicy::kContinuous: return "continuous";
    case BatchPolicy::kStatic: return "static";
  }
  return "unknown";
}

SequenceSimReport simulate_sequences(const SequenceSimConfig& config) {
  HARVEST_CHECK(config.arrival_rate > 0.0 && config.duration_s > 0.0);
  HARVEST_CHECK(config.max_active > 0);
  HARVEST_CHECK(config.prompt_min > 0 && config.prompt_max >= config.prompt_min);
  HARVEST_CHECK(config.decode_min > 0 && config.decode_max >= config.decode_min);

  // Arrival stream: one RNG, drawn up front, so every policy sees the
  // bit-identical workload.
  core::Rng rng(core::splitmix64(config.seed));
  std::vector<SimSeq> seqs;
  for (double t = rng.exponential(config.arrival_rate);
       t < config.duration_s; t += rng.exponential(config.arrival_rate)) {
    SimSeq s;
    s.t_arrive = t;
    s.prompt = rng.uniform_int(config.prompt_min, config.prompt_max);
    s.decode = rng.uniform_int(config.decode_min, config.decode_max);
    if (config.fail_rate > 0.0 &&
        rng.uniform(0.0, 1.0) < config.fail_rate) {
      s.fail_at = rng.uniform_int(1, s.decode);
    }
    seqs.push_back(s);
  }

  SequenceSimReport report;
  report.arrivals = seqs.size();

  std::deque<std::size_t> queue;
  std::vector<std::size_t> live;
  std::size_t next = 0;
  double clock = 0.0;
  std::uint64_t live_rows_sum = 0;
  std::uint64_t padded_rows_sum = 0;
  std::vector<double> ttfts;

  const auto ingest = [&](double now) {
    while (next < seqs.size() && seqs[next].t_arrive <= now) {
      if (config.queue_capacity > 0 &&
          queue.size() >= config.queue_capacity) {
        ++report.shed;
      } else {
        queue.push_back(next);
      }
      ++next;
    }
  };

  // One generated token; marks completion/failure. Returns false once
  // the sequence has finished.
  const auto generate = [&](SimSeq& s) {
    ++s.done;
    ++report.tokens_generated;
    if (s.fail_at == s.done) {
      s.finished = s.failed = true;
      ++report.failed;
      return false;
    }
    if (s.done >= s.decode) {
      s.finished = true;
      ++report.completed;
      if (config.ttft_deadline_s <= 0.0 || s.ttft_s <= config.ttft_deadline_s) {
        report.tokens_good += static_cast<std::uint64_t>(s.done);
      }
      return false;
    }
    return true;
  };

  // Prefill one sequence at `clock` (advancing it) and emit its first
  // token. Returns false when the sequence already finished (single-
  // token generation or immediate failure).
  const auto prefill = [&](std::size_t idx) {
    SimSeq& s = seqs[idx];
    ++report.admitted;
    clock += config.cost.prefill_s(s.prompt);
    s.ttft_s = clock - s.t_arrive;
    ttfts.push_back(s.ttft_s);
    return generate(s);
  };

  const auto price_step = [&](std::int64_t rows, std::int64_t padded,
                              std::int64_t cached_total) {
    clock += config.cost.step_s(padded, cached_total);
    ++report.steps;
    live_rows_sum += static_cast<std::uint64_t>(rows);
    padded_rows_sum += static_cast<std::uint64_t>(padded);
  };

  // The two policies differ in two decisions. Continuous (iteration-
  // level) batching lets queued sequences join the running batch between
  // any two steps and retires a finished row at once, so it stops
  // costing a row. Static (sequence-level) batching forms a new batch
  // only once the last one has fully retired; finished members keep
  // their padded row (zombies) until every row has finished.
  const bool continuous = config.policy == BatchPolicy::kContinuous;
  const auto finished = [&](std::size_t idx) { return seqs[idx].finished; };
  while (next < seqs.size() || !queue.empty() || !live.empty()) {
    if (live.empty() && queue.empty()) {
      clock = std::max(clock, seqs[next].t_arrive);
      ingest(clock);
    }
    if (continuous || live.empty()) {
      while (static_cast<std::int64_t>(live.size()) < config.max_active &&
             !queue.empty()) {
        const std::size_t idx = queue.front();
        queue.pop_front();
        if (prefill(idx) || !continuous) live.push_back(idx);
        ingest(clock);  // arrivals during the prefill
      }
    }
    if (live.empty()) continue;

    const auto rows = static_cast<std::int64_t>(live.size());
    std::int64_t live_rows = 0;
    std::int64_t cached_total = 0;
    for (std::size_t idx : live) {
      cached_total += seqs[idx].prompt + seqs[idx].done;
      if (!finished(idx)) ++live_rows;
    }
    // The rectangular batch prices every row, finished or not.
    price_step(live_rows, round_up(rows, config.length_multiple_of),
               cached_total);
    for (std::size_t idx : live) {
      if (!finished(idx)) generate(seqs[idx]);
    }
    if (continuous || std::all_of(live.begin(), live.end(), finished)) {
      std::erase_if(live, finished);
    }
    ingest(clock);
  }

  report.sim_time_s = clock;
  if (clock > 0.0) {
    report.throughput_tok_s =
        static_cast<double>(report.tokens_generated) / clock;
    report.goodput_tok_s = static_cast<double>(report.tokens_good) / clock;
  }
  std::sort(ttfts.begin(), ttfts.end());
  report.ttft_p50_s = core::nearest_rank(ttfts, 0.50);
  report.ttft_p95_s = core::nearest_rank(ttfts, 0.95);
  report.ttft_p99_s = core::nearest_rank(ttfts, 0.99);
  if (report.steps > 0) {
    report.mean_batch_rows = static_cast<double>(live_rows_sum) /
                             static_cast<double>(report.steps);
    report.row_utilization = static_cast<double>(live_rows_sum) /
                             static_cast<double>(padded_rows_sum);
  }
  return report;
}

}  // namespace harvest::serving::sequence
