#include "serving/sequence/sequence_backend.hpp"

#include <algorithm>
#include <chrono>

#include "core/rng.hpp"
#include "tensor/tensor.hpp"

namespace harvest::serving::sequence {

namespace {

std::int32_t argmax_row(const float* logits, std::int64_t vocab) {
  std::int64_t best = 0;
  float best_v = logits[0];
  for (std::int64_t i = 1; i < vocab; ++i) {
    if (logits[i] > best_v) {
      best_v = logits[i];
      best = i;
    }
  }
  return static_cast<std::int32_t>(best);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

NativeSequenceBackend::NativeSequenceBackend(nn::TokenModelPtr model,
                                             std::int64_t length_multiple_of)
    : model_(std::move(model)),
      length_multiple_of_(std::max<std::int64_t>(length_multiple_of, 1)) {
  HARVEST_CHECK(model_ != nullptr);
}

core::Result<SequenceStepResult> NativeSequenceBackend::prefill(
    const std::int32_t* prompt, std::int64_t count, nn::SequenceState& state) {
  if (count <= 0) {
    return core::Status::invalid_argument("empty prompt");
  }
  if (state.length() + count > model_->config().max_tokens) {
    return core::Status::invalid_argument("prompt exceeds context capacity");
  }
  const auto start = std::chrono::steady_clock::now();
  const std::int64_t vocab = model_->config().vocab;
  SequenceStepResult result;
  {
    core::ArenaScope scope(arena_);
    tensor::Tensor logits = tensor::Tensor::scratch({vocab});
    model_->prefill(prompt, count, state, logits.f32());
    result.tokens.push_back(argmax_row(logits.f32(), vocab));
  }
  arena_.reset();
  result.device_seconds = seconds_since(start);
  return result;
}

core::Result<SequenceStepResult> NativeSequenceBackend::decode(
    const std::int32_t* last_tokens, nn::SequenceState* const* states,
    std::int64_t count) {
  if (count <= 0) return core::Status::invalid_argument("empty decode batch");
  const auto start = std::chrono::steady_clock::now();
  const std::int64_t vocab = model_->config().vocab;
  SequenceStepResult result;
  result.tokens.reserve(static_cast<std::size_t>(count));
  {
    core::ArenaScope scope(arena_);
    tensor::Tensor logits = tensor::Tensor::scratch({count, vocab});
    model_->decode_batch(last_tokens, states, count, logits.f32(),
                         length_multiple_of_);
    for (std::int64_t i = 0; i < count; ++i) {
      result.tokens.push_back(argmax_row(logits.f32() + i * vocab, vocab));
    }
  }
  arena_.reset();
  result.device_seconds = seconds_since(start);
  return result;
}

double TokenCostModel::step_s(std::int64_t rows,
                              std::int64_t cached_total) const {
  const double macs = static_cast<double>(rows) * macs_per_token +
                      static_cast<double>(cached_total) * macs_per_cached_token;
  return step_overhead_s + macs / mac_rate;
}

double TokenCostModel::prefill_s(std::int64_t prompt_tokens) const {
  // A packed [T, dim] pass; the causal-attention term sums 0..T-1.
  const double t = static_cast<double>(prompt_tokens);
  const double macs =
      t * macs_per_token + 0.5 * t * (t - 1.0) * macs_per_cached_token;
  return prefill_overhead_s + macs / mac_rate;
}

TokenCostModel TokenCostModel::for_model(const nn::TokenModelConfig& config,
                                         double mac_rate) {
  // The cached-token slope is macs(1) - macs(0), the flat term the
  // zero-cache cost.
  TokenCostModel cost;
  cost.macs_per_token = nn::token_macs_per_token(config, 0);
  cost.macs_per_cached_token = nn::token_macs_per_token(config, 1) -
                               nn::token_macs_per_token(config, 0);
  cost.mac_rate = mac_rate;
  return cost;
}

SimSequenceBackend::SimSequenceBackend(const nn::TokenModelConfig& config,
                                       TokenCostModel cost, std::uint64_t seed)
    : config_(config), cost_(cost), seed_(seed) {}

nn::SequenceStateSpec SimSequenceBackend::state_spec() const {
  // The sim holds no tensors, but the pool still accounts real bytes:
  // a simulated A100 deployment sizes its pool as the real one would.
  return {config_.arch == "attn" ? nn::StateKind::kKvCache
                                 : nn::StateKind::kRecurrent,
          config_.depth, config_.dim, config_.max_tokens};
}

std::int32_t SimSequenceBackend::next_token(std::int32_t last,
                                            std::int64_t position) const {
  const std::uint64_t h = core::splitmix64(
      seed_ ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(last))
               << 32) ^
      static_cast<std::uint64_t>(position));
  return static_cast<std::int32_t>(h % static_cast<std::uint64_t>(
                                           std::max<std::int64_t>(
                                               config_.vocab, 1)));
}

core::Result<SequenceStepResult> SimSequenceBackend::prefill(
    const std::int32_t* prompt, std::int64_t count, nn::SequenceState& state) {
  if (count <= 0) return core::Status::invalid_argument("empty prompt");
  if (state.length() + count > config_.max_tokens) {
    return core::Status::invalid_argument("prompt exceeds context capacity");
  }
  state.advance(count);
  SequenceStepResult result;
  result.tokens.push_back(next_token(prompt[count - 1], state.length()));
  result.device_seconds = cost_.prefill_s(count);
  return result;
}

core::Result<SequenceStepResult> SimSequenceBackend::decode(
    const std::int32_t* last_tokens, nn::SequenceState* const* states,
    std::int64_t count) {
  if (count <= 0) return core::Status::invalid_argument("empty decode batch");
  SequenceStepResult result;
  result.tokens.reserve(static_cast<std::size_t>(count));
  std::int64_t cached_total = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    cached_total += states[i]->length();
    states[i]->advance();
    result.tokens.push_back(next_token(last_tokens[i], states[i]->length()));
  }
  result.device_seconds = cost_.step_s(count, cached_total);
  return result;
}

}  // namespace harvest::serving::sequence
