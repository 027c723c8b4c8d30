#pragma once

/// \file sequence_backend.hpp
/// Execution backends for the sequence scheduler, mirroring the image
/// path's Backend split: `NativeSequenceBackend` runs a real TokenModel
/// on the host CPU (greedy argmax sampling), `SimSequenceBackend`
/// prices the same steps with an analytic token cost model so the DES
/// and the bench can explore platforms this machine does not have —
/// deterministically.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/status.hpp"
#include "nn/token_model.hpp"

namespace harvest::serving::sequence {

/// Result of one prefill or one packed decode step.
struct SequenceStepResult {
  /// One greedily-sampled next token per input row (prefill: one).
  std::vector<std::int32_t> tokens;
  /// What the step cost on the (possibly simulated) device.
  double device_seconds = 0.0;
};

class SequenceBackend {
 public:
  virtual ~SequenceBackend() = default;

  virtual const std::string& name() const = 0;
  virtual const nn::TokenModelConfig& model_config() const = 0;
  virtual nn::SequenceStateSpec state_spec() const = 0;

  /// Absorb a prompt into `state` and sample the first generated token.
  virtual core::Result<SequenceStepResult> prefill(
      const std::int32_t* prompt, std::int64_t count,
      nn::SequenceState& state) = 0;

  /// One packed decode iteration: row i consumes `last_tokens[i]`
  /// against `states[i]` and yields `tokens[i]`.
  virtual core::Result<SequenceStepResult> decode(
      const std::int32_t* last_tokens, nn::SequenceState* const* states,
      std::int64_t count) = 0;
};

using SequenceBackendPtr = std::unique_ptr<SequenceBackend>;

/// Real forward passes through an nn::TokenModel.
class NativeSequenceBackend final : public SequenceBackend {
 public:
  NativeSequenceBackend(nn::TokenModelPtr model,
                        std::int64_t length_multiple_of = 1);

  const std::string& name() const override { return model_->name(); }
  const nn::TokenModelConfig& model_config() const override {
    return model_->config();
  }
  nn::SequenceStateSpec state_spec() const override {
    return model_->state_spec();
  }

  core::Result<SequenceStepResult> prefill(const std::int32_t* prompt,
                                           std::int64_t count,
                                           nn::SequenceState& state) override;
  core::Result<SequenceStepResult> decode(const std::int32_t* last_tokens,
                                          nn::SequenceState* const* states,
                                          std::int64_t count) override;

 private:
  nn::TokenModelPtr model_;
  std::int64_t length_multiple_of_;
  /// Request arena bound around each prefill and decode call (activations
  /// and logits) and reset after it; scheduler-thread only.
  core::BumpArena arena_;
};

/// Analytic per-step cost for the DES and the sim backend: a fixed
/// iteration overhead (kernel launches, scheduling) plus compute priced
/// at a sustained MAC rate. The cached-token term is what makes
/// attention's step cost grow with history while RWKV's stays flat.
struct TokenCostModel {
  double step_overhead_s = 50e-6;
  double prefill_overhead_s = 100e-6;
  double macs_per_token = 2.5e6;        ///< history-independent work
  double macs_per_cached_token = 0.0;   ///< × cached tokens (attention)
  double mac_rate = 50e9;               ///< sustained MACs/s

  /// One packed iteration over `rows` rows (after length_multiple_of
  /// rounding) whose states hold `cached_total` tokens combined.
  double step_s(std::int64_t rows, std::int64_t cached_total) const;
  /// Absorbing a `prompt_tokens`-token prompt (one packed pass).
  double prefill_s(std::int64_t prompt_tokens) const;

  /// Price a model's architecture: macs terms from
  /// nn::token_macs_per_token (no model is built), the rate from the
  /// caller (e.g. a platform::DeviceSpec-derived practical rate).
  static TokenCostModel for_model(const nn::TokenModelConfig& config,
                                  double mac_rate);
};

/// Deterministic stand-in backend: tokens come from a seeded hash of
/// (sequence position, last token), costs from the TokenCostModel.
/// States advance but hold no tensor data, so the scheduler and pool
/// run exactly as with the native backend.
class SimSequenceBackend final : public SequenceBackend {
 public:
  SimSequenceBackend(const nn::TokenModelConfig& config, TokenCostModel cost,
                     std::uint64_t seed = 42);

  const std::string& name() const override { return config_.name; }
  const nn::TokenModelConfig& model_config() const override { return config_; }
  nn::SequenceStateSpec state_spec() const override;

  core::Result<SequenceStepResult> prefill(const std::int32_t* prompt,
                                           std::int64_t count,
                                           nn::SequenceState& state) override;
  core::Result<SequenceStepResult> decode(const std::int32_t* last_tokens,
                                          nn::SequenceState* const* states,
                                          std::int64_t count) override;

  const TokenCostModel& cost() const { return cost_; }

 private:
  std::int32_t next_token(std::int32_t last, std::int64_t position) const;

  nn::TokenModelConfig config_;
  TokenCostModel cost_;
  std::uint64_t seed_;
};

}  // namespace harvest::serving::sequence
