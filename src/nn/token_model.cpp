#include "nn/token_model.hpp"

#include <algorithm>
#include <cstring>

#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/rwkv.hpp"
#include "nn/serialize.hpp"

namespace harvest::nn {

using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

namespace {

std::int64_t round_up(std::int64_t n, std::int64_t multiple) {
  if (multiple <= 1) return n;
  return ((n + multiple - 1) / multiple) * multiple;
}

/// Gather embedding rows for the valid tokens; zero the pad rows.
void embed_rows(const Tensor& table, const std::int32_t* tokens,
                std::int64_t count, std::int64_t rows, std::int64_t dim,
                float* x) {
  const float* e = table.f32();
  const std::int64_t vocab = table.shape()[0];
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t tok = tokens[i];
    HARVEST_CHECK(tok >= 0 && tok < vocab);
    std::memcpy(x + i * dim, e + tok * dim,
                static_cast<std::size_t>(dim) * sizeof(float));
  }
  if (rows > count) {
    std::memset(x + count * dim, 0,
                static_cast<std::size_t>((rows - count) * dim) * sizeof(float));
  }
}

}  // namespace

const char* state_kind_name(StateKind kind) {
  switch (kind) {
    case StateKind::kRecurrent: return "recurrent";
    case StateKind::kKvCache: return "kv_cache";
  }
  return "unknown";
}

std::int64_t SequenceStateSpec::floats_per_layer() const {
  switch (kind) {
    case StateKind::kRecurrent: return 2 * dim;
    case StateKind::kKvCache: return 2 * max_tokens * dim;
  }
  return 0;
}

SequenceState::SequenceState(const SequenceStateSpec& spec, float* slab)
    : spec_(spec), slab_(slab) {}

void SequenceState::reset() {
  if (slab_ != nullptr) {
    std::memset(slab_, 0,
                static_cast<std::size_t>(spec_.floats_per_sequence()) *
                    sizeof(float));
  }
  length_ = 0;
}

float* SequenceState::layer(std::int64_t l) {
  HARVEST_CHECK(slab_ != nullptr && l >= 0 && l < spec_.layers);
  return slab_ + l * spec_.floats_per_layer();
}

const float* SequenceState::layer(std::int64_t l) const {
  HARVEST_CHECK(slab_ != nullptr && l >= 0 && l < spec_.layers);
  return slab_ + l * spec_.floats_per_layer();
}

namespace {

/// The one token model: embedding (plus learned positions for "attn") →
/// the image stack's RwkvBlock or TransformerBlock, each stepped against
/// its layer of the sequence states → final LayerNorm → head. Parameter
/// names are the image blocks' own under `<name>.block<i>`.
class LayerTokenModel final : public TokenModel {
 public:
  explicit LayerTokenModel(const TokenModelConfig& cfg)
      : cfg_(cfg), attn_(cfg.arch == "attn"),
        embed_(Shape{cfg.vocab, cfg.dim}, DType::kF32),
        final_ln_(cfg.name + ".final_ln", cfg.dim, 1),
        head_(cfg.dim, cfg.vocab, /*bias=*/false) {
    const std::int64_t d = cfg.dim;
    if (attn_) {
      HARVEST_CHECK(cfg.dim % cfg.heads == 0);
      pos_ = Tensor(Shape{cfg.max_tokens, d}, DType::kF32);
    }
    for (std::int64_t i = 0; i < cfg.depth; ++i) {
      std::string name = cfg.name + ".block" + std::to_string(i);
      if (attn_) {
        attn_blocks_.push_back(std::make_unique<TransformerBlock>(
            std::move(name), d, cfg.heads, 4 * d, 1));
      } else {
        rwkv_blocks_.push_back(
            std::make_unique<RwkvBlock>(std::move(name), d, 1));
      }
    }
  }

  const std::string& name() const override { return cfg_.name; }
  const TokenModelConfig& config() const override { return cfg_; }

  SequenceStateSpec state_spec() const override {
    return {attn_ ? StateKind::kKvCache : StateKind::kRecurrent, cfg_.depth,
            cfg_.dim, cfg_.max_tokens};
  }

  void prefill(const std::int32_t* tokens, std::int64_t count,
               SequenceState& state, float* logits) override {
    HARVEST_CHECK(count > 0);
    // All rows feed one state, in order: the packed [T, dim] pass is the
    // sequential scan, and each row's KV slot follows the one before.
    tensor::AlignedBuffer states = tensor::AlignedBuffer::scratch(
        static_cast<std::size_t>(count) * sizeof(SequenceState*));
    std::fill_n(states.as<SequenceState*>(), count, &state);
    run(tokens, states.as<SequenceState*>(), count, count, logits,
        /*logits_first_row=*/count - 1);
  }

  void decode_batch(const std::int32_t* last_tokens,
                    SequenceState* const* states, std::int64_t count,
                    float* logits, std::int64_t length_multiple_of) override {
    if (count == 0) return;
    run(last_tokens, states, count, round_up(count, length_multiple_of),
        logits, /*logits_first_row=*/0);
  }

  std::vector<NamedParam> params() override {
    std::vector<NamedParam> out;
    out.push_back({cfg_.name + ".embed.weight", &embed_});
    if (attn_) out.push_back({cfg_.name + ".pos.weight", &pos_});
    for (auto& block : rwkv_blocks_) block->collect_params(out);
    for (auto& block : attn_blocks_) block->collect_params(out);
    final_ln_.collect_params(out);
    head_.collect_params(cfg_.name + ".head", out);
    return out;
  }

  void prepare() override {
    for (auto& block : rwkv_blocks_) block->prepare();
    for (auto& block : attn_blocks_) block->prepare();
    head_.prepare();
  }

  double macs_per_token(std::int64_t cached) const override {
    return token_macs_per_token(cfg_, cached);
  }

 private:
  /// One packed pass: row i < count consumes tokens[i] against
  /// row_states[i]; pad rows [count, rows) are zero and stateless.
  /// Logits are written for rows [logits_first_row, count), contiguously.
  void run(const std::int32_t* tokens, SequenceState* const* row_states,
           std::int64_t count, std::int64_t rows, float* logits,
           std::int64_t logits_first_row) {
    const std::int64_t d = cfg_.dim;
    Tensor x = Tensor::scratch(Shape{rows, d});
    embed_rows(embed_, tokens, count, rows, d, x.f32());

    tensor::AlignedBuffer row_pos;
    if (attn_) {
      // Row i's absolute position (its KV slot): its state's length plus
      // the earlier rows that feed the same state.
      row_pos = tensor::AlignedBuffer::scratch(static_cast<std::size_t>(count) *
                                               sizeof(std::int64_t));
      std::int64_t* pos = row_pos.as<std::int64_t>();
      for (std::int64_t i = 0; i < count; ++i) {
        std::int64_t occ = 0;
        for (std::int64_t j = 0; j < i; ++j) {
          if (row_states[j] == row_states[i]) ++occ;
        }
        pos[i] = row_states[i]->length() + occ;
        HARVEST_CHECK(pos[i] < cfg_.max_tokens);
        const float* p = pos_.f32() + pos[i] * d;
        float* xi = x.f32() + i * d;
        for (std::int64_t c = 0; c < d; ++c) xi[c] += p[c];
      }
    }

    tensor::AlignedBuffer slices_buf = tensor::AlignedBuffer::scratch(
        static_cast<std::size_t>(count) * sizeof(float*));
    float** slices = slices_buf.as<float*>();
    for (std::int64_t l = 0; l < cfg_.depth; ++l) {
      for (std::int64_t i = 0; i < count; ++i) {
        slices[i] = row_states[i]->layer(l);
      }
      const auto li = static_cast<std::size_t>(l);
      if (attn_) {
        attn_blocks_[li]->step(x.f32(), rows, count, slices,
                               row_pos.as<std::int64_t>(), cfg_.max_tokens);
      } else {
        rwkv_blocks_[li]->step(x.f32(), rows, count, slices);
      }
    }
    for (std::int64_t i = 0; i < count; ++i) row_states[i]->advance();

    const std::int64_t logit_rows = count - logits_first_row;
    Tensor normed = Tensor::scratch(Shape{logit_rows, d});
    final_ln_.run(x.f32() + logits_first_row * d, normed.f32(), logit_rows);
    head_.run(normed.f32(), logits, logit_rows, /*accumulate=*/false);
  }

  TokenModelConfig cfg_;
  bool attn_;
  Tensor embed_;
  Tensor pos_;  ///< [max_tokens, dim]; "attn" only
  std::vector<std::unique_ptr<RwkvBlock>> rwkv_blocks_;
  std::vector<std::unique_ptr<TransformerBlock>> attn_blocks_;
  LayerNorm final_ln_;
  Dense head_;  ///< [vocab, dim], no bias
};

}  // namespace

double token_macs_per_token(const TokenModelConfig& config,
                            std::int64_t cached) {
  const double d = static_cast<double>(config.dim);
  if (config.arch != "attn") {
    // r,k,v,o (4 d²) + ck (4 d²) + cv (4 d²) + cr (d²) per layer + head.
    return static_cast<double>(config.depth) * 13.0 * d * d +
           static_cast<double>(config.vocab) * d;
  }
  // qkv (3 d²) + proj (d²) + mlp (8 d²) + attention (2·(cached+1)·d)
  // per layer, plus the head.
  const double per_layer =
      12.0 * d * d + 2.0 * static_cast<double>(cached + 1) * d;
  return static_cast<double>(config.depth) * per_layer +
         static_cast<double>(config.vocab) * d;
}

TokenModelPtr build_token_model(const TokenModelConfig& config) {
  HARVEST_CHECK(config.vocab > 0 && config.dim > 0 && config.depth > 0 &&
                config.max_tokens > 0);
  HARVEST_CHECK(config.arch == "rwkv" || config.arch == "attn");
  return std::make_unique<LayerTokenModel>(config);
}

void init_token_model(TokenModel& model, std::uint64_t seed) {
  std::vector<NamedParam> params = model.params();
  init_params(params, seed);
}

core::Status save_token_model(TokenModel& model, const std::string& path) {
  return save_params(model.params(), path);
}

core::Status load_token_model(TokenModel& model, const std::string& path) {
  return load_params(model.params(), path);
}

}  // namespace harvest::nn
