#pragma once

/// \file rwkv.hpp
/// A state-based (RWKV-style) token mixer — the architecture class the
/// paper points to for large inputs (§3.1: "attention layers scale
/// quadratically with respect to input sequence length, making them
/// less suitable for large image inputs. Recent work seeks to address
/// this limitation through state-based architectures such as RWKV").
///
/// `RwkvBlock` replaces quadratic self-attention with a linear-time
/// recurrent weighted-key-value scan:
///
///   num_t = Σ_{i≤t} w^{t-i} · e^{k_i} · v_i
///   den_t = Σ_{i≤t} w^{t-i} · e^{k_i}
///   mix_t = σ(r_t) ⊙ (num_t / den_t)
///
/// followed by a gated channel-mixing MLP. All projections are ordinary
/// dense layers, so per-image compute is strictly linear in the token
/// count — the property the sequence-scaling ablation bench measures.

#include "nn/graph.hpp"
#include "nn/layer.hpp"
#include "nn/layers.hpp"

namespace harvest::nn {

class RwkvBlock final : public Layer {
 public:
  RwkvBlock(std::string name, std::int64_t dim, std::int64_t tokens);

  const std::string& name() const override { return name_; }
  /// The image pass: `step` over all rows, where each image's `tokens`
  /// rows share one zeroed num/den slice.
  tensor::Tensor forward(const tensor::Tensor& input) override;
  /// One stateful pass over x [rows, dim], in place. Row i < count reads
  /// and updates the WKV state `row_states[i]` ([2·dim]: num, then den);
  /// rows that share a state are scanned in increasing i, so a run of
  /// rows on one state is the sequential scan. Pad rows [count, rows)
  /// mix to zero and touch no state.
  void step(float* x, std::int64_t rows, std::int64_t count,
            float* const* row_states);
  void append_costs(std::int64_t batch, std::vector<OpCost>& out) const override;
  void collect_params(std::vector<NamedParam>& out) override;
  void prepare() override;

 private:
  std::string name_;
  std::int64_t dim_, tokens_;
  tensor::Tensor ln1_gamma_, ln1_beta_, ln2_gamma_, ln2_beta_;
  // Time mixing: receptance, key, value and output projections (no
  // biases, RWKV style) plus a learned per-channel decay in (0, 1).
  Dense r_, k_, v_, o_;    ///< each [dim, dim]
  tensor::Tensor decay_;   ///< [dim], stored as raw logits
  // Channel mixing: gated two-layer MLP.
  Dense ck_, cv_, cr_;     ///< [4*dim, dim], [dim, 4*dim], [dim, dim]
};

/// Configuration for an RWKV-style vision classifier (patch embedding +
/// RWKV blocks + head), mirroring ViTConfig.
struct RwkvConfig {
  std::string name = "rwkv";
  std::int64_t image = 32;
  std::int64_t patch = 2;
  std::int64_t dim = 192;
  std::int64_t depth = 12;
  std::int64_t num_classes = 39;
};

ModelPtr build_rwkv(const RwkvConfig& config);

}  // namespace harvest::nn
