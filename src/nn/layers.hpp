#pragma once

/// \file layers.hpp
/// Concrete layers: transformer components (patch embedding, transformer
/// block, CLS pooling) and CNN components (conv+BN+ReLU, pooling,
/// bottleneck residual block, classifier head). Layers with GEMM weights
/// run in fp32 or, after `quantize()`, in INT8 (see nn/quant.hpp).
/// Composite blocks own their weights directly so forward passes reuse
/// scratch buffers without allocator churn (Core Guidelines
/// Per.14/Per.15).

#include <cstdint>
#include <string>
#include <vector>

#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "nn/layer.hpp"
#include "nn/qgemm.hpp"

namespace harvest::nn {

/// One weight matrix [out, in] plus its bias [out], in fp32 or INT8:
/// precision is a state of the matrix, not a second class. In fp32 it
/// runs the packed GEMM, on panels packed once by `prepare()` or packed
/// per call otherwise. `quantize()` snapshots the weight into int8
/// panels with one symmetric scale per output row and frees the fp32
/// weight and panels; from then on each call quantizes the activations
/// per row into request scratch and makes one fused dequantizing qgemm
/// call. Shared by every layer that lowers to a dense GEMM; not itself
/// a Layer. A matrix built without a bias (RWKV projections, token-model
/// heads) has no bias tensor and names no `.bias` parameter.
class Dense {
 public:
  Dense(std::int64_t in_dim, std::int64_t out_dim, bool bias = true);

  std::int64_t in_dim() const { return in_dim_; }
  std::int64_t out_dim() const { return out_dim_; }
  bool quantized() const { return !qpacked_.empty(); }
  tensor::Tensor& weight() { return weight_; }  ///< [out, in]; fp32 only
  tensor::Tensor& bias() { return bias_; }      ///< [out]; empty without bias
  /// Largest absolute weight quantization error (0 before quantize()).
  float max_weight_error() const { return max_weight_error_; }

  /// c[rows, out] (+)= act(a[rows, in]·Wᵀ + bias) (+ add_c), with act
  /// and add_c taken from `epilogue` (its bias fields are ignored: the
  /// bias is this matrix's own). With `accumulate` each element is
  /// (acc + c) + bias. In int8, add_c requires act kNone.
  void run(const float* a, float* c, std::int64_t rows, bool accumulate,
           GemmEpilogue epilogue = {});

  /// The matrix's op at `rows` rows, priced for its precision.
  OpCost cost(std::string name, std::int64_t rows) const;
  /// Appends `prefix`.weight and, with a bias, `prefix`.bias (nothing
  /// once quantized).
  void collect_params(const std::string& prefix, std::vector<NamedParam>& out);
  void prepare();
  void quantize();

 private:
  std::int64_t in_dim_, out_dim_;
  bool has_bias_;
  tensor::Tensor weight_;  ///< [out, in]; released by quantize()
  tensor::Tensor bias_;    ///< [out], or empty without a bias
  GemmPackedB packed_;     ///< AOT-packed fp32 weight (prepare())
  bool packs_stale_ = false;
  QGemmPackedB qpacked_;           ///< int8 weight panels (quantize())
  std::vector<float> row_scales_;  ///< per output row
  float max_weight_error_ = 0.0f;
};

/// y = x·Wᵀ + b. Treats input as [rows, in_dim] where rows = numel/in_dim,
/// so it serves both token sequences [N,T,D] and feature vectors [N,D].
class Linear final : public Layer {
 public:
  Linear(std::string name, std::int64_t in_dim, std::int64_t out_dim,
         std::int64_t rows_per_image);

  const std::string& name() const override { return name_; }
  tensor::Tensor forward(const tensor::Tensor& input) override;
  void append_costs(std::int64_t batch, std::vector<OpCost>& out) const override;
  void collect_params(std::vector<NamedParam>& out) override;
  void prepare() override { dense_.prepare(); }
  void quantize() override { dense_.quantize(); }

  tensor::Tensor& weight() { return dense_.weight(); }
  tensor::Tensor& bias() { return dense_.bias(); }
  float max_weight_error() const { return dense_.max_weight_error(); }

 private:
  std::string name_;
  std::int64_t rows_per_image_;
  Dense dense_;
};

/// Elementwise GELU over any shape.
class Gelu final : public Layer {
 public:
  Gelu(std::string name, std::int64_t elems_per_image);
  const std::string& name() const override { return name_; }
  tensor::Tensor forward(const tensor::Tensor& input) override;
  void append_costs(std::int64_t batch, std::vector<OpCost>& out) const override;
  void collect_params(std::vector<NamedParam>&) override {}

 private:
  std::string name_;
  std::int64_t elems_per_image_;
};

/// LayerNorm over the trailing `dim` elements of each row.
class LayerNorm final : public Layer {
 public:
  LayerNorm(std::string name, std::int64_t dim, std::int64_t rows_per_image);
  const std::string& name() const override { return name_; }
  tensor::Tensor forward(const tensor::Tensor& input) override;
  /// out[rows, dim] = LN(in[rows, dim]); forward's body on raw rows.
  void run(const float* in, float* out, std::int64_t rows) const;
  void append_costs(std::int64_t batch, std::vector<OpCost>& out) const override;
  void collect_params(std::vector<NamedParam>& out) override;

 private:
  std::string name_;
  std::int64_t dim_, rows_per_image_;
  tensor::Tensor gamma_, beta_;
};

/// Splits the image into non-overlapping patches, linearly projects each
/// to `dim`, prepends a learned CLS token and adds positional embeddings.
/// Input [N,3,H,W] → output [N, tokens, dim] with tokens = (H/p)² + 1.
class PatchEmbed final : public Layer {
 public:
  PatchEmbed(std::string name, std::int64_t image, std::int64_t patch,
             std::int64_t in_ch, std::int64_t dim);

  const std::string& name() const override { return name_; }
  tensor::Tensor forward(const tensor::Tensor& input) override;
  void append_costs(std::int64_t batch, std::vector<OpCost>& out) const override;
  void collect_params(std::vector<NamedParam>& out) override;
  void prepare() override { proj_.prepare(); }
  void quantize() override { proj_.quantize(); }

  std::int64_t tokens() const { return tokens_; }

 private:
  std::string name_;
  std::int64_t image_, patch_, in_ch_, dim_, grid_, tokens_;
  Dense proj_;                ///< [dim, in_ch*patch*patch]
  tensor::Tensor cls_token_;  ///< [dim]
  tensor::Tensor pos_embed_;  ///< [tokens, dim]
};

/// Pre-norm transformer block (ViT style):
///   x += proj(attn(LN1(x))); x += fc2(gelu(fc1(LN2(x)))).
/// One body serves two attention cores: `forward` runs bidirectional
/// self-attention over each image's tokens, and `step` runs causal
/// decode against per-row KV caches (the token models). In INT8 the
/// four projections run quantized; LayerNorm and the attention matmuls
/// stay fp32 (memory-bound and softmax-sensitive).
class TransformerBlock final : public Layer {
 public:
  TransformerBlock(std::string name, std::int64_t dim, std::int64_t heads,
                   std::int64_t mlp_hidden, std::int64_t tokens);

  const std::string& name() const override { return name_; }
  tensor::Tensor forward(const tensor::Tensor& input) override;
  /// One causal pass over x [rows, dim], in place. Row i < count writes
  /// its K/V at slot `slots[i]` of the cache `kv_caches[i]` (`capacity`
  /// K rows, then `capacity` V rows, each [dim]) and attends over slots
  /// [0, slots[i]]. Pad rows [count, rows) attend to nothing and touch
  /// no cache, so they never change the other rows' results.
  void step(float* x, std::int64_t rows, std::int64_t count,
            float* const* kv_caches, const std::int64_t* slots,
            std::int64_t capacity);
  void append_costs(std::int64_t batch, std::vector<OpCost>& out) const override;
  void collect_params(std::vector<NamedParam>& out) override;
  void prepare() override;
  void quantize() override;

 private:
  /// The body both passes share, on x [rows, dim] in place; `attend(qkv,
  /// out)` maps the [rows, 3·dim] QKV rows to the [rows, dim] context.
  template <class Attend>
  void run(float* x, std::int64_t rows, Attend&& attend);

  std::string name_;
  std::int64_t dim_, heads_, mlp_hidden_, tokens_;
  tensor::Tensor ln1_gamma_, ln1_beta_, ln2_gamma_, ln2_beta_;
  Dense qkv_;   ///< [3*dim, dim]
  Dense proj_;  ///< [dim, dim]
  Dense fc1_;   ///< [hidden, dim]
  Dense fc2_;   ///< [dim, hidden]
};

/// Select the CLS token: [N, T, D] → [N, D].
class ClsPool final : public Layer {
 public:
  ClsPool(std::string name, std::int64_t tokens, std::int64_t dim);
  const std::string& name() const override { return name_; }
  tensor::Tensor forward(const tensor::Tensor& input) override;
  void append_costs(std::int64_t batch, std::vector<OpCost>& out) const override;
  void collect_params(std::vector<NamedParam>&) override {}

 private:
  std::string name_;
  std::int64_t tokens_, dim_;
};

/// Convolution + folded BatchNorm + optional ReLU, the CNN workhorse.
/// BN runs in inference form with stored running statistics. In INT8
/// the input is lowered to rows via im2row ([out_hw, patch]) and
/// quantized per output position; weights are quantized per output
/// channel with the BN scale folded into the dequant scale and the BN
/// shift into the epilogue bias, so conv+BN+ReLU is one int8 GEMM per
/// image.
class ConvBnRelu final : public Layer {
 public:
  ConvBnRelu(std::string name, Conv2dParams params, std::int64_t in_h,
             std::int64_t in_w, bool relu);

  const std::string& name() const override { return name_; }
  tensor::Tensor forward(const tensor::Tensor& input) override;
  void append_costs(std::int64_t batch, std::vector<OpCost>& out) const override;
  void collect_params(std::vector<NamedParam>& out) override;
  void quantize() override;

  std::int64_t out_h() const { return out_h_; }
  std::int64_t out_w() const { return out_w_; }

 private:
  bool quantized() const { return !qweight_.empty(); }

  std::string name_;
  Conv2dParams params_;
  std::int64_t in_h_, in_w_, out_h_, out_w_;
  bool relu_;
  tensor::Tensor weight_;  ///< [out_ch, in_ch*k*k]; fp32 only
  tensor::Tensor bn_gamma_, bn_beta_, bn_mean_, bn_var_;
  tensor::Tensor scratch_;  ///< im2col buffer, reused across calls
  std::vector<std::int8_t> qweight_;  ///< [out_ch, in_ch*k*k] (quantize())
  std::vector<float> scale_m_;        ///< weight scale × folded BN scale
  std::vector<float> bias_m_;         ///< folded BN shift
};

/// Max pooling layer.
class MaxPool final : public Layer {
 public:
  MaxPool(std::string name, std::int64_t channels, std::int64_t in_h,
          std::int64_t in_w, std::int64_t kernel, std::int64_t stride,
          std::int64_t padding);
  const std::string& name() const override { return name_; }
  tensor::Tensor forward(const tensor::Tensor& input) override;
  void append_costs(std::int64_t batch, std::vector<OpCost>& out) const override;
  void collect_params(std::vector<NamedParam>&) override {}

  std::int64_t out_h() const { return out_h_; }
  std::int64_t out_w() const { return out_w_; }

 private:
  std::string name_;
  std::int64_t channels_, in_h_, in_w_, kernel_, stride_, padding_;
  std::int64_t out_h_, out_w_;
};

/// Global average pool [N,C,H,W] → [N,C].
class GlobalAvgPool final : public Layer {
 public:
  GlobalAvgPool(std::string name, std::int64_t channels, std::int64_t in_h,
                std::int64_t in_w);
  const std::string& name() const override { return name_; }
  tensor::Tensor forward(const tensor::Tensor& input) override;
  void append_costs(std::int64_t batch, std::vector<OpCost>& out) const override;
  void collect_params(std::vector<NamedParam>&) override {}

 private:
  std::string name_;
  std::int64_t channels_, in_h_, in_w_;
};

/// ResNet bottleneck: 1×1 reduce → 3×3 (stride) → 1×1 expand, with an
/// optional 1×1 strided projection on the identity path.
class Bottleneck final : public Layer {
 public:
  Bottleneck(std::string name, std::int64_t in_ch, std::int64_t mid_ch,
             std::int64_t stride, bool downsample, std::int64_t in_h,
             std::int64_t in_w);

  const std::string& name() const override { return name_; }
  tensor::Tensor forward(const tensor::Tensor& input) override;
  void append_costs(std::int64_t batch, std::vector<OpCost>& out) const override;
  void collect_params(std::vector<NamedParam>& out) override;
  void quantize() override;

  std::int64_t out_channels() const { return mid_ch_ * 4; }
  std::int64_t out_h() const { return conv2_->out_h(); }
  std::int64_t out_w() const { return conv2_->out_w(); }

 private:
  std::string name_;
  std::int64_t in_ch_, mid_ch_, stride_;
  std::unique_ptr<ConvBnRelu> conv1_, conv2_, conv3_, down_;
};

}  // namespace harvest::nn
