#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/gemm.hpp"
#include "nn/norm.hpp"
#include "nn/quant.hpp"
#include "tensor/ops.hpp"

namespace harvest::nn {

using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

namespace cost {

OpCost dense(std::string name, std::int64_t rows, std::int64_t in_dim,
             std::int64_t out_dim) {
  OpCost op;
  op.name = std::move(name);
  op.kind = OpKind::kDense;
  op.macs = static_cast<double>(rows) * static_cast<double>(in_dim) *
            static_cast<double>(out_dim);
  op.weight_bytes = static_cast<double>(in_dim) * static_cast<double>(out_dim) *
                    kDeployBytesPerElem;
  op.bytes_read = static_cast<double>(rows) * static_cast<double>(in_dim) *
                      kDeployBytesPerElem +
                  op.weight_bytes;
  op.bytes_written = static_cast<double>(rows) * static_cast<double>(out_dim) *
                     kDeployBytesPerElem;
  op.gemm_m = rows;
  op.gemm_n = out_dim;
  op.gemm_k = in_dim;
  return op;
}

OpCost conv(std::string name, std::int64_t batch, std::int64_t out_h,
            std::int64_t out_w, std::int64_t out_ch, std::int64_t in_ch,
            std::int64_t kernel) {
  OpCost op;
  op.name = std::move(name);
  op.kind = OpKind::kConv;
  const double out_positions = static_cast<double>(batch) *
                               static_cast<double>(out_h) *
                               static_cast<double>(out_w);
  const double patch = static_cast<double>(in_ch) * static_cast<double>(kernel) *
                       static_cast<double>(kernel);
  op.macs = out_positions * patch * static_cast<double>(out_ch);
  op.weight_bytes = patch * static_cast<double>(out_ch) * kDeployBytesPerElem;
  op.bytes_read = out_positions * patch * kDeployBytesPerElem + op.weight_bytes;
  op.bytes_written = out_positions * static_cast<double>(out_ch) *
                     kDeployBytesPerElem;
  op.gemm_m = batch * out_h * out_w;
  op.gemm_n = out_ch;
  op.gemm_k = in_ch * kernel * kernel;
  return op;
}

OpCost attention_matmuls(std::string name, std::int64_t batch,
                         std::int64_t tokens, std::int64_t dim) {
  OpCost op;
  op.name = std::move(name);
  op.kind = OpKind::kAttention;
  // QKᵀ and attn·V: each tokens × tokens × dim MACs per image (summed
  // over heads, head_dim·heads = dim).
  op.macs = 2.0 * static_cast<double>(batch) * static_cast<double>(tokens) *
            static_cast<double>(tokens) * static_cast<double>(dim);
  const double score_elems = static_cast<double>(batch) *
                             static_cast<double>(tokens) *
                             static_cast<double>(tokens);
  const double token_elems = static_cast<double>(batch) *
                             static_cast<double>(tokens) *
                             static_cast<double>(dim);
  // Q,K,V read + scores written/read (softmax) + context written.
  op.bytes_read = (3.0 * token_elems + 2.0 * score_elems) * kDeployBytesPerElem;
  op.bytes_written = (2.0 * score_elems + token_elems) * kDeployBytesPerElem;
  op.gemm_m = tokens;
  op.gemm_n = tokens;
  op.gemm_k = dim;
  return op;
}

OpCost norm(std::string name, std::int64_t elems) {
  OpCost op;
  op.name = std::move(name);
  op.kind = OpKind::kNorm;
  op.macs = static_cast<double>(elems);  // ~1 multiply-add per element
  op.bytes_read = static_cast<double>(elems) * kDeployBytesPerElem;
  op.bytes_written = static_cast<double>(elems) * kDeployBytesPerElem;
  return op;
}

OpCost elementwise(std::string name, std::int64_t elems) {
  OpCost op;
  op.name = std::move(name);
  op.kind = OpKind::kElementwise;
  op.macs = static_cast<double>(elems);
  op.bytes_read = static_cast<double>(elems) * kDeployBytesPerElem;
  op.bytes_written = static_cast<double>(elems) * kDeployBytesPerElem;
  return op;
}

}  // namespace cost

namespace {

/// Gather the non-overlapping patches of one NCHW image into rows:
/// dst row p = flattened (c, y, x) block of patch p, p = gy·grid + gx,
/// so a [grid², in_ch·patch²] matrix ready for the projection GEMM.
void gather_image_patches(const float* img, float* dst, std::int64_t in_ch,
                          std::int64_t image, std::int64_t grid,
                          std::int64_t patch) {
  const std::int64_t patch_elems = in_ch * patch * patch;
  for (std::int64_t gy = 0; gy < grid; ++gy) {
    for (std::int64_t gx = 0; gx < grid; ++gx) {
      float* row = dst + (gy * grid + gx) * patch_elems;
      std::int64_t idx = 0;
      for (std::int64_t c = 0; c < in_ch; ++c) {
        for (std::int64_t py = 0; py < patch; ++py) {
          const float* src =
              img + (c * image + gy * patch + py) * image + gx * patch;
          for (std::int64_t px = 0; px < patch; ++px) row[idx++] = src[px];
        }
      }
    }
  }
}

QGemmEpilogue::Act qgemm_act(EpilogueAct act) {
  switch (act) {
    case EpilogueAct::kRelu: return QGemmEpilogue::Act::kRelu;
    case EpilogueAct::kGelu: return QGemmEpilogue::Act::kGelu;
    case EpilogueAct::kNone: break;
  }
  return QGemmEpilogue::Act::kNone;
}

}  // namespace

// ----------------------------------------------------------------- Dense

Dense::Dense(std::int64_t in_dim, std::int64_t out_dim, bool bias)
    : in_dim_(in_dim), out_dim_(out_dim), has_bias_(bias),
      weight_(Shape{out_dim, in_dim}, DType::kF32) {
  if (has_bias_) bias_ = Tensor(Shape{out_dim}, DType::kF32);
}

void Dense::run(const float* a, float* c, std::int64_t rows, bool accumulate,
                GemmEpilogue epilogue) {
  if (quantized()) {
    HARVEST_CHECK_MSG(epilogue.add_c == nullptr ||
                          epilogue.act == EpilogueAct::kNone,
                      "int8 dense applies add_c after the activation");
    tensor::AlignedBuffer qa = tensor::AlignedBuffer::scratch(
        static_cast<std::size_t>(rows * in_dim_));
    Tensor scales = Tensor::scratch(Shape{rows});
    quantize_rows(a, rows, in_dim_, qa.as<std::int8_t>(), scales.f32());
    QGemmEpilogue ep;
    ep.scale_m = scales.f32();
    ep.scale_n = row_scales_.data();
    ep.bias_n = has_bias_ ? bias_.f32() : nullptr;
    ep.act = qgemm_act(epilogue.act);
    ep.accumulate = accumulate;
    qgemm_prepacked_dequant(qa.as<std::int8_t>(), qpacked_, c, rows, ep);
    if (epilogue.add_c != nullptr) {
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* add = epilogue.add_c + r * epilogue.add_ld;
        float* row = c + r * out_dim_;
        for (std::int64_t j = 0; j < out_dim_; ++j) row[j] += add[j];
      }
    }
    return;
  }
  epilogue.bias_n = has_bias_ ? bias_.f32() : nullptr;
  epilogue.bias_m = nullptr;
  if (!packed_.empty() && packs_stale_) prepare();
  if (!packed_.empty()) {
    gemm_prepacked_ex(a, in_dim_, packed_, c, out_dim_, rows, accumulate,
                      epilogue);
  } else {
    gemm_bt_ex(a, weight_.f32(), c, rows, out_dim_, in_dim_, accumulate,
               epilogue);
  }
}

OpCost Dense::cost(std::string name, std::int64_t rows) const {
  return quantized()
             ? quantized_dense_cost(std::move(name), rows, in_dim_, out_dim_)
             : cost::dense(std::move(name), rows, in_dim_, out_dim_);
}

void Dense::collect_params(const std::string& prefix,
                           std::vector<NamedParam>& out) {
  if (quantized()) return;
  out.push_back({prefix + ".weight", &weight_});
  if (has_bias_) out.push_back({prefix + ".bias", &bias_});
  packs_stale_ = true;
}

void Dense::prepare() {
  if (quantized()) return;
  packed_ = GemmPackedB(weight_.f32(), in_dim_, /*b_transposed=*/true, out_dim_,
                        in_dim_);
  packs_stale_ = false;
}

void Dense::quantize() {
  if (quantized()) return;
  std::vector<std::int8_t> qweight(
      static_cast<std::size_t>(in_dim_ * out_dim_));
  row_scales_.resize(static_cast<std::size_t>(out_dim_));
  // Per-output-row scales keep the error independent of other rows'
  // dynamic range.
  for (std::int64_t r = 0; r < out_dim_; ++r) {
    const float* row = weight_.f32() + r * in_dim_;
    std::int8_t* qrow = qweight.data() + r * in_dim_;
    const float scale =
        quantize_symmetric({row, static_cast<std::size_t>(in_dim_)}, qrow);
    row_scales_[static_cast<std::size_t>(r)] = scale;
    for (std::int64_t c = 0; c < in_dim_; ++c) {
      const float rebuilt = static_cast<float>(qrow[c]) * scale;
      max_weight_error_ =
          std::max(max_weight_error_, std::fabs(rebuilt - row[c]));
    }
  }
  // Weights are static: pack into micro-kernel panels once, here, so
  // forward passes skip the per-call B pack entirely.
  qpacked_ = QGemmPackedB(qweight.data(), out_dim_, in_dim_);
  weight_ = Tensor();
  packed_ = GemmPackedB();
}

// ---------------------------------------------------------------- Linear

Linear::Linear(std::string name, std::int64_t in_dim, std::int64_t out_dim,
               std::int64_t rows_per_image)
    : name_(std::move(name)), rows_per_image_(rows_per_image),
      dense_(in_dim, out_dim) {}

Tensor Linear::forward(const Tensor& input) {
  const std::int64_t rows = input.numel() / dense_.in_dim();
  Shape out_shape =
      input.shape().with_dim(input.shape().rank() - 1, dense_.out_dim());
  Tensor output = Tensor::scratch(out_shape, DType::kF32);
  dense_.run(input.f32(), output.f32(), rows, /*accumulate=*/false);
  return output;
}

void Linear::append_costs(std::int64_t batch, std::vector<OpCost>& out) const {
  out.push_back(dense_.cost(name_, batch * rows_per_image_));
}

void Linear::collect_params(std::vector<NamedParam>& out) {
  dense_.collect_params(name_, out);
}

// ------------------------------------------------------------------ Gelu

Gelu::Gelu(std::string name, std::int64_t elems_per_image)
    : name_(std::move(name)), elems_per_image_(elems_per_image) {}

Tensor Gelu::forward(const Tensor& input) {
  Tensor output = Tensor::scratch(input.shape(), DType::kF32);
  std::memcpy(output.f32(), input.f32(),
              static_cast<std::size_t>(input.numel()) * sizeof(float));
  gelu_inplace(output.f32(), output.numel());
  return output;
}

void Gelu::append_costs(std::int64_t batch, std::vector<OpCost>& out) const {
  out.push_back(cost::elementwise(name_, batch * elems_per_image_));
}

// -------------------------------------------------------------- LayerNorm

LayerNorm::LayerNorm(std::string name, std::int64_t dim,
                     std::int64_t rows_per_image)
    : name_(std::move(name)), dim_(dim), rows_per_image_(rows_per_image),
      gamma_(Shape{dim}, DType::kF32), beta_(Shape{dim}, DType::kF32) {
  tensor::fill(gamma_, 1.0f);
}

Tensor LayerNorm::forward(const Tensor& input) {
  Tensor output = Tensor::scratch(input.shape(), DType::kF32);
  run(input.f32(), output.f32(), input.numel() / dim_);
  return output;
}

void LayerNorm::run(const float* in, float* out, std::int64_t rows) const {
  layernorm_rows(in, out, rows, dim_, gamma_.f32(), beta_.f32());
}

void LayerNorm::append_costs(std::int64_t batch, std::vector<OpCost>& out) const {
  out.push_back(cost::norm(name_, batch * rows_per_image_ * dim_));
}

void LayerNorm::collect_params(std::vector<NamedParam>& out) {
  out.push_back({name_ + ".gamma", &gamma_});
  out.push_back({name_ + ".beta", &beta_});
}

// -------------------------------------------------------------- PatchEmbed

PatchEmbed::PatchEmbed(std::string name, std::int64_t image, std::int64_t patch,
                       std::int64_t in_ch, std::int64_t dim)
    : name_(std::move(name)), image_(image), patch_(patch), in_ch_(in_ch),
      dim_(dim), grid_(image / patch), tokens_(grid_ * grid_ + 1),
      proj_(in_ch * patch * patch, dim),
      cls_token_(Shape{dim}, DType::kF32),
      pos_embed_(Shape{tokens_, dim}, DType::kF32) {
  HARVEST_CHECK_MSG(image % patch == 0, "image must divide into patches");
}

Tensor PatchEmbed::forward(const Tensor& input) {
  const Shape& s = input.shape();
  HARVEST_CHECK_MSG(s.rank() == 4 && s[1] == in_ch_ && s[2] == image_ &&
                        s[3] == image_,
                    "patch embed input geometry mismatch");
  const std::int64_t n = s[0];
  const std::int64_t patch_elems = in_ch_ * patch_ * patch_;
  const std::int64_t patches = grid_ * grid_;

  Tensor output = Tensor::scratch(Shape{n, tokens_, dim_}, DType::kF32);
  // Batched gather: every image's patch rows land in one scratch matrix
  // (arena-backed under a request scope — the former per-call
  // std::vector was a heap allocation on every forward).
  Tensor patch_buf = Tensor::scratch(Shape{n * patches, patch_elems});
  for (std::int64_t b = 0; b < n; ++b) {
    const float* img = input.f32() + b * in_ch_ * image_ * image_;
    gather_image_patches(img, patch_buf.f32() + b * patches * patch_elems,
                         in_ch_, image_, grid_, patch_);
  }

  const float* pos = pos_embed_.f32();
  const float* cls = cls_token_.f32();
  GemmEpilogue epilogue;
  epilogue.add_c = pos + dim_;  // positional rows of the patch tokens
  epilogue.add_ld = dim_;
  for (std::int64_t b = 0; b < n; ++b) {
    float* out_tokens = output.f32() + b * tokens_ * dim_;
    // CLS token plus its positional row; the patch tokens get their
    // positional rows through the GEMM's add_c epilogue, so the
    // separate full-matrix pos-add memory pass is gone.
    for (std::int64_t c = 0; c < dim_; ++c) out_tokens[c] = cls[c] + pos[c];
    proj_.run(patch_buf.f32() + b * patches * patch_elems, out_tokens + dim_,
              patches, /*accumulate=*/false, epilogue);
  }
  return output;
}

void PatchEmbed::append_costs(std::int64_t batch, std::vector<OpCost>& out) const {
  out.push_back(proj_.cost(name_ + ".proj", batch * grid_ * grid_));
  out.push_back(cost::elementwise(name_ + ".pos_add", batch * tokens_ * dim_));
}

void PatchEmbed::collect_params(std::vector<NamedParam>& out) {
  if (proj_.quantized()) return;
  proj_.collect_params(name_, out);
  out.push_back({name_ + ".cls_token", &cls_token_});
  out.push_back({name_ + ".pos_embed", &pos_embed_});
}

// -------------------------------------------------------- TransformerBlock

TransformerBlock::TransformerBlock(std::string name, std::int64_t dim,
                                   std::int64_t heads, std::int64_t mlp_hidden,
                                   std::int64_t tokens)
    : name_(std::move(name)), dim_(dim), heads_(heads),
      mlp_hidden_(mlp_hidden), tokens_(tokens),
      ln1_gamma_(Shape{dim}, DType::kF32), ln1_beta_(Shape{dim}, DType::kF32),
      ln2_gamma_(Shape{dim}, DType::kF32), ln2_beta_(Shape{dim}, DType::kF32),
      qkv_(dim, 3 * dim), proj_(dim, dim), fc1_(dim, mlp_hidden),
      fc2_(mlp_hidden, dim) {
  tensor::fill(ln1_gamma_, 1.0f);
  tensor::fill(ln2_gamma_, 1.0f);
}

template <class Attend>
void TransformerBlock::run(float* x, std::int64_t rows, Attend&& attend) {
  // Scratch is sized by liveness: `normed` holds LN1's output, then the
  // attention output, then LN2's; `wide` holds QKV, then the MLP hidden
  // activations. Each pair is never live at once.
  Tensor normed = Tensor::scratch(Shape{rows, dim_}, DType::kF32);
  Tensor wide = Tensor::scratch(
      Shape{rows, std::max(3 * dim_, mlp_hidden_)}, DType::kF32);
  layernorm_rows(x, normed.f32(), rows, dim_, ln1_gamma_.f32(),
                 ln1_beta_.f32());
  qkv_.run(normed.f32(), wide.f32(), rows, /*accumulate=*/false);
  attend(static_cast<const float*>(wide.f32()), normed.f32());

  // Residual fused into the projection: x += attn·Wᵀ + b (accumulate
  // GEMM with bias epilogue), dropping the separate temp + add pass.
  proj_.run(normed.f32(), x, rows, /*accumulate=*/true);

  layernorm_rows(x, normed.f32(), rows, dim_, ln2_gamma_.f32(),
                 ln2_beta_.f32());
  GemmEpilogue gelu;
  gelu.act = EpilogueAct::kGelu;
  fc1_.run(normed.f32(), wide.f32(), rows, /*accumulate=*/false, gelu);
  fc2_.run(wide.f32(), x, rows, /*accumulate=*/true);
}

Tensor TransformerBlock::forward(const Tensor& input) {
  const std::int64_t n = input.shape()[0];
  Tensor x = Tensor::scratch(input.shape(), DType::kF32);
  std::memcpy(x.f32(), input.f32(),
              static_cast<std::size_t>(input.numel()) * sizeof(float));
  run(x.f32(), n * tokens_, [&](const float* qkv, float* out) {
    // Flash-style fused attention: the T×T score matrix is never
    // materialized (O(T·head_dim) per-thread scratch, see attention.cpp).
    self_attention_fused_batched(qkv, out, n, tokens_, dim_, heads_);
  });
  return x;
}

void TransformerBlock::step(float* x, std::int64_t rows, std::int64_t count,
                            float* const* kv_caches, const std::int64_t* slots,
                            std::int64_t capacity) {
  const std::int64_t hd = dim_ / heads_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  const auto row_bytes = static_cast<std::size_t>(dim_) * sizeof(float);
  run(x, rows, [&](const float* qkv, float* out) {
    for (std::int64_t i = 0; i < rows; ++i) {
      float* o = out + i * dim_;
      if (i >= count) {
        std::memset(o, 0, row_bytes);
        continue;
      }
      float* kc = kv_caches[i];
      float* vc = kc + capacity * dim_;
      const float* q = qkv + i * 3 * dim_;
      const std::int64_t slot = slots[i];
      std::memcpy(kc + slot * dim_, q + dim_, row_bytes);
      std::memcpy(vc + slot * dim_, q + 2 * dim_, row_bytes);
      // One online-softmax pass per head over the cached slots; it is
      // deterministic per row, so a packed prefill equals step decode.
      for (std::int64_t h = 0; h < heads_; ++h) {
        attention_decode_fused(q + h * hd, kc + h * hd, vc + h * hd, dim_,
                               o + h * hd, slot + 1, hd, scale);
      }
    }
  });
}

void TransformerBlock::append_costs(std::int64_t batch,
                                    std::vector<OpCost>& out) const {
  const std::int64_t rows = batch * tokens_;
  out.push_back(cost::norm(name_ + ".ln1", rows * dim_));
  out.push_back(qkv_.cost(name_ + ".qkv", rows));
  out.push_back(cost::attention_matmuls(name_ + ".attn", batch, tokens_, dim_));
  out.push_back(proj_.cost(name_ + ".proj", rows));
  out.push_back(cost::elementwise(name_ + ".res1", rows * dim_));
  out.push_back(cost::norm(name_ + ".ln2", rows * dim_));
  out.push_back(fc1_.cost(name_ + ".fc1", rows));
  out.push_back(cost::elementwise(name_ + ".gelu", rows * mlp_hidden_));
  out.push_back(fc2_.cost(name_ + ".fc2", rows));
  out.push_back(cost::elementwise(name_ + ".res2", rows * dim_));
}

void TransformerBlock::collect_params(std::vector<NamedParam>& out) {
  if (qkv_.quantized()) return;
  out.push_back({name_ + ".ln1.gamma", &ln1_gamma_});
  out.push_back({name_ + ".ln1.beta", &ln1_beta_});
  out.push_back({name_ + ".ln2.gamma", &ln2_gamma_});
  out.push_back({name_ + ".ln2.beta", &ln2_beta_});
  qkv_.collect_params(name_ + ".qkv", out);
  proj_.collect_params(name_ + ".proj", out);
  fc1_.collect_params(name_ + ".fc1", out);
  fc2_.collect_params(name_ + ".fc2", out);
}

void TransformerBlock::prepare() {
  qkv_.prepare();
  proj_.prepare();
  fc1_.prepare();
  fc2_.prepare();
}

void TransformerBlock::quantize() {
  qkv_.quantize();
  proj_.quantize();
  fc1_.quantize();
  fc2_.quantize();
}

// --------------------------------------------------------------- ClsPool

ClsPool::ClsPool(std::string name, std::int64_t tokens, std::int64_t dim)
    : name_(std::move(name)), tokens_(tokens), dim_(dim) {}

Tensor ClsPool::forward(const Tensor& input) {
  const std::int64_t n = input.shape()[0];
  Tensor output = Tensor::scratch(Shape{n, dim_}, DType::kF32);
  for (std::int64_t b = 0; b < n; ++b) {
    std::memcpy(output.f32() + b * dim_, input.f32() + b * tokens_ * dim_,
                static_cast<std::size_t>(dim_) * sizeof(float));
  }
  return output;
}

void ClsPool::append_costs(std::int64_t batch, std::vector<OpCost>& out) const {
  OpCost op;
  op.name = name_;
  op.kind = OpKind::kDataMove;
  op.bytes_read = static_cast<double>(batch * dim_) * cost::kDeployBytesPerElem;
  op.bytes_written = op.bytes_read;
  out.push_back(op);
}

// ------------------------------------------------------------ ConvBnRelu

ConvBnRelu::ConvBnRelu(std::string name, Conv2dParams params, std::int64_t in_h,
                       std::int64_t in_w, bool relu)
    : name_(std::move(name)), params_(params), in_h_(in_h), in_w_(in_w),
      out_h_(conv_out_extent(in_h, params.kernel, params.stride, params.padding)),
      out_w_(conv_out_extent(in_w, params.kernel, params.stride, params.padding)),
      relu_(relu),
      weight_(Shape{params.out_channels,
                    params.in_channels * params.kernel * params.kernel},
              DType::kF32),
      bn_gamma_(Shape{params.out_channels}, DType::kF32),
      bn_beta_(Shape{params.out_channels}, DType::kF32),
      bn_mean_(Shape{params.out_channels}, DType::kF32),
      bn_var_(Shape{params.out_channels}, DType::kF32) {
  tensor::fill(bn_gamma_, 1.0f);
  tensor::fill(bn_var_, 1.0f);
}

Tensor ConvBnRelu::forward(const Tensor& input) {
  const Shape& s = input.shape();
  // Both bodies size their buffers from the construction geometry.
  HARVEST_CHECK_MSG(s.rank() == 4 && s[1] == params_.in_channels &&
                        s[2] == in_h_ && s[3] == in_w_,
                    "conv input geometry mismatch");
  const std::int64_t n = s[0];
  const std::int64_t out_hw = out_h_ * out_w_;
  if (!quantized()) {
    Tensor conv_out = conv2d(input, weight_, nullptr, params_, scratch_);
    batchnorm_nchw(conv_out.f32(), conv_out.f32(), n, params_.out_channels,
                   out_hw, bn_mean_.f32(), bn_var_.f32(), bn_gamma_.f32(),
                   bn_beta_.f32());
    if (relu_) relu_inplace(conv_out.f32(), conv_out.numel());
    return conv_out;
  }

  const std::int64_t patch =
      params_.in_channels * params_.kernel * params_.kernel;
  Tensor output(Shape{n, params_.out_channels, out_h_, out_w_}, DType::kF32);
  Tensor cols = Tensor::scratch(Shape{out_hw, patch});
  tensor::AlignedBuffer qcols = tensor::AlignedBuffer::scratch(
      static_cast<std::size_t>(out_hw * patch));
  Tensor col_scales = Tensor::scratch(Shape{out_hw});

  // A = int8 weights [out_ch, patch], Bᵀ = quantized patch rows
  // [out_hw, patch]: C[out_ch, out_hw] dequantizes with the folded BN
  // scale per row (output channel) and the dynamic activation scale per
  // column (output position). Parallelism lives inside im2row and the
  // GEMM, so the batch loop stays serial with one scratch set.
  QGemmEpilogue ep;
  ep.scale_m = scale_m_.data();
  ep.scale_n = col_scales.f32();
  ep.bias_m = bias_m_.data();
  ep.act = relu_ ? QGemmEpilogue::Act::kRelu : QGemmEpilogue::Act::kNone;

  for (std::int64_t b = 0; b < n; ++b) {
    const float* img = input.f32() + b * params_.in_channels * in_h_ * in_w_;
    im2row(img, cols.f32(), params_.in_channels, in_h_, in_w_, params_);
    quantize_rows(cols.f32(), out_hw, patch, qcols.as<std::int8_t>(),
                  col_scales.f32());
    float* out_plane = output.f32() + b * params_.out_channels * out_hw;
    qgemm_bt_dequant(qweight_.data(), qcols.as<std::int8_t>(), out_plane,
                     params_.out_channels, out_hw, patch, ep);
  }
  return output;
}

void ConvBnRelu::append_costs(std::int64_t batch, std::vector<OpCost>& out) const {
  const std::int64_t elems = batch * params_.out_channels * out_h_ * out_w_;
  if (quantized()) {
    // BN is folded into the GEMM epilogue, so no separate norm op.
    OpCost conv = quantized_dense_cost(
        name_ + ".conv", batch * out_h_ * out_w_,
        params_.in_channels * params_.kernel * params_.kernel,
        params_.out_channels);
    conv.kind = OpKind::kConv;
    out.push_back(std::move(conv));
  } else {
    out.push_back(cost::conv(name_ + ".conv", batch, out_h_, out_w_,
                             params_.out_channels, params_.in_channels,
                             params_.kernel));
    out.push_back(cost::norm(name_ + ".bn", elems));
  }
  // With int8 the ReLU rides the epilogue too; it stays a nominal op.
  if (relu_) out.push_back(cost::elementwise(name_ + ".relu", elems));
}

void ConvBnRelu::collect_params(std::vector<NamedParam>& out) {
  if (quantized()) return;
  out.push_back({name_ + ".weight", &weight_});
  out.push_back({name_ + ".bn.gamma", &bn_gamma_});
  out.push_back({name_ + ".bn.beta", &bn_beta_});
  out.push_back({name_ + ".bn.mean", &bn_mean_});
  out.push_back({name_ + ".bn.var", &bn_var_});
}

void ConvBnRelu::quantize() {
  if (quantized()) return;
  const std::int64_t out_ch = params_.out_channels;
  const std::int64_t patch =
      params_.in_channels * params_.kernel * params_.kernel;
  qweight_.resize(static_cast<std::size_t>(out_ch * patch));
  scale_m_.resize(static_cast<std::size_t>(out_ch));
  bias_m_.resize(static_cast<std::size_t>(out_ch));
  // Inference-form BN is an affine per channel: y = conv·g + b with
  // g = gamma/√(var+eps), b = beta − mean·g. Fold g into the dequant
  // scale and b into the epilogue bias, matching batchnorm_nchw's eps.
  constexpr float kBnEps = 1e-5f;
  for (std::int64_t oc = 0; oc < out_ch; ++oc) {
    const float wscale = quantize_symmetric(
        {weight_.f32() + oc * patch, static_cast<std::size_t>(patch)},
        qweight_.data() + oc * patch);
    const float g =
        bn_gamma_.f32()[oc] / std::sqrt(bn_var_.f32()[oc] + kBnEps);
    scale_m_[static_cast<std::size_t>(oc)] = wscale * g;
    bias_m_[static_cast<std::size_t>(oc)] =
        bn_beta_.f32()[oc] - bn_mean_.f32()[oc] * g;
  }
  weight_ = Tensor();
  bn_gamma_ = Tensor();
  bn_beta_ = Tensor();
  bn_mean_ = Tensor();
  bn_var_ = Tensor();
  scratch_ = Tensor();
}

// ---------------------------------------------------------------- MaxPool

MaxPool::MaxPool(std::string name, std::int64_t channels, std::int64_t in_h,
                 std::int64_t in_w, std::int64_t kernel, std::int64_t stride,
                 std::int64_t padding)
    : name_(std::move(name)), channels_(channels), in_h_(in_h), in_w_(in_w),
      kernel_(kernel), stride_(stride), padding_(padding),
      out_h_(conv_out_extent(in_h, kernel, stride, padding)),
      out_w_(conv_out_extent(in_w, kernel, stride, padding)) {}

Tensor MaxPool::forward(const Tensor& input) {
  return maxpool2d(input, kernel_, stride_, padding_);
}

void MaxPool::append_costs(std::int64_t batch, std::vector<OpCost>& out) const {
  out.push_back(cost::elementwise(
      name_, batch * channels_ * out_h_ * out_w_ * kernel_ * kernel_));
}

// ---------------------------------------------------------- GlobalAvgPool

GlobalAvgPool::GlobalAvgPool(std::string name, std::int64_t channels,
                             std::int64_t in_h, std::int64_t in_w)
    : name_(std::move(name)), channels_(channels), in_h_(in_h), in_w_(in_w) {}

Tensor GlobalAvgPool::forward(const Tensor& input) {
  return global_avgpool(input);
}

void GlobalAvgPool::append_costs(std::int64_t batch,
                                 std::vector<OpCost>& out) const {
  out.push_back(cost::elementwise(name_, batch * channels_ * in_h_ * in_w_));
}

// -------------------------------------------------------------- Bottleneck

Bottleneck::Bottleneck(std::string name, std::int64_t in_ch, std::int64_t mid_ch,
                       std::int64_t stride, bool downsample, std::int64_t in_h,
                       std::int64_t in_w)
    : name_(std::move(name)), in_ch_(in_ch), mid_ch_(mid_ch), stride_(stride) {
  conv1_ = std::make_unique<ConvBnRelu>(
      name_ + ".conv1", Conv2dParams{in_ch, mid_ch, 1, 1, 0}, in_h, in_w, true);
  conv2_ = std::make_unique<ConvBnRelu>(
      name_ + ".conv2", Conv2dParams{mid_ch, mid_ch, 3, stride, 1}, in_h, in_w,
      true);
  conv3_ = std::make_unique<ConvBnRelu>(
      name_ + ".conv3", Conv2dParams{mid_ch, mid_ch * 4, 1, 1, 0},
      conv2_->out_h(), conv2_->out_w(), false);
  if (downsample) {
    down_ = std::make_unique<ConvBnRelu>(
        name_ + ".down", Conv2dParams{in_ch, mid_ch * 4, 1, stride, 0}, in_h,
        in_w, false);
  }
}

Tensor Bottleneck::forward(const Tensor& input) {
  Tensor out = conv3_->forward(conv2_->forward(conv1_->forward(input)));
  if (down_) {
    Tensor identity = down_->forward(input);
    tensor::add_inplace(out, identity);
  } else {
    tensor::add_inplace(out, input);
  }
  relu_inplace(out.f32(), out.numel());
  return out;
}

void Bottleneck::append_costs(std::int64_t batch, std::vector<OpCost>& out) const {
  conv1_->append_costs(batch, out);
  conv2_->append_costs(batch, out);
  conv3_->append_costs(batch, out);
  if (down_) down_->append_costs(batch, out);
  out.push_back(cost::elementwise(
      name_ + ".res", batch * mid_ch_ * 4 * out_h() * out_w()));
}

void Bottleneck::collect_params(std::vector<NamedParam>& out) {
  conv1_->collect_params(out);
  conv2_->collect_params(out);
  conv3_->collect_params(out);
  if (down_) down_->collect_params(out);
}

void Bottleneck::quantize() {
  conv1_->quantize();
  conv2_->quantize();
  conv3_->quantize();
  if (down_) down_->quantize();
}

}  // namespace harvest::nn
