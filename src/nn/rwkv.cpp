#include "nn/rwkv.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/norm.hpp"
#include "tensor/ops.hpp"

namespace harvest::nn {

using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

namespace {

float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

RwkvBlock::RwkvBlock(std::string name, std::int64_t dim, std::int64_t tokens)
    : name_(std::move(name)), dim_(dim), tokens_(tokens),
      ln1_gamma_(Shape{dim}, DType::kF32), ln1_beta_(Shape{dim}, DType::kF32),
      ln2_gamma_(Shape{dim}, DType::kF32), ln2_beta_(Shape{dim}, DType::kF32),
      r_(dim, dim, /*bias=*/false), k_(dim, dim, /*bias=*/false),
      v_(dim, dim, /*bias=*/false), o_(dim, dim, /*bias=*/false),
      decay_(Shape{dim}, DType::kF32), ck_(dim, 4 * dim, /*bias=*/false),
      cv_(4 * dim, dim, /*bias=*/false), cr_(dim, dim, /*bias=*/false) {
  tensor::fill(ln1_gamma_, 1.0f);
  tensor::fill(ln2_gamma_, 1.0f);
}

Tensor RwkvBlock::forward(const Tensor& input) {
  const std::int64_t n = input.shape()[0];
  const std::int64_t rows = n * tokens_;
  Tensor x = Tensor::scratch(input.shape(), DType::kF32);
  std::memcpy(x.f32(), input.f32(),
              static_cast<std::size_t>(input.numel()) * sizeof(float));
  Tensor states = Tensor::scratch(Shape{n, 2 * dim_});
  std::memset(states.f32(), 0, static_cast<std::size_t>(states.numel()) *
                                   sizeof(float));
  tensor::AlignedBuffer row_states = tensor::AlignedBuffer::scratch(
      static_cast<std::size_t>(rows) * sizeof(float*));
  for (std::int64_t i = 0; i < rows; ++i) {
    row_states.as<float*>()[i] = states.f32() + (i / tokens_) * 2 * dim_;
  }
  step(x.f32(), rows, rows, row_states.as<float*>());
  return x;
}

void RwkvBlock::step(float* x, std::int64_t rows, std::int64_t count,
                     float* const* row_states) {
  const Shape shape{rows, dim_};
  Tensor normed = Tensor::scratch(shape);
  Tensor r = Tensor::scratch(shape);
  Tensor k = Tensor::scratch(shape);
  Tensor v = Tensor::scratch(shape);
  layernorm_rows(x, normed.f32(), rows, dim_, ln1_gamma_.f32(),
                 ln1_beta_.f32());
  r_.run(normed.f32(), r.f32(), rows, /*accumulate=*/false);
  k_.run(normed.f32(), k.f32(), rows, /*accumulate=*/false);
  v_.run(normed.f32(), v.f32(), rows, /*accumulate=*/false);

  // Linear-time WKV scan; the gated mix overwrites r in place.
  const float* decay = decay_.f32();
  for (std::int64_t i = 0; i < rows; ++i) {
    float* m = r.f32() + i * dim_;
    if (i >= count) {
      std::memset(m, 0, static_cast<std::size_t>(dim_) * sizeof(float));
      continue;
    }
    float* num = row_states[i];
    float* den = num + dim_;
    const float* kr = k.f32() + i * dim_;
    const float* vr = v.f32() + i * dim_;
    for (std::int64_t c = 0; c < dim_; ++c) {
      // Per-channel decay in (0,1); keys clamped to keep e^k bounded on
      // untrained weights.
      const float w = sigmoidf(decay[c]);
      const float ek = std::exp(std::min(kr[c], 20.0f));
      num[c] = w * num[c] + ek * vr[c];
      den[c] = w * den[c] + ek;
      m[c] = sigmoidf(m[c]) * num[c] / (den[c] + 1e-8f);
    }
  }
  // The residual add stays a separate pass: an accumulating GEMM would
  // add x once per K block and change the rounding for dim > 256.
  o_.run(r.f32(), k.f32(), rows, /*accumulate=*/false);
  const float* proj = k.f32();
  for (std::int64_t i = 0; i < rows * dim_; ++i) x[i] += proj[i];

  // Channel mixing: x += W_cv·relu(W_ck·x)² ⊙ σ(W_cr·x).
  layernorm_rows(x, normed.f32(), rows, dim_, ln2_gamma_.f32(),
                 ln2_beta_.f32());
  Tensor hidden = Tensor::scratch(Shape{rows, 4 * dim_});
  ck_.run(normed.f32(), hidden.f32(), rows, /*accumulate=*/false);
  float* hd = hidden.f32();
  for (std::int64_t i = 0; i < rows * 4 * dim_; ++i) {
    const float relu = hd[i] > 0.0f ? hd[i] : 0.0f;
    hd[i] = relu * relu;  // squared ReLU, as in RWKV channel mixing
  }
  cv_.run(hd, v.f32(), rows, /*accumulate=*/false);
  cr_.run(normed.f32(), k.f32(), rows, /*accumulate=*/false);
  const float* cm = v.f32();
  const float* gate = k.f32();
  for (std::int64_t i = 0; i < rows * dim_; ++i) {
    x[i] += cm[i] * sigmoidf(gate[i]);
  }
}

void RwkvBlock::append_costs(std::int64_t batch, std::vector<OpCost>& out) const {
  const std::int64_t rows = batch * tokens_;
  out.push_back(cost::norm(name_ + ".ln1", rows * dim_));
  out.push_back(r_.cost(name_ + ".r", rows));
  out.push_back(k_.cost(name_ + ".k", rows));
  out.push_back(v_.cost(name_ + ".v", rows));
  // The WKV scan is linear in tokens: a handful of FLOPs per element.
  out.push_back(cost::elementwise(name_ + ".wkv_scan", rows * dim_ * 6));
  out.push_back(o_.cost(name_ + ".o", rows));
  out.push_back(cost::norm(name_ + ".ln2", rows * dim_));
  out.push_back(ck_.cost(name_ + ".ck", rows));
  out.push_back(cost::elementwise(name_ + ".sqrelu", rows * 4 * dim_));
  out.push_back(cv_.cost(name_ + ".cv", rows));
  out.push_back(cr_.cost(name_ + ".cr", rows));
  out.push_back(cost::elementwise(name_ + ".gate", rows * dim_));
}

void RwkvBlock::collect_params(std::vector<NamedParam>& out) {
  out.push_back({name_ + ".ln1.gamma", &ln1_gamma_});
  out.push_back({name_ + ".ln1.beta", &ln1_beta_});
  out.push_back({name_ + ".ln2.gamma", &ln2_gamma_});
  out.push_back({name_ + ".ln2.beta", &ln2_beta_});
  r_.collect_params(name_ + ".r", out);
  k_.collect_params(name_ + ".k", out);
  v_.collect_params(name_ + ".v", out);
  o_.collect_params(name_ + ".o", out);
  out.push_back({name_ + ".decay", &decay_});
  ck_.collect_params(name_ + ".ck", out);
  cv_.collect_params(name_ + ".cv", out);
  cr_.collect_params(name_ + ".cr", out);
}

void RwkvBlock::prepare() {
  for (Dense* d : {&r_, &k_, &v_, &o_, &ck_, &cv_, &cr_}) d->prepare();
}

ModelPtr build_rwkv(const RwkvConfig& config) {
  auto model = std::make_unique<Model>(
      config.name, Shape{3, config.image, config.image}, config.num_classes);
  auto embed = std::make_unique<PatchEmbed>("embed", config.image, config.patch,
                                            3, config.dim);
  const std::int64_t tokens = embed->tokens();
  model->add(std::move(embed));
  for (std::int64_t i = 0; i < config.depth; ++i) {
    model->add(std::make_unique<RwkvBlock>("block" + std::to_string(i),
                                           config.dim, tokens));
  }
  model->add(std::make_unique<LayerNorm>("final_ln", config.dim, tokens));
  model->add(std::make_unique<ClsPool>("cls", tokens, config.dim));
  model->add(std::make_unique<Linear>("head", config.dim, config.num_classes, 1));
  return model;
}

}  // namespace harvest::nn
