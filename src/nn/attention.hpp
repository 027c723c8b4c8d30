#pragma once

/// \file attention.hpp
/// Multi-head self-attention core: given packed QKV activations, compute
/// softmax(QKᵀ/√d)·V per head. The projection GEMMs live in the layer
/// wrapper (layers.cpp); this file owns only the attention matmuls and
/// softmax — mirroring the paper's accounting, which separates
/// "attention" compute (score/context matmuls) from "MLP" projections
/// (§4.0.2: ViT-Tiny is 81.73% MLP vs 18.23% attention).

#include <cstddef>
#include <cstdint>

namespace harvest::nn {

/// qkv:  [tokens, 3*dim] for one image, packed as (Q | K | V) per row.
/// out:  [tokens, dim].
/// scores_scratch: caller-provided buffer of at least heads*tokens*tokens.
/// The score and context matmuls lower to the packed strided GEMM
/// kernels, reading Q/K/V in place from the interleaved QKV buffer.
void self_attention(const float* qkv, float* out, float* scores_scratch,
                    std::int64_t tokens, std::int64_t dim, std::int64_t heads);

/// Batched variant: qkv [batch, tokens, 3*dim] → out [batch, tokens, dim],
/// parallel over the full batch×heads grid with per-thread score
/// scratch (the single-image entry point above serializes the batch
/// when driven from a loop).
void self_attention_batched(const float* qkv, float* out, std::int64_t batch,
                            std::int64_t tokens, std::int64_t dim,
                            std::int64_t heads);

/// Flash-style fused attention: K/V stream through the score computation
/// in KV_BLOCK-wide tiles with an online softmax (running max +
/// rescaled output accumulator), so the T×T score matrix is never
/// materialized — per-thread scratch is O(T·head_dim) instead of
/// O(T²·heads) (`self_attention_fused_scratch_bytes`). Numerically
/// agrees with the naive path to ~1e-5 (tiled accumulation order plus a
/// polynomial exp; gated by bench/attention_sweep and nn_attention_test).
/// Same layout contract as self_attention: qkv [tokens, 3·dim] packed
/// (Q | K | V) per row, out [tokens, dim].
void self_attention_fused(const float* qkv, float* out, std::int64_t tokens,
                          std::int64_t dim, std::int64_t heads);

/// Batched fused variant, parallel over the batch×heads grid like
/// self_attention_batched.
void self_attention_fused_batched(const float* qkv, float* out,
                                  std::int64_t batch, std::int64_t tokens,
                                  std::int64_t dim, std::int64_t heads);

/// Per-thread scratch footprint of the fused kernel for one (batch,
/// head) task — the number the O(T) claim is gated on in
/// BENCH_attention.json (naive needs heads·T²·4 bytes per image).
std::size_t self_attention_fused_scratch_bytes(std::int64_t tokens,
                                               std::int64_t dim,
                                               std::int64_t heads);

/// Decode-path fused attention for the KV-cache layout of
/// `TransformerBlock::step`: one query row `q` [head_dim] attends
/// to `len` cached rows (row pitch `row_pitch` elements; `k_rows` /
/// `v_rows` point at this head's slice of the cache). Single online
/// pass — no scores buffer, the running max/denominator/accumulator
/// update in place as cache rows stream by. `out` [head_dim].
void attention_decode_fused(const float* q, const float* k_rows,
                            const float* v_rows, std::int64_t row_pitch,
                            float* out, std::int64_t len,
                            std::int64_t head_dim, float scale);

}  // namespace harvest::nn
