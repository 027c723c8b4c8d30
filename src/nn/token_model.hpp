#pragma once

/// \file token_model.hpp
/// Step-wise (incremental) token models for the sequence-serving
/// subsystem: the autoregressive counterpart to the image classifiers.
/// A token model runs the image layer stack one step at a time (embedding
/// → blocks → final LayerNorm → head); `arch` picks the block:
///
///  * "rwkv" — `RwkvBlock::step`: the linear-time WKV recurrence of
///    `nn/rwkv.hpp`, decoded one token at a time against a tiny
///    per-sequence recurrent state (per-layer num/den accumulators).
///    Step cost is independent of history length.
///  * "attn" — `TransformerBlock::step`: a causal decoder whose
///    per-layer K/V projections append into a server-owned KV-cache;
///    each decode step attends one query row against the cached keys,
///    so the full prefix is never re-processed.
///
/// Both blocks run their projections through `Dense`, so `prepare()`
/// packs the weights once at load time, the transformer's bias, GELU and
/// residual adds ride the GEMM epilogue, and all activations are request scratch
/// (`Tensor::scratch`): under a bound `core::ArenaScope` a steady-state
/// decode step touches no heap.
///
/// The decode entry point is *packed*: each live sequence contributes
/// exactly one row, so a batch of N sequences with wildly different
/// histories runs its projections and MLPs as dense [N, dim] GEMMs with
/// zero padding waste (histories live in the states, not the activations).
/// `length_multiple_of` optionally rounds the packed row count up to a
/// kernel-friendly multiple (CTranslate2-style); pad rows carry zeros
/// and never touch sequence state, so results are bit-identical to the
/// unpadded run.
///
/// All state lives in a caller-provided `SequenceState` slab view —
/// the model itself is immutable during decode and therefore shareable
/// across scheduler threads for distinct states.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace harvest::nn {

/// What kind of per-sequence decode state an architecture needs.
enum class StateKind : int {
  kRecurrent = 0,  ///< RWKV: per-layer num/den accumulators, O(layers·dim)
  kKvCache = 1,    ///< attention: per-layer K/V rings, O(layers·tokens·dim)
};
const char* state_kind_name(StateKind kind);

/// Size contract between a token model and the serving-side state pool:
/// the pool slab-allocates `bytes_per_sequence()` per live sequence.
struct SequenceStateSpec {
  StateKind kind = StateKind::kRecurrent;
  std::int64_t layers = 0;
  std::int64_t dim = 0;
  /// KV capacity (max prompt + generated tokens) for kKvCache; the
  /// position budget either way.
  std::int64_t max_tokens = 0;

  /// Floats of one layer's slice: kRecurrent → 2·dim (num, den);
  /// kKvCache → 2·max_tokens·dim (K rows then V rows).
  std::int64_t floats_per_layer() const;
  std::int64_t floats_per_sequence() const { return layers * floats_per_layer(); }
  std::size_t bytes_per_sequence() const {
    return static_cast<std::size_t>(floats_per_sequence()) * sizeof(float);
  }

  bool operator==(const SequenceStateSpec&) const = default;
};

/// One sequence's decode state: a view over pool-owned slab memory plus
/// the absorbed-token counter. Copyable (it is a view); `reset()` zeroes
/// the slab so a pool slot can be reused across sequences.
class SequenceState {
 public:
  SequenceState() = default;
  SequenceState(const SequenceStateSpec& spec, float* slab);

  bool valid() const { return slab_ != nullptr; }
  const SequenceStateSpec& spec() const { return spec_; }

  /// Tokens absorbed so far (prompt + generated).
  std::int64_t length() const { return length_; }
  /// Out of KV slots / position budget? (Recurrent state never fills,
  /// but the position budget still bounds admission for fairness.)
  bool full() const { return length_ >= spec_.max_tokens; }

  /// Zero the slab and the token counter.
  void reset();

  /// Layer `l`'s slice (see SequenceStateSpec::floats_per_layer).
  float* layer(std::int64_t l);
  const float* layer(std::int64_t l) const;

  void advance(std::int64_t n = 1) { length_ += n; }

 private:
  SequenceStateSpec spec_{};
  float* slab_ = nullptr;
  std::int64_t length_ = 0;
};

/// Architecture + dimensions of a token model ("workload": "sequence"
/// repository entries carry these keys).
struct TokenModelConfig {
  std::string name = "agri-lm";
  std::string arch = "rwkv";  ///< "rwkv" | "attn"
  std::int64_t vocab = 512;
  std::int64_t dim = 128;
  std::int64_t depth = 4;
  std::int64_t heads = 4;        ///< attn only; must divide dim
  std::int64_t max_tokens = 256; ///< per-sequence context capacity
};

/// Incremental autoregressive model. Both entry points write logits
/// rows of `config().vocab` floats; sampling policy is the caller's.
class TokenModel {
 public:
  virtual ~TokenModel() = default;

  virtual const std::string& name() const = 0;
  virtual const TokenModelConfig& config() const = 0;
  virtual SequenceStateSpec state_spec() const = 0;

  /// Absorb `count` prompt tokens into `state` (which must be fresh or
  /// mid-sequence with room for them) and write the logits of the final
  /// position to `logits` [vocab].
  virtual void prefill(const std::int32_t* tokens, std::int64_t count,
                       SequenceState& state, float* logits) = 0;

  /// One decode iteration over a packed batch: row i consumes
  /// `last_tokens[i]` against `states[i]` and writes `logits + i*vocab`.
  /// The internal row count is rounded up to `length_multiple_of`
  /// (pad rows are zeros and touch no state). Row results are
  /// bit-identical regardless of batch composition or padding — the
  /// invariant continuous batching relies on.
  virtual void decode_batch(const std::int32_t* last_tokens,
                            SequenceState* const* states, std::int64_t count,
                            float* logits,
                            std::int64_t length_multiple_of = 1) = 0;

  /// All learnable tensors (for init / HVST checkpoints).
  virtual std::vector<NamedParam> params() = 0;

  /// One-time load-phase work after the weights are final: packs every
  /// GEMM weight into panels (`Layer::prepare`); without it each GEMM
  /// packs its weight per call. Idempotent; changes no logits.
  virtual void prepare() = 0;

  /// MACs to decode one token when `cached` tokens precede it — the
  /// DES token cost model prices steps with this.
  virtual double macs_per_token(std::int64_t cached) const = 0;
};

using TokenModelPtr = std::unique_ptr<TokenModel>;

/// MACs to decode one token when `cached` tokens precede it, from the
/// architecture alone: TokenModel::macs_per_token of a model built from
/// `config`, without building one.
double token_macs_per_token(const TokenModelConfig& config,
                            std::int64_t cached);

/// Build an uninitialized model ("rwkv" or "attn"; HARVEST_CHECKs the
/// config is well-formed).
TokenModelPtr build_token_model(const TokenModelConfig& config);

/// Same per-parameter deterministic scheme as nn::init_weights.
void init_token_model(TokenModel& model, std::uint64_t seed);

/// HVST checkpoint round-trip (same container as image models).
core::Status save_token_model(TokenModel& model, const std::string& path);
core::Status load_token_model(TokenModel& model, const std::string& path);

}  // namespace harvest::nn
