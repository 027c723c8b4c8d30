#include "nn/token_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/rng.hpp"
#include "nn/serialize.hpp"

namespace harvest::nn {
namespace {

TokenModelConfig mini_config(const std::string& arch) {
  TokenModelConfig config;
  config.name = "mini-" + arch;
  config.arch = arch;
  config.vocab = 37;
  config.dim = 24;
  config.depth = 2;
  config.heads = 3;
  config.max_tokens = 32;
  return config;
}

/// Backing storage + view for one sequence's state.
struct OwnedState {
  explicit OwnedState(const SequenceStateSpec& spec)
      : slab(static_cast<std::size_t>(spec.floats_per_sequence())),
        state(spec, slab.data()) {
    state.reset();
  }
  std::vector<float> slab;
  SequenceState state;
};

std::vector<std::int32_t> random_prompt(std::int64_t count, std::int64_t vocab,
                                        std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<std::int32_t> tokens;
  for (std::int64_t i = 0; i < count; ++i) {
    tokens.push_back(
        static_cast<std::int32_t>(rng.uniform_int(0, vocab - 1)));
  }
  return tokens;
}

class TokenModelTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TokenModelTest, StateSpecMatchesArchitecture) {
  TokenModelPtr model = build_token_model(mini_config(GetParam()));
  const SequenceStateSpec spec = model->state_spec();
  EXPECT_EQ(spec.layers, 2);
  EXPECT_EQ(spec.dim, 24);
  if (std::string(GetParam()) == "rwkv") {
    EXPECT_EQ(spec.kind, StateKind::kRecurrent);
    EXPECT_EQ(spec.floats_per_layer(), 2 * 24);
  } else {
    EXPECT_EQ(spec.kind, StateKind::kKvCache);
    EXPECT_EQ(spec.floats_per_layer(), 2 * 32 * 24);
  }
  EXPECT_EQ(spec.bytes_per_sequence(),
            static_cast<std::size_t>(spec.layers * spec.floats_per_layer()) *
                sizeof(float));
}

TEST_P(TokenModelTest, PrefillProducesFiniteLogitsAndAdvancesState) {
  TokenModelPtr model = build_token_model(mini_config(GetParam()));
  init_token_model(*model, 7);
  OwnedState owned(model->state_spec());
  const auto prompt = random_prompt(9, model->config().vocab, 3);
  std::vector<float> logits(static_cast<std::size_t>(model->config().vocab));
  model->prefill(prompt.data(), 9, owned.state, logits.data());
  EXPECT_EQ(owned.state.length(), 9);
  for (float v : logits) EXPECT_TRUE(std::isfinite(v));
}

TEST_P(TokenModelTest, TeacherForcingMatchesPrefillBitExactly) {
  // Absorbing a prompt in one packed prefill must equal feeding the
  // same tokens one decode step at a time: both walk the identical
  // per-token arithmetic, so the final-position logits agree bit for
  // bit. This is the consistency contract between the scheduler's
  // prefill and its decode loop.
  TokenModelPtr model = build_token_model(mini_config(GetParam()));
  init_token_model(*model, 11);
  const std::int64_t vocab = model->config().vocab;
  const auto prompt = random_prompt(8, vocab, 5);

  OwnedState packed(model->state_spec());
  std::vector<float> packed_logits(static_cast<std::size_t>(vocab));
  model->prefill(prompt.data(), 8, packed.state, packed_logits.data());

  OwnedState stepped(model->state_spec());
  std::vector<float> step_logits(static_cast<std::size_t>(vocab));
  model->prefill(prompt.data(), 1, stepped.state, step_logits.data());
  for (std::int64_t i = 1; i < 8; ++i) {
    SequenceState* states[] = {&stepped.state};
    model->decode_batch(&prompt[static_cast<std::size_t>(i)], states, 1,
                        step_logits.data());
  }

  EXPECT_EQ(stepped.state.length(), packed.state.length());
  EXPECT_EQ(std::memcmp(packed_logits.data(), step_logits.data(),
                        packed_logits.size() * sizeof(float)),
            0);
}

TEST_P(TokenModelTest, DecodeRowsInvariantToBatchComposition) {
  // The invariant continuous batching rests on: a sequence's next
  // logits depend only on its own state and last token — never on which
  // other sequences share the packed step. Decode three sequences
  // together, then replay each alone from an identical state; every row
  // must match bit for bit, states included.
  TokenModelPtr model = build_token_model(mini_config(GetParam()));
  init_token_model(*model, 13);
  const std::int64_t vocab = model->config().vocab;

  std::vector<std::unique_ptr<OwnedState>> batch_states;
  std::vector<std::unique_ptr<OwnedState>> solo_states;
  std::vector<std::int32_t> last_tokens;
  std::vector<float> sink(static_cast<std::size_t>(vocab));
  for (int s = 0; s < 3; ++s) {
    // Distinct histories: prompts of different lengths and contents.
    const auto prompt =
        random_prompt(3 + 2 * s, vocab, 100 + static_cast<std::uint64_t>(s));
    auto batched = std::make_unique<OwnedState>(model->state_spec());
    auto solo = std::make_unique<OwnedState>(model->state_spec());
    model->prefill(prompt.data(), static_cast<std::int64_t>(prompt.size()),
                   batched->state, sink.data());
    model->prefill(prompt.data(), static_cast<std::int64_t>(prompt.size()),
                   solo->state, sink.data());
    batch_states.push_back(std::move(batched));
    solo_states.push_back(std::move(solo));
    last_tokens.push_back(static_cast<std::int32_t>((7 * s + 2) % vocab));
  }

  SequenceState* batched_views[] = {&batch_states[0]->state,
                                    &batch_states[1]->state,
                                    &batch_states[2]->state};
  std::vector<float> batched_logits(static_cast<std::size_t>(3 * vocab));
  model->decode_batch(last_tokens.data(), batched_views, 3,
                      batched_logits.data());

  for (int s = 0; s < 3; ++s) {
    SequenceState* view[] = {&solo_states[static_cast<std::size_t>(s)]->state};
    std::vector<float> solo_logits(static_cast<std::size_t>(vocab));
    model->decode_batch(&last_tokens[static_cast<std::size_t>(s)], view, 1,
                        solo_logits.data());
    EXPECT_EQ(std::memcmp(batched_logits.data() +
                              static_cast<std::size_t>(s * vocab),
                          solo_logits.data(),
                          solo_logits.size() * sizeof(float)),
              0)
        << "row " << s << " depends on its batch";
    EXPECT_EQ(std::memcmp(batch_states[static_cast<std::size_t>(s)]->slab.data(),
                          solo_states[static_cast<std::size_t>(s)]->slab.data(),
                          batch_states[static_cast<std::size_t>(s)]->slab.size() *
                              sizeof(float)),
              0)
        << "state " << s << " diverged";
  }
}

TEST_P(TokenModelTest, PaddingRowsDoNotPerturbResults) {
  // length_multiple_of rounds the packed row count up with zero rows;
  // results must be bit-identical to the unpadded run.
  TokenModelPtr model = build_token_model(mini_config(GetParam()));
  init_token_model(*model, 17);
  const std::int64_t vocab = model->config().vocab;
  const auto prompt = random_prompt(5, vocab, 21);

  OwnedState padded(model->state_spec());
  OwnedState plain(model->state_spec());
  std::vector<float> sink(static_cast<std::size_t>(vocab));
  model->prefill(prompt.data(), 5, padded.state, sink.data());
  model->prefill(prompt.data(), 5, plain.state, sink.data());

  const std::int32_t last = 9;
  SequenceState* padded_view[] = {&padded.state};
  SequenceState* plain_view[] = {&plain.state};
  std::vector<float> padded_logits(static_cast<std::size_t>(vocab));
  std::vector<float> plain_logits(static_cast<std::size_t>(vocab));
  model->decode_batch(&last, padded_view, 1, padded_logits.data(),
                      /*length_multiple_of=*/8);
  model->decode_batch(&last, plain_view, 1, plain_logits.data(),
                      /*length_multiple_of=*/1);
  EXPECT_EQ(std::memcmp(padded_logits.data(), plain_logits.data(),
                        plain_logits.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(padded.slab.data(), plain.slab.data(),
                        plain.slab.size() * sizeof(float)),
            0);
}

TEST_P(TokenModelTest, CheckpointRoundTripIsBitExact) {
  TokenModelPtr original = build_token_model(mini_config(GetParam()));
  init_token_model(*original, 23);
  const std::string path =
      ::testing::TempDir() + "/token-" + GetParam() + ".hvst";
  ASSERT_TRUE(save_token_model(*original, path).is_ok());

  TokenModelPtr loaded = build_token_model(mini_config(GetParam()));
  init_token_model(*loaded, 999);  // different weights before loading
  ASSERT_TRUE(load_token_model(*loaded, path).is_ok());

  auto orig_params = original->params();
  auto loaded_params = loaded->params();
  ASSERT_EQ(orig_params.size(), loaded_params.size());
  for (std::size_t i = 0; i < orig_params.size(); ++i) {
    EXPECT_EQ(orig_params[i].name, loaded_params[i].name);
    const auto orig_span = orig_params[i].tensor->f32_span();
    const auto loaded_span = loaded_params[i].tensor->f32_span();
    ASSERT_EQ(orig_span.size(), loaded_span.size());
    EXPECT_EQ(std::memcmp(orig_span.data(), loaded_span.data(),
                          orig_span.size() * sizeof(float)),
              0)
        << orig_params[i].name;
  }

  // And the loaded model decodes identically.
  const auto prompt = random_prompt(6, original->config().vocab, 31);
  OwnedState a(original->state_spec());
  OwnedState b(loaded->state_spec());
  std::vector<float> la(static_cast<std::size_t>(original->config().vocab));
  std::vector<float> lb(la.size());
  original->prefill(prompt.data(), 6, a.state, la.data());
  loaded->prefill(prompt.data(), 6, b.state, lb.data());
  EXPECT_EQ(std::memcmp(la.data(), lb.data(), la.size() * sizeof(float)), 0);
  std::remove(path.c_str());
}

TEST_P(TokenModelTest, PreparedModelMatchesUnprepared) {
  // prepare() packs every GEMM weight into panels once; the packed GEMM
  // runs the same accumulation chains, so logits and states stay bit
  // for bit those of the per-call-packing model.
  TokenModelPtr plain = build_token_model(mini_config(GetParam()));
  TokenModelPtr packed = build_token_model(mini_config(GetParam()));
  init_token_model(*plain, 29);
  init_token_model(*packed, 29);
  packed->prepare();
  const std::int64_t vocab = plain->config().vocab;
  const auto prompt = random_prompt(7, vocab, 37);

  OwnedState a(plain->state_spec());
  OwnedState b(packed->state_spec());
  std::vector<float> la(static_cast<std::size_t>(vocab));
  std::vector<float> lb(la.size());
  plain->prefill(prompt.data(), 7, a.state, la.data());
  packed->prefill(prompt.data(), 7, b.state, lb.data());
  EXPECT_EQ(std::memcmp(la.data(), lb.data(), la.size() * sizeof(float)), 0);

  const std::int32_t last = 4;
  SequenceState* va[] = {&a.state};
  SequenceState* vb[] = {&b.state};
  plain->decode_batch(&last, va, 1, la.data(), /*length_multiple_of=*/4);
  packed->decode_batch(&last, vb, 1, lb.data(), /*length_multiple_of=*/4);
  EXPECT_EQ(std::memcmp(la.data(), lb.data(), la.size() * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(a.slab.data(), b.slab.data(),
                        a.slab.size() * sizeof(float)),
            0);
}

INSTANTIATE_TEST_SUITE_P(Architectures, TokenModelTest,
                         ::testing::Values("rwkv", "attn"));

TEST(TokenModelMacs, RwkvFlatAttnGrowsWithHistory) {
  TokenModelPtr rwkv = build_token_model(mini_config("rwkv"));
  TokenModelPtr attn = build_token_model(mini_config("attn"));
  EXPECT_DOUBLE_EQ(rwkv->macs_per_token(0), rwkv->macs_per_token(100));
  EXPECT_GT(attn->macs_per_token(100), attn->macs_per_token(0));
}

TEST(SequenceStateView, ResetZeroesSlabAndCounter) {
  SequenceStateSpec spec;
  spec.kind = StateKind::kRecurrent;
  spec.layers = 2;
  spec.dim = 4;
  spec.max_tokens = 8;
  std::vector<float> slab(static_cast<std::size_t>(spec.floats_per_sequence()),
                          3.5f);
  SequenceState state(spec, slab.data());
  state.advance(5);
  EXPECT_EQ(state.length(), 5);
  EXPECT_FALSE(state.full());
  state.advance(3);
  EXPECT_TRUE(state.full());
  state.reset();
  EXPECT_EQ(state.length(), 0);
  for (float v : slab) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(state.layer(1), slab.data() + spec.floats_per_layer());
}

}  // namespace
}  // namespace harvest::nn
