#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/arena.hpp"
#include "nn/graph.hpp"
#include "nn/init.hpp"
#include "nn/models.hpp"
#include "nn/quant.hpp"
#include "nn/token_model.hpp"
#include "tensor/buffer.hpp"
#include "tensor/tensor.hpp"

// ------------------------------------------------------------------
// Global operator new counting hook: the zero-malloc gate below counts
// EVERY heap allocation in the process, not just tensor buffers, so a
// stray std::vector in a kernel can't hide behind the arena.

namespace {
std::uint64_t g_new_calls = 0;
}

void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace harvest {
namespace {

using core::ArenaScope;
using core::BumpArena;

// ------------------------------------------------------------------ arena

TEST(BumpArena, AllocationsAreAlignedAndCounted) {
  BumpArena arena(1 << 16);
  void* a = arena.allocate(100);
  void* b = arena.allocate(1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % BumpArena::kAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % BumpArena::kAlignment, 0u);
  // 100 pads to 128, plus 64 for the second allocation.
  EXPECT_EQ(arena.used_bytes(), 192u);
  EXPECT_GE(arena.reserved_bytes(), arena.used_bytes());
}

TEST(BumpArena, ResetRecyclesBlocksAndMemory) {
  BumpArena arena(1 << 16);
  void* first = arena.allocate(1000);
  arena.allocate(3000);
  const std::size_t reserved = arena.reserved_bytes();
  const std::size_t blocks = arena.block_count();

  arena.reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_EQ(arena.reserved_bytes(), reserved);  // blocks kept, not freed
  EXPECT_EQ(arena.block_count(), blocks);
  EXPECT_EQ(arena.reset_count(), 1u);

  // Steady state: the same request replayed gets the same memory back.
  void* again = arena.allocate(1000);
  EXPECT_EQ(again, first);
}

TEST(BumpArena, GrowsBeyondOneBlockAndTracksPeak) {
  BumpArena arena(1 << 12);  // 4 KiB blocks force chain growth
  for (int i = 0; i < 8; ++i) arena.allocate(3000);
  EXPECT_GT(arena.block_count(), 1u);
  const std::size_t peak = arena.peak_bytes();
  EXPECT_GE(peak, 8u * 3000u);
  arena.reset();
  arena.allocate(64);
  EXPECT_EQ(arena.peak_bytes(), peak);  // high-water survives reset
}

TEST(BumpArena, ReserveMakesFollowingAllocationsHeapFree) {
  BumpArena arena(1 << 12);
  arena.reserve(1 << 16);
  const std::size_t blocks = arena.block_count();
  const std::uint64_t before = g_new_calls;
  for (int i = 0; i < 16; ++i) arena.allocate(4000);
  EXPECT_EQ(g_new_calls, before);
  EXPECT_EQ(arena.block_count(), blocks);
}

TEST(ArenaScope, BindsPerThreadAndNests) {
  EXPECT_EQ(ArenaScope::current(), nullptr);
  BumpArena outer_arena, inner_arena;
  {
    ArenaScope outer(outer_arena);
    EXPECT_EQ(ArenaScope::current(), &outer_arena);
    {
      ArenaScope inner(inner_arena);
      EXPECT_EQ(ArenaScope::current(), &inner_arena);
    }
    EXPECT_EQ(ArenaScope::current(), &outer_arena);
  }
  EXPECT_EQ(ArenaScope::current(), nullptr);
}

TEST(ArenaScope, ScratchTensorsLandInTheBoundArena) {
  BumpArena arena;
  {
    ArenaScope scope(arena);
    tensor::Tensor t = tensor::Tensor::scratch({64, 64});
    EXPECT_GE(arena.used_bytes(), 64u * 64u * sizeof(float));
    t.f32()[0] = 1.0f;  // writable
  }
  arena.reset();
  // Without a scope, scratch falls back to an owning heap buffer.
  const std::uint64_t before = tensor::AlignedBuffer::heap_allocation_count();
  tensor::Tensor heap = tensor::Tensor::scratch({8, 8});
  EXPECT_EQ(tensor::AlignedBuffer::heap_allocation_count(), before + 1);
}

// ------------------------------------------------------- zero-malloc gate

/// The zero-malloc gate: after warm-up, a ViT forward under a request
/// ArenaScope performs ZERO heap allocations — not just zero
/// tensor-buffer allocations (AlignedBuffer's counter) but zero calls
/// to global operator new anywhere in the layer stack — in fp32 and,
/// on the same layers, in int8.
void expect_steady_state_vit_forward_allocates_nothing(bool int8) {
  nn::ModelPtr model = nn::build_vit(nn::vit_tiny_config());
  nn::init_weights(*model, 42);
  if (int8) nn::quantize_model(*model);
  model->prepare();  // AOT weight packing, as the serving load path does

  const tensor::Shape& per_image = model->input_shape();
  const tensor::Tensor input = tensor::Tensor::full(
      {2, per_image.dim(0), per_image.dim(1), per_image.dim(2)}, 0.1f);

  BumpArena arena;
  // Two warm-up requests: the first grows the arena chain and any
  // grow-only thread-local kernel scratch; the second proves a fresh
  // request replays into the recycled blocks.
  for (int warm = 0; warm < 2; ++warm) {
    ArenaScope scope(arena);
    (void)model->forward(input);
    arena.reset();
  }

  const std::uint64_t news_before = g_new_calls;
  const std::uint64_t buffers_before =
      tensor::AlignedBuffer::heap_allocation_count();
  {
    ArenaScope scope(arena);
    (void)model->forward(input);
  }
  arena.reset();
  EXPECT_EQ(tensor::AlignedBuffer::heap_allocation_count(), buffers_before)
      << "a tensor buffer bypassed the request arena";
  EXPECT_EQ(g_new_calls, news_before)
      << "steady-state Model::forward hit operator new";
}

TEST(ZeroMallocGate, SteadyStateVitForwardAllocatesNothing) {
  expect_steady_state_vit_forward_allocates_nothing(/*int8=*/false);
}

TEST(ZeroMallocGate, SteadyStateInt8VitForwardAllocatesNothing) {
  expect_steady_state_vit_forward_allocates_nothing(/*int8=*/true);
}

/// The same gate for the token models' packed decode step: after
/// warm-up, decode_batch under a request ArenaScope (as
/// NativeSequenceBackend binds it) makes no operator new call.
void expect_steady_state_decode_allocates_nothing(const char* arch) {
  nn::TokenModelConfig config;
  config.arch = arch;
  config.vocab = 64;
  config.dim = 32;
  config.depth = 2;
  config.heads = 4;
  config.max_tokens = 16;
  nn::TokenModelPtr model = nn::build_token_model(config);
  nn::init_token_model(*model, 5);
  model->prepare();

  const nn::SequenceStateSpec spec = model->state_spec();
  constexpr int kSequences = 3;
  std::vector<float> slab(
      static_cast<std::size_t>(kSequences * spec.floats_per_sequence()));
  std::vector<nn::SequenceState> states;
  std::vector<nn::SequenceState*> views;
  for (int s = 0; s < kSequences; ++s) {
    states.emplace_back(spec, slab.data() + s * spec.floats_per_sequence());
  }
  for (nn::SequenceState& state : states) {
    state.reset();
    views.push_back(&state);
  }
  const std::int32_t tokens[kSequences] = {1, 2, 3};
  std::vector<float> logits(static_cast<std::size_t>(kSequences * 64));

  BumpArena arena;
  auto step = [&] {
    {
      ArenaScope scope(arena);
      model->decode_batch(tokens, views.data(), kSequences, logits.data(),
                          /*length_multiple_of=*/4);
    }
    arena.reset();
  };
  for (int warm = 0; warm < 2; ++warm) step();

  const std::uint64_t news_before = g_new_calls;
  const std::uint64_t buffers_before =
      tensor::AlignedBuffer::heap_allocation_count();
  step();
  EXPECT_EQ(tensor::AlignedBuffer::heap_allocation_count(), buffers_before)
      << "a tensor buffer bypassed the request arena";
  EXPECT_EQ(g_new_calls, news_before)
      << "steady-state decode_batch hit operator new";
}

TEST(ZeroMallocGate, SteadyStateRwkvDecodeAllocatesNothing) {
  expect_steady_state_decode_allocates_nothing("rwkv");
}

TEST(ZeroMallocGate, SteadyStateAttnDecodeAllocatesNothing) {
  expect_steady_state_decode_allocates_nothing("attn");
}

}  // namespace
}  // namespace harvest
