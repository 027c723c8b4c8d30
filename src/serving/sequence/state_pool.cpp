#include "serving/sequence/state_pool.hpp"

#include <algorithm>

#include "core/status.hpp"

namespace harvest::serving::sequence {

StatePool::StatePool(const nn::SequenceStateSpec& spec,
                     const StatePoolConfig& config)
    : spec_(spec), idle_timeout_s_(config.idle_timeout_s) {
  HARVEST_CHECK(config.slots > 0);
  const std::size_t per_seq = spec.bytes_per_sequence();
  HARVEST_CHECK(per_seq > 0);
  std::int64_t slots = config.slots;
  if (config.capacity_bytes > 0) {
    // Capacity accounting: the byte budget caps the slot count.
    const auto affordable =
        static_cast<std::int64_t>(config.capacity_bytes / per_seq);
    slots = std::min(slots, std::max<std::int64_t>(affordable, 0));
    HARVEST_CHECK(slots > 0);
  }
  slots_ = slots;
  capacity_bytes_ = static_cast<std::size_t>(slots_) * per_seq;
  slab_ = tensor::AlignedBuffer(capacity_bytes_);
  in_use_.assign(static_cast<std::size_t>(slots_), false);
  last_touch_s_.assign(static_cast<std::size_t>(slots_), 0.0);
  generation_.assign(static_cast<std::size_t>(slots_), 0);
  free_.reserve(static_cast<std::size_t>(slots_));
  // LIFO free list, highest index on top, so slot 0 leases first.
  for (std::int64_t s = slots_ - 1; s >= 0; --s) free_.push_back(s);
}

std::optional<StatePool::Lease> StatePool::acquire(double now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_.empty()) return std::nullopt;
  Lease lease;
  lease.slot = free_.back();
  free_.pop_back();
  const auto i = static_cast<std::size_t>(lease.slot);
  in_use_[i] = true;
  last_touch_s_[i] = now_s;
  // New ownership epoch: any lease stamped with an older generation
  // is dead from here on.
  lease.generation = ++generation_[i];
  lease.state = nn::SequenceState(
      spec_, slab_.as<float>() + lease.slot * spec_.floats_per_sequence());
  // Zeroed under the lock, so this reset happens after the release (or
  // eviction) that freed the slot and before the next owner's.
  lease.state.reset();
  return lease;
}

bool StatePool::touch(std::int64_t slot, std::uint64_t generation,
                      double now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  HARVEST_CHECK(slot >= 0 && slot < slots_);
  const auto i = static_cast<std::size_t>(slot);
  if (!in_use_[i] || generation_[i] != generation) return false;
  last_touch_s_[i] = now_s;
  return true;
}

bool StatePool::release(std::int64_t slot, std::uint64_t generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  HARVEST_CHECK(slot >= 0 && slot < slots_);
  const auto i = static_cast<std::size_t>(slot);
  // Stale lease: the slot was evicted (and possibly re-leased) since
  // this lease was handed out. Freeing it now would alias the current
  // owner onto the free list — exactly the double-lease bug the
  // generation stamp exists to stop.
  if (!in_use_[i] || generation_[i] != generation) return false;
  in_use_[i] = false;
  free_.push_back(slot);
  return true;
}

std::vector<std::int64_t> StatePool::evict_idle(double now_s) {
  std::vector<std::int64_t> evicted;
  if (idle_timeout_s_ <= 0.0) return evicted;
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::int64_t s = 0; s < slots_; ++s) {
    const auto i = static_cast<std::size_t>(s);
    if (in_use_[i] && now_s - last_touch_s_[i] > idle_timeout_s_) {
      in_use_[i] = false;
      // Invalidate the outstanding lease before the slot can be
      // re-acquired; its touch/release will no-op on the mismatch.
      ++generation_[i];
      free_.push_back(s);
      ++evictions_;
      evicted.push_back(s);
    }
  }
  return evicted;
}

std::int64_t StatePool::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_ - static_cast<std::int64_t>(free_.size());
}

std::size_t StatePool::used_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return (static_cast<std::size_t>(slots_) - free_.size()) *
         spec_.bytes_per_sequence();
}

std::uint64_t StatePool::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::uint64_t StatePool::generation(std::int64_t slot) const {
  std::lock_guard<std::mutex> lock(mutex_);
  HARVEST_CHECK(slot >= 0 && slot < slots_);
  return generation_[static_cast<std::size_t>(slot)];
}

}  // namespace harvest::serving::sequence
