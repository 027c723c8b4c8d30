#pragma once

/// \file simulator.hpp
/// The discrete-event core. `EventQueue<Payload>` is a (time, seq)
/// min-heap: events at equal timestamps pop in push order, which makes
/// runs bit-reproducible. The fleet DES (sim/continuum) queues plain-data
/// payloads on it; the online-inference scenario runs on `Simulator`,
/// the same queue holding callbacks, so that hours of simulated serving
/// execute in milliseconds of wall time.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/status.hpp"

namespace harvest::sim {

template <typename Payload>
class EventQueue {
 public:
  struct Event {
    double when;
    std::uint64_t seq;
    Payload payload;
  };

  void push(double when, Payload payload) {
    heap_.push_back(Event{when, next_seq_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// The earliest event (lowest seq among equal times). Requires !empty().
  const Event& top() const { return heap_.front(); }

  /// Remove and return the earliest event. Requires !empty().
  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event event = std::move(heap_.back());
    heap_.pop_back();
    return event;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::uint64_t next_seq_ = 0;
  std::vector<Event> heap_;
};

class Simulator {
 public:
  using Action = std::function<void()>;

  double now() const { return now_; }

  /// Schedule `action` to run `delay` seconds from now (delay >= 0).
  void schedule_in(double delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  /// Schedule at an absolute time (>= now).
  void schedule_at(double when, Action action) {
    HARVEST_CHECK_MSG(when >= now_, "cannot schedule into the past");
    queue_.push(when, std::move(action));
  }

  /// Run until the event queue drains or `until` is reached (infinity =
  /// drain). Returns the number of events executed.
  std::size_t run(double until = kForever);

  /// True when no events remain.
  bool idle() const { return queue_.empty(); }

  std::size_t pending_events() const { return queue_.size(); }

  static constexpr double kForever = 1e300;

 private:
  double now_ = 0.0;
  EventQueue<Action> queue_;
};

}  // namespace harvest::sim
