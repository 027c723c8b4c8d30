#include "sim/simulator.hpp"

namespace harvest::sim {

std::size_t Simulator::run(double until) {
  std::size_t executed = 0;
  // The action is moved out before it runs, so it may schedule further
  // events (including at equal time).
  while (!queue_.empty() && queue_.top().when <= until) {
    auto event = queue_.pop();
    now_ = event.when;
    event.payload();
    ++executed;
  }
  if (until != kForever && now_ < until && queue_.empty()) now_ = until;
  return executed;
}

}  // namespace harvest::sim
