#include "core/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/status.hpp"

namespace harvest::core {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Percentiles::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double nearest_rank(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size() - 1)));
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Percentiles::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0.0) {
  HARVEST_CHECK_MSG(hi > lo && bins > 0, "histogram needs hi>lo and bins>0");
}

void Histogram::add(double x, double weight) {
  if (std::isnan(x)) return;  // un-binnable; casting NaN to int is UB
  // Compare in the double domain before converting: the old
  // static_cast truncated toward zero, which folded underflow samples
  // in (lo - width, lo) into bin 0 as if they were in range, and a
  // float→int cast of a huge or infinite quotient is UB.
  const double pos = (x - lo_) / width_;
  std::size_t idx;
  if (pos < 0.0) {
    idx = 0;
    underflow_ += weight;
  } else if (pos >= static_cast<double>(counts_.size())) {
    idx = counts_.size() - 1;
    overflow_ += weight;
  } else {
    idx = static_cast<std::size_t>(pos);
  }
  counts_[idx] += weight;
  total_ += weight;
}

double Histogram::bin_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }
double Histogram::bin_hi(std::size_t i) const { return bin_lo(i) + width_; }

double Histogram::density(std::size_t i) const {
  if (total_ <= 0.0) return 0.0;
  return counts_[i] / total_ / width_;
}

double Histogram::mode() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < counts_.size(); ++i) {
    if (counts_[i] > counts_[best]) best = i;
  }
  return bin_lo(best) + width_ * 0.5;
}

std::string Histogram::ascii(std::size_t max_width) const {
  double peak = 0.0;
  for (double c : counts_) peak = std::max(peak, c);
  std::string out;
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar_len = peak > 0.0
        ? static_cast<std::size_t>(counts_[i] / peak * static_cast<double>(max_width))
        : 0;
    std::snprintf(line, sizeof(line), "  [%9.1f, %9.1f) %8.0f |", bin_lo(i),
                  bin_hi(i), counts_[i]);
    out += line;
    out.append(bar_len, '#');
    out += '\n';
  }
  return out;
}

}  // namespace harvest::core
