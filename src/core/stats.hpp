#pragma once

/// \file stats.hpp
/// Statistics primitives for the characterization harness: running
/// moments, exact percentile estimation over retained samples, and
/// fixed-bin histograms (used e.g. to reproduce the image-size density
/// plots of Fig. 4).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace harvest::core {

/// Numerically stable (Welford) running mean/variance with min/max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return count_ ? mean_ * static_cast<double>(count_) : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Retains every sample; provides exact order statistics. Suitable for
/// per-run latency distributions (≤ millions of samples).
class Percentiles {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { samples_.reserve(n); }
  std::size_t count() const { return samples_.size(); }

  /// Exact quantile via linear interpolation between closest ranks.
  /// q in [0,1]; returns 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double mean() const;
  double min() const { return quantile(0.0); }
  double max() const { return quantile(1.0); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Nearest-rank quantile of ascending-sorted samples: the sample at
/// index ceil(q·(n−1)), no interpolation. Returns 0 when empty.
double nearest_rank(std::span<const double> sorted, double q);

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples clamp to
/// the edge bins so mass is never silently dropped, and the clamped mass
/// is additionally tracked via underflow_mass()/overflow_mass(). NaN
/// samples are discarded (they have no meaningful bin).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0);
  std::size_t bin_count() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  double bin_mass(std::size_t i) const { return counts_[i]; }
  double total_mass() const { return total_; }

  /// Mass clamped into the first bin from samples below `lo`.
  double underflow_mass() const { return underflow_; }
  /// Mass clamped into the last bin from samples at or above `hi`.
  double overflow_mass() const { return overflow_; }

  /// Density (mass fraction / bin width) of bin i; 0 if empty histogram.
  double density(std::size_t i) const;

  /// Midpoint of the bin holding the most mass — the "most common image
  /// size" annotation in Fig. 4.
  double mode() const;

  /// Compact ASCII rendering (one row per bin with a bar), for benches.
  std::string ascii(std::size_t max_width = 40) const;

 private:
  double lo_, hi_, width_;
  std::vector<double> counts_;
  double total_ = 0.0;
  double underflow_ = 0.0;
  double overflow_ = 0.0;
};

}  // namespace harvest::core
