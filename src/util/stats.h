// Streaming statistics used by the Monte-Carlo harness and benches.
#pragma once

#include <cstddef>

namespace lcrb {

/// Numerically-stable streaming mean/variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 when fewer than 2 samples.
  double variance() const;
  double stddev() const;
  /// Standard error of the mean; 0 when fewer than 2 samples.
  double stderr_mean() const;
  /// Half-width of the normal-approximation 95% confidence interval.
  double ci95_halfwidth() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace lcrb
