// Summary statistics the ledger reports. Empty inputs summarize to 0 so a
// layer that did no work on a workload reads as zero, not as NaN.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

namespace perfbench {

inline double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

inline double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

inline double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// \brief Linear-interpolated quantile, q in [0, 1].
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// \brief The highest percentile with at least ten samples beyond it: the
/// 11th-largest value, at percentile 100 * (n - 10) / n. With ten samples
/// or fewer it is the maximum and fewer than ten lie beyond.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t beyond = 0;
};

inline Tail TailOf(std::vector<double> v) {
  Tail tail;
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  tail.beyond = n > 10 ? 10 : 0;
  tail.value = v[n - 1 - tail.beyond];
  tail.percentile =
      100.0 * static_cast<double>(n - tail.beyond) / static_cast<double>(n);
  return tail;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
