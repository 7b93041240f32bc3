// Small helpers shared by the servebench driver, its replay and its
// self-tests: clocks, the percentile rule, response hashing, and the
// metric list the driver prints.
#ifndef SERVEBENCH_COMMON_H_
#define SERVEBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, or nullopt when
/// fewer than ten samples lie beyond it: a tail percentile is reported only
/// where the sample supports it. The median needs ten samples on each side.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double p) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  if (rank == 0) rank = 1;
  if (n - rank < 10 || rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median of any non-empty sample (no tail rule; used for repeated
/// set-up and restart timings).
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// FNV-1a over a response line; the oracle compares these digests so the
/// driver need not keep every response body.
inline uint64_t HashBytes(const char* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}
inline uint64_t HashBytes(const std::string& s) {
  return HashBytes(s.data(), s.size());
}

/// Capacity-phase throughput: ok responses over *wall* seconds. Taking CPU
/// time here instead would repeat an old bench defect (a client thread
/// that mostly waits reads as enormously fast).
inline double ThroughputRps(uint64_t ok_responses, Clock::time_point start,
                            Clock::time_point end) {
  const double wall = SecondsBetween(start, end);
  return wall > 0 ? static_cast<double>(ok_responses) / wall : 0.0;
}

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

}  // namespace servebench

#endif  // SERVEBENCH_COMMON_H_
