// Summary statistics and the result digest used by the benchmark program.
//
// Quartiles follow Python's statistics.quantiles(data, n=4) (the default
// "exclusive" method), so a spread perfbench prints is the spread a
// reader recomputes from the per-run values.  The tail rule reports a
// percentile only while at least ten samples lie beyond it.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// First, second and third quartile with Python's "exclusive" method.
/// Requires at least two samples.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  constexpr long n = 4;
  std::array<double, 3> out{};
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return out;
}

/// Inter-quartile distance as a share of the median; 0 below two samples.
inline double iqr_share(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const auto q = quartiles(v);
  const double med = median(v);
  return med == 0.0 ? 0.0 : (q[2] - q[0]) / std::fabs(med);
}

/// Samples lying strictly above the p-th percentile position of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double above = static_cast<double>(n) * (1.0 - p / 100.0);
  return static_cast<std::size_t>(std::floor(above + 1e-9));
}

/// Linear-interpolation percentile (p in [0, 100]) of a non-empty sample.
inline double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The p-th percentile, only if at least ten samples lie beyond it.
inline std::optional<double> tail_percentile(const std::vector<double>& v,
                                             double p) {
  if (v.empty() || samples_beyond(v.size(), p) < 10) return std::nullopt;
  return percentile(v, p);
}

/// Order-sensitive FNV-1a fold of result scalars, hashes and counters.
/// Doubles fold by bit pattern, so any change in any digit shows.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
