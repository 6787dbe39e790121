// Unit checks for the benchmark's own statistics: median, quartiles (against
// values Python's statistics.quantiles(data, n=4) gives), the "ten samples
// beyond" percentile rule and the sim_digest fold.  Exits non-zero on the
// first failed check; run.py runs it before every benchmark run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> range(int lo, int hi) {
  std::vector<double> v;
  for (int i = lo; i <= hi; ++i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  expect(near(median({3, 1, 2}), 2.0), "median of an odd sample");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of an even sample");
  expect(median({}) == 0.0, "median of an empty sample");

  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  auto q = quartiles(range(1, 10));
  expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25),
         "quartiles of 1..10");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = quartiles({2, 1});
  expect(near(q[0], 0.75) && near(q[1], 1.5) && near(q[2], 2.25),
         "quartiles of two samples (clamped)");
  // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
  q = quartiles({5, 1, 4, 2, 3});
  expect(near(q[0], 1.5) && near(q[1], 3.0) && near(q[2], 4.5),
         "quartiles of an unsorted odd sample");
  expect(near(iqr_share(range(1, 10)), (8.25 - 2.75) / 5.5), "iqr share");
  expect(iqr_share({7}) == 0.0, "iqr share of one sample");

  expect(samples_beyond(40, 75) == 10, "40 samples: 10 beyond p75");
  expect(samples_beyond(39, 75) == 9, "39 samples: 9 beyond p75");
  expect(samples_beyond(20, 50) == 10, "20 samples: 10 beyond p50");
  expect(!tail_percentile(range(1, 39), 75).has_value(),
         "p75 withheld below 40 samples");
  const auto p75 = tail_percentile(range(1, 40), 75);
  expect(p75.has_value() && near(*p75, 30.25), "p75 of 1..40");
  expect(!tail_percentile({}, 50).has_value(), "no percentile of nothing");
  expect(near(percentile({1, 2, 3, 4, 5}, 50), 3.0), "percentile midpoint");

  Digest empty;
  expect(empty.value() == 0xcbf29ce484222325ULL, "digest starts at FNV basis");
  Digest a;
  a.add_bytes("a", 1);
  expect(a.value() == 0xaf63dc4c8601ec8cULL, "FNV-1a of \"a\"");
  Digest x, y;
  x.add(std::uint64_t{1});
  x.add(std::uint64_t{2});
  y.add(std::uint64_t{2});
  y.add(std::uint64_t{1});
  expect(x.value() != y.value(), "digest is order-sensitive");
  Digest pz, nz;
  pz.add(0.0);
  nz.add(-0.0);
  expect(pz.value() != nz.value(), "digest folds doubles by bit pattern");
  Digest s1, s2;
  s1.add(std::string_view("ab"));
  s1.add(std::string_view("c"));
  s2.add(std::string_view("a"));
  s2.add(std::string_view("bc"));
  expect(s1.value() != s2.value(), "digest length-prefixes strings");

  if (failures == 0) std::puts("perfbench_selftest: all checks passed");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
