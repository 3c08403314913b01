// Self-test of the benchmark's statistics on synthetic inputs: the tail
// rule, the goodput ladder rule and failure accounting. Exit code 0 when
// every check holds.
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

perfbench::LadderStep step(double rate, double latency_ms, double depth_growth_per_s,
                           std::uint64_t failed = 0) {
  perfbench::LadderStep s;
  s.rate = rate;
  s.attempted = 1000;
  s.failed = failed;
  for (int i = 0; i < 1000; ++i) {
    const double t = i / 1000.0;
    s.latency_ms.push_back(latency_ms);
    s.depth_t.push_back(t);
    // Batching sawtooth of amplitude 64 on top of the trend.
    s.depth.push_back(static_cast<double>(i % 50) * 64.0 / 50.0 + depth_growth_per_s * t);
  }
  return s;
}

void test_percentile_and_tail() {
  using perfbench::percentile;
  using perfbench::tail;
  check(percentile(iota(100), 50.0) == 50.0, "p50 of 1..100 is 50 (nearest rank)");
  check(percentile(iota(100), 99.0) == 99.0, "p99 of 1..100 is 99");
  check(percentile({}, 99.0) == 0.0, "percentile of nothing is 0");

  // 1000 samples: 10 lie beyond p99 (rank 990), 1 beyond p99.9.
  const auto t1000 = tail(iota(1000));
  check(t1000.pct == 99.0 && t1000.value == 990.0 && t1000.samples == 1000,
        "1000 samples -> p99 is the highest percentile with 10 beyond");
  // 999 samples: p99 rank is ceil(989.01) = 990 -> only 9 beyond; p95 has 49.
  check(tail(iota(999)).pct == 95.0, "999 samples -> falls back to p95");
  // 10000 samples: p99.9 rank 9990 -> exactly 10 beyond.
  check(tail(iota(10000)).pct == 99.9, "10000 samples -> p99.9");
  // 20 samples: p50 has exactly 10 beyond; p75 only 5.
  check(tail(iota(20)).pct == 50.0, "20 samples -> p50");
  // Too few for any percentile: the maximum, flagged as percentile 100.
  const auto t5 = tail({3.0, 9.0, 1.0, 4.0, 2.0});
  check(t5.pct == 100.0 && t5.value == 9.0, "5 samples -> maximum");
}

void test_windowed() {
  // Four windows of 400 requests; one window is a stall 100x slower.
  std::vector<double> t, v;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 400; ++i) {
      t.push_back(w + i / 400.0);
      v.push_back((w == 2 ? 100.0 : 1.0) * (1 + i % 100));
    }
  }
  const auto r = perfbench::windowed(t, v, 400);
  check(r.windows == 4 && r.tail.samples == 1600, "four windows over all samples");
  check(r.tail.pct == 95.0, "400 samples per window support p95");
  check(r.p50 == 50.0 && r.tail.value == 95.0, "a stalled window moves neither median");
  // A trailing partial window joins the last full one; order follows due time.
  t.insert(t.begin(), 4.5);
  v.insert(v.begin(), 1000.0);
  const auto r2 = perfbench::windowed(t, v, 400);
  check(r2.windows == 4 && r2.tail.samples == 1601, "partial window folded into the last");
  check(perfbench::windowed({0.0, 1.0}, {5.0, 7.0}, 400).tail.pct == 100.0,
        "fewer samples than a window: one window, its maximum");
}

void test_window_means() {
  // Passes alternating between two modes: the plain median sits on one
  // mode, the window means sit between them.
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i % 2 ? 30.0 : 20.0);
  check(perfbench::median_of_window_means(v, 10) == 25.0, "window means smooth two modes");
  v.push_back(1000.0);  // partial window folds into the last full one
  check(perfbench::median_of_window_means(v, 10) == 25.0, "one outlier moves one window only");
  check(perfbench::median_of_window_means({4.0, 6.0}, 10) == 5.0, "short input: one window");
}

void test_goodput_ladder() {
  const double slo = 250.0;
  // Flat backlog (sawtooth only) passes; growth above 5% of the rate fails.
  check(!perfbench::backlog_growing(step(1000, 5, 0)), "sawtooth is not a growing backlog");
  check(!perfbench::backlog_growing(step(1000, 5, 30)), "3% growth is within the tolerance");
  check(perfbench::backlog_growing(step(1000, 5, 80)), "8% growth is a growing backlog");

  check(perfbench::step_passes(step(700, 30, 0), slo), "a healthy rung passes");
  check(!perfbench::step_passes(step(600, 300, 0), slo), "p99 over the SLO fails a rung");
  check(perfbench::step_passes(step(500, slo, 0), slo), "p99 == SLO passes (inclusive)");
  check(!perfbench::step_passes(step(600, 5, 0, /*failed=*/1), slo),
        "a single rejection fails a rung");
  check(!perfbench::step_passes(step(800, 40, 200), slo), "a growing backlog fails a rung");

  // climb(): rung outcomes per attempt; the climb stops at the first rung
  // that fails both attempts and reports how many leading rungs passed.
  using Outcomes = std::vector<std::vector<bool>>;
  const auto run_climb = [](const Outcomes& o, std::size_t first, int* calls = nullptr) {
    return perfbench::climb(o.size(), first, [&](std::size_t i, int k) {
      if (calls) ++*calls;
      return static_cast<bool>(o[i][static_cast<std::size_t>(k)]);
    });
  };
  int calls = 0;
  check(run_climb({{1, 1}, {1, 1}, {1, 1}, {0, 0}, {1, 1}}, 0, &calls) == 3 && calls == 5,
        "a climb stops at the first failing rung and runs nothing after it");
  check(run_climb({{1, 1}, {0, 1}, {1, 1}, {0, 0}, {1, 1}}, 0) == 3,
        "a rung that passes on its retry counts as passed");
  check(run_climb({{0, 0}, {1, 1}}, 0) == 0, "first rung failing passes nothing");
  check(run_climb({{1, 1}, {1, 1}, {1, 1}}, 0) == 3, "all pass: every rung");
  check(run_climb({{0, 0}, {0, 0}, {1, 1}, {0, 0}}, 2) == 3, "a later climb starts at `first`");

  // goodput(): median over climbs; later climbs restart `back` rungs lower.
  const std::vector<double> rates = {600, 700, 800, 900, 1000, 1100};
  // Capacity per climb: rungs below it pass, the rest fail.
  const std::vector<double> capacity = {1000, 800, 900};
  std::vector<std::size_t> firsts;
  const double g = perfbench::goodput(rates, 500, 3, 2, [&](std::size_t c, std::size_t i, int k) {
    if (k == 0 && (firsts.size() == c)) firsts.push_back(i);
    return rates[i] <= capacity[c];
  });
  check(g == 900.0, "goodput is the median of the climbs' results");
  check(firsts.size() == 3 && firsts[0] == 0 && firsts[1] == 3 && firsts[2] == 1,
        "each later climb starts `back` rungs below the previous result");
  check(perfbench::goodput(rates, 500, 1, 2, [](std::size_t, std::size_t, int) {
          return false;
        }) == 500.0,
        "a climb passing nothing scores the floor rate");
}

void test_fail_counting() {
  perfbench::OpCounts c;
  check(c.fail_frac() == 0.0 && c.correct(), "nothing attempted: no failures, correct");
  c.attempted = 200;
  c.rejected = 3;
  check(c.failed() == 3 && c.fail_frac() == 0.015 && c.correct(),
        "rejections count as failures but not as wrong outputs");
  c.mismatched = 1;
  check(c.failed() == 4 && c.fail_frac() == 0.02 && !c.correct(),
        "a mismatch counts and makes the run incorrect");
  perfbench::OpCounts d;
  d.attempted = 100;
  d.errored = 1;
  c += d;
  check(c.attempted == 300 && c.failed() == 5 && !d.correct(),
        "errors count, sum across phases and make a phase incorrect");
}

}  // namespace

int main() {
  test_percentile_and_tail();
  test_windowed();
  test_window_means();
  test_goodput_ladder();
  test_fail_counting();
  if (g_failures == 0) std::printf("perfbench_stats_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
