// The benchmark's own statistics: percentiles, the tail rule, the goodput
// ladder rule and failure accounting. Header-only and free of Mirage
// dependencies so stats_test.cpp can check every rule on synthetic inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 when empty.
/// 1-based nearest rank of the p-th percentile among n samples. The
/// epsilon keeps p*n/100 that is an integer in exact arithmetic (99.9% of
/// 10000) from rounding up one rank in floating point.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 0.0)), 1, n);
}

inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p) - 1];
}

inline double median(const std::vector<double>& samples) { return percentile(samples, 50.0); }

/// A reported tail: which percentile it is, its value and the sample count.
struct Tail {
  double pct = 0.0;  ///< 100 means "maximum" (too few samples for a percentile)
  double value = 0.0;
  std::size_t samples = 0;
};

/// Samples strictly above the nearest-rank p-th percentile position.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// The highest percentile of a fixed ladder that keeps at least
/// `min_beyond` samples beyond it. With too few samples for any of them
/// the tail is the maximum, reported as percentile 100.
inline Tail tail(const std::vector<double>& samples, std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  for (const double p : kLadder) {
    if (samples_beyond(samples.size(), p) >= min_beyond) {
      t.pct = p;
      t.value = percentile(samples, p);
      return t;
    }
  }
  t.pct = 100.0;
  t.value = *std::max_element(samples.begin(), samples.end());
  return t;
}

/// Per-window p50 and tail over consecutive windows of `per_window`
/// requests (in due-time order), then the median of each over windows, so
/// a transient stall of a shared host moves a few windows, not the figure.
/// A trailing partial window is folded into the one before it. The tail is
/// the highest percentile with ten samples beyond it in a window (p95 at
/// 400 per window). `t` holds each sample's due time.
struct Windowed {
  double p50 = 0.0;
  Tail tail;  ///< pct per window; value = median of window tails; samples = all
  std::size_t windows = 0;
};

inline Windowed windowed(const std::vector<double>& t, const std::vector<double>& v,
                         std::size_t per_window) {
  Windowed w;
  const std::size_t n = std::min(t.size(), v.size());
  if (n == 0 || per_window == 0) return w;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return t[a] < t[b]; });
  const std::size_t windows = std::max<std::size_t>(1, n / per_window);
  std::vector<double> p50s, tails;
  for (std::size_t k = 0; k < windows; ++k) {
    const std::size_t end = k + 1 == windows ? n : (k + 1) * per_window;
    std::vector<double> bin;
    for (std::size_t i = k * per_window; i < end; ++i) bin.push_back(v[order[i]]);
    const Tail bt = tail(bin);
    p50s.push_back(median(bin));
    tails.push_back(bt.value);
    if (k == 0) w.tail.pct = bt.pct;
  }
  w.p50 = median(p50s);
  w.tail.value = median(tails);
  w.tail.samples = n;
  w.windows = windows;
  return w;
}

/// Median over consecutive windows of `per_window` samples of each
/// window's mean (a trailing partial window joins the one before it). For
/// repeated passes whose times are bimodal, where the plain median jumps
/// between the modes as their mix shifts, this moves smoothly with it.
inline double median_of_window_means(const std::vector<double>& v, std::size_t per_window) {
  if (v.empty() || per_window == 0) return 0.0;
  const std::size_t windows = std::max<std::size_t>(1, v.size() / per_window);
  std::vector<double> means;
  for (std::size_t k = 0; k < windows; ++k) {
    const std::size_t end = k + 1 == windows ? v.size() : (k + 1) * per_window;
    double sum = 0.0;
    for (std::size_t i = k * per_window; i < end; ++i) sum += v[i];
    means.push_back(sum / static_cast<double>(end - k * per_window));
  }
  return median(means);
}

/// Least-squares slope of y over x; 0 with fewer than two distinct x.
inline double slope(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

/// One rung of the open-loop ladder as the generator measured it.
struct LadderStep {
  double rate = 0.0;             ///< offered requests per second
  std::vector<double> latency_ms;  ///< due time -> decision, served requests
  std::vector<double> latency_t;   ///< each request's due time since step start (s)
  double start = 0.0;              ///< steady-clock seconds
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< rejected or errored (each is a miss)
  /// (time since step start in s, backlog) sampled at each send; the
  /// backlog counts requests in flight plus those due but not yet sent.
  std::vector<double> depth_t, depth;
};

/// Backlog grows when outstanding requests rise faster than this share of
/// the offered rate over the step: a system below capacity oscillates
/// around a flat depth (batching makes a sawtooth), one above it climbs
/// at (offered - capacity) per second.
inline constexpr double kBacklogGrowthShare = 0.05;

inline bool backlog_growing(const LadderStep& s) {
  return slope(s.depth_t, s.depth) > kBacklogGrowthShare * s.rate;
}

/// A rung passes when every request was served, the p99 of due-to-decision
/// latency is within the SLO, and the backlog is not growing.
inline bool step_passes(const LadderStep& s, double slo_ms) {
  return s.failed == 0 && !s.latency_ms.empty() && percentile(s.latency_ms, 99.0) <= slo_ms &&
         !backlog_growing(s);
}

/// One climb of the goodput ladder from rung `first` (the rungs below it
/// passed on an earlier climb). The climb stops at the first failing rung;
/// a rung fails only when it fails twice running (the retry replaces it),
/// so one transient stall of a shared host does not end the climb.
/// `attempt(i, k)` runs attempt k (0 or 1) of rung i and returns whether it
/// passed. Returns the number of leading rungs that passed.
template <typename Attempt>
std::size_t climb(std::size_t rungs, std::size_t first, Attempt&& attempt) {
  std::size_t i = first;
  while (i < rungs && (attempt(i, 0) || attempt(i, 1))) ++i;
  return i;
}

/// Goodput: the highest ladder rate at which a climb still passed, as the
/// median over `climbs` climbs. The first climb starts at the bottom rung;
/// each later one starts `back` rungs below where the previous one ended.
/// A climb that passes no rung scores `floor_rate`.
template <typename Attempt>
double goodput(const std::vector<double>& rates, double floor_rate, std::size_t climbs,
               std::size_t back, Attempt&& attempt) {
  std::vector<double> results;
  std::size_t passed = 0;
  for (std::size_t c = 0; c < climbs; ++c) {
    const std::size_t first = c == 0 ? 0 : passed - std::min(passed, back);
    passed = climb(rates.size(), first, [&](std::size_t i, int k) { return attempt(c, i, k); });
    results.push_back(passed == 0 ? floor_rate : rates[passed - 1]);
  }
  return median(results);
}

/// Operation accounting behind fail_frac: every attempted operation that
/// was rejected, raised an error, or produced an output that did not
/// match its reference counts once as failed.
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errored = 0;
  std::uint64_t mismatched = 0;

  std::uint64_t failed() const { return rejected + errored + mismatched; }
  double fail_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(attempted);
  }
  /// Outputs are correct only when nothing errored or mismatched its
  /// reference; rejections are load shedding, a miss but not a wrong answer.
  bool correct() const { return mismatched == 0 && errored == 0; }
  OpCounts& operator+=(const OpCounts& o) {
    attempted += o.attempted;
    rejected += o.rejected;
    errored += o.errored;
    mismatched += o.mismatched;
    return *this;
  }
};

}  // namespace perfbench
