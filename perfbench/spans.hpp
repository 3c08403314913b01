// In-memory spans recorded by the benchmark around its calls into each
// Mirage layer (the program itself is not instrumented here). A span has a
// layer, a name, start/end on the steady clock, the span that caused it
// and the request it belongs to; spans of one request share its id. The
// buffer is written out as Chrome-trace JSON when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

struct Span {
  const char* layer = "";
  const char* name = "";
  double t0 = 0.0;  ///< steady-clock seconds
  double t1 = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< 0 = not part of a request
  std::uint32_t tid = 0;
};

/// Spans are recorded only while enabled (the traced run); disabled, a
/// ScopedSpan costs one relaxed load.
void set_tracing(bool on);
bool tracing();

/// Record a finished span explicitly (e.g. a request measured from its due
/// time on another thread). Returns its id (0 when tracing is off).
std::uint64_t record_span(const char* layer, const char* name, double t0, double t1,
                          std::uint64_t parent = 0, std::uint64_t request = 0);

/// RAII span around one call; nested ScopedSpans on a thread become its
/// children. `sampled` = false records nothing (per-request sampling).
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name, std::uint64_t request = 0, bool sampled = true);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  std::uint64_t saved_parent_ = 0;
};

/// Copy of every span recorded so far, and how many were dropped because
/// the buffer was full.
std::vector<Span> spans_snapshot();
std::uint64_t spans_dropped();
void clear_spans();

/// Per-layer self time in seconds: each span's duration minus the part
/// covered by its child spans, summed by layer.
std::map<std::string, double> self_seconds_by_layer(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" slices; args carry id/parent/request) with
/// `metadata` (a JSON object) under "otherData".
std::string to_chrome_json(const std::vector<Span>& spans, const std::string& metadata);

}  // namespace perfbench
