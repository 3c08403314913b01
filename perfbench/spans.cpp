#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace {

// Enough for a sampled serve run plus every layer probe; beyond it spans
// are counted as dropped rather than growing memory without bound.
constexpr std::size_t kMaxSpans = 1u << 19;

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};
std::atomic<std::uint64_t> g_dropped{0};
std::mutex g_mutex;
std::vector<Span> g_spans;  // guarded by g_mutex

thread_local std::uint64_t t_current = 0;

std::uint32_t thread_id() {
  thread_local const std::uint32_t tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void push(const Span& s) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_spans.size() >= kMaxSpans) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  g_spans.push_back(s);
}

}  // namespace

void set_tracing(bool on) {
  if (on) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_spans.reserve(kMaxSpans);
  }
  g_on.store(on, std::memory_order_relaxed);
}

bool tracing() { return g_on.load(std::memory_order_relaxed); }

std::uint64_t record_span(const char* layer, const char* name, double t0, double t1,
                          std::uint64_t parent, std::uint64_t request) {
  if (!tracing()) return 0;
  Span s;
  s.layer = layer;
  s.name = name;
  s.t0 = t0;
  s.t1 = t1;
  s.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  s.parent = parent;
  s.request = request;
  s.tid = thread_id();
  push(s);
  return s.id;
}

ScopedSpan::ScopedSpan(const char* layer, const char* name, std::uint64_t request,
                       bool sampled) {
  if (!sampled || !tracing()) return;
  span_.layer = layer;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_current;
  span_.request = request;
  span_.tid = thread_id();
  saved_parent_ = t_current;
  t_current = span_.id;
  span_.t0 = now_s();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  span_.t1 = now_s();
  t_current = saved_parent_;
  push(span_);
}

std::vector<Span> spans_snapshot() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

std::uint64_t spans_dropped() { return g_dropped.load(std::memory_order_relaxed); }

void clear_spans() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.clear();
  g_dropped.store(0, std::memory_order_relaxed);
}

std::map<std::string, double> self_seconds_by_layer(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, double> child_time;
  for (const auto& s : spans) {
    if (s.parent != 0) child_time[s.parent] += s.t1 - s.t0;
  }
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    const auto it = child_time.find(s.id);
    const double children = it == child_time.end() ? 0.0 : it->second;
    out[s.layer] += std::max(0.0, (s.t1 - s.t0) - children);
  }
  return out;
}

std::string to_chrome_json(const std::vector<Span>& spans, const std::string& metadata) {
  double origin = spans.empty() ? 0.0 : spans.front().t0;
  for (const auto& s : spans) origin = std::min(origin, s.t0);
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                  i ? "," : "", s.name, s.layer, (s.t0 - origin) * 1e6, (s.t1 - s.t0) * 1e6,
                  s.tid, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata << "}\n";
  return out.str();
}

}  // namespace perfbench
