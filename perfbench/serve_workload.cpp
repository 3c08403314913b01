// Open-loop serve workloads against serve::ProvisioningService.
//
// One generator thread sends requests at seeded Poisson times; each request
// is `observes` calls to observe() on one session plus one pooled async
// decide. A collector thread waits on the decisions in send order (the
// engine serves its ring FIFO, so in-order waiting loses no precision) and
// times each one from its due time, so a stall also counts against the
// requests queued behind it. A phase at the nominal rate gives the latency
// figures; a fixed ladder of rising rates then gives goodput, stopping at
// the first rung that fails.
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/checkpoint.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "util/wal.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using mirage::serve::AsyncDecision;
using mirage::serve::Decision;
using mirage::serve::ProvisioningService;
using mirage::serve::SessionId;
using SubmitResult = mirage::serve::BatchedInferenceEngine::SubmitResult;

/// The service's own default latency objective (ServiceSloConfig).
const double kSloMs = mirage::serve::ServiceSloConfig{}.latency_target_seconds * 1e3;

struct ServeParams {
  const char* tag;
  // Checkpoint shape (Top-1 MoE-DQN).
  std::size_t k, d_model, experts;
  std::size_t cold_sessions;  ///< opened at set-up, observed once, never touched again
  std::size_t hot_sessions;   ///< the sessions traffic addresses
  std::size_t observes;       ///< observe() calls per decide
  std::size_t churn_every;    ///< close + reopen the session every N requests (0 = never)
  bool journal;
  double ttl_s;               ///< 0 = no eviction
  double nominal_rate;
  double nominal_share;       ///< share of --seconds spent at the nominal rate
  double ladder_start, ladder_factor;
  double step_share;          ///< share of --seconds per ladder rung (0 = no ladder)
  std::size_t check_every;    ///< compare every Nth decision with ServableModel::infer
  std::size_t restart_checks; ///< sessions compared across the warm restart
  std::size_t setups;         ///< set-ups timed; the last one is measured
};

// serve-real: the NN forward is the bottleneck. The nominal rate is about a
// third of its capacity on a 4-vCPU host, where queueing barely amplifies
// host noise; the ladder starts near two thirds of it.
const ServeParams kReal{"serve-real", 24, 32, 8, 0, 4000, 1, 0, false, 0.0,
                        500.0, 0.4, 900.0, 1.05, 0.04, 32, 0, 3};
// serve-journal: a forward that is nearly free, 100k sessions, write-heavy
// traffic with churn, and a journal at the serving sync level. The 97k
// cold sessions reach their 2 s TTL early in the nominal phase, so the
// eviction sweep lands there on every run. Hot sessions are visited
// round-robin: at 4000/s or more each is touched every 0.75 s or sooner,
// well within the TTL.
const ServeParams kJournal{"serve-journal", 4, 8, 2, 97000, 3000, 3, 16, true, 2.0,
                           4000.0, 0.4, 16000.0, 1.05, 0.04, 0, 64, 3};
// The probe other workloads run for the serve, wal and restart layers.
// The probe other workloads run for the serve, wal and restart layers. Its
// 200 hot sessions are touched every 0.1 s, so only the 2000 cold ones
// reach the 1 s TTL, within the 1.5 s phase (at --seconds 10).
const ServeParams kProbe{"serve-probe", 4, 8, 2, 2000, 200, 3, 16, true, 1.0,
                         2000.0, 0.15, 0.0, 1.0, 0.0, 16, 32, 1};

constexpr std::uint64_t kModelSeed = 7;

/// Seeded pool of cluster snapshots the generator replays into sessions.
struct SamplePool {
  std::vector<mirage::sim::StateSample> samples;
  std::vector<mirage::rl::JobPairContext> contexts;
};

SamplePool make_samples(std::uint64_t seed, std::size_t n) {
  mirage::util::Rng rng(seed ^ 0x5a3b1e5ull);
  SamplePool pool;
  for (std::size_t i = 0; i < n; ++i) {
    mirage::sim::StateSample s;
    s.now = rng.uniform_int(0, 30 * mirage::util::kDay);
    s.total_nodes = 76;
    s.free_nodes = static_cast<std::int32_t>(rng.uniform_int(0, 76));
    s.partition_total = {76};
    s.partition_free = {s.free_nodes};
    const auto queued = rng.uniform_int(0, 40);
    for (std::int64_t q = 0; q < queued; ++q) {
      s.queued_sizes.push_back(static_cast<double>(rng.uniform_int(1, 16)));
      s.queued_ages.push_back(rng.uniform(0.0, 2 * 86400.0));
      s.queued_limits.push_back(rng.uniform(3600.0, 48 * 3600.0));
    }
    const auto running = rng.uniform_int(0, 40);
    for (std::int64_t r = 0; r < running; ++r) {
      s.running_sizes.push_back(static_cast<double>(rng.uniform_int(1, 16)));
      s.running_elapsed.push_back(rng.uniform(0.0, 86400.0));
      s.running_limits.push_back(rng.uniform(3600.0, 48 * 3600.0));
    }
    mirage::rl::JobPairContext c;
    c.pred_nodes = static_cast<std::int32_t>(rng.uniform_int(1, 8));
    c.pred_wait = rng.uniform_int(0, 12 * mirage::util::kHour);
    c.pred_elapsed = rng.uniform_int(0, 24 * mirage::util::kHour);
    c.succ_nodes = c.pred_nodes;
    pool.samples.push_back(std::move(s));
    pool.contexts.push_back(c);
  }
  return pool;
}

bool same_decision(const Decision& a, const Decision& b) {
  return a.action == b.action &&
         std::memcmp(&a.score_wait, &b.score_wait, sizeof(float)) == 0 &&
         std::memcmp(&a.score_submit, &b.score_submit, sizeof(float)) == 0;
}

/// Everything one set-up builds: checkpoint, registry, service, sessions.
struct ServeSetup {
  std::unique_ptr<mirage::serve::ModelRegistry> registry;
  mirage::serve::ModelKey key;
  mirage::serve::ServiceConfig config;
  std::unique_ptr<ProvisioningService> service;
  std::vector<SessionId> hot;
};

mirage::nn::FoundationConfig net_of(const ServeParams& p) {
  mirage::nn::FoundationConfig net;
  net.history_len = p.k;
  net.state_dim = mirage::rl::kFrameDim;
  net.d_model = p.d_model;
  net.moe_experts = p.experts;
  net.moe_top1 = true;
  return net;
}

/// Build the serving stack and warm it: checkpoint save and registry load,
/// service start, session open and history fill, then a burst of decisions
/// that spawns the GEMM pool and fills the completion-token pool.
ServeSetup set_up(const ServeParams& p, const SamplePool& pool, const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  ServeSetup s;
  const auto net = net_of(p);
  {
    mirage::rl::DqnConfig cfg;
    cfg.foundation = mirage::nn::FoundationType::kMoE;
    cfg.net = net;
    // A fixed checkpoint, as in production: the seed varies the traffic,
    // not the model (whose Top-1 routing would change the forward's cost).
    mirage::rl::DqnAgent agent(cfg, kModelSeed);
    if (!mirage::core::save_agent(agent, dir + "/bench__moe_dqn.ckpt")) {
      throw std::runtime_error("cannot write checkpoint under " + dir);
    }
  }
  mirage::serve::RegistryConfig reg_cfg;
  reg_cfg.net_defaults = net;
  s.registry = std::make_unique<mirage::serve::ModelRegistry>(reg_cfg);
  const auto load = s.registry->load_file(dir + "/bench__moe_dqn.ckpt", "bench");
  if (!load.ok) throw std::runtime_error("registry load failed: " + load.error);
  s.key = load.key;

  s.config.history_len = p.k;
  s.config.session_ttl_seconds = p.ttl_s;
  // One GEMM thread: the forward runs on the engine thread without pool
  // hand-offs, which measured far steadier on a shared host, and leaves
  // the other hardware threads to the generator and collector.
  s.config.engine.nn_threads = 1;
  if (p.journal) {
    s.config.wal.dir = dir + "/journal";
    s.config.wal.restore = false;
  }
  s.service = std::make_unique<ProvisioningService>(*s.registry, s.key, s.config);
  s.service->start();

  std::size_t next = 0;
  const auto fill = [&](SessionId id, std::size_t frames) {
    for (std::size_t f = 0; f < frames; ++f, ++next) {
      s.service->observe(id, pool.samples[next % pool.samples.size()],
                         pool.contexts[next % pool.contexts.size()]);
    }
  };
  for (std::size_t i = 0; i < p.cold_sessions; ++i) fill(s.service->open_session(), 1);
  s.hot.reserve(p.hot_sessions);
  for (std::size_t i = 0; i < p.hot_sessions; ++i) {
    s.hot.push_back(s.service->open_session());
    fill(s.hot.back(), p.k);
  }
  // Warm-up burst: 4 full batches in flight at once.
  std::vector<AsyncDecision> burst(256);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    if (s.service->try_decide_async(s.hot[i % s.hot.size()], burst[i]) != SubmitResult::kOk) {
      throw std::runtime_error("warm-up decision rejected");
    }
  }
  for (auto& d : burst) d.get();
  return s;
}

/// A request in flight, handed from the generator to the collector.
struct Pending {
  AsyncDecision decision;
  double due = 0.0;
  std::size_t phase = 0;
  std::int64_t check = -1;      ///< index into the sampled-check table
  std::uint64_t request = 0;    ///< span request id (0 = not traced)
  std::uint64_t span = 0;       ///< generator-side request span
};

class Collector {
 public:
  Collector(std::vector<LadderStep>& phases, std::size_t max_checks)
      : checked(max_checks), phases_(phases) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Collector() { stop(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(Pending&& p) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(p));
    }
    cv_.notify_one();
  }
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }
  std::uint64_t completed() const { return completed_.load(std::memory_order_acquire); }
  std::uint64_t errored() const { return errored_.load(std::memory_order_relaxed); }
  /// Sampled decisions by check index (written before `completed` bumps).
  std::vector<Decision> checked;

 private:
  void loop() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      try {
        const Decision d = p.decision.get();
        const double done = now_s();
        LadderStep& step = phases_[p.phase];
        step.latency_ms.push_back((done - p.due) * 1e3);
        step.latency_t.push_back(p.due - step.start);
        if (p.check >= 0) checked[static_cast<std::size_t>(p.check)] = d;
        if (p.request != 0) record_span("serve", "decide", p.due, done, p.span, p.request);
      } catch (...) {
        errored_.fetch_add(1, std::memory_order_relaxed);
      }
      completed_.fetch_add(1, std::memory_order_release);
    }
  }

  std::vector<LadderStep>& phases_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;  // guarded by mutex_
  bool stopping_ = false;      // guarded by mutex_
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> errored_{0};
  std::thread thread_;  // last: started after every member it uses
};

void sleep_until_s(double t) {
  for (;;) {
    const double left = t - now_s();
    if (left <= 0) return;
    if (left > 300e-6) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left - 150e-6));
    } else {
      std::this_thread::yield();
    }
  }
}

/// Timings the generator takes around each call into the service.
struct CallTimes {
  std::vector<double> observe_us, submit_us, open_us, close_us, late_ms;
};

struct Generator {
  const ServeParams& p;
  const SamplePool& pool;
  ProvisioningService& service;
  std::vector<SessionId>& hot;
  Collector& collector;
  std::vector<LadderStep>& phases;
  CallTimes& times;
  OpCounts& ops;
  std::vector<std::vector<float>>& check_rows;
  std::uint64_t sent = 0;
  std::size_t cursor = 0;   ///< round-robin position over the hot sessions
  std::size_t sample = 0;
  std::uint64_t units = 0;
  double depth_max = 0.0;

  static double timed_us(double t0) { return (now_s() - t0) * 1e6; }

  /// Send at `rate` for `duration` seconds into phase `phase`, then wait
  /// until every request of the phase has been answered.
  void run_phase(std::size_t phase, double rate, double duration, std::uint64_t seed) {
    mirage::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + phase);
    LadderStep& step = phases[phase];
    step = LadderStep{};  // a retried rung starts afresh
    step.rate = rate;
    const double start = now_s();
    step.start = start;
    double due = start;
    for (;;) {
      due += rng.exponential(rate);
      if (due - start > duration) break;
      sleep_until_s(due);
      const double sent_at = now_s();
      times.late_ms.push_back((sent_at - due) * 1e3);
      one_request(phase, due, step);
      // The open loop's backlog: requests in the service plus those due
      // but not yet sent because the generator itself fell behind.
      const double depth = static_cast<double>(sent - collector.completed()) +
                           std::max(0.0, sent_at - due) * rate;
      step.depth_t.push_back(due - start);
      step.depth.push_back(depth);
      depth_max = std::max(depth_max, depth);
    }
    while (collector.completed() < sent) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  void one_request(std::size_t phase, double due, LadderStep& step) {
    const bool traced = tracing() && units % 64 == 0;
    const std::uint64_t request = traced ? units + 1 : 0;
    ++units;
    ScopedSpan span("bench", "request", request, traced);
    SessionId& id = hot[cursor];
    cursor = (cursor + 1) % hot.size();
    try {
      if (p.churn_every != 0 && units % p.churn_every == 0) {
        ops.attempted += 2;
        double t0 = now_s();
        {
          ScopedSpan s("serve", "close_session", request, traced);
          service.close_session(id);
        }
        times.close_us.push_back(timed_us(t0));
        t0 = now_s();
        {
          ScopedSpan s("serve", "open_session", request, traced);
          id = service.open_session();
        }
        times.open_us.push_back(timed_us(t0));
      }
      for (std::size_t o = 0; o < p.observes; ++o, ++sample) {
        ++ops.attempted;
        const double t0 = now_s();
        {
          ScopedSpan s("serve", "observe", request, traced);
          service.observe(id, pool.samples[sample % pool.samples.size()],
                          pool.contexts[sample % pool.contexts.size()]);
        }
        times.observe_us.push_back(timed_us(t0));
      }
      Pending pending;
      pending.due = due;
      pending.phase = phase;
      pending.request = request;
      pending.span = span.id();
      std::vector<float> history;  // the row this decision will be made from
      if (p.check_every != 0 && units % p.check_every == 0 &&
          check_rows.size() < collector.checked.size()) {
        history = service.session_history(id);
      }
      ++ops.attempted;
      ++step.attempted;
      const double t0 = now_s();
      SubmitResult r;
      {
        ScopedSpan s("serve", "submit", request, traced);
        r = service.try_decide_async(id, pending.decision);
      }
      times.submit_us.push_back(timed_us(t0));
      if (r != SubmitResult::kOk) {
        ++ops.rejected;
        ++step.failed;
        return;
      }
      if (!history.empty()) {
        pending.check = static_cast<std::int64_t>(check_rows.size());
        check_rows.push_back(std::move(history));
      }
      ++sent;
      collector.push(std::move(pending));
    } catch (const std::exception&) {
      ++ops.errored;
      ++step.failed;
    }
  }
};

double dir_bytes(const std::string& dir) {
  double total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file()) total += static_cast<double>(e.file_size());
  }
  return total;
}

WorkloadRun run_serve(const ServeParams& p, const RunContext& ctx) {
  WorkloadRun run;
  const SamplePool pool = make_samples(ctx.seed, 512);
  const std::string dir = ctx.workdir + "/" + p.tag;

  // Set up several times; the median is setup_s, the last one is measured.
  std::vector<double> setups;
  ServeSetup s;
  for (std::size_t i = 0; i < p.setups; ++i) {
    // Tear the previous stack down (service before its registry) first.
    s.service.reset();
    s = ServeSetup{};
    const double t0 = now_s();
    ScopedSpan span("bench", "setup");
    s = set_up(p, pool, dir);
    setups.push_back(now_s() - t0);
  }
  run.setup_s = median(setups);
  run.model = s.registry->lookup(s.key);
  run.history_len = p.k;
  ProvisioningService& service = *s.service;

  // Phases: the nominal rate in three slices, then the ladder's rungs.
  // Each climb of the ladder is preceded by one nominal slice, so the
  // latency figures sample the whole run rather than one stretch of it.
  constexpr std::size_t kSlices = 5;
  std::vector<LadderStep> phases(kSlices);
  if (p.step_share > 0) {
    for (double r = p.ladder_start; r < 1e6; r *= p.ladder_factor) {
      phases.emplace_back();
      phases.back().rate = r;
    }
  }
  CallTimes times;
  std::vector<std::vector<float>> check_rows;
  Collector collector(phases, 1 << 16);
  Generator gen{p, pool, service, s.hot, collector, phases, times, run.ops, check_rows};

  const auto before = service.report();
  const double t_begin = now_s();
  const double slice_s = p.nominal_share * ctx.seconds / kSlices;
  std::size_t slices = 0;
  const auto nominal_slice = [&] {
    gen.run_phase(slices, p.nominal_rate, slice_s, ctx.seed + 1000 * slices);
    ++slices;
  };
  nominal_slice();
  // Goodput: the median of five climbs; after the first, each climb
  // restarts three rungs (about 15%) below where the previous one ended.
  std::size_t rungs = 0;
  double goodput = 0.0;
  {
    std::vector<double> rates(p.step_share > 0 ? phases.size() - kSlices : 0);
    for (std::size_t i = 0; i < rates.size(); ++i) rates[i] = phases[kSlices + i].rate;
    goodput = perfbench::goodput(
        rates, 0.0, kSlices, 3, [&](std::size_t climb, std::size_t i, int attempt) {
          while (slices <= climb) nominal_slice();
          ++rungs;
          LadderStep& st = phases[kSlices + i];
          gen.run_phase(kSlices + i, rates[i], p.step_share * ctx.seconds,
                        ctx.seed + 16 * climb + static_cast<std::uint64_t>(attempt));
          const bool ok = step_passes(st, kSloMs);
          std::printf("  climb %zu rung %.0f/s: p99 %.2f ms, backlog slope %.3f x rate, "
                      "%llu failed -> %s\n",
                      climb + 1, st.rate, percentile(st.latency_ms, 99.0),
                      slope(st.depth_t, st.depth) / st.rate,
                      static_cast<unsigned long long>(st.failed), ok ? "pass" : "fail");
          return ok;
        });
  }
  while (slices < kSlices) nominal_slice();
  const double window = now_s() - t_begin;
  const auto after = service.report();
  collector.stop();
  run.ops.errored += collector.errored();

  // Sampled decisions against a direct forward over the same history rows.
  for (std::size_t i = 0; i < check_rows.size(); i += 64) {
    const std::vector<std::vector<float>> rows(
        check_rows.begin() + static_cast<std::ptrdiff_t>(i),
        check_rows.begin() + static_cast<std::ptrdiff_t>(std::min(i + 64, check_rows.size())));
    const auto ref = run.model->infer(rows);
    for (std::size_t j = 0; j < ref.size(); ++j) {
      if (!same_decision(ref[j], collector.checked[i + j])) ++run.ops.mismatched;
    }
  }

  // Warm restart from the journal this run wrote: restored sessions must
  // hold the same history and make the same next decision (restart ==
  // uninterrupted).
  double restart_s = 0.0, journal_records = 0.0, journal_mb = 0.0, recover_rps = 0.0;
  if (p.journal) {
    std::vector<SessionId> ids;
    std::vector<std::vector<float>> histories;
    std::vector<Decision> live;
    for (std::size_t i = 0; i < p.restart_checks && i < s.hot.size(); ++i) {
      ids.push_back(s.hot[(i * 7919) % s.hot.size()]);
      ++run.ops.attempted;
      histories.push_back(service.session_history(ids.back()));
      live.push_back(service.decide(ids.back()));
    }
    service.drain_and_stop();
    s.service.reset();
    auto cfg = s.config;
    cfg.wal.restore = true;
    double t0 = now_s();
    std::unique_ptr<ProvisioningService> restored;
    {
      ScopedSpan span("serve", "warm_restart");
      restored = std::make_unique<ProvisioningService>(*s.registry, s.key, cfg);
    }
    restart_s = now_s() - t0;
    restored->start();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (restored->session_history(ids[i]) != histories[i] ||
          !same_decision(restored->decide(ids[i]), live[i])) {
        ++run.ops.mismatched;
      }
    }
    journal_records = static_cast<double>(restored->wal_restore_info().records);
    restored->drain_and_stop();
    restored.reset();
    journal_mb = dir_bytes(cfg.wal.dir) / (1024.0 * 1024.0);
    std::uint64_t recovered = 0;
    t0 = now_s();
    {
      ScopedSpan span("wal", "recover");
      mirage::util::wal::recover(cfg.wal.dir, [&](const void*, std::size_t) { ++recovered; });
    }
    recover_rps = static_cast<double>(recovered) / std::max(now_s() - t0, 1e-9);
  }

  std::vector<double> lat, lat_t;
  for (std::size_t i = 0; i < kSlices; ++i) {
    lat.insert(lat.end(), phases[i].latency_ms.begin(), phases[i].latency_ms.end());
    for (const double t : phases[i].latency_t) lat_t.push_back(t + slice_s * static_cast<double>(i));
  }
  const Windowed nominal = windowed(lat_t, lat, 100);
  run.p50_ms = nominal.p50;
  run.tail = nominal.tail;
  run.rate_per_s = goodput;

  const auto& e0 = before.engine;
  const auto& e1 = after.engine;
  const double ticks = static_cast<double>(e1.ticks - e0.ticks);
  const double busy = e1.busy_seconds - e0.busy_seconds;
  auto& L = run.layers;
  L["serve.observe_us_p50"] = median(times.observe_us);
  L["serve.observe_us_p99"] = percentile(times.observe_us, 99.0);
  L["serve.submit_us_p99"] = percentile(times.submit_us, 99.0);
  // Without churn the open/close timings come from set-up-free probes below.
  if (!times.open_us.empty()) L["serve.open_us_p99"] = percentile(times.open_us, 99.0);
  if (!times.close_us.empty()) L["serve.close_us_p99"] = percentile(times.close_us, 99.0);
  L["serve.engine_latency_p99_ms"] = e1.latency.p99_ms;
  L["serve.queue_depth_max"] = gen.depth_max;
  L["serve.engine_forward_ms"] = ticks > 0 ? busy / ticks * 1e3 : 0.0;
  L["serve.engine_busy_frac"] = busy / window;
  L["serve.engine_mean_batch"] =
      ticks > 0 ? static_cast<double>(e1.requests - e0.requests) / ticks : 0.0;
  L["serve.engine_ticks"] = ticks;
  if (p.ttl_s > 0) {  // without a TTL the sweeper has nothing to do
    L["serve.evictions"] = static_cast<double>(after.evictions);
    L["serve.sweep_wakeups"] = static_cast<double>(after.sweep_wakeups);
  }
  L["loadgen.late_p99_ms"] = percentile(times.late_ms, 99.0);
  if (p.journal) {
    L["serve.restart_s"] = restart_s;
    L["wal.journal_records"] = journal_records;
    L["wal.journal_mb"] = journal_mb;
    L["wal.recover_records_per_s"] = recover_rps;
  }
  run.named = {{"decide_p50_ms", run.p50_ms, "ms"},
               {"decide_p" + std::to_string(static_cast<int>(run.tail.pct)) + "_ms",
                run.tail.value, "ms"},
               {"decide_p99_ms", percentile(lat, 99.0), "ms"},
               {"goodput_dps", goodput, "1/s"},
               {"observe_p99_us", L["serve.observe_us_p99"], "us"}};
  if (p.journal) run.named.push_back({"restart_s", restart_s, "s"});
  std::printf("%s: setup %.3f s (median of %zu); nominal %.0f/s: %zu served, p50 %.3f ms, "
              "p%.4g %.3f ms; goodput %.0f/s after %zu rungs; %zu sampled checks; "
              "%llu failed of %llu\n",
              p.tag, run.setup_s, setups.size(), p.nominal_rate, lat.size(), run.p50_ms,
              run.tail.pct, run.tail.value, goodput, rungs, check_rows.size(),
              static_cast<unsigned long long>(run.ops.failed()),
              static_cast<unsigned long long>(run.ops.attempted));
  fs::remove_all(dir);
  return run;
}

}  // namespace

WorkloadRun run_serve_real(const RunContext& ctx) { return run_serve(kReal, ctx); }
WorkloadRun run_serve_journal(const RunContext& ctx) { return run_serve(kJournal, ctx); }
WorkloadRun run_serve_probe(const RunContext& ctx) { return run_serve(kProbe, ctx); }

}  // namespace perfbench
