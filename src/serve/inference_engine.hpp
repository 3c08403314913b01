// Batched decision engine: coalesces per-session "submit now or wait?"
// requests into one [B, k*(m+1)] tensor and runs a single batched
// Foundation forward per tick. Every current offline caller serves at
// B=1 (two rows per Q-pair); amortizing layer temporaries, GEMM setup and
// the model lock over whole batches is the headline throughput win
// (measured by bench_serve_throughput).
//
// The request queue is a BOUNDED preallocated ring (EngineConfig::
// max_queue): when the inference engine saturates, new submissions are
// rejected with BackpressureRejected and counted in EngineStats::rejected
// instead of growing the heap without limit — admission control, not an
// allocation storm. Two submission paths share the ring:
//
//   submit()          future-based async path (allocates the promise's
//                     shared state per request — the price of a future);
//   decide_blocking() pooled synchronous path: the observation buffer is
//                     swapped into a ring slot and the caller parks on a
//                     thread_local waiter, so a steady-state decision
//                     performs ZERO heap allocations end to end (audited
//                     by bench_serve_soak with a stub model);
//   submit_pooled()   pooled ASYNC path: instead of a promise/future pair
//                     the request borrows a recycled CompletionToken from
//                     the engine's token pool and hands back an
//                     AsyncDecision that waits on it — so pipelined async
//                     decides are also zero-allocation in steady state
//                     (audited by bench_serve_soak alongside the blocking
//                     path).
//
// The tick's forward executes on util::ThreadPool::global() so serving
// shares the process-wide compute pool with training/evaluation work; the
// engine's own thread only coalesces, dispatches and fulfills requests.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <optional>
#include <thread>

#include "serve/metrics.hpp"
#include "serve/model_registry.hpp"
#include "util/stats.hpp"

namespace mirage::obs {
class Counter;
class Histogram;
}  // namespace mirage::obs

namespace mirage::serve {

/// Thrown (or carried by the future) when the bounded request queue is
/// full — the backpressure signal callers retry or shed load on.
struct BackpressureRejected : std::runtime_error {
  BackpressureRejected()
      : std::runtime_error("BatchedInferenceEngine: queue full, request rejected "
                           "(backpressure)") {}
};

struct EngineConfig {
  std::size_t max_batch = 64;
  /// After the first queued request, wait up to this long for more to
  /// coalesce before running the tick (0 = serve whatever is queued).
  std::chrono::microseconds coalesce_wait{200};
  /// Run each tick's forward on util::ThreadPool::global() (otherwise on
  /// the engine thread itself; useful under sanitizers or in benchmarks
  /// that want isolated timing).
  bool use_thread_pool = true;
  /// Bounded request queue: submissions past this depth are rejected with
  /// BackpressureRejected (admission control when the engine saturates).
  /// The ring is preallocated, so queueing never allocates. Clamped >= 1.
  std::size_t max_queue = 8192;
  /// NN threads for the tick's forward (nn::ScopedNumThreads around
  /// infer_into): the inference plan splits the batch's rows into static
  /// contiguous ranges over nn::detail::gemm_pool(). 0 = inherit the
  /// process-wide nn::set_num_threads default. Rows are independent, so
  /// decisions are bitwise identical for every value; this trades latency
  /// against interference with co-resident training work, never results.
  /// Above 1, the pool dispatch allocates per tick.
  std::size_t nn_threads = 0;
};

struct EngineStats {
  std::uint64_t requests = 0;      ///< fulfilled (including failed) requests
  std::uint64_t ticks = 0;         ///< batched forwards executed
  std::uint64_t rejected = 0;      ///< submissions refused by backpressure
  double mean_batch = 0.0;
  std::size_t max_batch = 0;
  double busy_seconds = 0.0;       ///< wall time spent inside forwards
  LatencySnapshot latency;         ///< submit() -> fulfilled (served only)
};

namespace detail {
/// Parking slot for one blocking decision; thread_local in the caller, so
/// it is reused forever and never allocated per request. The caller is
/// parked inside decide_blocking() for the slot's whole in-flight life,
/// which is what makes the thread_local lifetime safe.
struct BlockingWaiter {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Decision decision;
  std::exception_ptr error;
};

/// Recycled completion state for the pooled async path: plays the role of
/// a promise/future shared state, but lives in the engine's TokenPool and
/// circulates instead of being heap-allocated per call. The completion
/// callback is a raw function pointer plus context slots — assigning a
/// std::function here could allocate, which is exactly what this path
/// exists to avoid.
struct CompletionToken {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Decision decision;
  std::exception_ptr error;
  void (*on_complete)(void*, void*, void*, std::uint64_t, const Decision&) = nullptr;
  void* ctx_a = nullptr;
  void* ctx_b = nullptr;
  void* ctx_c = nullptr;
  std::uint64_t ctx_id = 0;
  /// Keeps the callback's referents alive while the request is in flight
  /// (a shared_ptr copy is a refcount bump, not an allocation).
  std::shared_ptr<void> keepalive;
};

/// Freelist of CompletionTokens. Tokens are created on demand (cold
/// start) and recycled forever after; `created()` is the audit hook — in
/// a warmed steady state it must stop growing.
class TokenPool {
 public:
  ~TokenPool();
  TokenPool() = default;
  TokenPool(const TokenPool&) = delete;
  TokenPool& operator=(const TokenPool&) = delete;

  CompletionToken* acquire();
  void release(CompletionToken* token);
  std::size_t created() const;

 private:
  mutable std::mutex mutex_;
  std::vector<CompletionToken*> free_;
  std::size_t created_ = 0;
};
}  // namespace detail

/// Move-only handle to one pooled async decision. get() blocks until the
/// batch containing the request runs, rethrows the batch's failure, and
/// returns the token to the pool; an abandoned (destroyed un-got) handle
/// waits for completion first, so a token is never recycled while the
/// engine might still touch it. Must not outlive the engine it came from.
class AsyncDecision {
 public:
  AsyncDecision() = default;
  AsyncDecision(AsyncDecision&& other) noexcept;
  AsyncDecision& operator=(AsyncDecision&& other) noexcept;
  ~AsyncDecision();
  AsyncDecision(const AsyncDecision&) = delete;
  AsyncDecision& operator=(const AsyncDecision&) = delete;

  bool valid() const { return token_ != nullptr; }
  /// Wait, rethrow on failure, release the token. Single-shot.
  Decision get();

 private:
  friend class BatchedInferenceEngine;
  AsyncDecision(detail::CompletionToken* token, detail::TokenPool* pool)
      : token_(token), pool_(pool) {}
  void abandon();

  detail::CompletionToken* token_ = nullptr;
  detail::TokenPool* pool_ = nullptr;
};

class BatchedInferenceEngine {
 public:
  /// Resolve the serving model once per tick — a hot-reloaded registry
  /// entry is picked up at the next tick boundary while in-flight batches
  /// keep their snapshot.
  using ModelResolver = std::function<ModelSnapshot()>;

  BatchedInferenceEngine(ModelResolver resolver, EngineConfig config = {});
  /// Convenience: serve one registry key. The registry must outlive the
  /// engine.
  BatchedInferenceEngine(const ModelRegistry& registry, ModelKey key, EngineConfig config = {});
  ~BatchedInferenceEngine();

  BatchedInferenceEngine(const BatchedInferenceEngine&) = delete;
  BatchedInferenceEngine& operator=(const BatchedInferenceEngine&) = delete;

  /// Launch the engine thread (idempotent).
  void start();

  /// Enqueue one observation (flattened [k*(m+1)], action channel
  /// ignored). The future resolves after the batch containing it runs;
  /// it carries an exception if the engine is draining, the queue is full
  /// (BackpressureRejected) or no model resolves. `on_complete`, when
  /// set, runs on the engine thread right before the promise is fulfilled
  /// (successful decisions only — a drained or failed request is never
  /// counted as served) — the service uses it for per-shard accounting on
  /// the async path. `request_id`, when nonzero, threads the caller's
  /// journey id through the ring: enqueue/complete trace events and the
  /// latency histogram's exemplar carry it (ISSUE 8 request-journey
  /// tracing).
  std::future<Decision> submit(std::vector<float> observation,
                               std::function<void(const Decision&)> on_complete = nullptr,
                               std::uint64_t request_id = 0);

  /// Outcome of a non-throwing blocking decision.
  enum class SubmitResult { kOk, kRejectedBackpressure, kDraining };

  /// Pooled synchronous path: swap `observation` into a ring slot (the
  /// caller gets the displaced buffer back for reuse — capacities
  /// circulate, nothing is freed) and block until the batch containing it
  /// runs. Zero steady-state heap allocations. On kOk, `out` holds the
  /// decision; on rejection/drain the observation is swapped back
  /// untouched. A batch failure (no model, short decision vector, bad
  /// input dim) rethrows the batch's exception. Nonzero `request_id`
  /// threads the journey id exactly as in submit().
  SubmitResult try_decide_blocking(std::vector<float>& observation, Decision& out,
                                   std::uint64_t request_id = 0);

  /// Throwing convenience over try_decide_blocking: BackpressureRejected
  /// on a full queue, std::runtime_error when draining.
  Decision decide_blocking(std::vector<float>& observation, std::uint64_t request_id = 0);

  /// Completion context for submit_pooled. `fn` runs on the engine thread
  /// for successfully served decisions only (same contract as submit()'s
  /// on_complete), with the three context pointers and id passed through;
  /// `keepalive` pins whatever the pointers reference until the request
  /// resolves.
  struct PooledCompletion {
    void (*fn)(void*, void*, void*, std::uint64_t, const Decision&) = nullptr;
    void* ctx_a = nullptr;
    void* ctx_b = nullptr;
    void* ctx_c = nullptr;
    std::uint64_t ctx_id = 0;
    std::shared_ptr<void> keepalive;
  };

  /// Pooled async path: like try_decide_blocking (observation swapped into
  /// a ring slot, zero steady-state allocations) but returns immediately
  /// with `out` waiting on a recycled CompletionToken instead of parking
  /// the caller. On rejection/drain `out` is untouched and the token goes
  /// straight back to the pool.
  SubmitResult submit_pooled(std::vector<float>& observation, AsyncDecision& out,
                             PooledCompletion completion, std::uint64_t request_id = 0);
  SubmitResult submit_pooled(std::vector<float>& observation, AsyncDecision& out) {
    return submit_pooled(observation, out, PooledCompletion());
  }

  /// Completion tokens ever created (the pooled-async allocation audit:
  /// flat in a warmed steady state).
  std::size_t tokens_created() const { return token_pool_.created(); }

  /// Graceful drain: reject new requests, serve everything queued, then
  /// stop the engine thread (idempotent).
  void drain();

  bool accepting() const;
  std::size_t queue_depth() const;
  EngineStats stats() const;

 private:
  /// One ring slot / in-flight request. Exactly one of {promise, waiter,
  /// token} is set: promise for the future path, waiter for the blocking
  /// path, token for the pooled async path.
  struct Request {
    std::vector<float> observation;  ///< buffer owned by the slot, reused
    std::optional<std::promise<Decision>> promise;
    std::function<void(const Decision&)> on_complete;
    detail::BlockingWaiter* waiter = nullptr;
    detail::CompletionToken* token = nullptr;
    double enqueue_seconds = 0.0;
    std::uint64_t request_id = 0;    ///< journey id (0 = untraced caller)
  };

  void run();
  void serve_batch(std::size_t take);
  /// Deliver one fulfilled request (engine thread). Success runs
  /// on_complete then resolves; failure resolves with `failure`.
  void fulfill(Request& req, const Decision* decision, const std::exception_ptr& failure);
  /// Reserve the next ring slot or report why not (caller holds mutex_).
  Request* reserve_slot_locked();

  ModelResolver resolver_;
  EngineConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Request> ring_;      ///< bounded queue, preallocated
  std::size_t head_ = 0;           ///< oldest queued request
  std::size_t queued_ = 0;         ///< live entries in the ring
  bool draining_ = false;
  bool started_ = false;
  std::thread worker_;
  std::atomic<std::uint64_t> rejected_{0};
  detail::TokenPool token_pool_;   ///< recycled completion tokens (async path)

  // Engine-thread tick scratch (no locks needed): extracted requests and
  // the reusable observation/decision buffers for the batched forward.
  std::uint64_t tick_seq_ = 0;                     ///< engine-thread tick id
  std::vector<Request> batch_;                     ///< metadata, <= max_batch
  std::vector<std::vector<float>> observations_;   ///< rows for infer_into
  std::vector<std::vector<float>> row_pool_;       ///< spare row capacities
  std::vector<Decision> decisions_;

  // Stats (guarded by stats_mutex_ so snapshots don't contend with the
  // request path).
  mutable std::mutex stats_mutex_;
  std::uint64_t requests_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t batch_sum_ = 0;
  std::size_t batch_max_ = 0;
  double busy_seconds_ = 0.0;
  LatencyRecorder latency_;
};

/// Process-wide decision-latency histogram
/// ("mirage_serve_decision_latency_seconds"): exponential buckets with
/// EXEMPLARS — each bucket remembers the last request id that landed in
/// it, so a p99.9 reading links back to one concrete journey in the trace
/// ring. Every engine records served decisions here; the serve SLO
/// engine's latency objective reads it.
obs::Histogram& decision_latency_histogram();

/// Process-wide served-decision counter ("mirage_serve_engine_served_total"),
/// the "good" leg of the reject-rate SLO (its "bad" leg is
/// "mirage_serve_engine_rejected_total").
obs::Counter& engine_served_counter();

/// The rejected-submission counter behind "mirage_serve_engine_rejected_total".
obs::Counter& engine_rejected_counter();

}  // namespace mirage::serve
