// Serving-throughput bench behind the serve subsystem's headline claim:
// batched serving beats the status-quo B=1 loop by >=4x decisions/sec on
// the same checkpoint.
//
// The B=1 baseline is what the offline pipeline does (rl::DqnAgent::q_pair
// -> the training forward over ALL MoE experts, two rows at a time). The
// batched path is ServableModel::infer: requests coalesce into one
// workspace of rows for the model's nn::InferencePlan, which routes each
// Top-1 MoE row to its one expert and runs each expert over its rows —
// the sparse-routing saving the paper left on the table.
//
// Three measurements on the same checkpoint (loaded through the real
// ModelRegistry path):
//   1. sequential B=1 serving (status quo);
//   2. direct batched inference at several batch sizes, each timed over
//      whole passes for at least a second; every 8th decision of the
//      first pass is compared bitwise with the B=1 agent's q_pair /
//      submit_probability, and any mismatch exits 1;
//   3. end-to-end engine serving (client threads -> coalescing queue ->
//      batched tick), with p50/p95/p99 request latency.
// All three run at one NN thread, so the gated
// batched_b64_decisions_per_sec does not ride the host's free cores.
//
//   ./bench_serve_throughput [n=4096] [batches=16,64,256] [clients=16]
//                            [k=24] [d_model=32] [experts=8] [top1=true]
//                            [kind=dqn]
#include <bit>
#include <cstdio>
#include <filesystem>
#include <future>
#include <thread>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "nn/parallel.hpp"
#include "rl/state_encoder.hpp"
#include "serve/inference_engine.hpp"
#include "serve/model_registry.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/time_utils.hpp"

using namespace mirage;

namespace {

std::vector<std::size_t> parse_batches(const std::string& arg) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos <= arg.size()) {
    auto comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    if (comma > pos) {
      const auto b = static_cast<std::size_t>(std::stoul(arg.substr(pos, comma - pos)));
      if (b > 0) out.push_back(b);  // B=0 would make the chunk loop spin forever
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = util::Config::from_args(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 4096));
  const auto batches = parse_batches(cli.get_string("batches", "16,64,256"));
  const auto clients = static_cast<std::size_t>(cli.get_int("clients", 16));
  const std::string kind = cli.get_string("kind", "dqn");
  constexpr double kMinSeconds = 1.0;
  nn::ScopedNumThreads nn_scope(1);

  nn::FoundationConfig net;
  net.history_len = static_cast<std::size_t>(cli.get_int("k", 24));
  net.state_dim = rl::kFrameDim;
  net.d_model = static_cast<std::size_t>(cli.get_int("d_model", 32));
  net.moe_experts = static_cast<std::size_t>(cli.get_int("experts", 8));
  net.moe_top1 = cli.get_bool("top1", true);  ///< Top-1 routing is the serving-efficient mode

  // A freshly initialized agent: forward cost is independent of training,
  // and the checkpoint round-trip exercises the production load path.
  const auto dir = std::filesystem::temp_directory_path() / "mirage_bench_serve";
  std::filesystem::create_directories(dir);
  const std::string ckpt = (dir / ("bench__" + kind + ".ckpt")).string();
  if (kind == "pg") {
    rl::PgConfig cfg;
    cfg.foundation = nn::FoundationType::kMoE;
    cfg.net = net;
    rl::PgAgent agent(cfg, 7);
    if (!core::save_agent(agent, ckpt)) return 1;
  } else {
    rl::DqnConfig cfg;
    cfg.foundation = nn::FoundationType::kMoE;
    cfg.net = net;
    rl::DqnAgent agent(cfg, 7);
    if (!core::save_agent(agent, ckpt)) return 1;
  }

  serve::RegistryConfig reg_cfg;
  reg_cfg.net_defaults = net;
  serve::ModelRegistry registry(reg_cfg);
  const auto load = registry.load_file(ckpt, "bench");
  if (!load.ok) {
    std::fprintf(stderr, "registry load failed: %s\n", load.error.c_str());
    return 1;
  }
  const auto model = registry.lookup(load.key);
  std::printf("model %s  k=%zu state_dim=%zu d_model=%zu experts=%zu  (%zu decisions)\n\n",
              load.key.to_string().c_str(), net.history_len, net.state_dim, net.d_model,
              net.moe_experts, n);

  util::Rng rng(123);
  std::vector<std::vector<float>> observations(n);
  for (auto& obs : observations) {
    obs.resize(model->observation_dim());
    for (auto& v : obs) v = static_cast<float>(rng.normal());
  }

  // Warm up allocators and caches.
  model->infer({observations[0], observations[1]});

  // ---- 1. sequential B=1 (status quo: q_pair, dense forward) -------------
  // Reload the same checkpoint into a plain agent: this is precisely the
  // serving path the offline pipeline (DqnProvisioner -> act_greedy)
  // uses today.
  rl::DqnConfig base_cfg;
  base_cfg.foundation = nn::FoundationType::kMoE;
  base_cfg.net = net;
  rl::DqnAgent baseline(base_cfg, 1);
  rl::PgConfig base_pg_cfg;
  base_pg_cfg.foundation = nn::FoundationType::kMoE;
  base_pg_cfg.net = net;
  rl::PgAgent baseline_pg(base_pg_cfg, 1);
  if (kind == "pg" ? !core::load_agent(baseline_pg, ckpt) : !core::load_agent(baseline, ckpt)) {
    std::fprintf(stderr, "baseline agent reload failed\n");
    return 1;
  }

  double t0 = util::wall_seconds();
  std::size_t submit_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (kind == "pg") {
      submit_count += baseline_pg.act_greedy(observations[i]);
    } else {
      submit_count += baseline.act_greedy(observations[i]);
    }
  }
  const double seq_seconds = util::wall_seconds() - t0;
  const double seq_dps = static_cast<double>(n) / seq_seconds;
  std::printf("%-28s %10.0f decisions/s   (%.2f s, %zu submits)\n",
              "sequential B=1 (status quo)", seq_dps, seq_seconds, submit_count);

  // ---- 2. direct batched inference ---------------------------------------
  // Every kSampleStride-th decision of each batch size is kept and later
  // compared bit for bit with the B=1 agent on the same observation.
  constexpr std::size_t kSampleStride = 8;
  struct Sample {
    std::size_t batch, row;
    serve::Decision decision;
  };
  std::vector<Sample> samples;
  samples.reserve(batches.size() * (n / kSampleStride + 1));
  bool target_met = false;
  double b64_dps = 0.0;
  for (const std::size_t b : batches) {
    // Whole passes over the observations for at least kMinSeconds, so a
    // gated rate is never read off a sub-second window.
    t0 = util::wall_seconds();
    std::size_t served = 0;
    std::vector<std::vector<float>> chunk;
    chunk.reserve(b);
    do {
      for (std::size_t i = 0; i < n;) {
        chunk.clear();
        const std::size_t first = i;
        for (; chunk.size() < b && i < n; ++i) chunk.push_back(observations[i]);
        const auto decisions = model->infer(chunk);
        if (served > 0) continue;  // samples come from the first pass
        for (std::size_t j = 0; j < decisions.size(); ++j) {
          if ((first + j) % kSampleStride == 0) samples.push_back({b, first + j, decisions[j]});
        }
      }
      served += n;
    } while (util::wall_seconds() - t0 < kMinSeconds);
    const double seconds = util::wall_seconds() - t0;
    const double dps = static_cast<double>(served) / seconds;
    const double speedup = dps / seq_dps;
    if (b >= 16 && speedup >= 4.0) target_met = true;
    if (b == 64) b64_dps = dps;
    std::printf("%-28s %10.0f decisions/s   %5.1fx vs B=1\n",
                ("batched B=" + std::to_string(b)).c_str(), dps, speedup);
  }

  // Batched decisions against the B=1 agent's own forward, bit for bit
  // (== would let -0 and +0 pass as equal).
  const auto same_bits = [](float a, float b) {
    return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
  };
  std::size_t mismatched = 0;
  for (const Sample& s : samples) {
    bool same;
    if (kind == "pg") {
      same = same_bits(s.decision.score_submit, baseline_pg.submit_probability(observations[s.row]));
    } else {
      const auto [q_wait, q_submit] = baseline.q_pair(observations[s.row]);
      same = same_bits(s.decision.score_wait, q_wait) && same_bits(s.decision.score_submit, q_submit);
    }
    if (!same) {
      ++mismatched;
      std::fprintf(stderr, "mismatch: B=%zu row %zu differs from the B=1 agent\n", s.batch, s.row);
    }
  }
  std::printf("%-28s %zu of %zu sampled decisions bitwise equal to B=1\n", "batched check",
              samples.size() - mismatched, samples.size());

  // ---- 3. end-to-end engine (coalescing queue, client threads) -----------
  serve::EngineConfig engine_cfg;
  engine_cfg.max_batch = static_cast<std::size_t>(cli.get_int("max_batch", 256));
  engine_cfg.coalesce_wait = std::chrono::microseconds(cli.get_int("coalesce_us", 200));
  engine_cfg.nn_threads = 1;
  serve::BatchedInferenceEngine engine(registry, load.key, engine_cfg);
  engine.start();
  t0 = util::wall_seconds();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<std::future<serve::Decision>> futs;
        for (std::size_t i = c; i < n; i += clients) futs.push_back(engine.submit(observations[i]));
        for (auto& f : futs) f.get();
      });
    }
    for (auto& t : threads) t.join();
  }
  const double engine_seconds = util::wall_seconds() - t0;
  engine.drain();
  const auto stats = engine.stats();
  const double engine_dps = static_cast<double>(n) / engine_seconds;
  std::printf("%-28s %10.0f decisions/s   %5.1fx vs B=1   (%zu clients)\n",
              "engine end-to-end", engine_dps, engine_dps / seq_dps, clients);
  std::printf("  ticks %llu  mean batch %.1f  max batch %zu\n",
              static_cast<unsigned long long>(stats.ticks), stats.mean_batch, stats.max_batch);
  std::printf("  request latency p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max %.2f ms\n",
              stats.latency.p50_ms, stats.latency.p95_ms, stats.latency.p99_ms,
              stats.latency.max_ms);

  std::printf("\nbatched >=4x target (B>=16): %s\n", target_met ? "PASS" : "FAIL");

  bench::BenchJson json("serve_throughput");
  json.add("params", "n=" + std::to_string(n) + ",batches=" + cli.get_string("batches", "16,64,256") +
                         ",k=" + std::to_string(net.history_len) + ",d_model=" +
                         std::to_string(net.d_model) + ",experts=" +
                         std::to_string(net.moe_experts) + ",top1=" +
                         std::to_string(net.moe_top1) + ",kind=" + kind)
      .add("decisions", static_cast<std::int64_t>(n))
      .add("threads", static_cast<std::int64_t>(clients))
      .add("wall_seconds", engine_seconds)
      .add("sequential_decisions_per_sec", seq_dps)
      .add("engine_decisions_per_sec", engine_dps)
      .add("latency_p99_ms", stats.latency.p99_ms)
      .add("sampled_mismatches", static_cast<std::int64_t>(mismatched))
      .add("target_met", static_cast<std::int64_t>(target_met ? 1 : 0));
  if (b64_dps > 0.0) json.add("batched_b64_decisions_per_sec", b64_dps);
  json.add_resource_fields();
  json.write();

  std::filesystem::remove(ckpt);
  if (mismatched > 0) return 1;
  return target_met ? 0 : 2;
}
