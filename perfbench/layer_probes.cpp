// Layer probes every traced run measures, each timing calls into one
// layer's public functions: ServableModel::infer at B=1 and B=64 on the
// workload's checkpoint, nn::matmul_nt at that checkpoint's layer shapes,
// rl::StateEncoder push + flatten, and a standalone util::wal::Writer at
// the serve journal's record sizes.
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "nn/parallel.hpp"
#include "nn/tensor.hpp"
#include "rl/state_encoder.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "util/wal.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// Median seconds per call of `fn` over batches of `per_batch` calls,
/// repeated for at least `min_s` seconds (and at least 5 batches).
template <typename Fn>
double seconds_per_call(const char* layer, const char* name, std::size_t per_batch, double min_s,
                        Fn&& fn) {
  std::vector<double> per_call;
  const double start = now_s();
  while (per_call.size() < 5 || now_s() - start < min_s) {
    const double t0 = now_s();
    {
      ScopedSpan span(layer, name);
      for (std::size_t i = 0; i < per_batch; ++i) fn();
    }
    per_call.push_back((now_s() - t0) / static_cast<double>(per_batch));
  }
  return median(per_call);
}

std::vector<std::vector<float>> random_rows(std::size_t n, std::size_t dim, std::uint64_t seed) {
  mirage::util::Rng rng(seed);
  std::vector<std::vector<float>> rows(n, std::vector<float>(dim));
  for (auto& row : rows) {
    for (auto& v : row) v = static_cast<float>(rng.normal());
  }
  return rows;
}

void nn_probes(const RunContext& ctx, const WorkloadRun& run, LayerMap& L) {
  const auto& model = *run.model;
  const auto rows = random_rows(64, model.observation_dim(), ctx.seed);
  const std::vector<std::vector<float>> one(rows.begin(), rows.begin() + 1);
  L.emplace("nn.infer_b1_us",
            1e6 * seconds_per_call("nn", "infer_b1", 8, 0.3, [&] { model.infer(one); }));
  L.emplace("nn.infer_b64_us",
            1e6 * seconds_per_call("nn", "infer_b64", 1, 0.3, [&] { model.infer(rows); }));

  // The forward's GEMMs at B=64: embedding, attention projection and FFN
  // rows are (B * k) tokens wide.
  const std::size_t d = model.info().d_model;
  const std::size_t m = 64 * run.history_len;
  const std::size_t ffn = 64;  // nn::FoundationConfig default
  struct Shape {
    std::size_t k, n;
  };
  const Shape shapes[] = {{model.info().state_dim, d}, {d, d}, {d, ffn}, {ffn, d}};
  double flops = 0;
  for (const auto& s : shapes) flops += 2.0 * static_cast<double>(m * s.k * s.n);
  const auto gflops = [&](std::size_t threads) {
    mirage::nn::ScopedNumThreads scope(threads);
    mirage::util::Rng rng(ctx.seed);
    double seconds = 0;
    for (const auto& s : shapes) {
      mirage::nn::Tensor a(m, s.k), b(s.n, s.k), out(m, s.n);
      for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = static_cast<float>(rng.normal());
      for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = static_cast<float>(rng.normal());
      seconds += seconds_per_call("nn", "matmul_nt", 4, 0.05,
                                  [&] { mirage::nn::matmul_nt(a, b, out); });
    }
    return flops / seconds / 1e9;
  };
  L.emplace("nn.gemm_gflops_t1", gflops(1));
  double best = 0;
  for (std::size_t t = 1; t <= std::max(1u, std::thread::hardware_concurrency()); ++t) {
    best = std::max(best, gflops(t));
  }
  L.emplace("nn.gemm_gflops_tmax", best);
}

void encode_probe(const RunContext& ctx, const WorkloadRun& run, LayerMap& L) {
  mirage::util::Rng rng(ctx.seed ^ 0xe4c0de);
  mirage::sim::StateSample s;
  s.total_nodes = 76;
  s.free_nodes = 20;
  s.partition_total = {76};
  s.partition_free = {20};
  for (int i = 0; i < 24; ++i) {
    s.queued_sizes.push_back(static_cast<double>(rng.uniform_int(1, 16)));
    s.queued_ages.push_back(rng.uniform(0.0, 86400.0));
    s.queued_limits.push_back(rng.uniform(3600.0, 172800.0));
    s.running_sizes.push_back(static_cast<double>(rng.uniform_int(1, 16)));
    s.running_elapsed.push_back(rng.uniform(0.0, 86400.0));
    s.running_limits.push_back(rng.uniform(3600.0, 172800.0));
  }
  const mirage::rl::JobPairContext job;
  mirage::rl::StateEncoder encoder(run.history_len);
  std::vector<float> out;
  L.emplace("rl.encode_us", 1e6 * seconds_per_call("rl", "encode", 256, 0.2, [&] {
              encoder.push(s, job);
              encoder.flatten_into(out, 0.0f);
            }));
}

/// A standalone WAL writer at the serve journal's record sizes: a frame
/// record (13-byte header + one float frame) and a decision record. The
/// journal-size and recovery figures come from a service's own journal.
void wal_probe(const RunContext& ctx, LayerMap& L) {
  namespace wal = mirage::util::wal;
  const std::string dir = ctx.workdir + "/wal-probe";
  fs::remove_all(dir);
  std::vector<std::uint8_t> frame(13 + mirage::rl::frame_vars(1) * sizeof(float));
  const std::vector<std::uint8_t> decision(10, 1);
  {
    wal::Writer writer;
    std::string error;
    if (!writer.open(dir, wal::WalOptions{wal::SyncLevel::kNone}, &error)) {
      throw std::runtime_error("wal probe: " + error);
    }
    std::size_t i = 0;
    L.emplace("wal.append_us", 1e6 * seconds_per_call("wal", "append", 1024, 0.2, [&] {
                const auto& rec = (i++ % 4 == 3) ? decision : frame;
                writer.append(rec.data(), rec.size());
              }));
    L.emplace("wal.commit_us", 1e6 * seconds_per_call("wal", "commit", 64, 0.2, [&] {
                for (int r = 0; r < 4; ++r) writer.append(frame.data(), frame.size());
                writer.commit();
              }));
    writer.close();
  }
  fs::remove_all(dir);
}

}  // namespace

void run_layer_probes(const RunContext& ctx, const WorkloadRun& run, LayerMap& out) {
  nn_probes(ctx, run, out);
  encode_probe(ctx, run, out);
  wal_probe(ctx, out);
}

}  // namespace perfbench
