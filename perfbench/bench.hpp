// Shared declarations of the benchmark program: the run context, what one
// measured pass of a workload yields, and the workload and probe entry
// points (serve_workload.cpp, batch_workloads.cpp, layer_probes.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/model_registry.hpp"
#include "stats.hpp"

namespace perfbench {

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed window
  std::string workdir;    ///< scratch directory inside the checkout
};

/// Per-layer values by metric name.
using LayerMap = std::map<std::string, double>;

/// What one measured pass of a workload produced. The end-to-end fields
/// share one meaning across workloads: `p50_ms`/`tail` time one unit of
/// user-visible work (a served request; a sweep pass; a lab plan run to
/// its leaderboard) and `rate_per_s` is its throughput (goodput in
/// decisions/s; cells/s; lab jobs/s). perfbench/README.md defines each
/// per workload.
struct WorkloadRun {
  OpCounts ops;
  double setup_s = 0.0;  ///< median of the run's set-ups
  double p50_ms = 0.0;
  Tail tail;             ///< ms
  double rate_per_s = 0.0;
  LayerMap layers;       ///< per-layer values the workload itself measured
  /// Output that must not change between the untraced and traced pass
  /// (the lab leaderboard); empty when the workload has none.
  std::string fingerprint;
  /// The workload's own figures under their domain names (decide_p99_ms,
  /// goodput_dps, sweep_cells_per_s, interruption_h, ...), printed for
  /// people reading the run; the JSON result carries the shared names.
  struct Named {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Named> named;
  /// The checkpoint the workload served or trained, for the nn probes.
  mirage::serve::ModelSnapshot model;
  std::size_t history_len = 24;
};

WorkloadRun run_serve_real(const RunContext& ctx);
WorkloadRun run_serve_journal(const RunContext& ctx);
/// A short journaled serve pass on a tiny checkpoint: the serve, wal and
/// restart layers for workloads that do not serve.
WorkloadRun run_serve_probe(const RunContext& ctx);

WorkloadRun run_sweep(const RunContext& ctx);
/// A four-cell sweep plus its traced replay: the trace, sim and scenario
/// layers for workloads that do not sweep.
WorkloadRun run_sweep_probe(const RunContext& ctx);

WorkloadRun run_lab(const RunContext& ctx);
/// One lab cell through core::MiragePipeline stage by stage: the core, rl
/// and ml layers (and the paper-quality standing) for workloads that do
/// not train.
WorkloadRun run_lab_cell_probe(const RunContext& ctx);

/// Layer probes that every traced run measures against the workload's own
/// checkpoint: nn inference and GEMM, the state encoder and a standalone
/// WAL writer. Fills `out` without overwriting values already present.
void run_layer_probes(const RunContext& ctx, const WorkloadRun& run, LayerMap& out);

}  // namespace perfbench
