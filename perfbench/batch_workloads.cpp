// The researcher's workloads: a scenario sweep run by scenario::SweepRunner
// and an experiment plan run by lab::LabRunner, plus the probes that time
// their layers from outside (a traced per-cell replay of the sweep, and one
// lab cell driven through core::MiragePipeline stage by stage).
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "lab/runner.hpp"
#include "scenario/sweep.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using mirage::scenario::EventProfile;
using mirage::scenario::ScenarioEvent;
using mirage::scenario::ScenarioEventKind;
using mirage::scenario::ScenarioSpec;
namespace util = mirage::util;

/// Threads for the sweep and lab pools: below nproc, which measured
/// steadier than all of it on a shared 4-vCPU host.
std::size_t pool_threads() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, hw / 2);
}

/// The sweep matrix on the a100 preset: utilization from light to
/// overloaded x reservation depth {1, 8} x event profiles {none, outage,
/// preempt + correlated failure}. Overloaded and event-bearing cells cost
/// several times a light one, so cell costs are deliberately uneven.
mirage::scenario::SweepMatrix sweep_matrix(std::uint64_t seed, double job_scale,
                                           std::vector<double> utilizations) {
  mirage::scenario::SweepMatrix m;
  m.base.name = "bench";
  m.base.cluster = "a100";
  m.base.months_begin = 0;
  m.base.months_end = 1;
  m.base.seed = seed;
  m.base.job_count_scale = job_scale;
  m.utilization_scales = std::move(utilizations);
  m.reservation_depths = {1, 8};
  const std::int32_t quarter = m.base.resolved_preset().node_count / 4;
  EventProfile outage{"outage",
                      {ScenarioEvent(ScenarioEventKind::kNodeDown, 5 * util::kDay, quarter),
                       ScenarioEvent(ScenarioEventKind::kNodeRestore, 6 * util::kDay, quarter)}};
  ScenarioEvent preempt(ScenarioEventKind::kPreempt, 10 * util::kDay, quarter);
  preempt.requeue_delay = util::kHour;
  ScenarioEvent correlated(ScenarioEventKind::kCorrelatedDown, 15 * util::kDay, quarter);
  correlated.rack_size = 4;
  correlated.seed = seed;
  EventProfile preempt_correlated{
      "preempt-correlated",
      {preempt, correlated,
       ScenarioEvent(ScenarioEventKind::kNodeRestore, 16 * util::kDay, quarter)}};
  m.event_profiles = {{"none", {}}, outage, preempt_correlated};
  return m;
}

std::uint64_t schedule_hash(const mirage::trace::Trace& schedule) {
  std::uint64_t h = util::kFnv1a64Basis;
  for (const auto& j : schedule) {
    h = util::fnv1a64(h, static_cast<std::uint64_t>(j.start_time));
    h = util::fnv1a64(h, static_cast<std::uint64_t>(j.end_time));
  }
  return h;
}

/// Replay every cell serially, one span per layer call, and check each
/// schedule hash against the runner's.
void traced_replay(const std::vector<ScenarioSpec>& specs,
                   const mirage::scenario::SweepReport& report, double pass_s,
                   std::size_t threads, WorkloadRun& run) {
  std::vector<double> cell_ms, build_ms, sim_ms;
  double passes = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    const double c0 = now_s();
    ScopedSpan cell("scenario", "cell");
    double t0 = now_s();
    mirage::trace::Trace workload;
    {
      ScopedSpan span("trace", "build_workload");
      workload = mirage::scenario::build_workload(spec);
    }
    build_ms.push_back((now_s() - t0) * 1e3);
    t0 = now_s();
    std::uint64_t hash = 0;
    {
      ScopedSpan span("sim", "run_to_completion");
      mirage::sim::Simulator sim(mirage::scenario::to_cluster_model(spec.resolved_preset()),
                                 spec.scheduler);
      sim.load_workload(std::move(workload));
      for (const auto& ev : mirage::scenario::capacity_events(spec)) {
        sim.schedule_cluster_event(ev);
      }
      sim.run_to_completion();
      passes += static_cast<double>(sim.scheduler_passes());
      hash = schedule_hash(sim.export_schedule());
    }
    sim_ms.push_back((now_s() - t0) * 1e3);
    cell_ms.push_back((now_s() - c0) * 1e3);
    ++run.ops.attempted;
    if (hash != report.cells[i].schedule_hash) ++run.ops.mismatched;
  }
  double sum_cell = 0, sum_build = 0, sum_sim = 0;
  for (std::size_t i = 0; i < cell_ms.size(); ++i) {
    sum_cell += cell_ms[i];
    sum_build += build_ms[i];
    sum_sim += sim_ms[i];
  }
  const double n = static_cast<double>(specs.size());
  auto& L = run.layers;
  L["trace.build_workload_ms"] = sum_build / n;
  L["sim.run_ms"] = sum_sim / n;
  L["sim.passes"] = passes;
  L["sim.pass_us"] = sum_sim * 1e3 / std::max(passes, 1.0);
  L["scenario.cell_ms_p50"] = median(cell_ms);
  L["scenario.cell_ms_max"] = *std::max_element(cell_ms.begin(), cell_ms.end());
  L["scenario.parallel_eff"] = sum_cell / 1e3 / (static_cast<double>(threads) * pass_s);
  std::printf("sweep replay: trace+sim = %.1f%% of cell time over %zu cells\n",
              100.0 * (sum_build + sum_sim) / sum_cell, specs.size());
}

WorkloadRun sweep_impl(const RunContext& ctx, double job_scale,
                       const std::vector<double>& utilizations, double window_s,
                       int setups_timed) {
  WorkloadRun run;
  const std::size_t threads = pool_threads();
  const mirage::scenario::SweepRunner runner(threads);
  std::vector<ScenarioSpec> specs;
  // Set-up: expand the matrix and run one pass, which spawns the pool and
  // fills the thread-local Rng::zipf tables before anything is timed.
  std::vector<double> setups;
  mirage::scenario::SweepReport first;
  for (int i = 0; i < setups_timed; ++i) {
    const double t0 = now_s();
    ScopedSpan span("bench", "setup");
    specs = sweep_matrix(ctx.seed, job_scale, utilizations).expand();
    first = runner.run(specs);
    setups.push_back(now_s() - t0);
  }
  run.setup_s = median(setups);

  // The timed window: whole passes until it is spent (at least three).
  std::vector<double> pass_ms;
  const double start = now_s();
  while (pass_ms.size() < 3 || now_s() - start < window_s) {
    const double t0 = now_s();
    mirage::scenario::SweepReport report;
    {
      ScopedSpan span("scenario", "sweep_pass");
      report = runner.run(specs);
    }
    pass_ms.push_back((now_s() - t0) * 1e3);
    for (std::size_t c = 0; c < specs.size(); ++c) {
      ++run.ops.attempted;
      if (!(report.cells[c] == first.cells[c])) ++run.ops.mismatched;
    }
  }
  // In expansion order each of the pool's work chunks is one utilization
  // level, and which thread claims the overloaded last chunk decides the
  // pass time: pass times are bimodal. Means over ten-pass windows follow
  // the mix of modes smoothly where a plain median would jump.
  run.p50_ms = median_of_window_means(pass_ms, 10);
  run.tail = tail(pass_ms);
  run.rate_per_s = static_cast<double>(specs.size()) / (run.p50_ms / 1e3);

  // The fast simulator against the reference one on the lightest plain cell.
  ++run.ops.attempted;
  if (mirage::scenario::run_scenario_reference(specs[0]).schedule_hash !=
      first.cells[0].schedule_hash) {
    ++run.ops.mismatched;
  }
  run.named = {{"sweep_cells_per_s", run.rate_per_s, "1/s"},
               {"sweep_pass_p50_ms", run.p50_ms, "ms"}};
  if (tracing()) traced_replay(specs, first, run.p50_ms / 1e3, threads, run);
  std::printf("sweep: %zu cells x %zu passes on %zu threads; setup %.3f s; pass p50 %.1f ms, "
              "p%.4g %.1f ms; %.1f cells/s\n",
              specs.size(), pass_ms.size(), threads, run.setup_s, run.p50_ms, run.tail.pct,
              run.tail.value, run.rate_per_s);
  return run;
}

/// The lab plan: 4 cells (utilization {1.0, 1.25} x {calm, maintenance})
/// on a 20-node a100 partition, so the queue is under enough pressure for
/// the methods to differ, x {reactive, random forest, MoE+DQN}.
mirage::lab::ExperimentPlan lab_plan(std::uint64_t seed, std::size_t cells) {
  mirage::lab::ExperimentPlan plan;
  plan.name = "perfbench";
  plan.methods = {mirage::core::Method::kReactive, mirage::core::Method::kRandomForest,
                  mirage::core::Method::kMoeDqn};
  auto& base = plan.matrix.base;
  base.cluster = "a100";
  base.nodes_override = 20;
  base.months_begin = 0;
  base.months_end = 1;
  base.seed = seed;
  base.job_count_scale = 0.45;
  const std::int32_t quarter = base.resolved_preset().node_count / 4;
  EventProfile maintenance{
      "maintenance",
      {ScenarioEvent(ScenarioEventKind::kDrain, 5 * util::kDay, quarter, 0, 0, 0, 600,
                     util::kWeek, 4),
       ScenarioEvent(ScenarioEventKind::kNodeRestore, 5 * util::kDay + 6 * util::kHour, quarter,
                     0, 0, 0, 600, util::kWeek, 4)}};
  plan.matrix.utilization_scales = cells > 1 ? std::vector<double>{1.0, 1.25}
                                             : std::vector<double>{1.0};
  plan.matrix.event_profiles = cells > 2 ? std::vector<EventProfile>{{"none", {}}, maintenance}
                                         : std::vector<EventProfile>{{"none", {}}};
  return plan;
}

const mirage::lab::MethodStanding* moe_dqn_standing(const mirage::lab::Leaderboard& lb) {
  const std::string name = mirage::core::method_name(mirage::core::Method::kMoeDqn);
  for (const auto& s : lb.standings) {
    if (s.method == name) return &s;
  }
  return nullptr;
}

}  // namespace

WorkloadRun run_sweep(const RunContext& ctx) {
  // Nine utilization points of small cells: the seed changes each cell's
  // trace, and many cells average that change out of the pass time.
  return sweep_impl(ctx, 0.15, {0.5, 0.65, 0.8, 0.95, 1.1, 1.25, 1.4, 1.55, 1.7}, ctx.seconds,
                    9);
}

WorkloadRun run_sweep_probe(const RunContext& ctx) {
  return sweep_impl(ctx, 0.1, {0.5, 1.6}, 0.0, 1);
}

WorkloadRun run_lab(const RunContext& ctx) {
  WorkloadRun run;
  const auto plan = lab_plan(ctx.seed, 4);
  const mirage::lab::LabRunner runner(pool_threads());
  const std::string root = ctx.workdir + "/lab";

  // Set-up: one cell of the plan trained and evaluated at a minimal budget
  // through MiragePipeline, which touches every code path and allocation
  // pattern the plan uses. No artifact store: with its fsyncs this figure
  // spread 2-3x wider across seeds on a shared host.
  auto warm = lab_plan(ctx.seed, 1);
  warm.budget.collector_anchors = 2;
  warm.budget.pretrain_epochs = 1;
  warm.budget.online_episodes = 1;
  warm.budget.eval_episodes = 1;
  const auto warm_cell = warm.matrix.expand().front();
  std::vector<double> setups;
  for (int i = 0; i < 7; ++i) {
    const double t0 = now_s();
    ScopedSpan span("bench", "setup");
    mirage::core::MiragePipeline pipeline(mirage::lab::cell_pipeline_config(warm, warm_cell));
    pipeline.prepare(mirage::scenario::build_workload(warm_cell));
    pipeline.collect_offline();
    pipeline.train(mirage::core::Method::kMoeDqn);
    pipeline.evaluate({mirage::core::Method::kMoeDqn});
    setups.push_back(now_s() - t0);
  }
  run.setup_s = median(setups);
  fs::remove_all(root);

  std::vector<double> wall_ms;
  std::string first_csv, last_dir;
  mirage::lab::LabRunReport report;
  const double start = now_s();
  while (wall_ms.size() < 2 || now_s() - start < ctx.seconds) {
    if (!last_dir.empty()) fs::remove_all(last_dir);
    last_dir = root + "/run" + std::to_string(wall_ms.size());
    mirage::lab::ArtifactStore store(last_dir);
    const double t0 = now_s();
    {
      ScopedSpan span("lab", "plan");
      report = runner.run(plan, store);
    }
    wall_ms.push_back((now_s() - t0) * 1e3);
    run.ops.attempted += report.jobs_total;
    run.ops.errored += report.jobs_total - report.jobs_run;
    const std::string csv = report.leaderboard.to_csv();
    if (first_csv.empty()) {
      first_csv = csv;
    } else if (csv != first_csv) {
      ++run.ops.mismatched;  // the same plan must rank identically every time
    }
  }
  // The last run's first MoE+DQN checkpoint feeds the nn probes.
  const mirage::lab::ArtifactStore store(last_dir);
  for (const auto& job : mirage::lab::expand_jobs(plan)) {
    if (job.method != mirage::core::Method::kMoeDqn) continue;
    mirage::serve::RegistryConfig reg_cfg;
    reg_cfg.net_defaults = mirage::lab::cell_pipeline_config(plan, job.cell).net;
    reg_cfg.expected_state_dim = reg_cfg.net_defaults.state_dim;
    mirage::serve::ModelRegistry registry(reg_cfg);
    const auto load = registry.load_file(store.checkpoint_path(plan, job), "lab");
    if (!load.ok) throw std::runtime_error("lab checkpoint load failed: " + load.error);
    run.model = registry.lookup(load.key);
    run.history_len = reg_cfg.net_defaults.history_len;
    break;
  }
  fs::remove_all(root);
  run.fingerprint = first_csv;
  run.p50_ms = median(wall_ms);
  run.tail = tail(wall_ms);
  run.rate_per_s = static_cast<double>(plan.job_count()) / (run.p50_ms / 1e3);

  const auto* moe = moe_dqn_standing(report.leaderboard);
  if (moe == nullptr) throw std::runtime_error("leaderboard has no MoE+DQN standing");
  run.named = {{"lab_wall_s", run.p50_ms / 1e3, "s"},
               {"interruption_h", moe->mean_wait_h, "h"},
               {"zero_interruption_frac", moe->zero_fraction, "fraction"}};
  run.layers["lab.jobs_run"] = static_cast<double>(report.jobs_run);
  run.layers["lab.interruption_h"] = moe->mean_wait_h;
  run.layers["lab.zero_interruption_frac"] = moe->zero_fraction;
  std::printf("lab: %zu jobs x %zu runs on %zu threads; setup %.3f s; plan p50 %.0f ms, "
              "p%.4g %.0f ms; MoE+DQN interruption %.3f h, zero-interruption %.3f\n",
              plan.job_count(), wall_ms.size(), pool_threads(), run.setup_s, run.p50_ms,
              run.tail.pct, run.tail.value, moe->mean_wait_h, moe->zero_fraction);
  std::printf("%s", report.leaderboard.format_table().c_str());
  return run;
}

WorkloadRun run_lab_cell_probe(const RunContext& ctx) {
  using mirage::core::Method;
  WorkloadRun run;
  const auto plan = lab_plan(ctx.seed, 1);
  const auto cell = plan.matrix.expand().front();
  mirage::core::MiragePipeline pipeline(mirage::lab::cell_pipeline_config(plan, cell));
  const auto timed = [](const char* layer, const char* name, auto&& fn) {
    const double t0 = now_s();
    ScopedSpan span(layer, name);
    fn();
    return now_s() - t0;
  };
  auto& L = run.layers;
  L["core.prepare_s"] = timed("core", "prepare", [&] {
    pipeline.prepare(mirage::scenario::build_workload(cell));
  });
  L["core.collect_s"] = timed("core", "collect_offline", [&] { pipeline.collect_offline(); });
  L["ml.train_rf_s"] = timed("ml", "train_random_forest", [&] {
    pipeline.train(Method::kRandomForest);
  });
  L["rl.train_moe_dqn_s"] = timed("rl", "train_moe_dqn", [&] { pipeline.train(Method::kMoeDqn); });
  std::vector<mirage::core::MethodEval> evals;
  L["core.evaluate_s"] = timed("core", "evaluate", [&] {
    evals = pipeline.evaluate({Method::kReactive, Method::kRandomForest, Method::kMoeDqn});
  });
  L["lab.jobs_run"] = static_cast<double>(evals.size());
  L["lab.interruption_h"] = evals[2].overall.interruption_hours.mean();
  L["lab.zero_interruption_frac"] = evals[2].overall.zero_interruption_fraction();
  return run;
}

}  // namespace perfbench
