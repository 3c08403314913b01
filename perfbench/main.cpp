// mirage_perfbench: one workload per invocation.
//
//   mirage_perfbench --workload <serve-real|serve-journal|sweep|lab>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --workdir <dir> [--trace-file <path>]
//
// --trace 0 measures the workload and prints the end-to-end metrics.
// --trace 1 measures it untraced, then again with spans on, then runs the
// layer probes, and prints the per-layer metrics; the spans are written as
// Chrome-trace JSON to --trace-file and validated. Either way the last
// stdout line is the result object; the exit code is nonzero when any
// output check failed.
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "host.hpp"
#include "obs/trace.hpp"
#include "spans.hpp"
#include "util/strconv.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: one meaning on every workload (see WorkloadRun).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"p50_ms", "ms"}, {"tail_ms", "ms"}, {"rate_per_s", "1/s"},
    {"peak_rss_mb", "MB"}};

// Per-layer metrics, printed by every traced run.
constexpr MetricDef kPerLayer[] = {
    {"serve.observe_us_p50", "us"},      {"serve.observe_us_p99", "us"},
    {"serve.submit_us_p99", "us"},       {"serve.open_us_p99", "us"},
    {"serve.close_us_p99", "us"},        {"serve.engine_latency_p99_ms", "ms"},
    {"serve.queue_depth_max", "count"},  {"serve.engine_forward_ms", "ms"},
    {"serve.engine_busy_frac", "fraction"}, {"serve.engine_mean_batch", "count"},
    {"serve.engine_ticks", "count"},     {"serve.evictions", "count"},
    {"serve.sweep_wakeups", "count"},    {"serve.restart_s", "s"},
    {"nn.infer_b1_us", "us"},            {"nn.infer_b64_us", "us"},
    {"nn.gemm_gflops_t1", "GFLOP/s"},    {"nn.gemm_gflops_tmax", "GFLOP/s"},
    {"rl.encode_us", "us"},              {"rl.train_moe_dqn_s", "s"},
    {"ml.train_rf_s", "s"},              {"core.prepare_s", "s"},
    {"core.collect_s", "s"},             {"core.evaluate_s", "s"},
    {"wal.append_us", "us"},             {"wal.commit_us", "us"},
    {"wal.journal_records", "count"},    {"wal.journal_mb", "MB"},
    {"wal.recover_records_per_s", "records/s"}, {"trace.build_workload_ms", "ms"},
    {"sim.run_ms", "ms"},                {"sim.passes", "count"},
    {"sim.pass_us", "us"},               {"scenario.cell_ms_p50", "ms"},
    {"scenario.cell_ms_max", "ms"},      {"scenario.parallel_eff", "fraction"},
    {"lab.jobs_run", "count"},           {"lab.interruption_h", "h"},
    {"lab.zero_interruption_frac", "fraction"}, {"loadgen.late_p99_ms", "ms"},
    {"bench.trace_overhead_frac", "fraction"}};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string workdir;
  std::string trace_file;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = std::stoi(value);
    else if (key == "--workdir") a.workdir = value;
    else if (key == "--trace-file") a.trace_file = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty() || a.seconds <= 0 || (a.trace != 0 && a.trace != 1) ||
      a.workdir.empty()) {
    throw std::invalid_argument(
        "usage: mirage_perfbench --workload W --seed N --seconds S --trace 0|1 --workdir D "
        "[--trace-file F]");
  }
  return a;
}

std::function<WorkloadRun(const RunContext&)> workload_fn(const std::string& name) {
  if (name == "serve-real") return run_serve_real;
  if (name == "serve-journal") return run_serve_journal;
  if (name == "sweep") return run_sweep;
  if (name == "lab") return run_lab;
  throw std::invalid_argument("unknown workload " + name);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void merge(LayerMap& into, const LayerMap& from) {
  for (const auto& [k, v] : from) into.emplace(k, v);
}

std::string result_json(const OpCounts& ops, const LayerMap& values, const MetricDef* defs,
                        std::size_t n) {
  std::string out = "{\"correct\": ";
  out += ops.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    out += i ? ", " : "";
    out += "\"" + std::string(defs[i].name) + "\": {\"value\": " +
           mirage::util::format_double_exact(values.at(defs[i].name)) + ", \"unit\": \"" +
           defs[i].unit + "\"}";
  }
  return out + "}}";
}

int run(const Args& args) {
  const std::string host = host_fingerprint_json();
  std::printf("host %s\n", host.c_str());
  std::filesystem::create_directories(args.workdir);
  RunContext ctx{args.seed, args.seconds, args.workdir};
  const auto workload = workload_fn(args.workload);

  LayerMap values;
  OpCounts ops;
  if (args.trace == 0) {
    const WorkloadRun r = workload(ctx);
    ops = r.ops;
    values["setup_s"] = r.setup_s;
    values["p50_ms"] = r.p50_ms;
    values["tail_ms"] = r.tail.value;
    values["rate_per_s"] = r.rate_per_s;
    values["peak_rss_mb"] = peak_rss_mb();
    std::printf("tail_ms is p%.4g of %zu samples\n", r.tail.pct, r.tail.samples);
    for (const auto& m : kEndToEnd) std::printf("%-28s %16.6g %s\n", m.name, values[m.name], m.unit);
    for (const auto& m : r.named) {
      std::printf("%-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%-28s %16.6g fraction (%llu of %llu operations)\n", "fail_frac",
                r.ops.fail_frac(), static_cast<unsigned long long>(r.ops.failed()),
                static_cast<unsigned long long>(r.ops.attempted));
    std::printf("%s\n", result_json(ops, values, kEndToEnd, std::size(kEndToEnd)).c_str());
    return ops.correct() ? 0 : 1;
  }

  // Traced run: untraced baseline, traced pass, then probes for every
  // layer the workload does not exercise itself.
  const WorkloadRun base = workload(ctx);
  clear_spans();
  set_tracing(true);
  WorkloadRun traced = workload(ctx);
  ops = base.ops;
  ops += traced.ops;
  if (traced.fingerprint != base.fingerprint) ++ops.mismatched;
  values = traced.layers;
  WorkloadRun probe_source = traced;
  if (!values.count("serve.restart_s")) {
    const WorkloadRun s = run_serve_probe(ctx);
    ops += s.ops;
    merge(values, s.layers);
    if (!probe_source.model) probe_source = s;
  }
  if (!values.count("sim.run_ms")) {
    const WorkloadRun s = run_sweep_probe(ctx);
    ops += s.ops;
    merge(values, s.layers);
  }
  if (!values.count("core.prepare_s")) merge(values, run_lab_cell_probe(ctx).layers);
  run_layer_probes(ctx, probe_source, values);
  set_tracing(false);
  values["bench.trace_overhead_frac"] = traced.p50_ms / base.p50_ms - 1.0;

  if (args.workload.rfind("serve", 0) == 0) {
    // Share of engine busy time the NN forward accounts for, from the
    // B=1 and B=64 forward times interpolated at the mean batch.
    const double b = values["serve.engine_mean_batch"];
    const double infer_us = values["nn.infer_b1_us"] +
                            (values["nn.infer_b64_us"] - values["nn.infer_b1_us"]) * (b - 1) / 63;
    std::printf("attribution: nn forward ~ %.0f%% of engine busy time (mean batch %.1f); "
                "forward per decision %.1f us vs observe p50 %.1f us\n",
                100.0 * infer_us / (values["serve.engine_forward_ms"] * 1e3), b,
                values["serve.engine_forward_ms"] * 1e3 / b, values["serve.observe_us_p50"]);
  }

  const auto spans = spans_snapshot();
  std::printf("self time by layer (traced pass and probes, %zu spans, %llu dropped):\n",
              spans.size(), static_cast<unsigned long long>(spans_dropped()));
  for (const auto& [layer, s] : self_seconds_by_layer(spans)) {
    std::printf("  %-10s %10.3f s\n", layer.c_str(), s);
  }
  const std::string json = to_chrome_json(spans, host);
  std::string error;
  ++ops.attempted;
  if (!mirage::obs::validate_chrome_trace(json, &error)) {
    std::fprintf(stderr, "chrome trace invalid: %s\n", error.c_str());
    ++ops.mismatched;
  }
  if (!args.trace_file.empty()) std::ofstream(args.trace_file) << json;

  for (const auto& m : kPerLayer) {
    if (!values.count(m.name)) throw std::logic_error(std::string("no value for ") + m.name);
    std::printf("%-30s %16.6g %s\n", m.name, values[m.name], m.unit);
  }
  std::printf("%s\n", result_json(ops, values, kPerLayer, std::size(kPerLayer)).c_str());
  return ops.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mirage_perfbench: %s\n", e.what());
    return 2;
  }
}
