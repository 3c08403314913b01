#!/usr/bin/env python3
"""Mirage benchmark: one command for every workload and metric.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls rebuild incrementally. The workload binary prints a host fingerprint,
human-readable tables and, as its last stdout line, the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The exit
code is nonzero when a build fails or any output check fails.

Workloads: serve-real, serve-journal, sweep, lab (see BENCHMARK.json and
perfbench/README.md for why each exists and what each metric should move);
--workload all runs them in turn. The result must name exactly the metrics
BENCHMARK.json declares, or the run fails. --self-test runs the benchmark's
own statistics checks instead.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-real", "serve-journal", "sweep", "lab")
# Leaves headroom under the 180 s a run may take, build excluded.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "serve", "service.hpp")):
        fail(f"Mirage sources not found under {root}/src")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))


def git_describe(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (no git metadata)"
    result = subprocess.run(["git", "-C", root, "describe", "--always", "--dirty", "--tags"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return result.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(root, build_dir)

    if args.self_test:
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_stats_test")]).returncode)

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    env = dict(os.environ, PERFBENCH_GIT_DESCRIBE=git_describe(root))
    code = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code = max(code, run_workload(build_dir, workload, args, env, wanted))
    sys.exit(code)


def run_workload(build_dir, workload, args, env, wanted):
    """Run one workload, echoing its output; check the result names every
    metric BENCHMARK.json declares for this mode."""
    workdir = os.path.join(build_dir, f"run-{workload}-{os.getpid()}")
    cmd = [os.path.join(build_dir, "mirage_perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--trace-file", os.path.join(build_dir, f"trace-{workload}.json")]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the child
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = result.stdout.splitlines()
    body, last = lines[:-1], (lines[-1] if lines else "")
    sys.stdout.write("".join(line + "\n" for line in body))
    try:
        names = list(json.loads(last)["metrics"])
    except (ValueError, KeyError, TypeError):
        names = None
    if result.returncode == 0 and names != wanted:
        print(f"perfbench: {workload} reported {names}, BENCHMARK.json declares {wanted}",
              file=sys.stderr)
        return 4
    if last:
        print(last)
    return result.returncode


if __name__ == "__main__":
    main()
