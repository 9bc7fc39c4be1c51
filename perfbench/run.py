#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload production --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/;
later runs only re-check the build. The benchmark binary's report and
its final JSON line pass through to stdout; build output goes to
.bench_build/build.log. Traced runs write their spans to .bench_build/.

--smoke runs every workload at a seconds-long size, untraced and
traced, and checks that each emits exactly the named metrics with the
units BENCHMARK.json gives them, and no end-to-end metric of 0.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"
RUN_TIMEOUT_S = 170

WORKLOADS = ["production", "lognormal"]

# Every workload reports every metric: the end-to-end ones untraced,
# the per-layer ones traced (BENCHMARK.json lists them with units).
END_TO_END = ["setup_s", "peak_rss_mb", "sim_sched_gain", "sim_gpu_gain",
              "sim_goodput_qps", "sim_availability", "sim_p99_ms",
              "sim_machine_hours_saved"]

FLEET_BOOKS = ["admission.offered", "admission.dropped",
               "admission.degraded", "admission.retried",
               "admission.admit_frac", "faults.crashes", "faults.failovers",
               "faults.lost", "engine.requests", "engine.join_phases",
               "engine.cpu_util"]
SERVE_LAYERS = ["op.fc_s", "op.embedding_s", "op.interaction_s",
                "serve.requests", "serve.worker_busy_frac",
                "kernel.fc_gflops", "kernel.emb_gbps"]
PER_LAYER = (
    ["setup.machines_s", "setup.placement_s", "setup.trace_s",
     "setup.model_s", "trace.overhead_frac", "wall_s"] +
    # zoo_tune
    ["sched.baseline_s", "sched.tune_cpu_s", "sched.tune_gpu_s",
     "search.points", "search.ms_per_point"] +
    # fleet_day
    ["routing.calls", "routing.self_s", "routing.us_per_call",
     "routing.parts_per_call", "routing.empty_plans",
     "driver.static.self_s", "driver.elastic.self_s",
     "events.static", "events.elastic"] + FLEET_BOOKS +
    ["elastic." + m for m in FLEET_BOOKS] +
    ["hedge.sent", "hedge.wins", "hedge.win_frac", "scaling.calls",
     "scaling.self_s", "autoscale.scale_events", "autoscale.machine_s",
     "autoscale.lost", "obs.trace_events", "obs.write_s",
     "day.wall_s", "static_events_per_s", "elastic_events_per_s"] +
    # engine_serve
    ["serve_op_us_per_sample", "serve_p50_ms", "serve_p99_ms",
     "serve_miss_frac", "serve_qps_at_sla"] + SERVE_LAYERS +
    ["lo." + m for m in SERVE_LAYERS] + ["hi." + m for m in SERVE_LAYERS])


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; exit 1 on failure."""
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(BUILD / "perfbench"), "-j", jobs]]
    if not (BUILD / "perfbench" / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                         str(BUILD / "perfbench"),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(BUILD / "build.log", "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=out).returncode:
                log(f"build failed: {' '.join(step)} "
                    f"(see {BUILD / 'build.log'})")
                sys.exit(1)


def run(args):
    """Run the benchmark binary; return (exit code, stdout lines)."""
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(BUILD)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{args.workload} timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, out.splitlines()


def smoke():
    """Every workload, small, both modes: named metrics and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        problems.append("workloads: BENCHMARK.json and run.py differ")
    for kind, names in (("end_to_end", END_TO_END),
                        ("per_layer", PER_LAYER)):
        declared = {m["name"] for m in spec[kind]}
        if declared != set(names):
            problems.append(f"{kind}: BENCHMARK.json and run.py differ "
                            f"on {sorted(declared ^ set(names))}")
    for workload in WORKLOADS:
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            args = argparse.Namespace(workload=workload, seed=1,
                                      seconds=1, trace=trace, smoke=True)
            code, lines = run(args)
            if code != 0 or not lines:
                problems.append(f"{workload} trace={trace}: exit {code}")
                continue
            result = json.loads(lines[-1])
            got = result["metrics"]
            if set(got) != set(names):
                problems.append(
                    f"{workload} trace={trace}: metrics differ on "
                    f"{sorted(set(got) ^ set(names))}")
            for name, value in got.items():
                if value["unit"] != units.get(name):
                    problems.append(f"{workload}: {name} unit "
                                    f"{value['unit']} != {units.get(name)}")
                if trace == 0 and value["value"] == 0:
                    problems.append(f"{workload}: {name} is 0")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: not correct")
            log(f"smoke {workload} trace={trace}: {len(got)} metrics, "
                f"correct={result['correct']}")
    for p in problems:
        log(f"SMOKE FAILED: {p}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.smoke and args.workload is None:
        return smoke()
    code, lines = run(args)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
