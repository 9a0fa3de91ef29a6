#!/usr/bin/env python3
"""Pipeline benchmark entry point.

    python3 perfbench/run.py --workload steady_forecast --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. Builds perfbench/ (and the Marlin libraries
it links) into $CARGO_TARGET_DIR, default .bench_build, then runs the
pipeline_bench on one workload and prints, as the last stdout line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

pipeline_bench repeats set-up, the timed closed loop over a fixed stream
window and the output checks on fresh pipelines over the same generated
input until --seconds have passed (at least three times) and reports their
medians.
--trace 0 reports the end-to-end metrics named in BENCHMARK.json; --trace 1
reports the per-layer metrics from a traced repetition, whose spans are
written under .bench_out/.

Output checks (in pipeline_bench, plus the recorded input hashes here) fail the
run: the result then carries "correct": false and the exit code is 1.
A human-readable table goes to stderr.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 160


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds pipeline_bench; returns its path or None."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = os.path.join(out, "pipeline_bench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            log(f"build: cannot run {cmd[0]}: {err}")
            return None
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            return None
    return binary if os.path.exists(binary) else None


def run_bench(binary, args):
    """Runs pipeline_bench and returns its JSON report (last stdout line)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pipeline_bench exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))
    if opts.workload not in workloads:
        log(f"unknown workload {opts.workload!r}")
        return 2
    declared = spec["per_layer"] if opts.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    start = time.monotonic()
    binary = build()
    if binary is None:
        return 1
    log(f"build: {time.monotonic() - start:.1f} s")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    base = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--out", out_dir]

    try:
        full = run_bench(binary, base + ["--trace", str(opts.trace)])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        log(f"run failed: {err}")
        return 1

    failures = list(full["failures"])
    known = workloads[opts.workload]["input_hash"].get(str(opts.seed))
    if known is not None and known != full["input_hash"]:
        failures.append(f"input hash {full['input_hash']} != recorded {known}")

    values = full["layers"] if opts.trace else full["e2e"]
    metrics = {}
    for name, unit in units.items():
        if name not in values:
            failures.append(f"metric {name} not measured")
            continue
        metrics[name] = {"value": values[name], "unit": unit}

    log(f"{opts.workload} seed={opts.seed} input={full['input_hash']}")
    for rep, c in full["reps"].items():
        log(f"  rep {rep}: fed={c['messages_fed']} "
            f"forecasts={c['forecasts_generated']} "
            f"events={c['events_detected']} slices={c['slices']} "
            f"setup={c['setup_s']:.3f}s cpu/msg={c['cpu_us_per_msg']:.2f}us "
            f"wall throughput={c['throughput_msg_s']:.0f}/s "
            f"steal={100 * c['steal_share']:.1f}%")
    if full["lagging_boundaries"]:
        log(f"  NOTE: forecasts_generated differed between repetitions at "
            f"{full['lagging_boundaries']} quiescent boundaries "
            f"(AwaitQuiescence returned early; see README)")
    for name, m in metrics.items():
        log(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    if opts.trace:
        log("  self time by span (s):")
        for name, t in full["self_times"].items():
            log(f"    {name:22s} n={t['count']:<9d} total={t['total_s']:.4f} "
                f"self={t['self_s']:.4f}")
    for f in failures:
        log(f"CHECK FAILED: {f}")

    result = {
        "correct": not failures,
        "attempted": int(full["attempted"]),
        "failed": int(full["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
