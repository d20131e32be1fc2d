#!/usr/bin/env python3
"""Run the csl benchmark.

    python3 perfbench/run.py --workload mest_tcp --seed 0 --seconds 30 --trace 0

runs one workload in a child process and passes its output through; the last
line is the JSON result. Without ``--workload`` it runs every workload, plain
and traced, prints each metric by name and unit with its sample count, and
with ``--record FILE`` writes the environment record and all metrics to FILE
(see baseline.json). Run it from anywhere; it reads the package from the
``src`` tree beside this directory.

The launcher pins the BLAS thread count of its children before numpy loads,
so that runs do not depend on how many cores the BLAS library detects.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mest_tcp", "bayes_posterior", "lasso_hd")
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run measures for --seconds and then finishes its last trial; this bounds
# the whole child, warm-up and checks included.
CHILD_TIMEOUT_S = 175


def child(args: list[str]) -> tuple[int, str]:
    """Run harness.py with pinned BLAS threads; returns (exit code, stdout)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})
    with subprocess.Popen([sys.executable, os.path.join(HERE, "harness.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"perfbench: {' '.join(args)} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1, ""
    return proc.returncode, out


def result_of(out: str) -> dict | None:
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_all(seed: int, seconds: float, record: str | None) -> int:
    workloads = {}
    status = 0
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            code, out = child(["--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)])
            sys.stdout.write(out)
            result = result_of(out)
            if code != 0 or result is None:
                status = 1
            if result is not None:
                key = "per_layer" if trace else "end_to_end"
                entry[key] = result.pop("metrics")
                entry[key + "_run"] = result
        workloads[name] = entry
    blockers = roadmap_blockers(workloads)
    print("summary (end-to-end, untraced):")
    for name, entry in workloads.items():
        run = entry.get("end_to_end_run", {})
        attempted = run.get("attempted", 0)
        print(f"  {name}: attempted={attempted} failed_frac="
              f"{run.get('failed', 0) / attempted if attempted else float('nan'):.3f}")
        for metric, value in entry.get("end_to_end", {}).items():
            print(f"    {metric:<20} {value['value']:>14.6g} {value['unit']}")
    for key, value in blockers.items():
        print(f"  {key}: {value:.4f}")
    if record:
        code, out = child(["--environment"])
        status = status or code
        with open(record, "w", encoding="utf-8") as f:
            json.dump({"environment": result_of(out), "seed": seed, "seconds": seconds,
                       "roadmap_blockers": blockers, "workloads": workloads}, f, indent=1)
            f.write("\n")
    return status


def roadmap_blockers(workloads: dict) -> dict:
    """The two ROADMAP blockers as shares of traced wall time."""
    shares = {}
    bayes = workloads.get("bayes_posterior", {}).get("per_layer")
    if bayes:
        shares["bayes_posterior losses.value_s / trial_s"] = (
            bayes["losses.value_s"]["value"] / bayes["trace.trial_s"]["value"])
    mest = workloads.get("mest_tcp", {}).get("per_layer")
    if mest:
        shares["mest_tcp (shard_encode_s + shard_decode_s) / setup_s"] = (
            (mest["transport.shard_encode_s"]["value"] + mest["transport.shard_decode_s"]["value"])
            / mest["trace.setup_s"]["value"])
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the csl benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; default: all, plain and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with all workloads: write metrics and "
                                         "environment to this JSON file")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.record)
    code, out = child(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
