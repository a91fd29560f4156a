#!/usr/bin/env python3
"""Benchmark entry point for attnpool; run it from the root of a checkout.

    python3 perfbench/run.py --workload desk_cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run starts a worker process on the checkout's src/ with BLAS pinned
to one thread (set here, in the worker's environment, never by the
program), waits for it, and prints its output; the last line is the
result object {"correct", "attempted", "failed", "metrics"}.  The
metrics are the end-to-end ones of BENCHMARK.json with --trace 0 and the
per-layer ones with --trace 1.  Scratch files live under .perfbench_out/
and are removed when the run ends.

--smoke runs every workload untraced and traced at tiny sizes and checks
that each prints exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def expected_metrics(trace: int) -> dict:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload: str, seed: int, seconds: float, trace: int, size: str) -> tuple:
    """Run one workload in a worker; returns (other output lines, result object)."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "attnpool", "__init__.py")):
        raise BenchError(f"no attnpool package under {src}; run from a checkout's root")
    env = {k: v for k, v in os.environ.items() if k != "ATTNPOOL_SEED"}
    env.update(PINNED)
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    workdir = os.path.abspath(os.path.join(OUT_DIR, f"{workload}-{seed}-{trace}-{os.getpid()}"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S}s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise BenchError(f"metrics {sorted(got)} differ from BENCHMARK.json {sorted(want)}")
    return lines[:-1], result


def smoke() -> int:
    failures = 0
    for workload in ("desk_cli", "paper_step", "desk_cbp"):
        for trace in (0, 1):
            try:
                _, result = run_once(workload, seed=1, seconds=1, trace=trace, size="tiny")
                ok = result["correct"] and result["failed"] == 0
            except BenchError as exc:
                print(f"{workload} trace={trace}: {exc}")
                ok = False
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace}")
            failures += not ok
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("desk_cli", "paper_step", "desk_cbp"))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    try:
        lines, result = run_once(args.workload, args.seed, args.seconds, args.trace, "full")
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
