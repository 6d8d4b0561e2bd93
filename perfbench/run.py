#!/usr/bin/env python3
"""Benchmark of the dgcf package, run from the repository root.

    python3 perfbench/run.py --workload train_deep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --write-manifest        # regenerate BENCHMARK.json

With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run. The lines before it name every metric with its unit,
the failure ratio and the machine. --smoke runs a tiny corpus with a few
operations per phase. The package is imported from ./src of the checkout;
BLAS threads are capped at the number of usable cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def print_metrics(metrics: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {spec.UNITS[name]}")


def run_one(args) -> int:
    if not (SRC / "dgcf" / "__init__.py").is_file():
        print(f"error: no dgcf package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import bench  # imports numpy, so only after the thread cap

    import dgcf
    if Path(dgcf.__file__).resolve().parent != (SRC / "dgcf").resolve():
        print(f"error: dgcf imported from {dgcf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    name = ("smoke-" if args.smoke else "") + args.workload
    work = WORK / name
    run = bench.BenchRun(spec.WORKLOADS[args.workload], args.seed, args.seconds, args.smoke,
                         ROOT, work)
    if args.worker is not None:  # one part of an end-to-end run, on its parent's set-up
        print(json.dumps(run.worker_part(args.worker)))
        return 0
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    metrics = run.per_layer() if args.trace else run.end_to_end(Path(__file__).resolve())
    facts = bench.machine_facts()
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": spec.UNITS[k]} for k, v in metrics.items()}}
    (work / "report.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "machine": facts, **result}, indent=1) + "\n",
        encoding="utf-8")
    for setup_dir in work.glob("setup*"):
        shutil.rmtree(setup_dir)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print_metrics(metrics)
    print(f"  fail_ratio = {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} operations)")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other; one table at the end."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    # SIGTERM unwinds like an error, so subprocess.run kills and reaps the child it waits on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny corpus, few operations")
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json from perfbench/spec.py and exit")
    args = ap.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n",
                                             encoding="utf-8")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
