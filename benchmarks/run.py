"""The twobox benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload cli|files-n3|pigeonhole-n|all --seed N
                              --seconds S --trace 0|1

``--workload all`` runs every workload in turn and prefixes each metric with
its workload name.

Run from the root of a source checkout; the package is imported from
``src/`` and the oracle from ``tests/oracle.py``. Every process runs with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1.

With ``--trace 0`` the run starts ``WORKERS`` fresh processes one after
another; each sets up and then measures for S / ``WORKERS`` seconds. The run
reports the median of their set-up times and pools their latencies, so both
sample the whole run rather than one stretch of it. Every time is scaled to
a reference host speed by probes taken just before and after it
(``hostspeed.py``); the unscaled figures are printed too. Every process of
the run is pinned to one CPU. With ``--trace 1`` one process measures S/2
seconds untraced and S/2 traced, then runs the probes and the layer sweep. The last line of standard output is one JSON object;
the lines before it list each metric with its unit. See METRICS.md for what
each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli", "files-n3", "pigeonhole-n")
WORKERS = 5
MIN_SAMPLES = 100  # p90 needs at least ten latency samples beyond it
BUDGET_S = 175  # one workload's run must end within 180 s

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_ms.p50": "ms", "latency_ms.p90": "ms",
         "peak_rss_mb": "MB"}


def per_layer_unit(name):
    if name.endswith(".share") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".dense_bytes"):
        return "B/op"
    if name.endswith(".self_ms"):
        return "ms/op"
    return "ms"


def start_worker(workload, args, seconds, extra, deadline):
    spawned_at = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
         "--spawned-at", repr(spawned_at), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1, deadline - spawned_at))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"worker for {workload} exited with {done.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, args):
    """Returns the worker's result, metrics as name -> (value, unit), and problems."""
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        result = start_worker(workload, args, args.seconds, [], deadline)
        metrics = {name: (value, per_layer_unit(name)) for name, value in result["metrics"].items()}
        return result, metrics, result["problems"]
    workers, scaled, raw = [], [], []
    for k in range(WORKERS):
        # the last worker runs on, up to a whole run length, until MIN_SAMPLES in all
        extra = ["--first-op", str(len(raw))] + ([] if k < WORKERS - 1 else [
            "--min-samples", str(MIN_SAMPLES - len(raw)), "--max-seconds", repr(args.seconds)])
        workers.append(start_worker(workload, args, args.seconds / WORKERS, extra, deadline))
        scaled += workers[-1]["scaled_ms"]
        raw += workers[-1]["raw_ms"]
    problems = [p for w in workers for p in w["problems"]]
    if len({w["digest"] for w in workers}) != 1:
        problems.append("outputs differ between processes with the same seed")
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    metrics = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "ops_per_s": (attempted - failed) / (sum(scaled) / 1000),
        "latency_ms.p50": statistics.median(scaled),
        "latency_ms.p90": statistics.quantiles(scaled, n=10)[8],
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }
    result = {"attempted": attempted, "failed": failed, "samples": len(scaled),
              "raw": {"setup_s": statistics.median(w["raw_setup_s"] for w in workers),
                      "ops_per_s": (attempted - failed) / (sum(raw) / 1000),
                      "latency_ms.p50": statistics.median(raw),
                      "latency_ms.p90": statistics.quantiles(raw, n=10)[8]}}
    return result, {k: (v, UNITS[k]) for k, v in metrics.items()}, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "twobox" / "__init__.py", ROOT / "tests" / "oracle.py"):
        if not needed.is_file():
            sys.exit(f"missing {needed.relative_to(ROOT)}: run from a twobox source checkout")

    # inherited by the workers and by every process they start; one CPU for
    # all, because the two cores of the host slow down independently and the
    # host speed probe must read the core the operations run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONIOENCODING="utf-8")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    problems, metrics = [], {}
    for workload in chosen:
        result, found, trouble = run_workload(workload, args)
        attempted += result["attempted"]
        failed += result["failed"]
        problems += [f"{workload}: {p}" for p in trouble]
        print(f"workload {workload} seed {args.seed}: {result['attempted']} operations, "
              f"{result['failed']} failed, failed_ratio {result['failed'] / result['attempted']:g}, "
              f"{result['samples']} latency samples")
        if not args.trace:
            print("  unscaled, as timed on this host (not metrics): "
                  + ", ".join(f"{k} {v:.4g}" for k, v in result["raw"].items()))
            if result["samples"] < MIN_SAMPLES:
                print(f"warning: {workload}: {result['samples']} latency samples, fewer than "
                      f"{MIN_SAMPLES}; latency_ms.p90 has fewer than ten beyond it", file=sys.stderr)
        for name, (value, unit) in found.items():
            print(f"  {name} {value!r} {unit}")
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update((prefix + name, entry) for name, entry in found.items())

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
