"""One workload process: set up, measure, and in the traced run also trace and sweep.

Started by ``run.py``; prints one JSON object as its last line:

    python benchmarks/worker.py --workload W --seed S --seconds R --trace 0|1
                                --spawned-at T [--first-op I]
                                [--min-samples N --max-seconds M]

``--spawned-at`` is ``time.monotonic()`` in the parent just before it started
this process; on Linux that clock is system-wide, so set-up time counts the
interpreter start as well. An untraced worker measures for R seconds and
returns its latencies, raw and scaled to the reference host speed
(``hostspeed``); ``run.py`` pools those of several workers, each starting its
cycle through the operations where the last one stopped. It goes on past R,
up to M seconds, until N operations have run.
"""

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "tests"))  # the oracle, imported read-only

import hostspeed  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli", "files-n3", "pigeonhole-n")
PROBE_REPS = 3

# layers whose self time the traced loop reports, per operation and as a share
SELF_LAYERS = ["scenario_io.parse", "scenario_io.render", "scenarios.run_scenario",
               "projectors.build_projector", "projectors.build_hamiltonian",
               "projectors.checks", "engine", "hilbert.tensor", "hilbert.apply",
               "hilbert.matrix_element"]
ENGINE_CALLS = ["abl_amplitude", "abl_probabilities", "weak_value", "weak_value_sum",
                "detailed_probability", "global_probability", "transition_element"]


def build_ops(twobox, workload, seed, launcher):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        return workloads.cli_ops(twobox, rng, str(ROOT), str(OUT_DIR), seed, launcher)
    if workload == "files-n3":
        return workloads.files_ops(twobox, rng)
    return workloads.pigeonhole_ops(twobox, rng)


def warm_up(ops):
    for op in ops:
        try:
            op.reference = op.warm()
        except Exception as exc:  # reported as a wrong output by verify_references
            op.reference = exc


def verify_references(ops, workload):
    problems = []
    for op in ops:
        if isinstance(op.reference, Exception):
            op.problems = [f"raised {op.reference!r}"]
            problems.append(f"{op.key}: raised {op.reference!r}")
            continue
        try:
            op.problems = op.verify(op.reference)
        except Exception as exc:  # a malformed output is a wrong output
            op.problems = [f"unreadable output: {exc!r}"]
        problems += [f"{op.key}: {p}" for p in op.problems]
    if workload == "files-n3" and not workloads.spin_matches_box(ops):
        problems.append("spin-relabel numbers differ from pigeonhole3")
    return problems


def digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(repr(op.reference).encode("utf-8"))
    return h.hexdigest()


def measure(ops, seconds, call, min_samples=0, max_seconds=0, first_op=0):
    """Closed loop, one client: the next operation starts when the last returns.

    Cycles through ``ops`` from index ``first_op``. Runs for ``seconds``, and
    on past that until ``min_samples`` operations have run or ``max_seconds``
    have passed. Each operation is timed in ms, raw and scaled by the mean of
    the host speed probes (``hostspeed``) taken just before and just after it.
    """
    raw_ms, probes, failures = [], [], []
    begin = time.perf_counter()
    deadline, cap = begin + seconds, begin + max_seconds
    i = first_op
    while (time.perf_counter() < deadline
           or (i - first_op < min_samples and time.perf_counter() < cap)):
        op = ops[i % len(ops)]
        probes.append(hostspeed.probe_ms())
        start = time.perf_counter_ns()
        try:
            output = call(i, op)
        except Exception as exc:  # counted as a failed operation, the loop goes on
            output = exc
        raw_ms.append((time.perf_counter_ns() - start) / 1e6)
        if not op.ok(output):
            failures.append(f"{op.key}: {output!r}"[:300])
        i += 1
    probes.append(hostspeed.probe_ms())
    scaled_ms = [hostspeed.scaled(ms, (before + after) / 2)
                 for ms, before, after in zip(raw_ms, probes, probes[1:])]
    verified = len(raw_ms) - len(failures)
    return {"raw_ms": raw_ms, "scaled_ms": scaled_ms, "failures": failures,
            "ops_per_s": verified / (sum(scaled_ms) / 1000)}


def peak_rss_mb(workload):
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli"
                               else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024


def import_probe(cli_op):
    """``-X importtime`` of the file-run command, median of a few children."""
    runs = defaultdict(list)
    argv = cli_op.key.split(" ")  # "run <file>": a key without inner spaces
    for _ in range(PROBE_REPS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "twobox", *argv],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        self_us, cumulative_us = defaultdict(int), {}
        for line in done.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            name = parts[2].strip()
            self_us[name] += int(parts[0])
            cumulative_us[name] = int(parts[1])
        runs["numpy_ms"].append(cumulative_us.get("numpy", 0) / 1000)
        runs["jsonschema_ms"].append(cumulative_us.get("jsonschema", 0) / 1000)
        runs["twobox_ms"].append(cumulative_us.get("twobox", 0) / 1000)
        runs["twobox_self_ms"].append(sum(v for k, v in self_us.items()
                                          if k == "twobox" or k.startswith("twobox.")) / 1000)
    return {f"cli.import.{k}": statistics.median(v) for k, v in runs.items()}


def cli_probe(cli_ops, call, label):
    """``call`` on each of the five cli commands; ms per call, median of a few passes."""
    reps, problems = [], []
    for rep in range(PROBE_REPS):
        start = time.perf_counter()
        outputs = [call(op) for op in cli_ops]
        reps.append((time.perf_counter() - start) * 1000 / len(cli_ops))
        if rep == 0:
            for op, output in zip(cli_ops, outputs):
                problems += [f"{label} {op.key}: {p}" for p in op.verify(output)]
    return statistics.median(reps), problems


def layer_metrics(spans, traced):
    ops = len(traced["raw_ms"])
    wall_ns = sum(traced["raw_ms"]) * 1e6
    self_ns, calls, sizes = defaultdict(int), defaultdict(int), defaultdict(int)
    for _, name, _, _, _, _, span_self, size in spans:
        layer = "engine" if name.startswith("engine.") else name
        self_ns[layer] += span_self
        calls[name] += 1
        sizes[name] += size
    out = {}
    for layer in SELF_LAYERS:
        out[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / ops
        out[f"{layer}.share"] = self_ns[layer] / wall_ns
    out["projectors.build_projector.calls"] = calls["projectors.build_projector"] / ops
    out["projectors.build_projector.dense_bytes"] = sizes["projectors.build_projector"] / ops
    for fn in ENGINE_CALLS:
        out[f"engine.{fn}.calls"] = calls[f"engine.{fn}"] / ops
    return out


def traced_run(twobox, args, ops, launcher):
    """Half the time untraced, half traced, then probes and the layer sweep."""
    half = args.seconds / 2
    plain = measure(ops, half, lambda i, op: op.run())
    tracer = tracing.Tracer()
    if args.workload == "cli":
        span_file = str(OUT_DIR / "cli-child-spans.jsonl")
        launcher[:] = [sys.executable, str(Path(__file__).with_name("cli_child.py")), span_file]

        def call(i, op):
            tracer.op = i
            Path(span_file).unlink(missing_ok=True)
            return tracer.call("op", lambda: (op.run(), tracer.adopt(span_file))[0])
        traced = measure(ops, half, call)
    else:
        def call(i, op):
            tracer.op = i
            return tracer.call("op", op.run)
        tracer.install()
        try:
            traced = measure(ops, half, call)
        finally:
            tracer.uninstall()
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    # the cli probes run in every workload's traced run, because each traced
    # run must report every per-layer metric; shares are over cli children
    launcher[:] = [sys.executable, "-m", "twobox"]
    cli_ops = ops if args.workload == "cli" else build_ops(twobox, "cli", args.seed, launcher)
    metrics = import_probe(cli_ops[-1])
    # in-process twobox.cli.main, stdout captured, and python -m twobox children
    metrics["cli.main_ms"], problems = cli_probe(cli_ops, lambda op: op.warm(), "cli.main")
    child_ms, more = cli_probe(cli_ops, lambda op: op.run(), "cli child")
    problems += more
    metrics["cli.import.share"] = metrics["cli.import.twobox_ms"] / child_ms
    metrics["cli.main.share"] = metrics["cli.main_ms"] / child_ms
    metrics.update(layer_metrics(tracer.spans, traced))
    metrics["trace.overhead_ratio"] = traced["ops_per_s"] / plain["ops_per_s"]
    fixed_doc = workloads.pigeonhole_doc(3, random.Random(0))
    rows, sweep_problems = sweep.run(twobox, fixed_doc)
    metrics.update(rows)
    return [plain, traced], metrics, problems + sweep_problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--min-samples", type=int, default=0)
    parser.add_argument("--max-seconds", type=float, default=0)
    parser.add_argument("--first-op", type=int, default=0)
    args = parser.parse_args()

    import twobox
    import twobox.cli
    if not Path(twobox.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"twobox imported from {twobox.__file__}, not from {ROOT / 'src'}")

    OUT_DIR.mkdir(exist_ok=True)
    start = time.monotonic()
    launcher = [sys.executable, "-m", "twobox"]
    ops = build_ops(twobox, args.workload, args.seed, launcher)
    own_work_s = time.monotonic() - start
    warm_up(ops)
    setup_s = time.monotonic() - args.spawned_at - own_work_s
    result = {"setup_s": hostspeed.scaled(setup_s, hostspeed.probe_ms()), "raw_setup_s": setup_s,
              "digest": digest(ops)}

    problems = verify_references(ops, args.workload)
    if args.trace:
        loops, metrics, more = traced_run(twobox, args, ops, launcher)
        problems += more
        result["metrics"] = metrics
    else:
        loops = [measure(ops, args.seconds, lambda i, op: op.run(),
                         args.min_samples, args.max_seconds, args.first_op)]
        result.update(raw_ms=loops[0]["raw_ms"], scaled_ms=loops[0]["scaled_ms"],
                      peak_rss_mb=peak_rss_mb(args.workload))
    result.update(
        attempted=sum(len(loop["raw_ms"]) for loop in loops),
        failed=sum(len(loop["failures"]) for loop in loops),
        samples=len(loops[0]["raw_ms"]),
        problems=problems + [f for loop in loops for f in loop["failures"][:5]],
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
