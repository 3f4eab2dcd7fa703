"""Layer sweep: single layers timed at several particle counts, traced run only.

A dense ``all_same`` build (the package's construction when this sweep was
written) takes 5-9 s and about 0.8 GB at n=11, so n=11 is timed once and
appears nowhere else; smaller n take the median of a few repetitions.
Results are checked against the oracle where it is cheap.
"""

import statistics
import time

import expect
import oracle

SWEEP_NS = (3, 6, 9, 11)
SMALL_NS = (3, 6, 9)  # completeness checks stay below n=11
KIND_ARGS = {"box": dict(particle=1, box="L"), "pair_same": dict(pair=(1, 2)),
             "pair_diff": dict(pair=(1, 2)), "all_same": {}, "sd": dict(pair=(1, 2), other=3)}


def _time_ms(fn, reps):
    times, result = [], None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times), result


def run(twobox, fixed_doc):
    """Returns (rows, problems): sweep metric name -> ms, and oracle mismatches."""
    rows, problems = {}, []
    make = twobox.make_single_particle_state
    for n in SWEEP_NS:
        reps = 1 if n == 11 else 5
        ops = {}
        for kind, args in KIND_ARGS.items():
            spec = twobox.ProjectorSpec(kind, n, **args)
            rows[f"sweep.build_projector.{kind}.n{n}_ms"], op = _time_ms(
                lambda: twobox.build_projector(spec), reps)
            if list(op.diagonal().real) != oracle.diagonal(spec):
                problems.append(f"build_projector {kind} n={n}: diagonal differs")
            # keep only what the brackets below use: at n=11 each operator holds 64 MB
            if kind in ("pair_same", "pair_diff", "all_same"):
                ops[kind] = op
        rows[f"sweep.tensor.n{n}_ms"], pre = _time_ms(
            lambda: twobox.tensor([make("+")] * n), reps)
        post = twobox.tensor([make("+i")] * n)
        sel = twobox.PrePostSelection(pre, post)
        rows[f"sweep.abl_amplitude.n{n}_ms"], amp = _time_ms(
            lambda: twobox.abl_amplitude(sel, ops["all_same"]), reps)
        o_pre, o_post = oracle.product_state(["+"] * n), oracle.product_state(["+i"] * n)
        every = twobox.ProjectorSpec("all_same", n)
        if abs(amp - oracle.bracket(o_post, oracle.condition(every), o_pre, n)) > expect.TOL:
            problems.append(f"abl_amplitude n={n} differs from the oracle")
        if n in SMALL_NS:
            pair = [ops["pair_same"], ops["pair_diff"]]
            measurement = twobox.MeasurementSet(pair)
            rows[f"sweep.abl_probabilities.n{n}_ms"], result = _time_ms(
                lambda: twobox.abl_probabilities(sel, measurement), reps)
            rows[f"sweep.is_resolution_of_identity.n{n}_ms"], complete = _time_ms(
                lambda: twobox.is_resolution_of_identity(pair), reps)
            if not complete or abs(sum(result.probabilities) - 1) > expect.TOL:
                problems.append(f"completeness n={n} failed")
    for scenario in twobox.builtin_scenarios():
        rows[f"sweep.run_scenario.{scenario.name}_ms"], _ = _time_ms(
            lambda: twobox.run_scenario(scenario), 5)
    rows["sweep.parse_scenario_document.n3_ms"], parsed = _time_ms(
        lambda: twobox.parse_scenario_document(fixed_doc), 5)
    report = twobox.run_scenario(parsed)
    rows["sweep.render_report_json.n3_ms"], _ = _time_ms(
        lambda: twobox.render_report_json(report), 5)
    return rows, problems
