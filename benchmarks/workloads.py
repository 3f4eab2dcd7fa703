"""Inputs and operations of each workload, generated from the seed.

An operation is a callable whose output is compared, after its timer stops,
with the output of the same operation in the warm-up pass; that reference is
checked once against the oracle (``expect``). So every timed operation must
reproduce, byte for byte, an output the oracle accepted.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess

import expect
import oracle

NAMED_STATES = ["L", "R", "+", "-", "+i", "-i", "plus", "minus", "plus_i", "minus_i"]
COEFFS = [[1, 0], [0.5, 0], [-1, 0], [2, 0], [0, 1], [1, -1], [0.25, 0.5]]
PIGEONHOLE_NS = (6, 7, 8)
FILE_DOCS = 24
CHILD_TIMEOUT_S = 60
CHECK_EXPR = "pair_same(1,2) + pair_same(2,3)"
CHECK_DOC = {"terms": [{"projector": {"kind": "pair_same", "pair": [1, 2]}},
                       {"projector": {"kind": "pair_same", "pair": [2, 3]}}]}


class Op:
    """One repeatable operation and the check of its output."""

    def __init__(self, key, run, verify, warm=None):
        self.key = key
        self.run = run
        self.warm = warm or run
        self.verify = verify  # output -> list of problems
        self.reference = None
        self.problems = None

    def ok(self, output):
        return not self.problems and output == self.reference


# scenario documents -------------------------------------------------------------

def _projector(n, rng, shape):
    kind = shape.choice(["box", "pair_same", "pair_diff", "all_same"] + (["sd"] if n >= 3 else []))
    if kind == "box":
        return {"kind": "box", "particle": rng.randint(1, n), "box": rng.choice("LR")}
    if kind == "all_same":
        return {"kind": "all_same"}
    i, j = rng.sample(range(1, n + 1), 2)
    if kind == "sd":
        other = rng.choice([k for k in range(1, n + 1) if k not in (i, j)])
        return {"kind": "sd", "pair": [i, j], "other": other}
    return {"kind": kind, "pair": [i, j]}


def _member(n, rng, shape):
    if shape.random() < 0.3:
        return [_projector(n, rng, shape), _projector(n, rng, shape)]
    return _projector(n, rng, shape)


def _complete_set(n, rng, shape, products=True):
    """Projectors that resolve the identity, as members or operator expressions."""
    i, j = rng.sample(range(1, n + 1), 2)
    box = lambda p, b: {"kind": "box", "particle": p, "box": b}
    choices = [
        [box(i, "L"), box(i, "R")],
        [{"kind": "pair_same", "pair": [i, j]}, {"kind": "pair_diff", "pair": [i, j]}],
    ]
    if n == 2:
        choices.append([{"kind": "all_same"}, {"kind": "pair_diff", "pair": [1, 2]}])
    else:
        choices.append([{"kind": "sd", "pair": [1, 2], "other": 3},
                        {"kind": "sd", "pair": [2, 3], "other": 1},
                        {"kind": "sd", "pair": [1, 3], "other": 2},
                        {"kind": "all_same"}])
    if products:
        choices.append([[box(i, a), box(j, b)] for a in "LR" for b in "LR"])
        if n >= 3:
            k = rng.choice([p for p in range(1, n + 1) if p not in (i, j)])
            same = {"kind": "pair_same", "pair": [i, j]}
            choices.append([[same, box(k, "L")], [same, box(k, "R")],
                            {"kind": "pair_diff", "pair": [i, j]}])
    members = list(shape.choice(choices))
    rng.shuffle(members)
    return members


def _opexpr(n, rng, shape):
    count = shape.choice([0, 0, 0, 1, 2, 3])
    if not count:
        return _projector(n, rng, shape)
    terms = []
    for _ in range(count):
        term = {"projector": _projector(n, rng, shape)}
        if shape.random() < 0.7:
            term["coeff"] = rng.choice(COEFFS)
        terms.append(term)
    return {"terms": terms}


def _state(rng, explicit):
    if not explicit:
        return rng.choice(NAMED_STATES)
    while True:
        c = [round(rng.uniform(-1, 1), 3) for _ in range(4)]
        if sum(x * x for x in c) > 0.2:
            return {"cL": c[:2], "cR": c[2:]}


def _eigenstate_query(n, rng, shape):
    op = _opexpr(n, rng, shape)
    diag = expect.operator_diagonal(op, n)
    labels = oracle.labels(n)
    if shape.random() < 0.3:
        b = rng.randrange(len(labels))
        eigenvalue = diag[b] if rng.random() < 0.7 else diag[b] + 1
        state = {"product": list(labels[b])}
    else:
        off_support = shape.random() < 0.25
        eigenvalue = rng.choice(diag)
        support = [k for k, d in enumerate(diag) if d == eigenvalue]
        outside = [k for k in range(len(diag)) if k not in support]
        if off_support and outside:
            support.append(rng.choice(outside))
        amps = [0j] * len(diag)
        for k in support:
            amps[k] = complex(round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3)) or 1 + 0j
        scale = math.sqrt(sum(oracle.abs2(a) for a in amps))
        state = {"amplitudes": [[a.real / scale, a.imag / scale] for a in amps]}
    return {"type": "predicate", "check": "eigenstate", "operators": [op],
            "state": state, "eigenvalue": [eigenvalue.real, eigenvalue.imag]}


def _predicate(n, rng, shape):
    check = shape.choice(["is_projector", "orthogonal", "resolution_of_identity", "eigenstate"])
    if check == "eigenstate":
        return _eigenstate_query(n, rng, shape)
    if check == "resolution_of_identity":
        operators = (_complete_set(n, rng, shape, products=False) if shape.random() < 0.6
                     else [_opexpr(n, rng, shape) for _ in range(shape.randint(2, 3))])
    else:
        operators = [_opexpr(n, rng, shape) for _ in range(1 if check == "is_projector" else 2)]
    return {"type": "predicate", "check": check, "operators": operators}


def file_doc(index, rng, n=None):
    """A 2- or 3-particle scenario document asking all seven query types.

    The document's shape (particle count, number and nesting of projectors,
    which checks) depends on ``index`` only and its content on ``rng``, so
    the cost of a pool of documents hardly varies with the seed.
    """
    shape = random.Random(index)
    n = n or 2 + index % 2
    explicit = [shape.random() < 0.3 for _ in range(2 * n)]
    while True:
        pre = [_state(rng, e) for e in explicit[:n]]
        post = [_state(rng, e) for e in explicit[n:]]
        # keep |<post|pre>| well above the tolerance so weak values stay O(10)
        if abs(oracle.overlap(expect.product(post), expect.product(pre), n)) >= 0.1:
            break
    queries = [
        {"type": "abl_amplitude", "projector": _member(n, rng, shape)},
        {"type": "abl_probabilities", "projectors": _complete_set(n, rng, shape)},
        {"type": "weak_value", "projector": _member(n, rng, shape)},
        {"type": "weak_value_sum",
         "projectors": [_member(n, rng, shape) for _ in range(shape.randint(2, 4))]},
        {"type": "detailed_vs_global", "members": [_member(n, rng, shape) for _ in range(2)]},
        {"type": "transition_element", "hamiltonian": [
            {"coeff": rng.choice(COEFFS), "projector": _projector(n, rng, shape)}
            for _ in range(shape.randint(1, 3))]},
        _predicate(n, rng, shape),
        _eigenstate_query(n, rng, shape),
    ]
    return {"name": f"generated-{index}", "particles": n, "labels": shape.choice(["box", "spin"]),
            "pre": pre, "post": post, "queries": queries}


def pigeonhole_doc(n, rng):
    """|+>^n preselected, |+i>^n postselected, amplitude-type queries only."""
    same = lambda p: {"kind": "pair_same", "pair": list(p)}
    every = {"kind": "all_same"}
    pairs = rng.sample(list(itertools.combinations(range(1, n + 1), 2)), 3)
    queries = [{"type": "abl_amplitude", "projector": same(p)} for p in pairs]
    queries += [
        {"type": "abl_amplitude", "projector": every},
        {"type": "abl_probabilities",
         "projectors": [same((1, 2)), {"kind": "pair_diff", "pair": [1, 2]}]},
        {"type": "weak_value", "projector": same(pairs[1])},
        {"type": "weak_value", "projector": every},
        {"type": "weak_value_sum", "projectors": [same(pairs[1]), same(pairs[2])]},
        {"type": "transition_element",
         "hamiltonian": [{"projector": same((k, k + 1))} for k in range(1, n)]},
    ]
    return {"name": f"pigeonhole-{n}", "particles": n, "pre": ["+"] * n, "post": ["+i"] * n,
            "queries": queries}


# operations ----------------------------------------------------------------------

def _report_problems(expected):
    return lambda text: expect.compare(expect.json_records(json.loads(text)), expected)


def document_op(twobox, doc):
    def run():
        scenario = twobox.scenario_io.parse_scenario_document(doc)
        return twobox.scenario_io.render_report_json(twobox.scenarios.run_scenario(scenario))
    return Op(doc["name"], run, _report_problems(expect.expected_report(doc)))


def builtin_op(twobox, name):
    def run():
        scenario = twobox.scenarios.lookup_scenario(name)
        return twobox.scenario_io.render_report_json(twobox.scenarios.run_scenario(scenario))
    doc = expect.scenario_doc(twobox.scenarios.lookup_scenario(name))
    return Op(name, run, _report_problems(expect.expected_report(doc)))


def files_ops(twobox, rng):
    ops = [document_op(twobox, file_doc(i, rng)) for i in range(FILE_DOCS)]
    ops += [builtin_op(twobox, s.name) for s in twobox.scenarios.builtin_scenarios()]
    rng.shuffle(ops)
    return ops


def pigeonhole_ops(twobox, rng):
    return [document_op(twobox, pigeonhole_doc(n, rng)) for n in PIGEONHOLE_NS]


def spin_matches_box(ops):
    """The spin-relabel report carries exactly the numbers of pigeonhole3."""
    refs = {op.key: op.reference for op in ops if op.key in ("spin-relabel", "pigeonhole3")}
    if not all(isinstance(r, str) for r in refs.values()):
        return False
    refs = {key: json.loads(text) for key, text in refs.items()}
    values = lambda doc: [[r["value"] for r in q["results"]] for q in doc["queries"]]
    return values(refs["spin-relabel"]) == values(refs["pigeonhole3"])


# command line ---------------------------------------------------------------------

def _in_process(twobox, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = twobox.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _subprocess(root, argv, launcher):
    done = subprocess.run(launcher + argv, cwd=root, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")


def _list_problems(names):
    def verify(output):
        code, out, err = output
        firsts = [line.split()[0] for line in out.splitlines() if line.strip()]
        if code != 0 or err or sorted(firsts) != sorted(names):
            return [f"list printed {firsts} with exit {code}, expected {names}"]
        return []
    return verify


def _run_problems(expected, table):
    want_code = 2 if any(r["error"] for r in expected) else 0

    def verify(output):
        code, out, err = output
        if code != want_code or err:
            return [f"exit {code} with stderr {err!r}, expected exit {want_code}"]
        if table:
            return expect.compare(expect.table_records(out), expected, expect.PRINTED)
        return expect.compare(expect.json_records(json.loads(out)), expected)
    return verify


def _check_problems(output):
    code, out, err = output
    verdict, hermitian, defect = expect.projector_verdicts(expect.operator_diagonal(CHECK_DOC, 3))
    seen = dict(line.strip().split(" = ") for line in out.splitlines() if " = " in line)
    want = {"hermitian": "true" if hermitian else "false",
            "is_projector": "true" if verdict else "false"}
    if code != 0 or err or any(seen.get(k) != v for k, v in want.items()):
        return [f"check printed {seen} with exit {code}"]
    if abs(float(seen["idempotency_defect"]) - defect) > expect.PRINTED * max(1, defect):
        return [f"idempotency_defect {seen['idempotency_defect']}, expected {defect}"]
    return []


def cli_ops(twobox, rng, root, out_dir, seed, launcher):
    """The five commands, each run as a child process started by ``launcher + argv``.

    ``launcher`` is a list the caller may refill between loops, e.g. from
    ``[python, -m, twobox]`` to the traced child script.
    """
    doc = file_doc(0, rng, n=3)
    path = os.path.join(out_dir, f"cli-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    rel = os.path.relpath(path, root)
    builtin = lambda name: expect.expected_report(
        expect.scenario_doc(twobox.scenarios.lookup_scenario(name)))
    names = [s.name for s in twobox.scenarios.builtin_scenarios()]
    commands = [
        (["list"], _list_problems(names)),
        (["run", "pigeonhole3", "--format", "json"], _run_problems(builtin("pigeonhole3"), False)),
        (["run", "detailed-vs-global"], _run_problems(builtin("detailed-vs-global"), True)),
        (["check", CHECK_EXPR, "--particles", "3"], _check_problems),
        (["run", rel], _run_problems(expect.expected_report(doc), True)),
    ]
    return [Op(" ".join(argv), lambda argv=argv: _subprocess(root, argv, launcher), verify,
               warm=lambda argv=argv: _in_process(twobox, argv))
            for argv, verify in commands]
