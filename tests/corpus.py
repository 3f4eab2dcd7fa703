"""A standing corpus of command outputs, kept as one SHA-256 digest per output.

    PYTHONPATH=src python tests/corpus.py                compare this tree with corpus.sha256
    PYTHONPATH=src python tests/corpus.py --write        write corpus.sha256 from this tree
    PYTHONPATH=src python tests/corpus.py --against REV  list what moved since git revision REV

The reports are those of the six builtin scenarios, of ``file_doc(i, Random(s))``
for i = 0-71 and s = 0-3 and of ``pigeonhole_doc(n, Random(n))`` for n = 3-12
(both read from ``benchmarks/workloads.py``), each run at four tolerances and
rendered as JSON and as a table. The check outputs are ``twobox check`` of each
projector kind alone at 2, 3 and 12 particles, of two- and three-term sums and of
expression sets, among them the 24 single-box operators at 12 particles and a set
refused at its second line, at the default tolerance and at ``--tolerance 2.5``, as
a table and as JSON, each with its exit code and standard error. A change that leaves every digest as it was leaves
every one of these outputs byte for byte. The corpus runs without numpy, as the
commands do, so it can be run under any interpreter the package supports.

``--against REV`` runs the corpus of REV as well, in a fresh interpreter on a
``git archive`` of it in a temporary directory, and lists each output that
differs: every value that moved, by its path in the output (a report's query
and result, a check's operator and field, or a line of a table), with the old
and the new value and the relative change of a number.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "corpus.sha256"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))  # workloads reads the oracle from here
sys.path.insert(2, str(ROOT / "benchmarks"))

from twobox import cli, scenario_io, scenarios  # noqa: E402
from workloads import file_doc, pigeonhole_doc  # noqa: E402

TOLERANCES = (1e-12, 0.5, -1, 1e-300)
FILE_INDICES, FILE_SEEDS, PIGEONHOLE_NS = range(72), range(4), range(3, 13)
KINDS = ("box(1,L)", "pair_same(1,2)", "pair_diff(1,2)", "all_same", "sd(1,2;3)")
SUMS = (
    "pair_same(1,2) + pair_same(2,3)",
    "box(1,L) - 0.5*all_same",
    "2*pair_diff(1,2) + (1+2i)*box(2,R)",
    "pair_same(1,2) + pair_same(2,3) + pair_same(3,1)",
    "sd(1,2;3) + sd(2,3;1) + sd(3,1;2)",
    "i*box(3,L) - all_same + 1e300*pair_same(1,3)",
)
SETS = (
    ("sd(1,2;3)", "sd(2,3;1)", "sd(3,1;2)", "all_same"),
    ("pair_same(1,2)", "pair_diff(1,2)"),
    ("pair_same(1,2)", "pair_same(2,3)", "pair_same(3,1)"),
    ("box(1,L)", "0.5*box(1,R) + 0.5*box(1,R)", "box(2,L)"),
    ("pair_same(1,2)", "1e308*pair_same(1,2) + 1e308*pair_same(1,2)"),  # a refused second line
)
BOXES_12 = tuple(f"box({k},{b})" for k in range(1, 13) for b in "LR")
# the default, then one at which the verdicts of some sums and sets flip
CHECK_TOLERANCES = (None, "2.5")


def _scenarios():
    """(key, Scenario) in corpus order."""
    for scenario in scenarios.builtin_scenarios():
        yield f"builtin {scenario.name}", scenario
    parse = scenario_io.parse_scenario_document
    for seed in FILE_SEEDS:
        for index in FILE_INDICES:
            yield f"file_doc {index} seed {seed}", parse(file_doc(index, random.Random(seed)))
    for n in PIGEONHOLE_NS:
        yield f"pigeonhole_doc {n}", parse(pigeonhole_doc(n, random.Random(n)))


def report_outputs(key, scenario):
    """(key, output text) of the reports of one scenario of the corpus."""
    for tol in TOLERANCES:
        report = scenarios.run_scenario(scenario, tol)
        yield f"{key} tol {tol!r} json", scenario_io.render_report_json(report)
        yield f"{key} tol {tol!r} table", cli.render_report_table(report)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _check_outputs():
    cases = [(expr, n) for expr in KINDS for n in (2, 3, 12)]
    cases += [(expr, n) for expr in SUMS for n in (3, 12)]
    cases += [(lines, 3) for lines in SETS] + [(BOXES_12, 12)]
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "expressions.txt"
        for tol in CHECK_TOLERANCES:
            option, at = ([], "") if tol is None else (["--tolerance", tol], f" tolerance {tol}")
            for expr, n in cases:
                if isinstance(expr, tuple):  # a set: one expression per line of a file
                    path.write_text("\n".join(expr) + "\n", encoding="utf-8")
                    source, key = str(path), "{" + ", ".join(expr) + "}"
                else:
                    source, key = expr, expr
                for fmt in ("table", "json"):
                    argv = ["check", source, "--particles", str(n), "--format", fmt, *option]
                    yield f"check {key} particles {n}{at} {fmt}", _cli(argv)


def outputs():
    """(key, output text) of every output of the corpus, in a fixed order."""
    for key, scenario in _scenarios():
        yield from report_outputs(key, scenario)
    yield from _check_outputs()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests() -> dict[str, str]:
    return {key: digest(text) for key, text in outputs()}


def read_digests(path: Path = DIGESTS) -> dict[str, str]:
    pairs = (line.split("  ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {key: digest for digest, key in pairs}


def moved(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """The keys whose digests differ, or that only one side has, in corpus order."""
    keys = list(actual) + [key for key in expected if key not in actual]
    return [key for key in keys if expected.get(key) != actual.get(key)]


def outputs_at(rev: str) -> dict[str, str]:
    """Every output of the corpus of git revision ``rev``, run from a ``git
    archive`` of it in a temporary directory by a fresh interpreter."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
    if archive.returncode:
        raise SystemExit(f"git archive {rev}: {archive.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory() as folder:
        tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(folder, filter="data")
        code = ("import json, sys; sys.path.insert(0, 'tests'); import corpus; "
                "json.dump(dict(corpus.outputs()), sys.stdout)")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        done = subprocess.run([sys.executable, "-c", code], cwd=folder, env=env,
                              capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"the corpus of {rev} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _leaves(node, path: str):
    """(path, value) of each scalar in a JSON document. A list entry that names
    itself (a record's ``target``, a result's ``name``, an operator's
    ``expression``) carries that name after its index."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            label = next((f" {value[key]}" for key in ("target", "name", "expression")
                          if isinstance(value, dict) and key in value), "")
            yield from _leaves(value, f"{path}[{i}]{label}")
    else:
        yield path, node


def _values(text: str) -> dict:
    """The values of one output by path: a check's exit code and standard error
    apart from its output, and the scalars of a JSON text or else its lines."""
    exit_line, checked, rest = text.partition("\n--- stdout\n")
    if checked:
        out, _, err = rest.rpartition("--- stderr\n")
        return {"exit": exit_line, **_values(out), "stderr": err}
    try:
        return dict(_leaves(json.loads(text), ""))
    except ValueError:
        return {f"line {n}": line for n, line in enumerate(text.splitlines(), 1)}


def _relative(old, new) -> str:
    if not all(type(x) in (int, float) for x in (old, new)):
        return "-"
    if old == 0:
        return "0" if new == 0 else "inf"
    return f"{abs(new - old) / abs(old):.3g}"


def changes(old: str, new: str):
    """(path, old value, new value, relative change) of each value that differs
    between two texts of one output, compared by repr, so that NaN equals NaN and
    -0.0 differs from 0.0; None stands for a value one side lacks."""
    old, new = _values(old), _values(new)
    for path in list(new) + [path for path in old if path not in new]:
        a, b = old.get(path), new.get(path)
        if repr(a) != repr(b):
            yield path, a, b, _relative(a, b)


def main(argv) -> int:
    if argv[:1] == ["--against"] and len(argv) == 2:
        theirs, ours = outputs_at(argv[1]), dict(outputs())
        changed = moved(theirs, ours)
        for key in changed:
            print(f"moved: {key}")
            if key in theirs and key in ours:
                for path, a, b, rel in changes(theirs[key], ours[key]):
                    print(f"    {path}: {a!r} -> {b!r} (relative change {rel})")
            else:
                print(f"    only {'at ' + argv[1] if key in theirs else 'in this tree'}")
        print(f"{len(changed)} of {len(ours)} outputs moved against {argv[1]}")
        return 1 if changed else 0
    actual = digests()
    if argv == ["--write"]:
        DIGESTS.write_text("".join(f"{d}  {k}\n" for k, d in actual.items()), encoding="utf-8")
        print(f"wrote {len(actual)} digests to {DIGESTS.name}")
        return 0
    if argv:
        print("usage: python tests/corpus.py [--write | --against REV]", file=sys.stderr)
        return 2
    changed = moved(read_digests(), actual)
    for key in changed:
        print(f"moved: {key}")
    print(f"{len(changed)} of {len(actual)} outputs moved")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
