"""Command line front end: list scenarios, run them, check operator expressions.

Exit codes: 0 all queries computed, 1 the request could not be run at
all (unknown scenario, unreadable or invalid file, bad expression),
2 the run completed but at least one query errored.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .errors import ExpressionError, ScenarioFileError, TwoBoxError, quoted
from .hilbert import DEFAULT_TOLERANCE
from .projectors import (
    PROJECTOR_KINDS,
    HamiltonianSpec,
    ProjectorSpec,
    are_orthogonal,
    build_hamiltonian,
    idempotency_defect,
    is_hermitian,
    is_resolution_of_identity,
)
from .scenario_io import load_scenario_file, render_report_json
from .scenarios import ScenarioReport, builtin_scenarios, lookup_scenario, run_scenario


def format_complex(z: complex, sig: int = 6) -> str:
    """Render a complex number as "a + bi" with ``sig`` significant digits."""
    re_part = z.real + 0.0
    im_part = z.imag + 0.0
    if re_part == 0.0 and im_part == 0.0:
        return "0"
    if im_part == 0.0:
        return f"{re_part:.{sig}g}"
    if re_part == 0.0:
        sign = "-" if im_part < 0 else ""
        return f"{sign}{abs(im_part):.{sig}g}i"
    sign = "+" if im_part > 0 else "-"
    return f"{re_part:.{sig}g} {sign} {abs(im_part):.{sig}g}i"


def _imag_token(q: int) -> str:
    return "i" if q == 1 else f"{q}i"


def fraction_annotation(z: complex, tol: float = DEFAULT_TOLERANCE,
                        max_denominator: int = 64) -> str | None:
    """An exact-fraction tag such as "(= (1+i)/8)" when one matches within tol.

    Only small denominators are recognized; integers need no tag, and
    unmatched values get none, as do values that are not finite or too
    large to scale by the denominators.
    """
    z = complex(z)
    if not all(math.isfinite(part * max_denominator) for part in (z.real, z.imag)):
        return None
    for den in range(1, max_denominator + 1):
        p = round(z.real * den)
        q = round(z.imag * den)
        if abs(z.real - p / den) <= tol and abs(z.imag - q / den) <= tol:
            if den == 1:
                return None
            if q == 0:
                return f"(= {p}/{den})"
            if p == 0:
                sign = "-" if q < 0 else ""
                return f"(= {sign}{_imag_token(abs(q))}/{den})"
            sign = "+" if q > 0 else "-"
            return f"(= ({p}{sign}{_imag_token(abs(q))})/{den})"
    return None


def _render_value_line(value) -> str:
    if isinstance(value.value, bool):
        return f"{value.name} = {'true' if value.value else 'false'}"
    if isinstance(value.value, complex):
        body = format_complex(value.value)
    else:
        body = f"{value.value + 0.0:.6g}"
    annotation = fraction_annotation(complex(value.value))
    if annotation:
        body = f"{body} {annotation}"
    if value.vanishing:
        body = f"{body}  [vanishing]"
    return f"{value.name} = {body}"


def render_report_table(report: ScenarioReport) -> str:
    """Human-oriented text rendering with the same numbers as the JSON form."""
    lines = [f"scenario: {report.scenario}"]
    if report.description:
        lines.append(f"  {report.description}")
    lines.append(f"labels: {report.labels}   particles: {report.n_particles}   "
                 f"tolerance: {report.tolerance:g}")
    lines.append("pre:  " + " ⊗ ".join(f"|{s}>" for s in report.pre))
    lines.append("post: " + " ⊗ ".join(f"|{s}>" for s in report.post))
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append("")
    for record in report.records:
        lines.append(f"[{record.index}] {record.query_type} ({record.kind})  {record.target}")
        if record.claim:
            lines.append(f"    claim: {record.claim}")
        for value in record.results:
            lines.append(f"    {_render_value_line(value)}")
        if record.error is not None:
            lines.append(f"    error: {record.error}")
    return "\n".join(lines)


_TOKEN_RE = re.compile(r"""
    (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?i?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<symbol>[-+*(),;])
  | (?P<space>\s+)
""", re.VERBOSE)


class _Tokens:
    """Token stream over a single operator expression with column tracking."""

    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                raise ExpressionError(f"column {pos + 1}: unexpected character {text[pos]!r}")
            if match.lastgroup != "space":
                self.items.append((match.lastgroup, match.group(), pos + 1))
            pos = match.end()
        self.cursor = 0

    def peek(self):
        return self.items[self.cursor] if self.cursor < len(self.items) else None

    def next(self, expect_kind=None, expect_text=None):
        item = self.peek()
        if item is None:
            raise ExpressionError(f"column {len(self.text) + 1}: unexpected end of expression")
        kind, text, pos = item
        if expect_kind is not None and kind != expect_kind:
            raise ExpressionError(f"column {pos}: expected {expect_kind}, found {quoted(text)}")
        if expect_text is not None and text != expect_text:
            raise ExpressionError(f"column {pos}: expected {expect_text!r}, found {quoted(text)}")
        self.cursor += 1
        return item


def _parse_int(tokens: _Tokens) -> int:
    kind, text, pos = tokens.next("number")
    if not text.isdigit():
        raise ExpressionError(f"column {pos}: expected an integer, found {quoted(text)}")
    return int(text)


def _parse_scalar_token(text: str, pos: int) -> complex:
    if text == "i":
        return 1j
    if text.endswith("i"):
        return float(text[:-1] or "1") * 1j
    try:
        return complex(float(text))
    except ValueError:
        raise ExpressionError(f"column {pos}: bad number {quoted(text)}") from None


def _parse_coefficient(tokens: _Tokens) -> complex:
    item = tokens.peek()
    if item is not None and item[0] == "symbol" and item[1] == "(":
        tokens.next()
        value = _parse_signed_scalar(tokens)
        nxt = tokens.peek()
        if nxt is not None and nxt[0] == "symbol" and nxt[1] in "+-":
            sign = 1 if tokens.next()[1] == "+" else -1
            value += sign * _parse_signed_scalar(tokens)
        tokens.next("symbol", ")")
        return value
    return _parse_signed_scalar(tokens)


def _parse_signed_scalar(tokens: _Tokens) -> complex:
    sign = 1
    item = tokens.peek()
    if item is not None and item[0] == "symbol" and item[1] in "+-":
        sign = 1 if tokens.next()[1] == "+" else -1
    kind, text, pos = tokens.next()
    if kind == "name" and text == "i":
        return sign * 1j
    if kind != "number":
        raise ExpressionError(f"column {pos}: expected a number, found {quoted(text)}")
    return sign * _parse_scalar_token(text, pos)


def _parse_atom(tokens: _Tokens, particles: int) -> ProjectorSpec:
    kind, text, pos = tokens.next("name")
    if text not in PROJECTOR_KINDS:
        options = ", ".join(PROJECTOR_KINDS)
        raise ExpressionError(
            f"column {pos}: unknown operator {quoted(text)}; choose from {options}")
    try:
        if text == "all_same":
            return ProjectorSpec.all_same(particles)
        tokens.next("symbol", "(")
        if text == "box":
            particle = _parse_int(tokens)
            tokens.next("symbol", ",")
            _, letter, lpos = tokens.next("name")
            if letter not in ("L", "R"):
                raise ExpressionError(f"column {lpos}: box letter must be L or R")
            tokens.next("symbol", ")")
            return ProjectorSpec.box_occupation(particle, letter, particles)
        first = _parse_int(tokens)
        tokens.next("symbol", ",")
        second = _parse_int(tokens)
        if text == "sd":
            sep = tokens.next("symbol")
            if sep[1] not in (",", ";"):
                raise ExpressionError(f"column {sep[2]}: expected ';' before the marked particle")
            third = _parse_int(tokens)
            tokens.next("symbol", ")")
            return ProjectorSpec.sd(first, second, third, particles)
        tokens.next("symbol", ")")
        if text == "pair_same":
            return ProjectorSpec.pair_same(first, second, particles)
        return ProjectorSpec.pair_diff(first, second, particles)
    except ValueError as exc:
        raise ExpressionError(f"column {pos}: {exc}") from exc


def parse_operator_expression(text: str, particles: int) -> HamiltonianSpec:
    """Parse one weighted sum such as "pair_same(1,2) + 2*all_same"."""
    tokens = _Tokens(text)
    if tokens.peek() is None:
        raise ExpressionError("column 1: empty expression")
    terms = []
    sign = 1
    item = tokens.peek()
    if item[0] == "symbol" and item[1] in "+-":
        sign = 1 if tokens.next()[1] == "+" else -1
    while True:
        item = tokens.peek()
        if item is None:
            raise ExpressionError(f"column {len(text) + 1}: expected an operator term")
        if item[0] == "name" and item[1] in PROJECTOR_KINDS:
            coeff = complex(sign)
        elif item[0] == "name" and item[1] != "i":
            options = ", ".join(PROJECTOR_KINDS)
            raise ExpressionError(
                f"column {item[2]}: unknown operator {quoted(item[1])}; choose from {options}")
        else:
            coeff = sign * _parse_coefficient(tokens)
            tokens.next("symbol", "*")
        terms.append((coeff, _parse_atom(tokens, particles)))
        item = tokens.peek()
        if item is None:
            break
        if item[0] == "symbol" and item[1] in "+-":
            sign = 1 if tokens.next()[1] == "+" else -1
            continue
        raise ExpressionError(f"column {item[2]}: expected '+' or '-', found {quoted(item[1])}")
    return HamiltonianSpec(tuple(terms), particles)


def parse_operator_expressions(text: str, particles: int) -> list[tuple[str, HamiltonianSpec]]:
    """Parse one expression per non-blank line; '#' starts a comment line."""
    parsed = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parsed.append((line, parse_operator_expression(line, particles)))
        except ExpressionError as exc:
            raise ExpressionError(f"line {lineno}: {exc}") from None
    return parsed


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    """The --tolerance value: a finite number above zero."""
    try:
        if 0 < float(text) < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {quoted(text)}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="twobox",
                     description="pre- and postselected computations for particles in two boxes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list builtin scenarios")
    p_list.set_defaults(handler=_cmd_list)

    p_run = sub.add_parser("run", help="run a builtin scenario or a scenario file")
    p_run.add_argument("target", nargs="?",
                       help="builtin scenario name, or path to a scenario JSON file")
    p_run.add_argument("--scenario", help="builtin scenario name")
    p_run.add_argument("--file", help="path to a scenario JSON file")
    p_run.add_argument("--format", choices=("table", "json"), default="table")
    p_run.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE,
                       help="zero threshold for verdicts and preconditions")
    p_run.set_defaults(handler=_cmd_run)

    p_check = sub.add_parser("check", help="check operator expressions for projector structure")
    p_check.add_argument("expression",
                         help="an operator expression, or a path to a file with one per line")
    p_check.add_argument("--particles", type=int, default=3)
    p_check.add_argument("--format", choices=("table", "json"), default="table")
    p_check.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
    p_check.set_defaults(handler=_cmd_check)
    return parser


def _cmd_list(args) -> int:
    width = max(len(s.name) for s in builtin_scenarios()) + 2
    for scenario in builtin_scenarios():
        print(f"{scenario.name:<{width}}{scenario.description}")
    return 0


def _resolve_run_target(args):
    chosen = [x for x in (args.target, args.scenario, args.file) if x is not None]
    if len(chosen) != 1:
        raise ScenarioFileError("give exactly one scenario: a positional name or path, "
                                "or --scenario, or --file")
    if args.file is not None:
        return load_scenario_file(args.file)
    if args.scenario is not None:
        return lookup_scenario(args.scenario)
    target = args.target
    if any(s.name == target for s in builtin_scenarios()):
        return lookup_scenario(target)
    if target.endswith(".json") or os.sep in target or os.path.exists(target):
        return load_scenario_file(target)
    return lookup_scenario(target)


def _cmd_run(args) -> int:
    scenario = _resolve_run_target(args)
    report = run_scenario(scenario, args.tolerance)
    if args.format == "json":
        print(render_report_json(report))
    else:
        print(render_report_table(report))
    return 2 if report.has_errors() else 0


def _cmd_check(args) -> int:
    source = args.expression
    if os.path.isfile(source):
        try:
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ExpressionError(f"cannot read expression file: {exc}") from exc
    else:
        text = source
    parsed = parse_operator_expressions(text, args.particles)
    if not parsed:
        raise ExpressionError("no operator expressions found")
    operators = [build_hamiltonian(spec) for _, spec in parsed]
    tol = args.tolerance

    entries = []
    for (expr, _), op in zip(parsed, operators):
        hermitian, defect = is_hermitian(op, tol), idempotency_defect(op)
        entries.append({"expression": expr, "hermitian": hermitian,
                        "is_projector": hermitian and defect <= tol,
                        "idempotency_defect": defect})
    payload = {
        "particles": args.particles,
        "tolerance": tol,
        "operators": entries,
    }
    if len(operators) > 1:
        payload["pairwise_orthogonal"] = [
            {"pair": [i, j],
             "orthogonal": are_orthogonal(operators[i], operators[j], tol)}
            for i in range(len(operators))
            for j in range(i + 1, len(operators))
        ]
        payload["resolution_of_identity"] = is_resolution_of_identity(operators, tol)

    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))
        return 0
    for entry in entries:
        print(f"operator: {entry['expression']}   [particles: {args.particles}]")
        print(f"    hermitian = {'true' if entry['hermitian'] else 'false'}")
        print(f"    is_projector = {'true' if entry['is_projector'] else 'false'}")
        defect = entry["idempotency_defect"]
        annotation = fraction_annotation(complex(defect))
        tail = f" {annotation}" if annotation else ""
        print(f"    idempotency_defect = {defect + 0.0:.6g}{tail}")
    if len(operators) > 1:
        print("pairwise orthogonality:")
        for item in payload["pairwise_orthogonal"]:
            i, j = item["pair"]
            print(f"    [{i}] vs [{j}] = {'true' if item['orthogonal'] else 'false'}")
        verdict = payload["resolution_of_identity"]
        print(f"resolution_of_identity = {'true' if verdict else 'false'}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (_UsageError, TwoBoxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
