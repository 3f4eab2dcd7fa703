"""JSON input and output: scenario files in, report documents out.

Scenario files are checked against ``SCENARIO_SCHEMA`` before anything is
built, so malformed input fails with a schema path instead of a stack
trace. The schema is the one description of the file format; a small
interpreter in this module checks documents against it and stops at the
first violation. It implements only the keywords the schema uses: type,
enum, const, required, properties, additionalProperties (false only),
items, prefixItems, minItems, minLength, minimum, maximum, oneOf and $ref
into the root $defs; importing the module fails if the schema uses any
other. "integer" means a JSON integer: an int that is not a bool, so
``3.0`` is refused where an integer belongs. Complex numbers travel as
[re, im] pairs at full double precision, which makes rendered reports
parse back into equal values.
"""

from __future__ import annotations

import json
import math
from typing import Any, get_args

from .errors import InvalidAmplitudesError, ScenarioFileError, UnnormalizableStateError
from .hilbert import MAX_PARTICLES, Ket, abs2, make_single_particle_state
from .projectors import HamiltonianSpec, ProjectorSpec
from .scenarios import (
    ExplicitState,
    ProductState,
    Query,
    QueryRecord,
    ResultValue,
    Scenario,
    ScenarioReport,
)

_COMPLEX_PAIR = {
    "type": "array",
    "prefixItems": [{"type": "number"}, {"type": "number"}],
    "items": False,
    "minItems": 2,
}

_STATE = {
    "oneOf": [
        {"enum": ["L", "R", "+", "-", "+i", "-i",
                  "plus", "minus", "plus_i", "minus_i"]},
        {
            "type": "object",
            "required": ["cL", "cR"],
            "additionalProperties": False,
            "properties": {
                "cL": {"$ref": "#/$defs/complex"},
                "cR": {"$ref": "#/$defs/complex"},
            },
        },
    ],
}

_PROJECTOR = {
    "type": "object",
    "required": ["kind"],
    "oneOf": [
        {
            "properties": {
                "kind": {"const": "box"},
                "particle": {"type": "integer"},
                "box": {"enum": ["L", "R"]},
            },
            "required": ["kind", "particle", "box"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"enum": ["pair_same", "pair_diff"]},
                "pair": {
                    "type": "array",
                    "prefixItems": [{"type": "integer"}, {"type": "integer"}],
                    "items": False,
                    "minItems": 2,
                },
            },
            "required": ["kind", "pair"],
            "additionalProperties": False,
        },
        {
            "properties": {"kind": {"const": "all_same"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "sd"},
                "pair": {
                    "type": "array",
                    "prefixItems": [{"type": "integer"}, {"type": "integer"}],
                    "items": False,
                    "minItems": 2,
                },
                "other": {"type": "integer"},
            },
            "required": ["kind", "pair", "other"],
            "additionalProperties": False,
        },
    ],
}

# a projector object, or an array of them meaning their product
_MEMBER = {
    "oneOf": [
        {"$ref": "#/$defs/projector"},
        {"type": "array", "items": {"$ref": "#/$defs/projector"}},
    ],
}

_HAMILTONIAN_TERM = {
    "type": "object",
    "required": ["projector"],
    "additionalProperties": False,
    "properties": {
        "coeff": {"$ref": "#/$defs/complex"},
        "projector": {"$ref": "#/$defs/projector"},
    },
}

# a single projector or an explicit weighted sum of them
_OPERATOR_EXPR = {
    "oneOf": [
        {"$ref": "#/$defs/projector"},
        {
            "type": "object",
            "required": ["terms"],
            "additionalProperties": False,
            "properties": {
                "terms": {"type": "array", "items": {"$ref": "#/$defs/hterm"}},
            },
        },
    ],
}

_NSTATE = {
    "oneOf": [
        {
            "type": "object",
            "required": ["product"],
            "additionalProperties": False,
            "properties": {
                "product": {"type": "array", "minItems": 1,
                            "items": {"$ref": "#/$defs/state"}},
            },
        },
        {
            "type": "object",
            "required": ["amplitudes"],
            "additionalProperties": False,
            "properties": {
                "amplitudes": {"type": "array", "minItems": 2,
                               "items": {"$ref": "#/$defs/complex"}},
            },
        },
    ],
}

_QUERY = {
    "type": "object",
    "required": ["type"],
    "oneOf": [
        {
            "properties": {
                "type": {"enum": ["abl_amplitude", "weak_value"]},
                "projector": {"$ref": "#/$defs/member"},
                "claim": {"type": "string"},
            },
            "required": ["type", "projector"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "type": {"enum": ["abl_probabilities", "weak_value_sum"]},
                "projectors": {"type": "array", "minItems": 1,
                               "items": {"$ref": "#/$defs/member"}},
                "claim": {"type": "string"},
            },
            "required": ["type", "projectors"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "type": {"const": "detailed_vs_global"},
                "members": {"type": "array", "minItems": 1,
                            "items": {"$ref": "#/$defs/member"}},
                "claim": {"type": "string"},
            },
            "required": ["type", "members"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "type": {"const": "transition_element"},
                "hamiltonian": {"type": "array",
                                "items": {"$ref": "#/$defs/hterm"}},
                "claim": {"type": "string"},
            },
            "required": ["type", "hamiltonian"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "type": {"const": "predicate"},
                "check": {"enum": ["is_projector", "orthogonal",
                                   "resolution_of_identity", "eigenstate"]},
                "operators": {"type": "array", "minItems": 1,
                              "items": {"$ref": "#/$defs/opexpr"}},
                "state": {"$ref": "#/$defs/nstate"},
                "eigenvalue": {"$ref": "#/$defs/complex"},
                "claim": {"type": "string"},
            },
            "required": ["type", "check", "operators"],
            "additionalProperties": False,
        },
    ],
}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["name", "particles", "pre", "post", "queries"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "particles": {"type": "integer", "minimum": 1, "maximum": MAX_PARTICLES},
        "labels": {"enum": ["box", "spin"]},
        "description": {"type": "string"},
        "notes": {"type": "array", "items": {"type": "string"}},
        "pre": {"type": "array", "minItems": 1, "items": {"$ref": "#/$defs/state"}},
        "post": {"type": "array", "minItems": 1, "items": {"$ref": "#/$defs/state"}},
        "queries": {"type": "array", "items": {"$ref": "#/$defs/query"}},
    },
    "$defs": {
        "complex": _COMPLEX_PAIR,
        "state": _STATE,
        "projector": _PROJECTOR,
        "member": _MEMBER,
        "hterm": _HAMILTONIAN_TERM,
        "opexpr": _OPERATOR_EXPR,
        "nstate": _NSTATE,
        "query": _QUERY,
    },
}


# schema checking ------------------------------------------------------------------

class _Violation(Exception):
    """Where a document first breaks the schema; ``path`` runs innermost part first."""

    def __init__(self, message: str):
        super().__init__(message)
        self.path: list = []


_KEYWORDS = frozenset({"type", "enum", "const", "required", "properties",
                       "additionalProperties", "items", "prefixItems", "minItems",
                       "minLength", "minimum", "maximum", "oneOf", "$ref",
                       "$schema", "$defs"})
_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "number": (int, float)}
_DEFS = {f"#/$defs/{name}": sub for name, sub in SCENARIO_SCHEMA["$defs"].items()}
# keys whose const or enum tells the branches of a oneOf apart
_TAGS = ("kind", "type")


def _is_type(value, name: str) -> bool:
    return isinstance(value, _TYPES[name]) and not isinstance(value, bool)


def _check(value, schema: dict) -> None:
    """Raise _Violation at the first keyword of ``schema`` that ``value`` breaks.

    As in JSON Schema, a keyword about objects, arrays, strings or
    numbers says nothing about a value of another type.
    """
    for keyword, arg in schema.items():
        if keyword == "$ref":
            _check(value, _DEFS[arg])
        elif keyword == "oneOf":
            _one_of(value, arg)
        elif keyword == "type":
            if not _is_type(value, arg):
                raise _Violation(f"{value!r} is not of type {arg!r}")
        elif keyword == "enum":
            if value not in arg:
                raise _Violation(f"{value!r} is not one of {arg!r}")
        elif keyword == "const":
            if value != arg:
                raise _Violation(f"{arg!r} was expected")
        elif isinstance(value, dict):
            if keyword == "required":
                for name in arg:
                    if name not in value:
                        raise _Violation(f"{name!r} is a required property")
            elif keyword == "properties":
                for key, item in value.items():
                    if key in arg:
                        _descend(item, arg[key], key)
            elif keyword == "additionalProperties":
                extra = [key for key in value if key not in schema.get("properties", ())]
                if extra:
                    raise _Violation("Additional properties are not allowed "
                                     f"({', '.join(map(repr, extra))} unexpected)")
        elif isinstance(value, list):
            if keyword == "prefixItems":
                for index, (item, sub) in enumerate(zip(value, arg)):
                    _descend(item, sub, index)
            elif keyword == "items":
                start = len(schema.get("prefixItems", ()))
                if arg is False and len(value) > start:
                    raise _Violation(f"Expected at most {start} items but found {len(value)}")
                for index in range(start, len(value) if arg is not False else 0):
                    _descend(value[index], arg, index)
            elif keyword == "minItems" and len(value) < arg:
                raise _Violation(f"{value!r} is too short (minItems {arg})")
        elif isinstance(value, str):
            if keyword == "minLength" and len(value) < arg:
                raise _Violation(f"{value!r} is too short (minLength {arg})")
        elif _is_type(value, "number"):
            if keyword == "minimum" and value < arg:
                raise _Violation(f"{value!r} is less than the minimum of {arg!r}")
            if keyword == "maximum" and value > arg:
                raise _Violation(f"{value!r} is greater than the maximum of {arg!r}")


def _descend(value, schema: dict, part) -> None:
    try:
        _check(value, schema)
    except _Violation as violation:
        violation.path.append(part)
        raise


def _may_match(value, branch: dict) -> bool:
    """False when the branch's type, or its const/enum on a tag key, already rules it out."""
    if "type" in branch and not _is_type(value, branch["type"]):
        return False
    if "$ref" in branch and not _may_match(value, _DEFS[branch["$ref"]]):
        return False
    if isinstance(value, dict):
        props = branch.get("properties", {})
        for tag in _TAGS:
            rule = props.get(tag, {})
            if tag in value and ("enum" in rule or "const" in rule):
                if value[tag] not in rule.get("enum", (rule.get("const"),)):
                    return False
    return True


def _one_of(value, branches) -> None:
    failures = []
    matched = 0
    for branch in branches:
        if not _may_match(value, branch):
            continue
        try:
            _check(value, branch)
            matched += 1
        except _Violation as violation:
            failures.append(violation)
    if matched == 1:
        return
    if matched > 1:
        raise _Violation(f"{value!r} is valid under more than one of the given schemas")
    if failures:
        # the branch that got furthest into the document names the offending part
        raise max(failures, key=lambda violation: len(violation.path))
    raise _Violation(f"{value!r} is not valid under any of the given schemas")


def _unsupported(schema, where: str = "#"):
    """Yield a description of every part of ``schema`` the interpreter would misread."""
    for keyword, arg in schema.items():
        at = f"{where}/{keyword}"
        if keyword not in _KEYWORDS:
            yield f"{at}: unknown keyword"
        elif keyword == "type" and arg not in _TYPES:
            yield f"{at}: unknown type {arg!r}"
        elif keyword in ("enum", "const") and not all(
                isinstance(v, str) for v in (arg if keyword == "enum" else [arg])):
            yield f"{at}: only strings are compared"
        elif keyword == "additionalProperties" and arg is not False:
            yield f"{at}: only false is implemented"
        elif keyword == "$ref" and arg not in _DEFS:
            yield f"{at}: {arg!r} names no root $defs entry"
        elif keyword in ("properties", "$defs"):
            for name, sub in arg.items():
                yield from _unsupported(sub, f"{at}/{name}")
        elif keyword in ("prefixItems", "oneOf"):
            for index, sub in enumerate(arg):
                yield from _unsupported(sub, f"{at}/{index}")
        elif keyword == "items" and arg is not False:
            yield from _unsupported(arg, at)


if _problems := list(_unsupported(SCENARIO_SCHEMA)):
    raise TypeError("SCENARIO_SCHEMA uses what its validator does not implement: "
                    + "; ".join(_problems))


def _validate(doc) -> None:
    """Raise ScenarioFileError at the first place ``doc`` breaks SCENARIO_SCHEMA."""
    try:
        _check(doc, SCENARIO_SCHEMA)
    except _Violation as violation:
        path = _format_path(reversed(violation.path))
        raise ScenarioFileError(f"{path}: {violation}") from None


def _format_path(path) -> str:
    out = "$"
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else f".{part}"
    return out


def _as_complex(pair) -> complex:
    try:
        return complex(pair[0], pair[1])
    except OverflowError:  # a JSON integer beyond the float range
        raise InvalidAmplitudesError("coefficients must lie within the float range") from None


def _parse_state(doc, path: str) -> Any:
    if isinstance(doc, str):
        return doc
    try:
        pair = (_as_complex(doc["cL"]), _as_complex(doc["cR"]))
        make_single_particle_state(pair)
    except (InvalidAmplitudesError, UnnormalizableStateError) as exc:
        raise ScenarioFileError(f"{path}: {exc}") from exc
    return pair


def _parse_projector(doc, particles: int) -> ProjectorSpec:
    return ProjectorSpec(doc["kind"], particles, particle=doc.get("particle"), box=doc.get("box"),
                         pair=doc.get("pair"), other=doc.get("other"))


def _parse_member(doc, particles: int) -> tuple[ProjectorSpec, ...]:
    if isinstance(doc, list):
        return tuple(_parse_projector(p, particles) for p in doc)
    return (_parse_projector(doc, particles),)


def _parse_terms(docs, particles: int) -> HamiltonianSpec:
    terms = tuple((_as_complex(t.get("coeff", [1, 0])),
                   _parse_projector(t["projector"], particles)) for t in docs)
    return HamiltonianSpec(terms, particles)


def _parse_opexpr(doc, particles: int) -> HamiltonianSpec:
    if "terms" in doc and "kind" not in doc:
        return _parse_terms(doc["terms"], particles)
    return HamiltonianSpec(((1 + 0j, _parse_projector(doc, particles)),), particles)


def _parse_nstate(doc, path: str):
    if "product" in doc:
        return ProductState(tuple(_parse_state(s, f"{path}.product[{k}]")
                                  for k, s in enumerate(doc["product"])))
    try:
        amplitudes = tuple(_as_complex(a) for a in doc["amplitudes"])
        Ket(amplitudes)
    except ValueError as exc:
        raise ScenarioFileError(f"{path}: {exc}") from exc
    return ExplicitState(amplitudes)


_QUERY_TYPES = {cls.tag: cls for cls in get_args(Query)}

# each key a query document may hold, in the order the keys are read: the
# query field it fills and its reader (value, particle count, query's $-path)
_QUERY_FIELDS = {
    "projector": ("projector", lambda doc, n, path: _parse_member(doc, n)),
    "projectors": ("projectors", lambda docs, n, path: tuple(_parse_member(d, n) for d in docs)),
    "members": ("members", lambda docs, n, path: tuple(_parse_member(d, n) for d in docs)),
    "hamiltonian": ("hamiltonian", lambda docs, n, path: _parse_terms(docs, n)),
    "check": ("check", lambda doc, n, path: doc),
    "operators": ("operands", lambda docs, n, path: tuple(_parse_opexpr(d, n) for d in docs)),
    "state": ("state", lambda doc, n, path: _parse_nstate(doc, f"{path}.state")),
    "eigenvalue": ("eigenvalue", lambda doc, n, path: _as_complex(doc)),
    "claim": ("claim", lambda doc, n, path: doc),
}


def _parse_query(doc, particles: int, path: str):
    fields = {name: read(doc[key], particles, path)
              for key, (name, read) in _QUERY_FIELDS.items() if key in doc}
    return _QUERY_TYPES[doc["type"]](**fields)


def parse_scenario_document(doc) -> Scenario:
    """Validate a scenario document and build the runnable scenario.

    Raises :class:`ScenarioFileError` with a schema path diagnostic on
    structural problems and with a query index on semantic ones, such
    as particle indices outside 1..particles.
    """
    _validate(doc)
    particles = doc["particles"]
    queries = []
    for i, qdoc in enumerate(doc["queries"]):
        path = f"$.queries[{i}]"
        try:
            queries.append(_parse_query(qdoc, particles, path))
        except ScenarioFileError:
            raise
        except ValueError as exc:
            raise ScenarioFileError(f"{path}: {exc}") from exc
    try:
        return Scenario(
            name=doc["name"],
            n_particles=particles,
            pre=tuple(_parse_state(s, f"$.pre[{k}]") for k, s in enumerate(doc["pre"])),
            post=tuple(_parse_state(s, f"$.post[{k}]") for k, s in enumerate(doc["post"])),
            queries=tuple(queries),
            description=doc.get("description", ""),
            notes=tuple(doc.get("notes", ())),
            labels=doc.get("labels", "box"),
        )
    except ValueError as exc:
        raise ScenarioFileError(str(exc)) from exc


def load_scenario_file(path: str) -> Scenario:
    """Read, validate, and build a scenario from a JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFileError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"scenario file is not valid JSON: {exc}") from exc
    return parse_scenario_document(doc)


def _encode_value(value: ResultValue) -> dict:
    if isinstance(value.value, bool):
        return {"name": value.name, "value": value.value}
    if isinstance(value.value, complex):
        return {
            "name": value.name,
            "value": [value.value.real, value.value.imag],
            "magnitude": math.sqrt(abs2(value.value)),
            "magnitude_squared": abs2(value.value),
            "vanishing": value.vanishing,
        }
    return {"name": value.name, "value": value.value, "vanishing": value.vanishing}


def _decode_value(doc: dict) -> ResultValue:
    raw = doc["value"]
    if isinstance(raw, bool):
        return ResultValue(doc["name"], raw, None)
    if isinstance(raw, list):
        return ResultValue(doc["name"], complex(raw[0], raw[1]), doc["vanishing"])
    return ResultValue(doc["name"], float(raw), doc["vanishing"])


def report_to_document(report: ScenarioReport) -> dict:
    """Encode a report as plain JSON-ready data; complex values become [re, im]."""
    return {
        "scenario": report.scenario,
        "description": report.description,
        "labels": report.labels,
        "n_particles": report.n_particles,
        "pre": list(report.pre),
        "post": list(report.post),
        "notes": list(report.notes),
        "tolerance": report.tolerance,
        "queries": [
            {
                "index": record.index,
                "type": record.query_type,
                "kind": record.kind,
                "target": record.target,
                "claim": record.claim,
                "results": [_encode_value(v) for v in record.results],
                "error": record.error,
            }
            for record in report.records
        ],
    }


def document_to_report(doc: dict) -> ScenarioReport:
    """Rebuild the in-memory report from its document form, value for value."""
    return ScenarioReport(
        scenario=doc["scenario"],
        description=doc["description"],
        labels=doc["labels"],
        n_particles=doc["n_particles"],
        pre=tuple(doc["pre"]),
        post=tuple(doc["post"]),
        notes=tuple(doc["notes"]),
        tolerance=doc["tolerance"],
        records=tuple(
            QueryRecord(
                index=q["index"],
                query_type=q["type"],
                kind=q["kind"],
                target=q["target"],
                claim=q["claim"],
                results=tuple(_decode_value(v) for v in q["results"]),
                error=q["error"],
            )
            for q in doc["queries"]
        ),
    )


def render_report_json(report: ScenarioReport) -> str:
    """Deterministic JSON text for a report: sorted keys, full precision."""
    return json.dumps(report_to_document(report), indent=2, sort_keys=True,
                      ensure_ascii=False)
