"""JSON input and output: scenario files in, report documents out.

Scenario files are validated against a JSON schema before anything is
built, so malformed input fails with a schema path instead of a stack
trace. Complex numbers travel as [re, im] pairs at full double
precision, which makes rendered reports parse back into equal values.
"""

from __future__ import annotations

import json
import math
from typing import Any

from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from .errors import ScenarioFileError
from .hilbert import MAX_PARTICLES, Ket, abs2
from .projectors import HamiltonianSpec, ProjectorSpec
from .scenarios import (
    AblAmplitudeQuery,
    AblProbabilitiesQuery,
    DetailedVsGlobalQuery,
    ExplicitState,
    PredicateQuery,
    ProductState,
    QueryRecord,
    ResultValue,
    Scenario,
    ScenarioReport,
    TransitionElementQuery,
    WeakValueQuery,
    WeakValueSumQuery,
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

_VALIDATOR = Draft202012Validator(SCENARIO_SCHEMA)


def _format_path(path) -> str:
    out = "$"
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else f".{part}"
    return out


def _as_complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _parse_state(doc) -> Any:
    if isinstance(doc, str):
        return doc
    return (_as_complex(doc["cL"]), _as_complex(doc["cR"]))


def _parse_projector(doc, particles: int) -> ProjectorSpec:
    kind = doc["kind"]
    if kind == "box":
        return ProjectorSpec.box_occupation(doc["particle"], doc["box"], particles)
    if kind == "pair_same":
        return ProjectorSpec.pair_same(doc["pair"][0], doc["pair"][1], particles)
    if kind == "pair_diff":
        return ProjectorSpec.pair_diff(doc["pair"][0], doc["pair"][1], particles)
    if kind == "sd":
        return ProjectorSpec.sd(doc["pair"][0], doc["pair"][1], doc["other"], particles)
    return ProjectorSpec.all_same(particles)


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
        return ProductState(tuple(_parse_state(s) for s in doc["product"]))
    amplitudes = tuple(_as_complex(a) for a in doc["amplitudes"])
    try:
        Ket(amplitudes)
    except ValueError as exc:
        raise ScenarioFileError(f"{path}: {exc}") from exc
    return ExplicitState(amplitudes)


def _parse_query(doc, particles: int, path: str):
    qtype = doc["type"]
    claim = doc.get("claim")
    if qtype == "abl_amplitude":
        return AblAmplitudeQuery(_parse_member(doc["projector"], particles), claim)
    if qtype == "weak_value":
        return WeakValueQuery(_parse_member(doc["projector"], particles), claim)
    if qtype == "abl_probabilities":
        return AblProbabilitiesQuery(
            tuple(_parse_member(m, particles) for m in doc["projectors"]), claim)
    if qtype == "weak_value_sum":
        return WeakValueSumQuery(
            tuple(_parse_member(m, particles) for m in doc["projectors"]), claim)
    if qtype == "detailed_vs_global":
        return DetailedVsGlobalQuery(
            tuple(_parse_member(m, particles) for m in doc["members"]), claim)
    if qtype == "transition_element":
        return TransitionElementQuery(_parse_terms(doc["hamiltonian"], particles), claim)
    eigenvalue = doc.get("eigenvalue")
    return PredicateQuery(
        check=doc["check"],
        operands=tuple(_parse_opexpr(o, particles) for o in doc["operators"]),
        state=_parse_nstate(doc["state"], f"{path}.state") if "state" in doc else None,
        eigenvalue=_as_complex(eigenvalue) if eigenvalue is not None else None,
        claim=claim,
    )


def parse_scenario_document(doc) -> Scenario:
    """Validate a scenario document and build the runnable scenario.

    Raises :class:`ScenarioFileError` with a schema path diagnostic on
    structural problems and with a query index on semantic ones, such
    as particle indices outside 1..particles.
    """
    error = best_match(_VALIDATOR.iter_errors(doc))
    if error is not None:
        raise ScenarioFileError(f"{_format_path(error.absolute_path)}: {error.message}")
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
            pre=tuple(_parse_state(s) for s in doc["pre"]),
            post=tuple(_parse_state(s) for s in doc["post"]),
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
    except OSError as exc:
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
