"""JSON input and output: scenario files in, report documents out.

``SCENARIO_SCHEMA`` is the published description of the file format. It
is not interpreted at run time: the readers in this module check each
field as they read it, dispatching on a projector's ``kind`` and a
query's ``type``, and stop at the first violation with its ``$``-path
and the wording of a JSON Schema validator, so malformed input fails
with a path instead of a stack trace. A differential test against
jsonschema holds the schema and the readers to each other. "integer"
means a JSON integer: an int that is not a bool, so ``3.0`` is refused
where an integer belongs. Complex numbers travel as [re, im] pairs at
full double precision, which makes rendered reports parse back into
equal values.

``report_to_document`` is the declared shape of a report document.
``render_report_json`` writes that shape directly from the report, one
template per level, because ``json.dumps`` with ``indent`` set walks the
document in json's pure-Python encoder, which cost more than parsing the
scenario. Its text is exactly what ``json.dumps(report_to_document(report),
indent=2, sort_keys=True, ensure_ascii=False)`` gives; a property test over
generated reports holds the two to each other. An error message quotes at
most 80 characters of an offending value, so it stays one short line.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring as _string
from typing import Any, get_args

from .errors import (InvalidAmplitudesError, ScenarioFileError, UnnormalizableStateError,
                     capped, quoted)
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

# the enumerations the schema and the readers share
_STATE_NAMES = ["L", "R", "+", "-", "+i", "-i", "plus", "minus", "plus_i", "minus_i"]
_BOXES = ["L", "R"]
_LABELS = ["box", "spin"]
_CHECKS = ["is_projector", "orthogonal", "resolution_of_identity", "eigenstate"]

_COMPLEX_PAIR = {
    "type": "array",
    "prefixItems": [{"type": "number"}, {"type": "number"}],
    "items": False,
    "minItems": 2,
}

_STATE = {
    "oneOf": [
        {"enum": _STATE_NAMES},
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
                "box": {"enum": _BOXES},
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
                "check": {"enum": _CHECKS},
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
        "labels": {"enum": _LABELS},
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


# reading and checking -------------------------------------------------------------
# Each reader checks the fields it reads. The fields of an object are read in
# document order, as a schema validator walks them, and the top-level fields
# in schema order with the queries last.

_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "number": (int, float)}


def _fail(path: str, message: str):
    raise ScenarioFileError(f"{path}: {message}")


def _typed(value, name: str, path: str):
    """``value``, refused unless it is of the JSON type ``name``; a bool is no number."""
    if not isinstance(value, _TYPES[name]) or type(value) is bool:
        _fail(path, f"{quoted(value)} is not of type {name!r}")
    return value


def _enum(value, names: list, path: str):
    if value not in names:
        _fail(path, f"{quoted(value)} is not one of {names!r}")
    return value


def _array(value, path: str, min_items: int = 0) -> list:
    if len(_typed(value, "array", path)) < min_items:
        _fail(path, f"{quoted(value)} is too short (minItems {min_items})")
    return value


def _items(values, path: str, read, min_items: int = 0) -> tuple:
    """The entries of an array, each read by ``read(entry, its path)``."""
    return tuple(read(value, f"{path}[{k}]")
                 for k, value in enumerate(_array(values, path, min_items)))


def _object(value, path: str, required: tuple, optional: tuple = ()) -> dict:
    """``value``, refused unless it is an object with every required key and no other."""
    _typed(value, "object", path)
    for key in required:
        if key not in value:
            _fail(path, f"{key!r} is a required property")
    if len(value) > len(required):
        extra = [key for key in value if key not in required and key not in optional]
        if extra:
            _fail(path, "Additional properties are not allowed "
                        f"({capped(', '.join(map(repr, extra)))} unexpected)")
    return value


def _tagged(value, tag: str, table: dict, path: str) -> dict:
    """An object checked against the (required, optional) keys its ``tag`` value names."""
    if tag not in _typed(value, "object", path):
        _fail(path, f"{tag!r} is a required property")
    keys = table.get(value[tag]) if isinstance(value[tag], str) else None
    if keys is None:
        _fail(path, f"{quoted(value)} is not valid under any of the given schemas")
    return _object(value, path, *keys)


def _pair(value, item: str, path: str) -> tuple:
    """A two-entry array whose entries are of the JSON type ``item``."""
    if len(_typed(value, "array", path)) > 2:
        _fail(path, f"Expected at most 2 items but found {len(value)}")
    if len(value) < 2:
        _fail(path, f"{quoted(value)} is too short (minItems 2)")
    return _typed(value[0], item, f"{path}[0]"), _typed(value[1], item, f"{path}[1]")


def _complex(value, path: str) -> complex:
    re, im = _pair(value, "number", path)
    try:
        return complex(re, im)
    except OverflowError:  # a JSON integer beyond the float range
        raise InvalidAmplitudesError("coefficients must lie within the float range") from None


def _parse_state(doc, path: str) -> Any:
    if not isinstance(doc, dict):
        return _enum(doc, _STATE_NAMES, path)
    _object(doc, path, ("cL", "cR"))
    try:
        parts = {key: _complex(value, f"{path}.{key}") for key, value in doc.items()}
        pair = (parts["cL"], parts["cR"])
        make_single_particle_state(pair)
    except (InvalidAmplitudesError, UnnormalizableStateError) as exc:
        raise ScenarioFileError(f"{path}: {exc}") from exc
    return pair


# the keys each projector kind's document must hold (it may hold no others),
# and the readers of the fields besides "kind"
_PROJECTOR_KEYS = {
    "box": (("kind", "particle", "box"), ()),
    "pair_same": (("kind", "pair"), ()),
    "pair_diff": (("kind", "pair"), ()),
    "all_same": (("kind",), ()),
    "sd": (("kind", "pair", "other"), ()),
}
_PROJECTOR_FIELDS = {
    "particle": lambda value, path: _typed(value, "integer", path),
    "box": lambda value, path: _enum(value, _BOXES, path),
    "pair": lambda value, path: _pair(value, "integer", path),
    "other": lambda value, path: _typed(value, "integer", path),
}


def _parse_projector(doc, particles: int, path: str) -> ProjectorSpec:
    _tagged(doc, "kind", _PROJECTOR_KEYS, path)
    return ProjectorSpec(doc["kind"], particles,
                         **{key: _PROJECTOR_FIELDS[key](value, f"{path}.{key}")
                            for key, value in doc.items() if key != "kind"})


def _parse_member(doc, particles: int, path: str) -> tuple[ProjectorSpec, ...]:
    if isinstance(doc, list):
        return _items(doc, path, lambda p, at: _parse_projector(p, particles, at))
    if not isinstance(doc, dict):
        _fail(path, f"{quoted(doc)} is not valid under any of the given schemas")
    return (_parse_projector(doc, particles, path),)


def _parse_members(docs, particles: int, path: str) -> tuple[tuple[ProjectorSpec, ...], ...]:
    return _items(docs, path, lambda d, at: _parse_member(d, particles, at), 1)


def _parse_term(doc, particles: int, path: str) -> tuple[complex, ProjectorSpec]:
    _object(doc, path, ("projector",), ("coeff",))
    read = {"coeff": _complex, "projector": lambda p, at: _parse_projector(p, particles, at)}
    fields = {key: read[key](value, f"{path}.{key}") for key, value in doc.items()}
    return fields.get("coeff", 1 + 0j), fields["projector"]


def _parse_terms(docs, particles: int, path: str) -> HamiltonianSpec:
    return HamiltonianSpec(_items(docs, path, lambda t, at: _parse_term(t, particles, at)),
                           particles)


def _parse_opexpr(doc, particles: int, path: str) -> HamiltonianSpec:
    if not isinstance(doc, dict):
        _fail(path, f"{quoted(doc)} is not valid under any of the given schemas")
    if "terms" in doc and "kind" not in doc:
        return _parse_terms(_object(doc, path, ("terms",))["terms"], particles, f"{path}.terms")
    return HamiltonianSpec(((1 + 0j, _parse_projector(doc, particles, path)),), particles)


def _parse_nstate(doc, path: str):
    if not isinstance(doc, dict):
        _fail(path, f"{quoted(doc)} is not valid under any of the given schemas")
    if "amplitudes" not in doc or "product" in doc:
        _object(doc, path, ("product",))
        return ProductState(_items(doc["product"], f"{path}.product", _parse_state, 1))
    _object(doc, path, ("amplitudes",))
    try:
        amplitudes = _items(doc["amplitudes"], f"{path}.amplitudes", _complex, 2)
        Ket(amplitudes)
    except ScenarioFileError:
        raise
    except ValueError as exc:
        raise ScenarioFileError(f"{path}: {exc}") from exc
    return ExplicitState(amplitudes)


_QUERY_TYPES = {cls.tag: cls for cls in get_args(Query)}

# the keys each query type's document must hold, then those it may hold
_QUERY_KEYS = {
    "abl_amplitude": (("type", "projector"), ("claim",)),
    "weak_value": (("type", "projector"), ("claim",)),
    "abl_probabilities": (("type", "projectors"), ("claim",)),
    "weak_value_sum": (("type", "projectors"), ("claim",)),
    "detailed_vs_global": (("type", "members"), ("claim",)),
    "transition_element": (("type", "hamiltonian"), ("claim",)),
    "predicate": (("type", "check", "operators"), ("state", "eigenvalue", "claim")),
}

# each key a query document may hold besides "type": the query field it fills
# and its reader (value, particle count, $-path)
_QUERY_FIELDS = {
    "projector": ("projector", _parse_member),
    "projectors": ("projectors", _parse_members),
    "members": ("members", _parse_members),
    "hamiltonian": ("hamiltonian", _parse_terms),
    "check": ("check", lambda doc, n, path: _enum(doc, _CHECKS, path)),
    "operators": ("operands", lambda docs, n, path: _items(
        docs, path, lambda d, at: _parse_opexpr(d, n, at), 1)),
    "state": ("state", lambda doc, n, path: _parse_nstate(doc, path)),
    "eigenvalue": ("eigenvalue", lambda doc, n, path: _complex(doc, path)),
    "claim": ("claim", lambda doc, n, path: _typed(doc, "string", path)),
}


def _parse_query(doc, particles: int, path: str):
    _tagged(doc, "type", _QUERY_KEYS, path)
    fields = {}
    for key, value in doc.items():
        if key != "type":
            name, read = _QUERY_FIELDS[key]
            fields[name] = read(value, particles, f"{path}.{key}")
    return _QUERY_TYPES[doc["type"]](**fields)


def parse_scenario_document(doc) -> Scenario:
    """Check a scenario document against SCENARIO_SCHEMA and build the runnable scenario.

    Fields are checked as they are read, in schema order with the queries
    last. Raises :class:`ScenarioFileError` with the ``$``-path of the
    first structural problem, and with a query index on semantic ones,
    such as particle indices outside 1..particles.
    """
    _object(doc, "$", ("name", "particles", "pre", "post", "queries"),
            ("labels", "description", "notes"))
    name = _typed(doc["name"], "string", "$.name")
    if not name:
        _fail("$.name", f"{quoted(name)} is too short (minLength 1)")
    particles = _typed(doc["particles"], "integer", "$.particles")
    if particles < 1:
        _fail("$.particles", f"{quoted(particles)} is less than the minimum of 1")
    if particles > MAX_PARTICLES:
        _fail("$.particles",
              f"{quoted(particles)} is greater than the maximum of {MAX_PARTICLES!r}")
    labels = _enum(doc.get("labels", "box"), _LABELS, "$.labels")
    description = _typed(doc.get("description", ""), "string", "$.description")
    notes = _items(doc.get("notes", []), "$.notes", lambda note, at: _typed(note, "string", at))
    pre = _items(doc["pre"], "$.pre", _parse_state, 1)
    post = _items(doc["post"], "$.post", _parse_state, 1)
    queries = []
    for k, qdoc in enumerate(_array(doc["queries"], "$.queries")):
        path = f"$.queries[{k}]"
        try:
            queries.append(_parse_query(qdoc, particles, path))
        except ScenarioFileError:
            raise
        except ValueError as exc:
            raise ScenarioFileError(f"{path}: {exc}") from exc
    try:
        return Scenario(name=name, n_particles=particles, pre=pre, post=post,
                        queries=tuple(queries), description=description, notes=notes,
                        labels=labels)
    except ValueError as exc:
        raise ScenarioFileError(str(exc)) from exc


def load_scenario_file(path: str) -> Scenario:
    """Read, check, and build a scenario from a JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFileError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep a nesting
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


# writing reports --------------------------------------------------------------------

_NL = ["\n" + "  " * depth for depth in range(7)]  # a line break and the indent of a depth
_WORDS = {None: "null", True: "true", False: "false"}
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)  # not repr(): numpy 2 writes np.float64(...)
    return _FLOAT_WORDS.get(text, text)


def _text(x: str | None) -> str:
    return "null" if x is None else _string(x)


def _json_array(items: list, depth: int) -> str:
    """A JSON array at ``depth`` whose entries are already written."""
    if not items:
        return "[]"
    return "[" + _NL[depth + 1] + ("," + _NL[depth + 1]).join(items) + _NL[depth] + "]"


def _value_json(value: ResultValue) -> str:
    nl, x = _NL[5], value.value
    name = f'"name": {_string(value.name)},{nl}"value": '
    if isinstance(x, bool):
        return f"{{{nl}{name}{_WORDS[x]}{_NL[4]}}}"
    vanishing = f',{nl}"vanishing": {_WORDS[value.vanishing]}{_NL[4]}}}'
    if isinstance(x, complex):
        m2 = abs2(x)
        pair = _json_array([_float(x.real), _float(x.imag)], 5)
        return (f'{{{nl}"magnitude": {_float(math.sqrt(m2))},{nl}"magnitude_squared": '
                f"{_float(m2)},{nl}{name}{pair}{vanishing}")
    return f"{{{nl}{name}{_float(x)}{vanishing}"


def _record_json(record: QueryRecord) -> str:
    nl = _NL[3]
    results = _json_array([_value_json(value) for value in record.results], 3)
    return (f'{{{nl}"claim": {_text(record.claim)},{nl}"error": {_text(record.error)},'
            f'{nl}"index": {int.__repr__(record.index)},{nl}"kind": {_string(record.kind)},'
            f'{nl}"results": {results},{nl}"target": {_string(record.target)},'
            f'{nl}"type": {_string(record.query_type)}{_NL[2]}}}')


def render_report_json(report: ScenarioReport) -> str:
    """Deterministic JSON text for a report: sorted keys, full precision.

    Byte for byte ``json.dumps(report_to_document(report), indent=2,
    sort_keys=True, ensure_ascii=False)``, but written from the report's fixed
    shape, one template per level: with ``indent`` set, json encodes node by
    node in pure Python, at about four times the cost. Each scalar is spelled
    as json spells it: strings through json's own escape, floats through
    ``float.__repr__`` (``NaN``, ``Infinity``, ``-Infinity`` aside) and ints
    through ``int.__repr__``. ``test_render_matches_the_json_module`` holds the
    two to each other on generated reports.
    """
    nl = _NL[1]
    notes, post, pre = (_json_array([_string(s) for s in items], 1)
                        for items in (report.notes, report.post, report.pre))
    records = _json_array([_record_json(record) for record in report.records], 1)
    tol = report.tolerance
    tol = _float(tol) if isinstance(tol, float) else int.__repr__(tol)
    return (f'{{{nl}"description": {_string(report.description)},'
            f'{nl}"labels": {_string(report.labels)},'
            f'{nl}"n_particles": {int.__repr__(report.n_particles)},{nl}"notes": {notes},'
            f'{nl}"post": {post},{nl}"pre": {pre},{nl}"queries": {records},'
            f'{nl}"scenario": {_string(report.scenario)},{nl}"tolerance": {tol}\n}}')
