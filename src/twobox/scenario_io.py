"""JSON input and output: scenario files in, report documents out.

``SCENARIO_SCHEMA`` is the published description of the file format. It
is not interpreted at run time: the readers in this module check each
field as they read it, dispatching on a projector's ``kind`` and a
query's ``type``, and stop at the first violation with its ``$``-path
and the wording of a JSON Schema validator, so malformed input fails
with a path instead of a stack trace. A differential test against
jsonschema holds the schema and the readers to each other.

The schema is built at import from the tables the readers use, so each
object's keys are stated once. An object read by key (the ``{cL, cR}``
pair, a Hamiltonian term, a ``{terms}`` sum, a ``product`` or
``amplitudes`` state) has one field table, each key's value schema and
reader, from which ``_object_schema`` builds its branch and ``_read`` its
key check. The ``projector`` and ``query`` definitions take one branch per
kind or type: ``_PROJECTOR_KEYS`` (the fields ``projectors`` names per
kind) with ``_PROJECTOR_FIELDS``, and ``_QUERY_KEYS`` (the ``keys`` and
``optional_keys`` of the query classes) with ``_QUERY_FIELDS``, each key's
query field, value schema and reader. So a query type is defined by its
class alone; a key no other type uses adds one ``_QUERY_FIELDS`` row. The
top-level key check reads the schema's own ``required`` and ``properties``.
The enumerations (state names, label schemes, predicate checks) come from
the modules that define them. "integer" means a JSON integer: an int
that is not a bool, so ``3.0`` is refused where an integer belongs.
Complex numbers travel as [re, im] pairs at full double precision, which
makes rendered reports parse back into equal values.

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
import os
from json.encoder import encode_basestring as _string
from typing import Any, get_args

from .errors import (InvalidAmplitudesError, InvalidArgumentError, ScenarioFileError,
                     UnnormalizableStateError, capped, expect, quoted)
from .hilbert import (MAX_PARTICLES, _SCHEMES, _STATE_ALIASES, _explicit_amplitudes, _single_pair,
                      abs2)
from .projectors import _KIND_FIELDS, HamiltonianSpec, ProjectorSpec
from .scenarios import (
    PREDICATE_CHECKS,
    ExplicitState,
    ProductState,
    Query,
    QueryRecord,
    ResultValue,
    Scenario,
    ScenarioReport,
)

# the enumerations the schema and the readers share, taken from where they are defined
_STATE_NAMES = list(_STATE_ALIASES)
_BOXES = ["L", "R"]
_LABELS = list(_SCHEMES)
_CHECKS = list(PREDICATE_CHECKS)

_COMPLEX_PAIR = {
    "type": "array",
    "prefixItems": [{"type": "number"}, {"type": "number"}],
    "items": False,
    "minItems": 2,
}

# a projector object, or an array of them meaning their product
_MEMBER = {
    "oneOf": [
        {"$ref": "#/$defs/projector"},
        {"type": "array", "items": {"$ref": "#/$defs/projector"}},
    ],
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


def _object(value, path: str, required, optional=()) -> dict:
    """``value``, refused unless it is an object with every ``required`` key and
    no key outside ``required`` and ``optional`` (collections of keys)."""
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


# A field table maps each key an object may hold to (its value schema, its reader);
# the keys it must hold come with it, the table itself where it must hold them all.

def _object_schema(fields: dict, required) -> dict:
    return {"type": "object", "required": list(required), "additionalProperties": False,
            "properties": {key: row[0] for key, row in fields.items()}}


def _read(doc, fields: dict, required, path: str, *args) -> dict:
    """The values of an object with the ``required`` keys and no key outside
    ``fields``, each read in document order by its row's reader:
    ``read(value, *args, its $-path)``."""
    _object(doc, path, required, fields)
    return {key: fields[key][1](value, *args, f"{path}.{key}") for key, value in doc.items()}


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


_COMPLEX = {"$ref": "#/$defs/complex"}
# the {cL, cR} coefficients of a single-particle state; it must hold both
_PAIR_FIELDS = {"cL": (_COMPLEX, _complex), "cR": (_COMPLEX, _complex)}


def _parse_state(doc, path: str) -> Any:
    if not isinstance(doc, dict):
        return _enum(doc, _STATE_NAMES, path)
    try:
        parts = _read(doc, _PAIR_FIELDS, _PAIR_FIELDS, path)
        pair = (parts["cL"], parts["cR"])
        _single_pair(pair)
    except (InvalidAmplitudesError, UnnormalizableStateError) as exc:
        raise ScenarioFileError(f"{path}: {exc}") from exc
    return pair


# the keys each projector kind's document must hold (it may hold no others)
_PROJECTOR_KEYS = {kind: (("kind", *fields), ()) for kind, fields in _KIND_FIELDS.items()}
_INTEGER = {"type": "integer"}
# each key besides "kind": the schema of its value and its reader (value, $-path)
_PROJECTOR_FIELDS = {
    "particle": (_INTEGER, lambda value, path: _typed(value, "integer", path)),
    "box": ({"enum": _BOXES}, lambda value, path: _enum(value, _BOXES, path)),
    "pair": ({"type": "array", "prefixItems": [_INTEGER, _INTEGER], "items": False,
              "minItems": 2}, lambda value, path: _pair(value, "integer", path)),
    "other": (_INTEGER, lambda value, path: _typed(value, "integer", path)),
}


def _parse_projector(doc, particles: int, path: str) -> ProjectorSpec:
    _tagged(doc, "kind", _PROJECTOR_KEYS, path)
    return ProjectorSpec(doc["kind"], particles,
                         **{key: _PROJECTOR_FIELDS[key][1](value, f"{path}.{key}")
                            for key, value in doc.items() if key != "kind"})


def _parse_member(doc, particles: int, path: str) -> tuple[ProjectorSpec, ...]:
    if isinstance(doc, list):
        return _items(doc, path, lambda p, at: _parse_projector(p, particles, at))
    if not isinstance(doc, dict):
        _fail(path, f"{quoted(doc)} is not valid under any of the given schemas")
    return (_parse_projector(doc, particles, path),)


def _parse_members(docs, particles: int, path: str) -> tuple[tuple[ProjectorSpec, ...], ...]:
    return _items(docs, path, lambda d, at: _parse_member(d, particles, at), 1)


# a Hamiltonian term: its coefficient (1 if absent) and its projector
_TERM_FIELDS = {
    "coeff": (_COMPLEX, lambda value, n, path: _complex(value, path)),
    "projector": ({"$ref": "#/$defs/projector"}, _parse_projector),
}


def _parse_term(doc, particles: int, path: str) -> tuple[complex, ProjectorSpec]:
    fields = _read(doc, _TERM_FIELDS, ("projector",), path, particles)
    return fields.get("coeff", 1 + 0j), fields["projector"]


def _parse_terms(docs, particles: int, path: str) -> HamiltonianSpec:
    return HamiltonianSpec(_items(docs, path, lambda t, at: _parse_term(t, particles, at)),
                           particles)


# an explicit weighted sum of projectors, the alternative to a single projector
_SUM_FIELDS = {"terms": ({"type": "array", "items": {"$ref": "#/$defs/hterm"}}, _parse_terms)}


def _parse_opexpr(doc, particles: int, path: str) -> HamiltonianSpec:
    if not isinstance(doc, dict):
        _fail(path, f"{quoted(doc)} is not valid under any of the given schemas")
    if "terms" in doc and "kind" not in doc:
        return _read(doc, _SUM_FIELDS, _SUM_FIELDS, path, particles)["terms"]
    return HamiltonianSpec(((1 + 0j, _parse_projector(doc, particles, path)),), particles)


# the two forms of an n-particle state: a product of single-particle states,
# or its 2**n amplitudes
_PRODUCT_FIELDS = {
    "product": ({"type": "array", "minItems": 1, "items": {"$ref": "#/$defs/state"}},
                lambda docs, path: ProductState(_items(docs, path, _parse_state, 1))),
}
_AMPLITUDES_FIELDS = {
    "amplitudes": ({"type": "array", "minItems": 2, "items": _COMPLEX},
                   lambda docs, path: ExplicitState(
                       _explicit_amplitudes(_items(docs, path, _complex, 2)))),
}


def _parse_nstate(doc, path: str):
    if not isinstance(doc, dict):
        _fail(path, f"{quoted(doc)} is not valid under any of the given schemas")
    if "amplitudes" not in doc or "product" in doc:
        return _read(doc, _PRODUCT_FIELDS, _PRODUCT_FIELDS, path)["product"]
    try:
        return _read(doc, _AMPLITUDES_FIELDS, _AMPLITUDES_FIELDS, path)["amplitudes"]
    except ScenarioFileError:
        raise
    except ValueError as exc:
        raise ScenarioFileError(f"{path}: {exc}") from exc


_QUERY_TYPES = {cls.tag: cls for cls in get_args(Query)}

# the keys each query type's document must hold, then those it may hold
_QUERY_KEYS = {tag: (("type", *cls.keys), (*getattr(cls, "optional_keys", ()), "claim"))
               for tag, cls in _QUERY_TYPES.items()}

_MEMBERS = {"type": "array", "minItems": 1, "items": {"$ref": "#/$defs/member"}}

# each key a query document may hold besides "type": the query field it fills,
# the schema of its value and its reader (value, particle count, $-path)
_QUERY_FIELDS = {
    "projector": ("projector", {"$ref": "#/$defs/member"}, _parse_member),
    "projectors": ("projectors", _MEMBERS, _parse_members),
    "members": ("members", _MEMBERS, _parse_members),
    "hamiltonian": ("hamiltonian", *_SUM_FIELDS["terms"]),
    "check": ("check", {"enum": _CHECKS}, lambda doc, n, path: _enum(doc, _CHECKS, path)),
    "operators": ("operands",
                  {"type": "array", "minItems": 1, "items": {"$ref": "#/$defs/opexpr"}},
                  lambda docs, n, path: _items(
                      docs, path, lambda d, at: _parse_opexpr(d, n, at), 1)),
    "state": ("state", {"$ref": "#/$defs/nstate"},
              lambda doc, n, path: _parse_nstate(doc, path)),
    "eigenvalue": ("eigenvalue", _COMPLEX,
                   lambda doc, n, path: _complex(doc, path)),
    "claim": ("claim", {"type": "string"}, lambda doc, n, path: _typed(doc, "string", path)),
}


def _tagged_schema(tag: str, table: dict, schemas: dict) -> dict:
    """The schema of an object whose ``tag`` value names its keys in ``table``:
    one branch per value, in which each other key's value has its schema in
    ``schemas``."""
    return {
        "type": "object",
        "required": [tag],
        "oneOf": [{"properties": {tag: {"const": value},
                                  **{key: schemas[key] for key in (*required[1:], *optional)}},
                   "required": list(required),
                   "additionalProperties": False}
                  for value, (required, optional) in table.items()],
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
        "state": {"oneOf": [{"enum": _STATE_NAMES}, _object_schema(_PAIR_FIELDS, _PAIR_FIELDS)]},
        "projector": _tagged_schema(
            "kind", _PROJECTOR_KEYS, {key: row[0] for key, row in _PROJECTOR_FIELDS.items()}),
        "member": _MEMBER,
        "hterm": _object_schema(_TERM_FIELDS, ("projector",)),
        "opexpr": {"oneOf": [{"$ref": "#/$defs/projector"},
                             _object_schema(_SUM_FIELDS, _SUM_FIELDS)]},
        "nstate": {"oneOf": [_object_schema(_PRODUCT_FIELDS, _PRODUCT_FIELDS),
                             _object_schema(_AMPLITUDES_FIELDS, _AMPLITUDES_FIELDS)]},
        "query": _tagged_schema(
            "type", _QUERY_KEYS, {key: row[1] for key, row in _QUERY_FIELDS.items()}),
    },
}


def _parse_query(doc, particles: int, path: str):
    _tagged(doc, "type", _QUERY_KEYS, path)
    fields = {}
    for key, value in doc.items():
        if key != "type":
            name, _, read = _QUERY_FIELDS[key]
            fields[name] = read(value, particles, f"{path}.{key}")
    return _QUERY_TYPES[doc["type"]](**fields)


def parse_scenario_document(doc) -> Scenario:
    """Check a scenario document against SCENARIO_SCHEMA and build the runnable scenario.

    Fields are checked as they are read, in schema order with the queries
    last. Raises :class:`ScenarioFileError` with the ``$``-path of the
    first structural problem, and with a query index on semantic ones,
    such as particle indices outside 1..particles.
    """
    _object(doc, "$", SCENARIO_SCHEMA["required"], SCENARIO_SCHEMA["properties"])
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


def load_scenario_file(path: str | os.PathLike) -> Scenario:
    """Read, check, and build a scenario from the JSON file at ``path``, never a
    file descriptor, which ``open`` would read and close."""
    expect(path, (str, os.PathLike), "a file path (str or os.PathLike)")
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


# the keys of a report document, of a record and of a result value, each with
# the JSON types its value may take (a bool is no int)
_REPORT_KEYS = {"scenario": (str,), "description": (str,), "labels": (str,),
                "n_particles": (int,), "pre": (list,), "post": (list,), "notes": (list,),
                "tolerance": (int, float), "queries": (list,)}
_RECORD_KEYS = {"index": (int,), "type": (str,), "kind": (str,), "target": (str,),
                "claim": (str, type(None)), "results": (list,), "error": (str, type(None))}
_VALUE_KEYS = {"name": (str,), "value": (bool, int, float, list)}


def _keyed(doc, keys: dict, path: str) -> dict:
    """``doc``, refused with the path of the first of ``keys`` it lacks or mistypes."""
    for key, types in keys.items():
        if (not isinstance(doc, dict) or key not in doc or not isinstance(doc[key], types)
                or (type(doc[key]) is bool and bool not in types)):
            raise InvalidArgumentError(f"report document: {path}.{key} is missing or mistyped")
    return doc


def _decode_value(doc: dict, path: str) -> ResultValue:
    raw = _keyed(doc, _VALUE_KEYS, path)["value"]
    if isinstance(raw, bool):
        return ResultValue(doc["name"], raw, None)
    if doc.get("vanishing") not in (True, False):  # numpy's bool_ too, in a report built by hand
        raise InvalidArgumentError(f"report document: {path}.vanishing is missing or mistyped")
    if isinstance(raw, list) and (len(raw) != 2 or not all(type(x) in (int, float) for x in raw)):
        raise InvalidArgumentError(f"report document: {path}.value is mistyped")
    value = complex(*raw) if isinstance(raw, list) else float(raw)
    return ResultValue(doc["name"], value, doc["vanishing"])


def report_to_document(report: ScenarioReport) -> dict:
    """Encode a report as plain JSON-ready data; complex values become [re, im]."""
    expect(report, ScenarioReport, "a ScenarioReport")
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
    """Rebuild the in-memory report from its document form, value for value. A
    document without a key ``report_to_document`` writes, or with a value of
    another type or a list entry that is not a string there, is refused."""
    doc = _keyed(doc, _REPORT_KEYS, "$")
    for key in ("pre", "post", "notes"):
        if not all(type(text) is str for text in doc[key]):
            raise InvalidArgumentError(f"report document: $.{key} holds a non-string")
    records = []
    for k, q in enumerate(doc["queries"]):
        path = f"$.queries[{k}]"
        results = tuple(_decode_value(v, f"{path}.results[{j}]")
                        for j, v in enumerate(_keyed(q, _RECORD_KEYS, path)["results"]))
        records.append(QueryRecord(q["index"], q["type"], q["kind"], q["target"], q["claim"],
                                   results, q["error"]))
    return ScenarioReport(doc["scenario"], doc["description"], doc["labels"], doc["n_particles"],
                          tuple(doc["pre"]), tuple(doc["post"]), tuple(doc["notes"]),
                          doc["tolerance"], tuple(records))


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


# one template per kind of result value: its keys sorted, at depth 4 of a report
_BOOL_VALUE = _NL[5].join(["{", '"name": %s,', '"value": %s']) + _NL[4] + "}"
_REAL_VALUE = _NL[5].join(["{", '"name": %s,', '"value": %s,', '"vanishing": %s']) + _NL[4] + "}"
_COMPLEX_VALUE = _NL[5].join([
    "{", '"magnitude": %s,', '"magnitude_squared": %s,', '"name": %s,',
    '"value": [' + _NL[6] + "%s," + _NL[6] + "%s" + _NL[5] + "],", '"vanishing": %s',
]) + _NL[4] + "}"


def _value_json(value: ResultValue) -> str:
    x = value.value
    if isinstance(x, bool):
        return _BOOL_VALUE % (_string(value.name), _WORDS[x])
    if isinstance(x, complex):
        m2 = abs2(x)
        return _COMPLEX_VALUE % (_float(math.sqrt(m2)), _float(m2), _string(value.name),
                                 _float(x.real), _float(x.imag), _WORDS[value.vanishing])
    return _REAL_VALUE % (_string(value.name), _float(x), _WORDS[value.vanishing])


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
    expect(report, ScenarioReport, "a ScenarioReport")
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
