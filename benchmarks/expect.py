"""Expected report contents from the brute-force oracle in ``tests/oracle.py``.

Nothing here calls a twobox function: every number comes from the oracle's
label-by-label sums over a scenario *document* (the JSON form a user writes).
``scenario_doc`` turns a builtin scenario into that form by reading only the
public fields of its dataclasses.

An expected report is a list of records ``{"results", "error"}``
where ``results`` is a list of ``(name, value)`` with ``name`` the result
name up to any ``[label]`` suffix.
"""

import math
import re
from types import SimpleNamespace

import oracle

TOL = 1e-12  # the package's default tolerance; reports are made with it
PRINTED = 1e-5  # table output carries 6 significant digits

ALIASES = {"plus": "+", "minus": "-", "plus_i": "+i", "minus_i": "-i"}


def spec(doc, n):
    """A projector description the oracle can read, from its document form."""
    pair = tuple(doc["pair"]) if "pair" in doc else None
    return SimpleNamespace(kind=doc["kind"], n_particles=n, particle=doc.get("particle"),
                           box=doc.get("box"), pair=pair, other=doc.get("other"))


def single(state):
    """(cL, cR) of a named or explicit single-particle state, normalized."""
    if isinstance(state, str):
        return oracle.NAMED[ALIASES.get(state, state)]
    cl, cr = complex(*state["cL"]), complex(*state["cR"])
    scale = math.sqrt(oracle.abs2(cl) + oracle.abs2(cr))
    return cl / scale, cr / scale


def product(states):
    factors = [single(s) for s in states]
    out = {}
    for lab in oracle.labels(len(states)):
        a = 1.0 + 0j
        for (cl, cr), letter in zip(factors, lab):
            a *= cl if letter == "L" else cr
        out[lab] = a
    return out


def nstate(doc, n):
    if "product" in doc:
        return product(doc["product"])
    return oracle.state_from_vector([complex(*a) for a in doc["amplitudes"]], n)


def member_specs(doc, n):
    items = doc if isinstance(doc, list) else [doc]
    return [spec(p, n) for p in items]


def member_diagonal(doc, n):
    cond = oracle.product_condition(member_specs(doc, n))
    return [1.0 if cond(b) else 0.0 for b in oracle.labels(n)]


def operator_terms(doc, n):
    """(coefficient, spec) terms of an operator expression or a hamiltonian."""
    if isinstance(doc, list):
        terms = doc
    elif "terms" in doc and "kind" not in doc:
        terms = doc["terms"]
    else:
        return [(1 + 0j, spec(doc, n))]
    return [(complex(*t.get("coeff", [1, 0])), spec(t["projector"], n)) for t in terms]


def operator_diagonal(doc, n):
    diag = [0j] * 2 ** n
    for coeff, s in operator_terms(doc, n):
        for k, bit in enumerate(oracle.diagonal(s)):
            diag[k] += coeff * bit
    return diag


def projector_verdicts(d):
    """(is_projector, hermitian, idempotency_defect) of a diagonal operator."""
    hermitian = max(abs(2 * z.imag) for z in d) <= TOL
    defect = max(abs(z * z - z) for z in d)
    return hermitian and defect <= TOL, hermitian, defect


def _orthogonal(a, b):
    return max(abs(x * y) for x, y in zip(a, b)) <= TOL


def _resolves_identity(diags):
    if not all(projector_verdicts(d)[0] for d in diags):
        return False
    if any(not _orthogonal(diags[i], diags[j])
           for i in range(len(diags)) for j in range(i + 1, len(diags))):
        return False
    return max(abs(sum(col) - 1) for col in zip(*diags)) <= TOL


def _query(q, n, pre, post):
    kind = q["type"]
    bracket = lambda m: oracle.bracket(post, oracle.product_condition(member_specs(m, n)), pre, n)
    overlap = oracle.overlap(post, pre, n)
    if kind == "abl_amplitude":
        return [("amplitude", bracket(q["projector"]))], None
    if kind == "weak_value":
        amp = bracket(q["projector"])
        return [("weak_value", amp / overlap), ("amplitude", amp), ("overlap", overlap)], None
    if kind == "abl_probabilities":
        if not _resolves_identity([member_diagonal(m, n) for m in q["projectors"]]):
            return [], "incomplete measurement"
        amps = [bracket(m) for m in q["projectors"]]
        norm = sum(oracle.abs2(a) for a in amps)
        out = []
        for a in amps:
            out += [("amplitude", a), ("probability", oracle.abs2(a) / norm)]
        return out + [("normalization", norm)], None
    if kind == "weak_value_sum":
        values = [bracket(m) / overlap for m in q["projectors"]]
        return [("weak_value", v) for v in values] + [("weak_value_sum", sum(values))], None
    if kind == "detailed_vs_global":
        amps = [bracket(m) for m in q["members"]]
        out = [("amplitude", a) for a in amps]
        out.append(("detailed", sum(oracle.abs2(a) for a in amps)))
        total = [sum(col) for col in zip(*(member_diagonal(m, n) for m in q["members"]))]
        if any(t not in (0.0, 1.0) for t in total):
            return out, "not a legitimate question"
        return out + [("global", oracle.abs2(sum(amps)))], None
    if kind == "transition_element":
        terms = operator_terms(q["hamiltonian"], n)
        return [("transition_element", oracle.weighted_bracket(post, terms, pre, n))], None
    diags = [operator_diagonal(o, n) for o in q["operators"]]
    check = q["check"]
    if check == "is_projector":
        verdict, hermitian, defect = projector_verdicts(diags[0])
        return [("is_projector", verdict), ("hermitian", hermitian),
                ("idempotency_defect", defect)], None
    if check == "orthogonal":
        return [("orthogonal", _orthogonal(diags[0], diags[1]))], None
    if check == "resolution_of_identity":
        return [("resolution_of_identity", _resolves_identity(diags))], None
    psi = nstate(q["state"], n)
    lam = complex(*q["eigenvalue"])
    residual = math.sqrt(sum(oracle.abs2((d - lam) * psi[b])
                             for d, b in zip(diags[0], oracle.labels(n))))
    return [("is_eigenstate", residual <= TOL), ("residual_norm", residual)], None


def expected_report(doc):
    n = doc["particles"]
    pre, post = product(doc["pre"]), product(doc["post"])
    records = []
    for q in doc["queries"]:
        results, error = _query(q, n, pre, post)
        records.append({"results": results, "error": error})
    return records


# builtin scenarios in document form -------------------------------------------

def _projector_doc(s):
    if s.kind == "box":
        return {"kind": "box", "particle": s.particle, "box": s.box}
    if s.kind == "all_same":
        return {"kind": "all_same"}
    out = {"kind": s.kind, "pair": list(s.pair)}
    if s.kind == "sd":
        out["other"] = s.other
    return out


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _terms_doc(h):
    return [{"coeff": _pair(c), "projector": _projector_doc(p)} for c, p in h.terms]


def _state_doc(s):
    return s if isinstance(s, str) else {"cL": _pair(s[0]), "cR": _pair(s[1])}


def scenario_doc(scenario):
    """The document form of a scenario object, from its public fields only."""
    member = lambda product: [_projector_doc(s) for s in product]
    queries = []
    for q in scenario.queries:
        kind = type(q).__name__
        if kind in ("AblAmplitudeQuery", "WeakValueQuery"):
            tag = "abl_amplitude" if kind == "AblAmplitudeQuery" else "weak_value"
            queries.append({"type": tag, "projector": member(q.projector)})
        elif kind in ("AblProbabilitiesQuery", "WeakValueSumQuery"):
            tag = "abl_probabilities" if kind == "AblProbabilitiesQuery" else "weak_value_sum"
            queries.append({"type": tag, "projectors": [member(p) for p in q.projectors]})
        elif kind == "DetailedVsGlobalQuery":
            queries.append({"type": "detailed_vs_global",
                            "members": [member(p) for p in q.members]})
        elif kind == "TransitionElementQuery":
            queries.append({"type": "transition_element",
                            "hamiltonian": _terms_doc(q.hamiltonian)})
        else:
            pq = {"type": "predicate", "check": q.check,
                  "operators": [{"terms": _terms_doc(h)} for h in q.operands]}
            if q.state is not None:
                if hasattr(q.state, "factors"):
                    pq["state"] = {"product": [_state_doc(f) for f in q.state.factors]}
                else:
                    pq["state"] = {"amplitudes": [_pair(a) for a in q.state.amplitudes]}
                pq["eigenvalue"] = _pair(q.eigenvalue)
            queries.append(pq)
    return {"name": scenario.name, "particles": scenario.n_particles,
            "labels": scenario.labels, "pre": [_state_doc(s) for s in scenario.pre],
            "post": [_state_doc(s) for s in scenario.post], "queries": queries}


# comparing reports ------------------------------------------------------------

def _close(actual, expected, tol):
    if isinstance(expected, bool) or isinstance(actual, bool):
        return actual is expected
    return abs(actual - expected) <= tol * max(1.0, abs(expected))


def compare(records, expected, tol=TOL):
    """Problems found when rendered records ``[(results, error)]`` meet the oracle.

    ``results`` holds ``(name, value, vanishing)`` with ``vanishing`` None for
    verdicts. An empty list means the report is correct.
    """
    if len(records) != len(expected):
        return [f"{len(records)} records, expected {len(expected)}"]
    problems = []
    for i, ((results, error), want) in enumerate(zip(records, expected)):
        if error != want["error"]:
            problems.append(f"record {i}: error {error!r}, expected {want['error']!r}")
        if len(results) != len(want["results"]):
            problems.append(f"record {i}: {len(results)} results, expected {len(want['results'])}")
            continue
        for (name, value, vanishing), (want_name, want_value) in zip(results, want["results"]):
            if name.split("[")[0] != want_name or not _close(value, want_value, tol):
                problems.append(f"record {i}: {name} = {value!r}, expected "
                                f"{want_name} = {want_value!r}")
            elif vanishing is not None and vanishing != (abs(want_value) <= TOL):
                problems.append(f"record {i}: {name} vanishing flag is {vanishing}")
    return problems


def json_records(report):
    """Records of a report document produced by ``render_report_json``."""
    out = []
    for q in report["queries"]:
        results = []
        for r in q["results"]:
            v = r["value"]
            value = complex(*v) if isinstance(v, list) else v
            results.append((r["name"], value, r.get("vanishing")))
        out.append((results, q["error"]))
    return out


_ANNOTATION = re.compile(r" \(= .*\)$")
_COMPLEX = re.compile(r"^(\S+) ([+-]) (\S+)i$")


def _number(text):
    if text in ("true", "false"):
        return text == "true"
    m = _COMPLEX.match(text)
    if m:
        imag = float(m.group(3))
        return complex(float(m.group(1)), imag if m.group(2) == "+" else -imag)
    if text.endswith("i"):
        return complex(0.0, float(text[:-1]))
    return float(text)


def table_records(text):
    """Records of the table that ``twobox run`` prints by default."""
    out = []
    for line in text.splitlines():
        if line.startswith("["):
            out.append(([], None))
        elif out and line.startswith("    error: "):
            out[-1] = (out[-1][0], line[len("    error: "):])
        elif out and line.startswith("    ") and not line.startswith("    claim: "):
            name, _, body = line.strip().partition(" = ")
            vanishing = body.endswith("  [vanishing]")
            body = _ANNOTATION.sub("", body.removesuffix("  [vanishing]"))
            value = _number(body)
            out[-1][0].append((name, value, None if isinstance(value, bool) else vanishing))
    return out
