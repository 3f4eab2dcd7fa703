"""Named scenarios: bundled selections plus the questions asked between them.

A scenario pins down the particle count, the product pre- and
postselection, a label scheme, and an ordered list of queries. Running
one produces an immutable report in which every amplitude carries a
vanishing verdict, every record echoes its query, and failed queries
carry the error text instead of silently disappearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Union

from .engine import (
    MeasurementSet,
    PrePostSelection,
    abl_amplitude,
    abl_probabilities,
    detailed_probability,
    global_probability,
    transition_element,
    vanishes,
    weak_value,
    weak_value_sum,
)
from .errors import IllegitimateQuestionError, ScenarioNotFoundError, TwoBoxError
from .hilbert import (
    DEFAULT_TOLERANCE,
    Ket,
    Operator,
    eigenstate_residual,
    label_scheme,
    make_single_particle_state,
    canonical_state_name,
    tensor,
)
from .projectors import (
    HamiltonianSpec,
    ProjectorSpec,
    _format_coefficient,
    build_hamiltonian,
    build_projector,
    idempotency_defect,
    is_hermitian,
    is_projector,
    are_orthogonal,
    is_resolution_of_identity,
    relabel_to_spin,
)

SingleStateSpec = Union[str, tuple[complex, complex]]

# a product of projector specs; the empty product acts as the identity
ProjectorProduct = tuple[ProjectorSpec, ...]


@dataclass(frozen=True)
class ProductState:
    """An n-particle state given factor by factor."""

    factors: tuple[SingleStateSpec, ...]


@dataclass(frozen=True)
class ExplicitState:
    """An n-particle state given as a full normalized amplitude vector."""

    amplitudes: tuple[complex, ...]


NParticleState = Union[ProductState, ExplicitState]


@dataclass(frozen=True)
class AblAmplitudeQuery:
    projector: ProjectorProduct
    claim: str | None = None


@dataclass(frozen=True)
class AblProbabilitiesQuery:
    projectors: tuple[ProjectorProduct, ...]
    claim: str | None = None


@dataclass(frozen=True)
class WeakValueQuery:
    projector: ProjectorProduct
    claim: str | None = None


@dataclass(frozen=True)
class WeakValueSumQuery:
    projectors: tuple[ProjectorProduct, ...]
    claim: str | None = None


@dataclass(frozen=True)
class DetailedVsGlobalQuery:
    members: tuple[ProjectorProduct, ...]
    claim: str | None = None


@dataclass(frozen=True)
class TransitionElementQuery:
    hamiltonian: HamiltonianSpec
    claim: str | None = None


PREDICATE_CHECKS = ("is_projector", "orthogonal", "resolution_of_identity", "eigenstate")


@dataclass(frozen=True)
class PredicateQuery:
    """Structural checks: projector-ness, orthogonality, completeness, eigenstates."""

    check: str
    operands: tuple[HamiltonianSpec, ...] = ()
    state: NParticleState | None = None
    eigenvalue: complex | None = None
    claim: str | None = None

    def __post_init__(self):
        if self.check not in PREDICATE_CHECKS:
            raise ValueError(f"unknown predicate check {self.check!r}")
        counts = {"is_projector": 1, "orthogonal": 2, "eigenstate": 1}
        want = counts.get(self.check)
        if want is not None and len(self.operands) != want:
            raise ValueError(f"{self.check} takes exactly {want} operand(s)")
        if self.check == "resolution_of_identity" and not self.operands:
            raise ValueError("resolution_of_identity needs at least one operand")
        if self.check == "eigenstate":
            if self.state is None or self.eigenvalue is None:
                raise ValueError("eigenstate needs a state and an eigenvalue")
        elif self.state is not None or self.eigenvalue is not None:
            raise ValueError(f"{self.check} takes no state or eigenvalue")


Query = Union[
    AblAmplitudeQuery,
    AblProbabilitiesQuery,
    WeakValueQuery,
    WeakValueSumQuery,
    DetailedVsGlobalQuery,
    TransitionElementQuery,
    PredicateQuery,
]

_QUERY_TAGS = {
    AblAmplitudeQuery: "abl_amplitude",
    AblProbabilitiesQuery: "abl_probabilities",
    WeakValueQuery: "weak_value",
    WeakValueSumQuery: "weak_value_sum",
    DetailedVsGlobalQuery: "detailed_vs_global",
    TransitionElementQuery: "transition_element",
    PredicateQuery: "predicate",
}

_QUERY_KINDS = {
    "abl_amplitude": "presence",
    "abl_probabilities": "presence",
    "weak_value": "presence",
    "weak_value_sum": "presence",
    "detailed_vs_global": "presence",
    "transition_element": "transition",
    "predicate": "predicate",
}


def _validate_single_state_spec(spec: SingleStateSpec) -> None:
    if isinstance(spec, str):
        canonical_state_name(spec)
        return
    if len(spec) != 2:
        raise ValueError("an explicit single-particle state needs exactly two coefficients")
    complex(spec[0]), complex(spec[1])


def _query_particle_counts(query: Query):
    if isinstance(query, (AblAmplitudeQuery, WeakValueQuery)):
        for spec in query.projector:
            yield spec.n_particles
    elif isinstance(query, (AblProbabilitiesQuery, WeakValueSumQuery)):
        for product in query.projectors:
            for spec in product:
                yield spec.n_particles
    elif isinstance(query, DetailedVsGlobalQuery):
        for product in query.members:
            for spec in product:
                yield spec.n_particles
    elif isinstance(query, TransitionElementQuery):
        yield query.hamiltonian.n_particles
    elif isinstance(query, PredicateQuery):
        for operand in query.operands:
            yield operand.n_particles
        if isinstance(query.state, ProductState):
            yield len(query.state.factors)
        elif isinstance(query.state, ExplicitState):
            dim = len(query.state.amplitudes)
            n = dim.bit_length() - 1
            if dim < 2 or 2**n != dim:
                raise ValueError("explicit state length must be a power of two >= 2")
            yield n
    else:
        raise TypeError(f"unknown query type {type(query).__name__}")


@dataclass(frozen=True)
class Scenario:
    """A runnable bundle of selection and queries."""

    name: str
    n_particles: int
    pre: tuple[SingleStateSpec, ...]
    post: tuple[SingleStateSpec, ...]
    queries: tuple[Query, ...]
    description: str = ""
    notes: tuple[str, ...] = ()
    labels: str = "box"

    def __post_init__(self):
        if not self.name:
            raise ValueError("a scenario needs a name")
        label_scheme(self.labels)
        if len(self.pre) != self.n_particles or len(self.post) != self.n_particles:
            raise ValueError("pre and post must list one state per particle")
        for spec in (*self.pre, *self.post):
            _validate_single_state_spec(spec)
        for query in self.queries:
            for count in _query_particle_counts(query):
                if count != self.n_particles:
                    raise ValueError(
                        f"query targets {count} particles but the scenario has {self.n_particles}")


@dataclass(frozen=True)
class ResultValue:
    """One named number or verdict inside a query record."""

    name: str
    value: complex | float | bool
    vanishing: bool | None


@dataclass(frozen=True)
class QueryRecord:
    """Echo of one query with its results, or with the error it raised."""

    index: int
    query_type: str
    kind: str
    target: str
    claim: str | None
    results: tuple[ResultValue, ...]
    error: str | None


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    description: str
    labels: str
    n_particles: int
    pre: tuple[str, ...]
    post: tuple[str, ...]
    notes: tuple[str, ...]
    tolerance: float
    records: tuple[QueryRecord, ...]

    def has_errors(self) -> bool:
        return any(r.error is not None for r in self.records)


def _result(name: str, value, tol: float) -> ResultValue:
    if isinstance(value, bool):
        return ResultValue(name, value, None)
    if isinstance(value, complex):
        return ResultValue(name, value, vanishes(value, tol))
    return ResultValue(name, float(value), vanishes(float(value), tol))


def _product_label(product: ProjectorProduct) -> str:
    if not product:
        return "identity"
    return "*".join(spec.label() for spec in product)


def _set_label(products) -> str:
    return "{" + ", ".join(_product_label(p) for p in products) + "}"


def _state_display(spec: SingleStateSpec, scheme) -> str:
    if isinstance(spec, str):
        return scheme.state_display(canonical_state_name(spec))
    return f"({_format_coefficient(complex(spec[0]))}, {_format_coefficient(complex(spec[1]))})"


def _nstate_display(state: NParticleState, scheme) -> str:
    if isinstance(state, ProductState):
        inside = ",".join(_state_display(f, scheme) for f in state.factors)
        return f"|{inside}>"
    parts = ", ".join(_format_coefficient(complex(a)) for a in state.amplitudes)
    return f"[{parts}]"


def _query_meta(query: Query, scheme) -> tuple[str, str, str]:
    tag = _QUERY_TAGS[type(query)]
    kind = _QUERY_KINDS[tag]
    if isinstance(query, (AblAmplitudeQuery, WeakValueQuery)):
        target = _product_label(query.projector)
    elif isinstance(query, (AblProbabilitiesQuery, WeakValueSumQuery)):
        target = _set_label(query.projectors)
    elif isinstance(query, DetailedVsGlobalQuery):
        target = _set_label(query.members)
    elif isinstance(query, TransitionElementQuery):
        target = query.hamiltonian.label()
    else:
        if query.check == "is_projector":
            target = query.operands[0].label()
        elif query.check == "orthogonal":
            target = f"{query.operands[0].label()} vs {query.operands[1].label()}"
        elif query.check == "resolution_of_identity":
            target = "{" + ", ".join(op.label() for op in query.operands) + "}"
        else:
            target = (f"{query.operands[0].label()} on {_nstate_display(query.state, scheme)} "
                      f"with eigenvalue {_format_coefficient(complex(query.eigenvalue))}")
    return tag, kind, target


def _build_product(product: ProjectorProduct, n_particles: int, finish) -> Operator:
    return finish(reduce(lambda a, b: a @ b, map(build_projector, product),
                         Operator.identity(n_particles)))


def _build_nstate(state: NParticleState, finish) -> Ket:
    if isinstance(state, ProductState):
        ket = tensor([make_single_particle_state(f) for f in state.factors])
    else:
        ket = Ket(state.amplitudes)
    return finish(ket)


def _query_results(query: Query, selection: PrePostSelection, n: int,
                   finish, tol: float):
    """Compute the result tuple for one query; may itself record a partial error."""
    results: list[ResultValue] = []
    error: str | None = None

    if isinstance(query, AblAmplitudeQuery):
        op = _build_product(query.projector, n, finish)
        results.append(_result("amplitude", abl_amplitude(selection, op), tol))

    elif isinstance(query, AblProbabilitiesQuery):
        labels = [_product_label(p) for p in query.projectors]
        ops = [_build_product(p, n, finish) for p in query.projectors]
        outcome = abl_probabilities(selection, MeasurementSet(ops, labels), tol)
        for label, amp, prob in zip(labels, outcome.amplitudes, outcome.probabilities):
            results.append(_result(f"amplitude[{label}]", amp, tol))
            results.append(_result(f"probability[{label}]", prob, tol))
        results.append(_result("normalization", outcome.normalization, tol))

    elif isinstance(query, WeakValueQuery):
        op = _build_product(query.projector, n, finish)
        results.append(_result("weak_value", weak_value(selection, op, tol), tol))
        results.append(_result("amplitude", abl_amplitude(selection, op), tol))
        results.append(_result("overlap", selection.overlap(), tol))

    elif isinstance(query, WeakValueSumQuery):
        labels = [_product_label(p) for p in query.projectors]
        ops = [_build_product(p, n, finish) for p in query.projectors]
        for label, op in zip(labels, ops):
            results.append(_result(f"weak_value[{label}]", weak_value(selection, op, tol), tol))
        results.append(_result("weak_value_sum", weak_value_sum(selection, ops, tol), tol))

    elif isinstance(query, DetailedVsGlobalQuery):
        labels = [_product_label(p) for p in query.members]
        ops = [_build_product(p, n, finish) for p in query.members]
        for label, op in zip(labels, ops):
            results.append(_result(f"amplitude[{label}]", abl_amplitude(selection, op), tol))
        results.append(_result("detailed", detailed_probability(selection, ops, tol), tol))
        try:
            results.append(_result("global", global_probability(selection, ops, tol), tol))
        except IllegitimateQuestionError as exc:
            error = str(exc)

    elif isinstance(query, TransitionElementQuery):
        op = finish(build_hamiltonian(query.hamiltonian))
        results.append(_result("transition_element", transition_element(selection, op), tol))

    else:  # PredicateQuery
        ops = [finish(build_hamiltonian(operand)) for operand in query.operands]
        if query.check == "is_projector":
            results.append(_result("is_projector", is_projector(ops[0], tol), tol))
            results.append(_result("hermitian", is_hermitian(ops[0], tol), tol))
            results.append(_result("idempotency_defect", idempotency_defect(ops[0]), tol))
        elif query.check == "orthogonal":
            results.append(_result("orthogonal", are_orthogonal(ops[0], ops[1], tol), tol))
        elif query.check == "resolution_of_identity":
            results.append(_result("resolution_of_identity",
                                   is_resolution_of_identity(ops, tol), tol))
        else:
            ket = _build_nstate(query.state, finish)
            residual = eigenstate_residual(ops[0], ket, query.eigenvalue)
            results.append(_result("is_eigenstate", residual <= tol, tol))
            results.append(_result("residual_norm", residual, tol))

    return tuple(results), error


def run_scenario(scenario: Scenario, tol: float = DEFAULT_TOLERANCE) -> ScenarioReport:
    """Execute every query of a scenario and collect an immutable report.

    Identical inputs always produce equal reports. A query that raises a
    domain error becomes a record with the error text; the remaining
    queries still run.
    """
    scheme = label_scheme(scenario.labels)
    spin = scenario.labels == "spin"

    def finish(value):
        return relabel_to_spin(value) if spin else value

    pre = finish(tensor([make_single_particle_state(f) for f in scenario.pre]))
    post = finish(tensor([make_single_particle_state(f) for f in scenario.post]))
    selection = PrePostSelection(pre, post)

    records = []
    for index, query in enumerate(scenario.queries):
        tag, kind, target = _query_meta(query, scheme)
        try:
            results, error = _query_results(query, selection, scenario.n_particles, finish, tol)
        except TwoBoxError as exc:
            results, error = (), str(exc)
        records.append(QueryRecord(index, tag, kind, target, query.claim, results, error))

    return ScenarioReport(
        scenario=scenario.name,
        description=scenario.description,
        labels=scenario.labels,
        n_particles=scenario.n_particles,
        pre=tuple(_state_display(f, scheme) for f in scenario.pre),
        post=tuple(_state_display(f, scheme) for f in scenario.post),
        notes=scenario.notes,
        tolerance=tol,
        records=tuple(records),
    )


def _pigeonhole_queries() -> tuple[Query, ...]:
    same = lambda i, j: (ProjectorSpec.pair_same(i, j, 3),)
    diff = lambda i, j: (ProjectorSpec.pair_diff(i, j, 3),)
    all3 = (ProjectorSpec.all_same(3),)
    sd = lambda i, j, k: (ProjectorSpec.sd(i, j, k, 3),)
    refined = (sd(1, 2, 3), sd(2, 3, 1), sd(3, 1, 2), all3)
    ham = lambda *specs: HamiltonianSpec.of([(1, s) for s in specs])
    return (
        AblAmplitudeQuery(same(1, 2), claim="pair (1,2) is never found sharing a box"),
        AblAmplitudeQuery(same(2, 3), claim="pair (2,3) is never found sharing a box"),
        AblAmplitudeQuery(same(3, 1), claim="pair (3,1) is never found sharing a box"),
        AblProbabilitiesQuery((same(1, 2), diff(1, 2)),
                              claim="the pair lands in different boxes with certainty"),
        AblAmplitudeQuery(all3,
                          claim="all three particles together in one box stays possible"),
        AblAmplitudeQuery(sd(1, 2, 3),
                          claim="the pair may share once the third particle is pinned to the other box"),
        AblProbabilitiesQuery(refined,
                              claim="the four refined correlation outcomes are equally likely"),
        WeakValueQuery(same(1, 2), claim="weak reading of pair sharing is zero"),
        WeakValueQuery(diff(1, 2), claim="weak reading of pair differing is one"),
        WeakValueQuery(all3, claim="weak reading of triple sharing is -1/2"),
        WeakValueQuery(sd(1, 2, 3), claim="weak reading of pinned-pair sharing is +1/2"),
        WeakValueSumQuery((same(1, 2), same(2, 3)),
                          claim="weak readings of the two pair questions still add"),
        PredicateQuery("is_projector",
                       (ham(ProjectorSpec.pair_same(1, 2, 3), ProjectorSpec.pair_same(2, 3, 3)),),
                       claim="the OR of two pair questions is not a projective question"),
        PredicateQuery("orthogonal",
                       (ham(ProjectorSpec.sd(1, 2, 3, 3)), ham(ProjectorSpec.sd(2, 3, 1, 3))),
                       claim="refined pair questions exclude each other"),
        PredicateQuery("orthogonal",
                       (ham(ProjectorSpec.pair_same(1, 2, 3)), ham(ProjectorSpec.pair_same(2, 3, 3))),
                       claim="plain pair questions do not exclude each other"),
        PredicateQuery("resolution_of_identity",
                       tuple(ham(p[0]) for p in refined),
                       claim="the refined questions form one complete measurement"),
    )


_PIGEONHOLE_NOTE = ("postselection is fixed to the +i superposition for every particle; "
                    "with postselection equal to preselection the pair-sharing amplitudes "
                    "would be 1/2 instead of zero")


def _scenario_pigeonhole3() -> Scenario:
    return Scenario(
        name="pigeonhole3",
        n_particles=3,
        pre=("+", "+", "+"),
        post=("+i", "+i", "+i"),
        queries=_pigeonhole_queries(),
        description="three particles, two boxes: no pair shares a box, yet refined sharing persists",
        notes=(_PIGEONHOLE_NOTE,),
    )


def _scenario_transition() -> Scenario:
    pair = lambda i, j: ProjectorSpec.pair_same(i, j, 3)
    sd = lambda i, j, k: ProjectorSpec.sd(i, j, k, 3)
    pairwise = HamiltonianSpec.of([(1, pair(1, 2)), (1, pair(2, 3)), (1, pair(3, 1))])
    refined = HamiltonianSpec.of([(1, sd(1, 2, 3)), (1, sd(2, 3, 1)), (1, sd(3, 1, 2))])
    return Scenario(
        name="transition",
        n_particles=3,
        pre=("+", "+", "+"),
        post=("+i", "+i", "+i"),
        queries=(
            TransitionElementQuery(pairwise,
                                   claim="same-box pair coupling drives no transition"),
            TransitionElementQuery(refined,
                                   claim="pinned-pair coupling does drive the transition"),
        ),
        description="interaction terms built from correlation projectors, unit coupling",
        notes=("coupling strength is 1 for every term; scale coefficients to taste",),
    )


def _scenario_detailed_vs_global() -> Scenario:
    box = lambda p, b: ProjectorSpec.box_occupation(p, b, 3)
    pair = lambda i, j: ProjectorSpec.pair_same(i, j, 3)
    return Scenario(
        name="detailed-vs-global",
        n_particles=3,
        pre=("+", "+", "+"),
        post=("+i", "+i", "+i"),
        queries=(
            DetailedVsGlobalQuery(
                ((box(1, "L"), box(2, "L")), (box(1, "R"), box(2, "R"))),
                claim="adding the two sharing outcomes gives 1/16 while the joint question gives zero"),
            DetailedVsGlobalQuery(
                ((pair(1, 2),), (pair(2, 3),)),
                claim="a set whose sum is not a projector answers only term by term"),
        ),
        description="incoherent member-by-member probability against the coherent joint question",
    )


def _scenario_coherent_enhancement() -> Scenario:
    box = lambda p, b: ProjectorSpec.box_occupation(p, b, 2)
    return Scenario(
        name="coherent-enhancement",
        n_particles=2,
        pre=("+", "+"),
        post=("+", "+"),
        queries=(
            DetailedVsGlobalQuery(
                ((box(1, "L"), box(2, "L")), (box(1, "R"), box(2, "R"))),
                claim="the joint question can also exceed the member sum: 1/4 against 1/8"),
        ),
        description="with equal pre- and postselection the coherent question comes out larger",
    )


def _scenario_spin_relabel() -> Scenario:
    return Scenario(
        name="spin-relabel",
        n_particles=3,
        pre=("+", "+", "+"),
        post=("+i", "+i", "+i"),
        queries=_pigeonhole_queries(),
        description="the box computation rewritten for spin-1/2 particles, numbers unchanged",
        notes=("up replaces L, down replaces R, x and y superpositions replace the box ones; "
               "every number matches the pigeonhole3 run exactly",),
        labels="spin",
    )


def _scenario_eigenspace_degeneracy() -> Scenario:
    shared = HamiltonianSpec.of([(1, ProjectorSpec.pair_same(1, 2, 2))])
    half = math.sqrt(0.5)
    return Scenario(
        name="eigenspace-degeneracy",
        n_particles=2,
        pre=("+", "+"),
        post=("+", "+"),
        queries=(
            PredicateQuery("eigenstate", (shared,), state=ProductState(("L", "L")),
                           eigenvalue=1, claim="both-left is a sharing eigenstate"),
            PredicateQuery("eigenstate", (shared,), state=ProductState(("R", "R")),
                           eigenvalue=1, claim="both-right is a sharing eigenstate"),
            PredicateQuery("eigenstate", (shared,),
                           state=ExplicitState((half, 0, 0, half)),
                           eigenvalue=1,
                           claim="the entangled combination is an equally good eigenstate"),
            PredicateQuery("eigenstate", (shared,), state=ProductState(("L", "R")),
                           eigenvalue=1, claim="a split pair is not an eigenstate"),
        ),
        description="the pair-sharing question is degenerate: product and entangled eigenstates alike",
    )


_BUILTIN_BUILDERS = (
    _scenario_pigeonhole3,
    _scenario_transition,
    _scenario_detailed_vs_global,
    _scenario_coherent_enhancement,
    _scenario_spin_relabel,
    _scenario_eigenspace_degeneracy,
)


def builtin_scenarios() -> list[Scenario]:
    """All builtin scenarios in a stable order."""
    return [build() for build in _BUILTIN_BUILDERS]


def lookup_scenario(name: str) -> Scenario:
    """Find a builtin scenario by name."""
    for scenario in builtin_scenarios():
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in builtin_scenarios())
    raise ScenarioNotFoundError(f"unknown scenario {name!r}; builtins are: {known}")
