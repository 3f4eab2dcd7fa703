"""Named scenarios: bundled selections plus the questions asked between them.

A scenario pins down the particle count, the product pre- and
postselection, a label scheme, and an ordered list of queries. Running
one produces an immutable report in which every amplitude carries a
vanishing verdict, every record echoes its query, and failed queries
carry the error text instead of silently disappearing.

Each query type is one frozen dataclass holding all it means: class
attributes ``tag`` (its file ``type``) and ``kind``, ``particle_counts()``,
``target(scheme)`` for its record, and ``results(selection, tol)``, which
yields ``(name, value)`` pairs. A new query type is such a class in
``Query`` plus a branch of the scenario schema. If ``results`` raises a
TwoBoxError, the record carries its message: an IllegitimateQuestionError
keeps the results yielded before it, any other error discards them.

Which path runs: the selection of a scenario is a product state, so every
query built from projector specs (all but ``predicate``) is computed factor
by factor (``projectors._product_amplitude``) with no 2**n operator, and its
preconditions (completeness, projector-ness) are checked exactly on the
specs' 0/1 masks. Beyond the masks, a 2**n vector is formed only for the
cross-check of a weak-value sum (conj(post)*pre) and for a transition element
whose coefficient sums overflow: that one is built as an operator, so its
refusal reads as in :mod:`twobox.engine`. Predicates always use built
operators, and their checks run on each operator's stored array (see
:mod:`twobox.projectors`). The values match the operator route of
:mod:`twobox.engine` up to rounding in the last bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache, reduce
from typing import Union

import numpy as np

from .engine import (
    PrePostSelection,
    _abl_result,
    _linearity_checked,
    _weak_denominator,
    transition_element,
    vanishes,
)
from .errors import (IllegitimateQuestionError, IncompleteMeasurementError, InvalidArgumentError,
                     NotAProjectorError, ScenarioNotFoundError, TwoBoxError, quoted)
from .hilbert import (
    DEFAULT_TOLERANCE,
    Ket,
    _as_number,
    abs2,
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
    _mask_sum_is_projector,
    _masks_resolve_identity,
    _product_amplitude,
    _product_mask,
    build_hamiltonian,
    idempotency_defect,
    is_hermitian,
    are_orthogonal,
    is_resolution_of_identity,
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


class _ProductSelection:
    """The product pre- and postselection of a run, kept particle by particle.

    ``weights[k - 1]`` holds c_k(b) = conj(post_k[b]) pre_k[b] for b = L, R,
    so every spec-built amplitude factorizes (``_product_amplitude``) and
    <post|pre> is the product of c_k(L) + c_k(R). The 2**n vectors are built
    only for a query that needs them.
    """

    def __init__(self, pre: list[Ket], post: list[Ket]):
        self.pre, self.post = pre, post
        self.n_particles = len(pre)
        self._weight_rows = np.conj([k.amplitudes for k in post]) * [k.amplitudes for k in pre]
        self.weights = self._weight_rows.tolist()
        self.overlap = _product_amplitude((), self.weights)

    def amplitude(self, product: ProjectorProduct) -> complex:
        return _product_amplitude(product, self.weights)

    def masks(self, products) -> list[np.ndarray]:
        return [_product_mask(p, self.n_particles) for p in products]

    def weight_vector(self) -> np.ndarray:
        """conj(post) * pre entry by entry, formed factor by factor."""
        return reduce(lambda a, b: np.multiply.outer(a, b).ravel(), self._weight_rows)

    def vectors(self) -> PrePostSelection:
        return PrePostSelection(tensor(self.pre), tensor(self.post))


# the query classes below these two bases add no fields, so they keep the
# generated __init__, __repr__ and __eq__, which name the subclass
@dataclass(frozen=True)
class _OneProduct:
    projector: ProjectorProduct
    claim: str | None = None
    kind = "presence"

    def particle_counts(self):
        return (spec.n_particles for spec in self.projector)

    def target(self, scheme) -> str:
        return _product_label(self.projector)


class AblAmplitudeQuery(_OneProduct):
    tag = "abl_amplitude"

    def results(self, selection: _ProductSelection, tol: float):
        yield "amplitude", selection.amplitude(self.projector)


class WeakValueQuery(_OneProduct):
    tag = "weak_value"

    def results(self, selection: _ProductSelection, tol: float):
        denominator = _weak_denominator(selection.overlap, tol)
        amplitude = selection.amplitude(self.projector)
        yield "weak_value", amplitude / denominator
        yield "amplitude", amplitude
        yield "overlap", selection.overlap


@dataclass(frozen=True)
class _ProductSet:
    projectors: tuple[ProjectorProduct, ...]
    claim: str | None = None
    kind = "presence"

    def particle_counts(self):
        return (spec.n_particles for product in self.projectors for spec in product)

    def target(self, scheme) -> str:
        return _set_label(self.projectors)


class AblProbabilitiesQuery(_ProductSet):
    tag = "abl_probabilities"

    def results(self, selection: _ProductSelection, tol: float):
        if not self.projectors:
            raise InvalidArgumentError("a measurement set needs at least one projector")
        if not _masks_resolve_identity(selection.masks(self.projectors), tol):
            raise IncompleteMeasurementError("incomplete measurement")
        outcome = _abl_result([selection.amplitude(p) for p in self.projectors], tol)
        labels = [_product_label(p) for p in self.projectors]
        for label, amp, prob in zip(labels, outcome.amplitudes, outcome.probabilities):
            yield f"amplitude[{label}]", amp
            yield f"probability[{label}]", prob
        yield "normalization", outcome.normalization


class WeakValueSumQuery(_ProductSet):
    tag = "weak_value_sum"

    def results(self, selection: _ProductSelection, tol: float):
        if not self.projectors:
            yield "weak_value_sum", 0j
            return
        denominator = _weak_denominator(selection.overlap, tol)
        total = 0
        for product in self.projectors:
            value = selection.amplitude(product) / denominator
            total += value
            yield f"weak_value[{_product_label(product)}]", value
        # cross-check: the summed masks against conj(post)*pre, label by label
        masks = selection.masks(self.projectors)
        via_sum = complex(np.dot(np.sum(masks, axis=0), selection.weight_vector())) / denominator
        # each largest entry, as in engine.weak_value_sum: 1 unless the mask is empty
        scale = sum(1 for mask in masks if mask.any()) / abs(denominator)
        yield "weak_value_sum", _linearity_checked(total, via_sum, scale,
                                                   2**selection.n_particles + len(masks))


@dataclass(frozen=True)
class DetailedVsGlobalQuery:
    members: tuple[ProjectorProduct, ...]
    claim: str | None = None
    tag = "detailed_vs_global"
    kind = "presence"

    def particle_counts(self):
        return (spec.n_particles for product in self.members for spec in product)

    def target(self, scheme) -> str:
        return _set_label(self.members)

    def results(self, selection: _ProductSelection, tol: float):
        amplitudes = [selection.amplitude(p) for p in self.members]
        for product, amplitude in zip(self.members, amplitudes):
            yield f"amplitude[{_product_label(product)}]", amplitude
        # a product of 0/1 diagonals is a projector, whose defects are exactly 0
        if self.members and not tol >= 0:
            raise NotAProjectorError("non-projector member")
        yield "detailed", sum(abs2(a) for a in amplitudes)
        if not self.members:
            raise InvalidArgumentError("global probability needs at least one projector")
        if not _mask_sum_is_projector(selection.masks(self.members), tol):
            raise IllegitimateQuestionError("not a legitimate question")
        yield "global", abs2(sum(amplitudes))


@dataclass(frozen=True)
class TransitionElementQuery:
    hamiltonian: HamiltonianSpec
    claim: str | None = None
    tag = "transition_element"
    kind = "transition"

    def particle_counts(self):
        return (self.hamiltonian.n_particles,)

    def target(self, scheme) -> str:
        return self.hamiltonian.label()

    def results(self, selection: _ProductSelection, tol: float):
        terms = self.hamiltonian.terms
        if (math.isfinite(sum(abs(c.real) for c, _ in terms))
                and math.isfinite(sum(abs(c.imag) for c, _ in terms))):
            # no entry of the built operator could overflow, so it would refuse nothing
            value = sum((c * selection.amplitude((spec,)) for c, spec in terms), 0j)
        else:
            value = transition_element(selection.vectors(), build_hamiltonian(self.hamiltonian))
        yield "transition_element", value


PREDICATE_CHECKS = ("is_projector", "orthogonal", "resolution_of_identity", "eigenstate")


@dataclass(frozen=True)
class PredicateQuery:
    """Structural checks: projector-ness, orthogonality, completeness, eigenstates."""

    check: str
    operands: tuple[HamiltonianSpec, ...] = ()
    state: NParticleState | None = None
    eigenvalue: complex | None = None
    claim: str | None = None
    tag = "predicate"
    kind = "predicate"

    def __post_init__(self):
        if self.check not in PREDICATE_CHECKS:
            raise InvalidArgumentError(f"unknown predicate check {self.check!r}")
        counts = {"is_projector": 1, "orthogonal": 2, "eigenstate": 1}
        want = counts.get(self.check)
        if want is not None and len(self.operands) != want:
            raise InvalidArgumentError(f"{self.check} takes exactly {want} operand(s)")
        if self.check == "resolution_of_identity" and not self.operands:
            raise InvalidArgumentError("resolution_of_identity needs at least one operand")
        if self.check == "eigenstate":
            if self.state is None or self.eigenvalue is None:
                raise InvalidArgumentError("eigenstate needs a state and an eigenvalue")
            _as_number(self.eigenvalue, "eigenvalue")
        elif self.state is not None or self.eigenvalue is not None:
            raise InvalidArgumentError(f"{self.check} takes no state or eigenvalue")

    def particle_counts(self):
        for operand in self.operands:
            yield operand.n_particles
        if isinstance(self.state, ProductState):
            yield len(self.state.factors)
        elif isinstance(self.state, ExplicitState):
            dim = len(self.state.amplitudes)
            n = dim.bit_length() - 1
            if dim < 2 or 2**n != dim:
                raise InvalidArgumentError("explicit state length must be a power of two >= 2")
            yield n

    def target(self, scheme) -> str:
        labels = [op.label() for op in self.operands]
        if self.check == "is_projector":
            return labels[0]
        if self.check == "orthogonal":
            return f"{labels[0]} vs {labels[1]}"
        if self.check == "resolution_of_identity":
            return "{" + ", ".join(labels) + "}"
        return (f"{labels[0]} on {_nstate_display(self.state, scheme)} "
                f"with eigenvalue {_format_coefficient(complex(self.eigenvalue))}")

    def results(self, selection: _ProductSelection, tol: float):
        ops = [build_hamiltonian(operand) for operand in self.operands]
        if self.check == "is_projector":
            hermitian, defect = is_hermitian(ops[0], tol), idempotency_defect(ops[0])
            yield "is_projector", hermitian and defect <= tol
            yield "hermitian", hermitian
            yield "idempotency_defect", defect
        elif self.check == "orthogonal":
            yield "orthogonal", are_orthogonal(ops[0], ops[1], tol)
        elif self.check == "resolution_of_identity":
            yield "resolution_of_identity", is_resolution_of_identity(ops, tol)
        else:
            ket = (tensor([make_single_particle_state(f) for f in self.state.factors])
                   if isinstance(self.state, ProductState) else Ket(self.state.amplitudes))
            residual = eigenstate_residual(ops[0], ket, self.eigenvalue)
            yield "is_eigenstate", residual <= tol
            yield "residual_norm", residual


Query = Union[
    AblAmplitudeQuery,
    AblProbabilitiesQuery,
    WeakValueQuery,
    WeakValueSumQuery,
    DetailedVsGlobalQuery,
    TransitionElementQuery,
    PredicateQuery,
]


def _validate_single_state_spec(spec: SingleStateSpec) -> None:
    if isinstance(spec, str):
        canonical_state_name(spec)
        return
    if not hasattr(spec, "__len__") or len(spec) != 2:
        raise InvalidArgumentError("an explicit single-particle state needs exactly two coefficients")
    _as_number(spec[0], "a state coefficient"), _as_number(spec[1], "a state coefficient")


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
            raise InvalidArgumentError("a scenario needs a name")
        label_scheme(self.labels)
        if len(self.pre) != self.n_particles or len(self.post) != self.n_particles:
            raise InvalidArgumentError("pre and post must list one state per particle")
        for spec in (*self.pre, *self.post):
            _validate_single_state_spec(spec)
        for query in self.queries:
            if not isinstance(query, Query):
                raise InvalidArgumentError(f"unknown query type {type(query).__name__}")
            for count in query.particle_counts():
                if count != self.n_particles:
                    raise InvalidArgumentError(
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


def run_scenario(scenario: Scenario, tol: float = DEFAULT_TOLERANCE) -> ScenarioReport:
    """Execute every query of a scenario and collect an immutable report.

    Identical inputs always produce equal reports. A query that raises a
    domain error becomes a record with the error text; the remaining
    queries still run, and partial results follow the rule in the
    module docstring. ``tol`` must be a real number other than NaN; a
    negative one is allowed.
    """
    if not isinstance(tol, numbers.Real) or tol != tol:  # tol != tol: NaN
        raise InvalidArgumentError(f"tolerance must be a real number, got {quoted(tol)}")
    scheme = label_scheme(scenario.labels)
    selection = _ProductSelection([make_single_particle_state(f) for f in scenario.pre],
                                  [make_single_particle_state(f) for f in scenario.post])

    records = []
    for index, query in enumerate(scenario.queries):
        target = query.target(scheme)
        results, error = [], None
        try:
            for name, value in query.results(selection, tol):
                results.append(_result(name, value, tol))
        except IllegitimateQuestionError as exc:
            error = str(exc)
        except TwoBoxError as exc:
            results, error = [], str(exc)
        records.append(QueryRecord(index, query.tag, query.kind, target, query.claim,
                                   tuple(results), error))

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


@cache
def _builtins() -> dict[str, Scenario]:
    """The builtin scenarios by name, built and checked once; a Scenario is frozen."""
    return {scenario.name: scenario for scenario in (build() for build in _BUILTIN_BUILDERS)}


def builtin_scenarios() -> list[Scenario]:
    """All builtin scenarios in a stable order, in a new list."""
    return list(_builtins().values())


def lookup_scenario(name: str) -> Scenario:
    """Find a builtin scenario by name."""
    try:
        return _builtins()[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        known = ", ".join(_builtins())
        raise ScenarioNotFoundError(f"unknown scenario {name!r}; builtins are: {known}") from None
