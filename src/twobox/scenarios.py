"""Named scenarios: bundled selections plus the questions asked between them.

A scenario pins down the particle count, the product pre- and
postselection, a label scheme, and an ordered list of queries. Running
one produces an immutable report in which every amplitude carries a
vanishing verdict, every record echoes its query, and failed queries
carry the error text instead of silently disappearing.

Each query type is one frozen record holding all it means: class
attributes ``tag`` (its file ``type``), ``kind``, ``keys`` (the document
keys it requires besides ``type``, in the order a missing one is reported)
and, where it has any, ``optional_keys`` (those it may hold besides
``claim``); ``particle_counts()``, ``target(scheme)`` for its record, and
``results(selection, tol)``, which yields ``(name, value)`` pairs. A new
query type is such a class added to ``Query``: :mod:`twobox.scenario_io`
builds its schema branch and its key check from ``keys``, and reads each
key through its row of ``_QUERY_FIELDS``, so a key no other type uses
needs a row there too. If ``results`` raises a
TwoBoxError, the record carries its message: an IllegitimateQuestionError
keeps the results yielded before it, any other error discards them.

Which path runs: a scenario's selection is a product state, kept as each
particle's normalized (cL, cR) pair, so every query built from projector
specs is computed on the label classes of its specs, with no 2**n array.
One object per run answers them (``projectors._LabelClasses``, whose
docstring states the route), and each query's ``results`` calls it
directly. No query loads numpy.
``run_scenario`` checks its tolerance once; each reported value is then
judged vanishing or not against it with no further check.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Sequence
from functools import cache
from typing import Union

from .engine import _abl_result, _linearity_checked, _sum_abs2, _vanishes, _weak_denominator
from .errors import (IllegitimateQuestionError, IncompleteMeasurementError, InvalidArgumentError,
                     NotAProjectorError, ScenarioNotFoundError, TwoBoxError, expect,
                     expect_tolerance)
from .hilbert import (
    DEFAULT_TOLERANCE,
    _Record,
    _as_number,
    _check_particle_count,
    _explicit_amplitudes,
    _product_amplitudes,
    _single_pair,
    abs2,
    label_scheme,
    canonical_state_name,
)
from .projectors import (
    HamiltonianSpec,
    ProjectorSpec,
    _are_orthogonal,
    _class_diagonals,
    _counts_resolve_identity,
    _eigenstate_residual,
    _format_coefficient,
    _idempotency_defect,
    _is_hermitian,
    _is_projector,
    _LabelClasses,
    _resolves_identity,
)

SingleStateSpec = Union[str, tuple[complex, complex]]

# a product of projector specs; the empty product acts as the identity
ProjectorProduct = tuple[ProjectorSpec, ...]


class ProductState(_Record):
    """An n-particle state given factor by factor."""

    def __init__(self, factors: tuple[SingleStateSpec, ...]):
        self.__dict__.update(factors=factors)


class ExplicitState(_Record):
    """An n-particle state given as a full normalized amplitude vector."""

    def __init__(self, amplitudes: tuple[complex, ...]):
        self.__dict__.update(amplitudes=amplitudes)


NParticleState = Union[ProductState, ExplicitState]


def _collection(values, what: str):
    """``values`` if it is a collection, and not a str, which would count as one
    item per character; anything else refused."""
    if isinstance(values, str):
        raise InvalidArgumentError(f"expected {what}, got str")
    return expect(values, Collection, what)


def _particle_counts(products):
    """The particle count of every spec in ``products``, which a scenario checks;
    anything but a ProjectorSpec is refused."""
    for product in expect(products, Iterable, "an iterable of projector products"):
        for spec in expect(product, Iterable, "a projector product"):
            yield expect(spec, ProjectorSpec, "a ProjectorSpec").n_particles


# the query classes below these two bases add no fields, so they keep the
# bases' __init__; repr and equality name the subclass
class _OneProduct(_Record):
    kind = "presence"
    keys = ("projector",)

    def __init__(self, projector: ProjectorProduct, claim: str | None = None):
        self.__dict__.update(projector=projector, claim=claim)

    def particle_counts(self):
        return _particle_counts((self.projector,))

    def target(self, scheme) -> str:
        return _product_label(self.projector)


class AblAmplitudeQuery(_OneProduct):
    tag = "abl_amplitude"

    def results(self, selection: _LabelClasses, tol: float):
        yield "amplitude", selection.amplitude(self.projector)


class WeakValueQuery(_OneProduct):
    tag = "weak_value"

    def results(self, selection: _LabelClasses, tol: float):
        denominator = _weak_denominator(selection.overlap, tol)
        amplitude = selection.amplitude(self.projector)
        yield "weak_value", amplitude / denominator
        yield "amplitude", amplitude
        yield "overlap", selection.overlap


class _ProductSet(_Record):
    kind = "presence"
    keys = ("projectors",)

    def __init__(self, projectors: tuple[ProjectorProduct, ...], claim: str | None = None):
        self.__dict__.update(projectors=projectors, claim=claim)

    def particle_counts(self):
        return _particle_counts(self.projectors)

    def target(self, scheme) -> str:
        return _set_label(self.projectors)


class AblProbabilitiesQuery(_ProductSet):
    tag = "abl_probabilities"

    def results(self, selection: _LabelClasses, tol: float):
        if not self.projectors:
            raise InvalidArgumentError("a measurement set needs at least one projector")
        counts = [sum(holds) for _, holds in selection.table(self.projectors)]
        if not _counts_resolve_identity(counts, tol):
            raise IncompleteMeasurementError("incomplete measurement")
        outcome = _abl_result([selection.amplitude(p) for p in self.projectors], tol)
        labels = [_product_label(p) for p in self.projectors]
        for label, amp, prob in zip(labels, outcome.amplitudes, outcome.probabilities):
            yield f"amplitude[{label}]", amp
            yield f"probability[{label}]", prob
        yield "normalization", outcome.normalization


class WeakValueSumQuery(_ProductSet):
    tag = "weak_value_sum"

    def results(self, selection: _LabelClasses, tol: float):
        if not self.projectors:
            yield "weak_value_sum", 0j
            return
        denominator = _weak_denominator(selection.overlap, tol)
        total = 0
        for product in self.projectors:
            value = selection.amplitude(product) / denominator
            total += value
            yield f"weak_value[{_product_label(product)}]", value
        # cross-check: the summed products against conj(post)*pre, class by class
        table = selection.table(self.projectors)
        via_sum = sum((sum(holds) * w for w, holds in table), 0j) / denominator
        # each largest entry, as in dense.weak_value_sum: 1 unless the product is empty
        scale = sum(map(any, zip(*(holds for _, holds in table)))) / abs(denominator)
        yield "weak_value_sum", _linearity_checked(total, via_sum, scale,
                                                   len(table) + len(self.projectors))


class DetailedVsGlobalQuery(_Record):
    tag = "detailed_vs_global"
    kind = "presence"
    keys = ("members",)

    def __init__(self, members: tuple[ProjectorProduct, ...], claim: str | None = None):
        self.__dict__.update(members=members, claim=claim)

    def particle_counts(self):
        return _particle_counts(self.members)

    def target(self, scheme) -> str:
        return _set_label(self.members)

    def results(self, selection: _LabelClasses, tol: float):
        amplitudes = [selection.amplitude(p) for p in self.members]
        for product, amplitude in zip(self.members, amplitudes):
            yield f"amplitude[{_product_label(product)}]", amplitude
        # a product of 0/1 diagonals is a projector, whose defects are exactly 0
        if self.members and not tol >= 0:
            raise NotAProjectorError("non-projector member")
        yield "detailed", _sum_abs2(amplitudes)
        if not self.members:
            raise InvalidArgumentError("global probability needs at least one projector")
        # the class diagonal of the member sum: how many members hold on each class
        total = [sum(holds) for _, holds in selection.table(self.members)]
        if not _is_projector(total, tol):
            raise IllegitimateQuestionError("not a legitimate question")
        yield "global", abs2(sum(amplitudes))


class TransitionElementQuery(_Record):
    tag = "transition_element"
    kind = "transition"
    keys = ("hamiltonian",)

    def __init__(self, hamiltonian: HamiltonianSpec, claim: str | None = None):
        self.__dict__.update(hamiltonian=hamiltonian, claim=claim)

    def particle_counts(self):
        return (expect(self.hamiltonian, HamiltonianSpec, "a HamiltonianSpec").n_particles,)

    def target(self, scheme) -> str:
        return self.hamiltonian.label()

    def results(self, selection: _LabelClasses, tol: float):
        terms = self.hamiltonian.terms
        if not (math.isfinite(sum(abs(c.real) for c, _ in terms))
                and math.isfinite(sum(abs(c.imag) for c, _ in terms))):
            # an entry of the built operator may overflow: refused as it is refused
            _class_diagonals((self.hamiltonian,))
        yield "transition_element", sum((c * selection.amplitude((spec,)) for c, spec in terms), 0j)


PREDICATE_CHECKS = ("is_projector", "orthogonal", "resolution_of_identity", "eigenstate")


class PredicateQuery(_Record):
    """Structural checks (projector-ness, orthogonality, completeness, eigenstates)
    of the operands alone: ``results`` reads no selection, so it may be given None."""

    tag = "predicate"
    kind = "predicate"
    keys = ("check", "operators")
    optional_keys = ("state", "eigenvalue")

    def __init__(self, check: str, operands: tuple[HamiltonianSpec, ...] = (),
                 state: NParticleState | None = None, eigenvalue: complex | None = None,
                 claim: str | None = None):
        if check not in PREDICATE_CHECKS:
            raise InvalidArgumentError(f"unknown predicate check {check!r}")
        for operand in expect(operands, Sequence, "a sequence of HamiltonianSpecs"):
            expect(operand, HamiltonianSpec, "a HamiltonianSpec")
        counts = {"is_projector": 1, "orthogonal": 2, "eigenstate": 1}
        want = counts.get(check)
        if want is not None and len(operands) != want:
            raise InvalidArgumentError(f"{check} takes exactly {want} operand(s)")
        if check == "resolution_of_identity" and not operands:
            raise InvalidArgumentError("resolution_of_identity needs at least one operand")
        if check == "eigenstate":
            if state is None or eigenvalue is None:
                raise InvalidArgumentError("eigenstate needs a state and an eigenvalue")
            expect(state, (ProductState, ExplicitState), "a ProductState or ExplicitState")
            _as_number(eigenvalue, "eigenvalue")
        elif state is not None or eigenvalue is not None:
            raise InvalidArgumentError(f"{check} takes no state or eigenvalue")
        self.__dict__.update(check=check, operands=operands, state=state, eigenvalue=eigenvalue,
                             claim=claim)

    def particle_counts(self):
        for operand in self.operands:
            yield operand.n_particles
        if isinstance(self.state, ProductState):
            factors = _collection(self.state.factors, "a collection of state specs")
            for factor in factors:
                _single_pair(factor)
            yield len(factors)
        elif isinstance(self.state, ExplicitState):
            dim = len(_collection(self.state.amplitudes, "a collection of amplitudes"))
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

    def results(self, selection: _LabelClasses | None, tol: float):
        diagonals = _class_diagonals(self.operands)  # refuses a diagonal that is not finite
        if self.check == "eigenstate":
            amplitudes = (_product_amplitudes([_single_pair(f) for f in self.state.factors])
                          if isinstance(self.state, ProductState)
                          else _explicit_amplitudes(self.state.amplitudes))
            residual = _eigenstate_residual(self.operands[0], amplitudes, self.eigenvalue)
            yield "is_eigenstate", residual <= tol
            yield "residual_norm", residual
            return
        if self.check == "is_projector":  # a report names the defect, so it is always formed
            hermitian, defect = _is_hermitian(diagonals[0], tol), _idempotency_defect(diagonals[0])
            yield "is_projector", hermitian and defect <= tol
            yield "hermitian", hermitian
            yield "idempotency_defect", defect
        elif self.check == "orthogonal":
            yield "orthogonal", _are_orthogonal(*diagonals, tol)
        else:
            yield "resolution_of_identity", _resolves_identity(diagonals, tol)


Query = Union[
    AblAmplitudeQuery,
    AblProbabilitiesQuery,
    WeakValueQuery,
    WeakValueSumQuery,
    DetailedVsGlobalQuery,
    TransitionElementQuery,
    PredicateQuery,
]


class Scenario(_Record):
    """A runnable bundle of selection and queries."""

    def __init__(self, name: str, n_particles: int, pre: tuple[SingleStateSpec, ...],
                 post: tuple[SingleStateSpec, ...], queries: tuple[Query, ...],
                 description: str = "", notes: tuple[str, ...] = (), labels: str = "box"):
        if not expect(name, str, "a name (str)"):
            raise InvalidArgumentError("a scenario needs a name")
        expect(description, str, "a description (str)")
        for note in _collection(notes, "a collection of notes"):
            expect(note, str, "a note (str)")
        label_scheme(labels)
        _check_particle_count(n_particles)
        for states in (pre, post):
            if len(_collection(states, "a collection of state specs")) != n_particles:
                raise InvalidArgumentError("pre and post must list one state per particle")
        for spec in (*pre, *post):
            _single_pair(spec)
        for query in expect(queries, Collection, "a collection of queries"):
            if not isinstance(query, Query.__args__):
                raise InvalidArgumentError(f"unknown query type {type(query).__name__}")
            if query.claim is not None:
                expect(query.claim, str, "a claim (str or None)")
            for count in query.particle_counts():
                if count != n_particles:
                    raise InvalidArgumentError(
                        f"query targets {count} particles but the scenario has {n_particles}")
        self.__dict__.update(name=name, n_particles=n_particles, pre=pre, post=post,
                             queries=queries, description=description, notes=notes,
                             labels=labels)


class ResultValue(_Record):
    """One named number or verdict inside a query record."""

    def __init__(self, name: str, value: complex | float | bool, vanishing: bool | None):
        self.__dict__.update(name=name, value=value, vanishing=vanishing)


class QueryRecord(_Record):
    """Echo of one query with its results, or with the error it raised."""

    def __init__(self, index: int, query_type: str, kind: str, target: str, claim: str | None,
                 results: tuple[ResultValue, ...], error: str | None):
        self.__dict__.update(index=index, query_type=query_type, kind=kind, target=target,
                             claim=claim, results=results, error=error)


class ScenarioReport(_Record):
    def __init__(self, scenario: str, description: str, labels: str, n_particles: int,
                 pre: tuple[str, ...], post: tuple[str, ...], notes: tuple[str, ...],
                 tolerance: float, records: tuple[QueryRecord, ...]):
        self.__dict__.update(scenario=scenario, description=description, labels=labels,
                             n_particles=n_particles, pre=pre, post=post, notes=notes,
                             tolerance=tolerance, records=records)

    def has_errors(self) -> bool:
        return any(r.error is not None for r in self.records)


def _result(name: str, value, tol: float) -> ResultValue:
    if isinstance(value, bool):
        return ResultValue(name, value, None)
    value = value if isinstance(value, complex) else float(value)
    return ResultValue(name, value, _vanishes(value, tol))


def _product_label(product: ProjectorProduct) -> str:
    if not product:
        return "identity"
    if len(product) == 1:
        return product[0].label()
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
    module docstring. ``tol`` is checked and converted as every tolerance is
    (:func:`~twobox.errors.expect_tolerance`).
    """
    expect(scenario, Scenario, "a Scenario")
    tol = expect_tolerance(tol)
    scheme = label_scheme(scenario.labels)
    selection = _LabelClasses.between([_single_pair(f) for f in scenario.pre],
                                      [_single_pair(f) for f in scenario.post])

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
