"""Pre- and postselected quantum mechanics for n particles in two boxes.

The package computes conditional (pre- and postselected) amplitudes and
probabilities, weak values, incoherent versus coherent subset
probabilities, and transition matrix elements for correlation
projectors that are diagonal in the box basis, together with a scenario
layer and a command line front end.
"""

from . import hilbert
from .engine import AblResult, vanishes
from .errors import (
    DimensionMismatchError,
    ExpressionError,
    IllegitimateQuestionError,
    ImpossiblePostselectionError,
    IncompleteMeasurementError,
    InvalidAmplitudesError,
    InvalidArgumentError,
    LinearityCheckError,
    NotAProjectorError,
    OrthogonalSelectionError,
    ScenarioFileError,
    ScenarioNotFoundError,
    TwoBoxError,
    UnnormalizableStateError,
)
from .hilbert import (
    BOX_LABELS,
    DEFAULT_TOLERANCE,
    MAX_PARTICLES,
    SPIN_LABELS,
    LabelScheme,
    abs2,
    canonical_state_name,
    label_scheme,
)
from .projectors import HamiltonianSpec, ProjectorSpec
from .scenario_io import (
    SCENARIO_SCHEMA,
    document_to_report,
    load_scenario_file,
    parse_scenario_document,
    render_report_json,
    report_to_document,
)
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
    builtin_scenarios,
    lookup_scenario,
    run_scenario,
)

# the states, operators and functions on them, which twobox.dense holds
__getattr__, __dir__ = hilbert._forward(__name__, (
    "Ket", "Operator", "UnnormalizedKet", "apply", "basis_state", "inner", "is_eigenstate",
    "make_single_particle_state", "matrix_element", "tensor",
    "are_orthogonal", "build_hamiltonian", "build_projector", "idempotency_defect",
    "is_hermitian", "is_projector", "is_resolution_of_identity", "relabel_to_spin",
    "MeasurementSet", "PrePostSelection", "abl_amplitude", "abl_probabilities",
    "detailed_probability", "global_probability", "transition_element", "weak_value",
    "weak_value_sum"))

__version__ = "0.1.0"
