"""The public surface of the package: its names, each reachable on every path it
had, with the dense reference layer (``twobox.dense``) loaded on first access."""

import json
import sys

import twobox
import twobox.dense as dense
from test_cli import _child

# dir(twobox) in a fresh interpreter, as it read before the dense layer had a module
PACKAGE_DIR = [
    "AblAmplitudeQuery", "AblProbabilitiesQuery", "AblResult", "BOX_LABELS",
    "DEFAULT_TOLERANCE", "DetailedVsGlobalQuery", "DimensionMismatchError", "ExplicitState",
    "ExpressionError", "HamiltonianSpec", "IllegitimateQuestionError",
    "ImpossiblePostselectionError", "IncompleteMeasurementError", "InvalidAmplitudesError",
    "InvalidArgumentError", "Ket", "LabelScheme", "LinearityCheckError", "MAX_PARTICLES",
    "MeasurementSet", "NotAProjectorError", "Operator", "OrthogonalSelectionError",
    "PrePostSelection", "PredicateQuery", "ProductState", "ProjectorSpec", "QueryRecord",
    "ResultValue", "SCENARIO_SCHEMA", "SPIN_LABELS", "Scenario", "ScenarioFileError",
    "ScenarioNotFoundError", "ScenarioReport", "TransitionElementQuery", "TwoBoxError",
    "UnnormalizableStateError", "UnnormalizedKet", "WeakValueQuery", "WeakValueSumQuery",
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
    "__package__", "__path__", "__spec__", "__version__", "abl_amplitude", "abl_probabilities",
    "abs2", "apply", "are_orthogonal", "basis_state", "build_hamiltonian", "build_projector",
    "builtin_scenarios", "canonical_state_name", "detailed_probability", "document_to_report",
    "engine", "errors", "global_probability", "hilbert", "idempotency_defect", "inner",
    "is_eigenstate", "is_hermitian", "is_projector", "is_resolution_of_identity",
    "label_scheme", "load_scenario_file", "lookup_scenario", "make_single_particle_state",
    "matrix_element", "parse_scenario_document", "projectors", "relabel_to_spin",
    "render_report_json", "report_to_document", "run_scenario", "scenario_io", "scenarios",
    "tensor", "transition_element", "vanishes", "weak_value", "weak_value_sum",
]

# the public names twobox.dense holds, by the module that defined them before
MOVED = {
    "twobox.hilbert": ["Ket", "UnnormalizedKet", "Operator", "KetLike",
                       "make_single_particle_state", "basis_state", "tensor", "inner", "apply",
                       "matrix_element", "eigenstate_residual", "is_eigenstate"],
    "twobox.projectors": ["build_projector", "build_hamiltonian", "is_hermitian",
                          "idempotency_defect", "is_projector", "are_orthogonal",
                          "is_resolution_of_identity", "relabel_to_spin"],
    "twobox.engine": ["PrePostSelection", "MeasurementSet", "ProjectorSet", "abl_amplitude",
                      "abl_probabilities", "weak_value", "weak_value_sum",
                      "detailed_probability", "global_probability", "transition_element"],
}


def _printed(code):
    """The JSON that ``code`` prints in a fresh interpreter importing this tree's package."""
    result = _child(code)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_dir_of_the_package_is_what_it_was():
    code = "import json, sys, twobox; print(json.dumps([dir(twobox), 'numpy' in sys.modules]))"
    assert _printed(code) == [PACKAGE_DIR, False]


def test_each_moved_name_is_one_object_on_every_path():
    for home, names in MOVED.items():
        module = sys.modules[home]
        for name in names:
            value = getattr(dense, name)
            namespace = {}
            exec(f"from {home} import {name}", namespace)
            assert getattr(module, name) is value and namespace[name] is value, (home, name)
            assert name in dir(module)
            if name in PACKAGE_DIR:
                assert getattr(twobox, name) is value, name


def test_unknown_and_dunder_names_raise_without_loading_numpy():
    code = """if True:
        import json, sys
        import twobox
        from twobox import engine, hilbert, projectors
        refused = []
        for module in (twobox, hilbert, projectors, engine):
            names = ["no_such_name", "dense", "__all__", "__wrapped__"]
            if module is not twobox:
                names.append("__path__")
            for name in names:
                try:
                    getattr(module, name)
                except AttributeError as exc:
                    expected = f"module {module.__name__!r} has no attribute {name!r}"
                    refused.append(str(exc) == expected)
                else:
                    refused.append(False)
        try:
            from twobox.engine import no_such_name
        except ImportError:
            refused.append(True)
        print(json.dumps([len(refused), all(refused),
                          [m for m in ("numpy", "twobox.dense") if m in sys.modules]]))
    """
    assert _printed(code) == [20, True, []]
