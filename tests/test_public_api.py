import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import gsfr


def test_every_exported_name_exists():
    modules = [importlib.import_module(f"gsfr.{info.name}") for info in pkgutil.iter_modules(gsfr.__path__)]
    assert sum(hasattr(module, "__all__") for module in modules) >= 5
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_every_package_import_resolves():
    tree = ast.parse(Path(gsfr.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) > 30
    for name in imported:
        assert hasattr(gsfr, name), name


def test_removed_names_are_gone():
    # the paper-form system, its integral and the exact reflection live on as test oracles in closed_forms.py only;
    # a singular ESFR denominator is a SingularSystemError, and a zero pivot needs no float condition estimate
    for name in (
        "correction_matrix", "integral_dm_dm1", "SingularDenominatorError", "_reflected_pair", "_condition_estimate",
        "pair_to_json", "pair_from_json",
    ):
        assert not hasattr(gsfr, name)
        assert not hasattr(gsfr.correction, name) and not hasattr(gsfr.legendre, name)
    # a pair is its left function; h_r, g_l and g_r derive from it
    assert [field.name for field in dataclasses.fields(gsfr.CorrectionPair)] == ["h_l"]
    # the step map is the pair of arrays (rows, cols), and the element width is 2 * SchemeOperators.jacobian alone
    for name in ("StepMap", "_node_coords"):
        assert not hasattr(gsfr, name)
        assert not hasattr(gsfr.experiments, name) and not hasattr(gsfr.operators, name)
    # step_limit returns the StabilityResult itself, so no helper reads tau_max alone
    assert not hasattr(gsfr, "_reference_tau") and not hasattr(gsfr.experiments, "_reference_tau")
    assert gsfr.MeshState._fields == ("n_elements", "x_left", "u")


RECORD_FIELDS = {
    "ReferenceElement": ("p", "nodes", "weights", "D", "l_left", "l_right", "g_left", "g_right"),
    "SchemeOperators": ("element", "alpha", "jacobian", "C_plus", "C_zero", "C_minus"),
    "MeshState": ("n_elements", "x_left", "u"),
    "StabilityResult": ("tau_max", "k_samples", "rk", "worst_k_hat", "probes", "spectral_abscissa"),
    "StabilityBounds": ("lower", "satisfied", "margins"),
    "OoaReport": ("element_counts", "errors", "fitted_order", "r_squared", "steps", "tau", "at_roundoff"),
    "EnergyReport": (
        "times", "energy", "error_at_periods", "blew_up", "blowup_time", "peak_energy", "steps_per_period", "tau",
    ),
    "SearchReport": (
        "best_iota", "best_tau", "ooa_at_best", "grid_spec", "evaluated", "outside_bounds", "no_limit", "zero_tau",
        "unstable_runs", "below_order", "spectral_abscissa",
    ),
}


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_each_record_is_a_named_tuple_of_its_fields(name):
    record = getattr(gsfr, name)
    assert issubclass(record, tuple) and record._fields == RECORD_FIELDS[name]
    assert record.__doc__ and not record.__doc__.startswith(name + "(")  # its own docstring, not the generated one


def test_only_the_cached_or_validated_classes_are_dataclasses():
    # a dataclass costs its class generation at every import; a record that only holds fields is a NamedTuple
    modules = [importlib.import_module(f"gsfr.{info.name}") for info in pkgutil.iter_modules(gsfr.__path__)]
    found = {
        name
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value)
    }
    assert found == {"CorrectionParams", "CorrectionPair", "LegendreSeries"}
