import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
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
    assert list(vars(gsfr.solve_correction(gsfr.CorrectionParams(3, [1, 0, 0, 0])))) == ["h_l"]
    # the Fraction masses and input conversion live on as test oracles in closed_forms.py only
    assert not hasattr(gsfr.legendre, "mass_diagonal") and not hasattr(gsfr.correction, "_to_fraction")
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


def test_no_class_is_a_dataclass():
    # a dataclass costs its class generation at every import; a record that only holds fields is a NamedTuple,
    # and a class with a cache or a validating constructor is a plain class
    modules = [importlib.import_module(f"gsfr.{info.name}") for info in pkgutil.iter_modules(gsfr.__path__)]
    found = {
        name
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value)
    }
    assert found == set()


def test_cold_import_loads_no_fractions_decimal_or_dataclasses():
    # the exact layer keeps its own integers, so a CLI process does not pay for these modules' import
    src = str(Path(gsfr.__file__).resolve().parent.parent)
    code = "import sys, gsfr.cli; print(sorted({'fractions', 'decimal', '_decimal', 'dataclasses'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"
