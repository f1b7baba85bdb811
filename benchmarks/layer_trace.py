"""Per-layer tracing of the gsfr package from outside it.

`LayerTrace` replaces public functions of the package modules with
wrappers that count calls and time spans, then puts the originals back.
A wrapper is installed under every module attribute that refers to the
original function, because `experiments` and `cli` import several names
directly and look them up in their own namespace.

Spans nest: each wrapped call adds its duration to the enclosing wrapped
call's child time, so a layer's self time is its span time minus the
spans of the layers it called. `legendre` is only reached through
`correction` and is counted as part of it.

Totals are aggregated in memory rather than kept as a span list: the
spectral kernel alone is entered ~300k times per sweep.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

MODULES = ("gsfr", "gsfr.correction", "gsfr.operators", "gsfr.spectral", "gsfr.experiments", "gsfr.cli")


def _count_unknowns(trace, result):
    trace.tally["step.unknowns"] += int(getattr(getattr(result, "u", None), "size", 0))


def _count_bounds(trace, result):
    trace.tally["bounds.passed"] += bool(getattr(result, "satisfied", False))


def _count_limit(trace, result):
    trace.tally["cfl_limit.k_samples"] += int(getattr(result, "k_samples", 0))
    trace.tally["cfl_limit.tau_positive"] += getattr(result, "tau_max", 0.0) > 0.0


# (module, attribute, span key, kind, result hook). Kind "span" times the
# call, "count" only counts it (cheap enough for the per-probe kernels),
# and "factory" wraps the returned right-hand-side closure as a span.
TARGETS = (
    ("gsfr.correction", "solve_correction", "correction.solve", "span", None),
    ("gsfr.correction", "sufficient_bounds", "correction.bounds", "span", _count_bounds),
    ("gsfr.operators", "build_reference_element", "operators.build", "span", None),
    ("gsfr.operators", "build_scheme_operators", "operators.build", "span", None),
    ("gsfr.operators", "uniform_mesh", "operators.build", "span", None),
    ("gsfr.operators", "rk_advance", "operators.step", "span", _count_unknowns),
    ("gsfr.operators", "linear_advection_rhs", "operators.rhs", "span", None),
    ("gsfr.operators", "make_heterogeneous_rhs", "operators.rhs", "factory", None),
    ("gsfr.operators", "solution_energy", "operators.energy", "span", None),
    ("gsfr.spectral", "cfl_limit", "spectral.cfl_limit", "span", _count_limit),
    ("gsfr.spectral", "spectral_radius", "spectral.eig", "count", None),
    ("gsfr.spectral", "update_matrix", "spectral.update_matrix", "count", None),
    ("gsfr.experiments", "default_search_grid", "experiments", "span", None),
    ("gsfr.experiments", "ooa_study", "experiments", "span", None),
    ("gsfr.experiments", "hetero_energy_study", "experiments", "span", None),
    ("gsfr.experiments", "cfl_search", "experiments", "span", None),
    ("gsfr.experiments", "advect_snapshot", "experiments", "span", None),
    ("gsfr.cli", "main", "cli", "span", None),
)


class LayerTrace:
    """Install with `with LayerTrace() as trace:`; read `calls`, `busy`, `self_time`, `tally`.

    The same trace may be entered again after it exits; its totals keep growing.
    """

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.tally = Counter()
        self.absent = []
        self._stack = []
        self._patched = []

    def _span(self, key, fn, hook=None):
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[key] += 1
                self.busy[key] += dt
                self.self_time[key] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def _count(self, key, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _factory(self, key, fn):
        def wrapper(*args, **kwargs):
            return self._span(key, fn(*args, **kwargs))

        return wrapper

    def __enter__(self):
        # re-entering the same trace keeps adding to its totals
        self.absent = []
        modules = [importlib.import_module(name) for name in MODULES]
        for module_name, attr, key, kind, hook in TARGETS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if kind == "span":
                wrapper = self._span(key, original, hook)
            elif kind == "count":
                wrapper = self._count(key, original)
            else:
                wrapper = self._factory(key, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
        return False


def layer_metrics(trace: LayerTrace, n_calls: int):
    """Per-CLI-call layer metrics, and the ratios derived from them.

    Returns (metrics, ratios). metrics maps name -> (value, unit); every
    value is a number, 0 for a layer the workload does not reach. ratios
    maps name -> (value, unit, bases), where bases holds the per-call
    counts the ratio rests on and value is None when any of them is 0,
    because the ratio is then undefined.
    """
    c, b, s, t = trace.calls, trace.busy, trace.self_time, trace.tally
    per = 1.0 / n_calls
    metrics = {}
    ratios = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def put_ratio(name, num, den, unit, bases):
        value = None if den == 0 or 0 in bases.values() else num / den
        ratios[name] = (value, unit, {k: v * per for k, v in bases.items()})

    put("correction.solve.calls", c["correction.solve"] * per, "count")
    put("correction.solve.busy_s", b["correction.solve"] * per, "s")
    put("correction.bounds.calls", c["correction.bounds"] * per, "count")
    put("correction.bounds.busy_s", b["correction.bounds"] * per, "s")
    put("correction.bounds.passed", t["bounds.passed"] * per, "count")
    put("operators.build.calls", c["operators.build"] * per, "count")
    put("operators.build.busy_s", b["operators.build"] * per, "s")
    put("operators.step.calls", c["operators.step"] * per, "count")
    put("operators.step.busy_s", b["operators.step"] * per, "s")
    put("operators.step.unknowns", t["step.unknowns"] * per, "count")
    put("operators.rhs.calls", c["operators.rhs"] * per, "count")
    put("operators.rhs.busy_s", b["operators.rhs"] * per, "s")
    put("operators.energy.calls", c["operators.energy"] * per, "count")
    put("operators.energy.busy_s", b["operators.energy"] * per, "s")
    put("spectral.cfl_limit.calls", c["spectral.cfl_limit"] * per, "count")
    put("spectral.cfl_limit.busy_s", b["spectral.cfl_limit"] * per, "s")
    put("spectral.cfl_limit.k_samples", t["cfl_limit.k_samples"] * per, "count")
    put("spectral.cfl_limit.tau_positive", t["cfl_limit.tau_positive"] * per, "count")
    put("spectral.eig.calls", c["spectral.eig"] * per, "count")
    put("spectral.update_matrix.calls", c["spectral.update_matrix"] * per, "count")
    put("experiments.self_s", s["experiments"] * per, "s")
    put("cli.self_s", s["cli"] * per, "s")

    # shares of the time inside cli.main: does each workload load the layer it was chosen for?
    put_ratio("operators.step.share", b["operators.step"], b["cli"], "ratio", {"cli.calls": c["cli"]})
    put_ratio("spectral.cfl_limit.share", b["spectral.cfl_limit"], b["cli"], "ratio", {"cli.calls": c["cli"]})
    put_ratio(
        "correction.bounds.pass_ratio", t["bounds.passed"], c["correction.bounds"], "ratio",
        {"correction.bounds.calls": c["correction.bounds"]},
    )
    put_ratio(
        "operators.step.us_per_call", 1e6 * b["operators.step"], c["operators.step"], "us",
        {"operators.step.calls": c["operators.step"]},
    )
    put_ratio(
        "operators.step.unknowns_per_s", t["step.unknowns"], b["operators.step"], "1/s",
        {"operators.step.calls": c["operators.step"], "operators.step.unknowns": t["step.unknowns"]},
    )
    put_ratio(
        "spectral.cfl_limit.ms_per_call", 1e3 * b["spectral.cfl_limit"], c["spectral.cfl_limit"], "ms",
        {"spectral.cfl_limit.calls": c["spectral.cfl_limit"]},
    )
    # each bisection probe solves one eigenproblem per sampled wavenumber
    put_ratio(
        "spectral.probes_per_limit", c["spectral.eig"], t["cfl_limit.k_samples"], "count",
        {"spectral.eig.calls": c["spectral.eig"], "spectral.cfl_limit.calls": c["spectral.cfl_limit"]},
    )
    put_ratio(
        "spectral.tau_positive_ratio", t["cfl_limit.tau_positive"], c["spectral.cfl_limit"], "ratio",
        {"spectral.cfl_limit.calls": c["spectral.cfl_limit"]},
    )
    return metrics, ratios
