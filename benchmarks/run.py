"""End-to-end and per-layer benchmark of the gsfr command-line studies.

    python3 benchmarks/run.py --workload hetero --seed 0 --seconds 30 --trace 0

Each workload is one `gsfr` CLI command, run in this process through
`gsfr.cli.main(argv)` (imported from `src/` next to this directory)
again and again for `--seconds` seconds; every call's output is
checked. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.

Workloads, each chosen to load a different layer. A call takes about
one to four seconds, so that a run holds many calls, each timed next to
the speed reference below:

- hetero    `run hetero --p 3 --iota 1,0,0,0 --alpha 1 --periods 1`:
            3,696 rk44 steps of the variable-speed rhs on 128 unknowns;
            the step kernel is nearly all the time, no spectral work.
- vn_sweep  `vn sweep --p 3 --rk rk44 --magnitudes 0,1e-3 --jobs 1`:
            12 strict-tolerance step limits over 27 weight vectors,
            ~70k eigen-solves and no time stepping.
- ooa_fine  `run ooa --p 3 --iota 1,0,0,0 --rk rk33 --element-counts
            160,192,224,256`: rk33 advection steps on 640-1024 unknowns
            (past the ~500-unknown dense/banded crossover), plus one
            thresholded step limit.

Seed 0 runs exactly these commands and compares the outputs with
`reference.json`, which holds the outputs of longer runs of the same
studies: hetero's period is the first of its 15, vn_sweep's 27 weight
vectors are among its 125 and ooa_fine's meshes among its 6. Other
seeds draw vn_sweep's nonzero magnitude log-uniformly from [1e-4, 1e-2],
redrawing until the grid has as many points inside the sufficient
bounds as the default (so every seed does about the same spectral
work), and shift ooa_fine's element counts by +s, 0, 0, -s (so the summed
mesh sizes stay fixed); those runs are checked by invariants. hetero
has no drawn input.

--trace 0 reports the end-to-end metrics with tracing off:
  wall_s       median seconds per CLI call, after import, at reference
               speed (below)
  setup_s      median seconds, at reference speed, of a fresh interpreter
               that has imported numpy importing gsfr and building the
               workload's correction pair, element, operators and mesh
               (3 interpreters before the first call, then about one
               per 3 s of the run, each after a call)
  peak_rss_mb  peak resident memory of this process
The speed of this code on a shared machine swings by up to ~2x within
seconds, in CPU time as well as in wall time. So each call runs between
two short timings of the fixed numpy workload in speed_ref.py,
and each set-up interpreter times it too; a measured time t is reported
as t * units * UNIT_S / (the workload's time next to it). The raw
medians are printed in the table notes.
--trace 1 alternates untraced and traced calls (see layer_trace.py) and
reports the per-layer metrics, per CLI call, and the tracing overhead
as the ratio of the two medians. Ratios between layer counts are printed
in the table only, with their bases, and as null where a base is 0; the
JSON line carries the counts they are derived from.

Thread pools are pinned to one thread and GSFR_JOBS is unset, so each
number measures one core running the program.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("hetero", "vn_sweep", "ooa_fine")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3  # set-up interpreters before the first call
PROBE_EVERY_S = 3.0  # then one more, after a call, per this many seconds of the run
REF_UNITS = 30  # speed_ref units timed between calls, ~0.2 s
PROBE_UNITS = 10  # speed_ref units each set-up interpreter times

HETERO_PERIOD = 2.0 / math.sqrt(3.0)
HETERO_PERIODS = 1
DEFAULT_MAGNITUDES = ("0", "1e-3")
OOA_COUNTS = (160, 192, 224, 256)

# Output checks. Reformulating a step changes ooa errors by ~1e-6
# relative; 1e-4 is also the bisection tolerance of the step limits.
HETERO_REL_TOL = 1e-6
TAU_REL_TOL = 1e-4
OOA_REL_TOL = 1e-4
OOA_ORDER = 4.0
OOA_ORDER_BAND = 0.05


@dataclass
class Case:
    """One workload instance: its argv, where it writes, and what it must match."""

    workload: str
    argv: list
    out: Path
    setup: dict
    reference: dict | None
    periods: int = 0
    grid: list | None = None
    counts: tuple = ()


@dataclass
class Call:
    wall: float
    failure: str | None
    bytes_written: int


def load_program():
    """Import gsfr from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import gsfr.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import gsfr from {SRC}: {exc}")
    import gsfr

    if Path(gsfr.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"benchmark: imported gsfr from {gsfr.__file__}, not from {SRC}")
    return gsfr


class Bench:
    """Builds cases and runs them against one imported gsfr package."""

    def __init__(self, gsfr, reference: dict | None):
        self.cli = gsfr.cli
        self.reference = reference or {}
        # captured before any tracing, so checks never show up in the trace
        self.params = gsfr.correction.CorrectionParams
        self.bounds = gsfr.correction.sufficient_bounds

    # ---- inputs ----------------------------------------------------------

    def inside_bounds(self, point) -> bool:
        return self.bounds(self.params(3, list(point))).satisfied

    def draw_magnitudes(self, seed: int):
        target = sum(map(self.inside_bounds, sweep_grid(DEFAULT_MAGNITUDES)))
        rng = random.Random(seed)
        for _ in range(100_000):
            mags = ("0", repr(10.0 ** rng.uniform(-4.0, -2.0)))
            if sum(map(self.inside_bounds, sweep_grid(mags))) == target:
                return mags
        raise RuntimeError(f"no magnitude draw for seed {seed} matches the default grid")

    def case(self, workload: str, seed: int, tiny: bool = False) -> Case:
        suffix = ".tiny" if tiny else ""
        if workload == "hetero":
            periods = HETERO_PERIODS
            reference = self.reference.get("hetero")
            return Case(
                workload,
                ["run", "hetero", "--p", "3", "--iota", "1,0,0,0", "--alpha", "1", "--periods", str(periods)],
                OUT_DIR / f"hetero{suffix}.csv",
                {"iota": [1, 0, 0, 0], "jacobian": 1.0 / 32, "mesh": [32, -1.0, 1.0]},
                None if tiny or reference is None else {"period_errors": reference["period_errors"][:periods]},
                periods=periods,
            )
        if workload == "vn_sweep":
            if tiny:
                mags, extra = ("0", "1e-3"), ["--k-samples", "16"]
            else:
                mags, extra = (DEFAULT_MAGNITUDES if seed == 0 else self.draw_magnitudes(seed)), []
            grid = sweep_grid(mags)
            first = next(point for point in grid if self.inside_bounds(point))
            reference = self.reference.get("vn_sweep") if seed == 0 and not tiny else None
            if reference is not None:
                tau = {tuple(point): t for point, t in zip(reference["grid"], reference["tau_max"])}
                reference = {"tau_max": [tau[point[1:]] for point in grid]}
            return Case(
                workload,
                ["vn", "sweep", "--p", "3", "--rk", "rk44", "--magnitudes", ",".join(mags), "--jobs", "1"] + extra,
                OUT_DIR / f"vn_sweep{suffix}.csv",
                {"iota": list(first), "jacobian": 1.0, "mesh": None},
                reference,
                grid=grid,
            )
        if workload == "ooa_fine":
            if tiny:
                counts = (8, 10, 12, 14)
            else:
                shift = 0 if seed == 0 else random.Random(seed).choice([s for s in range(-4, 5) if s])
                counts = tuple(n + shift * step for n, step in zip(OOA_COUNTS, (1, 0, 0, -1)))
            reference = self.reference.get("ooa_fine") if seed == 0 and not tiny else None
            if reference is not None:
                error = dict(zip(reference["element_counts"], reference["errors"]))
                reference = {"errors": [error[n] for n in counts]}
            return Case(
                workload,
                ["run", "ooa", "--p", "3", "--iota", "1,0,0,0", "--rk", "rk33",
                 "--element-counts", ",".join(map(str, counts))],
                OUT_DIR / f"ooa_fine{suffix}.json",
                {"iota": [1, 0, 0, 0], "jacobian": math.pi / counts[0], "mesh": [counts[0], 0.0, 2.0 * math.pi]},
                reference,
                counts=counts,
            )
        raise ValueError(f"unknown workload {workload!r}")

    # ---- one call --------------------------------------------------------

    def call(self, case: Case) -> Call:
        case.out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = case.argv + ["--out", str(case.out)]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed call; the other calls still run
            rc = "exception:\n" + traceback.format_exc()
        wall = time.perf_counter() - t0
        if rc != 0:
            failure = f"exit {rc}: {stderr.getvalue().strip()}"
        else:
            failure = self.check(case, stdout.getvalue())
        if failure:
            print(f"check failed ({case.workload}): {failure}", file=sys.stderr)
        written = len(stdout.getvalue().encode()) + (case.out.stat().st_size if case.out.exists() else 0)
        return Call(wall, failure, written)

    def check(self, case: Case, stdout: str) -> str | None:
        try:
            result = read_output(case.workload, case.out)
            if case.workload == "hetero":
                return check_hetero(case, stdout, result)
            if case.workload == "vn_sweep":
                expected = [self.inside_bounds(point) for point in case.grid]
                return check_sweep(case, result, expected)
            return check_ooa(case, result)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output {case.out.name}: {exc!r}"

    # ---- runs ------------------------------------------------------------

    def setup_times(self, case: Case, n: int) -> list:
        """(raw, reference-speed) seconds of `n` cold set-ups, each in a fresh interpreter."""
        import speed_ref

        times = []
        for _ in range(n):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), json.dumps(case.setup), str(PROBE_UNITS)],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
            setup, ref = map(float, proc.stdout.split())
            times.append((setup, setup * PROBE_UNITS * speed_ref.UNIT_S / ref))
        return times

    def run_untraced(self, case: Case, seconds: float, probes: int = SETUP_PROBES):
        import speed_ref

        setup = self.setup_times(case, probes)
        calls, scaled = [], []
        ref = speed_ref.seconds(REF_UNITS)
        start = time.perf_counter()
        while not calls or time.perf_counter() < start + seconds:
            calls.append(self.call(case))
            ref_after = speed_ref.seconds(REF_UNITS)
            scaled.append(calls[-1].wall * REF_UNITS * speed_ref.UNIT_S / (0.5 * (ref + ref_after)))
            ref = ref_after
            if len(setup) < probes + (time.perf_counter() - start) / PROBE_EVERY_S:
                setup += self.setup_times(case, 1)
                ref = speed_ref.seconds(REF_UNITS)
        metrics = {
            "wall_s": (statistics.median(scaled), "s"),
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        notes = {
            "wall_s": f"median of {len(calls)} calls at reference speed; raw median "
                      f"{statistics.median(c.wall for c in calls):.6g} s",
            "setup_s": f"median of {len(setup)} fresh interpreters at reference speed; raw median "
                       f"{statistics.median(raw for raw, _ in setup):.6g} s",
        }
        return calls, metrics, notes, {}

    def run_traced(self, case: Case, seconds: float):
        """Untraced and traced calls in turn, so both see the same machine."""
        from layer_trace import LayerTrace, layer_metrics

        trace = LayerTrace()
        untraced, traced = [], []
        end = time.perf_counter() + seconds
        while not traced or time.perf_counter() < end:
            untraced.append(self.call(case))
            with trace:
                traced.append(self.call(case))
        metrics, ratios = layer_metrics(trace, len(traced))
        wall = statistics.median(c.wall for c in traced)
        base = statistics.median(c.wall for c in untraced)
        metrics["cli.bytes_written"] = (statistics.median(c.bytes_written for c in traced), "B")
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.untraced_wall_s"] = (base, "s")
        metrics["trace.overhead_frac"] = (wall / base - 1.0, "ratio")
        notes = {
            "trace.wall_s": f"median of {len(traced)} traced calls",
            "trace.untraced_wall_s": f"median of {len(untraced)} untraced calls, alternating with the traced ones",
        }
        if trace.absent:
            notes["absent"] = ", ".join(trace.absent)
        return untraced + traced, metrics, notes, ratios


def sweep_grid(magnitudes):
    """The p=3 weight grid `gsfr vn sweep` evaluates, in its output order."""
    axes = sorted({0.0} | {s * float(m) for m in magnitudes for s in (1.0, -1.0)})
    return [(1.0,) + point for point in itertools.product(axes, repeat=3)]


def _floats(path: Path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def read_output(workload: str, path: Path) -> dict:
    """The numbers a workload's output file carries, in reference.json's shape."""
    if workload == "hetero":
        errors = []
        for t, energy in _floats(path):
            k = round(t / HETERO_PERIOD)
            if k >= 1 and abs(t - k * HETERO_PERIOD) <= 1e-9 * HETERO_PERIOD:
                errors.append(abs(energy - 1.0))
        return {"period_errors": errors}
    if workload == "vn_sweep":
        rows = _floats(path)
        return {
            "grid": [row[:-1] for row in rows],
            "tau_max": [row[-1] if math.isfinite(row[-1]) else None for row in rows],
        }
    result = json.loads(path.read_text(encoding="utf-8"))["result"]
    return {key: result[key] for key in ("element_counts", "errors", "fitted_order", "r_squared")}


def _mismatch(name, values, reference, rel_tol):
    if len(values) != len(reference):
        return f"{name}: {len(values)} values, reference has {len(reference)}"
    for i, (v, r) in enumerate(zip(values, reference)):
        if not abs(v - r) <= rel_tol * abs(r):
            return f"{name}[{i}] = {v!r}, reference {r!r} (relative tolerance {rel_tol:g})"
    return None


def check_hetero(case: Case, stdout: str, result: dict) -> str | None:
    errors = result["period_errors"]
    if f"survived {case.periods} periods" not in stdout or len(errors) != case.periods:
        return f"expected {case.periods} surviving periods, got {len(errors)}"
    if not all(0.0 <= e < 1.0 for e in errors):
        return f"period energy errors out of range: {errors}"
    if case.reference is not None:
        return _mismatch("|E(nT)-1|", errors, case.reference["period_errors"], HETERO_REL_TOL)
    return None


def check_sweep(case: Case, result: dict, inside: list) -> str | None:
    if result["grid"] != [list(point[1:]) for point in case.grid]:
        return "sweep grid differs from the requested magnitudes"
    taus = result["tau_max"]
    for point, tau, ok in zip(case.grid, taus, inside):
        if (tau is None) == ok:
            return f"iota {point}: tau_max {tau} but sufficient bounds {'hold' if ok else 'fail'}"
        if tau is not None and not 0.0 <= tau < 10.0:
            return f"iota {point}: tau_max {tau} out of range"
    if case.reference is not None:
        ref = case.reference["tau_max"]
        if [t is None for t in taus] != [t is None for t in ref]:
            return "NaN pattern differs from the reference"
        finite = [(t, r) for t, r in zip(taus, ref) if r is not None]
        return _mismatch("tau_max", [t for t, _ in finite], [r for _, r in finite], TAU_REL_TOL)
    return None


def check_ooa(case: Case, result: dict) -> str | None:
    errors = result["errors"]
    if result["element_counts"] != list(case.counts):
        return f"element counts {result['element_counts']} != {list(case.counts)}"
    if not all(a > b > 0.0 for a, b in zip(errors, errors[1:])):
        return f"errors do not decrease under refinement: {errors}"
    if not abs(result["fitted_order"] - OOA_ORDER) <= OOA_ORDER_BAND or not result["r_squared"] >= 0.999:
        return f"fitted order {result['fitted_order']} (r^2 {result['r_squared']}) outside {OOA_ORDER} +/- {OOA_ORDER_BAND}"
    if case.reference is not None:
        return _mismatch("eps2", errors, case.reference["errors"], OOA_REL_TOL)
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": ",".join(f"{k}={v}" for k, v in PINNED_ENV.items()),
        "GSFR_JOBS": os.environ.get("GSFR_JOBS", "unset"),
    }


def report(calls, metrics, notes, ratios) -> dict:
    """Print the metric table, then the JSON result as the last line.

    Ratios appear in the table only, as null with their bases when
    undefined; the JSON metrics carry the counts they are derived from.
    """
    failed = sum(c.failure is not None for c in calls)
    rows = {name: (f"{value:.6g}", unit) for name, (value, unit) in metrics.items()}
    for name, (value, unit, bases) in ratios.items():
        base = ", ".join(f"{k} = {v:g}" for k, v in bases.items())
        rows[name] = (f"null (base {base})" if value is None else f"{value:.6g}", unit)
    rows["failed_frac"] = (f"{failed / len(calls):.6g}", "ratio")
    notes.setdefault("failed_frac", f"{failed} of {len(calls)} calls failed their output check")
    for name, (shown, unit) in rows.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name:32s} {shown} {unit}{note}")
    if "absent" in notes:
        print(f"absent (0 calls): {notes['absent']}")
    doc = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(doc))
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-check size: 16 wavenumbers, 4 small meshes")
    args = parser.parse_args(argv)

    os.environ.update(PINNED_ENV)
    os.environ.pop("GSFR_JOBS", None)
    gsfr = load_program()
    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench(gsfr, json.loads(REFERENCE.read_text(encoding="utf-8")))
    case = bench.case(args.workload, args.seed, args.tiny)
    bench.call(bench.case(args.workload, args.seed, tiny=True))  # warm-up: lazy imports and caches
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("argv: gsfr " + " ".join(case.argv))
    print("environment: " + json.dumps(environment()))
    if args.trace:
        result = bench.run_traced(case, args.seconds)
    else:
        result = bench.run_untraced(case, args.seconds, 1 if args.tiny else SETUP_PROBES)
    report(*result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
