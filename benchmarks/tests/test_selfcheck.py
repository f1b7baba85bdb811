"""Self-check of the benchmark at a tiny size (1 period, 27-point grid, 4 small meshes).

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layer_trace  # noqa: E402
import run as bench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# the reference number each corruption test perturbs
REFERENCE_KEY = {"hetero": "period_errors", "vn_sweep": "tau_max", "ooa_fine": "errors"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize(
    "workload,trace,section",
    [
        ("hetero", "0", "end_to_end"),
        ("vn_sweep", "0", "end_to_end"),
        ("ooa_fine", "0", "end_to_end"),
        ("vn_sweep", "1", "per_layer"),
    ],
)
def test_every_metric_prints_with_its_unit(workload, trace, section):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0.1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())
    table = {line.split()[0]: line.split() for line in lines[:-1] if line.split()}
    for name, unit in declared.items():
        assert unit in table[name], f"{name} printed without unit {unit}"
    assert "ratio" in table["failed_frac"]
    if trace == "1":
        # vn_sweep steps nothing, so the per-step ratio is undefined and shown with its base
        assert table["operators.step.us_per_call"][1:4] == ["null", "(base", "operators.step.calls"]
        assert float(table["spectral.probes_per_limit"][1]) > 0


@pytest.fixture(scope="module")
def bench():
    return bench_run.Bench(bench_run.load_program(), None)


@pytest.mark.parametrize("workload", sorted(REFERENCE_KEY))
def test_seed0_checks_against_a_subset_of_the_reference(workload):
    bench = bench_run.Bench(bench_run.load_program(), json.loads(bench_run.REFERENCE.read_text()))
    case = bench.case(workload, seed=0)
    expected = {"hetero": bench_run.HETERO_PERIODS, "vn_sweep": 27, "ooa_fine": len(bench_run.OOA_COUNTS)}
    assert len(case.reference[REFERENCE_KEY[workload]]) == expected[workload]
    # hetero has no drawn input, so every seed is checked against the reference
    assert (bench.case(workload, seed=1).reference is None) == (workload != "hetero")


@pytest.mark.parametrize("workload", sorted(REFERENCE_KEY))
def test_corrupted_reference_counts_as_failed(bench, workload, capsys):
    bench_run.OUT_DIR.mkdir(exist_ok=True)
    case = bench.case(workload, seed=0, tiny=True)
    first = bench.call(case)
    assert first.failure is None
    case.reference = bench_run.read_output(workload, case.out)
    matching = bench.call(case)
    assert matching.failure is None
    values = case.reference[REFERENCE_KEY[workload]]
    i = next(i for i, v in enumerate(values) if v)
    values[i] *= 1.01
    corrupted = bench.call(case)
    assert corrupted.failure is not None
    capsys.readouterr()
    doc = bench_run.report([matching, corrupted], {}, {}, {})
    assert doc["failed"] == 1 and doc["attempted"] == 2 and doc["correct"] is False
    table = {line.split()[0]: line.split()[1:3] for line in capsys.readouterr().out.splitlines() if line.strip()}
    assert table["failed_frac"] == ["0.5", "ratio"]


def test_trace_restores_names_and_reports_absent_ones(bench, monkeypatch):
    gsfr = sys.modules["gsfr"]
    original = gsfr.operators.rk_advance
    missing = ("gsfr.spectral", "no_such_kernel", "spectral.eig", "count", None)
    monkeypatch.setattr(layer_trace, "TARGETS", layer_trace.TARGETS + (missing,))
    bench_run.OUT_DIR.mkdir(exist_ok=True)
    case = bench.case("ooa_fine", seed=0, tiny=True)
    trace = layer_trace.LayerTrace()
    for _ in range(2):  # the traced run re-enters one trace, alternating with untraced calls
        with trace:
            assert gsfr.experiments.rk_advance is not original
            assert bench.call(case).failure is None
        assert gsfr.experiments.rk_advance is original and gsfr.operators.rk_advance is original
    assert trace.absent == ["gsfr.spectral.no_such_kernel"]
    metrics, ratios = layer_trace.layer_metrics(trace, 2)
    assert metrics["operators.step.calls"][0] > 0
    assert metrics["operators.energy.calls"] == (0.0, "count")
    assert ratios["correction.bounds.pass_ratio"] == (None, "ratio", {"correction.bounds.calls": 0.0})


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "hetero", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
