import argparse
import importlib
import inspect
import json
import multiprocessing
import os
import pkgutil
import re
import shlex
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gsfr
import gsfr.cli
import gsfr.experiments
from gsfr.cli import main


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_corr_solve_writes_dg_coefficients(tmp_path, capsys):
    out_file = tmp_path / "dg.json"
    code, out, _ = run(["corr", "solve", "--p", "3", "--iota", "1,0,0,0", "--out", str(out_file)], capsys)
    assert code == 0
    assert "solved p=3" in out
    doc = json.loads(out_file.read_text())
    assert doc["result"] == {"h_l": [0.0, 0.0, 0.0, -0.5, 0.5], "h_r": [0.0, 0.0, 0.0, 0.5, 0.5]}
    assert doc["config"] == {"p": 3, "iota": [1.0, 0.0, 0.0, 0.0]}


def test_corr_bounds(tmp_path, capsys):
    out_file = tmp_path / "b.json"
    code, out, _ = run(["corr", "bounds", "--p", "3", "--iota", "1,0,0,0", "--out", str(out_file)], capsys)
    assert code == 0 and "satisfied" in out
    doc = json.loads(out_file.read_text())
    assert doc["result"]["satisfied"] is True
    assert doc["config"]["p"] == 3  # resolved config embedded


def test_corr_bounds_writes_strict_json(tmp_path, capsys):
    # every bound is finite, but a margin beyond the float range is inf, which the document writes as null
    out_file = tmp_path / "b.json"
    code, out, _ = run(["corr", "bounds", "--p", "2", "--iota", "1,1.5e308,1.5e308", "--out", str(out_file)], capsys)
    assert code == 0 and "satisfied" in out and "NOT" not in out

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads(out_file.read_text(), parse_constant=reject)
    assert doc["result"]["lower"][2] == -5e307 and doc["result"]["margins"][2] is None
    assert doc["result"]["satisfied"] is True


def test_corr_bounds_refuses_a_weight_vector_within_rounding_of_its_bound(capsys):
    # the exact G[2][2] of this vector is -5.0e-17, so its norm is indefinite and its solve fails
    iota = "1,-0.0666666,-2.2222222222861234e-08"
    code, out, _ = run(["corr", "bounds", "--p", "2", "--iota", iota], capsys)
    assert code == 0 and out.startswith("sufficient bounds NOT satisfied;")
    assert run(["corr", "identify", "--p", "2", "--iota", iota], capsys)[0] == 2


def test_corr_identify_unique_member(capsys):
    code, out, _ = run(["corr", "identify", "--p", "3", "--iota", "1,0.01,0.01,0.1"], capsys)
    assert code == 0
    assert "osfr=not a member" in out
    assert "esfr=not a member" in out
    assert "iota=[1.0, 0.01" in out


def test_corr_identify_dg_has_no_negative_zero(tmp_path, capsys):
    out_file = tmp_path / "id.json"
    code, out, _ = run(["corr", "identify", "--p", "3", "--iota", "1,0,0,0", "--out", str(out_file)], capsys)
    assert code == 0 and out == "identify: osfr=0.0, esfr=[0.0, 0.0], iota=[1.0, 0.0, 0.0, 0.0]\n"
    assert not re.search(r"-0\.0(?![0-9])", out_file.read_text())


def test_corr_identify_names_only_the_maps_that_ran(tmp_path, capsys):
    # the OSFR weight is the exact system's: the same double as the last recovered weight
    for p, iota, expected in (
        ("4", "1,0,0,0,0.001", "identify: osfr=0.0010000000000000002, iota=[1.0, 0.0, 0.0, 0.0, 0.0010000000000000002]\n"),
        ("2", "1,0,1e-9", "identify: osfr=1e-09, iota=[1.0, 0.0, 1e-09]\n"),
    ):
        out_file = tmp_path / "id.json"
        code, out, _ = run(["corr", "identify", "--p", p, "--iota", iota, "--out", str(out_file)], capsys)
        assert code == 0 and out == expected
        result = json.loads(out_file.read_text())["result"]
        assert result["osfr_iota"] == result["recovered_iota"][-1]


def test_corr_identify_reports_each_degenerate_map(tmp_path, capsys):
    # 0.4 * 105 = 42 * 1 makes the exact g_4 zero: both maps fail and the command still exits 0
    out_file = tmp_path / "id.json"
    code, out, _ = run(["corr", "identify", "--p", "4", "--iota", "105,0,1,0,0", "--out", str(out_file)], capsys)
    osfr = "degenerate: top Legendre coefficient of h_l vanishes"
    iota = "degenerate: weight recovery is degenerate: correction system is singular (exact determinant 0)"
    assert code == 0 and out == f"identify: osfr={osfr}, iota={iota}\n"
    assert json.loads(out_file.read_text())["result"] == {"osfr_iota": osfr, "recovered_iota": iota}


def _refuses_a_pair_off_its_endpoints(cmd, tmp_path, capsys):
    # next to the singular iota_2 = -1/45 the exact h_l's huge coefficients cancel; in doubles h_l(-1) = -2
    path = tmp_path / "out"
    code, out, err = run(cmd.split() + ["--p", "2", "--iota", "1,0,-0.022222222222222223", "--out", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "numerical failure: the solve's h_l in doubles has h_l(-1) = -2, h_l(1) = 2; need 1 and 0\n"
    assert not path.exists()


def test_corr_solve_refuses_a_pair_off_its_endpoints(tmp_path, capsys):
    _refuses_a_pair_off_its_endpoints("corr solve", tmp_path, capsys)


@pytest.mark.parametrize("cmd", ["corr identify", "vn cfl", "vn dispersion", "run hetero", "run advect", "run ooa"])
def test_every_solving_command_refuses_a_pair_off_its_endpoints(cmd, tmp_path, capsys):
    # the refusal is the solve's, so each command that solves a pair gives the same line and writes nothing
    _refuses_a_pair_off_its_endpoints(cmd, tmp_path, capsys)


def test_vn_cfl_reports_table_value(tmp_path, capsys):
    out_file = tmp_path / "cfl.json"
    code, out, _ = run(
        [
            "vn", "cfl", "--p", "3", "--rk", "rk44",
            "--iota", "1,2.069e-4,2.336e-3,2.336e-3",
            "--rho-tol", "1e-4", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    tau = json.loads(out_file.read_text())["result"]["tau_max"]
    assert 0.5 * tau == pytest.approx(0.390, rel=0.01)


@pytest.mark.parametrize(
    "iota,growing",
    [("1,2.069e-4,2.336e-3,2.336e-3", True), ("1,0,0,0", False)],
    ids=["published-p3-rk44", "dg"],
)
def test_vn_cfl_explains_its_limit(iota, growing, tmp_path, capsys):
    out_file = tmp_path / "cfl.json"
    code, out, _ = run(
        ["vn", "cfl", "--p", "3", "--rk", "rk44", "--iota", iota, "--k-samples", "64", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    result = json.loads(out_file.read_text())["result"]
    assert result["probes"] > 0
    if growing:
        assert result["spectral_abscissa"] == pytest.approx(3.3e-5, rel=0.05)
    else:
        assert abs(result["spectral_abscissa"]) < 1e-12
    lines = out.splitlines()
    assert len(lines) == (2 if growing else 1)
    assert ("--rho-tol" in lines[-1]) == growing


def test_vn_cfl_reports_the_first_alias_of_the_worst_phase(tmp_path, capsys):
    # k_hat 0.4541 (j = 37 of 256) and 1.1167 (j = 91) share the phase 4*pi*37/256
    # up to conjugation; the first of them on the grid is reported
    out_file = tmp_path / "cfl.json"
    argv = ["vn", "cfl", "--p", "3", "--iota", "1,1.274e-3,1.438e-2,7.848e-3", "--rk", "rk33", "--rho-tol", "1e-4"]
    code, out, _ = run(argv + ["--out", str(out_file)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "tau_max = 0.76967773437500009 (rk33, worst k_hat 0.4541)"
    assert json.loads(out_file.read_text())["result"]["worst_k_hat"] == np.pi * 37 / 256


def test_vn_dispersion_csv(tmp_path, capsys):
    out_file = tmp_path / "disp.csv"
    code, out, _ = run(
        ["vn", "dispersion", "--p", "2", "--iota", "1,0,0", "--k-samples", "16", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "k_hat,re_omega_mode_0,im_omega_mode_0,re_omega_mode_1,im_omega_mode_1,re_omega_mode_2,im_omega_mode_2"
    assert len(lines) == 17
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx(first[0], rel=1e-5)  # physical mode ~ exact at low k


def test_vn_sweep_csv(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run(
        [
            "vn", "sweep", "--p", "2", "--rk", "rk44", "--k-samples", "32",
            "--magnitudes", "0,1e-3", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "iota_1,iota_2,tau_max"
    assert len(lines) == 10  # 3^2 grid points


def test_sweep_and_search_give_no_limit_where_the_float_solve_refuses_a_point_inside_the_bounds(tmp_path, capsys):
    # (-0.3333333333333333, 0.3333333333333333) and (-0.3333333333333333, 1) pass the exact bounds, but
    # solve_correction refuses them (h_l(-1) = 0 in doubles): the sweep writes nan and the search counts them as no_limit
    magnitudes = ["--magnitudes", "0.3333333333333333,1"]
    sweep, search = tmp_path / "sweep.csv", tmp_path / "search.json"
    assert run(["vn", "sweep", "--p", "2", *magnitudes, "--out", str(sweep)], capsys)[0] == 0
    rows = [line.split(",") for line in sweep.read_text().splitlines()[1:]]
    refused = [row for row in rows if row[0] == "-0.33333333333333331" and row[1] in ("0.33333333333333331", "1")]
    assert refused == [["-0.33333333333333331", "0.33333333333333331", "nan"], ["-0.33333333333333331", "1", "nan"]]
    for row in refused:
        assert gsfr.correction.sufficient_bounds(gsfr.CorrectionParams(2, [1.0, float(row[0]), float(row[1])])).satisfied
    assert run(["search", "cfl", "--p", "2", *magnitudes, "--out", str(search)], capsys)[0] == 0
    assert json.loads(search.read_text())["result"]["no_limit"] == 2


def test_run_advect_csv(tmp_path, capsys):
    out_file = tmp_path / "u.csv"
    code, out, _ = run(
        [
            "run", "advect", "--p", "3", "--iota", "1,0,0,0",
            "--n-elements", "20", "--t-end", "0.5", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0 and "eps2" in out
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == 81  # one row per global node


def test_run_hetero_blowup_exit_code(capsys):
    code, out, err = run(
        ["run", "hetero", "--p", "3", "--iota", "1,0,0,0", "--alpha", "0.5", "--periods", "15", "--n-elements", "16"],
        capsys,
    )
    assert code == 2
    assert "blow-up" in err


def test_run_hetero_jump_overflow_exits_two_with_one_line(monkeypatch, capsys):
    # cfl 100, about a hundred times the stable step: the dense 64-step jump overflows while it is formed, and
    # that is no warning (turned into an error here so it cannot hide); the energy check reports the blow-up
    jumps, matrix_power = [], np.linalg.matrix_power

    def recording(a, m):
        jumps.append(power := matrix_power(a, m))
        return power

    monkeypatch.setattr(np.linalg, "matrix_power", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            ["run", "hetero", "--p", "3", "--iota", "1,0,0,0", "--cfl", "100", "--n-elements", "8", "--periods", "3"],
            capsys,
        )
    assert len(jumps) == 1 and not np.all(np.isfinite(jumps[0]))
    assert (code, out, err) == (2, "", "numerical failure: energy blow-up at t = 1.1547\n")


def test_run_hetero_prints_its_peak_energy(capsys):
    code, out, _ = run(["run", "hetero", "--p", "3", "--iota", "1,0,0,0", "--periods", "2", "--n-elements", "16"], capsys)
    report = gsfr.experiments.hetero_energy_study(gsfr.CorrectionParams(3, [1, 0, 0, 0]), n_elements=16, n_periods=2)
    assert code == 0 and report.peak_energy > np.max(report.energy[1:])
    final, peak = (gsfr.cli.FMT % v for v in (report.error_at_periods[-1], report.peak_energy))
    assert out == f"hetero: survived 2 periods, |E(nT)-1| final = {final}, peak energy = {peak}\n"


def test_run_ooa_json(tmp_path, capsys):
    out_file = tmp_path / "ooa.json"
    code, out, _ = run(
        [
            "run", "ooa", "--p", "2", "--iota", "1,0,0",
            "--element-counts", "40,50,60,70", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["result"]["fitted_order"] == pytest.approx(3.0, abs=0.2)
    assert doc["config"]["element_counts"] == [40, 50, 60, 70]
    # each mesh's step count and step land exactly on t_end = pi
    steps, taus = doc["result"]["steps"], doc["result"]["tau"]
    assert len(steps) == len(taus) == 4 and steps == sorted(steps)
    assert all(n * tau == pytest.approx(np.pi, rel=1e-14) for n, tau in zip(steps, taus))


@pytest.mark.parametrize(
    "argv,flagged",
    [("--p 5 --iota 1,0,0,0,0,0 --rk rk55", True), ("--p 3 --iota 1,0,0,0", False)],
    ids=["p5-rk55", "p3-rk44"],
)
def test_run_ooa_notes_errors_at_the_roundoff_floor(argv, flagged, tmp_path, capsys):
    # on the default meshes DG p=5 with rk55 reaches errors of 1e-12 to 9e-14; p=3 with rk44 stays above 1e-11
    out_file = tmp_path / "ooa.json"
    code, out, _ = run(["run", "ooa", *argv.split(), "--out", str(out_file)], capsys)
    assert code == 0
    result = json.loads(out_file.read_text())["result"]
    assert result["at_roundoff"] is flagged
    assert (min(result["errors"]) < gsfr.experiments.ROUNDOFF_FLOOR) is flagged
    lines = out.splitlines()
    assert len(lines) == 1 + flagged
    if flagged:
        assert lines[1] == (
            f"note: smallest error {min(result['errors']):.3g} < 1e-11, at the round-off floor; "
            "the fitted order may read round-off, not truncation"
        )


@pytest.mark.parametrize(
    "argv,record",
    [
        ("vn cfl --p 3 --iota 1,0,0,0 --k-samples 16", gsfr.StabilityResult),
        ("corr bounds --p 3 --iota 1,0,0,0", gsfr.StabilityBounds),
        ("run ooa --p 2 --iota 1,0,0 --element-counts 40,50,60,70", gsfr.OoaReport),
        ("search cfl --p 2 --magnitudes 0", gsfr.SearchReport),
    ],
    ids=["vn cfl", "corr bounds", "run ooa", "search cfl"],
)
def test_json_result_is_an_object_of_the_record_fields(argv, record, tmp_path, capsys):
    # a record is a tuple, which _finite_or_null alone would write as an array
    out_file = tmp_path / "doc.json"
    assert run(argv.split() + ["--out", str(out_file)], capsys)[0] == 0
    result = json.loads(out_file.read_text())["result"]
    assert isinstance(result, dict) and sorted(result) == sorted(record._fields)


def test_vn_sweep_parallel_matches_serial(tmp_path, capsys):
    base = ["vn", "sweep", "--p", "2", "--rk", "rk44", "--k-samples", "16", "--magnitudes", "0,1e-3"]
    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    run(base + ["--jobs", "1", "--out", str(a)], capsys)
    run(base + ["--jobs", str(min(2, os.cpu_count())), "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3", "cpus+1", "1000000"])
def test_vn_sweep_jobs_out_of_range_exits_one(jobs, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    jobs = str(os.cpu_count() + 1) if jobs == "cpus+1" else jobs
    code, out, err = run(["vn", "sweep", "--p", "2", "--magnitudes", "0", "--jobs", jobs], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: --jobs") and err.count("\n") == 1


def test_search_cfl_small_grid(tmp_path, capsys):
    out_file = tmp_path / "search.json"
    code, out, _ = run(
        ["search", "cfl", "--p", "2", "--rk", "rk44", "--magnitudes", "0", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["result"]["best_iota"] == [1.0, 0.0, 0.0]


def test_search_cfl_counts_the_order_studies_that_ran(tmp_path, capsys):
    # all 9 points are stable, but the first candidate already reaches the order threshold
    out_file = tmp_path / "search.json"
    argv = ["search", "cfl", "--p", "2", "--rk", "rk44", "--magnitudes", "0,1e-3", "--out", str(out_file)]
    assert run(argv, capsys)[0] == 0
    result = json.loads(out_file.read_text())["result"]
    assert result["grid_spec"].startswith("9 points, 9 stable")
    assert result["evaluated"] == 1


def test_search_cfl_reports_each_candidate_fate(tmp_path, capsys):
    # every point of the p=2 grid is inside the bounds with a positive limit, and
    # the first order study reaches the threshold, so no point meets another fate
    out_file = tmp_path / "search.json"
    argv = ["search", "cfl", "--p", "2", "--rk", "rk44", "--magnitudes", "0,1e-3", "--out", str(out_file)]
    assert run(argv, capsys)[0] == 0
    result = json.loads(out_file.read_text())["result"]
    fates = ("outside_bounds", "no_limit", "zero_tau", "unstable_runs", "below_order")
    assert {key: result[key] for key in fates} == dict.fromkeys(fates, 0)
    assert set(result) == {"best_iota", "best_tau", "ooa_at_best", "grid_spec", "evaluated", *fates, "spectral_abscissa"}


@pytest.mark.parametrize("magnitudes,growing", [("0", False), ("0,1e-3", True)], ids=["dg", "grid-1e-3"])
def test_search_cfl_notes_a_growing_winner(magnitudes, growing, tmp_path, capsys):
    # the winner's abscissa and step come from the route of vn cfl at 128 wavenumbers and rho_tol 1e-4
    out_file, cfl_file = tmp_path / "search.json", tmp_path / "cfl.json"
    argv = ["search", "cfl", "--p", "2", "--rk", "rk44", "--magnitudes", magnitudes, "--out", str(out_file)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    result = json.loads(out_file.read_text())["result"]
    iota = ",".join(repr(v) for v in result["best_iota"])
    cfl_argv = ["vn", "cfl", "--p", "2", "--rk", "rk44", "--iota", iota, "--k-samples", "128", "--rho-tol", "1e-4"]
    assert run(cfl_argv + ["--out", str(cfl_file)], capsys)[0] == 0
    limit = json.loads(cfl_file.read_text())["result"]
    assert (result["spectral_abscissa"], result["best_tau"]) == (limit["spectral_abscissa"], limit["tau_max"])
    lines = out.splitlines()
    if growing:
        assert result["spectral_abscissa"] == pytest.approx(5.53e-8, rel=0.01)
        assert lines[1:] == [
            "note: spectral abscissa 5.53e-08 > 0, so a mode grows at every step; "
            "tau_max depends on the search's rho_tol (0.0001)"
        ]
    else:
        assert abs(result["spectral_abscissa"]) <= gsfr.cli.ABSCISSA_TOL and len(lines) == 1


def test_validation_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corr", "solve", "--p", "3"])  # missing --iota
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1
    code, _, err = run(["corr", "solve", "--p", "7", "--iota", "1,0,0,0,0,0,0,0"], capsys)
    assert code == 1 and "error" in err
    code, _, err = run(["corr", "solve", "--p", "3", "--iota", "1,0"], capsys)
    assert code == 1 and "error" in err


def test_corr_identify_needs_iota(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corr", "identify", "--p", "3"])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err == "gsfr corr identify: error: the following arguments are required: --iota\n"


# every command that writes JSON, a cheap command line for it, and the config keys it records
JSON_COMMANDS = {
    "corr bounds": ("--p 3 --iota 1,0,0,0", {"p", "iota"}),
    "corr solve": ("--p 3 --iota 1,0,0,0", {"p", "iota"}),
    "corr identify": ("--p 3 --iota 1,0,0,0", {"p", "iota"}),
    "vn cfl": ("--p 3 --iota 1,0,0,0 --k-samples 16", {"p", "iota", "alpha", "rk", "k_samples", "rho_tol"}),
    "run ooa": (
        "--p 2 --iota 1,0,0 --element-counts 8,10,12,14 --t-end 0.5",
        {"p", "iota", "alpha", "nodes", "rk", "t_end", "element_counts"},
    ),
    "search cfl": ("--p 2 --magnitudes 0", {"p", "alpha", "rk", "magnitudes"}),
}


@pytest.mark.parametrize("cmd", JSON_COMMANDS)
def test_json_config_holds_every_option(cmd, tmp_path, capsys):
    options, keys = JSON_COMMANDS[cmd]
    out_file = tmp_path / "doc.json"
    code, _, _ = run(f"{cmd} {options} --out {out_file}".split(), capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert set(doc) == {"config", "result"}
    assert set(doc["config"]) == keys


def test_run_ooa_config_records_the_nodes(tmp_path, capsys):
    configs = []
    for nodes in ("gauss", "lobatto"):
        out_file = tmp_path / f"{nodes}.json"
        argv = "run ooa --p 2 --iota 1,0,0 --element-counts 8,10,12,14 --t-end 0.5 --nodes".split()
        run(argv + [nodes, "--out", str(out_file)], capsys)
        configs.append(json.loads(out_file.read_text())["config"])
    assert configs[0] != configs[1]
    assert [c["nodes"] for c in configs] == ["gauss", "lobatto"]


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.strip()]
    assert len(lines) == 10
    parser = gsfr.cli._build_parser()
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "gsfr", line
        parser.parse_args(argv[1:])


# every subcommand with its required options
REQUIRED = {
    "corr solve": "--p 3 --iota 1,0,0,0",
    "corr bounds": "--p 3 --iota 1,0,0,0",
    "corr identify": "--p 3 --iota 1,0,0,0",
    "vn dispersion": "--p 3 --iota 1,0,0,0",
    "vn cfl": "--p 3 --iota 1,0,0,0",
    "vn sweep": "--p 3",
    "run advect": "--p 3 --iota 1,0,0,0",
    "run hetero": "--p 3 --iota 1,0,0,0",
    "run ooa": "--p 3 --iota 1,0,0,0",
    "search cfl": "--p 3",
}
REMOVED_OPTIONS = (
    [(cmd, "--seed 1") for cmd in REQUIRED]
    + [(cmd, flag) for cmd in ("corr solve", "corr bounds", "corr identify") for flag in ("--alpha 0.5", "--nodes gauss")]
    + [("search cfl", "--nodes lobatto"), ("vn dispersion", "--rho-tol 1e-4"), ("corr identify", "--in x.json")]
    + [(cmd, "--nodes lobatto") for cmd in ("vn dispersion", "vn cfl", "vn sweep")]
)


@pytest.mark.parametrize("cmd,option", REMOVED_OPTIONS)
def test_removed_options_are_rejected(cmd, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(f"{cmd} {REQUIRED[cmd]} {option}".split())
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert "unrecognized arguments" in err and err.count("\n") == 1


def test_bad_element_counts_name_the_option(capsys):
    # one stderr line naming the option, with no usage block; a bad weight list reads the same way
    for argv, message in [
        ("run ooa --p 2 --iota 1,0,0 --element-counts 50,a,60,70", "argument --element-counts: bad element counts '50,a,60,70'"),
        ("vn cfl --p 3 --iota 1,0,x,0", "argument --iota: bad weight list '1,0,x,0'"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert message in err and "<lambda>" not in err and err.count("\n") == 1, err


def _record_commands(monkeypatch):
    """Replace every command with one that records its parsed arguments; the list of what it recorded."""
    seen = []
    for name in dir(gsfr.cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(gsfr.cli, name, lambda args: seen.append(args) or 0)
    return seen


@pytest.mark.parametrize("cmd", REQUIRED)
def test_path_build_parses_and_helps_as_the_whole_tree(cmd, monkeypatch, capsys):
    # main builds only the command's parser; the whole tree is the oracle, for an abbreviated option too
    argv = f"{cmd} {REQUIRED[cmd]}".split()
    seen = _record_commands(monkeypatch)
    for line in (argv, argv + ["--ou", "doc.json"]):
        assert main(line) == 0
        assert seen == [gsfr.cli._build_parser().parse_args(line)]
        seen.clear()
    # the help screen, asked for alone or after other options, at the terminal's width and at two fixed ones
    screens = {}
    for columns in (None, "40", "200"):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        for line in (cmd.split() + ["-h"], argv + ["-h"]):
            pair = []
            for parse in (main, gsfr.cli._build_parser().parse_args):
                with pytest.raises(SystemExit) as exc:
                    parse(line)
                pair.append((exc.value.code, capsys.readouterr().out))
            assert pair[0] == pair[1] and pair[0][0] == 0 and f"usage: gsfr {cmd} " in pair[0][1]
        screens[columns] = pair[0][1]
    assert screens["40"] != screens["200"]


@pytest.mark.parametrize(
    "argv,line",
    [
        ("run ooa --p 3 --iota 1,0,0,0 --seed 1", "gsfr: error: unrecognized arguments: --seed 1"),
        ("run ooa --p 3 --iota 1,0,0,0 extra", "gsfr: error: unrecognized arguments: extra"),
        ("run ooa --p", "gsfr run ooa: error: argument --p: expected one argument"),
        ("run ooa --p 3 --iota 1,0,0,0 -- x", "gsfr: error: unrecognized arguments: -- x"),
        ("run ooa -- --p 3 --iota 1,0,0,0", "gsfr run ooa: error: the following arguments are required: --p, --iota"),
        ("--foo run ooa --p 3 --iota 1,0,0,0", "gsfr: error: unrecognized arguments: --foo"),
        ("nope", "gsfr: error: argument group: invalid choice: 'nope' (choose from 'corr', 'vn', 'run', 'search')"),
        ("run nope", "gsfr run: error: argument cmd: invalid choice: 'nope' (choose from 'advect', 'hetero', 'ooa')"),
        ("", "gsfr: error: the following arguments are required: group"),
        ("run", "gsfr run: error: the following arguments are required: cmd"),
    ],
    ids=[
        "unrecognized", "trailing-positional", "missing-value", "separator-after-options",
        "separator-before-options", "option-before-group", "unknown-group", "unknown-command", "no-group", "no-command",
    ],
)
def test_parse_errors_match_the_whole_tree(argv, line, capsys):
    errors = []
    for parse in (main, gsfr.cli._build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv.split())
        errors.append((exc.value.code, capsys.readouterr().err))
    assert errors == [(1, line + "\n")] * 2


def test_a_command_line_builds_only_the_parsers_on_its_path(monkeypatch):
    # the whole tree is 15 parsers; a command line needs only its command's
    built = []

    class Counting(gsfr.cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(gsfr.cli, "_Parser", Counting)
    _record_commands(monkeypatch)
    gsfr.cli._build_parser()
    assert len(built) == 15
    for cmd in REQUIRED:
        built.clear()
        assert main(f"{cmd} {REQUIRED[cmd]}".split()) == 0
        assert built == [f"gsfr {cmd}"]


def test_the_cli_has_59_options():
    # every option string of every command's parser, -h excluded
    def leaves(parser):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return [parser]
        return [leaf for child in subs[0].choices.values() for leaf in leaves(child)]

    commands = leaves(gsfr.cli._build_parser())
    options = [
        flag
        for command in commands
        for action in command._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    ]
    assert len(commands) == len(REQUIRED) and len(options) == 59


def test_console_script_reads_sys_argv(tmp_path, monkeypatch, capsys):
    # the gsfr script calls main() with no arguments
    argv = ["corr", "bounds", "--p", "3", "--iota", "1,0,0,0", "--out"]
    assert run(argv + [str(tmp_path / "a.json")], capsys)[0] == 0
    monkeypatch.setattr(sys, "argv", ["gsfr", *argv, str(tmp_path / "b.json")])
    assert main() == 0
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()


@pytest.mark.parametrize("rho_tol", ["1e154", "1e155", "1e200", "1.7e308"])
@pytest.mark.parametrize("cmd", ["vn cfl --p 3 --iota 1,0,0,0", "vn sweep --p 3 --magnitudes 0"])
def test_a_bound_past_the_float_range_reports_no_finite_limit(cmd, rho_tol, capsys):
    # 2 rho_tol + rho_tol^2 passes the float range from about 1.34e154; past it, as just below it, no step is
    # unstable, so the bracket passes tau = 1e3: vn cfl fails, and vn sweep writes the point's limit as nan
    code, out, err = run(f"{cmd} --k-samples 16 --rho-tol {rho_tol}".split(), capsys)
    if cmd.startswith("vn cfl"):
        assert (code, out) == (2, "")
        assert err.startswith("numerical failure: no unstable step up to tau = 819.2: lower --rho-tol (")
        assert err.count("\n") == 1
    else:
        assert (code, err, out) == (0, "", "sweep: 1 points, best tau_max = nan\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["corr", "solve", "--p", "3", "--iota", "1,inf,0,0"],
        ["corr", "solve", "--p", "3", "--iota", "1,nan,0,0"],
        ["run", "hetero", "--p", "3", "--iota", "1,0,0,0", "--n-elements", "0"],
        ["run", "hetero", "--p", "3", "--iota", "1,0,0,0", "--cfl", "0"],
        ["run", "hetero", "--p", "3", "--iota", "1,0,0,0", "--periods", "0"],
        ["run", "advect", "--p", "3", "--iota", "1,0,0,0", "--n-elements", "0"],
        ["run", "ooa", "--p", "3", "--iota", "1,0,0,0", "--t-end", "0"],
        ["run", "ooa", "--p", "3", "--iota", "1,0,0,0", "--element-counts", "40,40,40,40"],
        # invalid input is reported before a weight vector with no usable step limit
        ["run", "advect", "--p", "3", "--iota", "1,-0.3,0,0", "--n-elements", "0"],
        ["run", "ooa", "--p", "3", "--iota", "1,-0.3,0,0", "--t-end", "0"],
        ["vn", "cfl", "--p", "3", "--iota", "1,0,0,0", "--rho-tol", "-1"],
        ["vn", "cfl", "--p", "3", "--iota", "1,0,0,0", "--rho-tol", "nan"],
        ["vn", "sweep", "--p", "2", "--magnitudes", "0", "--rho-tol", "-1"],
        ["vn", "sweep", "--p", "2", "--magnitudes", "0", "--rho-tol", "nan"],
        # more steps than int64 counts: a step that small, or that many periods
        ["run", "hetero", "--p", "3", "--iota", "1,0,0,0", "--periods", "1", "--cfl", "1e-300"],
        ["run", "hetero", "--p", "3", "--iota", "1,0,0,0", "--periods", "100000000000000000000000"],
        ["run", "hetero", "--p", "3", "--iota", "1,0,0,0", "--cfl", "inf"],
        # 10^17 samples or elements need an 800 PB array, past any 64-bit address space: it fails at once
        ["vn", "cfl", "--p", "3", "--iota", "1,0,0,0", "--k-samples", "100000000000000000"],
        ["vn", "dispersion", "--p", "3", "--iota", "1,0,0,0", "--k-samples", "100000000000000000"],
        ["run", "hetero", "--p", "3", "--iota", "1,0,0,0", "--n-elements", "100000000000000000"],
        ["run", "advect", "--p", "3", "--iota", "1,0,0,0", "--n-elements", "100000000000000000"],
        # an empty list entry is refused by the option's parser, not dropped
        ["corr", "solve", "--p", "3", "--iota", "1,,0,0,0"],
        ["vn", "cfl", "--p", "3", "--iota", "1,0,0,0,"],
        ["vn", "sweep", "--p", "2", "--magnitudes", ","],
        # the first grid point refuses a p outside 2..5, before any other point is built
        ["vn", "sweep", "--p", "-1", "--magnitudes", "0"],
        ["search", "cfl", "--p", "-1"],
        ["search", "cfl", "--p", "7"],
    ],
)
def test_invalid_input_exits_one_with_one_line(argv, capsys):
    try:
        code = main(argv)
        prefix = "error: "
    except SystemExit as exc:  # refused while parsing the options
        code = exc.code
        prefix = f"gsfr {argv[0]} {argv[1]}: error: argument {argv[4]}: bad weight list "
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in out + err
    p = int(argv[argv.index("--p") + 1])
    if not 2 <= p <= 5:
        assert err == f"error: order p={p} outside supported range 2..5\n"


@pytest.mark.parametrize("study", ["advect", "ooa"])
def test_unusable_step_limit_exits_two(study, capsys):
    # reference limit 3.1e-5, about 8 million steps at the default t_end: both studies refuse it at once
    code, out, err = run(["run", study, "--p", "3", "--iota", "1,-0.3,0,0", "--t-end", "0.01"], capsys)
    assert code == 2 and out == ""
    assert err == "numerical failure: no usable stable time step (reference limit 3.095e-05); study not run\n"


def test_advect_divergence_exits_two(monkeypatch, capsys):
    # a step far above the stable limit: the run diverges and is reported, not printed as eps2 = nan;
    # the overflow on the way there is not a warning (turned into an error here so it cannot hide)
    monkeypatch.setattr(gsfr.experiments, "cfl_limit", lambda *args, **kwargs: SimpleNamespace(tau_max=5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            ["run", "advect", "--p", "3", "--iota", "1,0,0,0", "--n-elements", "10", "--t-end", "100"], capsys
        )
    assert code == 2
    assert "divergence" in err and "eps2" not in out
    assert err.count("\n") == 1 and "RuntimeWarning" not in err


def test_every_package_error_has_one_exit_code(monkeypatch, capsys):
    from gsfr.correction import NumericalFailure

    modules = [importlib.import_module(f"gsfr.{info.name}") for info in pkgutil.iter_modules(gsfr.__path__)]
    errors = [
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == module.__name__
    ]
    numerical = {cls.__name__ for cls in errors if issubclass(cls, NumericalFailure)}
    assert numerical == {
        "NumericalFailure", "SingularSystemError",
        "ConvergenceFailureError", "UnstableRunError", "EmptyFeasibleSetError",
    }
    for error in errors:
        def fail(args, error=error):
            raise error("boom")

        monkeypatch.setattr(gsfr.cli, "_cmd_corr_bounds", fail)
        code, _, err = run(["corr", "bounds", "--p", "3", "--iota", "1,0,0,0"], capsys)
        expected = (2, "numerical failure: boom\n") if error.__name__ in numerical else (1, "error: boom\n")
        assert (code, err) == expected, error


def test_sweep_lets_programming_errors_through(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(gsfr.experiments, "cfl_limit", broken)
    with pytest.raises(TypeError):
        main(["vn", "sweep", "--p", "2", "--magnitudes", "0", "--k-samples", "8"])


def test_unwritable_output_file_exits_one(capsys):
    code, _, err = run(["corr", "solve", "--p", "3", "--iota", "1,0,0,0", "--out", "/nonexistent/dir/x.json"], capsys)
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1


def test_deterministic_csv_output(tmp_path, capsys):
    args = ["vn", "dispersion", "--p", "2", "--iota", "1,1e-3,1e-3", "--k-samples", "32"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(args + ["--out", str(a)], capsys)
    run(args + ["--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trippable_doubles(tmp_path, capsys):
    out_file = tmp_path / "u.csv"
    run(
        ["run", "advect", "--p", "2", "--iota", "1,0,0", "--n-elements", "8", "--t-end", "0.25", "--out", str(out_file)],
        capsys,
    )
    lines = out_file.read_text().strip().splitlines()[1:]
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
    rewritten = "\n".join(",".join("%.17g" % v for v in row) for row in parsed)
    assert rewritten == "\n".join(lines)
