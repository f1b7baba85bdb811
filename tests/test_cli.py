import importlib
import inspect
import json
import pkgutil
import warnings

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
    assert doc["h_l"] == [0.0, 0.0, 0.0, -0.5, 0.5]
    assert doc["p"] == 3 and doc["iota"] == [1.0, 0.0, 0.0, 0.0]


def test_corr_bounds(tmp_path, capsys):
    out_file = tmp_path / "b.json"
    code, out, _ = run(["corr", "bounds", "--p", "3", "--iota", "1,0,0,0", "--out", str(out_file)], capsys)
    assert code == 0 and "satisfied" in out
    doc = json.loads(out_file.read_text())
    assert doc["result"]["satisfied"] is True
    assert doc["config"]["p"] == 3  # resolved config embedded


def test_corr_identify_unique_member(capsys):
    code, out, _ = run(["corr", "identify", "--p", "3", "--iota", "1,0.01,0.01,0.1"], capsys)
    assert code == 0
    assert "osfr=not a member" in out
    assert "esfr=not a member" in out
    assert "iota=[1.0, 0.01" in out


def test_corr_identify_from_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(["corr", "solve", "--p", "3", "--iota", "1,0,0,0.01", "--out", str(path)], capsys)
    code, out, _ = run(["corr", "identify", "--p", "3", "--in", str(path)], capsys)
    assert code == 0
    assert "osfr=0.0099" in out or "osfr=0.01" in out


@pytest.mark.parametrize(
    "content,p,message",
    [
        ('{"p": 3}', "3", "field 'iota' is missing"),
        ("[1, 2]", "3", "JSON list"),
        (None, "4", "--p 4 differs from p = 2"),
    ],
    ids=["missing-field", "not-an-object", "other-p"],
)
def test_corr_identify_rejects_a_bad_file(content, p, message, tmp_path, capsys):
    path = tmp_path / "c.json"
    if content is None:
        run(["corr", "solve", "--p", "2", "--iota", "1,0,0", "--out", str(path)], capsys)
    else:
        path.write_text(content)
    code, out, err = run(["corr", "identify", "--p", p, "--in", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


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


def test_vn_sweep_parallel_matches_serial(tmp_path, capsys):
    base = ["vn", "sweep", "--p", "2", "--rk", "rk44", "--k-samples", "16", "--magnitudes", "0,1e-3"]
    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    run(base + ["--jobs", "1", "--out", str(a)], capsys)
    run(base + ["--jobs", "2", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_search_cfl_small_grid(tmp_path, capsys):
    out_file = tmp_path / "search.json"
    code, out, _ = run(
        ["search", "cfl", "--p", "2", "--rk", "rk44", "--magnitudes", "0", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["result"]["best_iota"] == [1.0, 0.0, 0.0]


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


def test_corr_identify_needs_iota_or_in(capsys):
    code, _, err = run(["corr", "identify", "--p", "3"], capsys)
    assert code == 1 and err == "error: corr identify needs --iota or --in\n"


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
    + [("search cfl", "--nodes lobatto"), ("vn dispersion", "--rho-tol 1e-4")]
    + [(cmd, "--nodes lobatto") for cmd in ("vn dispersion", "vn cfl", "vn sweep")]
)


@pytest.mark.parametrize("cmd,option", REMOVED_OPTIONS)
def test_removed_options_are_rejected(cmd, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(f"{cmd} {REQUIRED[cmd]} {option}".split())
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


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
    ],
)
def test_invalid_input_exits_one_with_one_line(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in out + err


@pytest.mark.parametrize("study", ["advect", "ooa"])
def test_unusable_step_limit_exits_two(study, capsys):
    # reference limit 3.1e-5, about 8 million steps at the default t_end: both studies refuse it at once
    code, out, err = run(["run", study, "--p", "3", "--iota", "1,-0.3,0,0", "--t-end", "0.01"], capsys)
    assert code == 2 and out == ""
    assert err == "numerical failure: no usable stable time step (reference limit 3.095e-05); study not run\n"


def test_advect_divergence_exits_two(monkeypatch, capsys):
    # a step far above the stable limit: the run diverges and is reported, not printed as eps2 = nan;
    # the overflow on the way there is not a warning (turned into an error here so it cannot hide)
    monkeypatch.setattr(gsfr.experiments, "_reference_tau", lambda *args, **kwargs: 5.0)
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
        "NumericalFailure", "SingularSystemError", "SingularEtaError", "SingularDenominatorError",
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


def test_missing_input_file_exit_one(capsys):
    code, _, err = run(["corr", "identify", "--p", "3", "--iota", "1,0,0,0", "--in", "/nonexistent/x.json"], capsys)
    assert code == 1


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
