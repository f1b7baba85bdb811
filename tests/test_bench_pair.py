"""tools/bench_pair.py: the verdict rules of its summary, on synthetic run lists, and its working-tree
export, on a throwaway repository (no benchmark runs)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

LOWER = {"unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "count", "better": "higher", "bound": 0.25}
# medians 1.45; inclusive quartiles 1.225 and 1.675, so an IQR of 0.45
BEFORE = [1.0 + 0.1 * i for i in range(10)]


@pytest.mark.parametrize(
    "shift, losing_pairs, gain",
    [(1.0, 0, True), (1.0, 1, True), (1.0, 2, False), (0.5, 0, True), (0.4, 0, False)],
    ids=["all-pairs", "nine-of-ten", "eight-of-ten", "shift-above-iqr", "shift-within-iqr"],
)
def test_gain_needs_nine_of_ten_pairs_and_a_shift_beyond_the_iqr(shift, losing_pairs, gain):
    after = [b - shift for b in BEFORE]
    for i in range(losing_pairs):
        after[i] = BEFORE[i] + 0.01
    s = bench_pair.summary(LOWER, BEFORE, after)
    assert s["before_quartiles"] == pytest.approx([1.225, 1.45, 1.675])
    assert s["after_better_pairs"] == 10 - losing_pairs
    assert s["gain"] is gain
    assert not s["regressed"]


def test_fewer_than_ten_pairs_never_claim_a_gain():
    before = BEFORE[:5]
    s = bench_pair.summary(LOWER, before, [b - 1.0 for b in before])
    assert s["after_better_pairs"] == 5
    assert s["gain"] is False


@pytest.mark.parametrize("after, regressed", [(1.2, False), (1.3, True)])
def test_regressed_against_the_bound(after, regressed):
    s = bench_pair.summary(LOWER, [1.0] * 10, [after] * 10)
    assert s["change"] == pytest.approx(after - 1.0)
    assert s["regressed"] is regressed
    assert s["after_better_pairs"] == 0 and not s["gain"]


@pytest.mark.parametrize(
    "after, wins, gain, regressed", [(1.5, 10, True, False), (0.8, 0, False, False), (0.7, 0, False, True)]
)
def test_higher_is_better(after, wins, gain, regressed):
    s = bench_pair.summary(HIGHER, [1.0] * 10, [after] * 10)
    assert s["after_better_pairs"] == wins
    assert s["gain"] is gain
    assert s["regressed"] is regressed


def test_working_tree_exports_the_files_on_disk_and_leaves_the_repository_as_it_was(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True, text=True).stdout

    files = {".gitignore": "ignored.txt\n", "kept.txt": "kept\n", "sub/modified.txt": "before\n", "deleted.txt": "gone\n"}
    for name, text in files.items():
        (repo / name).parent.mkdir(exist_ok=True)
        (repo / name).write_text(text)
    git("init", "-q")
    git("add", "-A")
    git("-c", "user.name=bench", "-c", "user.email=bench@example.com", "commit", "-q", "-m", "base")
    (repo / "sub/modified.txt").write_text("after\n")
    (repo / "untracked.txt").write_text("new\n")
    (repo / "ignored.txt").write_text("ignored\n")
    (repo / "deleted.txt").unlink()
    status, head = git("status", "--porcelain"), git("rev-parse", "HEAD")
    assert status.splitlines() == [" D deleted.txt", " M sub/modified.txt", "?? untracked.txt"]

    monkeypatch.setattr(bench_pair, "ROOT", repo)
    bench_pair.export(bench_pair.working_tree(), tmp_path / "after")
    bench_pair.export("HEAD", tmp_path / "before")

    def contents(tree):
        return {path.relative_to(tree).as_posix(): path.read_text() for path in tree.rglob("*") if path.is_file()}

    assert contents(tmp_path / "before") == files
    assert contents(tmp_path / "after") == {
        ".gitignore": "ignored.txt\n", "kept.txt": "kept\n", "sub/modified.txt": "after\n", "untracked.txt": "new\n"
    }
    assert git("status", "--porcelain") == status and git("rev-parse", "HEAD") == head


def test_unknown_workload_is_refused_before_any_export(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a tree was exported")

    monkeypatch.setattr(bench_pair, "export", refuse)
    monkeypatch.setattr(bench_pair, "working_tree", refuse)
    with pytest.raises(SystemExit) as exit_info:
        bench_pair.main(["--workloads", "hetero,nope", "--out", str(tmp_path / "out.json")])
    assert exit_info.value.code == 2
    # the prog name in the error line is sys.argv[0]'s, so only the message after it is pinned
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.endswith(": error: --workloads: nope not in BENCHMARK.json; expected some of hetero,vn_sweep,ooa_fine")
    assert not (tmp_path / "out.json").exists()


def test_a_failed_run_is_reported_in_one_line(tmp_path, monkeypatch, capsys):
    # the first pair runs before then after; the second runs after first, and that run fails
    benchmark_runs = []
    document = {"metrics": {"wall_s": {"value": 0.5}}, "failed": 0, "attempted": 1}

    def run(cmd, **kwargs):
        if cmd[1:2] != ["benchmarks/run.py"]:  # git and the numpy version
            return subprocess.CompletedProcess(cmd, 0, stdout="v\n", stderr="")
        benchmark_runs.append(kwargs["cwd"].name)
        if len(benchmark_runs) == 3:
            failure = "Traceback (most recent call last):\nValueError: boom\n"
            return subprocess.CompletedProcess(cmd, 1, stdout="", stderr=failure)
        return subprocess.CompletedProcess(cmd, 0, stdout="progress\n" + json.dumps(document) + "\n", stderr="")

    monkeypatch.setattr(bench_pair, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pair, "working_tree", lambda: "tree")
    monkeypatch.setattr(bench_pair.subprocess, "run", run)
    assert bench_pair.main(["--workloads", "hetero", "--out", str(tmp_path / "out.json")]) == 1
    assert benchmark_runs == ["before", "after", "after"]
    assert capsys.readouterr().err.splitlines() == [
        "hetero pair 1/10 before: wall_s 0.5",
        "hetero pair 1/10 after: wall_s 0.5",
        "hetero pair 2/10 after: exit 1: ValueError: boom",
    ]
    assert not (tmp_path / "out.json").exists()
