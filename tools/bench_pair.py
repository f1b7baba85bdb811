"""Before/after medians of the benchmark's end-to-end metrics, from alternating runs.

Runs each tree's own ``benchmarks/run.py --workload W --seed S --seconds T
--trace 0`` in a temporary export of a base revision and in a temporary
copy of the working tree, one run of each per pair, with the side that
runs first alternating from pair to pair. It writes one JSON document with the
per-run values, their medians and quartiles, the number of pairs in
which the working tree was better, and the Python and numpy versions and
core count of the machine. A metric is flagged ``regressed`` when its
after-median is worse than its before-median by more than the metric's
relative ``bound`` in BENCHMARK.json, and a workload ``more_failed`` when
the working tree failed more calls than the base. A benchmark run that
exits non-zero stops the tool with one line naming its workload, pair,
side, exit code and last stderr line, and exit code 1. Standard library
only.

    python tools/bench_pair.py --base HEAD --pairs 10 --seconds 10 --out BENCH_N.json

Both sides are exported with ``git archive``, side by side into one
temporary directory: the base revision, and the working tree written as
a tree object through a temporary index (tracked files as they are on
disk, untracked ones that are not ignored, deleted ones left out). So
both sides run from fresh trees of the same shape, without ``.git``,
earlier outputs or bytecode caches. The repository's index, HEAD and
working files stay untouched; the working tree's tree object and the
blobs of its changed files stay behind as unreferenced objects, which
``git gc`` prunes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# fewer pairs than this never report a gain, however they fall
MIN_GAIN_PAIRS = 10


def git(*args: str, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--output", str(archive), rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def working_tree() -> str:
    """The id of a tree object holding the working tree, staged in a temporary index rather than the repository's."""
    with tempfile.TemporaryDirectory(prefix="bench_pair_index_") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def bench(tree: Path, workload: str, seed: int, seconds: float) -> subprocess.CompletedProcess:
    """One benchmark run; a run that exits 0 prints its JSON document last."""
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3


def summary(spec: dict, before: list, after: list) -> dict:
    """Medians, quartiles and the pairs won; a gain is claimed only from at least
    MIN_GAIN_PAIRS pairs, when after wins at least nine in ten of them and the
    medians differ by more than before's IQR."""
    lower = spec["better"] == "lower"
    wins = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
    q_before, q_after = quartiles(before), quartiles(after)
    change = q_after[1] / q_before[1] - 1.0
    beyond_iqr = abs(q_after[1] - q_before[1]) > q_before[2] - q_before[0]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "before": q_before[1],
        "after": q_after[1],
        "change": change,
        "before_quartiles": q_before,
        "after_quartiles": q_after,
        "after_better_pairs": wins,
        "gain": len(before) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(before) and beyond_iqr,
        "regressed": (change if lower else -change) > spec["bound"],
        "before_runs": before,
        "after_runs": after,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare the working tree with")
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=MIN_GAIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=10.0, help="run time of each benchmark run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        parser.error(f"--workloads: {','.join(unknown)} not in BENCHMARK.json; expected some of {','.join(names)}")
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], check=True, capture_output=True, text=True
    ).stdout.strip()
    base_rev = git("rev-parse", args.base)
    doc = {
        "command": f"benchmarks/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} --trace 0",
        "base": base_rev,
        "after": f"working tree at {git('rev-parse', 'HEAD')}" + (" (modified)" if git("status", "--porcelain") else ""),
        "pairs": args.pairs,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {"before": Path(tmp) / "before", "after": Path(tmp) / "after"}
        export(base_rev, trees["before"])
        export(working_tree(), trees["after"])
        for workload in workloads:
            runs = {"before": [], "after": []}
            for pair in range(args.pairs):
                order = ("before", "after") if pair % 2 == 0 else ("after", "before")
                for side in order:
                    run = f"{workload} pair {pair + 1}/{args.pairs} {side}"
                    proc = bench(trees[side], workload, args.seed, args.seconds)
                    if proc.returncode:
                        last = (proc.stderr.strip().splitlines() or [""])[-1]
                        print(f"{run}: exit {proc.returncode}: {last}", file=sys.stderr)
                        return 1
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    runs[side].append(result)
                    print(f"{run}: wall_s {result['metrics']['wall_s']['value']:.4g}", file=sys.stderr)
            entry = {
                metric["name"]: summary(
                    metric,
                    [r["metrics"][metric["name"]]["value"] for r in runs["before"]],
                    [r["metrics"][metric["name"]]["value"] for r in runs["after"]],
                )
                for metric in spec["end_to_end"]
            }
            for side in runs:
                entry[f"failed_{side}"] = sum(r["failed"] for r in runs[side])
                entry[f"attempted_{side}"] = sum(r["attempted"] for r in runs[side])
            entry["more_failed"] = entry["failed_after"] > entry["failed_before"]
            doc["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
