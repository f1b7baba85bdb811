"""Byte-identity of the CLI's outputs between a base revision and the working tree.

Runs each command line of COMMANDS through ``gsfr.cli.main`` of each
tree, one fresh process per command line and tree, each from its own
empty temporary directory; every ``--out`` path is relative, so it
prints as the same string on both sides. It compares the exit code,
stdout, stderr and the bytes of the ``--out`` file, prints one line per
command line that differs, and exits 1 if any differs. Standard library
only.

    python tools/same_outputs.py --base HEAD

The trees are built as tools/bench_pair.py builds them, with its
``export`` and ``working_tree``: ``git archive`` of the base revision and
of the working tree (tracked files as they are on disk, untracked ones
that are not ignored), side by side in one temporary directory. The
default ``vn sweep --p 4`` takes most of the run time, about 13 s per
side on a 2-core machine.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("bench_pair", Path(__file__).resolve().with_name("bench_pair.py"))
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

MAIN = "import sys; from gsfr.cli import main; sys.exit(main(sys.argv[1:]))"

# every subcommand: the solve and the OSFR/ESFR identification, the bounds with huge weights, the tracked
# dispersion curves, the step limit of each scheme, the sweeps and searches over weight grids, and the fully
# discrete studies of each scheme and node kind, two failing on purpose (exit 2)
COMMANDS = (
    "corr solve --p 3 --iota 1,0.01,0.01,0.1 --out solve.json",
    # an OSFR and ESFR member, neither, and an OSFR member at p=5
    "corr identify --p 3 --iota 1,0,0,0.001 --out identify.json",
    "corr identify --p 3 --iota 1,0.01,0.01,0.1 --out identify.json",
    "corr identify --p 5 --iota 1,0,0,0,0,1e-3 --out identify.json",
    "corr bounds --p 3 --iota 1,0,0,0 --out bounds.json",
    "corr bounds --p 2 --iota 1,1.5e308,1.5e308 --out bounds.json",
    "corr bounds --p 2 --iota 1,1e308,0 --out bounds.json",
    "corr bounds --p 3 --iota 1,1e308,0,-1e308 --out bounds.json",
    "vn dispersion --p 3 --iota 1,0,0,0 --out dispersion.csv",
    "vn dispersion --p 4 --iota 1,0.01,0.01,0.01,0.01 --alpha 0.5 --out dispersion.csv",
    "vn dispersion --p 2 --iota 1,0,0 --k-samples 1 --out dispersion.csv",
    # published optima (spectral.PUBLISHED_STEP_LIMITS)
    "vn cfl --p 3 --iota 1,2.069e-4,2.336e-3,2.336e-3 --out cfl.json",
    "vn cfl --p 4 --rk rk55 --iota 1,1.624e-3,1.274e-5,-2.637e-4,8.859e-4 --out cfl.json",
    "vn cfl --p 3 --rk rk33 --alpha 0.5 --iota 1,1.274e-3,1.438e-2,7.848e-3 --out cfl.json",
    "vn sweep --p 2 --out sweep.csv",
    "vn sweep --p 3 --out sweep.csv",
    "vn sweep --p 4 --out sweep.csv",
    "vn sweep --p 3 --rk rk44 --magnitudes 0,1e-3 --jobs 1 --out sweep.csv",
    "vn sweep --p 2 --rk rk55 --out sweep.csv",
    "vn sweep --p 2 --magnitudes 0.3333333333333333,1 --out sweep.csv",
    "search cfl --p 2 --out search.json",
    "search cfl --p 2 --rk rk55 --out search.json",
    "search cfl --p 3 --out search.json",
    "search cfl --p 3 --rk rk33 --out search.json",
    "search cfl --p 3 --rk rk55 --alpha 0.75 --out search.json",
    "search cfl --p 4 --out search.json",
    "search cfl --p 4 --rk rk33 --out search.json",
    "run advect --p 3 --iota 1,0,0,0 --out advect.csv",
    "run advect --p 3 --iota 1,0,0,0 --nodes lobatto --rk rk55 --out advect.csv",
    "run advect --p 3 --iota 1,-0.3,0,0 --t-end 0.01 --out advect.csv",
    "run hetero --p 3 --iota 1,0,0,0 --periods 1 --out hetero.csv",
    "run hetero --p 3 --iota 1,0,0,0 --nodes lobatto --periods 1 --out hetero.csv",
    "run hetero --p 3 --iota 1,0,0,0 --alpha 0.5 --out hetero.csv",  # energy blow-up, partial CSV
    "run hetero --p 3 --iota 1,0,0,0 --rk rk33 --out hetero.csv",
    "run hetero --p 3 --iota 1,0,0,0 --rk rk55 --out hetero.csv",
    "run ooa --p 3 --iota 1,0,0,0 --rk rk33 --element-counts 160,192,224,256 --out ooa.json",
    "run ooa --p 3 --iota 1,0,0,0 --nodes lobatto --out ooa.json",
    "run ooa --p 3 --iota 1,2.069e-4,2.336e-3,2.336e-3 --nodes lobatto --rk rk33 --alpha 0.5 --out ooa.json",
    "run ooa --p 3 --iota 1,0,0,0 --rk rk55 --out ooa.json",
    "run ooa --p 2 --iota 1,0,0 --out ooa.json",
    "run ooa --p 4 --iota 1,0,0,0,0 --rk rk33 --out ooa.json",
    "run ooa --p 4 --iota 1,0,0,0,0 --rk rk55 --alpha 0.75 --out ooa.json",
    "run ooa --p 5 --iota 1,0,0,0,0,0 --rk rk55 --out ooa.json",
)


def outputs(tree: Path, command: str, workdir: Path) -> dict:
    """Exit code, stdout, stderr and --out bytes (None if not written) of one command line run from workdir."""
    workdir.mkdir()
    argv = shlex.split(command)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", MAIN, *argv], cwd=workdir, env=env, capture_output=True)
    out = workdir / argv[argv.index("--out") + 1] if "--out" in argv else None
    written = out.read_bytes() if out is not None and out.exists() else None
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "--out file": written}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    differing = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        trees = {"base": Path(tmp) / "base", "work": Path(tmp) / "work"}
        bench_pair.export(args.base, trees["base"])
        bench_pair.export(bench_pair.working_tree(), trees["work"])
        for index, command in enumerate(COMMANDS):
            base, work = (outputs(tree, command, Path(tmp) / f"{side}_{index}") for side, tree in trees.items())
            parts = [part for part in base if base[part] != work[part]]
            if parts:
                differing += 1
                print(f"differs in {', '.join(parts)}: {command}")
    print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} command lines identical", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
