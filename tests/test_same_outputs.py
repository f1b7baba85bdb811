"""tools/same_outputs.py: one command line run through two stand-in trees, each a package whose cli.main writes a
given text to its --out file (no git export, no benchmark runs)."""

import importlib.util
import shlex
from pathlib import Path

import pytest

from gsfr.cli import _commands

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

COMMAND = "vn cfl --p 3 --out cfl.json"
CLI = '''def main(argv):
    out = argv[argv.index("--out") + 1]
    with open(out, "w") as f:
        f.write({text!r})
    print("wrote", out)
    return 0
'''


@pytest.mark.parametrize(
    "work_text, size",
    [
        ("t,1.5,-2e-3", None),
        ("t,1.5000015,-2e-3", "largest relative change 1.0e-06"),
        ("x,1.5,-2e-3", "text differs outside its numbers"),
    ],
    ids=["identical", "one-changed-output", "changed-text"],
)
def test_a_changed_output_names_its_command(work_text, size, monkeypatch, capsys):
    exported = {}

    def export(rev, dest):
        package = dest / "src" / "gsfr"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(CLI.format(text={"BASE": "t,1.5,-2e-3", "WORK": work_text}[rev]))
        exported[rev] = dest.name

    monkeypatch.setattr(same_outputs.bench_pair, "export", export)
    monkeypatch.setattr(same_outputs.bench_pair, "working_tree", lambda: "WORK")
    monkeypatch.setattr(same_outputs, "COMMANDS", (COMMAND,))
    code = int(size is not None)
    assert same_outputs.main(["--base", "BASE"]) == code
    assert exported == {"BASE": "base", "WORK": "work"}
    out, err = capsys.readouterr()
    # both sides print the same relative --out path, so only the file's bytes differ
    assert out.splitlines() == ([f"differs in --out file: {COMMAND}; --out file {size}"] if code else [])
    assert err == f"{1 - code} of 1 command lines identical\n"


@pytest.mark.parametrize(
    "base, work, size",
    [
        (b"e = 1.0, n = 3\n", b"e = 1.0000000001, n = 3\n", "1.0e-10"),
        (b"-2.5e-3,0\n", b"-2.5e-3,1e-300\n", "inf"),  # a zero that moves
        (b"nan,inf,7\n", b"nan,inf,7.7\n", "1.0e-01"),  # equal nan and inf move nothing
        (b"inf\n", b"1e308\n", "inf"),
    ],
)
def test_relative_change_quotes_the_largest_move(base, work, size):
    assert same_outputs.relative_change(base, work) == f"largest relative change {size}"


def test_every_command_is_gated():
    assert {tuple(shlex.split(line)[:2]) for line in same_outputs.COMMANDS} == set(_commands())
