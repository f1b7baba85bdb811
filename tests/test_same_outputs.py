"""tools/same_outputs.py: one command line run through two stand-in trees, each a package whose cli.main writes a
given text to its --out file (no git export, no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("work_text, code", [("same", 0), ("changed", 1)], ids=["identical", "one-changed-output"])
def test_a_changed_output_names_its_command(work_text, code, monkeypatch, capsys):
    exported = {}

    def export(rev, dest):
        package = dest / "src" / "gsfr"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(CLI.format(text={"BASE": "same", "WORK": work_text}[rev]))
        exported[rev] = dest.name

    monkeypatch.setattr(same_outputs.bench_pair, "export", export)
    monkeypatch.setattr(same_outputs.bench_pair, "working_tree", lambda: "WORK")
    monkeypatch.setattr(same_outputs, "COMMANDS", (COMMAND,))
    assert same_outputs.main(["--base", "BASE"]) == code
    assert exported == {"BASE": "base", "WORK": "work"}
    out, err = capsys.readouterr()
    # both sides print the same relative --out path, so only the file's bytes differ
    assert out.splitlines() == ([f"differs in --out file: {COMMAND}"] if code else [])
    assert err == f"{1 - code} of 1 command lines identical\n"
