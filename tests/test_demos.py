"""The demos run against the package as it is: their gsfr imports resolve and every demo runs."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demo_imports_resolve():
    assert len(DEMOS) == 5
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"), str(demo))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gsfr":
                module = importlib.import_module(node.module)
                missing = [alias.name for alias in node.names if not hasattr(module, alias.name)]
                assert not missing, (demo.name, node.module, missing)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the demos write their files to the working directory
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
