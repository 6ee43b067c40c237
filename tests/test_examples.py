"""Every example script runs end to end against the current public API.

Each example is imported (a renamed or deleted public name fails there) and
then its ``main()`` runs, in a second or two each
(``single_qubit_gate_calibration`` with its default ``full=False``), so a
broken pipeline step also fails here instead of in a user's shell.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 4


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() only runs under __main__
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_without_running(path):
    assert callable(_load(path).main)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    _load(path).main()
    assert capsys.readouterr().out.strip()
