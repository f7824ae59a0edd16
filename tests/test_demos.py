"""Each demo script runs to completion and prints its report.

The demos run in-process in a temporary working directory, since
demo 03 writes its SVG drawing to the current directory.
"""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
