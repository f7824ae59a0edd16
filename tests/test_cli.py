"""End-to-end tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sobtrace
from sobtrace import checks
from sobtrace.cli import GALLERY_TAGS, main

SRC = str(Path(sobtrace.__file__).resolve().parents[1])


def _run(*args):
    """Run ``python -c`` or ``python -m`` in a fresh interpreter on this source tree."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)


def test_norm_from_csv(tmp_path, capsys):
    path = tmp_path / "steps.csv"
    path.write_text("value,measure\n3,0.2\n1,0.5\n2,0.3\n")
    assert main(["norm", "--csv", str(path), "--p", "1", "--q", "1"]) == 0
    out = capsys.readouterr().out
    assert "rearranged form:   1.7" in out
    assert "distribution form: 1.7" in out


def test_norm_gallery_json(capsys):
    code = main(["norm", "--gallery", "cube2", "--field", "inv_d",
                 "--p", "1", "--q", "inf", "--h", str(2.0**-6), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == "inf"
    assert payload["total_measure"] == 1.0
    assert "value_cap" in payload
    assert math.isclose(payload["quasinorm_rearranged"],
                        payload["quasinorm_distribution"], rel_tol=1e-10)


def test_norm_requires_source():
    with pytest.raises(SystemExit):
        main(["norm"])


def test_norm_rejects_unknown_gallery():
    with pytest.raises(SystemExit):
        main(["norm", "--gallery", "klein_bottle"])


def test_render_writes_svg(tmp_path, capsys):
    out = tmp_path / "dom.svg"
    assert main(["render", "--gallery", "rooms_and_passages", "--kmax", "4",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert "wrote" in capsys.readouterr().out


def test_render_needs_gallery():
    with pytest.raises(SystemExit):
        main(["render"])


def test_scan_finds_squares_sequence(capsys):
    code = main(["scan", "--gallery", "squares_stack", "--kmax", "6",
                 "--mc-samples", "2000", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "VIOLATED_SEQUENCE_FOUND"
    assert payload["probes"]


def test_scan_output_is_deterministic(capsys):
    argv = ["scan", "--gallery", "squares_stack", "--kmax", "5",
            "--mc-samples", "1500", "--json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_profile_rectangle(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code = main(["profile", "--gallery", "rectangle", "--a", "0.5",
                 "--s", "0.05", "--h", str(2.0**-6), "--json",
                 "--out", str(out)])
    assert code == 0
    json_line = next(line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("{"))
    payload = json.loads(json_line)
    assert math.isclose(payload["witness_perimeter"],
                        math.sqrt(math.pi * 0.05), rel_tol=1e-9)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,witness_perimeter,analytic_bound"
    assert len(lines) == 2


def test_profile_rectangle_needs_a():
    with pytest.raises(SystemExit, match="--a"):
        main(["profile", "--gallery", "rectangle", "--s", "0.05"])


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert names == list(checks.CHECKS)
    assert len(names) == 13


def test_verify_single_check(capsys):
    assert main(["verify", "--only", "rearrangement_invariants"]) == 0
    out = capsys.readouterr().out
    assert "PASS rearrangement_invariants" in out
    assert "1/1 checks passed" in out


def test_verify_unknown_check():
    with pytest.raises(SystemExit):
        main(["verify", "--only", "nonexistent_check"])


def test_verify_json_keys(capsys):
    assert main(["verify", "--only", "punctured_ball_ratio", "--json"]) == 0
    [entry] = json.loads(capsys.readouterr().out)
    assert set(entry) == {"id", "ok", "detail", "rows"}
    assert entry["id"] == "punctured_ball_ratio" and entry["ok"] is True
    assert len(entry["rows"]) == 2
    for row in entry["rows"]:
        assert set(row) == {"quantity", "measured", "relation", "bound", "ok"}
        assert row["ok"] is True


def test_verify_reports_a_failing_row(monkeypatch, capsys):
    monkeypatch.setitem(checks.CHECKS, "cube_weak_norm",
                        lambda seed: [("relative error", 0.5, "<=", 0.02)])
    assert main(["verify", "--only", "cube_weak_norm"]) == 1
    out = capsys.readouterr().out
    assert "FAIL cube_weak_norm" in out.splitlines()
    assert "[not ok] relative error: 0.5 <= 0.02" in out
    assert "0/1 checks passed" in out
    assert main(["verify", "--only", "cube_weak_norm", "--json"]) == 1
    [entry] = json.loads(capsys.readouterr().out)
    assert entry["ok"] is False and entry["rows"][0]["ok"] is False


@pytest.mark.parametrize("argv, cause", [
    (["norm", "--gallery", "punctured_ball3"], "2^-7"),
    (["norm", "--gallery", "cube2", "--h", "-1"], "h must be positive"),
    (["norm", "--csv", "{short_csv}"], "line 3"),
])
def test_bad_input_is_one_line_and_status_2(tmp_path, argv, cause):
    short_csv = tmp_path / "short.csv"
    short_csv.write_text("value,measure\n3,0.2\n1\n")
    argv = [a.format(short_csv=short_csv) for a in argv]
    proc = _run("-m", "sobtrace.cli", *argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("sobtrace: ") and cause in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_import_loads_no_scipy():
    proc = _run("-c", "import sys, sobtrace, sobtrace.cli; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_gallery_tags_exposed():
    assert "rectangle" in GALLERY_TAGS
    assert "cube2" in GALLERY_TAGS
    assert len(GALLERY_TAGS) == len(set(GALLERY_TAGS))
