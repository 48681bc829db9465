"""tools/compare_outputs.py on small hand-built output trees."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

REPORT = {"levels": [{"rms": 0.125, "n": 801}, {"rms": 0.03125, "n": 1601}],
          "passes": {"decay": True}, "experiment": "traces"}
SERIES = "t,J1,trace3_acc\n0,0.5,nan\n0.0125,0.25,1e-12\n"


def _tree(root: Path, report=REPORT, series=SERIES) -> Path:
    (root / "rec").mkdir(parents=True)
    (root / "rec" / "report.json").write_text(json.dumps(report, indent=2))
    (root / "rec" / "series.csv").write_text(series)
    (root / "rec" / "summary.txt").write_text("PASS  decay\n")
    return root


def _run(tmp_path, head: Path, moved=None):
    args = [str(tmp_path / "base"), str(head)]
    if moved is not None:
        (tmp_path / "moved.txt").write_text("".join(f"MOVED: {m}\n" for m in moved))
        args += ["--moved", str(tmp_path / "moved.txt")]
    return compare_outputs.main(args)


def test_identical_trees(tmp_path, capsys):
    _tree(tmp_path / "base")
    assert _run(tmp_path, _tree(tmp_path / "head")) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["identical rec/report.json", "identical rec/series.csv",
                   "identical rec/summary.txt"]


def test_one_leaf_one_ulp_off(tmp_path, capsys):
    _tree(tmp_path / "base")
    report = json.loads(json.dumps(REPORT))
    report["levels"][1]["rms"] = float(np.nextafter(0.03125, 1.0))
    head = _tree(tmp_path / "head", report=report)
    assert _run(tmp_path, head) == 1
    out = capsys.readouterr().out
    rel = 2.0**-52 / (1.0 + 2.0**-52)
    assert f"moved rec/report.json: largest relative change {rel:.3g}" in out
    assert f"    levels[1].rms {rel:.3g}\n" in out and "levels[0]" not in out
    assert "identical rec/series.csv" in out
    # a MOVED line admits the move only up to its bound
    assert _run(tmp_path, head, ["rec/report.json <= 1e-15"]) == 0
    assert "(within its MOVED bound 1e-15)" in capsys.readouterr().out
    assert _run(tmp_path, head, ["rec/report.json <= 1e-16"]) == 1
    assert "(FAIL: exceeds its MOVED bound 1e-16)" in capsys.readouterr().out
    assert _run(tmp_path, head, ["rec/series.csv <= 1"]) == 1
    assert "(FAIL: no MOVED line names it)" in capsys.readouterr().out


def test_one_csv_column_moved(tmp_path, capsys):
    _tree(tmp_path / "base")
    head = _tree(tmp_path / "head", series="t,J1,trace3_acc\n0,0.5,nan\n0.0125,0.25,1.5e-12\n")
    assert _run(tmp_path, head, ["rec/series.csv <= 0.5"]) == 0
    out = capsys.readouterr().out
    # the NaNs of the untouched row compare equal; only the moved column is listed
    assert "moved rec/series.csv: largest relative change 0.333" in out
    assert "    trace3_acc 0.333\n" in out and "J1" not in out


def test_missing_file_and_structural_changes_have_no_bound(tmp_path, capsys):
    _tree(tmp_path / "base")
    head = _tree(tmp_path / "head", report=dict(REPORT, experiment="identity"),
                 series=SERIES + "0.025,0.125,2e-12\n")
    (head / "rec" / "summary.txt").unlink()
    moved = ["rec/report.json <= 1", "rec/series.csv <= 1", "rec/summary.txt <= 1"]
    assert _run(tmp_path, head, moved) == 1
    out = capsys.readouterr().out
    assert "rec/report.json: unbounded: value changed at experiment: 'traces' -> 'identity'" in out
    assert "rec/series.csv: unbounded: CSV row count changed: 2 -> 3" in out
    assert "rec/summary.txt: unbounded: only in base" in out
    assert out.count("FAIL: exceeds") == 3
    # only an explicit inf bound admits them
    assert _run(tmp_path, head, [m.replace("<= 1", "<= inf") for m in moved]) == 0


def test_malformed_moved_line_exits_2(tmp_path, capsys):
    _tree(tmp_path / "base")
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, _tree(tmp_path / "head"), ["rec/report.json"])
    assert err.value.code == 2
    assert "not a 'MOVED: <file> <= <bound>' line" in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("differ", [False, True], ids=["identical", "one-leaf"])
def test_closed_reader_ends_quietly(tmp_path, unbuffered, differ):
    # stdout is a pipe whose reader has already gone: a buffered run meets it at
    # the final flush, an unbuffered one at its first line; either way no
    # traceback, and the status is the comparison's own, 0 or 1
    _tree(tmp_path / "base")
    report = json.loads(json.dumps(REPORT))
    if differ:
        report["levels"][1]["rms"] = 0.5
    head = _tree(tmp_path / "head", report=report)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(compare_outputs.__file__)), str(tmp_path / "base"),
             str(head)], stdout=write, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)
    assert proc.stderr == ""
    assert proc.returncode == (1 if differ else 0)
