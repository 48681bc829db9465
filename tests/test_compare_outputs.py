"""tools/compare_outputs.py on small hand-built output trees."""

import importlib.util
import json
import os
import shutil
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


def _ulp_head(tmp_path, series=SERIES):
    """A head tree whose levels[1].rms is one ulp above the base's."""
    report = json.loads(json.dumps(REPORT))
    report["levels"][1]["rms"] = float(np.nextafter(0.03125, 1.0))
    return _tree(tmp_path / "head", report=report, series=series)


def test_key_level_lines_bound_one_key_or_column(tmp_path, capsys):
    _tree(tmp_path / "base")
    head = _ulp_head(tmp_path, series="t,J1,trace3_acc\n0,0.5,nan\n0.0125,0.25,1.5e-12\n")
    rel = 2.0**-52 / (1.0 + 2.0**-52)
    moved = ["rec/report.json:levels[1].rms <= 1e-15", "rec/series.csv:trace3_acc <= 0.5"]
    assert _run(tmp_path, head, moved) == 0
    out = capsys.readouterr().out
    assert "moved rec/report.json: largest relative change" in out
    assert f"    levels[1].rms {rel:.3g} (within its MOVED bound 1e-15)\n" in out
    assert "    trace3_acc 0.333 (within its MOVED bound 0.5)\n" in out
    assert _run(tmp_path, head, [moved[0].replace("1e-15", "1e-16"), moved[1]]) == 1
    out = capsys.readouterr().out
    assert f"    levels[1].rms {rel:.3g} (FAIL: exceeds its MOVED bound 1e-16)\n" in out
    # a moved column that no line names fails, whatever bounds the other file's keys
    assert _run(tmp_path, head, [moved[0]]) == 1
    assert "(FAIL: no MOVED line names it)" in capsys.readouterr().out


def test_key_level_line_takes_precedence_over_the_file_level_line(tmp_path, capsys):
    _tree(tmp_path / "base")
    head = _ulp_head(tmp_path)
    key, whole = "rec/report.json:levels[1].rms", "rec/report.json"
    # tighter key line: the key fails though the file line would admit it
    assert _run(tmp_path, head, [f"{whole} <= 1", f"{key} <= 1e-16"]) == 1
    assert "(FAIL: exceeds its MOVED bound 1e-16)" in capsys.readouterr().out
    # looser key line: the key passes though the file line would refuse it, in
    # either order of the lines
    assert _run(tmp_path, head, [f"{key} <= 1e-15", f"{whole} <= 1e-16"]) == 0
    assert _run(tmp_path, head, [f"{whole} <= 1e-16", f"{key} <= 1e-15"]) == 0
    # a key that no key line names keeps the file line's bound
    report = json.loads(json.dumps(REPORT))
    report["levels"][1]["rms"] = float(np.nextafter(0.03125, 1.0))
    report["levels"][0]["rms"] = 0.25
    shutil.rmtree(head)
    head = _tree(tmp_path / "head", report=report)
    assert _run(tmp_path, head, [f"{whole} <= 1e-16", f"{key} <= 1e-15"]) == 1
    out = capsys.readouterr().out
    assert "    levels[0].rms 0.5 (FAIL: exceeds its MOVED bound 1e-16)\n" in out
    assert _run(tmp_path, head, [f"{whole} <= 0.5", f"{key} <= 1e-15"]) == 0


@pytest.mark.parametrize("line", ["rec/report.json: <= 1e-3", ":levels[0].rms <= 1",
                                  "rec/report.json:levels[0].rms <= small",
                                  "rec/report.json:levels[0].rms 1e-3"])
def test_malformed_key_line_exits_2(tmp_path, capsys, line):
    _tree(tmp_path / "base")
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, _ulp_head(tmp_path), [line])
    assert err.value.code == 2
    assert "not a 'MOVED: <file> <= <bound>' line" in capsys.readouterr().err


def test_key_that_no_file_holds_fails(tmp_path, capsys):
    _tree(tmp_path / "base")
    head = _ulp_head(tmp_path)
    good = "rec/report.json:levels[1].rms <= 1e-15"
    for stale in ("rec/report.json:levels[2].rms", "rec/series.csv:J3",
                  "rec/summary.txt:decay", "other/report.json:levels[0].rms"):
        assert _run(tmp_path, head, [good, f"{stale} <= 1"]) == 1
        assert f"FAIL: MOVED line {stale} names a key that no file holds" in \
            capsys.readouterr().out
    # a key of an identical file is held
    assert _run(tmp_path, head, [good, "rec/series.csv:J1 <= 1"]) == 0


def _dissipation_report(relative, sweeps):
    return {"dissipation": {"relative": relative, "discrepancy": relative * 2.6e-3},
            "flags": {"picard_capped_steps": 7, "picard_mean_sweeps": sweeps},
            "functionals": {"sup_J1": 0.41}}


def test_planted_five_percent_move_fails_under_key_level_lines(tmp_path, capsys):
    # a counter moved 8.1e-3 (2.0109 -> 2.0273 mean sweeps) and a physical key moved
    # 5 %: the file-level bound that admits the counter admits the 5 % too, while a
    # key-level line for the counter and a tight file line for the rest refuse it
    base, head = tmp_path / "base" / "dissipation", tmp_path / "head" / "dissipation"
    for d, rel, sweeps in ((base, 3.14e-4, 2.0109375), (head, 1.05 * 3.14e-4, 2.02734375)):
        d.mkdir(parents=True)
        (d / "report.json").write_text(json.dumps(_dissipation_report(rel, sweeps)))
    file_line = "dissipation/report.json <= 9e-2"
    key_lines = ["dissipation/report.json <= 4e-6",
                 "dissipation/report.json:flags.picard_mean_sweeps <= 9e-2"]
    assert _run(tmp_path, tmp_path / "head", [file_line]) == 0
    assert _run(tmp_path, tmp_path / "head", key_lines) == 1
    out = capsys.readouterr().out
    assert "    dissipation.relative 0.0476 (FAIL: exceeds its MOVED bound 4e-06)\n" in out
    assert "    flags.picard_mean_sweeps 0.00809 (within its MOVED bound 0.09)\n" in out
    # without the planted move the key-level lines admit the counter alone
    (head / "report.json").write_text(json.dumps(_dissipation_report(3.14e-4, 2.02734375)))
    assert _run(tmp_path, tmp_path / "head", key_lines) == 0


def test_suggest_prints_key_lines_that_admit_the_change(tmp_path, capsys):
    _tree(tmp_path / "base")
    head = _ulp_head(tmp_path, series="t,J1,trace3_acc\n0,0.5,nan\n0.0125,0.25,1.5e-12\n")
    (head / "rec" / "summary.txt").write_text("FAIL  decay\n")
    assert compare_outputs.main([str(tmp_path / "base"), str(head), "--suggest"]) == 1
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("MOVED:")]
    rel = 2.0**-52 / (1.0 + 2.0**-52)
    assert lines == [
        f"MOVED: rec/report.json:levels[1].rms <= {10 * rel:.2g} "
        f"(0.03125 -> {float(np.nextafter(0.03125, 1.0))!r})",
        "MOVED: rec/series.csv:trace3_acc <= 3.3 (1e-12 -> 1.5e-12)",
        "MOVED: rec/summary.txt <= inf (unbounded: text changed)"]
    # pasted back as the MOVED file, they admit the change
    assert _run(tmp_path, head, [ln[len("MOVED: "):] for ln in lines]) == 0
