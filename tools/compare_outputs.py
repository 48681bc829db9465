"""Compare two directories of kdvhl recipe outputs, file by file and key by key.

    python tools/compare_outputs.py BASE_DIR HEAD_DIR [--moved FILE]

Each file found in either tree gets one line: "identical" when the bytes agree,
otherwise the largest relative change |a - b| / max(|a|, |b|) over its numbers,
followed by one indented line per moved number: each numeric leaf of a JSON
file, by key path, or each column of a CSV file, by header name.  A change that
no number can measure (a changed string, key set, list length, CSV header or
row count, a changed text file, a file in one tree only) is reported as such
and counts as an unbounded (infinite) change.  Two NaNs compare equal.

FILE holds lines "MOVED: <file> <= <bound>", <file> relative to the trees.  The
exit status is 1 when a file differs and no such line names it, or its change
exceeds the line's bound; only a bound of inf admits an unbounded change.
Without --moved every differing file fails.  A malformed MOVED line, like a
bad argument, exits 2.  When the reader of the output goes away early (a pipe
into `head`), printing stops and the comparison still finishes with its status.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from pathlib import Path

_MOVED = re.compile(r"MOVED:\s*(\S+)\s*<=\s*(\S+)\s*$")


class Unbounded(Exception):
    """A change that no relative number measures."""


def relative_change(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values or two NaNs, inf when only one
    side is finite or the two are different non-finite values."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def json_changes(a, b, path: str = "") -> dict:
    """{key path: largest relative change} over the numeric leaves of two parsed
    JSON values; raises Unbounded on any other difference."""
    where = path or "the top level"
    if _is_number(a) and _is_number(b):
        return {path: relative_change(float(a), float(b))}
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Unbounded(f"key set changed at {where}: "
                            f"{sorted(a.keys() ^ b.keys())}")
        out = {}
        for k in a:
            out.update(json_changes(a[k], b[k], f"{path}.{k}" if path else k))
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Unbounded(f"list length changed at {where}: {len(a)} -> {len(b)}")
        out = {}
        for i, (x, y) in enumerate(zip(a, b)):
            out.update(json_changes(x, y, f"{path}[{i}]"))
        return out
    if type(a) is not type(b) or a != b:
        raise Unbounded(f"value changed at {where}: {a!r} -> {b!r}")
    return {}


def _cell(s: str):
    try:
        return float(s)
    except ValueError:
        return s


def csv_changes(a: str, b: str) -> dict:
    """{column: largest relative change} over two CSV texts with a header row;
    raises Unbounded on a changed header, row count or non-numeric cell."""
    ra, rb = list(csv.reader(a.splitlines())), list(csv.reader(b.splitlines()))
    if not ra or not rb or ra[0] != rb[0]:
        raise Unbounded("CSV header changed")
    if len(ra) != len(rb):
        raise Unbounded(f"CSV row count changed: {len(ra) - 1} -> {len(rb) - 1}")
    out = dict.fromkeys(ra[0], 0.0)
    for n, (x, y) in enumerate(zip(ra[1:], rb[1:]), start=1):
        if len(x) != len(ra[0]) or len(y) != len(ra[0]):
            raise Unbounded(f"CSV row {n} has a different number of cells")
        for col, u, v in zip(ra[0], x, y):
            u, v = _cell(u), _cell(v)
            if isinstance(u, str) or isinstance(v, str):
                if u != v:
                    raise Unbounded(f"CSV cell changed in row {n}, column {col}: "
                                    f"{u!r} -> {v!r}")
                continue
            out[col] = max(out[col], relative_change(u, v))
    return out


def file_changes(a: bytes, b: bytes, name: str) -> dict:
    """Per-key largest relative changes between two versions of one output file."""
    if name.endswith(".json"):
        try:
            return json_changes(json.loads(a), json.loads(b))
        except ValueError as e:
            raise Unbounded(f"not parseable as JSON: {e}") from None
    if name.endswith(".csv"):
        return csv_changes(a.decode(), b.decode())
    raise Unbounded("text changed")


def read_moved(path: Path) -> dict:
    """{file: bound} from the MOVED lines of path; blank lines are skipped."""
    moved = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        m = _MOVED.fullmatch(line.strip())
        try:
            moved[m.group(1)] = float(m.group(2))
        except (AttributeError, ValueError):
            raise ValueError(f"{path}: not a 'MOVED: <file> <= <bound>' line: {line!r}")
    return moved


def _to_null() -> None:
    """Send stdout to the null device once its reader has closed the pipe, so the
    later writes and the exit's flush pass quietly."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _say(line: str) -> None:
    try:
        print(line)
    except BrokenPipeError:
        _to_null()


def compare(base: Path, head: Path, moved=None) -> bool:
    """Print the comparison of the two trees; True when every difference is
    admitted by moved ({file: bound}; None admits none and prints no verdicts)."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (base, head) for p in root.rglob("*") if p.is_file()})
    ok = True
    for name in names:
        a, b = base / name, head / name
        if a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes():
            _say(f"identical {name}")
            continue
        detail = {}
        try:
            if not (a.is_file() and b.is_file()):
                raise Unbounded(f"only in {'base' if a.is_file() else 'head'}")
            detail = file_changes(a.read_bytes(), b.read_bytes(), name)
            largest = max(detail.values(), default=0.0)
            what = f"largest relative change {largest:.3g}"
        except Unbounded as e:
            largest, what = math.inf, f"unbounded: {e}"
        bound = (moved or {}).get(name)
        if bound is None:
            verdict = "" if moved is None else " (FAIL: no MOVED line names it)"
        elif largest > bound:
            verdict = f" (FAIL: exceeds its MOVED bound {bound:.3g})"
        else:
            verdict = f" (within its MOVED bound {bound:.3g})"
        ok = ok and bound is not None and largest <= bound
        _say(f"moved {name}: {what}{verdict}")
        for key, r in detail.items():
            if r > 0.0:
                _say(f"    {key} {r:.3g}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="the base tree of recipe outputs")
    ap.add_argument("head", type=Path, help="the head tree of recipe outputs")
    ap.add_argument("--moved", type=Path, help="a file of 'MOVED: <file> <= <bound>' lines")
    args = ap.parse_args(argv)
    for d in (args.base, args.head):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    try:
        moved = read_moved(args.moved) if args.moved else None
    except ValueError as e:
        ap.error(str(e))
    ok = compare(args.base, args.head, moved)
    try:
        sys.stdout.flush()  # lines still buffered meet a closed pipe here
    except BrokenPipeError:
        _to_null()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
