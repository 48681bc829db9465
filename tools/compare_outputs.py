"""Compare two directories of kdvhl recipe outputs, file by file and key by key.

    python tools/compare_outputs.py BASE_DIR HEAD_DIR [--moved FILE] [--suggest]

Each file found in either tree gets one line: "identical" when the bytes agree,
otherwise the largest relative change |a - b| / max(|a|, |b|) over its numbers,
followed by one indented line per moved number: each numeric leaf of a JSON
file, by key path, or each column of a CSV file, by header name.  A change that
no number can measure (a changed string, key set, list length, CSV header or
row count, a changed text file, a file in one tree only) is reported as such
and counts as an unbounded (infinite) change.  Two NaNs compare equal.

FILE holds lines "MOVED: <file> <= <bound>", <file> relative to the trees, and
"MOVED: <file>:<key> <= <bound>", <key> a JSON key path or a CSV column as this
tool prints them; either may end in a remark in parentheses.  A key-level line
bounds that key alone and takes precedence over the file-level line, which
bounds every key that no key-level line names.  The exit status is 1 when a
moved key has no bound or exceeds it, when a key-level line names a key that
its file does not hold in either tree, or when a change no number measures
meets a file-level bound other than inf.  Without --moved every differing file
fails.  A malformed MOVED line, like a bad argument, exits 2.  --suggest ends
the output with one key-level MOVED line per moved key, at 10x its change and
with the key's base and head values as its remark (for a JSON leaf its two
values, for a CSV column the two cells that moved most), and a file-level line
"<= inf" for a change no number measures.  When the reader of the output goes
away early (a pipe into `head`), printing stops and the comparison still
finishes with its status.
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

_MOVED = re.compile(r"MOVED:\s*(\S+)\s*<=\s*(\S+)(\s+\(.*\))?\s*$")


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
    """{key path: (relative change, base value, head value)} over the numeric leaves
    of two parsed JSON values; raises Unbounded on any other difference."""
    where = path or "the top level"
    if _is_number(a) and _is_number(b):
        return {path: (relative_change(float(a), float(b)), a, b)}
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
    """{column: (largest relative change, its base cell, its head cell)} over two CSV
    texts with a header row; raises Unbounded on a changed header, row count or
    non-numeric cell."""
    ra, rb = list(csv.reader(a.splitlines())), list(csv.reader(b.splitlines()))
    if not ra or not rb or ra[0] != rb[0]:
        raise Unbounded("CSV header changed")
    if len(ra) != len(rb):
        raise Unbounded(f"CSV row count changed: {len(ra) - 1} -> {len(rb) - 1}")
    out = dict.fromkeys(ra[0], (0.0, None, None))
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
            r = relative_change(u, v)
            if r > out[col][0]:
                out[col] = (r, u, v)
    return out


def file_changes(a: bytes, b: bytes, name: str) -> dict:
    """Per-key (largest relative change, base value, head value) between two
    versions of one output file."""
    if name.endswith(".json"):
        try:
            return json_changes(json.loads(a), json.loads(b))
        except ValueError as e:
            raise Unbounded(f"not parseable as JSON: {e}") from None
    if name.endswith(".csv"):
        return csv_changes(a.decode(), b.decode())
    raise Unbounded("text changed")


def read_moved(path: Path) -> dict:
    """{(file, key): bound} from the MOVED lines of path, key None on a file-level
    line; blank lines are skipped."""
    moved = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        m = _MOVED.fullmatch(line.strip())
        try:
            name, colon, key = m.group(1).partition(":")
            if not name or (colon and not key):
                raise ValueError("empty file or key")
            moved[name, key or None] = float(m.group(2))
        except (AttributeError, ValueError):
            raise ValueError(f"{path}: not a 'MOVED: <file> <= <bound>' line (nor "
                             f"'MOVED: <file>:<key> <= <bound>'): {line!r}")
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


def _verdict(change: float, bound) -> str:
    if bound is None:
        return " (FAIL: no MOVED line names it)"
    if change > bound:
        return f" (FAIL: exceeds its MOVED bound {bound:.3g})"
    return f" (within its MOVED bound {bound:.3g})"


def _keys_held(base: Path, head: Path, name: str) -> set:
    """The keys of file name in either tree: JSON key paths or CSV columns."""
    held = set()
    for p in (base / name, head / name):
        try:
            held |= file_changes(p.read_bytes(), p.read_bytes(), name).keys()
        except (OSError, Unbounded):  # no such file, or a file without keys
            pass
    return held


def compare(base: Path, head: Path, moved=None, suggest=None) -> bool:
    """Print the comparison of the two trees; True when every difference is
    admitted by moved ({(file, key or None): bound}; None admits none and prints
    no verdicts).  suggest, a list, collects one MOVED line per moved key."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (base, head) for p in root.rglob("*") if p.is_file()})
    ok = True
    for name in names:
        a, b = base / name, head / name
        if a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes():
            _say(f"identical {name}")
            continue
        bound = (moved or {}).get((name, None))
        keyed = {k: v for (f, k), v in (moved or {}).items() if f == name and k is not None}
        detail = {}
        try:
            if not (a.is_file() and b.is_file()):
                raise Unbounded(f"only in {'base' if a.is_file() else 'head'}")
            detail = file_changes(a.read_bytes(), b.read_bytes(), name)
            largest = max((r for r, _, _ in detail.values()), default=0.0)
            what = f"largest relative change {largest:.3g}"
        except Unbounded as e:
            largest, what, keyed = math.inf, f"unbounded: {e}", {}
            if suggest is not None:
                suggest.append(f"MOVED: {name} <= inf ({what})")
        bounds = {key: keyed.get(key, bound) for key in detail}
        if keyed:  # each key against its own bound
            bad = sum(1 for key, (r, _, _) in detail.items()
                      if r > 0.0 and (bounds[key] is None or r > bounds[key]))
            verdict = (f" (FAIL: {bad} moved keys outside their MOVED bounds)" if bad
                       else " (within its MOVED bounds)")
        elif moved is None:
            bad, verdict = 0, ""
        else:
            bad, verdict = bound is None or largest > bound, _verdict(largest, bound)
        ok = ok and moved is not None and not bad
        _say(f"moved {name}: {what}{verdict}")
        for key, (r, x, y) in detail.items():
            if r > 0.0:
                _say(f"    {key} {r:.3g}{_verdict(r, bounds[key]) if keyed else ''}")
                if suggest is not None:
                    suggest.append(f"MOVED: {name}:{key} <= {10.0 * r:.2g} ({x!r} -> {y!r})")
    for name, key in sorted(k for k in (moved or {}) if k[1] is not None):
        if key not in _keys_held(base, head, name):
            ok = False
            _say(f"FAIL: MOVED line {name}:{key} names a key that no file holds")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="the base tree of recipe outputs")
    ap.add_argument("head", type=Path, help="the head tree of recipe outputs")
    ap.add_argument("--moved", type=Path,
                    help="a file of 'MOVED: <file> <= <bound>' and "
                         "'MOVED: <file>:<key> <= <bound>' lines")
    ap.add_argument("--suggest", action="store_true",
                    help="end with a key-level MOVED line per moved key, at 10x its change")
    args = ap.parse_args(argv)
    for d in (args.base, args.head):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    try:
        moved = read_moved(args.moved) if args.moved else None
    except ValueError as e:
        ap.error(str(e))
    suggest = [] if args.suggest else None
    ok = compare(args.base, args.head, moved, suggest)
    for line in suggest or ():
        _say(line)
    try:
        sys.stdout.flush()  # lines still buffered meet a closed pipe here
    except BrokenPipeError:
        _to_null()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
