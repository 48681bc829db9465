"""Command line front end.

    kdvhl <experiment> --config <path-or-recipe> [--out DIR] [--levels N] [--quiet]

The config's `experiment` key must name the same experiment as the subcommand.
Writes report.json, summary.txt and one CSV per recorded time series into the
output directory.  Exit codes: 0 success, 2 configuration problem, 3 solver
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import experiments
from .config import ConfigError, load_config, parse_config
from .solver import SolverError

_RUNNERS = {
    "simulate": experiments.run_simulate,
    "converge": experiments.run_converge,
    "propagation": experiments.run_propagation,
    "traces": experiments.run_traces,
    "identity": experiments.run_identity,
    "oracle-compare": experiments.run_oracle_compare,
}

_LEVELED = {"converge", "propagation", "traces", "identity"}


def available_recipes() -> list[str]:
    root = resources.files("kdvhl.recipes")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def resolve_config(spec: str):
    p = Path(spec)
    if p.exists() and not p.is_dir():  # a pipe such as <(...) is read as a file too
        return load_config(p)
    name = spec[:-4] if spec.endswith(".cfg") else spec
    if "/" not in spec and "\\" not in spec:
        root = resources.files("kdvhl.recipes")
        cand = root / f"{name}.cfg"
        if cand.is_file():
            return parse_config(cand.read_text())
    raise ConfigError(
        f"config {spec!r} is neither a file nor a bundled recipe; "
        f"recipes: {', '.join(available_recipes())}"
    )


def _plain(obj):
    """json's fallback for numpy values: an array as a list, a numpy scalar as its
    Python value (np.float64 subclasses float, so json writes it as float.__repr__)."""
    return obj.tolist() if isinstance(obj, np.ndarray) else obj.item()


def _write_outputs(report: dict, series, out: Path, quiet: bool) -> None:
    out.mkdir(parents=True, exist_ok=True)
    rp = out / "report.json"
    rp.write_text(json.dumps(report, indent=2, sort_keys=True, default=_plain) + "\n")
    header = ",".join(experiments.SERIES_COLUMNS)
    for name, table in series:
        np.savetxt(out / f"{name}.csv", table, fmt="%.17g", delimiter=",",
                   header=header, comments="")
    lines = [f"experiment: {report['experiment']}"]
    for key, val in sorted(report.get("passes", {}).items()):
        lines.append(f"{'PASS' if val else 'FAIL'}  {key}")
    if "passes" not in report:
        lines.append("(no pass/fail checks for this experiment)")
    summary = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(summary)
    if not quiet:
        sys.stdout.write(summary)
        sys.stdout.write(f"wrote {rp}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kdvhl",
        description="Weighted-energy laboratory for the half-line KdV boundary problem.",
    )
    sub = ap.add_subparsers(dest="experiment", required=True)
    for name in _RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True,
                        help="config file path or bundled recipe name")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--quiet", action="store_true")
        if name in _LEVELED:
            sp.add_argument("--levels", type=int, default=None,
                            help="override study.levels from the config")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config)
        if cfg.experiment != args.experiment:
            raise ConfigError(f"key 'experiment' is {cfg.experiment!r} but the subcommand "
                              f"is {args.experiment!r}")
        if args.experiment in _LEVELED and args.levels is not None:
            if args.levels < 1:
                raise ConfigError(f"--levels must be at least 1, got {args.levels}")
            cfg = replace(cfg, levels=args.levels)
        report, series = _RUNNERS[args.experiment](cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except MemoryError as exc:  # numpy refuses an allocation larger than the host offers
        sys.stderr.write(f"config error: the run does not fit in memory: {exc}\n")
        return 2
    except SolverError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return 3
    try:
        _write_outputs(report, series, Path(args.out), args.quiet)
    except OSError as exc:
        sys.stderr.write(f"config error: --out {args.out} cannot hold the outputs: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
