"""Benchmark workloads and the seeded config generator.

Each workload is one bundled recipe run through its CLI experiment.  Seed 0
is the recipe text byte for byte.  Any other seed moves one data-placement key
(a centre) inside a fixed range and leaves every other line alone, so grid
sizes, step counts and thresholds are the recipe's own.

Each range follows from the recipe's data, not from which seeds pass.  The
bump recipes need u0(0) below the solver's 1e-10 corner tolerance, which a
Gaussian of width w centred at c meets only while c >= 5 w, so those ranges
start at the recipe's centre and move the bump inward; the soliton moves away
from the inflow boundary, where its truncated tail would exceed 1e-10.  The
accuracy figure varies smoothly but steeply with placement (about 9 % over a
quarter unit on `energy`), so ranges are narrow enough that `error` stays
within a few percent across seeds.

The pass/fail gate applies the thresholds of ``tests/test_acceptance.py``
unchanged; ``error`` is the accuracy figure a user reads off ``report.json``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable

def _transport_error(report: dict) -> float:
    return report["levels"][-1]["err_l2_rel"]


def _transport_check(report: dict) -> list[str]:
    # test_03_soliton_transport
    out = []
    shape = report["levels"][0]["err_l2_rel"]
    orders = report["observed_order_l2"]
    if not shape <= 2e-2:
        out.append(f"coarse shape error {shape:.3e} > 2e-2")
    if not (orders and min(orders) >= 1.9):
        out.append(f"L2 orders {orders} not all >= 1.9")
    return out


def _energy_error(report: dict) -> float:
    finest = report["levels"][-1]
    return max(finest["normalized_l1"], finest["normalized_l2"])


def _energy_check(report: dict) -> list[str]:
    # test_07_energy_identity_residuals, interior (identity_l2) part
    out = []
    for lv in ("1", "2"):
        decay = report["residual_decay"][lv]
        if not (decay and min(decay) >= 2.5):
            out.append(f"l={lv} residual decay {decay} not all >= 2.5")
    return out


def _drain_error(report: dict) -> float:
    return report["dissipation"]["relative"]


def _drain_check(report: dict) -> list[str]:
    # test_04_boundary_dissipation_law
    rel = report["dissipation"]["relative"]
    return [] if rel <= 1e-3 else [f"dissipation relative {rel:.3e} > 1e-3"]


def _crossval_error(report: dict) -> float:
    return report["max_rel_discrepancy"]


def _crossval_check(report: dict) -> list[str]:
    # test_05_oracle_equivalence
    worst = report["max_rel_discrepancy"]
    return [] if worst <= 1e-2 else [f"oracle discrepancy {worst:.3e} > 1e-2"]


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: str
    experiment: str
    key: str            # the one config key a nonzero seed moves
    lo: float           # range of that key for nonzero seeds
    hi: float
    cap_s: float        # runtime cap the acceptance test puts on this run
    error: Callable[[dict], float]
    check: Callable[[dict], list]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("transport", "soliton", "converge", "data.center", 25.0, 26.0, 120.0,
                 _transport_error, _transport_check),
        Workload("energy", "identity_l2", "identity", "data.center", 10.0, 10.1, 300.0,
                 _energy_error, _energy_check),
        Workload("drain", "dissipation", "simulate", "data.center", 3.0, 3.15, 60.0,
                 _drain_error, _drain_check),
        Workload("crossval", "oracle", "oracle-compare", "oracle.center", 11.5, 12.5, 180.0,
                 _crossval_error, _crossval_check),
    )
}


def set_key(text: str, key: str, value: str) -> str:
    """Replace the value of one `key = value` line, keeping everything else."""
    pat = re.compile(rf"^(\s*{re.escape(key)}\s*=\s*)([^#\n]*?)(\s*(#.*)?)$", re.M)
    new, count = pat.subn(lambda m: m.group(1) + value + m.group(3), text)
    if count != 1:
        raise ValueError(f"expected one {key!r} line in the recipe, found {count}")
    return new


def make_config(workload: Workload, seed: int, recipe_text: str) -> str:
    """Config text for one seed; seed 0 returns the recipe unchanged."""
    if seed == 0:
        return recipe_text
    # str seeds hash through sha512, so the draw is the same in every process
    rng = random.Random(f"{workload.name}/{seed}")
    value = round(rng.uniform(workload.lo, workload.hi), 3)
    return set_key(recipe_text, workload.key, repr(value))


def level_grid(text: str) -> list[tuple[int, int]]:
    """(n, steps) of every half-line solve the experiment runs.

    The text goes through kdvhl's own parser.  Refinement studies halve h and
    dt jointly per level (n -> 2n-1); other experiments solve once.
    """
    from kdvhl.cli import _LEVELED
    from kdvhl.config import parse_config

    cfg = parse_config(text)
    n, dt = cfg.n, cfg.dt
    out = []
    for _ in range(cfg.levels if cfg.experiment in _LEVELED else 1):
        out.append((n, int(round(cfg.T / dt))))
        n, dt = 2 * n - 1, 0.5 * dt
    return out
