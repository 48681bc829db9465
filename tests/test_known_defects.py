"""The ledger of known defects: each test asserts the correct behaviour and is a
strict xfail while the defect stands.

A change that mends a defect sees its test XPASS, which strict mode turns into a
failure; it then drops the marker, so the test guards the fix.  A ledger test is
never deleted and its assertion is never loosened.
"""

from dataclasses import replace

import numpy as np
import pytest

from kdvhl.cli import available_recipes, resolve_config
from kdvhl.config import parse_config
from kdvhl.discretization import Grid1D
from kdvhl.experiments import (_oracle_reference, run_identity, run_oracle_compare,
                               run_simulate, scenario, solver_config)
from kdvhl.solver import solve
from kdvhl.weights import CutoffSpec, chi


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="weights.chi: the Hermite table undershoots past eps "
                          "(min step -1.1e-11 at b - eps = 20.2)")
def test_chi_is_nondecreasing_past_eps():
    # the first 8 of the 4096 table panels past eps, where chi' grows by orders
    # of magnitude across one panel, sampled 1000 points to a panel
    c = CutoffSpec(0.4, 20.6)
    panel = (c.b - c.epsilon) / 4096
    x = np.linspace(c.epsilon, c.epsilon + 8 * panel, 8001)
    assert np.min(np.diff(chi(c, x))) >= -1e-15


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 14: oracle-compare passes a first-order "
                          "scheme (equivalence true at 4.51e-3)")
def test_oracle_compare_fails_the_backward_euler_scheme():
    # theta = 1 (backward Euler) is first order in time, so the equivalence
    # check should refuse it; its discrepancy sits under the 1e-2 tolerance
    report, _ = run_oracle_compare(replace(resolve_config("oracle"), theta=1.0))
    assert not all(report["passes"].values())


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: start-up steps end at picard_max = 4 unconverged "
                          "(58 of the first 20 steps at level 0, all among steps 1-17)")
def test_no_picard_step_caps_in_the_first_20_steps_at_level_0():
    # each recipe's own level-0 grid, data and Picard settings, marched 20 steps;
    # the oracle recipe's half-line solve takes its data from the whole-line march
    capped = {}
    for name in available_recipes():
        cfg = resolve_config(name)
        cfg = replace(cfg, T=20 * cfg.dt)
        if cfg.experiment == "oracle-compare":
            (u0, bd, _), forcing = _oracle_reference(cfg, Grid1D(cfg.L, cfg.n), ()), None
        else:
            _, u0, bd, forcing, _ = scenario(cfg)
        traj = solve(u0, solver_config(cfg, forcing), bd)
        capped[name] = int(np.sum(~traj.picard_converged))
    assert capped == dict.fromkeys(capped, 0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: simulate on l2_stopped reports no passes block, "
                          "while its dissipation.relative reads 94.5")
def test_simulate_flags_the_unresolved_drain_law_on_l2_stopped():
    # the m = 2 kink at x = 1 puts grid-scale content at the wall at once: the predicted
    # drain -1/2 int u_x(0,t)^2 dt misses the energy change by 95 times it, and a run
    # that cannot check its law should say so in a false passes entry
    report, _ = run_simulate(resolve_config("l2_stopped"))
    assert False in report.get("passes", {}).values()


# ROADMAP item 7's configuration: a manufactured solution at the wall under a cutoff whose
# front crosses x = 0, so every wall term of both identities is material
_IDENTITY_WALL = """
experiment = identity
grid.L = 30.0
grid.n = 601
time.dt = 0.0125
time.T = 1.5
weight.epsilon = 0.3
weight.b = 1.5
weight.v = 2.0
weight.x0 = 0.5
data.kind = mms
data.center = 1.0
data.width = 1.0
boundary.kind = auto
diagnostics.identity_levels = 1, 2
study.levels = 3
"""


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: with its wall terms live the l = 2 identity "
                          "residual decays 1.28, 1.60 per level (the 6-node u_xxxx probe)")
def test_identity_wall_residual_decays_at_both_levels():
    # the l = 1 residual decays 4.05 and 4.02 per level here; the l = 2 one should too
    report, _ = run_identity(parse_config(_IDENTITY_WALL))
    assert min(report["residual_decay"]["2"]) >= 2.5
