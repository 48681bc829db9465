"""Experiment drivers behind the CLI subcommands.

Each run_* function takes a parsed ExperimentConfig and returns
(report_dict, series_list); the CLI serializes those to report.json, the
canonical time-series CSVs and summary.txt.  Refinement studies halve h and dt
jointly per level; all stability/decay thresholds come from the config's
study.* keys and land in the report as pass/fail entries, never as inputs to
the computation itself.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import ConfigError, ExperimentConfig, dump_config
from .datagen import (
    gaussian_bump,
    gaussian_pulse,
    kink_data,
    ramped_cosine,
    soliton_data,
    soliton_solution,
)
from .diagnostics import (
    RunningDiagnostics,
    TraceSeries,
    dissipation_audit,
    interpolation_check,
    stopping_time,
    trace_identity_residual,
    trace_integral,
)
from .discretization import Field, Grid1D, deriv_matrix, integrate
from .oracle import (
    PeriodicGrid,
    WindowProbe,
    decaying_hump,
    extract_halfline_data,
    wholeline_solve,
    wholeline_times,
)
from .solver import BoundaryData, SolverConfig, solve
from .weights import CutoffSpec, WeightSpec

SCHEMA = "kdvhl-report-v1"

SERIES_COLUMNS = (
    "t", "J1", "J2", "K1_chiprime", "K1_window",
    "trace2_acc", "trace3_acc", "residual_l1", "residual_l2",
)


def _report(cfg: ExperimentConfig, experiment: str, **body) -> dict:
    """A report.json dict: the schema, the experiment and the config echo, then body."""
    return {"schema": SCHEMA, "experiment": experiment, "config": dump_config(cfg), **body}


def weight_spec(cfg: ExperimentConfig) -> WeightSpec:
    return WeightSpec(cutoff=CutoffSpec(cfg.epsilon, cfg.b), v=cfg.v, x0=cfg.x0)


def refine(cfg: ExperimentConfig) -> ExperimentConfig:
    """One joint halving: h -> h/2 (n -> 2n-1) and dt -> dt/2."""
    return replace(cfg, n=2 * cfg.n - 1, dt=0.5 * cfg.dt)


def scenario(cfg: ExperimentConfig):
    """(grid, u0 field, boundary data, forcing or None, exact or None); with an exact
    solution (soliton, mms data) the auto boundary is f(t) = exact(0, t)."""
    grid = Grid1D(cfg.L, cfg.n)
    forcing = None
    exact = None
    if cfg.data_kind == "zero":
        u0 = Field(grid, np.zeros(grid.n), 0.0)
    elif cfg.data_kind == "bump":
        u0 = Field(grid, gaussian_bump(cfg.data_amplitude, cfg.data_center,
                                       cfg.data_width)(grid.nodes), 0.0)
    elif cfg.data_kind == "kink":
        base = None
        if cfg.data_base_amplitude != 0.0:
            base = gaussian_bump(cfg.data_base_amplitude, cfg.data_base_center,
                                 cfg.data_base_width)
        x1, env_lo, env_hi = cfg.kink_geometry()
        u0 = kink_data(cfg.data_m, x1, cfg.data_amplitude, env_lo, env_hi, grid, base)
    elif cfg.data_kind == "soliton":
        u0 = soliton_data(cfg.data_c, cfg.data_center, grid)
        exact = soliton_solution(cfg.data_c, cfg.data_center)
        exact_keys = ("data.c", "data.center")
    elif cfg.data_kind == "mms":
        exact, forcing = decaying_hump(cfg.data_amplitude, cfg.data_center, cfg.data_width)
        exact_keys = ("data.amplitude", "data.center", "data.width")
        u0 = Field(grid, exact(grid.nodes, 0.0), 0.0)

    # keys: what sets f, for BoundaryData.validate's refusals to name
    if cfg.boundary_kind == "auto" and exact is not None:
        f, keys = (lambda t: exact(0.0, t)), exact_keys
    elif cfg.boundary_kind in ("auto", "zero"):
        f, keys = BoundaryData.f, ()  # the default, f = 0
    elif cfg.boundary_kind == "gaussian-pulse":
        f = gaussian_pulse(cfg.boundary_A, cfg.boundary_t_c, cfg.boundary_w)
        keys = ("boundary.A", "boundary.t_c", "boundary.w")
    else:
        f = ramped_cosine(cfg.boundary_A, cfg.boundary_omega, cfg.boundary_ramp)
        keys = ("boundary.A", "boundary.omega", "boundary.ramp")
    bd = BoundaryData(f=f, keys=keys)
    return grid, u0, bd, forcing, exact


def solver_config(cfg: ExperimentConfig, forcing) -> SolverConfig:
    return SolverConfig(dt=cfg.dt, T=cfg.T, theta=cfg.theta, picard_max=cfg.picard_max,
                        picard_tol=cfg.picard_tol, nonlinear=cfg.nonlinear, forcing=forcing)


def _series_table(fin: dict) -> np.ndarray:
    n = len(fin["times"])
    cols = [fin["times"], fin["J1"], fin["J2"], fin["K1_chiprime"], fin["K1_window"],
            fin["trace2_acc"], fin["trace3_acc"]]
    for lv in (1, 2):
        if lv in fin["identity"]:
            cols.append(fin["identity"][lv]["residual"])
        else:
            cols.append(np.full(n, np.nan))
    return np.column_stack(cols)


def _study(cfg: ExperimentConfig, measure):
    """Run measure(c) -> (row, series table or None) on cfg.levels refinement levels.

    Starts from cfg and refines between levels; returns the rows, each headed by
    its level, n and dt, and the tables named series_level{lv}.
    """
    rows, series = [], []
    c = cfg
    for lv in range(cfg.levels):
        row, table = measure(c)
        rows.append({"level": lv, "n": c.n, "dt": c.dt, **row})
        if table is not None:
            series.append((f"series_level{lv}", table))
        c = refine(c)
    return rows, series


def _decay(rows, key) -> list:
    """Ratio of each level's value of key to the next level's (floored at 1e-300)."""
    return [rows[i][key] / max(rows[i + 1][key], 1e-300) for i in range(len(rows) - 1)]


def _last_variation(rows, key) -> float:
    """Relative change of key between the last two levels; 0 with one level."""
    if len(rows) < 2:
        return 0.0
    a, b = rows[-2][key], rows[-1][key]
    m = max(abs(a), abs(b))
    return 0.0 if m == 0.0 else abs(a - b) / m


def _plain_solve(c: ExperimentConfig, traced: bool = False):
    """Solve c's scenario with, if traced, a wall record; returns the trajectory, the
    exact solution and the record (or None)."""
    _, u0, bd, forcing, exact = scenario(c)
    traces = TraceSeries(bd, forcing) if traced else None
    traj = solve(u0, solver_config(c, forcing), bd, observers=[traces] if traced else ())
    return traj, exact, traces


def _exact_error(traj, exact):
    """Max and relative L2 error of the final state against the exact solution."""
    u_end = traj.final
    ref = exact(traj.grid.nodes, u_end.t)
    diff = u_end.values - ref
    ref_l2 = np.sqrt(integrate(ref**2, traj.grid))
    if ref_l2 == 0.0:
        raise ConfigError(f"the exact solution has zero L2 norm at t = {u_end.t:g} on "
                          f"n = {traj.grid.n}, so its relative error is undefined "
                          f"(data.amplitude or data.c too small)")
    return float(np.max(np.abs(diff))), float(np.sqrt(integrate(diff**2, traj.grid)) / ref_l2)


def _run_with_diagnostics(cfg: ExperimentConfig, stride=None):
    """Solve cfg's scenario under RunningDiagnostics, which, given a stride, records
    the interpolation terms of every stride-th state and the last; returns u0, the
    trajectory, finish()'s dict, the weight spec and exact (or None)."""
    grid, u0, bd, forcing, exact = scenario(cfg)
    ws = weight_spec(cfg)
    scfg = solver_config(cfg, forcing)
    rd = RunningDiagnostics(grid, bd, ws, identity_levels=cfg.identity_levels, R=cfg.R,
                            forcing=forcing, nstates=scfg.nsteps + 1, stride=stride)
    traj = solve(u0, scfg, bd, observers=[rd])
    return u0, traj, rd.finish(), ws, exact


def _sup_before(times, vals, tstar) -> float:
    m = times <= tstar + 1e-12
    return float(np.max(vals[m])) if np.any(m) else 0.0


def run_simulate(cfg: ExperimentConfig):
    _, traj, fin, ws, exact = _run_with_diagnostics(cfg, cfg.snapshot_stride)
    times = fin["times"]
    tstars = {j: stopping_time(cfg.T, ws, j) for j in range(1, cfg.l + 1)}
    traces = fin["traces"]
    report = _report(
        cfg, "simulate",
        stopping_times={str(j): tstars[j] for j in tstars},
        functionals={
            "sup_J1": _sup_before(times, fin["J1"], tstars.get(1, cfg.T)),
            "sup_J2": _sup_before(times, fin["J2"], tstars.get(2, cfg.T)),
            "K1_chiprime_final": float(fin["K1_chiprime"][-1]),
            "K1_window_final": float(fin["K1_window"][-1]),
            "kato": {str(j): {"value": v, "x": xx} for j, (v, xx) in fin["kato"].items()},
            "strichartz": fin["strichartz"],
            "maximal": fin["maximal"],
        },
        traces={
            "window_integral_d2": trace_integral(traces, 2, ws, j=cfg.trace_branch),
            "window_integral_d3": trace_integral(traces, 3, ws, j=cfg.trace_branch),
            "accumulated_d2": float(fin["trace2_acc"][-1]),
            "accumulated_d3": float(fin["trace3_acc"][-1]),
            "identity_rms": trace_identity_residual(traces),
        },
        interpolation=interpolation_check(fin["interpolation"]),
        identity={},
        flags={"picard_max_update": float(np.max(traj.picard_updates)),
               "picard_max_distance": float(np.max(traj.picard_distances)),
               "picard_capped_steps": int(np.sum(~traj.picard_converged)),
               "picard_mean_sweeps": float(np.mean(traj.picard_sweeps[1:]))},
    )
    if fin["identity"]:
        supcp = ws.sup_chi_prime
        # the Young-split parameter, report-only: the default keeps the split's leading
        # coefficient 0.5 - delta * supcp**2 positive
        delta = cfg.delta if cfg.delta is not None else 0.05 / supcp**2
        young = {"delta": delta, "sup_chi_prime": supcp,
                 "coefficient_check": 0.5 - delta * supcp**2}
        report["identity"] = {str(lv): {
            "normalized_residual": br["normalized"],
            "scale": br["scale"],
            "young": young,
            "term_integrals": br["term_integrals"],
        } for lv, br in fin["identity"].items()}
    if cfg.boundary_kind == "zero" and cfg.data_kind != "mms":
        report["dissipation"] = dissipation_audit(fin)
    if exact is not None:
        err_max, err_l2 = _exact_error(traj, exact)
        report["exact_error"] = {"max": err_max, "l2_rel": err_l2}
    return report, [("series", _series_table(fin))]


def run_converge(cfg: ExperimentConfig):
    if cfg.data_kind not in ("mms", "soliton"):
        raise ConfigError("convergence study needs data.kind = mms or soliton")

    def measure(c):
        err_max, err_l2 = _exact_error(*_plain_solve(c)[:2])
        return {"err_max": err_max, "err_l2_rel": err_l2}, None

    rows, series = _study(cfg, measure)
    orders_max = [float(np.log2(r)) for r in _decay(rows, "err_max")]
    orders_l2 = [float(np.log2(r)) for r in _decay(rows, "err_l2_rel")]
    report = _report(
        cfg, "converge",
        levels=rows,
        observed_order_max=orders_max,
        observed_order_l2=orders_l2,
        passes={
            "order": bool(orders_max and orders_max[-1] >= cfg.order_tol),
            "order_l2": bool(orders_l2 and orders_l2[-1] >= cfg.order_tol),
        },
    )
    return report, series


def run_propagation(cfg: ExperimentConfig):
    def measure(c):
        u0, _, fin, ws, _ = _run_with_diagnostics(c, max(1, solver_config(c, None).nsteps // 40))
        times = fin["times"]
        t1 = stopping_time(c.T, ws, 1)
        t2 = stopping_time(c.T, ws, 2)
        rough = integrate((deriv_matrix(u0.grid, 2) @ u0.values) ** 2, u0.grid)
        row = {
            "sup_J1": _sup_before(times, fin["J1"], t1),
            "sup_J2": _sup_before(times, fin["J2"], t2),
            "K1_chiprime": float(fin["K1_chiprime"][-1]),
            "K1_window": float(fin["K1_window"][-1]),
            "rough_global": float(rough),
            "interp_max_ratio": interpolation_check(fin["interpolation"])["max_ratio"],
            "T_star_1": t1, "T_star_2": t2,
        }
        return row, _series_table(fin)

    rows, series = _study(cfg, measure)
    growth = [rows[i + 1]["rough_global"] / rows[i]["rough_global"]
              for i in range(len(rows) - 1)]
    var = {key: _last_variation(rows, key)
           for key in ("sup_J2", "K1_chiprime", "K1_window", "interp_max_ratio")}
    report = _report(
        cfg, "propagation",
        levels=rows,
        rough_growth=growth,
        variation=var,
        passes={
            "sup_J2_stable": bool(var["sup_J2"] <= cfg.stability_tol),
            "K1_chiprime_stable": bool(var["K1_chiprime"] <= cfg.stability_tol),
            "K1_window_stable": bool(var["K1_window"] <= cfg.stability_tol),
            "rough_diverges": bool(growth and min(growth) >= cfg.rough_growth),
            "interp_stable": bool(var["interp_max_ratio"] <= cfg.interp_tol),
        },
    )
    return report, series


def run_traces(cfg: ExperimentConfig):
    def measure(c):
        traces = _plain_solve(c, traced=True)[2]
        ti = trace_integral(traces, 2, weight_spec(c), j=c.trace_branch)
        return {"window_integral_d2": ti["value"], "window": [ti["t_start"], ti["t_end"]],
                "empty_window": ti["empty"],
                "identity_rms": trace_identity_residual(traces)}, None

    rows, _ = _study(cfg, measure)
    rms_ratios = _decay(rows, "identity_rms")
    var = 0.0 if rows[-1]["empty_window"] else _last_variation(rows, "window_integral_d2")
    report = _report(
        cfg, "traces",
        levels=rows,
        rms_decay=rms_ratios,
        variation_window_integral=var,
        passes={
            "rms_decays": bool(rms_ratios and min(rms_ratios) >= cfg.residual_decay),
            "window_integral_stable": bool(var <= cfg.stability_tol),
        },
    )
    return report, []


def run_identity(cfg: ExperimentConfig):
    if not cfg.identity_levels:
        raise ConfigError("identity study needs diagnostics.identity_levels (e.g. 1,2)")

    def measure(c):
        fin = _run_with_diagnostics(c)[2]
        row = {}
        for ilv, br in fin["identity"].items():
            row[f"normalized_l{ilv}"] = br["normalized"]
            row[f"scale_l{ilv}"] = br["scale"]
        return row, _series_table(fin)

    rows, series = _study(cfg, measure)
    decay = {str(ilv): _decay(rows, f"normalized_l{ilv}") for ilv in cfg.identity_levels}
    report = _report(
        cfg, "identity",
        levels=rows,
        residual_decay=decay,
        passes={
            str(ilv): bool(decay[str(ilv)] and min(decay[str(ilv)]) >= cfg.residual_decay)
            for ilv in cfg.identity_levels
        },
    )
    return report, series


def _oracle_reference(cfg: ExperimentConfig, grid: Grid1D, sample_times):
    """Start the whole-line march, probed on grid's window at sample_times, in a worker
    beside the caller: its WholelineTrajectory, which the caller reads and closes."""
    per = PeriodicGrid(cfg.oracle_P, cfg.oracle_m, cfg.oracle_x_left)
    if cfg.oracle_kind == "soliton":
        u0w = soliton_solution(cfg.oracle_c, cfg.oracle_center)(per.nodes, 0.0)
    else:  # "bump", the one other kind config allows
        u0w = gaussian_bump(cfg.oracle_amplitude, cfg.oracle_center,
                            cfg.oracle_width)(per.nodes)
    wtimes = wholeline_times(u0w, per, cfg.T, cfg.oracle_cfl)
    if len(wtimes) < 4:
        raise ConfigError(f"key 'oracle.cfl' = {cfg.oracle_cfl} gives {len(wtimes) - 1} "
                          f"whole-line steps over time.T = {cfg.T}; the cubic interpolation "
                          f"in time needs at least 3")
    probe = WindowProbe(per, cfg.oracle_x_star, grid, wtimes, sample_times)
    return wholeline_solve(u0w, probe)


def run_oracle_compare(cfg: ExperimentConfig):
    grid = Grid1D(cfg.L, cfg.n)
    # the half-line steps compared, at their pinned clocks k*dt
    times = np.round(np.linspace(0.0, cfg.T, cfg.oracle_samples) / cfg.dt) * cfg.dt
    # the sampled states, found by their clocks, wait for the march's end
    kept = dict.fromkeys(times.tolist())

    def keep(state):
        if state.t in kept:
            kept[state.t] = state.values.copy()

    with _oracle_reference(cfg, grid, times) as traj:
        u0, bd = traj.halfline_data()
        solve(u0, solver_config(cfg, None), bd, observers=[keep])
        restr = extract_halfline_data(traj)

    rows = [{"t": float(t), "diff_l2": float(np.sqrt(integrate((kept[t] - ref) ** 2, grid))),
             "restriction_l2": float(np.sqrt(integrate(ref**2, grid)))}
            for t, ref in zip(times, restr)]
    scale = max(r["restriction_l2"] for r in rows)
    for r in rows:
        r["rel"] = r["diff_l2"] / scale if scale > 0 else 0.0
    max_rel = max(r["rel"] for r in rows)
    report = _report(cfg, "oracle-compare", samples=rows, normalization=scale,
                     max_rel_discrepancy=max_rel,
                     passes={"equivalence": bool(max_rel <= cfg.oracle_tol)})
    return report, []
