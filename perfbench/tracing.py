"""Span recording around the kdvhl layers, from outside the package.

`install` rebinds the names that callers inside kdvhl look up at call time
(module globals such as ``kdvhl.experiments.solve``, class attributes such as
``RunningDiagnostics.__call__``) to thin wrappers that record one span per
call.  Spans stay in memory as ``(run_id, id, parent, name, start_ns, end_ns)``
and are written out when the run ends; `layer_metrics` derives every per-layer
figure from them.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

ROOT_PARENT = -1


class Tracer:
    """In-memory span recorder with a parent stack (single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._stack = [ROOT_PARENT]
        self._next = 0

    def wrap(self, fn, name, on_result=None):
        """Wrap fn so each call records a span.

        name is a span name or a callable(result) -> name, for spans whose
        kind is known only once the call returns.  on_result(result, args) may
        add counts.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
            label = name(result) if callable(name) else name
            tracer.spans.append((tracer.run_id, sid, parent, label, start, end))
            if on_result is not None:
                on_result(result, args)
            return result

        return traced


class _TracedLU:
    """SuperLU stand-in whose solve() records a span; the rest delegates."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def install(tracer: Tracer) -> None:
    """Rebind the looked-up names of every kdvhl layer to traced wrappers."""
    from kdvhl import cli, diagnostics, discretization, experiments, solver

    wrap = tracer.wrap
    cli.resolve_config = wrap(cli.resolve_config, "config.resolve")

    def count_written(_, args):
        tracer.counts["cli.bytes_written"] += _dir_bytes(args[2])

    cli._write_outputs = wrap(cli._write_outputs, "cli.write", count_written)
    for key, runner in cli._RUNNERS.items():
        cli._RUNNERS[key] = wrap(runner, "experiments.run")

    experiments.scenario = wrap(experiments.scenario, "datagen.scenario")
    experiments.solve = wrap(experiments.solve, "solver.solve")
    for post in ("trace_integral", "trace_identity_residual", "interpolation_check",
                 "dissipation_audit", "stopping_time"):
        setattr(experiments, post, wrap(getattr(experiments, post), "diagnostics.post"))

    def count_march(traj, _):
        tracer.counts["oracle.march_steps"] += len(traj.times) - 1

    experiments.wholeline_solve = wrap(experiments.wholeline_solve, "oracle.march",
                                       count_march)
    experiments.extract_halfline_data = wrap(experiments.extract_halfline_data,
                                             "oracle.restrict")

    rd = diagnostics.RunningDiagnostics
    rd.__call__ = wrap(rd.__call__, "diagnostics.observe")
    rd.finish = wrap(rd.finish, "diagnostics.post")
    diagnostics.moving_weight = wrap(diagnostics.moving_weight, "weights.eval")
    diagnostics.chi = wrap(diagnostics.chi, "weights.eval")

    solver._advance = wrap(solver._advance, "solver.step")
    splu = solver.splu

    def traced_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        return _TracedLU(lu, wrap(lu.solve, "solver.lu_solve"))

    solver.splu = wrap(traced_splu, "solver.factorize")

    cached = discretization._deriv_matrix_cached
    misses = cached.cache_info().misses

    def assembly_kind(_):
        # the lru_cache miss count rises exactly when this call built a matrix
        nonlocal misses
        before, misses = misses, cached.cache_info().misses
        return "discretization.assemble" if misses != before else "discretization.lookup"

    discretization._deriv_matrix_cached = wrap(cached, assembly_kind)


def layer_metrics(spans, counts) -> dict:
    """Per-layer figures from one run's spans: totals, self times, counts.

    A span's self time is its duration minus the durations of its direct
    children; spans nest on one thread, so children never overlap.
    """
    total = defaultdict(int)
    calls = Counter()
    names = {}
    for _, sid, _, name, start, end in spans:
        total[name] += end - start
        calls[name] += 1
        names[sid] = name
    own = self_times(spans)
    evals_in_observe = sum(
        1 for _, _, parent, name, _, _ in spans
        if name == "weights.eval" and names.get(parent) == "diagnostics.observe"
    )

    def s(ns):
        return ns * 1e-9

    steps = calls["solver.step"]
    observes = calls["diagnostics.observe"]
    return {
        "config.resolve_s": s(total["config.resolve"]),
        "datagen.scenario_s": s(total["datagen.scenario"]),
        "discretization.assembly_s": s(total["discretization.assemble"]),
        "discretization.assembly_calls":
            calls["discretization.assemble"] + calls["discretization.lookup"],
        "discretization.operators_built": calls["discretization.assemble"],
        "solver.factorize_s": s(total["solver.factorize"]),
        "solver.step_s": own.get("solver.step", 0.0),
        "solver.steps": steps,
        "solver.lu_solves": calls["solver.lu_solve"],
        "solver.lu_solve_s": s(total["solver.lu_solve"]),
        "solver.sweeps_per_step": calls["solver.lu_solve"] / steps if steps else 0.0,
        "solver.solve_self_s": own.get("solver.solve", 0.0),
        "diagnostics.observe_s": s(total["diagnostics.observe"]),
        "diagnostics.observe_calls": observes,
        "diagnostics.observe_us_per_call":
            1e6 * s(total["diagnostics.observe"]) / observes if observes else 0.0,
        "diagnostics.post_s": s(total["diagnostics.post"]),
        "weights.evals": calls["weights.eval"],
        "weights.eval_s": s(total["weights.eval"]),
        "weights.evals_per_observe": evals_in_observe / observes if observes else 0.0,
        "oracle.march_s": s(total["oracle.march"]),
        "oracle.march_steps": counts.get("oracle.march_steps", 0),
        "oracle.restrict_s": s(total["oracle.restrict"]),
        "experiments.self_s": own.get("experiments.run", 0.0),
        "cli.write_s": s(total["cli.write"]),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
    }


def self_times(spans) -> dict:
    """Self time in seconds of every span name."""
    child_ns = defaultdict(int)
    for _, _, parent, _, start, end in spans:
        child_ns[parent] += end - start
    out = defaultdict(float)
    for _, sid, _, name, start, end in spans:
        out[name] += (end - start - child_ns[sid]) * 1e-9
    return dict(out)
