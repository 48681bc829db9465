"""Traced-run schema: spans, derived self times and counts, metric names."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest
from conftest import BENCH
from tracing import layer_metrics, self_times
from workloads import level_grid

SRC = BENCH.parent / "src"

IDENTITY_CFG = """experiment = identity
grid.L = 30.0
grid.n = 151
time.dt = 0.05
time.T = 0.5
weight.x0 = 6.0
data.kind = bump
data.center = 10.0
data.width = 2.0
boundary.kind = zero
diagnostics.identity_levels = 1, 2
study.levels = 2
"""

ORACLE_CFG = """experiment = oracle-compare
grid.L = 40.0
grid.n = 201
time.dt = 0.05
time.T = 1.0
oracle.m = 512
oracle.cfl = 0.1
oracle.samples = 3
oracle.tol = 1.0
"""


def run_child(tmp_path, name, cfg_text, traced):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(cfg_text)
    res = tmp_path / f"{name}-{traced}.json"
    out = tmp_path / f"{name}-{traced}-out"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    experiment = cfg_text.split("\n", 1)[0].split("=")[1].strip()
    cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(res),
           "--run-id", f"{name}-{traced}"] + ["--trace"] * traced
    cmd += ["--", experiment, "--config", str(cfg), "--out", str(out), "--quiet"]
    subprocess.run(cmd, env=env, check=True, timeout=120)
    child = json.loads(res.read_text())
    digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    shutil.rmtree(out)
    return child, digest


@pytest.fixture(scope="module", params=[("identity", IDENTITY_CFG), ("oracle", ORACLE_CFG)],
                ids=["identity", "oracle"])
def traced_run(request, tmp_path_factory):
    name, text = request.param
    tmp = tmp_path_factory.mktemp(name)
    child, digest = run_child(tmp, name, text, traced=True)
    _, plain_digest = run_child(tmp, name, text, traced=False)
    return name, text, child, digest, plain_digest


def test_span_schema_and_times(traced_run):
    name, _, child, _, _ = traced_run
    spans = child["spans"]
    assert spans and child["rc"] == 0
    ids = {s[1] for s in spans}
    assert len(ids) == len(spans)
    for run_id, sid, parent, label, start, end in spans:
        assert run_id == f"{name}-True"
        assert isinstance(label, str) and "." in label
        assert parent == -1 or parent in ids
        assert end >= start >= 0
    assert all(v >= 0.0 for v in self_times(spans).values())


def test_self_times_fit_inside_the_run(traced_run):
    _, _, child, _, _ = traced_run
    own = self_times(child["spans"])
    wall = child["marks"]["done"] - child["marks"]["resolved"]
    # config resolution precedes the timed window; everything else is inside it
    assert sum(v for k, v in own.items() if k != "config.resolve") <= wall


def test_counts_match_the_config(traced_run):
    name, text, child, _, _ = traced_run
    m = layer_metrics(child["spans"], child["counts"])
    assert all(v >= 0 for v in m.values())
    assert m["solver.steps"] == sum(steps for _, steps in level_grid(text))
    assert m["solver.lu_solves"] >= m["solver.steps"]
    assert m["discretization.operators_built"] >= 1
    assert m["cli.bytes_written"] > 0
    if name == "identity":
        # one observer call per state, initial state included, on each level
        assert m["diagnostics.observe_calls"] == m["solver.steps"] + 2
        assert m["weights.evals_per_observe"] > 0
        assert m["oracle.march_steps"] == 0
    else:
        assert m["diagnostics.observe_calls"] == 0
        assert m["oracle.march_steps"] > 0 and m["oracle.march_s"] > 0


def test_tracing_leaves_the_report_unchanged(traced_run):
    _, _, _, digest, plain_digest = traced_run
    assert digest == plain_digest


def test_layer_metrics_from_hand_built_spans():
    spans = [
        ("r", 2, 1, "solver.lu_solve", 10, 30),
        ("r", 3, 1, "solver.lu_solve", 40, 50),
        ("r", 1, 0, "solver.step", 5, 60),
        ("r", 4, 0, "discretization.assemble", 60, 70),
        ("r", 0, -1, "solver.solve", 0, 100),
    ]
    m = layer_metrics(spans, {})
    assert m["solver.steps"] == 1 and m["solver.lu_solves"] == 2
    assert m["solver.sweeps_per_step"] == 2.0
    assert m["solver.step_s"] == pytest.approx(25e-9)
    assert m["solver.lu_solve_s"] == pytest.approx(30e-9)
    assert m["solver.solve_self_s"] == pytest.approx(35e-9)
    assert sum(self_times(spans).values()) == pytest.approx(100e-9)


def test_benchmark_json_names_every_metric():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer_names = set(layer_metrics([], {})) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    for m in spec["per_layer"]:
        if m["name"] != "trace.overhead_frac":
            assert m["unit"] == run.unit_of(m["name"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "energy",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
