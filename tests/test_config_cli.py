"""Config parsing, recipe resolution, CLI exit codes and artifacts."""

import json
import warnings
from importlib import resources

import numpy as np
import pytest

from kdvhl.cli import available_recipes, main, resolve_config
from kdvhl.config import (_KEYMAP, ConfigError, ExperimentConfig, dump_config, load_config,
                          parse_config)

MINI_SIMULATE = """
experiment = simulate
grid.L = 16.0
grid.n = 161
time.dt = 0.02
time.T = 0.2
weight.epsilon = 0.4
weight.b = 2.0
weight.v = 1.0
weight.x0 = 4.0
data.kind = bump
data.amplitude = 0.5
data.center = 6.0
data.width = 1.0
boundary.kind = zero
diagnostics.identity_levels = 1,2
"""


def test_defaults_round_trip():
    cfg = parse_config("")
    d = dump_config(cfg)
    assert d["experiment"] == "simulate"
    assert d["grid.n"] == 801
    assert d["diagnostics.identity_levels"] == []


def _as_text(cfg):
    lines = []
    for key, val in dump_config(cfg).items():
        if val is None:  # an unset optional key keeps its default
            continue
        if isinstance(val, list):
            val = ",".join(str(v) for v in val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["defaults"] + available_recipes())
def test_dump_parse_round_trip(name):
    cfg = ExperimentConfig() if name == "defaults" else resolve_config(name)
    assert parse_config(_as_text(cfg)) == cfg


def test_accepted_keys_are_the_dumped_keys():
    dumped = dump_config(ExperimentConfig())
    assert len(dumped) == 55
    assert set(_KEYMAP) == set(dumped)


def test_parse_values_and_comments():
    cfg = parse_config(MINI_SIMULATE + "\n# trailing comment\n")
    assert cfg.n == 161
    assert cfg.identity_levels == (1, 2)
    assert cfg.data_kind == "bump"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="grid.m"):
        parse_config("grid.m = 100")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("grid.n = 101\ngrid.n = 201")


def test_malformed_value_rejected():
    with pytest.raises(ConfigError, match="grid.n"):
        parse_config("grid.n = many")
    with pytest.raises(ConfigError, match="expected"):
        parse_config("grid.n 101")


def test_semantic_validation():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("experiment = explode")
    with pytest.raises(ConfigError, match="data.kind"):
        parse_config("data.kind = noise")
    with pytest.raises(ConfigError, match="boundary.kind"):
        parse_config("boundary.kind = open")
    with pytest.raises(ConfigError, match="5"):
        parse_config("weight.epsilon = 1.0\nweight.b = 2.0")
    with pytest.raises(ConfigError, match="grid.n"):
        parse_config("grid.n = 4")
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_config("weight.v = -1.0")
    with pytest.raises(ConfigError, match="trace_branch"):
        parse_config("diagnostics.trace_branch = 5")
    with pytest.raises(ConfigError, match="time.theta"):
        parse_config("time.theta = 2")
    with pytest.raises(ConfigError, match="time.T"):
        parse_config("time.dt = 0.3\ntime.T = 1.0")
    with pytest.raises(ConfigError, match="grid.L"):
        parse_config("grid.L = nan")


def test_bool_and_intlist_forms():
    assert parse_config("solver.nonlinear = off").nonlinear is False
    assert parse_config("solver.nonlinear = yes").nonlinear is True
    assert parse_config("diagnostics.identity_levels = 2").identity_levels == (2,)
    assert parse_config("diagnostics.identity_levels = 1 2").identity_levels == (1, 2)
    with pytest.raises(ConfigError):
        parse_config("solver.nonlinear = maybe")


def test_load_config_from_file(tmp_path):
    p = tmp_path / "mini.cfg"
    p.write_text(MINI_SIMULATE)
    assert load_config(p).n == 161


def test_bundled_recipes_all_parse():
    names = available_recipes()
    assert {"mms", "soliton", "oracle", "dissipation", "l1_full_time",
            "l2_stopped", "trace_gain", "identity_l1", "identity_l2"} <= set(names)
    for name in names:
        cfg = resolve_config(name)
        assert cfg.experiment in ("simulate", "converge", "propagation",
                                  "traces", "identity", "oracle-compare")


def test_resolve_config_failure_lists_recipes():
    with pytest.raises(ConfigError, match="mms"):
        resolve_config("definitely_not_a_recipe")


def test_cli_simulate_artifacts(tmp_path, capsys):
    cfgfile = tmp_path / "mini.cfg"
    cfgfile.write_text(MINI_SIMULATE)
    out = tmp_path / "run1"
    rc = main(["simulate", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == "kdvhl-report-v1"
    assert "stopping_times" in report
    assert set(report["flags"]) == {"picard_max_update", "picard_max_distance",
                                    "picard_capped_steps", "picard_mean_sweeps"}
    assert (out / "summary.txt").read_text().startswith("experiment: simulate")
    table = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
    assert table.shape == (11, 9)
    captured = capsys.readouterr()
    assert "wrote" in captured.out


def test_cli_quiet_silences_stdout(tmp_path, capsys):
    cfgfile = tmp_path / "mini.cfg"
    cfgfile.write_text(MINI_SIMULATE)
    rc = main(["simulate", "--config", str(cfgfile), "--out",
               str(tmp_path / "q"), "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_cli_config_error_exit_code(tmp_path, capsys):
    rc = main(["simulate", "--config", "no_such_recipe", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


_INVALID_CONTEXT = {"boundary.w": {"boundary.kind": "gaussian-pulse"},
                    "boundary.t_c": {"boundary.kind": "gaussian-pulse"},
                    "boundary.ramp": {"boundary.kind": "ramped-cosine"},
                    "data.x1": {"data.kind": "kink"}}  # default envelope (1, 3) at x0 = 4


@pytest.mark.parametrize("key,value", [("time.theta", "2"), ("time.T", "0.25"),
                                       ("grid.L", "nan"), ("grid.L", "1e120"),
                                       ("grid.L", "1e300"), ("data.center", "0"),
                                       ("oracle.samples", "0"), ("oracle.cfl", "0"),
                                       ("diagnostics.l", "4"),
                                       ("diagnostics.identity_levels", "3"),
                                       ("diagnostics.R", "0.1"), ("data.m", "0"),
                                       ("data.c", "-1"), ("oracle.c", "-1"),
                                       ("time.snapshot_stride", "0"),
                                       ("solver.picard_max", "0"),
                                       ("solver.picard_tol", "nan"),
                                       ("solver.picard_tol", "inf"),
                                       ("solver.picard_tol", "0"),
                                       ("solver.picard_tol", "-1"),
                                       ("weight.x0", "nan"), ("weight.x0", "inf"),
                                       ("weight.x0", "-inf"), ("weight.v", "inf"),
                                       ("data.width", "0"), ("boundary.w", "0"),
                                       ("data.x1", "0.5"), ("boundary.ramp", "0"),
                                       ("boundary.t_c", "inf"),
                                       ("time.T", "1e20"), ("time.dt", "1e-320"),
                                       ("diagnostics.delta", "nan"),
                                       ("diagnostics.delta", "inf"),
                                       ("diagnostics.delta", "0"),
                                       ("diagnostics.delta", "-1"),
                                       ("study.residual_decay", "nan"),
                                       ("data.base_center", "inf")])
def test_cli_invalid_config_exit_code(tmp_path, capsys, key, value):
    # keys that only act under another setting bring that setting along
    context = {**_INVALID_CONTEXT.get(key, {}), key: value}
    lines = [ln for ln in MINI_SIMULATE.splitlines() if ln.split(" = ")[0] not in context]
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("\n".join(lines + [f"{k} = {v}" for k, v in context.items()]) + "\n")
    # the refusal comes before any numpy overflow warning (an error under this filter)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "z")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err and err.count("\n") == 1


ORACLE_MINI = """
experiment = oracle-compare
grid.L = 40.0
grid.n = 201
time.dt = 0.05
time.T = 1.0
oracle.P = 120.0
oracle.m = 256
oracle.x_left = -30.0
oracle.x_star = 20.0
oracle.cfl = 0.4
oracle.kind = soliton
oracle.center = 12.0
"""


@pytest.mark.parametrize("overrides,code,phrase", [
    ({"oracle.center": "80"}, 2, "support guard"),
    ({"oracle.x_star": "60"}, 2, "not contained"),
    ({"oracle.m": "100"}, 2, "power of two"),
    ({"oracle.kind": "bump", "oracle.amplitude": "50", "oracle.center": "10",
      "oracle.cfl": "100"}, 3, "non-finite"),
])
def test_cli_oracle_failure_exit_codes(tmp_path, capsys, overrides, code, phrase):
    lines = [ln for ln in ORACLE_MINI.splitlines() if ln.split(" =")[0] not in overrides]
    cfgfile = tmp_path / "bad_oracle.cfg"
    cfgfile.write_text("\n".join(lines + [f"{k} = {v}" for k, v in overrides.items()]) + "\n")
    rc = main(["oracle-compare", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == code
    err = capsys.readouterr().err
    prefix = "config error" if code == 2 else "solver failure"
    assert err.startswith(prefix) and phrase in err and err.count("\n") == 1


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "diverge.cfg"
    bad.write_text(
        "experiment = simulate\n"
        "grid.L = 20.0\ngrid.n = 201\n"
        "time.dt = 0.2\ntime.T = 0.4\n"
        "solver.picard_max = 6\n"
        "data.kind = bump\ndata.amplitude = 40.0\n"
        "data.center = 10.0\ndata.width = 1.5\n"
        "boundary.kind = zero\n"
    )
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "y")])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


def test_cli_huge_finite_data_exits_3(tmp_path, capsys):
    # finite data whose squares overflow: the observers see infinities at
    # t = 0 and the first step reports one non-finite state, with no numpy
    # overflow warning (an error under this filter) and no traceback
    cfgfile = tmp_path / "huge.cfg"
    cfgfile.write_text(
        "experiment = simulate\n"
        "grid.L = 40\ngrid.n = 401\n"
        "time.dt = 0.05\ntime.T = 0.5\n"
        "data.kind = bump\ndata.amplitude = 1e160\n"
        "data.center = 30\ndata.width = 0.5\n"
        "boundary.kind = zero\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "h")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure") and "non-finite" in err and err.count("\n") == 1


def test_cli_run_too_large_for_memory_exits_2(tmp_path, capsys):
    # 5e17 steps pass the step-count check, but each per-step series needs
    # 4 EB, more than a 64-bit host can map, so numpy refuses it at once
    lines = [ln for ln in MINI_SIMULATE.splitlines() if not ln.startswith("time.T")]
    cfgfile = tmp_path / "long.cfg"
    cfgfile.write_text("\n".join(lines + ["time.T = 1e16"]) + "\n")
    rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "memory" in err and err.count("\n") == 1


def _shrunk_recipe(tmp_path, recipe, overrides):
    """A bundled recipe on grid.n = 201 and time.T = 0.3, with overrides applied."""
    overrides = {"grid.n": "201", "time.T": "0.3", **overrides}
    text = (resources.files("kdvhl.recipes") / f"{recipe}.cfg").read_text()
    lines = [ln for ln in text.splitlines() if ln.split(" =")[0] not in overrides]
    cfgfile = tmp_path / f"{recipe}.cfg"
    cfgfile.write_text("\n".join(lines + [f"{k} = {v}" for k, v in overrides.items()]) + "\n")
    return cfgfile


@pytest.mark.parametrize("recipe,overrides,phrase", [
    ("mms", {"data.amplitude": "0"}, "zero L2 norm"),
    ("soliton", {"data.c": "1e-300"}, "zero L2 norm"),
    ("trace_gain", {"boundary.w": "1e-300"}, "not finite"),
])
def test_cli_degenerate_data_exits_2(tmp_path, capsys, recipe, overrides, phrase):
    # a zero exact solution leaves the relative error undefined, and a pulse
    # narrower than any float has no finite derivative: one config error line
    # each, naming the key, with no traceback and no numpy warning (an error
    # under this filter)
    cfgfile = _shrunk_recipe(tmp_path, recipe, overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([resolve_config(recipe).experiment, "--config", str(cfgfile),
                   "--out", str(tmp_path / "d"), "--quiet", "--levels", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and phrase in err and err.count("\n") == 1
    assert all(key in err for key in overrides), err


# values refused before any solve, with one line naming the key at fault (the
# last override); without the refusal each ends in a traceback from deep inside
# the run (an index, a NaN cast or a float overflow), in a line blaming
# another key (a data.center off the grid blames the corner or data.amplitude)
# or, for a cutoff band too narrow to normalize, in exit 0 with a NaN report.
# The oracle recipe's time.dt = 0.008 needs time.T = 0.4
@pytest.mark.parametrize("recipe,overrides", [
    ("oracle", {"time.T": "0.4", "oracle.c": "1e-300"}),
    ("oracle", {"time.T": "0.4", "oracle.kind": "bump", "oracle.amplitude": "1e-300"}),
    ("oracle", {"time.T": "0.4", "oracle.center": "inf"}),
    ("oracle", {"time.T": "0.4", "oracle.center": "1e300"}),
    ("oracle", {"time.T": "0.4", "oracle.P": "inf"}),
    ("oracle", {"time.T": "0.4", "oracle.x_left": "nan"}),
    ("oracle", {"time.T": "0.4", "oracle.cfl": "1e-300"}),
    ("oracle", {"time.T": "0.4", "oracle.cfl": "10"}),
    ("l1_full_time", {"data.env_hi": "1e300"}),
    ("l1_full_time", {"data.env_lo": "-1e300"}),
    ("mms", {"data.width": "1e300"}),
    ("mms", {"data.center": "nan"}),
    ("mms", {"data.center": "1e300"}),
    ("soliton", {"data.center": "inf"}),
    ("soliton", {"data.center": "-inf"}),
    ("soliton", {"data.center": "1e300"}),
    ("identity_l2", {"data.center": "-1"}),
    ("identity_l2", {"weight.epsilon": "0.01", "weight.b": "0.05"}),
])
def test_cli_out_of_range_key_exits_2(tmp_path, capsys, recipe, overrides):
    cfgfile = _shrunk_recipe(tmp_path, recipe, overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([resolve_config(recipe).experiment, "--config", str(cfgfile),
                   "--out", str(tmp_path / "r"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    key = list(overrides)[-1]
    assert err.startswith(f"config error: key {key!r}") and err.count("\n") == 1, err


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    # a path under an existing file cannot become the output directory: one line
    # naming --out, not a NotADirectoryError traceback once the run is done
    cfgfile = tmp_path / "mini.cfg"
    cfgfile.write_text(MINI_SIMULATE)
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["simulate", "--config", str(cfgfile), "--out", str(blocker / "sub"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out") and err.count("\n") == 1, err


def test_cli_levels_override(tmp_path):
    cfgfile = tmp_path / "conv.cfg"
    cfgfile.write_text(
        "experiment = converge\n"
        "grid.L = 30.0\ngrid.n = 201\n"
        "time.dt = 0.04\ntime.T = 0.2\n"
        "data.kind = mms\ndata.amplitude = 1.0\n"
        "data.center = 8.0\ndata.width = 2.0\n"
    )
    out = tmp_path / "conv_out"
    rc = main(["converge", "--config", str(cfgfile), "--out", str(out), "--quiet",
               "--levels", "2"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["levels"]) == 2
    assert report["config"]["study.levels"] == 2  # the echo names the levels that ran


def test_cli_levels_must_be_positive(tmp_path, capsys):
    rc = main(["converge", "--config", "mms", "--out", str(tmp_path / "l"), "--quiet",
               "--levels", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "--levels" in err and err.count("\n") == 1
    assert not (tmp_path / "l").exists()


def test_cli_subcommand_must_match_experiment(tmp_path, capsys):
    # the mms recipe says experiment = converge
    rc = main(["simulate", "--config", "mms", "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'experiment'" in err and err.count("\n") == 1
    assert not (tmp_path / "m").exists()


def test_cli_corner_mismatch_exits_2(tmp_path, capsys):
    # a bump with u0(0) = 0.5 exp(-1) against the zero boundary: solve's corner
    # check refuses it with one config error line and no traceback
    lines = [ln for ln in MINI_SIMULATE.splitlines() if not ln.startswith("data.center")]
    cfgfile = tmp_path / "corner.cfg"
    cfgfile.write_text("\n".join(lines + ["data.center = 1.0"]) + "\n")
    rc = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "c")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "corner" in err and err.count("\n") == 1, err
    assert "1.839e-01" in err and "1e-10" in err and "data.center" in err
    assert not (tmp_path / "c").exists()


def _mini_report(tmp_path, extra=()):
    cfgfile = tmp_path / "mini.cfg"
    cfgfile.write_text(MINI_SIMULATE + "".join(f"{line}\n" for line in extra))
    assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "r"),
                 "--quiet"]) == 0
    return json.loads((tmp_path / "r" / "report.json").read_text())


def test_simulate_dissipation_energies_are_the_snapshot_integrals(tmp_path, monkeypatch):
    from kdvhl import experiments
    from kdvhl.discretization import integrate

    trajs = []

    def keep(*args, solve=experiments.solve, **kwargs):
        trajs.append(solve(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(experiments, "solve", keep)
    block = _mini_report(tmp_path)["dissipation"]
    (traj,) = trajs
    # E = 1/2 int u^2 of the first and last states, bit for bit through report.json
    for key, snap in (("e_initial", traj.snapshots[0]), ("e_final", traj.final)):
        assert block[key] == 0.5 * integrate(snap.values ** 2, traj.grid)


@pytest.mark.parametrize("delta", [None, 0.01])
def test_simulate_reports_young_delta(tmp_path, delta):
    from kdvhl.weights import CutoffSpec, WeightSpec

    report = _mini_report(tmp_path, [] if delta is None else [f"diagnostics.delta = {delta}"])
    supcp = WeightSpec(CutoffSpec(0.4, 2.0), v=1.0, x0=4.0).sup_chi_prime
    want = 0.05 / supcp**2 if delta is None else delta  # the default keeps 0.5 - delta*supcp^2 > 0
    assert set(report["identity"]) == {"1", "2"}
    for block in report["identity"].values():
        young = block["young"]
        assert young["delta"] == want
        assert young["sup_chi_prime"] == supcp
        assert young["coefficient_check"] == 0.5 - young["delta"] * supcp**2 > 0.0


def test_cli_deterministic_reports(tmp_path):
    cfgfile = tmp_path / "mini.cfg"
    cfgfile.write_text(MINI_SIMULATE)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out),
                     "--quiet"]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_converge_requires_exact_solution():
    from kdvhl.experiments import run_converge

    with pytest.raises(ConfigError, match="mms or soliton"):
        run_converge(resolve_config("l1_full_time"))


def test_identity_requires_levels():
    from kdvhl.experiments import run_identity

    cfg = resolve_config("mms")
    with pytest.raises(ConfigError, match="identity_levels"):
        run_identity(cfg)
