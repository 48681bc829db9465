"""CLI benchmark for kdvhl: four seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload transport --seed 0 --seconds 30 --trace 0

Each run is one `kdvhl <experiment> --config <generated cfg>` call in a fresh
interpreter, one run at a time (closed loop, one client), with the checkout's
`src/` first on PYTHONPATH.  Runs repeat until the next one would overrun
--seconds (at least MIN_RUNS, time allowing).  Every run is checked and never
retried: a non-zero exit, a false `passes` entry, an acceptance threshold or
runtime cap missed or a report.json digest that differs from the other runs of
the seed fails it.  A run is killed SPAWN_MARGIN_S after its acceptance cap, or
when the invocation reaches EXIT_LIMIT_S, whichever comes first.

--trace 0 prints the end-to-end metrics (medians over runs); --trace 1
alternates untraced and traced runs and prints per-layer metrics derived from
the traced runs' spans.  The last stdout line is the JSON result; the full
record (per-run figures, digests, provenance) lands in perfbench/_runs/.

The host's speed drifts between states up to ~60 % apart that last from
seconds to minutes, and a whole window can fall in one of them.  So with
--trace 0 every run is preceded by a fixed probe, a fresh interpreter that
imports numpy and scipy's sparse solvers and runs no kdvhl code, and the
reported times are scaled to the reference speed: t * REF_PROBE_S / median
probe time of the window.  The unscaled medians are printed and recorded too.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, level_grid, make_config  # noqa: E402

RUNS = HERE / "_runs"
MIN_RUNS = 3            # full runs per untraced invocation, whatever --seconds says
SPAWN_MARGIN_S = 30.0   # interpreter start, import and config on top of the cap
EXIT_LIMIT_S = 170.0    # the whole invocation ends within this, runs in flight included
PROBE = "import numpy, scipy.sparse, scipy.sparse.linalg"
REF_PROBE_S = 0.5       # typical probe time on the 2-vCPU Xeon VM of baseline.json
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "node_steps_per_s": "1/s",
             "peak_rss_mb": "MB", "error": "rel", "pass_frac": "frac"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_VARS},
    }


class Bench:
    """One invocation: a workload, a seed, a run directory and its records."""

    def __init__(self, name: str, seed: int, trace: int, exit_deadline: float):
        self.wl = WORKLOADS[name]
        self.exit_deadline = exit_deadline
        self.dir = RUNS / f"{name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        recipe = (SRC / "kdvhl" / "recipes" / f"{self.wl.recipe}.cfg").read_text()
        text = make_config(self.wl, seed, recipe)
        self.cfg = self.dir / "config.cfg"
        self.cfg.write_text(text)
        self.node_steps = sum(n * steps for n, steps in level_grid(text))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.records = []
        self.raw = {}           # unscaled medians of the --trace 0 times

    def probe(self) -> float:
        """Time the fixed reference probe; -I keeps the checkout off its path.

        The output pipe makes the end show as EOF at once; without it, a wait
        with a timeout polls and rounds the time up to 50 ms steps.
        """
        t = _now()
        subprocess.run([sys.executable, "-I", "-c", PROBE], check=True,
                       capture_output=True, timeout=max(1.0, self.exit_deadline - t))
        return _now() - t

    def spawn(self, traced=False) -> dict:
        k = len(self.records)
        probe_s = None if traced else self.probe()
        res = self.dir / f"run{k}.json"
        out = self.dir / f"out{k}"
        cmd = [sys.executable, str(HERE / "child.py"), "--result", str(res),
               "--run-id", f"{self.dir.name}-run{k}"]
        cmd += ["--trace"] * traced
        cmd += ["--", self.wl.experiment, "--config", str(self.cfg),
                "--out", str(out), "--quiet"]
        rec = {"run": k, "traced": traced, "reasons": []}
        if probe_s is not None:
            rec["probe_s"] = probe_s
        t_spawn = _now()
        left = self.exit_deadline - t_spawn
        timeout = min(self.wl.cap_s + SPAWN_MARGIN_S, left)
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            rec["reasons"].append(
                f"killed after {timeout:.1f} s: "
                + (f"runtime cap {self.wl.cap_s} s exceeded" if timeout < left
                   else f"the invocation reached its {EXIT_LIMIT_S} s exit limit"))
        rec["elapsed_s"] = _now() - t_spawn
        rec["rc"] = proc.returncode
        self.records.append(rec)
        if proc.returncode != 0 or not res.exists():
            rec["reasons"].append(f"exit {proc.returncode}: {err.decode()[-400:].strip()}")
            return rec
        child = json.loads(res.read_text())
        if not Path(child["kdvhl_file"]).resolve().is_relative_to(SRC.resolve()):
            rec["reasons"].append(f"imported kdvhl from {child['kdvhl_file']}, not {SRC}")
        marks = child["marks"]
        rec["setup_s"] = marks["resolved"] - t_spawn
        rec["peak_rss_mb"] = child["peak_rss_kb"] / 1024.0
        rec["wall_s"] = marks["done"] - marks["resolved"]
        if traced:
            rec["layers"] = layer_metrics(child["spans"], child["counts"])
        else:
            res.unlink()      # untraced records carry nothing beyond the figures above
        self._check_report(rec, out)
        return rec

    def _check_report(self, rec: dict, out: Path) -> None:
        try:
            data = (out / "report.json").read_bytes()
            report = json.loads(data)
            rec["error"] = self.wl.error(report)
            rec["reasons"] += self.wl.check(report)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            rec["reasons"].append(f"report.json unreadable or incomplete: {exc!r}")
            return
        finally:
            shutil.rmtree(out, ignore_errors=True)
        rec["digest"] = hashlib.sha256(data).hexdigest()
        rec["reasons"] += [f"passes.{k} is false"
                           for k, ok in report.get("passes", {}).items() if not ok]
        if rec["wall_s"] >= self.wl.cap_s:
            rec["reasons"].append(f"run took {rec['wall_s']:.1f} s, cap {self.wl.cap_s} s")

    def check_digests(self) -> None:
        digests = [r["digest"] for r in self.records if "digest" in r]
        if digests:
            common, _ = Counter(digests).most_common(1)[0]
            for r in self.records:
                if r.get("digest", common) != common:
                    r["reasons"].append("report.json differs from the other runs of this seed")

    def full_runs(self, traced=None) -> list:
        return [r for r in self.records if "wall_s" in r
                and (traced is None or r["traced"] == traced)]


def _median(records, key) -> float | None:
    """Median of `key` over the records that have it; None when none has it."""
    vals = [r[key] for r in records if key in r]
    return statistics.median(vals) if vals else None


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Run the loop and derive the metrics.

    A metric with no values to take the median of (every call crashed, say) is
    left out rather than reported as 0, so a failure never reads as a gain.
    """
    deadline = _now() + seconds
    if trace:
        # alternate so both sides see the same machine state; one pair at least
        while True:
            ok = "wall_s" in bench.spawn(traced=False)
            ok = "wall_s" in bench.spawn(traced=True) and ok
            if not ok:
                break
            pair = _median(bench.full_runs(False), "elapsed_s") + _median(
                bench.full_runs(True), "elapsed_s")
            if _now() + pair > min(deadline, bench.exit_deadline):
                break
    else:
        while True:
            rec = bench.spawn()
            if "wall_s" not in rec:
                break
            runs = bench.full_runs()
            next_end = _now() + _median(runs, "elapsed_s") + _median(runs, "probe_s")
            if next_end > bench.exit_deadline or (len(runs) >= MIN_RUNS
                                                   and next_end > deadline):
                break
    bench.check_digests()

    if trace:
        traced = bench.full_runs(True)
        names = traced[0]["layers"] if traced else {}
        metrics = {k: (statistics.median(r["layers"][k] for r in traced), unit_of(k))
                   for k in names}
        untraced_wall = _median(bench.full_runs(False), "wall_s")
        if traced and untraced_wall:
            overhead = _median(traced, "wall_s") / untraced_wall - 1.0
            metrics["trace.overhead_frac"] = (overhead, "frac")
    else:
        runs = bench.full_runs()
        bench.raw = {"setup_s": _median(bench.records, "setup_s"),
                     "wall_s": _median(runs, "wall_s"),
                     "probe_s": _median(bench.records, "probe_s")}
        scale = REF_PROBE_S / bench.raw["probe_s"]
        setup, wall = (None if bench.raw[k] is None else bench.raw[k] * scale
                       for k in ("setup_s", "wall_s"))
        metrics = {
            "setup_s": setup,
            "wall_s": wall,
            "node_steps_per_s": bench.node_steps / wall if wall else None,
            "peak_rss_mb": _median(runs, "peak_rss_mb"),
            "error": _median(runs, "error"),
            "pass_frac": sum(not r["reasons"] for r in bench.records) / len(bench.records),
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items() if v is not None}
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_per_step", "_per_observe")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kdvhl" / "cli.py").is_file():
        sys.stderr.write(f"no kdvhl sources under {SRC}; run from a full checkout\n")
        return 2
    exit_deadline = _now() + EXIT_LIMIT_S
    compileall.compile_dir(SRC, quiet=1)   # bytecode once, outside every timed run

    bench = Bench(args.workload, args.seed, args.trace, exit_deadline)
    metrics = measure(bench, args.seconds, bool(args.trace))
    failed = [r for r in bench.records if r["reasons"]]
    for r in failed:
        sys.stderr.write(f"run {r['run']} failed: {'; '.join(r['reasons'])}\n")

    prov = provenance()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config": bench.cfg.read_text(),
              "node_steps": bench.node_steps, "provenance": prov,
              "ref_probe_s": REF_PROBE_S, "unscaled_medians": bench.raw,
              "runs": bench.records,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (bench.dir / "result.json").write_text(json.dumps(record, indent=1))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"runs: {len(bench.records)} attempted, {len(failed)} failed; "
          f"node steps per run {bench.node_steps}")
    if bench.raw:
        print("unscaled medians: " + json.dumps(bench.raw, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(bench.records),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
