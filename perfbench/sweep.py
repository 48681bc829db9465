"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/sweep.py --seeds 3 --trace 1 --out perfbench/baseline_layers.json

For every workload of BENCHMARK.json and every seed this runs `run.py` once,
one invocation at a time, and records the printed metrics; the summary gives
each metric's median, quartiles and quartile spread (Q3 - Q1 as a share of the
median) over the seeds that report it, next to the bound BENCHMARK.json sets
for it, and the report.json sha256 of every seed.
Seeds run from 0; each run lasts BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import provenance

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    summary = {}
    ok = True
    for name in (w["name"] for w in SPEC["workloads"]):
        per_seed = {}
        digests = {}
        for seed in range(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=HERE.parent)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            per_seed[seed] = result
            record = json.loads((HERE / "_runs" / f"{name}-seed{seed}-trace{args.trace}"
                                 / "result.json").read_text())
            digests[seed] = sorted({r["digest"] for r in record["runs"] if "digest" in r})
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {}
        for key in dict.fromkeys(k for r in per_seed.values() for k in r["metrics"]):
            metrics[key] = summarize([r["metrics"][key]["value"] for r in per_seed.values()
                                      if key in r["metrics"]])
            metrics[key]["bound"] = bounds.get(key)
        summary[name] = {"all_correct": all(r["correct"] for r in per_seed.values()),
                         "report_sha256": digests, "metrics": metrics}
        for key, s in metrics.items():
            print(f"{name:10s} {key:34s} median {s['median']:.6g} spread {s['spread']:.4f}"
                  + (f" (bound {s['bound']})" if s["bound"] is not None else ""), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps({
            "seeds": [0, args.seeds - 1], "seconds": SPEC["run_seconds"], "trace": args.trace,
            "provenance": provenance(), "workloads": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
