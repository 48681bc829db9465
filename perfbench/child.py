"""One benchmark run in a fresh interpreter: a single `kdvhl` CLI call.

    python3 child.py --result R.json --run-id ID [--trace] -- <kdvhl CLI args>

Writes R.json with monotonic-clock marks (config resolved, run done), the exit
code and the peak RSS of this process; with --trace also the recorded spans.
The parent takes the spawn time, so `resolved - spawn` is the set-up time
(interpreter start, imports, config resolution) and `done - resolved` is the
experiment through output writing.  Operator caches start cold, as on every
CLI call.
"""

import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    result_path = opts[opts.index("--result") + 1]
    traced = "--trace" in opts

    import kdvhl.cli as cli

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer(run_id=opts[opts.index("--run-id") + 1])
        tracing.install(tracer)

    marks = {}
    resolve = cli.resolve_config

    def resolve_marked(spec):
        cfg = resolve(spec)
        marks["resolved"] = _now()
        return cfg

    cli.resolve_config = resolve_marked
    rc = cli.main(cli_args)
    marks["done"] = _now()

    import json
    import resource

    out = {
        "rc": rc,
        "marks": marks,
        "kdvhl_file": cli.__file__,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = dict(tracer.counts)
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
