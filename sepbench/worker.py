"""One benchmark worker process: set up a workload, then time its passes.

Started by run.py, one fresh interpreter per measurement, and prints
one JSON record as its last line of output.  ``--setup-only`` stops
after the set-up, so run.py can time set-up in several interpreters.
After the set-up, and after every pass, it times the reference kernel
of calibrate.py, so run.py can scale the times to a fixed host speed.
The traced run repeats pass 0 under the tracer after the untraced
passes; its overhead is that pass's time minus the median untraced
pass.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


# the reference kernel runs for SETUP_CAL_S after the set-up, and after
# each pass for this share of the pass's time
CAL_SHARE = 0.1
SETUP_CAL_S = 0.2


def _blas() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown")}


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas()}


def _run_pass(cases) -> tuple[float, list]:
    start = time.perf_counter()
    outcomes = [case.run() for case in cases]
    return time.perf_counter() - start, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="with --trace, write the spans to this JSONL file")
    args = parser.parse_args(argv)

    import workloads
    passes = workloads.WORKLOADS[args.workload](
        args.seed, args.passes, args.tiny, Path.cwd())
    setup_s = time.monotonic() - args.spawned_at
    import calibrate
    calibrate.warm_up()
    record = {"setup_s": setup_s,
              "setup_cal_s": calibrate.sample(SETUP_CAL_S)}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    outcomes, pass_s, cal_s = [], [], []
    for cases in passes:
        elapsed, done = _run_pass(cases)
        pass_s.append(elapsed)
        outcomes.extend(done)
        cal_s.extend(calibrate.sample(CAL_SHARE * elapsed))
    record.update(pass_s=pass_s, cal_s=cal_s)

    # the traced rerun of pass 0 counts in the cases and failures only:
    # its bounds must equal those of the untraced pass 0
    again = []
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced_s, again = _run_pass(passes[0])
        finally:
            tracer.uninstall()
        first = outcomes[:len(passes[0])]
        for case, before, after in zip(passes[0], first, again):
            if after.error is None and after.bounds != before.bounds:
                after.error = (f"{case.label}: traced rerun gave "
                               f"{after.bounds}, first run {before.bounds}")
        record["layers"] = layers.metrics(tracer, traced_s,
                                          statistics.median(pass_s))
        record["traced_pass_s"] = traced_s
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(vars(span), default=str) + "\n")

    record.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        cases=len(outcomes) + len(again),
        failures=[o.error for o in outcomes + again if o.error is not None],
        bounds=[bound for o in outcomes for bound in o.bounds],
        oracle_gaps=[o.oracle_gap for o in outcomes
                     if o.oracle_gap is not None],
        versions=_versions())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
