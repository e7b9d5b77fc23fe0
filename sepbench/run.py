"""Benchmark of the sepwit library and CLI.

Usage, from the root of a checkout:

    python3 sepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: multipartite, oracle, cli (see README.md).  Each
run starts fresh worker processes (worker.py) with the BLAS thread count
and SEVALUE_THREADS pinned, times set-up in several of them and the
workload's passes in one, and checks every bound the passes produce.
``wall_s`` and ``setup_s`` are scaled to a fixed host speed by the
reference kernel of calibrate.py, timed in the same workers.
It prints one JSON line with the full record (environment, bounds,
failures, every metric) and, last, the summary line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end metrics with --trace 0
and its per_layer metrics with --trace 1.  It exits with 1, printing no
summary, when a worker cannot run (for example when the package sources
are missing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# measured wall time of one full-size pass on a 2-core x86-64 machine
# (OpenBLAS 0.3.31, numpy 2.4, one BLAS thread); a run makes
# round(seconds / this) passes
NOMINAL_PASS_S = {"multipartite": 2.0, "oracle": 4.0, "cli": 4.0}
MIN_PASSES = 3
# set-up is timed in this many set-up-only workers plus the measuring one;
# each costs about half a second, and fewer left the median of a run
# varying by more than a quarter between seeds
SETUP_WORKERS = 8
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_commit() -> str:
    """HEAD of the checkout's own repository, read without running git so
    nothing outside the checkout is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict[str, str]:
    """The environment of every worker: one BLAS thread and the solver's
    thread pool off, whatever the caller's environment.  On a host whose
    cores other tenants share, a second BLAS thread made every call wait
    for the slower core."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["SEVALUE_THREADS"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], env: dict[str, str], workdir: str) -> dict:
    """Run one worker to completion and return its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--spawned-at", repr(time.monotonic())] + args
    try:
        proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n"
                          f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, spans: str | None = None) -> dict:
    """Run the workload in fresh workers and return the full record."""
    env = worker_env()
    passes = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    args = ["--workload", workload, "--seed", str(seed),
            "--passes", str(passes)] + (["--tiny"] if tiny else [])
    traced = ["--trace"] + (["--spans", str(Path(spans).resolve())]
                            if spans else [])
    workroot = ROOT / ".sepbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=workroot)
    try:
        setups = [] if trace else [
            spawn(args + ["--setup-only"], env, workdir)
            for _ in range(SETUP_WORKERS)]
        record = spawn(args + (traced if trace else []), env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass
    setup_s = [w["setup_s"] for w in setups + [record]]
    setup_cal_s = [t for w in setups + [record] for t in w["setup_cal_s"]]
    # The kernel's 0.1 s runs fall into a fast and a slow speed mode of
    # the host, and the share of each drifts within a run: the mean pass
    # and the mean kernel run average over the same mix, where a median
    # would jump from one mode to the other.
    raw_wall_s = statistics.fmean(record["pass_s"])
    raw_setup_s = statistics.median(setup_s)
    gaps = record["oracle_gaps"]
    failed = len(record["failures"])
    # both times as on a host on which the reference kernel takes NOMINAL_S
    found = {
        "wall_s": raw_wall_s * NOMINAL_S / statistics.fmean(record["cal_s"]),
        "setup_s": raw_setup_s * NOMINAL_S / statistics.fmean(setup_cal_s),
        "peak_rss_mb": record["peak_rss_mb"],
        "failed_frac": failed / record["cases"],
        "oracle_gap": sum(gaps) / len(gaps) if gaps else 0.0,
    }
    found.update(record.get("layers", {}))
    env_block = {"git_commit": _git_commit(), "nproc": _nproc(),
                 **record["versions"],
                 **{var: env[var] for var in THREAD_VARS + ("SEVALUE_THREADS",)}}
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "passes": passes, "env": env_block,
            "pass_s": record["pass_s"], "setup_samples_s": setup_s,
            "raw_wall_s": raw_wall_s, "raw_setup_s": raw_setup_s,
            "cal_s": record["cal_s"], "setup_cal_s": setup_cal_s,
            "traced_pass_s": record.get("traced_pass_s"),
            "attempted": record["cases"], "failed": failed,
            "failures": record["failures"], "bounds": record["bounds"],
            "metrics": found}


def summary(record: dict, spec: dict) -> dict:
    """The last output line: the metrics BENCHMARK.json lists for this
    kind of run, with their units."""
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]],
                           "unit": m["unit"]} for m in listed}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the harness's own test")
    parser.add_argument("--spans", default=None, metavar="PATH",
                        help="with --trace 1, also write every span of the "
                             "traced pass to PATH as JSON lines")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # measure the checkout's own sources, never an installed copy
    if not (ROOT / "src" / "sepwit" / "__init__.py").is_file():
        sys.stderr.write(f"sepbench: no package sources under {ROOT / 'src'}\n")
        return 1
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.tiny, args.spans)
    except WorkerError as exc:
        sys.stderr.write(f"sepbench: {exc}\n")
        return 1
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(summary(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
