"""Command-line front end.

Subcommands:
  fig1     noise thresholds of the balanced two-particle family
  fig2     dephasing sweep of the GHZ-type interference signal
  sevalue  separable bound of an observable file (solver + oracle)
  witness  entanglement verdict for a state file against an observable

Exit codes: 0 success (verdicts live in the payload, never in the exit
status), 2 input error, 3 numerical failure (no start converged, or a
party step's eigensolve failed by every route).

File formats (JSON):
  observable  {"d": int, "N": int, "statistics": str,
               "entries": [[row, col, re, im], ...]}     dense triplets
  state       {"d": int, "N": int, "amplitudes": [[re, im], ...]}
              or an observable-shaped density matrix with "entries"

CSV column order (fixed):
  fig1     d, panel, p_star, G, D, bound_source, undetectable
           [+ p_star_scan, G_numeric, verified with --verify]
  fig2     delta, expectation, bound_source, delta_star_k2,
           not_2_separable ... not_K_separable
           [+ expectation_numeric, tail_bound with --verify]
  sevalue  partition, G, bound_source, oracle_bound, fraction_at_G,
           n_converged, n_failed, max_residual
  witness  expectation, G, margin, verdict, bound_source

Floats in tables are printed with 12 significant digits; identical
flags and seed give byte-identical output.
Fields containing commas (partitions) are double-quoted in CSV.
"""

from __future__ import annotations

import argparse
import cmath
import collections
import contextlib
import json
import math
import sys

import numpy as np

from .errors import (ConvergenceError, HermiticityError, InputFormatError,
                     SepwitError)
from .operators import interference_observable, rank_one_observable
from .solver import (DEFAULT_STARTS, MAX_SWEEPS, RESIDUAL_TOL, Partition,
                     SevalueProblem, brute_force_bound, check_count,
                     partitions_into, solve_sup_g)
from .states import (detection_threshold, dephased_ghz, fig1_bound,
                     fig1_state_family, ghz_expectation, noisy_state,
                     GhzFamily)
from .tensor import (DensityOperator, SpaceConfig, StateVector, Statistics,
                     require_hermitian)
from .witness import (Witness, WitnessForm, build_k_witness, build_witness,
                      detect, expectation)

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_NUMERICAL = 3


def _fmt(value) -> str:
    if isinstance(value, bool) or value is None:
        return {True: "true", False: "false", None: ""}[value]
    if isinstance(value, float):
        return format(value, ".12g")
    text = str(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, (np.floating, float)):
        return float(format(float(obj), ".12g"))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _emit(payload: dict, columns: list[str], rows: list[dict], args) -> None:
    if args.format == "json":
        body = dict(payload)
        body["rows"] = rows
        text = json.dumps(_jsonable(body), indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# {key}={_fmt(val)}" for key, val in sorted(payload.items())
                 if not isinstance(val, (dict, list))]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row.get(col)) for col in columns))
        text = "\n".join(lines) + "\n"
    _write(text, args.out)


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# file loading

def _finite_complex(re, im, where: str) -> complex:
    value = complex(float(re), float(im))
    if not cmath.isfinite(value):
        raise InputFormatError(f"{where}: non-finite value {value}")
    return value


def _entries_matrix(entries, dim: int) -> np.ndarray:
    """Dense matrix from [row, col, re, im] triplets.  Rejects an index
    that is not an integer in 0..dim-1, a repeated (row, col) and a
    non-finite value."""
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    seen = set()
    for entry in entries:
        row, col, re, im = entry
        where = f"entry {entry}"
        if not all(type(i) is int and 0 <= i < dim for i in (row, col)):
            raise InputFormatError(
                f"{where}: index not an integer in 0..{dim - 1}")
        if (row, col) in seen:
            raise InputFormatError(f"{where}: repeats ({row}, {col})")
        seen.add((row, col))
        matrix[row, col] = _finite_complex(re, im, where)
    return matrix


_MALFORMED = (HermiticityError, InputFormatError, KeyError, TypeError,
              ValueError)


@contextlib.contextmanager
def _reading(path: str, kind: str):
    """The parsed JSON of a ``kind`` file; InputFormatError where it
    cannot be read, or where the block reading it raises a _MALFORMED."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            blob = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read {kind} file {path}: {exc}")
    try:
        yield blob
    except _MALFORMED as exc:
        raise InputFormatError(f"malformed {kind} file {path}: {exc}")


def load_observable_file(path: str) -> tuple[SpaceConfig, Statistics | None, np.ndarray]:
    with _reading(path, "observable") as blob:
        space = SpaceConfig(blob["d"], blob["N"])
        stats = Statistics.parse(blob["statistics"]) \
            if "statistics" in blob else None
        matrix = require_hermitian(
            _entries_matrix(blob["entries"], space.total_dim), "observable")
    matrix.setflags(write=False)    # so frozen_copy adopts it: no copies
    return space, stats, matrix


def load_state_file(path: str) -> tuple[SpaceConfig, DensityOperator]:
    with _reading(path, "state") as blob:
        space = SpaceConfig(blob["d"], blob["N"])
        if "amplitudes" in blob:
            amps = np.array([_finite_complex(re, im, f"amplitude {idx}")
                             for idx, (re, im)
                             in enumerate(blob["amplitudes"])])
            state = StateVector(space, amps)
            return space, DensityOperator.from_pure(state)
        matrix = _entries_matrix(blob["entries"], space.total_dim)
        return space, DensityOperator.from_matrix(space, matrix)


def save_observable_json(path: str, space: SpaceConfig, stats: Statistics,
                         matrix: np.ndarray) -> None:
    rows, cols = np.nonzero(np.abs(matrix) > 1e-15)
    values = matrix[rows, cols].astype(np.complex128).tolist()
    blob = {"d": space.d, "N": space.n, "statistics": stats.value,
            "entries": [[row, col, val.real, val.imag] for row, col, val
                        in zip(rows.tolist(), cols.tolist(), values)]}
    _write(json.dumps(blob, indent=1) + "\n", path)


def save_state_json(path: str, state: StateVector) -> None:
    blob = {"d": state.space.d, "N": state.space.n,
            "amplitudes": [[float(a.real), float(a.imag)]
                           for a in state.amplitudes]}
    _write(json.dumps(blob, indent=1) + "\n", path)


def _parse_partition(args, n: int) -> tuple[int, Partition | None]:
    if args.partition:
        try:
            parts = tuple(int(p) for p in args.partition.split(","))
            partition = Partition(parts)
        except ValueError as exc:
            raise InputFormatError(f"bad --partition {args.partition!r}: {exc}")
        if partition.n != n:
            raise InputFormatError(
                f"partition {args.partition} does not sum to N={n}")
        return partition.k, partition
    if args.k is not None:
        if not 1 <= args.k <= n:
            raise InputFormatError(f"--k must be in 1..{n}")
        return args.k, None
    raise InputFormatError("one of --k or --partition is required")


# ---------------------------------------------------------------------------
# fig1: noise thresholds of the balanced family

_FIG1_PANELS = (("SR>1", Statistics.DISTINGUISHABLE, 1),
                ("SR>2", Statistics.DISTINGUISHABLE, 2),
                ("Boson", Statistics.BOSON, None),
                ("Fermion", Statistics.FERMION, None))
_FIG1_GRID_STEP = 1e-3     # noise grid of the --verify threshold scan


def _fig1_rows(d_min: int, d_max: int, verify: bool, starts: int,
               seed: int) -> list[dict]:
    rows = []
    for d in range(d_min, d_max + 1):
        for panel, stats, level in _FIG1_PANELS:
            selector = level if level is not None else stats
            bound, dim = fig1_bound(d, selector)
            p_star = detection_threshold(d, selector)
            row = {"d": d, "panel": panel, "p_star": p_star,
                   "G": bound, "D": dim, "bound_source": "analytic",
                   "undetectable": p_star >= 1.0 - 1e-12}
            if verify:
                psi = fig1_state_family(d, stats)
                scan = _fig1_grid_scan(psi, stats, bound, _FIG1_GRID_STEP)
                row["p_star_scan"] = scan
                ok = abs(scan - p_star) <= _FIG1_GRID_STEP + 1e-12
                if level is None or level == 1:
                    observable = rank_one_observable(psi, stats)
                    problem = SevalueProblem(observable, stats,
                                             Partition((1, 1)), psi.space)
                    numeric = solve_sup_g(problem, starts=starts, seed=seed)
                    row["G_numeric"] = numeric.value
                    ok = ok and abs(numeric.value - bound) <= 1e-6
                else:
                    row["G_numeric"] = None
                row["verified"] = ok
            rows.append(row)
    return rows


def _fig1_grid_scan(psi: StateVector, stats: Statistics, bound: float,
                    step: float) -> float:
    """Smallest grid p whose noisy state is detected; 1.0 if none is.

    The noisy state is affine in p and the verdict compares the linear
    functional tr(rho L) with G, so the detected grid points form one
    interval that touches p = 0 or p = 1.  If p = 0 is detected it is the
    answer; otherwise the interval, if not empty, ends at p = 1, and the
    first detected index is found by bisection.  Every probe builds the
    noisy state and runs the full ``detect``.
    """
    observable = rank_one_observable(psi, stats)
    witness = Witness(observable=observable, stats=stats, space=psi.space,
                      k=2, bound=bound, partition=Partition((1, 1)),
                      form=WitnessForm.UPPER,
                      bound_source="analytic")
    count = int(round(1.0 / step))

    def detected(idx: int) -> bool:
        rho = noisy_state(psi, stats, min(idx * step, 1.0))
        return detect(rho, witness).entangled

    if detected(0):
        return 0.0
    if not detected(count):
        return 1.0
    lo, hi = 0, count
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if detected(mid):
            hi = mid
        else:
            lo = mid
    return hi * step


def _cmd_fig1(args) -> int:
    if not 2 <= args.d_min <= args.d_max <= 8:
        raise InputFormatError("need 2 <= d-min <= d-max <= 8")
    rows = _fig1_rows(args.d_min, args.d_max, args.verify, args.starts,
                      args.seed)
    columns = ["d", "panel", "p_star", "G", "D", "bound_source",
               "undetectable"]
    if args.verify:
        columns += ["p_star_scan", "G_numeric", "verified"]
    payload = {"command": "fig1", "d_min": args.d_min, "d_max": args.d_max,
               "seed": args.seed, "verify": args.verify}
    _emit(payload, columns, rows, args)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# fig2: dephasing sweep of the interference signal

def _delta_star(r: float, k: int) -> float | None:
    """Largest delta in [0, pi] with 2(1-r^2) r sinc(delta) above the
    K-separability line, by bisection; None when never above."""
    target = 0.5 ** (k - 1)
    if ghz_expectation(r, 0.0) <= target:
        return None
    lo, hi = 0.0, math.pi
    if ghz_expectation(r, hi) > target:
        return hi
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if ghz_expectation(r, mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _cmd_fig2(args) -> int:
    if args.n > 6:
        raise InputFormatError("N must be <= 6")
    if not 0.0 <= args.r < 1.0:
        raise InputFormatError("r must be in [0, 1)")
    k_max = args.k_max if args.k_max is not None else min(args.n, 5)
    if not 2 <= k_max <= args.n:
        raise InputFormatError(f"k-max must be in 2..{args.n}")
    if args.delta_steps < 2:
        raise InputFormatError("delta-steps must be >= 2")
    deltas = [idx * math.pi / (args.delta_steps - 1)
              for idx in range(args.delta_steps)]
    numeric = None
    tail = None
    if args.verify:
        if args.n > 3:
            raise InputFormatError("numeric verification needs N <= 3")
        family = GhzFamily(args.n, args.r, Statistics.BOSON, n_max=8)
        tail = family.tail_bound
        observable = interference_observable(family.space, Statistics.BOSON)
        numeric = [expectation(dephased_ghz(family, delta), observable)
                   for delta in deltas]
    crossing_k2 = _delta_star(args.r, 2)
    rows = []
    for idx, delta in enumerate(deltas):
        signal = ghz_expectation(args.r, delta)
        row = {"delta": delta, "expectation": signal,
               "bound_source": "analytic", "delta_star_k2": crossing_k2}
        for k in range(2, k_max + 1):
            row[f"not_{k}_separable"] = signal > 0.5 ** (k - 1) + 1e-9
        if numeric is not None:
            row["expectation_numeric"] = numeric[idx]
            row["tail_bound"] = tail
        rows.append(row)
    payload = {"command": "fig2", "N": args.n, "r": args.r, "k_max": k_max,
               "delta_steps": args.delta_steps, "verify": args.verify,
               "delta_star": {str(k): _delta_star(args.r, k)
                              for k in range(2, k_max + 1)}}
    columns = ["delta", "expectation", "bound_source", "delta_star_k2"] + \
        [f"not_{k}_separable" for k in range(2, k_max + 1)]
    if numeric is not None:
        columns += ["expectation_numeric", "tail_bound"]
    _emit(payload, columns, rows, args)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# sevalue: bound of an observable file

def _cmd_sevalue(args) -> int:
    space, file_stats, matrix = load_observable_file(args.observable)
    stats = Statistics.parse(args.stats) if args.stats else file_stats
    if stats is None:
        raise InputFormatError("no statistics in file; pass --stats")
    k, partition = _parse_partition(args, space.n)
    partitions = (partition,) if partition is not None \
        else partitions_into(space.n, k)
    # the oracle's budget is checked before any solve is spent
    check_count(args.oracle_samples, "samples")
    per_partition = []
    best = None
    any_converged = False
    for part in partitions:
        problem = SevalueProblem(matrix, stats, part, space)
        try:
            result = solve_sup_g(problem, starts=args.starts, seed=args.seed,
                                 tol=args.tol)
            oracle = brute_force_bound(problem, samples=args.oracle_samples,
                                       seed=args.seed)
        except ConvergenceError as exc:
            per_partition.append({"partition": str(part), "error": str(exc)})
            continue
        finally:
            del problem     # with its sector data, before the next is built
        any_converged = True
        groups = {}
        for sol in result.solutions:
            if not sol.converged:
                continue
            key = format(sol.value, ".10g")
            groups.setdefault(key, []).append(sol)
        sweeps = collections.Counter(s.sweeps for s in result.solutions)
        per_partition.append({
            "partition": str(part),
            "G": result.value,
            "bound_source": "numeric",
            "oracle_bound": oracle,
            "fraction_at_G": result.fraction_at_value,
            "n_converged": result.n_converged,
            "n_failed": result.n_failed,
            "max_residual": max(s.residual for s in result.solutions
                                if s.converged),
            "distinct_values": sorted(
                ({"g": float(key), "count": len(sols),
                  "residual_max": max(s.residual for s in sols)}
                 for key, sols in groups.items()),
                key=lambda item: -item["g"]),
            "sweep_histogram": [{"sweeps": n, "starts": sweeps[n]}
                                for n in sorted(sweeps)],
            "sweep_limit_hits": sum(
                1 for s in result.solutions
                if not s.converged and s.sweeps >= MAX_SWEEPS),
        })
        if best is None or result.value > best:
            best = result.value
    if not any_converged:
        sys.stderr.write("sevalue: no start converged on any partition\n")
        return _EXIT_NUMERICAL
    rows = [{key: val for key, val in entry.items()
             if key not in ("distinct_values", "sweep_histogram",
                            "sweep_limit_hits")}
            for entry in per_partition]
    payload = {"command": "sevalue", "observable": args.observable,
               "statistics": stats.value, "K": k, "G": best,
               "seed": args.seed, "starts": args.starts, "tol": args.tol,
               "oracle_samples": args.oracle_samples,
               "bound_source": "numeric",
               "partitions": per_partition}
    columns = ["partition", "G", "bound_source", "oracle_bound",
               "fraction_at_G", "n_converged", "n_failed", "max_residual"]
    _emit(payload, columns, rows, args)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# witness: verdict for a state against an observable

def _cmd_witness(args) -> int:
    state_space, rho = load_state_file(args.state)
    obs_space, file_stats, matrix = load_observable_file(args.observable)
    if state_space != obs_space:
        raise InputFormatError(
            f"dimension mismatch: state {state_space}, observable {obs_space}")
    stats = Statistics.parse(args.stats) if args.stats else file_stats
    if stats is None:
        raise InputFormatError("no statistics in file; pass --stats")
    k, partition = _parse_partition(args, state_space.n)
    if partition is not None:
        witness = build_witness(
            SevalueProblem(matrix, stats, partition, state_space),
            "numeric", starts=args.starts, seed=args.seed, tol=args.tol)
    else:
        witness = build_k_witness(matrix, stats, state_space, k, "numeric",
                                  starts=args.starts, seed=args.seed,
                                  tol=args.tol)
    verdict = detect(rho, witness)
    payload = {"command": "witness", "state": args.state,
               "observable": args.observable, "statistics": stats.value,
               "K": k, "partition": str(partition) if partition else None,
               "seed": args.seed, "starts": args.starts,
               "bound_source": "numeric"}
    rows = [{"expectation": verdict.expectation, "G": verdict.bound,
             "margin": verdict.margin, "verdict": verdict.verdict,
             "bound_source": "numeric"}]
    _emit(payload, ["expectation", "G", "margin", "verdict", "bound_source"],
          rows, args)
    return _EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepwit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--seed": dict(type=int, default=0,
                       help="seed; fully determines stochastic output"),
        "--starts": dict(type=int, default=DEFAULT_STARTS,
                         help="multistart count for the sweep solver"),
        "--tol": dict(type=float, default=RESIDUAL_TOL,
                      help="residual tolerance of the sweep solver"),
        "--verify": dict(action="store_true",
                         help="run the independent cross-checks"),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--out": dict(default=None, help="write output to PATH"),
    }

    def common(p, *flags):
        for flag in flags + ("--format", "--out"):
            p.add_argument(flag, **shared[flag])

    p1 = sub.add_parser("fig1", help="noise thresholds of the balanced "
                                     "two-particle family")
    p1.add_argument("--d-min", type=int, default=2)
    p1.add_argument("--d-max", type=int, default=8)
    common(p1, "--seed", "--starts", "--verify")
    p1.set_defaults(func=_cmd_fig1)

    p2 = sub.add_parser("fig2", help="dephasing sweep of the GHZ-type "
                                     "interference signal")
    p2.add_argument("--n", type=int, default=5, help="particle count")
    p2.add_argument("--r", type=float, default=1.0 / math.sqrt(3.0),
                    help="amplitude of the geometric family")
    p2.add_argument("--k-max", type=int, default=None)
    p2.add_argument("--delta-steps", type=int, default=25)
    common(p2, "--verify")
    p2.set_defaults(func=_cmd_fig2)

    p3 = sub.add_parser("sevalue", help="separable bound of an observable "
                                        "file")
    p3.add_argument("observable")
    p3.add_argument("--stats", default=None,
                    help="override the statistics recorded in the file")
    p3.add_argument("--k", type=int, default=None,
                    help="bound against K-separability (max over partitions)")
    p3.add_argument("--partition", default=None,
                    help="specific partition, e.g. 2,1")
    p3.add_argument("--oracle-samples", type=int, default=10_000)
    common(p3, "--seed", "--starts", "--tol")
    p3.set_defaults(func=_cmd_sevalue)

    p4 = sub.add_parser("witness", help="entanglement verdict for a state "
                                        "file")
    p4.add_argument("state")
    p4.add_argument("observable")
    p4.add_argument("--stats", default=None)
    p4.add_argument("--k", type=int, default=None)
    p4.add_argument("--partition", default=None)
    common(p4, "--seed", "--starts", "--tol")
    p4.set_defaults(func=_cmd_witness)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        sys.stderr.write(f"sepwit: {exc}\n")
        return _EXIT_NUMERICAL
    except (SepwitError, ValueError) as exc:
        sys.stderr.write(f"sepwit: {exc}\n")
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
