"""Soundness battery: one fixed list of solves run by two source trees.

    python tools/battery.py --parent OLD --change NEW

OLD and NEW are checkouts of this repository.  Each tree's ``src`` is
imported by its own interpreter, which solves every problem of
``problems()`` with ``solve_sup_g`` and reports, per problem, G, the
per-start values, sweeps, residuals and converged flags, or the error
raised, and on every max-mode problem the sampling oracle's
``brute_force_bound`` at ORACLE_SAMPLES samples and the problem's seed.
Every solved problem also reports ``expectation`` of the best
solution's state, ``DensityOperator.from_pure(best.projected_vector)``,
against its observable, which ties the witness layer to the solver's G.
The problems are fixed: the interference observable at N=3, d=6 and
at N=4, d=8 on every statistics and every partition, and random dense
and low-rank observables at small sizes, in max and min mode, each
solved from seeds 0, 5 and 55.

The script prints one line per problem (G, total sweeps, sweep-limit
hits, the oracle bound and time on each side), the largest differences
of G, of the residuals and of the oracle bounds, and the time the
oracle took.  It exits 1 where, on some problem, G is worse on the
change side by more than 1e-9 (lower in max mode, higher in min
mode), a sweep count or converged count differs, the raised error
differs, a start's residual r moves by more than max(1e-6 |r|, 1e-12),
an oracle bound moves by more than 1e-9 (relative to bounds above 1,
the rule of ``sepbench/references.json``), or, on either side, the
expectation of the best solution's state differs from that side's G
by more than 1e-9 (the same rule).  It writes no file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

G_TOL = 1e-9
RESIDUAL_RTOL, RESIDUAL_ATOL = 1e-6, 1e-12
ORACLE_TOL = 1e-9
EXPECTATION_TOL = 1e-9
ORACLE_SAMPLES = 2000
SEEDS = (0, 5, 55)
STARTS = 4


def problems():
    """(name, build, mode, seed) per problem; ``build()`` makes the
    SevalueProblem from the imported tree's public API alone."""
    import numpy as np

    from sepwit import (LowRankObservable, Partition, SevalueProblem,
                        SpaceConfig, Statistics, interference_observable,
                        partitions_into)

    def interference(space, stats, parts):
        return lambda: SevalueProblem(interference_observable(space, stats),
                                      stats, Partition(parts), space)

    def random(kind, space, stats, parts, key):
        def build():
            rng = np.random.default_rng(key)
            dim = space.total_dim
            draw = (lambda *shape: rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape))
            if kind == "dense":
                mat = draw(dim, dim)
                operator = (mat + mat.conj().T) / 2.0
            else:
                k1, k2, b2 = (draw(dim) for _ in range(3))
                c2 = complex(draw(1)[0])
                operator = LowRankObservable(space, (
                    (0.7, k1, k1), (c2, k2, b2), (c2.conjugate(), b2, k2)))
            return SevalueProblem(operator, stats, Partition(parts), space)
        return build

    out = []
    for (d, n), modes in (((6, 3), ("max", "min")), ((8, 4), ("max",))):
        space = SpaceConfig(d, n)
        for stats in Statistics:
            for k in range(1, n + 1):
                for part in partitions_into(n, k):
                    for mode in modes:
                        out += [(f"interference {stats.name.lower()} "
                                 f"N={n} d={d} ({part}) {mode} seed={seed}",
                                 interference(space, stats, part.parts),
                                 mode, seed) for seed in SEEDS]
    randoms = (("dense", (3, 2), ((1, 1),)),
               ("dense", (3, 3), ((2, 1), (1, 1, 1))),
               ("low-rank", (4, 2), ((1, 1),)),
               ("low-rank", (4, 3), ((2, 1), (1, 1, 1))),
               ("low-rank", (4, 4), ((2, 2), (3, 1))))
    for key, (kind, (d, n), parts_list) in enumerate(randoms):
        space = SpaceConfig(d, n)
        for stats in Statistics:
            for parts in parts_list:
                for mode in ("max", "min"):
                    out += [(f"{kind} {stats.name.lower()} N={n} d={d} "
                             f"({','.join(map(str, parts))}) {mode} "
                             f"seed={seed}",
                             random(kind, space, stats, parts, [key, n]),
                             mode, seed) for seed in SEEDS]
    return out


def solve_all() -> list[dict]:
    """Every problem's record, solved by the ``sepwit`` on sys.path."""
    from sepwit import (DensityOperator, brute_force_bound, expectation,
                        solve_sup_g)
    from sepwit.errors import SepwitError
    from sepwit.solver import MAX_SWEEPS

    records = []
    for name, build, mode, seed in problems():
        problem = build()
        began = time.perf_counter()
        record = {"name": name}
        try:
            result = solve_sup_g(problem, starts=STARTS, seed=seed, mode=mode)
        except SepwitError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            sols = result.solutions
            record.update(
                G=result.value, n_converged=result.n_converged,
                values=[s.value for s in sols],
                sweeps=[s.sweeps for s in sols],
                residuals=[s.residual for s in sols],
                converged=[s.converged for s in sols],
                limit_hits=sum(s.sweeps >= MAX_SWEEPS for s in sols),
                expectation=expectation(DensityOperator.from_pure(
                    result.best.projected_vector), problem.operator))
        record["time_s"] = time.perf_counter() - began
        if mode == "max":
            began = time.perf_counter()
            record["oracle"] = brute_force_bound(problem, ORACLE_SAMPLES, seed)
            record["oracle_s"] = time.perf_counter() - began
        records.append(record)
    return records


def run_tree(root: str) -> list[dict]:
    """The records of the tree at ``root``, from a fresh interpreter that
    imports that tree's ``src`` and writes no bytecode."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    done = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--worker"], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def compare(parent: list[dict], change: list[dict]) -> list[str]:
    """Print one line per problem and the largest differences; return
    the faults found."""
    faults, worst_g, worst_res, worst_oracle = [], 0.0, 0.0, 0.0
    worst_exp = 0.0
    for old, new in zip(parent, change):
        name = old["name"]
        minimise = name.split()[-2] == "min"
        if "error" in old or "error" in new:
            line = (f"{name}: {old.get('error', old.get('G'))} | "
                    f"{new.get('error', new.get('G'))}")
            if old.get("error") != new.get("error"):
                faults.append(f"{name}: raised error differs")
        else:
            gap = new["G"] - old["G"]
            worst_g = max(worst_g, abs(gap))
            for start, (a, b) in enumerate(zip(old["residuals"],
                                               new["residuals"])):
                worst_res = max(worst_res, abs(a - b))
                if abs(a - b) > max(RESIDUAL_RTOL * abs(a), RESIDUAL_ATOL):
                    faults.append(f"{name}: start {start} residual {a:.3g} "
                                  f"-> {b:.3g}")
            line = (f"{name}: G {old['G']:.15g} | {new['G']:.15g}, sweeps "
                    f"{sum(old['sweeps'])} | {sum(new['sweeps'])}, limit "
                    f"hits {old['limit_hits']} | {new['limit_hits']}")
            if (gap > G_TOL) if minimise else (gap < -G_TOL):
                faults.append(f"{name}: G worse by {abs(gap):.3g}")
            if old["sweeps"] != new["sweeps"]:
                faults.append(f"{name}: sweeps {old['sweeps']} -> "
                              f"{new['sweeps']}")
            if old["n_converged"] != new["n_converged"]:
                faults.append(f"{name}: converged {old['n_converged']} -> "
                              f"{new['n_converged']}")
            for side, record in (("parent", old), ("change", new)):
                miss = record["expectation"] - record["G"]
                worst_exp = max(worst_exp, abs(miss))
                if abs(miss) > EXPECTATION_TOL * max(1.0, abs(record["G"])):
                    faults.append(f"{name}: {side} expectation of the best "
                                  f"state is off G by {miss:.3g}")
        if "oracle" in old:
            bound, drift = old["oracle"], new["oracle"] - old["oracle"]
            worst_oracle = max(worst_oracle, abs(drift))
            line += f", oracle {bound:.12g} | {new['oracle']:.12g}"
            if abs(drift) > ORACLE_TOL * max(1.0, abs(bound)):
                faults.append(f"{name}: oracle bound moved by {drift:.3g}")
        print(f"{line}, time {old['time_s']:.3f} | {new['time_s']:.3f} s")
    print(f"{len(parent)} problems; largest |dG| {worst_g:.3g}, largest "
          f"|d residual| {worst_res:.3g}, largest |d oracle| "
          f"{worst_oracle:.3g}, largest |<L> - G| {worst_exp:.3g}; solve "
          f"time {sum(r['time_s'] for r in parent):.2f} | "
          f"{sum(r['time_s'] for r in change):.2f} s, oracle time "
          f"{sum(r.get('oracle_s', 0.0) for r in parent):.2f} | "
          f"{sum(r.get('oracle_s', 0.0) for r in change):.2f} s")
    return faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="source tree of the parent")
    parser.add_argument("--change", help="source tree of the change")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(solve_all(), sys.stdout)
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    faults = compare(run_tree(args.parent), run_tree(args.change))
    for fault in faults:
        print(f"FAULT {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
