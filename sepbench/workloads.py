"""The benchmark's workloads: inputs made from the seed, the timed calls
into ``sepwit``, and the correctness check of every bound they produce.

A workload is built once per worker process (this is the set-up that
``setup_s`` times) into a list of passes; pass i of a solver or oracle
workload draws its solver or oracle seeds from (seed, i), while every
cli pass repeats the same commands, so their outputs must match byte
for byte.  A pass is a list of cases; the benchmark times whole passes.
Every case returns its bounds, written to 12 significant digits, so two
runs of one commit can be compared exactly, and the reason it failed,
if it did.  The oracle and cli cases draw their seeds from a pool of
``SEED_POOL`` values, and references.json records the bounds each of
them gives, so every such bound is checked against the value recorded
for its seed: a change that moves one fails the case.  Run this file
to record them again (see ``record_references``).  README.md says why
each workload was chosen and which layer metrics it is meant to move.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import sepwit
from sepwit import cli, operators, solver
from sepwit.tensor import SpaceConfig, Statistics

BOSON, FERMION, DIST = (Statistics.BOSON, Statistics.FERMION,
                        Statistics.DISTINGUISHABLE)

REFERENCES = Path(__file__).resolve().parent / "references.json"
# read once, in the set-up, so the timed passes only look bounds up
_RECORDED = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
# the oracle and cli cases take their seeds from range(SEED_POOL)
SEED_POOL = 16
# set by record_references: bounds are collected here instead of checked
_recording: dict[str, list[str]] | None = None


@dataclass
class Outcome:
    bounds: list[str]
    error: str | None = None
    oracle_gap: float | None = None


@dataclass
class Case:
    label: str
    run: Callable[[], Outcome]


def _g(value: float) -> str:
    return format(float(value), ".12g")


def _guarded(label: str, body: Callable[[], Outcome]) -> Case:
    """A case whose exceptions are recorded as failures, not raised."""
    def run() -> Outcome:
        try:
            return body()
        except Exception as exc:
            return Outcome([], f"{label}: {type(exc).__name__}: {exc}")
    return Case(label, run)


def _split(bound: str) -> tuple[str, float]:
    name, _, value = bound.rpartition("=")
    return name, float(value)


def against_reference(key: str, bounds: list[str]) -> str | None:
    """Why ``bounds`` differ from those recorded under ``key`` by more
    than 1e-9 (relative to values above 1), or None if they do not."""
    if _recording is not None:
        _recording[key] = bounds
        return None
    recorded = _RECORDED.get(key)
    if recorded is None:
        return f"{key}: no recorded bounds"
    got, want = [_split(b) for b in bounds], [_split(b) for b in recorded]
    if len(got) != len(want) or any(
            name != ref_name or abs(value - ref) > 1e-9 * max(1.0, abs(ref))
            for (name, value), (ref_name, ref) in zip(got, want)):
        return f"{key}: bounds {bounds} differ from the recorded {recorded}"
    return None


def _interference_reference(stats: Statistics, parts: tuple[int, ...]) -> float:
    """Separable supremum of the interference observable.

    (1/2)**(K-1), except for fermion partitions with two blocks of equal
    even size, where exact product states reach 1 (see
    ``sepwit.solver.analytic_interference``)."""
    evens = [p for p in parts if p >= 2 and p % 2 == 0]
    if stats is FERMION and any(evens.count(p) >= 2 for p in set(evens)):
        return 1.0
    return 0.5 ** (len(parts) - 1)


# ---------------------------------------------------------------------------
# multipartite: large block-sector party spaces

# (statistics, partition) at N=4, d=8: party blocks of 512, 64 and 8
# modes over a 4096-mode product space.  From any start these converge
# in two sweeps to (1/2)**(K-1), so a pass does the same work for every
# seed.  Boson single starts took 16 to 264 sweeps and once stopped at a
# lower stationary value.
_MULTIPARTITE = ((FERMION, (3, 1)), (DIST, (3, 1)), (FERMION, (2, 1, 1)),
                 (DIST, (2, 2)))


def _interference_problem(space: SpaceConfig, stats: Statistics,
                          parts: tuple[int, ...]) -> sepwit.SevalueProblem:
    return sepwit.SevalueProblem(
        operators.interference_observable(space, stats), stats,
        sepwit.Partition(parts), space)


def _label(problem: sepwit.SevalueProblem) -> str:
    return (f"{problem.stats.value}-N{problem.space.n}-"
            f"({problem.partition})")


def _multipartite_case(problem, seed) -> Case:
    reference = _interference_reference(problem.stats,
                                        problem.partition.parts)
    label = _label(problem)

    def body() -> Outcome:
        # the tolerances of acceptance criterion 2, whose check is 1e-6
        value = solver.solve_sup_g(problem, starts=1, seed=seed,
                                   tol=1e-8, value_tol=1e-9).value
        error = None
        if abs(value - reference) > 1e-6:
            error = (f"{label}: G {_g(value)} differs from {_g(reference)} "
                     f"by more than 1e-6")
        return Outcome([f"{label}={_g(value)}"], error)

    return _guarded(label, body)


def multipartite(seed: int, passes: int, tiny: bool,
                 workdir: Path) -> list[list[Case]]:
    space = SpaceConfig(6, 3) if tiny else SpaceConfig(8, 4)
    problems = [_interference_problem(space, stats, parts) for stats, parts
                in (((FERMION, (2, 1)),) if tiny else _MULTIPARTITE)]
    out = []
    for index in range(passes):
        rng = np.random.default_rng([seed, index])
        out.append([_multipartite_case(problem, int(rng.integers(2 ** 31)))
                    for problem in problems])
    return out


# ---------------------------------------------------------------------------
# oracle: the sampling lower bound, no solver

_ORACLE_PARTS = ((4,), (2, 2))


def _oracle_case(problem, samples, seed) -> Case:
    reference = _interference_reference(problem.stats,
                                        problem.partition.parts)
    label = _label(problem)

    def body() -> Outcome:
        value = solver.brute_force_bound(problem, samples=samples, seed=seed)
        bounds = [f"{label}={_g(value)}"]
        error = against_reference(
            f"brute_force_bound {label} samples={samples} seed={seed}", bounds)
        if value > reference + 1e-9:
            error = (f"{label}: oracle {_g(value)} above the supremum "
                     f"{_g(reference)}")
        return Outcome(bounds, error, reference - value)

    return _guarded(label, body)


def _oracle_cases(tiny: bool) -> list[Callable[[int], Case]]:
    """One case maker per oracle problem, taking the oracle seed."""
    space = SpaceConfig(6, 3) if tiny else SpaceConfig(8, 4)
    samples = 200 if tiny else 3_000
    problems = [_interference_problem(space, stats, parts)
                for stats in (DIST, BOSON, FERMION)
                for parts in (((3,), (2, 1)) if tiny else _ORACLE_PARTS)]
    return [lambda s, p=problem: _oracle_case(p, samples, s)
            for problem in problems]


def oracle(seed: int, passes: int, tiny: bool,
           workdir: Path) -> list[list[Case]]:
    makers = _oracle_cases(tiny)
    out = []
    for index in range(passes):
        rng = np.random.default_rng([seed, index])
        out.append([make(int(rng.integers(SEED_POOL))) for make in makers])
    return out


# ---------------------------------------------------------------------------
# cli: whole user commands, in process

def _cli_inputs(workdir: Path) -> None:
    data = Path(sepwit.__file__).parent / "data"
    for name in ("interference_N3.json", "bell_boson_d3.json"):
        shutil.copyfile(data / name, workdir / name)
    cli.save_state_json(str(workdir / "bell_state.json"),
                        sepwit.fig1_state_family(3, BOSON))


def _cli_case(workdir: Path, label: str, argv: list[str],
              check: Callable[[dict], tuple[list[str], str | None, float | None]],
              digests: dict[str, str]) -> Case:
    out = workdir / f"{label}.json"

    def body() -> Outcome:
        # file names are relative to the work directory (the worker's
        # current directory), so outputs do not depend on where it is
        code = cli.main(argv + ["--out", out.name])
        if code != 0:
            return Outcome([], f"{label}: exit code {code}")
        raw = out.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        bounds, error, gap = check(json.loads(raw))
        error = error or against_reference(" ".join(argv), bounds)
        # every pass runs the same commands with the same seed
        if digests.setdefault(label, digest) != digest:
            error = error or f"{label}: output differs from the first pass"
        return Outcome(bounds + [f"{label}.sha256={digest[:16]}"], error, gap)

    return _guarded(label, body)


def _check_sevalue(label: str, reference: float):
    def check(payload):
        value = payload["G"]
        gaps = [reference - part["oracle_bound"]
                for part in payload["partitions"]]
        error = None
        if abs(value - reference) > 1e-6:
            error = f"{label}: G {_g(value)} is not {_g(reference)}"
        elif min(gaps) < -1e-9:
            error = f"{label}: oracle above G"
        return ([f"{label}.G={_g(value)}"]
                + [f"{label}.oracle={_g(part['oracle_bound'])}"
                   for part in payload["partitions"]],
                error, sum(gaps) / len(gaps))
    return check


def _check_witness(payload):
    row = payload["rows"][0]
    error = None
    if row["verdict"] != "entangled":
        error = f"witness: verdict {row['verdict']}"
    elif abs(row["G"] - 2.0 / 3.0) > 1e-6:
        error = f"witness: G {_g(row['G'])} is not 2/3"
    return [f"witness.G={_g(row['G'])}",
            f"witness.expectation={_g(row['expectation'])}"], error, None


def _check_fig1(payload):
    rows = payload["rows"]
    bad = [f"d={row['d']} {row['panel']}" for row in rows
           if row["verified"] is not True]
    error = f"fig1: rows not verified: {', '.join(bad)}" if bad else None
    return ([f"fig1.d{row['d']}.{row['panel']}.G_numeric="
             f"{_g(row['G_numeric'])}" for row in rows
             if row["G_numeric"] is not None], error, None)


def cli_commands(seed: int, tiny: bool) -> list[tuple[str, list[str], Callable]]:
    # 16 starts instead of 64 and d = 2..3 keep a pass near 4 s, so a
    # run times six or more and its median pass rides out the host's
    # swings; the undetectable fermion rows still scan the whole
    # 1001-point grid
    common = ["--seed", str(seed), "--starts", "4" if tiny else "16"]
    fig1 = ["fig1", "--verify", "--d-max", "3"]
    sevalue_n3 = ["sevalue", "interference_N3.json", "--k", "2"] \
        + (["--oracle-samples", "200"] if tiny else [])
    return [
        ("sevalue_interference", sevalue_n3 + common,
         _check_sevalue("sevalue_interference", 0.5)),
        ("sevalue_bell", ["sevalue", "bell_boson_d3.json", "--k", "2"]
         + common, _check_sevalue("sevalue_bell", 2.0 / 3.0)),
        ("witness", ["witness", "bell_state.json", "bell_boson_d3.json",
                     "--k", "2"] + common, _check_witness),
        ("fig1", fig1 + common, _check_fig1),
    ]


def cli_workload(seed: int, passes: int, tiny: bool,
                 workdir: Path) -> list[list[Case]]:
    _cli_inputs(workdir)
    cli_seed = int(np.random.default_rng(seed).integers(SEED_POOL))
    digests: dict[str, str] = {}
    return [[_cli_case(workdir, label, argv, check, digests)
             for label, argv, check in cli_commands(cli_seed, tiny)]
            for _index in range(passes)]


WORKLOADS = {
    "multipartite": multipartite,
    "oracle": oracle,
    "cli": cli_workload,
}


def record_references() -> dict[str, list[str]]:
    """Run every oracle and cli case for every pooled seed, full size and
    tiny, and return their bounds keyed as ``against_reference`` looks
    them up."""
    global _recording
    _recording = {}
    cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            for tiny in (False, True):
                makers = _oracle_cases(tiny)
                cases = [make(s) for s in range(SEED_POOL) for make in makers]
                _cli_inputs(Path(workdir))
                cases += [_cli_case(Path(workdir), label, argv, check, {})
                          for s in range(SEED_POOL)
                          for label, argv, check in cli_commands(s, tiny)]
                for case in cases:
                    error = case.run().error
                    if error is not None:
                        raise RuntimeError(error)
        return _recording
    finally:
        os.chdir(cwd)
        _recording = None


if __name__ == "__main__":
    # from the root of a checkout:
    #   PYTHONPATH=src python3 sepbench/workloads.py
    # rewrites references.json; do so only when a change to the program
    # is meant to move the bounds
    table = record_references()
    REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"{len(table)} keys written to {REFERENCES}\n")
