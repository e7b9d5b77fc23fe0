"""Layer boundaries of ``sepwit`` traced in the benchmark's traced run,
and the per-layer metrics derived from the recorded spans.

Each boundary is a public function, wrapped at every module attribute
that holds it, so calls made from inside the package are traced as well
as calls made by the benchmark.  ``decompositions`` is not traced: it
only runs sub-millisecond two-particle reference factorizations.
"""

from __future__ import annotations

import statistics

import numpy as np

import sepwit
from sepwit import cli, operators, sectors, solver, states, tensor, witness

from tracer import Span, Tracer, self_times

_MODULES = (sepwit, solver, tensor, sectors, operators, witness, states, cli)


def _holders(home):
    return [home] + [mod for mod in _MODULES if mod is not home]


def _arg(args, kwargs, position, name, default=None):
    return args[position] if len(args) > position else kwargs.get(name, default)


def _solve_before(args, kwargs):
    return {"starts": _arg(args, kwargs, 1, "starts", solver.DEFAULT_STARTS)}


def _solve_after(span: Span, result) -> None:
    sols = result.solutions
    span.attrs.update(
        sweeps=[s.sweeps for s in sols],
        attempted=len(sols) + result.n_failed,
        converged=result.n_converged,
        limit_hits=sum(1 for s in sols if not s.converged))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary; undo with ``tracer.uninstall``."""
    tracer.patch([np], "einsum", "linalg.einsum")
    tracer.patch([np.linalg], "eigh", "linalg.eigh",
                 before=lambda a, k: {"dim": np.shape(_arg(a, k, 0, "a"))[-1]})
    tracer.patch(_holders(tensor), "project_amplitudes",
                 "tensor.project_amplitudes",
                 before=lambda a, k: {
                     "bytes": np.asarray(_arg(a, k, 1, "amplitudes")).nbytes})
    tracer.patch(_holders(sectors), "sector_isometry",
                 "sectors.sector_isometry")
    tracer.patch([operators.LowRankObservable], "projected",
                 "operators.LowRankObservable.projected")
    tracer.patch(_holders(solver), "solve_sup_g", "solver.solve_sup_g",
                 before=_solve_before, after=_solve_after)
    tracer.patch(_holders(solver), "sweep_solve", "solver.sweep_solve")
    tracer.patch(_holders(solver), "brute_force_bound",
                 "solver.brute_force_bound",
                 before=lambda a, k: {"samples": _arg(a, k, 1, "samples")})
    tracer.patch(_holders(states), "noisy_state", "states.noisy_state")
    for name in ("detect", "expectation", "sector_deviation"):
        tracer.patch(_holders(witness), name, f"witness.{name}")
    for name in ("load_observable_file", "main"):
        tracer.patch([cli], name, f"cli.{name}")


def metrics(tracer: Tracer, traced_s: float,
            untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name: the
    calls, total time (``.s``) and self time (``.self_s``) of every
    traced boundary, and the figures derived from span attributes.

    ``traced_s`` is the traced pass's wall time and ``untraced_s`` the
    median untraced pass time of the same run, before any scaling."""
    spans = tracer.spans
    out: dict[str, float] = {}
    for name in tracer.names:
        out.update({f"{name}.calls": 0, f"{name}.s": 0.0,
                    f"{name}.self_s": 0.0})
    for span, own_s in zip(spans, self_times(spans)):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.s"] += span.duration
        out[f"{span.name}.self_s"] += own_s

    def named(name):
        return [span for span in spans if span.name == name]

    out["linalg.eigh.max_dim"] = max(
        (span.attrs["dim"] for span in named("linalg.eigh")), default=0)
    out["tensor.project_amplitudes.bytes"] = sum(
        span.attrs["bytes"] for span in named("tensor.project_amplitudes"))

    solves = named("solver.solve_sup_g")
    sweeps = [n for span in solves for n in span.attrs.get("sweeps", [])]
    out["solver.sweeps.total"] = sum(sweeps)
    out["solver.sweeps.p50"] = statistics.median(sweeps) if sweeps else 0
    out["solver.sweeps.max"] = max(sweeps, default=0)
    out["solver.sweep_limit_hits"] = sum(
        span.attrs.get("limit_hits", 0) for span in solves)
    out["solver.sweep_solve.zero_projection"] = sum(
        1 for span in named("solver.sweep_solve")
        if span.attrs.get("raised") == "ZeroProjectionError")
    # a solve that raised ConvergenceError converged on none of its starts
    attempted = sum(span.attrs.get("attempted", span.attrs["starts"])
                    for span in solves)
    converged = sum(span.attrs.get("converged", 0) for span in solves)
    out["unconverged_frac"] = \
        (attempted - converged) / attempted if attempted else 0.0

    samples = sum(span.attrs["samples"]
                  for span in named("solver.brute_force_bound"))
    oracle_s = out["solver.brute_force_bound.self_s"]
    out["oracle.samples_per_s"] = samples / oracle_s if oracle_s > 0 else 0.0

    top = sum(span.duration for span in spans if span.parent < 0)
    out["trace.top_level_coverage"] = top / traced_s if traced_s > 0 else 0.0
    out["trace.overhead_s"] = traced_s - untraced_s
    return out
