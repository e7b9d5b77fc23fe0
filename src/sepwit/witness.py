"""Witness construction, expectation values, and detection verdicts.

An upper-form witness is  W = G * P - P L P  with G the separable
bound: nonnegative on every K-separable state of the matching
statistics, negative somewhere exactly when the observable detects.
The equivalent scalar test used throughout is  <L> > G.  A lower-form
witness uses the smallest stationary quotient instead and detects
states with  <L> below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionCapError, SectorError
from .operators import LowRankObservable
from .solver import (DEFAULT_STARTS, Partition, SevalueProblem,
                     _column_norms_sq, analytic_interference,
                     analytic_rank_one, check_count, partitions_into,
                     solve_sup_g)
from .tensor import (MATRIX_CAP, DensityOperator, SpaceConfig, StateVector,
                     Statistics, project_amplitudes, project_operator,
                     require_int)
from .decompositions import schmidt

DETECTION_MARGIN = 1e-9
SECTOR_TOL = 1e-8


class WitnessForm(Enum):
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class Witness:
    """A separability bound packaged with its observable and provenance."""

    observable: LowRankObservable | np.ndarray
    stats: Statistics
    space: SpaceConfig
    k: int
    bound: float
    partition: Partition | None = None      # None: bound maximized over all
    form: WitnessForm = WitnessForm.UPPER
    bound_source: str = "analytic"
    margin: float = DETECTION_MARGIN

    def __post_init__(self):
        # a NaN bound makes every verdict "inconclusive", and a negative
        # margin calls states below the bound "entangled"
        if not math.isfinite(self.bound):
            raise ValueError(f"bound must be finite, got {self.bound}")
        if not 0.0 <= self.margin < math.inf:
            raise ValueError(f"margin must be finite and >= 0, got "
                             f"{self.margin}")


@dataclass(frozen=True)
class WitnessVerdict:
    verdict: str                 # "entangled" or "inconclusive"
    expectation: float
    bound: float
    margin: float
    k: int
    statistics: Statistics

    @property
    def entangled(self) -> bool:
        return self.verdict == "entangled"


def expectation(rho: DensityOperator, observable) -> float:
    """tr(rho X) for a Hermitian observable, real up to float noise.

    A mixture is evaluated on all its rows at once, without densifying;
    a low-rank observable through its ``eigen_form`` (c, X), as sum_t c_t
    <x_t|rho|x_t> from one product of X with the rows or the matrix,
    plus offset tr rho."""
    if isinstance(observable, LowRankObservable):
        if observable.space != rho.space:
            raise ValueError("dimension mismatch")
        coeffs, vectors = observable.eigen_form
        if rho.matrix is None:
            total = rho.weights @ (np.abs(rho.vectors @ vectors.conj()) ** 2
                                   @ coeffs)
        else:
            total = coeffs @ np.einsum("jt,jt->t", vectors.conj(),
                                       rho.matrix @ vectors)
        total += observable.offset * rho.trace()
    else:
        x = np.asarray(observable, dtype=np.complex128)
        if x.shape != (rho.space.total_dim,) * 2:
            raise ValueError("dimension mismatch")
        if rho.matrix is None:
            rows = rho.vectors
            total = rho.weights @ np.einsum("rj,rj->r", rows.conj() @ x, rows)
        else:
            total = np.einsum("ij,ji->", rho.matrix, x)
    total = complex(total)
    if abs(total.imag) > 1e-9 * max(1.0, abs(total)):
        raise ValueError(f"expectation has a large imaginary part "
                         f"({total.imag:.2e}); observable not Hermitian?")
    return float(total.real)


def sector_deviation(rho: DensityOperator, stats: Statistics) -> float:
    """How far the state sticks out of the exchange sector: for a
    mixture the largest 2-norm ||S S^H v_r - v_r|| of a unit row's
    component off the sector, and for a matrix the largest entry of
    rho - P rho P."""
    if not stats.is_projected:
        return 0.0
    if rho.matrix is None:
        # taken directly: by rounding alone, the root of ||v||^2 -
        # ||S^H v||^2 is about 1.5e-8 on an in-sector row, above SECTOR_TOL
        delta = project_amplitudes(stats, rho.vectors.T, rho.space)
        delta -= rho.vectors.T
        return float(np.sqrt(_column_norms_sq(delta).max(initial=0.0)))
    sandwiched = project_operator(stats, rho.matrix, rho.space)
    return float(np.abs(rho.matrix - sandwiched).max(initial=0.0))


def build_witness(problem: SevalueProblem, bound_source: str = "analytic", *,
                  form: WitnessForm = WitnessForm.UPPER,
                  starts: int = DEFAULT_STARTS, seed: int = 0,
                  **solver_kwargs) -> Witness:
    """Witness for one specific partition.

    ``bound_source`` picks how the separable bound is obtained:
    "analytic" (closed forms of the tagged interference observable and of
    one term c|psi><psi| on (1, 1)) or "numeric" (multistart sweeps).
    The sampling oracle is no source: its lower bound would let
    ``detect`` report false "entangled" verdicts, so it stays
    ``brute_force_bound``, for comparisons.
    """
    check_count(starts, "starts")
    check_count(seed, "seed", 0)
    mode = "max" if form is WitnessForm.UPPER else "min"
    if bound_source == "analytic":
        bound = _analytic_bound(problem, mode)
    elif bound_source == "numeric":
        result = solve_sup_g(problem, starts=starts, seed=seed, mode=mode,
                             **solver_kwargs)
        bound = result.value
    else:
        raise ValueError(f"unknown bound source {bound_source!r}")
    return Witness(observable=problem.operator, stats=problem.stats,
                   space=problem.space, k=problem.partition.k,
                   partition=problem.partition, bound=bound, form=form,
                   bound_source=bound_source)


def build_k_witness(operator, stats: Statistics, space: SpaceConfig, k: int,
                    bound_source: str = "numeric", *,
                    starts: int = DEFAULT_STARTS, seed: int = 0,
                    **solver_kwargs) -> Witness:
    """Witness against K-separability: the bound is maximized over every
    multiset-distinct partition into k parts."""
    bounds = []
    for p in partitions_into(space.n, k):
        # one problem at a time; keeps its frozen copy, not the caller's
        part = build_witness(SevalueProblem(operator, stats, p, space),
                             bound_source, starts=starts, seed=seed,
                             **solver_kwargs)
        operator = part.observable
        bounds.append(part.bound)
    return Witness(observable=operator, stats=stats, space=space, k=k,
                   partition=None, bound=max(bounds), form=WitnessForm.UPPER,
                   bound_source=bound_source)


def _analytic_bound(problem: SevalueProblem, mode: str) -> float:
    op = problem.operator
    unknown = ValueError("no analytic bound known for this observable; "
                         "use the numeric source")
    if not isinstance(op, LowRankObservable):
        raise unknown
    if op.kind == "interference":
        # the tag survives lambda1 L + lambda2 P: the bound scales by the
        # pair's common coefficient c where c > 0, and adds the offset
        scale, *others = {c for c, _, _ in op.terms}
        if others or scale.imag or not scale.real > 0.0:
            raise unknown
        if problem.stats is Statistics.FERMION and \
                sum(p >= 2 for p in problem.partition.parts) >= 2:
            # outside the proven domain of analytic_interference; exact
            # product states beat the balanced-family value on (2, 2)
            # and the solver finds more than it on (3, 2).  A too-small
            # bound would turn the witness into a false-positive detector.
            raise ValueError(
                "the balanced-family bound is proven the separable "
                "supremum for fermions only on partitions with at most "
                "one block of size >= 2; use the numeric source")
        analysis = analytic_interference(problem.space, problem.stats,
                                         problem.partition)
        bound = scale.real * analysis.bound
        return op.offset + (bound if mode == "max" else -bound)
    (coeff, ket, bra), *others = op.terms
    if others or not np.array_equal(ket, bra) \
            or problem.partition.parts != (1, 1):
        # the closed forms are those of c|psi><psi| alone: another
        # term can raise the separable bound above them
        raise unknown
    if np.linalg.norm(project_amplitudes(problem.stats, ket,
                                         problem.space)) < 1e-14:
        return op.offset    # c|psi><psi| is 0 on the sector: g = offset
    solutions = analytic_rank_one(StateVector(problem.space, ket),
                                  problem.stats)
    values = [s.value * coeff.real for s in solutions]
    # g = 0 is always attained (analytic lists omit trivial zeros)
    values.append(0.0)
    return op.offset + (max(values) if mode == "max" else min(values))


def witness_matrix(witness: Witness) -> np.ndarray:
    """Dense matrix of the witness operator, for small spaces: P(G 1 - L)P
    = G P - P L P, or P(L - G 1)P in the lower form.  A low-rank L is
    formed from its eigen-form and offset as the one shifted matrix, a
    temporary that ``project_operator`` reads once."""
    dim = witness.space.total_dim
    if dim > MATRIX_CAP:
        raise DimensionCapError(f"witness matrix side {dim} exceeds cap")
    observable = witness.observable
    if isinstance(observable, LowRankObservable):
        coeffs, vectors = observable.eigen_form
        shifted = (vectors * coeffs) @ vectors.conj().T
    else:
        shifted = np.array(observable, dtype=np.complex128)
    shifted[np.diag_indices(dim)] += getattr(observable, "offset", 0.0) \
        - witness.bound
    if witness.form is WitnessForm.UPPER:
        np.negative(shifted, out=shifted)
    return project_operator(witness.stats, shifted, witness.space)


def detect(rho: DensityOperator, witness: Witness) -> WitnessVerdict:
    """Entanglement verdict for a state against a witness.

    "entangled" means the state cannot be K-separable for the witness's
    statistics and K.  The state must live on the matching exchange
    sector; anything else is an input error, not a verdict.
    """
    if rho.space != witness.space:
        raise ValueError("dimension mismatch")
    deviation = sector_deviation(rho, witness.stats)
    if deviation > SECTOR_TOL:
        raise SectorError(
            f"state leaks out of the {witness.stats.value} sector "
            f"(deviation {deviation:.2e})")
    value = expectation(rho, witness.observable)
    if witness.form is WitnessForm.UPPER:
        hit = value > witness.bound + witness.margin
    else:
        hit = value < witness.bound - witness.margin
    return WitnessVerdict(
        verdict="entangled" if hit else "inconclusive",
        expectation=value, bound=witness.bound, margin=witness.margin,
        k=witness.k, statistics=witness.stats)


def schmidt_number_bound(psi: StateVector, r: int) -> float:
    """Separable bound of |psi><psi| against states of Schmidt rank <= r:
    the sum of the r largest squared Schmidt coefficients.  Exceeding it
    certifies Schmidt rank > r."""
    if psi.space.n != 2:
        raise ValueError("Schmidt-rank bounds cover bipartite states only")
    if not 1 <= require_int(r, "r") <= psi.space.d:
        raise ValueError(f"r must be in 1..{psi.space.d}, got {r}")
    dec = schmidt(psi)
    squares = np.sort(dec.coefficients ** 2)[::-1]
    return float(np.sum(squares[:r]))
