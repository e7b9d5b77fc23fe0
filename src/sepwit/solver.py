"""Separability-eigenvalue solver.

The separable bound of an observable is the supremum of the Rayleigh
quotient

    g(b_1, ..., b_K) = <b|P L P|b> / <b|P|b>,   |b> = |b_1> x ... x |b_K>,

over K-party product vectors with nonvanishing projection, where P is
the exchange projector of the chosen statistics (the identity for
distinguishable subsystems).  Stationary points satisfy one coupled
generalized eigenvalue equation per party; the numerical solver fixes
all parties but one, solves that party's generalized Hermitian
eigenproblem restricted to the range of the overlap operator, and
cycles until the quotient and the stationarity residual settle, for
all random starts of a search at once; each sweep ends with an
extrapolated line step, taken only where it improves the quotient.  The
quotient never decreases along the sweep (in "max" mode), but the best
stationary value found and the independent random-sampling oracle are
both lower estimates of the bound: nothing here bounds it from above.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .decompositions import eigen_terms, schmidt, slater_boson, slater_fermion
from .errors import (ConvergenceError, DimensionCapError, ZeroProjectionError)
from .operators import (LowRankObservable, interference_observable,
                        rank_one_observable)
from .partystep import _dag, _generalized_step, _hermitian_part
from .sectors import (SectorCoupling, SectorIsometry, sector_coupling,
                      sector_isometry)
from .tensor import (BATCH_BYTES, SpaceConfig, StateVector, Statistics,
                     basis_product_vector, frozen_copy, project,
                     project_amplitudes, require_hermitian, require_int,
                     subspace_dimension)

DEFAULT_STARTS = 64
MAX_SWEEPS = 500
VALUE_TOL = 1e-11          # change of the quotient between sweeps
RESIDUAL_TOL = 1e-9
INIT_PROJECTION_TOL = 1e-8
LINE_STEP = 0.5            # first extrapolation factor of a start's sweeps
LINE_GROWTH = 1.5          # its growth after an accepted extrapolation
LINE_GAIN_ULPS = 64        # least gain, in ulps of |g|, of a taken step
PARTY_DENSE_CAP = 512      # largest block-sector dimension solved densely
_ORACLE_CHUNK = 256
_RSQRT2 = 1.0 / math.sqrt(2.0)
_DRAW_PIECE = 1 << 14      # doubles per piece of a complex normal draw


# ---------------------------------------------------------------------------
# partitions

@dataclass(frozen=True)
class Partition:
    """An ordered split (N_1, ..., N_K) of the n particle slots into K
    consecutive blocks.  Two partitions describe the same partitioning
    exactly when they are equal as multisets."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(require_int(p, "parts") for p in self.parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive integers, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def slots(self, party: int) -> range:
        if not 0 <= require_int(party, "party") < self.k:
            raise ValueError(f"party must be in 0..{self.k - 1}, got {party}")
        off = sum(self.parts[:party])
        return range(off, off + self.parts[party])

    def block_dims(self, d: int) -> tuple[int, ...]:
        return tuple(d ** p for p in self.parts)

    def same_partitioning(self, other: "Partition") -> bool:
        return sorted(self.parts) == sorted(other.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def partitions_into(n: int, k: int) -> tuple[Partition, ...]:
    """All multiset-distinct partitions of n slots into k parts,
    each given as a nonincreasing tuple."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")

    def rec(remaining, parts_left, maxpart):
        if parts_left == 0:
            if remaining == 0:
                yield ()
            return
        upper = min(maxpart, remaining - parts_left + 1)
        for first in range(upper, 0, -1):
            for rest in rec(remaining - first, parts_left - 1, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in rec(n, k, n))


def all_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(p for k in range(1, n + 1) for p in partitions_into(n, k))


# ---------------------------------------------------------------------------
# problem and solution records

@dataclass(frozen=True, eq=False)
class SevalueProblem:
    """An observable together with the statistics and partition against
    which its separable bound is sought, and the data derived from them,
    each built on first use and kept, so that every solve, oracle call
    and diagnostic on one problem reads the same copies.

    With the same statistics on every block, P (P_1 x ... x P_K) = P, so
    party j's equation only sees the part of b_j in its block's exchange
    sector, of isometry S_j and dimension ``sector_dims[j]``: the sweep
    holds party j as c_j = S_j^H b_j, applied by the orbit tables of
    ``party_sectors``, and its solutions hold full-block vectors S_j c_j.
    The party matrices and the residuals reach the whole sector, of
    isometry S, through the ``coupling`` T = S^H (S_1 x ... x S_K), built
    from labels alone; the oracle stays on S's orbit tables.

    The cache relies on its inputs staying fixed: a low-rank operator's
    term vectors are read-only copies, and a dense operator is a
    ``frozen_copy``.  Problems compare and hash by identity.
    """

    operator: LowRankObservable | np.ndarray
    stats: Statistics
    partition: Partition
    space: SpaceConfig

    def __post_init__(self):
        if self.partition.n != self.space.n:
            raise ValueError(
                f"partition {self.partition} does not sum to n={self.space.n}")
        if isinstance(self.operator, LowRankObservable):
            if self.operator.space != self.space:
                raise ValueError("operator space mismatch")
        else:
            dim = self.space.total_dim
            op = require_hermitian(frozen_copy(self.operator), "observable")
            if op.shape != (dim, dim):
                raise ValueError(f"operator shape {op.shape}, expected {(dim, dim)}")
            object.__setattr__(self, "operator", op)

    @cached_property
    def block_dims(self) -> tuple[int, ...]:
        return self.partition.block_dims(self.space.d)

    @cached_property
    def sector_dims(self) -> tuple[int, ...]:
        d = self.space.d
        return tuple(subspace_dimension(self.stats, SpaceConfig(d, nj))
                     for nj in self.partition.parts)

    @cached_property
    def sector(self) -> SectorIsometry | None:
        """The whole space's sector isometry S as orbit tables; None
        where the sector is the whole space."""
        return _sector_basis(self.stats, self.space)

    @cached_property
    def party_sectors(self) -> tuple[SectorIsometry | None, ...]:
        """Every party's block-sector isometry S_j as orbit tables (the
        ``sector`` where the block is the whole space); None where the
        sector is the whole block, whose own coordinates serve."""
        return tuple(self.sector if nj == self.space.n else _sector_basis(
            self.stats, SpaceConfig(self.space.d, nj))
            for nj in self.partition.parts)

    @cached_property
    def coupling(self) -> SectorCoupling:
        """T = S^H (S_1 x ... x S_K), from labels (``sector_coupling``)."""
        return sector_coupling(self.stats, self.space.d, self.partition.parts)

    @cached_property
    def sector_terms(self) -> tuple:
        """S^H L S (L itself where S is None) as eigen-terms (c, X),
        sum_t c_t x_t x_t^H: (c, S^H X) for the eigen-form (c, X) of a
        low-rank L, unprojected as S^H P = S^H, and for a dense L the
        ``eigen_terms`` of S^H (S^H L)^H = S^H L S (L Hermitian, S real)."""
        sec = self.sector
        if isinstance(self.operator, LowRankObservable):
            coeffs, vectors = self.operator.eigen_form
            return coeffs, vectors if sec is None else sec.adjoint(vectors)
        op = self.operator
        if sec is not None:
            op = sec.adjoint(sec.adjoint(op).conj().T)
        return eigen_terms(op)


@dataclass(frozen=True)
class SevalueSolution:
    """A stationary point of the constrained Rayleigh quotient.

    ``residual`` is the worst per-party stationarity defect
    ||A_j b_j - g B_j b_j|| / ||B_j b_j||; ``chi_norm`` is the norm of
    the in-sector perturbation P[L P - g]|b_1,...,b_K>.  The record keeps
    the party vectors only: ``projected_vector`` is formed when read.
    """

    value: float
    party_vectors: tuple[np.ndarray, ...]
    space: SpaceConfig
    residual: float
    chi_norm: float
    converged: bool
    sweeps: int
    partition: Partition
    statistics: Statistics

    @property
    def projected_vector(self) -> StateVector:
        """P|b_1, ..., b_K>."""
        return StateVector(self.space, project_amplitudes(
            self.statistics, reduce(np.kron, self.party_vectors), self.space))


@dataclass(frozen=True)
class SupremumResult:
    """Outcome of a multistart search for the extremal quotient."""

    value: float
    best: SevalueSolution
    solutions: tuple[SevalueSolution, ...]
    fraction_at_value: float
    n_converged: int
    n_failed: int
    starts: int
    seed: int


# ---------------------------------------------------------------------------
# internal machinery

def check_count(value, name: str, least: int = 1) -> int:
    """A count (the starts, the sweep limit, the oracle's samples; a
    seed, of least 0) as an int; raises ValueError, naming ``name``,
    unless it is an integer (not a bool) of at least ``least``."""
    count = require_int(value, name)
    if count < least:
        raise ValueError(f"{name} must be >= {least}")
    return count


def _crandn(rng: np.random.Generator, size, scale: float = 1.0) -> np.ndarray:
    """Complex normals scale (re + 1j im) / sqrt(2) in a new array of
    shape ``size``, ``re`` the stream's next draws and ``im`` the ones
    after them, the scale folded into the multiply every draw takes.
    The draws pass through a buffer of at most _DRAW_PIECE doubles:
    splitting a draw does not change the stream."""
    out = np.empty(size, dtype=np.complex128)
    flat = out.reshape(-1)
    buf = np.empty(min(_DRAW_PIECE, flat.size))
    for part in (flat.real, flat.imag):
        for at in range(0, flat.size, _DRAW_PIECE):
            piece = buf[:flat.size - at]
            rng.standard_normal(out=piece)
            np.multiply(piece, scale * _RSQRT2, out=part[at:at + piece.size])
    return out


def _column_norms_sq(block: np.ndarray) -> np.ndarray:
    """Squared 2-norms of the columns of a complex (dim, count) array,
    from one einsum over its float64 view (real and imaginary parts
    interleaved along the columns)."""
    flat = np.ascontiguousarray(block).view(np.float64)
    sums = np.einsum("dc,dc->c", flat, flat)
    return sums[0::2] + sums[1::2]


def _apply_local(mats, amplitudes: np.ndarray) -> np.ndarray:
    """Apply mats[s] to slot s of an array of prod_s dim(mats[s]) entries:
    a vector, or a matrix whose column index holds the last slots."""
    tens = amplitudes.reshape([len(mat) for mat in mats])
    for slot, mat in enumerate(mats):
        tens = np.moveaxis(np.tensordot(mat, tens, axes=(1, slot)), 0, slot)
    return tens.reshape(amplitudes.shape)


def _kron_rows(blocks, count: int) -> np.ndarray:
    """Row b: the Kronecker product of row b of every (count, dim) block
    (a row of ones for no blocks)."""
    out = np.ones((count, 1), dtype=np.complex128)
    for block in blocks:
        out = (out[:, :, None] * block[:, None, :]).reshape(count, -1)
    return out


def _sector_basis(stats: Statistics, space: SpaceConfig) \
        -> SectorIsometry | None:
    """The exchange-sector isometry S of ``space`` as orbit tables; None
    where the sector is the whole space, so that no identity products
    are done."""
    return None if subspace_dimension(stats, space) == space.total_dim \
        else sector_isometry(stats, space)


def _check_dense_cap(problem: SevalueProblem) -> None:
    """DimensionCapError where a party's sector is too large to be
    solved through m_j x m_j matrices."""
    mj = max(problem.sector_dims)
    if mj > PARTY_DENSE_CAP:
        raise DimensionCapError(f"party sector dimension {mj} exceeds the "
                                f"dense cap {PARTY_DENSE_CAP}")


# -- diagnostics in sector coordinates -------------------------------------
# (a batch of starts holds one array per party, its coordinates c_j as
# (batch, m_j) rows; only the solution records hold b_j = S_j c_j)

def _party_coords(problem: SevalueProblem, blocks) -> list:
    """Every party's c_j = S_j^H b_j (b_j where S_j is None), by the
    orbit tables of ``party_sectors``."""
    return [b if sec is None else sec.adjoint(b.T).T
            for b, sec in zip(blocks, problem.party_sectors)]


def _sector_product(problem: SevalueProblem, coords) -> np.ndarray:
    """y = T (c_1 x ... x c_K), P|b> = S y (y = |b> where P = 1), as
    (batch, m) rows."""
    return _kron_rows(coords, len(coords[0])) if problem.sector is None \
        else problem.coupling.contract(coords, len(coords))[:, :, 0]


def _stationarity(problem: SevalueProblem, coords, values):
    """chi = X diag(c) X^H y - g y = S^H (P L P|b> - g P|b>), (c, X) the
    ``sector_terms``, and per party j the pair (||A_j b_j - g B_j b_j||,
    ||B_j b_j||), as (batch, m) and (batch, K, 2) arrays.

    A_j b_j and B_j b_j are S chi and S y with the other parties
    contracted out: as P (P_1 x ... x P_K) = P, S_j (c_1^H x ... x 1 x
    ... x c_K^H) T^H applied to chi and to y, T^H a gather and the c_i
    contracted out by ``_contract_fixed``, as where P = 1.  No
    full-space vector is formed where P is not 1.
    """
    count = len(coords[0])
    y = _sector_product(problem, coords)
    coeffs, vectors = problem.sector_terms
    chi = ((y @ vectors.conj()) * coeffs) @ vectors.T \
        - np.asarray(values, dtype=float)[:, None] * y
    defects = np.empty((count, len(coords), 2))
    for side, vec in enumerate((chi, y)):
        if problem.sector is not None:
            # T has one entry per column at most, 0 where labels collide
            vec = vec[:, problem.coupling.rows] * problem.coupling.coeffs
        for j, c in enumerate(coords):
            defects[:, j, side] = np.linalg.norm(_contract_fixed(
                vec[:, :, None], _kron_rows(coords[:j], count),
                _kron_rows(coords[j + 1:], count), c.shape[1]), axis=(1, 2))
    return chi, defects


def _solutions(problem: SevalueProblem, coords, values, settled, sweeps,
               tol: float = math.inf) -> list:
    """The records, b_j = S_j c_j and g + offset (0 for a dense operator),
    of starts at c_j of ``sector_terms`` quotients g, or None where the
    overlap annihilates a party vector; a residual is the worst per-party
    defect over ||B_j b_j||, converged: settled, residual within ``tol``."""
    chi, defects = _stationarity(problem, coords, values)
    blocks = [c if sec is None else sec.apply(c.T).T
              for c, sec in zip(coords, problem.party_sectors)]
    out = []
    for b, (defect, scale) in enumerate(defects.transpose(0, 2, 1)):
        if scale.min() <= 0.0:
            out.append(None)
            continue
        residual = float(np.max(defect / scale))
        out.append(SevalueSolution(
            value=float(values[b]) + getattr(problem.operator, "offset", 0.0),
            party_vectors=tuple(block[b].copy() for block in blocks),
            space=problem.space,
            residual=residual, chi_norm=float(np.linalg.norm(chi[b])),
            converged=bool(settled[b]) and residual <= tol,
            sweeps=int(sweeps[b]), partition=problem.partition,
            statistics=problem.stats))
    return out


# -- party-wise operators --------------------------------------------------

def _party_matrices(problem: SevalueProblem, coords, j: int) -> tuple:
    """Party j's equations A_j x = g B_j x with the other parties'
    coordinates c_i held fixed, in its block's sector coordinates, as
    (numerator, overlap) with a leading batch axis.

    The numerator is the ``sector_terms`` (c, X) contracted onto the
    party: A_j = sum_t c_t a_t a_t^H as (c, V), V holding S_j^H a_t as
    columns.  Where P = 1 the overlap is the scalar ||left||^2
    ||right||^2 times the identity.  Else, as P (P_1 x ... x P_K) = P,
    the others enter through their c_i alone: with y = T (c_1 x ... x 1
    x ... x c_K), T the ``coupling``, S_j^H B_j S_j is y^H y and V is
    y^H X.
    """
    count = len(coords[0])
    coeffs, vectors = problem.sector_terms
    if problem.sector is None:
        left = _kron_rows(coords[:j], count)
        right = _kron_rows(coords[j + 1:], count)
        overlap = np.einsum("bl,bl->b", left.conj(), left).real \
            * np.einsum("br,br->b", right.conj(), right).real
        return (coeffs, _contract_fixed(vectors, left, right,
                                        problem.sector_dims[j])), overlap
    adj = _dag(problem.coupling.contract(coords, j))
    return (coeffs, adj @ vectors), _hermitian_part(adj @ _dag(adj))


def _contract_fixed(full, left, right, dj) -> np.ndarray:
    """<left_b| x 1 x <right_b| applied, for every start b, to the
    columns of product-space vectors: (batch, dim, c) in, or (dim, c)
    shared by every start, and (batch, dj, c) out."""
    count, dl, dr = len(left), left.shape[1], right.shape[1]
    c = full.shape[-1]
    fixed = left.conj()[:, None, :] @ full.reshape(-1, dl, dj * dr * c)
    fixed = fixed.reshape(count, dj, dr, c).transpose(0, 1, 3, 2)
    return (fixed.reshape(count, dj * c, dr) @ right.conj()[:, :, None]
            ).reshape(count, dj, c)


# -- the sweep -------------------------------------------------------------

def _sweep(problem: SevalueProblem, inits, max_sweeps: int, tol: float,
           mode: str, value_tol: float) -> list:
    """Cyclic per-party ascent (or descent) of many starts at once.

    ``inits`` holds one iterator per start over the initializations (one
    vector per party) it may try.  A start holds every party in its
    block's sector coordinates c_j = S_j^H b_j, taken once, as it joins;
    full-block vectors S_j c_j are formed only for the solution records.
    The starts advance as one batch, one batched step per party per
    sweep, so many that the largest stacked array holds at most
    BATCH_BYTES (a start's: the sector terms contracted out where P = 1,
    or else ``coupling.contract``'s, no smaller than the residual's
    T^H chi): the others wait and join as starts leave.  A start that
    meets a zero projection takes its next initialization and rejoins
    with its own sweep count.

    After the party steps, every start still moving (past its first
    sweep, not settled within ``value_tol``, not lost) takes one line
    step (``_extrapolated``) to c_j + beta (c_j - c_j'), c_j' its
    coordinates before the sweep, normalised, kept only where its
    quotient rises ("max") or falls ("min") by more than rounding, that
    is LINE_GAIN_ULPS ulps of |g|, and its projected norm is at least
    INIT_PROJECTION_TOL: the quotient stays monotone, and the step
    carries cyclic ascent's linear tail along the line of the sweep.
    beta is the start's own, LINE_STEP at first, times LINE_GROWTH
    after a taken trial and back to LINE_STEP after a refused one.  A
    settled start takes none: there a trial's gain is at the level of
    rounding, and taking it would make the start's result depend on its
    batch and on the contraction's route.

    A start leaves when its quotient settles within ``value_tol`` and
    its residual is within ``tol``, or after ``max_sweeps``.  Returns
    each start's solution, or None where its initializations ran out.
    A single party is solved by one exact step (``_sector_step``) from
    the first start alone, whose solution is the only one returned.
    """
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")
    max_sweeps = check_count(max_sweeps, "max_sweeps")
    # no residual meets a NaN or negative tol; a negative value_tol never
    # settles, so every start runs max_sweeps sweeps
    if not tol >= 0.0:
        raise ValueError(f"tol must be a number >= 0, got {tol}")
    if math.isnan(value_tol):
        raise ValueError("value_tol must not be NaN")
    if problem.partition.k == 1:
        if not isinstance(problem.operator, LowRankObservable):
            _check_dense_cap(problem)
        return [_sector_step(problem, inits[0], mode, tol)]
    _check_dense_cap(problem)
    terms = problem.sector_terms[1].shape[1]
    width = max(2, terms) * problem.space.total_dim if problem.sector is None \
        else max(1, problem.coupling.width)
    size = max(1, BATCH_BYTES // (16 * width))
    out: list = [None] * len(inits)
    # the starts in the batch, their sweeps so far, their last values,
    # their extrapolation factors and their party coordinates
    batch = [np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0),
             np.zeros(0)] + [np.zeros((0, mj), dtype=np.complex128)
                             for mj in problem.sector_dims]
    pending = list(range(len(inits)))
    while pending or batch[0].size:
        # waiting starts draw their next initialization; those that
        # project to nonzero join at the first party
        room = size - batch[0].size
        drawn = [(i, next(inits[i], None)) for i in pending[:room]]
        drawn = [(i, init) for i, init in drawn if init is not None]
        pending = pending[room:]
        if drawn:
            starts = np.array([i for i, _ in drawn])
            new = [np.array(col, dtype=np.complex128)
                   for col in zip(*(init for _, init in drawn))]
            new = _party_coords(problem, [
                b / np.linalg.norm(b, axis=1, keepdims=True) for b in new])
            ok = np.linalg.norm(_sector_product(problem, new), axis=1) \
                >= INIT_PROJECTION_TOL
            pending = starts[~ok].tolist() + pending
            joined = np.count_nonzero(ok)
            batch = [np.concatenate(pair) for pair in zip(batch, [
                starts[ok], np.zeros(joined, dtype=int),
                np.full(joined, np.nan), np.full(joined, LINE_STEP)]
                + [b[ok] for b in new])]
        ids, counts, previous, steps, *coords = batch
        if not ids.size:
            continue
        counts += 1
        lost = np.zeros(ids.size, dtype=bool)
        before = list(coords)
        for j in range(len(coords)):
            numer, overlap = _party_matrices(problem, coords, j)
            values, coords[j] = _generalized_step(numer, overlap, coords[j],
                                                  mode)
            lost |= np.isnan(values)
        settled = (counts > 1) & (np.abs(values - previous) <= value_tol)
        moving = ((counts > 1) & ~settled & ~lost).nonzero()[0]
        if moving.size:
            trial, scores = _extrapolated(
                problem, [c[moving] for c in before],
                [c[moving] for c in coords], steps[moving])
            gain = LINE_GAIN_ULPS * np.spacing(np.abs(values[moving]))
            better = scores > values[moving] + gain if mode == "max" \
                else scores < values[moving] - gain
            steps[moving] = np.where(better, steps[moving] * LINE_GROWTH,
                                     LINE_STEP)
            taken = moving[better]
            values[taken] = scores[better]
            for c, part in zip(coords, trial):
                c[taken] = part[better]
        check = ((settled | (counts >= max_sweeps)) & ~lost).nonzero()[0]
        sols = _solutions(problem, [c[check] for c in coords], values[check],
                          settled[check], counts[check], tol) \
            if check.size else []
        done = lost.copy()
        for pos, sol in zip(check, sols):
            if sol is None or sol.converged or counts[pos] >= max_sweeps:
                out[ids[pos]] = sol
                lost[pos], done[pos] = sol is None, True
        pending = ids[lost].tolist() + pending
        batch = [part[~done] for part in [ids, counts, values, steps]
                 + coords]
    return out


def _extrapolated(problem: SevalueProblem, before, after, steps) -> tuple:
    """The line step of a sweep: every party's coordinates moved on to
    after_j + beta (after_j - before_j), beta the start's ``steps``
    entry, and normalised, with the quotient sum_t c_t |x_t^H y|^2 /
    ||y||^2 of that product, y its ``_sector_product`` and (c, X) the
    ``sector_terms``.  Returns the trial coordinates and their
    quotients, NaN (never taken) where the trial's projected norm is
    below INIT_PROJECTION_TOL."""
    trial = [a + steps[:, None] * (a - b) for a, b in zip(after, before)]
    trial = [t / np.linalg.norm(t, axis=1, keepdims=True) for t in trial]
    y = _sector_product(problem, trial)
    coeffs, vectors = problem.sector_terms
    denom = np.einsum("bm,bm->b", y.conj(), y).real
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.abs(y @ vectors.conj()) ** 2 @ coeffs / denom
    return trial, np.where(denom >= INIT_PROJECTION_TOL ** 2, scores, np.nan)


def _sector_step(problem: SevalueProblem, init, mode: str, tol: float):
    """A single party: its block is the whole space, so its equation is
    the extremal eigenproblem of P L P on the sector, with the
    ``sector_terms`` as numerator and the overlap 1.  One
    ``_generalized_step`` solves it exactly, from the sector part
    y = S^H b of ``init``'s first initialization; the party vector is
    S y.  Returns that solution, or None where the sector is empty."""
    if not problem.sector_dims[0]:
        return None
    first, = _party_coords(problem, [np.asarray(next(init)[0], complex)[None]])
    coeffs, vectors = problem.sector_terms
    values, coords = _generalized_step((coeffs, vectors[None]), np.ones(1),
                                       first, mode)
    sol, = _solutions(problem, [coords], values, [True], [1], tol)
    return sol


def sweep_solve(problem: SevalueProblem, init,
                max_sweeps: int = MAX_SWEEPS, tol: float = RESIDUAL_TOL,
                mode: str = "max",
                value_tol: float = VALUE_TOL) -> SevalueSolution:
    """Cyclic per-party ascent (or descent) from a given initialization.

    ``init`` is one vector per party.  Each party step is solved in the
    coordinates of its block's exchange sector, so the returned party
    vectors lie in their block sectors.  A single party is solved
    exactly by one step on the whole sector, from the sector part of
    ``init``.  Raises ZeroProjectionError when the initialization (or
    an intermediate step) of several parties has numerically zero
    projection; an unconverged run is returned flagged, not raised.
    """
    dims = problem.block_dims
    if [np.shape(b) for b in init] != [(dim,) for dim in dims]:
        raise ValueError(f"need party vectors of dimensions {dims}")
    if not all(np.isfinite(b).all() for b in init):
        raise ValueError("init must be finite")
    if not all(np.any(b) for b in init):
        raise ZeroProjectionError("zero party vector in initialization")
    sol, = _sweep(problem, [iter([init])], max_sweeps, tol, mode, value_tol)
    if sol is None:
        raise ZeroProjectionError("the initialization or a party step "
                                  "projects to zero")
    return sol


def solve_sup_g(problem: SevalueProblem, starts: int = DEFAULT_STARTS,
                seed: int = 0, *, mode: str = "max",
                max_sweeps: int = MAX_SWEEPS, tol: float = RESIDUAL_TOL,
                value_tol: float = VALUE_TOL) -> SupremumResult:
    """Multistart search for the extremal separability eigenvalue.

    Deterministic for a fixed (seed, starts) pair: each start draws its
    initializations from its own generator, derived from (seed, start),
    and reaches the same point however the starts are batched.  Each
    sweep of party steps ends with a line step along the sweep's own
    move, taken only where it improves the quotient (``_sweep``).  The
    counts are those of the solutions ``_sweep`` returns: a single
    full-space party is solved once, from start 0.  Raises
    ConvergenceError when no start converges (distinct from a converged
    bound that simply fails to detect), its subclass EigensolveError
    where no route diagonalises a party's overlap (``partystep``), and
    ValueError unless ``starts`` and ``max_sweeps`` are integers of at
    least 1, ``seed`` one of at least 0, ``tol`` a number of at least 0
    and ``value_tol`` a number.
    """
    starts = check_count(starts, "starts")
    seed = check_count(seed, "seed", 0)
    # start i tries up to 8 initializations drawn from its own generator
    inits = [([_crandn(rng, dim) for dim in problem.block_dims]
              for rng in [np.random.default_rng([seed, i])] * 8)
             for i in range(starts)]
    results = _sweep(problem, inits, max_sweeps, tol, mode, value_tol)
    solutions = tuple(r for r in results if r is not None)
    n_failed = len(results) - len(solutions)
    converged = [s for s in solutions if s.converged]
    if not converged:
        raise ConvergenceError(
            f"no start converged ({n_failed} failed on zero projections, "
            f"{len(solutions)} hit the sweep limit)")
    key = (lambda s: s.value) if mode == "max" else (lambda s: -s.value)
    best = max(converged, key=key)
    at_value = sum(1 for s in converged if abs(s.value - best.value) <= 1e-8)
    return SupremumResult(
        value=best.value, best=best, solutions=solutions,
        fraction_at_value=at_value / len(results),
        n_converged=len(converged), n_failed=n_failed,
        starts=starts, seed=seed)


# ---------------------------------------------------------------------------
# analytic solutions

def _rank_one_diagnostics(problem: SevalueProblem, value: float,
                          blocks) -> SevalueSolution:
    """The converged solution record of one start at the given party
    vectors, held as their block-sector parts, normalised: as P (P_1 x
    ... x P_K) = P, the value and residual are those of the vectors."""
    coords = _party_coords(problem, [
        (np.asarray(b, complex) / np.linalg.norm(b))[None] for b in blocks])
    if np.linalg.norm(_sector_product(problem, coords)) < 1e-12:
        raise ZeroProjectionError("analytic party vectors project to zero")
    sol, = _solutions(problem, [c / np.linalg.norm(c) for c in coords],
                      [value], [True], [0])
    return sol


def analytic_rank_one(psi: StateVector, stats: Statistics) -> list[SevalueSolution]:
    """Closed-form stationary points for the projected rank-one
    observable built from a two-particle state.

    Distinguishable: one solution per Schmidt coefficient, value
    lambda_n**2.  Fermions: value 2*kappa_n**2 on each Slater pair.
    Bosons: values kappa_n**2 on the diagonal family plus
    kappa_k**2 + kappa_l**2 on the two-mode mixtures
    sqrt(kappa_k)|w_k> +/- i sqrt(kappa_l)|w_l>.
    """
    if psi.space.n != 2:
        raise ValueError("analytic solutions cover two-particle states only")
    problem = SevalueProblem(rank_one_observable(psi, stats), stats,
                             Partition((1, 1)), psi.space)
    if stats is Statistics.DISTINGUISHABLE:
        dec = schmidt(psi)
        points = [(lam ** 2, [dec.left_basis[:, i], dec.right_basis[:, i]])
                  for i, lam in enumerate(dec.coefficients)]
    elif stats is Statistics.FERMION:
        dec = slater_fermion(project(stats, psi))
        points = [(2.0 * kappa ** 2, [dec.basis[:, 2 * i],
                                      dec.basis[:, 2 * i + 1]])
                  for i, kappa in enumerate(dec.coefficients) if kappa > 1e-14]
    else:
        dec = slater_boson(project(stats, psi))
        kappas = dec.coefficients
        points = [(kappa ** 2, [dec.basis[:, i]] * 2)
                  for i, kappa in enumerate(kappas) if kappa > 1e-14]
        for a, b in itertools.combinations(range(psi.space.d), 2):
            if kappas[a] > 1e-14 or kappas[b] > 1e-14:
                wa = np.sqrt(kappas[a]) * dec.basis[:, a]
                wb = 1j * np.sqrt(kappas[b]) * dec.basis[:, b]
                points.append((kappas[a] ** 2 + kappas[b] ** 2,
                               [wa + wb, wa - wb]))
    return sorted((_rank_one_diagnostics(problem, value, blocks)
                   for value, blocks in points), key=lambda s: -s.value)


@dataclass(frozen=True)
class InterferenceAnalysis:
    """Closed-form account of the interference observable's spectrum of
    stationary quotients: extremes +/- (1/2)**(K-1) on balanced
    superpositions, plus a trivial g = 0 family."""

    bound: float
    solutions: tuple[SevalueSolution, ...]
    trivial_value: float


def analytic_interference(space: SpaceConfig, stats: Statistics,
                          partition: Partition) -> InterferenceAnalysis:
    """Closed-form value (1/2)**(K-1) of the interference observable on
    the balanced stationary family, with a representative solution per
    party.

    Caveat: this is the supremum over all product vectors for
    distinguishable subsystems and bosons, and for fermion partitions
    with at most one block of size >= 2.  On fermion partitions with two
    or more such blocks, where the witness layer refuses it, it can be
    beaten: on (3, 2) at d = 10 twenty sweeps from one random start
    reach 0.932, and on two blocks of equal even size, such as (2, 2),
    exact product states reach quotient 1 (``notes/decisions.md``).
    Use the sweep solver there.
    """
    problem = SevalueProblem(interference_observable(space, stats), stats,
                             partition, space)
    bound = 0.5 ** (partition.k - 1)
    blocks = []
    for party, nj in enumerate(partition.parts):
        slots = list(partition.slots(party))
        low, high = (basis_product_vector(SpaceConfig(space.d, nj), labels)
                     for labels in (slots, [space.n + s for s in slots]))
        blocks.append((low.amplitudes + high.amplitudes) / math.sqrt(2.0))
    rep = _rank_one_diagnostics(problem, bound, blocks)
    return InterferenceAnalysis(bound=bound, solutions=(rep,),
                                trivial_value=0.0)


# ---------------------------------------------------------------------------
# sampling oracle

def brute_force_bound(problem: SevalueProblem, samples: int,
                      seed: int = 0) -> float:
    """Largest Rayleigh quotient found over random K-separable product
    vectors.

    A lower bound on the separable supremum by construction: every
    evaluated point is a valid product vector, and only the maximum of
    their quotients is returned.  Half the sample budget explores with
    independent Gaussian draws; the other half refines the incumbent
    best by annealed Gaussian perturbations of its party vectors, so
    the bound comes close to the supremum instead of stalling at the
    bulk of the distribution.

    Quotients are evaluated through S's orbit tables, which apply S^H
    by gathers, and the problem's sector terms, never through per-party
    eigensolves or the coupling map, so the oracle checks the party
    steps by another route; the tests check S and the solver's
    residuals against the permutation-sum projector.  Samples with
    numerically zero projection are skipped.  Deterministic for a fixed
    seed.

    Each chunk of up to 256 samples (fewer where d**N exceeds 16384:
    its product vectors fit in BATCH_BYTES) draws one complex block of
    normals per party, in stream order, and is scored from its party
    blocks alone, numerators from all terms at once.  A refinement
    chunk's block for party j is c_j + a d, d its draws, formed in the
    draw's own array around the incumbent's unit c_j; the other parties
    enter as one-column blocks.  No block is normalised: a sample
    projects to zero where ||S^H v||^2 is at most 1e-14 times the
    product of its squared party norms, the loop form's test on the unit
    vector.  A chunk's best sample that beats the incumbent becomes it,
    with the quotient the chunk computed: every block is formed, so the
    bound is always the quotient of a real product vector.  The draws
    and bounds are those of the loop form that the tests keep as a
    reference, to 1e-12 relative.  ``samples`` must be an integer of at
    least 1 and ``seed`` one of at least 0, or ValueError is raised.

    At small budgets the bound can sit far below the supremum: for the
    boson interference observable at N=3, d=6, partition (2, 1), 2000
    samples (seed 3) reach 0.205 against the proven 0.5.  A check that
    the oracle stays at or below a solver value therefore cannot catch
    a solver value that is too low; nothing here bounds G from above.
    """
    samples = check_count(samples, "samples")
    seed = check_count(seed, "seed", 0)
    sec, (coeffs, vectors) = problem.sector, problem.sector_terms
    # C-ordered rows <x_t| in sector coordinates: rows @ x gives every
    # term's overlaps with a batch of vectors x at once
    rows = np.ascontiguousarray(vectors.T.conj())
    dims = problem.block_dims
    rng = np.random.default_rng([seed, 11])

    def offer(blocks):
        """Score every column product v of (party_dim, count) blocks (one
        column: a party shared by every column) as sum_t c_t |<x_t|S^H
        v>|^2 / ||S^H v||^2, -inf where ||S^H v||^2 is at most 1e-14
        times the product of v's squared party norms; the best beating
        the incumbent becomes it, its unit party vectors kept as
        one-column blocks.  True where it did.  The batch stays on the
        trailing axis, so that each gather of S^H copies whole rows."""
        nonlocal best, best_parts
        vecs = blocks[0]
        for block in blocks[1:]:
            vecs = vecs[:, None, :] * block[None, :, :]
            vecs = vecs.reshape(-1, vecs.shape[-1])
        norms = reduce(np.multiply, map(_column_norms_sq, blocks))
        if sec is None:     # P = 1: ||v||^2 is the party norms' product
            coords, denom = vecs, norms
        else:
            coords = sec.adjoint(vecs)
            denom = _column_norms_sq(coords)
        numer = coeffs @ np.abs(rows @ coords) ** 2
        values = np.full(denom.shape, -math.inf)
        valid = denom > 1e-14 * norms
        values[valid] = numer[valid] / denom[valid]
        top = int(np.argmax(values))
        if not values[top] > best:
            return False
        parts = [b[:, [min(top, b.shape[1] - 1)]] for b in blocks]
        best, best_parts = float(values[top]), [v / np.linalg.norm(v)
                                                 for v in parts]
        return True

    def perturbed(party, count):
        """A refinement chunk: party's block c_j + a d formed in the draw,
        a its step, beside the incumbent's other parties; passed straight
        to ``offer``, so that the block is freed before the next draw."""
        block = _crandn(rng, (dims[party], count),
                        steps[party] / math.sqrt(dims[party]))
        block += best_parts[party]
        return [block if i == party else v for i, v in enumerate(best_parts)]

    chunk = min(_ORACLE_CHUNK,
                max(1, BATCH_BYTES // (16 * problem.space.total_dim)))
    explore, refine = ([min(chunk, total - at)
                        for at in range(0, total, chunk)]
                       for total in (samples - samples // 2, samples // 2))
    best, best_parts = -math.inf, None
    for count in explore:
        offer([_crandn(rng, (dim, count)) for dim in dims])
    if best_parts is None:
        raise ZeroProjectionError("every sample projected to zero")

    # refinement: cycle through the parties, perturbing one at a time
    # around the incumbent with an adaptive relative step
    steps = [0.5] * len(dims)
    for i, count in enumerate(refine):
        party = i % len(dims)
        if offer(perturbed(party, count)):
            steps[party] = min(steps[party] * 1.5, 2.0)
        else:
            steps[party] = max(steps[party] * 0.8, 1e-4)
    return best + getattr(problem.operator, "offset", 0.0)


# ---------------------------------------------------------------------------
# covariance and the perturbed single-equation form

def _checked_unitary(unitary, d: int, *lambdas) -> np.ndarray:
    """``unitary`` as a complex array; ValueError unless the lambdas are
    finite and it is a finite d x d unitary, U^H U = I within 1e-10."""
    if not all(map(math.isfinite, lambdas)):
        raise ValueError("lambda1 and lambda2 must be finite")
    u = np.asarray(unitary, dtype=np.complex128)
    if u.shape != (d, d) or not np.isfinite(u).all() \
            or not np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-10:
        raise ValueError("unitary must be a finite d x d unitary matrix")
    return u


def transformed_observable(operator, lambda1: float, lambda2: float,
                           unitary: np.ndarray, space: SpaceConfig):
    """U^dagger...U [lambda1 L + lambda2 1], U a local unitary on every
    slot, equal to U^dagger...U [lambda1 L + lambda2 P] on every sector:
    a low-rank L's distinct vectors rotated once each, with its tag and
    offset lambda1 offset + lambda2, or a dense L slot by slot plus
    lambda2 on the diagonal.  ValueError unless the lambdas are finite,
    U unitary and L of ``space``; HermiticityError for a non-Hermitian L."""
    udag = _checked_unitary(unitary, space.d, lambda1, lambda2).conj().T
    mats = [udag] * space.n
    if isinstance(operator, LowRankObservable):
        if operator.space != space:
            raise ValueError("operator space mismatch")
        vectors = {id(v): v for _, k, b in operator.terms for v in (k, b)}
        rotated = {i: _apply_local(mats, v) for i, v in vectors.items()}
        return LowRankObservable(space, tuple(
            (lambda1 * c, rotated[id(k)], rotated[id(b)])
            for c, k, b in operator.terms),
            offset=lambda1 * operator.offset + lambda2)._tagged(operator.kind)
    operator = require_hermitian(operator, "observable")
    if operator.shape != (space.total_dim,) * 2:
        raise ValueError(f"operator shape {operator.shape}, expected "
                         f"{(space.total_dim,) * 2}")
    out = lambda1 * _apply_local(mats + [udag.conj()] * space.n, operator)
    out[np.diag_indices(space.total_dim)] += lambda2
    return out


def transform_solution(sol: SevalueSolution, lambda1: float, lambda2: float,
                       unitary: np.ndarray) -> SevalueSolution:
    """Carry a solution over to the rotated and affinely reparameterized
    observable: the quotient becomes lambda1 * g + lambda2 and every
    party vector is rotated slot-wise by U^dagger.  Raises ValueError
    unless lambda1 is nonzero, both are finite and U is unitary."""
    if lambda1 == 0.0:
        raise ValueError("lambda1 must be nonzero")
    u = _checked_unitary(unitary, sol.space.d, lambda1, lambda2)
    blocks = tuple(_apply_local([u.conj().T] * nk, np.asarray(b))
                   for b, nk in zip(sol.party_vectors, sol.partition.parts))
    return replace(sol, value=lambda1 * sol.value + lambda2,
                   party_vectors=blocks, residual=abs(lambda1) * sol.residual,
                   chi_norm=abs(lambda1) * sol.chi_norm)


def verify_second_form(sol: SevalueSolution,
                       problem: SevalueProblem) -> tuple[StateVector, float]:
    """Perturbed single-equation check of a solution.

    Returns the in-sector perturbation chi = P L P|b> - g P|b> together
    with the largest overlap of chi against single-party variations of
    the product vector.  The overlap vanishes at an exact stationary
    point; chi in general does not.  Both are the residual's (chi is S
    applied to its sector coordinates).  Raises ValueError unless the
    solution has the problem's partition, statistics and space.
    """
    if (sol.partition, sol.statistics, sol.space) \
            != (problem.partition, problem.stats, problem.space):
        raise ValueError("solution is of another partition, statistics "
                         "or space than the problem")
    coords = _party_coords(problem, [np.asarray(b, complex)[None]
                                     for b in sol.party_vectors])
    (chi,), (defects,) = _stationarity(problem, coords, [
        sol.value - getattr(problem.operator, "offset", 0.0)])
    sec = problem.sector
    return (StateVector(problem.space, chi if sec is None else sec.apply(chi)),
            max(defect for defect, _ in defects))
