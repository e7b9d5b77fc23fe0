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
all random starts of a search at once.  The quotient never decreases
along the sweep (in "max" mode), but the best stationary value found and
the independent random-sampling oracle are both lower estimates of the
bound: nothing here bounds it from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .decompositions import eigen_terms, schmidt, slater_boson, slater_fermion
from .errors import (ConvergenceError, DimensionCapError, ZeroProjectionError)
from .operators import (LowRankObservable, interference_observable,
                        rank_one_observable)
from .partystep import _dag, _generalized_step, _hermitian_part
from .sectors import SectorIsometry, sector_isometry
from .tensor import (BATCH_BYTES, SpaceConfig, StateVector, Statistics,
                     basis_product_vector, project, project_amplitudes,
                     projector_matrix, require_hermitian, require_int,
                     subspace_dimension)

DEFAULT_STARTS = 64
MAX_SWEEPS = 500
VALUE_TOL = 1e-11          # change of the quotient between sweeps
RESIDUAL_TOL = 1e-9
INIT_PROJECTION_TOL = 1e-8
PARTY_DENSE_CAP = 512      # largest block-sector dimension solved densely
_ORACLE_CHUNK = 256
_RSQRT2 = 1.0 / math.sqrt(2.0)


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
    out = []
    for k in range(1, n + 1):
        out.extend(partitions_into(n, k))
    return tuple(out)


# ---------------------------------------------------------------------------
# problem and solution records

@dataclass(frozen=True)
class SevalueProblem:
    """An observable together with the statistics and partition against
    which its separable bound is sought."""

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
            op = require_hermitian(self.operator, "observable")
            if op.shape != (dim, dim):
                raise ValueError(f"operator shape {op.shape}, expected {(dim, dim)}")
            op.setflags(write=False)
            object.__setattr__(self, "operator", op)


@dataclass(frozen=True)
class SevalueSolution:
    """A stationary point of the constrained Rayleigh quotient.

    ``residual`` is the worst per-party stationarity defect
    ||A_j b_j - g B_j b_j|| / ||B_j b_j||; ``chi_norm`` is the norm of
    the in-sector perturbation P[L P - g]|b_1,...,b_K>.
    """

    value: float
    party_vectors: tuple[np.ndarray, ...]
    projected_vector: StateVector
    residual: float
    chi_norm: float
    converged: bool
    sweeps: int
    partition: Partition
    statistics: Statistics


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

def check_count(value, name: str) -> int:
    """A count (the starts, the sweep limit, the oracle's samples) as an
    int; raises ValueError, naming ``name``, unless it is an integer
    (not a bool) of at least 1."""
    count = require_int(value, name)
    if count < 1:
        raise ValueError(f"{name} must be >= 1")
    return count


def _crandn(rng: np.random.Generator, size) -> np.ndarray:
    """Standard complex normals (re + 1j im) / sqrt(2), with ``re`` the
    stream's next draws and ``im`` the ones after them, written into one
    complex array."""
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    pair = rng.standard_normal((2,) + shape)
    out = np.empty(shape, dtype=np.complex128)
    np.multiply(pair[0], _RSQRT2, out=out.real)
    np.multiply(pair[1], _RSQRT2, out=out.imag)
    return out


def _column_norms_sq(block: np.ndarray) -> np.ndarray:
    """Squared 2-norms of the columns of a complex (dim, count) array,
    from one einsum over its float64 view (real and imaginary parts
    interleaved along the columns)."""
    flat = np.ascontiguousarray(block).view(np.float64)
    sums = np.einsum("dc,dc->c", flat, flat)
    return sums[0::2] + sums[1::2]


def _normalize_columns(block: np.ndarray) -> None:
    """Scale every column of a C-contiguous complex (dim, count) array
    to unit norm, in place."""
    scale = 1.0 / np.sqrt(_column_norms_sq(block))
    flat = block.view(np.float64)
    flat *= np.repeat(scale, 2)


def _apply_local(mat: np.ndarray, amplitudes: np.ndarray,
                 n_slots: int) -> np.ndarray:
    """Apply the same single-mode matrix to every slot of a block."""
    d = mat.shape[0]
    tens = amplitudes.reshape((d,) * n_slots)
    for slot in range(n_slots):
        tens = np.moveaxis(np.tensordot(mat, tens, axes=(1, slot)), 0, slot)
    return tens.reshape(-1)


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
    if subspace_dimension(stats, space) == space.total_dim:
        return None
    return sector_isometry(stats, space)


class _Solver:
    """Per-problem workspace: the observable (a low-rank one as its
    eigen-form), the isometries and the observable in sector coordinates
    (each built on first use) and the party-wise contractions.  One
    workspace serves every start of a solve, or every sample of the
    oracle, and is released with it.

    With the same statistics on every block, P (P_1 x ... x P_K) = P, so
    party j's equation only sees the part of b_j in its block's exchange
    sector: the sweep solves it in the sector coordinates of the
    isometry S_j, of dimension ``sector_dims[j]``, while party vectors
    and every diagnostic stay in full-space coordinates.  The party
    matrices are contracted in the coordinates of the whole space's
    exchange sector, through its isometry S: with y = S^H q the overlap
    is y^H y and the numerator y^H X, for the sector terms (c, X) of
    ``sector_operator``.  ``stationarity`` stays on the permutation-sum
    projector, so it checks that conversion independently.
    """

    def __init__(self, problem: SevalueProblem):
        self.space = problem.space
        self.stats = problem.stats
        self.partition = problem.partition
        self.block_dims = problem.partition.block_dims(problem.space.d)
        self.sector_dims = tuple(
            subspace_dimension(problem.stats, SpaceConfig(problem.space.d, nj))
            for nj in problem.partition.parts)
        self._isometries: dict[int, np.ndarray | None] = {}
        self._sector = None
        self._sector_operator = None
        # L = sum_t c_t x_t x_t^H as (c, X), unprojected as S^H P = S^H;
        # ``dense`` None marks it
        if isinstance(problem.operator, LowRankObservable):
            self.dense, self.terms = None, problem.operator.eigen_form()
        else:
            self.dense = problem.operator

    # -- full-space helpers ------------------------------------------------
    # (the party vectors of a batch of starts are the rows of one
    # (batch, d_j) array per party)

    def projected_product(self, blocks) -> np.ndarray:
        """P|b> of every start, as the rows of a (batch, dim) array."""
        flat = _kron_rows(blocks, len(blocks[0]))
        return project_amplitudes(self.stats, flat.T, self.space).T

    def stationarity(self, blocks, values):
        """P|b>, chi = P L P|b> - g P|b>, and per party j the pair
        (||A_j b_j - g B_j b_j||, ||B_j b_j||), as (batch, dim), (batch,
        dim) and (batch, K, 2) arrays.

        A_j b_j and B_j b_j are P L P|b> and P|b> with every other party
        contracted out, so each pair comes from chi and P|b> without
        building a party matrix; a single party contracts nothing.
        """
        count = len(blocks[0])
        projected = self.projected_product(blocks)
        if self.dense is None:
            # L P|b> = sum_t c_t x_t <x_t|Pb>
            coeffs, vectors = self.terms
            applied = (vectors * coeffs) @ (vectors.conj().T @ projected.T)
        else:
            applied = self.dense @ projected.T
        sandwich = project_amplitudes(self.stats, applied, self.space).T
        chi = sandwich - np.asarray(values, dtype=float)[:, None] * projected
        pair = np.stack([chi, projected], axis=-1)
        defects = np.empty((count, self.partition.k, 2))
        for j, dj in enumerate(self.block_dims):
            defects[:, j] = np.linalg.norm(self._contract_fixed(
                pair, _kron_rows(blocks[:j], count),
                _kron_rows(blocks[j + 1:], count), dj), axis=1)
        return projected, chi, defects

    def solutions(self, blocks, values, settled, sweeps,
                  tol: float = math.inf) -> list:
        """The solution records of a batch of starts, or None for one
        whose overlap annihilates a party vector; a residual is the worst
        per-party defect relative to ||B_j b_j||, and a start converged
        where it settled with a residual within ``tol``."""
        projected, chi, defects = self.stationarity(blocks, values)
        out = []
        for b, (defect, scale) in enumerate(defects.transpose(0, 2, 1)):
            if scale.min() <= 0.0:
                out.append(None)
                continue
            residual = float(np.max(defect / scale))
            out.append(SevalueSolution(
                value=float(values[b]),
                party_vectors=tuple(block[b].copy() for block in blocks),
                projected_vector=StateVector(self.space, projected[b]),
                residual=residual, chi_norm=float(np.linalg.norm(chi[b])),
                converged=bool(settled[b]) and residual <= tol,
                sweeps=int(sweeps[b]), partition=self.partition,
                statistics=self.stats))
        return out

    def solution(self, blocks, value: float, converged: bool,
                 sweeps: int) -> SevalueSolution:
        """One start's solution record at the given party vectors."""
        sol, = self.solutions(
            [np.asarray(b, dtype=np.complex128)[None] for b in blocks],
            [value], [converged], [sweeps])
        if sol is None:
            raise ZeroProjectionError("overlap annihilates a party vector")
        return sol

    # -- party-wise operators ----------------------------------------------

    def check_dense_cap(self, j: int) -> None:
        """DimensionCapError where party j's sector is too large to be
        solved through m_j x m_j matrices."""
        mj = self.sector_dims[j]
        if mj > PARTY_DENSE_CAP:
            raise DimensionCapError(
                f"party sector dimension {mj} exceeds the dense cap "
                f"{PARTY_DENSE_CAP}")

    def isometry(self, j: int) -> np.ndarray | None:
        """Party j's block-sector isometry S_j, of shape (block
        dimension, sector dimension), built on first use; None when the
        sector is the whole block, where S_j is unitary and the block's
        own coordinates serve."""
        self.check_dense_cap(j)
        if j not in self._isometries:
            iso = _sector_basis(self.stats, SpaceConfig(
                self.space.d, self.partition.parts[j]))
            self._isometries[j] = None if iso is None else iso.toarray()
        return self._isometries[j]

    def sector(self) -> SectorIsometry | None:
        """The whole space's sector isometry S as orbit tables, built on
        first use; None when the sector is the whole space."""
        if self._sector is None:
            self._sector = _sector_basis(self.stats, self.space)
        return self._sector

    def sector_operator(self) -> tuple:
        """S^H L S (L itself where S is None) as eigen-terms (c, X),
        sum_t c_t x_t x_t^H, built on first use: (c, S^H X) for the
        eigen-form (c, X) of a low-rank L, and for a dense L the
        ``eigen_terms`` of S^H L S, built through the dense columns of S."""
        if self._sector_operator is None:
            sec = self.sector()
            if self.dense is None:
                coeffs, vectors = self.terms
                self._sector_operator = (coeffs, vectors if sec is None
                                         else sec.adjoint(vectors))
            else:
                op = self.dense
                if sec is not None:
                    cols = sec.toarray()
                    op = cols.conj().T @ op @ cols
                self._sector_operator = eigen_terms(op)
        return self._sector_operator

    def party_matrices(self, blocks, j: int) -> tuple:
        """Party j's equations A_j x = g B_j x with the other blocks held
        fixed, in its block's sector coordinates, as (numerator, overlap,
        S_j) with a leading batch axis, S_j None for the identity.

        The numerator is the eigen-terms of ``sector_operator``
        contracted onto the party, never an m x m matrix: A_j = sum_t c_t
        a_t a_t^H as (c, V), V holding S_j^H a_1..a_T as columns.  The
        overlap is S_j^H B_j S_j, or, where P = 1, the scalar
        ||left||^2 ||right||^2 standing for that multiple of the identity.
        """
        iso = self.isometry(j)
        count = len(blocks[0])
        sec = self.sector()
        coeffs, vectors = self.sector_operator()
        dj = self.block_dims[j]
        left = _kron_rows(blocks[:j], count)
        right = _kron_rows(blocks[j + 1:], count)
        if sec is None:
            # P = 1 and S_j = 1: q^H q is ||left||^2 ||right||^2 times
            # the identity
            overlap = np.einsum("bl,bl->b", left.conj(), left).real \
                * np.einsum("br,br->b", right.conj(), right).real
            return ((coeffs, self._contract_fixed(vectors, left, right, dj)),
                    overlap, iso)
        embed = np.eye(dj, dtype=np.complex128) if iso is None else iso
        mj = embed.shape[1]
        # every start's q = left x embed x right side by side, as the
        # columns (start, y) of rows (l, x, r)
        outer = (left[:, :, None] * right[:, None, :]).transpose(1, 2, 0)
        q = (outer.reshape(left.shape[1], 1, -1, 1)
             * embed[None, :, None, :]).reshape(-1, count * mj)
        # q^H P q = y^H y and q^H k = y^H S^H k, with y = S^H q
        adj = _dag(sec.adjoint(q).reshape(-1, count, mj).transpose(1, 0, 2))
        return (coeffs, adj @ vectors), _hermitian_part(adj @ _dag(adj)), iso

    def _contract_fixed(self, full, left, right, dj) -> np.ndarray:
        """<left_b| x 1 x <right_b| applied, for every start b, to the
        columns of full-space vectors: (batch, dim, c) in, or (dim, c)
        shared by every start, and (batch, dj, c) out."""
        count, dl, dr = len(left), left.shape[1], right.shape[1]
        c = full.shape[-1]
        fixed = left.conj()[:, None, :] @ full.reshape(-1, dl, dj * dr * c)
        fixed = fixed.reshape(count, dj, dr, c).transpose(0, 1, 3, 2)
        return (fixed.reshape(count, dj * c, dr) @ right.conj()[:, :, None]
                ).reshape(count, dj, c)

    # -- the sweep ------------------------------------------------------------

    def sweep(self, inits, max_sweeps: int, tol: float, mode: str,
              value_tol: float) -> list:
        """Cyclic per-party ascent (or descent) of many starts at once.

        ``inits`` holds one iterator per start over the initializations
        (one vector per party) it may try.  The starts advance as one
        batch, one batched step per party per sweep, with at most
        BATCH_BYTES of stacked party arrays: the others wait and join as
        starts leave.  A start that meets a zero projection takes its
        next initialization and rejoins with its own sweep count.  A
        start leaves when its quotient settles within ``value_tol`` and
        its residual is within ``tol``, or after ``max_sweeps``.  Returns
        each start's solution, or None where its initializations ran out.
        A single party takes one exact step instead (``sector_step``).
        """
        if mode not in ("max", "min"):
            raise ValueError("mode must be 'max' or 'min'")
        max_sweeps = check_count(max_sweeps, "max_sweeps")
        # no residual meets a NaN or negative tol; a negative value_tol
        # never settles, so every start runs max_sweeps sweeps
        if not tol >= 0.0:
            raise ValueError(f"tol must be a number >= 0, got {tol}")
        if math.isnan(value_tol):
            raise ValueError("value_tol must not be NaN")
        if self.partition.k == 1:
            if self.dense is not None:
                self.check_dense_cap(0)
            return self.sector_step(inits, mode, tol)
        size = max(1, BATCH_BYTES // (16 * self.space.total_dim
                                      * max(1, *self.sector_dims)))
        out: list = [None] * len(inits)
        # the starts in the batch, their sweeps so far, their last values
        # and their party vectors
        batch = [np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)] \
            + [np.zeros((0, dim), dtype=np.complex128)
               for dim in self.block_dims]
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
                new = [b / np.linalg.norm(b, axis=1, keepdims=True)
                       for b in new]
                ok = np.linalg.norm(self.projected_product(new), axis=1) \
                    >= INIT_PROJECTION_TOL
                pending = starts[~ok].tolist() + pending
                batch = [np.concatenate(pair) for pair in zip(batch, [
                    starts[ok], np.zeros(np.count_nonzero(ok), dtype=int),
                    np.full(np.count_nonzero(ok), np.nan)]
                    + [b[ok] for b in new])]
            ids, counts, previous, *blocks = batch
            if not ids.size:
                continue
            counts += 1
            lost = np.zeros(ids.size, dtype=bool)
            for j in range(self.partition.k):
                numer, overlap, iso = self.party_matrices(blocks, j)
                coords = blocks[j] if iso is None \
                    else (blocks[j].conj() @ iso).conj()
                values, coords = _generalized_step(numer, overlap, coords,
                                                   mode)
                blocks[j] = coords if iso is None else coords @ iso.T
                lost |= np.isnan(values)
            settled = (counts > 1) & (np.abs(values - previous) <= value_tol)
            check = ((settled | (counts >= max_sweeps)) & ~lost).nonzero()[0]
            sols = self.solutions([b[check] for b in blocks], values[check],
                                  settled[check], counts[check], tol) \
                if check.size else []
            done = lost.copy()
            for pos, sol in zip(check, sols):
                if sol is None or sol.converged or counts[pos] >= max_sweeps:
                    out[ids[pos]] = sol
                    lost[pos], done[pos] = sol is None, True
            pending = ids[lost].tolist() + pending
            batch = [part[~done] for part in [ids, counts, values] + blocks]
        return out

    def sector_step(self, inits, mode: str, tol: float) -> list:
        """A single party: its block is the whole space, so its equation
        is the extremal eigenproblem of P L P on the sector, with the
        terms of ``sector_operator`` as numerator and the overlap 1.
        One ``_generalized_step`` per start solves it exactly, from the
        sector part y = S^H b of the start's first initialization; the
        party vector is S y.  An empty sector fails every start."""
        if not self.sector_dims[0]:
            return [None] * len(inits)
        sec = self.sector()
        first = np.array([next(init)[0] for init in inits],
                         dtype=np.complex128)
        count = len(first)
        coeffs, vectors = self.sector_operator()
        numer = (coeffs, np.broadcast_to(vectors, (count,) + vectors.shape))
        if sec is not None:
            first = sec.adjoint(first.T).T
        values, coords = _generalized_step(numer, np.ones(count), first, mode)
        vectors = coords if sec is None else sec.apply(coords.T).T
        return self.solutions([vectors], values, np.ones(count, dtype=bool),
                              np.ones(count, dtype=int), tol)


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
    ws = _Solver(problem)
    if [np.shape(b) for b in init] != [(dim,) for dim in ws.block_dims]:
        raise ValueError(f"need party vectors of dimensions {ws.block_dims}")
    if not all(np.isfinite(b).all() for b in init):
        raise ValueError("init must be finite")
    if not all(np.any(b) for b in init):
        raise ZeroProjectionError("zero party vector in initialization")
    sol, = ws.sweep([iter([init])], max_sweeps, tol, mode, value_tol)
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
    and reaches the same point however the starts are batched.  A
    single full-space party is solved once, from start 0.  Raises
    ConvergenceError when no start converges (distinct from a converged
    bound that simply fails to detect), and ValueError unless ``starts``
    and ``max_sweeps`` are integers of at least 1, ``tol`` a number of
    at least 0 and ``value_tol`` a number.
    """
    starts = check_count(starts, "starts")
    # one workspace for every start, so the isometries and the sector
    # operator are built once per solve
    ws = _Solver(problem)
    count = 1 if problem.partition.k == 1 else starts
    # start i tries up to 8 initializations drawn from its own generator
    inits = [([_crandn(rng, dim) for dim in ws.block_dims]
              for rng in [np.random.default_rng([seed, i])] * 8)
             for i in range(count)]
    results = ws.sweep(inits, max_sweeps, tol, mode, value_tol)
    solutions = tuple(r for r in results if r is not None)
    n_failed = count - len(solutions)
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
        fraction_at_value=at_value / count,
        n_converged=len(converged), n_failed=n_failed,
        starts=starts, seed=seed)


# ---------------------------------------------------------------------------
# analytic solutions

def _rank_one_diagnostics(ws: _Solver, value: float,
                          blocks) -> SevalueSolution:
    blocks = [np.asarray(b, dtype=np.complex128) for b in blocks]
    blocks = [b / np.linalg.norm(b) for b in blocks]
    sol = ws.solution(blocks, value, converged=True, sweeps=0)
    if sol.projected_vector.norm() < 1e-12:
        raise ZeroProjectionError("analytic party vectors project to zero")
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
    observable = rank_one_observable(psi, stats)
    partition = Partition((1, 1))
    ws = _Solver(SevalueProblem(observable, stats, partition, psi.space))
    solutions: list[SevalueSolution] = []
    if stats is Statistics.DISTINGUISHABLE:
        dec = schmidt(psi)
        for idx, lam in enumerate(dec.coefficients):
            solutions.append(_rank_one_diagnostics(
                ws, lam ** 2,
                [dec.left_basis[:, idx], dec.right_basis[:, idx]]))
    elif stats is Statistics.FERMION:
        dec = slater_fermion(project(stats, psi))
        for idx, kappa in enumerate(dec.coefficients):
            if kappa <= 1e-14:
                continue
            solutions.append(_rank_one_diagnostics(
                ws, 2.0 * kappa ** 2,
                [dec.basis[:, 2 * idx], dec.basis[:, 2 * idx + 1]]))
    else:
        dec = slater_boson(project(stats, psi))
        kappas = dec.coefficients
        for idx, kappa in enumerate(kappas):
            if kappa <= 1e-14:
                continue
            solutions.append(_rank_one_diagnostics(
                ws, kappa ** 2,
                [dec.basis[:, idx], dec.basis[:, idx]]))
        d = psi.space.d
        for a in range(d):
            for b in range(a + 1, d):
                if kappas[a] <= 1e-14 and kappas[b] <= 1e-14:
                    continue
                wa = np.sqrt(kappas[a]) * dec.basis[:, a]
                wb = 1j * np.sqrt(kappas[b]) * dec.basis[:, b]
                solutions.append(_rank_one_diagnostics(
                    ws, kappas[a] ** 2 + kappas[b] ** 2, [wa + wb, wa - wb]))
    solutions.sort(key=lambda s: -s.value)
    return solutions


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
    with at most one block of size >= 2.  For fermion partitions with
    two blocks of equal even size (the smallest case is (2, 2)), exact
    product states exist whose quotient reaches 1: with A, C the two
    label groups and omega_A, omega_C antisymmetric two-particle states
    supported on them, even-degree components commute, so the cross
    terms of (omega_A + i omega_C) x (omega_A - i omega_C) cancel under
    antisymmetrization and the projected product lands exactly on the
    balanced superposition of the two interference kets.  The sweep
    solver finds those solutions; use it rather than this value when
    that pattern applies.
    """
    observable = interference_observable(space, stats)
    problem = SevalueProblem(observable, stats, partition, space)
    k = partition.k
    bound = 0.5 ** (k - 1)
    blocks = []
    for party in range(k):
        sub = SpaceConfig(space.d, partition.parts[party])
        low = basis_product_vector(sub, [s for s in partition.slots(party)])
        high = basis_product_vector(sub, [space.n + s
                                          for s in partition.slots(party)])
        blocks.append((low.amplitudes + high.amplitudes) / math.sqrt(2.0))
    rep = _rank_one_diagnostics(_Solver(problem), bound, blocks)
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

    Quotients are evaluated through the combinatorial sector basis,
    never through per-party eigensolves: S, whose orbit tables apply
    S^H by gathers, and the observable's sector terms are read from a
    solver workspace, as the party steps read them.  So the check on
    that basis lies elsewhere: the solver's stationarity diagnostics
    stay on the permutation-sum projector, and the tests compare
    ``sector_isometry`` with that projector.  Samples
    with numerically zero projection are skipped.  Deterministic for a
    fixed seed.

    Each chunk of up to 256 samples builds one complex block per party
    from a single draw of normals, then scales, re-centres and
    normalises it in place; numerators come from all terms at once.
    Drawing the normals bounds the time: for a 4096-mode party they are
    about two thirds of it (one BLAS thread).  The draws and the bounds
    are those of the loop form that the tests keep as a reference; only
    the summation order of the norms and numerators differs, so the two
    agree to 1e-12 relative.  ``samples`` must be an integer of at
    least 1; anything else raises ValueError.

    At small budgets the bound can sit far below the supremum: for the
    boson interference observable at N=3, d=6, partition (2, 1), 2000
    samples (seed 3) reach 0.205 against the proven 0.5.  A check that
    the oracle stays at or below a solver value therefore cannot catch
    a solver value that is too low; nothing here bounds G from above.
    """
    samples = check_count(samples, "samples")
    ws = _Solver(problem)
    sec, (coeffs, vectors) = ws.sector(), ws.sector_operator()
    # C-ordered rows <x_t| in sector coordinates: rows @ x gives every
    # term's overlaps with a batch of vectors x at once
    rows = np.ascontiguousarray(vectors.T.conj())
    dims = ws.block_dims

    def evaluate(blocks):
        """Quotients of a batch of product vectors.

        Each per-party block has shape (party_dim, batch): keeping the
        batch on the trailing, contiguous axis makes each gather of the
        sector compression S^H copy whole rows."""
        count = blocks[0].shape[1]
        vecs = blocks[0]
        for block in blocks[1:]:
            vecs = (vecs[:, None, :] * block[None, :, :]).reshape(-1, count)
        coords = vecs if sec is None else sec.adjoint(vecs)
        denom = _column_norms_sq(coords)
        quotients = np.full(count, -math.inf)
        valid = denom > 1e-14
        if not np.any(valid):
            return quotients
        # sum_t c_t |<x_t|x>|^2
        numer = coeffs @ np.abs(rows @ coords) ** 2
        quotients[valid] = numer[valid] / denom[valid]
        return quotients

    rng = np.random.default_rng([seed, 11])
    best = -math.inf
    best_blocks = None
    remaining = samples - samples // 2
    while remaining > 0:
        count = min(_ORACLE_CHUNK, remaining)
        remaining -= count
        blocks = []
        for dim in dims:
            block = _crandn(rng, (dim, count))
            _normalize_columns(block)
            blocks.append(block)
        quotients = evaluate(blocks)
        top = int(np.argmax(quotients))
        if quotients[top] > best:
            best = float(quotients[top])
            best_blocks = [block[:, top].copy() for block in blocks]
    if best_blocks is None:
        raise ZeroProjectionError("every sample projected to zero")

    # refinement: cycle through the parties, perturbing one at a time
    # around the incumbent with an adaptive relative step
    steps = [0.5] * len(dims)
    party = 0
    remaining = samples // 2
    while remaining > 0:
        count = min(_ORACLE_CHUNK, remaining)
        remaining -= count
        blocks = []
        for j, (center, dim) in enumerate(zip(best_blocks, dims)):
            if j == party:
                block = _crandn(rng, (dim, count))
                block *= steps[j] / math.sqrt(dim)
                block += center[:, None]
                _normalize_columns(block)
            else:
                block = np.broadcast_to(center[:, None], (dim, count))
            blocks.append(block)
        quotients = evaluate(blocks)
        top = int(np.argmax(quotients))
        if quotients[top] > best:
            best = float(quotients[top])
            best_blocks = [np.array(block[:, top]) for block in blocks]
            steps[party] = min(steps[party] * 1.5, 2.0)
        else:
            steps[party] = max(steps[party] * 0.8, 1e-4)
        party = (party + 1) % len(dims)
    return best


# ---------------------------------------------------------------------------
# covariance and the perturbed single-equation form

def transformed_observable(operator, lambda1: float, lambda2: float,
                           unitary: np.ndarray, stats: Statistics,
                           space: SpaceConfig):
    """The observable U^dagger...U [lambda1 L + lambda2 P] rotated by a
    local unitary applied to every slot.  Low-rank inputs stay low-rank
    when lambda2 = 0; otherwise a dense matrix is required."""
    udag = np.asarray(unitary, dtype=np.complex128).conj().T
    if isinstance(operator, LowRankObservable):
        if lambda2 == 0.0:
            terms = tuple(
                (lambda1 * c,
                 _apply_local(udag, k, space.n),
                 _apply_local(udag, b, space.n))
                for c, k, b in operator.terms)
            return LowRankObservable(space, terms, kind=operator.kind)
        operator = operator.to_matrix()
    dim = space.total_dim
    if dim > PARTY_DENSE_CAP:
        raise DimensionCapError(
            f"dense transformed observable of side {dim} exceeds "
            f"{PARTY_DENSE_CAP}")
    shifted = lambda1 * np.asarray(operator, dtype=np.complex128) \
        + lambda2 * projector_matrix(stats, space)
    full = reduce(np.kron, [np.asarray(unitary, dtype=np.complex128)] * space.n)
    return full.conj().T @ shifted @ full


def transform_solution(sol: SevalueSolution, lambda1: float, lambda2: float,
                       unitary: np.ndarray) -> SevalueSolution:
    """Carry a solution over to the rotated and affinely reparameterized
    observable: the quotient becomes lambda1 * g + lambda2 and every
    party vector is rotated slot-wise by U^dagger."""
    if lambda1 == 0.0:
        raise ValueError("lambda1 must be nonzero")
    u = np.asarray(unitary, dtype=np.complex128)
    d = sol.projected_vector.space.d
    if u.shape != (d, d) or \
            np.abs(u.conj().T @ u - np.eye(d)).max() > 1e-10:
        raise ValueError("unitary must be a d x d unitary matrix")
    udag = u.conj().T
    new_blocks = tuple(
        _apply_local(udag, np.asarray(b), nk)
        for b, nk in zip(sol.party_vectors, sol.partition.parts))
    new_projected = StateVector(
        sol.projected_vector.space,
        _apply_local(udag, sol.projected_vector.amplitudes,
                     sol.projected_vector.space.n))
    return replace(sol,
                   value=lambda1 * sol.value + lambda2,
                   party_vectors=new_blocks,
                   projected_vector=new_projected,
                   residual=abs(lambda1) * sol.residual,
                   chi_norm=abs(lambda1) * sol.chi_norm)


def verify_second_form(sol: SevalueSolution,
                       problem: SevalueProblem) -> tuple[StateVector, float]:
    """Perturbed single-equation check of a solution.

    Returns the in-sector perturbation chi = P L P|b> - g P|b> together
    with the largest overlap of chi against single-party variations of
    the product vector.  The overlap vanishes at an exact stationary
    point; chi in general does not.
    """
    blocks = [np.asarray(b, dtype=np.complex128)[None]
              for b in sol.party_vectors]
    _, chi, defects = _Solver(problem).stationarity(blocks, [sol.value])
    return (StateVector(problem.space, chi[0]),
            max(defect for defect, _ in defects[0]))
