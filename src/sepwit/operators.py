"""Hermitian observables, and the sector form that every layer reads.

The solver, the oracle and the witnesses see L only through S^H L S on
the exchange sector: ``sector_observable`` converts a low-rank term
list, a dense matrix or a file's entries to that ``SectorObservable``.
The two observables with closed-form bounds are short lists of
|ket><bra| terms, whose ``to_matrix`` and ``expectation_pure`` are the
tests' independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .decompositions import eigen_terms, orth
from .errors import DimensionCapError
from .tensor import (MATRIX_CAP, SectorIsometry, SpaceConfig, StateVector,
                     Statistics, basis_product_vector, project,
                     project_amplitudes, proper_sector, require_hermitian,
                     subspace_dimension)


@dataclass(frozen=True)
class LowRankObservable:
    """Hermitian sum_r coeff_r |ket_r><bra_r| + offset 1 on the whole space.

    The term list as a whole must be Hermitian; ``eigen_form`` checks it
    on a compressed copy at construction time and is kept.  Each distinct
    input vector is stored once, as a read-only copy shared by every term
    that names it.  The real ``offset``, lambda2 of lambda1 L + lambda2 P,
    equals offset P on every exchange sector.  ``kind`` tags the
    interference observable, whose analytic bound is known: only
    ``interference_observable`` sets it, and ``projected`` drops it.
    """

    space: SpaceConfig
    terms: tuple[tuple[complex, np.ndarray, np.ndarray], ...]
    offset: float = 0.0
    kind: str | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a low-rank observable needs at least one term")
        dim = self.space.total_dim
        copies = {}     # one read-only copy per distinct input vector
        frozen = []
        for coeff, ket, bra in self.terms:
            for vec in (ket, bra):
                if id(vec) not in copies:
                    copies[id(vec)] = np.array(vec, dtype=np.complex128)
                    copies[id(vec)].setflags(write=False)
            k, b = copies[id(ket)], copies[id(bra)]
            if k.shape != (dim,) or b.shape != (dim,):
                raise ValueError("term vector dimension mismatch")
            coeff = complex(coeff)
            if not (np.isfinite(coeff) and np.isfinite(k).all()
                    and np.isfinite(b).all()):
                raise ValueError("low-rank term list must be finite")
            frozen.append((coeff, k, b))
        object.__setattr__(self, "terms", tuple(frozen))
        if not (np.isreal(self.offset) and np.isfinite(self.offset)):
            raise ValueError("offset must be a finite real number")
        object.__setattr__(self, "offset", float(np.real(self.offset)))
        self.eigen_form     # checks the term list, and keeps its form

    @cached_property
    def eigen_form(self) -> tuple[np.ndarray, np.ndarray]:
        """The term list as sum_t c_t |x_t><x_t|, (c, X) with real c and
        orthonormal columns X: the ``eigen_terms`` of its compression onto
        an orthonormal basis of its term vectors' span, taken back to the
        whole space, without the offset; HermiticityError where that
        compression is not Hermitian."""
        coeffs, kets, bras = (np.array(part).T for part in zip(*self.terms))
        stacked = np.hstack([kets, bras])
        # L = 0 keeps one zero term, like a zero matrix in ``eigen_terms``
        basis = orth(stacked) if stacked.any() else np.eye(self.dim, 1)
        compressed = (basis.conj().T @ kets * coeffs) \
            @ (basis.conj().T @ bras).conj().T
        values, vectors = eigen_terms(
            require_hermitian(compressed, "low-rank term list"))
        return values, basis @ vectors

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def expectation_pure(self, vec: np.ndarray) -> complex:
        """<v|L|v> for a raw amplitude vector."""
        return self.offset * (vec.conj() @ vec) + sum(
            c * (vec.conj() @ k) * (b.conj() @ vec) for c, k, b in self.terms)

    def projected(self, stats: Statistics) -> "LowRankObservable":
        """The sandwich projector L projector, term by term; offset kept,
        tag dropped."""
        return replace(self, terms=tuple(
            (c, project_amplitudes(stats, k, self.space),
             project_amplitudes(stats, b, self.space))
            for c, k, b in self.terms))

    def to_matrix(self) -> np.ndarray:
        if self.dim > MATRIX_CAP:
            raise DimensionCapError(
                f"densifying side {self.dim} exceeds cap {MATRIX_CAP}")
        out = self.offset * np.eye(self.dim, dtype=np.complex128)
        for c, k, b in self.terms:
            out += c * np.outer(k, b.conj())
        return out


def rank_one_observable(psi: StateVector, stats: Statistics) -> LowRankObservable:
    """Projected rank-one observable built from a state vector.

    The fidelity-style test operator: sandwich of |psi><psi| between the
    exchange projectors of the given statistics.
    """
    f = project(stats, psi).amplitudes
    if np.linalg.norm(f) < 1e-14:
        raise ValueError("state projects to zero in the requested sector")
    return LowRankObservable(psi.space, ((1.0 + 0.0j, f, f),))


def interference_observable(space: SpaceConfig,
                            stats: Statistics) -> LowRankObservable:
    """Off-diagonal interference probe between two orthogonal product terms.

    Uses 2n distinct mode labels.  For bosons/fermions the two kets are
    projected and rescaled to unit sector norm, so the observable is
    |v><w| + |w><v| with orthonormal v, w and spectrum {1, -1, 0}.  The
    rescaling keeps the separability bound (1/2)**(K-1) independent of
    the statistics, except for fermion partitions with two or more
    blocks of size >= 2, where it is not proven: on (2, 2) exact product
    states reach the eigenvalue 1, and on (3, 2) the solver finds more
    than 0.9 (see analytic_interference).
    Requires d >= 2n so the labels exist.
    """
    if space.d < 2 * space.n:
        raise ValueError(f"need d >= 2n = {2 * space.n}, got d={space.d}")
    nu = stats.norm_factor(space.n)
    low = basis_product_vector(space, tuple(range(space.n)))
    high = basis_product_vector(space, tuple(range(space.n, 2 * space.n)))
    v = np.sqrt(nu) * project(stats, low).amplitudes
    w = np.sqrt(nu) * project(stats, high).amplitudes
    observable = LowRankObservable(space, ((1.0 + 0.0j, v, w),
                                           (1.0 + 0.0j, w, v)))
    object.__setattr__(observable, "kind", "interference")
    return observable


@dataclass(frozen=True, eq=False)
class SectorObservable:
    """L on the sector of ``stats`` in ``space``: S^H L S = X diag(c) X^H +
    offset 1, ``terms`` (c, X) read-only with orthonormal X, S the
    ``sector`` isometry (None for the identity).  The record that the
    closed forms read, ``interference`` (the tagged pair's common
    coefficient) and ``rank_one`` ((c, psi) for L = c|psi><psi|), is set
    by ``sector_observable`` and ``transformed_observable`` alone."""

    stats: Statistics
    space: SpaceConfig
    terms: tuple[np.ndarray, np.ndarray]
    offset: float = 0.0
    interference: complex | None = field(default=None, init=False)
    rank_one: tuple[complex, StateVector] | None = field(default=None,
                                                         init=False)

    def __post_init__(self):
        for array in self.terms:
            array.setflags(write=False)

    @cached_property
    def sector(self) -> SectorIsometry | None:
        return proper_sector(self.stats, self.space)

    def _recorded(self, interference, rank_one) -> "SectorObservable":
        """The form with its analytic record set."""
        object.__setattr__(self, "interference", interference)
        object.__setattr__(self, "rank_one", rank_one)
        return self


def sector_observable(operator, stats: Statistics,
                      space: SpaceConfig) -> SectorObservable:
    """The form of ``operator`` on the sector of ``stats`` in ``space``: a
    form as it is (ValueError for another statistics or space); for a
    ``LowRankObservable`` (c, S^H X) of its eigen form, with its offset
    and record; for a dense Hermitian L or a structured array of its
    (row, col, value) entries the ``eigen_terms`` of S^H L S."""
    if isinstance(operator, SectorObservable):
        if (operator.stats, operator.space) != (stats, space):
            raise ValueError("form of another statistics or space")
        return operator
    sec = proper_sector(stats, space)
    if isinstance(operator, LowRankObservable):
        if operator.space != space:
            raise ValueError("operator space mismatch")
        coeffs, vectors = operator.eigen_form
        form = SectorObservable(stats, space, (coeffs, vectors if sec is None
                                               else sec.adjoint(vectors)),
                                operator.offset)
        scale, *mixed = {c for c, _, _ in operator.terms}
        (coeff, ket, bra), *others = operator.terms
        return form._recorded(
            scale if operator.kind == "interference" and not mixed else None,
            None if others or not np.array_equal(ket, bra)
            else (coeff, StateVector(space, ket)))
    if isinstance(operator, np.ndarray) and operator.dtype.names:
        op = entries_matrix(operator, sec, subspace_dimension(stats, space))
    else:
        op = require_hermitian(operator, "observable")
        if op.shape != (space.total_dim,) * 2:
            raise ValueError(f"operator shape {op.shape}, expected "
                             f"{(space.total_dim,) * 2}")
        if sec is not None:
            op = sec.adjoint(sec.adjoint(op).conj().T)
    return SectorObservable(stats, space, eigen_terms(op))


def entries_matrix(entries, sec, side: int) -> np.ndarray:
    """S^H L S from L's (row, col, value) ``entries`` (L where ``sec`` is
    None), bit for bit the dense route's S^H (S^H L)^H, with no array of
    the whole space's side; DimensionCapError for a side above
    MATRIX_CAP.  Row r of S holds one entry at most, slot ``slot[r]`` of
    orbit ``orbit[r]``: each sum runs in ``SectorIsometry.adjoint``'s
    slot order, then is scaled."""
    if side > MATRIX_CAP:
        raise DimensionCapError(f"matrix side {side} exceeds cap {MATRIX_CAP}")
    rows, cols, values = (entries[f] for f in ("row", "col", "value"))
    if sec is not None:
        orbit, slot = np.full((2, sec.shape[0]), -1)
        negative, coeff = np.zeros(sec.shape[0], bool), np.zeros(side)
        for group_cols, index, signs, group_coeff in sec.groups:
            orbit[index], coeff[group_cols] = group_cols, group_coeff
            slot[index] = np.arange(len(index))[:, None]
            negative[index] = signs[:, None] < 0
        for width in (sec.shape[0], side):     # each pass transposes
            keep = orbit[rows] >= 0
            rows, cols, values = rows[keep], cols[keep], values[keep]
            keys, at = np.unique(orbit[rows] * width + cols,
                                 return_inverse=True)
            sums = np.zeros(len(keys), dtype=np.complex128)
            order = np.argsort(slot[rows], kind="stable")
            np.add.at(sums, at[order],
                      np.where(negative[rows], -values, values)[order])
            rows, cols = keys % width, keys // width
            values = (sums * coeff[cols]).conj()
        rows, cols, values = cols, rows, values.conj()
    op = np.zeros((side, side), dtype=np.complex128)
    op[rows, cols] = values
    return op
