"""Hermitian observables in dense and low-rank form.

Large composite spaces make dense operator matrices impractical, so the
two observables with known closed-form bounds are carried around as
short lists of |ket><bra| terms.  The solver and witness code accept
either representation, a low-rank one through its ``eigen_form``;
``to_matrix`` and ``expectation_pure`` evaluate the term list itself,
the tests' independent reference for every eigen-form reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .decompositions import eigen_terms, orth
from .errors import DimensionCapError
from .tensor import (MATRIX_CAP, SpaceConfig, StateVector, Statistics,
                     basis_product_vector, project, project_amplitudes,
                     require_hermitian)


@dataclass(frozen=True)
class LowRankObservable:
    """Hermitian sum_r coeff_r |ket_r><bra_r| + offset 1 on the whole space.

    The term list as a whole must be Hermitian; ``eigen_form`` checks it
    on a compressed copy at construction time and is kept.  Each distinct
    input vector is stored once, as a read-only copy shared by every term
    that names it.  The real ``offset``, lambda2 of lambda1 L + lambda2 P,
    equals offset P on every exchange sector.  ``kind`` tags the
    interference observable, whose analytic bound is known: no
    constructor argument sets it, only ``interference_observable``, and
    ``transformed_observable`` carries it (``dataclasses.replace``, so
    ``projected``, drops it).
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

    def _tagged(self, kind: str | None) -> "LowRankObservable":
        """This new observable, tagged ``kind``: the one way the tag is
        set, by ``interference_observable`` and ``transformed_observable``."""
        object.__setattr__(self, "kind", kind)
        return self

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
    terms = ((1.0 + 0.0j, v, w), (1.0 + 0.0j, w, v))
    return LowRankObservable(space, terms)._tagged("interference")
