"""Hermitian observables in dense and low-rank form.

Large composite spaces make dense operator matrices impractical, so the
two observables with known closed-form bounds are carried around as
short lists of |ket><bra| terms.  The solver and witness code accept
either representation; the solver reads both as eigen-terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompositions import eigen_terms, orth
from .errors import DimensionCapError
from .tensor import (MATRIX_CAP, SpaceConfig, StateVector, Statistics,
                     basis_product_vector, project, require_hermitian)


@dataclass(frozen=True)
class LowRankObservable:
    """Hermitian operator sum_r coeff_r |ket_r><bra_r| on the composite space.

    The term list as a whole must be Hermitian; ``eigen_form`` checks it
    on a compressed copy at construction time.  ``kind`` tags operators
    with known analytic separability bounds ("rank_one", "interference").
    """

    space: SpaceConfig
    terms: tuple[tuple[complex, np.ndarray, np.ndarray], ...]
    kind: str | None = None

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a low-rank observable needs at least one term")
        dim = self.space.total_dim
        frozen = []
        for coeff, ket, bra in self.terms:
            k = np.array(ket, dtype=np.complex128)
            b = np.array(bra, dtype=np.complex128)
            if k.shape != (dim,) or b.shape != (dim,):
                raise ValueError("term vector dimension mismatch")
            coeff = complex(coeff)
            if not (np.isfinite(coeff) and np.isfinite(k).all()
                    and np.isfinite(b).all()):
                raise ValueError("low-rank term list must be finite")
            k.setflags(write=False)
            b.setflags(write=False)
            frozen.append((coeff, k, b))
        object.__setattr__(self, "terms", tuple(frozen))
        self.eigen_form()

    def eigen_form(self) -> tuple[np.ndarray, np.ndarray]:
        """The operator as sum_t c_t |x_t><x_t|, (c, X) with real c and
        orthonormal columns X: the ``eigen_terms`` of its compression onto
        an orthonormal basis of its term vectors' span, taken back to the
        whole space; HermiticityError where that compression is not
        Hermitian."""
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
        return sum(c * (vec.conj() @ k) * (b.conj() @ vec)
                   for c, k, b in self.terms)

    def projected(self, stats: Statistics) -> "LowRankObservable":
        """The sandwich projector L projector, term by term."""
        new_terms = []
        for c, k, b in self.terms:
            kp = project(stats, StateVector(self.space, k)).amplitudes
            bp = project(stats, StateVector(self.space, b)).amplitudes
            new_terms.append((c, kp, bp))
        return LowRankObservable(self.space, tuple(new_terms), kind=self.kind)

    def to_matrix(self) -> np.ndarray:
        if self.dim > MATRIX_CAP:
            raise DimensionCapError(
                f"densifying side {self.dim} exceeds cap {MATRIX_CAP}")
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
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
    return LowRankObservable(psi.space, ((1.0 + 0.0j, f, f),), kind="rank_one")


def interference_observable(space: SpaceConfig,
                            stats: Statistics) -> LowRankObservable:
    """Off-diagonal interference probe between two orthogonal product terms.

    Uses 2n distinct mode labels.  For bosons/fermions the two kets are
    projected and rescaled to unit sector norm, so the observable is
    |v><w| + |w><v| with orthonormal v, w and spectrum {1, -1, 0}.  The
    rescaling keeps the separability bound (1/2)**(K-1) independent of
    the statistics, except for fermion partitions with two blocks of
    equal even size, such as (2, 2), where exact product states reach
    the eigenvalue 1 (see analytic_interference).
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
    return LowRankObservable(space, terms, kind="interference")
