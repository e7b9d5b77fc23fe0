"""Canonical forms of two-particle states.

Schmidt decomposition (distinguishable), and Slater-type decompositions
obtained from the Autonne-Takagi factorization of the coefficient
matrix: diagonal for symmetric matrices (two bosons), 2x2 blocks for
skew-symmetric matrices (two fermions).

The symmetric Takagi factorization is computed from the eigenvectors of
the real symmetric embedding [[Re M, Im M], [Im M, -Re M]]: for an
eigenpair (s, (x, y)) with s > 0, the complex vector u = x + i y
satisfies M conj(u) = s u, and the vectors for positive eigenvalues are
complex-orthonormal, including degenerate groups.  The skew case pairs
the doubly degenerate singular values by greedy deflation, fixing the
sign convention of each 2x2 block explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (DensityOperator, SpaceConfig, StateVector, Statistics,
                     project, require_hermitian)

SYMMETRY_TOL = 1e-10
RANK_CUTOFF = 1e-13


def _svd_rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Number of singular values above eps * max(m, n) * s_max."""
    cutoff = np.finfo(float).eps * max(shape) * s.max(initial=0.0)
    return int(np.sum(s > cutoff))


def orth(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of ``mat``, from its SVD."""
    mat = np.asarray(mat)
    u, s, _vh = np.linalg.svd(mat, full_matrices=False)
    return u[:, :_svd_rank(s, mat.shape)]


def eigen_terms(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A Hermitian n x n h as eigen-terms (c, X), h = X diag(c) X^H with
    orthonormal C-ordered columns X, less the eigenpairs with |c_t| <= n
    eps max|c| but the largest: a zero matrix keeps one term."""
    vals, vecs = np.linalg.eigh(h)
    size = np.abs(vals)
    keep = size > np.finfo(float).eps * len(vals) * size.max(initial=0.0)
    if vals.size:
        keep[size.argmax()] = True
    return vals[keep], np.ascontiguousarray(vecs[:, keep])


def null_space(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel of ``mat``, from its SVD."""
    mat = np.asarray(mat)
    _u, s, vh = np.linalg.svd(mat, full_matrices=True)
    return vh[_svd_rank(s, mat.shape):].conj().T


def _check_two_particle(psi: StateVector) -> np.ndarray:
    if psi.space.n != 2:
        raise ValueError(f"need a two-particle state, got n={psi.space.n}")
    d = psi.space.d
    return psi.amplitudes.reshape(d, d)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """psi = sum_n coefficients[n] |left_n> x |right_n>, coefficients
    nonincreasing, bases column-orthonormal."""

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def reconstruct(self, space: SpaceConfig) -> StateVector:
        mat = (self.left_basis * self.coefficients) @ self.right_basis.T
        return StateVector(space, mat.reshape(-1))


@dataclass(frozen=True)
class FermionSlater:
    """f = sum_n coefficients[n] (|w_2n, w_2n+1> - |w_2n+1, w_2n|) with
    w_k the columns of the unitary basis (0-based pairing)."""

    coefficients: np.ndarray
    basis: np.ndarray

    def reconstruct(self, space: SpaceConfig) -> StateVector:
        d = self.basis.shape[0]
        mat = np.zeros((d, d), dtype=np.complex128)
        for idx, kappa in enumerate(self.coefficients):
            a = self.basis[:, 2 * idx]
            b = self.basis[:, 2 * idx + 1]
            mat += kappa * (np.outer(a, b) - np.outer(b, a))
        return StateVector(space, mat.reshape(-1))


@dataclass(frozen=True)
class BosonSlater:
    """b = sum_n coefficients[n] |w_n, w_n> with w_n the columns of the
    unitary basis."""

    coefficients: np.ndarray
    basis: np.ndarray

    def reconstruct(self, space: SpaceConfig) -> StateVector:
        mat = (self.basis * self.coefficients) @ self.basis.T
        return StateVector(space, mat.reshape(-1))


@dataclass(frozen=True)
class BosonProductDecomposition:
    """Canonical form of a symmetrized pair of single-particle vectors.

    The symmetrization of (a_1, a_2) equals
    U' x U' (lambda1 |0,0> + lambda2 |1,1>), and the stored party
    vectors  U'(sqrt(lambda1)|0> +/- i sqrt(lambda2)|1>)  reproduce it.
    """

    basis: np.ndarray
    lambda1: float
    lambda2: float
    party_vectors: tuple[np.ndarray, np.ndarray]


def schmidt(psi: StateVector) -> SchmidtDecomposition:
    """Schmidt decomposition of a bipartite state via SVD of the
    coefficient matrix.  Trailing numerically-zero coefficients are
    dropped (relative cutoff)."""
    mat = _check_two_particle(psi)
    u, s, vh = np.linalg.svd(mat)
    if s.size and s[0] > 0:
        rank = int(np.sum(s > RANK_CUTOFF * s[0]))
    else:
        rank = 0
    return SchmidtDecomposition(coefficients=s[:rank],
                                left_basis=u[:, :rank],
                                right_basis=vh[:rank, :].T)


def _complete_unitary(columns: list, d: int) -> np.ndarray:
    """The d x d unitary whose first columns are the given orthonormal
    ones, completed by an orthonormal basis of their complement."""
    found = len(columns)
    if found < d:
        complement = (null_space(np.column_stack(columns).conj().T) if found
                      else np.eye(d, dtype=np.complex128))
        columns = columns + [complement[:, k] for k in range(d - found)]
    return np.column_stack(columns)


def takagi_symmetric(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a complex symmetric matrix as U diag(kappa) U^T.

    Returns (U, kappa) with U unitary and kappa the singular values of
    the input, sorted nonincreasing.
    """
    m = np.asarray(mat, dtype=np.complex128)
    d = m.shape[0]
    if m.shape != (d, d):
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.T).max(initial=0.0) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric")
    re, im = m.real, m.imag
    embedding = np.block([[re, im], [im, -re]])
    # symmetrize away float noise before eigh
    embedding = (embedding + embedding.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(embedding)
    smax = eigvals[-1] if eigvals.size else 0.0
    cutoff = max(smax, 0.0) * RANK_CUTOFF
    positive = np.nonzero(eigvals > cutoff)[0][::-1]  # descending
    columns = []
    kappas = []
    for idx in positive[: d]:
        u = eigvecs[:d, idx] + 1j * eigvecs[d:, idx]
        columns.append(u)
        kappas.append(eigvals[idx])
    kappa = np.zeros(d)
    kappa[:len(kappas)] = kappas
    return _complete_unitary(columns, d), kappa


def takagi_skew(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a complex skew-symmetric matrix as U D U^T with D built
    from 2x2 blocks kappa_j [[0, 1], [-1, 0]] (trailing zero row/column
    when the dimension is odd).

    Returns (U, kappa) with kappa of length floor(d/2), nonincreasing;
    each kappa_j > 0 is a doubly degenerate singular value of the input.
    """
    m = np.asarray(mat, dtype=np.complex128)
    d = m.shape[0]
    if m.shape != (d, d):
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m + m.T).max(initial=0.0) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not skew-symmetric")
    npairs = d // 2
    work = m.copy()
    tol = max(float(np.linalg.norm(m, 2)) * RANK_CUTOFF, 1e-300)
    columns: list[np.ndarray] = []
    kappas: list[float] = []
    while len(kappas) < npairs:
        u, s, _vh = np.linalg.svd(work)
        if s[0] <= tol:
            break
        u1 = u[:, 0]
        for col in columns:
            u1 = u1 - col * (col.conj() @ u1)
        u1 = u1 / np.linalg.norm(u1)
        t = work @ u1.conj()
        sigma = float(np.linalg.norm(t))
        u2 = t / sigma
        u2 = u2 - u1 * (u1.conj() @ u2)
        for col in columns:
            u2 = u2 - col * (col.conj() @ u2)
        u2 = u2 / np.linalg.norm(u2)
        # block columns (u2, u1): work conj(u2) = -sigma u1, conj(u1) = +sigma u2
        columns.extend([u2, u1])
        kappas.append(sigma)
        work = work - sigma * (np.outer(u2, u1) - np.outer(u1, u2))
    kappa = np.zeros(npairs)
    kappa[: len(kappas)] = kappas
    return _complete_unitary(columns, d), kappa


def slater_fermion(f: StateVector) -> FermionSlater:
    """Slater decomposition of an antisymmetric two-particle state."""
    mat = _check_two_particle(f)
    projected = project(Statistics.FERMION, f)
    if np.linalg.norm(projected.amplitudes - f.amplitudes) > \
            SYMMETRY_TOL * max(1.0, f.norm()):
        raise ValueError("input is not antisymmetric")
    unitary, kappa = takagi_skew(mat)
    return FermionSlater(coefficients=kappa, basis=unitary)


def slater_boson(b: StateVector) -> BosonSlater:
    """Slater-type decomposition of a symmetric two-particle state."""
    mat = _check_two_particle(b)
    if np.linalg.norm(project(Statistics.BOSON, b).amplitudes
                      - b.amplitudes) > SYMMETRY_TOL * max(1.0, b.norm()):
        raise ValueError("input is not symmetric")
    unitary, kappa = takagi_symmetric(mat)
    return BosonSlater(coefficients=kappa, basis=unitary)


def boson_product_decompose(a1: np.ndarray, a2: np.ndarray) -> BosonProductDecomposition:
    """Canonical two-mode form of the symmetrized product of two
    single-particle vectors.  Parallel inputs give lambda2 = 0."""
    v1 = np.asarray(a1, dtype=np.complex128)
    v2 = np.asarray(a2, dtype=np.complex128)
    if np.linalg.norm(v1) == 0.0 or np.linalg.norm(v2) == 0.0:
        raise ValueError("input vectors must be nonzero")
    sym = (np.outer(v1, v2) + np.outer(v2, v1)) / 2.0
    unitary, kappa = takagi_symmetric(sym)
    d = v1.shape[0]
    lam1 = float(kappa[0])
    lam2 = float(kappa[1]) if d > 1 else 0.0
    r1 = np.sqrt(lam1) * unitary[:, 0]
    r2 = r1.copy()
    if d > 1:
        r1 = r1 + 1j * np.sqrt(lam2) * unitary[:, 1]
        r2 = r2 - 1j * np.sqrt(lam2) * unitary[:, 1]
    return BosonProductDecomposition(basis=unitary, lambda1=lam1, lambda2=lam2,
                                     party_vectors=(r1, r2))


def numerical_rank(rho: DensityOperator | np.ndarray,
                   rel_cutoff: float = 1e-10) -> int:
    """Number of eigenvalues above rel_cutoff times the largest one.

    The input must be Hermitian and positive semidefinite up to noise.
    """
    mat = rho.to_matrix() if isinstance(rho, DensityOperator) else np.asarray(rho)
    require_hermitian(mat, "numerical_rank input")
    eigvals = np.linalg.eigvalsh(mat)
    top = eigvals[-1] if eigvals.size else 0.0
    if top <= 0.0:
        return 0
    if eigvals[0] < -1e-8 * top:
        raise ValueError("matrix is not positive semidefinite")
    return int(np.sum(eigvals > rel_cutoff * top))
