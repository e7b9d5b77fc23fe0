"""Orthonormal bases of the exchange-symmetry sectors.

Built combinatorially from multisets (bosons) or subsets (fermions) of
mode labels, not from the permutation-sum projector, so the two routes
can cross-check each other.  The isometry S has the sector basis as its
columns and satisfies S S^dagger = projector, S^dagger S = identity.

Column c of S is the label's orbit under slot permutations: one entry
per distinct arrangement of the label, each of modulus 1/sqrt(orbit
size), signed by the permutation's parity for fermions.  No full-space
index lies in two orbits, so S is stored as orbit tables, one per orbit
size, and applied by gathers and scatters.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .tensor import SpaceConfig, Statistics, _cycle_parity


def sector_basis_labels(stats: Statistics, space: SpaceConfig) -> list[tuple[int, ...]]:
    """Canonical label tuples indexing the sector basis, sorted."""
    modes = range(space.d)
    if stats is Statistics.BOSON:
        return list(itertools.combinations_with_replacement(modes, space.n))
    if stats is Statistics.FERMION:
        return list(itertools.combinations(modes, space.n))
    return list(itertools.product(modes, repeat=space.n))


class SectorIsometry:
    """The real isometry S of a sector, as orbit tables.

    Each group of ``groups`` holds the columns whose orbits have one
    size s: their positions ``cols``, an (s, len(cols)) array ``index``
    of full-space indices, one sign per slot of the orbit and the
    coefficient 1/sqrt(s) shared by the group's entries.
    """

    def __init__(self, shape: tuple[int, int], groups):
        self.shape = shape
        self.groups = tuple(groups)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """S^H x for a full-space vector or a (dim, batch) array."""
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[0]:
            raise ValueError(f"S^H of shape {self.shape[::-1]} cannot "
                             f"apply to shape {x.shape}")
        out = np.empty((self.shape[1],) + x.shape[1:], dtype=np.complex128)
        for cols, index, signs, coeff in self.groups:
            acc = x[index[0]]
            for slot, sign in zip(index[1:], signs[1:]):
                if sign > 0:
                    acc += x[slot]
                else:
                    acc -= x[slot]
            acc *= coeff
            out[cols] = acc
        return out

    def toarray(self) -> np.ndarray:
        """The dense (dim, sector dimension) complex array of S."""
        out = np.zeros(self.shape, dtype=np.complex128)
        for cols, index, signs, coeff in self.groups:
            out[index, cols] = (coeff * signs)[:, None]
        return out

    def apply(self, y: np.ndarray) -> np.ndarray:
        """S y for a sector vector or a (sector dimension, batch) array."""
        y = np.asarray(y)
        if y.ndim not in (1, 2) or y.shape[0] != self.shape[1]:
            raise ValueError(f"S of shape {self.shape} cannot apply to "
                             f"shape {y.shape}")
        out = np.zeros((self.shape[0],) + y.shape[1:], dtype=np.complex128)
        for cols, index, signs, coeff in self.groups:
            part = coeff * y[cols]
            for slot, sign in zip(index, signs):
                out[slot] = part if sign > 0 else -part
        return out


def sector_isometry(stats: Statistics, space: SpaceConfig) -> SectorIsometry:
    """Isometry from sector coordinates into the full product space."""
    n, d, dim = space.n, space.d, space.total_dim
    if not stats.is_projected:
        every = np.arange(dim)
        return SectorIsometry((dim, dim), [(every, every[None], np.ones(1),
                                            1.0)])
    labels = np.array(sector_basis_labels(stats, space),
                      dtype=np.intp).reshape(-1, n)
    perms = list(itertools.permutations(range(n)))
    # flat[c, p]: big-endian index of label c rearranged by perm p
    flat = labels[:, perms] @ (d ** np.arange(n - 1, -1, -1, dtype=np.intp))
    groups = []
    if stats is Statistics.FERMION:
        # labels strictly increasing: all n! arrangements are distinct,
        # the first being the identity
        signs = np.array([-1.0 if _cycle_parity(p) else 1.0 for p in perms])
        groups.append((np.arange(labels.shape[0]), flat.T.copy(), signs,
                       1.0 / math.sqrt(len(perms))))
    else:
        # a sorted row lists each distinct arrangement len(perms)/s times
        flat.sort(axis=1)
        sizes = 1 + np.count_nonzero(np.diff(flat, axis=1), axis=1)
        for size in np.unique(sizes):
            cols = np.nonzero(sizes == size)[0]
            index = flat[cols, ::len(perms) // size].T.copy()
            groups.append((cols, index, np.ones(size),
                           1.0 / math.sqrt(size)))
    return SectorIsometry((dim, labels.shape[0]), groups)


def sector_basis_vectors(stats: Statistics, space: SpaceConfig) -> np.ndarray:
    """Dense (total_dim, sector_dim) array of orthonormal sector vectors."""
    return sector_isometry(stats, space).toarray()
