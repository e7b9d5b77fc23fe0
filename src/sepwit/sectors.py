"""Orthonormal bases of the exchange-symmetry sectors, and the coupling
of a partition's block sectors into the whole sector.

The sector isometry S (``sector_isometry``, its orbit tables and its
labels live in ``tensor``, whose projectors are P = S S^H) is built
combinatorially from multisets (bosons) or subsets (fermions) of mode
labels, not from the permutation-sum projector.  The cross-check of
the two routes lives in the tests, where ``conftest.project_full_sum``
is the explicit signed sum over all N! slot permutations.  S has the
sector basis as its columns and satisfies S S^dagger = projector,
S^dagger S = identity.

The coupling map T = S^H (S_1 x ... x S_K) of a partition's block
sectors into the whole sector is built from the labels alone too: a
product of block-sector basis vectors lands on the one whole-sector
basis vector whose label is the sorted concatenation of its labels, or
on none where fermion labels collide.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# S lives in ``tensor``, beside the projectors that apply it (this
# module imports ``tensor``, not the other way round); its names are
# importable from here as well
from .tensor import (SectorIsometry, SpaceConfig, Statistics,
                     sector_basis_labels, sector_isometry)


def _orbit_sizes(labels: np.ndarray) -> np.ndarray:
    """The number of distinct arrangements of each sorted label row,
    n! / prod(multiplicity!)."""
    run = repeats = np.ones(len(labels))
    for a in range(1, labels.shape[1]):
        run = np.where(labels[:, a] == labels[:, a - 1], run + 1, 1)
        repeats = repeats * run
    return math.factorial(labels.shape[1]) / repeats


class SectorCoupling:
    """The coupling map T = S^H (S_1 x ... x S_K) of a partition's block
    sectors into the whole space's sector, of shape (m, m_1 ... m_K).

    Its columns run over the block-sector label tuples (x_1, ..., x_K)
    in C order.  Column c has one entry at most: ``coeffs[c]`` in row
    ``rows[c]``, or none (row -1, coefficient 0) where fermion labels
    collide.
    """

    def __init__(self, shape: tuple[int, int], dims: tuple[int, ...],
                 rows: np.ndarray, coeffs: np.ndarray):
        self.shape, self.dims = shape, dims
        self.rows, self.coeffs = rows, coeffs
        # party j's scatter into a flat (m, m_j) array, and T's own as
        # the last (j = K, m_K = 1): the columns with an entry, sorted by
        # their target (row, x_j), the position of each distinct
        # target's first column, and those targets
        cols = np.nonzero(rows >= 0)[0]
        self._plans = []
        for j, mj in enumerate(dims + (1,)):
            keys = rows[cols] * mj + cols // math.prod(dims[j + 1:]) % mj
            order = np.argsort(keys, kind="stable")
            first = np.nonzero(np.diff(keys[order], prepend=-1))[0]
            self._plans.append((cols[order], first, keys[order][first]))

    @property
    def width(self) -> int:
        """Entries per start of the largest array ``contract`` makes:
        the product over m_1 ... m_K, or y, m x max_j m_j."""
        return max(self.shape[1], self.shape[0] * max(self.dims))

    def toarray(self) -> np.ndarray:
        """The dense (m, m_1 ... m_K) complex array of T."""
        out = np.zeros(self.shape, dtype=np.complex128)
        cols = np.nonzero(self.rows >= 0)[0]
        out[self.rows[cols], cols] = self.coeffs[cols]
        return out

    def contract(self, coords, j: int) -> np.ndarray:
        """y = T (c_1 x ... x 1 x ... x c_K), the identity in party j's
        place, for every start: ``coords[i]`` holds party i's
        block-sector coordinates c_i as (batch, m_i) rows, and
        ``coords[j]`` is not read; y comes as a (batch, m, m_j) array,
        and for j = K, no party, as T (c_1 x ... x c_K) of shape (batch,
        m, 1).

        Several columns can share one target: for K >= 3 and a fixed
        x_j the other labels may come in any order (bosons (1, 1, 1):
        (a, b) and (b, a) land on one label), so the scatter sums them.
        """
        k = len(self.dims)
        prod = self.coeffs.reshape(self.dims)
        for i, c in enumerate(coords):
            if i != j:
                prod = prod * c.reshape((len(c),) + (1,) * i + (-1,)
                                        + (1,) * (k - 1 - i))
        count, mj = len(prod), (self.dims + (1,))[j]
        cols, first, targets = self._plans[j]
        out = np.zeros((count, self.shape[0] * mj), dtype=np.complex128)
        out[:, targets] = np.add.reduceat(
            prod.reshape(count, -1)[:, cols], first, axis=1)
        return out.reshape(count, self.shape[0], mj)


def sector_coupling(stats: Statistics, d: int,
                    parts: tuple[int, ...]) -> SectorCoupling:
    """T = S^H (S_1 x ... x S_K) for blocks of ``parts`` slots at d
    modes, from the labels.  The product of block basis vectors with
    labels x_1, ..., x_K has the coefficient
    sqrt(prod_j |orbit(x_j)| / |orbit(n)|) for bosons and
    parity(argsort(x_1 ++ ... ++ x_K)) sqrt(prod_j N_j! / N!) for
    fermions on the vector of label n = sorted(x_1 ++ ... ++ x_K), and 1
    on the full-space index x_1 ++ ... ++ x_K for distinguishable
    subsystems: O(m_1 ... m_K) labels, no array of the full space."""
    n = sum(parts)
    blocks = [np.array(sector_basis_labels(stats, SpaceConfig(d, nj)),
                       dtype=np.intp).reshape(-1, nj) for nj in parts]
    dims = tuple(len(b) for b in blocks)
    grid = np.indices(dims).reshape(len(dims), -1)
    joined = np.concatenate([b[g] for b, g in zip(blocks, grid)], axis=1)
    place = d ** np.arange(n - 1, -1, -1, dtype=np.intp)
    if not stats.is_projected:
        return SectorCoupling((d ** n, len(joined)), dims, joined @ place,
                              np.ones(len(joined)))
    labels = np.sort(joined, axis=1)
    whole = np.array(sector_basis_labels(stats, SpaceConfig(d, n)),
                     dtype=np.intp).reshape(-1, n)
    rows = np.searchsorted(whole @ place, labels @ place)
    if stats is Statistics.FERMION:
        # the sorting permutation's parity is that of the concatenation's
        # inversions
        inversions = sum((joined[:, a] > joined[:, b]
                          for a, b in itertools.combinations(range(n), 2)),
                         np.zeros(len(joined), dtype=np.intp))
        coeffs = (1.0 - 2.0 * (inversions % 2)) * math.sqrt(
            math.prod(map(math.factorial, parts)) / math.factorial(n))
        collide = (np.diff(labels, axis=1) == 0).any(axis=1)
        rows[collide], coeffs[collide] = -1, 0.0
    else:
        coeffs = np.sqrt(np.prod([_orbit_sizes(b)[g]
                                  for b, g in zip(blocks, grid)], axis=0)
                         / _orbit_sizes(labels))
    return SectorCoupling((len(whole), len(joined)), dims, rows, coeffs)
