"""The coupling map T = S^H (S_1 x ... x S_K) and the party matrices
that the sweep contracts through it."""

import sys
import tracemalloc
from functools import reduce

import numpy as np
import pytest

import sepwit.solver as solver_module
from sepwit import (LowRankObservable, Partition, SevalueProblem, SpaceConfig,
                    Statistics, interference_observable, solve_sup_g)
from sepwit.sectors import SectorIsometry, sector_coupling

from conftest import crandn, random_hermitian, sector_basis_vectors

_PARTS = [(1,), (2,), (3,), (4,), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1),
          (1, 3), (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 1, 1)]


def _dense_coupling(stats, d, parts):
    """S^H (S_1 x ... x S_K) from the dense sector bases."""
    whole = sector_basis_vectors(stats, SpaceConfig(d, sum(parts)))
    blocks = [sector_basis_vectors(stats, SpaceConfig(d, nj)) for nj in parts]
    return whole.conj().T @ reduce(np.kron, blocks)


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("parts", _PARTS)
def test_coupling_map_matches_dense_sector_bases(stats, d, parts):
    # T from labels alone equals S^H (S_1 x ... x S_K) from the dense
    # orbit-table bases, and its contraction onto every party equals
    # T (c_1 x ... x 1 x ... x c_K) taken densely
    coupling = sector_coupling(stats, d, parts)
    want = _dense_coupling(stats, d, parts)
    assert coupling.shape == want.shape
    assert np.abs(coupling.toarray() - want).max(initial=0.0) <= 1e-12
    # a column holds one entry at most; fermion collisions hold none
    assert (np.count_nonzero(np.abs(want) > 1e-12, axis=0) <= 1).all()
    assert np.array_equal(coupling.rows < 0,
                          ~np.abs(want).any(axis=0))
    if len(parts) == 1 or not want.size:
        return
    if stats is Statistics.FERMION:
        assert (coupling.rows < 0).any()
    # for K >= 3 some columns share a target (row, x_1) of the scatter
    # onto party 1 (bosons (1, 1, 1): the others' (a, b) and (b, a)),
    # which ``contract`` must sum
    cols = np.nonzero(coupling.rows >= 0)[0]
    x1 = cols // (want.shape[1] // coupling.dims[0])
    targets = set(zip(coupling.rows[cols].tolist(), x1.tolist()))
    assert (len(targets) < len(cols)) == (stats.is_projected
                                          and len(parts) >= 3)
    rng = np.random.default_rng([d, *parts])
    coords = [crandn(rng, 2, mi) for mi in coupling.dims]
    for j, mj in enumerate(coupling.dims):
        got = coupling.contract(coords, j)
        for b in range(2):
            factors = [np.eye(mj) if i == j else c[b][:, None]
                       for i, c in enumerate(coords)]
            dense = want @ reduce(np.kron, factors)
            assert np.abs(got[b] - dense).max(initial=0.0) <= 1e-12


def _embedded_party_matrices(problem, coords, j):
    """The party matrices through the full space, start by start: y =
    S^H q with q = left x S_j x right, the other parties' full-block
    vectors b_i = S_i c_i in left and right, and dense S and S_i, the
    overlap y^H y (||left||^2 ||right||^2 where P = 1) and the numerator
    y^H X for the sector terms (c, X)."""
    coeffs, vectors = problem.operator.terms
    stats, d = problem.stats, problem.space.d
    whole = sector_basis_vectors(stats, problem.space)
    isos = [sector_basis_vectors(stats, SpaceConfig(d, nj))
            for nj in problem.partition.parts]
    blocks = [c @ iso.T for c, iso in zip(coords, isos)]
    embed = isos[j]
    numers, overlaps = [], []
    for b in range(len(blocks[0])):
        left = reduce(np.kron, [x[b] for x in blocks[:j]], np.ones(1))
        right = reduce(np.kron, [x[b] for x in blocks[j + 1:]], np.ones(1))
        q = np.kron(np.kron(left[:, None], embed), right[:, None])
        if problem.sector is None:
            numers.append(q.conj().T @ vectors)
            overlaps.append(np.vdot(left, left).real
                            * np.vdot(right, right).real)
            continue
        y = whole.conj().T @ q
        numers.append(y.conj().T @ vectors)
        overlap = y.conj().T @ y
        overlaps.append((overlap + overlap.conj().T) / 2.0)
    return (coeffs, np.array(numers)), np.array(overlaps)


def _observable(rng, kind, space):
    dim = space.total_dim
    if kind == "dense":
        return random_hermitian(rng, dim)
    k1, k2, b2 = (crandn(rng, dim) for _ in range(3))
    c2 = complex(crandn(rng))
    return LowRankObservable(space, ((0.7, k1, k1), (c2, k2, b2),
                                     (c2.conjugate(), b2, k2)))


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 2),
                                   (2, 1, 1), (1, 1, 1, 1)])
@pytest.mark.parametrize("kind", ["dense", "low-rank"])
def test_solves_match_the_full_space_route(monkeypatch, rng, stats, parts,
                                           kind):
    # every start reaches the G, residual and sweep count that party
    # matrices contracted through the full space give (four fermions
    # need four modes for a nonempty sector)
    n = sum(parts)
    space = SpaceConfig(4 if stats is Statistics.FERMION and n == 4 else 3, n)
    problem = SevalueProblem(_observable(rng, kind, space), stats,
                             Partition(parts), space)
    got = solve_sup_g(problem, starts=4, seed=3)
    monkeypatch.setattr(solver_module, "_party_matrices",
                        _embedded_party_matrices)
    want = solve_sup_g(problem, starts=4, seed=3)
    assert len(got.solutions) == len(want.solutions) == 4
    for a, b in zip(got.solutions, want.solutions):
        assert a.sweeps == b.sweeps and a.converged == b.converged
        assert abs(a.value - b.value) <= 1e-12 * max(1.0, abs(b.value))
        assert abs(a.residual - b.residual) <= 1e-12


def test_party_matrices_touch_no_full_space_array():
    # boson (2, 2) at N=4, d=8 (4096 modes, 36-mode party sectors): with
    # the problem's sector data built, a 4-start solve forms no 4096 x 36
    # array per start (the full-space route peaked at 18.4 MiB)
    space = SpaceConfig(8, 4)
    problem = SevalueProblem(interference_observable(space, Statistics.BOSON),
                             Statistics.BOSON, Partition((2, 2)), space)
    problem.party_sectors, problem.coupling
    tracemalloc.start()
    try:
        result = solve_sup_g(problem, starts=4, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(result.value - 0.5) <= 1e-9
    assert peak < 6 * 2 ** 20


def test_party_steps_do_not_apply_the_sector_adjoint(monkeypatch, rng):
    # a projected K >= 2 sweep reaches the whole sector through the
    # coupling map only: S^H is applied to the observable's terms when
    # its form is built, never from _party_matrices
    callers, steps = [], []
    adjoint = SectorIsometry.adjoint
    party_matrices = solver_module._party_matrices

    def recording(self, x):
        callers.append(sys._getframe(1).f_code.co_name)
        return adjoint(self, x)

    def counting(*args):
        steps.append(args[2])
        return party_matrices(*args)

    monkeypatch.setattr(SectorIsometry, "adjoint", recording)
    monkeypatch.setattr(solver_module, "_party_matrices", counting)
    for stats, parts in ((Statistics.BOSON, (2, 1)),
                         (Statistics.FERMION, (1, 1, 1))):
        space = SpaceConfig(4, sum(parts))
        problem = SevalueProblem(_observable(rng, "low-rank", space), stats,
                                 Partition(parts), space)
        solve_sup_g(problem, starts=3, seed=0)
    assert set(steps) == {0, 1, 2}
    assert "sector_observable" in callers
    assert "_party_matrices" not in callers
