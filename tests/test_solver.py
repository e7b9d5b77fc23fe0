import collections
import dataclasses
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepwit import (LowRankObservable, Partition, SevalueProblem, SpaceConfig,
                    StateVector, Statistics, all_partitions,
                    analytic_interference, analytic_rank_one,
                    basis_product_vector, brute_force_bound,
                    interference_observable, partitions_into, product_vector,
                    project, projector_matrix, rank_one_observable,
                    solve_sup_g, subspace_dimension, sweep_solve,
                    transform_solution, transformed_observable,
                    verify_second_form)
from sepwit.witness import build_k_witness
from sepwit.errors import (ConvergenceError, DimensionCapError,
                           ZeroProjectionError)
from sepwit.sectors import (SectorIsometry, sector_basis_vectors,
                            sector_isometry)
from sepwit.partystep import _generalized_step
from sepwit.solver import RESIDUAL_TOL, VALUE_TOL, _crandn, _Solver

from conftest import (contracted_operator, crandn, dense_party_matrices,
                      random_hermitian, random_unitary,
                      reference_brute_force_bound, reference_generalized_step)


def _random_sector_state(rng, d, stats):
    space = SpaceConfig(d, 2)
    raw = StateVector(space, crandn(rng, d * d))
    return project(stats, raw).normalized()


def _rank_one_problem(psi, stats):
    return SevalueProblem(rank_one_observable(psi, stats), stats,
                          Partition((1, 1)), psi.space)


def _one_start(numer, overlap, b=0):
    """Start b's forms of a batch of party matrices, as a batch of one."""
    return (numer[0], numer[1][b:b + 1]), overlap[b:b + 1]


def _start_forms(numer, overlap, b=0):
    """Start b's numerator and overlap without the batch axis."""
    return (numer[0], numer[1][b]), overlap[b]


# ---------------------------------------------------------------------------
# partitions

def test_partitions_into_enumeration():
    parts = {p.parts for p in partitions_into(4, 2)}
    assert parts == {(3, 1), (2, 2)}
    assert {p.parts for p in partitions_into(3, 3)} == {(1, 1, 1)}
    assert len(all_partitions(4)) == 5


def test_partition_same_partitioning():
    assert Partition((2, 3, 1)).same_partitioning(Partition((1, 2, 3)))
    assert not Partition((2, 2, 2)).same_partitioning(Partition((1, 2, 3)))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((2, 0))
    for parts in ((1.7, 2.2), (2.0, 1), (True, 1), ("2", 1), (None,)):
        with pytest.raises(ValueError, match="must be an integer"):
            Partition(parts)
    numpy_parts = Partition((np.int64(2), np.int32(1)))
    assert numpy_parts == Partition((2, 1))
    assert all(type(p) is int for p in numpy_parts.parts)
    with pytest.raises(ValueError):
        SevalueProblem(np.eye(4), Statistics.BOSON, Partition((1, 1, 1)),
                       SpaceConfig(2, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_observables_reject_non_finite(rng, bad):
    space = SpaceConfig(2, 2)
    dense = np.eye(4, dtype=complex)
    dense[0, 0] = bad
    with pytest.raises(ValueError, match="observable must be finite"):
        SevalueProblem(dense, Statistics.BOSON, Partition((1, 1)), space)
    ket = crandn(rng, 4)
    broken = ket.copy()
    broken[2] = bad
    for terms in (((bad, ket, ket),), ((1.0, broken, ket),),
                  ((1.0, ket, ket), (0.5, ket, broken))):
        with pytest.raises(ValueError,
                           match="low-rank term list must be finite"):
            LowRankObservable(space, terms)


def test_low_rank_observable_needs_a_term():
    with pytest.raises(ValueError, match="needs at least one term"):
        LowRankObservable(SpaceConfig(2, 2), ())


# ---------------------------------------------------------------------------
# contracted operator

def test_contracted_operator_product_observable(rng):
    d = 3
    space = SpaceConfig(d, 2)
    a = random_hermitian(rng, d)
    b = random_hermitian(rng, d)
    b2 = crandn(rng, d)
    out = contracted_operator(np.kron(a, b), [None, b2], 0,
                              Partition((1, 1)), space)
    assert np.allclose(out, a * (b2.conj() @ b @ b2))


def test_contracted_operator_symmetrizer():
    space = SpaceConfig(2, 2)
    proj = projector_matrix(Statistics.BOSON, space)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    out = contracted_operator(proj, [None, ket0], 0, Partition((1, 1)), space)
    expected = 0.5 * (np.eye(2) + np.outer(ket0, ket0))
    assert np.allclose(out, expected)


def test_contracted_operator_identity(rng):
    d = 3
    space = SpaceConfig(d, 2)
    b2 = crandn(rng, d)
    out = contracted_operator(np.eye(d * d), [None, b2], 0,
                              Partition((1, 1)), space)
    assert np.allclose(out, np.eye(d) * np.vdot(b2, b2))


def test_contracted_operator_hermitian_multiblock(rng):
    space = SpaceConfig(2, 3)
    x = random_hermitian(rng, 8)
    blocks = [crandn(rng, 4), crandn(rng, 2)]
    out = contracted_operator(x, blocks, 0, Partition((2, 1)), space)
    assert np.abs(out - out.conj().T).max() < 1e-12
    with pytest.raises(IndexError):
        contracted_operator(x, blocks, 2, Partition((2, 1)), space)


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 2), (1, 1, 1)])
def test_party_matrices_match_contracted_operator(rng, stats, parts):
    # the solver's contraction of P L P and of P, in party j's block
    # sector, must agree with S_j^H X_j S_j from the dense einsum route
    d = 3
    partition = Partition(parts)
    space = SpaceConfig(d, partition.n)
    dim = space.total_dim
    k1, k2, b2 = (crandn(rng, dim) for _ in range(3))
    c2 = complex(crandn(rng))
    low_rank = LowRankObservable(space, ((0.7, k1, k1), (c2, k2, b2),
                                         (c2.conjugate(), b2, k2)))
    proj = projector_matrix(stats, space)
    isometries = [sector_basis_vectors(stats, SpaceConfig(d, nk))
                  for nk in parts]
    for observable in (random_hermitian(rng, dim), low_rank):
        dense = observable if isinstance(observable, np.ndarray) \
            else observable.to_matrix()
        sandwich = proj @ dense @ proj
        solver = _Solver(SevalueProblem(observable, stats, partition, space))
        blocks = [crandn(rng, d ** nk) for nk in parts]
        g = float(rng.standard_normal())
        batch = [b[None] for b in blocks]
        _, _, (defects,) = solver.stationarity(batch, [g])
        for j, iso in enumerate(isometries):
            numer, overlap, _ = solver.party_matrices(batch, j)
            # every numerator comes as its contracted terms, dense or
            # low-rank, and the overlap as a scalar per start where P = 1
            assert isinstance(numer, tuple)
            assert (np.ndim(overlap) == 1) == (not stats.is_projected)
            numer, overlap = dense_party_matrices(
                *_start_forms(numer, overlap))
            for got, full in ((numer, sandwich), (overlap, proj)):
                want = iso.conj().T @ contracted_operator(
                    full, blocks, j, partition, space) @ iso
                scale = max(1.0, float(np.abs(want).max()))
                assert np.abs(got - want).max() <= 1e-12 * scale
            # the matrix-free defects are the party equation's residual
            # and overlap norm: A_j and B_j act only on the block-sector
            # part S_j^H b_j of b_j
            coords = iso.conj().T @ blocks[j]
            bv = overlap @ coords
            want_defect = np.linalg.norm(numer @ coords - g * bv)
            want_scale = np.linalg.norm(bv)
            defect, scale = defects[j]
            assert abs(defect - want_defect) <= 1e-12 * want_defect
            assert abs(scale - want_scale) <= 1e-12 * want_scale
    # the sweep returns party vectors inside their block sectors
    problem = SevalueProblem(random_hermitian(rng, dim), stats, partition,
                             space)
    sol = sweep_solve(problem, [crandn(rng, d ** nk) for nk in parts])
    for b, iso in zip(sol.party_vectors, isometries):
        assert np.abs(iso @ (iso.conj().T @ b) - b).max() <= 1e-10


def _random_observable(rng, kind, space):
    dim = space.total_dim
    if kind == "dense":
        return random_hermitian(rng, dim)
    k1, k2, b2 = (crandn(rng, dim) for _ in range(3))
    c2 = complex(crandn(rng))
    return LowRankObservable(space, ((0.7, k1, k1), (c2, k2, b2),
                                     (c2.conjugate(), b2, k2)))


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 2), (1, 1, 1)])
@pytest.mark.parametrize("mode", ["max", "min"])
@pytest.mark.parametrize("kind", ["dense", "low-rank"])
def test_party_step_matches_dense_reference(rng, stats, parts, mode, kind):
    # the step on scalar overlaps and term lists reaches the value of the
    # m x m step on the densified matrices, and its vector attains it;
    # three sweeps of steps, each from the vectors the last one left
    partition = Partition(parts)
    space = SpaceConfig(3, partition.n)
    problem = SevalueProblem(_random_observable(rng, kind, space), stats,
                             partition, space)
    solver = _Solver(problem)
    blocks = [crandn(rng, 3 ** nk) for nk in parts]
    blocks = [b / np.linalg.norm(b) for b in blocks]
    for _sweep in range(3):
        for j in range(partition.k):
            numer, overlap, iso = solver.party_matrices(
                [b[None] for b in blocks], j)
            previous = blocks[j] if iso is None else iso.conj().T @ blocks[j]
            (value,), (vec,) = _generalized_step(numer, overlap,
                                                 previous[None], mode)
            numer, overlap = dense_party_matrices(
                *_start_forms(numer, overlap))
            want, _ = reference_generalized_step(numer, overlap, previous,
                                                 mode)
            scale = max(1.0, abs(want))
            assert abs(value - want) <= 1e-12 * scale
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
            quotient = (vec.conj() @ numer @ vec) / (vec.conj() @ overlap @ vec)
            assert abs(quotient - value) <= 1e-12 * scale
            blocks[j] = vec if iso is None else iso @ vec


@pytest.mark.parametrize("stats", list(Statistics))
def test_party_step_zero_extremum(rng, stats):
    # -|psi><psi| in "max" mode: each party's numerator is -|a><a|, whose
    # span value is negative, so the extremum is the 0 taken off the span
    space = SpaceConfig(3, 2)
    psi = _random_sector_state(rng, 3, stats).amplitudes
    observable = LowRankObservable(space, ((-1.0, psi, psi),))
    problem = SevalueProblem(observable, stats, Partition((1, 1)), space)
    solver = _Solver(problem)
    blocks = [crandn(rng, 3) for _ in range(2)]
    blocks = [b / np.linalg.norm(b) for b in blocks]
    numer, overlap, _ = solver.party_matrices([b[None] for b in blocks], 0)
    kets = numer[1][0, :, :1]
    # from a random vector, and from one inside the span, which has no
    # part in the zero eigenspace
    for previous in (blocks[0], kets[:, 0] / np.linalg.norm(kets[:, 0])):
        (value,), (vec,) = _generalized_step(numer, overlap, previous[None],
                                             "max")
        assert value == 0.0
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        assert abs(kets[:, 0].conj() @ vec) <= 1e-12 * np.linalg.norm(kets)
    sol = sweep_solve(problem, blocks, mode="max")
    assert sol.converged and sol.value == 0.0
    assert sol.residual <= RESIDUAL_TOL
    assert abs(psi.conj() @ sol.projected_vector.amplitudes) <= 1e-12


@pytest.mark.parametrize("stats", list(Statistics))
def test_party_step_zero_extremum_with_as_many_terms_as_dimensions(rng,
                                                                    stats):
    # -|psi><psi| as four equal terms on three-mode parties: 4 term
    # vectors, no fewer than the dimensions of the overlap's range (3,
    # or 2 for fermions), that span one dimension, so the extremum is
    # still the exact 0 off that span, taken orthogonal to it
    space = SpaceConfig(3, 2)
    psi = _random_sector_state(rng, 3, stats).amplitudes
    observable = LowRankObservable(space, ((-0.5, psi, psi),
                                           (-0.5, psi, psi)))
    problem = SevalueProblem(observable, stats, Partition((1, 1)), space)
    blocks = [crandn(rng, 3) for _ in range(2)]
    blocks = [b / np.linalg.norm(b) for b in blocks]
    numer, overlap, _ = _Solver(problem).party_matrices(
        [b[None] for b in blocks], 0)
    # the observable route holds the one eigen-term of -|psi><psi|; the
    # step gets that term's contracted vector four times, c = -1/4 each
    assert numer[1].shape[1:] == (3, 1)
    numer = (np.full(4, -0.25), np.repeat(numer[1], 4, axis=2))
    kets = numer[1][0, :, :1]
    (value,), (vec,) = _generalized_step(numer, overlap, blocks[0][None],
                                         "max")
    assert value == 0.0
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    assert abs(kets[:, 0].conj() @ vec) <= 1e-12 * np.linalg.norm(kets)


def test_distinguishable_lowrank_sweep_solves_no_large_eigh(monkeypatch):
    # N=4, d=8, partition (3, 1): a 512-mode party whose overlap is a
    # scalar and whose numerator has at most 4 term vectors, so no eigh
    # call is larger than 4
    sizes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    space = SpaceConfig(8, 4)
    stats = Statistics.DISTINGUISHABLE
    problem = SevalueProblem(interference_observable(space, stats), stats,
                             Partition((3, 1)), space)
    result = solve_sup_g(problem, starts=2, seed=0)
    assert abs(result.value - 0.5) <= 1e-9
    assert result.best.residual <= RESIDUAL_TOL
    assert sizes and max(sizes) <= 4


_PROPERTY_PARTITIONS = [p.parts for n in range(1, 5) for p in all_partitions(n)]


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("parts", _PROPERTY_PARTITIONS)
@settings(max_examples=8, deadline=None)
@given(d=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_projector_sees_only_block_sectors(stats, parts, d, seed):
    # P (b_1 x ... x b_K) = P (S_1 S_1^H b_1 x ... x S_K S_K^H b_K): the
    # identity behind solving each party in its block's sector
    rng = np.random.default_rng(seed)
    space = SpaceConfig(d, sum(parts))
    blocks = [crandn(rng, d ** nk) for nk in parts]
    in_sector = []
    for b, nk in zip(blocks, parts):
        iso = sector_basis_vectors(stats, SpaceConfig(d, nk))
        in_sector.append(iso @ (iso.conj().T @ b))
    want = project(stats, StateVector(space, reduce(np.kron, blocks)))
    got = project(stats, StateVector(space, reduce(np.kron, in_sector)))
    assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-12


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 2), (1, 1, 1)])
@pytest.mark.parametrize("mode", ["max", "min"])
@settings(max_examples=10, deadline=None)
@given(d=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_is_monotone(stats, parts, mode, d, seed):
    # each party step is extremal with the other parties fixed, so from
    # one sweep to the next the quotient never falls in "max" mode and
    # never rises in "min" mode
    rng = np.random.default_rng(seed)
    space = SpaceConfig(d, sum(parts))
    problem = SevalueProblem(random_hermitian(rng, space.total_dim), stats,
                             Partition(parts), space)
    init = [crandn(rng, d ** nk) for nk in parts]
    try:
        values = [sweep_solve(problem, init, max_sweeps=sweeps, tol=0.0,
                              mode=mode, value_tol=-1.0).value
                  for sweeps in range(1, 7)]
    except ZeroProjectionError:
        return
    sign = 1.0 if mode == "max" else -1.0
    for before, after in zip(values, values[1:]):
        assert sign * (after - before) >= -1e-12 * max(1.0, abs(before))


# ---------------------------------------------------------------------------
# sweep solver on closed-form cases

def test_sweep_single_slater_pair_any_init(rng):
    space = SpaceConfig(2, 2)
    amps = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    f = StateVector(space, amps)
    problem = _rank_one_problem(f, Statistics.FERMION)
    for _ in range(5):
        init = [crandn(rng, 2), crandn(rng, 2)]
        sol = sweep_solve(problem, init)
        assert sol.converged
        assert abs(sol.value - 1.0) < 1e-9      # 2 kappa^2 with kappa^2 = 1/2


def test_sweep_identity_observable_fixed_point(rng):
    space = SpaceConfig(3, 2)
    problem = SevalueProblem(np.eye(9), Statistics.BOSON, Partition((1, 1)),
                             space)
    sol = sweep_solve(problem, [crandn(rng, 3), crandn(rng, 3)])
    assert sol.converged
    assert abs(sol.value - 1.0) < 1e-10


def test_sweep_boson_balanced_pair_hits_both_branches(rng):
    space = SpaceConfig(2, 2)
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / np.sqrt(2)
    problem = _rank_one_problem(StateVector(space, amps), Statistics.BOSON)
    seen = set()
    for trial in range(12):
        init = [crandn(rng, 2), crandn(rng, 2)]
        sol = sweep_solve(problem, init)
        assert sol.converged
        branch = min((0.5, 1.0), key=lambda x: abs(x - sol.value))
        assert abs(sol.value - branch) < 1e-8
        seen.add(branch)
    assert 1.0 in seen


def test_sweep_zero_projection_raises():
    space = SpaceConfig(3, 2)
    amps = np.zeros(9, dtype=complex)
    amps[1], amps[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    problem = _rank_one_problem(StateVector(space, amps), Statistics.FERMION)
    same = np.array([1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ZeroProjectionError):
        sweep_solve(problem, [same, same.copy()])


def test_solution_projected_vector_nonzero_and_diagnostics(rng):
    psi = _random_sector_state(rng, 4, Statistics.FERMION)
    problem = _rank_one_problem(psi, Statistics.FERMION)
    sol = sweep_solve(problem, [crandn(rng, 4), crandn(rng, 4)])
    assert sol.projected_vector.norm() > 1e-8
    assert sol.residual <= 1e-9
    assert sol.chi_norm < 1.0


# ---------------------------------------------------------------------------
# multistart against the closed forms

@pytest.mark.parametrize("stats,formula", [
    (Statistics.FERMION, "fermion"),
    (Statistics.BOSON, "boson"),
    (Statistics.DISTINGUISHABLE, "distinguishable"),
])
def test_solve_sup_g_matches_analytic_rank_one(rng, stats, formula):
    for d in (3, 4):
        psi = _random_sector_state(rng, d, stats)
        expected = analytic_rank_one(psi, stats)[0].value
        result = solve_sup_g(_rank_one_problem(psi, stats), starts=24, seed=7)
        assert abs(result.value - expected) < 1e-8
        assert result.fraction_at_value > 0.0


def test_interference_bound_small_systems():
    for n, d in ((2, 4), (3, 6)):
        space = SpaceConfig(d, n)
        for stats in Statistics:
            observable = interference_observable(space, stats)
            for partition in all_partitions(n):
                if stats is Statistics.FERMION and \
                        partition.parts.count(2) >= 2:
                    continue    # supremum genuinely exceeds the formula
                problem = SevalueProblem(observable, stats, partition, space)
                result = solve_sup_g(problem, starts=10, seed=3)
                expected = 0.5 ** (partition.k - 1)
                assert abs(result.value - expected) < 1e-7, \
                    (stats, partition.parts)


def test_fermion_two_two_partition_reaches_unity():
    # two equal even blocks: commuting even-degree components make the
    # projected product land exactly on the balanced interference
    # superposition, so the supremum is 1, not 1/2
    space = SpaceConfig(8, 4)
    observable = interference_observable(space, Statistics.FERMION)
    problem = SevalueProblem(observable, Statistics.FERMION,
                             Partition((2, 2)), space)

    def two_form(pairs):
        mat = np.zeros((8, 8), dtype=complex)
        for i, j, c in pairs:
            mat[i, j] += c
            mat[j, i] -= c
        return mat.reshape(-1)

    omega_a = two_form([(0, 1, 0.5), (2, 3, 0.5)])
    omega_c = two_form([(4, 5, 0.5), (6, 7, 0.5)])
    init = [omega_a + 1j * omega_c, omega_a - 1j * omega_c]
    sol = sweep_solve(problem, init)
    assert sol.converged
    assert abs(sol.value - 1.0) < 1e-9


def test_monotone_bound_in_k(rng):
    space = SpaceConfig(6, 3)
    observable = interference_observable(space, Statistics.BOSON)
    values = []
    for k in (1, 2, 3):
        bound = build_k_witness(observable, Statistics.BOSON, space, k,
                                "numeric", starts=8, seed=2).bound
        values.append(bound)
        assert abs(bound - 0.5 ** (k - 1)) < 1e-7
    assert values[0] > values[1] > values[2]


def test_analytic_interference_values_and_independence():
    # N=4, d=8 puts the single party of partition (4,) above the dense cap
    for n, d in ((2, 4), (3, 6), (4, 8)):
        space = SpaceConfig(d, n)
        for stats in Statistics:
            for partition in all_partitions(n):
                analysis = analytic_interference(space, stats, partition)
                assert analysis.bound == 0.5 ** (partition.k - 1)
                assert analysis.trivial_value == 0.0
                rep = analysis.solutions[0]
                assert abs(rep.value - analysis.bound) < 1e-10
                assert rep.residual < 1e-9


@pytest.mark.parametrize("stats", list(Statistics))
def test_single_party_residual_matches_projector_reference(rng, stats):
    # below the dense cap the matrix-free K=1 residual must agree with
    # ||PLPb - gPb|| / ||Pb|| built from the projector matrix
    space = SpaceConfig(3, 2)
    psi = _random_sector_state(rng, 3, stats)
    observables = (random_hermitian(rng, 9),
                   rank_one_observable(psi, stats))
    proj = projector_matrix(stats, space)
    for observable in observables:
        problem = SevalueProblem(observable, stats, Partition((2,)), space)
        dense = observable if isinstance(observable, np.ndarray) \
            else observable.to_matrix()
        sandwich = proj @ dense @ proj
        solved = sweep_solve(problem, [crandn(rng, 9)])
        for _ in range(3):
            b = crandn(rng, 9)
            g = float(rng.standard_normal())
            pb = proj @ b
            defect = np.linalg.norm(sandwich @ b - g * pb)
            expected = defect / np.linalg.norm(pb)
            got = _Solver(problem).solution([b], g, converged=False,
                                            sweeps=0).residual
            assert abs(got - expected) <= 1e-12 * max(1.0, expected)
            moved = dataclasses.replace(solved, party_vectors=(b,), value=g)
            _, overlap = verify_second_form(moved, problem)
            assert abs(overlap - defect) <= 1e-12 * max(1.0, defect)


def test_analytic_interference_diagnostics_above_dense_cap():
    # the (4,) block has 10,000 dimensions, far above PARTY_DENSE_CAP;
    # the representative's residual needs no party matrix
    analysis = analytic_interference(SpaceConfig(10, 5), Statistics.BOSON,
                                     Partition((4, 1)))
    assert analysis.bound == 0.5
    assert analysis.solutions[0].residual < 1e-9


def test_sweep_party_above_full_space_cap():
    # the (3,) block has 1000 modes, above PARTY_DENSE_CAP, but its
    # fermion sector has C(10, 3) = 120 dimensions
    space = SpaceConfig(10, 4)
    problem = SevalueProblem(interference_observable(space, Statistics.FERMION),
                             Statistics.FERMION, Partition((3, 1)), space)
    result = solve_sup_g(problem, starts=2, seed=0)
    assert abs(result.value - 0.5) <= 1e-6
    assert result.best.residual <= 1e-9


def test_single_party_dense_cap_reads_sector_dimension(rng):
    # K = 1, fermions at N=3, d=9: 729 modes but an 84-dim sector, so a
    # dense observable is solved by the sweep; the supremum is the top
    # eigenvalue of S^H L S
    space = SpaceConfig(9, 3)
    observable = random_hermitian(rng, space.total_dim)
    problem = SevalueProblem(observable, Statistics.FERMION, Partition((3,)),
                             space)
    iso = sector_basis_vectors(Statistics.FERMION, space)
    top = np.linalg.eigvalsh(iso.conj().T @ observable @ iso)[-1]
    assert abs(solve_sup_g(problem, starts=1, seed=1).value - top) <= 1e-9
    # distinguishable parties have no smaller sector: 729 > 512 raises
    wide = SevalueProblem(observable, Statistics.DISTINGUISHABLE,
                          Partition((3,)), space)
    with pytest.raises(DimensionCapError):
        solve_sup_g(wide, starts=1, seed=1)


def test_party_isometries_built_once_per_solve(monkeypatch, rng):
    # every start of a solve shares its S_j, the whole space's S and the
    # observable in S's coordinates; a block whose sector is the whole
    # block (one slot here) is solved without one, and the oracle reads
    # the same workspace
    import sepwit.solver as solver_module
    calls = []
    builds = []

    def counting(stats, space):
        calls.append(space.n)
        return sector_isometry(stats, space)

    def counting_operator(self):
        # a build is a call that finds the cache empty: a dense
        # observable's S^H L S records the observable's shape, the terms
        # (c, S^H V) record "terms"
        if self._sector_operator is None:
            builds.append("terms" if self.dense is None else self.dense.shape)
        return sector_operator(self)

    sector_operator = _Solver.sector_operator
    monkeypatch.setattr(solver_module, "sector_isometry", counting)
    monkeypatch.setattr(_Solver, "sector_operator", counting_operator)
    space = SpaceConfig(8, 4)
    problem = SevalueProblem(interference_observable(space, Statistics.FERMION),
                             Statistics.FERMION, Partition((3, 1)), space)
    assert abs(solve_sup_g(problem, starts=3, seed=0).value - 0.5) <= 1e-9
    assert calls == [3, 4]
    # a projected low-rank solve builds its sector terms (c, S^H V) once
    assert builds == ["terms"]
    ws = _Solver(problem)
    assert ws.isometry(1) is None
    assert calls == [3, 4]
    wide = SevalueProblem(problem.operator, Statistics.DISTINGUISHABLE,
                          Partition((2, 2)), space)
    assert all(_Solver(wide).isometry(j) is None for j in range(2))
    assert calls == [3, 4]
    # a dense observable is compressed to S^H L S once per solve
    calls.clear()
    builds.clear()
    small = SpaceConfig(3, 3)
    dense = SevalueProblem(random_hermitian(rng, 27), Statistics.BOSON,
                           Partition((2, 1)), small)
    solve_sup_g(dense, starts=3, seed=0)
    assert calls == [2, 3]
    assert builds == [(27, 27)]
    # a distinguishable dense solve builds no isometry at all, and takes
    # the eigen-terms of L itself once
    calls.clear()
    builds.clear()
    solve_sup_g(dataclasses.replace(dense, stats=Statistics.DISTINGUISHABLE),
                starts=3, seed=0)
    assert calls == []
    assert builds == [(27, 27)]
    # a single party is one step on the whole sector: the low-rank
    # route builds S's orbit tables once and its terms (c, S^H V), but
    # neither a dense S nor S^H L S, and no route builds party matrices
    dense_builds = []

    def counting_toarray(self):
        dense_builds.append(self.shape)
        return toarray(self)

    def forbidden(*_args):
        raise AssertionError("K = 1 solve built party matrices")

    toarray = SectorIsometry.toarray
    monkeypatch.setattr(SectorIsometry, "toarray", counting_toarray)
    monkeypatch.setattr(_Solver, "party_matrices", forbidden)
    builds.clear()
    single = SevalueProblem(problem.operator, Statistics.FERMION,
                            Partition((4,)), space)
    assert abs(solve_sup_g(single, starts=1, seed=0).value - 1.0) <= 1e-12
    assert calls == [4]
    assert builds == ["terms"]
    assert dense_builds == []
    # the low-rank oracle at N=4, d=8 builds S's orbit tables once and
    # its terms once, never a dense S, and no party's S_j
    calls.clear()
    builds.clear()
    oracle = dataclasses.replace(problem, partition=Partition((2, 2)))
    assert brute_force_bound(oracle, samples=64, seed=0) <= 1.0 + 1e-12
    assert calls == [4]
    assert builds == ["terms"]
    assert dense_builds == []
    # the dense oracle compresses once, through one dense S
    calls.clear()
    builds.clear()
    brute_force_bound(dense, samples=64, seed=0)
    assert calls == [3]
    assert builds == [(27, 27)]
    assert dense_builds == [(27, 10)]
    # a single dense party densifies S once, for S^H L S
    calls.clear()
    builds.clear()
    dense_builds.clear()
    space = SpaceConfig(9, 3)
    observable = random_hermitian(rng, space.total_dim)
    single = SevalueProblem(observable, Statistics.FERMION, Partition((3,)),
                            space)
    value = solve_sup_g(single, starts=1, seed=0).value
    assert calls == [3]
    assert dense_builds == [(729, 84)]
    assert builds == [(729, 729)]
    iso = sector_basis_vectors(Statistics.FERMION, space)
    top = np.linalg.eigvalsh(iso.conj().T @ observable @ iso)[-1]
    assert abs(value - top) <= 1e-9


@pytest.mark.parametrize("stats", list(Statistics))
def test_single_party_lowrank_matches_sector_spectrum(rng, stats):
    # K = 1 is one exact step on the whole sector, for a dense matrix,
    # a rank-one observable and three terms alike; both extremes equal
    # those of S^H L S, including the 0 that a rank-one observable
    # attains off its span
    space = SpaceConfig(3, 2)
    psi = _random_sector_state(rng, 3, stats)
    iso = sector_basis_vectors(stats, space)
    for observable in (rank_one_observable(psi, stats),
                       _random_observable(rng, "dense", space),
                       _random_observable(rng, "low-rank", space)):
        problem = SevalueProblem(observable, stats, Partition((2,)), space)
        dense = observable if isinstance(observable, np.ndarray) \
            else observable.to_matrix()
        spectrum = np.linalg.eigvalsh(iso.conj().T @ dense @ iso)
        scale = max(1.0, np.abs(spectrum).max())
        for mode, want in (("max", spectrum[-1]), ("min", spectrum[0])):
            sol = solve_sup_g(problem, starts=1, seed=2, mode=mode).best
            assert abs(sol.value - want) <= 1e-12 * scale
            assert sol.residual <= 1e-12 * scale
            assert sol.converged and sol.sweeps == 1


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 1, 1), (2,)])
def test_dense_observable_matches_low_rank_twin(rng, stats, parts):
    # a dense observable is solved through the eigen-terms of S^H L S, a
    # low-rank one through its own terms: the same operator either way
    # gives the same bound, and the oracle the same sampled maximum
    partition = Partition(parts)
    space = SpaceConfig(3, partition.n)
    twin = _random_observable(rng, "low-rank", space)
    results = []
    for observable in (twin, twin.to_matrix()):
        problem = SevalueProblem(observable, stats, partition, space)
        results.append((solve_sup_g(problem, starts=6, seed=4).value,
                        brute_force_bound(problem, samples=300, seed=4)))
    (g_low, oracle_low), (g_dense, oracle_dense) = results
    assert abs(g_dense - g_low) <= 1e-10 * max(1.0, abs(g_low))
    assert abs(oracle_dense - oracle_low) <= 1e-9 * max(1.0, abs(oracle_low))


@pytest.mark.parametrize("parts", [(1, 1), (2,)])
def test_observable_without_sector_part_bounds_to_zero(parts):
    # the antisymmetrizer posed for bosons has no part in their sector:
    # its eigen-terms keep the one largest eigenvalue, 0, so the solver
    # and the oracle both give exactly 0
    space = SpaceConfig(3, 2)
    problem = SevalueProblem(projector_matrix(Statistics.FERMION, space),
                             Statistics.BOSON, Partition(parts), space)
    assert solve_sup_g(problem, starts=4, seed=0).value == 0.0
    assert brute_force_bound(problem, samples=100, seed=0) == 0.0


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("parts", [(1, 1), (2,)])
def test_low_rank_observable_with_vanishing_vectors_bounds_to_zero(stats,
                                                                   parts):
    # L = 0 given as a term whose vectors vanish: its eigen-form keeps one
    # zero term, so the solver and the oracle both give exactly 0
    space = SpaceConfig(3, 2)
    zero = np.zeros(space.total_dim)
    problem = SevalueProblem(LowRankObservable(space, ((1.0, zero, zero),)),
                             stats, Partition(parts), space)
    assert solve_sup_g(problem, starts=4, seed=0).value == 0.0
    assert brute_force_bound(problem, samples=100, seed=0) == 0.0


@pytest.mark.parametrize("kind", ["dense", "low-rank"])
def test_single_party_empty_sector_fails_every_start(rng, kind):
    # three fermions in two modes have no sector: every product vector
    # projects to zero, so no start converges and every oracle sample
    # is skipped
    space = SpaceConfig(2, 3)
    problem = SevalueProblem(_random_observable(rng, kind, space),
                             Statistics.FERMION, Partition((3,)), space)
    with pytest.raises(ConvergenceError, match="1 failed on zero"):
        solve_sup_g(problem, starts=4, seed=0)
    with pytest.raises(ZeroProjectionError, match="every sample"):
        brute_force_bound(problem, samples=20, seed=0)


@pytest.mark.parametrize("stats", [Statistics.DISTINGUISHABLE,
                                   Statistics.FERMION])
def test_single_party_lowrank_negative_term_reaches_zero(monkeypatch, rng,
                                                         stats):
    # -|psi><psi| has its maximum 0 off the span of psi: the solution
    # lies in the sector and is orthogonal to psi, and the solve builds
    # no S beyond its own (none for distinguishable)
    import sepwit.solver as solver_module
    calls = []

    def counting(stats, space):
        calls.append(space.n)
        return sector_isometry(stats, space)

    monkeypatch.setattr(solver_module, "sector_isometry", counting)
    space = SpaceConfig(4, 3)
    psi = project(stats, StateVector(space, crandn(rng, space.total_dim)))
    psi = psi.normalized().amplitudes
    observable = LowRankObservable(space, ((-1.0, psi, psi),))
    problem = SevalueProblem(observable, stats, Partition((3,)), space)
    sol = solve_sup_g(problem, starts=1, seed=0).best
    vector = sol.party_vectors[0]
    assert sol.value == 0.0
    assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12
    assert abs(psi.conj() @ vector) <= 1e-12
    assert sol.residual <= 1e-12
    assert len(calls) <= (1 if stats.is_projected else 0)


def test_single_party_lowrank_shortcut_above_dense_cap(monkeypatch):
    # N=4, d=8, partition (4,): 4096 modes with a 70-dim fermion sector;
    # the exact low-rank route never builds a party matrix
    def forbidden(*_args):
        raise AssertionError("K = 1 low-rank solve built a party matrix")

    monkeypatch.setattr(_Solver, "party_matrices", forbidden)
    space = SpaceConfig(8, 4)
    problem = SevalueProblem(interference_observable(space, Statistics.FERMION),
                             Statistics.FERMION, Partition((4,)), space)
    for mode, want in (("max", 1.0), ("min", -1.0)):
        sol = solve_sup_g(problem, starts=1, seed=0, mode=mode).best
        assert abs(sol.value - want) <= 1e-12
        assert sol.residual <= 1e-9
    psi = basis_product_vector(space, (0, 1, 2, 3))
    positive = SevalueProblem(rank_one_observable(psi, Statistics.FERMION),
                              Statistics.FERMION, Partition((4,)), space)
    low = solve_sup_g(positive, starts=1, seed=0, mode="min").best
    assert abs(low.value) <= 1e-12
    assert low.residual <= 1e-12


def test_analytic_interference_requires_enough_modes():
    with pytest.raises(ValueError):
        analytic_interference(SpaceConfig(3, 2), Statistics.BOSON,
                              Partition((1, 1)))


def test_analytic_rank_one_examples(rng):
    # two equal Slater blocks -> top value 2 * (1/2)^2 = 1/2
    space = SpaceConfig(5, 2)
    amps = np.zeros(25, dtype=complex)
    amps[1 * 5 + 2], amps[2 * 5 + 1] = 0.5, -0.5
    amps[3 * 5 + 4], amps[4 * 5 + 3] = 0.5, -0.5
    top = analytic_rank_one(StateVector(space, amps), Statistics.FERMION)[0]
    assert abs(top.value - 0.5) < 1e-12

    # three equal symmetric coefficients -> kappa_k^2 + kappa_l^2 = 2/3
    space3 = SpaceConfig(3, 2)
    balanced = np.zeros(9, dtype=complex)
    for mode in range(3):
        balanced[mode * 3 + mode] = 1 / np.sqrt(3)
    top_b = analytic_rank_one(StateVector(space3, balanced),
                              Statistics.BOSON)[0]
    assert abs(top_b.value - 2.0 / 3.0) < 1e-12

    # balanced distinguishable pair -> lambda^2 = 1/2
    space2 = SpaceConfig(2, 2)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    top_d = analytic_rank_one(StateVector(space2, bell),
                              Statistics.DISTINGUISHABLE)[0]
    assert abs(top_d.value - 0.5) < 1e-12


def test_statistics_reduction_to_distinguishable(rng):
    # with the identity in place of the projectors the solver must find
    # the squared Schmidt coefficients
    from sepwit import schmidt
    for d in (3, 4):
        space = SpaceConfig(d, 2)
        psi = StateVector(space, crandn(rng, d * d)).normalized()
        lams = schmidt(psi).coefficients
        result = solve_sup_g(_rank_one_problem(psi, Statistics.DISTINGUISHABLE),
                             starts=16, seed=11)
        assert abs(result.value - lams[0] ** 2) < 1e-8


# ---------------------------------------------------------------------------
# batched multistart

def _one_at_a_time(problem, starts, seed, mode="max"):
    """Reference multistart: every start swept alone through sweep_solve,
    up to eight initializations from its own generator, as the loop that
    the batched driver replaced."""
    import sepwit.solver as solver_module
    dims = problem.partition.block_dims(problem.space.d)
    out = []
    for start in range(starts):
        rng = np.random.default_rng([seed, start])
        for _attempt in range(8):
            init = [solver_module._crandn(rng, dim) for dim in dims]
            try:
                out.append(sweep_solve(problem, init, mode=mode))
                break
            except ZeroProjectionError:
                continue
    return out


def _assert_same_solutions(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert abs(a.value - b.value) <= 1e-12 * max(1.0, abs(b.value))
        assert (a.sweeps, a.converged) == (b.sweeps, b.converged)
        for va, vb in zip(a.party_vectors, b.party_vectors):
            assert np.abs(va - vb).max() <= 1e-10


def _spoil_draws(monkeypatch, starts, parties, every=False):
    """Make the first initialization (every one, with ``every``) of each
    start in ``starts`` give all parties the same basis vector, which
    fermions project to zero; the generator still advances.  Returns
    the number of draws per start."""
    import sepwit.solver as solver_module
    draw = solver_module._crandn
    calls = collections.Counter()

    def spoiling(rng, size):
        start = int(rng.bit_generator.seed_seq.entropy[1])
        calls[start] += 1
        vec = draw(rng, size)
        if start in starts and (every or calls[start] <= parties):
            vec = np.zeros(size, dtype=np.complex128)
            vec[0] = 1.0
        return vec

    monkeypatch.setattr(solver_module, "_crandn", spoiling)
    return calls


_BATCH_CASES = [
    # dense numerator, matrix overlap
    ("dense", Statistics.BOSON, (2, 1), "max"),
    # low-rank numerator, scalar overlap
    ("low-rank", Statistics.DISTINGUISHABLE, (1, 1), "max"),
    # low-rank numerator, matrix overlap
    ("low-rank", Statistics.BOSON, (1, 1), "max"),
    ("low-rank", Statistics.FERMION, (1, 1), "max"),
    # three parties
    ("dense", Statistics.FERMION, (1, 1, 1), "max"),
    ("low-rank", Statistics.BOSON, (1, 1, 1), "min"),
    # the 0 off the span, with a scalar and with a matrix overlap
    ("rank-one", Statistics.DISTINGUISHABLE, (1, 1), "min"),
    ("rank-one", Statistics.BOSON, (1, 1), "min"),
]


@pytest.mark.parametrize("kind,stats,parts,mode", _BATCH_CASES)
def test_batched_multistart_matches_one_start_at_a_time(rng, kind, stats,
                                                         parts, mode):
    # every start advanced in one batch reaches what it reaches alone
    partition = Partition(parts)
    space = SpaceConfig(3, partition.n)
    if kind == "rank-one":
        psi = _random_sector_state(rng, 3, stats)
        observable = rank_one_observable(psi, stats)
    else:
        observable = _random_observable(rng, kind, space)
    problem = SevalueProblem(observable, stats, partition, space)
    result = solve_sup_g(problem, starts=12, seed=4, mode=mode)
    assert result.n_failed == 0
    _assert_same_solutions(result.solutions,
                           _one_at_a_time(problem, 12, 4, mode))


def test_batched_multistart_restarts_one_start(monkeypatch, rng):
    # start 2's first initialization projects to zero: it draws its next
    # one and rejoins with its own sweep count while the others go on
    space = SpaceConfig(3, 2)
    problem = SevalueProblem(_random_observable(rng, "low-rank", space),
                             Statistics.FERMION, Partition((1, 1)), space)
    plain = _one_at_a_time(problem, 6, 1)
    calls = _spoil_draws(monkeypatch, {2}, 2)
    result = solve_sup_g(problem, starts=6, seed=1)
    assert calls == {start: 4 if start == 2 else 2 for start in range(6)}
    _spoil_draws(monkeypatch, {2}, 2)
    want = _one_at_a_time(problem, 6, 1)
    assert result.n_failed == 0
    _assert_same_solutions(result.solutions, want)
    _assert_same_solutions(want[:2] + want[3:], plain[:2] + plain[3:])
    assert np.abs(want[2].party_vectors[0]
                  - plain[2].party_vectors[0]).max() > 1e-6


def test_batched_step_loses_only_the_vanishing_start(rng):
    # a start whose overlap vanishes gets NaN; the others are what their
    # own single steps give
    space = SpaceConfig(3, 3)
    problem = SevalueProblem(random_hermitian(rng, 27), Statistics.BOSON,
                             Partition((2, 1)), space)
    solver = _Solver(problem)
    blocks = [crandn(rng, 4, 9), crandn(rng, 4, 3)]
    blocks[1][2] = 0.0
    numer, overlap, iso = solver.party_matrices(blocks, 0)
    previous = blocks[0] @ iso.conj()
    values, vectors = _generalized_step(numer, overlap, previous, "max")
    assert np.isnan(values[2]) and not np.isnan(values[[0, 1, 3]]).any()
    for b in range(4):
        (value,), (vector,) = _generalized_step(
            *_one_start(numer, overlap, b), previous[b:b + 1], "max")
        if b == 2:
            assert np.isnan(value)
            continue
        assert abs(values[b] - value) <= 1e-12 * max(1.0, abs(value))
        assert np.abs(vectors[b] - vector).max() <= 1e-10


def test_batched_step_mixes_span_ranks(rng):
    # start 1's contracted term vectors vanish (span rank 0, so A = 0)
    # while the others' span one dimension: each start gets what its
    # own single step gives, in max and in min mode
    space = SpaceConfig(3, 2)
    psi = basis_product_vector(space, (0, 0)).amplitudes
    problem = SevalueProblem(LowRankObservable(space, ((1.0, psi, psi),)),
                             Statistics.BOSON, Partition((1, 1)), space)
    solver = _Solver(problem)
    blocks = [crandn(rng, 3, 3), crandn(rng, 3, 3)]
    blocks[1][1] = [0.0, 1.0, 0.0]
    (coeffs, vectors), overlap, iso = solver.party_matrices(blocks, 0)
    assert iso is None and not np.any(vectors[1])
    for mode in ("max", "min"):
        values, got = _generalized_step((coeffs, vectors), overlap,
                                        blocks[0], mode)
        assert values[1] == 0.0
        for b in range(3):
            (value,), (vector,) = _generalized_step(
                *_one_start((coeffs, vectors), overlap, b),
                blocks[0][b:b + 1], mode)
            assert abs(values[b] - value) <= 1e-12 * max(1.0, abs(value))
            assert np.abs(got[b] - vector).max() <= 1e-10


def test_start_results_do_not_depend_on_the_batch(monkeypatch, rng):
    # a start's solution is the same in a batch of 5, of 16, and in
    # batches cut small by the byte budget
    import sepwit.solver as solver_module
    space = SpaceConfig(3, 3)
    for problem in (
            SevalueProblem(random_hermitian(rng, 27), Statistics.BOSON,
                           Partition((2, 1)), space),
            SevalueProblem(_random_observable(rng, "low-rank", space),
                           Statistics.FERMION, Partition((2, 1)), space)):
        full = solve_sup_g(problem, starts=16, seed=9)
        few = solve_sup_g(problem, starts=5, seed=9)
        _assert_same_solutions(few.solutions, full.solutions[:5])
        # room for three starts at a time, then for one
        per_start = 16 * space.total_dim * max(_Solver(problem).sector_dims)
        for budget in (3 * per_start, 1):
            monkeypatch.setattr(solver_module, "BATCH_BYTES", budget)
            chunked = solve_sup_g(problem, starts=16, seed=9)
            _assert_same_solutions(chunked.solutions, full.solutions)
        monkeypatch.undo()


def test_convergence_error_counts_failed_and_unconverged(monkeypatch, rng):
    # starts 3 and 7 project to zero on every initialization; the other
    # 14 stop at the one-sweep limit, so none converges
    space = SpaceConfig(3, 2)
    problem = SevalueProblem(_random_observable(rng, "low-rank", space),
                             Statistics.FERMION, Partition((1, 1)), space)
    _spoil_draws(monkeypatch, {3, 7}, 2, every=True)
    with pytest.raises(ConvergenceError,
                       match=r"\(2 failed on zero projections, "
                             r"14 hit the sweep limit\)"):
        solve_sup_g(problem, starts=16, seed=0, max_sweeps=1)


# ---------------------------------------------------------------------------
# sampling oracle

def test_brute_force_identity_is_exactly_one(rng):
    space = SpaceConfig(3, 2)
    problem = SevalueProblem(np.eye(9), Statistics.BOSON, Partition((1, 1)),
                             space)
    value = brute_force_bound(problem, samples=500, seed=1)
    assert abs(value - 1.0) < 1e-12


def test_crandn_is_the_two_draw_formula():
    # one draw of 2 x size normals is the same stream as two draws of
    # size, real parts first
    for size in (7, (9, 100)):
        got = _crandn(np.random.default_rng(4), size)
        rng = np.random.default_rng(4)
        re, im = rng.standard_normal(size), rng.standard_normal(size)
        assert np.array_equal(got, (re + 1j * im) / np.sqrt(2.0))


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("parts", [(2,), (1, 1), (2, 1), (1, 2), (1, 1, 1)])
@pytest.mark.parametrize("kind", ["dense", "low-rank"])
def test_brute_force_matches_reference(rng, stats, parts, kind):
    # the in-place oracle draws the same stream as the loop form, so it
    # finds the same bound; partial chunks (255, 257, 700) and odd
    # halves (1, 3, 257) included
    partition = Partition(parts)
    space = SpaceConfig(3, partition.n)
    problem = SevalueProblem(_random_observable(rng, kind, space), stats,
                             partition, space)
    for samples in (1, 2, 3, 255, 257, 700):
        for seed in (0, 1, 2):
            want = reference_brute_force_bound(problem, samples, seed)
            got = brute_force_bound(problem, samples, seed)
            assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("samples", [True, False, 1000.0, "10", None])
def test_brute_force_rejects_non_integer_samples(samples):
    space = SpaceConfig(2, 2)
    problem = SevalueProblem(np.eye(4), Statistics.BOSON, Partition((1, 1)),
                             space)
    with pytest.raises(ValueError, match="samples"):
        brute_force_bound(problem, samples=samples)
    with pytest.raises(ValueError, match="samples"):
        brute_force_bound(problem, samples=0)
    assert brute_force_bound(problem, samples=np.int64(3), seed=2) \
        == brute_force_bound(problem, samples=3, seed=2)


@pytest.mark.parametrize("bad", [True, False, 2.0, "3", None, 0, -1])
def test_solve_rejects_bad_starts_and_max_sweeps(bad):
    # starts and max_sweeps follow the oracle's rule for samples: an
    # integer (not a bool) of at least 1, for one party or several
    space = SpaceConfig(3, 2)
    problem = SevalueProblem(np.eye(9), Statistics.BOSON, Partition((1, 1)),
                             space)
    single = dataclasses.replace(problem, partition=Partition((2,)))
    with pytest.raises(ValueError, match="starts"):
        solve_sup_g(problem, starts=bad)
    for target in (problem, single):
        with pytest.raises(ValueError, match="max_sweeps"):
            solve_sup_g(target, starts=2, max_sweeps=bad)
    with pytest.raises(ValueError, match="max_sweeps"):
        sweep_solve(problem, [np.ones(3), np.ones(3)], max_sweeps=bad)


@pytest.mark.parametrize("name, bad", [("tol", np.nan), ("tol", -1.0),
                                       ("value_tol", np.nan)])
def test_solve_rejects_nan_and_negative_tolerances(rng, name, bad):
    # no start can meet a NaN tolerance or a negative tol: every entry
    # point raises ValueError naming it, for one party or several,
    # instead of running every start to the sweep limit; inf stays
    # allowed
    space = SpaceConfig(3, 2)
    problem = SevalueProblem(random_hermitian(rng, 9), Statistics.BOSON,
                             Partition((1, 1)), space)
    single = dataclasses.replace(problem, partition=Partition((2,)))
    init = [crandn(rng, 3) for _ in range(2)]
    tols = {"tol": RESIDUAL_TOL, "value_tol": VALUE_TOL, name: bad}
    for target in (problem, single):
        with pytest.raises(ValueError, match=f"^{name} must"):
            solve_sup_g(target, starts=2, **{name: bad})
    with pytest.raises(ValueError, match=f"^{name} must"):
        sweep_solve(problem, init, **{name: bad})
    with pytest.raises(ValueError, match=f"^{name} must"):
        _Solver(problem).sweep([iter([init])], 10, mode="max", **tols)
    assert solve_sup_g(problem, starts=2, **{name: np.inf}).n_converged == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("parts", [(1, 1), (2,)])
def test_sweep_solve_rejects_non_finite_init(rng, bad, parts):
    space = SpaceConfig(3, 2)
    problem = SevalueProblem(random_hermitian(rng, 9), Statistics.BOSON,
                             Partition(parts), space)
    init = [crandn(rng, 3 ** nk) for nk in parts]
    init[-1][0] = bad
    with pytest.raises(ValueError, match="init must be finite"):
        sweep_solve(problem, init)


def test_solve_accepts_numpy_integer_counts():
    space = SpaceConfig(3, 2)
    problem = SevalueProblem(random_hermitian(np.random.default_rng(3), 9),
                             Statistics.BOSON, Partition((1, 1)), space)
    got = solve_sup_g(problem, starts=np.int64(3), max_sweeps=np.int32(200))
    want = solve_sup_g(problem, starts=3, max_sweeps=200)
    assert type(got.starts) is int and got.starts == 3
    assert [(s.value, s.sweeps) for s in got.solutions] \
        == [(s.value, s.sweeps) for s in want.solutions]


def test_brute_force_interference_stays_below_bound():
    space = SpaceConfig(4, 2)
    for stats in Statistics:
        observable = interference_observable(space, stats)
        problem = SevalueProblem(observable, stats, Partition((1, 1)), space)
        value = brute_force_bound(problem, samples=100_000, seed=5)
        assert value <= 0.5 + 1e-12
        assert value > 0.45


def test_oracle_dominance_rank_one(rng):
    for stats in (Statistics.FERMION, Statistics.BOSON):
        psi = _random_sector_state(rng, 4, stats)
        problem = _rank_one_problem(psi, stats)
        solved = solve_sup_g(problem, starts=24, seed=7).value
        sampled = brute_force_bound(problem, samples=100_000, seed=7)
        assert solved >= sampled - 1e-9
        assert solved - sampled <= 0.05


def test_fermion_rank_one_oracle_example():
    space = SpaceConfig(4, 2)
    amps = np.zeros(16, dtype=complex)
    norm = np.sqrt(2 * (0.8 ** 2 + 0.6 ** 2))
    amps[0 * 4 + 1], amps[1 * 4 + 0] = 0.8 / norm, -0.8 / norm
    amps[2 * 4 + 3], amps[3 * 4 + 2] = 0.6 / norm, -0.6 / norm
    problem = _rank_one_problem(StateVector(space, amps), Statistics.FERMION)
    expected = 2 * (0.8 / norm) ** 2
    sampled = brute_force_bound(problem, samples=100_000, seed=3)
    assert sampled <= expected + 1e-12
    assert expected - sampled < 0.05


# ---------------------------------------------------------------------------
# covariance and the second form

def test_transform_identity_is_noop(rng):
    psi = _random_sector_state(rng, 3, Statistics.BOSON)
    problem = _rank_one_problem(psi, Statistics.BOSON)
    sol = sweep_solve(problem, [crandn(rng, 3), crandn(rng, 3)])
    moved = transform_solution(sol, 1.0, 0.0, np.eye(3))
    assert abs(moved.value - sol.value) < 1e-14
    for old, new in zip(sol.party_vectors, moved.party_vectors):
        assert np.allclose(old, new)


def test_transform_affine_shift(rng):
    psi = _random_sector_state(rng, 3, Statistics.FERMION)
    problem = _rank_one_problem(psi, Statistics.FERMION)
    sol = sweep_solve(problem, [crandn(rng, 3), crandn(rng, 3)])
    moved = transform_solution(sol, 2.0, -1.0, np.eye(3))
    assert abs(moved.value - (2.0 * sol.value - 1.0)) < 1e-12
    for old, new in zip(sol.party_vectors, moved.party_vectors):
        assert np.allclose(old, new)


def test_transform_solution_solves_transformed_problem(rng):
    psi = _random_sector_state(rng, 3, Statistics.BOSON)
    problem = _rank_one_problem(psi, Statistics.BOSON)
    sol = sweep_solve(problem, [crandn(rng, 3), crandn(rng, 3)])
    unitary = random_unitary(rng, 3)
    lam1, lam2 = 1.7, -0.3
    moved = transform_solution(sol, lam1, lam2, unitary)
    new_op = transformed_observable(problem.operator, lam1, lam2, unitary,
                                    Statistics.BOSON, psi.space)
    new_problem = SevalueProblem(new_op, Statistics.BOSON, Partition((1, 1)),
                                 psi.space)
    _, overlap = verify_second_form(moved, new_problem)
    assert overlap < 1e-9
    # re-solving from the transformed point stays put
    resolved = sweep_solve(new_problem, list(moved.party_vectors))
    assert abs(resolved.value - moved.value) < 1e-8


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("parts", [(2,), (1, 1), (2, 1), (1, 1, 1)])
@pytest.mark.parametrize("kind", ["dense", "low-rank"])
@settings(max_examples=8, deadline=None)
@given(d=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       shift=st.booleans())
def test_transformed_solution_is_stationary(stats, parts, kind, d, seed,
                                            shift):
    # G is covariant under lambda1 L + lambda2 P and local unitaries
    # U^(x N): a converged solution, carried over by transform_solution,
    # is stationary on the transformed observable with the quotient
    # lambda1 g + lambda2 (a low-rank observable stays low-rank unshifted)
    rng = np.random.default_rng(seed)
    space = SpaceConfig(d, sum(parts))
    if not subspace_dimension(stats, space):
        return      # fermions in fewer modes than particles: no sector
    observable = _random_observable(rng, kind, space)
    partition = Partition(parts)
    try:
        sol = solve_sup_g(SevalueProblem(observable, stats, partition, space),
                          starts=4, seed=seed % 1000).best
    except ConvergenceError:
        return
    lam1 = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    lam2 = float(rng.standard_normal()) if shift else 0.0
    unitary = random_unitary(rng, d)
    moved = transform_solution(sol, lam1, lam2, unitary)
    new_op = transformed_observable(observable, lam1, lam2, unitary, stats,
                                    space)
    assert isinstance(new_op, np.ndarray) == (shift or kind == "dense")
    dense = observable if isinstance(observable, np.ndarray) \
        else observable.to_matrix()
    scale = max(1.0, abs(lam1)) * max(1.0, np.linalg.norm(dense, 2)) \
        + abs(lam2)
    _, overlap = verify_second_form(
        moved, SevalueProblem(new_op, stats, partition, space))
    assert overlap <= 1e-9 * scale
    new_dense = new_op if isinstance(new_op, np.ndarray) \
        else new_op.to_matrix()
    pb = project(stats, StateVector(
        space, reduce(np.kron, moved.party_vectors))).amplitudes
    quotient = (pb.conj() @ new_dense @ pb).real / (pb.conj() @ pb).real
    assert moved.value == lam1 * sol.value + lam2
    assert abs(quotient - moved.value) <= 1e-9 * scale


def test_matched_inits_give_unitarily_invariant_values(rng):
    psi = _random_sector_state(rng, 4, Statistics.FERMION)
    problem = _rank_one_problem(psi, Statistics.FERMION)
    unitary = random_unitary(rng, 4)
    rotated_op = transformed_observable(problem.operator, 1.0, 0.0, unitary,
                                        Statistics.FERMION, psi.space)
    rotated = SevalueProblem(rotated_op, Statistics.FERMION, Partition((1, 1)),
                             psi.space)
    for _ in range(4):
        init = [crandn(rng, 4), crandn(rng, 4)]
        sol = sweep_solve(problem, init)
        mirrored = sweep_solve(rotated,
                               [unitary.conj().T @ b for b in init])
        assert abs(sol.value - mirrored.value) < 1e-8


def test_transform_rejects_zero_scale(rng):
    psi = _random_sector_state(rng, 3, Statistics.BOSON)
    sol = sweep_solve(_rank_one_problem(psi, Statistics.BOSON),
                      [crandn(rng, 3), crandn(rng, 3)])
    with pytest.raises(ValueError):
        transform_solution(sol, 0.0, 1.0, np.eye(3))


def test_second_form_on_converged_solutions(rng):
    for stats in (Statistics.BOSON, Statistics.FERMION):
        psi = _random_sector_state(rng, 4, stats)
        problem = _rank_one_problem(psi, stats)
        sol = sweep_solve(problem, [crandn(rng, 4), crandn(rng, 4)])
        chi, overlap = verify_second_form(sol, problem)
        assert overlap <= 1e-8
        stays = project(stats, chi)
        assert np.linalg.norm(stays.amplitudes - chi.amplitudes) < 1e-10


def test_second_form_analytic_fermion_chi():
    # the perturbation of the n-th closed-form solution collects the
    # other Slater blocks with weights kappa_n * kappa_m
    d = 6
    space = SpaceConfig(d, 2)
    kappas = np.array([0.7, 0.5, 0.1])
    kappas = kappas / np.sqrt(2 * np.sum(kappas ** 2))
    amps = np.zeros(d * d, dtype=complex)
    for idx, k in enumerate(kappas):
        a, b = 2 * idx, 2 * idx + 1
        amps[a * d + b] += k
        amps[b * d + a] -= k
    f = StateVector(space, amps)
    problem = _rank_one_problem(f, Statistics.FERMION)
    solutions = analytic_rank_one(f, Statistics.FERMION)
    top = solutions[0]
    chi, overlap = verify_second_form(top, problem)
    assert overlap < 1e-12
    expected = np.zeros(d * d, dtype=complex)
    for m, k in enumerate(kappas):
        if m == 0:
            continue
        a, b = 2 * m, 2 * m + 1
        expected[a * d + b] += kappas[0] * k
        expected[b * d + a] -= kappas[0] * k
    assert np.linalg.norm(chi.amplitudes - expected) < 1e-10


def test_second_form_detects_broken_eigenrelation(rng):
    psi = _random_sector_state(rng, 3, Statistics.BOSON)
    problem = _rank_one_problem(psi, Statistics.BOSON)
    sol = sweep_solve(problem, [crandn(rng, 3), crandn(rng, 3)])
    broken = dataclasses.replace(sol, value=sol.value + 0.1)
    _, overlap = verify_second_form(broken, problem)
    assert overlap > 1e-3
