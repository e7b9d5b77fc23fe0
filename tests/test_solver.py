import collections
import dataclasses
import functools
import threading
import tracemalloc
import weakref
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sepwit.solver as solver_module
from sepwit import (DensityOperator, LowRankObservable, Partition, SevalueProblem, SpaceConfig,
                    StateVector, Statistics, all_partitions,
                    analytic_interference, analytic_rank_one,
                    basis_product_vector, brute_force_bound,
                    interference_observable, partitions_into, product_vector,
                    project, projector_matrix,
                    rank_one_observable,
                    solve_sup_g, subspace_dimension, sweep_solve,
                    transform_solution, transformed_observable,
                    verify_second_form)
from sepwit.witness import (Witness, WitnessForm, _analytic_bound,
                            build_k_witness, build_witness, expectation,
                            witness_matrix)
from sepwit.errors import (ConvergenceError, DimensionCapError,
                           EigensolveError, HermiticityError,
                           ZeroProjectionError)
from sepwit.sectors import SectorIsometry, sector_isometry
from sepwit.partystep import _generalized_step
from sepwit.solver import (RESIDUAL_TOL, VALUE_TOL, _crandn, _party_coords,
                           _party_matrices, _solutions, _stationarity, _sweep)

from conftest import (_called_within, break_overlap_eigh, break_span_svd,
                      contracted_operator, crandn, dense_party_matrices,
                      full_space_stationarity, project_full_sum,
                      random_hermitian, random_mixture, random_unitary,
                      reference_brute_force_bound, reference_generalized_step,
                      sector_basis_vectors)


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
    # a party index does not wrap: -1 is not the last block
    assert numpy_parts.slots(np.int64(1)) == range(2, 3)
    for party in (-1, 2, 1.0, True):
        with pytest.raises(ValueError, match="party must be"):
            numpy_parts.slots(party)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 np.complex128(0.5 + 1j)])
def test_low_rank_observable_offset_must_be_finite_and_real(rng, bad):
    # a complex offset is no Hermitian shift; float() of a numpy complex
    # would keep its real part with a warning only
    ket = crandn(rng, 4)
    with pytest.raises(ValueError, match="offset must be a finite real"):
        LowRankObservable(SpaceConfig(2, 2), ((1.0, ket, ket),), offset=bad)


def test_low_rank_observable_needs_a_term():
    with pytest.raises(ValueError, match="needs at least one term"):
        LowRankObservable(SpaceConfig(2, 2), ())


def test_low_rank_observable_stores_each_vector_once(rng):
    # |v><w| + |w><v| holds two read-only copies, shared by both terms,
    # and the input vectors stay the caller's own
    space = SpaceConfig(6, 3)
    (_, v, w), (_, w_again, v_again) = \
        interference_observable(space, Statistics.BOSON).terms
    assert v is v_again and w is w_again and v is not w
    assert not (v.flags.writeable or w.flags.writeable)
    ket = crandn(rng, 4)
    (_, first, second), = LowRankObservable(SpaceConfig(2, 2),
                                            ((1.0, ket, ket),)).terms
    assert first is second and first is not ket and ket.flags.writeable


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
    proj = project_full_sum(stats, np.eye(dim), space)
    isometries = [sector_basis_vectors(stats, SpaceConfig(d, nk))
                  for nk in parts]
    for observable in (random_hermitian(rng, dim), low_rank):
        dense = observable if isinstance(observable, np.ndarray) \
            else observable.to_matrix()
        sandwich = proj @ dense @ proj
        problem = SevalueProblem(observable, stats, partition, space)
        blocks = [crandn(rng, d ** nk) for nk in parts]
        g = float(rng.standard_normal())
        batch = [b[None] for b in blocks]
        _, (defects,) = _stationarity(problem, _party_coords(problem, batch),
                                      [g])
        # the party matrices read the others' block-sector coordinates
        coords = [(iso.conj().T @ b)[None]
                  for iso, b in zip(isometries, blocks)]
        for j, iso in enumerate(isometries):
            numer, overlap = _party_matrices(problem, coords, j)
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
            bv = overlap @ coords[j][0]
            want_defect = np.linalg.norm(numer @ coords[j][0] - g * bv)
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
    blocks = [crandn(rng, 3 ** nk) for nk in parts]
    coords = [sector_basis_vectors(stats, SpaceConfig(3, nk)).conj().T
              @ (b / np.linalg.norm(b)) for nk, b in zip(parts, blocks)]
    for _ in range(3):
        for j in range(len(parts)):
            numer, overlap = _party_matrices(
                problem, [c[None] for c in coords], j)
            previous = coords[j]
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
            coords[j] = vec


@pytest.mark.parametrize("stats", list(Statistics))
def test_party_step_zero_extremum(rng, stats):
    # -|psi><psi| in "max" mode: each party's numerator is -|a><a|, whose
    # span value is negative, so the extremum is the 0 taken off the span
    space = SpaceConfig(3, 2)
    psi = _random_sector_state(rng, 3, stats).amplitudes
    observable = LowRankObservable(space, ((-1.0, psi, psi),))
    problem = SevalueProblem(observable, stats, Partition((1, 1)), space)
    blocks = [crandn(rng, 3) for _ in range(2)]
    blocks = [b / np.linalg.norm(b) for b in blocks]
    numer, overlap = _party_matrices(problem, [b[None] for b in blocks], 0)
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
    numer, overlap = _party_matrices(problem, [b[None] for b in blocks], 0)
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
    want = project_full_sum(stats, reduce(np.kron, blocks), space)
    got = project_full_sum(stats, reduce(np.kron, in_sector), space)
    assert np.abs(got - want).max() <= 1e-12


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


@pytest.mark.parametrize("stats,parts", [(Statistics.BOSON, (2, 1)),
                                         (Statistics.FERMION, (1, 1, 1))])
def test_failed_overlap_eigh_takes_another_route(monkeypatch, rng, stats,
                                                 parts):
    # one overlap of a batch fails in the batched eigh and alone; the
    # step takes it from the SVD and the solve reaches the same G
    space = SpaceConfig(4, sum(parts))
    problem = SevalueProblem(_random_observable(rng, "dense", space), stats,
                             Partition(parts), space)
    want = solve_sup_g(problem, starts=6, seed=1).value
    raised = break_overlap_eigh(monkeypatch)
    got = solve_sup_g(problem, starts=6, seed=1).value
    assert raised == {"eigh": 2}
    assert abs(got - want) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), batch=st.integers(1, 4),
       m=st.integers(1, 6), deficit=st.integers(0, 5), terms=st.integers(1, 4),
       mode=st.sampled_from(["max", "min"]))
def test_overlap_svd_route_gives_the_batched_eigh_values(seed, batch, m,
                                                        deficit, terms, mode):
    # a party step whose overlaps all go through _overlap_eigh's SVD
    # route, eigh failing on the stack and on every matrix alone, reaches
    # the batched eigh route's values on random PSD overlaps of rank
    # m - deficit (at least 1), rank-deficient ones included
    rng = np.random.default_rng(seed)
    rank = max(1, m - deficit)
    factor = crandn(rng, batch, m, rank)
    overlap = factor @ factor.conj().swapaxes(1, 2)
    overlap = (overlap + overlap.conj().swapaxes(1, 2)) / 2.0
    numer = (rng.standard_normal(terms), crandn(rng, batch, m, terms))
    previous = crandn(rng, batch, m)
    want, _ = _generalized_step(numer, overlap, previous, mode)
    eigh, raised = np.linalg.eigh, []

    def failing(a, *args, **kwargs):
        if _called_within("_overlap_eigh"):
            raised.append(np.shape(a))
            raise np.linalg.LinAlgError("did not converge")
        return eigh(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigh", failing)
        got, _ = _generalized_step(numer, overlap, previous, mode)
    assert raised[0] == overlap.shape and len(raised) == batch + 1
    assert np.all(np.abs(got - want)
                  <= 1e-10 * np.maximum(1.0, np.abs(want)))


def test_overlap_eigh_failing_every_route_is_a_convergence_error(
        monkeypatch, rng):
    space = SpaceConfig(3, 3)
    problem = SevalueProblem(_random_observable(rng, "low-rank", space),
                             Statistics.BOSON, Partition((2, 1)), space)
    problem.sector_terms
    raised = break_overlap_eigh(monkeypatch, sides=(3, 6))
    with pytest.raises(EigensolveError, match="no route") as info:
        solve_sup_g(problem, starts=4, seed=0)
    assert isinstance(info.value, ConvergenceError)
    assert raised == {"eigh": 2, "svd": 1}


def test_failed_span_svd_is_redone_one_matrix_at_a_time(monkeypatch, rng):
    # the SVD of a party step's whitened term vectors fails on every
    # batch: each start's matrix alone reaches the same G
    space = SpaceConfig(3, 3)
    problem = SevalueProblem(_random_observable(rng, "low-rank", space),
                             Statistics.BOSON, Partition((2, 1)), space)
    want = solve_sup_g(problem, starts=4, seed=0).value
    raised = break_span_svd(monkeypatch, stacks_only=True)
    got = solve_sup_g(problem, starts=4, seed=0).value
    assert raised and all(len(shape) == 3 for shape in raised)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_span_svd_failing_every_route_is_a_convergence_error(monkeypatch,
                                                             rng):
    # where the matrix fails alone too, the solve raises EigensolveError,
    # a ConvergenceError, not numpy's LinAlgError, which is a ValueError
    space = SpaceConfig(3, 3)
    problem = SevalueProblem(_random_observable(rng, "low-rank", space),
                             Statistics.BOSON, Partition((2, 1)), space)
    raised = break_span_svd(monkeypatch)
    with pytest.raises(EigensolveError, match="no route") as info:
        solve_sup_g(problem, starts=4, seed=0)
    assert isinstance(info.value, ConvergenceError)
    assert [len(shape) for shape in raised] == [3, 2]


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


def test_fermion_two_two_one_at_five_particles_reaches_one_half():
    # (2, 2, 1) at N=5, d=10 has two fermion blocks of size >= 2, so the
    # analytic route refuses it; two starts reach 1/2
    space = SpaceConfig(10, 5)
    problem = SevalueProblem(interference_observable(space, Statistics.FERMION),
                             Statistics.FERMION, Partition((2, 2, 1)), space)
    assert abs(solve_sup_g(problem, starts=2, seed=0).value - 0.5) <= 1e-6
    with pytest.raises(ValueError, match="at most one block"):
        _analytic_bound(problem, "max")


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
    # ||PLPb - gPb|| / ||Pb|| built from the permutation-sum projector
    space = SpaceConfig(3, 2)
    psi = _random_sector_state(rng, 3, stats)
    observables = (random_hermitian(rng, 9),
                   rank_one_observable(psi, stats))
    proj = project_full_sum(stats, np.eye(9), space)
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
            sol, = _solutions(problem, _party_coords(problem, [b[None]]),
                              [g], [False], [0])
            assert abs(sol.residual - expected) <= 1e-12 * max(1.0, expected)
            moved = dataclasses.replace(solved, party_vectors=(b,), value=g)
            _, overlap = verify_second_form(moved, problem)
            assert abs(overlap - defect) <= 1e-12 * max(1.0, defect)


def _within(got, want):
    """1e-10 relative or 1e-14 absolute."""
    return abs(got - want) <= max(1e-10 * abs(want), 1e-14)


@settings(max_examples=60, deadline=None)
@given(stats=st.sampled_from(list(Statistics)),
       parts=st.sampled_from([(1,), (2,), (3,), (1, 1), (2, 1), (1, 2),
                              (1, 1, 1)]),
       kind=st.sampled_from(["dense", "low-rank"]), d=st.integers(2, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sector_residuals_match_the_full_space_reference(stats, parts, kind,
                                                         d, seed):
    # the residuals, chi_norm and the second form's overlap, taken in
    # sector coordinates, equal those of the full-space route (the
    # projector, L itself and one contraction per party) at random
    # party vectors and values, and second-form chi is the full-space chi
    rng = np.random.default_rng(seed)
    space = SpaceConfig(d, sum(parts))
    if not subspace_dimension(stats, space):
        return      # fermions in fewer modes than particles: no sector
    problem = SevalueProblem(_random_observable(rng, kind, space), stats,
                             Partition(parts), space)
    blocks = [crandn(rng, 3, dim) for dim in problem.block_dims]
    values = rng.standard_normal(3)
    projected, chi, defects = full_space_stationarity(problem, blocks,
                                                      values)
    sols = _solutions(problem, _party_coords(problem, blocks), values,
                      [False] * 3, [0] * 3)
    for b, sol in enumerate(sols):
        defect, scale = defects[b].T
        assert _within(sol.residual, np.max(defect / scale))
        assert _within(sol.chi_norm, np.linalg.norm(chi[b]))
        assert np.abs(sol.projected_vector.amplitudes
                      - projected[b]).max() <= 1e-12
        got, overlap = verify_second_form(sol, problem)
        assert _within(overlap, defect.max())
        assert np.abs(got.amplitudes - chi[b]).max() \
            <= 1e-10 * np.abs(chi[b]).max()


def test_solutions_hold_no_full_space_array():
    # boson (3, 1) at N=4, d=8: a solution keeps its 512- and 8-mode
    # party vectors, not the 4096-mode projected product, which it
    # forms only when read
    space = SpaceConfig(8, 4)
    problem = SevalueProblem(interference_observable(space, Statistics.BOSON),
                             Statistics.BOSON, Partition((3, 1)), space)
    result = solve_sup_g(problem, starts=3, seed=0)
    for sol in result.solutions:
        fields = [getattr(sol, f.name) for f in dataclasses.fields(sol)]
        held = [v.size for f in fields
                for v in (f if isinstance(f, tuple) else (f,))
                if isinstance(v, np.ndarray)]
        assert sorted(held) == [8, 512]
        assert "projected_vector" not in vars(sol)
        pb = project_full_sum(Statistics.BOSON,
                              reduce(np.kron, sol.party_vectors), space)
        assert np.abs(sol.projected_vector.amplitudes - pb).max() <= 1e-15


@settings(max_examples=24, deadline=None)
@given(stats=st.sampled_from(list(Statistics)),
       parts=st.sampled_from([(3,), (2, 1), (1, 2), (1, 1, 1)]),
       seed=st.integers(0, 2 ** 16))
def test_records_hold_unit_party_vectors_in_their_block_sectors(stats, parts,
                                                                seed):
    # every record, from the sweep (K = 1, 2, 3) or a closed form, holds
    # each party as a unit vector in its block's exchange sector, as the
    # sweep holds it: P_j b_j = b_j.  The interference representatives
    # are basis products, which stick out of a sector of 2 or more slots
    rng = np.random.default_rng(seed)
    space, partition = SpaceConfig(6, 3), Partition(parts)
    problem = SevalueProblem(interference_observable(space, stats), stats,
                             partition, space)
    records = [*solve_sup_g(problem, starts=4, seed=seed).solutions,
               sweep_solve(problem, [crandn(rng, dim)
                                     for dim in problem.block_dims],
                           max_sweeps=40),
               *analytic_interference(space, stats, partition).solutions,
               *analytic_rank_one(_random_sector_state(rng, 3, stats),
                                  stats)]
    for sol in records:
        for b, nj in zip(sol.party_vectors, sol.partition.parts):
            block = SpaceConfig(sol.space.d, nj)
            assert abs(np.linalg.norm(b) - 1.0) <= 1e-12
            assert np.linalg.norm(project_full_sum(stats, b, block) - b) \
                <= 1e-12


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


@pytest.mark.parametrize("stats,n,d,parts,dims", [
    (Statistics.FERMION, 4, 8, (3, 1), (56, 8)),
    (Statistics.BOSON, 3, 6, (2, 1), (21, 6))])
def test_sweep_holds_party_sector_coordinates(monkeypatch, stats, n, d, parts,
                                              dims):
    # a low-rank K >= 2 solve steps every party in its block's sector
    # coordinates (56 of fermion (3, 1)'s 512 modes), which it reaches
    # by the orbit tables alone: no dense S_j or S is ever formed
    space = SpaceConfig(d, n)
    problem = SevalueProblem(interference_observable(space, stats), stats,
                             Partition(parts), space)
    widths, dense = [], []
    step, toarray = solver_module._generalized_step, SectorIsometry.toarray

    def recording(numer, overlap, previous, mode):
        widths.append(previous.shape[1])
        return step(numer, overlap, previous, mode)

    def counting(self):
        dense.append(self.shape)
        return toarray(self)

    monkeypatch.setattr(solver_module, "_generalized_step", recording)
    monkeypatch.setattr(SectorIsometry, "toarray", counting)
    result = solve_sup_g(problem, starts=3, seed=0)
    assert abs(result.value - 0.5) <= 1e-9
    assert problem.sector_dims == dims
    assert widths and widths == list(dims) * (len(widths) // 2)
    assert dense == []
    assert [len(b) for b in result.best.party_vectors] \
        == list(problem.block_dims)


def test_party_sectors_built_once_per_problem(monkeypatch, rng):
    # every start of a solve, and every later solve, oracle call and
    # second-form check on the same problem, shares the orbit tables of
    # its S_j and of the whole space's S, and the observable in S's
    # coordinates; a block whose sector is the whole block (one slot
    # here) is solved without one.  The sweep reads S (for its batch
    # size) before the starts join through their S_j
    import sepwit.operators as operators_module
    import sepwit.solver as solver_module
    calls = []
    builds = []
    orth_calls = []

    def counting(stats, space):
        calls.append(space.n)
        return sector_isometry(stats, space)

    def counting_terms(problem):
        # the property runs only where its cache is empty: a dense
        # observable's S^H L S records the observable's shape, the terms
        # (c, S^H V) record "terms"
        dense = isinstance(problem.operator, np.ndarray)
        builds.append(problem.operator.shape if dense else "terms")
        return sector_terms(problem)

    def counting_orth(mat):
        orth_calls.append(mat.shape)
        return orth(mat)

    sector_terms = SevalueProblem.sector_terms.func
    counting_property = functools.cached_property(counting_terms)
    counting_property.__set_name__(SevalueProblem, "sector_terms")
    orth = operators_module.orth
    monkeypatch.setattr(solver_module, "sector_isometry", counting)
    monkeypatch.setattr(SevalueProblem, "sector_terms", counting_property)
    space = SpaceConfig(8, 4)
    problem = SevalueProblem(interference_observable(space, Statistics.FERMION),
                             Statistics.FERMION, Partition((3, 1)), space)
    monkeypatch.setattr(operators_module, "orth", counting_orth)
    result = solve_sup_g(problem, starts=3, seed=0)
    assert abs(result.value - 0.5) <= 1e-9
    assert calls == [4, 3]
    # a projected low-rank solve builds its sector terms (c, S^H V) once
    assert builds == ["terms"]
    # and later solves, the oracle and the second-form check on the same
    # problem build nothing again, nor the observable's eigen-form
    solve_sup_g(problem, starts=2, seed=1)
    sweep_solve(problem, list(result.best.party_vectors))
    assert brute_force_bound(problem, samples=64, seed=0) <= 0.5 + 1e-9
    verify_second_form(result.best, problem)
    assert calls == [4, 3]
    assert builds == ["terms"]
    assert orth_calls == []
    assert problem.party_sectors[1] is None
    assert calls == [4, 3]
    wide = SevalueProblem(problem.operator, Statistics.DISTINGUISHABLE,
                          Partition((2, 2)), space)
    assert all(iso is None for iso in wide.party_sectors)
    assert calls == [4, 3]
    # a dense observable is compressed to S^H L S once per problem
    calls.clear()
    builds.clear()
    small = SpaceConfig(3, 3)
    dense = SevalueProblem(random_hermitian(rng, 27), Statistics.BOSON,
                           Partition((2, 1)), small)
    solve_sup_g(dense, starts=3, seed=0)
    assert calls == [3, 2]
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
    monkeypatch.setattr(solver_module, "_party_matrices", forbidden)
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
    # the dense oracle on the solved problem reads its S^H L S, and on a
    # new one compresses once, through S's orbit tables: no dense S
    calls.clear()
    builds.clear()
    brute_force_bound(dense, samples=64, seed=0)
    assert calls == builds == dense_builds == []
    brute_force_bound(dataclasses.replace(dense), samples=64, seed=0)
    assert calls == [3]
    assert builds == [(27, 27)]
    assert dense_builds == []
    # a single dense party takes S^H L S through S's orbit tables too
    calls.clear()
    builds.clear()
    dense_builds.clear()
    space = SpaceConfig(9, 3)
    observable = random_hermitian(rng, space.total_dim)
    single = SevalueProblem(observable, Statistics.FERMION, Partition((3,)),
                            space)
    value = solve_sup_g(single, starts=1, seed=0).value
    assert calls == [3]
    assert dense_builds == []
    assert builds == [(729, 729)]
    iso = sector_basis_vectors(Statistics.FERMION, space)
    top = np.linalg.eigvalsh(iso.conj().T @ observable @ iso)[-1]
    assert abs(value - top) <= 1e-9


@pytest.mark.parametrize("stats", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("d, n", [(3, 2), (4, 3), (6, 3)])
def test_dense_sector_terms_are_the_compressed_operator(rng, stats, d, n):
    # S^H L S, taken by two gathers of S's orbit tables, is the
    # compression of L by the dense columns of S
    space = SpaceConfig(d, n)
    observable = random_hermitian(rng, space.total_dim)
    coeffs, vectors = SevalueProblem(observable, stats, Partition((n,)),
                                     space).sector_terms
    iso = sector_basis_vectors(stats, space)
    want = iso.conj().T @ observable @ iso
    assert np.abs((vectors * coeffs) @ vectors.conj().T - want).max() <= 1e-12


def test_problem_keeps_its_own_copy_of_a_dense_operator(rng):
    # a write through the base of a view passed in reaches neither the
    # problem's operator nor its cached sector terms
    space = SpaceConfig(3, 2)
    base = random_hermitian(rng, 9)
    problem = SevalueProblem(base[:], Statistics.BOSON, Partition((1, 1)),
                             space)
    before = solve_sup_g(problem, starts=8, seed=0).value
    base *= 2.0
    assert solve_sup_g(problem, starts=8, seed=0).value == before
    assert not problem.operator.flags.writeable
    assert np.array_equal(problem.operator, base / 2.0)


def test_problem_shares_a_frozen_copy_and_copies_anything_else(rng):
    # another problem's read-only private copy is taken as it is; the
    # caller's writable array and a read-only view are copied
    space = SpaceConfig(3, 2)
    dense = random_hermitian(rng, 9)
    args = (Statistics.BOSON, Partition((1, 1)), space)
    first = SevalueProblem(dense, *args)
    assert not np.shares_memory(first.operator, dense)
    second = SevalueProblem(first.operator, Statistics.FERMION,
                            Partition((2,)), space)
    assert np.shares_memory(second.operator, first.operator)
    view = SevalueProblem(first.operator[:], *args)
    assert not np.shares_memory(view.operator, first.operator)
    assert np.array_equal(view.operator, dense)


def test_problems_and_density_operators_compare_by_identity(rng):
    # equal fields do not make two problems (or two density operators)
    # equal; both serve as dict keys and in a WeakSet
    space = SpaceConfig(3, 2)
    problem = SevalueProblem(random_hermitian(rng, 9), Statistics.BOSON,
                             Partition((1, 1)), space)
    twin = SevalueProblem(problem.operator, Statistics.BOSON,
                          Partition((1, 1)), space)
    psi = StateVector(space, crandn(rng, 9)).normalized().amplitudes
    rho = DensityOperator.from_matrix(space, np.outer(psi, psi.conj()))
    rho_twin = DensityOperator.from_matrix(space, rho.matrix)
    for one, other in ((problem, twin), (rho, rho_twin)):
        assert one == one and one != other
        assert hash(one) != hash(other)
        seen = weakref.WeakSet([one, other])
        assert one in seen and len(seen) == 2
        assert {one: "one", other: "other"}[one] == "one"


def test_dense_operator_is_validated_in_row_slabs(rng):
    # the checks of a side-1296 operator (25.6 MiB) run over row slabs,
    # so constructing the problem allocates its private copy and little
    # more; bad entries in a late slab raise the errors they raised when
    # the checks ran over the whole matrix
    space = SpaceConfig(6, 4)
    dense = random_hermitian(rng, space.total_dim)
    args = (Statistics.BOSON, Partition((2, 2)), space)
    tracemalloc.start()
    try:
        SevalueProblem(dense, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * dense.nbytes
    broken = dense.copy()
    broken[1200, 5] = np.nan
    with pytest.raises(ValueError, match="observable must be finite"):
        SevalueProblem(broken, *args)
    broken = dense.copy()
    broken[1200, 5] += 1e-6
    with pytest.raises(HermiticityError,
                       match=r"observable is not Hermitian "
                             r"\(max asymmetry 1\.000e-06\)"):
        SevalueProblem(broken, *args)
    with pytest.raises(ValueError, match="observable must be a square"):
        SevalueProblem(dense[:, :-1], *args)


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
@pytest.mark.parametrize("kind", ["dense", "low-rank"])
def test_single_party_is_solved_once_whatever_the_starts(rng, stats, kind):
    # the sweep solves a single party by one exact step from start 0
    # alone: 64 starts give start 0's solution, bit for bit, as the
    # search's one solution
    space = SpaceConfig(3, 2)
    problem = SevalueProblem(_random_observable(rng, kind, space), stats,
                             Partition((2,)), space)
    one = solve_sup_g(problem, starts=1, seed=5)
    many = solve_sup_g(problem, starts=64, seed=5)
    assert many.best.value == one.best.value
    assert all(np.array_equal(a, b) for a, b in
               zip(many.best.party_vectors, one.best.party_vectors))
    assert len(many.solutions) == 1 and many.starts == 64
    assert (many.n_converged, many.n_failed) == (1, 0)
    assert many.fraction_at_value == 1.0


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
    import sepwit.solver as solver_module

    def forbidden(*_args):
        raise AssertionError("K = 1 low-rank solve built a party matrix")

    monkeypatch.setattr(solver_module, "_party_matrices", forbidden)
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
    blocks = [crandn(rng, 4, 9), crandn(rng, 4, 3)]
    blocks[1][2] = 0.0
    previous = blocks[0] @ sector_basis_vectors(Statistics.BOSON,
                                                SpaceConfig(3, 2)).conj()
    numer, overlap = _party_matrices(problem, [previous, blocks[1]], 0)
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
    blocks = [crandn(rng, 3, 3), crandn(rng, 3, 3)]
    blocks[1][1] = [0.0, 1.0, 0.0]
    (coeffs, vectors), overlap = _party_matrices(problem, blocks, 0)
    assert problem.party_sectors[0] is None and not np.any(vectors[1])
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


def _batch_sizes(monkeypatch):
    """Record the number of starts in every party step of the sweep."""
    step = solver_module._party_matrices
    sizes = []

    def recording(problem, blocks, j):
        sizes.append(blocks[0].shape[0])
        return step(problem, blocks, j)

    monkeypatch.setattr(solver_module, "_party_matrices", recording)
    return sizes


def test_start_results_do_not_depend_on_the_batch(monkeypatch, rng):
    # a start's solution is the same in a batch of 5, of 16, and in
    # batches cut small by the byte budget
    import sepwit.solver as solver_module
    space = SpaceConfig(3, 3)
    for problem in (
            SevalueProblem(random_hermitian(rng, 27), Statistics.BOSON,
                           Partition((2, 1)), space),
            SevalueProblem(_random_observable(rng, "low-rank", space),
                           Statistics.FERMION, Partition((2, 1)), space),
            # three parties, whose trials are scored through the coupling
            # map's many-to-one scatter
            SevalueProblem(random_hermitian(rng, 27), Statistics.BOSON,
                           Partition((1, 1, 1)), space)):
        full = solve_sup_g(problem, starts=16, seed=9)
        few = solve_sup_g(problem, starts=5, seed=9)
        _assert_same_solutions(few.solutions, full.solutions[:5])
        # room for three starts at a time, then for one, by the sweep's
        # own rule: a start's largest array holds T's width in complex
        # entries
        per_start = 16 * problem.coupling.width
        for starts, budget in ((3, 3 * per_start), (1, 1)):
            monkeypatch.setattr(solver_module, "BATCH_BYTES", budget)
            batches = _batch_sizes(monkeypatch)
            chunked = solve_sup_g(problem, starts=16, seed=9)
            _assert_same_solutions(chunked.solutions, full.solutions)
            assert max(batches) == starts
        monkeypatch.undo()


def test_extrapolated_sweeps_cut_the_linear_tail():
    # boson interference at N=3, d=6, (2, 1): plain cyclic ascent takes
    # 366 sweeps in all and up to 41 per start from these 16 starts; the
    # line step after every sweep cuts both, to the same bound
    space = SpaceConfig(6, 3)
    problem = SevalueProblem(interference_observable(space, Statistics.BOSON),
                             Statistics.BOSON, Partition((2, 1)), space)
    result = solve_sup_g(problem, starts=16, seed=0)
    sweeps = [sol.sweeps for sol in result.solutions]
    assert result.n_converged == 16
    assert abs(result.value - 0.5) <= 1e-9
    assert sum(sweeps) <= 200 and max(sweeps) <= 20


@pytest.mark.parametrize("mode", ["max", "min"])
def test_line_step_gaining_less_than_the_margin_is_refused(monkeypatch, rng,
                                                           mode):
    # a trial that beats the start's quotient by fewer than LINE_GAIN_ULPS
    # ulps of |g| is refused like one that never wins: every trial keeps
    # the first factor LINE_STEP, and the solve is the same; one that
    # beats it by more is taken, and a later trial's factor grows
    space = SpaceConfig(6, 3)
    problem = SevalueProblem(interference_observable(space, Statistics.BOSON),
                             Statistics.BOSON, Partition((2, 1)), space)
    init = [crandn(rng, dim) for dim in problem.block_dims]
    step, extrapolated = (solver_module._generalized_step,
                          solver_module._extrapolated)
    last, factors = [], []

    def recording(*args):
        values, coords = step(*args)
        last[:] = [values.copy()]
        return values, coords

    def solve(ulps):
        # the trial's own coordinates, scored as the start's value moved
        # by ``ulps`` ulps of |g| in the mode's direction
        def faked(problem, before, after, steps):
            factors.append(float(steps[0]))
            trial, _ = extrapolated(problem, before, after, steps)
            gain = ulps * np.spacing(np.abs(last[0]))
            return trial, last[0] + (gain if mode == "max" else -gain)

        factors.clear()
        monkeypatch.setattr(solver_module, "_extrapolated", faked)
        return sweep_solve(problem, init, mode=mode)

    monkeypatch.setattr(solver_module, "_generalized_step", recording)
    never = solve(np.nan)
    assert len(factors) >= 2 and set(factors) == {solver_module.LINE_STEP}
    below = solve(solver_module.LINE_GAIN_ULPS / 2)
    assert set(factors) == {solver_module.LINE_STEP}
    assert (below.value, below.sweeps) == (never.value, never.sweeps)
    assert all(np.array_equal(a, b) for a, b in zip(below.party_vectors,
                                                    never.party_vectors))
    solve(4 * solver_module.LINE_GAIN_ULPS)
    assert max(factors) > solver_module.LINE_STEP


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
    # size, real parts first, at sizes around the buffer's piece
    piece = solver_module._DRAW_PIECE
    for size in (1, 7, (9, 100), piece - 1, piece, piece + 1,
                 (3 * piece + 7,), (7, piece + 1)):
        rng = np.random.default_rng(4)
        re, im = rng.standard_normal(size), rng.standard_normal(size)
        want = (re + 1j * im) / np.sqrt(2.0)
        got = _crandn(np.random.default_rng(4), size)
        assert got.shape == want.shape and np.array_equal(got, want)
        # scale 1 is the unscaled draw bit for bit; another scale takes
        # the same stream, its one multiply rounding within a few ulps
        assert np.array_equal(_crandn(np.random.default_rng(4), size, 1.0),
                              got)
        scaled = _crandn(np.random.default_rng(4), size, 0.03)
        assert scaled.shape == want.shape
        assert np.allclose(scaled, 0.03 * want, rtol=1e-15, atol=0.0)


# problems whose largest draw holds at least 1 MiB: 625 or 343 modes a
# party at 256 samples a chunk
_LARGE_DRAWS = [(stats, parts, d) for stats in (Statistics.DISTINGUISHABLE,
                                                Statistics.BOSON)
                for parts, d in (((4,), 5), ((3, 1), 7))]


def _oracle_problem(rng, stats, parts, d):
    partition = Partition(parts)
    space = SpaceConfig(d, partition.n)
    return SevalueProblem(_random_observable(rng, "low-rank", space), stats,
                          partition, space)


def _recorded_draws(monkeypatch):
    """Record, for every _crandn call, whether it ran on the main thread
    and its scale with a copy of its draw, and every thread started."""
    draw, start = solver_module._crandn, threading.Thread.start
    on_main, draws, started = [], [], []

    def recording(rng, size, scale=1.0):
        on_main.append(threading.current_thread() is threading.main_thread())
        out = draw(rng, size, scale)
        draws.append((scale, out.copy()))
        return out

    def starting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(solver_module, "_crandn", recording)
    monkeypatch.setattr(threading.Thread, "start", starting)
    return on_main, draws, started


@pytest.mark.parametrize("stats,parts,d", _LARGE_DRAWS)
def test_prefetched_draws_match_inline_draws(monkeypatch, rng, stats, parts,
                                             d):
    # a call with draws of at least 1 MiB makes every draw on the calling
    # thread and starts no thread; its draws are the stream's consecutive
    # stretches in the loop form's order (a block per party for each
    # explore chunk, unscaled, then one party's block for each
    # refinement chunk, the parties taking turns, scaled by its step), so
    # a repeated call gives the same bound
    problem = _oracle_problem(rng, stats, parts, d)
    on_main, draws, started = _recorded_draws(monkeypatch)
    bound = brute_force_bound(problem, 1300, seed=1)
    assert on_main and all(on_main) and not started
    dims, counts = problem.block_dims, (256, 256, 138)
    shapes = ([(dim, count) for count in counts for dim in dims]
              + [(dims[i % len(dims)], count)
                 for i, count in enumerate(counts)])
    assert [block.shape for _, block in draws] == shapes
    explore = 3 * len(dims)
    assert [scale for scale, _ in draws[:explore]] == [1.0] * explore
    assert all(0.0 < scale < 1.0 for scale, _ in draws[explore:])
    stream = np.random.default_rng([1, 11])
    for shape, (scale, block) in zip(shapes, draws):
        assert np.array_equal(block, _crandn(stream, shape, scale))
    assert brute_force_bound(problem, 1300, seed=1) == bound
    assert all(on_main) and not started


def test_prefetched_oracle_matches_reference(rng):
    problem = _oracle_problem(rng, Statistics.BOSON, (3, 1), 7)
    for samples in (1, 3, 700):
        want = reference_brute_force_bound(problem, samples, seed=2)
        got = brute_force_bound(problem, samples, seed=2)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_small_oracle_draws_inline(monkeypatch, rng):
    # every draw runs on the calling thread, and no thread is started
    on_main, _draws, started = _recorded_draws(monkeypatch)
    brute_force_bound(_oracle_problem(rng, Statistics.BOSON, (2, 2), 3),
                      600, seed=0)
    assert on_main and all(on_main) and not started


def test_no_draw_thread_outlives_the_oracle(monkeypatch, rng):
    threads = threading.active_count()
    brute_force_bound(_oracle_problem(rng, Statistics.BOSON, (4,), 5), 600)
    assert threading.active_count() == threads
    # an empty sector (six fermions in three modes, 729-mode draws)
    # raises after the explore chunks
    space = SpaceConfig(3, 6)
    empty = SevalueProblem(_random_observable(rng, "low-rank", space),
                           Statistics.FERMION, Partition((6,)), space)
    with pytest.raises(ZeroProjectionError):
        brute_force_bound(empty, 600)
    assert threading.active_count() == threads
    # a draw that fails fails the call with that exception
    failure = RuntimeError("draw failed")

    def failing(*args, **kwargs):
        raise failure

    monkeypatch.setattr(solver_module, "_crandn", failing)
    with pytest.raises(RuntimeError) as raised:
        brute_force_bound(_oracle_problem(rng, Statistics.BOSON, (4,), 5), 600)
    assert raised.value is failure
    assert threading.active_count() == threads


@pytest.mark.parametrize("stats", list(Statistics))
def test_oracle_holds_one_block(rng, stats):
    # a K=1 call at N=4, d=6 draws 1296-mode blocks of 5.06 MiB at 256
    # samples a chunk; one block is alive at a time, so the traced peak
    # stays under one block and the quotient's arrays
    problem = _oracle_problem(rng, stats, (4,), 6)
    problem.sector, problem.sector_terms    # built before tracing starts
    block = 16 * 6 ** 4 * solver_module._ORACLE_CHUNK
    tracemalloc.start()
    try:
        brute_force_bound(problem, 2048, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * block


@pytest.mark.parametrize("stats,parts,d", [(Statistics.BOSON, (4,), 5),
                                           (Statistics.FERMION, (2, 1), 6)])
def test_oracle_scores_each_chunk_once(monkeypatch, rng, stats, parts, d):
    # 1300 samples are six chunks (256, 256 and 138 samples to explore
    # and to refine), and each is scored by one S^H gather: a chunk's
    # best sample that beats the incumbent keeps the quotient the chunk
    # computed, with no second scoring of its unit product vector
    problem = _oracle_problem(rng, stats, parts, d)
    problem.sector_terms    # its S^H X gather is made before counting
    adjoint, calls = SectorIsometry.adjoint, []

    def counting(self, x):
        calls.append(x.shape)
        return adjoint(self, x)

    monkeypatch.setattr(SectorIsometry, "adjoint", counting)
    brute_force_bound(problem, 1300, seed=1)
    assert [shape[1] for shape in calls] == [256, 256, 138] * 2


def test_draws_match_inline_draws_at_every_block_size():
    # consecutive draws of blocks above and below the buffer's piece,
    # and of single entries, read the stream in order: each is the
    # stream's next stretch, real parts first
    piece = solver_module._DRAW_PIECE
    shapes = [(256, 256), (3, 1), (1, 1), (200, 256), (100, 7),
              (piece, 1), (piece + 1, 1), (256, 64), (1, 5)]
    rng, stream = np.random.default_rng(6), np.random.default_rng(6)
    for shape in shapes:
        re, im = stream.standard_normal(shape), stream.standard_normal(shape)
        assert np.array_equal(_crandn(rng, shape),
                              (re + 1j * im) / np.sqrt(2.0))


@pytest.mark.parametrize("phase", ["explore", "refine"])
def test_draw_failure_fails_the_oracle(monkeypatch, rng, phase):
    # a draw that fails in the second explore chunk or the second
    # refinement chunk (600 samples of one party: two chunks each) fails
    # the call with that exception, after the draws before it were used,
    # and every draw ran on the calling thread
    problem = _oracle_problem(rng, Statistics.BOSON, (4,), 5)
    threads = threading.active_count()
    failure = RuntimeError("draw failed")
    draw = solver_module._crandn
    fail_at = {"explore": 2, "refine": 4}[phase]
    on_main = []

    def failing(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        if len(on_main) == fail_at:
            raise failure
        return draw(*args, **kwargs)

    monkeypatch.setattr(solver_module, "_crandn", failing)
    with pytest.raises(RuntimeError) as raised:
        brute_force_bound(problem, 600)
    assert raised.value is failure
    assert len(on_main) == fail_at and all(on_main)
    assert threading.active_count() == threads


@pytest.mark.parametrize("stats,parts", [(Statistics.BOSON, (4,)),
                                         (Statistics.DISTINGUISHABLE, (2, 2))])
def test_oracle_chunk_fits_the_batch_budget(monkeypatch, rng, stats, parts):
    # with room for 64 product vectors of 4096 modes, the chunks hold 64
    # samples, and the traced peak stays within 1.5 budgets: one product
    # block and the quotient's arrays
    problem = _oracle_problem(rng, stats, parts, 8)
    problem.sector, problem.sector_terms
    budget = 16 * 8 ** 4 * 64
    monkeypatch.setattr(solver_module, "BATCH_BYTES", budget)
    draw = solver_module._crandn
    counts = []

    def recording(*args, **kwargs):
        out = draw(*args, **kwargs)
        if np.iscomplexobj(out):
            counts.append(out.shape[1])
        return out

    monkeypatch.setattr(solver_module, "_crandn", recording)
    tracemalloc.start()
    try:
        brute_force_bound(problem, 600, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(counts) == 64
    assert peak <= 1.5 * budget


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


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("parts", [(4,), (3, 1), (2, 2), (2, 1, 1),
                                   (1, 1, 1, 1)])
@pytest.mark.parametrize("kind", ["dense", "low-rank"])
def test_brute_force_matches_reference_on_four_slots(rng, stats, parts, kind):
    # four slots, one to four parties, every refinement scored from its
    # party blocks, the perturbed party's formed in place: one
    # 81-mode party, 27 and 3 or 9 and 9 modes, 9, 3 and 3, or four of 3;
    # fermions at d=4, as four fermions have no sector in three modes
    partition = Partition(parts)
    space = SpaceConfig(4 if stats is Statistics.FERMION else 3, 4)
    problem = SevalueProblem(_random_observable(rng, kind, space), stats,
                             partition, space)
    for samples in (1, 3, 257, 700):
        for seed in (0, 1):
            want = reference_brute_force_bound(problem, samples, seed)
            got = brute_force_bound(problem, samples, seed)
            assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("parts", [(2,), (3,), (1, 1), (2, 1), (1, 1, 1)])
@pytest.mark.parametrize("kind", ["dense", "low-rank"])
@settings(max_examples=5, deadline=None)
@given(d=st.integers(2, 3), samples=st.integers(1, 600),
       seed=st.integers(0, 2 ** 32 - 1))
def test_brute_force_never_exceeds_the_sector_maximum(stats, parts, kind, d,
                                                     samples, seed):
    # the bound is the quotient of a product vector, so it never exceeds
    # lambda_max of S^H L S, however the chunks were scored
    rng = np.random.default_rng(seed)
    space = SpaceConfig(d, sum(parts))
    if not subspace_dimension(stats, space):
        return      # fermions in fewer modes than particles: no sector
    problem = SevalueProblem(_random_observable(rng, kind, space), stats,
                             Partition(parts), space)
    coeffs, vectors = problem.sector_terms
    eigs = np.linalg.eigvalsh((vectors * coeffs) @ vectors.conj().T)
    bound = brute_force_bound(problem, samples, seed % 1000)
    assert bound <= eigs[-1] + 1e-12 * np.abs(eigs).max()


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


@pytest.mark.parametrize("bad", [True, 1.5, -1, "3", None])
def test_seed_is_checked_like_the_counts(rng, bad):
    # a seed is an integer (not a bool) of at least 0 for the solver, the
    # oracle and the numeric witness builders, which raise ValueError
    # naming it; a numpy integer is the int it holds
    space = SpaceConfig(3, 2)
    problem = SevalueProblem(random_hermitian(rng, 9), Statistics.BOSON,
                             Partition((1, 1)), space)
    with pytest.raises(ValueError, match="seed"):
        solve_sup_g(problem, starts=2, seed=bad)
    with pytest.raises(ValueError, match="seed"):
        brute_force_bound(problem, 10, seed=bad)
    with pytest.raises(ValueError, match="seed"):
        build_witness(problem, "numeric", starts=2, seed=bad)
    with pytest.raises(ValueError, match="seed"):
        build_k_witness(problem.operator, problem.stats, space, 2,
                        starts=2, seed=bad)
    result = solve_sup_g(problem, starts=2, seed=np.int64(3))
    assert type(result.seed) is int and result.seed == 3
    same = solve_sup_g(problem, starts=2, seed=3)
    assert [s.value for s in result.solutions] \
        == [s.value for s in same.solutions]
    assert all(np.array_equal(a, b) for a, b in zip(
        result.best.party_vectors, same.best.party_vectors))
    assert brute_force_bound(problem, 10, seed=np.int64(3)) \
        == brute_force_bound(problem, 10, seed=3)


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
        _sweep(problem, [iter([init])], 10, mode="max", **tols)
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
                                    psi.space)
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
    new_op = transformed_observable(observable, lam1, lam2, unitary, space)
    assert isinstance(new_op, np.ndarray) == (kind == "dense")
    dense = observable if isinstance(observable, np.ndarray) \
        else observable.to_matrix()
    scale = max(1.0, abs(lam1)) * max(1.0, np.linalg.norm(dense, 2)) \
        + abs(lam2)
    _, overlap = verify_second_form(
        moved, SevalueProblem(new_op, stats, partition, space))
    assert overlap <= 1e-9 * scale
    new_dense = new_op if isinstance(new_op, np.ndarray) \
        else new_op.to_matrix()
    pb = project_full_sum(stats, reduce(np.kron, moved.party_vectors), space)
    quotient = (pb.conj() @ new_dense @ pb).real / (pb.conj() @ pb).real
    assert moved.value == lam1 * sol.value + lam2
    assert abs(quotient - moved.value) <= 1e-9 * scale


@pytest.mark.parametrize("stats, d, n", [
    *((stats, d, n) for stats in Statistics for d, n in ((3, 2), (4, 3))),
    (Statistics.BOSON, 9, 3)])
def test_dense_transformed_observable_is_the_kronecker_form(rng, stats, d, n):
    # rotating the rows and then the columns slot by slot gives
    # (U^H)^(x N) [lambda1 L + lambda2 1] U^(x N), formed here through
    # the Kronecker power as the reference; on each exchange sector that
    # is (U^H)^(x N) [lambda1 L + lambda2 P] U^(x N), as U^(x N) commutes
    # with P; the route has no cap of its own, so d=9, N=3 (729 modes)
    # runs too, and it needs a Hermitian L
    space = SpaceConfig(d, n)
    observable = random_hermitian(rng, space.total_dim)
    unitary = random_unitary(rng, d)
    got = transformed_observable(observable, 1.3, -0.7, unitary, space)
    full = reduce(np.kron, [unitary.conj().T] * n)
    want = full @ (1.3 * observable - 0.7 * np.eye(space.total_dim)) \
        @ full.conj().T
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    proj = project_full_sum(stats, np.eye(space.total_dim), space)
    sector = proj @ full @ (1.3 * observable - 0.7 * proj) \
        @ full.conj().T @ proj
    assert np.abs(proj @ got @ proj - sector).max() \
        <= 1e-12 * np.abs(want).max()
    with pytest.raises(HermiticityError):
        transformed_observable(crandn(rng, space.total_dim, space.total_dim),
                               1.0, 0.0, unitary, space)


def test_transformed_observable_refuses_a_dense_operator_of_another_shape(
        rng):
    # a 1 x 1 or a 5 x 5 matrix on a 4-mode space would broadcast or
    # mis-reshape; only a (d^N, d^N) matrix is the operator
    space = SpaceConfig(2, 2)
    for operator in (np.eye(1), random_hermitian(rng, 5)):
        with pytest.raises(ValueError, match="operator shape"):
            transformed_observable(operator, 1.0, 0.5, np.eye(2), space)


def test_transformed_observable_refuses_a_low_rank_operator_of_another_space(
        rng):
    # a two-particle observable on 9 amplitudes was re-read as a
    # one-particle one of 9 modes, and kept its tag
    psi = StateVector(SpaceConfig(3, 2), crandn(rng, 9))
    observable = rank_one_observable(psi, Statistics.DISTINGUISHABLE)
    with pytest.raises(ValueError, match="operator space mismatch"):
        transformed_observable(observable, 1.0, 0.0, np.eye(9),
                               SpaceConfig(9, 1))


_OFFSET_GRID = [(stats, d, parts)
                for n, d_max in ((2, 4), (3, 3)) for d in range(2, d_max + 1)
                for stats in Statistics
                if subspace_dimension(stats, SpaceConfig(d, n))
                for parts in (p.parts for p in all_partitions(n))]


@pytest.mark.parametrize("stats, d, parts", _OFFSET_GRID)
def test_offset_route_equals_the_dense_route(stats, d, parts):
    # lambda1 L + lambda2 P of a low-rank L is L's rotated terms plus the
    # offset lambda2 1; the dense route forms the d^N x d^N matrix.  Both
    # give the same G in either mode, the same oracle bound and the same
    # witness matrix, lambda1 of either sign
    space, partition = SpaceConfig(d, sum(parts)), Partition(parts)
    rng = np.random.default_rng([d, *parts, list(Statistics).index(stats)])
    observable = _random_observable(rng, "low-rank", space)
    unitary = random_unitary(rng, d)
    for sign in (1.0, -1.0):
        lam1 = sign * float(rng.uniform(0.5, 2.0))
        lam2 = float(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0]))
        low, dense = (SevalueProblem(transformed_observable(
            op, lam1, lam2, unitary, space), stats, partition, space)
            for op in (observable, observable.to_matrix()))
        assert isinstance(low.operator, LowRankObservable)
        assert low.operator.offset == lam2
        # both routes add lambda2 1, so they are one operator everywhere
        scale = max(1.0, np.abs(dense.operator).max())
        assert np.abs(low.operator.to_matrix() - dense.operator).max() \
            <= 1e-12 * scale
        for form, mode in ((WitnessForm.UPPER, "max"),
                           (WitnessForm.LOWER, "min")):
            values = [solve_sup_g(p, starts=8, seed=3, mode=mode).value
                      for p in (low, dense)]
            assert abs(values[0] - values[1]) <= 1e-10
            matrices = [witness_matrix(Witness(
                observable=p.operator, stats=stats, space=space,
                k=partition.k, bound=values[0], partition=partition,
                form=form)) for p in (low, dense)]
            # G P - P L P vanishes on a one-dimensional sector, so the
            # scale is that of its parts
            scale = max(abs(values[0]), np.abs(dense.operator).max())
            assert np.abs(matrices[0] - matrices[1]).max() <= 1e-12 * scale
        oracle = [brute_force_bound(p, 400, seed=5) for p in (low, dense)]
        assert abs(oracle[0] - oracle[1]) <= 1e-10
        # on sector states offset 1 reads as lambda2 P: a mixture, its
        # matrix and a pure state give the dense route's expectation
        weights, rows = random_mixture(rng, space, 3, stats)
        mixture = DensityOperator(space, weights=weights, vectors=rows)
        for rho in (mixture, DensityOperator.from_matrix(
                space, mixture.to_matrix())):
            pair = [expectation(rho, p.operator) for p in (low, dense)]
            assert abs(pair[0] - pair[1]) <= 1e-12 * max(1.0, abs(pair[1]))
        pure = rows[0].conj() @ dense.operator @ rows[0]
        assert abs(low.operator.expectation_pure(rows[0]) - pure) \
            <= 1e-12 * max(1.0, abs(pure))


def test_transformed_observable_rotates_each_shared_vector_once():
    # the interference observable names its two vectors twice each; the
    # rotated one keeps one copy per vector, as the constructor does
    space = SpaceConfig(6, 3)
    unitary = random_unitary(np.random.default_rng(0), space.d)
    rotated = transformed_observable(
        interference_observable(space, Statistics.BOSON), 1.0, 0.5, unitary,
        space)
    (_, v, w), (_, w_again, v_again) = rotated.terms
    assert v is v_again and w is w_again and v is not w


@pytest.mark.parametrize("stats, d, n", [
    (stats, d, n) for stats in Statistics
    for d, n in ((3, 1), (2, 2), (3, 2), (2, 3), (3, 3))
    if subspace_dimension(stats, SpaceConfig(d, n))])
@pytest.mark.parametrize("kind", ["dense", "low-rank"])
def test_witness_matrix_is_the_projector_formula(stats, d, n, kind):
    # P(G 1 - L)P, formed without a projector matrix, is G P - P L P with
    # the explicit permutation-sum projector as the reference; P(L - G 1)P
    # in the lower form is its negative
    space = SpaceConfig(d, n)
    rng = np.random.default_rng([d, n, list(Statistics).index(stats)])
    observable = _random_observable(rng, kind, space)
    dense = observable if isinstance(observable, np.ndarray) \
        else observable.to_matrix()
    bound = float(rng.uniform(-1.0, 1.0))
    proj = project_full_sum(stats, np.eye(space.total_dim), space)
    upper = bound * proj - proj @ dense @ proj
    for form, want in ((WitnessForm.UPPER, upper),
                       (WitnessForm.LOWER, -upper)):
        got = witness_matrix(Witness(observable=observable, stats=stats,
                                     space=space, k=2, bound=bound,
                                     form=form))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_matched_inits_give_unitarily_invariant_values(rng):
    psi = _random_sector_state(rng, 4, Statistics.FERMION)
    problem = _rank_one_problem(psi, Statistics.FERMION)
    unitary = random_unitary(rng, 4)
    rotated_op = transformed_observable(problem.operator, 1.0, 0.0, unitary,
                                        psi.space)
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


_BAD_COVARIANCE = {
    "non-unitary": (1.0, 0.0, 2.0 * np.eye(3)),
    "wrong shape": (1.0, 0.0, np.eye(2)),
    "NaN unitary": (1.0, 0.0, np.full((3, 3), np.nan)),
    "one NaN entry": (1.0, 0.0, np.diag([np.nan, 1.0, 1.0])),
    "infinite entry": (1.0, 0.0, np.diag([np.inf, 1.0, 1.0])),
    "NaN lambda1": (np.nan, 0.0, np.eye(3)),
    "infinite lambda1": (-np.inf, 0.0, np.eye(3)),
    "NaN lambda2": (1.0, np.nan, np.eye(3)),
    "infinite lambda2": (1.0, np.inf, np.eye(3)),
}


@pytest.mark.parametrize("case", list(_BAD_COVARIANCE))
def test_transform_solution_rejects_bad_input(rng, case):
    # no NaN or non-unitary input passes: before the shared check, a NaN
    # unitary returned NaN party vectors and lambda1 = NaN a NaN value
    lam1, lam2, unitary = _BAD_COVARIANCE[case]
    psi = _random_sector_state(rng, 3, Statistics.BOSON)
    sol = sweep_solve(_rank_one_problem(psi, Statistics.BOSON),
                      [crandn(rng, 3), crandn(rng, 3)])
    with pytest.raises(ValueError):
        transform_solution(sol, lam1, lam2, unitary)


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("case", list(_BAD_COVARIANCE))
def test_transformed_observable_rejects_bad_input(rng, case, dense):
    # the low-rank and the dense route both refuse what transform_solution
    # refuses: before, 2 I was taken as a unitary and a NaN unitary gave a
    # NaN matrix
    lam1, lam2, unitary = _BAD_COVARIANCE[case]
    psi = _random_sector_state(rng, 3, Statistics.BOSON)
    operator = rank_one_observable(psi, Statistics.BOSON)
    if dense:
        operator = operator.to_matrix()
    with pytest.raises(ValueError):
        transformed_observable(operator, lam1, lam2, unitary, psi.space)


def test_second_form_on_converged_solutions(rng):
    for stats in (Statistics.BOSON, Statistics.FERMION):
        psi = _random_sector_state(rng, 4, stats)
        problem = _rank_one_problem(psi, stats)
        sol = sweep_solve(problem, [crandn(rng, 4), crandn(rng, 4)])
        chi, overlap = verify_second_form(sol, problem)
        assert overlap <= 1e-8
        stays = project_full_sum(stats, chi.amplitudes, chi.space)
        assert np.linalg.norm(stays - chi.amplitudes) < 1e-10


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


@pytest.mark.parametrize("other", [
    dict(stats=Statistics.FERMION),
    dict(partition=Partition((1, 2))),
    dict(space=SpaceConfig(7, 3)),
])
def test_second_form_rejects_a_solution_of_another_problem(rng, other):
    # a boson (2, 1) solution at N=3, d=6 checked against a problem of
    # other statistics, partition or space raises instead of reporting
    # an overlap
    space = SpaceConfig(6, 3)
    problem = SevalueProblem(interference_observable(space, Statistics.BOSON),
                             Statistics.BOSON, Partition((2, 1)), space)
    sol = sweep_solve(problem, [crandn(rng, 36), crandn(rng, 6)])
    fields = {"stats": problem.stats, "partition": problem.partition,
              "space": space, **other}
    observable = interference_observable(fields["space"], fields["stats"])
    with pytest.raises(ValueError, match="another partition"):
        verify_second_form(sol, SevalueProblem(observable, **fields))


def test_second_form_detects_broken_eigenrelation(rng):
    psi = _random_sector_state(rng, 3, Statistics.BOSON)
    problem = _rank_one_problem(psi, Statistics.BOSON)
    sol = sweep_solve(problem, [crandn(rng, 3), crandn(rng, 3)])
    broken = dataclasses.replace(sol, value=sol.value + 0.1)
    _, overlap = verify_second_form(broken, problem)
    assert overlap > 1e-3
