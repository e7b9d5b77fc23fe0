import math
import tracemalloc

import numpy as np
import pytest

from sepwit import (DensityOperator, GhzFamily, Partition, SevalueProblem,
                    SpaceConfig, Statistics, appendix_b_states, build_witness,
                    dephased_ghz, detect, detection_threshold, expectation,
                    fig1_bound, fig1_state_family, ghz_expectation, ghz_state,
                    interference_observable, noisy_state, numerical_rank,
                    partial_trace_first, project, rank_one_observable,
                    schmidt, sector_observable, sinc, slater_fermion,
                    subspace_dimension)
from sepwit.errors import ZeroProjectionError

from conftest import crandn


# ---------------------------------------------------------------------------
# noisy states and thresholds

def test_noisy_state_extremes(rng):
    psi = fig1_state_family(3, Statistics.BOSON)
    pure = noisy_state(psi, Statistics.BOSON, 1.0)
    assert len(pure.weights) == 1
    assert abs(pure.trace() - 1.0) < 1e-12
    mixed = noisy_state(psi, Statistics.BOSON, 0.0)
    assert len(mixed.weights) == subspace_dimension(Statistics.BOSON,
                                                    psi.space)
    assert abs(mixed.trace() - 1.0) < 1e-10


def test_noisy_state_rejects_bad_noise_and_zero_projection(rng):
    psi = fig1_state_family(3, Statistics.BOSON)
    with pytest.raises(ValueError):
        noisy_state(psi, Statistics.BOSON, 1.5)
    space = SpaceConfig(3, 2)
    from sepwit import StateVector, product_vector
    a = crandn(rng, 3)
    doubled = product_vector(space, [a, a])
    with pytest.raises(ZeroProjectionError):
        noisy_state(doubled, Statistics.FERMION, 0.5)


def test_noisy_state_hands_its_block_over():
    # the boson N=4, d=8 noisy state of (v + w)/sqrt 2, v and w the
    # interference pair, holds 331 rows of 4096 amplitudes; the operator
    # adopts the block noisy_state builds, so the traced peak stays near
    # one block (2.1 blocks where the operator copied it)
    from sepwit import StateVector
    from sepwit.sectors import sector_isometry
    space, stats = SpaceConfig(8, 4), Statistics.BOSON
    (_, v, w), _ = interference_observable(space, stats).terms
    psi = StateVector(space, (v + w) / np.sqrt(2.0))
    sector_isometry(stats, space)    # built before tracing
    tracemalloc.start()
    try:
        rho = noisy_state(psi, stats, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.vectors.shape == (331, 4096)
    assert peak <= 1.3 * rho.vectors.nbytes


def test_density_operator_adopts_only_a_frozen_block_of_unit_rows(rng):
    # a read-only complex128 block that owns its data and has unit rows
    # is kept as it is; a writable block, a view or a block with a row
    # off unit norm is copied (and normalised), the caller's untouched
    space = SpaceConfig(3, 2)
    rows = crandn(rng, 2, 9)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    frozen = rows.copy()
    frozen.setflags(write=False)
    rho = DensityOperator(space, weights=[0.5, 0.5], vectors=frozen)
    assert rho.vectors is frozen
    long = 2.0 * rows
    long.setflags(write=False)
    for block in (rows, frozen[:], long):
        rho = DensityOperator(space, weights=[0.5, 0.5], vectors=block)
        assert rho.vectors is not block
        assert not np.shares_memory(rho.vectors, block)
        assert np.abs(rho.vectors - rows).max() <= 1e-15
    assert np.array_equal(long, 2.0 * rows)


def test_noisy_state_boundary_expectation():
    # distinguishable balanced pair at noise 1/3 sits exactly on the bound
    psi = fig1_state_family(2, Statistics.DISTINGUISHABLE)
    observable = sector_observable(rank_one_observable(
        psi, Statistics.DISTINGUISHABLE), Statistics.DISTINGUISHABLE, psi.space)
    rho = noisy_state(psi, Statistics.DISTINGUISHABLE, 1.0 / 3.0)
    assert abs(expectation(rho, observable) - 0.5) < 1e-12


def test_fig1_state_family_shapes():
    dist = fig1_state_family(3, Statistics.DISTINGUISHABLE)
    lams = schmidt(dist).coefficients
    assert np.allclose(lams, [1 / math.sqrt(3)] * 3)

    fermion4 = fig1_state_family(4, Statistics.FERMION)
    kappas = slater_fermion(fermion4).coefficients
    assert np.allclose(kappas, [0.5, 0.5])

    fermion5 = fig1_state_family(5, Statistics.FERMION)
    kappas5 = slater_fermion(fermion5).coefficients
    assert np.allclose(kappas5, [0.5, 0.5])   # unused fifth mode


def test_detection_threshold_closed_forms():
    assert abs(detection_threshold(2, 1) - 1.0 / 3.0) < 1e-12
    for d in range(2, 9):
        assert abs(detection_threshold(d, 1) - 1.0 / (d + 1)) < 1e-12
        expected_boson = 2.0 * d / ((d + 2) * (d - 1))
        assert abs(detection_threshold(d, Statistics.BOSON)
                   - min(expected_boson, 1.0)) < 1e-12
    assert abs(detection_threshold(3, Statistics.BOSON) - 0.6) < 1e-12
    assert detection_threshold(2, Statistics.FERMION) == 1.0
    assert detection_threshold(3, Statistics.FERMION) == 1.0
    assert abs(detection_threshold(4, Statistics.FERMION) - 0.4) < 1e-12


@pytest.mark.parametrize("selector", [2.0, True, "1", None, 0, 4])
def test_fig1_selector_is_statistics_or_a_schmidt_level(selector):
    # a float or a bool is neither a Statistics member nor a level
    for call in (fig1_bound, detection_threshold):
        with pytest.raises(ValueError):
            call(3, selector)
    assert fig1_bound(3, np.int64(2)) == (2.0 / 3.0, 9)


def test_fermion_threshold_even_odd_pattern():
    thresholds = {d: detection_threshold(d, Statistics.FERMION)
                  for d in range(4, 9)}
    assert thresholds[5] > thresholds[4]
    assert thresholds[7] > thresholds[6]
    assert thresholds[6] < thresholds[4]
    assert thresholds[8] < thresholds[6]


def test_threshold_matches_grid_scan():
    # detect() flips exactly at the closed-form noise threshold
    step = 1e-3
    for d, selector, stats in ((2, 1, Statistics.DISTINGUISHABLE),
                               (3, Statistics.BOSON, Statistics.BOSON),
                               (4, Statistics.FERMION, Statistics.FERMION)):
        psi = fig1_state_family(d, stats)
        bound, _ = fig1_bound(d, selector)
        problem = SevalueProblem(rank_one_observable(psi, stats), stats,
                                 Partition((1, 1)), psi.space)
        witness = build_witness(problem, bound_source="analytic")
        p_star = detection_threshold(d, selector)
        grid = np.arange(0.0, 1.0 + step / 2, step)
        fired = [p for p in grid
                 if detect(noisy_state(psi, stats, float(p)), witness).entangled]
        assert fired, "witness never fired on the grid"
        assert abs(fired[0] - p_star) <= step + 1e-12


# ---------------------------------------------------------------------------
# partial-separability example

def test_appendix_states_are_orthogonal_across_sectors():
    plus, minus = appendix_b_states()
    assert abs(np.vdot(plus.amplitudes, minus.amplitudes)) < 1e-14


def test_appendix_states_expansion():
    plus, minus = appendix_b_states()
    for state, sign in ((plus, 1.0), (minus, -1.0)):
        nonzero = np.nonzero(state.amplitudes)[0]
        assert nonzero.size == 12
        values = state.amplitudes[nonzero]
        assert np.allclose(np.abs(values), 1.0 / 6.0)
    # a couple of signed entries of the antisymmetric copy
    space = minus.space
    from sepwit import flatten_index
    assert abs(minus.amplitudes[flatten_index((0, 1, 2), space)] - 1 / 6) < 1e-14
    assert abs(minus.amplitudes[flatten_index((0, 2, 1), space)] + 1 / 6) < 1e-14


def test_appendix_states_reduced_rank():
    for state in appendix_b_states():
        rho = DensityOperator.from_pure(state.normalized())
        assert numerical_rank(partial_trace_first(rho)) == 5


# ---------------------------------------------------------------------------
# GHZ-type family and dephasing

def test_ghz_state_zero_amplitude_is_single_term():
    state = ghz_state(3, 0.0, Statistics.FERMION, n_max=2)
    family = GhzFamily(3, 0.0, Statistics.FERMION, 2)
    term = family.term_vector(0)
    assert abs(abs(np.vdot(state.amplitudes, term.amplitudes)) - 1.0) < 1e-12


def test_ghz_state_truncation_overlap():
    short = ghz_state(2, 0.5, Statistics.BOSON, n_max=0)
    long = ghz_state(2, 0.5, Statistics.BOSON, n_max=8)
    # embed the short state on the larger mode range
    overlap = 0.0
    fam_s = GhzFamily(2, 0.5, Statistics.BOSON, 0)
    fam_l = GhzFamily(2, 0.5, Statistics.BOSON, 8)
    short_terms = [np.vdot(fam_s.term_vector(0).amplitudes, short.amplitudes)]
    long_terms = [np.vdot(fam_l.term_vector(n).amplitudes, long.amplitudes)
                  for n in range(9)]
    overlap = abs(short_terms[0] * np.conj(long_terms[0]))
    assert overlap >= 1.0 - 0.25


def test_ghz_state_lives_in_sector():
    state = ghz_state(3, 0.4, Statistics.FERMION, n_max=2)
    projected = project(Statistics.FERMION, state)
    assert np.linalg.norm(projected.amplitudes - state.amplitudes) < 1e-12
    with pytest.raises(ValueError):
        ghz_state(2, 1.0, Statistics.BOSON)


def test_ghz_family_tail_bound():
    family = GhzFamily(2, 0.5, Statistics.BOSON, 3)
    assert abs(family.tail_bound - 0.5 ** 8) < 1e-15
    assert family.space.d == 2 * 4
    # NaN compares false against 1, so it is rejected by "not < 1"
    for q in (1.0, -1.5j, np.nan, complex(np.nan, 0.0), np.inf):
        with pytest.raises(ValueError, match="must be < 1"):
            GhzFamily(3, q, Statistics.BOSON, 2)


def test_dephased_ghz_limits():
    family = GhzFamily(2, 1 / math.sqrt(3), Statistics.BOSON, 6)
    pure = dephased_ghz(family, 0.0)
    assert len(pure.weights) == 1          # no dephasing: still pure
    full = dephased_ghz(family, math.pi)
    # full dephasing: diagonal in the product terms, hence separable
    kernel_weights = sorted(full.weights)
    r = abs(family.q)
    expected = sorted((1 - r * r) * r ** (2 * n) for n in range(7))
    assert np.allclose(kernel_weights, expected, atol=1e-12)


def test_dephased_ghz_trace_minus_tail():
    family = GhzFamily(3, 0.6, Statistics.FERMION, 5)
    rho = dephased_ghz(family, 0.7)
    assert abs(rho.trace() - (1.0 - family.tail_bound)) < 1e-12


def test_ghz_expectation_closed_form():
    value = ghz_expectation(1 / math.sqrt(3), 0.0)
    assert abs(value - 4.0 / (3.0 * math.sqrt(3.0))) < 1e-15
    assert abs(ghz_expectation(0.5, math.pi)) < 1e-15
    assert ghz_expectation(0.0, 0.3) == 0.0
    assert sinc(0.0) == 1.0


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("n", [2, 3])
def test_dephased_expectation_matches_closed_form(stats, n):
    for r in (0.3, 1 / math.sqrt(3), 0.8):
        family = GhzFamily(n, r, stats, 8)
        observable = sector_observable(interference_observable(
            family.space, stats), stats, family.space)
        for delta in (0.0, math.pi / 4, math.pi / 2, math.pi):
            rho = dephased_ghz(family, delta)
            numeric = expectation(rho, observable)
            closed = ghz_expectation(r, delta)
            assert abs(numeric - closed) <= 2 * family.tail_bound + 1e-12


def test_fig2_detection_logic():
    # at no dephasing the balanced-amplitude state clears every
    # K-separability line with K >= 2 but never the trivial K = 1 line
    r = 1 / math.sqrt(3)
    signal = ghz_expectation(r, 0.0)
    for k in range(2, 6):
        assert signal > 0.5 ** (k - 1) + 1e-9
    assert signal < 1.0
    # numeric cross-check at three particles
    family = GhzFamily(3, r, Statistics.BOSON, 8)
    observable = sector_observable(interference_observable(
        family.space, Statistics.BOSON), Statistics.BOSON, family.space)
    numeric = expectation(dephased_ghz(family, 0.0), observable)
    assert abs(numeric - signal) <= 2 * family.tail_bound
    # full dephasing is never detected
    assert ghz_expectation(r, math.pi) < 1e-15
