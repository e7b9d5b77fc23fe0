import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sepwit import (DensityOperator, LowRankObservable, Partition,
                    SevalueProblem, SpaceConfig, StateVector, Statistics,
                    Witness, WitnessForm, basis_product_vector,
                    brute_force_bound, build_k_witness,
                    build_witness, detect, expectation, fig1_state_family,
                    interference_observable, noisy_state, partitions_into,
                    project, rank_one_observable, schmidt_number_bound,
                    sector_deviation, solve_sup_g, subspace_dimension,
                    sweep_solve, transformed_observable, witness_matrix)
from sepwit.errors import ConvergenceError, SectorError

from conftest import (crandn, project_full_sum, random_hermitian,
                      random_mixture, random_unitary)


def _balanced_boson_d3():
    return fig1_state_family(3, Statistics.BOSON)


def test_build_witness_fermion_minimal_pair():
    # the antisymmetric sector of two modes is one-dimensional, so the
    # witness operator collapses to zero
    space = SpaceConfig(2, 2)
    amps = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    psi = StateVector(space, amps)
    problem = SevalueProblem(rank_one_observable(psi, Statistics.FERMION),
                             Statistics.FERMION, Partition((1, 1)), space)
    witness = build_witness(problem, bound_source="analytic")
    assert abs(witness.bound - 1.0) < 1e-12
    assert np.abs(witness_matrix(witness)).max() < 1e-12


def test_build_witness_interference_bound():
    space = SpaceConfig(4, 2)
    observable = interference_observable(space, Statistics.BOSON)
    problem = SevalueProblem(observable, Statistics.BOSON, Partition((1, 1)),
                             space)
    witness = build_witness(problem, bound_source="analytic")
    assert abs(witness.bound - 0.5) < 1e-12


def test_build_witness_balanced_boson():
    psi = _balanced_boson_d3()
    problem = SevalueProblem(rank_one_observable(psi, Statistics.BOSON),
                             Statistics.BOSON, Partition((1, 1)), psi.space)
    for source in ("analytic", "numeric"):
        witness = build_witness(problem, bound_source=source, starts=16,
                                seed=3)
        assert abs(witness.bound - 2.0 / 3.0) < 1e-8
        assert witness.bound_source == source


def test_build_witness_oracle_is_lower_bound():
    # the sampling oracle is no witness source, only a lower bound
    psi = _balanced_boson_d3()
    problem = SevalueProblem(rank_one_observable(psi, Statistics.BOSON),
                             Statistics.BOSON, Partition((1, 1)), psi.space)
    assert brute_force_bound(problem, samples=20_000, seed=3) \
        <= 2.0 / 3.0 + 1e-9
    with pytest.raises(ValueError, match="unknown bound source"):
        build_witness(problem, bound_source="oracle")


def test_analytic_bound_refused_for_equal_even_fermion_blocks():
    space = SpaceConfig(8, 4)
    observable = interference_observable(space, Statistics.FERMION)
    problem = SevalueProblem(observable, Statistics.FERMION,
                             Partition((2, 2)), space)
    with pytest.raises(ValueError):
        build_witness(problem, bound_source="analytic")


@pytest.mark.parametrize("bad", [True, 1.5, -1, "3", None])
def test_analytic_source_checks_counts(bad):
    # the analytic source runs no solver, yet its starts and seed are
    # checked as the numeric source's are
    space = SpaceConfig(6, 3)
    observable = interference_observable(space, Statistics.BOSON)
    problem = SevalueProblem(observable, Statistics.BOSON, Partition((2, 1)),
                             space)
    for name in ("starts", "seed"):
        with pytest.raises(ValueError, match=name):
            build_witness(problem, "analytic", **{name: bad})
        with pytest.raises(ValueError, match=name):
            build_k_witness(observable, Statistics.BOSON, space, 2,
                            "analytic", **{name: bad})


@pytest.mark.parametrize("stats", list(Statistics))
def test_lower_form_analytic_witness_verdicts(stats):
    # the interference observable |v><w| + |w><v| has separable minimum
    # -1/2 on (1, 1); (v - w)/sqrt 2 reads -1 below it, (v + w)/sqrt 2
    # reads +1
    space = SpaceConfig(4, 2)
    observable = interference_observable(space, stats)
    problem = SevalueProblem(observable, stats, Partition((1, 1)), space)
    witness = build_witness(problem, "analytic", form=WitnessForm.LOWER)
    assert abs(witness.bound + 0.5) < 1e-12
    (_, v, w), _ = observable.terms
    for sign, value, verdict in ((-1.0, -1.0, "entangled"),
                                 (1.0, 1.0, "inconclusive")):
        psi = StateVector(space, (v + sign * w) / np.sqrt(2.0))
        result = detect(DensityOperator.from_pure(psi), witness)
        assert abs(result.expectation - value) < 1e-12
        assert result.verdict == verdict


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_numeric_boson_corner_projector_bound_is_one_or_refused(d, seed):
    # |00><00| for bosons on (1, 1) reaches its supremum 1 at b1 = b2 =
    # |0>, where the maximum is quartic: with delta the amplitude off
    # |0>, 1 - g ~ delta^4 while the residual ~ 2 delta^3, so starts may
    # settle in value but stay above the residual tolerance.  The route
    # either reports a bound within 1e-6 of 1 or builds no witness
    space = SpaceConfig(d, 2)
    matrix = np.zeros((space.total_dim,) * 2, dtype=complex)
    matrix[0, 0] = 1.0
    problem = SevalueProblem(matrix, Statistics.BOSON, Partition((1, 1)),
                             space)
    try:
        witness = build_witness(problem, "numeric", starts=4, seed=seed)
    except ConvergenceError:
        return
    assert abs(witness.bound - 1.0) <= 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_numeric_fermion_three_two_bound_is_near_one_or_refused(seed):
    # fermion interference on (3, 2) at N=5, d=10 (party sectors of 120
    # and 45 dimensions, blocks of 1000 and 100 modes): the supremum seems
    # not to be attained, so the numeric route either reports a bound of
    # at least 0.99 or builds no witness, never the balanced family's 1/2
    space = SpaceConfig(10, 5)
    problem = SevalueProblem(interference_observable(space,
                                                     Statistics.FERMION),
                             Statistics.FERMION, Partition((3, 2)), space)
    try:
        witness = build_witness(problem, "numeric", starts=4, seed=seed,
                                max_sweeps=60)
    except ConvergenceError:
        return
    assert witness.bound >= 0.99


def test_analytic_bound_refused_for_two_fermion_blocks_above_one():
    # the balanced-family value 1/2 is proven only for fermion partitions
    # with at most one block of size >= 2; on (3, 2) twenty sweeps from
    # one random start already pass 0.9
    space = SpaceConfig(10, 5)
    observable = interference_observable(space, Statistics.FERMION)
    for parts in ((3, 2), (2, 2, 1)):
        problem = SevalueProblem(observable, Statistics.FERMION,
                                 Partition(parts), space)
        with pytest.raises(ValueError, match="at most one block"):
            build_witness(problem, bound_source="analytic")
    for k in (2, 3):
        with pytest.raises(ValueError, match="at most one block"):
            build_k_witness(observable, Statistics.FERMION, space, k,
                            bound_source="analytic")
    problem = SevalueProblem(observable, Statistics.FERMION,
                             Partition((3, 2)), space)
    rng = np.random.default_rng(0)
    init = [crandn(rng, dim) for dim in problem.block_dims]
    assert sweep_solve(problem, init, max_sweeps=20).value > 0.9
    # one block of size >= 2 keeps the closed form
    one = SevalueProblem(interference_observable(SpaceConfig(8, 4),
                                                 Statistics.FERMION),
                         Statistics.FERMION, Partition((2, 1, 1)),
                         SpaceConfig(8, 4))
    assert build_witness(one, bound_source="analytic").bound == 0.25


@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_scaled_interference_bound_scales_with_its_coefficient(scale):
    # lambda1 L keeps the interference tag, and its separable bound is
    # lambda1 (1/2)^(K-1) in either mode, as the solver finds, so the
    # solver's own product state is no "entangled" verdict
    space, stats = SpaceConfig(6, 3), Statistics.BOSON
    unitary = random_unitary(np.random.default_rng(0), space.d)
    observable = transformed_observable(interference_observable(space, stats),
                                        scale, 0.0, unitary, space)
    problem = SevalueProblem(observable, stats, Partition((2, 1)), space)
    for form, mode, sign in ((WitnessForm.UPPER, "max", 1.0),
                             (WitnessForm.LOWER, "min", -1.0)):
        witness = build_witness(problem, "analytic", form=form)
        assert witness.bound == sign * scale * 0.5
        numeric = solve_sup_g(problem, starts=4, seed=0, mode=mode)
        assert abs(numeric.value - witness.bound) <= 1e-9
    best = solve_sup_g(problem, starts=4, seed=0).best
    rho = DensityOperator.from_pure(best.projected_vector)
    assert not detect(rho, build_witness(problem, "analytic")).entangled


def test_analytic_interference_bound_refused_for_other_coefficients():
    # a negative or complex pair coefficient has no closed form here; no
    # constructor sets the tag, so the complex pair gets it white-box
    space, stats = SpaceConfig(4, 2), Statistics.BOSON
    base = interference_observable(space, stats)
    (_, v, w), _ = base.terms
    complex_pair = LowRankObservable(space, ((1j, v, w), (-1j, w, v)))
    object.__setattr__(complex_pair, "kind", "interference")
    for observable in (
            transformed_observable(base, -1.0, 0.0, np.eye(4), space),
            complex_pair):
        problem = SevalueProblem(observable, stats, Partition((1, 1)), space)
        with pytest.raises(ValueError, match="no analytic bound known"):
            build_witness(problem, bound_source="analytic")


def test_interference_tag_is_no_constructor_argument():
    # L = |00><01| + |01><00| on (1, 1) has the separable supremum 1,
    # which the product |0> x (|0> + |1>)/sqrt 2 reaches: a forged
    # "interference" tag used to give it the closed form 0.5, and detect
    # called that product state entangled.  No constructor takes the
    # tag, and the untagged L gets no analytic bound
    space, stats = SpaceConfig(4, 2), Statistics.DISTINGUISHABLE
    ket, bra = np.eye(16, dtype=complex)[:2]
    terms = ((1.0, ket, bra), (1.0, bra, ket))
    with pytest.raises(TypeError):
        LowRankObservable(space, terms, kind="interference")
    observable = LowRankObservable(space, terms)
    assert observable.kind is None
    problem = SevalueProblem(observable, stats, Partition((1, 1)), space)
    with pytest.raises(ValueError, match="no analytic bound known"):
        build_witness(problem, bound_source="analytic")
    numeric = build_witness(problem, bound_source="numeric", starts=8)
    assert abs(numeric.bound - 1.0) <= 1e-9
    plus = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
    rho = DensityOperator.from_pure(StateVector(
        space, np.kron(np.eye(4)[0], plus)))
    assert abs(expectation(rho, observable) - 1.0) <= 1e-12
    assert not detect(rho, numeric).entangled


def test_rank_one_bound_refused_beyond_one_term_c_psi_psi():
    # |h><h| + |00><00| is no c|psi><psi|: the first term's closed form
    # 0.5 lies below the supremum 1.5, which |00> reaches, so that form
    # would call that product state entangled; nor is |h><ih| times i,
    # which equals |h><h| but has ket != bra
    space, stats = SpaceConfig(3, 2), Statistics.DISTINGUISHABLE
    h = np.zeros(9, dtype=complex)
    h[0] = h[4] = 1 / np.sqrt(2)
    zero = np.eye(9, dtype=complex)[0]
    two_terms = LowRankObservable(space, ((1.0, h, h), (1.0, zero, zero)))
    for observable in (two_terms,
                       LowRankObservable(space, ((1j, h, 1j * h),))):
        problem = SevalueProblem(observable, stats, Partition((1, 1)), space)
        with pytest.raises(ValueError, match="no analytic bound known"):
            build_witness(problem, bound_source="analytic")
    problem = SevalueProblem(two_terms, stats, Partition((1, 1)), space)
    numeric = build_witness(problem, bound_source="numeric", starts=8)
    assert abs(numeric.bound - 1.5) <= 1e-9
    rho = DensityOperator.from_pure(StateVector(space, zero))
    assert abs(expectation(rho, two_terms) - 1.5) <= 1e-12
    assert not detect(rho, numeric).entangled


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("d", [3, 4])
def test_one_term_observable_gets_the_rank_one_closed_form_untagged(stats, d):
    # one term c|k><k| on (1, 1) needs no tag: with k neither projected
    # nor normalised and c of either sign, the closed form is no lower
    # than an 8-start solve in "max" mode and no higher in "min" mode
    space = SpaceConfig(d, 2)
    rng = np.random.default_rng([d, list(Statistics).index(stats)])
    ket = crandn(rng, d * d)
    for coeff in (float(rng.uniform(0.5, 2.0)), -float(rng.uniform(0.5, 2.0))):
        observable = LowRankObservable(space, ((coeff, ket, ket),))
        problem = SevalueProblem(observable, stats, Partition((1, 1)), space)
        for form, mode, sign in ((WitnessForm.UPPER, "max", 1.0),
                                 (WitnessForm.LOWER, "min", -1.0)):
            bound = build_witness(problem, "analytic", form=form).bound
            numeric = solve_sup_g(problem, starts=8, seed=0, mode=mode)
            assert sign * (bound - numeric.value) >= -1e-9


def test_rank_one_bound_of_a_ket_with_no_sector_part_is_the_offset():
    # c|k><k| with P k = 0 is zero on the sector, so every quotient is the
    # offset in either mode: |00> under fermions, and |01> - |10> under
    # bosons, used to raise "state projects to zero in the requested
    # sector"
    space = SpaceConfig(3, 2)
    zero_zero = basis_product_vector(space, (0, 0)).amplitudes
    singlet = basis_product_vector(space, (0, 1)).amplitudes \
        - basis_product_vector(space, (1, 0)).amplitudes
    for stats, coeff, ket, offset in (
            (Statistics.FERMION, 1.0, zero_zero, 0.25),
            (Statistics.BOSON, 2.0, singlet, 0.0)):
        observable = LowRankObservable(space, ((coeff, ket, ket),),
                                       offset=offset)
        problem = SevalueProblem(observable, stats, Partition((1, 1)), space)
        for form, mode in ((WitnessForm.UPPER, "max"),
                           (WitnessForm.LOWER, "min")):
            assert build_witness(problem, "analytic", form=form).bound \
                == offset
            numeric = solve_sup_g(problem, starts=4, seed=0, mode=mode)
            assert abs(numeric.value - offset) <= 1e-12


def test_affine_interference_observable_stays_low_rank():
    # lambda1 L + lambda2 P at N=4, d=8 is L's rotated terms plus the
    # offset lambda2: no 4096 x 4096 matrix (256 MiB) is formed, the tag
    # is kept, and the analytic bound lambda1 (1/2) + lambda2 = 1 is the
    # solver's and calls the solver's own product state inconclusive
    space, stats = SpaceConfig(8, 4), Statistics.BOSON
    unitary, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)))
    base = interference_observable(space, stats)
    tracemalloc.start()
    observable = transformed_observable(base, 1.0, 0.5, unitary, space)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert isinstance(observable, LowRankObservable)
    assert peak < 16 * 2 ** 20
    problem = SevalueProblem(observable, stats, Partition((2, 2)), space)
    witness = build_witness(problem, "analytic")
    assert witness.bound == 1.0
    numeric = solve_sup_g(problem, starts=4, seed=0)
    assert abs(numeric.value - witness.bound) <= 1e-9
    rho = DensityOperator.from_pure(numeric.best.projected_vector)
    assert detect(rho, witness).verdict == "inconclusive"


def test_witness_refuses_a_bound_or_margin_that_breaks_the_verdict():
    # with bound NaN no state is detected (the d=3 boson Bell state has
    # <L> = 1 against G = 2/3), and a negative margin detects states
    # below G
    psi = _balanced_boson_d3()
    stats = Statistics.BOSON
    fields = dict(observable=rank_one_observable(psi, stats), stats=stats,
                  space=psi.space, k=2, partition=Partition((1, 1)))
    rho = DensityOperator.from_pure(psi)
    assert detect(rho, Witness(bound=2.0 / 3.0, **fields)).entangled
    for bound in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="bound must be finite"):
            Witness(bound=bound, **fields)
    for margin in (-1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="margin must be finite"):
            Witness(bound=2.0 / 3.0, margin=margin, **fields)


def test_expectation_pure_and_mixed(rng):
    space = SpaceConfig(3, 2)
    psi = StateVector(space, crandn(rng, 9)).normalized()
    observable = rank_one_observable(psi, Statistics.DISTINGUISHABLE)
    rho = DensityOperator.from_pure(psi)
    assert abs(expectation(rho, observable) - 1.0) < 1e-10

    dim = subspace_dimension(Statistics.BOSON, space)
    b = project(Statistics.BOSON, psi).normalized()
    rho_mixed = noisy_state(b, Statistics.BOSON, 0.0)
    obs_b = rank_one_observable(b, Statistics.BOSON)
    assert abs(expectation(rho_mixed, obs_b) - 1.0 / dim) < 1e-10


def test_expectation_of_a_mixture_makes_no_row_block_temporary():
    # the boson N=4, d=8 noisy state of (v + w)/sqrt 2, v and w the
    # interference observable's pair, holds 331 rows of 4096 amplitudes;
    # its expectation reads them through one product with the eigen-form
    # vectors, so the traced peak stays far below the row block, and the
    # value is the per-row sum of the term list's expectation_pure
    space, stats = SpaceConfig(8, 4), Statistics.BOSON
    observable = interference_observable(space, stats)
    (_, v, w), _ = observable.terms
    rho = noisy_state(StateVector(space, (v + w) / np.sqrt(2.0)), stats, 0.7)
    assert rho.vectors.shape == (331, 4096)
    tracemalloc.start()
    try:
        value = expectation(rho, observable)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * rho.vectors.nbytes
    loop = sum(weight * observable.expectation_pure(row)
               for weight, row in zip(rho.weights, rho.vectors))
    assert abs(value - loop.real) <= 1e-12


def test_expectation_dense_matches_mixture(rng):
    space = SpaceConfig(2, 2)
    vecs = [StateVector(space, crandn(rng, 4)).normalized() for _ in range(3)]
    rho = DensityOperator.from_mixture([(0.2, vecs[0]), (0.5, vecs[1]),
                                        (0.3, vecs[2])])
    x = crandn(rng, 4, 4)
    x = x + x.conj().T
    dense = DensityOperator.from_matrix(space, rho.to_matrix())
    assert abs(expectation(rho, x) - expectation(dense, x)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(stats=st.sampled_from(list(Statistics)), d=st.integers(2, 3),
       n=st.integers(1, 3), m=st.integers(1, 5), terms=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mixture_form_matches_dense(stats, d, n, m, terms, seed):
    # expectation of the block form equals that of its dense matrix and
    # the per-vector loop's for a dense and a low-rank observable; rows
    # projected onto the sector do not stick out of it, and random rows
    # stick out as far as the loop says
    assume(stats is not Statistics.FERMION or n <= d)
    rng = np.random.default_rng(seed)
    space = SpaceConfig(d, n)
    weights, rows = random_mixture(rng, space, m, stats)
    rho = DensityOperator(space, weights=weights, vectors=rows)
    dense = DensityOperator.from_matrix(space, rho.to_matrix())
    kets, bras = crandn(rng, 2, terms, space.total_dim)
    coeffs = crandn(rng, terms)
    low_rank = LowRankObservable(space, tuple(
        zip(coeffs, kets, bras)) + tuple(zip(coeffs.conj(), bras, kets)))
    x = random_hermitian(rng, space.total_dim)
    loops = (sum(w * (v.conj() @ x @ v) for w, v in zip(weights, rows)),
             sum(w * low_rank.expectation_pure(v)
                 for w, v in zip(weights, rows)))
    for observable, loop in zip((x, low_rank), loops):
        value = expectation(rho, observable)
        assert abs(value - expectation(dense, observable)) < 1e-12
        assert abs(value - loop.real) < 1e-12
    assert sector_deviation(rho, stats) <= 1e-12
    weights, rows = random_mixture(rng, space, m)
    loop = max(np.linalg.norm(project_full_sum(stats, v, space) - v)
               for v in rows)
    raw = DensityOperator(space, weights=weights, vectors=rows)
    assert abs(sector_deviation(raw, stats) - loop) < 1e-12


def test_expectation_dimension_mismatch(rng):
    space = SpaceConfig(2, 2)
    rho = DensityOperator.from_pure(
        StateVector(space, crandn(rng, 4)).normalized())
    with pytest.raises(ValueError):
        expectation(rho, np.eye(9))


def test_detect_balanced_boson_state_against_own_witness():
    psi = _balanced_boson_d3()
    problem = SevalueProblem(rank_one_observable(psi, Statistics.BOSON),
                             Statistics.BOSON, Partition((1, 1)), psi.space)
    witness = build_witness(problem, bound_source="analytic")
    verdict = detect(DensityOperator.from_pure(psi), witness)
    assert verdict.entangled
    assert abs(verdict.expectation - 1.0) < 1e-10

    mixed = noisy_state(psi, Statistics.BOSON, 0.0)
    assert not detect(mixed, witness).entangled


def test_detect_trivial_partition_never_fires(rng):
    space = SpaceConfig(4, 2)
    observable = interference_observable(space, Statistics.BOSON)
    problem = SevalueProblem(observable, Statistics.BOSON, Partition((2,)),
                             space)
    witness = build_witness(problem, bound_source="analytic")
    assert abs(witness.bound - 1.0) < 1e-12
    ghz_like = project(Statistics.BOSON, StateVector(
        space, (np.sqrt(6) * np.eye(16)[1] + np.sqrt(6) * np.eye(16)[11])))
    state = DensityOperator.from_pure(ghz_like.normalized())
    assert not detect(state, witness).entangled


def test_detect_rejects_wrong_sector(rng):
    space = SpaceConfig(3, 2)
    psi = _balanced_boson_d3()
    problem = SevalueProblem(rank_one_observable(psi, Statistics.BOSON),
                             Statistics.BOSON, Partition((1, 1)), space)
    witness = build_witness(problem, bound_source="analytic")
    stray = DensityOperator.from_pure(
        StateVector(space, crandn(rng, 9)).normalized())
    with pytest.raises(SectorError):
        detect(stray, witness)


def test_detect_equivalence_with_witness_matrix(rng):
    # the scalar comparison and tr(rho W) < 0 must agree
    psi = _balanced_boson_d3()
    problem = SevalueProblem(rank_one_observable(psi, Statistics.BOSON),
                             Statistics.BOSON, Partition((1, 1)), psi.space)
    witness = build_witness(problem, bound_source="analytic")
    wmat = witness_matrix(witness)
    for p in (0.0, 0.3, 0.6, 0.9, 1.0):
        rho = noisy_state(psi, Statistics.BOSON, p)
        verdict = detect(rho, witness)
        trace_value = expectation(rho, wmat)
        assert verdict.entangled == (trace_value < -witness.margin)


def test_witness_nonnegativity_on_sampled_separables():
    cases = [
        (_balanced_boson_d3(), Statistics.BOSON),
        (fig1_state_family(4, Statistics.FERMION), Statistics.FERMION),
        (fig1_state_family(3, Statistics.DISTINGUISHABLE),
         Statistics.DISTINGUISHABLE),
    ]
    for psi, stats in cases:
        problem = SevalueProblem(rank_one_observable(psi, stats), stats,
                                 Partition((1, 1)), psi.space)
        witness = build_witness(problem, bound_source="analytic")
        sampled = brute_force_bound(problem, samples=10_000, seed=5)
        assert sampled <= witness.bound + 1e-9


def test_lower_form_witness(rng):
    space = SpaceConfig(3, 2)
    psi = _balanced_boson_d3()
    problem = SevalueProblem(rank_one_observable(psi, Statistics.BOSON),
                             Statistics.BOSON, Partition((1, 1)), space)
    witness = build_witness(problem, bound_source="numeric",
                            form=WitnessForm.LOWER, starts=16, seed=2)
    # a positive semidefinite observable has inf g = 0
    assert abs(witness.bound) < 1e-9
    wmat = witness_matrix(witness)
    assert np.linalg.eigvalsh(wmat).min() > -1e-9


def test_build_k_witness_keeps_no_caller_array():
    # writing to the caller's dense array after the build changes
    # neither the witness's observable nor the verdict
    psi = _balanced_boson_d3()
    x = rank_one_observable(psi, Statistics.BOSON).to_matrix()
    witness = build_k_witness(x, Statistics.BOSON, psi.space, 2,
                              starts=4, seed=1)
    assert witness.observable is not x
    assert not witness.observable.flags.writeable
    rho = DensityOperator.from_pure(psi)
    before = detect(rho, witness)
    x *= 100.0
    after = detect(rho, witness)
    assert before.entangled and after.entangled
    assert after.expectation == before.expectation
    assert abs(witness.bound - 2.0 / 3.0) < 1e-9


def test_build_k_witness_holds_one_copy_of_a_dense_operator(monkeypatch,
                                                             rng):
    # the problems of every partition share the first one's frozen copy,
    # and that copy shares no memory with the caller's array
    import sepwit.witness as witness_module
    problems = []

    def recording(*args):
        problems.append(SevalueProblem(*args))
        return problems[-1]

    monkeypatch.setattr(witness_module, "SevalueProblem", recording)
    space = SpaceConfig(3, 4)
    x = random_hermitian(rng, space.total_dim)
    witness = build_k_witness(x, Statistics.BOSON, space, 2, starts=2)
    assert [p.partition.parts for p in problems] == [(3, 1), (2, 2)]
    for problem in problems:
        assert np.shares_memory(problem.operator, witness.observable)
    assert not np.shares_memory(witness.observable, x)


def test_build_k_witness_over_partitions():
    space = SpaceConfig(6, 3)
    observable = interference_observable(space, Statistics.BOSON)
    witness = build_k_witness(observable, Statistics.BOSON, space, 2,
                              bound_source="analytic")
    assert abs(witness.bound - 0.5) < 1e-12
    assert witness.partition is None
    assert witness.k == 2
    numeric = build_k_witness(observable, Statistics.BOSON, space, 2,
                              bound_source="numeric", starts=8, seed=3)
    oracle = max(brute_force_bound(SevalueProblem(observable, Statistics.BOSON,
                                                  p, space),
                                   samples=2000, seed=3)
                 for p in partitions_into(space.n, 2))
    assert abs(numeric.bound - 0.5) < 1e-9
    assert oracle <= numeric.bound + 1e-9
    assert numeric.bound_source == "numeric"


def test_schmidt_number_bound_values(rng):
    for d in (2, 4):
        space = SpaceConfig(d, 2)
        amps = np.zeros(d * d, dtype=complex)
        for mode in range(d):
            amps[mode * d + mode] = 1 / np.sqrt(d)
        psi = StateVector(space, amps)
        assert abs(schmidt_number_bound(psi, 1) - 1.0 / d) < 1e-12
        assert abs(schmidt_number_bound(psi, d) - 1.0) < 1e-12
    psi4 = fig1_state_family(4, Statistics.DISTINGUISHABLE)
    assert abs(schmidt_number_bound(psi4, 2) - 0.5) < 1e-12
    for r in (5, 0, 2.5, True, "2"):
        with pytest.raises(ValueError):
            schmidt_number_bound(psi4, r)


def test_schmidt_number_bound_monotone(rng):
    space = SpaceConfig(5, 2)
    psi = StateVector(space, crandn(rng, 25)).normalized()
    bounds = [schmidt_number_bound(psi, r) for r in range(1, 6)]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
    # the rank-1 bound equals the top separability eigenvalue
    from sepwit import analytic_rank_one
    top = analytic_rank_one(psi, Statistics.DISTINGUISHABLE)[0].value
    assert abs(bounds[0] - top) < 1e-12


def test_sector_deviation(rng):
    space = SpaceConfig(3, 2)
    sym = project(Statistics.BOSON,
                  StateVector(space, crandn(rng, 9))).normalized()
    rho = DensityOperator.from_pure(sym)
    assert sector_deviation(rho, Statistics.BOSON) < 1e-12
    assert sector_deviation(rho, Statistics.FERMION) > 0.1


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("n", [3, 4])
def test_sector_deviation_reads_each_rows_leak(stats, n):
    # rows projected by the explicit n! sum deviate by at most 1e-12, and
    # the unit row sqrt(1 - eps^2) u + eps w, u in the sector and w a unit
    # vector off it, deviates by eps, also below SECTOR_TOL (1e-8), where
    # the root of ||v||^2 - ||S^H v||^2 would read rounding as a leak
    space = SpaceConfig(4, n)
    rng = np.random.default_rng([n, list(Statistics).index(stats)])
    raw = crandn(rng, 3, space.total_dim)
    inside = project_full_sum(stats, raw.T, space).T
    inside /= np.linalg.norm(inside, axis=1, keepdims=True)
    rho = DensityOperator(space, weights=np.full(3, 1.0 / 3.0),
                          vectors=inside)
    assert sector_deviation(rho, stats) <= 1e-12
    if not stats.is_projected:
        return
    off = raw[0] - project_full_sum(stats, raw[0], space)
    off /= np.linalg.norm(off)
    for leak in (1e-9, 3e-8, 1e-3, 0.5):
        row = np.sqrt(1.0 - leak ** 2) * inside[0] + leak * off
        state = DensityOperator.from_pure(StateVector(space, row))
        assert abs(sector_deviation(state, stats) - leak) <= 1e-12
