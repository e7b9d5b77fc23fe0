import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepwit import (DensityOperator, LowRankObservable, SpaceConfig,
                    StateVector, Statistics, appendix_b_states,
                    basis_product_vector, boson_product_decompose,
                    numerical_rank, partial_trace_first, product_vector,
                    project, schmidt, slater_boson, slater_fermion,
                    takagi_skew, takagi_symmetric)
from sepwit.decompositions import eigen_terms, null_space, orth
from sepwit.errors import HermiticityError

from conftest import crandn, random_unitary


def _random_state(rng, d, n=2):
    space = SpaceConfig(d, n)
    return StateVector(space, crandn(rng, space.total_dim)).normalized()


# ---------------------------------------------------------------------------
# Schmidt

def test_schmidt_bell_pair():
    space = SpaceConfig(2, 2)
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / np.sqrt(2)
    dec = schmidt(StateVector(space, amps))
    assert np.allclose(dec.coefficients, [1 / np.sqrt(2)] * 2)


def test_schmidt_product_state(rng):
    space = SpaceConfig(4, 2)
    a, b = crandn(rng, 4), crandn(rng, 4)
    dec = schmidt(product_vector(space, [a, b]))
    assert dec.coefficients.shape == (1,)
    assert abs(dec.coefficients[0]
               - np.linalg.norm(a) * np.linalg.norm(b)) < 1e-12


def test_schmidt_reconstruction(rng):
    for d in (2, 3, 5):
        psi = _random_state(rng, d)
        dec = schmidt(psi)
        assert np.linalg.norm(
            dec.reconstruct(psi.space).amplitudes - psi.amplitudes) < 1e-9
        assert abs(np.sum(dec.coefficients ** 2) - psi.norm() ** 2) < 1e-10
        assert np.abs(dec.left_basis.conj().T @ dec.left_basis
                      - np.eye(dec.coefficients.size)).max() < 1e-10
        assert np.abs(dec.right_basis.conj().T @ dec.right_basis
                      - np.eye(dec.coefficients.size)).max() < 1e-10


def test_schmidt_rejects_three_particles(rng):
    space = SpaceConfig(2, 3)
    with pytest.raises(ValueError):
        schmidt(StateVector(space, crandn(rng, 8)))


# ---------------------------------------------------------------------------
# Takagi, symmetric

def test_takagi_symmetric_diagonal():
    unitary, kappa = takagi_symmetric(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(kappa, [3.0, 1.0])
    assert np.abs(np.abs(unitary) - np.eye(2)).max() < 1e-12


def test_takagi_symmetric_off_diagonal():
    mat = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    unitary, kappa = takagi_symmetric(mat)
    assert np.allclose(kappa, [1.0, 1.0])
    assert np.abs(unitary @ np.diag(kappa) @ unitary.T - mat).max() < 1e-9


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_takagi_symmetric_random(rng, d):
    mat = crandn(rng, d, d)
    mat = mat + mat.T
    unitary, kappa = takagi_symmetric(mat)
    assert np.abs(unitary @ np.diag(kappa) @ unitary.T - mat).max() < 1e-9
    assert np.abs(unitary.conj().T @ unitary - np.eye(d)).max() < 1e-10
    singular = np.linalg.svd(mat, compute_uv=False)
    assert np.abs(np.sort(kappa)[::-1] - singular).max() < 1e-10


def test_takagi_symmetric_degenerate_and_rank_deficient(rng):
    # equal singular values plus an exact kernel
    basis = random_unitary(rng, 4)
    mat = basis @ np.diag([2.0, 2.0, 1e-3, 0.0]) @ basis.T
    unitary, kappa = takagi_symmetric(mat)
    assert np.abs(unitary @ np.diag(kappa) @ unitary.T - mat).max() < 1e-9
    assert np.abs(unitary.conj().T @ unitary - np.eye(4)).max() < 1e-10


def test_takagi_symmetric_rejects_asymmetric(rng):
    with pytest.raises(ValueError):
        takagi_symmetric(crandn(rng, 3, 3))


# ---------------------------------------------------------------------------
# Takagi, skew

def _skew_blocks(kappas, d):
    mat = np.zeros((d, d), dtype=complex)
    for idx, k in enumerate(kappas):
        mat[2 * idx, 2 * idx + 1] = k
        mat[2 * idx + 1, 2 * idx] = -k
    return mat


def test_takagi_skew_single_block():
    mat = _skew_blocks([0.7], 2)
    unitary, kappa = takagi_skew(mat)
    assert np.allclose(kappa, [0.7])
    assert np.abs(unitary @ _skew_blocks(kappa, 2) @ unitary.T - mat).max() < 1e-9


def test_takagi_skew_odd_dimension_trailing_zero():
    mat = np.zeros((3, 3), dtype=complex)
    mat[0, 1], mat[1, 0] = 1.0, -1.0
    unitary, kappa = takagi_skew(mat)
    assert kappa.shape == (1,)
    assert abs(kappa[0] - 1.0) < 1e-12
    recon = unitary @ _skew_blocks(kappa, 3) @ unitary.T
    assert np.abs(recon - mat).max() < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8])
def test_takagi_skew_random(rng, d):
    mat = crandn(rng, d, d)
    mat = mat - mat.T
    unitary, kappa = takagi_skew(mat)
    recon = unitary @ _skew_blocks(kappa, d) @ unitary.T
    assert np.abs(recon - mat).max() < 1e-9
    assert np.abs(unitary.conj().T @ unitary - np.eye(d)).max() < 1e-10
    # every coefficient appears as a doubly degenerate singular value
    singular = np.linalg.svd(mat, compute_uv=False)
    doubled = np.sort(np.concatenate([kappa, kappa]))[::-1]
    assert np.abs(doubled - singular[: doubled.size]).max() < 1e-10


def test_takagi_skew_degenerate_pairs(rng):
    basis = random_unitary(rng, 4)
    mat = basis @ _skew_blocks([1.0, 1.0], 4) @ basis.T
    unitary, kappa = takagi_skew(mat)
    assert np.allclose(kappa, [1.0, 1.0], atol=1e-10)
    recon = unitary @ _skew_blocks(kappa, 4) @ unitary.T
    assert np.abs(recon - mat).max() < 1e-9


def test_takagi_skew_rejects_symmetric():
    with pytest.raises(ValueError):
        takagi_skew(np.eye(3, dtype=complex))


# ---------------------------------------------------------------------------
# Slater forms

def test_slater_fermion_minimal_pair():
    space = SpaceConfig(2, 2)
    amps = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    dec = slater_fermion(StateVector(space, amps))
    assert abs(dec.coefficients[0] - 1 / np.sqrt(2)) < 1e-12
    assert np.abs(np.abs(dec.basis) - np.eye(2)).max() < 1e-10


def test_slater_fermion_two_equal_blocks():
    # inner two-particle piece of the partial-separability example
    space = SpaceConfig(5, 2)
    amps = np.zeros(25, dtype=complex)
    amps[1 * 5 + 2], amps[2 * 5 + 1] = 0.5, -0.5
    amps[3 * 5 + 4], amps[4 * 5 + 3] = 0.5, -0.5
    dec = slater_fermion(StateVector(space, amps))
    assert np.allclose(dec.coefficients[:2], [0.5, 0.5])


def test_slater_fermion_rejects_symmetric_input():
    space = SpaceConfig(2, 2)
    amps = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    with pytest.raises(ValueError):
        slater_fermion(StateVector(space, amps))


@pytest.mark.parametrize("d", [2, 4, 5, 6])
def test_slater_fermion_reconstruction(rng, d):
    space = SpaceConfig(d, 2)
    f = project(Statistics.FERMION,
                StateVector(space, crandn(rng, d * d))).normalized()
    dec = slater_fermion(f)
    assert np.linalg.norm(dec.reconstruct(space).amplitudes
                          - f.amplitudes) < 1e-9


def test_slater_fermion_coefficients_local_unitary_invariant(rng):
    d = 6
    space = SpaceConfig(d, 2)
    f = project(Statistics.FERMION,
                StateVector(space, crandn(rng, d * d))).normalized()
    basis_change = random_unitary(rng, d)
    rotated = StateVector(space, np.kron(basis_change, basis_change)
                          @ f.amplitudes)
    k1 = slater_fermion(f).coefficients
    k2 = slater_fermion(rotated).coefficients
    assert np.abs(k1 - k2).max() < 1e-10


def test_slater_boson_single_mode():
    space = SpaceConfig(3, 2)
    dec = slater_boson(basis_product_vector(space, (0, 0)))
    assert abs(dec.coefficients[0] - 1.0) < 1e-12
    assert np.abs(dec.coefficients[1:]).max() < 1e-12


def test_slater_boson_balanced_pair():
    space = SpaceConfig(2, 2)
    amps = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    dec = slater_boson(StateVector(space, amps))
    assert np.allclose(dec.coefficients, [1 / np.sqrt(2)] * 2)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_slater_boson_reconstruction(rng, d):
    space = SpaceConfig(d, 2)
    b = project(Statistics.BOSON,
                StateVector(space, crandn(rng, d * d))).normalized()
    dec = slater_boson(b)
    assert np.linalg.norm(dec.reconstruct(space).amplitudes
                          - b.amplitudes) < 1e-9


def test_boson_product_decompose_parallel():
    out = boson_product_decompose(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert abs(out.lambda1 - 1.0) < 1e-12
    assert abs(out.lambda2) < 1e-12


def test_boson_product_decompose_orthogonal_pair():
    a1 = np.array([1.0, 0.0], dtype=complex)
    a2 = np.array([0.0, 1.0], dtype=complex)
    out = boson_product_decompose(a1, a2)
    assert abs(out.lambda1 - 0.5) < 1e-12
    assert abs(out.lambda2 - 0.5) < 1e-12
    space = SpaceConfig(2, 2)
    target = project(Statistics.BOSON, product_vector(space, [a1, a2]))
    rebuilt = project(Statistics.BOSON,
                      product_vector(space, list(out.party_vectors)))
    assert np.linalg.norm(rebuilt.amplitudes - target.amplitudes) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 6])
def test_boson_product_decompose_random(rng, d):
    space = SpaceConfig(d, 2)
    a1, a2 = crandn(rng, d), crandn(rng, d)
    out = boson_product_decompose(a1, a2)
    target = project(Statistics.BOSON, product_vector(space, [a1, a2]))
    rebuilt = project(Statistics.BOSON,
                      product_vector(space, list(out.party_vectors)))
    assert np.linalg.norm(rebuilt.amplitudes - target.amplitudes) < 1e-9
    assert np.abs(out.basis.conj().T @ out.basis - np.eye(d)).max() < 1e-10


def test_boson_product_decompose_rejects_zero():
    with pytest.raises(ValueError):
        boson_product_decompose(np.zeros(2), np.ones(2))


# ---------------------------------------------------------------------------
# numerical rank

def test_numerical_rank_pure_and_mixed(rng):
    space = SpaceConfig(2, 2)
    pure = DensityOperator.from_pure(
        StateVector(space, crandn(rng, 4)).normalized())
    assert numerical_rank(pure) == 1
    assert numerical_rank(np.eye(5) / 5.0) == 5


def test_numerical_rank_rejects_non_hermitian(rng):
    with pytest.raises(HermiticityError):
        numerical_rank(crandn(rng, 3, 3))


def test_partial_separability_rank_gap(rng):
    # the projected partially separable states have reduced rank five,
    # while fully separable projections stay at rank three or below
    plus, minus = appendix_b_states()
    for state in (plus, minus):
        rho = DensityOperator.from_pure(state.normalized())
        assert numerical_rank(partial_trace_first(rho)) == 5
    space = SpaceConfig(5, 3)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        for _ in range(50):
            factors = [crandn(rng, 5) for _ in range(3)]
            projected = project(stats, product_vector(space, factors))
            rho = DensityOperator.from_pure(projected.normalized())
            assert numerical_rank(partial_trace_first(rho)) <= 3


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 7), n=st.integers(1, 7), rank=st.integers(0, 7),
       seed=st.integers(0, 2**32 - 1))
def test_orth_and_null_space_split_the_columns(m, n, rank, seed):
    # a product of complex Gaussian factors has rank min(rank, m, n);
    # rank 0 is the zero matrix
    rng = np.random.default_rng(seed)
    rank = min(rank, m, n)
    mat = crandn(rng, m, rank) @ crandn(rng, rank, n)
    basis = orth(mat)
    kernel = null_space(mat)
    assert basis.shape == (m, rank)
    assert kernel.shape == (n, n - rank)
    assert basis.shape[1] + kernel.shape[1] == n
    for q in (basis, kernel):
        assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max(initial=0.0) \
            <= 1e-12
    scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
    # the same span: projecting onto range(basis) keeps every column
    assert np.abs(basis @ (basis.conj().T @ mat) - mat).max(initial=0.0) \
        <= 1e-12 * scale
    # the kernel is annihilated
    assert np.abs(mat @ kernel).max(initial=0.0) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 3),
       kinds=st.lists(st.sampled_from(["pair", "diagonal", "cancel", "zero"]),
                      min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_eigen_form_reproduces_the_term_list(d, kinds, seed):
    # the eigen-form (c, X) of a Hermitian term list has orthonormal
    # columns and X diag(c) X^H equal to the operator, whether its terms
    # come as Hermitian pairs c|k><b| + conj(c)|b><k|, as k = b terms,
    # as pairs that cancel or with vanishing vectors
    rng = np.random.default_rng(seed)
    space = SpaceConfig(d, 2)
    dim = space.total_dim
    terms = []
    for kind in kinds:
        k, b = crandn(rng, dim), crandn(rng, dim)
        c = complex(crandn(rng))
        if kind == "pair":
            terms += [(c, k, b), (c.conjugate(), b, k)]
        elif kind == "diagonal":
            terms.append((c.real, k, k))
        elif kind == "cancel":
            terms += [(c, k, b), (c.conjugate(), b, k), (-c, k, b),
                      (-c.conjugate(), b, k)]
        else:
            terms.append((c.real, np.zeros(dim), np.zeros(dim)))
    observable = LowRankObservable(space, tuple(terms))
    coeffs, vectors = observable.eigen_form()
    assert coeffs.dtype == float and 1 <= coeffs.size <= 2 * len(terms)
    assert np.abs(vectors.conj().T @ vectors
                  - np.eye(coeffs.size)).max() <= 1e-12
    want = observable.to_matrix()
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs((vectors * coeffs) @ vectors.conj().T - want).max() \
        <= 1e-12 * scale
    # a zero matrix keeps exactly one term, its zero eigenvalue
    values, basis = eigen_terms(np.zeros((dim, dim), dtype=complex))
    assert values.tolist() == [0.0] and basis.shape == (dim, 1)


def test_orth_and_null_space_cutoff_is_relative():
    # singular values below eps * max(m, n) * s_max count as zero
    mat = np.diag([1.0, 1e-17, 0.0])
    assert orth(mat).shape == (3, 1)
    assert null_space(mat).shape == (3, 2)
    assert orth(np.zeros((2, 3))).shape == (2, 0)
    assert np.allclose(null_space(np.zeros((2, 3))).conj().T
                       @ null_space(np.zeros((2, 3))), np.eye(3))
