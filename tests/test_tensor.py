import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepwit import (DensityOperator, Permutation, SpaceConfig, StateVector,
                    Statistics, apply_permutation, basis_product_vector,
                    flatten_index, partial_trace_first, product_vector,
                    project, projector_matrix, subspace_dimension,
                    symmetrize_operator, unflatten_index)
from sepwit.errors import DimensionCapError, HermiticityError
from sepwit.sectors import sector_basis_labels, sector_isometry
from sepwit.tensor import (hermiticity_defect, project_amplitudes,
                           require_hermitian)

from conftest import (crandn, project_full_sum, random_hermitian,
                      random_mixture, sector_basis_vectors)


def test_flatten_index_examples():
    assert flatten_index((0, 1), SpaceConfig(2, 2)) == 1
    assert flatten_index((1, 0), SpaceConfig(2, 2)) == 2
    assert flatten_index((2, 3, 4), SpaceConfig(5, 3)) == 2 * 25 + 3 * 5 + 4


def test_flatten_unflatten_roundtrip():
    space = SpaceConfig(3, 4)
    for flat in range(space.total_dim):
        assert flatten_index(unflatten_index(flat, space), space) == flat


def test_flatten_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        flatten_index((0, 2), SpaceConfig(2, 2))


def test_space_caps():
    with pytest.raises(DimensionCapError):
        SpaceConfig(2, 7)          # 7! over the permutation cap
    with pytest.raises(DimensionCapError):
        SpaceConfig(50, 6)         # 50**6 over the vector cap


@pytest.mark.parametrize("d,n", [(3.9, 2), (3, 2.0), (True, 2), (3, False),
                                 ("3", 2), (None, 2)])
def test_space_rejects_non_integers(d, n):
    with pytest.raises(ValueError, match="must be an integer"):
        SpaceConfig(d, n)


def test_space_accepts_numpy_integers():
    space = SpaceConfig(np.int64(3), np.int32(2))
    assert space == SpaceConfig(3, 2)
    assert type(space.d) is int and type(space.n) is int


def test_permutation_parity_and_validation():
    assert Permutation((1, 2, 3)).parity == 0
    assert Permutation((2, 1)).parity == 1
    assert Permutation((2, 3, 1)).parity == 0     # a 3-cycle is even
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_apply_permutation_swap():
    space = SpaceConfig(2, 2)
    out = apply_permutation(Permutation((2, 1)),
                            basis_product_vector(space, (0, 1)))
    expected = basis_product_vector(space, (1, 0))
    assert np.allclose(out.amplitudes, expected.amplitudes)


def test_apply_permutation_identity(rng):
    space = SpaceConfig(3, 3)
    v = StateVector(space, crandn(rng, space.total_dim))
    out = apply_permutation(Permutation.identity(3), v)
    assert np.allclose(out.amplitudes, v.amplitudes)


def test_apply_permutation_three_cycle():
    # sigma = (2,3,1) sends the product of (a1,a2,a3) to (a2,a3,a1)
    space = SpaceConfig(5, 3)
    out = apply_permutation(Permutation((2, 3, 1)),
                            basis_product_vector(space, (0, 1, 2)))
    expected = basis_product_vector(space, (1, 2, 0))
    assert np.allclose(out.amplitudes, expected.amplitudes)


def test_apply_permutation_matches_product_relabeling(rng):
    space = SpaceConfig(3, 3)
    factors = [crandn(rng, 3) for _ in range(3)]
    sigma = Permutation((3, 1, 2))
    lhs = apply_permutation(sigma, product_vector(space, factors))
    rhs = product_vector(space, [factors[m - 1] for m in sigma.mapping])
    assert np.allclose(lhs.amplitudes, rhs.amplitudes)


def test_project_fermion_pair():
    space = SpaceConfig(2, 2)
    out = project(Statistics.FERMION, basis_product_vector(space, (0, 1)))
    expected = np.array([0.0, 0.5, -0.5, 0.0])
    assert np.allclose(out.amplitudes, expected)


def test_project_kills_repeated_fermion_labels(rng):
    space = SpaceConfig(3, 2)
    a = crandn(rng, 3)
    v = product_vector(space, [a, a])
    assert project(Statistics.FERMION, v).norm() < 1e-14


def test_project_boson_fixed_point(rng):
    space = SpaceConfig(3, 2)
    a = crandn(rng, 3)
    v = product_vector(space, [a, a])
    out = project(Statistics.BOSON, v)
    assert np.allclose(out.amplitudes, v.amplitudes)


@pytest.mark.parametrize("stats", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_projector_idempotent(rng, stats, d, n):
    space = SpaceConfig(d, n)
    v = StateVector(space, crandn(rng, space.total_dim))
    once = project(stats, v)
    twice = project(stats, once)
    scale = max(once.norm(), 1e-30)
    assert np.linalg.norm(twice.amplitudes - once.amplitudes) / scale < 1e-12


@pytest.mark.parametrize("stats", list(Statistics))
@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 4), n=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_project_amplitudes_is_orthogonal_projector(stats, d, n, seed):
    # P P = P and <x|P y> = <P x|y>: the projector is idempotent and
    # Hermitian
    rng = np.random.default_rng(seed)
    space = SpaceConfig(d, n)
    x, y = (crandn(rng, space.total_dim) for _ in range(2))
    px, py = (project_amplitudes(stats, v, space) for v in (x, y))
    twice = project_amplitudes(stats, px, space)
    assert np.linalg.norm(twice - px) <= 1e-12 * np.linalg.norm(x)
    scale = np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(np.vdot(x, py) - np.vdot(px, y)) <= 1e-12 * scale


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3), (4, 3)])
def test_projector_matrix_hermitian(d, n):
    space = SpaceConfig(d, n)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        mat = projector_matrix(stats, space)
        assert np.abs(mat - mat.conj().T).max() <= 1e-14


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_sector_orthogonality(rng, d, n):
    space = SpaceConfig(d, n)
    v = StateVector(space, crandn(rng, space.total_dim))
    sym_then_anti = project(Statistics.FERMION, project(Statistics.BOSON, v))
    assert sym_then_anti.norm() < 1e-12


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 5)])
def test_coset_recursion_matches_full_sum(rng, d, n):
    # project_amplitudes, now S S^H through the orbit tables, against the
    # explicit n! sum (the name is that of the recursion it replaced)
    space = SpaceConfig(d, n)
    arr = crandn(rng, space.total_dim, 2)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        fast = project_amplitudes(stats, arr, space)
        full = project_full_sum(stats, arr, space)
        assert np.abs(fast - full).max() < 1e-13


def test_symmetrize_operator_two_factors(rng):
    y = random_hermitian(rng, 3)
    z = random_hermitian(rng, 3)
    out = symmetrize_operator([y, z])
    expected = (np.kron(y, z) + np.kron(z, y)) / 2.0
    assert np.allclose(out, expected)


def test_symmetrize_operator_identity_factors():
    eye = np.eye(2)
    out = symmetrize_operator([eye, eye, eye])
    assert np.allclose(out, np.eye(8))


def test_symmetrize_operator_rejects_non_hermitian(rng):
    bad = crandn(rng, 2, 2)
    with pytest.raises(HermiticityError):
        symmetrize_operator([bad, np.eye(2)])


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_operator_symmetrization_identity(rng, d, n):
    # sandwiching a product operator between projectors equals applying
    # the symmetrized operator next to a single projector
    space = SpaceConfig(d, n)
    factors = [random_hermitian(rng, d) for _ in range(n)]
    x = factors[0]
    for f in factors[1:]:
        x = np.kron(x, f)
    xsym = symmetrize_operator(factors)
    for stats in (Statistics.BOSON, Statistics.FERMION):
        proj = projector_matrix(stats, space)
        sandwich = proj @ x @ proj
        assert np.abs(sandwich - xsym @ proj).max() < 1e-12
        assert np.abs(sandwich - proj @ xsym).max() < 1e-12


def test_partial_trace_product_factorization(rng):
    space = SpaceConfig(3, 3)
    a = crandn(rng, 3)
    rest = crandn(rng, 9)
    rho = np.kron(np.outer(a, a.conj()), np.outer(rest, rest.conj()))
    reduced = partial_trace_first(
        DensityOperator.from_matrix(space, rho, normalized=False))
    expected = np.outer(rest, rest.conj()) * np.vdot(a, a)
    assert np.allclose(reduced.matrix, expected)


def test_partial_trace_preserves_trace_and_psd(rng):
    space = SpaceConfig(2, 3)
    mat = crandn(rng, 8, 8)
    rho = mat @ mat.conj().T
    rho /= np.trace(rho).real
    reduced = partial_trace_first(DensityOperator.from_matrix(space, rho))
    assert abs(np.trace(reduced.matrix).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(reduced.matrix).min() > -1e-10


def test_partial_trace_mixture_matches_dense(rng):
    space = SpaceConfig(2, 3)
    vecs = [StateVector(space, crandn(rng, 8)).normalized() for _ in range(3)]
    weights = (0.5, 0.3, 0.2)
    mix = DensityOperator.from_mixture(list(zip(weights, vecs)))
    dense = DensityOperator.from_matrix(space, mix.to_matrix())
    out_mix = partial_trace_first(mix)
    out_dense = partial_trace_first(dense)
    assert np.allclose(out_mix.matrix, out_dense.matrix, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(2, 3), m=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_partial_trace_mixture_form_matches_dense(d, n, m, seed):
    # the block form and its dense matrix reduce to the same operator
    rng = np.random.default_rng(seed)
    space = SpaceConfig(d, n)
    weights, rows = random_mixture(rng, space, m)
    mix = DensityOperator(space, weights=weights, vectors=rows)
    # the per-vector loop is the reference for the block's products
    loop = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, rows))
    assert np.abs(mix.to_matrix() - loop).max() < 1e-12
    dense = DensityOperator.from_matrix(space, mix.to_matrix())
    assert abs(mix.trace() - 1.0) < 1e-12
    out_mix = partial_trace_first(mix)
    out_dense = partial_trace_first(dense)
    assert np.abs(out_mix.matrix - out_dense.matrix).max() < 1e-12


def test_mixture_normalizes_in_place_on_its_own_copy(rng):
    # building a mixture of unit rows allocates little beyond the block's
    # own copy (a whole-block norm and quotient made three blocks; a
    # 64 MiB block keeps the slabs' few MiB small beside it), and a row
    # off unit norm is divided by its norm as a whole-block quotient
    # divides it, to the bit
    dim = 2 ** 16
    rows = np.eye(64, dim, dtype=np.complex128)
    tracemalloc.start()
    DensityOperator(SpaceConfig(dim, 1), weights=np.full(64, 1 / 64),
                    vectors=rows)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 1.2 * rows.nbytes
    rows = crandn(rng, 5, 7)
    rows[1] /= np.linalg.norm(rows[1])
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    want = np.where(np.abs(norms - 1.0) > 1e-9, rows / norms, rows)
    got = DensityOperator(SpaceConfig(7, 1), weights=np.full(5, 0.2),
                          vectors=rows).vectors
    assert np.array_equal(got, want)


def test_mixture_block_rules(rng):
    space = SpaceConfig(2, 2)
    rows = crandn(rng, 3, 4)
    weights = np.array([0.5, 0.5 + 1e-12, -1e-12])
    rho = DensityOperator(space, weights=weights, vectors=rows)
    # rows are normalized, the tiny negative weight clipped to 0, and
    # neither array is the caller's or writable
    assert np.allclose(np.linalg.norm(rho.vectors, axis=1), 1.0,
                       atol=1e-15)
    assert rho.weights[2] == 0.0
    rows[:] = 0.0
    assert np.abs(rho.vectors).min() > 0.0
    for arr in (rho.weights, rho.vectors):
        assert not arr.flags.writeable
    unit = rho.vectors[:1]
    assert np.array_equal(
        DensityOperator(space, weights=[1.0], vectors=unit).vectors, unit)
    for kwargs in ({"weights": [1.0]}, {"vectors": unit},
                   {"matrix": np.eye(4) / 4, "weights": [1.0],
                    "vectors": unit}, {}):
        with pytest.raises(ValueError, match="give either matrix"):
            DensityOperator(space, **kwargs)
    bad = [
        ({"weights": [1.0], "vectors": crandn(rng, 1, 8)}, "are not"),
        ({"weights": [[1.0]], "vectors": unit}, "are not"),
        ({"weights": [1.0], "vectors": unit * np.nan}, "finite"),
        ({"weights": [np.inf], "vectors": unit}, "finite"),
        ({"weights": [1.1, -0.1], "vectors": rows[:2] + 1.0},
         "negative mixture weight"),
        ({"weights": [0.5, 0.5], "vectors": np.vstack([unit, 0 * unit])},
         "zero vector"),
        ({"weights": [0.5, 0.4], "vectors": crandn(rng, 2, 4)}, "sum to 1"),
    ]
    for kwargs, message in bad:
        with pytest.raises(ValueError, match=message):
            DensityOperator(space, **kwargs)
    loose = DensityOperator(space, weights=[0.5, 0.4],
                            vectors=crandn(rng, 2, 4), normalized=False)
    assert abs(loose.trace() - 0.9) < 1e-15


def test_from_mixture_rejects_mixed_spaces(rng):
    # both spaces have 16 amplitudes, so only the space check sees it
    wide, long = SpaceConfig(4, 2), SpaceConfig(2, 4)
    pairs = [(0.5, StateVector(wide, crandn(rng, 16)).normalized()),
             (0.5, StateVector(long, crandn(rng, 16)).normalized())]
    with pytest.raises(ValueError, match=r"mixes spaces SpaceConfig\(d=4, "
                       r"n=2\) and SpaceConfig\(d=2, n=4\)"):
        DensityOperator.from_mixture(pairs)
    with pytest.raises(ValueError, match="empty mixture"):
        DensityOperator.from_mixture(iter(()))


def test_partial_trace_single_slot_rejected():
    space = SpaceConfig(2, 1)
    rho = DensityOperator.from_matrix(space, np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        partial_trace_first(rho)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_subspace_dimension_matches_projector_trace(d, n):
    space = SpaceConfig(d, n)
    for stats in Statistics:
        expected = subspace_dimension(stats, space)
        trace = np.trace(projector_matrix(stats, space)).real
        assert abs(trace - expected) < 1e-10


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("d,n", [(1, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_sector_isometry_matches_projector(stats, d, n):
    # the combinatorial sector basis is an isometry onto the range of
    # the permutation-sum projector: S^H S = 1 and S S^H = P
    space = SpaceConfig(d, n)
    iso = sector_basis_vectors(stats, space)
    assert iso.shape == (space.total_dim, subspace_dimension(stats, space))
    gram = iso.conj().T @ iso
    assert np.abs(gram - np.eye(iso.shape[1])).max(initial=0.0) <= 1e-12
    want = project_full_sum(stats, np.eye(space.total_dim), space)
    assert np.abs(iso @ iso.conj().T - want).max() <= 1e-12


@pytest.mark.parametrize("stats", list(Statistics))
@pytest.mark.parametrize("d,n", [(3, 1), (2, 3), (3, 4), (4, 3), (8, 4)])
def test_sector_isometry_kernels_match_dense(rng, stats, d, n):
    # S^H x on one vector and on a (dim, batch) array, the dense S and
    # S y for a sector unit vector y all agree with the normalised
    # projections P|label> of the sector's basis labels; n > d leaves
    # the fermion sector empty
    space = SpaceConfig(d, n)
    iso = sector_isometry(stats, space)
    labels = sector_basis_labels(stats, space)
    assert iso.shape == (space.total_dim, len(labels))
    # a spread of columns, every one of them on the small spaces
    cols = list(range(0, len(labels), max(1, len(labels) // 40)))
    units = np.zeros((space.total_dim, len(cols)), dtype=np.complex128)
    for at, col in enumerate(cols):
        units[flatten_index(labels[col], space), at] = 1.0
    want = project_full_sum(stats, units, space)
    want /= np.linalg.norm(want, axis=0)
    x = crandn(rng, space.total_dim, 5)
    coords = iso.adjoint(x)
    assert coords.shape == (len(labels), 5)
    assert np.abs(coords[cols] - want.conj().T @ x).max(initial=0.0) <= 1e-12
    assert np.abs(iso.adjoint(x[:, 0]) - coords[:, 0]).max(initial=0.0) \
        <= 1e-12
    eye = np.eye(len(labels), dtype=np.complex128)
    for at, col in enumerate(cols):
        assert np.abs(iso.apply(eye[col]) - want[:, at]).max() <= 1e-12
    # S y on a (sector dimension, batch) array is the adjoint of S^H
    y = crandn(rng, len(labels), 3)
    images = iso.apply(y)
    assert images.shape == (space.total_dim, 3)
    assert np.abs(images[:, 0] - iso.apply(y[:, 0])).max(initial=0.0) \
        <= 1e-12
    assert np.abs(x.conj().T @ images - coords.conj().T @ y).max(
        initial=0.0) <= 1e-12 * space.total_dim
    with pytest.raises(ValueError):
        iso.apply(np.zeros(len(labels) + 1))
    with pytest.raises(ValueError):
        iso.adjoint(x[1:])
    # the dense S of the 4096-dim distinguishable space would be 256 MiB
    if space.total_dim * len(labels) <= 4096 * 512:
        dense = sector_basis_vectors(stats, space)
        assert dense.shape == iso.shape
        assert np.abs(dense[:, cols] - want).max(initial=0.0) <= 1e-12
        assert np.abs(dense.conj().T @ x - coords).max(initial=0.0) <= 1e-12


def test_subspace_dimension_values():
    assert subspace_dimension(Statistics.BOSON, SpaceConfig(2, 2)) == 3
    assert subspace_dimension(Statistics.FERMION, SpaceConfig(2, 2)) == 1
    assert subspace_dimension(Statistics.DISTINGUISHABLE, SpaceConfig(3, 2)) == 9


def test_statistics_norm_factor():
    assert Statistics.DISTINGUISHABLE.norm_factor(4) == 1
    assert Statistics.BOSON.norm_factor(4) == math.factorial(4)
    assert Statistics.FERMION.norm_factor(3) == 6


def test_statistics_parse():
    assert Statistics.parse("Boson") is Statistics.BOSON
    assert Statistics.parse("f") is Statistics.FERMION
    with pytest.raises(ValueError):
        Statistics.parse("anyon")


@pytest.mark.parametrize("value", [5, None])
def test_statistics_parse_rejects_a_non_string(value):
    with pytest.raises(ValueError, match="statistics must be a string"):
        Statistics.parse(value)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(SpaceConfig(2, 2), np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_state_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        StateVector(SpaceConfig(2, 2), [bad, 0, 0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_density_operator_rejects_non_finite(bad):
    # NaN compares false against the Hermiticity tolerance, so the check
    # for finite entries comes first
    matrix = np.eye(4, dtype=complex) / 4.0
    matrix[1, 1] = bad
    with pytest.raises(ValueError, match="density matrix must be finite"):
        DensityOperator.from_matrix(SpaceConfig(2, 2), matrix)


def test_hermiticity_defect_over_slabs_is_the_whole_matrix_max(rng):
    # a 700-side matrix (7.8 MiB) is checked in several row slabs; a max
    # does not depend on their order, so the defect is that of the whole
    # difference, and a NaN anywhere still gives NaN
    m = crandn(rng, 700, 700)
    assert hermiticity_defect(m) == float(np.abs(m - m.conj().T).max())
    m[650, 3] = np.nan
    assert math.isnan(hermiticity_defect(m))
    assert hermiticity_defect(np.zeros((0, 0))) == 0.0
    with pytest.raises(ValueError, match="factor must be a square matrix"):
        require_hermitian(np.zeros((2, 3)), "factor")


def test_density_operator_validation(rng):
    space = SpaceConfig(2, 2)
    with pytest.raises(HermiticityError):
        DensityOperator.from_matrix(space, crandn(rng, 4, 4))
    with pytest.raises(ValueError):
        DensityOperator.from_matrix(space, np.eye(4))   # trace 4, not 1
    # trace 1 and Hermitian, but not positive semidefinite: rejected as a
    # mixture weight below -TOL_TRACE is
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityOperator.from_matrix(space, np.diag([1.5, 0.0, 0.0, -0.5]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityOperator.from_matrix(space, np.diag([3.0, 0.0, 0.0, -1e-9]),
                                    normalized=False)
    edge = DensityOperator.from_matrix(space, np.diag([1.0, 0.0, 0.0, -1e-11]),
                                       normalized=False)
    assert edge.trace() == 1.0 - 1e-11
