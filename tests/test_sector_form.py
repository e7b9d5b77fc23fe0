import json
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepwit import (DensityOperator, LowRankObservable, Partition,
                    SectorObservable, SevalueProblem, SpaceConfig,
                    StateVector, Statistics, Witness, WitnessForm,
                    build_witness, expectation,
                    interference_observable, rank_one_observable,
                    sector_observable, solve_sup_g, subspace_dimension,
                    transformed_observable, witness_matrix)
from sepwit.cli import load_observable_file, main

from conftest import (crandn, project_full_sum, random_hermitian,
                      random_mixture, random_unitary, sector_matrix)


def _entries(matrix):
    """The nonzero entries of a matrix as (row, col, value) records."""
    rows, cols = np.nonzero(matrix)
    out = np.zeros(len(rows), dtype=[("row", np.intp), ("col", np.intp),
                                     ("value", np.complex128)])
    out["row"], out["col"], out["value"] = rows, cols, matrix[rows, cols]
    return out


@settings(max_examples=60, deadline=None)
@given(stats=st.sampled_from(list(Statistics)), d=st.integers(2, 3),
       n=st.integers(1, 3), kind=st.sampled_from(["dense", "low-rank"]),
       shifted=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_every_route_gives_one_form_that_reads_as_the_operator(
        stats, d, n, kind, shifted, seed):
    # the forms of a low-rank L, of its matrix and of that matrix's
    # entries are one S^H L S; the form's expectation and witness matrix
    # are those of L through the permutation-sum projector, and its
    # transform is the P-sandwiched Kronecker form of the transformed L
    rng = np.random.default_rng(seed)
    space = SpaceConfig(d, n)
    if not subspace_dimension(stats, space):
        return      # fermions in fewer modes than particles: no sector
    dim = space.total_dim
    offset = float(rng.standard_normal()) if shifted else 0.0
    if kind == "dense":
        matrix = random_hermitian(rng, dim) + offset * np.eye(dim)
        sources = [matrix]
    else:
        k1, k2, b2 = (crandn(rng, dim) for _ in range(3))
        c2 = complex(crandn(rng))
        low_rank = LowRankObservable(space, (
            (0.7, k1, k1), (c2, k2, b2), (c2.conjugate(), b2, k2)),
            offset=offset)
        matrix = low_rank.to_matrix()
        sources = [low_rank, matrix]
    forms = [sector_observable(source, stats, space) for source in sources]
    forms.append(sector_observable(_entries(matrix), stats, space))
    want = sector_matrix(forms[0])
    scale = max(1.0, np.abs(want).max())
    for form in forms[1:]:
        assert np.abs(sector_matrix(form) - want).max() <= 1e-12 * scale

    proj = project_full_sum(stats, np.eye(dim), space)
    weights, rows = random_mixture(rng, space, 3, stats)
    mixture = DensityOperator(space, weights=weights, vectors=rows)
    reference = float(np.einsum("r,rj,jk,rk->", weights, rows.conj(), matrix,
                                rows).real)
    bound = float(rng.standard_normal())
    full_scale = max(1.0, np.abs(matrix).max(), abs(bound))
    for form in forms:
        for rho in (mixture, DensityOperator.from_matrix(
                space, mixture.to_matrix())):
            assert abs(expectation(rho, form) - reference) \
                <= 1e-12 * full_scale
        upper = bound * proj - proj @ matrix @ proj
        for side, sign in ((WitnessForm.UPPER, 1.0),
                           (WitnessForm.LOWER, -1.0)):
            got = witness_matrix(Witness(observable=form, stats=stats,
                                         space=space, k=1, bound=bound,
                                         form=side))
            assert np.abs(got - sign * upper).max() <= 1e-12 * full_scale

    lam1 = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    lam2 = float(rng.standard_normal())
    unitary = random_unitary(rng, d)
    rotation = reduce(np.kron, [unitary.conj().T] * n)
    turned = proj @ rotation @ (lam1 * matrix + lam2 * np.eye(dim)) \
        @ rotation.conj().T @ proj
    turned_scale = max(1.0, np.abs(turned).max())
    for form in forms:
        moved = transformed_observable(form, lam1, lam2, unitary)
        # the lower form at bound 0 is P L P itself
        got = witness_matrix(Witness(observable=moved, stats=stats,
                                     space=space, k=1, bound=0.0,
                                     form=WitnessForm.LOWER))
        assert np.abs(got - turned).max() <= 1e-12 * turned_scale


def test_a_form_of_other_statistics_or_space_is_refused():
    # a form is the observable on one sector: a problem or a witness of
    # another statistics or space takes none, and one of its own shares it
    space = SpaceConfig(3, 2)
    psi = StateVector(space, np.eye(9)[1] + np.eye(9)[3]).normalized()
    form = sector_observable(rank_one_observable(psi, Statistics.BOSON),
                             Statistics.BOSON, space)
    others = ((Statistics.FERMION, space), (Statistics.DISTINGUISHABLE, space),
              (Statistics.BOSON, SpaceConfig(4, 2)))
    for stats, other in others:
        with pytest.raises(ValueError, match="another statistics or space"):
            SevalueProblem(form, stats, Partition((1, 1)), other)
        with pytest.raises(ValueError, match="another statistics or space"):
            Witness(observable=form, stats=stats, space=other, k=2,
                    bound=0.5)
    problem = SevalueProblem(form, Statistics.BOSON, Partition((1, 1)), space)
    witness = Witness(observable=form, stats=Statistics.BOSON, space=space,
                      k=2, bound=0.5)
    assert problem.operator is form and witness.observable is form


def test_form_record_is_no_constructor_argument():
    # the closed forms read the record that only the conversion and the
    # transform set: the form of L = |00><01| + h.c., whose separable
    # supremum on (1, 1) is 1, takes no interference tag or rank-one
    # vector from its constructor, which would get it the bound 1/2 or
    # that of another vector, and dataclasses.replace drops the record
    space, stats = SpaceConfig(2, 2), Statistics.DISTINGUISHABLE
    matrix = np.zeros((4, 4))
    matrix[0, 1] = matrix[1, 0] = 1.0
    terms = sector_observable(matrix, stats, space).terms
    for record in ({"interference": 1.0},
                   {"rank_one": (1.0, np.eye(4, dtype=complex)[0])}):
        with pytest.raises(TypeError):
            SectorObservable(stats, space, terms, **record)
    plain = SectorObservable(stats, space, terms)
    assert plain.interference is None and plain.rank_one is None
    wide = SpaceConfig(4, 2)
    tagged = sector_observable(interference_observable(wide, stats), stats,
                               wide)
    assert tagged.interference == 1.0
    for form in (plain, replace(tagged, offset=0.0)):
        assert form.interference is None and form.rank_one is None
        problem = SevalueProblem(form, stats, Partition((1, 1)), form.space)
        with pytest.raises(ValueError, match="no analytic bound known"):
            build_witness(problem, bound_source="analytic")


def _write_interference_file(path, space, stats):
    """The interference observable |v><w| + |w><v| of ``space`` as an
    observable file of its nonzero entries; returns their count."""
    (_, v, w), _ = interference_observable(space, stats).terms
    entries = []
    for ket, bra in ((v, w), (w, v)):
        for row in np.flatnonzero(ket):
            for col in np.flatnonzero(bra):
                value = ket[row] * bra[col].conjugate()
                entries.append([int(row), int(col), value.real, value.imag])
    path.write_text(json.dumps({"d": space.d, "N": space.n,
                                "statistics": stats.value,
                                "entries": entries}))
    return len(entries)


def test_sparse_fermion_file_solves_without_a_full_space_matrix(tmp_path,
                                                                capsys):
    # fermions at N=5, d=10: a 100,000-mode space whose dense matrix
    # would take 149 GiB, with a 252-dimensional sector; loading the
    # interference pair's entries, building their form and solving (4, 1)
    # stay under a 50 MB traced peak and reach the proven 1/2
    space, stats = SpaceConfig(10, 5), Statistics.FERMION
    path = tmp_path / "interference_N5.json"
    assert _write_interference_file(path, space, stats) == 28_800
    tracemalloc.start()
    try:
        loaded, file_stats, entries = load_observable_file(str(path))
        form = sector_observable(entries, file_stats, loaded)
        problem = SevalueProblem(form, stats, Partition((4, 1)), loaded)
        value = solve_sup_g(problem, starts=4, seed=0).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert form.terms[1].shape == (252, 2)
    assert abs(value - 0.5) <= 1e-6
    assert peak < 50e6
    code = main(["sevalue", str(path), "--partition", "4,1", "--starts", "4",
                 "--oracle-samples", "50"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and abs(out["G"] - 0.5) <= 1e-6


def test_wide_sparse_file_is_summed_entry_by_entry(tmp_path):
    # a diagonal observable of fermions at N=4, d=12 names all 20,736
    # indices of its space: a dense block over the named indices would
    # take 6.9 GB, while S^H L S is summed entry by entry; on the
    # 495-dimensional sector it is diagonal, each entry the mean of L over
    # the arrangements of its mode set
    space, stats = SpaceConfig(12, 4), Statistics.FERMION
    diagonal = np.random.default_rng(4).standard_normal(space.total_dim)
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps({
        "d": 12, "N": 4, "statistics": "fermion",
        "entries": [[i, i, v, 0.0] for i, v in enumerate(diagonal.tolist())]}))
    tracemalloc.start()
    try:
        loaded, file_stats, entries = load_observable_file(str(path))
        form = sector_observable(entries, file_stats, loaded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    digits = np.array(np.unravel_index(np.arange(space.total_dim),
                                       space.dims)).T
    distinct = (np.diff(np.sort(digits, axis=1), axis=1) > 0).all(axis=1)
    _, group = np.unique(np.sort(digits[distinct], axis=1), axis=0,
                         return_inverse=True)
    group = group.reshape(-1)
    means = np.bincount(group, diagonal[distinct]) / np.bincount(group)
    assert len(means) == len(form.terms[0]) == 495
    assert np.abs(np.sort(form.terms[0]) - np.sort(means)).max() <= 1e-12
