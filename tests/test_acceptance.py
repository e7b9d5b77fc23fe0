"""Acceptance gate: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 2 has one combination where the advertised interference
bound (1/2)**(K-1) is not the separable supremum: fermions on the
partition (2, 2) of four particles, where an exact product reaches 1.
The test proves that value in place and asserts it there (see
notes/decisions.md); every other combination keeps (1/2)**(K-1).
"""

import json
import math

import numpy as np

from sepwit import (DensityOperator, GhzFamily, Partition, SevalueProblem,
                    SpaceConfig, StateVector, Statistics, all_partitions,
                    analytic_rank_one, appendix_b_states, brute_force_bound,
                    dephased_ghz, expectation, fig1_bound, fig1_state_family,
                    ghz_expectation, interference_observable, numerical_rank,
                    partial_trace_first, project, projector_matrix,
                    rank_one_observable, schmidt_number_bound,
                    sector_observable, solve_sup_g,
                    sweep_solve, symmetrize_operator, transform_solution,
                    transformed_observable)
from sepwit.cli import _fig1_rows, main as cli_main

from conftest import crandn, random_hermitian, random_unitary


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _random_sector_state(rng, d, stats):
    space = SpaceConfig(d, 2)
    raw = StateVector(space, crandn(rng, d * d))
    return project(stats, raw).normalized()


def test_criterion_1_bipartite_analytic_vs_numeric():
    """20 random two-fermion and 20 random two-boson states, d in 3..6:
    the multistart solver matches the closed-form bound to 1e-8."""
    rng = np.random.default_rng(101)
    failures = []
    for stats in (Statistics.FERMION, Statistics.BOSON):
        for index in range(20):
            d = (3, 4, 5, 6)[index % 4]
            psi = _random_sector_state(rng, d, stats)
            expected = analytic_rank_one(psi, stats)[0].value
            problem = SevalueProblem(rank_one_observable(psi, stats), stats,
                                     Partition((1, 1)), psi.space)
            result = solve_sup_g(problem, starts=64, seed=1000 + index)
            if abs(result.value - expected) > 1e-8:
                failures.append((stats.value, d, index,
                                 result.value, expected))
    _report(1, not failures,
            f"40 random bipartite states, |numeric - analytic| <= 1e-8 "
            f"({len(failures)} off)")
    assert not failures, failures


def _proven_fermion_two_two_bound(space, observable):
    """Separable supremum 1 of the fermion interference observable on the
    partition (2, 2), proven without the solver or the oracle.

    Upper bound: the observable is |v><w| + |w><v| with orthonormal v, w,
    whose spectrum is {1, -1, 0}.  Attained: with omega_A, omega_C the
    two-forms (e0^e1 + e2^e3)/2 and (e4^e5 + e6^e7)/2, the projected
    product (omega_A + i omega_C) x (omega_A - i omega_C) has quotient 1.
    See notes/decisions.md.
    """
    (c_vw, v, w), (c_wv, w_again, v_again) = observable.terms
    assert c_vw == c_wv == 1.0
    assert np.array_equal(v, v_again) and np.array_equal(w, w_again)
    gram = np.array([[v.conj() @ v, v.conj() @ w],
                     [w.conj() @ v, w.conj() @ w]])
    assert np.abs(gram - np.eye(2)).max() < 1e-12, gram

    def two_form(pairs):
        mat = np.zeros((space.d, space.d), dtype=complex)
        for i, j in pairs:
            mat[i, j] += 0.5
            mat[j, i] -= 0.5
        return mat.reshape(-1)

    omega_a = two_form([(0, 1), (2, 3)])
    omega_c = two_form([(4, 5), (6, 7)])
    product = StateVector(space, np.kron(omega_a + 1j * omega_c,
                                         omega_a - 1j * omega_c))
    projected = project(Statistics.FERMION, product).amplitudes
    quotient = observable.expectation_pure(projected) / \
        (projected.conj() @ projected)
    assert abs(quotient - 1.0) < 1e-12, quotient
    return 1.0


def test_criterion_2_multipartite_interference_bound():
    """Interference bound for N in 2..4, every partition, all statistics;
    sampling oracle never above it.  The bound is (1/2)**(K-1) except for
    fermion partitions with two blocks of equal even size, (2,2) in this
    grid, where an exact product reaches 1 (notes/decisions.md)."""
    config = {2: (4, 12), 3: (6, 10), 4: (8, 5)}   # n -> (d, starts)
    failures = []
    checked = 0
    for n, (d, starts) in config.items():
        space = SpaceConfig(d, n)
        for stats in Statistics:
            observable = interference_observable(space, stats)
            for partition in all_partitions(n):
                checked += 1
                # (2,2) is the only partition with two equal even blocks
                # for N <= 4
                if stats is Statistics.FERMION and partition.parts == (2, 2):
                    expected = _proven_fermion_two_two_bound(space,
                                                             observable)
                else:
                    expected = 0.5 ** (partition.k - 1)
                problem = SevalueProblem(observable, stats, partition, space)
                # the criterion tolerance is 1e-6; the tightest defaults
                # are unnecessary here and dominate the runtime
                result = solve_sup_g(problem, starts=starts, seed=55,
                                     tol=1e-8, value_tol=1e-9)
                if abs(result.value - expected) > 1e-6:
                    failures.append(
                        f"{stats.value} N={n} ({partition}): solver "
                        f"{result.value:.9f} vs expected {expected}")
                oracle = brute_force_bound(problem, samples=100_000, seed=56)
                if oracle > expected + 1e-9:
                    failures.append(
                        f"{stats.value} N={n} ({partition}): oracle "
                        f"{oracle:.9f} above expected {expected}")
    _report(2, not failures,
            f"{checked} (statistics, partition) combinations, fermion (2,2) "
            f"at its proven bound 1 (notes/decisions.md); "
            f"{len(failures)} deviations")
    assert not failures, "\n".join(failures)


def test_criterion_3_noise_thresholds():
    """Thresholds for d = 2..8 match the closed forms and an independent
    grid scan of detect() at step 1e-3."""
    rows = _fig1_rows(2, 8, verify=True, starts=12, seed=7)
    failures = []
    for row in rows:
        d = row["d"]
        if row["panel"] == "SR>1":
            closed = 1.0 / (d + 1)
        elif row["panel"] == "SR>2":
            # (G*D - 1)/(D - 1) with G = 2/d, D = d**2; equals 1 at d=2
            closed = (2.0 * d - 1.0) / (d * d - 1.0)
        elif row["panel"] == "Boson":
            closed = min(1.0, 2.0 * d / ((d + 2) * (d - 1)))
        else:
            # fermion pattern from equal pair weights (2*floor(d/2))**-0.5
            pairs = d // 2
            dim = d * (d - 1) // 2
            closed = 1.0 if dim <= 1 else \
                min(1.0, (dim / pairs - 1.0) / (dim - 1.0))
        if abs(row["p_star"] - closed) > 1e-10:
            failures.append((row["panel"], d, row["p_star"], closed))
        if not row["verified"]:
            failures.append((row["panel"], d, "grid/solver cross-check"))
    _report(3, not failures,
            f"28 threshold rows, closed forms + 1e-3 grid scans "
            f"({len(failures)} off)")
    assert not failures, failures


def test_criterion_4_dephasing_sweep(tmp_path):
    """Closed-form interference signal at five particles, verdict lines,
    and the three-particle numeric cross-check."""
    out = tmp_path / "fig2.json"
    code = cli_main(["fig2", "--n", "5", "--delta-steps", "9",
                     "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    first = payload["rows"][0]
    failures = []
    target = 4.0 / (3.0 * math.sqrt(3.0))
    if abs(first["expectation"] - target) > 1e-12:
        failures.append(("delta=0 value", first["expectation"], target))
    for k in range(2, 6):
        if first[f"not_{k}_separable"] is not True:
            failures.append(("verdict at delta=0", k))
        if payload["rows"][-1][f"not_{k}_separable"] is not False:
            failures.append(("verdict at delta=pi", k))
    r = 1.0 / math.sqrt(3.0)
    for stats in Statistics:
        family = GhzFamily(3, r, stats, 8)
        observable = sector_observable(interference_observable(
            family.space, stats), stats, family.space)
        for delta in (0.0, math.pi / 3, math.pi):
            numeric = expectation(dephased_ghz(family, delta), observable)
            if abs(numeric - ghz_expectation(r, delta)) > 2 * family.tail_bound:
                failures.append(("numeric cross-check", stats.value, delta))
    _report(4, not failures,
            f"closed form at 1e-12, verdict lines, numeric N=3 within "
            f"2*tail ({len(failures)} off)")
    assert not failures, failures


def test_criterion_5_reduced_rank_gap():
    """Rank five for the projected partially separable states; at most
    three for 1000 random fully separable projections."""
    failures = []
    for state in appendix_b_states():
        rho = DensityOperator.from_pure(state.normalized())
        rank = numerical_rank(partial_trace_first(rho), rel_cutoff=1e-10)
        if rank != 5:
            failures.append(("projected example", rank))
    rng = np.random.default_rng(505)
    space = SpaceConfig(5, 3)
    from sepwit import product_vector
    for index in range(1000):
        stats = Statistics.BOSON if index % 2 == 0 else Statistics.FERMION
        factors = [crandn(rng, 5) for _ in range(3)]
        projected = project(stats, product_vector(space, factors))
        rho = DensityOperator.from_pure(projected.normalized())
        rank = numerical_rank(partial_trace_first(rho), rel_cutoff=1e-10)
        if rank > 3:
            failures.append((stats.value, index, rank))
    _report(5, not failures,
            f"rank-5 examples and 1000 separable projections <= 3 "
            f"({len(failures)} off)")
    assert not failures, failures


def test_criterion_6_symmetrization_identities():
    """100 random Hermitian factor tuples: projector sandwich equals the
    symmetrized operator next to one projector, to 1e-12."""
    rng = np.random.default_rng(606)
    failures = []
    for index in range(100):
        if index % 2 == 0:
            n = 2
            d = int(rng.integers(2, 9))
        else:
            n = 3
            d = int(rng.integers(2, 7))
        space = SpaceConfig(d, n)
        factors = [random_hermitian(rng, d) for _ in range(n)]
        product = factors[0]
        for factor in factors[1:]:
            product = np.kron(product, factor)
        symmetric = symmetrize_operator(factors)
        for stats in (Statistics.BOSON, Statistics.FERMION):
            proj = projector_matrix(stats, space)
            sandwich = proj @ product @ proj
            defect = np.abs(sandwich - symmetric @ proj).max()
            if defect > 1e-12:
                failures.append((index, stats.value, "identity", defect))
            idem = np.abs(proj @ proj - proj).max()
            if idem > 1e-12:
                failures.append((index, stats.value, "idempotency", idem))
            herm = np.abs(proj - proj.conj().T).max()
            if herm > 1e-14:
                failures.append((index, stats.value, "hermiticity", herm))
    _report(6, not failures,
            f"100 factor tuples x both projectors ({len(failures)} off)")
    assert not failures, failures


def test_criterion_7_witness_nonnegativity():
    """Every witness bound from criteria 1-4 dominates 1e4 sampled
    separable states of the matching statistics and partition."""
    rng = np.random.default_rng(707)
    failures = []
    checked = 0

    def check(problem, bound, label):
        nonlocal checked
        checked += 1
        sampled = brute_force_bound(problem, samples=10_000, seed=77)
        if sampled > bound + 1e-9:
            failures.append((label, sampled, bound))

    # criterion-1 family: random bipartite rank-one witnesses
    for stats in (Statistics.FERMION, Statistics.BOSON):
        for index in range(20):
            d = (3, 4, 5, 6)[index % 4]
            psi = _random_sector_state(rng, d, stats)
            bound = analytic_rank_one(psi, stats)[0].value
            problem = SevalueProblem(rank_one_observable(psi, stats), stats,
                                     Partition((1, 1)), psi.space)
            check(problem, bound, f"rank-one {stats.value} d={d} #{index}")

    # criterion-2 family: interference witnesses; the fermion (2,2)
    # bound is the solver's true supremum, not the advertised formula
    config = {2: 4, 3: 6, 4: 8}
    for n, d in config.items():
        space = SpaceConfig(d, n)
        for stats in Statistics:
            observable = interference_observable(space, stats)
            for partition in all_partitions(n):
                problem = SevalueProblem(observable, stats, partition, space)
                if stats is Statistics.FERMION and \
                        partition.parts.count(2) >= 2:
                    bound = solve_sup_g(problem, starts=6, seed=9).value
                else:
                    bound = 0.5 ** (partition.k - 1)
                check(problem, bound,
                      f"interference {stats.value} N={n} ({partition})")

    # criterion-3 family: balanced states, including the Schmidt-rank-2
    # level, which is sampled over rank-2 superpositions directly
    for d in range(2, 9):
        for stats in Statistics:
            psi = fig1_state_family(d, stats)
            bound, _ = fig1_bound(
                d, 1 if stats is Statistics.DISTINGUISHABLE else stats)
            problem = SevalueProblem(rank_one_observable(psi, stats), stats,
                                     Partition((1, 1)), psi.space)
            check(problem, bound, f"balanced {stats.value} d={d}")
        psi = fig1_state_family(d, Statistics.DISTINGUISHABLE)
        observable = rank_one_observable(psi, Statistics.DISTINGUISHABLE)
        bound2 = schmidt_number_bound(psi, 2)
        checked += 1
        # 1e4 random two-term product superpositions (Schmidt rank <= 2)
        count = 10_000
        left = crandn(rng, count, d, 2)
        right = crandn(rng, count, d, 2)
        weights = rng.random((count, 2))
        weights /= weights.sum(axis=1, keepdims=True)
        amps = np.einsum("cdk,cek,ck->cde", left, right, np.sqrt(weights))
        amps = amps.reshape(count, d * d)
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        values = np.abs(amps @ observable.terms[0][1].conj()) ** 2
        worst = float(values.max())
        if worst > bound2 + 1e-9:
            failures.append((f"SR>2 level d={d}", worst, bound2))

    # criterion-4 family: interference witnesses at the numeric scale
    for stats in Statistics:
        family = GhzFamily(3, 1.0 / math.sqrt(3.0), stats, 2)
        observable = interference_observable(family.space, stats)
        for k in (2, 3):
            for partition in all_partitions(3):
                if partition.k != k:
                    continue
                problem = SevalueProblem(observable, stats, partition,
                                         family.space)
                check(problem, 0.5 ** (k - 1),
                      f"dephasing witness {stats.value} K={k} ({partition})")

    _report(7, not failures,
            f"{checked} witnesses x 1e4 separable samples "
            f"({len(failures)} violations)")
    assert not failures, failures


def test_criterion_8_covariance_round_trip():
    """Affine reparameterizations and local unitaries carry solutions
    over exactly: value maps to lambda1 * g + lambda2 within 1e-8 under
    direct re-solving."""
    rng = np.random.default_rng(808)
    failures = []
    for index in range(10):
        d = 3 if index % 2 == 0 else 4
        stats = (Statistics.FERMION, Statistics.BOSON,
                 Statistics.DISTINGUISHABLE)[index % 3]
        psi = _random_sector_state(rng, d, stats)
        problem = SevalueProblem(rank_one_observable(psi, stats), stats,
                                 Partition((1, 1)), psi.space)
        base = solve_sup_g(problem, starts=16, seed=900 + index)
        unitary = random_unitary(rng, d)
        lam1 = float(rng.uniform(0.5, 2.0))
        lam2 = float(rng.uniform(-1.0, 1.0))
        moved = transform_solution(base.best, lam1, lam2, unitary)
        new_op = transformed_observable(problem.operator, lam1, lam2,
                                        unitary)
        new_problem = SevalueProblem(new_op, stats, Partition((1, 1)),
                                     psi.space)
        resolved = sweep_solve(new_problem, list(moved.party_vectors))
        if abs(resolved.value - (lam1 * base.value + lam2)) > 1e-8:
            failures.append(("re-solve from transformed point", index,
                             resolved.value, lam1 * base.value + lam2))
        fresh = solve_sup_g(new_problem, starts=16, seed=900 + index)
        if abs(fresh.value - (lam1 * base.value + lam2)) > 1e-8:
            failures.append(("independent multistart", index,
                             fresh.value, lam1 * base.value + lam2))
    _report(8, not failures,
            f"10 random affine + local-unitary round trips ({len(failures)} "
            f"off)")
    assert not failures, failures
