import itertools
import math

import numpy as np
import pytest

from sepwit import LowRankObservable, Permutation
from sepwit.errors import ZeroProjectionError
from sepwit.partystep import B_RANGE_CUTOFF
from sepwit.sectors import sector_isometry
from sepwit.solver import _ORACLE_CHUNK


def crandn(rng, *shape):
    """Standard complex normal samples."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        / np.sqrt(2.0)


def random_hermitian(rng, n):
    mat = crandn(rng, n, n)
    return (mat + mat.conj().T) / 2.0


def random_unitary(rng, n):
    q, r = np.linalg.qr(crandn(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def project_full_sum(stats, amplitudes, space):
    """Reference projector: the explicit signed sum over all n! slot
    permutations, an independent cross-check of the coset recursion in
    ``project_amplitudes``.  Accepts a vector or a 2-D array of column
    vectors."""
    arr = np.asarray(amplitudes, dtype=np.complex128)
    if not stats.is_projected:
        return arr.copy()
    n = space.n
    extra = (n,) if arr.ndim == 2 else ()
    tens = arr.reshape(space.dims + arr.shape[1:])
    acc = np.zeros_like(tens)
    for axes in itertools.permutations(range(n)):
        sign = Permutation(tuple(a + 1 for a in axes)).sign \
            if stats.exchange_sign < 0 else 1
        acc += sign * tens.transpose(axes + extra)
    return (acc / math.factorial(n)).reshape(arr.shape)


def contracted_operator(operator, party_vectors, j, partition, space):
    """Reference contraction onto party j with every other party fixed:
    <x| X_j |y> = <b_1,...,x,...,b_K| X |b_1,...,y,...,b_K>, by one
    dense einsum over the operator's slot axes.  Party indices are
    0-based; party_vectors[j] is not read."""
    if not 0 <= j < partition.k:
        raise IndexError(f"party index {j} out of range for {partition}")
    n, d = space.n, space.d
    x = np.asarray(operator, dtype=np.complex128)
    if x.shape != (space.total_dim,) * 2:
        raise ValueError("operator shape mismatch")
    operands = [x.reshape(space.dims * 2), list(range(2 * n))]
    for party, block in enumerate(party_vectors):
        if party == j:
            continue
        bt = np.asarray(block, dtype=np.complex128).reshape(
            (d,) * partition.parts[party])
        slots = list(partition.slots(party))
        operands.extend([bt.conj(), slots, bt, [n + s for s in slots]])
    out_axes = list(partition.slots(j)) + [n + s for s in partition.slots(j)]
    dj = d ** partition.parts[j]
    return np.einsum(*operands, out_axes, optimize=True).reshape(dj, dj)


def dense_party_matrices(numer, overlap):
    """The m x m matrices behind ``_Solver.party_matrices``'s return
    forms: the term list (c, V) becomes sum_t c_t V[:, t] V[:, t]^H
    and a scalar overlap that multiple of the identity."""
    coeffs, vectors = numer
    numer = (vectors * coeffs) @ vectors.conj().T
    if np.ndim(overlap) == 0:
        overlap = overlap * np.eye(numer.shape[0], dtype=np.complex128)
    return numer, overlap


def reference_generalized_step(numer, overlap, previous, mode):
    """Reference party step: the m x m form that ``_generalized_step``
    replaced for scalar overlaps and term lists.  It whitens a dense
    overlap with one eigh, solves the dense reduced numerator with a
    second, and keeps the extremal eigenvector closest to ``previous``,
    phase-aligned with it."""
    w, e = np.linalg.eigh(overlap)
    wmax = float(w[-1])
    if wmax <= 1e-14:
        raise ZeroProjectionError("projected overlap operator is numerically zero")
    keep = w > wmax * B_RANGE_CUTOFF
    basis = e[:, keep] / np.sqrt(w[keep])
    reduced = basis.conj().T @ numer @ basis
    reduced = (reduced + reduced.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(reduced)
    target = vals[-1] if mode == "max" else vals[0]
    tol = max(1e-12, 1e-9 * abs(target))
    candidates = np.nonzero(np.abs(vals - target) <= tol)[0]
    best_overlap, best_vec = -1.0, None
    for idx in candidates:
        cand = basis @ vecs[:, idx]
        cand /= np.linalg.norm(cand)
        score = abs(previous.conj() @ cand)
        if score > best_overlap:
            best_overlap, best_vec = score, cand
    phase = previous.conj() @ best_vec
    if abs(phase) > 1e-12:
        best_vec = best_vec * (phase.conjugate() / abs(phase))
    return float(target), best_vec


def reference_brute_force_bound(problem, samples, seed=0):
    """Reference sampling oracle: the loop form that
    ``solver.brute_force_bound`` replaced, with per-term numerators,
    ``np.linalg.norm`` normalisation and out-of-place perturbations.
    It draws the same stream, so both give the same bound up to the
    rounding of the summation order.  Its sector coordinates come from
    the dense columns of ``sector_isometry`` (the identity for
    distinguishable parties), not from the solver's workspace."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    space, stats = problem.space, problem.stats
    isometry = sector_isometry(stats, space).toarray()
    adjoint = isometry.conj().T
    if isinstance(problem.operator, LowRankObservable):
        term_kets = [(c, (adjoint @ k).conj(), adjoint @ b)
                     for c, k, b in problem.operator.projected(stats).terms]
        dense_sec = None
    else:
        dense_sec = adjoint @ problem.operator @ isometry
        term_kets = None
    dims = problem.partition.block_dims(space.d)

    def evaluate(blocks):
        count = blocks[0].shape[1]
        vecs = blocks[0]
        for block in blocks[1:]:
            vecs = (vecs[:, None, :] * block[None, :, :]).reshape(-1, count)
        coords = adjoint @ vecs
        denom = np.einsum("dc,dc->c", coords.real, coords.real) \
            + np.einsum("dc,dc->c", coords.imag, coords.imag)
        quotients = np.full(count, -math.inf)
        valid = denom > 1e-14
        if not np.any(valid):
            return quotients
        if term_kets is not None:
            numer = np.zeros(count, dtype=np.complex128)
            for c, k_conj, b in term_kets:
                numer += c * (k_conj @ coords).conj() * (b.conj() @ coords)
            numer = numer.real
        else:
            numer = np.einsum("dc,de,ec->c", coords.conj(), dense_sec,
                              coords, optimize=True).real
        quotients[valid] = numer[valid] / denom[valid]
        return quotients

    rng = np.random.default_rng([seed, 11])
    best = -math.inf
    best_blocks = None
    remaining = samples - samples // 2
    while remaining > 0:
        count = min(_ORACLE_CHUNK, remaining)
        remaining -= count
        blocks = []
        for dim in dims:
            block = crandn(rng, dim, count)
            block /= np.linalg.norm(block, axis=0, keepdims=True)
            blocks.append(block)
        quotients = evaluate(blocks)
        top = int(np.argmax(quotients))
        if quotients[top] > best:
            best = float(quotients[top])
            best_blocks = [block[:, top].copy() for block in blocks]
    if best_blocks is None:
        raise ZeroProjectionError("every sample projected to zero")

    steps = [0.5] * len(dims)
    party = 0
    remaining = samples // 2
    while remaining > 0:
        count = min(_ORACLE_CHUNK, remaining)
        remaining -= count
        blocks = []
        for j, (center, dim) in enumerate(zip(best_blocks, dims)):
            if j == party:
                noise = crandn(rng, dim, count) * (steps[j] / math.sqrt(dim))
                block = center[:, None] + noise
                block /= np.linalg.norm(block, axis=0, keepdims=True)
            else:
                block = np.broadcast_to(center[:, None], (dim, count))
            blocks.append(block)
        quotients = evaluate(blocks)
        top = int(np.argmax(quotients))
        if quotients[top] > best:
            best = float(quotients[top])
            best_blocks = [np.array(block[:, top]) for block in blocks]
            steps[party] = min(steps[party] * 1.5, 2.0)
        else:
            steps[party] = max(steps[party] * 0.8, 1e-4)
        party = (party + 1) % len(dims)
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
