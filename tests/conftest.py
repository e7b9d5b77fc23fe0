import collections
import itertools
import math
import sys
from functools import reduce

import numpy as np
import pytest

from sepwit import LowRankObservable, Permutation, Statistics
from sepwit.errors import ZeroProjectionError
from sepwit.partystep import B_RANGE_CUTOFF
from sepwit.sectors import sector_isometry
from sepwit.solver import _ORACLE_CHUNK


def crandn(rng, *shape):
    """Standard complex normal samples."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        / np.sqrt(2.0)


def random_mixture(rng, space, m, stats=None):
    """Weights summing to 1 and m random unit rows, each projected onto
    the sector of ``stats`` first where it is given."""
    rows = crandn(rng, m, space.total_dim)
    if stats is not None:
        rows = project_full_sum(stats, rows.T, space).T
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    weights = rng.random(m) + 0.01
    return weights / weights.sum(), rows


def random_hermitian(rng, n):
    mat = crandn(rng, n, n)
    return (mat + mat.conj().T) / 2.0


def random_unitary(rng, n):
    q, r = np.linalg.qr(crandn(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def sector_basis_vectors(stats, space):
    """Dense (total_dim, sector_dim) array of the orthonormal sector
    vectors: the columns of ``sector_isometry``, written out by scatter."""
    return sector_isometry(stats, space).toarray()


def sector_matrix(form):
    """S^H L S of a ``SectorObservable``: X diag(c) X^H plus its offset
    times the identity."""
    coeffs, vectors = form.terms
    return (vectors * coeffs) @ vectors.conj().T \
        + form.offset * np.eye(len(vectors))


def project_full_sum(stats, amplitudes, space):
    """Reference projector: the explicit signed sum over all n! slot
    permutations, an independent cross-check of the sector isometry's
    orbit tables, through which ``project_amplitudes`` and every other
    projection of the library runs.  Accepts a vector or a 2-D array of
    column vectors."""
    arr = np.asarray(amplitudes, dtype=np.complex128)
    if not stats.is_projected:
        return arr.copy()
    n = space.n
    extra = (n,) if arr.ndim == 2 else ()
    tens = arr.reshape(space.dims + arr.shape[1:])
    acc = np.zeros_like(tens)
    for axes in itertools.permutations(range(n)):
        sign = Permutation(tuple(a + 1 for a in axes)).sign \
            if stats is Statistics.FERMION else 1
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
    """The m x m matrices behind the return forms of
    ``solver._party_matrices``, which contracts a problem's sector
    terms: the term list (c, V) becomes sum_t c_t V[:, t] V[:, t]^H and
    a scalar overlap that multiple of the identity."""
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


def full_space_stationarity(problem, operator, blocks, values):
    """Reference for ``solver._stationarity`` through the full space:
    P|b>, chi = P L P|b> - g P|b> from the explicit permutation sum
    ``project_full_sum`` and the eigen-form or matrix of ``operator``,
    the problem's L on the whole space, and per party
    j the pair (||A_j b_j - g B_j b_j||, ||B_j b_j||), A_j b_j and B_j
    b_j being chi and P|b> with every other party contracted out by one
    einsum, start by start.  Returns (batch, dim), (batch, dim) and
    (batch, K, 2) arrays; no sector basis or coupling map is read."""
    space, stats, dims = problem.space, problem.stats, problem.block_dims
    count = len(blocks[0])
    flat = np.array([reduce(np.kron, [b[i] for b in blocks])
                     for i in range(count)])
    projected = project_full_sum(stats, flat.T, space).T
    if isinstance(operator, LowRankObservable):
        coeffs, vectors = operator.eigen_form
        applied = (vectors * coeffs) @ (vectors.conj().T @ projected.T)
    else:
        applied = operator @ projected.T
    chi = project_full_sum(stats, applied, space).T \
        - np.asarray(values, dtype=float)[:, None] * projected
    defects = np.empty((count, len(dims), 2))
    for i in range(count):
        for j, dj in enumerate(dims):
            left = reduce(np.kron, [b[i] for b in blocks[:j]], np.ones(1))
            right = reduce(np.kron, [b[i] for b in blocks[j + 1:]],
                           np.ones(1))
            for col, vec in enumerate((chi[i], projected[i])):
                defects[i, j, col] = np.linalg.norm(np.einsum(
                    "l,ljr,r->j", left.conj(),
                    vec.reshape(len(left), dj, len(right)), right.conj()))
    return projected, chi, defects


def reference_brute_force_bound(problem, operator, samples, seed=0):
    """Reference sampling oracle: the loop form that
    ``solver.brute_force_bound`` replaced, with per-term numerators,
    ``np.linalg.norm`` normalisation and out-of-place perturbations.
    It draws the same stream, so both give the same bound up to the
    rounding of the summation order.  It reads ``operator``, the
    problem's L on the whole space, not the problem's form, and its
    sector coordinates come from the dense columns of
    ``sector_isometry`` (the identity for distinguishable parties)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    space, stats = problem.space, problem.stats
    isometry = sector_isometry(stats, space).toarray()
    adjoint = isometry.conj().T
    if isinstance(operator, LowRankObservable):
        term_kets = [(c, (adjoint @ k).conj(), adjoint @ b)
                     for c, k, b in operator.projected(stats).terms]
        dense_sec = None
    else:
        dense_sec = adjoint @ operator @ isometry
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


def _called_within(name):
    """True where the call that the asking function patches was made
    from within a call of the function ``name``, directly or through
    further calls."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_name != name:
        frame = frame.f_back
    return frame is not None


def break_overlap_eigh(monkeypatch, sides=()):
    """Make ``np.linalg.eigh``, where partystep whitens overlaps
    (``_overlap_eigh``), raise LinAlgError on any call that holds the
    chosen matrix, the second of the first batch of at least two.  With
    ``sides``, every call on overlaps of those sides raises instead, and
    so does the SVD route.  Returns the count of calls that raised, by
    routine."""
    eigh, svd = np.linalg.eigh, np.linalg.svd
    chosen, raised = [], collections.Counter()

    def failing(solve, name):
        def call(a, *args, **kwargs):
            if _called_within("_overlap_eigh"):
                if not chosen and np.ndim(a) == 3 and len(a) >= 2:
                    chosen.append(np.array(a[1]))
                mats = np.reshape(a, (-1,) + np.shape(a)[-2:])
                if np.shape(a)[-1] in sides if sides else chosen and any(
                        np.array_equal(m, chosen[0]) for m in mats):
                    raised[name] += 1
                    raise np.linalg.LinAlgError("did not converge")
            return solve(a, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "eigh", failing(eigh, "eigh"))
    if sides:
        monkeypatch.setattr(np.linalg, "svd", failing(svd, "svd"))
    return raised


def break_span_svd(monkeypatch, stacks_only=False):
    """Make ``np.linalg.svd`` raise LinAlgError on every call where
    partystep takes the span of a party step's whitened term vectors
    (``_span_extremum``), or with ``stacks_only`` on every such call on
    a stack of matrices.  Returns the shapes of the calls that raised."""
    svd, raised = np.linalg.svd, []

    def call(a, *args, **kwargs):
        if _called_within("_span_extremum") and (np.ndim(a) == 3
                                                 or not stacks_only):
            raised.append(np.shape(a))
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", call)
    return raised


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
