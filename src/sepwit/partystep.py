"""Batched party steps of the separability-eigenvalue sweep.

One step solves, for every start of a batch at once, a party's
generalized Hermitian eigenproblem A x = g B x on the range of the
overlap B and returns its extremal value and vector.  The forms of A
and B are those that ``solver._Solver`` builds: B a scalar per start or
a stack of matrices, A the contracted sector eigen-terms (c, X), A =
sum_t c_t x_t x_t^H with real c_t, of a dense or low-rank observable.
Starts whose branches differ are solved as sub-batches of the same
routines.
"""

from __future__ import annotations

import numpy as np

B_RANGE_CUTOFF = 1e-12     # relative cutoff on the overlap operator


def _groups(keys: np.ndarray):
    """(key, index) per distinct non-negative key, index selecting the
    starts that share it (a slice where all do)."""
    if (keys == keys[0]).all():
        return [(keys[0], slice(None))] * int(keys[0] >= 0)
    return [(key, (keys == key).nonzero()[0])
            for key in np.unique(keys[keys >= 0])]


def _dag(x: np.ndarray) -> np.ndarray:
    """The conjugate transpose of every matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def _hermitian_part(x: np.ndarray) -> np.ndarray:
    return (x + _dag(x)) / 2.0


def _span_extremum(coeffs: np.ndarray, vectors: np.ndarray,
                   mode: str) -> tuple:
    """Extremal eigenvalue of H = sum_t c_t x_t x_t^H, real c_t, on the
    space C^n of ``vectors``, per start: ``vectors`` is (batch, n, T),
    each start's x_1..x_T as columns.

    H vanishes off the span of its term vectors, so the value is the
    extremum of H on an orthonormal basis of that span, one eigh of size
    at most min(n, T), or 0 where that extremum lies beyond 0 and the
    span has fewer than n dimensions; spans of different ranks form
    sub-batches.  Returns the values, the span bases and the
    eigenvectors, (batch, n, r) with the columns past a start's rank
    zero, and a (batch, r) mask of the extremal eigenvectors (every one
    within 1e-9 relative of the value), empty where the value is that 0.
    """
    n = vectors.shape[1]
    u, s, vh = np.linalg.svd(vectors, full_matrices=False)
    ranks = (s > s[:, :1] * 1e-12).sum(axis=1)
    width = max(int(ranks.max()), 1)
    span = u[:, :, :width] * (np.arange(width) < ranks[:, None])[:, None, :]
    values, cands = np.zeros(len(vectors)), np.zeros(span.shape, complex)
    masks = np.zeros((len(vectors), width), dtype=bool)
    # a start whose term vectors all vanish has H = 0
    for rank, idx in _groups(np.where(ranks > 0, ranks, -1)):
        # the term vectors' coordinates on the span basis
        coords = s[idx, :rank, None] * vh[idx, :rank]
        vals, vecs = np.linalg.eigh((coords * coeffs) @ _dag(coords))
        target = vals[:, -1] if mode == "max" else vals[:, 0]
        off = (rank < n) & ((target < 0.0) if mode == "max"
                            else (target > 0.0))
        tol = np.maximum(1e-12, 1e-9 * np.abs(target))
        values[idx] = np.where(off, 0.0, target)
        cands[idx, :, :rank] = u[idx, :, :rank] @ vecs
        masks[idx, :rank] = (np.abs(vals - target[:, None])
                             <= tol[:, None]) & ~off[:, None]
    return values, span, cands, masks


def _generalized_step(numer: tuple, overlap, previous: np.ndarray,
                      mode: str) -> tuple:
    """Extremal eigenpairs of A x = g overlap x on range(overlap), one
    per start (row of ``previous``), for the batched forms that
    ``_Solver`` builds, ``numer`` the terms (c, X) of A = sum_t c_t
    X[:, t] X[:, t]^H; a start whose overlap vanishes gets NaN.

    A matrix overlap is whitened through its eigendecomposition, cut at
    B_RANGE_CUTOFF (starts with different cuts form sub-batches); a
    scalar one is divided out.  A is solved in the span of its whitened
    term vectors (``_span_extremum``).  Where the extremum is the 0 that
    the terms take off that span, the vector is the unit vector of the
    zero eigenspace closest to ``previous``, or, where ``previous`` has
    no part in it, the range coordinate vector least covered by the
    span, with its span part removed.  Among numerically degenerate
    extremal eigenvectors the one closest to ``previous`` is kept; the
    result is phase-aligned with ``previous``.
    """
    # a scalar overlap is its own one eigenvalue, with no eigenvectors
    w, e = (overlap[:, None], None) if overlap.ndim == 1 \
        else np.linalg.eigh(overlap)
    wmax = w[:, -1]
    cuts = (w <= wmax[:, None] * B_RANGE_CUTOFF).sum(axis=1)
    cuts[wmax <= 1e-14] = -1
    values = np.full(len(previous), np.nan)
    best = np.zeros(previous.shape, dtype=complex)
    for cut, idx in _groups(cuts):
        prev = previous[idx]
        # x = E (z / root) turns the pair into a standard problem in z on
        # range(overlap); E, the kept eigenvectors, is None for the
        # identity of a scalar overlap
        ev = None if e is None else e[idx, :, cut:]
        root = np.sqrt(w[idx, cut:])[:, :, None]

        def on_range(x):
            return x if ev is None else _dag(ev) @ x

        whitened = on_range(numer[1][idx]) / root
        target, span, cands, masks = _span_extremum(numer[0], whitened, mode)
        zero = ~masks.any(axis=1)
        if zero.any():
            # the zero eigenspace: in the range coordinates alpha,
            # z = root alpha, it is the complement of root span; a QR of
            # the zero-padded span leaves those columns out
            cover, tri = np.linalg.qr(root[zero] * span[zero])
            cover *= (np.abs(np.diagonal(tri, axis1=1, axis2=2))
                      > 0.0)[:, None, :]
            start = on_range(prev[:, :, None])[zero]
            alpha = (start - cover @ (_dag(cover) @ start))[:, :, 0]
            stuck = np.nonzero(np.linalg.norm(alpha, axis=1) <= 1e-8
                               * np.linalg.norm(start[:, :, 0], axis=1))[0]
            col = np.argmin(np.sum(np.abs(cover[stuck]) ** 2, axis=2),
                            axis=1)
            alpha[stuck] = -(cover[stuck] @ cover[stuck, col, :, None]
                             .conj())[:, :, 0]
            alpha[stuck, col] += 1.0
            cands[zero, :, 0] = root[zero][:, :, 0] * alpha
            masks[zero, 0] = True
        # back to x; of several candidates, the closest to ``previous``
        cands = cands / root
        if ev is not None:
            cands = ev @ cands
        pick = masks.argmax(axis=1)
        if masks.sum() > len(prev):
            norms = np.where(masks, np.linalg.norm(cands, axis=1), 1.0)
            scores = np.abs((prev.conj()[:, None, :] @ cands)[:, 0]) / norms
            pick = np.argmax(np.where(masks, scores, -1.0), axis=1)
        vec = cands[np.arange(len(prev)), :, pick]
        vec /= np.sqrt(np.einsum("bm,bm->b", vec.conj(), vec).real)[:, None]
        phase = np.einsum("bm,bm->b", prev.conj(), vec)
        turn = np.abs(phase) > 1e-12
        vec[turn] *= (phase[turn].conj() / np.abs(phase[turn]))[:, None]
        values[idx], best[idx] = target, vec
    return values, best
