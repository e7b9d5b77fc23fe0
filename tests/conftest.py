import itertools
import math

import numpy as np
import pytest

from sepwit import Permutation


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
