"""A fixed reference kernel that measures the speed of the host, not of
``sepwit``.

On a shared VM the speed of the same code drifts by a quarter or more
over minutes, as other tenants load the host, and that drift, not the
program, set the spread of ``wall_s`` and ``setup_s`` between runs.  The
worker times this kernel after every pass and after its set-up, and
run.py scales the median pass and set-up times by ``NOMINAL_S`` over the
mean kernel time of the same run: the times are reported as they
would be on a host on which the kernel takes ``NOMINAL_S``.  A change to
the program moves the passes but not the kernel, so it shows in full.

Each kernel run takes about 0.1 s, and a worker runs it for a tenth
of the time it measures, so the mean kernel time of a run rests on
dozens of runs.  The kernel mixes the three kinds of work the
workloads do: interpreted Python, many small numpy calls (``eigh`` on 8 x 8 blocks, ``einsum``)
and dense BLAS and LAPACK at a few hundred modes.  It uses numpy only,
never ``sepwit``, and its inputs are fixed.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's mean time on a 2-vCPU x86-64 VM (OpenBLAS 0.3.31,
# numpy 2.4, one BLAS thread)
NOMINAL_S = 0.1

_rng = np.random.default_rng(20130311)
_SMALL = _rng.standard_normal((4, 8, 8))
_SMALL = _SMALL + _SMALL.transpose(0, 2, 1)
_TENSOR = _rng.standard_normal((8, 8, 8))
_DENSE = _rng.standard_normal((384, 384))
_DENSE = _DENSE + _DENSE.T


def _kernel() -> None:
    acc, table = 0, {}
    for i in range(130_000):
        table[i & 1023] = acc
        acc = (acc + i * i) % 1_000_003
    for _ in range(330):
        for block in _SMALL:
            np.linalg.eigh(block)
        np.einsum("abc,ab->c", _TENSOR, _SMALL[0])
    np.linalg.eigh(_DENSE)
    _DENSE @ _DENSE


def warm_up() -> None:
    """Run the kernel once untimed, so the timed runs do not pay for
    loading LAPACK or growing the heap."""
    _kernel()


def sample(budget_s: float) -> list[float]:
    """Wall times of back-to-back runs of the kernel, in seconds, until
    they add up to ``budget_s``; at least one run."""
    times: list[float] = []
    while not times or sum(times) < budget_s:
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times
