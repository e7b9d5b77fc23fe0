"""Constructors for the benchmark states used by the tests and the CLI.

Covers noisy projected pure states, the five-mode three-particle
partial-separability example, geometric-amplitude GHZ-type states on
relabeled modes, and their uniformly dephased mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroProjectionError
from .tensor import (DensityOperator, SpaceConfig, StateVector, Statistics,
                     basis_product_vector, project, require_int,
                     sector_isometry)


def sinc(x: float) -> float:
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    return 1.0 if x == 0.0 else math.sin(x) / x


def noisy_state(psi: StateVector, stats: Statistics, p: float) -> DensityOperator:
    """Mixture of the projected, normalized pure part (weight p) with the
    maximally mixed state of the sector (weight 1 - p):
    rho = p |psi~><psi~| + (1 - p) P / tr(P), whose noise rows are the
    columns of the sector isometry S, written with the pure row into one
    block.  A part of weight 0 is left out."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise parameter p={p} outside [0, 1]")
    projected = project(stats, psi)
    if projected.norm() < 1e-12:
        raise ZeroProjectionError("pure part projects to zero")
    sector = sector_isometry(stats, psi.space)
    rows = np.zeros((1 + sector.shape[1], sector.shape[0]), dtype=complex)
    rows[0] = projected.normalized().amplitudes
    sector.toarray(out=rows[1:].T)
    weights = np.r_[p, np.full(sector.shape[1], (1.0 - p) / sector.shape[1])]
    keep = slice(int(p == 0.0), None if p < 1.0 else 1)    # a view, no copy
    return DensityOperator(psi.space, weights=weights[keep], vectors=rows[keep])


def fig1_state_family(d: int, stats: Statistics) -> StateVector:
    """Maximally balanced two-particle state for each statistics.

    Distinguishable and boson: all d Schmidt-type coefficients equal to
    d**-0.5.  Fermion: floor(d/2) Slater pairs with equal weights, so
    odd dimensions leave one unused mode.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    space = SpaceConfig(d, 2)
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    if stats is Statistics.FERMION:
        a = np.arange(0, d - 1, 2)      # pair modes a and a + 1
        amps[a * d + a + 1] = 1.0 / math.sqrt(2 * a.size)
        amps[(a + 1) * d + a] = -amps[a * d + a + 1]
    else:
        amps[::d + 1] = 1.0 / math.sqrt(d)
    return StateVector(space, amps)


def fig1_bound(d: int, selector: Statistics | int) -> tuple[float, int]:
    """(separable bound G, sector dimension D) for the balanced family.

    ``selector`` is a Statistics member, or an integer r for the
    distinguishable Schmidt-rank-r bound.
    """
    if not isinstance(selector, Statistics):
        if not 1 <= require_int(selector, "selector") <= d:
            raise ValueError(f"Schmidt level {selector} outside 1..{d}")
        return selector / d, d * d
    if selector is Statistics.DISTINGUISHABLE:
        return 1.0 / d, d * d
    if selector is Statistics.BOSON:
        return 2.0 / d, d * (d + 1) // 2
    pairs = d // 2
    return 1.0 / pairs, d * (d - 1) // 2


def detection_threshold(d: int, selector: Statistics | int) -> float:
    """Noise threshold p* below which the balanced state's own witness
    stops detecting: solves p + (1 - p)/D = G.  Returns 1.0 (flagged
    undetectable) when the bound reaches 1."""
    bound, dim = fig1_bound(d, selector)
    if bound >= 1.0 - 1e-12 or dim <= 1:
        return 1.0
    return (bound * dim - 1.0) / (dim - 1.0)


def appendix_b_states() -> tuple[StateVector, StateVector]:
    """Symmetrized and antisymmetrized copies of the three-particle,
    five-mode vector |0> x (|1,2> + |3,4>): partially separable states
    that are provably not fully separable."""
    space = SpaceConfig(5, 3)
    raw = (basis_product_vector(space, (0, 1, 2)).amplitudes
           + basis_product_vector(space, (0, 3, 4)).amplitudes)
    psi = StateVector(space, raw)
    return (project(Statistics.BOSON, psi), project(Statistics.FERMION, psi))


@dataclass(frozen=True)
class GhzFamily:
    """Geometric-amplitude GHZ-type family on relabeled modes.

    Term n occupies the n-th block of N consecutive modes; the
    single-mode dimension is N * (n_max + 1).  The truncation deficit
    of the norm is bounded by |q| ** (2 * (n_max + 1)).
    """

    n_parties: int
    q: complex
    stats: Statistics
    n_max: int
    space: SpaceConfig = field(init=False)
    tail_bound: float = field(init=False)

    def __post_init__(self):
        if not abs(self.q) < 1.0:
            raise ValueError(f"|q| = {abs(self.q)} must be < 1")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        d = self.n_parties * (self.n_max + 1)
        object.__setattr__(self, "space", SpaceConfig(d, self.n_parties))
        object.__setattr__(self, "tail_bound",
                           abs(self.q) ** (2 * (self.n_max + 1)))

    def term_vector(self, n: int) -> StateVector:
        """Projected, unit-norm n-th product term."""
        labels = range(n * self.n_parties, (n + 1) * self.n_parties)
        raw = basis_product_vector(self.space, labels)
        nu = self.stats.norm_factor(self.n_parties)
        return StateVector(self.space,
                           math.sqrt(nu) * project(self.stats, raw).amplitudes)

    def amplitude(self, n: int) -> complex:
        return math.sqrt(1.0 - abs(self.q) ** 2) * self.q ** n

    def state(self) -> StateVector:
        amps = sum(self.amplitude(n) * self.term_vector(n).amplitudes
                   for n in range(self.n_max + 1))
        return StateVector(self.space, amps).normalized()


def ghz_state(n_parties: int, q: complex, stats: Statistics,
              n_max: int = 8) -> StateVector:
    """Normalized truncated GHZ-type state; see GhzFamily for labeling."""
    return GhzFamily(n_parties, q, stats, n_max).state()


def dephased_ghz(family: GhzFamily, delta: float) -> DensityOperator:
    """Uniformly dephased GHZ-type mixture, truncated at family.n_max:
    the amplitude r = |q| fixed and the phase averaged uniformly over
    [-delta, +delta].  Its rows are the eigenvectors of the coefficient
    kernel in the orthonormal projected term basis, kept where their
    weight exceeds 1e-14."""
    if not 0.0 <= delta <= math.pi:
        raise ValueError(f"delta={delta} outside [0, pi]")
    r = abs(family.q)
    n = np.arange(family.n_max + 1)
    kernel = ((1.0 - r * r) * r ** np.add.outer(n, n)
              * np.sinc(delta / math.pi * np.subtract.outer(n, n)))
    weights, vectors = np.linalg.eigh(kernel)
    keep = weights > 1e-14
    rows = vectors[:, keep].T @ [family.term_vector(t).amplitudes for t in n]
    # trace is 1 minus the truncation tail, deliberately not rescaled
    return DensityOperator(family.space, weights=weights[keep], vectors=rows,
                           normalized=False)


def ghz_expectation(r: float, delta: float) -> float:
    """Closed-form interference signal of the dephased family:
    2 (1 - r**2) r sinc(delta).  Independent of the particle number, the
    statistics, and the truncation order."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r={r} outside [0, 1)")
    return 2.0 * (1.0 - r * r) * r * sinc(delta)
