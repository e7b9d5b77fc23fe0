"""Dense complex tensor algebra on N-fold products of a d-dimensional mode space.

Conventions used by every module in this package:

* Composite indices are flattened big-endian: the multi-index
  (i_1, ..., i_N) maps to sum_j i_j * d**(N-1-j).  This is exactly
  numpy's C-order flattening of an N-axis tensor whose axes all have
  size d, so reshaping a state of length d**N to shape (d,)*N gives
  one axis per particle slot, slot 0 first.
* Exchange projectors are applied matrix-free, as P = S S^H through the
  orbit tables of the sector isometry S (``sector_isometry``): column c
  of S is the orbit of the c-th sorted mode label under slot
  permutations, one entry per distinct arrangement of modulus
  1/sqrt(orbit size), signed by the permutation's parity for fermions.
  No full-space index lies in two orbits, so S is stored as one table
  per orbit size and applied by gathers and scatters.  S is built from
  the labels, not from the signed sum over all N! slot permutations,
  which the tests keep as the independent reference
  (``conftest.project_full_sum``).  Explicit projector matrices are
  only built for small spaces (side <= MATRIX_CAP).
* Mode labels are 0-based everywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionCapError, HermiticityError

# Size caps.  Violations are construction-time errors, never silent truncation.
PERM_CAP = 720            # largest allowed N!
VECTOR_CAP = 2_000_000    # largest allowed d**N for amplitude vectors
# bytes of stacked party arrays per batch of solver starts; more run in chunks
BATCH_BYTES = 64 * 2 ** 20
MATRIX_CAP = 4096         # largest side for explicitly built operator matrices
_SLAB_BYTES = 2 * 2 ** 20  # bytes of matrix rows validated at a time

TOL_HERM = 1e-10          # relative to max(1, largest entry)
TOL_TRACE = 1e-10


def require_int(value, name: str) -> int:
    """``value`` as an int; raises ValueError, naming ``name``, unless it
    is an integer (numpy integers included, bools not)."""
    try:
        out = operator.index(value)
    except TypeError:
        out = None
    if out is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return out


def _row_slabs(m: np.ndarray, label: str) -> list[slice]:
    """Slices of about _SLAB_BYTES of rows of the square matrix ``m``:
    the checks below run one slab at a time, so none of their
    temporaries is the size of the matrix.  ValueError, naming
    ``label``, unless ``m`` is square."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{label} must be a square matrix, got shape "
                         f"{m.shape}")
    step = max(1, _SLAB_BYTES // max(1, m[:1].nbytes))
    return [slice(at, at + step) for at in range(0, len(m), step)]


def frozen_copy(matrix) -> np.ndarray:
    """A read-only complex128 copy of ``matrix``, or ``matrix`` itself
    where it is such a copy already: a read-only complex128 array that
    owns its data, as another object's frozen copy does.  A writable
    array, or a view, is always copied."""
    if isinstance(matrix, np.ndarray) and matrix.dtype == np.complex128 \
            and matrix.flags.owndata and not matrix.flags.writeable:
        return matrix
    out = np.array(matrix, dtype=np.complex128)
    out.setflags(write=False)
    return out


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Largest entrywise deviation from Hermitian symmetry of a square
    matrix."""
    m = np.asarray(matrix)
    return float(np.max([np.abs(m[rows] - m[:, rows].T.conj()).max()
                         for rows in _row_slabs(m, "matrix")], initial=0.0))


def require_hermitian(matrix: np.ndarray, label: str = "operator") -> np.ndarray:
    """The matrix as complex128; ValueError, naming ``label``, if it is
    not square or an entry is not finite, and HermiticityError if its
    defect exceeds TOL_HERM times max(1, largest entry)."""
    m = np.asarray(matrix, dtype=np.complex128)
    scale = 1.0
    for rows in _row_slabs(m, label):
        if not np.isfinite(m[rows]).all():
            raise ValueError(f"{label} must be finite")
        scale = max(scale, float(np.abs(m[rows]).max()))
    defect = hermiticity_defect(m)
    if defect > TOL_HERM * scale:
        raise HermiticityError(f"{label} is not Hermitian "
                               f"(max asymmetry {defect:.3e})")
    return m


class Statistics(Enum):
    """Exchange statistics of the N particles.

    Selects which operator plays the role of the identity on physical
    states: the full identity (distinguishable subsystems), the
    symmetrizer (bosons), or the antisymmetrizer (fermions).
    """

    DISTINGUISHABLE = "distinguishable"
    BOSON = "boson"
    FERMION = "fermion"

    @property
    def is_projected(self) -> bool:
        return self is not Statistics.DISTINGUISHABLE

    def norm_factor(self, n: int) -> int:
        """Sector normalization nu: N! for bosons/fermions, 1 otherwise."""
        return math.factorial(n) if self.is_projected else 1

    @classmethod
    def parse(cls, text: str) -> "Statistics":
        if not isinstance(text, str):
            raise ValueError(f"statistics must be a string, got {text!r}")
        key = text.strip().lower()
        aliases = {"d": cls.DISTINGUISHABLE, "b": cls.BOSON, "f": cls.FERMION}
        if key in aliases:
            return aliases[key]
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown statistics {text!r}; "
                         f"use distinguishable, boson, or fermion")


@dataclass(frozen=True)
class SpaceConfig:
    """Shape of the composite space: n particles, each of dimension d."""

    d: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "d", require_int(self.d, "d"))
        object.__setattr__(self, "n", require_int(self.n, "n"))
        if self.d < 1 or self.n < 1:
            raise ValueError(f"d and n must be positive, got d={self.d}, n={self.n}")
        if math.factorial(self.n) > PERM_CAP:
            raise DimensionCapError(
                f"n={self.n} gives {math.factorial(self.n)} permutations, "
                f"cap is {PERM_CAP}")
        if self.d ** self.n > VECTOR_CAP:
            raise DimensionCapError(
                f"d**n = {self.d ** self.n} exceeds the vector cap {VECTOR_CAP}")

    @property
    def total_dim(self) -> int:
        return self.d ** self.n

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.d,) * self.n


def _cycle_parity(mapping0: Sequence[int]) -> int:
    """Parity (transposition count mod 2) of a 0-based permutation."""
    n = len(mapping0)
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        pos = start
        while not seen[pos]:
            seen[pos] = True
            pos = mapping0[pos]
    return (n - cycles) % 2


@dataclass(frozen=True)
class Permutation:
    """A permutation of the n particle slots, stored as 1-based images.

    mapping[j] is the slot whose content ends up in slot j+1, matching
    the action  slot j  <-  content of slot mapping[j]  on product
    vectors: the permuted product of (a_1, ..., a_n) is
    (a_mapping[0], ..., a_mapping[n-1]).
    """

    mapping: tuple[int, ...]
    parity: int = field(init=False)

    def __post_init__(self):
        mapping = tuple(int(m) for m in self.mapping)
        object.__setattr__(self, "mapping", mapping)
        n = len(mapping)
        if sorted(mapping) != list(range(1, n + 1)):
            raise ValueError(f"{mapping} is not a bijection on 1..{n}")
        object.__setattr__(self, "parity",
                           _cycle_parity([m - 1 for m in mapping]))

    @property
    def n(self) -> int:
        return len(self.mapping)

    @property
    def axes(self) -> tuple[int, ...]:
        """0-based axes tuple for numpy transpose."""
        return tuple(m - 1 for m in self.mapping)

    @property
    def sign(self) -> int:
        return -1 if self.parity else 1

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))


@dataclass(frozen=True)
class StateVector:
    """A (generally unnormalized) vector on the composite space."""

    space: SpaceConfig
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.space.total_dim,):
            raise ValueError(
                f"amplitude length {amps.shape} does not match "
                f"total_dim {self.space.total_dim}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.space, self.amplitudes / nrm)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per particle slot (read-only view)."""
        return self.amplitudes.reshape(self.space.dims)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A density operator: a dense ``matrix``, or the mixture
    sum_r w_r |v_r><v_r| of one read-only block of ``weights`` (m,) and
    unit rows ``vectors`` (m, total_dim), which are set together.  A
    matrix must be positive semidefinite: an eigenvalue below -TOL_TRACE
    times max(1, largest |eigenvalue|) is rejected.  The block is
    checked as one: entries must be finite, a weight below
    -TOL_TRACE is rejected and a smaller negative one clipped to 0, and
    a row whose norm is off 1 by more than 1e-9 is normalized, a zero
    row rejected.  ``normalized`` asks for trace 1 within TOL_TRACE.
    """

    space: SpaceConfig
    matrix: np.ndarray | None = None
    weights: np.ndarray | None = None
    vectors: np.ndarray | None = None
    normalized: bool = True

    def __post_init__(self):
        if (self.matrix is None) == (self.weights is None) \
                or (self.weights is None) != (self.vectors is None):
            raise ValueError("give either matrix, or weights and vectors")
        dim = self.space.total_dim
        if self.matrix is not None:
            m = frozen_copy(self.matrix)
            if m.shape != (dim, dim):
                raise ValueError(f"matrix shape {m.shape}, expected {(dim, dim)}")
            require_hermitian(m, "density matrix")
            if self.normalized and abs(np.trace(m).real - 1.0) > TOL_TRACE:
                raise ValueError(f"trace {np.trace(m):.3e} is not 1")
            spectrum = np.linalg.eigvalsh(m)
            if spectrum[0] < -TOL_TRACE * max(1.0, np.abs(spectrum).max()):
                raise ValueError(f"density matrix has the negative "
                                 f"eigenvalue {spectrum[0]:.3e}")
            object.__setattr__(self, "matrix", m)
            return
        w = np.array(self.weights, dtype=np.float64)
        rows = np.array(self.vectors, dtype=np.complex128)
        if w.ndim != 1 or rows.shape != (w.size, dim):
            raise ValueError(f"weights {w.shape} and vectors {rows.shape} "
                             f"are not (m,) and (m, {dim})")
        if not (np.isfinite(w).all() and np.isfinite(rows).all()):
            raise ValueError("mixture must be finite")
        if (w < -TOL_TRACE).any():
            raise ValueError(f"negative mixture weight {w.min()}")
        # a slab at a time, in place: whole-block temporaries take 2 blocks
        for slab in np.array_split(rows, max(1, rows.nbytes // _SLAB_BYTES)):
            norms = np.linalg.norm(slab, axis=1, keepdims=True)
            if not norms.all():
                raise ValueError("cannot normalize the zero vector")
            np.divide(slab, norms, out=slab, where=np.abs(norms - 1.0) > 1e-9)
        w = np.maximum(w, 0.0)
        if self.normalized and abs(w.sum() - 1.0) > TOL_TRACE:
            raise ValueError("mixture weights do not sum to 1")
        for name, value in (("weights", w), ("vectors", rows)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def from_matrix(cls, space: SpaceConfig, matrix: np.ndarray,
                    normalized: bool = True) -> "DensityOperator":
        return cls(space, matrix=matrix, normalized=normalized)

    @classmethod
    def from_pure(cls, state: StateVector) -> "DensityOperator":
        return cls.from_mixture([(1.0, state.normalized())])

    @classmethod
    def from_mixture(cls, pairs: Iterable[tuple[float, StateVector]],
                     normalized: bool = True) -> "DensityOperator":
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("empty mixture")
        weights, states = zip(*pairs)
        space = states[0].space
        strays = {v.space for v in states} - {space}
        if strays:
            raise ValueError(f"mixture mixes spaces {space} and {strays.pop()}")
        return cls(space, weights=weights,
                   vectors=[v.amplitudes for v in states],
                   normalized=normalized)

    def trace(self) -> float:
        if self.matrix is not None:
            return float(np.trace(self.matrix).real)
        return float(self.weights.sum())

    def to_matrix(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        dim = self.space.total_dim
        if dim > MATRIX_CAP:
            raise DimensionCapError(
                f"densifying a mixture of side {dim} exceeds cap {MATRIX_CAP}")
        return (self.vectors.T * self.weights) @ self.vectors.conj()


# ---------------------------------------------------------------------------
# index flattening

def flatten_index(multi_index: Sequence[int], space: SpaceConfig) -> int:
    """Big-endian flat index of a multi-index, slot 0 most significant."""
    if len(multi_index) != space.n:
        raise ValueError(f"expected {space.n} components, got {len(multi_index)}")
    flat = 0
    for component in multi_index:
        c = int(component)
        if not 0 <= c < space.d:
            raise ValueError(f"component {c} out of range [0, {space.d})")
        flat = flat * space.d + c
    return flat


def unflatten_index(index: int, space: SpaceConfig) -> tuple[int, ...]:
    """Inverse of :func:`flatten_index`."""
    if not 0 <= index < space.total_dim:
        raise ValueError(f"index {index} out of range [0, {space.total_dim})")
    out = []
    for _ in range(space.n):
        index, rem = divmod(index, space.d)
        out.append(rem)
    return tuple(reversed(out))


def basis_product_vector(space: SpaceConfig, labels: Sequence[int]) -> StateVector:
    """The computational basis product vector |labels[0], ..., labels[n-1]>."""
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[flatten_index(labels, space)] = 1.0
    return StateVector(space, amps)


def product_vector(space: SpaceConfig,
                   factors: Sequence[np.ndarray]) -> StateVector:
    """Tensor product of n single-particle vectors."""
    if len(factors) != space.n:
        raise ValueError(f"expected {space.n} factors, got {len(factors)}")
    for f in factors:
        if np.shape(f) != (space.d,):
            raise ValueError("factor dimension mismatch")
    amps = reduce(np.kron, [np.asarray(f, dtype=np.complex128) for f in factors])
    return StateVector(space, amps)


# ---------------------------------------------------------------------------
# permutations and projectors

def apply_permutation(sigma: Permutation, v: StateVector) -> StateVector:
    """Permute particle slots: the product of (a_1,...,a_n) becomes the
    product of (a_sigma(1),...,a_sigma(n)).  Matrix-free."""
    if sigma.n != v.space.n:
        raise ValueError(f"permutation acts on {sigma.n} slots, "
                         f"state has {v.space.n}")
    out = v.tensor().transpose(sigma.axes).reshape(-1).copy()
    return StateVector(v.space, out)


def sector_basis_labels(stats: Statistics, space: SpaceConfig) -> list[tuple[int, ...]]:
    """Canonical label tuples indexing the sector basis, sorted."""
    modes = range(space.d)
    if stats is Statistics.BOSON:
        return list(itertools.combinations_with_replacement(modes, space.n))
    if stats is Statistics.FERMION:
        return list(itertools.combinations(modes, space.n))
    return list(itertools.product(modes, repeat=space.n))


class SectorIsometry:
    """The real isometry S of a sector, as read-only orbit tables.

    Each group of ``groups`` holds the columns whose orbits have one
    size s: their positions ``cols``, an (s, len(cols)) array ``index``
    of full-space indices, one sign per slot of the orbit and the
    coefficient 1/sqrt(s) shared by the group's entries.
    """

    def __init__(self, shape: tuple[int, int], groups):
        self.shape = shape
        self.groups = tuple(groups)
        for table in (t for group in self.groups for t in group[:3]):
            table.setflags(write=False)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """S^H x for a full-space vector or a (dim, batch) array."""
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[0]:
            raise ValueError(f"S^H of shape {self.shape[::-1]} cannot "
                             f"apply to shape {x.shape}")
        out = np.empty((self.shape[1],) + x.shape[1:], dtype=np.complex128)
        for cols, index, signs, coeff in self.groups:
            acc = x[index[0]]
            for slot, sign in zip(index[1:], signs[1:]):
                if sign > 0:
                    acc += x[slot]
                else:
                    acc -= x[slot]
            acc *= coeff
            out[cols] = acc
        return out

    def toarray(self, out: np.ndarray | None = None) -> np.ndarray:
        """The dense (dim, sector dimension) complex array of S, written
        into ``out`` where given: zeros of that shape, a view allowed."""
        if out is None:
            out = np.zeros(self.shape, dtype=np.complex128)
        for cols, index, signs, coeff in self.groups:
            out[index, cols] = (coeff * signs)[:, None]
        return out

    def apply(self, y: np.ndarray) -> np.ndarray:
        """S y for a sector vector or a (sector dimension, batch) array."""
        y = np.asarray(y)
        if y.ndim not in (1, 2) or y.shape[0] != self.shape[1]:
            raise ValueError(f"S of shape {self.shape} cannot apply to "
                             f"shape {y.shape}")
        out = np.zeros((self.shape[0],) + y.shape[1:], dtype=np.complex128)
        for cols, index, signs, coeff in self.groups:
            part = coeff * y[cols]
            for slot, sign in zip(index, signs):
                out[slot] = part if sign > 0 else -part
        return out


@lru_cache(maxsize=64)
def sector_isometry(stats: Statistics, space: SpaceConfig) -> SectorIsometry:
    """Isometry from sector coordinates into the full product space,
    built once per (statistics, space) and shared: its tables are
    read-only."""
    n, d, dim = space.n, space.d, space.total_dim
    if not stats.is_projected:
        every = np.arange(dim)
        return SectorIsometry((dim, dim), [(every, every[None], np.ones(1),
                                            1.0)])
    labels = np.array(sector_basis_labels(stats, space),
                      dtype=np.intp).reshape(-1, n)
    perms = list(itertools.permutations(range(n)))
    # flat[c, p]: big-endian index of label c rearranged by perm p
    flat = labels[:, perms] @ (d ** np.arange(n - 1, -1, -1, dtype=np.intp))
    groups = []
    if stats is Statistics.FERMION:
        # labels strictly increasing: all n! arrangements are distinct,
        # the first being the identity
        signs = np.array([-1.0 if _cycle_parity(p) else 1.0 for p in perms])
        groups.append((np.arange(labels.shape[0]), flat.T.copy(), signs,
                       1.0 / math.sqrt(len(perms))))
    else:
        # a sorted row lists each distinct arrangement len(perms)/s times
        flat.sort(axis=1)
        sizes = 1 + np.count_nonzero(np.diff(flat, axis=1), axis=1)
        for size in np.unique(sizes):
            cols = np.nonzero(sizes == size)[0]
            index = flat[cols, ::len(perms) // size].T.copy()
            groups.append((cols, index, np.ones(size),
                           1.0 / math.sqrt(size)))
    return SectorIsometry((dim, labels.shape[0]), groups)


def project_amplitudes(stats: Statistics, amplitudes: np.ndarray,
                       space: SpaceConfig) -> np.ndarray:
    """Apply the exchange projector P = S S^H to raw amplitudes, S the
    sector isometry's orbit tables: one gather and one scatter.

    Accepts a vector of length total_dim or a 2-D array whose columns
    are vectors (batched).  Returns a new array of the same shape, a
    copy for distinguishable parties.
    """
    arr = np.asarray(amplitudes, dtype=np.complex128)
    if not stats.is_projected:
        return arr.copy()
    sector = sector_isometry(stats, space)
    return sector.apply(sector.adjoint(arr))


def project(stats: Statistics, v: StateVector) -> StateVector:
    """Exchange projector: symmetrize (bosons), antisymmetrize (fermions),
    or return the vector unchanged (distinguishable).

    A fermionic input with a repeated factor projects to the zero
    vector; callers that need a nonzero physical state must check.
    """
    if not stats.is_projected:
        return v
    return StateVector(v.space, project_amplitudes(stats, v.amplitudes, v.space))


def projector_matrix(stats: Statistics, space: SpaceConfig) -> np.ndarray:
    """Explicit dense projector matrix.  Only for small spaces."""
    dim = space.total_dim
    if dim > MATRIX_CAP:
        raise DimensionCapError(
            f"projector matrix of side {dim} exceeds cap {MATRIX_CAP}")
    return project_amplitudes(stats, np.eye(dim, dtype=np.complex128), space)


def project_operator(stats: Statistics, operator: np.ndarray,
                     space: SpaceConfig) -> np.ndarray:
    """Sandwich a dense operator between exchange projectors: P O P =
    S (S^H O S) S^H, through an m x m middle only (S real, so S^H = S^T
    and both sides are gathers and scatters of the orbit tables)."""
    operator = np.asarray(operator, dtype=np.complex128)
    if not stats.is_projected:
        return operator.copy()
    sector = sector_isometry(stats, space)
    middle = sector.adjoint(sector.adjoint(operator).T).T
    return sector.apply(sector.apply(middle.T).T)


def symmetrize_operator(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Average of Y_sigma(1) x ... x Y_sigma(n) over all slot permutations.

    Each factor must be Hermitian; the result commutes with both
    exchange projectors.
    """
    n = len(factors)
    if n < 1:
        raise ValueError("need at least one factor")
    mats = [np.asarray(f, dtype=np.complex128) for f in factors]
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("factors must be square and of equal size")
        require_hermitian(m, "factor")
    if math.factorial(n) > PERM_CAP:
        raise DimensionCapError("permutation count exceeds cap")
    if d ** n > MATRIX_CAP:
        raise DimensionCapError(
            f"operator side {d ** n} exceeds matrix cap {MATRIX_CAP}")
    out = np.zeros((d ** n, d ** n), dtype=np.complex128)
    for axes in itertools.permutations(range(n)):
        out += reduce(np.kron, [mats[a] for a in axes])
    out /= math.factorial(n)
    return out


def partial_trace_first(rho: DensityOperator) -> DensityOperator:
    """Trace out the first particle slot, returning an operator on the
    remaining n-1 slots.  Preserves the trace."""
    space = rho.space
    if space.n < 2:
        raise ValueError("partial trace needs at least two slots")
    rest = space.d ** (space.n - 1)
    small = SpaceConfig(space.d, space.n - 1)
    if rho.matrix is not None:
        t = rho.matrix.reshape(space.d, rest, space.d, rest)
        reduced = np.trace(t, axis1=0, axis2=2)
    else:
        blocks = rho.vectors.reshape(-1, rest)
        reduced = (blocks.T * np.repeat(rho.weights, space.d)) @ blocks.conj()
    return DensityOperator.from_matrix(small, reduced, normalized=rho.normalized)


def subspace_dimension(stats: Statistics, space: SpaceConfig) -> int:
    """Trace of the sector identity: the number of physical basis states."""
    d, n = space.d, space.n
    if stats is Statistics.BOSON:
        return math.comb(d + n - 1, n)
    if stats is Statistics.FERMION:
        return math.comb(d, n)
    return d ** n
