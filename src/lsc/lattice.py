"""Finite lattice boxes and the operators assembled on them.

Every operator here has the form ``diag(v) - coupling * A`` with ``A`` the
adjacency pattern of nearest neighbors inside a box and Dirichlet
truncation at the boundary (couplings to outside points are dropped, the
diagonal keeps its full value).  This keeps the hopping part "Laplace
type": off-diagonal entries are nonpositive and interior row sums of the
hopping part vanish.  Dirichlet truncation only raises eigenvalues, and
for confining potentials the truncation error vanishes superexponentially
in the box size.

The module also builds the interval decompositions attached to the zeros
of a Hermite polynomial, the one-point spike modification of the quadratic
potential, and quadratic partitions of unity with their localization
remainders.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse

from . import eigensolve
from .errors import (
    BoxTooSmall,
    ConvergenceFailure,
    DegenerateDecomposition,
    OverlappingSupports,
    PartitionNotUnity,
)
from .potentials import Potential, ScalingParams, sample_on_lattice

__all__ = [
    "LatticeBox",
    "SymmetricLatticeOperator",
    "ModifiedPotentialParams",
    "IntervalDecomposition",
    "assemble_laplacian",
    "assemble_Hkappa",
    "assemble_HN",
    "assemble_modified",
    "build_interval_decomposition",
    "beta_rate_bound",
    "ims_partition",
    "ims_remainder",
    "ims_identity_residual",
    "double_commutator_norms",
    "partition_variation",
]


@dataclass(frozen=True)
class LatticeBox:
    """Axis-aligned product of integer ranges with a C-order index map."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        lo = tuple(int(v) for v in np.atleast_1d(self.lo))
        hi = tuple(int(v) for v in np.atleast_1d(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or any(a > b for a, b in zip(lo, hi)):
            raise ValueError(f"invalid box bounds lo={lo} hi={hi}")

    @classmethod
    def centered(cls, d: int, M: int) -> "LatticeBox":
        return cls(lo=(-int(M),) * d, hi=(int(M),) * d)

    @classmethod
    def interval(cls, a: int, b: int) -> "LatticeBox":
        return cls(lo=(int(a),), hi=(int(b),))

    @property
    def dimension(self) -> int:
        return len(self.lo)

    # computed on first use and kept in the instance dict, outside the fields that
    # equality, hashing and repr read; a frozen box never changes them
    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @functools.cached_property
    def size(self) -> int:
        return math.prod(self.shape)

    def index(self, point) -> int:
        pt = tuple(int(v) for v in np.atleast_1d(point))
        if not self.contains(pt):
            raise KeyError(f"{pt} outside box")
        return int(np.ravel_multi_index(
            tuple(p - l for p, l in zip(pt, self.lo)), self.shape
        ))

    def point(self, index: int) -> tuple[int, ...]:
        offs = np.unravel_index(int(index), self.shape)
        return tuple(int(o) + l for o, l in zip(offs, self.lo))

    def contains(self, point) -> bool:
        pt = np.atleast_1d(point)
        return bool(
            np.all(pt >= np.array(self.lo)) and np.all(pt <= np.array(self.hi))
        )

    def contains_box(self, other: "LatticeBox") -> bool:
        return all(a <= b for a, b in zip(self.lo, other.lo)) and all(
            a >= b for a, b in zip(self.hi, other.hi)
        )

    def coords(self) -> np.ndarray:
        if self.dimension != 1:
            raise ValueError("coords() is one-dimensional")
        return np.arange(self.lo[0], self.hi[0] + 1)

    def neighbor_index_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs (i, j), i < j, of nearest neighbors inside the box."""
        idx = np.arange(self.size).reshape(self.shape)
        sides = _neighbor_slices(self.dimension)
        return (np.concatenate([idx[a].ravel() for a, _ in sides]),
                np.concatenate([idx[b].ravel() for _, b in sides]))


def _neighbor_slices(d: int) -> list[tuple[tuple[slice, ...], tuple[slice, ...]]]:
    """Per axis, the slices of a box-shaped array at the first and the second
    point of every neighbor pair along that axis (C order within an axis)."""
    out = []
    for ax in range(d):
        first = [slice(None)] * d
        second = [slice(None)] * d
        first[ax] = slice(None, -1)
        second[ax] = slice(1, None)
        out.append((tuple(first), tuple(second)))
    return out


@dataclass(frozen=True, eq=False)
class SymmetricLatticeOperator:
    """Diagonal plus constant nearest-neighbor coupling, Dirichlet-truncated.

    The matrix is ``diag(diagonal)`` with entry ``-coupling`` between every
    pair of neighboring box points, hence exactly symmetric by
    construction.
    """

    box: LatticeBox
    diagonal: np.ndarray
    coupling: float

    def __post_init__(self):
        diag = np.asarray(self.diagonal, dtype=float).reshape(self.box.size)
        object.__setattr__(self, "diagonal", diag)
        if not self.coupling >= 0:
            raise ValueError(
                f"coupling must be nonnegative (Laplace-type sign), got {self.coupling}")

    @property
    def size(self) -> int:
        return self.box.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float).reshape(self.size)
        out = self.diagonal * v
        if self.coupling:
            g = v.reshape(self.box.shape)
            acc = np.zeros_like(g)
            for a, b in _neighbor_slices(self.box.dimension):
                acc[a] += g[b]
                acc[b] += g[a]
            out -= self.coupling * acc.reshape(self.size)
        return out

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        if self.box.dimension != 1:
            raise ValueError("tridiagonal storage is one-dimensional")
        return self.diagonal, np.full(self.size - 1, -self.coupling)

    def sparse(self) -> scipy.sparse.csr_matrix:
        """The operator as a CSR matrix (no size cap)."""
        i, j = self.box.neighbor_index_pairs()
        r = np.arange(self.size)
        off = np.full(i.size, -self.coupling)
        return scipy.sparse.csr_matrix(
            (np.concatenate([self.diagonal, off, off]),
             (np.concatenate([r, i, j]), np.concatenate([r, j, i]))),
            shape=(self.size, self.size),
        )

    def dense(self) -> np.ndarray:
        if self.size > 6000:
            raise MemoryError(f"dense assembly refused for size {self.size}")
        A = np.diag(self.diagonal)
        i, j = self.box.neighbor_index_pairs()
        A[i, j] = -self.coupling
        A[j, i] = -self.coupling
        return A

    def restrict(self, sub: LatticeBox) -> "SymmetricLatticeOperator":
        """Principal submatrix on a sub-box: outside couplings dropped."""
        if not self.box.contains_box(sub):
            raise ValueError("restriction target is not contained in the box")
        slices = tuple(
            slice(sl - bl, sh - bl + 1)
            for sl, sh, bl in zip(sub.lo, sub.hi, self.box.lo)
        )
        diag = self.diagonal.reshape(self.box.shape)[slices].reshape(sub.size)
        return SymmetricLatticeOperator(box=sub, diagonal=diag, coupling=self.coupling)

    def hopping_norm_bound(self) -> float:
        """Operator norm bound of the hopping part (4d * coupling)."""
        return 4.0 * self.box.dimension * self.coupling

    def dropped_neighbor_count(self) -> np.ndarray:
        """Per point, how many of the 2d couplings were cut by the boundary."""
        counts = np.zeros(self.box.shape, dtype=np.int64)
        for ax in range(self.box.dimension):
            sl_first = [slice(None)] * self.box.dimension
            sl_last = [slice(None)] * self.box.dimension
            sl_first[ax] = 0
            sl_last[ax] = -1
            counts[tuple(sl_first)] += 1
            counts[tuple(sl_last)] += 1
        return counts.reshape(self.size)


def assemble_laplacian(box: LatticeBox) -> SymmetricLatticeOperator:
    """Graph Laplacian ``(Lf)(x) = 2d f(x) - sum of neighbors`` on the box."""
    d = box.dimension
    return SymmetricLatticeOperator(
        box=box, diagonal=np.full(box.size, 2.0 * d), coupling=1.0
    )


def assemble_Hkappa(kappa: float, box: LatticeBox) -> SymmetricLatticeOperator:
    """One-dimensional quadratic-well operator ``Delta + kappa^4 x^2``."""
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if box.dimension != 1:
        raise ValueError("this reduced operator is one-dimensional")
    x = box.coords().astype(float)
    return SymmetricLatticeOperator(
        box=box, diagonal=2.0 + kappa**4 * x * x, coupling=1.0
    )


def assemble_HN(
    V: Potential, params: ScalingParams, box: LatticeBox
) -> SymmetricLatticeOperator:
    """Scaled lattice Schrodinger operator ``(N^2/2) Delta + N^(2(1-gamma)) V(./N)``."""
    if V.dimension != box.dimension:
        raise ValueError("potential and box dimension differ")
    N = params.N
    d = box.dimension
    coupling = 0.5 * float(N) ** 2
    strength = float(N) ** (2.0 * (1.0 - params.gamma))
    diag = d * float(N) ** 2 + strength * sample_on_lattice(V, N, box)
    return SymmetricLatticeOperator(box=box, diagonal=diag, coupling=coupling)


@dataclass(frozen=True)
class ModifiedPotentialParams:
    """One-point spike modification of the quadratic lattice potential.

    The potential keeps its quadratic values except at ``|x| = x_delta =
    floor(kappa^-(1+delta))`` where it is raised to ``kappa^-delta``.  The
    exponent is restricted to ``delta in (0, 1/2)``, the range in which the
    spiked comparison operator controls the quasimode error on the
    unbounded interval.
    """

    kappa: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError("spike exponent delta must lie in (0, 1/2)")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")
        if self.x_delta < 1:
            raise ValueError("spike location collapsed to the origin")
        if not self.spike_value > self.kappa**4 * self.x_delta**2:
            raise ValueError("spike does not dominate the quadratic potential")

    @property
    def x_delta(self) -> int:
        return int(math.floor(self.kappa ** -(1.0 + self.delta)))

    @property
    def spike_value(self) -> float:
        return self.kappa**-self.delta


def assemble_modified(
    params: ModifiedPotentialParams, box: LatticeBox
) -> SymmetricLatticeOperator:
    """The quadratic-well operator with the potential spiked at ``+-x_delta``."""
    if box.dimension != 1:
        raise ValueError("the modified operator is one-dimensional")
    xd = params.x_delta
    if not (box.contains((xd,)) and box.contains((-xd,))):
        raise BoxTooSmall(f"box {box.lo}..{box.hi} does not cover the spikes at +-{xd}")
    op = assemble_Hkappa(params.kappa, box)
    diag = op.diagonal.copy()
    x = box.coords()
    diag[np.abs(x) == xd] = 2.0 + params.spike_value
    return SymmetricLatticeOperator(box=box, diagonal=diag, coupling=1.0)


# ----------------------------------------------------------------------
# interval decomposition attached to Hermite zeros
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IntervalDecomposition:
    """Disjoint intervals whose union plus a few single points tiles the line.

    For degree ``n`` with nonnegative Hermite zeros ``z_1 < ... < z_k`` the
    positive intervals are ``I_j = [a_j, b_j]`` with scale factors
    ``beta_j`` anchoring ``beta_j kappa (a_j - 1)`` exactly at ``z_j``; the
    last interval is unbounded and gets capped at the truncation edge.  The
    excluded single points are ``+-(a_j - 1)``.  For even ``n`` a central
    interval ``[-(a_1 - 2), a_1 - 2]`` is included; for odd ``n`` the
    origin itself is an excluded point.  Degree 0 has no zeros: the whole
    line is one interval and nothing is excluded.
    """

    degree: int
    kappa: float
    zeros: np.ndarray
    a: np.ndarray
    b: np.ndarray
    beta: np.ndarray
    excluded: tuple[int, ...]

    @property
    def k(self) -> int:
        return int(self.a.size)

    def min_halfwidth(self) -> int:
        """Smallest truncation half-width on which the tiling makes sense."""
        return int(self.a[-1] + 1) if self.k else 1

    def pieces(self, M: int):
        """Concrete integer intervals ``(lo, hi, label, beta)`` on ``[-M, M]``.

        Labels run ``-k..k`` with 0 the central interval; the unbounded
        pieces are capped at ``+-M``.
        """
        M = int(M)
        if self.k == 0:
            return [(-M, M, 0, 1.0)]
        if M < self.min_halfwidth():
            raise BoxTooSmall(f"half-width {M} below {self.min_halfwidth()}")
        out = []
        if self.degree % 2 == 0:
            b0 = int(self.a[0]) - 2
            out.append((-b0, b0, 0, 1.0))
        for j in range(1, self.k + 1):
            lo = int(self.a[j - 1])
            hi = M if j == self.k else int(self.b[j - 1])
            out.append((lo, hi, j, float(self.beta[j - 1])))
            out.append((-hi, -lo, -j, float(self.beta[j - 1])))
        return out

    def cover_ok(self, M: int) -> bool:
        """Exact set check: pieces plus excluded points tile ``[-M, M]``."""
        marks = np.zeros(2 * int(M) + 1, dtype=np.int64)
        for lo, hi, _, _ in self.pieces(M):
            marks[lo + M : hi + M + 1] += 1
        for e in self.excluded:
            marks[e + M] += 1
            if e != 0:
                marks[-e + M] += 1
        return bool(np.all(marks == 1))


def build_interval_decomposition(n: int, kappa: float) -> IntervalDecomposition:
    """Construct the zero-anchored interval decomposition for degree ``n``.

    Raises :class:`DegenerateDecomposition` when ``kappa`` is too large for
    the inductive construction (an interval collapses or the first anchor
    has no room).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    from .hermite import nonnegative_zeros  # deferred: hermite builds on this module

    zs = nonnegative_zeros(n)
    k = zs.size
    if k == 0:
        return IntervalDecomposition(
            degree=n,
            kappa=kappa,
            zeros=zs,
            a=np.zeros(0, dtype=np.int64),
            b=np.zeros(0),
            beta=np.zeros(0),
            excluded=(),
        )
    a = np.zeros(k, dtype=np.int64)
    b = np.zeros(k)
    beta = np.zeros(k)
    for j in range(1, k + 1):
        zj = zs[j - 1]
        if j == 1:
            if zj == 0.0:
                a[0], beta[0] = 1, 1.0
            else:
                a[0] = int(math.floor(zj / kappa)) + 1
                if a[0] - 1 == 0:
                    raise DegenerateDecomposition(
                        f"kappa={kappa} too large: floor(z_1/kappa) = 0"
                    )
                beta[0] = zj / (kappa * (a[0] - 1))
        else:
            a[j - 1] = int(math.floor(zj / (beta[j - 2] * kappa))) + 1
            beta[j - 1] = zj / (kappa * (a[j - 1] - 1))
        if j == k:
            b[j - 1] = math.inf
        else:
            b[j - 1] = math.floor(zs[j] / (beta[j - 1] * kappa)) - 1
        if b[j - 1] < a[j - 1]:
            raise DegenerateDecomposition(
                f"interval {j} collapsed for degree {n} at kappa={kappa}"
            )
    excluded = sorted({int(aj) - 1 for aj in a})
    return IntervalDecomposition(
        degree=n, kappa=kappa, zeros=zs, a=a, b=b, beta=beta, excluded=tuple(excluded)
    )


def beta_rate_bound(n: int, kappa0: float) -> float:
    """Worst-case rate ``C`` with ``beta_j - 1 <= C kappa`` for all ``kappa <= kappa0``.

    The floor in the construction satisfies ``beta_j <= beta_{j-1} z_j /
    (z_j - beta_{j-1} kappa)``; iterating this envelope at ``kappa0`` and
    taking the largest ``(beta_j - 1) / kappa0`` dominates every finer mesh
    because the envelope rate is increasing in ``kappa``.
    """
    if not kappa0 > 0:
        raise ValueError(f"kappa0 must be positive, got {kappa0}")
    from .hermite import nonnegative_zeros

    zs = nonnegative_zeros(n)
    env = 1.0
    worst = 0.0
    for z in zs:
        if z == 0.0:
            continue
        denom = z - env * kappa0
        if denom <= 0:
            raise DegenerateDecomposition(f"kappa0={kappa0} too large for degree {n}")
        env = env * z / denom
        worst = max(worst, (env - 1.0) / kappa0)
    return worst


# ----------------------------------------------------------------------
# quadratic partitions of unity and the localization remainder
# ----------------------------------------------------------------------

# The partition functions are kept as windows: each one's values on a sub-box
# of the lattice box, and a constant fill (0 or 1) outside it.  ``lsc ims``
# keeps every bump on its support cube grown by one site, a ring of exact
# zeros, and eta_0 on the bumps' bounding box, on whose boundary eta_0 is
# exactly 1; a full array is the window over the whole box.  So every window
# holds every neighbor pair at which its function changes, and one
# implementation of each kernel serves both forms with no padding: elsewhere
# every function equals its exact fill, so each residual, commutator entry
# and variation there is exactly 0.  Local C order within a window maps
# monotonically to box order, so every pair list and commutator block comes
# out in the order of the full arrays.

class _Window(NamedTuple):
    """A partition function: ``values`` on the sub-box whose offsets from
    ``box.lo`` run from ``start`` up to ``stop = start + values.shape``, and
    ``fill`` everywhere else.  An empty window has ``start`` 0 and no values.
    In a partition, a window with fill 1 contains all the others."""

    start: tuple[int, ...]
    values: np.ndarray
    fill: float

    @property
    def stop(self) -> tuple[int, ...]:
        return tuple(map(operator.add, self.start, self.values.shape))

    @property
    def slices(self) -> tuple[slice, ...]:
        """The window within a box-shaped array."""
        return _block(self.start, self.values.shape)


def _block(offset, shape) -> tuple[slice, ...]:
    """Slices of the block of ``shape`` at ``offset``."""
    return tuple(map(slice, offset, map(operator.add, offset, shape)))


def _minus(a, b) -> tuple[int, ...]:
    return tuple(map(operator.sub, a, b))


def _hull(windows: Sequence[_Window], d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(start, stop)`` of the nonempty windows' bounding box; empty at the
    origin if there is none."""
    live = [w for w in windows if w.values.size]
    if not live:
        return (0,) * d, (0,) * d
    return (tuple(map(min, zip(*(w.start for w in live)))),
            tuple(map(max, zip(*(w.stop for w in live)))))


def _positive_range(c: float, r: float, lo: int, hi: int) -> tuple[int, int]:
    """First and last site ``x`` in ``[lo, hi]`` where ``2 - 2 |x - c| / r``
    is positive, by that very expression.

    The value falls as ``|x - c|`` grows, so these sites form an interval.
    They lie strictly within ``r`` of ``c``, hence between ``floor(c - r)``
    and ``ceil(c + r)`` even with those ends rounded, and the scan inward
    from those ends takes a few steps.  ``a > b`` means there are none.
    """
    a = lo if c - r <= lo else min(math.floor(c - r), hi + 1)
    b = hi if c + r >= hi else max(math.ceil(c + r), lo - 1)
    while a <= b and not 2.0 - 2.0 * abs(a - c) / r > 0.0:
        a += 1
    while b >= a and not 2.0 - 2.0 * abs(b - c) / r > 0.0:
        b -= 1
    return a, b


def _ims_windows(
    centers: Sequence, inner_radius: float, box: LatticeBox
) -> list[_Window]:
    """The partition of :func:`ims_partition`, ``eta_0`` first, as windows.

    Bump ``l`` is positive exactly on the lattice cube ``|x - c_l|_inf < r``
    clipped to the box, its support, and is kept on that cube grown by one
    site and clipped to the box: its expression is exactly 0 on the ring.
    Two supports share a point exactly when their ranges intersect on every
    axis.  ``eta_0`` is kept on the bounding box of the bump windows; it is
    1 outside.  Every value comes from the same floating-point operations as
    on the whole box.
    """
    if not inner_radius > 0:  # also rejects NaN
        raise ValueError("inner_radius must be positive")
    d = box.dimension
    bumps: list[_Window] = []
    supports = []  # per bump, the support's first and last site per axis
    for c in centers:
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if c.size != d:
            raise ValueError("partition center dimension mismatch")
        support, start, dists = [], [], []
        for ax, (cx, l, h) in enumerate(zip(c, box.lo, box.hi)):
            if not math.isfinite(cx):
                raise ValueError("partition centers must be finite")
            a, b = _positive_range(float(cx), inner_radius, l, h)
            support.append((a, b))
            # the support grown by one site and clipped to the box; this axis's
            # distances, shaped to broadcast along the later axes
            a, b = max(a - 1, l), min(b + 1, h)
            start.append(a - l)
            dist = np.abs(np.arange(a, b + 1) - cx)
            dists.append(dist.reshape((-1,) + (1,) * (d - 1 - ax)))
        if all(a <= b for a, b in support):
            # |x - c|_inf as the broadcast maximum of the per-axis distances
            dist = functools.reduce(np.maximum, dists)
            bump = _Window(tuple(start),
                           np.clip(2.0 - 2.0 * dist / inner_radius, 0.0, 1.0), 0.0)
        else:
            bump = _Window((0,) * d, np.zeros((0,) * d), 0.0)
        for other in supports:
            if all(max(a1, a2) <= min(b1, b2)
                   for (a1, b1), (a2, b2) in zip(support, other)):
                raise OverlappingSupports("two bump supports intersect")
        bumps.append(bump)
        supports.append(support)
    lo, hi = _hull(bumps, d)
    s2 = np.zeros(_minus(hi, lo))
    for w in bumps:
        if w.values.size:
            s2[_block(_minus(w.start, lo), w.values.shape)] += w.values * w.values
    return [_Window(lo, np.sqrt(np.clip(1.0 - s2, 0.0, None)), 1.0)] + bumps


def ims_partition(
    centers: Sequence, inner_radius: float, box: LatticeBox
) -> list[np.ndarray]:
    """Bump functions ``eta_l`` around the centers plus the complement ``eta_0``.

    Each bump is ``clip(2 - 2 |x - c|_inf / r, 0, 1)``: identically 1
    within ``r/2`` of its center, zero beyond ``r``, with single-step
    variation at most ``2/r``.  ``eta_0 = sqrt(1 - sum eta_l^2)`` completes
    the quadratic partition.  The functions are built on their support
    windows and returned as full arrays on the box, ``eta_0`` first.
    Raises :class:`OverlappingSupports` when two bump supports share a
    lattice point, and ``ValueError`` for a radius that is not positive
    (NaN included) or a center that is not finite.
    """
    etas = []
    for w in _ims_windows(centers, inner_radius, box):
        eta = np.full(box.size, w.fill) if w.fill else np.zeros(box.size)
        eta.reshape(box.shape)[w.slices] = w.values
        etas.append(eta)
    return etas


def _spans(
    box: LatticeBox, etas: Sequence
) -> tuple[tuple[int, ...], tuple[int, ...], list[tuple[tuple[slice, ...], np.ndarray]]]:
    """The kernels' region and each function's span within it.

    ``etas`` holds either full arrays on the box, each a window over the
    whole box, or windows.  The region is the windows' bounding box, and each
    function spans its window: every neighbor pair at which a function
    changes lies in its window, and a window with fill 1 contains the others,
    so it spans the region.  Returns the region's start and shape and, per
    function, its span as slices of the region with the function's values on
    the span.  A region-shaped array ``acc`` then holds the pairs along an
    axis of a span at ``acc[span][a]``, with ``(a, b)`` that axis's neighbor
    slices.
    """
    d = box.dimension
    if not (etas and isinstance(etas[0], _Window)):  # all spans are the box
        return (0,) * d, box.shape, [
            (_block((0,) * d, box.shape), np.asarray(eta, dtype=float).reshape(box.shape))
            for eta in etas]
    start, stop = _hull(etas, d)
    return start, _minus(stop, start), [
        (_block(_minus(w.start, start), w.values.shape), w.values) for w in etas]


def _check_partition(shape: tuple[int, ...], spans) -> np.ndarray:
    """``sum eta_j^2`` on the region; raises unless it is 1 within ``1e-12``.

    Outside the region the sum is that of the squared fills, which is 1 for
    every partition built here, so this checks every point where it can fail.
    """
    s2 = np.zeros(shape)
    for span, g in spans:
        view = s2[span]
        view += g ** 2
    if not np.max(np.abs(s2 - 1.0), initial=0.0) <= 1e-12:  # NaN fails too
        raise PartitionNotUnity("squared bumps do not sum to 1 within 1e-12")
    return s2


def _nonzero_pairs(
    shape: tuple[int, ...], offset, per_axis: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Box indices ``(i, j)`` and values of the nonzero entries of per-axis
    neighbor-pair arrays of the sub-box at ``offset``, in the pair order of
    :meth:`LatticeBox.neighbor_index_pairs`."""
    rows, cols, vals = [], [], []
    for ax, v in enumerate(per_axis):
        hit = np.nonzero(v)
        i = np.ravel_multi_index(
            tuple(h + o for h, o in zip(hit, offset)) if any(offset) else hit, shape)
        rows.append(i)
        cols.append(i + math.prod(shape[ax + 1:]))
        vals.append(v[hit])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def ims_remainder(
    op: SymmetricLatticeOperator, etas: Sequence[np.ndarray]
) -> scipy.sparse.coo_matrix:
    """Localization remainder ``(1/2) sum_j (eta_j^2 L + L eta_j^2 - 2 eta_j L eta_j)``.

    For multiplication operators the double commutator has entries
    ``L(x, y) (eta(x) - eta(y))^2``, so the remainder lives on the neighbor
    pairs only; it is assembled exactly as a sparse matrix.  Only the pairs
    of the bumps' windows are read; every other remainder entry is exactly 0.
    """
    start, shape, spans = _spans(op.box, etas)
    _check_partition(shape, spans)
    per_axis = []
    for a, b in _neighbor_slices(op.box.dimension):
        w = np.zeros(shape)
        for span, g in spans:
            view = w[span][a]
            view += (g[a] - g[b]) ** 2
        per_axis.append(-op.coupling * 0.5 * w[a])
    i, j, data = _nonzero_pairs(op.box.shape, start, per_axis)
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    return scipy.sparse.coo_matrix(
        (np.concatenate([data, data]), (rows, cols)), shape=(op.size, op.size)
    )


def ims_identity_residual(
    op: SymmetricLatticeOperator, etas: Sequence[np.ndarray]
) -> float:
    """Max-abs entry of ``H - sum eta_j H eta_j - remainder``, relative to ``|H|_max``.

    The identity is algebraic, so this measures pure rounding; values above
    ``1e-12`` indicate a broken partition.  Only the points and pairs of the
    windows are read: elsewhere every entry of the residual is exactly 0.
    """
    start, shape, spans = _spans(op.box, etas)
    sum_sq = _check_partition(shape, spans)
    off_max = []
    for a, b in _neighbor_slices(op.box.dimension):
        sum_prod = np.zeros(shape)
        sum_dd = np.zeros(shape)
        for span, g in spans:
            x, y = g[a], g[b]
            prod, dd = sum_prod[span][a], sum_dd[span][a]
            prod += x * y
            dd += (x - y) ** 2
        off_resid = -op.coupling * (1.0 - sum_prod[a] - 0.5 * sum_dd[a])
        off_max.append(np.abs(off_resid).max(initial=0.0))
    diag = op.diagonal.reshape(op.box.shape)[_block(start, shape)]
    diag_resid = diag * (1.0 - sum_sq)
    hmax = max(float(np.abs(op.diagonal).max()), op.coupling)
    worst = max(float(np.max(off_max)), float(np.abs(diag_resid).max(initial=0.0)))
    return worst / hmax


# commutator blocks in d >= 2 up to this size are solved densely: reproducible,
# and faster than ARPACK up to about 140 nodes; the smallest block of an
# ``lsc ims`` run on ``double_well_2d`` at N = 16 has 196 and stays on ARPACK
_DENSE_BLOCK_NODES = 128


def double_commutator_norms(
    op: SymmetricLatticeOperator, etas: Sequence[np.ndarray]
) -> list[float]:
    """Spectral norm of each ``[eta_j, [eta_j, L]]``.

    The commutator has entries ``-coupling (eta(x) - eta(y))^2`` on neighbor
    pairs and vanishes elsewhere, so only its support is kept; it is read
    from the pairs of each function's window.  That block
    has a zero diagonal, nonpositive off-diagonal entries and a bipartite
    pattern, hence a spectrum symmetric about 0 and norm ``-lambda_min``.
    In one dimension the support is a path and ``lambda_min`` comes from the
    LAPACK tridiagonal kernel.  In higher dimensions a block of at most
    ``_DENSE_BLOCK_NODES`` nodes is solved densely (``numpy.linalg.eigvalsh``);
    a larger one by Lanczos (ARPACK) at full precision, started from the
    all-ones vector, which overlaps the nonnegative Perron vector of the
    lowest eigenvalue.  On small blocks the Krylov space runs out and ARPACK
    restarts from its own generator, whose state persists between calls, so
    identical calls could differ in the last bits; the dense solve is
    reproducible and, at these sizes, faster.  An ARPACK failure raises
    :class:`ConvergenceFailure`.

    The support nodes are numbered in box order, so bumps that are
    translated copies of one another (the wells of a partition) give blocks
    with the same bytes: the same CSR arrays, or in one dimension the same
    path couplings.  Within one call each distinct block is solved once; a
    repeat gets the value of the first solve of the same solver input.
    """
    from scipy.sparse.linalg import ArpackError, eigsh

    box = op.box
    sides = _neighbor_slices(box.dimension)
    region, _, spans = _spans(box, etas)
    solved: dict = {}  # solver input bytes -> lambda_min, for this call only
    norms: list[float] = []
    for span, g in spans:
        start = [r + s.start for r, s in zip(region, span)]
        i, j, w = _nonzero_pairs(
            box.shape, start, [-op.coupling * (g[a] - g[b]) ** 2 for a, b in sides])
        if w.size == 0:
            norms.append(0.0)
            continue
        nodes, pos = np.unique(np.concatenate([i, j]), return_inverse=True)
        a, b = pos[: w.size], pos[w.size :]
        if nodes.size <= 2:
            lam_min = w.min()
        elif box.dimension == 1:
            # sorted path nodes: a support pair sits at positions (t, t + 1)
            off = np.zeros(nodes.size - 1)
            off[a] = w
            key = off.tobytes()
            if key not in solved:
                path = (np.zeros(nodes.size), off)
                solved[key] = eigensolve.eigs_tridiag(path, 1).values[0]
            lam_min = solved[key]
        else:
            B = scipy.sparse.csr_matrix(
                (np.concatenate([w, w]),
                 (np.concatenate([a, b]), np.concatenate([b, a]))),
                shape=(nodes.size, nodes.size),
            )
            key = (B.data.tobytes(), B.indices.tobytes(), B.indptr.tobytes())
            if key not in solved and nodes.size <= _DENSE_BLOCK_NODES:
                solved[key] = np.linalg.eigvalsh(B.toarray())[0]
            elif key not in solved:
                try:
                    solved[key] = eigsh(B, k=1, which="SA", v0=np.ones(nodes.size),
                                        tol=0, return_eigenvectors=False)[0]
                except ArpackError as exc:  # includes ArpackNoConvergence
                    raise ConvergenceFailure(str(exc)) from exc
            lam_min = solved[key]
        norms.append(float(-lam_min))
    return norms


def partition_variation(
    box: LatticeBox, etas: Sequence[np.ndarray]
) -> list[float]:
    """Measured single-step variation ``sup_{|x-y|=1} |eta(x) - eta(y)|`` per bump,
    read from the pairs of each function's window (every step outside it is 0)."""
    sides = [s for s, n in zip(_neighbor_slices(box.dimension), box.shape) if n > 1]
    return [float(np.max([np.abs(g[a] - g[b]).max(initial=0.0) for a, b in sides]))
            for _, g in _spans(box, etas)[2]]
