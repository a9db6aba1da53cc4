"""Eigenvalue machinery: LAPACK tridiagonal solves, spectral diagnostics.

Low-lying eigenvalues of symmetric tridiagonal matrices come from LAPACK
``dstebz`` (Sturm-count bisection) and eigenvectors from ``dstein``
(inverse iteration with re-orthogonalization inside clusters), both at the
absolute tolerance ``2 * tiny``, LAPACK's most accurate setting.  On
``H_kappa`` the lowest levels then agree with an extended-precision Sturm
count to about 2e-14 relative at ``kappa = 0.05`` and 1.5e-11 at
``kappa = 4096^(-3/4)``, where ``E / |H|`` is about 1e-6.  Lattice
operators in ``d >= 2`` are solved by shift-invert Lanczos (ARPACK) on a
fill-reducing sparse LU, and their eigenvalue index is certified by a block
Sylvester-inertia count, the d-dimensional analogue of the Sturm count: a
block LDL^T along axis 0 whose pivot blocks are factored by LAPACK
``dsytrf``, the symmetric-indefinite factorization of Bunch and Kaufman
(Math. Comp. 31 (1977) 163), whose 1x1 and 2x2 diagonal blocks carry each
pivot's inertia.  In every dimension the truncation of an operator on
``Z^d`` to a box is certified by a Dirichlet-Neumann bracket, the box
doubling until the bracket closes: its Neumann side is Sturm counts in 1-d,
and one inertia count with Temple-Lehmann lower bounds from the Dirichlet
Ritz vectors in ``d >= 2``.  Dense solves (``numpy.linalg.eigvalsh``) are
used only as independent oracles in tests.

Operators are passed either as a ``(diagonal, offdiagonal)`` pair or as any
object exposing ``tridiagonal()`` / ``matvec()`` / ``sparse()`` /
``dense()`` in the style of :class:`lsc.lattice.SymmetricLatticeOperator`.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    AllZero,
    BoxTooSmall,
    ConvergenceFailure,
    Exhausted,
    IllConditionedSpan,
    NonPositiveFunction,
    ZeroVector,
)

__all__ = [
    "SpectrumResult",
    "NodalReport",
    "eigs_tridiag",
    "eigs_sparse",
    "count_below",
    "eigvec_inverse_iteration",
    "eigenpairs",
    "eigs_separable",
    "k_smallest_sums",
    "nodal_domains",
    "classify_symmetry",
    "verify_superharmonic",
    "rayleigh",
    "subspace_upper_bounds",
    "converged_spectrum",
    "dense_eigvalsh",
]

RESIDUAL_RTOL = 1e-8
BOX_DOUBLING_RTOL = 1e-11
MAX_DOUBLINGS = 14
MAX_BOX_POINTS = 2**22  # converged_spectrum assembles no doubled box above this
NODAL_ZERO_RTOL = 1e-9  # entries below this fraction of the sup norm count as zeros
SYMMETRY_RTOL = 1e-8
_STEBZ_TOL = 2 * np.finfo(float).tiny  # LAPACK's most accurate absolute tolerance


def _as_tridiagonal(op) -> tuple[np.ndarray, np.ndarray]:
    if hasattr(op, "tridiagonal"):
        diag, off = op.tridiagonal()
    else:
        diag, off = op
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if diag.ndim != 1 or off.shape != (max(diag.size - 1, 0),):
        raise ValueError("expected a (diagonal, offdiagonal) tridiagonal pair")
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    return diag, off


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Sorted low-lying eigenvalues with optional vectors and metadata.

    ``truncation_width`` is set on every :func:`converged_spectrum` result,
    in any dimension, where a Dirichlet-Neumann bracket certified the box
    truncation: per level, how far the Dirichlet value may lie above the
    level on the whole lattice, which is the acceptance tolerance
    ``BOX_DOUBLING_RTOL * (1 + |E|)``.  A solve on a given box
    (:func:`eigs_tridiag`, :func:`eigs_sparse`) leaves it ``None``.
    """

    values: np.ndarray
    vectors: np.ndarray | None = None
    residual_norms: np.ndarray | None = None
    box: object | None = None
    truncation_width: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        # one value is always ordered; most solves here ask for one
        if values.size > 1 and (values[1:] < values[:-1]).any():
            raise ValueError("eigenvalues must be nondecreasing")


@dataclass(frozen=True)
class NodalReport:
    """Sign-run count of an eigenvector on the path graph."""

    count: int
    index: int | None = None
    symmetry: str | None = None


def _stebz(diag: np.ndarray, off: np.ndarray, k: int | None = None,
           upper: float | None = None):
    """The one LAPACK ``dstebz`` call, in one of two modes.

    ``k``: the lowest ``k`` eigenvalues of a finite tridiagonal pair
    (``RANGE='I'``) at absolute tolerance ``_STEBZ_TOL``, in the block order
    that ``dstein`` takes (sorted, they equal the ascending ``"E"`` order), with
    ``iblock`` and ``isplit``.

    ``upper``: the number of eigenvalues ``<= upper`` (``RANGE='V'`` over
    ``(-inf, upper]``), a Sturm count.  The infinite tolerance marks every
    interval converged after its first midpoint, so each diagonal block costs
    three Sturm sequences (its Gershgorin interval's two ends and one
    midpoint), not a bisection.

    ``info < 0`` raises ``ValueError``; ``info > 0`` or a short return raises
    :class:`ConvergenceFailure`."""
    if diag.size == 1:
        if upper is not None:
            return int(diag[0] <= upper)
        return diag.copy(), np.ones(1, np.int32), np.ones(1, np.int32)
    if upper is None:  # RANGE='I', indices 1..k
        args = (2, 0.0, 1.0, 1, k, _STEBZ_TOL)
    else:  # RANGE='V', the half-open (-inf, upper]
        args = (1, -np.inf, upper, 0, 0, np.inf)
    m, values, iblock, isplit, info = scipy.linalg.lapack.dstebz(diag, off, *args, "B")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal dstebz")
    if info > 0:
        raise ConvergenceFailure(f"dstebz did not converge (LAPACK info={info})")
    if upper is not None:
        return m
    if m != k:
        raise ConvergenceFailure(f"dstebz returned {m} of {k} eigenvalues")
    return values[:k], iblock, isplit


def _stein(diag: np.ndarray, off: np.ndarray, values: np.ndarray, iblock: np.ndarray,
           isplit: np.ndarray) -> np.ndarray:
    """Eigenvectors (columns) for block-ordered ``values`` by the one LAPACK
    ``dstein`` call: inverse iteration, re-orthogonalized within clusters.
    ``info < 0`` raises ``ValueError``; ``info > 0`` :class:`ConvergenceFailure`."""
    if diag.size == 1:
        return np.ones((1, values.size))
    vectors, info = scipy.linalg.lapack.dstein(diag, off, values, iblock, isplit)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal dstein")
    if info > 0:
        raise ConvergenceFailure(f"{info} eigenvectors failed to converge in dstein")
    return vectors


def _signed_residuals(diag: np.ndarray, off: np.ndarray, values: np.ndarray,
                      vectors: np.ndarray) -> np.ndarray:
    """Flip each column of ``vectors`` in place so that its first entry above
    ``1e-12`` of its sup norm is positive, and return the residual norms
    ``|Hv - lam v|``.  A residual above ``1e-8 (1 + |lam|)`` (or NaN) raises
    :class:`ConvergenceFailure`."""
    mags = np.abs(vectors)
    first = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    vectors *= np.where(vectors[first, np.arange(values.size)] < 0, -1.0, 1.0)
    hv = diag[:, None] * vectors
    hv[:-1] += off[:, None] * vectors[1:]
    hv[1:] += off[:, None] * vectors[:-1]
    residuals = np.linalg.norm(hv - values * vectors, axis=0)
    tol = RESIDUAL_RTOL * (1.0 + np.abs(values))
    if not np.all(residuals <= tol):
        worst = int(np.argmax(residuals / tol))  # a NaN counts as the worst
        raise ConvergenceFailure(
            f"eigenvector {worst} has residual {residuals[worst]:.1e} "
            f"above {tol[worst]:.1e}"
        )
    return residuals


def eigs_tridiag(op, k: int) -> SpectrumResult:
    """Lowest ``k`` eigenvalues by LAPACK ``dstebz`` Sturm-count bisection.

    The absolute tolerance ``2 * tiny`` is LAPACK's most accurate setting;
    the default ``tol=0`` (``eps * |H|``) loses digits on levels far below
    ``|H|``.  ``dstebz`` is called directly; the values and the checks are
    those of ``scipy.linalg.eigvalsh_tridiagonal(..., lapack_driver="stebz")``
    without its per-call overhead: NaN or inf entries and a LAPACK argument
    error (``info < 0``) raise ``ValueError``, a bisection failure
    (``info > 0``) raises :class:`ConvergenceFailure`.
    """
    diag, off = _as_tridiagonal(op)
    if not 1 <= k <= diag.size:
        raise ValueError(f"k={k} out of range for size {diag.size}")
    return SpectrumResult(values=np.sort(_stebz(diag, off, k)[0]),
                          box=getattr(op, "box", None))


def _negative_inertia(ldu: np.ndarray, ipiv: np.ndarray, tiny: float) -> int:
    """Negative eigenvalues of the block-diagonal ``B`` of a lower ``dsytrf``
    factorization: a 1x1 block where ``ipiv > 0``, a 2x2 block where two
    consecutive entries are negative.  ``-1`` when a block may have an
    eigenvalue of magnitude at most ``tiny``."""
    d = ldu.diagonal()
    if ipiv.min() > 0:  # 1x1 blocks only: the usual case, taken without the masks
        return -1 if np.abs(d).min() <= tiny else int(np.count_nonzero(d < 0.0))
    first = np.flatnonzero(ipiv < 0)[::2]
    one = np.ones(d.size, dtype=bool)
    one[first] = one[first + 1] = False
    a, c, b = d[first], d[first + 1], ldu[first + 1, first]
    # Bunch-Kaufman takes a 2x2 pivot only when it is indefinite, det <= -(1 -
    # alpha^2) b^2, so it holds one negative eigenvalue; and |det| / (|a| + |b| +
    # |c|) is at most the magnitude of its smaller one
    if (np.any(np.abs(d[one]) <= tiny)
            or np.any(a * c - b * b >= -tiny * (np.abs(a) + np.abs(b) + np.abs(c)))):
        return -1
    return int(np.count_nonzero(d[one] < 0.0)) + first.size


def count_below(op, theta: float) -> int:
    """Number of eigenvalues of a lattice operator below ``theta``.

    Sylvester's law of inertia on a block LDL^T factorization of ``H -
    theta`` along axis 0, the d-dimensional analogue of a Sturm count: with
    ``T_r`` the operator on the ``r``-th axis-0 slab and ``-c I`` the
    coupling between neighboring slabs, the pivots are ``D_1 = T_1 - theta``
    and ``D_r = T_r - theta - c^2 D_{r-1}^{-1}``, and the count is the number
    of negative eigenvalues over all ``D_r``.  Each pivot block is factored
    by LAPACK ``dsytrf`` (Bunch-Kaufman: ``P D_r P^T = L B L^T`` with ``B``
    block diagonal in 1x1 and 2x2 blocks), and ``B`` has the inertia of
    ``D_r``; ``dsytri`` then gives ``D_r^{-1}`` from the same factors.  Only
    lower triangles are referenced, so the upper ones stay zero.

    A non-finite pivot raises :class:`ConvergenceFailure`, and so does a
    numerically singular one: a block of ``B`` with an eigenvalue of
    magnitude at most ``m eps max|D_r|`` (``m`` the slab size), for the
    rounding of ``D_r^{-1}`` after such a pivot can flip later counts.  This
    happens when ``theta`` is (within rounding) an eigenvalue of the first
    slab block or of a leading run of slabs.
    """
    box = op.box
    n0 = box.shape[0]
    slab = dataclasses.replace(box, hi=(box.lo[0],) + tuple(box.hi[1:]))
    hop = np.asfortranarray(np.tril(op.restrict(slab).dense(), -1))
    diag = op.diagonal.reshape(n0, -1) - theta
    c2 = float(op.coupling) ** 2
    m = hop.shape[0]
    lwork = int(scipy.linalg.lapack.dsytrf_lwork(m, lower=1)[0])
    schur = np.zeros_like(hop)  # c^2 D_{r-1}^{-1}, lower triangle
    at = np.diag_indices(m)
    count = 0
    for r in range(n0):
        D = hop - schur
        D[at] += diag[r]
        scale = np.abs(D).max()  # NaN or inf when an entry is
        if not np.isfinite(scale):
            raise ConvergenceFailure(f"non-finite block pivot {r} in the inertia count")
        ldu, ipiv, info = scipy.linalg.lapack.dsytrf(D, lower=1, lwork=lwork,
                                                     overwrite_a=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of internal dsytrf")
        negatives = _negative_inertia(ldu, ipiv, m * np.finfo(float).eps * scale)
        if info > 0 or negatives < 0:
            raise ConvergenceFailure(f"singular block pivot {r} in the inertia count")
        count += negatives
        schur = scipy.linalg.lapack.dsytri(ldu, ipiv, lower=1, overwrite_a=1)[0]
        schur *= c2  # dsytri's info is 0: no block of B is singular
    return count


def _ritz_pairs(op, wanted: int) -> tuple[np.ndarray, np.ndarray]:
    """The one shift-invert Lanczos (ARPACK) call: the lowest ``wanted`` Ritz
    pairs of a lattice operator, values ascending and unit vectors as columns.

    The shift ``sigma`` lies strictly below the Gershgorin bound, so that the
    largest values of ``(H - sigma)^{-1}`` are the lowest of ``H``.  ``H -
    sigma`` is factored once by SuperLU with the ``MMD_AT_PLUS_A`` ordering
    (minimum degree on the symmetric pattern, about half the fill of the
    default ``COLAMD`` on these operators) and passed to ARPACK as ``OPinv``.
    The start vector has a fixed seed, so reruns are byte-identical, and
    overlaps every symmetry class.  An ARPACK error raises
    :class:`ConvergenceFailure`."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

    reach = 2.0 * op.box.dimension * float(op.coupling)
    lo = float(op.diagonal.min()) - reach
    sigma = lo - 1e-3 * (1.0 + abs(lo))
    shifted = dataclasses.replace(op, diagonal=op.diagonal - sigma).sparse()
    lu = splu(shifted.tocsc(), permc_spec="MMD_AT_PLUS_A")
    OPinv = LinearOperator(shifted.shape, lu.solve, dtype=float)
    v0 = np.random.default_rng(1234).standard_normal(op.size)
    try:
        values, vectors = eigsh(op.sparse(), k=wanted, sigma=sigma, which="LM", tol=0,
                                v0=v0, OPinv=OPinv)
    except ArpackError as exc:  # includes ArpackNoConvergence
        raise ConvergenceFailure(str(exc)) from exc
    order = np.argsort(values)
    return values[order], vectors[:, order]


def _rounding_level(op) -> float:
    """``1e3 eps ||H||`` (Gershgorin norm): a gap narrower than this between
    two candidates may be rounding."""
    reach = 2.0 * op.box.dimension * float(op.coupling)
    return 1e3 * np.finfo(float).eps * (float(np.abs(op.diagonal).max()) + reach)


def _candidate_sets(op, k: int):
    """Sorted Ritz pairs of ``op`` for ``k + 1`` candidates, then twice as many
    at each step, up to ``size - 1`` of them, each with the index ``j`` of the
    first gap at or above candidate ``k`` wider than :func:`_rounding_level`,
    or ``j = 0`` when there is none: candidates ``0 .. j - 1`` lie below it."""
    if not 1 <= k <= op.size - 2:
        raise ValueError(f"k={k} out of range for size {op.size}")
    rounding = _rounding_level(op)
    wanted = k + 1
    while True:
        values, vectors = _ritz_pairs(op, wanted)
        wide = np.flatnonzero(np.diff(values[k - 1:]) > rounding)
        yield values, vectors, k + int(wide[0]) if wide.size else 0
        if wanted == op.size - 1:
            return
        wanted = min(2 * wanted, op.size - 1)


def _exhausted(op, k: int, miss: tuple[int, float, int] | None) -> ConvergenceFailure:
    """The failure once ``size - 1`` candidates still do not certify their
    index: ``miss = (count, point, expected)`` of the last count, ``None``
    when no gap above candidate ``k - 1`` was wider than the rounding level."""
    if miss is None:
        return ConvergenceFailure(
            f"no gap wider than {_rounding_level(op):.3g} above candidate {k - 1}")
    count, point, expected = miss
    return ConvergenceFailure(f"index certificate failed: {count} eigenvalues below "
                              f"{point:.17g}, expected {expected}")


def eigs_sparse(op, k: int) -> SpectrumResult:
    """Lowest ``k`` eigenvalues of a lattice operator with no tridiagonal form.

    Candidates are ``k + 1`` Ritz values from one shift-invert Lanczos
    (ARPACK) solve at full precision on a fill-reducing sparse LU of ``H -
    sigma`` (:func:`_ritz_pairs`), the call that :func:`converged_spectrum`
    makes in ``d >= 2``, so both return bitwise the same values on the same
    box.  The index is then certified at the first gap at or above candidate
    ``k`` wider than the rounding level ``1e3 eps ||H||`` (Gershgorin norm):
    :func:`count_below` at the midpoint of candidates ``j - 1`` and ``j`` of
    that gap must be exactly ``j``, else :class:`ConvergenceFailure` is
    raised.  A missed or doubled eigenvalue therefore cannot pass silently.
    Usually the gap is at ``j = k``; when ``k`` splits a degenerate cluster,
    or the count disagrees because ARPACK missed a copy of a degenerate level,
    the number of candidates is doubled and the search repeated, up to ``size
    - 1`` of them.  When the midpoint makes a block pivot singular, the count
    is taken once more at the quarter point of the same gap.
    """
    miss = None
    for values, _, j in _candidate_sets(op, k):
        if j:
            point = 0.5 * (values[j - 1] + values[j])
            try:
                count = count_below(op, point)
            except ConvergenceFailure:
                # the midpoint is an eigenvalue of a slab block; every point
                # strictly inside the gap certifies the same index
                point = values[j - 1] + 0.25 * (values[j] - values[j - 1])
                count = count_below(op, point)
            if count == j:
                return SpectrumResult(values=values[:k], box=op.box)
        miss = (count, point, j) if j else None
    raise _exhausted(op, k, miss)


def dense_eigvalsh(op) -> np.ndarray:
    """All eigenvalues via a dense symmetric solve (test oracle)."""
    if hasattr(op, "dense"):
        return np.linalg.eigvalsh(op.dense())
    diag, off = _as_tridiagonal(op)
    A = np.diag(diag)
    if off.size:
        A += np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(A)


def eigvec_inverse_iteration(op, lam: float) -> np.ndarray:
    """Normalized eigenvector for a computed eigenvalue ``lam``: one LAPACK
    ``dstein`` inverse iteration with the whole matrix as one block.

    The sign and residual rules are those of :func:`eigenpairs`: the first
    entry above ``1e-12`` of the sup norm is positive, and a residual
    ``|Hv - lam v|`` above ``1e-8 (1 + |lam|)`` raises
    :class:`ConvergenceFailure`.
    """
    diag, off = _as_tridiagonal(op)
    if not np.isfinite(lam):
        raise ValueError("eigenvalue must be finite")
    values = np.array([lam], dtype=float)
    block = np.ones(diag.size, np.int32)  # iblock = 1; isplit = n (only entry 1 is read)
    vectors = _stein(diag, off, values, block, diag.size * block)
    _signed_residuals(diag, off, values, vectors)
    return vectors[:, 0]


def eigenpairs(op, k: int) -> SpectrumResult:
    """Lowest ``k`` eigenpairs from LAPACK ``dstebz`` + ``dstein``, ascending.

    ``dstein`` re-orthogonalizes vectors within clusters of close values.
    Each vector's first entry above ``1e-12`` of its sup norm is positive.
    The residual contract ``|Hv - lam v| <= 1e-8 (1 + |lam|)`` is checked;
    a breach raises :class:`ConvergenceFailure`.  Values and vectors equal
    those of ``scipy.linalg.eigh_tridiagonal(..., lapack_driver="stebz")``
    at the same tolerance, up to the sign rule.
    """
    diag, off = _as_tridiagonal(op)
    if not 1 <= k <= diag.size:
        raise ValueError(f"k={k} out of range for size {diag.size}")
    values, iblock, isplit = _stebz(diag, off, k)
    vectors = _stein(diag, off, values, iblock, isplit)
    order = np.argsort(values)
    values, vectors = values[order], vectors[:, order]
    residuals = _signed_residuals(diag, off, values, vectors)
    return SpectrumResult(values=values, vectors=vectors, residual_norms=residuals,
                          box=getattr(op, "box", None))


def k_smallest_sums(lists: Sequence[Sequence[float]], k: int):
    """The ``k`` smallest sums picking one entry per sorted list.

    Best-first heap enumeration; ties are resolved by the lexicographic
    multi-index, so the output order is deterministic.  Returns a list of
    ``(value, multi_index)`` pairs.  Raises :class:`Exhausted` when fewer
    than ``k`` combinations exist.
    """
    arrays = [np.asarray(l, dtype=float) for l in lists]
    if any(a.size == 0 for a in arrays):
        raise Exhausted("an axis list is empty")
    total = 1
    for a in arrays:
        total *= a.size
        if total >= k:
            break
    if total < k:
        raise Exhausted(f"only {total} combinations available, requested {k}")
    start = (0,) * len(arrays)
    heap = [(float(sum(a[0] for a in arrays)), start)]
    seen = {start}
    out: list[tuple[float, tuple[int, ...]]] = []
    while heap and len(out) < k:
        value, idx = heapq.heappop(heap)
        out.append((value, idx))
        for ax, a in enumerate(arrays):
            if idx[ax] + 1 < a.size:
                nxt = idx[:ax] + (idx[ax] + 1,) + idx[ax + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(
                        heap, (float(sum(arr[i] for arr, i in zip(arrays, nxt))), nxt)
                    )
    return out


def eigs_separable(axis_spectra: Sequence[Sequence[float]], k: int) -> np.ndarray:
    """Lowest ``k`` sums of one eigenvalue per axis (separable operators)."""
    return np.array([v for v, _ in k_smallest_sums(axis_spectra, k)])


def nodal_domains(vec: np.ndarray, index: int | None = None) -> NodalReport:
    """Count maximal runs of constant nonzero sign on a path graph.

    Entries below ``NODAL_ZERO_RTOL`` times the sup norm count as zeros and
    separate domains.  Raises :class:`AllZero` when nothing survives.
    """
    v = np.asarray(vec, dtype=float)
    cut = NODAL_ZERO_RTOL * np.abs(v).max()
    signs = np.sign(v)
    signs[np.abs(v) < cut] = 0
    runs = 0
    prev = 0
    for s in signs:
        if s == 0:
            prev = 0
        elif s != prev:
            runs += 1
            prev = s
    if runs == 0:
        raise AllZero("every entry is below the zero threshold")
    symmetry = classify_symmetry(v) if v.size % 2 == 1 else None
    return NodalReport(count=runs, index=index, symmetry=symmetry)


def classify_symmetry(vec: np.ndarray) -> str:
    """Classify a vector on a symmetric box as symmetric / antisymmetric / neither."""
    v = np.asarray(vec, dtype=float)
    if v.size % 2 != 1:
        raise ValueError("symmetry classification needs a box symmetric about 0")
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ZeroVector("cannot classify the zero vector")
    if np.linalg.norm(v - v[::-1]) <= SYMMETRY_RTOL * nrm:
        return "symmetric"
    if np.linalg.norm(v + v[::-1]) <= SYMMETRY_RTOL * nrm:
        return "antisymmetric"
    return "neither"


def verify_superharmonic(op, alpha: float, u: np.ndarray):
    """Pointwise check that ``(H + alpha) u >= 0`` on the operator's box.

    ``u`` lives on the operator's box and is implicitly zero outside it.
    A ``True`` verdict certifies that the ground energy of ``H`` is at
    least ``-alpha``.  Returns ``(ok, min_slack)``.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise NonPositiveFunction("certificate function must be > 0 on the box")
    slack = op.matvec(u) + alpha * u
    min_slack = float(slack.min())
    return min_slack >= 0.0, min_slack


def rayleigh(op, vec: np.ndarray) -> float:
    """Rayleigh quotient ``<v, Hv> / <v, v>``."""
    v = np.asarray(vec, dtype=float)
    denom = float(np.dot(v, v))
    if denom == 0.0:
        raise ZeroVector("Rayleigh quotient of the zero vector")
    return float(np.dot(v, op.matvec(v))) / denom


def subspace_upper_bounds(op, test_vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Ritz values on the span of the test vectors (certified upper bounds).

    Solves ``A y = theta B y`` with ``A_ij = <v_i, H v_j>`` and
    ``B_ij = <v_i, v_j>``; by the min-max principle ``theta_n >= E_n``.
    Linear dependence is judged on the equilibrated Gram matrix
    ``D^{-1/2} B D^{-1/2}`` with ``D = diag(B)``, so vectors of very
    different norms are not rejected for their scale alone.
    """
    V = np.column_stack([np.asarray(v, dtype=float) for v in test_vectors])
    HV = np.column_stack([op.matvec(V[:, j]) for j in range(V.shape[1])])
    A = V.T @ HV
    A = 0.5 * (A + A.T)
    B = V.T @ V
    B = 0.5 * (B + B.T)
    norms = np.sqrt(np.diag(B))
    if not np.all(norms > 0) or np.linalg.cond(B / np.outer(norms, norms)) > 1e12:
        raise IllConditionedSpan("Gram matrix of test vectors is too ill-conditioned")
    return scipy.linalg.eigh(A, B, eigvals_only=True)


def _bracket_tridiag(op, k: int, floor: float) -> SpectrumResult | None:
    """The bracket on a 1-d box: the Dirichlet levels ``cur`` by
    :func:`eigs_tridiag`, certified when ``nu`` just below the floor is at
    least ``k`` and ``nu(cur_j - tol_j) <= j`` for every ``j < k``, with
    ``nu(x)`` the Neumann levels ``<= x`` by a ``dstebz`` Sturm count."""
    cur = eigs_tridiag(op, k)
    tol = BOX_DOUBLING_RTOL * (1.0 + np.abs(cur.values))
    if cur.values[-1] - tol[-1] >= floor:  # neither condition can hold
        return None
    neu = op.diagonal - op.coupling * op.dropped_neighbor_count()
    off = op.tridiagonal()[1]
    if (_stebz(neu, off, upper=np.nextafter(floor, -np.inf)) >= k
            and all(_stebz(neu, off, upper=x) <= j
                    for j, x in enumerate(cur.values - tol))):
        return dataclasses.replace(cur, truncation_width=tol)
    return None


def _lehmann_lower(neu, rho: float, V: np.ndarray) -> np.ndarray | None:
    """Lower bounds of the top ``j`` levels of ``neu`` below ``rho``, given
    that exactly ``j`` (the columns of ``V``) lie below it, ascending; ``None``
    when the pencil yields no bound for every one of them.

    With ``R = (neu - rho) V`` the values ``tau`` of the pencil ``(V^T R, R^T
    R)`` are the Ritz values of ``(neu - rho)^{-1}`` on the span of ``R``.
    The lowest eigenvalues of that inverse are ``1 / (neu_{j-1-i} - rho)``,
    so by interlacing each ``tau_i < 0`` gives ``neu_{j-1-i} >= rho + 1 /
    tau_i`` (Temple-Lehmann: N. J. Lehmann, ZAMM 29 (1949) 341; C. Beattie
    and F. Goerisch, Numer. Math. 72 (1995) 143)."""
    R = dataclasses.replace(neu, diagonal=neu.diagonal - rho).sparse() @ V
    A = V.T @ R
    B = R.T @ R
    try:
        tau = scipy.linalg.eigh(0.5 * (A + A.T), 0.5 * (B + B.T), eigvals_only=True)
    except np.linalg.LinAlgError:  # R^T R is not numerically positive definite
        return None
    if not np.all(tau < 0.0):
        return None
    return (rho + 1.0 / tau)[::-1]


def _bracket_sparse(op, k: int, floor: float) -> SpectrumResult | None:
    """The bracket on a ``d >= 2`` box by one Neumann inertia count and
    Lehmann lower bounds; the rule is set out in :func:`converged_spectrum`.
    A Dirichlet count that disagrees with the candidates below ``rho`` means
    ARPACK missed a level: the candidates double as in :func:`eigs_sparse`,
    and at ``size - 1`` of them :class:`ConvergenceFailure` is raised."""
    neu = dataclasses.replace(
        op, diagonal=op.diagonal - op.coupling * op.dropped_neighbor_count())
    for values, vectors, j in _candidate_sets(op, k):
        tol = BOX_DOUBLING_RTOL * (1.0 + np.abs(values[:k]))
        if values[k - 1] - tol[-1] >= floor:  # no lower bound can reach cur - tol
            return None
        miss = None
        if j:
            rho = min(0.5 * (values[j - 1] + values[j]), np.nextafter(floor, -np.inf))
            try:
                count = count_below(neu, rho)
            except ConvergenceFailure:  # rho is an eigenvalue of a Neumann slab block
                return None
            if count == j:
                lower = _lehmann_lower(neu, rho, vectors[:, :j])
                if lower is None or np.any(lower[:k] < values[:k] - tol):
                    return None
                return SpectrumResult(values=values[:k], box=op.box, truncation_width=tol)
            expected = int(np.count_nonzero(values < rho))
            count = count_below(op, rho)
            if count == expected:  # the candidates are right: the box is too small
                return None
            miss = (count, rho, expected)
    raise _exhausted(op, k, miss)


def converged_spectrum(
    assemble: Callable[[int], object],
    M0: int,
    k: int,
    outside_floor: Callable[[int], float],
) -> SpectrumResult:
    """Lowest ``k`` levels of a lattice operator on ``Z^d``, certified on a
    truncated box by a Dirichlet-Neumann bracket, in any dimension ``d``.

    ``assemble(M)`` builds the Dirichlet operator on the half-width ``M``
    box; ``outside_floor(M)`` is a lower bound of its potential part
    ``W = diagonal - 2 d coupling`` at every lattice point outside that box.
    Cutting the boundary bonds lowers the form, so ``H_Z >= H_box^Neu (+)
    H_out^Neu`` with ``H_box^Neu`` the Dirichlet operator less ``coupling``
    per cut bond on its diagonal and ``H_out^Neu >= outside_floor(M)``; with
    Dirichlet monotonicity, ``neu_j <= E_j(H_Z) <= cur_j`` whenever ``neu_k``
    lies below the floor (Reed and Simon IV, XIII.15).  For ``M = M0, 2 M0,
    ...`` one pass takes the Dirichlet values ``cur`` of the box, sets ``tol
    = BOX_DOUBLING_RTOL * (1 + |cur|)`` and accepts ``cur`` when every
    ``neu_j`` is certified to lie above ``cur_j - tol_j`` and ``k`` Neumann
    levels below the floor, reporting ``tol`` as ``truncation_width``:

    * ``d = 1``: ``cur`` by :func:`eigs_tridiag`, and Sturm counts ``nu(x)``
      of the Neumann levels ``<= x`` (Barth, Martin and Wilkinson, Numer.
      Math. 9 (1967) 386): ``nu`` just below the floor is at least ``k`` and
      ``nu(cur_j - tol_j) <= j`` for every ``j < k``.
    * ``d >= 2``: ``cur`` the ``k`` lowest Ritz values ``theta`` of the
      ARPACK solve that :func:`eigs_sparse` makes (:func:`_ritz_pairs`), with
      their vectors; by min-max ``theta_j >= E_j(Dirichlet)``, with no index
      count.  With ``j`` the
      index of the first gap at or above candidate ``k`` wider than the
      rounding level and ``rho = min(its midpoint, floor^-)``, one inertia
      count :func:`count_below` of the Neumann operator at ``rho`` must be
      ``j``; then the ``j`` Temple-Lehmann bounds of :func:`_lehmann_lower`
      on the first ``j`` Ritz vectors are lower bounds of ``neu_0 ..
      neu_{j-1}`` and must each lie at or above ``theta - tol``.  Only when
      the Neumann count is not ``j`` is the Dirichlet operator counted at
      ``rho``: a count other than the number of candidates below ``rho``
      means ARPACK missed a level, and the candidates double as in
      :func:`eigs_sparse`.

    Both counts are skipped when ``cur_k - tol_k`` already reaches the
    floor, since the conditions cannot then hold.  A box of fewer than ``k``
    points (``k + 2`` in ``d >= 2``, where the candidate search needs two
    more) is not solved and stays uncertified.  Any other outcome doubles
    ``M``; after ``MAX_DOUBLINGS`` doublings, or where the doubled box would
    hold more than ``MAX_BOX_POINTS`` points (``(4 M + 1)^d``), it raises
    :class:`BoxTooSmall`.  The start box is always solved, however large.
    """
    M = int(M0)
    for doubling in range(MAX_DOUBLINGS + 1):
        if doubling:
            M *= 2
        op = assemble(M)
        d = op.box.dimension
        if op.size >= (k if d == 1 else k + 2):
            bracket = _bracket_tridiag if d == 1 else _bracket_sparse
            certified = bracket(op, k, outside_floor(M))
            if certified is not None:
                return certified
        doubled = (4 * M + 1) ** d
        if doubling < MAX_DOUBLINGS and doubled > MAX_BOX_POINTS:
            raise BoxTooSmall(
                f"truncation bracket still open at half-width {M} after {doubling} "
                f"doublings; the doubled box would hold {doubled} points, above "
                f"the cap of {MAX_BOX_POINTS}"
            )
    raise BoxTooSmall(
        f"truncation bracket still open at half-width {M} "
        f"after {MAX_DOUBLINGS} doublings"
    )
