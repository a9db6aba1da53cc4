"""Independent reference values for the benchmark's output checks.

Nothing here imports ``lsc``.  Operators are assembled from their defining
formulas, and eigenvalues come from LAPACK routes the library does not
take: dense ``numpy.linalg.eigvalsh`` for small matrices and MRRR
(``stemr``) for large tridiagonals.  ``stebz`` is deliberately avoided,
since the library may move onto it.  The 2-d dense reference uses
``syevr`` through ``scipy.linalg.eigh``.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.linalg

DENSE_MAX = 600  # above this size tridiagonals go through stemr

# tolerances of the acceptance suite: criterion 14 (1-d) and 13 (2-d)
TOL_1D = 1e-10
TOL_2D = 1e-9
IMS_RESIDUAL_MAX = 1e-12


class CheckFailed(Exception):
    """An output disagrees with its reference beyond tolerance."""


def rel_err(got, want) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"shape {got.shape} != reference shape {want.shape}")
    return np.abs(got - want) / (1.0 + np.abs(want))


def compare(label: str, got, want, tol: float) -> list[float]:
    """Relative errors of ``got`` against ``want``; raises above ``tol``."""
    errs = rel_err(got, want)
    worst = float(errs.max(initial=0.0))
    if not worst <= tol:  # also catches NaN
        raise CheckFailed(f"{label}: relative error {worst:.2e} above {tol:.0e}")
    return [float(e) for e in errs.ravel()]


def tridiag_lowest(diag, off, k: int) -> np.ndarray:
    """Lowest ``k`` eigenvalues of a symmetric tridiagonal matrix."""
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if diag.size <= DENSE_MAX:
        A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        return np.linalg.eigvalsh(A)[:k]
    return scipy.linalg.eigvalsh_tridiagonal(
        diag, off, select="i", select_range=(0, k - 1), lapack_driver="stemr"
    )


def tridiag_all(diag, off) -> np.ndarray:
    return scipy.linalg.eigvalsh_tridiagonal(
        np.asarray(diag, dtype=float), np.asarray(off, dtype=float),
        lapack_driver="stemr",
    )


def ritz_values(diag, off, V) -> tuple[np.ndarray, float]:
    """Ritz values of a tridiagonal on the span of ``V``, and their residual.

    The span is orthonormalised by Householder QR and the projected matrix
    solved densely, not the generalized problem the library solves.  The
    residual is ``||H Q - Q (Q^T H Q)||_2``; by Kahan's theorem every Ritz
    value lies that close to an eigenvalue.
    """
    Q, _ = np.linalg.qr(V / np.linalg.norm(V, axis=0))
    HQ = diag[:, None] * Q
    HQ[:-1] += off[:, None] * Q[1:]
    HQ[1:] += off[:, None] * Q[:-1]
    A = Q.T @ HQ
    theta, Y = np.linalg.eigh(0.5 * (A + A.T))
    return theta, float(np.linalg.norm(HQ @ Y - (Q @ Y) * theta, 2))


# ----------------------------------------------------------------------
# operators from their defining formulas
# ----------------------------------------------------------------------

def hermite_functions(n_max: int, y) -> np.ndarray:
    """Columns ``H_n(y) exp(-y^2 / 2)`` for ``n = 0..n_max`` (physicists' ``H_n``)."""
    y = np.asarray(y, dtype=float)
    return np.polynomial.hermite.hermvander(y, n_max) * np.exp(-0.5 * y * y)[:, None]


def quasimode_halfwidth(n: int, kappa: float) -> int:
    """Eight Gaussian widths past the turning point of level ``n``."""
    return int(math.ceil((math.sqrt(2.0 * n + 1.0) + 8.0) / kappa))


def hkappa(kappa: float, lo: int, hi: int, spike: tuple[int, float] | None = None):
    """``Delta + kappa^4 x^2`` on ``[lo, hi]``, optionally spiked at ``+-x_d``."""
    x = np.arange(lo, hi + 1, dtype=float)
    diag = 2.0 + kappa**4 * x * x
    if spike is not None:
        x_d, value = spike
        diag[np.abs(x) == x_d] = 2.0 + value
    return diag, -np.ones(x.size - 1)


def spike_of(kappa: float, delta: float) -> tuple[int, float]:
    return int(math.floor(kappa ** -(1.0 + delta))), kappa**-delta


def hn_1d(V, N: int, gamma: float, M: int):
    """``(N^2/2) Delta + N^(2(1-gamma)) V(x/N)`` on ``[-M, M]``."""
    x = np.arange(-M, M + 1, dtype=float)
    diag = float(N) ** 2 + float(N) ** (2.0 * (1.0 - gamma)) * V(x / N)
    return diag, np.full(x.size - 1, -0.5 * float(N) ** 2)


def double_well(y):
    return 0.5 * (y * y - 1.0) ** 2


def harmonic(omega: float):
    return lambda y: 0.5 * omega**2 * y * y


def two_well_2d(pts):
    """The spliced two-well potential with ``omega = 1`` and wells at ``+-e_1``."""
    a = np.array([1.0, 0.0])
    vp = 0.5 * ((pts - a) ** 2).sum(axis=-1)
    vm = 0.5 * ((pts + a) ** 2).sum(axis=-1)
    return vp * vm / (vp + vm)


def hn_2d_dense_lowest(V2, N: int, gamma: float, M: int, k: int) -> np.ndarray:
    """Lowest ``k`` eigenvalues of the 2-d scaled operator on ``[-M, M]^2`` (syevr)."""
    axis = np.arange(-M, M + 1, dtype=float)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    m = axis.size
    diag = 2.0 * float(N) ** 2 + float(N) ** (2.0 * (1.0 - gamma)) * V2(pts / N)
    A = np.diag(diag)
    c = -0.5 * float(N) ** 2
    idx = np.arange(m * m).reshape(m, m)
    for a, b in ((idx[:-1, :], idx[1:, :]), (idx[:, :-1], idx[:, 1:])):
        A[a.ravel(), b.ravel()] = c
        A[b.ravel(), a.ravel()] = c
    return scipy.linalg.eigh(
        A, eigvals_only=True, subset_by_index=(0, k - 1), driver="evr"
    )


def lowest_pair_sums(axis_values, k: int) -> np.ndarray:
    """Lowest ``k`` sums ``a_i + b_j`` by brute force (no heap)."""
    a, b = axis_values
    return np.sort(np.add.outer(a, b).ravel())[:k]


# ----------------------------------------------------------------------
# the regime sweep, recomputed from directly assembled operators
# ----------------------------------------------------------------------

GAMMA_BELOW_CAP = 64  # the sweep's documented ladder cap below gamma = -1
SLOPE_LIMIT = 0.1  # `lsc regimes` passes when every fitted slope is this close


def predicted_exponent(gamma: float) -> float:
    if gamma > -1.0:
        return 1.0 - gamma
    if gamma == -1.0:
        return 2.0
    return 2.0 * abs(gamma)


def regime_energies(omega: float, gamma: float, N: int, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the harmonic ``H_N``, assembled directly."""
    if gamma > -1.0:
        kappa = math.sqrt(omega * float(N) ** (-(1.0 + gamma)))
        M = 2 * quasimode_halfwidth(count - 1, kappa)
    else:
        # the levels sit within a few sites of the origin here and decay
        # faster than geometrically; a wider box only adds diagonal entries
        # of size N^(2|gamma|) M^2, and the solver's error grows with that
        # norm: at M = 64 the ground state kept only about 8 digits, which
        # moved its fitted slope by 1e-8
        M = 16
    diag, off = hn_1d(harmonic(omega), N, gamma, M)
    return tridiag_lowest(diag, off, count)


def regime_reference(omega: float, gammas, Ns, n_max: int) -> dict:
    """Per-gamma ladders, tail slopes, limit constants and the expected verdict."""
    count = n_max + 1
    out = {"rows": {}, "worst": 0.0}
    for gamma in gammas:
        ladder = [N for N in Ns if gamma >= -1.0 or N <= GAMMA_BELOW_CAP]
        table = np.array([regime_energies(omega, gamma, N, count) for N in ladder])
        m = max(3, len(ladder) // 2)
        xs = np.log(np.asarray(ladder[-m:], dtype=float))
        growth = predicted_exponent(gamma)
        for n in range(count):
            slope = float(np.polyfit(xs, np.log(table[-m:, n]), 1)[0])
            const = float(table[-1, n]) / float(ladder[-1]) ** growth
            out["rows"][(float(gamma), n)] = (slope, const)
            if not (gamma < -1.0 and n == 0):
                out["worst"] = max(out["worst"], abs(slope - predicted_exponent(gamma)))
    return out


# ----------------------------------------------------------------------
# brute-force limit spectrum (criterion 12)
# ----------------------------------------------------------------------

def sigma_bruteforce(wells, count: int, cap: int) -> list[tuple[float, int, tuple]]:
    """First ``count`` harmonic-well levels by full enumeration.

    ``wells`` is a list of per-axis frequency tuples.  Ties order by value,
    then well index, then lexicographic multi-index.
    """
    states = []
    for l, freqs in enumerate(wells):
        for multi in np.ndindex(*(cap + 1,) * len(freqs)):
            value = 0.5 * float(sum(w * (2 * m + 1) for w, m in zip(freqs, multi)))
            states.append((value, l, tuple(int(m) for m in multi)))
    states.sort()
    omega_min = min(min(f) for f in wells)
    if not states[count - 1][0] < 0.5 * omega_min * (2 * cap + 1):
        raise ValueError("enumeration cap too small for the requested count")
    return states[:count]


# ----------------------------------------------------------------------
# helpers for reading CLI output
# ----------------------------------------------------------------------

def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def parse_triplets(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of a coordinate-triplet text dump."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) % 3:
        raise CheckFailed("triplet dump has a truncated line")
    arr = np.array(tokens, dtype=object).reshape(-1, 3)
    return arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2].astype(float)
