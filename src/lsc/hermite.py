"""Hermite polynomials, Gaussian-weighted quasimodes, and their lattice residuals.

``h_n`` is the physicists' Hermite polynomial defined by the recurrence
``h_{k+1} = 2 y h_k - 2 k h_{k-1}``.  The weighted eigenfunction
``Psi_n(y) = h_n(y) exp(-y^2 / 2)`` solves the continuum oscillator
equation ``-Psi'' + y^2 Psi = (2n + 1) Psi``; sampled at ``y = kappa x``
it is an approximate eigenfunction of the lattice operator
``Delta + kappa^4 x^2`` with eigenvalue ``kappa^2 (2n + 1)`` up to a
fourth-order residual.  This module evaluates those objects stably, finds
Hermite zeros, and computes the residual both by exact stencil assembly
and by the Taylor-remainder integral for cross-checks.  The integral's
``Psi_n^(4)`` is read off the oscillator equation in closed form,
``((y^2 - 2n - 1)^2 - 4 y^2 + 2) Psi_n + 8n y Psi_{n-1}``.
"""

from __future__ import annotations

import math

import numpy as np

from . import eigensolve
from .errors import BoxTooSmall, ConvergenceFailure, QuadratureFailure
from .lattice import LatticeBox

__all__ = [
    "hermite_eval",
    "weighted_eval",
    "hermite_zeros",
    "box_halfwidth",
    "quasimode_apply",
    "residual_integral",
    "psi_fourth_derivative",
    "gram_entry",
    "tail_mass",
]

DEGREE_CAP = 64  # beyond this the recurrences need asymptotic evaluation


def hermite_eval(n: int, y):
    """Physicists' Hermite polynomial ``h_n(y)`` by the three-term recurrence.

    Raises ``OverflowError`` once the value leaves the double range; use
    :func:`weighted_eval` for large arguments.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    arr = np.asarray(y, dtype=float)
    prev = np.zeros_like(arr)
    cur = np.ones_like(arr)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            prev, cur = cur, 2.0 * arr * cur - 2.0 * k * prev
    if not np.all(np.isfinite(cur)):
        raise OverflowError(f"h_{n} overflowed; evaluate in weighted form")
    return float(cur) if np.isscalar(y) else cur


def weighted_eval(n: int, y):
    """Weighted eigenfunction ``Psi_n(y) = h_n(y) exp(-y^2 / 2)``.

    The Gaussian is folded into the recurrence one factor of
    ``exp(-y^2 / (2 (n + 1)))`` per step, so intermediates stay bounded and
    the result underflows cleanly to ``0.0`` (never NaN or inf) for large
    arguments.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    arr = np.asarray(y, dtype=float)
    w = np.exp(-arr * arr / (2.0 * (n + 1)))
    prev = np.zeros_like(arr)
    cur = w.copy()
    for k in range(n):
        prev, cur = cur, 2.0 * arr * w * cur - 2.0 * k * (w * w) * prev
    return float(cur) if np.isscalar(y) else cur


def hermite_zeros(n: int) -> np.ndarray:
    """The ``n`` real zeros of ``h_n``, strictly increasing.

    Eigenvalues of the symmetric tridiagonal Jacobi matrix with
    off-diagonals ``sqrt(k / 2)`` give the zeros; one Newton polish against
    the recurrence restores the last digits and the result is symmetrized
    about the origin.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return np.zeros(0)
    if n > DEGREE_CAP:
        raise ValueError(f"degree {n} above supported cap {DEGREE_CAP}")
    if n == 1:
        return np.zeros(1)
    off = np.sqrt(np.arange(1, n) / 2.0)
    z = eigensolve.eigs_tridiag((np.zeros(n), off), n).values
    for it in range(50):
        hv = hermite_eval(n, z)
        dv = 2.0 * n * hermite_eval(n - 1, z)
        step = hv / dv
        z = z - step
        if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps * (1.0 + np.abs(z))):
            break
    else:
        raise ConvergenceFailure("Newton polish of Hermite zeros did not settle")
    z = np.sort(z)
    z = 0.5 * (z - z[::-1])
    if np.any(np.diff(z) <= 0):
        raise ConvergenceFailure("Hermite zeros failed to separate")
    return z


def nonnegative_zeros(n: int) -> np.ndarray:
    """Zeros ``z >= 0`` of ``h_n`` (the middle zero of odd degrees is exact 0)."""
    z = hermite_zeros(n)
    return z[z >= 0.0]


def box_halfwidth(n: int, kappa: float) -> int:
    """Half-width covering the quasimode: 8 Gaussian widths past the turning point."""
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    return int(math.ceil((math.sqrt(2.0 * n + 1.0) + 8.0) / kappa))


def tail_mass(n: int, kappa: float, start: int) -> float:
    """Sum of ``Psi_n(kappa x)^2`` over ``|x| >= start`` (both tails)."""
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    total = 0.0
    x = abs(int(start))
    chunk = 256
    while True:
        xs = np.arange(x, x + chunk, dtype=float)
        t = weighted_eval(n, kappa * xs)
        s = float(np.dot(t, t))
        total += 2.0 * s
        if s <= 1e-30 * total + 1e-300:
            return total
        x += chunk


def quasimode_apply(n: int, kappa: float, box: LatticeBox):
    """Sample the quasimode on a 1-d box and assemble its pointwise residual.

    Returns ``(psi, r)`` where ``r(x) = (Delta + kappa^4 x^2) psi(x) -
    kappa^2 (2n + 1) psi(x)`` is built from the exact stencil with the true
    neighbor values just outside the box.  Raises :class:`BoxTooSmall` when
    the mass of the quasimode outside the box exceeds ``1e-12`` of its norm.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if box.dimension != 1:
        raise ValueError("quasimode residual assembly is one-dimensional")
    lo, hi = box.lo[0], box.hi[0]
    xs_ext = np.arange(lo - 1, hi + 2, dtype=float)
    psi_ext = weighted_eval(n, kappa * xs_ext)
    psi = psi_ext[1:-1]
    norm_sq = float(np.dot(psi, psi))
    tail_sq = tail_mass(n, kappa, max(abs(lo), abs(hi)) + 1)
    if math.sqrt(tail_sq) > 1e-12 * math.sqrt(norm_sq + tail_sq):
        raise BoxTooSmall(
            f"box [{lo}, {hi}] keeps only part of the degree-{n} quasimode"
        )
    x = xs_ext[1:-1]
    residual = (
        2.0 * psi
        - psi_ext[2:]
        - psi_ext[:-2]
        + (kappa**4 * x * x) * psi
        - kappa**2 * (2.0 * n + 1.0) * psi
    )
    return psi, residual


def psi_fourth_derivative(n: int, y):
    """Fourth derivative of ``Psi_n`` in closed form.

    Differentiating ``Psi_n'' = (y^2 - s) Psi_n`` twice, with ``s = 2n + 1``
    and ``Psi_n' = -y Psi_n + 2n Psi_{n-1}`` (from ``h_n' = 2n h_{n-1}``),
    gives ``Psi_n^(4) = ((y^2 - s)^2 - 4 y^2 + 2) Psi_n + 8n y Psi_{n-1}``;
    no differencing is involved.
    """
    arr = np.asarray(y, dtype=float)
    y2 = arr * arr
    total = ((y2 - (2.0 * n + 1.0)) ** 2 - 4.0 * y2 + 2.0) * weighted_eval(n, arr)
    if n:
        total = total + 8.0 * n * arr * weighted_eval(n - 1, arr)
    return float(total) if np.isscalar(y) else total


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _adaptive_gl(f, a: float, b: float, tol: float, depth: int = 0) -> float:
    """Adaptive 10-point Gauss-Legendre rule; one call of ``f`` serves a panel and its halves."""
    mid = 0.5 * (a + b)
    panels = ((a, b), (a, mid), (mid, b))
    halves = [0.5 * (hi - lo) for lo, hi in panels]
    nodes = [0.5 * (lo + hi) + h * _GL_NODES for (lo, hi), h in zip(panels, halves)]
    values = f(np.concatenate(nodes)).reshape(3, -1)
    # each panel sums its own 10 values, as a separate call of f would
    whole, left, right = (h * float(np.dot(_GL_WEIGHTS, v)) for h, v in zip(halves, values))
    split = left + right
    if abs(split - whole) <= tol:
        return split
    if depth >= 20:
        raise QuadratureFailure("adaptive quadrature exceeded depth 20")
    return _adaptive_gl(f, a, mid, 0.5 * tol, depth + 1) + _adaptive_gl(
        f, mid, b, 0.5 * tol, depth + 1
    )


def residual_integral(n: int, kappa: float, x: int) -> float:
    """Taylor-remainder form of the quasimode residual at a lattice point.

    Evaluates ``R(x, kappa) = int_0^kappa ((kappa - t)^3 / 3!) *
    [Psi_n^(4)(kappa x + t) + Psi_n^(4)(kappa x - t)] dt`` by adaptive
    Gauss-Legendre quadrature; each step evaluates ``Psi_n^(4)`` once, at
    both signs of ``t`` on the nodes of a panel and its two halves.  This
    is the exact remainder of the symmetric second-difference expansion, so
    ``-R`` reproduces the stencil residual of :func:`quasimode_apply` to
    quadrature accuracy.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    y = kappa * float(x)

    def integrand(t):
        d4 = psi_fourth_derivative(n, np.concatenate((y + t, y - t))).reshape(2, -1)
        return ((kappa - t) ** 3 / 6.0) * (d4[0] + d4[1])

    scale = kappa**4 * max(1.0, abs(psi_fourth_derivative(n, y)))
    return _adaptive_gl(integrand, 0.0, kappa, tol=1e-13 * scale + 1e-30)


def gram_entry(n: int, m: int, kappa: float, box: LatticeBox) -> float:
    """Lattice inner product ``sum_x psi_n(x) psi_m(x)`` over the box.

    The discrete Gram matrix is nearly diagonal with diagonal close to
    ``sqrt(pi) 2^n n! / kappa``; the off-diagonal and lattice corrections
    stay bounded as ``kappa`` shrinks.  Raises :class:`BoxTooSmall` when
    the neglected tail is not below ``1e-14`` of the result scale.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if box.dimension != 1:
        raise ValueError("gram sums are one-dimensional")
    xs = box.coords().astype(float)
    pn = weighted_eval(n, kappa * xs)
    pm = pn if m == n else weighted_eval(m, kappa * xs)
    # fsum gives the correctly rounded sum, so odd pairs on a symmetric box
    # cancel to exactly zero
    result = math.fsum(pn * pm)
    edge = max(abs(box.lo[0]), abs(box.hi[0])) + 1
    tail_n = tail_mass(n, kappa, edge)
    tail_m = tail_n if m == n else tail_mass(m, kappa, edge)
    tail = math.sqrt(tail_n * tail_m)
    scale = math.sqrt(float(np.dot(pn, pn)) * float(np.dot(pm, pm)))
    if tail > 1e-14 * scale:
        raise BoxTooSmall(f"gram tail {tail:.2e} above 1e-14 of scale {scale:.2e}")
    return result
