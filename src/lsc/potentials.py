"""Potentials on R^d with registered well data.

A :class:`Potential` bundles an evaluator ``V: R^d -> R`` with the list of
its zeros (the "wells"), the square roots ``omega_i`` of the Hessian
eigenvalues at each well, and a positivity law ``(R0, floor)`` recording
that ``V(x) >= floor(r)`` wherever ``|x| >= r > R0``.  These are exactly the
data that determine the limit spectrum of the scaled lattice operators,
so they are treated as part of the potential, not re-derived on the fly.

Conventions
-----------
* ``V(a) = 0`` at every registered well and the Hessian there has
  eigenvalues ``omega_i**2 > 0`` (frequencies stored in ascending order).
* Evaluators are vectorized and pointwise: they accept an ``(m, d)`` array
  of points and return an ``(m,)`` array of values, each depending on its
  own point alone, since grids are evaluated in blocks of points (at most
  ``GRID_BLOCK_POINTS`` each) and the blocks' values are concatenated.
* Potentials are immutable after construction; every operation here is
  pure and safe to call concurrently on shared instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NonPositiveHessian

__all__ = [
    "Well",
    "Potential",
    "ScalingParams",
    "ValidationReport",
    "eval_potential",
    "sample_on_lattice",
    "hessian_frequencies",
    "validate_assumptions",
    "harmonic",
    "double_well",
    "double_well_nd",
    "two_well",
    "builtin_potential",
    "register_potential",
]

WELL_ZERO_TOL = 1e-12
UNREGISTERED_ZERO_TOL = 1e-8
WELL_EXCLUSION_RADIUS = 0.1
GRID_BLOCK_POINTS = 65_536  # points per block of a grid walk (one row when a row is longer)


@dataclass(frozen=True, eq=False)
class Well:
    """A non-degenerate minimum of a potential.

    ``frequencies`` are the square roots of the Hessian eigenvalues at the
    minimum, sorted ascending.
    """

    location: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self):
        loc = np.atleast_1d(np.asarray(self.location, dtype=float))
        freqs = np.atleast_1d(np.asarray(self.frequencies, dtype=float))
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "frequencies", freqs)
        if not np.all((freqs > 0) & (freqs < math.inf)):
            raise ValueError(
                f"well frequencies must be finite and strictly positive, got {freqs}")
        if np.any(np.diff(freqs) < 0):
            raise ValueError("well frequencies must be sorted ascending")
        if freqs.shape != loc.shape:
            raise ValueError("one frequency per coordinate is required")

    @property
    def dimension(self) -> int:
        return self.location.size


@dataclass(frozen=True, eq=False)
class Potential:
    """Evaluable potential plus well and positivity metadata.

    ``evaluator`` maps an ``(m, d)`` float array of points to ``(m,)``
    values, pointwise: a grid is evaluated block by block, so a value may
    depend only on its own point.  ``floor`` maps radii ``r >
    positivity_radius`` (vectorized and pointwise likewise) to
    nondecreasing lower bounds of ``V`` on ``|x| >= r``, the truncation
    floor of :func:`lsc.semiclassics.levels_HN`; it is supplied, never
    inferred.  ``axis_potentials`` carries the one-dimensional factors when
    the potential is a separable sum over coordinates; :attr:`separable`
    says whether it does.
    """

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    wells: tuple[Well, ...]
    positivity_radius: float
    floor: Callable[[np.ndarray], np.ndarray]
    axis_potentials: tuple["Potential", ...] | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if not callable(self.floor):
            raise ValueError(f"floor must be a callable of the radius, got {self.floor!r}")
        for well in self.wells:
            if well.dimension != self.dimension:
                raise ValueError("well dimension mismatch")
            value = float(eval_potential(self, well.location))
            if abs(value) > WELL_ZERO_TOL:
                raise ValueError(
                    f"registered well {well.location} is not a zero of V "
                    f"(V={value:.3e})"
                )
        if self.separable and len(self.axis_potentials) != self.dimension:
            raise ValueError("separable potentials need one 1-d factor per axis")

    def __call__(self, x) -> np.ndarray | float:
        return eval_potential(self, x)

    @property
    def separable(self) -> bool:
        return self.axis_potentials is not None

    @property
    def frequencies_min(self) -> float:
        return min(float(w.frequencies[0]) for w in self.wells)


def _as_points(x, d: int) -> tuple[np.ndarray, bool]:
    """Normalize ``x`` to an (m, d) array; report whether input was a single point."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if d != 1:
            raise ValueError("scalar input only valid for d = 1")
        return arr.reshape(1, 1), True
    if arr.ndim == 1:
        if arr.shape[0] == d:
            return arr.reshape(1, d), True
        if d == 1:
            return arr.reshape(-1, 1), False
        raise ValueError(f"point of length {arr.shape[0]} passed to d={d} potential")
    if arr.shape[-1] != d:
        raise ValueError("last axis must have length d")
    return arr.reshape(-1, d), False


def eval_potential(V: Potential, x) -> float | np.ndarray:
    """Evaluate ``V`` at a point or an array of points."""
    pts, single = _as_points(x, V.dimension)
    if not np.all(np.isfinite(pts)):
        raise ValueError("potential evaluated at non-finite point")
    vals = np.asarray(V.evaluator(pts), dtype=float).reshape(pts.shape[0])
    return float(vals[0]) if single else vals


def _point_blocks(axes: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """The C-order grid of the 1-d float ``axes`` as ``(m, d)`` blocks of whole
    leading-axis rows, at most ``GRID_BLOCK_POINTS`` points each; a row longer
    than that is a block of its own."""
    lead, d = axes[0], len(axes)
    inner = [g.reshape(-1) for g in np.meshgrid(*axes[1:], indexing="ij")]
    row = math.prod(a.size for a in axes[1:])
    rows_per_block = max(1, GRID_BLOCK_POINTS // row)
    for start in range(0, lead.size, rows_per_block):
        rows = lead[start:start + rows_per_block]
        block = np.empty((rows.size, row, d))
        block[:, :, 0] = rows[:, None]
        for ax, coords in enumerate(inner, 1):
            block[:, :, ax] = coords
        yield block.reshape(-1, d)


def sample_on_lattice(V: Potential, N: int, box) -> np.ndarray:
    """Sample ``x -> V(x / N)`` on every point of a lattice box (C order).

    The points are evaluated in blocks of at most ``GRID_BLOCK_POINTS``, so
    beyond the returned array the memory is bounded by the block, not the box.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    out = np.empty(box.size)
    start = 0
    for pts in _point_blocks([np.arange(l, h + 1) / float(N)
                              for l, h in zip(box.lo, box.hi)]):
        out[start:start + pts.shape[0]] = np.asarray(
            V.evaluator(pts), dtype=float).reshape(pts.shape[0])
        start += pts.shape[0]
    return out


def _hessian_step(a: np.ndarray) -> np.ndarray:
    # cube root of machine epsilon, the standard step for second differences
    return np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.abs(a))


def central_difference_hessian(V: Potential, a) -> np.ndarray:
    """Central-difference Hessian of ``V`` at ``a``."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    d = V.dimension
    h = _hessian_step(a)
    H = np.empty((d, d))
    f0 = float(eval_potential(V, a))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        H[i, i] = (
            float(eval_potential(V, a + ei)) - 2.0 * f0 + float(eval_potential(V, a - ei))
        ) / h[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                float(eval_potential(V, a + ei + ej))
                - float(eval_potential(V, a + ei - ej))
                - float(eval_potential(V, a - ei + ej))
                + float(eval_potential(V, a - ei - ej))
            ) / (4.0 * h[i] * h[j])
    return H


def hessian_frequencies(V: Potential, a) -> np.ndarray:
    """Square roots of the Hessian eigenvalues of ``V`` at the minimum ``a``.

    The point is validated to be a zero of ``V``; the Hessian is formed by
    central differences and diagonalized with ``np.linalg.eigvalsh``.  Raises
    :class:`NonPositiveHessian` for degenerate minima.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    value = float(eval_potential(V, a))
    if abs(value) > 1e-8:
        raise ValueError(f"V(a)={value:.3e} is not zero; not a registered-style well")
    H = central_difference_hessian(V, a)
    eigs = np.linalg.eigvalsh(H)
    tol = 1e-6 * max(1.0, float(np.abs(H).max()))
    if np.any(eigs <= tol):
        raise NonPositiveHessian(
            f"Hessian eigenvalues {eigs} at {a} are not strictly positive"
        )
    return np.sqrt(eigs)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the assumption scan; failures are entries, not exceptions."""

    nonnegative: bool
    min_value: float
    argmin: tuple[float, ...]
    wells_valid: bool
    well_messages: tuple[str, ...]
    unregistered_zeros: tuple[tuple[float, ...], ...]
    positive_at_infinity: bool
    floor_margin: float
    zero_count: int
    scan_step: float
    smoothness: str = "assumed"

    @property
    def passed(self) -> bool:
        return (
            self.nonnegative
            and self.wells_valid
            and not self.unregistered_zeros
            and self.positive_at_infinity
        )


_FOLD_MAX_COLUMNS = 7  # up to here NumPy sums a short last axis as a left fold


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=-1)`` of an ``(m, d)`` array, bit for bit.  For ``d <= 7``
    NumPy adds the columns left to right, so this adds them as a left fold over
    whole columns, several times faster than NumPy's strided reduction over the
    short axis; longer rows keep NumPy's sum."""
    if terms.shape[-1] > _FOLD_MAX_COLUMNS:
        return terms.sum(axis=-1)
    total = terms[..., 0]
    for c in range(1, terms.shape[-1]):
        total = total + terms[..., c]
    return total


def _scan_axis(d: int, radius: float, step: float) -> tuple[np.ndarray, float]:
    """One axis of the validation grid, ``[-radius, radius]`` at ``step``, and
    the step used.  A ``d >= 2`` grid doubles its step until it holds at most
    2e6 points, which bounds the scan's time; the walk in blocks bounds its
    memory."""
    axis = np.arange(-radius, radius + 0.5 * step, step)
    while d > 1 and axis.size**d > 2_000_000:
        step *= 2.0
        axis = np.arange(-radius, radius + 0.5 * step, step)
    return axis, step


def validate_assumptions(V: Potential, scan_radius: float, grid_step: float) -> ValidationReport:
    """Scan a grid for the three structural assumptions on ``V``.

    Checks nonnegativity on the grid, validity of every registered well,
    absence of unregistered near-zeros away from the wells, and the
    positivity law on the ring between ``R0`` and the scan radius: ``V(x) >=
    floor(|x|)`` (least slack ``floor_margin``), and ``floor`` nondecreasing
    in ``r`` at the ``scan_step`` the grid was scanned at.  Smoothness is not
    numerically checkable and is reported as assumed.  The grid is walked in
    blocks of at most ``GRID_BLOCK_POINTS`` points, so beyond one grid axis
    the scan's memory is bounded by the block.  The report is the one a
    whole-grid scan gives: the first least value (or the first NaN) and the
    first 16 unregistered zeros in C order.
    """
    if not math.isfinite(scan_radius):
        raise ValueError(f"scan_radius must be finite, got scan_radius={scan_radius}")
    max_well = max((float(np.abs(w.location).max()) for w in V.wells), default=0.0)
    if scan_radius <= max_well + 1.0:
        raise ValueError("scan_radius must exceed max well coordinate + 1")
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f"grid_step must be positive and finite, got grid_step={grid_step}")
    axis, scan_step = _scan_axis(V.dimension, scan_radius, grid_step)

    locs = np.stack([w.location for w in V.wells]) if V.wells else np.zeros((0, V.dimension))
    argmin: tuple[float, ...] | None = None
    min_value = math.nan
    unregistered: list[tuple[float, ...]] = []
    margins: list[float] = []
    for pts in _point_blocks([axis] * V.dimension):
        vals = eval_potential(V, pts)

        # np.argmin's choice over the whole grid: the first NaN, else the
        # first least value
        i = int(np.argmin(vals))
        if argmin is None or not (math.isnan(min_value) or vals[i] >= min_value):
            min_value, argmin = float(vals[i]), tuple(pts[i])

        if len(unregistered) < 16:
            cand = pts[vals < UNREGISTERED_ZERO_TOL]
            if cand.size and locs.size:
                dists = np.sqrt(((cand[:, None, :] - locs[None, :, :]) ** 2).sum(axis=2))
                cand = cand[dists.min(axis=1) > WELL_EXCLUSION_RADIUS]
            unregistered += [tuple(p) for p in cand[:16 - len(unregistered)]]

        norms = np.sqrt(_row_sum(pts**2))
        ring = (norms > V.positivity_radius) & (norms <= scan_radius)
        if np.any(ring):
            margins.append((vals[ring] - V.floor(norms[ring])).min())

    well_messages: list[str] = []
    wells_valid = True
    for well in V.wells:
        try:
            freqs = hessian_frequencies(V, well.location)
        except (NonPositiveHessian, ValueError) as exc:
            wells_valid = False
            well_messages.append(f"well {well.location}: {exc}")
            continue
        rel = np.abs(freqs - well.frequencies) / well.frequencies
        if np.any(rel > 1e-6):
            wells_valid = False
            well_messages.append(
                f"well {well.location}: registered frequencies {well.frequencies} "
                f"vs measured {freqs}"
            )

    if margins:
        floor_margin = float(np.min(margins))  # NaN if any block's is, as np.min
        radii = np.arange(scan_radius, V.positivity_radius, -scan_step)[::-1]
        law = np.broadcast_to(V.floor(radii), radii.shape)
        positive = bool(floor_margin >= 0.0 and (np.diff(law) >= 0.0).all())
    else:
        floor_margin = math.nan
        positive = False

    return ValidationReport(
        nonnegative=min_value >= -WELL_ZERO_TOL,
        min_value=min_value,
        argmin=argmin,
        wells_valid=wells_valid,
        well_messages=tuple(well_messages),
        unregistered_zeros=tuple(unregistered),
        positive_at_infinity=positive,
        floor_margin=floor_margin,
        zero_count=len(V.wells),
        scan_step=scan_step,
    )


@dataclass(frozen=True)
class ScalingParams:
    """Coupled scaling data: mesh 1/N, exponent gamma, well frequency omega.

    Derived quantities: ``lam = N**(1 - gamma)`` multiplies the potential
    quadratically in the lattice operator, ``kappa = sqrt(omega / N**(1 +
    gamma))`` is the single small parameter of the reduced harmonic
    operator, and ``mesh = 1/N``.
    """

    N: int
    gamma: float
    omega: float = 1.0

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 1:
            raise ValueError("N must be a positive integer")
        object.__setattr__(self, "N", int(self.N))
        if not self.omega > 0:
            raise ValueError("omega must be positive (kappa > 0 requires it)")

    @property
    def lam(self) -> float:
        return float(self.N) ** (1.0 - self.gamma)

    @property
    def kappa(self) -> float:
        return math.sqrt(self.omega * float(self.N) ** (-(1.0 + self.gamma)))

    @property
    def mesh(self) -> float:
        return 1.0 / float(self.N)


# ----------------------------------------------------------------------
# builtin catalogue
# ----------------------------------------------------------------------

def harmonic(omega: float | Sequence[float]) -> Potential:
    """Anisotropic harmonic potential ``V(x) = (omega_1^2 x_1^2 + ... ) / 2``."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    if not np.all((om > 0) & (om < math.inf)):
        raise ValueError(f"harmonic frequencies must be finite and positive, got {om}")
    d = om.size

    def evaluator(pts: np.ndarray, _om=om) -> np.ndarray:
        return 0.5 * _row_sum((_om**2) * pts**2)

    well = Well(location=np.zeros(d), frequencies=np.sort(om))
    axis = None
    if d > 1:
        axis = tuple(harmonic([w]) for w in om)
    w2 = float(om.min()) ** 2
    return Potential(
        dimension=d,
        evaluator=evaluator,
        wells=(well,),
        positivity_radius=1.0,
        floor=lambda r: 0.25 * w2 * (r * r + 1.0),  # <= w2 r^2 / 2 for r >= 1
        axis_potentials=axis,
        name="harmonic",
    )


def _dw_value(y: np.ndarray) -> np.ndarray:
    return 0.5 * (y * y - 1.0) ** 2


def double_well() -> Potential:
    """One-dimensional double well ``V(x) = (x^2 - 1)^2 / 2`` with wells at +-1."""

    def evaluator(pts: np.ndarray) -> np.ndarray:
        return _dw_value(pts[:, 0])

    wells = (
        Well(location=np.array([-1.0]), frequencies=np.array([2.0])),
        Well(location=np.array([1.0]), frequencies=np.array([2.0])),
    )
    return Potential(
        dimension=1,
        evaluator=evaluator,
        wells=wells,
        positivity_radius=2.0,
        floor=lambda r: 0.5 * r * r * (r * r - 2.0),  # V - floor = 1/2
        name="double_well",
    )


def double_well_nd(d: int) -> Potential:
    """Separable sum of 1-d double wells; ``2**d`` wells at the sign vectors."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return double_well()

    def evaluator(pts: np.ndarray) -> np.ndarray:
        return _row_sum(_dw_value(pts))

    wells = []
    for signs in np.ndindex(*(2,) * d):
        loc = np.array([1.0 if s else -1.0 for s in signs])
        wells.append(Well(location=loc, frequencies=np.full(d, 2.0)))
    return Potential(
        dimension=d,
        evaluator=evaluator,
        wells=tuple(wells),
        positivity_radius=2.0 * math.sqrt(d),
        # by Cauchy-Schwarz V >= (r^2 - d)^2 / (2 d), this law plus d / 2
        floor=lambda r: 0.5 * r * r * (r * r / d - 2.0),
        axis_potentials=tuple(double_well() for _ in range(d)),
        name=f"double_well_{d}d",
    )


def two_well(omega: float = 1.0, separation: float = 2.0, d: int = 1) -> Potential:
    """Two shifted harmonic wells spliced by a smooth soft minimum.

    Uses the harmonic mean of the two parabolas ``(omega^2/2)|x -+ a|^2``,
    which keeps exactly two zeros at ``+-a``, reproduces the Hessian
    ``omega^2 I`` at each well (the blending error is quartic in the
    distance to the well), and grows quadratically at infinity.
    """
    if not (0 < omega < math.inf and 0 < separation < math.inf):
        raise ValueError(f"omega and separation must be finite and positive, "
                         f"got {omega} and {separation}")
    a = np.zeros(d)
    a[0] = separation / 2.0

    def evaluator(pts: np.ndarray, _a=a, _om=omega) -> np.ndarray:
        vp = 0.5 * _om**2 * _row_sum((pts - _a) ** 2)
        vm = 0.5 * _om**2 * _row_sum((pts + _a) ** 2)
        return vp * vm / (vp + vm)

    wells = (
        Well(location=-a, frequencies=np.full(d, omega)),
        Well(location=a, frequencies=np.full(d, omega)),
    )
    return Potential(
        dimension=d,
        evaluator=evaluator,
        wells=wells,
        positivity_radius=separation,
        # the soft minimum is at least half the nearer parabola, which is at
        # least omega^2 (r - a)^2 / 2 on |x| >= r > a
        floor=lambda r: 0.25 * omega**2 * (r - 0.5 * separation) ** 2,
        name="two_well",
    )


_REGISTRY: dict[str, Callable[..., Potential]] = {}


def register_potential(name: str, factory: Callable[..., Potential]) -> None:
    """Register a custom potential factory for CLI lookup by id."""
    _REGISTRY[name] = factory


def builtin_potential(name: str, omega: Sequence[float] | None = None) -> Potential:
    """Resolve a potential by config key."""
    if name == "harmonic":
        return harmonic(omega if omega is not None else [1.0])
    if name == "double_well":
        return double_well()
    if name == "double_well_2d":
        return double_well_nd(2)
    if name == "two_well":
        om = omega[0] if omega else 1.0
        return two_well(omega=om)
    if name in _REGISTRY:
        return _REGISTRY[name]() if omega is None else _REGISTRY[name](omega)
    raise KeyError(f"unknown potential '{name}'")
