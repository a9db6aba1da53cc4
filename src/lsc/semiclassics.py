"""Experiment drivers: limit spectra, convergence studies, scaling regimes.

The operators under study are ``H_N = (N^2/2) Delta + N^(2(1-gamma))
V(./N)``.  With ``lam_N = N^(1-gamma)`` the low-lying eigenvalues obey
``E_n(H_N) / lam_N -> e_n(V)`` for ``gamma in (-1, 1)``, where ``e_n(V)``
enumerates the harmonic-well energies ``(1/2) sum_i omega_i(a_l) (2 n_i +
1)`` over all wells.  For the quadratic well in one dimension everything
reduces to the single-parameter operator ``Delta + kappa^4 x^2`` with
``kappa = sqrt(omega / N^(1+gamma))`` through the exact identity ``H_N =
(N^2/2) H_kappa``; its levels scaled by ``kappa^2`` approach ``2n + 1``.

Outside ``(-1, 1)`` the growth exponent of ``E_n(H_N)`` in ``N`` changes:
``1 - gamma`` above ``-1``, exactly ``2`` at ``-1`` (where ``H_N = N^2
H_1`` identically), and ``2 |gamma|`` below, where even and odd levels
collapse onto the on-site potential values.  Every driver here returns a
plain result record; CSV/JSON serialization lives in the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import eigensolve, hermite, lattice
from .eigensolve import SpectrumResult
from .lattice import (
    IntervalDecomposition,
    LatticeBox,
    ModifiedPotentialParams,
    SymmetricLatticeOperator,
)
from .potentials import Potential, ScalingParams

__all__ = [
    "SigmaSequence",
    "KappaStudy",
    "ConvergenceTable",
    "RegimeSweep",
    "IntervalLowerBoundReport",
    "ModifiedComparison",
    "ImsReport",
    "sigma_enumerate",
    "predicted_growth_exponent",
    "harmonic_levels",
    "harmonic_kappa_study",
    "converge_study",
    "regime_sweep",
    "interval_lowerbound_experiment",
    "modified_vs_plain",
    "ims_general_experiment",
    "scaled_well_params",
]


# ----------------------------------------------------------------------
# limit spectrum
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SigmaSequence:
    """Limit spectrum: ``values[i]`` is the level of ``multi[i]`` in well ``wells[i]``."""

    potential_name: str
    values: np.ndarray
    wells: np.ndarray  # int, shape (count,)
    multi: np.ndarray  # int, shape (count, d)

    def __len__(self) -> int:
        return self.values.size

    @property
    def provenance(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``(well index, multi-index)`` per value as Python ints, derived from the arrays."""
        return tuple(zip(self.wells.tolist(), map(tuple, self.multi.tolist())))


def _volume_level(frequencies: list[np.ndarray], count: int) -> float:
    """Lowest level ``E`` (to bisection accuracy) whose per-well simplex
    volumes sum to at least ``count``.

    The states ``m >= 0`` of a well with ``sum w_i (2 m_i + 1) <= 2E`` are at
    least as many as the volume of ``{x >= 0 : sum 2 w_i x_i <= 2E - sum
    w_i}``, so this level has at least ``count`` states below it; rounding
    moves their computed levels by far less than the margin of
    :func:`_well_states`.
    """
    d = frequencies[0].size
    wells = [(float(w.sum()), math.factorial(d) * math.prod(2.0 * w)) for w in frequencies]

    def volume(level: float) -> float:
        return sum(max(2.0 * level - W, 0.0) ** d / scale for W, scale in wells)

    lo = min(W for W, _ in wells) / 2.0
    hi = max(W + (count * scale) ** (1.0 / d) for W, scale in wells) / 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if volume(mid) >= count else (mid, hi)
    return hi


def _well_states(frequencies: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Every multi-index of one well whose level is at most ``level``.

    Walks the simplex axis by axis with the remaining budget, so the states
    come out in lexicographic order and no bounding box is built.  Levels
    are summed in axis order, ``0.5 * ((w_0 (2 m_0 + 1) + w_1 (2 m_1 + 1))
    + ...)``, one float operation per term.  The budget carries a relative
    margin of ``1e-9``, far above that rounding, so the result may hold a
    few states just above ``level`` but never misses one below it.
    """
    budget = 2.0 * level * (1.0 + 1e-9)
    later = np.append(np.cumsum(frequencies[::-1])[::-1][1:], 0.0)
    sums = np.zeros(1)
    columns: list[np.ndarray] = []
    for w, rest in zip(frequencies, later):
        counts = np.floor((budget - rest - w - sums) / (2.0 * w)).astype(np.int64) + 1
        counts = np.maximum(counts, 0)
        parent = np.repeat(np.arange(sums.size), counts)
        m = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        columns = [c[parent] for c in columns] + [m]
        sums = sums[parent] + w * (2 * m + 1)
    return 0.5 * sums, np.column_stack(columns)


def sigma_enumerate(V: Potential, count: int) -> SigmaSequence:
    """First ``count`` harmonic-well energies over all wells, nondecreasing.

    The order is value, then well index, then lexicographic multi-index.
    A threshold level with at least ``count`` states below it comes from the
    simplex volume of each well; every state below it (plus the few inside
    the rounding margin of :func:`_well_states`) is generated with numpy and
    stably sorted by value, and the first ``count`` are kept.  The states
    enter the sort in (well index, lexicographic multi-index) order, so ties
    keep exactly that order.
    Each value is ``0.5 * sum_i w_i (2 m_i + 1)`` summed term by term in
    axis order, so it has the same bits whichever way the states are found.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not V.wells:
        raise ValueError("potential has no registered wells")
    frequencies = [well.frequencies for well in V.wells]
    level = _volume_level(frequencies, count)
    states = [_well_states(w, level) for w in frequencies]
    values = np.concatenate([v for v, _ in states])
    order = np.argsort(values, kind="stable")[:count]
    wells = np.repeat(np.arange(len(states)), [v.size for v, _ in states])
    return SigmaSequence(
        potential_name=V.name,
        values=values[order],
        wells=wells[order],
        multi=np.concatenate([m for _, m in states])[order],
    )


def predicted_growth_exponent(gamma: float) -> float:
    """Growth exponent of ``E_n(H_N)`` in ``N``: ``1 - gamma`` above the kink
    at ``gamma = -1`` and ``2 |gamma|`` below; both give 2 at the kink."""
    if gamma > -1.0:
        return 1.0 - gamma
    if gamma == -1.0:
        return 2.0
    return 2.0 * abs(gamma)


# ----------------------------------------------------------------------
# quadratic-well studies
# ----------------------------------------------------------------------

def harmonic_levels(kappa: float, count: int) -> SpectrumResult:
    """Truncation-certified low-lying levels of ``Delta + kappa^4 x^2``.

    The potential part is ``kappa^4 x^2``, at least ``kappa^4 (M + 1)^2``
    outside the half-width ``M`` box, which is the floor of the
    Dirichlet-Neumann bracket.
    """
    M0 = hermite.box_halfwidth(count - 1, kappa)
    return eigensolve.converged_spectrum(
        lambda M: lattice.assemble_Hkappa(kappa, LatticeBox.centered(1, M)), M0, count,
        lambda M: kappa**4 * (M + 1) ** 2)


@dataclass(frozen=True)
class KappaRow:
    kappa: float
    n: int
    energy: float
    ratio: float
    target: float
    abs_err: float


@dataclass(frozen=True, eq=False)
class KappaStudy:
    rows: tuple[KappaRow, ...]
    deviation_orders: dict
    errors_decreasing: dict

    def deviations(self, n: int) -> list[float]:
        return [r.abs_err for r in self.rows if r.n == n]


def harmonic_kappa_study(kappa_list: Sequence[float], n_max: int) -> KappaStudy:
    """Table of ``E_n(kappa) / kappa^2`` against ``2n + 1`` over a kappa sweep.

    Also fits, per level, the order of the deviation from successive log
    ratios (the deviation shrinks like ``kappa^2``, so the fitted order
    should come out at least 1).
    """
    kappas = [float(k) for k in kappa_list]
    if any(k <= 0 for k in kappas) or any(
        k1 <= k2 for k1, k2 in zip(kappas, kappas[1:])
    ):
        raise ValueError("kappa_list must be positive and strictly descending")
    spectra = [harmonic_levels(k, n_max + 1) for k in kappas]
    rows = []
    for k, spec in zip(kappas, spectra):
        for n in range(n_max + 1):
            e = float(spec.values[n])
            target = 2.0 * n + 1.0
            rows.append(
                KappaRow(
                    kappa=k,
                    n=n,
                    energy=e,
                    ratio=e / k**2,
                    target=target,
                    abs_err=abs(e / k**2 - target),
                )
            )
    decreasing, orders = _ladder_fits(
        rows, n_max, [math.log(k1 / k2) for k1, k2 in zip(kappas, kappas[1:])])
    return KappaStudy(rows=tuple(rows), deviation_orders=orders,
                      errors_decreasing=decreasing)


def _ladder_fits(rows, n_max: int, log_steps: Sequence[float]) -> tuple[dict, dict]:
    """Per level ``n``, down a ladder of ``rows``: whether ``abs_err`` strictly
    decreases, and each step's fitted order ``log(e1 / e2) / log_step`` where both
    errors are positive, ``log_step`` being that step's log ratio of ladder values."""
    decreasing: dict[int, bool] = {}
    orders: dict[int, list[float]] = {}
    for n in range(n_max + 1):
        errs = [r.abs_err for r in rows if r.n == n]
        decreasing[n] = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        orders[n] = [math.log(e1 / e2) / step for e1, e2, step
                     in zip(errs, errs[1:], log_steps) if e1 > 0 and e2 > 0]
    return decreasing, orders


# ----------------------------------------------------------------------
# convergence study for general potentials
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    gamma: float
    N: int
    n: int
    energy: float
    lam: float
    ratio: float
    target: float
    abs_err: float


@dataclass(frozen=True, eq=False)
class ConvergenceTable:
    potential_name: str
    gamma: float
    rows: tuple[ConvergenceRow, ...]
    errors_decreasing: dict
    orders: dict

    def errors(self, n: int) -> list[float]:
        return [r.abs_err for r in self.rows if r.n == n]


def _box_start_halfwidth(V: Potential, params: ScalingParams, count: int) -> int:
    """Initial half-width: the farthest well plus ``sqrt(2 count - 1) + 8``
    well widths, and in ``d >= 2`` at least the positivity radius ``N R0``,
    because only past it does :func:`_outside_floor` bound the hollow cube
    outside the box.  In 1-d the floor below ``R0`` is sampled, so the box
    may end short of it."""
    N = params.N
    wmin = V.frequencies_min
    width = (math.sqrt(2.0 * count - 1.0) + 8.0) * float(N) ** (
        0.5 * (1.0 + params.gamma)
    ) / math.sqrt(wmin)
    far_well = max(
        (float(np.abs(w.location).max()) for w in V.wells), default=0.0
    )
    reach = N * far_well + width
    return int(math.ceil(reach if V.dimension == 1 else max(N * V.positivity_radius, reach)))


def _outside_floor(V: Potential, params: ScalingParams) -> Callable[[int], float]:
    """Lower bound of the potential part of ``H_N`` outside the half-width
    ``M`` box, in any dimension: every point there has ``|x| >= (M + 1) /
    N`` (one coordinate is past ``M``), so it is ``N^(2(1-gamma)) floor((M +
    1) / N)`` once ``(M + 1) / N`` is past the positivity radius ``R0``.
    Before that it is ``-inf`` in ``d >= 2``; in 1-d, with ``R = floor(R0
    N)``, it is ``N^(2(1-gamma))`` times the least of ``V(x / N)`` over the
    lattice points ``M < |x| <= R`` and of ``floor((R + 1) / N)``, which
    bounds every point past ``R``."""
    N = params.N
    strength = float(N) ** (2.0 * (1.0 - params.gamma))
    R = math.floor(V.positivity_radius * N)

    def outside_floor(M: int) -> float:
        r = (M + 1) / N
        if r > V.positivity_radius:
            return strength * float(V.floor(r))
        if V.dimension > 1:
            return -math.inf
        shell = np.concatenate((np.arange(-R, -M), np.arange(M + 1, R + 1))) / float(N)
        sampled = np.asarray(V.evaluator(shell[:, None]), dtype=float).min(initial=math.inf)
        return strength * min(float(sampled), float(V.floor((R + 1) / N)))

    return outside_floor


def levels_HN(V: Potential, params: ScalingParams, count: int) -> np.ndarray:
    """Low-lying levels of the scaled operator.

    Every solve is certified by :func:`eigensolve.converged_spectrum`: a
    Dirichlet-Neumann bracket whose floor outside the half-width ``M`` box
    is ``N^(2(1-gamma)) floor((M + 1) / N)`` past the positivity radius and,
    in 1-d, the sampled potential on the shell out to it before
    (:func:`_outside_floor`), the box starting just past the wells
    (:func:`_box_start_halfwidth`) and doubling until it certifies.
    Separable sums bracket each 1-d axis factor and take the tensorized
    route; any other potential, of any dimension, is bracketed whole.  A non-separable ``d >= 2`` box costs one
    ARPACK solve for Ritz upper bounds and, when it certifies, one inertia
    count of its Neumann operator, whose Temple-Lehmann lower bounds from the
    same Ritz vectors close the bracket.  Such a box, start or doubled, is
    capped at 4096 points and raises :class:`MemoryError` above.
    """

    def levels(W: Potential) -> np.ndarray:
        def assemble(M: int) -> SymmetricLatticeOperator:
            box = LatticeBox.centered(W.dimension, M)
            if W.dimension > 1 and box.size > 4096:
                # perfbench's DENSE_CAP known failure matches this text: keep it
                raise MemoryError(
                    "non-separable dense fallback capped at 4096 points; "
                    f"requested {box.size}"
                )
            return lattice.assemble_HN(W, params, box)

        return eigensolve.converged_spectrum(
            assemble, _box_start_halfwidth(W, params, count), count,
            _outside_floor(W, params)).values

    if V.dimension > 1 and V.separable:
        # the kinetic diagonal enters once per axis, so plain sums are exact
        return eigensolve.eigs_separable([levels(Vj) for Vj in V.axis_potentials],
                                         count)
    return levels(V)


def converge_study(
    V: Potential,
    gamma: float,
    N_list: Sequence[int],
    n_max: int,
) -> ConvergenceTable:
    """Ratios ``E_n(H_N) / lam_N`` against the limit spectrum over an N ladder."""
    if not -1.0 < gamma < 1.0:
        raise ValueError("the semiclassical window is gamma in (-1, 1)")
    if not V.wells:
        raise ValueError("potential carries no wells; validate it first")
    Ns = [int(N) for N in N_list]
    targets = sigma_enumerate(V, n_max + 1).values
    omega0 = V.wells[0].frequencies[0]

    def solve(N: int) -> np.ndarray:
        params = ScalingParams(N=N, gamma=gamma, omega=float(omega0))
        return levels_HN(V, params, n_max + 1)

    spectra = [solve(N) for N in Ns]
    rows = []
    for N, values in zip(Ns, spectra):
        lam = float(N) ** (1.0 - gamma)
        for n in range(n_max + 1):
            ratio = float(values[n]) / lam
            rows.append(
                ConvergenceRow(
                    gamma=gamma,
                    N=N,
                    n=n,
                    energy=float(values[n]),
                    lam=lam,
                    ratio=ratio,
                    target=float(targets[n]),
                    abs_err=abs(ratio - float(targets[n])),
                )
            )
    decreasing, orders = _ladder_fits(
        rows, n_max, [math.log(N2 / N1) for N1, N2 in zip(Ns, Ns[1:])])
    return ConvergenceTable(
        potential_name=V.name,
        gamma=gamma,
        rows=tuple(rows),
        errors_decreasing=decreasing,
        orders=orders,
    )


# ----------------------------------------------------------------------
# regime sweep across all gamma
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeRow:
    gamma: float
    n: int
    slope_fit: float
    slope_pred: float
    limit_const_fit: float
    limit_const_pred: float


@dataclass(frozen=True, eq=False)
class RegimeSweep:
    omega: float
    rows: tuple[RegimeRow, ...]
    energies: dict  # gamma -> (N array, level-by-N energy array)
    minus_one_exact_dev: float | None = None

    def row(self, gamma: float, n: int) -> RegimeRow:
        for r in self.rows:
            if r.gamma == gamma and r.n == n:
                return r
        raise KeyError((gamma, n))


GAMMA_BELOW_CAP = 64  # prescaled studies blow past float range for huge N


def _quadratic_chain(
    scale: float, hop: float, omega: float, box: LatticeBox
) -> SymmetricLatticeOperator:
    """``scale ((hop / 2) Delta + omega^2 x^2 / 2)`` on a 1-d box.

    Below the kink ``scale = 1`` and ``hop = N^(2 - 2|gamma|)`` give the
    prescaled ``H_N / N^(2|gamma|)``; at the kink ``scale = N^2`` and
    ``hop = 1`` give ``H_N = N^2 H_1`` itself.  Multiplying by 1 is exact,
    so each case keeps the rounding of its own formula.
    """
    x = box.coords().astype(float)
    return SymmetricLatticeOperator(
        box=box,
        diagonal=scale * (hop + 0.5 * omega**2 * x * x),
        coupling=0.5 * scale * hop,
    )


def _fit_tail_slope(Ns: Sequence[int], Es: Sequence[float]) -> float:
    """Least-squares slope of ``ln E`` vs ``ln N`` over the trailing points,
    in closed form about the means: ``sum(dx dy) / sum(dx^2)``."""
    m = max(3, len(Ns) // 2)
    xs = np.log(np.asarray(Ns[-m:], dtype=float))
    ys = np.log(np.asarray(Es[-m:], dtype=float))
    xs -= xs.mean()
    return float(xs @ (ys - ys.mean()) / (xs @ xs))


def regime_sweep(
    omega: float,
    gamma_grid: Sequence[float],
    N_list: Sequence[int],
    n_max: int,
) -> RegimeSweep:
    """Fit the growth exponent of every level across scaling regimes.

    Above the kink the exact reduction ``E_n(H_N) = (N^2/2) E_n(kappa)``
    is used; at ``gamma = -1`` operators are assembled directly per ``N``
    so the exact ``N^2`` ratio is observable; below the kink the prescaled
    operator is solved and energies are reconstructed.
    """
    if not omega > 0:
        raise ValueError(f"the regime sweep needs omega > 0, got omega={omega}")
    Ns_all = sorted(int(N) for N in N_list)
    if len(Ns_all) < 3:
        raise ValueError("need at least 3 values of N (a decade of span fits best)")
    count = n_max + 1
    M0 = max(16, 4 * count)

    def chain_levels(scale: float, hop: float) -> np.ndarray:
        return eigensolve.converged_spectrum(
            lambda M: _quadratic_chain(scale, hop, omega, LatticeBox.centered(1, M)),
            M0, count, lambda M: scale * 0.5 * omega**2 * (M + 1) ** 2).values

    rows: list[RegimeRow] = []
    energies: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    minus_one_dev = None
    e_limit = 0.5 * omega * (2.0 * np.arange(count) + 1.0)
    # gamma = 0 at N and gamma = -1/2 at N^2 give the same kappa, bit for bit
    kappa_levels: dict[float, np.ndarray] = {}

    for gamma in gamma_grid:
        if gamma > -1.0:
            Ns = Ns_all

            def solve(N: int) -> np.ndarray:
                kap = math.sqrt(omega * float(N) ** (-(1.0 + gamma)))
                if kap not in kappa_levels:
                    kappa_levels[kap] = harmonic_levels(kap, count).values
                return 0.5 * float(N) ** 2 * kappa_levels[kap]

            table = np.array([solve(N) for N in Ns])
            pred_consts = e_limit
            fitted_consts = table[-1] / float(Ns[-1]) ** (1.0 - gamma)
        elif gamma == -1.0:
            Ns = Ns_all
            table = np.array([chain_levels(float(N) ** 2, 1.0) for N in Ns])
            scaled = table / (np.asarray(Ns, dtype=float) ** 2)[:, None]
            minus_one_dev = float(
                np.max(np.abs(scaled - scaled[0]) / np.abs(scaled[0]))
            )
            # H_N / N^2 = H_1 = H_kappa / 2 at kappa = sqrt(omega): a prediction
            # from another operator, not from the ladder being fitted
            pred_consts = 0.5 * harmonic_levels(math.sqrt(omega), count).values
            fitted_consts = scaled[-1]
        else:
            Ns = [N for N in Ns_all if N <= GAMMA_BELOW_CAP]
            if len(Ns) < 3:
                raise ValueError(
                    f"need >= 3 ladder points at or below {GAMMA_BELOW_CAP} "
                    f"for gamma={gamma}"
                )
            pres = np.array(
                [chain_levels(1.0, float(N) ** (2.0 - 2.0 * abs(gamma))) for N in Ns]
            )
            table = pres * (np.asarray(Ns, dtype=float) ** (2.0 * abs(gamma)))[:, None]
            pred_consts = np.array(
                [0.0 if n == 0 else 0.5 * omega**2 * math.ceil(n / 2) ** 2
                 for n in range(count)]
            )
            fitted_consts = pres[-1]
        energies[float(gamma)] = (np.asarray(Ns), table)
        for n in range(count):
            rows.append(
                RegimeRow(
                    gamma=float(gamma),
                    n=n,
                    slope_fit=_fit_tail_slope(Ns, table[:, n]),
                    slope_pred=predicted_growth_exponent(gamma),
                    limit_const_fit=float(fitted_consts[n]),
                    limit_const_pred=float(pred_consts[n]),
                )
            )
    return RegimeSweep(
        omega=omega,
        rows=tuple(rows),
        energies=energies,
        minus_one_exact_dev=minus_one_dev,
    )


# ----------------------------------------------------------------------
# interval lower bounds and the spiked comparison operator
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalCertRow:
    label: int
    lo: int
    hi: int
    modified: bool
    ground_energy: float
    ratio: float
    cert_ok: bool
    cert_slack: float


@dataclass(frozen=True, eq=False)
class IntervalLowerBoundReport:
    n: int
    kappa: float
    delta: float
    epsilon: float
    halfwidth: int
    decomposition: IntervalDecomposition
    rows: tuple[IntervalCertRow, ...]
    min_ratio: float
    threshold: float

    @property
    def all_certificates_ok(self) -> bool:
        return all(r.cert_ok for r in self.rows)

    @property
    def ratio_ok(self) -> bool:
        return self.min_ratio >= self.threshold


def _capped_test_function(
    n: int, kappa: float, beta: float, xs: np.ndarray, x_delta: int
) -> np.ndarray:
    """Certificate on an unbounded piece: |quasimode| frozen past the spike.

    ``Psi_n(-y) = (-1)^n Psi_n(y)`` exactly, so one cap serves both sides."""
    u = np.abs(hermite.weighted_eval(n, beta * kappa * xs.astype(float)))
    cap = float(np.abs(hermite.weighted_eval(n, beta * kappa * float(x_delta))))
    u[np.abs(xs) > x_delta] = cap
    return u


def interval_lowerbound_experiment(
    n: int, kappa: float, delta: float, epsilon: float = 0.1
) -> IntervalLowerBoundReport:
    """Ground energies and positivity certificates on the zero-anchored intervals.

    Bounded pieces use the plain quadratic operator; the unbounded pieces
    use the spiked modification with the capped certificate.  Each piece
    reports its restricted ground energy over ``kappa^2`` and the pointwise
    slack of ``(H + alpha) u >= 0`` at ``alpha = -(1 - epsilon) kappa^2
    (2n + 1)``.  ``epsilon`` lies in (0, 1]; at 1 the threshold is 0 and the
    certificate checks plain nonnegativity.
    """
    if n < 1:
        raise ValueError("the nodal interval construction needs degree n >= 1")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got epsilon={epsilon}")
    dec = lattice.build_interval_decomposition(n, kappa)
    mod = ModifiedPotentialParams(kappa=kappa, delta=delta)
    if mod.x_delta < int(dec.a[-1]):
        raise ValueError(
            "spike sits inside a bounded interval; decrease kappa or delta"
        )
    M = max(
        hermite.box_halfwidth(n, kappa),
        mod.x_delta + 2,
        dec.min_halfwidth() + 1,
        int(math.ceil(2.0 * math.sqrt(2.0 * n + 1.0) / kappa)),
    )
    box = LatticeBox.centered(1, M)
    plain = lattice.assemble_Hkappa(kappa, box)
    spiked = lattice.assemble_modified(mod, box)
    alpha = -(1.0 - epsilon) * kappa**2 * (2.0 * n + 1.0)
    rows: list[IntervalCertRow] = []
    for lo, hi, label, beta in dec.pieces(M):
        unbounded = abs(label) == dec.k and dec.k > 0
        parent = spiked if unbounded else plain
        piece = parent.restrict(LatticeBox.interval(lo, hi))
        ground = float(eigensolve.eigs_tridiag(piece, 1).values[0])
        xs = piece.box.coords()
        if unbounded:
            u = _capped_test_function(n, kappa, beta, xs, mod.x_delta)
        else:
            u = np.abs(hermite.weighted_eval(n, beta * kappa * xs.astype(float)))
        ok, slack = eigensolve.verify_superharmonic(piece, alpha, u)
        rows.append(
            IntervalCertRow(
                label=label,
                lo=lo,
                hi=hi,
                modified=unbounded,
                ground_energy=ground,
                ratio=ground / kappa**2,
                cert_ok=ok,
                cert_slack=slack,
            )
        )
    min_ratio = min(r.ratio for r in rows)
    return IntervalLowerBoundReport(
        n=n,
        kappa=kappa,
        delta=delta,
        epsilon=epsilon,
        halfwidth=M,
        decomposition=dec,
        rows=tuple(rows),
        min_ratio=min_ratio,
        threshold=(1.0 - epsilon) * (2.0 * n + 1.0),
    )


@dataclass(frozen=True)
class ModifiedRow:
    kappa: float
    n: int
    energy_plain: float
    energy_modified: float
    scaled_gap: float  # |modified - plain| / kappa^2


@dataclass(frozen=True, eq=False)
class ModifiedComparison:
    delta: float
    rows: tuple[ModifiedRow, ...]
    ordering_ok: bool  # modified >= plain throughout (min-max)

    def gaps(self, n: int) -> list[float]:
        return [r.scaled_gap for r in self.rows if r.n == n]


def modified_vs_plain(
    n_max: int, kappa_list: Sequence[float], delta: float
) -> ModifiedComparison:
    """Levels of the plain and spiked operators on a shared box, per kappa.

    The spike only raises eigenvalues; the scaled gap ``|E~_n - E_n| /
    kappa^2`` measures how far outside the classically allowed region the
    spike sits.
    """

    def solve(kappa: float):
        mod = ModifiedPotentialParams(kappa=kappa, delta=delta)
        M = max(hermite.box_halfwidth(n_max, kappa), mod.x_delta + 2)
        box = LatticeBox.centered(1, M)
        plain = eigensolve.eigs_tridiag(
            lattice.assemble_Hkappa(kappa, box), n_max + 1
        ).values
        spiked = eigensolve.eigs_tridiag(
            lattice.assemble_modified(mod, box), n_max + 1
        ).values
        return plain, spiked

    results = [solve(float(k)) for k in kappa_list]
    rows = []
    ordering_ok = True
    for kappa, (plain, spiked) in zip(kappa_list, results):
        for n in range(n_max + 1):
            gap = float(spiked[n] - plain[n])
            # bisection widths allow a hair of negative fuzz on exact ties
            if gap < -4e-13 * (1.0 + abs(plain[n])):
                ordering_ok = False
            rows.append(
                ModifiedRow(
                    kappa=float(kappa),
                    n=n,
                    energy_plain=float(plain[n]),
                    energy_modified=float(spiked[n]),
                    scaled_gap=abs(gap) / float(kappa) ** 2,
                )
            )
    return ModifiedComparison(delta=delta, rows=tuple(rows), ordering_ok=ordering_ok)


# ----------------------------------------------------------------------
# localization experiment for general potentials
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ImsPatchRow:
    center: tuple[int, ...]
    commutator_norm: float
    commutator_bound: float
    variation: float
    potdiff_norm: float
    potdiff_scale: float


@dataclass(frozen=True, eq=False)
class ImsReport:
    N: int
    gamma: float
    delta_cut: float
    inner_radius: float
    identity_residual: float
    eta0_commutator_norm: float
    eta0_bound: float
    rows: tuple[ImsPatchRow, ...]
    floor_min: float
    floor_target: float

    @property
    def commutators_ok(self) -> bool:
        return all(r.commutator_norm <= r.commutator_bound for r in self.rows)

    @property
    def floor_ok(self) -> bool:
        return self.floor_min >= self.floor_target


def scaled_well_params(V: Potential, params: ScalingParams, l: int):
    """Center and per-axis kappas of well ``l`` under the scaling."""
    well = V.wells[l]
    center = tuple(int(round(params.N * float(c))) for c in well.location)
    kappas = tuple(
        math.sqrt(float(w) * float(params.N) ** (-(1.0 + params.gamma)))
        for w in well.frequencies
    )
    return center, kappas


def ims_general_experiment(
    V: Potential, params: ScalingParams, delta_cut: float, n_max: int = 3
) -> ImsReport:
    """Exact localization identity plus the size of every remainder term.

    Builds the cube partition of inner radius ``r = N^(1+delta) /
    sqrt(lam)`` around the scaled wells and reports, per well, the double
    commutator norm against ``16 d lam / N^(2 delta)``, the quadratic-form
    norm of the potential error against the Taylor scale ``lam^2 (r/N)^3``,
    and the potential floor on the complement region against the last
    tracked limit energy ``lam e_n``.  The partition stays on its support
    windows: each bump on its cube grown by one site, ``eta_0`` on the
    bumps' bounding box (see :mod:`lsc.lattice`), and the potential error is
    taken on each bump's window, where the ring adds only zeros, so the
    operator's diagonal is the only box-sized float array.  Every number is
    bitwise the one the full arrays give.
    """
    gamma = params.gamma
    if not 0.0 < delta_cut < 0.5 * (1.0 - gamma):
        raise ValueError("cube exponent must lie in (0, (1-gamma)/2)")
    if not V.wells:
        raise ValueError("potential carries no wells")
    N = params.N
    lam = params.lam
    r = float(N) ** (1.0 + delta_cut) / math.sqrt(lam)
    centers = [scaled_well_params(V, params, l)[0] for l in range(len(V.wells))]
    far = max(abs(c) for center in centers for c in center)
    M = max(
        int(math.ceil(N * V.positivity_radius)), far + int(math.ceil(r)) + 2
    )
    box = LatticeBox.centered(V.dimension, M)
    op = lattice.assemble_HN(V, params, box)
    etas = lattice._ims_windows(centers, r, box)
    identity_residual = lattice.ims_identity_residual(op, etas)
    norms = lattice.double_commutator_norms(op, etas)
    variations = lattice.partition_variation(box, etas)
    d = V.dimension
    bound_patch = 16.0 * d * lam / float(N) ** (2.0 * delta_cut)
    diag = op.diagonal.reshape(box.shape)
    shift = d * float(N) ** 2  # diag - shift is the potential part lam^2 V(x/N)
    rows = []
    for l, center in enumerate(centers):
        well = V.wells[l]
        bump = etas[l + 1]
        # the harmonic model on the bump's window, summed axis by axis, each
        # axis term broadcast from its coordinate vector
        harm = np.zeros(bump.values.shape)
        for ax, (lo, a, b) in enumerate(zip(box.lo, bump.start, bump.stop)):
            x = np.arange(lo + a, lo + b, dtype=float)
            term = (0.5 * float(well.frequencies[ax]) ** 2
                    * ((x - center[ax]) / float(N)) ** 2)
            harm += term.reshape((-1,) + (1,) * (d - 1 - ax))
        diff = (diag[bump.slices] - shift) - lam**2 * harm
        eta = bump.values
        rows.append(
            ImsPatchRow(
                center=center,
                commutator_norm=norms[l + 1],
                commutator_bound=bound_patch,
                variation=variations[l + 1],
                potdiff_norm=float(np.abs(eta * eta * diff).max(initial=0.0)),
                potdiff_scale=lam**2 * (r / float(N)) ** 3,
            )
        )
    # eta_0 > 0 outside its window, where it is 1; the shift is monotone under
    # rounding, so it commutes with the minimum
    eta0 = etas[0]
    outside = np.ones(box.shape, dtype=bool)
    outside[eta0.slices] = eta0.values > 0.0
    floor_min = float(np.min(diag, where=outside, initial=math.inf) - shift)
    e_top = float(sigma_enumerate(V, n_max + 1).values[-1])
    return ImsReport(
        N=N,
        gamma=gamma,
        delta_cut=delta_cut,
        inner_radius=r,
        identity_residual=identity_residual,
        eta0_commutator_norm=norms[0],
        eta0_bound=2.0 * op.hopping_norm_bound() * variations[0] ** 2,
        rows=tuple(rows),
        floor_min=floor_min,
        floor_target=lam * e_top,
    )
