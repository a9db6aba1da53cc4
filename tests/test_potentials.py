"""Tests for potential evaluation, well data, and assumption validation."""

import math

import numpy as np
import pytest

from lsc.errors import NonPositiveHessian
from lsc.lattice import LatticeBox
from lsc import potentials
from lsc.potentials import (
    Potential,
    ScalingParams,
    Well,
    double_well,
    double_well_nd,
    eval_potential,
    harmonic,
    hessian_frequencies,
    sample_on_lattice,
    two_well,
    validate_assumptions,
)
from spectral_checks import point_array, traced_peak


def quartic_no_well():
    """V(x) = x^4: smooth, nonnegative, but its minimum is degenerate."""
    return Potential(
        dimension=1,
        evaluator=lambda pts: pts[:, 0] ** 4,
        wells=(),
        positivity_radius=2.0,
        floor=lambda r: 1.0 + 0.0 * r,
        name="quartic",
    )


class TestEval:
    def test_harmonic_minimum(self):
        assert eval_potential(harmonic([1.0]), 0.0) == 0.0

    def test_harmonic_anisotropic_value(self):
        # (1/2)(1^2*1^2 + 2^2*1^2) = 2.5
        assert eval_potential(harmonic([1.0, 2.0]), [1.0, 1.0]) == pytest.approx(2.5, abs=0)

    def test_double_well_origin(self):
        # direct formula: (0 - 1)^2 / 2
        assert eval_potential(double_well(), 0.0) == pytest.approx(0.5, abs=0)

    def test_batched_eval(self):
        V = harmonic([2.0])
        xs = np.array([[0.0], [1.0], [-1.0]])
        np.testing.assert_allclose(eval_potential(V, xs), [0.0, 2.0, 2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            eval_potential(harmonic([1.0]), math.inf)


class TestSampling:
    def test_sample_matches_scaled_point(self):
        box = LatticeBox.interval(-12, 12)
        vals = sample_on_lattice(harmonic([1.0]), 10, box)
        assert vals[box.index((10,))] == pytest.approx(0.5, abs=0)
        assert vals[box.index((0,))] == 0.0

    def test_sample_double_well(self):
        # V(2/4) = ((1/4) - 1)^2 / 2 = 0.28125 by the defining formula
        box = LatticeBox.interval(-4, 4)
        vals = sample_on_lattice(double_well(), 4, box)
        assert vals[box.index((2,))] == pytest.approx(0.28125, abs=0)

    def test_even_potentials_sample_evenly(self):
        box = LatticeBox.interval(-30, 30)
        for V in (harmonic([1.3]), double_well()):
            vals = sample_on_lattice(V, 7, box)
            np.testing.assert_array_equal(vals, vals[::-1])

    def test_requires_positive_N(self):
        with pytest.raises(ValueError):
            sample_on_lattice(harmonic([1.0]), 0, LatticeBox.interval(-1, 1))


class TestHessian:
    def test_harmonic_frequencies(self):
        freqs = hessian_frequencies(harmonic([1.0, 3.0]), [0.0, 0.0])
        np.testing.assert_allclose(freqs, [1.0, 3.0], rtol=1e-6)

    def test_double_well_frequency(self):
        # analytic oracle: V''(x) = 6x^2 - 2, so V''(1) = 4 and omega = 2
        freqs = hessian_frequencies(double_well(), 1.0)
        np.testing.assert_allclose(freqs, [2.0], rtol=1e-6)

    def test_degenerate_minimum_rejected(self):
        with pytest.raises(NonPositiveHessian):
            hessian_frequencies(quartic_no_well(), 0.0)

    def test_nonzero_point_rejected(self):
        with pytest.raises(ValueError):
            hessian_frequencies(harmonic([1.0]), 1.0)

    def test_rotation_invariance(self):
        # same quadratic form expressed in a rotated frame
        theta = 0.3
        R = np.array([
            [math.cos(theta), -math.sin(theta)],
            [math.sin(theta), math.cos(theta)],
        ])
        om = np.array([1.0, 2.0])

        def rotated(pts, _R=R, _om=om):
            y = pts @ _R
            return 0.5 * ((_om**2) * y * y).sum(axis=-1)

        V = Potential(
            dimension=2,
            evaluator=rotated,
            wells=(Well(location=np.zeros(2), frequencies=om),),
            positivity_radius=1.0,
            floor=lambda r: 0.4 + 0.0 * r,
            name="rotated_harmonic",
        )
        freqs = hessian_frequencies(V, [0.0, 0.0])
        np.testing.assert_allclose(freqs, [1.0, 2.0], rtol=1e-8)


class TestWellInvariants:
    @pytest.mark.parametrize(
        "V",
        [harmonic([1.0]), harmonic([0.5, 2.0]), double_well(), double_well_nd(2), two_well()],
        ids=lambda v: v.name,
    )
    def test_zero_value_and_flat_gradient(self, V):
        for well in V.wells:
            a = well.location
            assert abs(eval_potential(V, a)) <= 1e-12
            h = np.finfo(float).eps ** (1 / 3) * (1 + np.abs(a))
            grad = np.array([
                (
                    eval_potential(V, a + h[i] * np.eye(V.dimension)[i])
                    - eval_potential(V, a - h[i] * np.eye(V.dimension)[i])
                )
                / (2 * h[i])
                for i in range(V.dimension)
            ])
            hess_scale = np.abs(potentials.central_difference_hessian(V, a)).max()
            assert np.linalg.norm(grad) <= 1e-6 * (1.0 + hess_scale)

    def test_misregistered_well_rejected(self):
        with pytest.raises(ValueError):
            Potential(
                dimension=1,
                evaluator=lambda pts: pts[:, 0] ** 2,
                wells=(Well(location=np.array([1.0]), frequencies=np.array([1.0])),),
                positivity_radius=2.0,
                floor=lambda r: 1.0 + 0.0 * r,
            )

    def test_separable_follows_axis_factors(self):
        assert double_well_nd(2).separable
        assert not double_well().separable
        with pytest.raises(ValueError, match="one 1-d factor per axis"):
            Potential(
                dimension=2,
                evaluator=lambda pts: (pts * pts).sum(axis=-1),
                wells=(),
                positivity_radius=1.0,
                floor=lambda r: 1.0 + 0.0 * r,
                axis_potentials=(double_well(),),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("build", [
        lambda v: Well(location=np.zeros(2), frequencies=np.array([1.0, v])),
        lambda v: harmonic([1.0, v]),
        lambda v: two_well(omega=v),
        lambda v: two_well(separation=v),
    ], ids=["Well", "harmonic", "two_well-omega", "two_well-separation"])
    def test_non_finite_frequency_rejected(self, build, bad):
        with pytest.raises(ValueError, match="finite and"):
            build(bad)

    def test_well_frequency_order_enforced(self):
        with pytest.raises(ValueError):
            Well(location=np.zeros(2), frequencies=np.array([2.0, 1.0]))



class TestPositivityMetadata:
    # the truncation bracket takes N^(2(1 - gamma)) floor((M + 1) / N) as the
    # potential's floor outside a box past N R0, so the law must hold far out
    # too, and must not decrease, for it bounds every point beyond the edge
    @pytest.mark.parametrize("V", [
        harmonic([0.5]), harmonic([1.0]), harmonic([2.0]), double_well(),
        two_well(), two_well(omega=2.0, separation=1.0), harmonic([0.5, 2.0]),
        double_well_nd(2), two_well(d=2),
    ], ids=["harmonic-0.5", "harmonic-1", "harmonic-2", "double_well", "two_well",
            "two_well-2-1", "harmonic-0.5-2", "double_well_2d", "two_well_2d"])
    def test_floor_holds_out_to_a_hundred_radii(self, V):
        R0 = V.positivity_radius
        r = np.linspace(R0, 100.0 * R0, 200_001)[1:]
        if V.dimension == 1:
            directions = np.array([[-1.0], [1.0]])
        else:  # sixteen random directions at a tenth of the radii
            r = r[::10]
            u = np.random.default_rng(11).standard_normal((16, V.dimension))
            directions = u / np.linalg.norm(u, axis=1, keepdims=True)
        pts = (directions[:, None, :] * r[:, None]).reshape(-1, V.dimension)
        law = V.floor(np.linalg.norm(pts, axis=1))
        assert np.all(eval_potential(V, pts) >= law)
        assert np.all(np.diff(V.floor(r)) >= 0.0)

    @pytest.mark.parametrize("V, constant", [
        (harmonic([0.5, 2.0]), 0.125), (double_well(), 4.0), (double_well_nd(2), 4.0),
        (two_well(), 0.125), (two_well(omega=2.0, separation=1.0), 0.125),
    ], ids=["harmonic-0.5-2", "double_well", "double_well_2d", "two_well",
            "two_well-2-1"])
    def test_law_starts_at_least_at_the_constant_floor(self, V, constant):
        # the laws replace constants c with V >= c past R0; they never start lower
        assert V.floor(V.positivity_radius) >= constant

    @pytest.mark.parametrize("floor", [1.0, None, "r**2"])
    def test_non_callable_floor_rejected(self, floor):
        with pytest.raises(ValueError, match="floor must be a callable of the radius"):
            Potential(dimension=1, evaluator=lambda pts: pts[:, 0] ** 2, wells=(),
                      positivity_radius=1.0, floor=floor)


class TestValidation:
    def test_harmonic_all_pass(self):
        report = validate_assumptions(harmonic([1.0]), 10.0, 0.01)
        assert report.passed
        assert report.zero_count == 1
        assert report.smoothness == "assumed"

    def test_double_well_all_pass(self):
        report = validate_assumptions(double_well(), 10.0, 0.01)
        assert report.passed
        assert report.zero_count == 2
        assert report.floor_margin >= 0.0

    def test_scan_step_reports_the_coarsened_grid(self):
        # 2-d scans coarsen until at most 2e6 points remain; 1-d scans do not
        assert validate_assumptions(double_well(), 5.0, 0.004).scan_step == 0.004
        for step in (0.004, 0.001):
            report = validate_assumptions(double_well_nd(2), 2.0 * 2**0.5 + 3.0, step)
            assert report.scan_step == 0.016

    def test_negative_potential_flagged(self):
        V = Potential(
            dimension=1,
            evaluator=lambda pts: pts[:, 0] ** 2 - 0.1,
            wells=(),
            positivity_radius=2.0,
            floor=lambda r: 1.0 + 0.0 * r,
            name="dipped",
        )
        report = validate_assumptions(V, 5.0, 0.01)
        assert not report.nonnegative
        assert report.min_value == pytest.approx(-0.1, abs=1e-12)
        assert not report.passed

    def test_unregistered_zero_flagged(self):
        # double well with only one of its two zeros registered
        V = Potential(
            dimension=1,
            evaluator=lambda pts: 0.5 * (pts[:, 0] ** 2 - 1.0) ** 2,
            wells=(Well(location=np.array([1.0]), frequencies=np.array([2.0])),),
            positivity_radius=2.0,
            floor=lambda r: 4.0 + 0.0 * r,
            name="half_registered",
        )
        report = validate_assumptions(V, 5.0, 0.01)
        assert report.unregistered_zeros
        assert not report.passed

    def test_scan_radius_precondition(self):
        with pytest.raises(ValueError):
            validate_assumptions(double_well(), 1.5, 0.01)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_scan_radius_must_be_finite(self, radius):
        with pytest.raises(ValueError, match="scan_radius must be finite"):
            validate_assumptions(double_well(), radius, 0.01)


def whole_box_sample(V, N, box):
    """``sample_on_lattice`` as one evaluation of the whole point array."""
    pts = point_array(box).astype(float)
    return np.asarray(V.evaluator(pts / float(N)), dtype=float).reshape(box.size)


def whole_grid_scan(V, scan_radius, grid_step):
    """The grid-dependent fields of ``validate_assumptions`` from one evaluation
    of the whole scan grid, and the number of unregistered near-zeros before
    the cap of 16."""
    d, step = V.dimension, grid_step
    axis = np.arange(-scan_radius, scan_radius + 0.5 * step, step)
    while d > 1 and axis.size**d > 2_000_000:
        step *= 2.0
        axis = np.arange(-scan_radius, scan_radius + 0.5 * step, step)
    pts = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    vals = np.asarray(V.evaluator(pts), dtype=float)
    i_min = int(np.argmin(vals))
    cand = pts[vals < potentials.UNREGISTERED_ZERO_TOL]
    if V.wells and cand.size:
        locs = np.stack([w.location for w in V.wells])
        dists = np.sqrt(((cand[:, None, :] - locs[None, :, :]) ** 2).sum(axis=2))
        cand = cand[dists.min(axis=1) > potentials.WELL_EXCLUSION_RADIUS]
    norms = np.sqrt((pts**2).sum(axis=-1))
    ring = (norms > V.positivity_radius) & (norms <= scan_radius)
    margin = float((vals[ring] - V.floor(norms[ring])).min()) if ring.any() else math.nan
    radii = np.arange(scan_radius, V.positivity_radius, -step)[::-1]
    law = np.broadcast_to(V.floor(radii), radii.shape)
    fields = {
        "nonnegative": bool(vals[i_min] >= -potentials.WELL_ZERO_TOL),
        "min_value": float(vals[i_min]),
        "argmin": tuple(pts[i_min]),
        "unregistered_zeros": tuple(tuple(p) for p in cand[:16]),
        "positive_at_infinity": bool(margin >= 0.0 and (np.diff(law) >= 0.0).all()),
        "floor_margin": margin,
        "scan_step": step,
    }
    return fields, len(cand)


def assert_matches_whole_scan(V, scan_radius, grid_step):
    """Every grid-dependent report field equals the whole-grid scan's (NaN
    equal to NaN, zeros by sign); returns the report and the near-zero count."""
    report = validate_assumptions(V, scan_radius, grid_step)
    want, near_zeros = whole_grid_scan(V, scan_radius, grid_step)
    for field, value in want.items():
        np.testing.assert_equal(getattr(report, field), value, err_msg=field)
    return report, near_zeros


def leading_block(x, scan_radius, step, row):
    """Index of the block holding the grid row at leading coordinate ``x``."""
    return round((x + scan_radius) / step) // (potentials.GRID_BLOCK_POINTS // row)


BUILTINS = [harmonic([1.3]), harmonic([0.7, 1.9]), harmonic([0.5, 1.0, 2.0]),
            double_well(), double_well_nd(2), double_well_nd(3),
            two_well(), two_well(omega=1.5, d=2), two_well(separation=3.0, d=3)]


class TestPointBlocks:
    @pytest.mark.parametrize("lo, hi", [
        ((-70_000,), (70_000,)),  # three blocks, the last one short
        ((-150, -120), (150, 120)),  # 271 rows of 241 points, then 30 rows
        ((-2, -40_000), (2, 40_000)),  # a row of 80,001 points is a block alone
        ((-40, -30, -20), (41, 30, 20)),  # 26 rows of 2,501 points, three times, then 4
    ])
    def test_whole_rows_in_c_order(self, lo, hi):
        box = LatticeBox(lo=lo, hi=hi)
        axes = [np.arange(l, h + 1, dtype=float) for l, h in zip(lo, hi)]
        row = box.size // box.shape[0]
        per_block = row * max(1, potentials.GRID_BLOCK_POINTS // row)
        assert per_block <= max(row, potentials.GRID_BLOCK_POINTS)
        full, rest = divmod(box.size, per_block)
        blocks = list(potentials._point_blocks(axes))
        assert [b.shape[0] for b in blocks] == [per_block] * full + [rest] * (rest > 0)
        assert len(blocks) > 1
        np.testing.assert_array_equal(np.concatenate(blocks), point_array(box))


class TestBlockedSampling:
    @pytest.mark.parametrize("V, N, lo, hi", [
        (double_well(), 64, (-70_000,), (70_000,)),
        (harmonic([1.3]), 5, (-3,), (90_000,)),
        (double_well_nd(2), 32, (-150, -120), (150, 120)),
        (two_well(omega=1.5, d=2), 7, (-2, -40_000), (2, 40_000)),
        (harmonic([0.7, 1.9]), 16, (-300, -200), (310, 200)),
        (double_well_nd(3), 16, (-40, -30, -20), (41, 30, 20)),
        (two_well(separation=3.0, d=3), 9, (-40, -30, -20), (41, 30, 20)),
        (harmonic([0.5, 1.0, 2.0]), 11, (-30, -30, -30), (30, 30, 30)),
    ], ids=lambda v: getattr(v, "name", None))
    def test_bitwise_the_whole_box_values(self, V, N, lo, hi):
        box = LatticeBox(lo=lo, hi=hi)
        assert box.size > potentials.GRID_BLOCK_POINTS
        got = sample_on_lattice(V, N, box)
        want = whole_box_sample(V, N, box)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_memory_is_bounded_by_the_block(self):
        # the 537,289 sampled values take 4.3 MB; evaluating the whole point
        # array at once peaks at 30 MB
        V, box = double_well_nd(2), LatticeBox.centered(2, 366)
        assert traced_peak(lambda: sample_on_lattice(V, 64, box)) <= 12e6


class TestBlockedValidation:
    @pytest.mark.parametrize("V", BUILTINS, ids=lambda V: f"{V.name}-{V.dimension}d")
    def test_builtins_match_the_whole_grid(self, V):
        radius = V.positivity_radius + 3.0
        step = {1: 0.0001, 2: 0.02, 3: 0.2}[V.dimension]
        report, _ = assert_matches_whole_scan(V, radius, step)
        assert report.passed

    def test_unregistered_zeros_cap_crosses_a_block_edge(self):
        # V vanishes on |y| < 0.05 along the lines x = 2.5 k: 5 grid points on
        # each of the rows x = -5 and -2.5 (block 0), 0 (block 1), 2.5 (block
        # 2) and 5 (block 3).  Those at x = 0 lie next to the registered (and
        # degenerate) well at the origin; of the 20 others the cap keeps the
        # first 16, which end one point into block 3
        def evaluator(pts):
            return (np.sin(np.pi * pts[:, 0] / 2.5) ** 2
                    + np.maximum(np.abs(pts[:, 1]) - 0.05, 0.0) ** 2)

        V = Potential(dimension=2, evaluator=evaluator,
                      wells=(Well(location=np.zeros(2), frequencies=np.ones(2)),),
                      positivity_radius=4.0, floor=lambda r: 0.0 * r, name="striped")
        radius, step = 5.0, 0.02
        report, near_zeros = assert_matches_whole_scan(V, radius, step)
        assert near_zeros == 20 and len(report.unregistered_zeros) == 16
        row = round(2 * radius / step) + 1
        blocks = [leading_block(p[0], radius, step, row) for p in report.unregistered_zeros]
        assert blocks == [0] * 10 + [2] * 5 + [3] and not report.wells_valid

    def test_negative_in_a_later_block(self):
        # V is exactly -0.01 on a disc about (2.5, 0) whose rows lie in blocks
        # 2 and 3, and positive off it: the first of the tied least values,
        # in block 2, is the one np.argmin picks
        def evaluator(pts):
            return np.maximum((pts[:, 0] - 2.5) ** 2 + pts[:, 1] ** 2 - 1.0, -0.01)

        V = Potential(dimension=2, evaluator=evaluator, wells=(), positivity_radius=4.0,
                      floor=lambda r: 0.0 * r, name="dipped_late")
        radius, step = 5.0, 0.02
        report, _ = assert_matches_whole_scan(V, radius, step)
        assert not report.nonnegative and report.min_value == -0.01
        row = round(2 * radius / step) + 1
        assert leading_block(report.argmin[0], radius, step, row) == 2
        assert leading_block(3.4, radius, step, row) == 3

    def test_nan_values_as_the_whole_grid_gives_them(self):
        # V is the double well but NaN on x > 2, |y| < 0.5: its finite minimum
        # lies in block 1, its first NaN in block 2, and NaN reaches the ring
        base = double_well_nd(2)

        def evaluator(pts):
            vals = base.evaluator(pts)
            vals[(pts[:, 0] > 2.0) & (np.abs(pts[:, 1]) < 0.5)] = np.nan
            return vals

        V = Potential(dimension=2, evaluator=evaluator, wells=base.wells,
                      positivity_radius=base.positivity_radius, floor=base.floor,
                      name="holed")
        radius, step = base.positivity_radius + 3.0, 0.02
        report, _ = assert_matches_whole_scan(V, radius, step)
        assert math.isnan(report.min_value) and math.isnan(report.floor_margin)
        assert not report.nonnegative and not report.positive_at_infinity
        assert report.argmin[0] > 2.0

    @pytest.mark.parametrize("V, radius, bound", [
        # 532,900 and 1,061,208 points; a whole-grid scan peaks at 28 and 77 MB
        (double_well_nd(2), 2.0 * 2**0.5 + 3.0, 8e6),
        (double_well_nd(3), 2.0 * 3**0.5 + 3.0, 10e6),
    ], ids=["2d", "3d"])
    def test_memory_is_bounded_by_the_block(self, V, radius, bound):
        assert traced_peak(lambda: validate_assumptions(V, radius, 0.004)) <= bound


class TestRowSum:
    """The scan's short-axis sums are left folds over columns, bit for bit NumPy's."""

    @staticmethod
    def points(d):
        rng = np.random.default_rng(d)
        return rng.standard_normal((20_000, d)) * 10.0 ** rng.uniform(-3, 3, (20_000, d))

    @pytest.mark.parametrize("d", range(1, 10))
    def test_matches_the_axis_sum(self, d):
        terms = self.points(d) ** 2
        assert np.array_equal(potentials._row_sum(terms).view(np.int64),
                              terms.sum(axis=-1).view(np.int64))

    @pytest.mark.parametrize("d", range(1, 8))
    def test_evaluators_keep_their_bits(self, d):
        pts = self.points(d)
        om = np.linspace(0.5, 2.0, d)
        a = np.zeros(d)
        a[0] = 1.5
        vp = 0.5 * 1.3**2 * ((pts - a) ** 2).sum(axis=-1)
        vm = 0.5 * 1.3**2 * ((pts + a) ** 2).sum(axis=-1)
        pairs = [(harmonic(om), 0.5 * ((om**2) * pts**2).sum(axis=-1)),
                 (two_well(omega=1.3, separation=3.0, d=d), vp * vm / (vp + vm))]
        if d > 1:
            pairs.append((double_well_nd(d), (0.5 * (pts * pts - 1.0) ** 2).sum(axis=-1)))
        for V, want in pairs:
            assert np.array_equal(V.evaluator(pts).view(np.int64), want.view(np.int64))


class TestScalingParams:
    @pytest.mark.parametrize("N,gamma,omega", [(16, 0.0, 1.0), (1024, 0.5, 2.0), (7, -0.75, 0.3)])
    def test_derived_quantities_exact(self, N, gamma, omega):
        p = ScalingParams(N=N, gamma=gamma, omega=omega)
        assert p.lam == float(N) ** (1.0 - gamma)
        assert p.kappa**2 == pytest.approx(omega * float(N) ** (-(1.0 + gamma)), rel=4e-16)
        assert p.lam * p.kappa**2 == pytest.approx(omega * float(N) ** (-2.0 * gamma), rel=1e-15)
        assert p.mesh == 1.0 / N

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ScalingParams(N=0, gamma=0.0)
        with pytest.raises(ValueError):
            ScalingParams(N=4, gamma=0.0, omega=0.0)


class TestCatalogue:
    def test_two_well_structure(self):
        V = two_well(omega=1.0, separation=2.0)
        assert len(V.wells) == 2
        freqs = hessian_frequencies(V, [1.0])
        np.testing.assert_allclose(freqs, [1.0], rtol=1e-6)
        assert validate_assumptions(V, 6.0, 0.01).passed

    def test_double_well_2d_wells(self):
        V = double_well_nd(2)
        assert len(V.wells) == 4
        assert V.separable
        for well in V.wells:
            np.testing.assert_allclose(
                hessian_frequencies(V, well.location), [2.0, 2.0], rtol=1e-6
            )

    def test_separable_flag_consistency(self):
        V = double_well_nd(2)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, size=(64, 2))
        total = eval_potential(V, pts)
        by_axes = sum(
            eval_potential(V.axis_potentials[ax], pts[:, ax]) for ax in range(2)
        )
        np.testing.assert_allclose(total, by_axes, rtol=1e-12)

    def test_builtin_lookup(self):
        assert potentials.builtin_potential("harmonic", [2.0]).name == "harmonic"
        assert potentials.builtin_potential("double_well").name == "double_well"
        with pytest.raises(KeyError):
            potentials.builtin_potential("no_such_potential")
