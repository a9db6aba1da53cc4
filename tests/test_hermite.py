"""Tests for Hermite evaluation, zeros, quasimodes, residuals, and Gram sums."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsc.errors import BoxTooSmall
from lsc.hermite import (
    box_halfwidth,
    gram_entry,
    hermite_eval,
    hermite_zeros,
    psi_fourth_derivative,
    quasimode_apply,
    residual_integral,
    tail_mass,
    weighted_eval,
)
from lsc.lattice import LatticeBox, assemble_Hkappa

# physicists' polynomials written out as coefficient tables (independent of
# the recurrence under test)
COEFFS = {
    0: [1],
    1: [0, 2],
    2: [-2, 0, 4],
    3: [0, -12, 0, 8],
    4: [12, 0, -48, 0, 16],
    5: [0, 120, 0, -160, 0, 32],
    6: [-120, 0, 720, 0, -480, 0, 64],
}


def poly_oracle(n: int, y: float) -> float:
    return sum(c * y**p for p, c in enumerate(COEFFS[n]))


class TestEval:
    def test_degree_zero_is_one(self):
        for y in (-3.0, 0.0, 17.5):
            assert hermite_eval(0, y) == 1.0

    def test_closed_form_points(self):
        assert hermite_eval(2, 1.0) == pytest.approx(2.0, abs=0)
        assert hermite_eval(3, 1.0) == pytest.approx(-4.0, abs=0)

    @pytest.mark.parametrize("n", range(7))
    def test_recurrence_vs_coefficient_table(self, n):
        ys = np.linspace(-2.5, 2.5, 11)
        got = hermite_eval(n, ys)
        want = np.array([poly_oracle(n, y) for y in ys])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6), st.floats(-4, 4, allow_nan=False))
    def test_recurrence_vs_table_random(self, n, y):
        assert hermite_eval(n, y) == pytest.approx(
            poly_oracle(n, y), rel=1e-11, abs=1e-11
        )

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            hermite_eval(64, 1e5)


class TestWeighted:
    def test_ground_value(self):
        assert weighted_eval(0, 0.0) == 1.0

    def test_underflow_to_zero(self):
        v = weighted_eval(1, 100.0)
        assert v == 0.0 and not math.isnan(v)

    def test_closed_form(self):
        assert weighted_eval(2, 1.0) == pytest.approx(2.0 * math.exp(-0.5), rel=1e-14)

    @pytest.mark.parametrize("n", [0, 3, 17, 64])
    def test_matches_direct_product_in_safe_range(self, n):
        ys = np.linspace(-8, 8, 33)
        direct = hermite_eval(n, ys) * np.exp(-ys * ys / 2.0)
        np.testing.assert_allclose(weighted_eval(n, ys), direct, rtol=5e-13, atol=1e-300)

    def test_no_nan_anywhere(self):
        ys = np.array([0.0, 5.0, 50.0, 500.0, 1e4])
        for n in (0, 7, 64):
            assert np.all(np.isfinite(weighted_eval(n, ys)))


class TestZeros:
    def test_small_degrees(self):
        np.testing.assert_array_equal(hermite_zeros(1), [0.0])
        np.testing.assert_allclose(
            hermite_zeros(2), [-0.7071067811865476, 0.7071067811865476], atol=1e-14
        )
        np.testing.assert_allclose(
            hermite_zeros(3), [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-14
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 40, 64])
    def test_count_symmetry_and_residual(self, n):
        z = hermite_zeros(n)
        assert z.size == n
        assert np.all(np.diff(z) > 0)
        np.testing.assert_allclose(z, -z[::-1], atol=1e-13)
        hz = hermite_eval(n, z)
        dz = 2.0 * n * hermite_eval(n - 1, z)
        assert np.all(np.abs(hz) <= 1e-10 * np.maximum(1.0, np.abs(dz)))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_interlacing(self, n):
        z = hermite_zeros(n)
        znext = hermite_zeros(n + 1)
        for i in range(n):
            assert znext[i] < z[i] < znext[i + 1]

    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    def test_sign_alternates_between_zeros(self, n):
        z = hermite_zeros(n)
        mids = 0.5 * (z[:-1] + z[1:])
        signs = np.sign(hermite_eval(n, mids))
        assert np.all(signs[1:] == -signs[:-1])

    @pytest.mark.parametrize("n", [2, 5, 16, 33, 64])
    def test_against_gauss_hermite_oracle(self, n):
        # numpy's hermgauss is an independent implementation of the nodes
        ref = np.polynomial.hermite.hermgauss(n)[0]
        np.testing.assert_allclose(hermite_zeros(n), ref, atol=2e-15)


class TestTestFunction:
    """The lattice test functions ``x -> Psi_n(beta kappa x)`` of the
    interval construction, sampled with :func:`weighted_eval`."""

    def test_vanishes_at_scaled_zeros(self):
        for n in (2, 3, 5):
            z = hermite_zeros(n)
            scale = np.abs(weighted_eval(n, np.linspace(-4, 4, 41))).max()
            assert np.all(np.abs(weighted_eval(n, z)) <= 1e-12 * scale)

    def test_superexponential_decay_bound(self):
        for n, kappa in ((0, 0.2), (3, 0.1), (5, 0.05)):
            edge = (math.sqrt(2 * n + 1) + 6.0) / (1.25 * kappa)
            for x in (edge, 1.5 * edge, 2.5 * edge):
                y = 1.25 * kappa * x
                assert abs(weighted_eval(n, y)) <= math.exp(-y * y / 4.0)


class TestBoxHalfwidth:
    @pytest.mark.parametrize("kappa", [0.0, -0.1, math.nan])
    def test_rejects_nonpositive_kappa(self, kappa):
        with pytest.raises(ValueError, match="kappa must be positive"):
            box_halfwidth(2, kappa)

    @pytest.mark.parametrize("kappa", [0.0, -0.1, math.nan])
    @pytest.mark.parametrize("call", [
        lambda kappa: tail_mass(2, kappa, 10),
        lambda kappa: gram_entry(2, 2, kappa, LatticeBox.centered(1, 30)),
        lambda kappa: quasimode_apply(2, kappa, LatticeBox.centered(1, 30)),
        lambda kappa: residual_integral(2, kappa, 3),
        lambda kappa: assemble_Hkappa(kappa, LatticeBox.centered(1, 30)),
    ], ids=["tail_mass", "gram_entry", "quasimode_apply", "residual_integral",
            "assemble_Hkappa"])
    def test_kappa_consumers_reject_nonpositive_kappa(self, call, kappa):
        # a zero or NaN kappa used to loop forever in the tail sum
        with pytest.raises(ValueError, match="kappa must be positive, got"):
            call(kappa)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            box_halfwidth(-1, 0.1)


class TestQuasimode:
    def test_center_stencil_identity(self):
        # hand evaluation at x = 0: r(0) = 2 - 2 psi(1) - kappa^2 psi(0)
        kappa = 0.1
        box = LatticeBox.centered(1, box_halfwidth(0, kappa))
        _, r = quasimode_apply(0, kappa, box)
        want = 2.0 - 2.0 * math.exp(-(kappa**2) / 2.0) - kappa**2
        assert r[box.index((0,))] == pytest.approx(want, rel=1e-13)

    # regression bounds measured once at the finest kappa of the sweep below
    RESID_BOUND = {0: 0.26, 1: 0.98, 2: 4.6, 3: 18.5, 4: 85.0}

    @pytest.mark.parametrize("n", range(5))
    def test_residual_scaling_fourth_order(self, n):
        sups = []
        for kappa in (0.2, 0.1, 0.05, 0.025):
            box = LatticeBox.centered(1, box_halfwidth(n, kappa))
            _, r = quasimode_apply(n, kappa, box)
            sups.append(np.abs(r).max() / kappa**4)
        assert max(sups) <= self.RESID_BOUND[n]
        assert max(sups) / min(sups) < 4.0

    def test_residual_decays_at_edges(self):
        kappa = 0.1
        box = LatticeBox.centered(1, box_halfwidth(3, kappa))
        _, r = quasimode_apply(3, kappa, box)
        assert abs(r[0]) < 1e-20 and abs(r[-1]) < 1e-20
        assert np.abs(r).max() > 1e-6

    def test_box_too_small(self):
        with pytest.raises(BoxTooSmall):
            quasimode_apply(0, 0.1, LatticeBox.centered(1, 30))


class TestResidualIntegral:
    def test_even_degree_parity(self):
        for x in (3, 17):
            assert residual_integral(2, 0.1, x) == pytest.approx(
                residual_integral(2, 0.1, -x), rel=1e-12
            )
        ys = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(
            psi_fourth_derivative(2, ys), psi_fourth_derivative(2, -ys), rtol=1e-13
        )

    def test_matches_stencil_at_origin(self):
        kappa = 0.1
        stencil = 2.0 - 2.0 * math.exp(-(kappa**2) / 2.0) - kappa**2
        assert -residual_integral(0, kappa, 0) == pytest.approx(stencil, abs=1e-10)

    @pytest.mark.parametrize("n,x", [(0, 5), (1, 12), (3, 7), (4, 0)])
    def test_matches_stencil_pointwise(self, n, x):
        kappa = 0.1
        box = LatticeBox.centered(1, box_halfwidth(n, kappa))
        _, r = quasimode_apply(n, kappa, box)
        assert -residual_integral(n, kappa, x) == pytest.approx(
            r[box.index((x,))], rel=1e-9, abs=1e-16
        )

    def test_uniform_fourth_order_bound(self):
        # constant frozen from the coarsest kappa, with the measured headroom
        for n in (0, 2):
            consts = []
            for kappa in (0.2, 0.1, 0.05, 0.025):
                xs = range(0, box_halfwidth(n, kappa), max(1, box_halfwidth(n, kappa) // 8))
                consts.append(
                    max(abs(residual_integral(n, kappa, x)) for x in xs) / kappa**4
                )
            assert max(consts) <= 1.25 * consts[0] + 1e-12

    def test_psi4_matches_finite_differences(self):
        # fourth central difference as an independent derivative oracle
        h = 1e-2
        for n in (0, 1, 4):
            for y in (0.0, 0.7, 2.3):
                stencil = (
                    weighted_eval(n, y + 2 * h)
                    - 4 * weighted_eval(n, y + h)
                    + 6 * weighted_eval(n, y)
                    - 4 * weighted_eval(n, y - h)
                    + weighted_eval(n, y - 2 * h)
                ) / h**4
                assert psi_fourth_derivative(n, y) == pytest.approx(
                    stencil, rel=5e-3, abs=5e-3
                )

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20, 40, 64])
    def test_psi4_matches_extended_precision(self, n):
        # mpmath differentiates h_n(y) exp(-y^2/2) itself at 40 digits, so the
        # oracle shares neither the recurrence nor the closed form
        reach = 1.2 * math.sqrt(2 * n + 1) + 3.0
        ys = np.linspace(-reach, reach, 41)
        with mp.workdps(40):
            want = np.array([
                float(mp.diff(lambda t: mp.hermite(n, t) * mp.exp(-t * t / 2), mp.mpf(y), 4))
                for y in ys
            ])
        got = psi_fourth_derivative(n, ys)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def reference_residual_integral(n, kappa, x, splits):
    """Per-panel adaptive Gauss-Legendre: one integrand call per panel, one
    ``psi_fourth_derivative`` call per sign of ``t``.  Appends the depth of
    every panel that does not settle to ``splits``."""
    nodes, weights = np.polynomial.legendre.leggauss(10)
    y = kappa * float(x)

    def f(t):
        return ((kappa - t) ** 3 / 6.0) * (
            psi_fourth_derivative(n, y + t) + psi_fourth_derivative(n, y - t)
        )

    def panel(a, b):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return half * float(np.dot(weights, f(mid + half * nodes)))

    def adaptive(a, b, tol, depth=0):
        whole = panel(a, b)
        mid = 0.5 * (a + b)
        split = panel(a, mid) + panel(mid, b)
        if abs(split - whole) <= tol:
            return split
        splits.append(depth)
        return adaptive(a, mid, 0.5 * tol, depth + 1) + adaptive(mid, b, 0.5 * tol, depth + 1)

    scale = kappa**4 * max(1.0, abs(psi_fourth_derivative(n, y)))
    return adaptive(0.0, kappa, 1e-13 * scale + 1e-30)


class TestAdaptiveQuadrature:
    def test_bit_identical_to_per_panel_recursion(self):
        splits = []
        for kappa in (0.025, 0.05, 0.1, 0.2, 0.5, 1.0, 1.5, 2.0):
            for n in range(9):
                for x in (-7, -3, 0, 1, 2, 5, 11, 40):
                    want = reference_residual_integral(n, kappa, x, splits)
                    assert residual_integral(n, kappa, x) == want, (n, kappa, x)
        # some cases split the first panel, so the recursion is compared too
        assert splits

    def test_depth_cap_raises(self):
        from lsc.errors import QuadratureFailure
        from lsc.hermite import _adaptive_gl

        rng = np.random.default_rng(0)

        def noisy(t):
            return rng.standard_normal(np.shape(t))

        with pytest.raises(QuadratureFailure):
            _adaptive_gl(noisy, 0.0, 1.0, tol=1e-14)

    def test_polynomial_exactness(self):
        from lsc.hermite import _adaptive_gl

        got = _adaptive_gl(lambda t: 5.0 * t**4, 0.0, 2.0, tol=1e-14)
        assert got == pytest.approx(32.0, rel=1e-14)


class TestGram:
    def test_diagonal_matches_continuum_scale(self):
        kappa = 0.1
        box = LatticeBox.centered(1, box_halfwidth(0, kappa))
        got = gram_entry(0, 0, kappa, box)
        assert got == pytest.approx(math.sqrt(math.pi) / kappa, rel=1e-13)

    def test_odd_pair_vanishes_exactly(self):
        box = LatticeBox.centered(1, box_halfwidth(1, 0.2))
        assert gram_entry(0, 1, 0.2, box) == 0.0

    def test_degree_two_diagonal(self):
        kappa = 0.2
        box = LatticeBox.centered(1, box_halfwidth(2, kappa))
        want = math.sqrt(math.pi) * 4.0 * 2.0 / kappa
        assert gram_entry(2, 2, kappa, box) == pytest.approx(want, rel=1e-12)

    def test_against_high_precision_oracle(self):
        # independent summation oracle at 60 digits
        mp.mp.dps = 60
        kappa = 0.1
        M = box_halfwidth(2, kappa)
        acc = mp.mpf(0)
        for x in range(-M, M + 1):
            y = mp.mpf(kappa) * x
            acc += mp.hermite(2, y) * mp.hermite(2, y) * mp.e ** (-y * y)
        box = LatticeBox.centered(1, M)
        assert gram_entry(2, 2, kappa, box) == pytest.approx(float(acc), rel=1e-13)

    def test_deviation_shrinks_then_stays_bounded(self):
        # The lattice-vs-continuum correction is superexponentially small in
        # 1/kappa.  At the two coarsest scales it is resolvable in high
        # precision and must not grow (factor-2 slack); below that it sits
        # under float resolution, so boundedness is what remains checkable.
        mp.mp.dps = 260

        def dev_mp(n, m, kappa):
            M = int(math.ceil(17.0 / kappa))
            k = mp.mpf(kappa)
            acc = mp.mpf(0)
            for x in range(-M, M + 1):
                y = k * x
                acc += mp.hermite(n, y) * mp.hermite(m, y) * mp.e ** (-y * y)
            target = mp.sqrt(mp.pi) * 2**n * mp.factorial(n) / k if n == m else 0
            return abs(acc - target)

        for n in range(5):
            for m in range(n + 1):
                d_coarse = dev_mp(n, m, 0.4)
                d_fine = dev_mp(n, m, 0.2)
                if (n + m) % 2 == 1:
                    # exactly zero by parity; only rounding noise is visible
                    assert d_fine <= mp.mpf("1e-250")
                else:
                    assert d_fine <= 2.0 * d_coarse
        for kappa in (0.1, 0.05):
            for n in range(5):
                box = LatticeBox.centered(1, box_halfwidth(n, kappa))
                target = math.sqrt(math.pi) * 2.0**n * math.factorial(n) / kappa
                dev = abs(gram_entry(n, n, kappa, box) - target)
                assert dev <= 4e-10 * target

    def test_box_too_small(self):
        with pytest.raises(BoxTooSmall):
            gram_entry(0, 0, 0.1, LatticeBox.centered(1, 40))
