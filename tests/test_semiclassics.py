"""Tests for the experiment drivers: limit spectra, studies, sweeps, certificates."""

import dataclasses
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsc import cli, eigensolve, hermite, lattice, potentials, semiclassics
from lsc.errors import DegenerateDecomposition
from lsc.lattice import LatticeBox
from lsc.potentials import (
    Potential,
    ScalingParams,
    Well,
    builtin_potential,
    double_well,
    double_well_nd,
    harmonic,
    two_well,
)
from lsc.semiclassics import (
    converge_study,
    harmonic_kappa_study,
    harmonic_levels,
    ims_general_experiment,
    interval_lowerbound_experiment,
    modified_vs_plain,
    predicted_growth_exponent,
    regime_sweep,
    sigma_enumerate,
)
from spectral_checks import assert_bracket_encloses, record_dstebz_ranges, traced_peak


def sigma_brute_force(V, count):
    """Independent enumeration: all multi-indices up to a cap, sorted.

    The cap is chosen per dimension so the cheapest state it omits is more
    expensive than everything returned (checked), making the truncated
    enumeration provably complete.
    """
    n_cap = {1: 60, 2: 30, 3: 12}[V.dimension]
    states = []
    for l, well in enumerate(V.wells):
        for multi in np.ndindex(*(n_cap + 1,) * V.dimension):
            value = 0.5 * float(
                sum(w * (2 * m + 1) for w, m in zip(well.frequencies, multi))
            )
            states.append((value, l, tuple(int(m) for m in multi)))
    states.sort()
    omega_min = min(float(w.frequencies[0]) for w in V.wells)
    assert states[count - 1][0] < 0.5 * omega_min * (2 * n_cap + 1)
    return states[:count]


def sigma_heap_reference(V, count):
    """Best-first heap walk over (value, well index, multi-index) states.

    Every state is pushed once, by the first of its predecessors to pop; a
    successor (one index raised by one) never has a smaller value, and ties
    break by well index and then lexicographic multi-index, so the pops come
    in the global sorted order.  Values are summed term by term in axis order.
    """

    def level(frequencies, multi):
        return 0.5 * float(sum(w * (2 * m + 1) for w, m in zip(frequencies, multi)))

    start = (0,) * V.dimension
    heap = [(level(well.frequencies, start), l, start) for l, well in enumerate(V.wells)]
    heapq.heapify(heap)
    seen = {(l, start) for l in range(len(V.wells))}
    values = np.empty(count)
    provenance = []
    for i in range(count):
        value, l, multi = heapq.heappop(heap)
        values[i] = value
        provenance.append((l, multi))
        for ax in range(V.dimension):
            nxt = multi[:ax] + (multi[ax] + 1,) + multi[ax + 1:]
            if (l, nxt) not in seen:
                seen.add((l, nxt))
                heapq.heappush(heap, (level(V.wells[l].frequencies, nxt), l, nxt))
    return values, tuple(provenance)


def wells_potential(frequencies):
    """Potential carrying one well per frequency vector (the evaluator is unused)."""
    d = len(frequencies[0])
    wells = tuple(
        Well(location=np.full(d, 3.0 * l), frequencies=np.sort(w))
        for l, w in enumerate(frequencies)
    )
    return Potential(dimension=d, evaluator=lambda pts: np.zeros(pts.shape[0]),
                     wells=wells, positivity_radius=1.0, floor=lambda r: 0.1 + 0.0 * r,
                     name="wells")


@st.composite
def sigma_cases(draw):
    d = draw(st.integers(1, 4))
    n_wells = draw(st.integers(1, 4))
    tied = st.sampled_from([0.5, 1.0, 1.5, 2.0])
    spread = st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False)
    frequency = draw(st.sampled_from([tied, spread]))
    freqs = [draw(st.lists(frequency, min_size=d, max_size=d)) for _ in range(n_wells)]
    return wells_potential(freqs), draw(st.integers(1, 3000))


def three_well_potential():
    """Three harmonic wells spliced by the soft minimum of the parabolas."""
    locs = [np.array([-2.0]), np.array([0.0]), np.array([2.0])]
    oms = [1.0, 2.0, 3.0]

    def evaluator(pts):
        inv = np.zeros(pts.shape[0])
        for a, om in zip(locs, oms):
            inv += 1.0 / (0.5 * om**2 * ((pts - a) ** 2).sum(axis=-1) + 1e-300)
        return 1.0 / inv

    wells = tuple(
        Well(location=a, frequencies=np.array([om])) for a, om in zip(locs, oms)
    )
    return Potential(
        dimension=1,
        evaluator=evaluator,
        wells=wells,
        positivity_radius=4.0,
        floor=lambda r: 0.2 + 0.0 * r,
        name="three_well",
    )


class TestSigma:
    def test_harmonic_1d_ladder(self):
        seq = sigma_enumerate(harmonic([1.0]), 4)
        np.testing.assert_allclose(seq.values, [0.5, 1.5, 2.5, 3.5], atol=0)

    def test_harmonic_2d_degeneracies(self):
        # brute force over n1, n2 <= 12, sorted and truncated
        seq = sigma_enumerate(harmonic([1.0, 1.0]), 7)
        np.testing.assert_allclose(seq.values, [1, 2, 2, 3, 3, 3, 4], atol=0)

    def test_double_well_doubles_levels(self):
        seq = sigma_enumerate(double_well(), 6)
        np.testing.assert_allclose(seq.values, [1, 1, 3, 3, 5, 5], atol=0)

    def test_provenance_recomputes_values(self):
        V = harmonic([1.0, 2.0])
        seq = sigma_enumerate(V, 20)
        for value, (l, multi) in zip(seq.values, seq.provenance):
            want = 0.5 * sum(
                w * (2 * m + 1) for w, m in zip(V.wells[l].frequencies, multi)
            )
            assert value == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "V",
        [
            harmonic([1.0]),
            harmonic([0.7, 1.3]),
            harmonic([1.0, 1.0, 2.0]),
            double_well(),
            double_well_nd(2),
            two_well(omega=1.5, separation=3.0),
            three_well_potential(),
        ],
        ids=lambda v: v.name,
    )
    def test_matches_brute_force_exactly(self, V):
        count = 50
        seq = sigma_enumerate(V, count)
        brute = sigma_brute_force(V, count)
        for i in range(count):
            value, l, multi = brute[i]
            assert seq.values[i] == value
            assert seq.provenance[i] == (l, multi)


class TestSigmaAgainstHeap:
    """The sorted-array enumeration reproduces the heap walk bit for bit."""

    @staticmethod
    def assert_same(V, count):
        seq = sigma_enumerate(V, count)
        values, provenance = sigma_heap_reference(V, count)
        assert seq.values.dtype == np.float64
        assert np.array_equal(seq.values, values)
        assert seq.wells.shape == (count,) and seq.wells.dtype.kind == "i"
        assert seq.multi.shape == (count, V.dimension) and seq.multi.dtype.kind == "i"
        # the tuple the enumeration built before provenance became a derived view
        assert seq.provenance == tuple(zip(seq.wells.tolist(), zip(*seq.multi.T.tolist())))
        assert seq.provenance == provenance
        assert all(type(l) is int and all(type(m) is int for m in multi)
                   for l, multi in seq.provenance)

    @settings(max_examples=60, deadline=None)
    @given(sigma_cases())
    def test_random_wells(self, case):
        self.assert_same(*case)

    def test_benchmark_size_double_well_2d(self):
        self.assert_same(builtin_potential("double_well_2d"), 50000)

    def test_six_dimensions_without_a_bounding_box(self):
        # the first 5000 states have m_i <= 9: their bounding box holds 10^6
        # points, over 50 MB for levels plus indices; the simplex needs ~3 MB
        assert traced_peak(lambda: sigma_enumerate(harmonic([1.0] * 6), 5000)) < 32e6
        self.assert_same(harmonic([1.0] * 6), 5000)


class TestGrowthExponent:
    def test_piecewise_values(self):
        assert predicted_growth_exponent(0.0) == 1.0
        assert predicted_growth_exponent(0.5) == 0.5
        assert predicted_growth_exponent(-0.5) == 1.5
        assert predicted_growth_exponent(-2.0) == 4.0
        assert predicted_growth_exponent(2.0) == -1.0

    def test_kink_continuity_from_both_formulas(self):
        # the two branch formulas agree at the kink
        assert 1.0 - (-1.0) == 2.0 * abs(-1.0) == predicted_growth_exponent(-1.0)
        for eps in (1e-9, 1e-12):
            assert predicted_growth_exponent(-1.0 + eps) == pytest.approx(2.0, abs=3 * eps)
            assert predicted_growth_exponent(-1.0 - eps) == pytest.approx(2.0, abs=3 * eps)


class TestKappaStudy:
    def test_ratios_decrease_toward_targets(self):
        study = harmonic_kappa_study([0.2, 0.1, 0.05], 2)
        for n in range(3):
            devs = study.deviations(n)
            assert all(d2 < d1 for d1, d2 in zip(devs, devs[1:]))
        assert study.errors_decreasing == {0: True, 1: True, 2: True}
        # fitted deviation order should be at least first order
        for n, fits in study.deviation_orders.items():
            assert all(p >= 1.0 for p in fits)

    def test_deviations_below_regression_level(self):
        # frozen from the bisection solver run: worst level-5 deviation at
        # kappa = 0.1 is 0.0383
        study = harmonic_kappa_study([0.1], 5)
        assert max(r.abs_err for r in study.rows) < 0.05

    def test_ritz_consistency(self):
        kappa = 0.1
        study = harmonic_kappa_study([kappa], 3)
        box = LatticeBox.centered(1, hermite.box_halfwidth(3, kappa))
        op = lattice.assemble_Hkappa(kappa, box)
        xs = box.coords().astype(float)
        thetas = eigensolve.subspace_upper_bounds(
            op, [hermite.weighted_eval(n, kappa * xs) for n in range(4)]
        )
        for r in study.rows:
            assert r.energy <= thetas[r.n] + 1e-12

    def test_requires_descending_kappas(self):
        with pytest.raises(ValueError):
            harmonic_kappa_study([0.05, 0.1], 1)


class TestConvergeStudy:
    def test_harmonic_matches_exact_rescaling(self):
        V = harmonic([1.0])
        table = converge_study(V, 0.0, [64, 256], 1)
        for row in table.rows:
            kap = math.sqrt(1.0 / row.N)
            reduced = harmonic_levels(kap, 2).values[row.n]
            assert row.energy == pytest.approx(
                0.5 * row.N**2 * reduced, rel=1e-12
            )
            # the same identity written through the ratio bookkeeping
            assert row.ratio == pytest.approx(0.5 * reduced / kap**2, rel=1e-12)
            assert row.ratio * row.lam == pytest.approx(row.energy, rel=1e-15)

    def test_harmonic_gamma_zero_ladder(self):
        table = converge_study(harmonic([1.0]), 0.0, [64, 256, 1024], 0)
        errs = table.errors(0)
        assert table.errors_decreasing[0]
        assert table.rows[-1].target == 0.5
        assert errs[-1] < 1e-3

    def test_double_well_two_level_merge(self):
        # the two lowest ratios share the doubled target and pinch together;
        # the splitting is exponentially small in N and visible only early
        # (it underflows well before N = 64)
        table = converge_study(double_well(), 0.0, [4, 8, 16], 1)
        for row in table.rows:
            assert row.target == 1.0
        gaps = []
        for N in (4, 8, 16):
            pair = [r.ratio for r in table.rows if r.N == N]
            gaps.append(abs(pair[1] - pair[0]))
        assert gaps[0] > gaps[1] > gaps[2]
        late = converge_study(double_well(), 0.0, [64, 128], 1)
        assert all(late.errors_decreasing.values())
        pair = [r.ratio for r in late.rows if r.N == 128]
        assert abs(pair[1] - pair[0]) < 1e-12

    def test_two_well_splice_full_pipeline(self):
        # the soft-min two-well potential: both lowest ratios approach the
        # shared target 0.5 with shrinking error
        tw = two_well(omega=1.0, separation=2.0)
        table = converge_study(tw, 0.0, [128, 256], 1)
        assert all(r.target == 0.5 for r in table.rows)
        assert all(table.errors_decreasing.values())
        assert all(r.abs_err < 2e-3 for r in table.rows if r.N == 256)

    def test_separable_2d_route(self):
        V = harmonic([1.0, 2.0])
        table = converge_study(V, 0.0, [32], 3)
        targets = sigma_enumerate(V, 4).values
        for row in table.rows:
            assert row.target == pytest.approx(targets[row.n], abs=0)
            assert row.abs_err < 0.05

    def test_gamma_range_enforced(self):
        with pytest.raises(ValueError):
            converge_study(harmonic([1.0]), 1.0, [8, 16, 32], 0)


class TestRegimeSweep:
    def test_minus_one_is_exact(self):
        sweep = regime_sweep(1.0, [-1.0], [2, 4, 8, 16], 3)
        assert sweep.minus_one_exact_dev is not None
        assert sweep.minus_one_exact_dev <= 1e-12
        for n in range(4):
            assert sweep.row(-1.0, n).slope_fit == pytest.approx(2.0, abs=1e-9)

    def test_below_minus_one_limits(self):
        sweep = regime_sweep(1.0, [-2.0], [8, 16, 32], 4)
        Ns, table = sweep.energies[-2.0]
        scaled = table / (Ns.astype(float) ** 4)[:, None]
        assert abs(scaled[-1, 0]) <= 1e-2
        for n, target in ((1, 0.5), (2, 0.5), (3, 2.0), (4, 2.0)):
            assert scaled[-1, n] == pytest.approx(target, abs=5e-3)
            assert sweep.row(-2.0, n).limit_const_pred == target

    def test_above_minus_one_slopes(self):
        sweep = regime_sweep(1.0, [0.0], [64, 128, 256, 512], 0)
        assert sweep.row(0.0, 0).slope_fit == pytest.approx(1.0, abs=0.02)
        assert sweep.row(0.0, 0).limit_const_pred == 0.5

    def test_kink_prediction_comes_from_another_operator(self, monkeypatch):
        # a perturbed chain moves the fitted kink constants but not the
        # predicted ones, which are the levels of H_kappa / 2 at sqrt(omega)
        chain = semiclassics._quadratic_chain

        def perturbed(scale, hop, omega, box):
            op = chain(scale, hop, omega, box)
            return dataclasses.replace(op, diagonal=op.diagonal * (1.0 + 1e-6))

        clean = regime_sweep(0.8, [-1.0], [2, 4, 8], 2)
        monkeypatch.setattr(semiclassics, "_quadratic_chain", perturbed)
        moved = regime_sweep(0.8, [-1.0], [2, 4, 8], 2)
        for n in range(3):
            assert moved.row(-1.0, n).limit_const_fit != clean.row(-1.0, n).limit_const_fit
            assert moved.row(-1.0, n).limit_const_pred == clean.row(-1.0, n).limit_const_pred
            assert clean.row(-1.0, n).limit_const_pred == pytest.approx(
                clean.row(-1.0, n).limit_const_fit, rel=1e-15)

    def test_needs_three_ladder_points(self):
        with pytest.raises(ValueError):
            regime_sweep(1.0, [0.0], [8, 16], 1)

    def test_each_distinct_kappa_is_solved_once(self, monkeypatch):
        # gamma = 0 at N and gamma = -1/2 at N^2 give the same kappa, bit for
        # bit: 13 distinct kappas among the 16 points of the two ladders
        Ns, omega = [8, 16, 32, 64, 128, 256, 512, 1024], 1.1
        kappas = {math.sqrt(omega * float(N) ** (-(1.0 + g))) for g in (-0.5, 0.0) for N in Ns}
        assert len(kappas) == 13
        solved = []
        levels = semiclassics.harmonic_levels
        monkeypatch.setattr(semiclassics, "harmonic_levels",
                            lambda kap, count: solved.append(kap) or levels(kap, count))
        sweep = regime_sweep(omega, [-0.5, 0.0], Ns, 2)
        assert sorted(solved) == sorted(kappas)
        for gamma in (-0.5, 0.0):
            for N, row in zip(Ns, sweep.energies[gamma][1]):
                kap = math.sqrt(omega * float(N) ** (-(1.0 + gamma)))
                assert np.array_equal(row, 0.5 * float(N) ** 2 * levels(kap, 3).values)

    @pytest.mark.parametrize("seed", range(5))
    def test_tail_slope_is_the_least_squares_slope(self, seed):
        rng = np.random.default_rng(seed)
        Ns = [8 * 2**j for j in range(int(rng.integers(3, 9)))]
        Es = np.asarray(Ns, dtype=float) ** rng.uniform(0.5, 4.0) * rng.uniform(0.5, 2.0, len(Ns))
        m = max(3, len(Ns) // 2)
        want = np.polyfit(np.log(np.asarray(Ns[-m:], float)), np.log(Es[-m:]), 1)[0]
        assert semiclassics._fit_tail_slope(Ns, Es) == pytest.approx(want, rel=1e-14)


class TestIntervalExperiment:
    def test_degree_two_structure(self):
        report = interval_lowerbound_experiment(2, 0.05, 0.25)
        labels = sorted(r.label for r in report.rows)
        assert labels == [-1, 0, 1]
        assert len(report.decomposition.excluded) == 1
        assert report.decomposition.cover_ok(report.halfwidth)
        modified = {r.label: r.modified for r in report.rows}
        assert modified == {-1: True, 0: False, 1: True}

    def test_degree_one_certificate_and_ratio(self):
        report = interval_lowerbound_experiment(1, 0.05, 0.25)
        assert report.all_certificates_ok
        assert report.min_ratio >= report.threshold
        assert report.threshold == pytest.approx(2.7)

    @pytest.mark.parametrize("epsilon", [2.0, 1.5, 0.0, -0.5, math.nan])
    def test_epsilon_outside_half_open_unit_interval(self, epsilon):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\]"):
            interval_lowerbound_experiment(1, 0.05, 0.25, epsilon=epsilon)

    def test_epsilon_one_trivial_certificate(self):
        # alpha = 0: the assembled rows are pointwise nonnegative on the
        # certificate functions at small kappa
        report = interval_lowerbound_experiment(2, 0.05, 0.25, epsilon=1.0)
        assert report.all_certificates_ok
        assert report.threshold == 0.0

    def test_mirror_symmetry_of_rows(self):
        report = interval_lowerbound_experiment(3, 0.05, 0.25)
        by_label = {r.label: r for r in report.rows}
        for j in (1, 2):
            assert by_label[j].ground_energy == pytest.approx(
                by_label[-j].ground_energy, rel=1e-12
            )

    def test_degenerate_kappa_propagates(self):
        with pytest.raises(DegenerateDecomposition):
            interval_lowerbound_experiment(2, 0.9, 0.25)

    def test_degree_four_bounded_certificates(self):
        # all bounded pieces certify at alpha = -0.9 kappa^2 (2n + 1); the
        # unbounded pieces need much smaller kappa at this degree and are
        # not part of this check
        report = interval_lowerbound_experiment(4, 0.04, 0.25)
        bounded = [r for r in report.rows if not r.modified]
        assert len(bounded) == 3  # central piece plus the two first side pieces
        for row in bounded:
            assert row.cert_ok, (row.label, row.cert_slack)
            assert row.ratio >= report.threshold

    def test_spike_inside_bounded_interval_rejected(self):
        # at degree 6 the outermost zero pushes the unbounded piece past the
        # spike location for this mesh; the experiment refuses the setup
        with pytest.raises(ValueError):
            interval_lowerbound_experiment(6, 0.05, 0.25)


class TestSandwich:
    def test_certified_bracket_contains_levels(self):
        # when the interval machinery certifies its threshold, the level
        # sits between that lower estimate and the Ritz upper bound
        kappa = 0.05
        box = LatticeBox.centered(1, hermite.box_halfwidth(2, kappa))
        op = lattice.assemble_Hkappa(kappa, box)
        xs = box.coords().astype(float)
        exact = eigensolve.eigs_tridiag(op, 3).values
        for n in (1, 2):
            rep = interval_lowerbound_experiment(n, kappa, 0.25, epsilon=0.1)
            assert rep.ratio_ok
            lower = rep.threshold * kappa**2
            thetas = eigensolve.subspace_upper_bounds(
                op, [hermite.weighted_eval(m, kappa * xs) for m in range(n + 1)]
            )
            assert lower <= exact[n] <= thetas[n] + 1e-12


class TestNonseparableLevels:
    def test_nonseparable_2d_small_box(self):
        V = two_well(omega=1.0, separation=2.0, d=2)
        assert not V.separable
        params = ScalingParams(N=4, gamma=0.0, omega=1.0)
        values = semiclassics.levels_HN(V, params, 3)
        assert values.size == 3 and np.all(np.diff(values) >= 0)
        # two isotropic wells of frequency 1: doubled ladder e = 1, 1, 2
        ratios = values / params.lam
        assert abs(ratios[0] - 1.0) < 0.35
        assert abs(ratios[1] - 1.0) < 0.35

    def test_dense_box_cap(self):
        # the benchmark's DENSE_CAP known failure matches this message's start
        V = two_well(omega=1.0, separation=2.0, d=2)
        params = ScalingParams(N=64, gamma=0.0, omega=1.0)
        with pytest.raises(MemoryError,
                           match="^non-separable dense fallback capped at 4096 points"):
            semiclassics.levels_HN(V, params, 2)

    def test_floor_too_low_to_certify_doubles_into_the_cap(self, monkeypatch):
        # a floor of 0 lies below every level, so the start box (37^2 points)
        # is not certified and the doubled one (73^2) is refused by the cap
        # instead of returning uncertified start-box values
        V = dataclasses.replace(two_well(omega=1.0, separation=2.0, d=2),
                                floor=lambda r: 0.0 * r)
        solves = []
        ritz_pairs = eigensolve._ritz_pairs

        def counting_solve(op, wanted):
            solves.append(op.size)
            return ritz_pairs(op, wanted)

        monkeypatch.setattr(eigensolve, "_ritz_pairs", counting_solve)
        with pytest.raises(MemoryError, match=(
                "^non-separable dense fallback capped at 4096 points; requested 5329$")):
            semiclassics.levels_HN(V, ScalingParams(N=2, gamma=0.0, omega=1.0), 4)
        assert solves == [1369]


class TestModifiedComparison:
    def test_ordering_and_monotone_in_delta(self):
        gaps = []
        for delta in (0.25, 0.35, 0.45):
            cmp_ = modified_vs_plain(1, [0.05], delta)
            assert cmp_.ordering_ok
            gaps.append(cmp_.gaps(0)[0])
        assert gaps[0] > gaps[1] > gaps[2]

    def test_gap_shrinks_with_kappa(self):
        cmp_ = modified_vs_plain(0, [0.1, 0.05, 0.025], 0.3)
        gaps = cmp_.gaps(0)
        assert gaps[0] > gaps[1] > gaps[2]


class TestImsExperiment:
    def test_double_well_identity_and_bounds(self):
        V = double_well()
        report = ims_general_experiment(
            V, ScalingParams(N=256, gamma=0.0, omega=2.0), 0.2
        )
        assert report.identity_residual <= 1e-12
        assert report.commutators_ok
        assert report.eta0_commutator_norm <= report.eta0_bound
        assert report.floor_ok
        assert len(report.rows) == 2

    def test_potential_error_scale_stable_in_N(self):
        # regression: the measured constant norm / (lam^2 (r/N)^3) stays
        # near 0.28 across a doubling ladder (frozen bound 0.5)
        V = double_well()
        for N in (128, 256, 512):
            report = ims_general_experiment(
                V, ScalingParams(N=N, gamma=0.0, omega=2.0), 0.2
            )
            for row in report.rows:
                assert row.potdiff_norm / row.potdiff_scale < 0.5

    def test_2d_supports_beyond_the_old_dense_extraction(self):
        # the eta_0 commutator support here has more than 4000 nodes
        params = ScalingParams(N=64, gamma=0.0, omega=2.0)
        report = ims_general_experiment(double_well_nd(2), params, 0.2)
        norm_L = 4.0 * 2 * 0.5 * 64.0**2
        assert report.identity_residual <= 1e-12
        assert math.isfinite(report.eta0_commutator_norm)
        assert report.eta0_commutator_norm <= report.eta0_bound
        assert len(report.rows) == 4
        for row in report.rows:
            assert math.isfinite(row.commutator_norm)
            assert row.commutator_norm <= 2.0 * norm_L * row.variation**2

    def test_commutator_bound_formula(self):
        V = double_well()
        params = ScalingParams(N=128, gamma=0.0, omega=2.0)
        report = ims_general_experiment(V, params, 0.2)
        want = 16.0 * params.lam / 128.0**0.4
        assert report.rows[0].commutator_bound == pytest.approx(want, rel=1e-12)

    def test_cut_exponent_range(self):
        with pytest.raises(ValueError):
            ims_general_experiment(
                double_well(), ScalingParams(N=64, gamma=0.0, omega=2.0), 0.6
            )

    def test_overlap_when_wells_too_close(self):
        from lsc.errors import OverlappingSupports

        narrow = two_well(omega=1.0, separation=0.2)
        with pytest.raises(OverlappingSupports):
            ims_general_experiment(
                narrow, ScalingParams(N=64, gamma=0.0, omega=1.0), 0.45
            )


class TestTruncationBracket:
    def test_encloses_the_double_well_levels(self):
        V = double_well()
        params = ScalingParams(N=256, gamma=0.0, omega=2.0)

        def assemble(M):
            return lattice.assemble_HN(V, params, LatticeBox.centered(1, M))

        assert_bracket_encloses(
            assemble, semiclassics._box_start_halfwidth(V, params, 4), 4,
            semiclassics._outside_floor(V, params))

    def test_encloses_the_two_well_2d_levels(self):
        V = two_well(omega=1.0, separation=2.0, d=2)
        params = ScalingParams(N=2, gamma=0.0, omega=1.0)

        def assemble(M):
            return lattice.assemble_HN(V, params, LatticeBox.centered(2, M))

        assert_bracket_encloses(
            assemble, semiclassics._box_start_halfwidth(V, params, 4), 4,
            semiclassics._outside_floor(V, params))

    @pytest.mark.parametrize("gamma", [-1.5, -2.0])
    def test_encloses_the_sub_kink_chain_levels(self, gamma):
        # the prescaled chain H_N / N^(2|gamma|) at N = 8, as in regime_sweep
        hop = 8.0 ** (2.0 - 2.0 * abs(gamma))

        def assemble(M):
            return semiclassics._quadratic_chain(1.0, hop, 1.0, LatticeBox.centered(1, M))

        assert_bracket_encloses(assemble, 16, 3, lambda M: 0.5 * (M + 1) ** 2)

    @pytest.mark.parametrize("argv, code", [
        ("converge --potential two_well --gamma 0.9 --N 2,4,8 --nmax 1", cli.EXIT_OK),
        ("converge --potential two_well --gamma 0.5 --N 4,8,16 --nmax 2",
         cli.EXIT_ASSERTION),
        ("converge --potential harmonic --gamma -0.9 --N 2,4,8 --nmax 3",
         cli.EXIT_ASSERTION),
    ])
    def test_floor_law_certifies_the_start_box(self, tmp_path, monkeypatch, argv, code):
        # at these small N a constant floor N^(2(1 - gamma)) c lies below the
        # tracked levels, while the growing law, scaled the same way and read
        # at (M + 1) / N, lies above them on the start box: one solve certifies
        results, solves = [], []
        converged, solve = eigensolve.converged_spectrum, eigensolve.eigs_tridiag

        def recording_converged(*args):
            results.append(converged(*args))
            return results[-1]

        def counting_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(eigensolve, "converged_spectrum", recording_converged)
        monkeypatch.setattr(eigensolve, "eigs_tridiag", counting_solve)
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv.split()) == code
        assert len(results) == len(solves) == 3
        assert all(res.truncation_width is not None for res in results)

    @pytest.fixture
    def dipped_well(self, monkeypatch):
        """A registered 1-d double well with a dip on each side: at ``x =
        1.8``, between the well and ``R0 = 3``, where no law bounds it, ``V``
        falls from about 2.5 to 0.25; at ``x = -3.2``, just past ``R0``, it
        falls to 27.7, below its values on ``2.95 <= |x| <= 3``, and the law
        ``0.3 (r^2 - 1)^2`` still bounds it.  ``edge_dipped_well`` is the
        same but a tenth of it, 3.2, at ``x = R0`` exactly, the last point
        the sample covers and below the law just past it."""
        def factory(edge=False):
            def evaluator(pts):
                x = pts[:, 0]
                v = 0.5 * (x * x - 1.0) ** 2 * (1.0 - 0.9 * np.exp(-20.0 * (x - 1.8) ** 2)
                                                - 0.35 * np.exp(-20.0 * (x + 3.2) ** 2))
                return np.where(x == 3.0, 0.1 * v, v) if edge else v

            return Potential(
                dimension=1, evaluator=evaluator,
                wells=(Well(location=[-1.0], frequencies=[2.0]),
                       Well(location=[1.0], frequencies=[2.0])),
                positivity_radius=3.0,
                floor=lambda r: 0.3 * (r * r - 1.0) ** 2,
                name="edge_dipped_well" if edge else "dipped_well")

        monkeypatch.setattr(potentials, "_REGISTRY", dict(potentials._REGISTRY))
        potentials.register_potential("dipped_well", factory)
        potentials.register_potential("edge_dipped_well", lambda: factory(edge=True))
        return builtin_potential("dipped_well")

    @pytest.mark.parametrize("name", ["double_well", "two_well", "harmonic", "dipped_well",
                                      "edge_dipped_well"])
    @pytest.mark.parametrize("N, gamma", [(16, 0.0), (64, -0.5), (64, 0.5), (256, 0.0)])
    def test_sampled_floor_bounds_the_shell(self, dipped_well, name, N, gamma):
        # in 1-d the start box ends short of the positivity radius, and the
        # floor before it is the sampled potential on the shell out to R0 N
        # plus the law past it; it must never exceed the least potential part
        # W = diagonal - 2 coupling over M < |x| <= 4 R0 N, brute-forced on the
        # assembled operator (up to the rounding of its N^2 + lam^2 V entries)
        V = builtin_potential(name)
        params = ScalingParams(N=N, gamma=gamma, omega=1.0)
        R = int(4 * V.positivity_radius * N)
        op = lattice.assemble_HN(V, params, LatticeBox.centered(1, R))
        W = op.diagonal - 2.0 * op.coupling
        slack = np.finfo(float).eps * np.abs(op.diagonal).max()
        floor = semiclassics._outside_floor(V, params)
        start = semiclassics._box_start_halfwidth(V, params, 2)
        edge = math.floor(V.positivity_radius * N)
        x = np.abs(np.arange(-R, R + 1))
        for M in sorted({*range(edge // 4, edge + 3), *(start * 2**j for j in range(4))}):
            if M < R:
                assert floor(M) <= W[x > M].min() + slack, M

    def test_dipped_well_certifies_on_its_start_box(self, dipped_well):
        # the dip at x = 1.8 lies outside the N = 256 start box (|x| <= 1.43)
        # and inside R0 N; the sampled floor sees it and still certifies, and
        # the levels agree with a box reaching past R0
        params = ScalingParams(N=256, gamma=0.0, omega=2.0)
        M0 = semiclassics._box_start_halfwidth(dipped_well, params, 2)
        assert (M0 + 1) / 256 < 1.5
        assert semiclassics._outside_floor(dipped_well, params)(M0) < 0.3 * 256**2
        got = semiclassics.levels_HN(dipped_well, params, 2)
        wide = eigensolve.eigs_tridiag(
            lattice.assemble_HN(dipped_well, params, LatticeBox.centered(1, 4 * 3 * 256)), 2)
        np.testing.assert_allclose(got, wide.values, rtol=1e-12)

    def test_double_well_N1024_certifies_on_one_short_box(self, monkeypatch):
        # the start box ends (sqrt(3) + 8) well widths past the wells, at M =
        # 1245 (2,491 rows), where it used to start at R0 N = 2048 (4,097)
        sizes = []
        assemble = lattice.assemble_HN
        monkeypatch.setattr(lattice, "assemble_HN",
                            lambda V, p, box: sizes.append(box.size) or assemble(V, p, box))
        assert cli.main("converge --potential double_well --gamma 0 --N 1024 --nmax 1 "
                        "--out /dev/null".split()) == cli.EXIT_OK
        assert sizes == [2491]

    def test_skipped_floor_count_holds_on_every_ladder_box(self, tmp_path, monkeypatch):
        # the benchmark's ladder runs: on every 1-d box where cur_k + tol_k
        # lies below the floor, so that the count just below the floor is not
        # taken, that count would have passed
        bracket, boxes = eigensolve._bracket_tridiag, []

        def checked(op, k, floor):
            cur = eigensolve.eigs_tridiag(op, k).values
            if cur[-1] + eigensolve.BOX_DOUBLING_RTOL * (1.0 + abs(cur[-1])) < floor:
                neu = op.diagonal - op.coupling * op.dropped_neighbor_count()
                assert eigensolve._stebz(neu, op.tridiagonal()[1],
                                         upper=np.nextafter(floor, -np.inf)) >= k
                boxes.append(op.size)
            return bracket(op, k, floor)

        monkeypatch.setattr(eigensolve, "_bracket_tridiag", checked)
        monkeypatch.chdir(tmp_path)
        for argv, code in (
                ("kappa --kappa 0.2,0.1,0.05,0.025 --nmax 5", cli.EXIT_OK),
                ("converge --potential double_well --gamma 0 --N 128,256,512,1024 --nmax 1",
                 cli.EXIT_OK),
                ("regimes --gamma=-1 --N 2,4,8 --nmax 2", cli.EXIT_OK),
                ("regimes --gamma=-2.0,-1.5,-1.0,-0.5,0.0 --N 8,16,32,64,128,256,512,1024 "
                 "--nmax 2 --omega 1.1", cli.EXIT_OK),
                ("spectrum --potential double_well_2d --N 32 --k 6", cli.EXIT_OK)):
            assert cli.main(argv.split() + ["--out", "ladder.csv"]) == code
        assert len(boxes) == 44

    def test_one_solve_per_converged_spectrum_call(self, tmp_path, monkeypatch):
        results, solves = [], {"eigs_tridiag": 0, "_ritz_pairs": 0}
        converged = eigensolve.converged_spectrum

        def recording_converged(*args):
            results.append(converged(*args))
            return results[-1]

        def counting(name):
            solve = getattr(eigensolve, name)

            def counting_solve(*args):
                solves[name] += 1
                return solve(*args)

            return counting_solve

        monkeypatch.setattr(eigensolve, "converged_spectrum", recording_converged)
        for name in solves:
            monkeypatch.setattr(eigensolve, name, counting(name))
        ranges = record_dstebz_ranges(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert cli.main("kappa --kappa 0.2,0.1,0.05,0.025 --nmax 5".split()) == cli.EXIT_OK
        assert len(results) == 4 and solves == {"eigs_tridiag": 4, "_ritz_pairs": 0}
        # one index solve (RANGE='I') per box; the Neumann side is 6 counts,
        # for every floor lies above cur_k + tol_k, which skips the floor count
        assert (ranges.count(2), ranges.count(1)) == (4, 4 * 6)
        # a non-separable 2-d potential: one ARPACK solve and one inertia count
        # per level set, each certified on its start box
        V = two_well(omega=1.0, separation=2.0, d=2)
        counts = []
        count_below = eigensolve.count_below
        monkeypatch.setattr(eigensolve, "count_below",
                            lambda *args: counts.append(args) or count_below(*args))
        for N in (2, 4):
            params = ScalingParams(N=N, gamma=0.0, omega=1.0)
            semiclassics.levels_HN(V, params, 4)
            M0 = semiclassics._box_start_halfwidth(V, params, 4)
            assert results[-1].box == LatticeBox.centered(2, M0)
        assert len(results) == 6 and solves == {"eigs_tridiag": 4, "_ritz_pairs": 2}
        assert len(counts) == 2
        assert all(res.truncation_width is not None for res in results)
