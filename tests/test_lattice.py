"""Tests for boxes, assembled operators, interval decompositions, and partitions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsc import eigensolve, hermite, lattice
from lsc.errors import (
    BoxTooSmall,
    DegenerateDecomposition,
    OverlappingSupports,
    PartitionNotUnity,
)
from lsc.lattice import (
    LatticeBox,
    ModifiedPotentialParams,
    assemble_Hkappa,
    assemble_HN,
    assemble_laplacian,
    assemble_modified,
    beta_rate_bound,
    build_interval_decomposition,
    double_commutator_norms,
    ims_identity_residual,
    ims_partition,
    ims_remainder,
    partition_variation,
)
from lsc.potentials import ScalingParams, double_well, harmonic
from spectral_checks import point_array


class TestBox:
    def test_shapes(self):
        box = LatticeBox.centered(2, 3)
        assert box.shape == (7, 7) and box.size == 49
        assert LatticeBox.interval(2, 5).size == 4

    def test_index_round_trip_exhaustive(self):
        box = LatticeBox(lo=(-2, 0, 1), hi=(1, 2, 3))
        seen = set()
        for i in range(box.size):
            p = box.point(i)
            assert box.index(p) == i
            seen.add(p)
        assert len(seen) == box.size

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 10_000))
    def test_index_round_trip_random(self, d, seed):
        rng = np.random.default_rng(seed)
        lo = rng.integers(-20, 5, size=d)
        hi = lo + rng.integers(0, 10, size=d)
        box = LatticeBox(lo=tuple(lo), hi=tuple(hi))
        for _ in range(5):
            p = tuple(int(rng.integers(l, h + 1)) for l, h in zip(box.lo, box.hi))
            assert box.point(box.index(p)) == p

    def test_neighbor_pairs_count(self):
        box = LatticeBox.centered(2, 2)  # 5x5 grid: 2 * 5 * 4 edges
        i, j = box.neighbor_index_pairs()
        assert i.size == 40

    def test_cached_shape_leaves_equality_hash_and_frozenness(self):
        used, fresh = LatticeBox(lo=(-2, 0), hi=(3, 4)), LatticeBox(lo=(-2, 0), hi=(3, 4))
        assert used.shape == (6, 5) and used.size == 30
        assert used.shape is used.shape  # computed once
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert used != LatticeBox(lo=(-2, 0), hi=(3, 5))
        assert {used: 1}[fresh] == 1
        for name in ("shape", "size", "lo"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(used, name, (1,))
        assert dataclasses.asdict(used) == {"lo": (-2, 0), "hi": (3, 4)}

    def test_outside_point_rejected(self):
        with pytest.raises(KeyError):
            LatticeBox.centered(1, 3).index((4,))


class TestLaplacian:
    def test_three_point_spectrum_closed_form(self):
        # Dirichlet eigenvalues 2 - 2 cos(k pi / 4), k = 1, 2, 3
        op = assemble_laplacian(LatticeBox.centered(1, 1))
        want = np.array([2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])
        got = eigensolve.eigs_tridiag(op, 3).values
        np.testing.assert_allclose(got, want, rtol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(op.dense()), want, rtol=1e-12)

    def test_annihilates_constants_in_interior(self):
        op = assemble_laplacian(LatticeBox.centered(1, 10))
        out = op.matvec(np.ones(op.size))
        assert np.all(out[1:-1] == 0.0)
        # boundary rows keep the dropped-coupling excess
        assert out[0] == 1.0 and out[-1] == 1.0
        np.testing.assert_array_equal(
            op.dropped_neighbor_count(), [1] + [0] * (op.size - 2) + [1]
        )

    def test_d2_interior_diagonal(self):
        op = assemble_laplacian(LatticeBox.centered(2, 2))
        assert op.diagonal[op.box.index((0, 0))] == 4.0
        out = op.matvec(np.ones(op.size))
        assert out[op.box.index((0, 0))] == 0.0

    def test_dense_symmetry_exact(self):
        op = assemble_laplacian(LatticeBox.centered(2, 2))
        A = op.dense()
        assert np.array_equal(A, A.T)

    def test_sparse_equals_dense(self):
        rng = np.random.default_rng(3)
        for box in (LatticeBox.centered(1, 4), LatticeBox(lo=(0, -1), hi=(3, 2)),
                    LatticeBox(lo=(0, 0, 0), hi=(2, 3, 1))):
            op = lattice.SymmetricLatticeOperator(
                box=box, diagonal=rng.uniform(0.0, 5.0, box.size), coupling=0.75
            )
            np.testing.assert_array_equal(op.sparse().toarray(), op.dense())

    def test_rejects_nan_coupling(self):
        box = LatticeBox.centered(1, 4)
        with pytest.raises(ValueError, match="coupling must be nonnegative"):
            lattice.SymmetricLatticeOperator(box=box, diagonal=np.zeros(box.size),
                                             coupling=math.nan)


class TestHkappa:
    def test_diagonal_values(self):
        op = assemble_Hkappa(0.1, LatticeBox.centered(1, 20))
        assert op.diagonal[op.box.index((0,))] == 2.0
        assert op.diagonal[op.box.index((10,))] == pytest.approx(2.01, abs=0)

    def test_even_reflection(self):
        op = assemble_Hkappa(0.17, LatticeBox.centered(1, 31))
        np.testing.assert_array_equal(op.diagonal, op.diagonal[::-1])


class TestHN:
    def test_exact_rescaling_of_reduced_operator(self):
        V = harmonic([1.7])
        for N, gamma in ((16, 0.0), (64, 0.5), (9, -0.5)):
            params = ScalingParams(N=N, gamma=gamma, omega=1.7)
            box = LatticeBox.centered(1, 40)
            HN = assemble_HN(V, params, box)
            Hk = assemble_Hkappa(params.kappa, box)
            scale = 0.5 * float(N) ** 2
            assert HN.coupling == scale * Hk.coupling
            np.testing.assert_allclose(HN.diagonal, scale * Hk.diagonal, rtol=1e-13)

    def test_gamma_minus_one_is_scaled_copy(self):
        V = harmonic([1.0])
        box = LatticeBox.centered(1, 25)
        base = assemble_HN(V, ScalingParams(N=1, gamma=-1.0), box)
        for N in (2, 4, 8):
            HN = assemble_HN(V, ScalingParams(N=N, gamma=-1.0), box)
            np.testing.assert_allclose(HN.diagonal, N**2 * base.diagonal, rtol=1e-13)
            assert HN.coupling == N**2 * base.coupling

    def test_N1_gamma1_reduces_to_half_laplacian_plus_V(self):
        V = double_well()
        box = LatticeBox.centered(1, 10)
        op = assemble_HN(V, ScalingParams(N=1, gamma=1.0, omega=2.0), box)
        x = box.coords().astype(float)
        np.testing.assert_allclose(op.diagonal, 1.0 + 0.5 * (x * x - 1.0) ** 2, rtol=1e-15)
        assert op.coupling == 0.5


class TestModified:
    def test_spike_location_and_value(self):
        p = ModifiedPotentialParams(kappa=0.2, delta=0.25)
        assert p.x_delta == 7
        assert p.spike_value == pytest.approx(0.2**-0.25, rel=1e-15)
        assert p.spike_value == pytest.approx(1.4953487812212205, rel=1e-12)

    def test_matches_plain_off_spike(self):
        p = ModifiedPotentialParams(kappa=0.2, delta=0.25)
        box = LatticeBox.centered(1, 20)
        plain = assemble_Hkappa(0.2, box)
        spiked = assemble_modified(p, box)
        x = box.coords()
        off = np.abs(x) != p.x_delta
        np.testing.assert_array_equal(spiked.diagonal[off], plain.diagonal[off])
        at = np.abs(x) == p.x_delta
        assert np.all(spiked.diagonal[at] == 2.0 + p.spike_value)
        assert np.all(spiked.diagonal >= plain.diagonal)

    def test_box_must_cover_spike(self):
        p = ModifiedPotentialParams(kappa=0.2, delta=0.25)
        with pytest.raises(BoxTooSmall):
            assemble_modified(p, LatticeBox.centered(1, 5))

    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            ModifiedPotentialParams(kappa=0.2, delta=0.6)
        with pytest.raises(ValueError):
            ModifiedPotentialParams(kappa=0.2, delta=0.0)


class TestDecomposition:
    def test_degree_three_example(self):
        dec = build_interval_decomposition(3, 0.1)
        np.testing.assert_array_equal(dec.a, [1, 13])
        assert dec.b[0] == 11.0 and math.isinf(dec.b[1])
        assert dec.beta[0] == 1.0
        assert dec.beta[1] == pytest.approx(1.0206207261596576, rel=1e-12)
        assert dec.excluded == (0, 12)

    def test_degree_two_example(self):
        dec = build_interval_decomposition(2, 0.1)
        np.testing.assert_array_equal(dec.a, [8])
        assert dec.beta[0] == pytest.approx(1.0101525445522107, rel=1e-12)
        assert dec.excluded == (7,)
        pieces = dec.pieces(40)
        assert (-6, 6, 0, 1.0) in pieces
        assert (8, 40, 1, pytest.approx(dec.beta[0])) in pieces

    def test_degree_one_structure(self):
        dec = build_interval_decomposition(1, 0.1)
        np.testing.assert_array_equal(dec.a, [1])
        assert dec.beta[0] == 1.0
        assert dec.excluded == (0,)
        pieces = dec.pieces(30)
        assert (1, 30, 1, 1.0) in pieces and (-30, -1, -1, 1.0) in pieces
        assert all(label != 0 for _, _, label, _ in pieces)

    def test_degree_zero_whole_line(self):
        dec = build_interval_decomposition(0, 0.1)
        assert dec.k == 0 and dec.excluded == ()
        assert dec.pieces(50) == [(-50, 50, 0, 1.0)]
        assert dec.cover_ok(50)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kappa", [0.2, 0.1, 0.05])
    def test_cover_identity_exact(self, n, kappa):
        dec = build_interval_decomposition(n, kappa)
        assert dec.cover_ok(dec.min_halfwidth() + 37)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_beta_anchoring(self, n):
        for kappa in (0.1, 0.05, 0.025):
            dec = build_interval_decomposition(n, kappa)
            for j in range(dec.k):
                z = dec.zeros[j]
                if z == 0.0:
                    continue
                err = abs(dec.beta[j] * kappa * (dec.a[j] - 1) - z)
                assert err <= 1e-13 * max(1.0, z)

    def test_beta_envelope_dominates_measured(self):
        for n in (1, 2, 3, 4):
            C = beta_rate_bound(n, 0.1)
            for kappa in (0.1, 0.061, 0.05, 0.037, 0.025):
                dec = build_interval_decomposition(n, kappa)
                assert np.all(dec.beta - 1.0 <= C * kappa + 1e-15)

    def test_degenerate_when_mesh_too_coarse(self):
        with pytest.raises(DegenerateDecomposition):
            build_interval_decomposition(2, 1.0)

    def test_quasimode_vanishes_at_anchors(self):
        dec = build_interval_decomposition(4, 0.1)
        for j in range(dec.k):
            y = float(dec.beta[j]) * 0.1 * float(int(dec.a[j]) - 1)
            assert abs(hermite.weighted_eval(4, y)) <= 1e-12


class TestRestrict:
    def test_single_point(self):
        op = assemble_Hkappa(0.3, LatticeBox.centered(1, 10))
        sub = op.restrict(LatticeBox.interval(4, 4))
        assert sub.size == 1
        assert sub.diagonal[0] == pytest.approx(2.0 + 0.3**4 * 16.0, rel=1e-15)

    def test_composition(self):
        op = assemble_Hkappa(0.2, LatticeBox.centered(1, 30))
        once = op.restrict(LatticeBox.interval(-5, 20)).restrict(LatticeBox.interval(0, 12))
        direct = op.restrict(LatticeBox.interval(0, 12))
        np.testing.assert_array_equal(once.diagonal, direct.diagonal)
        assert once.coupling == direct.coupling

    def test_dirichlet_bracketing(self):
        # min-max: dropping couplings can only raise the ground energy
        op = assemble_Hkappa(0.15, LatticeBox.centered(1, 80))
        full = eigensolve.eigs_tridiag(op, 1).values[0]
        part = eigensolve.eigs_tridiag(op.restrict(LatticeBox.interval(-20, 35)), 1).values[0]
        assert part >= full - 1e-14

    def test_requires_containment(self):
        op = assemble_Hkappa(0.2, LatticeBox.centered(1, 5))
        with pytest.raises(ValueError):
            op.restrict(LatticeBox.interval(0, 9))

    def test_d2_principal_submatrix(self):
        box = LatticeBox.centered(2, 3)
        op = assemble_laplacian(box)
        sub_box = LatticeBox(lo=(-1, 0), hi=(1, 2))
        sub = op.restrict(sub_box)
        dense = op.dense()
        keep = [box.index(p) for p in map(tuple, point_array(sub_box))]
        np.testing.assert_array_equal(sub.dense(), dense[np.ix_(keep, keep)])


class TestPartition:
    def test_partition_of_unity_and_plateaus(self):
        box = LatticeBox.centered(1, 200)
        etas = ims_partition([(-90,), (60,)], 40.0, box)
        total = sum(e * e for e in etas)
        np.testing.assert_allclose(total, 1.0, atol=1e-15)
        x = box.coords()
        for center, eta in zip((-90, 60), etas[1:]):
            inside = np.abs(x - center) <= 20
            outside = np.abs(x - center) >= 40
            assert np.all(eta[inside] == 1.0)
            assert np.all(eta[outside] == 0.0)

    def test_step_variation_bound(self):
        box = LatticeBox.centered(1, 150)
        etas = ims_partition([(0,)], 33.0, box)
        for c in partition_variation(box, etas[1:]):
            assert c <= 2.0 / 33.0 + 1e-15

    def test_overlap_rejected(self):
        box = LatticeBox.centered(1, 100)
        with pytest.raises(OverlappingSupports):
            ims_partition([(-20,), (20,)], 30.0, box)

    def test_no_centers_gives_trivial_partition(self):
        box = LatticeBox.centered(1, 10)
        etas = ims_partition([], 5.0, box)
        assert len(etas) == 1
        np.testing.assert_array_equal(etas[0], np.ones(box.size))
        op = assemble_laplacian(box)
        assert ims_remainder(op, etas).nnz == 0


class TestImsRemainder:
    def _random_instance(self, seed, size_cap=240):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(40, size_cap // 2))
        box = LatticeBox.centered(1, M)
        diag = 2.0 + rng.uniform(0.0, 5.0, box.size)
        coupling = float(rng.uniform(0.2, 2.0))
        op = lattice.SymmetricLatticeOperator(
            box=box, diagonal=diag + 2.0 * (coupling - 1.0), coupling=coupling
        )
        r = float(rng.uniform(6.0, M / 2.5))
        c = int(rng.integers(-M + int(r) + 1, M - int(r)))
        etas = ims_partition([(c,)], r, box)
        return op, etas

    @pytest.mark.parametrize("seed", range(12))
    def test_identity_against_dense_oracle(self, seed):
        op, etas = self._random_instance(seed)
        H = op.dense()
        rebuilt = sum(np.diag(e) @ H @ np.diag(e) for e in etas)
        rebuilt += ims_remainder(op, etas).toarray()
        assert np.abs(H - rebuilt).max() <= 1e-12 * np.abs(H).max()
        assert ims_identity_residual(op, etas) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_commutator_norms_against_dense_oracle(self, seed):
        op, etas = self._random_instance(seed)
        H = op.dense()
        variations = partition_variation(op.box, etas)
        norm_L = op.hopping_norm_bound()
        for eta, got, c in zip(etas, double_commutator_norms(op, etas), variations):
            D = np.diag(eta) @ H @ np.diag(eta)
            E = np.diag(eta * eta) @ H + H @ np.diag(eta * eta) - 2.0 * D
            want = np.abs(np.linalg.eigvalsh(E)).max()
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)
            assert got <= 2.0 * norm_L * c * c + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_commutator_norms_2d_against_dense_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        box = LatticeBox.centered(2, int(rng.integers(10, 19)))
        coupling = float(rng.uniform(0.2, 2.0))
        op = lattice.SymmetricLatticeOperator(
            box=box, diagonal=rng.uniform(0.0, 5.0, box.size), coupling=coupling
        )
        M = box.hi[0]
        r = float(rng.uniform(2.0, M / 2.5))
        c = tuple(int(v) for v in rng.integers(-M + int(r) + 1, M - int(r), 2))
        etas = ims_partition([c], r, box)
        H = op.dense()
        for eta, got in zip(etas, double_commutator_norms(op, etas)):
            # eta^2 H + H eta^2 - 2 eta H eta with diagonal multipliers
            E = (eta[:, None] ** 2 + eta[None, :] ** 2) * H
            E -= 2.0 * eta[:, None] * H * eta[None, :]
            want = np.abs(np.linalg.eigvalsh(E)).max()
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_commutator_norms_small_2d_supports(self):
        # a point bump on the 2-d Laplacian: a star of four unit edges, norm 2
        box = LatticeBox.centered(2, 2)
        eta = np.zeros(box.size)
        eta[box.index((0, 0))] = 1.0
        got = double_commutator_norms(assemble_laplacian(box), [eta])[0]
        assert got == pytest.approx(2.0, rel=1e-12)
        # a single neighbor pair has norm |w|
        op = lattice.SymmetricLatticeOperator(
            box=LatticeBox(lo=(0, 0), hi=(0, 1)), diagonal=np.zeros(2), coupling=1.5
        )
        assert double_commutator_norms(op, [np.array([0.0, 0.5])]) == [1.5 * 0.25]

    def test_partition_not_unity_rejected(self):
        op, etas = self._random_instance(0)
        with pytest.raises(PartitionNotUnity):
            ims_remainder(op, etas[1:])
