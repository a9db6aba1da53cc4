"""The window-based IMS kernels against gather-based references, bit for bit.

The ``ref_*`` functions below are index-gather implementations on full
box arrays: every neighbor-pair quantity is gathered through
``LatticeBox.neighbor_index_pairs()`` and every commutator block is solved,
even when an earlier bump gave the same block.  The kernels must return
exactly the same floats, not merely close ones, and must hand the block
solvers the same blocks, each distinct one once and in first-seen order.
That holds for full arrays and for the support windows of
``lattice._ims_windows``, which ``ims_general_experiment`` passes.

In ``d >= 2`` both solve small blocks densely, and the comparison runs with
``eigsh`` replaced by a dense solve for the larger ones, so that it cannot
depend on ARPACK's call history: ARPACK draws its restart vectors from a
generator whose state persists between calls.
"""

import contextlib
import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsc import eigensolve, lattice, potentials, semiclassics
from lsc.errors import OverlappingSupports, PartitionNotUnity
from lsc.lattice import (
    LatticeBox,
    SymmetricLatticeOperator,
    double_commutator_norms,
    ims_identity_residual,
    ims_partition,
    ims_remainder,
    partition_variation,
)
from spectral_checks import point_array, traced_peak


# ----------------------------------------------------------------------
# gather-based references
# ----------------------------------------------------------------------

def ref_partition(centers, inner_radius, box):
    if inner_radius <= 0:
        raise ValueError("inner_radius must be positive")
    pts = point_array(box)
    etas, masks = [], []
    for c in centers:
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if c.size != box.dimension:
            raise ValueError("partition center dimension mismatch")
        dist = np.abs(pts - c).max(axis=1)
        eta = np.clip(2.0 - 2.0 * dist / inner_radius, 0.0, 1.0)
        mask = eta > 0.0
        for other in masks:
            if np.any(mask & other):
                raise OverlappingSupports("two bump supports intersect")
        etas.append(eta)
        masks.append(mask)
    s2 = np.zeros(box.size)
    for eta in etas:
        s2 += eta * eta
    return [np.sqrt(np.clip(1.0 - s2, 0.0, None))] + etas


def ref_check_partition(box, etas):
    s2 = np.zeros(box.size)
    for eta in etas:
        s2 += np.asarray(eta, dtype=float) ** 2
    if not np.max(np.abs(s2 - 1.0)) <= 1e-12:
        raise PartitionNotUnity("squared bumps do not sum to 1 within 1e-12")


def ref_remainder(op, etas):
    ref_check_partition(op.box, etas)
    i, j = op.box.neighbor_index_pairs()
    w = np.zeros(i.size)
    for eta in etas:
        eta = np.asarray(eta, dtype=float)
        w += (eta[i] - eta[j]) ** 2
    data = -op.coupling * 0.5 * w
    keep = data != 0.0
    i, j, data = i[keep], j[keep], data[keep]
    return scipy.sparse.coo_matrix(
        (np.concatenate([data, data]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(op.size, op.size),
    )


def ref_identity_residual(op, etas):
    ref_check_partition(op.box, etas)
    i, j = op.box.neighbor_index_pairs()
    sum_prod = np.zeros(i.size)
    sum_sq = np.zeros(op.size)
    sum_dd = np.zeros(i.size)
    for eta in etas:
        eta = np.asarray(eta, dtype=float)
        sum_prod += eta[i] * eta[j]
        sum_sq += eta * eta
        sum_dd += (eta[i] - eta[j]) ** 2
    off_resid = -op.coupling * (1.0 - sum_prod - 0.5 * sum_dd)
    diag_resid = op.diagonal * (1.0 - sum_sq)
    hmax = max(float(np.abs(op.diagonal).max()), op.coupling)
    worst = max(
        float(np.abs(off_resid).max(initial=0.0)), float(np.abs(diag_resid).max())
    )
    return worst / hmax


def ref_double_commutator_norms(op, etas):
    i, j = op.box.neighbor_index_pairs()
    norms = []
    for eta in etas:
        eta = np.asarray(eta, dtype=float)
        w = -op.coupling * (eta[i] - eta[j]) ** 2
        nz = np.flatnonzero(w)
        if nz.size == 0:
            norms.append(0.0)
            continue
        nodes, pos = np.unique(np.concatenate([i[nz], j[nz]]), return_inverse=True)
        a, b = pos[: nz.size], pos[nz.size :]
        if nodes.size <= 2:
            lam_min = w[nz].min()
        elif op.box.dimension == 1:
            off = np.zeros(nodes.size - 1)
            off[a] = w[nz]
            lam_min = eigensolve.eigs_tridiag((np.zeros(nodes.size), off), 1).values[0]
        else:
            B = scipy.sparse.csr_matrix(
                (np.concatenate([w[nz], w[nz]]),
                 (np.concatenate([a, b]), np.concatenate([b, a]))),
                shape=(nodes.size, nodes.size),
            )
            if nodes.size <= lattice._DENSE_BLOCK_NODES:
                lam_min = np.linalg.eigvalsh(B.toarray())[0]
            else:
                lam_min = scipy.sparse.linalg.eigsh(
                    B, k=1, which="SA", v0=np.ones(nodes.size), tol=0,
                    return_eigenvectors=False)[0]
        norms.append(float(-lam_min))
    return norms


def ref_partition_variation(box, etas):
    i, j = box.neighbor_index_pairs()
    return [float(np.abs(np.asarray(eta, dtype=float)[i] - np.asarray(eta, dtype=float)[j]).max())
            for eta in etas]


# ----------------------------------------------------------------------
# random instances
# ----------------------------------------------------------------------

SIDE = {1: 40, 2: 12, 3: 6}  # largest box extent per dimension


@st.composite
def boxes(draw):
    d = draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-SIDE[d], 0)) for _ in range(d))
    hi = tuple(l + draw(st.integers(0, SIDE[d])) for l in lo)
    return LatticeBox(lo=lo, hi=hi)


@st.composite
def partition_cases(draw):
    """A box, 0-4 bump centers and a radius, a coupling and a diagonal.

    Consecutive centers step by about two radii along axis 0, so supports
    overlap, touch or stand apart; centers may lie near or beyond the box
    edge, where the bumps are clipped.
    """
    box = draw(boxes())
    r = draw(st.floats(0.5, 6.0))
    reach = math.ceil(r)
    c = [draw(st.integers(l - reach, h)) + draw(st.sampled_from([0.0, 0.5]))
         for l, h in zip(box.lo, box.hi)]
    centers = []
    for _ in range(draw(st.integers(0, 4))):
        centers.append(tuple(c))
        c[0] += draw(st.integers(2 * reach - 2, 2 * reach + 3))
        for ax in range(1, box.dimension):
            c[ax] += draw(st.integers(-1, 1))
    coupling = draw(st.floats(0.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op = SymmetricLatticeOperator(
        box=box, diagonal=rng.uniform(-5.0, 5.0, box.size), coupling=coupling)
    return op, centers, r


@contextlib.contextmanager
def solver_log():
    """Record every block handed to a solver; ``eigsh`` becomes a dense solve."""
    log = []
    tridiag = eigensolve.eigs_tridiag

    def eigs_tridiag(path, k):
        log.append(("path", path[1].tobytes()))
        return tridiag(path, k)

    def eigsh(B, k, which, v0, tol, return_eigenvectors):
        assert (which, tol, return_eigenvectors) == ("SA", 0, False)
        assert np.array_equal(v0, np.ones(B.shape[0]))
        log.append(("csr", B.shape, B.data.tobytes(), B.indices.tobytes(), B.indptr.tobytes()))
        return np.linalg.eigvalsh(B.toarray())[:k]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolve, "eigs_tridiag", eigs_tridiag)
        mp.setattr(scipy.sparse.linalg, "eigsh", eigsh)
        yield log


def assert_same_norms(op, etas, ref_etas=None):
    with solver_log() as log:
        got = double_commutator_norms(op, etas)
        solved = list(log)
        log.clear()
        want = ref_double_commutator_norms(op, etas if ref_etas is None else ref_etas)
    assert got == want
    assert solved == list(dict.fromkeys(log))  # each distinct block once, same order


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def fixed_case(lo, hi, centers, r):
    box = LatticeBox(lo=lo, hi=hi)
    diagonal = np.random.default_rng(7).uniform(-5.0, 5.0, box.size)
    return SymmetricLatticeOperator(box=box, diagonal=diagonal, coupling=1.3), centers, r


class TestAgainstGatherReference:
    @given(partition_cases())
    @settings(max_examples=200, deadline=None)
    # two bumps whose supports touch: -7..-1 and 0..6, neighbors at -1 and 0
    @example(fixed_case((-10,), (10,), [(-4,), (3,)], 4.0))
    # off-lattice centers whose windows the box edge clips, in 2-d and 3-d
    @example(fixed_case((-6, -5), (4, 6), [(-6.5, 0.5), (2.0, 5.5)], 2.5))
    @example(fixed_case((-3, -3, -3), (3, 2, 3), [(-3.5, 0.0, 2.5), (2.0, -3.0, -2.5)], 1.7))
    def test_partition_kernels(self, case):
        op, centers, r = case
        box = op.box
        try:
            want = ref_partition(centers, r, box)
        except OverlappingSupports:
            for build in (ims_partition, lattice._ims_windows):
                with pytest.raises(OverlappingSupports):
                    build(centers, r, box)
            return
        etas = ims_partition(centers, r, box)
        assert_same(etas, want)
        windows = lattice._ims_windows(centers, r, box)
        # each bump window is its support grown by one site and clipped to the
        # box, and its boundary values inside the box (eta_0's too) equal its fill
        for w, eta in zip(windows[1:], want[1:]):
            support = np.nonzero(eta.reshape(box.shape))
            if support[0].size:
                assert w.slices == tuple(
                    slice(max(int(s.min()) - 1, 0), min(int(s.max()) + 2, n))
                    for s, n in zip(support, box.shape))
            else:
                assert w.values.size == 0
        for w in windows:
            for ax, (a, b, n) in enumerate(zip(w.start, w.stop, box.shape)):
                for face, inside in ((0, a > 0), (-1, b < n)):
                    if inside and w.values.size:
                        assert np.all(np.take(w.values, face, axis=ax) == w.fill)
        for parts in (etas, windows):
            assert ims_identity_residual(op, parts) == ref_identity_residual(op, want)
            assert_same_norms(op, parts, want)
            got, ref = ims_remainder(op, parts), ref_remainder(op, want)
            assert got.nnz == ref.nnz
            assert np.array_equal(got.row, ref.row) and np.array_equal(got.col, ref.col)
            assert np.array_equal(got.data, ref.data)
            if box.size > 1:
                assert partition_variation(box, parts) == ref_partition_variation(box, want)
            else:
                with pytest.raises(ValueError):
                    partition_variation(box, parts)
                with pytest.raises(ValueError):
                    ref_partition_variation(box, want)

    @given(boxes(), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_norms_and_variation_on_translated_profiles(self, box, seed, coupling):
        # random profiles with exact zeros, some repeated as translated copies
        # (the same block bytes) and some clipped by the box edge (new bytes)
        rng = np.random.default_rng(seed)
        shape = tuple(int(rng.integers(1, min(n, 4) + 1)) for n in box.shape)
        profile = rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) < 0.7)
        etas = []
        for _ in range(int(rng.integers(1, 5))):
            grid = np.zeros(box.shape)
            at = tuple(int(rng.integers(0, n)) for n in box.shape)
            fit = tuple(min(s, n - a) for a, s, n in zip(at, shape, box.shape))
            grid[tuple(slice(a, a + f) for a, f in zip(at, fit))] = \
                profile[tuple(slice(0, f) for f in fit)]
            etas.append(grid.reshape(box.size))
        etas += [etas[0].copy(), rng.uniform(-1.0, 1.0, box.size)]
        op = SymmetricLatticeOperator(box=box, diagonal=np.zeros(box.size), coupling=coupling)
        assert_same_norms(op, etas)
        if box.size > 1:
            assert partition_variation(box, etas) == ref_partition_variation(box, etas)


def test_small_2d_blocks_repeat_bit_for_bit():
    # ARPACK on these blocks (at most 30 nodes) gave 4 distinct eta_0 norms in
    # 6 identical calls; the dense solve gives one
    box = LatticeBox(lo=(-9, -12), hi=(-5, -7))
    op = SymmetricLatticeOperator(box=box, diagonal=np.zeros(box.size),
                                  coupling=0.9753054744842613)
    etas = ims_partition([(-8.5, -15.5), (0.5, -14.5), (9.5, -14.5)],
                         4.029802218517839, box)
    first = double_commutator_norms(op, etas)
    assert first[0] > 0.0
    for _ in range(6):
        assert double_commutator_norms(op, etas) == first


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("c1, c2, shared", [
    (-4.0, 2.0, True),    # -7..-1 and -1..5 share the site -1
    (-4.0, 3.0, False),   # -7..-1 and 0..6 are neighbors, no shared site
    (-3.5, 3.5, True),    # off the lattice: -7..0 and 0..7 share 0
    (-3.5, 4.5, False),   # -7..0 and 1..8
])
def test_supports_sharing_one_site_overlap(d, c1, c2, shared):
    # radius 4, centers apart along every axis, so the shared set is one site
    box = LatticeBox.centered(d, 12)
    centers = [(c1,) * d, (c2,) * d]
    for build in (ims_partition, lattice._ims_windows, ref_partition):
        if shared:
            with pytest.raises(OverlappingSupports):
                build(centers, 4.0, box)
        else:
            build(centers, 4.0, box)
    # along axis 0 the supports overlap in one site or are neighbors
    first, second = (np.flatnonzero(ref_partition([c], 4.0, box)[1].reshape(box.shape)
                                    .any(axis=tuple(range(1, d)))) for c in centers)
    assert second[0] - first[-1] == (0 if shared else 1)


def test_nan_partition_rejected():
    box = LatticeBox.centered(1, 6)
    op = SymmetricLatticeOperator(box=box, diagonal=np.ones(box.size), coupling=1.0)
    for kernel in (ims_remainder, ims_identity_residual):
        with pytest.raises(PartitionNotUnity):
            kernel(op, [np.full(box.size, np.nan)])


def test_nan_radius_and_nonfinite_centers_rejected():
    box = LatticeBox.centered(2, 6)
    with pytest.raises(ValueError, match="inner_radius"):
        ims_partition([(0, 0)], float("nan"), box)
    for c in ((0.0, float("nan")), (float("inf"), 0.0)):
        with pytest.raises(ValueError, match="finite"):
            ims_partition([c], 3.0, box)


def test_2d_experiment_memory_stays_on_the_windows():
    # a 365^2 box; each bump lives on about 37^2 points and eta_0 differs from 1
    # only on the wells' bounding box, 167^2 points
    V = potentials.double_well_nd(2)
    params = potentials.ScalingParams(N=64, gamma=0.0, omega=1.0)
    assert traced_peak(lambda: semiclassics.ims_general_experiment(V, params, 0.2)) <= 6e6


def test_partition_not_unity_rejected_in_2d():
    box = LatticeBox.centered(2, 6)
    op = SymmetricLatticeOperator(box=box, diagonal=np.ones(box.size), coupling=1.0)
    etas = ims_partition([(0, 0)], 3.0, box)[1:]
    for kernel in (ims_remainder, ims_identity_residual):
        with pytest.raises(PartitionNotUnity):
            kernel(op, etas)


# ----------------------------------------------------------------------
# one solve per distinct commutator block
# ----------------------------------------------------------------------

def _counting(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def wrapped(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)
    return calls


def _run_ims(name, N):
    V = potentials.builtin_potential(name, None)
    params = potentials.ScalingParams(N=N, gamma=0.0, omega=float(V.wells[0].frequencies[0]))
    return semiclassics.ims_general_experiment(V, params, 0.2)


def test_four_wells_in_2d_take_two_lanczos_solves(monkeypatch):
    # eta_0's ring block and one block shared by the four translated well bumps
    calls = _counting(monkeypatch, scipy.sparse.linalg, "eigsh")
    report = _run_ims("double_well_2d", 16)
    assert len(report.rows) + 1 == 5
    assert len(calls) == 2


def test_two_wells_in_1d_take_two_tridiagonal_solves(monkeypatch):
    calls = _counting(monkeypatch, eigensolve, "eigs_tridiag")
    report = _run_ims("double_well", 256)
    assert len(report.rows) + 1 == 3
    assert len(calls) == 2
