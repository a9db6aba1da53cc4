"""Spectral assertions shared by the test modules (not collected as tests)."""

import tracemalloc

import numpy as np
import scipy.linalg

from lsc.eigensolve import BOX_DOUBLING_RTOL, converged_spectrum, eigs_sparse, eigs_tridiag
from lsc.lattice import SymmetricLatticeOperator

CLUSTER_RTOL = 1e-10


def multiplicity_clusters(values) -> list[list[int]]:
    """Group indices of sorted eigenvalues whose neighbors agree within
    ``|dE| <= CLUSTER_RTOL (1 + |E|)``."""
    values = np.asarray(values, dtype=float)
    clusters: list[list[int]] = []
    for i, lam in enumerate(values):
        if clusters and abs(lam - values[clusters[-1][-1]]) <= CLUSTER_RTOL * (
            1.0 + abs(lam)
        ):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def point_array(box) -> np.ndarray:
    """All lattice points of ``box`` as an ``(size, d)`` array in index order."""
    axes = [np.arange(l, h + 1) for l, h in zip(box.lo, box.hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack(grids, axis=-1).reshape(box.size, box.dimension)


def traced_peak(fn) -> int:
    """Peak of the memory Python allocates while ``fn()`` runs, in bytes, as
    tracemalloc sees it; tracing stops however ``fn`` ends."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def record_dstebz_ranges(monkeypatch) -> list[int]:
    """Patch LAPACK ``dstebz`` to log the ``RANGE`` of every call: 2 for an
    index solve (``'I'``), 1 for a Sturm count (``'V'``)."""
    ranges: list[int] = []
    dstebz = scipy.linalg.lapack.dstebz

    def logged(d, e, range_, *args):
        ranges.append(range_)
        return dstebz(d, e, range_, *args)

    monkeypatch.setattr(scipy.linalg.lapack, "dstebz", logged)
    return ranges


def assert_bracket_encloses(assemble, M0, k, outside_floor):
    """``lower <= E(Dirichlet, wide box) <= E(Dirichlet, M0)`` level by level,
    with ``lower`` the Neumann levels on the start box (the Dirichlet diagonal
    less one coupling per cut bond) less the bracket's tolerance
    ``BOX_DOUBLING_RTOL (1 + |E|) / 2`` at its tightest level and the top one
    below ``outside_floor(M0)``; ``converged_spectrum`` then accepts the start
    box by the bracket, with the acceptance tolerance as its width.  In 1-d
    every solve is ``eigs_tridiag`` and the wide box has half-width ``8 M0``;
    in ``d >= 2`` every solve is ``eigs_sparse`` and the wide box is the
    doubled one."""
    op = assemble(M0)
    d = op.box.dimension
    solve = eigs_tridiag if d == 1 else eigs_sparse
    start = solve(op, k).values
    wide = solve(assemble((8 if d == 1 else 2) * M0), k).values
    neu = SymmetricLatticeOperator(
        box=op.box,
        diagonal=op.diagonal - op.coupling * op.dropped_neighbor_count(),
        coupling=op.coupling,
    )
    tol = BOX_DOUBLING_RTOL * (1.0 + np.abs(start))
    lower = solve(neu, k).values - 0.5 * tol.min()
    assert lower[-1] < outside_floor(M0)
    assert np.all(lower <= wide)
    # Dirichlet monotonicity, up to the rounding of the bisection in 1-d and of
    # the ARPACK values in d >= 2 (up to 7.5 eps |E| on two_well(d=2) at N = 4)
    eps = np.finfo(float).eps
    slack = 4 * eps * np.abs(start) if d == 1 else 64 * eps * (1.0 + np.abs(start))
    assert np.all(wide <= start + slack)
    res = converged_spectrum(assemble, M0, k, outside_floor)
    assert res.box == op.box
    np.testing.assert_array_equal(res.values, start)
    np.testing.assert_array_equal(res.truncation_width, tol)
    assert np.all(res.values - res.truncation_width <= wide)
