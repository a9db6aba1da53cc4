"""Spectral assertions shared by the test modules (not collected as tests)."""

import tracemalloc

import numpy as np
import scipy.linalg

from lsc.eigensolve import BOX_DOUBLING_RTOL, converged_spectrum, eigs_tridiag
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
    """``lower <= E(Dirichlet, 8 M0) <= E(Dirichlet, M0)`` level by level, with
    ``lower`` the Neumann levels on the start box (the Dirichlet diagonal less
    one coupling per cut bond) less the bracket's tolerance ``BOX_DOUBLING_RTOL
    (1 + |E|) / 2`` at its tightest level and the top one below
    ``outside_floor(M0)``; ``converged_spectrum`` then accepts the start box
    by the bracket, with the acceptance tolerance as its width."""
    op = assemble(M0)
    start = eigs_tridiag(op, k).values
    wide = eigs_tridiag(assemble(8 * M0), k).values
    neu = SymmetricLatticeOperator(
        box=op.box,
        diagonal=op.diagonal - op.coupling * op.dropped_neighbor_count(),
        coupling=op.coupling,
    )
    tol = BOX_DOUBLING_RTOL * (1.0 + np.abs(start))
    lower = eigs_tridiag(neu, k).values - 0.5 * tol.min()
    assert lower[-1] < outside_floor(M0)
    assert np.all(lower <= wide)
    # Dirichlet monotonicity, up to the rounding of the bisection
    assert np.all(wide <= start + 4 * np.finfo(float).eps * np.abs(start))
    res = converged_spectrum(assemble, M0, k, outside_floor)
    assert res.box == op.box
    np.testing.assert_array_equal(res.values, start)
    np.testing.assert_array_equal(res.truncation_width, tol)
    assert np.all(res.values - res.truncation_width <= wide)
