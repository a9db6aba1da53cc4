"""Spectral assertions shared by the test modules (not collected as tests)."""

import numpy as np

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
