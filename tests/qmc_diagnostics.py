"""Point-set diagnostics for the lattice tests: whole rules, nearest-neighbour
distances and a brute-force star discrepancy.  Test helpers only; the
package draws its points one at a time with ``mlqmc_eig.lattice_point``."""

import itertools

import numpy as np
from scipy.spatial import cKDTree

from mlqmc_eig import GeneratingVector, lattice_point

# limits for the brute-force star discrepancy
_DISC_MAX_DIM = 3
_DISC_MAX_POINTS = 64


def lattice_points(z: GeneratingVector, n: int, dim: int) -> np.ndarray:
    """All N points of the rule as an (N, dim) array in [0,1)^dim."""
    lattice_point(z, n, 0, dim)     # the argument checks of the pointwise rule
    k = np.arange(n, dtype=np.int64)[:, None]
    return ((k * z.components(dim)[None, :]) % n) / n


def max_nn_distance(points: np.ndarray) -> float:
    """Largest l-infinity distance from any point to its nearest neighbour."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 2:
        raise ValueError("need at least 2 points")
    tree = cKDTree(pts)
    dist, _ = tree.query(pts, k=2, p=np.inf)
    return float(dist[:, 1].max())


def star_discrepancy_bruteforce(points: np.ndarray) -> float:
    """Star discrepancy by exhaustive search over candidate box corners.

    Candidate corners are taken from the coordinate grid of the points
    plus 1.0 in each axis; at each corner both the strict count (the
    value of the discrepancy function on [0, b)) and the non-strict
    count (its limit from above) are compared against the box volume,
    which captures the supremum over half-open boxes.  Deliberately
    restricted to tiny instances.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, s = pts.shape
    if s > _DISC_MAX_DIM or n > _DISC_MAX_POINTS:
        raise ValueError(
            f"brute-force discrepancy limited to dimension {_DISC_MAX_DIM} "
            f"and {_DISC_MAX_POINTS} points"
        )
    if n < 1:
        raise ValueError("need at least one point")
    # per-axis candidate corners and point-below-corner indicators
    cands = [np.unique(np.concatenate([pts[:, j], [1.0]])) for j in range(s)]
    lt = [pts[:, j][None, :] < c[:, None] for j, c in enumerate(cands)]   # (Cj, n)
    le = [pts[:, j][None, :] <= c[:, None] for j, c in enumerate(cands)]
    best = 0.0
    if s == 1:
        strict = lt[0].sum(axis=1)
        nonstrict = le[0].sum(axis=1)
        vol = cands[0]
        best = max(np.abs(strict / n - vol).max(), np.abs(nonstrict / n - vol).max())
    else:
        for idx in itertools.product(*(range(len(c)) for c in cands)):
            in_strict = lt[0][idx[0]]
            in_nonstrict = le[0][idx[0]]
            vol = cands[0][idx[0]]
            for j in range(1, s):
                in_strict = in_strict & lt[j][idx[j]]
                in_nonstrict = in_nonstrict & le[j][idx[j]]
                vol *= cands[j][idx[j]]
            best = max(
                best,
                abs(in_strict.sum() / n - vol),
                abs(in_nonstrict.sum() / n - vol),
            )
    return float(best)
