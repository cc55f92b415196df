"""Randomly shifted rank-1 lattice rules.

Lattice points are generated in exact integer arithmetic as
``t_k = ((k * z) mod N) / N`` for a generating vector ``z`` whose
components are odd, so the point sets are nested across N = 2^m
(the N-point rule is exactly the even-index half of the 2N-point rule).
Shifted points are recentered to [-1/2, 1/2)^s before they are used as
coefficient parameters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class GeneratingVector:
    """Generating vector of a base-2 embedded rank-1 lattice rule.

    All components must be odd and strictly between 0 and ``n_max`` so
    that the rule is usable (and nested) for every N = 2^m <= n_max.
    """

    z: np.ndarray
    n_max: int

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.int64)
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        if z.ndim != 1 or z.size == 0:
            raise ValueError("generating vector must be a non-empty 1-d integer array")
        if self.n_max < 2 or self.n_max & (self.n_max - 1):
            raise ValueError(f"n_max must be a power of 2, got {self.n_max}")
        if np.any(z <= 0) or np.any(z >= self.n_max):
            raise ValueError("components must lie strictly between 0 and n_max")
        if np.any(z % 2 == 0):
            raise ValueError("components of a base-2 embedded rule must be odd")

    def __len__(self):
        return self.z.size

    def components(self, dim: int) -> np.ndarray:
        if dim < 1 or dim > len(self):
            raise ValueError(
                f"requested dimension {dim} not available (vector has {len(self)})"
            )
        return self.z[:dim]


def load_generating_vector(path, min_dimension: int | None = None,
                           n_max: int | None = None) -> GeneratingVector:
    """Parse a plain-text generating vector: one integer per line.

    Lines starting with '#' are ignored.  ``n_max`` is taken from the
    conventional file name ``lattice-<id>-<minN>-<maxN>.<dims>`` when not
    given explicitly.
    """
    path = Path(path)
    values = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not an integer: {line!r}") from None
    if not values:
        raise ValueError(f"{path}: no vector components found")
    if min_dimension is not None and len(values) < min_dimension:
        raise ValueError(
            f"{path}: has {len(values)} components, need at least {min_dimension}"
        )
    if n_max is None:
        m = re.match(r"lattice-\d+-\d+-(\d+)", path.name)
        if m is None:
            raise ValueError(
                f"{path}: cannot infer max N from file name; pass n_max explicitly"
            )
        n_max = int(m.group(1))
    return GeneratingVector(np.array(values, dtype=np.int64), n_max)


def default_generating_vector(min_dimension: int | None = None) -> GeneratingVector:
    """The built-in Korobov rule z_j = 182667^(j-1) mod 2^20, j = 1..256, for N <= 2^20."""
    if min_dimension is not None and min_dimension > 256:
        raise ValueError("the built-in vector has 256 components, "
                         f"need at least {min_dimension}")
    z = [pow(182667, j, 2 ** 20) for j in range(256)]
    return GeneratingVector(np.array(z, dtype=np.int64), 2 ** 20)


def _check_n(z: GeneratingVector, n: int):
    if n < 1 or n & (n - 1):
        raise ValueError(f"N must be a power of 2, got {n}")
    if n > z.n_max:
        raise ValueError(f"N={n} exceeds the vector's supported maximum {z.n_max}")


def lattice_point(z: GeneratingVector, n: int, k: int, dim: int | None = None) -> np.ndarray:
    """k-th point of the N-point rule, in [0,1)^dim, exact integer arithmetic."""
    _check_n(z, n)
    if not 0 <= k < n:
        raise ValueError(f"point index k={k} outside [0, {n})")
    zz = z.components(dim) if dim is not None else z.z
    return ((k * zz) % n) / n


def shift_and_center(t: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Apply a random shift modulo 1 and recenter: {t + delta} - 1/2."""
    t = np.asarray(t, dtype=float)
    delta = np.asarray(delta, dtype=float)
    return np.mod(t + delta, 1.0) - 0.5


def random_shift(seed: int, level: int, r: int, dim: int) -> np.ndarray:
    """The r-th uniform random shift in [0,1)^dim of a level, reproducible
    from the seed: one stream per (level, shift)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(level, r))
    return np.random.default_rng(ss).random(dim)


def shift_average_and_variance(per_shift_estimates) -> tuple[float, float]:
    """Shift-averaged estimate and the sample variance of that average.

    variance = 1/(R(R-1)) * sum_r (mean - Q_r)^2, the usual unbiased
    estimate of the variance of the mean over R independent shifts.
    """
    q = np.asarray(per_shift_estimates, dtype=float)
    r = q.size
    if r < 2:
        raise ValueError("need at least 2 shifts to estimate a variance")
    mean = q.mean()
    var = float(np.sum((mean - q) ** 2) / (r * (r - 1)))
    return float(mean), var
