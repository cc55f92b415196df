"""Affine-in-y coefficient families for the random eigenvalue problem.

A coefficient series describes

    a(x, y) = a0(x) + sum_j y_j a_j(x),   b(x, y) = b0(x) + sum_j y_j b_j(x),

with y_j in [-1/2, 1/2], plus a fixed weight c(x) for the right-hand
bilinear form.  Evaluation is vectorised over points: every callable
takes x as one pair ``(x1, x2)`` of coordinate arrays that broadcast
against each other and returns an array of their broadcast shape.

Every bundled term family is stated once, as 1-D factors
(``SeparableTerms``): term j is weight * (f(x1) * g(x2)) on a region,
everywhere or inside or outside the island set I x I.  Called as
``term(j, x)`` it is evaluated in that order, so on a tensor grid (x1 a
row, x2 a column) it costs O(n) sines for n^2 points; ``rank_one``
gives the same terms as sums of rank-one products of 1-D factors, so
``mesh_fem`` can evaluate a whole field as one small matrix product.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Point = tuple[np.ndarray, np.ndarray]
Coefficient = Callable[[Point], np.ndarray]
TermFamily = Callable[[int, Point], np.ndarray]


def _coords(x: Point) -> tuple[np.ndarray, np.ndarray]:
    x1, x2 = x
    return np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)


def _shape(x: Point) -> tuple[int, ...]:
    """Broadcast shape of the pair ``x``."""
    return np.broadcast_shapes(*(np.shape(xi) for xi in x))


def zeta(p: float) -> float:
    """Riemann zeta(p) for p > 1 by partial summation with a tail correction.

    The tail sum_{j>n} j^-p is replaced by its Euler-Maclaurin estimate;
    n grows until the first neglected term is below 1e-10.
    """
    if p <= 1.0:
        raise ValueError(f"zeta requires p > 1, got {p}")
    n = 16
    while p * (p + 1) * (p + 2) * n ** (-p - 3) / 720.0 >= 1e-10:
        n *= 2
    j = np.arange(1, n + 1, dtype=float)
    partial = float(np.sum(j ** (-p)))
    tail = n ** (1 - p) / (p - 1) - 0.5 * n ** (-p) + p * n ** (-p - 1) / 12.0
    return partial + tail


@dataclass(frozen=True, eq=False)
class CoefficientSeries:
    """Affine coefficient family with truncation metadata.

    ``a_term(j, x)`` evaluates a_j for j >= 1; ``b0`` and ``b_term`` are
    both None when the problem has no reaction term, and a series with
    only one of them is refused.  ``a_min`` is a uniform lower bound on
    a(x, y) over all x and all y in the parameter box, and also a lower
    bound on c.  The bundled problems state their term families as
    ``SeparableTerms`` (see ``separable``).
    """

    name: str
    a0: Coefficient
    a_term: TermFamily
    c: Coefficient
    a_min: float
    b0: Coefficient | None = None
    b_term: TermFamily | None = None

    def __post_init__(self):
        if (self.b0 is None) != (self.b_term is None):
            raise ValueError(f"{self.name}: give both b0 and b_term, or neither")

    @property
    def has_b(self) -> bool:
        return self.b0 is not None

    @property
    def fields(self) -> tuple:
        """(base, term family) of a, then of b when the problem has one."""
        return ((self.a0, self.a_term), (self.b0, self.b_term))[:1 + self.has_b]

    @property
    def separable(self) -> tuple | None:
        """The ``SeparableTerms`` of each term family of ``fields``.

        None when a family is not one.  A term wrapped with
        ``functools.wraps`` (say, to count its calls) is looked through,
        so such a wrapper keeps the separable form.
        """
        terms = tuple(inspect.unwrap(term) for _, term in self.fields)
        return terms if all(isinstance(t, SeparableTerms) for t in terms) else None

    def a_values(self, x: Point, y: np.ndarray) -> np.ndarray:
        """Truncated a(x, y) with truncation dimension len(y)."""
        return series_values(self.a0, self.a_term, x, y)

    def b_values(self, x: Point, y: np.ndarray) -> np.ndarray:
        """Truncated b(x, y); zero without a reaction term."""
        if not self.has_b:
            return np.zeros(_shape(x))
        return series_values(self.b0, self.b_term, x, y)


def series_values(base: Coefficient, term: TermFamily, x: Point,
                  y: np.ndarray) -> np.ndarray:
    """base(x) + sum_j y_j term(j, x), left to right, skipping y_j = 0."""
    out = np.asarray(base(x), dtype=float).copy()
    for j, yj in enumerate(np.asarray(y, dtype=float), start=1):
        if yj != 0.0:
            out += yj * term(j, x)
    return out


@dataclass(frozen=True, eq=False)
class SeparableTerms:
    """A term family stated by its 1-D factors; called, a ``TermFamily``.

    ``parts(j)`` is (weight, region, f, g) for term j >= 1: the term is
    weight * (f(x1) * g(x2)), evaluated in that order, on ``region``
    and zero off it.  The region is None (the whole square), "inside"
    or "outside" the island set I x I.
    """

    parts: Callable[[int], tuple]

    def __call__(self, j: int, x: Point) -> np.ndarray:
        weight, region, f, g = self.parts(j)
        x1, x2 = _coords(x)
        vals = weight * (f(x1) * g(x2))
        if region is None:
            return vals
        inside = island_mask(x)
        return np.where(inside if region == "inside" else ~inside, vals, 0.0)

    def rank_one(self, s: int, x1: np.ndarray, x2: np.ndarray) -> tuple:
        """Terms 1..s as sums of rank-one products of 1-D factors.

        Returns ``(index, weight, F, G)`` with r columns: column k of F
        (shape (..., n1, r)) is a factor at the points x1 (..., n1), of
        G one at x2 (..., n2), and on the grid (x1 a row, x2 a column)
        term j is the sum over the k with index[k] = j - 1 of
        weight[k] * G[..., :, k, None] * F[..., None, :, k].  A term on
        the whole square or inside I x I is one product, f g or
        (f 1_I)(g 1_I); a term outside is two with disjoint supports,
        (f 1_notI) g + (f 1_I)(g 1_notI).
        """
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        in1, in2 = _in_intervals(x1), _in_intervals(x2)
        columns = []
        for j in range(1, s + 1):
            weight, region, f, g = self.parts(j)
            fj, gj = f(x1), g(x2)
            if region is None:
                pairs = [(fj, gj)]
            elif region == "inside":
                pairs = [(np.where(in1, fj, 0.0), np.where(in2, gj, 0.0))]
            else:
                pairs = [(np.where(in1, 0.0, fj), gj),
                         (np.where(in1, fj, 0.0), np.where(in2, 0.0, gj))]
            columns += [(j - 1, weight, fk, gk) for fk, gk in pairs]
        index, weights, fs, gs = zip(*columns)
        return (np.array(index, dtype=np.intp), np.array(weights, dtype=float),
                np.stack(fs, axis=-1), np.stack(gs, axis=-1))


def problem1(p_tilde: float = 2.0) -> CoefficientSeries:
    """Pure diffusion on the unit square with smooth oscillatory modes.

    a_j(x) = j^-p * sin(j pi x1) sin((j+1) pi x2), b = 0, c = 1.  The
    mean field is 1 for p >= 2 and pi/sqrt(2) for slower decay, which
    keeps a(x, y) >= a_min = a0 - zeta(p)/2 > 0 on the parameter box.
    """
    if p_tilde < 4.0 / 3.0:
        raise ValueError(f"decay exponent must be >= 4/3, got {p_tilde}")
    a0_val = 1.0 if p_tilde >= 2.0 else math.pi / math.sqrt(2.0)
    a_min = a0_val - 0.5 * zeta(p_tilde)
    if a_min <= 0.0:
        raise ValueError(f"decay {p_tilde} gives a_min = {a_min} <= 0")

    def a0(x):
        return np.full(_shape(x), a0_val)

    def parts(j):
        return (1.0, None,
                lambda x1: j ** (-p_tilde) * np.sin(j * np.pi * x1),
                lambda x2: np.sin((j + 1) * np.pi * x2))

    def c(x):
        return np.ones(_shape(x))

    return CoefficientSeries(
        name=f"problem1(p={p_tilde:g})",
        a0=a0,
        a_term=SeparableTerms(parts),
        c=c,
        a_min=a_min,
    )


# the four islands: closed squares, boundaries aligned with meshes of h <= 1/8;
# the island set is the product I x I of this union of two intervals
_ISLAND_INTERVALS = ((0.125, 0.375), (0.625, 0.875))

_SIGMA_A, _SIGMA_A_OUT = 0.01, 0.011
_SIGMA_B, _SIGMA_B_OUT = 2.0, 0.3


def _in_intervals(t: np.ndarray) -> np.ndarray:
    (lo1, hi1), (lo2, hi2) = _ISLAND_INTERVALS
    return ((t >= lo1) & (t <= hi1)) | ((t >= lo2) & (t <= hi2))


def island_mask(x: Point) -> np.ndarray:
    """Closed-set membership of the four-island subdomain.

    Built from one 1-D mask per coordinate, so on a tensor grid it costs
    O(n) comparisons and one AND over the n^2 points.
    """
    x1, x2 = _coords(x)
    return _in_intervals(x1) & _in_intervals(x2)


def problem2(p_a: float = 2.0, p_a_out: float = 2.0,
             p_b: float = 2.0, p_b_out: float = 2.0) -> CoefficientSeries:
    """Diffusion/reaction problem with four interior islands.

    The mean coefficients jump across the islands; odd-indexed terms
    oscillate on the islands, even-indexed ones on the exterior, with
    separate decay exponents per region.  Whenever a decay exponent is
    below 2 the corresponding region's zeroth term is scaled by
    pi/sqrt(2) so the coefficient stays uniformly positive.
    """
    for name, p in (("p_a", p_a), ("p_a_out", p_a_out),
                    ("p_b", p_b), ("p_b_out", p_b_out)):
        if p < 4.0 / 3.0:
            raise ValueError(f"decay exponent {name} must be >= 4/3, got {p}")

    def scale(p):
        return math.pi / math.sqrt(2.0) if p < 2.0 else 1.0

    a0_in = _SIGMA_A * scale(p_a)
    a0_out = _SIGMA_A_OUT * scale(p_a_out)
    b0_in = _SIGMA_B * scale(p_b)
    b0_out = _SIGMA_B_OUT * scale(p_b_out)

    a_min = min(
        a0_in - _SIGMA_A * 0.5 * zeta(p_a),
        a0_out - _SIGMA_A_OUT * 0.5 * zeta(p_a_out),
    )
    if a_min <= 0.0:
        raise ValueError("island decays give a non-positive diffusion bound")
    b_min = min(
        b0_in - _SIGMA_B * 0.5 * zeta(p_b),
        b0_out - _SIGMA_B_OUT * 0.5 * zeta(p_b_out),
    )
    if b_min < 0.0:
        raise ValueError("island decays give a negative reaction bound")

    def piecewise(val_in, val_out):
        def f(x):
            return np.where(island_mask(x), val_in, val_out)
        return f

    def term(sigma_in, p_in, sigma_out, p_out):
        def parts(j):
            # odd terms oscillate on the islands, even ones off them
            if j % 2 == 1:
                sigma, region, k, q = sigma_in, "inside", (j + 1) // 2, p_in
            else:
                sigma, region, k, q = sigma_out, "outside", j // 2, p_out
            return (sigma, region,
                    lambda x1: k ** (-q) * np.sin(8 * k * np.pi * x1),
                    lambda x2: np.sin(8 * (k + 1) * np.pi * x2))
        return SeparableTerms(parts)

    def c(x):
        return np.ones(_shape(x))

    return CoefficientSeries(
        name=f"problem2(pa={p_a:g},pa'={p_a_out:g},pb={p_b:g},pb'={p_b_out:g})",
        a0=piecewise(a0_in, a0_out),
        a_term=term(_SIGMA_A, p_a, _SIGMA_A_OUT, p_a_out),
        c=c,
        a_min=a_min,
        b0=piecewise(b0_in, b0_out),
        b_term=term(_SIGMA_B, p_b, _SIGMA_B_OUT, p_b_out),
    )


def make_problem(name: str, **params) -> CoefficientSeries:
    """Problem factory used by experiment configs."""
    if name == "problem1":
        return problem1(**params)
    if name == "problem2":
        return problem2(**params)
    raise ValueError(f"unknown problem {name!r} (expected problem1 or problem2)")
