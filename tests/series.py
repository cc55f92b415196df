"""Coefficient-series helpers for the tests.

``series_values``, ``a_values`` and ``b_values`` are the point-wise
oracles of a truncated field: each term called on its own, at any
points, and added left to right.  The package evaluates fields only
through the rank-one factors of the terms (``mesh_fem._factors``).
``constant_terms`` states a constant term family as ``SeparableTerms``,
the only kind a ``CoefficientSeries`` takes.
"""

import numpy as np

from mlqmc_eig import SeparableTerms


def series_values(base, term, x, y):
    """base(x) + sum_j y_j term(j, x), left to right, skipping y_j = 0."""
    out = np.asarray(base(x), dtype=float).copy()
    for j, yj in enumerate(np.asarray(y, dtype=float), start=1):
        if yj != 0.0:
            out += yj * term(j, x)
    return out


def a_values(problem, x, y):
    """Truncated a(x, y) with truncation dimension len(y)."""
    return series_values(problem.a0, problem.a_term, x, y)


def b_values(problem, x, y):
    """Truncated b(x, y); zero without a reaction term."""
    if not problem.has_b:
        return np.zeros(np.broadcast_shapes(*(np.shape(xi) for xi in x)))
    return series_values(problem.b0, problem.b_term, x, y)


def constant_terms(value=0.0):
    """Every term equal to ``value`` everywhere."""
    return SeparableTerms(lambda j: (value, None, np.ones_like, np.ones_like))
