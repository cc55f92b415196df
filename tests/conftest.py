import numpy as np
import pytest

from mlqmc_eig import (
    default_generating_vector,
    mass_interior,
    problem1,
    problem2,
    stiffness_interior,
    two_grid_fine_update,
)
from mlqmc_eig.eigensolver import smallest_eigenpair


def _two_grid(problem, y, coarse, fine):
    """Two-grid eigenvalue and eigenvector at y, as a telescoped sample makes
    them: a cold eigensolve on the coarse pair (mesh, S), then the fine update
    on (mesh, s).  Returns the fine (lam, u)."""
    (coarse_mesh, coarse_s), (fine_mesh, s) = coarse, fine
    y = np.asarray(y, dtype=float)
    pair, _ = smallest_eigenpair(stiffness_interior(coarse_mesh, problem, y[:coarse_s]),
                                 mass_interior(coarse_mesh, problem))
    lam, u, _ = two_grid_fine_update(problem, y, coarse_mesh, pair, fine_mesh, s)
    return lam, u


@pytest.fixture(scope="session")
def two_grid():
    return _two_grid


@pytest.fixture(scope="session")
def zvec():
    return default_generating_vector()


@pytest.fixture(scope="session")
def prob1():
    return problem1(2.0)


@pytest.fixture(scope="session")
def prob2():
    return problem2(2.0, 2.0, 2.0, 2.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
