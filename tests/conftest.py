import numpy as np
import pytest

from ssdkit import make_dual, product_space
from ssdkit.catalog import (
    default_grid,
    diagonal_set,
    half_sq_norm_fn,
    space_identity,
    space_swap_r3,
)


@pytest.fixture(scope="session")
def prod_space():
    """R^2 = R x R with the swap pairing and the tau=1 quadratic split norm."""
    return product_space(1, kind="two", tau=1.0)


@pytest.fixture(scope="session")
def prod_dual(prod_space):
    return make_dual(prod_space)


@pytest.fixture(scope="session")
def swap3():
    return space_swap_r3()


@pytest.fixture(scope="session")
def ident2():
    return space_identity(2)


@pytest.fixture(scope="session")
def grid61():
    return default_grid(2, -3.0, 3.0, 61)


@pytest.fixture(scope="session")
def grid121():
    return default_grid(2, -3.0, 3.0, 121)


@pytest.fixture(scope="session")
def diag121():
    return diagonal_set(-3.0, 3.0, 121)


@pytest.fixture(scope="session")
def worked_fn61(grid61):
    return half_sq_norm_fn(grid61)


@pytest.fixture(scope="session")
def worked_fn121(grid121):
    return half_sq_norm_fn(grid121)


def brute_force_conjugate(points, values, targets):
    """O(N*M) reference conjugate written as an explicit double loop."""
    out = np.empty(len(targets))
    for j, y in enumerate(targets):
        best = -np.inf
        for x, fx in zip(points, values):
            if np.isfinite(fx):
                best = max(best, float(np.dot(x, y)) - float(fx))
        out[j] = best
    return out


def greedy_dedup(pts, tol=1e-12):
    """Reference PointSet dedup: keep a row unless an earlier kept row lies
    within Chebyshev distance tol; first occurrences, original order."""
    keep = []
    for i in range(pts.shape[0]):
        if not any(np.max(np.abs(pts[i] - pts[j])) <= tol for j in keep):
            keep.append(i)
    return pts[keep].copy()

