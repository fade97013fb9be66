"""Default tolerances and the grid-scaled variants derived from them.

Closed-form arithmetic is held to ATOL_CLOSED; anything routed through a grid
sup/inf or interpolation gets ATOL_GRID or a spacing-scaled bound.  Every
battery records the values it actually used.
"""

from __future__ import annotations

import numpy as np

ATOL_CLOSED = 1e-9
ATOL_GRID = 1e-6
ATOL_EXACT = 1e-12

# membership tolerance for touching sets: 10x the grid tolerance
TOL_P_FACTOR = 10.0

# inf-convolution residual bound: factor * observed Lipschitz * spacing.
# Kinked gauges (the max-type split norms) make the grid infimum converge
# only linearly in the spacing, so the full Lipschitz scale is needed.
VZ_LIP_FACTOR = 1.0

DENSITY_TOL = 1e-6


def tol_p_membership() -> float:
    return TOL_P_FACTOR * ATOL_GRID


def observed_lipschitz(values: np.ndarray, spacing) -> float:
    """Max forward-difference slope along each axis, finite entries only."""
    vals = np.asarray(values, dtype=float)
    spacing = np.atleast_1d(spacing)
    worst = 0.0
    with np.errstate(invalid="ignore"):
        for ax in range(vals.ndim):
            d = np.diff(vals, axis=ax)
            d = d[np.isfinite(d)]
            if d.size:
                worst = max(worst, float(np.max(np.abs(d))) / spacing[ax])
    return worst


def vz_tolerance(fn) -> float:
    """Spacing-scaled residual bound for zero inf-convolution checks."""
    lip = observed_lipschitz(fn.values_nd(), fn.grid.spacing)
    h = float(np.max(fn.grid.spacing))
    return max(1e-8, VZ_LIP_FACTOR * lip * h)


def half_slope_tol(lip: float, dual_grid) -> float:
    """Half an observed slope times the largest dual-grid spacing: how far a
    grid sup over `dual_grid` can fall short of the sup it samples."""
    return max(ATOL_GRID, 0.5 * lip * float(np.max(dual_grid.spacing)))


def cell_norm(space, grid) -> float:
    """Largest norm of a single-axis grid step."""
    return float(np.max(space.norm(np.diag(grid.spacing))))


def set_radius(space, grid) -> float:
    """Two grid cells in the space norm: the Hausdorff distance up to which
    two sets sampled on the grid match (`positivity.sets_match`), the reach
    of grid maximality and the slack of the sampled distance chains."""
    return 2.0 * cell_norm(space, grid)


def one_cell_p_bound(space, grid) -> float:
    """Max of p over all one-cell offsets; the floor for grid-search certificates."""
    return float(np.max(space.p(_one_cell_offsets(grid))))


def one_cell_q_dip(space, grid) -> float:
    """Worst negative excursion of q over one-cell offsets.

    Touching sets extracted at grid resolution are fattened by up to a cell,
    so their pairwise products can dip this far below zero.
    """
    return float(np.max(np.maximum(-space.q(_one_cell_offsets(grid)), 0.0)))


def touching_positivity_tol(space, grid) -> float:
    """Pairwise-product tolerance for a tol_p-fattened touching set: twice the
    two membership gaps plus the dip of a two-cell relative offset."""
    return 4.0 * tol_p_membership() + 4.0 * one_cell_q_dip(space, grid)


def _one_cell_offsets(grid):
    """The 3^d - 1 nonzero offsets of at most one step along each axis."""
    steps = np.meshgrid(*([[-1, 0, 1]] * grid.dim), indexing="ij")
    off = np.stack([g.ravel() for g in steps], axis=1)
    return off[np.any(off != 0, axis=1)].astype(float) * grid.spacing
