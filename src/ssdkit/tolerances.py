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


def cell_norm(space, grid) -> float:
    """Largest norm of a single-axis grid step."""
    steps = np.diag(grid.spacing) if grid.dim > 1 else np.array([[grid.spacing[0]]])
    return float(np.max(space.norm(steps)))


def set_radius(space, grid) -> float:
    """Two grid cells in the space norm: the Hausdorff distance up to which
    two sets sampled on the grid match (`positivity.sets_match`)."""
    return 2.0 * cell_norm(space, grid)


def one_cell_p_bound(space, grid) -> float:
    """Max of p over all one-cell offsets; the floor for grid-search certificates."""
    h = grid.spacing
    offsets = np.array([off for off in _neighbor_offsets(grid.dim)], dtype=float) * h
    return float(np.max(space.p(offsets)))


def one_cell_q_dip(space, grid) -> float:
    """Worst negative excursion of q over one-cell offsets.

    Touching sets extracted at grid resolution are fattened by up to a cell,
    so their pairwise products can dip this far below zero.
    """
    h = grid.spacing
    offsets = np.array([off for off in _neighbor_offsets(grid.dim)], dtype=float) * h
    return float(np.max(np.maximum(-space.q(offsets), 0.0)))


def touching_positivity_tol(space, grid) -> float:
    """Pairwise-product tolerance for a tol_p-fattened touching set: twice the
    two membership gaps plus the dip of a two-cell relative offset."""
    return 4.0 * tol_p_membership() + 4.0 * one_cell_q_dip(space, grid)


def _neighbor_offsets(dim):
    grids = np.meshgrid(*([[-1, 0, 1]] * dim), indexing="ij")
    all_off = np.stack([g.ravel() for g in grids], axis=1)
    return all_off[np.any(all_off != 0, axis=1)]
