"""Built-in spaces, sets, and functions used by the verification suites.

Everything here is deterministic.  The sets paired with a grid take it and
are `MonotoneSet`s, so they go to every `PointSet` routine as they are:
`monotone_graph_set`, `cubic_graph_set` and `sign_graph_set` snap to its
axes, and `diagonal_set` holds every diagonal node, so touching-set
recovery is exact.  `helix_set` and `ray_set` are fixed samples that know
no grid.
"""

from __future__ import annotations

import numpy as np

from .fitzpatrick import fitz_triple
from .gridfn import GridFn
from .grids import GridSpec
from .monotone import MonotoneSet
from .positivity import PointSet
from .spaces import EUCLIDEAN, NormSpec, SsdSpace, product_space


# -- spaces ---------------------------------------------------------------------

def space_identity(dim: int = 2) -> SsdSpace:
    return SsdSpace(np.eye(dim), NormSpec(EUCLIDEAN), label=f"identity pairing R^{dim}")


def space_negated(dim: int = 2) -> SsdSpace:
    return SsdSpace(-np.eye(dim), NormSpec(EUCLIDEAN), label=f"negated pairing R^{dim}")


def space_swap_r3() -> SsdSpace:
    m = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return SsdSpace(m, NormSpec(EUCLIDEAN), label="R^3 with first-two-swap pairing")


def space_zero_pairing(dim: int = 2) -> SsdSpace:
    return SsdSpace(np.zeros((dim, dim)), NormSpec(EUCLIDEAN),
                    label=f"zero pairing R^{dim}")


def space_r2_product(kind: str = "two", tau: float = 1.0, scale: float = 1.0) -> SsdSpace:
    return product_space(1, kind=kind, tau=tau, scale=scale)


def space_nodual() -> SsdSpace:
    return product_space(1, kind="two", tau=1.0, scale=2.0,
                         label="product R^2, doubled norm (no dual)")


def all_special_spaces() -> list[SsdSpace]:
    """The nine split-norm planes: each kind with tau in {0.5, 1, 2}."""
    return [space_r2_product(kind, tau) for kind in ("one", "two", "inf")
            for tau in (0.5, 1.0, 2.0)]


# -- grids ----------------------------------------------------------------------

def default_grid(dim: int = 2, lo: float = -3.0, hi: float = 3.0, n: int = 61) -> GridSpec:
    return GridSpec.box(lo, hi, n, dim)


# -- sets -----------------------------------------------------------------------

def diagonal_set(grid: GridSpec) -> MonotoneSet:
    """The diagonal sampled with 2n - 1 points on the first axis of an
    n-point grid: every diagonal node and the midpoints between them."""
    t = np.linspace(grid.lower[0], grid.upper[0], int(grid.num[0]) * 2 - 1)
    return MonotoneSet(np.stack([t, t], axis=1), label="diagonal")


def singleton_origin(dim: int = 2) -> PointSet:
    return PointSet(np.zeros((1, dim)), label="origin singleton")


def helix_set(pitch: float = 1.0, n: int = 200, span: float = 10.0) -> PointSet:
    theta = np.linspace(-span, span, n)
    pts = np.stack([np.cos(theta), np.sin(theta), pitch * theta], axis=1)
    return PointSet(pts, label=f"helix (pitch {pitch:g})")


def ray_set() -> PointSet:
    """81 points of the line through the origin along (1, -1, 2), t in [-2, 2]."""
    t = np.linspace(-2.0, 2.0, 81)
    return PointSet(t[:, None] * np.array([1.0, -1.0, 2.0])[None, :],
                    label="sampled line through the origin")


def _snap(values, axis):
    h = axis[1] - axis[0]
    snapped = axis[0] + np.round((values - axis[0]) / h) * h
    return np.clip(snapped, axis[0], axis[-1])


def monotone_graph_set(grid: GridSpec, fn, label: str = "monotone graph") -> MonotoneSet:
    """Grid-maximal staircase completion of the graph of a nondecreasing map.

    Values are clipped to the box and snapped to the second axis; vertical
    jumps between consecutive samples are filled at the right endpoint, and
    the two box edges get their normal-cone rays (the box is the universe, so
    the desk-scale operator is the one with the box indicator added).
    """
    ax0, ax1 = grid.axes()[0], grid.axes()[1]
    ys = _snap(np.clip(np.asarray(fn(ax0), dtype=float), ax1[0], ax1[-1]), ax1)
    pts = [np.stack([ax0, ys], axis=1)]
    lo_fill = ax1[ax1 <= ys[0] + 1e-12]
    pts.append(np.stack([np.full(lo_fill.size, ax0[0]), lo_fill], axis=1))
    hi_fill = ax1[ax1 >= ys[-1] - 1e-12]
    pts.append(np.stack([np.full(hi_fill.size, ax0[-1]), hi_fill], axis=1))
    for i in range(1, ax0.size):
        jump = ax1[(ax1 > ys[i - 1]) & (ax1 < ys[i])]
        if jump.size:
            pts.append(np.stack([np.full(jump.size, ax0[i]), jump], axis=1))
    return MonotoneSet(np.vstack(pts), label=label)


def cubic_graph_set(grid: GridSpec) -> MonotoneSet:
    """Grid-maximal graph of t -> t^3 clipped to the box."""
    return monotone_graph_set(grid, lambda t: t**3, label="clipped cubic graph")


def sign_graph_set(grid: GridSpec) -> MonotoneSet:
    """Grid-maximal graph of the sign multifunction: vertical segment at 0,
    horizontal branches at the axis nodes nearest -1 and +1 (so the segment
    meets them where +-1 is not a node), and the box-edge normal-cone rays."""
    ax0, ax1 = grid.axes()[0], grid.axes()[1]
    lo, hi = ax1[np.argmin(np.abs(ax1 + 1.0))], ax1[np.argmin(np.abs(ax1 - 1.0))]
    left = np.stack([ax0[ax0 < 0], np.full(np.sum(ax0 < 0), lo)], axis=1)
    right = np.stack([ax0[ax0 > 0], np.full(np.sum(ax0 > 0), hi)], axis=1)
    seg_vals = ax1[(ax1 >= lo) & (ax1 <= hi)]
    seg = np.stack([np.zeros(seg_vals.size), seg_vals], axis=1)
    lo_ray_vals = ax1[ax1 <= lo]
    lo_ray = np.stack([np.full(lo_ray_vals.size, ax0[0]), lo_ray_vals], axis=1)
    hi_ray_vals = ax1[ax1 >= hi]
    hi_ray = np.stack([np.full(hi_ray_vals.size, ax0[-1]), hi_ray_vals], axis=1)
    return MonotoneSet(np.vstack([lo_ray, left, seg, right, hi_ray]), label="sign graph")


# -- grid functions ---------------------------------------------------------------

def half_sq_norm_fn(grid: GridSpec) -> GridFn:
    """f(x) = |x|^2 / 2 (the worked product-space example)."""
    return GridFn.from_callable(
        grid, lambda pts: 0.5 * np.sum(np.atleast_2d(pts) ** 2, axis=1),
        form="half squared norm")


def q_plus_const_fn(space: SsdSpace, grid: GridSpec, const: float = 1.0) -> GridFn:
    """f = q + const; nonconvex whenever q is indefinite, kept as a negative
    control for the representability predicates."""
    return GridFn.from_callable(
        grid, lambda pts: space.q(np.atleast_2d(pts)) + const,
        form=f"pairing form plus {const:g}", require_convex=False)


def double_well_fn(grid: GridSpec) -> GridFn:
    """1-D nonconvex double well (x^2 - 1)^2."""
    return GridFn.from_callable(
        grid, lambda pts: (np.atleast_2d(pts)[:, 0] ** 2 - 1.0) ** 2,
        form="double well", require_convex=False)


def vz_catalog(space: SsdSpace, grid: GridSpec):
    """The four-function verdict catalog: worked example (pass), shifted
    pairing form (fail), and the two diagonal representers (pass)."""
    triple = fitz_triple(space, diagonal_set(grid), grid)
    return {
        "worked_example": half_sq_norm_fn(grid),
        "shifted_pairing_form": q_plus_const_fn(space, grid),
        "phi_diagonal": triple.phi_fn,
        "star_theta_diagonal": triple.star_theta_fn,
    }
