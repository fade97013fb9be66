"""Canonical convex representers of a positive set: the dual-side support-type
function, its pullback through the canonical map, and the conjugate back on
the primal side.

Over a finite sampled set the first two are exact finite maxima; only the
conjugate-back function carries dual-grid error.  Reports distinguish the
exact claims from the grid-approximate ones.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BracketViolated, DimensionMismatch, EmptySet, GridMismatch, NotAMinorant
from .gridfn import (
    GridFn,
    Lattice,
    block_points,
    intrinsic_conjugate,
    is_vz,
    nearest,
    sup_linear_minus,
    sup_over_blocks,
)
from .grids import GridSpec, image_box
from .positivity import PointSet, is_maximally_q_positive, p_set, sets_match
from .reports import VerifyReport
from .spaces import SsdSpace, pairwise_q
from . import tolerances as tols

DUAL_INFLATION = 1.5


def _set_max(a: PointSet, sources, offsets, at) -> float | np.ndarray:
    """max_i [x . sources_i - offsets_i] at each point x of `at`: a float for
    one point, an array for rows.  EmptySet when the set `a` is empty."""
    if len(a) == 0:
        raise EmptySet("representer needs a nonempty set")
    vals, _ = sup_linear_minus(sources, offsets, np.atleast_2d(np.asarray(at, dtype=float)))
    return float(vals[0]) if np.asarray(at).ndim == 1 else vals


def theta(space: SsdSpace, a: PointSet, bstar) -> float | np.ndarray:
    """Support-type function on the dual: max over the set of <a, b*> - q(a)."""
    return _set_max(a, a.points, space.q(a.points), bstar)


def phi(space: SsdSpace, a: PointSet, b) -> float | np.ndarray:
    """Primal representer, as a finite max over the set (exact).

    Computed as max[pair(a, b) - q(a)]; `lemma_2_13_suite` checks it
    against the second formula q(b) - inf q(b - a).
    """
    return _set_max(a, a.points @ space.pairing, space.q(a.points), b)


def dual_probe_blocks(space: SsdSpace, grid: GridSpec) -> list:
    """Probe lattices on the dual side: the image box of the grid under the
    canonical map (merged with the grid itself so degenerate maps still get a
    box), inflated by `DUAL_INFLATION`, and the exact image of the grid nodes."""
    box = image_box(grid, space.pairing, inflate=DUAL_INFLATION, include_source=True)
    return [Lattice(box), Lattice(grid, space.pairing.T)]


def star_theta(space: SsdSpace, a: PointSet, probes, c) -> float | np.ndarray:
    """Conjugate of the dual-side representer back on the primal side,
    sup taken over the supplied dual probe points (an under-approximation)."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    return _set_max(a, probes, theta(space, a, probes), c)


def _require_grid_dim(space: SsdSpace, grid: GridSpec) -> None:
    if grid.dim != space.dim:
        raise DimensionMismatch(f"the space has dimension {space.dim} but the grid "
                                f"has dimension {grid.dim}")


def phi_on_grid(space: SsdSpace, a: PointSet, grid: GridSpec) -> GridFn:
    """The primal representer on the grid's nodes, `exact` off them: the
    triple's `phi_fn` alone, for checks that read no dual-side representer."""
    _require_grid_dim(space, grid)
    return GridFn._raw(
        grid, phi(space, a, grid.points()),
        exact=(lambda xs, _s=space, _a=a: phi(_s, _a, np.atleast_2d(xs))),
        form="phi")


@dataclass(frozen=True, eq=False)
class FitzTriple:
    """The three representers of a set materialized on grids."""

    a: PointSet
    space: SsdSpace
    theta_fn: GridFn          # on the dual box lattice
    phi_fn: GridFn            # on the primal grid (exact finite max)
    star_theta_fn: GridFn     # on the primal grid (dual-probe sup)
    dual_blocks: tuple        # (block, theta on it): box, image of the grid, image of the set

    @property
    def grid(self) -> GridSpec:
        """The primal grid the representers are materialized on."""
        return self.phi_fn.grid

    @property
    def dual_points(self) -> np.ndarray:
        return block_points([b for b, _ in self.dual_blocks])

    @property
    def dual_theta(self) -> np.ndarray:
        return np.concatenate([vals for _, vals in self.dual_blocks])


def fitz_triple(space: SsdSpace, a: PointSet, grid: GridSpec) -> FitzTriple:
    _require_grid_dim(space, grid)
    box, image = dual_probe_blocks(space, grid)
    theta_fn = GridFn._raw(box.grid, theta(space, a, box.points()), form="theta")
    set_image = a.points @ space.pairing.T
    dual_blocks = ((box, theta_fn.values),
                   (image, theta(space, a, image.points())),
                   (set_image, theta(space, a, set_image)))
    phi_fn = phi_on_grid(space, a, grid)
    st, _ = sup_over_blocks(dual_blocks, [Lattice(grid)])
    star_fn = GridFn._raw(grid, st, form="star_theta")
    return FitzTriple(a, space, theta_fn, phi_fn, star_fn, dual_blocks)


def lemma_2_13_suite(triple: FitzTriple) -> VerifyReport:
    """Elementary representer properties of the triple's set, checked on the
    triple's grid.

    Exact finite-max identities are held to tol_exact; inequalities whose
    sides are all evaluated as grid sups to tol_grid; the conjugate-back
    identity (the only genuinely dual-grid-limited part) to tol_conj, half
    the observed Lipschitz constant times the dual spacing.
    """
    tol_exact, tol_grid = tols.ATOL_EXACT, tols.ATOL_GRID
    space, a, grid = triple.space, triple.a, triple.grid
    pts = grid.points()
    qv = space.q(pts)
    report = VerifyReport(suite="lemma_2_13", grid=grid.to_dict(),
                          tolerances={"tol_exact": tol_exact, "tol_grid": tol_grid},
                          meta={"space": space.label, "set": a.label})

    v1 = triple.phi_fn.values
    v2 = qv - nearest(partial(pairwise_q, space), pts, a.points)[0]
    report.add_worst("a_two_formulas", "lemma_2_13a", np.abs(v1 - v2), pts, tol_exact)

    phi_on_a = phi(space, a, a.points)
    q_on_a = space.q(a.points)
    report.add_worst("b_phi_touches", "lemma_2_13b", np.abs(phi_on_a - q_on_a), a.points,
                     tol_exact)

    # sup sources augmented with the set itself so the finite-max identities
    # stay exact even when the set does not sit on grid nodes
    st_nodes = triple.star_theta_fn.values
    st_on_a, _ = sup_over_blocks(triple.dual_blocks, [a.points])
    mapped_grid = Lattice(grid, space.pairing)
    mapped_set = a.points @ space.pairing

    lip = tols.observed_lipschitz(triple.star_theta_fn.values_nd(), grid.spacing)
    tol_conj = tols.half_slope_tol(lip, triple.theta_fn.grid)
    back, _ = sup_over_blocks([(mapped_grid, st_nodes), (mapped_set, st_on_a)], [Lattice(grid)])
    report.tolerances["tol_conj"] = tol_conj
    report.add_worst("d_conjugate_back", "lemma_2_13d", np.abs(back - triple.phi_fn.values),
                     pts, tol_conj, note="dual-grid-limited identity")

    report.add_worst("e_star_below_q", "lemma_2_13e", st_on_a - q_on_a, a.points, tol_exact)

    phi_at_aug, _ = sup_over_blocks([(mapped_grid, triple.phi_fn.values), (mapped_set, phi_on_a)],
                                    [Lattice(grid), a.points])
    phi_at, phi_at_on_a = phi_at_aug[: pts.shape[0]], phi_at_aug[pts.shape[0]:]
    report.add_worst("f_sandwich_upper", "lemma_2_13f", phi_at - st_nodes, pts, tol_grid)
    report.add_worst("f_sandwich_lower", "lemma_2_13f",
                     np.maximum(triple.phi_fn.values, qv) - phi_at, pts, tol_grid)

    g_res = max(float(np.max(np.abs(st_on_a - q_on_a))),
                float(np.max(np.abs(phi_at_on_a - q_on_a))))
    report.add("g_equalities_on_set", "lemma_2_13g", g_res <= tol_grid,
               residual=g_res, note="evaluated at the set points themselves")

    mx = is_maximally_q_positive(space, a, grid)
    if mx.passed:
        report.add_worst("h_phi_dominates_q", "lemma_2_13h", qv - triple.phi_fn.values,
                         pts, tol_grid)
        h2 = float(np.max(st_on_a - q_on_a))
        report.add("h_set_in_touching", "lemma_2_13h", h2 <= tol_grid,
                   residual=max(0.0, h2),
                   note="conjugate-back representer touches q on the set")
        ok_i = True
        worst_i = 0.0
        for fn in (triple.star_theta_fn, GridFn._raw(grid, phi_at), triple.phi_fn):
            pset = p_set(fn, space)
            match, dist, _ = sets_match(space, a.points, pset.points, grid)
            ok_i &= match
            worst_i = max(worst_i, dist)
        report.add("i_touching_sets_equal", "lemma_2_13i", ok_i, residual=worst_i,
                   note="set equality up to two grid cells")
    else:
        report.add("h_phi_dominates_q", "lemma_2_13h", False, skipped=True,
                   note="set is not grid-maximal")
        report.add("i_touching_sets_equal", "lemma_2_13i", False, skipped=True,
                   note="set is not grid-maximal")
    return report


def theorem_2_15_reports(space: SsdSpace, f: GridFn, candidates) -> Iterator[VerifyReport]:
    """Sandwich inequalities around a touching function and the transfer of
    the zero inf-convolution property to anything inside the sandwich, on
    f's grid and held to ATOL_GRID: one report for each candidate h in turn
    (None: the checks on f alone), yielded as soon as its checks are done.
    The touching set, its representers and the conjugates of f and phi are
    computed once, and each report starts from its own copy of their checks."""
    grid, tol = f.grid, tols.ATOL_GRID
    a = p_set(f, space)
    if len(a) == 0:
        raise EmptySet("touching set of f is empty")
    triple = fitz_triple(space, a, grid)
    pts = grid.points()
    base = VerifyReport(suite="theorem_2_15", grid=grid.to_dict(),
                        tolerances={"tol": tol},
                        meta={"space": space.label, "fn": f.form})
    slack = tols.tol_p_membership()
    lo = triple.phi_fn.values - f.values - slack
    base.add_worst("f_above_phi", "thm_2_15_1", np.where(np.isfinite(lo), lo, -np.inf),
                   pts, tol)
    hi = f.values - triple.star_theta_fn.values - slack
    base.add_worst("f_below_star", "thm_2_15_1", np.where(np.isfinite(hi), hi, -np.inf),
                   pts, tol)
    dual_pts = triple.dual_points
    duals = [b for b, _ in triple.dual_blocks]
    f_star, _ = sup_over_blocks([(Lattice(grid), f.values), (a.points, f.evaluate(a.points))],
                                duals)
    theta_vals = triple.dual_theta
    phi_star, _ = sup_over_blocks([(Lattice(grid), triple.phi_fn.values),
                                   (a.points, phi(space, a, a.points))], duals)
    base.add_worst("fstar_above_theta", "thm_2_15_1", theta_vals - f_star - slack,
                   dual_pts, tol)
    base.add_worst("fstar_below_phistar", "thm_2_15_1", f_star - phi_star - slack,
                   dual_pts, tol)
    for h in candidates:
        report = copy.deepcopy(base)
        if h is None:
            yield report
            continue
        above = triple.phi_fn.values - h.values - slack
        below = h.values - triple.star_theta_fn.values - slack
        finite_a = np.isfinite(above)
        finite_b = np.isfinite(below)
        worst = max(float(np.max(above[finite_a], initial=-np.inf)),
                    float(np.max(below[finite_b], initial=-np.inf)))
        if worst > tol:
            raise BracketViolated(f"candidate leaves the sandwich by {worst:.3e}")
        report.add("h_in_sandwich", "thm_2_15c", True, residual=max(0.0, worst))
        vz_h = is_vz(h, space)
        report.add("h_vz", "thm_2_15c", vz_h.passed,
                   residual=vz_h.check("zero_infconv").worst_residual)
        h_at = intrinsic_conjugate(h, space)
        vz_hat = is_vz(h_at, space)
        report.add("h_conj_vz", "thm_2_15c", vz_hat.passed,
                   residual=vz_hat.check("zero_infconv").worst_residual)
        ph = p_set(h, space)
        match, dist, _ = sets_match(space, a.points, ph.points, grid)
        report.add("h_touching_equals_set", "thm_2_15c", match, residual=dist)
        yield report


def sigma_minorant_test(triple: FitzTriple, h: GridFn) -> VerifyReport:
    """One direction of the maximal-representer property: any grid-convex h
    with h <= q on the triple's set stays below the conjugate-back
    representer, up to half of (h's observed slope + 1) times the dual
    spacing.  The triple must live on h's grid."""
    if not h.grid.same(triple.grid):
        raise GridMismatch("h and the representer triple must share a grid")
    space, a = triple.space, triple.a
    hq = h.evaluate(a.points) - space.q(a.points)
    worst_on_a = float(np.max(hq))
    if worst_on_a > tols.tol_p_membership():
        raise NotAMinorant(f"h exceeds q on the set by {worst_on_a:.3e}")
    lip = tols.observed_lipschitz(h.values_nd(), h.grid.spacing)
    tol = tols.half_slope_tol(lip + 1.0, triple.theta_fn.grid)
    gap = h.values - triple.star_theta_fn.values
    report = VerifyReport(suite="sigma_minorant", grid=h.grid.to_dict(),
                          tolerances={"tol": tol},
                          meta={"space": space.label, "set": a.label})
    report.add_worst("minorant_below_star", "thm_2_16",
                     np.where(np.isfinite(gap), gap, -np.inf), h.grid.points(), tol)
    return report


def remark_2_14_gap(triple: FitzTriple) -> tuple[float, np.ndarray]:
    """Observed max of (conjugate-back representer - pullback-conjugate of the
    primal representer) on the triple's grid; strictly positive in the
    zero-pairing counterexample, merely recorded elsewhere."""
    phi_at = intrinsic_conjugate(triple.phi_fn, triple.space)
    gap = triple.star_theta_fn.values - phi_at.values
    i = int(np.argmax(gap))
    return float(gap[i]), triple.grid.points()[i]
