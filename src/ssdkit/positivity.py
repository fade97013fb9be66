"""Nonnegative-gap sets: pairwise positivity, touching sets, density, and the
certificate-carrying projection iteration.

All maximality and density claims are grid-relative: the candidate grid and
the tolerances that scope the claim are recorded in every report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    EmptySet,
    EpsilonOutOfRange,
    FBelowQ,
    NotVZ,
    PreconditionFailed,
    StepInfeasible,
)
from .gridfn import GridFn, is_vz, min_values_plus_gauge, nearest
from .grids import GridSpec
from .reports import VerifyReport
from .spaces import SsdSpace, _SQRT2, _as_points, pairwise_norm, pairwise_p, pairwise_q
from . import tolerances as tols


@dataclass(frozen=True, eq=False)
class PointSet:
    """Finite list of points standing in for a set; duplicates are dropped."""

    points: np.ndarray
    label: str = ""
    allow_empty: bool = False

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[1] if pts.ndim == 2 and pts.shape[1] else 1)
            if not self.allow_empty:
                raise EmptySet("point set must be nonempty")
        else:
            if not np.all(np.isfinite(pts)):
                raise ValueError("points must be finite")
            pts = _dedup(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def to_csv(self, path):
        header = f"label: {self.label}" if self.label else ""
        np.savetxt(path, self.points, delimiter=",", header=header)

    @classmethod
    def from_csv(cls, path, label=""):
        pts = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(pts, label=label)


def _dedup(pts):
    """Drop every row within Chebyshev distance `tol` = 1e-12 of an earlier
    kept row.

    The first occurrence survives and the order is kept.  Exact duplicates
    go by a sort; rows left with a distinct neighbour within `tol` (found by
    a window on the sorted first column) go by the greedy first-kept rule.
    """
    tol = 1e-12
    _, first = np.unique(pts, axis=0, return_index=True)
    rows = pts[np.sort(first)]
    near = np.zeros(rows.shape[0], dtype=bool)
    order = np.argsort(rows[:, 0], kind="stable")
    col = rows[order, 0]
    for lag in range(1, rows.shape[0]):
        alive = np.flatnonzero(col[lag:] - col[:-lag] <= tol)
        if alive.size == 0:
            break
        i, j = order[alive], order[alive + lag]
        close = np.max(np.abs(rows[i] - rows[j]), axis=1) <= tol
        near[i[close]] = True
        near[j[close]] = True
    drop = np.zeros(rows.shape[0], dtype=bool)
    kept = []
    for i in np.flatnonzero(near):
        if kept and np.any(np.max(np.abs(rows[kept] - rows[i]), axis=1) <= tol):
            drop[i] = True
        else:
            kept.append(i)
    return rows[~drop]


def _hausdorff(a_rows, b_rows, pairwise):
    """Symmetric Hausdorff distance of two row sets under `pairwise(a, b)`,
    the matrix of distances from each a row to each b row, and the row
    farthest from the other set: the worst a row missing from b, or else the
    worst extra b row (None when a set is empty).  Each side is one
    `nearest` scan, so `pairwise` also runs as pairwise(b, a)."""
    a = np.atleast_2d(np.asarray(a_rows, dtype=float))
    b = np.atleast_2d(np.asarray(b_rows, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        return (0.0 if a.shape[0] == b.shape[0] else np.inf), None
    missing, _ = nearest(pairwise, a, b)
    extra, _ = nearest(pairwise, b, a)
    if np.max(missing) >= np.max(extra):
        return float(np.max(missing)), a[int(np.argmax(missing))]
    return float(np.max(extra)), b[int(np.argmax(extra))]


def sets_match(space: SsdSpace, a_rows, b_rows,
               grid: GridSpec) -> tuple[bool, float, np.ndarray | None]:
    """Symmetric Hausdorff comparison in the space norm of two sets sampled on
    `grid`, up to its `tols.set_radius`: (verdict, distance, farthest row)."""
    haus, far = _hausdorff(a_rows, b_rows, partial(pairwise_norm, space))
    return haus <= tols.set_radius(space, grid), haus, far


# -- positivity ------------------------------------------------------------------

def is_q_positive(space: SsdSpace, a: PointSet, tol: float = tols.ATOL_CLOSED) -> VerifyReport:
    """Pairwise test q(b - c) >= -tol; failure reports the worst pair.

    The min over pairs i < j runs through `nearest`, with each row's index
    carried as a trailing column so the block kernel can mask j <= i; the
    worst pair is the lowest (i, j) among equal minima."""
    if len(a) == 0:
        raise EmptySet("q-positivity needs a nonempty set")
    report = VerifyReport(suite="is_q_positive", tolerances={"tol": tol},
                          meta={"space": space.label, "set": a.label, "n": len(a)})
    if len(a) == 1:
        report.add("pairwise_gap", "def_1_2", True, residual=0.0,
                   note="singleton: q(0) = 0")
        report.meta["min_pairwise_q"] = 0.0
        return report

    def upper(x, y):  # q(x_i - y_j), +inf where j <= i
        vals = pairwise_q(space, x[:, :-1], y[:, :-1])
        vals[y[None, :, -1] <= x[:, -1, None]] = np.inf
        return vals

    rows = np.column_stack([a.points, np.arange(len(a))])
    vals, cols = nearest(upper, rows, rows)
    i = int(np.argmin(vals))
    worst = float(vals[i])
    pair = [a.points[i], a.points[cols[i]]]
    report.add("pairwise_gap", "def_1_2", worst >= -tol,
               residual=max(0.0, -worst), witness=pair)
    report.meta["min_pairwise_q"] = worst
    return report


def is_maximally_q_positive(space: SsdSpace, a: PointSet,
                            candidate_grid: GridSpec) -> VerifyReport:
    """Grid-relative maximality: no candidate node farther than dist_tol (two
    grid cells) from the set extends it (pairwise gaps all >= -q_tol against
    the set)."""
    if len(a) == 0:
        raise EmptySet("maximality needs a nonempty set")
    q_tol = tols.ATOL_CLOSED
    dist_tol = tols.set_radius(space, candidate_grid)
    pts = candidate_grid.points()
    dists, _ = nearest(partial(pairwise_norm, space), pts, a.points)
    outside = dists > dist_tol
    report = VerifyReport(suite="is_maximally_q_positive",
                          grid=candidate_grid.to_dict(),
                          tolerances={"q_tol": q_tol, "dist_tol": dist_tol},
                          meta={"space": space.label, "set": a.label,
                                "claim": "maximal relative to this grid only"})
    if not np.any(outside):
        report.add("no_extension_on_grid", "def_1_2", True, residual=0.0,
                   note="every candidate is within dist_tol of the set")
        return report
    gaps, _ = nearest(partial(pairwise_q, space), pts[outside], a.points)
    extenders = gaps >= -q_tol
    n_ext = int(np.count_nonzero(extenders))
    witness = pts[outside][extenders][:5] if n_ext else None
    report.add("no_extension_on_grid", "def_1_2", n_ext == 0,
               residual=float(n_ext), witness=witness,
               note=f"{n_ext} extension candidates among {int(outside.sum())} probed")
    return report


def p_set(f: GridFn, space: SsdSpace, label: str = "") -> PointSet:
    """Grid nodes where f touches q (gap <= tol_p_membership()); may be empty.

    Requires f >= q - tol_p on the whole grid.
    """
    tol_p = tols.tol_p_membership()
    pts = f.grid.points()
    gap = f.values - space.q(pts)
    mn = float(np.min(gap))
    if mn < -tol_p:
        raise FBelowQ(f"min(f - q) = {mn:.3e} < -{tol_p:.1e}")
    sel = gap <= tol_p
    return PointSet(pts[sel], label=label or "touching set", allow_empty=True)


def p_dense_check(space: SsdSpace, a: PointSet, c_grid: GridSpec,
                  tol_density: float | None = None) -> VerifyReport:
    """min over the set of p(c - a) <= tol for every grid c; worst c reported.

    The default tolerance is the one-cell variation of p, the best a sampled
    set can achieve.
    """
    if len(a) == 0:
        raise EmptySet("density check needs a nonempty set")
    if tol_density is None:
        tol_density = max(tols.DENSITY_TOL, tols.one_cell_p_bound(space, c_grid))
    pts = c_grid.points()
    best, _ = nearest(partial(pairwise_p, space), pts, a.points)
    report = VerifyReport(suite="p_dense_check", grid=c_grid.to_dict(),
                          tolerances={"tol_density": tol_density},
                          meta={"space": space.label, "set": a.label})
    report.add_worst("gauge_density", "def_2_6", best, pts, tol_density)
    return report


# -- projection with certificates ---------------------------------------------------

@dataclass
class ProjectionTrace:
    """Iterates of the certified descent toward the touching set.

    Step n must satisfy (f - q)(b_n) + p(b_{n-1} - b_n) <= lam^(2n) * alpha^2
    with lam = eps/(3 + eps); certificates are stored so they can be rechecked
    from the iterates alone.
    """

    start: np.ndarray
    epsilon: float
    alpha: float
    iterates: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    limit: np.ndarray | None = None
    achieved_distance: float = 0.0

    @property
    def lam(self) -> float:
        return self.epsilon / (3.0 + self.epsilon)

    def bound(self) -> float:
        """Distance bound (1 + eps) * sqrt(2) * alpha implied by the certificates."""
        return (1.0 + self.epsilon) * _SQRT2 * self.alpha

    def to_dict(self):
        return {
            "start": self.start.tolist(),
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "lambda": self.lam,
            "iterates": [b.tolist() for b in self.iterates],
            "certificates": self.certificates,
            "limit": None if self.limit is None else self.limit.tolist(),
            "achieved_distance": self.achieved_distance,
            "distance_bound": self.bound(),
        }


def project_to_p(f: GridFn, space: SsdSpace, c, epsilon: float,
                 stop_tol: float | None = None) -> ProjectionTrace:
    """Certified grid descent from c toward the touching set of f.

    Each step minimizes (f - q)(b) + p(prev - b) over the grid and must meet
    the geometric certificate; the loop stops once the certificate target
    drops below stop_tol (default: the one-cell variation of p, below which a
    grid step cannot certify) or after 60 steps.  Raises StepInfeasible when
    the grid cannot meet a target above that floor.  The gap of f - q must
    close to within `tol_p_membership()`.
    """
    if not (0.0 < epsilon < 1.0):
        raise EpsilonOutOfRange("epsilon must lie strictly between 0 and 1")
    tol_p = tols.tol_p_membership()
    cc, _ = _as_points(c, space.dim)
    c0 = cc[0]
    nodes = f.grid.points()
    fq = f.values - space.q(nodes)
    gap_inf = float(np.min(fq))
    if gap_inf < -tol_p:
        raise NotVZ("f dips below q; zero inf-convolution cannot hold")
    if gap_inf > tol_p:
        raise NotVZ(f"inf(f - q) = {gap_inf:.3e} never closes; "
                    "zero inf-convolution cannot hold")
    fc = float(f.evaluate(c0)[0]) if f.exact is not None else float(f.values[f.grid.nearest_index(c0)])
    qc = space.q(c0)
    alpha2 = max(0.0, fc - qc)
    trace = ProjectionTrace(start=c0.copy(), epsilon=epsilon, alpha=float(np.sqrt(alpha2)))
    if stop_tol is None:
        stop_tol = max(1e-12, tols.one_cell_p_bound(space, f.grid))
    if alpha2 <= tol_p:
        trace.iterates.append(c0.copy())
        trace.limit = c0.copy()
        trace.achieved_distance = 0.0
        return trace
    lam2 = trace.lam**2
    prev = c0
    target = alpha2
    for n in range(1, 61):
        target *= lam2
        if target < stop_tol:
            break
        vals, args = min_values_plus_gauge(space, fq, nodes, prev[None, :])
        best = float(vals[0])
        if best > target:
            raise StepInfeasible(
                f"step {n}: grid best {best:.3e} exceeds certificate {target:.3e}",
                trace=trace, best=best)
        b = nodes[int(args[0])]
        trace.iterates.append(b.copy())
        trace.certificates.append({
            "step": n,
            "target": target,
            "achieved": best,
            "gap_term": float(fq[int(args[0])]),
            "p_term": float(space.p(prev - b)),
        })
        prev = b
    trace.limit = prev.copy()
    trace.achieved_distance = float(space.norm(c0 - prev))
    return trace


def recheck_trace(trace: ProjectionTrace, f: GridFn, space: SsdSpace) -> VerifyReport:
    """Re-derive every certificate from the recorded iterates alone."""
    report = VerifyReport(suite="recheck_trace",
                          tolerances={"float_slack": 1e-12},
                          meta={"epsilon": trace.epsilon, "alpha": trace.alpha})
    lam2 = trace.lam**2
    prev = trace.start
    target = trace.alpha**2
    ok_all = True
    worst = 0.0
    for n, b in enumerate(trace.iterates, start=1):
        if trace.alpha == 0.0:
            break
        target *= lam2
        idx = f.grid.nearest_index(b)
        val = float(f.values[idx] - space.q(b) + space.p(prev - b))
        excess = val - target
        worst = max(worst, excess)
        ok_all &= excess <= 1e-12
        prev = b
    report.add("per_step_certificates", "lemma_2_7a", ok_all, residual=max(0.0, worst),
               note=f"{len(trace.iterates)} steps rechecked")
    if trace.limit is not None:
        d = float(space.norm(trace.start - trace.limit))
        bound = trace.bound()
        report.add("distance_bound", "eq_2_7_2", d <= bound + 1e-12,
                   residual=max(0.0, d - bound),
                   note=f"distance {d:.4f} vs bound {bound:.4f}")
    return report


def dist_bounds_check(f: GridFn, space: SsdSpace, c_grid: GridSpec) -> VerifyReport:
    """Distance-to-touching-set bounds with the sharpness ratio probe.

    Checks dist(c, P) <= sqrt(2) sqrt(-inf q(c - P)) + slack and
    dist(c, P) <= sqrt(2) sqrt((f - q)(c)), plus the chain
    -inf q(c - P) <= (f - q)(c).  Records max dist / sqrt(-inf q) over
    candidates whose denominator clears ratio_floor, 4 squared slacks.
    The gap terms are held to ATOL_GRID.
    """
    p = p_set(f, space)
    if len(p) == 0:
        raise PreconditionFailed("touching set is empty")
    tol = tols.ATOL_GRID
    slack = tols.set_radius(space, c_grid)
    pts = c_grid.points()
    dists, _ = nearest(partial(pairwise_norm, space), pts, p.points)
    inf_q, _ = nearest(partial(pairwise_q, space), pts, p.points)
    neg_inf_q = np.maximum(0.0, -inf_q)
    fq = f.evaluate(pts) - space.q(pts)
    report = VerifyReport(suite="dist_bounds_check", grid=c_grid.to_dict(),
                          tolerances={"tol": tol, "cell_slack": slack},
                          meta={"space": space.label, "touching_n": len(p)})
    report.add_worst("dist_vs_gap", "eq_2_7_1",
                     dists - (_SQRT2 * np.sqrt(np.maximum(fq, 0.0)) + tol), pts)
    report.add_worst("dist_vs_infq", "thm_2_9a",
                     dists - (_SQRT2 * np.sqrt(neg_inf_q) + slack), pts,
                     note="additive slack of two grid cells for the sampled set")
    report.add_worst("infq_below_gap", "remark_2_17",
                     neg_inf_q - (np.maximum(fq, 0.0) + tol), pts)
    ratio_floor = 4.0 * slack**2
    valid = neg_inf_q >= ratio_floor
    if np.any(valid):
        ratios = dists[valid] / np.sqrt(neg_inf_q[valid])
        report.meta["max_ratio"] = float(np.max(ratios))
        report.meta["min_ratio"] = float(np.min(ratios))
        report.meta["ratio_floor"] = ratio_floor
    return report


def lemma_2_8_suite(space: SsdSpace, a: PointSet, h: GridFn, c_grid: GridSpec) -> VerifyReport:
    """Consequences of density + positivity for a sampled set.

    Preconditions (density, positivity) are themselves verified and the run
    refuses when they fail.  Checks the nonpositive infimum of q over the
    set (to the one-cell p bound, recorded as `tol`), the distance bound, the
    induced zero inf-convolution for any h >= q touching on the set, and grid
    maximality.
    """
    pos = is_q_positive(space, a)
    dense = p_dense_check(space, a, c_grid)
    if not (pos.passed and dense.passed):
        raise PreconditionFailed("set is not a grid-verified dense positive set")
    tol = tols.one_cell_p_bound(space, c_grid)
    slack = tols.set_radius(space, c_grid)
    pts = c_grid.points()
    report = VerifyReport(suite="lemma_2_8", grid=c_grid.to_dict(),
                          tolerances={"tol": tol, "cell_slack": slack},
                          meta={"space": space.label, "set": a.label})
    inf_q, _ = nearest(partial(pairwise_q, space), pts, a.points)
    report.add_worst("infq_nonpositive", "lemma_2_8a", inf_q, pts, tol,
                     note="one-cell slack for the sampled set")
    dists, _ = nearest(partial(pairwise_norm, space), pts, a.points)
    report.add_worst("dist_bound", "lemma_2_8a",
                     dists - (_SQRT2 * np.sqrt(np.maximum(0.0, -inf_q)) + slack), pts)
    hq = h.values - space.q(h.grid.points())
    above = float(np.min(hq)) >= -tols.tol_p_membership()
    touch = p_set(h, space) if above else None
    covers = False
    if touch is not None and len(touch):
        near, _ = nearest(partial(pairwise_norm, space), a.points, touch.points)
        covers = bool(np.max(near) <= slack)
    if above and covers:
        vz = is_vz(h, space, c_grid=c_grid)
        report.add("induced_vz", "lemma_2_8b", vz.passed,
                   residual=vz.check("zero_infconv").worst_residual)
    else:
        report.add("induced_vz", "lemma_2_8b", False, skipped=True,
                   note="h does not dominate q or does not touch on the set")
    mx = is_maximally_q_positive(space, a, c_grid)
    report.add("grid_maximality", "lemma_2_8c", mx.passed,
               residual=mx.checks[0].worst_residual)
    return report
