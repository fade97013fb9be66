"""Product-space specialization: monotone sets of pairs (x, x*), classical
Fitzpatrick notation, the nonpositive-infimum condition on the dual side,
strong representability, and the negative-alignment extraction.

A set of pairs is monotone exactly when it is positive for the swap pairing,
so a `MonotoneSet` is a `PointSet`: it goes straight to the general
machinery, and only adds the even-dimension check and the halves x, x*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .duality import theorem_4_10_battery
from .errors import DimensionMismatch, EmptySet, FBelowQ, PreconditionFailed
from .fitzpatrick import FitzTriple
from .gridfn import GridFn, is_mas, nearest
from .grids import GridSpec
from .kernels import _OnDifferences
from .positivity import PointSet, _hausdorff, is_q_positive, p_set, sets_match
from .reports import VerifyReport
from .spaces import SsdSpace, _SQRT2, pairwise_q, pairwise_sq_dists
from . import tolerances as tols


@dataclass(frozen=True, eq=False)
class MonotoneSet(PointSet):
    """Finite sample of a monotone set in R^n x R^n: a `PointSet` of even
    dimension whose rows are pairs (x, x*)."""

    def __post_init__(self):
        super().__post_init__()
        if self.dim % 2:
            raise DimensionMismatch("monotone sets need an even coordinate count")

    @property
    def n(self):
        """The dimension of each half, x and x*."""
        return self.dim // 2

    @property
    def x(self):
        return self.points[:, : self.n]

    @property
    def xstar(self):
        return self.points[:, self.n:]


def mf_set(f: GridFn, space: SsdSpace) -> MonotoneSet:
    """Grid pairs where f meets the duality product; monotone by construction.

    Membership within tol_p plus one-cell fattening bounds how far pairwise
    products can dip; the monotonicity recheck runs at that tolerance.
    """
    ps = p_set(f, space, label="represented set")
    if len(ps):
        rep = is_q_positive(space, ps, tol=tols.touching_positivity_tol(space, f.grid))
        if not rep.passed:
            raise FBelowQ("touching set of f is not monotone (f dips below the product)")
    return MonotoneSet(ps.points, label=ps.label, allow_empty=True)


def type_ni_check(space: SsdSpace, a: MonotoneSet, grid: GridSpec) -> VerifyReport:
    """Nonpositive infimum over the set at every dual probe point, up to
    ATOL_GRID.

    Desk-scale reading: the bidual is the primal space, so probes run over
    the image of the grid's nodes.
    """
    if len(a) == 0:
        raise EmptySet("need a nonempty monotone set")
    tol = tols.ATOL_GRID
    probes = grid.points() @ space.pairing.T
    gaps, _ = nearest(partial(pairwise_q, space.dual), probes,
                      a.points @ space.pairing.T)
    report = VerifyReport(suite="type_ni_check",
                          tolerances={"tol": tol},
                          meta={"space": space.label, "set": a.label,
                                "reading": "bidual identified with the primal space"})
    report.add_worst("nonpositive_infimum", "def_5_7", gaps, probes, tol)
    return report


def strongly_representable_check(a: MonotoneSet, f: GridFn, space: SsdSpace) -> VerifyReport:
    """f is a two-sided minorant and its touching set recovers the sample."""
    mas = is_mas(f, space)
    touch = mf_set(f, space)
    match, dist, far = sets_match(space, a.points, touch.points, f.grid)
    report = VerifyReport(suite="strongly_representable", grid=f.grid.to_dict(),
                          tolerances={**mas.tolerances,
                                      "set_radius": tols.set_radius(space, f.grid)},
                          meta={"space": space.label, "fn": f.form})
    report.checks += mas.checks
    report.add("represents_the_set", "def_5_7", match, residual=dist,
               witness=None if match else far,
               note="set equality up to two grid cells; witness is the worst "
                    "missing or extra point")
    return report


def theorem_5_8_battery(triple: FitzTriple, density: VerifyReport) -> VerifyReport:
    """Product-space reading of the equivalence battery for the triple's set
    of pairs, plus the explicit classical form of the dual-side support
    inequality, held to ATOL_GRID like the battery.  `density` is as for
    `theorem_4_10_battery`.  The classical form's sup over the set, max over
    a of <a, b*> - q(a) at the image b* of each grid node, is the triple's
    theta on that image."""
    report = theorem_4_10_battery(triple, density)
    report.suite = "theorem_5_8"
    image, sup_vals = triple.dual_blocks[1]
    image_nodes = image.points()
    report.add_worst("b_classical_form", "thm_5_8b", triple.space.dual.q(image_nodes) - sup_vals,
                     image_nodes, tols.ATOL_GRID,
                     note="support of the set dominates the duality product")
    return report


# -- negative alignment ------------------------------------------------------------

@dataclass
class AlignmentResult:
    """Balanced-approach extraction at a point outside the set.

    Minimizes max(beta|y-x|^2/alpha, alpha|y*-x*|^2/beta) + <y-x, y*-x*> over
    the finite set; at an exact zero of that objective the two scaled radii
    balance and omega is their common value.
    """

    x: np.ndarray
    xstar: np.ndarray
    alpha: float
    beta: float
    omega: float
    rho: float                      # |y - x| at the minimizer
    sigma: float                    # |y* - x*| at the minimizer
    inner: float                    # <y - x, y* - x*> at the minimizer
    objective_min: float
    minimizer: np.ndarray
    degenerate: bool = False        # (x, x*) lies in the set: omega = 0
    alignment_ratio: float | None = None
    balance_gap: float | None = None
    sequence: list = field(default_factory=list)
    excluded_axis_points: int = 0

    def to_dict(self):
        return {
            "x": self.x.tolist(), "xstar": self.xstar.tolist(),
            "alpha": self.alpha, "beta": self.beta,
            "omega": self.omega, "rho": self.rho, "sigma": self.sigma,
            "inner": self.inner, "objective_min": self.objective_min,
            "minimizer": self.minimizer.tolist(), "degenerate": self.degenerate,
            "alignment_ratio": self.alignment_ratio, "balance_gap": self.balance_gap,
            "sequence": [s.tolist() for s in self.sequence],
            "excluded_axis_points": self.excluded_axis_points,
        }


def negative_alignment(a: MonotoneSet, x, xstar, alpha: float, beta: float) -> AlignmentResult:
    """Exact minimization of the balanced-approach objective over the sample.

    At desk scale the infimum is attained, so the approach sequence collapses
    to the constant minimizer.  Minimizers sitting on y = x or y* = x*
    (within 1e-12) are excluded (the alignment ratio is undefined there) and
    the next-best point is taken; the count of exclusions is recorded.
    """
    axis_exclusion_tol = 1e-12
    if len(a) == 0:
        raise EmptySet("need a nonempty monotone set")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    x = np.asarray(x, dtype=float).ravel()
    xs = np.asarray(xstar, dtype=float).ravel()
    if x.shape[0] != a.n or xs.shape[0] != a.n:
        raise DimensionMismatch("point halves must have length n")
    dy = a.x - x[None, :]
    dys = a.xstar - xs[None, :]
    rho_all = np.linalg.norm(dy, axis=1)
    sig_all = np.linalg.norm(dys, axis=1)
    inner_all = np.einsum("ni,ni->n", dy, dys)
    on_set = (rho_all <= axis_exclusion_tol) & (sig_all <= axis_exclusion_tol)
    if np.any(on_set):
        i = int(np.argmax(on_set))
        return AlignmentResult(x=x, xstar=xs, alpha=alpha, beta=beta, omega=0.0,
                               rho=0.0, sigma=0.0, inner=0.0, objective_min=0.0,
                               minimizer=a.points[i], degenerate=True,
                               sequence=[a.points[i]])
    objective = np.maximum(beta * rho_all**2 / alpha, alpha * sig_all**2 / beta) + inner_all
    excluded = (rho_all <= axis_exclusion_tol) | (sig_all <= axis_exclusion_tol)
    usable = np.where(excluded, np.inf, objective)
    n_excluded = int(np.count_nonzero(excluded))
    if not np.any(np.isfinite(usable)):
        usable = objective
        n_excluded = 0
    i = int(np.argmin(usable))
    rho, sig, inner = float(rho_all[i]), float(sig_all[i]), float(inner_all[i])
    omega = rho / alpha
    ratio = inner / (rho * sig) if rho > 0 and sig > 0 else None
    balance = abs(rho / alpha - sig / beta)
    return AlignmentResult(x=x, xstar=xs, alpha=alpha, beta=beta, omega=omega,
                           rho=rho, sigma=sig, inner=inner,
                           objective_min=float(objective[i]),
                           minimizer=a.points[i], alignment_ratio=ratio,
                           balance_gap=balance, sequence=[a.points[i]],
                           excluded_axis_points=n_excluded)


def alignment_report(a: MonotoneSet, x, xstar, alpha, beta) -> VerifyReport:
    """Check the balanced-approach limit relations at the extracted minimizer,
    each to 1e-6.

    The balance and alignment assertions only apply when the objective
    minimum clears the gate, 1e-8 plus 5% of rho * sigma (it vanishes in the
    limit; on a sample it merely has to be small).
    """
    tol = 1e-6
    res = negative_alignment(a, x, xstar, alpha, beta)
    report = VerifyReport(suite="negative_alignment",
                          tolerances={"tol": tol},
                          meta={"alpha": alpha, "beta": beta,
                                "objective_min": res.objective_min,
                                "omega": res.omega})
    if res.degenerate:
        report.add("on_set_omega_zero", "thm_5_5b", res.omega == 0.0, residual=res.omega,
                   note="point lies in the set; ratios undefined")
        return report
    gate_tol = 1e-8 + 0.05 * max(res.rho * res.sigma, 1e-8)
    gated = res.objective_min <= gate_tol
    report.tolerances["gate_tol"] = gate_tol
    report.add("balance", "thm_5_5b", (res.balance_gap <= tol) if gated else False,
               residual=res.balance_gap, skipped=not gated,
               note="rho/alpha vs sigma/beta at the minimizer")
    limit_resid = max(abs(res.rho - res.alpha * res.omega),
                      abs(res.sigma - res.beta * res.omega),
                      abs(res.inner + res.alpha * res.beta * res.omega**2))
    report.add("limit_relations", "thm_5_5b", (limit_resid <= tol) if gated else False,
               residual=limit_resid, skipped=not gated)
    if res.alignment_ratio is not None:
        align_resid = abs(res.alignment_ratio + 1.0)
        report.add("alignment_ratio", "eq_5_5_1", (align_resid <= tol) if gated else False,
                   residual=align_resid, skipped=not gated,
                   note="duality product over the product of radii")
    return report


def remark_5_6_bound(a: MonotoneSet, f: GridFn, space: SsdSpace,
                     c_grid: GridSpec) -> VerifyReport:
    """Distance chain at every probe pair: Euclidean distance to the set is at
    most sqrt(2) sqrt(-inf of the duality product), itself at most
    sqrt(2) sqrt(f - product) up to ATOL_GRID; the classical constant-2 bound
    is recorded."""
    tol = tols.ATOL_GRID
    pts = c_grid.points()
    n = a.n

    def sq_dist(d):
        return np.sum(d[:, :n]**2, axis=1) + np.sum(d[:, n:]**2, axis=1)

    def product(d):
        return np.einsum("ni,ni->n", d[:, :n], d[:, n:])

    sq, _ = nearest(_OnDifferences(sq_dist), pts, a.points)
    inner, _ = nearest(_OnDifferences(product), pts, a.points)
    dist = np.sqrt(sq)
    neg_inf = np.maximum(0.0, -inner)
    fq = f.evaluate(pts) - space.q(pts)
    slack = tols.set_radius(space, c_grid)
    report = VerifyReport(suite="remark_5_6", grid=c_grid.to_dict(),
                          tolerances={"tol": tol, "cell_slack": slack},
                          meta={"space": space.label, "fn": f.form})
    report.add_worst("dist_vs_product", "remark_5_6",
                     dist - (_SQRT2 * np.sqrt(neg_inf) + slack), pts)
    r2 = neg_inf - (np.maximum(fq, 0.0) + tols.tol_p_membership() + tol)
    report.add_worst("product_vs_gap", "remark_5_6", np.where(np.isfinite(r2), r2, -np.inf), pts)
    r3 = dist - (2.0 * np.sqrt(np.maximum(fq, 0.0)) + slack)
    report.add_worst("classical_constant_two", "remark_5_6",
                     np.where(np.isfinite(r3), r3, -np.inf), pts,
                     note="weaker literature bound, for context")
    return report


def projection_closure_check(f: GridFn, space: SsdSpace) -> VerifyReport:
    """The represented set and the effective domain have the same axis
    projections up to two grid cells, and those projections are intervals."""
    tol_cells = 2.0
    n = space.dim // 2
    touch = mf_set(f, space)
    if len(touch) == 0:
        raise PreconditionFailed("represented set is empty")
    dom = f.domain_points()
    report = VerifyReport(suite="projection_closure", grid=f.grid.to_dict(),
                          tolerances={"tol_cells": tol_cells},
                          meta={"space": space.label, "fn": f.form})
    h = f.grid.spacing
    for name, cols in (("primal", slice(0, n)), ("dual", slice(n, 2 * n))):
        cell = float(np.max(h[cols]))
        pa = touch.points[:, cols]
        # a projection repeats each value many times; the distance ignores repeats
        d_ab, _ = _hausdorff(pa, np.unique(dom[:, cols], axis=0),
                             lambda x, y: np.sqrt(pairwise_sq_dists(x, y)))
        report.add(f"{name}_projections_match", "thm_5_5f",
                   d_ab <= tol_cells * cell, residual=d_ab,
                   note="symmetric Hausdorff distance of the two projections")
        if n == 1:
            gaps = np.diff(np.unique(np.round(pa.ravel() / h[cols][0])))
            interval = bool(np.all(gaps <= tol_cells)) if gaps.size else True
            report.add(f"{name}_projection_interval", "thm_5_5f", interval,
                       residual=float(np.max(gaps)) if gaps.size else 0.0,
                       note="index gaps within tolerance = interval on the grid")
    return report
