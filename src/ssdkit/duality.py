"""Dual-side structure: the inverse pairing, dual norms of the split-norm
family, image density, the two-sided inf-convolution identity, and the
equivalence battery for maximal sets.

The dual of R^d is R^d under the dot product, so the compatible dual pairing
is the matrix inverse of the primal one and the dual side is itself a space
of the same kind: `space.dual`, an `SsdSpace` whose q and p are q-tilde and
p-tilde.  Every check here reads it from the space it is given.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import (
    DensityNotVerified,
    GridMismatch,
    PreconditionFailed,
    SingularPairing,
)
from .fitzpatrick import FitzTriple, dual_probe_blocks, phi, theta
from .gridfn import (
    GridFn,
    Lattice,
    block_points,
    is_mas,
    is_vz,
    min_values_plus_gauge,
    nearest,
    sup_linear_minus,
    sup_over_blocks,
    zero_infconv_residuals,
)
from .grids import GridSpec, image_box
from .kernels import _OnDifferences
from .positivity import is_maximally_q_positive, p_set, sets_match
from .reports import PASS, VerifyReport, write_json
from .spaces import (
    EUCLIDEAN,
    PRODUCT_KINDS,
    QUADRATIC,
    SsdSpace,
    pairwise_q,
    swap_matrix,
)
from . import tolerances as tols


def save_space_document(space: SsdSpace, path, dual: bool = False) -> None:
    """One JSON document for a space, with the pairing and norm of its dual
    under "dual" when `dual` is set."""
    doc = space.to_dict()
    if dual:
        doc["dual"] = {"pairing": space.dual.pairing.tolist(),
                       "norm": space.dual.norm.to_dict()}
    write_json(path, doc)


def load_space_document(path) -> SsdSpace:
    """Read a space document.  A stored "dual" is read by the rules of the
    space itself, and its pairing and its norm's variant, tau, scale and
    weight must match `space.dual` to 1e-9."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    space = SsdSpace.from_dict(doc)
    if "dual" in doc:
        what = "space document's 'dual'"
        stored = SsdSpace.from_dict(doc["dual"], what)
        dual = space.dual
        if not _close(stored.pairing, dual.pairing):
            raise SingularPairing("stored dual pairing disagrees with the "
                                  "canonical one for this space")
        a, b = stored.norm, dual.norm
        if not (a.variant == b.variant and _close(a.tau, b.tau) and _close(a.scale, b.scale)
                and (a.variant != QUADRATIC or _close(a.weight, b.weight))):
            raise ValueError(f"{what}'s 'norm' disagrees with the canonical dual "
                             "norm for this space")
    return space


def _close(x, y) -> bool:
    """Same shape and every entry within 1e-9."""
    return np.shape(x) == np.shape(y) and bool(np.all(np.abs(np.subtract(x, y)) <= 1e-9))


# -- dual norms -----------------------------------------------------------------

def numerical_dual_norm(space: SsdSpace, ystar) -> float | np.ndarray:
    """sup{<x, y*> : norm(x) <= 1} computed independently of the closed form,
    for one vector (a float) or for rows (an array).

    For split norms the Euclidean alignment of each half reduces the problem
    to two radii on the unit sphere of a planar norm, scanned densely: the
    sphere is built once per call and the sup kernel takes the max of its
    rows against every (radius, radius) pair; for Euclidean/quadratic norms
    the aligned direction is explicit.
    """
    y = np.asarray(ystar, dtype=float)
    rows = np.atleast_2d(y)
    norm = space.norm
    if norm.variant == EUCLIDEAN:
        vals = np.linalg.norm(rows, axis=1) / norm.scale
    elif norm.variant == QUADRATIC:
        w = norm.quadratic_weight(space.dim)
        vals = np.sqrt(np.einsum("ni,in->n", rows, np.linalg.solve(w, rows.T)))
    else:
        n = space.dim // 2
        ts = np.linspace(0.0, np.pi / 2.0, 200_001)
        sphere = np.empty((ts.size, 2))
        np.cos(ts, out=sphere[:, 0])
        np.sin(ts, out=sphere[:, 1])
        sphere /= norm.scale * norm.combine_halves(sphere[:, 0], sphere[:, 1])[:, None]
        radii = np.column_stack([np.linalg.norm(rows[:, :n], axis=1),
                                 np.linalg.norm(rows[:, n:], axis=1)])
        vals, _ = sup_linear_minus(sphere, np.zeros(ts.size), radii)
    return float(vals[0]) if y.ndim == 1 else vals


def dual_norm_check(space: SsdSpace, n_samples: int = 100, seed: int = 42,
                    tol: float = 1e-4) -> VerifyReport:
    """Numerical dual norm vs the claimed closed form on random dual vectors
    drawn from [-3, 3]^d."""
    rng = np.random.default_rng(seed)
    ys = rng.uniform(-3.0, 3.0, size=(n_samples, space.dim))
    dual_norm = space.dual.norm
    errs = np.abs(numerical_dual_norm(space, ys) - dual_norm(ys))
    worst = float(np.max(errs, initial=0.0))
    report = VerifyReport(suite="dual_norm_check", seed=seed,
                          tolerances={"tol": tol},
                          meta={"space": space.label, "n_samples": n_samples})
    report.add("dual_norm_closed_form", "ex_2_4", worst <= tol,
               residual=worst, witness=ys[np.argmax(errs)] if worst > 0.0 else None)
    z = np.zeros(space.dim)
    report.add("dual_norm_at_zero", "plumbing",
               abs(float(dual_norm(z))) <= 1e-15, residual=abs(float(dual_norm(z))))
    return report


# -- image density ------------------------------------------------------------------

def p_tilde_density(space: SsdSpace, bstar, primal_grid: GridSpec):
    """(achieved infimum of p_tilde(b* - iota(c)), witnessing primal c) for
    one probe b*, or (array, witness rows) for rows of probes.

    Three candidate witnesses, best value returned: the primal grid minimum
    (one pair scan over every probe), the split-norm algebraic witness
    (x = 0, x* side completed, exact zero for the unscaled split norms on
    the swap pairing), and the preimage through the map (exact zero whenever
    the pairing is invertible -- in finite dimensions the image is the whole
    dual side, so the density condition only ever fails by grid
    truncation).  A later candidate replaces an earlier one only where it is
    strictly smaller.
    """
    b = np.asarray(bstar, dtype=float)
    probes = np.atleast_2d(b)
    nodes = primal_grid.points()
    p_tilde = space.dual.p
    vals, args = nearest(_OnDifferences(p_tilde), probes, nodes @ space.pairing.T)
    wits = nodes[args]
    candidates = []
    if (space.norm.variant in PRODUCT_KINDS and space.norm.scale == 1.0
            and np.array_equal(space.pairing, swap_matrix(space.dim // 2))):
        n = space.dim // 2
        tau = space.norm.tau
        candidates.append(np.hstack([np.zeros((probes.shape[0], n)),
                                     probes[:, :n] + tau**2 * probes[:, n:]]))
    if np.linalg.cond(space.pairing) < 1e12:
        candidates.append(np.linalg.solve(space.pairing, probes.T).T)
    for w in candidates:
        val = p_tilde(probes - space.iota_apply(w))
        better = val < vals
        vals = np.where(better, val, vals)
        wits = np.where(better[:, None], w, wits)
    if b.ndim == 1:
        return float(vals[0]), wits[0]
    return vals, wits


def density_report(space: SsdSpace, primal_grid: GridSpec,
                   probe_points=None, tol_density: float = tols.DENSITY_TOL) -> VerifyReport:
    """Image density over a deterministic set of dual probe points, by
    default up to 7 nodes per axis of the box of `dual_probe_blocks`."""
    if probe_points is None:
        box = dual_probe_blocks(space, primal_grid)[0].grid
        coarse = GridSpec(box.lower, box.upper, np.minimum(box.num, 7))
        probe_points = coarse.points()
    probes = np.atleast_2d(np.asarray(probe_points, dtype=float))
    vals, _ = p_tilde_density(space, probes, primal_grid)
    worst = float(np.max(vals, initial=-np.inf))
    report = VerifyReport(suite="p_tilde_density", grid=primal_grid.to_dict(),
                          tolerances={"tol_density": tol_density},
                          meta={"space": space.label, "n_probes": probes.shape[0]})
    report.add("image_density", "eq_4_2_1", worst <= tol_density,
               residual=max(0.0, worst),
               witness=probes[np.argmax(vals)] if vals.size else None,
               note="worst achieved infimum over the probe points")
    return report


# -- the two-sided identity -----------------------------------------------------------

def lemma_4_7_identity(space: SsdSpace, f: GridFn, c_grid: GridSpec,
                       tol: float | None = None,
                       dual_grid: GridSpec | None = None) -> VerifyReport:
    """Zero-sum identity between the primal and dual inf-convolutions:
    ((f - q) ic p)(c) + ((f* - qt) ic pt)(iota(c)) should vanish on the grid.

    The dual-side minimization runs over the image of the sample grid unless
    `dual_grid` widens it (needed when the effective domain of f is much
    smaller than the box, which pushes the dual minimizer outside the image).
    """
    dual = space.dual
    if tol is None:
        tol = max(tols.ATOL_GRID,
                  tols.one_cell_p_bound(space, f.grid)
                  + tols.one_cell_p_bound(dual, f.grid))
    c_block = Lattice(c_grid)
    term1, _ = zero_infconv_residuals(f, space, c_block)
    dual_block = Lattice(f.grid, space.pairing.T) if dual_grid is None else Lattice(dual_grid)
    dual_nodes = dual_block.points()
    fstar, _ = sup_over_blocks([(Lattice(f.grid), f.values)], [dual_block])
    gap = fstar - dual.q(dual_nodes)
    image_block = Lattice(c_grid, space.pairing.T)
    term2, _ = min_values_plus_gauge(dual, gap, dual_block, image_block)
    resid = np.abs(term1 + term2)
    i = int(np.argmax(resid))
    report = VerifyReport(suite="lemma_4_7", grid=c_grid.to_dict(),
                          tolerances={"tol": tol},
                          meta={"space": space.label, "fn": f.form,
                                "dual_lattice": ("image of the sample grid" if dual_grid is None
                                                 else "dual grid")})
    report.add("two_sided_zero_sum", "lemma_4_7", float(resid[i]) <= tol,
               residual=float(resid[i]), witness=c_block.points()[i],
               note=f"term1 {float(term1[i]):+.3e}, term2 {float(term2[i]):+.3e} at witness")
    report.meta["max_term1"] = float(np.max(np.abs(term1)))
    report.meta["max_term2"] = float(np.max(np.abs(term2)))
    return report


def _require_density(density: VerifyReport, grid: GridSpec) -> None:
    """Refuse a density report that failed, or one built on another grid."""
    if not density.passed:
        raise DensityNotVerified("image density does not hold on the probe points")
    if density.grid != grid.to_dict():
        raise GridMismatch("the density report was built on another grid")


def vz_mas_equivalence(space: SsdSpace, f: GridFn, density: VerifyReport) -> VerifyReport:
    """The two predicates must agree once image density is verified:
    `density` is `density_report(space, f.grid)`, and the check
    refuses when it failed or was built on another grid."""
    _require_density(density, f.grid)
    vz = is_vz(f, space)
    mas = is_mas(f, space)
    report = VerifyReport(suite="vz_mas_equivalence", grid=f.grid.to_dict(),
                          tolerances={**vz.tolerances, **mas.tolerances},
                          meta={"space": space.label, "fn": f.form,
                                "vz": vz.passed, "mas": mas.passed,
                                "vz_tol": vz.tolerances["tol"]})
    report.add("verdicts_agree", "thm_4_9c", vz.passed == mas.passed,
               residual=0.0 if vz.passed == mas.passed else 1.0,
               note=f"vz={vz.passed}, mas={mas.passed}")
    return report


# -- the equivalence battery ------------------------------------------------------------

def theorem_4_10_battery(triple: FitzTriple, density: VerifyReport) -> VerifyReport:
    """Equivalent conditions for the triple's set, grid-maximal and positive,
    on the triple's grid, held to ATOL_GRID; verdicts must be unanimous.
    `density` is `density_report(triple.space, triple.grid)`.  Refuses when
    maximality or image density fails, or when the density report was built
    on another grid.
    """
    tol = tols.ATOL_GRID
    space, a, grid = triple.space, triple.a, triple.grid
    mx = is_maximally_q_positive(space, a, grid)
    if not mx.passed:
        raise PreconditionFailed("set is not grid-maximal; battery does not apply")
    _require_density(density, grid)

    image_blocks = [Lattice(image_box(grid, space.pairing, inflate=1.0, include_source=False)),
                    Lattice(grid, space.pairing.T)]
    image_nodes = block_points(image_blocks)
    report = VerifyReport(suite="theorem_4_10", grid=grid.to_dict(),
                          tolerances={"tol": tol},
                          meta={"space": space.label, "set": a.label,
                                "dual_probe": "image box lattice + image of grid nodes"})
    verdicts = {}

    qt = space.dual.q(image_nodes)
    inf_qt, _ = nearest(partial(pairwise_q, space.dual), image_nodes,
                        a.points @ space.pairing.T)
    verdicts["a"] = report.add_worst("a_infqt_nonpositive", "thm_4_10a", inf_qt,
                                     image_nodes, tol).status == PASS
    verdicts["b"] = report.add_worst("b_theta_dominates_qt", "thm_4_10b",
                                     qt - theta(space, a, image_nodes),
                                     image_nodes, tol).status == PASS

    phi_star, _ = sup_over_blocks([(Lattice(grid), triple.phi_fn.values),
                                   (a.points, phi(space, a, a.points))], image_blocks)
    verdicts["c"] = report.add_worst("c_phistar_dominates_qt", "thm_4_10c", qt - phi_star,
                                     image_nodes, tol).status == PASS

    vz_phi = is_vz(triple.phi_fn, space)
    verdicts["f"] = vz_phi.passed
    report.add("f_phi_vz", "thm_4_10f", vz_phi.passed,
               residual=vz_phi.check("zero_infconv").worst_residual)
    vz_star = is_vz(triple.star_theta_fn, space)
    verdicts["g"] = vz_star.passed
    report.add("g_star_vz", "thm_4_10g", vz_star.passed,
               residual=vz_star.check("zero_infconv").worst_residual)

    mid = GridFn._raw(grid, 0.5 * (triple.phi_fn.values + triple.star_theta_fn.values),
                      form="midpoint candidate")
    candidates = [(triple.phi_fn, vz_phi), (triple.star_theta_fn, vz_star), (mid, None)]
    for idx, (h, vz) in enumerate(candidates):
        mas = is_mas(h, space)
        touch = p_set(h, space)
        match, dist, _ = sets_match(space, a.points, touch.points, grid)
        verdicts[f"d{idx}"] = mas.passed and match
        report.add(f"d_candidate{idx}_mas_represents", "thm_4_10d", verdicts[f"d{idx}"],
                   residual=dist, note=f"candidate {h.form or idx}")
        if vz is None:
            vz = is_vz(h, space)
        verdicts[f"e{idx}"] = vz.passed and match
        report.add(f"e_candidate{idx}_vz_represents", "thm_4_10e", verdicts[f"e{idx}"],
                   residual=vz.check("zero_infconv").worst_residual)
        inside = (np.all(h.values <= triple.star_theta_fn.values + tols.tol_p_membership())
                  and np.all(h.values >= triple.phi_fn.values - tols.tol_p_membership()))
        dom = mas.check("dual_minorization")
        verdicts[f"b2.{idx}"] = (not inside) or dom.status == PASS
        report.add(f"b2_candidate{idx}_conj_dominates", "thm_4_10b2", verdicts[f"b2.{idx}"],
                   residual=dom.worst_residual,
                   note="sandwiched candidates: conjugate dominates the dual form")

    unanimous = len(set(verdicts.values())) == 1
    report.add("unanimity", "thm_4_10", unanimous,
               residual=0.0 if unanimous else 1.0,
               note=f"{sum(verdicts.values())}/{len(verdicts)} conditions true")
    report.meta["verdicts"] = {k: bool(v) for k, v in verdicts.items()}
    return report
