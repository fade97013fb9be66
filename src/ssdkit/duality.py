"""Dual-side structure: the inverse pairing, dual norms of the split-norm
family, image density, the two-sided inf-convolution identity, and the
equivalence battery for maximal sets.

The dual of R^d is R^d under the dot product, so the compatible dual pairing
is the matrix inverse of the primal one and the dual side is itself a space
of the same kind; we materialize it as an `SsdSpace` and reuse all gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DensityNotVerified,
    DimensionMismatch,
    GridMismatch,
    NoDual,
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
    _pairing_entry,
    bilinear_rows,
    check_banach_ssd,
    pairwise_q,
    swap_matrix,
)
from . import tolerances as tols


@dataclass(frozen=True, eq=False)
class DualSsd:
    """Dual pairing and dual norm attached to a space, as a space in its own
    right: `as_space` carries the dual pairing and norm, and q-tilde and
    p-tilde as its q and p."""

    space: SsdSpace
    as_space: SsdSpace

    def q_tilde(self, c):
        return self.as_space.q(c)

    def p_tilde(self, c):
        return self.as_space.p(c)

    def to_dict(self):
        return {"pairing": self.as_space.pairing.tolist(),
                "norm": self.as_space.norm.to_dict()}


def save_space_document(space: SsdSpace, path, dual: DualSsd | None = None) -> None:
    """One JSON document for a space, with the dual structure under "dual"."""
    doc = space.to_dict()
    if dual is not None:
        doc["dual"] = dual.to_dict()
    write_json(path, doc)


def load_space_document(path) -> tuple[SsdSpace, DualSsd | None]:
    """Read a space document; reconstructs and revalidates the dual if present."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    space = SsdSpace.from_dict(doc)
    dual = None
    if "dual" in doc:
        dual = make_dual(space)
        stored = np.asarray(_pairing_entry(doc["dual"], "space document's 'dual'"),
                            dtype=float)
        if np.max(np.abs(stored - dual.as_space.pairing)) > 1e-9:
            raise SingularPairing("stored dual pairing disagrees with the "
                                  "canonical one for this space")
    return space, dual


def make_dual(space: SsdSpace) -> DualSsd:
    """Construct the canonical dual structure and validate compatibility.

    Raises SingularPairing when the pairing has no inverse and NoDual when
    the dual side fails `check_banach_ssd` (p-tilde >= -ATOL_CLOSED), with
    its witness and the value of p-tilde there attached.  The check is
    analytic whenever the dual norm has a quadratic form and sampled on the
    [-1, 1]^d box otherwise (p-tilde is 2-homogeneous, so a unit box sample
    suffices).  The identities are checked on 1000 random vectors of a
    generator seeded with 42.
    """
    m = space.pairing
    if np.linalg.cond(m) > 1e12:
        raise SingularPairing("pairing matrix is numerically singular")
    m_inv = np.linalg.inv(m)
    m_tilde = 0.5 * (m_inv + m_inv.T)
    dual_norm = space.norm.dual()
    as_space = SsdSpace(m_tilde, norm=dual_norm,
                        label=(space.label + " (dual)") if space.label else "dual")
    dual = DualSsd(space, as_space)

    rng = np.random.default_rng(42)
    b = rng.standard_normal((1000, space.dim))
    cstar = rng.standard_normal((1000, space.dim))
    lhs = bilinear_rows(b @ m.T, m_tilde, cstar)
    rhs = np.einsum("ni,ni->n", b, cstar)
    if np.max(np.abs(lhs - rhs)) > 1e-8 * max(1.0, float(np.max(np.abs(rhs)))):
        raise SingularPairing("dual pairing fails the compatibility identity")
    qt = as_space.q(b @ m.T)
    if np.max(np.abs(qt - space.q(b))) > 1e-8 * max(1.0, float(np.max(np.abs(qt)))):
        raise SingularPairing("dual quadratic form fails the pullback identity")

    probe = "analytic"
    if dual_norm.quadratic_weight(space.dim) is None:
        probe = GridSpec.box(-1.0, 1.0, _probe_points_per_axis(space.dim), space.dim)
    check = check_banach_ssd(as_space, probe).checks[0]
    if check.status != PASS:
        value = float(as_space.p(check.witness))
        raise NoDual(f"dual gauge is negative: p_tilde({check.witness.tolist()}) = "
                     f"{value:.6g}", witness=check.witness, value=value)
    return dual


def _probe_points_per_axis(dim):
    return {1: 201, 2: 81, 3: 21, 4: 21}.get(dim, 9)


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


def dual_norm_check(space: SsdSpace, dual: DualSsd, n_samples: int = 100,
                    seed: int = 42, tol: float = 1e-4) -> VerifyReport:
    """Numerical dual norm vs the claimed closed form on random dual vectors
    drawn from [-3, 3]^d."""
    rng = np.random.default_rng(seed)
    ys = rng.uniform(-3.0, 3.0, size=(n_samples, space.dim))
    dual_norm = dual.as_space.norm
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

def p_tilde_density(space: SsdSpace, dual: DualSsd, bstar, primal_grid: GridSpec):
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
    vals, args = nearest(_OnDifferences(dual.p_tilde), probes, nodes @ space.pairing.T)
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
        val = dual.p_tilde(probes - space.iota_apply(w))
        better = val < vals
        vals = np.where(better, val, vals)
        wits = np.where(better[:, None], w, wits)
    if b.ndim == 1:
        return float(vals[0]), wits[0]
    return vals, wits


def density_report(space: SsdSpace, dual: DualSsd, primal_grid: GridSpec,
                   probe_points=None, tol_density: float = tols.DENSITY_TOL) -> VerifyReport:
    """Image density over a deterministic set of dual probe points, by
    default up to 7 nodes per axis of the box of `dual_probe_blocks`."""
    if probe_points is None:
        box = dual_probe_blocks(space, primal_grid)[0].grid
        coarse = GridSpec(box.lower, box.upper, np.minimum(box.num, 7))
        probe_points = coarse.points()
    probes = np.atleast_2d(np.asarray(probe_points, dtype=float))
    vals, _ = p_tilde_density(space, dual, probes, primal_grid)
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

def lemma_4_7_identity(space: SsdSpace, dual: DualSsd, f: GridFn, c_grid: GridSpec,
                       tol: float | None = None,
                       dual_grid: GridSpec | None = None) -> VerifyReport:
    """Zero-sum identity between the primal and dual inf-convolutions:
    ((f - q) ic p)(c) + ((f* - qt) ic pt)(iota(c)) should vanish on the grid.

    The dual-side minimization runs over the image of the sample grid unless
    `dual_grid` widens it (needed when the effective domain of f is much
    smaller than the box, which pushes the dual minimizer outside the image).
    """
    if tol is None:
        tol = max(tols.ATOL_GRID,
                  tols.one_cell_p_bound(space, f.grid)
                  + tols.one_cell_p_bound(dual.as_space, f.grid))
    c_block = Lattice(c_grid)
    term1, _ = zero_infconv_residuals(f, space, c_block)
    dual_block = Lattice(f.grid, space.pairing.T) if dual_grid is None else Lattice(dual_grid)
    dual_nodes = dual_block.points()
    fstar, _ = sup_over_blocks([(Lattice(f.grid), f.values)], [dual_block])
    gap = fstar - dual.q_tilde(dual_nodes)
    image_block = Lattice(c_grid, space.pairing.T)
    term2, _ = min_values_plus_gauge(dual.as_space, gap, dual_block, image_block)
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


def vz_mas_equivalence(space: SsdSpace, dual: DualSsd, f: GridFn,
                       density: VerifyReport) -> VerifyReport:
    """The two predicates must agree once image density is verified:
    `density` is `density_report(space, dual, f.grid)`, and the check
    refuses when it failed or was built on another grid."""
    _require_density(density, f.grid)
    vz = is_vz(f, space)
    mas = is_mas(f, space, dual)
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

def theorem_4_10_battery(dual: DualSsd, triple: FitzTriple,
                         density: VerifyReport) -> VerifyReport:
    """Equivalent conditions for the triple's set, grid-maximal and positive,
    on the triple's grid, held to ATOL_GRID; verdicts must be unanimous.
    `density` is `density_report(triple.space, dual, triple.grid)`.  Refuses
    a `dual` of another space at entry, before any kernel runs, and refuses
    when maximality or image density fails, or when the density report was
    built on another grid.
    """
    tol = tols.ATOL_GRID
    space, a, grid = triple.space, triple.a, triple.grid
    if dual.space is not space:
        raise DimensionMismatch("dual structure belongs to a different space")
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

    qt = dual.q_tilde(image_nodes)
    inf_qt, _ = nearest(partial(pairwise_q, dual.as_space), image_nodes,
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
        mas = is_mas(h, space, dual)
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
