"""Named verification batteries: the catalog of runnable suites behind the
command line.  Each suite builds its functions from the built-in catalog over
the module's shared spaces (`TWO`, `SWAP`, `SPECIAL`, `BANACH`), runs the
relevant checks, and yields reports; `theorem_4_10` and `theorem_5_8` also
take their space as a parameter, `TWO` by default.  `run_suite` stamps each
report with the suite's name, its wall time and the kernels it ran.  Nothing
here raises on a failed inequality (only on broken preconditions or inputs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tolerances as tols
from .catalog import (
    all_special_spaces,
    cubic_graph_set,
    default_grid,
    diagonal_set,
    double_well_fn,
    half_sq_norm_fn,
    helix_set,
    q_plus_const_fn,
    ray_set,
    sign_graph_set,
    singleton_origin,
    space_identity,
    space_negated,
    space_nodual,
    space_r2_product,
    space_swap_r3,
    space_zero_pairing,
    vz_catalog,
)
from .duality import (
    density_report,
    dual_norm_check,
    lemma_4_7_identity,
    theorem_4_10_battery,
    vz_mas_equivalence,
)
from .errors import NoDual, SsdkitError
from .fitzpatrick import (
    fitz_triple,
    lemma_2_13_suite,
    phi_on_grid,
    remark_2_14_gap,
    sigma_minorant_test,
    theorem_2_15_reports,
)
from .gridfn import (
    GridFn,
    Lattice,
    conjugate_composition_gap,
    intrinsic_conjugate,
    is_vz,
    lsc_biconjugate_envelope,
    sup_over_blocks,
)
from .grids import GridSpec
from .kernels import kernel_ledger
from .monotone import (
    MonotoneSet,
    alignment_report,
    negative_alignment,
    projection_closure_check,
    remark_5_6_bound,
    strongly_representable_check,
    theorem_5_8_battery,
    type_ni_check,
)
from .positivity import (
    PointSet,
    dist_bounds_check,
    is_q_positive,
    lemma_2_8_suite,
    p_set,
    project_to_p,
    recheck_trace,
)
from .reports import VerifyReport
from .spaces import NormSpec, _SQRT2, bilinear_rows, check_banach_ssd, lipschitz_checks

# the suites' spaces; an SsdSpace is immutable after build, so suites share them
TWO = space_r2_product("two")
SWAP = space_swap_r3()
SPECIAL = tuple(all_special_spaces())
BANACH = (space_identity(2), space_negated(2), SWAP,
          space_r2_product("one"), TWO, space_r2_product("inf"))


@dataclass
class SuiteOptions:
    grid: GridSpec | None = None
    seed: int = 42
    lam: float | None = None    # explicit helix pitch, checked verbatim
    epsilon: float = 0.5
    point_set: PointSet | None = None


def _grid(opts: SuiteOptions, dim=2, n=61) -> GridSpec:
    if opts.grid is not None and opts.grid.dim == dim:
        return opts.grid
    return default_grid(dim, -3.0, 3.0, n)


def _tag(rep: VerifyReport, **meta) -> VerifyReport:
    rep.meta.update(meta)
    return rep


def _norm(sp) -> str:
    return f"{sp.norm.variant},{sp.norm.tau:g}"


def _expect_fail(bad: VerifyReport, check_id, anchor, note, **meta) -> VerifyReport:
    """A negative control: one check that passes when `bad` fails, carrying
    the residual and witness of `bad`'s first check."""
    first = bad.checks[0]
    rep = VerifyReport(tolerances=bad.tolerances, meta=meta)
    rep.add(check_id, anchor, not bad.passed, residual=first.worst_residual,
            witness=first.witness, note=note)
    return rep


# -- individual suites ---------------------------------------------------------------


def suite_banach_ssd(opts: SuiteOptions):
    grid = _grid(opts)
    for sp in BANACH:
        probe = default_grid(sp.dim, -3, 3, 61) if sp.norm.is_product else "analytic"
        yield _tag(check_banach_ssd(sp, probe=probe), space=sp.label)
        yield lipschitz_checks(sp, n_pairs=2000, seed=opts.seed)
    failing = space_r2_product("two", scale=0.5)
    yield _expect_fail(check_banach_ssd(failing, probe=default_grid(2, -3, 3, 61)),
                       "halved_norm_fails", "eq_2_1_1",
                       "negative gauge expected for the halved norm", space=failing.label)
    comp = VerifyReport(tolerances={"tol": 1e-10})
    gap = conjugate_composition_gap(half_sq_norm_fn(grid), TWO, grid)
    comp.add("conjugate_composition", "eq_2_1_6", gap <= 1e-10, residual=gap,
             note="pairing-conjugate vs dot-conjugate through the dual map")
    yield comp


def suite_helix(opts: SuiteOptions):
    yield is_q_positive(SWAP, helix_set(pitch=1.0))
    if opts.lam is not None:
        # an explicitly requested pitch is checked verbatim (and a flattened
        # helix is expected to fail, driving the exit code)
        yield _tag(is_q_positive(SWAP, helix_set(pitch=opts.lam)), pitch=opts.lam)
    bad = is_q_positive(SWAP, helix_set(pitch=0.5))
    yield _expect_fail(bad, "flattened_helix_fails", "ex_1_3c", "pitch 0.5 must break positivity",
                       pitch=0.5, min_pairwise_q=bad.meta["min_pairwise_q"])
    yield is_q_positive(SWAP, ray_set())
    yield is_q_positive(SWAP, PointSet([[1.0, 0.0, 0.0]], label="singleton"))


def suite_remark_2_17(opts: SuiteOptions):
    grid = _grid(opts, n=121)
    f = half_sq_norm_fn(grid)
    pts = grid.points()
    rep = VerifyReport(grid=grid.to_dict(),
                       tolerances={"closed_form": tols.ATOL_CLOSED},
                       meta={"space": TWO.label})
    gap = f.values - TWO.q(pts)
    expected = 0.5 * (pts[:, 0] - pts[:, 1]) ** 2
    r = float(np.max(np.abs(gap - expected)))
    rep.add("gap_closed_form", "remark_2_17", r <= tols.ATOL_CLOSED, residual=r)
    p_expected = 0.5 * (pts[:, 0] + pts[:, 1]) ** 2
    rp = float(np.max(np.abs(TWO.p(pts) - p_expected)))
    rep.add("gauge_closed_form", "remark_2_17", rp <= tols.ATOL_CLOSED, residual=rp)
    vz = is_vz(f, TWO)
    rep.add("worked_example_vz", "remark_2_17", vz.passed,
            residual=vz.check("zero_infconv").worst_residual)
    touching = p_set(f, TWO)
    on_diag = len(touching) == int(grid.num[0]) and float(
        np.max(np.abs(touching.points[:, 0] - touching.points[:, 1]))) < 1e-12
    rep.add("touching_set_is_diagonal", "remark_2_17", on_diag,
            residual=0.0 if on_diag else 1.0)
    yield _tag(rep, vz_tol=vz.tolerances["tol"])
    probe = grid.subsample(2)
    db = dist_bounds_check(f, TWO, probe)
    yield db
    sharp = VerifyReport(grid=probe.to_dict(), tolerances={"window": 0.01})
    ratio = db.meta.get("max_ratio", float("nan"))
    ok = _SQRT2 - 0.01 <= ratio <= _SQRT2 + 1e-9
    sharp.add("sharpness_ratio", "eq_2_7_1", ok, residual=abs(ratio - _SQRT2),
              note=f"max distance ratio {ratio:.12f} vs sqrt(2)")
    yield sharp


def suite_lemma_1_6(opts: SuiteOptions):
    grid = _grid(opts)
    rng = np.random.default_rng(opts.seed)
    worked = half_sq_norm_fn(grid)
    cases = [
        (TWO, worked, "worked example"),
        (space_identity(2), q_plus_const_fn(space_identity(2), grid), "shifted form"),
        # the diagonal lies on the grid's nodes
        (TWO, phi_on_grid(TWO, diagonal_set(grid), grid), "diagonal representer"),
    ]
    for space, f, label in cases:
        pts = f.grid.points()
        gap = np.maximum(f.values - space.q(pts), 0.0)
        idx = rng.integers(0, pts.shape[0], size=(2000, 2))
        b, c = pts[idx[:, 0]], pts[idx[:, 1]]
        gb, gc = gap[idx[:, 0]], gap[idx[:, 1]]
        qbc = space.q(b - c)
        lhs = -qbc
        bound = (np.sqrt(gb) + np.sqrt(gc)) ** 2
        worst = float(np.max(lhs - bound))
        rep = VerifyReport(seed=opts.seed,
                           tolerances={"tol": tols.ATOL_GRID}, meta={"fn": label})
        rep.add("sqrt_gap_bound", "lemma_1_6", worst <= tols.ATOL_GRID,
                residual=max(0.0, worst))
        worst2 = float(np.max(lhs - (2 * gb + 2 * gc)))
        rep.add("doubled_gap_bound", "remark_1_7", worst2 <= tols.ATOL_GRID,
                residual=max(0.0, worst2))
        yield rep
    f = worked
    touching = p_set(f, TWO)
    fat = intrinsic_conjugate(f, TWO)
    sample = touching.points[:: max(1, len(touching) // 50)]
    sup, _ = sup_over_blocks([(Lattice(f.grid, TWO.pairing), f.values)], [sample])
    worst_pair = float(np.max(sup - TWO.q(sample), initial=0.0))
    worst_conj = float(np.max(np.abs(fat.values[f.grid.nearest_index(sample)] - TWO.q(sample)),
                              initial=0.0))
    rep = VerifyReport(tolerances={"tol": 1e-6})
    rep.add("touching_affine_bound", "lemma_1_11a", worst_pair <= 1e-6,
            residual=max(0.0, worst_pair))
    rep.add("touching_conjugate_value", "lemma_1_11b", worst_conj <= 1e-6,
            residual=worst_conj)
    yield rep


def suite_lemma_2_13(opts: SuiteOptions):
    grid = _grid(opts)
    if opts.point_set is not None:
        space = TWO if opts.point_set.dim == 2 else SWAP
        if opts.point_set.dim not in (2, 3):
            raise SsdkitError("built-in spaces cover dimensions 2 and 3 only")
        own_grid = _grid(opts, dim=opts.point_set.dim, n=61 if opts.point_set.dim == 2 else 17)
        rep = lemma_2_13_suite(fitz_triple(space, opts.point_set, own_grid))
        yield _tag(rep, set=opts.point_set.label or "user set")
        return
    yield _tag(lemma_2_13_suite(fitz_triple(TWO, diagonal_set(grid), grid)), set="diagonal")
    yield _tag(lemma_2_13_suite(fitz_triple(TWO, singleton_origin(2), grid)),
               set="origin singleton")
    grid3 = _grid(opts, dim=3, n=17)
    yield _tag(lemma_2_13_suite(fitz_triple(SWAP, helix_set(n=61, span=3.0), grid3)),
               set="helix sample")
    two_points = PointSet([[-1.0, -1.0], [1.0, 1.0]], label="two points")
    gap, witness = remark_2_14_gap(fitz_triple(space_zero_pairing(2), two_points, grid))
    rep = VerifyReport(grid=grid.to_dict(), tolerances={"min_gap": 0.5})
    rep.add("zero_pairing_gap", "remark_2_14", gap >= 0.5, residual=gap,
            witness=witness,
            note="conjugate-back and pullback-conjugate must differ here")
    yield rep


def suite_theorem_2_9(opts: SuiteOptions):
    grid = _grid(opts, n=121)
    f = half_sq_norm_fn(grid)
    yield dist_bounds_check(f, TWO, grid.subsample(2))
    c_grid = grid.subsample(2)
    diag = diagonal_set(c_grid)
    triple = fitz_triple(TWO, diag, c_grid)
    for fn, label in ((triple.phi_fn, "primal representer"),
                      (triple.star_theta_fn, "conjugate-back representer")):
        yield _tag(lemma_2_8_suite(TWO, diag, fn, c_grid), fn=label)


def suite_lemma_2_7(opts: SuiteOptions):
    n_points = 50
    grid = _grid(opts, n=121)
    f = half_sq_norm_fn(grid)
    rng = np.random.default_rng(opts.seed)
    nodes = grid.points()
    picks = nodes[rng.integers(0, nodes.shape[0], size=n_points)]
    slack = tols.set_radius(TWO, grid)
    rep = VerifyReport(grid=grid.to_dict(), seed=opts.seed,
                       tolerances={"epsilon": opts.epsilon, "cell_slack": slack})
    worst_cert = 0.0
    worst_dist = -np.inf
    for c in picks:
        trace = project_to_p(f, TWO, c, opts.epsilon)
        check = recheck_trace(trace, f, TWO)
        worst_cert = max(worst_cert, check.check("per_step_certificates").worst_residual)
        excess = trace.achieved_distance - (trace.bound() + slack)
        worst_dist = max(worst_dist, excess)
    rep.add("certificates_rechecked", "lemma_2_7a", worst_cert <= 1e-12,
            residual=worst_cert, note=f"{n_points} random starts")
    rep.add("distance_bound", "eq_2_7_2", worst_dist <= 0.0,
            residual=max(0.0, worst_dist))
    yield rep


def suite_theorem_2_15(opts: SuiteOptions):
    grid = _grid(opts)
    f = half_sq_norm_fn(grid)
    triple = fitz_triple(TWO, diagonal_set(grid), grid)
    phi_fn, star_fn = triple.phi_fn, triple.star_theta_fn
    candidates = {"primal representer": phi_fn, "conjugate-back": star_fn,
                  "midpoint": GridFn._raw(grid, 0.5 * (phi_fn.values + star_fn.values),
                                          form="midpoint")}
    for label, rep in zip(candidates, theorem_2_15_reports(TWO, f, candidates.values())):
        yield _tag(rep, candidate=label)


def suite_example_2_4(opts: SuiteOptions):
    ok = True
    for sp in SPECIAL:
        rep = dual_norm_check(sp, n_samples=100, seed=opts.seed)
        yield _tag(rep, norm=_norm(sp))
        back = sp.norm.dual().dual()
        ok &= (back.variant == sp.norm.variant
               and abs(back.tau - sp.norm.tau) < 1e-12
               and abs(back.scale - sp.norm.scale) < 1e-12)
    rep = VerifyReport(tolerances={"tol": 1e-12})
    rep.add("duality_involution", "ex_2_4", ok, residual=0.0 if ok else 1.0)
    rng = np.random.default_rng(opts.seed)
    pts = rng.normal(size=(500, 4))
    ordered = True
    for tau in (0.5, 1.0, 2.0):
        n1 = NormSpec("one", tau=tau)(pts)
        n2 = NormSpec("two", tau=tau)(pts)
        ni = NormSpec("inf", tau=tau)(pts)
        ordered &= bool(np.all(n1 <= n2 + 1e-12) and np.all(n2 <= ni + 1e-12))
    rep.add("norms_increase", "ex_2_4", ordered, residual=0.0 if ordered else 1.0)
    yield rep


def suite_example_4_4(opts: SuiteOptions):
    grid = _grid(opts)
    rep = VerifyReport(tolerances={"exact": 1e-12})
    try:
        space_nodual().dual
        rep.add("scaled_norm_has_no_dual", "ex_4_4", False, residual=1.0,
                note="construction unexpectedly succeeded")
    except NoDual as exc:
        w = np.asarray(exc.witness)
        exact = (np.allclose(w, [1.0, -1.0], atol=1e-12)
                 and abs(exc.value + 0.75) <= 1e-12)
        rep.add("scaled_norm_has_no_dual", "ex_4_4", exact,
                residual=abs(exc.value + 0.75), witness=w,
                note=f"negative dual gauge {exc.value!r} at the witness")
    yield rep
    for sp in SPECIAL:
        yield _tag(density_report(sp, grid), norm=_norm(sp))


def suite_lemma_4_7(opts: SuiteOptions):
    grid = _grid(opts, n=121)
    c_grid = grid.subsample(2)
    tol = 5e-3  # the zero-sum tolerance, recorded in each report
    f = half_sq_norm_fn(grid)
    yield _tag(lemma_4_7_identity(TWO, f, c_grid, tol=tol), fn="worked example")
    phi_fn = phi_on_grid(TWO, diagonal_set(c_grid), grid)
    yield _tag(lemma_4_7_identity(TWO, phi_fn, c_grid, tol=tol),
               fn="diagonal representer")
    ident = space_identity(2)
    rep = lemma_4_7_identity(ident, q_plus_const_fn(ident, grid), c_grid, tol=tol)
    yield _tag(rep, fn="shifted quadratic (terms +1/-1)")


def suite_theorem_4_9(opts: SuiteOptions):
    grid = _grid(opts)
    verdict_table = {}
    for sp in SPECIAL:
        dens = density_report(sp, grid)
        for name, fn in vz_catalog(sp, grid).items():
            rep = vz_mas_equivalence(sp, fn, dens)
            verdict_table.setdefault(name, set()).add(rep.meta["vz"])
            yield _tag(rep, norm=_norm(sp), fn=name)
    cross = VerifyReport(grid=grid.to_dict(),
                         meta={"norms": "3 kinds x tau in {0.5, 1, 2}"})
    stable = all(len(v) == 1 for v in verdict_table.values())
    cross.add("cross_norm_agreement", "thm_5_3", stable,
              residual=0.0 if stable else 1.0,
              note="identical verdicts across all special norms")
    expected = {"worked_example": True, "shifted_pairing_form": False,
                "phi_diagonal": True, "star_theta_diagonal": True}
    right = all(verdict_table[k] == {v} for k, v in expected.items())
    cross.add("expected_verdicts", "thm_4_9c", right,
              residual=0.0 if right else 1.0)
    yield cross


def suite_theorem_4_10(opts: SuiteOptions, sp=TWO):
    grid = _grid(opts)
    yield theorem_4_10_battery(fitz_triple(sp, diagonal_set(grid), grid),
                               density_report(sp, grid))


def suite_theorem_5_5(opts: SuiteOptions):
    diag = diagonal_set(default_grid())  # its alignment reports need (1, 1) on the set
    yield _tag(alignment_report(diag, [1.0], [-1.0], 1.0, 1.0),
               case="unit weights at (1, -1)")
    yield _tag(alignment_report(diag, [1.0], [-1.0], 4.0, 1.0), case="asymmetric weights")
    res0 = negative_alignment(diag, [1.0], [1.0], 1.0, 1.0)
    rep = VerifyReport(meta={"case": "point on the set"})
    rep.add("on_set_omega_zero", "thm_5_5b", res0.degenerate and res0.omega == 0.0,
            residual=res0.omega)
    yield rep
    rng = np.random.default_rng(opts.seed)
    omegas = []
    for _ in range(10):
        perm = rng.permutation(len(diag))
        shuffled = MonotoneSet(diag.points[perm])
        omegas.append(negative_alignment(shuffled, [1.0], [-1.0], 1.0, 1.0).omega)
    spread = max(omegas) - min(omegas)
    rep = VerifyReport(seed=opts.seed, tolerances={"tol": 1e-6})
    rep.add("omega_unique_across_restarts", "thm_5_5b", spread <= 1e-6,
            residual=spread, note="10 reorderings of the sample")
    yield rep
    grid = _grid(opts)
    yield _tag(projection_closure_check(half_sq_norm_fn(grid), TWO), fn="worked example")
    phi_sign = phi_on_grid(TWO, sign_graph_set(grid), grid)
    yield _tag(projection_closure_check(phi_sign, TWO), fn="sign-graph representer")


def suite_theorem_5_8(opts: SuiteOptions, sp=TWO):
    grid = _grid(opts)
    user = opts.point_set
    sets = ([(user.label or "user set", MonotoneSet(user.points, label=user.label))]
            if user is not None else
            [("diagonal", diagonal_set(grid)),
             ("clipped cubic graph", cubic_graph_set(grid)),
             ("sign graph", sign_graph_set(grid))])
    dens = density_report(sp, grid)
    for label, mset in sets:
        triple = fitz_triple(sp, mset, grid)
        yield _tag(theorem_5_8_battery(triple, dens), set=label)
        yield _tag(type_ni_check(sp, mset, grid), set=label)
        yield _tag(strongly_representable_check(mset, triple.phi_fn, sp), set=label)


def suite_remark_5_6(opts: SuiteOptions):
    grid = _grid(opts, n=121)
    c_grid = grid.subsample(2)
    yield _tag(remark_5_6_bound(diagonal_set(c_grid), half_sq_norm_fn(grid), TWO, c_grid),
               fn="worked example")
    cubic = cubic_graph_set(c_grid)
    phi_fn = phi_on_grid(TWO, cubic, c_grid)
    yield _tag(remark_5_6_bound(cubic, phi_fn, TWO, grid.subsample(4)),
               fn="cubic-graph representer")


def lower_hull_1d(xs, ys):
    """Monotone-chain lower convex hull, evaluated back at the sample abscissae."""
    order = np.lexsort((ys, xs))
    hull = []
    for x, y in zip(xs[order], ys[order]):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    return np.interp(xs, hx, hy)


def _random_convex_fn(rng, grid):
    kind = rng.integers(0, 2)
    d = grid.dim
    if kind == 0:
        k = int(rng.integers(3, 8))
        slopes = rng.uniform(-3, 3, size=(k, d))
        inters = rng.uniform(-1, 1, size=k)
        return GridFn.from_callable(
            grid, lambda p: np.max(np.atleast_2d(p) @ slopes.T + inters, axis=1),
            form="max of affine")
    r = rng.normal(size=(d, d))
    a = r @ r.T + 0.1 * np.eye(d)
    b = rng.uniform(-1, 1, size=d)
    return GridFn.from_callable(
        grid, lambda p: 0.5 * bilinear_rows(np.atleast_2d(p), a, np.atleast_2d(p))
                        + np.atleast_2d(p) @ b,
        form="random quadratic")


def suite_fenchel_moreau(opts: SuiteOptions):
    n_random = 20
    rng = np.random.default_rng(opts.seed)
    rep = VerifyReport(seed=opts.seed, tolerances={"bound": "5 * spacing * observed slope"})
    worst_margin = -np.inf
    for i in range(n_random):
        grid = (GridSpec.box(-3, 3, 121, 1) if i % 2 == 0
                else GridSpec.box(-2, 2, 41, 2))
        f = _random_convex_fn(rng, grid)
        fss = lsc_biconjugate_envelope(f)
        lip = tols.observed_lipschitz(f.values_nd(), grid.spacing)
        bound = 5.0 * float(np.max(grid.spacing)) * max(lip, 1e-12)
        err = float(np.max(np.abs(fss.values - f.values)))
        worst_margin = max(worst_margin, err - bound)
    rep.add("biconjugate_recovers_convex", "thm_6_1", worst_margin <= 0.0,
            residual=max(0.0, worst_margin), note=f"{n_random} random functions")
    grid = GridSpec.box(-2, 2, 81, 1)
    dw = double_well_fn(grid)
    fss = lsc_biconjugate_envelope(dw)
    hull = lower_hull_1d(grid.points()[:, 0], dw.values)
    lip = tols.observed_lipschitz(dw.values_nd(), grid.spacing)
    bound = 5.0 * float(grid.spacing[0]) * lip
    err = float(np.max(np.abs(fss.values - hull)))
    rep.add("double_well_hull", "thm_6_1", err <= bound, residual=err,
            note="independent lower-hull oracle")
    below = float(np.max(fss.values - dw.values))
    rep.add("biconjugate_below", "thm_6_1", below <= 1e-12,
            residual=max(0.0, below))
    yield rep


def suite_theorem_2_16(opts: SuiteOptions):
    grid = _grid(opts)
    triple = fitz_triple(TWO, diagonal_set(grid), grid)
    yield _tag(sigma_minorant_test(triple, triple.phi_fn), candidate="primal representer")
    a0 = np.array([1.0, 1.0])
    affine = GridFn.from_callable(
        grid, lambda p: np.atleast_2d(p) @ TWO.pairing @ a0 - TWO.q(a0),
        form="affine tangent")
    yield _tag(sigma_minorant_test(triple, affine), candidate="affine tangent")

SUITES = {
    "banach_ssd": suite_banach_ssd,
    "helix": suite_helix,
    "remark_2_17": suite_remark_2_17,
    "lemma_1_6": suite_lemma_1_6,
    "lemma_2_7": suite_lemma_2_7,
    "lemma_2_13": suite_lemma_2_13,
    "theorem_2_9": suite_theorem_2_9,
    "theorem_2_15": suite_theorem_2_15,
    "theorem_2_16": suite_theorem_2_16,
    "example_2_4": suite_example_2_4,
    "example_4_4": suite_example_4_4,
    "lemma_4_7": suite_lemma_4_7,
    "theorem_4_9": suite_theorem_4_9,
    "theorem_4_10": suite_theorem_4_10,
    "theorem_5_5": suite_theorem_5_5,
    "theorem_5_8": suite_theorem_5_8,
    "remark_5_6": suite_remark_5_6,
    "fenchel_moreau": suite_fenchel_moreau,
}


def _kernel_rows(ledger) -> list:
    """A kernel ledger grouped by (kernel, sources, targets), first seen first."""
    rows = {}
    for kernel, sources, targets, seconds in ledger:
        calls, total = rows.get((kernel, sources, targets), (0, 0.0))
        rows[kernel, sources, targets] = calls + 1, total + seconds
    return [dict(kernel=k, sources=s, targets=t, calls=n, wall_time=w)
            for (k, s, t), (n, w) in rows.items()]


def run_suite(name: str, opts: SuiteOptions | None = None) -> list[VerifyReport]:
    """Run one suite; each report is stamped with the suite's name, its wall
    time (the seconds since the previous report, the first: since the suite
    started, so shared setup is charged to the first report that needs it
    and the wall times add up to the suite's run time) and the kernels that
    ran in that time (`meta["kernels"]`)."""
    if name not in SUITES:
        raise SsdkitError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    reports = []
    mark = time.perf_counter()
    with kernel_ledger() as ledger:
        for rep in SUITES[name](opts or SuiteOptions()):
            now = time.perf_counter()
            rep.suite, rep.wall_time = name, now - mark
            rep.meta["kernels"] = _kernel_rows(ledger)
            ledger.clear()
            reports.append(rep)
            mark = now
    return reports
