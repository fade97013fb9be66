"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not deferred.
"""

import time

import numpy as np

from ssdkit import (
    NoDual,
    PreconditionFailed,
    fitz_triple,
    is_mas,
    is_q_positive,
    is_vz,
    lemma_2_13_suite,
    lsc_biconjugate_envelope,
    negative_alignment,
    p_set,
    project_to_p,
    recheck_trace,
    remark_2_14_gap,
    theorem_5_8_battery,
)
from ssdkit.catalog import (
    all_special_spaces,
    cubic_graph_set,
    default_grid,
    diagonal_set,
    double_well_fn,
    half_sq_norm_fn,
    helix_set,
    q_plus_const_fn,
    sign_graph_set,
    singleton_origin,
    space_nodual,
    space_r2_product,
    space_swap_r3,
)
from ssdkit.duality import density_report, lemma_4_7_identity, numerical_dual_norm
from ssdkit.monotone import MonotoneSet
from ssdkit.positivity import PointSet
from ssdkit.spaces import NormSpec, pairwise_norm, pairwise_q
from ssdkit.suites import _random_convex_fn, lower_hull_1d
from ssdkit.tolerances import cell_norm, observed_lipschitz

SQRT2 = np.sqrt(2.0)


def _line(num, ok, desc, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d}: {desc}{extra}")
    assert ok, f"criterion {num} failed: {desc}{extra}"


def test_criterion_01_worked_example_exact_reproduction():
    t0 = time.perf_counter()
    sp = space_r2_product("two", tau=1.0)
    grid = default_grid(2, -3.0, 3.0, 121)
    h = float(grid.spacing[0])
    f = half_sq_norm_fn(grid)
    pts = grid.points()
    failures = []

    gap = f.values - sp.q(pts)
    err_gap = float(np.max(np.abs(gap - 0.5 * (pts[:, 0] - pts[:, 1]) ** 2)))
    if err_gap > 1e-9:
        failures.append(f"gap closed form off by {err_gap:.2e}")

    touching = p_set(f, sp)
    neg_inf_q = -np.min(pairwise_q(sp, pts, touching.points), axis=1)
    err_infq = float(np.max(np.abs(neg_inf_q - 0.25 * (pts[:, 0] - pts[:, 1]) ** 2)))
    if err_infq > h * h:  # two half-cell offsets of the sampled minimizer
        failures.append(f"-inf q off by {err_infq:.2e} > {h * h:.2e}")

    probe = grid.subsample(2)
    ppts = probe.points()
    d = np.abs(ppts[:, 0] - ppts[:, 1])
    dist = np.min(pairwise_norm(sp, ppts, touching.points), axis=1)
    err_dist = float(np.max(np.abs(dist - d / SQRT2)))
    if err_dist > 1e-3:
        failures.append(f"distance off by {err_dist:.2e}")

    neg_probe = -np.min(pairwise_q(sp, ppts, touching.points), axis=1)
    off = d > 0
    ratios = dist[off] / np.sqrt(neg_probe[off])
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    if not (SQRT2 - 0.01 <= hi <= SQRT2 + 1e-9):
        failures.append(f"sharpness ratio max {hi!r} outside the window")
    if lo < SQRT2 - 0.01:
        failures.append(f"sharpness ratio min {lo!r} below the window")

    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _line(1, not failures, "worked-example exact reproduction",
          f" ({elapsed:.1f}s){'; '.join([''] + failures)}")


def test_criterion_02_helix_positivity():
    t0 = time.perf_counter()
    sp = space_swap_r3()
    rep = is_q_positive(sp, helix_set(pitch=1.0, n=200, span=10.0))
    failures = []
    if rep.meta["min_pairwise_q"] < -1e-12:
        failures.append(f"helix min pairwise {rep.meta['min_pairwise_q']:.2e}")
    flat = is_q_positive(sp, helix_set(pitch=0.5, n=200, span=10.0))
    if flat.passed:
        failures.append("flattened helix unexpectedly positive")
    else:
        b, c = (np.asarray(w) for w in flat.check("pairwise_gap").witness)
        if sp.q(b - c) >= 0:
            failures.append("reported witness pair does not violate")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _line(2, not failures, "helix positivity and flattened-helix witness",
          f" ({elapsed:.2f}s){'; '.join([''] + failures)}")


def test_criterion_03_dual_norms_r4():
    rng = np.random.default_rng(42)
    failures = []
    worst = 0.0
    for kind, dual_kind in (("one", "inf"), ("two", "two"), ("inf", "one")):
        for tau in (0.5, 1.0, 2.0):
            from ssdkit import product_space

            space = product_space(2, kind, tau=tau)
            claimed = NormSpec(dual_kind, tau=1.0 / tau)
            ys = rng.uniform(-3, 3, size=(100, 4))
            for y in ys:
                err = abs(numerical_dual_norm(space, y) - float(claimed(y)))
                worst = max(worst, err)
            if worst > 1e-4:
                failures.append(f"{kind},{tau:g}: dual norm off by {worst:.2e}")
                break
    _line(3, not failures, "split-norm duals on R^4 match their closed forms",
          f" (worst {worst:.2e}){'; '.join([''] + failures)}")


def test_criterion_04_no_dual_counterexample():
    failures = []
    try:
        space_nodual().dual
        failures.append("doubled norm unexpectedly admitted a dual")
    except NoDual as exc:
        w = np.asarray(exc.witness)
        if not np.allclose(w, [1.0, -1.0], atol=1e-12):
            failures.append(f"witness {w.tolist()} is not (1, -1)")
        if abs(exc.value - (-0.75)) > 1e-12:
            failures.append(f"value {exc.value!r} is not -0.75 to 1e-12")
    _line(4, not failures, "doubled-norm dual refusal with exact witness",
          "".join("; " + f for f in failures))


def test_criterion_05_two_sided_identity():
    t0 = time.perf_counter()
    sp = space_r2_product("two", tau=1.0)
    grid = default_grid(2, -3.0, 3.0, 121)
    c_grid = grid.subsample(2)
    failures = []
    f = half_sq_norm_fn(grid)
    rep = lemma_4_7_identity(sp, f, c_grid, tol=5e-3)
    r1 = rep.checks[0].worst_residual
    if not rep.passed:
        failures.append(f"worked example residual {r1:.2e}")
    phi_fn = fitz_triple(sp, diagonal_set(c_grid), grid).phi_fn
    rep2 = lemma_4_7_identity(sp, phi_fn, c_grid, tol=5e-3)
    r2 = rep2.checks[0].worst_residual
    if not rep2.passed:
        failures.append(f"diagonal representer residual {r2:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _line(5, not failures, "two-sided inf-convolution identity on the 61x61 probe",
          f" (residuals {r1:.1e}/{r2:.1e}, {elapsed:.1f}s){'; '.join([''] + failures)}")


def test_criterion_06_cross_norm_verdicts():
    grid = default_grid(2, -3.0, 3.0, 61)
    base = space_r2_product("two", tau=1.0)
    diag = diagonal_set(grid)
    triple = fitz_triple(base, diag, grid)
    fns = {
        "worked_example": half_sq_norm_fn(grid),
        "shifted_pairing_form": q_plus_const_fn(base, grid),
        "phi_diagonal": triple.phi_fn,
        "star_theta_diagonal": triple.star_theta_fn,
    }
    expected = {"worked_example": True, "shifted_pairing_form": False,
                "phi_diagonal": True, "star_theta_diagonal": True}
    failures = []
    vz_table = {name: set() for name in fns}
    mas_table = {name: set() for name in fns}
    for sp in all_special_spaces():
        for name, fn in fns.items():
            vz_table[name].add(is_vz(fn, sp).passed)
            mas_table[name].add(is_mas(fn, sp).passed)
    for name in fns:
        if len(vz_table[name]) != 1:
            failures.append(f"{name}: verdict varies across norms")
        elif vz_table[name] != {expected[name]}:
            failures.append(f"{name}: verdict {vz_table[name]} != {expected[name]}")
        if mas_table[name] != vz_table[name]:
            failures.append(f"{name}: two-sided test disagrees")
    _line(6, not failures,
          "identical verdicts across nine split norms and both predicates",
          "".join("; " + f for f in failures))


def test_criterion_07_representer_suite():
    sp = space_r2_product("two", tau=1.0)
    grid = default_grid(2, -3.0, 3.0, 61)
    failures = []
    exact_parts = ("a_two_formulas", "b_phi_touches", "e_star_below_q")
    grid_parts = ("f_sandwich_upper", "f_sandwich_lower", "g_equalities_on_set")

    for label, space, a, grd in (
            ("diagonal", sp, diagonal_set(grid), grid),
            ("helix", space_swap_r3(), helix_set(n=61, span=3.0),
             default_grid(3, -3.0, 3.0, 17)),
            ("singleton", sp, singleton_origin(2), grid)):
        rep = lemma_2_13_suite(fitz_triple(space, a, grd))
        for part in exact_parts:
            c = rep.check(part)
            if c.status != "pass" or c.worst_residual > 1e-12:
                failures.append(f"{label}/{part}: {c.status} {c.worst_residual:.1e}")
        for part in grid_parts:
            c = rep.check(part)
            if c.status != "pass" or c.worst_residual > 1e-6:
                failures.append(f"{label}/{part}: {c.status} {c.worst_residual:.1e}")
        if label == "diagonal":
            for part in ("h_phi_dominates_q", "h_set_in_touching",
                         "i_touching_sets_equal"):
                if rep.check(part).status != "pass":
                    failures.append(f"diagonal/{part} not passing")

    from ssdkit.catalog import space_zero_pairing

    gap, _ = remark_2_14_gap(fitz_triple(space_zero_pairing(2),
                                         PointSet([[-1.0, -1.0], [1.0, 1.0]]), grid))
    if gap < 0.5:
        failures.append(f"zero-pairing gap {gap:.3f} < 0.5")
    _line(7, not failures, "representer identities on diagonal/helix/singleton",
          f" (zero-pairing gap {gap:.2f})" + "".join("; " + f for f in failures))


def test_criterion_08_projection_certificates():
    sp = space_r2_product("two", tau=1.0)
    grid = default_grid(2, -3.0, 3.0, 121)
    f = half_sq_norm_fn(grid)
    rng = np.random.default_rng(42)
    nodes = grid.points()
    cell = cell_norm(sp, grid)
    eps = 0.5
    failures = []
    worst_cert = 0.0
    worst_excess = -np.inf
    for c in nodes[rng.integers(0, nodes.shape[0], size=50)]:
        trace = project_to_p(f, sp, c, eps)
        check = recheck_trace(trace, f, sp)
        worst_cert = max(worst_cert, check.check("per_step_certificates").worst_residual)
        excess = trace.achieved_distance - ((1 + eps) * SQRT2 * trace.alpha + 2 * cell)
        worst_excess = max(worst_excess, excess)
    if worst_cert > 1e-12:
        failures.append(f"certificate recheck residual {worst_cert:.2e}")
    if worst_excess > 0:
        failures.append(f"distance bound exceeded by {worst_excess:.2e}")
    _line(8, not failures, "projection certificates rechecked on 50 random starts",
          f" (worst excess {worst_excess:.1e})" + "".join("; " + f for f in failures))


def test_criterion_09_alignment_extraction():
    diag = diagonal_set(default_grid())
    failures = []
    res = negative_alignment(diag, [1.0], [-1.0], 1.0, 1.0)
    if abs(res.omega - 1.0) > 1e-6:
        failures.append(f"omega {res.omega!r}")
    if max(abs(res.rho - 1.0), abs(res.sigma - 1.0), abs(res.inner + 1.0)) > 1e-6:
        failures.append(f"limits ({res.rho}, {res.sigma}, {res.inner})")
    rng = np.random.default_rng(42)
    omegas = []
    for _ in range(10):
        perm = rng.permutation(len(diag))
        shuffled = MonotoneSet(diag.points[perm])
        omegas.append(negative_alignment(shuffled, [1.0], [-1.0], 1.0, 1.0).omega)
    spread = max(omegas) - min(omegas)
    if spread > 1e-6:
        failures.append(f"omega spread {spread:.2e}")
    _line(9, not failures, "balanced-approach extraction at (1, -1)",
          f" (omega {res.omega:.9f}, spread {spread:.1e})"
          + "".join("; " + f for f in failures))


def test_criterion_10_biconjugation():
    rng = np.random.default_rng(42)
    failures = []
    worst_margin = -np.inf
    for i in range(20):
        grid = (default_grid(1, -3.0, 3.0, 121) if i % 2 == 0
                else default_grid(2, -2.0, 2.0, 41))
        f = _random_convex_fn(rng, grid)
        fss = lsc_biconjugate_envelope(f)
        lip = observed_lipschitz(f.values_nd(), grid.spacing)
        bound = 5.0 * float(np.max(grid.spacing)) * max(lip, 1e-12)
        err = float(np.max(np.abs(fss.values - f.values)))
        worst_margin = max(worst_margin, err - bound)
        if err > bound:
            failures.append(f"random fn {i}: {err:.2e} > {bound:.2e}")
            break
    grid = default_grid(1, -2.0, 2.0, 81)
    dw = double_well_fn(grid)
    fss = lsc_biconjugate_envelope(dw)
    hull = lower_hull_1d(grid.points()[:, 0], dw.values)
    lip = observed_lipschitz(dw.values_nd(), grid.spacing)
    bound = 5.0 * float(grid.spacing[0]) * lip
    err_hull = float(np.max(np.abs(fss.values - hull)))
    if err_hull > bound:
        failures.append(f"double well vs hull oracle: {err_hull:.2e} > {bound:.2e}")
    _line(10, not failures, "biconjugation recovers convex samples and hulls",
          f" (worst margin {worst_margin:.1e}, hull err {err_hull:.1e})"
          + "".join("; " + f for f in failures))


def test_criterion_11_equivalence_batteries():
    sp = space_r2_product("two", tau=1.0)
    grid = default_grid(2, -3.0, 3.0, 61)
    dens = density_report(sp, grid)
    failures = []
    for label, mset in (("diagonal", diagonal_set(grid)),
                        ("cubic graph", cubic_graph_set(grid)),
                        ("sign graph", sign_graph_set(grid))):
        rep = theorem_5_8_battery(fitz_triple(sp, mset, grid), dens)
        for cid in ("a_infqt_nonpositive", "b_theta_dominates_qt",
                    "c_phistar_dominates_qt", "f_phi_vz", "g_star_vz",
                    "b_classical_form", "unanimity"):
            c = rep.check(cid)
            if c.status != "pass":
                failures.append(f"{label}/{cid}: {c.status}")
        if not all(rep.meta["verdicts"].values()):
            failures.append(f"{label}: conditions not unanimously true")
    refused = False
    try:
        theorem_5_8_battery(fitz_triple(sp, singleton_origin(2), grid), dens)
    except PreconditionFailed:
        refused = True
    if not refused:
        failures.append("singleton battery was not refused")
    import tempfile
    from pathlib import Path

    from ssdkit.cli import main

    with tempfile.TemporaryDirectory() as td:
        setfile = Path(td) / "singleton.csv"
        np.savetxt(setfile, np.zeros((1, 2)), delimiter=",")
        code = main(["verify", "--suite", "theorem_5_8", "--set", str(setfile),
                     "--out", td])
        if code != 2:
            failures.append(f"CLI exit {code} != 2 for the refused battery")
    _line(11, not failures, "equivalence batteries unanimous; non-maximal set refused",
          "".join("; " + f for f in failures))
