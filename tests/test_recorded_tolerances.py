"""Every report records, under `tolerances["tol"]`, the value that decided its
verdict, including the checks whose tolerance is fixed rather than passed."""

import numpy as np
import pytest

from ssdkit import (
    alignment_report,
    check_banach_ssd,
    dist_bounds_check,
    dual_norm_check,
    fitz_triple,
    is_maximally_q_positive,
    is_vz,
    lemma_2_8_suite,
    lipschitz_checks,
    remark_5_6_bound,
    sigma_minorant_test,
    strongly_representable_check,
    theorem_2_15_reports,
    theorem_4_10_battery,
    theorem_5_8_battery,
    type_ni_check,
)
from ssdkit import tolerances as tols
from ssdkit.catalog import diagonal_set, half_sq_norm_fn, space_r2_product
from ssdkit.grids import GridSpec
from ssdkit.suites import SuiteOptions, run_suite


def _sigma_tol(space, a, h):
    """The sigma-minorant bound, re-derived: half of (h's slope + 1) times
    the dual spacing of the triple."""
    triple = fitz_triple(space, a, h.grid)
    h_d = float(np.max(triple.theta_fn.grid.spacing))
    lip = tols.observed_lipschitz(h.values_nd(), h.grid.spacing)
    return max(tols.ATOL_GRID, 0.5 * (lip + 1.0) * h_d)


CASES = {
    "is_vz": lambda c: (is_vz(c.worked_fn61, c.prod_space),
                        tols.vz_tolerance(c.worked_fn61)),
    "sigma_minorant_test": lambda c: (
        sigma_minorant_test(fitz_triple(c.prod_space, c.diag121, c.grid61), c.phi61),
        _sigma_tol(c.prod_space, c.diag121, c.phi61)),
    "theorem_2_15_reports_no_candidate": lambda c: (
        next(theorem_2_15_reports(c.prod_space, c.worked_fn61, [None])), tols.ATOL_GRID),
    "theorem_2_15_reports": lambda c: (
        next(theorem_2_15_reports(c.prod_space, c.worked_fn61, [c.phi61])), tols.ATOL_GRID),
    "theorem_4_10_battery": lambda c: (
        theorem_4_10_battery(c.diag_triple61, c.density61), tols.ATOL_GRID),
    "theorem_5_8_battery": lambda c: (
        theorem_5_8_battery(c.diag_triple61, c.density61), tols.ATOL_GRID),
    "type_ni_check": lambda c: (
        type_ni_check(c.prod_space, c.diag121, c.grid61), tols.ATOL_GRID),
    "strongly_representable_check": lambda c: (
        strongly_representable_check(c.diag121, c.phi61, c.prod_space),
        tols.ATOL_GRID),
    "alignment_report": lambda c: (alignment_report(c.diag121, [1.0], [-1.0], 1.0, 1.0), 1e-6),
    "remark_5_6_bound": lambda c: (
        remark_5_6_bound(c.diag121, c.worked_fn61, c.prod_space, c.grid61.subsample(2)),
        tols.ATOL_GRID),
    "check_banach_ssd": lambda c: (check_banach_ssd(c.ident2), 1e-9),
    "check_banach_ssd_sampled": lambda c: (check_banach_ssd(c.prod_space, probe=c.grid61),
                                           1e-9),
    "lipschitz_checks": lambda c: (lipschitz_checks(c.prod_space, n_pairs=200), 1e-9),
    "dist_bounds_check": lambda c: (
        dist_bounds_check(c.worked_fn61, c.prod_space, c.grid61.subsample(2)),
        tols.ATOL_GRID),
    "lemma_2_8_suite": lambda c: (
        lemma_2_8_suite(c.prod_space, c.diag121, c.phi61, c.grid61),
        tols.one_cell_p_bound(c.prod_space, c.grid61)),
    "dual_norm_check": lambda c: (dual_norm_check(c.prod_space, n_samples=20),
                                  1e-4),
}


class _Context:
    def __init__(self, request):
        self._request = request

    def __getattr__(self, name):
        if name == "diag_triple61":
            return fitz_triple(self.prod_space, self.diag121, self.grid61)
        if name == "phi61":
            return self.diag_triple61.phi_fn
        return self._request.getfixturevalue(name)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_records_its_deciding_tolerance(case, request):
    report, expected = CASES[case](_Context(request))
    assert report.tolerances["tol"] == expected


# a square grid, and one whose axes have unequal spacings (0.1 and 0.15), so
# that the two-cell radius takes its max over the axes
SLACK_GRIDS = {
    "square": GridSpec.box(-3.0, 3.0, 61, 2),
    "unequal": GridSpec(np.array([-3.0, -3.0]), np.array([3.0, 3.0]), np.array([61, 41])),
}


def _recorded_slacks(space, grid):
    """Each two-cell slack that a report on `grid` records, by report."""
    diag = diagonal_set(grid)
    fn = half_sq_norm_fn(grid)
    phi = fitz_triple(space, diag, grid).phi_fn
    dist = dist_bounds_check(fn, space, grid)
    lemma_2_7, = run_suite("lemma_2_7", SuiteOptions(grid=grid))
    return {
        "dist_tol": is_maximally_q_positive(space, diag, grid).tolerances["dist_tol"],
        "dist_bounds_check": dist.tolerances["cell_slack"],
        "ratio_floor": dist.meta["ratio_floor"],
        "lemma_2_8": lemma_2_8_suite(space, diag, phi, grid).tolerances["cell_slack"],
        "remark_5_6": remark_5_6_bound(diag, fn, space, grid).tolerances["cell_slack"],
        "set_radius": strongly_representable_check(diag, phi, space).tolerances["set_radius"],
        "lemma_2_7": lemma_2_7.tolerances["cell_slack"],
    }


@pytest.mark.parametrize("grid", sorted(SLACK_GRIDS))
def test_two_cell_slacks_are_the_set_radius(grid, prod_space):
    probe = SLACK_GRIDS[grid]
    radius = tols.set_radius(prod_space, probe)
    assert tols.set_radius(space_r2_product("two"), probe) == radius  # lemma_2_7's space
    recorded = _recorded_slacks(prod_space, probe)
    assert recorded == dict.fromkeys(recorded, radius) | {"ratio_floor": 4.0 * radius ** 2}
