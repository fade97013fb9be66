import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdkit import (
    GridFn,
    GridMismatch,
    GridSpec,
    HNotFinite,
    Improper,
    NotConvex,
    conjugate,
    conjugate_composition_gap,
    fitz_triple,
    inf_conv,
    intrinsic_conjugate,
    is_mas,
    is_vz,
    lsc_biconjugate_envelope,
    rockafellar_sum_identity,
)
from ssdkit.catalog import (
    default_grid,
    diagonal_set,
    double_well_fn,
    half_sq_norm_fn,
    q_plus_const_fn,
    space_identity,
    space_negated,
    space_r2_product,
    space_swap_r3,
    space_zero_pairing,
)
from ssdkit.gridfn import (
    Lattice,
    block_points,
    min_values_plus_gauge,
    sup_linear_minus,
    sup_over_blocks,
    zero_infconv_residuals,
)
from ssdkit.grids import image_box
from ssdkit.kernels import kernel_ledger
from ssdkit.spaces import (
    NormSpec,
    SsdSpace,
    pairwise_g,
    pairwise_norm,
    pairwise_p,
    pairwise_q,
    pairwise_sq_dists,
    product_space,
    swap_matrix,
)
from ssdkit.suites import lower_hull_1d

from conftest import (
    brute_force_conjugate,
    brute_force_min_plus,
    indicator_fn,
    lexsort_distinct_rows,
    loop_rescore,
    loop_sweep_axis,
    scan_convexity_defect,
    take_along_sup_separable,
)


class TestGridSpecNodes:
    """A grid builds its axes and nodes once, read-only, and shares them with
    no other grid."""

    @pytest.mark.parametrize("lower,upper,num", [([-1.0], [2.0], [7]),
                                                 ([-3.0, 0.0], [3.0, 1.0], [61, 5]),
                                                 ([0.0, -1.0, 2.0], [1.0, 1.0, 4.0], [3, 4, 5])])
    def test_nodes_equal_the_meshgrid_construction(self, lower, upper, num):
        grid = GridSpec(np.array(lower), np.array(upper), np.array(num))
        axes = [np.linspace(lo, hi, k) for lo, hi, k in zip(lower, upper, num)]
        mesh = np.meshgrid(*axes, indexing="ij")
        want = np.stack([m.ravel() for m in mesh], axis=1)
        assert len(grid.axes()) == len(axes)
        for got, ax in zip(grid.axes(), axes):
            assert np.array_equal(got, ax)
        assert np.array_equal(grid.points(), want)

    def test_repeat_calls_return_the_same_read_only_arrays(self):
        grid = GridSpec.box(-3.0, 3.0, 11, 2)
        pts, axes = grid.points(), grid.axes()
        assert grid.points() is pts and grid.axes() is axes
        with pytest.raises(ValueError, match="read-only"):
            pts[0, 0] = 1.0
        for ax in axes:
            with pytest.raises(ValueError, match="read-only"):
                ax += 1.0
        assert np.array_equal(pts, GridSpec.box(-3.0, 3.0, 11, 2).points())

    def test_equal_boxes_share_nothing(self):
        a, b = GridSpec.box(-1, 1, 5, 2), GridSpec.box(-1, 1, 5, 2)
        assert a.points() is not b.points()
        assert not np.shares_memory(a.points(), b.points())
        assert all(x is not y for x, y in zip(a.axes(), b.axes()))

    def test_non_dividing_subsample_is_a_refusal(self):
        from ssdkit import PreconditionFailed

        grid = GridSpec.box(-3, 3, 31, 2)
        assert grid.subsample(2).shape() == (16, 16)
        with pytest.raises(PreconditionFailed, match="step must divide"):
            grid.subsample(4)


class TestGridFnBasics:
    def test_all_inf_is_improper(self):
        grid = GridSpec.box(-1, 1, 5, 1)
        with pytest.raises(Improper):
            GridFn(grid, np.full(5, np.inf))

    def test_grid_budget_enforced(self, monkeypatch):
        from ssdkit import BudgetExceeded

        monkeypatch.setenv("SSDKIT_BUDGET", "1000")
        with pytest.raises(BudgetExceeded):
            GridSpec.box(-1, 1, 40, 2)
        GridSpec.box(-1, 1, 31, 2)  # 961 points fits

    def test_minus_inf_rejected(self):
        grid = GridSpec.box(-1, 1, 5, 1)
        with pytest.raises(ValueError):
            GridFn(grid, np.array([0, 1, -np.inf, 1, 0.0]))

    def test_concave_sample_rejected(self):
        grid = GridSpec.box(-2, 2, 21, 2)
        space = space_negated(2)
        with pytest.raises(NotConvex):
            GridFn.from_callable(grid, lambda p: space.q(np.atleast_2d(p)))

    def test_two_point_indicator_needs_optout(self, grid61):
        pts = [[-1.0, -1.0], [1.0, 1.0]]
        with pytest.raises(NotConvex):
            GridFn(grid61, indicator_fn(grid61, pts).values)
        fn = indicator_fn(grid61, pts)
        assert np.isfinite(fn.values).sum() == 2

    def test_interpolation_exact_at_nodes_inf_outside(self, worked_fn61, grid61):
        nodes = grid61.points()[:50]
        assert worked_fn61.evaluate(nodes) == pytest.approx(worked_fn61.values[:50])
        sampled = GridFn(grid61, worked_fn61.values)  # drop the exact tag
        assert sampled.evaluate(np.array([[10.0, 0.0]]))[0] == np.inf

    def test_csv_roundtrip(self, tmp_path, grid61):
        fn = indicator_fn(grid61, [[0.0, 0.0]])
        path = tmp_path / "fn.csv"
        fn.to_csv(path)
        back = GridFn.from_csv(path)
        assert fn.grid.same(back.grid)
        assert np.array_equal(fn.values, back.values)

    def test_csv_encodes_inf_literal(self, tmp_path, grid61):
        fn = indicator_fn(grid61, [[0.0, 0.0]])
        path = tmp_path / "fn.csv"
        fn.to_csv(path)
        assert "inf\n" in path.read_text()

    def test_csv_bytes_match_line_by_line_writer(self, tmp_path):
        grid = GridSpec(np.array([-1.5, 0.0]), np.array([2.0, 1.0 / 3.0]), np.array([7, 5]))
        rng = np.random.default_rng(4)
        vals = rng.normal(size=grid.size) * 10.0 ** rng.integers(-17, 18, size=grid.size)
        vals[[0, 5, 17]] = np.inf
        vals[[1, 9]] = -0.0
        vals[2] = 0.0
        fn = GridFn._raw(grid, vals)
        path = tmp_path / "fn.csv"
        fn.to_csv(path)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", encoding="utf-8") as fh:
            fh.write(f"dim,{grid.dim}\n")
            for i in range(grid.dim):
                fh.write(f"axis,{i},{float(grid.lower[i])!r},"
                         f"{float(grid.upper[i])!r},{int(grid.num[i])}\n")
            fh.write("values\n")
            for v in fn.values:
                fh.write("inf\n" if np.isposinf(v) else f"{float(v)!r}\n")
        assert path.read_bytes() == ref.read_bytes()
        back = GridFn.from_csv(path)
        assert back.grid.same(fn.grid)
        assert np.array_equal(_bits(back.values), _bits(fn.values))
        assert b"\n-0.0\n" in path.read_bytes()


class TestConjugate:
    def test_half_sq_norm_self_conjugate(self, worked_fn61, grid61):
        star = conjugate(worked_fn61, grid61)
        expected = 0.5 * np.sum(grid61.points() ** 2, axis=1)
        assert np.max(np.abs(star.values - expected)) < 2.6e-3  # h^2/4 per axis

    def test_matches_brute_force_loop(self, grid61, worked_fn121):
        rng = np.random.default_rng(6)
        targets = rng.uniform(-2, 2, size=(7, 2))
        small = GridSpec.box(-2, 2, 9, 2)
        fn = half_sq_norm_fn(small)
        got = conjugate(fn, grid61).evaluate  # not used; direct kernel below
        from ssdkit.gridfn import sup_linear_minus

        vals, _ = sup_linear_minus(small.points(), fn.values, targets)
        ref = brute_force_conjugate(small.points(), fn.values, targets)
        assert vals == pytest.approx(ref, abs=1e-12)

    def test_singleton_indicator_conjugate_is_linear(self, grid61):
        a = np.array([1.0, -0.5])
        fn = indicator_fn(grid61, [a])
        star = conjugate(fn, grid61)
        expected = grid61.points() @ a
        assert star.values == pytest.approx(expected, abs=1e-12)

    def test_fenchel_young_on_all_grid_pairs(self, grid61):
        fn = half_sq_norm_fn(GridSpec.box(-2, 2, 21, 2))
        dual = GridSpec.box(-2, 2, 21, 2)
        star = conjugate(fn, dual)
        x = fn.grid.points()
        y = dual.points()
        lhs = x @ y.T
        rhs = fn.values[:, None] + star.values[None, :]
        assert np.all(lhs <= rhs + 1e-9)

    def test_improper_input_raises(self, grid61):
        with pytest.raises(Improper):
            vals = np.full(grid61.size, np.inf)
            vals[0] = 0.0
            fn = GridFn._raw(grid61, vals)
            object.__setattr__(fn, "values", np.full(grid61.size, np.inf))
            conjugate(fn, grid61)

    @given(st.integers(min_value=0, max_value=440))
    @settings(max_examples=40, deadline=None)
    def test_order_reversal(self, shift_idx):
        grid = GridSpec.box(-2, 2, 21, 1)
        xs = grid.points()[:, 0]
        f_vals = 0.5 * xs**2
        g_vals = f_vals + 0.1 + (shift_idx % 7) * 0.05
        f = GridFn._raw(grid, f_vals)
        g = GridFn._raw(grid, g_vals)
        fstar = conjugate(f, grid)
        gstar = conjugate(g, grid)
        assert np.all(fstar.values >= gstar.values - 1e-12)


class TestIntrinsicConjugate:
    def test_worked_example_fixed_under_swap(self, prod_space, worked_fn61):
        fat = intrinsic_conjugate(worked_fn61, prod_space)
        # sup_b [b1 c2 + b2 c1 - |b|^2/2] = |c|^2/2, attained at the swapped node
        assert fat.values == pytest.approx(worked_fn61.values, abs=1e-10)

    def test_identity_pairing_self_conjugacy(self, ident2, grid61):
        f = half_sq_norm_fn(grid61)
        fat = intrinsic_conjugate(f, ident2)
        assert np.max(np.abs(fat.values - f.values)) < 2.6e-3

    def test_zero_pairing_gives_constant(self, grid61):
        space = space_zero_pairing(2)
        f = half_sq_norm_fn(grid61)
        fat = intrinsic_conjugate(f, space)
        assert fat.values == pytest.approx(np.full(grid61.size, -np.min(f.values)), abs=1e-12)

    def test_composition_route_agrees(self, prod_space, worked_fn61, grid61):
        dual_grid = image_box(grid61, prod_space.pairing, inflate=1.5, include_source=True)
        gap = conjugate_composition_gap(worked_fn61, prod_space, dual_grid)
        assert gap < 5e-2  # interpolated route on the inflated dual box

    def test_composition_route_exact_on_matched_grid(self, prod_space, worked_fn61, grid61):
        gap = conjugate_composition_gap(worked_fn61, prod_space, grid61)
        assert gap < 1e-10  # swap maps nodes to nodes: both routes identical


class TestInfConv:
    def test_indicator_of_zero_is_identity_element(self, grid61, worked_fn61):
        delta = indicator_fn(grid61, [[0.0, 0.0]])
        out = inf_conv(worked_fn61, delta)
        assert out.values == pytest.approx(worked_fn61.values, abs=1e-12)

    def test_quadratic_selfconv_halves_curvature(self):
        grid = GridSpec.box(-4, 4, 81, 1)
        f = GridFn.from_callable(grid, lambda p: 0.5 * np.atleast_2d(p)[:, 0] ** 2)
        out = inf_conv(f, f)
        xs = grid.points()[:, 0]
        # grid minimizer misses x/2 by at most h/2: error bounded by h^2/4
        assert out.values == pytest.approx(0.25 * xs**2, abs=grid.spacing[0] ** 2 / 4 + 1e-12)
        # independent brute force at a few points
        for x in (-1.7, 0.3, 2.2):
            ref = np.min(0.5 * xs**2 + 0.5 * (x - xs) ** 2)
            j = int(np.argmin(np.abs(xs - x)))
            assert out.values[j] == pytest.approx(ref, abs=1e-2)

    def test_grid_mismatch_rejected(self, grid61, worked_fn61):
        other = GridSpec.box(-2, 2, 21, 2)
        with pytest.raises(GridMismatch):
            inf_conv(worked_fn61, half_sq_norm_fn(other))

    def test_callable_kernel_matches_gridfn_kernel(self, prod_space, grid61, worked_fn61):
        fq = GridFn._raw(grid61, worked_fn61.values - prod_space.q(grid61.points()))
        via_callable = inf_conv(fq, lambda pts: prod_space.p(np.atleast_2d(pts)))
        fast, _ = zero_infconv_residuals(worked_fn61, prod_space, grid61.points())
        assert via_callable.values == pytest.approx(fast, abs=1e-10)

    def test_zero_infimum_transfer(self, prod_space, grid61, worked_fn61):
        # inf k = 0 implies inf(h conv k) = inf h on the grid
        fq = GridFn._raw(grid61, worked_fn61.values - prod_space.q(grid61.points()))
        out = inf_conv(fq, lambda pts: prod_space.p(np.atleast_2d(pts)))
        assert abs(np.min(out.values) - np.min(fq.values)) < 1e-9

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_zero_infimum_transfer_random(self, slope, shift):
        grid = GridSpec.box(-3, 3, 31, 1)
        xs = grid.points()[:, 0]
        h = GridFn._raw(grid, np.abs(slope * xs) + shift)
        k_vals = (xs - 1.0) ** 2
        k = GridFn._raw(grid, k_vals - k_vals.min())
        out = inf_conv(h, k)
        assert abs(np.min(out.values) - np.min(h.values)) <= 1e-9


class TestBiconjugate:
    def test_convex_quadratic_recovered(self):
        grid = GridSpec.box(-3, 3, 61, 1)
        f = GridFn.from_callable(grid, lambda p: 0.7 * np.atleast_2d(p)[:, 0] ** 2 + 0.3)
        fss = lsc_biconjugate_envelope(f)
        lip = 0.7 * 6 + 0.1
        h = grid.spacing[0]
        assert np.all(fss.values <= f.values + 1e-12)
        assert np.max(np.abs(fss.values - f.values)) <= 5 * h * lip

    def test_double_well_matches_hull_oracle(self):
        grid = GridSpec.box(-2, 2, 81, 1)
        f = double_well_fn(grid)
        fss = lsc_biconjugate_envelope(f)
        xs = grid.points()[:, 0]
        hull = lower_hull_1d(xs, f.values)
        h = grid.spacing[0]
        lip = float(np.max(np.abs(np.diff(f.values)))) / h
        assert np.max(np.abs(fss.values - hull)) <= 5 * h * lip

    def test_two_point_indicator_flattens_to_segment(self, grid61):
        f = indicator_fn(grid61, [[-1.0, -1.0], [1.0, 1.0]])
        fss = lsc_biconjugate_envelope(f)
        pts = grid61.points()
        on_segment = (np.abs(pts[:, 0] - pts[:, 1]) < 1e-9) & (np.abs(pts[:, 0]) <= 1.0)
        assert np.max(np.abs(fss.values[on_segment])) < 1e-8
        off = ~on_segment & (np.abs(pts[:, 0] - pts[:, 1]) > 0.5)
        assert np.min(fss.values[off]) > 0.1

    def test_idempotence(self):
        grid = GridSpec.box(-2, 2, 41, 1)
        f = double_well_fn(grid)
        once = lsc_biconjugate_envelope(f)
        twice = lsc_biconjugate_envelope(once)
        assert np.max(np.abs(twice.values - once.values)) < 1e-8

    def test_never_exceeds_input(self):
        grid = GridSpec.box(-2, 2, 41, 2)
        rng = np.random.default_rng(7)
        vals = rng.uniform(0, 3, size=grid.size)
        f = GridFn._raw(grid, vals)
        fss = lsc_biconjugate_envelope(f)
        assert np.all(fss.values <= vals + 1e-12)


class TestVzMas:
    def test_worked_example_is_vz(self, prod_space, worked_fn121):
        assert is_vz(worked_fn121, prod_space).passed

    def test_shifted_form_fails_both_ways(self, prod_space, grid61):
        f = q_plus_const_fn(prod_space, grid61)
        vz = is_vz(f, prod_space)
        assert not vz.passed
        assert vz.check("zero_gap_infimum").worst_residual == pytest.approx(1.0)
        mas = is_mas(f, prod_space)
        assert not mas.passed

    def test_concave_q_rejected_at_construction(self, grid61):
        space = space_negated(2)
        with pytest.raises(NotConvex):
            GridFn.from_callable(grid61, lambda p: space.q(np.atleast_2d(p)))

    def test_worked_example_is_mas(self, prod_space, worked_fn121):
        rep = is_mas(worked_fn121, prod_space)
        assert rep.passed

    def test_representers_pass_both(self, prod_space, grid61, diag121):
        triple = fitz_triple(prod_space, diag121, grid61)
        for fn in (triple.phi_fn, triple.star_theta_fn):
            assert is_vz(fn, prod_space).passed
            assert is_mas(fn, prod_space).passed

    def test_vz_for_remark_2_17_has_closed_form_gap(self, prod_space, worked_fn121, grid121):
        # (f - q)(x) = (x1 - x2)^2 / 2 exactly
        pts = grid121.points()
        gap = worked_fn121.values - prod_space.q(pts)
        expected = 0.5 * (pts[:, 0] - pts[:, 1]) ** 2
        assert np.max(np.abs(gap - expected)) < 1e-9

    def test_biconjugate_of_vz_function_stays_vz(self, prod_space, grid61, worked_fn61):
        fss = lsc_biconjugate_envelope(worked_fn61)
        assert is_vz(fss, prod_space).passed

    def test_pairing_conjugate_of_vz_is_vz_with_same_touching_set(
            self, prod_space, grid61, worked_fn61):
        from ssdkit import p_set
        from ssdkit.positivity import sets_match

        fat = intrinsic_conjugate(worked_fn61, prod_space)
        assert is_vz(fat, prod_space).passed
        same, dist, _ = sets_match(prod_space, p_set(worked_fn61, prod_space).points,
                                   p_set(fat, prod_space).points, grid61)
        assert same, dist

    def test_touching_point_affine_inequality(self, prod_space, worked_fn121, grid121):
        # for a touching point a and any grid b: pair(b, a) <= q(a) + f(b)
        from ssdkit import p_set

        touching = p_set(worked_fn121, prod_space)
        pts = grid121.points()
        fat = intrinsic_conjugate(worked_fn121, prod_space)
        for a in touching.points[::20]:
            lhs = pts @ prod_space.pairing @ a
            assert np.max(lhs - (prod_space.q(a) + worked_fn121.values)) <= 1e-9
            # and the pairing-conjugate returns the touching value there
            idx = grid121.nearest_index(a)
            assert abs(fat.values[idx] - prod_space.q(a)) <= 1e-9


    def test_lemma_1_11_report_matches_per_point_loop(self, prod_space):
        # the suite's one sup over the sampled touching points against the
        # per-point loop it replaced, and the row form of nearest_index
        from ssdkit import p_set
        from ssdkit.catalog import default_grid, half_sq_norm_fn
        from ssdkit.suites import run_suite

        grid = default_grid(2, -3.0, 3.0, 61)  # the suite's default grid
        f = half_sq_norm_fn(grid)
        touching = p_set(f, prod_space)
        fat = intrinsic_conjugate(f, prod_space)
        sample = touching.points[:: max(1, len(touching) // 50)]
        worst_pair = worst_conj = 0.0
        per_point = []
        for a in sample:
            vals = grid.points() @ prod_space.pairing @ a - (prod_space.q(a) + f.values)
            per_point.append(float(np.max(vals)))
            worst_pair = max(worst_pair, per_point[-1])
            worst_conj = max(worst_conj, abs(float(fat.values[grid.nearest_index(a)])
                                             - prod_space.q(a)))
        sup, _ = sup_over_blocks([(Lattice(grid, prod_space.pairing), f.values)], [sample])
        assert np.allclose(sup - prod_space.q(sample), per_point, rtol=0.0, atol=1e-12)
        assert np.array_equal(grid.nearest_index(sample),
                              [grid.nearest_index(a) for a in sample])
        rep = run_suite("lemma_1_6")[-1]
        assert rep.check("touching_affine_bound").worst_residual == worst_pair
        assert rep.check("touching_conjugate_value").worst_residual == worst_conj


    def test_lemma_1_11_report_with_empty_touching_set(self):
        # a grid with no diagonal node has no touching point: nothing to
        # bound, so both checks pass with a zero residual
        from ssdkit.suites import SuiteOptions, run_suite

        grid = GridSpec(np.array([0.1, 0.0]), np.array([0.7, 1.0]), np.array([3, 3]))
        rep = run_suite("lemma_1_6", SuiteOptions(grid=grid))[-1]
        assert rep.passed
        assert [c.worst_residual for c in rep.checks] == [0.0, 0.0]


class TestRockafellar:
    def test_two_half_squares_on_r1(self):
        grid = GridSpec.box(-4, 4, 161, 1)
        f = GridFn.from_callable(grid, lambda p: 0.5 * np.atleast_2d(p)[:, 0] ** 2)
        dual = GridSpec.box(-2, 2, 81, 1)
        rep = rockafellar_sum_identity(f, f, dual, tol=5e-3)
        assert rep.passed
        # (f + f)*(y) = y^2/4 on the dual grid
        lhs = conjugate(GridFn._raw(grid, 2 * f.values), dual)
        ys = dual.points()[:, 0]
        assert np.max(np.abs(lhs.values - ys**2 / 4)) < 1e-3

    def test_indicator_plus_finite(self, grid61):
        f = indicator_fn(grid61, [[0.0, 0.0]])
        h = half_sq_norm_fn(grid61)
        dual = GridSpec.box(-1.5, 1.5, 31, 2)
        rep = rockafellar_sum_identity(f, h, dual, tol=5e-3)
        assert rep.passed
        # (f + h)* = h* here because f pins the argument at zero: value 0
        lhs = conjugate(GridFn._raw(grid61, f.values + h.values), dual)
        assert np.max(np.abs(lhs.values)) < 1e-12

    def test_infinite_h_rejected(self, grid61):
        f = half_sq_norm_fn(grid61)
        h = indicator_fn(grid61, [[0.0, 0.0]])
        with pytest.raises(HNotFinite):
            rockafellar_sum_identity(f, h, GridSpec.box(-1, 1, 11, 2))

    def test_off_centre_dual_grid(self):
        # offsets y_i - y_j of the dual box [0.5, 2.5] reach down to -2, so
        # h* must live on a zero-centred grid, not on the box inflated in place
        grid = GridSpec.box(-4, 4, 161, 1)
        h = GridFn.from_callable(grid, lambda p: 0.5 * np.atleast_2d(p)[:, 0] ** 2)
        f = GridFn.from_callable(grid, lambda p: (0.5 * np.atleast_2d(p)[:, 0] ** 2
                                                  + 2.5 * np.atleast_2d(p)[:, 0]))
        rep = rockafellar_sum_identity(f, h, GridSpec.box(0.5, 2.5, 41, 1), tol=5e-3)
        assert rep.passed
        assert rep.check("conjugate_of_sum").worst_residual < 2e-3

    def test_quadratic_plus_gauge(self, prod_space, grid61, worked_fn61):
        g_fn = GridFn.from_callable(grid61, lambda p: prod_space.g(np.atleast_2d(p)))
        dual = GridSpec.box(-2, 2, 41, 2)
        rep = rockafellar_sum_identity(worked_fn61, g_fn, dual, tol=1e-2)
        assert rep.passed


def _random_grid_fn(rng, dim, max_num):
    """Nonconvex sample on a non-square box grid with some +inf nodes."""
    lo = rng.uniform(-2.0, 0.0, dim)
    grid = GridSpec(lo, lo + rng.uniform(0.5, 3.0, dim), rng.integers(2, max_num + 1, dim))
    vals = rng.normal(size=grid.size)
    vals[rng.random(grid.size) < 0.25] = np.inf
    vals[rng.integers(grid.size)] = 0.0
    return GridFn._raw(grid, vals)


def _random_target_grid(rng, dim, max_num):
    lo = rng.uniform(-2.0, 0.0, dim)
    return GridSpec(lo, lo + rng.uniform(0.5, 3.0, dim), rng.integers(2, max_num + 1, dim))


class TestSeparableKernel:
    """Every caller routed through the separable tensor-grid kernel against
    the brute-force double loop."""

    MAX_NUM = {1: 12, 2: 7, 3: 4}

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_conjugate(self, seed, dim):
        rng = np.random.default_rng(seed)
        f = _random_grid_fn(rng, dim, self.MAX_NUM[dim])
        dual = _random_target_grid(rng, dim, self.MAX_NUM[dim])
        ref = brute_force_conjugate(f.grid.points(), f.values, dual.points())
        assert np.allclose(conjugate(f, dual).values, ref, rtol=0.0, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_biconjugate_envelope(self, seed, dim):
        rng = np.random.default_rng(seed)
        f = _random_grid_fn(rng, dim, self.MAX_NUM[dim])
        slopes = _random_target_grid(rng, dim, self.MAX_NUM[dim])
        star = brute_force_conjugate(f.grid.points(), f.values, slopes.points())
        ref = brute_force_conjugate(slopes.points(), star, f.grid.points())
        got = lsc_biconjugate_envelope(f, slopes).values
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("pairing", [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0], [-1.0, 0.0]],
        [[-1.0, 0.0], [0.0, 1.0]],
        [[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]],
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
        [[2.0, 0.0], [0.0, -0.5]],
    ])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_signed_permutation_pairing_conjugate(self, pairing, seed):
        from ssdkit import SsdSpace

        space = SsdSpace(np.array(pairing))
        rng = np.random.default_rng(seed)
        f = _random_grid_fn(rng, space.dim, self.MAX_NUM[space.dim])
        target = _random_target_grid(rng, space.dim, self.MAX_NUM[space.dim])
        ref = brute_force_conjugate(f.grid.points() @ space.pairing, f.values, target.points())
        got = intrinsic_conjugate(f, space, target).values
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_descending_axes_and_argmax(self, seed, dim):
        from ssdkit.kernels import _sup_separable

        rng = np.random.default_rng(seed)
        f = _random_grid_fn(rng, dim, self.MAX_NUM[dim])
        flip = rng.choice([-1.0, 1.0], size=dim)
        src_axes = [ax * s for ax, s in zip(f.grid.axes(), flip)]
        target = _random_target_grid(rng, dim, self.MAX_NUM[dim])
        src = np.stack([m.ravel() for m in np.meshgrid(*src_axes, indexing="ij")], axis=1)
        vals, args = _sup_separable(src_axes, f.values_nd(), target.axes())
        ref = brute_force_conjugate(src, f.values, target.points())
        assert np.allclose(vals, ref, rtol=0.0, atol=1e-12)
        attained = [float(np.dot(t, src[i])) - f.values[i]
                    for t, i in zip(target.points(), args)]
        assert np.allclose(attained, vals, rtol=0.0, atol=1e-12)

    def test_ties_break_to_lowest_row_major_index(self):
        from ssdkit.gridfn import sup_linear_minus
        from ssdkit.kernels import _sup_separable

        grid = GridSpec.box(-1, 1, 5, 2)
        vals, args = _sup_separable(grid.axes(), np.zeros(grid.shape()), [[0.0], [0.0]])
        assert vals[0] == 0.0 and args[0] == 0
        ref_vals, ref_args = sup_linear_minus(grid.points(), np.zeros(grid.size), [[0.0, 0.0]])
        assert args[0] == ref_args[0]

    def test_small_blocks_give_same_result(self, monkeypatch):
        from ssdkit import gridfn, kernels

        rng = np.random.default_rng(3)
        f = _random_grid_fn(rng, 3, 6)
        dual = _random_target_grid(rng, 3, 6)
        full = conjugate(f, dual).values
        scattered, _ = gridfn.sup_linear_minus(f.grid.points(), f.values, dual.points())
        monkeypatch.setattr(kernels, "_SCORE_BLOCK", 0)
        monkeypatch.setattr(kernels, "_CANDIDATE_BLOCK", 0)
        assert np.array_equal(conjugate(f, dual).values, full)
        small, _ = gridfn.sup_linear_minus(f.grid.points(), f.values, dual.points())
        assert np.allclose(small, scattered, rtol=0.0, atol=1e-12)  # BLAS rounds by shape

    def test_is_mas_records_conjugate_path(self, prod_space, worked_fn61):
        from ssdkit import SsdSpace

        with kernel_ledger() as ledger:
            is_mas(worked_fn61, prod_space)
        assert _kernels(ledger) == ["separable"]
        tilted = SsdSpace(np.array([[1.0, 0.5], [0.5, 1.0]]))
        with kernel_ledger() as ledger:
            is_mas(worked_fn61, tilted)
        assert _kernels(ledger) == ["scattered"]


def _kernels(ledger):
    return [entry[0] for entry in ledger]


def _sizes(ledger):
    return [entry[:3] for entry in ledger]


class TestKernelLedger:
    def test_records_inside_only_and_restores_the_outer_ledger(self, worked_fn61, grid61):
        conjugate(worked_fn61, grid61)  # no ledger open: nothing is kept
        with kernel_ledger() as outer:
            conjugate(worked_fn61, grid61)
            with kernel_ledger() as inner:
                # one finite source row; three targets, one distinct row
                sup_linear_minus(np.zeros((2, 2)), [0.0, np.inf], np.ones((3, 2)))
            with pytest.raises(Improper), kernel_ledger():
                sup_linear_minus(np.zeros((1, 2)), [np.inf], np.ones((1, 2)))
            conjugate(worked_fn61, grid61)
        assert _sizes(inner) == [("scattered", 1, 1)]
        assert _sizes(outer) == [("separable", 3721, 3721)] * 2
        assert all(entry[3] >= 0.0 for entry in inner + outer)


def _brute_sup(points, offsets, targets):
    """max_i [t . x_i - c_i] and its lowest argmax, from one dense score matrix."""
    scores = np.atleast_2d(targets) @ np.atleast_2d(points).T - np.asarray(offsets)[None, :]
    args = np.argmax(scores, axis=1)
    return scores[np.arange(scores.shape[0]), args], args


def _signed_permutation(rng, dim):
    m = np.zeros((dim, dim))
    m[rng.permutation(dim), np.arange(dim)] = rng.choice([-1.0, 1.0], size=dim)
    return m


def _random_block(rng, dim, integer):
    """A lattice (plain, through a signed permutation, or through a general
    matrix) or a scattered block; integer data keeps every score exact."""
    kind = rng.integers(0, 4)
    if kind == 3:
        pts = rng.integers(-3, 4, size=(int(rng.integers(1, 6)), dim)).astype(float)
        if not integer:
            pts += rng.uniform(-0.5, 0.5, size=pts.shape)
        return pts
    num = rng.integers(2, 5, size=dim)
    lo = rng.integers(-3, 1, size=dim).astype(float)
    step = rng.integers(1, 3, size=dim).astype(float)
    if not integer:
        lo += rng.uniform(-0.5, 0.5, size=dim)
        step *= rng.uniform(0.5, 1.5, size=dim)
    grid = GridSpec(lo, lo + step * (num - 1), num)
    if kind == 0:
        return Lattice(grid)
    if kind == 1:
        return Lattice(grid, _signed_permutation(rng, dim))
    return Lattice(grid, rng.integers(-1, 2, size=(dim, dim)).astype(float) + np.eye(dim))


def _random_sources(rng, dim, integer):
    sources = []
    for _ in range(int(rng.integers(1, 4))):
        block = _random_block(rng, dim, integer)
        size = block.size if isinstance(block, Lattice) else block.shape[0]
        if integer:
            offsets = rng.integers(-2, 3, size=size).astype(float)
        else:
            offsets = rng.normal(size=size)
        offsets[rng.random(size) < 0.3] = np.inf
        sources.append((block, offsets))
        if integer and rng.random() < 0.5:
            sources.append((block, offsets.copy()))  # every score ties with the copy
    if not any(np.any(np.isfinite(off)) for _, off in sources):
        sources[-1][1][-1] = 0.0
    return sources


class TestBlockSup:
    """`sup_over_blocks` and the duplicate-target collapse against one dense
    score matrix over the stacked rows."""

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_exact_values_and_argmax_with_ties_across_blocks(self, seed, dim):
        rng = np.random.default_rng(seed)
        sources = _random_sources(rng, dim, integer=True)
        targets = [_random_block(rng, dim, integer=True) for _ in range(int(rng.integers(1, 4)))]
        vals, args = sup_over_blocks(sources, targets)
        ref_vals, ref_args = _brute_sup(block_points([b for b, _ in sources]),
                                        np.concatenate([off for _, off in sources]),
                                        block_points(targets))
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(args, ref_args)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_float_values_and_attained_argmax(self, seed, dim):
        rng = np.random.default_rng(seed)
        sources = _random_sources(rng, dim, integer=False)
        targets = [_random_block(rng, dim, integer=False) for _ in range(int(rng.integers(1, 4)))]
        vals, args = sup_over_blocks(sources, targets)
        src = block_points([b for b, _ in sources])
        off = np.concatenate([o for _, o in sources])
        tgt = block_points(targets)
        assert np.allclose(vals, brute_force_conjugate(src, off, tgt), rtol=0.0, atol=1e-12)
        attained = np.einsum("ij,ij->i", tgt, src[args]) - off[args]
        assert np.allclose(attained, vals, rtol=0.0, atol=1e-12)

    def test_paths_name_the_kernel_of_every_block_pair(self, grid61):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        sources = [(Lattice(grid61), np.zeros(grid61.size)), (np.zeros((3, 2)), np.zeros(3))]
        targets = [Lattice(grid61, swap), Lattice(grid61, np.ones((2, 2)))]
        with kernel_ledger() as ledger:
            sup_over_blocks(sources, targets)
        # the rows z @ ones of the second target repeat: 342 are bitwise distinct
        assert _sizes(ledger) == [("separable", 3721, 3721), ("scattered", 3, 3721),
                                  ("scattered", 3721, 342), ("scattered", 3, 342)]

    def test_all_infinite_offsets_are_improper(self, grid61):
        with pytest.raises(Improper):
            sup_over_blocks([(Lattice(grid61), np.full(grid61.size, np.inf)),
                             (np.zeros((2, 2)), [np.inf, np.inf])], [Lattice(grid61)])

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_duplicate_targets_collapse(self, seed, dim):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(int(rng.integers(1, 30)), dim))
        c = rng.normal(size=x.shape[0])
        c[rng.random(x.shape[0]) < 0.2] = np.inf
        c[0] = 0.0
        base = rng.normal(size=(int(rng.integers(1, 8)), dim))
        base[0] = 0.0
        negzero = -base[:1]  # bitwise -0.0 in every column
        rows = np.vstack([base, negzero])
        targets = rows[rng.integers(0, rows.shape[0], size=40)]
        vals, args = sup_linear_minus(x, c, targets)
        keys = np.ascontiguousarray(targets).view(np.dtype((np.void, 8 * dim))).ravel()
        for key in np.unique(keys):
            same = np.flatnonzero(keys == key)
            assert np.unique(vals[same].view(np.int64)).size == 1
            assert np.unique(args[same]).size == 1
        assert np.allclose(vals, brute_force_conjugate(x, c, targets), rtol=0.0, atol=1e-12)
        attained = np.einsum("ij,ij->i", targets, x[args]) - c[args]
        assert np.allclose(attained, vals, rtol=0.0, atol=1e-12)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _tie_axis(rng, size):
    """Integer axis, ascending or descending: products tie exactly, and a
    zero node times a negative one gives -0.0."""
    ax = np.sort(rng.integers(-3, 4, size=size)).astype(float)
    return ax[::-1].copy() if rng.random() < 0.5 else ax


def _tie_values(rng, shape):
    """Integer values with -inf, 0.0 and -0.0 entries."""
    vals = rng.integers(-2, 3, size=shape).astype(float)
    vals[rng.random(shape) < 0.2] = -0.0
    vals[rng.random(shape) < 0.25] = -np.inf
    return vals


# `_CANDIDATE_BLOCK` values: 0 (one entry a block), 3, 17 and the default
BLOCKS = st.sampled_from([0, 3, 17, 1 << 17])


class TestLoopFreeSeparable:
    """The block-vectorized sweep and batched re-score against the loop
    versions kept in conftest: values bitwise and argmax equal."""

    @given(st.integers(min_value=0, max_value=10_000), BLOCKS)
    @settings(max_examples=80, deadline=None)
    def test_sweep_axis_matches_loop(self, seed, block):
        from ssdkit import kernels

        rng = np.random.default_rng(seed)
        p_len, n, m, q_len = (int(k) for k in rng.integers(1, 7, size=4))
        a = _tie_axis(rng, n)
        b = _tie_axis(rng, m)
        table = _tie_values(rng, (p_len, n, q_len))
        if rng.random() < 0.3:
            table[0] = -np.inf  # a row with no finite candidate
        if rng.random() < 0.5:
            a = a + rng.normal(size=n)
            table += rng.normal(size=table.shape)
        ref_best, ref_arg = loop_sweep_axis(a, table, b)
        with mock.patch.object(kernels, "_CANDIDATE_BLOCK", block):
            best, arg = kernels._sweep_axis(a, table, b)
        assert np.array_equal(_bits(best), _bits(ref_best))
        assert np.array_equal(arg, ref_arg)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4),
           BLOCKS)
    @settings(max_examples=60, deadline=None)
    def test_rescore_matches_loop(self, seed, dim, block):
        from ssdkit import kernels

        rng = np.random.default_rng(seed)
        src_axes = [_tie_axis(rng, int(rng.integers(1, 6))) for _ in range(dim)]
        tgt_axes = [_tie_axis(rng, int(rng.integers(1, 6))) for _ in range(dim)]
        size = int(np.prod([a.size for a in src_axes]))
        neg = _tie_values(rng, size)
        if rng.random() < 0.5:
            src_axes = [a + rng.normal(size=a.size) for a in src_axes]
        m = int(np.prod([b.size for b in tgt_axes]))
        args = rng.integers(0, size, size=m)
        ref_vals, ref_args = loop_rescore(src_axes, neg, tgt_axes, args)
        with mock.patch.object(kernels, "_CANDIDATE_BLOCK", block):
            vals, got_args = kernels._rescore(src_axes, neg, tgt_axes, args)
        assert np.array_equal(_bits(vals), _bits(ref_vals))
        assert np.array_equal(got_args, ref_args)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4),
           BLOCKS)
    @settings(max_examples=60, deadline=None)
    def test_sup_separable_matches_loop_kernel(self, seed, dim, block):
        from ssdkit import kernels

        rng = np.random.default_rng(seed)
        src_axes = [_tie_axis(rng, int(rng.integers(1, 6))) for _ in range(dim)]
        tgt_axes = [_tie_axis(rng, int(rng.integers(1, 6))) for _ in range(dim)]
        shape = tuple(a.size for a in src_axes)
        offsets = -_tie_values(rng, shape)  # +inf nodes, 0.0 and -0.0 offsets
        offsets.flat[rng.integers(offsets.size)] = 0.0
        if rng.random() < 0.5:
            src_axes = [a + rng.normal(size=a.size) for a in src_axes]
            offsets = offsets + rng.normal(size=shape)
        with mock.patch.object(kernels, "_CANDIDATE_BLOCK", block):
            vals, args = kernels._sup_separable(src_axes, offsets, tgt_axes)
            with mock.patch.object(kernels, "_sweep_axis", loop_sweep_axis), \
                    mock.patch.object(kernels, "_rescore", loop_rescore):
                ref_vals, ref_args = kernels._sup_separable(src_axes, offsets, tgt_axes)
        assert np.array_equal(_bits(vals), _bits(ref_vals))
        assert np.array_equal(args, ref_args)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_sup_separable_matches_take_along_version(self, seed, dim):
        # integer axes and offsets, so scores tie exactly, with +inf offsets
        from ssdkit import kernels

        rng = np.random.default_rng(seed)
        src_axes = [_tie_axis(rng, int(rng.integers(1, 7))) for _ in range(dim)]
        tgt_axes = [_tie_axis(rng, int(rng.integers(1, 7))) for _ in range(dim)]
        shape = tuple(a.size for a in src_axes)
        offsets = -_tie_values(rng, shape)
        offsets.flat[rng.integers(offsets.size)] = 1.0
        vals, args = kernels._sup_separable(src_axes, offsets, tgt_axes)
        ref_vals, ref_args = take_along_sup_separable(src_axes, offsets, tgt_axes)
        assert np.array_equal(_bits(vals), _bits(ref_vals))
        assert np.array_equal(args, ref_args)


def _same_partition(got, want):
    """Two (first, inverse) results group the rows alike."""
    (gf, gi), (wf, wi) = got, want
    return gf.size == wf.size == np.unique(np.stack([gi, wi]), axis=1).shape[1]


class TestDistinctRows:
    """`_distinct_rows`: rows in strictly ascending order skip the sort, any
    other input gets the lexsort of the bit patterns (kept in conftest)."""

    @staticmethod
    def _fast(x):
        from ssdkit import kernels

        with mock.patch.object(np, "lexsort", side_effect=AssertionError("sorted")):
            return kernels._distinct_rows(np.ascontiguousarray(x))

    @pytest.mark.parametrize("dim,num", [(1, 7), (2, 61), (3, 9), (4, 5)])
    def test_plain_and_scaled_lattices_skip_the_sort(self, dim, num):
        grid = default_grid(dim, -3.0, 3.0, num)
        for block in (Lattice(grid), Lattice(grid, np.diag(np.arange(1.0, dim + 1)))):
            first, inverse = self._fast(block.points())
            assert np.array_equal(first, np.arange(grid.size))
            assert np.array_equal(inverse, np.arange(grid.size))

    def test_reordering_lattices_take_the_lexsort(self):
        from ssdkit import kernels

        grid = default_grid(2, -3.0, 3.0, 9)
        for matrix in (swap_matrix(1), np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])):
            x = Lattice(grid, matrix).points()
            got = kernels._distinct_rows(x)
            want = lexsort_distinct_rows(x)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[0].size == grid.size

    @pytest.mark.parametrize("case", ["shuffled", "signed zero", "repeat", "nan"])
    def test_collapse_as_the_lexsort(self, case):
        from ssdkit import kernels

        x = default_grid(2, -2.0, 2.0, 5).points().copy()
        if case == "shuffled":
            x = x[np.random.default_rng(1).permutation(x.shape[0])]
        elif case == "signed zero":  # 0.0 == -0.0 stops the ascending test
            x = np.insert(x, 13, [-0.0, 0.0], axis=0)
        elif case == "repeat":
            x = np.insert(x, 7, x[7], axis=0)
        else:
            x[10, 1] = np.nan
        x = np.ascontiguousarray(x)
        got = kernels._distinct_rows(x)
        want = lexsort_distinct_rows(x)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        expect = {"shuffled": 25, "signed zero": 26, "repeat": 25, "nan": 25}[case]
        assert got[0].size == expect

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_any_rows_group_as_the_lexsort(self, seed, dim):
        from ssdkit import kernels

        rng = np.random.default_rng(seed)
        x = rng.integers(-2, 3, size=(int(rng.integers(1, 30)), dim)).astype(float)
        x[rng.random(x.shape) < 0.2] = -0.0
        if rng.random() < 0.5:
            x = x[np.lexsort(x.T[::-1])]  # ascending floats, with ties and signed zeros
        x = np.ascontiguousarray(x)
        got = kernels._distinct_rows(x)
        want = lexsort_distinct_rows(x)
        assert _same_partition(got, want)
        assert np.array_equal(x[got[0]][got[1]].view(np.int64), x.view(np.int64))
        offsets = rng.integers(-1, 2, size=x.shape[0]).astype(float)
        with mock.patch.object(kernels, "_distinct_rows", lexsort_distinct_rows):
            ref = kernels._cheapest_distinct(x, offsets)
        assert np.array_equal(kernels._cheapest_distinct(x, offsets), ref)


class TestLatticeInfCollapse:
    """`min_values_plus_gauge` on `Lattice` inputs against point arrays and a
    brute-force min of p over all pairs."""

    @pytest.mark.parametrize("space_fn,kernel", [
        (lambda: space_identity(2), "separable"),
        (lambda: product_space(1, kind="two", tau=1.0), "scattered"),
        (space_swap_r3, "scattered"),
    ])
    @pytest.mark.parametrize("image", [False, True])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_lattice_inputs(self, space_fn, kernel, image, seed):
        space = space_fn()
        rng = np.random.default_rng(seed)
        grid = _random_target_grid(rng, space.dim, 5)
        c_grid = _random_target_grid(rng, space.dim, 5)
        matrix = space.pairing.T if image else None
        nodes, c_rows = Lattice(grid, matrix), Lattice(c_grid, matrix)
        add = rng.normal(size=grid.size)
        add[rng.random(grid.size) < 0.25] = np.inf
        add[0] = 0.0
        with kernel_ledger() as ledger:
            vals, args = min_values_plus_gauge(space, add, nodes, c_rows)
        y, c = nodes.points(), c_rows.points()
        ref_vals, _ = min_values_plus_gauge(space, add, y, c)
        brute = pairwise_p(space, c, y) + add[None, :]
        assert np.allclose(vals, ref_vals, rtol=0.0, atol=1e-12)
        assert np.allclose(vals, np.min(brute, axis=1), rtol=0.0, atol=1e-12)
        assert np.allclose(brute[np.arange(c.shape[0]), args], vals, rtol=0.0, atol=1e-12)
        assert _kernels(ledger) == [kernel]

    def test_non_separable_pairs_are_bitwise_unchanged(self, prod_space, grid61):
        f = half_sq_norm_fn(grid61)
        add = f.values - prod_space.q(grid61.points())
        lattice = min_values_plus_gauge(prod_space, add, Lattice(grid61), Lattice(grid61))
        points = min_values_plus_gauge(prod_space, add, grid61.points(), grid61.points())
        assert np.array_equal(_bits(lattice[0]), _bits(points[0]))
        assert np.array_equal(lattice[1], points[1])

    def test_split_norm_path(self, grid61):
        space = product_space(1, kind="one", tau=1.0)
        with kernel_ledger() as ledger:  # point targets: one grid column
            min_values_plus_gauge(space, np.zeros(grid61.size), Lattice(grid61),
                                  grid61.points()[::61])
        assert _sizes(ledger) == [("pairwise", 3721, 61)]

    def test_is_vz_records_inf_path(self, prod_space, ident2, worked_fn61, grid61):
        with kernel_ledger() as ledger:
            is_vz(worked_fn61, prod_space)
        # the collapse targets c @ (W + M) repeat under the rank-one form:
        # 342 of the 3,721 rows are bitwise distinct
        assert _sizes(ledger) == [("scattered", 3721, 342)]
        with kernel_ledger() as ledger:
            is_vz(q_plus_const_fn(ident2, grid61), ident2)
        assert _kernels(ledger) == ["separable"]
        for kind in ("one", "inf"):
            with kernel_ledger() as ledger:
                is_vz(worked_fn61, product_space(1, kind=kind, tau=1.0))
            assert _sizes(ledger) == [("min-plus", 3721, 3721)]


def _min_plus_k(x):
    """A test gauge, asymmetric, kinked and +inf for x_0 > 2; exact on
    integer points."""
    x = np.atleast_2d(x)
    vals = 0.5 * np.sum(x * x, axis=1) + np.sum(np.abs(x), axis=1) - x[:, 0]
    return np.where(x[:, 0] > 2.0, np.inf, vals)


def _min_plus_blocks(rng, dim, integer, same):
    """(nodes, targets): a lattice of sources (plain, through a signed
    permutation or a general matrix) and either an equal lattice or an
    unrelated block (a misaligned lattice or scattered points)."""
    nodes = _random_block(rng, dim, integer)
    while not isinstance(nodes, Lattice):
        nodes = _random_block(rng, dim, integer)
    if same:
        matrix = None if nodes.matrix is None else nodes.matrix.copy()
        return nodes, Lattice(GridSpec(nodes.grid.lower, nodes.grid.upper, nodes.grid.num), matrix)
    return nodes, _random_block(rng, dim, integer)


def _min_plus_adds(rng, size, integer):
    add = rng.integers(-2, 3, size=size).astype(float) if integer else rng.normal(size=size)
    add[rng.random(size) < 0.3] = np.inf
    add[rng.integers(size)] = 0.0
    return add


class TestMinPlus:
    """`_min_plus`, and every caller routed through it, against the dense
    oracle on difference vectors."""

    @pytest.mark.parametrize("same", [True, False])
    @given(seed=st.integers(min_value=0, max_value=10_000), dim=st.integers(1, 3),
           blocks=st.sampled_from([(2, 1), (20, 10), (1 << 18, 1 << 17)]))
    @settings(max_examples=30, deadline=None)
    def test_integer_data_exact(self, same, seed, dim, blocks):
        from ssdkit import kernels
        rng = np.random.default_rng(seed)
        nodes, targets = _min_plus_blocks(rng, dim, integer=True, same=same)
        add = _min_plus_adds(rng, nodes.size, integer=True)
        with mock.patch.object(kernels, "_SCORE_BLOCK", blocks[0]), \
                mock.patch.object(kernels, "_CANDIDATE_BLOCK", blocks[1]):
            vals, args = kernels._min_plus(add, nodes, targets, _min_plus_k)
        ref_vals, ref_args = brute_force_min_plus(add, block_points([nodes]),
                                                  block_points([targets]), _min_plus_k)
        assert np.array_equal(_bits(vals), _bits(ref_vals))
        assert np.array_equal(args, ref_args)

    @pytest.mark.parametrize("same", [True, False])
    @given(seed=st.integers(min_value=0, max_value=10_000), dim=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_float_data(self, same, seed, dim):
        from ssdkit import kernels
        rng = np.random.default_rng(seed)
        nodes, targets = _min_plus_blocks(rng, dim, integer=False, same=same)
        add = _min_plus_adds(rng, nodes.size, integer=False)
        vals, args = kernels._min_plus(add, nodes, targets, _min_plus_k)
        y, c = block_points([nodes]), block_points([targets])
        ref_vals, _ = brute_force_min_plus(add, y, c, _min_plus_k)
        assert np.allclose(vals, ref_vals, rtol=0.0, atol=1e-12)
        assert np.allclose(add[args] + _min_plus_k(c - y[args]), vals, rtol=0.0, atol=1e-12)

    def test_offset_lattice_over_budget_takes_pair_scan(self, monkeypatch):
        space = product_space(1, kind="one", tau=1.0)
        grid = GridSpec.box(-1.0, 1.0, 5, 2)
        add = _min_plus_adds(np.random.default_rng(0), grid.size, integer=False)
        monkeypatch.setenv("SSDKIT_BUDGET", "80")  # the grid fits, its 9 x 9 offsets do not
        with kernel_ledger() as ledger:
            vals, _ = min_values_plus_gauge(space, add, Lattice(grid), Lattice(grid))
        assert _kernels(ledger) == ["pairwise"]
        ref, _ = brute_force_min_plus(add, grid.points(), grid.points(), space.p)
        assert np.allclose(vals, ref, rtol=0.0, atol=1e-12)

    def test_all_inf_adds_rejected(self, grid61):
        from ssdkit import kernels
        with pytest.raises(Improper):
            kernels._min_plus(np.full(grid61.size, np.inf), Lattice(grid61), Lattice(grid61),
                             _min_plus_k)

    @pytest.mark.parametrize("kind", ["one", "inf"])
    @pytest.mark.parametrize("target", ["same", "lattice", "points"])
    @given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(1, 2))
    @settings(max_examples=10, deadline=None)
    def test_split_norm_inf(self, kind, target, seed, n):
        rng = np.random.default_rng(seed)
        space = product_space(n, kind=kind, tau=float(rng.choice([0.5, 1.0, 2.0])))
        grid = _random_target_grid(rng, 2 * n, 6 if n == 1 else 3)
        other = _random_target_grid(rng, 2 * n, 6 if n == 1 else 3)
        c_rows = {"same": Lattice(grid), "lattice": Lattice(other),
                  "points": other.points()}[target]
        add = _min_plus_adds(rng, grid.size, integer=False)
        with kernel_ledger() as ledger:
            vals, _ = min_values_plus_gauge(space, add, Lattice(grid), c_rows)
        ref, _ = brute_force_min_plus(add, grid.points(), block_points([c_rows]), space.p)
        assert np.allclose(vals, ref, rtol=0.0, atol=1e-12)
        assert _kernels(ledger) == ["min-plus" if target == "same" else "pairwise"]

    @pytest.mark.parametrize("misaligned", [False, True])
    @pytest.mark.parametrize("kernel", ["callable", "gridfn"])
    @given(seed=st.integers(min_value=0, max_value=10_000), dim=st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_inf_conv(self, misaligned, kernel, seed, dim):
        rng = np.random.default_rng(seed)
        max_num = {1: 12, 2: 7, 3: 4}[dim]
        h = _random_grid_fn(rng, dim, max_num)
        if kernel == "gridfn":
            # no `exact`: interpolated inside its box, +inf outside; the box
            # holds 0, so that some differences x - y fall inside it
            grid = GridSpec(-rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim),
                            h.grid.num)
            h = GridFn._raw(grid, h.values)
            k = GridFn._raw(grid, _min_plus_k(grid.points()) + rng.normal(size=grid.size))
            k_eval = k.evaluate
        else:
            k = k_eval = _min_plus_k
        out_grid = _random_target_grid(rng, dim, max_num) if misaligned else None
        ref, _ = brute_force_min_plus(h.values, h.grid.points(),
                                      (out_grid or h.grid).points(), k_eval)
        if not np.any(np.isfinite(ref)):
            with pytest.raises(Improper):
                inf_conv(h, k, out_grid=out_grid)
            return
        got = inf_conv(h, k, out_grid=out_grid)
        np.testing.assert_allclose(got.values, ref, rtol=0.0, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000), dim=st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_rockafellar_rhs(self, seed, dim):
        from ssdkit.kernels import _offset_grid
        rng = np.random.default_rng(seed)
        f = _random_grid_fn(rng, dim, 7)
        h = GridFn._raw(f.grid, rng.normal(size=f.grid.size))
        dual = _random_target_grid(rng, dim, 7)
        rep = rockafellar_sum_identity(f, h, dual, tol=1.0)
        lhs = conjugate(GridFn._raw(f.grid, f.values + h.values), dual).values
        hstar = conjugate(h, _offset_grid(dual))
        rhs, _ = brute_force_min_plus(conjugate(f, dual).values, dual.points(), dual.points(),
                                      hstar.evaluate)
        assert rep.check("conjugate_of_sum").worst_residual == np.max(np.abs(lhs - rhs))

    @pytest.mark.parametrize("pairwise", [pairwise_q, pairwise_g, pairwise_p, pairwise_norm])
    @pytest.mark.parametrize("kind", ["euclidean", "quadratic", "one", "two", "inf"])
    @given(seed=st.integers(min_value=0, max_value=10_000), rows=st.sampled_from([2, 7, None]))
    @settings(max_examples=10, deadline=None)
    def test_nearest_matches_dense_min(self, pairwise, kind, seed, rows):
        # the pair scan in chunks of 2 or 7 rows (a lone last row joins the
        # chunk before it), or in one chunk, against np.min / np.argmin over
        # the whole dense matrix
        from ssdkit import gridfn, kernels
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        weight = np.eye(2 * n) + 1.0 if kind == "quadratic" else None
        space = SsdSpace(swap_matrix(n), norm=NormSpec(kind, tau=float(rng.choice([0.5, 1.0, 2.0])),
                                                       weight=weight))
        integer = rng.random() < 0.5
        x = rng.integers(-3, 4, size=(int(rng.integers(1, 30)), 2 * n)).astype(float)
        y = rng.integers(-3, 4, size=(int(rng.integers(1, 9)), 2 * n)).astype(float)
        if not integer:
            x += rng.uniform(-0.5, 0.5, size=x.shape)
            y += rng.uniform(-0.5, 0.5, size=y.shape)
        y = y[rng.integers(0, y.shape[0], size=y.shape[0] + 3)]  # duplicate set rows tie
        calls = []

        def kernel(c, ys):
            calls.append(c.shape[0])
            return pairwise(space, c, ys)

        block = 1 << 18 if rows is None else rows * y.size
        with mock.patch.object(kernels, "_SCORE_BLOCK", block):
            vals, args = gridfn.nearest(kernel, x, y)
        assert calls == ([x.shape[0]] if rows is None else _walk(x.shape[0], rows))
        dense = pairwise(space, x, y)
        if integer:
            assert np.array_equal(vals, np.min(dense, axis=1))
            assert np.array_equal(args, np.argmin(dense, axis=1))
        else:
            assert np.allclose(vals, np.min(dense, axis=1), rtol=0.0, atol=1e-12)
            assert np.allclose(dense[np.arange(x.shape[0]), args], vals, rtol=0.0, atol=1e-12)


    @pytest.mark.parametrize("rows,want", [(7, [7, 8]), (5, [5, 5, 5]), (1, [2] * 6 + [3])])
    def test_lone_last_row_joins_the_block_before(self, rows, want):
        # 15 rows at 7 a block leave one row over, which joins the second
        # block; a block of 1 row is raised to the floor of 2
        from ssdkit import gridfn, kernels

        calls = []

        def kernel(c, ys):
            calls.append(c.shape[0])
            return pairwise_sq_dists(c, ys)

        x = np.random.default_rng(0).uniform(-3.0, 3.0, size=(15, 2))
        with mock.patch.object(kernels, "_SCORE_BLOCK", rows * 4 * 2):
            vals, args = gridfn.nearest(kernel, x, x[:4])
        assert calls == want
        assert np.array_equal(args[:4], np.arange(4))


def _walk(m, rows):
    """Rows of each block of a loop over m rows, `rows` a block, with a lone
    last row joined to the block before it."""
    sizes = [min(rows, m - s) for s in range(0, m, rows)]
    if len(sizes) > 1 and sizes[-1] == 1:
        sizes[-2:] = [rows + 1]
    return sizes


class TestSingularSourceCollapse:
    """A lattice source through a singular matrix is scored once per
    bitwise-distinct row: lowest offset, lowest index among equal offsets."""

    @pytest.mark.parametrize("matrix", [
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, 1.0], [1.0, 1.0]],
        [[1.0, 0.0], [0.0, 0.0]],
        [[1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [2.0, -2.0, 1.0]],
        [[0.0], [0.0]],
    ])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_with_ties(self, matrix, seed):
        from ssdkit import gridfn

        matrix = np.array(matrix)
        rng = np.random.default_rng(seed)
        dim = matrix.shape[0]
        num = rng.integers(2, 5, size=dim)
        lo = rng.integers(-2, 1, size=dim).astype(float)
        block = Lattice(GridSpec(lo, lo + num - 1, num), matrix)
        offsets = rng.integers(-1, 2, size=block.size).astype(float)
        offsets[rng.random(block.size) < 0.3] = np.inf
        offsets[-1] = 1.0
        targets = rng.integers(-2, 3, size=(6, matrix.shape[1])).astype(float)
        spy = mock.Mock(wraps=gridfn.sup_linear_minus)
        with mock.patch.object(gridfn, "sup_linear_minus", spy):
            vals, args = sup_over_blocks([(block, offsets)], [targets])
        ref_vals, ref_args = _brute_sup(block.points(), offsets, targets)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(args, ref_args)
        distinct = np.unique(_bits(block.points()), axis=0).shape[0]
        assert spy.call_args.args[0].shape[0] == distinct < block.size


class TestConvexityPrecheck:
    """`convexity_defect` against the all-strides scan kept in conftest."""

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_matches_scan(self, seed, dim):
        from ssdkit.gridfn import CONVEXITY_RTOL, convexity_defect

        rng = np.random.default_rng(seed)
        num = rng.integers(2, {1: 12, 2: 7, 3: 5}[dim] + 1, size=dim)
        grid = GridSpec(-np.ones(dim), np.ones(dim), num)
        pts = grid.points()
        if rng.random() < 0.5:
            vals = 0.5 * np.sum(pts ** 2, axis=1)
        else:  # affine: midpoint defects are exactly the bumps added below
            vals = pts @ rng.integers(-2, 3, size=dim) + float(rng.integers(-2, 3))
        vals *= 10.0 ** rng.integers(0, 4)
        if rng.random() < 0.5:
            vals[rng.random(grid.size) < 0.2] = np.inf
        if rng.random() < 0.7:
            # a bump at the tolerance, bare or scaled by the node's magnitude
            k = int(rng.integers(grid.size))
            vals[k] += rng.choice([0.5, 1.0, 1.5, 4.0]) * CONVEXITY_RTOL * max(
                1.0, rng.choice([1.0, abs(vals[k]) if np.isfinite(vals[k]) else 1.0]))
        if not np.any(np.isfinite(vals)):
            vals[0] = 0.0
        assert convexity_defect(grid, vals) == scan_convexity_defect(grid.shape(), vals,
                                                                     CONVEXITY_RTOL)

    @pytest.mark.parametrize("factor", [0.5, 1.5, 4.0])
    @pytest.mark.parametrize("magnitude", [1.0, 1000.0])
    @pytest.mark.parametrize("corner_gap", [False, True])
    def test_bump_at_the_tolerance(self, factor, magnitude, corner_gap):
        from ssdkit.gridfn import CONVEXITY_RTOL, convexity_defect

        grid = GridSpec.box(-1, 1, 9, 2)
        vals = grid.points() @ np.array([0.25, -0.5]) * magnitude  # affine: no defect
        if corner_gap:
            vals[0] = np.inf  # an end of some tests, never a midpoint
        vals[40] += factor * CONVEXITY_RTOL * magnitude  # the centre node
        got = convexity_defect(grid, vals)
        assert got == scan_convexity_defect(grid.shape(), vals, CONVEXITY_RTOL)
        if magnitude == 1.0:
            assert (got is None) == (factor < 1.0)


def _concave_ramp(grid, stride):
    """-a x_0^2 with a set so that the axis-0 midpoint defect a (s h)^2 stays
    under CONVEXITY_RTOL (values well under 1, so the scale is 1) for every
    stride s below `stride` and exceeds it at `stride`."""
    from ssdkit.gridfn import CONVEXITY_RTOL

    h = float(grid.spacing[0])
    a = CONVEXITY_RTOL / (h * h * (stride * stride - stride + 0.5))
    return -a * grid.points()[:, 0] ** 2


class TestConvexityCertificate:
    """The O(N) certificate in front of the all-strides scan: wherever it
    answers, the answer is the scan's."""

    @pytest.mark.parametrize("n", [61, 201])
    @pytest.mark.parametrize("noise", [0.0, 1e-13, 1e-11, 1e-9])
    def test_affine_with_rounding_noise(self, n, noise):
        from ssdkit.gridfn import CONVEXITY_RTOL, convexity_defect

        grid = GridSpec.box(-3, 3, n, 2)
        rng = np.random.default_rng(n)
        vals = grid.points() @ np.array([np.pi, -np.e]) / 3.0 + 0.1
        vals += noise * rng.standard_normal(grid.size)
        assert convexity_defect(grid, vals) == scan_convexity_defect(grid.shape(), vals,
                                                                     CONVEXITY_RTOL)

    @pytest.mark.parametrize("dim,n", [(1, 41), (2, 41), (3, 13)])
    def test_violation_only_at_the_largest_stride(self, dim, n):
        from ssdkit import gridfn

        grid = GridSpec.box(-1, 1, n, dim)
        s_max = (n - 1) // 2
        vals = _concave_ramp(grid, s_max)
        got = gridfn.convexity_defect(grid, vals)
        assert got == scan_convexity_defect(grid.shape(), vals, gridfn.CONVEXITY_RTOL)
        # the defect found is the largest stride's, a (s_max h)^2
        rtol = gridfn.CONVEXITY_RTOL
        assert got[1] == pytest.approx(rtol * s_max ** 2 / (s_max ** 2 - s_max + 0.5), rel=1e-6)
        assert not gridfn._convexity_certificate(vals.reshape(grid.shape()),
                                                 gridfn._directions(dim))

    @pytest.mark.parametrize("gap", [1, 5, 17])
    @pytest.mark.parametrize("across", [False, True])
    def test_long_domain_gaps(self, gap, across):
        from ssdkit.gridfn import CONVEXITY_RTOL, convexity_defect

        grid = GridSpec.box(-3, 3, 41, 2)
        vals = 0.5 * np.sum(grid.points() ** 2, axis=1)
        nd = vals.reshape(grid.shape())
        lo = 20 - gap // 2
        if across:
            nd[lo:lo + gap, :] = np.inf  # a band: the domain is two pieces
        else:
            nd[lo:lo + gap, 7] = np.inf  # a hole in one grid line
        got = convexity_defect(grid, vals)
        assert got is not None
        assert got == scan_convexity_defect(grid.shape(), vals, CONVEXITY_RTOL)

    @pytest.mark.parametrize("n", [61, 201])
    def test_large_magnitudes_decline(self, n):
        from ssdkit import gridfn

        grid = GridSpec.box(-3, 3, n, 2)
        vals = 1e6 * (1.0 + 0.5 * np.sum(grid.points() ** 2, axis=1))
        assert not gridfn._convexity_certificate(vals.reshape(grid.shape()),
                                                 gridfn._directions(2))
        with mock.patch.object(gridfn, "_stride_scan", wraps=gridfn._stride_scan) as scan:
            got = gridfn.convexity_defect(grid, vals)
        assert scan.call_count == 1
        assert got == scan_convexity_defect(grid.shape(), vals, gridfn.CONVEXITY_RTOL)


class TestConvexityBudgetScale:
    """The convexity check near the grid point budget: a convex 999^2 sample
    passes on the certificate alone, and a planted long-stride violation on
    201^2 comes back as the scan's (index, defect)."""

    def test_999_squared_convex_skips_the_stride_scan(self):
        from ssdkit import gridfn

        grid = GridSpec.box(-3, 3, 999, 2)
        vals = 0.5 * np.sum(grid.points() ** 2, axis=1)
        with mock.patch.object(gridfn, "_stride_scan", wraps=gridfn._stride_scan) as scan:
            GridFn(grid, vals, require_convex=True)
        assert scan.call_count == 0

    def test_201_squared_long_stride_violation(self):
        from ssdkit import gridfn

        grid = GridSpec.box(-3, 3, 201, 2)
        vals = _concave_ramp(grid, 100) + 1e-9 * grid.points()[:, 1]
        want = scan_convexity_defect(grid.shape(), vals, gridfn.CONVEXITY_RTOL)
        assert want is not None
        with mock.patch.object(gridfn, "_stride_scan", wraps=gridfn._stride_scan) as scan:
            assert gridfn.convexity_defect(grid, vals) == want
            with pytest.raises(NotConvex, match=f"node {want[0]} "):
                GridFn(grid, vals, require_convex=True)
        assert scan.call_count == 2


class TestConjugateBudgetScale:
    """Grid-to-grid conjugation at 251^2 and 501^2 nodes: the values stay
    within the grid's sampling bound, and the traced peak, the grids' held
    nodes included, grows no faster than the node count."""

    def test_peak_grows_at_most_linearly(self):
        peaks = {}
        for n in (251, 501):
            tracemalloc.start()
            try:
                grid = GridSpec.box(-3.0, 3.0, n, 2)
                star = conjugate(half_sq_norm_fn(grid), GridSpec.box(-2.0, 2.0, n, 2))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # f* = |y|^2 / 2 on the slope box, less half the squared distance
            # to the nearest node: at most h^2 / 8 per axis
            exact = 0.5 * np.sum(star.grid.points() ** 2, axis=1)
            assert np.max(np.abs(exact - star.values)) <= np.sum(grid.spacing ** 2) / 8
        assert peaks[501] <= 1.25 * (501 / 251) ** 2 * peaks[251]


def _scattered_sup_at(entries, sources, offsets, targets):
    """`sup_linear_minus` with a score block of `entries` entries."""
    from ssdkit import gridfn, kernels

    with mock.patch.object(kernels, "_SCORE_BLOCK", entries):
        return gridfn.sup_linear_minus(sources, offsets, targets)


def _rows_sup(rows, sources, offsets, targets):
    """The scattered kernel's block loop with `rows` target rows a block."""
    vals = np.empty(targets.shape[0])
    args = np.empty(targets.shape[0], dtype=int)
    for start in range(0, targets.shape[0], rows):
        scores = np.matmul(targets[start:start + rows], sources.T)
        scores -= offsets[None, :]
        a = np.argmax(scores, axis=1)
        vals[start:start + rows] = scores[np.arange(a.size), a]
        args[start:start + rows] = a
    return vals, args


def _captured_sup(module, run):
    """The arguments of the one `sup_linear_minus` call that `run()` makes
    through `module`."""
    calls = []
    kernel = module.sup_linear_minus

    def record(*args):
        calls.append(args)
        return kernel(*args)

    with mock.patch.object(module, "sup_linear_minus", record):
        run()
    (sources, offsets, targets), = calls
    return sources, offsets, targets


def _dual_norm_sphere_sup():
    """The scattered sup of `numerical_dual_norm` under the tau = 2 `two`
    split norm: the 200,001-point sphere against 100 radius pairs."""
    from ssdkit import duality

    space = product_space(1, kind="two", tau=2.0)
    ys = np.random.default_rng(42).uniform(-3.0, 3.0, size=(100, space.dim))
    return _captured_sup(duality, lambda: duality.numerical_dual_norm(space, ys))


def _scattered_961x3721():
    rng = np.random.default_rng(7)
    sources = rng.uniform(-3.0, 3.0, size=(961, 2))
    offsets = 0.5 * np.sum(sources ** 2, axis=1)
    return sources, offsets, GridSpec.box(-3.0, 3.0, 61, 2).points()


class TestScoreBlock:
    """Both grid kernels score 2^18 entries (2 MB) a block, at least 2 rows,
    with a lone last row joined to the block before it.  gemm rounds t.x by
    the block's shape, so the block is pinned by bitwise agreement with the
    2^21 block it replaced, on the sups that moved when it was sized."""

    @staticmethod
    def block_rows(sources, offsets, targets):
        """Target rows of each score block of one `sup_linear_minus` call."""
        with mock.patch.object(np, "argmax", wraps=np.argmax) as spy:
            sup_linear_minus(sources, offsets, targets)
        return [c.args[0].shape[0] for c in spy.call_args_list]

    @staticmethod
    def assert_as_at_2_21(sources, offsets, targets):
        v21, a21 = _scattered_sup_at(1 << 21, sources, offsets, targets)
        v18, a18 = sup_linear_minus(sources, offsets, targets)
        assert np.array_equal(_bits(v18), _bits(v21))
        assert np.array_equal(a18, a21)

    def test_block_sizes(self):
        from ssdkit import kernels

        assert kernels._SCORE_BLOCK == 1 << 18
        assert kernels._CANDIDATE_BLOCK == 1 << 17
        # 2^18 // 961 = 272 rows a block
        assert self.block_rows(*_scattered_961x3721()) == [272] * 13 + [185]
        # 2^18 // 200,001 = 1 row, raised to the floor of 2
        assert self.block_rows(*_dual_norm_sphere_sup()) == [2] * 50

    def test_pair_scan_keeps_its_block(self):
        from ssdkit import kernels

        rows = []

        def kernel(c_block, y):
            rows.append(c_block.shape[0])
            return np.zeros((c_block.shape[0], y.shape[0]))

        y = np.zeros((1000, 2))
        kernels._pair_scan(np.zeros(1000), y, GridSpec.box(-3.0, 3.0, 61, 2).points(), kernel)
        # 2^18 // (1000 * 2) = 131 rows a block, 3,721 = 28 * 131 + 53
        assert rows == [131] * 28 + [53]

    def test_block_size_leaves_remark_2_17_sup_bitwise_unchanged(self, prod_space, worked_fn121):
        # remark 2.17's VZ check: 14,641 sources against a few hundred
        # distinct rows c @ (W + M), one block at 2^21 entries, several at 2^18
        from ssdkit import gridfn

        case = _captured_sup(gridfn, lambda: is_vz(worked_fn121, prod_space))
        assert case[0].shape[0] == 121 ** 2
        assert np.unique(case[2], axis=0).shape[0] > (1 << 18) // 121 ** 2
        self.assert_as_at_2_21(*case)

    def test_lone_row_fold_keeps_lemma_2_13_sup_at_101(self):
        # lemma 2.13's sup of theta over the 101^2 dual box at the 201-point
        # diagonal: 2^18 // 10,201 = 25 rows a block and 201 = 8 * 25 + 1, so
        # without the fold the last block is one row, scored by gemv, and the
        # sup moves (e_star_below_q 8.88e-16 -> 3.55e-15)
        from ssdkit import gridfn

        grid = GridSpec.box(-3.0, 3.0, 101, 2)
        a = diagonal_set(grid)
        box = fitz_triple(space_r2_product("two"), a, grid).dual_blocks[0]
        case = _captured_sup(gridfn, lambda: sup_over_blocks([box], [a.points]))
        assert self.block_rows(*case) == [25] * 7 + [26]
        self.assert_as_at_2_21(*case)
        lone, _ = _rows_sup(25, *case)
        assert not np.array_equal(_bits(lone), _bits(sup_linear_minus(*case)[0]))

    def test_block_size_leaves_961x3721_sup_bitwise_unchanged(self):
        # 2 blocks of 2,182 rows at 2^21 entries, 14 of 272 at 2^18
        self.assert_as_at_2_21(*_scattered_961x3721())

    def test_block_size_leaves_dual_norm_sphere_bitwise_unchanged(self):
        # 10 rows a block at 2^21 entries, 2 at 2^18
        self.assert_as_at_2_21(*_dual_norm_sphere_sup())

    def test_dual_norm_sphere_moves_with_a_one_row_floor(self):
        # the block loop above scores as the kernel does at 2 rows a block;
        # at 1 row, max(1, 2^18 // 200,001), numpy hands each product to
        # gemv, which rounds t.x otherwise
        case = _dual_norm_sphere_sup()
        want, arg = sup_linear_minus(*case)
        v2, a2 = _rows_sup(2, *case)
        assert np.array_equal(_bits(v2), _bits(want)) and np.array_equal(a2, arg)
        v1, _ = _rows_sup(max(1, (1 << 18) // case[0].shape[0]), *case)
        assert not np.array_equal(_bits(v1), _bits(want))

    def test_one_call_peak_is_one_small_block(self):
        # the 2^21 block alone is 16 MB; 272 rows of 961 scores are 2.1 MB
        sources, offsets, targets = _scattered_961x3721()
        tracemalloc.start()
        try:
            sup_linear_minus(sources, offsets, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2 ** 20


def test_block_constants_live_in_kernels_alone():
    # a block constant imported into gridfn would let a patch on gridfn
    # succeed without reaching the kernels that read it
    import ast
    import inspect

    from ssdkit import gridfn, kernels

    for name in ("_SCORE_BLOCK", "_CANDIDATE_BLOCK", "_DIFFERENCE_ARRAYS"):
        assert hasattr(kernels, name) and not hasattr(gridfn, name)
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(kernels))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert imported and not any("gridfn" in name for name in imported)


def _dyadic_rows(rng, m, d):
    """m distinct rows of multiples of 1/64 in [-3, 3]^d.  A product of two
    such numbers is a multiple of 1/4096 below 9 in size, so every score and
    sum of a few of them is exact and cannot round by the block's shape."""
    axis = np.arange(-192, 193) / 64.0
    flat = rng.choice(axis.size ** d, size=m, replace=False)
    return axis[np.stack(np.unravel_index(flat, (axis.size,) * d), axis=1)]


def _pair_kernel(name):
    space = space_r2_product("two")
    return pairwise_sq_dists if name == "sq_dists" else lambda c, y: pairwise_q(space, c, y)


class TestBlockWalk:
    """Both grid kernels walk their rows in blocks of `rows`, a lone last row
    joined to the block before it, and merge the blocks' maxima or minima.
    On exact data the walk must give bitwise the one-block values and
    witnesses at any block size, including m = 1 (mod rows)."""

    @given(seed=st.integers(min_value=0, max_value=10_000), rows=st.integers(35, 120),
           blocks=st.integers(1, 5), extra=st.sampled_from(["none", "one", "some"]))
    @settings(max_examples=40, deadline=None)
    def test_scattered_walk_is_one_block(self, seed, rows, blocks, extra):
        from ssdkit import kernels

        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(2, 5)), int(rng.integers(20, 400))
        m = rows * blocks + {"none": 0, "one": 1, "some": int(rng.integers(2, rows))}[extra]
        sources = _dyadic_rows(rng, n, d)[rng.integers(0, n, size=n)]  # equal sources tie
        offsets = rng.integers(-4096, 4097, size=n) / 4096.0
        offsets[rng.random(n) < 0.1] = np.inf
        offsets[0] = 0.0
        targets = _dyadic_rows(rng, m, d)
        want = _scattered_sup_at(1 << 30, sources, offsets, targets)
        with mock.patch.object(kernels, "_SCORE_BLOCK", rows * np.isfinite(offsets).sum()):
            assert TestScoreBlock.block_rows(sources, offsets, targets) == _walk(m, rows)
            got = sup_linear_minus(sources, offsets, targets)
        assert np.array_equal(_bits(got[0]), _bits(want[0]))
        assert np.array_equal(got[1], want[1])

    @given(seed=st.integers(min_value=0, max_value=10_000), rows=st.integers(35, 120),
           blocks=st.integers(1, 5), extra=st.sampled_from(["none", "one", "some"]),
           kernel=st.sampled_from(["sq_dists", "q"]))
    @settings(max_examples=40, deadline=None)
    def test_pair_scan_walk_is_one_block(self, seed, rows, blocks, extra, kernel):
        from ssdkit import gridfn, kernels

        rng = np.random.default_rng(seed)
        m = rows * blocks + {"none": 0, "one": 1, "some": int(rng.integers(2, rows))}[extra]
        y = _dyadic_rows(rng, int(rng.integers(20, 300)), 2)
        y = y[rng.integers(0, y.shape[0], size=y.shape[0])]  # equal set rows tie
        x = _dyadic_rows(rng, m, 2)
        calls = []

        def k(c, ys):
            calls.append(c.shape[0])
            return _pair_kernel(kernel)(c, ys)

        with mock.patch.object(kernels, "_SCORE_BLOCK", 1 << 35):
            want = gridfn.nearest(k, x, y)
        assert calls == [m]
        calls.clear()
        with mock.patch.object(kernels, "_SCORE_BLOCK", rows * y.size):
            got = gridfn.nearest(k, x, y)
        assert calls == _walk(m, rows)
        assert np.array_equal(_bits(got[0]), _bits(want[0]))
        assert np.array_equal(got[1], want[1])


def _pairwise_case(n, kind):
    """841 float rows against a 131-row set in the split space R^n x R^n."""
    rng = np.random.default_rng(5)
    weight = np.eye(2 * n) + 1.0 if kind == "quadratic" else None
    space = SsdSpace(swap_matrix(n), norm=NormSpec(kind, tau=1.0, weight=weight))
    return (space, rng.uniform(-3.0, 3.0, size=(841, 2 * n)),
            rng.uniform(-3.0, 3.0, size=(131, 2 * n)))


class TestPairwiseBlockRounding:
    """Float data, at the shape the pair scan's block was sized on: the
    `spaces.pairwise_*` kernels give bitwise the one-block mins in blocks of
    35, 40 or 100 rows (841 = 24 * 35 + 1 = 21 * 40 + 1: the lone rows fold),
    but not in 1-row blocks, which numpy scores by gemv.  Other set sizes
    may round by the block's row count (ROADMAP, Known limits), so the block
    is verified report by report."""

    @pytest.mark.parametrize("pairwise", [pairwise_q, pairwise_g, pairwise_p, pairwise_norm])
    @pytest.mark.parametrize("kind", ["euclidean", "quadratic", "one", "two", "inf"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_blocks_of_35_rows_and_more_are_one_block(self, pairwise, kind, n):
        from ssdkit import gridfn, kernels

        space, x, y = _pairwise_case(n, kind)
        with mock.patch.object(kernels, "_SCORE_BLOCK", 1 << 35):
            want, arg = gridfn.nearest(partial(pairwise, space), x, y)
        for rows in (35, 40, 100):
            with mock.patch.object(kernels, "_SCORE_BLOCK", rows * y.size):
                got, got_arg = gridfn.nearest(partial(pairwise, space), x, y)
            assert np.array_equal(_bits(got), _bits(want)) and np.array_equal(got_arg, arg)

    @pytest.mark.parametrize("pairwise", [pairwise_q, pairwise_g, pairwise_p, pairwise_norm])
    @pytest.mark.parametrize("kind", ["euclidean", "quadratic", "one", "two", "inf"])
    def test_one_row_blocks_move_the_mins(self, pairwise, kind):
        from ssdkit import gridfn

        space, x, y = _pairwise_case(2, kind)
        want, _ = gridfn.nearest(partial(pairwise, space), x, y)
        one = np.array([np.min(pairwise(space, row[None, :], y)) for row in x])
        assert not np.array_equal(_bits(one), _bits(want))
