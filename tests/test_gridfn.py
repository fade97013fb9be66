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
    inf_conv,
    intrinsic_conjugate,
    is_mas,
    is_vz,
    lsc_biconjugate_envelope,
    rockafellar_sum_identity,
)
from ssdkit.catalog import (
    double_well_fn,
    half_sq_norm_fn,
    indicator_fn,
    q_plus_const_fn,
    representer_fns,
    space_negated,
    space_zero_pairing,
)
from ssdkit.gridfn import (
    Lattice,
    block_points,
    minus_q,
    sup_linear_minus,
    sup_over_blocks,
    sup_paths,
    zero_infconv_residuals,
)
from ssdkit.grids import image_box
from ssdkit.suites import lower_hull_1d

from conftest import brute_force_conjugate


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
        assert fn.same_grid(back)
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
        assert fat.values == pytest.approx(np.full(grid61.size, -f.min()), abs=1e-12)

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
        fq = minus_q(worked_fn61, prod_space)
        via_callable = inf_conv(fq, lambda pts: prod_space.p(np.atleast_2d(pts)))
        fast, _ = zero_infconv_residuals(worked_fn61, prod_space, grid61.points())
        assert via_callable.values == pytest.approx(fast, abs=1e-10)

    def test_zero_infimum_transfer(self, prod_space, grid61, worked_fn61):
        # inf k = 0 implies inf(h conv k) = inf h on the grid
        fq = minus_q(worked_fn61, prod_space)
        out = inf_conv(fq, lambda pts: prod_space.p(np.atleast_2d(pts)))
        assert abs(out.min() - fq.min()) < 1e-9

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_zero_infimum_transfer_random(self, slope, shift):
        grid = GridSpec.box(-3, 3, 31, 1)
        xs = grid.points()[:, 0]
        h = GridFn._raw(grid, np.abs(slope * xs) + shift)
        k_vals = (xs - 1.0) ** 2
        k = GridFn._raw(grid, k_vals - k_vals.min())
        out = inf_conv(h, k)
        assert abs(out.min() - h.min()) <= 1e-9


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

    def test_shifted_form_fails_both_ways(self, prod_space, prod_dual, grid61):
        f = q_plus_const_fn(prod_space, grid61)
        vz = is_vz(f, prod_space)
        assert not vz.passed
        assert vz.check("zero_gap_infimum").worst_residual == pytest.approx(1.0)
        mas = is_mas(f, prod_space, prod_dual)
        assert not mas.passed

    def test_concave_q_rejected_at_construction(self, grid61):
        space = space_negated(2)
        with pytest.raises(NotConvex):
            GridFn.from_callable(grid61, lambda p: space.q(np.atleast_2d(p)))

    def test_worked_example_is_mas(self, prod_space, prod_dual, worked_fn121):
        rep = is_mas(worked_fn121, prod_space, prod_dual)
        assert rep.passed

    def test_representers_pass_both(self, prod_space, prod_dual, grid61, diag121):
        phi_fn, star_fn = representer_fns(prod_space, diag121, grid61)
        for fn in (phi_fn, star_fn):
            assert is_vz(fn, prod_space).passed
            assert is_mas(fn, prod_space, prod_dual).passed

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
        same, dist = sets_match(prod_space, p_set(worked_fn61, prod_space).points,
                                p_set(fat, prod_space).points, radius=0.2)
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
        from ssdkit import make_ssd

        space = make_ssd(np.array(pairing))
        rng = np.random.default_rng(seed)
        f = _random_grid_fn(rng, space.dim, self.MAX_NUM[space.dim])
        target = _random_target_grid(rng, space.dim, self.MAX_NUM[space.dim])
        ref = brute_force_conjugate(f.grid.points() @ space.pairing, f.values, target.points())
        got = intrinsic_conjugate(f, space, target).values
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_descending_axes_and_argmax(self, seed, dim):
        from ssdkit.gridfn import _sup_separable

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
        from ssdkit.gridfn import _sup_separable, sup_linear_minus

        grid = GridSpec.box(-1, 1, 5, 2)
        vals, args = _sup_separable(grid.axes(), np.zeros(grid.shape()), [[0.0], [0.0]])
        assert vals[0] == 0.0 and args[0] == 0
        ref_vals, ref_args = sup_linear_minus(grid.points(), np.zeros(grid.size), [[0.0, 0.0]])
        assert args[0] == ref_args[0]

    def test_small_blocks_give_same_result(self, monkeypatch):
        from ssdkit import gridfn

        rng = np.random.default_rng(3)
        f = _random_grid_fn(rng, 3, 6)
        dual = _random_target_grid(rng, 3, 6)
        full = conjugate(f, dual).values
        scattered, _ = gridfn.sup_linear_minus(f.grid.points(), f.values, dual.points())
        monkeypatch.setattr(gridfn, "_BLOCK", 7)
        assert np.array_equal(conjugate(f, dual).values, full)
        small, _ = gridfn.sup_linear_minus(f.grid.points(), f.values, dual.points())
        assert np.allclose(small, scattered, rtol=0.0, atol=1e-12)  # BLAS rounds by shape

    def test_is_mas_records_conjugate_path(self, prod_space, prod_dual, worked_fn61):
        from ssdkit import make_ssd

        rep = is_mas(worked_fn61, prod_space, prod_dual)
        assert rep.meta["conjugate_path"] == "separable"
        tilted = make_ssd(np.array([[1.0, 0.5], [0.5, 1.0]]))
        rep = is_mas(worked_fn61, tilted, None)
        assert rep.meta["conjugate_path"] == "scattered"


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
        got = [(p["kernel"], p["sources"], p["targets"]) for p in sup_paths(sources, targets)]
        assert got == [("separable", 3721, 3721), ("scattered", 3, 3721),
                       ("scattered", 3721, 3721), ("scattered", 3, 3721)]

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
