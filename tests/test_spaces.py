import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdkit import (
    GridSpec,
    NoDual,
    NormSpec,
    NotSymmetric,
    SsdSpace,
    UnsupportedProbe,
    ZeroDimension,
    check_banach_ssd,
    lipschitz_checks,
    SingularPairing,
    product_space,
)
from ssdkit.catalog import (
    space_identity,
    space_negated,
    space_nodual,
    space_r2_product,
    space_swap_r3,
    space_zero_pairing,
)
from ssdkit.duality import load_space_document, save_space_document
from ssdkit.spaces import (
    bilinear_rows,
    pairwise_g,
    pairwise_norm,
    pairwise_p,
    pairwise_q,
    pairwise_sq_dists,
    swap_matrix,
)

from conftest import (
    chain_bilinear_rows,
    chain_pairwise_g,
    chain_pairwise_norm,
    chain_pairwise_p,
    chain_pairwise_q,
    chain_pairwise_sq_dists,
    cyclic_pairing_matrix,
)

finite_coord = st.floats(min_value=-10, max_value=10, allow_nan=False)


class TestConstruction:
    def test_swap_r3_pairing_value(self, swap3):
        # b1*c2 + b2*c1 + b3*c3 at b=(1,2,3), c=(4,5,6): 5 + 8 + 18
        assert swap3.pair([1, 2, 3], [4, 5, 6]) == pytest.approx(31.0, abs=1e-12)

    def test_identity_pairing_q_is_half_norm(self, ident2):
        b = np.array([1.5, -2.0])
        assert ident2.q(b) == pytest.approx(0.5 * np.dot(b, b), abs=1e-12)

    def test_cyclic_form_rejected(self):
        with pytest.raises(NotSymmetric):
            SsdSpace(cyclic_pairing_matrix())

    def test_zero_dimension_rejected(self):
        with pytest.raises(ZeroDimension):
            SsdSpace(np.zeros((0, 0)))

    def test_product_pairing_value(self, prod_space):
        # <x,y*> + <y,x*> at (2,3), (5,7): 2*7 + 5*3
        assert prod_space.pair([2, 3], [5, 7]) == pytest.approx(29.0, abs=1e-12)

    def test_pair_with_zero_vanishes(self, swap3):
        assert swap3.pair([1, 2, 3], [0, 0, 0]) == 0.0

    def test_product_norm_needs_even_dim(self):
        with pytest.raises(Exception):
            SsdSpace(np.eye(3), NormSpec("two"))

    @given(st.lists(finite_coord, min_size=3, max_size=3),
           st.lists(finite_coord, min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_pairing_symmetry(self, b, c):
        space = space_swap_r3()
        assert space.pair(b, c) == pytest.approx(space.pair(c, b), abs=1e-9)


class TestQuadraticWeight:
    @pytest.mark.parametrize("weight", [
        [[1.0, 0.0], [0.0, -1.0]],   # indefinite: the norm of (0, 1) would be 0
        [[1.0, 0.0], [0.0, 0.0]],    # singular
        [[1.0, 2.0], [2.0, 1.0]],    # symmetric, eigenvalues 3 and -1
    ])
    def test_weight_not_positive_definite_refused(self, weight):
        with pytest.raises(ValueError, match="^quadratic norm weight is not positive definite$"):
            NormSpec("quadratic", weight=weight)

    @pytest.mark.parametrize("weight", [np.ones((3, 2)), np.ones(2), np.ones((2, 2, 2)),
                                        np.zeros((0, 0))], ids=lambda w: str(w.shape))
    def test_weight_not_square_refused(self, weight):
        message = f"quadratic norm weight must be a square matrix, got shape {weight.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NormSpec("quadratic", weight=weight)

    def test_positive_definite_weight_is_symmetrized(self):
        spec = NormSpec("quadratic", weight=[[2.0, 1.0], [0.0, 2.0]])
        assert np.array_equal(spec.weight, [[2.0, 0.5], [0.5, 2.0]])
        assert spec([0.0, 1.0]) == pytest.approx(np.sqrt(2.0), abs=1e-15)


class TestGauges:
    def test_swap_r3_q_formula(self, swap3):
        b = np.array([1.2, -0.7, 2.5])
        assert swap3.q(b) == pytest.approx(b[0] * b[1] + 0.5 * b[2] ** 2, abs=1e-12)

    def test_remark_2_17_p_formula(self, prod_space):
        pts = np.array([[1.0, 2.0], [-1.5, 0.5], [3.0, -3.0]])
        expected = 0.5 * (pts[:, 0] + pts[:, 1]) ** 2
        assert prod_space.p(pts) == pytest.approx(expected, abs=1e-12)

    def test_p_vanishes_at_origin(self, prod_space, swap3):
        assert prod_space.p(np.zeros(2)) == 0.0
        assert swap3.p(np.zeros(3)) == 0.0

    def test_special_norm_closed_forms(self):
        x = np.array([1.0, -2.0, 0.5, 3.0])  # halves (1,-2) and (0.5,3)
        a, b = np.hypot(1.0, -2.0), np.hypot(0.5, 3.0)
        tau = 2.0
        assert NormSpec("one", tau=tau)(x) == pytest.approx((tau * a + b / tau) / np.sqrt(2))
        assert NormSpec("two", tau=tau)(x) == pytest.approx(np.hypot(tau * a, b / tau))
        assert NormSpec("inf", tau=tau)(x) == pytest.approx(np.sqrt(2) * max(tau * a, b / tau))

    def test_special_norms_are_ordered(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(200, 4))
        for tau in (0.5, 1.0, 2.0):
            n1 = NormSpec("one", tau=tau)(pts)
            n2 = NormSpec("two", tau=tau)(pts)
            ni = NormSpec("inf", tau=tau)(pts)
            assert np.all(n1 <= n2 + 1e-12)
            assert np.all(n2 <= ni + 1e-12)

    @given(st.lists(finite_coord, min_size=2, max_size=2),
           st.floats(min_value=-3, max_value=3, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_q_ray_is_positive(self, b, t):
        # if q(b) >= 0 the whole line through b keeps pairwise gaps >= 0
        space = product_space(1)
        b = np.asarray(b)
        if space.q(b) >= 0:
            s = t + 1.0
            assert space.q(t * b - s * b) >= -1e-9


class TestIota:
    def test_iota_realizes_pairing(self, swap3):
        rng = np.random.default_rng(1)
        bs = rng.normal(size=(1000, 3))
        cs = rng.normal(size=(1000, 3))
        lhs = np.einsum("ni,ni->n", bs, cs @ swap3.pairing.T)
        rhs = np.einsum("ni,ni->n", bs @ swap3.pairing, cs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_iota_is_identity_for_identity_pairing(self, ident2):
        assert np.array_equal(ident2.iota_apply(np.eye(2)), np.eye(2))

    def test_iota_swaps_product_halves(self, prod_space):
        out = prod_space.iota_apply(np.array([2.0, 3.0]))
        assert np.array_equal(out, [3.0, 2.0])

    def test_pairing_bounded_by_operator_norm(self, prod_space):
        rng = np.random.default_rng(2)
        op, estimated = prod_space.operator_norm()
        assert not estimated and op == pytest.approx(1.0)
        b = rng.normal(size=(500, 2))
        c = rng.normal(size=(500, 2))
        vals = np.abs(np.einsum("ni,ij,nj->n", b, prod_space.pairing, c))
        bound = op * prod_space.norm(b) * prod_space.norm(c)
        assert np.all(vals <= bound + 1e-9)

    def test_operator_norm_exact_values(self):
        assert product_space(1, "one").operator_norm() == (pytest.approx(2.0), False)
        assert product_space(1, "inf").operator_norm() == (pytest.approx(1.0), False)
        assert space_identity(3).operator_norm() == (pytest.approx(1.0), False)


class TestBanachCompatibility:
    def test_negated_pairing_cancels_exactly(self):
        rep = check_banach_ssd(space_negated(2))
        assert rep.passed
        assert rep.check("gauge_nonnegative").worst_residual == pytest.approx(0.0, abs=1e-12)

    def test_product_two_norm_passes(self, prod_space, grid61):
        rep = check_banach_ssd(prod_space, probe=grid61)
        assert rep.passed

    def test_halved_norm_fails_on_antidiagonal(self):
        space = product_space(1, "two", scale=0.5)
        grid = GridSpec.box(-3, 3, 61, 2)
        rep = check_banach_ssd(space, probe=grid)
        assert not rep.passed
        w = np.asarray(rep.check("gauge_nonnegative").witness)
        # independent brute force over the same grid
        pts = grid.points()
        vals = 0.125 * np.sum(pts**2, axis=1) + pts[:, 0] * pts[:, 1]
        assert vals.min() < 0
        assert space.p(w) == pytest.approx(vals.min(), abs=1e-12)
        assert w[0] == pytest.approx(-w[1], abs=1e-12)  # anti-diagonal witness

    def test_analytic_probe_rejects_split_norms(self):
        """Only the kinked split norms lack a quadratic form; `two` has one,
        so its analytic probe runs and agrees with the sampled one."""
        for kind in ("one", "inf"):
            with pytest.raises(UnsupportedProbe):
                check_banach_ssd(product_space(1, kind))
        grid = GridSpec.box(-3, 3, 61, 2)
        for scale in (1.0, 0.5):
            space = product_space(1, "two", scale=scale)
            analytic = check_banach_ssd(space)
            sampled = check_banach_ssd(space, probe=grid)
            assert analytic.meta["method"] == "analytic"
            assert analytic.passed == sampled.passed == (scale == 1.0)
        # the halved norm: W + M = [[1/4, 1], [1, 1/4]], least eigenvalue -3/4
        w = np.asarray(analytic.check("gauge_nonnegative").witness)
        assert np.array_equal(w, [1.0, -1.0])
        assert analytic.check("gauge_nonnegative").worst_residual == pytest.approx(0.75, abs=1e-12)

    def test_analytic_probe_on_quadratic_norms(self, ident2, swap3):
        assert check_banach_ssd(ident2).passed
        assert check_banach_ssd(swap3).passed


class TestLipschitz:
    def test_identity_space_random_pairs(self, ident2):
        rep = lipschitz_checks(ident2, n_pairs=2000)
        assert rep.passed
        assert rep.meta["operator_norm"] == pytest.approx(1.0)

    def test_equal_points_make_both_sides_zero(self, prod_space):
        d = np.array([1.0, 2.0])
        op, _ = prod_space.operator_norm()
        lhs = abs(prod_space.q(d) - prod_space.q(d))
        rhs = 0.5 * op * prod_space.norm(d - d) * prod_space.norm(d + d)
        assert lhs == 0.0 and rhs == 0.0

    def test_product_space_many_pairs(self):
        for kind in ("one", "two", "inf"):
            rep = lipschitz_checks(product_space(1, kind, tau=2.0), n_pairs=10_000)
            assert rep.passed, kind


class TestPairwiseKernels:
    def test_pairwise_q_matches_loop(self, prod_space):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(7, 2))
        ys = rng.normal(size=(5, 2))
        mat = pairwise_q(prod_space, xs, ys)
        for i in range(7):
            for j in range(5):
                assert mat[i, j] == pytest.approx(prod_space.q(xs[i] - ys[j]), abs=1e-10)

    @pytest.mark.parametrize("kind,tau", [("one", 0.5), ("two", 1.0), ("inf", 2.0)])
    def test_pairwise_p_matches_loop(self, kind, tau):
        space = product_space(1, kind, tau=tau)
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(6, 2))
        ys = rng.normal(size=(6, 2))
        mat = pairwise_p(space, xs, ys)
        for i in range(6):
            for j in range(6):
                assert mat[i, j] == pytest.approx(space.p(xs[i] - ys[j]), abs=1e-10)

    def test_pairwise_norm_matches_loop(self):
        space = product_space(2, "inf", tau=0.5)
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(4, 4))
        ys = rng.normal(size=(4, 4))
        mat = pairwise_norm(space, xs, ys)
        for i in range(4):
            for j in range(4):
                assert mat[i, j] == pytest.approx(space.norm(xs[i] - ys[j]), abs=1e-10)

    @given(st.sampled_from(["one", "two", "inf"]),
           st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
           st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_pairwise_p_consistent_for_random_norms(self, kind, tau, scale, seed):
        space = product_space(1, kind, tau=tau, scale=scale)
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=(3, 2))
        ys = rng.normal(size=(3, 2))
        mat = pairwise_p(space, xs, ys)
        for i in range(3):
            for j in range(3):
                assert mat[i, j] == pytest.approx(space.p(xs[i] - ys[j]),
                                                  abs=1e-9, rel=1e-9)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _fixed_order(x, m, y):
    """The documented summation order, one row at a time in Python floats."""
    out = []
    for xr, yr in zip(x.tolist(), y.tolist()):
        acc = 0.0
        for i, row in enumerate(m.tolist()):
            for j, mij in enumerate(row):
                acc += xr[i] * mij * yr[j]
        out.append(acc)
    return np.array(out)


def _bilinear_case(d, n, kind):
    """Rows over six decades with some -0.0, +-inf and 0.0 entries, and a
    swap (d even), general or symmetric matrix, also with special entries."""
    rng = np.random.default_rng(1000 * d + n)
    x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, d))
    y = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, d))
    specials = np.array([np.inf, -np.inf, -0.0, 0.0])
    for rows in (x, y):
        mask = rng.random((n, d)) < 0.1
        rows[mask] = rng.choice(specials, size=int(mask.sum()))
    if kind == "swap":
        return x, swap_matrix(d // 2), y
    m = rng.standard_normal((d, d))
    if kind == "symmetric":
        m = m + m.T
    m[rng.random((d, d)) < 0.2] = -0.0
    return x, m, y


class TestBilinearRows:
    """`bilinear_rows` sums its d * d terms in one fixed order: i outer, j
    inner, each term x_i * m_ij * y_j formed left to right."""

    CASES = [(d, n, kind) for d in (1, 2, 3, 4) for n in (1, 3, 61, 3721)
             for kind in ("swap", "general", "symmetric") if kind != "swap" or d % 2 == 0]

    @pytest.mark.parametrize("d,n,kind", CASES)
    def test_bitwise_equal_to_einsum_on_c_rows(self, d, n, kind):
        x, m, y = _bilinear_case(d, n, kind)
        got = bilinear_rows(x, m, y)
        assert np.array_equal(_bits(got), _bits(_fixed_order(x, m, y)))
        if d == 2 and n == 1 and kind != "swap":
            # with d = 2 and one or two rows einsum sums each i's terms first;
            # the two groupings agree only where the form has two nonzero
            # terms (the swap and any diagonal matrix)
            return
        want = np.einsum("ni,ij,nj->n", x, m, y)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("d,n,kind", CASES)
    def test_same_bits_for_any_memory_order(self, d, n, kind):
        x, m, y = _bilinear_case(d, n, kind)
        # einsum sums in memory order: with x and y in different orders its
        # bits can differ from those it gives on C-ordered rows
        want = _bits(bilinear_rows(x, m, y))
        fx, fy = np.asfortranarray(x), np.asfortranarray(y)
        wide = lambda a: np.hstack([a, -a])[:, :d]
        for xx, yy in ((fx, fy), (x, fy), (fx, y), (wide(x), wide(y)), (wide(x), y)):
            assert np.array_equal(_bits(bilinear_rows(xx, m, yy)), want)


def _inplace_case(seed, d, variant):
    """A space of dimension d with the given norm variant, and two row blocks
    holding +inf entries, -0.0 rows and a row repeated across the blocks."""
    rng = np.random.default_rng(seed)
    m = rng.integers(-2, 3, size=(d, d)).astype(float)
    m = m + m.T
    if variant in ("one", "two", "inf"):
        space = product_space(d // 2, variant, tau=float(rng.uniform(0.3, 3.0)),
                              scale=float(rng.uniform(0.5, 2.0)))
    elif variant == "quadratic":
        w = rng.normal(size=(d, d))
        space = SsdSpace(m, NormSpec("quadratic", weight=w @ w.T + d * np.eye(d),
                                     scale=float(rng.uniform(0.5, 2.0))))
    else:
        space = SsdSpace(m, NormSpec(scale=float(rng.uniform(0.5, 2.0))))
    x = rng.normal(scale=3.0, size=(int(rng.integers(1, 9)), d))
    y = np.round(rng.normal(scale=3.0, size=(int(rng.integers(1, 9)), d)))
    x[rng.random(x.shape) < 0.1] = np.inf
    y[rng.random(y.shape) < 0.2] = -0.0
    x[0] = -0.0
    y[-1] = x[-1]
    return space, x, y


VARIANTS = st.sampled_from([(1, "euclidean"), (2, "euclidean"), (3, "euclidean"),
                            (4, "euclidean"), (1, "quadratic"), (3, "quadratic"),
                            (4, "quadratic"), (2, "one"), (2, "two"), (2, "inf"),
                            (4, "one"), (4, "two"), (4, "inf")])


class TestInPlaceKernels:
    """The in-place pairwise gauges and `bilinear_rows` against the
    temporary-chain formulas kept in conftest, bit for bit."""

    @given(st.integers(min_value=0, max_value=10_000), VARIANTS)
    @settings(max_examples=120, deadline=None)
    def test_pairwise_gauges_match_chains(self, seed, case):
        space, x, y = _inplace_case(seed, *case)
        with np.errstate(invalid="ignore", over="ignore"):
            pairs = [(pairwise_q(space, x, y), chain_pairwise_q(space, x, y)),
                     (pairwise_g(space, x, y), chain_pairwise_g(space, x, y)),
                     (pairwise_p(space, x, y), chain_pairwise_p(space, x, y)),
                     (pairwise_norm(space, x, y), chain_pairwise_norm(space, x, y)),
                     (pairwise_sq_dists(x, y), chain_pairwise_sq_dists(x, y))]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))

    @given(st.integers(min_value=0, max_value=10_000), VARIANTS)
    @settings(max_examples=60, deadline=None)
    def test_bilinear_rows_matches_chain(self, seed, case):
        space, x, _ = _inplace_case(seed, *case)
        y = x[::-1].copy()
        got = bilinear_rows(x, space.pairing, y)
        assert np.array_equal(_bits(got), _bits(chain_bilinear_rows(x, space.pairing, y)))


class TestSerialization:
    def test_space_roundtrip(self, tmp_path, prod_space):
        path = tmp_path / "space.json"
        save_space_document(prod_space, path)
        back = load_space_document(path)
        assert "dual" not in json.loads(path.read_text())
        assert back.dim == prod_space.dim
        assert np.array_equal(back.pairing, prod_space.pairing)
        assert back.norm.variant == prod_space.norm.variant
        assert back.norm.tau == prod_space.norm.tau

    @pytest.mark.parametrize("norm", [[1], "two", None])
    def test_non_object_norm_names_the_key(self, norm):
        doc = {"pairing": [[0.0, 1.0], [1.0, 0.0]], "norm": norm}
        with pytest.raises(ValueError, match="^space document's 'norm' is not a JSON object$"):
            SsdSpace.from_dict(doc)


class TestSpaceDual:
    def test_built_once_and_held(self):
        sp = space_r2_product("two")
        assert sp.dual is sp.dual
        assert np.array_equal(sp.dual.pairing, swap_matrix(1))
        assert sp.dual.norm.variant == "two" and sp.dual.label == sp.label + " (dual)"

    def test_a_second_suite_run_builds_no_dual(self):
        from ssdkit import spaces
        from ssdkit.suites import SuiteOptions, run_suite

        opts = SuiteOptions(grid=GridSpec.box(-3.0, 3.0, 21, 2))
        run_suite("theorem_5_8", opts)
        with mock.patch.object(spaces, "check_banach_ssd",
                               wraps=spaces.check_banach_ssd) as spy:
            run_suite("theorem_5_8", opts)
            assert spy.call_count == 0
            space_r2_product("two").dual  # a new space builds its own, once
            assert spy.call_count == 1

    def test_no_dual_raises_on_every_access(self):
        sp = space_nodual()
        for _ in range(2):
            with pytest.raises(NoDual) as exc:
                sp.dual
            assert np.array_equal(exc.value.witness, [1.0, -1.0])
            assert exc.value.value == -0.75
        assert "dual" not in vars(sp)

    def test_zero_pairing_raises_on_every_access(self):
        sp = space_zero_pairing(2)
        for _ in range(2):
            with pytest.raises(SingularPairing, match="numerically singular"):
                sp.dual
