import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdkit import (
    GridMismatch,
    NoDual,
    NormSpec,
    PreconditionFailed,
    SingularPairing,
    dual_norm_check,
    fitz_triple,
    lemma_4_7_identity,
    numerical_dual_norm,
    p_tilde_density,
    product_space,
    theorem_4_10_battery,
    vz_mas_equivalence,
)
from ssdkit.catalog import (
    all_special_spaces,
    default_grid,
    half_sq_norm_fn,
    q_plus_const_fn,
    singleton_origin,
    space_identity,
    space_nodual,
    space_swap_r3,
    space_zero_pairing,
)
from ssdkit.duality import density_report
from ssdkit.kernels import kernel_ledger

from conftest import (
    assert_scans_bitwise_one_block,
    dense_sphere_scan,
    difference_scans,
    indicator_fn,
)

SQRT2 = np.sqrt(2.0)


class TestMakeDual:
    def test_identity_space_is_self_dual(self):
        dual = space_identity(2).dual
        assert np.array_equal(dual.pairing, np.eye(2))
        assert dual.norm.variant == "euclidean"

    def test_involutive_pairing_is_self_dual(self, swap3):
        dual = swap3.dual
        assert dual.pairing == pytest.approx(swap3.pairing, abs=1e-14)

    def test_scaled_product_norm_has_no_dual(self):
        with pytest.raises(NoDual) as exc:
            space_nodual().dual
        w = np.asarray(exc.value.witness)
        assert w == pytest.approx([1.0, -1.0], abs=1e-12)
        assert exc.value.value == pytest.approx(-0.75, abs=1e-12)

    @pytest.mark.parametrize("kind", ["one", "inf"])
    def test_scaled_kinked_norm_has_no_dual_on_the_sampled_box(self, kind):
        space = product_space(1, kind, scale=2.0)
        with pytest.raises(NoDual) as exc:
            space.dual
        # independent brute force over the same 81^2 box on [-1, 1]^2: the
        # dual norm is the sup of <x, c> over the primal unit sphere, scanned
        # on the quarter circle (both halves are scalars, so their radii are
        # |c_1| and |c_2|); the kinked spheres' corners lie on the scan
        axis = np.linspace(-1.0, 1.0, 81)
        box = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        ts = np.linspace(0.0, np.pi / 2.0, 257)
        lengths = space.norm.scale * space.norm.combine_halves(np.cos(ts), np.sin(ts))
        dual_norm = np.max((np.abs(box[:, :1]) * np.cos(ts) + np.abs(box[:, 1:]) * np.sin(ts))
                           / lengths, axis=1)
        q_tilde = 0.5 * np.sum((box @ np.linalg.inv(space.pairing)) * box, axis=1)
        p_tilde = 0.5 * dual_norm**2 + q_tilde
        first = int(np.flatnonzero(p_tilde <= p_tilde.min() + 1e-12)[0])
        assert np.array_equal(exc.value.witness, box[first])
        assert exc.value.value == pytest.approx(float(p_tilde.min()), abs=1e-12)
        assert np.array_equal(exc.value.witness, [-1.0, 1.0])
        assert exc.value.value == pytest.approx(-0.75, abs=1e-12)
        assert "p_tilde([-1.0, 1.0]) = -0.75" in str(exc.value)

    def test_special_norms_all_admit_duals(self):
        for kind in ("one", "two", "inf"):
            for tau in (0.5, 1.0, 2.0):
                dual = product_space(2, kind, tau=tau).dual
                assert dual.norm.tau == pytest.approx(1.0 / tau)

    def test_dual_kind_partners(self):
        assert product_space(1, "one").dual.norm.variant == "inf"
        assert product_space(1, "two").dual.norm.variant == "two"
        assert product_space(1, "inf").dual.norm.variant == "one"

    def test_zero_pairing_rejected(self):
        with pytest.raises(SingularPairing):
            space_zero_pairing(2).dual

    def test_pullback_identities_on_random_vectors(self, prod_space):
        rng = np.random.default_rng(10)
        b = rng.normal(size=(1000, 2))
        c = rng.normal(size=(1000, 2))
        ib, ic = b @ prod_space.pairing.T, c @ prod_space.pairing.T
        # pairing of images recovers the primal pairing
        lhs = np.einsum("ni,ij,nj->n", ib, prod_space.dual.pairing, ic)
        rhs = np.einsum("ni,ij,nj->n", b, prod_space.pairing, c)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        # dual form composed with the map recovers q
        assert np.max(np.abs(prod_space.dual.q(ib) - prod_space.q(b))) < 1e-10

    def test_norm_duality_is_an_involution(self):
        for kind in ("one", "two", "inf"):
            spec = NormSpec(kind, tau=2.0)
            back = spec.dual().dual()
            assert back.variant == kind
            assert back.tau == pytest.approx(2.0)
            assert back.scale == pytest.approx(1.0)

    def test_space_document_roundtrip_with_dual(self, tmp_path, prod_space):
        from ssdkit.duality import load_space_document, save_space_document

        path = tmp_path / "space.json"
        save_space_document(prod_space, path, dual=True)
        space = load_space_document(path)
        assert np.array_equal(space.pairing, prod_space.pairing)
        assert "dual" in json.loads(path.read_text())
        assert np.allclose(space.dual.pairing, prod_space.dual.pairing)

    def test_support_fn_identity_through_dual_form(self, prod_space, diag121):
        # theta(b*) = q~(b*) - inf q~(b* - image of the set), exactly
        from ssdkit import theta
        from ssdkit.spaces import pairwise_q

        rng = np.random.default_rng(14)
        bstars = rng.uniform(-4, 4, size=(200, 2))
        image = diag121.points @ prod_space.pairing.T
        lhs = theta(prod_space, diag121, bstars)
        rhs = prod_space.dual.q(bstars) - np.min(
            pairwise_q(prod_space.dual, bstars, image), axis=1)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestDualNorms:
    def test_frozen_value_tau_one(self):
        space = product_space(1, "one", tau=1.0)
        assert numerical_dual_norm(space, np.array([1.0, 0.0])) == pytest.approx(SQRT2, abs=1e-6)

    def test_r4_all_kinds_match_closed_form(self):
        for kind in ("one", "two", "inf"):
            for tau in (0.5, 1.0, 2.0):
                space = product_space(2, kind, tau=tau)
                rep = dual_norm_check(space, n_samples=40)
                assert rep.passed, (kind, tau)

    def test_zero_vector(self, prod_space):
        assert numerical_dual_norm(prod_space, np.zeros(2)) == 0.0
        assert prod_space.dual.norm(np.zeros(2)) == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["one", "two", "inf"])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_scan_matches_dense_sphere_oracle(self, n, kind, tau):
        # one call over rows and one call per vector, against the elementwise
        # scan; the sup kernel's matrix product rounds r1 a + r2 b its own way,
        # so values may differ from the oracle by 2 ulp
        space = product_space(n, kind, tau=tau)
        ys = np.random.default_rng(7).uniform(-3, 3, size=(24, 2 * n))
        ys[3] = 0.0
        oracle = dense_sphere_scan(space, ys)
        rows = numerical_dual_norm(space, ys)
        assert rows.shape == (24,)
        assert np.all(np.abs(rows - oracle) <= 2 * np.spacing(oracle))
        assert rows[3] == 0.0
        for y, want in zip(ys[:4], oracle[:4]):
            one = numerical_dual_norm(space, y)
            assert isinstance(one, float)
            assert abs(one - want) <= 2 * np.spacing(want)

    def test_zero_row_among_rows(self, prod_space):
        vals = numerical_dual_norm(prod_space, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
        assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] > 0.0

    @pytest.mark.parametrize("kind,tau", [("two", 0.5), ("inf", 0.5), ("inf", 2.0)])
    def test_check_verdicts_match_oracle(self, kind, tau):
        # the check's worst error and witness, recomputed from the oracle scan
        # of the same seeded samples, and its verdict on either side of it;
        # these norms have a sampling error of 1e-10 to 1e-5, far above rounding
        space = product_space(2, kind, tau=tau)
        dual = space.dual
        ys = np.random.default_rng(42).uniform(-3.0, 3.0, size=(60, 4))
        errs = np.abs(dense_sphere_scan(space, ys) - dual.norm(ys))
        worst = float(np.max(errs))
        for tol, verdict in ((1e-4, True), (0.5 * worst, False)):
            check = dual_norm_check(space, n_samples=60, tol=tol) \
                .check("dual_norm_closed_form")
            assert check.status == ("pass" if verdict else "fail")
            assert check.worst_residual == pytest.approx(worst, rel=0.0, abs=1e-14)
            assert np.array_equal(check.witness, ys[int(np.argmax(errs))])

    def test_paper_coordinate_reading(self):
        # dual of the one-kind norm evaluates like the inf-kind formula on the
        # swapped halves (the dual vector reads (x*, x**) in dot coordinates)
        space = product_space(1, "one", tau=2.0)
        dual = space.dual
        y = np.array([0.7, -1.3])  # (y*, y**)
        claimed = SQRT2 * max(2.0 * abs(y[1]), abs(y[0]) / 2.0)
        assert dual.norm(y) == pytest.approx(claimed, abs=1e-12)


class TestDensity:
    def test_image_point_achieves_zero(self, prod_space, grid61):
        b = np.array([1.2, -0.6])  # on the 61-point lattice
        val, wit = p_tilde_density(prod_space, b @ prod_space.pairing.T, grid61)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_constructive_witness_off_grid(self, grid61):
        rng = np.random.default_rng(11)
        for kind in ("one", "two", "inf"):
            for tau in (0.5, 1.0, 2.0):
                space = product_space(1, kind, tau=tau)
                dual = space.dual
                for _ in range(5):
                    b = rng.uniform(-10, 10, size=2)  # far outside the box
                    val, wit = p_tilde_density(space, b, grid61)
                    assert val <= 1e-6, (kind, tau, b)
                    # the split-norm algebraic witness is exact on its own
                    w = np.array([0.0, b[0] + tau**2 * b[1]])
                    direct = dual.p(b - space.iota_apply(w))
                    assert abs(direct) <= 1e-12, (kind, tau, b)

    @pytest.mark.parametrize("space_fn", [
        lambda: product_space(1, "one", tau=0.5),
        lambda: product_space(1, "two", tau=2.0),
        lambda: product_space(2, "inf", tau=1.0),
        lambda: space_identity(2),
        space_swap_r3,
    ])
    def test_rows_match_per_probe_loop(self, space_fn):
        # the pair scan plus the algebraic witnesses as array ops, against a
        # loop over probes that takes each candidate with a strict `<`
        from ssdkit.spaces import swap_matrix

        space = space_fn()
        dual = space.dual
        grid = default_grid(space.dim, -2.0, 2.0, 21 if space.dim == 2 else 9)
        nodes = grid.points()
        image = nodes @ space.pairing.T
        probes = np.random.default_rng(3).uniform(-6, 6, size=(15, space.dim))
        probes[4] = image[17]
        vals, wits = p_tilde_density(space, probes, grid)
        n = space.dim // 2
        split = (space.norm.variant in ("one", "two", "inf") and space.norm.scale == 1.0
                 and np.array_equal(space.pairing, swap_matrix(n)))
        for b, val, wit in zip(probes, vals, wits):
            grid_vals = dual.p(b[None, :] - image)
            i = int(np.argmin(grid_vals))
            best, best_wit = float(grid_vals[i]), nodes[i]
            cands = []
            if split:
                cands.append(np.concatenate([np.zeros(n), b[:n] + space.norm.tau**2 * b[n:]]))
            cands.append(np.linalg.solve(space.pairing, b))
            for w in cands:
                v = float(dual.p(b - space.iota_apply(w)))
                if v < best:
                    best, best_wit = v, w
            assert val == best
            assert np.array_equal(wit, best_wit)
            one_val, one_wit = p_tilde_density(space, b, grid)
            assert one_val == val and np.array_equal(one_wit, wit)

    def test_density_report_passes_for_special_norms(self, grid61):
        for kind in ("one", "two", "inf"):
            space = product_space(1, kind, tau=0.5)
            rep = density_report(space, grid61)
            assert rep.passed

    def test_default_probes_follow_the_dual_inflation(self, prod_space, grid61):
        # the default probe box is `dual_probe_blocks`' box, coarsened to 7 nodes
        from unittest import mock

        from ssdkit import duality, fitzpatrick
        from ssdkit.grids import GridSpec, image_box

        for inflate in (1.5, 2.5):
            with mock.patch.object(fitzpatrick, "DUAL_INFLATION", inflate), \
                    mock.patch.object(duality, "p_tilde_density",
                                      wraps=duality.p_tilde_density) as spy:
                density_report(prod_space, grid61)
            box = image_box(grid61, prod_space.pairing, inflate=inflate, include_source=True)
            want = GridSpec(box.lower, box.upper, np.minimum(box.num, 7)).points()
            assert np.array_equal(spy.call_args.args[1], want)


    def test_density_report_is_the_worst_probe(self, grid61):
        rng = np.random.default_rng(5)
        probes = rng.uniform(-8, 8, size=(12, 2))
        for space in (product_space(1, "one", tau=0.5), space_identity(2)):
            rep = density_report(space, grid61, probe_points=probes)
            vals = [p_tilde_density(space, b, grid61)[0] for b in probes]
            worst = int(np.argmax(vals))
            assert rep.checks[0].worst_residual == max(0.0, vals[worst])
            assert np.array_equal(rep.checks[0].witness, probes[worst])
            assert rep.meta["n_probes"] == 12

    def test_one_flat_probe_counts_once(self, prod_space, grid61):
        rep = density_report(prod_space, grid61, probe_points=[0.5, -0.5])
        assert rep.meta["n_probes"] == 1
        assert np.array_equal(rep.checks[0].witness, [0.5, -0.5])


class TestDensityScanBlocks:
    """`p_tilde_density`'s pair scan: 49 probes against the 3,721 image nodes
    of a 61^2 grid, in blocks of 4 probe rows whose p-tilde temporaries
    total about one score block; in 35-row blocks, the gemm kernels' rule,
    the scan peaked at 8.1 MB."""

    def test_scan_peaks_in_one_score_block(self, prod_space, grid61):
        scans = difference_scans(lambda: density_report(prod_space, grid61))
        assert len(scans) == 1
        assert scans[0].peak <= 2.5 * 2 ** 20

    @pytest.mark.parametrize("space", [*all_special_spaces(), space_identity(2)],
                             ids=lambda sp: sp.label)
    def test_blocks_give_the_one_block_bits(self, space, grid61):
        assert_scans_bitwise_one_block(lambda: density_report(space, grid61))


class TestLemma47:
    @pytest.mark.parametrize("space_fn,kernel", [
        (lambda: space_identity(2), "separable"),
        (lambda: product_space(1, "two", tau=1.0), "scattered"),
    ])
    def test_records_inf_path(self, space_fn, kernel, grid61):
        space = space_fn()
        f = half_sq_norm_fn(grid61)
        with kernel_ledger() as ledger:
            lemma_4_7_identity(space, f, grid61, tol=1.0)
        # term1, the f* sup, term2; a scattered collapse scores the 342
        # bitwise-distinct rows of its rank-one targets c @ (W + M)
        term = (kernel, 3721, 3721 if kernel == "separable" else 342)
        assert [entry[:3] for entry in ledger] == [term, ("separable", 3721, 3721), term]

    def test_shifted_quadratic_on_identity_space(self):
        space = space_identity(2)
        grid = default_grid(2, -3, 3, 61)
        f = q_plus_const_fn(space, grid)  # convex here: q is the half square
        rep = lemma_4_7_identity(space, f, grid.subsample(2))
        assert rep.passed
        # the two terms are +1 and -1 separately
        assert rep.meta["max_term1"] == pytest.approx(1.0, abs=1e-6)
        assert rep.meta["max_term2"] == pytest.approx(1.0, abs=1e-2)

    def test_worked_example_both_terms_vanish(self, prod_space, grid121):
        f = half_sq_norm_fn(grid121)
        rep = lemma_4_7_identity(prod_space, f, grid121.subsample(2), tol=5e-3)
        assert rep.passed
        assert rep.meta["max_term1"] <= 2e-3
        assert rep.meta["max_term2"] <= 2e-3

    def test_diagonal_representer(self, prod_space, grid121, diag121):
        phi_fn = fitz_triple(prod_space, diag121, grid121).phi_fn
        rep = lemma_4_7_identity(prod_space, phi_fn, grid121.subsample(2), tol=5e-3)
        assert rep.passed

    def test_singleton_indicator_needs_wide_dual_lattice(self, prod_space, grid61):
        from ssdkit.grids import image_box

        f = indicator_fn(grid61, [[0.5, 0.5]])
        wide = image_box(grid61, prod_space.pairing, inflate=3.0, include_source=True)
        rep = lemma_4_7_identity(prod_space, f, grid61.subsample(2),
                                 tol=5e-2, dual_grid=wide)
        assert rep.passed
        # the two terms are macroscopic separately but cancel:
        # term1 = p(c - a) - q(a), term2 = q(a) - p(c - a)
        assert rep.meta["max_term1"] > 1.0

    @pytest.mark.parametrize("pairing,kernel", [
        ([[0.0, 1.0], [1.0, 0.0]], "separable"),
        ([[1.0, 0.0], [0.0, 1.0]], "separable"),
        ([[1.0, 0.5], [0.5, 1.0]], "scattered"),
    ])
    @pytest.mark.parametrize("widen", [False, True])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_fstar_matches_brute_force(self, pairing, kernel, widen, seed):
        from ssdkit import GridFn, GridSpec, SsdSpace
        from ssdkit.gridfn import min_values_plus_gauge, zero_infconv_residuals

        from conftest import brute_force_conjugate

        space = SsdSpace(np.array(pairing))
        dual = space.dual
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-2.0, -0.5, 2)
        grid = GridSpec(lo, lo + rng.uniform(1.0, 3.0, 2), rng.integers(3, 8, 2))
        vals = rng.normal(size=grid.size)
        vals[rng.random(grid.size) < 0.2] = np.inf
        vals[0] = 0.0
        f = GridFn._raw(grid, vals)
        center, half = 0.5 * (grid.lower + grid.upper), grid.upper - grid.lower
        dual_grid = (GridSpec(center - half, center + half, rng.integers(3, 8, 2))
                     if widen else None)
        with kernel_ledger() as ledger:
            rep = lemma_4_7_identity(space, f, grid, tol=1.0, dual_grid=dual_grid)
        nodes = grid.points() @ space.pairing.T if dual_grid is None else dual_grid.points()
        fstar = brute_force_conjugate(grid.points(), f.values, nodes)
        term1, _ = zero_infconv_residuals(f, space, grid.points())
        term2, _ = min_values_plus_gauge(dual, fstar - dual.q(nodes), nodes,
                                         grid.points() @ space.pairing.T)
        assert rep.meta["max_term2"] == pytest.approx(float(np.max(np.abs(term2))),
                                                      rel=0.0, abs=1e-12)
        assert rep.checks[0].worst_residual == pytest.approx(
            float(np.max(np.abs(term1 + term2))), rel=0.0, abs=1e-12)
        assert len(ledger) == 3  # term1, the f* sup, term2
        assert ledger[1][0] == ("separable" if widen else kernel)


class TestVzMasEquivalence:
    def test_catalog_agrees(self, prod_space, grid61, diag121, density61):
        triple = fitz_triple(prod_space, diag121, grid61)
        worked = half_sq_norm_fn(grid61)
        shifted = q_plus_const_fn(prod_space, grid61)
        for fn in (worked, triple.phi_fn, triple.star_theta_fn, shifted):
            rep = vz_mas_equivalence(prod_space, fn, density61)
            assert rep.passed, fn.form

    def test_verdicts_recorded(self, prod_space, grid61, density61):
        rep = vz_mas_equivalence(prod_space,
                                 q_plus_const_fn(prod_space, grid61), density61)
        assert rep.meta["vz"] is False and rep.meta["mas"] is False

    def test_unverified_density_refused(self, prod_space, grid61):
        from ssdkit import DensityNotVerified
        from ssdkit.reports import VerifyReport

        # with an invertible pairing the preimage witness makes density exact,
        # so the refusal path is exercised with an explicitly failing report
        failing = VerifyReport(suite="p_tilde_density")
        failing.add("image_density", "eq_4_2_1", False, residual=1.0)
        with pytest.raises(DensityNotVerified):
            vz_mas_equivalence(prod_space, half_sq_norm_fn(grid61), failing)

    def test_density_of_another_grid_refused(self, prod_space, grid61,
                                             grid121):
        other = density_report(prod_space, grid121)
        assert other.passed
        with pytest.raises(GridMismatch):
            vz_mas_equivalence(prod_space, half_sq_norm_fn(grid61), other)

    def test_involutive_three_dim_space_end_to_end(self, swap3):
        # the R^3 swap space is its own dual; the half-square function has
        # gap (b1 - b2)^2 / 2, touching plane b1 = b2, and is VZ and MAS there
        from ssdkit import GridSpec, is_mas, is_vz
        from ssdkit.catalog import default_grid

        grid = default_grid(3, -2.0, 2.0, 17)
        f = half_sq_norm_fn(grid)
        assert is_vz(f, swap3).passed
        assert is_mas(f, swap3).passed
        rep = vz_mas_equivalence(swap3, f, density_report(swap3, grid))
        assert rep.passed and rep.meta["vz"] is True


class TestTheorem410:
    def test_diagonal_battery_unanimous(self, prod_space, grid61, diag121,
                                        density61):
        rep = theorem_4_10_battery(fitz_triple(prod_space, diag121, grid61),
                                   density61)
        assert rep.passed
        assert all(rep.meta["verdicts"].values())

    def test_singleton_refused(self, prod_space, grid61, density61):
        with pytest.raises(PreconditionFailed):
            theorem_4_10_battery(fitz_triple(prod_space, singleton_origin(2), grid61),
                                 density61)

    def test_midpoint_candidate_in_sandwich(self, prod_space, grid61, diag121,
                                            density61):
        rep = theorem_4_10_battery(fitz_triple(prod_space, diag121, grid61),
                                   density61)
        assert rep.check("b2_candidate2_conj_dominates").status == "pass"

    def test_density_of_another_grid_refused(self, prod_space, grid61, diag121):
        # a passing density report, but of a box other than the triple's grid
        other = density_report(prod_space, default_grid(2, -2.0, 4.0, 61))
        assert other.passed
        with pytest.raises(GridMismatch):
            theorem_4_10_battery(fitz_triple(prod_space, diag121, grid61),
                                 other)

    def test_b2_reads_the_mas_dual_minorization(self, prod_space, grid61, diag121,
                                                density61):
        # b2's residual is the conjugate's dip below q, recomputed here directly
        from ssdkit import intrinsic_conjugate

        triple = fitz_triple(prod_space, diag121, grid61)
        rep = theorem_4_10_battery(triple, density61)
        for idx, h in enumerate((triple.phi_fn, triple.star_theta_fn)):
            dom = float(np.min(intrinsic_conjugate(h, prod_space).values
                               - prod_space.q(grid61.points())))
            check = rep.check(f"b2_candidate{idx}_conj_dominates")
            assert check.worst_residual == max(0.0, -dom)
