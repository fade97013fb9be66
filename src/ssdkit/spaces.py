"""Finite-dimensional spaces carrying a symmetric pairing and a compatible norm.

A space is R^d with a symmetric matrix M defining the pairing
``pair(b, c) = b^T M c`` and a norm chosen from a small family.  The dual of
R^d is identified with R^d through the standard dot product, so the canonical
map from the space into its dual is literally the matrix M.

Quadratic gauges used everywhere downstream:

    q(b) = pair(b, b) / 2        g(b) = norm(b)^2 / 2        p = g + q

A space is "norm-compatible" when p >= 0 everywhere; `check_banach_ssd`
verifies this analytically (quadratic norms) or on a sample grid.

Every quadratic form on rows (q, a quadratic norm, the gauges of the pairwise
kernels) goes through `bilinear_rows(x, m, y)`, which sums the terms
``x[:, i] * m[i, j] * y[:, j]`` in one fixed order: i outer, j inner, each
term formed left to right and added to a running sum that starts at +0.0.
That is the order of the three-operand `np.einsum` (subscripts ni,ij,nj->n)
on C-contiguous rows, except that with d = 2 and one or two rows einsum sums
each i's terms first; unlike einsum's, it does not depend on the memory
layout of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NoDual,
    NotSymmetric,
    SingularPairing,
    UnsupportedProbe,
    ZeroDimension,
)
from .grids import GridSpec
from .reports import PASS, VerifyReport
from .tolerances import ATOL_CLOSED

EUCLIDEAN = "euclidean"
QUADRATIC = "quadratic"
PRODUCT_ONE = "one"
PRODUCT_TWO = "two"
PRODUCT_INF = "inf"

PRODUCT_KINDS = (PRODUCT_ONE, PRODUCT_TWO, PRODUCT_INF)
_DUAL_PRODUCT_KIND = {PRODUCT_ONE: PRODUCT_INF, PRODUCT_TWO: PRODUCT_TWO, PRODUCT_INF: PRODUCT_ONE}

_SQRT2 = np.sqrt(2.0)


def _as_points(x, dim):
    """Coerce to a float array of shape (n, dim); return (array, was_single)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise DimensionMismatch(f"expected length {dim}, got {arr.shape[0]}")
        return arr[None, :], True
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatch(f"expected shape (n, {dim}), got {arr.shape}")
    return arr, False


def bilinear_rows(x, m, y) -> np.ndarray:
    """x_n . m y_n for each row n of the (n, d) arrays x and y.

    One pass over the d * d terms in a fixed order (see the module
    docstring), each a vector op over the rows, so the result is the same to
    the bit whatever the memory order of x and y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(x.shape[0])
    term = np.empty(x.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):  # IEEE results, as einsum
        for i, row in enumerate(np.asarray(m, dtype=float).tolist()):
            xi = x[:, i]
            for j, mij in enumerate(row):
                np.multiply(xi, mij, out=term)
                term *= y[:, j]
                out += term
    return out


@dataclass(frozen=True, eq=False)
class NormSpec:
    """Norm descriptor.

    variant: "euclidean", "quadratic" (weight matrix W, norm sqrt(b^T W b)),
    or a product-split norm "one" / "two" / "inf" with torsion tau > 0 on an
    even-dimensional space split as (x, x*):

        one:  (tau*|x| + |x*|/tau) / sqrt(2)
        two:  sqrt(tau^2*|x|^2 + |x*|^2/tau^2)
        inf:  sqrt(2) * max(tau*|x|, |x*|/tau)

    with |.| the Euclidean norm on each half.  `scale` multiplies the whole
    norm (the family is not closed under scaling otherwise).
    """

    variant: str = EUCLIDEAN
    tau: float = 1.0
    scale: float = 1.0
    weight: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in (EUCLIDEAN, QUADRATIC) + PRODUCT_KINDS:
            raise ValueError(f"unknown norm variant {self.variant!r}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.variant == QUADRATIC:
            if self.weight is None:
                raise ValueError("quadratic norm needs a weight matrix")
            w = np.asarray(self.weight, dtype=float)
            if w.ndim != 2 or w.shape[0] != w.shape[1] or w.size == 0:
                raise ValueError(f"quadratic norm weight must be a square matrix, "
                                 f"got shape {w.shape}")
            w = 0.5 * (w + w.T)
            if not np.linalg.eigvalsh(w)[0] > 0:
                raise ValueError("quadratic norm weight is not positive definite")
            object.__setattr__(self, "weight", w)

    @property
    def is_product(self) -> bool:
        return self.variant in PRODUCT_KINDS

    def __call__(self, points):
        """Evaluate the norm on an (n, d) array or a single vector."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        d = pts.shape[1]
        if self.variant == EUCLIDEAN:
            out = np.linalg.norm(pts, axis=1)
        elif self.variant == QUADRATIC:
            out = np.sqrt(np.maximum(bilinear_rows(pts, self.weight, pts), 0.0))
        else:
            n = d // 2
            if 2 * n != d:
                raise DimensionMismatch("product norm needs even dimension")
            a = np.linalg.norm(pts[:, :n], axis=1)
            b = np.linalg.norm(pts[:, n:], axis=1)
            out = self.combine_halves(a, b)
        out = self.scale * out
        return float(out[0]) if single else out

    def combine_halves(self, a, b):
        """Norm value from the Euclidean norms of the two halves (unscaled)."""
        ta, tb = self.tau * np.asarray(a), np.asarray(b) / self.tau
        if self.variant == PRODUCT_ONE:
            return (ta + tb) / _SQRT2
        if self.variant == PRODUCT_TWO:
            return np.sqrt(ta**2 + tb**2)
        if self.variant == PRODUCT_INF:
            return _SQRT2 * np.maximum(ta, tb)
        raise UnsupportedProbe("combine_halves only applies to product norms")

    def dual(self) -> "NormSpec":
        """Dual norm under the dot-product pairing.

        For product norms the dual swaps the roles of the two halves, which
        on dot coordinates is the partner kind with torsion 1/tau.
        """
        if self.variant == EUCLIDEAN:
            return NormSpec(EUCLIDEAN, scale=1.0 / self.scale)
        if self.variant == QUADRATIC:
            w_inv = np.linalg.inv(self.weight)
            return NormSpec(QUADRATIC, scale=1.0 / self.scale, weight=0.5 * (w_inv + w_inv.T))
        return NormSpec(_DUAL_PRODUCT_KIND[self.variant], tau=1.0 / self.tau, scale=1.0 / self.scale)

    def quadratic_weight(self, dim) -> np.ndarray | None:
        """W with norm^2 = b^T W b, or None when the norm is not quadratic."""
        s2 = self.scale**2
        if self.variant == EUCLIDEAN:
            return s2 * np.eye(dim)
        if self.variant == QUADRATIC:
            return s2 * self.weight
        if self.variant == PRODUCT_TWO:
            n = dim // 2
            diag = np.concatenate([np.full(n, self.tau**2), np.full(n, self.tau**-2)])
            return s2 * np.diag(diag)
        return None

    def to_dict(self):
        doc = {"variant": self.variant, "tau": self.tau, "scale": self.scale}
        if self.weight is not None:
            doc["weight"] = np.asarray(self.weight).tolist()
        return doc

    @classmethod
    def from_dict(cls, doc):
        return cls(
            variant=doc.get("variant", EUCLIDEAN),
            tau=float(doc.get("tau", 1.0)),
            scale=float(doc.get("scale", 1.0)),
            weight=np.asarray(doc["weight"], dtype=float) if "weight" in doc else None,
        )


class SsdSpace:
    """R^d with symmetric pairing matrix M and a norm; immutable after build.

    `dual` is the canonical dual space, built on first access and then held
    by the instance.
    """

    def __init__(self, pairing, norm: NormSpec | None = None, label: str = ""):
        m = np.asarray(pairing, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotSymmetric(f"pairing must be square, got shape {m.shape}")
        if m.shape[0] == 0:
            raise ZeroDimension("space must be nonzero")
        if np.max(np.abs(m - m.T)) > 0:
            raise NotSymmetric("pairing matrix is not symmetric")
        self.pairing = m.copy()
        self.pairing.setflags(write=False)
        self.dim = m.shape[0]
        self.norm = norm if norm is not None else NormSpec()
        if self.norm.is_product and self.dim % 2 != 0:
            raise DimensionMismatch("product norms need an even-dimensional space")
        if self.norm.variant == QUADRATIC and self.norm.weight.shape != m.shape:
            raise DimensionMismatch("quadratic norm weight has the wrong shape")
        self.label = label

    def __repr__(self):
        return f"SsdSpace(dim={self.dim}, norm={self.norm.variant!r}, label={self.label!r})"

    # -- pairing and gauges ---------------------------------------------------

    def pair(self, b, c) -> float:
        bb, _ = _as_points(b, self.dim)
        cc, _ = _as_points(c, self.dim)
        if bb.shape[0] == 1 and cc.shape[0] == 1:
            return float(bb[0] @ self.pairing @ cc[0])
        raise DimensionMismatch("pair expects two single vectors; for rows use "
                                "b_rows @ space.pairing @ c_rows.T")

    def q(self, b):
        bb, single = _as_points(b, self.dim)
        out = 0.5 * bilinear_rows(bb, self.pairing, bb)
        return float(out[0]) if single else out

    def g(self, b):
        bb, single = _as_points(b, self.dim)
        out = 0.5 * self.norm(bb) ** 2
        return float(out[0]) if single else out

    def p(self, b):
        bb, single = _as_points(b, self.dim)
        out = self.g(bb) + self.q(bb)
        return float(out[0]) if single else out

    # -- canonical map into the dual -----------------------------------------

    def iota_apply(self, b):
        bb, single = _as_points(b, self.dim)
        out = bb @ self.pairing.T
        return out[0] if single else out

    def operator_norm(self):
        """(value, estimated) for the canonical map as an operator norm.

        Exact for Euclidean/quadratic norms and for product norms whose
        pairing is the half-swap; otherwise a seeded sampled estimate.
        """
        s2 = self.norm.scale**2
        if self.norm.variant == EUCLIDEAN:
            return float(np.linalg.norm(self.pairing, 2) / s2), False
        if self.norm.variant == QUADRATIC:
            w = s2 * self.norm.weight
            vals, vecs = np.linalg.eigh(w)
            w_isqrt = (vecs / np.sqrt(vals)) @ vecs.T
            return float(np.linalg.norm(w_isqrt @ self.pairing @ w_isqrt, 2)), False
        if self.norm.is_product and np.array_equal(self.pairing, swap_matrix(self.dim // 2)):
            exact = {PRODUCT_ONE: 2.0, PRODUCT_TWO: 1.0, PRODUCT_INF: 1.0}
            return exact[self.norm.variant] / s2, False
        rng = np.random.default_rng(42)
        u = rng.standard_normal((10_000, self.dim))
        u /= self.norm(u)[:, None]
        return float(np.max(self.norm.dual()(u @ self.pairing.T))), True

    # -- the dual space ----------------------------------------------------------

    @cached_property
    def dual(self) -> SsdSpace:
        """The canonical dual space: pairing M^-1, the dual norm, and
        q-tilde and p-tilde as its q and p.

        Raises SingularPairing when the pairing has no inverse and NoDual when
        the dual side fails `check_banach_ssd` (p-tilde >= -ATOL_CLOSED), with
        its witness and the value of p-tilde there attached; nothing is held
        then, so every access raises alike.  The check is analytic whenever
        the dual norm has a quadratic form and sampled on the [-1, 1]^d box
        otherwise (p-tilde is 2-homogeneous, so a unit box sample suffices).
        The identities are checked on 1000 random vectors of a generator
        seeded with 42.
        """
        m = self.pairing
        if np.linalg.cond(m) > 1e12:
            raise SingularPairing("pairing matrix is numerically singular")
        m_inv = np.linalg.inv(m)
        m_tilde = 0.5 * (m_inv + m_inv.T)
        dual = SsdSpace(m_tilde, norm=self.norm.dual(),
                        label=(self.label + " (dual)") if self.label else "dual")

        rng = np.random.default_rng(42)
        b = rng.standard_normal((1000, self.dim))
        cstar = rng.standard_normal((1000, self.dim))
        lhs = bilinear_rows(b @ m.T, m_tilde, cstar)
        rhs = np.einsum("ni,ni->n", b, cstar)
        if np.max(np.abs(lhs - rhs)) > 1e-8 * max(1.0, float(np.max(np.abs(rhs)))):
            raise SingularPairing("dual pairing fails the compatibility identity")
        qt = dual.q(b @ m.T)
        if np.max(np.abs(qt - self.q(b))) > 1e-8 * max(1.0, float(np.max(np.abs(qt)))):
            raise SingularPairing("dual quadratic form fails the pullback identity")

        probe = "analytic"
        if dual.norm.quadratic_weight(self.dim) is None:
            n = {1: 201, 2: 81, 3: 21, 4: 21}.get(self.dim, 9)
            probe = GridSpec.box(-1.0, 1.0, n, self.dim)
        check = check_banach_ssd(dual, probe).checks[0]
        if check.status != PASS:
            value = float(dual.p(check.witness))
            raise NoDual(f"dual gauge is negative: p_tilde({check.witness.tolist()}) = "
                         f"{value:.6g}", witness=check.witness, value=value)
        return dual

    # -- serialization ---------------------------------------------------------

    def to_dict(self):
        return {
            "dim": self.dim,
            "pairing": self.pairing.tolist(),
            "norm": self.norm.to_dict(),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, doc, what: str = "space document"):
        """The space of a space document's object `doc`; a ValueError that
        names `what` when it has no pairing or a norm that is not an object."""
        pairing = _pairing_entry(doc, what)
        norm = doc.get("norm", {})
        if not isinstance(norm, dict):
            raise ValueError(f"{what}'s 'norm' is not a JSON object")
        return cls(
            pairing=np.asarray(pairing, dtype=float),
            norm=NormSpec.from_dict(norm),
            label=doc.get("label", ""),
        )


def _pairing_entry(doc, what: str):
    """The "pairing" of a space document's object `doc`; a ValueError that
    names `what` when `doc` is not an object or has no such key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} is not a JSON object")
    if "pairing" not in doc:
        raise ValueError(f"{what} has no 'pairing' key")
    return doc["pairing"]


def swap_matrix(n: int) -> np.ndarray:
    """The 2n x 2n block matrix exchanging the two halves of (x, x*)."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def product_space(n: int, kind: str = PRODUCT_TWO, tau: float = 1.0, scale: float = 1.0,
                  label: str = "") -> SsdSpace:
    """R^n x R^n with pair((x,x*),(y,y*)) = <x,y*> + <y,x*> and a split norm."""
    norm = NormSpec(kind, tau=tau, scale=scale)
    if not label:
        label = f"product(n={n}, norm={kind},{tau:g}" + (f", scale={scale:g})" if scale != 1 else ")")
    return SsdSpace(swap_matrix(n), norm=norm, label=label)


# -- pairwise gauge kernels ------------------------------------------------------
# Each takes its (n, m) block from one matrix product, (x @ M) @ y.T, and finishes
# it in place (`pairwise_p` and the split norms: one block per term; the split
# norms then combine their two root blocks with `combine_halves`), with the
# operations and operand order of the formula in its docstring, so the same bits.

def _gauge_block(qx, x, m, y, qy):
    """(qx[:, None] - (x @ m) @ y.T) + qy[None, :]."""
    out = x @ m @ y.T
    np.subtract(qx[:, None], out, out=out)
    out += qy[None, :]
    return out


def pairwise_sq_dists(x_rows, y_rows):
    """max((sum(x^2)[:, None] - 2 (x @ y.T)) + sum(y^2)[None, :], 0)."""
    x = np.asarray(x_rows, dtype=float)
    y = np.asarray(y_rows, dtype=float)
    out = x @ y.T
    out *= 2.0
    np.subtract(np.sum(x**2, axis=1)[:, None], out, out=out)
    out += np.sum(y**2, axis=1)[None, :]
    return np.maximum(out, 0.0, out=out)


def pairwise_q(space: SsdSpace, x_rows, y_rows):
    """Matrix of q(x_i - y_j): q(x)[:, None] - x M y^T + q(y)[None, :]."""
    x, _ = _as_points(x_rows, space.dim)
    y, _ = _as_points(y_rows, space.dim)
    return _gauge_block(space.q(x), x, space.pairing, y, space.q(y))


def pairwise_g(space: SsdSpace, x_rows, y_rows):
    """Matrix of g(x_i - y_j): as `pairwise_q` with the weight W for a
    quadratic norm, else 0.5 (scale combine_halves(a, b))^2 with a, b the
    distance blocks of the two halves."""
    x, _ = _as_points(x_rows, space.dim)
    y, _ = _as_points(y_rows, space.dim)
    norm = space.norm
    w = norm.quadratic_weight(space.dim)
    if w is not None:
        return _gauge_block(0.5 * bilinear_rows(x, w, x), x, w, y, 0.5 * bilinear_rows(y, w, y))
    n = space.dim // 2
    a = pairwise_sq_dists(x[:, :n], y[:, :n])
    b = pairwise_sq_dists(x[:, n:], y[:, n:])
    np.sqrt(a, out=a)
    np.sqrt(b, out=b)
    return 0.5 * (norm.scale * norm.combine_halves(a, b)) ** 2


def pairwise_p(space: SsdSpace, x_rows, y_rows):
    """Matrix of p(x_i - y_j): pairwise_g + pairwise_q."""
    out = pairwise_g(space, x_rows, y_rows)
    out += pairwise_q(space, x_rows, y_rows)
    return out


def pairwise_norm(space: SsdSpace, x_rows, y_rows):
    """Matrix of norm(x_i - y_j): sqrt(max(2 pairwise_g, 0))."""
    out = pairwise_g(space, x_rows, y_rows)
    out *= 2.0
    return np.sqrt(np.maximum(out, 0.0, out=out), out=out)


# -- compatibility and continuity checks ----------------------------------------

def check_banach_ssd(space: SsdSpace, probe="analytic"):
    """Verify p = g + q >= -ATOL_CLOSED, analytically or on a sample grid.

    `probe` is "analytic" (smallest eigenvalue of W + M, for any norm with a
    quadratic form W) or a GridSpec to minimize p over.  The report carries
    the minimizing witness.
    """
    tol = ATOL_CLOSED
    report = VerifyReport(suite="check_banach_ssd", tolerances={"tol": tol},
                          meta={"space": space.label})
    if isinstance(probe, str):
        if probe != "analytic":
            raise UnsupportedProbe(f"unknown probe {probe!r}")
        w = space.norm.quadratic_weight(space.dim)
        if w is None:
            raise UnsupportedProbe("analytic probe needs a norm with a quadratic "
                                   "form; pass a GridSpec to sample instead")
        vals, vecs = np.linalg.eigh(w + space.pairing)
        lo = float(vals[0])
        witness = _canonical_direction(vecs[:, 0])
        report.add("gauge_nonnegative", "eq_2_1_1", lo >= -tol,
                   residual=max(0.0, -lo), witness=witness,
                   note="smallest eigenvalue of W + M")
        report.meta["method"] = "analytic"
    else:
        pts = probe.points()
        report.add_worst("gauge_nonnegative", "eq_2_1_1", -space.p(pts), pts, tol,
                         note="grid minimum of p")
        report.grid = probe.to_dict()
        report.meta["method"] = "sampled"
    return report


def _canonical_direction(vec):
    """Scale to unit max-entry with the first nonzero entry positive."""
    v = np.asarray(vec, dtype=float)
    v = v / np.max(np.abs(v))
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    if nz.size and v[nz[0]] < 0:
        v = -v
    return np.where(np.abs(v) < 1e-12, 0.0, v)


def lipschitz_checks(space: SsdSpace, n_pairs: int = 1000, seed: int = 42):
    """Continuity bounds for q and p on pairs sampled from [-3, 3]^d, each
    held to ATOL_CLOSED.

    Checks |q(d) - q(e)| <= 0.5*|iota|*|d-e|*|d+e| and
    |p(d) - p(e)| <= 0.5*(1+|iota|)*|d-e|*(|d|+|e|); when the operator norm
    is a sampled estimate the report says so.
    """
    radius, tol = 3.0, ATOL_CLOSED
    rng = np.random.default_rng(seed)
    d = rng.uniform(-radius, radius, size=(n_pairs, space.dim))
    e = rng.uniform(-radius, radius, size=(n_pairs, space.dim))
    opnorm, estimated = space.operator_norm()
    qd, qe = space.q(d), space.q(e)
    nd, ne = space.norm(d), space.norm(e)
    ndiff = space.norm(d - e)
    q_resid = np.abs(qd - qe) - 0.5 * opnorm * ndiff * space.norm(d + e)
    p_resid = np.abs(space.p(d) - space.p(e)) - 0.5 * (1.0 + opnorm) * ndiff * (nd + ne)
    report = VerifyReport(suite="lipschitz_checks", seed=seed,
                          tolerances={"tol": tol},
                          meta={"space": space.label, "n_pairs": n_pairs,
                                "operator_norm": opnorm,
                                "operator_norm_estimated": estimated})
    pairs = np.stack([d, e], axis=1)
    report.add_worst("q_continuity", "eq_2_1_3", q_resid, pairs, tol)
    report.add_worst("p_continuity", "eq_2_1_5", p_resid, pairs, tol)
    k = rng.uniform(-radius, radius, size=(n_pairs, space.dim))
    m = rng.uniform(-radius, radius, size=(n_pairs, space.dim))
    bound = opnorm * space.norm(k) * space.norm(m)
    vals = np.abs(bilinear_rows(k, space.pairing, m))
    report.add_worst("pairing_bound", "eq_2_1_2", vals - bound, np.stack([k, m], axis=1), tol)
    return report
