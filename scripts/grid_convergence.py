#!/usr/bin/env python3
"""Residual scaling of the grid-relative checks against grid spacing.

Prints a CSV table (spacing, zero inf-convolution residual, two-sided
identity residual, distance-formula error) for the worked product-space
example across a sweep of grid resolutions.  The first two shrink like h^2
here (smooth gauge); the distance error scales linearly because half the
probe points sit a half-cell away from the nearest sampled touching point.

Usage: python3 scripts/grid_convergence.py [CSV_PATH]
"""

import sys
from functools import partial

# first, so that numpy loads OpenBLAS with one thread, as the CLI does
import ssdkit  # noqa: F401
import numpy as np

from ssdkit import is_vz, make_dual, p_set
from ssdkit.catalog import default_grid, half_sq_norm_fn, space_r2_product
from ssdkit.duality import lemma_4_7_identity
from ssdkit.gridfn import nearest
from ssdkit.spaces import pairwise_norm

SQRT2 = np.sqrt(2.0)


def sweep(sizes=(21, 31, 41, 61, 81, 121)):
    sp = space_r2_product("two", tau=1.0)
    dual = make_dual(sp)
    rows = []
    for n in sizes:
        grid = default_grid(2, -3.0, 3.0, n)
        f = half_sq_norm_fn(grid)
        vz = is_vz(f, sp).check("zero_infconv").worst_residual
        ident = lemma_4_7_identity(sp, dual, f, grid, tol=1.0)
        ident_res = ident.checks[0].worst_residual
        touching = p_set(f, sp)
        pts = grid.points()
        dist, _ = nearest(partial(pairwise_norm, sp), pts, touching.points)
        dist_err = float(np.max(np.abs(dist - np.abs(pts[:, 0] - pts[:, 1]) / SQRT2)))
        rows.append((float(grid.spacing[0]), vz, ident_res, dist_err))
    return rows


def main(path=None):
    rows = sweep()
    lines = ["spacing,zero_infconv_residual,two_sided_residual,distance_error"]
    for h, vz, ident, dist in rows:
        lines.append(f"{h:.6g},{vz:.6g},{ident:.6g},{dist:.6g}")
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
