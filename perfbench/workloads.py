"""The four benchmark workloads: which CLI commands make one pass, and the
seeded input files of `user_files`.

The first three workloads are together exactly `ssdkit verify --suite all`,
split so that each has one dominant mechanism:

- vz_split_norms: `theorem_4_9`, is_vz/is_mas over the nine split norms; the
  split-norm inf path (`spaces.pairwise_*`) dominates.
- representer_suites: the thirteen grid-representer suites; the scattered
  sup kernel (`gridfn.sup_linear_minus`) dominates and the split-norm inf
  path does no work.
- space_dual_suites: spaces and dual norms; `duality.numerical_dual_norm`
  dominates and the grid kernels do almost none of the work.

`user_files` feeds generated CSV files through the file commands: a 161^2
grid->grid conjugate, and `fitzpatrick` plus `align` on a shuffled monotone
staircase with duplicate rows, so that point-set ingestion (dedup) carries
weight. The seed changes the values, never the sizes, so the work is the
same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLIT_NORM_SUITES = ("theorem_4_9",)
REPRESENTER_SUITES = (
    "lemma_4_7", "theorem_5_8", "lemma_2_13", "theorem_2_15", "theorem_4_10",
    "theorem_5_5", "remark_2_17", "theorem_2_9", "theorem_2_16", "lemma_1_6",
    "lemma_2_7", "remark_5_6", "fenchel_moreau",
)
SPACE_DUAL_SUITES = ("banach_ssd", "helix", "example_2_4", "example_4_4")

SUITE_WORKLOADS = {
    "vz_split_norms": SPLIT_NORM_SUITES,
    "representer_suites": REPRESENTER_SUITES,
    "space_dual_suites": SPACE_DUAL_SUITES,
}
WORKLOADS = (*SUITE_WORKLOADS, "user_files")

# user_files sizes; fixed so that the work does not depend on the seed
CONJ_POINTS = 161          # conjugate input: CONJ_POINTS^2 nodes on [-3, 3]^2
STAIR_AXIS = 481           # staircase lattice points per axis on [-3, 3]
STAIR_DUP_SHARE = 0.25     # extra duplicate rows, as a share of distinct rows
BOX = 3.0


@dataclass
class Command:
    """One CLI call of a pass: its argv, output directory and what to check."""

    name: str
    argv: list
    out: Path
    kind: str                  # "suite", "conjugate", "fitzpatrick" or "align"
    suite: str | None = None


@dataclass
class UserInputs:
    """What the user_files oracle needs to know about the generated inputs."""

    fn_grid: np.ndarray        # (N, 2) nodes of the conjugate input
    fn_values: np.ndarray      # f at those nodes
    distinct: np.ndarray       # (961, 2) distinct staircase rows, first-seen order
    point: np.ndarray          # align --point
    dual_point: np.ndarray     # align --dual-point


def convex_fn(rng, n=CONJ_POINTS):
    """Seeded convex function on an n x n grid: quadratic plus max of affine."""
    axis = np.linspace(-BOX, BOX, n)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    r = rng.normal(size=(2, 2))
    a = 0.5 * (r @ r.T) + 0.5 * np.eye(2)
    b = rng.uniform(-1.0, 1.0, size=2)
    slopes = rng.uniform(-2.0, 2.0, size=(4, 2))
    inters = rng.uniform(-1.0, 1.0, size=4)
    vals = (0.5 * np.einsum("ni,ij,nj->n", pts, a, pts) + pts @ b
            + np.max(pts @ slopes.T + inters, axis=1))
    return pts, vals


def staircase(rng, n=STAIR_AXIS):
    """Corner-to-corner lattice path (x and x* never decrease, so the set is
    monotone), plus duplicate rows, shuffled. Returns (rows, distinct rows in
    first-seen order)."""
    axis = np.linspace(-BOX, BOX, n)
    moves = rng.permutation(np.repeat([0, 1], n - 1))
    i = np.concatenate([[0], np.cumsum(moves == 0)])
    j = np.concatenate([[0], np.cumsum(moves == 1)])
    path = np.stack([axis[i], axis[j]], axis=1)
    dups = path[rng.integers(0, len(path), size=int(STAIR_DUP_SHARE * len(path)))]
    rows = np.vstack([path, dups])[rng.permutation(len(path) + len(dups))]
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows, rows[np.sort(first)]


def write_gridfn_csv(path, n, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dim,2\n")
        for ax in range(2):
            fh.write(f"axis,{ax},{-BOX!r},{BOX!r},{n}\n")
        fh.write("values\n")
        fh.writelines(f"{float(v)!r}\n" for v in values)


def make_user_inputs(seed, work: Path) -> UserInputs:
    rng = np.random.default_rng(seed)
    pts, vals = convex_fn(rng)
    write_gridfn_csv(work / "fn.csv", CONJ_POINTS, vals)
    rows, distinct = staircase(rng)
    with open(work / "set.csv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{float(x)!r},{float(y)!r}\n" for x, y in rows)
    # half a lattice step off the lattice, so the point is off the set and
    # no row shares either coordinate with it
    half = BOX / (STAIR_AXIS - 1)
    k = rng.integers(-(STAIR_AXIS // 3), STAIR_AXIS // 3, size=2)
    point, dual_point = (k * 2 * half + half)[:1], (k * 2 * half + half)[1:]
    return UserInputs(pts, vals, distinct, point, dual_point)


def commands(workload, work: Path, inputs: UserInputs | None = None):
    """The commands of one pass, in order."""
    if workload in SUITE_WORKLOADS:
        return [Command(s, ["verify", "--suite", s, "--out", str(work / s)], work / s,
                        "suite", suite=s)
                for s in SUITE_WORKLOADS[workload]]
    if workload != "user_files":
        raise ValueError(f"unknown workload {workload!r}")
    fmt = lambda v: ",".join(repr(float(x)) for x in v)
    return [
        Command("conjugate", ["conjugate", "--fn", str(work / "fn.csv"),
                              "--out", str(work / "conjugate")], work / "conjugate",
                "conjugate"),
        Command("fitzpatrick", ["fitzpatrick", "--set", str(work / "set.csv"),
                                "--out", str(work / "fitzpatrick")], work / "fitzpatrick",
                "fitzpatrick"),
        Command("align", ["align", "--set", str(work / "set.csv"),
                          "--point", fmt(inputs.point), "--dual-point", fmt(inputs.dual_point),
                          "--out", str(work / "align")], work / "align", "align"),
    ]
