"""Command-line front end: runs verification suites and the standalone
constructions, writing machine-readable reports.

Exit codes: 0 when every non-skipped check passes, 1 when a check fails,
2 on configuration, input, or precondition errors.  `verify` runs every
requested suite even when one refuses (a precondition fails): the refused
suite's report file records the message, and the exit code is 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .catalog import default_grid, diagonal_set, half_sq_norm_fn, space_r2_product
from .errors import MissingArtifacts, SsdkitError
from .fitzpatrick import fitz_triple
from .gridfn import GridFn, conjugate, default_slope_grid
from .grids import GridSpec, point_budget
from .monotone import MonotoneSet, negative_alignment
from .positivity import PointSet, project_to_p
from .reports import residual_cell, write_json
from .spaces import SsdSpace
from .suites import SUITES, SuiteOptions, run_suite
from . import __version__


def _grid_arg(text):
    """`GridSpec.from_string` for argparse, which prints the message of an
    `ArgumentTypeError` but only "invalid from_string value" for a `ValueError`."""
    try:
        return GridSpec.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_point(text):
    return np.array([float(tok) for tok in text.split(",")], dtype=float)


def _load_space(args) -> SsdSpace:
    if args.space_file:
        from .duality import load_space_document

        return load_space_document(args.space_file)[0]
    return space_r2_product("two", tau=1.0)


def _load_fn(args) -> GridFn:
    if args.fn_file:
        return GridFn.from_csv(args.fn_file)
    return half_sq_norm_fn(args.grid or default_grid(2, -3.0, 3.0, 121))


def _load_set(args):
    if args.set_file:
        return PointSet.from_csv(args.set_file)
    return diagonal_set(default_grid()).underlying


def _write_suite_reports(args, name: str, reports, refused: str | None = None) -> bool:
    """Write `<name>.json` (and `.csv`) and print one line per report, or the
    refusal record and one REFUSED line when the suite refused."""
    args.out.mkdir(parents=True, exist_ok=True)
    doc = {
        "suite": name,
        "passed": refused is None and all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    if refused is not None:
        doc["refused"] = refused
    write_json(args.out / f"{name}.json", doc)
    if args.fmt == "csv":
        with open(args.out / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["suite", "check_id", "anchor", "status", "worst_residual"])
            for rep in reports:
                writer.writerows(rep.rows())
    for rep in reports:
        print(rep.summary_line())
    if refused is not None:
        print(f"{name}: REFUSED ({refused})")
    return doc["passed"]


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    if any(n not in SUITES for n in names):
        raise SsdkitError(f"unknown suite {args.suite!r}; known: "
                          f"{', '.join(sorted(SUITES))} or 'all'")
    opts = SuiteOptions(grid=args.grid, seed=args.seed, lam=args.lam,
                        epsilon=args.epsilon)
    if args.set_file:
        opts.point_set = PointSet.from_csv(args.set_file, label=Path(args.set_file).stem)
    failed = any_refused = False
    for name in names:
        try:
            reports, refused = run_suite(name, opts), None
        except SsdkitError as exc:
            reports, refused = [], str(exc)
        passed = _write_suite_reports(args, name, reports, refused)
        any_refused |= refused is not None
        failed |= refused is None and not passed
    # a FAIL outranks a refusal, so exit 2 never hides one
    return 1 if failed else 2 if any_refused else 0


def cmd_report(args) -> int:
    files = sorted(p for p in args.out.glob("*.json") if p.name != "summary.json")
    if not files:
        raise MissingArtifacts(f"no report artifacts under {args.out}")
    rows = []
    suites = {}
    for path in files:
        doc = json.loads(path.read_text(encoding="utf-8"))
        name = doc.get("suite", path.stem)
        n_fail = 0
        for rep in doc.get("reports", []):
            for check in rep.get("checks", []):
                rows.append({
                    "suite": name,
                    "check_id": check["id"],
                    "anchor": check["anchor"],
                    "status": check["status"],
                    "worst_residual": check["worst_residual"],
                })
                n_fail += check["status"] == "fail"
        suites[name] = {"passed": bool(doc.get("passed", n_fail == 0)),
                        "n_failed": n_fail}
        if "refused" in doc:
            suites[name]["refused"] = doc["refused"]
    rows.sort(key=lambda r: (r["suite"], r["check_id"]))
    summary = {
        "suites": suites,
        "checks": rows,
        "n_checks": len(rows),
        "n_failed": sum(r["status"] == "fail" for r in rows),
        "n_skipped": sum(r["status"] == "skipped" for r in rows),
        "environment": {"ssdkit": __version__, "numpy": np.__version__,
                        "point_budget": point_budget()},
    }
    write_json(args.out / "summary.json", summary)
    with open(args.out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "check_id", "anchor", "status", "worst_residual"])
        for r in rows:
            writer.writerow([r["suite"], r["check_id"], r["anchor"], r["status"],
                             residual_cell(r["worst_residual"])])
    print(f"{summary['n_checks']} checks aggregated from {len(files)} suites; "
          f"{summary['n_failed']} failed, {summary['n_skipped']} skipped")
    return 0


def cmd_conjugate(args) -> int:
    fn = _load_fn(args)
    dual_grid = args.grid or default_slope_grid(fn)
    star = conjugate(fn, dual_grid)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "conjugate.csv"
    star.to_csv(path)
    print(f"wrote {path} ({dual_grid.size} dual points)")
    return 0


def cmd_fitzpatrick(args) -> int:
    space = _load_space(args)
    pts = _load_set(args)
    grid = args.grid or default_grid(space.dim, -3.0, 3.0, 61)
    triple = fitz_triple(space, pts, grid)
    args.out.mkdir(parents=True, exist_ok=True)
    triple.phi_fn.to_csv(args.out / "phi.csv")
    triple.theta_fn.to_csv(args.out / "theta.csv")
    triple.star_theta_fn.to_csv(args.out / "star_theta.csv")
    _, theta_on_image = triple.dual_blocks[1]  # theta at grid @ M.T
    gap = float(np.max(np.abs(triple.phi_fn.values - theta_on_image)))
    doc = {"set_size": len(pts), "grid": grid.to_dict(),
           "phi_equals_theta_through_map_gap": gap}
    write_json(args.out / "fitz_checks.json", doc)
    print(f"wrote phi/theta/star_theta under {args.out} (composition gap {gap:.3e})")
    return 0


def cmd_project(args) -> int:
    space = _load_space(args)
    fn = _load_fn(args)
    if args.point is None:
        raise SsdkitError("project needs --point")
    c = _parse_point(args.point)
    trace = project_to_p(fn, space, c, args.epsilon)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "projection_trace.json"
    write_json(path, trace.to_dict())
    print(f"{len(trace.iterates)} steps, limit {trace.limit.tolist()}, "
          f"distance {trace.achieved_distance:.6f} (bound {trace.bound():.6f}); wrote {path}")
    return 0


def cmd_align(args) -> int:
    mset = MonotoneSet(_load_set(args))
    if args.point is None or args.dual_point is None:
        raise SsdkitError("align needs --point and --dual-point")
    res = negative_alignment(mset, _parse_point(args.point),
                             _parse_point(args.dual_point), args.alpha, args.beta)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "alignment.json"
    write_json(path, res.to_dict())
    print(f"omega {res.omega:.9f}, radii ({res.rho:.6f}, {res.sigma:.6f}), "
          f"product {res.inner:.6f}; wrote {path}")
    return 0


COMMANDS = {
    "verify": cmd_verify,
    "report": cmd_report,
    "conjugate": cmd_conjugate,
    "fitzpatrick": cmd_fitzpatrick,
    "project": cmd_project,
    "align": cmd_align,
}


# flags shared by several subcommands; each subcommand registers only the
# flags its command reads, so an unread flag is a usage error
SHARED_FLAGS = {
    "--space": {"dest": "space_file", "help": "space description (json)"},
    "--fn": {"dest": "fn_file", "help": "grid function (csv)"},
    "--set": {"dest": "set_file", "help": "point set (csv, one point per row)"},
    "--grid": {"type": _grid_arg, "help": "grid override: lo:hi:n[,lo:hi:n...]"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdkit",
        description="verification batteries for symmetric-pairing spaces and "
                    "monotone-set representers")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *shared):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", type=Path, default=Path("reports"), help="output directory")
        for flag in shared:
            p.add_argument(flag, **SHARED_FLAGS[flag])
        return p

    p = command("verify", "run a named verification suite", "--set", "--grid")
    p.add_argument("--suite", default="all",
                   help="suite name or 'all' (known: %s)" % ", ".join(sorted(SUITES)))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="helix pitch checked verbatim (a flattened pitch fails)")
    p.add_argument("--epsilon", type=float, default=0.5,
                   help="projection parameter in (0, 1)")

    command("report", "aggregate prior runs into one summary")
    command("conjugate", "conjugate of a grid function", "--fn", "--grid")
    command("fitzpatrick", "representer functions of a point set", "--space", "--set", "--grid")

    p = command("project", "certified projection toward the touching set",
                "--space", "--fn", "--grid")
    p.add_argument("--point", help="start point, comma separated")
    p.add_argument("--epsilon", type=float, default=0.5)

    p = command("align", "balanced-approach extraction at a point", "--set")
    p.add_argument("--point", help="primal half, comma separated")
    p.add_argument("--dual-point", dest="dual_point", help="dual half, comma separated")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except SsdkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
