"""Command-line surface: capacity runs, orbit traces, bound tables, verify.

Exit codes: 0 success, 1 usage error, 2 numeric non-convergence.  All
outputs are deterministic for a fixed (command, flags, seed) triple and
files are only written after the computation finishes.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from . import bodies as bd
from . import bounds as bn
from . import ehz
from . import orbits as ob
from . import verify
from .symcore import matrix_AL, matrix_Mt


class UsageError(Exception):
    pass


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("expected a finite number, got %r" % text)
    return value


def _finite_list(text: str) -> list:
    """argparse type: comma-separated finite floats."""
    return [_finite_float(x) for x in text.split(",")]


def _parse_grid(spec: str) -> list:
    """argparse type: parse 'a:b:step' into an inclusive float grid."""
    fields = spec.split(":")
    if len(fields) != 3:
        raise argparse.ArgumentTypeError("grid must look like a:b:step")
    a, b, step = (_finite_float(x) for x in fields)
    if step <= 0 or b < a:
        raise argparse.ArgumentTypeError("grid must satisfy a <= b with positive step")
    count = int(round((b - a) / step))
    vals = [round(a + i * step, 12) for i in range(count + 1)]
    return [v for v in vals if a - 1e-12 <= v <= b + 1e-12]


def _body_from_args(args):
    """(body, spec): the body --body names, and its kind with the flags that
    kind reads, at their effective values.  al-scaled reads --L and either
    --t or --r; any other body flag given is a usage error."""
    kind = args.body
    reads = {"ball4": ("r",), "ellipsoid": ("radii",), "intersection": ("t",),
             "mt-image": ("t",), "al-scaled": ("r" if args.t is None else "t", "L")}[kind]
    for flag in ("t", "r", "L", "radii"):
        if flag not in reads and getattr(args, flag) is not None:
            raise UsageError("--body %s does not read --%s" % (kind, flag))
    spec = {"kind": kind}
    for flag in reads:
        value = getattr(args, flag)
        if value is None and flag not in ("r", "L"):
            raise UsageError("--body %s needs --%s" % (kind, flag))
        spec[flag] = 1.0 if value is None else value
    if kind == "ball4":
        return bd.CapacityBall(spec["r"], 2), spec
    if kind == "ellipsoid":
        return bd.EllipsoidBody.from_radii(spec["radii"]), spec
    if kind == "intersection":
        return bd.ball_cap_cylinder_intersection(spec["t"]), spec
    if kind == "mt-image":
        return bd.EllipsoidBody.from_linear_image(matrix_Mt(spec["t"])), spec
    if "t" in spec:
        M = matrix_AL(spec["L"]) @ matrix_Mt(spec["t"])
        return bd.EllipsoidBody.from_linear_image(M), spec
    return bd.EllipsoidBody.from_linear_image(matrix_AL(spec["L"]), spec["r"]), spec


def _write(out_dir: Path | None, name: str, text: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def cmd_ehz(args) -> int:
    if args.format is not None and args.out:
        raise UsageError("--format picks the document printed on stdout; "
                         "--out writes both ehz.json and loop.csv, so drop one")
    body, spec = _body_from_args(args)
    res = ehz.ehz_capacity(body, N=args.n_samples, restarts=args.restarts, seed=args.seed)
    config = {"command": "ehz", "ts": [args.t] if args.t is not None else [],
              "N": args.n_samples, "restarts": args.restarts, "seed": args.seed}
    report = {"config": config, "body": spec}
    report.update(res.to_json())
    docs = {"json": ("ehz.json", json.dumps(report, indent=2) + "\n"),
            "csv": ("loop.csv", res.loop.to_csv())}
    if args.out:
        for name, text in docs.values():
            _write(Path(args.out), name, text)
    elif args.format is not None:
        _write(None, *docs[args.format])
    # with --format, stdout carries the document alone, so it parses
    summary = sys.stderr if args.format is not None else sys.stdout
    print("capacity ≈ %.4f  (N=%d, restarts=%d, seed=%d, converged=%s)"
          % (res.capacity, res.n_samples, res.restarts, res.seed, res.converged),
          file=summary)
    return 0 if res.converged else 2


def cmd_orbits(args) -> int:
    t = args.t
    if not 0.0 < t < 1.0:
        raise UsageError("orbits requires --t strictly between 0 and 1")
    action, best, found = ob.min_action_scan(t)
    lines = ["arc,region,angle,action_increment," +
             ",".join(f"end_{c}" for c in ("x1", "y1", "x2", "y2"))]
    for i, arc in enumerate(best.arcs):
        lines.append(",".join([str(i), arc.region, f"{arc.angle:.12g}",
                               f"{arc.action:.12g}"]
                              + [f"{c:.12g}" for c in arc.end]))
    out_dir = Path(args.out) if args.out else None
    _write(out_dir, "orbit.csv", "\n".join(lines) + "\n")
    # the census opens with the PLUS glide, then the MINUS glide for t < 1/2
    plus, minus = found[0].action, found[1].action
    summary = {"config": {"command": "orbits", "ts": [t]},
               "t": t, "min_action": action,
               "glide_plus_action": plus,
               "closed_orbits_found": len(found)}
    if t < 0.5:
        summary["glide_minus_action"] = minus
    if out_dir is not None:
        _write(out_dir, "summary.json", json.dumps(summary, indent=2) + "\n")
    print("min action %.6f at t=%.4g" % (action, t))
    print("glide actions: PLUS %.6f%s" % (plus, ", MINUS %.6f" % minus if t < 0.5 else ""))
    return 0


def cmd_bounds(args) -> int:
    grid = args.grid
    if any(not 0.0 < g < 1.0 for g in grid):
        raise UsageError("grid values must lie strictly inside (0, 1)")
    table = bn.BoundTable.on_grid(grid)
    out_dir = Path(args.out) if args.out else None
    _write(out_dir, "bounds.csv", table.to_csv())
    if args.format == "svg":
        _write(out_dir, "bounds.svg", table.to_svg())
    if out_dir is not None:
        print("wrote bound table for %d grid points to %s" % (len(grid), out_dir))
    return 0


def cmd_verify(args) -> int:
    report = verify.run_criteria(level=args.level, seed=args.seed)
    for item in report:
        status = "PASS" if item["passed"] else "FAIL"
        print("[%s] %s  measured=%s" % (status, item["name"], item["measured"]))
        if item["detail"]:
            print("        %s" % item["detail"])
    payload = json.dumps({"level": args.level, "seed": args.seed,
                          "criteria": report}, indent=2, default=str) + "\n"
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        _write(out_dir, "verify.json", payload)
    all_pass = all(item["passed"] for item in report)
    print("verify: %d/%d criteria passed" % (sum(i["passed"] for i in report), len(report)))
    return 0 if all_pass else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symcap",
                                     description="symplectic capacity laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ehz", help="capacity of a convex body")
    p.add_argument("--body", required=True,
                   choices=["ball4", "ellipsoid", "intersection", "mt-image", "al-scaled"])
    p.add_argument("--t", type=_finite_float)
    p.add_argument("--r", type=_finite_float, help="default 1")
    p.add_argument("--L", type=_finite_float, help="default 1")
    p.add_argument("--radii", type=_finite_list, help="comma-separated capacities")
    p.add_argument("--n-samples", type=int, default=256)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"],
                   help="print loop.csv or the JSON report on stdout (not with --out)")
    p.set_defaults(func=cmd_ehz)

    p = sub.add_parser("orbits", help="closed characteristic census")
    p.add_argument("--t", type=_finite_float, required=True)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("bounds", help="lower-bound table and chart")
    p.add_argument("--grid", type=_parse_grid, default="0.01:0.99:0.01",
                   help="t grid as a:b:step")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage problems; remap to the contract
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
