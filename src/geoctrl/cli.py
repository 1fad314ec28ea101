"""Command-line entry point.

    geoctrl audit  SPECFILE            rank audit of the bracket closure
    geoctrl check  SPECFILE            controllability verdict + oracle
    geoctrl reach  SPECFILE            trajectory cloud and coverage
    geoctrl dist   SPECFILE --from A --to B
    geoctrl loop   SPECFILE            loop-length scan over a probe grid

Reports are JSON on stdout (or --json PATH); reach clouds go to --csv.
Exit codes: 0 clean/agreement, 2 oracle disagreement, 3 rank not
constant on the audit grid, 4 bad input or missing assumption (including
a command line argparse refuses: USAGE, and a field expression undefined
where the command evaluates it with domain checks: DOMAIN_ERROR; see the
README for which command checks which fields).
"""

from __future__ import annotations

import argparse
import json
import sys

from .expr import EvalDomainError
from .report import (
    EXIT_ERROR,
    AssumptionMissingError,
    PipelineUsageError,
    run_pipeline,
)
from .reach import export_csv
from .system import SpecFileError, load_spec

__all__ = ["main", "build_parser"]


def _point(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated point: {text!r}") from exc


def _join_points(argv: list[str]) -> list[str]:
    """`--from -1,0` as `--from=-1,0`: argparse takes a token that starts
    with '-' for an option, so a point with a negative first coordinate
    is joined to its flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--from", "--to") and tok.startswith("-"):
            try:
                _point(tok)
            except argparse.ArgumentTypeError:
                pass
            else:
                out[-1] += "=" + tok
                continue
        out.append(tok)
    return out


class _UsageError(Exception):
    """A command line the parser refuses; carries argparse's message."""


class _Parser(argparse.ArgumentParser):
    """Refuses a command line by raising, so `main` reports it as USAGE with
    exit 4 (argparse would exit 2, which means an oracle disagreement)."""

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geoctrl",
        description="Global controllability analysis on a rectangular window.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "audit": "audit the rank of the control bracket closure on a grid",
        "check": "decide the convex-position condition and cross-validate",
        "reach": "simulate a reachability cloud and report coverage",
        "dist": "estimate steering costs between two points",
        "loop": "estimate drifted loop lengths over a probe grid",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("specfile", help="system definition file")
        p.add_argument("--grid", type=int, default=None, help="grid points per axis")
        p.add_argument(
            "--leaf-budget", type=int, default=None, help="leaf samples per base point"
        )
        p.add_argument(
            "--traj", type=int, default=None, help="oracle trajectory count"
        )
        p.add_argument(
            "--horizon", type=float, default=None, help="oracle time horizon"
        )
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--json", default=None, help="write the report here")
        p.add_argument("--csv", default=None, help="write the point cloud here (reach)")
        p.add_argument(
            "--timestamp",
            action="store_true",
            help="append a wall-clock timestamp to the report",
        )
        if name in ("dist", "loop"):
            p.add_argument(
                "--budget", type=int, default=None, help="estimator evaluation budget"
            )
            p.add_argument(
                "--tol", type=float, default=None, help="endpoint tolerance"
            )
        if name == "dist":
            p.add_argument("--from", dest="from_point", type=_point, default=None,
                           help="start point, comma separated")
            p.add_argument("--to", dest="to_point", type=_point, default=None,
                           help="target point, comma separated")
    return parser


def _fail(code: str, message: str, json_path: str | None) -> int:
    doc = json.dumps({"error": {"code": code, "message": message}}, indent=2) + "\n"
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(doc)
    sys.stderr.write(doc)
    return EXIT_ERROR


def _json_path(argv: list[str] | None) -> str | None:
    """The --json path of a command line the full parser refuses, if it names one."""
    parser = _Parser(add_help=False)
    parser.add_argument("--json", default=None)
    try:
        return parser.parse_known_args(argv)[0].json
    except _UsageError:
        return None


def main(argv: list[str] | None = None) -> int:
    argv = _join_points(sys.argv[1:] if argv is None else list(argv))
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _fail("USAGE", str(exc), _json_path(argv))
    try:
        spec = load_spec(args.specfile)
    except FileNotFoundError:
        return _fail("SPEC_NOT_FOUND", f"no such file: {args.specfile}", args.json)
    except SpecFileError as exc:
        return _fail("SPEC_INVALID", str(exc), args.json)

    overrides = {
        "grid_per_axis": args.grid,
        "leaf_budget": args.leaf_budget,
        "n_traj": args.traj,
        "horizon": args.horizon,
        "seed": args.seed,
        "budget": getattr(args, "budget", None),
        "endpoint_tol": getattr(args, "tol", None),
        "from_point": getattr(args, "from_point", None),
        "to_point": getattr(args, "to_point", None),
    }
    try:
        report = run_pipeline(spec, args.command, overrides)
    except AssumptionMissingError as exc:
        return _fail("ASSUMPTION_MISSING", str(exc), args.json)
    except PipelineUsageError as exc:
        return _fail("USAGE", str(exc), args.json)
    except EvalDomainError as exc:
        return _fail("DOMAIN_ERROR", str(exc), args.json)

    if args.csv and report.cloud is not None:
        export_csv(report.cloud, args.csv)
    doc = report.to_json(timestamp=args.timestamp)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
