"""Command line frontend: invariants | steer | verify.

Points travel as JSON objects {"model": "36"|"47", "point": {"e1": 2.0,
"e12": 1.0, ...}} with blade-keyed coefficient maps.  Exit codes are a
stable contract for scripting: 0 success, 1 verification failure, 2
infeasible target, 3 degenerate configuration (and every other package
error), 4 I/O or parse error, command line usage errors included.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CarnotGAError, InfeasibleTarget
from .models import Model, _spec
from .steering import (
    SteerOptions,
    compute_invariants,
    coordinate_columns,
    point_from_blade_map,
    report_to_dict,
    steer,
    verify_report,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4


def _load_target(arg: str, model_flag: str | None):
    """Read {"model": ..., "point": {...}} from inline JSON or a file."""
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read target file: {exc}")
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"target is not valid JSON: {exc}")
    if not isinstance(data, dict) or not isinstance(data.get("point"), dict):
        raise ValueError('target JSON must be an object with a "point" map')
    model_value = data.get("model", model_flag)
    if model_value is None:
        raise ValueError("no model given (flag --model or JSON field)")
    if model_flag is not None and str(model_value) != str(model_flag):
        raise ValueError("--model contradicts the model in the target JSON")
    try:
        model = Model(str(model_value))
    except ValueError:
        raise ValueError(f"unknown model {model_value!r} (use 36 or 47)")
    try:
        mv = point_from_blade_map(model, data["point"])
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad point: {exc}")
    return model, mv


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}")


def _csv(traj: dict, cols) -> str:
    """The trajectory columns ``cols`` as CSV with LF line endings."""
    lines = [",".join(cols)]
    lines += [",".join(f"{v:.12g}" for v in row) for row in zip(*(traj[c] for c in cols))]
    return "\n".join(lines) + "\n"


def _emit_plot_data(report_dict: dict, stem: str):
    """Per-axis CSV files grouped the way the trajectories are usually drawn."""
    groups = {}
    for col in coordinate_columns(report_dict["model"]):
        groups.setdefault(col.rstrip("0123456789"), []).append(col)
    for name, cols in groups.items():
        _write_text(f"{stem}_{name}.csv", _csv(report_dict["trajectory"], ["t", *cols]))


def _cmd_invariants(args) -> int:
    model, mv = _load_target(args.target, args.model)
    values = compute_invariants(model, mv)
    out = {
        "model": model.value,
        "invariants": dict(zip(_spec(model).invariant_names, (float(v) for v in values))),
    }
    _write_text(args.out, json.dumps(out, indent=2))
    return EXIT_OK


def _cmd_steer(args) -> int:
    model, mv = _load_target(args.target, args.model)
    opts = SteerOptions(
        k_max=args.kmax,
        t_max=args.tmax,
        tolerance=args.tol,
        max_starts=args.starts,
        seed=args.seed,
        samples=args.samples,
        acceptance_bound=args.bound,
    )
    report = steer(model, mv, opts)
    data = report_to_dict(report)
    if args.format == "csv":
        _write_text(args.out, _csv(data["trajectory"], ["t", *coordinate_columns(model)]))
    else:
        _write_text(args.out, json.dumps(data, indent=2))
    if args.emit_plot_data:
        _emit_plot_data(data, args.emit_plot_data)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read report: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"report is not valid JSON: {exc}")
    try:
        ok, lines = verify_report(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"report schema: {exc!r}")
    for line in lines:
        print(line)
    print("verification", "PASSED" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting EXIT_IO: its own code, 2, is the
    code of an infeasible target."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="carnotga",
        description="Steer two step-2 Carnot group models by geometric algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_target_opts(p):
        p.add_argument("--model", choices=["36", "47"], help="growth vector of the model")
        p.add_argument(
            "--target",
            required=True,
            help="target point: a JSON file path or an inline JSON object",
        )
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_inv = sub.add_parser("invariants", help="rotation invariants of a point")
    add_target_opts(p_inv)
    p_inv.set_defaults(func=_cmd_invariants)

    p_steer = sub.add_parser("steer", help="steer the origin to a target point")
    add_target_opts(p_steer)
    d = SteerOptions()
    p_steer.add_argument("--samples", type=int, default=d.samples, help="trajectory samples")
    p_steer.add_argument("--kmax", type=float, default=d.k_max, help="frequency bound")
    p_steer.add_argument("--tmax", type=float, default=d.t_max, help="arrival time bound")
    p_steer.add_argument("--tol", type=float, default=d.tolerance, help="solver residual tolerance")
    p_steer.add_argument("--starts", type=int, default=d.max_starts, help="multistart count")
    p_steer.add_argument("--seed", type=int, default=d.seed, help="start sampler seed")
    p_steer.add_argument(
        "--bound",
        type=float,
        default=d.acceptance_bound,
        help="acceptance bound on the endpoint error",
    )
    p_steer.add_argument(
        "--format", choices=["json", "csv"], default="json", help="report or trajectory output"
    )
    p_steer.add_argument(
        "--emit-plot-data",
        metavar="STEM",
        default=None,
        help="also write per-axis CSV files STEM_x.csv, STEM_z.csv / STEM_l.csv, STEM_y.csv",
    )
    p_steer.set_defaults(func=_cmd_steer)

    p_verify = sub.add_parser("verify", help="re-check a steering report")
    p_verify.add_argument("report", help="path to a report JSON produced by steer")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


_parser = None  # built on the first call of main; parsing leaves no state in it


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleTarget as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CarnotGAError as exc:  # flag, rotor and normalization failures too
        print(
            f"degenerate configuration: {exc} (consider perturbing the target)",
            file=sys.stderr,
        )
        return EXIT_DEGENERATE
    except ValueError as exc:  # bad input values, and the CLI's own I/O and parse failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
