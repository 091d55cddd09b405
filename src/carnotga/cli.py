"""Command line frontend: invariants | steer | verify.

Points travel as JSON objects {"model": "36"|"47", "point": {"e1": 2.0,
"e12": 1.0, ...}} with blade-keyed coefficient maps.  Exit codes are a
stable contract for scripting: 0 success, 1 verification failure, 2
infeasible target, 3 degenerate configuration, 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .errors import DegenerateConfiguration, InfeasibleTarget
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


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_target(arg: str, model_flag: str | None):
    """Read {"model": ..., "point": {...}} from inline JSON or a file."""
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _CliError(EXIT_IO, f"cannot read target file: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_IO, f"target is not valid JSON: {exc}")
    if not isinstance(data, dict) or not isinstance(data.get("point"), dict):
        raise _CliError(EXIT_IO, 'target JSON must be an object with a "point" map')
    model_value = data.get("model", model_flag)
    if model_value is None:
        raise _CliError(EXIT_IO, "no model given (flag --model or JSON field)")
    if model_flag is not None and str(model_value) != str(model_flag):
        raise _CliError(EXIT_IO, "--model contradicts the model in the target JSON")
    try:
        model = Model(str(model_value))
    except ValueError:
        raise _CliError(EXIT_IO, f"unknown model {model_value!r} (use 36 or 47)")
    try:
        mv = point_from_blade_map(model, data["point"])
    except (ValueError, TypeError) as exc:
        raise _CliError(EXIT_IO, f"bad point: {exc}")
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
        raise _CliError(EXIT_IO, f"cannot write {path}: {exc}")


def _trajectory_csv(report_dict: dict) -> str:
    cols = ("t",) + coordinate_columns(report_dict["model"])
    traj = report_dict["trajectory"]
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cols)
    for i in range(len(traj["t"])):
        writer.writerow([f"{traj[c][i]:.12g}" for c in cols])
    return buf.getvalue()


def _emit_plot_data(report_dict: dict, stem: str):
    """Per-axis CSV files grouped the way the trajectories are usually drawn."""
    traj = report_dict["trajectory"]
    groups = {}
    for col in coordinate_columns(report_dict["model"]):
        groups.setdefault(col.rstrip("0123456789"), []).append(col)
    for name, cols in groups.items():
        rows = ["t," + ",".join(cols)]
        for i in range(len(traj["t"])):
            rows.append(
                f"{traj['t'][i]:.12g},"
                + ",".join(f"{traj[c][i]:.12g}" for c in cols)
            )
        _write_text(f"{stem}_{name}.csv", "\n".join(rows) + "\n")


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
        _write_text(args.out, _trajectory_csv(data))
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
        raise _CliError(EXIT_IO, f"cannot read report: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_IO, f"report is not valid JSON: {exc}")
    try:
        ok, lines = verify_report(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _CliError(EXIT_IO, f"report schema: {exc!r}")
    for line in lines:
        print(line)
    print("verification", "PASSED" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InfeasibleTarget as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DegenerateConfiguration as exc:
        print(
            f"degenerate configuration: {exc} (consider perturbing the target)",
            file=sys.stderr,
        )
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
