"""Workloads, per-op checks and end-to-end metrics of the carnotga benchmark.

All workloads run in one process with one closed-loop client: the next op
starts when the previous one has returned.  Inputs are generated here from
the seed with numpy alone, so the program under test sees only finished
target points and never takes part in making them.  README.md in this
directory gives the reason for each workload and the layer it exercises.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import carnotga as cg
import carnotga.cli
from carnotga import CarnotGAError, SteerOptions

WORKLOADS = ("reference", "roundtrip", "audit")

# The documented worked cases, copied here so the benchmark does not depend
# on the test suite.  Constants carry four significant digits.
REFERENCE = {
    "36": {
        "point": {"e1": 2.0, "e2": -1.0, "e3": 3.0, "e12": 1.0, "e13": -2.0, "e23": -2.0},
        "constants": {"K": 0.9886, "D": 0.6885, "C3": 0.7252, "t_final": 5.0236},
        "invariants": (14.0, -9.0, 3.0),
    },
    "47": {
        "point": {"e1": 1.0, "e2": 2.0, "e3": 1.0, "e4": 3.0, "e12": -1.0, "e13": 2.0, "e14": 2.0},
        "constants": {"K": 0.8358, "C1": -0.7816, "C2": -0.5324, "C": 0.6126, "t_final": 6.0748},
        "invariants": (1.0, 14.0, -6.0, -9.0),
    },
}
BLADES = {
    "36": ("e1", "e2", "e3", "e12", "e13", "e23"),
    "47": ("e1", "e2", "e3", "e4", "e12", "e13", "e14"),
}

CONSTANT_TOL = 5e-3  # four significant digits in the documented constants
ENDPOINT_TOL = 1e-6  # the round-trip bound of acceptance criterion 9
RK4_TOL = 1e-6  # the oracle bound of acceptance criterion 7
MARGIN = 5e-2  # criterion-9 distance from the collinearity locus
POOL_SEED = 0  # generator seed of the fixed round-trip parameter pool


@dataclass(frozen=True)
class Sizes:
    """Work per op; the defaults are the benchmark, tests use smaller ones."""

    audit_samples: int = 30000
    rk4_steps: int = 4096
    pool_pairs: int = 24
    setup_repeats: int = 3


@dataclass(frozen=True)
class Op:
    """One generated input: a target point of one model."""

    workload: str
    model: str
    coeffs: tuple  # coefficients on BLADES[model]

    @property
    def blade_map(self) -> dict:
        return dict(zip(BLADES[self.model], self.coeffs))


@dataclass
class Record:
    """Outcome of one op; ``seconds`` covers only the calls into the program."""

    op: Op
    seconds: float
    ok: bool
    error: str | None = None
    detail: str = ""
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# input generation (numpy only)


def _octahedral() -> list:
    """The 24 rotations that permute the axes with signs, identity first.

    They map integer coordinates to integer coordinates exactly, so the
    invariants of a documented target, and with them every step of its
    solve, stay bit for bit the same.  A generic rotation moves the
    invariants by a few units in the last place, which changes the Newton
    paths of some starts and the reference work by several per cent.
    """
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            m[range(3), perm] = signs
            if np.linalg.det(m) > 0:
                mats.append(m)
    return mats


OCTAHEDRAL = _octahedral()

# The half-turns about the axes, and the identity: they only change signs,
# so every product in the invariants keeps its value and every sum its
# order, and the invariants of any point stay bit for bit the same.
HALF_TURNS = [np.diag(s) for s in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))]


def rotate(model: str, coeffs, rot: np.ndarray) -> tuple:
    """The SO(3) symmetry of each model, written in coordinates.

    Model 36: x -> R x and the dual vector (z23, -z13, z12) of the bivector
    part -> R of it.  Model 47: e1 is fixed, l -> R l and the coefficients
    on e1^e2, e1^e3, e1^e4 -> R of them.
    """
    c = np.asarray(coeffs, float)
    if model == "36":
        x = rot @ c[:3]
        z23, mz13, z12 = rot @ np.array([c[5], -c[4], c[3]])
        out = [*x, z12, -mz13, z23]
    else:
        out = [c[0], *(rot @ c[1:4]), *(rot @ c[4:7])]
    return tuple(float(v) for v in out)


def geodesic_endpoint(model: str, params: tuple) -> tuple:
    """Closed-form representative endpoint, in BLADES[model] order.

    Model 36 params (K, D, C3, t); model 47 params (K, C1, C2, C, t).
    """
    if model == "36":
        K, D, C3, t = params
        s, c, kt = np.sin(K * t), np.cos(K * t), K * t
        h = C3 * D / (2.0 * K * K)
        return (
            D / K * (1.0 - c),
            D / K * s,
            C3 * t,
            -D * D / (2.0 * K * K) * (kt - s),
            h * (kt - 2.0 * s + kt * c),
            h * (2.0 - kt * s - 2.0 * c),
        )
    K, C1, C2, C, t = params
    s, c, kt = np.sin(K * t), np.cos(K * t), K * t
    return (
        C1 * c + C2 * s - C1,
        C1 * s - C2 * c + C2,
        C * t,
        0.0,
        0.5 * (C1 * C1 + C2 * C2) * (kt - s),
        C / (2.0 * K) * ((2.0 * C1 - C2 * kt) * s - (C1 * kt + 2.0 * C2) * c + 2.0 * C2 - C1 * kt),
        0.0,
    )


def flag_margin(model: str, coeffs) -> float:
    """Distance from the collinearity locus where the flags degenerate."""
    c = np.asarray(coeffs, float)
    if model == "36":
        a, b = c[:3], np.array([c[5], -c[4], c[3]])
    else:
        a, b = c[1:4], c[4:7]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-6 or nb < 1e-6:
        return 0.0
    a, b = a / na, b / nb
    cross = float(np.linalg.norm(np.cross(a, b)))
    return cross if model == "36" else min(abs(float(a @ b)), cross)


def roundtrip_pool(pairs: int) -> list:
    """The criterion-9 forward generator: ``pairs`` parameter draws per model
    whose representative endpoints keep MARGIN from the collinearity locus."""
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for _ in range(pairs):
        for model in ("36", "47"):
            while True:
                k = rng.uniform(0.3, 3.0)
                angle = rng.uniform(0.15, np.pi - 0.15)
                t = rng.uniform(1.0, 9.0)
                if model == "36":
                    params = (k, np.sin(angle), np.cos(angle), t)
                else:
                    psi = rng.uniform(0.0, 2.0 * np.pi)
                    r = np.sin(angle) / k
                    params = (k, r * np.cos(psi), r * np.sin(psi), np.cos(angle), t)
                end = geodesic_endpoint(model, params)
                if flag_margin(model, end) >= MARGIN:
                    pool.append((model, end))
                    break
    return pool


def round_ops(workload: str, seed: int, index: int, sizes: Sizes) -> list:
    """Inputs of round ``index``; every round of a workload is the same work.

    A round is one op per documented target (reference, audit) or one pass
    over the fixed parameter pool (roundtrip).  The seed picks the rotation
    applied to each target: one of OCTAHEDRAL for the documented targets
    (the identity under seed 0) and one of HALF_TURNS for the pool.  Both
    keep the invariants, and with them the solve, bit for bit.
    """
    rng = np.random.default_rng([seed, index])
    if workload == "roundtrip":
        base = roundtrip_pool(sizes.pool_pairs)
    elif workload in ("reference", "audit"):
        base = [(m, tuple(REFERENCE[m]["point"][b] for b in BLADES[m])) for m in ("36", "47")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "roundtrip":
        rotations = HALF_TURNS
    else:
        rotations = OCTAHEDRAL if seed else OCTAHEDRAL[:1]
    return [
        Op(workload, model, rotate(model, coeffs, rotations[int(rng.integers(len(rotations)))]))
        for model, coeffs in base
    ]


def digest(ops) -> str:
    """Exact fingerprint of a list of inputs (floats by their hex form)."""
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.workload} {op.model} {' '.join(float(v).hex() for v in op.coeffs)}\n".encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# ops: a timed call into the program, then an untimed check


class Workload:
    """Runs the ops of one workload.  ``call`` holds every call into the
    program and is timed; ``check`` judges the outputs and is not."""

    def __init__(self, name: str, sizes: Sizes, scratch: Path, tracer=None):
        self.name = name
        self.sizes = sizes
        self.scratch = scratch
        self.tracer = tracer

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def call(self, op: Op):
        if self.name == "reference":
            path = str(self.scratch / f"reference-{op.model}.json")
            text = json.dumps({"model": op.model, "point": op.blade_map})
            with redirect_stdout(io.StringIO()):
                code = carnotga.cli.main(["steer", "--target", text, "--out", path])
                verify_code = carnotga.cli.main(["verify", path]) if code == 0 else None
            return code, verify_code, path
        target = cg.point_from_blade_map(op.model, op.blade_map)
        if self.name == "roundtrip":
            opts = SteerOptions(max_starts=64, early_stop=1, samples=2)
            return target, cg.steer(op.model, target, opts)
        opts = SteerOptions(early_stop=1, samples=self.sizes.audit_samples)
        report = cg.steer(op.model, target, opts)
        data = cg.report_to_dict(report)
        with self.span("bench.json"):
            text = json.dumps(data)
            data = json.loads(text)
        verified, lines = cg.verify_report(data)
        kvec, consts = cg.aligned_fiber_inputs(op.model, report.params)
        rk4 = cg.rk4_endpoint(op.model, kvec, consts, report.params.t_final, self.sizes.rk4_steps)
        return report, data, len(text), verified, lines, rk4

    def check(self, op: Op, out) -> tuple:
        """(passed, detail, info) for the outputs of one op."""
        if self.name == "reference":
            code, verify_code, path = out
            if code != 0 or verify_code != 0:
                return False, f"steer exit {code}, verify exit {verify_code}", {}
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            want = REFERENCE[op.model]["constants"]
            gap = max(abs(data["params"][k] - v) for k, v in want.items())
            info = _report_info(data, os.path.getsize(path))
            return gap <= CONSTANT_TOL, f"constant gap {gap:.1e}", info
        if self.name == "roundtrip":
            target, report = out
            gap = float(np.max(np.abs(report.points[-1].coeffs - target.coeffs)))
            info = {"samples": len(report.points), **_diag(report.diagnostics)}
            return gap <= ENDPOINT_TOL, f"endpoint gap {gap:.1e}", info
        report, data, nbytes, verified, lines, rk4 = out
        params = data["params"]
        closed = geodesic_endpoint(op.model, tuple(params[k] for k in _PARAM_KEYS[op.model]))
        got = [float(rk4.mv.coeffs[cg.blade_index(b)]) for b in BLADES[op.model]]
        gap = float(np.max(np.abs(np.array(got) - np.array(closed))))
        info = _report_info(data, nbytes)
        info["rk4_steps"] = self.sizes.rk4_steps
        ok = verified and gap <= RK4_TOL and info["samples"] == self.sizes.audit_samples
        return ok, f"verify {'passed' if verified else lines}, rk4 gap {gap:.1e}", info


_PARAM_KEYS = {"36": ("K", "D", "C3", "t_final"), "47": ("K", "C1", "C2", "C", "t_final")}


def _diag(d: dict) -> dict:
    return {k: int(d[k]) for k in ("starts_attempted", "converged", "roots") if k in d}


def _report_info(data: dict, nbytes: int) -> dict:
    return {"samples": len(data["trajectory"]["t"]), "report_bytes": nbytes, **_diag(data["diagnostics"])}


def run_op(workload: Workload, op: Op, op_id: int) -> Record:
    """Time one op; documented program errors count as failed ops."""
    tracer = workload.tracer
    if tracer is not None:
        tracer.op = op_id
    try:
        with workload.span("op"):
            t0 = time.perf_counter()
            out = workload.call(op)
            seconds = time.perf_counter() - t0
    except CarnotGAError as exc:
        seconds = time.perf_counter() - t0
        return Record(op, seconds, False, type(exc).__name__, str(exc))
    except Exception as exc:  # a crash is a failed op and an incorrect run
        traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t0
        return Record(op, seconds, False, "unexpected:" + type(exc).__name__, str(exc))
    finally:
        if tracer is not None:
            tracer.op = None
    ok, detail, info = workload.check(op, out)
    return Record(op, seconds, ok, None if ok else "check", detail, info)


@dataclass
class Run:
    records: list
    rounds: int
    loop_s: float
    digest: str


def run_rounds(workload: Workload, seed: int, seconds: float, rounds: int | None = None) -> Run:
    """Run whole rounds until the next one would end after ``seconds``
    (at least one), or exactly ``rounds`` rounds when that is given."""
    records, inputs = [], []
    done = 0
    t_start = time.perf_counter()
    while True:
        ops = round_ops(workload.name, seed, done, workload.sizes)
        inputs.extend(ops)
        for op in ops:
            records.append(run_op(workload, op, len(records)))
        done += 1
        elapsed = time.perf_counter() - t_start
        if rounds is not None:
            if done >= rounds:
                break
        elif elapsed + elapsed / done > seconds:
            break
    return Run(records, done, time.perf_counter() - t_start, digest(inputs))


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter imports the package and answers the CLI

_SETUP_CHILD = (
    "import sys, carnotga.cli\n"
    "raise SystemExit(carnotga.cli.main(['invariants', '--target', sys.argv[1]]))\n"
)


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root: Path, repeats: int) -> list:
    """Wall seconds of each fresh-interpreter set-up, checked for its answer."""
    target = json.dumps({"model": "36", "point": REFERENCE["36"]["point"]})
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, target],
            cwd=root,
            env=_child_env(root),
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
        got = tuple(json.loads(proc.stdout)["invariants"].values())
        if max(abs(a - b) for a, b in zip(got, REFERENCE["36"]["invariants"])) > 1e-12:
            raise RuntimeError(f"set-up child returned wrong invariants {got}")
    return times


def warm_up():
    """Build the lazily made product tables and first-call state of both
    algebras, which every user pays once per process."""
    for model in ("36", "47"):
        target = cg.point_from_blade_map(model, REFERENCE[model]["point"])
        cg.compute_invariants(model, target)
        cg.sandwich(cg.Rotor.identity(target.dim), target)


# ---------------------------------------------------------------------------
# end-to-end metrics

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}


def _ranked(records) -> list:
    """Op times with failed ops ranked after every passed op, so a failure
    counts as missing any latency limit."""
    return [r.seconds for r in sorted(records, key=lambda r: (not r.ok, r.seconds))]


def median_time(records) -> float:
    ranked = _ranked(records)
    mid = len(ranked) // 2
    return ranked[mid] if len(ranked) % 2 else 0.5 * (ranked[mid - 1] + ranked[mid])


def tail_time(records) -> tuple:
    """Highest percentile with at least ten samples beyond it, with its level;
    (None, None) when there are fewer than eleven ops."""
    ranked = _ranked(records)
    idx = len(ranked) - 11
    if idx < 0:
        return None, None
    return ranked[idx], round(100.0 * (idx + 1) / len(ranked), 1)


def end_to_end(run: Run, setup: list) -> dict:
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": sum(r.ok for r in run.records) / run.loop_s,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def summary(workload: str, run: Run, metrics: dict) -> dict:
    """The workload's figures under the names performance reports cite
    (see README.md), each with its unit."""
    recs = run.records
    out = dict(metrics)
    out["fail_frac"] = {"value": sum(not r.ok for r in recs) / len(recs), "unit": "ratio"}
    if workload == "reference":
        for model in ("36", "47"):
            out[f"ref{model}_s"] = {
                "value": median_time([r for r in recs if r.op.model == model]),
                "unit": "s",
            }
    elif workload == "roundtrip":
        tail, level = tail_time(recs)
        out["targets_per_s"] = metrics["ops_per_s"]
        out["steer_p50_s"] = {"value": median_time(recs), "unit": "s"}
        out["steer_p90_s"] = {"value": tail, "unit": "s", "percentile": level, "samples": len(recs)}
    else:
        samples = sum(r.info.get("samples", 0) for r in recs if r.ok)
        out["audit_p50_s"] = {"value": median_time(recs), "unit": "s", "samples": len(recs)}
        out["samples_per_s"] = {"value": samples / run.loop_s, "unit": "1/s"}
    out["rounds"] = run.rounds
    return out
