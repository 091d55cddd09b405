"""Run one workload of the carnotga benchmark and print its metrics.

From the root of a checkout:

    python3 benchmarks/run.py --workload reference|roundtrip|audit \
        --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the same checkout.  With
``--trace 0`` the run measures set-up time in fresh interpreters, then runs
whole rounds of the workload untraced and reports the end-to-end metrics.
With ``--trace 1`` it runs the rounds untraced, replays the same rounds
with every layer boundary wrapped, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the machine, the input digest and the figures under the
names used in README.md.  Spans and results are also written under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("reference", "roundtrip", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _machine(load) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None, sizes=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "carnotga" / "__init__.py").is_file():
        print(f"error: no carnotga sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load = os.getloadavg()
    # one BLAS thread here and in every child, before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))

    import cgbench
    import cgtrace

    sizes = sizes or cgbench.Sizes()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    machine = _machine(load)
    print(json.dumps({"machine": machine}), flush=True)

    if args.trace:
        cgbench.warm_up()
        plain = cgbench.run_rounds(
            cgbench.Workload(args.workload, sizes, out_dir), args.seed, args.seconds / 2
        )
        tracer = cgtrace.Tracer()
        with tracer.installed():
            traced = cgbench.run_rounds(
                cgbench.Workload(args.workload, sizes, out_dir, tracer),
                args.seed,
                args.seconds,
                rounds=plain.rounds,
            )
        tracer.dump(out_dir / f"spans-{tag}.jsonl")
        overhead = traced.loop_s / plain.loop_s - 1.0
        metrics = cgtrace.layer_metrics(tracer, traced.records, overhead)
        records = plain.records + traced.records
        extra = {"digest": traced.digest, "absent": tracer.absent}
    else:
        setup = cgbench.measure_setup(ROOT, sizes.setup_repeats)
        cgbench.warm_up()
        run = cgbench.run_rounds(cgbench.Workload(args.workload, sizes, out_dir), args.seed, args.seconds)
        metrics = cgbench.end_to_end(run, setup)
        records = run.records
        extra = {"digest": run.digest, "summary": cgbench.summary(args.workload, run, metrics)}

    failures = [r for r in records if not r.ok]
    for r in failures:
        print(f"failed op: {r.op.workload} model {r.op.model}: {r.error} {r.detail}", file=sys.stderr)
    result = {
        "correct": not any(r.error == "check" or r.error.startswith("unexpected:") for r in failures),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(extra))
    (out_dir / f"result-{tag}.json").write_text(
        json.dumps({"machine": machine, **extra, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
