"""Smoke-size tests of the benchmark itself: python3 -m pytest benchmarks"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import carnotga as cg  # noqa: E402
import cgbench  # noqa: E402
import cgtrace  # noqa: E402
import run  # noqa: E402

SMOKE = cgbench.Sizes(audit_samples=50, rk4_steps=512, pool_pairs=1, setup_repeats=1)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace, sizes=SMOKE):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        sizes=sizes,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1]), [json.loads(line) for line in lines[:-1]]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(capsys, trace, key):
    result, _ = _run(capsys, "audit", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_deliberately_failing_ops_count_as_failed(capsys, monkeypatch):
    monkeypatch.setattr(cgbench, "ENDPOINT_TOL", -1.0)  # no endpoint can pass
    result, extra = _run(capsys, "roundtrip", 0)
    assert result["failed"] == result["attempted"] == 2
    assert not result["correct"]
    assert extra[-1]["summary"]["fail_frac"]["value"] == 1.0
    assert result["metrics"]["ops_per_s"]["value"] == 0.0


def test_documented_program_error_is_a_failed_op_not_a_wrong_answer(monkeypatch):
    def infeasible(*args, **kwargs):
        raise cg.InfeasibleTarget("forced")

    monkeypatch.setattr(cg, "steer", infeasible)
    work = cgbench.Workload("roundtrip", SMOKE, ROOT / ".bench_out")
    records = cgbench.run_rounds(work, seed=1, seconds=0.0).records
    assert [r.error for r in records] == ["InfeasibleTarget", "InfeasibleTarget"]


def test_traced_run_survives_missing_names():
    tracer = cgtrace.Tracer()
    targets = [
        ("carnotga.steering", "no_such_function", "steering.gone"),
        ("carnotga.no_such_module", "solve", "solver.gone"),
        *tracer.targets(),
    ]
    original = cg.steer
    work = cgbench.Workload("roundtrip", SMOKE, ROOT / ".bench_out", tracer)
    with tracer.installed(targets):
        assert cg.steer is not original
        run_ = cgbench.run_rounds(work, seed=1, seconds=0.0)
    assert cg.steer is original
    assert tracer.absent == ["carnotga.steering.no_such_function", "carnotga.no_such_module.solve"]
    metrics = cgtrace.layer_metrics(tracer, run_.records, overhead=0.0)
    assert metrics["solver.solve.share"]["value"] > 0.5
    assert metrics["ga.calls.solver"]["value"] > 0
    assert metrics["cli.main.s"]["value"] == 0.0  # the roundtrip ops never enter the CLI


@pytest.mark.parametrize("workload", cgbench.WORKLOADS)
def test_same_seed_inputs_have_the_same_digest(workload):
    def inputs(seed):
        return cgbench.digest(cgbench.round_ops(workload, seed, 0, SMOKE))

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def _invariants(model, coeffs):
    point = cg.point_from_blade_map(model, dict(zip(cgbench.BLADES[model], coeffs)))
    return cg.compute_invariants(model, point)


def test_rotated_inputs_keep_the_invariants_bit_for_bit():
    for op in cgbench.round_ops("reference", 5, 0, SMOKE):
        assert _invariants(op.model, op.coeffs) == cgbench.REFERENCE[op.model]["invariants"]
    pool = cgbench.roundtrip_pool(4)
    sizes = cgbench.Sizes(pool_pairs=4)
    for op, (model, coeffs) in zip(cgbench.round_ops("roundtrip", 5, 0, sizes), pool):
        assert _invariants(model, op.coeffs) == _invariants(model, coeffs)


def test_rotate_is_the_model_symmetry():
    for model, dim in (("36", 3), ("47", 4)):
        # a rotor of the last three axes; in G_4 it fixes e1 as the model needs
        pad = [0.0] * (dim - 3)
        rotor = cg.rotor_between_vectors(
            cg.Multivector.from_vector(dim, pad + [1.0, 0.0, 0.0]),
            cg.Multivector.from_vector(dim, pad + [0.0, 0.6, 0.8]),
        )
        coeffs = cgbench.REFERENCE[model]["point"]
        want = cg.point_to_blade_map(model, cg.sandwich(rotor, cg.point_from_blade_map(model, coeffs)))
        got = cgbench.rotate(model, [coeffs[b] for b in cgbench.BLADES[model]], rotor.matrix()[-3:, -3:])
        np.testing.assert_allclose(got, [want[b] for b in cgbench.BLADES[model]], atol=1e-12)


def test_closed_form_endpoint_matches_the_package():
    p36 = cg.GeodesicParams36(K=1.3, D=0.6, C3=0.8, t_final=4.0)
    p47 = cg.GeodesicParams47(K=1.1, C1=0.45, C2=-0.35, C=0.65, t_final=4.0)
    for model, params, fn in (
        ("36", (1.3, 0.6, 0.8, 4.0), cg.representative_geodesic_36(p36, 4.0)),
        ("47", (1.1, 0.45, -0.35, 0.65, 4.0), cg.representative_geodesic_47(p47, 4.0)),
    ):
        want = [fn.mv.coeffs[cg.blade_index(b)] for b in cgbench.BLADES[model]]
        np.testing.assert_allclose(cgbench.geodesic_endpoint(model, params), want, atol=1e-14)
