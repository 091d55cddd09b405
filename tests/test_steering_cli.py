"""End-to-end steering pipeline and the command line contract."""

import json
import subprocess
import sys

import numpy as np
import pytest

from carnotga import (
    DegenerateConfiguration,
    Model,
    Multivector,
    SteerOptions,
    compute_invariants,
    point_from_blade_map,
    report_to_dict,
    sandwich,
    steer,
    verify_report,
)
from carnotga.cli import EXIT_DEGENERATE, EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_VERIFY_FAILED, main
from conftest import (
    REF36_QO,
    REF36_TARGET,
    REF47_INVARIANTS,
    REF47_TARGET,
    blades_to_mv,
    mv,
    random_rotor,
)
from test_models import random_params36, random_params47, representative_geodesic_36, representative_geodesic_47


FAST = SteerOptions(max_starts=32, early_stop=1, tolerance=1e-9, samples=50)


# --------------------------------------------------------------------------
# library pipeline


def test_steer_reference_36(ref36_target):
    report = steer(Model.M36, ref36_target, SteerOptions(samples=100))
    assert report.endpoint_error < 5e-2
    assert np.max(np.abs(report.endpoint.coeffs - ref36_target.coeffs)) < 5e-2
    # the intermediate representative endpoint matches the documented point
    qo = representative_geodesic_36(report.params, report.params.t_final)
    want = blades_to_mv(3, REF36_QO)
    assert np.max(np.abs(qo.mv.coeffs - want.coeffs)) < 5e-3
    assert report.times[0] == 0.0
    assert report.times[-1] == pytest.approx(report.params.t_final)
    assert np.all(np.diff(report.times) > 0)
    # the trajectory starts at the origin
    assert report.points[0].norm() < 1e-12


def test_steer_reference_47(ref47_target):
    report = steer(Model.M47, ref47_target, SteerOptions(samples=100))
    assert report.endpoint_error < 5e-2
    e1 = Multivector.basis_vector(4, 1)
    assert np.max(np.abs(sandwich(report.rotor, e1).coeffs - e1.coeffs)) < 1e-10


def test_steer_generated_target_roundtrip_36(rng):
    for _ in range(3):
        p = random_params36(rng)
        qo = representative_geodesic_36(p, p.t_final)
        rot = random_rotor(rng, 3)
        target = sandwich(rot, qo.mv)
        report = steer(Model.M36, target, FAST)
        assert report.endpoint_error < 1e-6


def test_steer_generated_target_roundtrip_47(rng):
    for _ in range(3):
        p = random_params47(rng)
        qo = representative_geodesic_47(p, p.t_final)
        rot = random_rotor(rng, 4, fix_e1=True)
        target = sandwich(rot, qo.mv)
        report = steer(Model.M47, target, FAST)
        assert report.endpoint_error < 1e-6


def test_steer_degenerate_target_raises():
    with pytest.raises(DegenerateConfiguration):
        steer(Model.M36, mv(3, e1=1.0, e2=2.0), FAST)  # no bivector part


def test_point_from_blade_map_rejects_foreign_blades():
    with pytest.raises(ValueError):
        point_from_blade_map(Model.M36, {"e4": 1.0})
    with pytest.raises(ValueError):
        point_from_blade_map(Model.M47, {"e23": 1.0})
    with pytest.raises(ValueError):
        point_from_blade_map(Model.M36, {"e123": 1.0})
    with pytest.raises(ValueError):
        point_from_blade_map(Model.M36, {"e1": "2"})
    with pytest.raises(ValueError):
        point_from_blade_map(Model.M47, {"e12": True})


def test_report_roundtrip_and_verify(ref36_target, ref47_target):
    for model, target in ((Model.M36, ref36_target), (Model.M47, ref47_target)):
        report = steer(model, target, SteerOptions(samples=20))
        data = report_to_dict(report)
        ok, lines = verify_report(data)
        assert ok, lines
        assert len(lines) == 4


def test_verify_catches_corrupted_rotor(ref36_target):
    report = steer(Model.M36, ref36_target, SteerOptions(samples=20))
    data = report_to_dict(report)
    data["rotor"][0] += 0.05
    ok, lines = verify_report(data)
    assert not ok
    assert any("rotor-unitality" in l and l.startswith("FAIL") for l in lines)


def test_verify_catches_perturbed_endpoint(ref36_target):
    report = steer(Model.M36, ref36_target, SteerOptions(samples=20))
    data = report_to_dict(report)
    data["target"]["e1"] += 0.1
    ok, lines = verify_report(data)
    assert not ok
    assert any("endpoint-error" in l and l.startswith("FAIL") for l in lines)


def test_steer_deterministic(ref36_target):
    a = report_to_dict(steer(Model.M36, ref36_target, SteerOptions(samples=20, seed=3)))
    b = report_to_dict(steer(Model.M36, ref36_target, SteerOptions(samples=20, seed=3)))
    assert a == b


def test_invariance_of_cmd_invariants_under_rotation(rng, ref36_target):
    rot = random_rotor(rng, 3)
    rotated = sandwich(rot, ref36_target)
    a = compute_invariants(Model.M36, ref36_target)
    b = compute_invariants(Model.M36, rotated)
    assert np.max(np.abs(np.array(a) - np.array(b))) < 1e-9


# --------------------------------------------------------------------------
# CLI


def _target_file(tmp_path, table, model):
    path = tmp_path / f"target{model}.json"
    path.write_text(json.dumps({"model": model, "point": table}))
    return str(path)


def test_cli_invariants_36(tmp_path, capsys):
    path = _target_file(tmp_path, REF36_TARGET, "36")
    assert main(["invariants", "--target", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["model"] == "36"
    assert out["invariants"] == {"xx": 14.0, "zz": -9.0, "xz_star": 3.0}
    path = _target_file(tmp_path, REF47_TARGET, "47")
    assert main(["invariants", "--target", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["model"] == "47"
    assert list(out["invariants"]) == ["x", "ll", "ly_e1", "yy"]
    assert np.max(np.abs(np.array(list(out["invariants"].values())) - REF47_INVARIANTS)) < 1e-12


def test_cli_invariants_origin(capsys):
    assert main(["invariants", "--target", '{"model":"47","point":{}}']) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert all(v == 0.0 for v in out["invariants"].values())


def test_cli_steer_verify_cycle(tmp_path, capsys):
    target = _target_file(tmp_path, REF36_TARGET, "36")
    report_path = str(tmp_path / "report.json")
    code = main(
        ["steer", "--target", target, "--out", report_path, "--samples", "50"]
    )
    assert code == EXIT_OK
    data = json.loads(open(report_path).read())
    assert data["endpoint_error"] < 5e-2
    assert len(data["trajectory"]["t"]) == 50
    assert main(["verify", report_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verification PASSED" in out


def test_cli_verify_fails_on_tampered_report(tmp_path, capsys):
    target = _target_file(tmp_path, REF36_TARGET, "36")
    report_path = str(tmp_path / "report.json")
    assert main(["steer", "--target", target, "--out", report_path, "--samples", "20"]) == EXIT_OK
    data = json.loads(open(report_path).read())
    data["rotor"][2] += 0.1
    open(report_path, "w").write(json.dumps(data))
    assert main(["verify", report_path]) == EXIT_VERIFY_FAILED


def test_cli_csv_output(tmp_path):
    for table, model, header in (
        (REF36_TARGET, "36", "t,x1,x2,x3,z1,z2,z3"),
        (REF47_TARGET, "47", "t,x,l1,l2,l3,y1,y2,y3"),
    ):
        target = _target_file(tmp_path, table, model)
        csv_path = str(tmp_path / "traj.csv")
        code = main(
            [
                "steer",
                "--target",
                target,
                "--format",
                "csv",
                "--out",
                csv_path,
                "--samples",
                "25",
            ]
        )
        assert code == EXIT_OK
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == header
        assert len(lines) == 26
        ts = [float(l.split(",")[0]) for l in lines[1:]]
        assert ts[0] == 0.0 and all(b > a for a, b in zip(ts, ts[1:]))


def test_cli_emit_plot_data(tmp_path):
    for table, model, files in (
        (REF47_TARGET, "47", (("x", "t,x"), ("l", "t,l1,l2,l3"), ("y", "t,y1,y2,y3"))),
        (REF36_TARGET, "36", (("x", "t,x1,x2,x3"), ("z", "t,z1,z2,z3"))),
    ):
        target = _target_file(tmp_path, table, model)
        stem = str(tmp_path / f"plot{model}")
        code = main(
            [
                "steer",
                "--target",
                target,
                "--out",
                str(tmp_path / "r.json"),
                "--samples",
                "20",
                "--emit-plot-data",
                stem,
            ]
        )
        assert code == EXIT_OK
        for suffix, header in files:
            lines = open(f"{stem}_{suffix}.csv").read().strip().splitlines()
            assert len(lines) == 21
            assert lines[0] == header


def test_cli_exit_infeasible(tmp_path):
    bad = _target_file(tmp_path, {"e1": 1e6, "e2": 0.0, "e3": 0.0, "e12": 1.0}, "36")
    code = main(["steer", "--target", bad, "--starts", "8", "--tmax", "5"])
    assert code == EXIT_INFEASIBLE


def test_cli_exit_degenerate(tmp_path):
    bad = _target_file(tmp_path, {"e1": 1.0, "e2": 2.0}, "36")  # no bivector part
    assert main(["steer", "--target", bad]) == EXIT_DEGENERATE


def test_cli_exit_io_on_bad_input(tmp_path):
    assert main(["invariants", "--target", str(tmp_path / "missing.json")]) == EXIT_IO
    assert main(["invariants", "--target", "{not json"]) == EXIT_IO
    assert main(["invariants", "--target", '{"point": {"e1": 1}}']) == EXIT_IO  # no model
    assert (
        main(["invariants", "--model", "36", "--target", '{"model":"47","point":{}}'])
        == EXIT_IO
    )
    assert (
        main(["invariants", "--target", '{"model":"36","point":{"e4":1}}']) == EXIT_IO
    )
    assert main(["invariants", "--target", '{"model":"36","point":{"e1":"2"}}']) == EXIT_IO
    assert main(["invariants", "--target", '{"model":"36","point":{"e12":true}}']) == EXIT_IO
    assert main(["verify", str(tmp_path / "missing.json")]) == EXIT_IO


def test_cli_inline_json_and_module_entry(tmp_path):
    inline = json.dumps({"model": "36", "point": REF36_TARGET})
    proc = subprocess.run(
        [sys.executable, "-m", "carnotga.cli", "invariants", "--target", inline],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["invariants"]["xx"] == 14.0


def test_cli_steer_deterministic_given_seed(tmp_path):
    target = _target_file(tmp_path, REF36_TARGET, "36")
    outs = []
    for name in ("a.json", "b.json"):
        path = str(tmp_path / name)
        assert (
            main(
                [
                    "steer",
                    "--target",
                    target,
                    "--out",
                    path,
                    "--samples",
                    "20",
                    "--seed",
                    "11",
                ]
            )
            == EXIT_OK
        )
        outs.append(open(path).read())
    assert outs[0] == outs[1]
