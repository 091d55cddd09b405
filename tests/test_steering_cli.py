"""End-to-end steering pipeline and the command line contract."""

import contextlib
import copy
import io
import itertools
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from carnotga import (
    AntipodalVectors,
    DegenerateConfiguration,
    DependentVectors,
    FlagMismatch,
    GeodesicParams36,
    GeodesicParams47,
    InfeasibleTarget,
    Model,
    Multivector,
    NearZeroNorm,
    RotorDomain,
    SteerOptions,
    align_flags,
    compute_invariants,
    flag_margin,
    frame_flag_36,
    frame_flag_47,
    point_from_blade_map,
    point_to_blade_map,
    report_to_dict,
    sandwich,
    steer,
    verify_report,
)
from carnotga import cli
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


def test_steered_block_matches_algebra_reference(ref36_target, ref47_target):
    # the block is the representative pushed through the rotor's linear action;
    # the reference conjugates each sample by the dense sandwich
    for model, target, geodesic in (
        (Model.M36, ref36_target, representative_geodesic_36),
        (Model.M47, ref47_target, representative_geodesic_47),
    ):
        report = steer(model, target, SteerOptions(samples=200))
        want = np.array([sandwich(report.rotor, geodesic(report.params, t).mv).coeffs
                         for t in report.times])
        assert report.coeffs.shape == want.shape == (200, 1 << target.dim)
        assert np.max(np.abs(report.coeffs - want)) <= 1e-14
        assert np.array_equal([p.coeffs for p in report.points], report.coeffs)
        assert np.array_equal(report.endpoint.coeffs, report.coeffs[-1])


def _pool_targets():
    """The 48 forward-generated targets of the benchmark's round-trip pool: 24
    representative endpoints per model, drawn with generator seed 0 and kept
    5e-2 from the collinearity locus where the flags degenerate."""
    rng = np.random.default_rng(0)
    targets = []
    for _ in range(24):
        for model in Model:
            while True:
                k, angle, t = rng.uniform(0.3, 3.0), rng.uniform(0.15, np.pi - 0.15), rng.uniform(1.0, 9.0)
                if model is Model.M36:
                    point = representative_geodesic_36(
                        GeodesicParams36(k, np.sin(angle), np.cos(angle), t), t)
                else:
                    psi, r = rng.uniform(0.0, 2.0 * np.pi), np.sin(angle) / k
                    point = representative_geodesic_47(
                        GeodesicParams47(k, r * np.cos(psi), r * np.sin(psi), np.cos(angle), t), t)
                if flag_margin(model, point) >= 5e-2:
                    targets.append((model, point.mv))
                    break
    return targets


def _octahedral_turns(model, table):
    """The point of a blade map under each of the 24 rotations that permute the
    axes with signs: for 36, x and the dual vector (z23, -z13, z12) of z turn;
    for 47, e1 stays and l and (y12, y13, y14) turn."""
    c = point_from_blade_map(model, table).coeffs
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            turn = np.zeros((3, 3))
            turn[range(3), perm] = signs
            if np.linalg.det(turn) < 0:
                continue
            if model is Model.M36:
                x, (z23, mz13, z12) = turn @ c[[1, 2, 4]], turn @ [c[6], -c[5], c[3]]
                yield mv(3, e1=x[0], e2=x[1], e3=x[2], e12=z12, e13=-mz13, e23=z23)
            else:
                lvec, y = turn @ c[[2, 4, 8]], turn @ c[[3, 5, 9]]
                yield mv(4, e1=c[1], e2=lvec[0], e3=lvec[1], e4=lvec[2],
                         e12=y[0], e13=y[1], e14=y[2])


def test_frame_rotor_acts_as_the_flag_walk(rng):
    # steer builds its rotor from orthonormal frames; the paper's flag walk,
    # align_flags on the flags of the representative endpoint and the target,
    # is its reference: the two act alike on every basis blade.  Targets: the
    # pool targets, each turned by a random rotor, and both documented targets
    # under all 24 axis-permuting rotations
    targets = [(model, sandwich(random_rotor(rng, point.dim, fix_e1=model is Model.M47), point))
               for model, point in _pool_targets()]
    for model, table in ((Model.M36, REF36_TARGET), (Model.M47, REF47_TARGET)):
        targets += [(model, target) for target in _octahedral_turns(model, table)]
    assert len(targets) == 96
    flags = {Model.M36: (frame_flag_36, representative_geodesic_36),
             Model.M47: (frame_flag_47, representative_geodesic_47)}
    worst = dict.fromkeys(Model, 0.0)
    for model, target in targets:
        report = steer(model, target, SteerOptions(early_stop=1, samples=2))
        flag, geodesic = flags[model]
        origin_end = geodesic(report.params, report.params.t_final).mv
        walk = align_flags(flag(origin_end), flag(target))
        for a in np.eye(1 << target.dim):
            a = Multivector(target.dim, a)
            gap = np.max(np.abs(sandwich(report.rotor, a).coeffs - sandwich(walk, a).coeffs))
            worst[model] = max(worst[model], gap)
    assert max(worst.values()) <= 1e-10, worst


def test_report_rejects_off_model_coefficients(ref47_target):
    report = steer(Model.M47, ref47_target, FAST)
    report.coeffs[7, 6] = 1e-12  # e23, below the subspace tolerance
    report_to_dict(report)
    report.coeffs[7, 6] = 1e-6
    with pytest.raises(ValueError, match="model subspace"):
        report_to_dict(report)


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
        diag = data["diagnostics"]
        assert diag["residual_rows"] > diag["newton_iterations"] > 0
        # the five grid seeds for (3,6), the 64 drawn starts for (4,7)
        assert sum(diag["start_outcomes"].values()) == (5 if model is Model.M36 else 64)
        assert diag["start_outcomes"]["accepted"] == diag["roots"]
        assert data["schema_version"] == 2
        del data["schema_version"]  # a report written before the key still verifies
        assert verify_report(data) == (ok, lines)


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


def test_numpy_integer_seed_gives_the_report_of_its_int(ref36_target):
    # the options accept numpy integers; the report stores the seed as an int
    a, b = (json.dumps(report_to_dict(steer("36", ref36_target, SteerOptions(seed=seed, early_stop=1))))
            for seed in (np.int64(3), 3))
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
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["endpoint_error"] < 5e-2
    assert len(data["trajectory"]["t"]) == 50
    assert main(["verify", report_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verification PASSED" in out


def test_cli_verify_fails_on_tampered_report(tmp_path, capsys):
    target = _target_file(tmp_path, REF36_TARGET, "36")
    report_path = str(tmp_path / "report.json")
    assert main(["steer", "--target", target, "--out", report_path, "--samples", "20"]) == EXIT_OK
    data = json.loads((tmp_path / "report.json").read_text())
    data["rotor"][2] += 0.1
    (tmp_path / "report.json").write_text(json.dumps(data))
    assert main(["verify", report_path]) == EXIT_VERIFY_FAILED


def test_cli_verify_ignores_inflated_bound(tmp_path, capsys):
    # a half-turn about e3 keeps the invariants but moves the target; a report
    # cannot hide the miss by raising its own bound
    data = report_to_dict(steer(Model.M36, point_from_blade_map(Model.M36, REF36_TARGET), FAST))
    turned = sandwich(mv(3, e12=1.0), point_from_blade_map(Model.M36, data["target"]))
    data["target"] = point_to_blade_map(Model.M36, turned)
    data["acceptance_bound"] = 1e300
    report = tmp_path / "inflated.json"
    report.write_text(json.dumps(data))
    assert main(["verify", str(report)]) == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "PASS invariant-match" in out
    assert "FAIL endpoint-error" in out and "vs bound 5.000e-02" in out


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
        lines = (tmp_path / "traj.csv").read_text().strip().splitlines()
        assert lines[0] == header
        assert len(lines) == 26
        ts = [float(l.split(",")[0]) for l in lines[1:]]
        assert ts[0] == 0.0 and all(b > a for a, b in zip(ts, ts[1:]))


def test_cli_emit_plot_data(tmp_path):
    # each per-axis file holds the matching columns of the --format csv output
    for table, model, files in (
        (REF47_TARGET, "47", (("x", "t,x"), ("l", "t,l1,l2,l3"), ("y", "t,y1,y2,y3"))),
        (REF36_TARGET, "36", (("x", "t,x1,x2,x3"), ("z", "t,z1,z2,z3"))),
    ):
        target = _target_file(tmp_path, table, model)
        stem = str(tmp_path / f"plot{model}")
        csv_path = tmp_path / "traj.csv"
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
        args = ["steer", "--target", target, "--samples", "20", "--format", "csv"]
        assert main(args + ["--out", str(csv_path)]) == EXIT_OK
        full = csv_path.read_bytes()
        assert b"\r" not in full
        rows = [line.split(",") for line in full.decode().splitlines()]
        for suffix, header in files:
            with open(f"{stem}_{suffix}.csv", newline="") as fh:
                text = fh.read()
            assert "\r" not in text
            lines = text.strip().splitlines()
            assert len(lines) == 21
            assert lines[0] == header
            picks = [rows[0].index(name) for name in header.split(",")]
            assert lines == [",".join(row[i] for i in picks) for row in rows]


def test_cli_exit_infeasible(tmp_path):
    bad = _target_file(tmp_path, {"e1": 1e6, "e2": 0.0, "e3": 0.0, "e12": 1.0}, "36")
    code = main(["steer", "--target", bad, "--starts", "8", "--tmax", "5"])
    assert code == EXIT_INFEASIBLE


def test_cli_infeasible_names_start_outcomes(tmp_path, capsys):
    # every converged root lies beyond --kmax: the message says so per start,
    # over the 5 grid seeds (out of bounds) and the 16 drawn starts
    target = _target_file(tmp_path, REF36_TARGET, "36")
    assert main(["steer", "--target", target, "--starts", "16", "--kmax", "0.5"]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible: no root accepted")
    assert "start outcomes: accepted 0, not_converged 5, out_of_bounds 16," in err


def test_steer_beyond_the_acceptance_bound_is_infeasible(tmp_path, capsys, ref36_target,
                                                         ref47_target):
    # the solve accepts a root, but the steered endpoint misses a bound that
    # no rounding meets: steer raises, and the CLI exits as for no root
    for model, target in ((Model.M36, ref36_target), (Model.M47, ref47_target)):
        with pytest.raises(InfeasibleTarget, match="steered endpoint misses the target by"):
            steer(model, target, SteerOptions(acceptance_bound=1e-300))
    target = _target_file(tmp_path, REF36_TARGET, "36")
    assert main(["steer", "--target", target, "--bound", "1e-300"]) == EXIT_INFEASIBLE
    assert "beyond the acceptance bound 1.000e-300" in capsys.readouterr().err


def test_cli_huge_bounds_exit_infeasible_without_warning(tmp_path):
    # huge bounds make residuals overflow: no drawn start converges, and no
    # numpy warning or least-squares failure escapes the solver.  The (3,6)
    # grid seeds find the root K 0.99, t 5.02 whatever the bounds, so there
    # the other bound puts it out and the drawn starts run
    for table, model, runs in (
            (REF36_TARGET, "36", (["--kmax", "1e300", "--tmax", "5"],
                                  ["--tmax", "1e300", "--kmax", "0.5"])),
            (REF47_TARGET, "47", (["--kmax", "1e300"], ["--tmax", "1e300"]))):
        target = _target_file(tmp_path, table, model)
        for bounds in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["steer", "--target", target, *bounds]) == EXIT_INFEASIBLE


def test_cli_infinite_bounds_rejected_without_warning(tmp_path, capsys):
    # an infinite bound would draw infinite or NaN starts; the options reject it
    for table, model in ((REF36_TARGET, "36"), (REF47_TARGET, "47")):
        target = _target_file(tmp_path, table, model)
        for flag in ("--kmax", "--tmax"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["steer", "--target", target, flag, "inf"]) == EXIT_IO
            assert "bounds must be finite" in capsys.readouterr().err


def test_cli_exit_degenerate(tmp_path):
    bad = _target_file(tmp_path, {"e1": 1.0, "e2": 2.0}, "36")  # no bivector part
    assert main(["steer", "--target", bad]) == EXIT_DEGENERATE


def test_degenerate_target_raises_before_the_solve(tmp_path, monkeypatch):
    # flag degeneracy is a condition on the target's invariants, so steer
    # checks it before the solve: a straight segment of either model raises
    # DegenerateConfiguration (exit 3) even where the solve would fail (exit 2)
    def fail(req):
        raise InfeasibleTarget("the solve ran")

    monkeypatch.setattr("carnotga.steering.solve", fail)
    for model, point in (("36", {"e1": 2.0}), ("47", {"e2": 2.0})):
        with pytest.raises(DegenerateConfiguration):
            steer(model, point_from_blade_map(model, point))
        assert main(["steer", "--target", _target_file(tmp_path, point, model)]) == EXIT_DEGENERATE


def test_cli_maps_every_package_error(tmp_path, monkeypatch, capsys):
    target = _target_file(tmp_path, REF36_TARGET, "36")
    for error in (FlagMismatch, NearZeroNorm, AntipodalVectors, DependentVectors, RotorDomain):
        def fail(*args, error=error, **kwargs):
            raise error("raised for the test")

        monkeypatch.setattr("carnotga.cli.steer", fail)
        assert main(["steer", "--target", target]) == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert err.startswith("degenerate configuration: raised for the test")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_exit_io_on_bad_input(tmp_path, capsys):
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
    huge = "1" + "0" * 400
    target = '{"model":"36","point":{"e1":%s}}' % huge
    assert main(["invariants", "--target", target]) == EXIT_IO
    for bound in ("nan", "-1"):
        assert main(["steer", "--target", target.replace(huge, "2"), "--bound", bound]) == EXIT_IO
    capsys.readouterr()
    assert main(["steer", "--target", target.replace(huge, "2"), "--seed", "-1"]) == EXIT_IO
    assert capsys.readouterr().err == "error: seed must be at least 0\n"
    data = report_to_dict(steer(Model.M36, point_from_blade_map(Model.M36, REF36_TARGET), FAST))
    data["acceptance_bound"] = int(huge)
    report = tmp_path / "huge_bound.json"
    report.write_text(json.dumps(data))
    assert main(["verify", str(report)]) == EXIT_IO
    data["acceptance_bound"], data["target"] = 0.05, 0.0  # a target that is no map
    report.write_text(json.dumps(data))
    assert main(["verify", str(report)]) == EXIT_IO
    deep = "[" * 100000 + "]" * 100000  # nested beyond the JSON decoder's recursion limit
    report.write_text(deep)
    assert main(["verify", str(report)]) == EXIT_IO
    assert main(["invariants", "--target", '{"model": "36", "point": %s}' % deep]) == EXIT_IO


def test_cli_usage_errors_exit_io(capsys):
    # argparse's own code for a usage error, 2, is the code of an infeasible target
    target = json.dumps({"model": "36", "point": {"e1": 1}})
    for argv, message in (
            (["steer", "--target", target, "--samples", "abc"],
             "carnotga steer: error: argument --samples: invalid int value: 'abc'"),
            (["bogus"], "carnotga: error: argument command: invalid choice: 'bogus'")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("usage: carnotga") and message in err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: carnotga")


def test_cli_builds_one_parser_that_keeps_no_state(tmp_path, monkeypatch, capsys):
    builds = []

    def counting(build=cli._build_parser):
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", counting)
    target = _target_file(tmp_path, REF36_TARGET, "36")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["steer", "--target", target, "--samples", "5", "--out", str(a)]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(["steer", "--target", target, "--samples", "abc"])
    assert exc.value.code == EXIT_IO
    assert main(["steer", "--target", target, "--out", str(b)]) == EXIT_OK
    assert len(builds) == 1
    samples = [len(json.loads(p.read_text())["trajectory"]["t"]) for p in (a, b)]
    assert samples == [5, 200]  # 200, the default: the first call's --samples did not stay
    # importing the module builds none
    code = "import carnotga.cli\nassert carnotga.cli._parser is None\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_inline_json_and_module_entry(tmp_path):
    inline = json.dumps({"model": "36", "point": REF36_TARGET})
    proc = subprocess.run(
        [sys.executable, "-m", "carnotga.cli", "invariants", "--target", inline],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["invariants"]["xx"] == 14.0


def test_cli_loads_no_scipy():
    inline = json.dumps({"model": "36", "point": REF36_TARGET})
    code = (
        "import sys\n"
        "import carnotga.cli\n"
        f"assert carnotga.cli.main(['invariants', '--target', {inline!r}]) == 0\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
        outs.append((tmp_path / name).read_text())
    assert outs[0] == outs[1]


# --------------------------------------------------------------------------
# CLI fuzzing: random and corrupted targets and reports


_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_NUMBERS = (
    st.floats(-10.0, 10.0)
    | st.floats()
    | st.integers(-(10**400), 10**400)
    | st.sampled_from([float("nan"), float("inf"), 1e300, -1e300, 1e-300, 0.0])
)
_TARGETS = st.one_of(
    *(
        st.fixed_dictionaries({
            "model": st.just(model),
            "point": st.dictionaries(st.sampled_from(list(blades)), _NUMBERS, max_size=len(blades)),
        })
        for model, blades in (("36", REF36_TARGET), ("47", REF47_TARGET))
    ),
    st.fixed_dictionaries({
        "model": st.sampled_from(["36", "47", 36, 47, "12"]) | _JUNK,
        "point": st.dictionaries(st.sampled_from(["e1", "e12", "e23", "e4", "x"]), _NUMBERS | _JUNK)
        | _JUNK,
    }),
)


def _run_cli(args):
    """Run ``main`` in process: it must return an exit code of the contract
    and print no traceback; a numpy RuntimeWarning fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(args)
    assert code in range(5) and "Traceback" not in err.getvalue(), (args, code, err.getvalue())


_FUZZ = settings(max_examples=200, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


@_FUZZ
@given(
    target=_TARGETS,
    cut=st.none() | st.integers(0, 120),
    model=st.sampled_from([[], ["--model", "36"], ["--model", "47"]]),
    command=st.sampled_from([["invariants"], ["steer", "--starts", "2", "--samples", "2"]]),
)
# found by this test: squaring x = 1e300 in the M47 start floor raised
# OverflowError; the M36 invariants of e1 = 1e300 warned before exiting 4
@example(target={"model": "47", "point": {"e1": 1e300}}, cut=None, model=[],
         command=["steer", "--starts", "2", "--samples", "2"])
@example(target={"model": "36", "point": {"e1": 1e300}}, cut=None, model=[],
         command=["steer", "--starts", "2", "--samples", "2"])
def test_cli_fuzz_targets(target, cut, model, command):
    # json.dumps writes NaN and huge integers as json.loads reads them back;
    # a cut text starts with "{", so it is parsed inline, never opened as a path
    text = json.dumps(target)[:cut]
    _run_cli(command + model + ["--target", text])


@pytest.fixture(scope="module")
def fuzz_reports():
    return [
        report_to_dict(steer(model, point_from_blade_map(model, table), FAST))
        for model, table in ((Model.M36, REF36_TARGET), (Model.M47, REF47_TARGET))
    ]


@_FUZZ
@given(data=st.data())
def test_cli_fuzz_reports(fuzz_reports, tmp_path_factory, data):
    """Start from a real report, then drop fields, retype them or set them to
    NaN, huge or nested values, at any depth."""
    report = copy.deepcopy(data.draw(st.sampled_from(fuzz_reports)))
    for _ in range(data.draw(st.integers(1, 3))):
        node = report
        while isinstance(node, (dict, list)) and node:
            key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
                node = child
            elif data.draw(st.booleans()):
                del node[key]
                break
            else:
                node[key] = data.draw(_NUMBERS | _JUNK)
                break
    path = tmp_path_factory.mktemp("report") / "report.json"
    path.write_text(json.dumps(report)[:data.draw(st.none() | st.integers(0, 400))])
    _run_cli(["verify", str(path)])
