"""Print two sha256 digests per group of moduli solves, one over the
exhaustive solves and one over the early-stop solves, then one over steer
reports.

Two checkouts that print the same line solve every target of that group to
the same bits on that path: each solve contributes the hex form of every
root parameter and residual norm, the start outcomes, the Newton iterations,
the residual rows and the start counts, or the text of the InfeasibleTarget
it raised.  Every target is solved exhaustively, and with ``early_stop`` 1
and 2; a change to the early-stop policy alone leaves the exhaustive lines
as they are.  The groups:

- ``documented``: the two documented worked targets;
- ``forward``: 48 forward-generated targets, 24 per model, drawn as the
  benchmark's round-trip pool draws them (generator seed 0, endpoints kept
  5e-2 from the collinearity locus where the flags degenerate);
- ``random``: 10 invariant tuples drawn uniformly from [-10, 10] (generator
  seed 91, models alternating), most of them unreachable;
- ``straight``: straight segments of length 1, 5 and 9 per model, where a
  root leaves K free and the orbit-signature dedup merges roots;
- ``small-k``: 24 forward-generated targets, 12 per model, drawn as
  ``forward`` draws them but with K log-uniform in [10^-3.5, 10^-1]
  (generator seed 2026): the (4,7) constants C1, C2 = sin(a) / K reach
  1e3 there, and starts that converge to one curve lie far apart in the
  parameters, so a change to the duplicate rule shows here.

Two lines hash ``report_to_dict`` JSON of steer reports: they move
whenever a report's bytes do, the rotor and trajectory included, while the
solve lines stay.

- ``documented reports``: both documented targets steered with default
  options at seeds 0 and 11;
- ``forward rotated``: the 48 forward endpoints, each moved by its own
  generic rotor through ``so3_action`` (rotors fixing e1 for 47), steered
  with ``early_stop`` 1 and two samples.  The documented reports meet only
  four rotations; these meet 48 generic ones, so a change to the bits of
  the flag frames, their rotation's action or its rotor shows here.

Uses numpy and the standard library only.  Run from the repository root:

    PYTHONPATH=src python3 tools/solve_digest.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple

import numpy as np

from carnotga import (
    GeodesicParams36,
    GeodesicParams47,
    InfeasibleTarget,
    Model,
    Multivector,
    Rotor,
    SolveOptions,
    SteerOptions,
    blade_index,
    compute_invariants,
    flag_margin,
    invariants,
    normalize,
    point_from_blade_map,
    report_to_dict,
    representative_geodesic_36,
    representative_geodesic_47,
    so3_action,
    solve,
    steer,
)

DOCUMENTED_POINTS = (
    (Model.M36, point_from_blade_map(
        Model.M36, {"e1": 2.0, "e2": -1.0, "e3": 3.0, "e12": 1.0, "e13": -2.0, "e23": -2.0})),
    (Model.M47, point_from_blade_map(
        Model.M47, {"e1": 1.0, "e2": 2.0, "e3": 1.0, "e4": 3.0, "e12": -1.0, "e13": 2.0, "e14": 2.0})),
)
# (14, -9, 3) and (1, 14, -6, -9)
DOCUMENTED = tuple((model, compute_invariants(model, point)) for model, point in DOCUMENTED_POINTS)


def forward_points(count: int = 24, seed: int = 0, k_draw=lambda rng: rng.uniform(0.3, 3.0)) -> list:
    """``count`` forward-generated endpoints per model, K drawn by ``k_draw``."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        for model in Model:
            while True:
                k, angle, t = k_draw(rng), rng.uniform(0.15, np.pi - 0.15), rng.uniform(1.0, 9.0)
                if model is Model.M36:
                    params = GeodesicParams36(k, np.sin(angle), np.cos(angle), t)
                    point = representative_geodesic_36(params, t)
                else:
                    psi, r = rng.uniform(0.0, 2.0 * np.pi), np.sin(angle) / k
                    params = GeodesicParams47(k, r * np.cos(psi), r * np.sin(psi), np.cos(angle), t)
                    point = representative_geodesic_47(params, t)
                if flag_margin(model, point) >= 5e-2:
                    points.append((model, point))
                    break
    return points


def rotated(points) -> list:
    """Each point moved by its own rotor, normalized from four normal draws
    (generator seed 7) on the scalar and the rotation planes: those of
    e1, e2, e3 for 36, and those of e2, e3, e4, which fix e1, for 47."""
    rng = np.random.default_rng(7)
    moved = []
    for model, point in points:
        dim = point.mv.dim
        planes = ("e12", "e13", "e23") if model is Model.M36 else ("e23", "e24", "e34")
        c = np.zeros(1 << dim)
        c[[0, *map(blade_index, planes)]] = rng.normal(size=4)
        moved.append((model, so3_action(model, Rotor(normalize(Multivector(dim, c))), point).mv))
    return moved


def random_targets() -> list:
    rng = np.random.default_rng(91)
    models = [Model.M36, Model.M47] * 5
    return [(m, tuple(rng.uniform(-10.0, 10.0, size=3 if m is Model.M36 else 4))) for m in models]


def straight_targets() -> list:
    return [(m, (L * L, 0.0, 0.0) if m is Model.M36 else (0.0, L * L, 0.0, 0.0))
            for m in Model for L in (1.0, 5.0, 9.0)]


def solve_line(model: Model, target: tuple, early_stop) -> str:
    """Every bit of one solve, as one line of text."""
    head = f"{model.value} {' '.join(float(v).hex() for v in target)} {early_stop}"
    try:
        result = solve(model, target, SolveOptions(early_stop=early_stop))
    except InfeasibleTarget as exc:
        return f"{head} infeasible {exc}"
    roots = ";".join(" ".join(float(v).hex() for v in (*astuple(s.params), s.residual_norm))
                     for s in result.solutions)
    return (f"{head} {roots} {sorted(result.start_outcomes.items())} {result.starts_attempted} "
            f"{result.converged} {result.newton_iterations} {result.residual_rows}")


def steer_line(model: Model, point, options: SteerOptions) -> str:
    """The report of one steer as JSON, or the text of the InfeasibleTarget
    it raised."""
    try:
        return json.dumps(report_to_dict(steer(model, point, options)))
    except InfeasibleTarget as exc:
        return f"{model.value} infeasible {exc}"


def main() -> None:
    forward = forward_points()
    small_k = forward_points(12, 2026, lambda rng: 10.0 ** rng.uniform(-3.5, -1.0))
    groups = (("documented", DOCUMENTED),
              ("forward", [(model, invariants(model, point).as_tuple()) for model, point in forward]),
              ("random", random_targets()), ("straight", straight_targets()),
              ("small-k", [(model, invariants(model, point).as_tuple()) for model, point in small_k]))
    for name, targets in groups:
        for path, early_stops in (("exhaustive", (None,)), ("early_stop", (1, 2))):
            h = hashlib.sha256()
            for model, target in targets:
                for early_stop in early_stops:
                    h.update((solve_line(model, target, early_stop) + "\n").encode())
            print(f"{name:<10} {path:<10} {len(early_stops) * len(targets):3d} solves  "
                  f"sha256 {h.hexdigest()}")
    for name, path, steers in (
            ("documented", "reports", [(model, point, SteerOptions(seed=seed))
                                       for model, point in DOCUMENTED_POINTS for seed in (0, 11)]),
            ("forward", "rotated", [(model, point, SteerOptions(early_stop=1, samples=2))
                                    for model, point in rotated(forward)])):
        h = hashlib.sha256()
        for model, point, options in steers:
            h.update((steer_line(model, point, options) + "\n").encode())
        print(f"{name:<10} {path:<10} {len(steers):3d} steers  sha256 {h.hexdigest()}")


if __name__ == "__main__":
    main()
