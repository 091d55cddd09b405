"""Full steering pipeline on the 6-dimensional model, step by step.

Target: reach q_t = 2 e1 - e2 + 3 e3 + e12 - 2 e13 - 2 e23 from the origin
along a sub-Riemannian geodesic.  The pipeline computes the invariants,
solves the moduli system, evaluates the representative geodesic, aligns the
attached flags by a rotor, and pushes the whole curve through it.
"""

from carnotga import (
    Model,
    SteerOptions,
    compute_invariants,
    point_from_blade_map,
    report_to_dict,
    representative_geodesic_36,
    steer,
)
from carnotga.steering import coordinate_columns

target = point_from_blade_map(
    Model.M36, {"e1": 2, "e2": -1, "e3": 3, "e12": 1, "e13": -2, "e23": -2}
)
print("target q_t:", target)

print("\nstep 1: invariants of the target")
inv = compute_invariants(Model.M36, target)
print("  (x.x, z.z, (x^z)*) =", inv)

report = steer(Model.M36, target, SteerOptions(samples=9))
p = report.params
print("\nstep 2: moduli solve")
print(f"  K = {p.K:.4f}, D = {p.D:.4f}, C3 = {p.C3:.4f}, t = {p.t_final:.4f}")
print(f"  level defect {abs(p.level - 1):.1e}, residual {report.residual_norm:.1e}")

print("\nstep 3: representative endpoint on the same orbit")
qo = representative_geodesic_36(p, p.t_final)
print("  q_o =", qo.mv)

print("\nstep 4: aligning rotor")
print("  R =", report.rotor.mv)

print("\nstep 5: steered trajectory samples (x1..x3, z1..z3)")
traj = report_to_dict(report)["trajectory"]
for i, t in enumerate(traj["t"]):
    row = ", ".join(f"{traj[c][i]:+.4f}" for c in coordinate_columns(Model.M36))
    print(f"  t = {t:6.3f}:  {row}")
print(f"\nendpoint error: {report.endpoint_error:.3e} "
      f"(acceptance bound {report.acceptance_bound})")
