"""Full steering pipeline on the 7-dimensional model.

Target: q_t = e1 + 2 e2 + e3 + 3 e4 - e12 + 2 e13 + 2 e14.  The rotation
symmetry of this model fixes the first axis, so the aligning rotor must
leave e1 alone; the demo checks that explicitly.
"""

import numpy as np

from carnotga import (
    Model,
    Multivector,
    SteerOptions,
    compute_invariants,
    point_from_blade_map,
    report_to_dict,
    representative_geodesic_47,
    sandwich,
    steer,
)
from carnotga.steering import coordinate_columns

target = point_from_blade_map(
    Model.M47,
    {"e1": 1, "e2": 2, "e3": 1, "e4": 3, "e12": -1, "e13": 2, "e14": 2},
)
print("target q_t:", target)

inv = compute_invariants(Model.M47, target)
print("invariants (x, l.l, (l.y)e1, y.y):", inv)

report = steer(Model.M47, target, SteerOptions(samples=7))
p = report.params
print(f"\nsolved constants: K = {p.K:.4f}, C1 = {p.C1:.4f}, "
      f"C2 = {p.C2:.4f}, C = {p.C:.4f}, t = {p.t_final:.4f}")

qo = representative_geodesic_47(p, p.t_final)
print("representative endpoint q_o:", qo.mv)
print("aligning rotor:", report.rotor.mv)

e1 = Multivector.basis_vector(4, 1)
drift = np.max(np.abs(sandwich(report.rotor, e1).coeffs - e1.coeffs))
print(f"rotor moves e1 by {drift:.2e} (the symmetry fixes the first axis)")

print("\nsteered trajectory samples (x, l1..l3, y1..y3):")
traj = report_to_dict(report)["trajectory"]
for i, t in enumerate(traj["t"]):
    row = ", ".join(f"{traj[c][i]:+.4f}" for c in coordinate_columns(Model.M47))
    print(f"  t = {t:6.3f}:  {row}")
print(f"\nendpoint error: {report.endpoint_error:.3e}")
