"""Rotation invariants and the moduli solve.

The rotation symmetry of each model acts on points; three (or four) scalar
invariants coordinatize the quotient.  Rotating a point leaves them fixed,
and the nonlinear solve inverts them: given a target invariant tuple it
finds representative-geodesic constants and an arrival time.
"""

from carnotga import (
    Model,
    Model36Point,
    Multivector,
    invariants_36,
    normalize,
    representative_geodesic_36,
    rotor_between_vectors,
    so3_action,
    solve,
)

q = Model36Point.from_parts([2.0, -1.0, 3.0], [1.0, -2.0, -2.0])
print("point:", q.mv)
inv = invariants_36(q)
print("invariants (xx, zz, xz*):", inv.as_tuple())

print("\n== the invariants do not move under rotations ==")
x = normalize(Multivector.from_vector(3, [1.0, 2.0, 0.5]))
y = normalize(Multivector.from_vector(3, [-0.5, 1.0, 1.0]))
rot = rotor_between_vectors(x, y)
rotated = so3_action(Model.M36, rot, q)
print("rotated point:", rotated.mv)
print("its invariants:", tuple(round(v, 12) for v in invariants_36(rotated).as_tuple()))

print("\n== inverting the invariant map ==")
result = solve(Model.M36, inv.as_tuple())
print(f"starts {result.starts_attempted}, converged {result.converged}, "
      f"distinct roots {len(result.solutions)}")
# a converged start that traces the curve of an accepted root (same orbit
# signature) counts as a duplicate, whatever its parameters
print("start outcomes:", result.start_outcomes)
for sol in result.solutions:
    p = sol.params
    print(f"  K={p.K:.4f} D={p.D:.4f} C3={p.C3:.4f} t={p.t_final:.4f} "
          f"(residual {sol.residual_norm:.1e})")

best = result.solutions[0].params
endpoint = representative_geodesic_36(best, best.t_final)
print("\nrepresentative endpoint:", endpoint.mv)
print("its invariants:", tuple(round(v, 9) for v in invariants_36(endpoint).as_tuple()))
print("(same moduli point as the target; a rotor closes the gap, see the steering demos)")
