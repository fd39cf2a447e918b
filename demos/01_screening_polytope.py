#!/usr/bin/env python3
"""Walk through the incentive-compatibility polytope of a small screening game.

One agent with two private types (L, H) faces principal P1, who can play
action a or b; P2 is a bystander with a single action.  Every
incentive-compatible direct mechanism for P1 is a point in a polytope cut
out by simplex equalities (one per type profile) and truth-telling rows.
"""

import numpy as np

import mechpoly as mp

g = mp.screening_game()
print("game:", g.principal_ids, "against agent types", g.type_spaces[0])
report = mp.validate_game(g)
print("validation:", "ok" if report.ok else report.errors)

poly = mp.build_bic_polytope(g, principal=0)
print(f"\npolytope for P1: {poly.n_vars} variables, "
      f"{poly.eq.shape[0]} equalities, {poly.ic.shape[0]} truth-telling rows")

print("\nH-representation:")
print(mp.export_h_representation(poly))

verts = mp.enumerate_vertices(g, 0)
print(f"{len(verts)} vertices:")
for v in verts:
    print("   ", np.round(v.p, 6).tolist())

# Any convex combination of feasible tables stays feasible.
lam = 0.35
blend = mp.DirectMechanism(owner=0, p=lam * verts[0].p + (1 - lam) * verts[1].p)
res = mp.is_individually_bic(g, blend)
print(f"\nblend of vertices 0 and 1 at weight {lam}: "
      f"BIC={res.ok}, worst slack {res.worst_value:+.3e}")

# A table that pays the H type for claiming to be L is not
# incentive compatible, and the verdict names the profitable misreport.
bad = mp.DirectMechanism(owner=0, p=[[0.0, 1.0], [1.0, 0.0]])
res = mp.is_individually_bic(g, bad)
print(f"swapped table: BIC={res.ok}, worst violation {res.worst_label} "
      f"slack {res.worst_value:+.3f}")

sampled = mp.sample_bic(g, 0, seed=7)
print("\nrandom feasible table (seed 7):")
print("   ", np.round(sampled.p, 6).tolist())
