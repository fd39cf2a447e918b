"""``solver._saddle_lp`` as it was when it served two principals only: the
oracle that the any-J saddle LP must match bit for bit with two principals.

The inner side is one principal's polytope, taken whole from
``build_bic_polytope``; the bilinear blocks are each profile's slice of
v_j, transposed when the inner principal is the second.  It shares no
joint-table code with the library.
"""

import numpy as np

from lp_oracle import RelationsLP, lp_system, solve_relations
from mechpoly.bic import _clean_point, build_bic_polytope
from mechpoly.game import DirectMechanism, FiniteGame
from mechpoly.solver import NumericalFailure


def _saddle_lp(g: FiniteGame, principal: int, sense: str):
    """Two-principal saddle point of E[v_j] as one LP (sequence-form LP of
    Koller, Megiddo & von Stengel), ``saddle_problem``, solved by scipy's
    linprog; returns (value, outer DirectMechanism)."""
    poly_out = build_bic_polytope(g, 1 - principal if sense == "min" else principal)
    res = solve_relations(saddle_problem(g, principal, sense))
    if res.status != "optimal":
        raise NumericalFailure(f"saddle LP {res.status}")
    z = _clean_point(poly_out, res.x[:poly_out.n_vars])
    return float(res.value), DirectMechanism(
        owner=poly_out.owner, p=z.reshape(poly_out.n_profiles, poly_out.n_actions))


def saddle_problem(g: FiniteGame, principal: int, sense: str) -> RelationsLP:
    """The two-principal saddle LP of E[v_j] over [outer table, y, z].

    sense='min' is j's minmax: the outer table is the opponent's q and the
    inner program j's max over p.  sense='max' is j's maxmin: the outer
    table is j's p and the inner program the opponent's min over q.
    Dualizing the inner program over its polytope (E simplex rows, G IC
    rows) gives variables [outer table, y (n_x), z (inner IC rows)], the
    objective 1^T y, and rows -Q q + E_j^T y - G_j^T z >= 0 (min) or
    Q^T p - E_k^T y - G_k^T z >= 0 (max), then the outer polytope's rows.
    """
    inner = principal if sense == "min" else 1 - principal
    poly_in = build_bic_polytope(g, inner)
    poly_out = build_bic_polytope(g, 1 - inner)
    n_out, n_x, m_in = poly_out.n_vars, g.num_profiles, poly_in.ic.shape[0]
    # the bilinear form's block rows run over the inner principal's actions:
    # Q_in[(x,a_in),(x,a_out)] = F(x) v_j(x,a)
    v = g.principal_utils[principal]  # (x, A_1, A_2)
    r, k = v.shape[1 + inner], v.shape[2 - inner]
    q_in = np.zeros((n_x * r, n_x * k))
    for x in range(n_x):
        q_in[x * r:(x + 1) * r, x * k:(x + 1) * k] = g.prior[x] * (v[x] if inner == 0 else v[x].T)
    flip = 1.0 if sense == "min" else -1.0
    a_out, rel_out, b_out = lp_system(poly_out)
    a = np.vstack([np.hstack([-flip * q_in, flip * poly_in.eq.T, -poly_in.ic.T]),
                   np.hstack([a_out, np.zeros((a_out.shape[0], n_x + m_in))])])
    rel = [">="] * poly_in.n_vars + rel_out
    b = np.concatenate([np.zeros(poly_in.n_vars), b_out])
    obj = np.concatenate([np.zeros(n_out), np.ones(n_x), np.zeros(m_in)])
    bounds = [(0.0, None)] * n_out + [(None, None)] * n_x + [(0.0, None)] * m_in
    return RelationsLP(c=obj, a=a, relations=rel, b=b, bounds=bounds, sense=sense)
