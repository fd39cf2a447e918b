"""``is_profile_bic`` and ``build_bic_polytope`` as they computed interim
payoffs profile by profile: the oracles that the library must match.

``is_profile_bic`` computes every agent's interim payoff at every report to
every principal with its own loop, then tries every vector of reports, one
per principal.  ``build_bic_polytope`` finds each misreport's profile by
rewriting the profile's coordinates.  Neither shares code with the
library's IC rows.
"""

import itertools

import numpy as np

from mechpoly.bic import BicPolytope, MembershipResult
from mechpoly.game import FiniteGame, _frozen


def conditional_weights(g: FiniteGame, agent: int, t: int):
    """(profile indices with x_i = t, conditional weights) for positive-mass t,
    (those indices, None) for a type without prior mass."""
    idxs = g.profiles_with_type(agent, t)
    mass = float(g.prior[idxs].sum())
    if mass <= 0.0:
        return idxs, None
    return idxs, g.prior[idxs] / mass


def _replace_type(g: FiniteGame, x: int, agent: int, t: int) -> int:
    """Flat index of profile x with agent's coordinate replaced by type t."""
    coords = g.profiles[x].copy()
    coords[agent] = t
    idx = 0
    for i, ti in enumerate(coords):
        idx = idx * len(g.type_spaces[i]) + int(ti)
    return idx


def build_bic_polytope(g: FiniteGame, principal: int) -> BicPolytope:
    """One principal's polytope: the simplex and truth-telling rows, rows
    ordered by (agent, true type, reported type); built anew on every call."""
    j = principal
    n_x = g.num_profiles
    n_a = len(g.action_spaces[j])
    n_vars = n_x * n_a
    eq = np.zeros((n_x, n_vars))
    for x in range(n_x):
        eq[x, x * n_a:(x + 1) * n_a] = 1.0
    rows = []
    labels = []
    warnings = []
    u = g.agent_utils  # u[i][j][x, a]
    for i in range(g.num_agents):
        for t, t_lab in enumerate(g.type_spaces[i]):
            idxs, w = conditional_weights(g, i, t)
            if w is None:
                warnings.append(f"agent {i} type {t_lab!r} has zero prior mass; no IC rows")
                continue
            for r, r_lab in enumerate(g.type_spaces[i]):
                if r == t:
                    continue
                row = np.zeros(n_vars)
                for x, wt in zip(idxs, w):
                    x_rep = _replace_type(g, int(x), i, r)
                    coeff = wt * u[i][j][int(x)]  # utility at the true profile
                    row[int(x) * n_a:(int(x) + 1) * n_a] += coeff
                    row[x_rep * n_a:(x_rep + 1) * n_a] -= coeff
                rows.append(row)
                labels.append((i, t_lab, r_lab))
    ic = np.array(rows) if rows else np.zeros((0, n_vars))
    return BicPolytope(
        owner=j,
        n_profiles=n_x,
        n_actions=n_a,
        eq=_frozen(eq),
        ic=_frozen(ic),
        ic_labels=tuple(labels),
        warnings=tuple(warnings),
    )


def is_profile_bic(g: FiniteGame, mechanisms, tol: float = 1e-9) -> MembershipResult:
    """Check truthful reporting against joint deviations across principals.

    Enumerates, for every agent and positive-mass type, every vector of
    reports (one per principal, possibly all different) and compares the
    interim payoff with truth-telling everywhere.  ok iff no report vector
    gains more than tol.  The worst witness label is (agent, true type,
    report vector).
    """
    n_j = g.num_principals
    worst_gain = -np.inf
    worst_label = None
    for i in range(g.num_agents):
        n_t = len(g.type_spaces[i])
        if n_t == 1:
            continue
        for t in range(n_t):
            idxs, w = conditional_weights(g, i, t)
            if w is None:
                continue
            # truthful per-principal interim payoffs
            truth = 0.0
            per_report = []  # per principal: array over reports r of interim payoff
            for k in range(n_j):
                mech = mechanisms[k]
                u = g.agent_utils[i][k]
                vals = np.zeros(n_t)
                for r in range(n_t):
                    tot = 0.0
                    for x, wt in zip(idxs, w):
                        x_rep = _replace_type(g, int(x), i, r)
                        tot += wt * float(np.dot(mech.p[x_rep], u[int(x)]))
                    vals[r] = tot
                per_report.append(vals)
                truth += vals[t]
            for rep in itertools.product(range(n_t), repeat=n_j):
                gain = sum(per_report[k][rep[k]] for k in range(n_j)) - truth
                if gain > worst_gain:
                    worst_gain = gain
                    worst_label = (i, g.type_spaces[i][t],
                                   tuple(g.type_spaces[i][r] for r in rep))
    if worst_label is None:
        return MembershipResult(ok=True, worst_value=0.0, worst_label=None)
    return MembershipResult(
        ok=bool(worst_gain <= tol),
        worst_value=float(worst_gain),
        worst_label=worst_label,
    )


def joint_gain(g: FiniteGame, mechanisms, label) -> float:
    """The gain over truthful reporting of label = (agent, true type, report
    vector), in the arithmetic ``is_profile_bic`` above uses for its gains."""
    i, t_lab, reports = label
    types = g.type_spaces[i]
    t = types.index(t_lab)
    idxs, w = conditional_weights(g, i, t)

    def interim(k, r):
        tot = 0.0
        for x, wt in zip(idxs, w):
            x_rep = _replace_type(g, int(x), i, r)
            tot += wt * float(np.dot(mechanisms[k].p[x_rep], g.agent_utils[i][k][int(x)]))
        return tot

    truth = 0.0
    for k in range(g.num_principals):
        truth += interim(k, t)
    return sum(interim(k, types.index(r)) for k, r in enumerate(reports)) - truth
