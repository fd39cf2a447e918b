"""Incentive-compatibility polytopes for direct mechanisms.

For a single principal j, the individually incentive-compatible direct
mechanisms form a polytope in R^(n_profiles * |A_j|): per-profile simplex
equalities plus one interim truth-telling inequality for each (agent,
reported-from type, reported-to type) pair with positive prior mass on the
"from" type.  This module builds that linear system explicitly, answers
membership queries, enumerates vertices and samples feasible points.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .game import DirectMechanism, FiniteGame, conditional_weights

MEMBERSHIP_TOL = 1e-9
SNAP_TOL = 1e-9         # vertex coordinates this close to a grid value are snapped
BLOCK = 1 << 14         # elements per temporary in vertex enumeration

DEFAULT_DIM_CAP = 12


class DimensionTooLarge(ValueError):
    """Raised when an exact enumeration would exceed the requested cap."""


@dataclass(frozen=True)
class BicPolytope:
    """Linear description of one principal's incentive-compatible mechanisms.

    Variables are indexed (profile, action), flattened row-major: the entry
    for profile x and action a sits at x * |A_j| + a.

    Fields:
        owner: principal index j.
        n_profiles / n_actions: table dimensions.
        eq: (n_profiles, n_vars) simplex rows, each summing its profile to 1.
        ic: (n_rows, n_vars) inequality rows, feasible iff ic @ p >= 0.
        ic_labels: per row, (agent, true type label, reported type label).
        warnings: zero-mass types that generated no rows.
    """

    owner: int
    n_profiles: int
    n_actions: int
    eq: np.ndarray
    ic: np.ndarray
    ic_labels: tuple
    warnings: tuple = ()

    @property
    def n_vars(self) -> int:
        return self.n_profiles * self.n_actions

    def flatten(self, mech) -> np.ndarray:
        p = mech.p if isinstance(mech, DirectMechanism) else np.asarray(mech, dtype=float)
        return p.reshape(-1)

    def ic_values(self, mech) -> np.ndarray:
        """Left-hand sides of every IC row at a mechanism (>= 0 when feasible)."""
        if self.ic.shape[0] == 0:
            return np.zeros(0)
        return self.ic @ self.flatten(mech)

    def lp_system(self):
        """(a, relations, b) for LP assembly: eq rows '= 1', then ic rows '>= 0'."""
        a = np.vstack([self.eq, self.ic]) if self.ic.shape[0] else self.eq
        rel = ["="] * self.eq.shape[0] + [">="] * self.ic.shape[0]
        b = np.concatenate([np.ones(self.eq.shape[0]), np.zeros(self.ic.shape[0])])
        return a, rel, b


def build_bic_polytope(g: FiniteGame, principal: int) -> BicPolytope:
    """Assemble the simplex and truth-telling rows for one principal.

    Rows are ordered by (agent, true type, reported type) in declaration
    order; types with zero prior mass contribute no rows and are recorded as
    warnings instead.
    """
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
                    x_rep = g.replace_type(int(x), i, r)
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
        eq=eq,
        ic=ic,
        ic_labels=tuple(labels),
        warnings=tuple(warnings),
    )


@dataclass
class MembershipResult:
    ok: bool
    worst_value: float
    worst_label: tuple = None  # (agent, true type, reported type) or None

    def __bool__(self):
        return self.ok


def is_individually_bic(g: FiniteGame, mech: DirectMechanism,
                        tol: float = MEMBERSHIP_TOL,
                        poly: BicPolytope = None) -> MembershipResult:
    """Check truthful reporting against single-principal deviations.

    The mechanism is assumed to be a valid DirectMechanism; only the IC rows
    are evaluated.  Returns the worst row value and its (agent, true type,
    reported type) label; ok iff every row is >= -tol.
    """
    if poly is None:
        poly = build_bic_polytope(g, mech.owner)
    vals = poly.ic_values(mech)
    if vals.size == 0:
        return MembershipResult(ok=True, worst_value=0.0, worst_label=None)
    worst = int(np.argmin(vals))
    return MembershipResult(
        ok=bool(vals[worst] >= -tol),
        worst_value=float(vals[worst]),
        worst_label=poly.ic_labels[worst],
    )


def is_profile_bic(g: FiniteGame, mechanisms, tol: float = MEMBERSHIP_TOL) -> MembershipResult:
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
                        x_rep = g.replace_type(int(x), i, r)
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


# -- vertex enumeration -----------------------------------------------------


def _clean_point(poly: BicPolytope, z: np.ndarray) -> np.ndarray:
    z = z.copy()
    z[np.abs(z) <= SNAP_TOL] = 0.0
    z[np.abs(z - 1.0) <= SNAP_TOL] = 1.0
    z = z.reshape(poly.n_profiles, poly.n_actions)
    z = np.clip(z, 0.0, None)
    z /= z.sum(axis=1, keepdims=True)
    return z.reshape(-1)


def _close_pairs(a: np.ndarray, b: np.ndarray):
    """Index pairs (i, j) with max|a[i] - b[j]| <= 10*SNAP_TOL, by tiles of at
    most BLOCK elements."""
    n = a.shape[1]
    rb = max(1, min(b.shape[0], BLOCK // n))
    ra = max(1, BLOCK // (rb * n))
    ii, jj = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for s in range(0, a.shape[0], ra):
        for t in range(0, b.shape[0], rb):
            d = np.abs(a[s:s + ra, None, :] - b[None, t:t + rb, :]).max(axis=2)
            i, j = np.nonzero(d <= 10 * SNAP_TOL)
            ii.append(i + s)
            jj.append(j + t)
    return np.concatenate(ii), np.concatenate(jj)


def _dedupe(new: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Mask over new: a point joins iff it is more than 10*SNAP_TOL in max-norm
    from every kept point and from every earlier point that joined."""
    join = np.ones(new.shape[0], dtype=bool)
    join[_close_pairs(new, keep)[0]] = False
    i, j = _close_pairs(new, new)
    i, j = i[j < i], j[j < i]
    # j < i, so join[j] is final by the time the pairs of i come up
    for k in np.argsort(i, kind="stable"):
        if join[j[k]]:
            join[i[k]] = False
    return join


def _edges(tight: np.ndarray, pos: np.ndarray, neg: np.ndarray, min_common: int):
    """The (pos, neg) vertex pairs, pos-major, that span an edge.

    A pair is adjacent iff no third vertex's tight set contains the pair's
    common tight set (Fukuda & Prodon 1996).  Row k of common @ loose counts
    the common constraints each vertex leaves slack, so it has exactly two
    zeros (the pair itself) on an edge.  Pairs with fewer than min_common
    common constraints cannot span an edge and are dropped first.
    """
    loose = (~tight).T.astype(np.float32)
    n_neg = neg.size
    n_pairs = pos.size * n_neg
    step = max(1, BLOCK // max(tight.shape))
    out_p, out_q = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for s in range(0, n_pairs, step):
        k = np.arange(s, min(s + step, n_pairs))
        p, q = pos[k // n_neg], neg[k % n_neg]
        common = tight[p] & tight[q]
        big = np.count_nonzero(common, axis=1) >= min_common
        p, q, common = p[big], q[big], common[big]
        if p.size:
            contained = (common.astype(np.float32) @ loose) == 0
            edge = np.count_nonzero(contained, axis=1) == 2
            out_p.append(p[edge])
            out_q.append(q[edge])
    return np.concatenate(out_p), np.concatenate(out_q)


def enumerate_vertices(g: FiniteGame, principal: int,
                       dim_cap: int = DEFAULT_DIM_CAP,
                       poly: BicPolytope = None):
    """All extreme points of the incentive-compatibility polytope.

    Double description: start from the vertex set of the product of
    per-profile simplices (the deterministic mechanisms) and insert each IC
    halfspace in turn.  Vertices with row value >= -1e-9 survive.  Each
    vertex carries its tight set over nonnegativity and the IC rows inserted
    so far (value within 1e-9 of zero; the simplex rows are always tight and
    left out).  A strictly feasible vertex u and a strictly infeasible w
    (row values vu > 1e-9 > -1e-9 > vw) add their crossing point
    (vu*w - vw*u)/(vu - vw) when they are adjacent, which is decided
    combinatorially: no third vertex's tight set contains their common one.
    No rank or SVD test is made.  A crossing point joins iff it is more than
    1e-8 in max-norm from every surviving vertex and from every earlier
    crossing point that joined, taken in (u, w) order.  Every temporary is
    bounded by BLOCK elements.

    Returns a list of DirectMechanism sorted lexicographically by table,
    after snapping coordinates within 1e-9 of 0 or 1.
    Raises DimensionTooLarge when the variable count exceeds dim_cap.
    """
    if poly is None:
        poly = build_bic_polytope(g, principal)
    n = poly.n_vars
    if n > dim_cap:
        raise DimensionTooLarge(
            f"polytope has {n} variables, cap is {dim_cap}"
        )
    # deterministic mechanisms: one-hot per profile
    verts = []
    for choice in itertools.product(range(poly.n_actions), repeat=poly.n_profiles):
        z = np.zeros((poly.n_profiles, poly.n_actions))
        z[np.arange(poly.n_profiles), choice] = 1.0
        verts.append(z.reshape(-1))
    verts = np.array(verts)
    tight = verts <= SNAP_TOL
    # an edge lies on at least dim - 1 constraints besides the simplex rows
    min_common = n - poly.n_profiles - 1
    inserted = np.zeros((0, n))
    for r_i in range(poly.ic.shape[0]):
        row = poly.ic[r_i]
        vals = verts @ row
        keep = vals >= -SNAP_TOL
        p, q = _edges(tight, np.flatnonzero(vals > SNAP_TOL),
                      np.flatnonzero(vals < -SNAP_TOL), min_common)
        vu, vw = vals[p, None], vals[q, None]
        new = (vu * verts[q] - vw * verts[p]) / (vu - vw)
        new = new[_dedupe(new, verts[keep])]
        inserted = np.vstack([inserted, row[None, :]])
        tight = np.vstack([
            np.hstack([tight[keep], (np.abs(vals[keep]) <= SNAP_TOL)[:, None]]),
            np.hstack([new <= SNAP_TOL, np.abs(new @ inserted.T) <= SNAP_TOL]),
        ])
        verts = np.vstack([verts[keep], new])
        if verts.shape[0] == 0:
            break
    cleaned = []
    for z in verts:
        z = _clean_point(poly, z)
        vals = poly.ic_values(z.reshape(poly.n_profiles, poly.n_actions))
        if vals.size and float(vals.min()) < -MEMBERSHIP_TOL:
            continue
        cleaned.append(z)
    cleaned.sort(key=lambda z: tuple(np.round(z, 12)))
    out = []
    for z in cleaned:
        if out and np.max(np.abs(z - out[-1].p.reshape(-1))) <= 10 * SNAP_TOL:
            continue
        out.append(DirectMechanism(owner=poly.owner, p=z.reshape(poly.n_profiles, poly.n_actions)))
    return out


def sample_bic(g: FiniteGame, principal: int, seed: int,
               poly: BicPolytope = None) -> DirectMechanism:
    """A feasible mechanism: maximize a seeded random objective over the polytope.

    Deterministic in (game, principal, seed).  The result is a vertex of the
    polytope (an LP optimum), cleaned to exact row sums.
    """
    from .solver import _optimize_over  # local import to avoid a cycle

    if poly is None:
        poly = build_bic_polytope(g, principal)
    c = np.random.default_rng(seed).standard_normal(poly.n_vars)
    return _optimize_over(poly, "max", "sampling", c=c)[1]


def export_h_representation(poly: BicPolytope) -> str:
    """Textual H-representation: one row per line, equalities first.

    Each line is 'c_1 ... c_n <rel> rhs' with <rel> one of '=' or '>='.
    Variable order is (profile, action) flattened row-major; IC rows keep
    their (agent, true type, reported type) build order.
    """
    lines = []
    for r in range(poly.eq.shape[0]):
        coeffs = " ".join(format(c, ".17g") for c in poly.eq[r])
        lines.append(f"{coeffs} = 1")
    for r in range(poly.ic.shape[0]):
        coeffs = " ".join(format(c, ".17g") for c in poly.ic[r])
        lines.append(f"{coeffs} >= 0")
    return "\n".join(lines) + "\n"
