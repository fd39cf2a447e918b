"""Incentive-compatibility polytopes for direct mechanisms.

For a single principal j, the individually incentive-compatible direct
mechanisms form a polytope in R^(n_profiles * |A_j|): per-profile simplex
equalities plus one interim truth-telling inequality for each (agent,
reported-from type, reported-to type) pair with positive prior mass on the
"from" type.  This module builds that linear system explicitly, answers
membership queries, enumerates vertices and samples feasible points.
"""

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .game import (
    DirectMechanism,
    FiniteGame,
    _frozen,
    _require_profile,
    conditional_weights,
)

MEMBERSHIP_TOL = 1e-9
SNAP_TOL = 1e-9         # vertex coordinates this close to a grid value are snapped
BLOCK = 1 << 14         # elements per temporary in vertex enumeration

DEFAULT_DIM_CAP = 12
POLYTOPE_CACHE_SIZE = 64   # polytopes kept; the oldest is dropped past this


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

    build_bic_polytope makes eq and ic read-only.  ``lp_block`` and
    ``vertex_tables`` are computed on first access and then kept.
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

    @cached_property
    def lp_block(self) -> tuple:
        """The polytope's rows in ``solver.LPProblem``'s form: (a, b), the
        ic rows negated into '<= -0.0' rows, then the eq rows '= 1'.
        Read-only."""
        return (_frozen(np.vstack([-self.ic, self.eq])),
                _frozen(np.concatenate([np.full(self.ic.shape[0], -0.0),
                                        np.ones(self.n_profiles)])))

    @cached_property
    def vertex_tables(self) -> np.ndarray:
        """Read-only (n_vertices, n_profiles, n_actions) array of the
        extreme points, in enumerate_vertices's order; no dimension cap."""
        return _frozen(_vertex_tables(self))


# build inputs -> BicPolytope, oldest first; every change holds the lock, and
# no game is referenced
_POLYTOPES = OrderedDict()
_CACHE_LOCK = threading.Lock()


def _memoized(cache: OrderedDict, key, build):
    """cache[key], made by build() on a miss.  At most POLYTOPE_CACHE_SIZE
    entries are kept, the oldest dropped first; every change holds the lock."""
    value = cache.get(key)      # one lookup, atomic on its own
    if value is None:
        value = build()
        with _CACHE_LOCK:
            # a concurrent build of the same key may have landed first
            value = cache.setdefault(key, value)
            while len(cache) > POLYTOPE_CACHE_SIZE:
                cache.popitem(last=False)
    return value


def _polytope_key(g: FiniteGame, j: int) -> tuple:
    """What principal j's polytope build reads."""
    return (j, g.type_spaces, len(g.action_spaces[j]), g.prior.tobytes(),
            tuple(u[j].tobytes() for u in g.agent_utils))


def build_bic_polytope(g: FiniteGame, principal: int) -> BicPolytope:
    """One principal's polytope: the simplex and truth-telling rows.

    Rows are ordered by (agent, true type, reported type) in declaration
    order; types with zero prior mass contribute no rows and are recorded as
    warnings instead.  The result is cached by exactly what the build reads
    (principal, type labels, |A_j|, prior, every agent's payoffs for j), so
    games that agree on those share one read-only polytope, and its vertex
    tables, whatever their principal payoffs.  At most POLYTOPE_CACHE_SIZE
    polytopes are kept, the oldest dropped first; no game is kept alive.
    """
    return _memoized(_POLYTOPES, _polytope_key(g, principal),
                     lambda: _build_polytope(g, principal))


def _build_polytope(g: FiniteGame, j: int) -> BicPolytope:
    """Principal j's polytope, built anew."""
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
        # the last agent's type varies fastest, so agent i's type moves x by stride
        stride = math.prod(len(ts) for ts in g.type_spaces[i + 1:])
        for t, t_lab in enumerate(g.type_spaces[i]):
            idxs, w = conditional_weights(g, i, t)
            if w is None:
                warnings.append(f"agent {i} type {t_lab!r} has zero prior mass; no IC rows")
                continue
            for r, r_lab in enumerate(g.type_spaces[i]):
                if r == t:
                    continue
                row = np.zeros(n_vars)
                for x, wt in zip(idxs.tolist(), w):
                    x_rep = x + (r - t) * stride
                    coeff = wt * u[i][j][x]  # utility at the true profile
                    row[x * n_a:(x + 1) * n_a] += coeff
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


@dataclass
class MembershipResult:
    ok: bool
    worst_value: float
    worst_label: tuple = None  # (agent, true type, reported type) or None

    def __bool__(self):
        return self.ok


def is_individually_bic(g: FiniteGame, mech: DirectMechanism,
                        tol: float = MEMBERSHIP_TOL) -> MembershipResult:
    """Check truthful reporting against single-principal deviations.

    The mechanism is assumed to be a valid DirectMechanism; only the IC rows
    are evaluated.  Returns the worst row value and its (agent, true type,
    reported type) label; ok iff every row is >= -tol.
    """
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

    Payoffs are separable across principals, so a joint misreport gains the
    sum of what each of its reports gains with its principal: minus that
    principal's IC row (agent, true type, report) at its table, and 0 for
    the truthful report.  A type's joint gain is thus the sum, in principal
    order, of its worst IC row per principal, negated (0 if none is
    negative); ok iff no positive-mass type gains more than tol.  The worst
    label is (agent, true type, report vector) of the first type with the
    largest joint gain; on float ties the vector names, per principal, the
    first best report in type order.

    ``mechanisms`` is a list, or a dict keyed 0..J-1, holding principal k's
    DirectMechanism at k; any other profile raises ValueError.
    """
    _require_profile(g, mechanisms, direct=True)
    gains = [(-build_bic_polytope(g, k).ic_values(mechanisms[k])).tolist()
             for k in range(g.num_principals)]
    labels = build_bic_polytope(g, 0).ic_labels
    worst_gain, worst_label, s = -np.inf, None, 0
    while s < len(labels):   # the rows of one (agent, true type), by report
        i, t_lab, _ = labels[s]
        types = g.type_spaces[i]
        t, e = types.index(t_lab), s + len(types) - 1
        gain, reports = 0.0, []
        for per_row in gains:
            by_report = per_row[s:s + t] + [0.0] + per_row[s + t:e]
            best = max(by_report)
            gain += best
            reports.append(types[by_report.index(best)])
        if gain > worst_gain:
            worst_gain = gain
            worst_label = (i, t_lab, tuple(reports))
        s = e
    if worst_label is None:
        return MembershipResult(ok=True, worst_value=0.0)
    return MembershipResult(ok=bool(worst_gain <= tol), worst_value=float(worst_gain),
                            worst_label=worst_label)


# -- vertex enumeration -----------------------------------------------------


def _clean_point(poly: BicPolytope, z: np.ndarray) -> np.ndarray:
    """Points (..., n_vars) with coordinates within SNAP_TOL of 0 or 1
    snapped, negatives clipped and every profile's row rescaled to sum 1."""
    z = z.copy()
    z[np.abs(z) <= SNAP_TOL] = 0.0
    z[np.abs(z - 1.0) <= SNAP_TOL] = 1.0
    z = z.reshape(z.shape[:-1] + (poly.n_profiles, poly.n_actions))
    z = np.clip(z, 0.0, None)
    z /= z.sum(axis=-1, keepdims=True)
    return z.reshape(z.shape[:-2] + (poly.n_vars,))


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


def _sorted_distinct(z: np.ndarray) -> np.ndarray:
    """Rows of z in lexicographic order of their 12-digit rounding, without
    each row within 10*SNAP_TOL in max-norm of the last row kept."""
    z = z[np.lexsort(np.round(z, 12).T[::-1])]
    keep = np.ones(z.shape[0], dtype=bool)
    close = np.abs(np.diff(z, axis=0)).max(axis=1) <= 10 * SNAP_TOL
    if close.any():
        # rows up to the first close pair are all kept; from there on each
        # row is compared with the last row kept
        last = int(np.argmax(close))
        for i in range(last + 1, z.shape[0]):
            if np.max(np.abs(z[i] - z[last])) <= 10 * SNAP_TOL:
                keep[i] = False
            else:
                last = i
    return z[keep]


def _vertex_tables(poly: BicPolytope) -> np.ndarray:
    """The extreme points of ``poly`` as (n_vertices, n_profiles, n_actions)
    tables, computed anew; see enumerate_vertices for the method."""
    n = poly.n_vars
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
    z = _clean_point(poly, verts)
    if poly.ic.shape[0]:
        z = z[(z @ poly.ic.T).min(axis=1) >= -MEMBERSHIP_TOL]
    return _sorted_distinct(z).reshape(-1, poly.n_profiles, poly.n_actions)


def enumerate_vertices(g: FiniteGame, principal: int,
                       dim_cap: int = DEFAULT_DIM_CAP):
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

    Returns a list of DirectMechanism sorted lexicographically by table
    (rounded to 12 digits), after snapping coordinates within 1e-9 of 0 or 1
    and dropping points with an IC row below -1e-9; a point within 1e-8 in
    max-norm of the last point kept is dropped too.  The tables are
    enumerated once per cached polytope (``BicPolytope.vertex_tables``), so
    games sharing a polytope share the work; each call returns fresh
    DirectMechanisms with read-only copies of them.
    Raises DimensionTooLarge when the variable count exceeds dim_cap,
    before any enumeration.
    """
    poly = build_bic_polytope(g, principal)
    if poly.n_vars > dim_cap:
        raise DimensionTooLarge(
            f"polytope has {poly.n_vars} variables, cap is {dim_cap}"
        )
    return [DirectMechanism(owner=poly.owner, p=p) for p in poly.vertex_tables]


def sample_bic(g: FiniteGame, principal: int, seed: int,
               poly: BicPolytope = None) -> DirectMechanism:
    """A feasible mechanism: maximize a seeded random objective over the polytope.

    Deterministic in (game, principal, seed).  Up to DEFAULT_DIM_CAP
    variables the result is the first vertex table maximizing it, which pays
    off when the polytope is sampled again or enumerated anyway (one sample
    on a fresh 12-variable polytope pays for the enumeration); past the cap
    it is an LP optimum, cleaned to exact row sums.  A ``poly`` that is not
    principal's, with the game's profile and action counts, raises ValueError.
    """
    from .solver import _optimize_over  # local import to avoid a cycle

    if poly is None:
        poly = build_bic_polytope(g, principal)
    elif (poly.owner, poly.n_profiles, poly.n_actions) != (
            principal, g.num_profiles, len(g.action_spaces[principal])):
        raise ValueError(f"poly is not principal {principal}'s polytope for this game")
    c = np.random.default_rng(seed).standard_normal(poly.n_vars)
    if poly.n_vars > DEFAULT_DIM_CAP:
        return _optimize_over(poly, "max", "sampling", c=c)[1]
    tables = poly.vertex_tables
    best = np.argmax(tables.reshape(len(tables), -1) @ c)
    return DirectMechanism(owner=poly.owner, p=tables[best])


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
