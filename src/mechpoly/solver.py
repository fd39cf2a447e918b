"""Value computations over incentive-compatibility polytopes.

The quantity of interest for each principal j is the guarantee landscape of
the expected-payoff functional E_x[v_j] as mechanisms range over the
per-principal polytopes:

* ``best_response``: the linear maximum against a fixed opponent profile.
* ``maxmin``: the largest payoff j can secure (exact via the vertex products
  of the opponents' polytopes, since the functional is multilinear).
* ``minmax``: the lowest payoff the opponents can force on j.  Exact for two
  principals (saddle-point LP); for more principals a certified grid lower
  bound or an alternating-descent upper bound.
* ``punishment_profile``: the opponents' side of a minmax computation.
* ``robust_pbe_membership``: payoff-floor test for a candidate profile.
* ``search_minmax_maxmin_gap``: seeded search for instances where the two
  values separate (possible only with three or more principals, because the
  product of polytopes is not convex as a set of joint distributions).

Every routine is deterministic given its inputs and seed.
"""

import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import linprog

from .bic import (
    DEFAULT_DIM_CAP,
    MEMBERSHIP_TOL,
    BicPolytope,
    DimensionTooLarge,
    _clean_point,
    build_bic_polytope,
    enumerate_vertices,
    is_profile_bic,
    sample_bic,
)
from .game import (
    DirectMechanism,
    FiniteGame,
    _contract_except,
    expected_principal_payoff,
    game_hash,
    mechanism_to_dict,
)

PRIMAL_RESIDUAL_TOL = 1e-9
DUALITY_GAP_TOL = 1e-7
VALUE_TOL = 1e-6

DEFAULT_GRID_DIM_CAP = 4
DEFAULT_RESTARTS = 32
GRID_POINT_CAP = 2_000_000

EXACT_KINDS = ("exact-lp", "vertex-product-exact")
GRID_KIND = "grid-certified-lower-bound"
UPPER_KIND = "alternating-upper-bound"


class NumericalFailure(RuntimeError):
    """LP residual or duality gap out of tolerance after refinement."""


class ModeUnsupported(ValueError):
    """Requested solve mode does not apply to this game."""


@dataclass
class LPProblem:
    """One linear program: optimize c @ x subject to rows 'a[i] rel b[i]'.

    relations entries are '<=', '>=' or '='; bounds is one (lo, hi) pair per
    variable with None for unbounded; sense is 'max' or 'min'.
    """

    c: np.ndarray
    a: np.ndarray
    relations: list
    b: np.ndarray
    bounds: list
    sense: str = "max"


@dataclass
class LPResult:
    status: str          # 'optimal' | 'infeasible' | 'unbounded'
    value: float = None
    x: np.ndarray = None


def solve_lp(prob: LPProblem) -> LPResult:
    """Solve an LP deterministically; checks residuals on optimal solves.

    Infeasible and unbounded are distinct outcomes, not errors.  Solves that
    fail the primal residual (1e-9) or duality gap (1e-7) check are refined
    once with tighter solver tolerances; NumericalFailure only after that.
    """
    c = np.asarray(prob.c, dtype=float)
    a = np.asarray(prob.a, dtype=float) if len(prob.a) else np.zeros((0, c.size))
    b = np.asarray(prob.b, dtype=float) if len(prob.b) else np.zeros(0)
    sign = -1.0 if prob.sense == "max" else 1.0
    rows_ub, rhs_ub, rows_eq, rhs_eq = [], [], [], []
    for row, rel, rhs in zip(a, prob.relations, b):
        if rel == "<=":
            rows_ub.append(row)
            rhs_ub.append(rhs)
        elif rel == ">=":
            rows_ub.append(-row)
            rhs_ub.append(-rhs)
        elif rel == "=":
            rows_eq.append(row)
            rhs_eq.append(rhs)
        else:
            raise ValueError(f"unknown relation {rel!r}")
    a_ub = np.array(rows_ub) if rows_ub else None
    b_ub = np.array(rhs_ub) if rows_ub else None
    a_eq = np.array(rows_eq) if rows_eq else None
    b_eq = np.array(rhs_eq) if rows_eq else None
    tight = {"primal_feasibility_tolerance": 1e-10,
             "dual_feasibility_tolerance": 1e-10}
    failure = "LP did not run"
    for options in (None, tight):
        res = linprog(sign * c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=prob.bounds, method="highs", options=options)
        if res.status == 2:
            return LPResult(status="infeasible")
        if res.status == 3:
            return LPResult(status="unbounded")
        if res.status != 0:
            failure = f"LP solver status {res.status}: {res.message}"
            continue
        x = np.asarray(res.x)
        # primal feasibility residual
        resid = 0.0
        if a_ub is not None:
            resid = max(resid, float(np.max(a_ub @ x - b_ub, initial=0.0)))
        if a_eq is not None:
            resid = max(resid, float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0)))
        for xi, (lo, hi) in zip(x, prob.bounds):
            if lo is not None:
                resid = max(resid, lo - xi)
            if hi is not None:
                resid = max(resid, xi - hi)
        if resid > PRIMAL_RESIDUAL_TOL:
            failure = f"primal residual {resid:.3e} exceeds {PRIMAL_RESIDUAL_TOL}"
            continue
        # duality gap from the reported marginals
        dual_obj = 0.0
        if a_ub is not None and res.ineqlin is not None:
            dual_obj += float(np.dot(res.ineqlin.marginals, b_ub))
        if a_eq is not None and res.eqlin is not None:
            dual_obj += float(np.dot(res.eqlin.marginals, b_eq))
        if res.lower is not None:
            lo = np.array([v if v is not None else 0.0 for v, _ in prob.bounds])
            dual_obj += float(np.dot(res.lower.marginals, lo))
        if res.upper is not None:
            hi = np.array([v if v is not None else 0.0 for _, v in prob.bounds])
            dual_obj += float(np.dot(res.upper.marginals, hi))
        gap = abs(float(res.fun) - dual_obj)
        if gap > DUALITY_GAP_TOL * max(1.0, abs(float(res.fun))):
            failure = f"duality gap {gap:.3e} exceeds {DUALITY_GAP_TOL}"
            continue
        return LPResult(status="optimal", value=float(sign * res.fun), x=x)
    raise NumericalFailure(failure)


@dataclass
class ValueCertificate:
    """A computed value plus what it certifies.

    kind is one of 'exact-lp', 'vertex-product-exact',
    'grid-certified-lower-bound', 'alternating-upper-bound', 'alternating'.
    gap_bound is 0 for exact kinds, the certified slack for grid kind, and -1
    (unknown) for the alternating kinds.  witness is the mechanism (maxmin) or
    opponent profile dict (minmax) attaining the value.
    """

    kind: str
    value: float
    witness: object
    gap_bound: float
    info: dict = field(default_factory=dict)


def _optimize_over(poly: BicPolytope, sense: str, what: str, c=None, cuts=None):
    """Optimize over one principal's polytope; returns (value, DirectMechanism).

    With ``c`` the objective is c . p.  With ``cuts`` (one coefficient row per
    linear piece) it is the epigraph variable t over [p, t]: rows
    cuts . p - t >= 0 for 'max' (t is the worst piece), <= 0 for 'min' (the
    best).  The witness is cleaned to exact row sums.
    """
    a, rel, b = poly.lp_system()
    n = poly.n_vars
    bounds = [(0.0, None)] * n
    if cuts is not None:
        cuts = np.array(cuts)
        a = np.vstack([np.hstack([a, np.zeros((a.shape[0], 1))]),
                       np.hstack([cuts, np.full((cuts.shape[0], 1), -1.0)])])
        rel = rel + [">=" if sense == "max" else "<="] * cuts.shape[0]
        b = np.concatenate([b, np.zeros(cuts.shape[0])])
        c = np.zeros(n + 1)
        c[-1] = 1.0
        bounds = bounds + [(None, None)]
    res = solve_lp(LPProblem(c=c, a=a, relations=rel, b=b, bounds=bounds, sense=sense))
    if res.status != "optimal":
        raise NumericalFailure(f"{what} LP {res.status}")
    z = _clean_point(poly, res.x[:n])
    return float(res.value), DirectMechanism(
        owner=poly.owner, p=z.reshape(poly.n_profiles, poly.n_actions))


def best_response(g: FiniteGame, principal: int, mechanisms,
                  poly: BicPolytope = None):
    """Best expected payoff of one principal against fixed opponents.

    ``mechanisms`` must provide a DirectMechanism for every other principal
    (dict or list; the entry for ``principal`` is ignored).  Returns
    (value, DirectMechanism witness); the witness is feasible at 1e-9.
    """
    if poly is None:
        poly = build_bic_polytope(g, principal)
    coeff = _contract_except(g, principal, principal, mechanisms).reshape(-1)
    return _optimize_over(poly, "max", "best-response", c=coeff)


# -- maxmin ------------------------------------------------------------------


def _vertex_products(g: FiniteGame, principal: int, dim_cap: int, product_cap: int = 50000):
    """Vertices of each opponent polytope and the iterator of their products."""
    opponents = [k for k in range(g.num_principals) if k != principal]
    vertex_sets = {}
    count = 1
    for k in opponents:
        vs = enumerate_vertices(g, k, dim_cap=dim_cap)
        vertex_sets[k] = vs
        count *= max(len(vs), 1)
    if count > product_cap:
        raise DimensionTooLarge(
            f"{count} opponent vertex products exceed the cap {product_cap}"
        )
    return opponents, vertex_sets, count


def maxmin(g: FiniteGame, principal: int, mode: str = "auto",
           dim_cap: int = DEFAULT_DIM_CAP, restarts: int = DEFAULT_RESTARTS,
           seed: int = 0) -> ValueCertificate:
    """Largest payoff principal j can guarantee against any opponent profile.

    The guarantee functional is multilinear in the opponents' tables, so its
    minimum over the product of polytopes is attained at a product of
    vertices; exact mode maximizes, by LP, the worst case over all vertex
    products.  mode='alternating' is a seeded heuristic for instances whose
    opponent polytopes are too large to enumerate (exact for two principals,
    uncertified otherwise; gap_bound is the -1 unknown sentinel).
    """
    j = principal
    poly = build_bic_polytope(g, j)
    if mode in ("auto", "exact"):
        try:
            opponents, vertex_sets, count = _vertex_products(g, j, dim_cap)
        except DimensionTooLarge:
            if mode == "exact":
                raise
            return _maxmin_alternating(g, j, poly, restarts, seed)
        # maximize t subject to t <= c_w . p for every vertex product w
        cuts = [_contract_except(g, j, j, dict(zip(opponents, combo))).reshape(-1)
                for combo in itertools.product(*[vertex_sets[k] for k in opponents])]
        value, witness = _optimize_over(poly, "max", "maxmin", cuts=cuts)
        return ValueCertificate(
            kind="vertex-product-exact",
            value=value,
            witness=witness,
            gap_bound=0.0,
            info={"n_vertex_products": count},
        )
    if mode == "alternating":
        return _maxmin_alternating(g, j, poly, restarts, seed)
    raise ModeUnsupported(f"maxmin mode {mode!r}")


def _sample_bic_rng(g: FiniteGame, principal: int, rng: np.random.Generator,
                    poly: BicPolytope = None) -> DirectMechanism:
    return sample_bic(g, principal, int(rng.integers(0, 2**31 - 1)), poly=poly)


def _inner_min(g: FiniteGame, principal: int, pj: DirectMechanism,
               polys: dict, rng: np.random.Generator, sweeps: int = 20):
    """Minimize E[v_j] over the opponents for a fixed own mechanism.

    Single LP (exact) with one opponent; block-coordinate descent otherwise.
    Returns (value, dict of opponent mechanisms).
    """
    j = principal
    opponents = [k for k in range(g.num_principals) if k != j]
    profile = {j: pj}
    for k in opponents:
        profile[k] = _sample_bic_rng(g, k, rng, poly=polys[k])
    best = None
    for _ in range(sweeps):
        improved = False
        for k in opponents:
            c = _contract_except(g, j, k, profile).reshape(-1)
            value, profile[k] = _optimize_over(polys[k], "min", "inner-min", c=c)
            if best is None or value < best - 1e-12:
                best = value
                improved = True
        if not improved or len(opponents) == 1:
            break
    return best, {k: profile[k] for k in opponents}


def _maxmin_alternating(g: FiniteGame, principal: int, poly: BicPolytope,
                        restarts: int, seed: int) -> ValueCertificate:
    j = principal
    polys = {k: build_bic_polytope(g, k) for k in range(g.num_principals) if k != j}
    best_val, best_witness = -np.inf, None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        pj = _sample_bic_rng(g, j, rng, poly=poly)
        cuts = []  # own-table coefficients against each opponent profile seen
        for _ in range(25):
            val, opp = _inner_min(g, j, pj, polys, rng)
            cuts.append(_contract_except(g, j, j, opp).reshape(-1))
            if val > best_val + 1e-12:
                best_val, best_witness = val, pj
            # ascend: maximize the worst case over the opponent profiles seen
            _, new_pj = _optimize_over(poly, "max", "maxmin ascent", cuts=cuts)
            if np.max(np.abs(new_pj.p - pj.p)) <= 1e-10:
                break
            pj = new_pj
    return ValueCertificate(
        kind="alternating",
        value=float(best_val),
        witness=best_witness,
        gap_bound=-1.0,
        info={"restarts": restarts, "seed": seed,
              "note": "inner minimization exact for two principals only"},
    )


# -- minmax ------------------------------------------------------------------


def minmax(g: FiniteGame, principal: int, mode: str = "auto",
           step: float = 0.01, grid_dim_cap: int = DEFAULT_GRID_DIM_CAP,
           dim_cap: int = DEFAULT_DIM_CAP, restarts: int = DEFAULT_RESTARTS,
           seed: int = 0) -> ValueCertificate:
    """Lowest payoff the opponents can force on principal j.

    Modes:
        exact2: two principals only; solves the saddle point as one LP by
            dualizing the inner best-response program.  gap_bound 0.
        grid: certified lower bound.  Evaluates the best-response value on a
            step-delta grid over the free coordinates of the opponents'
            tables and subtracts a Lipschitz slack; the witness is the best
            feasible grid point (an upper bound when re-evaluated).
        alternating: seeded descent on the opponents' side; the value is the
            exact best-response value at the final profile, hence an upper
            bound.  gap_bound -1 (unknown).
        auto: exact2 when J = 2, otherwise grid.
    """
    j = principal
    if mode == "auto":
        mode = "exact2" if g.num_principals == 2 else "grid"
    if mode == "exact2":
        return _minmax_exact2(g, j)
    if mode == "grid":
        return _minmax_grid(g, j, step, grid_dim_cap, dim_cap)
    if mode == "alternating":
        return _minmax_alternating(g, j, restarts, seed)
    raise ModeUnsupported(f"minmax mode {mode!r}")


def _minmax_exact2(g: FiniteGame, principal: int) -> ValueCertificate:
    if g.num_principals != 2:
        raise ModeUnsupported("exact2 needs exactly two principals")
    j = principal
    k = 1 - j
    poly_j = build_bic_polytope(g, j)
    poly_k = build_bic_polytope(g, k)
    n_k, n_x, m_j = poly_k.n_vars, g.num_profiles, poly_j.ic.shape[0]
    # bilinear form: E[v_j] = p_j^T Q q with Q[(x,a_j),(x,a_k)] = F(x) v_j(x,a)
    v = g.principal_utils[j]  # (x, A_1, A_2)
    q_full = block_diag(*[g.prior[x] * (v[x] if j == 0 else v[x].T) for x in range(n_x)])
    # variables: [q (n_k), y (n_x), z (m_j)]; rows: dual feasibility of the
    # inner max, E_j^T y - G_j^T z - Q q >= 0, then q in the opponent's polytope
    a_k, rel_k, b_k = poly_k.lp_system()
    a = np.vstack([np.hstack([-q_full, poly_j.eq.T, -poly_j.ic.T]),
                   np.hstack([a_k, np.zeros((a_k.shape[0], n_x + m_j))])])
    rel = [">="] * poly_j.n_vars + rel_k
    b = np.concatenate([np.zeros(poly_j.n_vars), b_k])
    obj = np.concatenate([np.zeros(n_k), np.ones(n_x), np.zeros(m_j)])
    bounds = [(0.0, None)] * n_k + [(None, None)] * n_x + [(0.0, None)] * m_j
    res = solve_lp(LPProblem(c=obj, a=a, relations=rel, b=b, bounds=bounds, sense="min"))
    if res.status != "optimal":
        raise NumericalFailure(f"saddle LP {res.status}")
    z = _clean_point(poly_k, res.x[:n_k])
    witness = {k: DirectMechanism(owner=k, p=z.reshape(poly_k.n_profiles, poly_k.n_actions))}
    return ValueCertificate(
        kind="exact-lp",
        value=float(res.value),
        witness=witness,
        gap_bound=0.0,
    )


def _free_rows(g: FiniteGame, principal: int):
    """The (opponent, profile) rows whose simplex coordinates the grid sweeps."""
    return [(k, x) for k in range(g.num_principals) if k != principal
            for x in range(g.num_profiles)]


def _simplex_grid(n_actions: int, step: float) -> np.ndarray:
    """Grid over a simplex: free coords are multiples of step, sum <= 1."""
    ticks = int(np.floor(1.0 / step + 1e-12))
    vals = np.arange(ticks + 1) * step
    pts = []
    for combo in itertools.product(vals, repeat=n_actions - 1):
        s = float(sum(combo))
        if s <= 1.0 + 1e-12:
            pts.append(list(combo) + [max(1.0 - s, 0.0)])
    return np.array(pts) if pts else np.ones((1, 1))


def _minmax_grid(g: FiniteGame, principal: int, step: float,
                 grid_dim_cap: int, dim_cap: int) -> ValueCertificate:
    j = principal
    if not (0.0 < step <= 0.5):
        raise ValueError("grid step must lie in (0, 0.5]")
    rows = _free_rows(g, j)
    free_dim = sum(len(g.action_spaces[k]) - 1 for k, _ in rows)
    if free_dim > grid_dim_cap:
        raise DimensionTooLarge(
            f"opponent free dimension {free_dim} exceeds grid cap {grid_dim_cap}"
        )
    grids = [_simplex_grid(len(g.action_spaces[k]), step) for k, _ in rows]
    n_points = 1
    for gr in grids:
        n_points *= gr.shape[0]
    if n_points > GRID_POINT_CAP:
        raise DimensionTooLarge(
            f"{n_points} grid points exceed the cap {GRID_POINT_CAP}; use a coarser step"
        )
    poly_j = build_bic_polytope(g, j)
    opp = sorted({k for k, _ in rows})
    polys = {k: build_bic_polytope(g, k) for k in opp}

    # Lipschitz slack: the coarse blocks-times-free-dimension bound can
    # undershoot by a factor of two when rounding a point onto the grid moves
    # probability mass in both directions, so pair it with the per-coordinate
    # bound and keep whichever is larger.
    vmax_x = np.max(np.abs(g.principal_utils[j].reshape(g.num_profiles, -1)), axis=1)
    vbar = float(np.dot(g.prior, vmax_x))
    n_blocks = len(opp)
    slack_coarse = vbar * n_blocks * step * free_dim
    slack_per_coord = 2.0 * step * vbar * sum(len(g.action_spaces[k]) - 1 for k in opp)
    slack = max(slack_coarse, slack_per_coord)

    use_vertices = poly_j.n_vars <= dim_cap
    if use_vertices:
        verts = enumerate_vertices(g, j, dim_cap=dim_cap, poly=poly_j)
        vmat = np.array([m.p for m in verts])  # (n_vert, n_x, A_j)
        # W[m, x, c]: payoff of vertex m at profile x against opponent cell c
        axes = [len(g.action_spaces[k]) for k in opp]
        n_cells = int(np.prod(axes)) if axes else 1
        w = np.zeros((len(verts), g.num_profiles, n_cells))
        vf = g.principal_utils[j] * g.prior.reshape((-1,) + (1,) * g.num_principals)
        for x in range(g.num_profiles):
            t = vf[x]  # (A_1, ..., A_J)
            t = np.moveaxis(t, j, 0)  # (A_j, opp cells...) in opponent index order
            t = t.reshape(t.shape[0], -1)
            w[:, x, :] = vmat[:, x, :] @ t

    best_overall = np.inf
    best_feasible = np.inf
    best_feasible_profile = None
    chunk = 4096
    combo_iter = itertools.product(*[range(gr.shape[0]) for gr in grids])
    while True:
        batch = list(itertools.islice(combo_iter, chunk))
        if not batch:
            break
        idx = np.array(batch)  # (B, n_rows)
        bsz = idx.shape[0]
        # assemble opponent tables for the batch
        tables = {k: np.zeros((bsz, g.num_profiles, len(g.action_spaces[k]))) for k in opp}
        for r, (k, x) in enumerate(rows):
            tables[k][:, x, :] = grids[r][idx[:, r]]
        if use_vertices:
            vals = np.zeros((bsz, w.shape[0]))
            for x in range(g.num_profiles):
                q = np.ones((bsz, 1))
                for k in opp:
                    q = (q[:, :, None] * tables[k][:, x, None, :]).reshape(bsz, -1)
                vals += q @ w[:, x, :].T
            gvals = vals.max(axis=1)
        else:
            gvals = np.array([
                best_response(g, j, {k: tables[k][bi] for k in opp}, poly=poly_j)[0]
                for bi in range(bsz)])
        best_overall = min(best_overall, float(gvals.min()))
        # feasibility of the opponents' tables (their own IC rows)
        feas = np.ones(bsz, dtype=bool)
        for k in opp:
            if polys[k].ic.shape[0]:
                icv = tables[k].reshape(bsz, -1) @ polys[k].ic.T
                feas &= icv.min(axis=1) >= -MEMBERSHIP_TOL
        if feas.any():
            sub = np.nonzero(feas)[0]
            bi = sub[int(np.argmin(gvals[sub]))]
            if gvals[bi] < best_feasible:
                best_feasible = float(gvals[bi])
                best_feasible_profile = {
                    k: DirectMechanism(owner=k, p=tables[k][bi].copy()) for k in opp
                }
    return ValueCertificate(
        kind=GRID_KIND,
        value=best_overall - slack,
        witness=best_feasible_profile,
        gap_bound=slack,
        info={
            "grid_min": best_overall,
            "witness_value": best_feasible if best_feasible_profile else None,
            "step": step,
            "n_points": n_points,
            "free_dim": free_dim,
        },
    )


def _minmax_alternating(g: FiniteGame, principal: int, restarts: int,
                        seed: int) -> ValueCertificate:
    """Descent on the opponents' side; each block step is an epigraph LP
    against the active set of best responses collected so far."""
    j = principal
    poly_j = build_bic_polytope(g, j)
    opponents = [k for k in range(g.num_principals) if k != j]
    polys = {k: build_bic_polytope(g, k) for k in opponents}
    best_val, best_profile = np.inf, None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        profile = {k: _sample_bic_rng(g, k, rng, poly=polys[k]) for k in opponents}
        cuts = []  # own-mechanism tables active in the epigraph
        for _ in range(25):
            val, br = best_response(g, j, profile, poly=poly_j)
            if val < best_val - 1e-12:
                best_val = float(val)
                best_profile = dict(profile)
            if not any(np.max(np.abs(br.p - s.p)) <= 1e-12 for s in cuts):
                cuts.append(br)
            previous = {k: profile[k].p for k in opponents}
            for k in opponents:
                # min t s.t. t >= payoff(cut, block k free)
                cut_rows = [_contract_except(g, j, k, {**profile, j: s}).reshape(-1)
                            for s in cuts]
                _, profile[k] = _optimize_over(polys[k], "min", "descent", cuts=cut_rows)
            moved = max(float(np.max(np.abs(profile[k].p - previous[k])))
                        for k in opponents)
            if moved <= 1e-12:
                break
    return ValueCertificate(
        kind=UPPER_KIND,
        value=float(best_val),
        witness=best_profile,
        gap_bound=-1.0,
        info={"restarts": restarts, "seed": seed},
    )


def punishment_profile(g: FiniteGame, principal: int, mode: str = "auto",
                       step: float = 0.01, grid_dim_cap: int = DEFAULT_GRID_DIM_CAP,
                       dim_cap: int = DEFAULT_DIM_CAP, restarts: int = DEFAULT_RESTARTS,
                       seed: int = 0):
    """Opponent profile from a minmax run, plus its exact best-response value.

    Returns (dict opponent -> DirectMechanism, value).  The value is the
    payoff the target secures against the witness, so it upper-bounds the
    true minmax for grid and alternating modes and matches it (within LP
    tolerance) for exact2.  Every component is individually incentive
    compatible at 1e-9.
    """
    cert = minmax(g, principal, mode=mode, step=step, grid_dim_cap=grid_dim_cap,
                  dim_cap=dim_cap, restarts=restarts, seed=seed)
    if cert.witness is None:
        raise NumericalFailure(
            "minmax run produced no feasible witness; try a finer grid step"
        )
    value, _ = best_response(g, principal, cert.witness)
    return cert.witness, float(value)


# -- membership ---------------------------------------------------------------


@dataclass
class MembershipVerdict:
    verdict: str                 # member | non-member | consistent-with-membership | not-established
    per_principal: list
    bic_ok: bool
    bic_worst: tuple = None

    @property
    def ok(self) -> bool:
        return self.verdict in ("member", "consistent-with-membership")


def robust_pbe_membership(g: FiniteGame, mechanisms, certs,
                          tol: float = VALUE_TOL) -> MembershipVerdict:
    """Test a direct-mechanism profile against each principal's payoff floor.

    ``certs`` holds one ValueCertificate per principal (their minmax values).
    A principal's test reports ``ok`` when their expected payoff is at least
    cert.value - tol.  Exact kinds decide both ways.  A grid certificate's
    value is a lower bound on the floor, so failing it is definitive, while a
    pass is definitive only at or above info["witness_value"] - tol (a
    feasible upper bound); in between nothing is established.  An
    alternating-upper-bound value is an exact best-response value against a
    feasible opponent profile, so it bounds the floor from above: passing it
    is definitive, and a failure against it is 'not-established'.  The
    alternating (maxmin) kind is a heuristic: a pass against it reports
    'consistent-with-membership' and a failure 'not-established'.
    """
    bic = is_profile_bic(g, mechanisms)
    per = []
    outcomes = set()   # 'pass' | 'fail' (definitive), 'hedged', 'open'
    for j in range(g.num_principals):
        cert = certs[j]
        payoff = expected_principal_payoff(g, j, mechanisms)
        slack = payoff - cert.value
        ok = slack >= -tol
        if cert.kind in EXACT_KINDS or (cert.kind == GRID_KIND and not ok):
            outcomes.add("pass" if ok else "fail")
        elif cert.kind == GRID_KIND:
            upper = cert.info.get("witness_value")
            outcomes.add("pass" if upper is not None and payoff >= upper - tol else "open")
        elif cert.kind == UPPER_KIND:
            outcomes.add("pass" if ok else "open")
        else:
            outcomes.add("hedged" if ok else "open")
        per.append({
            "principal": g.principal_ids[j],
            "payoff": float(payoff),
            "bound": float(cert.value),
            "slack": float(slack),
            "ok": bool(ok),
            "kind": cert.kind,
        })
    if not bic.ok or "fail" in outcomes:
        verdict = "non-member"
    elif "open" in outcomes:
        verdict = "not-established"
    else:
        verdict = "consistent-with-membership" if "hedged" in outcomes else "member"
    return MembershipVerdict(verdict=verdict, per_principal=per,
                             bic_ok=bool(bic.ok), bic_worst=bic.worst_label)


# -- gap search ----------------------------------------------------------------


@dataclass
class GapFamily:
    """Randomized family for the separation search: singleton types, flat
    agent payoffs, uniform principal tables; the first candidate is a
    structural seed when the family has three or more principals and binary
    actions (coordination reward for principals 2 and 3, a matching clash
    between principals 1 and 2 otherwise)."""

    num_principals: int = 3
    num_agents: int = 3
    num_actions: int = 2

    def candidate(self, index: int, rng: np.random.Generator) -> FiniteGame:
        shape = (1,) + (self.num_actions,) * self.num_principals
        tables = [rng.uniform(0.0, 1.0, size=shape) for _ in range(self.num_principals)]
        if index == 0 and self.num_principals >= 3 and self.num_actions == 2:
            v1 = np.zeros(shape)
            for aprof in itertools.product(range(2), repeat=self.num_principals):
                a1, a2, a3 = aprof[0], aprof[1], aprof[2]
                if a2 == a3:
                    v1[(0,) + aprof] = 1.0
                else:
                    v1[(0,) + aprof] = 1.0 if a1 == a2 else 0.0
            tables[0] = v1
        types = tuple(("x",) for _ in range(self.num_agents))
        actions = tuple(
            tuple(f"a{j + 1}{n}" for n in range(self.num_actions))
            for j in range(self.num_principals)
        )
        zeros = tuple(
            tuple(np.zeros((1, self.num_actions)) for _ in range(self.num_principals))
            for _ in range(self.num_agents)
        )
        return FiniteGame(
            type_spaces=types,
            action_spaces=actions,
            prior=np.array([1.0]),
            agent_utils=zeros,
            principal_utils=tuple(tables),
        )


@dataclass
class GapSearchResult:
    game: FiniteGame
    candidate_index: int
    principal: int
    maxmin_cert: ValueCertificate
    minmax_cert: ValueCertificate
    certified_gap: float
    evaluated: int
    seed: int
    step: float

    @property
    def found(self) -> bool:
        return self.certified_gap > 0.0


def search_minmax_maxmin_gap(family: GapFamily = None, budget: int = 500,
                             step: float = 0.01, seed: int = 42,
                             principal: int = 0) -> GapSearchResult:
    """Search a seeded family for a certified minmax/maxmin separation.

    For each candidate the exact maxmin (vertex-product LP) and the
    grid-certified minmax lower bound are computed for ``principal``; the
    result is the candidate maximizing (certified lower bound - maxmin).  A
    best gap <= 0 is reported as found=False; nothing is asserted a priori.
    """
    if family is None:
        family = GapFamily()
    if budget < 1:
        raise ValueError("budget must be at least 1")
    rng = np.random.default_rng(seed)
    best = None
    for idx in range(budget):
        g = family.candidate(idx, rng)
        mm = maxmin(g, principal, mode="exact")
        lo = minmax(g, principal, mode="grid", step=step)
        gap = float(lo.value - mm.value)
        if best is None or gap > best[0]:
            best = (gap, idx, g, mm, lo)
    gap, idx, g, mm, lo = best
    return GapSearchResult(
        game=g,
        candidate_index=idx,
        principal=principal,
        maxmin_cert=mm,
        minmax_cert=lo,
        certified_gap=gap,
        evaluated=budget,
        seed=seed,
        step=step,
    )


# -- reports -------------------------------------------------------------------


def witness_to_jsonable(g: FiniteGame, witness):
    if witness is None:
        return None
    if isinstance(witness, DirectMechanism):
        return mechanism_to_dict(g, witness)
    if isinstance(witness, dict):
        return {
            g.principal_ids[k]: mechanism_to_dict(g, mech)
            for k, mech in sorted(witness.items())
        }
    raise TypeError(f"cannot serialize witness of type {type(witness)!r}")


def solve_report(g: FiniteGame, principal: int, cert: ValueCertificate,
                 seed: int, runtime_ms: float) -> dict:
    """The report payload: hash, principal, certificate fields, seed, runtime."""
    return {
        "game_hash": game_hash(g),
        "principal": g.principal_ids[principal],
        "kind": cert.kind,
        "value": float(cert.value),
        "gap_bound": float(cert.gap_bound),
        "witness": witness_to_jsonable(g, cert.witness),
        "seed": int(seed),
        "runtime_ms": float(runtime_ms),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


class Stopwatch:
    """Milliseconds since construction; keeps report plumbing tidy."""

    def __init__(self):
        self.t0 = time.perf_counter()

    def ms(self) -> float:
        return (time.perf_counter() - self.t0) * 1000.0
