"""Value computations over incentive-compatibility polytopes.

The quantity of interest for each principal j is the guarantee landscape of
the expected-payoff functional E_x[v_j] as mechanisms range over the
per-principal polytopes:

* ``best_response``: the linear maximum against a fixed opponent profile.
* ``maxmin``: the largest payoff j can secure.  Exact for two principals
  (the saddle-point LP that minmax shares); for more principals exact via
  the vertex products of the opponents' polytopes, since the functional is
  multilinear, or past their caps a certified lower bound from the same
  saddle LP with the opponents allowed to correlate.
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

import functools
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ._highs import TIGHT, linprog
from .bic import (
    DEFAULT_DIM_CAP,
    MEMBERSHIP_TOL,
    BicPolytope,
    DimensionTooLarge,
    _clean_point,
    _memoized,
    _polytope_key,
    build_bic_polytope,
    enumerate_vertices,
    is_profile_bic,
    sample_bic,
)
from .game import (
    DirectMechanism,
    FiniteGame,
    _contract_except,
    _frozen,
    contract_opponents,
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
GRID_CHUNK = 4096        # grid points per batch of the minmax sweep
VERTEX_PRODUCT_CAP = 50_000   # opponent vertex products an exact maxmin may cut with

EXACT_KINDS = ("exact-lp", "vertex-product-exact")
GRID_KIND = "grid-certified-lower-bound"


class NumericalFailure(RuntimeError):
    """LP residual or duality gap out of tolerance after refinement."""


class ModeUnsupported(ValueError):
    """Requested solve mode does not apply to this game."""


@dataclass
class LPProblem:
    """One linear program in the form ``solve_lp`` hands HiGHS: optimize
    c @ x subject to rows a @ x <= b, of which the last n_eq are a @ x = b.

    Every variable is nonnegative, or free where the boolean mask ``free``
    is set (None: none is); sense is 'max' or 'min'.  ``accept``, if set, is
    called as accept(value, row duals) on each optimal attempt and returns
    a failure message, or None to accept it.
    """

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    n_eq: int = 0
    free: np.ndarray = None
    sense: str = "max"
    accept: object = None

    @property
    def relations(self) -> list:
        """Each row's relation: '<=', then '=' for the last n_eq rows."""
        return ["<="] * (len(self.b) - self.n_eq) + ["="] * self.n_eq


@dataclass
class LPResult:
    status: str          # 'optimal' | 'infeasible' | 'unbounded'
    value: float = None
    x: np.ndarray = None
    row_dual: np.ndarray = None     # HiGHS's row multipliers, in row order


def solve_lp(prob: LPProblem) -> LPResult:
    """Solve an LP deterministically; checks residuals on optimal solves.

    HiGHS gets the rows as row_lo <= a @ x <= b, row_lo -inf on the '<='
    rows and b on the '=' rows, and the columns as lo <= x <= inf, lo 0 or
    -inf where ``free`` is set.  Infeasible and unbounded are distinct
    outcomes, not errors.  Solves that fail the primal residual (1e-9) or
    duality gap (1e-7) check, or the problem's accept, are refined once with
    tighter solver tolerances; NumericalFailure only after that.  ValueError
    on shapes that do not match, an n_eq outside the rows, a free mask that
    is not one bool per variable, data that is not finite, and a sense other
    than 'max' or 'min'.
    """
    c = np.asarray(prob.c, dtype=float)
    a = np.asarray(prob.a, dtype=float) if len(prob.a) else np.zeros((0, c.size))
    b = np.asarray(prob.b, dtype=float)
    if not (c.ndim == b.ndim == 1 and a.shape == (b.size, c.size)):
        raise ValueError(f"LP shapes do not match: c {c.shape}, a {a.shape}, b {b.shape}")
    if not (isinstance(prob.n_eq, (int, np.integer)) and 0 <= prob.n_eq <= b.size):
        raise ValueError(f"n_eq {prob.n_eq!r} is not a row count between 0 and {b.size}")
    n_ub = b.size - prob.n_eq
    free = np.zeros(c.size, dtype=bool) if prob.free is None else np.asarray(prob.free)
    if free.dtype != bool or free.shape != c.shape:
        raise ValueError(f"free must be a boolean mask of the {c.size} variables")
    if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("LP data must be finite")
    if prob.sense not in ("max", "min"):
        raise ValueError(f"sense {prob.sense!r} is not 'max' or 'min'")
    sign = -1.0 if prob.sense == "max" else 1.0
    row_lo = np.concatenate([np.full(n_ub, -np.inf), b[n_ub:]])
    lo = np.where(free, -np.inf, 0.0)
    failure = "LP did not run"
    for options in (None, TIGHT):
        res = linprog(sign * c, a, row_lo, b, lo, np.full(c.size, np.inf), options=options)
        if res.status == 2:
            return LPResult(status="infeasible")
        if res.status == 3:
            return LPResult(status="unbounded")
        if res.status != 0:
            failure = f"LP solver status {res.status}: {res.message}"
            continue
        x = res.x
        # primal feasibility residual over rows and bounds; a nan fails it
        ax = a @ x
        resid = float(np.max(np.concatenate([ax - b, row_lo - ax, lo - x]), initial=0.0))
        if not resid <= PRIMAL_RESIDUAL_TOL:
            failure = f"primal residual {resid:.3e} exceeds {PRIMAL_RESIDUAL_TOL}"
            continue
        # duality gap; every bound is 0 or none, so the column duals add nothing
        gap = abs(float(res.fun) - float(res.row_dual @ b))
        if gap > DUALITY_GAP_TOL * max(1.0, abs(float(res.fun))):
            failure = f"duality gap {gap:.3e} exceeds {DUALITY_GAP_TOL}"
            continue
        value = float(sign * res.fun) + 0.0     # + 0.0: an optimum of 0 is 0.0, never -0.0
        failure = prob.accept and prob.accept(value, res.row_dual)
        if failure:
            continue
        return LPResult(status="optimal", value=value, x=x, row_dual=res.row_dual)
    raise NumericalFailure(failure)


@dataclass
class ValueCertificate:
    """A computed value plus what it certifies.

    kind is one of 'exact-lp' (the two-principal saddle LP, for maxmin and
    minmax alike), 'vertex-product-exact' (maxmin with three or more
    principals), 'relaxation-lower-bound' (that maxmin past its caps, from
    the saddle LP with correlated opponents), 'grid-certified-lower-bound'
    and 'alternating-upper-bound' (minmax).  gap_bound is 0 for exact kinds,
    the certified slack for the grid kind, and -1 (unknown) for the
    relaxation and alternating kinds.  witness is the mechanism (maxmin) or
    opponent profile dict (minmax) attaining the value.  lower and upper are
    the bracket the producer proves on the principal's payoff floor (the
    minmax): (value, value) for 'exact-lp', (value, inf) for the other
    maxmin kinds, (value, the witness's best-response value) for the grid
    and (-inf, value) for the alternating kind.  A certificate made without
    them brackets nothing.
    """

    kind: str
    value: float
    witness: object
    gap_bound: float
    info: dict = field(default_factory=dict)
    lower: float = -math.inf
    upper: float = math.inf


def _optimize_over(poly: BicPolytope, sense: str, what: str, c=None, cuts=None):
    """Optimize over one principal's polytope; returns (value, DirectMechanism).

    With ``c`` the objective is c . p.  With ``cuts`` (one coefficient row per
    linear piece) it is the epigraph variable t over [p, t]: rows
    cuts . p - t >= 0 for 'max' (t is the worst piece), <= 0 for 'min' (the
    best).  The witness is cleaned to exact row sums.
    """
    rows, b = poly.lp_block
    if cuts is None:
        prob = LPProblem(np.asarray(c, dtype=float), rows, b, poly.n_profiles, sense=sense)
    else:
        # the cut rows, negated for 'max', go between the IC and simplex rows
        sign = -1.0 if sense == "max" else 1.0
        cuts = np.asarray(cuts, dtype=float)
        m, k = poly.ic.shape[0], cuts.shape[0]
        prob = LPProblem(
            np.append(np.zeros(poly.n_vars), 1.0),
            np.insert(np.hstack([rows, np.zeros((rows.shape[0], 1))]), m,
                      sign * np.hstack([cuts, np.full((k, 1), -1.0)]), axis=0),
            np.insert(b, m, np.full(k, 0.0 * sign)), poly.n_profiles,
            free=np.append(np.zeros(poly.n_vars, dtype=bool), True), sense=sense)
    return _solve_for_table(poly, prob, what)


def _solve_for_table(poly: BicPolytope, prob: LPProblem, what: str):
    """(value, DirectMechanism) of an LP whose first columns are a table of
    ``poly``, cleaned to exact row sums; NumericalFailure unless optimal."""
    res = solve_lp(prob)
    if res.status != "optimal":
        raise NumericalFailure(f"{what} LP {res.status}")
    z = _clean_point(poly, res.x[:poly.n_vars])
    return float(res.value), DirectMechanism(
        owner=poly.owner, p=z.reshape(poly.n_profiles, poly.n_actions))


def best_response(g: FiniteGame, principal: int, mechanisms):
    """Best expected payoff of one principal against fixed opponents.

    ``mechanisms`` holds principal k's DirectMechanism at each position k
    != ``principal`` (dict or list), else ValueError.  Returns (value,
    DirectMechanism witness); the witness is feasible at 1e-9.
    """
    coeff = contract_opponents(g, principal, mechanisms).reshape(-1)
    return _optimize_over(build_bic_polytope(g, principal), "max", "best-response", c=coeff)


# -- maxmin ------------------------------------------------------------------


def _vertex_product_cuts(g: FiniteGame, principal: int, dim_cap: int) -> np.ndarray:
    """Coefficient rows, shape (products, n_vars), of principal j's own table
    against every product of opponent vertices, in ``itertools.product``
    order over the opponents' vertex lists (principal order)."""
    opponents = [k for k in range(g.num_principals) if k != principal]
    stacks = {k: np.stack([m.p for m in enumerate_vertices(g, k, dim_cap=dim_cap)])
              for k in opponents}
    count = math.prod(len(stacks[k]) for k in opponents)
    if count > VERTEX_PRODUCT_CAP:
        raise DimensionTooLarge(
            f"{count} opponent vertex products exceed the cap {VERTEX_PRODUCT_CAP}"
        )
    return _contract_except(g, principal, principal, stacks).reshape(count, -1)


def maxmin(g: FiniteGame, principal: int, mode: str = "auto",
           dim_cap: int = DEFAULT_DIM_CAP) -> ValueCertificate:
    """Largest payoff principal j can guarantee against any opponent profile.

    With two principals, 'auto' and 'exact' solve the saddle point as one LP
    by dualizing the opponent's inner minimum (kind 'exact-lp'); this never
    enumerates vertices, so dim_cap does not apply, and minmax's exact2 reads
    its answer from the same memoised solve.  With
    more principals the guarantee functional is multilinear in the
    opponents' tables, so its minimum over the product of polytopes is
    attained at a product of vertices; exact mode maximizes, by LP, the worst
    case over all vertex products, and raises DimensionTooLarge when the
    opponents' polytopes exceed dim_cap or the products exceed the cap.
    There 'auto' solves the saddle LP with the opponents' product relaxed to
    one joint table (kind 'relaxation-lower-bound', gap_bound -1): its value
    is at most the maxmin, and its witness secures that value.
    """
    j = principal
    if mode not in ("auto", "exact"):
        raise ModeUnsupported(f"maxmin mode {mode!r}")
    if g.num_principals == 2:
        value, witness, _ = _saddle_point(g, j)
        return ValueCertificate(kind="exact-lp", value=value, witness=witness, gap_bound=0.0,
                                lower=value, upper=value)
    try:
        return _maxmin_vertex_products(g, j, dim_cap)
    except DimensionTooLarge:
        if mode == "exact":
            raise
    value, witness, _ = _saddle_lp(g, j)
    return ValueCertificate(kind="relaxation-lower-bound", value=value, witness=witness,
                            gap_bound=-1.0, lower=value)      # relaxation <= maxmin <= minmax


def _maxmin_vertex_products(g: FiniteGame, principal: int, dim_cap: int) -> ValueCertificate:
    """Exact maxmin for any number of principals: maximize t subject to
    t <= c_w . p for every opponent vertex product w.  Raises
    DimensionTooLarge above dim_cap or VERTEX_PRODUCT_CAP."""
    cuts = _vertex_product_cuts(g, principal, dim_cap)
    value, witness = _optimize_over(build_bic_polytope(g, principal), "max", "maxmin",
                                    cuts=cuts)
    return ValueCertificate(
        kind="vertex-product-exact",
        value=value,
        witness=witness,
        gap_bound=0.0,
        info={"n_vertex_products": len(cuts)},
        lower=value,      # maxmin <= minmax
    )


# -- minmax ------------------------------------------------------------------


def minmax(g: FiniteGame, principal: int, mode: str = "auto",
           step: float = 0.01, grid_dim_cap: int = DEFAULT_GRID_DIM_CAP,
           dim_cap: int = DEFAULT_DIM_CAP, restarts: int = DEFAULT_RESTARTS,
           seed: int = 0) -> ValueCertificate:
    """Lowest payoff the opponents can force on principal j.

    Modes:
        exact2: two principals only; maxmin's saddle LP (one solve, memoised
            for both), whose value is the minmax and whose duals give the
            witness, an optimal opponent table.  gap_bound 0.
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
        if g.num_principals != 2:
            raise ModeUnsupported("exact2 needs exactly two principals")
        value, _, punisher = _saddle_point(g, j)
        return ValueCertificate(kind="exact-lp", value=value, witness={punisher.owner: punisher},
                                gap_bound=0.0, lower=value, upper=value)
    if mode == "grid":
        return _minmax_grid(g, j, step, grid_dim_cap, dim_cap)
    if mode == "alternating":
        return _minmax_alternating(g, j, restarts, seed)
    raise ModeUnsupported(f"minmax mode {mode!r}")


_SADDLES = OrderedDict()    # what a two-principal saddle LP reads -> (value, p*, q*)


def _saddle_point(g: FiniteGame, principal: int):
    """``_saddle_lp`` of a two-principal game, memoised as polytopes are."""
    key = (principal, _polytope_key(g, 0), _polytope_key(g, 1),
           g.principal_utils[principal].tobytes())
    return _memoized(_SADDLES, key, lambda: _saddle_lp(g, principal))


def _saddle_lp(g: FiniteGame, principal: int):
    """j's maxmin as one LP (sequence-form LP of Koller, Megiddo & von
    Stengel); returns (value, j's DirectMechanism p*, punishment q*).

    Dualizing the opponents' min over one joint table w(x, a_-j) >= 0, whose
    marginals meet their IC rows (E simplex rows, G IC rows), gives columns
    [p, y (n_x), z], objective 1^T y and rows Q^T p - E^T y - G^T z >= 0,
    then j's polytope's rows.  With one opponent w is its table, the value
    exact and q* the first rows' multipliers (von Stengel 1996), accepted if
    IC at MEMBERSHIP_TOL with the Lagrangian bound sum_x max_a (c(q*) + G_j^T
    mu)[x, a] (mu: j's IC multipliers) within VALUE_TOL of the value.  With
    more, the opponents may correlate (Sherali & Adams's RLT, level 1): the
    value is a lower bound on the maxmin that p* secures, and q* is None.
    """
    j = principal
    inner = [k for k in range(g.num_principals) if k != j]
    poly_out = build_bic_polytope(g, j)
    n_out, n_x, m_out = poly_out.n_vars, g.num_profiles, poly_out.ic.shape[0]
    # the bilinear form's block rows run over the opponents' joint actions
    # in principal order: Q_in[(x,a_in),(x,a_j)] = F(x) v_j(x,a)
    v = g.principal_utils[j].transpose(0, *[1 + o for o in inner], 1 + j)
    v = v.reshape(n_x, -1, v.shape[-1])
    r, k = v.shape[1:]
    eq_in = np.repeat(np.eye(n_x), r, axis=1)
    # each opponent's IC rows act on its marginal of w
    sizes = [len(g.action_spaces[o]) for o in inner]
    joint = np.indices(sizes).reshape(len(inner), -1)   # a_o of each joint action
    ic_in = np.vstack([build_bic_polytope(g, o).ic.reshape(-1, n_x, n_o)[:, :, a_o]
                       .reshape(-1, n_x * r) for o, n_o, a_o in zip(inner, sizes, joint)])
    m_in = ic_in.shape[0]
    q_in = np.zeros((n_x * r, n_x * k))
    for x in range(n_x):
        q_in[x * r:(x + 1) * r, x * k:(x + 1) * k] = g.prior[x] * v[x]
    punisher = [None]

    def accept(value, row_dual):
        q = _clean_point(build_bic_polytope(g, inner[0]), -row_dual[:n_x * r])
        mu = np.clip(-row_dual[n_x * r:n_x * r + m_out], 0.0, None)
        bound = (_contract_except(g, j, j, {inner[0]: q.reshape(n_x, r)})
                 + (poly_out.ic.T @ mu).reshape(n_x, k)).max(axis=1).sum()
        worst, gap = np.min(ic_in @ q, initial=0.0), abs(float(bound) - value)
        if not (worst >= -MEMBERSHIP_TOL and gap <= VALUE_TOL):
            return f"saddle duals: punishment IC row {worst:.3e}, bound gap {gap:.3e}"
        punisher[0] = DirectMechanism(owner=inner[0], p=q.reshape(n_x, r))

    # the dual rows, negated into '<= 0' rows, over j's polytope's rows
    rows_out, b_out = poly_out.lp_block
    prob = LPProblem(
        np.concatenate([np.zeros(n_out), np.ones(n_x), np.zeros(m_in)]),
        np.vstack([np.hstack([-q_in, eq_in.T, ic_in.T]),
                   np.hstack([rows_out, np.zeros((rows_out.shape[0], n_x + m_in))])]),
        np.concatenate([np.full(n_x * r, -0.0), b_out]), poly_out.n_profiles,
        free=np.repeat([False, True, False], [n_out, n_x, m_in]),
        accept=accept if len(inner) == 1 else None)
    return _solve_for_table(poly_out, prob, "saddle") + (punisher[0],)


def _free_rows(g: FiniteGame, principal: int):
    """The (opponent, profile) rows whose simplex coordinates the grid sweeps."""
    return [(k, x) for k in range(g.num_principals) if k != principal
            for x in range(g.num_profiles)]


@functools.lru_cache(maxsize=32)
def _simplex_grid(n_actions: int, step: float) -> np.ndarray:
    """Grid over a simplex: free coords are multiples of step, sum <= 1.
    Rows run in lexicographic order of the free coordinates.  Memoised per
    (n_actions, step); the result is read-only."""
    ticks = int(np.floor(1.0 / step + 1e-12))
    vals = np.arange(ticks + 1) * step
    free = [c.reshape(-1) for c in np.meshgrid(*[vals] * (n_actions - 1), indexing="ij")]
    s = np.zeros(free[0].size if free else 1)
    for c in free:       # the filter and 1 - s depend on how s rounds: add in row order
        s = s + c
    keep = s <= 1.0 + 1e-12
    return _frozen(np.column_stack([c[keep] for c in free] + [np.maximum(1.0 - s[keep], 0.0)]))


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
    # one (A_k, points) grid per free row, so a batch's tables are gathered
    # with the batch axis last
    grids = [np.ascontiguousarray(_simplex_grid(len(g.action_spaces[k]), step).T)
             for k, _ in rows]
    sizes = [gr.shape[1] for gr in grids]
    n_points = math.prod(sizes)
    if n_points > GRID_POINT_CAP:
        raise DimensionTooLarge(
            f"{n_points} grid points exceed the cap {GRID_POINT_CAP}; use a coarser step"
        )
    opp = sorted({k for k, _ in rows})
    n_x = g.num_profiles

    # Lipschitz slack: the coarse blocks-times-free-dimension bound can
    # undershoot by a factor of two when rounding a point onto the grid moves
    # probability mass in both directions, so pair it with the per-coordinate
    # bound and keep whichever is larger.
    vmax_x = np.max(np.abs(g.principal_utils[j].reshape(n_x, -1)), axis=1)
    vbar = float(np.dot(g.prior, vmax_x))
    n_blocks = len(opp)
    slack_coarse = vbar * n_blocks * step * free_dim
    slack_per_coord = 2.0 * step * vbar * sum(len(g.action_spaces[k]) - 1 for k in opp)
    slack = max(slack_coarse, slack_per_coord)

    use_vertices = build_bic_polytope(g, j).n_vars <= dim_cap
    if use_vertices:
        vmat = np.array([m.p for m in enumerate_vertices(g, j, dim_cap=dim_cap)])
        # W[m, x, c]: payoff of vertex m at profile x against opponent cell c
        vf = g.principal_utils[j] * g.prior.reshape((-1,) + (1,) * g.num_principals)
        w = np.stack([vmat[:, x, :] @ np.moveaxis(vf[x], j, 0).reshape(vmat.shape[2], -1)
                      for x in range(n_x)], axis=1)
    ics = {k: build_bic_polytope(g, k).ic for k in opp}

    best_overall = np.inf
    best_feasible = np.inf
    best_feasible_profile = None
    for start in range(0, n_points, GRID_CHUNK):
        idx = np.unravel_index(np.arange(start, min(start + GRID_CHUNK, n_points)), sizes)
        bsz = idx[0].size
        # opponent tables (n_x, A_k, B) for the batch
        tables = {k: np.empty((n_x, len(g.action_spaces[k]), bsz)) for k in opp}
        for gr, i, (k, x) in zip(grids, idx, rows):
            tables[k][x] = gr.take(i, axis=1)
        if use_vertices:
            vals = np.zeros((len(vmat), bsz))
            for x in range(n_x):
                q = tables[opp[0]][x]       # (cells, B): the opponents' joint action
                for k in opp[1:]:
                    q = (q[:, None, :] * tables[k][x][None, :, :]).reshape(-1, bsz)
                vals += (np.ascontiguousarray(q.T) @ w[:, x, :].T).T
            gvals = vals.max(axis=0)
        else:
            gvals = np.array([
                best_response(g, j, {k: DirectMechanism(owner=k, p=tables[k][..., bi])
                                     for k in opp})[0]
                for bi in range(bsz)])
        best_overall = min(best_overall, float(gvals.min()))
        # the best feasible point (the opponents' own IC rows) of the batch
        feas = np.ones(bsz, dtype=bool)
        for k, ic in ics.items():
            if ic.shape[0]:
                feas &= (ic @ tables[k].reshape(-1, bsz)).min(axis=0) >= -MEMBERSHIP_TOL
        masked = np.where(feas, gvals, np.inf)
        bi = int(np.argmin(masked))
        if masked[bi] < best_feasible:
            best_feasible = float(masked[bi])
            best_feasible_profile = {
                k: DirectMechanism(owner=k, p=tables[k][..., bi]) for k in opp
            }
    value = best_overall - slack
    return ValueCertificate(
        kind=GRID_KIND,
        value=value,
        witness=best_feasible_profile,
        gap_bound=slack,
        info={
            "grid_min": best_overall,
            "witness_value": best_feasible if best_feasible_profile else None,
            "step": step,
            "n_points": n_points,
            "free_dim": free_dim,
        },
        # the witness is feasible, so its value (inf when there is none) bounds the floor
        lower=value, upper=best_feasible,
    )


def _minmax_alternating(g: FiniteGame, principal: int, restarts: int,
                        seed: int) -> ValueCertificate:
    """Descent on the opponents' side; each block step is an epigraph LP
    against the active set of best responses collected so far."""
    j = principal
    opponents = [k for k in range(g.num_principals) if k != j]
    best_val, best_profile = np.inf, None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        profile = {k: sample_bic(g, k, int(rng.integers(0, 2**31 - 1)))
                   for k in opponents}
        cuts = []  # own-mechanism tables active in the epigraph
        for _ in range(25):
            val, br = best_response(g, j, profile)
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
                _, profile[k] = _optimize_over(build_bic_polytope(g, k), "min", "descent",
                                               cuts=cut_rows)
            moved = max(float(np.max(np.abs(profile[k].p - previous[k])))
                        for k in opponents)
            if moved <= 1e-12:
                break
    return ValueCertificate(
        kind="alternating-upper-bound",
        value=float(best_val),
        witness=best_profile,
        gap_bound=-1.0,
        info={"restarts": restarts, "seed": seed},
        upper=float(best_val),      # attained against feasible opponents
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
    return cert.witness, _punished(g, principal, cert)


def _punished(g: FiniteGame, principal: int, cert: ValueCertificate) -> float:
    """Best-response value against a minmax witness; NumericalFailure if none."""
    if cert.witness is None:
        raise NumericalFailure("minmax run produced no feasible witness; try a finer grid step")
    return float(best_response(g, principal, cert.witness)[0])


# -- membership ---------------------------------------------------------------


@dataclass
class MembershipVerdict:
    verdict: str                 # member | non-member | not-established
    per_principal: list
    bic_ok: bool
    bic_worst: tuple = None

    @property
    def ok(self) -> bool:
        return self.verdict == "member"


def robust_pbe_membership(g: FiniteGame, mechanisms, certs,
                          tol: float = VALUE_TOL) -> MembershipVerdict:
    """Test a direct-mechanism profile against each principal's payoff floor.

    ``certs`` holds one ValueCertificate per principal.  A principal's test
    reports ``ok`` when their expected payoff is at least cert.value - tol.
    The verdict reads each certificate's bracket (cert.lower, cert.upper) on
    the floor, whatever its kind: a payoff below lower - tol fails, one at or
    above upper - tol passes, and one in between is open.  A failure or a
    profile that is not BIC gives 'non-member', else an open test
    'not-established'.  A misaligned profile raises as in is_profile_bic.
    """
    bic = is_profile_bic(g, mechanisms)
    per = []
    outcomes = set()   # 'pass' | 'fail' | 'open'
    for j in range(g.num_principals):
        cert = certs[j]
        payoff = expected_principal_payoff(g, j, mechanisms)
        if payoff - cert.lower < -tol:
            outcomes.add("fail")
        else:
            outcomes.add("pass" if payoff - cert.upper >= -tol else "open")
        slack = payoff - cert.value
        per.append({
            "principal": g.principal_ids[j],
            "payoff": float(payoff),
            "bound": float(cert.value),
            "slack": float(slack),
            "ok": bool(slack >= -tol),
            "kind": cert.kind,
        })
    if not bic.ok or "fail" in outcomes:
        verdict = "non-member"
    else:
        verdict = "not-established" if "open" in outcomes else "member"
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

    For each candidate the exact maxmin (mode 'exact') and the
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
