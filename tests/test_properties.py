"""Property tests: independent value computations bound each other the right
way, membership verdicts follow the bounds they use, vertex enumeration
returns the SVD oracle's tables, the array grid sweep returns the loop
oracle's certificates bit for bit, the batched continuation-equilibrium
kernel returns the per-candidate loops' blocks, combos and records,
joint truthfulness separates into the principals' IC rows, the direct HiGHS
call returns linprog's LP results bit for bit, the reused HiGHS instances
return a fresh instance's results bit for bit in any solve order, the
saddle LP's bilinear blocks are ``block_diag``'s, its two-principal LP and
solution are the two-principal oracle's bit for bit, the batched maxmin cut
rows are the per-product loop's, the two-principal saddle-LP maxmin is
the vertex-product maxmin and the exact2 minmax, with more principals the
correlated-opponent saddle LP is a lower bound on the vertex-product
maxmin (equal with one type profile), ``simulate`` makes the per-round
oracle's draws, and the closed-form separable fit is the per-profile
least-squares fit."""

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import continuation_oracle as oracle
import grid_oracle
import lp_oracle
import saddle_oracle
import separable_oracle
import simulate_oracle
from mechpoly import (
    DirectMechanism,
    GeneralMechanism,
    LPProblem,
    NumericalFailure,
    StrategyProfile,
    build_bic_polytope,
    build_deviator_reporting,
    build_type_and_dm_mechanism,
    check_continuation_equilibrium,
    check_equilibrium_notion,
    decompose_separable,
    enumerate_pure_continuation_equilibria,
    enumerate_vertices,
    expected_principal_payoff,
    is_individually_bic,
    is_profile_bic,
    maxmin,
    minmax,
    random_game,
    robust_pbe_membership,
    sample_bic,
    simulate,
    solve_lp,
    solver,
    standard_from_direct,
)
from mechpoly import _highs
from mechpoly.game import DIST_ATOL, SEPARABLE_ATOL, NotSeparable, _contract_except
from mechpoly.mechanisms import NOTIONS, _agent_optimal_blocks, _continuation_combos
from vertex_oracle import svd_enumerate_vertices

TOL = 1e-7
RANK = {"non-member": 0, "not-established": 1, "member": 2}


@st.composite
def two_principal_games(draw):
    """Random two-principal games with at most two type profiles and at most
    three actions each, so every grid certificate stays within its caps."""
    n_agents = draw(st.integers(1, 2))
    type_sizes = [draw(st.integers(1, 2))] + [1] * (n_agents - 1)
    action_sizes = [draw(st.integers(2, 3)), draw(st.integers(2, 3))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_game(rng, num_principals=2, num_agents=n_agents, type_sizes=type_sizes,
                       action_sizes=action_sizes, zero_agent_payoffs=draw(st.booleans()))


@settings(max_examples=100)
@given(g=two_principal_games(), j=st.integers(0, 1))
def test_grid_brackets_exact_value(g, j):
    grid = minmax(g, j, mode="grid", step=0.1)
    exact = minmax(g, j, mode="exact2").value
    assert grid.value <= exact + TOL
    assert grid.info["witness_value"] is not None
    assert exact <= grid.info["witness_value"] + TOL


@settings(max_examples=50)
@given(g=two_principal_games(), j=st.integers(0, 1), seed=st.integers(0, 1000))
def test_alternating_upper_bound_is_above_exact_value(g, j, seed):
    upper = minmax(g, j, mode="alternating", restarts=2, seed=seed)
    assert upper.kind == "alternating-upper-bound"
    assert upper.value >= minmax(g, j, mode="exact2").value - TOL


def _shifted(cert, d):
    """The certificate with every bound lowered by d: the same test as
    raising the payoff it is compared with by d."""
    info = dict(cert.info)
    if info.get("witness_value") is not None:
        info["witness_value"] -= d
    return dataclasses.replace(cert, value=cert.value - d, info=info)


@settings(max_examples=60)
@given(g=two_principal_games(),
       modes=st.lists(st.sampled_from(["exact2", "grid", "alternating"]), min_size=2, max_size=2),
       seeds=st.lists(st.integers(0, 2**20), min_size=2, max_size=2),
       j=st.integers(0, 1), d=st.floats(0.0, 1.0))
def test_membership_verdict_monotone_in_payoff(g, modes, seeds, j, d):
    profile = [sample_bic(g, k, seed=seeds[k]) for k in range(2)]
    certs = [minmax(g, k, mode=modes[k], step=0.1, restarts=2) for k in range(2)]
    before = robust_pbe_membership(g, profile, certs).verdict
    raised = list(certs)
    raised[j] = _shifted(certs[j], d)
    after = robust_pbe_membership(g, profile, raised).verdict
    assert RANK[after] >= RANK[before]


@settings(max_examples=60)
@given(g=two_principal_games(), seeds=st.lists(st.integers(0, 2**20), min_size=2, max_size=2),
       q=st.floats(0.0, 1.0))
def test_grid_verdicts_never_contradict_exact(g, seeds, q):
    # mix a sampled table with a second one so payoffs land near the floors
    profile = [sample_bic(g, k, seed=seeds[k]) for k in range(2)]
    other = sample_bic(g, 0, seed=seeds[0] + 1)
    profile[0] = dataclasses.replace(profile[0], p=q * profile[0].p + (1 - q) * other.p)
    grid = robust_pbe_membership(g, profile, [minmax(g, k, mode="grid", step=0.1)
                                              for k in range(2)]).verdict
    exact = robust_pbe_membership(g, profile, [minmax(g, k, mode="exact2")
                                               for k in range(2)]).verdict
    if grid in ("member", "non-member"):
        assert grid == exact


@settings(max_examples=60)
@given(g=two_principal_games(), seeds=st.lists(st.integers(0, 2**20), min_size=2, max_size=2),
       q=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
def test_upper_bound_verdicts_never_contradict_exact(g, seeds, q, seed):
    profile = [sample_bic(g, k, seed=seeds[k]) for k in range(2)]
    other = sample_bic(g, 0, seed=seeds[0] + 1)
    profile[0] = dataclasses.replace(profile[0], p=q * profile[0].p + (1 - q) * other.p)
    upper = robust_pbe_membership(g, profile, [
        minmax(g, k, mode="alternating", restarts=2, seed=seed) for k in range(2)]).verdict
    exact = robust_pbe_membership(g, profile, [minmax(g, k, mode="exact2")
                                               for k in range(2)]).verdict
    assert not (upper == "member" and exact == "non-member")


@st.composite
def grid_cases(draw):
    """A game with two or three principals, one agent with one or two types,
    one to three actions per principal and at most four free opponent
    coordinates; principal payoffs are sometimes the integers 0-2, so grid
    values at dyadic steps tie exactly.  Also a principal, a step and a
    chunk size that splits the sweep into at most 100 batches."""
    n_j = draw(st.integers(2, 3))
    n_types = draw(st.integers(1, 2))
    actions = [draw(st.integers(1, 3)) for _ in range(n_j)]
    j = draw(st.integers(0, n_j - 1))
    assume(n_types * sum(a - 1 for k, a in enumerate(actions) if k != j) <= 4)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_game(rng, num_principals=n_j, num_agents=1, type_sizes=[n_types],
                    action_sizes=actions, zero_agent_payoffs=draw(st.booleans()))
    if draw(st.booleans()):
        g = dataclasses.replace(g, principal_utils=tuple(np.floor(3 * v)
                                                         for v in g.principal_utils))
    step = draw(st.sampled_from([0.5, 0.3, 0.25, 0.1, 0.05]))
    n_points = math.prod(grid_oracle._simplex_grid(len(g.action_spaces[k]), step).shape[0]
                         for k, _ in solver._free_rows(g, j))
    chunk = max(draw(st.sampled_from([1, 2, 7, 4096])), -(-n_points // 100))
    return g, j, step, chunk


@settings(max_examples=150)
@given(case=grid_cases())
def test_grid_sweep_matches_loop_oracle(case):
    g, j, step, chunk = case
    with mock.patch.object(solver, "GRID_CHUNK", chunk):
        got = minmax(g, j, mode="grid", step=step)
    want = grid_oracle._minmax_grid(g, j, step, solver.DEFAULT_GRID_DIM_CAP,
                                    solver.DEFAULT_DIM_CAP, chunk=chunk)
    assert grid_oracle.certificate_bits(got) == grid_oracle.certificate_bits(want)


def test_grid_lp_fallback_matches_loop_oracle(mp2, screen1):
    # dim_cap=1 sends every grid point through best_response
    for g, step in ((mp2, 0.1), (screen1, 0.25)):
        for j in range(2):
            got = minmax(g, j, mode="grid", step=step, dim_cap=1)
            want = grid_oracle._minmax_grid(g, j, step, solver.DEFAULT_GRID_DIM_CAP, 1)
            assert grid_oracle.certificate_bits(got) == grid_oracle.certificate_bits(want)


@st.composite
def two_type_games(draw):
    """Random one- or two-principal games whose one or two agents have two
    types each, with two or three actions per principal: IC polytopes of at
    most 12 variables, degenerate when the agent payoffs are all zero."""
    n_agents = draw(st.integers(1, 2))
    n_principals = draw(st.integers(1, 2))
    action_sizes = [draw(st.integers(2, 3)) for _ in range(n_principals)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_game(rng, num_principals=n_principals, num_agents=n_agents,
                    type_sizes=[2] * n_agents, action_sizes=action_sizes,
                    zero_agent_payoffs=draw(st.booleans()))
    if n_agents == 2 and draw(st.booleans()):
        g = _zero_agents(g, 1)
    return g


def _zero_agents(g, n):
    """The game with the first n agents' payoffs set to zero.  Their IC rows
    are inserted first and are tight at every vertex, so later rows meet
    pairs whose common tight sets are large but not edges."""
    utils = tuple(tuple(np.zeros_like(u) for u in per) if i < n else per
                  for i, per in enumerate(g.agent_utils))
    return dataclasses.replace(g, agent_utils=utils)


def _same_tables(g, j, dim_cap=12):
    got = enumerate_vertices(g, j, dim_cap=dim_cap)
    want = svd_enumerate_vertices(g, j, dim_cap=dim_cap)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.owner == b.owner
        assert np.array_equal(a.p, b.p)


@settings(max_examples=50)
@given(g=two_type_games(), j=st.integers(0, 1))
def test_vertex_enumeration_matches_svd_oracle(g, j):
    _same_tables(g, j % g.num_principals)


def test_vertex_enumeration_matches_svd_oracle_16_variables():
    # eight profiles and two actions; the first four of the six IC rows
    # belong to agents with zero payoffs
    g = random_game(np.random.default_rng(0), num_principals=1, num_agents=3,
                    type_sizes=[2, 2, 2], action_sizes=[2])
    _same_tables(_zero_agents(g, 2), 0, dim_cap=16)


@st.composite
def mechanism_profiles(draw):
    """A game with two or three principals and one to three agents, at most
    four type profiles and 64 pure candidates per mechanism, and one random
    mechanism per principal plus one to three deviations each, some of them
    the on-path mechanism itself (which the notion check skips).  Mechanisms
    are free-form message games, menus of sampled BIC tables,
    deviator-reporting mechanisms (three agents only) or wrapped direct
    tables."""
    n_principals = draw(st.integers(2, 3))
    n_agents = draw(st.sampled_from([3, 1, 2] if n_principals == 2 else [1, 2]))
    type_sizes = [draw(st.integers(1, 2))] + [1] * (n_agents - 1)
    if n_agents == 2 and n_principals == 2:
        type_sizes[1] = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_game(rng, num_principals=n_principals, num_agents=n_agents,
                    type_sizes=type_sizes,
                    action_sizes=[draw(st.integers(2, 3)) for _ in range(n_principals)],
                    zero_agent_payoffs=draw(st.booleans()))
    if type_sizes[0] == 2 and draw(st.booleans()):
        prior = np.where(g.profiles[:, 0] == 1, 0.0, g.prior)   # a type without mass
        g = dataclasses.replace(g, prior=prior / prior.sum())
    kinds = ["message", "menu", "standard"] + (["reporting"] if n_agents == 3 else [])

    def mechanism(j, kinds):
        kind = draw(st.sampled_from(kinds))
        seeds = [int(s) for s in rng.integers(1 << 30, size=n_principals + 1)]
        if kind == "message":
            shape = ((draw(st.integers(1, 2)),) + tuple(draw(st.integers(1, 2))
                                                       for _ in range(n_agents)))
            n_a = len(g.action_spaces[j])
            outcome = rng.dirichlet(np.ones(n_a), size=int(np.prod(shape)))
            return GeneralMechanism(
                owner=j, principal_messages=tuple(f"d{m}" for m in range(shape[0])),
                agent_messages=tuple(tuple(f"s{m}" for m in range(n)) for n in shape[1:]),
                outcome=outcome.reshape(shape + (n_a,)))
        if kind == "menu":
            return build_type_and_dm_mechanism(
                g, j, [sample_bic(g, j, seed=s) for s in seeds[:draw(st.integers(1, 2))]])
        if kind == "reporting":
            return build_deviator_reporting(
                g, j, sample_bic(g, j, seed=seeds[-1]),
                {k: sample_bic(g, j, seed=seeds[k]) for k in range(n_principals) if k != j})
        return standard_from_direct(g, sample_bic(g, j, seed=seeds[0]))

    # with three agents the on-path profile is deviator reporting, as in a07
    mechs = [mechanism(j, ["reporting"] if n_agents == 3 else kinds)
             for j in range(n_principals)]
    devs = {j: [mechs[j] if draw(st.integers(0, 3)) == 0 else mechanism(j, kinds)
                for _ in range(draw(st.integers(1, 3)))]
            for j in range(n_principals)}
    return g, mechs, devs, rng


def _pure_profile(rng, g, mechs):
    pm = {j: np.eye(len(m.principal_messages))[rng.integers(len(m.principal_messages))]
          for j, m in enumerate(mechs)}
    am = {(i, j): np.eye(len(m.agent_messages[i]))[
        rng.integers(len(m.agent_messages[i]), size=len(g.type_spaces[i]))]
        for j, m in enumerate(mechs) for i in range(g.num_agents)}
    return StrategyProfile(principal_messages=pm, agent_messages=am)


def _mixed_profile(rng, g, mechs):
    pm = {j: rng.dirichlet(np.ones(len(m.principal_messages))) for j, m in enumerate(mechs)}
    am = {(i, j): rng.dirichlet(np.ones(len(m.agent_messages[i])), size=len(g.type_spaces[i]))
          for j, m in enumerate(mechs) for i in range(g.num_agents)}
    return StrategyProfile(principal_messages=pm, agent_messages=am)


def _same_verdict(got, want):
    assert (got.ok, got.witness) == (want.ok, want.witness)
    assert got.worst_gain.hex() == want.worst_gain.hex()


def _bits(records):
    return [{k: v.hex() if isinstance(v, float) else v for k, v in r.items()} for r in records]


@settings(max_examples=60)
@given(case=mechanism_profiles())
def test_continuation_kernel_matches_loop_oracle(case):
    g, mechs, devs, rng = case
    blocks = [_agent_optimal_blocks(g, mech, 1e-9) for mech in mechs]
    ok, _ = _continuation_combos(g, mechs, blocks, 1e-9)
    want_blocks, want_combos = oracle.continuation_combos(g, mechs)
    for (m0, maps, tables), want in zip(blocks, want_blocks):
        assert len(m0) == len(want)
        for s, (w_m0, w_maps, w_table) in enumerate(want):
            assert m0[s] == w_m0
            assert tuple(tuple(m[s].tolist()) for m in maps) == w_maps
            assert np.array_equal(tables[s, m0[s]], w_table)
    assert [tuple(c) for c in np.argwhere(ok).tolist()] == want_combos

    pure = enumerate_pure_continuation_equilibria(g, mechs)
    assert len(pure) == len(want_combos)
    for strat in pure[:4] + [_pure_profile(rng, g, mechs)]:
        _same_verdict(check_continuation_equilibrium(g, mechs, strat),
                      oracle.check_continuation_equilibrium(g, mechs, strat))
    mixed = _mixed_profile(rng, g, mechs)
    got = check_continuation_equilibrium(g, mechs, mixed)
    want = oracle.check_continuation_equilibrium(g, mechs, mixed)
    assert (got.ok, got.witness) == (want.ok, want.witness)
    assert abs(got.worst_gain - want.worst_gain) <= 1e-12

    strat = pure[0] if pure else _pure_profile(rng, g, mechs)
    induced = oracle.induce_profile(g, mechs, strat)
    eq_payoffs = [expected_principal_payoff(g, j, induced) for j in range(g.num_principals)]
    for notion in NOTIONS:
        verdict = check_equilibrium_notion(g, mechs, strat, devs, notion)
        checks, infeasible = oracle.notion_checks(g, mechs, eq_payoffs, devs, notion)
        assert _bits(verdict.checks) == _bits(checks)
        assert verdict.infeasible == infeasible


def _at_the_edges(rng, rows):
    """A copy of the distribution rows, each row as it is, scaled to sum to
    1 - 5e-10, or with one entry at -DIST_ATOL and its mass moved to another:
    rows that validation still accepts, with short or non-monotone
    cumulative totals."""
    rows = np.array(rows, dtype=float)
    for row in rows.reshape(-1, rows.shape[-1]):
        kind = rng.integers(3)
        if kind == 1:
            row *= 1 - 5e-10
        elif kind == 2 and len(row) > 1:
            a, b = rng.choice(len(row), size=2, replace=False)
            row[b] += row[a] + DIST_ATOL
            row[a] = -DIST_ATOL
    return rows


def _hex(obj):
    """obj with dicts as item lists, so order counts, and floats as hex."""
    if isinstance(obj, dict):
        return [(k, _hex(v)) for k, v in obj.items()]
    if isinstance(obj, list):
        return [_hex(v) for v in obj]
    return obj.hex() if isinstance(obj, float) else obj


@settings(max_examples=80)
@given(case=mechanism_profiles(), mixed=st.booleans(),
       rounds=st.sampled_from([1, 2, 37, 500]), seed=st.integers(0, 2**32 - 1))
def test_simulate_matches_per_round_oracle(case, mixed, rounds, seed):
    g, mechs, _, rng = case
    mechs = [dataclasses.replace(m, outcome=_at_the_edges(rng, m.outcome), standard=None)
             for m in mechs]
    strat = (_mixed_profile if mixed else _pure_profile)(rng, g, mechs)
    strat = StrategyProfile(
        principal_messages={j: _at_the_edges(rng, c) for j, c in strat.principal_messages.items()},
        agent_messages={key: _at_the_edges(rng, rows)
                        for key, rows in strat.agent_messages.items()})
    got = simulate(g, mechs, strat, seed=seed, rounds=rounds)
    want = simulate_oracle.simulate(g, mechs, strat, seed=seed, rounds=rounds)
    assert _hex(got) == _hex(want)

@st.composite
def separability_cases(draw):
    """A game with two or three principals and one or two agents of one to
    three types, the first agent's last type sometimes without prior mass,
    and a profile of sampled IC tables mixed with random tables at a drawn
    weight, so profiles fall on both sides of every tolerance."""
    n_j = draw(st.integers(2, 3))
    types = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 2)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_game(rng, num_principals=n_j, num_agents=len(types), type_sizes=types,
                    action_sizes=[draw(st.integers(1, 3)) for _ in range(n_j)])
    if types[0] > 1 and draw(st.booleans()):
        prior = np.where(g.profiles[:, 0] == types[0] - 1, 0.0, g.prior)
        g = dataclasses.replace(g, prior=prior / prior.sum())
    q = draw(st.floats(0.0, 1.0))
    profile = []
    for k in range(n_j):
        noise = rng.dirichlet(np.ones(len(g.action_spaces[k])), size=g.num_profiles)
        ic = sample_bic(g, k, seed=int(rng.integers(1 << 30))).p
        profile.append(DirectMechanism(owner=k, p=q * ic + (1 - q) * noise))
    return g, profile


@settings(max_examples=100)
@given(case=separability_cases(), tol=st.sampled_from([1e-9, 1e-6, 1e-3]))
def test_profile_bic_separates_by_principal(case, tol):
    # the best joint misreport of a type is the sum over principals of the
    # best single misreport to each, and is zero when no misreport gains
    g, profile = case
    joint = is_profile_bic(g, profile, tol=tol)
    gains = {}   # (agent, true type) -> summed best gain over principals
    for k, dm in enumerate(profile):
        poly = build_bic_polytope(g, k)
        best = {}
        for value, (i, t, _) in zip(poly.ic_values(dm), poly.ic_labels):
            best[(i, t)] = max(best.get((i, t), 0.0), -value)
        for key, gain in best.items():
            gains[key] = gains.get(key, 0.0) + gain
    assert abs(joint.worst_value - max(gains.values(), default=0.0)) <= 1e-12
    if joint.ok:
        assert all(is_individually_bic(g, dm, tol=tol).ok for dm in profile)
    if all(is_individually_bic(g, dm, tol=tol / (2 * len(profile))).ok for dm in profile):
        assert joint.ok


_BOUND_KINDS = ("nonneg", "free", "box", "upper")


def _bounds_and_point(rng, kinds):
    """Per-variable bounds of the drawn kinds and a point inside them."""
    bounds, x0 = [], []
    for kind in kinds:
        lo = float(np.round(rng.normal(), 2))
        width = float(rng.uniform(0.5, 3.0))
        bounds.append({"nonneg": (0.0, None), "free": (None, None),
                       "box": (lo, lo + width), "upper": (None, lo)}[kind])
        x0.append({"nonneg": width, "free": lo, "box": lo + width / 2, "upper": lo - width}[kind])
    return bounds, np.array(x0)


def _rhs_through(a, relations, x0, rng):
    """Right-hand sides that x0 satisfies: slack on inequality rows."""
    slack = rng.uniform(0.0, 1.0, size=len(relations))
    sign = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[r] for r in relations])
    return a @ x0 + sign * slack


@st.composite
def dense_lps(draw):
    """Random dense LPs mixing '<=', '>=' and '=' rows over free, bounded and
    upper-bounded variables, for either sense.  The data is sometimes small
    integers (degenerate vertices, tied optima) and has explicit zeros; the
    right-hand side goes through a point inside the bounds, or is random
    (often infeasible)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    integer = draw(st.booleans())
    a = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7)
    c = rng.normal(size=n)
    if integer:
        a, c = np.round(2 * a), np.round(2 * c)
    relations = [draw(st.sampled_from(["<=", ">=", "="])) for _ in range(m)]
    bounds, x0 = _bounds_and_point(rng, [draw(st.sampled_from(_BOUND_KINDS)) for _ in range(n)])
    b = _rhs_through(a, relations, x0, rng) if draw(st.booleans()) else rng.normal(size=m)
    return LPProblem(c=c, a=a, relations=relations, b=b, bounds=bounds,
                     sense=draw(st.sampled_from(["max", "min"])))


@st.composite
def infeasible_or_unbounded_lps(draw):
    """A feasible dense LP made infeasible (one row also required to exceed
    its own bound by 1) or unbounded (a nonnegative variable absent from
    every row, pushed up by the objective)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    a = np.round(2 * rng.normal(size=(m, n)))
    relations = [draw(st.sampled_from(["<=", ">=", "="])) for _ in range(m)]
    kinds = ["nonneg"] + [draw(st.sampled_from(_BOUND_KINDS)) for _ in range(n - 1)]
    bounds, x0 = _bounds_and_point(rng, kinds)
    sense = draw(st.sampled_from(["max", "min"]))
    c = np.round(2 * rng.normal(size=n))
    if draw(st.booleans()):
        a[:, 0] = 0.0
        c[0] = 1.0 if sense == "max" else -1.0
        b = _rhs_through(a, relations, x0, rng)
    else:
        b = _rhs_through(a, relations, x0, rng)
        r = draw(st.integers(0, m - 1))
        a = np.vstack([a, a[r]])
        b = np.append(b, b[r] + 1.0)
        relations = relations + [">="]
        relations[r] = "<="
    return LPProblem(c=c, a=a, relations=relations, b=b, bounds=bounds, sense=sense)


@st.composite
def game_lps(draw):
    """IC-polytope LPs from random games (``lp_system()``): a linear
    objective, or an epigraph over cut rows (the opponents' vertex products,
    as maxmin builds them, or random rows)."""
    n_j = draw(st.integers(2, 3))
    n_agents = draw(st.integers(1, 2))
    type_sizes = [draw(st.integers(1, 2))] + [1] * (n_agents - 1)
    actions = [draw(st.integers(2, 3)) for _ in range(n_j)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_game(rng, num_principals=n_j, num_agents=n_agents, type_sizes=type_sizes,
                    action_sizes=actions, zero_agent_payoffs=draw(st.booleans()))
    j = draw(st.integers(0, n_j - 1))
    poly = build_bic_polytope(g, j)
    a, rel, b = poly.lp_system()
    n = poly.n_vars
    sense = draw(st.sampled_from(["max", "min"]))
    shape = draw(st.sampled_from(["linear", "vertex cuts", "random cuts"]))
    if shape == "linear":
        return LPProblem(c=rng.normal(size=n), a=a, relations=rel, b=b,
                         bounds=[(0.0, None)] * n, sense=sense)
    cuts = (solver._vertex_product_cuts(g, j, solver.DEFAULT_DIM_CAP) if shape == "vertex cuts"
            else rng.normal(size=(draw(st.integers(1, 6)), n)))
    a = np.vstack([np.hstack([a, np.zeros((a.shape[0], 1))]),
                   np.hstack([cuts, np.full((cuts.shape[0], 1), -1.0)])])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    return LPProblem(c=c, a=a, relations=rel + [">=" if sense == "max" else "<="] * len(cuts),
                     b=np.concatenate([b, np.zeros(len(cuts))]),
                     bounds=[(0.0, None)] * n + [(None, None)], sense=sense)


def _lp_outcome(solve, prob):
    try:
        res = solve(prob)
    except NumericalFailure:
        return ("numerical failure",)
    if res.status != "optimal":
        return (res.status, res.value, res.x)
    return (res.status, float(res.value).hex(), res.x.dtype, res.x.shape, res.x.tobytes())


@settings(max_examples=300)
@given(prob=st.one_of(dense_lps(), infeasible_or_unbounded_lps(), game_lps()))
def test_solve_lp_matches_linprog_oracle(prob):
    # the direct HiGHS call gives linprog's status, value bits and solution bytes
    assert _lp_outcome(solve_lp, prob) == _lp_outcome(lp_oracle.solve_lp, prob)


class _Stop(Exception):
    """Carries the arguments of a call that a test stopped."""


def _stop(*args, **kwargs):
    raise _Stop(*args)


def _linprog_args(prob):
    """The (c, a, row_lo, row_hi, lo, hi) that solve_lp passes to linprog."""
    with mock.patch.object(solver, "linprog", _stop):
        try:
            solve_lp(prob)
        except _Stop as stop:
            return stop.args
    raise AssertionError("solve_lp did not call linprog")


# passModel rejects a matrix entry above HiGHS's large_matrix_value (1e15)
_REJECTED = (np.ones(2), np.array([[1e20, 1.0]]), np.array([1.0]), np.array([2.0]),
             np.zeros(2), np.full(2, np.inf))


@settings(max_examples=60)
@given(probs=st.lists(st.one_of(dense_lps(), infeasible_or_unbounded_lps(), game_lps()),
                      min_size=1, max_size=8),
       data=st.data())
def test_reused_highs_instances_match_fresh_ones(probs, data):
    # every attempt through this thread's reused instances, in a drawn order
    # of options and LPs with one rejected model among them, is bit for bit
    # the attempt on a fresh instance
    assert _highs.linprog(*_REJECTED).message == "(HiGHS Status 2: Model error)"
    attempts = [(args, options) for args in [_linprog_args(p) for p in probs] + [_REJECTED]
                for options in (_highs.BASE, _highs.TIGHT)]
    for args, options in data.draw(st.permutations(attempts)):
        assert (lp_oracle.attempt_bits(_highs.linprog(*args, options=options))
                == lp_oracle.attempt_bits(lp_oracle.fresh_linprog(*args, options=options)))


@st.composite
def saddle_games(draw):
    """Two-principal games of one to four type profiles and one to three
    actions per principal."""
    type_sizes = draw(st.one_of(st.tuples(st.integers(1, 4)),
                                st.tuples(st.integers(1, 2), st.integers(1, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_game(rng, num_principals=2, num_agents=len(type_sizes),
                       type_sizes=list(type_sizes),
                       action_sizes=[draw(st.integers(1, 3)) for _ in range(2)])


@st.composite
def saddle_cases(draw):
    """(game, principal, sense): a ``saddle_games()`` game with either sense,
    or a three-principal game of the same sizes with sense 'max'."""
    if draw(st.booleans()):
        return draw(saddle_games()), draw(st.integers(0, 1)), draw(st.sampled_from(["min", "max"]))
    type_sizes = draw(st.one_of(st.tuples(st.integers(1, 4)),
                                st.tuples(st.integers(1, 2), st.integers(1, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_game(rng, num_principals=3, num_agents=len(type_sizes),
                    type_sizes=list(type_sizes),
                    action_sizes=[draw(st.integers(1, 3)) for _ in range(3)])
    return g, draw(st.integers(0, 2)), "max"


def _saddle_problem(module, g, j, sense):
    """The LPProblem that ``module._saddle_lp`` hands to solve_lp."""
    with mock.patch.object(module, "solve_lp", _stop):
        try:
            module._saddle_lp(g, j, sense)
        except _Stop as stop:
            return stop.args[0]
    raise AssertionError("the saddle LP did not call solve_lp")


@settings(max_examples=60)
@given(case=saddle_cases())
def test_saddle_lp_blocks_match_block_diag(case):
    g, j, sense = case
    prob = _saddle_problem(solver, g, j, sense)
    outer = j if sense == "max" else 1 - j
    inner = [k for k in range(g.num_principals) if k != outer]
    v = g.principal_utils[j]

    def cell(x, a_in, a_out):
        actions = {**dict(zip(inner, a_in)), outer: a_out}
        return v[(x,) + tuple(actions[k] for k in range(g.num_principals))]

    # per profile, rows run over the inner side's joint actions in product order
    q_in = block_diag(*[
        g.prior[x] * np.array([[cell(x, a_in, a_out)
                                for a_out in range(len(g.action_spaces[outer]))]
                               for a_in in itertools.product(
                                   *[range(len(g.action_spaces[k])) for k in inner])])
        for x in range(g.num_profiles)])
    flip = 1.0 if sense == "min" else -1.0
    got = prob.a[:q_in.shape[0], :q_in.shape[1]]
    assert got.dtype == q_in.dtype and got.tobytes() == (-flip * q_in).tobytes()


def _problem_bits(prob):
    arrays = [np.asarray(arr) for arr in (prob.c, prob.a, prob.b)]
    return ([(arr.dtype, arr.shape, arr.tobytes()) for arr in arrays],
            prob.relations, prob.bounds, prob.sense)


def _saddle_outcome(saddle_lp, g, j, sense):
    try:
        value, witness = saddle_lp(g, j, sense)
    except NumericalFailure as exc:
        return ("numerical failure", str(exc))
    return value.hex(), witness.owner, witness.p.shape, witness.p.tobytes()


@settings(max_examples=100)
@given(g=saddle_games(), j=st.integers(0, 1), sense=st.sampled_from(["min", "max"]))
def test_saddle_lp_matches_two_principal_oracle(g, j, sense):
    # with one inner principal the joint table is its table: the same LP
    # bytes, value bits and witness bytes as the two-principal oracle
    assert (_problem_bits(_saddle_problem(solver, g, j, sense))
            == _problem_bits(_saddle_problem(saddle_oracle, g, j, sense)))
    assert (_saddle_outcome(solver._saddle_lp, g, j, sense)
            == _saddle_outcome(saddle_oracle._saddle_lp, g, j, sense))


@st.composite
def many_principal_games(draw):
    """(game, principal): three or four principals with binary actions, and
    agent types [1], [2] or [2, 1]."""
    type_sizes = draw(st.sampled_from([[1], [2], [2, 1]]))
    n_principals = draw(st.integers(3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_game(rng, num_principals=n_principals, num_agents=len(type_sizes),
                    type_sizes=type_sizes, action_sizes=[2] * n_principals)
    return g, draw(st.integers(0, n_principals - 1))


@settings(max_examples=40)
@given(case=many_principal_games())
def test_correlated_saddle_lp_bounds_vertex_product_maxmin(case):
    # letting the opponents correlate can only lower the guarantee, and with
    # one type profile the worst joint table is a pure, hence product, profile
    g, j = case
    value, witness = solver._saddle_lp(g, j, "max")
    exact = solver._maxmin_vertex_products(g, j, solver.DEFAULT_DIM_CAP).value
    upper = minmax(g, j, mode="alternating", restarts=2).value
    assert value <= exact + 1e-9
    assert exact <= upper + 1e-9
    if g.num_profiles == 1:
        assert abs(value - exact) <= 1e-9
    assert is_individually_bic(g, witness, tol=1e-9).ok
    # the witness secures the value against every opponent vertex product
    cuts = solver._vertex_product_cuts(g, j, solver.DEFAULT_DIM_CAP)
    assert np.min(cuts @ witness.p.ravel()) >= value - 1e-9


def _loop_vertex_product_cuts(g, j):
    """One contraction per opponent vertex product, in itertools.product order."""
    opponents = [k for k in range(g.num_principals) if k != j]
    vertex_sets = [enumerate_vertices(g, k) for k in opponents]
    return np.array([_contract_except(g, j, j, dict(zip(opponents, combo))).reshape(-1)
                     for combo in itertools.product(*vertex_sets)])


@settings(max_examples=60)
@given(case=grid_cases())
def test_vertex_product_cuts_match_loop_oracle(case):
    g, j, _, _ = case
    got = solver._vertex_product_cuts(g, j, solver.DEFAULT_DIM_CAP)
    want = _loop_vertex_product_cuts(g, j)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=60)
@given(g=st.one_of(two_principal_games(),
                   two_type_games().filter(lambda g: g.num_principals == 2)),
       j=st.integers(0, 1))
def test_saddle_maxmin_matches_vertex_products_and_exact2(g, j):
    cert = maxmin(g, j, mode="exact")
    assert cert.kind == "exact-lp" and cert.info == {}
    vp = solver._maxmin_vertex_products(g, j, solver.DEFAULT_DIM_CAP)
    assert abs(cert.value - vp.value) <= 1e-9
    assert abs(cert.value - minmax(g, j, mode="exact2").value) <= 1e-9
    assert is_individually_bic(g, cert.witness, tol=1e-9).ok
    # the witness secures its value against every opponent vertex
    cuts = solver._vertex_product_cuts(g, j, solver.DEFAULT_DIM_CAP)
    assert np.min(cuts @ cert.witness.p.ravel()) >= cert.value - 1e-9


def _additive(parts, shape):
    """The table sum_k parts[k][x, a_k], cell by cell."""
    out = np.zeros(shape)
    for cell in itertools.product(*map(range, shape)):
        out[cell] = sum(p[cell[0], a] for p, a in zip(parts, cell[1:]))
    return out


@st.composite
def joint_tables(draw):
    """A game with two to four principals of one to three actions and one or
    two agents, and a joint agent table that is exactly additive, or
    additive plus noise of scale 1e-12 or 1e-3."""
    n_j, n_i = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_game(rng, num_principals=n_j, num_agents=n_i,
                    type_sizes=[draw(st.integers(1, 2)) for _ in range(n_i)],
                    action_sizes=[draw(st.integers(1, 3)) for _ in range(n_j)])
    shape = (g.num_profiles,) + tuple(len(a) for a in g.action_spaces)
    parts = [rng.uniform(-1.0, 1.0, size=(g.num_profiles, n)) for n in shape[1:]]
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-3]))
    return g, _additive(parts, shape) + noise * rng.standard_normal(shape)


def _outcome(decompose, g, joint):
    """The NotSeparable that ``decompose`` raises, or None."""
    try:
        decompose(g, joint)
    except NotSeparable as exc:
        return exc
    return None


@settings(max_examples=200)
@given(case=joint_tables())
def test_decompose_separable_matches_lstsq_oracle(case):
    g, joint = case
    # the fits themselves, with no residual bound
    with mock.patch("mechpoly.game.SEPARABLE_ATOL", np.inf), \
            mock.patch.object(separable_oracle, "SEPARABLE_ATOL", np.inf):
        got = decompose_separable(g, joint)
        want = separable_oracle.decompose_separable(g, joint)
    for k, (a, b) in enumerate(zip(got, want)):
        assert np.max(np.abs(a - b)) <= 1e-12
        assert k == 0 or not a[:, 0].any()
    resid = np.abs(_additive(want, joint.shape) - joint)
    assert np.max(np.abs(np.abs(_additive(got, joint.shape) - joint) - resid)) <= 1e-12
    exc = _outcome(decompose_separable, g, joint)
    o_exc = _outcome(separable_oracle.decompose_separable, g, joint)
    top = np.sort(resid.reshape(-1))[::-1]
    if abs(top[0] - SEPARABLE_ATOL) >= 1e-12:
        assert (exc is None) == (o_exc is None)
    if exc is not None and o_exc is not None:
        assert abs(exc.residual - o_exc.residual) <= 1e-12
        if len(top) == 1 or top[0] - top[1] > 1e-12:
            assert (exc.profile, exc.action_profile) == (o_exc.profile, o_exc.action_profile)
