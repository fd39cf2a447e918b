"""Property tests: independent value computations bound each other the right
way, membership verdicts follow the bounds they use, vertex enumeration
returns the SVD oracle's tables, also when they are served from a polytope
shared with a game that differs only in principal payoffs and when 4 threads
share an evicting polytope cache (and saddle memo), the array grid sweep
returns the loop oracle's certificates bit for bit, the batched
continuation-equilibrium kernel returns the per-candidate loops' blocks,
combos and records, joint truthfulness read from the principals' IC rows is
the brute force over report vectors, the polytope build's rows are the loop
oracle's bit for bit, the direct HiGHS call returns linprog's LP results bit
for bit without presolve and linprog's statuses and optima with it, the
reused HiGHS instances return a fresh instance's results bit for bit in any
solve order, the LPs that ``_optimize_over`` and the saddle LP build solve
to the value bits and solution bytes that linprog gives for their oracles'
relations-form LPs, the saddle LP's bilinear blocks are ``block_diag``'s,
its two-principal solution is the two-principal oracle's bit for bit, the
batched maxmin cut rows are the per-product loop's, the two-principal
saddle-LP maxmin is the vertex-product maxmin and the oracle's minmax LP,
the exact2 punishment read from its duals is an IC table that holds j to
that minmax, with more principals the correlated-opponent saddle LP is a
lower bound on the vertex-product maxmin (equal with one type profile),
``simulate`` makes the per-round oracle's draws, the closed-form separable
fit is the per-profile least-squares fit, and ``fnv1a64`` is the
byte-at-a-time FNV-1a loop."""

import dataclasses
import itertools
import math
import sys
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import bic_oracle
import continuation_oracle as oracle
import fnv_oracle
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
from mechpoly import _highs, bic
from mechpoly.game import DIST_ATOL, SEPARABLE_ATOL, NotSeparable, _contract_except, fnv1a64
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


@st.composite
def small_three_principal_games(draw):
    """Three-principal games with binary actions and one agent of one or
    two types, so the grid sweeps at most four free opponent coordinates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_game(rng, num_principals=3, num_agents=1, type_sizes=[draw(st.integers(1, 2))],
                       action_sizes=[2, 2, 2], zero_agent_payoffs=draw(st.booleans()))


@settings(max_examples=100)
@given(g=st.one_of(two_principal_games(), small_three_principal_games()), j=st.integers(0, 2),
       seed=st.integers(0, 1000))
def test_grid_brackets_exact_value(g, j, seed):
    # every producer's bracket (lower, upper) on the floor holds the floor:
    # with two principals each contains the exact2 value, with three they overlap
    j %= g.num_principals
    grid = minmax(g, j, mode="grid", step=0.1)
    assert grid.info["witness_value"] is not None
    certs = [grid, minmax(g, j, mode="alternating", restarts=2, seed=seed),
             maxmin(g, j, mode="exact"), maxmin(g, j, dim_cap=1),
             solver._maxmin_vertex_products(g, j, solver.DEFAULT_DIM_CAP)]
    if g.num_principals == 2:
        exact = minmax(g, j, mode="exact2")
        for cert in certs + [exact]:
            assert cert.lower - TOL <= exact.value <= cert.upper + TOL, cert.kind
    else:
        assert certs[3].kind == "relaxation-lower-bound"
        assert max(c.lower for c in certs) <= min(c.upper for c in certs) + TOL


@settings(max_examples=50)
@given(g=two_principal_games(), j=st.integers(0, 1), seed=st.integers(0, 1000))
def test_alternating_upper_bound_is_above_exact_value(g, j, seed):
    upper = minmax(g, j, mode="alternating", restarts=2, seed=seed)
    assert upper.kind == "alternating-upper-bound"
    assert upper.value >= minmax(g, j, mode="exact2").value - TOL


@st.composite
def sampled_games(draw):
    """Two-principal games whose polytopes have up to 12 variables (four
    profiles, three actions), the sizes at which sample_bic reads the vertex
    table."""
    n_agents = draw(st.integers(1, 2))
    type_sizes = [draw(st.integers(1, 2)) for _ in range(n_agents)]
    action_sizes = [draw(st.integers(2, 3)), draw(st.integers(2, 3))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_game(rng, num_principals=2, num_agents=n_agents, type_sizes=type_sizes,
                       action_sizes=action_sizes, zero_agent_payoffs=draw(st.booleans()))


@settings(max_examples=60)
@given(g=sampled_games(), j=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
def test_sample_bic_is_a_vertex_optimal_for_its_objective(g, j, seed):
    # under the cap the sample is, bit for bit, an enumerated vertex, and its
    # objective is the LP optimum over the polytope
    poly = build_bic_polytope(g, j)
    m = sample_bic(g, j, seed)
    assert any(v.p.tobytes() == m.p.tobytes() for v in enumerate_vertices(g, j))
    c = np.random.default_rng(seed).standard_normal(poly.n_vars)
    value, _ = solver._optimize_over(poly, "max", "sampling", c=c)
    assert abs(float(m.p.reshape(-1) @ c) - value) <= 1e-9


def _shifted(cert, d):
    """The certificate with its value and bracket lowered by d: the same test
    as raising the payoff it is compared with by d."""
    return dataclasses.replace(cert, value=cert.value - d, lower=cert.lower - d,
                               upper=cert.upper - d)


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
    want = grid_oracle._minmax_grid(g, j, step, math.inf, solver.DEFAULT_DIM_CAP, chunk=chunk)
    assert grid_oracle.certificate_bits(got) == grid_oracle.certificate_bits(want)


def test_grid_lp_fallback_matches_loop_oracle():
    # P1's polytope has 14 variables, over DEFAULT_DIM_CAP, so every one of
    # the 121 grid points goes through best_response
    g = random_game(np.random.default_rng(3), num_principals=2, num_agents=1,
                    type_sizes=[2], action_sizes=[7, 2])
    assert build_bic_polytope(g, 0).n_vars == 14
    got = minmax(g, 0, mode="grid", step=0.1)
    want = grid_oracle._minmax_grid(g, 0, 0.1, math.inf, 12)
    assert got.info["n_points"] == 121
    assert grid_oracle.certificate_bits(got) == grid_oracle.certificate_bits(want)


def test_grid_sweep_runs_any_free_dimension_under_the_point_cap():
    # one opponent with six actions: free dimension 5, and 21 points at step 0.5
    g = random_game(np.random.default_rng(5), num_principals=2, num_agents=1,
                    type_sizes=[1], action_sizes=[2, 6])
    got = minmax(g, 0, mode="grid", step=0.5)
    assert (got.info["free_dim"], got.info["n_points"]) == (5, 21)
    want = grid_oracle._minmax_grid(g, 0, 0.5, math.inf, solver.DEFAULT_DIM_CAP)
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


def _control(g, j, field):
    """The game with one input of principal j's polytope changed."""
    if field == "prior":
        prior = g.prior * (1.0 + 0.1 * np.arange(g.num_profiles))
        return dataclasses.replace(g, prior=prior / prior.sum())
    if field == "payoffs":
        return dataclasses.replace(g, agent_utils=tuple(
            tuple(u + 1.0 if k == j else u for k, u in enumerate(per)) for per in g.agent_utils))
    types = (tuple("r" + lab for lab in g.type_spaces[0]),) + g.type_spaces[1:]
    return dataclasses.replace(g, type_spaces=types)


@settings(max_examples=50)
@given(g=two_type_games(), j=st.integers(0, 1), seed=st.integers(0, 2**32 - 1),
       field=st.sampled_from(["prior", "payoffs", "label"]))
def test_shared_polytope_serves_the_cold_and_svd_tables(g, j, seed, field):
    j %= g.num_principals
    rng = np.random.default_rng(seed)
    twin = dataclasses.replace(g, principal_utils=tuple(
        rng.uniform(size=v.shape) for v in g.principal_utils))
    first = enumerate_vertices(g, j)
    warm = enumerate_vertices(twin, j)         # served from g's polytope
    poly = build_bic_polytope(twin, j)
    assert poly is build_bic_polytope(g, j)
    cold = bic._vertex_tables(bic_oracle.build_bic_polytope(twin, j))
    want = svd_enumerate_vertices(twin, j, poly=bic_oracle.build_bic_polytope(twin, j))
    assert len(warm) == len(first) == len(want) == cold.shape[0]
    for a, b, c, w in zip(warm, first, cold, want):
        assert a.owner == w.owner == j
        assert a.p.tobytes() == c.tobytes() == w.p.tobytes()
        assert a is not b and not a.p.flags.writeable
        assert not np.shares_memory(a.p, b.p) and not np.shares_memory(a.p, poly.vertex_tables)
    assert build_bic_polytope(_control(g, j, field), j) is not poly


def test_polytope_cache_threads_match_serial_run():
    # twelve polytopes, each asked for by two games that differ only in
    # principal payoffs, from 4 threads through a map of 5: every pass over
    # them evicts; so does every pass over the 24 two-principal saddle
    # solves that maxmin and exact2 minmax share through a map of 5
    games = [random_game(np.random.default_rng(s), num_agents=2, type_sizes=[2, 2],
                         action_sizes=[2, 3]) for s in range(6)]
    games += [dataclasses.replace(h, principal_utils=tuple(1 - v for v in h.principal_utils))
              for h in games]
    tasks = [(h, j) for h in games for j in range(2)] * 3
    np.random.default_rng(0).shuffle(tasks)

    def tables(task):
        poly = build_bic_polytope(*task)
        g, j = task
        hi, lo = maxmin(g, j), minmax(g, j, mode="exact2")
        return (poly.ic.tobytes(), poly.ic_labels,
                [m.p.tobytes() for m in enumerate_vertices(*task)],
                hi.value.hex(), hi.witness.p.tobytes(), lo.value.hex(),
                lo.witness[1 - j].p.tobytes())

    serial = [tables(t) for t in tasks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)       # switch threads as often as possible
    try:
        with mock.patch.object(bic, "_POLYTOPES", OrderedDict()), \
                mock.patch.object(solver, "_SADDLES", OrderedDict()), \
                mock.patch.object(bic, "POLYTOPE_CACHE_SIZE", 5):
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(tables, tasks, timeout=120))
            assert len(bic._POLYTOPES) <= 5 and len(solver._SADDLES) <= 5
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


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
    blocks = [_agent_optimal_blocks(g, [mech], 1e-9)[0] for mech in mechs]
    ok, _ = _continuation_combos(g, mechs, blocks, 1e-9)
    for j, mech in enumerate(mechs):
        # each principal's mechanisms of one shape in one batched call
        batch = [m for m in [mech] + devs[j] if m.outcome.shape == mech.outcome.shape]
        for m, got in zip(batch, _agent_optimal_blocks(g, batch, 1e-9)):
            want = _agent_optimal_blocks(g, [m], 1e-9)[0]
            for a, b in zip([got[0], *got[1], got[2]], [want[0], *want[1], want[2]]):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
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
    # the check read from the IC rows agrees with the brute force over every
    # report vector, up to float noise in the gains and in which of two
    # equally good report vectors it names
    g, profile = case
    joint = is_profile_bic(g, profile, tol=tol)
    brute = bic_oracle.is_profile_bic(g, profile, tol=tol)
    if abs(brute.worst_value - tol) > 1e-12:
        assert joint.ok == brute.ok
    assert abs(joint.worst_value - brute.worst_value) <= 1e-12
    assert (joint.worst_label is None) == (brute.worst_label is None)
    if joint.worst_label is not None:
        gain = bic_oracle.joint_gain(g, profile, joint.worst_label)
        assert abs(gain - brute.worst_value) <= 1e-12
    if joint.ok:
        assert all(is_individually_bic(g, dm, tol=tol).ok for dm in profile)
    if all(is_individually_bic(g, dm, tol=tol / (2 * len(profile))).ok for dm in profile):
        assert joint.ok


@st.composite
def polytope_games(draw):
    """Games with two or three principals of one to three actions and one
    to three agents of one to three types, where each agent with more than
    one type may have a drawn type without prior mass."""
    n_j = draw(st.integers(2, 3))
    types = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_game(rng, num_principals=n_j, num_agents=len(types), type_sizes=types,
                    action_sizes=[draw(st.integers(1, 3)) for _ in range(n_j)])
    keep = np.ones(g.num_profiles, dtype=bool)
    for i, n_t in enumerate(types):
        if n_t > 1 and draw(st.booleans()):
            keep &= g.profiles[:, i] != draw(st.integers(0, n_t - 1))
    prior = np.where(keep, g.prior, 0.0)
    return dataclasses.replace(g, prior=prior / prior.sum())


@settings(max_examples=100)
@given(g=polytope_games())
def test_polytope_build_matches_loop_oracle(g):
    for k in range(g.num_principals):
        got, want = build_bic_polytope(g, k), bic_oracle.build_bic_polytope(g, k)
        assert (got.eq.shape, got.ic.shape) == (want.eq.shape, want.ic.shape)
        assert got.eq.tobytes() == want.eq.tobytes()
        assert got.ic.tobytes() == want.ic.tobytes()
        assert got.ic_labels == want.ic_labels
        assert got.warnings == want.warnings


def _rhs_through(a, n_eq, x0, rng):
    """Right-hand sides that x0 satisfies: slack on the '<=' rows, none on
    the last n_eq rows."""
    slack = rng.uniform(0.0, 1.0, size=a.shape[0])
    slack[a.shape[0] - n_eq:] = 0.0
    return a @ x0 + slack


def _free_and_point(rng, free):
    """A point inside the bounds: nonnegative, or of either sign where free."""
    return np.where(free, np.round(rng.normal(size=free.size), 2),
                    rng.uniform(0.5, 3.0, size=free.size))


@st.composite
def dense_lps(draw):
    """Random dense LPs of '<=' and '=' rows over nonnegative and free
    variables, for either sense.  The data is sometimes small integers
    (degenerate vertices, tied optima) and has explicit zeros; the
    right-hand side goes through a point inside the bounds, or is random
    (often infeasible)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    integer = draw(st.booleans())
    a = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7)
    c = rng.normal(size=n)
    if integer:
        a, c = np.round(2 * a), np.round(2 * c)
    n_eq = draw(st.integers(0, m))
    free = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    x0 = _free_and_point(rng, free)
    b = _rhs_through(a, n_eq, x0, rng) if draw(st.booleans()) else rng.normal(size=m)
    return LPProblem(c=c, a=a, b=b, n_eq=n_eq, free=free,
                     sense=draw(st.sampled_from(["max", "min"])))


@st.composite
def infeasible_or_unbounded_lps(draw):
    """A feasible dense LP made infeasible (one more '<=' row requiring some
    row to exceed its own right-hand side by 1) or unbounded (a nonnegative
    variable absent from every row, pushed up by the objective)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    a = np.round(2 * rng.normal(size=(m, n)))
    n_eq = draw(st.integers(0, m))
    free = np.array([False] + draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))
    x0 = _free_and_point(rng, free)
    sense = draw(st.sampled_from(["max", "min"]))
    c = np.round(2 * rng.normal(size=n))
    if draw(st.booleans()):
        a[:, 0] = 0.0
        c[0] = 1.0 if sense == "max" else -1.0
        b = _rhs_through(a, n_eq, x0, rng)
    else:
        b = _rhs_through(a, n_eq, x0, rng)
        r = draw(st.integers(0, m - 1))
        a = np.insert(a, m - n_eq, -a[r], axis=0)
        b = np.insert(b, m - n_eq, -(b[r] + 1.0))
    return LPProblem(c=c, a=a, b=b, n_eq=n_eq, free=free, sense=sense)


@st.composite
def optimize_over_cases(draw):
    """(polytope, sense, c, cuts) of an LP that ``solver._optimize_over``
    solves, from a random game of two or three principals: a linear
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
    sense = draw(st.sampled_from(["max", "min"]))
    shape = draw(st.sampled_from(["linear", "vertex cuts", "random cuts"]))
    if shape == "linear":
        return poly, sense, rng.normal(size=poly.n_vars), None
    cuts = (solver._vertex_product_cuts(g, j, solver.DEFAULT_DIM_CAP) if shape == "vertex cuts"
            else rng.normal(size=(draw(st.integers(1, 6)), poly.n_vars)))
    return poly, sense, None, cuts


class _Stop(Exception):
    """Carries the arguments of a call that a test stopped."""


def _stop(*args, **kwargs):
    raise _Stop(*args)


def _stopped_args(name, solve, *args):
    """The arguments that ``solve(*args)`` passes to ``solver.<name>`` first."""
    with mock.patch.object(solver, name, _stop):
        try:
            solve(*args)
        except _Stop as stop:
            return stop.args
    raise AssertionError(f"{solve.__name__} did not call {name}")


def _linprog_args(solve, *args):
    """The (c, a, row_lo, row_hi, lo, hi) that ``solve(*args)`` passes to
    linprog first."""
    return _stopped_args("linprog", solve, *args)


def _solve_lp_arg(solve, *args):
    """The LPProblem that ``solve(*args)`` passes to solve_lp first; its
    relations (which perfbench counts) state its rows and c its columns."""
    prob = _stopped_args("solve_lp", solve, *args)[0]
    assert len(prob.relations) == prob.a.shape[0] and len(prob.c) == prob.a.shape[1]
    return prob


@st.composite
def game_lps(draw):
    """IC-polytope LPs from random games, as ``_optimize_over`` solves them."""
    poly, sense, c, cuts = draw(optimize_over_cases())
    return _solve_lp_arg(solver._optimize_over, poly, sense, "test", c, cuts)


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


def _status_value(solve, prob):
    try:
        res = solve(prob)
    except NumericalFailure:
        return ("numerical failure", None)
    return (res.status, res.value)


@settings(max_examples=300)
@given(prob=st.one_of(dense_lps(), infeasible_or_unbounded_lps(), game_lps()))
def test_solve_lp_values_match_linprog_with_presolve(prob):
    # HiGHS runs without presolve; linprog's default runs with it and may
    # return another optimal vertex, but the status and the optimum agree
    status, value = _status_value(solve_lp, prob)
    ref_status, ref = _status_value(lambda p: lp_oracle.solve_lp(p, presolve=True), prob)
    assert status == ref_status
    if status == "optimal":
        assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


@settings(max_examples=150)
@given(case=optimize_over_cases())
def test_optimize_over_lp_solves_as_its_relations_form(case):
    # the LPProblem _optimize_over builds gives, through solve_lp, the status,
    # value bits and solution bytes that linprog gives for the LP it once
    # built with '=' simplex rows, '>=' IC rows and (lo, hi) bounds
    poly, sense, c, cuts = case
    prob = _solve_lp_arg(solver._optimize_over, poly, sense, "test", c, cuts)
    assert _lp_outcome(solve_lp, prob) == _lp_outcome(
        lp_oracle.solve_relations, lp_oracle.optimize_over_problem(poly, sense, c=c, cuts=cuts))


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
    # the attempt on a fresh instance, also when compared only after every
    # attempt has run: later runs leave a result as it was
    assert _highs.linprog(*_REJECTED).message == "(HiGHS Status 2: Model error)"
    attempts = [(args, options) for args in [_linprog_args(solve_lp, p) for p in probs]
                + [_REJECTED]
                for options in (_highs.BASE, _highs.TIGHT)]
    results = [(_highs.linprog(*args, options=options),
                lp_oracle.fresh_linprog(*args, options=options))
               for args, options in data.draw(st.permutations(attempts))]
    for got, want in results:
        assert lp_oracle.attempt_bits(got) == lp_oracle.attempt_bits(want)


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
    """(game, principal): a ``saddle_games()`` game or a three-principal game
    of the same sizes."""
    if draw(st.booleans()):
        return draw(saddle_games()), draw(st.integers(0, 1))
    type_sizes = draw(st.one_of(st.tuples(st.integers(1, 4)),
                                st.tuples(st.integers(1, 2), st.integers(1, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_game(rng, num_principals=3, num_agents=len(type_sizes),
                    type_sizes=list(type_sizes),
                    action_sizes=[draw(st.integers(1, 3)) for _ in range(3)])
    return g, draw(st.integers(0, 2))


@settings(max_examples=60)
@given(case=saddle_cases())
def test_saddle_lp_blocks_match_block_diag(case):
    g, j = case
    rows = _linprog_args(solver._saddle_lp, g, j)[1]
    outer = j
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
    # the '>= 0' dual rows Q ..., negated into '<=' rows
    got = rows[:q_in.shape[0], :q_in.shape[1]]
    assert got.dtype == q_in.dtype and got.tobytes() == (-q_in).tobytes()


def _saddle_outcome(solve):
    try:
        value, witness = solve()[:2]
    except NumericalFailure as exc:
        return ("numerical failure", str(exc))
    return value.hex(), witness.owner, witness.p.shape, witness.p.tobytes()


@settings(max_examples=100)
@given(g=saddle_games(), j=st.integers(0, 1))
def test_saddle_lp_matches_two_principal_oracle(g, j):
    # with one inner principal the joint table is its table: the saddle LP
    # solves to the status, value bits and solution bytes that linprog gives
    # for the oracle's maxmin LP, and the value bits and witness bytes are
    # the oracle's
    prob = dataclasses.replace(_solve_lp_arg(solver._saddle_lp, g, j), accept=None)
    assert _lp_outcome(solve_lp, prob) == _lp_outcome(
        lp_oracle.solve_relations, saddle_oracle.saddle_problem(g, j, "max"))
    assert (_saddle_outcome(lambda: solver._saddle_lp(g, j))
            == _saddle_outcome(lambda: saddle_oracle._saddle_lp(g, j, "max")))


@settings(max_examples=100)
@given(g=saddle_games(), j=st.integers(0, 1))
def test_exact2_punishment_from_duals_meets_the_min_lp_oracle(g, j):
    # the opponent table read from the maxmin LP's duals is an optimal
    # punishment: the oracle's own minmax LP gives the value, and the table
    # is IC and holds j's best response to that value
    cert = minmax(g, j, mode="exact2")
    want, _ = saddle_oracle._saddle_lp(g, j, "min")
    punisher = cert.witness[1 - j]
    assert abs(cert.value - want) <= 1e-9
    assert is_individually_bic(g, punisher, tol=1e-9).ok
    assert abs(solver.best_response(g, j, cert.witness)[0] - want) <= 1e-9


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
    value, witness, punisher = solver._saddle_lp(g, j)
    assert punisher is None
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
    assert abs(cert.value - saddle_oracle._saddle_lp(g, j, "min")[0]) <= 1e-9
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


@settings(max_examples=200)
@given(data=st.one_of(st.binary(max_size=49),
                      st.sampled_from([300, 1801, 4425]).flatmap(
                          lambda n: st.binary(min_size=n, max_size=n))))
def test_fnv1a64_matches_byte_loop_oracle(data):
    assert fnv1a64(data) == fnv_oracle.fnv1a64(data)
