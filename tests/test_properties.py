"""Property tests: independent value computations bound each other the right
way, membership verdicts follow the bounds they use, vertex enumeration
returns the SVD oracle's tables, and the batched continuation-equilibrium
kernel returns the per-candidate loops' blocks, combos and records."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import continuation_oracle as oracle
from mechpoly import (
    GeneralMechanism,
    StrategyProfile,
    build_deviator_reporting,
    build_type_and_dm_mechanism,
    check_continuation_equilibrium,
    check_equilibrium_notion,
    enumerate_pure_continuation_equilibria,
    enumerate_vertices,
    expected_principal_payoff,
    minmax,
    random_game,
    robust_pbe_membership,
    sample_bic,
    standard_from_direct,
)
from mechpoly.mechanisms import NOTIONS, _continuation_combos
from vertex_oracle import svd_enumerate_vertices

TOL = 1e-7
RANK = {"non-member": 0, "not-established": 1, "consistent-with-membership": 2, "member": 3}


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
    mechanism per principal plus one deviation each.  Mechanisms are free-form
    message games, menus of sampled BIC tables, deviator-reporting mechanisms
    (three agents only) or wrapped direct tables."""
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
    devs = {j: [mechanism(j, kinds)] for j in range(n_principals)}
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
    blocks, ok, _ = _continuation_combos(g, mechs, 1e-9)
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
