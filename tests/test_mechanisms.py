import itertools
import json
from collections import Counter

import numpy as np
import pytest

import continuation_oracle
import mechpoly.mechanisms
from mechpoly import (
    ContinuationSpaceTooLarge,
    DeviationSetEmpty,
    DirectMechanism,
    FiniteGame,
    GameFormatError,
    GeneralMechanism,
    MenuEntryNotBIC,
    NotBIC,
    SelectionSpaceTooLarge,
    SetValuedContract,
    StrategyProfile,
    TooFewAgents,
    build_bic_polytope,
    build_deviator_reporting,
    build_type_and_dm_mechanism,
    check_continuation_equilibrium,
    check_equilibrium_notion,
    deviator_message_label,
    deviator_truthful_strategies,
    enumerate_pure_continuation_equilibria,
    expected_principal_payoff,
    general_mechanism_from_dict,
    general_mechanism_to_dict,
    induce_direct_mechanism,
    induce_profile,
    is_individually_bic,
    load_general_mechanism,
    load_strategies,
    mechanism_profile_hash,
    nest_szentes_contract,
    pure_strategies,
    random_game,
    sample_bic,
    save_general_mechanism,
    save_strategies,
    simulate,
    standard_from_direct,
    strategies_from_dict,
    strategies_to_dict,
    truthful_strategies,
)

TRUTHFUL = np.array([[1.0, 0.0], [0.0, 1.0]])
SWAPPED = np.array([[0.0, 1.0], [1.0, 0.0]])
UNIFORM = np.array([[0.5, 0.5], [0.5, 0.5]])
CONST_B = np.array([[0.0, 1.0], [0.0, 1.0]])


def _p2_stub(g):
    return standard_from_direct(g, DirectMechanism(owner=1, p=np.ones((g.num_profiles, 1))))


def _mp_std(g, j, row):
    return standard_from_direct(g, DirectMechanism(owner=j, p=np.array([row])))


def _screen_pair(g, table):
    return [standard_from_direct(g, DirectMechanism(owner=0, p=np.array(table))),
            _p2_stub(g)]


# -- construction ---------------------------------------------------------------


def test_standard_from_direct_and_truthful_identity(screen1):
    mechs = _screen_pair(screen1, TRUTHFUL)
    assert mechs[0].standard is True
    assert mechs[0].principal_messages == ("*",)
    assert mechs[0].agent_messages == (("L", "H"),)
    induced = induce_profile(screen1, mechs, truthful_strategies(screen1, mechs))
    np.testing.assert_array_equal(induced[0].p, TRUTHFUL)
    np.testing.assert_array_equal(induced[1].p, np.ones((2, 1)))


def test_induce_direct_mechanism_mixture_rows(screen1):
    outcome = np.array([
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.5, 0.5], [0.2, 0.8]],
    ])
    mech = GeneralMechanism(owner=0, principal_messages=("m0a", "m0b"),
                            agent_messages=(("u", "v"),), outcome=outcome)
    assert mech.standard is False
    dm = induce_direct_mechanism(
        screen1, mech, np.array([0.25, 0.75]),
        [np.array([[0.5, 0.5], [1.0, 0.0]])],
    )
    # row L: 0.25*(mean of top two) + 0.75*(mean of bottom two); row H: u only
    np.testing.assert_allclose(dm.p[0], [0.3875, 0.6125], atol=1e-15)
    np.testing.assert_allclose(dm.p[1], [0.625, 0.375], atol=1e-15)


def test_nest_szentes_singleton_sets():
    h = SetValuedContract(
        owner=0, agent_messages=(("u", "v"),), n_actions=2,
        table={(0,): (np.array([1.0, 0.0]),), (1,): (np.array([0.0, 1.0]),)},
    )
    mech = nest_szentes_contract(h)
    assert mech.principal_messages == ("sel0",)
    assert mech.standard is True
    np.testing.assert_array_equal(mech.outcome[0, 0], [1.0, 0.0])
    np.testing.assert_array_equal(mech.outcome[0, 1], [0.0, 1.0])


def test_nest_szentes_two_member_cell():
    d0, d1 = np.array([1.0, 0.0]), np.array([0.25, 0.75])
    h = SetValuedContract(
        owner=0, agent_messages=(("u", "v"),), n_actions=2,
        table={(0,): (d0, d1), (1,): (np.array([0.0, 1.0]),)},
    )
    mech = nest_szentes_contract(h)
    assert mech.principal_messages == ("sel0", "sel1")
    np.testing.assert_array_equal(mech.outcome[0, 0], d0)
    np.testing.assert_array_equal(mech.outcome[1, 0], d1)
    # the singleton cell ignores the selection
    np.testing.assert_array_equal(mech.outcome[0, 1], mech.outcome[1, 1])


def test_nest_szentes_shared_set_selected_uniformly():
    d0, d1 = np.array([1.0, 0.0]), np.array([0.25, 0.75])
    # same image set listed in different member order in the two cells
    h = SetValuedContract(
        owner=0, agent_messages=(("u", "v"),), n_actions=2,
        table={(0,): (d0, d1), (1,): (d1, d0)},
    )
    mech = nest_szentes_contract(h)
    assert len(mech.principal_messages) == 2
    for s in range(2):
        np.testing.assert_array_equal(mech.outcome[s, 0], mech.outcome[s, 1])


def test_nest_szentes_membership_random(rng):
    for _ in range(3):
        table = {}
        for m in itertools.product(range(2), range(2)):
            n = int(rng.integers(1, 4))
            table[m] = tuple(rng.dirichlet(np.ones(3)) for _ in range(n))
        h = SetValuedContract(owner=0, agent_messages=(("u", "v"), ("u", "v")),
                              n_actions=3, table=table)
        mech = nest_szentes_contract(h)
        assert len(mech.principal_messages) == int(
            np.prod([len(c) for c in table.values()]))
        for s in range(len(mech.principal_messages)):
            for m in table:
                row = mech.outcome[(s,) + m]
                gaps = [np.max(np.abs(row - d)) for d in table[m]]
                assert min(gaps) <= 1e-12


def test_nest_szentes_caps():
    def cell(c, n_members, n_actions):
        out = []
        for k in range(n_members):
            d = np.zeros(n_actions)
            eps = 0.001 * (10 * c + k + 1)
            d[k % n_actions] = 1.0 - eps
            d[(k + 1) % n_actions] = eps
            out.append(d)
        return tuple(out)

    h = SetValuedContract(
        owner=0, agent_messages=(tuple(f"m{c}" for c in range(7)),), n_actions=2,
        table={(c,): cell(c, 10, 2) for c in range(7)},
    )
    with pytest.raises(SelectionSpaceTooLarge, match="selection maps"):
        nest_szentes_contract(h)
    # exactly 10^6 selections is allowed, but the dense table then overflows
    h2 = SetValuedContract(
        owner=0, agent_messages=(tuple(f"m{c}" for c in range(6)),), n_actions=10,
        table={(c,): cell(c, 10, 10) for c in range(6)},
    )
    with pytest.raises(SelectionSpaceTooLarge, match="entries"):
        nest_szentes_contract(h2)


def test_type_and_dm_mechanism(screen1):
    menu = [DirectMechanism(owner=0, p=UNIFORM),
            DirectMechanism(owner=0, p=TRUTHFUL)]
    mech = build_type_and_dm_mechanism(screen1, 0, menu)
    assert mech.principal_messages == ("dm0", "dm1")
    assert mech.agent_messages == (("L", "H"),)
    assert mech.standard is False
    np.testing.assert_array_equal(mech.outcome[1, 0], [1.0, 0.0])
    np.testing.assert_array_equal(mech.outcome[1, 1], [0.0, 1.0])
    np.testing.assert_array_equal(mech.outcome[0], UNIFORM)
    named = build_type_and_dm_mechanism(screen1, 0, menu, labels=("base", "alt"))
    assert named.principal_messages == ("base", "alt")


def test_type_and_dm_rejects_non_bic_entry(screen1):
    with pytest.raises(MenuEntryNotBIC, match="menu entry 0") as exc:
        build_type_and_dm_mechanism(screen1, 0, [DirectMechanism(owner=0, p=SWAPPED)])
    assert exc.value.index == 0
    assert exc.value.worst_label == (0, "L", "H")
    assert exc.value.worst_value == pytest.approx(-1.0)


def _passive_game(type_sizes, action_sizes):
    """All-zero payoffs so every table is incentive compatible."""
    types = tuple(tuple(f"t{n}" for n in range(s)) if s > 1 else ("x",)
                  for s in type_sizes)
    actions = tuple(tuple(f"c{n}" for n in range(s)) if s > 1 else ("z",)
                    for s in action_sizes)
    n_profiles = int(np.prod(type_sizes))
    prior = np.full(n_profiles, 1.0 / n_profiles)
    agent_utils = tuple(
        tuple(np.zeros((n_profiles, s)) for s in action_sizes)
        for _ in type_sizes
    )
    shape = (n_profiles,) + tuple(action_sizes)
    principal_utils = tuple(np.zeros(shape) for _ in action_sizes)
    return FiniteGame(type_spaces=types, action_spaces=actions, prior=prior,
                      agent_utils=agent_utils, principal_utils=principal_utils)


def test_deviator_reporting_branch_table_three_agents():
    g = _passive_game([1, 1, 1], [3, 1, 1])
    default = DirectMechanism(owner=0, p=np.array([[1.0, 0.0, 0.0]]))
    puns = {1: DirectMechanism(owner=0, p=np.array([[0.0, 1.0, 0.0]])),
            2: DirectMechanism(owner=0, p=np.array([[0.0, 0.0, 1.0]]))}
    drm = build_deviator_reporting(g, 0, default, puns)
    assert drm.standard is True
    assert drm.principal_messages == ("*",)
    assert drm.agent_messages[0] == ("P1:x", "P2:x", "P3:x")
    assert deviator_message_label(g, 2, "x") == "P3:x"
    for combo in itertools.product(range(3), repeat=3):
        counts = Counter(j for j in combo if j != 0)
        majority = [j for j, c in counts.items() if c > 1.5]
        want = puns[majority[0]].p[0] if majority else default.p[0]
        np.testing.assert_array_equal(drm.outcome[(0,) + combo], want)
    # flipping one report away from unanimity on the owner changes nothing
    for i in range(3):
        for j in (1, 2):
            combo = [0, 0, 0]
            combo[i] = j
            np.testing.assert_array_equal(drm.outcome[(0,) + tuple(combo)],
                                          default.p[0])


def test_deviator_reporting_ties_play_default_four_agents():
    g = _passive_game([1, 1, 1, 1], [3, 1, 1])
    default = DirectMechanism(owner=0, p=np.array([[1.0, 0.0, 0.0]]))
    puns = {1: DirectMechanism(owner=0, p=np.array([[0.0, 1.0, 0.0]])),
            2: DirectMechanism(owner=0, p=np.array([[0.0, 0.0, 1.0]]))}
    drm = build_deviator_reporting(g, 0, default, puns)
    for combo in itertools.product(range(3), repeat=4):
        counts = Counter(j for j in combo if j != 0)
        majority = [j for j, c in counts.items() if c > 2.0]
        want = puns[majority[0]].p[0] if majority else default.p[0]
        np.testing.assert_array_equal(drm.outcome[(0,) + combo], want)
    np.testing.assert_array_equal(drm.outcome[0, 1, 1, 2, 2], default.p[0])
    np.testing.assert_array_equal(drm.outcome[0, 1, 1, 1, 0], puns[1].p[0])
    np.testing.assert_array_equal(drm.outcome[0, 2, 2, 2, 2], puns[2].p[0])


def test_deviator_reporting_routes_type_reports():
    g = _passive_game([2, 1, 1], [2, 1])
    default = DirectMechanism(owner=0, p=np.array([[1.0, 0.0], [0.0, 1.0]]))
    pun = DirectMechanism(owner=0, p=np.array([[0.5, 0.5], [0.5, 0.5]]))
    drm = build_deviator_reporting(g, 0, default, {1: pun})
    assert drm.agent_messages[0] == ("P1:t0", "P1:t1", "P2:t0", "P2:t1")
    assert drm.agent_messages[1] == ("P1:x", "P2:x")
    np.testing.assert_array_equal(drm.outcome[0, 0, 0, 0], default.p[0])
    np.testing.assert_array_equal(drm.outcome[0, 1, 0, 0], default.p[1])
    # two opponents naming P2 trigger the punishment at the reported type
    np.testing.assert_array_equal(drm.outcome[0, 2, 1, 1], pun.p[0])
    np.testing.assert_array_equal(drm.outcome[0, 1, 1, 1], pun.p[1])


def _screen3_game():
    """Three agents, the first with the screening preferences."""
    types = (("L", "H"), ("x",), ("x",))
    actions = (("a", "b"), ("z",))
    prior = np.array([0.5, 0.5])
    u_first = (np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros((2, 1)))
    passive = (np.zeros((2, 2)), np.zeros((2, 1)))
    return FiniteGame(
        type_spaces=types, action_spaces=actions, prior=prior,
        agent_utils=(u_first, passive, passive),
        principal_utils=(np.zeros((2, 2, 1)), np.zeros((2, 2, 1))),
    )


def test_deviator_reporting_errors(screen1):
    g = _screen3_game()
    truthful = DirectMechanism(owner=0, p=TRUTHFUL)
    swapped = DirectMechanism(owner=0, p=SWAPPED)
    with pytest.raises(TooFewAgents):
        build_deviator_reporting(screen1, 0, DirectMechanism(owner=0, p=TRUTHFUL), {1: truthful})
    with pytest.raises(ValueError, match="missing punishment entry for principal index 1"):
        build_deviator_reporting(g, 0, truthful, {})
    with pytest.raises(NotBIC, match="default table"):
        build_deviator_reporting(g, 0, swapped, {1: truthful})
    with pytest.raises(NotBIC, match="punishment for principal index 1"):
        build_deviator_reporting(g, 0, truthful, {1: swapped})


@pytest.mark.parametrize("key", [0, 7, -1])
def test_deviator_reporting_rejects_punishment_keys_of_no_other_principal(key):
    # an entry for the owner or for no principal would be read and never used
    g = random_game(np.random.default_rng(7), num_principals=2, num_agents=3,
                    type_sizes=[2, 1, 1], action_sizes=[2, 2])
    own = sample_bic(g, 0, 3)
    with pytest.raises(ValueError, match=f"^punishment entry for principal index {key}, "
                                         "which is not another principal$"):
        build_deviator_reporting(g, 0, own, {1: own, key: own})


@pytest.mark.parametrize("case", ["menu entry", "default table", "punishment"])
def test_builders_reject_another_principals_table(case):
    # P2's BIC table passes P2's IC rows but breaks P1's, so building a P1
    # mechanism around it must fail on its owner before any BIC check
    agents = 1 if case == "menu entry" else 3
    g = random_game(np.random.default_rng(7), num_principals=2, num_agents=agents,
                    type_sizes=[2, 1, 1][:agents], action_sizes=[2, 2])
    foreign = sample_bic(g, 1, 1)
    assert is_individually_bic(g, foreign).ok
    as_p1 = DirectMechanism(owner=0, p=foreign.p)
    assert build_bic_polytope(g, 0).ic_values(as_p1).min() == pytest.approx(-1.147, abs=1e-3)
    own = sample_bic(g, 0, 3)
    with pytest.raises(ValueError, match=f"^{case}.* is not principal 0's DirectMechanism"):
        if case == "menu entry":
            build_type_and_dm_mechanism(g, 0, [own, foreign])
        elif case == "default table":
            build_deviator_reporting(g, 0, foreign, {1: own})
        else:
            build_deviator_reporting(g, 0, own, {1: foreign})


def test_truthful_play_reports_types_or_owner_and_type(mp2):
    assert deviator_truthful_strategies is truthful_strategies
    uni = [DirectMechanism(owner=j, p=np.array([[0.5, 0.5]])) for j in range(2)]
    mechs = [build_deviator_reporting(mp2, 0, uni[0], {1: uni[0]}),
             standard_from_direct(mp2, uni[1])]
    strat = truthful_strategies(mp2, mechs)
    for i in range(3):
        # the message sets are ("P1:x", "P2:x") and ("x",)
        np.testing.assert_array_equal(strat.agent_messages[(i, 0)], [[1.0, 0.0]])
        np.testing.assert_array_equal(strat.agent_messages[(i, 1)], [[1.0]])
    odd = GeneralMechanism(owner=1, principal_messages=("*",),
                           agent_messages=(("u", "v"), ("x",), ("x",)),
                           outcome=np.full((1, 2, 1, 1, 2), 0.5))
    with pytest.raises(ValueError, match=r"principal 1 takes neither plain type reports "
                                         r"nor \(owner, type\) messages from agent 0"):
        truthful_strategies(mp2, [mechs[0], odd])


def test_general_mechanism_validation():
    with pytest.raises(ValueError, match="does not match"):
        GeneralMechanism(owner=0, principal_messages=("*",),
                         agent_messages=(("u",),), outcome=np.ones((2, 1, 2)) / 2)
    with pytest.raises(ValueError, match="sum to 1"):
        GeneralMechanism(owner=0, principal_messages=("*",),
                         agent_messages=(("u",),), outcome=np.full((1, 1, 2), 0.4))
    with pytest.raises(ValueError, match="nonnegative"):
        GeneralMechanism(owner=0, principal_messages=("*",),
                         agent_messages=(("u",),),
                         outcome=np.array([[[1.5, -0.5]]]))
    flat = np.full((2, 1, 2), 0.5)
    with pytest.raises(ValueError, match="standard flag inconsistent"):
        GeneralMechanism(owner=0, principal_messages=("m0", "m1"),
                         agent_messages=(("u",),), outcome=flat, standard=False)
    varying = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    with pytest.raises(ValueError, match="standard flag inconsistent"):
        GeneralMechanism(owner=0, principal_messages=("m0", "m1"),
                         agent_messages=(("u",),), outcome=varying, standard=True)


def test_strategy_profile_validation(screen1):
    menu = [DirectMechanism(owner=0, p=UNIFORM), DirectMechanism(owner=0, p=TRUTHFUL)]
    mechs = [build_type_and_dm_mechanism(screen1, 0, menu), _p2_stub(screen1)]
    good = truthful_strategies(screen1, mechs)
    good.validate(screen1, mechs)
    bad = StrategyProfile(principal_messages={0: np.array([1.0]),
                                              1: np.array([1.0])},
                          agent_messages=good.agent_messages)
    with pytest.raises(ValueError, match="wrong shape"):
        bad.validate(screen1, mechs)
    am = dict(good.agent_messages)
    am[(0, 0)] = np.array([[0.7, 0.7], [0.5, 0.5]])
    with pytest.raises(ValueError, match="sum to 1"):
        StrategyProfile(good.principal_messages, am).validate(screen1, mechs)
    am[(0, 0)] = np.array([[1.5, -0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="negative"):
        StrategyProfile(good.principal_messages, am).validate(screen1, mechs)


def test_set_valued_contract_validation():
    d = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="missing entry"):
        SetValuedContract(owner=0, agent_messages=(("u", "v"),), n_actions=2,
                          table={(0,): (d,)})
    with pytest.raises(ValueError, match="empty"):
        SetValuedContract(owner=0, agent_messages=(("u",),), n_actions=2,
                          table={(0,): ()})
    with pytest.raises(ValueError, match="invalid distribution"):
        SetValuedContract(owner=0, agent_messages=(("u",),), n_actions=2,
                          table={(0,): (np.array([0.9, 0.3]),)})


# -- continuation equilibrium ------------------------------------------------------


def test_ce_check_flags_misreporting_incentive(screen1):
    mechs = _screen_pair(screen1, SWAPPED)
    verdict = check_continuation_equilibrium(
        screen1, mechs, truthful_strategies(screen1, mechs))
    assert not verdict
    assert verdict.worst_gain == pytest.approx(1.0)
    assert verdict.witness == ("agent", "A1", "L", "P1", "H")


def test_ce_check_accepts_truthful_screening(screen1):
    mechs = _screen_pair(screen1, TRUTHFUL)
    verdict = check_continuation_equilibrium(
        screen1, mechs, truthful_strategies(screen1, mechs))
    assert verdict.ok
    assert verdict.worst_gain == 0.0
    assert verdict.witness is None


def _value_screening_game():
    """Screening game where principal 1 is paid only for action b."""
    types = (("L", "H"),)
    actions = (("a", "b"), ("z",))
    u11 = np.array([[1.0, 0.0], [0.0, 1.0]])
    v1 = np.zeros((2, 2, 1))
    v1[:, 1, 0] = 1.0
    return FiniteGame(
        type_spaces=types, action_spaces=actions, prior=np.array([0.5, 0.5]),
        agent_utils=((u11, np.zeros((2, 1))),),
        principal_utils=(v1, np.zeros((2, 2, 1))),
    )


def test_ce_check_flags_principal_menu_deviation():
    g = _value_screening_game()
    menu = [DirectMechanism(owner=0, p=UNIFORM), DirectMechanism(owner=0, p=CONST_B)]
    mechs = [build_type_and_dm_mechanism(g, 0, menu), _p2_stub(g)]
    strat = pure_strategies(
        g, mechs, {0: "dm0", 1: "*"},
        {(0, 0): {"L": "L", "H": "H"}, (0, 1): {"L": "L", "H": "H"}},
    )
    verdict = check_continuation_equilibrium(g, mechs, strat)
    assert not verdict
    assert verdict.worst_gain == pytest.approx(0.5)
    assert verdict.witness == ("principal", "P1", "dm1")


def test_enumerate_ce_screening_swapped_reports(screen1):
    mechs = _screen_pair(screen1, SWAPPED)
    found = enumerate_pure_continuation_equilibria(screen1, mechs)
    # reports to the first principal are pinned (strict gains); the stub
    # mechanism leaves the agent indifferent over its 2^2 report maps
    assert len(found) == 4
    for strat in found:
        induced = induce_profile(screen1, mechs, strat)
        np.testing.assert_array_equal(induced[0].p, TRUTHFUL)


def test_enumerate_ce_counts_indifferent_drm_profile(mp2):
    uni = {0: DirectMechanism(owner=0, p=np.array([[0.5, 0.5]])),
           1: DirectMechanism(owner=1, p=np.array([[0.5, 0.5]]))}
    mechs = [build_deviator_reporting(mp2, 0, uni[0], {1: uni[0]}),
             build_deviator_reporting(mp2, 1, uni[1], {0: uni[1]})]
    found = enumerate_pure_continuation_equilibria(mp2, mechs)
    # 2 messages per agent per mechanism, all payoff-equivalent: 2^3 per side
    assert len(found) == 64
    for strat in found:
        assert check_continuation_equilibrium(mp2, mechs, strat).ok


def test_ce_implies_induced_tables_bic(rng):
    total = 0
    for _ in range(15):
        sizes = [int(rng.integers(1, 3)) for _ in range(2)]
        g = random_game(rng, num_principals=2, num_agents=2, type_sizes=sizes)
        mechs = []
        for j in range(2):
            n_a = len(g.action_spaces[j])
            shape = (2, 2, 2, n_a)
            flat = rng.dirichlet(np.ones(n_a), size=8)
            mechs.append(GeneralMechanism(
                owner=j, principal_messages=("m0", "m1"),
                agent_messages=(("s0", "s1"), ("s0", "s1")),
                outcome=flat.reshape(shape),
            ))
        for strat in enumerate_pure_continuation_equilibria(g, mechs):
            total += 1
            for dm in induce_profile(g, mechs, strat):
                assert is_individually_bic(g, dm, tol=1e-8).ok
    assert total > 0


# -- equilibrium notions -------------------------------------------------------------


def test_notion_skips_identical_deviation(screen1):
    mechs = _screen_pair(screen1, TRUTHFUL)
    strat = truthful_strategies(screen1, mechs)
    verdict = check_equilibrium_notion(
        screen1, mechs, strat, {0: [mechs[0]]}, notion="pbe")
    assert verdict.ok
    assert verdict.checks == []
    assert verdict.infeasible == []


def test_notion_computes_each_on_path_blocks_once(mp2, monkeypatch):
    # one call per on-path mechanism some subgame needs, in the first subgame
    # that needs it, plus one per group of same-shaped deviations that are not
    # skipped, in the subgame of the group's first member
    mechs = [_mp_std(mp2, 0, [0.5, 0.5]), _mp_std(mp2, 1, [0.5, 0.5])]
    strat = truthful_strategies(mp2, mechs)
    menus = [_vertex_menu(mp2, j) for j in range(2)]
    pure = _mp_std(mp2, 0, [1.0, 0.0])
    other = _mp_std(mp2, 0, [0.0, 1.0])
    seen = []
    blocks = mechpoly.mechanisms._agent_optimal_blocks

    def recording(g, batch, tol):
        seen.append([id(m) for m in batch])
        return blocks(g, batch, tol)

    monkeypatch.setattr(mechpoly.mechanisms, "_agent_optimal_blocks", recording)
    for devs, want in [
            ({0: [menus[0], mechs[0], pure], 1: [menus[1]]},
             [[menus[0]], [mechs[1]], [pure], [mechs[0]], [menus[1]]]),
            ({0: [menus[0], pure], 1: [mechs[1]]}, [[menus[0]], [mechs[1]], [pure]]),
            ({0: [pure, menus[0], mechs[0], other]}, [[pure, other], [mechs[1]], [menus[0]]]),
            ({0: [mechs[0]], 1: [mechs[1]]}, [])]:
        seen.clear()
        check_equilibrium_notion(mp2, mechs, strat, devs, notion="robust")
        assert seen == [[id(m) for m in batch] for batch in want]


def test_notion_rejects_empty_deviation_sets(screen1):
    mechs = _screen_pair(screen1, TRUTHFUL)
    strat = truthful_strategies(screen1, mechs)
    with pytest.raises(DeviationSetEmpty):
        check_equilibrium_notion(screen1, mechs, strat, {0: [], 1: []}, notion="pbe")
    with pytest.raises(ValueError, match="unknown notion"):
        check_equilibrium_notion(screen1, mechs, strat, {0: [mechs[0]]},
                                 notion="sequential")


def test_notion_rejects_deviation_of_another_principal(mp2, rng):
    # equal action counts: a verdict used to be built from P2's utilities;
    # unequal counts: a broadcast error; an unknown key: IndexError
    unequal = random_game(rng, num_principals=2, num_agents=1, type_sizes=[1],
                          action_sizes=[2, 3])
    for g in (mp2, unequal):
        mechs = [standard_from_direct(g, DirectMechanism(
            owner=j, p=np.full((1, len(g.action_spaces[j])), 1.0 / len(g.action_spaces[j]))))
            for j in range(2)]
        strat = truthful_strategies(g, mechs)
        with pytest.raises(ValueError, match="deviation 1 for principal P1 is owned "
                                             "by principal index 1"):
            check_equilibrium_notion(g, mechs, strat,
                                     {0: [_vertex_menu(g, 0), _vertex_menu(g, 1)]},
                                     notion="robust")
        with pytest.raises(ValueError, match="deviation key 2 is not a principal index"):
            check_equilibrium_notion(g, mechs, strat, {2: [_vertex_menu(g, 1)]},
                                     notion="robust")


def test_mechanisms_must_be_owned_by_their_position(mp2):
    # swapped standard mechanisms used to pass the on-path check, with P2's
    # table at position 0 and payoffs read at the other principal's index
    mechs = [_mp_std(mp2, 1, [0.5, 0.5]), _mp_std(mp2, 0, [0.5, 0.5])]
    strat = truthful_strategies(mp2, mechs)
    with pytest.raises(ValueError, match="mechanism for principal P1 is owned by principal "
                                         "index 1"):
        check_continuation_equilibrium(mp2, mechs, strat)
    with pytest.raises(ValueError, match="mechanism for principal P1 is owned"):
        check_equilibrium_notion(mp2, mechs, strat, {0: [_mp_std(mp2, 0, [1.0, 0.0])]},
                                 notion="robust")


def test_mechanisms_must_fit_the_game(rng):
    # one agent, actions [2, 3]: a 2-action deviation for P2 or a 3-action
    # on-path mechanism for P1 used to fail inside a numpy matmul
    g = random_game(rng, num_principals=2, num_agents=1, type_sizes=[1], action_sizes=[2, 3])

    def table(j, n):
        return standard_from_direct(g, DirectMechanism(owner=j, p=np.full((1, n), 1.0 / n)))

    mechs = [table(0, 2), table(1, 3)]
    strat = truthful_strategies(g, mechs)
    two_agents = GeneralMechanism(owner=1, principal_messages=("d0",),
                                  agent_messages=(("s0",), ("s0",)),
                                  outcome=np.full((1, 1, 1, 3), 1.0 / 3))
    with pytest.raises(ValueError, match="deviation 0 for principal P2 has 2 actions, "
                                         "the game gives it 3"):
        check_equilibrium_notion(g, mechs, strat, {1: [table(1, 2)]}, notion="robust")
    with pytest.raises(ValueError, match="deviation 1 for principal P2 has 2 agent message "
                                         "sets, the game needs 1"):
        check_equilibrium_notion(g, mechs, strat, {1: [table(1, 3), two_agents]},
                                 notion="pbe")
    wide = [table(0, 3), mechs[1]]
    with pytest.raises(ValueError, match="mechanism for principal P1 has 3 actions, "
                                         "the game gives it 2"):
        check_continuation_equilibrium(g, wide, strat)
    with pytest.raises(ValueError, match="mechanism for principal P1 has 3 actions"):
        check_equilibrium_notion(g, wide, strat, {1: [table(1, 3)]}, notion="robust")


def test_profiles_need_one_mechanism_per_principal(mp2):
    # a one-mechanism profile used to pass the on-path check, enumerate, and
    # end in IndexError in simulate and check_equilibrium_notion
    mechs = [_mp_std(mp2, 0, [0.5, 0.5]), _mp_std(mp2, 1, [0.5, 0.5])]
    strat = truthful_strategies(mp2, mechs)
    short = mechs[:1]
    count = "1 mechanisms for 2 principals"
    with pytest.raises(ValueError, match=count):
        simulate(mp2, short, strat, seed=1, rounds=5)
    with pytest.raises(ValueError, match=count):
        check_continuation_equilibrium(mp2, short, strat)
    with pytest.raises(ValueError, match=count):
        enumerate_pure_continuation_equilibria(mp2, short)
    with pytest.raises(ValueError, match=count):
        check_equilibrium_notion(mp2, short, strat, {0: [_mp_std(mp2, 0, [1.0, 0.0])]},
                                 notion="robust")


def test_continuation_space_over_cap_raises(mp2, monkeypatch):
    # agents are indifferent, so all 2 * 2**3 = 16 candidates of each message
    # mechanism are blocks and the combo grid holds 256 cells
    mechs = [GeneralMechanism(owner=j, principal_messages=("d0", "d1"),
                              agent_messages=(("s0", "s1"),) * 3,
                              outcome=np.full((2, 2, 2, 2, 2), 0.5)) for j in range(2)]
    assert len(enumerate_pure_continuation_equilibria(mp2, mechs)) == 256
    monkeypatch.setattr(mechpoly.mechanisms, "COMBO_CAP", 255)
    with pytest.raises(ContinuationSpaceTooLarge, match="more than 255 combos"):
        enumerate_pure_continuation_equilibria(mp2, mechs)
    monkeypatch.setattr(mechpoly.mechanisms, "COMBO_CAP", 15)
    with pytest.raises(ContinuationSpaceTooLarge, match="16 pure candidates"):
        enumerate_pure_continuation_equilibria(mp2, mechs)


def _constant_mechanism(j, n_m0, n_msgs, row):
    """A three-agent message mechanism that plays ``row`` whatever is sent."""
    return GeneralMechanism(
        owner=j, principal_messages=tuple(f"d{m}" for m in range(n_m0)),
        agent_messages=(tuple(f"s{m}" for m in range(n_msgs)),) * 3,
        outcome=np.broadcast_to(row, (n_m0,) + (n_msgs,) * 3 + (len(row),)))


def _first_messages(g, mechs):
    """Every sender sends its first message."""
    return StrategyProfile(
        principal_messages={j: np.eye(len(m.principal_messages))[0] for j, m in enumerate(mechs)},
        agent_messages={(i, j): np.eye(len(m.agent_messages[i]))[[0] * len(g.type_spaces[i])]
                        for j, m in enumerate(mechs) for i in range(g.num_agents)})


def test_group_over_cap_after_a_smaller_deviation_raises_in_menu_order(mp2, monkeypatch):
    # a deviation's blocks come from its group's kernel call, made where the
    # group's first member is reached, so what raises is what the loop over
    # deviations raised first: the smaller deviation's 16 x 16 combos when
    # they exceed the cap, else the group's 4 * 3**3 candidates (agents are
    # indifferent, so every candidate is a block)
    group = [_constant_mechanism(0, 4, 3, row) for row in ([0.25, 0.75], [0.75, 0.25])]
    monkeypatch.setattr(mechpoly.mechanisms, "COMBO_CAP", 100)
    mechs = [_constant_mechanism(j, 2, 2, [0.5, 0.5]) for j in range(2)]
    smaller = _constant_mechanism(0, 2, 2, [1.0, 0.0])
    with pytest.raises(ContinuationSpaceTooLarge,
                       match=r"^continuation blocks \(16, 16\) make more than 100 combos$"):
        check_equilibrium_notion(mp2, mechs, _first_messages(mp2, mechs),
                                 {0: [smaller, *group]}, notion="robust")
    mechs[0] = _mp_std(mp2, 0, [0.5, 0.5])
    with pytest.raises(ContinuationSpaceTooLarge,
                       match="^mechanism of principal index 0 has 108 pure candidates, "
                             "more than 100$"):
        check_equilibrium_notion(mp2, mechs, _first_messages(mp2, mechs),
                                 {0: [_mp_std(mp2, 0, [1.0, 0.0]), *group]}, notion="robust")


def test_batched_menu_matches_loop_oracle(rng):
    # one principal's menu: an on-path duplicate, three deviations of one
    # shape (two non-standard, one standard) and a vertex menu of another
    # shape; the other principal's menu mixes the same kinds
    g = random_game(rng, num_principals=2, num_agents=2, type_sizes=[2, 1],
                    action_sizes=[2, 3])

    def message(j, standard):
        n_a = len(g.action_spaces[j])
        outcome = rng.dirichlet(np.ones(n_a), size=(2, 2, 2))
        if standard:
            outcome[1] = outcome[0]
        return GeneralMechanism(owner=j, principal_messages=("d0", "d1"),
                                agent_messages=(("s0", "s1"), ("s0", "s1")), outcome=outcome)

    mechs = [standard_from_direct(g, sample_bic(g, j, seed=j)) for j in range(2)]
    strat = truthful_strategies(g, mechs)
    devs = {j: [message(j, False), mechs[j], _vertex_menu(g, j), message(j, True),
                message(j, False)] for j in range(2)}
    induced = continuation_oracle.induce_profile(g, mechs, strat)
    eq_payoffs = [expected_principal_payoff(g, j, induced) for j in range(2)]
    batches = []
    blocks = mechpoly.mechanisms._agent_optimal_blocks

    def recording(g, batch, tol):
        batches.append(len(batch))
        return blocks(g, batch, tol)

    for notion in ("pbe", "robust", "strongly-robust"):
        batches.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mechpoly.mechanisms, "_agent_optimal_blocks", recording)
            verdict = check_equilibrium_notion(g, mechs, strat, devs, notion)
        # P1's three message deviations, P2's on-path mechanism, P1's vertex
        # menu; then P1's on-path mechanism and P2's menu in the same order
        assert batches == [3, 1, 1, 1, 3, 1]
        checks, infeasible = continuation_oracle.notion_checks(g, mechs, eq_payoffs, devs,
                                                               notion)
        assert _hex_records(verdict.checks) == _hex_records(checks)
        assert verdict.infeasible == infeasible
        assert len(checks) + len(infeasible) == 8


def _hex_records(records):
    return [{k: v.hex() if isinstance(v, float) else v for k, v in r.items()} for r in records]


def _vertex_menu(g, j):
    n_a = len(g.action_spaces[j])
    menu = []
    for a in range(n_a):
        p = np.zeros((g.num_profiles, n_a))
        p[:, a] = 1.0
        menu.append(DirectMechanism(owner=j, p=p))
    return build_type_and_dm_mechanism(g, j, menu)


def test_notion_rejects_dominated_profile(mp2):
    mechs = [_mp_std(mp2, 0, [1.0, 0.0]), _mp_std(mp2, 1, [0.0, 1.0])]
    strat = truthful_strategies(mp2, mechs)
    verdict = check_equilibrium_notion(
        mp2, mechs, strat, {0: [_vertex_menu(mp2, 0)]}, notion="robust")
    assert verdict.on_path.ok
    assert not verdict.ok and not verdict
    assert len(verdict.checks) == 1
    check = verdict.checks[0]
    assert check["principal"] == "P1"
    assert check["n_continuation_equilibria"] == 1
    assert check["value"] == pytest.approx(1.0)
    assert check["equilibrium_payoff"] == pytest.approx(0.0)
    assert not check["ok"]


def test_notion_accepts_uniform_profile_with_reporting_backing(mp2):
    uni = {j: DirectMechanism(owner=j, p=np.array([[0.5, 0.5]])) for j in range(2)}
    mechs = [build_deviator_reporting(mp2, 0, uni[0], {1: uni[0]}),
             build_deviator_reporting(mp2, 1, uni[1], {0: uni[1]})]
    strat = deviator_truthful_strategies(mp2, mechs)
    verdict = check_equilibrium_notion(
        mp2, mechs, strat,
        {0: [_vertex_menu(mp2, 0)], 1: [_vertex_menu(mp2, 1)]},
        notion="robust")
    assert verdict.ok
    assert verdict.equilibrium_payoffs == pytest.approx([0.5, 0.5])
    assert len(verdict.checks) == 2
    for check in verdict.checks:
        assert check["ok"]
        assert check["value"] == pytest.approx(0.5)


def test_notion_records_infeasible_subgame(mp2):
    menus = [_vertex_menu(mp2, 0), _vertex_menu(mp2, 1)]
    mechs = [_mp_std(mp2, 0, [0.5, 0.5]), menus[1]]
    strat = pure_strategies(
        mp2, mechs, {0: "*", 1: "dm0"},
        {(i, j): {"x": "x"} for i in range(3) for j in range(2)},
    )
    # the deviation subgame is a pure matching-pennies stage: no pure CE
    verdict = check_equilibrium_notion(
        mp2, mechs, strat, {0: [menus[0]]}, notion="pbe")
    assert verdict.ok
    assert verdict.checks == []
    assert verdict.infeasible == [("P1", 0)]


def test_notion_values_are_ordered(rng):
    orders = []
    for _ in range(8):
        g = random_game(rng, num_principals=2, num_agents=3,
                        type_sizes=[1, 1, 1], action_sizes=[2, 2],
                        zero_agent_payoffs=True)
        mechs = [
            standard_from_direct(
                g, DirectMechanism(owner=j, p=rng.dirichlet(np.ones(2), size=1)))
            for j in range(2)
        ]
        strat = truthful_strategies(g, mechs)
        devs = {j: [_vertex_menu(g, j)] for j in range(2)}
        by_notion = {
            n: check_equilibrium_notion(g, mechs, strat, devs, notion=n)
            for n in ("pbe", "robust", "strongly-robust")
        }
        for c_pbe, c_rob, c_str in zip(by_notion["pbe"].checks,
                                       by_notion["robust"].checks,
                                       by_notion["strongly-robust"].checks):
            assert c_pbe["value"] <= c_rob["value"] + 1e-12
            assert c_rob["value"] <= c_str["value"] + 1e-12
        if by_notion["strongly-robust"].ok:
            assert by_notion["robust"].ok
        if by_notion["robust"].ok:
            assert by_notion["pbe"].ok
        orders.append(by_notion["pbe"].ok)
    assert any(orders) or True  # the loop itself is the assertion surface


# -- simulation ----------------------------------------------------------------------


def test_simulate_uniform_matching_pennies(mp2):
    mechs = [_mp_std(mp2, 0, [0.5, 0.5]), _mp_std(mp2, 1, [0.5, 0.5])]
    strat = truthful_strategies(mp2, mechs)
    out = simulate(mp2, mechs, strat, seed=5, rounds=20000)
    assert out["rounds"] == 20000
    assert set(out["action_profile_freq"]) == {"H,H", "H,T", "T,H", "T,T"}
    assert sum(out["action_profile_freq"].values()) == pytest.approx(1.0)
    for rec in out["principals"]:
        assert rec["stderr"] > 0.0
        assert abs(rec["mean"] - 0.5) <= 4 * rec["stderr"]
    for rec in out["agents"]:
        assert rec["mean"] == 0.0
        assert rec["stderr"] == 0.0
    assert out == simulate(mp2, mechs, strat, seed=5, rounds=20000)
    assert out != simulate(mp2, mechs, strat, seed=6, rounds=20000)


def test_simulate_single_round(mp2):
    mechs = [_mp_std(mp2, 0, [1.0, 0.0]), _mp_std(mp2, 1, [1.0, 0.0])]
    strat = truthful_strategies(mp2, mechs)
    out = simulate(mp2, mechs, strat, seed=1, rounds=1)
    assert out["principals"][0]["mean"] == 1.0
    assert out["principals"][0]["stderr"] == 0.0
    assert out["action_profile_freq"] == {"H,H": 1.0}


def test_simulate_counts_action_profiles_as_sorted_unique_rows(rng, monkeypatch):
    # three principals with skewed tables, so some action profiles never occur
    g = random_game(rng, num_principals=3, num_agents=1, type_sizes=[2],
                    action_sizes=[2, 3, 2])
    tables = [np.array([[0.9, 0.1], [0.6, 0.4]]), np.array([[0.0, 0.7, 0.3], [0.1, 0.0, 0.9]]),
              np.array([[0.5, 0.5], [1.0, 0.0]])]
    mechs = [standard_from_direct(g, DirectMechanism(owner=j, p=t)) for j, t in enumerate(tables)]
    draws = []
    sample_cdf = mechpoly.mechanisms._sample_cdf

    def recording(rng, cdf, row):
        draws.append(sample_cdf(rng, cdf, row))
        return draws[-1]

    monkeypatch.setattr(mechpoly.mechanisms, "_sample_cdf", recording)
    out = simulate(g, mechs, truthful_strategies(g, mechs), seed=3, rounds=500)
    joint = np.stack(draws[2::3], axis=1)    # per principal: m_0, the agent, the action
    rows, counts = np.unique(joint, axis=0, return_counts=True)
    want = {",".join(g.action_spaces[j][a] for j, a in enumerate(r)): float(c / 500)
            for r, c in zip(rows, counts)}
    assert list(out["action_profile_freq"].items()) == list(want.items())
    assert len(want) < 12


def test_sample_rows_clamps_draws_past_a_short_row():
    from mechpoly.mechanisms import _sample_cdf

    class StubRng:
        def random(self, n):
            return np.full(n, 1.0 - 1e-10)

    # validation accepts rows summing to 1 - 5e-10; the draw lies above that
    rows = np.array([[0.5, 0.5 - 5e-10], [0.25, 0.75]])
    assert _sample_cdf(StubRng(), np.cumsum(rows, axis=1), np.arange(2)).tolist() == [1, 1]


def test_simulate_rejects_inputs_it_would_mis_sample(mp2):
    # at rounds 0 the means were NaN; an agent row wider than its message set
    # would fold into another outcome cell
    mechs = [_mp_std(mp2, 0, [0.5, 0.5]), _mp_std(mp2, 1, [0.5, 0.5])]
    strat = truthful_strategies(mp2, mechs)
    for rounds in (0, -3):
        with pytest.raises(ValueError, match="rounds must be at least 1"):
            simulate(mp2, mechs, strat, seed=0, rounds=rounds)
    wide = StrategyProfile(principal_messages=strat.principal_messages,
                           agent_messages={**strat.agent_messages, (0, 0): np.array([[0.0, 1.0]])})
    with pytest.raises(ValueError, match=r"agent 0 strategy for principal 0: shape \(1, 2\)"):
        simulate(mp2, mechs, wide, seed=0, rounds=10)
    with pytest.raises(ValueError, match="mechanism for principal P1 is owned"):
        simulate(mp2, mechs[::-1], strat, seed=0, rounds=10)


# -- files ---------------------------------------------------------------------------


def test_general_mechanism_round_trip(tmp_path, screen1):
    menu = [DirectMechanism(owner=0, p=UNIFORM), DirectMechanism(owner=0, p=TRUTHFUL)]
    mech = build_type_and_dm_mechanism(screen1, 0, menu)
    path = tmp_path / "menu.json"
    save_general_mechanism(screen1, mech, path)
    back = load_general_mechanism(screen1, path)
    assert back.owner == mech.owner
    assert back.principal_messages == mech.principal_messages
    assert back.agent_messages == mech.agent_messages
    assert back.standard == mech.standard
    np.testing.assert_array_equal(back.outcome, mech.outcome)


def test_general_mechanism_dict_errors(screen1):
    menu = [DirectMechanism(owner=0, p=UNIFORM), DirectMechanism(owner=0, p=TRUTHFUL)]
    mech = build_type_and_dm_mechanism(screen1, 0, menu)
    doc = general_mechanism_to_dict(screen1, mech)

    bad = json.loads(json.dumps(doc))
    del bad["standard"]
    with pytest.raises(GameFormatError, match="missing field") as exc:
        general_mechanism_from_dict(screen1, bad)
    assert exc.value.path.endswith("standard")

    bad = json.loads(json.dumps(doc))
    bad["standard"] = True
    with pytest.raises(GameFormatError, match="standard flag inconsistent"):
        general_mechanism_from_dict(screen1, bad)

    bad = json.loads(json.dumps(doc))
    bad["owner"] = "P9"
    with pytest.raises(GameFormatError, match="unknown principal"):
        general_mechanism_from_dict(screen1, bad)

    bad = json.loads(json.dumps(doc))
    bad["outcome_rows"].append(dict(bad["outcome_rows"][0]))
    with pytest.raises(GameFormatError, match="duplicate outcome row"):
        general_mechanism_from_dict(screen1, bad)

    bad = json.loads(json.dumps(doc))
    bad["outcome_rows"].pop()
    with pytest.raises(GameFormatError, match="no outcome row"):
        general_mechanism_from_dict(screen1, bad)

    bad = json.loads(json.dumps(doc))
    bad["outcome_rows"][0]["m"][1] = "M"
    with pytest.raises(GameFormatError, match="unknown message"):
        general_mechanism_from_dict(screen1, bad)

    bad = json.loads(json.dumps(doc))
    bad["outcome_rows"][0]["dist"] = {"q": 1.0}
    with pytest.raises(GameFormatError, match="unknown action label"):
        general_mechanism_from_dict(screen1, bad)

    for p in ("0.5", True):
        bad = json.loads(json.dumps(doc))
        bad["outcome_rows"][0]["dist"] = {"a": p, "b": 0.5}
        with pytest.raises(GameFormatError, match="expected a finite number") as exc:
            general_mechanism_from_dict(screen1, bad)
        assert exc.value.path == "$.outcome_rows[0].dist.a"


def test_strategies_round_trip(tmp_path, screen1):
    menu = [DirectMechanism(owner=0, p=UNIFORM), DirectMechanism(owner=0, p=TRUTHFUL)]
    mechs = [build_type_and_dm_mechanism(screen1, 0, menu), _p2_stub(screen1)]
    strat = StrategyProfile(
        principal_messages={0: np.array([0.25, 0.75]), 1: np.array([1.0])},
        agent_messages={(0, 0): np.array([[0.5, 0.5], [0.125, 0.875]]),
                        (0, 1): TRUTHFUL.copy()},
    )
    path = tmp_path / "strategies.json"
    save_strategies(screen1, mechs, strat, path)
    back = load_strategies(screen1, mechs, path)
    for j in range(2):
        np.testing.assert_array_equal(back.principal_messages[j],
                                      strat.principal_messages[j])
        np.testing.assert_array_equal(back.agent_messages[(0, j)],
                                      strat.agent_messages[(0, j)])

    other = [build_type_and_dm_mechanism(screen1, 0, menu[:1]), mechs[1]]
    assert (mechanism_profile_hash(screen1, other)
            != mechanism_profile_hash(screen1, mechs))
    with pytest.raises(GameFormatError, match="different mechanism profile"):
        load_strategies(screen1, other, path)

    doc = strategies_to_dict(screen1, mechs, strat)
    key = next(k for k in doc["entries"] if k.startswith("principal:P1"))
    del doc["entries"][key]
    with pytest.raises(GameFormatError, match="missing entry"):
        strategies_from_dict(screen1, mechs, doc)

    for p in ("0.25", True):
        doc = strategies_to_dict(screen1, mechs, strat)
        doc["entries"][key] = {"dm0": p, "dm1": 0.75}
        with pytest.raises(GameFormatError, match="expected a finite number") as exc:
            strategies_from_dict(screen1, mechs, doc)
        assert exc.value.path == f"$.entries.{key}.dm0"
