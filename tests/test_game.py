import itertools
import json

import numpy as np
import pytest

from mechpoly import (
    DirectMechanism,
    FiniteGame,
    GameFormatError,
    NotSeparable,
    conditional_prior,
    contract_opponents,
    decompose_separable,
    expected_principal_payoff,
    game_from_dict,
    game_hash,
    game_to_dict,
    load_game,
    mechanism_from_dict,
    mechanism_to_dict,
    profile_from_list,
    profile_to_list,
    random_game,
    save_game,
    validate_game,
)


def _two_agent_game(prior):
    """2 agents x 2 types, 2 principals x 2 actions, all payoffs zero."""
    zeros = tuple(tuple(np.zeros((4, 2)) for _ in range(2)) for _ in range(2))
    return FiniteGame(
        type_spaces=(("l", "r"), ("u", "d")),
        action_spaces=(("A", "B"), ("C", "D")),
        prior=np.asarray(prior, dtype=float),
        agent_utils=zeros,
        principal_utils=(np.zeros((4, 2, 2)), np.zeros((4, 2, 2))),
    )


def test_profile_enumeration_order():
    rng = np.random.default_rng(0)
    g = random_game(rng, num_agents=2, type_sizes=[2, 3])
    # the last agent's type varies fastest
    expect = list(itertools.product(range(2), range(3)))
    assert [tuple(row) for row in g.profiles] == expect
    assert g.profile_index(("t11", "t22")) == 5
    assert g.profile_labels(5) == ("t11", "t22")
    assert g.replace_type(5, 0, 0) == 2
    assert g.replace_type(5, 1, 0) == 3


def test_conditional_prior_matches_bayes():
    g = _two_agent_game([0.4, 0.1, 0.3, 0.2])
    np.testing.assert_allclose(conditional_prior(g, 0, 0), [0.8, 0.2])
    np.testing.assert_allclose(conditional_prior(g, 1, 1), [1 / 3, 2 / 3])
    # labels work too
    np.testing.assert_allclose(conditional_prior(g, 0, "r"), [0.6, 0.4])
    assert g.type_marginal(0, 0) == pytest.approx(0.5)
    assert g.type_marginal(1, 1) == pytest.approx(0.3)


def test_conditional_prior_zero_mass_raises():
    g = _two_agent_game([0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="zero prior mass"):
        conditional_prior(g, 0, "r")
    res = validate_game(g)
    assert res.ok
    assert any("zero prior mass" in w for w in res.warnings)


def expected_agent_component(g, agent, principal, dist, x):
    """E[u_ik(a_k, x)] under one action distribution at a fixed type profile."""
    return float(np.dot(np.asarray(dist, dtype=float), g.agent_utils[agent][principal][x]))


def agent_expected_payoff(g, agent, dists, x):
    """Full agent payoff at profile x: the sum of per-principal components."""
    return sum(expected_agent_component(g, agent, k, dists[k], x)
               for k in range(g.num_principals))


def principal_value_at_profile(g, principal, dists, x):
    """E[v_j(a, x)] when each principal k plays action distribution dists[k]."""
    t = g.principal_utils[principal][x]
    for d in dists:
        t = np.tensordot(np.asarray(d, dtype=float), t, axes=(0, 0))
    return float(t)


def test_expected_payoffs_match_enumeration(rng):
    g = random_game(rng, num_agents=2, type_sizes=[2, 2], action_sizes=[2, 3])
    for x in range(g.num_profiles):
        d1 = rng.dirichlet(np.ones(2))
        d2 = rng.dirichlet(np.ones(3))
        for i in range(g.num_agents):
            brute = sum(
                d1[a1] * d2[a2] * (g.agent_utils[i][0][x, a1] + g.agent_utils[i][1][x, a2])
                for a1 in range(2) for a2 in range(3)
            )
            assert agent_expected_payoff(g, i, [d1, d2], x) == pytest.approx(brute, abs=1e-12)
        for j in range(2):
            brute = sum(
                d1[a1] * d2[a2] * g.principal_utils[j][x, a1, a2]
                for a1 in range(2) for a2 in range(3)
            )
            assert principal_value_at_profile(g, j, [d1, d2], x) == pytest.approx(brute, abs=1e-12)


def test_expected_principal_payoff_matches_per_profile_oracle(rng):
    g = random_game(rng, num_principals=3, num_agents=2, type_sizes=[2, 1],
                    action_sizes=[2, 3, 2])
    mechs = [DirectMechanism(owner=k, p=rng.dirichlet(np.ones(len(acts)), size=g.num_profiles))
             for k, acts in enumerate(g.action_spaces)]
    for j in range(3):
        want = sum(g.prior[x] * principal_value_at_profile(g, j, [m.p[x] for m in mechs], x)
                   for x in range(g.num_profiles))
        assert expected_principal_payoff(g, j, mechs) == pytest.approx(want, abs=1e-12)


def test_contract_opponents_matches_brute_force(rng):
    g = random_game(rng, num_principals=3, num_agents=1, type_sizes=[2],
                    action_sizes=[2, 2, 2])
    mechs = {
        k: DirectMechanism(owner=k, p=rng.dirichlet(np.ones(2), size=2))
        for k in range(3)
    }
    coeff = contract_opponents(g, 1, mechs)
    assert coeff.shape == (2, 2)
    for x in range(2):
        for a2 in range(2):
            brute = sum(
                g.prior[x] * mechs[0].p[x, a1] * mechs[2].p[x, a3]
                * g.principal_utils[1][x, a1, a2, a3]
                for a1 in range(2) for a3 in range(2)
            )
            assert coeff[x, a2] == pytest.approx(brute, abs=1e-12)
    total = expected_principal_payoff(g, 1, mechs)
    assert total == pytest.approx(float(np.sum(coeff * mechs[1].p)), abs=1e-12)


def test_expected_payoff_linear_in_each_block(rng):
    g = random_game(rng, num_agents=1, type_sizes=[2], action_sizes=[2, 2])
    p = rng.dirichlet(np.ones(2), size=2)
    q = rng.dirichlet(np.ones(2), size=2)
    opp = DirectMechanism(owner=1, p=rng.dirichlet(np.ones(2), size=2))
    lam = 0.3
    mixed = expected_principal_payoff(g, 0, {0: lam * p + (1 - lam) * q, 1: opp})
    split = (lam * expected_principal_payoff(g, 0, {0: p, 1: opp})
             + (1 - lam) * expected_principal_payoff(g, 0, {0: q, 1: opp}))
    assert mixed == pytest.approx(split, abs=1e-10)


def test_decompose_separable_recovers_joint(rng):
    g = random_game(rng, num_agents=1, type_sizes=[3], action_sizes=[2, 3])
    c1 = rng.normal(size=(3, 2))
    c2 = rng.normal(size=(3, 3))
    joint = c1[:, :, None] + c2[:, None, :]
    comps = decompose_separable(g, joint)
    rebuilt = comps[0][:, :, None] + comps[1][:, None, :]
    np.testing.assert_allclose(rebuilt, joint, atol=1e-10)
    # components beyond the first are pinned at the first action
    np.testing.assert_allclose(comps[1][:, 0], 0.0, atol=1e-12)


def test_decompose_separable_rejects_product(mp2):
    joint = np.zeros((1, 2, 2))
    joint[0, 1, 1] = 1.0  # a1 * a2 has no additive split
    with pytest.raises(NotSeparable) as exc:
        decompose_separable(mp2, joint)
    err = exc.value
    assert err.residual == pytest.approx(0.25, abs=1e-9)
    # all four cells tie at 0.25; the first in (profile, action profile) order is named
    assert err.action_profile == ("H", "H")
    assert err.profile == ("x", "x", "x")


def test_decompose_separable_accepts_residuals_up_to_1e_9(mp2):
    # an interaction eps * [a1 = a2 = T] leaves residual eps / 4 in every cell
    joint = np.zeros((1, 2, 2))
    joint[0, 1, 1] = 4 * 0.9e-9
    decompose_separable(mp2, joint)
    joint[0, 1, 1] = 4 * 1.1e-9
    with pytest.raises(NotSeparable):
        decompose_separable(mp2, joint)


def test_decompose_separable_shape_error(mp2):
    with pytest.raises(ValueError, match="shape"):
        decompose_separable(mp2, np.zeros((1, 2, 3)))


def test_game_json_round_trip(tmp_path, rng):
    g = random_game(rng, num_agents=2, type_sizes=[2, 2], action_sizes=[2, 3])
    path = tmp_path / "g.json"
    save_game(g, path)
    g2 = load_game(path)
    assert game_hash(g) == game_hash(g2)
    np.testing.assert_array_equal(g.prior, g2.prior)
    for j in range(2):
        np.testing.assert_array_equal(g.principal_utils[j], g2.principal_utils[j])
    for i in range(2):
        for k in range(2):
            np.testing.assert_array_equal(g.agent_utils[i][k], g2.agent_utils[i][k])
    assert g2.agent_ids == g.agent_ids
    assert g2.action_spaces == g.action_spaces


def test_game_from_dict_error_paths(screen1):
    base = game_to_dict(screen1)

    doc = json.loads(json.dumps(base))
    del doc["prior"]
    with pytest.raises(GameFormatError) as exc:
        game_from_dict(doc)
    assert exc.value.path == "prior"

    doc = json.loads(json.dumps(base))
    doc["prior"][0]["p"] = 0.4
    with pytest.raises(GameFormatError, match="sums to"):
        game_from_dict(doc)

    doc = json.loads(json.dumps(base))
    doc["prior"][0]["profile"] = ["M"]
    with pytest.raises(GameFormatError) as exc:
        game_from_dict(doc)
    assert "prior[0].profile" in exc.value.path

    doc = json.loads(json.dumps(base))
    doc["agent_payoffs"].pop(0)
    with pytest.raises(GameFormatError, match="missing entry"):
        game_from_dict(doc)

    doc = json.loads(json.dumps(base))
    doc["agent_payoffs"].append(dict(doc["agent_payoffs"][0]))
    with pytest.raises(GameFormatError, match="duplicate"):
        game_from_dict(doc)

    doc = json.loads(json.dumps(base))
    doc["principals"] = doc["principals"][:1]
    with pytest.raises(GameFormatError, match="at least 2"):
        game_from_dict(doc)

    # a number is a JSON number other than a bool; a duplicate label is
    # reported where it is declared
    cases = [
        (("prior", 0, "p"), "0.5", "prior[0].p"),
        (("prior", 0, "p"), True, "prior[0].p"),
        (("agent_payoffs", 0, "u"), True, "agent_payoffs[0].u"),
        (("principal_payoffs", 0, "v"), "0.5", "principal_payoffs[0].v"),
        (("principals", 0, "actions"), ["a", "a"], "principals[0].actions"),
        (("agents", 0, "types"), ["L", "L"], "agents[0].types"),
    ]
    for (*keys, last), value, path in cases:
        doc = json.loads(json.dumps(base))
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value
        with pytest.raises(GameFormatError) as exc:
            game_from_dict(doc)
        assert exc.value.path == path, (value, str(exc.value))


def test_unlisted_prior_rows_default_to_zero(screen1):
    doc = game_to_dict(screen1)
    doc["prior"] = [{"profile": ["L"], "p": 1.0}]
    g = game_from_dict(doc)
    np.testing.assert_allclose(g.prior, [1.0, 0.0])
    res = validate_game(g)
    assert res.ok and res.warnings


def test_load_game_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(GameFormatError) as exc:
        load_game(path)
    assert ":1:" in exc.value.path


def test_validate_game_catches_structural_problems():
    g = FiniteGame(
        type_spaces=(("t",),),
        action_spaces=(("a", "a"),),
        prior=np.array([-0.5]),
        agent_utils=((np.zeros((1, 2)),),),
        principal_utils=(np.zeros((1, 2)),),
    )
    res = validate_game(g)
    assert not res.ok
    msgs = " | ".join(res.violations)
    assert "need at least 2" in msgs
    assert "duplicate labels" in msgs
    assert "negative entry" in msgs
    assert "sums to" in msgs


def test_direct_mechanism_validate():
    ok = DirectMechanism(owner=0, p=np.array([[0.25, 0.75], [1.0, 0.0]]))
    assert ok.validate()
    assert not DirectMechanism(owner=0, p=np.array([[0.5, 0.4]])).validate()
    assert not DirectMechanism(owner=0, p=np.array([[-0.1, 1.1]])).validate()
    assert not DirectMechanism(owner=0, p=np.array([1.0, 0.0])).validate()


def test_mechanisms_compare_and_hash_by_identity():
    # the generated __eq__/__hash__ over array fields used to raise
    a = DirectMechanism(owner=0, p=np.eye(2))
    b = DirectMechanism(owner=0, p=np.eye(2))
    assert a == a and a != b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_mechanism_round_trip_and_errors(screen1):
    truthful = DirectMechanism(owner=0, p=np.array([[1.0, 0.0], [0.0, 1.0]]))
    doc = mechanism_to_dict(screen1, truthful)
    back = mechanism_from_dict(screen1, doc)
    assert back.owner == 0
    np.testing.assert_array_equal(back.p, truthful.p)

    bad = json.loads(json.dumps(doc))
    bad["rows"] = bad["rows"][:1]
    with pytest.raises(GameFormatError, match="missing row"):
        mechanism_from_dict(screen1, bad)

    bad = json.loads(json.dumps(doc))
    bad["rows"].append(dict(bad["rows"][0]))
    with pytest.raises(GameFormatError, match="duplicate profile"):
        mechanism_from_dict(screen1, bad)

    bad = json.loads(json.dumps(doc))
    bad["rows"][0]["dist"] = {"a": 0.6, "b": 0.6}
    with pytest.raises(GameFormatError, match="probability distributions"):
        mechanism_from_dict(screen1, bad)

    bad = json.loads(json.dumps(doc))
    bad["owner"] = "P9"
    with pytest.raises(GameFormatError, match="unknown principal"):
        mechanism_from_dict(screen1, bad)

    bad = json.loads(json.dumps(doc))
    bad["rows"][0]["dist"] = {"a": True}
    with pytest.raises(GameFormatError, match="expected a finite number") as exc:
        mechanism_from_dict(screen1, bad)
    assert exc.value.path == "$.rows[0].dist.a"


def test_profile_round_trip_and_errors(screen1):
    profile = [
        DirectMechanism(owner=0, p=np.array([[1.0, 0.0], [0.0, 1.0]])),
        DirectMechanism(owner=1, p=np.array([[1.0], [1.0]])),
    ]
    doc = profile_to_list(screen1, profile)
    back = profile_from_list(screen1, doc)
    for j in range(2):
        np.testing.assert_array_equal(back[j].p, profile[j].p)

    with pytest.raises(GameFormatError, match="duplicate mechanism"):
        profile_from_list(screen1, [doc[0], doc[0]])
    with pytest.raises(GameFormatError, match="missing mechanism"):
        profile_from_list(screen1, [doc[0]])


def test_game_copies_its_arrays():
    # writing through the base of a view passed in must not change the game,
    # whose IC polytopes are cached per game object
    base = np.array([0.5, 0.5])
    u = np.array([[1.0, 0.0], [0.0, 1.0]])
    v = np.zeros((2, 2, 1))
    g = FiniteGame(type_spaces=(("L", "H"),), action_spaces=(("a", "b"), ("z",)),
                   prior=base[:], agent_utils=((u[:], np.zeros((2, 1))),),
                   principal_utils=(v[:], v[:]))
    base[0] = 0.9
    u[0, 0] = 5.0
    v[0, 0, 0] = 7.0
    np.testing.assert_array_equal(g.prior, [0.5, 0.5])
    np.testing.assert_array_equal(g.agent_utils[0][0], [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(g.principal_utils[0], 0.0)
    with pytest.raises(ValueError):
        g.prior[0] = 0.9
    # games compare by identity, so equal contents do not make equal games
    assert g == g and g != FiniteGame(g.type_spaces, g.action_spaces, g.prior,
                                      g.agent_utils, g.principal_utils)


def test_game_hash_sensitivity(rng):
    g = random_game(rng, num_agents=1, type_sizes=[2], action_sizes=[2, 2])
    h = game_hash(g)
    assert len(h) == 16
    v = [np.array(t) for t in g.principal_utils]
    v[0][0, 0, 0] += 1e-6
    g2 = FiniteGame(
        type_spaces=g.type_spaces,
        action_spaces=g.action_spaces,
        prior=g.prior,
        agent_utils=g.agent_utils,
        principal_utils=tuple(v),
    )
    assert game_hash(g2) != h
    # structural copy hashes identically
    g3 = game_from_dict(game_to_dict(g))
    assert game_hash(g3) == h
