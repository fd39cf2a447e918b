"""End-to-end acceptance checks.

Each test covers one advertised guarantee at its stated tolerance and runtime
budget, prints a one-line summary, and fails loudly otherwise.  Everything is
seeded, so reruns are bit-for-bit repeatable.
"""

import itertools
import time
from collections import Counter

import numpy as np

import bic_oracle
from mechpoly import (
    DirectMechanism,
    FiniteGame,
    GapFamily,
    GeneralMechanism,
    build_deviator_reporting,
    build_type_and_dm_mechanism,
    best_response,
    check_continuation_equilibrium,
    check_equilibrium_notion,
    deviator_truthful_strategies,
    enumerate_pure_continuation_equilibria,
    enumerate_vertices,
    expected_principal_payoff,
    induce_profile,
    is_individually_bic,
    is_profile_bic,
    matching_pennies_game,
    maxmin,
    minmax,
    nest_szentes_contract,
    random_game,
    sample_bic,
    search_minmax_maxmin_gap,
    SetValuedContract,
    simulate,
    standard_from_direct,
    StrategyProfile,
    truthful_strategies,
)
from mechpoly.solver import DEFAULT_DIM_CAP, _maxmin_vertex_products


def _done(num, slug, budget_s, t0, detail):
    dt = time.perf_counter() - t0
    assert dt < budget_s, f"{slug}: {dt:.1f}s exceeds the {budget_s}s budget"
    print(f"ACCEPTANCE {num:02d} {slug}: PASS ({detail}, {dt:.1f}s)")


def _dirichlet_table(rng, g, j):
    n_a = len(g.action_spaces[j])
    return DirectMechanism(owner=j,
                           p=rng.dirichlet(np.ones(n_a), size=g.num_profiles))


def test_a01_profile_bic_factorizes_across_principals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n_true = n_false = 0
    for _ in range(200):
        n_j = int(rng.integers(2, 4))
        n_i = int(rng.integers(1, 4))
        g = random_game(rng, num_principals=n_j, num_agents=n_i,
                        type_sizes=[int(rng.integers(1, 3)) for _ in range(n_i)],
                        action_sizes=[int(rng.integers(1, 4)) for _ in range(n_j)])
        for _ in range(50):
            profile = [_dirichlet_table(rng, g, j) for j in range(n_j)]
            joint = is_profile_bic(g, profile, tol=1e-9).ok
            split = all(is_individually_bic(g, dm, tol=1e-9).ok
                        for j, dm in enumerate(profile))
            assert joint == split == bic_oracle.is_profile_bic(g, profile, tol=1e-9).ok
            if joint:
                n_true += 1
            else:
                n_false += 1
    assert n_true > 0 and n_false > 0
    _done(1, "joint-truthfulness-factorizes", 60, t0,
          f"200 games x 50 profiles, {n_true} joint-truthful")


def test_a02_bic_set_closed_under_mixtures():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(100):
        n_i = int(rng.integers(1, 3))
        g = random_game(rng, num_principals=2, num_agents=n_i,
                        type_sizes=[int(rng.integers(1, 3)) for _ in range(n_i)],
                        action_sizes=[int(rng.integers(2, 4)), 2])
        a = sample_bic(g, 0, seed=int(rng.integers(1 << 30)))
        b = sample_bic(g, 0, seed=int(rng.integers(1 << 30)))
        for lam in (0.25, 0.5, 0.75):
            mix = DirectMechanism(owner=0, p=lam * a.p + (1.0 - lam) * b.p)
            assert is_individually_bic(g, mix, tol=1e-12).ok
    _done(2, "mixtures-stay-incentive-compatible", 10, t0,
          "100 pairs x 3 mixture weights at 1e-12")


def test_a03_accepted_continuation_play_induces_bic():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    accepted = 0
    for n in range(100):
        if n % 2 == 0:
            n_i, type_sizes = 1, [2]
        else:
            n_i, type_sizes = 2, [int(rng.integers(1, 3)), 1]
        g = random_game(rng, num_principals=2, num_agents=n_i,
                        type_sizes=type_sizes, action_sizes=[2, 2])
        mechs = []
        for j in range(2):
            n_pm = int(rng.integers(1, 3))
            shape = (n_pm,) + (2,) * n_i + (2,)
            flat = rng.dirichlet(np.ones(2), size=int(np.prod(shape[:-1])))
            mechs.append(GeneralMechanism(
                owner=j,
                principal_messages=tuple(f"m{x}" for x in range(n_pm)),
                agent_messages=tuple(("s0", "s1") for _ in range(n_i)),
                outcome=flat.reshape(shape)))
        candidates = list(enumerate_pure_continuation_equilibria(g, mechs))
        for _ in range(3):
            candidates.append(StrategyProfile(
                principal_messages={
                    j: rng.dirichlet(np.ones(len(m.principal_messages)))
                    for j, m in enumerate(mechs)},
                agent_messages={
                    (i, j): rng.dirichlet(np.ones(2), size=len(g.type_spaces[i]))
                    for i in range(n_i) for j in range(2)}))
        for strat in candidates:
            if not check_continuation_equilibrium(g, mechs, strat).ok:
                continue
            accepted += 1
            for dm in induce_profile(g, mechs, strat):
                assert is_individually_bic(g, dm, tol=1e-8).ok
    assert accepted > 0
    _done(3, "equilibrium-play-induces-bic-tables", 120, t0,
          f"100 message games, {accepted} accepted profiles")


def test_a04_two_principal_minmax_equals_maxmin():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n_i = int(rng.integers(1, 3))
        g = random_game(rng, num_principals=2, num_agents=n_i,
                        type_sizes=[int(rng.integers(1, 3)) for _ in range(n_i)],
                        action_sizes=[int(rng.integers(2, 4)),
                                      int(rng.integers(2, 4))])
        for j in range(2):
            lo = minmax(g, j, mode="exact2")
            hi = maxmin(g, j, mode="exact")
            # both are the saddle LP; the vertex-product maxmin is computed
            # independently of it
            vp = _maxmin_vertex_products(g, j, DEFAULT_DIM_CAP)
            worst = max(worst, abs(lo.value - hi.value), abs(lo.value - vp.value))
    assert worst <= 1e-6
    _done(4, "two-principal-values-coincide", 120, t0,
          f"100 games, both principals, worst |diff| {worst:.2e}")


def test_a05_three_principal_certified_value_gap():
    t0 = time.perf_counter()
    res = search_minmax_maxmin_gap(GapFamily(), budget=500, step=0.01, seed=42)
    assert res.found
    assert res.certified_gap > 0.01
    assert res.maxmin_cert.kind == "vertex-product-exact"
    assert res.minmax_cert.kind == "grid-certified-lower-bound"
    _done(5, "guarantee-falls-short-of-punishment-floor", 600, t0,
          f"budget 500, certified gap {res.certified_gap:+.4f} "
          f"at candidate {res.candidate_index}")


def test_a06_profiles_paying_below_floor_are_rejected():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    games = [matching_pennies_game()]
    for n in range(20):
        if n % 2 == 0:
            n_i, type_sizes = 3, [1, 1, 1]
        else:
            n_i, type_sizes = 1, [2]
        games.append(random_game(rng, num_principals=2, num_agents=n_i,
                                 type_sizes=type_sizes, action_sizes=[2, 2]))
    rejected = 0
    for g_idx, g in enumerate(games):
        floors = [minmax(g, j, mode="exact2").value for j in range(2)]
        vertex_menus = [enumerate_vertices(g, j) for j in range(2)]
        candidates = []
        if g_idx == 0:
            candidates.append([DirectMechanism(owner=0, p=np.array([[1.0, 0.0]])),
                               DirectMechanism(owner=1, p=np.array([[0.0, 1.0]]))])
        for s in range(6):
            candidates.append([
                sample_bic(g, j, seed=int(rng.integers(1 << 30)))
                for j in range(2)])
        for prof in candidates:
            pays = [expected_principal_payoff(g, j, prof) for j in range(2)]
            for j in range(2):
                if pays[j] >= floors[j] - 1e-6:
                    continue
                mechs = [standard_from_direct(g, dm) for dm in prof]
                strat = truthful_strategies(g, mechs)
                _, br = best_response(g, j, prof)
                devs = [build_type_and_dm_mechanism(g, j, [br]),
                        build_type_and_dm_mechanism(g, j, list(vertex_menus[j]) + [br])]
                verdict = check_equilibrium_notion(
                    g, mechs, strat, {j: devs}, notion="robust", tol=1e-6)
                assert not verdict.ok
                assert any(not c["ok"] for c in verdict.checks)
                rejected += 1
    assert rejected >= 8
    _done(6, "underpaying-profiles-rejected", 300, t0,
          f"21 games, {rejected} underpaying candidates all rejected")


def _random_message_deviation(rng, g, j):
    n_a = len(g.action_spaces[j])
    shape = (2,) + (2,) * g.num_agents + (n_a,)
    flat = rng.dirichlet(np.ones(n_a), size=int(np.prod(shape[:-1])))
    return GeneralMechanism(
        owner=j,
        principal_messages=("d0", "d1"),
        agent_messages=tuple(("s0", "s1") for _ in range(g.num_agents)),
        outcome=flat.reshape(shape))


def _random_menu_deviation(rng, g, j):
    entries = [sample_bic(g, j, seed=int(rng.integers(1 << 30))) for _ in range(2)]
    return build_type_and_dm_mechanism(g, j, entries)


def test_a07_reporting_profiles_support_floor_members():
    # The check enumerates pure continuation play only, so the punishing
    # continuation after a deviation must be realizable in pure strategies:
    # free-form message deviations get games with payoff-indifferent agents
    # (as in matching pennies), payoff-sensitive games get menu deviations,
    # where truthful reporting always supplies a pure completion.
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    games = [(matching_pennies_game(), "message")]
    for n in range(20):
        type_sizes = [2, 1, 1] if n % 3 == 0 else [1, 1, 1]
        a2 = 3 if n % 5 == 0 else 2
        flavor = "message" if n % 2 == 0 else "menu"
        games.append((random_game(
            rng, num_principals=2, num_agents=3, type_sizes=type_sizes,
            action_sizes=[2, a2], zero_agent_payoffs=(flavor == "message")),
            flavor))
    members_supported = 0
    for g, flavor in games:
        certs = [minmax(g, j, mode="exact2") for j in range(2)]
        floors = [c.value for c in certs]
        guarantors = [maxmin(g, j, mode="exact").witness for j in range(2)]
        uniform = [
            DirectMechanism(owner=j, p=np.full(
                (g.num_profiles, len(g.action_spaces[j])),
                1.0 / len(g.action_spaces[j])))
            for j in range(2)]
        sampled = [sample_bic(g, j, seed=int(rng.integers(1 << 30))) for j in range(2)]
        members = []
        for prof in (guarantors, uniform, sampled):
            pays = [expected_principal_payoff(g, j, prof) for j in range(2)]
            if all(pays[j] >= floors[j] - 1e-8 for j in range(2)):
                members.append(prof)
        assert members, "every game admits at least the pair of guarantee tables"
        for prof in members[:2]:
            drms = []
            for k in range(2):
                other = 1 - k
                drms.append(build_deviator_reporting(
                    g, k, DirectMechanism(owner=k, p=prof[k].p),
                    {other: certs[other].witness[k]}))
            strat = deviator_truthful_strategies(g, drms)
            for j in range(2):
                if flavor == "message":
                    devs = [_random_message_deviation(rng, g, j) for _ in range(5)]
                else:
                    devs = [_random_menu_deviation(rng, g, j) for _ in range(5)]
                devs.append(build_type_and_dm_mechanism(g, j, enumerate_vertices(g, j)))
                verdict = check_equilibrium_notion(
                    g, drms, strat, {j: devs}, notion="robust", tol=1e-6)
                assert verdict.on_path.ok
                assert verdict.ok, (
                    f"deviation beat the floor: {verdict.checks}")
            members_supported += 1
    assert members_supported >= 10
    _done(7, "reporting-profiles-hold-floor-members", 600, t0,
          f"21 games, {members_supported} supported members, "
          "6 deviations per principal each")


def _passive_game(type_sizes, action_sizes):
    types = tuple(tuple(f"t{n}" for n in range(s)) if s > 1 else ("x",)
                  for s in type_sizes)
    actions = tuple(tuple(f"c{n}" for n in range(s)) if s > 1 else ("z",)
                    for s in action_sizes)
    n_profiles = int(np.prod(type_sizes))
    return FiniteGame(
        type_spaces=types, action_spaces=actions,
        prior=np.full(n_profiles, 1.0 / n_profiles),
        agent_utils=tuple(tuple(np.zeros((n_profiles, s)) for s in action_sizes)
                          for _ in type_sizes),
        principal_utils=tuple(np.zeros((n_profiles,) + tuple(action_sizes))
                              for _ in action_sizes))


def test_a08_majority_report_branching_is_exhaustive():
    t0 = time.perf_counter()
    for n_i in (3, 4):
        g = _passive_game([1] * n_i, [3, 1, 1])
        default = DirectMechanism(owner=0, p=np.array([[1.0, 0.0, 0.0]]))
        puns = {1: DirectMechanism(owner=0, p=np.array([[0.0, 1.0, 0.0]])),
                2: DirectMechanism(owner=0, p=np.array([[0.0, 0.0, 1.0]]))}
        drm = build_deviator_reporting(g, 0, default, puns)
        for combo in itertools.product(range(3), repeat=n_i):
            counts = Counter(j for j in combo if j != 0)
            majority = [j for j, c in counts.items() if c > n_i / 2]
            want = puns[majority[0]].p[0] if majority else default.p[0]
            np.testing.assert_array_equal(drm.outcome[(0,) + combo], want)
        # one defection from owner-unanimity can never reach a majority
        for i in range(n_i):
            for j in (1, 2):
                combo = [0] * n_i
                combo[i] = j
                np.testing.assert_array_equal(
                    drm.outcome[(0,) + tuple(combo)], default.p[0])
    _done(8, "strict-majority-branching", 5, t0,
          "all report vectors for 3 and 4 agents, 3 principals")


def test_a09_nested_contracts_select_from_image_sets():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    total_selections = 0
    for _ in range(50):
        n_agents = int(rng.integers(1, 3))
        msg_sizes = [int(rng.integers(2, 4)) for _ in range(n_agents)]
        n_actions = int(rng.integers(2, 4))
        n_cells = int(np.prod(msg_sizes))
        max_members = 2 if n_cells > 6 else 3
        table = {}
        for m in itertools.product(*[range(s) for s in msg_sizes]):
            k = int(rng.integers(1, max_members + 1))
            table[m] = tuple(rng.dirichlet(np.ones(n_actions)) for _ in range(k))
        h = SetValuedContract(
            owner=0,
            agent_messages=tuple(tuple(f"m{x}" for x in range(s)) for s in msg_sizes),
            n_actions=n_actions, table=table)
        mech = nest_szentes_contract(h)
        n_sel = len(mech.principal_messages)
        assert n_sel == int(np.prod([len(c) for c in table.values()]))
        assert n_sel <= 10_000
        total_selections += n_sel
        for s in range(n_sel):
            for m in table:
                row = mech.outcome[(s,) + m]
                assert min(float(np.max(np.abs(row - d))) for d in table[m]) <= 1e-12
    _done(9, "nested-outcomes-stay-in-image-sets", 30, t0,
          f"50 contracts, {total_selections} selection maps checked")


def test_a10_simulation_matches_analytic_payoffs(mp2):
    t0 = time.perf_counter()
    mechs = [standard_from_direct(
        mp2, DirectMechanism(owner=j, p=np.array([[0.5, 0.5]]))) for j in range(2)]
    out = simulate(mp2, mechs, truthful_strategies(mp2, mechs),
                   seed=2024, rounds=100_000)
    for rec in out["principals"]:
        assert abs(rec["mean"] - 0.5) <= 3 * rec["stderr"]
    for rec in out["agents"]:
        assert abs(rec["mean"] - 0.0) <= 3 * rec["stderr"]
    _done(10, "monte-carlo-agrees-with-analytic-values", 10, t0,
          "100000 rounds, all five players within 3 standard errors")
