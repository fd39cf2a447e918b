import dataclasses
import gc
import weakref
from collections import OrderedDict

import numpy as np
import pytest

import mechpoly.bic
from mechpoly import (
    DimensionTooLarge,
    DirectMechanism,
    FiniteGame,
    GapFamily,
    build_bic_polytope,
    build_deviator_reporting,
    build_type_and_dm_mechanism,
    check_equilibrium_notion,
    deviator_truthful_strategies,
    enumerate_vertices,
    export_h_representation,
    is_individually_bic,
    is_profile_bic,
    maxmin,
    minmax,
    random_game,
    robust_pbe_membership,
    sample_bic,
    simulate,
)

TRUTHFUL = np.array([[1.0, 0.0], [0.0, 1.0]])
SWAPPED = np.array([[0.0, 1.0], [1.0, 0.0]])
CONST_A = np.array([[1.0, 0.0], [1.0, 0.0]])
CONST_B = np.array([[0.0, 1.0], [0.0, 1.0]])


def _dirichlet_table(rng, g, j):
    n_a = len(g.action_spaces[j])
    return DirectMechanism(owner=j, p=rng.dirichlet(np.ones(n_a), size=g.num_profiles))


def test_screening_polytope_rows(screen1):
    poly = build_bic_polytope(screen1, 0)
    assert poly.eq.shape == (2, 4)
    np.testing.assert_array_equal(poly.eq, [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert poly.ic_labels == ((0, "L", "H"), (0, "H", "L"))
    np.testing.assert_allclose(poly.ic, [[1, 0, -1, 0], [0, -1, 0, 1]])
    np.testing.assert_allclose(poly.ic_values(TRUTHFUL), [1.0, 1.0])
    np.testing.assert_allclose(poly.ic_values(SWAPPED), [-1.0, -1.0])

    # the stub principal has zero agent payoffs, so its IC rows are all zero
    poly2 = build_bic_polytope(screen1, 1)
    assert poly2.n_actions == 1
    np.testing.assert_array_equal(poly2.ic, np.zeros((2, 2)))


def test_screening_vertices(screen1):
    verts = enumerate_vertices(screen1, 0)
    tables = [v.p for v in verts]
    assert len(tables) == 3
    np.testing.assert_array_equal(tables[0], CONST_B)
    np.testing.assert_array_equal(tables[1], TRUTHFUL)
    np.testing.assert_array_equal(tables[2], CONST_A)


def test_midpoints_are_not_vertices(screen1):
    verts = enumerate_vertices(screen1, 0)
    mid = 0.5 * TRUTHFUL + 0.5 * CONST_A
    res = is_individually_bic(screen1, DirectMechanism(owner=0, p=mid))
    assert res.ok  # feasible, but interior to an edge
    assert not any(np.allclose(v.p, mid) for v in verts)


def test_swapped_table_membership(screen1):
    res = is_individually_bic(screen1, DirectMechanism(owner=0, p=SWAPPED))
    assert not res
    assert res.worst_value == pytest.approx(-1.0)
    assert res.worst_label == (0, "L", "H")


def test_profile_bic_joint_witness(screen1):
    stub = DirectMechanism(owner=1, p=np.ones((2, 1)))
    res = is_profile_bic(screen1, [DirectMechanism(owner=0, p=SWAPPED), stub])
    assert not res.ok
    assert res.worst_value == pytest.approx(1.0)
    assert res.worst_label == (0, "L", ("H", "L"))

    good = is_profile_bic(screen1, [DirectMechanism(owner=0, p=TRUTHFUL), stub])
    assert good.ok
    assert good.worst_value <= 0.0


def test_misaligned_profiles_are_rejected(screen1):
    g = random_game(np.random.default_rng(3), num_principals=2, num_agents=1, type_sizes=[2],
                    action_sizes=[2, 2])
    prof = [sample_bic(g, k, seed=k) for k in range(2)]
    certs = [minmax(g, k, mode="exact2") for k in range(2)]
    assert robust_pbe_membership(g, prof, certs).verdict == "member"
    assert robust_pbe_membership(g, dict(enumerate(prof)), certs).verdict == "member"
    stub = DirectMechanism(owner=1, p=np.ones((2, 1)))
    assert is_profile_bic(screen1, {1: stub, 0: DirectMechanism(owner=0, p=TRUTHFUL)}).ok
    screen_certs = [minmax(screen1, k, mode="exact2") for k in range(2)]
    for game, bad in [
        (g, prof[::-1]),                                    # P2's table in P1's slot
        (g, [prof[0], DirectMechanism(owner=1, p=np.ones((2, 1)))]),
        (g, {0: prof[0], 2: prof[1]}),
        (g, prof + prof[1:]),
        (screen1, [DirectMechanism(owner=0, p=TRUTHFUL)]),
        (screen1, [TRUTHFUL, stub]),
    ]:
        with pytest.raises(ValueError, match="profile"):
            is_profile_bic(game, bad)
        with pytest.raises(ValueError, match="profile"):
            robust_pbe_membership(game, bad, certs if game is g else screen_certs)


def test_singleton_types_are_unconstrained(mp2):
    poly = build_bic_polytope(mp2, 0)
    assert poly.ic.shape[0] == 0
    verts = enumerate_vertices(mp2, 0)
    assert len(verts) == 2  # deterministic H and T
    res = is_profile_bic(mp2, [
        DirectMechanism(owner=0, p=np.array([[0.3, 0.7]])),
        DirectMechanism(owner=1, p=np.array([[0.9, 0.1]])),
    ])
    assert res.ok and res.worst_label is None


def test_zero_payoff_rows_keep_everything_feasible(rng):
    g = random_game(rng, num_agents=1, type_sizes=[2], action_sizes=[2, 2],
                    zero_agent_payoffs=True)
    poly = build_bic_polytope(g, 0)
    assert poly.ic.shape[0] == 2
    np.testing.assert_array_equal(poly.ic, 0.0)
    for _ in range(10):
        assert is_individually_bic(g, _dirichlet_table(rng, g, 0)).ok
    assert len(enumerate_vertices(g, 0)) == 4


def test_zero_mass_type_generates_warning_not_rows():
    u11 = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = FiniteGame(
        type_spaces=(("L", "H"),),
        action_spaces=(("a", "b"), ("z",)),
        prior=np.array([1.0, 0.0]),
        agent_utils=((u11, np.zeros((2, 1))),),
        principal_utils=(np.zeros((2, 2, 1)), np.zeros((2, 2, 1))),
    )
    poly = build_bic_polytope(g, 0)
    assert poly.ic_labels == ((0, "L", "H"),)
    assert len(poly.warnings) == 1
    assert "zero prior mass" in poly.warnings[0]


def test_joint_equals_conjunction_on_random_games(rng):
    """Separable payoffs make the joint truthfulness check factor."""
    for trial in range(30):
        g = random_game(
            rng,
            num_principals=int(rng.integers(2, 4)),
            num_agents=int(rng.integers(1, 3)),
            type_sizes=None,
            action_sizes=None,
        )
        for _ in range(10):
            profile = [_dirichlet_table(rng, g, j) for j in range(g.num_principals)]
            joint = is_profile_bic(g, profile).ok
            split = all(
                is_individually_bic(g, profile[j]).ok
                for j in range(g.num_principals)
            )
            assert joint == split


def test_mixtures_of_bic_tables_stay_bic(rng):
    for trial in range(20):
        g = random_game(rng, num_agents=1, type_sizes=[2], action_sizes=[2, 2])
        p = sample_bic(g, 0, seed=int(rng.integers(1 << 30)))
        q = sample_bic(g, 0, seed=int(rng.integers(1 << 30)))
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            mix = DirectMechanism(owner=0, p=lam * p.p + (1 - lam) * q.p)
            assert is_individually_bic(g, mix, tol=1e-12).ok


def test_sample_bic_is_deterministic_and_feasible(screen1, rng, monkeypatch):
    a = sample_bic(screen1, 0, seed=7)
    b = sample_bic(screen1, 0, seed=7)
    np.testing.assert_array_equal(a.p, b.p)
    verts = enumerate_vertices(screen1, 0)
    seen = set()
    for seed in range(12):
        m = sample_bic(screen1, 0, seed=seed)
        assert m.validate(atol=1e-9)
        assert is_individually_bic(screen1, m).ok
        hits = [i for i, v in enumerate(verts) if v.p.tobytes() == m.p.tobytes()]
        assert len(hits) == 1  # under the cap a sample is a vertex table
        seen.add(hits[0])
    assert len(seen) > 1

    # past the cap (three agents with two types, two actions: 16 variables)
    # nothing is enumerated and an LP finds the vertex
    lps = []
    real = mechpoly.solver._optimize_over
    monkeypatch.setattr(mechpoly.solver, "_optimize_over",
                        lambda *args, **kw: lps.append(args[2]) or real(*args, **kw))
    g = random_game(rng, num_agents=3, type_sizes=[2, 2, 2], action_sizes=[2, 2])
    poly = build_bic_polytope(g, 0)
    assert poly.n_vars == 16 > mechpoly.bic.DEFAULT_DIM_CAP
    m = sample_bic(g, 0, seed=7)
    assert lps == ["sampling"] and "vertex_tables" not in vars(poly)
    assert m.owner == 0 and m.validate(atol=1e-9) and is_individually_bic(g, m).ok
    np.testing.assert_array_equal(m.p, sample_bic(g, 0, seed=7).p)
    # under the cap no LP is solved
    np.testing.assert_array_equal(sample_bic(screen1, 0, seed=7).p, a.p)
    assert lps == ["sampling"] * 2


def test_sample_bic_rejects_a_foreign_polytope():
    # P2's polytope handed in for P1 would give a table with P2's three actions
    g = random_game(np.random.default_rng(3), num_principals=2, num_agents=1,
                    type_sizes=[2], action_sizes=[2, 3])
    with pytest.raises(ValueError, match="poly is not principal 0's polytope for this game"):
        sample_bic(g, 0, seed=1, poly=build_bic_polytope(g, 1))
    other = random_game(np.random.default_rng(3), num_principals=2, num_agents=1,
                        type_sizes=[3], action_sizes=[2, 3])
    with pytest.raises(ValueError, match="poly is not principal 0's polytope"):
        sample_bic(g, 0, seed=1, poly=build_bic_polytope(other, 0))
    np.testing.assert_array_equal(sample_bic(g, 0, seed=1, poly=build_bic_polytope(g, 0)).p,
                                  sample_bic(g, 0, seed=1).p)


def test_vertices_have_full_rank_active_sets(rng):
    g = random_game(rng, num_agents=1, type_sizes=[2], action_sizes=[2, 2])
    poly = build_bic_polytope(g, 0)
    for v in enumerate_vertices(g, 0):
        z = v.p.reshape(-1)
        active = [poly.eq]
        tight = np.nonzero(z <= 1e-9)[0]
        if tight.size:
            eye = np.zeros((tight.size, z.size))
            eye[np.arange(tight.size), tight] = 1.0
            active.append(eye)
        vals = poly.ic @ z
        active.append(poly.ic[np.abs(vals) <= 1e-7])
        rank = np.linalg.matrix_rank(np.vstack(active), tol=1e-7)
        assert rank == z.size


def _scan_dedupe(new, keep):
    """A point joins iff it is more than 1e-8 in max-norm from every kept
    point and from every earlier point that joined."""
    merged, join = list(keep), []
    for z in new:
        ok = not any(np.max(np.abs(z - m)) <= 1e-8 for m in merged)
        join.append(ok)
        if ok:
            merged.append(z)
    return np.array(join)


@pytest.mark.parametrize("block", [mechpoly.bic.BLOCK, 50])
def test_crossing_point_dedupe_is_the_scan_rule(rng, monkeypatch, block):
    monkeypatch.setattr(mechpoly.bic, "BLOCK", block)
    base = rng.uniform(size=(30, 6))
    keep = base[:10]
    # near copies of kept points, and chains x, x + 6e-9, x + 1.2e-8: the
    # middle point is close to x and is dropped, so the last one joins
    new = np.vstack([base[5:8] + 3e-9, base[10:30], base[10:30] + 6e-9,
                     base[10:30] + 1.2e-8, base[8:10] + 2e-8])
    new = new[rng.permutation(new.shape[0])]
    want = _scan_dedupe(new, keep)
    assert 0 < want.sum() < new.shape[0]
    np.testing.assert_array_equal(mechpoly.bic._dedupe(new, keep), want)


def test_sorted_distinct_is_the_sort_and_scan_rule(rng):
    # the per-vertex rule it replaced: sort by the rounded tuple, then drop a
    # point within 1e-8 of the last point kept
    base = rng.uniform(size=(15, 4))
    base[:5, 0] = base[5:10, 0]    # equal leading coordinates, so ties reach later ones
    near = np.vstack([base[7:], base, base + 6e-9, base + 1.2e-8, base[3:9] - 4e-9])
    for z, drops in ((base, False), (near, True)):
        z = z[rng.permutation(z.shape[0])]
        want = []
        for row in sorted(z, key=lambda r: tuple(np.round(r, 12))):
            if not want or np.max(np.abs(row - want[-1])) > 1e-8:
                want.append(row)
        assert (len(want) < z.shape[0]) == drops
        np.testing.assert_array_equal(mechpoly.bic._sorted_distinct(z), np.array(want))


def test_vertex_tables_do_not_depend_on_block_size(rng, monkeypatch):
    g = random_game(rng, num_agents=2, type_sizes=[2, 2], action_sizes=[3, 2])
    poly = build_bic_polytope(g, 0)
    # the uncached kernel, so both block sizes really enumerate
    want = mechpoly.bic._vertex_tables(poly)
    monkeypatch.setattr(mechpoly.bic, "BLOCK", 50)
    got = mechpoly.bic._vertex_tables(poly)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.array([m.p for m in enumerate_vertices(g, 0)]), want)


def test_dimension_cap_enforced(rng):
    g = random_game(rng, num_agents=3, type_sizes=[2, 2, 2], action_sizes=[2, 2])
    with pytest.raises(DimensionTooLarge, match="cap"):
        enumerate_vertices(g, 0)
    # a generous cap lifts the restriction
    verts = enumerate_vertices(g, 0, dim_cap=16)
    assert len(verts) >= 1


def test_polytope_is_built_once_per_game_and_read_only(rng, monkeypatch):
    monkeypatch.setattr(mechpoly.bic, "_POLYTOPES", OrderedDict())
    g = random_game(rng, num_agents=1, type_sizes=[2], action_sizes=[2, 2])
    poly = build_bic_polytope(g, 0)
    assert build_bic_polytope(g, 0) is poly
    assert build_bic_polytope(g, 1) is not poly
    for arr in (poly.eq, poly.ic, poly.vertex_tables):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 2.0
    # games with equal build inputs share one polytope, whatever the
    # principal payoffs and the other principals' agent payoffs
    (u0, u1), = g.agent_utils
    same = [dataclasses.replace(g),
            dataclasses.replace(g, principal_utils=tuple(1 - v for v in g.principal_utils)),
            dataclasses.replace(g, agent_utils=((u0, -u1),))]
    assert all(build_bic_polytope(h, 0) is poly for h in same)
    # changing any one build input gives another polytope
    other = [dataclasses.replace(g, prior=g.prior[::-1]),
             dataclasses.replace(g, agent_utils=((-u0, u1),)),
             dataclasses.replace(g, type_spaces=(("L", "H"),)),
             dataclasses.replace(g, action_spaces=(("a", "b", "c"), g.action_spaces[1]),
                                 agent_utils=((np.hstack([u0, u0[:, :1]]), u1),),
                                 principal_utils=tuple(np.zeros((2, 3, 2)) for _ in range(2)))]
    polys = [build_bic_polytope(h, 0) for h in other]
    assert len({id(p) for p in polys + [poly]}) == len(other) + 1
    # the map never holds more than its cap and drops the oldest entry first
    cap = mechpoly.bic.POLYTOPE_CACHE_SIZE
    games = [random_game(rng, num_agents=1, type_sizes=[2], action_sizes=[2, 2])
             for _ in range(cap + 2)]
    kept = []
    for h in games:
        kept.append(build_bic_polytope(h, 0))
        assert len(mechpoly.bic._POLYTOPES) <= cap
    assert all(build_bic_polytope(h, 0) is p for h, p in zip(games[2:], kept[2:]))
    assert build_bic_polytope(games[0], 0) is not kept[0]      # drops games[2]'s
    assert build_bic_polytope(games[2], 0) is not kept[2]      # drops games[3]'s
    assert all(build_bic_polytope(h, 0) is p for h, p in zip(games[4:], kept[4:]))
    assert len(mechpoly.bic._POLYTOPES) == cap
    # the cache keeps no game alive
    ref = weakref.ref(g)
    del g, same, other, games
    gc.collect()
    assert ref() is None


def _count_builds(monkeypatch):
    builds = []
    polytope = mechpoly.bic.BicPolytope

    def counting(**fields):
        builds.append(fields["owner"])
        return polytope(**fields)

    monkeypatch.setattr(mechpoly.bic, "BicPolytope", counting)
    return builds


def test_value_computations_build_each_polytope_once(monkeypatch):
    monkeypatch.setattr(mechpoly.bic, "_POLYTOPES", OrderedDict())
    builds = _count_builds(monkeypatch)
    rng = np.random.default_rng(5)
    for n in range(2):
        # the candidates differ only in principal payoffs: the second builds nothing
        g = GapFamily().candidate(n, rng)
        maxmin(g, 0, mode="exact")
        minmax(g, 0, mode="grid", step=0.05)
        assert sorted(builds) == [0, 1, 2]


def test_floor_support_builds_each_polytope_once(monkeypatch):
    # the steps of one floor-support item: floors, guarantee tables, a
    # membership verdict, deviator-reporting mechanisms, menu deviations and
    # a simulation, all on one game
    monkeypatch.setattr(mechpoly.bic, "_POLYTOPES", OrderedDict())
    builds = _count_builds(monkeypatch)
    rng = np.random.default_rng(3)
    g = random_game(rng, num_principals=2, num_agents=3, type_sizes=[2, 1, 1],
                    action_sizes=[2, 2])
    certs = [minmax(g, j, mode="exact2") for j in range(2)]
    prof = [maxmin(g, j, mode="exact").witness for j in range(2)]
    assert robust_pbe_membership(g, prof, certs).verdict == "member"
    drms = [build_deviator_reporting(g, k, prof[k], {1 - k: certs[1 - k].witness[k]})
            for k in range(2)]
    strat = deviator_truthful_strategies(g, drms)
    for j in range(2):
        menu = [build_type_and_dm_mechanism(g, j, [sample_bic(g, j, seed=s) for s in (1, 2)]),
                build_type_and_dm_mechanism(g, j, enumerate_vertices(g, j))]
        assert check_equilibrium_notion(g, drms, strat, {j: menu}, notion="robust",
                                        tol=1e-6).ok
    simulate(g, drms, strat, seed=4, rounds=100)
    assert sorted(builds) == [0, 1]


def test_h_representation_format(screen1, mp2):
    text = export_h_representation(build_bic_polytope(screen1, 0))
    assert text.endswith("\n")
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "1 1 0 0 = 1"
    assert lines[2].endswith(" >= 0")
    coeffs = [float(tok) for tok in lines[2].split()[:-2]]
    assert coeffs == [1.0, 0.0, -1.0, 0.0]

    text2 = export_h_representation(build_bic_polytope(mp2, 0))
    assert all(" = 1" in line for line in text2.strip().split("\n"))
