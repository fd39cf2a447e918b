import numpy as np
import pytest

import mechpoly.bic
from mechpoly import (
    DimensionTooLarge,
    DirectMechanism,
    FiniteGame,
    build_bic_polytope,
    enumerate_vertices,
    export_h_representation,
    is_individually_bic,
    is_profile_bic,
    random_game,
    sample_bic,
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
        assert is_individually_bic(g, _dirichlet_table(rng, g, 0), poly=poly).ok
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
        polys = [build_bic_polytope(g, j) for j in range(g.num_principals)]
        for _ in range(10):
            profile = [_dirichlet_table(rng, g, j) for j in range(g.num_principals)]
            joint = is_profile_bic(g, profile).ok
            split = all(
                is_individually_bic(g, profile[j], poly=polys[j]).ok
                for j in range(g.num_principals)
            )
            assert joint == split


def test_mixtures_of_bic_tables_stay_bic(rng):
    for trial in range(20):
        g = random_game(rng, num_agents=1, type_sizes=[2], action_sizes=[2, 2])
        poly = build_bic_polytope(g, 0)
        p = sample_bic(g, 0, seed=int(rng.integers(1 << 30)), poly=poly)
        q = sample_bic(g, 0, seed=int(rng.integers(1 << 30)), poly=poly)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            mix = DirectMechanism(owner=0, p=lam * p.p + (1 - lam) * q.p)
            assert is_individually_bic(g, mix, tol=1e-12, poly=poly).ok


def test_sample_bic_is_deterministic_and_feasible(screen1, rng):
    a = sample_bic(screen1, 0, seed=7)
    b = sample_bic(screen1, 0, seed=7)
    np.testing.assert_array_equal(a.p, b.p)
    verts = enumerate_vertices(screen1, 0)
    seen = set()
    for seed in range(12):
        m = sample_bic(screen1, 0, seed=seed)
        assert m.validate(atol=1e-9)
        assert is_individually_bic(screen1, m).ok
        hits = [i for i, v in enumerate(verts) if np.allclose(v.p, m.p, atol=1e-8)]
        assert len(hits) == 1  # LP optima of the sampler are polytope vertices
        seen.add(hits[0])
    assert len(seen) > 1


def test_vertices_have_full_rank_active_sets(rng):
    g = random_game(rng, num_agents=1, type_sizes=[2], action_sizes=[2, 2])
    poly = build_bic_polytope(g, 0)
    for v in enumerate_vertices(g, 0, poly=poly):
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


def test_vertex_tables_do_not_depend_on_block_size(rng, monkeypatch):
    g = random_game(rng, num_agents=2, type_sizes=[2, 2], action_sizes=[3, 2])
    want = enumerate_vertices(g, 0)
    monkeypatch.setattr(mechpoly.bic, "BLOCK", 50)
    got = enumerate_vertices(g, 0)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.p, b.p)


def test_dimension_cap_enforced(rng):
    g = random_game(rng, num_agents=3, type_sizes=[2, 2, 2], action_sizes=[2, 2])
    with pytest.raises(DimensionTooLarge, match="cap"):
        enumerate_vertices(g, 0)
    # a generous cap lifts the restriction
    verts = enumerate_vertices(g, 0, dim_cap=16)
    assert len(verts) >= 1


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
