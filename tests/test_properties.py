"""Property tests: independent value computations bound each other the right
way, and membership verdicts follow the bounds they use."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mechpoly import minmax, random_game, robust_pbe_membership, sample_bic

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
