"""``simulate`` as it drew from per-round tables: the oracle that the
library's ``simulate``, which draws from cumulative tables built once per
call, must match draw for draw.

Every round here gets its own copy of the row it draws from (``np.tile`` of
the principal's message row, agent strategy rows and outcome rows gathered
per round) and its own cumulative sum.  It shares no table or indexing code
with the library, so a property test can require equal reports, floats
compared by their bits.  It does not validate its inputs.
"""

import numpy as np

from mechpoly import FiniteGame, StrategyProfile


def _sample_rows(rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """One categorical draw per row, via inverse transform; validated rows may
    sum to 1 - 1e-9, so a draw past the last cumulative total is clamped."""
    u = rng.random(rows.shape[0])
    cdf = np.cumsum(rows, axis=1)
    return np.minimum((u[:, None] > cdf).sum(axis=1), rows.shape[1] - 1)


def simulate(g: FiniteGame, mechanisms, strategies: StrategyProfile,
             seed: int, rounds: int) -> dict:
    """Monte Carlo play of a mechanism profile.

    Draws type profiles from the prior and messages from the strategies,
    applies each outcome table, and reports per-player payoff means with
    standard errors plus empirical action-profile frequencies.  Deterministic
    given the seed.
    """
    rng = np.random.default_rng(seed)
    x_idx = rng.choice(g.num_profiles, p=g.prior, size=rounds)
    actions = []
    for j, mech in enumerate(mechanisms):
        c0 = np.asarray(strategies.principal_messages[j], dtype=float)
        m0 = _sample_rows(rng, np.tile(c0, (rounds, 1)))
        msgs = [m0]
        for i in range(g.num_agents):
            rows = np.asarray(strategies.agent_messages[(i, j)], dtype=float)
            msgs.append(_sample_rows(rng, rows[g.profiles[x_idx, i]]))
        dist_rows = mech.outcome[tuple(msgs)]
        actions.append(_sample_rows(rng, dist_rows))
    principals = []
    for j in range(g.num_principals):
        vals = g.principal_utils[j][(x_idx,) + tuple(actions)]
        principals.append({
            "id": g.principal_ids[j],
            "mean": float(vals.mean()),
            "stderr": float(vals.std(ddof=1) / np.sqrt(rounds)) if rounds > 1 else 0.0,
        })
    agents = []
    for i in range(g.num_agents):
        vals = np.zeros(rounds)
        for k in range(g.num_principals):
            vals += g.agent_utils[i][k][x_idx, actions[k]]
        agents.append({
            "id": g.agent_ids[i],
            "mean": float(vals.mean()),
            "stderr": float(vals.std(ddof=1) / np.sqrt(rounds)) if rounds > 1 else 0.0,
        })
    shape = tuple(len(a) for a in g.action_spaces)
    counts = np.bincount(np.ravel_multi_index(tuple(actions), shape))
    cells = np.nonzero(counts)[0]
    freq = {}
    for combo, count in zip(zip(*np.unravel_index(cells, shape)), counts[cells]):
        label = ",".join(g.action_spaces[j][a] for j, a in enumerate(combo))
        freq[label] = float(count / rounds)
    return {
        "seed": int(seed),
        "rounds": int(rounds),
        "principals": principals,
        "agents": agents,
        "action_profile_freq": freq,
    }
