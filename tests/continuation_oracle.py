"""Reference continuation-equilibrium code: the per-candidate loops, kept as
an independent oracle.

These are the functions ``mechanisms`` used before it switched to one batched
contraction kernel and one payoff tensor: interim message values by
tensordot, agent optimality checked per (m_0, maps, agent, type, profile) on
gathered outcome rows, principal-message conditions and notion values by one
``expected_principal_payoff`` call per combo and alternative.  They share no
contraction or reduction code with the library, so property tests can require
the library's blocks, combos and records to equal theirs exactly.
"""

import itertools

import numpy as np

from mechpoly import DirectMechanism, expected_principal_payoff
from mechpoly.mechanisms import EQ_TOL, CeVerdict, _same_mechanism


def induce_direct_mechanism(g, mech, principal_message, agent_strategies):
    c0 = np.asarray(principal_message, dtype=float)
    rows = np.zeros((g.num_profiles, mech.n_actions))
    for x in range(g.num_profiles):
        t = np.tensordot(c0, mech.outcome, axes=(0, 0))
        for i in range(g.num_agents):
            ci = np.asarray(agent_strategies[i], dtype=float)[g.profiles[x, i]]
            t = np.tensordot(ci, t, axes=(0, 0))
        rows[x] = t
    return DirectMechanism(owner=mech.owner, p=rows)


def induce_profile(g, mechanisms, strategies):
    return [
        induce_direct_mechanism(
            g, mech, strategies.principal_messages[j],
            [strategies.agent_messages[(i, j)] for i in range(g.num_agents)],
        )
        for j, mech in enumerate(mechanisms)
    ]


def _contract_messages(outcome, vectors):
    t = outcome
    pos = 0
    for v in vectors:
        if v is None:
            pos += 1
        else:
            t = np.tensordot(np.asarray(v, dtype=float), t, axes=(0, pos))
    return t


def _agent_message_values(g, mech, strategies, agent, t):
    j = mech.owner
    i = agent
    idxs = g.profiles_with_type(i, t)
    weights = g.prior[idxs] / g.prior[idxs].sum()
    values = np.zeros(len(mech.agent_messages[i]))
    for x, w in zip(idxs, weights):
        vectors = [strategies.principal_messages[j]]
        for i2 in range(g.num_agents):
            if i2 == i:
                vectors.append(None)
            else:
                vectors.append(strategies.agent_messages[(i2, j)][g.profiles[x, i2]])
        k = _contract_messages(mech.outcome, vectors)   # (|M_ij|, |A_j|)
        values += w * (k @ g.agent_utils[i][j][x])
    return values


def check_continuation_equilibrium(g, mechanisms, strategies, tol=EQ_TOL):
    worst = CeVerdict(ok=True, worst_gain=0.0)
    for j, mech in enumerate(mechanisms):
        for i in range(g.num_agents):
            for t in range(len(g.type_spaces[i])):
                if g.type_marginal(i, t) <= 0.0:
                    continue
                values = _agent_message_values(g, mech, strategies, i, t)
                played = float(np.dot(strategies.agent_messages[(i, j)][t], values))
                m_best = int(np.argmax(values))
                gain = float(values[m_best] - played)
                if gain > worst.worst_gain:
                    worst = CeVerdict(
                        ok=gain <= tol,
                        worst_gain=gain,
                        witness=("agent", g.agent_ids[i], g.type_spaces[i][t],
                                 g.principal_ids[j], mech.agent_messages[i][m_best]),
                    )
    induced = induce_profile(g, mechanisms, strategies)
    for j, mech in enumerate(mechanisms):
        if mech.standard:
            continue
        base = expected_principal_payoff(g, j, induced)
        for m0 in range(len(mech.principal_messages)):
            alt = np.zeros(len(mech.principal_messages))
            alt[m0] = 1.0
            dm = induce_direct_mechanism(
                g, mech, alt,
                [strategies.agent_messages[(i, j)] for i in range(g.num_agents)],
            )
            trial = list(induced)
            trial[j] = dm
            gain = expected_principal_payoff(g, j, trial) - base
            if gain > worst.worst_gain:
                worst = CeVerdict(
                    ok=gain <= tol,
                    worst_gain=float(gain),
                    witness=("principal", g.principal_ids[j], mech.principal_messages[m0]),
                )
    worst.ok = worst.worst_gain <= tol
    return worst


def _block_candidates(g, mech, tol):
    n_i = g.num_agents
    type_sizes = [len(ts) for ts in g.type_spaces]
    map_spaces = [
        list(itertools.product(*[range(len(mech.agent_messages[i]))
                                 for _ in range(type_sizes[i])]))
        for i in range(n_i)
    ]
    out = []
    for m0 in range(len(mech.principal_messages)):
        for maps in itertools.product(*map_spaces):
            ok = True
            for i in range(n_i):
                for t in range(type_sizes[i]):
                    if g.type_marginal(i, t) <= 0.0:
                        continue
                    idxs = g.profiles_with_type(i, t)
                    weights = g.prior[idxs] / g.prior[idxs].sum()
                    values = np.zeros(len(mech.agent_messages[i]))
                    for x, w in zip(idxs, weights):
                        sel = [m0]
                        for i2 in range(n_i):
                            if i2 == i:
                                sel.append(slice(None))
                            else:
                                sel.append(maps[i2][g.profiles[x, i2]])
                        k = mech.outcome[tuple(sel)]     # (|M_ij|, |A_j|)
                        values += w * (k @ g.agent_utils[i][mech.owner][x])
                    if values[maps[i][t]] < values.max() - tol:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append((m0, maps, _block_table(g, mech, m0, maps)))
    return out


def _block_table(g, mech, m0, maps):
    rows = np.zeros((g.num_profiles, mech.n_actions))
    for x in range(g.num_profiles):
        sel = tuple(maps[i][g.profiles[x, i]] for i in range(g.num_agents))
        rows[x] = mech.outcome[(m0,) + sel]
    return rows


def _principal_ok(g, mechanisms, combo, blocks, tol):
    tables = [blocks[j][combo[j]][2] for j in range(g.num_principals)]
    for j, mech in enumerate(mechanisms):
        if mech.standard:
            continue
        base = expected_principal_payoff(g, j, tables)
        m0, maps, _ = blocks[j][combo[j]]
        for alt in range(len(mech.principal_messages)):
            if alt == m0:
                continue
            trial = list(tables)
            trial[j] = _block_table(g, mech, alt, maps)
            if expected_principal_payoff(g, j, trial) - base > tol:
                return False
    return True


def continuation_combos(g, mechanisms, tol=EQ_TOL):
    """(blocks, combos): blocks[j] lists (m_0, maps, induced table) per
    agent-optimal candidate; combos lists the index tuples into them that
    also pass the principal-message conditions."""
    blocks = [_block_candidates(g, mech, tol) for mech in mechanisms]
    combos = [combo for combo in itertools.product(*[range(len(b)) for b in blocks])
              if _principal_ok(g, mechanisms, combo, blocks, tol)]
    return blocks, combos


def notion_checks(g, mechanisms, eq_payoffs, deviations, notion, tol=EQ_TOL):
    """(checks, infeasible) of check_equilibrium_notion, given the on-path
    equilibrium payoffs."""
    checks = []
    infeasible = []
    for j, devs in sorted(deviations.items()):
        for d_idx, dev in enumerate(devs):
            if _same_mechanism(dev, mechanisms[j]):
                continue
            subgame = list(mechanisms)
            subgame[j] = dev
            blocks, combos = continuation_combos(g, subgame, tol)
            if not combos:
                infeasible.append((g.principal_ids[j], d_idx))
                continue
            payoff = {
                combo: expected_principal_payoff(
                    g, j, [blocks[m][combo[m]][2] for m in range(g.num_principals)])
                for combo in combos
            }
            if notion == "pbe":
                value = min(payoff.values())
            elif notion == "strongly-robust":
                value = max(payoff.values())
            else:
                groups = {}
                for combo in combos:
                    key = tuple(c for m, c in enumerate(combo) if m != j)
                    groups.setdefault(key, []).append(payoff[combo])
                value = min(max(vals) for vals in groups.values())
            passed = eq_payoffs[j] >= value - tol
            checks.append({
                "principal": g.principal_ids[j],
                "deviation": d_idx,
                "value": float(value),
                "equilibrium_payoff": float(eq_payoffs[j]),
                "ok": bool(passed),
                "n_continuation_equilibria": len(combos),
            })
    return checks, infeasible
