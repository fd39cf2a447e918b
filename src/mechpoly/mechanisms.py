"""Finite-message mechanisms, continuation play, and equilibrium notions.

A general mechanism for principal j maps a message profile (the principal's
own message m_0 plus one message per agent) to a distribution over j's
actions.  Strategies attach a message distribution to every sender;
``induce_direct_mechanism`` collapses the pair back to a type-indexed table,
which is where the direct-mechanism machinery takes over.

The two constructions used to support payoff floors are built here: the menu
mechanism (agents report types, the principal picks an incentive-compatible
table from a finite menu) and the deviator-reporting mechanism (agents name a
deviating principal alongside their type; a strict majority triggers the
matching punishment table, anything else plays the default).  Both accept
only the building principal's own tables, each individually BIC.

Equilibrium checking is exhaustive over pure message strategies: a
continuation equilibrium requires every agent message optimal at the interim
stage and every principal message optimal ex ante.  The three solution
concepts differ only in how a deviating principal's payoff is aggregated over
the continuation-equilibrium set of the deviation subgame: worst case (pbe),
best case (strongly-robust), or best case per opponent block, worst case over
blocks (robust).
"""

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .bic import MEMBERSHIP_TOL, is_individually_bic
from .game import (
    DIST_ATOL,
    DirectMechanism,
    FiniteGame,
    GameFormatError,
    _contract_except,
    _array,
    _dist,
    _fields,
    _index,
    _indices,
    _interim_weights,
    _labels,
    _read_json,
    _require,
    _require_table,
    _write_json,
    canonical_game_bytes,
    expected_principal_payoff,
    fnv1a64,
)

EQ_TOL = 1e-9
SELECTION_CAP = 10**6
COMBO_CAP = 10**6
OUTCOME_CELL_CAP = 50_000_000


class SelectionSpaceTooLarge(ValueError):
    """Nesting a set-valued contract would enumerate too many selections."""


class ContinuationSpaceTooLarge(ValueError):
    """One mechanism's pure candidates or the block combos exceed COMBO_CAP."""


class MenuEntryNotBIC(ValueError):
    def __init__(self, index, worst_label, worst_value):
        self.index = index
        self.worst_label = worst_label
        self.worst_value = worst_value
        super().__init__(
            f"menu entry {index} violates incentive compatibility: "
            f"row {worst_label} evaluates to {worst_value:.3e}"
        )


class TooFewAgents(ValueError):
    """Deviator reporting needs at least three agents for a strict majority."""


class NotBIC(ValueError):
    """A table handed to a mechanism builder is not individually BIC."""


class DeviationSetEmpty(ValueError):
    """No deviation mechanism supplied for any principal."""


@dataclass(frozen=True)
class GeneralMechanism:
    """One principal's message game.

    outcome has shape (|M_0|, |M_1|, ..., |M_I|, |A_j|); every row along the
    last axis is a probability distribution.  ``standard`` is derived from
    the table (True iff the outcome ignores m_0); passing an inconsistent
    value raises.
    """

    owner: int
    principal_messages: tuple
    agent_messages: tuple
    outcome: np.ndarray
    standard: bool = None

    def __post_init__(self):
        out = np.asarray(self.outcome, dtype=float)
        expected = (len(self.principal_messages),) + tuple(
            len(m) for m in self.agent_messages
        )
        if out.shape[:-1] != expected:
            raise ValueError(
                f"outcome shape {out.shape} does not match message sets {expected}"
            )
        if np.min(out) < -DIST_ATOL or not np.all(np.isfinite(out)):
            raise ValueError("outcome rows must be nonnegative and finite")
        sums = out.sum(axis=-1)
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ValueError("outcome rows must sum to 1")
        out.flags.writeable = False
        object.__setattr__(self, "outcome", out)
        derived = bool(np.all(np.abs(out - out[:1]) <= 1e-12))
        if self.standard is None:
            object.__setattr__(self, "standard", derived)
        elif bool(self.standard) != derived:
            raise ValueError("standard flag inconsistent with the outcome table")

    @property
    def num_agents(self) -> int:
        return len(self.agent_messages)

    @property
    def n_actions(self) -> int:
        return self.outcome.shape[-1]


@dataclass
class StrategyProfile:
    """Message distributions for every sender in a mechanism profile.

    principal_messages[j]: distribution over M_0j.
    agent_messages[(i, j)]: array (|X_i|, |M_ij|), one distribution per type.
    """

    principal_messages: dict
    agent_messages: dict

    def validate(self, g: FiniteGame, mechanisms) -> None:
        for j, mech in enumerate(mechanisms):
            c0 = np.asarray(self.principal_messages[j], dtype=float)
            if c0.shape != (len(mech.principal_messages),):
                raise ValueError(f"principal {j} message distribution has wrong shape")
            _check_dist_rows(c0[None, :], f"principal {j}")
            for i in range(g.num_agents):
                c = np.asarray(self.agent_messages[(i, j)], dtype=float)
                want = (len(g.type_spaces[i]), len(mech.agent_messages[i]))
                if c.shape != want:
                    raise ValueError(
                        f"agent {i} strategy for principal {j}: shape {c.shape}, want {want}"
                    )
                _check_dist_rows(c, f"agent {i} -> principal {j}")


def _check_dist_rows(rows: np.ndarray, who: str) -> None:
    if np.min(rows) < -DIST_ATOL:
        raise ValueError(f"{who}: negative message probability")
    if np.max(np.abs(rows.sum(axis=-1) - 1.0)) > 1e-9:
        raise ValueError(f"{who}: message probabilities must sum to 1")


@dataclass(frozen=True)
class SetValuedContract:
    """Agent-messages-only contract mapping each profile to a SET of action
    distributions; the principal's later message selects a member."""

    owner: int
    agent_messages: tuple
    n_actions: int
    table: dict  # message index tuple -> tuple of distributions

    def __post_init__(self):
        shape = tuple(len(m) for m in self.agent_messages)
        for m in itertools.product(*[range(s) for s in shape]):
            if m not in self.table:
                raise ValueError(f"contract table missing entry for messages {m}")
            cell = self.table[m]
            if len(cell) == 0:
                raise ValueError(f"contract cell {m} is empty")
            for d in cell:
                d = np.asarray(d, dtype=float)
                if d.shape != (self.n_actions,) or np.min(d) < -DIST_ATOL \
                        or abs(float(d.sum()) - 1.0) > 1e-9:
                    raise ValueError(f"contract cell {m} holds an invalid distribution")


# -- construction -------------------------------------------------------------


def induce_direct_mechanism(g: FiniteGame, mech: GeneralMechanism,
                            principal_message: np.ndarray,
                            agent_strategies) -> DirectMechanism:
    """Average the outcome table over message draws, type profile by type
    profile.  agent_strategies[i] has shape (|X_i|, |M_ij|); types with no
    strategy mass still produce valid rows because rows are mixtures."""
    rows = _contract_outcome(g, mech, principal_message, agent_strategies)
    return DirectMechanism(owner=mech.owner, p=rows)


def induce_profile(g: FiniteGame, mechanisms, strategies: StrategyProfile) -> list:
    return [
        induce_direct_mechanism(
            g, mech, strategies.principal_messages[j],
            [strategies.agent_messages[(i, j)] for i in range(g.num_agents)],
        )
        for j, mech in enumerate(mechanisms)
    ]


def nest_szentes_contract(h: SetValuedContract) -> GeneralMechanism:
    """Rebuild a set-valued contract as an ordinary mechanism.

    The principal's message set becomes the set of all selection maps over
    the distinct image sets of h, so outcome(m_0, m) is always a member of
    h(m).  Raises SelectionSpaceTooLarge past 10^6 selections (or when the
    dense outcome table would be unreasonably large).
    """
    shape = tuple(len(m) for m in h.agent_messages)
    cells = list(itertools.product(*[range(s) for s in shape]))
    distinct = []          # canonical key -> index via dict below
    key_to_idx = {}
    cell_set_idx = {}
    for m in cells:
        members = tuple(np.asarray(d, dtype=float) for d in h.table[m])
        key = tuple(sorted(tuple(np.round(d, 12)) for d in members))
        if key not in key_to_idx:
            key_to_idx[key] = len(distinct)
            distinct.append(members)
        cell_set_idx[m] = key_to_idx[key]
    n_selections = 1
    for members in distinct:
        n_selections *= len(members)
        if n_selections > SELECTION_CAP:
            raise SelectionSpaceTooLarge(
                f"image sets admit more than {SELECTION_CAP} selection maps"
            )
    total_cells = n_selections * len(cells) * h.n_actions
    if total_cells > OUTCOME_CELL_CAP:
        raise SelectionSpaceTooLarge(
            f"nested outcome table would hold {total_cells} entries"
        )
    selections = list(itertools.product(*[range(len(s)) for s in distinct]))
    labels = tuple(f"sel{n}" for n in range(len(selections)))
    outcome = np.zeros((len(selections),) + shape + (h.n_actions,))
    for s_idx, sel in enumerate(selections):
        for m in cells:
            outcome[(s_idx,) + m] = distinct[cell_set_idx[m]][sel[cell_set_idx[m]]]
    return GeneralMechanism(
        owner=h.owner,
        principal_messages=labels,
        agent_messages=h.agent_messages,
        outcome=outcome,
    )


def _type_report_mechanism(g: FiniteGame, j: int, tables, labels) -> GeneralMechanism:
    """Principal j's mechanism in which agents report types and principal
    message ``labels[n]`` applies ``tables[n]`` to the reports.  Checks
    nothing beyond GeneralMechanism's own: the callers decide what fits."""
    shape = (len(tables),) + tuple(len(ts) for ts in g.type_spaces) + (-1,)
    return GeneralMechanism(owner=j, principal_messages=tuple(labels),
                            agent_messages=g.type_spaces,
                            outcome=np.stack([t.p for t in tables]).reshape(shape))


def build_type_and_dm_mechanism(g: FiniteGame, principal: int, menu,
                                labels=None) -> GeneralMechanism:
    """Menu mechanism: the principal's message picks a table from ``menu``,
    agents report types simultaneously, and the chosen table is applied to
    the reports.  Every menu entry must be the principal's own table
    (ValueError otherwise) and individually BIC at 1e-9 (MenuEntryNotBIC)."""
    for idx, entry in enumerate(menu):
        _require_table(g, principal, entry, f"menu entry {idx}", True)
    for idx, entry in enumerate(menu):
        res = is_individually_bic(g, entry, tol=MEMBERSHIP_TOL)
        if not res.ok:
            raise MenuEntryNotBIC(idx, res.worst_label, res.worst_value)
    if labels is None:
        labels = tuple(f"dm{idx}" for idx in range(len(menu)))
    return _type_report_mechanism(g, principal, menu, labels)


def deviator_message_label(g: FiniteGame, named_principal: int, type_label) -> str:
    return f"{g.principal_ids[named_principal]}:{type_label}"


def build_deviator_reporting(g: FiniteGame, principal: int,
                             default: DirectMechanism,
                             punishments: dict) -> GeneralMechanism:
    """Standard mechanism where each agent reports (named principal, type).

    If some principal j != owner is named by a strict majority of agents, the
    punishment table for j is applied to the type reports; otherwise (ties
    included) the default table is.  A punishment entry is required for
    every other principal, and a key that is the owner or no principal is a
    ValueError.  Every table must be the owner's own (ValueError otherwise)
    and individually BIC (NotBIC)."""
    k = principal
    n_i = g.num_agents
    n_j = g.num_principals
    if n_i < 3:
        raise TooFewAgents("deviator reporting needs at least 3 agents")
    for j in range(n_j):
        if j != k and j not in punishments:
            raise ValueError(f"missing punishment entry for principal index {j}")
    for j in punishments:
        if j == k or j not in range(n_j):
            raise ValueError(f"punishment entry for principal index {j!r}, "
                             f"which is not another principal")
    tables = [("default table", default)] + [
        (f"punishment for principal index {j}", table) for j, table in punishments.items()]
    for what, table in tables:
        _require_table(g, k, table, what, True)
    for what, table in tables:
        res = is_individually_bic(g, table, tol=MEMBERSHIP_TOL)
        if not res.ok:
            raise NotBIC(f"{what}: row {res.worst_label} -> {res.worst_value:.3e}")
    msg_sets = tuple(tuple(deviator_message_label(g, j, t) for j in range(n_j) for t in ts)
                     for ts in g.type_spaces)
    outcome = np.zeros((1,) + tuple(len(m) for m in msg_sets) + (len(g.action_spaces[k]),))
    type_sizes = [len(ts) for ts in g.type_spaces]
    for combo in itertools.product(*[range(len(m)) for m in msg_sets]):
        named = [combo[i] // type_sizes[i] for i in range(n_i)]
        reports = [combo[i] % type_sizes[i] for i in range(n_i)]
        majority = [j for j in set(named) - {k} if named.count(j) > n_i / 2]
        table = punishments[majority[0]] if majority else default
        x = int(np.ravel_multi_index(reports, type_sizes))
        outcome[(0,) + combo] = table.p[x]
    return GeneralMechanism(owner=k, principal_messages=("*",), agent_messages=msg_sets,
                            outcome=outcome)


def standard_from_direct(g: FiniteGame, mech: DirectMechanism) -> GeneralMechanism:
    """Wrap a direct mechanism as a standard message game with type reports.
    The table is not checked against the game or its owner's polytope."""
    return _type_report_mechanism(g, mech.owner, [mech], ("*",))


# -- canned strategies ---------------------------------------------------------


def _pure_profile(g: FiniteGame, mechanisms, m0, maps) -> StrategyProfile:
    """One-hot strategy profile: principal j sends message index ``m0[j]``,
    and agent i of type index t sends ``maps[j][i][t]`` to principal j."""
    pm = {}
    am = {}
    for j, mech in enumerate(mechanisms):
        pm[j] = np.eye(len(mech.principal_messages))[m0[j]]
        for i in range(g.num_agents):
            am[(i, j)] = np.eye(len(mech.agent_messages[i]))[maps[j][i]]
    return StrategyProfile(principal_messages=pm, agent_messages=am)


def pure_strategies(g: FiniteGame, mechanisms, principal_choice: dict,
                    agent_choice: dict) -> StrategyProfile:
    """Degenerate strategy profile from message labels.

    principal_choice[j] is an m_0 label; agent_choice[(i, j)] maps each type
    label of agent i to a message label of M_ij."""
    m0 = [mech.principal_messages.index(principal_choice[j])
          for j, mech in enumerate(mechanisms)]
    maps = [[[mech.agent_messages[i].index(agent_choice[(i, j)][t]) for t in g.type_spaces[i]]
             for i in range(g.num_agents)] for j, mech in enumerate(mechanisms)]
    return _pure_profile(g, mechanisms, m0, maps)


def truthful_strategies(g: FiniteGame, mechanisms) -> StrategyProfile:
    """On-path play: each principal sends its first message, and each agent
    reports its true type to a mechanism whose message set for it is the
    type space, and (owner, true type) to a deviator-reporting mechanism.
    Any other agent message set raises ValueError."""
    pc = {j: mech.principal_messages[0] for j, mech in enumerate(mechanisms)}
    choice = {}
    for j, mech in enumerate(mechanisms):
        for i in range(g.num_agents):
            labels = tuple(mech.agent_messages[i])
            if labels == tuple(g.type_spaces[i]):
                choice[(i, j)] = {t: t for t in g.type_spaces[i]}
                continue
            want = {t: deviator_message_label(g, j, t) for t in g.type_spaces[i]}
            if not all(w in labels for w in want.values()):
                raise ValueError(
                    f"mechanism of principal {j} takes neither plain type reports nor "
                    f"(owner, type) messages from agent {i}"
                )
            choice[(i, j)] = want
    return pure_strategies(g, mechanisms, pc, choice)


deviator_truthful_strategies = truthful_strategies


# -- continuation equilibrium ---------------------------------------------------


@dataclass
class CeVerdict:
    ok: bool
    worst_gain: float
    witness: tuple = None    # ("agent", id, type, principal, message) | ("principal", id, message)

    def __bool__(self) -> bool:
        return self.ok


def _contract_outcome(g: FiniteGame, mech: GeneralMechanism, principal_w,
                      agent_w, open_agent=None) -> np.ndarray:
    """(n_profiles, |A|): the table induced in one mechanism by message
    weights principal_w (|M_0|) and agent_w[i] (|X_i|, |M_i|), contracted
    profile by profile, principal message first.  principal_w=None keeps an
    |M_0| axis in front; ``open_agent``'s weights are unused and its |M_i|
    axis is kept before |A|.  One-hot weights reproduce the gathered outcome
    entries exactly."""
    out = mech.outcome
    if principal_w is None:
        t = out[:, None]
    else:
        w = np.asarray(principal_w, dtype=float)
        t = (w[None, :] @ out.reshape(out.shape[0], -1)).reshape((1, 1) + out.shape[1:])
    # t axes: (principal message, profile, next agent's message, ...)
    for i in range(g.num_agents):
        if i == open_agent:
            t = np.moveaxis(t, 2, -2)
            continue
        w = np.asarray(agent_w[i], dtype=float)[g.profiles[:, i]]
        rest = t.shape[3:]
        t = w[None, :, None, :] @ t.reshape(t.shape[:3] + (math.prod(rest),))
        t = t.reshape(t.shape[:2] + rest)
    t = np.broadcast_to(t, t.shape[:1] + (g.num_profiles,) + t.shape[2:])
    return t if principal_w is None else t[0]


def _require_fit(g: FiniteGame, j: int, mech: GeneralMechanism, what: str) -> None:
    """ValueError unless mech is owned by principal j and has j's actions and
    one message set per agent of the game."""
    if mech.owner != j:
        raise ValueError(f"{what} for principal {g.principal_ids[j]} is owned by principal "
                         f"index {mech.owner}")
    n_a = len(g.action_spaces[j])
    if mech.n_actions != n_a:
        raise ValueError(f"{what} for principal {g.principal_ids[j]} has {mech.n_actions} "
                         f"actions, the game gives it {n_a}")
    if mech.num_agents != g.num_agents:
        raise ValueError(f"{what} for principal {g.principal_ids[j]} has {mech.num_agents} "
                         f"agent message sets, the game needs {g.num_agents}")


def _require_mechanisms(g: FiniteGame, mechanisms) -> None:
    """ValueError unless each principal has one mechanism, fitting it."""
    if len(mechanisms) != g.num_principals:
        raise ValueError(f"{len(mechanisms)} mechanisms for {g.num_principals} principals")
    for j, mech in enumerate(mechanisms):
        _require_fit(g, j, mech, "mechanism")


def check_continuation_equilibrium(g: FiniteGame, mechanisms,
                                   strategies: StrategyProfile,
                                   tol: float = EQ_TOL) -> CeVerdict:
    """Exhaustive one-shot deviation check for a strategy profile.

    Agents: for every positive-mass type and every principal, no pure
    alternative message improves the interim payoff component by more than
    tol (sufficient for all mixed alternatives by linearity); the interim
    payoffs weigh each profile by ``_interim_weights``, summed profile by
    profile, so zero-mass types never bind.  Principals: no alternative own
    message improves the ex-ante payoff by more than tol.
    Returns the most profitable deviation found.  A mechanism count other
    than the principals', or a mechanism that does not fit the principal at
    its position (owner, actions, agent message sets), raises ValueError.
    """
    _require_mechanisms(g, mechanisms)
    weights = [[np.asarray(strategies.agent_messages[(i, j)], dtype=float)
                for i in range(g.num_agents)] for j in range(len(mechanisms))]
    interim = [_interim_weights(g, i) for i in range(g.num_agents)]
    worst, witness = 0.0, None
    for j, (mech, agent_w) in enumerate(zip(mechanisms, weights)):
        for i in range(g.num_agents):
            k = _contract_outcome(g, mech, strategies.principal_messages[j], agent_w,
                                  open_agent=i)      # (n_profiles, |M_i|, |A|)
            kv = (k @ g.agent_utils[i][mech.owner][:, :, None])[..., 0]
            # summed profile by profile: a matrix product rounds differently
            values = (interim[i][:, :, None] * kv).sum(axis=1)     # (|X_i|, |M_i|)
            for t, row in enumerate(values):
                m_best = int(np.argmax(row))
                gain = float(row[m_best] - float(np.dot(agent_w[i][t], row)))
                if gain > worst:
                    worst, witness = gain, ("agent", g.agent_ids[i], g.type_spaces[i][t],
                                            g.principal_ids[j], mech.agent_messages[i][m_best])
    induced = induce_profile(g, mechanisms, strategies)
    for j, mech in enumerate(mechanisms):
        if mech.standard:
            continue
        base = expected_principal_payoff(g, j, induced)
        tables = [dm.p[None] for dm in induced]
        tables[j] = _contract_outcome(g, mech, None, weights[j])[None]
        for m0, pay in enumerate(_payoffs(g, j, tables).reshape(-1)):
            gain = float(pay - base)
            if gain > worst:
                worst, witness = gain, ("principal", g.principal_ids[j],
                                        mech.principal_messages[m0])
    return CeVerdict(ok=worst <= tol, worst_gain=worst, witness=witness)


# -- pure continuation-equilibrium enumeration ----------------------------------


def _agent_optimal_blocks(g: FiniteGame, mechs, tol: float) -> list:
    """One (m0 (S,), maps[i] (S, |X_i|), tables (S, |M_0|, n_profiles, |A|))
    per mechanism of ``mechs``, which share one owner and one outcome shape:
    the candidates (m_0, pure type->message maps) of that mechanism whose
    agent messages are interim optimal, m_0-major then in
    ``itertools.product`` order of the maps, with each one's table under
    every principal message.  The mechanisms are stacked on a leading axis,
    so a menu of same-shaped deviations costs one pass.  Agent i's values do
    not depend on its own map, so they are computed once per (mechanism,
    m_0, other agents' maps), gathered from i's payoff in every message cell
    at every profile, and tested for all of its maps at once."""
    mech = mechs[0]
    sizes = [len(m) for m in mech.agent_messages]
    types = [len(ts) for ts in g.type_spaces]
    n_m0 = len(mech.principal_messages)
    count = n_m0 * math.prod(s ** n for s, n in zip(sizes, types))
    if count > COMBO_CAP:
        raise ContinuationSpaceTooLarge(
            f"mechanism of principal index {mech.owner} has {count} pure "
            f"candidates, more than {COMBO_CAP}")
    out = np.stack([m.outcome.reshape(-1, mech.n_actions) for m in mechs])  # (D, rows, |A|)
    stride = [math.prod(mech.outcome.shape[1 + a:-1]) for a in range(1 + g.num_agents)]
    maps = [np.indices((s,) * n).reshape(n, -1).T for s, n in zip(sizes, types)]
    # each map's outcome-row offset at every profile, (|maps_k|, n_profiles)
    offs = [m[:, g.profiles[:, k]] * stride[1 + k] for k, m in enumerate(maps)]
    ok = np.ones((len(mechs), n_m0) + tuple(len(m) for m in maps), dtype=bool)
    for i in range(g.num_agents):
        grid = ok.shape[:2 + i] + ok.shape[3 + i:]  # (mechanism, m_0, other agents' maps)
        cand = np.indices(grid[1:]).reshape(len(grid) - 1, -1)
        others = [k for k in range(g.num_agents) if k != i]
        row = sum((offs[k][c] for k, c in zip(others, cand[1:])), cand[0][:, None] * stride[0])
        pay = out @ g.agent_utils[i][mech.owner].T      # (D, outcome rows, n_profiles)
        # (D, C, n_profiles, |M_i|), broadcast over profiles when i is alone
        kv = pay[:, row[:, :, None] + np.arange(sizes[i]) * stride[1 + i],
                 np.arange(g.num_profiles)[:, None]]
        values = _interim_weights(g, i) @ kv            # (D, C, |X_i|, |M_i|)
        chosen = values[..., np.arange(types[i]), maps[i]]    # (D, C, |maps_i|, |X_i|)
        fine = ~(chosen < values.max(axis=-1)[..., None, :] - tol)
        ok &= np.moveaxis(fine.all(axis=-1).reshape(grid + (len(maps[i]),)), -1, 2 + i)
    rows = np.argwhere(ok)
    tables = out.reshape(-1, mech.n_actions)[sum(
        (offs[i][rows[:, 2 + i]][:, None] for i in range(g.num_agents)),
        rows[:, :1, None] * out.shape[1] + np.arange(n_m0)[:, None] * stride[0])]
    cuts = np.cumsum(ok.reshape(len(mechs), -1).sum(axis=1))[:-1]
    return [(r[:, 1], [maps[i][r[:, 2 + i]] for i in range(g.num_agents)], t)
            for r, t in zip(np.split(rows, cuts), np.split(tables, cuts))]


def _payoffs(g: FiniteGame, j: int, tables) -> np.ndarray:
    """(S_0, ..., S_{J-1}, |M_0|): principal j's payoff over a grid of
    candidate tables, (S_k, n_profiles, |A_k|) for k != j and one per
    principal message, (S_j, |M_0|, n_profiles, |A_j|), for j.  Each entry is
    the flat sum of ``_contract_except`` coefficients times own table, with
    the bits of ``expected_principal_payoff``."""
    coeff = _contract_except(g, j, j, tables)
    prod = coeff[..., None, None, :, :] * tables[j]
    pay = prod.reshape(prod.shape[:-2] + (math.prod(prod.shape[-2:]),)).sum(axis=-1)
    return np.moveaxis(pay, -2, j)


def _continuation_combos(g: FiniteGame, mechanisms, blocks, tol: float, valued=None):
    """(ok, payoff): given each mechanism's agent-optimal blocks, the boolean
    grid over their cross product of the combos where no principal with a
    non-standard mechanism gains more than tol by another message, and
    principal ``valued``'s payoff on that grid (None if not asked)."""
    shape = tuple(len(b[0]) for b in blocks)
    if math.prod(shape) > COMBO_CAP:
        raise ContinuationSpaceTooLarge(
            f"continuation blocks {shape} make more than {COMBO_CAP} combos")
    ok = np.ones(shape, dtype=bool)
    payoff = None
    for j, mech in enumerate(mechanisms):
        if mech.standard and j != valued:
            continue
        tables = [t[np.arange(len(m0)), m0] for m0, _, t in blocks]
        tables[j] = blocks[j][2]
        pay = _payoffs(g, j, tables)
        m0 = blocks[j][0].reshape((1,) * j + (-1,) + (1,) * (len(shape) - j))
        own = np.take_along_axis(pay, m0, axis=-1)[..., 0]
        if j == valued:
            payoff = own
        if not mech.standard:
            alt = np.where(np.arange(pay.shape[-1]) == m0, -np.inf, pay).max(axis=-1)
            ok &= ~(alt - own > tol)
    return ok, payoff


def enumerate_pure_continuation_equilibria(g: FiniteGame, mechanisms,
                                           tol: float = EQ_TOL):
    """Every pure strategy profile passing the continuation check."""
    _require_mechanisms(g, mechanisms)
    blocks = [_agent_optimal_blocks(g, [mech], tol)[0] for mech in mechanisms]
    ok, _ = _continuation_combos(g, mechanisms, blocks, tol)
    return [_pure_profile(g, mechanisms, [b[0][c] for b, c in zip(blocks, combo)],
                          [[m[c] for m in b[1]] for b, c in zip(blocks, combo)])
            for combo in np.argwhere(ok)]


# -- equilibrium notions ---------------------------------------------------------


NOTIONS = ("pbe", "robust", "strongly-robust")


@dataclass
class NotionVerdict:
    ok: bool
    notion: str
    equilibrium_payoffs: list
    checks: list                       # one dict per (principal, deviation)
    infeasible: list                   # (principal id, deviation index) pairs
    on_path: CeVerdict
    pure_strategy_only: bool = True

    def __bool__(self) -> bool:
        return self.ok


def _same_mechanism(a: GeneralMechanism, b: GeneralMechanism) -> bool:
    return (a.principal_messages == b.principal_messages
            and a.agent_messages == b.agent_messages
            and a.outcome.shape == b.outcome.shape
            and np.max(np.abs(a.outcome - b.outcome)) <= 1e-12)


def check_equilibrium_notion(g: FiniteGame, mechanisms,
                             strategies: StrategyProfile, deviations: dict,
                             notion: str, tol: float = EQ_TOL) -> NotionVerdict:
    """Test a candidate profile against finite deviation menus.

    deviations maps a principal index to a list of alternative mechanisms
    owned by that principal and fitting the game, as the on-path mechanisms
    must (anything else raises ValueError); a deviation
    identical to the on-path mechanism is skipped.  For each remaining
    deviation the pure continuation equilibria of the subgame are enumerated
    and the deviator's payoff aggregated by notion: pbe takes the worst
    equilibrium for the deviator, strongly-robust the best, robust the worst
    over the other players' strategy blocks of the best completion.
    Subgames with no pure continuation equilibrium are listed in
    ``infeasible`` and do not falsify the verdict.  Verdicts quantify over
    pure continuation play only; ContinuationSpaceTooLarge is raised past
    COMBO_CAP candidates of one mechanism or combos of blocks.

    Agent payoffs are separable across principals, so whether an agent's
    messages to one mechanism are interim optimal depends on that mechanism
    alone: ``_agent_optimal_blocks`` reads only the mechanisms it is given.
    Each on-path mechanism's blocks are therefore computed once, in the first
    subgame that needs them, and reused in every later one.  A principal's
    remaining deviations are grouped by outcome shape, in order of first
    appearance, and each group's blocks come from one kernel call, made in
    the subgame of its first member.  Continuation combos and the notion's
    value are still computed deviation by deviation, in menu order.
    """
    if notion not in NOTIONS:
        raise ValueError(f"unknown notion {notion!r}")
    if not any(len(v) for v in deviations.values()):
        raise DeviationSetEmpty("no deviation mechanisms supplied")
    for j, devs in deviations.items():
        if j not in range(g.num_principals):
            raise ValueError(f"deviation key {j!r} is not a principal index")
        for d_idx, dev in enumerate(devs):
            _require_fit(g, j, dev, f"deviation {d_idx}")
    on_path = check_continuation_equilibrium(g, mechanisms, strategies, tol)
    induced = induce_profile(g, mechanisms, strategies)
    eq_payoffs = [expected_principal_payoff(g, j, induced)
                  for j in range(g.num_principals)]
    checks = []
    infeasible = []
    ok = on_path.ok
    on_path_blocks = functools.cache(lambda k: _agent_optimal_blocks(g, [mechanisms[k]], tol)[0])
    for j, devs in sorted(deviations.items()):
        kept = [d for d, dev in enumerate(devs) if not _same_mechanism(dev, mechanisms[j])]
        groups = {}
        for d in kept:
            groups.setdefault(devs[d].outcome.shape, []).append(d)
        group_blocks = functools.cache(lambda shape: dict(zip(
            groups[shape], _agent_optimal_blocks(g, [devs[d] for d in groups[shape]], tol))))
        for d_idx in kept:
            dev = devs[d_idx]
            subgame = list(mechanisms)
            subgame[j] = dev
            # in principal order, and a group's blocks where its first member
            # needs them, so the first mechanism past COMBO_CAP raises
            blocks = [group_blocks(dev.outcome.shape)[d_idx] if k == j else on_path_blocks(k)
                      for k in range(len(subgame))]
            eq, payoff = _continuation_combos(g, subgame, blocks, tol, valued=j)
            if not eq.any():
                infeasible.append((g.principal_ids[j], d_idx))
                continue
            if notion == "pbe":
                value = payoff[eq].min()
            elif notion == "strongly-robust":
                value = payoff[eq].max()
            else:
                best = np.where(eq, payoff, -np.inf).max(axis=j)
                value = best[eq.any(axis=j)].min()
            passed = eq_payoffs[j] >= value - tol
            ok = ok and passed
            checks.append({
                "principal": g.principal_ids[j],
                "deviation": d_idx,
                "value": float(value),
                "equilibrium_payoff": float(eq_payoffs[j]),
                "ok": bool(passed),
                "n_continuation_equilibria": int(eq.sum()),
            })
    return NotionVerdict(
        ok=bool(ok),
        notion=notion,
        equilibrium_payoffs=[float(v) for v in eq_payoffs],
        checks=checks,
        infeasible=infeasible,
        on_path=on_path,
    )


# -- simulation ------------------------------------------------------------------


def _sample_cdf(rng: np.random.Generator, cdf: np.ndarray, row: np.ndarray) -> np.ndarray:
    """One categorical draw per entry of ``row`` from that row of the
    cumulative table ``cdf``, via inverse transform: the number of cumulative
    totals below a uniform draw, counted column by column.  Validated rows
    may hold entries down to -DIST_ATOL, so totals need not be monotone, and
    may sum to 1 - 1e-9, so a draw past the last total is clamped.  A draw
    lies in [0, 1), so a column whose every total is at least 1 counts for
    no row and one whose every total is negative counts for all."""
    u = rng.random(len(row))
    low, high = cdf.min(axis=0), cdf.max(axis=0)
    count = np.full(len(row), np.count_nonzero(high < 0.0), dtype=np.intp)
    for col in cdf.T[(low < 1.0) & (high >= 0.0)]:
        count += u > col[row]
    return np.minimum(count, cdf.shape[1] - 1)


def simulate(g: FiniteGame, mechanisms, strategies: StrategyProfile,
             seed: int, rounds: int) -> dict:
    """Monte Carlo play of a mechanism profile.

    Draws type profiles from the prior and messages from the strategies,
    applies each outcome table, and reports per-player payoff means with
    standard errors plus empirical action-profile frequencies.  Deterministic
    given the seed, which fixes the draws in this order: the type profiles,
    then per principal its message m_0, each agent's message and the action.
    A property test pins them to the per-round oracle's draws.  Mechanisms
    must fit the game and strategies validate against them, and rounds must
    be at least 1 (anything else raises ValueError).
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    _require_mechanisms(g, mechanisms)
    strategies.validate(g, mechanisms)
    rng = np.random.default_rng(seed)
    x_idx = rng.choice(g.num_profiles, p=g.prior, size=rounds)
    actions = []
    for j, mech in enumerate(mechanisms):
        c0 = np.asarray(strategies.principal_messages[j], dtype=float)
        cell = _sample_cdf(rng, np.cumsum(c0[None], axis=1), np.zeros(rounds, dtype=np.intp))
        for i, labels in enumerate(mech.agent_messages):
            rows = np.asarray(strategies.agent_messages[(i, j)], dtype=float)
            # agent i's rows by type profile, so the draws index them by x_idx
            cdf = np.cumsum(rows, axis=1)[g.profiles[:, i]]
            cell = cell * len(labels) + _sample_cdf(rng, cdf, x_idx)
        outcome = np.cumsum(mech.outcome.reshape(-1, mech.n_actions), axis=1)
        actions.append(_sample_cdf(rng, outcome, cell))
    shape = tuple(len(a) for a in g.action_spaces)
    flat = np.ravel_multi_index((x_idx, *actions), (g.num_profiles, *shape))
    principals = []
    for j in range(g.num_principals):
        vals = g.principal_utils[j].take(flat)
        principals.append({
            "id": g.principal_ids[j],
            "mean": float(vals.mean()),
            "stderr": float(vals.std(ddof=1) / np.sqrt(rounds)) if rounds > 1 else 0.0,
        })
    agents = []
    for i in range(g.num_agents):
        joint = 0.0        # i's payoff per (profile, action profile), summed as per round
        for k in range(g.num_principals):
            joint = joint + np.expand_dims(
                g.agent_utils[i][k], tuple(1 + m for m in range(len(shape)) if m != k))
        vals = joint.take(flat)
        agents.append({
            "id": g.agent_ids[i],
            "mean": float(vals.mean()),
            "stderr": float(vals.std(ddof=1) / np.sqrt(rounds)) if rounds > 1 else 0.0,
        })
    counts = np.bincount(flat, minlength=g.num_profiles * math.prod(shape)).reshape(
        g.num_profiles, -1).sum(axis=0)
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


# -- files -------------------------------------------------------------------------


def general_mechanism_to_dict(g: FiniteGame, mech: GeneralMechanism) -> dict:
    rows = []
    ranges = [range(len(mech.principal_messages))] + [
        range(len(m)) for m in mech.agent_messages
    ]
    for combo in itertools.product(*ranges):
        labels = [mech.principal_messages[combo[0]]] + [
            mech.agent_messages[i][combo[1 + i]] for i in range(mech.num_agents)
        ]
        dist = {
            g.action_spaces[mech.owner][a]: float(mech.outcome[combo][a])
            for a in range(mech.n_actions)
        }
        rows.append({"m": labels, "dist": dist})
    return {
        "owner": g.principal_ids[mech.owner],
        "message_sets": {
            "principal": list(mech.principal_messages),
            "agents": {
                g.agent_ids[i]: list(mech.agent_messages[i])
                for i in range(mech.num_agents)
            },
        },
        "outcome_rows": rows,
        "standard": bool(mech.standard),
    }


def general_mechanism_from_dict(g: FiniteGame, doc: dict,
                                path: str = "$") -> GeneralMechanism:
    owner, message_sets, rows, standard = _fields(
        doc, path, "owner", "message_sets", "outcome_rows", "standard")
    owner = _index(g.principal_ids, owner, f"{path}.owner", "principal")
    _require(isinstance(standard, bool), f"{path}.standard", "expected true or false")
    mpath = f"{path}.message_sets"
    principal, agents = _fields(message_sets, mpath, "principal", "agents")
    spaces = (_labels(principal, f"{mpath}.principal"),) + tuple(
        _labels(labels, f"{mpath}.agents.{aid}")
        for aid, labels in zip(g.agent_ids, _fields(agents, f"{mpath}.agents", *g.agent_ids)))
    # each row fills a distinct cell, so rows at least as many as cells fill
    # them all; counting first also bounds the table by the file's size
    rows = _array(rows, f"{path}.outcome_rows")
    shape = tuple(len(m) for m in spaces)
    _require(len(rows) >= math.prod(shape), f"{path}.outcome_rows",
             "some message combinations have no outcome row")
    actions = g.action_spaces[owner]
    outcome = np.full(shape + (len(actions),), np.nan)
    for r, row in enumerate(rows):
        rpath = f"{path}.outcome_rows[{r}]"
        m, dist = _fields(row, rpath, "m", "dist")
        cell = _indices(spaces, m, f"{rpath}.m", "message")
        _require(np.all(np.isnan(outcome[cell])), f"{rpath}.m", "duplicate outcome row")
        outcome[cell] = _dist(dist, actions, f"{rpath}.dist", "action label")
    try:
        return GeneralMechanism(
            owner=owner, principal_messages=spaces[0], agent_messages=spaces[1:],
            outcome=outcome, standard=standard,
        )
    except ValueError as exc:
        raise GameFormatError(path, str(exc)) from exc


def save_general_mechanism(g: FiniteGame, mech: GeneralMechanism, path) -> None:
    _write_json(path, general_mechanism_to_dict(g, mech))


def load_general_mechanism(g: FiniteGame, path) -> GeneralMechanism:
    return general_mechanism_from_dict(g, _read_json(path), path=str(path))


def mechanism_profile_hash(g: FiniteGame, mechanisms) -> str:
    payload = {
        "game": fnv1a64(canonical_game_bytes(g)),
        "mechanisms": [general_mechanism_to_dict(g, m) for m in mechanisms],
    }
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return f"{fnv1a64(data):016x}"


def strategies_to_dict(g: FiniteGame, mechanisms,
                       strategies: StrategyProfile) -> dict:
    h = mechanism_profile_hash(g, mechanisms)
    entries = {}
    for j, mech in enumerate(mechanisms):
        pid = g.principal_ids[j]
        c0 = strategies.principal_messages[j]
        entries[f"principal:{pid}:{h}"] = {
            mech.principal_messages[m]: float(c0[m]) for m in range(len(c0))
        }
        for i in range(g.num_agents):
            aid = g.agent_ids[i]
            rows = strategies.agent_messages[(i, j)]
            for ti, t in enumerate(g.type_spaces[i]):
                entries[f"agent:{aid}:{pid}:{h}:{t}"] = {
                    mech.agent_messages[i][m]: float(rows[ti, m])
                    for m in range(rows.shape[1])
                }
    return {"mechanism_profile_hash": h, "entries": entries}


def strategies_from_dict(g: FiniteGame, mechanisms, doc: dict,
                         path: str = "$") -> StrategyProfile:
    h = mechanism_profile_hash(g, mechanisms)
    written_for, entries = _fields(doc, path, "mechanism_profile_hash", "entries")
    _require(written_for == h, f"{path}.mechanism_profile_hash",
             "strategies were written for a different mechanism profile")
    epath = f"{path}.entries"

    def entry(key, labels):
        (dist,) = _fields(entries, epath, key, missing="missing entry")
        return _dist(dist, labels, f"{epath}.{key}", "message label")

    pm = {}
    am = {}
    for j, mech in enumerate(mechanisms):
        pid = g.principal_ids[j]
        pm[j] = np.array(entry(f"principal:{pid}:{h}", mech.principal_messages))
        for i, aid in enumerate(g.agent_ids):
            am[(i, j)] = np.array([entry(f"agent:{aid}:{pid}:{h}:{t}", mech.agent_messages[i])
                                   for t in g.type_spaces[i]])
    prof = StrategyProfile(principal_messages=pm, agent_messages=am)
    try:
        prof.validate(g, mechanisms)
    except ValueError as exc:
        raise GameFormatError(f"{path}.entries", str(exc)) from exc
    return prof


def save_strategies(g: FiniteGame, mechanisms, strategies: StrategyProfile,
                    path) -> None:
    _write_json(path, strategies_to_dict(g, mechanisms, strategies))


def load_strategies(g: FiniteGame, mechanisms, path) -> StrategyProfile:
    return strategies_from_dict(g, mechanisms, _read_json(path), path=str(path))
