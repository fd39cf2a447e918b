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
matching punishment table, anything else plays the default).

Equilibrium checking is exhaustive over pure message strategies: a
continuation equilibrium requires every agent message optimal at the interim
stage and every principal message optimal ex ante.  The three solution
concepts differ only in how a deviating principal's payoff is aggregated over
the continuation-equilibrium set of the deviation subgame: worst case (pbe),
best case (strongly-robust), or best case per opponent block, worst case over
blocks (robust).
"""

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .bic import MEMBERSHIP_TOL, is_individually_bic
from .game import (
    DIST_ATOL,
    DirectMechanism,
    FiniteGame,
    GameFormatError,
    _require,
    canonical_game_bytes,
    expected_principal_payoff,
    fnv1a64,
)

EQ_TOL = 1e-9
SELECTION_CAP = 10**6
OUTCOME_CELL_CAP = 50_000_000


class SelectionSpaceTooLarge(ValueError):
    """Nesting a set-valued contract would enumerate too many selections."""


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

    def principal_message_index(self, label) -> int:
        return self.principal_messages.index(label)

    def agent_message_index(self, agent: int, label) -> int:
        return self.agent_messages[agent].index(label)


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
    c0 = np.asarray(principal_message, dtype=float)
    rows = np.zeros((g.num_profiles, mech.n_actions))
    for x in range(g.num_profiles):
        t = np.tensordot(c0, mech.outcome, axes=(0, 0))
        for i in range(g.num_agents):
            ci = np.asarray(agent_strategies[i], dtype=float)[g.profiles[x, i]]
            t = np.tensordot(ci, t, axes=(0, 0))
        rows[x] = t
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


def build_type_and_dm_mechanism(g: FiniteGame, principal: int, menu,
                                labels=None) -> GeneralMechanism:
    """Menu mechanism: the principal's message picks a table from ``menu``,
    agents report types simultaneously, and the chosen table is applied to
    the reports.  Every menu entry must be individually BIC at 1e-9."""
    j = principal
    for idx, entry in enumerate(menu):
        res = is_individually_bic(g, entry, tol=MEMBERSHIP_TOL)
        if not res.ok:
            raise MenuEntryNotBIC(idx, res.worst_label, res.worst_value)
    if labels is None:
        labels = tuple(f"dm{idx}" for idx in range(len(menu)))
    n_a = len(g.action_spaces[j])
    shape = (len(menu),) + tuple(len(ts) for ts in g.type_spaces) + (n_a,)
    outcome = np.zeros(shape)
    for idx, entry in enumerate(menu):
        outcome[idx] = entry.p.reshape(shape[1:])
    return GeneralMechanism(
        owner=j,
        principal_messages=tuple(labels),
        agent_messages=tuple(tuple(ts) for ts in g.type_spaces),
        outcome=outcome,
    )


def deviator_message_label(g: FiniteGame, named_principal: int, type_label) -> str:
    return f"{g.principal_ids[named_principal]}:{type_label}"


def build_deviator_reporting(g: FiniteGame, principal: int,
                             default: DirectMechanism,
                             punishments: dict) -> GeneralMechanism:
    """Standard mechanism where each agent reports (named principal, type).

    If some principal j != owner is named by a strict majority of agents, the
    punishment table for j is applied to the type reports; otherwise (ties
    included) the default table is.  All tables must be individually BIC; a
    punishment entry is required for every other principal."""
    k = principal
    n_i = g.num_agents
    n_j = g.num_principals
    if n_i < 3:
        raise TooFewAgents("deviator reporting needs at least 3 agents")
    for j in range(n_j):
        if j != k and j not in punishments:
            raise ValueError(f"missing punishment entry for principal index {j}")
    res = is_individually_bic(g, default, tol=MEMBERSHIP_TOL)
    if not res.ok:
        raise NotBIC(f"default table: row {res.worst_label} -> {res.worst_value:.3e}")
    for j, table in punishments.items():
        res = is_individually_bic(g, table, tol=MEMBERSHIP_TOL)
        if not res.ok:
            raise NotBIC(
                f"punishment for principal index {j}: row {res.worst_label} "
                f"-> {res.worst_value:.3e}"
            )
    msg_sets = []
    for i in range(n_i):
        labels = tuple(
            deviator_message_label(g, j, t)
            for j in range(n_j) for t in g.type_spaces[i]
        )
        msg_sets.append(labels)
    n_a = len(g.action_spaces[k])
    shape = (1,) + tuple(len(m) for m in msg_sets) + (n_a,)
    outcome = np.zeros(shape)
    type_sizes = [len(ts) for ts in g.type_spaces]
    for combo in itertools.product(*[range(len(m)) for m in msg_sets]):
        named = [combo[i] // type_sizes[i] for i in range(n_i)]
        reports = [combo[i] % type_sizes[i] for i in range(n_i)]
        counts = {}
        for j in named:
            if j != k:
                counts[j] = counts.get(j, 0) + 1
        majority = [j for j, c in counts.items() if c > n_i / 2]
        table = punishments[majority[0]] if majority else default
        x = int(np.ravel_multi_index(reports, type_sizes))
        outcome[(0,) + combo] = table.p[x]
    return GeneralMechanism(
        owner=k,
        principal_messages=("*",),
        agent_messages=tuple(msg_sets),
        outcome=outcome,
    )


def standard_from_direct(g: FiniteGame, mech: DirectMechanism) -> GeneralMechanism:
    """Wrap a direct mechanism as a standard message game with type reports."""
    shape = (1,) + tuple(len(ts) for ts in g.type_spaces) + (mech.p.shape[1],)
    return GeneralMechanism(
        owner=mech.owner,
        principal_messages=("*",),
        agent_messages=tuple(tuple(ts) for ts in g.type_spaces),
        outcome=mech.p.reshape(shape),
    )


# -- canned strategies ---------------------------------------------------------


def pure_strategies(g: FiniteGame, mechanisms, principal_choice: dict,
                    agent_choice: dict) -> StrategyProfile:
    """Degenerate strategy profile from message labels.

    principal_choice[j] is an m_0 label; agent_choice[(i, j)] maps each type
    label of agent i to a message label of M_ij."""
    pm = {}
    am = {}
    for j, mech in enumerate(mechanisms):
        c0 = np.zeros(len(mech.principal_messages))
        c0[mech.principal_message_index(principal_choice[j])] = 1.0
        pm[j] = c0
        for i in range(g.num_agents):
            rows = np.zeros((len(g.type_spaces[i]), len(mech.agent_messages[i])))
            for ti, t in enumerate(g.type_spaces[i]):
                rows[ti, mech.agent_message_index(i, agent_choice[(i, j)][t])] = 1.0
            am[(i, j)] = rows
    return StrategyProfile(principal_messages=pm, agent_messages=am)


def truthful_strategies(g: FiniteGame, mechanisms) -> StrategyProfile:
    """Type reports for mechanisms whose agent message sets are the type
    spaces; the principal message is the first label."""
    choice = {}
    for j, mech in enumerate(mechanisms):
        for i in range(g.num_agents):
            if tuple(mech.agent_messages[i]) != tuple(g.type_spaces[i]):
                raise ValueError(
                    f"mechanism of principal {j} does not take plain type reports "
                    f"from agent {i}"
                )
            choice[(i, j)] = {t: t for t in g.type_spaces[i]}
    pc = {j: mech.principal_messages[0] for j, mech in enumerate(mechanisms)}
    return pure_strategies(g, mechanisms, pc, choice)


def deviator_truthful_strategies(g: FiniteGame, mechanisms) -> StrategyProfile:
    """On-path play for deviator-reporting mechanisms: name the owner, report
    the true type.  Mechanisms with plain type reports are reported to
    truthfully as well."""
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
                    f"mechanism of principal {j} has no (owner, type) message "
                    f"for agent {i}"
                )
            choice[(i, j)] = want
    return pure_strategies(g, mechanisms, pc, choice)


# -- continuation equilibrium ---------------------------------------------------


@dataclass
class CeVerdict:
    ok: bool
    worst_gain: float
    witness: tuple = None    # ("agent", id, type, principal, message) | ("principal", id, message)

    def __bool__(self) -> bool:
        return self.ok


def _contract_messages(outcome: np.ndarray, vectors) -> np.ndarray:
    """Contract the message axes of an outcome table against 1-D weights;
    None entries leave their axis in place (in order), before the action
    axis."""
    t = outcome
    pos = 0
    for v in vectors:
        if v is None:
            pos += 1
        else:
            t = np.tensordot(np.asarray(v, dtype=float), t, axes=(0, pos))
    return t


def _agent_message_values(g: FiniteGame, mech: GeneralMechanism,
                          strategies: StrategyProfile, agent: int,
                          t: int) -> np.ndarray:
    """Interim payoff of each message agent i could send to this principal,
    holding everyone else (and own play elsewhere) fixed."""
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


def check_continuation_equilibrium(g: FiniteGame, mechanisms,
                                   strategies: StrategyProfile,
                                   tol: float = EQ_TOL) -> CeVerdict:
    """Exhaustive one-shot deviation check for a strategy profile.

    Agents: for every positive-mass type and every principal, no pure
    alternative message improves the interim payoff component by more than
    tol (sufficient for all mixed alternatives by linearity).  Principals:
    no alternative own message improves the ex-ante payoff by more than tol.
    Returns the most profitable deviation found.
    """
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


# -- pure continuation-equilibrium enumeration ----------------------------------


def _block_candidates(g: FiniteGame, mech: GeneralMechanism, tol: float):
    """All (m_0, agent type->message maps) whose agent messages are interim
    optimal within this mechanism.  Returns a list of (m_0 index, maps,
    induced table rows)."""
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


def _block_table(g: FiniteGame, mech: GeneralMechanism, m0: int, maps) -> np.ndarray:
    """Direct table induced by principal message m0 and pure agent maps."""
    rows = np.zeros((g.num_profiles, mech.n_actions))
    for x in range(g.num_profiles):
        sel = tuple(maps[i][g.profiles[x, i]] for i in range(g.num_agents))
        rows[x] = mech.outcome[(m0,) + sel]
    return rows


def _principal_ok(g: FiniteGame, mechanisms, combo, blocks, tol: float) -> bool:
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


def _profile_from_blocks(g: FiniteGame, mechanisms, combo, blocks) -> StrategyProfile:
    pc = {}
    ac = {}
    for j, mech in enumerate(mechanisms):
        m0, maps, _ = blocks[j][combo[j]]
        pc[j] = mech.principal_messages[m0]
        for i in range(g.num_agents):
            ac[(i, j)] = {
                t: mech.agent_messages[i][maps[i][ti]]
                for ti, t in enumerate(g.type_spaces[i])
            }
    return pure_strategies(g, mechanisms, pc, ac)


def _continuation_combos(g: FiniteGame, mechanisms, tol: float):
    """(blocks, combos): per-mechanism agent-optimal candidates, and the
    index tuples into them that also pass the principal-message conditions.

    Agent optimality factors by principal, so candidates are assembled per
    mechanism first and only the cross products are run through the
    principal-message conditions."""
    blocks = [_block_candidates(g, mech, tol) for mech in mechanisms]
    combos = [combo for combo in itertools.product(*[range(len(b)) for b in blocks])
              if _principal_ok(g, mechanisms, combo, blocks, tol)]
    return blocks, combos


def enumerate_pure_continuation_equilibria(g: FiniteGame, mechanisms,
                                           tol: float = EQ_TOL):
    """Every pure strategy profile passing the continuation check."""
    blocks, combos = _continuation_combos(g, mechanisms, tol)
    return [_profile_from_blocks(g, mechanisms, combo, blocks) for combo in combos]


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

    deviations maps a principal index to a list of alternative mechanisms;
    a deviation identical to the on-path mechanism is skipped.  For each
    remaining deviation the pure continuation equilibria of the subgame are
    enumerated and the deviator's payoff aggregated by notion: pbe takes the
    worst equilibrium for the deviator, strongly-robust the best, robust the
    worst over the other players' strategy blocks of the best completion.
    Subgames with no pure continuation equilibrium are listed in
    ``infeasible`` and do not falsify the verdict.  Verdicts quantify over
    pure continuation play only.
    """
    if notion not in NOTIONS:
        raise ValueError(f"unknown notion {notion!r}")
    if not any(len(v) for v in deviations.values()):
        raise DeviationSetEmpty("no deviation mechanisms supplied")
    on_path = check_continuation_equilibrium(g, mechanisms, strategies, tol)
    induced = induce_profile(g, mechanisms, strategies)
    eq_payoffs = [expected_principal_payoff(g, j, induced)
                  for j in range(g.num_principals)]
    checks = []
    infeasible = []
    ok = on_path.ok
    for j, devs in sorted(deviations.items()):
        for d_idx, dev in enumerate(devs):
            if _same_mechanism(dev, mechanisms[j]):
                continue
            subgame = list(mechanisms)
            subgame[j] = dev
            blocks, combos = _continuation_combos(g, subgame, tol)
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
            ok = ok and passed
            checks.append({
                "principal": g.principal_ids[j],
                "deviation": d_idx,
                "value": float(value),
                "equilibrium_payoff": float(eq_payoffs[j]),
                "ok": bool(passed),
                "n_continuation_equilibria": len(combos),
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
    joint = np.stack(actions, axis=1)
    freq = {}
    for combo, count in zip(*np.unique(joint, axis=0, return_counts=True)):
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
    _require(isinstance(doc, dict), path, "mechanism must be an object")
    for key in ("owner", "message_sets", "outcome_rows", "standard"):
        _require(key in doc, f"{path}.{key}", "missing field")
    _require(doc["owner"] in g.principal_ids, f"{path}.owner",
             f"unknown principal {doc['owner']!r}")
    owner = g.principal_ids.index(doc["owner"])
    ms = doc["message_sets"]
    _require(isinstance(ms, dict) and "principal" in ms and "agents" in ms,
             f"{path}.message_sets", "needs 'principal' and 'agents'")
    pm = tuple(ms["principal"])
    _require(len(pm) > 0 and len(set(pm)) == len(pm),
             f"{path}.message_sets.principal", "labels must be nonempty and distinct")
    am = []
    for i, aid in enumerate(g.agent_ids):
        _require(aid in ms["agents"], f"{path}.message_sets.agents.{aid}",
                 "missing agent message set")
        labels = tuple(ms["agents"][aid])
        _require(len(labels) > 0 and len(set(labels)) == len(labels),
                 f"{path}.message_sets.agents.{aid}",
                 "labels must be nonempty and distinct")
        am.append(labels)
    am = tuple(am)
    n_a = len(g.action_spaces[owner])
    shape = (len(pm),) + tuple(len(m) for m in am) + (n_a,)
    outcome = np.full(shape, np.nan)
    for r_idx, row in enumerate(doc["outcome_rows"]):
        rpath = f"{path}.outcome_rows[{r_idx}]"
        _require(isinstance(row, dict) and "m" in row and "dist" in row,
                 rpath, "row needs 'm' and 'dist'")
        m = row["m"]
        _require(len(m) == 1 + len(am), f"{rpath}.m",
                 f"expected {1 + len(am)} message labels")
        _require(m[0] in pm, f"{rpath}.m[0]", f"unknown principal message {m[0]!r}")
        idx = [pm.index(m[0])]
        for i in range(len(am)):
            _require(m[1 + i] in am[i], f"{rpath}.m[{1 + i}]",
                     f"unknown message {m[1 + i]!r} for agent {g.agent_ids[i]}")
            idx.append(am[i].index(m[1 + i]))
        _require(np.all(np.isnan(outcome[tuple(idx)])), f"{rpath}.m",
                 "duplicate outcome row")
        dist = np.zeros(n_a)
        for lab, p in row["dist"].items():
            _require(lab in g.action_spaces[owner], f"{rpath}.dist.{lab}",
                     "unknown action label")
            dist[g.action_spaces[owner].index(lab)] = float(p)
        outcome[tuple(idx)] = dist
    _require(not np.any(np.isnan(outcome)), f"{path}.outcome_rows",
             "some message combinations have no outcome row")
    try:
        return GeneralMechanism(
            owner=owner, principal_messages=pm, agent_messages=am,
            outcome=outcome, standard=bool(doc["standard"]),
        )
    except ValueError as exc:
        raise GameFormatError(path, str(exc)) from exc


def save_general_mechanism(g: FiniteGame, mech: GeneralMechanism, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(general_mechanism_to_dict(g, mech), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_general_mechanism(g: FiniteGame, path) -> GeneralMechanism:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GameFormatError(str(path), f"invalid JSON: {exc}") from exc
    return general_mechanism_from_dict(g, doc, path="$")


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
    _require(isinstance(doc, dict) and "entries" in doc, path,
             "strategy document needs an 'entries' object")
    h = mechanism_profile_hash(g, mechanisms)
    _require(doc.get("mechanism_profile_hash") == h,
             f"{path}.mechanism_profile_hash",
             "strategies were written for a different mechanism profile")
    entries = doc["entries"]
    pm = {}
    am = {}
    for j, mech in enumerate(mechanisms):
        pid = g.principal_ids[j]
        key = f"principal:{pid}:{h}"
        _require(key in entries, f"{path}.entries.{key}", "missing entry")
        c0 = np.zeros(len(mech.principal_messages))
        for lab, p in entries[key].items():
            _require(lab in mech.principal_messages, f"{path}.entries.{key}.{lab}",
                     "unknown message label")
            c0[mech.principal_message_index(lab)] = float(p)
        pm[j] = c0
        for i in range(g.num_agents):
            aid = g.agent_ids[i]
            rows = np.zeros((len(g.type_spaces[i]), len(mech.agent_messages[i])))
            for ti, t in enumerate(g.type_spaces[i]):
                key = f"agent:{aid}:{pid}:{h}:{t}"
                _require(key in entries, f"{path}.entries.{key}", "missing entry")
                for lab, p in entries[key].items():
                    _require(lab in mech.agent_messages[i],
                             f"{path}.entries.{key}.{lab}", "unknown message label")
                    rows[ti, mech.agent_message_index(i, lab)] = float(p)
            am[(i, j)] = rows
    prof = StrategyProfile(principal_messages=pm, agent_messages=am)
    try:
        prof.validate(g, mechanisms)
    except ValueError as exc:
        raise GameFormatError(f"{path}.entries", str(exc)) from exc
    return prof


def save_strategies(g: FiniteGame, mechanisms, strategies: StrategyProfile,
                    path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(strategies_to_dict(g, mechanisms, strategies), fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


def load_strategies(g: FiniteGame, mechanisms, path) -> StrategyProfile:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GameFormatError(str(path), f"invalid JSON: {exc}") from exc
    return strategies_from_dict(g, mechanisms, doc, path="$")
