"""Finite competing-mechanism games with separable agent payoffs.

A game has J >= 2 principals and I >= 1 agents.  Each agent i draws a type
from a finite set, jointly distributed by a common prior.  Each principal j
commits to a (possibly random) map from reported type profiles to one of
finitely many actions.  Agent payoffs are sums of per-principal components
u_ik(a_k, x); principal payoffs v_j(a, x) may depend on the whole action
profile.

Everything in this module is plain data plus pure functions: dense numpy
tables indexed by a flat type-profile axis, in declaration order.
"""

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

PRIOR_ATOL = 1e-12      # prior must sum to 1 within this
DIST_ATOL = 1e-12       # per-row distribution tolerance for direct mechanisms
SEPARABLE_ATOL = 1e-9   # max residual accepted by decompose_separable
FLOAT_MAX = sys.float_info.max

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


class GameFormatError(ValueError):
    """Raised when a game/mechanism file is malformed; carries the field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class NotSeparable(ValueError):
    """Raised when a joint agent payoff table has no additive decomposition.

    Attributes ``action_profile``, ``profile`` and ``residual`` identify the
    cell with the largest deviation from the best additive fit.
    """

    def __init__(self, action_profile, profile, residual):
        self.action_profile = action_profile
        self.profile = profile
        self.residual = residual
        super().__init__(
            "no additive decomposition: residual %.3e at actions %s, types %s"
            % (residual, action_profile, profile)
        )


# the state's low byte after one step, indexed by (low byte ^ data byte)
_FNV_LOW = bytes(x * FNV64_PRIME & 0xFF for x in range(256))


@functools.cache
def _fnv_powers(bits: int) -> np.ndarray:
    """FNV64_PRIME ** m mod 2**64 for m = 0 .. 2**bits - 1, read-only."""
    powers = np.ones(1 << bits, dtype=np.uint64)
    np.cumprod(np.full(len(powers) - 1, FNV64_PRIME, dtype=np.uint64), out=powers[1:])
    powers.flags.writeable = False
    return powers


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string.

    A step xors data byte b_k into the state and multiplies by the prime P.
    The xor changes only the low byte, which steps on its own through
    ``_FNV_LOW``; with d_k = (s_k ^ b_k) - s_k for s_k the low byte before
    step k, the hash is offset * P^n + sum_k d_k * P^(n - k), mod 2^64, one
    wrapping uint64 dot product."""
    s = FNV64_OFFSET & 0xFF
    low = np.frombuffer(bytes([s]) + bytes([s := _FNV_LOW[s ^ b] for b in data]),
                        dtype=np.uint8).astype(np.int64)
    b = np.frombuffer(data, dtype=np.uint8)
    pre = low[:-1]
    powers = _fnv_powers(len(b).bit_length())
    total = ((pre ^ b) - pre).view(np.uint64) @ powers[len(b):0:-1]
    return (FNV64_OFFSET * int(powers[len(b)]) + int(total)) & 0xFFFFFFFFFFFFFFFF


def _frozen(a):
    """A read-only float copy, so no alias of the input can change it."""
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FiniteGame:
    """Immutable description of one finite competing-mechanism game.

    The arrays are read-only copies of the inputs, so derived data (the IC
    polytopes) can be cached by their bytes.  Games compare and hash by
    identity.

    Fields:
        type_spaces: per agent, the ordered tuple of type labels.
        action_spaces: per principal, the ordered tuple of action labels.
        prior: flat array over type profiles (declaration order: the last
            agent's type varies fastest), summing to 1.
        agent_utils: agent_utils[i][k] has shape (n_profiles, |A_k|) and holds
            u_ik(a_k, x).
        principal_utils: principal_utils[j] has shape
            (n_profiles, |A_1|, ..., |A_J|) and holds v_j(a, x).
        agent_ids / principal_ids: labels used by the file format.
    """

    type_spaces: tuple
    action_spaces: tuple
    prior: np.ndarray
    agent_utils: tuple
    principal_utils: tuple
    agent_ids: tuple = ()
    principal_ids: tuple = ()

    def __post_init__(self):
        type_spaces = tuple(tuple(ts) for ts in self.type_spaces)
        action_spaces = tuple(tuple(asp) for asp in self.action_spaces)
        object.__setattr__(self, "type_spaces", type_spaces)
        object.__setattr__(self, "action_spaces", action_spaces)
        object.__setattr__(self, "prior", _frozen(self.prior).reshape(-1))
        object.__setattr__(
            self,
            "agent_utils",
            tuple(tuple(_frozen(t) for t in per_agent) for per_agent in self.agent_utils),
        )
        object.__setattr__(
            self, "principal_utils", tuple(_frozen(t) for t in self.principal_utils)
        )
        if not self.agent_ids:
            object.__setattr__(
                self, "agent_ids", tuple(f"A{i + 1}" for i in range(len(type_spaces)))
            )
        else:
            object.__setattr__(self, "agent_ids", tuple(self.agent_ids))
        if not self.principal_ids:
            object.__setattr__(
                self, "principal_ids", tuple(f"P{j + 1}" for j in range(len(action_spaces)))
            )
        else:
            object.__setattr__(self, "principal_ids", tuple(self.principal_ids))
        # flat profile table: row x -> type index of each agent
        sizes = [len(ts) for ts in type_spaces]
        rows = list(itertools.product(*[range(s) for s in sizes]))
        profiles = np.array(rows, dtype=int).reshape(len(rows), len(sizes))
        profiles.setflags(write=False)
        object.__setattr__(self, "_profiles", profiles)

    # -- sizes and indexing ------------------------------------------------

    @property
    def num_agents(self) -> int:
        return len(self.type_spaces)

    @property
    def num_principals(self) -> int:
        return len(self.action_spaces)

    @property
    def num_profiles(self) -> int:
        return self._profiles.shape[0]

    @property
    def profiles(self) -> np.ndarray:
        """Integer matrix (n_profiles, I): row x gives each agent's type index."""
        return self._profiles

    def profile_index(self, labels) -> int:
        """Flat index of a type profile given per-agent labels."""
        idx = 0
        for i, lab in enumerate(labels):
            idx = idx * len(self.type_spaces[i]) + self.type_spaces[i].index(lab)
        return idx

    def profile_labels(self, x: int) -> tuple:
        return tuple(
            self.type_spaces[i][t] for i, t in enumerate(self._profiles[x])
        )

    def type_marginal(self, agent: int, t: int) -> float:
        """Marginal prior probability that ``agent`` has type index ``t``."""
        mask = self._profiles[:, agent] == t
        return float(self.prior[mask].sum())

    def profiles_with_type(self, agent: int, t: int) -> np.ndarray:
        return np.nonzero(self._profiles[:, agent] == t)[0]


@dataclass(frozen=True, eq=False)
class DirectMechanism:
    """One principal's map from type profiles to action distributions.

    ``p`` has shape (n_profiles, |A_owner|); row x is the action distribution
    played when profile x is reported.  Mechanisms compare and hash by
    identity; compare tables with ``np.array_equal``.
    """

    owner: int
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _frozen(self.p))

    def validate(self, atol: float = DIST_ATOL) -> bool:
        if self.p.ndim != 2:
            return False
        if np.any(self.p < -atol):
            return False
        return bool(np.all(np.abs(self.p.sum(axis=1) - 1.0) <= atol))


@dataclass
class ValidationResult:
    ok: bool
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def validate_game(g: FiniteGame) -> ValidationResult:
    """Check structural sanity of a game; zero-mass types are warnings only."""
    violations = []
    warnings = []
    if g.num_principals < 2:
        violations.append("principals: need at least 2, got %d" % g.num_principals)
    if g.num_agents < 1:
        violations.append("agents: need at least 1")
    for i, ts in enumerate(g.type_spaces):
        if len(ts) == 0:
            violations.append(f"agents[{i}].types: empty")
        if len(set(ts)) != len(ts):
            violations.append(f"agents[{i}].types: duplicate labels")
    for j, asp in enumerate(g.action_spaces):
        if len(asp) == 0:
            violations.append(f"principals[{j}].actions: empty")
        if len(set(asp)) != len(asp):
            violations.append(f"principals[{j}].actions: duplicate labels")
    if np.any(g.prior < 0):
        violations.append("prior: negative entry")
    s = float(g.prior.sum())
    if abs(s - 1.0) > PRIOR_ATOL:
        violations.append("prior: sums to %.17g, expected 1 within %g" % (s, PRIOR_ATOL))
    if len(g.agent_utils) != g.num_agents:
        violations.append("agent_payoffs: wrong number of agents")
    for i, per_agent in enumerate(g.agent_utils):
        if len(per_agent) != g.num_principals:
            violations.append(f"agent_payoffs[{i}]: wrong number of principals")
            continue
        for k, tab in enumerate(per_agent):
            want = (g.num_profiles, len(g.action_spaces[k]))
            if tab.shape != want:
                violations.append(
                    f"agent_payoffs[{i}][{k}]: shape {tab.shape}, expected {want}"
                )
            elif not np.all(np.isfinite(tab)):
                violations.append(f"agent_payoffs[{i}][{k}]: non-finite entry")
    want_v = (g.num_profiles,) + tuple(len(a) for a in g.action_spaces)
    if len(g.principal_utils) != g.num_principals:
        violations.append("principal_payoffs: wrong number of principals")
    for j, tab in enumerate(g.principal_utils):
        if tab.shape != want_v:
            violations.append(f"principal_payoffs[{j}]: shape {tab.shape}, expected {want_v}")
        elif not np.all(np.isfinite(tab)):
            violations.append(f"principal_payoffs[{j}]: non-finite entry")
    for i in range(g.num_agents):
        for t, lab in enumerate(g.type_spaces[i]):
            if g.type_marginal(i, t) <= 0.0:
                warnings.append(f"agents[{i}].types[{lab}]: zero prior mass")
    return ValidationResult(ok=not violations, violations=violations, warnings=warnings)


def conditional_prior(g: FiniteGame, agent: int, t) -> np.ndarray:
    """Distribution over the other agents' type profiles given agent's type.

    ``t`` may be a type label or index.  The returned flat array runs over the
    product of the other agents' type spaces in declaration order.  Raises
    ValueError when the conditioning type has zero prior mass.
    """
    if isinstance(t, str):
        t = g.type_spaces[agent].index(t)
    weights = _interim_weights(g, agent)[t]
    if not weights.any():
        raise ValueError(
            f"conditional_prior: type {g.type_spaces[agent][t]!r} of agent {agent} "
            "has zero prior mass"
        )
    return weights[g.profiles[:, agent] == t]


def _interim_weights(g: FiniteGame, agent: int) -> np.ndarray:
    """(|X_i|, n_profiles): row t is the prior conditional on ``agent`` having
    type t, all zero for a zero-mass type; every interim expectation reads it."""
    n_t = len(g.type_spaces[agent])
    # profiles as (earlier agents, agent's type, later agents): the last agent varies fastest
    prior = g.prior.reshape(-1, n_t, math.prod(len(ts) for ts in g.type_spaces[agent + 1:]))
    weights = np.zeros((n_t,) + prior.shape)
    for t in range(n_t):
        mass = float(prior[:, t].ravel().sum())     # the type's profiles, summed in order
        if mass > 0.0:
            weights[t, :, t] = prior[:, t] / mass
    return weights.reshape(n_t, -1)


def _contract_except(g: FiniteGame, valued: int, free: int, mechanisms) -> np.ndarray:
    """Prior-weighted coefficients, shape (n_profiles, |A_free|), of principal
    ``free``'s table in E[v_valued] with everyone else fixed at ``mechanisms``.
    A table may also be a stack (S_k, n_profiles, |A_k|) of candidates; each
    stack adds a leading axis to the result, in principal order."""
    t = g.principal_utils[valued] * g.prior.reshape((-1,) + (1,) * g.num_principals)
    lead = 0        # candidate axes in front of t's profile axis
    # contract the other action axes, later axes first so positions stay valid
    for k in range(g.num_principals - 1, -1, -1):
        if k == free:
            continue
        mech = mechanisms[k]
        p = mech.p if isinstance(mech, DirectMechanism) else np.asarray(mech, dtype=float)
        ax = lead + 1 + k
        new = list(range(t.ndim, t.ndim + p.ndim - 2))
        t = np.einsum(t, list(range(t.ndim)), p, new + [lead, ax],
                      new + [a for a in range(t.ndim) if a != ax])
        lead += len(new)
    return t


def _require_table(g: FiniteGame, k: int, table, what: str, direct: bool) -> None:
    """ValueError, naming ``what``, unless ``table`` is principal k's
    DirectMechanism of shape (n_profiles, |A_k|) or, unless ``direct``, an
    array of that shape."""
    want = (g.num_profiles, len(g.action_spaces[k]))
    if isinstance(table, DirectMechanism):
        ok = table.owner == k and table.p.shape == want
    else:
        ok = not direct and np.shape(table) == want
    if not ok:
        kind = "DirectMechanism" if direct else "DirectMechanism or table"
        raise ValueError(f"{what} is not principal {k}'s {kind} of shape {want}")


def _require_profile(g: FiniteGame, mechanisms, skip: int = None,
                     direct: bool = False) -> None:
    """ValueError unless ``mechanisms`` (a list, or a dict keyed 0..J-1, where
    position ``skip`` may be left out) passes ``_require_table`` at each other
    position k."""
    keys = list(mechanisms) if isinstance(mechanisms, dict) else list(range(len(mechanisms)))
    need = set(range(g.num_principals))
    if not need - {skip} <= set(keys) <= need:
        raise ValueError(f"profile has positions {keys}, "
                         f"need one per principal 0..{g.num_principals - 1}")
    for k in sorted(need - {skip}):
        _require_table(g, k, mechanisms[k], f"profile[{k}]", direct)


def contract_opponents(g: FiniteGame, principal: int, mechanisms) -> np.ndarray:
    """Prior-weighted coefficients of v_j against everyone else's mechanisms.

    ``mechanisms`` maps principal index -> DirectMechanism (or raw table) for
    every k != j (a dict or a full list; entry j is ignored).  Returns an
    array of shape (n_profiles, |A_j|): the expected payoff of playing a_j
    at profile x, already weighted by the prior.  Raises ValueError when a
    position is missing or out of range, a DirectMechanism sits at another
    principal's position, or a table has the wrong shape.
    """
    _require_profile(g, mechanisms, skip=principal)
    return _contract_except(g, principal, principal, mechanisms)


def expected_principal_payoff(g: FiniteGame, principal: int, mechanisms) -> float:
    """Ex-ante expected payoff of one principal under a full mechanism profile.

    ``mechanisms`` holds principal k's DirectMechanism, or a raw table of
    shape (n_profiles, |A_k|), at position k of a list or dict; any other
    profile raises ValueError, as in contract_opponents.
    """
    _require_profile(g, mechanisms)
    coeff = _contract_except(g, principal, principal, mechanisms)
    own = mechanisms[principal]
    p = own.p if isinstance(own, DirectMechanism) else np.asarray(own, dtype=float)
    return float(np.sum(coeff * p))


def decompose_separable(g: FiniteGame, joint: np.ndarray):
    """Split a joint payoff table u[x, a_1, ..., a_J] into per-principal parts.

    Returns a list of arrays, one per principal, with shapes (n_profiles,
    |A_k|), summing cell-wise to ``joint``.  The decomposition is pinned by
    u_k(first action, x) = 0 for every k >= 2.  The table is balanced, so its
    least-squares additive fit is each principal's one-axis means minus
    (J - 1) grand means; NotSeparable names the first worst-fit cell, in
    (profile, action profile) order, when a residual exceeds 1e-9.
    """
    joint = np.asarray(joint, dtype=float)
    shape = (g.num_profiles,) + tuple(len(a) for a in g.action_spaces)
    if joint.shape != shape:
        raise ValueError(f"joint table has shape {joint.shape}, expected {shape}")
    axes = range(1, joint.ndim)
    others = [tuple(a for a in axes if a != k) for k in axes]     # averaged out per k
    means = [joint.mean(axis=o) for o in others]
    comps = [m - m[:, :1] for m in means]
    comps[0] = means[0] + sum(m[:, :1] for m in means[1:]) \
        - (len(means) - 1) * joint.mean(axis=tuple(axes))[:, None]
    fit = sum(np.expand_dims(c, o) for c, o in zip(comps, others))
    resid = np.abs(fit - joint)
    cell = np.unravel_index(int(np.argmax(resid)), resid.shape)
    if resid[cell] > SEPARABLE_ATOL:
        raise NotSeparable(
            tuple(g.action_spaces[k][a] for k, a in enumerate(cell[1:])),
            g.profile_labels(cell[0]),
            float(resid[cell]),
        )
    return comps


# -- file format ----------------------------------------------------------


def game_to_dict(g: FiniteGame) -> dict:
    """The canonical file-format dictionary for a game (fully enumerated)."""
    prior_rows = []
    for x in range(g.num_profiles):
        p = float(g.prior[x])
        if p != 0.0:
            prior_rows.append({"profile": list(g.profile_labels(x)), "p": p})
    agent_rows = []
    for i in range(g.num_agents):
        for k in range(g.num_principals):
            for x in range(g.num_profiles):
                for a, lab in enumerate(g.action_spaces[k]):
                    agent_rows.append({
                        "agent": g.agent_ids[i],
                        "principal": g.principal_ids[k],
                        "action": lab,
                        "profile": list(g.profile_labels(x)),
                        "u": float(g.agent_utils[i][k][x, a]),
                    })
    principal_rows = []
    action_iter = list(itertools.product(*[range(len(a)) for a in g.action_spaces]))
    for j in range(g.num_principals):
        for x in range(g.num_profiles):
            for aprof in action_iter:
                principal_rows.append({
                    "principal": g.principal_ids[j],
                    "action_profile": [g.action_spaces[k][a] for k, a in enumerate(aprof)],
                    "profile": list(g.profile_labels(x)),
                    "v": float(g.principal_utils[j][(x,) + aprof]),
                })
    return {
        "principals": [
            {"id": g.principal_ids[j], "actions": list(g.action_spaces[j])}
            for j in range(g.num_principals)
        ],
        "agents": [
            {"id": g.agent_ids[i], "types": list(g.type_spaces[i])}
            for i in range(g.num_agents)
        ],
        "prior": prior_rows,
        "agent_payoffs": agent_rows,
        "principal_payoffs": principal_rows,
    }


def canonical_game_bytes(g: FiniteGame) -> bytes:
    """Canonical serialization used for hashing: sorted keys, compact, UTF-8."""
    return json.dumps(game_to_dict(g), sort_keys=True, separators=(",", ":")).encode("utf-8")


def game_hash(g: FiniteGame) -> str:
    """64-bit FNV-1a over the canonical game bytes, as 16 hex digits."""
    return format(fnv1a64(canonical_game_bytes(g)), "016x")


def _require(cond, path, message):
    if not cond:
        raise GameFormatError(path, message)


# Field readers: each checks one JSON value and raises GameFormatError with
# its path, so a reader touches only values that have passed one of them.


def _fields(doc, path, *keys, missing="missing field"):
    """The values of ``keys`` in the JSON object ``doc``, in order.  A missing
    key is reported at its own path: ``path.key``, or plain ``key`` at the top
    level of a game file, whose ``path`` is empty."""
    _require(isinstance(doc, dict), path or "$", "expected an object")
    try:
        return [doc[key] for key in keys]
    except KeyError as e:
        raise GameFormatError(f"{path}.{e.args[0]}" if path else e.args[0], missing) from None


def _array(value, path):
    _require(isinstance(value, list), path, "expected an array")
    return value


def _number(value, path) -> float:
    """A finite JSON number; a bool is not a number."""
    _require(type(value) in (int, float) and abs(value) <= FLOAT_MAX, path,
             "expected a finite number")
    return float(value)


def _labels(value, path) -> tuple:
    """A nonempty JSON array of distinct strings."""
    _require(isinstance(value, list) and value and all(isinstance(v, str) for v in value)
             and len(set(value)) == len(value), path, "labels must be nonempty, distinct strings")
    return tuple(value)


def _index(labels, value, path, what) -> int:
    """Position of ``value`` in the label tuple ``labels``."""
    try:
        return labels.index(value)
    except ValueError:
        raise GameFormatError(path, f"unknown {what} {value!r}") from None


def _indices(spaces, value, path, what) -> tuple:
    """Positions of a JSON array holding one label from each of ``spaces``."""
    if not (isinstance(value, list) and len(value) == len(spaces)):
        raise GameFormatError(path, f"expected {len(spaces)} {what} labels")
    try:    # the per-label paths are built only when a label is unknown
        return tuple(labels.index(v) for labels, v in zip(spaces, value))
    except ValueError:
        n, v = next((n, v) for n, (labels, v) in enumerate(zip(spaces, value))
                    if v not in labels)
        raise GameFormatError(f"{path}[{n}]", f"unknown {what} {v!r}") from None


def _dist(doc, labels, path, what) -> list:
    """A JSON object from labels to probabilities, as a list over
    ``labels``; a label it does not list gets 0."""
    _fields(doc, path)
    out = [0.0] * len(labels)
    for label, p in doc.items():
        lpath = f"{path}.{label}"
        out[_index(labels, label, lpath, what)] = _number(p, lpath)
    return out


def _one_per_principal(g: FiniteGame, items, path) -> list:
    """Slot (item path, mechanism) pairs by owner: every principal needs
    exactly one mechanism."""
    out = [None] * g.num_principals
    for item_path, mech in items:
        _require(out[mech.owner] is None, item_path,
                 f"duplicate mechanism for principal {g.principal_ids[mech.owner]}")
        out[mech.owner] = mech
    missing = [pid for pid, mech in zip(g.principal_ids, out) if mech is None]
    _require(not missing, path, f"missing mechanism for principal {', '.join(missing)}")
    return out


def game_from_dict(doc: dict) -> FiniteGame:
    """Parse the game file format; raises GameFormatError with a field path.

    Prior entries not listed default to 0; every payoff entry must be listed.
    """
    principals, agents, prior_rows, agent_rows, principal_rows = _fields(
        doc, "", "principals", "agents", "prior", "agent_payoffs", "principal_payoffs")

    def players(rows, path, key):
        ids, spaces = [], []
        for n, row in enumerate(_array(rows, path)):
            pid, labels = _fields(row, f"{path}[{n}]", "id", key)
            ids.append(pid)
            spaces.append(_labels(labels, f"{path}[{n}].{key}"))
        return ids, tuple(spaces)

    principal_ids, action_spaces = players(principals, "principals", "actions")
    _require(len(principal_ids) >= 2, "principals", "need at least 2 principals")
    principal_ids = _labels(principal_ids, "principals")
    agent_ids, type_spaces = players(agents, "agents", "types")
    _require(len(agent_ids) >= 1, "agents", "need at least 1 agent")
    agent_ids = _labels(agent_ids, "agents")

    # tables are filled with one axis per agent, then flattened to the
    # profile axis (the last agent's type varies fastest)
    sizes = tuple(len(ts) for ts in type_spaces)
    n_actions = tuple(len(a) for a in action_spaces)
    n_profiles = math.prod(sizes)
    # counting rows first bounds the tables by the file's size and, with the
    # duplicate checks below, proves that every payoff cell is filled
    agent_rows = _array(agent_rows, "agent_payoffs")
    principal_rows = _array(principal_rows, "principal_payoffs")
    for rows, path, need in (
            (agent_rows, "agent_payoffs", len(agent_ids) * sum(n_actions) * n_profiles),
            (principal_rows, "principal_payoffs",
             len(principal_ids) * math.prod(n_actions) * n_profiles)):
        _require(len(rows) >= need, path, f"missing entry: {len(rows)} rows for {need} entries")

    prior = np.zeros(sizes)
    for r, row in enumerate(_array(prior_rows, "prior")):
        path = f"prior[{r}]"
        labels, p = _fields(row, path, "profile", "p")
        prior[_indices(type_spaces, labels, f"{path}.profile", "type")] += _number(p, f"{path}.p")
    prior = prior.reshape(-1)
    s = float(prior.sum())
    _require(abs(s - 1.0) <= PRIOR_ATOL, "prior",
             "sums to %.17g, expected 1 within %g" % (s, PRIOR_ATOL))
    _require(bool(np.all(prior >= 0)), "prior", "negative entry")

    agent_utils = [[np.full(sizes + (n,), np.nan) for n in n_actions] for _ in agent_ids]
    for r, row in enumerate(agent_rows):
        path = f"agent_payoffs[{r}]"
        agent, principal, action, labels, u = _fields(
            row, path, "agent", "principal", "action", "profile", "u")
        i = _index(agent_ids, agent, f"{path}.agent", "agent")
        k = _index(principal_ids, principal, f"{path}.principal", "principal")
        cell = (_indices(type_spaces, labels, f"{path}.profile", "type")
                + (_index(action_spaces[k], action, f"{path}.action", "action"),))
        _require(np.isnan(agent_utils[i][k][cell]), path, "duplicate entry")
        agent_utils[i][k][cell] = _number(u, f"{path}.u")
    agent_utils = [[t.reshape(n_profiles, -1) for t in per] for per in agent_utils]

    principal_utils = [np.full(sizes + n_actions, np.nan) for _ in principal_ids]
    for r, row in enumerate(principal_rows):
        path = f"principal_payoffs[{r}]"
        principal, aprof, labels, v = _fields(
            row, path, "principal", "action_profile", "profile", "v")
        j = _index(principal_ids, principal, f"{path}.principal", "principal")
        cell = (_indices(type_spaces, labels, f"{path}.profile", "type")
                + _indices(action_spaces, aprof, f"{path}.action_profile", "action"))
        _require(np.isnan(principal_utils[j][cell]), path, "duplicate entry")
        principal_utils[j][cell] = _number(v, f"{path}.v")

    return FiniteGame(
        type_spaces=type_spaces,
        action_spaces=action_spaces,
        prior=prior,
        agent_utils=tuple(tuple(per) for per in agent_utils),
        principal_utils=tuple(t.reshape((n_profiles,) + n_actions) for t in principal_utils),
        agent_ids=agent_ids,
        principal_ids=principal_ids,
    )


# -- JSON files ----------------------------------------------------------------


def report_to_json(report: dict) -> str:
    """The text of every JSON file the package writes: sorted keys, one-space
    indent, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def _read_json(path):
    """Parse a JSON file.  Bad JSON raises GameFormatError at path:line:col,
    and a file that is not UTF-8 text raises it at the file's path; an
    unreadable file raises OSError.  The document's fields are left to the
    reader of its format, which checks each one before using it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise GameFormatError(f"{path}:{e.lineno}:{e.colno}", e.msg) from e
        except UnicodeDecodeError as e:
            raise GameFormatError(str(path), f"not UTF-8 text ({e.reason})") from e


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(doc))


def load_game(path) -> FiniteGame:
    """Load a game from a JSON file; GameFormatError carries line info for bad JSON."""
    return game_from_dict(_read_json(path))


def save_game(g: FiniteGame, path) -> None:
    _write_json(path, game_to_dict(g))


# -- direct mechanism (de)serialization ------------------------------------


def mechanism_to_dict(g: FiniteGame, mech: DirectMechanism) -> dict:
    rows = []
    for x in range(g.num_profiles):
        dist = {
            g.action_spaces[mech.owner][a]: float(mech.p[x, a])
            for a in range(len(g.action_spaces[mech.owner]))
        }
        rows.append({"profile": list(g.profile_labels(x)), "dist": dist})
    return {"owner": g.principal_ids[mech.owner], "rows": rows}


def mechanism_from_dict(g: FiniteGame, doc: dict, path: str = "$") -> DirectMechanism:
    owner, rows = _fields(doc, path, "owner", "rows")
    owner = _index(g.principal_ids, owner, f"{path}.owner", "principal")
    actions = g.action_spaces[owner]
    p = np.full(tuple(len(ts) for ts in g.type_spaces) + (len(actions),), np.nan)
    for r, row in enumerate(_array(rows, f"{path}.rows")):
        rpath = f"{path}.rows[{r}]"
        labels, dist = _fields(row, rpath, "profile", "dist")
        x = _indices(g.type_spaces, labels, f"{rpath}.profile", "type")
        _require(bool(np.isnan(p[x]).all()), rpath, "duplicate profile row")
        p[x] = _dist(dist, actions, f"{rpath}.dist", "action label")
    p = p.reshape(g.num_profiles, -1)
    missing = np.nonzero(np.isnan(p).any(axis=1))[0]
    _require(missing.size == 0, f"{path}.rows",
             "missing row for profile index %s" % (missing[:1].tolist() if missing.size else []))
    mech = DirectMechanism(owner=owner, p=p)
    _require(mech.validate(atol=1e-9), f"{path}.rows",
             "rows must be probability distributions")
    return mech


def profile_to_list(g: FiniteGame, mechanisms) -> list:
    return [mechanism_to_dict(g, mechanisms[j]) for j in range(g.num_principals)]


def profile_from_list(g: FiniteGame, doc, path: str = "$") -> list:
    """Parse a full direct-mechanism profile (one entry per principal)."""
    return _one_per_principal(g, ((f"{path}[{r}]", mechanism_from_dict(g, item, f"{path}[{r}]"))
                                  for r, item in enumerate(_array(doc, path))), path)
