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

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

PRIOR_ATOL = 1e-12      # prior must sum to 1 within this
DIST_ATOL = 1e-12       # per-row distribution tolerance for direct mechanisms
SEPARABLE_ATOL = 1e-9   # max residual accepted by decompose_separable

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


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = FNV64_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _frozen(a):
    arr = np.asarray(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteGame:
    """Immutable description of one finite competing-mechanism game.

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
        profiles = np.array(list(itertools.product(*[range(s) for s in sizes])), dtype=int)
        profiles = profiles.reshape(-1, len(sizes))
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

    def replace_type(self, x: int, agent: int, t: int) -> int:
        """Flat index of profile x with agent's coordinate replaced by type t."""
        coords = self._profiles[x].copy()
        coords[agent] = t
        idx = 0
        for i, ti in enumerate(coords):
            idx = idx * len(self.type_spaces[i]) + int(ti)
        return idx

    def type_marginal(self, agent: int, t: int) -> float:
        """Marginal prior probability that ``agent`` has type index ``t``."""
        mask = self._profiles[:, agent] == t
        return float(self.prior[mask].sum())

    def profiles_with_type(self, agent: int, t: int) -> np.ndarray:
        return np.nonzero(self._profiles[:, agent] == t)[0]


@dataclass(frozen=True)
class DirectMechanism:
    """One principal's map from type profiles to action distributions.

    ``p`` has shape (n_profiles, |A_owner|); row x is the action distribution
    played when profile x is reported.
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


@dataclass(frozen=True)
class RandomActionProfile:
    """One action distribution per principal (no type dependence)."""

    dists: tuple

    def __post_init__(self):
        object.__setattr__(self, "dists", tuple(_frozen(d) for d in self.dists))

    def validate(self, atol: float = DIST_ATOL) -> bool:
        for d in self.dists:
            if np.any(d < -atol) or abs(d.sum() - 1.0) > atol:
                return False
        return True


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
    ZeroDivisionError-free ValueError when the conditioning type has zero
    prior mass.
    """
    if isinstance(t, str):
        t = g.type_spaces[agent].index(t)
    idxs = g.profiles_with_type(agent, t)
    mass = float(g.prior[idxs].sum())
    if mass <= 0.0:
        raise ValueError(
            f"conditional_prior: type {g.type_spaces[agent][t]!r} of agent {agent} "
            "has zero prior mass"
        )
    return np.asarray(g.prior[idxs] / mass)


def conditional_weights(g: FiniteGame, agent: int, t: int):
    """(profile indices with x_i = t, conditional weights) for positive-mass t."""
    idxs = g.profiles_with_type(agent, t)
    mass = float(g.prior[idxs].sum())
    if mass <= 0.0:
        return idxs, None
    return idxs, g.prior[idxs] / mass


def expected_agent_component(g: FiniteGame, agent: int, principal: int,
                             dist: np.ndarray, x: int) -> float:
    """E[u_ik(a_k, x)] under one action distribution at a fixed type profile."""
    return float(np.dot(np.asarray(dist, dtype=float), g.agent_utils[agent][principal][x]))


def agent_expected_payoff(g: FiniteGame, agent: int, dists, x: int) -> float:
    """Full agent payoff at profile x: the sum of per-principal components."""
    return sum(
        expected_agent_component(g, agent, k, dists[k], x)
        for k in range(g.num_principals)
    )


def principal_value_at_profile(g: FiniteGame, principal: int, dists, x: int) -> float:
    """E[v_j(a, x)] when each principal k plays action distribution dists[k]."""
    t = g.principal_utils[principal][x]
    for d in dists:
        t = np.tensordot(np.asarray(d, dtype=float), t, axes=(0, 0))
    return float(t)


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


def contract_opponents(g: FiniteGame, principal: int, mechanisms) -> np.ndarray:
    """Prior-weighted coefficients of v_j against everyone else's mechanisms.

    ``mechanisms`` maps principal index -> DirectMechanism for every k != j
    (a dict or a full list; entry j is ignored).  Returns an array of shape
    (n_profiles, |A_j|): the expected payoff of playing a_j at profile x,
    already weighted by the prior.
    """
    return _contract_except(g, principal, principal, mechanisms)


def expected_principal_payoff(g: FiniteGame, principal: int, mechanisms) -> float:
    """Ex-ante expected payoff of one principal under a full mechanism profile."""
    coeff = contract_opponents(g, principal, mechanisms)
    own = mechanisms[principal]
    p = own.p if isinstance(own, DirectMechanism) else np.asarray(own, dtype=float)
    return float(np.sum(coeff * p))


def decompose_separable(g: FiniteGame, joint: np.ndarray):
    """Split a joint payoff table u[x, a_1, ..., a_J] into per-principal parts.

    Returns a list of arrays, one per principal, with shapes (n_profiles,
    |A_k|), summing cell-wise to ``joint``.  The decomposition is pinned by
    u_k(first action, x) = 0 for every k >= 2.  Raises NotSeparable with the
    worst-fit cell when the residual exceeds 1e-9.
    """
    joint = np.asarray(joint, dtype=float)
    shape = (g.num_profiles,) + tuple(len(a) for a in g.action_spaces)
    if joint.shape != shape:
        raise ValueError(f"joint table has shape {joint.shape}, expected {shape}")
    sizes = [len(a) for a in g.action_spaces]
    # unknown layout per profile: all of u_1, then u_k[1:] for k >= 2
    cols = []
    offset = 0
    for k, sz in enumerate(sizes):
        start = 1 if k >= 1 else 0
        cols.append((offset, start, sz))
        offset += sz - start
    n_unknown = offset
    rows = list(itertools.product(*[range(s) for s in sizes]))
    design = np.zeros((len(rows), n_unknown))
    for r, aprof in enumerate(rows):
        for k, a in enumerate(aprof):
            off, start, _ = cols[k]
            if a >= start:
                design[r, off + a - start] = 1.0
    comps = [np.zeros((g.num_profiles, sz)) for sz in sizes]
    worst = (0.0, None, None)
    for x in range(g.num_profiles):
        rhs = np.array([joint[(x,) + ap] for ap in rows])
        sol, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        resid = design @ sol - rhs
        r_idx = int(np.argmax(np.abs(resid)))
        if abs(resid[r_idx]) > worst[0]:
            worst = (abs(resid[r_idx]), rows[r_idx], x)
        for k, sz in enumerate(sizes):
            off, start, _ = cols[k]
            comps[k][x, start:] = sol[off:off + sz - start]
    if worst[0] > SEPARABLE_ATOL:
        aprof, x = worst[1], worst[2]
        raise NotSeparable(
            tuple(g.action_spaces[k][a] for k, a in enumerate(aprof)),
            g.profile_labels(x),
            worst[0],
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


def game_from_dict(doc: dict) -> FiniteGame:
    """Parse the game file format; raises GameFormatError with a field path.

    Prior entries not listed default to 0; every payoff entry must be listed.
    """
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    for key in ("principals", "agents", "prior", "agent_payoffs", "principal_payoffs"):
        _require(key in doc, key, "missing required field")
        _require(isinstance(doc[key], list), key, "expected an array")

    principal_ids, action_spaces = [], []
    for j, row in enumerate(doc["principals"]):
        path = f"principals[{j}]"
        _require(isinstance(row, dict), path, "expected an object")
        _require("id" in row and "actions" in row, path, "need 'id' and 'actions'")
        _require(isinstance(row["actions"], list) and row["actions"], f"{path}.actions",
                 "need a nonempty array of action labels")
        principal_ids.append(str(row["id"]))
        action_spaces.append(tuple(str(a) for a in row["actions"]))
    _require(len(principal_ids) >= 2, "principals", "need at least 2 principals")
    _require(len(set(principal_ids)) == len(principal_ids), "principals", "duplicate ids")

    agent_ids, type_spaces = [], []
    for i, row in enumerate(doc["agents"]):
        path = f"agents[{i}]"
        _require(isinstance(row, dict), path, "expected an object")
        _require("id" in row and "types" in row, path, "need 'id' and 'types'")
        _require(isinstance(row["types"], list) and row["types"], f"{path}.types",
                 "need a nonempty array of type labels")
        agent_ids.append(str(row["id"]))
        type_spaces.append(tuple(str(t) for t in row["types"]))
    _require(len(agent_ids) >= 1, "agents", "need at least 1 agent")
    _require(len(set(agent_ids)) == len(agent_ids), "agents", "duplicate ids")

    pj = {pid: j for j, pid in enumerate(principal_ids)}
    ai = {aid: i for i, aid in enumerate(agent_ids)}
    sizes = [len(ts) for ts in type_spaces]
    n_profiles = int(np.prod(sizes)) if sizes else 1

    def parse_profile(labels, path):
        _require(isinstance(labels, list) and len(labels) == len(type_spaces), path,
                 f"expected {len(type_spaces)} type labels")
        idx = 0
        for i, lab in enumerate(labels):
            _require(str(lab) in type_spaces[i], f"{path}[{i}]",
                     f"unknown type {lab!r} for agent {agent_ids[i]}")
            idx = idx * sizes[i] + type_spaces[i].index(str(lab))
        return idx

    prior = np.zeros(n_profiles)
    for r, row in enumerate(doc["prior"]):
        path = f"prior[{r}]"
        _require(isinstance(row, dict) and "profile" in row and "p" in row, path,
                 "need 'profile' and 'p'")
        x = parse_profile(row["profile"], f"{path}.profile")
        _require(isinstance(row["p"], (int, float)), f"{path}.p", "expected a number")
        prior[x] += float(row["p"])
    s = float(prior.sum())
    _require(abs(s - 1.0) <= PRIOR_ATOL, "prior",
             "sums to %.17g, expected 1 within %g" % (s, PRIOR_ATOL))
    _require(bool(np.all(prior >= 0)), "prior", "negative entry")

    agent_utils = [
        [np.full((n_profiles, len(action_spaces[k])), np.nan) for k in range(len(action_spaces))]
        for _ in agent_ids
    ]
    for r, row in enumerate(doc["agent_payoffs"]):
        path = f"agent_payoffs[{r}]"
        _require(isinstance(row, dict), path, "expected an object")
        for keyname in ("agent", "principal", "action", "profile", "u"):
            _require(keyname in row, path, f"missing '{keyname}'")
        _require(str(row["agent"]) in ai, f"{path}.agent", f"unknown agent {row['agent']!r}")
        _require(str(row["principal"]) in pj, f"{path}.principal",
                 f"unknown principal {row['principal']!r}")
        i = ai[str(row["agent"])]
        k = pj[str(row["principal"])]
        _require(str(row["action"]) in action_spaces[k], f"{path}.action",
                 f"unknown action {row['action']!r} for principal {row['principal']}")
        a = action_spaces[k].index(str(row["action"]))
        x = parse_profile(row["profile"], f"{path}.profile")
        _require(isinstance(row["u"], (int, float)), f"{path}.u", "expected a number")
        _require(np.isnan(agent_utils[i][k][x, a]), path, "duplicate entry")
        agent_utils[i][k][x, a] = float(row["u"])
    for i in range(len(agent_ids)):
        for k in range(len(principal_ids)):
            if np.any(np.isnan(agent_utils[i][k])):
                x, a = map(int, np.argwhere(np.isnan(agent_utils[i][k]))[0])
                raise GameFormatError(
                    "agent_payoffs",
                    f"missing entry: agent {agent_ids[i]}, principal {principal_ids[k]}, "
                    f"action {action_spaces[k][a]!r}, profile index {x}",
                )

    action_shape = tuple(len(a) for a in action_spaces)
    principal_utils = [np.full((n_profiles,) + action_shape, np.nan) for _ in principal_ids]
    for r, row in enumerate(doc["principal_payoffs"]):
        path = f"principal_payoffs[{r}]"
        _require(isinstance(row, dict), path, "expected an object")
        for keyname in ("principal", "action_profile", "profile", "v"):
            _require(keyname in row, path, f"missing '{keyname}'")
        _require(str(row["principal"]) in pj, f"{path}.principal",
                 f"unknown principal {row['principal']!r}")
        j = pj[str(row["principal"])]
        ap = row["action_profile"]
        _require(isinstance(ap, list) and len(ap) == len(action_spaces),
                 f"{path}.action_profile", f"expected {len(action_spaces)} action labels")
        aprof = []
        for k, lab in enumerate(ap):
            _require(str(lab) in action_spaces[k], f"{path}.action_profile[{k}]",
                     f"unknown action {lab!r} for principal {principal_ids[k]}")
            aprof.append(action_spaces[k].index(str(lab)))
        x = parse_profile(row["profile"], f"{path}.profile")
        _require(isinstance(row["v"], (int, float)), f"{path}.v", "expected a number")
        cell = (x,) + tuple(aprof)
        _require(np.isnan(principal_utils[j][cell]), path, "duplicate entry")
        principal_utils[j][cell] = float(row["v"])
    for j in range(len(principal_ids)):
        if np.any(np.isnan(principal_utils[j])):
            raise GameFormatError(
                "principal_payoffs",
                f"missing entries for principal {principal_ids[j]}",
            )

    return FiniteGame(
        type_spaces=tuple(type_spaces),
        action_spaces=tuple(action_spaces),
        prior=prior,
        agent_utils=tuple(tuple(t for t in per) for per in agent_utils),
        principal_utils=tuple(principal_utils),
        agent_ids=tuple(agent_ids),
        principal_ids=tuple(principal_ids),
    )


def load_game(path) -> FiniteGame:
    """Load a game from a JSON file; GameFormatError carries line info for bad JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise GameFormatError(f"{path}:{e.lineno}:{e.colno}", e.msg) from e
    return game_from_dict(doc)


def save_game(g: FiniteGame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(g), fh, indent=1, sort_keys=True)
        fh.write("\n")


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
    _require(isinstance(doc, dict) and "owner" in doc and "rows" in doc, path,
             "need 'owner' and 'rows'")
    _require(str(doc["owner"]) in g.principal_ids, f"{path}.owner",
             f"unknown principal {doc['owner']!r}")
    owner = g.principal_ids.index(str(doc["owner"]))
    n_a = len(g.action_spaces[owner])
    p = np.full((g.num_profiles, n_a), np.nan)
    _require(isinstance(doc["rows"], list), f"{path}.rows", "expected an array")
    for r, row in enumerate(doc["rows"]):
        rpath = f"{path}.rows[{r}]"
        _require(isinstance(row, dict) and "profile" in row and "dist" in row, rpath,
                 "need 'profile' and 'dist'")
        labels = row["profile"]
        _require(isinstance(labels, list) and len(labels) == g.num_agents,
                 f"{rpath}.profile", f"expected {g.num_agents} type labels")
        try:
            x = g.profile_index([str(l) for l in labels])
        except ValueError:
            raise GameFormatError(f"{rpath}.profile", f"unknown type labels {labels!r}")
        _require(bool(np.isnan(p[x]).all()), rpath, "duplicate profile row")
        dist = row["dist"]
        _require(isinstance(dist, dict), f"{rpath}.dist", "expected an object")
        p[x] = 0.0
        for lab, val in dist.items():
            _require(str(lab) in g.action_spaces[owner], f"{rpath}.dist",
                     f"unknown action {lab!r}")
            _require(isinstance(val, (int, float)), f"{rpath}.dist[{lab}]",
                     "expected a number")
            p[x, g.action_spaces[owner].index(str(lab))] = float(val)
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
    _require(isinstance(doc, list), path, "expected an array of mechanisms")
    out = [None] * g.num_principals
    for r, item in enumerate(doc):
        mech = mechanism_from_dict(g, item, path=f"{path}[{r}]")
        _require(out[mech.owner] is None, f"{path}[{r}]",
                 f"duplicate mechanism for principal {g.principal_ids[mech.owner]}")
        out[mech.owner] = mech
    for j, mech in enumerate(out):
        _require(mech is not None, path, f"missing mechanism for principal {g.principal_ids[j]}")
    return out
