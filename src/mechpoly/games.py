"""Small catalog of named games plus a seeded random-game generator.

These are used by the demos and the test suite; nothing here is required to
build games by hand through :class:`mechpoly.game.FiniteGame`.
"""

import itertools

import numpy as np

from .game import FiniteGame


def matching_pennies_game() -> FiniteGame:
    """Two principals matching pennies over {H, T}; three passive agents.

    Agents have singleton types and identically zero payoffs, so every
    mechanism is incentive compatible.  Principal 1 earns 1 when the two
    chosen actions match, principal 2 earns 1 when they differ.
    """
    actions = (("H", "T"), ("H", "T"))
    types = (("x",), ("x",), ("x",))
    prior = np.array([1.0])
    zeros = tuple(
        tuple(np.zeros((1, 2)) for _ in range(2)) for _ in range(3)
    )
    v1 = np.zeros((1, 2, 2))
    for a1, a2 in itertools.product(range(2), range(2)):
        v1[0, a1, a2] = 1.0 if a1 == a2 else 0.0
    v2 = 1.0 - v1
    return FiniteGame(
        type_spaces=types,
        action_spaces=actions,
        prior=prior,
        agent_utils=zeros,
        principal_utils=(v1, v2),
    )


def screening_game() -> FiniteGame:
    """One agent with types {L, H}, equiprobable; principal 1 screens.

    Principal 1 chooses from {a, b}; the agent wants a when L and b when H.
    Principal 2 is a stub with a single action and zero payoffs so the game
    meets the two-principal minimum.
    """
    types = (("L", "H"),)
    actions = (("a", "b"), ("z",))
    prior = np.array([0.5, 0.5])
    u11 = np.array([[1.0, 0.0],   # type L: wants a
                    [0.0, 1.0]])  # type H: wants b
    u12 = np.zeros((2, 1))
    agent_utils = ((u11, u12),)
    v1 = np.zeros((2, 2, 1))
    v2 = np.zeros((2, 2, 1))
    return FiniteGame(
        type_spaces=types,
        action_spaces=actions,
        prior=prior,
        agent_utils=agent_utils,
        principal_utils=(v1, v2),
    )


def random_game(rng: np.random.Generator,
                num_principals: int = 2,
                num_agents: int = 1,
                type_sizes=None,
                action_sizes=None,
                zero_agent_payoffs: bool = False) -> FiniteGame:
    """Draw a game with uniform random tables and a random interior prior.

    Agent components are uniform on [-1, 1], principal payoffs on [0, 1].

    Args:
        rng: seeded generator; all randomness flows through it.
        type_sizes / action_sizes: per-agent / per-principal sizes; default 2.
        zero_agent_payoffs: make every u_ik identically zero.
    """
    if type_sizes is None:
        type_sizes = [2] * num_agents
    if action_sizes is None:
        action_sizes = [2] * num_principals
    type_spaces = tuple(
        tuple(f"t{i + 1}{n}" for n in range(sz)) for i, sz in enumerate(type_sizes)
    )
    action_spaces = tuple(
        tuple(f"a{j + 1}{n}" for n in range(sz)) for j, sz in enumerate(action_sizes)
    )
    n_profiles = int(np.prod(type_sizes))
    w = rng.uniform(0.1, 1.0, size=n_profiles)
    prior = w / w.sum()
    agent_utils = []
    for i in range(num_agents):
        per = []
        for k in range(num_principals):
            if zero_agent_payoffs:
                per.append(np.zeros((n_profiles, action_sizes[k])))
            else:
                per.append(rng.uniform(-1.0, 1.0, size=(n_profiles, action_sizes[k])))
        agent_utils.append(tuple(per))
    shape = (n_profiles,) + tuple(action_sizes)
    principal_utils = tuple(
        rng.uniform(0.0, 1.0, size=shape) for _ in range(num_principals)
    )
    return FiniteGame(
        type_spaces=type_spaces,
        action_spaces=action_spaces,
        prior=prior,
        agent_utils=tuple(agent_utils),
        principal_utils=principal_utils,
    )
