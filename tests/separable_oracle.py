"""``decompose_separable`` as it fitted each type profile by least squares:
the oracle that the library's closed-form projection must match.

Every type profile gets its own ``np.linalg.lstsq`` solve over a design
matrix that lists every action profile, with the unknowns u_1, then
u_k[1:] for k >= 2.  It shares no fitting code with the library.
"""

import itertools

import numpy as np

from mechpoly.game import SEPARABLE_ATOL, FiniteGame, NotSeparable


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
