"""Reference grid sweep: the row-at-a-time loop, kept as an independent oracle.

These are the functions ``solver`` used before the grid minmax sweep became
array code: the simplex grid built point by point from ``itertools.product``,
batches drawn from an ``itertools.islice`` over the product of grid indices,
opponent tables held with the batch axis first, and the cell products built
by outer products per profile.  They share no indexing or table-assembly
code with the library, so property tests can require the library's
certificates to equal theirs bit for bit.  Two things changed from the
library's old loop: the ``chunk`` keyword (it was fixed at 4096), so that
both sweeps can be split into the same batches, and the bracket (lower,
upper) that certificates now carry.
"""

import itertools

import numpy as np

from mechpoly import DirectMechanism, build_bic_polytope, enumerate_vertices
from mechpoly.bic import MEMBERSHIP_TOL, DimensionTooLarge
from mechpoly.solver import (
    GRID_KIND,
    GRID_POINT_CAP,
    ValueCertificate,
    _free_rows,
    best_response,
)


def certificate_bits(cert):
    """Every field of a grid certificate that a sweep computes: floats by
    ``float.hex``, counts as they are and witness tables by shape and bytes.
    The bracket (lower, upper) is among the floats."""
    def hexed(v):
        return None if v is None else float(v).hex()
    witness = None if cert.witness is None else {
        k: (m.owner, m.p.shape, m.p.tobytes()) for k, m in cert.witness.items()}
    return (cert.kind, hexed(cert.value), hexed(cert.gap_bound), hexed(cert.info["grid_min"]),
            hexed(cert.info["witness_value"]), cert.info["n_points"], cert.info["free_dim"],
            hexed(cert.lower), hexed(cert.upper), witness)


def _simplex_grid(n_actions: int, step: float) -> np.ndarray:
    """Grid over a simplex: free coords are multiples of step, sum <= 1."""
    ticks = int(np.floor(1.0 / step + 1e-12))
    vals = np.arange(ticks + 1) * step
    pts = []
    for combo in itertools.product(vals, repeat=n_actions - 1):
        s = float(sum(combo))
        if s <= 1.0 + 1e-12:
            pts.append(list(combo) + [max(1.0 - s, 0.0)])
    return np.array(pts) if pts else np.ones((1, 1))


def _minmax_grid(g, principal: int, step: float,
                 grid_dim_cap: int, dim_cap: int, chunk: int = 4096) -> ValueCertificate:
    j = principal
    if not (0.0 < step <= 0.5):
        raise ValueError("grid step must lie in (0, 0.5]")
    rows = _free_rows(g, j)
    free_dim = sum(len(g.action_spaces[k]) - 1 for k, _ in rows)
    if free_dim > grid_dim_cap:
        raise DimensionTooLarge(
            f"opponent free dimension {free_dim} exceeds grid cap {grid_dim_cap}"
        )
    grids = [_simplex_grid(len(g.action_spaces[k]), step) for k, _ in rows]
    n_points = 1
    for gr in grids:
        n_points *= gr.shape[0]
    if n_points > GRID_POINT_CAP:
        raise DimensionTooLarge(
            f"{n_points} grid points exceed the cap {GRID_POINT_CAP}; use a coarser step"
        )
    opp = sorted({k for k, _ in rows})

    # Lipschitz slack: the coarse blocks-times-free-dimension bound can
    # undershoot by a factor of two when rounding a point onto the grid moves
    # probability mass in both directions, so pair it with the per-coordinate
    # bound and keep whichever is larger.
    vmax_x = np.max(np.abs(g.principal_utils[j].reshape(g.num_profiles, -1)), axis=1)
    vbar = float(np.dot(g.prior, vmax_x))
    n_blocks = len(opp)
    slack_coarse = vbar * n_blocks * step * free_dim
    slack_per_coord = 2.0 * step * vbar * sum(len(g.action_spaces[k]) - 1 for k in opp)
    slack = max(slack_coarse, slack_per_coord)

    use_vertices = build_bic_polytope(g, j).n_vars <= dim_cap
    if use_vertices:
        verts = enumerate_vertices(g, j, dim_cap=dim_cap)
        vmat = np.array([m.p for m in verts])  # (n_vert, n_x, A_j)
        # W[m, x, c]: payoff of vertex m at profile x against opponent cell c
        axes = [len(g.action_spaces[k]) for k in opp]
        n_cells = int(np.prod(axes)) if axes else 1
        w = np.zeros((len(verts), g.num_profiles, n_cells))
        vf = g.principal_utils[j] * g.prior.reshape((-1,) + (1,) * g.num_principals)
        for x in range(g.num_profiles):
            t = vf[x]  # (A_1, ..., A_J)
            t = np.moveaxis(t, j, 0)  # (A_j, opp cells...) in opponent index order
            t = t.reshape(t.shape[0], -1)
            w[:, x, :] = vmat[:, x, :] @ t

    best_overall = np.inf
    best_feasible = np.inf
    best_feasible_profile = None
    combo_iter = itertools.product(*[range(gr.shape[0]) for gr in grids])
    while True:
        batch = list(itertools.islice(combo_iter, chunk))
        if not batch:
            break
        idx = np.array(batch)  # (B, n_rows)
        bsz = idx.shape[0]
        # assemble opponent tables for the batch
        tables = {k: np.zeros((bsz, g.num_profiles, len(g.action_spaces[k]))) for k in opp}
        for r, (k, x) in enumerate(rows):
            tables[k][:, x, :] = grids[r][idx[:, r]]
        if use_vertices:
            vals = np.zeros((bsz, w.shape[0]))
            for x in range(g.num_profiles):
                q = np.ones((bsz, 1))
                for k in opp:
                    q = (q[:, :, None] * tables[k][:, x, None, :]).reshape(bsz, -1)
                vals += q @ w[:, x, :].T
            gvals = vals.max(axis=1)
        else:
            gvals = np.array([
                best_response(g, j, {k: tables[k][bi] for k in opp})[0]
                for bi in range(bsz)])
        best_overall = min(best_overall, float(gvals.min()))
        # feasibility of the opponents' tables (their own IC rows)
        feas = np.ones(bsz, dtype=bool)
        for k in opp:
            ic = build_bic_polytope(g, k).ic
            if ic.shape[0]:
                icv = tables[k].reshape(bsz, -1) @ ic.T
                feas &= icv.min(axis=1) >= -MEMBERSHIP_TOL
        if feas.any():
            sub = np.nonzero(feas)[0]
            bi = sub[int(np.argmin(gvals[sub]))]
            if gvals[bi] < best_feasible:
                best_feasible = float(gvals[bi])
                best_feasible_profile = {
                    k: DirectMechanism(owner=k, p=tables[k][bi].copy()) for k in opp
                }
    return ValueCertificate(
        kind=GRID_KIND,
        value=best_overall - slack,
        witness=best_feasible_profile,
        gap_bound=slack,
        info={
            "grid_min": best_overall,
            "witness_value": best_feasible if best_feasible_profile else None,
            "step": step,
            "n_points": n_points,
            "free_dim": free_dim,
        },
        # a lower bound, and the feasible witness's value (inf without one)
        lower=best_overall - slack,
        upper=best_feasible,
    )
