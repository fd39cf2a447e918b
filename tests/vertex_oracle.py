"""Reference vertex enumerator: the SVD rank test, kept as an independent oracle.

This is the double-description insertion loop that ``bic.enumerate_vertices``
used before it switched to the combinatorial adjacency test over tight sets.
Each crossing point is kept only when its active constraints reach full
column rank, and duplicates are removed by a linear scan.  It is slow but
shares no adjacency or dedupe code with the library, so property tests can
require the library's tables to equal its tables exactly.
"""

import itertools

import numpy as np

from mechpoly import DirectMechanism, build_bic_polytope
from mechpoly.bic import MEMBERSHIP_TOL, SNAP_TOL, DimensionTooLarge, _clean_point

RANK_TOL = 1e-7         # singular values below this do not count toward rank


def _is_vertex(poly, rows_so_far, z):
    """A point is a vertex iff its active constraints have full column rank."""
    active = [poly.eq]
    nonneg = np.nonzero(z <= SNAP_TOL)[0]
    if nonneg.size:
        eye = np.zeros((nonneg.size, z.size))
        eye[np.arange(nonneg.size), nonneg] = 1.0
        active.append(eye)
    if rows_so_far.shape[0]:
        vals = rows_so_far @ z
        tight = rows_so_far[np.abs(vals) <= SNAP_TOL]
        if tight.shape[0]:
            active.append(tight)
    m = np.vstack(active)
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > RANK_TOL)) == z.size


def svd_enumerate_vertices(g, principal, dim_cap=12, poly=None):
    """The vertices of one principal's IC polytope, by SVD rank tests."""
    if poly is None:
        poly = build_bic_polytope(g, principal)
    n = poly.n_vars
    if n > dim_cap:
        raise DimensionTooLarge(
            f"polytope has {n} variables, cap is {dim_cap}"
        )
    # deterministic mechanisms: one-hot per profile
    verts = []
    for choice in itertools.product(range(poly.n_actions), repeat=poly.n_profiles):
        z = np.zeros((poly.n_profiles, poly.n_actions))
        z[np.arange(poly.n_profiles), choice] = 1.0
        verts.append(z.reshape(-1))
    verts = np.array(verts)
    inserted = np.zeros((0, n))
    for r_i in range(poly.ic.shape[0]):
        row = poly.ic[r_i]
        vals = verts @ row
        keep = verts[vals >= -SNAP_TOL]
        pos = verts[vals > SNAP_TOL]
        neg = verts[vals < -SNAP_TOL]
        pos_vals = vals[vals > SNAP_TOL]
        neg_vals = vals[vals < -SNAP_TOL]
        rows_after = np.vstack([inserted, row[None, :]])
        new_pts = []
        for (u, vu) in zip(pos, pos_vals):
            for (w, vw) in zip(neg, neg_vals):
                z = (vu * w - vw * u) / (vu - vw)
                if _is_vertex(poly, rows_after, z):
                    new_pts.append(z)
        # keep is pairwise separated already, and a crossing point joins only
        # when it is separated from everything kept, so one pass dedupes all
        merged = list(keep)
        for z in new_pts:
            if not any(np.max(np.abs(z - m)) <= 10 * SNAP_TOL for m in merged):
                merged.append(z)
        verts = np.array(merged) if merged else np.zeros((0, n))
        inserted = rows_after
        if verts.shape[0] == 0:
            break
    cleaned = []
    for z in verts:
        z = _clean_point(poly, z)
        vals = poly.ic_values(z.reshape(poly.n_profiles, poly.n_actions))
        if vals.size and float(vals.min()) < -MEMBERSHIP_TOL:
            continue
        cleaned.append(z)
    cleaned.sort(key=lambda z: tuple(np.round(z, 12)))
    out = []
    for z in cleaned:
        if out and np.max(np.abs(z - out[-1].p.reshape(-1))) <= 10 * SNAP_TOL:
            continue
        out.append(DirectMechanism(owner=poly.owner, p=z.reshape(poly.n_profiles, poly.n_actions)))
    return out
