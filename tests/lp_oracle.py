"""The LP layer as it was built on ``scipy.optimize.linprog``: the oracle
that ``mechpoly.solver.solve_lp``, which calls HiGHS directly, must match
in status, value bits and solution bytes."""

import numpy as np
from scipy.optimize import linprog

from mechpoly.solver import (
    DUALITY_GAP_TOL,
    PRIMAL_RESIDUAL_TOL,
    LPProblem,
    LPResult,
    NumericalFailure,
)


def solve_lp(prob: LPProblem) -> LPResult:
    """Solve an LP deterministically; checks residuals on optimal solves.

    Infeasible and unbounded are distinct outcomes, not errors.  Solves that
    fail the primal residual (1e-9) or duality gap (1e-7) check are refined
    once with tighter solver tolerances; NumericalFailure only after that.
    """
    c = np.asarray(prob.c, dtype=float)
    a = np.asarray(prob.a, dtype=float) if len(prob.a) else np.zeros((0, c.size))
    b = np.asarray(prob.b, dtype=float) if len(prob.b) else np.zeros(0)
    sign = -1.0 if prob.sense == "max" else 1.0
    rows_ub, rhs_ub, rows_eq, rhs_eq = [], [], [], []
    for row, rel, rhs in zip(a, prob.relations, b):
        if rel == "<=":
            rows_ub.append(row)
            rhs_ub.append(rhs)
        elif rel == ">=":
            rows_ub.append(-row)
            rhs_ub.append(-rhs)
        elif rel == "=":
            rows_eq.append(row)
            rhs_eq.append(rhs)
        else:
            raise ValueError(f"unknown relation {rel!r}")
    a_ub = np.array(rows_ub) if rows_ub else None
    b_ub = np.array(rhs_ub) if rows_ub else None
    a_eq = np.array(rows_eq) if rows_eq else None
    b_eq = np.array(rhs_eq) if rows_eq else None
    tight = {"primal_feasibility_tolerance": 1e-10,
             "dual_feasibility_tolerance": 1e-10}
    failure = "LP did not run"
    for options in (None, tight):
        res = linprog(sign * c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=prob.bounds, method="highs", options=options)
        if res.status == 2:
            return LPResult(status="infeasible")
        if res.status == 3:
            return LPResult(status="unbounded")
        if res.status != 0:
            failure = f"LP solver status {res.status}: {res.message}"
            continue
        x = np.asarray(res.x)
        # primal feasibility residual
        resid = 0.0
        if a_ub is not None:
            resid = max(resid, float(np.max(a_ub @ x - b_ub, initial=0.0)))
        if a_eq is not None:
            resid = max(resid, float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0)))
        for xi, (lo, hi) in zip(x, prob.bounds):
            if lo is not None:
                resid = max(resid, lo - xi)
            if hi is not None:
                resid = max(resid, xi - hi)
        if resid > PRIMAL_RESIDUAL_TOL:
            failure = f"primal residual {resid:.3e} exceeds {PRIMAL_RESIDUAL_TOL}"
            continue
        # duality gap from the reported marginals
        dual_obj = 0.0
        if a_ub is not None and res.ineqlin is not None:
            dual_obj += float(np.dot(res.ineqlin.marginals, b_ub))
        if a_eq is not None and res.eqlin is not None:
            dual_obj += float(np.dot(res.eqlin.marginals, b_eq))
        if res.lower is not None:
            lo = np.array([v if v is not None else 0.0 for v, _ in prob.bounds])
            dual_obj += float(np.dot(res.lower.marginals, lo))
        if res.upper is not None:
            hi = np.array([v if v is not None else 0.0 for _, v in prob.bounds])
            dual_obj += float(np.dot(res.upper.marginals, hi))
        gap = abs(float(res.fun) - dual_obj)
        if gap > DUALITY_GAP_TOL * max(1.0, abs(float(res.fun))):
            failure = f"duality gap {gap:.3e} exceeds {DUALITY_GAP_TOL}"
            continue
        return LPResult(status="optimal", value=float(sign * res.fun), x=x)
    raise NumericalFailure(failure)
