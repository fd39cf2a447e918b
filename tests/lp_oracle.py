"""Oracles for the LP layer.

``solve_lp`` is the LP layer as it was built on ``scipy.optimize.linprog``,
with presolve off as ``mechpoly._highs`` runs HiGHS:
``mechpoly.solver.solve_lp``, which calls HiGHS directly, must match it in
status, value bits and solution bytes.  With ``presolve=True`` it runs
linprog's default setting, which may return another optimal vertex: there
``solve_lp`` must match its status and its value to 1e-9.
``solve_relations`` solves the same way an LP stated with relations ('<=',
'>=', '=') and (lo, hi) bounds, the form in which ``optimize_over_problem``
and ``saddle_oracle`` write the LPs the value solvers once built: the
``LPProblem``s that the solvers now build must solve to the same value bits
and solution bytes.  ``fresh_linprog`` is one attempt on a ``_Highs``
instance built for it alone, its model passed as a ``HighsLp``:
``mechpoly._highs.linprog``, which reuses one instance per thread and
options and passes arrays, must match it bit for bit whatever attempts came
before."""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from mechpoly._highs import BASE, HighsResult, _failed, _h
from mechpoly.solver import (
    DUALITY_GAP_TOL,
    PRIMAL_RESIDUAL_TOL,
    LPProblem,
    LPResult,
    NumericalFailure,
)


@dataclass
class RelationsLP:
    """optimize c @ x subject to rows 'a[i] relations[i] b[i]', relations
    '<=', '>=' or '='; bounds is one (lo, hi) pair per variable with None
    for unbounded; sense is 'max' or 'min'."""

    c: np.ndarray
    a: np.ndarray
    relations: list
    b: np.ndarray
    bounds: list
    sense: str = "max"


def solve_lp(prob: LPProblem, presolve=False) -> LPResult:
    """Solve an LP deterministically; checks residuals on optimal solves.

    Infeasible and unbounded are distinct outcomes, not errors.  Solves that
    fail the primal residual (1e-9) or duality gap (1e-7) check are refined
    once with tighter solver tolerances; NumericalFailure only after that.
    The '<=' rows go to linprog as A_ub, the last n_eq rows as A_eq.
    HiGHS runs without presolve, as in ``mechpoly._highs``, unless
    ``presolve`` is set.
    """
    c = np.asarray(prob.c, dtype=float)
    a = np.asarray(prob.a, dtype=float) if len(prob.a) else np.zeros((0, c.size))
    b = np.asarray(prob.b, dtype=float)
    n_ub = b.size - prob.n_eq
    free = np.zeros(c.size, dtype=bool) if prob.free is None else prob.free
    bounds = [(None, None) if f else (0.0, None) for f in free]
    return _solve(c, a[:n_ub], b[:n_ub], a[n_ub:], b[n_ub:], bounds, prob.sense, presolve)


def solve_relations(prob: RelationsLP) -> LPResult:
    """``solve_lp`` of an LP stated with relations: '>=' rows are negated
    into A_ub in row order, '=' rows go to A_eq."""
    c = np.asarray(prob.c, dtype=float)
    a = np.asarray(prob.a, dtype=float) if len(prob.a) else np.zeros((0, c.size))
    b = np.asarray(prob.b, dtype=float)
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
    return _solve(c, np.array(rows_ub).reshape(-1, c.size), np.array(rhs_ub),
                  np.array(rows_eq).reshape(-1, c.size), np.array(rhs_eq), prob.bounds,
                  prob.sense)


def _solve(c, a_ub, b_ub, a_eq, b_eq, bounds, sense, presolve=False) -> LPResult:
    """linprog(method="highs") on min sign * c @ x, a_ub @ x <= b_ub,
    a_eq @ x = b_eq and the (lo, hi) bounds, once and then with 1e-10
    feasibility tolerances, with the residual and duality-gap checks;
    presolve off unless ``presolve`` is set."""
    sign = -1.0 if sense == "max" else 1.0
    a_ub, b_ub = (a_ub, b_ub) if len(b_ub) else (None, None)
    a_eq, b_eq = (a_eq, b_eq) if len(b_eq) else (None, None)
    base = {"presolve": presolve}
    tight = {**base, "primal_feasibility_tolerance": 1e-10,
             "dual_feasibility_tolerance": 1e-10}
    failure = "LP did not run"
    for options in (base, tight):
        res = linprog(sign * c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs", options=options)
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
        for xi, (lo, hi) in zip(x, bounds):
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
            lo = np.array([v if v is not None else 0.0 for v, _ in bounds])
            dual_obj += float(np.dot(res.lower.marginals, lo))
        if res.upper is not None:
            hi = np.array([v if v is not None else 0.0 for _, v in bounds])
            dual_obj += float(np.dot(res.upper.marginals, hi))
        gap = abs(float(res.fun) - dual_obj)
        if gap > DUALITY_GAP_TOL * max(1.0, abs(float(res.fun))):
            failure = f"duality gap {gap:.3e} exceeds {DUALITY_GAP_TOL}"
            continue
        # + 0.0: an optimum of 0 is 0.0, never -0.0
        return LPResult(status="optimal", value=float(sign * res.fun) + 0.0, x=x)
    raise NumericalFailure(failure)


def lp_system(poly):
    """(a, relations, b) of a polytope: eq rows '= 1', then ic rows '>= 0'."""
    a = np.vstack([poly.eq, poly.ic]) if poly.ic.shape[0] else poly.eq
    rel = ["="] * poly.eq.shape[0] + [">="] * poly.ic.shape[0]
    b = np.concatenate([np.ones(poly.eq.shape[0]), np.zeros(poly.ic.shape[0])])
    return a, rel, b


def optimize_over_problem(poly, sense, c=None, cuts=None):
    """The LP of ``solver._optimize_over``: maximize or minimize c . p over
    the polytope, or with ``cuts`` the epigraph variable t over [p, t], rows
    cuts . p - t >= 0 for 'max' and <= 0 for 'min'."""
    a, rel, b = lp_system(poly)
    n = poly.n_vars
    bounds = [(0.0, None)] * n
    if cuts is not None:
        cuts = np.array(cuts)
        a = np.vstack([np.hstack([a, np.zeros((a.shape[0], 1))]),
                       np.hstack([cuts, np.full((cuts.shape[0], 1), -1.0)])])
        rel = rel + [">=" if sense == "max" else "<="] * cuts.shape[0]
        b = np.concatenate([b, np.zeros(cuts.shape[0])])
        c = np.zeros(n + 1)
        c[-1] = 1.0
        bounds = bounds + [(None, None)]
    return RelationsLP(c=c, a=a, relations=rel, b=b, bounds=bounds, sense=sense)


def _model(c, a, row_lo, row_hi, lo, hi):
    """A column-wise HighsLp; explicit zeros are dropped, rows ascend in
    each column (the layout of scipy's dense-to-CSC conversion)."""
    n_row, n_col = a.shape
    nz = a.T != 0
    start = np.zeros(n_col + 1, dtype=np.int64)
    np.cumsum(nz.sum(axis=1), out=start[1:])
    lp = _h.HighsLp()
    lp.num_col_ = n_col
    lp.num_row_ = n_row
    lp.a_matrix_.num_col_ = n_col
    lp.a_matrix_.num_row_ = n_row
    lp.a_matrix_.format_ = _h.MatrixFormat.kColwise
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = lo.tolist()
    lp.col_upper_ = hi.tolist()
    lp.row_lower_ = row_lo.tolist()
    lp.row_upper_ = row_hi.tolist()
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = np.nonzero(nz)[1].tolist()
    lp.a_matrix_.value_ = a.T[nz].tolist()
    return lp


def fresh_linprog(c, a, row_lo, row_hi, lo, hi, options=None):
    """``mechpoly._highs.linprog`` with a fresh ``_Highs`` per attempt."""
    highs = _h._Highs()
    if highs.passOptions(BASE if options is None else options) == _h.HighsStatus.kError:
        return _failed(highs, highs.getModelStatus())
    if highs.passModel(_model(c, a, row_lo, row_hi, lo, hi)) == _h.HighsStatus.kError:
        return _failed(highs, _h.HighsModelStatus.kModelError)
    highs.run()
    status = highs.getModelStatus()
    if status != _h.HighsModelStatus.kOptimal:
        return _failed(highs, status)
    solution = highs.getSolution()
    return HighsResult(
        status=0,       # scipy's code for kOptimal
        message="",
        x=np.array(solution.col_value),
        fun=highs.getObjectiveValue(),       # info.objective_function_value
        row_dual=np.array(solution.row_dual),
    )


def attempt_bits(res):
    """An attempt's status, message, value bits and solution bytes."""
    if res.status != 0:
        return (res.status, res.message)
    return (res.status, res.message, float(res.fun).hex(), res.x.tobytes(),
            res.row_dual.tobytes())
