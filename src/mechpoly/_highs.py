"""One LP attempt through the HiGHS binding that ``scipy.optimize.linprog``
uses, with the settings ``linprog(method="highs")`` passes it.

Each thread reuses two ``_Highs`` instances, one per options object, and an
attempt passes its model into one; that clears the previous model, basis and
solution, so nothing is warm-started.  A property test pins every result, in
drawn solve orders, to a fresh instance's.  The model is column-wise, rows in
the order given (``solver.solve_lp`` stacks them as linprog does); statuses
go through scipy's own table, and column duals are split into lower and upper
bound marginals by basis status, as scipy splits them.  HiGHS is the dual
simplex solver of Huangfu & Hall (Math. Prog. Comp. 2018).
"""

import threading
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as _h
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

_AT_LOWER = int(_h.HighsBasisStatus.kLower)
_AT_UPPER = int(_h.HighsBasisStatus.kUpper)


@dataclass
class HighsResult:
    """status is scipy's code: 0 optimal, 2 infeasible, 3 unbounded, else a
    failed attempt.  The solution fields are set only when status is 0."""

    status: int
    message: str
    x: np.ndarray = None
    fun: float = None
    row_dual: np.ndarray = None   # one marginal per row, in row order
    lower: np.ndarray = None      # column duals of variables at their lower bound
    upper: np.ndarray = None      # column duals of variables at their upper bound


def _model(c, a, row_lo, row_hi, lo, hi):
    """A column-wise HighsLp; explicit zeros are dropped, rows ascend in
    each column (the layout of scipy's dense-to-CSC conversion).  Arrays go
    in as lists, which the binding copies faster than numpy arrays."""
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


def _options(**extra):
    """linprog's HiGHS options, with ``extra`` set on top."""
    opts = _h.HighsOptions()
    settings = {
        "presolve": "on",
        "highs_debug_level": _h.HighsDebugLevel.kHighsDebugLevelNone,
        "log_to_console": False,
        "output_flag": False,
        "simplex_strategy": _h.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
        **extra,
    }
    for key, val in settings.items():
        setattr(opts, key, val)
    return opts


# built once and only read afterwards (HiGHS copies options in)
BASE = _options()
TIGHT = _options(primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10)
_local = threading.local()      # each thread's instances, by ``_instance``


def _failed(highs, model_status):
    """A failed attempt, its status mapped by scipy's table."""
    status, message = _highs_to_scipy_status_message(
        model_status, highs.modelStatusToString(model_status))
    return HighsResult(status=status, message=message)


def _instance(tight):
    """This thread's instance for ``TIGHT`` (tight) or ``BASE``, made on first use."""
    key = "tight" if tight else "base"
    highs = getattr(_local, key, None)
    if highs is None:
        highs = _h._Highs()
        if highs.passOptions(TIGHT if tight else BASE) == _h.HighsStatus.kError:
            raise RuntimeError("HiGHS rejected linprog's options")
        setattr(_local, key, highs)
    return highs


def linprog(c, a, row_lo, row_hi, lo, hi, options=None):
    """Minimize c @ x s.t. row_lo <= a @ x <= row_hi, lo <= x <= hi.

    ``a`` is a dense (rows, columns) array; infinite entries of the bound
    arrays mean no bound.  ``options`` is ``BASE`` (linprog's settings, also
    when None) or ``TIGHT`` (the same with 1e-10 feasibility tolerances);
    anything else is a ValueError.
    """
    if options is not None and options is not BASE and options is not TIGHT:
        raise ValueError("options must be None, BASE or TIGHT")
    highs = _instance(options is TIGHT)
    if highs.passModel(_model(c, a, row_lo, row_hi, lo, hi)) == _h.HighsStatus.kError:
        return _failed(highs, _h.HighsModelStatus.kModelError)
    highs.run()
    status = highs.getModelStatus()
    if status != _h.HighsModelStatus.kOptimal:
        return _failed(highs, status)
    solution = highs.getSolution()
    col_status = np.array(list(map(int, highs.getBasis().col_status)), dtype=int)
    col_dual = np.array(solution.col_dual)
    return HighsResult(
        status=0,       # scipy's code for kOptimal
        message="",
        x=np.array(solution.col_value),
        fun=highs.getObjectiveValue(),       # info.objective_function_value
        row_dual=np.array(solution.row_dual),
        lower=np.where(col_status == _AT_LOWER, col_dual, 0.0),
        upper=np.where(col_status == _AT_UPPER, col_dual, 0.0),
    )
