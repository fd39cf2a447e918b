"""One LP attempt through the HiGHS binding that ``scipy.optimize.linprog``
uses: dual simplex, logging off and presolve off.  The LPs of this package
have a few rows (7 on average in a two-principal value item, 5 in a
three-principal gap item), and on LPs that small presolve costs more than
it saves.

Each thread reuses two ``_Highs`` instances, one per options object, and an
attempt passes its model into one; that clears the previous model, basis and
solution, so nothing is warm-started.  A property test pins every result, in
drawn solve orders, to a fresh instance's.  The model goes in through
``passModel``'s array form, column-wise, rows in the order given
(``solver.solve_lp`` gives its '<=' rows, then its '=' rows); statuses go
through scipy's own table, but a model HiGHS refuses is a failed attempt,
not infeasible.  A result holds the primal solution, the objective and the
row duals; every column bound that ``solver`` sets is 0 or none, so it
reads no column dual.  HiGHS is the dual simplex solver of Huangfu & Hall
(Math. Prog. Comp. 2018).
"""

import threading
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as _h
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

_COLWISE = int(_h.MatrixFormat.kColwise)
_MINIMIZE = int(_h.ObjSense.kMinimize)


@dataclass
class HighsResult:
    """status is scipy's code: 0 optimal, 2 infeasible, 3 unbounded, else a
    failed attempt.  The solution fields are set only when status is 0."""

    status: int
    message: str
    x: np.ndarray = None
    fun: float = None
    row_dual: np.ndarray = None   # one marginal per row, in row order


def _csc(a):
    """Column-wise (start, index, value) of a dense array; explicit zeros
    are dropped, rows ascend in each column (the layout of scipy's
    dense-to-CSC conversion).  start and index are int32, as passModel
    takes them."""
    col, row = np.nonzero(a.T)      # column-major order
    start = np.searchsorted(col, np.arange(a.shape[1] + 1)).astype(np.int32)
    return start, row.astype(np.int32), a[row, col]


def _options(**extra):
    """The HiGHS options of an attempt (presolve off, dual simplex, logging
    off), with ``extra`` set on top."""
    opts = _h.HighsOptions()
    settings = {
        "presolve": "off",
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
    """A failed attempt, its status mapped by scipy's table, except that a
    model HiGHS refused (kModelError, scipy's 2: infeasible) is 4."""
    status, message = _highs_to_scipy_status_message(
        model_status, highs.modelStatusToString(model_status))
    if model_status == _h.HighsModelStatus.kModelError:
        status = 4
    return HighsResult(status=status, message=message)


def _instance(tight):
    """This thread's instance for ``TIGHT`` (tight) or ``BASE``, made on first use."""
    key = "tight" if tight else "base"
    highs = getattr(_local, key, None)
    if highs is None:
        highs = _h._Highs()
        if highs.passOptions(TIGHT if tight else BASE) == _h.HighsStatus.kError:
            raise RuntimeError("HiGHS rejected the LP options")
        setattr(_local, key, highs)
    return highs


def linprog(c, a, row_lo, row_hi, lo, hi, options=None):
    """Minimize c @ x s.t. row_lo <= a @ x <= row_hi, lo <= x <= hi.

    ``a`` is a dense (rows, columns) array; infinite entries of the bound
    arrays mean no bound.  ``options`` is ``BASE`` (presolve off, dual
    simplex, logging off; also when None) or ``TIGHT`` (the same with 1e-10
    feasibility tolerances);
    anything else is a ValueError, and so are arrays whose sizes do not
    match ``a``, since HiGHS reads as many entries as ``a`` has columns or
    rows from each.
    """
    if options is not None and options is not BASE and options is not TIGHT:
        raise ValueError("options must be None, BASE or TIGHT")
    n_row, n_col = a.shape
    if not (np.shape(c) == np.shape(lo) == np.shape(hi) == (n_col,)
            and np.shape(row_lo) == np.shape(row_hi) == (n_row,)):
        raise ValueError("LP arrays do not match the matrix's columns and rows")
    highs = _instance(options is TIGHT)
    start, index, value = _csc(a)
    # passModel's array form; integrality must hold n_col entries, since
    # HiGHS reads them whenever the pointer is not null
    if highs.passModel(n_col, n_row, value.size, _COLWISE, _MINIMIZE, 0.0, c, lo, hi,
                       row_lo, row_hi, start, index, value,
                       np.zeros(n_col, dtype=np.int32)) == _h.HighsStatus.kError:
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
