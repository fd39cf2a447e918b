import dataclasses
import gc
import itertools
import json
import math
import sys
import threading
import tracemalloc
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

import grid_oracle
import lp_oracle
import saddle_oracle
from mechpoly import _highs
from mechpoly import bic as mechpoly_bic
from mechpoly import (
    EXACT_KINDS,
    DimensionTooLarge,
    DirectMechanism,
    FiniteGame,
    GapFamily,
    LPProblem,
    ModeUnsupported,
    NumericalFailure,
    ValueCertificate,
    best_response,
    build_bic_polytope,
    enumerate_vertices,
    expected_principal_payoff,
    is_individually_bic,
    maxmin,
    minmax,
    punishment_profile,
    random_game,
    report_to_json,
    robust_pbe_membership,
    sample_bic,
    screening_game,
    search_minmax_maxmin_gap,
    solve_lp,
    solve_report,
    solver,
)

UNIFORM = DirectMechanism(owner=1, p=np.array([[0.5, 0.5]]))
DEG_H = DirectMechanism(owner=1, p=np.array([[1.0, 0.0]]))


def test_solve_lp_basics():
    res = solve_lp(LPProblem(c=[1.0], a=[[1.0]], b=[3.0], sense="max"))
    assert res.status == "optimal"
    assert res.value == pytest.approx(3.0)

    res = solve_lp(LPProblem(c=[1.0, 2.0], a=[[1.0, 1.0]], b=[1.0], n_eq=1, sense="min"))
    assert res.value == pytest.approx(1.0)
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-9)

    # a free variable goes below 0; with every variable nonnegative it cannot
    res = solve_lp(LPProblem(c=[1.0], a=[[-1.0]], b=[2.0], free=[True], sense="min"))
    assert res.value == pytest.approx(-2.0)
    assert solve_lp(LPProblem(c=[1.0], a=[[-1.0]], b=[2.0], sense="min")).value == 0.0

    res = solve_lp(LPProblem(c=[1.0], a=[[1.0]], b=[-1.0], sense="max"))
    assert res.status == "infeasible"

    res = solve_lp(LPProblem(c=[1.0], a=[], b=[], sense="max"))
    assert res.status == "unbounded"

    for c, a, b in [([np.nan], [[1.0]], [0.0]), ([1.0], [[np.inf]], [0.0]),
                    ([1.0], [[1.0]], [-np.inf])]:
        with pytest.raises(ValueError, match="LP data must be finite"):
            solve_lp(LPProblem(c=c, a=a, b=b))
    # shapes are checked, as linprog's input cleaning checked them
    for a, b in [([[1.0, 1.0]], [1.0]),      # a has a column too many
                 ([[1.0]], [1.0, 2.0]),       # b has an entry too many
                 ([[1.0], [2.0]], [1.0]),     # a row without a right-hand side
                 ([[1.0]], [[1.0]])]:         # b is not a vector
        with pytest.raises(ValueError, match="shapes do not match"):
            solve_lp(LPProblem(c=[1.0], a=a, b=b))
    for n_eq in (-1, 2, 0.5, None):
        with pytest.raises(ValueError, match="is not a row count between 0 and 1"):
            solve_lp(LPProblem(c=[1.0], a=[[1.0]], b=[1.0], n_eq=n_eq))
    for free in ([True], [1, 0], [True, False, True], np.array([[True, False]])):
        with pytest.raises(ValueError, match="boolean mask of the 2 variables"):
            solve_lp(LPProblem(c=[1.0, 1.0], a=[[1.0, 1.0]], b=[1.0], free=free))


def test_solve_lp_rejects_an_unknown_sense():
    # a misspelt sense is an error, not a minimisation
    assert solve_lp(LPProblem(c=[1.0], a=[[1.0]], b=[3.0], sense="max")).value == 3.0
    for sense in ("maximize", "MAX", None):
        with pytest.raises(ValueError, match="is not 'max' or 'min'"):
            solve_lp(LPProblem(c=[1.0], a=[[1.0]], b=[3.0], sense=sense))


def test_solve_lp_states_its_rows_and_gives_no_negative_zero():
    # relations, which perfbench counts, are '<=' then the n_eq '=' rows;
    # the 'max' LPs with optimum 0 (both principals of the screening game)
    # report 0.0, not -0.0
    assert LPProblem(c=[1.0], a=np.ones((3, 1)), b=np.ones(3), n_eq=1).relations == [
        "<=", "<=", "="]
    assert solve_lp(LPProblem(c=[1.0], a=[[1.0]], b=[0.0], sense="max")).value == 0.0
    g = screening_game()
    for j in (0, 1):
        for v in (maxmin(g, j).value, minmax(g, j, mode="exact2").value):
            assert v == 0.0 and math.copysign(1.0, v) == 1.0


def test_assembled_lps_are_checked_for_finite_data(mp2):
    # the LPs the solvers build get the finiteness check of every LPProblem
    poly = build_bic_polytope(mp2, 0)
    with pytest.raises(ValueError, match="LP data must be finite"):
        solver._optimize_over(poly, "max", "test", c=np.full(poly.n_vars, np.nan))
    with pytest.raises(ValueError, match="LP data must be finite"):
        solver._optimize_over(poly, "min", "test", cuts=[np.full(poly.n_vars, np.inf)])


def test_solve_lp_rejects_a_duality_gap_after_refinement(monkeypatch):
    # a reported objective 1e-3 off its row marginals fails the gap check on
    # both attempts
    real = solver.linprog
    calls = []

    def off_objective(*args, options=None):
        calls.append(options)
        res = real(*args, options=options)
        return dataclasses.replace(res, fun=res.fun + 1e-3)

    prob = LPProblem(c=[1.0], a=[[1.0]], b=[2.0])
    assert solve_lp(prob).value == 2.0
    monkeypatch.setattr(solver, "linprog", off_objective)
    with pytest.raises(NumericalFailure, match="duality gap 1.000e-03 exceeds"):
        solve_lp(prob)
    assert calls == [None, _highs.TIGHT]


def test_value_lps_that_are_not_optimal_raise(mp2):
    # with no cut rows the epigraph variable of a 'max' LP is unbounded
    poly = build_bic_polytope(mp2, 0)
    with pytest.raises(NumericalFailure, match="test LP unbounded"):
        solver._optimize_over(poly, "max", "test", cuts=np.zeros((0, poly.n_vars)))


def test_highs_model_statuses_map_as_scipy_table():
    statuses = _highs._h.HighsModelStatus
    highs = _highs._h._Highs()
    for status in statuses.__members__.values():
        if status != statuses.kModelError:
            want = _highs_to_scipy_status_message(status, "m")[0]
            assert _highs._failed(highs, status).status == want, status
    # a model HiGHS refuses is a failed attempt, where scipy's table says
    # infeasible; so are "unbounded or infeasible" and an empty model
    assert {s: _highs._failed(highs, s).status for s in (
        statuses.kInfeasible, statuses.kModelError, statuses.kUnbounded,
        statuses.kUnboundedOrInfeasible, statuses.kModelEmpty)} == {
        statuses.kInfeasible: 2, statuses.kModelError: 4, statuses.kUnbounded: 3,
        statuses.kUnboundedOrInfeasible: 4, statuses.kModelEmpty: 4}
    assert _highs_to_scipy_status_message(statuses.kModelError, "m")[0] == 2


def test_model_highs_refuses_raises_numerical_failure():
    # feasible and bounded, but 1e20 is above HiGHS's large_matrix_value
    # (1e15), so HiGHS refuses the model on both attempts
    prob = LPProblem(np.ones(2), np.array([[1e20, 1.0]]), np.array([1.0]))
    with pytest.raises(NumericalFailure, match="status 4: .*Model error") as info:
        solve_lp(prob)
    assert "infeasible" not in str(info.value)


@pytest.mark.parametrize("code, outcome", [(2, "infeasible"), (3, "unbounded"),
                                           (1, None), (4, None)])
def test_solve_lp_outcome_per_solver_status(monkeypatch, code, outcome):
    calls = []

    def fixed_status(*args, options=None):
        calls.append(options)
        return _highs.HighsResult(status=code, message="stub")

    monkeypatch.setattr(solver, "linprog", fixed_status)
    prob = LPProblem(c=[1.0], a=[[1.0]], b=[3.0])
    if outcome is not None:
        assert solve_lp(prob).status == outcome
        assert calls == [None]
    else:
        with pytest.raises(NumericalFailure, match=f"LP solver status {code}: stub"):
            solve_lp(prob)
        assert calls == [None, _highs.TIGHT]
        assert (_highs.TIGHT.primal_feasibility_tolerance,
                _highs.TIGHT.dual_feasibility_tolerance) == (1e-10, 1e-10)
        assert _highs.BASE.primal_feasibility_tolerance == 1e-7   # HiGHS's default


def _box_lp(cost):
    """min cost * x over 0 <= x <= 1 with x >= 0.25: its value is cost / 4 for cost > 0."""
    return (np.array([cost]), np.array([[1.0]]), np.array([0.25]), np.array([np.inf]),
            np.zeros(1), np.ones(1))


def test_linprog_rejects_arrays_that_do_not_match_the_matrix():
    # passModel reads as many entries as the matrix has columns or rows
    c, a, row_lo, row_hi, lo, hi = _box_lp(1.0)
    for bad in ((c[:-1], a, row_lo, row_hi, lo, hi), (c, a, row_lo[:0], row_hi, lo, hi),
                (c, a, row_lo, row_hi, lo, np.append(hi, 1.0))):
        with pytest.raises(ValueError, match="do not match the matrix"):
            _highs.linprog(*bad)


def test_linprog_accepts_only_base_and_tight():
    # an options object equal to BASE is still not BASE
    for options in (_highs._options(), {"presolve": "on"}, "TIGHT"):
        with pytest.raises(ValueError, match="options must be None, BASE or TIGHT"):
            _highs.linprog(*_box_lp(1.0), options=options)
    # each options value has its own instance, made once with those options
    tight = _highs.linprog(*_box_lp(2.0), options=_highs.TIGHT)
    base = _highs.linprog(*_box_lp(1.0), options=_highs.BASE)
    assert _highs.linprog(*_box_lp(1.0)).fun == base.fun == 0.25 and tight.fun == 0.5
    assert _highs._instance(True).getObjectiveValue() == 0.5
    assert _highs._instance(True).getOptions().primal_feasibility_tolerance == 1e-10
    assert _highs._instance(False).getOptions().primal_feasibility_tolerance == 1e-7
    assert _highs._instance(True) is _highs._instance(True)


def test_instance_raises_when_highs_rejects_its_options(monkeypatch):
    # a tolerance below HiGHS's range fails passOptions; a new thread has no
    # instance yet, so it builds one from the patched options
    monkeypatch.setattr(_highs, "BASE", _highs._options(primal_feasibility_tolerance=-1.0))
    errors = []

    def build():
        try:
            _highs._instance(False)
        except RuntimeError as exc:
            errors.append(str(exc))

    worker = threading.Thread(target=build)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive() and errors == ["HiGHS rejected the LP options"]


def test_linprog_threads_match_serial_run():
    # the 40 saddle LPs of maxmin on 20 random two-principal games (both
    # principals), alternately with BASE and TIGHT, solved serially and then
    # from 4 worker threads
    rng = np.random.default_rng(20261019)
    with mock.patch.object(solver, "linprog", wraps=_highs.linprog) as spy:
        for _ in range(20):
            g = random_game(rng, type_sizes=[int(rng.integers(1, 3))],
                            action_sizes=list(rng.integers(2, 4, size=2)))
            for j in (0, 1):
                maxmin(g, j, mode="exact")
    assert len(spy.call_args_list) == 40
    attempts = [(call.args, (_highs.BASE, _highs.TIGHT)[n % 2])
                for n, call in enumerate(spy.call_args_list)]
    serial = [lp_oracle.attempt_bits(_highs.linprog(*args, options=options))
              for args, options in attempts]

    def solve(attempt):
        args, options = attempt
        return (threading.get_ident(), _highs._instance(False), _highs._instance(True),
                lp_oracle.attempt_bits(_highs.linprog(*args, options=options)))

    started = threading.Barrier(4, timeout=30)

    def arrive(_):
        started.wait()
        return threading.get_ident()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            # all four workers exist before the solves start
            assert len(set(pool.map(arrive, range(4), timeout=60))) == 4
            threaded = list(pool.map(solve, attempts, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert [r[3] for r in threaded] == serial
    # each thread always gets its own two instances
    instances = {ident: (base, tight) for ident, base, tight, _ in threaded}
    assert all(base is instances[ident][0] and tight is instances[ident][1]
               for ident, base, tight, _ in threaded)
    owned = [h for pair in instances.values() for h in pair]
    owned += [_highs._instance(False), _highs._instance(True)]      # the main thread's
    assert len({id(h) for h in owned}) == len(owned)


def test_best_response_matching_pennies(mp2):
    value, witness = best_response(mp2, 0, {1: UNIFORM})
    assert value == pytest.approx(0.5, abs=1e-9)

    value, witness = best_response(mp2, 0, {1: DEG_H})
    assert value == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(witness.p, [[1.0, 0.0]], atol=1e-9)


def test_best_response_dominates_feasible_tables(rng):
    g = random_game(rng, num_agents=1, type_sizes=[2], action_sizes=[2, 2])
    opp = sample_bic(g, 1, seed=3)
    value, _ = best_response(g, 0, {1: opp})
    for k in range(100):
        trial = sample_bic(g, 0, seed=1000 + k)
        payoff = expected_principal_payoff(g, 0, {0: trial, 1: opp})
        assert value >= payoff - 1e-8


def test_best_response_rejects_misaligned_profiles():
    g = random_game(np.random.default_rng(3), num_principals=2, num_agents=1, type_sizes=[2],
                    action_sizes=[2, 2])
    prof = [DirectMechanism(owner=0, p=[[1.0, 0.0], [1.0, 0.0]]),
            DirectMechanism(owner=1, p=[[0.0, 1.0], [0.0, 1.0]])]
    value, _ = best_response(g, 0, prof)
    assert value == pytest.approx(0.7975, abs=1e-4)
    assert best_response(g, 0, {1: prof[1]})[0] == value
    for bad in [prof[::-1], prof[:1], {0: prof[0]},
                [prof[0], DirectMechanism(owner=1, p=np.ones((2, 1)))]]:
        with pytest.raises(ValueError, match="profile"):
            best_response(g, 0, bad)


def test_maxmin_matching_pennies(mp2):
    cert = maxmin(mp2, 0, mode="exact")
    assert cert.kind == "exact-lp"
    assert cert.kind in EXACT_KINDS
    assert cert.value == pytest.approx(0.5, abs=1e-9)
    assert cert.gap_bound == 0.0
    np.testing.assert_allclose(cert.witness.p, [[0.5, 0.5]], atol=1e-9)
    vp = solver._maxmin_vertex_products(mp2, 0, solver.DEFAULT_DIM_CAP)
    assert vp.info["n_vertex_products"] == 2


def _constant_game(c=0.7):
    zeros = ((np.zeros((1, 2)), np.zeros((1, 2))),)
    return FiniteGame(
        type_spaces=(("x",),),
        action_spaces=(("a", "b"), ("c", "d")),
        prior=np.array([1.0]),
        agent_utils=zeros,
        principal_utils=(np.full((1, 2, 2), c), np.full((1, 2, 2), 1.0 - c)),
    )


def test_constant_payoff_values():
    g = _constant_game(0.7)
    assert maxmin(g, 0, mode="exact").value == pytest.approx(0.7, abs=1e-9)
    assert minmax(g, 0, mode="exact2").value == pytest.approx(0.7, abs=1e-9)
    grid = minmax(g, 0, mode="grid", step=0.25)
    # slack = max(vbar*blocks*step*free_dim, 2*step*vbar*free_dim) = 0.35
    assert grid.info["grid_min"] == pytest.approx(0.7, abs=1e-9)
    assert grid.gap_bound == pytest.approx(0.35, abs=1e-12)
    assert grid.value == pytest.approx(0.35, abs=1e-9)


def test_minmax_exact2_matching_pennies(mp2):
    cert = minmax(mp2, 0, mode="exact2")
    assert cert.kind == "exact-lp"
    assert cert.value == pytest.approx(0.5, abs=1e-7)
    assert cert.gap_bound == 0.0
    assert set(cert.witness) == {1}
    np.testing.assert_allclose(cert.witness[1].p, [[0.5, 0.5]], atol=1e-7)

    # dense sweep over the opponent's single free coordinate
    qs = np.linspace(0.0, 1.0, 1001)
    brute = min(max(q, 1.0 - q) for q in qs)
    assert cert.value == pytest.approx(brute, abs=1e-6)


def _bisection_minmax(g, j, tol=1e-9):
    """Independent route: bisection on the value with feasibility LPs.

    v is achievable iff some table q in the opponent's polytope keeps every
    vertex of j's polytope at payoff <= v; the payoff coefficients are
    rebuilt here from the definition, by explicit enumeration.
    """
    k = 1 - j
    own_vertices = enumerate_vertices(g, j)
    poly_k = build_bic_polytope(g, k)
    n_actions = [len(a) for a in g.action_spaces]

    def payoff_coeffs(p):
        c = np.zeros((g.num_profiles, n_actions[k]))
        for x in range(g.num_profiles):
            for ak in range(n_actions[k]):
                tot = 0.0
                for aj in range(n_actions[j]):
                    idx = (x, aj, ak) if j == 0 else (x, ak, aj)
                    tot += p.p[x, aj] * g.principal_utils[j][idx]
                c[x, ak] = g.prior[x] * tot
        return c.reshape(-1)

    coeffs = [payoff_coeffs(p) for p in own_vertices]
    a_k, rel_k, b_k = lp_oracle.lp_system(poly_k)

    def feasible(v):
        a = np.vstack([a_k] + [c[None, :] for c in coeffs])
        rel = rel_k + ["<="] * len(coeffs)
        b = np.concatenate([b_k, np.full(len(coeffs), v)])
        res = lp_oracle.solve_relations(lp_oracle.RelationsLP(
            c=np.zeros(poly_k.n_vars), a=a, relations=rel, b=b,
            bounds=[(0.0, None)] * poly_k.n_vars, sense="min"))
        return res.status == "optimal"

    lo = float(np.min([c.sum() for c in coeffs])) - 1.0
    hi = float(max(np.abs(g.principal_utils[j]).max(), 1.0)) + 1.0
    assert feasible(hi) and not feasible(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_exact2_agrees_with_bisection_oracle(mp2, rng):
    games = [mp2]
    for _ in range(8):
        games.append(random_game(rng, num_agents=1, type_sizes=[2],
                                 action_sizes=[2, 2]))
    for g in games:
        for j in range(2):
            cert = minmax(g, j, mode="exact2")
            oracle = _bisection_minmax(g, j)
            assert cert.value == pytest.approx(oracle, abs=1e-7)


def test_minmax_grid_matching_pennies(mp2):
    cert = minmax(mp2, 0, mode="grid", step=0.01)
    assert cert.kind == "grid-certified-lower-bound"
    assert cert.info["grid_min"] == pytest.approx(0.5, abs=1e-12)
    assert cert.gap_bound == pytest.approx(0.02, abs=1e-12)
    assert cert.value == pytest.approx(0.48, abs=1e-12)
    assert cert.info["free_dim"] == 1
    np.testing.assert_allclose(cert.witness[1].p, [[0.5, 0.5]], atol=1e-12)
    assert cert.info["witness_value"] == pytest.approx(0.5, abs=1e-12)
    # certified lower bound really is below the true value
    assert cert.value <= 0.5 + 1e-12


def test_minmax_grid_lp_fallback_matches_vertex_path():
    # P1's 14-variable polytope is over DEFAULT_DIM_CAP, so the library
    # solves one LP per point; the oracle reads its vertex tables instead
    g = random_game(np.random.default_rng(3), num_principals=2, num_agents=1,
                    type_sizes=[2], action_sizes=[7, 2])
    slow = minmax(g, 0, mode="grid", step=0.1)
    fast = grid_oracle._minmax_grid(g, 0, 0.1, math.inf, 16)
    assert fast.value == pytest.approx(slow.value, abs=1e-9)
    assert fast.info["grid_min"] == pytest.approx(slow.info["grid_min"], abs=1e-9)


def test_minmax_grid_caps(rng, mp2, monkeypatch):
    def build(*args):
        raise AssertionError("a grid was built past the point cap")

    # every refusal comes from the count, before any grid exists
    monkeypatch.setattr(solver, "_simplex_grid", build)
    g = random_game(rng, num_principals=3, num_agents=1, type_sizes=[1],
                    action_sizes=[2, 2, 2], zero_agent_payoffs=True)
    with pytest.raises(DimensionTooLarge, match="grid points"):
        minmax(g, 0, mode="grid", step=5e-4)
    # 10**9 + 1 points, counted with T held at GRID_POINT_CAP + 1
    with pytest.raises(DimensionTooLarge, match=r"grid points \(2000002\)"):
        minmax(mp2, 0, mode="grid", step=1e-9)
    with pytest.raises(DimensionTooLarge, match="grid points"):
        minmax(mp2, 0, mode="grid", step=1e-320)
    # C(1001, 2) = 500,500 points, under the cap, but 1000 values per point
    g1000 = random_game(rng, num_principals=2, num_agents=1, type_sizes=[1],
                        action_sizes=[2, 1000], zero_agent_payoffs=True)
    with pytest.raises(DimensionTooLarge, match=r"\(500500\) or values \(500500000\)"):
        minmax(g1000, 0, mode="grid", step=0.5)
    # a five-action opponent at the default step: C(104, 4) points per row
    g5 = random_game(rng, num_principals=3, num_agents=1, type_sizes=[1],
                     action_sizes=[2, 5, 2], zero_agent_payoffs=True)
    with pytest.raises(DimensionTooLarge, match="grid points"):
        minmax(g5, 0, mode="grid")
    with pytest.raises(ValueError, match="step"):
        minmax(g, 0, mode="grid", step=0.0)


def test_simplex_grid_builds_only_the_points_it_keeps():
    # 316,251 rows of five columns; the full tick product would be 51**4 rows
    tracemalloc.start()
    try:
        grid = solver._simplex_grid.__wrapped__(5, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.shape == (math.comb(54, 4), 5)
    assert peak < 64 * 2**20


def _pennies_against_p2():
    """Three principals and one type; P1 is paid 1 for matching P2's action
    and nothing else, whatever P3 does.  At step 0.25 every grid value is
    exact, so the five P3 rows at P2's uniform mix (points 10 to 14 of 25)
    tie at the minimum 0.5."""
    v1 = np.zeros((1, 2, 2, 2))
    v1[0, 0, 0, :] = v1[0, 1, 1, :] = 1.0
    return FiniteGame(
        type_spaces=(("x",),), action_spaces=(("a", "b"), ("c", "d"), ("e", "f")),
        prior=np.array([1.0]), agent_utils=((np.zeros((1, 2)),) * 3,),
        principal_utils=(v1, np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 2, 2))))


def test_grid_certificate_does_not_depend_on_chunk_size(monkeypatch, rng):
    # Chunks of 7 split the tied points 10-14 between two batches; the first
    # minimum must win within a batch and across batches.  Matrix products of
    # one-point batches go through numpy's matrix-vector path and may round
    # differently in the last place, so every sweep here has at least two
    # points in its last batch.
    cases = [(_pennies_against_p2(), 0.25),
             (GapFamily().candidate(0, np.random.default_rng(0)), 0.05),
             (random_game(rng, num_principals=2, num_agents=1, type_sizes=[2],
                          action_sizes=[2, 3]), 0.1)]
    default = solver.GRID_CHUNK
    for g, step in cases:
        bits = []
        for chunk in (7, default):
            monkeypatch.setattr(solver, "GRID_CHUNK", chunk)
            cert = minmax(g, 0, mode="grid", step=step)
            assert cert.info["n_points"] % 7 != 1
            bits.append(grid_oracle.certificate_bits(cert))
        assert bits[0] == bits[1]
    cert = minmax(cases[0][0], 0, mode="grid", step=0.25)
    assert cert.info["grid_min"] == cert.info["witness_value"] == 0.5
    np.testing.assert_array_equal(cert.witness[1].p, [[0.5, 0.5]])
    np.testing.assert_array_equal(cert.witness[2].p, [[0.0, 1.0]])


@pytest.mark.parametrize("n_actions", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("step", [0.5, 1 / 3, 0.3, 0.25, 0.2, 0.15, 0.1, 0.07, 0.05, 0.02,
                                  0.01])
def test_simplex_grid_matches_product_order(n_actions, step):
    # 0.3 and 0.07 do not divide 1, so the last coordinate is not a tick; the
    # oracle filters the whole tick product, the library keeps the
    # C(T + A - 1, A - 1) rows it returns and builds no others
    ticks = int(np.floor(1.0 / step + 1e-12))
    n_rows = math.comb(ticks + n_actions - 1, n_actions - 1)
    if n_rows > solver.GRID_POINT_CAP:      # (5, 0.01): the sweep refuses it unbuilt
        return
    got = solver._simplex_grid(n_actions, step)
    assert got.shape == (n_rows, n_actions)
    want = grid_oracle._simplex_grid(n_actions, step)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_minmax_alternating_matching_pennies(mp2):
    cert = minmax(mp2, 0, mode="alternating", restarts=4, seed=11)
    assert cert.kind == "alternating-upper-bound"
    assert cert.gap_bound == -1.0
    assert cert.value == pytest.approx(0.5, abs=1e-6)
    assert set(cert.witness) == {1}


def test_mode_dispatch_and_errors(mp2, rng):
    assert minmax(mp2, 0, mode="auto").kind == "exact-lp"
    g3 = random_game(rng, num_principals=3, num_agents=1, type_sizes=[1],
                     action_sizes=[2, 2, 2], zero_agent_payoffs=True)
    assert minmax(g3, 0, mode="auto").kind == "grid-certified-lower-bound"
    with pytest.raises(ModeUnsupported):
        minmax(g3, 0, mode="exact2")
    with pytest.raises(ModeUnsupported):
        minmax(mp2, 0, mode="bogus")
    with pytest.raises(ModeUnsupported):
        maxmin(mp2, 0, mode="bogus")


def test_maxmin_auto_falls_back_when_opponents_too_large(rng):
    # three principals: the opponents' 4-variable polytopes exceed dim_cap 3
    g = random_game(rng, num_principals=3, num_agents=1, type_sizes=[2],
                    action_sizes=[2, 2, 2])
    with pytest.raises(DimensionTooLarge):
        maxmin(g, 0, mode="exact", dim_cap=3)
    cert = maxmin(g, 0, mode="auto", dim_cap=3)
    assert cert.kind == "relaxation-lower-bound"
    assert cert.gap_bound == -1.0
    assert cert.value <= solver._maxmin_vertex_products(g, 0, solver.DEFAULT_DIM_CAP).value + 1e-9
    assert is_individually_bic(g, cert.witness).ok
    # the relaxation bounds the floor from below, so a payoff under it fails:
    # P1 is paid least at some product of the three polytopes' vertices
    low = min(itertools.product(*[enumerate_vertices(g, k) for k in range(3)]),
              key=lambda prof: expected_principal_payoff(g, 0, prof))
    assert expected_principal_payoff(g, 0, low) < cert.value - solver.VALUE_TOL
    hand_made = ValueCertificate(kind="hand-made", value=0.0, witness=None, gap_bound=0.0)
    verdict = robust_pbe_membership(g, low, [cert, hand_made, hand_made])
    assert verdict.bic_ok and verdict.verdict == "non-member"


def test_maxmin_vertex_products_stop_at_their_cap(rng, monkeypatch):
    g = random_game(rng, num_principals=3, num_agents=1, type_sizes=[1],
                    action_sizes=[2, 2, 2])
    count = len(enumerate_vertices(g, 1)) * len(enumerate_vertices(g, 2))
    assert maxmin(g, 0, mode="exact").info["n_vertex_products"] == count
    monkeypatch.setattr(solver, "VERTEX_PRODUCT_CAP", count - 1)
    with pytest.raises(DimensionTooLarge, match=f"{count} opponent vertex products exceed"):
        maxmin(g, 0, mode="exact")
    assert maxmin(g, 0, mode="auto").kind == "relaxation-lower-bound"


def test_maxmin_two_principals_is_the_saddle_lp_above_dim_cap(rng):
    # the opponent's 16-variable polytope is over dim_cap, which the saddle
    # LP never enumerates
    g = random_game(rng, num_agents=3, type_sizes=[2, 2, 2], action_sizes=[2, 2])
    with pytest.raises(DimensionTooLarge):
        solver._maxmin_vertex_products(g, 0, solver.DEFAULT_DIM_CAP)
    exact2 = saddle_oracle._saddle_lp(g, 0, "min")[0]
    for mode in ("exact", "auto"):
        cert = maxmin(g, 0, mode=mode)
        assert cert.kind == "exact-lp"
        assert cert.gap_bound == 0.0
        assert abs(cert.value - exact2) <= 1e-9
        assert is_individually_bic(g, cert.witness).ok


def test_one_saddle_solve_serves_minmax_and_maxmin(rng, monkeypatch):
    monkeypatch.setattr(solver, "_SADDLES", OrderedDict())
    g = random_game(rng, num_agents=1, type_sizes=[2], action_sizes=[2, 3])
    v0, v1 = g.principal_utils
    with mock.patch.object(solver, "linprog", wraps=_highs.linprog) as spy:
        lo = minmax(g, 0, mode="exact2")
        hi = maxmin(g, 0)
        assert spy.call_count == 1
        assert lo.value == hi.value and lo.witness[1].owner == 1 and hi.witness.owner == 0
        # the memo is keyed by what the LP reads: the other principal's
        # payoffs are not read, j's payoffs and the principal are
        assert maxmin(dataclasses.replace(g, principal_utils=(v0, 1 - v1)), 0).value == hi.value
        assert spy.call_count == 1
        minmax(dataclasses.replace(g, principal_utils=(v0 + 0.5, v1)), 0, mode="exact2")
        assert spy.call_count == 2
        maxmin(g, 1)
        assert spy.call_count == 3


def test_saddle_memo_holds_its_cap_drops_the_oldest_and_keeps_no_game(rng, monkeypatch):
    monkeypatch.setattr(solver, "_SADDLES", OrderedDict())
    monkeypatch.setattr(mechpoly_bic, "POLYTOPE_CACHE_SIZE", 3)
    games = [random_game(rng, num_agents=1, type_sizes=[2], action_sizes=[2, 2])
             for _ in range(5)]
    with mock.patch.object(solver, "linprog", wraps=_highs.linprog) as spy:
        for g in games:
            maxmin(g, 0)
            assert len(solver._SADDLES) <= 3
        assert spy.call_count == 5
        for g in games[2:]:
            minmax(g, 0, mode="exact2")
        assert spy.call_count == 5
        minmax(games[0], 0, mode="exact2")       # dropped first; drops games[2]'s
        assert spy.call_count == 6
        minmax(games[2], 0, mode="exact2")
        assert spy.call_count == 7
    assert len(solver._SADDLES) == 3
    ref = weakref.ref(games[0])
    del g, games
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("flaw", ["not IC", "not optimal"])
def test_saddle_duals_that_fail_their_check_refine_then_raise(rng, monkeypatch, flaw):
    # the opponent-cell row duals are replaced by a pure table: one that
    # breaks an IC row, or a pooled one (IC rows 0) whose best response is
    # above the value; both attempts fail, and nothing is memoised
    monkeypatch.setattr(solver, "_SADDLES", OrderedDict())
    g = random_game(rng, num_agents=1, type_sizes=[3], action_sizes=[2, 2])
    poly = build_bic_polytope(g, 1)
    value = maxmin(g, 0).value
    pure = [np.eye(2)[list(rows)] for rows in itertools.product(range(2), repeat=3)]
    if flaw == "not IC":
        table = next(t for t in pure if poly.ic_values(t).min() < -1e-3)
    else:
        table = next(t for t in pure if (t == t[0]).all()
                     and best_response(g, 0, {1: t})[0] > value + 1e-3)
        assert poly.ic_values(table).min() == 0.0
    monkeypatch.setattr(solver, "_SADDLES", OrderedDict())
    real, calls = solver.linprog, []

    def corrupted(*args, options=None):
        calls.append(options)
        res = real(*args, options=options)
        row_dual = res.row_dual.copy()
        row_dual[:table.size] = -table.reshape(-1)
        return dataclasses.replace(res, row_dual=row_dual)

    monkeypatch.setattr(solver, "linprog", corrupted)
    with pytest.raises(NumericalFailure, match="saddle duals: punishment IC row"):
        minmax(g, 0, mode="exact2")
    assert calls == [None, _highs.TIGHT]
    assert not solver._SADDLES


def test_seeded_value_lps_need_no_refinement(monkeypatch):
    # every LP of a04's games (both principals: exact2 minmax, exact maxmin
    # and the best response to the punishment) and of 20 gap-search
    # candidates (exact maxmin, grid minmax) passes its checks on the first
    # attempt: none is retried with TIGHT
    monkeypatch.setattr(mechpoly_bic, "_POLYTOPES", OrderedDict())
    monkeypatch.setattr(solver, "_SADDLES", OrderedDict())
    real, calls = solver.linprog, []

    def counted(*args, options=None):
        calls.append(options)
        return real(*args, options=options)

    monkeypatch.setattr(solver, "linprog", counted)
    rng = np.random.default_rng(104)
    for _ in range(100):
        n_i = int(rng.integers(1, 3))
        g = random_game(rng, num_principals=2, num_agents=n_i,
                        type_sizes=[int(rng.integers(1, 3)) for _ in range(n_i)],
                        action_sizes=[int(rng.integers(2, 4)), int(rng.integers(2, 4))])
        for j in range(2):
            cert = minmax(g, j, mode="exact2")
            maxmin(g, j, mode="exact")
            best_response(g, j, cert.witness)
    family, rng = GapFamily(), np.random.default_rng(42)
    for idx in range(20):
        g = family.candidate(idx, rng)
        maxmin(g, 0, mode="exact")
        minmax(g, 0, mode="grid", step=0.05)
    # one saddle LP and one best response per (game, principal), one
    # correlated saddle LP per candidate
    assert len(calls) == 420 and calls.count(_highs.TIGHT) == 0


def test_sion_equivalence_small_loop(rng):
    for _ in range(15):
        g = random_game(rng, num_agents=1,
                        type_sizes=[int(rng.integers(1, 3))],
                        action_sizes=[int(rng.integers(2, 4)), int(rng.integers(2, 4))])
        for j in range(2):
            lo = minmax(g, j, mode="exact2")
            hi = maxmin(g, j, mode="exact")
            assert abs(lo.value - hi.value) <= 1e-6


def test_weak_duality_three_principals(rng):
    for _ in range(4):
        g = random_game(rng, num_principals=3, num_agents=1, type_sizes=[1],
                        action_sizes=[2, 2, 2], zero_agent_payoffs=True)
        grid = minmax(g, 0, mode="grid", step=0.05)
        upper = minmax(g, 0, mode="alternating", restarts=4, seed=9)
        mm = maxmin(g, 0, mode="exact")
        assert grid.value <= upper.value + 1e-6
        assert mm.value <= upper.value + 1e-6


def test_gap3_structural_candidate_values():
    family = GapFamily()
    rng = np.random.default_rng(42)
    g = family.candidate(0, rng)
    assert g.num_principals == 3 and g.num_profiles == 1
    mm = maxmin(g, 0, mode="exact")
    assert mm.value == pytest.approx(0.5, abs=1e-9)
    lo = minmax(g, 0, mode="grid", step=0.01)
    assert lo.info["grid_min"] == pytest.approx(0.75, abs=1e-9)
    assert lo.gap_bound == pytest.approx(0.04, abs=1e-12)
    assert lo.value == pytest.approx(0.71, abs=1e-9)
    assert lo.value - mm.value == pytest.approx(0.21, abs=1e-9)
    # witness best-response value within gap_bound of the certified bound
    br_value, _ = best_response(g, 0, lo.witness)
    assert br_value - lo.value <= lo.gap_bound + 1e-9


def test_punishment_profile(mp2, monkeypatch):
    profile, value = punishment_profile(mp2, 0, mode="exact2")
    assert value == pytest.approx(0.5, abs=1e-7)
    np.testing.assert_allclose(profile[1].p, [[0.5, 0.5]], atol=1e-7)
    assert is_individually_bic(mp2, profile[1]).ok

    profile_g, value_g = punishment_profile(mp2, 0, mode="grid", step=0.01)
    assert value_g == pytest.approx(0.5, abs=1e-9)

    # a minmax without a feasible witness; every mode finds one, so it is stubbed
    bare = ValueCertificate(kind="grid-certified-lower-bound", value=0.5, witness=None,
                            gap_bound=0.0)
    monkeypatch.setattr(solver, "minmax", lambda *args, **kwargs: bare)
    with pytest.raises(NumericalFailure, match="minmax run produced no feasible witness"):
        punishment_profile(mp2, 0, mode="grid")


def test_punishment_profile_random(rng):
    for _ in range(5):
        g = random_game(rng, num_agents=1, type_sizes=[2], action_sizes=[2, 2])
        cert = minmax(g, 0, mode="exact2")
        profile, value = punishment_profile(g, 0, mode="exact2")
        assert value >= cert.value - 1e-7
        assert value == pytest.approx(cert.value, abs=1e-6)
        for mech in profile.values():
            assert is_individually_bic(g, mech).ok


def _mp2_certs(mp2, mode="exact2"):
    return [minmax(mp2, j, mode=mode) for j in range(2)]


def test_membership_member(mp2):
    certs = _mp2_certs(mp2)
    uniform = [DirectMechanism(owner=j, p=np.array([[0.5, 0.5]])) for j in range(2)]
    verdict = robust_pbe_membership(mp2, uniform, certs)
    assert verdict.verdict == "member"
    assert verdict.ok and verdict.bic_ok
    for row in verdict.per_principal:
        assert row["ok"]
        assert row["slack"] == pytest.approx(0.0, abs=1e-7)


def test_membership_non_member(mp2):
    certs = _mp2_certs(mp2)
    ht = [DirectMechanism(owner=0, p=np.array([[1.0, 0.0]])),
          DirectMechanism(owner=1, p=np.array([[0.0, 1.0]]))]
    verdict = robust_pbe_membership(mp2, ht, certs)
    assert verdict.verdict == "non-member"
    assert not verdict.ok
    slacks = {row["principal"]: row["slack"] for row in verdict.per_principal}
    assert slacks["P1"] == pytest.approx(-0.5, abs=1e-7)
    assert slacks["P2"] == pytest.approx(0.5, abs=1e-7)


def test_membership_grid_certificates_are_definitive(mp2):
    certs = _mp2_certs(mp2, mode="grid")
    uniform = [DirectMechanism(owner=j, p=np.array([[0.5, 0.5]])) for j in range(2)]
    verdict = robust_pbe_membership(mp2, uniform, certs)
    # both payoffs reach the witness value 0.5, a feasible upper bound
    assert verdict.verdict == "member"
    # the bound is the certified value 0.5 - 0.02; the slack is not taken twice
    assert verdict.per_principal[0]["bound"] == pytest.approx(0.48, abs=1e-9)


def test_membership_grid_fail_below_lower_bound(mp2):
    # P1 is paid 0.47 < 0.48, the certified lower bound on its floor of 0.5
    prof = [DirectMechanism(owner=0, p=np.array([[1.0, 0.0]])),
            DirectMechanism(owner=1, p=np.array([[0.47, 0.53]]))]
    assert robust_pbe_membership(mp2, prof, _mp2_certs(mp2, mode="grid")).verdict \
        == "non-member"
    assert robust_pbe_membership(mp2, prof, _mp2_certs(mp2, mode="exact2")).verdict \
        == "non-member"


def test_membership_grid_band_is_not_established(mp2):
    # P1 is paid 0.49: above the lower bound 0.48, below the witness value 0.5
    prof = [DirectMechanism(owner=0, p=np.array([[1.0, 0.0]])),
            DirectMechanism(owner=1, p=np.array([[0.49, 0.51]]))]
    verdict = robust_pbe_membership(mp2, prof, _mp2_certs(mp2, mode="grid"))
    assert verdict.verdict == "not-established"
    assert not verdict.ok
    assert [row["ok"] for row in verdict.per_principal] == [True, True]


def test_membership_upper_bound_certificates_hedge(mp2):
    # an alternating upper bound is an exact best-response value against a
    # feasible profile, so passing it is definitive; failing it is not
    certs = [minmax(mp2, j, mode="alternating", restarts=2, seed=1) for j in range(2)]
    uniform = [DirectMechanism(owner=j, p=np.array([[0.5, 0.5]])) for j in range(2)]
    verdict = robust_pbe_membership(mp2, uniform, certs)
    assert verdict.verdict == "member"
    assert verdict.ok

    ht = [DirectMechanism(owner=0, p=np.array([[1.0, 0.0]])),
          DirectMechanism(owner=1, p=np.array([[0.0, 1.0]]))]
    verdict = robust_pbe_membership(mp2, ht, certs)
    assert verdict.verdict == "not-established"
    assert not verdict.ok


def _gap_profile(q2, q3):
    """GapFamily's seed game with P1 on its second action: P1 is paid
    1 - q2 * (1 - q3)."""
    g = GapFamily().candidate(0, np.random.default_rng(0))
    return g, [DirectMechanism(owner=0, p=np.array([[0.0, 1.0]])),
               DirectMechanism(owner=1, p=np.array([[q2, 1 - q2]])),
               DirectMechanism(owner=2, p=np.array([[q3, 1 - q3]]))]


def test_membership_reads_a_maxmin_as_a_lower_bound_on_the_floor():
    # P1's exact maxmin is 0.5 and its grid floor lower bound 0.71: a payoff
    # of 0.622 passes the maxmin, yet a maxmin only bounds the floor from below
    g, prof = _gap_profile(0.6, 0.37)
    assert expected_principal_payoff(g, 0, prof) == pytest.approx(0.622, abs=1e-12)
    mm = maxmin(g, 0, mode="exact")
    grids = [minmax(g, j) for j in range(3)]
    assert mm.kind == "vertex-product-exact" and mm.value == pytest.approx(0.5, abs=1e-9)
    assert grids[0].value == pytest.approx(0.71, abs=1e-9)
    verdict = robust_pbe_membership(g, prof, [mm] + grids[1:])
    assert verdict.verdict == "not-established"
    assert not verdict.ok
    assert verdict.per_principal[0]["ok"]     # the per-principal test is unchanged
    assert robust_pbe_membership(g, prof, grids).verdict == "non-member"
    # failing a maxmin is definitive
    g, low = _gap_profile(0.6, 0.0)           # P1 is paid 0.4
    assert robust_pbe_membership(g, low, [mm] + grids[1:]).verdict == "non-member"


def test_membership_alternating_maxmin_and_unknown_kinds_decide_nothing(mp2):
    # 'alternating', the retired heuristic maxmin's kind, is unknown like any other
    uniform = [DirectMechanism(owner=j, p=np.array([[0.5, 0.5]])) for j in range(2)]
    for kind in ("alternating", "hand-made"):
        unknown = [ValueCertificate(kind=kind, value=0.5, witness=None, gap_bound=0.0)] * 2
        verdict = robust_pbe_membership(mp2, uniform, unknown)
        assert verdict.verdict == "not-established"
        assert not verdict.ok
        assert all(row["ok"] for row in verdict.per_principal)


def test_certificate_info_holds_only_json_scalars(mp2):
    g3 = GapFamily().candidate(0, np.random.default_rng(0))
    certs = []
    for g in (mp2, g3):
        for j in range(g.num_principals):
            for mode in ("auto", "exact2", "grid", "alternating"):
                if mode == "exact2" and g.num_principals > 2:
                    continue
                certs.append(minmax(g, j, mode=mode, step=0.1, restarts=2))
            for mode in ("auto", "exact"):
                certs.append(maxmin(g, j, mode=mode))
    certs += [maxmin(g3, j, dim_cap=1) for j in range(g3.num_principals)]
    assert {c.kind for c in certs} == {"exact-lp", "vertex-product-exact",
                                       "relaxation-lower-bound",
                                       "grid-certified-lower-bound", "alternating-upper-bound"}
    for cert in certs:
        assert cert.lower <= cert.upper and cert.value in (cert.lower, cert.upper), cert.kind
        assert all(type(k) is str for k in cert.info)
        assert all(type(v) in (int, float, str, type(None)) for v in cert.info.values()), \
            (cert.kind, cert.info)


def test_membership_requires_bic(screen1):
    certs = [minmax(screen1, j, mode="exact2") for j in range(2)]
    swapped = [
        DirectMechanism(owner=0, p=np.array([[0.0, 1.0], [1.0, 0.0]])),
        DirectMechanism(owner=1, p=np.ones((2, 1))),
    ]
    verdict = robust_pbe_membership(screen1, swapped, certs)
    assert verdict.verdict == "non-member"
    assert not verdict.bic_ok
    assert verdict.bic_worst == (0, "L", ("H", "L"))
    # payoff floors alone would have passed (all payoffs are zero)
    assert all(row["ok"] for row in verdict.per_principal)


def test_search_gap_finds_three_principal_separation():
    res = search_minmax_maxmin_gap(budget=5, step=0.01, seed=42)
    assert res.found
    assert res.candidate_index == 0
    assert res.certified_gap == pytest.approx(0.21, abs=1e-9)
    assert res.game.num_principals == 3


def test_search_gap_silent_for_two_principals():
    family = GapFamily(num_principals=2, num_agents=1)
    res = search_minmax_maxmin_gap(family, budget=10, step=0.05, seed=3)
    assert res.certified_gap <= 1e-6
    assert not res.found


def test_search_gap_degenerate_family_reports_zero():
    family = GapFamily(num_principals=3, num_agents=1, num_actions=1)
    res = search_minmax_maxmin_gap(family, budget=3, step=0.01, seed=0)
    assert res.certified_gap == pytest.approx(0.0, abs=1e-9)
    assert not res.found


def test_search_gap_rejects_bad_budget():
    with pytest.raises(ValueError, match="budget"):
        search_minmax_maxmin_gap(budget=0)


def test_solve_report_round_trip(mp2):
    cert = minmax(mp2, 0, mode="exact2")
    rep1 = solve_report(mp2, 0, cert, seed=7, runtime_ms=12.5)
    assert set(rep1) == {"game_hash", "principal", "kind", "value", "gap_bound",
                         "witness", "seed", "runtime_ms"}
    assert rep1["principal"] == "P1"
    assert rep1["witness"]["P2"]["owner"] == "P2"
    text = report_to_json(rep1)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["value"] == rep1["value"]

    cert2 = minmax(mp2, 0, mode="exact2")
    rep2 = solve_report(mp2, 0, cert2, seed=7, runtime_ms=99.0)
    rep1.pop("runtime_ms")
    rep2.pop("runtime_ms")
    assert report_to_json(rep1) == report_to_json(rep2)


def test_witness_serialization_errors(mp2):
    from mechpoly import witness_to_jsonable

    assert witness_to_jsonable(mp2, None) is None
    with pytest.raises(TypeError):
        witness_to_jsonable(mp2, "junk")
