import json
import math
import os
import re
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mechpoly import (
    DirectMechanism,
    GapFamily,
    build_type_and_dm_mechanism,
    deviator_truthful_strategies,
    game_hash,
    game_to_dict,
    load_game,
    load_general_mechanism,
    mechanism_to_dict,
    profile_to_list,
    random_game,
    sample_bic,
    save_game,
    save_general_mechanism,
    save_strategies,
    standard_from_direct,
    truthful_strategies,
)
import mechpoly.cli
import mechpoly.solver
from mechpoly.cli import EXIT_NUMERIC, main


def _write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def mp_files(tmp_path, mp2):
    game = tmp_path / "mp.json"
    save_game(mp2, game)
    uniform = [DirectMechanism(owner=j, p=np.array([[0.5, 0.5]])) for j in range(2)]
    profile = _write_json(tmp_path / "uniform.json", profile_to_list(mp2, uniform))
    return mp2, str(game), profile


@pytest.fixture
def mp_inputs(tmp_path, mp_files):
    """Valid matching-pennies files for every flag that reads an input file."""
    mp2, game, profile = mp_files
    uniform = [DirectMechanism(owner=j, p=np.array([[0.5, 0.5]])) for j in range(2)]
    files = {"game": game, "profile": profile, "drm": str(tmp_path / "drm.json")}
    for j in range(2):
        files[f"std{j}"] = str(tmp_path / f"std{j}.json")
        save_general_mechanism(mp2, standard_from_direct(mp2, uniform[j]), files[f"std{j}"])
    mechs = [load_general_mechanism(mp2, files[f"std{j}"]) for j in range(2)]
    files["strategies"] = str(tmp_path / "strategies.json")
    save_strategies(mp2, mechs, truthful_strategies(mp2, mechs), files["strategies"])
    files["default"] = _write_json(tmp_path / "default.json", mechanism_to_dict(mp2, uniform[0]))
    return files


def _check_eq(f, mechanism=None, strategies=None, deviation=None):
    return ["check-eq", "--game", f["game"], "--mechanism", mechanism or f["std0"],
            "--mechanism", f["std1"], "--strategies", strategies or f["strategies"],
            "--deviation", f"P1={deviation or f['std0']}", "--notion", "pbe"]


def _build_drm(f, default=None, punish=None, out=None):
    return ["build-drm", "--game", f["game"], "-j", "P1", "--default", default or f["default"],
            "--punish", f"P2={punish or f['default']}", "--out-mechanism", out or f["drm"]]


def inputs(f, path):
    """For each flag that reads an input file: the valid file it reads in
    ``f``, and an argv that reads ``path`` through it instead, with every
    other input valid."""
    return {
        "--game": (f["game"], ["validate", "--game", path]),
        "--profile": (f["profile"], ["bic-check", "--game", f["game"], "--profile", path]),
        "bic-check --mechanism": (f["default"],
                                  ["bic-check", "--game", f["game"], "--mechanism", path]),
        "check-eq --mechanism": (f["std0"], _check_eq(f, mechanism=path)),
        "--strategies": (f["strategies"], _check_eq(f, strategies=path)),
        "--deviation": (f["std0"], _check_eq(f, deviation=path)),
        "--default": (f["default"], _build_drm(f, default=path)),
        "--punish": (f["default"], _build_drm(f, punish=path)),
    }


def test_validate_ok(tmp_path, mp_files, capsys):
    mp2, game, _ = mp_files
    out = tmp_path / "report.json"
    assert main(["validate", "--game", game, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("validate: ok")
    doc = _read_json(out)
    assert doc["ok"] is True
    assert doc["violations"] == []
    assert doc["game_hash"] == game_hash(mp2)
    assert doc["config"]["subcommand"] == "validate"


def test_validate_rejects_bad_prior(tmp_path, screen1, capsys):
    doc = game_to_dict(screen1)
    doc["prior"][0]["p"] = 0.2
    game = _write_json(tmp_path / "bad.json", doc)
    assert main(["validate", "--game", game, "--out", str(tmp_path / "r.json")]) == 2
    assert "prior" in capsys.readouterr().err


def test_bic_check_mechanism_and_profile(tmp_path, screen1):
    game = tmp_path / "screen.json"
    save_game(screen1, game)
    truthful = DirectMechanism(owner=0, p=np.eye(2))
    swapped = DirectMechanism(owner=0, p=np.eye(2)[::-1].copy())
    stub = DirectMechanism(owner=1, p=np.ones((2, 1)))
    ok_mech = _write_json(tmp_path / "ok.json", mechanism_to_dict(screen1, truthful))
    bad_mech = _write_json(tmp_path / "bad.json", mechanism_to_dict(screen1, swapped))
    bad_prof = _write_json(tmp_path / "prof.json",
                           profile_to_list(screen1, [swapped, stub]))
    out = tmp_path / "r.json"
    assert main(["bic-check", "--game", str(game), "--mechanism", ok_mech,
                 "--out", str(out)]) == 0
    assert _read_json(out)["ok"] is True
    assert main(["bic-check", "--game", str(game), "--mechanism", bad_mech,
                 "--out", str(out)]) == 1
    doc = _read_json(out)
    assert doc["worst"] == [0, "L", "H"]
    assert doc["worst_value"] == pytest.approx(-1.0)
    assert main(["bic-check", "--game", str(game), "--profile", bad_prof,
                 "--out", str(out)]) == 1
    assert _read_json(out)["target"] == "profile"
    assert main(["bic-check", "--game", str(game), "--out", str(out)]) == 2


def test_vertices_with_hrep(tmp_path, screen1):
    game = tmp_path / "screen.json"
    save_game(screen1, game)
    out = tmp_path / "r.json"
    hrep = tmp_path / "poly.hrep"
    assert main(["vertices", "--game", str(game), "-j", "P1",
                 "--hrep", str(hrep), "--out", str(out)]) == 0
    doc = _read_json(out)
    assert doc["count"] == 3
    assert len(doc["vertices"]) == 3
    assert doc["hrep_file"] == str(hrep)
    lines = hrep.read_text().splitlines()
    assert len(lines) == 4
    assert sum(1 for ln in lines if ln.endswith("= 1")) == 2


def test_best_response_value(tmp_path, mp_files):
    _, game, profile = mp_files
    out = tmp_path / "r.json"
    assert main(["best-response", "--game", game, "-j", "P1",
                 "--profile", profile, "--out", str(out)]) == 0
    doc = _read_json(out)
    assert doc["kind"] == "best-response"
    assert doc["value"] == pytest.approx(0.5)
    assert doc["gap_bound"] == 0.0


def test_minmax_report_fields(tmp_path, mp_files, capsys):
    mp2, game, _ = mp_files
    out = tmp_path / "r.json"
    assert main(["minmax", "--game", game, "-j", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("minmax: P1 exact-lp")
    doc = _read_json(out)
    assert doc["kind"] == "exact-lp"
    assert doc["value"] == pytest.approx(0.5, abs=1e-9)
    assert doc["gap_bound"] == 0.0
    assert doc["game_hash"] == game_hash(mp2)
    assert doc["principal"] == "P1"
    assert doc["witness"]["P2"]["owner"] == "P2"
    assert doc["config"]["seed"] == 0
    out2 = tmp_path / "r2.json"
    assert main(["minmax", "--game", game, "-j", "P1", "--out", str(out2)]) == 0
    assert _read_json(out2)["value"] == doc["value"]


def test_numerical_failure_exits_with_code_3(tmp_path, mp_files, monkeypatch, capsys):
    real = mechpoly.solver.linprog
    options = []

    def off_tolerance(*args, **kwargs):
        res = real(*args, **kwargs)
        options.append(kwargs.get("options"))
        res.x = res.x + 1e-3  # every simplex row now misses 1 by far more than 1e-9
        return res

    monkeypatch.setattr(mechpoly.solver, "linprog", off_tolerance)
    # an earlier minmax of this game would be served from the saddle memo
    monkeypatch.setattr(mechpoly.solver, "_SADDLES", OrderedDict())
    _, game, _ = mp_files
    out = tmp_path / "r.json"
    assert main(["minmax", "--game", game, "-j", "1", "--out", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "primal residual" in err
    # the first attempt and the refined one both came back out of tolerance
    assert len(options) == 2
    assert options[0] is None and options[1] is not None
    assert not out.exists()


def test_seed_env_overrides_flag(tmp_path, mp_files, monkeypatch):
    _, game, _ = mp_files
    out = tmp_path / "r.json"
    monkeypatch.setenv("MECHPOLY_SEED", "7")
    assert main(["minmax", "--game", game, "-j", "1", "--seed", "3",
                 "--out", str(out)]) == 0
    assert _read_json(out)["config"]["seed"] == 7
    monkeypatch.setenv("MECHPOLY_SEED", "xyz")
    assert main(["minmax", "--game", game, "-j", "1", "--out", str(out)]) == 2


def test_maxmin_value(tmp_path, mp_files):
    _, game, _ = mp_files
    out = tmp_path / "r.json"
    assert main(["maxmin", "--game", game, "-j", "P1", "--out", str(out)]) == 0
    doc = _read_json(out)
    assert doc["kind"] == "exact-lp"
    assert doc["value"] == pytest.approx(0.5, abs=1e-9)
    assert doc["config"]["step"] == 0.01


def test_maxmin_rejects_grid_flags(tmp_path, mp_files, capsys):
    # maxmin never reads --step, --grid-dim-cap or --restarts, so argparse
    # refuses them, and it has no alternating mode
    _, game, _ = mp_files
    for flag, value in (("--step", "0.7"), ("--grid-dim-cap", "3"), ("--restarts", "2")):
        with pytest.raises(SystemExit) as exc:
            main(["maxmin", "--game", game, "-j", "P1", flag, value,
                  "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["maxmin", "--game", game, "-j", "P1", "--mode", "alternating",
              "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "invalid choice: 'alternating'" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_punish_reports_both_values(tmp_path, mp_files):
    _, game, _ = mp_files
    out = tmp_path / "r.json"
    assert main(["punish", "--game", game, "-j", "P1", "--out", str(out)]) == 0
    doc = _read_json(out)
    assert doc["value"] == pytest.approx(0.5, abs=1e-9)
    assert doc["minmax_value"] == pytest.approx(0.5, abs=1e-9)
    assert doc["witness"]["P2"]["owner"] == "P2"
    assert (doc["kind"], doc["gap_bound"], doc["minmax_kind"]) == ("best-response", 0.0,
                                                                   "exact-lp")
    # the grid's best-response value 0.75 lies above its certified lower
    # bound 0.71, so it takes the best response's label, not the grid's
    gap = tmp_path / "gap.json"
    save_game(GapFamily().candidate(0, np.random.default_rng(42)), gap)
    assert main(["punish", "--game", str(gap), "-j", "1", "--mode", "grid",
                 "--out", str(out)]) == 0
    doc = _read_json(out)
    assert doc["value"] == pytest.approx(0.75, abs=1e-9)
    assert doc["minmax_value"] == pytest.approx(0.71, abs=1e-9)
    assert (doc["kind"], doc["gap_bound"], doc["minmax_kind"]) == (
        "best-response", 0.0, "grid-certified-lower-bound")


@pytest.mark.parametrize("argv", [
    ["punish", "-j", "P1"],
    ["build-drm", "-j", "P1", "--default", "{default}", "--out-mechanism", "{drm}"]],
    ids=["punish", "build-drm"])
def test_minmax_without_witness_exits_with_code_3(tmp_path, mp_inputs, monkeypatch, capsys,
                                                  argv):
    # every minmax mode finds a feasible witness on its own, so it is stubbed
    bare = mechpoly.solver.ValueCertificate(kind="grid-certified-lower-bound", value=0.5,
                                            witness=None, gap_bound=0.0)
    monkeypatch.setattr(mechpoly.cli, "minmax", lambda *args, **kwargs: bare)
    out = tmp_path / "r.json"
    argv = [a.format(**mp_inputs) for a in argv]
    assert main(argv[:1] + ["--game", mp_inputs["game"], *argv[1:], "--out", str(out)]) \
        == EXIT_NUMERIC
    message = {"punish": "minmax run produced no feasible witness; try a finer grid step",
               "build-drm": "no punishment witness for P2"}[argv[0]]
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not out.exists() and not os.path.exists(mp_inputs["drm"])


def test_membership_verdicts(tmp_path, mp_files):
    mp2, game, uniform = mp_files
    out = tmp_path / "r.json"
    assert main(["membership", "--game", game, "--profile", uniform,
                 "--out", str(out)]) == 0
    doc = _read_json(out)
    assert doc["verdict"] == "member"
    assert doc["ok"] is True
    assert {d["principal"] for d in doc["per_principal"]} == {"P1", "P2"}
    mismatched = [DirectMechanism(owner=0, p=np.array([[1.0, 0.0]])),
                  DirectMechanism(owner=1, p=np.array([[0.0, 1.0]]))]
    bad = _write_json(tmp_path / "ht.json", profile_to_list(mp2, mismatched))
    assert main(["membership", "--game", game, "--profile", bad,
                 "--out", str(out)]) == 1
    doc = _read_json(out)
    assert doc["verdict"] == "non-member"
    assert min(d["slack"] for d in doc["per_principal"]) < -0.4


def test_reports_identical_modulo_runtime(tmp_path, mp_files):
    _, game, _ = mp_files
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["minmax", "--game", game, "-j", "1", "--out", str(out)]) == 0
    docs = [_read_json(o) for o in outs]
    for doc in docs:
        doc.pop("runtime_ms")
    assert docs[0] == docs[1]


def test_default_report_path(tmp_path, mp_files, monkeypatch, capsys):
    _, game, _ = mp_files
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--game", game]) == 0
    written = list((tmp_path / "reports").glob("validate-*.json"))
    assert len(written) == 1
    assert str(written[0].name) in capsys.readouterr().out
    # two reports in one timestamp: the second gets a suffix and leaves the
    # first as it was
    frozen = mechpoly.cli.datetime(2026, 1, 2, 3, 4, 5, 6, tzinfo=mechpoly.cli.timezone.utc)
    monkeypatch.setattr(mechpoly.cli, "datetime",
                        type("Frozen", (), {"now": staticmethod(lambda tz: frozen)}))
    for tol in ("1e-6", "2e-6"):
        assert main(["validate", "--game", game, "--membership-tol", tol]) == 0
    reports = tmp_path / "reports"
    tols = {name: _read_json(reports / name)["config"]["membership_tol"]
            for name in ("validate-20260102-030405-000006.json",
                         "validate-20260102-030405-000006-1.json")}
    assert list(tols.values()) == [1e-6, 2e-6]
    assert len(list(reports.glob("validate-*.json"))) == 3


def _vertex_menu_file(g, j, path):
    n_a = len(g.action_spaces[j])
    menu = []
    for a in range(n_a):
        p = np.zeros((g.num_profiles, n_a))
        p[:, a] = 1.0
        menu.append(DirectMechanism(owner=j, p=p))
    mech = build_type_and_dm_mechanism(g, j, menu)
    save_general_mechanism(g, mech, path)
    return str(path)


def test_build_drm_and_check_eq_round_trip(tmp_path, mp_files):
    mp2, game, _ = mp_files
    default = _write_json(
        tmp_path / "default.json",
        mechanism_to_dict(mp2, DirectMechanism(owner=0, p=np.array([[0.5, 0.5]]))))
    mech_paths = []
    for j, pid in enumerate(("P1", "P2")):
        dflt = _write_json(
            tmp_path / f"default{j}.json",
            mechanism_to_dict(mp2, DirectMechanism(owner=j, p=np.array([[0.5, 0.5]]))))
        mech_path = tmp_path / f"drm{j}.json"
        out = tmp_path / f"build{j}.json"
        assert main(["build-drm", "--game", game, "-j", pid, "--default", dflt,
                     "--out-mechanism", str(mech_path), "--out", str(out)]) == 0
        doc = _read_json(out)
        assert doc["standard"] is True
        assert doc["message_set_sizes"] == [2, 2, 2]
        assert set(doc["computed_punishment_values"]) == {("P2" if j == 0 else "P1")}
        mech_paths.append(str(mech_path))
    assert default  # the P1 default above is drm0's input too

    mechs = [load_general_mechanism(mp2, p) for p in mech_paths]
    strat_path = tmp_path / "strategies.json"
    save_strategies(mp2, mechs, deviator_truthful_strategies(mp2, mechs), strat_path)
    dev = _vertex_menu_file(mp2, 0, tmp_path / "menu1.json")
    out = tmp_path / "check.json"
    assert main(["check-eq", "--game", game,
                 "--mechanism", mech_paths[0], "--mechanism", mech_paths[1],
                 "--strategies", str(strat_path), "--deviation", f"P1={dev}",
                 "--notion", "robust", "--out", str(out)]) == 0
    doc = _read_json(out)
    assert doc["ok"] is True
    assert doc["on_path"]["ok"] is True
    assert doc["equilibrium_payoffs"] == pytest.approx([0.5, 0.5])
    assert len(doc["checks"]) == 1
    assert doc["checks"][0]["value"] == pytest.approx(0.5)


@pytest.mark.parametrize("flag", ["--default", "--punish"])
def test_build_drm_rejects_table_files_of_another_principal(tmp_path, flag, capsys):
    g = random_game(np.random.default_rng(7), num_principals=2, num_agents=3,
                    type_sizes=[2, 1, 1], action_sizes=[2, 2])
    game = tmp_path / "g.json"
    save_game(g, game)
    own = _write_json(tmp_path / "own.json", mechanism_to_dict(g, sample_bic(g, 0, 3)))
    # P2's table, BIC for P2 but not for P1
    foreign = _write_json(tmp_path / "foreign.json", mechanism_to_dict(g, sample_bic(g, 1, 1)))
    mech, out = tmp_path / "drm.json", tmp_path / "report.json"
    default, punish = (foreign, own) if flag == "--default" else (own, foreign)
    assert main(["build-drm", "--game", str(game), "-j", "P1", "--default", default,
                 "--punish", f"P2={punish}", "--out-mechanism", str(mech),
                 "--out", str(out)]) == 2
    what = "default" if flag == "--default" else "punishment"
    assert capsys.readouterr().err == f"error: {foreign}: {what} table owner mismatch\n"
    assert not mech.exists() and not out.exists()


def test_build_drm_rejects_a_punishment_for_the_building_principal(tmp_path, capsys):
    g = random_game(np.random.default_rng(7), num_principals=2, num_agents=3,
                    type_sizes=[2, 1, 1], action_sizes=[2, 2])
    game = tmp_path / "g.json"
    save_game(g, game)
    own = _write_json(tmp_path / "own.json", mechanism_to_dict(g, sample_bic(g, 0, 3)))
    mech, out = tmp_path / "drm.json", tmp_path / "report.json"
    assert main(["build-drm", "--game", str(game), "-j", "P1", "--default", own,
                 "--punish", f"P1={own}", "--out-mechanism", str(mech),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: punishment entry for principal index 0, "
                                       "which is not another principal\n")
    assert not mech.exists() and not out.exists()


@pytest.mark.parametrize("argv, message", [
    (lambda f: ["minmax", "--game", f["game"], "-j", "1", "--membership-tol", "0"],
     "tolerances must be positive"),
    (lambda f: ["maxmin", "--game", f["game"], "-j", "1", "--value-tol=-1e-6"],
     "tolerances must be positive"),
    (lambda f: ["build-drm", "--game", f["game"], "-j", "P1", "--default", f["default"],
                "--punish", f["default"], "--out-mechanism", f["drm"]],
     "--punish: expected PRINCIPAL=PATH, got {path!r}"),
], ids=["membership-tol", "value-tol", "principal-path"])
def test_bad_flag_values_exit_with_one_error_line(tmp_path, mp_inputs, argv, message, capsys):
    out = tmp_path / "report.json"
    assert main(argv(mp_inputs) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message.format(path=mp_inputs['default'])}\n"
    assert not out.exists() and not os.path.exists(mp_inputs["drm"])


def test_check_eq_rejects_deviation_file_of_another_principal(tmp_path, mp_files, capsys):
    mp2, game, _ = mp_files
    mech_paths = []
    for j in range(2):
        path = tmp_path / f"std{j}.json"
        save_general_mechanism(mp2, standard_from_direct(
            mp2, DirectMechanism(owner=j, p=np.array([[0.5, 0.5]]))), path)
        mech_paths.append(str(path))
    mechs = [load_general_mechanism(mp2, p) for p in mech_paths]
    strat_path = tmp_path / "strategies.json"
    save_strategies(mp2, mechs, truthful_strategies(mp2, mechs), strat_path)
    dev = _vertex_menu_file(mp2, 1, tmp_path / "menu2.json")
    out = tmp_path / "check.json"
    assert main(["check-eq", "--game", game,
                 "--mechanism", mech_paths[0], "--mechanism", mech_paths[1],
                 "--strategies", str(strat_path), "--deviation", f"P1={dev}",
                 "--notion", "robust", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "deviation 0 for principal P1" in err
    assert err.startswith(f"error: {dev}: deviation 0 for principal P1 is owned by principal P2")
    assert not out.exists()


def test_check_eq_errors_name_the_bad_mechanism_or_strategy_file(tmp_path, mp_inputs, capsys):
    # with two --mechanism files, the error line says which one is bad
    doc = _read_json(mp_inputs["std0"])
    label = next(iter(doc["outcome_rows"][0]["dist"]))
    doc["outcome_rows"][0]["dist"][label] = "0.5"
    bad = _write_json(tmp_path / "bad0.json", doc)
    out = tmp_path / "check.json"
    assert main(_check_eq(mp_inputs, mechanism=bad) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}.outcome_rows[0].dist.{label}: expected a finite number\n"

    doc = _read_json(mp_inputs["strategies"])
    key = next(iter(doc["entries"]))
    dist = doc["entries"][key]
    dist[next(iter(dist))] = "0.5"
    bad = _write_json(tmp_path / "bad-strategies.json", doc)
    assert main(_check_eq(mp_inputs, strategies=bad) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}.entries.{key}."), err
    assert not out.exists()


def test_game_file_with_too_few_payoff_rows_exits_before_allocating(tmp_path, capsys):
    # 4**40 type profiles: the payoff rows are counted before any table is
    # allocated, so the error names a field instead of numpy's size limit
    doc = {"principals": [{"id": "P1", "actions": ["a", "b"]},
                          {"id": "P2", "actions": ["c", "d"]}],
           "agents": [{"id": f"A{i}", "types": ["t0", "t1", "t2", "t3"]} for i in range(40)],
           "prior": [], "agent_payoffs": [], "principal_payoffs": []}
    game = _write_json(tmp_path / "huge.json", doc)
    out = tmp_path / "r.json"
    assert main(["validate", "--game", game, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: agent_payoffs: missing entry: 0 rows for {40 * 4 * 4 ** 40} entries\n"
    assert not out.exists()


def test_parser_is_shared_between_calls(tmp_path, mp_files):
    # the parser is built once per process; each call's appended
    # --mechanism/--deviation lists must still hold only its own files
    from mechpoly.cli import build_parser
    assert build_parser() is build_parser()
    mp2, game, _ = mp_files
    sessions = [(([[1.0, 0.0]], [[0.0, 1.0]]), (0, 1)), (([[0.5, 0.5]], [[0.5, 0.5]]), (1,))]
    docs = []
    for n, (rows, devs) in enumerate(sessions):
        mech_paths = []
        for j, row in enumerate(rows):
            path = tmp_path / f"std{n}{j}.json"
            save_general_mechanism(mp2, standard_from_direct(
                mp2, DirectMechanism(owner=j, p=np.array(row))), path)
            mech_paths.append(str(path))
        mechs = [load_general_mechanism(mp2, p) for p in mech_paths]
        strat_path = tmp_path / f"strategies{n}.json"
        save_strategies(mp2, mechs, truthful_strategies(mp2, mechs), strat_path)
        dev_args = []
        for j in devs:
            dev = _vertex_menu_file(mp2, j, tmp_path / f"menu{n}{j}.json")
            dev_args += ["--deviation", f"P{j + 1}={dev}"]
        out = tmp_path / f"check{n}.json"
        assert main(["check-eq", "--game", game, "--mechanism", mech_paths[0],
                     "--mechanism", mech_paths[1], "--strategies", str(strat_path),
                     *dev_args, "--notion", "pbe", "--out", str(out)]) in (0, 1)
        docs.append(_read_json(out))
    assert [c["principal"] for c in docs[0]["checks"]] == ["P1", "P2"]
    assert [c["principal"] for c in docs[1]["checks"]] == ["P2"]
    assert docs[0]["equilibrium_payoffs"] == pytest.approx([0.0, 1.0])
    assert docs[1]["equilibrium_payoffs"] == pytest.approx([0.5, 0.5])


def test_check_eq_rejects_dominated_profile(tmp_path, mp_files):
    mp2, game, _ = mp_files
    tables = [DirectMechanism(owner=0, p=np.array([[1.0, 0.0]])),
              DirectMechanism(owner=1, p=np.array([[0.0, 1.0]]))]
    mech_paths = []
    for j, dm in enumerate(tables):
        path = tmp_path / f"std{j}.json"
        save_general_mechanism(mp2, standard_from_direct(mp2, dm), path)
        mech_paths.append(str(path))
    mechs = [load_general_mechanism(mp2, p) for p in mech_paths]
    strat_path = tmp_path / "strategies.json"
    save_strategies(mp2, mechs, truthful_strategies(mp2, mechs), strat_path)
    dev = _vertex_menu_file(mp2, 0, tmp_path / "menu1.json")
    out = tmp_path / "check.json"
    assert main(["check-eq", "--game", game,
                 "--mechanism", mech_paths[0], "--mechanism", mech_paths[1],
                 "--strategies", str(strat_path), "--deviation", f"P1={dev}",
                 "--notion", "robust", "--out", str(out)]) == 1
    doc = _read_json(out)
    assert doc["ok"] is False
    assert doc["checks"][0]["value"] == pytest.approx(1.0)
    assert doc["checks"][0]["equilibrium_payoff"] == pytest.approx(0.0)


def test_simulate_profile(tmp_path, mp_files):
    _, game, uniform = mp_files
    out = tmp_path / "r.json"
    assert main(["simulate", "--game", game, "--profile", uniform,
                 "--rounds", "5000", "--seed", "3", "--out", str(out)]) == 0
    doc = _read_json(out)
    assert doc["rounds"] == 5000
    assert doc["seed"] == 3
    assert set(doc["action_profile_freq"]) == {"H,H", "H,T", "T,H", "T,T"}
    for rec in doc["principals"]:
        assert abs(rec["mean"] - 0.5) <= 4 * rec["stderr"]
    assert main(["simulate", "--game", game, "--out", str(out)]) == 2


def test_simulate_rejects_rounds_below_one(tmp_path, mp_files, capsys):
    # --rounds 0 used to write NaN means; -3 failed inside numpy
    _, game, uniform = mp_files
    out = tmp_path / "r.json"
    for rounds in ("0", "-3"):
        assert main(["simulate", "--game", game, "--profile", uniform,
                     "--rounds", rounds, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: rounds must be at least 1\n"
    assert not out.exists()


def test_simulate_from_mechanism_files(tmp_path, mp_files):
    mp2, game, _ = mp_files
    mech_paths = []
    for j in range(2):
        path = tmp_path / f"std{j}.json"
        save_general_mechanism(
            mp2,
            standard_from_direct(mp2, DirectMechanism(owner=j, p=np.array([[0.5, 0.5]]))),
            path)
        mech_paths.append(str(path))
    mechs = [load_general_mechanism(mp2, p) for p in mech_paths]
    strat_path = tmp_path / "strategies.json"
    save_strategies(mp2, mechs, truthful_strategies(mp2, mechs), strat_path)
    out = tmp_path / "r.json"
    assert main(["simulate", "--game", game,
                 "--mechanism", mech_paths[0], "--mechanism", mech_paths[1],
                 "--strategies", str(strat_path),
                 "--rounds", "2000", "--out", str(out)]) == 0
    assert _read_json(out)["rounds"] == 2000


def test_search_gap_cli(tmp_path, capsys):
    report = tmp_path / "gap.json"
    game_out = tmp_path / "gap-game.json"
    assert main(["search-gap", "--budget", "3", "--seed", "42", "--step", "0.05",
                 "--out", str(report), "--out-game", str(game_out)]) == 0
    assert "search-gap: best candidate 0" in capsys.readouterr().out
    doc = _read_json(report)
    assert doc["found"] is True
    assert doc["candidate_index"] == 0
    assert doc["evaluated"] == 3
    assert doc["certified_gap"] == pytest.approx(0.05, abs=1e-6)
    assert doc["maxmin"]["value"] == pytest.approx(0.5, abs=1e-9)
    assert doc["minmax_lower"]["value"] == pytest.approx(0.55, abs=1e-6)
    g = load_game(game_out)
    assert g.num_principals == 3
    assert doc["game_hash"] == game_hash(g)


def test_bad_flags_exit_with_input_error(tmp_path, mp_files, capsys, rng):
    _, game, _ = mp_files
    out = str(tmp_path / "r.json")
    assert main(["minmax", "--game", game, "-j", "1", "--step", "0.7",
                 "--out", out]) == 2
    assert "--step" in capsys.readouterr().err
    assert main(["minmax", "--game", game, "-j", "1", "--restarts", "0",
                 "--out", out]) == 2
    assert main(["minmax", "--game", game, "-j", "5", "--out", out]) == 2
    assert main(["minmax", "--game", game, "-j", "Q9", "--out", out]) == 2
    g3 = random_game(rng, num_principals=3, num_agents=1, type_sizes=[1],
                     action_sizes=[2, 2, 2], zero_agent_payoffs=True)
    game3 = tmp_path / "g3.json"
    save_game(g3, game3)
    assert main(["minmax", "--game", str(game3), "-j", "1", "--mode", "exact2",
                 "--out", out]) == 2


def test_unreadable_files_exit_with_input_error(tmp_path, mp_inputs, capsys):
    # a missing, malformed or non-UTF-8 input file, or an output file in a
    # missing directory, is an input error: exit 2, one "error:" line naming
    # the OS error, the JSON error's path:line:col or the file, no report
    missing = str(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    bad = str(bad)
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    not_utf8 = str(not_utf8)
    drm = str(tmp_path / "no-such-dir" / "drm.json")

    cases = [(flag, argv, "error: [Errno", missing)
             for flag, (_, argv) in inputs(mp_inputs, missing).items()]
    cases.append(("--out-mechanism", _build_drm(mp_inputs, out=drm), "error: [Errno", drm))
    cases += [(flag, argv, f"error: {bad}:1:2: ", bad)
              for flag, (_, argv) in inputs(mp_inputs, bad).items()]
    cases += [(flag, argv, f"error: {not_utf8}: ", not_utf8)
              for flag, (_, argv) in inputs(mp_inputs, not_utf8).items()]
    for flag, argv, prefix, path in cases:
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 2, flag
        err = capsys.readouterr().err
        assert err.startswith(prefix), (flag, err)
        assert path in err and "Traceback" not in err, (flag, err)
        assert not out.exists(), flag
    assert not (tmp_path / "no-such-dir").exists()


# The single-field replacements: null, a number, a string, an array, an
# object, a bool, NaN, or the field deleted.
DELETE = object()
REPLACEMENTS = [None, 7, "x", [], {}, True, math.nan, DELETE]

# How a reported path starts: a game file's top-level field, another file's
# root, or a file the command was given.
FIELD_PATH = re.compile(r"(\$|principals|agents|prior|agent_payoffs|principal_payoffs)[.\[:]")


def _field_paths(doc, path=()):
    """Every field of a JSON document, as a tuple of keys and indices."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _field_paths(value, path + (key,))


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_files_exit_with_one_error_line(tmp_path, mp_inputs, capsys, data):
    # each example reads the fixture's valid files and overwrites only the
    # mutated file and the report, so examples do not share state
    mutated = tmp_path / "mutated.json"
    table = inputs(mp_inputs, str(mutated))
    flag = data.draw(st.sampled_from(sorted(table)), label="flag")
    source, argv = table[flag]
    doc = _read_json(source)
    *parents, key = data.draw(st.sampled_from(list(_field_paths(doc))), label="field")
    replacement = data.draw(st.sampled_from(REPLACEMENTS), label="replacement")
    target = doc
    for k in parents:
        target = target[k]
    if replacement is DELETE:
        del target[key]
    else:
        target[key] = replacement
    mutated.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        where = lines[0][len("error: "):]
        assert FIELD_PATH.match(where) or any(
            where.startswith(p) for p in [*mp_inputs.values(), str(mutated)]), where
        assert not out.exists()
    out.unlink(missing_ok=True)
