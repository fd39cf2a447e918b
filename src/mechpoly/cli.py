"""Command-line front end.

Every subcommand reads JSON inputs, runs one operation, prints a one-line
summary, and writes a JSON report.  Files are read and written only through
``game._read_json`` and ``game._write_json``.  Reports default to timestamped
filenames under ./reports so repeated runs never clobber each other; an
explicit --out path is written as given.  Exit codes: 0 success or verdict
true, 1 verdict false, 2 input or configuration error (an unreadable or
unwritable file included), 3 numerical failure.

The knobs shared by the subcommands have one table of defaults,
``CONFIG_DEFAULTS``; a report's ``config`` holds the subcommand and those
knobs as parsed.  The environment variable MECHPOLY_SEED, when set,
overrides any --seed flag.
"""

import argparse
import functools
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from .bic import (
    DEFAULT_DIM_CAP,
    MEMBERSHIP_TOL,
    build_bic_polytope,
    enumerate_vertices,
    export_h_representation,
    is_individually_bic,
    is_profile_bic,
)
from .game import (
    GameFormatError,
    _one_per_principal,
    _read_json,
    _write_json,
    game_hash,
    game_to_dict,
    load_game,
    mechanism_from_dict,
    mechanism_to_dict,
    profile_from_list,
    save_game,
    validate_game,
)
from .mechanisms import (
    build_deviator_reporting,
    check_equilibrium_notion,
    load_general_mechanism,
    load_strategies,
    save_general_mechanism,
    simulate,
    standard_from_direct,
    truthful_strategies,
)
from .solver import (
    DEFAULT_RESTARTS,
    VALUE_TOL,
    GapFamily,
    NumericalFailure,
    ValueCertificate,
    _punished,
    best_response,
    maxmin,
    minmax,
    robust_pbe_membership,
    search_minmax_maxmin_gap,
    solve_report,
    witness_to_jsonable,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


# Set on every subparser, so a subcommand without one of these flags still
# reports the default in its config.
CONFIG_DEFAULTS = {
    "seed": 0,
    "membership_tol": MEMBERSHIP_TOL,
    "value_tol": VALUE_TOL,
    "mode": "auto",
    "step": 0.01,
    "restarts": DEFAULT_RESTARTS,
    "dim_cap": DEFAULT_DIM_CAP,
}


def _check_config(args) -> None:
    """Apply MECHPOLY_SEED and reject out-of-range knobs."""
    env_seed = os.environ.get("MECHPOLY_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            raise ValueError(f"MECHPOLY_SEED must be an integer, got {env_seed!r}") from None
    if args.membership_tol <= 0 or args.value_tol <= 0:
        raise ValueError("tolerances must be positive")
    if not (0.0 < args.step <= 0.5):
        raise ValueError("--step must lie in (0, 0.5]")
    if args.restarts < 1:
        raise ValueError("--restarts must be at least 1")


def _report_path(args) -> Path:
    if args.out:
        return Path(args.out)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S-%f")
    base = Path("reports")
    base.mkdir(parents=True, exist_ok=True)
    path = base / f"{args.cmd}-{stamp}.json"
    n = 1
    while path.exists():
        path = base / f"{args.cmd}-{stamp}-{n}.json"
        n += 1
    return path


def _write_report(args, payload: dict) -> Path:
    config = {"subcommand": args.cmd, **{k: getattr(args, k) for k in CONFIG_DEFAULTS}}
    path = _report_path(args)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(path, {**payload, "config": config})
    return path


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _resolve_principal(g, token: str) -> int:
    if token in g.principal_ids:
        return g.principal_ids.index(token)
    try:
        j = int(token)
    except ValueError:
        raise GameFormatError("--principal", f"unknown principal {token!r}")
    if 1 <= j <= g.num_principals:
        return j - 1
    raise GameFormatError("--principal", f"principal index {j} out of range 1..{g.num_principals}")


def _principal_files(g, flag, items):
    """(principal index, path) for each PRINCIPAL=PATH item of a repeatable flag."""
    for item in items or []:
        if "=" not in item:
            raise GameFormatError(flag, f"expected PRINCIPAL=PATH, got {item!r}")
        label, path = item.split("=", 1)
        yield _resolve_principal(g, label), path


def _load_profile(g, path):
    return profile_from_list(g, _read_json(path), path=str(path))


def _load_mechanisms(g, paths):
    """Load one general mechanism per principal, matching by owner label."""
    return _one_per_principal(g, ((str(p), load_general_mechanism(g, p)) for p in paths),
                              "--mechanism")


# -- subcommand handlers -------------------------------------------------------


def _cmd_validate(args):
    g = load_game(args.game)
    res = validate_game(g)
    payload = {
        "game_hash": game_hash(g),
        "ok": res.ok,
        "violations": res.violations,
        "warnings": res.warnings,
    }
    path = _write_report(args, payload)
    print(f"validate: {'ok' if res.ok else 'invalid'} "
          f"({len(res.violations)} violations, {len(res.warnings)} warnings) -> {path}")
    return EXIT_OK if res.ok else EXIT_INPUT


def _cmd_bic_check(args):
    g = load_game(args.game)
    if not args.profile and not args.mechanism:
        raise GameFormatError("--mechanism/--profile",
                              "bic-check needs --mechanism or --profile")
    if args.profile:
        mechs = _load_profile(g, args.profile)
        res = is_profile_bic(g, mechs, tol=args.membership_tol)
        what = "profile"
    else:
        mech = mechanism_from_dict(g, _read_json(args.mechanism), path=str(args.mechanism))
        res = is_individually_bic(g, mech, tol=args.membership_tol)
        what = "mechanism"
    payload = {
        "game_hash": game_hash(g),
        "target": what,
        "ok": bool(res.ok),
        "worst_value": float(res.worst_value),
        "worst": list(res.worst_label) if res.worst_label else None,
    }
    path = _write_report(args, payload)
    print(f"bic-check: {what} {'BIC' if res.ok else 'NOT BIC'} "
          f"(worst {res.worst_value:.3e}) -> {path}")
    return EXIT_OK if res.ok else EXIT_FALSE


def _minmax(g, j, args):
    return minmax(g, j, mode=args.mode, step=args.step, restarts=args.restarts, seed=args.seed)


def _cmd_vertices(args):
    g = load_game(args.game)
    j = _resolve_principal(g, args.principal)
    t0 = time.perf_counter()
    verts = enumerate_vertices(g, j, dim_cap=args.dim_cap)
    payload = {
        "game_hash": game_hash(g),
        "principal": g.principal_ids[j],
        "count": len(verts),
        "vertices": [mechanism_to_dict(g, v) for v in verts],
        "runtime_ms": _ms_since(t0),
    }
    if args.hrep:
        with open(args.hrep, "w", encoding="utf-8") as fh:
            fh.write(export_h_representation(build_bic_polytope(g, j)))
        payload["hrep_file"] = str(args.hrep)
    path = _write_report(args, payload)
    print(f"vertices: {len(verts)} vertices of {g.principal_ids[j]}'s polytope -> {path}")
    return EXIT_OK


def _cmd_best_response(args):
    g = load_game(args.game)
    j = _resolve_principal(g, args.principal)
    opponents = _load_profile(g, args.profile)
    t0 = time.perf_counter()
    value, witness = best_response(g, j, opponents)
    cert = ValueCertificate(kind="best-response", value=value, witness=witness, gap_bound=0.0)
    payload = solve_report(g, j, cert, args.seed, _ms_since(t0))
    path = _write_report(args, payload)
    print(f"best-response: {g.principal_ids[j]} value={value:.6f} -> {path}")
    return EXIT_OK


def _cmd_value(args):
    g = load_game(args.game)
    j = _resolve_principal(g, args.principal)
    t0 = time.perf_counter()
    if args.cmd == "minmax":
        cert = _minmax(g, j, args)
    else:
        cert = maxmin(g, j, mode=args.mode, dim_cap=args.dim_cap)
    payload = solve_report(g, j, cert, args.seed, _ms_since(t0))
    payload["info"] = cert.info
    path = _write_report(args, payload)
    gap = f" gap_bound={cert.gap_bound:.6f}" if args.cmd == "minmax" else ""
    print(f"{args.cmd}: {g.principal_ids[j]} {cert.kind} value={cert.value:.6f}{gap} -> {path}")
    return EXIT_OK


def _cmd_punish(args):
    g = load_game(args.game)
    j = _resolve_principal(g, args.principal)
    t0 = time.perf_counter()
    cert = _minmax(g, j, args)
    value = _punished(g, j, cert)
    out_cert = ValueCertificate(kind="best-response", value=float(value),
                                witness=cert.witness, gap_bound=0.0)
    payload = solve_report(g, j, out_cert, args.seed, _ms_since(t0))
    payload.update(minmax_value=float(cert.value), minmax_kind=cert.kind)
    path = _write_report(args, payload)
    print(f"punish: {g.principal_ids[j]} best-response value={value:.6f} "
          f"({cert.kind}) -> {path}")
    return EXIT_OK


def _cmd_membership(args):
    g = load_game(args.game)
    mechs = _load_profile(g, args.profile)
    t0 = time.perf_counter()
    certs = [_minmax(g, j, args) for j in range(g.num_principals)]
    verdict = robust_pbe_membership(g, mechs, certs, tol=args.value_tol)
    payload = {
        "game_hash": game_hash(g),
        "verdict": verdict.verdict,
        "ok": verdict.ok,
        "bic_ok": verdict.bic_ok,
        "bic_worst": list(verdict.bic_worst) if verdict.bic_worst else None,
        "per_principal": verdict.per_principal,
        "runtime_ms": _ms_since(t0),
    }
    path = _write_report(args, payload)
    slacks = ", ".join(f"{d['principal']}={d['slack']:+.4f}" for d in verdict.per_principal)
    print(f"membership: {verdict.verdict} ({slacks}) -> {path}")
    return EXIT_OK if verdict.ok else EXIT_FALSE


def _cmd_build_drm(args):
    g = load_game(args.game)
    k = _resolve_principal(g, args.principal)

    def own_table(path, what):
        dm = mechanism_from_dict(g, _read_json(path), path=str(path))
        if dm.owner != k:
            raise GameFormatError(str(path), f"{what} table owner mismatch")
        return dm

    default = own_table(args.default, "default")
    punishments = {jj: own_table(p, "punishment")
                   for jj, p in _principal_files(g, "--punish", args.punish)}
    t0 = time.perf_counter()
    computed = {}
    for jj in range(g.num_principals):
        if jj == k or jj in punishments:
            continue
        cert = _minmax(g, jj, args)
        if cert.witness is None:
            raise NumericalFailure(f"no punishment witness for {g.principal_ids[jj]}")
        punishments[jj] = cert.witness[k]
        computed[g.principal_ids[jj]] = float(cert.value)
    mech = build_deviator_reporting(g, k, default, punishments)
    save_general_mechanism(g, mech, args.out_mechanism)
    payload = {
        "game_hash": game_hash(g),
        "principal": g.principal_ids[k],
        "mechanism_file": str(args.out_mechanism),
        "standard": bool(mech.standard),
        "message_set_sizes": [len(m) for m in mech.agent_messages],
        "computed_punishment_values": computed,
        "runtime_ms": _ms_since(t0),
    }
    path = _write_report(args, payload)
    print(f"build-drm: wrote {args.out_mechanism} "
          f"(standard={mech.standard}) -> {path}")
    return EXIT_OK


def _cmd_check_eq(args):
    g = load_game(args.game)
    mechs = _load_mechanisms(g, args.mechanism)
    strategies = load_strategies(g, mechs, args.strategies)
    deviations = {j: [] for j in range(g.num_principals)}
    for jj, p in _principal_files(g, "--deviation", args.deviation):
        mech = load_general_mechanism(g, p)
        if mech.owner != jj:
            raise GameFormatError(p, f"deviation {len(deviations[jj])} for principal "
                                     f"{g.principal_ids[jj]} is owned by principal "
                                     f"{g.principal_ids[mech.owner]}")
        deviations[jj].append(mech)
    t0 = time.perf_counter()
    verdict = check_equilibrium_notion(g, mechs, strategies, deviations,
                                       args.notion, tol=args.membership_tol)
    payload = {
        "game_hash": game_hash(g),
        "notion": verdict.notion,
        "ok": verdict.ok,
        "pure_strategy_only": verdict.pure_strategy_only,
        "equilibrium_payoffs": verdict.equilibrium_payoffs,
        "checks": verdict.checks,
        "infeasible": [list(t) for t in verdict.infeasible],
        "on_path": {
            "ok": verdict.on_path.ok,
            "worst_gain": float(verdict.on_path.worst_gain),
            "witness": list(verdict.on_path.witness) if verdict.on_path.witness else None,
        },
        "runtime_ms": _ms_since(t0),
    }
    path = _write_report(args, payload)
    print(f"check-eq: {verdict.notion} {'holds' if verdict.ok else 'fails'} "
          f"({len(verdict.checks)} deviation checks, "
          f"{len(verdict.infeasible)} infeasible) -> {path}")
    return EXIT_OK if verdict.ok else EXIT_FALSE


def _cmd_simulate(args):
    g = load_game(args.game)
    if args.profile:
        dms = _load_profile(g, args.profile)
        mechs = [standard_from_direct(g, dm) for dm in dms]
        strategies = truthful_strategies(g, mechs)
    else:
        if not args.mechanism or not args.strategies:
            raise GameFormatError(
                "--mechanism/--strategies",
                "simulate needs either --profile or --mechanism files plus --strategies")
        mechs = _load_mechanisms(g, args.mechanism)
        strategies = load_strategies(g, mechs, args.strategies)
    t0 = time.perf_counter()
    result = simulate(g, mechs, strategies, seed=args.seed, rounds=args.rounds)
    payload = {"game_hash": game_hash(g), **result, "runtime_ms": _ms_since(t0)}
    path = _write_report(args, payload)
    means = ", ".join(f"{d['id']}={d['mean']:.4f}" for d in result["principals"])
    print(f"simulate: {args.rounds} rounds, principal means {means} -> {path}")
    return EXIT_OK


def _cmd_search_gap(args):
    family = GapFamily(num_principals=args.principals, num_agents=args.agents,
                       num_actions=args.actions)
    t0 = time.perf_counter()
    res = search_minmax_maxmin_gap(family, budget=args.budget, step=args.step,
                                   seed=args.seed, principal=args.j - 1)
    g = res.game
    payload = {
        "game_hash": game_hash(g),
        "found": res.found,
        "certified_gap": float(res.certified_gap),
        "candidate_index": int(res.candidate_index),
        "evaluated": int(res.evaluated),
        "principal": g.principal_ids[res.principal],
        "maxmin": {
            "kind": res.maxmin_cert.kind,
            "value": float(res.maxmin_cert.value),
            "witness": witness_to_jsonable(g, res.maxmin_cert.witness),
        },
        "minmax_lower": {
            "kind": res.minmax_cert.kind,
            "value": float(res.minmax_cert.value),
            "gap_bound": float(res.minmax_cert.gap_bound),
            "witness": witness_to_jsonable(g, res.minmax_cert.witness),
        },
        "game": game_to_dict(g),
        "seed": int(res.seed),
        "runtime_ms": _ms_since(t0),
    }
    if args.out_game:
        save_game(g, args.out_game)
        payload["game_file"] = str(args.out_game)
    path = _write_report(args, payload)
    print(f"search-gap: best candidate {res.candidate_index} certified gap "
          f"{res.certified_gap:+.6f} -> {path}")
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _add_common(sp, game=True, principal=False, seeded=True):
    if game:
        sp.add_argument("--game", required=True, help="game JSON file")
    if principal:
        sp.add_argument("--principal", "-j", required=True,
                        help="principal label or 1-based index")
    sp.set_defaults(**CONFIG_DEFAULTS)
    if seeded:
        sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="report path (default: timestamped under ./reports)")
    sp.add_argument("--membership-tol", type=float, dest="membership_tol")
    sp.add_argument("--value-tol", type=float, dest="value_tol")


def _add_solver_flags(sp, modes):
    sp.add_argument("--mode", choices=modes)
    # maxmin has no grid and no alternating mode, so it takes no flag it never reads
    if "alternating" in modes:
        sp.add_argument("--restarts", "-R", type=int)
    if "grid" in modes:
        sp.add_argument("--step", type=float, help="grid step delta")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommand parser; built once per process and shared by every
    ``main`` call, so callers must not modify it."""
    ap = argparse.ArgumentParser(
        prog="mechpoly",
        description="Competing-mechanism games: BIC polytopes, value bounds, "
                    "equilibrium checks.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate", help="validate a game file")
    _add_common(sp, seeded=False)
    sp.set_defaults(handler=_cmd_validate)

    sp = sub.add_parser("bic-check", help="incentive compatibility of a mechanism or profile")
    _add_common(sp, seeded=False)
    sp.add_argument("--mechanism", help="single direct-mechanism JSON")
    sp.add_argument("--profile", help="profile JSON (list of mechanisms)")
    sp.set_defaults(handler=_cmd_bic_check)

    sp = sub.add_parser("vertices", help="enumerate BIC polytope vertices")
    _add_common(sp, principal=True, seeded=False)
    sp.add_argument("--dim-cap", type=int, dest="dim_cap")
    sp.add_argument("--hrep", help="also write the halfspace representation here")
    sp.set_defaults(handler=_cmd_vertices)

    sp = sub.add_parser("best-response", help="LP best response to a fixed profile")
    _add_common(sp, principal=True)
    sp.add_argument("--profile", required=True, help="opponents' profile JSON")
    sp.set_defaults(handler=_cmd_best_response)

    sp = sub.add_parser("minmax", help="minmax value with certificate")
    _add_common(sp, principal=True)
    _add_solver_flags(sp, ["auto", "exact2", "grid", "alternating"])
    sp.set_defaults(handler=_cmd_value)

    sp = sub.add_parser("maxmin", help="maxmin value with certificate")
    _add_common(sp, principal=True)
    _add_solver_flags(sp, ["auto", "exact"])
    sp.add_argument("--dim-cap", type=int, dest="dim_cap")
    sp.set_defaults(handler=_cmd_value)

    sp = sub.add_parser("punish", help="punishment profile and its best-response value")
    _add_common(sp, principal=True)
    _add_solver_flags(sp, ["auto", "exact2", "grid", "alternating"])
    sp.set_defaults(handler=_cmd_punish)

    sp = sub.add_parser("membership", help="payoff-floor membership of a profile")
    _add_common(sp)
    sp.add_argument("--profile", required=True, help="candidate profile JSON")
    _add_solver_flags(sp, ["auto", "exact2", "grid", "alternating"])
    sp.set_defaults(handler=_cmd_membership)

    sp = sub.add_parser("build-drm", help="build a deviator-reporting mechanism")
    _add_common(sp, principal=True)
    sp.add_argument("--default", required=True, help="on-path table JSON")
    sp.add_argument("--punish", action="append", metavar="PRINCIPAL=PATH",
                    help="explicit punishment table (repeatable); "
                         "missing ones are computed from minmax witnesses")
    sp.add_argument("--out-mechanism", required=True, dest="out_mechanism")
    _add_solver_flags(sp, ["auto", "exact2", "grid", "alternating"])
    sp.set_defaults(handler=_cmd_build_drm)

    sp = sub.add_parser("check-eq", help="check an equilibrium notion")
    _add_common(sp, seeded=False)
    sp.add_argument("--mechanism", action="append", required=True,
                    help="general mechanism JSON, one per principal (repeatable)")
    sp.add_argument("--strategies", required=True)
    sp.add_argument("--deviation", action="append", metavar="PRINCIPAL=PATH",
                    help="deviation mechanism (repeatable)")
    sp.add_argument("--notion", choices=["pbe", "robust", "strongly-robust"],
                    required=True)
    sp.set_defaults(handler=_cmd_check_eq)

    sp = sub.add_parser("simulate", help="Monte Carlo play of a profile")
    _add_common(sp)
    sp.add_argument("--profile", help="direct-mechanism profile JSON")
    sp.add_argument("--mechanism", action="append",
                    help="general mechanism JSON (repeatable, with --strategies)")
    sp.add_argument("--strategies")
    sp.add_argument("--rounds", type=int, default=100_000)
    sp.set_defaults(handler=_cmd_simulate)

    sp = sub.add_parser("search-gap", help="search for a minmax/maxmin separation")
    _add_common(sp, game=False)
    sp.add_argument("--principals", type=int, default=3)
    sp.add_argument("--agents", type=int, default=3)
    sp.add_argument("--actions", type=int, default=2)
    sp.add_argument("--budget", type=int, default=500)
    sp.add_argument("-j", type=int, default=1, help="1-based target principal")
    sp.add_argument("--out-game", dest="out_game", help="save the best instance here")
    sp.add_argument("--step", type=float)
    sp.set_defaults(handler=_cmd_search_gap)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_config(args)
        return args.handler(args)
    except (ValueError, OSError) as exc:   # bad input, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
