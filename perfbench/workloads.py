"""The benchmark's four workloads.

Each workload generates the items of cycle n from the run's seed in
``build_cycle`` (one independent RNG stream per game, the n-th child of
``SeedSequence(seed)``, so no cycle's inputs depend on how many cycles are
built), runs one item in ``run`` (the unit of work a user waits for, and the
only timed part) and checks that item's outputs in ``check``.  ``finish``
holds the checks that span a whole run.  Every cycle follows the same shape
schedule; a run always completes whole cycles, and at least ``min_cycles``
of them, so every run sees the same mix of item shapes whatever its length.

Library calls go through the ``mp.`` and ``mechpoly.cli.`` attributes at
call time, so the traced run's wrappers see them.
"""

import contextlib
import io
import json
import os

import numpy as np

import mechpoly as mp
import mechpoly.cli


class CheckFailed(Exception):
    """An item's outputs broke a property the benchmark checks."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def game_arrays(g):
    """The arrays that define a game, for the input fingerprint."""
    return {"type_spaces": g.type_spaces, "action_spaces": g.action_spaces,
            "prior": g.prior, "agent_utils": g.agent_utils,
            "principal_utils": g.principal_utils}


class Item:
    """One unit of work: ``data`` is what ``run`` needs, ``inputs`` the raw
    generated arrays and file bytes behind it."""

    __slots__ = ("data", "inputs")

    def __init__(self, data, inputs):
        self.data = data
        self.inputs = inputs


def _stream(seed, n):
    """The n-th child stream of the seed, as ``SeedSequence(seed).spawn`` makes it."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,)))


class Values2:
    """Two-principal guarantee and punishment values, as in acceptance a04.

    An item is one (game, principal) pair: exact2 minmax, vertex-product
    maxmin and the best response to the punishment witness.  Every cycle
    holds the same a04 shapes; two of its 16 items enumerate a 12-variable
    polytope, which is where vertex enumeration dominates.  A run has at
    least 8 cycles, so at least 16 such items: ``item_tail_ms``, the
    11th-largest item time, always falls on one of them.
    """

    name = "values2"
    # (type sizes, action sizes) per game; two items per game
    SHAPES = (([1], [2, 2]), ([2], [2, 3]), ([2, 1], [3, 2]), ([2, 2], [3, 2]),
              ([2], [3, 3]), ([1, 2], [2, 2]), ([2, 2], [2, 3]), ([1], [3, 2]))
    min_cycles = 8
    trace_cycles = 8

    def build_cycle(self, seed, n, workdir):
        items = []
        for k, (types, actions) in enumerate(self.SHAPES):
            g = mp.random_game(_stream(seed, n * len(self.SHAPES) + k), num_principals=2,
                               num_agents=len(types), type_sizes=types, action_sizes=actions)
            items += [Item((g, j), game_arrays(g)) for j in range(2)]
        return items

    def run(self, data):
        g, j = data
        lo = mp.minmax(g, j, mode="exact2")
        hi = mp.maxmin(g, j, mode="exact")
        br, _ = mp.best_response(g, j, lo.witness)
        return lo, hi, br

    def check(self, data, out):
        g, j = data
        lo, hi, br = out
        require(abs(lo.value - hi.value) <= 1e-6,
                f"minmax {lo.value} != maxmin {hi.value}")
        require(abs(br - lo.value) <= 1e-6,
                f"best response {br} to the punishment != minmax {lo.value}")
        require(mp.is_individually_bic(g, hi.witness, tol=1e-9).ok,
                "maxmin witness not individually BIC")
        require(mp.is_individually_bic(g, lo.witness[1 - j], tol=1e-9).ok,
                "punishment witness not individually BIC")

    def finish(self):
        return []


class Gap3:
    """Three-principal certified gap search, as in acceptance a05.

    An item is one ``GapFamily()`` candidate: vertex-product maxmin, then the
    grid-certified minmax at step 0.01.  These polytopes have no IC rows, so
    vertex enumeration is cheap and the grid sweep dominates.
    """

    name = "gap3"
    min_cycles = 11      # one candidate per cycle; the tail needs 11 items
    trace_cycles = 1500

    def __init__(self):
        self.best_gap = -np.inf
        self.family = mp.GapFamily()

    def build_cycle(self, seed, n, workdir):
        g = self.family.candidate(n, _stream(seed, n))
        return [Item(g, game_arrays(g))]

    def run(self, g):
        mm = mp.maxmin(g, 0, mode="exact")
        lo = mp.minmax(g, 0, mode="grid", step=0.01)
        return mm, lo

    def check(self, g, out):
        mm, lo = out
        upper = lo.info["witness_value"]
        require(upper is not None, "grid minmax found no feasible witness")
        require(mm.value <= upper + 1e-9, f"maxmin {mm.value} above witness value {upper}")
        require(lo.value <= upper + 1e-9, f"grid bound {lo.value} above witness value {upper}")
        self.best_gap = max(self.best_gap, lo.value - mm.value)

    def finish(self):
        if self.best_gap > 0.01:
            return []
        return [f"best certified gap {self.best_gap} is not above 0.01"]


def _message_outcome(rng, g, j):
    """Random outcome table of a free-form deviation with two messages each."""
    n_a = len(g.action_spaces[j])
    shape = (2,) + (2,) * g.num_agents + (n_a,)
    return rng.dirichlet(np.ones(n_a), size=int(np.prod(shape[:-1]))).reshape(shape)


def _message_mechanism(g, j, outcome):
    return mp.GeneralMechanism(
        owner=j, principal_messages=("d0", "d1"),
        agent_messages=tuple(("s0", "s1") for _ in range(g.num_agents)), outcome=outcome)


class FloorSupport:
    """Floor members supported by deviator-reporting mechanisms, as in
    acceptance a07, plus Monte Carlo play of the supported profile.

    An item is one game with two principals and three agents.  Games whose
    agents are payoff-indifferent get free-form message deviations; the
    others get menu deviations, where truthful reporting always supplies a
    pure continuation.  Each principal faces five random deviations plus the
    menu of all its polytope's vertices.  The second shape is the costliest;
    a run has at least 16 cycles, so ``item_tail_ms`` falls on that shape.
    """

    name = "floor_support"
    # (deviation flavor, type sizes, action sizes) per game.  Message games
    # keep singleton types: with a two-type agent one such game takes
    # 1.4-3.4 s, and a run's throughput would hang on a handful of them.
    SHAPES = (("message", [1, 1, 1], [2, 2]), ("menu", [2, 1, 1], [2, 2]),
              ("message", [1, 1, 1], [2, 3]), ("menu", [1, 1, 1], [2, 3]),
              ("menu", [2, 1, 1], [2, 3]), ("menu", [1, 1, 1], [2, 2]))
    min_cycles = 16
    trace_cycles = 20
    ROUNDS = 20_000

    def build_cycle(self, seed, n, workdir):
        items = []
        for k, (flavor, types, actions) in enumerate(self.SHAPES):
            rng = _stream(seed, n * len(self.SHAPES) + k)
            g = mp.random_game(rng, num_principals=2, num_agents=3, type_sizes=types,
                               action_sizes=actions,
                               zero_agent_payoffs=(flavor == "message"))
            sample_seeds = [int(s) for s in rng.integers(1 << 30, size=2)]
            if flavor == "message":
                devs = [[_message_outcome(rng, g, j) for _ in range(5)] for j in range(2)]
            else:
                devs = [[[int(s) for s in rng.integers(1 << 30, size=2)] for _ in range(5)]
                        for j in range(2)]
            sim_seed = int(rng.integers(1 << 30))
            inputs = {"game": game_arrays(g), "flavor": flavor, "sample_seeds": sample_seeds,
                      "deviations": devs, "sim_seed": sim_seed}
            if flavor == "message":
                devs = [[_message_mechanism(g, j, o) for o in devs[j]] for j in range(2)]
            items.append(Item((g, flavor, sample_seeds, devs, sim_seed), inputs))
        return items

    def run(self, data):
        g, flavor, sample_seeds, devs, sim_seed = data
        certs = [mp.minmax(g, j, mode="exact2") for j in range(2)]
        polys = [mp.build_bic_polytope(g, j) for j in range(2)]
        guarantors = [mp.maxmin(g, j, mode="exact").witness for j in range(2)]
        uniform = [mp.DirectMechanism(owner=j, p=np.full(
            (g.num_profiles, len(g.action_spaces[j])), 1.0 / len(g.action_spaces[j])))
            for j in range(2)]
        sampled = [mp.sample_bic(g, j, seed=sample_seeds[j], poly=polys[j]) for j in range(2)]
        members = []
        for prof in (guarantors, uniform, sampled):
            pays = [mp.expected_principal_payoff(g, j, prof) for j in range(2)]
            if all(pays[j] >= certs[j].value - 1e-8 for j in range(2)):
                members.append((prof, pays))
        # every member is confirmed; the first (the guarantee pair, always a
        # member) is supported, so each item does the same work for its shape
        verdicts = [mp.robust_pbe_membership(g, prof, certs).verdict for prof, _ in members]
        prof, pays = members[0]
        drms = [mp.build_deviator_reporting(
            g, k, mp.DirectMechanism(owner=k, p=prof[k].p),
            {1 - k: certs[1 - k].witness[k]}) for k in range(2)]
        strat = mp.deviator_truthful_strategies(g, drms)
        notions = []
        for j in range(2):
            if flavor == "message":
                menu = list(devs[j])
            else:
                menu = [mp.build_type_and_dm_mechanism(
                    g, j, [mp.sample_bic(g, j, seed=s, poly=polys[j]) for s in seeds])
                    for seeds in devs[j]]
            menu.append(mp.build_type_and_dm_mechanism(g, j, mp.enumerate_vertices(g, j)))
            notions.append(mp.check_equilibrium_notion(
                g, drms, strat, {j: menu}, notion="robust", tol=1e-6))
        sim = mp.simulate(g, drms, strat, seed=sim_seed, rounds=self.ROUNDS)
        return verdicts, notions, pays, sim

    def check(self, data, out):
        verdicts, notions, pays, sim = out
        require(set(verdicts) == {"member"}, f"membership verdicts {verdicts}")
        for v in notions:
            require(v.on_path.ok, "on-path continuation check failed")
            require(v.ok, f"robust verdict failed: {v.checks}")
        for j, rec in enumerate(sim["principals"]):
            require(abs(rec["mean"] - pays[j]) <= 5 * rec["stderr"] + 1e-12,
                    f"simulated mean {rec['mean']} vs {pays[j]} (stderr {rec['stderr']})")

    def finish(self):
        return []


class CliSession:
    """The command line on game files, one in-process ``cli.main`` call per
    item, each writing its report with ``--out``.

    Each cycle writes game, profile, mechanism, deviation and strategy files
    for three sessions: matching pennies, the screening game and one seeded
    random game with three agents.  Cycles are built on demand, so a run
    never replays a session's files.  The library's answer to each call,
    against which the exit code and report values are checked, is computed
    in ``check``, once per call, outside the timed part.  A run has at least
    4 cycles, so ``item_tail_ms`` falls among the 12 or more ``simulate``
    and ``check-eq`` calls on three-agent games.
    """

    name = "cli_session"
    min_cycles = 4
    trace_cycles = 30
    ROUNDS = 20_000
    MEMBERSHIP_TOL = 1e-6

    def build_cycle(self, seed, n, workdir):
        rng = _stream(seed, n)
        random = mp.random_game(rng, num_principals=2, num_agents=3,
                                type_sizes=[2, 1, 1], action_sizes=[2, 2])
        games = (("pennies", mp.matching_pennies_game(), "message"),
                 ("screening", mp.screening_game(), "menu"),
                 ("random", random, "menu"))
        items = []
        for label, g, flavor in games:
            items += self._session(os.path.join(workdir, f"c{n}-{label}"), g, flavor, rng,
                                   workdir)
        return items

    def _session(self, d, g, flavor, rng, workdir):
        """Write one game's files; return one Item per CLI call."""
        os.makedirs(d)
        files = {name: os.path.join(d, f"{name}.json") for name in (
            "game", "profile", "default1", "default2", "mech1", "mech2",
            "strategies", "dev1", "dev2")}
        mp.save_game(g, files["game"])
        certs = [mp.minmax(g, j) for j in range(2)]
        maxmins = [mp.maxmin(g, j) for j in range(2)]
        prof = [c.witness for c in maxmins]
        _write_json(files["profile"], mp.profile_to_list(g, prof))
        for k in range(2):
            _write_json(files[f"default{k + 1}"], mp.mechanism_to_dict(g, prof[k]))
        drm = g.num_agents >= 3
        if drm:
            mechs = [mp.build_deviator_reporting(g, k, prof[k], {1 - k: certs[1 - k].witness[k]})
                     for k in range(2)]
            strat = mp.deviator_truthful_strategies(g, mechs)
        else:
            mechs = [mp.standard_from_direct(g, dm) for dm in prof]
            strat = mp.truthful_strategies(g, mechs)
        for k in range(2):
            mp.save_general_mechanism(g, mechs[k], files[f"mech{k + 1}"])
        mp.save_strategies(g, mechs, strat, files["strategies"])
        devs = {}
        for j in range(2):
            if len(g.action_spaces[j]) < 2:
                continue
            if flavor == "message":
                dev = _message_mechanism(g, j, _message_outcome(rng, g, j))
            else:
                entries = [mp.sample_bic(g, j, seed=int(s)) for s in rng.integers(1 << 30, size=2)]
                dev = mp.build_type_and_dm_mechanism(g, j, entries)
            mp.save_general_mechanism(g, dev, files[f"dev{j + 1}"])
            devs[j] = [dev]
        sim_seed = int(rng.integers(1 << 30))

        # (argv, library answer); an answer is (expected exit code, {report
        # key path: library value}), computed only when the call is checked.
        # The first call solves an LP, so the warm-up item fills scipy's
        # lazy imports.
        def punish(j):
            br, _ = mp.best_response(g, j, certs[j].witness)
            return 0, {("value",): br, ("minmax_value",): certs[j].value}

        def membership():
            member = mp.robust_pbe_membership(g, prof, certs)
            return 0 if member.ok else 1, {
                ("verdict",): member.verdict,
                **{("per_principal", j, "payoff"): member.per_principal[j]["payoff"]
                   for j in range(2)}}

        def check_eq():
            notion = mp.check_equilibrium_notion(g, mechs, strat, devs, notion="robust",
                                                 tol=self.MEMBERSHIP_TOL)
            return 0 if notion.ok else 1, {("equilibrium_payoffs", j): notion.equilibrium_payoffs[j]
                                           for j in range(2)}

        def simulate():
            sim = mp.simulate(g, mechs, strat, seed=sim_seed, rounds=self.ROUNDS)
            return 0, {("principals", j, "mean"): sim["principals"][j]["mean"] for j in range(2)}

        calls = []
        for j in range(2):
            p = ["-j", str(j + 1)]
            calls += [
                (["minmax", *p], lambda j=j: (0, {("value",): certs[j].value})),
                (["maxmin", *p], lambda j=j: (0, {("value",): maxmins[j].value})),
                (["punish", *p], lambda j=j: punish(j)),
                (["vertices", *p],
                 lambda j=j: (0, {("count",): len(mp.enumerate_vertices(g, j))})),
            ]
        calls += [(["validate"], lambda: (0, {("ok",): True})),
                  (["bic-check", "--profile", files["profile"]],
                   lambda: (0 if mp.is_profile_bic(g, prof).ok else 1, {})),
                  (["membership", "--profile", files["profile"]], membership)]
        if drm:
            for k in range(2):
                calls.append((["build-drm", "-j", str(k + 1), "--default",
                               files[f"default{k + 1}"], "--out-mechanism",
                               os.path.join(d, f"built{k + 1}.json")],
                              lambda k=k: (0, {("computed_punishment_values",
                                                g.principal_ids[1 - k]): certs[1 - k].value})))
        mech_args = ["--mechanism", files["mech1"], "--mechanism", files["mech2"],
                     "--strategies", files["strategies"]]
        calls.append((["check-eq", *mech_args, "--notion", "robust",
                       "--membership-tol", str(self.MEMBERSHIP_TOL),
                       *[a for j in devs for a in ("--deviation", f"P{j + 1}={files[f'dev{j + 1}']}")]],
                      check_eq))
        calls.append((["simulate", *mech_args, "--rounds", str(self.ROUNDS),
                       "--seed", str(sim_seed)], simulate))

        file_bytes = {}
        for path in sorted(os.listdir(d)):
            with open(os.path.join(d, path), "rb") as fh:
                file_bytes[path] = fh.read()
        items = []
        for n, (argv, answer) in enumerate(calls):
            out = os.path.join(d, f"report-{n:02d}-{argv[0]}.json")
            argv = [argv[0], "--game", files["game"], *argv[1:], "--out", out]
            inputs = {"argv": [a.replace(workdir, "") for a in argv], "files": file_bytes}
            items.append(Item((argv, out, answer), inputs))
        return items

    def run(self, data):
        argv, out, answer = data
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return mechpoly.cli.main(argv)

    def check(self, data, exit_code):
        argv, out, answer = data
        code, expect = answer()
        require(exit_code == code, f"{argv[0]}: exit code {exit_code}, library says {code}")
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(out)   # so that a repeated call cannot pass on a stale report
        for path, want in expect.items():
            got = report
            for key in path:
                got = got[key]
            if isinstance(want, float):
                require(abs(got - want) <= 1e-9, f"{argv[0]} {path}: {got} != {want}")
            else:
                require(got == want, f"{argv[0]} {path}: {got!r} != {want!r}")

    def finish(self):
        return []


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


WORKLOADS = {w.name: w for w in (Values2, Gap3, FloorSupport, CliSession)}
