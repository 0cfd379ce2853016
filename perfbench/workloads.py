"""The benchmark's workloads: seeded inputs, fixed job lists and output checks.

A workload is built by ``build(name, al, seed, workdir)`` from a freshly
imported ``anarchy_lab`` package ``al``. It writes its instance files into
``workdir`` and returns the jobs that read them back through the CLI. Each
job is one or more ``anarchy_lab.cli.main(argv)`` calls; the harness times
them and then hands the captured outputs to the job's ``check``, which
returns ``None`` or a message saying what is wrong. ``check_round`` runs the
checks that compare jobs with each other.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

WORKLOADS = ("bounds_sweep", "small_games", "lll_sweep")
DEFAULT_SEED = 1
TOL = 1e-9  # the acceptance criteria's closed-form tolerance

# bounds_sweep: one `bounds` call per k. The optimum scan costs
# 3^(n-1)*2 profiles per label mix, so each step up in n triples a round.
# These sizes keep a round near two seconds, so that a 40 s run averages
# over twenty rounds: on a shared 2-CPU virtual machine single jobs vary by
# a quarter between rounds.
KBLIND_N = 9
MCBLIND_N = 10
EPS_GRID = (0.001, 0.002, 0.005, 0.01, 0.02)
DELTA_GRID = (0.001, 0.002, 0.005, 0.01)

# small_games: one separable game per agent count n = 3..6 and label mix
# (k compromised agents, b of them blind and k - b isolated), which is
# n(n+1)/2 games per n. Game shapes come from a fixed pool so that every
# seed does the same validator work (check_submodular's cost grows with the
# square of the distinct contexts, so shapes drawn per seed would make the
# round's cost swing by a third between seeds). The seed draws the order of
# the labels over the compromised agents and the element weights of every
# coverage game. Pool shapes with more than MAX_SPACE joint profiles are
# skipped, so that a few large games do not make most of a round.
SEPARABLE_NS = (3, 4, 5, 6)
MAX_SPACE = 576
COVERAGE_GAMES = 12
POOL_SEED = 2020

# lll_sweep: sim(10, 9, 0.05) in three versions; the long low-temperature
# job echoes acceptance criterion 6, the log grid criterion 7.
SIM = (10, 9, 0.05)
LOW_T = 0.001
LOW_T_STEPS = 30_000
GRID_TEMPS = (0.01, 0.1, 1.0, 10.0)
GRID_STEPS = 10_000
TRIALS = 2
LOW_T_BANDS = {"blind": (1.03, 1.07), "isolated": (0.98, 1.02), "tab": (1.03, 1.07)}


@dataclass
class Job:
    """CLI calls run back to back (each must exit 0) and the files they write."""

    id: str
    calls: list
    files: list
    check: Callable[[dict], Optional[str]]
    meta: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_instance(al, game, path: str) -> None:
    """Serialize, write, read back and parse one instance file."""
    text = al.serialize(game)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(path, "r", encoding="utf-8") as fh:
        back = al.parse(fh.read())
    if back != game or al.serialize(back) != text:
        raise RuntimeError(f"{path}: instance file does not round-trip")


def class_bound(n: int, k: int, any_blind: bool, all_mc: bool) -> float:
    """The closed-form class guarantee for games without disabled agents,
    derived here independently of the package."""
    if all_mc and any_blind:
        return 1.0 / (1.0 + k)
    return max(1.0 / (2.0 + k), 1.0 / n)


def _label_mix_count(k: int) -> int:
    return 1 if k == 0 else (2 if k == 1 else 3)


# ---------------------------------------------------------------------------
# bounds_sweep


def _check_bounds(expected: float, n: int, k: int, all_mc: bool) -> Callable:
    def check(out: dict) -> Optional[str]:
        rows = json.loads(out["json"])
        if len(rows) != _label_mix_count(k):
            return f"{len(rows)} label mixes, expected {_label_mix_count(k)}"
        for row in rows:
            rep = row["report"]
            mix = ",".join(row["labels"]) or "-"
            if rep["ratio"] is None or abs(rep["ratio"] - expected) > TOL:
                return f"[{mix}] ratio {rep['ratio']!r}, closed form {expected!r}"
            bound = class_bound(n, k, "blind" in row["labels"], all_mc)
            if abs(rep["theoretical_bound"] - bound) > TOL:
                return f"[{mix}] class bound {rep['theoretical_bound']!r}, expected {bound!r}"
            if rep["ratio"] < bound - TOL or rep["bound_satisfied"] is not True:
                return f"[{mix}] ratio {rep['ratio']!r} below the class bound {bound!r}"
            if row["chains_hold"] is not True:
                return f"[{mix}] bound certificate does not hold"
        return None

    return check


def _bounds_sweep(al, seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    eps = rng.choice(EPS_GRID)
    delta = rng.choice(DELTA_GRID)
    jobs = []
    for family, n, ks in (
        ("k_blind", KBLIND_N, range(0, KBLIND_N)),
        ("mc_blind", MCBLIND_N, range(1, MCBLIND_N)),
    ):
        for k in ks:
            # the sweep generates its games itself; the files here check
            # that every member it analyses is a valid, round-tripping game
            if family == "k_blind":
                game = al.gen_k_blind(n, k, eps, delta)
                closed = 1.0 / (1.0 + (n - k - 1) * (1.0 / n - delta) + k * (1.0 - eps))
            else:
                game = al.gen_mc_blind(n, k, eps)
                closed = (1.0 + eps) / (k + 1.0 + eps)

            write_instance(al, game, os.path.join(workdir, f"{family}-{k}.json"))
            out = os.path.join(workdir, f"{family}-{k}.out.json")
            argv = ["bounds", "--family", family, "--n", str(n), "--k", str(k),
                    "--eps", _fmt(eps), "--delta", _fmt(delta), "--json", out]
            check = _check_bounds(closed, n, k, all_mc=family == "mc_blind")
            jobs.append(Job(f"{family}-k{k}", [argv], [out], check))
    return jobs


# ---------------------------------------------------------------------------
# small_games


def coverage_game(al, rng: random.Random, weights_rng: random.Random, n: int):
    """A random weighted-coverage welfare, tabulated over every resource
    subset, with marginal-contribution utilities: submodular, nondecreasing
    and normalized by construction, so the game is a valid utility game.

    ``rng`` draws the shape (coverage sets and action sets), ``weights_rng``
    the element weights. Every agent is uncompromised: enumerate_pne raises
    TypeError on tabulated games with a blind or isolated agent.
    """
    m = rng.randint(3, 5)
    elements = 6
    cover = [frozenset(rng.sample(range(elements), rng.randint(1, 3))) for _ in range(m)]
    weights = [round(weights_rng.uniform(0.01, 1.0), 2) for _ in range(elements)]
    table = {}
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            covered = frozenset().union(*(cover[r] for r in subset))
            table[frozenset(subset)] = sum(weights[e] for e in sorted(covered))
    action_sets = []
    for _ in range(n):
        want = rng.randint(1, 3)
        acts = set()
        while len(acts) < want:
            acts.add(frozenset(rng.sample(range(m), rng.choice((1, 1, 2)))))
        action_sets.append(tuple(acts))
    return al.GameInstance(
        welfare=al.TabulatedWelfare.from_mapping(table, m),
        action_sets=tuple(action_sets),
        utilities=(al.Utility.MARGINAL_CONTRIBUTION,) * n,
        compromise=(al.Compromise.NORMAL,) * n,
    )


def _check_small(bound: float) -> Callable:
    def check(out: dict) -> Optional[str]:
        rep = json.loads(out["json"])
        if rep["theoretical_bound"] is None or abs(rep["theoretical_bound"] - bound) > TOL:
            return f"class bound {rep['theoretical_bound']!r}, expected {bound!r}"
        if rep["ratio"] is None:
            if rep["bound_satisfied"] is not None:
                return "undefined ratio reported as checked"
            return None
        if rep["pne_count"] < 1:
            return "a ratio without any equilibrium"
        if rep["ratio"] < bound - TOL or rep["bound_satisfied"] is not True:
            return f"ratio {rep['ratio']!r} below the class bound {bound!r}"
        if rep["ratio"] > 1.0 + TOL:
            return f"ratio {rep['ratio']!r} above 1"
        return None

    return check


def _small_games(al, seed: int, workdir: str) -> list:
    U, C = al.Utility, al.Compromise
    designs = ((U.MARGINAL_CONTRIBUTION,), (U.EQUAL_SHARE,),
               (U.MARGINAL_CONTRIBUTION, U.EQUAL_SHARE))
    shapes = random.Random(POOL_SEED)
    rng = random.Random(seed)
    games = []
    for n in SEPARABLE_NS:
        mixes = [(k, b) for k in range(n) for b in range(k + 1)]
        for slot, (k, blind) in enumerate(mixes):
            labels = [C.BLIND] * blind + [C.ISOLATED] * (k - blind)
            rng.shuffle(labels)
            while True:
                game = al.gen_random_separable(
                    n, 4, 4, k=k, labels=labels, seed=shapes.getrandbits(32),
                    utility_choices=designs[slot % 3],
                )
                if al.joint_space_size(game) <= MAX_SPACE:
                    break
            games.append(game)
    for idx in range(COVERAGE_GAMES):
        games.append(coverage_game(al, shapes, rng, 3 + idx % 3))
    jobs = []
    for idx, game in enumerate(games):
        path = os.path.join(workdir, f"game-{idx:03d}.json")
        write_instance(al, game, path)
        out = os.path.join(workdir, f"game-{idx:03d}.poa.json")
        kind = "sep" if game.separable else "tab"
        bound = class_bound(
            game.n, len(game.compromised), bool(game.agents_with(C.BLIND)),
            all(u is U.MARGINAL_CONTRIBUTION for u in game.utilities))
        jobs.append(Job(
            f"{kind}-{idx:03d}-n{game.n}",
            [["check", "--instance", path], ["poa", "--instance", path, "--json", out]],
            [out],
            _check_small(bound),
        ))
    return jobs


# ---------------------------------------------------------------------------
# lll_sweep


def tabulated_twin(al, game):
    """The same game with its separable step welfare written out as a table:
    W(S) is the sum of the step values of the resources in S."""
    values = [curve[1] for curve in game.welfare.curves]
    m = len(values)
    table = {}
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            table[frozenset(subset)] = sum(values[r] for r in subset)
    return al.GameInstance(
        welfare=al.TabulatedWelfare.from_mapping(table, m),
        action_sets=game.action_sets,
        utilities=game.utilities,
        compromise=game.compromise,
    )


def _check_lll(al, temp: float, steps: int, master: int, band) -> Callable:
    def check(out: dict) -> Optional[str]:
        rows = list(csv.DictReader(io.StringIO(out["csv"])))
        if len(rows) != TRIALS:
            return f"{len(rows)} CSV rows, expected {TRIALS}"
        for tr, row in enumerate(rows):
            if float(row["temperature"]) != temp or int(row["trial"]) != tr:
                return f"row {tr}: temperature/trial {row['temperature']}/{row['trial']}"
            if int(row["steps"]) != steps:
                return f"row {tr}: {row['steps']} steps, expected {steps}"
            if int(row["seed"]) != al.sub_seed(master, 0, tr):
                return f"row {tr}: seed {row['seed']} is not the documented sub-seed"
        if band is not None:
            mean = sum(float(r["mean_welfare"]) for r in rows) / len(rows)
            if not band[0] <= mean <= band[1]:
                return f"low-temperature mean {mean!r} outside {band}"
        return None

    return check


def _lll_sweep(al, seed: int, workdir: str) -> list:
    n, k, eps = SIM
    blind = al.gen_sim_game(n, k, eps)
    versions = (
        ("blind", blind),
        ("isolated", al.gen_sim_game(n, k, eps, labels=[al.Compromise.ISOLATED] * k)),
        ("tab", tabulated_twin(al, blind)),
    )
    rng = random.Random(seed)
    temps = [(LOW_T, LOW_T_STEPS)] + [(t, GRID_STEPS) for t in GRID_TEMPS]
    masters = [rng.getrandbits(31) for _ in temps]
    jobs = []
    for name, game in versions:
        path = os.path.join(workdir, f"sim-{name}.json")
        write_instance(al, game, path)
        for (temp, steps), master in zip(temps, masters):
            out = os.path.join(workdir, f"sim-{name}-T{temp}.csv")
            argv = ["lll", "--instance", path, "--temps", _fmt(temp), "--steps", str(steps),
                    "--trials", str(TRIALS), "--seed", str(master), "--out", out]
            band = LOW_T_BANDS[name] if temp == LOW_T else None
            jobs.append(Job(f"{name}-T{temp}", [argv], [out],
                            _check_lll(al, temp, steps, master, band),
                            meta={"version": name, "temp": temp}))
    return jobs


def check_round(name: str, jobs: list, outputs: dict) -> list:
    """Checks across jobs: at the low temperature the tabulated sim twin must
    reproduce the separable blind game's CSV byte for byte. (At higher
    temperatures the two welfare forms round differently, the softmax
    weights differ in the last bits and the trajectories part.)"""
    failures = []
    if name == "lll_sweep":
        for job in jobs:
            if job.meta["version"] != "tab" or job.meta["temp"] != LOW_T:
                continue
            twin = f"blind-T{job.meta['temp']}"
            mine, theirs = outputs.get(job.id), outputs.get(twin)
            if mine is not None and theirs is not None and mine["csv"] != theirs["csv"]:
                failures.append((job.id, f"CSV differs from {twin}"))
    return failures


def build(name: str, al, seed: int, workdir: str) -> list:
    """Write the workload's instance files for ``seed`` and return its jobs."""
    make = {"bounds_sweep": _bounds_sweep, "small_games": _small_games,
            "lll_sweep": _lll_sweep}[name]
    return make(al, seed, workdir)

