"""Submodularity / validity checkers: they are the oracles, so they get
their own planted-violation cases."""

import dataclasses
import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anarchy_lab as al
import anarchy_lab.game as game_module
from anarchy_lab import Compromise, Utility
from test_equilibrium import (
    coverage_game, holed_table_game, small_separable_games, small_tabulated_games,
    table_by_set,
)


def tabulated_game(table, num_resources, action_sets, labels=None):
    n = len(action_sets)
    return al.GameInstance(
        welfare=al.TabulatedWelfare.from_mapping(table, num_resources),
        action_sets=tuple(tuple(frozenset(a) for a in acts) for acts in action_sets),
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * n,
        compromise=tuple(labels) if labels else (Compromise.NORMAL,) * n,
    )


def full_table(num_resources, value_fn):
    table = {}
    for size in range(num_resources + 1):
        for combo in itertools.combinations(range(num_resources), size):
            table[frozenset(combo)] = value_fn(frozenset(combo))
    return table


def direct_scan_submodular(game):
    """Independent oracle for check_submodular: every ordered pair of
    distinct contexts, each dominance test made afresh by comparing the
    contexts entry by entry, the margins recomputed for every action; a
    table is read directly, by base set."""
    eng = game._engine
    separable = game.separable
    table = None if separable else table_by_set(game.welfare)
    contexts = pairs = 0

    def value(ctx):
        if separable:
            return eng.value(ctx)
        if ctx not in table:
            raise al.ModelIncompleteError(f"no welfare table entry for base set {sorted(ctx)}")
        return table[ctx]

    def describe(ctx, separable):
        return {"counts": list(ctx)} if separable else {"base_set": sorted(ctx)}

    def report(kind, message, witness):
        failure = game_module.CheckFinding(kind, message, witness)
        return game_module.SubmodularityReport(False, failure, contexts, pairs)

    def compare(small, big):
        if separable:
            return all(b >= s for b, s in zip(big, small))
        return small <= big

    def join(ctx, act):
        if separable:
            return tuple(c + (r in act) for r, c in enumerate(ctx))
        return ctx | act

    def reachable(agents):
        # the contexts the agents form, joined agent by agent; refused once
        # the L contexts of the agents joined so far give (n + 1)·L·(L + A)
        # past 50,000,000, A the number of actions of all agents
        layer = {(0,) * game.num_resources if separable else frozenset()}
        actions = sum(len(acts) for acts in game.action_sets)
        for j in agents:
            layer = {join(ctx, act) for ctx in layer for act in game.action_sets[j]}
            if (game.n + 1) * len(layer) * (len(layer) + actions) > 50_000_000:
                raise al.SizeCapError(f"the submodularity scan of {game.n + 1} layers of "
                                      f"{len(layer)} or more contexts passes its cap")
        return sorted(layer, key=lambda k: (sum(k), k) if separable else (len(k), sorted(k)))

    keys = reachable(range(game.n))
    try:
        values = {k: value(k) for k in keys}
        contexts += len(keys)
        for ks in keys:
            for kb in keys:
                if ks == kb or not compare(ks, kb):
                    continue
                pairs += 1
                if values[ks] > values[kb] + al.TOLERANCE:
                    return report("monotonicity", "welfare decreases on a larger selection", {
                        "smaller": describe(ks, separable),
                        "larger": describe(kb, separable),
                        "smaller_value": values[ks],
                        "larger_value": values[kb],
                    })
        for i in range(game.n):
            ckeys = reachable(j for j in range(game.n) if j != i)
            contexts += len(ckeys)
            base_vals = {k: value(k) for k in ckeys}
            for act in game.action_sets[i]:
                if not act:
                    continue
                margins = {k: value(join(k, act)) - base_vals[k] for k in ckeys}
                for ks in ckeys:
                    for kb in ckeys:
                        if ks == kb or not compare(ks, kb):
                            continue
                        pairs += 1
                        if margins[ks] < margins[kb] - al.TOLERANCE:
                            return report(
                                "submodularity", "marginal value grows with a larger context", {
                                    "agent": i,
                                    "action": sorted(act),
                                    "smaller_context": describe(ks, separable),
                                    "larger_context": describe(kb, separable),
                                    "margin_at_smaller": margins[ks],
                                    "margin_at_larger": margins[kb],
                                })
    except al.ModelIncompleteError as exc:
        return report("table-missing", str(exc), None)
    return game_module.SubmodularityReport(True, None, contexts, pairs)


def direct_scan_vug(game, utility_fn=None):
    """Independent oracle for check_vug's scan: a plain loop over
    all_profiles, every W(a) and opt-out welfare valued by welfare_eval on
    the profile, every equal share by equal_share; the welfare report is
    the submodularity scan's."""
    game_module._require_cap(game)
    welfare_report = game_module._scan_submodular(game)
    cond2_ok = cond3_ok = cond3_tight = True
    failure = None
    profiles = 0
    for a in al.all_profiles(game):
        profiles += 1
        w = al.welfare_eval(game, a)
        total = 0.0
        for i in range(game.n):
            marginal = None
            if utility_fn is not None:
                u = utility_fn(game, i, a)
            elif game.utilities[i] is Utility.MARGINAL_CONTRIBUTION:
                u = marginal = w - al.welfare_eval(game, a[:i] + (al.EMPTY_ACTION,) + a[i + 1 :])
            else:
                u = al.equal_share(game, i, a)
            total += u
            if not cond2_ok:
                continue
            if marginal is None:
                marginal = w - al.welfare_eval(game, a[:i] + (al.EMPTY_ACTION,) + a[i + 1 :])
            if u < marginal - al.TOLERANCE:
                cond2_ok = False
                if failure is None:
                    failure = game_module.CheckFinding(
                        "utility-below-marginal",
                        f"agent {i}'s utility is below its marginal contribution",
                        {"agent": i, "profile": [sorted(x) for x in a], "utility": u,
                         "marginal": marginal},
                    )
        if total > w + al.TOLERANCE:
            cond3_ok = cond3_tight = False
            if failure is None:
                failure = game_module.CheckFinding(
                    "utility-sum-exceeds-welfare",
                    "utilities sum above the welfare",
                    {"profile": [sorted(x) for x in a], "utility_sum": total, "welfare": w},
                )
        elif abs(total - w) > al.TOLERANCE:
            cond3_tight = False
    if failure is None and not welfare_report.ok:
        failure = welfare_report.failure
    return game_module.VugReport(
        ok=welfare_report.ok and cond2_ok and cond3_ok,
        welfare=welfare_report,
        utility_dominates_marginal=cond2_ok,
        utility_sum_bounded=cond3_ok,
        utility_sum_tight=cond3_tight,
        failure=failure,
        profiles_checked=profiles,
    )


GRID = (0.0, 0.1, 0.2, 0.3, 0.7, 1.0)


def random_actions(rng, n, m):
    return tuple(
        tuple(
            frozenset(rng.sample(range(m), rng.randint(1, min(2, m))))
            for _ in range(rng.randint(1, 3))
        )
        for _ in range(n)
    )


def random_separable_game(rng):
    """Random separable game: each curve is concave with increments on a
    coarse grid, or its increments grow by up to 0.9 * TOLERANCE per step,
    which the constructor accepts but the welfare is then not submodular."""
    n, m = rng.randint(1, 5), rng.randint(1, 3)
    curves = []
    for _ in range(m):
        if rng.random() < 0.5:
            increments = sorted((rng.choice(GRID) for _ in range(n)), reverse=True)
        else:
            increments = [rng.choice(GRID)]
            for _ in range(n - 1):
                increments.append(increments[-1] + rng.uniform(0.0, 0.9) * al.TOLERANCE)
        curve = [0.0]
        for inc in increments:
            curve.append(curve[-1] + inc)
        curves.append(tuple(curve))
    return al.GameInstance(
        welfare=al.SeparableWelfare(curves=tuple(curves)),
        action_sets=random_actions(rng, n, m),
        utilities=tuple(rng.choice(list(Utility)) for _ in range(n)),
        compromise=tuple(rng.choice(list(Compromise)) for _ in range(n)),
    )


def random_tabulated_game(rng):
    """Random tabulated game over every resource subset: coverage
    (submodular), random values (mostly non-monotone) or a squared sum
    (supermodular); some tables lose one nonempty entry."""
    n, m = rng.randint(1, 4), rng.randint(1, 4)
    kind = rng.choice(("coverage", "random", "supermodular"))
    cover = [frozenset(rng.sample(range(5), rng.randint(1, 3))) for _ in range(m)]
    weights = [rng.choice(GRID) for _ in range(5)]
    table = {}
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            if kind == "coverage":
                covered = frozenset().union(*(cover[r] for r in subset))
                value = sum(weights[e] for e in sorted(covered))
            elif kind == "random":
                value = rng.choice(GRID) * size
            else:
                value = sum(weights[r] for r in subset) ** 2
            table[frozenset(subset)] = value
    if m > 1 and rng.random() < 0.3:
        del table[rng.choice([s for s in table if s])]
    return al.GameInstance(
        welfare=al.TabulatedWelfare.from_mapping(table, m),
        action_sets=random_actions(rng, n, m),
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * n,
        compromise=tuple(rng.choice(list(Compromise)) for _ in range(n)),
    )


def family_games():
    for n in range(2, 7):
        for k in range(n):
            yield al.gen_mc_blind(n, k, 0.01)
            yield al.gen_k_blind(n, k, 0.01, 0.01)
            yield al.gen_k_blind(n, k, 0.01, 0.01, labels=[Compromise.ISOLATED] * k)


def overflow_game():
    """Curves near the largest float: sums overflow to inf, so margins are
    inf and, where the base is inf too, NaN; for agent 0's action {0} the
    first context above the empty one has a NaN margin and a later one an
    infinite margin."""
    big = 1.7e308
    wide = (0.0, 0.6 * big, 0.9 * big, big)
    narrow = (0.0, 0.3 * big, 0.5 * big, 0.6 * big)
    return al.GameInstance(
        welfare=al.SeparableWelfare(curves=(wide, narrow, wide)),
        action_sets=(({0, 1}, {1, 2}, {0}), ({0, 1},), ({0, 2},)),
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * 3,
        compromise=(Compromise.NORMAL,) * 3,
    )


def scan_vug(game, utility_fn=None):
    """check_vug's scan, on top of the submodularity scan."""
    game_module._require_cap(game)
    return game_module._scan_vug(game, utility_fn, game_module._scan_submodular(game))


def settled(report):
    """What the certificate settles of a check_vug report."""
    return (report.ok, report.utility_dominates_marginal, report.utility_sum_bounded,
            report.utility_sum_tight, report.failure)


def check_outcome(check, game):
    try:
        return check(game)
    except (al.ModelIncompleteError, al.SizeCapError) as exc:
        return type(exc), str(exc)


class TestCheckSubmodularMatchesTheDirectScan:
    def test_random_separable_games(self):
        kinds = set()
        for seed in range(300):
            game = random_separable_game(random.Random(seed))
            report = game_module._scan_submodular(game)
            assert report == direct_scan_submodular(game), seed
            kinds.add(report.failure.kind if report.failure else "ok")
        assert kinds == {"ok", "submodularity"}

    def test_random_tabulated_games(self):
        kinds = set()
        for seed in range(300):
            game = random_tabulated_game(random.Random(seed))
            report = check_outcome(game_module._scan_submodular, game)
            assert report == check_outcome(direct_scan_submodular, game), seed
            kinds.add(report.failure.kind if report.failure else "ok")
        assert kinds == {"ok", "monotonicity", "submodularity", "table-missing"}

    def test_families(self):
        for game in family_games():
            assert game_module._scan_submodular(game) == direct_scan_submodular(game)

    def test_overflowing_welfare(self):
        # the certificate settles nothing past its rounding allowance
        game = overflow_game()
        report = al.check_submodular(game)
        assert report == direct_scan_submodular(game)
        assert report.path == "scan"
        assert report.failure.witness["agent"] == 0
        assert report.failure.witness["margin_at_larger"] == float("inf")

    def test_increments_growing_within_the_constructor_slack(self):
        # each increment exceeds the one before by 0.9e-9, under the
        # constructor's 1e-9 slack, so the curve is accepted; over two steps
        # the margin grows by 1.8e-9, which the scan must report
        curve = [0.0]
        for inc in (1.0, 1.0 + 0.9e-9, 1.0 + 1.8e-9):
            curve.append(curve[-1] + inc)
        game = al.GameInstance(
            welfare=al.SeparableWelfare(curves=(tuple(curve),)),
            action_sets=(({0},),) * 3,
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 3,
            compromise=(Compromise.NORMAL,) * 3,
        )
        # the certificate proves no such growth away, so the scan runs
        report = al.check_submodular(game)
        assert report == direct_scan_submodular(game)
        assert report.path == "scan"
        assert report.failure.kind == "submodularity"
        assert report.failure.witness == {
            "agent": 0,
            "action": [0],
            "smaller_context": {"counts": [0]},
            "larger_context": {"counts": [2]},
            "margin_at_smaller": 1.0,
            "margin_at_larger": 1.0000000018000001,
        }
        assert (report.contexts_checked, report.pairs_checked) == (7, 8)

    @given(
        seed=st.integers(0, 2**32 - 1),
        generator=st.sampled_from((random_separable_game, random_tabulated_game)),
    )
    @settings(max_examples=200, deadline=None)
    def test_property(self, seed, generator):
        game = generator(random.Random(seed))
        assert check_outcome(game_module._scan_submodular, game) == check_outcome(
            direct_scan_submodular, game
        )


class TestCheckSubmodular:
    def test_separable_valid_curves_pass(self):
        for seed in range(8):
            game = al.gen_random_separable(n=3, max_resources=3, max_actions=3, seed=seed)
            assert al.check_submodular(game).ok

    def test_planted_supermodular_table_flagged(self):
        # complementarities: the pair is worth more than its parts combined
        table = {
            frozenset(): 0.0,
            frozenset({0}): 1.0,
            frozenset({1}): 1.0,
            frozenset({0, 1}): 3.0,
        }
        game = tabulated_game(table, 2, [[{0}], [{1}]])
        report = al.check_submodular(game)
        assert not report.ok
        assert report.failure.kind == "submodularity"
        assert report.failure.witness is not None

    def test_non_monotone_table_flagged(self):
        table = {
            frozenset(): 0.0,
            frozenset({0}): 2.0,
            frozenset({1}): 1.0,
            frozenset({0, 1}): 1.5,
        }
        game = tabulated_game(table, 2, [[{0}], [{1}]])
        report = al.check_submodular(game)
        assert not report.ok
        assert report.failure.kind == "monotonicity"

    def test_unnormalized_table_rejected_at_construction(self):
        with pytest.raises(al.ValidationError, match="normalized"):
            tabulated_game({frozenset(): 0.5, frozenset({0}): 1.0}, 1, [[{0}]])

    def test_shared_resource_family_passes(self):
        assert al.check_submodular(al.gen_mc_blind(6, 3, 0.01)).ok

    def test_coverage_style_table_passes(self):
        # coverage functions are submodular
        weights = {0: 2.0, 1: 1.0, 2: 0.5}
        table = full_table(3, lambda s: sum(weights[r] for r in s))
        game = tabulated_game(table, 3, [[{0}, {0, 1}], [{1}, {2}], [{0, 2}]])
        assert al.check_submodular(game).ok

    def test_size_cap_refusal(self):
        # the pair scan visits contexts, not profiles: it answers on a table
        # of 3^12 = 531,441 profiles, and only the utility walk, which
        # visits every profile, refuses
        weights = {0: 2.0, 1: 1.0, 2: 0.5}
        table = full_table(3, lambda s: sum(weights[r] for r in sorted(s)))
        game = tabulated_game(table, 3, [[{0}, {1, 2}]] * 12)
        assert al.joint_space_size(game) > game_module.DEFAULT_CHECK_CAP
        report = al.check_submodular(game)
        assert report == direct_scan_submodular(game)
        assert report.ok and report.path == "scan"
        with pytest.raises(al.SizeCapError, match="above the cap of 250000"):
            al.check_vug(game)
        # 40 agents with a private resource each, on curves that use the
        # constructor's slack, so the certificate settles nothing: the scan
        # refuses once the first 11 agents form 2^11 contexts, before the
        # next layer is built (41 · 2048 · (2048 + 80) > 50,000,000)
        curve = (0.0, 1.0, 2.0 + 0.9e-9) + (2.0 + 0.9e-9,) * 38
        game = al.GameInstance(
            welfare=al.SeparableWelfare(curves=(curve,) * 40),
            action_sets=tuple(({r},) for r in range(40)),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 40,
            compromise=(Compromise.NORMAL,) * 40,
        )
        refusal = (al.SizeCapError,
                   "the submodularity scan of 41 layers of 2048 or more contexts passes its cap")
        assert check_outcome(al.check_submodular, game) == refusal
        assert check_outcome(direct_scan_submodular, game) == refusal

    def test_many_agents_on_few_resources_are_refused_at_once(self, monkeypatch):
        # 1,000 agents on one resource form only 1,001 contexts, but the scan
        # would build and compare them for each agent, about 10^9 steps: the
        # pair scan refuses once 24 agents are joined, after 600 joins
        # (1001 · 25 · (25 + 2000) > 50,000,000), and check_vug refuses the
        # 2^1000 profiles before any scan
        curve = (0.0, 1.0, 2.0 + 0.9e-9) + (2.0 + 0.9e-9,) * 998
        game = al.GameInstance(
            welfare=al.SeparableWelfare(curves=(curve,)),
            action_sets=(({0},),) * 1000,
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 1000,
            compromise=(Compromise.NORMAL,) * 1000,
        )
        joins = []
        real = game_module._Engine.join

        def counting(eng, ctx, act):
            joins.append(1)
            return real(eng, ctx, act)

        monkeypatch.setattr(game_module._Engine, "join", counting)
        refusal = (al.SizeCapError,
                   "the submodularity scan of 1001 layers of 25 or more contexts passes its cap")
        assert check_outcome(al.check_submodular, game) == refusal
        assert len(joins) == 600
        assert check_outcome(direct_scan_submodular, game) == refusal
        joins.clear()
        with pytest.raises(al.SizeCapError, match=f"has {2**1000} profiles, above the cap"):
            al.check_vug(game)
        assert not joins

    def test_the_certificate_answers_past_the_scans_caps(self):
        # 3^12 * 2 = 1,062,882 profiles, past the walk's cap; 6,144 distinct
        # selections, past the pair scan's; the curves settle both
        for game in (al.gen_k_blind(13, 1, 0.01, 0.01), al.gen_sim_game(10, 9, 0.05)):
            with pytest.raises(al.SizeCapError):
                game_module._scan_submodular(game)
            report = al.check_vug(game)
            assert (report.path, report.welfare.path) == ("certificate", "certificate")
            assert report.ok and report.profiles_checked == 0
            assert (report.welfare.contexts_checked, report.welfare.pairs_checked) == (0, 0)

    def test_incomplete_table_reported(self):
        table = {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 1.0}
        game = tabulated_game(table, 2, [[{0}], [{1}]])
        report = al.check_submodular(game)
        assert not report.ok
        assert report.failure.kind == "table-missing"

    def test_table_without_an_empty_entry_reports_it_missing(self):
        # the constructor reads a missing W(∅) as 0, so it is the monotonicity
        # scan, where ∅ sorts first, that meets the hole
        table = {frozenset({0}): 1.0, frozenset({1}): 1.0, frozenset({0, 1}): 2.0}
        game = tabulated_game(table, 2, [[{0}], [{1}]])
        report = al.check_submodular(game)
        assert report == direct_scan_submodular(game)
        assert not report.ok
        assert report.failure.kind == "table-missing"
        assert report.failure.message == "no welfare table entry for base set []"
        assert report.contexts_checked == report.pairs_checked == 0


class TestCheckVug:
    def test_marginal_contribution_games_pass(self):
        for seed in range(6):
            game = al.gen_random_separable(
                n=3,
                max_resources=3,
                max_actions=3,
                seed=seed,
                utility_choices=(Utility.MARGINAL_CONTRIBUTION,),
            )
            report = al.check_vug(game)
            assert report.ok
            assert report.utility_dominates_marginal
            assert report.utility_sum_bounded

    def test_equal_share_games_pass_with_tight_sum(self):
        for seed in range(6):
            game = al.gen_random_separable(
                n=3,
                max_resources=3,
                max_actions=3,
                seed=seed,
                utility_choices=(Utility.EQUAL_SHARE,),
            )
            report = al.check_vug(game)
            assert report.ok
            assert report.utility_sum_tight

    def test_planted_sum_violation_flagged(self):
        game = al.gen_k_blind(3, 0, 0.01, 0.01)
        doubled = lambda g, i, a: 2.0 * al.welfare_eval(g, a)
        report = al.check_vug(game, utility_fn=doubled)
        assert not report.utility_sum_bounded
        assert report.failure.kind == "utility-sum-exceeds-welfare"

    def test_planted_marginal_violation_flagged(self):
        game = al.gen_k_blind(3, 0, 0.01, 0.01)
        stingy = lambda g, i, a: 0.0
        report = al.check_vug(game, utility_fn=stingy)
        assert not report.utility_dominates_marginal
        assert report.failure.kind == "utility-below-marginal"

    def test_generator_outputs_pass(self):
        games = [
            al.gen_k_blind(5, 2, 0.01, 0.01),
            al.gen_k_blind(4, 3, 0.05, 0.02, labels=[Compromise.ISOLATED] * 3),
            al.gen_mc_blind(5, 2, 0.01),
            al.gen_mc_noblind(5, 2, 0.01),
            al.gen_sim_game(5, 4, 0.05),
            al.gen_fig1([1.0, 0.7, 0.3, 0.4, 2.0, 0.8]),
        ]
        for game in games:
            vug = al.check_vug(game)
            assert vug.ok, (game, vug.failure)

    def test_random_outputs_pass(self):
        for seed in range(20):
            game = al.gen_random_separable(
                n=3 + seed % 3,
                max_resources=4,
                max_actions=4,
                k=seed % 3,
                labels=[Compromise.BLIND, Compromise.ISOLATED][: seed % 3],
                seed=seed,
            )
            assert al.check_vug(game).ok


def reference_vug_conditions(game, utility_fn=None):
    """check_vug's per-profile conditions from the profile-level reference
    functions, every utility and marginal contribution evaluated afresh."""
    util = utility_fn if utility_fn is not None else al.designed_utility
    cond2_ok = cond3_ok = cond3_tight = True
    failure = None
    profiles = 0
    for a in al.all_profiles(game):
        profiles += 1
        w = al.welfare_eval(game, a)
        total = 0.0
        for i in range(game.n):
            u = util(game, i, a)
            total += u
            if cond2_ok and u < al.marginal_contribution(game, i, a) - al.TOLERANCE:
                cond2_ok = False
                if failure is None:
                    failure = game_module.CheckFinding(
                        "utility-below-marginal",
                        f"agent {i}'s utility is below its marginal contribution",
                        {
                            "agent": i,
                            "profile": [sorted(x) for x in a],
                            "utility": u,
                            "marginal": al.marginal_contribution(game, i, a),
                        },
                    )
        if total > w + al.TOLERANCE:
            cond3_ok = cond3_tight = False
            if failure is None:
                failure = game_module.CheckFinding(
                    "utility-sum-exceeds-welfare",
                    "utilities sum above the welfare",
                    {"profile": [sorted(x) for x in a], "utility_sum": total, "welfare": w},
                )
        elif abs(total - w) > al.TOLERANCE:
            cond3_tight = False
    return cond2_ok, cond3_ok, cond3_tight, failure, profiles


B, I, D = Compromise.BLIND, Compromise.ISOLATED, Compromise.DISABLED


class TestCheckVugSharedEvaluations:
    GAMES = [
        al.gen_k_blind(4, 2, 0.01, 0.01),
        al.gen_k_blind(4, 3, 0.05, 0.02, labels=[Compromise.ISOLATED] * 3),
        al.gen_mc_blind(5, 2, 0.01),
        al.gen_mc_noblind(4, 2, 0.01),
        al.gen_sim_game(4, 3, 0.05),
        al.gen_fig1([1.0, 0.7, 0.3, 0.4, 2.0, 0.8]),
    ] + [
        al.gen_random_separable(n=4, max_resources=3, max_actions=3, k=seed % 3, seed=seed)
        for seed in range(6)
    ] + [
        # coverage tables with compromised agents, and a table whose missing
        # entry [0, 2] the walk meets after its first profiles
        coverage_game(0, 5, [B, I]),
        coverage_game(6, 5, [D, B]),
        coverage_game(10, 5, [I, D, B]),
        coverage_game(7, 4),
        holed_table_game(12, 4, [B], missing=0.3),
    ]
    DESIGNS = [
        None,
        lambda g, i, a: 0.5 * al.marginal_contribution(g, i, a),  # below the marginal
        lambda g, i, a: 2.0 * al.designed_utility(g, i, a),  # sums above the welfare
        al.designed_utility,
    ]

    @pytest.mark.parametrize("design", range(len(DESIGNS)))
    def test_matches_the_per_profile_reference(self, design):
        fn = self.DESIGNS[design]

        def conditions(game, fn):
            report = scan_vug(game, utility_fn=fn)
            return (
                report.utility_dominates_marginal,
                report.utility_sum_bounded,
                report.utility_sum_tight,
                report.failure if report.welfare.ok else None,
                report.profiles_checked,
            )

        raised = 0
        for game in self.GAMES:
            got = check_outcome(lambda g: conditions(g, fn), game)
            assert got == check_outcome(lambda g: reference_vug_conditions(g, fn), game), game
            raised += got[0] is al.ModelIncompleteError
        assert raised == 1  # the holed table

    @pytest.mark.parametrize("game", [
        al.gen_random_separable(n=6, max_resources=3, max_actions=3, seed=4,
                                utility_choices=(utility,))
        for utility in Utility
    ] + [coverage_game(3, 6, [B, I, D])], ids=[str(u) for u in Utility] + ["table"])
    def test_evaluates_the_welfare_once_per_profile_and_agent(self, monkeypatch, game):
        calls, lookups = [], []
        value = game_module._Engine.value

        def spy(eng, ctx):
            calls.append(1)
            return value(eng, ctx)

        class Table(game_module._Table):
            def __getitem__(self, key):
                lookups.append(1)
                return super().__getitem__(key)

        # every welfare value of the walk is one kernel read: value() for
        # separable welfare, a lookup in the kernel's table for a table
        monkeypatch.setattr(game_module._Engine, "value", spy)
        welfare = game_module._scan_submodular(game)
        assert welfare.ok
        if not game.separable:
            game._engine.table = Table(game._engine.table)
        calls.clear()
        report = game_module._scan_vug(game, None, welfare)
        assert report.ok
        # W(a) and the n opt-out values: 7 per profile for 6 agents
        reads = report.profiles_checked * (1 + game.n)
        assert (len(calls), len(lookups)) == ((reads, 0) if game.separable else (0, reads))

    @pytest.mark.parametrize("game", [
        al.gen_random_separable(n=5, max_resources=3, max_actions=3, seed=2),
        coverage_game(0, 5, [B, I]),
        holed_table_game(3, 4, [I]),
    ], ids=["separable", "table", "holed-table"])
    def test_the_walk_builds_no_context_from_a_profile(self, monkeypatch, game):
        # the context is kept move by move: neither the kernel's context()
        # nor base_set() runs once the submodularity report is in
        welfare = game_module._scan_submodular(game)

        def refuse(*args):
            raise AssertionError("a context built from a whole profile")

        monkeypatch.setattr(game_module._Engine, "context", refuse)
        monkeypatch.setattr(game_module, "base_set", refuse)
        report = game_module._scan_vug(game, None, welfare)
        assert report.profiles_checked == al.joint_space_size(game)


def vug_outcome(game, check=scan_vug, utility_fn=None):
    """The repr of a check_vug-style report, or of the type and message of
    what it raised (a NaN in a report compares unequal to itself)."""
    try:
        return repr(check(game, utility_fn=utility_fn))
    except (al.ModelIncompleteError, al.SizeCapError) as exc:
        return repr((type(exc), str(exc)))


def design_kind(game):
    return "mixed" if len(set(game.utilities)) > 1 else game.utilities[0].value


class TestCheckVugMatchesTheDirectScan:
    def test_random_separable_games(self):
        # the certificate, where it answers, settles what the scan reports
        labels, designs, paths, tight = set(), set(), set(), set()
        for seed in range(300):
            game = random_separable_game(random.Random(seed))
            scan = scan_vug(game)
            assert repr(scan) == vug_outcome(game, direct_scan_vug), seed
            labels.update(game.compromise)
            designs.add(design_kind(game))
            report = al.check_vug(game)
            if report.path == "certificate":
                assert settled(report) == settled(scan), seed
                tight.add(report.utility_sum_tight)
            paths.add(report.path)
        assert labels == set(Compromise)
        assert designs == {"mc", "es", "mixed"}
        assert paths == {"certificate", "scan"} and tight == {True, False}

    def test_random_tabulated_games(self):
        raised = 0
        for seed in range(300):
            game = random_tabulated_game(random.Random(seed))
            outcome = vug_outcome(game)
            assert outcome == vug_outcome(game, direct_scan_vug), seed
            raised += "ModelIncompleteError" in outcome
        assert raised > 0

    def test_holed_tables_raise_the_first_missing_entry(self):
        messages = set()
        for seed in range(60):
            game = holed_table_game(seed, 1 + seed % 4, missing=0.3)
            outcome = vug_outcome(game)
            assert outcome == vug_outcome(game, direct_scan_vug), seed
            if "no welfare table entry" in outcome:
                messages.add(outcome)
        assert len(messages) > 5

    def test_families(self):
        for game in family_games():
            assert vug_outcome(game) == vug_outcome(game, direct_scan_vug)

    def test_overflowing_welfare(self):
        # past the certificate's rounding allowance: check_vug is the scan
        game = overflow_game()
        outcomes = []
        for fn in TestCheckVugSharedEvaluations.DESIGNS:
            outcomes.append(vug_outcome(game, al.check_vug, fn))
            assert outcomes[-1] == vug_outcome(game, direct_scan_vug, fn)
            assert "path='certificate'" not in outcomes[-1]
        # the doubled design's sum overflows where the welfare does not
        assert "'utility_sum': inf, 'welfare': 1.5299999999999998e+308" in outcomes[2]

    def test_equal_shares_add_up_in_resource_order(self):
        # at this scale one ulp is 1.9e-9: adding the three shares in another
        # order than W(a) adds the curves moves the sum off the welfare by
        # more than the tolerance, and the sum condition is no longer tight
        curves = ((0.0, 7940822.2), (0.0, 2951287.0), (0.0, 3601634.9))
        game = al.GameInstance(
            welfare=al.SeparableWelfare(curves=curves),
            action_sets=(({0, 1, 2},),),
            utilities=(Utility.EQUAL_SHARE,),
            compromise=(Compromise.NORMAL,),
        )
        report = al.check_vug(game)
        assert report == direct_scan_vug(game)
        assert report.path == "scan"
        assert report.utility_sum_tight

    @pytest.mark.parametrize("design", range(len(TestCheckVugSharedEvaluations.DESIGNS)))
    def test_utility_overrides(self, design):
        fn = TestCheckVugSharedEvaluations.DESIGNS[design]
        games = TestCheckVugSharedEvaluations.GAMES + [
            random_separable_game(random.Random(seed)) for seed in range(40)
        ] + [random_tabulated_game(random.Random(seed)) for seed in range(40)]
        kinds = set()
        for game in games:
            outcome = vug_outcome(game, utility_fn=fn)
            assert outcome == vug_outcome(game, direct_scan_vug, fn), game
            kinds.update(k for k in ("utility-below-marginal", "utility-sum-exceeds-welfare")
                         if k in outcome)
        if design in (1, 2):
            assert kinds

    @given(
        st.one_of(small_separable_games(), small_tabulated_games()),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_property(self, game, data):
        if game.separable:
            utilities = data.draw(st.lists(st.sampled_from(list(Utility)),
                                           min_size=game.n, max_size=game.n))
            game = dataclasses.replace(game, utilities=tuple(utilities))
        assert vug_outcome(game) == vug_outcome(game, direct_scan_vug)


@st.composite
def scaled_separable_games(draw):
    """small_separable_games with drawn utilities and labels, every curve
    scaled by a power of two from 2^-10 to 2^20 (about 1e-3 to 1e6), so
    that the scaled curves are exactly the drawn ones scaled."""
    game = draw(small_separable_games())
    scale = math.ldexp(1.0, draw(st.integers(-10, 20)))
    each = lambda values: st.lists(st.sampled_from(values), min_size=game.n, max_size=game.n)
    return dataclasses.replace(
        game,
        welfare=al.SeparableWelfare(
            curves=tuple(tuple(v * scale for v in f) for f in game.welfare.curves)
        ),
        utilities=tuple(draw(each(list(Utility)))),
        compromise=tuple(draw(each(list(Compromise)))),
    )


FAMILIES = {
    "k_blind": lambda n, k: al.gen_k_blind(n, k, 0.01, 0.01),
    "mc_blind": lambda n, k: al.gen_mc_blind(n, k, 0.01),
    "sim": lambda n, k: al.gen_sim_game(n, k, 0.05),
}


class TestCertificate:
    """Where the curves settle a report, it is the one the scans give."""

    @given(scaled_separable_games())
    @settings(max_examples=100, deadline=None)
    def test_answers_only_what_the_scans_report(self, game):
        welfare = al.check_submodular(game)
        if welfare.path == "certificate":
            scan = direct_scan_submodular(game)
            assert (welfare.ok, welfare.failure) == (scan.ok, scan.failure) == (True, None)
        report = al.check_vug(game)
        if report.path == "certificate":
            assert settled(report) == settled(direct_scan_vug(game))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_n2_to_10(self, family):
        # every k up to n = 6, the middle one above; the scan is compared
        # wherever it answers (it refuses sim from n = 9 and k_blind at 10)
        for n in range(2, 11):
            ks = [n - 1] if family == "sim" else range(n) if n <= 6 else [n // 2]
            for k in ks:
                game = FAMILIES[family](n, k)
                report = al.check_vug(game)
                assert (report.path, report.welfare.path) == ("certificate",) * 2, (n, k)
                try:
                    scan = scan_vug(game)
                except al.SizeCapError:
                    continue
                assert settled(report) == settled(scan), (n, k)

    def test_a_sum_that_one_resource_offsets_goes_to_the_scan(self):
        # both agents select both resources: at counts (2, 2) the first
        # resource puts the utility sum 1.5e-9 below W on its own, more than
        # the tolerance, but the second puts it 0.8e-9 back, so the sum is
        # tight everywhere; the certificate must not call it untight
        curves = ((0.0, 1.0, 2.0 - 1.5e-9), (0.0, 1.0, 2.0 + 0.8e-9))
        game = al.GameInstance(
            welfare=al.SeparableWelfare(curves=curves),
            action_sets=(({0, 1},),) * 2,
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
            compromise=(Compromise.NORMAL,) * 2,
        )
        report = al.check_vug(game)
        assert report == direct_scan_vug(game)
        assert report.path == "scan" and report.utility_sum_tight

    def test_is_computed_once_per_game(self, monkeypatch):
        game = al.gen_mc_blind(6, 3, 0.01)
        real = game_module._Engine.certificate.func
        calls = []

        def counting(eng):
            calls.append(1)
            return real(eng)

        prop = functools.cached_property(counting)
        prop.__set_name__(game_module._Engine, "certificate")
        monkeypatch.setattr(game_module._Engine, "certificate", prop)
        al.check_vug(game)  # check_submodular, then check_vug itself
        al.check_vug(game)
        assert len(calls) == 1
