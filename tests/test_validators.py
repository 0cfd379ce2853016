"""Submodularity / validity checkers: they are the oracles, so they get
their own planted-violation cases."""

import itertools

import pytest

import anarchy_lab as al
import anarchy_lab.game as game_module
from anarchy_lab import Compromise, Utility


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
        game = al.gen_k_blind(8, 3, 0.01, 0.01)
        with pytest.raises(al.SizeCapError):
            al.check_submodular(game, cap=10)

    def test_incomplete_table_reported(self):
        table = {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 1.0}
        game = tabulated_game(table, 2, [[{0}], [{1}]])
        report = al.check_submodular(game)
        assert not report.ok
        assert report.failure.kind == "table-missing"


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
        for game in self.GAMES:
            report = al.check_vug(game, utility_fn=fn)
            got = (
                report.utility_dominates_marginal,
                report.utility_sum_bounded,
                report.utility_sum_tight,
                report.failure if report.welfare.ok else None,
                report.profiles_checked,
            )
            assert got == reference_vug_conditions(game, fn), game

    @pytest.mark.parametrize("utility", list(Utility))
    def test_evaluates_the_welfare_once_per_profile_and_agent(self, monkeypatch, utility):
        game = al.gen_random_separable(n=6, max_resources=3, max_actions=3, seed=4,
                                       utility_choices=(utility,))
        calls = []
        real = game_module.welfare_eval

        def counting(g, a):
            calls.append(1)
            return real(g, a)

        monkeypatch.setattr(game_module, "welfare_eval", counting)
        al.check_submodular(game)
        in_submodular = len(calls)
        calls.clear()
        report = al.check_vug(game)  # runs check_submodular, then the profile loop
        assert report.ok
        # W(a) and the n opt-out values: 7 per profile for 6 agents
        assert len(calls) - in_submodular == report.profiles_checked * (1 + game.n)
