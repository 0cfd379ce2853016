"""Welfare, utilities, observation structure and the compromise transform."""

import gc
import itertools
import math
import weakref

import pytest

import anarchy_lab as al
from anarchy_lab import Compromise, Utility


def step_game(values, action_sets, utilities, compromise):
    """Flat-after-one-selection curves, the shape used by the tight families."""
    n = len(action_sets)
    curves = tuple((0.0,) + (float(v),) * n for v in values)
    return al.GameInstance(
        welfare=al.SeparableWelfare(curves=curves),
        action_sets=tuple(tuple(frozenset(a) for a in acts) for acts in action_sets),
        utilities=tuple(utilities),
        compromise=tuple(compromise),
    )


class TestWelfareEval:
    def test_all_empty_profile_is_zero(self):
        g = al.gen_k_blind(5, 2, 0.01, 0.01)
        assert al.welfare_eval(g, al.empty_profile(g)) == 0.0

    def test_hub_family_everyone_on_hub(self):
        g = al.gen_k_blind(6, 3, 0.01, 0.01)
        a = tuple(frozenset({0}) for _ in range(6))
        assert al.welfare_eval(g, a) == pytest.approx(1.0, abs=1e-12)

    def test_shared_resource_family_split_allocation(self):
        g = al.gen_mc_blind(6, 3, 0.01)
        # compromised agents on their alternates, one normal agent on shared
        a = (
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({0}),
            frozenset(),
            frozenset(),
        )
        assert al.welfare_eval(g, a) == pytest.approx(4.01, abs=1e-9)

    def test_duplicate_selection_counts_for_separable(self):
        g = step_game([1.0], [[{0}], [{0}]], [Utility.EQUAL_SHARE] * 2, [Compromise.NORMAL] * 2)
        both = (frozenset({0}), frozenset({0}))
        assert al.welfare_eval(g, both) == 1.0  # flat curve: count 2 is still 1

    def test_tabulated_collapses_to_base_set(self):
        w = al.TabulatedWelfare.from_mapping(
            {frozenset(): 0.0, frozenset({0}): 2.0, frozenset({1}): 1.0, frozenset({0, 1}): 2.5},
            num_resources=2,
        )
        g = al.GameInstance(
            welfare=w,
            action_sets=((frozenset({0}),), (frozenset({0}), frozenset({1}))),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
            compromise=(Compromise.NORMAL,) * 2,
        )
        assert al.welfare_eval(g, (frozenset({0}), frozenset({0}))) == 2.0
        assert al.welfare_eval(g, (frozenset({0}), frozenset({1}))) == 2.5

    def test_tabulated_missing_entry(self):
        w = al.TabulatedWelfare.from_mapping({frozenset({0}): 1.0}, num_resources=2)
        g = al.GameInstance(
            welfare=w,
            action_sets=((frozenset({0}), frozenset({1})),),
            utilities=(Utility.MARGINAL_CONTRIBUTION,),
            compromise=(Compromise.NORMAL,),
        )
        with pytest.raises(al.ModelIncompleteError):
            al.welfare_eval(g, (frozenset({1}),))

    def test_a_missing_entry_is_never_memoised(self):
        # the kernel reads a table by base-set mask through a memo; a hole
        # raises on every read and leaves the memo holding only real entries
        table = {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 1.0}
        g = al.GameInstance(
            welfare=al.TabulatedWelfare.from_mapping(table, 2),
            action_sets=((frozenset({0}),), (frozenset({1}),)),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
            compromise=(Compromise.NORMAL,) * 2,
        )
        eng = g._engine
        message = "no welfare table entry for base set [0, 1]"
        for _ in range(2):
            with pytest.raises(al.ModelIncompleteError) as got:
                eng.value(0b11)
            assert str(got.value) == message
        assert eng.value(0b01) == 1.0 and eng.known == {0b01: 1.0}
        for run in (al.check_vug, al.instance_poa):
            with pytest.raises(al.ModelIncompleteError) as got:
                run(g)
            assert str(got.value) == message
        assert eng.known == {0b00: 0.0, 0b01: 1.0, 0b10: 1.0}

    def test_dropped_table_is_collected(self):
        w = al.TabulatedWelfare.from_mapping({frozenset(): 0.0, frozenset({0}): 1.0}, 1)
        g = al.GameInstance(
            welfare=w,
            action_sets=((frozenset({0}),),),
            utilities=(Utility.MARGINAL_CONTRIBUTION,),
            compromise=(Compromise.NORMAL,),
        )
        assert al.welfare_eval(g, (frozenset({0}),)) == 1.0
        twin = al.TabulatedWelfare.from_mapping({frozenset({0}): 1.0, frozenset(): 0.0}, 1)
        assert w == twin and hash(w) == hash(twin) and "table" not in repr(w)
        ref = weakref.ref(w)
        del w, g
        gc.collect()
        assert ref() is None


class TestMarginalContribution:
    def test_empty_action_contributes_nothing(self):
        g = al.gen_k_blind(4, 1, 0.1, 0.01)
        a = (frozenset({0}), frozenset(), frozenset({0}), frozenset({0}))
        assert al.marginal_contribution(g, 1, a) == 0.0

    def test_alone_on_a_resource_gets_its_value(self):
        g = step_game([0.7], [[{0}], []], [Utility.MARGINAL_CONTRIBUTION] * 2, [Compromise.NORMAL] * 2)
        a = (frozenset({0}), frozenset())
        assert al.marginal_contribution(g, 0, a) == pytest.approx(0.7, abs=1e-12)

    def test_joining_a_saturated_resource_adds_nothing(self):
        # two agents, one resource whose curve is constant after one selection
        g = step_game([1.0], [[{0}], [{0}]], [Utility.MARGINAL_CONTRIBUTION] * 2, [Compromise.NORMAL] * 2)
        a = (frozenset({0}), frozenset({0}))
        assert al.marginal_contribution(g, 1, a) == pytest.approx(0.0, abs=1e-12)


class TestEqualShare:
    def test_alone_gets_full_value(self):
        g = step_game([1.0], [[{0}], []], [Utility.EQUAL_SHARE] * 2, [Compromise.NORMAL] * 2)
        assert al.equal_share(g, 0, (frozenset({0}), frozenset())) == 1.0

    def test_two_agents_split_evenly(self):
        g = step_game([1.0], [[{0}], [{0}]], [Utility.EQUAL_SHARE] * 2, [Compromise.NORMAL] * 2)
        a = (frozenset({0}), frozenset({0}))
        assert al.equal_share(g, 0, a) == pytest.approx(0.5, abs=1e-12)
        assert al.equal_share(g, 1, a) == pytest.approx(0.5, abs=1e-12)

    def test_mixed_solo_and_shared_resources(self):
        # agent 0 alone on a 0.3 resource and sharing a unit resource with two others
        g = step_game(
            [0.3, 1.0],
            [[{0, 1}], [{1}], [{1}]],
            [Utility.EQUAL_SHARE] * 3,
            [Compromise.NORMAL] * 3,
        )
        a = (frozenset({0, 1}), frozenset({1}), frozenset({1}))
        assert al.equal_share(g, 0, a) == pytest.approx(0.3 + 1.0 / 3.0, abs=1e-12)

    def test_rejected_on_tabulated_welfare(self):
        w = al.TabulatedWelfare.from_mapping({frozenset({0}): 1.0, frozenset(): 0.0}, 1)
        g = al.GameInstance(
            welfare=w,
            action_sets=((frozenset({0}),),),
            utilities=(Utility.MARGINAL_CONTRIBUTION,),
            compromise=(Compromise.NORMAL,),
        )
        with pytest.raises(al.UnsupportedUtilityError):
            al.equal_share(g, 0, (frozenset({0}),))


class TestEffectiveUtility:
    def test_blind_agent_sees_only_itself(self):
        g = step_game(
            [0.8, 1.0],
            [[{0}, {1}], [{1}], [{1}]],
            [Utility.MARGINAL_CONTRIBUTION] * 3,
            [Compromise.BLIND, Compromise.NORMAL, Compromise.NORMAL],
        )
        crowded = (frozenset({1}), frozenset({1}), frozenset({1}))
        lonely = (frozenset({1}), frozenset(), frozenset())
        assert al.effective_utility(g, 0, crowded) == pytest.approx(1.0, abs=1e-12)
        assert al.effective_utility(g, 0, crowded) == al.effective_utility(g, 0, lonely)

    def test_normal_agent_treats_isolated_as_opted_out(self):
        g = step_game(
            [1.0],
            [[{0}], [{0}]],
            [Utility.MARGINAL_CONTRIBUTION] * 2,
            [Compromise.ISOLATED, Compromise.NORMAL],
        )
        a = (frozenset({0}), frozenset({0}))
        # as if agent 0 had opted out: full marginal value
        assert al.effective_utility(g, 1, a) == pytest.approx(1.0, abs=1e-12)

    def test_normal_agent_still_sees_blind_sharer(self):
        g = step_game(
            [1.0],
            [[{0}], [{0}]],
            [Utility.MARGINAL_CONTRIBUTION] * 2,
            [Compromise.BLIND, Compromise.NORMAL],
        )
        a = (frozenset({0}), frozenset({0}))
        assert al.effective_utility(g, 1, a) == pytest.approx(0.0, abs=1e-12)

    def test_disabled_agent_gets_zero(self):
        g = step_game(
            [1.0],
            [[{0}], [{0}]],
            [Utility.MARGINAL_CONTRIBUTION] * 2,
            [Compromise.DISABLED, Compromise.NORMAL],
        )
        a = (frozenset(), frozenset({0}))
        assert al.effective_utility(g, 0, a) == 0.0

    def test_blind_equal_share_agent_claims_full_resource_value(self):
        # unobservable co-selectors are treated as absent, so a blind
        # equal-share agent books the whole resource value
        g = step_game(
            [1.0],
            [[{0}], [{0}]],
            [Utility.EQUAL_SHARE] * 2,
            [Compromise.BLIND, Compromise.NORMAL],
        )
        a = (frozenset({0}), frozenset({0}))
        assert al.effective_utility(g, 0, a) == pytest.approx(1.0, abs=1e-12)


class TestObservedSet:
    def test_rules(self):
        g = step_game(
            [1.0],
            [[{0}]] * 5,
            [Utility.MARGINAL_CONTRIBUTION] * 5,
            [
                Compromise.NORMAL,
                Compromise.BLIND,
                Compromise.ISOLATED,
                Compromise.DISABLED,
                Compromise.NORMAL,
            ],
        )
        assert al.observed_set(g, 0) == frozenset({1, 4})
        assert al.observed_set(g, 1) == frozenset()
        assert al.observed_set(g, 2) == frozenset()
        assert al.observed_set(g, 3) == frozenset()
        assert al.observed_set(g, 4) == frozenset({0, 1})

    def test_kernel_sees_what_the_definition_observes(self):
        # the kernel derives what each agent sees from the labels alone; the
        # definition is the reference, over every label mix of four agents
        for labels in itertools.product(Compromise, repeat=4):
            g = step_game([1.0, 0.5], [[{0}, {1}]] * 4, [Utility.MARGINAL_CONTRIBUTION] * 4, labels)
            for i in range(g.n):
                assert g._engine.sees[i] == tuple(sorted(al.observed_set(g, i)))


def random_suite(count, k_choices=(0, 1, 2), label_pool=(Compromise.BLIND, Compromise.ISOLATED)):
    games = []
    for seed in range(count):
        n = 3 + seed % 3
        k = k_choices[seed % len(k_choices)]
        labels = tuple(label_pool[(seed + j) % len(label_pool)] for j in range(k))
        games.append(
            al.gen_random_separable(
                n=n, max_resources=4, max_actions=4, k=k, labels=labels, seed=seed
            )
        )
    return games


class TestInvariants:
    def test_marginal_contribution_zero_on_empty_entries(self):
        for game in random_suite(12):
            for a in list(al.all_profiles(game))[:64]:
                for i in range(game.n):
                    if not a[i]:
                        assert al.marginal_contribution(game, i, a) == 0.0

    def test_equal_share_sums_to_welfare(self):
        for game in random_suite(12):
            for a in list(al.all_profiles(game))[:64]:
                total = sum(al.equal_share(game, i, a) for i in range(game.n))
                assert total == pytest.approx(al.welfare_eval(game, a), abs=al.TOLERANCE)

    def test_marginals_nonnegative_and_sum_below_welfare(self):
        for game in random_suite(12):
            for a in list(al.all_profiles(game))[:64]:
                w = al.welfare_eval(game, a)
                total = 0.0
                for i in range(game.n):
                    mc = al.marginal_contribution(game, i, a)
                    assert mc >= -al.TOLERANCE
                    total += mc
                assert total <= w + al.TOLERANCE

    def test_blind_utility_ignores_other_entries(self):
        for game in random_suite(16, k_choices=(1, 2)):
            blind = game.agents_with(Compromise.BLIND)
            if not blind:
                continue
            i = blind[0]
            profiles = list(al.all_profiles(game))[:32]
            for a in profiles:
                for other in game.action_sets[(i + 1) % game.n]:
                    j = (i + 1) % game.n
                    if j == i:
                        continue
                    b = a[:j] + (other,) + a[j + 1 :]
                    assert al.effective_utility(game, i, a) == al.effective_utility(
                        game, i, b[:i] + (a[i],) + b[i + 1 :]
                    )

    def test_normal_utility_ignores_isolated_and_disabled_entries(self):
        g = step_game(
            [1.0, 0.5],
            [[{0}, {1}], [{0}], [{0}, {1}]],
            [Utility.MARGINAL_CONTRIBUTION] * 3,
            [Compromise.NORMAL, Compromise.ISOLATED, Compromise.NORMAL],
        )
        for a in al.all_profiles(g):
            for alt in g.action_sets[1]:
                b = (a[0], alt, a[2])
                assert al.effective_utility(g, 0, a) == al.effective_utility(g, 0, b)
                assert al.effective_utility(g, 2, a) == al.effective_utility(g, 2, b)


class TestConstructionAndValidation:
    def test_empty_action_always_present(self):
        g = step_game([1.0], [[{0}]], [Utility.MARGINAL_CONTRIBUTION], [Compromise.NORMAL])
        assert frozenset() in g.action_sets[0]

    def test_unknown_resource_id_rejected(self):
        with pytest.raises(al.ValidationError):
            step_game([1.0], [[{3}]], [Utility.MARGINAL_CONTRIBUTION], [Compromise.NORMAL])

    def test_non_concave_curve_rejected(self):
        with pytest.raises(al.ValidationError, match="resource 0"):
            al.GameInstance(
                welfare=al.SeparableWelfare(curves=((0.0, 1.0, 3.0),)),
                action_sets=((frozenset({0}),), (frozenset({0}),)),
                utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
                compromise=(Compromise.NORMAL,) * 2,
            )

    def test_decreasing_curve_rejected(self):
        with pytest.raises(al.ValidationError, match="decreases"):
            al.GameInstance(
                welfare=al.SeparableWelfare(curves=((0.0, 1.0, 0.5),)),
                action_sets=((frozenset({0}),), (frozenset({0}),)),
                utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
                compromise=(Compromise.NORMAL,) * 2,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(al.ValidationError, match="finite"):
            al.GameInstance(
                welfare=al.SeparableWelfare(curves=((0.0, 1.0, bad),)),
                action_sets=((frozenset({0}),), (frozenset({0}),)),
                utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
                compromise=(Compromise.NORMAL,) * 2,
            )
        w = al.TabulatedWelfare.from_mapping({frozenset(): 0.0, frozenset({0}): bad}, 1)
        with pytest.raises(al.ValidationError, match="finite"):
            al.GameInstance(
                welfare=w,
                action_sets=((frozenset({0}),),),
                utilities=(Utility.MARGINAL_CONTRIBUTION,),
                compromise=(Compromise.NORMAL,),
            )

    def test_equal_share_needs_separable(self):
        w = al.TabulatedWelfare.from_mapping({frozenset(): 0.0, frozenset({0}): 1.0}, 1)
        with pytest.raises(al.UnsupportedUtilityError):
            al.GameInstance(
                welfare=w,
                action_sets=((frozenset({0}),),),
                utilities=(Utility.EQUAL_SHARE,),
                compromise=(Compromise.NORMAL,),
            )

    def test_playable_profiles_force_disabled_empty(self):
        g = step_game(
            [1.0],
            [[{0}], [{0}]],
            [Utility.MARGINAL_CONTRIBUTION] * 2,
            [Compromise.DISABLED, Compromise.NORMAL],
        )
        with pytest.raises(al.ValidationError):
            al.validate_joint_action(g, (frozenset({0}), frozenset({0})))
        al.validate_joint_action(g, (frozenset(), frozenset({0})))
        # benchmark profiles may use the full action space
        al.validate_joint_action(g, (frozenset({0}), frozenset({0})), playable=False)


def test_observation_structure_collects_per_agent_sets():
    g = al.gen_k_blind(4, 2, 0.01, 0.01, labels=[Compromise.BLIND, Compromise.ISOLATED])
    struct = al.observation_structure(g)
    assert struct == tuple(al.observed_set(g, i) for i in range(4))
    assert struct[0] == frozenset()          # blind
    assert struct[1] == frozenset()          # isolated
    assert struct[2] == frozenset({0, 3})    # sees the blind agent, not the isolated one
