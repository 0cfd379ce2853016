"""Best responses, exhaustive equilibrium enumeration, anarchy ratios,
closed-form bounds and bound-chain certificates."""

import dataclasses
import functools
import gc
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anarchy_lab as al
from anarchy_lab import Compromise, Utility, UtilityClass
from anarchy_lab import enumeration, equilibrium
from anarchy_lab.equilibrium import _best_profile
from anarchy_lab.game import Action, GameInstance, JointAction


def playable_profiles(game):
    for a in al.all_profiles(game):
        if all(
            not a[i] or game.compromise[i] is not Compromise.DISABLED
            for i in range(game.n)
        ):
            yield a


def direct_scan_pne(game):
    """Independent oracle: test the equilibrium condition on every profile.
    Agent i's best-response set depends only on what it observes, the
    profile masked for i with i's own entry emptied, so it is computed once
    per agent and masked profile."""
    responses = {}

    def best_responds(i, a):
        key = (i, al.masked_profile(game, i, a[:i] + (al.EMPTY_ACTION,) + a[i + 1 :]))
        if key not in responses:
            responses[key] = al.best_response_set(game, i, a)
        return a[i] in responses[key]

    return [a for a in playable_profiles(game) if all(best_responds(i, a) for i in range(game.n))]


def direct_scan_opt(game):
    """Independent oracle: every profile in lexicographic order, keeping the
    first one whose welfare is strictly greater."""
    best, best_profile = -math.inf, None
    for a in al.all_profiles(game):
        w = al.welfare_eval(game, a)
        if w > best:
            best, best_profile = w, a
    return best, best_profile


def hub(n, k, eps, delta, labels=None):
    return al.gen_k_blind(n, k, eps, delta, labels)


def label_mixes(k):
    B, I = Compromise.BLIND, Compromise.ISOLATED
    return [[B] * k, [I] * k, [B if i % 2 == 0 else I for i in range(k)]]


@functools.cache
def family_scan(game):
    """Independent oracle for a family game, in one pass over every profile
    in lexicographic order: its pure Nash equilibria and the first profile
    of largest welfare, as ``(equilibria, (welfare, profile))``. An
    agent's best-response set is the model's ``best_response_set``; it
    depends only on the selection counts of the agents it observes, so it
    is computed once per agent and such counts. Cached, so that the tests
    reading a game's equilibria or optimum share one scan of it."""
    observed = [sorted(al.observed_set(game, i)) for i in range(game.n)]
    disabled = [c is Compromise.DISABLED for c in game.compromise]
    responses = {}
    equilibria, best, best_profile = [], -math.inf, None
    for a in al.all_profiles(game):
        w = al.welfare_eval(game, a)
        if w > best:
            best, best_profile = w, a
        for i, act in enumerate(a):
            if act and disabled[i]:
                break
            seen = [a[j] for j in observed[i]]
            key = (i, tuple(al.selection_counts(game, seen)) if seen else ())
            if key not in responses:
                responses[key] = al.best_response_set(game, i, a)
            if act not in responses[key]:
                break
        else:
            equilibria.append(a)
    return equilibria, (best, best_profile)


# (ε, δ) of the k_blind hubs and ε of mc_blind, as the family tests use them
HUB_SETTINGS = ((0.01, 0.01, 0.01), (0.01, 0.02, 0.03))


def family_grid(settings=HUB_SETTINGS):
    """The family games the scan-based oracles share: every label mix of
    ``k_blind`` and ``mc_blind`` at n = 2..7, and at n = 8..10 the
    alternating mix for k = 0, 1 and 3, with ``mc_noblind`` beside it; the
    hubs at each of ``settings``."""
    games = []
    for n in range(2, 11):
        if n <= 7:
            mixes = [(k, mix) for k in range(n) for mix in label_mixes(k)[: 1 if k == 0 else 3]]
        else:
            mixes = [(k, label_mixes(k)[2]) for k in (0, 1, 3)]
        for k, labels in mixes:
            for eps, delta, mc_eps in settings:
                games.append(hub(n, k, eps, delta, labels))
                games.append(al.gen_mc_blind(n, k, mc_eps, labels))
            if n >= 8 and k:
                games.append(al.gen_mc_noblind(n, k, 0.01))
    return games


def table_by_set(welfare):
    """A tabulated welfare's entries keyed by base set, a frozenset of
    resource ids, decoded from its bit masks here rather than by the
    package."""
    return {
        frozenset(r for r in range(welfare.num_resources) if mask >> r & 1): value
        for mask, value in welfare.table.items()
    }


def coverage_game(seed, n, labels=()):
    """Weighted-coverage welfare tabulated over every resource subset, with
    marginal-contribution utilities; ``labels`` go to the first agents."""
    rng = random.Random(seed)
    m = rng.randint(2, 4)
    cover = [frozenset(rng.sample(range(5), rng.randint(1, 3))) for _ in range(m)]
    weights = [round(rng.uniform(0.01, 1.0), 2) for _ in range(5)]
    table = {}
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            covered = frozenset().union(*(cover[r] for r in subset))
            table[frozenset(subset)] = sum(weights[e] for e in sorted(covered))
    action_sets = tuple(
        tuple(
            frozenset(rng.sample(range(m), rng.choice((1, 1, 2))))
            for _ in range(rng.randint(1, 3))
        )
        for _ in range(n)
    )
    return al.GameInstance(
        welfare=al.TabulatedWelfare.from_mapping(table, m),
        action_sets=action_sets,
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * n,
        compromise=tuple(labels) + (Compromise.NORMAL,) * (n - len(labels)),
    )


def direct_scan_choices(game, choices):
    """Independent oracle for the restricted optimum: every profile with
    agent i on one of the action indices ``choices[i]``, in lexicographic
    order, keeping the first one whose welfare is strictly greater."""
    best, best_idxs = -math.inf, None
    for idxs in itertools.product(*choices):
        a = tuple(game.action_sets[i][j] for i, j in enumerate(idxs))
        w = al.welfare_eval(game, a)
        if w > best:
            best, best_idxs = w, idxs
    return best, best_idxs


def private_pairs_game(n):
    """Agent i picks resource 2i or 2i + 1, each worth 1, or nothing."""
    return GameInstance(
        welfare=al.SeparableWelfare(curves=((0.0,) + (1.0,) * n,) * (2 * n)),
        action_sets=tuple((frozenset({2 * i}), frozenset({2 * i + 1})) for i in range(n)),
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * n,
        compromise=(Compromise.NORMAL,) * n,
    )


def outcome(f, *args):
    """f's result, or the message of the ModelIncompleteError it raised."""
    try:
        return f(*args)
    except al.ModelIncompleteError as exc:
        return "missing", str(exc)


def holed_table_game(seed, n, labels=(), missing=0.05):
    """Tabulated welfare with random, often tied values on the nonempty
    resource subsets, a share ``missing`` of them left out; random action
    sets."""
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    values = (0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, 1.0) if seed % 2 else None
    table = {frozenset(): 0.0}
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            if rng.random() >= missing:
                table[frozenset(subset)] = (
                    rng.choice(values) if values else round(rng.uniform(0.0, 2.0), 3)
                )
    action_sets = tuple(
        tuple(
            frozenset(rng.sample(range(m), rng.randint(1, min(m, 2))))
            for _ in range(rng.randint(1, 3))
        )
        for _ in range(n)
    )
    return al.GameInstance(
        welfare=al.TabulatedWelfare.from_mapping(table, m),
        action_sets=action_sets,
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * n,
        compromise=tuple(labels) + (Compromise.NORMAL,) * (n - len(labels)),
    )


# table values on a grid where exact and one-ulp ties are common
COARSE = st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.30000000000000004, 1.0))


@st.composite
def small_tabulated_games(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    table = {frozenset(): 0.0}
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            value = draw(st.one_of(st.none(), COARSE))  # None: a missing entry
            if value is not None:
                table[frozenset(subset)] = value
    subsets = st.frozensets(st.integers(0, m - 1), max_size=m)
    action_sets = tuple(draw(st.lists(subsets, min_size=1, max_size=3)) for _ in range(n))
    return al.GameInstance(
        welfare=al.TabulatedWelfare.from_mapping(table, m),
        action_sets=action_sets,
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * n,
        compromise=(Compromise.NORMAL,) * n,
    )


@st.composite
def small_separable_games(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    # a coarse value grid makes exact and one-ulp ties between sums common
    grid = st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.7, 1.0))
    curves = []
    for _ in range(m):
        curve = [0.0]
        for inc in sorted(draw(st.lists(grid, min_size=n, max_size=n)), reverse=True):
            curve.append(curve[-1] + inc)
        curves.append(tuple(curve))
    subsets = st.frozensets(st.integers(0, m - 1), max_size=m)
    action_sets = tuple(draw(st.lists(subsets, min_size=1, max_size=3)) for _ in range(n))
    return al.GameInstance(
        welfare=al.SeparableWelfare(curves=tuple(curves)),
        action_sets=action_sets,
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * n,
        compromise=(Compromise.NORMAL,) * n,
    )


class TestBestResponse:
    def test_blind_agent_picks_the_better_solo_resource(self):
        g = hub(4, 2, 0.1, 0.01)
        a = al.empty_profile(g)
        assert al.best_response_set(g, 0, a) == (frozenset({0}),)  # hub worth 1 > 0.9

    def test_disabled_agent_only_opts_out(self):
        g = al.GameInstance(
            welfare=al.SeparableWelfare(curves=((0.0, 1.0),)),
            action_sets=((frozenset({0}),),),
            utilities=(Utility.MARGINAL_CONTRIBUTION,),
            compromise=(Compromise.DISABLED,),
        )
        assert al.best_response_set(g, 0, (frozenset(),)) == (frozenset(),)

    def test_ties_are_kept(self):
        g = al.GameInstance(
            welfare=al.SeparableWelfare(curves=((0.0, 1.0), (0.0, 1.0))),
            action_sets=((frozenset({0}), frozenset({1})),),
            utilities=(Utility.MARGINAL_CONTRIBUTION,),
            compromise=(Compromise.NORMAL,),
        )
        brs = al.best_response_set(g, 0, (frozenset(),))
        assert set(brs) == {frozenset({0}), frozenset({1})}


class TestIsPne:
    def test_everyone_on_the_hub_is_an_equilibrium(self):
        g = hub(4, 2, 0.01, 0.01)
        a = tuple(frozenset({0}) for _ in range(4))
        assert al.is_pne(g, a)

    def test_normal_agent_alone_on_alternate_deviates_to_hub(self):
        g = hub(4, 2, 0.01, 0.01)
        # joining the hub yields a 1/4 share, above the 0.24 alternate
        a = (frozenset({0}), frozenset({0}), frozenset({3}), frozenset({0}))
        assert not al.is_pne(g, a)

    def test_single_agent_on_best_action(self):
        g = al.GameInstance(
            welfare=al.SeparableWelfare(curves=((0.0, 1.0),)),
            action_sets=((frozenset({0}),),),
            utilities=(Utility.MARGINAL_CONTRIBUTION,),
            compromise=(Compromise.NORMAL,),
        )
        assert al.is_pne(g, (frozenset({0}),))
        assert not al.is_pne(g, (frozenset(),))


class TestEnumerate:
    def test_matches_direct_scan_on_generated_games(self):
        games = [
            hub(3, 1, 0.1, 0.01),
            hub(4, 2, 0.01, 0.01, labels=[Compromise.ISOLATED, Compromise.BLIND]),
            al.gen_mc_blind(4, 2, 0.01),
            al.gen_mc_noblind(4, 1, 0.01),
            al.gen_fig1([1.0, 0.7, 0.3, 0.4, 2.0, 0.8], labels=[Compromise.BLIND] * 3),
        ]
        for game in games:
            eqs = al.enumerate_pne(game)
            assert list(eqs.profiles) == direct_scan_pne(game)

    def test_matches_direct_scan_on_random_games(self):
        for seed in range(25):
            game = al.gen_random_separable(
                n=3 + seed % 2,
                max_resources=3,
                max_actions=3,
                k=seed % 3,
                labels=[Compromise.BLIND, Compromise.ISOLATED][: seed % 3],
                seed=seed,
            )
            eqs = al.enumerate_pne(game)
            assert list(eqs.profiles) == direct_scan_pne(game)

    def test_separable_games_run_the_exact_test_on_no_normal_agent(self, monkeypatch):
        # the bounds decide every normal agent by the last node, so the
        # kernel's utilities are read only for the blind and isolated
        # agents' candidates, once each, in agent order
        calls = []
        utilities = equilibrium._Engine.utilities

        def spy(eng, i, ctx):
            calls.append(i)
            return utilities(eng, i, ctx)

        monkeypatch.setattr(equilibrium._Engine, "utilities", spy)
        B, I = Compromise.BLIND, Compromise.ISOLATED
        games = [
            hub(5, 2, 0.01, 0.01, labels=[I, B]),
            al.gen_mc_blind(5, 2, 0.01),
            al.gen_mc_noblind(6, 2, 0.01),
            al.gen_sim_game(6, 5, 0.05, labels=[B, I, B, I, B]),
            al.gen_fig1([1.0, 0.7, 0.3, 0.4, 2.0, 0.8], labels=[B, I, Compromise.DISABLED]),
        ]
        games += [
            al.gen_random_separable(
                n=3 + seed % 3, max_resources=3, max_actions=3, k=seed % 3,
                labels=[B, I][: seed % 3], seed=seed,
            )
            for seed in range(25)
        ]
        found = 0
        for game in games:
            assert game.separable and game.agents_with(Compromise.NORMAL)
            calls.clear()
            found += len(al.enumerate_pne(game).profiles)
            assert calls == [i for i, lab in enumerate(game.compromise) if lab in (B, I)]
        assert found > 0

    def test_tables_run_each_test_once_per_agent_and_observed_base_set(self, monkeypatch):
        # a table's leaf test reads only what the agent observes, so the
        # kernel's utilities are read once per normal agent and observed
        # base set the search meets, for all its actions at once, and once
        # per blind or isolated agent for its candidates; a table's
        # contexts are base-set masks
        calls = []
        utilities = equilibrium._Engine.utilities

        def spy(eng, i, seen):
            calls.append((i, frozenset(r for r in range(eng.m) if seen >> r & 1)))
            return utilities(eng, i, seen)

        def swap(a, i, act):
            return a[:i] + (act,) + a[i + 1 :]

        monkeypatch.setattr(equilibrium._Engine, "utilities", spy)
        B, I, D = Compromise.BLIND, Compromise.ISOLATED, Compromise.DISABLED
        mixes = ([], [B], [I, B], [D, I], [B, D, I])
        shared = 0
        for seed in range(20):
            game = coverage_game(seed, 4 + seed % 3, mixes[seed % 5])
            empty = al.empty_profile(game)
            # the profiles the search tests: blind and isolated agents on their
            # best actions alone, disabled ones on the empty action
            choices = []
            for i, acts in enumerate(game.action_sets):
                if game.compromise[i] is D:
                    acts = [al.EMPTY_ACTION]
                elif game.compromise[i] in (B, I):
                    values = [al.effective_utility(game, i, swap(empty, i, x)) for x in acts]
                    acts = [x for x, v in zip(acts, values) if v >= max(values) - al.TOLERANCE]
                choices.append(acts)
            expected, met = set(), set()
            for a in itertools.product(*choices):
                for u in game.agents_with(Compromise.NORMAL):
                    seen = al.base_set(al.masked_profile(game, u, swap(a, u, al.EMPTY_ACTION)))
                    expected.add((u, seen))
                    met.add((u, seen, a[u]))
                    values = [al.effective_utility(game, u, swap(a, u, x))
                              for x in game.action_sets[u]]
                    if values[game.action_sets[u].index(a[u])] < max(values) - al.TOLERANCE:
                        break
            calls.clear()
            al.enumerate_pne(game)
            tested = [(i, ctx) for i, ctx in calls if game.compromise[i] is Compromise.NORMAL]
            assert len(tested) == len(set(tested)) and set(tested) == expected, seed
            assert len(calls) - len(tested) == len(game.agents_with(B, I))
            shared += len(met) - len(expected)
        assert shared  # base sets met with two or more actions of their agent

    def test_hub_family_worst_equilibrium_welfare_is_one(self):
        eqs = al.enumerate_pne(hub(3, 1, 0.1, 0.01))
        assert not eqs.is_empty
        assert eqs.worst()[0] == pytest.approx(1.0, abs=1e-12)
        for p in eqs.profiles:
            assert all(a == frozenset({0}) for a in p)

    def test_shared_resource_family_worst_welfare(self):
        eqs = al.enumerate_pne(al.gen_mc_blind(6, 3, 0.01))
        assert eqs.worst()[0] == pytest.approx(1.01, abs=1e-9)

    def test_single_agent_single_resource(self):
        g = al.GameInstance(
            welfare=al.SeparableWelfare(curves=((0.0, 1.0),)),
            action_sets=((frozenset({0}),),),
            utilities=(Utility.MARGINAL_CONTRIBUTION,),
            compromise=(Compromise.NORMAL,),
        )
        eqs = al.enumerate_pne(g)
        assert eqs.profiles == ((frozenset({0}),),)

    def test_matches_direct_scan_on_compromised_coverage_games(self):
        B, I = Compromise.BLIND, Compromise.ISOLATED
        for seed in range(30):
            labels = [(B,), (I,), (B, I), (I, B, B)][seed % 4]
            game = coverage_game(seed, len(labels) + 1 + seed % 2, labels)
            eqs = al.enumerate_pne(game)
            assert list(eqs.profiles) == direct_scan_pne(game), seed

    def test_tables_are_searched_without_cuts(self):
        B, I, D = Compromise.BLIND, Compromise.ISOLATED, Compromise.DISABLED
        for seed in range(30):
            labels = [(), (D,), (B, D), (D, I, B), (I, I)][seed % 5]
            game = coverage_game(100 + seed, len(labels) + 1 + seed % 3, labels)
            eqs = al.enumerate_pne(game)
            assert list(eqs.profiles) == direct_scan_pne(game), seed
            assert list(eqs.welfares) == [al.welfare_eval(game, a) for a in eqs.profiles]
            assert eqs.pruned == 0  # a table need not be submodular

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        labels=st.lists(st.sampled_from(
            (Compromise.BLIND, Compromise.ISOLATED, Compromise.DISABLED)
        ), max_size=5),
        utilities=st.sampled_from((
            (Utility.MARGINAL_CONTRIBUTION,),
            (Utility.EQUAL_SHARE,),
            (Utility.MARGINAL_CONTRIBUTION, Utility.EQUAL_SHARE),
        )),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_scan_property(self, seed, n, labels, utilities):
        labels = labels[:n]
        game = al.gen_random_separable(
            n=n, max_resources=1 + seed % 3, max_actions=2 + seed % 2, k=len(labels),
            labels=labels, seed=seed, utility_choices=utilities,
        )
        eqs = al.enumerate_pne(game)
        assert list(eqs.profiles) == direct_scan_pne(game)
        assert list(eqs.welfares) == [al.welfare_eval(game, a) for a in eqs.profiles]

    def test_matches_direct_scan_on_families_n8_to_10(self):
        # n <= 7 is compared in test_families_at_every_equilibrium
        games = [game for game in family_grid() if game.n >= 8]
        assert len(games) == 42
        for game in games:
            eqs = al.enumerate_pne(game)
            assert list(eqs.profiles) == family_scan(game)[0], game.n

    def test_increments_growing_by_the_constructor_slack(self):
        # resource 0's increments grow by TOLERANCE per step, which the
        # constructor accepts; each agent's private resource is worth a
        # little more than the first increment, so an agent on resource 0
        # best-responds only once enough others join it. A bound that takes
        # payoffs as falling with every join would cut the all-on-0 profile
        # at its first node.
        n, tol = 5, al.TOLERANCE
        curve = [0.0]
        for c in range(n):
            curve.append(curve[-1] + (1.0 + c * tol))
        private = (0.0,) + (1.0 + 2.5 * tol,) * n
        for utility in Utility:
            game = al.GameInstance(
                welfare=al.SeparableWelfare(curves=(tuple(curve),) + (private,) * n),
                action_sets=tuple(({0}, {i + 1}) for i in range(n)),
                utilities=(utility,) * n,
                compromise=(Compromise.NORMAL,) * n,
            )
            eqs = al.enumerate_pne(game)
            assert list(eqs.profiles) == direct_scan_pne(game), utility
            assert (frozenset({0}),) * n in eqs.profiles

    def test_search_counters_take_no_part_in_comparison(self):
        game = al.gen_mc_blind(6, 2, 0.01)
        eqs = al.enumerate_pne(game)
        assert eqs.nodes > 0
        twin = al.EquilibriumSet(eqs.profiles, eqs.welfares, nodes=0, pruned=1)
        assert twin == eqs

    def test_scales_past_the_reach_of_a_scan(self):
        # 3^29 * 2 profiles. Each agent's candidates are tried in turn and
        # every one but the hub is cut at once, so the search assigns
        # 3(n-1) + 2 partial profiles
        n = 30
        game = hub(n, 0, 0.01, 0.01)
        assert al.joint_space_size(game) > equilibrium.DEFAULT_ENUM_CAP
        eqs = al.enumerate_pne(game)
        assert eqs.profiles == ((frozenset({0}),) * n,)
        assert eqs.worst()[0] == 1.0
        assert eqs.nodes < 3 * n

    def test_size_cap(self):
        # the blind agent takes the shared resource, so the 13 normal agents'
        # marginal value is 0 on it and off it: every profile of theirs is an
        # equilibrium, nothing is cut, and the search ends 2^13 branches,
        # each on a complete profile
        game = al.gen_mc_blind(14, 1, 0.01)
        assert len(al.enumerate_pne(game, cap=2**13).profiles) == 2**13
        with pytest.raises(
            al.SizeCapError,
            match="^equilibrium search ended 1001 branches, past the cap 1000$",
        ):
            al.enumerate_pne(game, cap=1000)

    def test_a_cap_equal_to_the_joint_space_answers(self):
        # all 2^14 profiles but one are equilibria, so the search assigns
        # 2 + 4 + ... + 2^14 partial profiles, twice the joint space less 2,
        # and ends one branch per profile
        game = al.gen_mc_blind(14, 0, 0.01)
        size = al.joint_space_size(game)
        eqs = al.enumerate_pne(game, cap=size)
        assert eqs == al.enumerate_pne(game)
        assert (eqs.nodes, len(eqs.profiles)) == (2 * size - 2, size - 1)
        with pytest.raises(al.SizeCapError, match=f"ended {size} branches"):
            al.enumerate_pne(game, cap=size - 1)

    @given(st.one_of(small_separable_games(), small_tabulated_games()))
    @settings(max_examples=200, deadline=None)
    def test_a_cap_equal_to_the_joint_space_answers_property(self, game):
        size = al.joint_space_size(game)
        assert outcome(al.enumerate_pne, game, size) == outcome(al.enumerate_pne, game)
        assert outcome(al.optimal_welfare, game, size) == outcome(al.optimal_welfare, game)


class TestOptimalWelfare:
    def test_shared_resource_family(self):
        w, _ = al.optimal_welfare(al.gen_mc_blind(6, 3, 0.01))
        assert w == pytest.approx(4.01, abs=1e-9)

    def test_hub_family_limit_values(self):
        w, _ = al.optimal_welfare(hub(10, 9, 0.0, 0.0))
        assert w == pytest.approx(10.0, abs=1e-9)

    def test_all_zero_welfare(self):
        g = al.GameInstance(
            welfare=al.SeparableWelfare(curves=((0.0, 0.0, 0.0),)),
            action_sets=((frozenset({0}),), (frozenset({0}),)),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
            compromise=(Compromise.NORMAL,) * 2,
        )
        w, _ = al.optimal_welfare(g)
        assert w == 0.0
        assert al.optimal_welfare(g) == direct_scan_opt(g)

    def test_invariant_under_agent_permutation(self):
        for seed in range(8):
            game = al.gen_random_separable(n=4, max_resources=3, max_actions=3, seed=seed)
            w, _ = al.optimal_welfare(game)
            perm = [1, 3, 0, 2]
            permuted = al.GameInstance(
                welfare=game.welfare,
                action_sets=tuple(game.action_sets[p] for p in perm),
                utilities=tuple(game.utilities[p] for p in perm),
                compromise=tuple(game.compromise[p] for p in perm),
            )
            w2, _ = al.optimal_welfare(permuted)
            assert w2 == pytest.approx(w, abs=al.TOLERANCE)

    def test_benchmark_ignores_compromise(self):
        # the optimum counts what a disabled agent could have contributed
        g = al.GameInstance(
            welfare=al.SeparableWelfare(curves=((0.0, 5.0, 5.0), (0.0, 1.0, 1.0))),
            action_sets=((frozenset({0}),), (frozenset({1}),)),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
            compromise=(Compromise.DISABLED, Compromise.NORMAL),
        )
        w, prof = al.optimal_welfare(g)
        assert w == pytest.approx(6.0, abs=1e-12)
        assert prof[0] == frozenset({0})
        assert (w, prof) == direct_scan_opt(g)

    def test_matches_direct_scan_on_families(self):
        # the optimum ignores labels: one scan per welfare and action sets,
        # the shared family scan where the grid has one
        scans = {}
        for g in family_grid():
            shape = (g.welfare, g.action_sets)
            if shape not in scans:
                scans[shape] = family_scan(g)[1]
        games = []
        for n in range(2, 11):
            for k in range(n):
                for labels in label_mixes(k):
                    games.append(hub(n, k, 0.01, 0.02, labels))
                    games.append(al.gen_mc_blind(n, k, 0.03, labels))
        games += [al.gen_mc_noblind(n, k, 0.01) for n in range(3, 9) for k in range(1, n - 1)]
        games += [al.gen_sim_game(n, n - 1, 0.05) for n in range(2, 9)]
        games += [
            al.gen_fig1([1.0, 0.7, 0.3, 0.4, 2.0, 0.8], labels=[Compromise.BLIND] * 3),
            al.gen_fig1([0.5, 0.5, 0.5, 0.5, 0.5, 2.0]),
        ]
        for game in games:
            shape = (game.welfare, game.action_sets)
            if shape not in scans:
                scans[shape] = direct_scan_opt(game)
            assert al.optimal_welfare(game) == scans[shape]

    def test_matches_direct_scan_on_random_games(self):
        for seed in range(300):
            k = seed % 3
            game = al.gen_random_separable(
                n=2 + seed % 4,
                max_resources=2 + seed % 3,
                max_actions=2 + seed % 3,
                k=k,
                labels=label_mixes(k)[seed % 3],
                seed=seed,
            )
            assert al.optimal_welfare(game) == direct_scan_opt(game), seed

    def test_matches_direct_scan_on_coverage_games(self):
        for seed in range(60):
            game = coverage_game(seed, 2 + seed % 3, [Compromise.BLIND] * (seed % 2))
            assert al.optimal_welfare(game) == direct_scan_opt(game), seed

    def test_missing_table_entry_is_the_one_a_scan_meets_first(self):
        table = {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 1.0}
        g = al.GameInstance(
            welfare=al.TabulatedWelfare.from_mapping(table, 2),
            action_sets=((frozenset({0}), frozenset({1})),) * 2,
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
            compromise=(Compromise.NORMAL,) * 2,
        )
        with pytest.raises(al.ModelIncompleteError) as scan:
            direct_scan_opt(g)
        with pytest.raises(al.ModelIncompleteError) as search:
            al.optimal_welfare(g)
        assert str(search.value) == str(scan.value)

    def test_one_ulp_near_tie_follows_the_scan(self):
        # 0.1 + 0.2 is one ulp above 0.3, so the scan keeps the later action
        g = al.GameInstance(
            welfare=al.SeparableWelfare(
                curves=((0.0, 0.3), (0.0, 0.1), (0.0, 0.2))
            ),
            action_sets=((frozenset({0}), frozenset({1, 2})),),
            utilities=(Utility.MARGINAL_CONTRIBUTION,),
            compromise=(Compromise.NORMAL,),
        )
        assert direct_scan_opt(g) == (0.30000000000000004, (frozenset({1, 2}),))
        assert al.optimal_welfare(g) == direct_scan_opt(g)

    @given(small_separable_games())
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_scan_property(self, game):
        assert al.optimal_welfare(game) == direct_scan_opt(game)

    @given(small_tabulated_games())
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_scan_on_tables_property(self, game):
        assert outcome(al.optimal_welfare, game) == outcome(direct_scan_opt, game)

    def test_restricted_search_matches_a_scan_on_holed_tables(self):
        labels = list(Compromise)
        for seed in range(300):
            rng = random.Random(seed)
            n = 1 + seed % 4
            game = holed_table_game(seed, n, [rng.choice(labels) for _ in range(n)])
            eng = game._engine
            full = [range(len(acts)) for acts in game.action_sets]
            restricted = [
                sorted(rng.sample(range(len(acts)), rng.randint(1, len(acts))))
                for acts in game.action_sets
            ]
            for choices in (full, restricted):
                assert outcome(_best_profile, eng, choices) == outcome(
                    direct_scan_choices, game, choices
                ), seed

    def test_scales_past_the_reach_of_a_scan(self):
        n, k, eps, delta = 40, 20, 0.01, 0.005
        game = hub(n, k, eps, delta)
        start = time.perf_counter()
        assert al.joint_space_size(game) > equilibrium.DEFAULT_ENUM_CAP
        w, prof = al.optimal_welfare(game)
        elapsed = time.perf_counter() - start
        closed = 1 + (n - k - 1) * (1 / n - delta) + k * (1 - eps)
        assert abs(w - closed) <= 1e-9
        assert al.welfare_eval(game, prof) == w
        assert elapsed < 1.0

    def test_work_cap_counts_branches(self):
        # each agent picks one of two private resources of equal value or
        # the empty action, so 2^10 profiles are optimal: the dynamic program
        # keeps one state per agent and has 1 + 2 * 10 branches, while the
        # depth-first pass merges nothing, since the profiles differ in their
        # counts, and expands the 2^10 - 1 nodes above them, with 1 + 2 *
        # 1023 branches: the optimal profiles and the empty actions cut
        game = private_pairs_game(10)
        assert al.optimal_welfare(game, cap=2047) == direct_scan_opt(game)
        with pytest.raises(
            al.SizeCapError,
            match="^optimum DFS reached 2047 branches, past the cap 2046$",
        ):
            al.optimal_welfare(game, cap=2046)
        with pytest.raises(
            al.SizeCapError,
            match="^optimum DP reached 21 branches, past the cap 20$",
        ):
            al.optimal_welfare(game, cap=20)

    def test_a_restricted_search_is_capped_by_its_own_profiles(self):
        # as for the chain's residual optimum: agents held to one action add
        # no branch, and the six free ones have a branch per profile of theirs
        game = private_pairs_game(9)
        choices = [[1, 2] if i % 3 else [1] for i in range(game.n)]
        size = 2**6
        assert _best_profile(game._engine, choices, size) == direct_scan_choices(game, choices)
        with pytest.raises(
            al.SizeCapError,
            match=f"^optimum DFS reached {size} branches",
        ):
            _best_profile(game._engine, choices, size - 1)

    def test_leaves_no_cyclic_garbage(self):
        games = [
            al.gen_mc_blind(6, 3, 0.01, label_mixes(3)[2]),
            coverage_game(5, 4, [Compromise.BLIND, Compromise.ISOLATED]),
        ]
        gc.collect()
        gc.disable()
        try:
            for game in games:
                al.optimal_welfare(game)
                al.enumerate_pne(game)
            # a game builds its evaluation kernel, which goes with the game
            for game in (
                al.gen_mc_blind(6, 3, 0.01, label_mixes(3)[2]),
                coverage_game(6, 4, [Compromise.BLIND]),
            ):
                al.welfare_eval(game, al.empty_profile(game))
            del game
            assert gc.collect() == 0
        finally:
            gc.enable()
        # the kernel takes no part in comparison, hashing or the repr
        twin = coverage_game(5, 4, [Compromise.BLIND, Compromise.ISOLATED])
        al.enumerate_pne(twin)
        assert games[1]._engine is not twin._engine
        assert games[1] == twin and hash(games[1]) == hash(twin)
        assert "_engine" not in repr(twin) and "_Engine" not in repr(twin)


class TestTheoreticalPoa:
    def test_reference_values(self):
        vug = UtilityClass.GENERAL_VUG
        mc = UtilityClass.MARGINAL_CONTRIBUTION
        assert al.theoretical_poa(10, 0, utility_class=vug) == pytest.approx(0.5)
        assert al.theoretical_poa(10, 9, utility_class=vug) == pytest.approx(0.1)
        assert al.theoretical_poa(10, 9, any_blind=True, utility_class=mc) == pytest.approx(0.1)
        assert al.theoretical_poa(10, 1, any_blind=True, utility_class=mc) == pytest.approx(0.5)
        assert al.theoretical_poa(10, 1, utility_class=mc) == pytest.approx(1 / 3)
        assert al.theoretical_poa(5, 2, any_disabled=True, utility_class=vug) == 0.0

    def test_single_agent_class_is_efficient(self):
        assert al.theoretical_poa(1, 0) == pytest.approx(1.0)

    def test_nonincreasing_in_k(self):
        for klass in UtilityClass:
            for n in (3, 5, 10):
                prev = None
                for k in range(n + 1):
                    b = al.theoretical_poa(
                        n, k, any_blind=(k > 0), utility_class=klass
                    )
                    if prev is not None:
                        assert b <= prev + 1e-15
                    prev = b

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            al.theoretical_poa(3, 4)
        with pytest.raises(ValueError):
            al.theoretical_poa(3, 0, any_blind=True)


class TestInstancePoa:
    def test_uncompromised_equal_share_games_meet_half(self):
        for seed in range(20):
            game = al.gen_random_separable(
                n=3 + seed % 3,
                max_resources=4,
                max_actions=4,
                seed=seed,
                utility_choices=(Utility.EQUAL_SHARE,),
            )
            report = al.instance_poa(game)
            if report.ratio is not None:
                assert report.ratio >= 0.5 - al.TOLERANCE
                assert report.bound_satisfied

    def test_shared_resource_family_ratio(self):
        report = al.instance_poa(al.gen_mc_blind(6, 3, 0.01))
        assert report.ratio == pytest.approx(1.01 / 4.01, abs=1e-12)
        assert report.theoretical_bound == pytest.approx(0.25)
        assert report.bound_satisfied

    def test_disabled_agent_collapses_the_ratio(self):
        for big in (10.0, 100.0):
            g = al.GameInstance(
                welfare=al.SeparableWelfare(curves=((0.0, big, big), (0.0, 1.0, 1.0))),
                action_sets=((frozenset({0}),), (frozenset({1}),)),
                utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
                compromise=(Compromise.DISABLED, Compromise.NORMAL),
            )
            report = al.instance_poa(g)
            assert report.theoretical_bound == 0.0
            assert report.ratio < 1.0 / big
            assert report.bound_satisfied

    def test_all_zero_optimum_reported_undefined(self):
        # every profile of a worthless game is an equilibrium, and a ratio
        # over a zero optimum is undefined
        g = al.GameInstance(
            welfare=al.SeparableWelfare(curves=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
            action_sets=((frozenset({0}),), (frozenset({0}), frozenset({1}))),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
            compromise=(Compromise.BLIND, Compromise.NORMAL),
        )
        report = al.instance_poa(g)
        assert report.opt_welfare == 0.0
        assert report.worst_ne_welfare == 0.0
        assert report.ratio is None
        assert report.bound_satisfied is None
        assert report.pne_count == 6 == len(al.enumerate_pne(g).profiles)

    def test_empty_pne_reported_undefined(self, monkeypatch):
        # the game classes here always have an equilibrium, so the empty set
        # comes from a stand-in search that visits no equilibrium
        g = al.gen_k_blind(3, 1, 0.01, 0.01)
        opt = al.optimal_welfare(g)
        monkeypatch.setattr(equilibrium, "_search", lambda game, classes, cap, visit: (0, 0))
        report = al.instance_poa(g)
        assert (report.opt_welfare, report.opt_profile) == opt
        assert report.worst_ne_welfare is None
        assert report.worst_ne_profile is None
        assert report.ratio is None
        assert report.bound_satisfied is None
        assert report.pne_count == 0

    def test_an_optimum_passed_in_serves_every_relabeling(self):
        # the optimum ignores the labels, so bounds computes it once per k
        games = (hub(6, 3, 0.01, 0.02), al.gen_mc_blind(6, 3, 0.03), al.gen_sim_game(5, 4, 0.05))
        for game in games:
            optimum = al.optimal_welfare(game)
            for labels in label_mixes(len(game.compromised)):
                for twin in (relabeled(game, dict(enumerate(labels))), with_disabled(game)):
                    assert al.instance_poa(twin, optimum) == al.instance_poa(twin)

    def test_overflowing_optimum_reported_undefined(self):
        # 1e308 + 1e308 overflows to inf, and inf / inf is NaN: a NaN ratio
        # used to read as a violated bound
        g = overflowing_pair()
        report = al.instance_poa(g)
        assert report.opt_welfare == math.inf
        assert report.ratio is None
        assert report.bound_satisfied is None
        assert report.pne_count == 2


def poa_summary(game):
    """instance_poa's count, worst equilibrium and ratio."""
    report = al.instance_poa(game)
    assert type(report.pne_count) is int
    return report.pne_count, report.worst_ne_welfare, report.worst_ne_profile, report.ratio


def listing_summary(game):
    """The same four read from the listing of every equilibrium profile."""
    eqs = al.enumerate_pne(game)
    worst_w, worst_a = eqs.worst() or (None, None)
    opt_w, _ = al.optimal_welfare(game)
    ratio = None
    if worst_a is not None and al.TOLERANCE < opt_w < math.inf:
        ratio = worst_w / opt_w
    return len(eqs.profiles), worst_w, worst_a, ratio


def assert_matches_the_profile_path(game):
    """instance_poa's count, worst equilibrium and ratio are the ones of the
    listing of every equilibrium profile; on a table missing an entry both
    name the same one."""
    assert outcome(poa_summary, game) == outcome(listing_summary, game)


def with_disabled(game):
    """``game`` with its compromised agents disabled instead."""
    return dataclasses.replace(game, compromise=tuple(
        Compromise.NORMAL if c is Compromise.NORMAL else Compromise.DISABLED
        for c in game.compromise
    ))


# the choices games_with_twins draws, each as one pick from a list: every
# falling run of n increments, and every set of at most two of m ids
FALLING = [None] + [
    st.sampled_from(list(itertools.combinations_with_replacement(
        (1.0, 0.7, 0.3, 0.2, 0.1, 0.0), n
    )))
    for n in range(1, 8)
]
SMALL_SETS = [
    st.sampled_from([
        frozenset(c) for size in range(3) for c in itertools.combinations(range(m), size)
    ])
    for m in range(4)
]


@st.composite
def games_with_twins(draw):
    """Separable games whose agents are copies of one to three templates.
    A template is a label, a utility and one of one or two layouts: actions
    over shared resources and private resources of the agent's own, with
    the layout's curves. The resource ids are then shuffled, so a class's
    private resources may straddle other terms of the welfare sum."""
    n = draw(st.integers(1, 7))

    def curves(lo, hi):
        return [
            tuple(itertools.accumulate(draw(FALLING[n]), initial=0.0))
            for _ in range(draw(st.integers(lo, hi)))
        ]

    shared = curves(1, 3)
    layouts = []
    for _ in range(draw(st.integers(1, 2))):
        privates = curves(0, 2)
        actions = [
            (draw(SMALL_SETS[len(shared)]), draw(SMALL_SETS[len(privates)]))
            for _ in range(draw(st.integers(1, 3)))
        ]
        layouts.append((privates, actions))
    templates = [
        (draw(st.sampled_from(layouts)), draw(st.sampled_from(Compromise)),
         draw(st.sampled_from(Utility)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    all_curves, action_sets, labels, utilities = list(shared), [], [], []
    for _ in range(n):
        (privates, actions), label, utility = draw(st.sampled_from(templates))
        ids = range(len(all_curves), len(all_curves) + len(privates))
        all_curves += privates
        action_sets.append([res | {ids[p] for p in own} for res, own in actions])
        labels.append(label)
        utilities.append(utility)
    order = draw(st.permutations(range(len(all_curves))))
    new_id = {old: new for new, old in enumerate(order)}
    return al.GameInstance(
        welfare=al.SeparableWelfare(curves=tuple(all_curves[old] for old in order)),
        action_sets=tuple([frozenset(new_id[r] for r in a) for a in acts] for acts in action_sets),
        utilities=tuple(utilities),
        compromise=tuple(labels),
    )


@st.composite
def tables_with_twins(draw):
    """Tabulated games whose agents are copies of one to three templates, a
    label and an action set over the table's resources. The table is a
    weighted coverage or random values on a coarse grid, and now and then
    misses up to two entries."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 3))
    subsets = [
        frozenset(c) for size in range(m + 1) for c in itertools.combinations(range(m), size)
    ]
    if draw(st.booleans()):
        cover = [draw(st.frozensets(st.integers(0, 3), min_size=1)) for _ in range(m)]
        weights = draw(st.lists(COARSE, min_size=4, max_size=4))
        table = {
            s: sum(weights[e] for e in sorted(frozenset().union(*(cover[r] for r in s))))
            for s in subsets
        }
    else:
        table = {s: draw(COARSE) if s else 0.0 for s in subsets}
    if draw(st.integers(0, 3)) == 0:
        for s in draw(st.sets(st.sampled_from(subsets), max_size=2)):
            del table[s]
    actions = st.lists(st.sampled_from(subsets), min_size=1, max_size=3)
    templates = [
        (draw(st.sampled_from(Compromise)), draw(actions)) for _ in range(draw(st.integers(1, 3)))
    ]
    agents = [draw(st.sampled_from(templates)) for _ in range(n)]
    return GameInstance(
        welfare=al.TabulatedWelfare.from_mapping(table, m),
        action_sets=tuple(acts for _, acts in agents),
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * n,
        compromise=tuple(label for label, _ in agents),
    )


def cover8():
    """CI's ``smoke-cover8.json``: weighted coverage of four elements by
    three resources, each of 8 agents picking one or none."""
    cover, weights = ({0, 1}, {1, 2}, {2, 3}), (1.0, 0.5, 0.25, 0.125)
    table = {
        frozenset(s): sum(weights[e] for e in sorted(set().union(*(cover[r] for r in s))))
        for size in range(4) for s in itertools.combinations(range(3), size)
    }
    return GameInstance(
        welfare=al.TabulatedWelfare.from_mapping(table, 3),
        action_sets=(({0}, {1}, {2}),) * 8,
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * 8,
        compromise=(Compromise.NORMAL,) * 8,
    )


class TestClassSearch:
    """instance_poa searches over classes of interchangeable agents; the
    profile listing, every agent a class of its own, is its oracle."""

    def test_matches_the_profile_path_on_families(self):
        games = []
        for n in range(2, 11):
            for k in range(n + 1):
                for labels in label_mixes(k)[: 1 if k == 0 else 3]:
                    family = [al.gen_mc_blind(n, k, 0.03, labels)]
                    if k < n:
                        family.append(hub(n, k, 0.01, 0.02, labels))
                    if k == n - 1:
                        family.append(al.gen_sim_game(n, k, 0.05, labels))
                    games += family + [with_disabled(g) for g in family if k]
                if 1 <= k <= n - 2:
                    noblind = al.gen_mc_noblind(n, k, 0.01)
                    games += [noblind, with_disabled(noblind)]
        for values in ([1.0, 0.7, 0.3, 0.4, 2.0, 0.8], [0.5, 0.5, 0.5, 0.5, 0.5, 2.0]):
            for labels in itertools.product(Compromise, repeat=3):
                games.append(al.gen_fig1(values, labels))
        grouped = 0
        for game in games:
            assert_matches_the_profile_path(game)
            grouped += len(enumeration._agent_classes(game)) < game.n
        assert len(games) > 700 and grouped > 500

    def test_hub_families_have_a_class_per_label_and_role(self):
        B, I = Compromise.BLIND, Compromise.ISOLATED
        classes = enumeration._agent_classes
        assert classes(hub(8, 3, 0.01, 0.02, [B, I, B])) == [[0, 2], [1], [3, 4, 5, 6], [7]]
        assert classes(al.gen_mc_blind(8, 2, 0.03)) == [[0, 1], [2, 3, 4, 5, 6, 7]]
        assert classes(al.gen_sim_game(6, 5, 0.05)) == [[0, 1, 2, 3, 4], [5]]
        # each shadow shares a resource with its isolated agent: singletons
        assert classes(al.gen_mc_noblind(7, 2, 0.01)) == [[0], [1], [2], [3], [4, 5, 6]]
        # a table: agents 1 and 3 have the same action sets
        assert classes(coverage_game(3, 4)) == [[0], [1, 3], [2]]

    def test_a_class_straddling_a_fixed_term_is_split(self):
        # agents 0 and 1 each take a private resource worth 0.1 or the shared
        # resource 4; agents 2 and 3 hold resources 0 and 2, which lie
        # around agent 0's private resource 1. Resource order sums the two
        # equilibria as ((0.1 + 0.1) + 0.6) + 0.3 = 1.1 and ((0.1 + 0.6) +
        # 0.1) + 0.3 = 1.0999999999999999, so the pair is not one class
        step = lambda v: (0.0,) + (v,) * 4
        game = GameInstance(
            welfare=al.SeparableWelfare(
                curves=(step(0.1), step(0.1), step(0.6), step(0.1), step(0.3))
            ),
            action_sets=(({1}, {4}), ({3}, {4}), ({0},), ({2},)),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 4,
            compromise=(Compromise.NORMAL,) * 4,
        )
        assert enumeration._agent_classes(game) == [[0], [1], [2], [3]]
        report = al.instance_poa(game)
        assert (report.pne_count, report.worst_ne_welfare) == (2, 1.0999999999999999)
        assert_matches_the_profile_path(game)

    def test_ties_go_to_the_first_profile_across_interleaved_classes(self):
        # agents 0 and 2 take resource 0 or 1, agents 1 and 3 resource 0 or
        # both; all 24 equilibria are worth 1.5, and the search, walking
        # agents 0, 2, 1, 3, meets the orbit of the lexicographically first
        # one after another orbit
        game = GameInstance(
            welfare=al.SeparableWelfare(
                curves=((0.0, 1.0, 1.2, 1.2, 1.2), (0.0, 0.2, 0.3, 0.3, 0.3))
            ),
            action_sets=(({0}, {1}), ({0}, {0, 1})) * 2,
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 4,
            compromise=(Compromise.NORMAL,) * 4,
        )
        assert enumeration._agent_classes(game) == [[0, 2], [1, 3]]
        report = al.instance_poa(game)
        assert (report.pne_count, report.worst_ne_welfare) == (24, 1.5)
        assert report.worst_ne_profile == tuple(map(frozenset, ((), {0}, {1}, {0, 1})))
        assert_matches_the_profile_path(game)

    def test_a_tables_agents_with_the_same_action_sets_are_one_class(self):
        game = cover8()
        assert enumeration._agent_classes(game) == [list(range(8))]
        assert al.instance_poa(game).pne_count == 52670
        assert_matches_the_profile_path(game)

    def test_a_table_groups_neither_shapes_nor_labels(self):
        # agents 0 and 1 each take resource 0 or a private resource of their
        # own, every resource worth 1 however many select it. The separable
        # game groups them, as their actions match up to private resources
        # with equal curves; its table twin does not, as a table could
        # value {1} and {2} apart
        separable = GameInstance(
            welfare=al.SeparableWelfare(curves=((0.0, 1.0, 1.0),) * 3),
            action_sets=(({0}, {1}), ({0}, {2})),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
            compromise=(Compromise.NORMAL,) * 2,
        )
        table = {
            frozenset(s): float(size)
            for size in range(4) for s in itertools.combinations(range(3), size)
        }
        twin = dataclasses.replace(separable, welfare=al.TabulatedWelfare.from_mapping(table, 3))
        assert enumeration._agent_classes(separable) == [[0, 1]]
        assert enumeration._agent_classes(twin) == [[0], [1]]
        assert poa_summary(twin) == poa_summary(separable)
        assert_matches_the_profile_path(twin)
        # the same action sets, but another label
        same = dataclasses.replace(twin, action_sets=(({0}, {1}),) * 2)
        assert enumeration._agent_classes(same) == [[0, 1]]
        blind = dataclasses.replace(same, compromise=(Compromise.NORMAL, Compromise.BLIND))
        assert enumeration._agent_classes(blind) == [[0], [1]]
        assert_matches_the_profile_path(blind)

    def test_a_missing_entry_is_the_one_the_profile_scan_meets_first(self):
        # agents 0 and 2 take resource 2 or nothing, agent 1 resources 0 and
        # 1 or nothing; the table misses {0}, {0, 1} and {0, 1, 2}. The scan
        # meets {0, 1, 2} first, when agent 1 tests its actions at (∅, ∅,
        # {2}); the orbits, agents 0 and 2 dealt before agent 1, meet {0, 1}
        # first, when agent 0 tests its actions at (∅, {0, 1}, ∅)
        table = {
            frozenset(s): 0.1 if 2 in s else 0.0
            for size in range(4) for s in itertools.combinations(range(3), size)
            if s not in ((0,), (0, 1), (0, 1, 2))
        }
        game = GameInstance(
            welfare=al.TabulatedWelfare.from_mapping(table, 3),
            action_sets=(({2},), ({0, 1},), ({2},)),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 3,
            compromise=(Compromise.NORMAL,) * 3,
        )
        classes = enumeration._agent_classes(game)
        assert classes == [[0, 2], [1]]
        search = functools.partial(enumeration._search, game, classes, 100, lambda *_: None)
        assert outcome(search) == ("missing", "no welfare table entry for base set [0, 1]")
        missing = ("missing", "no welfare table entry for base set [0, 1, 2]")
        assert outcome(poa_summary, game) == outcome(listing_summary, game) == missing

    @given(st.one_of(games_with_twins(), tables_with_twins()))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_profile_path_property(self, game):
        assert_matches_the_profile_path(game)

    @given(st.one_of(games_with_twins(), tables_with_twins()), st.data())
    @settings(max_examples=120, deadline=None)
    def test_count_and_ratio_do_not_depend_on_agent_order(self, game, data):
        order = data.draw(st.permutations(range(game.n)))
        permuted = GameInstance(
            welfare=game.welfare,
            action_sets=tuple(game.action_sets[i] for i in order),
            utilities=tuple(game.utilities[i] for i in order),
            compromise=tuple(game.compromise[i] for i in order),
        )

        def counted(g):
            count, worst_w, _, ratio = poa_summary(g)
            return count, worst_w, ratio

        got, moved = outcome(counted, game), outcome(counted, permuted)
        # on a table missing an entry, the one met first depends on the order
        if "missing" not in (got[0], moved[0]):
            assert moved == got
        assert_matches_the_profile_path(permuted)

    def test_counts_exactly_past_the_reach_of_the_profile_path(self):
        # mc_blind: the blind agents take the shared resource, and every
        # profile of the normal agents is then an equilibrium
        report = al.instance_poa(al.gen_mc_blind(24, 2, 0.01))
        assert report.pne_count == 2**22
        assert report.ratio == 1.01 / 3.01
        report = al.instance_poa(al.gen_mc_blind(200, 2, 0.01))
        assert report.pne_count == 2**198
        assert report.worst_ne_profile == (frozenset({0}),) * 2 + (frozenset(),) * 198
        assert report.ratio == 1.01 / 3.01


def overflowing_pair():
    """Two agents, each free to take either of two resources worth 1e308;
    the optimum, one agent on each, overflows to inf."""
    return al.GameInstance(
        welfare=al.SeparableWelfare(curves=((0.0, 1e308, 1e308),) * 2),
        action_sets=(({0}, {1}),) * 2,
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
        compromise=(Compromise.NORMAL,) * 2,
    )


def chain_inputs(game):
    report = al.instance_poa(game)
    assert report.ratio is not None
    return report.worst_ne_profile, report.opt_profile


def _union(a: JointAction, b: JointAction) -> JointAction:
    return tuple(x | y for x, y in zip(a, b))


def _only(a: JointAction, agents) -> JointAction:
    keep = set(agents)
    return tuple(act if i in keep else al.EMPTY_ACTION for i, act in enumerate(a))


def _solo(n: int, i: int, act: Action) -> JointAction:
    return tuple(act if j == i else al.EMPTY_ACTION for j in range(n))


def reference_chain_general(
    game: GameInstance,
    a_ne: JointAction,
    a_opt: JointAction,
    validate: bool = True,
) -> al.BoundChainCertificate:
    """Oracle for ``check_bound_chain_general``: every term is built as a
    profile and valued by the profile-level definitions.

    Evaluate the (2+k)-factor worst-case chain on one instance.

    Walks the inequality chain from the optimal welfare down to
    (2+k)·W(equilibrium), evaluating both sides of every step with the
    instance's observation structure, for any valid-utility assignment with
    no disabled agents. The chain is derived for k < n-1; larger k is still
    evaluated but flagged extrapolated.
    """
    if game.agents_with(Compromise.DISABLED):
        raise ValueError("the chain is defined for games without disabled agents")
    if validate:
        equilibrium._validate_chain_inputs(game, a_ne, a_opt)

    n = game.n
    comp = set(game.compromised)
    k = len(comp)
    normals = [i for i in range(n) if i not in comp]
    observed = al.observation_structure(game)
    w = lambda p: al.welfare_eval(game, p)

    w_opt = w(a_opt)
    w_ne = w(a_ne)
    union_all = _union(a_opt, a_ne)

    # telescoped insertion of optimal actions (agent order is index order)
    telescope = 0.0
    for i in range(n):
        upto = _union(a_ne, _only(a_opt, range(i + 1)))
        before = _union(a_ne, _only(a_opt, range(i)))
        telescope += w(upto) - w(before)

    # the same marginals, each taken in its observer's reduced context
    reduced = 0.0
    for i in range(n):
        ctx = _only(a_ne, observed[i])
        reduced += w(_union(_solo(n, i, a_opt[i]), ctx)) - w(ctx)

    opt_at_ctx = sum(
        al.designed_utility(
            game, i, _union(_solo(n, i, a_opt[i]), _only(a_ne, observed[i]))
        )
        for i in normals
    )
    solo_opt = sum(w(_solo(n, i, a_opt[i])) for i in comp)

    ne_at_ctx = sum(
        al.designed_utility(
            game, i, _union(_solo(n, i, a_ne[i]), _only(a_ne, observed[i]))
        )
        for i in normals
    )
    eff_opt_alone = sum(al.effective_utility(game, i, _solo(n, i, a_opt[i])) for i in comp)
    eff_ne_alone = sum(al.effective_utility(game, i, _solo(n, i, a_ne[i])) for i in comp)
    solo_ne = sum(w(_solo(n, i, a_ne[i])) for i in comp)

    values = [
        ("optimum_below_joined_profiles", w_opt, w(union_all)),
        ("telescoped_insertion", w(union_all), w_ne + telescope),
        ("submodular_context_reduction", w_ne + telescope, w_ne + reduced),
        (
            "utilities_dominate_marginals",
            w_ne + reduced,
            w_ne + opt_at_ctx + solo_opt,
        ),
        (
            "equilibrium_deviations_unprofitable",
            w_ne + opt_at_ctx + solo_opt,
            w_ne + ne_at_ctx + eff_opt_alone,
        ),
        (
            "utility_sums_below_welfare",
            w_ne + ne_at_ctx + eff_opt_alone,
            2.0 * w_ne + eff_ne_alone,
        ),
        (
            "compromised_utilities_below_solo_welfare",
            2.0 * w_ne + eff_ne_alone,
            2.0 * w_ne + solo_ne,
        ),
        (
            "solo_welfares_below_equilibrium_welfare",
            2.0 * w_ne + solo_ne,
            (2.0 + k) * w_ne,
        ),
    ]
    steps = tuple(
        equilibrium.ChainStep(label, left, right, left <= right + al.TOLERANCE)
        for label, left, right in values
    )
    return al.BoundChainCertificate(
        kind="2+k",
        steps=steps,
        holds=all(s.holds for s in steps),
        extrapolated=k >= n - 1,
    )


def reference_chain_mc(
    game: GameInstance,
    a_ne: JointAction,
    a_opt: JointAction,
    validate: bool = True,
) -> al.BoundChainCertificate:
    """Oracle for ``check_bound_chain_mc``, in the same style.

    Evaluate the (1+k)-factor chain for marginal-contribution games with
    at least one blind agent and no disabled agents.

    Uses the residual welfare over the normal agents, with the blind agents
    committed to their equilibrium actions; the residual quantities are
    evaluated count-aware through the parent welfare.
    """
    if any(u is not Utility.MARGINAL_CONTRIBUTION for u in game.utilities):
        raise ValueError("the chain is defined for marginal-contribution games")
    blind = game.agents_with(Compromise.BLIND)
    if not blind:
        raise ValueError("the chain needs at least one blind agent")
    if game.agents_with(Compromise.DISABLED):
        raise ValueError("the chain is defined for games without disabled agents")
    if validate:
        equilibrium._validate_chain_inputs(game, a_ne, a_opt)

    n = game.n
    comp = set(game.compromised)
    k = len(comp)
    normals = [i for i in range(n) if i not in comp]
    w = lambda p: al.welfare_eval(game, p)

    ne_blind = _only(a_ne, blind)
    w_ne_blind = w(ne_blind)
    w_ne = w(a_ne)
    w_opt = w(a_opt)

    def residual(profile_over_normals: JointAction) -> float:
        return w(_union(profile_over_normals, ne_blind)) - w_ne_blind

    opt_normals = _only(a_opt, normals)
    ne_normals = _only(a_ne, normals)

    solo_opt = sum(w(_solo(n, i, a_opt[i])) for i in comp)
    solo_ne = sum(w(_solo(n, i, a_ne[i])) for i in comp)

    # residual optimum: the normal agents' best joint action on top of the
    # blind agents' equilibrium actions
    size = 1
    for i in normals:
        size *= len(game.action_sets[i])
    cap = equilibrium.DEFAULT_ENUM_CAP
    if size > cap:
        raise al.SizeCapError(f"{size} residual joint actions exceed the cap of {cap}")
    eng = game._engine
    choices = [
        range(len(acts))
        if i in normals
        else [acts.index(a_ne[i]) if i in blind else 0]  # 0: the empty action
        for i, acts in enumerate(game.action_sets)
    ]
    best_joined, _ = _best_profile(eng, choices)
    best_residual = max(0.0, best_joined - w_ne_blind)

    joined = w(_union(a_opt, ne_blind))
    values = [
        ("optimum_below_joined_blind_profile", w_opt, joined),
        ("submodular_peel_of_compromised", joined, w(_union(opt_normals, ne_blind)) + solo_opt),
        (
            "compromised_best_respond_alone",
            w(_union(opt_normals, ne_blind)) + solo_opt,
            w(_union(opt_normals, ne_blind)) + solo_ne,
        ),
        (
            "fold_into_blind_profile",
            w(_union(opt_normals, ne_blind)) + solo_ne,
            w(_union(opt_normals, ne_blind)) + w_ne_blind + (k - 1) * w_ne,
        ),
        (
            "residual_welfare_rewrite",
            w(_union(opt_normals, ne_blind)) + w_ne_blind + (k - 1) * w_ne,
            residual(opt_normals) + 2.0 * w_ne_blind + (k - 1) * w_ne,
        ),
        (
            "residual_optimum",
            residual(opt_normals) + 2.0 * w_ne_blind + (k - 1) * w_ne,
            best_residual + 2.0 * w_ne_blind + (k - 1) * w_ne,
        ),
        (
            "residual_factor_two",
            best_residual + 2.0 * w_ne_blind + (k - 1) * w_ne,
            2.0 * residual(ne_normals) + 2.0 * w_ne_blind + (k - 1) * w_ne,
        ),
        (
            "residual_unfold",
            2.0 * residual(ne_normals) + 2.0 * w_ne_blind + (k - 1) * w_ne,
            2.0 * w(_union(ne_normals, ne_blind)) + (k - 1) * w_ne,
        ),
        (
            "joined_equilibrium_below_full",
            2.0 * w(_union(ne_normals, ne_blind)) + (k - 1) * w_ne,
            (1.0 + k) * w_ne,
        ),
    ]
    steps = tuple(
        equilibrium.ChainStep(label, left, right, left <= right + al.TOLERANCE)
        for label, left, right in values
    )
    return al.BoundChainCertificate(
        kind="1+k",
        steps=steps,
        holds=all(s.holds for s in steps),
        extrapolated=False,
    )


def chain_outcome(f, *args, **kwargs):
    """The repr of f's certificate, or the type and message of what it raised."""
    try:
        return repr(f(*args, **kwargs))
    except Exception as exc:  # the oracle comparison covers every error
        return type(exc).__name__, str(exc)


def assert_chains_match(game, a_ne, a_opt, **kwargs):
    for fast, ref in (
        (al.check_bound_chain_general, reference_chain_general),
        (al.check_bound_chain_mc, reference_chain_mc),
    ):
        got = chain_outcome(fast, game, a_ne, a_opt, **kwargs)
        assert got == chain_outcome(ref, game, a_ne, a_opt, **kwargs), (fast.__name__, got)


def random_profile(game, rng):
    return tuple(rng.choice(acts) for acts in game.action_sets)


def relabeled(game, labels):
    """``game`` with compromise labels ``labels`` (agent -> label)."""
    return dataclasses.replace(
        game,
        compromise=tuple(labels.get(i, Compromise.NORMAL) for i in range(game.n)),
    )


class TestBoundChainsMatchTheReference:
    """The certificates equal the profile-level oracles field for field,
    errors included."""

    def test_families_at_every_equilibrium(self):
        checked = 0
        for game in family_grid(HUB_SETTINGS[:1]):
            if game.n > 7:
                continue
            equilibria, (_, a_opt) = family_scan(game)
            assert list(al.enumerate_pne(game).profiles) == equilibria
            for a_ne in equilibria:
                assert_chains_match(game, a_ne, a_opt)
                checked += 1
        assert checked >= 200

    @pytest.mark.parametrize("utilities", [(Utility.MARGINAL_CONTRIBUTION,), tuple(Utility)])
    def test_random_separable_games(self, utilities):
        B, I = Compromise.BLIND, Compromise.ISOLATED
        for seed in range(80):
            labels = ([], [B], [I], [B, I], [I, B, B])[seed % 5]
            game = al.gen_random_separable(
                n=len(labels) + 1 + seed % 4, max_resources=3, max_actions=3, k=len(labels),
                labels=labels, seed=seed, utility_choices=utilities,
            )
            _, a_opt = al.optimal_welfare(game)
            for a_ne in al.enumerate_pne(game).profiles[:3]:
                assert_chains_match(game, a_ne, a_opt)
            # a profile that need not be an equilibrium, refused and unchecked
            rng = random.Random(seed)
            a_ne = random_profile(game, rng)
            assert_chains_match(game, a_ne, a_opt)
            assert_chains_match(game, a_ne, random_profile(game, rng), validate=False)

    def test_coverage_tables_with_holes_and_blind_agents(self):
        B, I = Compromise.BLIND, Compromise.ISOLATED
        errors = 0
        for seed in range(120):
            labels = ([], [B], [B, I], [I, B])[seed % 4]
            n = len(labels) + 1 + seed % 3
            rng = random.Random(seed)
            games = (
                coverage_game(seed, n, labels),
                holed_table_game(seed, n, labels),
                holed_table_game(seed, n, labels, missing=0.4),
            )
            for game in games:
                # with many holes, which missing entry is reported depends
                # on the order the terms are valued in
                for _ in range(4):
                    a_ne, a_opt = random_profile(game, rng), random_profile(game, rng)
                    assert_chains_match(game, a_ne, a_opt, validate=False)
                    errors += isinstance(chain_outcome(
                        al.check_bound_chain_general, game, a_ne, a_opt, validate=False
                    ), tuple)
                try:
                    pnes = al.enumerate_pne(game).profiles
                    _, a_opt = al.optimal_welfare(game)
                except al.ModelIncompleteError:
                    continue
                for a_ne in pnes[:3]:
                    assert_chains_match(game, a_ne, a_opt)
        assert errors >= 100

    @pytest.mark.parametrize(
        "missing, a_ne, a_opt, reported",
        [
            # the insertion of a_opt meets {0, 1} before the joined profile
            ([{0, 1}, {0, 1, 2}], [{0}, {0}], [{1}, {2}], [0, 1]),
            # a marginal values the context with the action before the one
            # without it
            ([{1}, {1, 2}], [{0}, {1}], [{2}, {2}], [1, 2]),
        ],
    )
    def test_reports_the_missing_entry_the_reference_meets_first(
        self, missing, a_ne, a_opt, reported
    ):
        subsets = [frozenset(s) for c in range(4) for s in itertools.combinations(range(3), c)]
        game = al.GameInstance(
            welfare=al.TabulatedWelfare.from_mapping(
                {s: float(len(s)) for s in subsets if set(s) not in missing}, 3
            ),
            action_sets=(subsets[1:],) * 2,
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
            compromise=(Compromise.NORMAL,) * 2,
        )
        a_ne, a_opt = tuple(map(frozenset, a_ne)), tuple(map(frozenset, a_opt))
        assert_chains_match(game, a_ne, a_opt, validate=False)
        with pytest.raises(al.ModelIncompleteError) as exc:
            al.check_bound_chain_general(game, a_ne, a_opt, validate=False)
        assert str(exc.value).endswith(f"base set {reported}")

    def test_compromised_ids_out_of_set_order(self):
        # the compromised sums run in set order, which for ids past 8 is not
        # index order (list({1, 8, 9}) == [8, 1, 9]); a sum in index order
        # rounds differently on some of these games
        B, I = Compromise.BLIND, Compromise.ISOLATED
        checked = 0
        for seed in range(150):
            rng = random.Random(seed)
            n = 9 + seed % 6
            ids = rng.sample(range(n), rng.randint(2, 4))
            if list(set(ids)) == sorted(ids):
                continue
            labels = {i: B if j == 0 or rng.random() < 0.5 else I for j, i in enumerate(ids)}
            for utilities in ((Utility.MARGINAL_CONTRIBUTION,), tuple(Utility)):
                game = relabeled(al.gen_random_separable(
                    n=n, max_resources=5, max_actions=4, seed=seed, utility_choices=utilities
                ), labels)
                assert_chains_match(
                    game, random_profile(game, rng), random_profile(game, rng), validate=False
                )
                checked += 1
        assert checked >= 100

    @given(st.one_of(small_separable_games(), small_tabulated_games()), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference_property(self, game, data):
        labels = {
            i: data.draw(st.sampled_from((Compromise.BLIND, Compromise.ISOLATED)))
            for i in data.draw(st.sets(st.integers(0, game.n - 1)))
        }
        game = relabeled(game, labels)
        profiles = st.tuples(*(st.sampled_from(acts) for acts in game.action_sets))
        a_ne, a_opt = data.draw(profiles), data.draw(profiles)
        assert_chains_match(game, a_ne, a_opt, validate=data.draw(st.booleans()))


class TestBoundChains:
    def test_general_chain_on_hub_family(self):
        g = hub(4, 2, 0.01, 0.01)
        a_ne, a_opt = chain_inputs(g)
        cert = al.check_bound_chain_general(g, a_ne, a_opt)
        assert cert.holds
        assert not cert.extrapolated
        assert cert.steps[-1].right == pytest.approx(4.0 * 1.0, abs=1e-9)  # (2+k)W(ne)

    def test_uncompromised_chain_reduces_to_factor_two(self):
        g = hub(3, 0, 0.01, 0.01)
        a_ne, a_opt = chain_inputs(g)
        cert = al.check_bound_chain_general(g, a_ne, a_opt)
        assert cert.holds
        assert cert.steps[-1].right == pytest.approx(
            2.0 * al.welfare_eval(g, a_ne), abs=1e-12
        )

    def test_chain_holds_with_slack_when_optimum_is_equilibrium(self):
        g = al.gen_fig1([1.0, 0.7, 0.3, 0.4, 2.0, 0.8])
        w, a_opt = al.optimal_welfare(g)
        assert al.is_pne(g, a_opt)
        cert = al.check_bound_chain_general(g, a_opt, a_opt)
        assert cert.holds
        assert cert.steps[-1].right > cert.steps[0].left  # strict slack

    def test_extrapolated_flag_for_large_k(self):
        g = hub(3, 2, 0.01, 0.01)
        a_ne, a_opt = chain_inputs(g)
        cert = al.check_bound_chain_general(g, a_ne, a_opt)
        assert cert.extrapolated
        assert cert.holds

    def test_mc_chain_on_shared_resource_family(self):
        g = al.gen_mc_blind(6, 3, 0.01)
        a_ne, a_opt = chain_inputs(g)
        cert = al.check_bound_chain_mc(g, a_ne, a_opt)
        assert cert.holds
        assert cert.steps[-1].right == pytest.approx(4.0 * 1.01, abs=1e-9)

    def test_mc_chain_residual_past_the_joint_space_cap(self):
        # the residual game of the 29 normal agents has 2^29 profiles; its
        # optimum search keeps fewer than 60 states and visits fewer than 60
        # nodes
        g = al.gen_mc_blind(30, 1, 0.01)
        a_ne = (frozenset({0}),) + (frozenset(),) * 29
        assert al.is_pne(g, a_ne)
        _, a_opt = al.optimal_welfare(g)
        cert = al.check_bound_chain_mc(g, a_ne, a_opt)
        assert cert.holds
        assert cert.steps[-1].right == pytest.approx(2.0 * 1.01, abs=1e-12)

    def test_mc_chain_single_blind_agent_gives_factor_two(self):
        g = al.gen_mc_blind(3, 1, 0.05)
        a_ne, a_opt = chain_inputs(g)
        cert = al.check_bound_chain_mc(g, a_ne, a_opt)
        assert cert.holds
        assert cert.steps[-1].right == pytest.approx(
            2.0 * al.welfare_eval(g, a_ne), abs=1e-12
        )

    def test_chains_on_random_games(self):
        checked = 0
        for seed in range(60):
            k = 1 + seed % 2
            labels = [
                [Compromise.BLIND],
                [Compromise.BLIND, Compromise.ISOLATED],
            ][k - 1]
            game = al.gen_random_separable(
                n=4, max_resources=3, max_actions=3, k=k, labels=labels, seed=seed
            )
            report = al.instance_poa(game)
            if report.ratio is None:
                continue
            cert = al.check_bound_chain_general(
                game, report.worst_ne_profile, report.opt_profile, validate=False
            )
            assert cert.holds, (seed, cert.steps)
            if all(u is Utility.MARGINAL_CONTRIBUTION for u in game.utilities):
                cert2 = al.check_bound_chain_mc(
                    game, report.worst_ne_profile, report.opt_profile, validate=False
                )
                assert cert2.holds, (seed, cert2.steps)
            checked += 1
        assert checked >= 50

    def test_preconditions_enforced(self):
        g = al.gen_mc_blind(4, 2, 0.01)
        a_ne, a_opt = chain_inputs(g)
        not_ne = tuple(frozenset() for _ in range(4))
        with pytest.raises(ValueError, match="Nash"):
            al.check_bound_chain_general(g, not_ne, a_opt)
        with pytest.raises(ValueError, match="optimal"):
            al.check_bound_chain_general(g, a_ne, a_ne)
        no_blind = al.gen_mc_noblind(4, 1, 0.01)
        b_ne, b_opt = chain_inputs(no_blind)
        with pytest.raises(ValueError, match="blind"):
            al.check_bound_chain_mc(no_blind, b_ne, b_opt)


class TestWorstCaseSearch:
    def test_deterministic_and_above_bound(self):
        config = al.SearchConfig(
            n=3,
            k=1,
            labels=(Compromise.BLIND,),
            utility_class=UtilityClass.MARGINAL_CONTRIBUTION,
            value_grid=(0.25, 0.5, 1.0, 1.001),
            budget=120,
            seed=7,
        )
        game1, report1 = al.worst_case_search(config)
        game2, report2 = al.worst_case_search(config)
        assert game1 == game2
        assert report1.ratio == report2.ratio
        bound = al.theoretical_poa(
            3, 1, any_blind=True, utility_class=UtilityClass.MARGINAL_CONTRIBUTION
        )
        assert report1.ratio >= bound - al.TOLERANCE

    def test_blind_mc_search_approaches_its_bound(self):
        # with a near-degenerate grid the shared-resource trap is findable
        config = al.SearchConfig(
            n=3,
            k=1,
            labels=(Compromise.BLIND,),
            utility_class=UtilityClass.MARGINAL_CONTRIBUTION,
            value_grid=(1.0, 1.001),
            budget=400,
            seed=3,
        )
        _, report = al.worst_case_search(config)
        assert report.ratio <= 0.5 + 0.01

    def test_uncompromised_equal_share_never_below_half(self):
        config = al.SearchConfig(
            n=3,
            k=0,
            labels=(),
            utility_class=UtilityClass.GENERAL_VUG,
            value_grid=(0.2, 0.5, 1.0),
            budget=200,
            seed=11,
        )
        _, report = al.worst_case_search(config)
        assert report.ratio >= 0.5 - al.TOLERANCE

    def test_skips_candidates_with_an_overflowing_optimum(self, monkeypatch):
        # two resources of 1e308 overflow where one does not
        reports = []

        def instance_poa(game):
            reports.append(poa(game))
            return reports[-1]

        poa = equilibrium.instance_poa
        monkeypatch.setattr(equilibrium, "instance_poa", instance_poa)
        config = al.SearchConfig(
            n=2,
            k=0,
            labels=(),
            utility_class=UtilityClass.GENERAL_VUG,
            value_grid=(1e308,),
            budget=5,
            seed=0,
            max_resources=3,
        )
        _, report = al.worst_case_search(config)
        assert report.ratio == 1.0
        assert report.bound_satisfied
        assert any(r.opt_welfare == math.inf and r.ratio is None for r in reports)

    # three samples of 2^16 profiles and, second, one of 12,754,584, more
    # than DEFAULT_ENUM_CAP, on which the class search ends 12,960 branches
    SAMPLES_2927 = al.SearchConfig(
        n=16,
        k=1,
        labels=(Compromise.BLIND,),
        utility_class=UtilityClass.MARGINAL_CONTRIBUTION,
        value_grid=(0.5, 1.0),
        budget=4,
        seed=2927,
        max_resources=2,
    )

    def test_analyses_candidates_of_any_joint_space_size(self, monkeypatch):
        analysed = []

        def instance_poa(game):
            report = poa(game)
            analysed.append((al.joint_space_size(game), report.pne_count, report.ratio))
            return report

        poa = equilibrium.instance_poa
        monkeypatch.setattr(equilibrium, "instance_poa", instance_poa)
        al.worst_case_search(self.SAMPLES_2927)
        small = (2**16, 2**15, 1.0)
        assert analysed == [small, (12_754_584, 4_251_016, 1.0), small, small]

    def test_skips_candidates_past_the_branch_cap(self, monkeypatch):
        skipped = []

        def instance_poa(game):
            try:
                return poa(game)
            except al.SizeCapError:
                skipped.append(al.joint_space_size(game))
                raise

        poa = equilibrium.instance_poa
        monkeypatch.setattr(equilibrium, "instance_poa", instance_poa)
        # the small samples end 16 branches each
        monkeypatch.setattr(equilibrium, "DEFAULT_ENUM_CAP", 100)
        _, report = al.worst_case_search(self.SAMPLES_2927)
        assert (skipped, report.ratio) == ([12_754_584], 1.0)
        monkeypatch.setattr(equilibrium, "DEFAULT_ENUM_CAP", 0)
        with pytest.raises(ValueError) as exc:
            al.worst_case_search(self.SAMPLES_2927)
        assert str(exc.value).endswith("or an analysis past its cap of branches)")
        assert len(skipped) == 1 + self.SAMPLES_2927.budget

    @pytest.mark.parametrize("labels", [(), (Compromise.BLIND, Compromise.ISOLATED)])
    def test_a_label_list_of_another_length_is_rejected(self, labels):
        # the label rules are the families' own, so the message is theirs
        config = al.SearchConfig(
            n=3,
            k=1,
            labels=labels,
            utility_class=UtilityClass.GENERAL_VUG,
            value_grid=(0.5, 1.0),
            budget=5,
            seed=0,
        )
        message = f"search config: expected 1 labels, got {len(labels)}"
        with pytest.raises(ValueError) as exc:
            al.worst_case_search(config)
        assert str(exc.value) == message

    @pytest.mark.parametrize("labels", [(Compromise.NORMAL,), ("normal",)])
    def test_a_normal_label_is_rejected(self, labels):
        # a normal "compromised" agent would leave the sampled games with
        # nobody compromised while the report reads k=1
        config = al.SearchConfig(
            n=3,
            k=1,
            labels=labels,
            utility_class=UtilityClass.GENERAL_VUG,
            value_grid=(0.5, 1.0),
            budget=5,
            seed=0,
        )
        with pytest.raises(ValueError, match="must not be 'normal'"):
            al.worst_case_search(config)


class TestEquilibriumSetAccessors:
    def test_worst_is_below_every_equilibrium(self):
        g = al.gen_mc_blind(5, 2, 0.1)
        eqs = al.enumerate_pne(g)
        lo = eqs.worst()[0]
        for w in eqs.welfares:
            assert lo <= w

    def test_first_among_ties(self):
        g = al.gen_mc_blind(4, 2, 0.05)
        eqs = al.enumerate_pne(g)
        assert eqs.worst()[1] == eqs.profiles[eqs.welfares.index(min(eqs.welfares))]


class TestChainFalsifiability:
    def test_certificates_fail_on_bogus_equilibria(self):
        # the steps justified by best-responding must break when the input
        # profile is not an equilibrium
        g = al.gen_mc_blind(6, 3, 0.01)
        rep = al.instance_poa(g)
        fake = al.empty_profile(g)
        cert = al.check_bound_chain_mc(g, fake, rep.opt_profile, validate=False)
        assert not cert.holds
        assert "compromised_best_respond_alone" in [
            s.label for s in cert.steps if not s.holds
        ]
        cert2 = al.check_bound_chain_general(g, fake, rep.opt_profile, validate=False)
        assert not cert2.holds


def test_mc_chain_on_random_two_blind_games():
    held = 0
    for seed in range(40):
        game = al.gen_random_separable(
            n=4, max_resources=3, max_actions=3, k=2,
            labels=[Compromise.BLIND, Compromise.BLIND], seed=900 + seed,
            utility_choices=(Utility.MARGINAL_CONTRIBUTION,),
        )
        rep = al.instance_poa(game)
        if rep.ratio is None:
            continue
        cert = al.check_bound_chain_mc(
            game, rep.worst_ne_profile, rep.opt_profile, validate=False
        )
        assert cert.holds, (seed, [s.label for s in cert.steps if not s.holds])
        held += 1
    assert held >= 35
