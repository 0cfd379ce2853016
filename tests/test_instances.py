"""Generator families (closed forms, caption values) and the file format."""

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anarchy_lab as al
from anarchy_lab import EMPTY_ACTION, Compromise, SeparableWelfare, Utility
from anarchy_lab.instances import _labels_for, _step_curve
from test_equilibrium import coverage_game


def hub_ratio_formula(n, k, eps, delta):
    return 1.0 / (1.0 + (n - k - 1) * (1.0 / n - delta) + k * (1.0 - eps))


def label_mixes(k):
    return [
        tuple(mix)
        for mix in itertools.product((Compromise.BLIND, Compromise.ISOLATED), repeat=k)
    ]


def reference_hub_families():
    """The three hub families as separate constructors, each building the
    layout itself: the oracle for the shared builder behind ``gen_k_blind``,
    ``gen_mc_blind`` and ``gen_sim_game``."""
    def k_blind(n, k, eps, delta, labels=None):
        if not 0 <= k < n:
            raise ValueError("need 0 <= k < n")
        labs = _labels_for(k, labels)
        if any(l is Compromise.DISABLED for l in labs):
            raise ValueError("this family takes blind or isolated labels only")
        curves = [_step_curve(1.0, n)]
        for _ in range(k):
            curves.append(_step_curve(1.0 - eps, n))
        for _ in range(n - 1 - k):
            curves.append(_step_curve(1.0 / n - delta, n))
        action_sets = []
        for i in range(n):
            if i < n - 1:
                action_sets.append((EMPTY_ACTION, frozenset({0}), frozenset({i + 1})))
            else:
                action_sets.append((EMPTY_ACTION, frozenset({0})))
        compromise = list(labs) + [Compromise.NORMAL] * (n - k)
        return al.GameInstance(
            welfare=SeparableWelfare(curves=tuple(curves)),
            action_sets=tuple(action_sets),
            utilities=(Utility.EQUAL_SHARE,) * n,
            compromise=tuple(compromise),
        )

    def mc_blind(n, k, eps, labels=None):
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        labs = _labels_for(k, labels)
        if any(l is Compromise.DISABLED for l in labs):
            raise ValueError("this family takes blind or isolated labels only")
        curves = [_step_curve(1.0 + eps, n)]
        for _ in range(k):
            curves.append(_step_curve(1.0, n))
        action_sets = []
        for i in range(n):
            if i < k:
                action_sets.append((EMPTY_ACTION, frozenset({0}), frozenset({i + 1})))
            else:
                action_sets.append((EMPTY_ACTION, frozenset({0})))
        compromise = list(labs) + [Compromise.NORMAL] * (n - k)
        return al.GameInstance(
            welfare=SeparableWelfare(curves=tuple(curves)),
            action_sets=tuple(action_sets),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * n,
            compromise=tuple(compromise),
        )

    def sim(n, k, eps, labels=None):
        if k != n - 1:
            raise ValueError("this family has exactly one uncompromised agent (k = n-1)")
        labs = _labels_for(k, labels)
        if any(l is Compromise.DISABLED for l in labs):
            raise ValueError("this family takes blind or isolated labels only")
        curves = [_step_curve(1.0, n)]
        curves += [_step_curve(1.0 - eps, n) for _ in range(k)]
        curves.append(_step_curve(eps, n))
        action_sets = []
        for i in range(k):
            action_sets.append((EMPTY_ACTION, frozenset({0}), frozenset({i + 1})))
        action_sets.append((EMPTY_ACTION, frozenset({0}), frozenset({k + 1})))
        compromise = list(labs) + [Compromise.NORMAL]
        return al.GameInstance(
            welfare=SeparableWelfare(curves=tuple(curves)),
            action_sets=tuple(action_sets),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * n,
            compromise=tuple(compromise),
        )

    return {
        "k_blind": (al.gen_k_blind, k_blind),
        "mc_blind": (al.gen_mc_blind, mc_blind),
        "sim": (al.gen_sim_game, sim),
    }


def document_or_error(gen, *args):
    try:
        return al.serialize(gen(*args))
    except ValueError as exc:
        return type(exc), str(exc)


def hub_label_options(k):
    """Seven label arguments for k compromised agents: the default, the
    three blind/isolated mixes, two rejected labels and a list one too long."""
    k = max(k, 0)
    mixed = [Compromise.BLIND if i % 2 == 0 else Compromise.ISOLATED for i in range(k)]
    return [
        None,
        [Compromise.BLIND] * k,
        [Compromise.ISOLATED] * k,
        mixed,
        [Compromise.DISABLED] * k,
        ["normal"] * k,
        [Compromise.BLIND] * (k + 1),
    ]


@pytest.mark.parametrize("family", ["k_blind", "mc_blind", "sim"])
def test_hub_families_match_their_separate_constructors(family):
    # serialized bytes, or the same error type and message, for n = 0..13,
    # every k from -1 to n+1, seven label options and three eps/delta
    # pairs (the last makes 1/n - delta negative for n > 1)
    gen, reference = reference_hub_families()[family]
    compared = 0
    for n in range(14):
        for k in range(-1, n + 2):
            for labels in hub_label_options(k):
                for eps, delta in ((0.01, 0.01), (0.25, 0.1), (1e-9, 0.6)):
                    args = (n, k, eps, delta, labels)
                    if family != "k_blind":
                        args = (n, k, eps, labels)
                    expected = document_or_error(reference, *args)
                    assert document_or_error(gen, *args) == expected, args
                    compared += 1
    assert compared == 2793


def reference_step_families():
    """``mc_noblind`` and ``fig1`` as separate constructors, each building
    its layout itself: the oracle for the step builder behind
    ``gen_mc_noblind`` and ``gen_fig1``."""
    def mc_noblind(n, k, eps, labels=None):
        if k < 1 or n < k + 2:
            raise ValueError("need k >= 1 and n >= k + 2")
        if labels is not None and set(_labels_for(k, labels)) != {Compromise.ISOLATED}:
            raise ValueError("this family takes isolated labels only")
        s = min(k, n - k - 1)
        r = n - k - s
        curves = [_step_curve(1.0 + eps, n) for _ in range(k)]
        curves += [_step_curve(1.0, n) for _ in range(s)]
        curves += [_step_curve(eps, n) for _ in range(r)]
        action_sets = []
        for j in range(k):
            action_sets.append((EMPTY_ACTION, frozenset({j})))
        for j in range(s):
            action_sets.append((EMPTY_ACTION, frozenset({j}), frozenset({k + j})))
        for j in range(r):
            action_sets.append((EMPTY_ACTION, frozenset({k + s + j})))
        return al.GameInstance(
            welfare=SeparableWelfare(curves=tuple(curves)),
            action_sets=tuple(action_sets),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * n,
            compromise=(Compromise.ISOLATED,) * k + (Compromise.NORMAL,) * (n - k),
        )

    def fig1(values, labels=None):
        vals = tuple(float(v) for v in values)
        if len(vals) != 6:
            raise ValueError("exactly six resource values are required")
        if any(v < 0 for v in vals):
            raise ValueError("resource values must be nonnegative")
        if labels is None:
            labs = (Compromise.NORMAL,) * 3
        else:
            labs = tuple(Compromise(l) for l in labels)
            if len(labs) != 3:
                raise ValueError("labels apply to agents 2, 3, 4 (need three)")
        return al.GameInstance(
            welfare=SeparableWelfare(curves=tuple(_step_curve(v, 5) for v in vals)),
            action_sets=tuple(
                (EMPTY_ACTION, frozenset({i}), frozenset({5})) for i in range(5)
            ),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 5,
            compromise=(Compromise.NORMAL, Compromise.NORMAL) + labs,
        )

    return {
        "mc_noblind": (al.gen_mc_noblind, mc_noblind),
        "fig1": (al.gen_fig1, fig1),
    }


def test_mc_noblind_matches_its_separate_constructor():
    # the hub families' grid: n = 0..13, every k from -1 to n+1, seven
    # label options and three eps
    gen, reference = reference_step_families()["mc_noblind"]
    compared = 0
    for n in range(14):
        for k in range(-1, n + 2):
            for labels in hub_label_options(k):
                for eps in (0.01, 0.25, 1e-9):
                    args = (n, k, eps, labels)
                    expected = document_or_error(reference, *args)
                    assert document_or_error(gen, *args) == expected, args
                    compared += 1
    assert compared == 2793


def test_fig1_matches_its_separate_constructor():
    # five value vectors (one negative, one too short, one infinite) and
    # every label triple, the default, and lists one too short or too long
    gen, reference = reference_step_families()["fig1"]
    vectors = [
        FIG1_VALUES,
        [0] * 6,
        [1.0, 0.7, -0.3, 0.4, 2.0, 0.8],
        [1.0] * 5,
        [1, 2, 3, 4, 5, float("inf")],
    ]
    triples = list(itertools.product(Compromise, repeat=3))
    options = [None, [Compromise.BLIND] * 2, [Compromise.BLIND] * 4] + triples
    compared = set()
    for values in vectors:
        for labels in options:
            expected = document_or_error(reference, values, labels)
            assert document_or_error(gen, values, labels) == expected, (values, labels)
            compared.add(type(expected))
    assert len(options) == 67 and compared == {str, tuple}


class TestHubFamily:
    def test_nearly_degenerate_limit(self):
        report = al.instance_poa(al.gen_k_blind(10, 9, 1e-9, 1e-9))
        assert report.worst_ne_welfare == pytest.approx(1.0, abs=1e-9)
        assert report.opt_welfare == pytest.approx(10.0, abs=1e-7)
        assert report.ratio == pytest.approx(0.1, abs=1e-8)

    def test_uncompromised_respects_half(self):
        report = al.instance_poa(al.gen_k_blind(3, 0, 0.01, 0.01))
        assert report.ratio >= 0.5 - al.TOLERANCE

    def test_hand_computed_ratio(self):
        report = al.instance_poa(al.gen_k_blind(4, 2, 0.01, 0.01))
        assert report.ratio == pytest.approx(1.0 / 3.22, abs=1e-12)

    def test_enumeration_matches_closed_form(self):
        for n in (4, 5, 6):
            for k in range(0, n - 1):
                report = al.instance_poa(al.gen_k_blind(n, k, 0.02, 0.01))
                assert report.ratio == pytest.approx(
                    hub_ratio_formula(n, k, 0.02, 0.01), abs=1e-9
                ), (n, k)

    def test_worst_welfare_independent_of_label_mix(self):
        for k in (1, 2):
            values = set()
            for mix in label_mixes(k):
                eqs = al.enumerate_pne(al.gen_k_blind(5, k, 0.02, 0.01, mix))
                values.add(round(eqs.worst()[0], 12))
            assert values == {1.0}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            al.gen_k_blind(4, 4, 0.01, 0.01)
        with pytest.raises(ValueError):
            al.gen_k_blind(4, 1, 0.01, 0.01, labels=[Compromise.DISABLED])


class TestSharedResourceFamily:
    def test_enumeration_matches_closed_form(self):
        for n in (5, 6):
            for k in range(1, n):
                report = al.instance_poa(al.gen_mc_blind(n, k, 0.01))
                assert report.ratio == pytest.approx(
                    1.01 / (k + 1.01), abs=1e-9
                ), (n, k)

    def test_large_eps_instance(self):
        report = al.instance_poa(al.gen_mc_blind(6, 3, 0.5))
        assert report.ratio == pytest.approx(1.5 / 4.5, abs=1e-12)

    def test_fully_compromised_approaches_one_over_n(self):
        eps = 1e-6
        report = al.instance_poa(al.gen_mc_blind(4, 4, eps))
        assert report.ratio == pytest.approx((1 + eps) / (4 + eps), abs=1e-9)
        assert report.ratio == pytest.approx(0.25, abs=1e-5)


class TestShadowedFamily:
    def test_caption_welfare_value(self):
        # k=2 with exactly one leftover agent: worst equilibrium is 2 + 3*eps
        report = al.instance_poa(al.gen_mc_noblind(5, 2, 0.01))
        assert report.worst_ne_welfare == pytest.approx(2.03, abs=1e-9)
        assert report.ratio >= 0.25 - al.TOLERANCE

    def test_single_isolated_agent(self):
        report = al.instance_poa(al.gen_mc_noblind(4, 1, 1e-4))
        assert report.ratio >= 1.0 / 3.0 - al.TOLERANCE

    def test_tight_preconditions(self):
        with pytest.raises(ValueError):
            al.gen_mc_noblind(3, 2, 0.01)
        with pytest.raises(ValueError):
            al.gen_mc_noblind(4, 0, 0.01)


class TestSimFamily:
    def test_optimum_value(self):
        w, _ = al.optimal_welfare(al.gen_sim_game(10, 9, 0.05))
        assert w == pytest.approx(9.55, abs=1e-9)

    def test_all_blind_worst_equilibrium(self):
        eqs = al.enumerate_pne(al.gen_sim_game(10, 9, 0.05))
        assert eqs.worst()[0] == pytest.approx(1.05, abs=1e-9)

    def test_all_isolated_worst_equilibrium(self):
        g = al.gen_sim_game(10, 9, 0.05, labels=[Compromise.ISOLATED] * 9)
        eqs = al.enumerate_pne(g)
        assert eqs.worst()[0] == pytest.approx(1.0, abs=1e-9)

    def test_requires_single_normal_agent(self):
        with pytest.raises(ValueError):
            al.gen_sim_game(10, 8, 0.05)


FIG1_VALUES = [1.0, 0.7, 0.3, 0.4, 2.0, 0.8]


class TestHubAndSpokeExample:
    def test_nominal_optimum_is_an_equilibrium(self):
        g = al.gen_fig1(FIG1_VALUES)
        _, a_opt = al.optimal_welfare(g)
        assert al.is_pne(g, a_opt)

    def test_blind_scenario_two_agents_pile_on_the_shared_resource(self):
        g = al.gen_fig1(FIG1_VALUES, labels=[Compromise.BLIND] * 3)
        eqs = al.enumerate_pne(g)
        for p in eqs.profiles:
            assert p[2] == frozenset({5})
            assert p[3] == frozenset({5})
            assert p[4] == frozenset({4})  # its own resource is worth more

    def test_isolated_scenario_additionally_drags_agent_one(self):
        g = al.gen_fig1(FIG1_VALUES, labels=[Compromise.ISOLATED] * 3)
        eqs = al.enumerate_pne(g)
        for p in eqs.profiles:
            assert p[1] == frozenset({5})
            assert p[2] == frozenset({5})
            assert p[3] == frozenset({5})

    def test_disabled_scenario_removes_their_contribution(self):
        g = al.gen_fig1(FIG1_VALUES, labels=[Compromise.DISABLED] * 3)
        eqs = al.enumerate_pne(g)
        worst_w, worst_p = eqs.worst()
        assert worst_p[2] == worst_p[3] == worst_p[4] == frozenset()
        assert worst_w == pytest.approx(1.8, abs=1e-12)


class TestRandomFamily:
    def test_always_a_valid_utility_game(self):
        for seed in range(15):
            game = al.gen_random_separable(
                n=3 + seed % 3,
                max_resources=4,
                max_actions=4,
                k=seed % 3,
                labels=[Compromise.BLIND, Compromise.ISOLATED][: seed % 3],
                seed=seed,
            )
            assert al.check_vug(game).ok

    def test_reproducible_documents(self):
        a = al.gen_random_separable(n=4, max_resources=4, max_actions=4, k=1,
                                    labels=[Compromise.BLIND], seed=123)
        b = al.gen_random_separable(n=4, max_resources=4, max_actions=4, k=1,
                                    labels=[Compromise.BLIND], seed=123)
        assert al.serialize(a) == al.serialize(b)

    def test_different_seeds_differ(self):
        a = al.gen_random_separable(n=4, max_resources=4, max_actions=4, seed=1)
        b = al.gen_random_separable(n=4, max_resources=4, max_actions=4, seed=2)
        assert al.serialize(a) != al.serialize(b)


class TestSerialization:
    def all_generator_outputs(self):
        yield al.gen_k_blind(5, 2, 0.01, 0.01)
        yield al.gen_k_blind(4, 2, 0.05, 0.02, labels=[Compromise.ISOLATED] * 2)
        yield al.gen_mc_blind(5, 3, 0.01)
        yield al.gen_mc_noblind(5, 2, 0.01)
        yield al.gen_sim_game(6, 5, 0.05)
        yield al.gen_fig1(FIG1_VALUES, labels=[Compromise.DISABLED] * 3)
        for seed in range(5):
            yield al.gen_random_separable(n=4, max_resources=3, max_actions=3, seed=seed)
        # a tabulated instance as well
        yield coverage_game(5, 4, [Compromise.BLIND, Compromise.ISOLATED])

    def test_round_trip_is_lossless(self):
        for game in self.all_generator_outputs():
            doc = al.serialize(game)
            assert al.parse(doc) == game
            assert al.serialize(al.parse(doc)) == doc

    def test_table_insertion_order_does_not_matter(self):
        game = coverage_game(5, 4, [Compromise.BLIND, Compromise.ISOLATED])
        items = sorted(game.welfare.table.items(), key=lambda e: (len(e[0]), sorted(e[0])))
        games = [
            dataclasses.replace(
                game, welfare=al.TabulatedWelfare.from_mapping(dict(order), game.num_resources)
            )
            for order in (items, items[::-1], random.Random(0).sample(items, len(items)))
        ]
        assert all(g == game and hash(g) == hash(game) for g in games)
        docs = {al.serialize(g) for g in games}
        assert len(docs) == 1
        doc = docs.pop()
        assert al.parse(doc) == game
        # the rows are written by size, then resource ids
        assert [e["subset"] for e in json.loads(doc)["table"]] == [sorted(s) for s, _ in items]

    @pytest.mark.parametrize("value", [1.5, 2.0])
    def test_repeated_table_subset_is_named(self, value):
        # (0, 1) and (1, 0) are one base set, listed again with the same
        # value or another one
        table = {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 1.5, (1, 0): value}
        with pytest.raises(al.ValidationError, match=r"duplicate table entry for \[0, 1\]"):
            al.TabulatedWelfare.from_mapping(table, 2)
        doc = {
            "n": 1,
            "resources": [{"id": 0}, {"id": 1}],
            "table": [{"subset": list(s), "value": v} for s, v in table.items()],
            "action_sets": [[[0], [1]]],
            "utility": ["mc"],
            "compromise": ["normal"],
        }
        with pytest.raises(al.ParseError, match=r"duplicate table entry for \[0, 1\]"):
            al.parse(json.dumps(doc))

    def test_unknown_resource_id_rejected(self):
        doc = json.loads(al.serialize(al.gen_k_blind(3, 1, 0.01, 0.01)))
        doc["action_sets"][0].append([99])
        with pytest.raises(al.ParseError, match="99"):
            al.parse(json.dumps(doc))

    def test_bad_curve_names_the_resource(self):
        doc = json.loads(al.serialize(al.gen_k_blind(3, 1, 0.01, 0.01)))
        doc["resources"][1]["curve"] = [0.0, 0.5, 1.5, 1.6]  # convex start
        with pytest.raises(al.ParseError, match="resource 1"):
            al.parse(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(al.ParseError, match="JSON"):
            al.parse("{not json")

    def test_missing_fields_rejected(self):
        with pytest.raises(al.ParseError, match="utility"):
            al.parse(json.dumps({
                "n": 1,
                "resources": [{"id": 0, "curve": [0.0, 1.0]}],
                "action_sets": [[[0]]],
                "compromise": ["normal"],
            }))

    def test_wrong_label_rejected(self):
        doc = json.loads(al.serialize(al.gen_k_blind(3, 1, 0.01, 0.01)))
        doc["compromise"][0] = "sleepy"
        with pytest.raises(al.ParseError):
            al.parse(json.dumps(doc))


def reference_serialize(game):
    """The instance document laid out by ``json.dumps(doc, indent=2)``: the
    oracle for ``serialize``, which writes the same text directly."""
    doc = {"n": game.n}
    if game.separable:
        doc["resources"] = [
            {"id": r, "curve": list(curve)}
            for r, curve in enumerate(game.welfare.curves)
        ]
    else:
        doc["resources"] = [{"id": r} for r in range(game.num_resources)]
        rows = sorted((len(s), sorted(s), v) for s, v in game.welfare.entries)
        doc["table"] = [{"subset": ids, "value": v} for _, ids, v in rows]
    doc["action_sets"] = [
        [sorted(a) for a in acts if a] for acts in game.action_sets
    ]
    doc["utility"] = [u.value for u in game.utilities]
    doc["compromise"] = [c.value for c in game.compromise]
    return json.dumps(doc, indent=2) + "\n"


def named_family_games():
    """Every named family at n = 1..12, every k it takes, with the default
    labels and the all-blind, all-isolated and alternating mixes."""
    hubs = {"k_blind": lambda n, k, labs: al.gen_k_blind(n, k, 0.01, 0.001, labs),
            "mc_blind": lambda n, k, labs: al.gen_mc_blind(n, k, 0.02, labs),
            "sim": lambda n, k, labs: al.gen_sim_game(n, k, 0.05, labs)}
    for n in range(1, 13):
        for k in range(n + 1):
            for gen in hubs.values():
                for labs in hub_label_options(k)[:4]:
                    try:
                        yield gen(n, k, labs)
                    except ValueError:
                        pass  # a k the family does not take
            if 1 <= k <= n - 2:
                yield al.gen_mc_noblind(n, k, 0.03)
    for labs in itertools.product(("blind", "isolated", "disabled"), repeat=3):
        yield al.gen_fig1(FIG1_VALUES, labels=labs)


def sim_twin():
    """The sim game with its step welfare written out as a table over all
    2,048 subsets of its 11 resources."""
    sim = al.gen_sim_game(10, 9, 0.05)
    values = [curve[1] for curve in sim.welfare.curves]
    table = {
        frozenset(s): sum(values[r] for r in s)
        for size in range(len(values) + 1)
        for s in itertools.combinations(range(len(values)), size)
    }
    return dataclasses.replace(
        sim, welfare=al.TabulatedWelfare.from_mapping(table, len(values))
    )


class Float(float):
    def __repr__(self):
        return f"Float({float(self)!r})"


def oracle_games():
    yield from TestSerialization().all_generator_outputs()
    yield from named_family_games()
    for seed in range(60):
        n = 1 + seed % 6
        k = seed % (n + 1)
        labels = [(Compromise.BLIND, Compromise.ISOLATED)[(seed + i) % 2] for i in range(k)]
        yield al.gen_random_separable(n, 4, 4, k=k, labels=labels, seed=seed)
    for seed in range(20):
        game = coverage_game(seed, 1 + seed % 4)
        items = sorted(game.welfare.table.items(), key=lambda e: (len(e[0]), sorted(e[0])))
        holed = [e for i, e in enumerate(items) if i == 0 or (i + seed) % 3]
        yield dataclasses.replace(
            game, welfare=al.TabulatedWelfare(holed, game.num_resources)
        )
    # a table that holds only the empty set
    yield al.GameInstance(
        al.TabulatedWelfare.from_mapping({frozenset(): 0.0}, 2),
        (({0}, {1}), ()), ("mc",) * 2, ("normal",) * 2,
    )
    # curve values of any number type json writes: ints, and a float
    # subclass whose repr is not a JSON number
    yield al.GameInstance(
        SeparableWelfare(curves=((0, 2, 3), (0.0, Float(0.5), Float(0.75)))),
        (({0}, {1}),) * 2, ("mc",) * 2, ("normal",) * 2,
    )
    # an agent whose only action is opting out, written []
    yield al.GameInstance(
        SeparableWelfare(curves=((0.0, 1.0, 1.0),)), (({0},), ()), ("es",) * 2, ("blind", "normal")
    )
    yield sim_twin()


def test_serialize_matches_the_json_layout_byte_for_byte():
    games = list(oracle_games())
    assert len(games) > 850
    for game in games:
        doc = al.serialize(game)
        assert doc == reference_serialize(game)
        assert doc == json.dumps(json.loads(doc), indent=2) + "\n"
    twin = games[-1]
    assert len(json.loads(al.serialize(twin))["table"]) == 2048
    assert '"action_sets": [\n    [\n      [\n        0\n      ]\n    ],\n    []\n  ],' in (
        al.serialize(games[-2])
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 6), tabulated=st.booleans())
def test_serialize_is_its_own_json_layout(seed, n, tabulated):
    if tabulated:
        game = coverage_game(seed, n)
    else:
        game = al.gen_random_separable(n, 5, 5, k=seed % (n + 1), seed=seed)
    doc = al.serialize(game)
    assert doc == json.dumps(json.loads(doc), indent=2) + "\n"
    assert doc == reference_serialize(game)


# any JSON value, including non-finite floats and an integer no float holds
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.just(10**400)
    | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)

SEED_DOCUMENTS = (
    al.serialize(al.gen_k_blind(3, 1, 0.01, 0.01)),
    al.serialize(coverage_game(0, 2)),
)


def json_slots(node):
    """Every (container, key) position in a parsed JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    slots = []
    for key, child in items:
        slots.append((node, key))
        slots.extend(json_slots(child))
    return slots


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_raise_only_parse_error(data):
    doc = json.loads(data.draw(st.sampled_from(SEED_DOCUMENTS)))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = json_slots(doc)
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots))
        if data.draw(st.booleans()):
            container[key] = data.draw(JSON_VALUES)
        else:
            del container[key]
    try:
        al.parse(json.dumps(doc))
    except al.ParseError:
        pass

