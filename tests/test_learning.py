"""Log-linear learning: sampling distribution, trajectories, sweeps."""

import bisect
import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anarchy_lab as al
from anarchy_lab import Compromise, Utility
from anarchy_lab import learning
from anarchy_lab.game import _Table
from anarchy_lab.learning import _softmax
from test_equilibrium import table_by_set


def two_action_game(v0, v1):
    return al.GameInstance(
        welfare=al.SeparableWelfare(curves=((0.0, float(v0)), (0.0, float(v1)))),
        action_sets=((frozenset({0}), frozenset({1})),),
        utilities=(Utility.MARGINAL_CONTRIBUTION,),
        compromise=(Compromise.NORMAL,),
    )


class TestActionDistribution:
    def test_equal_utilities_split_evenly(self):
        g = two_action_game(0.4, 0.4)
        for T in (0.001, 1.0, 100.0):
            probs = al.action_distribution(g, 0, al.empty_profile(g), T)
            # actions are (empty, {0}, {1}); the two resources tie
            assert probs[1] == pytest.approx(probs[2], abs=1e-15)

    def test_high_temperature_is_uniform(self):
        g = two_action_game(0.1, 0.9)
        probs = al.action_distribution(g, 0, al.empty_profile(g), 1e9)
        for p in probs:
            assert p == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_low_temperature_concentrates_on_argmax(self):
        g = two_action_game(0.1, 0.9)
        probs = al.action_distribution(g, 0, al.empty_profile(g), 1e-3)
        assert probs[2] == pytest.approx(1.0, abs=1e-9)

    def test_gap_to_temperature_ratio_controls_concentration(self):
        # utility gap 10 at temperature 1e-4: no overflow, argmax certain
        g = two_action_game(0.0, 10.0)
        probs = al.action_distribution(g, 0, al.empty_profile(g), 1e-4)
        assert all(math.isfinite(p) for p in probs)
        assert probs[2] >= 1.0 - 1e-6

    @given(
        utilities=st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=6
        ),
        temperature=st.floats(min_value=1e-4, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_softmax_is_a_distribution(self, utilities, temperature):
        probs = _softmax(utilities, temperature)
        assert abs(sum(probs) - 1.0) <= 1e-12
        assert all(p >= 0.0 for p in probs)
        # actions at least 30 temperatures below the best get negligible mass
        top = max(utilities)
        losing_mass = sum(
            p for u, p in zip(utilities, probs) if top - u >= 30 * temperature
        )
        assert losing_mass <= 1e-6

    @given(r=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @settings(max_examples=100, deadline=None)
    def test_sampling_always_picks_a_valid_index(self, r):
        probs = [0.2, 0.3, 0.5]
        assert 0 <= sample_index(probs, r) < 3


    @given(
        utilities=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
        temperature=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_draw_from_running_sums_equals_sample_index(self, utilities, temperature):
        # the runner draws bisect_right over the running sums without the
        # last, so an r past them takes the last action
        probs = _softmax(utilities, temperature)
        cum = list(itertools.accumulate(probs))
        edges = [0.0, 1.0 - 2.0**-53] + cum
        for r in edges + [math.nextafter(x, 0.0) for x in edges]:
            if 0.0 <= r < 1.0:
                assert bisect.bisect_right(cum[:-1], r) == sample_index(probs, r)

    def test_draw_past_a_total_below_one_takes_the_last_action(self):
        probs = _softmax([0.0] * 7, 1.0)
        cum = list(itertools.accumulate(probs))
        assert cum[-1] < 1.0 - 2.0**-53
        r = 1.0 - 2.0**-53
        assert bisect.bisect_right(cum[:-1], r) == sample_index(probs, r) == 6


class TestStep:
    def test_step_matches_runner_exactly(self):
        # the welfare of every profile of the per-step reference, valued
        # afresh, is the runner's incrementally kept trace
        g = al.gen_sim_game(
            6, 5, 0.05, labels=[Compromise.ISOLATED, Compromise.BLIND] * 2 + [Compromise.BLIND]
        )
        steps = 1500
        result = al.lll_run(g, T=0.02, steps=steps, seed=99, keep_trace=True)
        walk = reference_walk(g, 99, softmax_choice(g, 0.02))
        for k, (_, current) in enumerate(itertools.islice(walk, steps)):
            assert abs(al.welfare_eval(g, current) - result.trace[k]) <= 1e-9
        assert current == result.final

    def test_disabled_agents_never_update(self):
        # resource 0 adds 1 to the welfare whenever the disabled agent holds it
        g = al.GameInstance(
            welfare=al.SeparableWelfare(curves=((0.0, 1.0, 1.0), (0.0, 1.0, 1.0))),
            action_sets=((frozenset({0}),), (frozenset({1}),)),
            utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
            compromise=(Compromise.DISABLED, Compromise.NORMAL),
        )
        for T in (0.5, 100.0):
            result = al.lll_run(g, T, steps=200, seed=0, keep_trace=True)
            assert result.final[0] == frozenset()
            assert max(result.trace) == 1.0

    def test_rejects_nonpositive_temperature(self):
        g = two_action_game(0.1, 0.9)
        for T in (0.0, -1.0):
            with pytest.raises(ValueError):
                al.lll_run(g, T, steps=10, seed=0)
            with pytest.raises(ValueError):
                al.action_distribution(g, 0, al.empty_profile(g), T)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_rejects_non_finite_temperature(self, T):
        g = two_action_game(0.1, 0.9)
        for call in (
            lambda: al.action_distribution(g, 0, al.empty_profile(g), T),
            lambda: al.lll_run(g, T, steps=10, seed=0),
            lambda: al.temperature_sweep(g, [1.0, T], steps=10, trials=1, seed=0),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()


class TestRun:
    def test_reproducible(self):
        g = al.gen_sim_game(5, 4, 0.05)
        a = al.lll_run(g, T=0.01, steps=5000, seed=12, keep_trace=True)
        b = al.lll_run(g, T=0.01, steps=5000, seed=12, keep_trace=True)
        assert a == b

    def test_mean_within_welfare_range(self):
        g = al.gen_sim_game(5, 4, 0.05)
        opt, _ = al.optimal_welfare(g)
        for T in (0.005, 0.5, 5.0):
            res = al.lll_run(g, T=T, steps=4000, seed=3)
            assert 0.0 <= res.mean_welfare <= opt + al.TOLERANCE
            assert res.min_welfare <= res.mean_welfare <= res.max_welfare

    def test_burn_in_drops_the_transient(self):
        g = al.gen_sim_game(5, 4, 0.05)
        full = al.lll_run(g, T=0.001, steps=4000, seed=5)
        trimmed = al.lll_run(g, T=0.001, steps=4000, seed=5, burn_in=1000)
        assert trimmed.mean_welfare >= full.mean_welfare

    def test_custom_start_profile(self):
        g = al.gen_sim_game(5, 4, 0.05)
        eqs = al.enumerate_pne(g)
        w, a0 = eqs.worst()
        res = al.lll_run(g, T=0.0005, steps=2000, seed=8, a0=a0)
        assert res.mean_welfare == pytest.approx(w, abs=0.01)

    def test_works_on_tabulated_games(self):
        labels = [Compromise.BLIND, Compromise.NORMAL, Compromise.NORMAL]
        g = coverage_game(random.Random(1), labels)
        res = al.lll_run(g, T=0.01, steps=500, seed=1)
        assert res.mean_welfare >= 0.0
        assert res == reference_lll_run(g, T=0.01, steps=500, seed=1)


class TestSweep:
    def test_identical_seeds_identical_csv(self):
        g = al.gen_sim_game(5, 4, 0.05)
        a = al.temperature_sweep(g, [0.001, 0.1, 1.0], steps=800, trials=3, seed=21)
        b = al.temperature_sweep(g, [0.001, 0.1, 1.0], steps=800, trials=3, seed=21)
        assert a.to_csv() == b.to_csv()

    def test_csv_shape(self):
        g = al.gen_sim_game(5, 4, 0.05)
        res = al.temperature_sweep(g, [0.01, 1.0], steps=300, trials=2, seed=0)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "temperature,trial,mean_welfare,std_welfare,min_welfare,max_welfare,steps,seed"
        assert len(lines) == 1 + 2 * 2

    def test_blind_beats_isolated_at_low_temperature(self):
        blind = al.gen_sim_game(6, 5, 0.05)
        isolated = al.gen_sim_game(6, 5, 0.05, labels=[Compromise.ISOLATED] * 5)
        sb = al.temperature_sweep(blind, [0.001], steps=20_000, trials=2, seed=4)
        si = al.temperature_sweep(isolated, [0.001], steps=20_000, trials=2, seed=4)
        assert sb.pooled_mean(0.001) > si.pooled_mean(0.001) + 0.03

    def test_sub_seed_scheme_is_documented_and_stable(self):
        assert al.sub_seed(0, 0, 0) == al.sub_seed(0, 0, 0)
        seen = {al.sub_seed(5, ti, tr) for ti in range(4) for tr in range(4)}
        assert len(seen) == 16


class TestBaseline:
    # far above every utility gap, the softmax is uniform: hot play is the
    # uniform-play baseline

    def test_single_agent_uniform_play(self):
        g = al.GameInstance(
            welfare=al.SeparableWelfare(curves=((0.0, 1.0),)),
            action_sets=((frozenset({0}),),),  # plus the implicit opt-out
            utilities=(Utility.MARGINAL_CONTRIBUTION,),
            compromise=(Compromise.NORMAL,),
        )
        mean = al.lll_run(g, T=1e9, steps=40_000, seed=1).mean_welfare
        assert mean == pytest.approx(0.5, abs=0.02)

    def test_baseline_beats_the_worst_equilibrium_here(self):
        g = al.gen_sim_game(10, 9, 0.05)
        assert al.lll_run(g, T=1e9, steps=30_000, seed=9).mean_welfare > 1.0

    def test_matches_high_temperature_play(self):
        g = al.gen_sim_game(6, 5, 0.05)
        base = reference_baseline(g, steps=30_000, seed=17)
        hot = al.lll_run(g, T=50.0, steps=30_000, seed=18)
        assert hot.mean_welfare == pytest.approx(base, rel=0.05)


def test_two_tied_actions_split_half_and_half():
    # a worthless resource ties with opting out: exactly two actions, equal
    # utilities, so each is drawn with probability 1/2 at any temperature
    g = al.GameInstance(
        welfare=al.SeparableWelfare(curves=((0.0, 0.0),)),
        action_sets=((frozenset({0}),),),
        utilities=(Utility.MARGINAL_CONTRIBUTION,),
        compromise=(Compromise.NORMAL,),
    )
    for T in (0.001, 1.0, 1e6):
        probs = al.action_distribution(g, 0, al.empty_profile(g), T)
        assert probs == [0.5, 0.5]


def test_baseline_keeps_disabled_agents_opted_out():
    g = al.GameInstance(
        welfare=al.SeparableWelfare(curves=((0.0, 7.0, 7.0), (0.0, 1.0, 1.0))),
        action_sets=((frozenset({0}),), (frozenset({1}),)),
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
        compromise=(Compromise.DISABLED, Compromise.NORMAL),
    )
    mean = al.lll_run(g, T=1e9, steps=20_000, seed=5).mean_welfare
    # only the normal agent's unit resource can ever contribute
    assert mean <= 1.0
    assert mean == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("separable", [True, False])
def test_all_disabled_game_is_refused_with_its_cause(separable):
    if separable:
        welfare = al.SeparableWelfare(curves=((0.0, 1.0, 1.0),))
    else:
        welfare = al.TabulatedWelfare.from_mapping({frozenset(): 0.0, frozenset({0}): 1.0}, 1)
    g = al.GameInstance(
        welfare=welfare,
        action_sets=((frozenset({0}),), (frozenset({0}),)),
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * 2,
        compromise=(Compromise.DISABLED,) * 2,
    )
    with pytest.raises(ValueError, match="disabled"):
        al.lll_run(g, T=0.1, steps=10, seed=0)


# ---------------------------------------------------------------------------
# the cached runner against the uncached per-step reference

LABELS = (Compromise.NORMAL, Compromise.BLIND, Compromise.ISOLATED, Compromise.DISABLED)


def reference_walk(game, seed, choose, a0=None):
    """Single-agent updates without any cache, one plain step at a time: each
    step draws the agent with ``rng.randrange`` and its action index with
    ``choose(rng, i, current)``, then yields the welfare and the profile.
    Separable welfare is summed incrementally, the old action's resources in
    ascending order and then the new action's, because the outputs depend on
    that summation order; tabulated welfare is welfare_eval's table entry."""
    rng = random.Random(seed)
    upd = [i for i, c in enumerate(game.compromise) if c is not Compromise.DISABLED]
    current = al.empty_profile(game) if a0 is None else a0
    if game.separable:
        curves = game.welfare.curves
        counts = [0] * len(curves)
        for act in current:
            for r in act:
                counts[r] += 1
        w = 0.0
        for r, curve in enumerate(curves):
            w += curve[counts[r]]
    while True:
        i = upd[rng.randrange(len(upd))]
        act = game.action_sets[i][choose(rng, i, current)]
        if game.separable and act != current[i]:
            for r in sorted(current[i]):
                c = counts[r]
                counts[r] = c - 1
                w += curves[r][c - 1] - curves[r][c]
            for r in sorted(act):
                c = counts[r]
                counts[r] = c + 1
                w += curves[r][c + 1] - curves[r][c]
        current = current[:i] + (act,) + current[i + 1 :]
        yield (w if game.separable else al.welfare_eval(game, current)), current


def sample_index(probs, r):
    """The inverse-CDF draw: the first index at which the running sum of
    ``probs`` exceeds r, else the last."""
    acc = 0.0
    for j, p in enumerate(probs):
        acc += p
        if r < acc:
            return j
    return len(probs) - 1


def softmax_choice(game, T):
    """The per-step action draw: agent i's distribution from
    action_distribution, sampled with sample_index."""
    return lambda rng, i, current: sample_index(
        al.action_distribution(game, i, current, T), rng.random()
    )


def reference_lll_run(game, T, steps, seed, a0=None, burn_in=0, keep_trace=False):
    """lll_run without the cache, from reference_walk's softmax steps."""
    walk = reference_walk(game, seed, softmax_choice(game, T), a0)
    values = []
    for w, current in itertools.islice(walk, steps):
        values.append(w)
    kept = values[burn_in:]
    total = total_sq = 0.0
    for w in kept:
        total += w
        total_sq += w * w
    mean = total / len(kept)
    return learning.LllRunResult(
        temperature=T,
        steps=steps,
        seed=seed,
        burn_in=burn_in,
        mean_welfare=mean,
        std_welfare=math.sqrt(max(total_sq / len(kept) - mean * mean, 0.0)),
        min_welfare=min(kept),
        max_welfare=max(kept),
        final=current,
        trace=tuple(values) if keep_trace else None,
    )


def reference_baseline(game, steps, seed):
    """The mean welfare of uniform play: each step's agent draws its action
    uniformly, one plain step at a time."""
    uniform = lambda rng, i, current: rng.randrange(len(game.action_sets[i]))
    total = 0.0
    for w, _ in itertools.islice(reference_walk(game, seed, uniform), steps):
        total += w
    return total / steps


def coverage_game(rng, labels, holes=0.0):
    """Weighted-coverage welfare tabulated over every resource subset, with
    marginal-contribution utilities; each nonempty subset's entry is left
    out with probability ``holes``."""
    n = len(labels)
    m = rng.randint(2, 5)
    cover = [frozenset(rng.sample(range(6), rng.randint(1, 3))) for _ in range(m)]
    weights = [round(rng.uniform(0.01, 1.0), 2) for _ in range(6)]
    table = {}
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            if holes and size and rng.random() < holes:
                continue
            covered = frozenset().union(*(cover[r] for r in subset))
            table[frozenset(subset)] = sum(weights[e] for e in sorted(covered))
    action_sets = []
    for _ in range(n):
        want = rng.randint(1, 3)
        acts = set()
        while len(acts) < want:
            acts.add(frozenset(rng.sample(range(m), rng.choice((1, 1, 2)))))
        action_sets.append(tuple(sorted(acts, key=sorted)))
    return al.GameInstance(
        welfare=al.TabulatedWelfare.from_mapping(table, m),
        action_sets=tuple(action_sets),
        utilities=(Utility.MARGINAL_CONTRIBUTION,) * n,
        compromise=tuple(labels),
    )


def sim_table_twin():
    """sim(10, 9, 0.05) with its step welfare written out as a table."""
    sep = al.gen_sim_game(10, 9, 0.05)
    values = [curve[1] for curve in sep.welfare.curves]
    table = {
        frozenset(s): sum(values[r] for r in s)
        for size in range(len(values) + 1)
        for s in itertools.combinations(range(len(values)), size)
    }
    return dataclasses.replace(sep, welfare=al.TabulatedWelfare.from_mapping(table, len(values)))


def random_start(game, rng):
    """A random playable profile: disabled agents opted out."""
    return tuple(
        frozenset() if c is Compromise.DISABLED else rng.choice(acts)
        for acts, c in zip(game.action_sets, game.compromise)
    )


def mixed_games(count):
    """Separable and tabulated games whose agents carry every label."""
    rng = random.Random(2024)
    for g in range(count):
        n = rng.randint(2, 6)
        labels = [LABELS[(g + a) % 4] if a < 4 else rng.choice(LABELS) for a in range(n)]
        if all(l is Compromise.DISABLED for l in labels):
            labels[0] = Compromise.NORMAL
        rng.shuffle(labels)
        sep = al.gen_random_separable(n, 5, 4, seed=g)
        yield dataclasses.replace(sep, compromise=tuple(labels)), rng
        yield coverage_game(rng, labels), rng


class TestCachedRunner:
    @pytest.mark.parametrize("T", [1e-3, 0.1, 10.0])
    def test_equals_the_uncached_reference(self, T):
        for game, rng in mixed_games(12):
            a0 = random_start(game, rng)
            seed = rng.randrange(2**32)
            # the last step alone kept, and a kept range that opens with a switch
            walk = reference_walk(game, seed, softmax_choice(game, T), a0)
            profiles = [a0] + [current for _, current in itertools.islice(walk, 400)]
            switches = [k for k in range(400) if profiles[k + 1] != profiles[k]]
            burn_ins = [399] + switches[len(switches) // 2 :][:1]
            for start, burn_in in [(None, 0), (a0, 37)] + [(a0, b) for b in burn_ins]:
                got = al.lll_run(game, T, 400, seed, a0=start, burn_in=burn_in, keep_trace=True)
                want = reference_lll_run(game, T, 400, seed, a0=start, burn_in=burn_in, keep_trace=True)
                assert got == want, game

    def test_equals_the_reference_on_the_simulation_game(self):
        for labels in ([Compromise.BLIND] * 9, [Compromise.ISOLATED] * 9):
            game = al.gen_sim_game(10, 9, 0.05, labels=labels)
            for T in (1e-3, 0.1, 10.0):
                got = al.lll_run(game, T, 3000, 11, keep_trace=True)
                assert got == reference_lll_run(game, T, 3000, 11, keep_trace=True)

    def test_an_emptied_cache_draws_the_same(self, monkeypatch):
        monkeypatch.setattr(learning, "_CACHE_LIMIT", 2)
        for game, rng in mixed_games(6):
            got = al.lll_run(game, 0.1, 300, 5, keep_trace=True)
            assert got == reference_lll_run(game, 0.1, 300, 5, keep_trace=True)

    def test_builds_few_distributions_on_the_simulation_game(self, monkeypatch):
        # nine blind agents have one distribution each; the normal agent's
        # depends on the counts it observes at the resources its actions
        # touch, so few contexts exist however long the run
        calls = []

        def counting_softmax(utilities, T):
            calls.append(1)
            return _softmax(utilities, T)

        monkeypatch.setattr(learning, "_softmax", counting_softmax)
        al.lll_run(al.gen_sim_game(10, 9, 0.05), T=0.001, steps=30_000, seed=1)
        assert 0 < len(calls) < 100

    def test_builds_one_softmax_per_observed_context(self, monkeypatch):
        # the simulation game's welfare written out as a table: at a high
        # temperature the normal agent observes many base sets, and each
        # (agent, observed base set) pair a run meets costs exactly one
        # softmax; a sweep's trials share them, so two trials cost one per
        # pair met in either. The pairs come from the per-step reference.
        game = sim_table_twin()

        def met(seed):
            contexts = set()

            def choose(rng, i, current):
                others = current[:i] + (al.EMPTY_ACTION,) + current[i + 1 :]
                contexts.add((i, al.base_set(al.masked_profile(game, i, others))))
                return softmax_choice(game, 10.0)(rng, i, current)

            for _ in itertools.islice(reference_walk(game, seed, choose), 10_000):
                pass
            return contexts

        single = met(1)
        trials = [met(learning.sub_seed(1, 0, tr)) for tr in range(2)]
        calls = []

        def counting_softmax(utilities, T):
            calls.append(1)
            return _softmax(utilities, T)

        monkeypatch.setattr(learning, "_softmax", counting_softmax)
        al.lll_run(game, T=10.0, steps=10_000, seed=1)
        assert len(calls) == len(single) > 100
        calls.clear()
        al.temperature_sweep(game, [10.0], steps=10_000, trials=2, seed=1)
        both = trials[0] | trials[1]
        assert len(calls) == len(both) > max(map(len, trials))

    @pytest.mark.parametrize("updatable", [1, 2, 3, 8, 9, 17])
    def test_equals_the_reference_for_any_number_of_updatable_agents(self, updatable):
        # the agent draw rejects getrandbits values past the agent count, as
        # rng.randrange does; powers of two and a single agent are the edges
        rng = random.Random(updatable)
        for disabled in (0, 1, 3):
            labels = [rng.choice(LABELS[:3]) for _ in range(updatable)]
            labels += [Compromise.DISABLED] * disabled
            rng.shuffle(labels)
            sep = al.gen_random_separable(len(labels), 5, 4, seed=updatable + disabled)
            sep = dataclasses.replace(sep, compromise=tuple(labels))
            for game in (sep, coverage_game(rng, labels)):
                seed = rng.randrange(2**32)
                for T in (0.01, 1.0):
                    got = al.lll_run(game, T, 300, seed, keep_trace=True)
                    assert got == reference_lll_run(game, T, 300, seed, keep_trace=True)

    def test_a_missing_table_entry_raises_at_the_reference_step(self):
        # from the empty profile, and from a start whose base set has no
        # entry: its entry is read only if step 0 keeps that base set
        raised = left = stayed = 0
        for g in range(40):
            rng = random.Random(g)
            labels = [rng.choice(LABELS) for _ in range(rng.randint(1, 5))] + [Compromise.NORMAL]
            game = coverage_game(rng, labels, holes=0.15)
            seed = rng.randrange(2**32)
            starts = [random_start(game, rng) for _ in range(20)]
            table = table_by_set(game.welfare)
            holes = [a for a in starts if al.base_set(a) not in table]
            for a0 in [None] + holes[:1]:
                walk = reference_walk(game, seed, softmax_choice(game, 0.1), a0)
                done, message = 0, None
                try:
                    for _ in itertools.islice(walk, 200):
                        done += 1
                except al.ModelIncompleteError as exc:
                    raised += 1
                    message = str(exc)
                    with pytest.raises(al.ModelIncompleteError) as got:
                        al.lll_run(game, 0.1, done + 1, seed, a0=a0)
                    assert str(got.value) == message
                if done:
                    got = al.lll_run(game, 0.1, done, seed, a0=a0, keep_trace=True)
                    assert got == reference_lll_run(game, 0.1, done, seed, a0=a0, keep_trace=True)
                if a0 is not None and done:
                    left += 1
                elif a0 is not None:
                    with pytest.raises(al.ModelIncompleteError) as start:
                        al.welfare_eval(game, a0)
                    stayed += str(start.value) == message
        assert raised >= 10
        assert left and stayed


def sweep_outcome(run):
    """The rows ``run()`` returns, or the type and message of what it raised."""
    try:
        return tuple(run())
    except al.ModelIncompleteError as exc:
        return type(exc), str(exc)


class TestSweepSharesDistributions:
    # a temperature's trials share one cache of distributions, which a
    # distribution's being a function of (game, T, agent, context) allows

    @pytest.mark.parametrize("limit", [learning._CACHE_LIMIT, 1])
    def test_rows_equal_independent_runs(self, monkeypatch, limit):
        monkeypatch.setattr(learning, "_CACHE_LIMIT", limit)
        rng = random.Random(7)
        B, I, D = Compromise.BLIND, Compromise.ISOLATED, Compromise.DISABLED
        games = [
            dataclasses.replace(al.gen_random_separable(len(labels), 5, 4, seed=s),
                                compromise=tuple(labels))
            for s, labels in enumerate([[Compromise.NORMAL, B, B], [I, Compromise.NORMAL, D, B],
                                        [D, Compromise.NORMAL, I, Compromise.NORMAL]])
        ]
        games.append(coverage_game(rng, [Compromise.NORMAL, B, I, Compromise.NORMAL]))
        games += [coverage_game(rng, [Compromise.NORMAL, B, Compromise.NORMAL, D], holes=0.2)
                  for _ in range(6)]
        temps, raised, holed = [0.02, 0.5, 8.0], 0, 0
        for game in games:
            a0 = random_start(game, rng)
            seed = rng.randrange(2**32)

            def independent():
                for ti, T in enumerate(temps):
                    for tr in range(3):
                        run = al.lll_run(game, T, 300, learning.sub_seed(seed, ti, tr),
                                         a0=a0, burn_in=20)
                        yield run.row(tr)

            got = sweep_outcome(
                lambda: al.temperature_sweep(game, temps, 300, 3, seed, a0=a0, burn_in=20).rows
            )
            assert got == sweep_outcome(independent), game
            raised += got[0] is al.ModelIncompleteError
            holed += len(game.welfare.table) < 2 ** game.num_resources if not game.separable else 0
        assert raised and holed > raised  # holed tables that raise and that run through

    def test_reads_the_welfares_own_table_by_mask(self):
        # the kernel holds the welfare's table itself, keyed by base-set
        # mask, so however many runs, temperatures and observers, every
        # welfare value is a read of that dict with an int key
        reads = []

        class Table(_Table):
            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

        rng = random.Random(3)
        for game in (sim_table_twin(), coverage_game(rng, [Compromise.NORMAL] * 3 + [
                Compromise.BLIND, Compromise.ISOLATED])):
            assert game._engine.table is game.welfare.table
            want = al.temperature_sweep(game, [0.1, 10.0], steps=5000, trials=2, seed=3)
            game._engine.table = Table(game.welfare.table)
            reads.clear()
            got = al.temperature_sweep(game, [0.1, 10.0], steps=5000, trials=2, seed=3)
            assert got == want
            assert len(set(reads)) > 4
            assert all(type(key) is int and key in game.welfare.table for key in reads)
