"""Exact equilibrium analysis: best responses, pure Nash enumeration, optima,
price of anarchy against closed-form worst-case bounds, per-instance bound
certificates, and randomized worst-case instance search.

Everything here is exact and deterministic. Equilibria come from the one
search in ``enumeration``: :func:`enumerate_pne` lists every profile (the
``pne`` command), and every other answer (the anarchy ratio, the bound
sweeps, the worst-case search, learning's worst-equilibrium start) reads
:func:`_worst_pne`, which folds the orbits of interchangeable agents into
an exact count and the worst profile, both the ones a scan of every profile
finds. Welfare optima come from a dynamic program over agents that returns
what a scan of every profile would. The fast paths evaluate through the
game's evaluation kernel (``game._Engine``); the profile-level
``best_response_set`` and ``is_pne`` evaluate the model's definitions
directly and are the reference the tests hold the kernel to. Bound
certificates value each term of a chain once, as a kernel context; the
(1+k) chain's residual game is the optimum search restricted to the blind
agents' equilibrium actions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .game import (
    EMPTY_ACTION,
    TOLERANCE,
    Compromise,
    GameInstance,
    JointAction,
    ModelIncompleteError,
    SizeCapError,
    Utility,
    _Engine,
    effective_utility,
    validate_joint_action,
    welfare_eval,
)
from .enumeration import _agent_classes, _argmax_indices, _search
from .instances import _check_size_limits, _labels_for, _random_game, _step_curve

DEFAULT_ENUM_CAP = 10_000_000

__all__ = [
    "DEFAULT_ENUM_CAP",
    "UtilityClass",
    "EquilibriumSet",
    "PoAReport",
    "ChainStep",
    "BoundChainCertificate",
    "SearchConfig",
    "best_response_set",
    "is_pne",
    "enumerate_pne",
    "optimal_welfare",
    "theoretical_poa",
    "instance_poa",
    "check_bound_chain_general",
    "check_bound_chain_mc",
    "worst_case_search",
]


class UtilityClass(Enum):
    GENERAL_VUG = "vug"
    MARGINAL_CONTRIBUTION = "mc"


@dataclass(frozen=True)
class EquilibriumSet:
    """All pure Nash equilibria, in lexicographic enumeration order.

    ``nodes`` counts the partial profiles the search assigned (complete
    ones included) and ``pruned`` those it cut; neither takes part in
    comparison."""

    profiles: tuple
    welfares: tuple
    nodes: int = field(default=0, compare=False)
    pruned: int = field(default=0, compare=False)

    @property
    def is_empty(self) -> bool:
        return not self.profiles

    def worst(self):
        """(welfare, profile) of the worst equilibrium; first among ties."""
        if self.is_empty:
            return None
        idx = min(range(len(self.welfares)), key=self.welfares.__getitem__)
        return self.welfares[idx], self.profiles[idx]


@dataclass(frozen=True)
class PoAReport:
    opt_welfare: float
    opt_profile: JointAction
    worst_ne_welfare: Optional[float]
    worst_ne_profile: Optional[JointAction]
    ratio: Optional[float]
    theoretical_bound: float
    bound_satisfied: Optional[bool]
    pne_count: int


@dataclass(frozen=True)
class ChainStep:
    label: str
    left: float
    right: float
    holds: bool


@dataclass(frozen=True)
class BoundChainCertificate:
    """Numeric evaluation of a worst-case proof chain on one instance."""

    kind: str  # "2+k" or "1+k"
    steps: tuple
    holds: bool
    extrapolated: bool  # evaluated outside the range the chain was derived for


# ---------------------------------------------------------------------------
# best responses and equilibria


def best_response_set(game: GameInstance, i: int, a: JointAction):
    """All actions of agent i maximizing its effective utility at ``a``,
    ties kept within the global tolerance. Disabled agents return only the
    empty action."""
    if game.compromise[i] is Compromise.DISABLED:
        return (EMPTY_ACTION,)
    utilities = [
        effective_utility(game, i, a[:i] + (act,) + a[i + 1 :])
        for act in game.action_sets[i]
    ]
    keep = _argmax_indices(utilities)
    return tuple(game.action_sets[i][j] for j in keep)


def is_pne(game: GameInstance, a: JointAction) -> bool:
    """True iff every agent's entry is in its best-response set at ``a``."""
    validate_joint_action(game, a)
    return all(a[i] in best_response_set(game, i, a) for i in range(game.n))


def enumerate_pne(game: GameInstance, cap: int = DEFAULT_ENUM_CAP) -> EquilibriumSet:
    """Exhaustively list every pure Nash equilibrium.

    Deterministic lexicographic order (agent index, then action index).
    This is :func:`enumeration._search` with every agent a class of its
    own: it visits profiles in the order of a scan of every profile and
    returns the scan's result. SizeCapError once more than ``cap`` branches end, on complete
    profiles or cut subtrees: disjoint sets of profiles, so no game of at
    most ``cap`` profiles is refused.
    """
    profiles, welfares = [], []

    def keep(idxs, weight, welfare):
        profiles.append(game._engine.profile(idxs))
        welfares.append(welfare)

    nodes, pruned = _search(game, [[i] for i in range(game.n)], cap, keep)
    return EquilibriumSet(
        profiles=tuple(profiles), welfares=tuple(welfares), nodes=nodes, pruned=pruned
    )


def _worst_pne(game: GameInstance):
    """``(count, welfare, profile)``: the number of pure Nash equilibria, an
    exact int, and the worst one, the lexicographically first among ties;
    ``(0, None, None)`` if there is none. One search over the agent classes,
    keeping only these three; the same as :func:`enumerate_pne`'s
    ``len(profiles)`` and ``worst()``. SizeCapError as there, counting the
    branches of this search; a missing table entry is reported as there, the
    first one a scan of every profile meets."""
    count, worst = 0, None

    def fold(idxs, weight, welfare):
        nonlocal count, worst
        count += weight
        if worst is None or welfare < worst[0] or (welfare == worst[0] and idxs < worst[1]):
            worst = welfare, idxs[:]

    try:
        _search(game, _agent_classes(game), DEFAULT_ENUM_CAP, fold)
    except ModelIncompleteError:  # the orbits may meet another missing entry first
        enumerate_pne(game)
        raise
    if worst is None:
        return 0, None, None
    return count, worst[0], game._engine.profile(worst[1])


def optimal_welfare(game: GameInstance, cap: int = DEFAULT_ENUM_CAP):
    """Exact welfare maximum over the full (uncompromised) action space.

    The optimum is the design-time benchmark in the anarchy ratio, so the
    compromise labels are ignored here; equilibrium-side operations still
    force disabled agents to opt out. The search runs a dynamic program over
    agents in index order (see :func:`_best_profile`) instead of visiting
    every profile, yet returns what a full scan would: the largest welfare
    as the profile evaluation computes it in floating point, and the
    lexicographically first profile reaching it (agent index, then action
    index), even where two sums differ in the last bit only. SizeCapError
    once a pass has more than ``cap`` branches, as in :func:`enumerate_pne`.
    """
    eng = game._engine
    best, idxs = _best_profile(eng, [range(len(acts)) for acts in eng.actions], cap)
    return best, eng.profile(idxs)


def _flat_from(curve) -> int:
    """The first count from which a curve keeps the same float value."""
    t = len(curve) - 1
    while t > 0 and curve[t - 1] == curve[t]:
        t -= 1
    return t


def _best_profile(eng: _Engine, choices, cap: int = DEFAULT_ENUM_CAP):
    """(value, indices) of the lexicographically first profile maximizing
    the welfare of ``eng.profile(indices)`` when agent i plays one of the action indices
    ``choices[i]`` (in increasing order) — bit for bit what a scan of every
    profile keeping the first strictly better one returns. SizeCapError
    once a pass has more than ``cap`` branches: one plus each expanded
    state's or node's choices beyond the first, never more than the
    profiles ``choices`` spans (a layer has no more states than prefixes)."""
    # A resource is settled once the last agent able to select it has
    # moved; its value is then folded in. Counts are clipped where a curve
    # turns float-constant, which changes no welfare value. A table reads
    # only which resources are selected, so there every count clips at 1,
    # no resource settles early, and the last agent's move folds in the
    # entry of the base set it completes; the states of that layer are
    # listed in the order of the first prefix reaching them, so the first
    # missing entry raised is the one a scan would meet first.
    n, m = eng.n, eng.m
    act_res = eng.act_res
    settles = [[] for _ in range(n)]
    if eng.separable:
        curves = eng.curves
        flat = [_flat_from(c) for c in curves]
        last = {}
        for i, cand in enumerate(choices):
            for j in cand:
                for r in act_res[i][j]:
                    last[r] = i
        for r in sorted(last):
            settles[last[r]].append(r)
    else:
        flat = [1] * m
    table_at = None if eng.separable else n - 1

    # moves[i][state]: (action, settled value, next state) per choice of
    # agent i, for every reachable state (clipped counts, settled ones 0)
    zero = (0,) * m
    moves = []
    states = {zero: None}
    branches = 1
    for i, cand in enumerate(choices):
        branches += len(states) * (len(cand) - 1)
        if branches > cap:
            raise SizeCapError(f"optimum DP reached {branches} branches, past the cap {cap}")
        layer = {}
        for state in states:
            row = []
            for j in cand:
                counts = list(state)
                for r in act_res[i][j]:
                    if counts[r] < flat[r]:
                        counts[r] += 1
                gain = 0.0
                for r in settles[i]:
                    gain += curves[r][counts[r]]
                    counts[r] = 0
                if i == table_at:
                    gain = eng.value(sum([1 << r for r in range(m) if counts[r]]))
                    counts = zero
                row.append((j, gain, tuple(counts)))
            layer[state] = row
        moves.append(layer)
        states = dict.fromkeys(nxt for row in layer.values() for _, _, nxt in row)

    # bound[i][state]: the most welfare agents i.. can still settle
    bound = [{zero: 0.0}]
    for layer in reversed(moves):
        after = bound[-1]
        bound.append(
            {s: max(g + after[nxt] for _, g, nxt in row) for s, row in layer.items()}
        )
    bound.reverse()

    # Depth-first in lexicographic order, evaluating leaves exactly as the
    # scan does. A child is cut when even its best completion falls short
    # of the optimum by more than rounding can explain, or when an earlier
    # node at its depth had the same clipped counts: every completion of
    # that node gives the same float welfare on a smaller profile.
    top = bound[0][zero]
    floor = top - 1e-9 * (1.0 + abs(top))
    best, best_idxs = -math.inf, None
    seen = set()
    stack = [(0, zero, 0.0, zero, ())]
    branches = 1
    while stack:
        depth, state, folded, full, idxs = stack.pop()
        key = (depth, full)
        if key in seen:
            continue
        seen.add(key)
        if depth == n:
            w = eng.value(eng.context(eng.profile(idxs)))
            if w > best:
                best, best_idxs = w, idxs
            continue
        row = moves[depth][state]
        branches += len(row) - 1
        if branches > cap:
            raise SizeCapError(f"optimum DFS reached {branches} branches, past the cap {cap}")
        after = bound[depth + 1]
        children = []
        for j, gain, nxt in row:
            if folded + gain + after[nxt] < floor:
                continue
            counts = list(full)
            for r in act_res[depth][j]:
                if counts[r] < flat[r]:
                    counts[r] += 1
            children.append((depth + 1, nxt, folded + gain, tuple(counts), idxs + (j,)))
        stack.extend(reversed(children))
    return best, best_idxs


def theoretical_poa(
    n: int,
    k: int,
    any_disabled: bool = False,
    any_blind: bool = False,
    utility_class: UtilityClass = UtilityClass.GENERAL_VUG,
) -> float:
    """Closed-form worst-case anarchy ratio for a game class.

    With a disabled agent the guarantee collapses to 0. Otherwise the general
    class guarantees max(1/(2+k), 1/n); marginal-contribution games improve
    to 1/(1+k) when at least one compromised agent is blind rather than
    isolated.
    """
    if not 0 <= k <= n:
        raise ValueError(f"compromised count k={k} must satisfy 0 <= k <= n={n}")
    if any_blind and k == 0:
        raise ValueError("a blind agent implies k >= 1")
    if any_disabled:
        return 0.0
    if utility_class is UtilityClass.MARGINAL_CONTRIBUTION and any_blind:
        return 1.0 / (1.0 + k)
    return max(1.0 / (2.0 + k), 1.0 / n)


def _classify(game: GameInstance):
    k = len(game.compromised)
    any_disabled = bool(game.agents_with(Compromise.DISABLED))
    any_blind = bool(game.agents_with(Compromise.BLIND))
    klass = (
        UtilityClass.MARGINAL_CONTRIBUTION
        if all(u is Utility.MARGINAL_CONTRIBUTION for u in game.utilities)
        else UtilityClass.GENERAL_VUG
    )
    return k, any_disabled, any_blind, klass


def instance_poa(game: GameInstance, optimum=None) -> PoAReport:
    """Worst equilibrium welfare over the optimum, with the class bound.

    Games with no pure Nash equilibrium, an all-zero optimum or an optimum
    that overflows to inf report an undefined ratio and are excluded from
    bound checks. ``optimum`` is the game's :func:`optimal_welfare` where
    the caller has it already; it ignores the labels, so every relabeling
    of a game shares it.
    """
    count, worst_w, worst_a = _worst_pne(game)
    opt_w, opt_a = optimal_welfare(game) if optimum is None else optimum
    k, any_disabled, any_blind, klass = _classify(game)
    bound = theoretical_poa(game.n, k, any_disabled, any_blind, klass)
    ratio = None
    if worst_a is not None and TOLERANCE < opt_w < math.inf:
        ratio = worst_w / opt_w
    return PoAReport(
        opt_welfare=opt_w,
        opt_profile=opt_a,
        worst_ne_welfare=worst_w,
        worst_ne_profile=worst_a,
        ratio=ratio,
        theoretical_bound=bound,
        bound_satisfied=None if ratio is None else ratio >= bound - TOLERANCE,
        pne_count=count,
    )


# ---------------------------------------------------------------------------
# bound-chain certificates


def _validate_chain_inputs(game, a_ne, a_opt):
    validate_joint_action(game, a_ne)
    validate_joint_action(game, a_opt, playable=False)
    if not is_pne(game, a_ne):
        raise ValueError("a_ne is not a pure Nash equilibrium of this game")
    opt_w, _ = optimal_welfare(game)
    if welfare_eval(game, a_opt) < opt_w - TOLERANCE:
        raise ValueError("a_opt is not welfare-optimal for this game")


def _certificate(kind: str, first: float, steps, extrapolated: bool) -> BoundChainCertificate:
    """The certificate of a chain that starts at ``first`` and moves on to
    the value of each ``(label, value)`` step in turn; a step holds when its
    left side is at most its right side plus the tolerance."""
    chain = []
    left = first
    for label, right in steps:
        chain.append(ChainStep(label, left, right, left <= right + TOLERANCE))
        left = right
    return BoundChainCertificate(
        kind=kind,
        steps=tuple(chain),
        holds=all(s.holds for s in chain),
        extrapolated=extrapolated,
    )


def check_bound_chain_general(
    game: GameInstance,
    a_ne: JointAction,
    a_opt: JointAction,
    validate: bool = True,
) -> BoundChainCertificate:
    """Evaluate the (2+k)-factor worst-case chain on one instance.

    Walks the inequality chain from the optimal welfare down to
    (2+k)·W(equilibrium), evaluating both sides of every step with the
    instance's observation structure, for any valid-utility assignment with
    no disabled agents. The chain is derived for k < n-1; larger k is still
    evaluated but flagged extrapolated.
    """
    if game.agents_with(Compromise.DISABLED):
        raise ValueError("the chain is defined for games without disabled agents")
    if validate:
        _validate_chain_inputs(game, a_ne, a_opt)

    eng = game._engine
    n = eng.n
    comp = set(game.compromised)
    k = len(comp)
    normals = [i for i in range(n) if i not in comp]
    # what each agent observes of a_ne; a compromised agent observes nobody,
    # so an action on top of its context is that action played alone
    seen = [eng.context(a_ne, agents) for agents in eng.sees]

    def on_seen(i, act):
        return eng.value(eng.join(seen[i], act))

    def gain(i, act):
        return on_seen(i, act) - eng.value(seen[i])

    def utility(i, act):
        if eng.is_mc[i]:
            return gain(i, act)
        return eng.utilities(i, seen[i])[eng.actions[i].index(act)]

    w_opt = eng.value(eng.context(a_opt))
    w_ne = eng.value(eng.context(a_ne))

    # telescoped insertion of optimal actions, in index order; the last
    # context is a_opt joined agent by agent with a_ne
    ctx = eng.context(a_ne)
    w_joined = w_ne
    telescope = 0.0
    for i in range(n):
        ctx = eng.join(ctx, a_opt[i] - a_ne[i])
        w_before, w_joined = w_joined, eng.value(ctx)
        telescope += w_joined - w_before

    # the same marginals, each taken in its observer's reduced context
    reduced = 0.0
    for i in range(n):
        reduced += gain(i, a_opt[i])

    opt_at_ctx = sum(utility(i, a_opt[i]) for i in normals)
    solo_opt = sum(on_seen(i, a_opt[i]) for i in comp)
    ne_at_ctx = sum(utility(i, a_ne[i]) for i in normals)
    eff_opt_alone = sum(utility(i, a_opt[i]) for i in comp)
    eff_ne_alone = sum(utility(i, a_ne[i]) for i in comp)
    solo_ne = sum(on_seen(i, a_ne[i]) for i in comp)

    return _certificate("2+k", w_opt, [
        ("optimum_below_joined_profiles", w_joined),
        ("telescoped_insertion", w_ne + telescope),
        ("submodular_context_reduction", w_ne + reduced),
        ("utilities_dominate_marginals", w_ne + opt_at_ctx + solo_opt),
        ("equilibrium_deviations_unprofitable", w_ne + ne_at_ctx + eff_opt_alone),
        ("utility_sums_below_welfare", 2.0 * w_ne + eff_ne_alone),
        ("compromised_utilities_below_solo_welfare", 2.0 * w_ne + solo_ne),
        ("solo_welfares_below_equilibrium_welfare", (2.0 + k) * w_ne),
    ], extrapolated=k >= n - 1)


def check_bound_chain_mc(
    game: GameInstance,
    a_ne: JointAction,
    a_opt: JointAction,
    validate: bool = True,
) -> BoundChainCertificate:
    """Evaluate the (1+k)-factor chain for marginal-contribution games with
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
        _validate_chain_inputs(game, a_ne, a_opt)

    eng = game._engine
    n = eng.n
    comp = set(game.compromised)
    k = len(comp)
    normals = [i for i in range(n) if i not in comp]
    ne_blind = eng.context(a_ne, blind)

    def with_blind(a, agents):
        # the entries a[i] for ``agents`` joined agent by agent with the
        # blind agents' equilibrium actions
        ctx = ne_blind
        for i in agents:
            ctx = eng.join(ctx, a[i] - a_ne[i] if i in blind else a[i])
        return ctx

    w_ne_blind = eng.value(ne_blind)
    w_ne = eng.value(eng.context(a_ne))
    w_opt = eng.value(eng.context(a_opt))
    solo_opt = sum(eng.value(eng.join(eng.empty, a_opt[i])) for i in comp)
    solo_ne = sum(eng.value(eng.join(eng.empty, a_ne[i])) for i in comp)

    # residual optimum: the normal agents' best joint action on top of the
    # blind agents' equilibrium actions
    choices = [
        range(len(acts))
        if i in normals
        else [acts.index(a_ne[i]) if i in blind else 0]  # 0: the empty action
        for i, acts in enumerate(game.action_sets)
    ]
    best_joined, _ = _best_profile(eng, choices)
    best_residual = max(0.0, best_joined - w_ne_blind)

    w_joined = eng.value(with_blind(a_opt, range(n)))
    w_opt_normals = eng.value(with_blind(a_opt, normals))
    w_ne_normals = eng.value(with_blind(a_ne, normals))
    blind_twice = 2.0 * w_ne_blind
    rest = (k - 1) * w_ne
    return _certificate("1+k", w_opt, [
        ("optimum_below_joined_blind_profile", w_joined),
        ("submodular_peel_of_compromised", w_opt_normals + solo_opt),
        ("compromised_best_respond_alone", w_opt_normals + solo_ne),
        ("fold_into_blind_profile", w_opt_normals + w_ne_blind + rest),
        ("residual_welfare_rewrite", (w_opt_normals - w_ne_blind) + blind_twice + rest),
        ("residual_optimum", best_residual + blind_twice + rest),
        ("residual_factor_two", 2.0 * (w_ne_normals - w_ne_blind) + blind_twice + rest),
        ("residual_unfold", 2.0 * w_ne_normals + rest),
        ("joined_equilibrium_below_full", (1.0 + k) * w_ne),
    ], extrapolated=False)


# ---------------------------------------------------------------------------
# worst-case instance search


@dataclass(frozen=True)
class SearchConfig:
    """Randomized search over small flat-curve instances.

    ``value_grid`` supplies per-resource values (curves are flat after one
    selection, the shape every known tight family uses); ``budget`` is the
    number of candidates sampled. Fully determined by ``seed``.
    """

    n: int
    k: int
    labels: tuple
    utility_class: UtilityClass
    value_grid: tuple
    budget: int
    seed: int
    max_resources: int = 4
    max_actions: int = 3


def worst_case_search(config: SearchConfig):
    """Sample instances and keep the one with the smallest defined ratio.

    Returns (game, report) of the worst instance found. Candidates with no
    equilibrium, or a zero or overflowing optimum, have no ratio and are
    skipped, as is a candidate whose analysis passes its cap of branches
    (SizeCapError); ValueError if all were. Best-effort, deterministic
    given the seed.
    """
    if config.k > config.n:
        raise ValueError("k must not exceed n")
    try:
        _labels_for(config.k, config.labels)
        _check_size_limits(config.n, config.max_resources, config.max_actions)
    except ValueError as exc:
        raise ValueError(f"search config: {exc}") from None
    rng = random.Random(config.seed)
    best = None
    for _ in range(config.budget):
        game = _sample_candidate(config, rng)
        try:
            report = instance_poa(game)
        except SizeCapError:
            continue
        if report.ratio is None:
            continue
        if best is None or report.ratio < best[1].ratio:
            best = (game, report)
    if best is None:
        raise ValueError(
            "no sampled candidate produced a defined ratio "
            "(each had no equilibrium, a zero optimum, an optimum that overflows, "
            "or an analysis past its cap of branches)"
        )
    return best


def _sample_candidate(config: SearchConfig, rng: random.Random) -> GameInstance:
    m = rng.randint(1, config.max_resources)
    curves = [_step_curve(rng.choice(config.value_grid), config.n) for _ in range(m)]
    utilities = (Utility.MARGINAL_CONTRIBUTION, Utility.EQUAL_SHARE)
    if config.utility_class is UtilityClass.MARGINAL_CONTRIBUTION:
        utilities = utilities[:1]
    return _random_game(
        rng, config.n, curves, config.max_actions, config.labels, utilities
    )
