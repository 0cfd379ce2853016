"""Log-linear learning over effective utilities, and temperature sweeps.

One uniformly chosen non-disabled agent updates per step, resampling its
action from a softmax (at temperature T) of its effective utility with all
other actions held fixed. Runs are reproducible: a run is a pure function of
(game, temperature, steps, seed, start profile), and sweep trials derive
their sub-seeds from the master seed by a fixed splitting scheme, so a trial's
row does not depend on the other trials.

``lll_run`` is one loop over local state that draws, step for step, what
an uncached per-step update with ``random.Random(seed)`` would draw:

- the agent is drawn by rejection from ``getrandbits``, which is how
  CPython's ``Random.randrange`` draws it, so the random stream is the same;
- each agent holds its current sampling distribution, the running sums of
  its probabilities, so every draw is the same and a step whose agent keeps
  its action costs only its draws. A distribution depends on the agent's
  observed context alone: nothing for an agent that sees nobody (blind and
  isolated agents), else the counts of the visible agents at the resources
  its actions touch (separable welfare) or the bit mask of the base set
  they form (tabulated welfare), read off two masks kept move by move: the
  visible agents' base set and the resources one of them alone selects. A
  move that changes an agent's observed context voids its distribution,
  which is then looked up in a cache keyed by the agent and that context;
  a sweep's trials at one temperature share the cache, so one softmax is
  built per context a temperature visits;
- the welfare is updated in place when the agent switches: separable
  welfare by the changes of the curves at the old action's resources, then
  the new action's, tabulated welfare by one read of the welfare's own
  table, keyed by the base set's bit mask, whenever a count crosses zero.
  The minimum, maximum and trace are taken at the switches too.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import astuple, dataclass, fields
from typing import Optional, Sequence

from .game import (
    Compromise,
    GameInstance,
    JointAction,
    ModelIncompleteError,
    empty_profile,
    validate_joint_action,
)

__all__ = [
    "LllRunResult",
    "SweepRow",
    "SweepResult",
    "action_distribution",
    "lll_run",
    "temperature_sweep",
    "sub_seed",
]

# entries kept by a cache of sampling distributions, one run's or a sweep
# temperature's, before it is emptied; a refill draws the same numbers, so
# this bounds memory only
_CACHE_LIMIT = 1 << 16


@dataclass(frozen=True)
class LllRunResult:
    """Summary of one trajectory; welfare is recorded after every step.

    ``std_welfare`` is the spread of the welfare within this one trajectory,
    not the uncertainty of ``mean_welfare``: successive steps are
    correlated, so the mean's standard error is not ``std_welfare`` divided
    by the square root of the step count.
    """

    temperature: float
    steps: int
    seed: int
    burn_in: int
    mean_welfare: float
    std_welfare: float
    min_welfare: float
    max_welfare: float
    final: JointAction
    trace: Optional[tuple]

    def row(self, trial: int) -> "SweepRow":
        return SweepRow(
            temperature=self.temperature,
            trial=trial,
            mean_welfare=self.mean_welfare,
            std_welfare=self.std_welfare,
            min_welfare=self.min_welfare,
            max_welfare=self.max_welfare,
            steps=self.steps,
            seed=self.seed,
        )


@dataclass(frozen=True)
class SweepRow:
    temperature: float
    trial: int
    mean_welfare: float
    std_welfare: float
    min_welfare: float
    max_welfare: float
    steps: int
    seed: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def pooled_mean(self, temperature: float) -> float:
        means = [r.mean_welfare for r in self.rows if r.temperature == temperature]
        if not means:
            raise KeyError(f"no rows at temperature {temperature!r}")
        return sum(means) / len(means)

    def temperatures(self) -> tuple:
        seen = []
        for r in self.rows:
            if r.temperature not in seen:
                seen.append(r.temperature)
        return tuple(seen)

    def to_csv(self) -> str:
        """One line per row, the fields of :class:`SweepRow` in order; every
        field is a float or an int, so ``repr`` writes it exactly."""
        lines = [",".join(f.name for f in fields(SweepRow))]
        lines += [",".join(map(repr, astuple(r))) for r in self.rows]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared arithmetic (utilities come from the game's evaluation kernel)


def _updatable(game: GameInstance):
    upd = [i for i, c in enumerate(game.compromise) if c is not Compromise.DISABLED]
    if not upd:
        raise ValueError("every agent is disabled, so no agent can update")
    return upd


def _check_temperature(T: float) -> None:
    if not 0 < T < math.inf:  # NaN fails the comparison too
        raise ValueError(f"temperature must be positive and finite, got {T!r}")


def _softmax(utilities, T: float):
    mx = max(utilities)
    weights = [math.exp((u - mx) / T) for u in utilities]
    total = sum(weights)
    return [w / total for w in weights]


def action_distribution(game: GameInstance, i: int, a: JointAction, T: float):
    """Softmax sampling distribution over agent i's actions at profile ``a``.

    Computed max-subtracted, so tiny temperatures with large utility gaps
    underflow to 0 rather than overflowing.
    """
    _check_temperature(T)
    eng = game._engine
    return _softmax(eng.utilities(i, eng.context(a, eng.sees[i])), T)


# ---------------------------------------------------------------------------
# trajectory loop


def lll_run(
    game: GameInstance,
    T: float,
    steps: int,
    seed: int,
    a0: Optional[JointAction] = None,
    burn_in: int = 0,
    keep_trace: bool = False,
) -> LllRunResult:
    """Run the dynamics for ``steps`` updates and summarize the welfare.

    Each step a uniformly chosen non-disabled agent resamples its action
    from the softmax of its effective utilities, from ``a0`` (default:
    everyone opted out) with ``random.Random(seed)``; the welfare is
    maintained incrementally. Statistics cover the steps after ``burn_in``;
    the trace, when kept, covers all steps.
    """
    _check_temperature(T)
    return _play(game, T, steps, seed, a0, burn_in, keep_trace, {})


def _play(
    game: GameInstance,
    T: float,
    steps: int,
    seed: int,
    a0: Optional[JointAction],
    burn_in: int,
    keep_trace: bool,
    cache: dict,
) -> LllRunResult:
    """The loop behind :func:`lll_run`; ``cache`` holds the distributions by
    (agent, observed context), so runs of one game at one temperature may
    share it."""
    if steps < 1:
        raise ValueError("need at least one step")
    if not 0 <= burn_in < steps:
        raise ValueError("burn_in must lie in [0, steps)")
    if a0 is None:
        a0 = empty_profile(game)
    validate_joint_action(game, a0)
    upd = _updatable(game)
    eng = game._engine
    act_res, visible, value, sees = eng.act_res, eng.visible, eng.value, eng.sees
    separable = eng.separable
    curves = eng.curves if separable else None
    every = range(eng.m)
    idxs = [acts.index(a0[i]) for i, acts in enumerate(eng.actions)]
    counts = [0] * eng.m
    vis = [0] * eng.m  # selections by visible agents
    for i, act in enumerate(a0):
        for r in act:
            counts[r] += 1
            vis[r] += visible[i]
    # tabulated welfare, as bit masks: the base set (mask), the visible
    # agents' base set (vmask) and the resources one visible agent alone
    # selects (vones); the table is keyed by mask
    mask = sum([1 << r for r in every if counts[r]])
    vmask = sum([1 << r for r in every if vis[r]])
    vones = sum([1 << r for r in every if vis[r] == 1])
    table, masks = (None, None) if separable else (eng.table, eng.masks)
    # None if a0's base set has no table entry: the error is raised only if
    # step 0 keeps that base set, as a plain per-step update would
    try:
        w = value(counts if separable else mask)
    except ModelIncompleteError:
        w = None
    # Only normal agents observe others: every visible agent but themselves.
    # An observer's softmax depends on the counts it sees at the resources
    # its actions touch, or on the base set it sees for tabulated welfare;
    # watch[r] lists the observers a move on resource r can affect. Every
    # observer of a table sees the one visible base set, so a visible
    # agent's move voids them all.
    touched = [tuple(sorted(set().union(*res))) for res in act_res]
    observers = [a for a in range(eng.n) if sees[a]]
    watch = [[a for a in observers if r in touched[a]] for r in every]
    cur = [None] * eng.n  # each agent's distribution at its observed context

    def distribution(i):
        # i's distribution at its observed context: the running sums of its
        # probabilities but the last, so bisect_right over them is the
        # inverse-CDF draw, and an r past them all draws the last action
        if not sees[i]:
            key = ctx = eng.empty
        elif separable:
            own = eng.actions[i][idxs[i]]
            key, ctx = tuple([vis[r] - (r in own) for r in touched[i]]), None
        else:  # the visible base set without what i alone selects
            key = ctx = vmask & ~(masks[i][idxs[i]] & vones)
        cum = cache.get((i, key))
        if cum is None:
            if len(cache) >= _CACHE_LIMIT:
                cache.clear()
            if ctx is None:
                ctx = [vis[r] - (r in own) for r in every]
            probs = _softmax(eng.utilities(i, ctx), T)
            cum = cache[i, key] = list(itertools.accumulate(probs[:-1]))
        return cum

    rng = random.Random(seed)
    getrandbits, rand = rng.getrandbits, rng.random
    bisect_right = bisect.bisect_right
    # rng.randrange(len(upd)) as CPython's Random._randbelow draws it: a
    # getrandbits value past the agent count is rejected
    bits = len(upd).bit_length()
    pick = upd + [None] * ((1 << bits) - len(upd))
    ww = None if w is None else w * w
    w_min, w_max = math.inf, -math.inf
    changes = [(0, w)] if keep_trace else None  # (step, welfare from then on)
    try:
        for lo, hi in ((0, burn_in), (burn_in, steps)):
            total = total_sq = 0.0  # the burn-in's sums are dropped
            for step in range(lo, hi):
                i = pick[getrandbits(bits)]
                while i is None:
                    i = pick[getrandbits(bits)]
                old = idxs[i]
                cum = cur[i]
                if cum is None:
                    cum = cur[i] = distribution(i)
                j = bisect_right(cum, rand())
                if j != old:
                    if step > burn_in:  # kept steps held the old welfare
                        if w < w_min:
                            w_min = w
                        if w > w_max:
                            w_max = w
                    res_old = act_res[i][old]
                    res_new = act_res[i][j]
                    if separable:
                        for r in res_old:
                            c = counts[r] = counts[r] - 1
                            w += curves[r][c] - curves[r][c + 1]
                        for r in res_new:
                            c = counts[r] = counts[r] + 1
                            w += curves[r][c] - curves[r][c - 1]
                        if visible[i]:
                            keep = cur[i]  # i does not observe itself
                            for r in res_old:
                                vis[r] -= 1
                                for a in watch[r]:
                                    cur[a] = None
                            for r in res_new:
                                vis[r] += 1
                                for a in watch[r]:
                                    cur[a] = None
                            cur[i] = keep
                    else:
                        # the base set changes where a count crosses zero; a
                        # visible agent's move changes vmask where its visible
                        # count crosses zero and vones where it crosses one
                        v = visible[i]
                        for r in res_old:
                            c = counts[r] = counts[r] - 1
                            if not c:
                                mask ^= 1 << r
                            if v:
                                c = vis[r] = vis[r] - 1
                                if c < 2:  # 2 -> 1 sets r's vones bit, 1 -> 0 clears both
                                    vones ^= 1 << r
                                    if not c:
                                        vmask ^= 1 << r
                        for r in res_new:
                            c = counts[r] = counts[r] + 1
                            if c == 1:
                                mask ^= 1 << r
                            if v:
                                c = vis[r] = vis[r] + 1
                                if c < 3:  # 0 -> 1 sets both, 1 -> 2 clears r's vones bit
                                    vones ^= 1 << r
                                    if c == 1:
                                        vmask ^= 1 << r
                        if v:
                            keep = cur[i]  # i does not observe itself
                            for a in observers:
                                cur[a] = None
                            cur[i] = keep
                        w = table[mask]
                    ww = w * w
                    idxs[i] = j
                    if changes is not None:
                        changes.append((step, w))
                total += w
                total_sq += ww
    except TypeError:  # None added to the sums: step 0 kept a hole in the table
        if w is not None:
            raise
    if w is None:  # step 0 kept a0's base set, which has no table entry
        value(mask)
    w_min, w_max = min(w_min, w), max(w_max, w)  # the last welfare is kept
    trace = None
    if changes is not None:
        trace = []
        for (s, v), (e, _) in zip(changes, changes[1:] + [(steps, None)]):
            trace += [v] * (e - s)
    count = steps - burn_in
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return LllRunResult(
        temperature=T,
        steps=steps,
        seed=seed,
        burn_in=burn_in,
        mean_welfare=mean,
        std_welfare=math.sqrt(var),
        min_welfare=w_min,
        max_welfare=w_max,
        final=eng.profile(idxs),
        trace=None if trace is None else tuple(trace),
    )


# ---------------------------------------------------------------------------
# sweeps


def sub_seed(master: int, temp_index: int, trial_index: int) -> int:
    """Deterministic per-(temperature, trial) seed derived from the master.

    Fixed mixing constants; documented so shards can be reproduced in
    isolation.
    """
    return (
        master * 0x9E3779B97F4A7C15
        + (temp_index + 1) * 0xBF58476D1CE4E5B9
        + (trial_index + 1) * 0x94D049BB133111EB
    ) % 2**63


def temperature_sweep(
    game: GameInstance,
    temperatures: Sequence,
    steps: int,
    trials: int,
    seed: int,
    a0: Optional[JointAction] = None,
    burn_in: int = 0,
) -> SweepResult:
    """Run ``trials`` trajectories per temperature and collect per-trial rows,
    ordered by (temperature index, trial); each trial runs from its own
    :func:`sub_seed`, so equal inputs give byte-identical CSVs. A
    temperature's trials share their sampling distributions, and each row
    is the :func:`lll_run` row of its sub-seed.
    """
    temps = [float(t) for t in temperatures]
    if not temps:
        raise ValueError("need at least one temperature")
    for t in temps:
        _check_temperature(t)
    if trials < 1:
        raise ValueError("need at least one trial")
    rows = []
    for ti, T in enumerate(temps):
        cache = {}  # a temperature's trials share its distributions
        rows += [
            _play(game, T, steps, sub_seed(seed, ti, tr), a0, burn_in, False, cache).row(tr)
            for tr in range(trials)
        ]
    return SweepResult(rows=tuple(rows))
