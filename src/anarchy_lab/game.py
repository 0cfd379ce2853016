"""Game model: agents choosing resource subsets, welfare, utilities, compromise.

Agents are indexed 0..n-1 and pick actions that are subsets of a common
resource pool. System welfare is either *separable* (a concave nondecreasing
value curve per resource, evaluated at the selection count) or *tabulated*
(an explicit set function on the base set of selected resources). Designed
utilities are marginal contribution (MC) or equal share (ES); a compromise
label per agent (normal / blind / isolated / disabled) rewires what each
agent's *effective* utility can see.

All values are finite nonnegative floats compared with the global tolerance
``TOLERANCE``; games are immutable after construction and every operation
here is a pure function of its inputs.

Each game builds one private evaluation kernel (``_Engine``) on first
use. It is the single place that turns a profile into a *context*
(selection counts, or the base set's bit mask for tabulated welfare), a
context into a welfare value, and a context into an agent's candidate
utilities; the fast paths in ``equilibrium`` and ``learning`` all evaluate
through it, and read a table as the welfare holds it, by mask. It owns
the per-resource utility terms of separable welfare, which its utilities,
the enumeration's bounds and :func:`check_vug`'s equal shares read, and
the per-resource certificate that settles the validators for separable
welfare without a scan. The profile-level functions here
(``marginal_contribution``, ``equal_share``, ``designed_utility``,
``effective_utility``) keep their definitions from the model and serve as
the independent reference the kernel is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

TOLERANCE = 1e-9

Action = frozenset
EMPTY_ACTION: Action = frozenset()
JointAction = tuple

DEFAULT_CHECK_CAP = 250_000

__all__ = [
    "TOLERANCE",
    "EMPTY_ACTION",
    "Action",
    "JointAction",
    "Utility",
    "Compromise",
    "SeparableWelfare",
    "TabulatedWelfare",
    "WelfareSpec",
    "GameInstance",
    "ValidationError",
    "ModelIncompleteError",
    "UnsupportedUtilityError",
    "SizeCapError",
    "base_set",
    "selection_counts",
    "welfare_eval",
    "marginal_contribution",
    "equal_share",
    "designed_utility",
    "observed_set",
    "observation_structure",
    "masked_profile",
    "effective_utility",
    "empty_profile",
    "joint_space_size",
    "all_profiles",
    "validate_joint_action",
    "CheckFinding",
    "SubmodularityReport",
    "VugReport",
    "check_submodular",
    "check_vug",
]


class ValidationError(ValueError):
    """A game instance (or document) violates a structural invariant."""


class ModelIncompleteError(LookupError):
    """A tabulated welfare has no entry for a reachable base set."""


class UnsupportedUtilityError(ValueError):
    """The requested utility is not admissible for this welfare form."""


class SizeCapError(RuntimeError):
    """A search would pass its work cap: more branches than the
    equilibrium and optimum searches' budget, more profiles than the
    utility scan admits, or more contexts than the submodularity scan
    admits for its agents and actions (a game the certificate settles is
    never scanned). The message names the search and its count."""


class Utility(Enum):
    MARGINAL_CONTRIBUTION = "mc"
    EQUAL_SHARE = "es"


class Compromise(Enum):
    NORMAL = "normal"
    BLIND = "blind"
    ISOLATED = "isolated"
    DISABLED = "disabled"


@dataclass(frozen=True)
class SeparableWelfare:
    """Separable welfare: one value curve per resource, indexed by count.

    ``curves[r][c]`` is the value of resource ``r`` when exactly ``c`` agents
    select it; each curve has length n+1, starts at 0, is nonnegative,
    nondecreasing and has nonincreasing increments (decreasing marginal
    returns). Welfare of a profile is the sum of per-resource curve values at
    the selection counts, so duplicate selections of a resource count.
    """

    curves: tuple

    @property
    def num_resources(self) -> int:
        return len(self.curves)


class _Table(dict):
    """A table's values by base-set bit mask, hashed by its entries (it never
    changes once built); reading a missing mask raises ModelIncompleteError."""

    def __missing__(self, mask):
        raise ModelIncompleteError(f"no welfare table entry for base set {_mask_ids(mask)}")

    def __hash__(self):
        return hash(frozenset(self.items()))


@dataclass(frozen=True)
class TabulatedWelfare:
    """Tabulated welfare: an explicit value per base set of resources.

    Duplicate selections collapse: the welfare of a profile is the table
    value of the union of the selected actions. ``entries`` takes any
    iterable of (base set, value) pairs; ``table`` keeps each value by its
    base set's bit mask (bit r for resource r), the form the kernel reads,
    so instances hash and compare structurally whatever order the pairs
    came in. An id outside ``range(num_resources)`` or a base set listed
    twice is a ValidationError that names it.
    """

    entries: InitVar[Iterable]
    num_resources: int
    table: dict = field(init=False, repr=False)  # base-set mask -> value

    def __post_init__(self, entries):
        m, table = self.num_resources, _Table()
        for subset, value in entries:
            mask = 0
            for r in subset:
                if not (isinstance(r, int) and 0 <= r < m):  # checked before any shift
                    raise ValidationError(f"table subset references unknown resource id {r}")
                mask |= 1 << r
            if mask in table:
                raise ValidationError(f"duplicate table entry for {_mask_ids(mask)}")
            table[mask] = float(value)
        object.__setattr__(self, "table", table)

    @staticmethod
    def from_mapping(table: Mapping, num_resources: int) -> "TabulatedWelfare":
        return TabulatedWelfare(table.items(), num_resources)


WelfareSpec = Union[SeparableWelfare, TabulatedWelfare]


def _canonical_action_set(actions: Iterable, num_resources: int) -> tuple:
    """Dedupe, force the empty action in, and sort by (size, resource ids)."""
    acts = {EMPTY_ACTION}
    for a in actions:
        acts.add(frozenset(a))
    for a in acts:
        for r in a:
            if not (isinstance(r, int) and 0 <= r < num_resources):
                raise ValidationError(f"action references unknown resource id {r!r}")
    return tuple(sorted(acts, key=lambda a: (len(a), sorted(a))))


@dataclass(frozen=True)
class GameInstance:
    """An immutable game: welfare, per-agent action sets, utilities, labels.

    Action sets are canonicalized at construction (deduplicated, the empty
    opt-out action always present, sorted by size then resource ids), so the
    action *index* order used by enumeration and serialization is a pure
    function of the content.
    """

    welfare: WelfareSpec
    action_sets: tuple
    utilities: tuple
    compromise: tuple

    def __post_init__(self):
        m = self.welfare.num_resources
        canon = tuple(
            _canonical_action_set(acts, m) for acts in self.action_sets
        )
        object.__setattr__(self, "action_sets", canon)
        object.__setattr__(self, "utilities", tuple(Utility(u) for u in self.utilities))
        object.__setattr__(
            self, "compromise", tuple(Compromise(c) for c in self.compromise)
        )
        self._validate()

    def _validate(self) -> None:
        n = len(self.action_sets)
        if n == 0:
            raise ValidationError("a game needs at least one agent")
        if len(self.utilities) != n or len(self.compromise) != n:
            raise ValidationError(
                "utilities and compromise labels must have one entry per agent"
            )
        w = self.welfare
        if isinstance(w, SeparableWelfare):
            checked = set()  # a curve equal to one checked before passes too
            for r, curve in enumerate(w.curves):
                if tuple(curve) not in checked:
                    _validate_curve(curve, r, n)
                    checked.add(tuple(curve))
        elif isinstance(w, TabulatedWelfare):
            for mask, value in w.table.items():
                if not 0 <= value < math.inf:
                    what = "is negative" if math.isfinite(value) else "is not finite"
                    raise ValidationError(f"table value for {_mask_ids(mask)} {what}")
            if w.table.get(0, 0.0) != 0.0:
                raise ValidationError("welfare is not normalized: W(empty) != 0")
        else:
            raise ValidationError(f"unknown welfare spec {type(w).__name__}")
        for i, u in enumerate(self.utilities):
            if u is Utility.EQUAL_SHARE and not isinstance(w, SeparableWelfare):
                raise UnsupportedUtilityError(
                    f"agent {i}: equal-share utility needs separable welfare"
                )

    @cached_property
    def _engine(self) -> _Engine:
        """The evaluation kernel, built on first use (not a field)."""
        return _Engine(self)

    @property
    def n(self) -> int:
        return len(self.action_sets)

    @property
    def num_resources(self) -> int:
        return self.welfare.num_resources

    @property
    def separable(self) -> bool:
        return isinstance(self.welfare, SeparableWelfare)

    def agents_with(self, *labels: Compromise) -> tuple:
        return tuple(i for i, c in enumerate(self.compromise) if c in labels)

    @property
    def compromised(self) -> tuple:
        return self.agents_with(Compromise.BLIND, Compromise.ISOLATED, Compromise.DISABLED)


def _validate_curve(curve: Sequence, r: int, n: int) -> None:
    if len(curve) != n + 1:
        raise ValidationError(
            f"resource {r}: curve must list values for counts 0..{n} "
            f"(got {len(curve)} entries)"
        )
    if not all(map(math.isfinite, curve)):
        raise ValidationError(f"resource {r}: curve values must be finite")
    if curve[0] != 0.0:
        raise ValidationError(f"resource {r}: curve must start at 0 (normalized)")
    for c in range(len(curve)):
        if curve[c] < 0:
            raise ValidationError(f"resource {r}: negative value at count {c}")
        if c >= 1 and curve[c] < curve[c - 1]:
            raise ValidationError(f"resource {r}: curve decreases at count {c}")
        if c >= 2 and curve[c] - curve[c - 1] > curve[c - 1] - curve[c - 2] + TOLERANCE:
            raise ValidationError(
                f"resource {r}: increasing marginal returns at count {c} "
                "(curve is not concave)"
            )


# ---------------------------------------------------------------------------
# profile helpers


def empty_profile(game: GameInstance) -> JointAction:
    return (EMPTY_ACTION,) * game.n


def base_set(a: JointAction) -> frozenset:
    """The base set R(a): union of all selected resources."""
    out = set()
    for act in a:
        out |= act
    return frozenset(out)


def selection_counts(game: GameInstance, a: JointAction):
    """Per-resource selection counts |a|_r (duplicates count)."""
    counts = [0] * game.num_resources
    for act in a:
        for r in act:
            counts[r] += 1
    return counts


def joint_space_size(game: GameInstance) -> int:
    size = 1
    for acts in game.action_sets:
        size *= len(acts)
    return size


def all_profiles(game: GameInstance):
    """Every admissible profile, lexicographic by agent then action index."""
    return itertools.product(*game.action_sets)


def validate_joint_action(game: GameInstance, a: JointAction, playable: bool = True) -> None:
    """Raise unless ``a`` is admissible (and, if ``playable``, respects
    forced empty actions of disabled agents)."""
    if len(a) != game.n:
        raise ValidationError(f"profile has {len(a)} entries for {game.n} agents")
    for i, act in enumerate(a):
        if act not in game.action_sets[i]:
            raise ValidationError(f"agent {i}: action {sorted(act)} not in its action set")
        if playable and game.compromise[i] is Compromise.DISABLED and act:
            raise ValidationError(f"agent {i} is disabled and must play the empty action")


# ---------------------------------------------------------------------------
# welfare and utilities


def welfare_eval(game: GameInstance, a: JointAction) -> float:
    """System welfare of a profile.

    Separable welfare sums each resource's curve at its selection count;
    tabulated welfare looks up the base set (duplicate selections collapse).
    Raises ModelIncompleteError when a tabulated base set has no entry.
    """
    eng = game._engine
    return eng.value(eng.context(a))


def marginal_contribution(game: GameInstance, i: int, a: JointAction) -> float:
    """W(a) minus W with agent i opted out."""
    return welfare_eval(game, a) - welfare_eval(game, a[:i] + (EMPTY_ACTION,) + a[i + 1 :])


def equal_share(game: GameInstance, i: int, a: JointAction) -> float:
    """Agent i's equal split of each selected resource's current value."""
    w = game.welfare
    if not isinstance(w, SeparableWelfare):
        raise UnsupportedUtilityError("equal-share utility needs separable welfare")
    counts = selection_counts(game, a)
    total = 0.0
    for r in sorted(a[i]):
        c = counts[r]
        total += w.curves[r][c] / c
    return total


def designed_utility(game: GameInstance, i: int, a: JointAction) -> float:
    """The assigned (pre-compromise) utility U_i evaluated at ``a``."""
    if game.utilities[i] is Utility.MARGINAL_CONTRIBUTION:
        return marginal_contribution(game, i, a)
    return equal_share(game, i, a)


def observed_set(game: GameInstance, i: int) -> frozenset:
    """Agents whose actions agent i's effective utility depends on.

    A normal agent observes everyone except isolated and disabled agents
    (blind agents remain visible); blind, isolated and disabled agents
    observe nobody.
    """
    if game.compromise[i] is not Compromise.NORMAL:
        return frozenset()
    hidden = {Compromise.ISOLATED, Compromise.DISABLED}
    return frozenset(
        j for j in range(game.n) if j != i and game.compromise[j] not in hidden
    )


def observation_structure(game: GameInstance) -> tuple:
    """All observed sets at once, indexed by agent."""
    return tuple(observed_set(game, i) for i in range(game.n))


def masked_profile(game: GameInstance, i: int, a: JointAction) -> JointAction:
    """The profile agent i's designed utility is actually evaluated on."""
    keep = observed_set(game, i) | {i}
    return tuple(act if j in keep else EMPTY_ACTION for j, act in enumerate(a))


def effective_utility(game: GameInstance, i: int, a: JointAction) -> float:
    """Utility after the compromise transform.

    Normal agents evaluate U_i with every isolated/disabled entry emptied;
    blind and isolated agents see only their own action; disabled agents
    get 0.
    """
    if game.compromise[i] is Compromise.DISABLED:
        return 0.0
    return designed_utility(game, i, masked_profile(game, i, a))


# ---------------------------------------------------------------------------
# evaluation kernel


class _Engine:
    """Per-game evaluation tables and the one implementation of the model's
    central object: an agent's utility on the actions it observes.

    A *context* is what the welfare depends on: per-resource selection
    counts for separable welfare, the base set for tabulated welfare, as
    its bit mask (bit r for resource r). ``table`` is the welfare's own
    dict by mask, so reading an entry is one dict read, and a hole raises
    ModelIncompleteError on every read. The kernel holds no reference to
    its game, so a dropped game is freed by reference counting alone.
    """

    def __init__(self, game: GameInstance):
        self.n = game.n
        self.m = game.num_resources
        self.actions = game.action_sets
        # resource ids of each action in increasing order: utilities add up
        # per-resource terms in this order
        self.act_res = [
            [tuple(sorted(a)) for a in acts] for acts in game.action_sets
        ]
        self.is_mc = [u is Utility.MARGINAL_CONTRIBUTION for u in game.utilities]
        # agents whose actions others can observe
        self.visible = [
            c in (Compromise.NORMAL, Compromise.BLIND) for c in game.compromise
        ]
        # sees[i]: the agents i observes, the visible ones but i if i is normal
        shown = [j for j, v in enumerate(self.visible) if v]
        self.sees = [tuple([j for j in shown if j != i]) if c is Compromise.NORMAL else ()
                     for i, c in enumerate(game.compromise)]
        self.separable = game.separable
        if self.separable:
            self.curves = curves = game.welfare.curves
            self.empty = (0,) * self.m  # the empty context
            # terms[i][r][c]: agent i's utility term for resource r when c
            # other agents select it, f(c+1) - f(c) for marginal contribution
            # and f(c+1)/(c+1) for equal share; one table per utility kind
            kinds = {
                mc: [
                    [f[c + 1] - f[c] if mc else f[c + 1] / (c + 1) for c in range(self.n)]
                    for f in curves
                ]
                for mc in set(self.is_mc)
            }
            self.terms = [kinds[mc] for mc in self.is_mc]
        else:
            self.table = game.welfare.table
            self.empty = 0
            # masks[i][j]: the resources of agent i's action j, bit r for r
            self.masks = [[_mask(a) for a in acts] for acts in self.actions]

    def context(self, a, agents=None):
        """The context formed by the entries ``a[j]`` for j in ``agents``
        (default: every entry). Agent i's observed context is
        ``context(a, sees[i])``, the empty context if i sees nobody."""
        acts = a if agents is None else [a[j] for j in agents]
        if not self.separable:
            return _mask(base_set(acts))
        counts = [0] * self.m
        for act in acts:
            for r in act:
                counts[r] += 1
        return counts

    def join(self, ctx, act: Action):
        """The context ``ctx`` with one more selection of each resource in
        ``act``; hashable (a count tuple or a base-set mask)."""
        if not self.separable:
            return ctx | _mask(act)
        counts = list(ctx)
        for r in act:
            counts[r] += 1
        return tuple(counts)

    def reachable(self, agents) -> list:
        """Every distinct context the actions of ``agents`` can form, in the
        order first reached. SizeCapError once they form L contexts with
        (n + 1)·L·(L + A) past 50,000,000, A counting every agent's actions:
        the submodularity scan takes about L·A joins to build, and L² pairs
        to compare, for the full layer and each agent's opponents' layer,
        none larger than the full one since every agent can opt out."""
        actions = sum(map(len, self.actions))
        layer = {self.empty: None}
        join, acts = (self.join, self.actions) if self.separable else (int.__or__, self.masks)
        for j in agents:
            layer = dict.fromkeys(join(ctx, act) for ctx in layer for act in acts[j])
            if (self.n + 1) * len(layer) * (len(layer) + actions) > 50_000_000:
                raise SizeCapError(f"the submodularity scan of {self.n + 1} layers of "
                                   f"{len(layer)} or more contexts passes its cap")
        return list(layer)

    def value(self, ctx) -> float:
        """The welfare of a context: the sum of each curve at its count, or
        the table entry of the base set's mask (ModelIncompleteError if
        missing)."""
        if self.separable:
            curves = self.curves
            total = 0.0
            for r in range(self.m):
                total += curves[r][ctx[r]]
            return total
        return self.table[ctx]

    def utilities(self, i: int, ctx) -> list:
        """Agent i's designed utility for each of its actions, played on top
        of the context ``ctx``, which must exclude agent i; a table's
        entries are read in action order after the base's."""
        if not self.separable:
            table, base = self.table, self.table[ctx]
            return [table[ctx | b] - base for b in self.masks[i]]
        terms = self.terms[i]
        out = []
        for res in self.act_res[i]:
            u = 0.0
            for r in res:
                u += terms[r][ctx[r]]
            out.append(u)
        return out

    def profile(self, idxs) -> JointAction:
        """The profile with agent j playing its action number ``idxs[j]``."""
        return tuple([acts[aj] for acts, aj in zip(self.actions, idxs)])

    @cached_property
    def certificate(self) -> tuple:
        """``(submodular, valid, tight)``: what the curves of separable
        welfare settle for the validators with the shipped utilities.
        ``submodular`` and ``valid`` (utilities at least the marginal and
        summing to at most W) are True only where every comparison the
        scans make is proved to pass; ``tight`` is True or False where the
        scan's answer is proved, None otherwise.

        With Δf(c) = f(c) - f(c-1), the exact margin difference over
        contexts s <= b is at most n·max(0, Δf(c+1) - Δf(c)) per resource,
        an ES share falls short of the marginal by at most Δf(c) - f(c)/c,
        and Σ U - W is the sum over resources of m·(Δf(c) - f(c)/c), where c
        agents select the resource, m of them MC. (c, m) is reachable when
        1 <= m <= M and 0 <= c - m <= E, M and E counting the MC and ES
        agents with an action holding it. All of it is exact integer
        arithmetic; ``rho`` covers the rounding of the scans' R-term welfare
        sums and n-term utility sums, and past TOLERANCE/4 nothing is
        settled."""
        n, fail = self.n, (False, False, None)
        if not self.separable:
            return fail
        rho = 8 * (self.m + 2) * (n + 2) * 2.0**-53 * sum(f[n] for f in self.curves)
        if not rho < TOLERANCE / 4:  # huge scales and overflow: scan
            return fail
        from fractions import Fraction

        # exact integers in units of 1/(D·L): D the largest denominator of a
        # curve value (a power of two), L = lcm(1..n), so f(c)/c is one too
        ratios = [[v.as_integer_ratio() for v in f] for f in self.curves]
        unit = max([q for f in ratios for _, q in f], default=1)
        unit *= math.lcm(*range(1, n + 1))
        rho, tol = Fraction(rho) * unit, Fraction(TOLERANCE) * unit
        holders = [[0, 0] for _ in range(self.m)]  # [E, M] per resource
        for mc, acts in zip(self.is_mc, self.act_res):
            for r in set().union(*acts):
                holders[r][mc] += 1
        growth = shortfall = excess = spread = worst = 0
        for f, (es, mcs) in zip(ratios, holders):
            f = [p * unit // q for p, q in f]
            inc = [0] + [f[c] - f[c - 1] for c in range(1, n + 1)]
            growth += n * max([0] + [inc[c + 1] - inc[c] for c in range(1, n)])
            gaps = [inc[c] - f[c] // c for c in range(1, n + 1)]  # Δf(c) - f(c)/c
            if es:
                shortfall += max(0, max(gaps))
            # the most MC selectors of a reachable (c, m), 0 if none is
            ms = [min(mcs, c) if min(mcs, c) >= max(1, c - es) else 0 for c in range(1, n + 1)]
            excess += max(0, max(m * g for m, g in zip(ms, gaps)))
            spread += max(m * abs(g) for m, g in zip(ms, gaps))
            worst = max([worst] + [-m * g for m, g in zip(ms, gaps)])
        valid = shortfall + rho < tol and excess + rho < tol
        tight = True if spread + rho <= tol else False if worst > tol + rho + excess else None
        return growth + rho < tol, valid, tight


# ---------------------------------------------------------------------------
# validators


@dataclass(frozen=True)
class CheckFinding:
    kind: str
    message: str
    witness: Optional[dict] = None


@dataclass(frozen=True)
class SubmodularityReport:
    """Result of :func:`check_submodular`.

    ``contexts_checked`` counts the distinct contexts whose welfare was
    valued: the full-profile contexts, then for each agent the contexts the
    other agents can form. ``pairs_checked`` counts the ordered pairs
    (smaller, strictly larger context) compared, up to and including the
    failing one. Both stop where the scan stopped, so a failing report
    counts only what came before its failure, and both are 0 where
    ``path`` is ``"certificate"``: the curves settled the report unscanned.
    """

    ok: bool
    failure: Optional[CheckFinding]
    contexts_checked: int
    pairs_checked: int
    path: str = "scan"  # or "certificate"


@dataclass(frozen=True)
class VugReport:
    """Definition-style validity report for the assigned utilities."""

    ok: bool
    welfare: SubmodularityReport
    utility_dominates_marginal: bool  # U_i >= marginal contribution everywhere
    utility_sum_bounded: bool  # sum_i U_i <= W everywhere
    utility_sum_tight: bool  # the sum bound holds with equality everywhere
    failure: Optional[CheckFinding]
    profiles_checked: int  # 0 on the certificate path
    path: str = "scan"  # or "certificate"


def _require_cap(game: GameInstance) -> None:
    size, cap = joint_space_size(game), DEFAULT_CHECK_CAP
    if size > cap:
        raise SizeCapError(f"joint action space has {size} profiles, above the cap of {cap}")


def check_submodular(game: GameInstance) -> SubmodularityReport:
    """Verify that the welfare is submodular and nondecreasing over the
    admissible profile space; the constructor already guarantees W(∅) = 0.

    Separable welfare is nondecreasing by construction, and where the
    curves' increments are nonincreasing beyond rounding the kernel's
    certificate settles the report with no scan (``path="certificate"``).
    Every other game, and every failure, goes to the scan, with its first
    failing pair as the witness.
    """
    if game._engine.certificate[0]:
        return SubmodularityReport(True, None, 0, 0, "certificate")
    return _scan_submodular(game)


def _scan_submodular(game: GameInstance) -> SubmodularityReport:
    """The exhaustive scan behind :func:`check_submodular`.

    Contexts are deduplicated by what the welfare actually depends on
    (per-resource counts for separable welfare, base-set bit masks for
    tabulated), and compared by count dominance resp. base-set inclusion.
    Each context gets the list of contexts strictly above it, built once
    for the full profiles and once per agent for all its actions, and
    walked pair by pair, so the report names the first violating pair and
    counts the pairs compared. A table with no entry for a base set the
    agents can form, ∅ included, gives a ``table-missing`` report. The scan
    visits contexts, not profiles, so the joint space's size does not bound
    it; it refuses, in :meth:`_Engine.reachable`, once its own work (the
    contexts of n + 1 layers, their joins and pairs) would pass its cap.
    """
    eng = game._engine
    separable, value = game.separable, eng.value
    join = eng.join if separable else int.__or__
    contexts_checked = pairs_checked = 0

    def failed(kind, message, witness=None) -> SubmodularityReport:
        finding = CheckFinding(kind, message, witness)
        return SubmodularityReport(False, finding, contexts_checked, pairs_checked)

    # one integer per count context, a field per resource holding its count
    # under a guard bit: b is above s exactly when no field of (b | guard) - s
    # borrows its guard bit
    width = game.n.bit_length() + 1
    guard = sum(1 << (r * width + width - 1) for r in range(game.num_resources))

    def ordered(keys) -> list:
        if separable:
            return sorted(keys, key=lambda k: (sum(k), k))
        return [k for _, _, k in _by_size_then_ids(keys)]

    def above(keys) -> list:
        # a context above another has a larger total resp. size: it sorts later
        if separable:
            codes = [sum(c << (r * width) for r, c in enumerate(k)) for k in keys]
            tops = [c | guard for c in codes]
            return [
                [b for b in range(s + 1, len(codes)) if (tops[b] - c) & guard == guard]
                for s, c in enumerate(codes)
            ]
        # a base set's mask is above s exactly when it holds every bit of s
        return [
            [b for b in range(s + 1, len(keys)) if not k & ~keys[b]]
            for s, k in enumerate(keys)
        ]

    def first_violation(margins, dominators):
        # the first pair with margins[s] < margins[b] - TOLERANCE
        nonlocal pairs_checked
        for s, bs in enumerate(dominators):
            for seen, b in enumerate(bs, 1):
                if margins[s] < margins[b] - TOLERANCE:
                    pairs_checked += seen
                    return s, b
            pairs_checked += len(bs)
        return None

    # monotonicity over deduplicated full profiles
    keys = ordered(eng.reachable(range(game.n)))
    try:
        values = [value(k) for k in keys]
        contexts_checked += len(keys)
        # v_s > v_b + t exactly when -v_s < -v_b - t
        hit = first_violation([-v for v in values], above(keys))
        if hit:
            s, b = hit
            return failed("monotonicity", "welfare decreases on a larger selection", {
                "smaller": _describe_key(keys[s], separable),
                "larger": _describe_key(keys[b], separable),
                "smaller_value": values[s],
                "larger_value": values[b],
            })

        # decreasing marginal returns, per agent and action
        for i in range(game.n):
            ckeys = ordered(eng.reachable(j for j in range(game.n) if j != i))
            contexts_checked += len(ckeys)
            base = [value(k) for k in ckeys]
            acts = game.action_sets[i][1:]  # the empty action sorts first
            adds = acts if separable else eng.masks[i][1:]
            dominators = above(ckeys) if acts else []
            for act, add in zip(acts, adds):
                margins = [value(join(k, add)) - v for k, v in zip(ckeys, base)]
                hit = first_violation(margins, dominators)
                if hit:
                    s, b = hit
                    return failed("submodularity", "marginal value grows with a larger context", {
                        "agent": i,
                        "action": sorted(act),
                        "smaller_context": _describe_key(ckeys[s], separable),
                        "larger_context": _describe_key(ckeys[b], separable),
                        "margin_at_smaller": margins[s],
                        "margin_at_larger": margins[b],
                    })
    except ModelIncompleteError as exc:
        return failed("table-missing", str(exc))

    return SubmodularityReport(True, None, contexts_checked, pairs_checked)


def _describe_key(key, separable: bool):
    if separable:
        return {"counts": list(key)}
    return {"base_set": _mask_ids(key)}


def _mask(resources) -> int:
    """The bit mask of a set of resource ids."""
    return sum([1 << r for r in resources])


def _mask_ids(mask: int) -> list:
    """The resource ids of a base-set bit mask, in increasing order."""
    return [r for r in range(mask.bit_length()) if mask >> r & 1]


def _by_size_then_ids(masks) -> list:
    """``(size, ids, mask)`` for each of a collection of distinct base-set masks,
    sorted: the one order of a table's base sets, in documents and witnesses."""
    ids = list(map(_mask_ids, masks))
    return sorted(zip(map(len, ids), ids, masks))


def check_vug(game: GameInstance, utility_fn: Optional[Callable] = None) -> VugReport:
    """Verify the valid-utility-game conditions for the assigned utilities.

    Checks, over every admissible profile, that each agent's utility is at
    least its marginal contribution and that utilities sum to at most the
    welfare; also reports whether the sum condition is tight everywhere
    (true for equal-share games). ``utility_fn(game, i, a)`` overrides the
    assigned utilities, which is how non-shipped designs can be probed.

    The welfare conditions are the embedded :func:`check_submodular` report.
    For separable welfare with the assigned MC/ES utilities, where that
    report is ok, the kernel's certificate settles both conditions and the
    tightness per resource (``path="certificate"``, no profile walked).
    Otherwise every profile is scanned in :func:`all_profiles` order, its
    context (counts, or base-set bit masks) kept move by move and each W(a₋ᵢ)
    read off it with agent i taken out, so W(a), W(a₋ᵢ) and equal shares are
    the per-profile functions' floats;
    a game of more than ``DEFAULT_CHECK_CAP`` profiles that the certificate
    may not settle is refused before either scan.
    """
    sub, valid, tight = game._engine.certificate
    if utility_fn is not None or not (sub and valid and tight is not None):
        _require_cap(game)  # the profile scan may run: refuse before any scan
    welfare_report = check_submodular(game)
    if utility_fn is None and welfare_report.ok and valid and tight is not None:
        return VugReport(True, welfare_report, True, True, tight, None, 0, "certificate")
    return _scan_vug(game, utility_fn, welfare_report)


def _scan_vug(game: GameInstance, utility_fn, welfare_report) -> VugReport:
    """The profile scan behind :func:`check_vug`, on top of the welfare
    report ``welfare_report``; the caller checks the profile cap."""
    eng = game._engine
    n, separable, act_res = eng.n, eng.separable, eng.act_res
    value, own = eng.value, None if separable else eng.masks
    table = None if separable else eng.table
    cond2_ok = cond3_ok = cond3_tight = True
    failure: Optional[CheckFinding] = None
    profiles = 0

    def opt_out(i: int) -> float:
        """W(a₋ᵢ): agent i's resources out of the counts or the base set."""
        if not separable:
            return table[mask & ~(own[i][idxs[i]] & ones)]
        res = act_res[i][idxs[i]]
        for r in res:
            ctx[r] -= 1
        v = value(ctx)
        for r in res:
            ctx[r] += 1
        return v

    idxs, last = [0] * n, [len(acts) - 1 for acts in eng.actions]  # from the empty action 0
    ctx = [0] * eng.m  # separable welfare: the selection counts
    # tabulated welfare: the base set of agents 0..j-1 (bases[j]) and the
    # resources exactly one of them selects (solos[j]), as bit masks
    bases, solos = [0] * (n + 1), [0] * (n + 1)
    while True:
        a = eng.profile(idxs) if utility_fn is not None else None
        mask, ones = bases[n], solos[n]
        # one W(a) per profile and at most one opt-out welfare per agent
        profiles += 1
        w = value(ctx) if separable else table[mask]
        total = 0.0
        for i in range(n):
            marginal = None
            if utility_fn is not None:
                u = utility_fn(game, i, a)
            elif not separable:  # a table's utilities are marginal contributions
                u = marginal = w - table[mask & ~(own[i][idxs[i]] & ones)]
            elif eng.is_mc[i]:
                u = marginal = w - opt_out(i)
            else:  # equal share, summed in sorted resource order
                u = 0.0
                terms = eng.terms[i]
                for r in act_res[i][idxs[i]]:
                    u += terms[r][ctx[r] - 1]
            total += u
            if not cond2_ok:
                continue
            if marginal is None:
                marginal = w - opt_out(i)
            if u < marginal - TOLERANCE:
                cond2_ok = False
                if failure is None:
                    failure = CheckFinding(
                        "utility-below-marginal",
                        f"agent {i}'s utility is below its marginal contribution",
                        {"agent": i, "profile": [sorted(x) for x in eng.profile(idxs)],
                         "utility": u, "marginal": marginal},
                    )
        if total > w + TOLERANCE:
            cond3_ok = cond3_tight = False
            if failure is None:
                failure = CheckFinding(
                    "utility-sum-exceeds-welfare", "utilities sum above the welfare",
                    {"profile": [sorted(x) for x in eng.profile(idxs)],
                     "utility_sum": total, "welfare": w},
                )
        elif abs(total - w) > TOLERANCE:
            cond3_tight = False
        # the next profile in itertools.product order: the last agent not on
        # its last action moves on, each agent after it back to the empty one
        j = n - 1
        while j >= 0 and idxs[j] == last[j]:
            j -= 1
        if j < 0:
            break
        if separable:
            for i in range(j, n):
                for r in act_res[i][idxs[i]]:
                    ctx[r] -= 1
            for r in act_res[j][idxs[j] + 1]:
                ctx[r] += 1
        else:
            b, below = own[j][idxs[j] + 1], bases[j]
            bases[j + 1 :] = [below | b] * (n - j)
            solos[j + 1 :] = [solos[j] & ~b | b & ~below] * (n - j)
        idxs[j] += 1
        idxs[j + 1 :] = [0] * (n - j - 1)

    if failure is None and not welfare_report.ok:
        failure = welfare_report.failure
    return VugReport(welfare_report.ok and cond2_ok and cond3_ok, welfare_report, cond2_ok,
                     cond3_ok, cond3_tight, failure, profiles)
