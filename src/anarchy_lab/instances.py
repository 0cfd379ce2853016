"""Canonical instance families, seeded random games, and the instance file
format.

Every generator is deterministic: the same parameters (and seed, for the
random family) produce the same instance and the same serialized document,
byte for byte. Resource ids follow a fixed layout per family so enumeration
orders are reproducible. Each layout has one builder: ``_step_game`` (step
curves, each agent taking one resource or nothing) for the five named
families, with ``_hub_game`` numbering a hub plus private alternates for
``k_blind``, ``mc_blind`` and ``sim``, and ``_random_game`` for the random
family and the worst-case search.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .game import (
    EMPTY_ACTION,
    Compromise,
    GameInstance,
    SeparableWelfare,
    TabulatedWelfare,
    Utility,
)

__all__ = [
    "FamilyParams",
    "ParseError",
    "gen_k_blind",
    "gen_mc_blind",
    "gen_mc_noblind",
    "gen_sim_game",
    "gen_fig1",
    "gen_random_separable",
    "gen_family",
    "serialize",
    "parse",
    "FAMILY_NAMES",
]

FAMILY_NAMES = ("k_blind", "mc_blind", "mc_noblind", "sim", "fig1", "random")
# the largest max_resources and max_actions a random game's draws take
MAX_RESOURCES = MAX_ACTIONS = 1_000
MAX_AGENTS = 2_000  # the most agents a family or search game takes (k_blind: 4M curve cells)


class ParseError(ValueError):
    """An instance document is malformed or violates an invariant."""


@dataclass(frozen=True)
class FamilyParams:
    """Parameters selecting one member of a named instance family."""

    family: str
    n: int = 0
    k: int = 0
    labels: tuple = ()
    eps: float = 0.01
    delta: float = 0.01
    seed: int = 0
    values: tuple = ()
    max_resources: int = 4
    max_actions: int = 4

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.eps < 0 or self.delta < 0:
            raise ValueError("eps and delta must be nonnegative")
        if not (math.isfinite(self.eps) and math.isfinite(self.delta)):
            raise ValueError("eps and delta must be finite")
        _check_size_limits(self.n, self.max_resources, self.max_actions)


def _step_curve(value: float, n: int) -> tuple:
    """A curve worth ``value`` once the resource is selected at all."""
    return (0.0,) + (float(value),) * n


def _labels_for(k: int, labels: Optional[Sequence]) -> tuple:
    if labels is None:
        return (Compromise.BLIND,) * k
    out = tuple(Compromise(l) for l in labels)
    if len(out) != k:
        raise ValueError(f"expected {k} labels, got {len(out)}")
    if any(l is Compromise.NORMAL for l in out):
        raise ValueError("compromise labels must not be 'normal'")
    return out


def _check_size_limits(n: int, max_resources: int, max_actions: int) -> None:
    if n > MAX_AGENTS or max_resources > MAX_RESOURCES or max_actions > MAX_ACTIONS:
        raise ValueError(
            f"max_resources must be at most MAX_RESOURCES = {MAX_RESOURCES} and max_actions "
            f"at most MAX_ACTIONS = {MAX_ACTIONS}, and n at most MAX_AGENTS = {MAX_AGENTS}"
        )


def _step_game(n, values, choices, utility, compromise) -> GameInstance:
    """The named families' layout: resource r is worth ``values[r]`` once
    selected, and agent i takes one resource in ``choices[i]`` or nothing."""
    return GameInstance(
        welfare=SeparableWelfare(curves=tuple(_step_curve(v, n) for v in values)),
        action_sets=tuple([frozenset({r}) for r in rs] for rs in choices),
        utilities=(utility,) * n,
        compromise=compromise,
    )


def _hub_game(n, k, labels, utility, hub, alternates) -> GameInstance:
    """The hub layout: resource 0, worth ``hub``, is open to every agent, and
    agent i may also take its own alternate worth ``alternates[i]`` (None
    for no alternate), numbered 1, 2, ... in agent order. Agents 0..k-1
    carry ``labels`` (blind or isolated); everyone uses ``utility``."""
    labs = _labels_for(k, labels)
    if any(l is Compromise.DISABLED for l in labs):
        raise ValueError("this family takes blind or isolated labels only")
    values = [hub] + [v for v in alternates if v is not None]
    ids = iter(range(1, len(values)))
    choices = [(0,) if v is None else (0, next(ids)) for v in alternates]
    return _step_game(n, values, choices, utility, labs + (Compromise.NORMAL,) * (n - k))


def gen_k_blind(
    n: int,
    k: int,
    eps: float,
    delta: float,
    labels: Optional[Sequence] = None,
) -> GameInstance:
    """Shared hub with private alternates, equal-share utilities.

    Resource 0 is a hub of value 1 reachable by everyone. Compromised agents
    0..k-1 own alternates worth 1-eps; uncompromised agents own alternates
    worth 1/n - delta, except agent n-1 which has no alternate (it is the
    designated hub occupant in the optimum, which makes the enumerated
    optimum equal 1 + (n-k-1)(1/n - delta) + k(1-eps) exactly). Compromise
    labels must be blind or isolated.
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    alternates = [1.0 - eps] * k + [1.0 / n - delta] * (n - 1 - k) + [None]
    return _hub_game(n, k, labels, Utility.EQUAL_SHARE, 1.0, alternates)


def gen_mc_blind(
    n: int,
    k: int,
    eps: float,
    labels: Optional[Sequence] = None,
) -> GameInstance:
    """One shared resource everyone can take, marginal-contribution
    utilities.

    The shared resource 0 is worth 1+eps; each compromised agent 0..k-1 also
    owns an alternate worth 1. Uncompromised agents can only take the shared
    resource or opt out, so once a compromised agent sits on it their
    marginal value there is zero. Worst equilibrium welfare is 1+eps against
    an optimum of k+1+eps (for k < n).
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    alternates = [1.0] * k + [None] * (n - k)
    return _hub_game(n, k, labels, Utility.MARGINAL_CONTRIBUTION, 1.0 + eps, alternates)


def gen_mc_noblind(
    n: int, k: int, eps: float, labels: Optional[Sequence] = None
) -> GameInstance:
    """All-isolated marginal-contribution family with shadowed resources.

    Each isolated agent j < k exclusively shares a 1+eps resource with one
    uncompromised "shadow" agent, who also owns a private alternate worth 1;
    the remaining uncompromised agents each own a private resource worth eps.
    In the worst equilibrium the shadows duplicate the occupied shared
    resources (they cannot see the isolated agents), so its welfare is
    k(1+eps) + (#remaining)·eps. The family's limiting ratio is reported, not
    asserted: with s = min(k, n-k-1) shadows it measures k/(k+s) as eps -> 0.
    ``labels``, if given, must be k isolated labels.
    """
    if k < 1 or n < k + 2:
        raise ValueError("need k >= 1 and n >= k + 2")
    if labels is not None and set(_labels_for(k, labels)) != {Compromise.ISOLATED}:
        raise ValueError("this family takes isolated labels only")
    s = min(k, n - k - 1)
    r = n - k - s
    values = [1.0 + eps] * k + [1.0] * s + [eps] * r
    choices = [(j,) for j in range(k)]  # isolated agents
    choices += [(j, k + j) for j in range(s)]  # shadows: shared plus an alternate
    choices += [(k + s + j,) for j in range(r)]  # remaining agents
    compromise = (Compromise.ISOLATED,) * k + (Compromise.NORMAL,) * (n - k)
    return _step_game(n, values, choices, Utility.MARGINAL_CONTRIBUTION, compromise)


def gen_sim_game(
    n: int,
    k: int,
    eps: float,
    labels: Optional[Sequence] = None,
) -> GameInstance:
    """The hub family tuned for learning experiments: one normal agent.

    Same layout as :func:`gen_k_blind` with k = n-1, but the compromised
    agents' alternates are worth 1-eps, the single uncompromised agent's
    alternate is worth eps, and every agent uses the marginal-contribution
    utility. At (n=10, k=9, eps=0.05) the optimum is 1 + 9(1-eps) = 9.55.
    """
    if k != n - 1:
        raise ValueError("this family has exactly one uncompromised agent (k = n-1)")
    alternates = [1.0 - eps] * k + [eps]
    return _hub_game(n, k, labels, Utility.MARGINAL_CONTRIBUTION, 1.0, alternates)


def gen_fig1(
    values: Sequence,
    labels: Optional[Sequence] = None,
) -> GameInstance:
    """Five agents, one private resource each plus one shared fallback.

    ``values`` are the six resource values; agent i can take its own resource
    i or resource 5. ``labels`` (length 3, blind/isolated/disabled) apply to
    agents 2, 3 and 4; by default nobody is compromised. Marginal-contribution
    utilities.
    """
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
    compromise = (Compromise.NORMAL, Compromise.NORMAL) + labs
    choices = [(i, 5) for i in range(5)]
    return _step_game(5, vals, choices, Utility.MARGINAL_CONTRIBUTION, compromise)


def gen_random_separable(
    n: int,
    max_resources: int,
    max_actions: int,
    k: int = 0,
    labels: Optional[Sequence] = None,
    seed: int = 0,
    utility_choices: Sequence = (Utility.MARGINAL_CONTRIBUTION, Utility.EQUAL_SHARE),
) -> GameInstance:
    """Seeded random separable game; always a valid utility game.

    Curves are built from per-count increments drawn on a 0.01 grid and
    sorted descending, which guarantees concavity by construction. Every
    agent gets the opt-out plus at least one nonempty action. The first
    ``k`` labels are placed on seed-chosen agents.
    """
    if n < 1 or max_resources < 1 or max_actions < 2:
        raise ValueError("need n >= 1, max_resources >= 1, max_actions >= 2")
    _check_size_limits(n, max_resources, max_actions)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    labs = _labels_for(k, labels)
    rng = random.Random(seed)
    m = rng.randint(1, max_resources)
    curves = []
    for _ in range(m):
        increments = sorted(
            (round(rng.uniform(0.01, 1.0), 2) for _ in range(n)), reverse=True
        )
        curve = [0.0]
        for inc in increments:
            curve.append(curve[-1] + inc)
        curves.append(tuple(curve))
    return _random_game(rng, n, curves, max_actions, labs, utility_choices)


def _random_game(rng, n, curves, max_actions, labels, utility_choices) -> GameInstance:
    """The random layout over ``curves``: each agent gets the opt-out plus
    up to ``max_actions`` - 1 (at least one) drawn actions of one or two
    resources and a utility drawn from ``utility_choices``; ``labels`` go
    to agents drawn from ``rng``, in agent order."""
    m = len(curves)
    action_sets = []
    for _ in range(n):
        want = rng.randint(1, max(1, max_actions - 1))
        acts = set()
        for _ in range(4 * want):
            if len(acts) >= want:
                break
            size = 1 if (m == 1 or rng.random() < 0.7) else 2
            acts.add(frozenset(rng.sample(range(m), size)))
        action_sets.append(acts)
    utilities = tuple(Utility(rng.choice(tuple(utility_choices))) for _ in range(n))
    compromise = [Compromise.NORMAL] * n
    for pos, lab in zip(sorted(rng.sample(range(n), len(labels))), labels):
        compromise[pos] = lab
    return GameInstance(
        welfare=SeparableWelfare(curves=tuple(curves)),
        action_sets=tuple(action_sets),
        utilities=utilities,
        compromise=tuple(compromise),
    )


def gen_family(params: FamilyParams) -> GameInstance:
    """Dispatch a FamilyParams to its generator."""
    f = params.family
    if f == "k_blind":
        return gen_k_blind(params.n, params.k, params.eps, params.delta, params.labels or None)
    if f == "mc_blind":
        return gen_mc_blind(params.n, params.k, params.eps, params.labels or None)
    if f == "mc_noblind":
        return gen_mc_noblind(params.n, params.k, params.eps, params.labels or None)
    if f == "sim":
        return gen_sim_game(params.n, params.k, params.eps, params.labels or None)
    if f == "fig1":
        return gen_fig1(params.values, params.labels or None)
    if f == "random":
        return gen_random_separable(
            params.n,
            params.max_resources,
            params.max_actions,
            params.k,
            params.labels or None,
            params.seed,
        )
    raise ValueError(f"unknown family {f!r}")


# ---------------------------------------------------------------------------
# instance file format


def _json_list(items: list, pad: Optional[str]) -> str:
    """Rendered ``items`` in ``json.dumps(indent=2)``'s list layout at ``pad``; one line if None."""
    if pad is None or not items:
        return "[" + ", ".join(items) + "]"
    sep = ",\n" + pad + "  "
    return "[" + sep[1:] + sep.join(items) + "\n" + pad + "]"


def serialize(game: GameInstance) -> str:
    """Render a game as the JSON instance document (lossless round trip).

    The empty opt-out action is implicit and not written; action sets are
    already canonically ordered, and table entries are written by size, then
    resource ids. The text is exactly ``json.dumps(doc, indent=2)``'s, written directly.
    """
    L, p4, p6 = _json_list, " " * 4, " " * 6
    if game.separable:
        resources = [f'{{\n{p6}"id": {r},\n{p6}"curve": {L(json.dumps(c)[1:-1].split(", "), p6)}'
                     f'\n{p4}}}' for r, c in enumerate(game.welfare.curves)]
        table = ""
    else:
        resources = [f'{{\n{p6}"id": {r}\n{p4}}}' for r in range(game.num_resources)]
        rows = sorted((len(s), sorted(s), v) for s, v in game.welfare.entries)
        table = ',\n  "table": ' + L([f'{{\n{p6}"subset": {L(list(map(str, ids)), p6)},\n'
                                      f'{p6}"value": {v!r}\n{p4}}}' for _, ids, v in rows], "  ")
    action_sets = [L([L(list(map(str, sorted(a))), p6) for a in acts if a], p4)
                   for acts in game.action_sets]
    labels = lambda enums: L([encode_basestring_ascii(e.value) for e in enums], "  ")
    return (f'{{\n  "n": {game.n},\n  "resources": {L(resources, "  ")}{table},\n'
            f'  "action_sets": {L(action_sets, "  ")},\n  "utility": {labels(game.utilities)},\n'
            f'  "compromise": {labels(game.compromise)}\n}}\n')


def _expect(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing required field {key!r}")
    return doc[key]


def _numbers(values, where: str) -> tuple:
    """The floats of a list of JSON numbers (booleans are not numbers)."""
    if not isinstance(values, list) or not {int, float}.issuperset(map(type, values)):
        raise ParseError(f"{where}: need a list of numbers")
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise ParseError(f"{where}: a value is out of range") from None


def parse(document: str) -> GameInstance:
    """Parse an instance document into a game.

    Parsing checks the JSON's shape only: field types (booleans are not
    numbers), resource ids contiguous from 0 and one action set per agent.
    The constructors check the rest (a repeated table subset, bad curves
    and values, unknown resource ids, the utility and compromise entries),
    and what they reject surfaces as ParseError naming the culprit.
    """
    try:
        doc = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    n = _expect(doc, "n", "document")
    if type(n) is not int or n < 1:
        raise ParseError("field 'n' must be a positive integer")
    resources = _expect(doc, "resources", "document")
    if not isinstance(resources, list) or not resources:
        raise ParseError("field 'resources' must be a nonempty list")
    if not all(isinstance(entry, dict) for entry in resources):
        raise ParseError("every resource entry must be an object")
    ids = [entry.get("id") for entry in resources]
    if ids != list(range(len(resources))):
        raise ParseError("resource ids must be contiguous from 0")

    if "table" in doc:
        if not isinstance(doc["table"], list):
            raise ParseError("field 'table' must be a list")
        pairs = []
        for idx, entry in enumerate(doc["table"]):
            if not isinstance(entry, dict):
                raise ParseError(f"table entry {idx}: must be an object")
            subset = entry.get("subset")
            value = entry.get("value")
            # JSON integers and floats only: a boolean's type is bool
            if not (
                isinstance(subset, list)
                and {int}.issuperset(map(type, subset))
                and type(value) in (int, float)
            ):
                raise ParseError(
                    f"table entry {idx}: need a 'subset' list of resource ids "
                    "and a numeric 'value'"
                )
            pairs.append((subset, value))
        make_welfare = lambda: TabulatedWelfare(pairs, len(resources))
    else:
        curves = tuple(
            _numbers(entry.get("curve"), f"resource {r}: value curve")
            for r, entry in enumerate(resources)
        )
        make_welfare = lambda: SeparableWelfare(curves=curves)

    raw_sets = _expect(doc, "action_sets", "document")
    if not isinstance(raw_sets, list) or len(raw_sets) != n:
        raise ParseError(f"'action_sets' must list actions for all {n} agents")
    action_sets = []
    for i, acts in enumerate(raw_sets):
        if not isinstance(acts, list):
            raise ParseError(f"agent {i}: action set must be a list")
        parsed = [EMPTY_ACTION]
        for a in acts:
            if not isinstance(a, list) or not {int}.issuperset(map(type, a)):
                raise ParseError(f"agent {i}: actions must be lists of resource ids")
            parsed.append(frozenset(a))
        action_sets.append(tuple(parsed))

    utility = _expect(doc, "utility", "document")
    compromise = _expect(doc, "compromise", "document")
    if not (isinstance(utility, list) and isinstance(compromise, list)):
        raise ParseError("'utility' and 'compromise' must be lists")

    try:
        return GameInstance(make_welfare(), tuple(action_sets), utility, compromise)
    except OverflowError:
        raise ParseError("a table value is out of range") from None
    except ValueError as exc:
        raise ParseError(str(exc)) from None
