"""Pure Nash equilibrium search over classes of interchangeable agents,
and the bounds on agents' utilities that cut it: the one search behind
:func:`equilibrium.enumerate_pne`, which lists every equilibrium, and
:func:`equilibrium._worst_pne`, which folds them into their count and the
worst one. Everything evaluates through the game's kernel (``game._Engine``).
"""

from __future__ import annotations

import collections
import itertools

from .game import TOLERANCE, Compromise, GameInstance, SizeCapError, _Engine


def _argmax_indices(values):
    best = max(values)
    return [j for j, v in enumerate(values) if v >= best - TOLERANCE]


def _best_responds(utilities, j: int) -> bool:
    """The equilibrium test: action j's utility is within the tolerance of
    the best."""
    return not utilities[j] < max(utilities) - TOLERANCE


def _agent_classes(game: GameInstance) -> list:
    """The agents as classes of interchangeable ones, each class in agent
    order and the classes in the order of their first agent.

    Two agents share a class when they have the same label and utility
    and, action by action in index order, the same resources; for
    separable welfare, up to private ones (selectable by that agent alone)
    with equal curves, in the same sorted positions. Permuting a class's
    agents then maps a profile to one where every agent's candidate
    utilities are the same floats (on a table, the same base set and the
    same observed ones), so the equilibria are unions of such orbits.
    Separable welfare sums the curves in resource order, where a private
    resource adds its value at 1 or, unselected, exactly nothing; so the
    sum is one float over an orbit when each class's private resources lie
    in one block, a run of consecutive private resources all with one
    curve, whose terms are that value as many times as the orbit selects
    them. A class that does not is split into singletons; the blocks depend
    on the private resources alone, so one pass settles every class.
    """
    eng = game._engine
    touched = [set().union(*acts) for acts in eng.act_res]
    count = collections.Counter(itertools.chain.from_iterable(touched))
    # in an agent's shape a private resource stands as -1 - the first id of
    # a private resource with its curve
    first, part = {}, {}
    if game.separable:
        part = {r: -1 - first.setdefault(eng.curves[r], r) for r, c in count.items() if c == 1}
    groups = {}
    for i, acts in enumerate(eng.act_res):
        shape = tuple([tuple([part.get(r, r) for r in res]) for res in acts])
        groups.setdefault((game.compromise[i], eng.is_mc[i], shape), []).append(i)
    classes = list(groups.values())
    # the private resources of the classes of two or more agents
    home = {
        r: c
        for c, members in enumerate(classes) if len(members) > 1
        for i in members for r in touched[i] if r in part
    }
    blocks, curve, block_of, split = 0, None, {}, set()
    for r in range(eng.m):
        if r in part:
            if part[r] != curve:
                blocks, curve = blocks + 1, part[r]
            c = home.get(r)
            if c is not None and block_of.setdefault(c, blocks) != blocks:
                split.add(c)
        elif r in count:  # a shared resource ends the block
            curve = None
    if split:
        classes = sorted(
            [members for c, members in enumerate(classes) if c not in split]
            + [[i] for c in split for i in classes[c]]
        )
    return classes


def _search(game: GameInstance, classes, cap: int, visit):
    """Visit every pure Nash equilibrium orbit of ``game`` over the agent
    ``classes`` (see :func:`_agent_classes`); returns (nodes, pruned).

    Blind and isolated agents are fixed to their profile-independent
    best-response candidates; disabled agents to the empty action. The
    search is depth first, the classes in turn and each class's agents in
    agent order, each agent trying its candidates in index order from the
    one the agent before it in its class took, so that every class deals
    out one nondecreasing sequence of candidates: one per orbit, and the
    orbit's lexicographically first profile. With every agent a class of
    its own this is the order of a scan of every profile. For separable
    welfare a subtree is cut as soon as an assigned normal agent is sure
    to fail its best-response test at every profile below it, and an agent
    sure to pass it everywhere below is not tested again (see
    :class:`_TermBounds`); an agent on the action of the agent before it in
    its class shares that agent's verdict. Tabulated welfare, which need
    not be submodular, is searched over its orbits with neither; its base
    sets are bit masks kept move by move, and each agent's test is run once
    per observed base set, for all its actions at once. At a complete
    profile the bounds are the exact test's own floats and decide every
    agent; a table runs the scan's exact test for its normal agents.
    ``visit(idxs, weight, welfare)`` is called on each equilibrium found,
    with its action indices by agent (a list the search goes on to change),
    the size of its orbit and its welfare.
    SizeCapError once more than ``cap`` branches end, on complete profiles
    or cut subtrees.
    """
    eng = game._engine
    n = eng.n
    order = [i for members in classes for i in members]
    dealt = []  # by depth: the agents its class has dealt down to it
    candidates = []  # by depth
    for members in classes:
        dealt += range(1, len(members) + 1)
        i, lab = members[0], game.compromise[members[0]]
        if lab is Compromise.DISABLED:
            cand = [0]  # canonical order puts the empty action first
        elif lab is Compromise.NORMAL:
            cand = range(len(eng.actions[i]))
        else:
            # a blind or isolated agent's observed context is always empty
            cand = _argmax_indices(eng.utilities(i, eng.empty))
        candidates += [cand] * len(members)

    normal = game.agents_with(Compromise.NORMAL)
    separable = eng.separable
    bounds = _TermBounds(eng, order, candidates, normal) if separable and normal else None
    act_res, visible = eng.act_res, eng.visible
    vis = [0] * eng.m  # selection counts of the visible agents assigned so far
    full = [0] * eng.m  # ... and of every agent assigned so far
    # tabulated welfare, bit masks by depth: the base set of the agents down
    # to it (fmask), of the visible ones (vmask), the resources one visible
    # one alone selects (vones); index n, never written, is the empty set
    fmask, vmask, vones = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    idxs = [0] * n  # by agent
    pos = [-1] * n  # by depth: the position of its agent's action in its candidates
    # by depth: how many agents of its class in a row, ending there, take
    # its agent's action, and the size of the orbit of the profile down to
    # it (index n, never written, is the empty profile's)
    run, wt = [1] * n, [1] * (n + 1)
    # undecided[d]: the normal agents above depth d whose test the node
    # above depth d left open
    undecided = [()] * n
    passes = [{} for _ in range(n)]  # tables, by agent: observed base set -> test by action
    nodes = pruned = ends = 0
    d = 0
    while d >= 0:
        i, p = order[d], pos[d]
        if p < 0:
            p = pos[d - 1] if dealt[d] > 1 else 0
        else:
            if separable:  # take agent i's previous action back
                for r in act_res[i][idxs[i]]:
                    full[r] -= 1
                    if visible[i]:
                        vis[r] -= 1
            p += 1
        if p == len(candidates[d]):
            pos[d] = -1
            d -= 1
            continue
        pos[d] = p
        j = idxs[i] = candidates[d][p]
        if separable:
            for r in act_res[i][j]:
                full[r] += 1
                if visible[i]:
                    vis[r] += 1
        else:
            b, seen = eng.masks[i][j], vmask[d - 1]
            v = b if visible[i] else 0
            fmask[d], vmask[d] = fmask[d - 1] | b, seen | v
            vones[d] = vones[d - 1] & ~v | v & ~seen
        nodes += 1
        # the orbit's size, a multinomial coefficient, grows by dealt / run:
        # an exact division
        shared = dealt[d] > 1 and p == pos[d - 1]
        run[d] = run[d - 1] + 1 if shared else 1
        wt[d] = wt[d - 1] * dealt[d] // run[d]
        still = normal
        if bounds is not None:
            still = bounds.open_after(d, undecided[d], idxs, vis, shared)
        if still is not None and d + 1 < n:
            undecided[d + 1] = still
            d += 1
            continue
        # a branch ends here, on a complete profile or a subtree cut whole
        ends += 1
        if ends > cap:
            raise SizeCapError(f"equilibrium search ended {ends} branches, past the cap {cap}")
        if still is None:
            pruned += 1
            continue
        if separable:
            visit(idxs, wt[d], eng.value(full))
            continue
        # only a table leaves agents undecided here, and its test reads only
        # the agent's observed base set, the visible agents' without the
        # resources u alone selects: one run for all u's actions per set
        for u in still:
            seen = vmask[d] & ~(eng.masks[u][idxs[u]] & vones[d])
            row = passes[u].get(seen)
            if row is None:
                utils = eng.utilities(u, seen)
                row = passes[u][seen] = [_best_responds(utils, y) for y in range(len(utils))]
            if not row[idxs[u]]:
                break
        else:
            visit(idxs, wt[d], eng.value(fmask[d]))
    return nodes, pruned


class _TermBounds:
    """Bounds on a normal agent's utilities over every completion of a
    partial profile, for separable welfare.

    Once the agents above depth D of the search order are assigned, the
    rest add to each resource r at most ``rem[D][r]`` selections: one per
    visible agent with a candidate touching r. A
    normal agent's utility for an action is a sum, in the order of the
    action's resource ids and starting from 0.0, of one float term per
    resource: the kernel's ``terms[i][r][c]`` at the number c of other
    visible agents selecting it. Below a node that number lies between the
    count so far, c, and c + rem[D][r], so the term lies between the
    smallest and the largest term over that window, which the tables
    hold. Float
    addition is monotone in each operand, so summing the window minima
    (maxima) in the same order gives a float no larger (no smaller) than
    the utility the exact test computes at any profile below.

    On concave curves the terms fall as counts grow, so the extremes sit
    at the window's ends: the bounds are the utility at the counts so far
    and at the counts so far plus ``rem``. Read at the ends alone, they
    would need a margin. The constructor lets an increment exceed the one
    before it by up to TOLERANCE, so a marginal-contribution utility can
    rise by Σ_r rem_r·TOLERANCE over the window (an equal share, an
    average of increments, by at most half that), and each evaluation
    rounds. Taking the extremes over the very floats the test adds covers
    both exactly, so no margin is added.

    An agent on action x then fails at every profile below when its
    largest utility for x is below the smallest for some other action less
    TOLERANCE, and passes at every profile below when its smallest utility
    for x is at least the largest for every other action less TOLERANCE,
    since fl(v - TOLERANCE) is monotone in v and at most v. Below the last
    agent each window is one count, so every verdict there is 1 or -1.
    """

    def __init__(self, eng: _Engine, order, candidates, normal):
        n, m = eng.n, eng.m
        self.act_res = eng.act_res
        self.order = order
        touched = [  # by depth
            {r for j in cand for r in eng.act_res[i][j]} if eng.visible[i] else ()
            for i, cand in zip(order, candidates)
        ]
        self.normal = set(normal)
        rem = [[0] * m]
        for d in reversed(range(n)):
            row = list(rem[-1])
            for r in touched[d]:
                row[r] += 1
            rem.append(row)
        rem.reverse()
        used = sorted({r for i in normal for res in eng.act_res[i] for r in res})
        # lo[i][D][r][c], hi[i][D][r][c]: extremes of agent i's term for
        # resource r over the counts c .. c + rem[D][r]
        self.lo, self.hi = [None] * n, [None] * n
        tables = {}
        for i in normal:
            mc = eng.is_mc[i]
            if mc not in tables:
                lo_d, hi_d = [[None] * m for _ in rem], [[None] * m for _ in rem]
                for r in used:
                    terms = eng.terms[i][r]
                    lows, highs = [terms], [terms]
                    for _ in range(rem[0][r]):
                        lows.append(list(map(min, lows[-1], lows[-1][1:])))
                        highs.append(list(map(max, highs[-1], highs[-1][1:])))
                    for D, row in enumerate(rem):
                        lo_d[D][r], hi_d[D][r] = lows[row[r]], highs[row[r]]
                tables[mc] = lo_d, hi_d
            self.lo[i], self.hi[i] = tables[mc]

    def open_after(self, d: int, undecided, idxs, vis, shared: bool):
        """The normal agents down to depth d left undecided once the agent
        there plays action ``idxs[agent]``, or None if one of them fails
        below this node; ``shared``: that agent's verdict is the one of the
        agent before it, on the same action."""
        still = []
        agent = self.order[d]
        for i in undecided if shared or agent not in self.normal else (agent, *undecided):
            verdict = self._verdict(i, idxs[i], d + 1, vis)
            if verdict < 0:
                return None
            if verdict == 0:
                still.append(i)
        return still

    def _verdict(self, i: int, x: int, depth: int, vis) -> int:
        """-1 if agent i on action x fails its test at every profile below,
        1 if it passes at every one, else 0; ``vis`` counts i itself."""
        lo, hi = self.lo[i][depth], self.hi[i][depth]
        res_of = self.act_res[i]
        own = res_of[x]
        for r in own:
            vis[r] -= 1
        x_lo = x_hi = 0.0
        for r in own:
            c = vis[r]
            x_lo += lo[r][c]
            x_hi += hi[r][c]
        verdict = 1
        for y, res in enumerate(res_of):
            if y == x:
                continue
            y_lo = y_hi = 0.0
            for r in res:
                c = vis[r]
                y_lo += lo[r][c]
                y_hi += hi[r][c]
            if x_hi < y_lo - TOLERANCE:
                verdict = -1
                break
            if x_lo < y_hi - TOLERANCE:
                verdict = 0
        for r in own:
            vis[r] += 1
        return verdict
