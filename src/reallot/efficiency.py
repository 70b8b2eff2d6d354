"""Efficiency checkers: blocking pairs, improving trade cycles, the
brute-force domination oracle and the witness rule.

The checkers ride on the envy digraph (a -> b when a strictly prefers b's
house), held as successor masks: a 2-cycle is a blocking pair and any
cycle an improving trade. ``_envy_cycle`` is the one routine that
returns a cycle, over agents in ``find_improving_cycle`` and over houses
in the extraction pass; the per-profile kernel only asks whether a leaf's
digraph is acyclic, and ``_acyclic`` answers by peeling sinks. The
brute-force oracle stays a literal scan, independent of both. The walk
can pause before a node whose successors are not yet known, so the
extraction pass places a house's holder only when the walk reaches it
and checks one cycle for every allocation that completes it.
``_trade_colors`` is the one witness rule, shared by the witnesses, the
extractors and the extraction pass; everything else works on houses, and
it alone reads the order, to label and colour the improvers. The tests
keep a depth-first search, a literal witness builder and the
per-permutation extraction pass as their oracles.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from typing import Iterable, Sequence

from .core import BRUTE_FORCE_MAX_AGENTS, SINGLE_PEAKED, Allocation, BudgetError, LinearOrder, Preference, Profile, _frozen, _is_index

RED = "red"
BLUE = "blue"


@_frozen
class ImprovingCycle:
    """Agents (a1..ak), each ai taking the house mu assigns to a(i+1)."""

    agents: tuple[int, ...]

    def __post_init__(self):
        if len(self.agents) < 2:
            raise ValueError("a trade cycle needs at least two agents")
        if len(set(self.agents)) != len(self.agents):
            raise ValueError("repeated agent in cycle")

    @property
    def k(self) -> int:
        return len(self.agents)


def _blocking_pair_raw(ranks: Sequence[Sequence[int]], alloc: Sequence[int]) -> tuple[int, int] | None:
    n = len(alloc)
    for a in range(n):
        ra = ranks[a]
        ha = alloc[a]
        own = ra[ha]
        for b in range(a + 1, n):
            hb = alloc[b]
            if ra[hb] < own and ranks[b][ha] < ranks[b][hb]:
                return a, b
    return None


def _envy_masks(ranks: Sequence[Sequence[int]], alloc: Sequence[int]) -> list[int]:
    """``succ[a]``: the mask of agents whose assigned house agent a strictly
    prefers to its own, the successor set of a in the envy digraph."""
    n = len(alloc)
    succ = []
    for a in range(n):
        ra = ranks[a]
        own = ra[alloc[a]]
        mask = 0
        for b in range(n):
            if ra[alloc[b]] < own:
                mask |= 1 << b
        succ.append(mask)
    return succ


def _shortest_cycle(succ: Sequence[int]) -> list[int] | None:
    """A shortest cycle of the digraph given by successor masks, or None:
    a breadth-first search from each node in turn, the least start winning
    ties. Each queued path runs from the start along the search tree."""
    best: list[int] | None = None
    for s in range(len(succ)):
        seen = 1 << s
        queue = deque([[s]])
        while queue:
            path = queue.popleft()
            x = path[-1]
            if succ[x] >> s & 1:
                if best is None or len(path) < len(best):
                    best = path
                break
            new = succ[x] & ~seen
            seen |= new
            while new:
                bit = new & -new
                new ^= bit
                queue.append(path + [bit.bit_length() - 1])
    return best


def _rank_rows(profile: Profile, *allocations: Allocation) -> list[tuple[int, ...]]:
    """The profile's ``rank_of`` rows, once every allocation is checked to
    have the profile's size: the one input rule of the per-allocation API."""
    for mu in allocations:
        if mu.n != profile.n:
            raise ValueError("allocation size does not match the profile")
    return [p.rank_of for p in profile.prefs]


def find_blocking_pair(profile: Profile, mu: Allocation) -> tuple[int, int] | None:
    """The lexicographically least pair of agents who both strictly prefer
    each other's assigned house, or None (mu is then pair-efficient)."""
    return _blocking_pair_raw(_rank_rows(profile, mu), mu.assign)


def find_improving_cycle(
    profile: Profile, mu: Allocation, *, shortest: bool = False
) -> ImprovingCycle | None:
    """A cycle of the envy digraph, or None (mu is then Pareto-efficient).

    Default mode reports the cycle that ``_envy_cycle``'s walk closes from
    the least agent, the first cycle a depth-first search in ascending
    agent order meets; ``shortest=True`` returns a shortest cycle by
    breadth-first search, which is the least blocking pair when one exists.
    """
    succ = _envy_masks(_rank_rows(profile, mu), mu.assign)
    cycle = _shortest_cycle(succ) if shortest else _envy_cycle(succ)
    return None if cycle is None else ImprovingCycle(cycle)


def pareto_dominates(profile: Profile, nu: Allocation, mu: Allocation) -> bool:
    """True iff nu makes every agent weakly better off than mu and at
    least one agent strictly better off.

    >>> from reallot.core import Instance, Preference, Profile, Allocation
    >>> inst = Instance.default(3)
    >>> prof = Profile(inst, (Preference((1, 2, 0)), Preference((2, 0, 1)),
    ...                       Preference((0, 1, 2))))
    >>> pareto_dominates(prof, Allocation((1, 2, 0)), Allocation((2, 0, 1)))
    True
    """
    strict = False
    for a, rank in enumerate(_rank_rows(profile, nu, mu)):
        rn = rank[nu.assign[a]]
        rm = rank[mu.assign[a]]
        if rn > rm:
            return False
        if rn < rm:
            strict = True
    return strict


def is_individually_rational(profile: Profile, mu: Allocation) -> bool:
    """True iff no agent ends up strictly below their endowment."""
    return _hurt_agent(profile, mu) is None


def _hurt_agent(profile: Profile, mu: Allocation) -> int | None:
    """The first agent that mu leaves strictly below their endowment, or
    None."""
    endow = profile.instance.endowment
    for a, rank in enumerate(_rank_rows(profile, mu)):
        if rank[mu.assign[a]] > rank[endow[a]]:
            return a
    return None


def brute_force_dominator(profile: Profile, mu: Allocation) -> Allocation | None:
    """First allocation in canonical order that Pareto-dominates mu.

    Independent of the cycle machinery on purpose: a literal scan of all
    n! allocations against the definition. Guarded to small instances.
    """
    n = profile.n
    if n > BRUTE_FORCE_MAX_AGENTS:
        raise BudgetError(f"brute force is guarded to n <= {BRUTE_FORCE_MAX_AGENTS}, got {n}")
    _rank_rows(profile, mu)  # the size check; the scan reads the preferences
    (nu,) = _first_dominators(profile.prefs, [mu.assign])
    return None if nu is None else Allocation._make(nu)


def _first_dominators(
    prefs: Sequence[Preference], assigns: Sequence[Sequence[int]]
) -> list[tuple[int, ...] | None]:
    """For each listed allocation of one profile, the first allocation in
    canonical order that Pareto-dominates it, or None.

    One literal walk of ``itertools.permutations`` serves every listed
    allocation: bit i of ``ok[a][h]`` is set when agent a ranks house h no
    lower than the house allocation i gives it, so a permutation weakly
    dominates exactly the allocations whose bits survive the AND over its
    agents. Each survivor is confirmed strict by the definition, and the
    walk stops once every allocation has its answer. A row is built in
    O(n + g) for g allocations: each allocation's bit goes to the house it
    gives the agent, and the bits are ORed as a suffix along the ranking,
    worst house first. Only the preferences are read.
    """
    n = len(prefs)
    agents = range(n)
    ok = []
    for a, pref in enumerate(prefs):
        row = [0] * n
        bit = 1
        for assign in assigns:
            row[assign[a]] |= bit
            bit <<= 1
        acc = 0
        for h in reversed(pref.ranking):
            acc |= row[h]
            row[h] = acc
        ok.append(row)
    first: list[tuple[int, ...] | None] = [None] * len(assigns)
    pending = (1 << len(assigns)) - 1
    first_row = ok[0]
    rest = agents[1:]
    for perm in itertools.permutations(agents):
        weak = pending & first_row[perm[0]]
        if not weak:
            continue
        for a in rest:
            weak &= ok[a][perm[a]]
            if not weak:
                break
        else:
            while weak:
                bit = weak & -weak
                weak ^= bit
                i = bit.bit_length() - 1
                for a in agents:
                    rank = prefs[a].rank_of
                    if rank[perm[a]] < rank[assigns[i][a]]:
                        first[i] = perm
                        pending ^= bit
                        break
            if not pending:
                break
    return first


def apply_cycle(mu: Allocation, cycle: ImprovingCycle | Iterable[int]) -> Allocation:
    """Trade along the cycle: each listed agent takes the house mu gave to
    the next listed agent; everyone else keeps theirs."""
    agents = ImprovingCycle(cycle.agents if isinstance(cycle, ImprovingCycle) else cycle).agents
    k = len(agents)
    assign = list(mu.assign)
    n = len(assign)
    for a in agents:
        if not _is_index(a, n):
            raise ValueError(f"unknown agent index: {a}")
    for i, a in enumerate(agents):
        assign[a] = mu.assign[agents[(i + 1) % k]]
    return Allocation(assign)


def count_efficient(profile: Profile) -> tuple[int, int]:
    """(pair-efficient count, Pareto-efficient count) over all n!
    allocations. Guarded to small instances."""
    n = profile.n
    if n > BRUTE_FORCE_MAX_AGENTS:
        raise BudgetError(f"counting is guarded to n <= {BRUTE_FORCE_MAX_AGENTS}, got {n}")
    count, gaps = _pair_efficient([p.better for p in profile.prefs])
    return count, count - len(gaps)


# --- the per-profile kernel -------------------------------------------------
#
# Houses are bits. ``better[a][h]`` is the mask of houses agent a strictly
# prefers to house h, agent a's ``Preference.better``. In an allocation
# where a holds h it is also the successor set of h in the house-space envy
# digraph (h -> g when the holder of h envies the holder of g), so that
# digraph needs no building: ``succ[h]`` is one table lookup per house.
# The kernel's leaf test needs only yes or no, so it peels sinks over the
# set-bit table (``_acyclic``); ``_envy_cycle`` keeps the path that closes
# a cycle, for the extraction pass and ``find_improving_cycle``.


def _envy_cycle(
    succ: Sequence[int], known: int = -1, state: list | None = None
) -> list[int] | int | None:
    """A cycle v1 -> v2 -> ... -> vk -> v1 of the digraph given by successor
    masks, or None when it is acyclic; the nodes are houses in the
    extraction pass and agents in ``find_improving_cycle``.

    A walk starts at the least node still in play and follows the least
    successor still in play. A node with no successor in play is a sink:
    it is peeled, and the walk steps back. A walk that reaches a node
    already on it has closed a cycle; a graph peeled to nothing is
    acyclic. A peeled sink is a node that depth-first search in ascending
    order has finished, so the cycle is the first one that search meets.
    Every step pushes, peels or closes, so the test ends within 2n + 1
    steps.

    The walk reads ``succ`` only at nodes it has pushed, so it can start
    before the whole digraph is known. Given ``state``, a list ``[live,
    path, on_path]`` to start from, it stops before pushing a node outside
    the mask ``known``: it writes its position back into ``state`` (the
    path in place) and returns that node. The caller fills the node's
    successors and resumes from the state with the node added to
    ``known``; a resumed walk takes the steps the one-shot walk takes.
    """
    if state is None:
        live = (1 << len(succ)) - 1
        path: list[int] = []
        seen = 0
    else:
        live, path, seen = state
        seen |= live & ~known
    # ``seen`` marks the path and the nodes not yet known: a step into it
    # closes a cycle or pauses the walk.
    while live:
        if path:
            here = path[-1]
            out = succ[here] & live
            if not out:
                path.pop()
                gone = 1 << here
                seen ^= gone
                live ^= gone
                continue
            step = out & -out
        else:
            step = live & -live
        if seen & step:
            if known & step:
                return path[path.index(step.bit_length() - 1) :]
            state[0] = live
            state[2] = seen & known
            return step.bit_length() - 1
        path.append(step.bit_length() - 1)
        seen |= step
    return None


@functools.lru_cache(maxsize=None)
def _mask_houses(n: int) -> tuple[tuple[int, ...], ...]:
    """``table[mask]``: the houses of each n-bit mask, ascending, which is
    the order peeling the least bit gives. Built once per agent count, on
    first use. Its two readers, ``_pair_efficient`` and the leaf test
    ``_acyclic`` it feeds, run only under the n <= 8 guard of
    ``count_efficient`` and the sweeps, so at most 256 rows; a checker
    without that guard, such as ``find_improving_cycle``, must not read it."""
    table: list[tuple[int, ...]] = [()]
    for h in range(n):
        table += [houses + (h,) for houses in table]
    return tuple(table)


def _acyclic(succ: Sequence[int], houses: Sequence[tuple[int, ...]]) -> bool:
    """True iff the digraph given by successor masks has no cycle, where
    ``houses`` is ``_mask_houses(len(succ))``. Peels the least sink still
    in play until none is left: an emptied graph is acyclic, and a graph
    in which every node has a successor in play has a cycle. A self-loop
    keeps its node from ever being a sink."""
    live = (1 << len(succ)) - 1
    while live:
        for h in houses[live]:
            if not succ[h] & live:
                live ^= 1 << h
                break
        else:
            return False
    return True


def _pair_efficient(better: Sequence[Sequence[int]]) -> tuple[int, list[tuple[int, ...]]]:
    """(count, gaps): how many allocations are pair-efficient, and those of
    them that are Pareto-dominated, lexicographic on the assigned-house
    sequence like ``itertools.permutations``.

    Backtracks over agents, trying free houses in ascending order. A
    prefix dies as soon as the newly placed agent and an earlier one envy
    each other: the candidates are the earlier houses the new agent
    prefers to its own, and each is tested against its holder's envy mask.
    Both loops read a mask's houses from ``_mask_houses``.

    Agents with equal rows are interchangeable: swapping their houses keeps
    the house digraph, so both efficiencies. Each agent therefore takes a
    house above the one the last earlier agent with its row holds, and a
    leaf stands for the product of (class size)! allocations. Only the
    dominated leaves are expanded, by permuting houses within each class,
    and then sorted.

    Both efficiencies of a leaf depend only on its house digraph, and most
    leaves of one profile repeat a digraph an earlier leaf had, so the
    leaf test runs once per distinct ``succ``. It is ``_acyclic``, which
    peels sinks and keeps no path: the kernel needs to know whether a
    cycle exists, not which one. The answers live in a dict local to this
    call, so that a sweep's cost does not depend on what ran before it. An
    efficient leaf only adds one to the count.
    """
    n = len(better)
    houses = _mask_houses(n)
    classes: dict[tuple[int, ...], list[int]] = {}
    prev = []  # the last earlier agent with the same row, or -1
    weight = 1  # allocations per leaf: the product of the class factorials
    for a, row in enumerate(better):
        mates = classes.setdefault(tuple(row), [])
        prev.append(mates[-1] if mates else -1)
        mates.append(a)
        weight *= len(mates)
    leaves = 0
    gaps: list[tuple[int, ...]] = []
    acyclic: dict[tuple[int, ...], bool] = {}
    assign = [0] * n
    succ = [0] * n
    full = (1 << n) - 1
    last = n - 1

    def place(agent: int, free: int):
        nonlocal leaves
        row = better[agent]
        taken = full ^ free
        mate = prev[agent]
        for h in houses[free if mate < 0 else free & -(2 << assign[mate])]:
            bit = 1 << h
            for g in houses[row[h] & taken]:
                if succ[g] & bit:
                    break  # the holder of g envies this agent back
            else:
                assign[agent] = h
                succ[h] = row[h]
                if agent == last:
                    leaves += 1
                    key = tuple(succ)
                    efficient = acyclic.get(key)
                    if efficient is None:
                        efficient = acyclic[key] = _acyclic(succ, houses)
                    if not efficient:
                        gaps.append(tuple(assign))
                else:
                    place(agent + 1, free ^ bit)

    place(0, full)
    if weight > 1 and gaps:
        # Each sigma permutes the agents within their classes: agent a takes
        # the house the leaf gives agent sigma[a].
        agents = [a for mates in classes.values() for a in mates]
        sigmas = []
        for picks in itertools.product(*map(itertools.permutations, classes.values())):
            sigma = [0] * n
            for a, b in zip(agents, itertools.chain.from_iterable(picks)):
                sigma[a] = b
            sigmas.append(sigma)
        gaps = sorted(tuple(leaf[b] for b in sigma) for leaf in gaps for sigma in sigmas)
    return leaves * weight, gaps


def _trade_colors(ranks, order: LinearOrder, owner, dest, moved: Iterable[int]) -> tuple[list[int], list[str]]:
    """The witness rule, on houses: ``ranks[a][h]`` is agent a's rank of
    house h, ``owner[h]`` its holder under mu, and the holder of each h in
    ``moved`` takes ``dest[h]``. The trade must dominate and close over the
    improvers' houses; rank rows are permutations, so an equal rank means
    the same house and a better one another house. The one reader of the
    order: returns the improvers' houses left to right along it (the labels
    b1..bm) and their colours, red when a house moves rightward.
    """
    pos = order.position
    gave = got = 0  # one bit per order position
    for h in moved:
        rank = ranks[owner[h]]
        g = dest[h]
        if rank[g] < rank[h]:
            gave |= 1 << pos[h]
            got |= 1 << pos[g]
        elif rank[g] > rank[h]:
            raise ValueError("nu does not Pareto-dominate mu at this profile")
    if not gave:
        raise ValueError("nu does not Pareto-dominate mu at this profile")
    if gave != got:
        raise ValueError("improving agents must trade houses among themselves")
    by_rank = order.by_rank
    slots = []
    colors = []
    while gave:
        bit = gave & -gave
        gave ^= bit
        p = bit.bit_length() - 1
        h = by_rank[p]
        slots.append(h)
        colors.append(RED if p < pos[dest[h]] else BLUE)
    return slots, colors


def _blocking_labels(kind: str, ranks, owner, slots: Sequence[int], colors: Sequence[str]) -> tuple[int, int]:
    """The agents the extraction argument pairs up, checked to envy each
    other: the least adjacent red/blue labels on single-peaked profiles,
    the extreme labels b1 and bm on single-dipped ones."""
    i, j = 0, len(colors) - 1
    if kind == SINGLE_PEAKED:
        for i in range(j):
            if colors[i] == RED and colors[i + 1] == BLUE:
                j = i + 1
                break
        else:
            raise RuntimeError("no adjacent red/blue pair; witness coloring is broken")
    p, q = slots[i], slots[j]
    low, high = owner[p], owner[q]
    if not (ranks[low][q] < ranks[low][p] and ranks[high][p] < ranks[high][q]):
        raise RuntimeError("extracted pair is not mutually envious")
    return low, high


def _extraction_pass(prefs: Sequence[Preference], order: LinearOrder, kind: str) -> tuple[int, int]:
    """(dominated, validated) over all n! allocations of one profile. Each
    dominated allocation trades along its envy cycle over houses, which
    must pass the witness and pair rules on ``rank_of`` lookups rather
    than the ``better`` masks that found it; any failure raises.

    A house gets its holder only when the cycle walk first pushes it, each
    free agent in turn. The walk reads successors only at the houses it
    pushed and the two rules read holders only on the cycle, so once the
    walk closes a cycle every completion of the unplaced houses has that
    cycle and that outcome: one check stands for (n - placed)! dominated
    allocations. A walk that peels every house has placed them all and
    found one efficient allocation.
    """
    n = len(prefs)
    ranks = [p.rank_of for p in prefs]
    by_house = list(zip(*(p.better for p in prefs)))  # by_house[h][a] == better[a][h]
    full = (1 << n) - 1
    owner = list(range(n))  # the unplaced houses hold the free agents
    succ = [0] * n
    dest = [0] * n
    dominated = 0

    def place(h: int, known: int, state: list):
        # The walk paused before pushing house h. Give h each free agent in
        # turn (g runs over h and the other unplaced houses, whose holders
        # are the free agents), resume the walk, restore ``owner``.
        nonlocal dominated
        live, path, on_path = state
        row = by_house[h]
        free = full ^ known
        known |= 1 << h
        completions = math.factorial(n - known.bit_count())
        while free:
            bit = free & -free
            free ^= bit
            g = bit.bit_length() - 1
            owner[h], owner[g] = owner[g], owner[h]
            succ[h] = row[owner[h]]
            resumed = [live, path[:], on_path]
            got = _envy_cycle(succ, known, resumed)
            if type(got) is int:
                place(got, known, resumed)
            elif got is not None:
                last = got[-1]
                for nxt in got:
                    dest[last] = nxt
                    last = nxt
                slots, colors = _trade_colors(ranks, order, owner, dest, got)
                _blocking_labels(kind, ranks, owner, slots, colors)
                dominated += completions
            owner[h], owner[g] = owner[g], owner[h]

    place(0, 0, [full, [], 0])  # a walk with nothing known pauses at house 0
    return dominated, dominated  # a failed check raises, so all are validated
