"""Efficiency checkers: blocking pairs, improving trade cycles, the
brute-force domination oracle and the witness rule.

The checkers ride on the envy digraph (a -> b when a strictly prefers b's
house), held as successor masks: a 2-cycle is a blocking pair and any
cycle an improving trade. ``_envy_cycle`` is the one cycle walk, over
agents in ``find_improving_cycle`` and over houses in the per-profile
kernel; the brute-force oracle stays a literal scan, independent of it.
``_trade_colors`` is the one witness rule, shared by the witnesses, the
extractors and the kernel's extraction pass. The tests keep a depth-first
search and a literal witness builder as their oracles.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import BRUTE_FORCE_MAX_AGENTS, SINGLE_PEAKED, Allocation, BudgetError, Preference, Profile

RED = "red"
BLUE = "blue"


@dataclass(frozen=True)
class ImprovingCycle:
    """Agents (a1..ak), each ai taking the house mu assigns to a(i+1)."""

    agents: tuple[int, ...]

    def __post_init__(self):
        agents = tuple(self.agents)
        object.__setattr__(self, "agents", agents)
        if len(agents) < 2:
            raise ValueError("a trade cycle needs at least two agents")
        if len(set(agents)) != len(agents):
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


def find_blocking_pair(profile: Profile, mu: Allocation) -> tuple[int, int] | None:
    """The lexicographically least pair of agents who both strictly prefer
    each other's assigned house, or None (mu is then pair-efficient)."""
    if mu.n != profile.n:
        raise ValueError("allocation size does not match the profile")
    ranks = [p.rank_of for p in profile.prefs]
    return _blocking_pair_raw(ranks, mu.assign)


def find_improving_cycle(
    profile: Profile, mu: Allocation, *, shortest: bool = False
) -> ImprovingCycle | None:
    """A cycle of the envy digraph, or None (mu is then Pareto-efficient).

    Default mode reports the cycle that the kernel's walk closes from the
    least agent, the first cycle a depth-first search in ascending agent
    order meets; ``shortest=True`` returns a shortest cycle by
    breadth-first search, which is the least blocking pair when one exists.
    """
    if mu.n != profile.n:
        raise ValueError("allocation size does not match the profile")
    ranks = [p.rank_of for p in profile.prefs]
    succ = _envy_masks(ranks, mu.assign)
    cycle = _shortest_cycle(succ) if shortest else _envy_cycle(succ)
    return None if cycle is None else ImprovingCycle(tuple(cycle))


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
    if nu.n != profile.n or mu.n != profile.n:
        raise ValueError("allocation size does not match the profile")
    strict = False
    for a, pref in enumerate(profile.prefs):
        rn = pref.rank_of[nu.assign[a]]
        rm = pref.rank_of[mu.assign[a]]
        if rn > rm:
            return False
        if rn < rm:
            strict = True
    return strict


def is_individually_rational(profile: Profile, mu: Allocation) -> bool:
    """True iff no agent ends up strictly below their endowment."""
    endow = profile.instance.endowment
    for a, pref in enumerate(profile.prefs):
        if pref.rank_of[mu.assign[a]] > pref.rank_of[endow[a]]:
            return False
    return True


def brute_force_dominator(profile: Profile, mu: Allocation) -> Allocation | None:
    """First allocation in canonical order that Pareto-dominates mu.

    Independent of the cycle machinery on purpose: a literal scan of all
    n! allocations against the definition. Guarded to small instances.
    """
    n = profile.n
    if n > BRUTE_FORCE_MAX_AGENTS:
        raise BudgetError(f"brute force is guarded to n <= {BRUTE_FORCE_MAX_AGENTS}, got {n}")
    if mu.n != n:
        raise ValueError("allocation size does not match the profile")
    (nu,) = _first_dominators(profile.prefs, [mu.assign])
    return None if nu is None else Allocation(nu)


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
        if not 0 <= a < n:
            raise ValueError(f"unknown agent index: {a}")
    for i, a in enumerate(agents):
        assign[a] = mu.assign[agents[(i + 1) % k]]
    return Allocation(tuple(assign))


def count_efficient(profile: Profile) -> tuple[int, int]:
    """(pair-efficient count, Pareto-efficient count) over all n!
    allocations. Guarded to small instances."""
    n = profile.n
    if n > BRUTE_FORCE_MAX_AGENTS:
        raise BudgetError(f"counting is guarded to n <= {BRUTE_FORCE_MAX_AGENTS}, got {n}")
    found = _pair_efficient(_better_table([p.ranking for p in profile.prefs]))
    return len(found), sum(efficient for _, efficient in found)


# --- the per-profile kernel -------------------------------------------------
#
# Houses are bits. ``better[a][h]`` is the mask of houses agent a strictly
# prefers to house h. In an allocation where a holds h it is also the
# successor set of h in the house-space envy digraph (h -> g when the
# holder of h envies the holder of g), so that digraph needs no building:
# ``succ[h]`` is one table lookup per house.


def _better_table(rankings: Sequence[Sequence[int]]) -> list[list[int]]:
    """``better[a][h]`` from rankings listed best first."""
    table = []
    for ranking in rankings:
        row = [0] * len(ranking)
        above = 0
        for h in ranking:
            row[h] = above
            above |= 1 << h
        table.append(row)
    return table


def _envy_cycle(succ: Sequence[int]) -> list[int] | None:
    """A cycle v1 -> v2 -> ... -> vk -> v1 of the digraph given by successor
    masks, or None when it is acyclic; the nodes are houses in the kernel
    and agents in ``find_improving_cycle``.

    A walk starts at the least node still in play and follows the least
    successor still in play. A node with no successor in play is a sink:
    it is peeled, and the walk steps back. A walk that reaches a node
    already on it has closed a cycle; a graph peeled to nothing is
    acyclic. A peeled sink is a node that depth-first search in ascending
    order has finished, so the cycle is the first one that search meets.
    Every step but the last pushes or peels a node, so the test ends
    within 2n + 1 steps.
    """
    live = (1 << len(succ)) - 1
    path: list[int] = []
    on_path = 0
    while live:
        if not path:
            start = live & -live
            path.append(start.bit_length() - 1)
            on_path |= start
        here = path[-1]
        out = succ[here] & live
        if not out:
            path.pop()
            gone = 1 << here
            on_path ^= gone
            live ^= gone
            continue
        step = out & -out
        nxt = step.bit_length() - 1
        if on_path & step:
            return path[path.index(nxt) :]
        path.append(nxt)
        on_path |= step
    return None


def _pair_efficient(better: Sequence[Sequence[int]]) -> list[tuple[tuple[int, ...], bool]]:
    """Every pair-efficient allocation, lexicographic on the assigned-house
    sequence like ``itertools.permutations``, each with a flag that is
    True when the allocation is also Pareto-efficient.

    Backtracks over agents, trying free houses in ascending order. A
    prefix dies as soon as the newly placed agent and an earlier one envy
    each other: the candidates are the earlier houses the new agent
    prefers to its own, and each is tested against its holder's envy mask.

    Both efficiencies of a leaf depend only on its house digraph, and most
    leaves of one profile repeat a digraph an earlier leaf had, so the
    cycle walk runs once per distinct ``succ``. The answers live in a dict
    local to this call, so that a sweep's cost does not depend on what ran
    before it.
    """
    n = len(better)
    found: list[tuple[tuple[int, ...], bool]] = []
    acyclic: dict[tuple[int, ...], bool] = {}
    assign = [0] * n
    succ = [0] * n
    full = (1 << n) - 1
    last = n - 1

    def place(agent: int, free: int):
        row = better[agent]
        taken = full ^ free
        rest = free
        while rest:
            bit = rest & -rest
            rest ^= bit
            h = bit.bit_length() - 1
            wanted = row[h] & taken
            while wanted:
                g = wanted & -wanted
                if succ[g.bit_length() - 1] & bit:
                    break  # the holder of g envies this agent back
                wanted ^= g
            if wanted:
                continue
            assign[agent] = h
            succ[h] = row[h]
            if agent == last:
                key = tuple(succ)
                efficient = acyclic.get(key)
                if efficient is None:
                    efficient = acyclic[key] = _envy_cycle(succ) is None
                found.append((tuple(assign), efficient))
            else:
                place(agent + 1, free ^ bit)

    place(0, full)
    return found


def _trade_colors(ranks, owner, dest, moved: Iterable[int]) -> tuple[list[int], list[str]]:
    """The witness rule, on houses numbered by order position: ``ranks[a][p]``
    is agent a's rank of the house at position p, ``owner[p]`` its holder
    under mu, and the holder of each p in ``moved`` takes ``dest[p]``. The
    trade must dominate, move no non-improver and close over the
    improvers' houses. Returns the improvers' positions ascending (the
    labels b1..bm) and their colours, red when a house moves rightward.
    """
    gave = got = strays = 0
    for p in moved:
        rank = ranks[owner[p]]
        q = dest[p]
        if rank[q] < rank[p]:
            gave |= 1 << p
            got |= 1 << q
        elif rank[q] > rank[p]:
            raise ValueError("nu does not Pareto-dominate mu at this profile")
        elif q != p:
            strays |= 1 << p
    if not gave:
        raise ValueError("nu does not Pareto-dominate mu at this profile")
    if strays:
        raise ValueError("a non-improving agent changed houses")
    if gave != got:
        raise ValueError("improving agents must trade houses among themselves")
    slots = []
    colors = []
    while gave:
        bit = gave & -gave
        gave ^= bit
        p = bit.bit_length() - 1
        q = dest[p]
        if q == p:
            raise ValueError("an improving agent kept their house")
        slots.append(p)
        colors.append(RED if p < q else BLUE)
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


def _extraction_pass(ranks: Sequence[Sequence[int]], kind: str) -> tuple[int, int]:
    """(dominated, validated) over all n! allocations of one profile, on
    ``_trade_colors``'s rank rows. Each dominated allocation trades along
    its envy cycle, which must pass the witness and pair rules on rank
    lookups rather than the masks that found it; any failure raises."""
    n = len(ranks)
    better = _better_table([sorted(range(n), key=r.__getitem__) for r in ranks])
    by_house = [[row[p] for row in better] for p in range(n)]
    dest = [0] * n
    dominated = validated = 0
    for owner in itertools.permutations(range(n)):
        cycle = _envy_cycle(list(map(list.__getitem__, by_house, owner)))
        if cycle is None:
            continue
        dominated += 1
        p = cycle[-1]
        for q in cycle:
            dest[p] = q
            p = q
        slots, colors = _trade_colors(ranks, owner, dest, cycle)
        _blocking_labels(kind, ranks, owner, slots, colors)
        validated += 1
    return dominated, validated
