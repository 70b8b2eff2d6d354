"""Shared fixtures: the 3-agent mixed-domain gap instance, the pool for
small sweeps, builders, the checked-rebuild gate of ``_make`` values, the
envy-graph, cycle-search and dominator oracles, the paused-walk helper,
the literal witness, extractor and extraction-claim oracles, the kernel
row by definition, the per-permutation extraction pass, the walk-free
efficiency oracles and the direct single-dipped oracles."""

import itertools
import pickle
from collections import deque
from dataclasses import dataclass
from unittest import mock

import pytest

from reallot import equivalence
from reallot.core import Allocation, Instance, LinearOrder, Preference, Profile
from reallot.domains import NOT_SINGLE_DIPPED, ViolationWitness, is_single_dipped, is_single_peaked
from reallot.efficiency import (
    BLUE,
    RED,
    _blocking_labels,
    _envy_cycle,
    _trade_colors,
    apply_cycle,
    find_improving_cycle,
    pareto_dominates,
)
from reallot.equivalence import ImprovementWitness


def pool_small_sweeps():
    """A patch of the runner's break-even to 0: under it, a sweep with
    ``jobs`` >= 2 starts its pool however small its estimated work. As a
    context manager for Hypothesis tests, which take no function-scoped
    fixture; other tests use the ``small_sweeps_pool`` fixture."""
    return mock.patch.object(equivalence, "_POOL_MIN_WORK", 0)


@pytest.fixture
def small_sweeps_pool():
    """Small sweeps with ``jobs`` >= 2 reach the pool for the whole test."""
    with pool_small_sweeps():
        yield


def pref(text: str) -> Preference:
    """Build a preference from 'h2 h3 h1' style text (default names)."""
    return Preference(tuple(int(tok[1:]) - 1 for tok in text.split()))


def assert_checked_rebuild(value):
    """The checked constructor accepts the fields of a value that a
    ``_make`` call built and gives the same value: equal, with the same
    hash, repr and pickle bytes. No field is a list, which the checked
    constructor would have coerced to a tuple or kept as one."""
    fields = [getattr(value, f) for f in type(value).__annotations__]
    assert not any(isinstance(f, list) for f in fields)
    rebuilt = type(value)(*fields)
    assert rebuilt == value and hash(rebuilt) == hash(value) and repr(rebuilt) == repr(value)
    assert pickle.dumps(rebuilt) == pickle.dumps(value)


def profile_from(*rows: str, order: LinearOrder | None = None) -> Profile:
    prefs = tuple(pref(row) for row in rows)
    inst = Instance.default(len(prefs), order)
    return Profile(inst, prefs)


@dataclass(frozen=True)
class EnvyGraph:
    """Boolean adjacency of the envy relation at one allocation (edge
    a -> b when a strictly prefers b's house), built straight from the
    definition as an oracle for the efficiency checkers."""

    adjacency: tuple[tuple[bool, ...], ...]

    @classmethod
    def from_assignment(cls, profile: Profile, mu: Allocation) -> "EnvyGraph":
        ranks = [p.rank_of for p in profile.prefs]
        n = profile.n
        assign = mu.assign
        rows = []
        for a in range(n):
            ra = ranks[a]
            own = ra[assign[a]]
            rows.append(tuple(b != a and ra[assign[b]] < own for b in range(n)))
        return cls(tuple(rows))

    def has_edge(self, a: int, b: int) -> bool:
        return self.adjacency[a][b]

    def successors(self, a: int) -> tuple[int, ...]:
        return tuple(b for b, e in enumerate(self.adjacency[a]) if e)

    def two_cycles(self) -> list[tuple[int, int]]:
        adj = self.adjacency
        n = len(adj)
        return [(a, b) for a in range(n) for b in range(a + 1, n) if adj[a][b] and adj[b][a]]


def _succ_raw(ranks, alloc):
    """Envy successor lists in ascending agent order: the list form of the
    digraph whose masks ``find_improving_cycle`` walks."""
    n = len(alloc)
    succ = []
    for a in range(n):
        ra = ranks[a]
        own = ra[alloc[a]]
        succ.append([b for b in range(n) if b != a and ra[alloc[b]] < own])
    return succ


def _first_cycle(succ):
    """The first cycle an iterative depth-first search meets, starts and
    neighbours in ascending order: the oracle for the default mode of
    ``find_improving_cycle``, which runs the kernel's sink-peeling walk."""
    n = len(succ)
    state = [0] * n  # 0 new, 1 on stack, 2 done
    for start in range(n):
        if state[start]:
            continue
        state[start] = 1
        stack = [(start, iter(succ[start]))]
        path = [start]
        while stack:
            _node, it = stack[-1]
            pushed = False
            for nxt in it:
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    path.append(nxt)
                    pushed = True
                    break
                if state[nxt] == 1:
                    return path[path.index(nxt) :]
            if not pushed:
                done, _ = stack.pop()
                state[done] = 2
                path.pop()
    return None


def paused_walk(succ, known, junk):
    """Run ``_envy_cycle`` on a copy of the masks ``succ`` in which every
    node outside ``known`` holds ``junk``, filling a node with its real
    mask only when the walk pauses before pushing it, then resuming.
    Returns (what the walk returned, the nodes it paused at in order)."""
    partial = [s if known >> v & 1 else junk for v, s in enumerate(succ)]
    state = [(1 << len(succ)) - 1, [], 0]
    paused = []
    while True:
        got = _envy_cycle(partial, known, state)
        if type(got) is not int:
            return got, paused
        paused.append(got)
        partial[got] = succ[got]
        known |= 1 << got


def _shortest_cycle(succ):
    """A 2-cycle scan, then a breadth-first search per node over successor
    lists: the oracle for ``find_improving_cycle(..., shortest=True)``."""
    n = len(succ)
    succ_sets = [set(s) for s in succ]
    for a in range(n):
        for b in succ[a]:
            if a in succ_sets[b]:
                return [a, b]
    best = None
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = deque([s])
        closing = -1
        while queue and closing < 0:
            x = queue.popleft()
            for y in succ[x]:
                if y == s:
                    closing = x
                    break
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
        if closing < 0:
            continue
        back = []
        node = closing
        while node != s:
            back.append(node)
            node = parent[node]
        cycle = [s] + back[::-1]
        if best is None or len(cycle) < len(best):
            best = cycle
    return best


def _first_dominator(ranks, assign):
    """The first permutation in canonical order that Pareto-dominates the
    allocation ``assign``, or None: a scan of one allocation at a time, the
    oracle for ``efficiency._first_dominators``, which walks once for a
    whole list."""
    n = len(assign)
    own = [ranks[a][assign[a]] for a in range(n)]
    for perm in itertools.permutations(range(n)):
        strict = False
        ok = True
        for a in range(n):
            r = ranks[a][perm[a]]
            if r > own[a]:
                ok = False
                break
            if r < own[a]:
                strict = True
        if ok and strict:
            return perm
    return None


def witness_by_definition(profile: Profile, mu: Allocation, nu: Allocation) -> ImprovementWitness:
    """Label and colour the agents nu strictly improves over mu, each check
    on agents and house sets straight from the definition: the oracle for
    ``build_witness``, which runs the integer rule ``_trade_colors`` on
    houses."""
    if not pareto_dominates(profile, nu, mu):
        raise ValueError("nu does not Pareto-dominate mu at this profile")
    pos = profile.order.position
    tilde = [
        a
        for a, pref in enumerate(profile.prefs)
        if pref.rank_of[nu.assign[a]] < pref.rank_of[mu.assign[a]]
    ]
    tilde_set = frozenset(tilde)
    for a in range(profile.n):
        if a not in tilde_set and mu.assign[a] != nu.assign[a]:
            raise ValueError("a non-improving agent changed houses")
    mu_houses = {mu.assign[a] for a in tilde}
    nu_houses = {nu.assign[a] for a in tilde}
    if mu_houses != nu_houses:
        raise ValueError("improving agents must trade houses among themselves")
    labels = tuple(sorted(tilde, key=lambda a: pos[mu.assign[a]]))
    colors = []
    for b in labels:
        if mu.assign[b] == nu.assign[b]:
            raise ValueError("an improving agent kept their house")
        colors.append(RED if pos[mu.assign[b]] < pos[nu.assign[b]] else BLUE)
    return ImprovementWitness(nu, tilde_set, labels, tuple(colors))


def _family_by_definition(profile: Profile, kind: str):
    holds = is_single_peaked if kind == "sp" else is_single_dipped
    for a, pref in enumerate(profile.prefs):
        if not holds(pref, profile.order):
            raise ValueError(f"agent {a} is outside the {kind} family")


def pair_by_definition(
    profile: Profile, mu: Allocation, witness: ImprovementWitness, kind: str
) -> tuple[int, int]:
    """The extractors' pair read off a witness rebuilt by
    ``witness_by_definition``: the least adjacent red/blue labels for
    ``kind`` 'sp', the extreme labels for 'sd', each agent checked to
    prefer the other's mu-house with ``Preference.prefers``."""
    _family_by_definition(profile, kind)
    if witness_by_definition(profile, mu, witness.nu) != witness:
        raise ValueError("witness does not match this profile and allocation")
    colors = witness.colors
    i, j = 0, len(colors) - 1
    if kind == "sp":
        pairs = [i for i in range(len(colors) - 1) if colors[i : i + 2] == (RED, BLUE)]
        if not pairs:
            raise RuntimeError("no adjacent red/blue pair; witness coloring is broken")
        i, j = pairs[0], pairs[0] + 1
    low, high = witness.labels[i], witness.labels[j]
    if not (
        profile.prefs[low].prefers(mu.assign[high], mu.assign[low])
        and profile.prefs[high].prefers(mu.assign[low], mu.assign[high])
    ):
        raise RuntimeError("extracted pair is not mutually envious")
    return low, high


def extraction_claims_by_definition(profile: Profile, kind: str) -> tuple[int, int]:
    """(dominated, validated) for ``validate_extraction_claims``: every
    allocation with an improving cycle is traded along it and put through
    the two oracles above."""
    if kind not in ("sp", "sd"):
        raise ValueError("kind must be 'sp' or 'sd'")
    _family_by_definition(profile, kind)
    dominated = validated = 0
    for perm in itertools.permutations(range(profile.n)):
        mu = Allocation(perm)
        cycle = find_improving_cycle(profile, mu)
        if cycle is None:
            continue
        dominated += 1
        nu = apply_cycle(mu, cycle)
        pair_by_definition(profile, mu, witness_by_definition(profile, mu, nu), kind)
        validated += 1
    return dominated, validated


def better_row_by_definition(ranking) -> list[int]:
    """``row[h]``: the OR of the bits of the houses that ``ranking``, listed
    best first, places strictly above house h. The oracle for
    ``Preference.better``, written apart from the row builder it checks."""
    row = []
    for h in range(len(ranking)):
        mask = 0
        for g in ranking[: ranking.index(h)]:
            mask |= 1 << g
        row.append(mask)
    return row


def extraction_pass_by_permutation(prefs, order: LinearOrder, kind: str) -> tuple[int, int]:
    """(dominated, validated) with one whole ``_envy_cycle`` walk per owner
    permutation and both rules run on every dominated one: the oracle for
    ``efficiency._extraction_pass``, which places a house's holder only
    when its walk first pushes it and lets one check stand for every
    completion."""
    n = len(prefs)
    ranks = [p.rank_of for p in prefs]
    better = [better_row_by_definition(p.ranking) for p in prefs]
    by_house = [[row[h] for row in better] for h in range(n)]
    dest = [0] * n
    dominated = validated = 0
    for owner in itertools.permutations(range(n)):
        cycle = _envy_cycle(list(map(list.__getitem__, by_house, owner)))
        if cycle is None:
            continue
        dominated += 1
        h = cycle[-1]
        for g in cycle:
            dest[h] = g
            h = g
        slots, colors = _trade_colors(ranks, order, owner, dest, cycle)
        _blocking_labels(kind, ranks, owner, slots, colors)
        validated += 1
    return dominated, validated


def serial_dictatorship_outcomes(prefs) -> set[tuple[int, ...]]:
    """Every allocation serial dictatorship yields under some priority
    order: agents in turn each take the best house still free. These are
    exactly the Pareto-efficient allocations (Abdulkadiroglu & Sonmez 1998,
    Lemma 1), so this oracle walks no envy digraph and scans no dominator;
    the pick loop is written out here rather than shared with
    ``rules.serial_dictatorship``."""
    n = len(prefs)
    outcomes = set()
    for priority in itertools.permutations(range(n)):
        taken = [False] * n
        assigned = [-1] * n
        for agent in priority:
            for house in prefs[agent].ranking:
                if not taken[house]:
                    assigned[agent] = house
                    taken[house] = True
                    break
        outcomes.add(tuple(assigned))
    return outcomes


def pair_efficient_by_scan(prefs) -> set[tuple[int, ...]]:
    """Every allocation in which no two agents each strictly prefer the
    other's house: a literal blocking-pair scan over all n! allocations."""
    n = len(prefs)
    ranks = [p.rank_of for p in prefs]
    found = set()
    for perm in itertools.permutations(range(n)):
        blocked = any(
            ranks[a][perm[b]] < ranks[a][perm[a]] and ranks[b][perm[a]] < ranks[b][perm[b]]
            for a in range(n)
            for b in range(a + 1, n)
        )
        if not blocked:
            found.add(perm)
    return found


def single_dipped_by_scan(pref: Preference, order: LinearOrder) -> bool:
    """True iff preference climbs monotonically on both sides of its dip
    along the order: the defining pairwise scan, written out directly as
    the oracle for the recogniser derived from single-peakedness."""
    pos = order.position
    rank = pref.rank_of
    d = pos[pref.dip]
    m = pref.m
    for h in range(m):
        ph = pos[h]
        for g in range(m):
            if h == g:
                continue
            pg = pos[g]
            if (d <= ph < pg or pg < ph <= d) and rank[g] > rank[h]:
                return False
    return True


def single_dipped_violation_by_scan(
    pref: Preference, order: LinearOrder
) -> ViolationWitness | None:
    """The lexicographically least (middle, far) single-dipped witness, or
    None: the direct scan, the oracle for the derived witness."""
    pos = order.position
    rank = pref.rank_of
    dip = pref.dip
    d = pos[dip]
    m = pref.m
    for middle in range(m):
        if middle == dip:
            continue
        pm = pos[middle]
        for far in range(m):
            if far == middle or far == dip:
                continue
            pf = pos[far]
            if d < pm < pf:
                side = "right"
            elif pf < pm < d:
                side = "left"
            else:
                continue
            if rank[middle] < rank[far]:
                return ViolationWitness(NOT_SINGLE_DIPPED, dip, middle, far, side)
    return None


@pytest.fixture
def gap_example():
    """The 3-agent instance where a pair-efficient allocation is dominated:
    one single-dipped agent between two single-peaked ones."""
    profile = profile_from("h2 h3 h1", "h3 h1 h2", "h1 h2 h3")
    mu = Allocation((2, 0, 1))
    nu = Allocation((1, 2, 0))
    return profile, mu, nu
