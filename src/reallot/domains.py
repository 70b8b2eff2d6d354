"""Single-peaked and single-dipped preference families.

Recognition is one linear pass: a ranking is single-peaked exactly when
each of its best-first prefixes is an interval of the order, and
single-dipped when each worst-first prefix is one. A witness is one scan
for a violating triple of houses, run for single-dippedness on the
ranking read worst-to-best, in the exact shape the counterexample
builders consume; it runs only when a witness is asked for. Enumeration
is constructive: a best-first walk over the order's intervals, out from
each peak for SP and in from both ends for SD, streams the 2^(m-1)
family members in lexicographic order without touching the m!
permutation space. A :class:`DomainSpec` is a tuple of
Cartesian blocks, and ``_profiles`` lists or draws its profiles as
preference tuples; an SP or SD draw is a row of a per-order table of the
family's own members. A :class:`Scope` says how much of a spec a sweep
covers: its profiles (``seeds``) and their count (``size``), which a
sweep checks against its budget before it draws or lists any.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import BRUTE_FORCE_MAX_AGENTS, SINGLE_DIPPED, SINGLE_PEAKED, Instance, LinearOrder, Preference, Profile, _check_count, _frozen

UNRESTRICTED = "all"

NOT_SINGLE_PEAKED = "not-single-peaked"
NOT_SINGLE_DIPPED = "not-single-dipped"


@_frozen
class ViolationWitness:
    """Three houses certifying that a preference is outside a family.

    For ``not-single-peaked``: pivot is the peak, and the far house beats
    the middle house even though the middle house sits strictly between
    pivot and far in the order (``pivot P far P middle``).

    For ``not-single-dipped``: pivot is the dip, and the middle house beats
    the far house even though it sits strictly nearer the dip
    (``middle P far P pivot``).
    """

    kind: str
    pivot: int
    middle: int
    far: int
    side: str  # "left" | "right" of the pivot

    def __post_init__(self):
        if self.kind not in (NOT_SINGLE_PEAKED, NOT_SINGLE_DIPPED):
            raise ValueError(f"unknown witness kind: {self.kind}")
        if self.side not in ("left", "right"):
            raise ValueError(f"unknown witness side: {self.side}")

    def holds_for(self, pref: Preference, order: LinearOrder) -> bool:
        """Re-check the defining inequality chain against a preference."""
        pos = order.position
        chain = (
            pos[self.pivot] < pos[self.middle] < pos[self.far]
            or pos[self.far] < pos[self.middle] < pos[self.pivot]
        )
        if not chain:
            return False
        # Read worst-to-best, the dip is the peak and the SD chain the SP one.
        rank = pref.rank_of if self.kind == NOT_SINGLE_PEAKED else _worst_first(pref.rank_of)
        peak = rank.index(0)
        return peak == self.pivot and rank[self.pivot] < rank[self.far] < rank[self.middle]


def _worst_first(rank: tuple[int, ...]) -> tuple[int, ...]:
    """``rank_of`` of the same ranking read worst-to-best. A preference is
    single-dipped exactly when this reading of it is single-peaked, so the
    SD witness runs the SP scan on it; building the reversed ``Preference``
    would cost more than the whole scan."""
    top = len(rank) - 1
    return tuple(top - r for r in rank)


def _peak_violation(
    rank: tuple[int, ...], order: LinearOrder, kind: str
) -> ViolationWitness | None:
    """The lexicographically least (middle, far) pair such that middle sits
    strictly between the peak and far yet ranks below far, as a ``kind``
    witness; None exactly when the ranking read through ``rank`` is
    single-peaked."""
    pos = order.position
    peak = rank.index(0)
    p = pos[peak]
    m = len(rank)
    for middle in range(m):
        if middle == peak:
            continue
        pm = pos[middle]
        for far in range(m):
            if far == middle or far == peak:
                continue
            pf = pos[far]
            if p < pm < pf:
                side = "right"
            elif pf < pm < p:
                side = "left"
            else:
                continue
            if rank[far] < rank[middle]:
                return ViolationWitness(kind, peak, middle, far, side)
    return None


def _prefix_intervals(houses: tuple[int, ...], order: LinearOrder) -> bool:
    """True iff each prefix of ``houses`` is an interval of the order: each
    next house extends the interval so far by one place, on one side."""
    pos = order.position
    lo = hi = pos[houses[0]]
    for h in houses[1:]:
        p = pos[h]
        if p == lo - 1:
            lo = p
        elif p == hi + 1:
            hi = p
        else:
            return False
    return True


def is_single_peaked(pref: Preference, order: LinearOrder) -> bool:
    """True iff preference falls off monotonically on both sides of its
    peak along the order."""
    return _prefix_intervals(pref.ranking, order)


def is_single_dipped(pref: Preference, order: LinearOrder) -> bool:
    """True iff preference climbs monotonically on both sides of its dip
    along the order."""
    return _prefix_intervals(pref.ranking[::-1], order)


def single_peaked_violation(pref: Preference, order: LinearOrder) -> ViolationWitness | None:
    """The lexicographically least (middle, far) witness, or None if the
    preference is single-peaked."""
    return _peak_violation(pref.rank_of, order, NOT_SINGLE_PEAKED)


def single_dipped_violation(pref: Preference, order: LinearOrder) -> ViolationWitness | None:
    """The lexicographically least (middle, far) witness, or None if the
    preference is single-dipped."""
    return _peak_violation(_worst_first(pref.rank_of), order, NOT_SINGLE_DIPPED)


def _sp_from_mask(order: LinearOrder, mask: int) -> list[int]:
    # A single-peaked ranking listed worst first, so read best first a
    # single-dipped one: each bit picks which end of the remaining
    # interval of the order supplies the next-worse house.
    m = order.n
    by_rank = order.by_rank
    lo, hi = 0, m - 1
    worst_first = []
    for bit in range(m - 1):
        if (mask >> bit) & 1:
            worst_first.append(by_rank[hi])
            hi -= 1
        else:
            worst_first.append(by_rank[lo])
            lo += 1
    worst_first.append(by_rank[lo])
    return worst_first


def _lex_walk(m: int, roots, grow) -> Iterator[Preference]:
    """Rankings built best first, one house per step, in lexicographic
    order. A step takes one of at most two (house, lo, hi) choices: the
    house and the interval of order positions the walk goes on from.
    ``roots`` are the first step's choices and ``grow(lo, hi)`` the next
    ones; trying the lower house first makes the depth-first walk meet the
    rankings in lexicographic order."""
    stack: list = []

    def push(ranking, choices):
        for h, lo, hi in sorted(choices, reverse=True):
            stack.append((ranking + (h,), lo, hi))

    push((), roots)
    while stack:
        ranking, lo, hi = stack.pop()
        if len(ranking) == m:
            yield Preference(ranking)
        else:
            push(ranking, grow(lo, hi))


def enumerate_single_peaked(order: LinearOrder) -> Iterator[Preference]:
    """All 2^(m-1) single-peaked preferences, lexicographic by ranking,
    streamed: a walk out from each peak, the houses taken so far always
    an interval of the order.

    >>> [p.ranking for p in enumerate_single_peaked(LinearOrder.identity(3))]
    [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)]
    """
    m = order.n
    if m < 1:
        raise ValueError("need at least one house")
    pos, by_rank = order.position, order.by_rank

    def grow(lo, hi):
        choices = []
        if lo > 0:
            choices.append((by_rank[lo - 1], lo - 1, hi))
        if hi < m - 1:
            choices.append((by_rank[hi + 1], lo, hi + 1))
        return choices

    yield from _lex_walk(m, [(h, pos[h], pos[h]) for h in range(m)], grow)


def enumerate_single_dipped(order: LinearOrder) -> Iterator[Preference]:
    """All 2^(m-1) single-dipped preferences, lexicographic by ranking,
    streamed: a walk in from both ends, the houses left always an interval
    of the order."""
    m = order.n
    if m < 1:
        raise ValueError("need at least one house")
    by_rank = order.by_rank

    def grow(lo, hi):
        if lo == hi:
            return [(by_rank[lo], lo + 1, hi)]
        return [(by_rank[lo], lo + 1, hi), (by_rank[hi], lo, hi - 1)]

    yield from _lex_walk(m, grow(0, m - 1), grow)


@functools.lru_cache(maxsize=None)
def _sp_family(order: LinearOrder) -> tuple[Preference, ...]:
    return tuple(enumerate_single_peaked(order))


@functools.lru_cache(maxsize=None)
def _sd_family(order: LinearOrder) -> tuple[Preference, ...]:
    return tuple(enumerate_single_dipped(order))


@functools.lru_cache(maxsize=None)
def _all_family(m: int) -> tuple[Preference, ...]:
    return tuple(enumerate_all_preferences(m))


def _family_exceeds(kind: str, m: int, cap: int) -> bool:
    """Whether the ``kind`` family over m houses has more than ``cap``
    preferences, decided without building one and without big numbers:
    2^(m-1) or m! is multiplied up, by 2 or by k, only until the product
    passes the cap, within ``cap.bit_length()`` steps."""
    size = 1
    for k in range(2, m + 1):
        size *= k if kind == UNRESTRICTED else 2
        if size > cap:
            return True
    return size > cap


def enumerate_all_preferences(m: int) -> Iterator[Preference]:
    """All m! strict preferences over m houses, lexicographic by ranking."""
    if m < 1:
        raise ValueError("need at least one house")
    for perm in itertools.permutations(range(m)):
        yield Preference(perm)


def monotone_increasing(order: LinearOrder) -> Preference:
    """The ranking that follows the order left to right (best = leftmost)."""
    return Preference(order.by_rank)


def monotone_decreasing(order: LinearOrder) -> Preference:
    """The ranking that follows the order right to left (best = rightmost)."""
    return Preference(tuple(reversed(order.by_rank)))


@functools.lru_cache(maxsize=None)
def _draw_table(order: LinearOrder, step: int) -> tuple[Preference, ...]:
    """``table[mask]``: the member of the SP (``step`` -1) or SD (``step``
    1) family whose ranking is the worst-first list of the mask read in
    that direction. Built once per order and kind, on its first draw. Its
    entries are the family's own objects, checked once when the family was
    built, so a draw builds no ``Preference`` and no ``better`` row."""
    family = _sp_family(order) if step == -1 else _sd_family(order)
    member = {p.ranking: p for p in family}
    return tuple(member[tuple(_sp_from_mask(order, mask)[::step])] for mask in range(len(family)))


def _mask_sampler(step: int, order: LinearOrder) -> Callable[[random.Random], Preference]:
    """Uniform SP (``step`` -1) or SD (``step`` 1) draws: the preference
    one random (m-1)-bit mask names. Up to ``BRUTE_FORCE_MAX_AGENTS``
    houses, where the sweeps run, it is a row of ``_draw_table``; above,
    the family is too large to list, and each draw builds its ranking.
    At one house ``getrandbits(0)`` is 0 and advances no state."""
    bits = order.n - 1
    if order.n <= BRUTE_FORCE_MAX_AGENTS:
        table = _draw_table(order, step)
        return lambda rng: table[rng.getrandbits(bits)]
    return lambda rng: Preference(tuple(_sp_from_mask(order, rng.getrandbits(bits))[::step]))


class _Entry(NamedTuple):
    """What a per-agent entry answers, each as a function of the order.
    Only ``prefs`` lists the set, so sizes, membership and draws never
    build the m! rankings of ``all``."""

    prefs: Callable[[LinearOrder], tuple[Preference, ...]]  # canonical order
    size: Callable[[LinearOrder], int]
    holds: Callable[[Preference, LinearOrder], bool]
    sampler: Callable[[LinearOrder], Callable[[random.Random], Preference]]  # uniform draws


def _family_size(order: LinearOrder) -> int:
    return 1 << max(order.n - 1, 0)


_KINDS = {
    SINGLE_PEAKED: _Entry(_sp_family, _family_size, is_single_peaked, functools.partial(_mask_sampler, -1)),
    SINGLE_DIPPED: _Entry(_sd_family, _family_size, is_single_dipped, functools.partial(_mask_sampler, 1)),
    # No table for ``all``: it would hold all m! rankings.
    UNRESTRICTED: _Entry(
        lambda order: _all_family(order.n),
        lambda order: math.factorial(order.n),
        lambda pref, order: True,
        lambda order: lambda rng: Preference(tuple(rng.sample(range(order.n), order.n))),
    ),
}


def _entry(entry) -> _Entry:
    """The one resolver of a per-agent entry: a kind's row of ``_KINDS``,
    or the same four answers over an explicit list."""
    if isinstance(entry, str):
        return _KINDS[entry]
    return _Entry(
        lambda order: entry,
        lambda order: len(entry),
        lambda pref, order: pref in entry,
        lambda order: lambda rng: entry[rng.randrange(len(entry))],
    )


@_frozen
class DomainSpec:
    """Which preferences each agent may hold.

    A spec is a tuple of Cartesian blocks and denotes their union. A block
    assigns every agent one of ``"sp"``, ``"sd"``, ``"all"`` or an explicit
    tuple of preferences and denotes the product of those sets.
    ``DomainSpec(per_agent)`` is one block; ``DomainSpec.union(n)``, the
    profiles that are all-SP or all-SD, is the all-SP block followed by the
    all-SD block, and the only spec with more than one. Sweeps and counts
    take the blocks in turn, a later block skipping what an earlier one
    swept (``_swept_before``).
    """

    blocks: tuple[tuple, ...]

    def __init__(self, per_agent):
        if not per_agent:
            raise ValueError("a Cartesian spec needs per-agent sets")
        entries = []
        for entry in per_agent:
            if isinstance(entry, str):
                if entry not in _KINDS:
                    raise ValueError(f"unknown domain kind: {entry}")
                entries.append(entry)
            elif isinstance(entry, Preference):
                raise ValueError("explicit entries must be lists of preferences")
            else:
                explicit = tuple(entry)
                if not explicit:
                    raise ValueError("explicit preference list may not be empty")
                for p in explicit:
                    if not isinstance(p, Preference):
                        raise ValueError("explicit entries must hold Preference values")
                if len(set(explicit)) != len(explicit):
                    raise ValueError("explicit preference list repeats a preference")
                entries.append(explicit)
        object.__setattr__(self, "blocks", (tuple(entries),))

    @classmethod
    def all_single_peaked(cls, n: int) -> DomainSpec:
        return cls((SINGLE_PEAKED,) * n)

    @classmethod
    def all_single_dipped(cls, n: int) -> DomainSpec:
        return cls((SINGLE_DIPPED,) * n)

    @classmethod
    def unrestricted(cls, n: int) -> DomainSpec:
        return cls((UNRESTRICTED,) * n)

    @classmethod
    def union(cls, n: int) -> DomainSpec:
        return cls._make(cls.all_single_peaked(n).blocks + cls.all_single_dipped(n).blocks)

    @classmethod
    def parse(cls, text: str, n: int) -> DomainSpec:
        """Parse "sp", "sd", "all", "union", or a comma list like
        "sp,sd,sp" with one kind per agent."""
        text = text.strip().lower()
        if text == "union":
            return cls.union(n)
        if "," in text:
            kinds = tuple(k.strip() for k in text.split(","))
            if len(kinds) != n:
                raise ValueError(f"spec lists {len(kinds)} agents, expected {n}")
            return cls(kinds)
        if text in _KINDS:
            return cls((text,) * n)
        raise ValueError(f"unknown domain spec: {text}")

    @property
    def per_agent(self) -> tuple | None:
        """Each agent's entry, or None for the union, whose blocks differ."""
        return self.blocks[0] if len(self.blocks) == 1 else None

    @property
    def n(self) -> int:
        return len(self.blocks[0])

    def describe(self) -> str:
        if self.per_agent is None:
            return "union"
        kinds = set(self.per_agent)
        if len(kinds) == 1 and isinstance(self.per_agent[0], str):
            return self.per_agent[0]
        if all(isinstance(e, str) for e in self.per_agent):
            return "spec " + ",".join(self.per_agent)
        return "explicit"

    def _agent_entry(self, agent: int) -> _Entry:
        """The agent's row of the entry table; the union has none."""
        if self.per_agent is None:
            raise ValueError("the union has no per-agent sets")
        return _entry(self.per_agent[agent])

    def admissible(self, order: LinearOrder, agent: int) -> tuple[Preference, ...]:
        """The agent's preference set, in canonical order."""
        return self._agent_entry(agent).prefs(order)

    def space_size(self, order: LinearOrder) -> int:
        """Number of profiles the spec denotes."""
        total = 0
        for k, block in enumerate(self.blocks):
            skip = _swept_before(order, k)
            total += math.prod(_entry(e).size(order) for e in block)
            total -= math.prod(sum(_entry(e).holds(p, order) for p in skip) for e in block)
        return total


def _swept_before(order: LinearOrder, k: int) -> frozenset:
    """The one overlap rule: a profile of block ``k`` made of these
    preferences alone was swept by an earlier block, so it is not counted,
    scanned or yielded again. Only the union has a second block, and its SP
    and SD blocks share exactly the two monotone rankings."""
    if k == 0:
        return frozenset()
    return frozenset((monotone_increasing(order), monotone_decreasing(order)))


def sample_profile(spec: DomainSpec, instance: Instance, seed: int) -> Profile:
    """One uniform draw from the spec's profiles, fixed by the seed."""
    if spec.n != instance.n:
        raise ValueError("spec and instance disagree on the agent count")
    (prefs,) = _profiles(spec, instance, (seed,))
    return Profile(instance, prefs)


def _profiles(
    spec: DomainSpec, instance: Instance, seeds: Iterable[int] | None = None
) -> Iterator[tuple[Preference, ...]]:
    """The one profile generator, as preference tuples: the spec's profiles
    block by block in ``itertools.product`` order, or one uniform draw per
    seed, a coin picking the union's block. A profile that ``_swept_before``
    names lies in an earlier block too, so it is skipped or drawn again.
    Explicit lists are checked once to range over all houses, as in ``Profile``."""
    order = instance.order
    explicit = [e for block in spec.blocks for e in block if not isinstance(e, str)]
    if any(p.m != instance.n for e in explicit for p in e):
        raise ValueError("every preference must range over all houses")
    if seeds is None:
        for k, block in enumerate(spec.blocks):
            skip = _swept_before(order, k)
            for prefs in itertools.product(*(_entry(e).prefs(order) for e in block)):
                if not skip or not all(p in skip for p in prefs):
                    yield prefs
        return
    # Resolved once per call, not once per draw.
    skips = [_swept_before(order, k) for k in range(len(spec.blocks))]
    draws = [[_entry(e).sampler(order) for e in block] for block in spec.blocks]
    for seed in seeds:
        rng = random.Random(seed)
        while True:
            k = rng.getrandbits(1) if len(draws) > 1 else 0
            skip = skips[k]
            prefs = tuple(draw(rng) for draw in draws[k])
            if not skip or not all(p in skip for p in prefs):
                break
        yield prefs


def _trial_seeds(seed: int | None, trials: int) -> list[int]:
    master = random.Random(seed)
    return [master.getrandbits(64) for _ in range(trials)]


@_frozen
class Scope:
    """How much of a domain to sweep: everything, or sampled profiles."""

    kind: str
    seed: int | None = None
    trials: int | None = None

    def __post_init__(self):
        if self.kind not in ("exhaustive", "randomized"):
            raise ValueError(f"unknown scope kind: {self.kind}")
        if self.kind == "randomized":
            if self.seed is None or not self.trials:
                raise ValueError("randomized scope needs a seed and a trial count")
            _check_count(self.trials, "trial count")

    @classmethod
    def exhaustive(cls) -> Scope:
        return cls("exhaustive")

    @classmethod
    def randomized(cls, seed: int, trials: int) -> Scope:
        return cls("randomized", seed=seed, trials=trials)

    def size(self, spec: DomainSpec, order: LinearOrder) -> int:
        """How many profiles of the spec the scope covers, counted without
        listing a preference or drawing a seed."""
        return spec.space_size(order) if self.kind == "exhaustive" else self.trials

    def seeds(self) -> list[int] | None:
        """The ``_profiles`` seeds of the sampled profiles, or None for
        every profile."""
        return None if self.kind == "exhaustive" else _trial_seeds(self.seed, self.trials)

    def describe(self) -> str:
        if self.kind == "exhaustive":
            return "exhaustive"
        return f"randomized(seed={self.seed}, trials={self.trials})"
