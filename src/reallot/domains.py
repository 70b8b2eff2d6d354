"""Single-peaked and single-dipped preference families.

Recognition is a direct scan of the defining pairwise condition; failures
come with a three-house witness in the exact shape the counterexample
builders consume. Enumeration is constructive (worst-to-best end picks
over the order's interval), which gives the 2^(m-1) family members
without touching the m! permutation space.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

from .core import SINGLE_DIPPED, SINGLE_PEAKED, Instance, LinearOrder, Preference, Profile

UNRESTRICTED = "all"

NOT_SINGLE_PEAKED = "not-single-peaked"
NOT_SINGLE_DIPPED = "not-single-dipped"


@dataclass(frozen=True)
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
        if self.kind == NOT_SINGLE_PEAKED:
            return (
                pref.peak == self.pivot
                and pref.prefers(self.pivot, self.far)
                and pref.prefers(self.far, self.middle)
            )
        return (
            pref.dip == self.pivot
            and pref.prefers(self.middle, self.far)
            and pref.prefers(self.far, self.pivot)
        )


def is_single_peaked(pref: Preference, order: LinearOrder) -> bool:
    """True iff preference falls off monotonically on both sides of its
    peak along the order."""
    pos = order.position
    rank = pref.rank_of
    p = pos[pref.peak]
    m = pref.m
    for h in range(m):
        ph = pos[h]
        for g in range(m):
            if h == g:
                continue
            pg = pos[g]
            if (p <= ph < pg or pg < ph <= p) and rank[h] > rank[g]:
                return False
    return True


def is_single_dipped(pref: Preference, order: LinearOrder) -> bool:
    """True iff preference climbs monotonically on both sides of its dip
    along the order."""
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


def single_peaked_violation(pref: Preference, order: LinearOrder) -> ViolationWitness | None:
    """The lexicographically least (middle, far) witness, or None if the
    preference is single-peaked."""
    pos = order.position
    rank = pref.rank_of
    peak = pref.peak
    p = pos[peak]
    m = pref.m
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
                return ViolationWitness(NOT_SINGLE_PEAKED, peak, middle, far, side)
    return None


def single_dipped_violation(pref: Preference, order: LinearOrder) -> ViolationWitness | None:
    """The lexicographically least (middle, far) witness, or None if the
    preference is single-dipped."""
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


def _sp_from_mask(order: LinearOrder, mask: int) -> Preference:
    # Worst-to-best: each bit picks which end of the remaining interval
    # of the order supplies the next-worse house.
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
    worst_first.reverse()
    return Preference(tuple(worst_first))


@functools.lru_cache(maxsize=None)
def _sp_family(order: LinearOrder) -> tuple[Preference, ...]:
    if order.n < 1:
        raise ValueError("need at least one house")
    prefs = [_sp_from_mask(order, mask) for mask in range(1 << max(order.n - 1, 0))]
    prefs.sort(key=lambda p: p.ranking)
    return tuple(prefs)


@functools.lru_cache(maxsize=None)
def _sd_family(order: LinearOrder) -> tuple[Preference, ...]:
    prefs = [p.reversed() for p in _sp_family(order)]
    prefs.sort(key=lambda p: p.ranking)
    return tuple(prefs)


def enumerate_single_peaked(order: LinearOrder) -> Iterator[Preference]:
    """All 2^(m-1) single-peaked preferences, lexicographic by ranking.

    >>> [p.ranking for p in enumerate_single_peaked(LinearOrder.identity(3))]
    [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)]
    """
    yield from _sp_family(order)


def enumerate_single_dipped(order: LinearOrder) -> Iterator[Preference]:
    """All 2^(m-1) single-dipped preferences, lexicographic by ranking."""
    yield from _sd_family(order)


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


@dataclass(frozen=True)
class DomainSpec:
    """Which preferences each agent may hold.

    Cartesian specs assign every agent one of ``"sp"``, ``"sd"``, ``"all"``
    or an explicit tuple of preferences, and denote the product of those
    sets. ``union_mode`` instead denotes profiles that are all-SP or
    all-SD; it is the only non-Cartesian shape supported.
    """

    per_agent: tuple | None
    union_mode: bool = False
    size: int | None = None  # number of agents; only stored for union mode

    def __post_init__(self):
        if self.union_mode:
            if self.per_agent is not None:
                raise ValueError("union mode does not take per-agent sets")
            if self.size is None or self.size < 1:
                raise ValueError("union mode needs an explicit agent count")
            return
        if not self.per_agent:
            raise ValueError("a Cartesian spec needs per-agent sets")
        entries = []
        for entry in self.per_agent:
            if isinstance(entry, str):
                if entry not in (SINGLE_PEAKED, SINGLE_DIPPED, UNRESTRICTED):
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
        object.__setattr__(self, "per_agent", tuple(entries))
        object.__setattr__(self, "size", len(entries))

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
        return cls(None, union_mode=True, size=n)

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
        if text in (SINGLE_PEAKED, SINGLE_DIPPED, UNRESTRICTED):
            return cls((text,) * n)
        raise ValueError(f"unknown domain spec: {text}")

    @property
    def n(self) -> int:
        return self.size  # type: ignore[return-value]

    def describe(self) -> str:
        if self.union_mode:
            return "union"
        kinds = set(self.per_agent)
        if len(kinds) == 1 and isinstance(self.per_agent[0], str):
            return self.per_agent[0]
        if all(isinstance(e, str) for e in self.per_agent):
            return "spec " + ",".join(self.per_agent)
        return "explicit"

    def admissible(self, order: LinearOrder, agent: int) -> tuple[Preference, ...]:
        """The agent's preference set, in canonical order."""
        if self.union_mode:
            raise ValueError("union mode has no per-agent sets")
        entry = self.per_agent[agent]
        if entry == SINGLE_PEAKED:
            return _sp_family(order)
        if entry == SINGLE_DIPPED:
            return _sd_family(order)
        if entry == UNRESTRICTED:
            return tuple(enumerate_all_preferences(order.n))
        return entry

    def space_size(self, order: LinearOrder) -> int:
        """Number of profiles the spec denotes."""
        m = order.n
        if self.union_mode:
            half = (1 << max(m - 1, 0)) ** self.n
            overlap = 2**self.n if m >= 3 else half
            return 2 * half - overlap
        total = 1
        for agent in range(self.n):
            entry = self.per_agent[agent]
            if entry in (SINGLE_PEAKED, SINGLE_DIPPED):
                total *= 1 << max(m - 1, 0)
            elif entry == UNRESTRICTED:
                total *= math.factorial(m)
            else:
                total *= len(entry)
        return total

    def contains(self, profile: Profile) -> bool:
        order = profile.order
        if self.union_mode:
            return all(is_single_peaked(p, order) for p in profile.prefs) or all(
                is_single_dipped(p, order) for p in profile.prefs
            )
        if self.n != profile.n:
            return False
        for agent in range(self.n):
            entry = self.per_agent[agent]
            p = profile.prefs[agent]
            if entry == SINGLE_PEAKED:
                if not is_single_peaked(p, order):
                    return False
            elif entry == SINGLE_DIPPED:
                if not is_single_dipped(p, order):
                    return False
            elif entry != UNRESTRICTED and p not in entry:
                return False
        return True


def _sample_pref(entry, order: LinearOrder, rng: random.Random) -> Preference:
    m = order.n
    if entry == SINGLE_PEAKED:
        mask = rng.getrandbits(m - 1) if m > 1 else 0
        return _sp_from_mask(order, mask)
    if entry == SINGLE_DIPPED:
        mask = rng.getrandbits(m - 1) if m > 1 else 0
        return _sp_from_mask(order, mask).reversed()
    if entry == UNRESTRICTED:
        return Preference(tuple(rng.sample(range(m), m)))
    return entry[rng.randrange(len(entry))]


def sample_profile(spec: DomainSpec, instance: Instance, seed: int) -> Profile:
    """One profile drawn uniformly per agent from the admissible sets.

    Deterministic for a fixed seed. In union mode a single coin picks the
    all-SP or all-SD half first, then every agent samples within it.
    """
    rng = random.Random(seed)
    order = instance.order
    n = instance.n
    if spec.union_mode:
        kind = SINGLE_PEAKED if rng.getrandbits(1) == 0 else SINGLE_DIPPED
        prefs = tuple(_sample_pref(kind, order, rng) for _ in range(n))
    else:
        if spec.n != n:
            raise ValueError("spec and instance disagree on the agent count")
        prefs = tuple(
            _sample_pref(spec.per_agent[a], order, rng) for a in range(n)
        )
    return Profile(instance, prefs)
