"""Ground types for object reallocation instances.

Agents and houses are dense integer indices internally (0..n-1); display
names live on the :class:`Instance` and only matter at the I/O boundary.
Everything is immutable after construction, so values can be shared freely
across concurrent workers.
"""

from __future__ import annotations

import functools
import operator
import os
from typing import Sequence


class ReallotError(Exception):
    """Base class for errors raised by this package."""


class ParseError(ReallotError):
    """Malformed instance or allocation text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class BudgetError(ReallotError):
    """A scan would exceed its budget, or an instance is too large for a
    brute-force guard."""


MIN_AGENTS = 3
BRUTE_FORCE_MAX_AGENTS = 8

# The work budget of sweeps and of ``reallot enum``, which loads no sweep
# module; REALLOT_BUDGET overrides it.
DEFAULT_BUDGET = 100_000_000
BUDGET_ENV_VAR = "REALLOT_BUDGET"


def _resolve_budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    text = os.environ.get(BUDGET_ENV_VAR, str(DEFAULT_BUDGET))
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a non-negative integer, got {text!r}")
    return value


def _spend(need: int, unit: str, what: str, budget: int | None):
    """The one budget check of the sweeps: refuse ``what`` when it needs
    more than the resolved budget."""
    budget = _resolve_budget(budget)
    if need > budget:
        raise BudgetError(f"{what} needs {need} {unit}, budget is {budget}")


def _refuse(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def _frozen(cls):
    """The value-type decorator: what ``dataclass(frozen=True)`` gives a
    class, without loading ``dataclasses`` and what it imports. The fields
    are the class's annotations, a class attribute being a field's default.
    ``__init__`` sets them, passing a field annotated ``tuple[...]`` (the
    annotation text ``from __future__ import annotations`` leaves) through
    ``tuple()``, and ends in ``__post_init__``, which only checks. ``==``
    compares field tuples within one class and ``hash`` is the field
    tuple's, the dataclass rules, so hashes, set orders and reprs stay the
    ones dataclasses gave. A method the class writes itself, as
    ``DomainSpec.__init__``, is kept. Each class gets its own generated
    methods, so no call loops over field names. The private classmethod
    ``_make(*fields)`` is ``__init__`` without that coercion and without
    ``__post_init__``, for callers whose fields are valid tuples by
    construction; ``_make = None`` opts out."""
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    defaults = {f"_d_{f}": cls.__dict__[f] for f in names if f in cls.__dict__}
    params = "".join(f", {f}=_d_{f}" if f"_d_{f}" in defaults else f", {f}" for f in names)
    sets = "".join(f"    _set(self, {f!r}, {f})\n" for f in names)
    value = {f: f"tuple({f})" if annotations[f].startswith("tuple[") else f for f in names}
    coerced = "".join(f"    _set(self, {f!r}, {value[f]})\n" for f in names)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    mine, theirs = ("".join(f"{who}.{f}," for f in names) for who in ("self", "other"))
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in names)
    namespace = {"_set": object.__setattr__, "_new": object.__new__, **defaults}
    exec(
        f"def __init__(self{params}):\n{coerced}{post}"
        f"def _make(cls{''.join(f', {f}' for f in names)}):\n"
        f"    self = _new(cls)\n{sets}    return self\n"
        "def __eq__(self, other):\n"
        f"    if other.__class__ is self.__class__:\n        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({mine}))\n"
        f'def __repr__(self):\n    return f"{cls.__qualname__}({shown})"\n',
        namespace,
    )
    for name in ("__init__", "_make", "__eq__", "__hash__", "__repr__"):
        if name not in cls.__dict__:
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, classmethod(namespace[name]) if name == "_make" else namespace[name])
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


def _inverse(perm: Sequence[int]) -> tuple[int, ...] | None:
    """The inverse of ``perm`` (``inverse[perm[i]] == i``), or None when
    ``perm`` is not a permutation of 0..n-1."""
    n = len(perm)
    valid = range(n)  # ``in`` refuses a string, where ``<=`` would raise
    inverse = [None] * n
    try:
        for i, x in enumerate(perm):
            if x not in valid or inverse[x] is not None:
                return None
            inverse[x] = i
    except TypeError:  # ``1.0 in range(3)`` holds, but 1.0 indexes no list
        return None
    return tuple(inverse)


def _is_permutation(perm: Sequence[int]) -> bool:
    """Whether ``perm`` is a permutation of 0..n-1: ``_inverse``'s test at
    C speed, for the values that need no inverse."""
    try:
        return sorted(map(operator.index, perm)) == list(range(len(perm)))
    except TypeError:  # a float equal to an integer sorts, but indexes nothing
        return False


def _is_index(x, n: int) -> bool:
    """Whether ``x`` is an index in 0..n-1: the rule ``_is_permutation``
    applies to each entry, so a float or a string is not one."""
    try:
        return 0 <= operator.index(x) < n
    except TypeError:
        return False


def _check_count(value, what: str) -> None:
    """Refuse a trial or job count that is not an ``int`` of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{what} must be at least 1, got {value}")


# Domain-spec entries naming the two structured preference families.
SINGLE_PEAKED = "sp"
SINGLE_DIPPED = "sd"


@_frozen
class LinearOrder:
    """A strict total order over houses.

    ``position[h]`` is the rank of house ``h``, rank 0 being the leftmost
    house. ``by_rank`` is the cached inverse (rank -> house).
    """

    position: tuple[int, ...]
    _make = None  # by_rank is derived: every order is built checked

    def __post_init__(self):
        by_rank = _inverse(self.position)
        if by_rank is None:
            raise ValueError("position must be a bijection onto 0..n-1")
        object.__setattr__(self, "by_rank", by_rank)

    @classmethod
    def identity(cls, n: int) -> LinearOrder:
        """The order h0 < h1 < ... < h(n-1)."""
        return cls(tuple(range(n)))

    @classmethod
    def from_left_to_right(cls, houses: Sequence[int]) -> LinearOrder:
        """Build from the sequence of house indices listed left to right."""
        position = _inverse(houses)
        if position is None:
            raise ValueError("position must be a bijection onto 0..n-1")
        return cls(position)

    @property
    def n(self) -> int:
        return len(self.position)

    def reversed(self) -> LinearOrder:
        n = len(self.position)
        return LinearOrder(tuple(n - 1 - p for p in self.position))


@_frozen
class Preference:
    """A strict ranking of all houses, best first.

    ``rank_of`` is the cached inverse of ``ranking``: a smaller rank means
    more preferred. Comparisons are O(1) through ``rank_of``, which is what
    every checker in this package leans on.
    """

    ranking: tuple[int, ...]
    _make = None  # rank_of is derived: every preference is built checked

    def __post_init__(self):
        rank_of = _inverse(self.ranking)
        if not rank_of:  # None, or empty: no houses
            raise ValueError("ranking must be a permutation of 0..m-1")
        object.__setattr__(self, "rank_of", rank_of)

    @property
    def m(self) -> int:
        return len(self.ranking)

    @functools.cached_property
    def better(self) -> tuple[int, ...]:
        """``better[h]``: the mask of houses strictly preferred to house h."""
        row = [0] * len(self.ranking)
        above = 0
        for h in self.ranking:
            row[h] = above
            above |= 1 << h
        return tuple(row)

    @property
    def peak(self) -> int:
        """Most preferred house."""
        return self.ranking[0]

    @property
    def dip(self) -> int:
        """Least preferred house."""
        return self.ranking[-1]

    def _check(self, h: int):
        if not _is_index(h, len(self.ranking)):
            raise ValueError(f"unknown house index: {h}")

    def prefers(self, h: int, g: int) -> bool:
        """True iff h is strictly preferred to g."""
        self._check(h)
        self._check(g)
        return self.rank_of[h] < self.rank_of[g]

    def weakly_prefers(self, h: int, g: int) -> bool:
        """True iff h is preferred to g or h equals g."""
        self._check(h)
        self._check(g)
        return h == g or self.rank_of[h] < self.rank_of[g]

    def reversed(self) -> Preference:
        """The ranking flipped worst-to-best."""
        return Preference(tuple(reversed(self.ranking)))


@_frozen
class Instance:
    """n agents, n houses, an endowment bijection, and the prior order.

    Instances with fewer than three agents are rejected outright; nothing
    in this package is meaningful below that size.
    """

    agents: tuple[str, ...]
    houses: tuple[str, ...]
    endowment: tuple[int, ...]
    order: LinearOrder

    def __post_init__(self):
        n = len(self.agents)
        if n < MIN_AGENTS:
            raise ValueError(f"need at least {MIN_AGENTS} agents, got {n}")
        if len(self.houses) != n:
            raise ValueError("must have exactly as many houses as agents")
        if len(set(self.agents)) != n or len(set(self.houses)) != n:
            raise ValueError("agent and house names must be unique")
        if not _is_permutation(self.endowment):
            raise ValueError("endowment must be a bijection agents -> houses")
        if self.order.n != n:
            raise ValueError("order must cover exactly the houses")

    @classmethod
    def default(cls, n: int, order: LinearOrder | None = None) -> Instance:
        """Agents a1..an, houses h1..hn, identity endowment and order."""
        if n < MIN_AGENTS:
            # Checked here: range(n) of a negative n is empty, and the
            # constructor would report zero agents.
            raise ValueError(f"need at least {MIN_AGENTS} agents, got {n}")
        return cls(
            agents=tuple(f"a{i + 1}" for i in range(n)),
            houses=tuple(f"h{i + 1}" for i in range(n)),
            endowment=tuple(range(n)),
            order=order if order is not None else LinearOrder.identity(n),
        )

    @property
    def n(self) -> int:
        return len(self.agents)

    def house_index(self, name: str) -> int:
        try:
            return self.houses.index(name)
        except ValueError:
            raise ValueError(f"unknown house name: {name}") from None


@_frozen
class Profile:
    """One preference per agent over the instance's houses."""

    instance: Instance
    prefs: tuple[Preference, ...]

    def __post_init__(self):
        n = self.instance.n
        if len(self.prefs) != n:
            raise ValueError("need exactly one preference per agent")
        for p in self.prefs:
            if p.m != n:
                raise ValueError("every preference must range over all houses")

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def order(self) -> LinearOrder:
        return self.instance.order

    def with_pref(self, agent: int, pref: Preference) -> Profile:
        """A copy of this profile with one agent's preference replaced."""
        if not _is_index(agent, self.n):
            raise ValueError(f"unknown agent index: {agent}")
        prefs = list(self.prefs)
        prefs[agent] = pref
        return Profile(self.instance, prefs)


@_frozen
class Allocation:
    """A bijection agents -> houses, stored as ``assign[agent] = house``."""

    assign: tuple[int, ...]

    def __post_init__(self):
        if not _is_permutation(self.assign):
            raise ValueError("assignment must be a bijection agents -> houses")

    @property
    def n(self) -> int:
        return len(self.assign)
