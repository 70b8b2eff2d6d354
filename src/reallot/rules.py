"""Allocation rules and rule-level property harnesses.

The top-trading-cycles rule is the workhorse, run by following pointers to
the owner of each agent's best remaining house until they close a cycle.
The harnesses sweep domains for manipulation opportunities, memoising the
rule's outcome per distinct profile, and for the pair/Pareto behavior of
TTC on all-single-dipped profiles.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

# The sweep harnesses import ``domains`` and ``efficiency`` when they run,
# so that ``reallot ttc`` loads the rule alone.
from .core import Allocation, Instance, Preference, Profile, _frozen, _is_permutation, _spend


@_frozen
class Rule:
    """A named total function from profiles to allocations."""

    name: str
    apply: Callable[[Profile], Allocation]

    def __call__(self, profile: Profile) -> Allocation:
        return self.apply(profile)


def ttc(profile: Profile) -> Allocation:
    """Top trading cycles from the instance's endowment.

    Pointers are followed from the least unassigned agent until they close
    a cycle, which trades and leaves; the outcome does not depend on the
    order in which cycles leave.
    """
    n = profile.n
    owner = [0] * n  # house -> agent endowed with it
    for agent, house in enumerate(profile.instance.endowment):
        owner[house] = agent
    ranks = [p.ranking for p in profile.prefs]
    cursor = [0] * n  # per-agent index of their best house still on the market
    assigned = [-1] * n  # a house leaves the market with its owner
    at = [-1] * n  # agent -> position on the path
    for start in range(n):
        if assigned[start] >= 0:
            continue
        path = [start]
        at[start] = 0
        while path:
            # Pointers below the top still land on the path, since only
            # the houses of a closed cycle leave; recompute the top only.
            a = path[-1]
            r = ranks[a]
            i = cursor[a]
            while assigned[owner[r[i]]] >= 0:
                i += 1
            cursor[a] = i
            b = owner[r[i]]
            if at[b] < 0:
                at[b] = len(path)
                path.append(b)
                continue
            for x in path[at[b] :]:
                assigned[x] = ranks[x][cursor[x]]
            del path[at[b] :]
    # Every agent left with the house it pointed at, each house once.
    return Allocation._make(tuple(assigned))


TTC = Rule("ttc", ttc)


def _serial_picks(rankings: Sequence[Sequence[int]], order: Sequence[int]) -> Allocation:
    """Agents in ``order``, all of them once, each take the first free
    house of their ranking."""
    taken = [False] * len(rankings)
    assigned = [-1] * len(rankings)
    for agent in order:
        for house in rankings[agent]:
            if not taken[house]:
                assigned[agent] = house
                taken[house] = True
                break
    return Allocation._make(tuple(assigned))


def serial_dictatorship(priority: Sequence[int] | None = None) -> Rule:
    """Agents pick their best remaining house in priority order, which must
    list every agent of the profile once."""

    def run(profile: Profile) -> Allocation:
        order = tuple(priority) if priority is not None else range(profile.n)
        if len(order) != profile.n or not _is_permutation(order):
            raise ValueError("priority must list every agent once")
        return _serial_picks([p.ranking for p in profile.prefs], order)

    return Rule("serial-dictatorship", run)


def worst_house_dictatorship() -> Rule:
    """Serial dictatorship in index order on every ranking read worst-to-best.

    Deliberately manipulable (report your ranking reversed and this hands
    you your true favorite); used as a positive control for the
    strategy-proofness harness.
    """

    def run(profile: Profile) -> Allocation:
        return _serial_picks([p.ranking[::-1] for p in profile.prefs], range(profile.n))

    return Rule("worst-house-dictatorship", run)


@_frozen
class Manipulation:
    """One profitable misreport found by the harness."""

    profile: Profile
    agent: int
    misreport: Preference
    truthful_house: int
    misreport_house: int


@_frozen
class StrategyProofnessReport:
    rule_name: str
    profiles_checked: int
    cases_checked: int
    violations: tuple[Manipulation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_strategy_proofness(
    rule: Rule,
    spec: DomainSpec,
    n: int,
    scope: Scope,
    *,
    budget: int | None = None,
) -> StrategyProofnessReport:
    """Sweep (profile, agent, misreport) triples for profitable lies.

    Misreports range over the lying agent's own admissible set, so the
    scan stays inside the declared domain. Empty violations means no
    manipulation was found in scope. The union has no per-agent sets, so
    it raises ValueError, as does a spec for another agent count.

    An agent whose truthful house is its top house has no profitable lie,
    so its cases count as checked without running the rule. Each lie is
    the truthful preference tuple with one entry replaced, and outcomes
    are memoised by code, so the rule runs at most once per distinct
    profile. Profiles are tuples of listed preferences, built unchecked.
    """
    from .domains import _profiles

    if spec.n != n:
        raise ValueError("spec and instance disagree on the agent count")
    instance = Instance.default(n)
    # Sized from the entry table, so a refused sweep lists no preferences.
    entries = [spec._agent_entry(a) for a in range(n)]
    sizes = [e.size(instance.order) for e in entries]
    per_profile = sum(s - 1 for s in sizes)
    _spend(scope.size(spec, instance.order) * per_profile, "cases", "misreport sweep", budget)
    lists = [e.prefs(instance.order) for e in entries]

    # A profile's code is the mixed-radix number sum(idx[a] * strides[a]) of
    # its list indices. The index dicts are keyed by ranking, whose hash runs
    # in C, not by the Preference, whose generated hash is Python code.
    strides = [math.prod(sizes[a + 1 :]) for a in range(n)]
    index = [{p.ranking: j for j, p in enumerate(prefs)} for prefs in lists]

    cache: dict[int, tuple[int, ...]] = {}  # code -> the rule's assignment
    profiles = 0
    violations: list[Manipulation] = []
    for prefs in _profiles(spec, instance, scope.seeds()):
        profiles += 1
        idx = [index[a][p.ranking] for a, p in enumerate(prefs)]
        code = sum(map(operator.mul, idx, strides))
        outcome = cache.get(code)
        if outcome is None:
            cache[code] = outcome = rule(Profile._make(instance, prefs)).assign
        for agent, stride in enumerate(strides):
            mine = outcome[agent]
            rank = prefs[agent].rank_of
            if rank[mine] == 0:
                continue  # no lie beats the top house: its cases are decided
            own = idx[agent]
            head, tail = prefs[:agent], prefs[agent + 1 :]
            for j, pref in enumerate(lists[agent]):
                if j == own:
                    continue
                lie = code + (j - own) * stride
                lied = cache.get(lie)
                if lied is None:
                    cache[lie] = lied = rule(Profile._make(instance, head + (pref,) + tail)).assign
                house = lied[agent]
                if rank[house] < rank[mine]:
                    violations.append(
                        Manipulation(Profile._make(instance, prefs), agent, pref, mine, house)
                    )
    return StrategyProofnessReport(rule.name, profiles, profiles * per_profile, tuple(violations))


@_frozen
class CorollaryReport:
    """TTC outputs checked for pair- and Pareto-efficiency on all-SD
    profiles."""

    profiles_checked: int
    failures: tuple[tuple[Profile, Allocation, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_corollary_sd(
    n: int, scope: Scope, *, budget: int | None = None
) -> CorollaryReport:
    """On every all-single-dipped profile in scope, TTC's output must have
    no blocking pair and no improving cycle (profiles built unchecked)."""
    from .domains import DomainSpec, _profiles
    from .efficiency import find_blocking_pair, find_improving_cycle

    spec = DomainSpec.all_single_dipped(n)
    instance = Instance.default(n)
    _spend(scope.size(spec, instance.order), "profiles", "corollary sweep", budget)
    profiles = 0
    failures: list[tuple[Profile, Allocation, str]] = []
    for prefs in _profiles(spec, instance, scope.seeds()):
        profiles += 1
        profile = Profile._make(instance, prefs)
        mu = ttc(profile)
        if find_blocking_pair(profile, mu) is not None:
            failures.append((profile, mu, "blocking pair"))
        elif find_improving_cycle(profile, mu) is not None:
            failures.append((profile, mu, "improving cycle"))
    return CorollaryReport(profiles, tuple(failures))
