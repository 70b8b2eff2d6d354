"""Machinery tying pair-efficiency to Pareto-efficiency on structured domains.

The witness labels the agents a dominating allocation strictly improves
b1..bm by the order position of their houses and colors each red (house
moves rightward) or blue (leftward). On an all-SP profile some adjacent
red/blue pair envies each other; on an all-SD profile b1 and bm do.
Witnesses, extractors, gap certificates and extraction claims all run one
integer rule, ``efficiency._trade_colors``, on houses and ``rank_of``
rows; the rule alone reads the order. The verifier sweeps the profiles a
``domains.Scope`` covers, within the ``core._spend`` budget, for
pair-efficient allocations that are not Pareto-efficient and certifies
each with the brute-force oracle's dominator.
"""

from __future__ import annotations

import itertools
import math
import os

from .core import (
    BRUTE_FORCE_MAX_AGENTS,
    SINGLE_DIPPED,
    SINGLE_PEAKED,
    Allocation,
    BudgetError,
    Instance,
    Profile,
    _check_count,
    _frozen,
    _resolve_budget,
    _spend,
)
from .domains import (
    DomainSpec,
    Scope,
    _entry,
    _profiles,
    _swept_before,
    _trial_seeds,
)
from .efficiency import (
    BLUE,
    RED,
    _blocking_labels,
    _blocking_pair_raw,
    _extraction_pass,
    _first_dominators,
    _pair_efficient,
    _rank_rows,
    _trade_colors,
    apply_cycle,
    pareto_dominates,
)

@_frozen
class ImprovementWitness:
    """A dominating allocation plus the labeled, colored trade set.

    ``labels`` lists the strictly improving agents sorted by the order
    position of their mu-houses; ``colors[i]`` is red when labels[i]'s
    house moves rightward from mu to nu, blue when leftward.
    """

    nu: Allocation
    tilde_a: frozenset[int]
    labels: tuple[int, ...]
    colors: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != len(set(self.labels)):
            raise ValueError("labels must be distinct agents")
        if frozenset(self.labels) != self.tilde_a:
            raise ValueError("labels must enumerate the improving set")
        if len(self.colors) != len(self.labels):
            raise ValueError("one color per labeled agent")
        for c in self.colors:
            if c not in (RED, BLUE):
                raise ValueError(f"unknown color: {c}")

    @property
    def m(self) -> int:
        return len(self.labels)


def _witness(profile: Profile, ranks, mu: Allocation, nu: Allocation):
    """(witness, owner, slots) for the trade from mu to nu, checked by
    ``_trade_colors`` on the ``rank_of`` rows ``ranks``: ``owner[h]`` holds
    house h under mu, and ``slots`` are the labels' houses. mu and nu have
    the profile's size: ``_rank_rows`` checked them, or the caller built them."""
    n = profile.n
    owner = [0] * n
    for a, h in enumerate(mu.assign):
        owner[h] = a
    dest = [nu.assign[a] for a in owner]
    slots, colors = _trade_colors(ranks, profile.order, owner, dest, range(n))
    # Distinct houses give distinct labels, and the colours are the rule's.
    labels = tuple([owner[h] for h in slots])
    return ImprovementWitness._make(nu, frozenset(labels), labels, tuple(colors)), owner, slots


def build_witness(profile: Profile, mu: Allocation, nu: Allocation) -> ImprovementWitness:
    """Label and color the agents nu strictly improves over mu.

    Checks, not assumes: nu must dominate mu, the non-improving agents
    must keep their houses, and mu and nu must shuffle the same houses
    within the improving set.
    """
    return _witness(profile, _rank_rows(profile, mu, nu), mu, nu)[0]


def _check_family(profile: Profile, kind: str):
    """Raise ValueError naming the first agent whose preference is outside
    the ``kind`` family under the profile's order."""
    check = _entry(kind).holds
    for a, pref in enumerate(profile.prefs):
        if not check(pref, profile.order):
            raise ValueError(f"agent {a} is outside the {kind} family")


def _extract_pair(profile: Profile, mu: Allocation, witness: ImprovementWitness, kind: str):
    _check_family(profile, kind)
    ranks = _rank_rows(profile, mu, witness.nu)
    built, owner, slots = _witness(profile, ranks, mu, witness.nu)
    if built != witness:
        raise ValueError("witness does not match this profile and allocation")
    return _blocking_labels(kind, ranks, owner, slots, built.colors)


def extract_blocking_pair_sp(
    profile: Profile, mu: Allocation, witness: ImprovementWitness
) -> tuple[int, int]:
    """The least adjacent red/blue label pair; both agents strictly prefer
    each other's mu-house. Only valid on all-SP profiles."""
    return _extract_pair(profile, mu, witness, SINGLE_PEAKED)


def extract_blocking_pair_sd(
    profile: Profile, mu: Allocation, witness: ImprovementWitness
) -> tuple[int, int]:
    """The extreme label pair (b1, bm); both agents strictly prefer each
    other's mu-house. Only valid on all-SD profiles."""
    return _extract_pair(profile, mu, witness, SINGLE_DIPPED)


@_frozen
class Violation:
    """A pair-efficient allocation that another allocation dominates."""

    profile: Profile
    mu: Allocation
    witness: ImprovementWitness


@_frozen
class EquivalenceReport:
    domain: DomainSpec
    scope: Scope
    profiles_checked: int
    allocations_checked: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _gap_allocations(prefs) -> list[tuple[int, ...]]:
    """The pair-efficient yet Pareto-dominated allocations of the profile
    with these preferences, in lexicographic order: the one gap finder."""
    return _pair_efficient([p.better for p in prefs])[1]


def _certified(instance: Instance, prefs, gaps) -> list[Violation]:
    """One violation per gap allocation, its dominator from one walk of the
    brute-force oracle over all the gaps, independent of the cycle checker
    that spotted them; pair-efficiency is re-checked per allocation. The
    parts are listed preferences and permutations, built unchecked."""
    if not gaps:
        return []
    profile = Profile._make(instance, prefs)
    ranks = [p.rank_of for p in prefs]
    found: list[Violation] = []
    for assign, nu in zip(gaps, _first_dominators(prefs, gaps)):
        if nu is None:
            raise RuntimeError("cycle checker and brute-force oracle disagree")
        mu = Allocation._make(assign)
        witness = _witness(profile, ranks, mu, Allocation._make(nu))[0]
        if _blocking_pair_raw(ranks, assign) is not None:
            raise RuntimeError("violation candidate is not pair-efficient")
        found.append(Violation(profile, mu, witness))
    return found


def _definitional_spot_check(instance: Instance, profiles):
    # Pair-inefficiency implies Pareto-inefficiency by definition: swapping
    # the blocking pair's houses dominates. Asserted once per run on the
    # first profile in scope that has any blocking pair at all; preference
    # tuples are read lazily, and a scope without one is read once.
    for prefs in profiles:
        ranks = [p.rank_of for p in prefs]
        for perm in itertools.permutations(range(instance.n)):
            pair = _blocking_pair_raw(ranks, perm)
            if pair is None:
                continue
            mu = Allocation(perm)
            swapped = apply_cycle(mu, pair)
            if not pareto_dominates(Profile(instance, prefs), swapped, mu):
                raise RuntimeError("blocking-pair swap failed to dominate")
            return


def _multinomial(combo: tuple[int, ...]) -> int:
    """How many distinct orderings a sorted index multiset has."""
    count = math.factorial(len(combo))
    for i in set(combo):
        count //= math.factorial(combo.count(i))
    return count


def _mirror_indices(lst, n: int) -> list[int] | None:
    """``sigma[i]``: where lst[i] sits in ``lst`` with every house h read as
    n-1-h (the mirror of ``Instance.default(n)``'s order), or None."""
    where = {p.ranking: i for i, p in enumerate(lst)}
    sigma = [where.get(tuple(n - 1 - h for h in p.ranking)) for p in lst]
    return None if None in sigma else sigma


def _groups(block, order) -> dict[tuple, list[int]]:
    """The block's agents grouped by equal admissible lists: each list
    with its agents, in the order of the groups' least agents."""
    groups: dict[tuple, list[int]] = {}
    for a, entry in enumerate(block):
        groups.setdefault(_entry(entry).prefs(order), []).append(a)
    return groups


def _scan_orbit_task(args) -> tuple[int, list[Violation]]:
    """Scan one profile per orbit of agent relabellings, folded with the
    house mirror h -> n-1-h when every admissible list is closed under it.

    Agents with equal lists form a group; an orbit picks a multiset of list
    indices per group, and this task takes the orbits whose first group's
    least index is ``first_idx``. Neither symmetry moves an allocation in or
    out of pair- or Pareto-efficiency. The kernel reads each listed
    preference's cached row, so a clean orbit is counted by its size
    without a ``Profile``; under the fold only the lesser of an orbit and
    its mirror image is scanned, counted twice unless the mirror fixes it.
    A gapped orbit's members, mirror members included, take the
    representative's gaps relabelled, each certified on its own ``Profile``.
    The task sweeps block ``k`` of the spec, skipping what an earlier block
    swept.
    """
    spec, n, k, first_idx = args
    instance = Instance.default(n)
    skip = _swept_before(instance.order, k)
    groups = _groups(spec.blocks[k], instance.order)
    # The skipped all-monotone profiles are each other's mirror images.
    skipped = [{i for i, p in enumerate(lst) if p in skip} for lst in groups]
    sigmas = [_mirror_indices(lst, n) for lst in groups]
    fold = None not in sigmas
    choices = []
    for lst, agents in groups.items():
        if choices:
            combos = itertools.combinations_with_replacement(range(len(lst)), len(agents))
        else:
            rest = itertools.combinations_with_replacement(
                range(first_idx, len(lst)), len(agents) - 1
            )
            combos = ((first_idx, *c) for c in rest)
        choices.append([(c, _multinomial(c)) for c in combos])

    def members(picks, gaps, flip: bool) -> list[Violation]:
        # Member agent ag[j] holds what representative agent ag[p[j]] holds,
        # read through the mirror when ``flip``; one p per distinct member.
        per_group = []
        for combo, sigma in zip(picks, sigmas):
            held = [sigma[i] for i in combo] if flip else combo
            ways: dict[tuple, tuple] = {}
            for p in itertools.permutations(range(len(held))):
                ways.setdefault(tuple(held[k] for k in p), p)
            per_group.append(sorted(ways.items()))
        house = [n - 1 - h if flip else h for h in range(n)]
        found: list[Violation] = []
        for member in itertools.product(*per_group):
            prefs = [None] * n
            source = [0] * n
            for (held, p), (lst, ag) in zip(member, groups.items()):
                for j, b in enumerate(ag):
                    prefs[b] = lst[held[j]]
                    source[b] = ag[p[j]]
            moved = sorted(tuple(house[gap[s]] for s in source) for gap in gaps)
            found += _certified(instance, tuple(prefs), moved)
        return found

    profiles = 0
    violations: list[Violation] = []
    for orbit in itertools.product(*choices):
        picks = tuple(c for c, _ in orbit)
        if all(s.issuperset(c) for c, s in zip(picks, skipped)):
            continue
        mirrored = picks
        if fold:
            mirrored = tuple(tuple(sorted(s[i] for i in c)) for c, s in zip(picks, sigmas))
            if mirrored < picks:
                continue
        weight = math.prod(w for _, w in orbit)
        profiles += weight if mirrored == picks else 2 * weight
        prefs = [None] * n
        for combo, (lst, ag) in zip(picks, groups.items()):
            for a, i in zip(ag, combo):
                prefs[a] = lst[i]
        gaps = _gap_allocations(prefs)
        if gaps:
            violations += members(picks, gaps, False)
            if mirrored != picks:
                violations += members(picks, gaps, True)
    return profiles, violations


def _scan_random_task(args) -> tuple[int, list[Violation]]:
    """Scan the sampled profile of each seed."""
    spec, n, seeds = args
    instance = Instance.default(n)
    violations: list[Violation] = []
    for prefs in _profiles(spec, instance, seeds):
        violations += _certified(instance, prefs, _gap_allocations(prefs))
    return len(seeds), violations


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, which
    ``taskset`` or a cpuset shrinks below the host's count, where the
    platform reports one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A sweep estimated below this many checks runs in process, whatever its
# ``jobs``, since there the pool's start-up costs more than a second core
# saves: on 2 vCPUs a randomized n = 6 sweep of 60 seeds (43,200) ran
# faster in process, and one of 150 seeds (108,000) faster on the pool.
_POOL_MIN_WORK = 100_000


def _run_tasks(task_fn, tasks, jobs: int):
    # Never more workers than usable cores or tasks: a randomized sweep
    # makes one task per trial when jobs is large.
    workers = min(jobs, _usable_cpus(), len(tasks))
    if workers <= 1:
        return [task_fn(t) for t in tasks]
    # Imported here, so that importing the package loads no multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task_fn, tasks))


def _violation_key(v: Violation):
    return (tuple(p.ranking for p in v.profile.prefs), v.mu.assign)


def _check_sweep_agents(n: int):
    """The one upper guard on the agent count of a domain sweep."""
    if n > BRUTE_FORCE_MAX_AGENTS:
        raise BudgetError(f"domain sweeps are guarded to n <= {BRUTE_FORCE_MAX_AGENTS}")


def verify_equivalence(
    spec: DomainSpec,
    n: int,
    scope: Scope,
    *,
    budget: int | None = None,
    jobs: int = 1,
) -> EquivalenceReport:
    """Sweep a domain checking pair-efficiency implies Pareto-efficiency.

    The reverse implication is definitional and spot-checked once per run,
    on the first profile in scope that has a blocking pair.
    Allocations that already fail pair-efficiency are pruned (the
    implication is vacuous there). An exhaustive sweep scans one profile
    per orbit of agent relabellings, folded with the house mirror
    h -> n-1-h when every admissible list is closed under it, and counts
    each orbit by its size; the budget still counts every profile. Worker
    count never changes the report: partitions are merged in canonical
    order and violations re-sorted. ``jobs`` must be an int of at least
    1; a sweep whose scanned profiles (orbits, or seeds) times n! fall
    below a measured break-even runs in process whatever ``jobs`` says.
    """
    _check_count(jobs, "jobs")
    if spec.n != n:
        raise ValueError("spec and instance disagree on the agent count")
    _check_sweep_agents(n)
    instance = Instance.default(n)
    checks = scope.size(spec, instance.order) * math.factorial(n)
    _spend(checks, "checks", f"{scope.kind} sweep", budget)
    seeds = scope.seeds()
    if seeds is None:
        # A task per index of each block's first list. Before the skip and
        # the mirror fold, a group picks the multisets of its size over its list.
        tasks, scanned = [], 0
        for k, block in enumerate(spec.blocks):
            groups = _groups(block, instance.order)
            tasks += [(spec, n, k, i) for i in range(len(next(iter(groups))))]
            scanned += math.prod(math.comb(len(lst) + len(ag) - 1, len(ag)) for lst, ag in groups.items())
        task_fn = _scan_orbit_task
    else:
        scanned = len(seeds)
        chunk = max(1, math.ceil(len(seeds) / jobs / 4))
        tasks = [(spec, n, seeds[i : i + chunk]) for i in range(0, len(seeds), chunk)]
        task_fn = _scan_random_task

    _definitional_spot_check(instance, _profiles(spec, instance, seeds))

    work = scanned * math.factorial(n)
    results = _run_tasks(task_fn, tasks, jobs if work >= _POOL_MIN_WORK else 1)
    profiles = sum(r[0] for r in results)
    merged: dict[tuple, Violation] = {}
    for _, found in results:
        for v in found:
            merged.setdefault(_violation_key(v), v)
    violations = tuple(merged[key] for key in sorted(merged))
    return EquivalenceReport(spec, scope, profiles, profiles * math.factorial(n), violations)


def find_gap_witness(
    spec: DomainSpec,
    n: int,
    seed: int | None = None,
    *,
    trials: int = 10_000,
    budget: int | None = None,
) -> tuple[Profile, Allocation, Allocation] | None:
    """First (profile, mu, nu) with mu pair-efficient but dominated by nu,
    or None. Sweeps exhaustively when the space fits the budget, else
    samples ``trials`` profiles from the given seed. The gap is certified
    as a sweep's violations are, its ``nu`` from the brute-force oracle."""
    if spec.n != n:
        raise ValueError("spec and instance disagree on the agent count")
    _check_sweep_agents(n)
    _check_count(trials, "trial count")
    instance = Instance.default(n)
    fits = spec.space_size(instance.order) * math.factorial(n) <= _resolve_budget(budget)
    for prefs in _profiles(spec, instance, None if fits else _trial_seeds(seed, trials)):
        gaps = _gap_allocations(prefs)
        if gaps:
            (found,) = _certified(instance, prefs, gaps[:1])
            return found.profile, found.mu, found.witness.nu
    return None


def validate_extraction_claims(profile: Profile, kind: str) -> tuple[int, int]:
    """Run the pair extraction over every dominated allocation of a profile:
    each is traded along an improving cycle and put through the witness
    and extractor rules (``_extraction_pass``); the family is checked once.
    Returns (dominated, validated); anything short of equality raises."""
    if kind not in (SINGLE_PEAKED, SINGLE_DIPPED):
        raise ValueError("kind must be 'sp' or 'sd'")
    _check_family(profile, kind)
    return _extraction_pass(profile.prefs, profile.order, kind)
