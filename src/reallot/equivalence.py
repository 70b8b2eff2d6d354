"""Machinery tying pair-efficiency to Pareto-efficiency on structured domains.

The witness labels the agents a dominating allocation strictly improves
b1..bm by the order position of their houses and colors each red (house
moves rightward) or blue (leftward). On an all-SP profile some adjacent
red/blue pair envies each other; on an all-SD profile b1 and bm do.
Witnesses, extractors, gap certificates and extraction claims all run one
integer rule, ``efficiency._trade_colors``, on houses and ``rank_of``
rows; the rule alone reads the order. The verifier sweeps the profiles a
``domains.Scope`` covers, within the ``core._spend`` budget, for
pair-efficient allocations that are not Pareto-efficient: exhaustively by
contour classes, which scan no profile, or by the kernel on each sampled
profile. It certifies each gap with the brute-force oracle's dominator.
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
    _acyclic,
    _blocking_labels,
    _blocking_pair_raw,
    _extraction_pass,
    _first_dominators,
    _mask_houses,
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
    with these preferences, in lexicographic order: the gap finder of
    sampled profiles and of ``find_gap_witness``."""
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


def _class_gaps(lists, skip) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The gaps of one Cartesian block, found by contour classes: each
    gapped profile, as its agents' indices into ``lists``, with its gap
    allocations in ``itertools.permutations`` order.

    At a fixed mu both verdicts depend only on each agent's above set at
    its own house, ``better[mu[a]]``, which is the successor mask of
    ``mu[a]`` in the envy digraph over houses. A class picks one above set
    per agent and stands for the product of the entries that give them; it
    is gapped when its digraph has a cycle but no 2-cycle (Abraham,
    Cechlarova, Manlove & Mehlhorn 2004). Agents are placed in turn and a
    set that closes a 2-cycle with a placed agent is dropped, so only
    pair-efficient classes reach a leaf, where ``_acyclic`` decides. A
    gapped class's profiles that ``skip`` names are left out.
    """
    n = len(lists)
    houses = _mask_houses(n)
    # above[a][h]: agent a's distinct above sets at house h, each with the
    # indices of the list entries that give it.
    above = []
    for lst in lists:
        per_house = []
        for h in range(n):
            members: dict[int, list[int]] = {}
            for i, p in enumerate(lst):
                members.setdefault(p.better[h], []).append(i)
            per_house.append(tuple(members.items()))
        above.append(per_house)
    skipped = [{i for i, p in enumerate(lst) if p in skip} for lst in lists]
    gaps: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    succ = [0] * n
    picked: list[list[int]] = [[]] * n
    last = n - 1

    def place(a: int, taken: int):
        h = mu[a]
        bit = 1 << h
        for row, members in above[a][h]:
            for g in houses[row & taken]:
                if succ[g] & bit:
                    break  # the holder of g envies agent a back
            else:
                succ[h] = row
                picked[a] = members
                if a < last:
                    place(a + 1, taken | bit)
                elif not _acyclic(succ, houses):
                    for profile in itertools.product(*picked):
                        if not skip or not all(i in s for i, s in zip(profile, skipped)):
                            gaps.setdefault(profile, []).append(mu)

    for mu in itertools.permutations(range(n)):
        place(0, 0)
    return gaps


def _scan_random_task(args) -> list[Violation]:
    """Scan the sampled profile of each seed."""
    spec, n, seeds = args
    instance = Instance.default(n)
    violations: list[Violation] = []
    for prefs in _profiles(spec, instance, seeds):
        violations += _certified(instance, prefs, _gap_allocations(prefs))
    return violations


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, which
    ``taskset`` or a cpuset shrinks below the host's count, where the
    platform reports one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A randomized sweep estimated below this many checks runs in process,
# whatever its ``jobs``, since there the pool's start-up costs more than a
# second core saves: on 2 vCPUs a randomized n = 6 sweep of 60 seeds
# (43,200) ran faster in process, and one of 150 seeds (108,000) faster on
# the pool.
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
    An exhaustive sweep scans no profile: it finds every gap by contour
    classes (``_class_gaps``), one per allocation and choice of above sets,
    and certifies each gapped profile once; the budget still counts every
    profile times n!. It runs in process whatever ``jobs`` says, since
    what is left of it is certification. A randomized sweep runs the
    kernel on each sampled profile, which prunes the allocations that
    already fail pair-efficiency (the implication is vacuous there); its
    seeds go to ``jobs`` workers when seeds times n! reach a measured
    break-even. ``jobs`` must be an int of at least 1, and never changes
    the report: partitions are merged and violations sorted.
    """
    _check_count(jobs, "jobs")
    if spec.n != n:
        raise ValueError("spec and instance disagree on the agent count")
    _check_sweep_agents(n)
    instance = Instance.default(n)
    profiles = scope.size(spec, instance.order)
    checks = profiles * math.factorial(n)
    _spend(checks, "checks", f"{scope.kind} sweep", budget)
    seeds = scope.seeds()
    _definitional_spot_check(instance, _profiles(spec, instance, seeds))
    if seeds is None:
        # Each gapped profile is certified once, for all of its gaps, in
        # ``_violation_key`` order.
        gapped = []
        for k, block in enumerate(spec.blocks):
            lists = [_entry(e).prefs(instance.order) for e in block]
            for picks, mus in _class_gaps(lists, _swept_before(instance.order, k)).items():
                gapped.append((tuple(lst[i] for lst, i in zip(lists, picks)), mus))
        gapped.sort(key=lambda found: [p.ranking for p in found[0]])
        violations = [v for prefs, mus in gapped for v in _certified(instance, prefs, mus)]
    else:
        chunk = max(1, math.ceil(len(seeds) / jobs / 4))
        tasks = [(spec, n, seeds[i : i + chunk]) for i in range(0, len(seeds), chunk)]
        merged: dict[tuple, Violation] = {}
        for found in _run_tasks(_scan_random_task, tasks, jobs if checks >= _POOL_MIN_WORK else 1):
            for v in found:
                merged.setdefault(_violation_key(v), v)
        violations = [merged[key] for key in sorted(merged)]
    return EquivalenceReport(spec, scope, profiles, checks, tuple(violations))


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
