import concurrent.futures
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reallot import equivalence
from reallot.core import Allocation, BudgetError, Instance, LinearOrder, Preference, Profile
from reallot.domains import (
    DomainSpec,
    enumerate_all_preferences,
    monotone_decreasing,
    monotone_increasing,
    sample_profile,
)
from reallot.efficiency import (
    brute_force_dominator,
    find_blocking_pair,
    find_improving_cycle,
    pareto_dominates,
)
from reallot.equivalence import (
    BLUE,
    RED,
    EquivalenceReport,
    ImprovementWitness,
    Scope,
    build_witness,
    extract_blocking_pair_sd,
    extract_blocking_pair_sp,
    find_gap_witness,
    validate_extraction_claims,
    verify_equivalence,
)
from reallot.rules import check_corollary_sd

from conftest import EnvyGraph, assert_checked_rebuild, profile_from


def test_witness_for_gap_example(gap_example):
    profile, mu, nu = gap_example
    w = build_witness(profile, mu, nu)
    assert w.tilde_a == frozenset({0, 1, 2})
    assert w.labels == (1, 2, 0)  # sorted by order position of the mu-houses
    assert w.colors == (RED, BLUE, BLUE)


@pytest.mark.parametrize(
    "tilde_a, labels, colors, message",
    [
        ({0, 1}, (0, 0), (RED, BLUE), "labels must be distinct agents"),
        ({0, 2}, (0, 1), (RED, BLUE), "labels must enumerate the improving set"),
        ({0, 1}, (0, 1), (RED,), "one color per labeled agent"),
        ({0, 1}, (0, 1), (RED, "green"), "unknown color: green"),
    ],
)
def test_improvement_witness_rejects_malformed_fields(tilde_a, labels, colors, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ImprovementWitness(Allocation((1, 0, 2)), frozenset(tilde_a), labels, colors)


def test_witness_for_two_agent_swap():
    profile = profile_from("h2 h1 h3", "h1 h2 h3", "h3 h2 h1")
    mu = Allocation((0, 1, 2))
    nu = Allocation((1, 0, 2))
    w = build_witness(profile, mu, nu)
    assert w.labels == (0, 1)
    assert w.colors == (RED, BLUE)


def test_witness_requires_domination(gap_example):
    profile, mu, nu = gap_example
    with pytest.raises(ValueError):
        build_witness(profile, nu, mu)  # wrong way around
    with pytest.raises(ValueError):
        build_witness(profile, mu, mu)


def test_witness_invariants_on_random_dominated_pairs():
    # Endpoint coloring: the leftmost label is red, the rightmost blue.
    inst = Instance.default(5)
    spec = DomainSpec.unrestricted(5)
    rng = random.Random(23)
    seen = 0
    for trial in range(400):
        profile = sample_profile(spec, inst, trial)
        mu = Allocation(tuple(rng.sample(range(5), 5)))
        nu = brute_force_dominator(profile, mu)
        if nu is None:
            continue
        seen += 1
        w = build_witness(profile, mu, nu)
        assert w.colors[0] == RED
        assert w.colors[-1] == BLUE
        assert all(mu.assign[a] == nu.assign[a] for a in range(5) if a not in w.tilde_a)
        assert {mu.assign[a] for a in w.tilde_a} == {nu.assign[a] for a in w.tilde_a}
    assert seen > 100


def test_sp_extractor_on_adjacent_swap():
    profile = profile_from("h2 h1 h3", "h1 h2 h3", "h3 h2 h1")
    mu = Allocation((0, 1, 2))
    nu = Allocation((1, 0, 2))
    w = build_witness(profile, mu, nu)
    pair = extract_blocking_pair_sp(profile, mu, w)
    assert pair == (0, 1)
    a, b = pair
    assert profile.prefs[a].prefers(mu.assign[b], mu.assign[a])
    assert profile.prefs[b].prefers(mu.assign[a], mu.assign[b])


def test_sd_extractor_on_extreme_swap():
    profile = profile_from("h3 h2 h1", "h3 h2 h1", "h1 h2 h3")
    mu = Allocation((0, 1, 2))
    nu = Allocation((2, 1, 0))
    w = build_witness(profile, mu, nu)
    pair = extract_blocking_pair_sd(profile, mu, w)
    assert pair == (0, 2)
    assert profile.prefs[0].prefers(2, 0)
    assert profile.prefs[2].prefers(0, 2)


def test_extractors_reject_wrong_domains(gap_example):
    profile, mu, nu = gap_example  # mixed profile: a2 is dipped, a1/a3 peaked
    w = build_witness(profile, mu, nu)
    with pytest.raises(ValueError):
        extract_blocking_pair_sp(profile, mu, w)
    with pytest.raises(ValueError):
        extract_blocking_pair_sd(profile, mu, w)


def test_extractors_reject_tampered_witnesses():
    profile = profile_from("h2 h1 h3", "h1 h2 h3", "h3 h2 h1")
    mu = Allocation((0, 1, 2))
    w = build_witness(profile, mu, Allocation((1, 0, 2)))
    tampered = ImprovementWitness(w.nu, w.tilde_a, w.labels, (BLUE, RED))
    with pytest.raises(ValueError):
        extract_blocking_pair_sp(profile, mu, tampered)
    other_mu = Allocation((2, 1, 0))
    with pytest.raises(ValueError):
        extract_blocking_pair_sp(profile, other_mu, w)


def test_extracted_pairs_are_two_cycles_exhaustively_n3():
    # Every dominated allocation of every all-SP profile yields a pair
    # forming a 2-cycle of the envy graph; same for all-SD.
    inst = Instance.default(3)
    for kind, extractor in (
        ("sp", extract_blocking_pair_sp),
        ("sd", extract_blocking_pair_sd),
    ):
        spec = DomainSpec((kind,) * 3)
        lists = [spec.admissible(inst.order, a) for a in range(3)]
        for combo in itertools.product(*lists):
            profile = Profile(inst, combo)
            for assign in itertools.permutations(range(3)):
                mu = Allocation(assign)
                nu = brute_force_dominator(profile, mu)
                if nu is None:
                    continue
                w = build_witness(profile, mu, nu)
                a, b = extractor(profile, mu, w)
                graph = EnvyGraph.from_assignment(profile, mu)
                assert graph.has_edge(a, b) and graph.has_edge(b, a)


def test_envy_cycles_imply_two_cycles_on_structured_domains():
    # On all-SP and all-SD profiles the envy graph has a cycle exactly
    # when it has a 2-cycle; exhaustive at n = 3 and 4.
    for n in (3, 4):
        inst = Instance.default(n)
        for kind in ("sp", "sd"):
            spec = DomainSpec((kind,) * n)
            lists = [spec.admissible(inst.order, a) for a in range(n)]
            for combo in itertools.product(*lists):
                profile = Profile(inst, combo)
                for assign in itertools.permutations(range(n)):
                    mu = Allocation(assign)
                    has_cycle = find_improving_cycle(profile, mu) is not None
                    has_pair = find_blocking_pair(profile, mu) is not None
                    assert has_cycle == has_pair


def test_validate_extraction_claims_counts():
    inst = Instance.default(4)
    profile = sample_profile(DomainSpec.all_single_peaked(4), inst, 12)
    dominated, validated = validate_extraction_claims(profile, "sp")
    assert dominated == validated > 0
    with pytest.raises(ValueError):
        validate_extraction_claims(profile, "sd")
    with pytest.raises(ValueError):
        validate_extraction_claims(profile, "nope")


def test_validate_extraction_claims_counts_every_dominated_allocation():
    # Every profile at n = 3, sampled ones at n = 4 and 5, under the
    # identity order and a scrambled one: the dominated count is the
    # brute-force oracle's.
    rng = random.Random(31)
    for n, count in ((3, None), (4, 10), (5, 4)):
        for order in (LinearOrder.identity(n), LinearOrder(tuple(rng.sample(range(n), n)))):
            inst = Instance.default(n, order)
            for kind in ("sp", "sd"):
                spec = DomainSpec((kind,) * n)
                if count is None:
                    lists = [spec.admissible(order, a) for a in range(n)]
                    profiles = [Profile(inst, c) for c in itertools.product(*lists)]
                else:
                    profiles = [sample_profile(spec, inst, s) for s in range(count)]
                for profile in profiles:
                    dominated = sum(
                        brute_force_dominator(profile, Allocation(a)) is not None
                        for a in itertools.permutations(range(n))
                    )
                    assert validate_extraction_claims(profile, kind) == (dominated, dominated)


def test_verify_equivalence_clean_domains():
    for spec in (DomainSpec.all_single_peaked(3), DomainSpec.all_single_dipped(3)):
        report = verify_equivalence(spec, 3, Scope.exhaustive())
        assert report.ok
        assert report.profiles_checked == 64
        assert report.allocations_checked == 384
    union = verify_equivalence(DomainSpec.union(3), 3, Scope.exhaustive())
    assert union.ok
    assert union.profiles_checked == 120  # both halves minus the shared profiles


def test_verify_equivalence_finds_the_mixed_gap(gap_example):
    profile, mu, nu = gap_example
    report = verify_equivalence(DomainSpec.parse("sp,sd,sp", 3), 3, Scope.exhaustive())
    assert not report.ok
    match = [
        v for v in report.violations if v.profile == profile and v.mu == mu
    ]
    assert len(match) == 1
    assert match[0].witness.nu == nu
    # Each reported violation is pair-efficient yet dominated.
    for v in report.violations:
        assert find_blocking_pair(v.profile, v.mu) is None
        assert pareto_dominates(v.profile, v.witness.nu, v.mu)


def test_clean_sweeps_never_reach_the_dominator_scan(monkeypatch):
    calls = []

    def spy(prefs, assigns):
        calls.append(len(assigns))
        return scan(prefs, assigns)

    scan = equivalence._first_dominators
    monkeypatch.setattr(equivalence, "_first_dominators", spy)
    # No gaps: nothing of the profile is read, not even its rank rows.
    assert equivalence._certified(object(), object(), []) == []
    for spec, n, scope in (("sp", 4, Scope.exhaustive()), ("sd", 6, Scope.randomized(5, 200))):
        assert verify_equivalence(DomainSpec.parse(spec, n), n, scope).ok
    assert calls == []
    # The spy is wired: a gapped sweep walks once per gapped profile, for
    # all of its gaps together.
    report = verify_equivalence(DomainSpec.parse("sp,sd,sp", 3), 3, Scope.exhaustive())
    assert len(calls) == len({v.profile for v in report.violations}) > 1
    assert sum(calls) == len(report.violations)


def test_sweeps_build_a_profile_only_to_report_it_or_to_run_a_rule(monkeypatch):
    # The generator yields preference tuples; a Profile is built, checked
    # or through ``_make``, where a violation is returned, where the spot
    # check compares allocations, or where a rule runs on it.
    built = []
    real = Profile.__post_init__
    real_make = Profile._make.__func__

    def counting(self):
        built.append(self)
        real(self)

    def counting_make(cls, *fields):
        built.append(fields)
        return real_make(cls, *fields)

    monkeypatch.setattr(Profile, "__post_init__", counting)
    monkeypatch.setattr(Profile, "_make", classmethod(counting_make))
    report = verify_equivalence(DomainSpec.all_single_peaked(5), 5, Scope.randomized(5, 50))
    assert report.ok and len(built) <= 1
    built.clear()
    spec = DomainSpec.all_single_peaked(6)
    assert find_gap_witness(spec, 6, seed=2, trials=40, budget=10**8) is None  # sampled
    assert built == []
    corollary = check_corollary_sd(4, Scope.exhaustive())
    assert corollary.ok and len(built) == corollary.profiles_checked == 8**4


@pytest.mark.parametrize(
    "text, n, scope",
    [
        ("all", 3, Scope.exhaustive()),
        ("sp,sd,sp,sd", 4, Scope.exhaustive()),
        ("all", 5, Scope.randomized(seed=3, trials=40)),
    ],
)
def test_certified_values_are_those_the_checked_constructors_build(text, n, scope):
    # Violations build their profile, allocations and witness through
    # ``_make``; each part must pass its own checks and equal what they give.
    report = verify_equivalence(DomainSpec.parse(text, n), n, scope)
    assert report.violations
    for v in report.violations:
        for value in (v.profile, v.mu, v.witness.nu, v.witness):
            assert_checked_rebuild(value)
        assert brute_force_dominator(v.profile, v.mu) == v.witness.nu
        assert_checked_rebuild(brute_force_dominator(v.profile, v.mu))
    profile, mu, nu = find_gap_witness(DomainSpec.parse(text, n), n, seed=3, trials=40)
    for value in (profile, mu, nu):
        assert_checked_rebuild(value)


def _unreduced_exhaustive_sweep(spec, n):
    """The report of scanning every profile of the domain in turn, with
    the union halves' shared all-monotone profiles taken once."""
    inst = Instance.default(n)
    monotone = {monotone_increasing(inst.order), monotone_decreasing(inst.order)}
    if spec == DomainSpec.union(n):
        phases = [(DomainSpec.all_single_peaked(n), False), (DomainSpec.all_single_dipped(n), True)]
    else:
        phases = [(spec, False)]
    profiles = 0
    violations = []
    for phase_spec, dedup in phases:
        lists = [phase_spec.admissible(inst.order, a) for a in range(n)]
        for prefs in itertools.product(*lists):
            if dedup and all(p in monotone for p in prefs):
                continue
            profiles += 1
            violations += equivalence._certified(inst, prefs, equivalence._gap_allocations(prefs))
    violations.sort(key=lambda v: (tuple(p.ranking for p in v.profile.prefs), v.mu.assign))
    return EquivalenceReport(
        spec, Scope.exhaustive(), profiles, profiles * math.factorial(n), tuple(violations)
    )


@pytest.mark.usefixtures("small_sweeps_pool")
def test_orbit_sweep_matches_the_unreduced_sweep():
    every = list(enumerate_all_preferences(3))
    explicit = DomainSpec((tuple(every[:4]), "sd", tuple(every[:4])))
    specs = [
        (DomainSpec.parse(text, 3), 3)
        for text in ("sp", "sd", "all", "union", "sp,sd,sp", "sd,sp,sd")
    ]
    specs.append((explicit, 3))
    specs += [
        (DomainSpec.parse(text, 4), 4)
        for text in ("sp", "sd", "union", "sp,sd,sp,sd", "sp,sp,sd,sd")
    ]
    for spec, n in specs:
        report = verify_equivalence(spec, n, Scope.exhaustive())
        assert report == _unreduced_exhaustive_sweep(spec, n), (spec.describe(), n)
    union = DomainSpec.union(4)
    assert verify_equivalence(union, 4, Scope.exhaustive(), jobs=1) == verify_equivalence(
        union, 4, Scope.exhaustive(), jobs=2
    )


def test_union_sweep_scans_each_block_with_its_own_lists(monkeypatch):
    # A union report holds counts only, and its blocks are the same size,
    # so a sweep that scanned the SP block twice would print the same
    # report. A spy on the kernel sees every representative: each is
    # all-SP or all-SD, the SD block is reached, and no profile made of
    # the two monotone rankings alone is scanned twice.
    n = 4
    order = Instance.default(n).order
    rows = {}
    for kind in ("sp", "sd"):
        prefs = DomainSpec.parse(kind, n).admissible(order, 0)
        rows[kind] = {p.better for p in prefs}
    scanned = []
    kernel = equivalence._pair_efficient

    def spy(table):
        scanned.append(tuple(map(tuple, table)))
        return kernel(table)

    monkeypatch.setattr(equivalence, "_pair_efficient", spy)
    verify_equivalence(DomainSpec.union(n), n, Scope.exhaustive())
    in_sp = [set(t) <= rows["sp"] for t in scanned]
    in_sd = [set(t) <= rows["sd"] for t in scanned]
    assert all(a or b for a, b in zip(in_sp, in_sd))
    assert any(b and not a for a, b in zip(in_sp, in_sd))
    monotone_only = [t for t, a, b in zip(scanned, in_sp, in_sd) if a and b]
    assert len(monotone_only) == len(set(monotone_only))


def _mirror(pref: Preference) -> Preference:
    """The preference with every house h read as m-1-h."""
    return Preference(tuple(pref.m - 1 - h for h in pref.ranking))


@pytest.mark.usefixtures("small_sweeps_pool")
def test_folded_sweeps_match_the_unreduced_sweep():
    # Every list here is closed under the mirror, so each sweep folds. The
    # explicit spec lists its closed set in two orders, so the two groups
    # pair their entries with their mirror images by different indices.
    every = list(enumerate_all_preferences(4))
    closed = tuple(p for p in every if p.ranking[:2] in ((0, 2), (3, 1), (1, 3), (2, 0)))
    explicit = DomainSpec((closed, "sd", closed, closed[::2] + closed[1::2]))
    specs = [DomainSpec.parse(text, 4) for text in ("sd,sp,sp,sd", "sp,sd,all,sp")]
    for spec in specs + [explicit]:
        lists = [spec.admissible(Instance.default(4).order, a) for a in range(4)]
        assert all(equivalence._mirror_indices(lst, 4) is not None for lst in lists)
        report = verify_equivalence(spec, 4, Scope.exhaustive())
        assert report.violations
        assert report == _unreduced_exhaustive_sweep(spec, 4), spec.describe()
    mixed = DomainSpec.parse("sp,sd,sp,sd", 4)
    assert verify_equivalence(mixed, 4, Scope.exhaustive(), jobs=1) == verify_equivalence(
        mixed, 4, Scope.exhaustive(), jobs=2
    )


@st.composite
def explicit_specs(draw):
    """Explicit-list specs at n = 3; half of them have every list closed
    under the mirror by construction."""
    every = list(enumerate_all_preferences(3))
    closed = draw(st.booleans())
    lists = []
    for _ in range(3):
        picked = draw(st.lists(st.sampled_from(every), min_size=1, max_size=4, unique=True))
        if closed:
            picked += [q for q in map(_mirror, picked) if q not in picked]
        lists.append(tuple(picked))
    return DomainSpec(tuple(lists)), closed


@settings(max_examples=100, deadline=None)
@given(explicit_specs())
def test_mirror_fold_on_explicit_lists(drawn):
    spec, closed = drawn
    if closed:
        assert all(equivalence._mirror_indices(lst, 3) is not None for lst in spec.per_agent)
    report = verify_equivalence(spec, 3, Scope.exhaustive())
    assert report == _unreduced_exhaustive_sweep(spec, 3)
    # The mirrored spec: the same counts, and the violations' mirror images.
    mirrored = DomainSpec(tuple(tuple(map(_mirror, lst)) for lst in spec.per_agent))
    image = verify_equivalence(mirrored, 3, Scope.exhaustive())
    assert image.profiles_checked == report.profiles_checked
    assert image.allocations_checked == report.allocations_checked
    assert len(image.violations) == len(report.violations)
    assert {(v.profile.prefs, v.mu.assign) for v in image.violations} == {
        (tuple(map(_mirror, v.profile.prefs)), tuple(2 - h for h in v.mu.assign))
        for v in report.violations
    }


@st.composite
def relabelled_specs(draw):
    """A one-block spec at n = 3 or 4, each agent a kind or an explicit list
    (``all`` only at n = 3, to keep the sweep small), and a relabelling
    ``sigma`` of its agents."""
    n = draw(st.sampled_from((3, 4)))
    every = list(enumerate_all_preferences(n))
    kinds = ("sp", "sd", "all") if n == 3 else ("sp", "sd")
    entries = []
    for _ in range(n):
        if draw(st.booleans()):
            entries.append(draw(st.sampled_from(kinds)))
        else:
            picked = draw(st.lists(st.sampled_from(every), min_size=1, max_size=4, unique=True))
            entries.append(tuple(picked))
    return DomainSpec(tuple(entries)), draw(st.permutations(range(n)))


@settings(max_examples=60, deadline=None)
@given(relabelled_specs())
def test_relabelling_the_agents_relabels_the_exhaustive_report(drawn):
    # The orbit scan counts one profile per orbit of agent relabellings, so
    # relabelling the spec's agents must move nothing but the labels. The
    # dominator nu is the first in canonical order, which depends on the
    # agent indices, so it is compared by domination only.
    spec, sigma = drawn
    n = spec.n
    report = verify_equivalence(spec, n, Scope.exhaustive())
    image = verify_equivalence(
        DomainSpec(tuple(spec.per_agent[b] for b in sigma)), n, Scope.exhaustive()
    )
    assert image.profiles_checked == report.profiles_checked
    assert image.allocations_checked == report.allocations_checked
    assert len(image.violations) == len(report.violations)
    # Agent a of the image is agent sigma[a] of the original.
    by_key = {(v.profile.prefs, v.mu.assign): v for v in image.violations}
    for v in report.violations:
        key = (tuple(v.profile.prefs[b] for b in sigma), tuple(v.mu.assign[b] for b in sigma))
        moved = by_key.pop(key)
        assert pareto_dominates(moved.profile, moved.witness.nu, moved.mu)
        nu = Allocation(tuple(v.witness.nu.assign[b] for b in sigma))
        assert pareto_dominates(moved.profile, nu, moved.mu)
    assert not by_key


def test_verify_equivalence_rejects_nonpositive_jobs():
    for jobs in (0, -3):
        for scope in (Scope.exhaustive(), Scope.randomized(seed=1, trials=5)):
            with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
                verify_equivalence(DomainSpec.all_single_peaked(3), 3, scope, jobs=jobs)
    # A job count is an int: neither a float, a string nor a bool.
    for jobs in (1.5, "2", True):
        for scope in (Scope.exhaustive(), Scope.randomized(seed=1, trials=5)):
            with pytest.raises(ValueError, match=f"^jobs must be an int, got {re.escape(repr(jobs))}$"):
                verify_equivalence(DomainSpec.all_single_peaked(3), 3, scope, jobs=jobs)


def test_a_spec_for_another_agent_count_is_refused_up_front():
    # Refused before the budget is sized on the wrong instance, and before
    # a profile of the wrong length is built.
    sweeps = [
        (DomainSpec.parse("all", 12), 3, Scope.exhaustive()),
        (DomainSpec.parse("all", 4), 3, Scope.randomized(1, 10**9)),
        (DomainSpec.parse("sp", 4), 3, Scope.exhaustive()),
        (DomainSpec.parse("sd,sp,sd", 3), 4, Scope.randomized(1, 5)),
    ]
    for spec, n, scope in sweeps:
        with pytest.raises(ValueError, match="spec and instance disagree on the agent count"):
            verify_equivalence(spec, n, scope)
    for spec, n in ((DomainSpec.parse("sp", 4), 3), (DomainSpec.parse("sd,sp,sd", 3), 4)):
        with pytest.raises(ValueError, match="spec and instance disagree on the agent count"):
            find_gap_witness(spec, n, seed=0)


def test_verify_equivalence_randomized_subset_of_exhaustive():
    spec = DomainSpec.parse("sp,sd,sp", 3)
    full = verify_equivalence(spec, 3, Scope.exhaustive())
    sampled = verify_equivalence(spec, 3, Scope.randomized(seed=4, trials=60))
    full_keys = {(v.profile, v.mu) for v in full.violations}
    for v in sampled.violations:
        assert (v.profile, v.mu) in full_keys


@pytest.mark.usefixtures("small_sweeps_pool")
def test_verify_equivalence_job_count_is_invisible():
    spec = DomainSpec.parse("sp,sd,sp", 3)
    one = verify_equivalence(spec, 3, Scope.exhaustive(), jobs=1)
    two = verify_equivalence(spec, 3, Scope.exhaustive(), jobs=2)
    assert one == two
    r_one = verify_equivalence(spec, 3, Scope.randomized(seed=9, trials=40), jobs=1)
    r_two = verify_equivalence(spec, 3, Scope.randomized(seed=9, trials=40), jobs=2)
    assert r_one == r_two


@pytest.mark.usefixtures("small_sweeps_pool")
def test_job_count_is_invisible_after_this_process_reads_the_rows():
    # Explicit lists are pickled to the workers with whatever this process
    # cached on them; the report must not depend on it.
    every = list(enumerate_all_preferences(4))
    lists = (tuple(every[:6]), tuple(every[5:12]), tuple(every[::5]), tuple(every[:6]))
    for lst in lists:
        for p in lst:
            assert p.better
    spec = DomainSpec(lists)
    two = verify_equivalence(spec, 4, Scope.exhaustive(), jobs=2)
    assert two.violations
    assert two == verify_equivalence(spec, 4, Scope.exhaustive(), jobs=1)


@pytest.mark.parametrize(
    "text, n, scope",
    [
        ("sp", 3, Scope.exhaustive()),
        ("sd", 4, Scope.exhaustive()),
        ("all", 3, Scope.exhaustive()),
        ("union", 4, Scope.exhaustive()),
        ("sp,sd,sp", 3, Scope.exhaustive()),
        ("sd", 4, Scope.randomized(seed=3, trials=20)),
    ],
)
def test_the_definitional_spot_check_runs_once_per_sweep(monkeypatch, text, n, scope):
    # The first profile of an exhaustive sweep gives every agent the same
    # preference, so it has no blocking pair; the check must look further.
    calls = []

    def spy(profile, nu, mu):
        calls.append((profile, nu, mu))
        return pareto_dominates(profile, nu, mu)

    monkeypatch.setattr(equivalence, "pareto_dominates", spy)
    verify_equivalence(DomainSpec.parse(text, n), n, scope)
    assert len(calls) == 1


def test_a_scope_without_blocking_pairs_gets_no_spot_check(monkeypatch):
    calls = []
    monkeypatch.setattr(equivalence, "pareto_dominates", lambda *args: calls.append(args))
    common = Preference((0, 1, 2))
    report = verify_equivalence(DomainSpec([(common,)] * 3), 3, Scope.exhaustive())
    assert calls == []
    assert report.ok and report.profiles_checked == 1


def test_verify_equivalence_budget():
    with pytest.raises(BudgetError):
        verify_equivalence(
            DomainSpec.all_single_peaked(3), 3, Scope.exhaustive(), budget=100
        )
    with pytest.raises(BudgetError):
        verify_equivalence(
            DomainSpec.all_single_peaked(3),
            3,
            Scope.randomized(seed=0, trials=1000),
            budget=100,
        )


def test_find_gap_witness_is_guarded_to_n8_before_any_profile_is_drawn(monkeypatch):
    # The guard is the sweeps' one (verify_equivalence calls it too), so no
    # kernel call ever sees more than 8 agents.
    drawn = []
    monkeypatch.setattr(equivalence, "_profiles", lambda *args: drawn.append(args) or iter(()))
    spec = DomainSpec.all_single_peaked(9)
    for budget in (None, 1):  # the exhaustive and the sampled path
        with pytest.raises(BudgetError, match="domain sweeps are guarded to n <= 8"):
            find_gap_witness(spec, 9, seed=0, trials=2, budget=budget)
    assert drawn == []


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("REALLOT_BUDGET", "10")
    with pytest.raises(BudgetError):
        verify_equivalence(DomainSpec.all_single_peaked(3), 3, Scope.exhaustive())
    monkeypatch.setenv("REALLOT_BUDGET", "1000000")
    assert verify_equivalence(
        DomainSpec.all_single_peaked(3), 3, Scope.exhaustive()
    ).ok


def test_scope_validation():
    with pytest.raises(ValueError):
        Scope("sometimes")
    with pytest.raises(ValueError):
        Scope.randomized(seed=None, trials=10)  # type: ignore[arg-type]
    assert Scope.exhaustive().describe() == "exhaustive"
    assert Scope.randomized(3, 7).describe() == "randomized(seed=3, trials=7)"


def test_randomized_scope_needs_a_positive_trial_count():
    with pytest.raises(ValueError, match="needs a seed and a trial count"):
        Scope.randomized(seed=1, trials=0)
    for trials in (-1, -5):
        with pytest.raises(ValueError, match=f"trial count must be at least 1, got {trials}"):
            Scope.randomized(seed=1, trials=trials)
    assert Scope.randomized(seed=1, trials=1).trials == 1
    # Refused when built, not when the seeds are drawn; True is no count.
    for trials in (2.5, "3", True):
        with pytest.raises(ValueError, match=f"trial count must be an int, got {trials!r}"):
            Scope.randomized(seed=1, trials=trials)


def test_find_gap_witness_mixed_and_clean(gap_example):
    profile, mu, nu = gap_example
    spec = DomainSpec.parse("sp,sd,sp", 3)
    found = find_gap_witness(spec, 3, seed=0)
    assert found is not None
    fprofile, fmu, fnu = found
    assert find_blocking_pair(fprofile, fmu) is None
    assert pareto_dominates(fprofile, fnu, fmu)
    assert find_gap_witness(DomainSpec.all_single_peaked(3), 3) is None
    assert find_gap_witness(DomainSpec.all_single_peaked(4), 4) is None
    assert find_gap_witness(DomainSpec.union(3), 3) is None


def test_find_gap_witness_sampling_path():
    # Force the sampled branch with a tiny budget; the mixed gap is dense
    # enough that sampling hits it quickly.
    spec = DomainSpec.parse("sp,sd,sp", 3)
    found = find_gap_witness(spec, 3, seed=1, trials=200, budget=50)
    assert found is not None


def test_find_gap_witness_refuses_a_trial_count_below_one():
    spec = DomainSpec.parse("sp,sd,sp", 3)
    for trials in (0, -3):
        for budget in (None, 50):  # the exhaustive and the sampled path
            with pytest.raises(ValueError, match=f"trial count must be at least 1, got {trials}"):
                find_gap_witness(spec, 3, seed=1, trials=trials, budget=budget)
    for trials in (2.5, "3", True):  # the check Scope makes
        with pytest.raises(ValueError, match=f"trial count must be an int, got {trials!r}"):
            find_gap_witness(spec, 3, seed=1, trials=trials)


def test_sweeps_refuse_an_explicit_list_over_other_houses():
    # Sweeps read preference tuples, not profiles, so the house count that
    # Profile checks is checked once per sweep instead.
    four, two = Preference((0, 1, 2, 3)), Preference((0, 1))
    for p in (four, two):
        spec = DomainSpec([[p]] * 3)
        with pytest.raises(ValueError, match="every preference must range over all houses"):
            verify_equivalence(spec, 3, Scope.randomized(1, 5))
        with pytest.raises(ValueError, match="every preference must range over all houses"):
            find_gap_witness(spec, 3, seed=1)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker counts that sweeps ask a pool for, recorded by a stand-in
    for ProcessPoolExecutor that runs the tasks in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.usefixtures("small_sweeps_pool")
def test_worker_count_is_capped_by_cores_and_tasks(monkeypatch, pool_sizes):
    sizes = pool_sizes
    monkeypatch.setattr(equivalence.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert equivalence._run_tasks(abs, [-1, -2, -3], 10_000) == [1, 2, 3]
    assert equivalence._run_tasks(abs, list(range(-9, 0)), 10_000) == list(range(9, 0, -1))
    assert equivalence._run_tasks(abs, [-1, -2], 1) == [1, 2]
    assert sizes == [3, 4]

    spec = DomainSpec.parse("sp,sd,sp", 3)
    scope = Scope.randomized(seed=9, trials=40)
    wide = verify_equivalence(spec, 3, scope, jobs=1_000_000)
    assert sizes[-1] == 4
    assert wide == verify_equivalence(spec, 3, scope, jobs=1)

    monkeypatch.setattr(equivalence.os, "sched_getaffinity", lambda pid: {5})
    assert equivalence._run_tasks(abs, [-1, -2], 8) == [1, 2]
    assert len(sizes) == 3


def test_worker_count_follows_the_affinity_set_not_the_host(monkeypatch, pool_sizes):
    sizes = pool_sizes
    # A host of 64 CPUs of which this process may use two, as under taskset.
    monkeypatch.setattr(equivalence.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(equivalence.os, "sched_getaffinity", lambda pid: {2, 3})
    assert equivalence._run_tasks(abs, list(range(-9, 0)), 32) == list(range(9, 0, -1))
    assert sizes == [2]
    monkeypatch.setattr(equivalence.os, "sched_getaffinity", lambda pid: {7})
    assert equivalence._run_tasks(abs, list(range(-9, 0)), 32) == list(range(9, 0, -1))
    assert sizes == [2]

    # Without an affinity call the host's count caps, and an unknown count
    # runs serially.
    monkeypatch.delattr(equivalence.os, "sched_getaffinity")
    assert equivalence._usable_cpus() == 64
    assert equivalence._run_tasks(abs, list(range(-9, 0)), 3) == list(range(9, 0, -1))
    assert sizes == [2, 3]
    monkeypatch.setattr(equivalence.os, "cpu_count", lambda: None)
    assert equivalence._usable_cpus() == 1
    assert equivalence._run_tasks(abs, [-1, -2], 8) == [1, 2]
    assert sizes == [2, 3]


@pytest.mark.parametrize(
    ("spec", "n", "scope", "work", "gaps"),
    [
        # 40 seeds, or the 10 * 4 orbit picks of the SP group {a1, a3} and
        # the SD group {a2}, times 3!.
        (DomainSpec.parse("sp,sd,sp", 3), 3, Scope.randomized(seed=9, trials=40), 40 * 6, True),
        (DomainSpec.parse("sp,sd,sp", 3), 3, Scope.exhaustive(), 10 * 4 * 6, True),
        # The union at n = 4 is 196,224 unreduced checks, but each block's
        # one group of four agents picks a multiset of 4 of its 8 lists.
        (DomainSpec.union(4), 4, Scope.exhaustive(), 2 * 330 * 24, False),
        # Two groups of two agents, each picking 2 of its 8 lists.
        (DomainSpec.parse("sp,sd,sp,sd", 4), 4, Scope.exhaustive(), 36 * 36 * 24, True),
        (DomainSpec.parse("sd", 6), 6, Scope.randomized(seed=1, trials=60), 60 * 720, False),
    ],
    ids=["randomized", "exhaustive", "union-n4", "exhaustive-n4", "randomized-n6"],
)
def test_a_sweep_starts_its_pool_at_its_estimated_work(monkeypatch, pool_sizes, spec, n, scope, work, gaps):
    # The estimate is the seeds or orbit picks times n!, not the unreduced
    # checks. One unit below it the sweep runs in process; at it, the pool
    # starts. The report is the same on both sides and with jobs=1.
    monkeypatch.setattr(equivalence.os, "sched_getaffinity", lambda pid: {0, 1})
    one = verify_equivalence(spec, n, scope, jobs=1)
    assert bool(one.violations) == gaps
    monkeypatch.setattr(equivalence, "_POOL_MIN_WORK", work + 1)
    below = verify_equivalence(spec, n, scope, jobs=2)
    assert pool_sizes == []
    monkeypatch.setattr(equivalence, "_POOL_MIN_WORK", work)
    at = verify_equivalence(spec, n, scope, jobs=2)
    assert pool_sizes == [2]
    assert below == one and at == one
