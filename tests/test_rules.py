import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reallot import domains, rules
from reallot.core import Allocation, BudgetError, Instance, LinearOrder, Preference, Profile
from reallot.domains import DomainSpec, _trial_seeds, enumerate_all_preferences, sample_profile
from reallot.efficiency import find_blocking_pair, find_improving_cycle, is_individually_rational
from reallot.equivalence import Scope, verify_equivalence
from reallot.rules import (
    Manipulation,
    TTC,
    Rule,
    StrategyProofnessReport,
    check_corollary_sd,
    serial_dictatorship,
    check_strategy_proofness,
    ttc,
    worst_house_dictatorship,
)

from conftest import assert_checked_rebuild, profile_from


def all_profiles(n):
    inst = Instance.default(n)
    rankings = list(itertools.permutations(range(n)))
    for combo in itertools.product(rankings, repeat=n):
        yield Profile(inst, tuple(Preference(r) for r in combo))


def _ttc_by_rounds(profile):
    """Round-based TTC: every round, each remaining agent points at the
    owner of their best remaining house, and every pointer cycle trades at
    once and leaves. The oracle for the path-following ``ttc``."""
    n = profile.n
    endow = profile.instance.endowment
    owner = [-1] * n
    for agent, house in enumerate(endow):
        owner[house] = agent
    ranks = [p.ranking for p in profile.prefs]
    pointer = [0] * n
    active = [True] * n
    house_left = [True] * n
    assigned = [-1] * n
    remaining = n
    while remaining:
        target = [-1] * n
        best = [-1] * n
        for a in range(n):
            if not active[a]:
                continue
            r = ranks[a]
            i = pointer[a]
            while not house_left[r[i]]:
                i += 1
            pointer[a] = i
            best[a] = r[i]
            target[a] = owner[r[i]]
        color = [0] * n
        cycles = []
        for a in range(n):
            if not active[a] or color[a]:
                continue
            path = []
            x = a
            while color[x] == 0:
                color[x] = 1
                path.append(x)
                x = target[x]
            if color[x] == 1:
                cycles.append(path[path.index(x) :])
            for y in path:
                color[y] = 2
        for cycle in cycles:
            for agent in cycle:
                assigned[agent] = best[agent]
            for agent in cycle:
                active[agent] = False
                house_left[best[agent]] = False
                remaining -= 1
    return Allocation(tuple(assigned))


def _instance(n, endowment):
    return Instance(
        agents=tuple(f"a{i + 1}" for i in range(n)),
        houses=tuple(f"h{i + 1}" for i in range(n)),
        endowment=tuple(endowment),
        order=LinearOrder.identity(n),
    )


def test_ttc_matches_the_round_based_oracle_exhaustively_n3():
    for endowment in itertools.permutations(range(3)):
        inst = _instance(3, endowment)
        for profile in all_profiles(3):
            profile = Profile(inst, profile.prefs)
            assert ttc(profile) == _ttc_by_rounds(profile)


def test_ttc_matches_the_round_based_oracle_on_samples():
    # Instances need at least three agents, so the sizes start at n=3.
    rng = random.Random(2024)
    for trial in range(2000):
        n = 3 + trial % 5
        endowment = list(range(n))
        while endowment == sorted(endowment):
            rng.shuffle(endowment)
        inst = _instance(n, endowment)
        prefs = tuple(Preference(tuple(rng.sample(range(n), n))) for _ in range(n))
        profile = Profile(inst, prefs)
        assert ttc(profile) == _ttc_by_rounds(profile)


def test_ttc_resolves_the_gap_example(gap_example):
    profile, _, nu = gap_example
    assert ttc(profile) == nu


def test_ttc_with_self_loops_keeps_endowments():
    profile = profile_from("h1 h2 h3", "h2 h1 h3", "h3 h1 h2")
    assert ttc(profile) == Allocation((0, 1, 2))


def test_ttc_multi_round():
    # a1 and a3 trade in round one; a4 keeps h4 next; a2 is left with h2.
    profile = profile_from("h3 h2 h1 h4", "h1 h4 h2 h3", "h1 h3 h2 h4", "h3 h4 h1 h2")
    assert ttc(profile) == Allocation((2, 1, 0, 3))


def test_ttc_executes_disjoint_cycles_together():
    profile = profile_from("h2 h1 h3 h4", "h1 h2 h3 h4", "h4 h3 h1 h2", "h3 h4 h1 h2")
    assert ttc(profile) == Allocation((1, 0, 3, 2))


def test_ttc_output_is_efficient_and_rational_exhaustively_n3():
    for profile in all_profiles(3):
        mu = ttc(profile)
        assert is_individually_rational(profile, mu)
        assert find_blocking_pair(profile, mu) is None
        assert find_improving_cycle(profile, mu) is None


def test_individual_rationality_matches_direct_loop(gap_example):
    profile, mu, _ = gap_example
    assert is_individually_rational(profile, mu)
    assert is_individually_rational(profile, Allocation((0, 1, 2)))
    for p in all_profiles(3):
        for assign in itertools.permutations(range(3)):
            mu = Allocation(assign)
            direct = all(
                p.prefs[a].weakly_prefers(mu.assign[a], p.instance.endowment[a])
                for a in range(3)
            )
            assert is_individually_rational(p, mu) == direct


def test_ttc_is_strategy_proof_exhaustively_n3():
    report = check_strategy_proofness(
        Rule("ttc", ttc), DomainSpec.unrestricted(3), 3, Scope.exhaustive()
    )
    assert report.ok
    assert report.profiles_checked == 216
    assert report.cases_checked == 216 * 3 * 5


def test_constant_rule_is_trivially_honest():
    rule = Rule("identity", lambda profile: Allocation(tuple(range(profile.n))))
    report = check_strategy_proofness(
        rule, DomainSpec.unrestricted(3), 3, Scope.exhaustive()
    )
    assert report.ok


def test_serial_dictatorship_is_strategy_proof_even_reversed():
    rule = serial_dictatorship(priority=(2, 1, 0))
    report = check_strategy_proofness(
        rule, DomainSpec.unrestricted(3), 3, Scope.exhaustive()
    )
    assert report.ok


@pytest.mark.parametrize(
    "priority", [(0, 0, 1), (0, 1), (0, 1, 2, 3), (1, 2, 3), (0, 1.0, 2), ("a", 0, 1)]
)
def test_serial_dictatorship_refuses_a_priority_that_is_not_the_agents(priority):
    rule = serial_dictatorship(priority)
    with pytest.raises(ValueError, match="^priority must list every agent once$"):
        rule(profile_from("h1 h2 h3", "h1 h2 h3", "h1 h2 h3"))


def test_rule_outcomes_are_those_the_checked_constructor_builds():
    # ``ttc`` and the pick loop build their allocation through ``_make``.
    n = 4
    instance = Instance.default(n)
    spec = DomainSpec.all_single_dipped(n)
    made = (TTC, serial_dictatorship((2, 0, 3, 1)), worst_house_dictatorship())
    profiles = 0
    for prefs in itertools.product(*(spec.admissible(instance.order, a) for a in range(n))):
        profile = Profile(instance, prefs)
        for rule in made:
            assert_checked_rebuild(rule(profile))
        profiles += 1
    assert profiles == 8**n


def test_misreport_profiles_are_those_the_checked_constructor_builds():
    # The truthful profiles and every lie reach the rule through ``_make``,
    # and so do the profiles a manipulation reports.
    seen = []
    worst = worst_house_dictatorship()

    def recording(profile):
        seen.append(profile)
        return worst(profile)

    spec = DomainSpec.parse("sp,sd,all", 3)
    report = check_strategy_proofness(Rule("worst", recording), spec, 3, Scope.exhaustive())
    assert report.violations and len(seen) == spec.space_size(LinearOrder.identity(3))
    for profile in seen + [v.profile for v in report.violations]:
        assert_checked_rebuild(profile)


def test_corollary_profiles_are_those_the_checked_constructor_builds(monkeypatch):
    seen = []
    monkeypatch.setattr(rules, "ttc", lambda profile: seen.append(profile) or ttc(profile))
    assert check_corollary_sd(3, Scope.exhaustive()).ok and len(seen) == 64
    for profile in seen:
        assert_checked_rebuild(profile)


def test_worst_house_dictatorship_is_manipulable():
    rule = worst_house_dictatorship()
    report = check_strategy_proofness(
        rule, DomainSpec.unrestricted(3), 3, Scope.exhaustive()
    )
    assert not report.ok
    v = report.violations[0]
    # Re-verify the flagged lie by direct comparison.
    truthful = rule(v.profile)
    lied = rule(v.profile.with_pref(v.agent, v.misreport))
    true_pref = v.profile.prefs[v.agent]
    assert true_pref.prefers(lied.assign[v.agent], truthful.assign[v.agent])
    assert v.truthful_house == truthful.assign[v.agent]
    assert v.misreport_house == lied.assign[v.agent]


def test_strategy_proofness_randomized_scope():
    report = check_strategy_proofness(
        Rule("ttc", ttc),
        DomainSpec.all_single_peaked(4),
        4,
        Scope.randomized(seed=3, trials=50),
    )
    assert report.ok
    assert report.profiles_checked == 50


def test_strategy_proofness_guards():
    with pytest.raises(ValueError):
        check_strategy_proofness(
            Rule("ttc", ttc), DomainSpec.union(3), 3, Scope.exhaustive()
        )
    with pytest.raises(BudgetError):
        check_strategy_proofness(
            Rule("ttc", ttc), DomainSpec.unrestricted(3), 3, Scope.exhaustive(), budget=10
        )
    with pytest.raises(ValueError, match="disagree on the agent count"):
        check_strategy_proofness(
            Rule("ttc", ttc), DomainSpec.all_single_dipped(4), 3, Scope.exhaustive()
        )


def _strategy_proofness_by_objects(rule, spec, n, scope):
    """The misreport sweep over Profile objects: each lie is a
    ``with_pref`` copy, and outcomes are cached by the preference tuple.
    The oracle for the integer-coded harness."""
    instance = Instance.default(n)
    cache = {}

    def outcome(profile):
        if profile.prefs not in cache:
            cache[profile.prefs] = rule(profile)
        return cache[profile.prefs]

    if scope.kind == "exhaustive":
        lists = [spec.admissible(instance.order, a) for a in range(n)]
        in_scope = (Profile(instance, prefs) for prefs in itertools.product(*lists))
    else:
        seeds = _trial_seeds(scope.seed, scope.trials)
        in_scope = (sample_profile(spec, instance, seed) for seed in seeds)
    profiles = checked = 0
    violations = []
    for profile in in_scope:
        profiles += 1
        truthful = outcome(profile)
        for agent in range(n):
            true_pref = profile.prefs[agent]
            for lie in spec.admissible(instance.order, agent):
                if lie == true_pref:
                    continue
                checked += 1
                lied = outcome(profile.with_pref(agent, lie))
                if true_pref.prefers(lied.assign[agent], truthful.assign[agent]):
                    violations.append(
                        Manipulation(
                            profile, agent, lie, truthful.assign[agent], lied.assign[agent]
                        )
                    )
    return StrategyProofnessReport(rule.name, profiles, checked, tuple(violations))


def _harness_rules(n):
    return (
        Rule("ttc", ttc),
        serial_dictatorship(tuple(reversed(range(n)))),
        worst_house_dictatorship(),
        Rule("identity", lambda profile: Allocation(tuple(range(profile.n)))),
    )


def _harness_specs():
    every = list(enumerate_all_preferences(3))
    explicit = DomainSpec((tuple(every[:4]), "sd", (every[5], every[0], every[3])))
    for text in ("sp", "sd", "all", "sp,sd,all"):
        yield DomainSpec.parse(text, 3), 3, Scope.exhaustive()
    yield explicit, 3, Scope.exhaustive()
    for text in ("sp", "sd", "all", "sd,all,sp,sd"):
        yield DomainSpec.parse(text, 4), 4, Scope.randomized(seed=41, trials=25)
    for text in ("sp", "sd", "all", "all,sp,sd,sp,sd"):
        yield DomainSpec.parse(text, 5), 5, Scope.randomized(seed=43, trials=12)


def test_strategy_proofness_refuses_before_it_lists(monkeypatch):
    # Sized from the entry table: a refused sweep of `all` at n = 8 must
    # not build the 8! rankings of any agent.
    def unlisted(m):
        raise AssertionError("the refused sweep listed preferences")

    monkeypatch.setattr(domains, "enumerate_all_preferences", unlisted)
    size = math.factorial(8)
    cases = size**8 * 8 * (size - 1)
    with pytest.raises(BudgetError) as caught:
        check_strategy_proofness(
            Rule("ttc", ttc), DomainSpec.unrestricted(8), 8, Scope.exhaustive(), budget=100
        )
    assert str(caught.value) == f"misreport sweep needs {cases} cases, budget is 100"


def test_a_refused_sweep_draws_no_seeds(monkeypatch):
    # Each sweep checks its budget before the scope draws a seed.
    def undrawn(seed, trials):
        raise AssertionError("the refused sweep drew seeds")

    monkeypatch.setattr(domains, "_trial_seeds", undrawn)
    scope = Scope.randomized(seed=1, trials=10**6)
    sweeps = [
        (
            lambda: verify_equivalence(DomainSpec.all_single_peaked(4), 4, scope, budget=1),
            "randomized sweep needs 24000000 checks, budget is 1",
        ),
        (
            lambda: check_strategy_proofness(
                Rule("ttc", ttc), DomainSpec.all_single_dipped(4), 4, scope, budget=1
            ),
            "misreport sweep needs 28000000 cases, budget is 1",
        ),
        (
            lambda: check_corollary_sd(4, scope, budget=1),
            "corollary sweep needs 1000000 profiles, budget is 1",
        ),
    ]
    for sweep, message in sweeps:
        with pytest.raises(BudgetError) as caught:
            sweep()
        assert str(caught.value) == message
    with pytest.raises(AssertionError, match="drew seeds"):
        check_corollary_sd(4, Scope.randomized(seed=1, trials=3))


def test_strategy_proofness_matches_the_object_loop():
    manipulated = 0
    for spec, n, scope in _harness_specs():
        for rule in _harness_rules(n):
            report = check_strategy_proofness(rule, spec, n, scope)
            assert report == _strategy_proofness_by_objects(rule, spec, n, scope)
            manipulated += len(report.violations)
    assert manipulated > 0  # violation order is compared, not just emptiness


@st.composite
def harness_cases(draw):
    n = draw(st.integers(3, 5))
    kinds = st.sampled_from(["sp", "sd", "all"])
    if draw(st.booleans()):
        text = draw(kinds)
    else:
        text = ",".join(draw(st.lists(kinds, min_size=n, max_size=n)))
    if n == 3 and draw(st.booleans()):
        scope = Scope.exhaustive()
    else:
        trials = draw(st.integers(1, 6 if n < 5 else 3))
        scope = Scope.randomized(seed=draw(st.integers(0, 2**32 - 1)), trials=trials)
    return DomainSpec.parse(text, n), n, scope


@settings(max_examples=60, deadline=None)
@given(harness_cases())
def test_strategy_proofness_matches_the_object_loop_on_drawn_specs(case):
    # The worst-house dictatorship can be manipulated by an agent holding
    # its second house, so a skip that reaches past the top house shows.
    spec, n, scope = case
    for rule in _harness_rules(n):
        assert check_strategy_proofness(rule, spec, n, scope) == _strategy_proofness_by_objects(
            rule, spec, n, scope
        )


def test_strategy_proofness_skips_the_lies_of_agents_at_their_top_house():
    calls = []

    def counted(profile):
        calls.append(profile.prefs)
        return ttc(profile)

    spec = DomainSpec.all_single_peaked(5)
    scope = Scope.randomized(seed=29, trials=30)
    report = check_strategy_proofness(Rule("ttc", counted), spec, 5, scope)
    assert report == _strategy_proofness_by_objects(Rule("ttc", ttc), spec, 5, scope)

    # The rule runs on every sampled profile and on every lie of an agent
    # that does not hold its top house, once each, and on nothing else.
    instance = Instance.default(5)
    lists = [spec.admissible(instance.order, a) for a in range(5)]
    needed, skipped = set(), set()
    for seed in scope.seeds():
        profile = sample_profile(spec, instance, seed)
        needed.add(profile.prefs)
        mu = ttc(profile)
        for agent, true_pref in enumerate(profile.prefs):
            lies = {profile.with_pref(agent, p).prefs for p in lists[agent] if p != true_pref}
            (skipped if mu.assign[agent] == true_pref.peak else needed).update(lies)
    skipped -= needed
    assert skipped
    assert len(calls) == len(set(calls))
    assert set(calls) == needed


def test_strategy_proofness_calls_the_rule_once_per_profile():
    calls = []

    def counted(profile):
        calls.append(profile.prefs)
        return ttc(profile)

    spec = DomainSpec.all_single_dipped(3)
    report = check_strategy_proofness(Rule("ttc", counted), spec, 3, Scope.exhaustive())
    assert report.ok
    assert len(calls) == len(set(calls)) == spec.space_size(LinearOrder.identity(3))


def test_strategy_proofness_randomized_budget():
    # 20 trials of 4 agents with 7 lies each need 560 cases.
    spec = DomainSpec.all_single_peaked(4)
    scope = Scope.randomized(seed=5, trials=20)
    with pytest.raises(BudgetError, match="needs 560 cases, budget is 559"):
        check_strategy_proofness(Rule("ttc", ttc), spec, 4, scope, budget=559)
    report = check_strategy_proofness(Rule("ttc", ttc), spec, 4, scope, budget=560)
    assert report.cases_checked == 560


def test_corollary_holds_exhaustively_n3():
    report = check_corollary_sd(3, Scope.exhaustive())
    assert report.ok
    assert report.profiles_checked == 64


def test_corollary_holds_on_samples_n5():
    report = check_corollary_sd(5, Scope.randomized(seed=11, trials=200))
    assert report.ok
    assert report.profiles_checked == 200


def test_corollary_budget():
    with pytest.raises(BudgetError):
        check_corollary_sd(4, Scope.exhaustive(), budget=100)
