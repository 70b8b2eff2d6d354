import hashlib
import itertools
import random

import pytest

from reallot.construct import (
    build_sd_counterexample,
    build_sp_counterexample,
    complete_sp,
)
from reallot.core import Allocation, LinearOrder, Preference
from reallot.domains import (
    enumerate_single_peaked,
    is_single_dipped,
    is_single_peaked,
    single_peaked_violation,
)
from reallot.efficiency import (
    find_blocking_pair,
    find_improving_cycle,
    pareto_dominates,
)

from conftest import pref

IDENTITY3 = LinearOrder.identity(3)


def random_outside(order, rng, member_check):
    m = order.n
    while True:
        candidate = Preference(tuple(rng.sample(range(m), m)))
        if not member_check(candidate, order):
            return candidate


def assert_bundle_sound(bundle, order, kind):
    profile = bundle.profile
    assert find_blocking_pair(profile, bundle.mu) is None
    assert pareto_dominates(profile, bundle.nu, bundle.mu)
    assert find_improving_cycle(profile, bundle.mu) is not None
    check = is_single_peaked if kind == "sp" else is_single_dipped
    a = bundle.roles[0]
    for agent, p in enumerate(profile.prefs):
        if agent != a:
            assert check(p, order)
    # Filler agents hold their own assigned house under both allocations;
    # in the single-peaked construction that house is their peak, so they
    # can never join a blocking pair.
    for agent, house in bundle.beta:
        assert bundle.mu.assign[agent] == house
        assert bundle.nu.assign[agent] == house
        if kind == "sp":
            assert profile.prefs[agent].peak == house


def test_complete_sp_picks_first_canonical_match():
    assert complete_sp(IDENTITY3, [(1, 0), (0, 2)]) == pref("h2 h1 h3")
    assert complete_sp(IDENTITY3, [(2, 1), (1, 0)]) == pref("h3 h2 h1")
    assert complete_sp(IDENTITY3, [], peak_hint=2) == pref("h3 h2 h1")
    with pytest.raises(ValueError):
        # h1 over h2 with peak h3 contradicts single-peakedness.
        complete_sp(IDENTITY3, [(0, 1)], peak_hint=2)
    with pytest.raises(ValueError, match=r"^unknown house index in constraint \(0, 3\)$"):
        complete_sp(IDENTITY3, [(0, 3)])


def _complete_sp_by_walk(order, constraints, peak_hint=None):
    """The first single-peaked preference, in canonical enumeration order,
    meeting the constraints and the peak, found by walking the whole
    family: the oracle for ``complete_sp``."""
    for p in enumerate_single_peaked(order):
        if peak_hint is not None and p.peak != peak_hint:
            continue
        if all(p.prefers(better, worse) for better, worse in constraints):
            return p
    raise ValueError("no single-peaked preference satisfies the constraints")


def test_complete_sp_matches_the_family_walk():
    # Random orders, constraint sets (self- and cyclic constraints
    # included) and peak hints at m <= 10: the same preference, or no
    # preference from both.
    rng = random.Random(29)
    outcomes = {"found": 0, "none": 0}
    for trial in range(1500):
        m = rng.randint(1, 10)
        order = LinearOrder.from_left_to_right(tuple(rng.sample(range(m), m)))
        constraints = [
            (rng.randrange(m), rng.randrange(m)) for _ in range(rng.choice((0, 1, 2, 3, 5)))
        ]
        peak_hint = rng.choice((None, rng.randrange(m)))
        try:
            expected = _complete_sp_by_walk(order, constraints, peak_hint)
        except ValueError:
            expected = None
        if expected is None:
            with pytest.raises(ValueError):
                complete_sp(order, constraints, peak_hint)
        else:
            assert complete_sp(order, constraints, peak_hint) == expected
        outcomes["found" if expected is not None else "none"] += 1
    assert min(outcomes.values()) > 100


def test_complete_sp_scales_past_the_family_walk():
    # 40 houses: the family has 2^39 members, the direct build 820 intervals.
    order = LinearOrder.identity(40)
    built = complete_sp(order, [(30, 10), (10, 39)], peak_hint=20)
    assert built.peak == 20 and is_single_peaked(built, order)
    assert built.prefers(30, 10) and built.prefers(10, 39)
    with pytest.raises(ValueError):
        complete_sp(order, [(0, 1)], peak_hint=39)


def test_sp_witness_chains_always_completable():
    # Every witness of every non-member yields satisfiable helper
    # constraints; exhaustive over all rankings up to six houses.
    import itertools

    for m in range(3, 7):
        order = LinearOrder.identity(m)
        for ranking in itertools.permutations(range(m)):
            p = Preference(ranking)
            w = single_peaked_violation(p, order)
            if w is None:
                continue
            h, hp, ht = w.pivot, w.middle, w.far
            complete_sp(order, [(hp, h), (h, ht)])
            complete_sp(order, [(ht, hp), (hp, h)])


def test_sp_bundle_golden_three_houses():
    bundle = build_sp_counterexample(IDENTITY3, pref("h1 h3 h2"))
    assert bundle.witness_triple == (0, 1, 2)
    assert bundle.roles == (0, 1, 2)
    assert [p.ranking for p in bundle.profile.prefs] == [
        (0, 2, 1),  # the offending preference, kept verbatim
        (1, 0, 2),  # h2 h1 h3
        (2, 1, 0),  # h3 h2 h1
    ]
    assert bundle.mu == Allocation((2, 0, 1))
    assert bundle.nu == Allocation((0, 1, 2))
    assert bundle.case is None
    assert_bundle_sound(bundle, IDENTITY3, "sp")


def test_sp_bundle_other_offender():
    bundle = build_sp_counterexample(IDENTITY3, pref("h3 h1 h2"))
    assert bundle.witness_triple == (2, 1, 0)
    assert [p.ranking for p in bundle.profile.prefs] == [
        (2, 0, 1),
        (1, 2, 0),  # h2 h3 h1
        (0, 1, 2),  # h1 h2 h3
    ]
    assert bundle.mu == Allocation((0, 2, 1))
    assert bundle.nu == Allocation((2, 1, 0))
    assert_bundle_sound(bundle, IDENTITY3, "sp")


def test_sd_bundle_reproduces_the_gap_example(gap_example):
    profile, mu, nu = gap_example
    bundle = build_sd_counterexample(IDENTITY3, pref("h2 h3 h1"))
    assert bundle.case == 1
    assert bundle.witness_triple == (0, 1, 2)
    assert bundle.profile == profile
    assert bundle.mu == mu
    assert bundle.nu == nu
    assert_bundle_sound(bundle, IDENTITY3, "sd")


def test_sd_bundle_case_two():
    bundle = build_sd_counterexample(IDENTITY3, pref("h2 h1 h3"))
    assert bundle.case == 2
    assert bundle.witness_triple == (2, 1, 0)
    assert [p.ranking for p in bundle.profile.prefs] == [
        (1, 0, 2),
        (0, 2, 1),  # h1 h3 h2, dipped at h2
        (2, 1, 0),  # h3 h2 h1
    ]
    assert bundle.mu == Allocation((0, 2, 1))
    assert bundle.nu == Allocation((1, 0, 2))
    assert_bundle_sound(bundle, IDENTITY3, "sd")


def test_sd_cases_mirror_under_order_reversal():
    # The same offender lands in the other case under the reversed order;
    # for this self-symmetric instance the bundle is identical.
    case1 = build_sd_counterexample(IDENTITY3, pref("h2 h3 h1"))
    case2 = build_sd_counterexample(IDENTITY3.reversed(), pref("h2 h3 h1"))
    assert case1.case == 1
    assert case2.case == 2
    assert case1.profile.prefs == case2.profile.prefs
    assert case1.mu == case2.mu
    assert case1.nu == case2.nu


def test_builders_reject_family_members():
    with pytest.raises(ValueError):
        build_sp_counterexample(IDENTITY3, pref("h1 h2 h3"))
    with pytest.raises(ValueError):
        build_sd_counterexample(IDENTITY3, pref("h3 h1 h2"))


def test_random_bundles_pass_machine_checks():
    for n in range(3, 7):
        order = LinearOrder.identity(n)
        rng = random.Random(100 + n)
        for trial in range(60):
            p = random_outside(order, rng, is_single_peaked)
            bundle = build_sp_counterexample(order, p, seed=trial)
            assert_bundle_sound(bundle, order, "sp")
            q = random_outside(order, rng, is_single_dipped)
            bundle = build_sd_counterexample(order, q, seed=trial)
            assert_bundle_sound(bundle, order, "sd")


def test_bundles_under_scrambled_orders():
    rng = random.Random(911)
    for n in (4, 5):
        left_to_right = list(range(n))
        rng.shuffle(left_to_right)
        order = LinearOrder.from_left_to_right(tuple(left_to_right))
        for trial in range(40):
            p = random_outside(order, rng, is_single_peaked)
            assert_bundle_sound(build_sp_counterexample(order, p), order, "sp")
            q = random_outside(order, rng, is_single_dipped)
            assert_bundle_sound(build_sd_counterexample(order, q), order, "sd")


def test_builders_are_deterministic():
    order = LinearOrder.identity(5)
    offender = pref("h1 h5 h2 h3 h4")
    assert not is_single_peaked(offender, order)
    a = build_sp_counterexample(order, offender, seed=42)
    b = build_sp_counterexample(order, offender, seed=42)
    assert a == b
    c = build_sp_counterexample(order, offender)
    assert c.roles == (0, 1, 2)


def test_explicit_roles_and_beta():
    order = LinearOrder.identity(5)
    offender = pref("h1 h5 h2 h3 h4")
    w = single_peaked_violation(offender, order)
    rest_houses = [h for h in range(5) if h not in (w.pivot, w.middle, w.far)]
    roles = (4, 0, 2)
    rest_agents = [a for a in range(5) if a not in roles]
    beta = dict(zip(rest_agents, reversed(rest_houses)))
    bundle = build_sp_counterexample(order, offender, roles=roles, beta=beta)
    assert bundle.roles == roles
    assert dict(bundle.beta) == beta
    assert_bundle_sound(bundle, order, "sp")
    with pytest.raises(ValueError):
        build_sp_counterexample(order, offender, roles=(0, 0, 1))
    with pytest.raises(ValueError):
        build_sp_counterexample(order, offender, roles=roles, beta={a: 0 for a in rest_agents})
    with pytest.raises(ValueError, match=f"^beta is missing agent {rest_agents[0]}$"):
        build_sp_counterexample(order, offender, roles=roles, beta={rest_agents[1]: beta[rest_agents[1]]})


# sha256 of the newline-terminated ``repr`` of every bundle built by
# ``test_every_offender_bundle_is_sound``, in its build order. The value was
# recorded before the SP and SD builders were folded onto one assembly; a
# change to any profile, allocation, role, filler or case changes it.
EVERY_OFFENDER_DIGEST = "073de3aab4768e2dfc91c7f578872ac1f3aee0fe3fec43537fb2f975dab074f6"


def test_every_offender_bundle_is_sound():
    # Every preference outside SP and every one outside SD at m = 3..6
    # (2, 16, 104 and 688 per family and order) under the identity order
    # and two scrambled ones: 4,860 bundles. Roles alternate between the
    # default (0, 1, 2) and a seeded draw.
    digest = hashlib.sha256()
    built = 0
    for m in range(3, 7):
        rng = random.Random(m)
        orders = [LinearOrder.identity(m)]
        orders += [LinearOrder.from_left_to_right(tuple(rng.sample(range(m), m))) for _ in range(2)]
        for order in orders:
            for i, ranking in enumerate(itertools.permutations(range(m))):
                offender = Preference(ranking)
                seed = None if i % 2 else i
                for kind, member, build in (
                    ("sp", is_single_peaked, build_sp_counterexample),
                    ("sd", is_single_dipped, build_sd_counterexample),
                ):
                    if member(offender, order):
                        continue
                    bundle = build(order, offender, seed=seed)
                    assert bundle.profile.prefs[bundle.roles[0]] == offender
                    assert_bundle_sound(bundle, order, kind)
                    digest.update(repr(bundle).encode() + b"\n")
                    built += 1
    assert built == 4860
    assert digest.hexdigest() == EVERY_OFFENDER_DIGEST
