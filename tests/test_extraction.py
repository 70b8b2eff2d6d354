"""The walk-ordered extraction pass, ``efficiency._extraction_pass``,
against the per-permutation pass in conftest and against the backtracking
kernel's efficient count: every SP and SD profile at n = 3 and 4, sampled
ones at n = 5..7 under the identity order and two scrambled orders."""

import itertools
import math
import random

import pytest

import reallot.efficiency as efficiency
from reallot.core import Instance, LinearOrder, Profile
from reallot.domains import DomainSpec, sample_profile
from reallot.efficiency import _extraction_pass, count_efficient
from reallot.equivalence import validate_extraction_claims

from conftest import extraction_pass_by_permutation

KINDS = ("sp", "sd")


def orders(n: int) -> list[LinearOrder]:
    rng = random.Random(7 * n)
    return [LinearOrder.identity(n)] + [
        LinearOrder.from_left_to_right(rng.sample(range(n), n)) for _ in range(2)
    ]


def every_profile(n: int, kind: str):
    inst = Instance.default(n)
    spec = DomainSpec((kind,) * n)
    lists = [spec.admissible(inst.order, a) for a in range(n)]
    for combo in itertools.product(*lists):
        yield Profile(inst, combo)


def sampled_profiles(kind: str, counts=((5, 6), (6, 4), (7, 1))):
    for n, count in counts:
        for order in orders(n):
            inst = Instance.default(n, order)
            spec = DomainSpec.parse(kind, n)
            for seed in range(count):
                yield sample_profile(spec, inst, 100 * n + seed)


@pytest.mark.parametrize("kind", KINDS)
def test_every_profile_at_n3_and_n4_matches_the_per_permutation_pass(kind):
    dominated = 0
    for n in (3, 4):
        for profile in every_profile(n, kind):
            got = _extraction_pass(profile.prefs, profile.order, kind)
            assert got == extraction_pass_by_permutation(profile.prefs, profile.order, kind)
            dominated += got[0]
    assert dominated > 10_000


@pytest.mark.parametrize("kind", KINDS)
def test_sampled_profiles_at_n5_to_n7_match_the_per_permutation_pass(kind):
    for profile in sampled_profiles(kind):
        got = validate_extraction_claims(profile, kind)
        assert got == extraction_pass_by_permutation(profile.prefs, profile.order, kind)
        assert 0 < got[0] < math.factorial(profile.n)


def test_both_passes_reject_the_same_profiles_outside_the_family():
    # On unrestricted profiles a dominated allocation can have no pair to
    # extract; both passes must then raise, with the same error type.
    # Under a scrambled order houses and positions differ.
    raised = 0
    for n in (3, 4, 5):
        for order in orders(n):
            inst = Instance.default(n, order)
            for seed in range(40):
                profile = sample_profile(DomainSpec.unrestricted(n), inst, seed)
                for kind in KINDS:
                    outcomes = []
                    for run in (_extraction_pass, extraction_pass_by_permutation):
                        try:
                            outcomes.append(run(profile.prefs, order, kind))
                        except RuntimeError:
                            outcomes.append(RuntimeError)
                    assert outcomes[0] == outcomes[1]
                    raised += outcomes[0] is RuntimeError
    assert raised > 20


def test_dominated_count_is_n_factorial_minus_the_kernels_efficient_count():
    for kind in KINDS:
        for profile in sampled_profiles(kind, ((5, 4), (6, 3), (7, 1))):
            dominated, validated = validate_extraction_claims(profile, kind)
            assert dominated == validated == math.factorial(profile.n) - count_efficient(profile)[1]


def test_one_check_stands_for_every_completion_at_n6(monkeypatch):
    checks = []
    real = efficiency._trade_colors

    def spy(*args):
        checks.append(1)
        return real(*args)

    monkeypatch.setattr(efficiency, "_trade_colors", spy)
    inst = Instance.default(6)
    for kind in KINDS:
        profile = sample_profile(DomainSpec.parse(kind, 6), inst, 6)
        del checks[:]
        dominated, _ = validate_extraction_claims(profile, kind)
        assert 0 < len(checks) < dominated
