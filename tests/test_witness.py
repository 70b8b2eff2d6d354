"""Differential tests of the one witness rule, ``efficiency._trade_colors``,
reached through ``build_witness``, both extractors and
``validate_extraction_claims``, against the literal oracles in conftest:
results must be equal, and so must the type and message of every error."""

import itertools
import random

from reallot.core import Allocation, Instance, LinearOrder, Profile
from reallot.domains import DomainSpec, sample_profile
from reallot.efficiency import BLUE, RED, brute_force_dominator
from reallot.equivalence import (
    ImprovementWitness,
    build_witness,
    extract_blocking_pair_sd,
    extract_blocking_pair_sp,
    validate_extraction_claims,
)

from conftest import (
    extraction_claims_by_definition,
    pair_by_definition,
    witness_by_definition,
)

EXTRACTORS = {"sp": extract_blocking_pair_sp, "sd": extract_blocking_pair_sd}


def outcome(fn, *args):
    """The value ``fn`` returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the comparison is the test
        return type(exc), str(exc)


def unchecked(assign) -> Allocation:
    """An ``Allocation`` that skips the bijection check, so that a trade can
    fail to close over its improvers' houses."""
    alloc = object.__new__(Allocation)
    object.__setattr__(alloc, "assign", tuple(assign))
    return alloc


def tampered(w: ImprovementWitness) -> list[ImprovementWitness]:
    """Witnesses that differ from ``w`` in one colour, in the label order,
    or by a label dropped."""
    flip = {RED: BLUE, BLUE: RED}
    out = []
    for i in range(w.m):
        colors = w.colors[:i] + (flip[w.colors[i]],) + w.colors[i + 1 :]
        out.append(ImprovementWitness(w.nu, w.tilde_a, w.labels, colors))
    if w.m > 1:
        out.append(ImprovementWitness(w.nu, w.tilde_a, w.labels[::-1], w.colors))
        out.append(ImprovementWitness(w.nu, frozenset(w.labels[1:]), w.labels[1:], w.colors[1:]))
    return out


def check_pair(profile: Profile, mu: Allocation, nu) -> list:
    """Compare ``build_witness`` on (mu, nu) with the oracle and, where it
    builds, both extractors on that witness and on its tampered copies.
    Returns the outcomes compared."""
    built = outcome(build_witness, profile, mu, nu)
    assert built == outcome(witness_by_definition, profile, mu, nu)
    seen = [built]
    if built[0] == "ok":
        for w in [built[1], *tampered(built[1])]:
            for kind, extract in EXTRACTORS.items():
                got = outcome(extract, profile, mu, w)
                assert got == outcome(pair_by_definition, profile, mu, w, kind)
                seen.append(got)
    return seen


def test_every_dominated_allocation_of_every_all_profile_at_n3():
    inst = Instance.default(3)
    perms = [Allocation(p) for p in itertools.permutations(range(3))]
    raw = [unchecked(a) for a in itertools.product(range(3), repeat=3)]
    spec = DomainSpec.unrestricted(3)
    lists = [spec.admissible(inst.order, a) for a in range(3)]
    dominated = 0
    seen = []
    for combo in itertools.product(*lists):
        profile = Profile(inst, combo)
        for mu in perms:
            # Every ordered pair, wrong-way and equal ones included, and
            # every raw assignment, which reaches the closure check.
            for nu in perms + raw:
                seen += check_pair(profile, mu, nu)
            dominated += brute_force_dominator(profile, mu) is not None
        for kind in EXTRACTORS:
            assert outcome(validate_extraction_claims, profile, kind) == outcome(
                extraction_claims_by_definition, profile, kind
            )
    assert dominated > 500
    kinds = {kind for kind, _ in seen}
    messages = {message for kind, message in seen if kind != "ok"}
    assert kinds == {"ok", ValueError}
    assert {
        "nu does not Pareto-dominate mu at this profile",
        "improving agents must trade houses among themselves",
        "witness does not match this profile and allocation",
        "agent 0 is outside the sp family",
    } <= messages
    pairs = [v for kind, v in seen if kind == "ok" and not isinstance(v, ImprovementWitness)]
    assert len(pairs) > 1_000


def scrambled(n: int, seed: int) -> LinearOrder:
    return LinearOrder.from_left_to_right(random.Random(seed).sample(range(n), n))


def test_sampled_profiles_at_n4_and_n5_under_identity_and_scrambled_orders():
    rng = random.Random(20261018)
    claims = 0
    for n in (4, 5):
        for order in (LinearOrder.identity(n), scrambled(n, n), scrambled(n, 10 * n)):
            inst = Instance.default(n, order)
            for domain in ("all", "sp", "sd"):
                spec = DomainSpec.parse(domain, n)
                for seed in range(6 if n == 4 else 3):
                    profile = sample_profile(spec, inst, seed)
                    for _ in range(8):
                        mu = Allocation(tuple(rng.sample(range(n), n)))
                        nu = brute_force_dominator(profile, mu)
                        others = [Allocation(tuple(rng.sample(range(n), n))) for _ in range(3)]
                        for other in ([] if nu is None else [nu]) + others:
                            check_pair(profile, mu, other)
                            check_pair(profile, other, mu)
                    for kind in EXTRACTORS:
                        got = outcome(validate_extraction_claims, profile, kind)
                        assert got == outcome(extraction_claims_by_definition, profile, kind)
                        claims += got[0] == "ok"
    assert claims >= 2 * 2 * 3 * 3


def test_witness_errors_match_the_oracle_on_wrong_way_and_misfit_trades():
    # Size mismatches, a trade that does not close over the improvers'
    # houses, and witnesses checked against the wrong allocation.
    profile = sample_profile(DomainSpec.parse("sp", 3), Instance.default(3), 1)
    mu = Allocation((0, 1, 2))
    for nu in (Allocation((1, 0, 2, 3)), unchecked((1, 1, 2)), unchecked((2, 2, 2)), mu):
        assert outcome(build_witness, profile, mu, nu) == outcome(witness_by_definition, profile, mu, nu)
        assert outcome(build_witness, profile, mu, nu)[0] is ValueError
    for assign in itertools.permutations(range(3)):
        other = Allocation(assign)
        nu = brute_force_dominator(profile, other)
        if nu is None:
            continue
        w = build_witness(profile, other, nu)
        for wrong in map(Allocation, itertools.permutations(range(3))):
            for kind, extract in EXTRACTORS.items():
                assert outcome(extract, profile, wrong, w) == outcome(
                    pair_by_definition, profile, wrong, w, kind
                )
