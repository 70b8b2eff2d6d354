"""The library's report bytes, pinned: the ``repr`` of a fixed set of
sweep reports, gap witnesses, witnesses, extracted pairs and extraction
counts, hashed in one stream. ``tests/cli_golden.json`` pins only the
CLI's output; this pins what the library returns to a caller."""

import hashlib
import itertools
import random

from reallot.core import Allocation, Instance, LinearOrder
from reallot.domains import DomainSpec, Scope, sample_profile
from reallot.efficiency import brute_force_dominator
from reallot.equivalence import (
    build_witness,
    extract_blocking_pair_sd,
    extract_blocking_pair_sp,
    find_gap_witness,
    validate_extraction_claims,
    verify_equivalence,
)

BUDGET = 100_000_000

EXHAUSTIVE = (("sp", 3), ("sd", 3), ("union", 3), ("all", 3), ("sp,sd,sp", 3), ("sp,sd,sp,sd", 4))
RANDOMIZED = (("all", 5), ("sp,sd,sd,sp,sd", 5))
GAP_SPECS = ("sp,sd,sp", "sd,sp,sp,sd", "sp,sd,sp,sd,sp")


def outcome(fn, *args):
    """The value ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the message is part of the bytes
        return type(exc), str(exc)


def library_results():
    """Every pinned result, in a fixed order."""
    for text, n in EXHAUSTIVE:
        yield verify_equivalence(DomainSpec.parse(text, n), n, Scope.exhaustive(), budget=BUDGET)
    for text, n in RANDOMIZED:
        scope = Scope.randomized(seed=17, trials=40)
        yield verify_equivalence(DomainSpec.parse(text, n), n, scope, budget=BUDGET)
    for text in GAP_SPECS:
        n = text.count(",") + 1
        yield find_gap_witness(DomainSpec.parse(text, n), n, seed=5, trials=200, budget=10_000)
    rng = random.Random(4)
    orders = [LinearOrder.identity(4)]
    orders += [LinearOrder.from_left_to_right(rng.sample(range(4), 4)) for _ in range(2)]
    for order in orders:
        inst = Instance.default(4, order)
        for kind in ("sp", "sd"):
            for seed in range(8):
                profile = sample_profile(DomainSpec.parse(kind, 4), inst, seed)
                yield profile
                yield validate_extraction_claims(profile, kind)
                for assign in itertools.permutations(range(4)):
                    mu = Allocation(assign)
                    nu = brute_force_dominator(profile, mu)
                    if nu is None:
                        continue
                    witness = build_witness(profile, mu, nu)
                    yield mu, witness
                    yield outcome(extract_blocking_pair_sp, profile, mu, witness)
                    yield outcome(extract_blocking_pair_sd, profile, mu, witness)


# sha256 of the newline-terminated ``repr`` of every result of
# ``library_results``, in its order. The value was recorded before the
# witness layer moved from order positions to houses; a change to any
# report, violation, its order, witness, extracted pair, error message or
# extraction count changes it.
LIBRARY_DIGEST = "712b558bea0ae662d24f3308eb2a4cbf705bc3f8cd23db98d9fd06e1d3576bd1"


def test_the_library_returns_the_pinned_bytes():
    digest = hashlib.sha256()
    count = 0
    for result in library_results():
        digest.update(repr(result).encode() + b"\n")
        count += 1
    assert count > 500
    assert digest.hexdigest() == LIBRARY_DIGEST
