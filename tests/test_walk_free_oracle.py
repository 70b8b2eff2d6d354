"""Clean verdicts against an oracle that shares nothing with the kernel.

The kernel counts a profile's pair-efficient allocations by pruned
backtracking and lists the Pareto-dominated ones with the cycle walk. The
oracle finds the pair-efficient set by a literal blocking-pair scan and
the Pareto-efficient set as the serial-dictatorship outcomes over all n!
priority orders (Abdulkadiroglu & Sonmez 1998, Lemma 1). Their
difference is what a sweep must report: nothing on SP and SD profiles,
exactly the gaps elsewhere."""

from reallot.core import Instance
from reallot.domains import DomainSpec, Scope, _profiles
from reallot.efficiency import _pair_efficient
from reallot.equivalence import verify_equivalence

from conftest import pair_efficient_by_scan, serial_dictatorship_outcomes

SAMPLED = ((4, 60), (5, 40), (6, 20))


def assert_sweep_matches_the_oracle(text: str, n: int, scope: Scope) -> int:
    """Check every profile the sweep covers; returns how many gaps it has."""
    spec = DomainSpec.parse(text, n)
    report = verify_equivalence(spec, n, scope)
    reported: dict[tuple, set] = {}
    for v in report.violations:
        reported.setdefault(v.profile.prefs, set()).add(v.mu.assign)
    gaps = 0
    for prefs in _profiles(spec, Instance.default(n), scope.seeds()):
        count, found = _pair_efficient([p.better for p in prefs])
        pair = pair_efficient_by_scan(prefs)
        pareto = serial_dictatorship_outcomes(prefs)
        assert pareto <= pair
        assert count == len(pair)
        assert found == sorted(pair - pareto)
        assert pair - pareto == reported.get(prefs, set())
        gaps += len(pair - pareto)
    assert report.ok == (gaps == 0)
    return gaps


def test_every_unrestricted_profile_at_n3():
    assert assert_sweep_matches_the_oracle("all", 3, Scope.exhaustive()) > 0


def test_sampled_profiles_at_n4_to_n6():
    for n, trials in SAMPLED:
        mixed = ",".join(("sp", "sd")[a % 2] for a in range(n))
        for text in ("sp", "sd", "union"):
            assert assert_sweep_matches_the_oracle(text, n, Scope.randomized(n, trials)) == 0
        for text in ("all", mixed):
            assert assert_sweep_matches_the_oracle(text, n, Scope.randomized(n, trials)) > 0
