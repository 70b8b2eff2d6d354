"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the logged ratio from the final sweep.
"""

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor

from reallot.cli import main, serialize_instance
from reallot.core import Allocation, Instance, LinearOrder, Preference, Profile
from reallot.domains import (
    DomainSpec,
    _trial_seeds,
    enumerate_all_preferences,
    enumerate_single_dipped,
    enumerate_single_peaked,
    is_single_dipped,
    is_single_peaked,
    monotone_decreasing,
    monotone_increasing,
    sample_profile,
)
from reallot.construct import build_sd_counterexample, build_sp_counterexample
from reallot.efficiency import (
    apply_cycle,
    brute_force_dominator,
    find_blocking_pair,
    find_improving_cycle,
    is_individually_rational,
    pareto_dominates,
)
from reallot.equivalence import (
    Scope,
    build_witness,
    extract_blocking_pair_sd,
    extract_blocking_pair_sp,
    validate_extraction_claims,
    verify_equivalence,
)
from reallot.rules import (
    Rule,
    check_corollary_sd,
    check_strategy_proofness,
    ttc,
)

from conftest import pref

SP_SWEEP_SEED = 2025
SD_SWEEP_SEED = 2026
SWEEP_TRIALS = 10_000


def _passed(name: str):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_worked_example_golden(gap_example):
    profile, mu, nu = gap_example
    # Warm the interpreter, then time the four checks themselves.
    find_blocking_pair(profile, mu)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        blocking = find_blocking_pair(profile, mu)
        cycle = find_improving_cycle(profile, mu)
        improved = apply_cycle(mu, cycle)
        rational = is_individually_rational(profile, mu)
        best = min(best, time.perf_counter() - start)
    assert blocking is None
    assert cycle is not None
    assert improved == nu
    assert rational
    assert best < 1e-3
    _passed("criterion 1 (worked-example golden checks)")


def test_criterion_2_equivalence_exhaustive_small():
    start = time.perf_counter()
    for n, per_profile in ((3, 6), (4, 24)):
        for spec in (DomainSpec.all_single_peaked(n), DomainSpec.all_single_dipped(n)):
            report = verify_equivalence(spec, n, Scope.exhaustive())
            assert report.violations == ()
            assert report.profiles_checked == (2 ** (n - 1)) ** n
            assert report.allocations_checked == report.profiles_checked * per_profile
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(f"criterion 2 (exhaustive n=3,4 sweeps, {elapsed:.2f}s)")


def test_exhaustive_certification_at_n5():
    # One size beyond the default budget: every all-SP and every all-SD
    # profile at n = 5, scanned one profile per agent-relabelling orbit.
    start = time.perf_counter()
    for spec in (DomainSpec.all_single_peaked(5), DomainSpec.all_single_dipped(5)):
        report = verify_equivalence(spec, 5, Scope.exhaustive(), budget=125_829_120)
        assert report.violations == ()
        assert report.profiles_checked == 1_048_576
        assert report.allocations_checked == 125_829_120
    elapsed = time.perf_counter() - start
    _passed(f"exhaustive n=5 certification ({elapsed:.1f}s)")


def test_criterion_3_equivalence_randomized_n6():
    start = time.perf_counter()
    for spec, seed in (
        (DomainSpec.all_single_peaked(6), SP_SWEEP_SEED),
        (DomainSpec.all_single_dipped(6), SD_SWEEP_SEED),
    ):
        report = verify_equivalence(
            spec, 6, Scope.randomized(seed=seed, trials=SWEEP_TRIALS), jobs=2
        )
        assert report.violations == ()
        assert report.profiles_checked == SWEEP_TRIALS
        assert report.allocations_checked == SWEEP_TRIALS * 720
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _passed(f"criterion 3 (randomized n=6 sweeps, {elapsed:.1f}s)")


def _oracle_pair_scan(profile, mu):
    for a in range(profile.n):
        for b in range(profile.n):
            if a == b:
                continue
            if profile.prefs[a].prefers(mu.assign[b], mu.assign[a]) and profile.prefs[
                b
            ].prefers(mu.assign[a], mu.assign[b]):
                return a, b
    return None


def test_criterion_4_oracle_agreement():
    inst = Instance.default(3)
    rankings = [Preference(r) for r in itertools.permutations(range(3))]
    checked = 0
    for combo in itertools.product(rankings, repeat=3):
        profile = Profile(inst, combo)
        for assign in itertools.permutations(range(3)):
            mu = Allocation(assign)
            checked += 1
            assert (find_improving_cycle(profile, mu) is None) == (
                brute_force_dominator(profile, mu) is None
            )
            assert (find_blocking_pair(profile, mu) is None) == (
                _oracle_pair_scan(profile, mu) is None
            )
    assert checked == 216 * 6

    inst5 = Instance.default(5)
    spec = DomainSpec.unrestricted(5)
    import random

    rng = random.Random(4)
    for trial in range(10_000):
        profile = sample_profile(spec, inst5, trial)
        mu = Allocation(tuple(rng.sample(range(5), 5)))
        assert (find_improving_cycle(profile, mu) is None) == (
            brute_force_dominator(profile, mu) is None
        )
        assert (find_blocking_pair(profile, mu) is None) == (
            _oracle_pair_scan(profile, mu) is None
        )
    _passed("criterion 4 (checker/oracle agreement, exact)")


def _extraction_sweep_worker(args):
    kind, seed = args
    instance = Instance.default(6)
    spec = (
        DomainSpec.all_single_peaked(6)
        if kind == "sp"
        else DomainSpec.all_single_dipped(6)
    )
    profile = sample_profile(spec, instance, seed)
    return validate_extraction_claims(profile, kind)


def test_criterion_5_extractors_on_every_dominated_pair():
    # Exhaustive scales first, with the brute-force dominator providing
    # the witness partner.
    dominated = validated = 0
    for n in (3, 4):
        inst = Instance.default(n)
        for kind, extractor in (
            ("sp", extract_blocking_pair_sp),
            ("sd", extract_blocking_pair_sd),
        ):
            spec = DomainSpec((kind,) * n)
            lists = [spec.admissible(inst.order, a) for a in range(n)]
            for combo in itertools.product(*lists):
                profile = Profile(inst, combo)
                for assign in itertools.permutations(range(n)):
                    mu = Allocation(assign)
                    nu = brute_force_dominator(profile, mu)
                    if nu is None:
                        continue
                    dominated += 1
                    witness = build_witness(profile, mu, nu)
                    a, b = extractor(profile, mu, witness)
                    assert profile.prefs[a].prefers(mu.assign[b], mu.assign[a])
                    assert profile.prefs[b].prefers(mu.assign[a], mu.assign[b])
                    validated += 1
    assert dominated == validated > 0
    small_scale = dominated

    # The same sampled profiles as the randomized sweeps, every dominated
    # allocation of each, partner built by trading along a found cycle.
    tasks = [("sp", s) for s in _trial_seeds(SP_SWEEP_SEED, SWEEP_TRIALS)] + [
        ("sd", s) for s in _trial_seeds(SD_SWEEP_SEED, SWEEP_TRIALS)
    ]
    with ProcessPoolExecutor(max_workers=2) as pool:
        for dom, val in pool.map(_extraction_sweep_worker, tasks, chunksize=250):
            assert dom == val
            dominated += dom
            validated += val
    assert dominated == validated
    _passed(
        f"criterion 5 (extractor claims on {validated} dominated pairs,"
        f" {small_scale} exhaustive)"
    )


def test_criterion_6_synthesizer_bundles(gap_example):
    import random

    profile, mu, nu = gap_example
    start = time.perf_counter()
    built = 0
    for n in (3, 4, 5, 6):
        order = LinearOrder.identity(n)
        rng = random.Random(6000 + n)
        non_sp = non_sd = 0
        while non_sp < 1000 or non_sd < 1000:
            candidate = Preference(tuple(rng.sample(range(n), n)))
            if non_sp < 1000 and not is_single_peaked(candidate, order):
                bundle = build_sp_counterexample(order, candidate, seed=non_sp)
                assert find_blocking_pair(bundle.profile, bundle.mu) is None
                assert pareto_dominates(bundle.profile, bundle.nu, bundle.mu)
                non_sp += 1
                built += 1
            if non_sd < 1000 and not is_single_dipped(candidate, order):
                bundle = build_sd_counterexample(order, candidate, seed=non_sd)
                assert find_blocking_pair(bundle.profile, bundle.mu) is None
                assert pareto_dominates(bundle.profile, bundle.nu, bundle.mu)
                non_sd += 1
                built += 1
    elapsed = time.perf_counter() - start
    assert built == 8000
    assert elapsed < 60.0

    # Byte-exact reproduction of the worked example in canonical form.
    bundle = build_sd_counterexample(LinearOrder.identity(3), pref("h2 h3 h1"))
    assert bundle.profile == profile and bundle.mu == mu and bundle.nu == nu
    expected = (
        "order: h1 h2 h3\n"
        "endow: a1:h1 a2:h2 a3:h3\n"
        "agent a1: h2 h3 h1\n"
        "agent a2: h3 h1 h2\n"
        "agent a3: h1 h2 h3\n"
    )
    assert serialize_instance(bundle.profile) == expected
    _passed(f"criterion 6 (8000 machine-checked bundles, {elapsed:.1f}s)")


def test_criterion_7_family_combinatorics():
    for m in range(1, 11):
        order = LinearOrder.identity(m)
        sp = set(enumerate_single_peaked(order))
        sd = set(enumerate_single_dipped(order))
        assert len(sp) == len(sd) == 2 ** max(m - 1, 0)
        if m <= 7:
            filtered_sp = {
                p for p in enumerate_all_preferences(m) if is_single_peaked(p, order)
            }
            filtered_sd = {
                p for p in enumerate_all_preferences(m) if is_single_dipped(p, order)
            }
            assert sp == filtered_sp
            assert sd == filtered_sd
        if 3 <= m <= 7:
            assert sp & sd == {monotone_increasing(order), monotone_decreasing(order)}
    _passed("criterion 7 (family sizes and overlap, exact)")


def test_criterion_8_rule_properties():
    start = time.perf_counter()
    inst = Instance.default(3)
    rankings = [Preference(r) for r in itertools.permutations(range(3))]
    count = 0
    for combo in itertools.product(rankings, repeat=3):
        profile = Profile(inst, combo)
        result = ttc(profile)
        assert is_individually_rational(profile, result)
        assert find_improving_cycle(profile, result) is None
        count += 1
    assert count == 216

    report = check_strategy_proofness(
        Rule("ttc", ttc), DomainSpec.unrestricted(3), 3, Scope.exhaustive()
    )
    assert report.ok and report.profiles_checked == 216

    for n in (3, 4):
        corollary = check_corollary_sd(n, Scope.exhaustive())
        assert corollary.ok
        assert corollary.profiles_checked == (2 ** (n - 1)) ** n
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(f"criterion 8 (rule properties, {elapsed:.1f}s)")


def test_criterion_9_mixed_domain_gap(gap_example):
    profile, mu, nu = gap_example
    report = verify_equivalence(DomainSpec.parse("sp,sd,sp", 3), 3, Scope.exhaustive())
    assert len(report.violations) >= 1
    match = [v for v in report.violations if v.profile == profile and v.mu == mu]
    assert len(match) == 1
    assert match[0].witness.nu == nu
    _passed(f"criterion 9 (mixed-domain gap, {len(report.violations)} violations)")


def test_criterion_10_unrestricted_count_ratios(tmp_path, capsys):
    inst = Instance.default(7)
    spec = DomainSpec.unrestricted(7)
    max_ratio = 0.0
    for trial in range(100):
        profile = sample_profile(spec, inst, 10_000 + trial)
        path = tmp_path / f"inst_{trial}.txt"
        path.write_text(serialize_instance(profile))
        assert main(["count", str(path)]) == 0
        out = capsys.readouterr().out
        pair_count, pareto_count = (int(tok) for tok in out.splitlines()[1].split())
        assert pareto_count <= pair_count
        assert pareto_count >= 1
        max_ratio = max(max_ratio, pair_count / pareto_count)
    with capsys.disabled():
        print(f"\nmax pair/pareto ratio over 100 unrestricted n=7 profiles: {max_ratio:.3f}")
    _passed("criterion 10 (count ratios on unrestricted n=7)")
