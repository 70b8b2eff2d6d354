import collections
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reallot.core import Allocation, BudgetError, Instance, LinearOrder, Preference, Profile
from reallot.domains import DomainSpec, sample_profile
from reallot.efficiency import (
    ImprovingCycle,
    _acyclic,
    _blocking_pair_raw,
    _envy_cycle,
    _first_dominators,
    _mask_houses,
    _pair_efficient,
    apply_cycle,
    brute_force_dominator,
    count_efficient,
    find_blocking_pair,
    find_improving_cycle,
    is_individually_rational,
    pareto_dominates,
)

from conftest import (
    EnvyGraph,
    _first_cycle,
    _first_dominator,
    _shortest_cycle,
    _succ_raw,
    paused_walk,
    profile_from,
)


def oracle_blocking(profile, mu):
    # Definitional double loop over ordered agent pairs.
    for a in range(profile.n):
        for b in range(profile.n):
            if a == b:
                continue
            if profile.prefs[a].prefers(mu.assign[b], mu.assign[a]) and profile.prefs[
                b
            ].prefers(mu.assign[a], mu.assign[b]):
                return a, b
    return None


def oracle_dominator(profile, mu):
    # Literal scan of every allocation against the domination definition.
    for assign in itertools.permutations(range(profile.n)):
        weak = all(
            profile.prefs[a].weakly_prefers(assign[a], mu.assign[a])
            for a in range(profile.n)
        )
        strict = any(
            profile.prefs[a].prefers(assign[a], mu.assign[a]) for a in range(profile.n)
        )
        if weak and strict:
            return Allocation(assign)
    return None


def all_profiles_n3():
    inst = Instance.default(3)
    rankings = list(itertools.permutations(range(3)))
    for combo in itertools.product(rankings, repeat=3):
        yield Profile(inst, tuple(Preference(r) for r in combo))


def test_gap_example_checks(gap_example):
    profile, mu, nu = gap_example
    assert find_blocking_pair(profile, mu) is None
    cycle = find_improving_cycle(profile, mu)
    assert cycle.agents == (0, 2, 1)
    assert apply_cycle(mu, cycle) == nu
    assert brute_force_dominator(profile, mu) == nu
    assert pareto_dominates(profile, nu, mu)
    assert not pareto_dominates(profile, mu, nu)


def test_all_peaks_allocation_is_untouchable():
    profile = profile_from("h2 h1 h3", "h1 h2 h3", "h3 h1 h2")
    peaks = Allocation(tuple(p.peak for p in profile.prefs))
    assert find_blocking_pair(profile, peaks) is None
    assert find_improving_cycle(profile, peaks) is None
    assert brute_force_dominator(profile, peaks) is None


def test_checkers_agree_with_oracles_exhaustively_n3():
    for profile in all_profiles_n3():
        for assign in itertools.permutations(range(3)):
            mu = Allocation(assign)
            assert (find_blocking_pair(profile, mu) is None) == (
                oracle_blocking(profile, mu) is None
            )
            assert (find_improving_cycle(profile, mu) is None) == (
                brute_force_dominator(profile, mu) is None
            )


def test_checkers_agree_with_oracles_random_n5():
    inst = Instance.default(5)
    spec = DomainSpec.unrestricted(5)
    rng = random.Random(17)
    for trial in range(300):
        profile = sample_profile(spec, inst, trial)
        mu = Allocation(tuple(rng.sample(range(5), 5)))
        assert (find_blocking_pair(profile, mu) is None) == (
            oracle_blocking(profile, mu) is None
        )
        assert (find_improving_cycle(profile, mu) is None) == (
            oracle_dominator(profile, mu) is None
        )


def test_pareto_dominates_is_irreflexive_and_antisymmetric():
    inst = Instance.default(5)
    spec = DomainSpec.unrestricted(5)
    rng = random.Random(3)
    for trial in range(200):
        profile = sample_profile(spec, inst, trial)
        mu = Allocation(tuple(rng.sample(range(5), 5)))
        nu = Allocation(tuple(rng.sample(range(5), 5)))
        assert not pareto_dominates(profile, mu, mu)
        if pareto_dominates(profile, nu, mu):
            assert not pareto_dominates(profile, mu, nu)


def test_pareto_dominance_is_transitive_n4():
    inst = Instance.default(4)
    spec = DomainSpec.unrestricted(4)
    rng = random.Random(8)
    for trial in range(100):
        profile = sample_profile(spec, inst, trial)
        allocs = [Allocation(tuple(rng.sample(range(4), 4))) for _ in range(3)]
        a, b, c = allocs
        if pareto_dominates(profile, a, b) and pareto_dominates(profile, b, c):
            assert pareto_dominates(profile, a, c)


def test_apply_cycle_round_trip_and_errors():
    rng = random.Random(5)
    for _ in range(50):
        mu = Allocation(tuple(rng.sample(range(6), 6)))
        k = rng.randrange(2, 6)
        agents = tuple(rng.sample(range(6), k))
        nu = apply_cycle(mu, agents)
        assert apply_cycle(nu, tuple(reversed(agents))) == mu
    mu = Allocation((0, 1, 2))
    swapped = apply_cycle(mu, (0, 1))
    assert swapped.assign == (1, 0, 2)
    with pytest.raises(ValueError):
        apply_cycle(mu, (1,))
    with pytest.raises(ValueError):
        apply_cycle(mu, (0, 1, 0))
    with pytest.raises(ValueError):
        apply_cycle(mu, (0, 7))
    for cycle, bad in (((0, 1.0), 1.0), (("a", 1), "a")):
        with pytest.raises(ValueError, match=f"^unknown agent index: {bad}$"):
            apply_cycle(mu, cycle)
    with pytest.raises(ValueError):
        ImprovingCycle((2, 2))


def test_improving_cycle_output_dominates(gap_example):
    profile, mu, _ = gap_example
    cycle = find_improving_cycle(profile, mu)
    assert pareto_dominates(profile, apply_cycle(mu, cycle), mu)


def test_envy_graph_matches_preferences(gap_example):
    profile, mu, _ = gap_example
    graph = EnvyGraph.from_assignment(profile, mu)
    for a in range(3):
        for b in range(3):
            expected = a != b and profile.prefs[a].prefers(mu.assign[b], mu.assign[a])
            assert graph.has_edge(a, b) == expected
    assert graph.two_cycles() == []
    assert graph.successors(0) == (2,)


def test_two_cycles_are_exactly_blocking_pairs():
    inst = Instance.default(4)
    spec = DomainSpec.unrestricted(4)
    rng = random.Random(77)
    for trial in range(200):
        profile = sample_profile(spec, inst, trial)
        mu = Allocation(tuple(rng.sample(range(4), 4)))
        graph = EnvyGraph.from_assignment(profile, mu)
        assert (find_blocking_pair(profile, mu) is None) == (not graph.two_cycles())


def test_shortest_mode_surfaces_blocking_pairs():
    profile = profile_from("h2 h1 h3", "h1 h2 h3", "h3 h2 h1")
    mu = Allocation((0, 1, 2))  # a1 and a2 want to swap
    pair = find_blocking_pair(profile, mu)
    assert pair == (0, 1)
    cycle = find_improving_cycle(profile, mu, shortest=True)
    assert set(cycle.agents) == {0, 1}
    assert cycle.k == 2


def test_count_efficient_gap_example(gap_example):
    profile, _, _ = gap_example
    pair_count, pareto_count = count_efficient(profile)
    assert (pair_count, pareto_count) == (2, 1)
    assert pareto_count <= pair_count


def test_count_efficient_common_preference_profile():
    profile = profile_from("h2 h3 h1", "h2 h3 h1", "h2 h3 h1")
    # Under one shared ranking every trade hurts somebody.
    assert count_efficient(profile) == (6, 6)


def test_count_efficient_equal_on_single_peaked_profiles():
    inst = Instance.default(4)
    spec = DomainSpec.all_single_peaked(4)
    for seed in range(40):
        profile = sample_profile(spec, inst, seed)
        pair_count, pareto_count = count_efficient(profile)
        assert pair_count == pareto_count


def test_guards_reject_large_instances():
    inst = Instance.default(9)
    profile = Profile(inst, tuple(Preference(tuple(range(9))) for _ in range(9)))
    with pytest.raises(BudgetError):
        count_efficient(profile)
    with pytest.raises(BudgetError):
        brute_force_dominator(profile, Allocation(tuple(range(9))))


def test_allocation_size_mismatch_rejected(gap_example):
    profile, _, _ = gap_example
    four = Allocation((0, 1, 2, 3))
    for check in (find_blocking_pair, find_improving_cycle, brute_force_dominator, is_individually_rational):
        with pytest.raises(ValueError, match="^allocation size does not match the profile$"):
            check(profile, four)
    with pytest.raises(ValueError):
        pareto_dominates(profile, four, four)


# --- the per-profile kernel against the per-allocation oracles ---------------

KERNEL_SPECS = ("sp", "sd", "all", "sp,sd,sp,sd,sp", "sd,sd,sp,sp,sd")


def kernel_profiles(order_seed=None):
    """Every profile at n = 3 and sampled profiles at n = 4 and 5, for each
    spec in KERNEL_SPECS (a comma spec is cut to the first n agents)."""
    rng = random.Random(order_seed)
    for n, count in ((3, None), (4, 12), (5, 5)):
        order = (
            LinearOrder(tuple(rng.sample(range(n), n)))
            if order_seed is not None
            else LinearOrder.identity(n)
        )
        inst = Instance.default(n, order)
        for text in KERNEL_SPECS:
            spec = DomainSpec.parse(",".join(text.split(",")[:n]), n)
            if count is None:
                lists = [spec.admissible(order, a) for a in range(n)]
                for combo in itertools.product(*lists):
                    yield Profile(inst, combo)
            else:
                for seed in range(count):
                    yield sample_profile(spec, inst, seed)


def flat_pair_efficient(profile):
    # The literal scan the kernel replaced: every permutation through the
    # blocking-pair test, then the DFS cycle test.
    ranks = [p.rank_of for p in profile.prefs]
    return [
        (perm, _first_cycle(_succ_raw(ranks, perm)) is None)
        for perm in itertools.permutations(range(profile.n))
        if _blocking_pair_raw(ranks, perm) is None
    ]


def kernel_view(flat):
    """The kernel's (count, gaps) from the flat scan's flagged list."""
    return len(flat), [perm for perm, efficient in flat if not efficient]


def assert_kernel_matches_the_flat_scan(profile):
    flat = flat_pair_efficient(profile)
    assert _pair_efficient([p.better for p in profile.prefs]) == kernel_view(flat)
    assert count_efficient(profile) == (len(flat), sum(ok for _, ok in flat))
    return flat


def test_pruned_enumeration_matches_the_flat_scan():
    for profile in itertools.chain(kernel_profiles(), kernel_profiles(order_seed=2)):
        assert_kernel_matches_the_flat_scan(profile)


def leaf_digraph(better, perm):
    """The house digraph of an allocation: succ[h] = better[holder of h][h]."""
    succ = [0] * len(perm)
    for a, h in enumerate(perm):
        succ[h] = better[a][h]
    return tuple(succ)


def repeat_profiles():
    """Sampled unrestricted and alternating SP/SD profiles at n = 6 and 7,
    where leaves of one profile share digraphs and some are cyclic."""
    for n, count in ((6, 10), (7, 3)):
        inst = Instance.default(n)
        mixed = DomainSpec.parse(",".join(("sp", "sd")[a % 2] for a in range(n)), n)
        for spec in (DomainSpec.unrestricted(n), mixed):
            for seed in range(count):
                yield sample_profile(spec, inst, 60 + seed)


def test_memoised_leaf_test_matches_the_flat_scan_at_n6_and_n7():
    repeated = cyclic = 0
    for profile in repeat_profiles():
        better = [p.better for p in profile.prefs]
        flat = flat_pair_efficient(profile)
        assert _pair_efficient(better) == kernel_view(flat)
        repeated += len(flat) - len({leaf_digraph(better, perm) for perm, _ in flat})
        cyclic += sum(not efficient for _, efficient in flat)
    assert repeated > 300 and cyclic > 100


def test_kernel_matches_the_flat_scan_at_n8():
    # The top row of the mask table: n = 8 is the largest agent count any
    # kernel caller admits.
    n = 8
    inst = Instance.default(n)
    mixed = DomainSpec.parse(",".join(("sp", "sd")[a % 2] for a in range(n)), n)
    for spec, seed in ((DomainSpec.unrestricted(n), 80), (mixed, 81), (mixed, 82)):
        assert_kernel_matches_the_flat_scan(sample_profile(spec, inst, seed))


def repeated_agent_profiles():
    """Profiles whose agents share rows: one ranking for every agent at
    n = 3..8, two rankings at n = 4..7, and sampled unrestricted and
    alternating SP/SD profiles at n = 4..6 in which some agents copy the
    agent two places before them, who has the same kind."""
    rng = random.Random(22)
    for n in range(3, 9):
        yield Profile(Instance.default(n), (Preference(tuple(rng.sample(range(n), n))),) * n)
    for n in range(4, 8):
        two = [Preference(tuple(rng.sample(range(n), n))) for _ in range(2)]
        yield Profile(Instance.default(n), tuple(two[a] if a < 2 else rng.choice(two) for a in range(n)))
    for n, count in ((4, 60), (5, 40), (6, 15)):
        inst = Instance.default(n)
        mixed = DomainSpec.parse(",".join(("sp", "sd")[a % 2] for a in range(n)), n)
        for spec in (DomainSpec.unrestricted(n), mixed):
            for seed in range(count):
                prefs = list(sample_profile(spec, inst, 220 + seed).prefs)
                for a in range(2, n):
                    if rng.random() < 0.5:
                        prefs[a] = prefs[a - 2]
                yield Profile(inst, tuple(prefs))


def test_kernel_matches_the_flat_scan_on_repeated_agents():
    # The kernel places equal agents in canonical order and counts each
    # leaf for the product of its classes' factorials; its gaps are the
    # dominated leaves expanded within each class.
    expanded = 0
    for profile in repeated_agent_profiles():
        flat = assert_kernel_matches_the_flat_scan(profile)
        sizes = collections.Counter(profile.prefs).values()
        if len(sizes) == 1:  # one ranking: no pair blocks and no cycle closes
            assert kernel_view(flat) == (math.factorial(profile.n), [])
        elif max(sizes) > 1:
            expanded += sum(not efficient for _, efficient in flat)
    assert expanded > 100


def test_mask_table_lists_each_masks_houses_ascending():
    for n in range(9):
        table = _mask_houses(n)
        assert len(table) == 1 << n
        for mask, houses in enumerate(table):
            assert houses == tuple(h for h in range(n) if mask >> h & 1)
    assert _mask_houses(8) is _mask_houses(8)  # built once per agent count


def test_leaf_test_walks_each_distinct_digraph_once_per_call(monkeypatch):
    import reallot.efficiency as efficiency

    walked = []

    def spy(succ, houses):
        walked.append(tuple(succ))
        return _acyclic(succ, houses)

    monkeypatch.setattr(efficiency, "_acyclic", spy)
    for profile in repeat_profiles():
        better = [p.better for p in profile.prefs]
        flat = flat_pair_efficient(profile)
        for _ in range(2):  # no answer outlives its call
            del walked[:]
            assert _pair_efficient(better) == kernel_view(flat)
            assert len(walked) == len(set(walked))
            assert set(walked) == {leaf_digraph(better, perm) for perm, _ in flat}

    # One shared ranking: no pair blocks and every allocation has the same
    # acyclic digraph, so n! Pareto-efficient leaves cost one test.
    n = 5
    ranking = (2, 0, 4, 1, 3)
    profile = Profile(Instance.default(n), (Preference(ranking),) * n)
    del walked[:]
    assert _pair_efficient([Preference(ranking).better] * n) == (120, [])
    assert len(walked) == 1
    assert count_efficient(profile) == (120, 120)
    assert len(walked) == 2


def test_envy_cycle_agrees_with_brute_force_on_every_allocation():
    for profile in kernel_profiles():
        better = [p.better for p in profile.prefs]
        for perm in itertools.permutations(range(profile.n)):
            succ = [0] * profile.n
            for a, h in enumerate(perm):
                succ[h] = better[a][h]
            cycle = _envy_cycle(succ)
            dominated = brute_force_dominator(profile, Allocation(perm)) is not None
            assert (cycle is not None) == dominated
            if cycle is not None:
                assert len(set(cycle)) == len(cycle) >= 2
                for i, h in enumerate(cycle):
                    assert succ[h] >> cycle[(i + 1) % len(cycle)] & 1


def test_sink_peel_agrees_with_the_walk_on_every_small_digraph():
    # Every digraph on at most three nodes, self-loops included.
    for n in range(4):
        houses = _mask_houses(n)
        for succ in itertools.product(range(1 << n), repeat=n):
            assert _acyclic(succ, houses) == (_envy_cycle(succ) is None)


def test_unguarded_checkers_never_build_the_mask_table(tmp_path, capsys):
    # ``_mask_houses(n)`` holds 2^n rows. Only the kernel, guarded to
    # n <= 8, may build it; the one-allocation checkers take any n.
    from reallot.cli import main, serialize_allocation, serialize_instance

    n = 12
    rng = random.Random(12)
    prefs = tuple(Preference(tuple(rng.sample(range(n), n))) for _ in range(n))
    profile = Profile(Instance.default(n), prefs)
    instance = tmp_path / "instance.txt"
    instance.write_text(serialize_instance(profile))
    # A serial dictatorship outcome has no improving cycle, so the walk
    # peels every node; random allocations close cycles.
    picked = []
    for p in profile.prefs:
        picked.append(next(h for h in p.ranking if h not in picked))
    allocations = [Allocation(tuple(picked))]
    allocations += [Allocation(tuple(rng.sample(range(n), n))) for _ in range(19)]
    _mask_houses.cache_clear()
    cyclic = []
    for i, mu in enumerate(allocations):
        find_blocking_pair(profile, mu)
        cyclic.append(find_improving_cycle(profile, mu) is not None)
        allocation = tmp_path / f"mu{i}.txt"
        allocation.write_text(serialize_allocation(profile.instance, mu))
        assert main(["check", str(instance), str(allocation)]) in (0, 1)
    capsys.readouterr()
    assert not cyclic[0] and any(cyclic)
    assert _mask_houses.cache_info().currsize == 0


@st.composite
def partly_known_digraphs(draw):
    """Successor masks on n <= 8 nodes, self-loops allowed, an arbitrary
    mask of nodes known from the start and a junk mask for the others."""
    n = draw(st.integers(1, 8))
    full = (1 << n) - 1
    succ = draw(st.lists(st.integers(0, full), min_size=n, max_size=n))
    return succ, draw(st.integers(0, full)), draw(st.integers(0, full))


@settings(max_examples=400, deadline=None)
@given(partly_known_digraphs())
def test_a_paused_and_resumed_walk_is_the_one_shot_walk(case):
    succ, known, junk = case
    whole = _envy_cycle(succ)
    got, paused = paused_walk(succ, known, junk)
    assert got == whole
    assert _acyclic(succ, _mask_houses(len(succ))) == (whole is None)
    # The depth-first search oracle over successor lists agrees, and the
    # walk paused once at each node it had to read, never at a known one.
    lists = [[b for b in range(len(succ)) if s >> b & 1] for s in succ]
    assert whole == _first_cycle(lists)
    assert len(set(paused)) == len(paused)
    assert not any(known >> v & 1 for v in paused)
    if whole is None:
        assert sorted(paused) == [v for v in range(len(succ)) if not known >> v & 1]
    else:
        assert set(whole) <= {v for v in range(len(succ)) if known >> v & 1} | set(paused)


def cycle_search_cases():
    """Every allocation of every profile at n = 3, then 1,200 sampled
    (profile, allocation) pairs for each n = 4..7, the profiles drawn in
    turn from the unrestricted domain and from an alternating SP/SD spec.
    Every tenth mixed profile also gives its dominated pair-efficient
    allocations, whose cycles are all longer than two."""
    for profile in all_profiles_n3():
        for perm in itertools.permutations(range(3)):
            yield profile, Allocation(perm)
    rng = random.Random(29)
    for n in range(4, 8):
        inst = Instance.default(n)
        mixed = DomainSpec.parse(",".join(("sp", "sd")[a % 2] for a in range(n)), n)
        specs = (DomainSpec.unrestricted(n), mixed)
        for seed in range(1200):
            profile = sample_profile(specs[seed % 2], inst, seed)
            yield profile, Allocation(tuple(rng.sample(range(n), n)))
            if seed % 20 == 1:
                for perm in _pair_efficient([p.better for p in profile.prefs])[1]:
                    yield profile, Allocation(perm)


def test_find_improving_cycle_returns_the_oracle_cycles():
    # The same cycle, not just a valid one: the default mode against the
    # depth-first search, shortest mode against the 2-cycle scan and
    # breadth-first search over successor lists.
    bfs_runs = 0
    for profile, mu in cycle_search_cases():
        succ = _succ_raw([p.rank_of for p in profile.prefs], mu.assign)
        for shortest, oracle in ((False, _first_cycle), (True, _shortest_cycle)):
            cycle = find_improving_cycle(profile, mu, shortest=shortest)
            expected = oracle(succ)
            got = None if cycle is None else list(cycle.agents)
            assert got == expected
        # No 2-cycle but a longer one: the breadth-first search must go
        # past its first level.
        bfs_runs += expected is not None and len(expected) > 2
    assert bfs_runs > 500


def dominator_cases():
    """(profile, allocation list) pairs: every profile at n = 3 with all six
    allocations, dominated and not, and one of them listed twice; then
    sampled profiles at n = 4..7, drawn in turn from the unrestricted domain
    and an alternating SP/SD spec, each with the kernel's gap list and with
    a random subset of its allocations."""
    perms = list(itertools.permutations(range(3)))
    for profile in all_profiles_n3():
        yield profile, perms + [perms[4]]
    rng = random.Random(41)
    for n, count in ((4, 60), (5, 30), (6, 12), (7, 6)):
        inst = Instance.default(n)
        mixed = DomainSpec.parse(",".join(("sp", "sd")[a % 2] for a in range(n)), n)
        specs = (DomainSpec.unrestricted(n), mixed)
        perms = list(itertools.permutations(range(n)))
        for seed in range(count):
            profile = sample_profile(specs[seed % 2], inst, seed)
            yield profile, _pair_efficient([p.better for p in profile.prefs])[1]
            yield profile, rng.sample(perms, 10)


def test_first_dominators_match_the_one_allocation_scan():
    dominated = 0
    for profile, assigns in dominator_cases():
        ranks = [p.rank_of for p in profile.prefs]
        expected = [_first_dominator(ranks, assign) for assign in assigns]
        assert _first_dominators(profile.prefs, assigns) == expected
        if profile.n == 3:
            got = [brute_force_dominator(profile, Allocation(a)) for a in assigns]
            assert got == [None if nu is None else Allocation(nu) for nu in expected]
        else:
            dominated += sum(nu is not None for nu in expected)
    assert dominated > 500
