import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reallot import domains
from reallot.core import Instance, LinearOrder, Preference, Profile
from reallot.domains import (
    NOT_SINGLE_DIPPED,
    NOT_SINGLE_PEAKED,
    DomainSpec,
    ViolationWitness,
    _family_exceeds,
    _peak_violation,
    _profiles,
    _sp_from_mask,
    _worst_first,
    enumerate_all_preferences,
    enumerate_single_dipped,
    enumerate_single_peaked,
    is_single_dipped,
    is_single_peaked,
    monotone_decreasing,
    monotone_increasing,
    sample_profile,
    single_dipped_violation,
    single_peaked_violation,
)

from conftest import pref, single_dipped_by_scan, single_dipped_violation_by_scan


IDENTITY3 = LinearOrder.identity(3)


def orders(max_m: int):
    return st.integers(2, max_m).flatmap(
        lambda m: st.tuples(
            st.permutations(list(range(m))), st.permutations(list(range(m)))
        )
    )


def test_single_peaked_recognition_basics():
    assert is_single_peaked(pref("h1 h2 h3"), IDENTITY3)
    assert not is_single_peaked(pref("h3 h1 h2"), IDENTITY3)
    w = single_peaked_violation(pref("h3 h1 h2"), IDENTITY3)
    assert (w.pivot, w.middle, w.far, w.side) == (2, 1, 0, "left")
    assert w.holds_for(pref("h3 h1 h2"), IDENTITY3)
    assert single_peaked_violation(pref("h2 h1 h3"), IDENTITY3) is None


def test_violation_witness_checks_its_fields_and_its_chain():
    with pytest.raises(ValueError, match="^unknown witness kind: bogus$"):
        ViolationWitness("bogus", 2, 1, 0, "left")
    with pytest.raises(ValueError, match="^unknown witness side: up$"):
        ViolationWitness(NOT_SINGLE_PEAKED, 2, 1, 0, "up")
    # The ranking h3 P h2 P h1 fits the witness, but its middle house h1 is
    # not between the pivot h3 and the far house h2 in the order.
    offside = ViolationWitness(NOT_SINGLE_PEAKED, 2, 0, 1, "left")
    assert not offside.holds_for(pref("h3 h2 h1"), IDENTITY3)


def test_single_dipped_recognition_basics():
    assert is_single_dipped(pref("h3 h1 h2"), IDENTITY3)  # dip h2
    assert not is_single_dipped(pref("h2 h3 h1"), IDENTITY3)  # dip h1
    w = single_dipped_violation(pref("h2 h3 h1"), IDENTITY3)
    assert (w.pivot, w.middle, w.far, w.side) == (0, 1, 2, "right")
    assert w.holds_for(pref("h2 h3 h1"), IDENTITY3)


def test_family_membership_counts_for_three_houses():
    sp = [p.ranking for p in enumerate_single_peaked(IDENTITY3)]
    assert sp == [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)]
    sd = [p.ranking for p in enumerate_single_dipped(IDENTITY3)]
    assert sd == [(0, 1, 2), (0, 2, 1), (2, 0, 1), (2, 1, 0)]
    # Same counts by filtering all rankings with the recognizers.
    assert sum(is_single_peaked(p, IDENTITY3) for p in enumerate_all_preferences(3)) == 4
    assert sum(is_single_dipped(p, IDENTITY3) for p in enumerate_all_preferences(3)) == 4


@pytest.mark.parametrize("m", range(1, 11))
def test_family_sizes_are_powers_of_two(m):
    order = LinearOrder.identity(m)
    sp = list(enumerate_single_peaked(order))
    sd = list(enumerate_single_dipped(order))
    assert len(sp) == len(set(sp)) == 2 ** max(m - 1, 0)
    assert len(sd) == len(set(sd)) == 2 ** max(m - 1, 0)


@pytest.mark.parametrize("m", range(1, 9))
def test_family_walks_match_sorted_mask_families(m):
    # The oracle builds each SP member from a bit mask of worst-to-best end
    # picks, reads it backwards for SD, and sorts; the walks must stream the
    # same list, in the same lexicographic order, on shuffled orders.
    rng = random.Random(m)
    for _ in range(4):
        order = LinearOrder(tuple(rng.sample(range(m), m)))
        masks = range(2 ** max(m - 1, 0))
        sd = sorted(
            (Preference(tuple(_sp_from_mask(order, mask))) for mask in masks),
            key=lambda p: p.ranking,
        )
        sp = sorted((p.reversed() for p in sd), key=lambda p: p.ranking)
        assert [p.ranking for p in enumerate_single_peaked(order)] == [p.ranking for p in sp]
        assert [p.ranking for p in enumerate_single_dipped(order)] == [p.ranking for p in sd]


def test_family_size_guard_never_builds_big_numbers():
    cap = 100_000_000
    for kind in ("sp", "sd"):
        assert not _family_exceeds(kind, 27, cap)  # 2^26
        assert _family_exceeds(kind, 28, cap)  # 2^27
        assert _family_exceeds(kind, 10**12, cap)
        assert not _family_exceeds(kind, 0, cap)
        assert _family_exceeds(kind, 4, 7) and not _family_exceeds(kind, 4, 8)
    assert not _family_exceeds("all", 11, cap)  # 39,916,800
    assert _family_exceeds("all", 12, cap)
    assert _family_exceeds("all", 10**12, cap)
    assert not _family_exceeds("all", -3, cap)
    assert _family_exceeds("all", 4, 23) and not _family_exceeds("all", 4, 24)


@pytest.mark.parametrize("m", range(2, 6))
def test_enumeration_matches_definitional_filter(m):
    order = LinearOrder.from_left_to_right(tuple(reversed(range(m))))
    by_filter = {
        p.ranking for p in enumerate_all_preferences(m) if is_single_peaked(p, order)
    }
    assert {p.ranking for p in enumerate_single_peaked(order)} == by_filter
    by_filter_sd = {
        p.ranking for p in enumerate_all_preferences(m) if is_single_dipped(p, order)
    }
    assert {p.ranking for p in enumerate_single_dipped(order)} == by_filter_sd


@pytest.mark.parametrize("m", range(3, 7))
def test_family_overlap_is_the_two_monotone_rankings(m):
    order = LinearOrder.identity(m)
    both = set(enumerate_single_peaked(order)) & set(enumerate_single_dipped(order))
    assert both == {monotone_increasing(order), monotone_decreasing(order)}


def test_enumerate_all_counts():
    assert sum(1 for _ in enumerate_all_preferences(4)) == math.factorial(4)
    with pytest.raises(ValueError):
        next(enumerate_all_preferences(0))


@given(orders(6))
def test_membership_duality_under_ranking_reversal(data):
    ranking, left_to_right = data
    p = Preference(tuple(ranking))
    order = LinearOrder.from_left_to_right(tuple(left_to_right))
    assert is_single_peaked(p, order) == is_single_dipped(p.reversed(), order)


@given(orders(6))
def test_membership_survives_order_reversal(data):
    ranking, left_to_right = data
    p = Preference(tuple(ranking))
    order = LinearOrder.from_left_to_right(tuple(left_to_right))
    assert is_single_peaked(p, order) == is_single_peaked(p, order.reversed())
    assert is_single_dipped(p, order) == is_single_dipped(p, order.reversed())


@given(orders(6))
def test_violations_certify_non_membership(data):
    ranking, left_to_right = data
    p = Preference(tuple(ranking))
    order = LinearOrder.from_left_to_right(tuple(left_to_right))
    wp = single_peaked_violation(p, order)
    assert (wp is None) == is_single_peaked(p, order)
    if wp is not None:
        assert wp.holds_for(p, order)
    wd = single_dipped_violation(p, order)
    assert (wd is None) == is_single_dipped(p, order)
    if wd is not None:
        assert wd.holds_for(p, order)


def test_linear_recognizers_match_the_quadratic_scan_on_every_ranking():
    # Every ranking of up to seven houses under the identity order and one
    # shuffled order: the prefix-interval recognizers answer as the
    # violation scan does, and each family has 2^(m-1) members.
    rng = random.Random(10)
    for m in range(1, 8):
        shuffled = LinearOrder.from_left_to_right(tuple(rng.sample(range(m), m)))
        for order in (LinearOrder.identity(m), shuffled):
            sp = sd = 0
            for p in enumerate_all_preferences(m):
                peaked = is_single_peaked(p, order)
                dipped = is_single_dipped(p, order)
                assert peaked == (single_peaked_violation(p, order) is None)
                assert dipped == (single_dipped_violation(p, order) is None)
                sp += peaked
                sd += dipped
            assert sp == sd == 2 ** (m - 1)


def _compressed(values) -> tuple[int, ...]:
    """Each value's index among the values sorted: the ranks or positions
    a subset of houses keeps, renumbered 0..k-1."""
    ordered = sorted(values)
    return tuple(ordered.index(v) for v in values)


def test_restriction_keeps_single_peaked_and_single_dipped():
    # The restriction lemma the shortest-cycle argument rests on: an SP (SD)
    # ranking restricted to any set of at least three houses is SP (SD)
    # under the induced order. Every SP and SD ranking at m = 3..8 under the
    # identity order and one shuffled order, judged by the quadratic
    # violation scan rather than the linear recognizers: 144,048 restrictions.
    rng = random.Random(11)
    checked = 0
    for m in range(3, 9):
        shuffled = LinearOrder.from_left_to_right(tuple(rng.sample(range(m), m)))
        for order in (LinearOrder.identity(m), shuffled):
            subsets = [s for k in range(3, m + 1) for s in itertools.combinations(range(m), k)]
            induced = [LinearOrder(_compressed([order.position[h] for h in s])) for s in subsets]
            for family, read, kind in (
                (enumerate_single_peaked, tuple, NOT_SINGLE_PEAKED),
                (enumerate_single_dipped, _worst_first, NOT_SINGLE_DIPPED),
            ):
                for p in family(order):
                    for s, sub_order in zip(subsets, induced):
                        rank = _compressed([p.rank_of[h] for h in s])
                        assert _peak_violation(read(rank), sub_order, kind) is None
                        checked += 1
    assert checked == 144_048


def test_single_dipped_checks_match_the_direct_scans():
    # Every ranking of up to six houses under five random orders each
    # (4,365 rankings): the recogniser and the witness derived from the
    # single-peaked scans equal the direct single-dipped scans, and each
    # witness holds for exactly the preferences the literal chain admits.
    rng = random.Random(17)
    checked = 0
    for m in range(1, 7):
        for _ in range(5):
            order = LinearOrder.from_left_to_right(tuple(rng.sample(range(m), m)))
            prefs = [Preference(r) for r in itertools.permutations(range(m))]
            witnesses = set()
            for p in prefs:
                checked += 1
                assert is_single_dipped(p, order) == single_dipped_by_scan(p, order)
                w = single_dipped_violation(p, order)
                assert w == single_dipped_violation_by_scan(p, order)
                if w is not None:
                    witnesses.add(w)
            for w in witnesses:
                for p in prefs:
                    literal = (
                        p.dip == w.pivot
                        and p.prefers(w.middle, w.far)
                        and p.prefers(w.far, w.pivot)
                    )
                    assert w.holds_for(p, order) == literal
    assert checked == 4_365


def test_domain_spec_parsing_and_description():
    assert DomainSpec.parse("sp", 3) == DomainSpec.all_single_peaked(3)
    assert DomainSpec.parse("union", 4) == DomainSpec.union(4)
    mixed = DomainSpec.parse("sp,sd,sp", 3)
    assert mixed.per_agent == ("sp", "sd", "sp")
    assert mixed.describe() == "spec sp,sd,sp"
    assert DomainSpec.all_single_dipped(3).describe() == "sd"
    assert DomainSpec(((pref("h1 h2 h3"),), "sp", "sp")).describe() == "explicit"
    with pytest.raises(ValueError):
        DomainSpec.parse("sp,sd", 3)
    with pytest.raises(ValueError):
        DomainSpec.parse("weird", 3)
    with pytest.raises(ValueError):
        DomainSpec((),)
    with pytest.raises(ValueError):
        DomainSpec((pref("h1 h2 h3"), "sp"))  # raw Preference is not an entry list
    with pytest.raises(ValueError):
        DomainSpec((("sp",), ()))  # a kind inside an explicit list
    with pytest.raises(ValueError, match="^explicit preference list may not be empty$"):
        DomainSpec(("sp", ()))
    with pytest.raises(ValueError, match="^unknown domain kind: sq$"):
        DomainSpec.parse("sp,sq,sp", 3)


def test_explicit_lists_reject_repeated_preferences():
    every = list(enumerate_all_preferences(3))
    with pytest.raises(ValueError, match="repeats"):
        DomainSpec(((every[0], every[0], every[5]),) * 3)
    # A list equal to another agent's is fine; only repeats within one list.
    spec = DomainSpec(((every[0], every[5]),) * 3)
    assert spec.space_size(LinearOrder.identity(3)) == 8


def test_space_sizes():
    order = LinearOrder.identity(3)
    assert DomainSpec.all_single_peaked(3).space_size(order) == 64
    assert DomainSpec.unrestricted(3).space_size(order) == 216
    assert DomainSpec.union(3).space_size(order) == 2 * 64 - 8
    explicit = DomainSpec((("sp"), "sd", (pref("h1 h2 h3"),)))
    assert explicit.space_size(order) == 4 * 4 * 1


def test_sampling_is_deterministic_and_in_domain():
    inst = Instance.default(3)
    spec = DomainSpec.all_single_peaked(3)
    a = sample_profile(spec, inst, seed=99)
    b = sample_profile(spec, inst, seed=99)
    assert a == b
    assert all(is_single_peaked(p, inst.order) for p in a.prefs)
    c = sample_profile(spec, inst, seed=100)
    assert isinstance(c, Profile)

    sd = sample_profile(DomainSpec.all_single_dipped(3), inst, seed=5)
    assert all(is_single_dipped(p, inst.order) for p in sd.prefs)

    explicit = DomainSpec(((pref("h2 h1 h3"),), "sp", "all"))
    drawn = sample_profile(explicit, inst, seed=1)
    assert drawn.prefs[0] == pref("h2 h1 h3")
    with pytest.raises(ValueError, match="^spec and instance disagree on the agent count$"):
        sample_profile(DomainSpec.all_single_peaked(4), inst, seed=1)


def test_sampling_streams_are_pinned():
    # The union draws one coin bit (0: the SP block) before the per-agent
    # draws, and a one-block spec draws no coin. Sweep reports on the union
    # print counts only, so these values pin its stream.
    inst = Instance.default(4)
    union = [
        [p.ranking for p in sample_profile(DomainSpec.union(4), inst, seed).prefs]
        for seed in range(6)
    ]
    assert union == [
        [(3, 2, 0, 1), (0, 3, 2, 1), (3, 2, 1, 0), (3, 2, 0, 1)],
        [(2, 3, 1, 0), (1, 2, 3, 0), (1, 2, 3, 0), (1, 2, 3, 0)],
        [(0, 3, 2, 1), (3, 2, 1, 0), (0, 3, 2, 1), (0, 1, 2, 3)],
        [(2, 3, 1, 0), (2, 3, 1, 0), (2, 1, 0, 3), (2, 1, 3, 0)],
        [(2, 1, 3, 0), (3, 2, 1, 0), (1, 2, 0, 3), (1, 0, 2, 3)],
        [(0, 3, 1, 2), (3, 0, 2, 1), (0, 3, 1, 2), (0, 3, 2, 1)],
    ]
    three = Instance.default(3)
    single = [
        [p.ranking for p in sample_profile(DomainSpec.parse(text, 3), three, 7).prefs]
        for text in ("sp", "sd", "all")
    ]
    assert single == [
        [(1, 0, 2), (0, 1, 2), (2, 1, 0)],
        [(2, 0, 1), (2, 1, 0), (0, 1, 2)],
        [(1, 0, 2), (2, 0, 1), (2, 0, 1)],
    ]


def _clear_family_caches():
    # The draw tables hold the families' objects, so both go together.
    for cached in (domains._draw_table, domains._sp_family, domains._sd_family):
        cached.cache_clear()


def _count_built_preferences(monkeypatch) -> list:
    built = []
    real = Preference.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Preference, "__post_init__", counting)
    return built


def test_sampled_single_dipped_profiles_build_the_family_once(monkeypatch):
    # The first SD draw builds the 32 family members of n = 6 for the draw
    # table; every later draw reads a row of it and builds nothing.
    _clear_family_caches()
    built = _count_built_preferences(monkeypatch)
    profile = sample_profile(DomainSpec.all_single_dipped(6), Instance.default(6), 3)
    assert len(built) == 32
    assert all(is_single_dipped(p, profile.order) for p in profile.prefs)
    sample_profile(DomainSpec.all_single_dipped(6), Instance.default(6), 4)
    assert len(built) == 32


def test_the_sampled_loop_resolves_skips_and_entries_once_per_call(monkeypatch):
    # 200 union draws at n = 6 build both families for their draw tables
    # and the two monotone rankings of the SD block's skip set, once for
    # the whole call, and nothing per draw.
    _clear_family_caches()
    built = _count_built_preferences(monkeypatch)
    drawn = list(_profiles(DomainSpec.union(6), Instance.default(6), range(200)))
    assert len(drawn) == 200
    assert len(built) == 66
    monkeypatch.undo()

    # An explicit list's entry is resolved once per agent, not per draw.
    resolved = []
    real_entry = domains._entry

    def resolving(entry):
        resolved.append(entry)
        return real_entry(entry)

    monkeypatch.setattr(domains, "_entry", resolving)
    listed = [pref("h1 h2 h3"), pref("h3 h2 h1")]
    spec = DomainSpec((listed, "sp", listed))
    assert len(list(_profiles(spec, Instance.default(3), range(50)))) == 50
    assert len(resolved) == 3


class _MaskFeed:
    """Stands in for ``random.Random``: ``getrandbits`` hands out one
    chosen mask, so a sampler shows which preference that mask draws."""

    def __init__(self, bits: int, mask: int):
        self.bits, self.mask = bits, mask

    def getrandbits(self, k: int) -> int:
        assert k == self.bits
        return self.mask


@pytest.mark.parametrize("m", range(1, 9))
def test_sampled_sp_and_sd_draws_read_the_family_table_by_mask(m):
    # Every mask, through each kind's sampler: the drawn preference is the
    # mask's worst-first list read SP or SD way, and it is one of the
    # family's own objects, not a copy.
    rng = random.Random(m)
    orders = [LinearOrder.identity(m)]
    orders += [LinearOrder(tuple(rng.sample(range(m), m))) for _ in range(2)]
    for order in orders:
        for kind, step, family in (
            ("sp", -1, domains._sp_family(order)),
            ("sd", 1, domains._sd_family(order)),
        ):
            members = {id(p) for p in family}
            draw = domains._KINDS[kind].sampler(order)
            table = domains._draw_table(order, step)
            assert len(table) == len(family) == 2 ** (m - 1)
            for mask in range(2 ** (m - 1)):
                drawn = draw(_MaskFeed(m - 1, mask))
                assert drawn is table[mask]
                assert drawn == Preference(tuple(_sp_from_mask(order, mask)[::step]))
                assert id(drawn) in members


def test_sampling_above_the_sweep_guard_builds_no_table():
    # Past n = 8 a family can be too large to list (2^29 members at n = 30),
    # so each draw builds its own ranking, the same one the mask names.
    _clear_family_caches()
    order = LinearOrder(tuple(random.Random(9).sample(range(12), 12)))
    for kind, step in (("sp", -1), ("sd", 1)):
        draw = domains._KINDS[kind].sampler(order)
        for mask in (0, 1, 0b10110011101, 2**11 - 1):
            drawn = draw(_MaskFeed(11, mask))
            assert drawn == Preference(tuple(_sp_from_mask(order, mask)[::step]))
    profile = sample_profile(DomainSpec.union(12), Instance.default(12), 5)
    assert len(profile.prefs) == 12
    assert domains._draw_table.cache_info().currsize == 0
    assert domains._sp_family.cache_info().currsize == 0
    assert domains._sd_family.cache_info().currsize == 0


def test_sp_and_sd_steps_admit_no_core_of_any_size():
    """No all-SP or all-SD profile has a gap, at any number of agents.

    A gap needs a core: k >= 3 agents holding a set S of k houses in a
    cycle, where each agent, restricted to S, ranks the next agent's house
    first and its own house second. Call the pair (second-ranked house ->
    top house) a step. Restricting an SP or SD ranking to S keeps it SP or
    SD under the order S inherits, so the steps depend only on positions in
    S, and the rankings over ``LinearOrder.identity(k)`` give all of them.
    SP steps join order neighbours, and a path has no cycle through 3 or
    more nodes; SD steps enter at most two nodes, S's two ends. So no k
    steps close a cycle, for any k. The test rests on the restriction
    lemma of the shortest-cycle argument (a shortest envy cycle has no
    chord, so its agents' restricted rankings are exactly these steps),
    which it does not itself check.
    """

    def steps(prefs):
        return {(p.ranking[1], p.ranking[0]) for p in prefs}

    for k in range(3, 13):
        order = LinearOrder.identity(k)
        neighbours = {(h, h + 1) for h in range(k - 1)} | {(h + 1, h) for h in range(k - 1)}
        assert steps(enumerate_single_peaked(order)) == neighbours
        assert {top for _, top in steps(enumerate_single_dipped(order))} == {0, k - 1}
    # Negative control: unrestricted rankings close the 3-cycle 0 -> 1 -> 2 -> 0.
    assert {(0, 1), (1, 2), (2, 0)} <= steps(enumerate_all_preferences(3))


def test_the_unrestricted_list_is_built_once_per_house_count():
    spec = DomainSpec.unrestricted(5)
    order = LinearOrder.from_left_to_right((2, 0, 4, 1, 3))
    assert spec.admissible(order, 0) is spec.admissible(order, 1)
    assert spec.admissible(order, 0) is spec.admissible(LinearOrder.identity(5), 4)


def test_union_sampling_is_uniform_on_the_overlap():
    # The 2^n all-monotone profiles lie in both blocks of the union; a
    # uniform draw gives them their share of the union's profiles, not
    # twice it.
    inst = Instance.default(3)
    spec = DomainSpec.union(3)
    monotone = {monotone_increasing(inst.order), monotone_decreasing(inst.order)}
    draws = 12_000
    hits = sum(
        all(p in monotone for p in sample_profile(spec, inst, seed).prefs)
        for seed in range(draws)
    )
    expected = draws * 2**3 / spec.space_size(inst.order)
    assert abs(hits - expected) <= 0.15 * expected


def test_union_sampling_lands_in_one_half():
    inst = Instance.default(3)
    spec = DomainSpec.union(3)
    kinds = set()
    for seed in range(40):
        profile = sample_profile(spec, inst, seed)
        all_sp = all(is_single_peaked(p, inst.order) for p in profile.prefs)
        all_sd = all(is_single_dipped(p, inst.order) for p in profile.prefs)
        assert all_sp or all_sd
        kinds.add("sp" if all_sp else "sd")
    assert kinds == {"sp", "sd"}  # the coin actually flips


def test_generator_yields_each_profile_of_the_spec_once():
    # Against a literal filter of all 216 profiles at n = 3: the union
    # yields every all-SP or all-SD profile once, the SP block first; a
    # one-block spec yields its product in itertools.product order; given
    # seeds, the generator yields their samples in turn.
    inst = Instance.default(3)
    every = list(enumerate_all_preferences(3))
    union = list(_profiles(DomainSpec.union(3), inst))
    literal = [
        prefs
        for prefs in itertools.product(every, repeat=3)
        if all(is_single_peaked(p, inst.order) for p in prefs)
        or all(is_single_dipped(p, inst.order) for p in prefs)
    ]
    assert len(union) == len(set(union)) == DomainSpec.union(3).space_size(inst.order)
    assert set(union) == set(literal)
    assert all(all(is_single_peaked(p, inst.order) for p in prefs) for prefs in union[:64])
    mixed = DomainSpec.parse("sp,all,sd", 3)
    lists = [mixed.admissible(inst.order, a) for a in range(3)]
    assert list(_profiles(mixed, inst)) == list(itertools.product(*lists))
    seeds = [5, 1, 5, 9]
    for spec in (mixed, DomainSpec.union(3)):
        drawn = [sample_profile(spec, inst, s).prefs for s in seeds]
        assert list(_profiles(spec, inst, seeds)) == drawn


def test_ranking_reversal_maps_sp_profiles_onto_sd_profiles():
    # Read worst to best, an SP ranking is SD under the same order, so
    # flipping every agent's kind maps a spec's profiles one to one onto
    # the flipped spec's. An SP and an SD draw read the same mask, so the
    # same seed draws the reversed profile. `all` and the union are left
    # out: neither draw is reversal-symmetric per seed.
    flip = {"sp": "sd", "sd": "sp"}

    def reversed_rankings(prefs):
        return tuple(p.ranking[::-1] for p in prefs)

    for n in range(3, 7):
        scrambled = list(range(n))
        random.Random(n).shuffle(scrambled)
        for order in (LinearOrder.identity(n), LinearOrder.from_left_to_right(scrambled)):
            inst = Instance.default(n, order)
            for kinds in (["sp"] * n, ["sd"] * n, [("sp", "sd")[a % 2] for a in range(n)]):
                spec = DomainSpec(kinds)
                image = DomainSpec([flip[k] for k in kinds])
                seeds = range(40)
                drawn = [reversed_rankings(p) for p in _profiles(spec, inst, seeds)]
                assert drawn == [tuple(p.ranking for p in q) for q in _profiles(image, inst, seeds)]
                if n > 4:
                    continue
                listed = {reversed_rankings(p) for p in _profiles(spec, inst)}
                assert len(listed) == spec.space_size(order) == image.space_size(order)
                assert listed == {tuple(p.ranking for p in q) for q in _profiles(image, inst)}


def test_unrestricted_sampling_is_uniform():
    # Chi-square against exact uniformity over the 216 profiles at n=3;
    # statistic stays within five sigma of the df mean.
    inst = Instance.default(3)
    spec = DomainSpec.unrestricted(3)
    draws = 100_000
    counts: dict = {}
    for seed in range(draws):
        profile = sample_profile(spec, inst, seed)
        key = tuple(p.ranking for p in profile.prefs)
        counts[key] = counts.get(key, 0) + 1
    cells = 216
    expected = draws / cells
    stat = sum((counts.get(k, 0) - expected) ** 2 / expected for k in set(counts))
    assert len(counts) == cells
    df = cells - 1
    assert stat < df + 5 * math.sqrt(2 * df)


def test_admissible_sets_reject_union_mode():
    spec = DomainSpec.union(3)
    with pytest.raises(ValueError):
        spec.admissible(IDENTITY3, 0)
