"""Exhaustive sweeps against a count by contour classes.

At a fixed allocation both verdicts depend only on each agent's contour,
the houses it ranks above its own, so a block's gaps are counted by
classes of contours, weighted by how many profiles give them, without
scanning a profile. ``conftest.gapped_contour_classes`` counts them from
``rank_of`` and plain loops; the sweep's report must list exactly as many
violations."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from reallot import equivalence
from reallot.core import Instance
from reallot.domains import DomainSpec, Scope, enumerate_all_preferences
from reallot.equivalence import verify_equivalence

from conftest import gapped_contour_classes


def assert_count_matches(spec: DomainSpec, n: int) -> int:
    order = Instance.default(n).order
    lists = [spec.admissible(order, a) for a in range(n)]
    gaps = sum(weight for _, _, weight in gapped_contour_classes(lists))
    assert gaps == len(verify_equivalence(spec, n, Scope.exhaustive()).violations), spec.describe()
    return gaps


def test_every_kind_spec_at_n3_has_the_class_count_of_gaps():
    counts = {}
    for kinds in itertools.product(("sp", "sd", "all"), repeat=3):
        counts[kinds] = assert_count_matches(DomainSpec(kinds), 3)
    assert len(counts) == 27
    assert counts[("sp",) * 3] == counts[("sd",) * 3] == 0
    assert counts[("all",) * 3] == 12
    assert counts[("sp", "sd", "sp")] == 4


def test_mixed_specs_at_n4_have_the_class_count_of_gaps():
    expected = {"sp,sd,sp,sd": 1520, "sp,sp,sd,sd": 1520, "sp,sp,sp,all": 2592}
    for text, gaps in expected.items():
        assert assert_count_matches(DomainSpec.parse(text, 4), 4) == gaps


EVERY_3 = list(enumerate_all_preferences(3))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from(EVERY_3), min_size=1, max_size=4, unique=True), min_size=3, max_size=3))
def test_explicit_lists_at_n3_have_the_class_count_of_gaps(lists):
    assert_count_matches(DomainSpec(tuple(map(tuple, lists))), 3)


def test_single_peaked_and_single_dipped_have_no_gapped_class_up_to_n7():
    # Every agent has the same list, so relabelling agents maps gaps to
    # gaps and mu can be fixed to the identity.
    for n in range(3, 8):
        for kind in ("sp", "sd"):
            spec = DomainSpec.parse(kind, n)
            lists = [spec.admissible(Instance.default(n).order, a) for a in range(n)]
            assert list(gapped_contour_classes(lists, [tuple(range(n))])) == [], (kind, n)


def test_the_class_search_leaves_out_the_profiles_its_skip_names():
    # Only the union's SD block skips profiles, the monotone rankings alone,
    # and those have no gap, so no sweep shows the skip: plant one that
    # names half of the gapped profiles of `all` at n = 3.
    lists = [tuple(EVERY_3)] * 3
    full = equivalence._class_gaps(lists, frozenset())
    skip = frozenset(EVERY_3[:5])
    named = {picks for picks in full if all(EVERY_3[i] in skip for i in picks)}
    assert 0 < len(named) < len(full)
    assert equivalence._class_gaps(lists, skip) == {p: mus for p, mus in full.items() if p not in named}
