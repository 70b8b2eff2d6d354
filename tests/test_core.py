import importlib
import itertools
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reallot import core
from reallot.construct import CounterexampleBundle
from reallot.core import (
    Allocation,
    Instance,
    LinearOrder,
    Preference,
    Profile,
)
from reallot.domains import DomainSpec, Scope, ViolationWitness
from reallot.efficiency import ImprovingCycle
from reallot.equivalence import EquivalenceReport, ImprovementWitness, Violation
from reallot.rules import TTC, CorollaryReport, Manipulation, Rule, StrategyProofnessReport

from conftest import better_row_by_definition, pref


def brute_peak(p: Preference) -> int:
    # Independent oracle: scan all pairwise comparisons.
    return next(h for h in range(p.m) if all(p.prefers(h, g) for g in range(p.m) if g != h))


def brute_dip(p: Preference) -> int:
    return next(h for h in range(p.m) if all(p.prefers(g, h) for g in range(p.m) if g != h))


def test_peak_and_dip_on_named_rankings():
    p = pref("h2 h3 h1")
    assert p.peak == 1  # h2
    assert p.dip == 0  # h1
    q = pref("h1 h2 h3")
    assert q.peak == 0
    assert q.dip == 2


def test_peak_dip_match_pairwise_scan_on_random_rankings():
    rng = random.Random(11)
    for _ in range(50):
        p = Preference(tuple(rng.sample(range(6), 6)))
        assert p.peak == brute_peak(p)
        assert p.dip == brute_dip(p)


def test_prefers_basics():
    p = pref("h3 h1 h2")
    assert p.prefers(2, 1)  # h3 over h2
    assert not p.prefers(1, 2)
    for h in range(3):
        assert p.weakly_prefers(h, h)
    with pytest.raises(ValueError):
        p.prefers(0, 3)
    with pytest.raises(ValueError):
        p.weakly_prefers(-1, 0)


def test_prefers_is_strict_total_order_exhaustively():
    # Asymmetry, totality, transitivity over every preference for m <= 5.
    for m in (3, 4, 5):
        for ranking in itertools.permutations(range(m)):
            p = Preference(ranking)
            for h in range(m):
                assert not p.prefers(h, h)
                for g in range(m):
                    if h != g:
                        assert p.prefers(h, g) != p.prefers(g, h)
            for h, g, k in itertools.permutations(range(m), 3):
                if p.prefers(h, g) and p.prefers(g, k):
                    assert p.prefers(h, k)


@given(st.permutations(list(range(6))))
def test_rank_of_is_inverse_of_ranking(ranking):
    p = Preference(tuple(ranking))
    for r, h in enumerate(p.ranking):
        assert p.rank_of[h] == r


@given(st.permutations(list(range(5))))
def test_peak_is_dip_of_reversed(ranking):
    p = Preference(tuple(ranking))
    assert p.peak == p.reversed().dip
    assert p.dip == p.reversed().peak


def test_preference_rejects_non_permutations():
    with pytest.raises(ValueError):
        Preference((0, 0, 1))
    with pytest.raises(ValueError):
        Preference((0, 1, 3))
    with pytest.raises(ValueError):
        Preference(())


def test_linear_order_round_trip_and_comparisons():
    order = LinearOrder.from_left_to_right((2, 0, 1))  # h3 < h1 < h2
    assert order.position == (1, 2, 0)
    assert order.by_rank == (2, 0, 1)
    assert order.reversed().by_rank == (1, 0, 2)
    with pytest.raises(ValueError):
        LinearOrder((0, 0, 2))


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance.default(2)
    with pytest.raises(ValueError):
        Instance(("a1", "a2", "a1"), ("h1", "h2", "h3"), (0, 1, 2), LinearOrder.identity(3))
    with pytest.raises(ValueError):
        Instance(("a1", "a2", "a3"), ("h1", "h2", "h3"), (0, 0, 2), LinearOrder.identity(3))
    with pytest.raises(ValueError, match="^need at least 3 agents, got 2$"):
        Instance(("a1", "a2"), ("h1", "h2"), (0, 1), LinearOrder.identity(2))
    with pytest.raises(ValueError, match="^must have exactly as many houses as agents$"):
        Instance(("a1", "a2", "a3"), ("h1", "h2"), (0, 1, 2), LinearOrder.identity(3))
    with pytest.raises(ValueError, match="^order must cover exactly the houses$"):
        Instance(("a1", "a2", "a3"), ("h1", "h2", "h3"), (0, 1, 2), LinearOrder.identity(4))
    inst = Instance.default(3)
    assert inst.house_index("h3") == 2
    with pytest.raises(ValueError):
        inst.house_index("h9")


def test_default_instance_names_the_requested_agent_count():
    for n in (-1, 0, 2):
        with pytest.raises(ValueError, match=f"^need at least 3 agents, got {n}$"):
            Instance.default(n)


def test_profile_validation_and_replacement():
    inst = Instance.default(3)
    prefs = (pref("h1 h2 h3"),) * 3
    profile = Profile(inst, prefs)
    swapped = profile.with_pref(1, pref("h3 h2 h1"))
    assert swapped.prefs[1] == pref("h3 h2 h1")
    assert profile.prefs[1] == pref("h1 h2 h3")  # original untouched
    with pytest.raises(ValueError):
        Profile(inst, prefs[:2])
    with pytest.raises(ValueError):
        Profile(inst, (Preference((0, 1)),) * 3)


def test_allocation_validation():
    with pytest.raises(ValueError):
        Allocation((0, 0, 2))


def test_better_row_matches_the_definition():
    rankings = [r for m in range(1, 7) for r in itertools.permutations(range(m))]
    rng = random.Random(23)
    rankings += [tuple(rng.sample(range(m), m)) for m in (7, 8) for _ in range(500)]
    for ranking in rankings:
        assert Preference(ranking).better == tuple(better_row_by_definition(ranking))


def test_reading_better_changes_no_equality_hash_repr_or_pickle():
    for ranking in ((0,), (2, 0, 1), (3, 1, 4, 0, 2)):
        fresh, read = Preference(ranking), Preference(ranking)
        assert read.better is read.better  # built once, on first read
        assert "better" not in vars(fresh)  # and never before
        assert fresh == read and hash(fresh) == hash(read) and repr(fresh) == repr(read)
        for p in (fresh, read):
            back = pickle.loads(pickle.dumps(p))
            assert back == p and hash(back) == hash(p) and repr(back) == repr(p)
            assert back.better == read.better


def _value_samples():
    """One instance of every value class of the package, built through
    keyword arguments and defaults where a class has them."""
    inst = Instance.default(3)
    profile = Profile(inst, (pref("h2 h1 h3"), pref("h1 h2 h3"), pref("h3 h2 h1")))
    mu, nu = Allocation((0, 1, 2)), Allocation((1, 0, 2))
    witness = ImprovementWitness(nu=nu, tilde_a=frozenset({0, 1}), labels=(0, 1), colors=("red", "blue"))
    violation = Violation(profile, mu, witness)
    manipulation = Manipulation(profile, 0, pref("h1 h2 h3"), 0, 1)
    bundle = CounterexampleBundle(profile, mu, nu, (0, 1, 2), ((2, 2),), (0, 1, 2))
    assert bundle.case is None
    scope = Scope("exhaustive")
    assert (scope.seed, scope.trials) == (None, None)
    return [
        LinearOrder.from_left_to_right((2, 0, 1)),
        pref("h3 h1 h2"),
        inst,
        profile,
        mu,
        ViolationWitness("not-single-peaked", pivot=0, middle=1, far=2, side="right"),
        DomainSpec(("sp", "sd", "all")),
        DomainSpec.union(3),
        scope,
        Scope.randomized(seed=5, trials=3),
        ImprovingCycle((0, 1)),
        witness,
        violation,
        EquivalenceReport(DomainSpec.union(3), scope, 1, 6, (violation,)),
        TTC,
        Rule(name="serial", apply=TTC.apply),
        manipulation,
        StrategyProofnessReport("ttc", 1, 4, (manipulation,)),
        CorollaryReport(1, ((profile, mu, "blocking pair"),)),
        bundle,
        CounterexampleBundle(profile, mu, nu, (0, 1, 2), ((2, 2),), (0, 1, 2), case=2),
    ]


def test_value_types_keep_the_frozen_dataclass_contract():
    samples = _value_samples()
    # Every class the decorator made is sampled: 17 across six modules.
    decorated = {
        cls
        for name in ("core", "domains", "efficiency", "equivalence", "rules", "construct")
        for cls in vars(importlib.import_module(f"reallot.{name}")).values()
        if isinstance(cls, type) and cls.__setattr__ is core._refuse
    }
    assert {type(x) for x in samples} == decorated and len(decorated) == 17
    for x in samples:
        fields = tuple(type(x).__annotations__)
        values = tuple(getattr(x, f) for f in fields)
        assert hash(x) == hash(values)
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
        assert repr(x) == f"{type(x).__qualname__}({shown})"
        back = pickle.loads(pickle.dumps(x))
        assert back == x and hash(back) == hash(x) and not back != x
        assert x.__eq__(object()) is NotImplemented
        assert x.__eq__(values) is NotImplemented
        for f, v in zip(fields, values):
            with pytest.raises(AttributeError):
                setattr(x, f, None)
            with pytest.raises(AttributeError):
                delattr(x, f)
            assert getattr(x, f) is v
    # The inverses set by __post_init__ are not fields.
    assert tuple(LinearOrder.__annotations__) == ("position",)
    assert tuple(Preference.__annotations__) == ("ranking",)
    assert Preference((1, 0, 2)) != Preference((0, 1, 2))
