"""Counterexample synthesizers for domains that outgrow single-peakedness
or single-dippedness.

Given any preference outside the target family, these build a full
profile plus a pair-efficient allocation that another allocation
dominates, certifying that the family cannot be enlarged (Cartesian-wise)
without breaking the pair/Pareto equivalence. Every bundle is
machine-checked before it is returned.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Iterable, Mapping, Sequence

from .core import Allocation, Instance, LinearOrder, Preference, Profile, _frozen, _is_index
from .domains import (
    NOT_SINGLE_PEAKED,
    ViolationWitness,
    is_single_dipped,
    is_single_peaked,
    monotone_decreasing,
    monotone_increasing,
    single_dipped_violation,
    single_peaked_violation,
)
from .efficiency import find_blocking_pair, find_improving_cycle, pareto_dominates


@_frozen
class CounterexampleBundle:
    """A synthesized gap: profile, the stuck allocation mu, a dominating
    nu, the three designated agents, the filler bijection, and the
    witness houses that drove the construction."""

    profile: Profile
    mu: Allocation
    nu: Allocation
    roles: tuple[int, int, int]  # (a, a_prime, a_tilde)
    beta: tuple[tuple[int, int], ...]  # (agent, house) pairs for everyone else
    witness_triple: tuple[int, int, int]  # (h, h_prime, h_tilde)
    case: int | None = None  # SD constructions: 1 or 2


def complete_sp(
    order: LinearOrder,
    constraints: Iterable[tuple[int, int]],
    peak_hint: int | None = None,
) -> Preference:
    """First single-peaked preference, in canonical enumeration order,
    satisfying every (better, worse) constraint and the optional peak.

    Read best first, such a ranking grows an interval of the order from its
    peak one end at a time; the least finish of each of the O(m^2)
    intervals is memoised, so the 2^(m-1) members are never walked.
    """
    m, pos, by_rank = order.n, order.position, order.by_rank
    above: dict[int, list[int]] = {h: [] for h in range(m)}  # positions that must join first
    for better, worse in constraints:
        if not (_is_index(better, m) and _is_index(worse, m)):
            raise ValueError(f"unknown house index in constraint {(better, worse)}")
        above[worse].append(pos[better])
    if peak_hint is not None and not _is_index(peak_hint, m):
        raise ValueError(f"unknown house index: {peak_hint}")
    starts = range(m) if peak_hint is None else [pos[peak_hint]]

    @functools.lru_cache(maxsize=None)
    def finish(lo: int, hi: int) -> tuple[int, ...] | None:
        # Least joining order of the houses outside positions lo..hi (lo > hi: none in yet).
        if hi - lo == m - 1:
            return ()
        ends = (lo - 1, hi + 1) if lo <= hi else starts
        for house, p in sorted((by_rank[p], p) for p in ends if 0 <= p < m):
            if all(lo <= q <= hi for q in above[house]):
                tail = finish(min(lo, p), max(hi, p))
                if tail is not None:
                    return (house, *tail)
        return None

    ranking = finish(m, -1)
    if ranking is None:
        raise ValueError("no single-peaked preference satisfies the constraints")
    return Preference(ranking)


def _resolve_roles_and_beta(
    n: int,
    roles: Sequence[int] | None,
    beta: Mapping[int, int] | None,
    seed: int | None,
    witness_houses: tuple[int, int, int],
):
    rng = random.Random(seed) if seed is not None else None
    if roles is None:
        if rng is not None:
            roles = tuple(rng.sample(range(n), 3))
        else:
            roles = (0, 1, 2)
    roles = tuple(roles)
    if len(roles) != 3 or len(set(roles)) != 3 or not all(_is_index(r, n) for r in roles):
        raise ValueError("roles must be three distinct agent indices")
    rest_agents = [a for a in range(n) if a not in roles]
    rest_houses = [h for h in range(n) if h not in witness_houses]
    if beta is None:
        if rng is not None:
            rng.shuffle(rest_houses)
        pairs = tuple(zip(rest_agents, rest_houses))
    else:
        pairs = []
        for a in rest_agents:  # ascending, so the pairs are sorted
            try:
                pairs.append((a, beta[a]))
            except (KeyError, IndexError, TypeError) as exc:
                raise ValueError(f"beta is missing agent {a}") from exc
        houses = [h for _, h in pairs]
        if not all(_is_index(h, n) for h in houses) or sorted(houses) != sorted(rest_houses):
            raise ValueError("beta must biject the remaining agents onto the remaining houses")
    return roles, tuple(pairs)


def _assemble(
    order: LinearOrder,
    pref: Preference,
    witness: ViolationWitness,
    roles: tuple[int, int, int],
    beta_pairs: tuple[tuple[int, int], ...],
    helpers: tuple[Preference, Preference],
    filler: Callable[[int], Preference],
    nu_trio: tuple[int, int, int],
    case: int | None,
) -> CounterexampleBundle:
    """The tail both constructions share. Agent a keeps the offending
    ``pref`` and a', a~ get ``helpers``; mu hands a, a', a~ the houses h~,
    h, h' and nu hands them ``nu_trio``; each filler agent gets
    ``filler(house)`` and its filler house under both."""
    n = order.n
    h, hp, ht = witness.pivot, witness.middle, witness.far
    prefs = dict(zip(roles, (pref, *helpers)))
    mu_map = dict(zip(roles, (ht, h, hp)))
    nu_map = dict(zip(roles, nu_trio))
    for agent, house in beta_pairs:
        prefs[agent] = filler(house)
        mu_map[agent] = nu_map[agent] = house
    profile = Profile(Instance.default(n, order), tuple(prefs[a] for a in range(n)))
    mu = Allocation(tuple(mu_map[a] for a in range(n)))
    nu = Allocation(tuple(nu_map[a] for a in range(n)))
    # Machine checks: the bundle is only returned once both halves of the
    # gap are confirmed by the efficiency module and every helper lies in
    # the family the witness names.
    if find_blocking_pair(profile, mu) is not None:
        raise RuntimeError("synthesized allocation is not pair-efficient")
    if not pareto_dominates(profile, nu, mu):
        raise RuntimeError("synthesized dominator does not dominate")
    if find_improving_cycle(profile, mu) is None:
        raise RuntimeError("synthesized allocation has no improving cycle")
    if witness.kind == NOT_SINGLE_PEAKED:
        family, member = "single-peaked", is_single_peaked
    else:
        family, member = "single-dipped", is_single_dipped
    for agent in range(n):
        if agent != roles[0] and not member(profile.prefs[agent], order):
            raise RuntimeError(f"helper preference fell outside the {family} family")
    return CounterexampleBundle(profile, mu, nu, roles, beta_pairs, (h, hp, ht), case)


def build_sp_counterexample(
    order: LinearOrder,
    pref: Preference,
    *,
    roles: Sequence[int] | None = None,
    beta: Mapping[int, int] | None = None,
    seed: int | None = None,
) -> CounterexampleBundle:
    """Gap bundle for a domain containing one non-single-peaked preference.

    The designated agent keeps the offending preference; the two helpers
    get single-peaked preferences pinned to the witness houses; everyone
    else gets a single-peaked preference peaking at their filler house,
    which mu hands straight to them.
    """
    witness = single_peaked_violation(pref, order)
    if witness is None:
        raise ValueError("preference is single-peaked")
    h, hp, ht = witness.pivot, witness.middle, witness.far
    roles, beta_pairs = _resolve_roles_and_beta(order.n, roles, beta, seed, (h, hp, ht))
    helpers = (complete_sp(order, [(hp, h), (h, ht)]), complete_sp(order, [(ht, hp), (hp, h)]))
    return _assemble(
        order, pref, witness, roles, beta_pairs, helpers,
        lambda house: complete_sp(order, [], peak_hint=house), (h, hp, ht), None,
    )


def build_sd_counterexample(
    order: LinearOrder,
    pref: Preference,
    *,
    roles: Sequence[int] | None = None,
    beta: Mapping[int, int] | None = None,
    seed: int | None = None,
) -> CounterexampleBundle:
    """Gap bundle for a domain containing one non-single-dipped preference.

    Two mirror cases depending on which side of the witness's middle house
    the dip sits. Helpers get the two monotone rankings or a block-built
    single-dipped preference dipping at the middle house.
    """
    witness = single_dipped_violation(pref, order)
    if witness is None:
        raise ValueError("preference is single-dipped")
    h, hp, ht = witness.pivot, witness.middle, witness.far
    roles, beta_pairs = _resolve_roles_and_beta(order.n, roles, beta, seed, (h, hp, ht))
    pos, by_rank = order.position, order.by_rank
    increasing = monotone_increasing(order)
    decreasing = monotone_decreasing(order)
    # Case 1 has the dip h left of h' and h~, case 2 right of them. a'
    # ranks the outer block holding h~ first, then the other outer block,
    # each from the order's end inward, then the houses strictly between
    # h and h~ by falling distance from h' (ties toward the order's left),
    # so it is single-dipped at h'.
    case = 1 if witness.side == "right" else 2
    lo, hi = sorted((pos[h], pos[ht]))
    left, right = by_rank[: lo + 1], by_rank[hi:][::-1]
    middle = sorted(by_rank[lo + 1 : hi], key=lambda x: (-abs(pos[x] - pos[hp]), pos[x]))
    outer = right + left if case == 1 else left + right
    helpers = (Preference(outer + tuple(middle)), increasing if case == 1 else decreasing)
    return _assemble(
        order, pref, witness, roles, beta_pairs, helpers,
        lambda house: increasing if pos[house] < pos[ht] else decreasing, (hp, ht, h), case,
    )
