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
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import Allocation, Instance, LinearOrder, Preference, Profile
from .domains import (
    is_single_dipped,
    is_single_peaked,
    monotone_decreasing,
    monotone_increasing,
    single_dipped_violation,
    single_peaked_violation,
)
from .efficiency import find_blocking_pair, find_improving_cycle, pareto_dominates


@dataclass(frozen=True)
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
        if not {better, worse} <= above.keys():
            raise ValueError(f"unknown house index in constraint {(better, worse)}")
        above[worse].append(pos[better])
    starts = range(m) if peak_hint is None else [pos[h] for h in above if h == peak_hint]

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
    if len(roles) != 3 or len(set(roles)) != 3 or not all(0 <= r < n for r in roles):
        raise ValueError("roles must be three distinct agent indices")
    rest_agents = [a for a in range(n) if a not in roles]
    rest_houses = [h for h in range(n) if h not in witness_houses]
    if beta is None:
        if rng is not None:
            rng.shuffle(rest_houses)
        pairs = tuple(zip(rest_agents, rest_houses))
    else:
        try:
            pairs = tuple(sorted((a, beta[a]) for a in rest_agents))
        except KeyError as exc:
            raise ValueError(f"beta is missing agent {exc.args[0]}") from exc
        if sorted(h for _, h in pairs) != sorted(rest_houses):
            raise ValueError("beta must biject the remaining agents onto the remaining houses")
    return roles, pairs


def _assemble(
    order: LinearOrder,
    prefs_by_agent: dict[int, Preference],
    roles: tuple[int, int, int],
    beta_pairs: tuple[tuple[int, int], ...],
    witness: tuple[int, int, int],
    mu_map: dict[int, int],
    nu_map: dict[int, int],
    case: int | None,
) -> CounterexampleBundle:
    n = order.n
    instance = Instance.default(n, order)
    profile = Profile(instance, tuple(prefs_by_agent[a] for a in range(n)))
    mu = Allocation(tuple(mu_map[a] for a in range(n)))
    nu = Allocation(tuple(nu_map[a] for a in range(n)))
    bundle = CounterexampleBundle(profile, mu, nu, roles, beta_pairs, witness, case)
    # Machine checks: the bundle is only returned once both halves of the
    # gap are confirmed by the efficiency module.
    if find_blocking_pair(profile, mu) is not None:
        raise RuntimeError("synthesized allocation is not pair-efficient")
    if not pareto_dominates(profile, nu, mu):
        raise RuntimeError("synthesized dominator does not dominate")
    if find_improving_cycle(profile, mu) is None:
        raise RuntimeError("synthesized allocation has no improving cycle")
    return bundle


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
    n = order.n
    witness = single_peaked_violation(pref, order)
    if witness is None:
        raise ValueError("preference is single-peaked")
    h, hp, ht = witness.pivot, witness.middle, witness.far
    roles, beta_pairs = _resolve_roles_and_beta(n, roles, beta, seed, (h, hp, ht))
    a, a_prime, a_tilde = roles

    prefs: dict[int, Preference] = {a: pref}
    prefs[a_prime] = complete_sp(order, [(hp, h), (h, ht)])
    prefs[a_tilde] = complete_sp(order, [(ht, hp), (hp, h)])
    for agent, house in beta_pairs:
        prefs[agent] = complete_sp(order, [], peak_hint=house)

    mu = {a: ht, a_prime: h, a_tilde: hp}
    nu = {a: h, a_prime: hp, a_tilde: ht}
    for agent, house in beta_pairs:
        mu[agent] = house
        nu[agent] = house
    bundle = _assemble(order, prefs, roles, beta_pairs, (h, hp, ht), mu, nu, None)
    for agent in range(n):
        if agent != a and not is_single_peaked(bundle.profile.prefs[agent], order):
            raise RuntimeError("helper preference fell outside the single-peaked family")
    return bundle


def _sd_block_pref(
    order: LinearOrder, dip: int, first_block: Sequence[int], second_block: Sequence[int], middle: Sequence[int]
) -> Preference:
    # Blocks are fixed; inside the middle block houses fall off by
    # distance from the dip (ties broken toward the order's left) so the
    # result is single-dipped with the requested dip.
    pos = order.position
    mid_sorted = sorted(middle, key=lambda x: (-abs(pos[x] - pos[dip]), pos[x]))
    return Preference(tuple(list(first_block) + list(second_block) + mid_sorted))


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
    n = order.n
    witness = single_dipped_violation(pref, order)
    if witness is None:
        raise ValueError("preference is single-dipped")
    h, hp, ht = witness.pivot, witness.middle, witness.far
    roles, beta_pairs = _resolve_roles_and_beta(n, roles, beta, seed, (h, hp, ht))
    a, a_prime, a_tilde = roles

    pos = order.position
    increasing = monotone_increasing(order)
    decreasing = monotone_decreasing(order)
    case = 1 if witness.side == "right" else 2

    if case == 1:
        # dip of pref left of middle left of far.
        lower = [x for x in range(n) if pos[x] <= pos[h]]
        mid = [x for x in range(n) if pos[h] < pos[x] < pos[ht]]
        upper = [x for x in range(n) if pos[x] >= pos[ht]]
        upper.sort(key=lambda x: -pos[x])
        lower.sort(key=lambda x: pos[x])
        p3 = _sd_block_pref(order, hp, upper, lower, mid)
        helper_tilde = increasing
    else:
        # far left of middle left of dip.
        lower = [x for x in range(n) if pos[x] <= pos[ht]]
        mid = [x for x in range(n) if pos[ht] < pos[x] < pos[h]]
        upper = [x for x in range(n) if pos[x] >= pos[h]]
        lower.sort(key=lambda x: pos[x])
        upper.sort(key=lambda x: -pos[x])
        p3 = _sd_block_pref(order, hp, lower, upper, mid)
        helper_tilde = decreasing

    prefs: dict[int, Preference] = {a: pref, a_prime: p3, a_tilde: helper_tilde}
    for agent, house in beta_pairs:
        prefs[agent] = increasing if pos[house] < pos[ht] else decreasing

    mu = {a: ht, a_prime: h, a_tilde: hp}
    nu = {a: hp, a_prime: ht, a_tilde: h}
    for agent, house in beta_pairs:
        mu[agent] = house
        nu[agent] = house
    bundle = _assemble(order, prefs, roles, beta_pairs, (h, hp, ht), mu, nu, case)
    for agent in range(n):
        if agent != a and not is_single_dipped(bundle.profile.prefs[agent], order):
            raise RuntimeError("helper preference fell outside the single-dipped family")
    return bundle
