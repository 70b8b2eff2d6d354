"""Independent verdict checks on plain data; imports nothing from reallot.

A profile is a sequence of rankings, best house first; an allocation is a
tuple ``assign[agent] = house``. Every check is a literal reading of the
definition, kept apart from the package's envy-graph machinery.
"""

from __future__ import annotations

from itertools import permutations


def _rank_tables(rankings):
    tables = []
    for ranking in rankings:
        rank = [0] * len(ranking)
        for r, house in enumerate(ranking):
            rank[house] = r
        tables.append(rank)
    return tables


def _envies(ranks, assign, a, b) -> bool:
    return ranks[a][assign[b]] < ranks[a][assign[a]]


def _dominates(ranks, nu, mu) -> bool:
    worse = any(rank[nu[a]] > rank[mu[a]] for a, rank in enumerate(ranks))
    better = any(rank[nu[a]] < rank[mu[a]] for a, rank in enumerate(ranks))
    return better and not worse


def mutually_envious(rankings, assign, a, b) -> bool:
    """Agents a and b each strictly prefer the other's house."""
    ranks = _rank_tables(rankings)
    return a != b and _envies(ranks, assign, a, b) and _envies(ranks, assign, b, a)


def pair_efficient(rankings, assign) -> bool:
    ranks = _rank_tables(rankings)
    n = len(assign)
    return not any(
        _envies(ranks, assign, a, b) and _envies(ranks, assign, b, a)
        for a in range(n)
        for b in range(a + 1, n)
    )


def dominates(rankings, nu, mu) -> bool:
    """nu is an allocation that leaves no agent worse off than mu and some
    agent better off."""
    return sorted(nu) == list(range(len(mu))) and _dominates(_rank_tables(rankings), nu, mu)


def pareto_efficient(rankings, assign) -> bool:
    ranks = _rank_tables(rankings)
    return not any(_dominates(ranks, nu, assign) for nu in permutations(range(len(assign))))


def individually_rational(rankings, assign, endowment) -> bool:
    ranks = _rank_tables(rankings)
    return all(rank[assign[a]] <= rank[endowment[a]] for a, rank in enumerate(ranks))


def improving_cycle(rankings, assign, cycle) -> bool:
    """Each listed agent envies the next one, cyclically."""
    ranks = _rank_tables(rankings)
    k = len(cycle)
    return (
        k >= 2
        and len(set(cycle)) == k
        and all(_envies(ranks, assign, cycle[i], cycle[(i + 1) % k]) for i in range(k))
    )


def gap_problem(rankings, mu, nu) -> str | None:
    """Why (mu, nu) is not a pair-efficient allocation dominated by nu, or
    None when it is one."""
    if not pair_efficient(rankings, mu):
        return "reported mu has a mutually envious pair"
    if not dominates(rankings, nu, mu):
        return "reported nu does not dominate mu"
    return None
