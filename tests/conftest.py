"""Shared fixtures: the 3-agent mixed-domain gap instance, builders, and
the envy-graph oracle."""

from dataclasses import dataclass

import pytest

from reallot.core import Allocation, Instance, LinearOrder, Preference, Profile


def pref(text: str) -> Preference:
    """Build a preference from 'h2 h3 h1' style text (default names)."""
    return Preference(tuple(int(tok[1:]) - 1 for tok in text.split()))


def profile_from(*rows: str, order: LinearOrder | None = None) -> Profile:
    prefs = tuple(pref(row) for row in rows)
    inst = Instance.default(len(prefs), order)
    return Profile(inst, prefs)


@dataclass(frozen=True)
class EnvyGraph:
    """Boolean adjacency of the envy relation at one allocation (edge
    a -> b when a strictly prefers b's house), built straight from the
    definition as an oracle for the efficiency checkers."""

    adjacency: tuple[tuple[bool, ...], ...]

    @classmethod
    def from_assignment(cls, profile: Profile, mu: Allocation) -> "EnvyGraph":
        ranks = [p.rank_of for p in profile.prefs]
        n = profile.n
        assign = mu.assign
        rows = []
        for a in range(n):
            ra = ranks[a]
            own = ra[assign[a]]
            rows.append(tuple(b != a and ra[assign[b]] < own for b in range(n)))
        return cls(tuple(rows))

    def has_edge(self, a: int, b: int) -> bool:
        return self.adjacency[a][b]

    def successors(self, a: int) -> tuple[int, ...]:
        return tuple(b for b, e in enumerate(self.adjacency[a]) if e)

    def two_cycles(self) -> list[tuple[int, int]]:
        adj = self.adjacency
        n = len(adj)
        return [(a, b) for a in range(n) for b in range(a + 1, n) if adj[a][b] and adj[b][a]]


@pytest.fixture
def gap_example():
    """The 3-agent instance where a pair-efficient allocation is dominated:
    one single-dipped agent between two single-peaked ones."""
    profile = profile_from("h2 h3 h1", "h3 h1 h2", "h1 h2 h3")
    mu = Allocation((2, 0, 1))
    nu = Allocation((1, 2, 0))
    return profile, mu, nu
