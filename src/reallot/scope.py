"""How much of a domain a sweep covers, and the seeds of its sampled
profiles.

Every sweep in the package (equivalence, strategy-proofness, the TTC
corollary) takes a :class:`Scope` and refuses work beyond its budget,
``core.DEFAULT_BUDGET`` unless ``REALLOT_BUDGET`` raises it; the budget
lives in ``core`` so that ``reallot enum`` can apply it too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def _trial_seeds(seed: int | None, trials: int) -> list[int]:
    master = random.Random(seed)
    return [master.getrandbits(64) for _ in range(trials)]


@dataclass(frozen=True)
class Scope:
    """How much of a domain to sweep: everything, or sampled profiles."""

    kind: str
    seed: int | None = None
    trials: int | None = None

    def __post_init__(self):
        if self.kind not in ("exhaustive", "randomized"):
            raise ValueError(f"unknown scope kind: {self.kind}")
        if self.kind == "randomized":
            if self.seed is None or not self.trials:
                raise ValueError("randomized scope needs a seed and a trial count")
            if self.trials < 1:
                raise ValueError(f"trial count must be at least 1, got {self.trials}")

    @classmethod
    def exhaustive(cls) -> Scope:
        return cls("exhaustive")

    @classmethod
    def randomized(cls, seed: int, trials: int) -> Scope:
        return cls("randomized", seed=seed, trials=trials)

    def describe(self) -> str:
        if self.kind == "exhaustive":
            return "exhaustive"
        return f"randomized(seed={self.seed}, trials={self.trials})"
