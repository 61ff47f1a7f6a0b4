"""Run-wide configuration: seed and tolerance.

Nothing outside the acceptance battery draws random numbers, and nothing
keeps state between calls: every bracket and every quantum-switch claim is a
function of its input alone.  The seed feeds only the acceptance battery,
through ``RunConfig.rng``; the tolerance sets the pass/fail checks (CP, TP,
unital, laws, morphisms, membership), not the norm brackets.  Results are
deterministic for a fixed (seed, tol).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

__all__ = ["DEFAULT_TOL", "DIM_CAP", "BracketCaps", "RunConfig"]

DEFAULT_TOL = 1e-9
DIM_CAP = 4096


@dataclass(frozen=True)
class BracketCaps:
    """Unused by oscat; kept because perfbench/workloads.py still builds it.

    ascent_steps: steps per start of the former quantum-switch ratio ascent.
    """

    ascent_steps: int = 120


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    tol: float = DEFAULT_TOL
    # unread by oscat (see BracketCaps), and kept out of equality and hashing
    caps: BracketCaps = field(default_factory=BracketCaps, compare=False)

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise InvalidInputError(f"tolerance must be finite and >= 0, got {self.tol}")

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed, salt))
