"""Run-wide configuration: seed and tolerance.

No norm routine draws random numbers: every bracket depends only on its
input.  The seed feeds the sampled claims of the quantum-switch report and
the acceptance battery through ``RunConfig.rng``; results are deterministic
for a fixed (seed, tol).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    # outside equality and hashing, so it never splits the norm cache
    caps: BracketCaps = field(default_factory=BracketCaps, compare=False)

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed, salt))
