"""Run-wide configuration: seeds, tolerances and search caps.

Every randomized routine takes either a ``numpy.random.Generator`` or a
``RunConfig``; results are deterministic for a fixed seed.  Haagerup norms
are exact SDPs and take neither.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9
DIM_CAP = 4096


@dataclass(frozen=True)
class BracketCaps:
    """Search caps for the randomized witness searches.

    witnesses: random dual functionals tried by the projective bracket;
    ascent_steps: steps per start of the quantum-switch ratio ascent.
    """

    witnesses: int = 64
    ascent_steps: int = 120


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    tol: float = DEFAULT_TOL
    caps: BracketCaps = field(default_factory=BracketCaps)

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed, salt))
