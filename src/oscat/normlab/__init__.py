"""Numerical-optimization core: sparse SDP solver and norm brackets."""
from .sdp import SdpProblem, SdpResult, sdp_solve, lmi_triples, HermBasis
from .diamond import (
    diamond_norm,
    cb_norm,
    dual_level_norm,
    functional_norm,
    diamond_seesaw_lower,
)
from .brackets import (
    NormBracket,
    FlatSpace,
    haagerup_bracket_flat,
    proj_bracket_flat,
    inj_norm_flat,
)


def haagerup_bracket(v, level, x_space, y_space):
    """Haagerup norm of an element of x_space ⊗_h y_space.

    Accepts osx SpaceExpr operands; they must be concretely realizable.
    """
    from ..osx import flat_realization

    return haagerup_bracket_flat(
        v, level, flat_realization(x_space), flat_realization(y_space)
    )


def proj_upper(v, level, x_space, y_space):
    from ..osx import flat_realization

    return proj_bracket_flat(v, level, flat_realization(x_space), flat_realization(y_space))


def inj_norm(v, level, x_space, y_space):
    from ..osx import flat_realization

    return inj_norm_flat(v, level, flat_realization(x_space), flat_realization(y_space))


__all__ = [
    "SdpProblem",
    "SdpResult",
    "sdp_solve",
    "lmi_triples",
    "HermBasis",
    "diamond_norm",
    "cb_norm",
    "dual_level_norm",
    "functional_norm",
    "diamond_seesaw_lower",
    "NormBracket",
    "FlatSpace",
    "haagerup_bracket",
    "haagerup_bracket_flat",
    "proj_upper",
    "proj_bracket_flat",
    "inj_norm",
    "inj_norm_flat",
]
