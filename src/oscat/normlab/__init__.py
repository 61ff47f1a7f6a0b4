"""Numerical-optimization core: sparse SDP solver and norm brackets."""
from .sdp import SdpProblem, SdpResult, sdp_solve, lmi_triples, HermBasis
from .diamond import (
    diamond_norm,
    cb_norm,
    dual_level_norm,
    functional_norm,
    diamond_seesaw_lower,
)
from .brackets import NormBracket, FlatSpace

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
]
