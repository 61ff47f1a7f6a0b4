"""oscat: verification toolkit for finite-dimensional operator spaces.

Matrix kernel, superoperators with Choi calculus, a self-contained SDP layer
for diamond/cb norms and tensor-norm brackets, von Neumann (co)algebras with
law suites and duality, the glued category of bipolar pairs, and a session
CLI.  See README.md for an overview and the tutorial session.
"""
from .config import RunConfig
from .errors import (
    InvalidInputError,
    OscatError,
    ShapeMismatchError,
    SizeLimitError,
    UnsupportedSpaceError,
)
from .matcore import (
    BlockMatrix,
    cmatrix,
    direct_sum,
    format_matrix_literal,
    herm_eig,
    kron,
    op_norm,
    parse_matrix_literal,
    psd_check,
    tr_norm,
)
from .normlab import (
    NormBracket,
    SdpProblem,
    cb_norm,
    diamond_norm,
    sdp_solve,
)
from .osx import (
    M,
    SpaceElement,
    SpaceExpr,
    T,
    canonical_map,
    conj,
    conj_opp_push,
    dual,
    format_space,
    norm_at,
    opp,
    parse_space,
    sum_1,
    sum_inf,
    tens_h,
    tens_min,
    tens_proj,
)
from .qglue import (
    QObject,
    SetSpec,
    check_morphism,
    connective,
    embed_H,
    embed_S,
    membership,
    polar,
    quantum_switch,
    quantum_switch_map,
)
from .supop import (
    ChannelFlags,
    SuperOp,
    conjugation,
    depolarizing,
    identity_map,
    partial_trace,
    trace_map,
    transpose_map,
)
from .vnstruct import (
    LawReport,
    VnAlgebra,
    VnCoalgebra,
    certify_morphism,
    check_laws,
    dualize,
    make_algebra,
    make_coalgebra,
    positivity,
)

__version__ = "0.1.0"
