"""Completely bounded norms of superoperators.

The trace-picture cb norm (diamond norm) is computed by the standard
two-block SDP over the Choi matrix; the operator-picture cb norm is the
diamond norm of the trace-pairing adjoint.  Scalar domains/codomains take
the closed-form shortcut (cb-norm = operator norm there), and block maps are
flattened through the completely isometric block-diagonal embeddings.
"""
from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatchError
from ..matcore import BlockMatrix, op_norm, tr_norm
from ..supop import SuperOp
from .brackets import NormBracket
from .sdp import HermBasis, SdpProblem, lmi_triples, sdp_solve

__all__ = [
    "diamond_norm",
    "cb_norm",
    "functional_norm",
    "functional_rep",
    "dual_level_norm",
    "diamond_seesaw_lower",
]


def functional_rep(s: SuperOp) -> BlockMatrix:
    """Representing matrices of a functional-shaped map (codomain [1]).

    The blocks r_i satisfy s(x) = Σ_i tr(r_i x_i).
    """
    if tuple(s.cod_shape) != (1,):
        raise ShapeMismatchError("functional_rep needs codomain shape [1]")
    reps = []
    for i, k in enumerate(s.dom_shape):
        # s(E_ab) = tr(r E_ab) = r[b,a]
        kt = s.transfer_block(i, 0).reshape(k, k)  # entry (a,b): s(E_ab)
        reps.append(kt.T.copy())
    return BlockMatrix(reps)


def functional_norm(rep: BlockMatrix, picture: str) -> float:
    """Norm of the functional x ↦ Σ tr(r_i x_i) on ⊕M (operator) or ⊕T (trace).

    Operator picture: the unit ball is the ℓ∞ product of operator-norm balls,
    so the norm is Σ_i ‖r_i‖_tr.  Trace picture: the ball is the convex hull
    of the block trace-norm balls, giving max_i ‖r_i‖.
    """
    if picture == "operator":
        return sum(tr_norm(b) for b in rep.blocks)
    if picture == "trace":
        return max((op_norm(b) for b in rep.blocks), default=0.0)
    raise ValueError(f"unknown picture {picture!r}")


def _embed_triples(con, row, col, val, dim_c: int) -> np.ndarray:
    """LMI triples of real_embed_herm(B) from complex triples of B (dim_c × dim_c)."""
    re_, im_ = val.real, val.imag
    tri = (
        np.concatenate([con] * 4),
        np.concatenate([row, row + dim_c, row + dim_c, row]),
        np.concatenate([col, col + dim_c, col, col + dim_c]),
        np.concatenate([re_, re_, im_, -im_]),
    )
    keep = tri[3] != 0
    return lmi_triples(*(a[keep] for a in tri))


def _diamond_sdp(J: np.ndarray, K: int, L: int, rel_gap: float) -> NormBracket:
    """max Re tr(J†X) s.t. [[1_L⊗ρ0, X], [X†, 1_L⊗ρ1]] ⪰ 0, tr ρ = 1.

    For Hermitian J the optimum is attained with ρ0 = ρ1 and X Hermitian
    (feasible points symmetrize without changing the objective), which halves
    the variable count.  The LMI is built directly as triples from the index
    arrays of `HermBasis`.  A solver failure or a certificate whose dual value
    crosses its primal value beyond rounding gives `unknown`, with the reason
    in the witnesses.
    """
    d = L * K
    herm = bool(np.allclose(J, J.conj().T, atol=1e-13, rtol=0.0))
    hb = HermBasis(K)
    n_h = len(hb)
    dim_c = 2 * d  # complex block size
    # 1_L ⊗ ρ: the L diagonal copies of each ρ-basis entry
    off = (np.arange(L) * K)[:, None]
    rho = (np.tile(hb.param, L), (off + hb.row).ravel(), (off + hb.col).ravel(), np.tile(hb.val, L))

    if herm:
        hx = HermBasis(d)
        m = n_h + len(hx)
        xp = n_h + hx.param
        parts = [
            rho,
            (rho[0], rho[1] + d, rho[2] + d, rho[3]),
            (xp, hx.row, hx.col + d, hx.val),
            (xp, hx.col + d, hx.row, hx.val.conj()),
        ]
        c = np.zeros(m)
        c[n_h:] = -np.bincount(hx.param, weights=(J[hx.col, hx.row] * hx.val).real, minlength=len(hx))
        eq_a = np.zeros((1, m))
        eq_a[0, :K] = 1.0
        eq_b = np.ones(1)
        slater = np.zeros(m)
        slater[:K] = 1.0 / K
    else:
        m = 2 * n_h + 2 * d * d
        a, b = np.divmod(np.arange(d * d), d)
        xre = 2 * n_h + 2 * np.arange(d * d)  # Re of X[a, b]; Im is xre + 1
        one = np.ones(d * d, dtype=np.complex128)
        parts = [
            rho,
            (rho[0] + n_h, rho[1] + d, rho[2] + d, rho[3]),
            (xre, a, d + b, one),
            (xre, d + b, a, one),
            (xre + 1, a, d + b, 1j * one),
            (xre + 1, d + b, a, -1j * one),
        ]
        c = np.zeros(m)
        c[2 * n_h :: 2] = -J.real.ravel()
        c[2 * n_h + 1 :: 2] = -J.imag.ravel()
        eq_a = np.zeros((2, m))
        eq_a[0, :K] = 1.0
        eq_a[1, n_h : n_h + K] = 1.0
        eq_b = np.ones(2)
        slater = np.zeros(m)
        slater[:K] = 1.0 / K
        slater[n_h : n_h + K] = 1.0 / K

    con, row, col, val = (np.concatenate(f) for f in zip(*parts))
    prob = SdpProblem(
        c=c,
        f0=[np.zeros((2 * dim_c, 2 * dim_c))],
        fs=[_embed_triples(con, row, col, val, dim_c)],
        eq_a=eq_a,
        eq_b=eq_b,
        slater=slater,
    )
    res = sdp_solve(prob, rel_gap=rel_gap)
    if res.status != "optimal":
        reason = f"sdp {res.status}" + (f": {res.message}" if res.message else "")
        return NormBracket.unknown(
            {"reason": reason, "sdp_status": res.status, "sdp_message": res.message}
        )
    lower = max(0.0, -res.value)
    upper = -res.dual_value
    if lower - upper > 1e-12 * (1.0 + abs(res.value)):
        return NormBracket.unknown(
            {"reason": "crossed certificate", "value": res.value, "dual_value": res.dual_value}
        )
    # a crossing within rounding: the certificate's upper end is the lower end
    upper = max(lower, upper)
    return NormBracket.from_bounds(lower, upper, {"sdp_iterations": res.iterations})


def diamond_norm(s: SuperOp, rel_gap: float = 1e-8) -> NormBracket:
    """cb norm of s viewed T_dom → T_cod (the diamond norm)."""
    K, L = sum(s.dom_shape), sum(s.cod_shape)
    if K == 0 or L == 0:
        return NormBracket.exactly(0.0)
    if K == 1:
        # map C → ⊕T: norm of the image element
        img = s.apply(BlockMatrix.identity(s.dom_shape))
        return NormBracket.exactly(img.tr_norm())
    if L == 1:
        return NormBracket.exactly(functional_norm(functional_rep(s), "trace"))
    return _diamond_sdp(s.big_choi(), K, L, rel_gap)


def cb_norm(s: SuperOp, picture: str, rel_gap: float = 1e-8) -> NormBracket:
    """cb norm in the stated picture; scalar ends short-circuit to op norms."""
    K, L = sum(s.dom_shape), sum(s.cod_shape)
    if picture == "trace":
        return diamond_norm(s, rel_gap)
    if picture != "operator":
        raise ValueError(f"unknown picture {picture!r}")
    if K == 0 or L == 0:
        return NormBracket.exactly(0.0)
    if K == 1:
        img = s.apply(BlockMatrix.identity(s.dom_shape))
        return NormBracket.exactly(img.op_norm())
    if L == 1:
        return NormBracket.exactly(functional_norm(functional_rep(s), "operator"))
    return diamond_norm(s.adjoint(), rel_gap)


def dual_level_norm(coords: np.ndarray, dom_shape, level: int, rel_gap: float = 1e-8) -> NormBracket:
    """Norm of x ∈ M_k((⊕∞M)*): the cb norm of b ↦ [⟨x_ij, b⟩] into M_k.

    coords has shape (k, k, dim) with the trace-pairing representing vectors
    of each entry (pairing ⟨r, b⟩ = Σ_i tr(r_i b_i)).
    """
    dom_shape = tuple(dom_shape)
    k = level
    coords = np.asarray(coords, dtype=np.complex128)
    dim = sum(n * n for n in dom_shape)
    if coords.shape != (k, k, dim):
        raise ShapeMismatchError(f"coords shape {coords.shape} for level {k}")
    if k == 1:
        rep = BlockMatrix.from_vector(coords[0, 0], dom_shape)
        return NormBracket.exactly(functional_norm(rep, "operator"))
    reps = [
        [BlockMatrix.from_vector(coords[i, j], dom_shape) for j in range(k)]
        for i in range(k)
    ]

    def act(b: BlockMatrix) -> BlockMatrix:
        out = np.empty((k, k), dtype=np.complex128)
        for i in range(k):
            for j in range(k):
                out[i, j] = sum(
                    np.trace(r @ x) for r, x in zip(reps[i][j].blocks, b.blocks)
                )
        return BlockMatrix([out])

    phi = SuperOp.from_action(act, dom_shape, (k,))
    return cb_norm(phi, "operator", rel_gap)


def diamond_seesaw_lower(
    s: SuperOp,
    level: int | None = None,
    rng: np.random.Generator | None = None,
    starts: int = 6,
    iters: int = 60,
    init_pairs=None,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Brute-force lower bound: max ‖(id_k ⊗ s)(ψφ†)‖_tr over unit vectors.

    Independent of the SDP route; converges to the diamond norm when `level`
    reaches the domain dimension.  Returns (value, best (ψ, φ)).
    """
    rng = rng or np.random.default_rng(0)
    K, L = sum(s.dom_shape), sum(s.cod_shape)
    k = level if level is not None else K
    big = SuperOp.from_big_choi(s.big_choi(), (K,), (L,))
    lam = SuperOp.from_big_choi(
        SuperOp.from_action(lambda x: x, (k,), (k,)).tensor(big).big_choi(),
        (k * K,),
        (k * L,),
    )
    dim = k * K

    def trnorm_of(psi, phi):
        return tr_norm(lam(np.outer(psi, phi.conj())))

    def unit(v):
        n = np.linalg.norm(v)
        return v / n if n > 0 else v

    best_val, best_pair = 0.0, None
    cand = []
    for _ in range(starts):
        cand.append(
            (
                unit(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)),
                unit(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)),
            )
        )
    if init_pairs:
        cand.extend(init_pairs)
    basis = np.eye(dim)
    for psi, phi in cand:
        for _ in range(iters):
            m = lam(np.outer(psi, phi.conj()))
            u, sv, vh = np.linalg.svd(m)
            uopt = u @ vh  # maximizer of Re tr(U† M) over contractions
            # linearize in ψ: Re tr(U†Λ(ψφ†)) = Re Σ_a ψ_a c_a
            cvec = np.array(
                [np.trace(uopt.conj().T @ lam(np.outer(basis[a], phi.conj()))) for a in range(dim)]
            )
            psi_new = unit(cvec.conj())
            tvec = np.array(
                [np.trace(uopt.conj().T @ lam(np.outer(psi_new, basis[b]))) for b in range(dim)]
            )
            phi_new = unit(tvec)
            if (
                np.linalg.norm(psi_new - psi) < 1e-12
                and np.linalg.norm(phi_new - phi) < 1e-12
            ):
                psi, phi = psi_new, phi_new
                break
            psi, phi = psi_new, phi_new
        val = trnorm_of(psi, phi)
        if val > best_val:
            best_val, best_pair = val, (psi, phi)
    return best_val, best_pair
