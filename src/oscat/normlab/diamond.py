"""Completely bounded norms of superoperators.

The trace-picture cb norm (diamond norm) of a map with Choi matrix J is tried
first in closed form.  For a completely positive map ‖Φ‖⋄ = ‖Φ*(1)‖ =
λ_max(Tr_L J) (Watrous, *The Theory of Quantum Information*, 2018, §3.3), and
the same eigenproblem brackets every map: with H, A the Hermitian and
anti-Hermitian parts of J and ε = max(0, −λ_min(H)),

    ψ*(Tr_L H)ψ ≤ ‖Φ‖⋄ ≤ λ_max(Tr_L H) + 2εL + ‖A‖₁,

ψ the top eigenvector of Tr_L H.  Rounding is charged against both ends, so
the bracket encloses the norm of the map the given J describes.  When it is
not within the requested gap (a map that is not CP) the standard two-block
SDP over J decides.  The operator-picture cb norm is the diamond norm of the
trace-pairing adjoint, so for a CP map it is ‖Φ(1)‖ (Paulsen, *Completely
Bounded Maps and Operator Algebras*, Prop. 3.6).  Scalar domains/codomains
take the closed-form shortcut (cb-norm = operator norm there), and block maps
are flattened through the completely isometric block-diagonal embeddings.
Every bracket names its `route` in the witnesses.
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


def _gamma(n: int) -> float:
    """Higham's γₙ = n·u/(1 − n·u), which bounds the relative error of n roundings."""
    nu = n * float(np.finfo(np.float64).eps) / 2
    return nu / (1.0 - nu)


def _eig_charge(m: np.ndarray) -> float:
    """How far an `eigh` eigenvalue of the n×n Hermitian m can be from the exact one.

    The computed eigenvalues are exact for some m + E with ‖E‖₂ ≤ γ_{n²}·‖m‖_F
    (Householder reduction, Higham, *Accuracy and Stability*, §19.3; LAPACK
    quotes p(n)·ε·‖m‖₂), and Weyl's inequality moves each by at most ‖E‖₂.
    """
    n = m.shape[0]
    return _gamma(n * n) * float(np.linalg.norm(m))


def _closed_form_bracket(J: np.ndarray, K: int, L: int) -> tuple[float, float]:
    """Certified (lower, upper) for ‖Φ‖⋄ from one eigenproblem on Tr_L H.

    Lower: σ = ψ̄ψᵀ has unit trace, so |tr Φ(σ)| ≥ Re ψ*(Tr_L J)ψ = ψ*(Tr_L H)ψ
    bounds every map.  Upper: H + εI ⪰ 0 and the map with Choi matrix I has
    diamond norm L, so ‖Φ_H‖⋄ ≤ λ_max(Tr_L H) + 2εL; and ‖Φ_A‖⋄ ≤ ‖A‖₁ ≤
    √(LK)·‖A‖_F.  The split J = h + (J − h) is exact for the computed h, which
    is exactly Hermitian; the computed a is J − h to one rounding per entry.
    Charged rounding: Tr_L by γ_{2L} on Tr_L|J| (complex sums), the Rayleigh
    quotient by its two K-term complex products, ‖ψ‖² and the quotient,
    eigenvalues by `_eig_charge`; the few extra roundings counted in each γ
    cover the charges and the final sums.  Only for a CP map (ε, A ≈ 0) is
    the bracket tight.
    """
    d = L * K
    h = (J + J.conj().T) * 0.5
    a = J - h
    tabs = np.einsum("lalb->ab", np.abs(J).reshape(L, K, L, K))
    th = np.einsum("lalb->ab", h.reshape(L, K, L, K))
    lam, vec = np.linalg.eigh(th)
    psi = vec[:, -1]
    nrm = float(np.vdot(psi, psi).real)
    ray = float(np.vdot(psi, th @ psi).real) / nrm
    ap = np.abs(psi)
    lower = ray - _gamma(2 * L + 6 * K + 12) * float(ap @ tabs @ ap) / nrm
    eps = max(0.0, _eig_charge(h) - float(np.linalg.eigvalsh(h)[0]))
    terms = (
        float(lam[-1]),
        _eig_charge(th),
        _gamma(2 * L + 2) * float(np.linalg.norm(tabs)),
        2.0 * L * eps,
        float(np.sqrt(d) * np.linalg.norm(a)) * (1.0 + _gamma(2 * d * d + 4)),
    )
    upper = sum(terms) + _gamma(len(terms)) * sum(abs(t) for t in terms)
    return lower, upper


def _diamond_sdp(J: np.ndarray, K: int, L: int, rel_gap: float) -> NormBracket:
    """max Re tr(J†X) s.t. [[1_L⊗ρ0, X], [X†, 1_L⊗ρ1]] ⪰ 0, tr ρ = 1.

    For Hermitian J the optimum is attained with ρ0 = ρ1 and X Hermitian
    (feasible points symmetrize without changing the objective), which halves
    the variable count.  The LMI is one complex Hermitian block of size 2·L·K,
    built directly as complex triples from the index arrays of `HermBasis`
    and handed to the SDP core as it is.  A solver failure or a certificate
    whose dual value crosses its primal value beyond rounding gives
    `unknown`, with the reason in the witnesses.
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
        f0=[np.zeros((dim_c, dim_c))],
        fs=[lmi_triples(con, row, col, val)],
        eq_a=eq_a,
        eq_b=eq_b,
        slater=slater,
    )
    res = sdp_solve(prob, rel_gap=rel_gap)
    if res.status != "optimal":
        reason = f"sdp {res.status}" + (f": {res.message}" if res.message else "")
        return NormBracket.unknown(
            {"route": "sdp", "reason": reason, "sdp_status": res.status, "sdp_message": res.message}
        )
    lower = max(0.0, -res.value)
    upper = -res.dual_value
    if lower - upper > 1e-12 * (1.0 + abs(res.value)):
        return NormBracket.unknown(
            {"route": "sdp", "reason": "crossed certificate",
             "value": res.value, "dual_value": res.dual_value}
        )
    return NormBracket.from_bounds(lower, upper, {"route": "sdp", "sdp_iterations": res.iterations})


def diamond_norm(s: SuperOp, rel_gap: float = 1e-8) -> NormBracket:
    """cb norm of s viewed T_dom → T_cod (the diamond norm).

    The closed-form bracket of `_closed_form_bracket` is returned when its
    width is within rel_gap·(1 + lower), which holds for completely positive
    maps, where ‖Φ‖⋄ = λ_max(Tr_L J) with rounding charged against both ends;
    any other map goes to the SDP.  `witnesses["route"]` says which.
    """
    K, L = sum(s.dom_shape), sum(s.cod_shape)
    closed = {"route": "closed form"}
    if K == 0 or L == 0:
        return NormBracket.exactly(0.0, closed)
    if K == 1:
        # map C → ⊕T: norm of the image element
        img = s.apply(BlockMatrix.identity(s.dom_shape))
        return NormBracket.exactly(img.tr_norm(), closed)
    if L == 1:
        return NormBracket.exactly(functional_norm(functional_rep(s), "trace"), closed)
    J = s.big_choi()
    lower, upper = _closed_form_bracket(J, K, L)
    if upper - lower <= rel_gap * (1.0 + abs(lower)):
        return NormBracket.from_bounds(max(0.0, lower), upper, closed)
    return _diamond_sdp(J, K, L, rel_gap)


def cb_norm(s: SuperOp, picture: str, rel_gap: float = 1e-8) -> NormBracket:
    """cb norm in the stated picture; scalar ends short-circuit to op norms."""
    K, L = sum(s.dom_shape), sum(s.cod_shape)
    if picture == "trace":
        return diamond_norm(s, rel_gap)
    if picture != "operator":
        raise ValueError(f"unknown picture {picture!r}")
    closed = {"route": "closed form"}
    if K == 0 or L == 0:
        return NormBracket.exactly(0.0, closed)
    if K == 1:
        img = s.apply(BlockMatrix.identity(s.dom_shape))
        return NormBracket.exactly(img.op_norm(), closed)
    if L == 1:
        return NormBracket.exactly(functional_norm(functional_rep(s), "operator"), closed)
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
    # block i maps vec(b_i) to [tr(r_ij b_i)]: row (i, j) is vec(r_ijᵀ)
    blocks, off = [], 0
    for n in dom_shape:
        reps = coords[:, :, off : off + n * n].reshape(k * k, n, n)
        blocks.append([reps.transpose(0, 2, 1).reshape(k * k, n * n)])
        off += n * n
    phi = SuperOp.from_transfer_blocks(blocks, dom_shape, (k,))
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
