"""Completely bounded norms of superoperators.

The trace-picture cb norm (diamond norm) of a map with Choi matrix J is tried
first in closed form, from one SVD J = U·Σ·V*.  Y0 = UΣU* and Y1 = VΣV*
(shifted by the SVD residual) are feasible for Watrous's dual SDP
(*Simpler semidefinite programs for completely bounded norms*,
arXiv:1207.5726; *The Theory of Quantum Information*, 2018, §3.3), and
rescaling the pair gives the upper end √(λ_max(Tr_L Y0)·λ_max(Tr_L Y1)).
The lower end is the larger of ‖J‖₁/K (the maximally entangled input) and
‖Φ(x̄·yᵀ)‖₁ for the two top eigenvectors.  Rounding is charged against both
ends, so the bracket encloses the norm of the map the given J describes.  It
is tight for CP maps (λ_max(Tr_L J)), for maps with Tr_L|J| ∝ I such as
transposes and differences of Pauli- or Weyl-covariant channels (‖J‖₁/K),
and for elementary operators x ↦ a·x·b (‖a‖·‖b‖, the Haagerup norm of an
elementary tensor).  When it is not within the requested gap the standard
two-block SDP over J decides.  Its LMI depends only on the shape (K, L) and
on whether J is Hermitian, so it is built once per shape (`_diamond_lmi`,
the last four shapes held, read-only, with the SDP's y = 0 start) and each
map computes only its objective.  The operator-picture cb norm is the diamond
norm of the trace-pairing adjoint, so for a CP map it is ‖Φ(1)‖ (Paulsen,
*Completely Bounded Maps and Operator Algebras*, Prop. 3.6); it takes no
other path.  A domain or codomain of dimension one takes the closed-form
shortcut (the norm of the image element or of the functional), and block
maps are flattened through the completely isometric block-diagonal
embeddings.
Every bracket names its `route` in the witnesses.
"""
from __future__ import annotations

import functools

import numpy as np

from ..errors import ShapeMismatchError
from ..matcore import BlockMatrix, block_dim, blockwise_transpose, tr_norm
from ..supop import SuperOp
from .brackets import NormBracket
from .sdp import HermBasis, SdpProblem, lmi_triples, sdp_solve

__all__ = [
    "diamond_norm",
    "cb_norm",
    "functional_rep",
    "dual_level_norm",
    "diamond_seesaw_lower",
]


# relative bracket width: the closed form is accepted when upper − lower ≤
# _REL_GAP·(1 + lower), and the SDP is asked for the same gap
_REL_GAP = 1e-8


def functional_rep(s: SuperOp) -> BlockMatrix:
    """Representing matrices of a functional-shaped map (codomain of dimension 1).

    The blocks r_i satisfy s(x) = Σ_i tr(r_i x_i).
    """
    if block_dim(s.cod_shape) != 1:
        raise ShapeMismatchError("functional_rep needs a codomain of dimension 1")
    # s(E_ab) = tr(r E_ab) = r[b,a]
    return BlockMatrix.from_vector(s.transfer[0][blockwise_transpose(s.dom_shape)], s.dom_shape)


# unit roundoff of float64
_U = float(np.finfo(np.float64).eps) / 2


def _gamma(n: int) -> float:
    """Higham's γₙ = n·u/(1 − n·u), which bounds the relative error of n roundings."""
    nu = n * _U
    return nu / (1.0 - nu)


def _fro(x: np.ndarray) -> float:
    """‖x‖_F (‖x‖₂ of a vector) with np.linalg.norm's own arithmetic, bit for bit."""
    x = x.ravel(order="K")
    if np.iscomplexobj(x):
        return float(np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)))
    return float(np.sqrt(x.dot(x)))


def _eig_charge(m: np.ndarray) -> float:
    """How far an `eigh` eigenvalue or `svd` singular value of the n×n m can be off.

    The computed values are exact for some m + E with ‖E‖₂ ≤ γ_{n²}·‖m‖_F
    (Householder reduction or Golub–Kahan bidiagonalization, Higham,
    *Accuracy and Stability*, §19.3; LAPACK quotes p(n)·ε·‖m‖₂), and Weyl's
    inequality, for eigenvalues of Hermitian m or for singular values, moves
    each by at most ‖E‖₂.
    """
    n = m.shape[0]
    return _gamma(n * n) * _fro(m)


def _closed_form_bracket(J: np.ndarray, K: int, L: int) -> tuple[float, float]:
    """Certified (lower, upper) for ‖Φ‖⋄ from one SVD J = U·Σ·V*.

    Upper: with r ≥ ‖J − UΣV*‖₂, Y0 = UΣU* + rI and Y1 = VΣV* + rI are
    feasible for Watrous's dual, min ½(‖Tr_L Y0‖ + ‖Tr_L Y1‖) s.t.
    [[Y0, −J], [−J*, Y1]] ⪰ 0: the block is [U; −V]·Σ·[U; −V]* plus an
    r-shift that absorbs the residual, for any computed factors.  Scaling
    (Y0, Y1) → (t·Y0, Y1/t) keeps it feasible, so ‖Φ‖⋄ ≤ √(a·b) with
    a = λ_max(Tr_L Y0), b = λ_max(Tr_L Y1).
    Lower: the larger of ‖J‖₁/K (the maximally entangled input) and
    ‖Φ(x̄·yᵀ)‖₁/(‖x‖·‖y‖), x and y the top eigenvectors of Tr_L(UΣU*) and
    Tr_L(VΣV*); J[(l,a),(l′,b)] = Φ(E_ab)[l,l′].
    The bracket is tight for CP maps (U = V, a = b = λ_max(Tr_L J)), for
    maps with Tr_L|J| ∝ I such as transposes and differences of Pauli- or
    Weyl-covariant channels (both ends ‖J‖₁/K), and for rank-one J, the
    elementary operators x ↦ a·x·b (both ends ‖a‖·‖b‖).  Charged rounding:
    γ_n for each n-term sum of complex products (entrywise against the same
    sums of absolute values), `_eig_charge` for each `eigh` and `svd`; the few
    extra roundings counted in each γ cover the charges and the final sums.
    See Watrous, *Simpler semidefinite programs for completely bounded norms*
    (arXiv:1207.5726), and *The Theory of Quantum Information* (2018), §3.3.
    """
    d = L * K
    u, s, vh = np.linalg.svd(J)
    # r ≥ ‖J − UΣV*‖₂: the computed residual plus the rounding of UΣV*
    res = _fro(J - (u * s) @ vh)
    res_abs = _fro((np.abs(u) * s) @ np.abs(vh))
    r = (res + _gamma(2 * d + 8) * res_abs) * (1.0 + _gamma(2 * d * d + d + 8))

    ends, tops = [], []
    sl = np.tile(s, L)
    # Tr_L(W·Σ·W*) = rows·Σ·rows*, rows the (K, L·d) regrouping of W = U or V;
    # each entry is an L·d-term sum, off by at most γ·(|rows|·Σ·|rows|ᵀ)
    rows = [w.reshape(L, K, d).transpose(1, 0, 2).reshape(K, L * d) for w in (u, vh.conj().T)]
    ms = np.stack([(rw * sl) @ rw.conj().T for rw in rows])
    lams, vecs = np.linalg.eigh(ms)
    for rw, m, lam, vec in zip(rows, ms, lams, vecs):
        m_abs = (np.abs(rw) * sl) @ np.abs(rw).T
        # m is Tr_L of a PSD matrix, so its top eigenvalue is at least 0
        top = max(0.0, float(lam[-1])) + _eig_charge(m)
        top += _gamma(L * d + 4) * _fro(m_abs)
        ends.append((top + r * L) * (1.0 + _gamma(4)))
        tops.append(vec[:, -1])
    upper = float(np.sqrt(ends[0] * ends[1])) * (1.0 + _gamma(4))

    lower_me = (float(s.sum()) * (1.0 - _gamma(d + 2)) - d * _eig_charge(J)) / K * (1.0 - _gamma(2))
    # Φ(x̄·yᵀ): K²-term sums of triple products, off by at most γ·|J|(|x|, |y|)
    x, y = tops
    J4 = J.reshape(L, K, L, K)
    img = np.einsum("lamb,a,b->lm", J4, x.conj(), y)
    img_abs = np.einsum("lamb,a,b->lm", np.abs(J4), np.abs(x), np.abs(y))
    tn = float(np.linalg.svd(img, compute_uv=False).sum()) * (1.0 - _gamma(L + 2))
    tn -= L * _eig_charge(img) + L**0.5 * _gamma(K * K + 8) * _fro(img_abs)
    lower_xy = tn / (_fro(x) * _fro(y)) * (1.0 - _gamma(4 * K + 8))
    return max(lower_me, lower_xy), upper


def _traceless(K: int):
    """Triples (param, row, col, val) of a basis of the traceless Hermitian K×K matrices.

    The K−1 directions E_kk − E_{K−1,K−1}, then the off-diagonal pairs of
    `HermBasis(K)`: ρ = I/K + Σⱼ tⱼ·Bⱼ has tr ρ = 1 for every real t.
    """
    hb = HermBasis(K)
    off = hb.param >= K
    k, last = np.arange(K - 1), np.full(K - 1, K - 1)
    return (
        np.concatenate([k, k, hb.param[off] - 1]),
        np.concatenate([k, last, hb.row[off]]),
        np.concatenate([k, last, hb.col[off]]),
        np.concatenate([np.ones(K - 1), -np.ones(K - 1), hb.val[off]]),
    )


@functools.lru_cache(maxsize=4)
def _diamond_lmi(K: int, L: int, herm: bool) -> SdpProblem:
    """The diamond LMI of shape (K, L), with c = 0; `_diamond_sdp` states its objective.

    Each ρ is I/K plus a traceless Hermitian part (`_traceless`), so tr ρ = 1
    holds exactly by parameterization and the LMI has F0 = I_{2·L·K}/K: the
    point ρ = I/K, X = 0 at y = 0 is strictly feasible, as the SDP core
    requires.  For Hermitian J the optimum is attained with ρ0 = ρ1 and X
    Hermitian (feasible points symmetrize without changing the objective),
    which halves the variable count.  The LMI is one complex Hermitian block
    of size 2·L·K, built directly as complex triples from the index arrays of
    `HermBasis` and handed to the SDP core as it is.

    None of this depends on J, so it is built once per shape and held,
    read-only, with the SDP start that the first solve over it computes, for
    the last four shapes.  For non-Hermitian J with K = L = n that is 44 kB
    at n = 2, 0.44 MB at n = 3, 2.9 MB at n = 4 and 15 MB at n = 5 (Hermitian
    J: about half or less), nearly all of it the start's m×m Newton factor;
    a shape whose factor exceeds 32 MiB (n ≥ 6) holds the LMI alone.
    """
    d = L * K
    tl = _traceless(K)
    n_h = K * K - 1
    # 1_L ⊗ ρ: the L diagonal copies of each traceless basis entry
    off = (np.arange(L) * K)[:, None]
    rho = (np.tile(tl[0], L), (off + tl[1]).ravel(), (off + tl[2]).ravel(), np.tile(tl[3], L))
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
    con, row, col, val = (np.concatenate(f) for f in zip(*parts))
    prob = SdpProblem(c=np.zeros(m), f0=[np.eye(2 * d) / K], fs=[lmi_triples(con, row, col, val)])
    for x in (prob.c, *prob.f0, *prob.fs):
        x.flags.writeable = False
    return prob


def _diamond_sdp(J: np.ndarray, K: int, L: int) -> NormBracket:
    """max Re tr(J†X) s.t. [[1_L⊗ρ0, X], [X†, 1_L⊗ρ1]] ⪰ 0, tr ρ = 1.

    The LMI comes from `_diamond_lmi`, built once per (K, L, Hermitian J);
    only the objective c is computed from J.  A solver failure or a
    certificate whose dual value crosses its primal value beyond rounding
    gives `unknown`, with the reason in the witnesses.
    """
    d = L * K
    herm = bool(np.allclose(J, J.conj().T, atol=1e-13, rtol=0.0))
    prob = _diamond_lmi(K, L, herm)
    n_h = K * K - 1
    c = np.zeros(prob.c.size)
    if herm:
        hx = HermBasis(d)
        c[n_h:] = -np.bincount(hx.param, weights=(J[hx.col, hx.row] * hx.val).real, minlength=len(hx))
    else:
        c[2 * n_h :: 2] = -J.real.ravel()
        c[2 * n_h + 1 :: 2] = -J.imag.ravel()
    res = sdp_solve(prob.with_objective(c), rel_gap=_REL_GAP)
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


def diamond_norm(s: SuperOp) -> NormBracket:
    """cb norm of s viewed T_dom → T_cod (the diamond norm).

    The closed-form bracket of `_closed_form_bracket` is returned when its
    width is within _REL_GAP·(1 + lower), which holds for completely positive
    maps, transposes, differences of Pauli- or Weyl-covariant channels and
    elementary operators x ↦ a·x·b; any other map goes to the SDP.
    `witnesses["route"]` says which.
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
        # a functional on ⊕T: its ball is the hull of the block trace-norm
        # balls, so the norm is max_i ‖r_i‖
        return NormBracket.exactly(functional_rep(s).op_norm(), closed)
    J = s.big_choi()
    lower, upper = _closed_form_bracket(J, K, L)
    if upper - lower <= _REL_GAP * (1.0 + abs(lower)):
        return NormBracket.from_bounds(max(0.0, lower), upper, closed)
    return _diamond_sdp(J, K, L)


def cb_norm(s: SuperOp, picture: str) -> NormBracket:
    """cb norm of s viewed ⊕T → ⊕T ("trace") or ⊕M → ⊕M ("operator").

    The operator-picture norm is the diamond norm of the trace-pairing
    adjoint (Watrous 2018, §3.3; Paulsen, Prop. 3.6).
    """
    if picture == "trace":
        return diamond_norm(s)
    if picture != "operator":
        raise ValueError(f"unknown picture {picture!r}")
    return diamond_norm(s.adjoint())


def dual_level_norm(coords: np.ndarray, dom_shape, level: int) -> NormBracket:
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
    # b ↦ [tr(r_ij b)]: row (i, j) of the transfer matrix is vec(r_ijᵀ)
    phi = SuperOp(dom_shape, (k,), coords.reshape(k * k, dim)[:, blockwise_transpose(dom_shape)])
    return cb_norm(phi, "operator")


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
