"""Completely bounded norms of superoperators.

The trace-picture cb norm (diamond norm) of a map with Choi matrix J takes
one of four routes, and every bracket names its `route` in the witnesses.

- `closed form`: one SVD J = U·Σ·V*.  Y0 = UΣU* and Y1 = VΣV* (shifted by
  the SVD residual) are feasible for Watrous's dual SDP (*Simpler
  semidefinite programs for completely bounded norms*, arXiv:1207.5726;
  *The Theory of Quantum Information*, 2018, §3.3), and rescaling the pair
  gives the upper end √(λ_max(Tr_L Y0)·λ_max(Tr_L Y1)).  The lower end is
  ‖J‖₁/K (the maximally entangled input) when that closes the bracket, and
  otherwise the larger of it and ‖Φ(x̄·yᵀ)‖₁ for the two top eigenvectors,
  which is evaluated only then.  Rounding is charged against both ends, so the
  bracket encloses the norm of the map the given J describes.  It is tight
  for CP maps (λ_max(Tr_L J)), for maps with Tr_L|J| ∝ I such as transposes
  and differences of Pauli- or Weyl-covariant channels (‖J‖₁/K), and for
  elementary operators x ↦ a·x·b (‖a‖·‖b‖, the Haagerup norm of an
  elementary tensor).
- `reweighted closed form`: the same bracket at weights, from one SVD of
  (1_L⊗a)·J·(1_L⊗b), is sound at any invertible a, b, and its ends meet
  where a*a and b·b* are proportional to an optimal density pair of
  Watrous's fidelity form ‖Φ‖⋄ = max ‖(1⊗√ρ0)·J·(1⊗√ρ1)‖₁.  A fixed-point iteration on the
  pair, with Anderson mixing, finds it within a few dozen SVDs for most
  general maps whose optimal pair has full rank.
- `rank-one face`: when the reweighting hands a map on, a pure-state seesaw
  looks for an optimal pair of rank one, (xx*, yy*), by alternating the
  polar factor U of Φ(x̄·yᵀ) with the top singular pair of
  M_ab = tr(U*·Φ(E_ab)), from the closed form's top eigenvectors.  The
  bracket is the closed form at the ε-weights √(xx* + εI), √(yy* + εI),
  ε = 1e-7, which is certified as at any weights.  It decides about three
  in four of the random qubit maps and M₂⊗ₕM₂ level-1 elements that the
  reweighting hands on.
- `sdp`: otherwise (the optimal pair is rank-deficient but the closed
  form's dual family cannot certify its face, as for most maps with K > L,
  the seesaw stops at a local maximum, or the iteration does not settle)
  Watrous's SDP over J decides, as one complex Hermitian LMI block of size
  2·L·K.  Its LMI depends only on the shape (K, L) and on whether J
  is Hermitian, so it is built once per shape (`_diamond_lmi`, the last four
  shapes held, read-only, with the SDP's y = 0 start) and each map computes
  only its objective.

The operator-picture cb norm is the diamond norm of the trace-pairing
adjoint, so for a CP map it is ‖Φ(1)‖ (Paulsen, *Completely Bounded Maps
and Operator Algebras*, Prop. 3.6); it takes no other path.  A domain or
codomain of dimension one takes the closed-form shortcut (the norm of the
image element or of the functional).  A map out of several domain blocks
takes the largest norm of its restrictions, since an ℓ¹ sum is a coproduct
(Effros–Ruan, *Operator Spaces*, §2.6); in the operator picture the adjoint
splits the codomain the same way.  Codomain blocks are flattened through the
completely isometric block-diagonal embedding.
"""
from __future__ import annotations

import functools

import numpy as np

from ..errors import ShapeMismatchError
from ..matcore import BlockMatrix, block_dim, block_offsets, blockwise_transpose, tr_norm
from ..supop import SuperOp
from .brackets import NormBracket
from .sdp import REL_GAP, HermBasis, SdpProblem, lmi_triples, sdp_solve

__all__ = [
    "diamond_norm",
    "cb_norm",
    "functional_rep",
    "dual_level_norm",
]


# relative bracket width: the closed form is accepted when upper − lower ≤
# _REL_GAP·(1 + lower), the gap the SDP solves to
_REL_GAP = REL_GAP


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


def _weigh(J: np.ndarray, K: int, L: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1_L⊗a)·J·(1_L⊗b) as two batched K×K products, without forming a Kronecker product."""
    d = L * K
    return ((a @ J.reshape(L, K, d)).reshape(d, L, K) @ b).reshape(d, d)


def _closed_form_bracket(
    J: np.ndarray, K: int, L: int, a: np.ndarray | None = None, b: np.ndarray | None = None
) -> tuple[float, float, np.ndarray]:
    """Certified (lower, upper) for ‖Φ‖⋄ from one SVD J′ = (1_L⊗a)·J·(1_L⊗b) = U·Σ·V*.

    Also returned: the stacked Tr_L(W0ΣW0*), Tr_L(W1ΣW1*) below, from which
    `_reweighted_bracket` takes its first step and `_face_bracket` its start.
    a and b are invertible K×K weights; None stands for the identity, and
    a = b = None is the one-SVD closed form of J itself, in the same
    arithmetic bit for bit.  The weights move both ends without making
    either unsound: Watrous's fidelity form reads ‖Φ‖⋄ = max over density
    pairs of ‖(1⊗√ρ0)·J·(1⊗√ρ1)‖₁, and the ends meet where a*a and b·b* are
    proportional to an optimal pair (`_reweighted_bracket` looks for one).

    Upper: with W0 = (1_L⊗a⁻¹)·U and W1 = (1_L⊗b⁻¹)*·V as computed (U and V
    for identity weights), J ≈ W0·Σ·W1*, and with r ≥ ‖J − W0ΣW1*‖₂,
    Y0 = W0ΣW0* + rI and Y1 = W1ΣW1* + rI are feasible for Watrous's dual,
    min ½(‖Tr_L Y0‖ + ‖Tr_L Y1‖) s.t. [[Y0, −J], [−J*, Y1]] ⪰ 0: the block
    is [W0; −W1]·Σ·[W0; −W1]* plus an r-shift that absorbs the residual.
    That holds for any matrices W0, W1, so the rounding of the SVD, of a⁻¹
    and b⁻¹ and of the products forming W0 and W1 is all in the computed
    residual.  Scaling (Y0, Y1) → (t·Y0, Y1/t) keeps the pair feasible, so
    ‖Φ‖⋄ ≤ √(α·β) with α = λ_max(Tr_L Y0), β = λ_max(Tr_L Y1).
    Lower: ‖J′‖₁/(‖a‖_F·‖b‖_F) alone when it closes the bracket, that is when
    upper − lower ≤ _REL_GAP·(1 + |lower|), the width at which every caller
    accepts; otherwise the larger of the two below, the product input being
    evaluated only then:
    - ‖J′‖₁/(‖a‖_F·‖b‖_F), the input vec(a)·vec(b)* up to a reordering
      (ρ0 = a*a/‖a‖_F², ρ1 = b·b*/‖b‖_F², X = (1⊗a*)·C·(1⊗b*)/(‖a‖_F‖b‖_F)
      with C the unitary polar factor of J′ is feasible for the primal
      SDP); for identity weights ‖J‖₁/K, the maximally entangled input;
    - ‖Φ(x̄·yᵀ)‖₁/(‖x‖·‖y‖), x and y the top eigenvectors of Tr_L(W0ΣW0*)
      and Tr_L(W1ΣW1*), a product input; J[(l,a),(l′,b)] = Φ(E_ab)[l,l′].
    The unweighted bracket is tight for CP maps (U = V, α = β =
    λ_max(Tr_L J)), for maps with Tr_L|J| ∝ I such as transposes and
    differences of Pauli- or Weyl-covariant channels (both ends ‖J‖₁/K),
    and for rank-one J, the elementary operators x ↦ a·x·b (both ends
    ‖a‖·‖b‖).

    Charged rounding, the same at every weight: γ_n for each n-term sum of
    complex products (entrywise against the same sums of absolute values),
    `_eig_charge` for each `eigh` and `svd`; the few extra roundings counted
    in each γ cover the charges and the final sums.  Term by term:
    - r: the computed residual J − (W0·Σ)·W1* is off by at most
      γ_{d+2}·(|W0|·Σ)·|W1*| entrywise (d-term sums, the scaling by Σ, the
      subtraction), and ‖·‖₂ ≤ ‖·‖_F; the Frobenius norms are 2d²-term sums;
    - Tr_L(WΣW*): L·d-term sums, off by γ·(|rows|·Σ·|rows|ᵀ), plus
      `_eig_charge` for its top eigenvalue and r·L for Tr_L(rI);
    - ‖J′‖₁ for weights: `_eig_charge(J′)` for each of the d computed
      singular values of the computed J′, γ_d for their sum, and the
      forming of J′ itself, K-term sums twice, so |fl(J′) − J′| ≤
      γ_{2K}·(1⊗|a|)·|J|·(1⊗|b|) entrywise (Higham, Lemma 3.3 for the
      product of two rounded sums), with ‖·‖₁ ≤ √d·‖·‖_F; then ‖a‖_F and
      ‖b‖_F are each a 2K²-term sum and a square root, and one product
      and one quotient;
    - ‖Φ(x̄·yᵀ)‖₁: K²-term sums of triple products and an L×L `svd`.
    See Watrous, *Simpler semidefinite programs for completely bounded norms*
    (arXiv:1207.5726), and *The Theory of Quantum Information* (2018), §3.3.
    """
    d = L * K
    jw = J if a is None else _weigh(J, K, L, a, b)
    u, s, vh = np.linalg.svd(jw)
    if a is None:
        w0, w1h = u, vh
    else:
        w0 = (np.linalg.inv(a) @ u.reshape(L, K, d)).reshape(d, d)
        w1h = (vh.reshape(d, L, K) @ np.linalg.inv(b)).reshape(d, d)
    # r ≥ ‖J − W0ΣW1*‖₂: the computed residual plus the rounding of W0ΣW1*
    res = _fro(J - (w0 * s) @ w1h)
    res_abs = _fro((np.abs(w0) * s) @ np.abs(w1h))
    r = (res + _gamma(2 * d + 8) * res_abs) * (1.0 + _gamma(2 * d * d + d + 8))

    # Tr_L(W·Σ·W*) = rows·Σ·rows* for W = W0 and W1 at once, rows the (K, L·d)
    # regrouping of W; each entry is an L·d-term sum, off by at most γ·(|rows|·Σ·|rows|ᵀ)
    rows = np.concatenate((w0, w1h.conj().T)).reshape(2, L, K, d).swapaxes(1, 2).reshape(2, K, L * d)
    rows_abs = np.abs(rows)
    ms = (rows.reshape(2, K, L, d) * s).reshape(2, K, L * d) @ rows.conj().swapaxes(1, 2)
    ms_abs = (rows_abs.reshape(2, K, L, d) * s).reshape(2, K, L * d) @ rows_abs.swapaxes(1, 2)
    lams, vecs = np.linalg.eigh(ms)
    ends = []
    for m, m_abs, lam in zip(ms, ms_abs, lams):
        # m is Tr_L of a PSD matrix, so its top eigenvalue is at least 0
        top = max(0.0, float(lam[-1])) + _eig_charge(m)
        top += _gamma(L * d + 4) * _fro(m_abs)
        ends.append((top + r * L) * (1.0 + _gamma(4)))
    upper = float(np.sqrt(ends[0] * ends[1])) * (1.0 + _gamma(4))

    tn = float(s.sum()) * (1.0 - _gamma(d + 2)) - d * _eig_charge(jw)
    if a is None:
        lower_me = tn / K * (1.0 - _gamma(2))
    else:
        jw_abs = _weigh(np.abs(J), K, L, np.abs(a), np.abs(b))
        tn -= d**0.5 * _gamma(2 * K + 8) * _fro(jw_abs)
        lower_me = tn / (_fro(a) * _fro(b)) * (1.0 - _gamma(2 * K * K + 8))
    if upper - lower_me <= _REL_GAP * (1.0 + abs(lower_me)):
        # every caller accepts this width, so the product input cannot change the answer
        return lower_me, upper, ms
    # Φ(x̄·yᵀ): K²-term sums of triple products, off by at most γ·|J|(|x|, |y|)
    x, y = vecs[:, :, -1]
    J4 = J.reshape(L, K, L, K)
    img = np.einsum("lamb,a,b->lm", J4, x.conj(), y)
    img_abs = np.einsum("lamb,a,b->lm", np.abs(J4), np.abs(x), np.abs(y))
    tn = float(np.linalg.svd(img, compute_uv=False).sum()) * (1.0 - _gamma(L + 2))
    tn -= L * _eig_charge(img) + L**0.5 * _gamma(K * K + 8) * _fro(img_abs)
    lower_xy = tn / (_fro(x) * _fro(y)) * (1.0 - _gamma(4 * K + 8))
    return max(lower_me, lower_xy), upper, ms


# the reweighting: at most _MAX_ITER iterations, Anderson mixing over the last
# _MIX pairs, and a pair whose λ_min/λ_max falls to _RANK_LOSS hands the map
# to the SDP
_MAX_ITER = 32
_MIX = 6
_RANK_LOSS = 1e-2


def _reweighted_bracket(J: np.ndarray, K: int, L: int, tr_l: np.ndarray) -> NormBracket | None:
    """The closed form at weights a*a = ρ0, b·b* = ρ1 iterated toward an optimal pair.

    Each iteration, at ρᵢ = qᵢ·diag(λᵢ)·qᵢ*, takes a = diag(√λ0)·q0* and
    b = q1·diag(√λ1), one SVD (1_L⊗a)·J·(1_L⊗b) = U·Σ·V*, and
    P0 = Tr_L(UΣU*), P1 = Tr_L(VΣV*).  Its floating-point ends are
    tr Σ/(‖a‖_F‖b‖_F) and √(λ_max(M0)·λ_max(M1)), Mᵢ = diag(λᵢ)^-½·Pᵢ·diag(λᵢ)^-½
    similar to Tr_L(WᵢΣWᵢ*) of `_closed_form_bracket`, and the next pair is
    ρᵢ ← P̂ᵢ·ρᵢ⁻¹·P̂ᵢ/tr(·), P̂ᵢ = qᵢ·Pᵢ·qᵢ* in the fixed frame.  At its fixed
    point P̂ᵢ ∝ ρᵢ, so both Mᵢ are multiples of I and the ends meet.  The
    first step, from ρ0 = ρ1 = I/K, is ρᵢ = Tᵢ²/tr(Tᵢ²) with tr_l = (T0, T1)
    as the unweighted closed form computed it.
    Anderson mixing over the last _MIX pairs (Walker–Ni, SIAM J. Numer.
    Anal. 49, 2011; weights from the normal equations) speeds it up: the
    mixed pair, the extrapolated fixed point, is the next iterate.  The
    certified `_closed_form_bracket` is computed only once the
    floating-point ends are within _REL_GAP/2.

    Returns None, for the SDP to decide, when the next pair loses rank
    (λ_min/λ_max ≤ _RANK_LOSS, or will at the rate it fell from the last
    pair: the optimal pair is rank-deficient, where the weights a⁻¹, b⁻¹
    blow up; the extrapolation leaves the cone a few iterations before the
    plain iteration would), or after _MAX_ITER iterations.
    """
    d = L * K
    t = np.asarray(tr_l / tr_l[0].trace().real, dtype=np.complex128)  # tr T0 = tr T1 = tr Σ
    rho = t @ t
    rho /= rho.trace(axis1=1, axis2=2).real[:, None, None]
    x0 = np.stack([np.eye(K, dtype=np.complex128) / K] * 2)
    xs, gs = [x0.view(np.float64).ravel()], [rho.view(np.float64).ravel()]  # iterates, images
    lam, q = np.linalg.eigh(rho)
    ratio = 0.0  # the last pair's λ_min/λ_max, the smaller of the two
    for it in range(1, _MAX_ITER + 1):
        ratio, last = float(np.min(lam[:, 0] / lam[:, -1])), ratio
        if ratio <= _RANK_LOSS or ratio * ratio <= _RANK_LOSS * last:
            return None
        sq = np.sqrt(lam)
        qs = q * sq[:, None, :]
        a = qs[0].conj().T
        u, s, vh = np.linalg.svd(_weigh(J, K, L, a, qs[1]))
        lower = float(s.sum())  # ‖a‖_F² = tr ρ0 = 1, ‖b‖_F² = tr ρ1 = 1
        # Tr_L of U·Σ·U* and of V·Σ·V* over tr Σ, one stacked product; unit
        # trace keeps the squares below finite at any scale of J
        w = np.concatenate((u, vh.conj().T)).reshape(2, L, K, d)
        p = np.einsum("xlak,k,xlbk->xab", w, s / lower, w.conj())
        n = p / sq[:, :, None]
        rot = n @ q.conj().swapaxes(1, 2)
        g = rot.conj().swapaxes(1, 2) @ rot
        g /= g.trace(axis1=1, axis2=2).real[:, None, None]

        xs.append(rho.view(np.float64).ravel())
        gs.append(g.view(np.float64).ravel())
        del xs[: -_MIX - 1], gs[: -_MIX - 1]
        G = np.array(gs)
        F = G - np.array(xs)
        dF = F[1:] - F[:-1]
        try:
            gamma = np.linalg.solve(dF @ dF.T, dF @ F[-1])
        except np.linalg.LinAlgError:
            rho = g
        else:
            rho = (G[-1] - gamma @ (G[1:] - G[:-1])).view(np.complex128).reshape(2, K, K)
        ev, evec = np.linalg.eigh(np.concatenate((n / sq[:, None, :], rho)))

        upper = lower * float(np.sqrt(ev[0, -1] * ev[1, -1]))
        if upper - lower <= 0.5 * _REL_GAP * (1.0 + lower):
            lo, up, _ = _closed_form_bracket(J, K, L, a, qs[1])
            if up - lo <= _REL_GAP * (1.0 + abs(lo)):
                return NormBracket.from_bounds(
                    max(0.0, lo), up, {"route": "reweighted closed form", "iterations": it}
                )
        lam, q = ev[2:], evec[2:]
    return None


# the rank-one face: at most _FACE_ITER seesaw steps, and the closed form at
# the weights √(xx* + _FACE_EPS·I), √(yy* + _FACE_EPS·I)
_FACE_ITER = 60
_FACE_EPS = 1e-7


def _face_weight(v: np.ndarray) -> np.ndarray:
    """√(vv* + εI) = √ε·I + (√(1 + ε) − √ε)·vv* for a unit vector v, ε = _FACE_EPS."""
    root = np.sqrt(_FACE_EPS)
    return root * np.eye(v.size) + (np.sqrt(1.0 + _FACE_EPS) - root) * np.outer(v, v.conj())


def _face_bracket(J: np.ndarray, K: int, L: int, tr_l: np.ndarray) -> NormBracket | None:
    """The closed form at weights near a rank-one optimal pair found by a seesaw.

    When the optimal pair of Watrous's fidelity form is (xx*, yy*), ‖Φ‖⋄ is
    ‖Φ(x̄·yᵀ)‖₁ = max Re tr(U*·Φ(x̄·yᵀ)) over unitaries U.  The seesaw, from
    x and y the top eigenvectors of the two partial traces tr_l of the
    unweighted closed form, alternates the two maximizations: U is the
    polar factor of Φ(x̄·yᵀ), then (x, y) is the top singular pair of
    M_ab = tr(U*·Φ(E_ab)), since Re tr(U*·Φ(x̄·yᵀ)) = Re x*·M·y.  It stops
    when σ₁(M) gains at most 1e-15·σ₁, or after _FACE_ITER steps.
    The answer is one certified `_closed_form_bracket` at a = √(xx* + εI),
    b = √(yy* + εI), ε = _FACE_EPS, which is sound at any invertible
    weights; its ends meet within O(ε) when the dual family of the closed
    form reaches the dual optimum on that face.  In J's index order
    (1⊗xx*)·J·(1⊗yy*) = Φ(x̄·yᵀ)⊗(x·ȳᵀ), so the weights are a and b, not
    their conjugates.  A smaller ε charges more rounding to a⁻¹ and b⁻¹; a
    larger one moves the ends apart.  Returns None, for the SDP to decide,
    when the bracket is wider than _REL_GAP (a local maximum of the seesaw,
    or a face the closed form's dual family cannot certify).
    """
    J4 = J.reshape(L, K, L, K)
    x, y = np.linalg.eigh(tr_l)[1][:, :, -1]
    top = -np.inf
    for it in range(1, _FACE_ITER + 1):
        u, _, vh = np.linalg.svd(np.einsum("lamb,a,b->lm", J4, x.conj(), y))
        p, s, qh = np.linalg.svd(np.einsum("lm,lamb->ab", (u @ vh).conj(), J4))
        x, y = p[:, 0], qh[0].conj()
        if s[0] - top <= 1e-15 * s[0]:
            break
        top = s[0]
    lo, up, _ = _closed_form_bracket(J, K, L, _face_weight(x), _face_weight(y))
    if up - lo > _REL_GAP * (1.0 + abs(lo)):
        return None
    return NormBracket.from_bounds(max(0.0, lo), up, {"route": "rank-one face", "iterations": it})


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
    prob = SdpProblem(c=np.zeros(m), f0=np.eye(2 * d) / K, fs=lmi_triples(con, row, col, val))
    for x in (prob.c, prob.f0, prob.fs):
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
    res = sdp_solve(prob.with_objective(c))
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
    elementary operators x ↦ a·x·b.  Any other map tries the reweighted
    closed form (`_reweighted_bracket`), then the closed form at the
    ε-weights of a rank-one pair found by a pure-state seesaw
    (`_face_bracket`), each accepted at the same width, and goes to the SDP
    when both hand it on.  `witnesses["route"]` says which.  A domain of
    several nonzero blocks is split: each restriction takes these routes, the
    bracket is the max of their ends, the route is that of the part with the
    largest upper end, and `witnesses["blocks"]` counts the parts.
    """
    K, L = sum(s.dom_shape), sum(s.cod_shape)
    closed = {"route": "closed form"}
    if K == 0 or L == 0:
        return NormBracket.exactly(0.0, closed)
    if K == 1:
        # map C → ⊕T: the trace norm of Φ(1), the transfer matrix's one column;
        # a zero codomain block adds exactly 0.0, so only nonzero blocks are read
        img = s.transfer[:, 0]
        parts = (img[off : off + k * k].reshape(k, k) for off, k in block_offsets(s.cod_shape))
        return NormBracket.exactly(sum((tr_norm(b) for b in parts if b.any()), 0.0), closed)
    if L == 1:
        # a functional on ⊕T: its ball is the hull of the block trace-norm
        # balls, so the norm is max_i ‖r_i‖
        return NormBracket.exactly(functional_rep(s).op_norm(), closed)
    blocks = [(off, k) for off, k in block_offsets(s.dom_shape) if k]
    if len(blocks) > 1:
        # ⊕₁T is the coproduct (Effros–Ruan §2.6): the largest norm of the restrictions
        parts = [
            diamond_norm(SuperOp((k,), s.cod_shape, s.transfer[:, off : off + k * k])) for off, k in blocks
        ]
        top = max(parts, key=lambda p: p.upper)
        if top.status == "unknown":
            return top
        lower = max(p.lower for p in parts)
        return NormBracket.from_bounds(lower, top.upper, {**top.witnesses, "blocks": len(parts)})
    J = s.big_choi()
    lower, upper, tr_l = _closed_form_bracket(J, K, L)
    if upper - lower <= _REL_GAP * (1.0 + abs(lower)):
        return NormBracket.from_bounds(max(0.0, lower), upper, closed)
    for route in (_reweighted_bracket, _face_bracket):
        br = route(J, K, L, tr_l)
        if br is not None:
            return br
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
