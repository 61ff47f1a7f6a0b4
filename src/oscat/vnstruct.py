"""Finite-dimensional von Neumann algebras ⊕M_{k_i} and coalgebras ⊕T_{k_i}.

Structure maps are stored as explicit tensors over the canonical basis
(so deliberately corrupted structures can be law-checked), the duality
functor transports structure through the trace pairing, and positivity is
available both concretely (block PSD) and through the comultiplication
factorization diagram.  The law suites decide every law exactly from the
Kadison form: by Kadison's isometry theorem a C*-algebra on ⊕M_k has a
blockwise unitary unit u, multiplies each block as x·u*·y or y·u*·x and
involutes as x ↦ u·x*·u.  The structure's distance from that form decides the
C* identity and bounds the residual of every algebraic law; a law whose bound
does not close is checked as a whole-tensor identity.  Coalgebras are decided
through their dual.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DIM_CAP
from .errors import InvalidInputError, ShapeMismatchError, SizeLimitError
from .matcore import (
    BlockMatrix,
    block_dim,
    block_norms,
    block_offsets,
    block_shape,
    blockwise_transpose,
    direct_sum,
    op_norm,
    pair_reindex,
    pair_shape,
    unit_vector,
)
from .normlab.diamond import _gamma, cb_norm
from .supop import SuperOp

__all__ = [
    "VnAlgebra",
    "VnCoalgebra",
    "make_algebra",
    "make_coalgebra",
    "LawReport",
    "check_laws",
    "dualize",
    "PositivityVerdict",
    "positivity",
    "abstract_positive_functional",
    "MorphismVerdict",
    "certify_morphism",
    "tensor_algebra",
    "direct_sum_algebra",
    "tensor_coalgebra",
    "direct_sum_coalgebra",
    "trace_pairing",
]


def trace_pairing(f: BlockMatrix, x: BlockMatrix) -> complex:
    """Bilinear pairing ⟨f, x⟩ = Σ_i tr(f_i x_i)."""
    f._check(x)
    return complex(sum(np.trace(a @ b) for a, b in zip(f.blocks, x.blocks)))


def _require_finite(*tensors) -> None:
    """Reject structure tensors with an inf or NaN entry, which no law could pass."""
    if not all(np.isfinite(x).all() for x in tensors):
        raise InvalidInputError("structure tensors have non-finite entries")


@dataclass(frozen=True, eq=False)
class VnAlgebra:
    """shape + unit vector, multiplication matrix (dim × dim²), involution.

    The involution acts antilinearly: i(x) = inv_mat · conj(x_vec).
    """

    shape: tuple[int, ...]
    unit_vec: np.ndarray
    mult_mat: np.ndarray
    inv_mat: np.ndarray

    def __post_init__(self):
        _require_finite(self.unit_vec, self.mult_mat, self.inv_mat)

    @property
    def dim(self) -> int:
        return block_dim(self.shape)

    def unit(self) -> BlockMatrix:
        return BlockMatrix.from_vector(self.unit_vec, self.shape)

    def multiply(self, x: BlockMatrix, y: BlockMatrix) -> BlockMatrix:
        v = self.mult_mat @ np.kron(x.to_vector(), y.to_vector())
        return BlockMatrix.from_vector(v, self.shape)

    def involute(self, x: BlockMatrix) -> BlockMatrix:
        return BlockMatrix.from_vector(self.inv_mat @ x.to_vector().conj(), self.shape)


@dataclass(frozen=True, eq=False)
class VnCoalgebra:
    """shape + counit vector (as a functional rep), comultiplication, involution.

    counit(x) = ⟨counit_rep, x⟩; comult_mat maps dim → dim²; involution
    antilinear as in VnAlgebra.
    """

    shape: tuple[int, ...]
    counit_vec: np.ndarray
    comult_mat: np.ndarray
    inv_mat: np.ndarray

    def __post_init__(self):
        _require_finite(self.counit_vec, self.comult_mat, self.inv_mat)

    @property
    def dim(self) -> int:
        return block_dim(self.shape)

    def counit(self, x: BlockMatrix) -> complex:
        rep = BlockMatrix.from_vector(self.counit_vec, self.shape)
        return trace_pairing(rep, x)

    def comult(self, x: BlockMatrix) -> np.ndarray:
        """Coordinates of δ(x) in the tensor basis of C ⊗ C."""
        return self.comult_mat @ x.to_vector()

    def involute(self, x: BlockMatrix) -> BlockMatrix:
        return BlockMatrix.from_vector(self.inv_mat @ x.to_vector().conj(), self.shape)


def _structure_shape(shape) -> tuple[int, ...]:
    """Validated block shape whose d × d² structure matrix fits DIM_CAP."""
    shape = block_shape(shape)
    d = block_dim(shape)
    if d * d > DIM_CAP:
        raise SizeLimitError(f"structure matrix {d}x{d * d} exceeds cap {DIM_CAP}")
    return shape


def make_algebra(shape) -> VnAlgebra:
    shape = _structure_shape(shape)
    d = block_dim(shape)
    mult = np.zeros((d, d, d), dtype=np.complex128)
    for off, n in block_offsets(shape):  # every nonzero product e_ij·e_jl = e_il
        i, j, l = np.indices((n, n, n)).reshape(3, -1)
        mult[off + i * n + l, off + i * n + j, off + j * n + l] = 1.0
    inv = np.eye(d)[blockwise_transpose(shape)]
    return VnAlgebra(shape, unit_vector(shape), mult.reshape(d, d * d), inv)


def make_coalgebra(shape) -> VnCoalgebra:
    """⊕T_{k_i}, the dual of ⊕M_{k_i}: counit = blockwise trace, δ(e_ij) = Σ_k e_kj ⊗ e_ik."""
    return dualize(make_algebra(shape))


# ---------------------------------------------------------------------------
# law suites

@dataclass
class LawReport:
    kind: str
    passed: bool
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def fail(self, name: str, value: float):
        self.failures.append((name, float(value)))
        self.passed = False


# relative residual allowed to an exact algebraic law (rounding only)
_EXACT_TOL = 1e-12


def _top(x) -> float:
    """Largest entry of a real array, 0.0 when empty, NaN when any entry is."""
    return float(np.maximum.reduce(x, axis=None, initial=0.0))


def _maxabs(x) -> float:
    return _top(np.abs(x))


def check_laws(structure, tol: float = 1e-9) -> LawReport:
    """Decide every (co)algebra law and the (co-)C* identity; nothing is sampled.

    An algebraic law holds when its max-abs residual, over the whole tensor,
    is ≤ _EXACT_TOL·max(1, magnitude of the products compared), where a
    product's magnitude is that of its factors' max-abs entries multiplied.
    The residual is first bounded from the distances δ_μ, δ_P and δ_u of the
    structure to its Kadison form (below; see `_law_bounds`): a law whose
    bound is within the tolerance holds, with the bound recorded in
    ``details["law_bounds"]``; any other law's residual is formed over the
    whole tensor and fails with that value.  Structures built by
    `make_algebra`, `tensor_algebra` and the like are the form exactly, so
    no d⁵ contraction is formed for them.
    By Kadison's isometry theorem (Ann. Math. 54, 1951) the identity map onto
    ⊕M_k with its blockwise operator norm is u·(Jordan *-isomorphism), so
    (μ, P, 1) is a C*-algebra exactly when the unit u is blockwise unitary,
    each block multiplies as x·u*·y or y·u*·x, and the involution is
    x ↦ u·x*·u (conversely x ↦ u*·x is then an isometric blockwise
    (anti-)isomorphism).  ``cstar_identity`` fails when that match residual,
    ``details["cstar_worst"]``, exceeds tol; if every exact law holds, the
    unit, e_ij or e_ij + e_ji with the largest |‖x*x‖ − ‖x‖²| is recorded as
    ``cstar_witness``.  Coalgebras are decided on ``dualize(co)`` (``co_cstar_*``,
    ``co_law_bounds`` under the coalgebra law names).  A NaN or inf entry,
    written in place after construction, fails every law it reaches.
    """
    if isinstance(structure, VnAlgebra):
        return _check_algebra_laws(
            structure.shape, structure.unit_vec, structure.mult_mat, structure.inv_mat, tol
        )
    if isinstance(structure, VnCoalgebra):
        return _check_coalgebra_laws(structure, tol)
    raise TypeError("check_laws wants a VnAlgebra or VnCoalgebra")


def _kadison_blocks(shape, unit: np.ndarray, mult: np.ndarray):
    """Per block: (coordinate slice, unit block u, distance, side) of an algebra.

    The block's multiplication is matched against the Kadison forms x·u*·y
    and y·u*·x; the distance is the max-abs difference from the closer one
    (x·u*·y on a tie) over the block.  `side` is +1 when y·u*·x is strictly
    closer, −1 when x·u*·y is, and 0 on a tie, as on every 1×1 block, where
    the two forms are one, or when a distance is NaN.
    """
    d = unit.size
    m = mult.reshape(d, d, d)
    for off, k in block_offsets(shape):
        s = slice(off, off + k * k)
        u = unit[s].reshape(k, k)
        # e_ij·u*·e_lm = conj(u_lj)·e_im, written into the (i, m, i, j, l, m) entries
        hom = np.zeros((k,) * 6, dtype=np.complex128)
        i = np.arange(k)
        hom[i[:, None], i, i[:, None], :, :, i] = u.conj().T
        hom = hom.reshape((k * k,) * 3)
        anti = hom.transpose(0, 2, 1)
        mb = m[s, s, s]
        dh = _maxabs(mb - hom)
        da = dh if k == 1 else _maxabs(mb - anti)
        side = (da < dh) - (dh < da)
        yield s, u, da if side > 0 else dh, side


def _worst(*values) -> float:
    """The largest of the values, 0.0 for none, NaN if any is NaN.

    Python's max keeps a NaN only when it comes first.
    """
    w = 0.0
    for v in values:
        if w == w and not v <= w:  # a larger value or the first NaN
            w = v
    return float(w)


def _kadison_distances(shape, unit, mult, inv_mat, mult_abs):
    """(δ_μ, δ_P, |uu* − I|, largest block): distances from the Kadison form.

    δ_μ = max|μ − μ₀| and δ_P = max|P − P₀| over the whole tensors, where μ₀
    multiplies each block as its closer `_kadison_blocks` form and P₀
    involutes it as x ↦ u·x*·u, both zero off the blocks; |uu* − I| is a
    maximum over the blocks.  `mult_abs` is |μ| as a (d, d, d) array; its
    blocks are zeroed here.  Every value is as computed (rounding is charged
    by the caller) and is NaN when any entry it reads is.
    """
    inv = np.zeros(inv_mat.shape, dtype=np.complex128)
    dist, uu, kmax = [], [], 0
    for s, u, dmu, _ in _kadison_blocks(shape, unit, mult):
        k = u.shape[0]
        kmax = max(kmax, k)
        mult_abs[s, s, s] = 0.0
        dist.append(dmu)
        uu.append(_maxabs(u @ u.conj().T - np.eye(k)))
        # (u·x*·u)_im = Σ_jl u_ij conj(x_lj) u_lm
        inv[s, s] = (u[:, None, None, :] * u.T[None, :, :, None]).reshape(k * k, k * k)
    return (
        _worst(_top(mult_abs), *dist),
        _maxabs(inv_mat - inv),
        _worst(*uu),
        kmax,
    )


def _cstar_witness(shape, unit, m, p) -> tuple[BlockMatrix, float]:
    """The candidate x with the largest |‖x*x‖ − ‖x‖²|: unit, e_ij, e_ij + e_ji."""
    d = unit.size
    t = blockwise_transpose(shape)
    a, e = np.flatnonzero(t > np.arange(d)), np.eye(d)
    xs = np.vstack([unit, e, e[a] + e[t[a]]])
    adj = xs.conj() @ p.T  # rows i(x)
    prod = ((adj @ m) * xs).sum(axis=-1)  # columns i(x)·x
    nrm = block_norms(np.hstack([prod, xs.T]), shape, "operator").reshape(2, -1)
    defect = np.abs(nrm[0] - nrm[1] ** 2)
    w = int(np.argmax(defect))
    return BlockMatrix.from_vector(xs[w], shape), float(defect[w])


def _law_bounds(d, kmax, dmu, dp, du, mu, sums, pm, kp, um) -> dict:
    """Bounds on each algebraic law's max-abs residual as `_law_residual` computes it.

    Inputs are exact upper bounds: δ_μ = max|μ − μ₀|, δ_P = max|P − P₀|,
    δ_u = max(|uu* − I|, |u*u − I|) over the blocks, M = max|μ|, the largest
    sums κ₀, κ₁, κ₂ of |μ| along each of its three axes, max|P|, the largest
    column sum κ_P of |P|, and max|u|.  The Kadison form (μ₀, P₀, u) is
    associative, and when u is unitary it satisfies the other four laws too.
    Each law's exact residual at (μ, P, u) differs from the form's by
    products in which at least one factor is a difference E = μ − μ₀ or
    F = P − P₀, e.g. μ(μ⊗id) − μ₀(μ₀⊗id) = E(μ⊗id) + μ₀(E⊗id); the form's
    own residual is a product with a factor uu* − I or u*u − I.  On top, each
    bound charges the rounding of the dense formulas, whose products are
    complex inner products of length d (Higham, §3.6), so a law decided by
    its bound is one whose dense residual is within the tolerance too.
    """
    k0, k1, k2 = sums
    pz, kz = pm + dp, kp + d * dp  # max|P₀| and its largest column sum
    g = np.sqrt(2) * _gamma(d + 2)
    bounds = {
        "associativity": 2 * d * dmu * (2 * mu + dmu) + 2 * g * mu * k0,
        # μ₀(1, y) − y is (uu* − I)·y or y·(u*u − I) blockwise
        "left_unit": du + d * um * dmu + g * um * k1,
        "right_unit": du + d * um * dmu + g * um * k2,
        # P₀·conj(P₀) is x ↦ uu*·x·u*u
        "involution_squared": du * (2 + du) + d * dp * (2 * pm + dp) + g * pm * kp,
        # at the form the residual is −u·y*·(uu* − I)·u·x*·u (x, y swapped
        # on anti blocks); then P·conj(μ) moves with E and F, and
        # μ(P⊗P)swap with F·μ·P, P₀·E·P and P₀·μ₀·F
        "reverse_multiplicativity": kmax * um**3 * du
        + d * (dp * mu + pz * dmu)
        + dp * k1 * kp
        + dmu * kz * kp
        + dp * kz * (k2 + d * dmu)
        + g * pm * k0
        + 3 * g * pm * kp * k2,
    }
    # the dense residual's last subtraction and |·|, and the fewer than 40
    # roundings of each formula, all of nonnegative terms
    return {name: float(b * (1.0 + _gamma(48))) for name, b in bounds.items()}


def _law_residual(name: str, m: np.ndarray, p: np.ndarray, u: np.ndarray) -> float:
    """Max-abs residual of one algebraic law, formed over the whole tensor.

    m[c, a, b] is the e_c coordinate of e_a·e_b; the basis is real, so
    i(e_a) = P[:, a] and every law is an identity between whole tensors.
    """
    d = p.shape[0]
    flat = m.reshape(d, d * d)
    if name == "associativity":
        # μ(μ⊗id) = μ(id⊗μ), over cache-sized slabs of output coordinates e
        # (the whole (e, a, b, c) tensor is d⁴ entries)
        slab = max(1, 4096 // max(1, d**3))
        return _worst(
            *(
                _maxabs(flat.T @ m[e : e + slab] - (m[e : e + slab] @ flat).reshape(-1, d * d, d))
                for e in range(0, d, slab)
            )
        )
    if name == "left_unit":  # μ(1⊗id) = id
        return _maxabs(u @ m - np.eye(d))
    if name == "right_unit":  # μ(id⊗1) = id
        return _maxabs(m @ u - np.eye(d))
    if name == "involution_squared":  # i(i(x)) = x  ⇔  P·conj(P) = I
        return _maxabs(p @ p.conj() - np.eye(d))
    # reverse multiplicativity (ab)* = b*a*:  P·conj(μ) = μ·(P⊗P)·swap, the
    # right side as two 2-D products: t[b, c, a] = Σ_yw P[y, b]·μ[c, y, w]·P[w, a]
    t = (p.T @ m.transpose(1, 0, 2).reshape(d, d * d)).reshape(d * d, d) @ p
    return _maxabs((p @ flat.conj()).reshape(d, d, d) - t.reshape(d, d, d).transpose(1, 2, 0))


_LAWS = ("associativity", "left_unit", "right_unit", "involution_squared", "reverse_multiplicativity")


def _holds(err: float, thr: float) -> bool:
    """err ≤ thr with a finite thr; a NaN fails, and so does an infinite magnitude."""
    return err <= thr < np.inf


def _check_algebra_laws(shape, u, mult, p, tol) -> LawReport:
    """The laws of the algebra tensors (unit u, multiplication, involution P) on shape."""
    rep = LawReport("algebra", True)
    d = u.size
    m = mult.reshape(d, d, d)
    mult_abs, inv_abs = np.abs(m), np.abs(p)
    mu, pm, um = _top(mult_abs), _top(inv_abs), _maxabs(u)
    # sums of |μ| along each axis and of |P| down its columns, as products with ones
    ones = np.ones(d)
    sums = [_top(ones @ mult_abs.reshape(d, d * d)), _top(ones @ mult_abs), _top(mult_abs @ ones)]
    kp = _top(ones @ inv_abs)
    dmu, dp, duu, kmax = _kadison_distances(shape, u, mult, p, mult_abs)
    # the magnitude of the products each law compares (the product of their
    # factors' max-abs entries) scales the rounding a valid structure leaves
    sizes = {
        "associativity": mu * mu,
        "left_unit": um * mu,
        "right_unit": um * mu,
        "involution_squared": pm * pm,
        "reverse_multiplicativity": pm * pm * mu,
    }
    # exact upper bounds on what was computed: μ₀ copies entries of u, so its
    # distance rounds only in the subtraction and |·|; P₀ = u⊗u rounds each
    # product, uu* each length-k inner product, a sum of d terms d times.
    # u*u − I has the spectral norm of uu* − I (the same singular values
    # squared, less one), which lies within k times its max-abs entry
    up, sum_up = 1.0 + _gamma(3), 1.0 + _gamma(d + 2)
    bounds = _law_bounds(
        d,
        kmax,
        dmu * up,
        dp * up + np.sqrt(2) * _gamma(2) * um * um,
        kmax * (duu * up + np.sqrt(2) * _gamma(kmax + 2) * kmax * um * um),
        mu * up,
        [k * sum_up for k in sums],
        pm * up,
        kp * sum_up,
        um * up,
    )
    decided = rep.details["law_bounds"] = {}
    for name in _LAWS:
        thr = _EXACT_TOL * max(1.0, sizes[name])
        if _holds(bounds[name], thr):
            decided[name] = bounds[name]
            continue
        err = _law_residual(name, m, p, u)
        if not _holds(err, thr):
            rep.fail(name, err)
    res = rep.details["cstar_worst"] = _worst(duu, dmu, dp)
    if not res <= tol:
        if rep.passed and res < np.inf:
            # a *-algebra that matches no C* form: show an x that breaks the
            # identity (a failed exact law is already its own evidence)
            rep.details["cstar_witness"], rep.details["cstar_witness_defect"] = _cstar_witness(
                shape, u, m, p
            )
        rep.fail("cstar_identity", res)
    return rep


def _coalg_cq_composite(co: VnCoalgebra, e_rep: BlockMatrix) -> BlockMatrix:
    """Representing matrix of the co-C*-identity composite functional.

    The composite  C_o → (C⊗C)_o → C_o⊗C_o → C_o⊗C_c → C_o⊗C_c ≅ C  applied
    to a basis vector c gives Σ e(c₍₂₎)·conj(e(j(c₍₁₎))) over δ(c) = Σ c₍₁₎⊗c₍₂₎;
    on T_n with e = tr(a·) this reproduces tr(a*a ·).
    """
    d = co.dim
    t = blockwise_transpose(co.shape)
    ev = e_rep.to_vector()[t]  # ev[p] = e(basis_p)
    evj = co.inv_mat.T @ ev  # evj[p] = e(j(basis_p)); basis coords are real
    dv = co.comult_mat.reshape(d, d, d)  # (first slot, second slot, input)
    out = np.einsum("pqa,p,q->a", dv, evj.conj(), ev)
    # out[α] is the composite's value on basis_α; rep satisfies tr(r·e_α)=out[α]
    return BlockMatrix.from_vector(out[t], co.shape)


_CO_LAWS = {
    "associativity": "coassociativity",
    "left_unit": "left_counit",
    "right_unit": "right_counit",
    "involution_squared": "involution_squared",
    "reverse_multiplicativity": "reverse_comultiplicativity",
    "cstar_identity": "co_cstar_identity",
}


def _check_coalgebra_laws(co: VnCoalgebra, tol) -> LawReport:
    """The algebra laws of dualize(co), renamed.

    Under the trace pairing each coalgebra law is the dual of an algebra law,
    with residuals equal entry for entry up to order and conjugation; the
    co-C* composite is the C* identity of the dual.
    """
    rep = _check_algebra_laws(co.shape, *_dual_tensors(co), tol)
    details = {"co_" + key: value for key, value in rep.details.items()}
    details["co_law_bounds"] = {_CO_LAWS[name]: b for name, b in rep.details["law_bounds"].items()}
    return LawReport(
        "coalgebra",
        rep.passed,
        [(_CO_LAWS[name], err) for name, err in rep.failures],
        details,
    )


# ---------------------------------------------------------------------------
# duality

def dualize(structure):
    """Trace-pairing transport: algebras ↔ coalgebras on the same shape.

    The pairing is the blockwise transpose t (an involution), so
    δ[(p,q), c] = μ[t c, (t p, t q)] and back.  The involution goes to the
    adjoint functional f*(x) = conj(f(x*)), i.e. Q = t·Pᴴ·t; dualizing twice
    gives P back.
    """
    if not isinstance(structure, (VnAlgebra, VnCoalgebra)):
        raise TypeError("dualize wants a VnAlgebra or VnCoalgebra")
    dual = VnCoalgebra if isinstance(structure, VnAlgebra) else VnAlgebra
    return dual(structure.shape, *_dual_tensors(structure))


def _dual_tensors(structure):
    """(unit or counit vector, structure matrix, involution) of dualize(structure)."""
    d = structure.dim
    t = blockwise_transpose(structure.shape)
    inv = structure.inv_mat.conj().T[t[:, None], t]
    tt = (t[:, None, None], t[:, None], t)
    if isinstance(structure, VnAlgebra):
        m = structure.mult_mat.reshape(d, d, d)[tt]
        return structure.unit_vec.copy(), m.transpose(1, 2, 0).reshape(d * d, d), inv
    m = structure.comult_mat.reshape(d, d, d)[tt]
    return structure.counit_vec.copy(), m.transpose(2, 0, 1).reshape(d, d * d), inv


# ---------------------------------------------------------------------------
# positivity

@dataclass(frozen=True)
class PositivityVerdict:
    positive: bool
    witness: BlockMatrix | None
    diagnostic: float  # min eigenvalue (or hermiticity defect if negative path)


def positivity(p: BlockMatrix, structure, tol: float = 1e-9) -> PositivityVerdict:
    """Concrete check: blockwise PSD; witness a with a*a = p via spectral root.

    For algebras p is an element; for coalgebras p is the representing matrix
    of a functional under the trace pairing — the same matrix-level test by
    the abstract/concrete equivalence.
    """
    min_eig = np.inf
    herm_defect = 0.0
    for b in p.blocks:
        if b.size == 0:
            continue
        herm_defect = max(herm_defect, op_norm(b - b.conj().T))
        min_eig = min(min_eig, float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0]))
    if min_eig is np.inf:
        min_eig = 0.0
    if herm_defect > tol or min_eig < -tol:
        return PositivityVerdict(False, None, min(min_eig, -herm_defect))
    roots = []
    for b in p.blocks:
        if b.size == 0:
            roots.append(b)
            continue
        w, v = np.linalg.eigh((b + b.conj().T) / 2)
        w = np.clip(w, 0.0, None)
        roots.append(v @ np.diag(np.sqrt(w)) @ v.conj().T)
    return PositivityVerdict(True, BlockMatrix(roots), min_eig)


def abstract_positive_functional(
    co: VnCoalgebra, p_rep: BlockMatrix, tol: float = 1e-8
):
    """Factorization test through the comultiplication diagram.

    Searches for a functional a with p = (a ⊗ ā)∘(C_o⊗j)∘γ∘δ; on concrete
    coalgebras the candidate is the spectral square root.  Returns
    (is_positive, witness_rep or None, reproduction_error).
    """
    verdict = positivity(p_rep, co, tol)
    if not verdict.positive:
        return False, None, abs(verdict.diagnostic)
    a_rep = verdict.witness
    rebuilt = _coalg_cq_composite(co, a_rep)
    err = (rebuilt - p_rep).op_norm()
    if err > tol * max(1.0, p_rep.op_norm()):
        return False, None, err
    return True, a_rep, err


# ---------------------------------------------------------------------------
# morphism certification

@dataclass
class MorphismVerdict:
    ok: bool
    mode: str
    failures: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def certify_morphism(f: SuperOp, src, dst, mode: str, tol: float = 1e-9) -> MorphismVerdict:
    v = MorphismVerdict(True, mode)
    if tuple(f.dom_shape) != tuple(src.shape) or tuple(f.cod_shape) != tuple(dst.shape):
        raise ShapeMismatchError("morphism shapes do not match the structures")
    if mode in ("cpu", "cptp"):
        flags = f.classify(tol)
        if not flags.cp:
            v.ok = False
            v.failures.append(("cp", flags.min_choi_eig))
        if mode == "cpu" and not flags.unital:
            v.ok = False
            v.failures.append(("unital", flags.unit_defect))
        if mode == "cptp" and not flags.tp:
            v.ok = False
            v.failures.append(("tp", flags.trace_defect))
        if v.ok:
            # the cb norm of a CPTP (CPU) map is 1, or 0 on a zero domain (codomain)
            picture, side = ("operator", f.cod_shape) if mode == "cpu" else ("trace", f.dom_shape)
            want = 1.0 if block_dim(side) else 0.0
            br = cb_norm(f, picture)
            v.diagnostics["cb_norm"] = (br.lower, br.upper)
            v.diagnostics["cb_route"] = br.witnesses["route"]
            if br.status == "exact" and abs(br.mid - want) > 1e-6:
                v.ok = False
                v.failures.append(("cb_norm_one", br.mid - want))
        return v
    if mode == "alg_hom":
        return _check_alg_hom(f, src, dst, tol, v)
    if mode == "coalg_hom":
        return _check_coalg_hom(f, src, dst, tol, v)
    raise ValueError(f"unknown morphism mode {mode!r}")


def _worst_block_norm(cols: np.ndarray, shape, picture: str) -> float:
    """Largest blockwise norm of the columns; NaN, not an SVD error, on a non-finite entry."""
    if not np.isfinite(cols).all():
        return float("nan")
    return float(block_norms(cols, shape, picture).max(initial=0.0))


def _flag(v: MorphismVerdict, errs: dict, tol) -> None:
    for name, err in errs.items():
        if not err <= tol:  # a NaN error fails
            v.ok = False
            v.failures.append((name, err))


def _check_alg_hom(f, alg_a: VnAlgebra, alg_b: VnAlgebra, tol, v) -> MorphismVerdict:
    da, db = alg_a.dim, alg_b.dim
    t = f.transfer
    mu_b = alg_b.mult_mat.reshape(db, db, db)
    # f(1) = 1,  T·μ_A = μ_B·(T⊗T),  T·P_A = P_B·conj(T); each column is one
    # basis element (pair), measured in the blockwise operator norm
    diffs = {
        "unital": (t @ alg_a.unit_vec - alg_b.unit_vec)[:, None],
        "multiplicative": t @ alg_a.mult_mat
        - (t.T @ mu_b @ t).reshape(db, da * da),
        "involutive": t @ alg_a.inv_mat - alg_b.inv_mat @ t.conj(),
    }
    cols = np.hstack(list(diffs.values()))
    if np.isfinite(cols).all():
        # one batched block_norms call; each family's maximum is split off after
        norms = block_norms(cols, alg_b.shape, "operator")
        parts = np.split(norms, [1, 1 + da * da])  # the column order of diffs
        errs = {name: float(part.max(initial=0.0)) for name, part in zip(diffs, parts)}
    else:  # a NaN fails only its own diagram
        errs = {name: _worst_block_norm(x, alg_b.shape, "operator") for name, x in diffs.items()}
    _flag(v, errs, tol)
    v.diagnostics.update(
        mult_err=errs["multiplicative"], inv_err=errs["involutive"], unit_err=errs["unital"]
    )
    return v


def _check_coalg_hom(f, co_c: VnCoalgebra, co_d: VnCoalgebra, tol, v) -> MorphismVerdict:
    dc, dd = co_c.dim, co_d.dim
    t = f.transfer
    eps_c = co_c.counit_vec[blockwise_transpose(co_c.shape)]
    eps_d = co_d.counit_vec[blockwise_transpose(co_d.shape)]
    delta_c = co_c.comult_mat.reshape(dc, dc, dc)
    inv_diff = t @ co_c.inv_mat - co_d.inv_mat @ t.conj()
    # ε_D·T = ε_C,  δ_D·T = (T⊗T)·δ_C (both entrywise),  T·P_C = P_D·conj(T)
    # (blockwise trace norm per basis element)
    errs = {
        "counital": _maxabs(eps_d @ t - eps_c),
        "comultiplicative": _maxabs(
            co_d.comult_mat @ t
            - (t @ delta_c.transpose(2, 0, 1) @ t.T).transpose(1, 2, 0).reshape(dd * dd, dc)
        ),
        "involutive": _worst_block_norm(inv_diff, co_d.shape, "trace"),
    }
    _flag(v, errs, tol)
    v.diagnostics.update(
        counit_err=errs["counital"],
        comult_err=errs["comultiplicative"],
        inv_err=errs["involutive"],
    )
    return v


# ---------------------------------------------------------------------------
# tensor and direct-sum structures

def _kadison_sides(alg: VnAlgebra) -> np.ndarray:
    """Per coordinate: the `side` of its block in `_kadison_blocks`."""
    sides = [side for *_, side in _kadison_blocks(alg.shape, alg.unit_vec, alg.mult_mat)]
    return np.repeat(sides, [k * k for k in alg.shape])


def tensor_algebra(a: VnAlgebra, b: VnAlgebra) -> VnAlgebra:
    """A ⊗̌ B: the tensor of monoids, μ = (μ_A⊗μ_B)∘v with v the interchange shuffle.

    Its structure tensors are the Kronecker ones gathered onto the pair block
    shape by `matcore.pair_reindex`, so a lawless factor stays lawless.  A
    pair block of a homomorphism-type block (x·u*·y) and an anti-type block
    (y·v*·x) gathers the anti factor through its transpose: it holds x⊗yᵀ
    (xᵀ⊗y when A's block is the anti one), where y ↦ yᵀ turns y·v*·x into
    the homomorphism form with unit vᵀ, so the tensor of C* factors is C* on
    the pair carrier.  Pairs of one type, or with a 1×1 block, are gathered
    as they are.
    """
    shape = _structure_shape(pair_shape(a.shape, b.shape))
    ia, ib = np.divmod(pair_reindex(a.shape, b.shape), b.dim)
    sa, sb = _kadison_sides(a)[ia], _kadison_sides(b)[ib]
    ia = np.where((sa > 0) & (sb < 0), blockwise_transpose(a.shape)[ia], ia)
    ib = np.where((sb > 0) & (sa < 0), blockwise_transpose(b.shape)[ib], ib)
    d, r = block_dim(shape), ia * b.dim + ib
    mu_a, mu_b = (x.mult_mat.reshape((x.dim,) * 3) for x in (a, b))
    mult = np.einsum("cab,xyz->cxaybz", mu_a, mu_b).reshape(d, d, d)[np.ix_(r, r, r)]
    inv = np.kron(a.inv_mat, b.inv_mat)[np.ix_(r, r)]
    return VnAlgebra(shape, np.kron(a.unit_vec, b.unit_vec)[r], mult.reshape(d, d * d), inv)


def direct_sum_algebra(a: VnAlgebra, b: VnAlgebra) -> VnAlgebra:
    """A ⊕∞ B: the two structures placed block-diagonally."""
    shape = _structure_shape(a.shape + b.shape)
    da, d = a.dim, block_dim(shape)
    mult = np.zeros((d, d, d), dtype=np.complex128)
    mult[:da, :da, :da] = a.mult_mat.reshape(da, da, da)
    mult[da:, da:, da:] = b.mult_mat.reshape((b.dim,) * 3)
    unit = np.concatenate([a.unit_vec, b.unit_vec])
    return VnAlgebra(shape, unit, mult.reshape(d, d * d), direct_sum(a.inv_mat, b.inv_mat))


def tensor_coalgebra(c: VnCoalgebra, d: VnCoalgebra) -> VnCoalgebra:
    """C ⊗̂ D, the dual of the tensor of the dual algebras: δ = w∘(δ_C⊗δ_D)."""
    return dualize(tensor_algebra(dualize(c), dualize(d)))


def direct_sum_coalgebra(c: VnCoalgebra, d: VnCoalgebra) -> VnCoalgebra:
    """C ⊕₁ D, the dual of the direct sum of the dual algebras."""
    return dualize(direct_sum_algebra(dualize(c), dualize(d)))
