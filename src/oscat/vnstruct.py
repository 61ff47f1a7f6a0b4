"""Finite-dimensional von Neumann algebras ⊕M_{k_i} and coalgebras ⊕T_{k_i}.

Structure maps are stored as explicit tensors over the canonical basis
(so deliberately corrupted structures can be law-checked), the duality
functor transports structure through the trace pairing, and positivity is
available both concretely (block PSD) and through the comultiplication
factorization diagram.  The law suites decide every law exactly: algebraic
laws as whole-tensor identities, the C* identity by Kadison's isometry
theorem (a C*-algebra on ⊕M_k has a blockwise unitary unit u, multiplies each
block as x·u*·y or y·u*·x and involutes as x ↦ u·x*·u), coalgebras through
their dual.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DIM_CAP
from .errors import ShapeMismatchError, SizeLimitError
from .matcore import BlockMatrix, axis_perm
from .normlab.brackets import NormBracket
from .normlab.diamond import cb_norm
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
    "structure_to_json_dict",
    "structure_from_json_dict",
    "morphism_claim",
    "certify_claim",
    "tensor_algebra",
    "direct_sum_algebra",
    "tensor_coalgebra",
    "direct_sum_coalgebra",
    "trace_pairing",
]


def _shape_dim(shape) -> int:
    return sum(k * k for k in shape)


def _blocks(shape):
    """(coordinate offset, size) of each block."""
    off = 0
    for k in shape:
        yield off, k
        off += k * k


def _transpose_idx(shape) -> np.ndarray:
    """Index array t with vec(x)[t] = vec(xᵀ) blockwise.

    It is an involution, and it is also the trace pairing:
    ⟨f, x⟩ = f_vec[t] · x_vec.
    """
    idx = np.arange(_shape_dim(shape))
    for off, k in _blocks(shape):
        idx[off : off + k * k] = off + axis_perm((k, k), (1, 0))
    return idx


def trace_pairing(f: BlockMatrix, x: BlockMatrix) -> complex:
    """Bilinear pairing ⟨f, x⟩ = Σ_i tr(f_i x_i)."""
    f._check(x)
    return complex(sum(np.trace(a @ b) for a, b in zip(f.blocks, x.blocks)))


@dataclass(frozen=True)
class VnAlgebra:
    """shape + unit vector, multiplication matrix (dim × dim²), involution.

    The involution acts antilinearly: i(x) = inv_mat · conj(x_vec).
    """

    shape: tuple[int, ...]
    unit_vec: np.ndarray
    mult_mat: np.ndarray
    inv_mat: np.ndarray

    @property
    def dim(self) -> int:
        return _shape_dim(self.shape)

    def unit(self) -> BlockMatrix:
        return BlockMatrix.from_vector(self.unit_vec, self.shape)

    def multiply(self, x: BlockMatrix, y: BlockMatrix) -> BlockMatrix:
        v = self.mult_mat @ np.kron(x.to_vector(), y.to_vector())
        return BlockMatrix.from_vector(v, self.shape)

    def involute(self, x: BlockMatrix) -> BlockMatrix:
        return BlockMatrix.from_vector(self.inv_mat @ x.to_vector().conj(), self.shape)


@dataclass(frozen=True)
class VnCoalgebra:
    """shape + counit vector (as a functional rep), comultiplication, involution.

    counit(x) = ⟨counit_rep, x⟩; comult_mat maps dim → dim²; involution
    antilinear as in VnAlgebra.
    """

    shape: tuple[int, ...]
    counit_vec: np.ndarray
    comult_mat: np.ndarray
    inv_mat: np.ndarray

    @property
    def dim(self) -> int:
        return _shape_dim(self.shape)

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
    shape = tuple(int(k) for k in shape)
    if any(k < 0 for k in shape):
        raise ShapeMismatchError("block sizes must be >= 0")
    d = _shape_dim(shape)
    if d * d > DIM_CAP:
        raise SizeLimitError(f"structure matrix {d}x{d * d} exceeds cap {DIM_CAP}")
    return shape


def _unit_products(shape):
    """Coordinate triples (il, ij, jl) of every nonzero product e_ij·e_jl = e_il."""
    for off, n in _blocks(shape):
        i, j, l = np.indices((n, n, n)).reshape(3, -1)
        yield off + i * n + l, off + i * n + j, off + j * n + l


def make_algebra(shape) -> VnAlgebra:
    shape = _structure_shape(shape)
    d = _shape_dim(shape)
    mult = np.zeros((d, d, d), dtype=np.complex128)
    for il, ij, jl in _unit_products(shape):
        mult[il, ij, jl] = 1.0
    inv = np.eye(d)[_transpose_idx(shape)]
    return VnAlgebra(
        shape, BlockMatrix.identity(shape).to_vector(), mult.reshape(d, d * d), inv
    )


def make_coalgebra(shape) -> VnCoalgebra:
    """⊕T_{k_i}: counit = blockwise trace, δ(e_ij) = Σ_k e_kj ⊗ e_ik per block."""
    shape = _structure_shape(shape)
    d = _shape_dim(shape)
    comult = np.zeros((d, d, d), dtype=np.complex128)
    for ij, ik, kj in _unit_products(shape):
        comult[kj, ik, ij] = 1.0
    inv = np.eye(d)[_transpose_idx(shape)]
    return VnCoalgebra(
        shape, BlockMatrix.identity(shape).to_vector(), comult.reshape(d * d, d), inv
    )


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


def _maxabs(x) -> float:
    return float(np.abs(x).max(initial=0.0))


def check_laws(structure, tol: float = 1e-9, exact_tol: float = 1e-12) -> LawReport:
    """Decide every (co)algebra law and the (co-)C* identity; nothing is sampled.

    Algebraic laws are whole-tensor identities: the max-abs residual must be
    ≤ exact_tol·max(1, magnitude of the products compared), where a product's
    magnitude is that of its factors' max-abs entries multiplied.
    By Kadison's isometry theorem (Ann. Math. 54, 1951) the identity map onto
    ⊕M_k with its blockwise operator norm is u·(Jordan *-isomorphism), so
    (μ, P, 1) is a C*-algebra exactly when the unit u is blockwise unitary,
    each block multiplies as x·u*·y or y·u*·x, and the involution is
    x ↦ u·x*·u (conversely x ↦ u*·x is then an isometric blockwise
    (anti-)isomorphism).  ``cstar_identity`` fails when that match residual,
    ``details["cstar_worst"]``, exceeds tol; if every exact law holds, the
    unit, e_ij or e_ij + e_ji with the largest |‖x*x‖ − ‖x‖²| is recorded as
    ``cstar_witness``.  Coalgebras are decided on ``dualize(co)`` (``co_cstar_*``).
    """
    if isinstance(structure, VnAlgebra):
        return _check_algebra_laws(structure, tol, exact_tol)
    if isinstance(structure, VnCoalgebra):
        return _check_coalgebra_laws(structure, tol, exact_tol)
    raise TypeError("check_laws wants a VnAlgebra or VnCoalgebra")


def _kadison_residual(alg: VnAlgebra) -> float:
    """Max-abs distance of (μ, P, 1) from the C*-algebra forms Kadison allows.

    Reads u from the unit; per block the multiplication is matched against
    x·u*·y and y·u*·x (the closer one counts), the involution against u·x*·u.
    """
    d = alg.dim
    m = alg.mult_mat.reshape(d, d, d)
    mult = np.zeros_like(m)
    inv = np.zeros((d, d), dtype=np.complex128)
    res = 0.0
    for off, k in _blocks(alg.shape):
        s, eye = slice(off, off + k * k), np.eye(k)
        u = alg.unit_vec[s].reshape(k, k)
        res = max(res, _maxabs(u @ u.conj().T - eye))
        # e_ij·u*·e_lm = conj(u_lj)·e_im
        hom = np.einsum("ip,mq,lj->impjlq", eye, eye, u.conj()).reshape(k * k, k * k, k * k)
        anti = hom.transpose(0, 2, 1)
        mb = m[s, s, s]
        mult[s, s, s] = hom if _maxabs(mb - hom) <= _maxabs(mb - anti) else anti
        # (u·x*·u)_im = Σ_jl u_ij conj(x_lj) u_lm
        inv[s, s] = np.einsum("ij,lm->imlj", u, u).reshape(k * k, k * k)
    return max(res, _maxabs(m - mult), _maxabs(alg.inv_mat - inv))


def _cstar_witness(alg: VnAlgebra) -> tuple[BlockMatrix, float]:
    """The candidate x with the largest |‖x*x‖ − ‖x‖²|: unit, e_ij, e_ij + e_ji."""
    d = alg.dim
    t = _transpose_idx(alg.shape)
    a, e = np.flatnonzero(t > np.arange(d)), np.eye(d)
    xs = np.vstack([alg.unit_vec, e, e[a] + e[t[a]]])
    adj = xs.conj() @ alg.inv_mat.T  # rows i(x)
    prod = ((adj @ alg.mult_mat.reshape(d, d, d)) * xs).sum(axis=-1)  # columns i(x)·x
    nrm = _col_norms(np.hstack([prod, xs.T]), alg.shape, "operator").reshape(2, -1)
    defect = np.abs(nrm[0] - nrm[1] ** 2)
    w = int(np.argmax(defect))
    return BlockMatrix.from_vector(xs[w], alg.shape), float(defect[w])


def _check_algebra_laws(alg: VnAlgebra, tol, exact_tol) -> LawReport:
    rep = LawReport("algebra", True)
    d = alg.dim
    m, p, u, eye = alg.mult_mat.reshape(d, d, d), alg.inv_mat, alg.unit_vec, np.eye(d)
    # m[c, a, b] is the e_c coordinate of e_a·e_b; the basis is real, so
    # i(e_a) = P[:, a] and every law is an identity between whole tensors.
    flat = m.reshape(d, d * d)
    slab = max(1, 4096 // max(1, d**3))
    diffs = {
        # associativity μ(μ⊗id) = μ(id⊗μ), over cache-sized slabs of output
        # coordinates e (the whole (e, a, b, c) tensor is d⁴ entries)
        "associativity": max(
            (
                _maxabs(flat.T @ m[e : e + slab] - (m[e : e + slab] @ flat).reshape(-1, d * d, d))
                for e in range(0, d, slab)
            ),
            default=0.0,
        ),
        # unit laws μ(1⊗id) = id = μ(id⊗1)
        "left_unit": u @ m - eye,
        "right_unit": m @ u - eye,
        # involution squared: i(i(x)) = x  ⇔  P·conj(P) = I
        "involution_squared": p @ p.conj() - eye,
        # reverse multiplicativity (ab)* = b*a*:  P·conj(μ) = μ·(P⊗P)·swap
        "reverse_multiplicativity": (p @ flat.conj()).reshape(d, d, d)
        - (p.T @ m @ p).transpose(0, 2, 1),
    }
    # the magnitude of the products each law compares (the product of their
    # factors' max-abs entries) scales the rounding a valid structure leaves
    mu, pm, um = _maxabs(m), _maxabs(p), _maxabs(u)
    sizes = {
        "associativity": mu * mu,
        "left_unit": um * mu,
        "right_unit": um * mu,
        "involution_squared": pm * pm,
        "reverse_multiplicativity": pm * pm * mu,
    }
    for name, diff in diffs.items():
        err = _maxabs(diff)
        if err > exact_tol * max(1.0, sizes[name]):
            rep.fail(name, err)
    res = rep.details["cstar_worst"] = _kadison_residual(alg)
    if res > tol:
        if rep.passed:
            # a *-algebra that matches no C* form: show an x that breaks the
            # identity (a failed exact law is already its own evidence)
            rep.details["cstar_witness"], rep.details["cstar_witness_defect"] = _cstar_witness(alg)
        rep.fail("cstar_identity", res)
    return rep


def _coalg_cq_composite(co: VnCoalgebra, e_rep: BlockMatrix) -> BlockMatrix:
    """Representing matrix of the co-C*-identity composite functional.

    The composite  C_o → (C⊗C)_o → C_o⊗C_o → C_o⊗C_c → C_o⊗C_c ≅ C  applied
    to a basis vector c gives Σ e(c₍₂₎)·conj(e(j(c₍₁₎))) over δ(c) = Σ c₍₁₎⊗c₍₂₎;
    on T_n with e = tr(a·) this reproduces tr(a*a ·).
    """
    d = co.dim
    t = _transpose_idx(co.shape)
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


def _check_coalgebra_laws(co: VnCoalgebra, tol, exact_tol) -> LawReport:
    """The algebra laws of dualize(co), renamed.

    Under the trace pairing each coalgebra law is the dual of an algebra law,
    with residuals equal entry for entry up to order and conjugation; the
    co-C* composite is the C* identity of the dual.
    """
    rep = _check_algebra_laws(dualize(co), tol, exact_tol)
    return LawReport(
        "coalgebra",
        rep.passed,
        [(_CO_LAWS[name], err) for name, err in rep.failures],
        {"co_" + key: value for key, value in rep.details.items()},
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
    d = structure.dim
    t = _transpose_idx(structure.shape)
    inv = structure.inv_mat.conj().T[np.ix_(t, t)]
    if isinstance(structure, VnAlgebra):
        m = structure.mult_mat.reshape(d, d, d)[np.ix_(t, t, t)]
        return VnCoalgebra(
            structure.shape,
            structure.unit_vec.copy(),
            m.transpose(1, 2, 0).reshape(d * d, d),
            inv,
        )
    m = structure.comult_mat.reshape(d, d, d)[np.ix_(t, t, t)]
    return VnAlgebra(
        structure.shape,
        structure.counit_vec.copy(),
        m.transpose(2, 0, 1).reshape(d, d * d),
        inv,
    )


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
        herm_defect = max(herm_defect, float(np.linalg.norm(b - b.conj().T, 2)))
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


def certify_morphism(
    f: SuperOp,
    src,
    dst,
    mode: str,
    tol: float = 1e-9,
    with_cb_check: bool = True,
) -> MorphismVerdict:
    v = MorphismVerdict(True, mode)
    if tuple(f.dom_shape) != tuple(src.shape) or tuple(f.cod_shape) != tuple(dst.shape):
        raise ShapeMismatchError("morphism shapes do not match the structures")
    flags = f.classify(tol)
    v.diagnostics["flags"] = flags
    if mode in ("cpu", "cptp"):
        if not flags.cp:
            v.ok = False
            v.failures.append(("cp", flags.min_choi_eig))
        want_unital = mode == "cpu"
        if want_unital and not flags.unital:
            v.ok = False
            v.failures.append(("unital", flags.unit_defect))
        if mode == "cptp" and not flags.tp:
            v.ok = False
            v.failures.append(("tp", flags.trace_defect))
        if with_cb_check and v.ok:
            picture = "operator" if mode == "cpu" else "trace"
            br: NormBracket = cb_norm(f, picture)
            v.diagnostics["cb_norm"] = (br.lower, br.upper)
            v.diagnostics["cb_route"] = br.witnesses["route"]
            if br.status == "exact" and abs(br.mid - 1.0) > 1e-6:
                v.ok = False
                v.failures.append(("cb_norm_one", br.mid - 1.0))
        return v
    if mode == "alg_hom":
        return _check_alg_hom(f, src, dst, tol, v)
    if mode == "coalg_hom":
        return _check_coalg_hom(f, src, dst, tol, v)
    raise ValueError(f"unknown morphism mode {mode!r}")


def _transfer(f: SuperOp) -> np.ndarray:
    """Matrix T of f on the block coordinates: T[:, a] = vec(f(e_a))."""
    dom = np.cumsum((0,) + tuple(k * k for k in f.dom_shape))
    cod = np.cumsum((0,) + tuple(l * l for l in f.cod_shape))
    out = np.zeros((cod[-1], dom[-1]), dtype=np.complex128)
    for i in range(len(f.dom_shape)):
        for j in range(len(f.cod_shape)):
            out[cod[j] : cod[j + 1], dom[i] : dom[i + 1]] = f.transfer_block(i, j)
    return out


def _col_norms(cols: np.ndarray, shape, picture: str) -> np.ndarray:
    """BlockMatrix norm of each column of cols (coordinate vectors over shape).

    Operator picture: max over blocks of the operator norm; trace picture:
    sum over blocks of the trace norm.  All columns are batched per block.
    """
    per_col = np.zeros(cols.shape[1])
    for off, k in _blocks(shape):
        if k == 0:
            continue
        sv = np.linalg.svd(cols[off : off + k * k].T.reshape(-1, k, k), compute_uv=False)
        if picture == "operator":
            per_col = np.maximum(per_col, sv[:, 0])
        else:
            per_col = per_col + sv.sum(axis=1)
    return per_col


def _worst_norm(cols: np.ndarray, shape, picture: str) -> float:
    """Largest BlockMatrix norm among the columns of cols."""
    return float(_col_norms(cols, shape, picture).max(initial=0.0))


def _flag(v: MorphismVerdict, errs: dict, tol) -> None:
    for name, err in errs.items():
        if err > tol:
            v.ok = False
            v.failures.append((name, err))


def _check_alg_hom(f, alg_a: VnAlgebra, alg_b: VnAlgebra, tol, v) -> MorphismVerdict:
    da, db = alg_a.dim, alg_b.dim
    t = _transfer(f)
    mu_b = alg_b.mult_mat.reshape(db, db, db)
    # f(1) = 1,  T·μ_A = μ_B·(T⊗T),  T·P_A = P_B·conj(T); each column is one
    # basis element (pair), measured in the blockwise operator norm
    diffs = {
        "unital": (t @ alg_a.unit_vec - alg_b.unit_vec)[:, None],
        "multiplicative": t @ alg_a.mult_mat
        - (t.T @ mu_b @ t).reshape(db, da * da),
        "involutive": t @ alg_a.inv_mat - alg_b.inv_mat @ t.conj(),
    }
    errs = {name: _worst_norm(x, alg_b.shape, "operator") for name, x in diffs.items()}
    _flag(v, errs, tol)
    v.diagnostics.update(
        mult_err=errs["multiplicative"], inv_err=errs["involutive"], unit_err=errs["unital"]
    )
    return v


def _check_coalg_hom(f, co_c: VnCoalgebra, co_d: VnCoalgebra, tol, v) -> MorphismVerdict:
    dc, dd = co_c.dim, co_d.dim
    t = _transfer(f)
    eps_c = co_c.counit_vec[_transpose_idx(co_c.shape)]
    eps_d = co_d.counit_vec[_transpose_idx(co_d.shape)]
    delta_c = co_c.comult_mat.reshape(dc, dc, dc)
    # ε_D·T = ε_C,  δ_D·T = (T⊗T)·δ_C (both entrywise),  T·P_C = P_D·conj(T)
    # (blockwise trace norm per basis element)
    errs = {
        "counital": _maxabs(eps_d @ t - eps_c),
        "comultiplicative": _maxabs(
            co_d.comult_mat @ t
            - (t @ delta_c.transpose(2, 0, 1) @ t.T).transpose(1, 2, 0).reshape(dd * dd, dc)
        ),
        "involutive": _worst_norm(
            t @ co_c.inv_mat - co_d.inv_mat @ t.conj(), co_d.shape, "trace"
        ),
    }
    _flag(v, errs, tol)
    v.diagnostics.update(
        counit_err=errs["counital"],
        comult_err=errs["comultiplicative"],
        inv_err=errs["involutive"],
    )
    return v


# ---------------------------------------------------------------------------
# serialization: structures as {kind, shape}, morphism claims as
# {choi, src, dst, mode}

def structure_to_json_dict(structure) -> dict:
    if isinstance(structure, VnAlgebra):
        return {"kind": "algebra", "shape": list(structure.shape)}
    if isinstance(structure, VnCoalgebra):
        return {"kind": "coalgebra", "shape": list(structure.shape)}
    raise TypeError("expected a VnAlgebra or VnCoalgebra")


def structure_from_json_dict(d: dict):
    if d["kind"] == "algebra":
        return make_algebra(d["shape"])
    if d["kind"] == "coalgebra":
        return make_coalgebra(d["shape"])
    raise ValueError(f"unknown structure kind {d['kind']!r}")


def morphism_claim(f: SuperOp, src, dst, mode: str) -> dict:
    from .matcore import format_matrix_literal

    return {
        "choi": format_matrix_literal(f.big_choi()),
        "src": structure_to_json_dict(src),
        "dst": structure_to_json_dict(dst),
        "mode": mode,
    }


def certify_claim(claim: dict, tol: float = 1e-9) -> MorphismVerdict:
    from .matcore import parse_matrix_literal

    src = structure_from_json_dict(claim["src"])
    dst = structure_from_json_dict(claim["dst"])
    f = SuperOp.from_big_choi(parse_matrix_literal(claim["choi"]), src.shape, dst.shape)
    return certify_morphism(f, src, dst, claim["mode"], tol)


# ---------------------------------------------------------------------------
# tensor and direct-sum structures (via the interchange/shuffle composites)

def direct_sum_algebra(a: VnAlgebra, b: VnAlgebra) -> VnAlgebra:
    """A ⊕∞ B with pointwise structure (the v' interchange composite)."""
    return make_algebra(a.shape + b.shape)


def direct_sum_coalgebra(c: VnCoalgebra, d: VnCoalgebra) -> VnCoalgebra:
    return make_coalgebra(c.shape + d.shape)


def _pair_shape(a_shape, b_shape) -> tuple[int, ...]:
    return tuple(ka * kb for ka in a_shape for kb in b_shape)


def _tensor_reindex(a_shape, b_shape) -> np.ndarray:
    """Basis bijection  V(A)⊗V(B) → V(⊕_{ij} M_{k_i·l_j})  (coordinate map).

    e_pq^(i) ⊗ e_rs^(j) ↦ E_{(p,r),(q,s)} in block (i,j).
    """
    db = _shape_dim(b_shape)
    src = [np.zeros(0, int)]
    for a_off, ka in _blocks(a_shape):
        for b_off, kb in _blocks(b_shape):
            # block (i,j) lists its (p,r),(q,s) coordinates in order; local
            # index (p,q,r,s) sits at (a_off + pq)·db + b_off + rs in V(A)⊗V(B)
            idx = axis_perm((ka, ka, kb, kb), (0, 2, 1, 3))
            src.append((a_off + idx // (kb * kb)) * db + b_off + idx % (kb * kb))
    return np.eye(_shape_dim(a_shape) * db)[np.concatenate(src)]


def tensor_algebra(a: VnAlgebra, b: VnAlgebra) -> VnAlgebra:
    """A ⊗̌ B realized on the pairwise block shape via the basis bijection."""
    return make_algebra(_pair_shape(a.shape, b.shape))


def tensor_coalgebra(c: VnCoalgebra, d: VnCoalgebra) -> VnCoalgebra:
    """C ⊗̂ D realized on the pairwise block shape via the basis bijection."""
    return make_coalgebra(_pair_shape(c.shape, d.shape))


def tensor_algebra_structure_composite(a: VnAlgebra, b: VnAlgebra):
    """Literal interchange-based structure tensors of A ⊗̌ B (for law checks).

    Returns (unit_vec, mult_mat, inv_mat) over the plain V(A)⊗V(B) basis,
    with μ = (μ_A ⊗ μ_B) ∘ v built from the shuffle permutation.
    """
    da, db = a.dim, b.dim
    unit = np.kron(a.unit_vec, b.unit_vec)
    v_shuffle = np.eye((da * db) ** 2)[axis_perm((da, db, da, db), (0, 2, 1, 3))]
    mult = np.kron(a.mult_mat, b.mult_mat) @ v_shuffle
    inv = np.kron(a.inv_mat, b.inv_mat)
    return unit, mult, inv


def tensor_coalgebra_structure_composite(c: VnCoalgebra, d: VnCoalgebra):
    """Literal w-shuffle composite: δ = w ∘ (δ_C ⊗ δ_D), ε = ε_C ⊗ ε_D."""
    dc, dd = c.dim, d.dim
    counit = np.kron(c.counit_vec, d.counit_vec)  # pairing reps kron
    w_idx = axis_perm((dc, dc, dd, dd), (0, 2, 1, 3))
    comult = np.kron(c.comult_mat, d.comult_mat)[w_idx]
    inv = np.kron(c.inv_mat, d.inv_mat)
    return counit, comult, inv

