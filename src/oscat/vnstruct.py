"""Finite-dimensional von Neumann algebras ⊕M_{k_i} and coalgebras ⊕T_{k_i}.

Structure maps are stored as explicit tensors over the canonical basis
(so deliberately corrupted structures can be law-checked), the duality
functor transports structure through the trace pairing, and positivity is
available both concretely (block PSD) and through the comultiplication
factorization diagram.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DIM_CAP
from .errors import ShapeMismatchError, SizeLimitError
from .matcore import BlockMatrix, axis_perm, rand_complex, rand_unitary
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

    def norm(self, x: BlockMatrix) -> float:
        return x.op_norm()

    def random_element(self, rng, unit_norm=True) -> BlockMatrix:
        b = BlockMatrix([rand_complex(rng, k) for k in self.shape])
        nrm = b.op_norm() if unit_norm else 0.0
        return b * (1.0 / nrm) if nrm > 0 else b


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

    def norm(self, x: BlockMatrix) -> float:
        return x.tr_norm()

    def random_element(self, rng, unit_norm=True) -> BlockMatrix:
        b = BlockMatrix([rand_complex(rng, k) for k in self.shape])
        nrm = b.tr_norm() if unit_norm else 0.0
        return b * (1.0 / nrm) if nrm > 0 else b


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
    return float(np.max(np.abs(x), initial=0.0))


def _einsum(spec, *ops):
    """einsum through BLAS pairwise contractions (the plain einsum loop is not)."""
    return np.einsum(spec, *ops, optimize=True)


def check_laws(
    structure,
    sample_count: int = 100,
    tol: float = 1e-9,
    rng: np.random.Generator | None = None,
    exact_tol: float = 1e-12,
) -> LawReport:
    rng = rng or np.random.default_rng(0)
    if isinstance(structure, VnAlgebra):
        return _check_algebra_laws(structure, sample_count, tol, rng, exact_tol)
    if isinstance(structure, VnCoalgebra):
        return _check_coalgebra_laws(structure, sample_count, tol, rng, exact_tol)
    raise TypeError("check_laws wants a VnAlgebra or VnCoalgebra")


def _check_algebra_laws(alg: VnAlgebra, samples, tol, rng, exact_tol) -> LawReport:
    rep = LawReport("algebra", True)
    d = alg.dim
    m, p, u, eye = alg.mult_mat.reshape(d, d, d), alg.inv_mat, alg.unit_vec, np.eye(d)
    # m[c, a, b] is the e_c coordinate of e_a·e_b; the basis is real, so
    # i(e_a) = P[:, a] and every law is an identity between whole tensors.
    flat = m.reshape(d, d * d)
    diffs = {
        # associativity μ(μ⊗id) = μ(id⊗μ), one output coordinate e at a time
        # (the whole (e, a, b, c) tensor is d⁴ entries)
        "associativity": max(
            (_maxabs((flat.T @ m[e]).ravel() - (m[e] @ flat).ravel()) for e in range(d)),
            default=0.0,
        ),
        # unit laws μ(1⊗id) = id = μ(id⊗1)
        "left_unit": _einsum("cab,a->cb", m, u) - eye,
        "right_unit": _einsum("cab,b->ca", m, u) - eye,
        # involution squared: i(i(x)) = x  ⇔  P·conj(P) = I
        "involution_squared": p @ p.conj() - eye,
        # reverse multiplicativity (ab)* = b*a*:  P·conj(μ) = μ·(P⊗P)·swap
        "reverse_multiplicativity": _einsum("cx,xab->cab", p, m.conj())
        - _einsum("cxy,xb,ya->cab", m, p, p),
    }
    for name, diff in diffs.items():
        err = _maxabs(diff)
        if err > exact_tol:
            rep.fail(name, err)
    # C*-identity and submultiplicativity on samples + canonical unitaries
    worst_c, worst_s = 0.0, 0.0
    specials = [BlockMatrix.identity(alg.shape)] + [
        BlockMatrix([rand_unitary(rng, k) for k in alg.shape]) for _ in range(3)
    ]
    for idx in range(samples):
        x = (
            specials[idx]
            if idx < len(specials)
            else alg.random_element(rng, unit_norm=True)
        )
        n = alg.norm(x)
        if n == 0:
            continue
        worst_c = max(worst_c, abs(alg.norm(alg.multiply(alg.involute(x), x)) - n * n))
        y = alg.random_element(rng, unit_norm=False)
        worst_s = max(
            worst_s, alg.norm(alg.multiply(x, y)) - n * alg.norm(y)
        )
    if worst_c > tol:
        rep.fail("cstar_identity", worst_c)
    if worst_s > tol:
        rep.fail("submultiplicativity", worst_s)
    rep.details = {"cstar_worst": worst_c, "submult_worst": worst_s}
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


def _check_coalgebra_laws(co: VnCoalgebra, samples, tol, rng, exact_tol) -> LawReport:
    rep = LawReport("coalgebra", True)
    d = co.dim
    dv, p, eye = co.comult_mat.reshape(d, d, d), co.inv_mat, np.eye(d)
    eps = co.counit_vec[_transpose_idx(co.shape)]  # ε(e_a) = eps[a]
    # dv[p, q, a] is the e_p⊗e_q coordinate of δ(e_a); the laws are the duals
    # of the algebra identities
    diffs = {
        # coassociativity (δ⊗id)δ = (id⊗δ)δ, one first output slot i at a time
        "coassociativity": max(
            (
                _maxabs((dv[i] @ dv.reshape(d, d * d)).ravel() - (dv.reshape(d * d, d) @ dv[i]).ravel())
                for i in range(d)
            ),
            default=0.0,
        ),
        # counit laws (ε⊗id)δ = id = (id⊗ε)δ
        "left_counit": _einsum("pqa,p->qa", dv, eps) - eye,
        "right_counit": _einsum("pqa,q->pa", dv, eps) - eye,
        "involution_squared": p @ p.conj() - eye,
        # reverse comultiplicativity δ(j(c)) = (j⊗j)(γ(δ(c))):
        # δ·P = (P⊗P)·swap·conj(δ)
        "reverse_comultiplicativity": _einsum("pqx,xa->pqa", dv, p)
        - _einsum("px,qy,yxa->pqa", p, p, dv.conj()),
    }
    for name, diff in diffs.items():
        err = _maxabs(diff)
        if err > exact_tol:
            rep.fail(name, err)
    # co-C*-identity on random norm-one functionals
    worst = 0.0
    for idx in range(samples):
        if idx == 0:
            e_rep = BlockMatrix.identity(co.shape)
        else:
            e_rep = BlockMatrix([rand_complex(rng, k) for k in co.shape])
        n = e_rep.op_norm()
        if n == 0:
            continue
        e_rep = e_rep * (1.0 / n)
        comp = _coalg_cq_composite(co, e_rep)
        worst = max(worst, abs(comp.op_norm() - 1.0))
    if worst > tol:
        rep.fail("co_cstar_identity", worst)
    rep.details = {"co_cstar_worst": worst}
    return rep


# ---------------------------------------------------------------------------
# duality

def dualize(structure):
    """Trace-pairing transport: algebras ↔ coalgebras on the same shape.

    The pairing is the blockwise transpose t (an involution), so
    δ[(p,q), c] = μ[t c, (t p, t q)] and back.
    """
    if not isinstance(structure, (VnAlgebra, VnCoalgebra)):
        raise TypeError("dualize wants a VnAlgebra or VnCoalgebra")
    d = structure.dim
    t = _transpose_idx(structure.shape)
    if isinstance(structure, VnAlgebra):
        m = structure.mult_mat.reshape(d, d, d)[np.ix_(t, t, t)]
        return VnCoalgebra(
            structure.shape,
            structure.unit_vec.copy(),
            m.transpose(1, 2, 0).reshape(d * d, d),
            structure.inv_mat.copy(),
        )
    m = structure.comult_mat.reshape(d, d, d)[np.ix_(t, t, t)]
    return VnAlgebra(
        structure.shape,
        structure.counit_vec.copy(),
        m.transpose(2, 0, 1).reshape(d, d * d),
        structure.inv_mat.copy(),
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


def _worst_norm(cols: np.ndarray, shape, picture: str) -> float:
    """Largest BlockMatrix norm among the columns of cols (coordinate vectors over shape).

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
    return float(per_col.max(initial=0.0))


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
        - _einsum("cxy,xa,yb->cab", mu_b, t, t).reshape(db, da * da),
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
            co_d.comult_mat @ t - _einsum("px,qy,xya->pqa", t, t, delta_c).reshape(dd * dd, dc)
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

