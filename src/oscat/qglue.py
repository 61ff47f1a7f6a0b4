"""The glued category of operator spaces with bipolar subsets of the unit ball.

Objects pair a space with a symbolically described subset; polars are taken
symbolically with the collapses the theory licenses (density sets, unit sets,
unitary singletons, S°° = S for every set bipolar by construction), ⅋ and ⊕
are the de Morgan duals of ⊗ and &, and membership is three-valued:
yes / no / unknown — an unsupported bipolar closure answers unknown rather
than guessing.  Tensor-factor coordinates use the shared canonical basis, so
elementary tensors are plain outer products of coordinate vectors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DIM_CAP
from .errors import ShapeMismatchError, SizeLimitError
from .matcore import BlockMatrix, axis_perm, op_norm, pair_shape, psd_check, unit_vector
from .normlab.brackets import FlatSpace, NormBracket
from .normlab.diamond import cb_norm
from .osx import (
    M,
    SpaceElement,
    SpaceExpr,
    algebra_space,
    block_carrier,
    coalgebra_space,
    dim,
    dual,
    norm_at,
    sum_inf,
    tens_h,
    tens_proj,
)
from .supop import SuperOp
from .vnstruct import VnAlgebra, VnCoalgebra

__all__ = [
    "SetSpec",
    "QObject",
    "unit_set",
    "density_ops",
    "singleton_unitary",
    "finite_set",
    "embed_H",
    "embed_S",
    "unit_object",
    "generators",
    "polar",
    "membership",
    "connective",
    "check_morphism",
    "MorphismResult",
    "quantum_switch_map",
    "quantum_switch",
]


@dataclass(frozen=True)
class SetSpec:
    """Symbolic subset of the unit ball of `space`.

    kinds: empty | full_ball | unit_set(shape) | density_ops(shape) |
    singleton_unitary(shape, u) | finite(elems, closure) | polar_of(inner) |
    product(s, r) | tensor_bipolar(s, r)
    """

    kind: str
    space: SpaceExpr
    payload: tuple = ()


@dataclass(frozen=True)
class QObject:
    space: SpaceExpr
    set: SetSpec


# ---------------------------------------------------------------------------
# constructors

def unit_set(shape) -> SetSpec:
    shape = tuple(shape)
    return SetSpec("unit_set", algebra_space(shape), (shape,))


def density_ops(shape) -> SetSpec:
    shape = tuple(shape)
    return SetSpec("density_ops", coalgebra_space(shape), (shape,))


def singleton_unitary(u: BlockMatrix, shape=None) -> SetSpec:
    shape = tuple(shape) if shape is not None else tuple(u.shape)
    uu = (u @ u.adjoint() - BlockMatrix.identity(shape)).op_norm()
    if uu > 1e-9:
        raise ShapeMismatchError("singleton element is not unitary")
    return SetSpec("singleton_unitary", algebra_space(shape), (shape, u))


def finite_set(elems, space: SpaceExpr, closure_status: str = "as_given") -> SetSpec:
    elems = tuple(np.asarray(e, dtype=np.complex128).ravel() for e in elems)
    return SetSpec("finite", space, (elems, closure_status))


def embed_H(a: VnAlgebra) -> QObject:
    """H(A) = (A, {1_A})."""
    return QObject(algebra_space(a.shape), unit_set(a.shape))


def embed_S(c: VnCoalgebra) -> QObject:
    """S(C) = (C, P_C)."""
    return QObject(coalgebra_space(c.shape), density_ops(c.shape))


def unit_object() -> QObject:
    """The tensor unit (C, {1})."""
    return QObject(M(1), singleton_unitary(BlockMatrix([np.eye(1)]), (1,)))


# ---------------------------------------------------------------------------
# pairing and generators

def _pairing_twist(space: SpaceExpr) -> np.ndarray:
    """Index array p with ⟨f, x⟩ = Σ_i f_i·x_{p_i} for representing-tensor coordinates.

    On M(n, m) it is the transpose; a dual inverts it, sums concatenate and
    tensors take pairs, so no permutation matrix is ever built.
    """
    if space.kind == "base":
        return axis_perm(space.args, (1, 0))
    if space.kind == "dual":
        return np.argsort(_pairing_twist(space.args[0]))
    if space.kind in ("conj", "opp"):
        return _pairing_twist(space.args[0])
    a, b = (_pairing_twist(x) for x in space.args)
    if space.kind in ("sum_inf", "sum_1"):
        return np.concatenate([a, b + a.size])
    return (a[:, None] * b.size + b).ravel()


def pairing(space: SpaceExpr, f_coords, x_coords) -> complex:
    """Apply a functional (dual coordinates) to an element of `space`."""
    p = _pairing_twist(space)
    return complex(np.asarray(f_coords).ravel()[np.argsort(p)] @ np.asarray(x_coords).ravel())


def generators(s: SetSpec):
    """(level-1 coordinate vectors, exhaustive?) used for pairing tests."""
    if s.kind == "empty":
        return [], True
    if s.kind == "unit_set":
        return [unit_vector(s.payload[0])], True
    if s.kind == "singleton_unitary":
        return [s.payload[1].to_vector()], True
    if s.kind == "finite":
        return list(s.payload[0]), s.payload[1] in ("as_given", "bipolar")
    if s.kind == "density_ops":
        # the pure basis states e_ii sample the set
        unit = unit_vector(s.payload[0])
        return list(np.eye(unit.size, dtype=np.complex128)[np.flatnonzero(unit)]), False
    if s.kind == "tensor_bipolar":
        ga, _ = generators(s.payload[0])
        gb, _ = generators(s.payload[1])
        return [np.outer(x, y).ravel() for x in ga for y in gb], False
    if s.kind == "product":
        ga, ea = generators(s.payload[0])
        gb, eb = generators(s.payload[1])
        return [np.concatenate([x, y]) for x in ga for y in gb], ea and eb
    if s.kind == "polar_of":
        inner = s.payload[0]
        if inner.kind == "singleton_unitary":
            shape, u = inner.payload
            n_tot = sum(shape)
            if n_tot:
                return [(u.adjoint() * (1.0 / n_tot)).to_vector()], False
            return [], False
        if inner.kind == "tensor_bipolar":
            a, b = inner.payload
            fa, _ = generators(polar(a))
            fb, _ = generators(polar(b))
            return [np.outer(x, y).ravel() for x in fa for y in fb], False
        return [], False
    return [], False


# ---------------------------------------------------------------------------
# polar

def _bipolar(s: SetSpec) -> bool:
    """s = s°° by construction; (S × R)°° = S°° × R°° by `_split_membership`'s convex split."""
    if s.kind == "finite":
        return s.payload[1] == "bipolar"
    if s.kind == "product":
        return all(_bipolar(p) for p in s.payload)
    return s.kind in ("polar_of", "tensor_bipolar", "unit_set", "density_ops", "singleton_unitary")


def polar(s: SetSpec) -> SetSpec:
    """S° with the collapses proven in the theory applied symbolically."""
    dual_space = dual(s.space)
    if s.kind == "empty":
        return SetSpec("full_ball", dual_space)
    if s.kind == "full_ball":
        return SetSpec("empty", dual_space)
    if s.kind == "unit_set":
        return density_ops(s.payload[0])
    if s.kind == "density_ops":
        return unit_set(s.payload[0])
    if s.kind == "polar_of" and _bipolar(s.payload[0]):
        return s.payload[0]  # S°° = S
    return SetSpec("polar_of", dual_space, (s,))


# ---------------------------------------------------------------------------
# membership

def membership(s: SetSpec, x_coords, tol: float = 1e-9) -> str:
    """Three-valued membership: 'yes' | 'no' | 'unknown'."""
    x = np.asarray(x_coords, dtype=np.complex128).ravel()
    if x.size != dim(s.space):
        raise ShapeMismatchError("element dimension does not match the carrier")

    if s.kind == "empty":
        return "no"
    if s.kind == "full_ball":
        return _norm_leq_one(s.space, x, tol)
    if s.kind == "unit_set":
        ref = unit_vector(s.payload[0])
        return "yes" if _close_block(x, ref, s.payload[0], tol) else "no"
    if s.kind == "singleton_unitary":
        ok = _close_block(x, s.payload[1].to_vector(), s.payload[0], tol)
        return "yes" if ok else "no"
    if s.kind == "density_ops":
        shape = s.payload[0]
        b = BlockMatrix.from_vector(x, shape)
        if abs(b.trace() - 1) > tol:
            return "no"
        return "yes" if all(psd_check(blk, tol) for blk in b.blocks) else "no"
    if s.kind == "finite":
        for e in s.payload[0]:
            if np.max(np.abs(e - x)) <= tol:
                return "yes"
        return "no"
    if s.kind in ("polar_of", "tensor_bipolar"):
        gens, _ = generators(s)
        if any(np.max(np.abs(g - x)) <= tol for g in gens):
            return "yes"
        # a bipolar closure S°° is the polar of S°
        if s.kind == "tensor_bipolar":
            s = SetSpec("polar_of", s.space, (polar(s),))
        return _polar_membership(s, x, tol)
    if s.kind == "product":
        a, b = s.payload
        da = dim(a.space)
        ra = membership(a, x[:da], tol)
        rb = membership(b, x[da:], tol)
        if "no" in (ra, rb):
            return "no"
        return "yes" if ra == rb == "yes" else "unknown"
    raise ValueError(f"unknown SetSpec kind {s.kind!r}")


def _close_block(x, ref, shape, tol) -> bool:
    return BlockMatrix.from_vector(x - ref, shape).op_norm() <= tol


def _norm_leq_one(space, coords, tol) -> str:
    br = norm_at(SpaceElement(space, 1, coords))
    if br.status == "unknown":
        return "unknown"
    if br.upper <= 1 + max(tol, 1e-7):
        return "yes"
    if br.lower > 1 + max(tol, 1e-7):
        return "no"
    return "unknown"


def _polar_membership(s: SetSpec, f, tol) -> str:
    inner = s.payload[0]
    if inner.kind == "product" and all(generators(x)[0] for x in inner.payload):
        return _split_membership(*inner.payload, f, tol)
    gens, exhaustive = generators(inner)
    for g in gens:
        if abs(pairing(inner.space, f, g) - 1) > max(tol, 1e-7):
            return "no"
    ball = _norm_leq_one(s.space, f, tol)
    if ball == "no":
        return "no"
    if ball == "yes" and exhaustive:
        return "yes"
    return "unknown"


def _split_membership(s: SetSpec, r: SetSpec, f, tol) -> str:
    """f ∈ (S × R)° = {(α·g, (1−α)·h) : α ∈ [0, 1], g ∈ S°, h ∈ R°}, for S and R with generators.

    A member pairs to one α with every x ∈ S and to 1 − α with every y ∈ R; its
    ℓ¹ norm is at most 1, which forces α ∈ [0, 1], ‖f_S‖ = α and ‖f_R‖ = 1 − α.
    Each part's coefficient is its mean pairing over its factor's generators,
    and the part is judged scaled by it, so the slack tol stays absolute.
    """
    ds = dim(s.space)
    parts = ((f[:ds], s), (f[ds:], r))
    coeffs = [np.mean([pairing(x.space, part, g) for g in generators(x)[0]]) for part, x in parts]
    if abs(sum(coeffs) - 1) > tol:
        return "no"
    verdicts = []
    for (part, x), c in zip(parts, coeffs):
        if abs(c.imag) > tol or not -tol <= c.real <= 1 + tol:
            return "no"
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scaled, slack = part / c, tol / abs(c)
        if np.isfinite(scaled).all():
            verdicts.append(membership(polar(x), scaled, slack))
        elif np.any(np.abs(part) > tol):  # c ≈ 0, and no coordinate exceeds the norm
            return "no"
    if "no" in verdicts:
        return "no"
    return "yes" if all(v == "yes" for v in verdicts) else "unknown"


# ---------------------------------------------------------------------------
# connectives (Thm: Q is *-autonomous with finite (co)products)

def connective(kind: str, a: QObject, b: QObject | None = None) -> QObject:
    if kind == "dual":
        return QObject(dual(a.space), polar(a.set))
    if b is None:
        raise ShapeMismatchError(f"connective {kind!r} needs two objects")
    if kind == "with":
        space = sum_inf(a.space, b.space)
        return QObject(space, SetSpec("product", space, (a.set, b.set)))
    if kind == "plus":
        if a.set.kind == "density_ops" and b.set.kind == "density_ops":
            shape = a.set.payload[0] + b.set.payload[0]
            return QObject(coalgebra_space(shape), density_ops(shape))
        # de Morgan: A ⊕ B = (A^⊥ & B^⊥)^⊥
        return connective("dual", connective("with", connective("dual", a), connective("dual", b)))
    if kind == "tensor":
        if a.set.kind == "density_ops" and b.set.kind == "density_ops":
            shape = pair_shape(a.set.payload[0], b.set.payload[0])
            return QObject(coalgebra_space(shape), density_ops(shape))
        space = tens_proj(a.space, b.space)
        if a.set.kind == "singleton_unitary" and b.set.kind == "singleton_unitary":
            # {u}⊗{v} is bipolar and collapses to {u⊗v}; the carrier stays the
            # projective tensor (its norm differs from the flat M_{nm} one)
            ga, _ = generators(a.set)
            gb, _ = generators(b.set)
            elem = np.outer(ga[0], gb[0]).ravel()
            return QObject(space, finite_set([elem], space, "bipolar"))
        return QObject(space, SetSpec("tensor_bipolar", space, (a.set, b.set)))
    if kind == "par":
        # de Morgan: A ⅋ B = (A^⊥ ⊗ B^⊥)^⊥; H ⅋ H = H comes from S ⊗ S = S
        return connective("dual", connective("tensor", connective("dual", a), connective("dual", b)))
    raise ValueError(f"unknown connective {kind!r}")


# ---------------------------------------------------------------------------
# morphisms

@dataclass
class MorphismResult:
    verdict: str  # valid | invalid | unknown
    reason: str = ""
    diagnostics: dict = field(default_factory=dict)


def check_morphism(f: SuperOp, a: QObject, b: QObject, tol: float = 1e-9) -> MorphismResult:
    src, dst = block_carrier(a.space), block_carrier(b.space)
    if src is None or dst is None:
        return MorphismResult("unknown", "unsupported carrier space")
    # a zero block adds no coordinates, so shapes compare without them
    if tuple(filter(None, f.dom_shape)) != src[1] or tuple(filter(None, f.cod_shape)) != dst[1]:
        raise ShapeMismatchError("morphism shapes do not match the objects")

    # fully faithful images: H(A)→H(B) are exactly the CPU maps, S(C)→S(D)
    # exactly the CPTP maps; no other branch reads the flags
    if a.set.kind == "unit_set" and b.set.kind == "unit_set":
        flags = f.classify(tol)
        if flags.cp and flags.unital:
            return MorphismResult("valid", "cpu", {"flags": flags})
        reason = "unit not preserved" if not flags.unital else "not completely positive"
        return MorphismResult("invalid", reason, {"flags": flags})
    if a.set.kind == "density_ops" and b.set.kind == "density_ops":
        flags = f.classify(tol)
        if flags.cp and flags.tp:
            return MorphismResult("valid", "cptp", {"flags": flags})
        reason = "not trace preserving" if not flags.tp else "not completely positive"
        return MorphismResult("invalid", reason, {"flags": flags})

    picture = src[0]
    br: NormBracket = cb_norm(f, picture)
    slack = max(tol, 1e-6)
    cc = "yes" if br.upper <= 1 + slack else ("no" if br.lower > 1 + slack else "unknown")
    cb = {"cb": (br.lower, br.upper)}
    if cc == "no":
        return MorphismResult("invalid", "not a complete contraction", cb)
    gens, exhaustive = generators(a.set)
    undecided = []
    for i, g in enumerate(gens):
        # gather g into block order, scatter the image back into b's coordinates
        img = np.empty(dst[2].size, dtype=np.complex128)
        img[dst[2]] = f.transfer @ g[src[2]]
        r = membership(b.set, img, tol)
        if r == "no":
            return MorphismResult("invalid", "set not preserved", cb)
        if r == "unknown":
            undecided.append(str(i))
    # name every step that stays open
    steps = []
    if cc == "unknown":
        steps.append(f"contraction undecided: cb norm in [{br.lower:.6g}, {br.upper:.6g}]")
    if undecided:
        many = "s" if len(undecided) > 1 else ""
        steps.append(f"membership of generator{many} {', '.join(undecided)} undecided")
    if not exhaustive:
        steps.append("source generators not exhaustive")
    if steps:
        return MorphismResult("unknown", "; ".join(steps), cb)
    many = "s" if len(gens) != 1 else ""
    reason = f"complete contraction; all {len(gens)} generator{many} transported"
    return MorphismResult("valid", reason, cb)


# ---------------------------------------------------------------------------
# quantum switch

def quantum_switch_map(n: int) -> SuperOp:
    """qsw(a⊗b) = |0⟩⟨0|⊗(ab) + |1⟩⟨1|⊗(ba) : M_n ⊗̂ M_n → M_{2n}.

    Basis action: e_ij ⊗ e_kl ↦ δ_jk |0⟩⟨0|⊗e_il + δ_li |1⟩⟨1|⊗e_kj, with the
    domain realized on M_{n²} through the Kronecker identification.  n⁴, the
    number of matrix-unit pairs, must not exceed DIM_CAP (so n ≤ 8).
    """
    if n < 1:
        raise ShapeMismatchError("quantum switch needs n >= 1")
    if n**4 > DIM_CAP:
        raise SizeLimitError(f"quantum switch needs n**4 <= {DIM_CAP}, got n = {n}")
    eye = np.eye(n)
    # grid[p, q, i, k, j, l]: output entry (p, q) of the input kron(e_ij, e_kl)
    grid = np.zeros((2 * n, 2 * n) + (n,) * 4)
    grid[:n, :n] = np.einsum("pi,ql,jk->pqikjl", eye, eye, eye)
    grid[n:, n:] = np.einsum("pk,qj,li->pqikjl", eye, eye, eye)
    return SuperOp((n * n,), (2 * n,), grid.reshape(4 * n * n, n**4))


def _reim(arr) -> dict:
    arr = np.asarray(arr)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def quantum_switch(n: int, config=None):
    """qsw with its evidence report: exactness, ⊗̂-contractivity, ⊗_h violation.

    Every claim is decided exactly; nothing is sampled, so the report depends
    only on n.  `config` is accepted and not read, so that callers which still
    pass a `RunConfig` keep binding.  Past n = 8 it raises SizeLimitError, as
    `quantum_switch_map` does, before allocating its n⁴ × n⁴ arrays.

    (i) qsw is bilinear, so its formula holds iff it holds on the n⁴ pairs of
    matrix units: the products E_x·E_y and E_y·E_x are compared entrywise
    with the image of kron(E_x, E_y) under the transfer matrix.  The entries
    are integers, so the comparison is exact.

    (ii) The same check proves qsw = ι₀∘m + ι₁∘m∘τ, with m the
    multiplication, τ the flip and ι₀, ι₁ the corner embeddings of M_n into
    M_{2n}.  m is completely contractive on M_n ⊗ₕ M_n, ‖·‖ₕ ≤ ‖·‖∧, and τ is
    a complete isometry of ⊗̂ (Effros–Ruan, *Operator Spaces* (2000), ch. 7
    and 9), so m and m∘τ are complete contractions on M_n ⊗̂ M_n, and so is
    their block-diagonal pair into M_n ⊕∞ M_n ⊂ M_{2n}.  Cross-check: the
    certified projective upper end of claim (iii)'s witness is at least
    ‖qsw(v)‖.

    (iii) v = Σᵢ e_i1 ⊗ e_1i has ‖v‖ₕ = 1 and ‖qsw(v)‖ = n, so qsw is not
    contractive on the Haagerup tensor for n ≥ 2.
    """
    qsw = quantum_switch_map(n)
    report = {"n": n, "claims": []}

    # (i) exact output on every pair of matrix units
    units = np.eye(n * n).reshape(n * n, n, n)
    xy = np.matmul(units[:, None], units[None, :])
    want = np.zeros((n * n, n * n, 2 * n, 2 * n))
    want[..., :n, :n] = xy
    want[..., n:, n:] = xy.transpose(1, 0, 2, 3)
    # kron(E_x, E_y) is the single matrix unit at (a, c), (b, d), so its image
    # is one column of the transfer matrix: a gather, not a product with an
    # n⁴ × n⁴ permutation matrix
    got = qsw.transfer.T[axis_perm((n,) * 4, (0, 2, 1, 3))].reshape(want.shape)
    mismatches = int(np.count_nonzero((got != want).any(axis=(2, 3))))
    report["claims"].append(
        {
            "claim": "qsw(a (x) b) = |0><0| (x) ab + |1><1| (x) ba",
            "verdict": "pass" if mismatches == 0 else "fail",
            "evidence": {"basis_pairs": n**4, "mismatches": mismatches},
        }
    )

    # the Haagerup witness of (iii): v = Σ_i e_i1 ⊗ e_1i = x ⊙ y for the row
    # x = [e_11 … e_n1] and the column y = [e_11 … e_1n]ᵀ, so ‖v‖_h ≤ ‖x‖·‖y‖
    # = 1, while qsw(v) = |0⟩⟨0|⊗1 + |1⟩⟨1|⊗n·e_11 has norm n
    fn = FlatSpace.base(n)
    x = np.einsum("la,b->lab", np.eye(n), np.eye(n)[0]).reshape(1, n, n * n)
    y = x.reshape(n, n, n).transpose(0, 2, 1).reshape(n, 1, n * n)
    h_upper = fn.level_norm(x) * fn.level_norm(y)
    coords = np.einsum("ila,ljb->ijab", x, y).reshape(1, 1, n**4)
    qsw_norm = op_norm(qsw(FlatSpace.tens_min(fn, fn).flatten(coords)))

    # (ii) complete contractivity on ⊗̂ from the decomposition decided in (i)
    proj = norm_at(SpaceElement(tens_proj(M(n), M(n)), 1, coords))
    consistent = proj.upper >= qsw_norm * (1 - 1e-9)
    report["claims"].append(
        {
            "claim": "qsw is a complete contraction on M_n (*proj) M_n",
            "verdict": "pass" if mismatches == 0 and consistent else "fail",
            "evidence": {
                "decomposition": "qsw = i0 m + i1 m tau on every matrix-unit pair",
                "mismatches": mismatches,
                "theorems": "m is completely contractive on (*h); |.|_h <= |.|_proj; "
                "tau is a complete isometry of (*proj) "
                "(Effros-Ruan, Operator Spaces (2000), ch. 7 and 9)",
                "witness": "sum_i e_i1 (x) e_1i",
                "proj_bracket": [proj.lower, proj.upper],
                "proj_status": proj.status,
                "qsw_norm": float(qsw_norm),
            },
        }
    )

    # (iii) closed-form Haagerup violation on the witness
    h = norm_at(SpaceElement(tens_h(M(n), M(n)), 1, coords))
    ratio = qsw_norm / h_upper
    found = ratio > 1.02
    report["claims"].append(
        {
            "claim": "v = sum_i e_i1 (x) e_1i has |qsw(v)| > 1.02 x certified Haagerup upper bound",
            "verdict": "pass" if found else "unknown",
            "evidence": {
                "ratio": float(ratio),
                "qsw_norm": float(qsw_norm),
                "h_upper": float(h_upper),
                "h_bracket": [h.lower, h.upper],
                "h_status": h.status,
                "margin": 1.02,
            },
        }
    )
    if found:
        report["h_violation_witness"] = {
            "level": 1,
            "ratio": float(ratio),
            "x": _reim(x.reshape(1, n, n, n)),
            "y": _reim(y.reshape(n, 1, n, n)),
        }
    return qsw, report
