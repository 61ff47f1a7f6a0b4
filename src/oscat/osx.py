"""Operator-space expression layer.

Spaces are expression trees over the constructors base / dual / conjugate /
opposite / ℓ∞-sum / ℓ¹-sum / three tensors.  Elements carry level-k
coordinates over the shared canonical basis (all tensor constructors have the
same underlying vector space).  The norm oracle dispatches per constructor
and returns NormBracket values; an unsupported nesting yields status unknown
with a reason naming the space, never a wrong number.
"""
from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import ShapeMismatchError, UnsupportedSpaceError
from .matcore import axis_perm
from .normlab.brackets import (
    FlatSpace,
    NormBracket,
    haagerup_bracket_flat,
    inj_norm_flat,
    proj_bracket_flat,
)
from .normlab.diamond import dual_level_norm

__all__ = [
    "SpaceExpr",
    "SpaceElement",
    "M",
    "T",
    "dual",
    "conj",
    "opp",
    "sum_inf",
    "sum_1",
    "tens_min",
    "tens_proj",
    "tens_h",
    "dim",
    "norm_at",
    "canonical_map",
    "conj_opp_push",
    "flat_realization",
    "parse_space",
    "format_space",
]


@dataclass(frozen=True)
class SpaceExpr:
    kind: str
    args: tuple

    def __repr__(self):
        return format_space(self)


def M(n: int, m: int | None = None) -> SpaceExpr:
    m = n if m is None else m
    if n < 0 or m < 0:
        raise ShapeMismatchError("matrix space dimensions must be >= 0")
    return SpaceExpr("base", (int(n), int(m)))


def dual(x: SpaceExpr) -> SpaceExpr:
    return SpaceExpr("dual", (x,))


def T(n: int) -> SpaceExpr:
    """Trace-class structure on n×n matrices (the dual of M(n))."""
    return dual(M(n))


def conj(x: SpaceExpr) -> SpaceExpr:
    if x.kind == "conj":
        return x.args[0]
    return SpaceExpr("conj", (x,))


def opp(x: SpaceExpr) -> SpaceExpr:
    if x.kind == "opp":
        return x.args[0]
    if x.kind == "conj":  # canonical order: conj outermost
        return conj(opp(x.args[0]))
    return SpaceExpr("opp", (x,))


def sum_inf(x: SpaceExpr, y: SpaceExpr) -> SpaceExpr:
    return SpaceExpr("sum_inf", (x, y))


def sum_1(x: SpaceExpr, y: SpaceExpr) -> SpaceExpr:
    return SpaceExpr("sum_1", (x, y))


def tens_min(x: SpaceExpr, y: SpaceExpr) -> SpaceExpr:
    return SpaceExpr("tens_min", (x, y))


def tens_proj(x: SpaceExpr, y: SpaceExpr) -> SpaceExpr:
    return SpaceExpr("tens_proj", (x, y))


def tens_h(x: SpaceExpr, y: SpaceExpr) -> SpaceExpr:
    return SpaceExpr("tens_h", (x, y))


def dim(x: SpaceExpr) -> int:
    if x.kind == "base":
        return x.args[0] * x.args[1]
    if x.kind in ("dual", "conj", "opp"):
        return dim(x.args[0])
    if x.kind in ("sum_inf", "sum_1"):
        return dim(x.args[0]) + dim(x.args[1])
    if x.kind in ("tens_min", "tens_proj", "tens_h"):
        return dim(x.args[0]) * dim(x.args[1])
    raise UnsupportedSpaceError(f"unknown space kind {x.kind}")


@dataclass(frozen=True)
class SpaceElement:
    """Level-k element: coords indexed (row, col, basis) with shape (k,k,dim)."""

    space: SpaceExpr
    level: int
    coords: np.ndarray

    def __init__(self, space, level, coords):
        coords = np.asarray(coords, dtype=np.complex128)
        d = dim(space)
        if coords.shape == (d,):
            coords = coords.reshape(1, 1, d)
        if coords.shape != (level, level, d):
            raise ShapeMismatchError(
                f"coords shape {coords.shape}, expected {(level, level, d)}"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "level", int(level))
        object.__setattr__(self, "coords", coords)


# ---------------------------------------------------------------------------
# structural normalization

def _push_dual(x: SpaceExpr) -> SpaceExpr:
    """Rewrite duals through constructors (coordinate-wise identities)."""
    if x.kind != "dual":
        return x
    inner = x.args[0]
    if inner.kind == "dual":  # double dual d is the coordinate identity
        return inner.args[0]
    if inner.kind == "sum_inf":
        return sum_1(dual(inner.args[0]), dual(inner.args[1]))
    if inner.kind == "sum_1":
        return sum_inf(dual(inner.args[0]), dual(inner.args[1]))
    if inner.kind == "tens_min":
        return tens_proj(dual(inner.args[0]), dual(inner.args[1]))
    if inner.kind == "tens_proj":
        return tens_min(dual(inner.args[0]), dual(inner.args[1]))
    if inner.kind == "tens_h":  # self-dual; θ is the coordinate identity
        return tens_h(dual(inner.args[0]), dual(inner.args[1]))
    if inner.kind == "opp":
        return opp(dual(inner.args[0]))
    return x


def normalize_space(x: SpaceExpr) -> SpaceExpr:
    """Push duals inward; keeps conj/opp markers (they commute with dual)."""
    if x.kind == "base":
        return x
    if x.kind == "dual":
        pushed = _push_dual(x)
        if pushed is not x:
            return normalize_space(pushed)
        inner = normalize_space(x.args[0])
        pushed = _push_dual(dual(inner))
        return normalize_space(pushed) if pushed.kind != "dual" else pushed
    if x.kind in ("conj", "opp"):
        inner = normalize_space(x.args[0])
        return conj(inner) if x.kind == "conj" else opp(inner)
    ctor = {
        "sum_inf": sum_inf,
        "sum_1": sum_1,
        "tens_min": tens_min,
        "tens_proj": tens_proj,
        "tens_h": tens_h,
    }[x.kind]
    return ctor(normalize_space(x.args[0]), normalize_space(x.args[1]))


def conj_opp_push(e: SpaceElement) -> SpaceElement:
    """Push Conj/Opp markers down to the atoms, transforming coordinates.

    All the involution equalities are coordinate identities except Opp over
    the Haagerup tensor, which swaps the factors via γ.
    """
    space = normalize_space(e.space)
    sp, mat = _invol_normal(space)
    coords = np.einsum("ab,ijb->ija", mat, e.coords)
    return SpaceElement(sp, e.level, coords)


_CTORS = {
    "sum_inf": sum_inf,
    "sum_1": sum_1,
    "tens_min": tens_min,
    "tens_proj": tens_proj,
    "tens_h": tens_h,
}


def _combine(kind, ma, mb):
    if kind in ("sum_inf", "sum_1"):
        out = np.zeros((ma.shape[0] + mb.shape[0], ma.shape[1] + mb.shape[1]))
        out[: ma.shape[0], : ma.shape[1]] = ma
        out[ma.shape[0] :, ma.shape[1] :] = mb
        return out
    return np.kron(ma, mb)


def _mark_conj(x: SpaceExpr) -> SpaceExpr:
    """Distribute a conjugation marker down to the atoms (identity on coords)."""
    if x.kind in ("base", "dual"):
        return conj(x)
    if x.kind == "conj":
        return x.args[0]
    if x.kind == "opp":
        return conj(x)
    a, b = x.args
    return _CTORS[x.kind](_mark_conj(a), _mark_conj(b))


def _invol_normal(x: SpaceExpr):
    """Return (atom-normalized space, coordinate transition matrix)."""
    if x.kind in ("base", "dual"):
        return x, np.eye(dim(x))
    if x.kind == "conj":
        sp, mat = _invol_normal(x.args[0])
        return _mark_conj(sp), mat
    if x.kind == "opp":
        inner = x.args[0]
        if inner.kind in ("base", "dual"):
            return x, np.eye(dim(x))
        if inner.kind == "tens_h":
            a, b = inner.args
            sb, mb = _invol_normal(opp(b))
            sa, ma = _invol_normal(opp(a))
            # (m_b ⊗ m_a)∘γ = γ∘(m_a ⊗ m_b): swap the rows of the product
            return tens_h(sb, sa), np.kron(ma, mb)[axis_perm((dim(a), dim(b)), (1, 0))]
        if inner.kind in ("sum_inf", "sum_1", "tens_min", "tens_proj"):
            a, b = inner.args
            sa, ma = _invol_normal(opp(a))
            sb, mb = _invol_normal(opp(b))
            return _CTORS[inner.kind](sa, sb), _combine(inner.kind, ma, mb)
        if inner.kind == "conj":
            return _invol_normal(conj(opp(inner.args[0])))
        return x, np.eye(dim(x))
    a, b = x.args
    sa, ma = _invol_normal(a)
    sb, mb = _invol_normal(b)
    return _CTORS[x.kind](sa, sb), _combine(x.kind, ma, mb)


# ---------------------------------------------------------------------------
# flat realizations

def flat_realization(x: SpaceExpr) -> FlatSpace:
    """Completely isometric flat placement, or UnsupportedSpaceError."""
    x = normalize_space(x)
    return _flat(x)


def _flat(x: SpaceExpr) -> FlatSpace:
    if x.kind == "base":
        return FlatSpace.base(x.args[0], x.args[1])
    if x.kind == "conj":  # conjugation preserves every matrix norm
        return _flat(x.args[0])
    if x.kind == "opp":
        return _flat(x.args[0]).opp()
    if x.kind == "sum_inf":
        return FlatSpace.sum_inf(_flat(x.args[0]), _flat(x.args[1]))
    if x.kind == "tens_min":
        return FlatSpace.tens_min(_flat(x.args[0]), _flat(x.args[1]))
    raise UnsupportedSpaceError(f"no flat realization for {format_space(x)}")


def _algebra_shape(x: SpaceExpr) -> tuple[int, ...] | None:
    """Block sizes when x is an ℓ∞ sum of square base spaces."""
    if x.kind == "base" and x.args[0] == x.args[1]:
        return (x.args[0],)
    if x.kind == "sum_inf":
        a, b = _algebra_shape(x.args[0]), _algebra_shape(x.args[1])
        if a is not None and b is not None:
            return a + b
    return None


# ---------------------------------------------------------------------------
# norm oracle

# least recently used first; an insert past NORM_CACHE_SIZE evicts the oldest
NORM_CACHE_SIZE = 256
_NORM_CACHE: OrderedDict = OrderedDict()


def norm_at(e: SpaceElement, config: RunConfig | None = None) -> NormBracket:
    config = config or RunConfig()
    space = normalize_space(e.space)
    coords = e.coords
    key = None
    if coords.size <= 4096:
        key = (format_space(space), e.level, coords.tobytes(), config)
        hit = _NORM_CACHE.get(key)
        if hit is not None:
            _NORM_CACHE.move_to_end(key)
            return hit
    out = _norm_dispatch(space, e.level, coords)
    if key is not None:
        _NORM_CACHE[key] = out
        if len(_NORM_CACHE) > NORM_CACHE_SIZE:
            _NORM_CACHE.popitem(last=False)
    return out


def _no_route(space) -> NormBracket:
    return NormBracket.unknown({"reason": f"no route for {format_space(space)}"})


def _norm_dispatch(space, k, coords) -> NormBracket:
    if space.kind in ("tens_h", "tens_proj", "tens_min"):
        # two flat factors; a top-level min tensor is flattened one element at
        # a time instead of through FlatSpace.tens_min's whole placement.  The
        # routes are looked up per call, so a rebound route (as perfbench's
        # tracer installs) is the one that runs.
        try:
            fa, fb = _flat(space.args[0]), _flat(space.args[1])
        except UnsupportedSpaceError:
            return _no_route(space)
        route = {
            "tens_h": haagerup_bracket_flat,
            "tens_proj": proj_bracket_flat,
            "tens_min": inj_norm_flat,
        }[space.kind]
        return route(coords, k, fa, fb)

    # exact flat cases
    try:
        fs = _flat(space)
    except UnsupportedSpaceError:
        fs = None
    if fs is not None:
        return NormBracket.exactly(fs.level_norm(coords))

    if space.kind == "conj":
        # conjugate spaces carry the same matrix norms on the same elements
        return _norm_dispatch(space.args[0], k, coords)

    if space.kind == "opp":
        # ‖[x_ij]‖ in X_o equals ‖[x_ji]‖ in X: transpose the outer indices
        return _norm_dispatch(space.args[0], k, coords.transpose(1, 0, 2))

    if space.kind == "dual":
        inner = space.args[0]
        shape = _algebra_shape(inner)
        if shape is not None:
            return dual_level_norm(coords, shape, k)
        if inner.kind == "base":
            # rect dual: coords are the m×n representing matrices; pad into
            # M_p (p = max) where the cb norm is unchanged
            n, m = inner.args
            p = max(n, m)
            padded = np.zeros((k, k, p, p), dtype=np.complex128)
            padded[:, :, :m, :n] = coords.reshape(k, k, m, n)
            return dual_level_norm(padded.reshape(k, k, p * p), (p,), k)
        return _no_route(space)

    if space.kind == "sum_1":
        duals_alg = _algebra_shape(normalize_space(dual(space)))
        if duals_alg is not None:
            # the trace pairing identifies both sides coordinate-wise
            return dual_level_norm(coords, duals_alg, k)

    if space.kind in ("sum_inf", "sum_1"):
        da = dim(space.args[0])
        ba = _norm_dispatch(space.args[0], k, coords[:, :, :da])
        bb = _norm_dispatch(space.args[1], k, coords[:, :, da:])
        for part in (ba, bb):
            if part.status == "unknown":  # its infinite upper end would pass for exact
                return part
        if space.kind == "sum_inf":
            return NormBracket.from_bounds(max(ba.lower, bb.lower), max(ba.upper, bb.upper))
        if k == 1:
            return NormBracket.from_bounds(ba.lower + bb.lower, ba.upper + bb.upper)
        return NormBracket.from_bounds(max(ba.lower, bb.lower), ba.upper + bb.upper)

    return _no_route(space)


# ---------------------------------------------------------------------------
# canonical maps (coordinate actions)

@dataclass(frozen=True)
class CanonicalMap:
    name: str
    src: SpaceExpr
    dst: SpaceExpr
    matrix: np.ndarray

    def apply(self, e: SpaceElement) -> SpaceElement:
        if normalize_space(e.space) != normalize_space(self.src):
            raise ShapeMismatchError("element space does not match map source")
        out = np.einsum("ab,ijb->ija", self.matrix, e.coords)
        return SpaceElement(self.dst, e.level, out)


def canonical_map(kind: str, x: SpaceExpr, y: SpaceExpr | None = None, *extra) -> CanonicalMap:
    if kind == "double_dual":
        d = dim(x)
        return CanonicalMap("double_dual", x, dual(dual(x)), np.eye(d))
    if kind == "swap":
        if y is None:
            raise ShapeMismatchError("swap needs two spaces")
        da, db = dim(x), dim(y)
        mat = np.eye(da * db)[axis_perm((da, db), (1, 0))]
        return CanonicalMap("swap", tens_h(x, y), tens_h(y, x), mat)
    if kind == "haagerup_self_dual":
        if y is None:
            raise ShapeMismatchError("haagerup_self_dual needs two spaces")
        d = dim(x) * dim(y)
        return CanonicalMap(
            "haagerup_self_dual",
            tens_h(dual(x), dual(y)),
            dual(tens_h(x, y)),
            np.eye(d),
        )
    if kind in ("shuffle_w", "shuffle_v"):
        if y is None or len(extra) != 2:
            raise ShapeMismatchError("shuffle needs four spaces")
        a, b, c, d_ = x, y, extra[0], extra[1]
        dims = (dim(a), dim(b), dim(c), dim(d_))
        mat = np.eye(int(np.prod(dims)))[axis_perm(dims, (0, 2, 1, 3))]
        if kind == "shuffle_w":
            src_sp = tens_proj(tens_h(a, b), tens_h(c, d_))
            dst_sp = tens_h(tens_proj(a, c), tens_proj(b, d_))
        else:
            src_sp = tens_h(tens_min(a, b), tens_min(c, d_))
            dst_sp = tens_min(tens_h(a, c), tens_h(b, d_))
        return CanonicalMap(kind, src_sp, dst_sp, mat)
    raise ValueError(f"unknown canonical map kind {kind!r}")


# ---------------------------------------------------------------------------
# block-space helpers shared with vnstruct / qglue

def algebra_space(shape) -> SpaceExpr:
    """⊕∞ M_{k_i} as a (left-nested) expression."""
    shape = list(shape)
    if not shape:
        return M(0)
    expr = M(shape[0])
    for kk in shape[1:]:
        expr = sum_inf(expr, M(kk))
    return expr


def coalgebra_space(shape) -> SpaceExpr:
    """⊕₁ T_{k_i}, normalized as the dual of the algebra carrier."""
    return normalize_space(dual(algebra_space(shape)))


# ---------------------------------------------------------------------------
# space expression grammar (shared with the cli)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op>\(\s*(?:\+inf|\+1|\*min|\*proj|\*h)\s*\))"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<int>\d+)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<comma>,))"
)


class SpaceSyntaxError(ValueError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} at position {pos}")
        self.pos = pos


def _tokenize_space(text: str):
    pos, toks = 0, []
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpaceSyntaxError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        for kind in ("op", "name", "int", "lparen", "rparen", "comma"):
            if m.group(kind) is not None:
                toks.append((kind, re.sub(r"\s+", "", m.group(kind)), m.start()))
                break
    toks.append(("eof", "", len(text)))
    return toks


_BINOPS = {
    "(+inf)": sum_inf,
    "(+1)": sum_1,
    "(*min)": tens_min,
    "(*proj)": tens_proj,
    "(*h)": tens_h,
}


def parse_space(text: str, names: dict | None = None) -> SpaceExpr:
    """Parse the space grammar; `names` resolves previously defined spaces."""
    toks = _tokenize_space(text)
    idx = 0

    def peek():
        return toks[idx]

    def advance():
        nonlocal idx
        t = toks[idx]
        idx += 1
        return t

    def expect(kind, value=None):
        t = advance()
        if t[0] != kind or (value is not None and t[1] != value):
            raise SpaceSyntaxError(f"expected {value or kind}, got {t[1]!r}", t[2])
        return t

    def parse_atom():
        t = advance()
        if t[0] == "lparen":
            e = parse_expr()
            expect("rparen")
            return e
        if t[0] != "name":
            raise SpaceSyntaxError(f"expected a space constructor, got {t[1]!r}", t[2])
        name = t[1]
        if name in ("M", "T"):
            expect("lparen")
            n = int(expect("int")[1])
            m = None
            if peek()[0] == "comma":
                advance()
                m = int(expect("int")[1])
            expect("rparen")
            if name == "T":
                if m is not None:
                    raise SpaceSyntaxError("T takes one dimension", t[2])
                return T(n)
            return M(n, m)
        if name in ("dual", "conj", "opp"):
            expect("lparen")
            e = parse_expr()
            expect("rparen")
            return {"dual": dual, "conj": conj, "opp": opp}[name](e)
        if names and name in names:
            return names[name]
        raise SpaceSyntaxError(f"unknown constructor {name!r}", t[2])

    def parse_expr():
        e = parse_atom()
        while peek()[0] == "op":
            op = advance()[1]
            rhs = parse_atom()
            e = _BINOPS[op](e, rhs)
        return e

    out = parse_expr()
    if peek()[0] != "eof":
        t = peek()
        raise SpaceSyntaxError(f"trailing input {t[1]!r}", t[2])
    return out


_OP_NAMES = {
    "sum_inf": "(+inf)",
    "sum_1": "(+1)",
    "tens_min": "(*min)",
    "tens_proj": "(*proj)",
    "tens_h": "(*h)",
}


def format_space(x: SpaceExpr) -> str:
    if x.kind == "base":
        n, m = x.args
        return f"M({n})" if n == m else f"M({n},{m})"
    if x.kind == "dual":
        inner = x.args[0]
        if inner.kind == "base" and inner.args[0] == inner.args[1]:
            return f"T({inner.args[0]})"
        return f"dual({format_space(inner)})"
    if x.kind in ("conj", "opp"):
        return f"{x.kind}({format_space(x.args[0])})"
    a, b = x.args
    return f"({format_space(a)} {_OP_NAMES[x.kind]} {format_space(b)})"
