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
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True, eq=False)
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

# Duality of the binary constructors: (X ⊕∞ Y)* = X* ⊕₁ Y*, (X ⊗min Y)* =
# X* ⊗̂ Y*, and ⊗h is self-dual (θ is the coordinate identity); Effros–Ruan,
# *Operator Spaces* (2000), ch. 7–9.
_DUAL_KIND = {
    "sum_inf": "sum_1",
    "sum_1": "sum_inf",
    "tens_min": "tens_proj",
    "tens_proj": "tens_min",
    "tens_h": "tens_h",
}


def normalize_space(x: SpaceExpr) -> SpaceExpr:
    """Push duals inward by `_DUAL_KIND`; keeps conj/opp markers (they commute with dual)."""
    if x.kind == "base":
        return x
    if x.kind == "conj":
        return conj(normalize_space(x.args[0]))
    if x.kind == "opp":
        return opp(normalize_space(x.args[0]))
    if x.kind != "dual":
        return SpaceExpr(x.kind, tuple(normalize_space(a) for a in x.args))
    inner = x.args[0]
    if inner.kind == "dual":  # double dual d is the coordinate identity
        return normalize_space(inner.args[0])
    if inner.kind == "opp":
        return opp(normalize_space(dual(inner.args[0])))
    if inner.kind in _DUAL_KIND:
        args = tuple(normalize_space(dual(a)) for a in inner.args)
        return SpaceExpr(_DUAL_KIND[inner.kind], args)
    # a dual stops at base and conj, unless normalizing the inside removes them
    inner = normalize_space(inner)
    return dual(inner) if inner.kind in ("base", "conj") else normalize_space(dual(inner))


# ---------------------------------------------------------------------------
# flat realizations

def _flat(x: SpaceExpr) -> FlatSpace:
    """Completely isometric flat placement of a normalized space, or UnsupportedSpaceError."""
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

def norm_at(e: SpaceElement, config=None) -> NormBracket:
    """Norm bracket of e at its level; a pure function of (space, level, coords).

    No route depends on the seed or the tolerance.  `config` is accepted and
    not read, so that callers which still pass a `RunConfig` keep binding.
    """
    return _norm_dispatch(normalize_space(e.space), e.level, e.coords)


def _no_route(space) -> NormBracket:
    return NormBracket.unknown({"reason": f"no route for {format_space(space)}"})


def _norm_dispatch(space, k, coords) -> NormBracket:
    if space.kind in ("tens_h", "tens_proj", "tens_min"):
        # two flat factors; the routes are looked up per call, so a rebound
        # route (as perfbench's tracer installs) is the one that runs
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

    try:  # exact flat cases
        return NormBracket.exactly(_flat(space).level_norm(coords))
    except UnsupportedSpaceError:
        pass

    if space.kind == "conj":
        # conjugate spaces carry the same matrix norms on the same elements
        return _norm_dispatch(space.args[0], k, coords)

    if space.kind == "opp":
        # ‖[x_ij]‖ in X_o equals ‖[x_ji]‖ in X: transpose the outer indices
        return _norm_dispatch(space.args[0], k, coords.transpose(1, 0, 2))

    if space.kind == "dual":
        inner = space.args[0]
        if inner.kind == "base":
            # coords are the m×n representing matrices; pad into M_p
            # (p = max(n, m), p = n when square) where the cb norm is unchanged
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
            if part.status == "unknown":  # passed on whole, with its reason
                return part
        if space.kind == "sum_inf":
            return NormBracket.from_bounds(max(ba.lower, bb.lower), max(ba.upper, bb.upper))
        if k == 1:
            return NormBracket.from_bounds(ba.lower + bb.lower, ba.upper + bb.upper)
        return NormBracket.from_bounds(max(ba.lower, bb.lower), ba.upper + bb.upper)

    return _no_route(space)


# ---------------------------------------------------------------------------
# canonical maps (coordinate actions)

@dataclass(frozen=True, eq=False)
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
    r"|(?P<comma>,)"
    r"|(?P<eof>\Z))"
)


class SpaceSyntaxError(ValueError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} at position {pos}")
        self.pos = pos


def _tokenize_space(text: str):
    """(kind, value, position) tokens; a token's position is that of the whitespace before it."""
    pos, toks = 0, []
    while True:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpaceSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "eof":
            break
        value = m.group(kind)
        toks.append((kind, "".join(value.split()) if kind == "op" else value, pos))
        pos = m.end()
    toks.append(("eof", "", len(text)))
    return toks


_OP_NAMES = {
    "sum_inf": "(+inf)",
    "sum_1": "(+1)",
    "tens_min": "(*min)",
    "tens_proj": "(*proj)",
    "tens_h": "(*h)",
}
_OP_KINDS = {op: kind for kind, op in _OP_NAMES.items()}


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

    def expect_int():
        t = expect("int")
        try:
            return int(t[1])
        except ValueError:  # more digits than int() converts
            raise SpaceSyntaxError(f"integer of {len(t[1])} digits", t[2]) from None

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
            n = expect_int()
            m = None
            if peek()[0] == "comma":
                advance()
                m = expect_int()
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
            e = SpaceExpr(_OP_KINDS[op], (e, rhs))
        return e

    out = parse_expr()
    if peek()[0] != "eof":
        t = peek()
        raise SpaceSyntaxError(f"trailing input {t[1]!r}", t[2])
    return out


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
