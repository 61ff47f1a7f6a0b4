"""Session DSL, command runner, and report emitter.

Sessions are statement-per-line, `;`-terminated, with `#` comments.  The
parser is total: any input yields either an AST or a ParseError with line,
column, and the expected-token set.  Reports are deterministic for a fixed
(session, seed, tol); wall-clock timings appear only in the text
format, never in the JSON (which must be byte-identical across runs).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import OscatError
from .matcore import (
    BlockMatrix,
    op_norm,
    parse_matrix_literal,
    tr_norm,
)
from .normlab.diamond import cb_norm, diamond_norm
from .osx import SpaceElement, SpaceExpr, format_space, norm_at, normalize_space, parse_space
from .qglue import (
    QObject,
    check_morphism,
    connective,
    embed_H,
    embed_S,
    quantum_switch,
    singleton_unitary,
    unit_object,
)
from .supop import (
    SuperOp,
    conjugation,
    depolarizing,
    identity_map,
    trace_map,
    transpose_map,
)
from .vnstruct import certify_morphism, check_laws, make_algebra, make_coalgebra

__all__ = ["ParseError", "SessionAst", "parse_session", "run_session",
           "emit_report", "format_session", "main"]


class ParseError(Exception):
    def __init__(self, line: int, col: int, expected: str):
        super().__init__(f"parse error at line {line}, col {col}: expected {expected}")
        self.line = line
        self.col = col
        self.expected = expected


@dataclass(frozen=True)
class Statement:
    kind: str
    fields: tuple  # sorted (key, value) pairs; values are strings/ints/tuples
    line: int

    def get(self, key, default=None):
        for k, v in self.fields:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class SessionAst:
    statements: tuple

    def __eq__(self, other):
        return isinstance(other, SessionAst) and [
            (s.kind, s.fields) for s in self.statements
        ] == [(s.kind, s.fields) for s in other.statements]


# ---------------------------------------------------------------------------
# scanner helpers

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


class _Scanner:
    def __init__(self, text: str, line_no: int):
        self.text = text
        self.pos = 0
        self.line = line_no

    def error(self, expected: str):
        raise ParseError(self.line, self.pos + 1, expected)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def literal(self, s: str, expected: str | None = None):
        self.skip_ws()
        if not self.text.startswith(s, self.pos):
            self.error(expected or repr(s))
        self.pos += len(s)

    def try_literal(self, s: str) -> bool:
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def name(self, expected="a name") -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        if self.pos == start or self.text[start].isdigit():
            self.pos = start
            self.error(expected)
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("an integer")
        return int(self.text[start : self.pos])

    def bracket_blob(self) -> str:
        """Balanced [...] region as raw text."""
        self.skip_ws()
        if self.peek() != "[":
            self.error("'['")
        depth, start = 0, self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth == 0:
                    self.pos += 1
                    return self.text[start : self.pos]
                if depth < 0:
                    self.error("balanced brackets")
            self.pos += 1
        self.error("']'")

    def raw_until_semicolon(self) -> tuple[str, int]:
        self.skip_ws()
        idx = self.text.find(";", self.pos)
        if idx < 0:
            self.error("';'")
        start = self.pos
        out = self.text[self.pos : idx].strip()
        self.pos = idx
        return out, start

    def validate_space_text(self, text: str, start: int):
        """Space-grammar syntax errors are parse errors with real columns."""
        from .osx import SpaceSyntaxError

        try:
            parse_space(text, names=_AnyNames())
        except SpaceSyntaxError as exc:
            raise ParseError(self.line, start + exc.pos + 1, "a space expression")


class _AnyNames(dict):
    """Name table that admits every identifier (placeholders for validation)."""

    def __contains__(self, key):
        return True

    def __getitem__(self, key):
        from .osx import M as _M

        return _M(1)


def _parse_shape(blob: str, sc: _Scanner) -> tuple:
    inner = blob.strip()[1:-1].strip()
    if not inner:
        return ()
    parts = [p.strip() for p in inner.split(",")]
    out = []
    for p in parts:
        if not p.isdigit():
            sc.error("a block-shape like [2,3]")
        out.append(int(p))
    return tuple(out)


_CHECK_KINDS = ("cp", "tp", "unital", "cpu", "cptp", "alghom", "coalghom", "morphism")
_NORM_KINDS = ("op", "tr", "diamond", "cb", "haagerup", "proj", "inj")
_MAP_CTORS = (
    "identity",
    "transpose",
    "depolarize",
    "trace",
    "conj_by",
    "adjoint",
    "compose",
    "tensor",
    "dsum",
    "amplify",
    "choi",
)
_OBJ_CTORS = ("H", "S", "unitary", "dual", "with", "plus", "tensor", "par", "unit")


def _parse_obj_expr(sc: _Scanner):
    """objexpr := CTOR(...) | NAME — returned as a nested tuple tree."""
    name = sc.name("an object expression")
    if sc.try_literal("("):
        if name not in _OBJ_CTORS:
            sc.error("one of " + "|".join(_OBJ_CTORS))
        args = []
        if name == "unit":
            sc.literal(")")
            return ("unit",)
        if name in ("H", "S"):
            args.append(sc.name("an algebra/coalgebra name"))
            sc.literal(")")
            return (name, args[0])
        if name == "unitary":
            args.append(sc.name("an algebra name"))
            sc.literal(",")
            args.append(sc.bracket_blob())
            sc.literal(")")
            return ("unitary", args[0], args[1])
        if name == "dual":
            inner = _parse_obj_expr(sc)
            sc.literal(")")
            return ("dual", inner)
        a = _parse_obj_expr(sc)
        sc.literal(",")
        b = _parse_obj_expr(sc)
        sc.literal(")")
        return (name, a, b)
    return ("ref", name)


def _parse_map_expr(sc: _Scanner):
    ctor = sc.name("a map constructor")
    if ctor not in _MAP_CTORS:
        sc.error("one of " + "|".join(_MAP_CTORS))
    sc.literal("(")
    if ctor in ("identity", "trace"):
        blob = sc.bracket_blob()
        sc.literal(")")
        return (ctor, blob)
    if ctor in ("transpose", "depolarize"):
        n = sc.integer()
        sc.literal(")")
        return (ctor, n)
    if ctor == "conj_by":
        blob = sc.bracket_blob()
        sc.literal(")")
        return (ctor, blob)
    if ctor == "adjoint":
        nm = sc.name("a map name")
        sc.literal(")")
        return (ctor, nm)
    if ctor in ("compose", "tensor", "dsum"):
        a = sc.name("a map name")
        sc.literal(",")
        b = sc.name("a map name")
        sc.literal(")")
        return (ctor, a, b)
    if ctor == "amplify":
        a = sc.name("a map name")
        sc.literal(",")
        k = sc.integer()
        sc.literal(")")
        return (ctor, a, k)
    # choi([dom] -> [cod], [[...]])
    domb = sc.bracket_blob()
    sc.literal("->")
    codb = sc.bracket_blob()
    sc.literal(",")
    mat = sc.bracket_blob()
    sc.literal(")")
    return ("choi", domb, codb, mat)


def parse_session(text: str) -> SessionAst:
    """Parse a session; raises ParseError (never anything else) on bad input."""
    try:
        return _parse_session_inner(text)
    except ParseError:
        raise
    except Exception as exc:  # total parser: internal surprises become errors
        raise ParseError(0, 0, f"valid session text ({type(exc).__name__})") from exc


def _parse_session_inner(text: str) -> SessionAst:
    if not isinstance(text, str):
        raise ParseError(0, 0, "UTF-8 text")
    statements = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        sc = _Scanner(line, ln)
        head = sc.name("a statement keyword")
        if head == "space":
            nm = sc.name()
            sc.literal("=")
            expr_text, start = sc.raw_until_semicolon()
            sc.validate_space_text(expr_text, start)
            st = Statement("space", (("name", nm), ("text", expr_text)), ln)
        elif head in ("alg", "coalg"):
            nm = sc.name()
            sc.literal("=")
            shape = _parse_shape(sc.bracket_blob(), sc)
            st = Statement(head, (("name", nm), ("shape", shape)), ln)
        elif head == "map":
            nm = sc.name()
            sc.literal("=")
            expr = _parse_map_expr(sc)
            st = Statement("map", (("expr", expr), ("name", nm)), ln)
        elif head == "obj":
            nm = sc.name()
            sc.literal("=")
            expr = _parse_obj_expr(sc)
            st = Statement("obj", (("expr", expr), ("name", nm)), ln)
        elif head == "check":
            kind = sc.name("one of " + "|".join(_CHECK_KINDS))
            if kind not in _CHECK_KINDS:
                sc.error("one of " + "|".join(_CHECK_KINDS))
            nm = sc.name("a map name")
            src = dst = None
            if sc.try_literal(":"):
                src = sc.name("a source name")
                sc.literal("->")
                dst = sc.name("a target name")
            st = Statement(
                "check",
                (("dst", dst), ("kind", kind), ("map", nm), ("src", src)),
                ln,
            )
        elif head == "norm":
            kind = sc.name("one of " + "|".join(_NORM_KINDS))
            if kind not in _NORM_KINDS:
                sc.error("one of " + "|".join(_NORM_KINDS))
            if kind in ("op", "tr"):
                blob = sc.bracket_blob()
                st = Statement("norm", (("arg", blob), ("kind", kind)), ln)
            elif kind in ("diamond", "cb"):
                nm = sc.name("a map name")
                picture = "trace" if kind == "diamond" else "operator"
                if kind == "cb" and sc.peek() not in (";", ""):
                    picture = sc.name("operator|trace")
                    if picture not in ("operator", "trace"):
                        sc.error("operator|trace")
                st = Statement(
                    "norm", (("arg", nm), ("kind", kind), ("picture", picture)), ln
                )
            else:
                blob = sc.bracket_blob()
                sc.literal("in", "'in'")
                space_text, start = sc.raw_until_semicolon()
                sc.validate_space_text(space_text, start)
                st = Statement(
                    "norm",
                    (("arg", blob), ("kind", kind), ("space", space_text)),
                    ln,
                )
        elif head == "demo":
            sc.literal("qswitch", "'qswitch'")
            n = sc.integer()
            st = Statement("demo", (("n", n), ("what", "qswitch")), ln)
        elif head == "assert":
            sc.literal("laws", "'laws'")
            nm = sc.name("an algebra/coalgebra name")
            st = Statement("assert", (("name", nm), ("what", "laws")), ln)
        else:
            sc.pos = 0
            sc.error("space|alg|coalg|map|obj|check|norm|demo|assert")
        sc.literal(";")
        if not sc.at_end():
            sc.error("end of statement")
        statements.append(st)
    return SessionAst(tuple(statements))


def format_session(ast: SessionAst) -> str:
    """Canonical text whose parse equals the AST."""
    out = []
    for st in ast.statements:
        if st.kind == "space":
            out.append(f"space {st.get('name')} = {st.get('text')};")
        elif st.kind in ("alg", "coalg"):
            shape = ",".join(str(k) for k in st.get("shape"))
            out.append(f"{st.kind} {st.get('name')} = [{shape}];")
        elif st.kind == "map":
            out.append(f"map {st.get('name')} = {_fmt_map(st.get('expr'))};")
        elif st.kind == "obj":
            out.append(f"obj {st.get('name')} = {_fmt_obj(st.get('expr'))};")
        elif st.kind == "check":
            tail = ""
            if st.get("src") is not None:
                tail = f" : {st.get('src')} -> {st.get('dst')}"
            out.append(f"check {st.get('kind')} {st.get('map')}{tail};")
        elif st.kind == "norm":
            kind = st.get("kind")
            if kind in ("op", "tr"):
                out.append(f"norm {kind} {st.get('arg')};")
            elif kind in ("diamond", "cb"):
                pic = f" {st.get('picture')}" if kind == "cb" else ""
                out.append(f"norm {kind} {st.get('arg')}{pic};")
            else:
                out.append(f"norm {kind} {st.get('arg')} in {st.get('space')};")
        elif st.kind == "demo":
            out.append(f"demo qswitch {st.get('n')};")
        elif st.kind == "assert":
            out.append(f"assert laws {st.get('name')};")
    return "\n".join(out) + ("\n" if out else "")


def _fmt_map(expr) -> str:
    ctor = expr[0]
    if ctor == "choi":
        return f"choi({expr[1]} -> {expr[2]}, {expr[3]})"
    args = ", ".join(str(a) for a in expr[1:])
    return f"{ctor}({args})"


def _fmt_obj(expr) -> str:
    if expr[0] == "ref":
        return expr[1]
    if expr[0] == "unit":
        return "unit()"
    if expr[0] in ("H", "S"):
        return f"{expr[0]}({expr[1]})"
    if expr[0] == "unitary":
        return f"unitary({expr[1]}, {expr[2]})"
    if expr[0] == "dual":
        return f"dual({_fmt_obj(expr[1])})"
    return f"{expr[0]}({_fmt_obj(expr[1])}, {_fmt_obj(expr[2])})"


# ---------------------------------------------------------------------------
# runner

@dataclass
class Record:
    command: str
    status: str  # pass | fail | unknown
    value: float | None = None
    bracket: tuple | None = None
    detail: dict = field(default_factory=dict)
    witness: dict | None = None
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        out = {"command": self.command, "status": self.status}
        if self.value is not None:
            out["value"] = _round(self.value)
        if self.bracket is not None:
            out["bracket"] = [_round(self.bracket[0]), _round(self.bracket[1])]
        if self.detail:
            out["detail"] = _jsonify(self.detail)
        if self.witness is not None:
            out["witness"] = _jsonify(self.witness)
        return out


def _round(x):
    if isinstance(x, float):
        if not np.isfinite(x):
            return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
        return float(f"{x:.12g}")
    return x


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _round(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": _round(obj.real), "im": _round(obj.imag)}
    return obj


@dataclass
class Report:
    config: dict
    records: list
    parse_error: str | None = None

    @property
    def exit_code(self) -> int:
        if self.parse_error is not None:
            return 3
        statuses = [r.status for r in self.records]
        if "fail" in statuses:
            return 1
        if "unknown" in statuses:
            return 2
        return 0


class _Env:
    def __init__(self, config: RunConfig):
        self.config = config
        self.spaces: dict[str, SpaceExpr] = {}
        self.algs: dict = {}
        self.coalgs: dict = {}
        self.maps: dict[str, SuperOp] = {}
        self.objs: dict[str, QObject] = {}
        self.defined: set[str] = set()

    def define(self, name: str, kind: str, value):
        if name in self.defined:
            raise OscatError(f"name {name!r} already defined")
        self.defined.add(name)
        getattr(self, kind)[name] = value

    def lookup(self, table: str, name: str):
        d = getattr(self, table)
        if name not in d:
            raise OscatError(f"undefined name {name!r}")
        return d[name]


def _build_map(env: _Env, expr) -> SuperOp:
    ctor = expr[0]
    if ctor == "identity":
        return identity_map(_shape_of(expr[1]))
    if ctor == "trace":
        return trace_map(_shape_of(expr[1]))
    if ctor == "transpose":
        return transpose_map(expr[1])
    if ctor == "depolarize":
        return depolarizing(expr[1])
    if ctor == "conj_by":
        return conjugation(parse_matrix_literal(expr[1]))
    if ctor == "adjoint":
        return env.lookup("maps", expr[1]).adjoint()
    if ctor == "compose":
        return env.lookup("maps", expr[1]).compose(env.lookup("maps", expr[2]))
    if ctor == "tensor":
        return env.lookup("maps", expr[1]).tensor(env.lookup("maps", expr[2]))
    if ctor == "dsum":
        return env.lookup("maps", expr[1]).direct_sum(env.lookup("maps", expr[2]))
    if ctor == "amplify":
        return env.lookup("maps", expr[1]).amplify(expr[2])
    if ctor == "choi":
        dom = _shape_of(expr[1])
        cod = _shape_of(expr[2])
        return SuperOp.from_big_choi(parse_matrix_literal(expr[3]), dom, cod)
    raise OscatError(f"unknown map constructor {ctor!r}")


def _shape_of(blob: str) -> tuple:
    inner = blob.strip()[1:-1]
    return tuple(int(p) for p in inner.split(",") if p.strip())


def _build_obj(env: _Env, expr) -> QObject:
    kind = expr[0]
    if kind == "ref":
        return env.lookup("objs", expr[1])
    if kind == "unit":
        return unit_object()
    if kind == "H":
        return embed_H(env.lookup("algs", expr[1]))
    if kind == "S":
        return embed_S(env.lookup("coalgs", expr[1]))
    if kind == "unitary":
        alg = env.lookup("algs", expr[1])
        mat = parse_matrix_literal(expr[2])
        u = _split_blocks(mat, alg.shape)
        return QObject(embed_H(alg).space, singleton_unitary(u, alg.shape))
    if kind == "dual":
        return connective("dual", _build_obj(env, expr[1]))
    return connective(kind, _build_obj(env, expr[1]), _build_obj(env, expr[2]))


def _split_blocks(mat: np.ndarray, shape) -> BlockMatrix:
    total = sum(shape)
    if mat.shape == (total, total):
        blocks, off = [], 0
        for k in shape:
            blocks.append(mat[off : off + k, off : off + k])
            off += k
        return BlockMatrix(blocks)
    if len(shape) == 1 and mat.shape == (shape[0], shape[0]):
        return BlockMatrix([mat])
    raise OscatError("matrix does not fit the block shape")


def _factor_shape(x: SpaceExpr) -> tuple[int, int]:
    """Literal shape of one tensor factor.

    M(n,m) is n×m; dual(M(n,m)), T(n) included, is written by its m×n
    trace-pairing representing matrices.
    """
    if x.kind == "base":
        return x.args
    if x.kind == "dual" and x.args[0].kind == "base":
        n, m = x.args[0].args
        return m, n
    raise OscatError("tensor norms need M(n,m) or T(n) factors")


def _element_level(mat: np.ndarray, sp: SpaceExpr):
    """Level and coordinates of a flat literal in a normalized two-factor tensor."""
    (na, ma), (nb, mb) = _factor_shape(sp.args[0]), _factor_shape(sp.args[1])
    rows, cols = na * nb, ma * mb
    if mat.shape[0] % rows or mat.shape[1] % cols:
        raise OscatError(f"literal shape {mat.shape} does not tile {rows}x{cols}")
    k = mat.shape[0] // rows
    if mat.shape != (k * rows, k * cols):
        raise OscatError("literal is not square at a single level")
    # flat (k·rows, k·cols) → tensor coords (k,k,dimA·dimB)
    t = mat.reshape(k, na, nb, k, ma, mb).transpose(0, 3, 1, 4, 2, 5)
    return k, t.reshape(k, k, na * ma * nb * mb)


def run_session(ast: SessionAst, config: RunConfig | None = None) -> Report:
    """Execute statements in order; failures do not abort later commands."""
    config = config or RunConfig()
    env = _Env(config)
    records: list[Record] = []
    for st in ast.statements:
        text = format_session(SessionAst((st,))).strip()
        t0 = time.perf_counter()
        try:
            recs = _execute(env, st, config)
        except (OscatError, ValueError, np.linalg.LinAlgError) as exc:
            recs = [Record(text, "fail", detail={"error": str(exc)})]
        except MemoryError as exc:
            error = f"out of memory: {exc}" if str(exc) else "out of memory"
            recs = [Record(text, "fail", detail={"error": error})]
        for r in recs:
            r.elapsed = time.perf_counter() - t0
        records.extend(recs)
    return Report(
        config={"seed": config.seed, "tol": config.tol},
        records=records,
    )


def _execute(env: _Env, st: Statement, config: RunConfig) -> list[Record]:
    text = format_session(SessionAst((st,))).strip()
    if st.kind == "space":
        expr = parse_space(st.get("text"), names=env.spaces)
        env.define(st.get("name"), "spaces", expr)
        return []
    if st.kind == "alg":
        env.define(st.get("name"), "algs", make_algebra(st.get("shape")))
        return []
    if st.kind == "coalg":
        env.define(st.get("name"), "coalgs", make_coalgebra(st.get("shape")))
        return []
    if st.kind == "map":
        env.define(st.get("name"), "maps", _build_map(env, st.get("expr")))
        return []
    if st.kind == "obj":
        env.define(st.get("name"), "objs", _build_obj(env, st.get("expr")))
        return []
    if st.kind == "check":
        return [_run_check(env, st, text, config)]
    if st.kind == "norm":
        return [_run_norm(env, st, text, config)]
    if st.kind == "demo":
        return _run_demo(env, st, text, config)
    if st.kind == "assert":
        return [_run_assert(env, st, text, config)]
    raise OscatError(f"unknown statement kind {st.kind}")


def _run_check(env: _Env, st: Statement, text: str, config: RunConfig) -> Record:
    kind = st.get("kind")
    f = env.lookup("maps", st.get("map"))
    if kind in ("cp", "tp", "unital"):
        flags = f.classify(config.tol)
        ok = getattr(flags, kind)
        detail = {
            "min_choi_eig": flags.min_choi_eig,
            "trace_defect": flags.trace_defect,
            "unit_defect": flags.unit_defect,
        }
        return Record(text, "pass" if ok else "fail", detail=detail)
    if kind == "morphism":
        a = env.lookup("objs", st.get("src"))
        b = env.lookup("objs", st.get("dst"))
        res = check_morphism(f, a, b, config.tol, config)
        status = {"valid": "pass", "invalid": "fail", "unknown": "unknown"}[res.verdict]
        return Record(text, status, detail={"reason": res.reason})
    mode = {"cpu": "cpu", "cptp": "cptp", "alghom": "alg_hom", "coalghom": "coalg_hom"}[kind]
    table = "algs" if mode in ("cpu", "alg_hom") else "coalgs"
    src_name, dst_name = st.get("src"), st.get("dst")
    if src_name is None:
        src = (make_algebra if table == "algs" else make_coalgebra)(f.dom_shape)
        dst = (make_algebra if table == "algs" else make_coalgebra)(f.cod_shape)
    else:
        src = env.lookup(table, src_name)
        dst = env.lookup(table, dst_name)
    verdict = certify_morphism(f, src, dst, mode, config.tol)
    detail = {"failures": [name for name, _ in verdict.failures]}
    if "cb_norm" in verdict.diagnostics:
        detail["cb_norm"] = list(verdict.diagnostics["cb_norm"])
        detail["cb_route"] = verdict.diagnostics["cb_route"]
    return Record(text, "pass" if verdict.ok else "fail", detail=detail)


# norm kind → the top tensor its space must have, and how the grammar writes it
_NORM_TENSORS = {
    "haagerup": ("tens_h", "(*h)"),
    "proj": ("tens_proj", "(*proj)"),
    "inj": ("tens_min", "(*min)"),
}


def _run_norm(env: _Env, st: Statement, text: str, config: RunConfig) -> Record:
    kind = st.get("kind")
    if kind in ("op", "tr"):
        mat = parse_matrix_literal(st.get("arg"))
        val = op_norm(mat) if kind == "op" else tr_norm(mat)
        return Record(text, "pass", value=val)
    if kind == "diamond":
        br = diamond_norm(env.lookup("maps", st.get("arg")))
    elif kind == "cb":
        br = cb_norm(env.lookup("maps", st.get("arg")), st.get("picture"))
    else:
        mat = parse_matrix_literal(st.get("arg"))
        sp = normalize_space(parse_space(st.get("space"), names=env.spaces))
        tensor, op = _NORM_TENSORS[kind]
        if sp.kind != tensor:
            raise OscatError(f"norm {kind} needs a {op} space, got {format_space(sp)}")
        level, coords = _element_level(mat, sp)
        br = norm_at(SpaceElement(sp, level, coords), config)
    unknown = br.status == "unknown"
    detail = {"norm_status": br.status}
    for key in ("route", "reason"):
        if key in br.witnesses:
            detail[key] = br.witnesses[key]
    return Record(
        text, "unknown" if unknown else "pass", value=None if unknown else br.mid,
        bracket=(br.lower, br.upper), detail=detail,
    )


def _run_demo(env: _Env, st: Statement, text: str, config: RunConfig) -> list[Record]:
    _, report = quantum_switch(st.get("n"), config)
    out = []
    for claim in report["claims"]:
        rec = Record(
            f"{text} [{claim['claim']}]",
            claim["verdict"] if claim["verdict"] != "pass" else "pass",
            detail=claim["evidence"],
        )
        out.append(rec)
    if "h_violation_witness" in report:
        out[-1].witness = report["h_violation_witness"]
    return out


def _run_assert(env: _Env, st: Statement, text: str, config: RunConfig) -> Record:
    name = st.get("name")
    if name in env.algs:
        target = env.algs[name]
    elif name in env.coalgs:
        target = env.coalgs[name]
    else:
        raise OscatError(f"undefined name {name!r}")
    rep = check_laws(target, tol=config.tol)
    detail = {"failures": [nm for nm, _ in rep.failures]}
    return Record(text, "pass" if rep.passed else "fail", detail=detail)


# ---------------------------------------------------------------------------
# report emission

def emit_report(report: Report, fmt: str = "text") -> bytes:
    if fmt == "json":
        doc = {
            "config": report.config,
            "records": [r.to_json_dict() for r in report.records],
        }
        if report.parse_error is not None:
            doc["parse_error"] = report.parse_error
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    lines = []
    if report.parse_error is not None:
        lines.append(f"PARSE ERROR: {report.parse_error}")
    for r in report.records:
        mark = {"pass": "ok  ", "fail": "FAIL", "unknown": "??? "}[r.status]
        extra = ""
        if r.bracket is not None:
            extra = f"  [{r.bracket[0]:.9g}, {r.bracket[1]:.9g}]"
        elif r.value is not None:
            extra = f"  {r.value:.9g}"
        lines.append(f"{mark} {r.command}{extra}  ({r.elapsed*1000:.0f} ms)")
    lines.append(f"exit: {report.exit_code}")
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# entry point

def _config_from_args(args) -> RunConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("OSCAT_SEED", "0"))
    tol = args.tol
    if tol is None:
        tol = float(os.environ.get("OSCAT_TOL", "1e-9"))
    return RunConfig(seed=seed, tol=tol)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="oscat", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run a session file")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--tol", type=float, default=None)
    p_run.add_argument("--json", dest="json_out", default=None)

    p_demo = sub.add_parser("demo", help="run a built-in demo")
    p_demo.add_argument("what", choices=["qswitch"])
    p_demo.add_argument("n", type=int)
    p_demo.add_argument("--seed", type=int, default=None)
    p_demo.add_argument("--tol", type=float, default=None)
    p_demo.add_argument("--json", dest="json_out", default=None)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--seed", type=int, default=None)
    p_self.add_argument("--tol", type=float, default=None)

    args = parser.parse_args(argv)
    config = _config_from_args(args)

    if args.cmd == "selftest":
        from .acceptance import run_all

        results = run_all(config)
        ok = True
        for res in results:
            print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.summary}")
            ok = ok and res.passed
        return 0 if ok else 1

    if args.cmd == "demo":
        session = f"demo qswitch {args.n};\n"
        ast = parse_session(session)
        report = run_session(ast, config)
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"cannot read {args.file}: {exc}", file=sys.stderr)
            return 3
        try:
            ast = parse_session(text)
        except ParseError as exc:
            report = Report(config={"seed": config.seed, "tol": config.tol},
                            records=[], parse_error=str(exc))
            sys.stdout.write(emit_report(report, "text").decode())
            if args.json_out:
                with open(args.json_out, "wb") as fh:
                    fh.write(emit_report(report, "json"))
            return 3
        report = run_session(ast, config)

    sys.stdout.write(emit_report(report, "text").decode())
    if args.json_out:
        with open(args.json_out, "wb") as fh:
            fh.write(emit_report(report, "json"))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
