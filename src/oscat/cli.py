"""Session DSL, command runner, and report emitter.

Sessions are statement-per-line, `;`-terminated, with `#` comments.  The
parser is total: any input yields either an AST or a ParseError with line,
column, and the expected-token set.  Reports are deterministic for a fixed
(session, seed, tol); wall-clock timings appear only in the text
format, never in the JSON (which must be byte-identical across runs).
"""
from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

import numpy as np

from .config import RunConfig
from .errors import InvalidInputError, OscatError
from .matcore import (
    BlockMatrix,
    op_norm,
    parse_matrix_literal,
    tr_norm,
)
from .normlab.brackets import FlatSpace
from .normlab.diamond import cb_norm, diamond_norm
from .osx import (
    M,
    SpaceElement,
    SpaceExpr,
    SpaceSyntaxError,
    format_space,
    norm_at,
    normalize_space,
    parse_space,
    placement,
)
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

_NAME_RE = re.compile(r"[A-Za-z0-9_]*")
_DIGITS_RE = re.compile(r"\d*")  # \d is str.isdecimal


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

    def keyword(self, word: str):
        """`word` as a whole name, so that `lawsA` is not `laws A`."""
        self.skip_ws()
        if _NAME_RE.match(self.text, self.pos).group() != word:
            self.error(repr(word))
        self.pos += len(word)

    def try_literal(self, s: str) -> bool:
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def name(self, expected="a name") -> str:
        self.skip_ws()
        start, end = self.pos, _NAME_RE.match(self.text, self.pos).end()
        if end == start or self.text[start].isdigit():
            self.error(expected)
        self.pos = end
        return self.text[start:end]

    def integer(self) -> int:
        self.skip_ws()
        start, self.pos = self.pos, _DIGITS_RE.match(self.text, self.pos).end()
        if self.pos == start:
            self.error("an integer")
        return self._int(self.text[start : self.pos], start)

    def _int(self, digits: str, start: int) -> int:
        """int(digits); past int()'s digit limit, a parse error at `start`."""
        try:
            return int(digits)
        except ValueError:
            self.pos = start
            self.error(f"an integer of at most {sys.get_int_max_str_digits()} digits")

    def bracket_blob(self) -> str:
        """Balanced [...] region as raw text."""
        self.skip_ws()
        if self.peek() != "[":
            self.error("'['")
        # jump from one ']' to the next; each '[' in between opens a level
        depth, start, i = 1, self.pos, self.pos + 1
        while depth:
            close = self.text.find("]", i)
            if close < 0:
                self.pos = len(self.text)
                self.error("']'")
            depth += self.text.count("[", i, close) - 1
            i = close + 1
        self.pos = i
        return self.text[start:i]

    def shape(self) -> tuple:
        """Block shape `[n1,...,nk]` of signed integers; sizes are checked when built."""
        blob = self.bracket_blob()
        inner = blob[1:-1].strip()
        parts = [p.strip() for p in inner.split(",")] if inner else []
        if not all(p.removeprefix("-").isdecimal() for p in parts):
            self.error("a block-shape like [2,3]")
        at = self.pos - len(blob)
        return tuple(self._int(p, at + blob.find(p)) for p in parts)

    def space_text(self) -> str:
        """Space expression up to ';'; its syntax errors are parse errors with real columns."""
        self.skip_ws()
        idx = self.text.find(";", self.pos)
        if idx < 0:
            self.error("';'")
        start, self.pos = self.pos, idx
        text = self.text[start:idx].strip()
        try:
            parse_space(text, names=_AnyNames())
        except SpaceSyntaxError as exc:
            raise ParseError(self.line, start + exc.pos + 1, "a space expression")
        return text


class _AnyNames(dict):
    """Name table that admits every identifier (placeholders for validation)."""

    def __contains__(self, key):
        return True

    def __getitem__(self, key):
        return M(1)


_CHECK_KINDS = ("cp", "tp", "unital", "cpu", "cptp", "alghom", "coalghom", "morphism")
_NORM_KINDS = ("op", "tr", "diamond", "cb", "haagerup", "proj", "inj")


# ---------------------------------------------------------------------------
# map and object expressions: one constructor table per kind drives parsing,
# printing and building.  A row is (builder, argument list); the list holds
# argument kinds (keys of _KINDS) and, between them, separators as printed.

class _Kind(NamedTuple):
    read: Callable  # _Scanner → the value held in the AST
    show: Callable  # that value → its canonical text
    build: Callable  # (_Env, that value) → what the session uses


def _from_choi(dom, cod, j) -> SuperOp:
    return SuperOp.from_big_choi(j, dom, cod)


def _unitary_object(alg, mat) -> QObject:
    """unitary(A, U): the singleton {U} in H(A)'s space."""
    return QObject(embed_H(alg).space, singleton_unitary(_split_blocks(mat, alg.shape), alg.shape))


def _split_blocks(mat: np.ndarray, shape) -> BlockMatrix:
    """The diagonal blocks of a square matrix that is zero off them."""
    offsets = np.cumsum((0,) + tuple(shape))
    blocks = [mat[a:b, a:b] for a, b in zip(offsets, offsets[1:])]
    off_blocks = np.count_nonzero(mat) - sum(map(np.count_nonzero, blocks))
    if mat.shape != (offsets[-1],) * 2 or off_blocks:
        raise OscatError("matrix does not fit the block shape")
    return BlockMatrix(blocks)


_BINARY = ("maps", ", ", "maps")
_MAP_CTORS = {
    "identity": (identity_map, ("shape",)),
    "transpose": (transpose_map, ("int",)),
    "depolarize": (depolarizing, ("int",)),
    "trace": (trace_map, ("shape",)),
    "conj_by": (conjugation, ("matrix",)),
    "adjoint": (SuperOp.adjoint, ("maps",)),
    "compose": (SuperOp.compose, _BINARY),
    "tensor": (SuperOp.tensor, _BINARY),
    "dsum": (SuperOp.direct_sum, _BINARY),
    "amplify": (SuperOp.amplify, ("maps", ", ", "int")),
    "choi": (_from_choi, ("shape", " -> ", "shape", ", ", "matrix")),
}
_OBJ_CTORS = {
    "H": (embed_H, ("algs",)),
    "S": (embed_S, ("coalgs",)),
    "unitary": (_unitary_object, ("algs", ", ", "matrix")),
    "dual": (partial(connective, "dual"), ("obj",)),
    **{kind: (partial(connective, kind), ("obj", ", ", "obj"))
       for kind in ("with", "plus", "tensor", "par")},
    "unit": (unit_object, ()),
}


def _parse_map_expr(sc: _Scanner) -> tuple:
    """mapexpr := CTOR(args)"""
    name = sc.name("a map constructor")
    if name in _MAP_CTORS:
        sc.literal("(")
    return _parse_call(sc, _MAP_CTORS, name)


def _parse_obj_expr(sc: _Scanner) -> tuple:
    """objexpr := CTOR(args) | NAME"""
    name = sc.name("an object expression")
    if not sc.try_literal("("):
        return ("ref", name)
    return _parse_call(sc, _OBJ_CTORS, name)


def _parse_call(sc: _Scanner, table: dict, name: str) -> tuple:
    """(name, *args) of a constructor call whose '(' has been read."""
    if name not in table:
        sc.error("one of " + "|".join(table))
    out = [name]
    for part in table[name][1]:
        if part in _KINDS:
            out.append(_KINDS[part].read(sc))
        else:
            sc.literal(part.strip())
    sc.literal(")")
    return tuple(out)


def _fmt_expr(table: dict, expr: tuple) -> str:
    if expr[0] == "ref":
        return expr[1]
    args = iter(expr[1:])
    text = "".join(_KINDS[p].show(next(args)) if p in _KINDS else p for p in table[expr[0]][1])
    return f"{expr[0]}({text})"


def _build_expr(table: dict, env: "_Env", expr: tuple):
    if expr[0] == "ref":
        return env.lookup("objs", expr[1])
    build, parts = table[expr[0]]
    kinds = [p for p in parts if p in _KINDS]
    return build(*(_KINDS[k].build(env, v) for k, v in zip(kinds, expr[1:])))


def _ref(table: str, expected: str) -> _Kind:
    """A name looked up in one session table."""
    return _Kind(lambda sc: sc.name(expected), str, lambda env, name: env.lookup(table, name))


def _fmt_shape(shape) -> str:
    return "[" + ",".join(str(k) for k in shape) + "]"


_KINDS = {
    "shape": _Kind(_Scanner.shape, _fmt_shape, lambda env, shape: shape),
    "int": _Kind(_Scanner.integer, str, lambda env, n: n),
    "matrix": _Kind(_Scanner.bracket_blob, str, lambda env, text: parse_matrix_literal(text)),
    "maps": _ref("maps", "a map name"),
    "algs": _ref("algs", "an algebra name"),
    "coalgs": _ref("coalgs", "a coalgebra name"),
    "obj": _Kind(_parse_obj_expr, partial(_fmt_expr, _OBJ_CTORS), partial(_build_expr, _OBJ_CTORS)),
    # the values of the definition statements, keyed by the statement
    "map": _Kind(_parse_map_expr, partial(_fmt_expr, _MAP_CTORS), partial(_build_expr, _MAP_CTORS)),
    "alg": _Kind(_Scanner.shape, _fmt_shape, lambda env, shape: make_algebra(shape)),
    "coalg": _Kind(_Scanner.shape, _fmt_shape, lambda env, shape: make_coalgebra(shape)),
    "space": _Kind(_Scanner.space_text, str, lambda env, text: parse_space(text, names=env.spaces)),
}
# definition statement `KIND NAME = value;` → the session table NAME goes in
_DEFINITIONS = {"space": "spaces", "alg": "algs", "coalg": "coalgs", "map": "maps", "obj": "objs"}


# ---------------------------------------------------------------------------
# statements

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
        if head in _DEFINITIONS:
            nm = sc.name()
            sc.literal("=")
            st = Statement(head, (("name", nm), ("value", _KINDS[head].read(sc))), ln)
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
                sc.keyword("in")
                st = Statement(
                    "norm",
                    (("arg", blob), ("kind", kind), ("space", sc.space_text())),
                    ln,
                )
        elif head == "demo":
            sc.keyword("qswitch")
            n = sc.integer()
            st = Statement("demo", (("n", n), ("what", "qswitch")), ln)
        elif head == "assert":
            sc.keyword("laws")
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
    return "".join(_fmt_statement(st) + "\n" for st in ast.statements)


def _fmt_statement(st: Statement) -> str:
    if st.kind in _DEFINITIONS:
        return f"{st.kind} {st.get('name')} = {_KINDS[st.kind].show(st.get('value'))};"
    if st.kind == "check":
        tail = ""
        if st.get("src") is not None:
            tail = f" : {st.get('src')} -> {st.get('dst')}"
        return f"check {st.get('kind')} {st.get('map')}{tail};"
    if st.kind == "norm":
        kind = st.get("kind")
        if kind in ("op", "tr"):
            return f"norm {kind} {st.get('arg')};"
        if kind in ("diamond", "cb"):
            pic = f" {st.get('picture')}" if kind == "cb" else ""
            return f"norm {kind} {st.get('arg')}{pic};"
        return f"norm {kind} {st.get('arg')} in {st.get('space')};"
    if st.kind == "demo":
        return f"demo qswitch {st.get('n')};"
    return f"assert laws {st.get('name')};"


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
        if not math.isfinite(x):
            return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
        return float(f"{x:.12g}")
    return x


def _jsonify(obj):
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _round(float(obj))
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
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
    def __init__(self):
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


def _element_level(mat: np.ndarray, sp: SpaceExpr):
    """Level and coordinates of a literal at the Kronecker product of the factors' osx placements.

    A nonzero entry off that placement is an error, not a dropped entry.
    """
    fs = FlatSpace.tens_min(placement(sp.args[0]), placement(sp.args[1]))
    rows, cols = fs.rows, fs.cols
    if not rows * cols or mat.shape[0] % rows or mat.shape[1] % cols:
        raise OscatError(f"literal shape {mat.shape} does not tile {rows}x{cols}")
    k = mat.shape[0] // rows
    if mat.shape != (k * rows, k * cols):
        raise OscatError("literal is not square at a single level")
    # flat (k·rows, k·cols) → tensor coords (k,k,dimA·dimB), read at the Kronecker placement
    blocks = mat.reshape(k, rows, k, cols).transpose(0, 2, 1, 3).reshape(k, k, -1)
    coords = blocks[..., fs.pos]
    if np.count_nonzero(coords) != np.count_nonzero(blocks):
        raise OscatError(f"literal has a nonzero entry off the placement of {format_space(sp)}")
    return k, coords


def run_session(ast: SessionAst, config: RunConfig | None = None) -> Report:
    """Execute statements in order; failures do not abort later commands."""
    config = config or RunConfig()
    env = _Env()
    records: list[Record] = []
    for st in ast.statements:
        # a definition records nothing unless it fails
        text = "" if st.kind in _DEFINITIONS else _fmt_statement(st)
        t0 = time.perf_counter()
        try:
            recs = _execute(env, st, text, config)
        except (OscatError, ValueError, np.linalg.LinAlgError) as exc:
            recs = [Record(text or _fmt_statement(st), "fail", detail={"error": str(exc)})]
        except MemoryError as exc:
            error = f"out of memory: {exc}" if str(exc) else "out of memory"
            recs = [Record(text or _fmt_statement(st), "fail", detail={"error": error})]
        for r in recs:
            r.elapsed = time.perf_counter() - t0
        records.extend(recs)
    return Report(
        config={"seed": config.seed, "tol": config.tol},
        records=records,
    )


def _execute(env: _Env, st: Statement, text: str, config: RunConfig) -> list[Record]:
    if st.kind in _DEFINITIONS:
        value = _KINDS[st.kind].build(env, st.get("value"))
        env.define(st.get("name"), _DEFINITIONS[st.kind], value)
        return []
    if st.kind == "check":
        return [_run_check(env, st, text, config)]
    if st.kind == "norm":
        return [_run_norm(env, st, text)]
    if st.kind == "demo":
        return _run_demo(env, st, text)
    return [_run_assert(env, st, text, config)]


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
        res = check_morphism(f, a, b, config.tol)
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


def _run_norm(env: _Env, st: Statement, text: str) -> Record:
    kind = st.get("kind")
    if kind in ("op", "tr"):
        mat = parse_matrix_literal(st.get("arg"))
        val = op_norm(mat) if kind == "op" else tr_norm(mat)
        if not np.isfinite(val):
            raise OscatError(f"norm {kind} is not finite ({val}) in floating point")
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
        br = norm_at(SpaceElement(sp, level, coords))
    unknown = br.status == "unknown"
    detail = {"norm_status": br.status}
    for key in ("route", "reason", "iterations", "sdp_iterations"):
        if key in br.witnesses:
            detail[key] = br.witnesses[key]
    return Record(
        text, "unknown" if unknown else "pass", value=None if unknown else br.mid,
        bracket=(br.lower, br.upper), detail=detail,
    )


def _run_demo(env: _Env, st: Statement, text: str) -> list[Record]:
    _, report = quantum_switch(st.get("n"))
    out = [Record(f"{text} [{c['claim']}]", c["verdict"], detail=c["evidence"])
           for c in report["claims"]]
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
        return (_json_text(doc, "\n") + "\n").encode()
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


_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_text(obj, indent: str) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` for str-keyed plain data, whose
    indenting encoder is pure Python; `indent` is the newline and indent of obj's line."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _JSON_NONFINITE.get(text, text)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# entry point

def _config_from_args(args) -> RunConfig:
    """Flags over OSCAT_SEED / OSCAT_TOL over defaults."""
    seed = args.seed if args.seed is not None else _env_value("OSCAT_SEED", int, "0")
    tol = args.tol if args.tol is not None else _env_value("OSCAT_TOL", float, "1e-9")
    return RunConfig(seed=seed, tol=tol)


def _env_value(name: str, parse, default: str):
    raw = os.environ.get(name, default)
    try:
        return parse(raw)
    except ValueError:
        raise InvalidInputError(f"{name}={raw!r} is not a valid {parse.__name__}") from None


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
    try:
        config = _config_from_args(args)
    except InvalidInputError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 3

    if args.cmd == "selftest":
        from .acceptance import run_all

        results = run_all(config)
        ok = True
        for res in results:
            print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.summary}")
            ok = ok and res.passed
        return 0 if ok else 1

    if args.cmd == "demo":
        text = f"demo qswitch {args.n};\n"
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read {args.file}: {exc}", file=sys.stderr)
            return 3
    try:
        ast = parse_session(text)
    except ParseError as exc:
        report = Report(config={"seed": config.seed, "tol": config.tol},
                        records=[], parse_error=str(exc))
    else:
        report = run_session(ast, config)

    sys.stdout.write(emit_report(report, "text").decode())
    if args.json_out:
        with open(args.json_out, "wb") as fh:
            fh.write(emit_report(report, "json"))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
