"""Session text in and out: the JSON report writer, matrix literals, space texts.

The JSON report is byte-for-byte `json.dumps(doc, sort_keys=True, indent=2)`
plus a newline; stdlib json is the oracle here.  The malformed matrix
literals and space texts below pin each error message and position.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from oscat.cli import ParseError, Record, Report, emit_report, parse_session, run_session
from oscat.config import RunConfig
from oscat.errors import InvalidInputError
from oscat.matcore import parse_matrix_literal
from oscat.osx import SpaceSyntaxError, parse_space

TUTORIAL = Path(__file__).parents[1] / "src" / "oscat" / "data" / "tutorial.oscat"


def _oracle(report: Report) -> bytes:
    doc = {"config": report.config, "records": [r.to_json_dict() for r in report.records]}
    if report.parse_error is not None:
        doc["parse_error"] = report.parse_error
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _parse_error_report(text: str) -> Report:
    with pytest.raises(ParseError) as exc:
        parse_session(text)
    return Report(config={"seed": 0, "tol": 1e-9}, records=[], parse_error=str(exc.value))


NAN, INF = float("nan"), float("inf")
REPORTS = {
    "tutorial": lambda: run_session(parse_session(TUTORIAL.read_text()), RunConfig(seed=0)),
    "qswitch": lambda: run_session(parse_session("demo qswitch 2;")),
    "parse-error": lambda: _parse_error_report("norm op [[1]];\nspace X = M(2) $;"),
    "empty": lambda: run_session(parse_session("")),
    "non-finite": lambda: Report(
        config={"seed": 3, "tol": INF, "others": [-INF, NAN, 0.0, -0.0, 1e-300, 123456789.5, np.float64(2.5)]},
        records=[
            Record("norm op [[1]];", "pass", value=INF, bracket=(-INF, NAN)),
            Record("norm tr [[1]];", "unknown", value=NAN, bracket=(0.1, INF),
                   detail={"lo": -INF, "spread": [NAN, INF, 1.0 / 3.0]}),
        ],
    ),
    "non-ascii": lambda: Report(
        config={"seed": 0, "tol": 0.0},
        records=[Record("space X = M(2) ⊗ M(2);", "fail",
                        detail={"error": "café ‖x‖ \U0001d4d7 \"quoted\"\t\\ \x7f\x00"})],
        parse_error="parse error at line 1, col 2: expected é",
    ),
    "numpy": lambda: Report(
        config={"seed": 0, "tol": 1e-9},
        records=[Record("check cp f;", "pass", detail={
            "flag": np.bool_(True), "off": np.False_, "count": np.int64(7), "small": np.int8(-3),
            "f64": np.float64(0.1), "f32": np.float32(0.1), "z": 1.5 - 2j, "nested": {3: (np.float64(2.5), [])},
            "empty": {}, "none": None, "plain": [True, False, 0, -1, 2**70],
        }, witness={"v": [np.float64(-INF), 0.25]})],
    ),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_json_report_is_stdlib_json(name):
    report = REPORTS[name]()
    assert emit_report(report, "json") == _oracle(report)


def test_json_report_never_runs_the_pure_python_encoder(monkeypatch):
    # json.dumps with an indent encodes through json.encoder._make_iterencode
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder")

    report = REPORTS["tutorial"]()
    want = _oracle(report)
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({"a": 1}, indent=2)
    assert emit_report(report, "json") == want


def test_python_bools_stay_bools():
    # bool is an int: detail values True/False were written as 1/0
    rec = Record("check cp f;", "pass", detail={"ok": True, "flags": [False, np.bool_(True), 1]})
    detail = rec.to_json_dict()["detail"]
    assert [type(v) for v in [detail["ok"], *detail["flags"]]] == [bool, bool, bool, int]
    assert b'"ok": true' in emit_report(Report(config={}, records=[rec]), "json")


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", np.array([1.0])])
def test_json_report_rejects_other_types(value):
    report = Report(config={"seed": 0, "tol": 0.0, "x": value}, records=[])
    with pytest.raises(TypeError):
        json.dumps(report.config)
    with pytest.raises(TypeError):
        emit_report(report, "json")


# --- matrix literals --------------------------------------------------------

MATRIX_ERRORS = [
    ("[[1,2]", "unbalanced brackets in matrix literal"),
    ("[[1]]]", "unbalanced brackets in matrix literal"),
    ("[[1],[2]]]", "unbalanced brackets in matrix literal"),
    ("[[1]] ]", "unbalanced brackets in matrix literal"),
    # the first fault in the text is the one reported
    ("[[1],[2]] x]", "unbalanced brackets in matrix literal"),
    ("[[1] x [2]", "unexpected character 'x' between rows"),
    ("[[1]x]]", "unexpected character 'x' between rows"),
    ("[[1],x[2]]", "unexpected character 'x' between rows"),
    ("[[1] ; [2]]", "unexpected character ';' between rows"),
    ("[[1]2]", "unexpected character '2' between rows"),
    ("[[1]\t,\n[2]]", "unexpected character '\\n' between rows"),
    ("[[1],[2]] x", "matrix literal must be bracketed"),
    ("[[1],[2", "matrix literal must be bracketed"),
    ("[[1,2],[3]]", "ragged rows in matrix literal"),
    ("[[1],[]]", "empty row in matrix literal"),
    ("[[]]", "empty row in matrix literal"),
    ("[[1], [,]]", "bad row ','"),
    ("[[[1]]]", "bad matrix entry '[1]'"),
    ("[]]", "bad matrix entry ']'"),
    ("[[1 2]]", "bad matrix entry '1 2'"),
]


@pytest.mark.parametrize("text,message", MATRIX_ERRORS)
def test_malformed_matrix_literal(text, message):
    with pytest.raises(InvalidInputError) as exc:
        parse_matrix_literal(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,rows", [
    ("[1, 2]", [[1, 2]]),
    ("[]", [[]]),
    ("[[1],\t[2]]", [[1], [2]]),
    ("[ [1] , , [2] , ]", [[1], [2]]),
    ("[[1,,2]]", [[1, 2]]),
    ("[\t[1+2i, -i]\t,[3,4]\t]", [[1 + 2j, -1j], [3, 4]]),
])
def test_matrix_literal_gaps(text, rows):
    got = parse_matrix_literal(text)
    want = np.array(rows, dtype=complex).reshape(len(rows), -1)
    assert got.shape == want.shape and np.array_equal(got, want)


# --- space texts -------------------------------------------------------------

# (space text, SpaceSyntaxError message, its pos, CLI column of `space X = <text>;`)
SPACE_ERRORS = [
    ("", "expected a space constructor, got '' at position 0", 0, 11),
    ("M(", "expected int, got '' at position 2", 2, 13),
    ("M(2,)", "expected int, got ')' at position 4", 4, 15),
    ("Q(2)", "unknown constructor 'Q' at position 0", 0, 11),
    ("M(2))", "trailing input ')' at position 4", 4, 15),
    ("M(2) M(2)", "trailing input 'M' at position 4", 4, 15),
    ("dual M(2)", "expected lparen, got 'M' at position 4", 4, 15),
    ("T(2,3)", "T takes one dimension at position 0", 0, 11),
    ("M(2) (*h) (M(2)", "expected rparen, got '' at position 15", 15, 26),
    ("M(2) (*q) M(2)", "unexpected character '*' at position 6", 6, 17),
    ("M(2) (* h) M(2)", "unexpected character '*' at position 6", 6, 17),
    # a bad character after whitespace is reported at the whitespace
    ("M(2) $", "unexpected character ' ' at position 4", 4, 15),
    ("M(2)   $", "unexpected character ' ' at position 4", 4, 15),
    ("M(2)\t\t%", "unexpected character '\\t' at position 4", 4, 15),
    ("M(2) (+inf) ^M(2)", "unexpected character ' ' at position 11", 11, 22),
    ("M(2)\u2003€", "unexpected character '\\u2003' at position 4", 4, 15),
    # token positions include the whitespace before the token
    ("  M(2) ( *h ) @", "unexpected character ' ' at position 13", 13, 24),
    ("M(2) ( *h\t) M(2) )", "trailing input ')' at position 16", 16, 27),
    ("M(2)  (*h)", "expected a space constructor, got '' at position 10", 10, 21),
    ("   ", "expected a space constructor, got '' at position 3", 3, 14),
]


@pytest.mark.parametrize("text,message,pos,col", SPACE_ERRORS)
def test_malformed_space_text(text, message, pos, col):
    with pytest.raises(SpaceSyntaxError) as exc:
        parse_space(text)
    assert (str(exc.value), exc.value.pos) == (message, pos)
    with pytest.raises(ParseError) as exc:
        parse_session(f"norm op [[1]];\nspace X = {text};")
    assert (exc.value.line, exc.value.col, exc.value.expected) == (2, col, "a space expression")


@pytest.mark.parametrize("text", ["M(2) ", " M(2) (\t*proj ) T(3) ", "(M(2))"])
def test_space_text_whitespace(text):
    assert parse_space(text) == parse_space("".join(text.split()).replace("(*", " (*"))


# --- integers longer than int() reads -----------------------------------------

NINES = "9" * 5000


@pytest.mark.parametrize("text,col", [
    (f"alg A = [{NINES}];", 10),
    (f"coalg C = [2, -{NINES}];", 15),
    (f"map t = transpose({NINES});", 19),
    (f"map t = identity([1,{NINES}]);", 21),
    (f"demo qswitch {NINES};", 14),
], ids=["alg", "coalg", "transpose", "identity", "demo"])
def test_huge_integer_is_a_parse_error_at_its_column(text, col):
    with pytest.raises(ParseError) as exc:
        parse_session("norm op [[1]];\n" + text)
    limit = sys.get_int_max_str_digits()
    assert (exc.value.line, exc.value.col, exc.value.expected) == (
        2, col, f"an integer of at most {limit} digits")


@pytest.mark.parametrize("text,col", [
    (f"space X = M({NINES});", 13),
    (f"norm inj [[1]] in M(1) (*min) T({NINES});", 33),
], ids=["space", "norm"])
def test_huge_integer_in_a_space_is_a_space_error_at_its_column(text, col):
    with pytest.raises(ParseError) as exc:
        parse_session("norm op [[1]];\n" + text)
    assert (exc.value.line, exc.value.col, exc.value.expected) == (2, col, "a space expression")


def test_parse_space_huge_integer_is_a_syntax_error():
    with pytest.raises(SpaceSyntaxError) as exc:
        parse_space(f"M(2,{NINES})")
    assert exc.value.pos == 4
