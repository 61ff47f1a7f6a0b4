"""The session grammar, pinned statement by statement and constructor by constructor.

Every statement form and every map and object constructor has a row: the
`command` text its report records carry, and `parse(format(ast)) == ast`.
Every constructor also has a malformed input whose ParseError position and
expected-token text are pinned.  The rows that the single block-shape reader
changed on purpose are named, each in its own test, at the end.
"""
import pytest

from oscat.cli import ParseError, format_session, parse_session, run_session

# names the rows refer to; defines everything and records nothing
PRELUDE = """\
alg A = [2];
coalg C = [2];
map f = identity([2]);
map g = transpose(2);
obj o = H(A);
obj s = S(C);
"""

MAP_CTORS = ("identity", "transpose", "depolarize", "trace", "conj_by", "adjoint",
             "compose", "tensor", "dsum", "amplify", "choi")
OBJ_CTORS = ("H", "S", "unitary", "dual", "with", "plus", "tensor", "par", "unit")

# (statement as written, the command text of its records)
STATEMENTS = [
    ("space X = M(2) (*h) M(2);", "space X = M(2) (*h) M(2);"),
    ("space Y =  dual(M(2, 3)) ;", "space Y = dual(M(2, 3));"),
    ("alg B = [2, 1];", "alg B = [2,1];"),
    ("coalg D = [ 3 ];", "coalg D = [3];"),
    ("alg E = [];", "alg E = [];"),
    # the eleven map constructors
    ("map m = identity([2,1]);", "map m = identity([2,1]);"),
    ("map m = transpose( 3 );", "map m = transpose(3);"),
    ("map m = depolarize(2);", "map m = depolarize(2);"),
    ("map m = trace([2,2]);", "map m = trace([2,2]);"),
    ("map m = conj_by([[0, 1], [1, 0]]);", "map m = conj_by([[0, 1], [1, 0]]);"),
    ("map m = adjoint(g);", "map m = adjoint(g);"),
    ("map m = compose(f,g);", "map m = compose(f, g);"),
    ("map m = tensor(f, g);", "map m = tensor(f, g);"),
    ("map m = dsum( f , g );", "map m = dsum(f, g);"),
    ("map m = amplify(f,2);", "map m = amplify(f, 2);"),
    ("map m = choi([2]->[2], [[1,0,0,1],[0,0,0,0],[0,0,0,0],[1,0,0,1]]);",
     "map m = choi([2] -> [2], [[1,0,0,1],[0,0,0,0],[0,0,0,0],[1,0,0,1]]);"),
    # the nine object constructors, and a reference
    ("obj p = H(A);", "obj p = H(A);"),
    ("obj p = S(C);", "obj p = S(C);"),
    ("obj p = unitary(A,[[0,1],[1,0]]);", "obj p = unitary(A, [[0,1],[1,0]]);"),
    ("obj p = dual(s);", "obj p = dual(s);"),
    ("obj p = with(o,o);", "obj p = with(o, o);"),
    ("obj p = plus(s, s);", "obj p = plus(s, s);"),
    ("obj p = tensor(H(A), S(C));", "obj p = tensor(H(A), S(C));"),
    ("obj p = par(dual(o), unit( ));", "obj p = par(dual(o), unit());"),
    ("obj p = unit();", "obj p = unit();"),
    ("obj p = o;", "obj p = o;"),
    # the other statements
    ("check cp f;", "check cp f;"),
    ("check cptp f:C->C;", "check cptp f : C -> C;"),
    ("check morphism f : o -> o;", "check morphism f : o -> o;"),
    ("norm op [[1, 2],[3,4]];", "norm op [[1, 2],[3,4]];"),
    ("norm tr [[1]];", "norm tr [[1]];"),
    ("norm diamond g;", "norm diamond g;"),
    ("norm cb g;", "norm cb g operator;"),
    ("norm cb g trace;", "norm cb g trace;"),
    ("norm haagerup [[1,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,1]] in M(2) (*h) M(2);",
     "norm haagerup [[1,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,1]] in M(2) (*h) M(2);"),
    ("norm proj [[1,0],[0,1]] in M(1) (*proj)  M(2);", "norm proj [[1,0],[0,1]] in M(1) (*proj)  M(2);"),
    ("norm inj [[1,0],[0,1]] in M(2) (*min) M(1);", "norm inj [[1,0],[0,1]] in M(2) (*min) M(1);"),
    ("demo qswitch 1;", "demo qswitch 1;"),
    ("assert laws A;", "assert laws A;"),
]


def test_rows_cover_every_constructor():
    def ctor(text):
        return text.split("=", 1)[1].strip().split("(", 1)[0]

    maps = {ctor(t) for t, _ in STATEMENTS if t.startswith("map ")}
    objs = {ctor(t) for t, _ in STATEMENTS if t.startswith("obj ") and "(" in t}
    assert maps == set(MAP_CTORS) and objs == set(OBJ_CTORS)
    assert {t.split()[0] for t, _ in STATEMENTS} == {
        "space", "alg", "coalg", "map", "obj", "check", "norm", "demo", "assert"}


@pytest.mark.parametrize("text,command", STATEMENTS)
def test_command_text(text, command):
    # run twice, so that a definition, which records nothing when it
    # succeeds, records its second run as a duplicate
    report = run_session(parse_session(PRELUDE + text + "\n" + text + "\n"))
    assert report.records
    for rec in report.records:
        # demo records append their claim in brackets
        assert rec.command == command or rec.command.startswith(command + " ["), rec.command


@pytest.mark.parametrize("text,command", STATEMENTS)
def test_roundtrip(text, command):
    ast = parse_session(text)
    assert format_session(ast) == command + "\n"
    assert parse_session(format_session(ast)) == ast


MALFORMED = [
    ("map f = identity();", 18, "'['"),
    ("map f = identity([2]);x", 23, "end of statement"),
    ("map f = transpose();", 19, "an integer"),
    ("map f = depolarize(2;", 21, "')'"),
    ("map f = trace(2);", 15, "'['"),
    ("map f = conj_by([[1]];", 22, "')'"),
    ("map f = adjoint();", 17, "a map name"),
    ("map f = compose(f g);", 19, "','"),
    ("map f = tensor(f);", 17, "','"),
    ("map f = dsum(f, );", 17, "a map name"),
    ("map f = amplify(f, g);", 20, "an integer"),
    ("map f = choi([2], [2], [[1]]);", 17, "'->'"),
    ("map f = choi([2] -> [2] [[1]]);", 25, "','"),
    ("map f = foo(1);", 12,
     "one of identity|transpose|depolarize|trace|conj_by|adjoint|compose|tensor|dsum|amplify|choi"),
    ("map f = g;", 10,
     "one of identity|transpose|depolarize|trace|conj_by|adjoint|compose|tensor|dsum|amplify|choi"),
    ("map f = identity[2];", 17, "'('"),
    ("obj o = unitary(A [[1]]);", 19, "','"),
    ("obj o = unitary(A, B);", 20, "'['"),
    ("obj o = dual();", 14, "an object expression"),
    ("obj o = with(a; b);", 15, "','"),
    ("obj o = plus(a,);", 16, "an object expression"),
    ("obj o = tensor(a, b;", 20, "')'"),
    ("obj o = par(a b);", 15, "','"),
    ("obj o = unit(a);", 14, "')'"),
    ("obj o = foo(a);", 13, "one of H|S|unitary|dual|with|plus|tensor|par|unit"),
    ("obj o = ;", 9, "an object expression"),
    ("obj o = H(A)(;", 13, "';'"),
    ("alg A = [x];", 12, "a block-shape like [2,3]"),
    ("alg A = 2;", 9, "'['"),
    ("coalg C = [2,,3];", 17, "a block-shape like [2,3]"),
    ("space X = ;", 11, "a space expression"),
    ("map = identity([2]);", 5, "a name"),
    ("map f identity([2]);", 7, "'='"),
    # statement keywords are whole names, not prefixes of the next token
    ("assert lawsA;", 8, "'laws'"),
    ("demo qswitch2;", 6, "'qswitch'"),
    ("norm inj [[1]] inM(1) (*min) M(1);", 16, "'in'"),
]


@pytest.mark.parametrize("text,col,expected", MALFORMED)
def test_malformed_position(text, col, expected):
    with pytest.raises(ParseError) as exc:
        parse_session("norm op [[1]];\n" + text)
    assert (exc.value.line, exc.value.col, exc.value.expected) == (2, col, expected)


# --- rows changed on purpose ------------------------------------------------

@pytest.mark.parametrize(
    "text,col,expected",
    [
        # H and S name the table they look in (both read "an algebra/coalgebra name")
        ("obj o = H();", 11, "an algebra name"),
        ("obj o = S(1);", 11, "a coalgebra name"),
    ],
)
def test_ref_arguments_name_their_table(text, col, expected):
    with pytest.raises(ParseError) as exc:
        parse_session(text)
    assert (exc.value.line, exc.value.col, exc.value.expected) == (1, col, expected)


@pytest.mark.parametrize("text,col", [("map f = identity([2,,3]);", 24),
                                      ("map f = trace([x]);", 18)])
def test_map_shapes_read_like_structure_shapes(text, col):
    # map shapes were read by int() at run time: [2,,3] was silently (2, 3)
    # and [x] a fail record carrying int()'s message; like `alg A = [2,,3];`
    # both are now parse errors at the end of the shape
    with pytest.raises(ParseError) as exc:
        parse_session(text)
    assert (exc.value.line, exc.value.col, exc.value.expected) == (1, col, "a block-shape like [2,3]")


def test_negative_structure_size_fails_like_a_negative_map_size():
    # `alg A = [-1];` was a parse error; it now reads like `identity([-1])`
    report = run_session(parse_session("alg A = [-1];\nmap f = identity([-1]);\nnorm op [[1]];"))
    assert [(r.command, r.status, r.detail.get("error")) for r in report.records] == [
        ("alg A = [-1];", "fail", "block sizes must be >= 0"),
        ("map f = identity([-1]);", "fail", "block sizes must be >= 0"),
        ("norm op [[1]];", "pass", None),
    ]


def test_map_shapes_print_like_structure_shapes():
    # map shapes were printed as written; they now print as `alg` shapes do
    ast = parse_session("map f = identity([ 2, 1 ]);\nalg A = [ 2, 1 ];")
    assert format_session(ast) == "map f = identity([2,1]);\nalg A = [2,1];\n"
