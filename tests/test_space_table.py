"""Space-grammar coverage table: the norm oracle on every depth-2 space text.

The corpus is built as strings, so it does not depend on how a normal form
prints: the 7 level-0 texts, `(a OP b)` for the 5 binary operators over the
49 ordered pairs of them, and `dual`, `conj` and `opp` of each of those 245,
987 texts in all.  Each gets one level-1 element, drawn from a seed of its
pair (a, b), so the three tensors of a pair share coordinates, and so do X,
conj(X) and opp(X).  The test checks relations that hold whatever the true
norms are, and pins a floor on the decided rows that only goes up.
"""
import numpy as np
import pytest

from oscat.osx import SpaceElement, dim, norm_at, parse_space

ATOMS = ["M(2)", "T(2)", "dual(T(2))", "conj(M(2))", "conj(T(2))", "opp(M(2))", "opp(T(2))"]
OPS = ["(+inf)", "(+1)", "(*min)", "(*h)", "(*proj)"]
WRAPS = ["", "dual", "conj", "opp"]

# decided (not `unknown`) level-1 rows of 987: 556 exact and 57 bracket
FLOOR_DECIDED = 613


def _text(wrap, a, op, b):
    inner = f"({ATOMS[a]} {op} {ATOMS[b]})"
    return f"{wrap}({inner})" if wrap else inner


def _norm(text, seed):
    sp = parse_space(text)
    rng = np.random.default_rng(seed)
    d = dim(sp)
    return norm_at(SpaceElement(sp, 1, rng.normal(size=d) + 1j * rng.normal(size=d)))


def corpus() -> list:
    """(text, seed) of the 987 texts."""
    out = [(atom, [a]) for a, atom in enumerate(ATOMS)]
    for a in range(len(ATOMS)):
        for b in range(len(ATOMS)):
            out += [(_text(wrap, a, op, b), [a, b]) for op in OPS for wrap in WRAPS]
    return out


def _table() -> dict:
    """text → level-1 bracket of its seeded element."""
    return {text: _norm(text, seed) for text, seed in corpus()}


@pytest.fixture(scope="module")
def table():
    return _table()


def _at_most(x, y) -> bool:
    """x ≤ y is not refuted: only brackets disjoint in the wrong order refute it.

    Raw SVD values carry no rounding charge yet, so two `exact` answers for
    one value may differ in their last bits; the slack covers that only.
    """
    return x.lower <= y.upper + 1e-12 * max(1.0, y.upper)


def test_corpus_size(table):
    assert len(table) == 987


def test_decided_floor(table):
    decided = sum(br.status != "unknown" for br in table.values())
    assert decided >= FLOOR_DECIDED


def test_min_h_proj_order(table):
    # ‖·‖min ≤ ‖·‖h ≤ ‖·‖proj on shared coordinates, under conj and opp
    # alike; dual norms reverse the order
    wrong = []
    for a in range(len(ATOMS)):
        for b in range(len(ATOMS)):
            for wrap in WRAPS:
                chain = [table[_text(wrap, a, op, b)] for op in ("(*min)", "(*h)", "(*proj)")]
                if wrap == "dual":
                    chain.reverse()
                if not (_at_most(chain[0], chain[1]) and _at_most(chain[1], chain[2])):
                    wrong.append(_text(wrap, a, "·", b))
    assert not wrong


def test_conj_and_opp_agree(table):
    # conj(X) carries X's matrix norms on the same coordinates, and at level 1
    # opp(X) does too
    wrong = []
    for a in range(len(ATOMS)):
        for b in range(len(ATOMS)):
            for op in OPS:
                x = table[_text("", a, op, b)]
                for wrap in ("conj", "opp"):
                    y = table[_text(wrap, a, op, b)]
                    if not (_at_most(x, y) and _at_most(y, x)):
                        wrong.append(_text(wrap, a, op, b))
    assert not wrong
