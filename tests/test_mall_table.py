"""MALL coverage table: the identity morphism of every small MALL object.

The atoms are S(C₂), H(A₂) and the unitary object U = unitary(A₂, X) with X
the Pauli flip; then ⊗, ⅋, ⊕ and & over all 9 ordered pairs of atoms; then
the dual of each: 78 objects.  Each object gets three rows on its carrier:
the identity, 1.001·identity, and conjugation by X on each 2×2 factor.  X
fixes {X}, the unit and the states, so the identity and the conjugation are
morphisms of every object and 1.001·identity of none (it is not a complete
contraction); no row may get the other verdict, and `unknown` is allowed.
The floor on decided rows only goes up: a change that decides more rows
raises it.
"""
import numpy as np
import pytest

from oscat import (
    BlockMatrix,
    QObject,
    SuperOp,
    check_morphism,
    conjugation,
    connective,
    embed_H,
    embed_S,
    identity_map,
    kron,
    make_algebra,
    make_coalgebra,
)
from oscat.osx import block_carrier, dim
from oscat.qglue import singleton_unitary

# decided rows of 234: identity `valid` on 15 objects, 1.001·identity `invalid`
# on 26, conjugation `valid` on 15
FLOOR_IDENTITY_VALID = 15
FLOOR_SCALED_INVALID = 26
FLOOR_CONJUGATION_VALID = 15

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])
# the X conjugation of every carrier shape in the table
CONJUGATIONS = {
    (2,): conjugation(FLIP),
    (4,): conjugation(kron(FLIP, FLIP)),
    (2, 2): conjugation(FLIP).direct_sum(conjugation(FLIP)),
}


def _objects() -> dict:
    atoms = {
        "S": embed_S(make_coalgebra([2])),
        "H": embed_H(make_algebra([2])),
        "U": QObject(embed_H(make_algebra([2])).space, singleton_unitary(BlockMatrix([FLIP]))),
    }
    objs = dict(atoms)
    for kind in ("tensor", "par", "plus", "with"):
        for a in atoms:
            for b in atoms:
                objs[f"{kind}({a},{b})"] = connective(kind, atoms[a], atoms[b])
    for name in list(objs):
        objs[f"dual({name})"] = connective("dual", objs[name])
    return objs


def _rows():
    """(object name, row, verdict, reason) of the three rows of every object."""
    out = []
    for name, obj in _objects().items():
        carrier = block_carrier(obj.space)
        # an object with no recognized carrier gets maps of its dimension
        shape = carrier[1] if carrier is not None else (1,) * dim(obj.space)
        d = sum(k * k for k in shape)
        maps = {
            "identity": identity_map(shape),
            "scaled": SuperOp(shape, shape, 1.001 * np.eye(d)),
            "conjugation": CONJUGATIONS.get(shape, identity_map(shape)),
        }
        for row, f in maps.items():
            r = check_morphism(f, obj, obj)
            out.append((name, row, r.verdict, r.reason))
    return out


@pytest.fixture(scope="module")
def rows():
    return _rows()


def test_negation_is_involutive():
    # (A^⊥)^⊥ = A in a *-autonomous category, sets and spaces alike
    objs = _objects()
    assert [name for name, o in objs.items() if connective("dual", connective("dual", o)) != o] == []


def test_table_size(rows):
    assert len(rows) == 234


def test_no_wrong_verdict(rows):
    wrong = [(name, row, verdict, reason) for name, row, verdict, reason in rows
             if verdict == ("valid" if row == "scaled" else "invalid")]
    assert not wrong


def test_decided_floor(rows):
    def count(row, verdict):
        return sum((r, v) == (row, verdict) for _, r, v, _ in rows)

    assert count("identity", "valid") >= FLOOR_IDENTITY_VALID
    assert count("scaled", "invalid") >= FLOOR_SCALED_INVALID
    assert count("conjugation", "valid") >= FLOOR_CONJUGATION_VALID
    decided = sum(verdict != "unknown" for *_, verdict, _ in rows)
    assert decided >= FLOOR_IDENTITY_VALID + FLOOR_SCALED_INVALID + FLOOR_CONJUGATION_VALID == 56
