"""MALL coverage table: the identity morphism of every small MALL object.

The atoms are S(C₂), H(A₂) and the unitary object U = unitary(A₂, X) with X
the Pauli flip; then ⊗, ⅋, ⊕ and & over all 9 ordered pairs of atoms; then
the dual of each: 78 objects.  Each object gets two rows on its carrier, the
identity and 1.001·identity.  The identity is a morphism of every object, and
1.001·identity of none (it is not a complete contraction), so neither row may
get the other verdict; `unknown` is allowed.  The floor on decided rows only
goes up: a change that decides more rows raises it.
"""
import numpy as np
import pytest

from oscat import (
    BlockMatrix,
    QObject,
    SuperOp,
    check_morphism,
    connective,
    embed_H,
    embed_S,
    make_algebra,
    make_coalgebra,
)
from oscat.osx import block_carrier, dim
from oscat.qglue import singleton_unitary

# decided rows of 156: identity `valid` on 15 objects, 1.001·identity `invalid` on 26
FLOOR_IDENTITY_VALID = 15
FLOOR_SCALED_INVALID = 26


def _objects() -> dict:
    flip = BlockMatrix([np.array([[0.0, 1.0], [1.0, 0.0]])])
    atoms = {
        "S": embed_S(make_coalgebra([2])),
        "H": embed_H(make_algebra([2])),
        "U": QObject(embed_H(make_algebra([2])).space, singleton_unitary(flip)),
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
    """(object name, scale, verdict, reason) of both rows of every object."""
    out = []
    for name, obj in _objects().items():
        carrier = block_carrier(obj.space)
        # an object with no recognized carrier gets a shape of its dimension
        shape = carrier[1] if carrier is not None else (1,) * dim(obj.space)
        d = sum(k * k for k in shape)
        for scale in (1.0, 1.001):
            r = check_morphism(SuperOp(shape, shape, scale * np.eye(d)), obj, obj)
            out.append((name, scale, r.verdict, r.reason))
    return out


@pytest.fixture(scope="module")
def rows():
    return _rows()


def test_table_size(rows):
    assert len(rows) == 156


def test_no_wrong_verdict(rows):
    wrong = [(name, scale, verdict, reason) for name, scale, verdict, reason in rows
             if (scale == 1.0 and verdict == "invalid") or (scale != 1.0 and verdict == "valid")]
    assert not wrong


def test_decided_floor(rows):
    identity_valid = sum(scale == 1.0 and verdict == "valid" for _, scale, verdict, _ in rows)
    scaled_invalid = sum(scale != 1.0 and verdict == "invalid" for _, scale, verdict, _ in rows)
    assert identity_valid >= FLOOR_IDENTITY_VALID
    assert scaled_invalid >= FLOOR_SCALED_INVALID
    decided = sum(verdict != "unknown" for *_, verdict, _ in rows)
    assert decided >= FLOOR_IDENTITY_VALID + FLOOR_SCALED_INVALID == 41
