"""Acceptance gate: every criterion runs at its stated tolerance.

One test per criterion; each prints its PASS/FAIL line so the gate reads as a
checklist under `pytest -s` (and identically via `oscat selftest`). The
exact oracles of criteria 3 and 5 are also run on broken input, where they
must fail.
"""
from dataclasses import replace

import numpy as np
import pytest

from oscat.acceptance import CRITERIA, comult_pairing_residual, entangled_witness
from oscat.config import RunConfig
from oscat.supop import SuperOp, transpose_map
from oscat.vnstruct import dualize, make_algebra

CONFIG = RunConfig(seed=0)


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion(CONFIG)
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.summary}")
    assert result.passed, f"{result.name}: {result.summary}"


@pytest.mark.parametrize("n", [2, 3])
def test_entangled_witness_follows_a_scaled_transpose(n):
    t = transpose_map(n)
    scaled = SuperOp(t.dom_shape, t.cod_shape, 1.001 * t.transfer)
    assert abs(entangled_witness(scaled, n) - 1.001 * n) <= 1e-12 * n


def test_comult_pairing_residual_sees_every_single_entry_mutation():
    co = dualize(make_algebra([2]))
    assert comult_pairing_residual(co) == 0.0
    missed = []
    for r, c in np.ndindex(co.comult_mat.shape):
        bad = replace(co, comult_mat=co.comult_mat.copy())
        bad.comult_mat[r, c] += 1e-3
        if comult_pairing_residual(bad) == 0.0:
            missed.append((r, c))
    assert co.comult_mat.size == 64 and missed == []
