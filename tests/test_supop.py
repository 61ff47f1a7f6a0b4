import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cptp, random_superop
from oscat.errors import ShapeMismatchError, SizeLimitError
from oscat.matcore import (
    BlockMatrix,
    block_offsets,
    kron,
    op_norm,
    rand_complex,
    rand_unitary,
    tr_norm,
)
from oscat.supop import (
    ChannelFlags,
    SuperOp,
    conjugation,
    depolarizing,
    identity_map,
    partial_trace,
    trace_map,
    transpose_map,
)


class TestChoiRoundtrip:
    def test_identity_choi(self):
        # Σ_ij e_ij ⊗ e_ij, built basis-by-basis as an independent oracle
        J = identity_map((2,)).big_choi()
        want = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2))
                e[i, j] = 1
                want += np.kron(e, e)
        assert np.allclose(J, want)

    def test_zero_map(self):
        assert np.allclose(SuperOp((2,), (3,), np.zeros((9, 4))).big_choi(), 0)

    def test_transpose_choi_is_swap(self):
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1
        assert np.allclose(transpose_map(2).big_choi(), swap)

    def test_action_choi_action_exact(self, rng):
        s = random_superop(rng, 3)
        rebuilt = SuperOp.from_action(s.apply, s.dom_shape, s.cod_shape)
        assert rebuilt.allclose(s, tol=0)

    def test_big_choi_roundtrip(self, rng):
        s = random_superop(rng, 2).direct_sum(random_superop(rng, 3))
        s2 = SuperOp.from_big_choi(s.big_choi(), s.dom_shape, s.cod_shape)
        assert s2.allclose(s, tol=0)


class TestAdjoint:
    def test_unitary_conjugation_heisenberg(self, rng):
        # the adjoint of ρ ↦ uρu* is a ↦ u*au
        u = rand_unitary(rng, 3)
        heis = conjugation(u).adjoint()
        for _ in range(5):
            a = rand_complex(rng, 3)
            assert np.allclose(heis(a), u.conj().T @ a @ u)

    def test_identity_self_adjoint(self):
        s = identity_map((2, 3))
        assert s.adjoint().allclose(s, tol=0)

    def test_involution_exact(self, rng):
        s = random_superop(rng, 2, 3)
        assert s.adjoint().adjoint().allclose(s, tol=0)

    def test_trace_pairing(self, rng):
        s = random_superop(rng, 2, 3)
        sa = s.adjoint()
        for _ in range(10):
            x, y = rand_complex(rng, 2), rand_complex(rng, 3)
            lhs = np.trace(s(x) @ y)
            rhs = np.trace(x @ sa(y))
            assert abs(lhs - rhs) < 1e-12

    def test_adjoint_of_tp_is_unital(self, rng):
        s = random_cptp(rng, 3)
        # pairing with the identity matrix: tr(s(x)) = tr(x · s†(1))
        assert np.allclose(s.adjoint()(np.eye(3)), np.eye(3))
        assert s.adjoint().classify().unital


class TestAmplify:
    def test_identity_amplifies_to_identity(self):
        s = identity_map((2,)).amplify(3)
        assert s.allclose(identity_map((6,)), tol=0)

    def test_partial_transpose(self, rng):
        pt = transpose_map(2).amplify(2)
        x = rand_complex(rng, 4)
        want = x.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        assert np.allclose(pt(x), want)

    def test_level_one_is_identity_op(self, rng):
        s = random_superop(rng, 2)
        assert s.amplify(1).allclose(s, tol=1e-14)

    def test_bad_level(self):
        with pytest.raises(ShapeMismatchError):
            identity_map((2,)).amplify(0)


class TestClassify:
    def test_depolarizing_choi_and_flags(self):
        n = 3
        dep = depolarizing(n)
        fl = dep.classify()
        assert fl.cp and fl.tp and fl.unital
        # oracle: choi = Σ_a (1/n)·1 ⊗ e_aa = 1 ⊗ 1/n restricted to diagonal inputs
        want = sum(
            np.kron(np.eye(n) / n, np.outer(np.eye(n)[a], np.eye(n)[a]))
            for a in range(n)
        )
        assert np.allclose(dep.big_choi(), want)
        assert psd_min(dep.big_choi()) >= -1e-12

    def test_transpose_not_cp(self):
        fl = transpose_map(2).classify()
        assert not fl.cp and fl.tp and fl.unital and fl.herm_preserving
        assert abs(fl.min_choi_eig + 1.0) < 1e-12

    def test_unitary_heisenberg_cpu(self, rng):
        u = rand_unitary(rng, 2)
        fl = conjugation(u).adjoint().classify()
        assert fl.cp and fl.unital and fl.tp

    def test_partial_trace_oracle(self, rng):
        # independent loop-based partial trace vs the vectorized one
        d0, d1 = 3, 2
        m = rand_complex(rng, d0 * d1)
        want0 = np.zeros((d1, d1), dtype=complex)
        for a in range(d0):
            for i in range(d1):
                for j in range(d1):
                    want0[i, j] += m[a * d1 + i, a * d1 + j]
        assert np.allclose(partial_trace(m, (d0, d1), 0), want0)
        want1 = np.zeros((d0, d0), dtype=complex)
        for i in range(d0):
            for j in range(d0):
                for a in range(d1):
                    want1[i, j] += m[i * d1 + a, j * d1 + a]
        assert np.allclose(partial_trace(m, (d0, d1), 1), want1)

    def test_tp_via_choi_partial_trace(self, rng):
        s = random_cptp(rng, 3)
        assert np.allclose(partial_trace(s.big_choi(), (3, 3), 0), np.eye(3))

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: _random_map(rng, (2, 1), (1, 2)),
            lambda rng: _random_map(rng, (1, 0, 2), (2,)),
            lambda rng: identity_map((0,)),
            lambda rng: trace_map((2, 1)),
            lambda rng: SuperOp.from_big_choi([[1, 2], [0, 1]], (2,), (0, 1)),
            lambda rng: random_superop(rng, 2, 3),
            lambda rng: transpose_map(3),
            *(
                lambda rng, f=f, g=g: _skewed_conjugation(rng, f, g)
                for g in ("rank-one", "identity")
                for f in (0.3, 0.5, 0.99, 1.01, 2.0)
            ),
            lambda rng: _replacement_map(),
            lambda rng: _partial_trace_map(),
            lambda rng: _random_map(rng, (3,), (2,)),
            lambda rng: _random_map(rng, (2, 2), (4,)),
        ],
        ids=["(2,1)->(1,2)", "(1,0,2)->(2,)", "identity[0]", "trace_map", "choi", "random", "T3"]
        + [f"skew{f}-{g}" for g in ("rank-one", "identity") for f in (0.3, 0.5, 0.99, 1.01, 2.0)]
        + ["replacement", "partial-trace", "(3,)->(2,)", "(2,2)->(4,)"],
    )
    def test_flags_bit_identical_to_block_matrix_oracle(self, make, rng):
        s = make(rng)
        assert s.classify() == _classify_by_block_matrices(s)

    def test_equal_size_sectors_share_one_eigvalsh(self, rng, linalg_calls):
        # (2,2,1) -> (2,2,1) has nine nonzero sectors, of sizes 4, 2 and 1
        s = SuperOp((2, 2, 1), (2, 2, 1), rand_complex(rng, 9, 9))
        linalg_calls.clear()
        flags = s.classify()
        assert linalg_calls["eigvalsh"] == 3
        assert flags == _classify_by_block_matrices(s)

    def test_skewed_flags_straddle_tol(self, rng, linalg_calls):
        # the oracle cases above sit on both sides of the Hermiticity decision,
        # and a rank-one skew of 0.3·tol is accepted from its Frobenius norm
        # (one SVD, for the defects) where g = 1 needs a second
        for g, svds in (("rank-one", 1), ("identity", 2)):
            got = [_skewed_conjugation(rng, f, g).classify().herm_preserving for f in (0.99, 1.01)]
            assert got == [True, False]
            s = _skewed_conjugation(rng, 0.3, g)
            linalg_calls.clear()
            assert s.classify().herm_preserving
            assert linalg_calls["svd"] == svds

    def test_zero_trace_defect_with_unit_defect(self):
        for s in (_replacement_map(), _partial_trace_map()):
            flags = s.classify()
            assert flags.trace_defect == 0.0 and flags.unit_defect > 0.1
            assert flags.tp and not flags.unital and flags.cp

    @pytest.mark.parametrize("make", [lambda rng: transpose_map(3), lambda rng: depolarizing(3)],
                             ids=["T3", "depolarizing3"])
    def test_exact_maps_classify_without_svd(self, make, rng, linalg_calls):
        s = make(rng)
        linalg_calls.clear()
        flags = s.classify()
        assert flags.trace_defect == flags.unit_defect == 0.0
        assert linalg_calls["svd"] == 0

    def test_conjugation_classifies_with_one_svd(self, rng, linalg_calls):
        # an exactly Hermitian Choi matrix needs no SVD; both rounding-sized
        # defects over the one shape share a single block_norms SVD
        s = conjugation(rand_unitary(rng, 3))
        linalg_calls.clear()
        flags = s.classify()
        assert flags.trace_defect > 0 and flags.unit_defect > 0
        assert dict(linalg_calls) == {"eigvalsh": 1, "svd": 1}


def _skewed_conjugation(rng, factor: float, skew: str, tol: float = 1e-9) -> SuperOp:
    """A qubit unitary conjugation whose Choi matrix J gains i·c·g, g Hermitian.

    Then J − J* = 2i·c·g, and c is chosen so that ‖J − J*‖₂ = factor·tol.  A
    rank-one g has ‖g‖_F = ‖g‖₂, so factors up to 0.5 pass the Frobenius test;
    g = 1 has ‖g‖_F = 2‖g‖₂, so every factor here goes to the SVD.
    """
    J = conjugation(rand_unitary(rng, 2)).big_choi()
    if skew == "rank-one":
        w = rand_complex(rng, 4, 1)
        g = w @ w.conj().T / np.vdot(w, w).real
    else:
        g = np.eye(4)
    return SuperOp.from_big_choi(J + 0.5j * factor * tol * g, (2,), (2,))


def _replacement_map() -> SuperOp:
    """x ↦ tr(x)·diag(3/4, 1/4): exactly trace preserving, not unital."""
    rho = np.diag([0.75, 0.25])
    return SuperOp((2,), (2,), np.outer(rho.ravel(), np.eye(2).ravel()))


def _partial_trace_map() -> SuperOp:
    """Tr₂: M_4 → M_2, exactly trace preserving, with Tr₂(1) = 2·1."""
    return SuperOp.from_action(
        lambda x: BlockMatrix([partial_trace(x.blocks[0], (2, 2), 1)]), (4,), (2,)
    )


def _classify_by_block_matrices(s: SuperOp, tol: float = 1e-9) -> ChannelFlags:
    """classify as written with BlockMatrix round trips and np.linalg.norm(·, 2)."""
    herm_defect, min_eig = 0.0, np.inf
    for row, l in block_offsets(s.cod_shape):
        for col, k in block_offsets(s.dom_shape):
            t = s.transfer[row : row + l * l, col : col + k * k]
            if not t.size:
                continue
            if not t.any():
                min_eig = min(min_eig, 0.0)
                continue
            J = t.reshape(l, l, k, k).transpose(0, 2, 1, 3).reshape(l * k, l * k)
            herm_defect = max(herm_defect, float(np.linalg.norm(J - J.conj().T, 2)))
            min_eig = min(min_eig, float(np.linalg.eigvalsh((J + J.conj().T) / 2)[0]))
    min_eig = 0.0 if min_eig == np.inf else min_eig

    def blockwise_op_norm(x: BlockMatrix) -> float:
        return max((float(np.linalg.norm(b, 2)) for b in x.blocks if b.size), default=0.0)

    unit_dom = BlockMatrix.identity(s.dom_shape)
    unit_cod = BlockMatrix.identity(s.cod_shape)
    traces = unit_cod.to_vector() @ s.transfer - unit_dom.to_vector()
    trace_defect = blockwise_op_norm(BlockMatrix.from_vector(traces, s.dom_shape))
    unit_defect = blockwise_op_norm(s.apply(unit_dom) - unit_cod)
    return ChannelFlags(
        cp=herm_defect <= tol and min_eig >= -tol,
        tp=trace_defect <= tol,
        unital=unit_defect <= tol,
        herm_preserving=herm_defect <= tol,
        min_choi_eig=min_eig,
        trace_defect=trace_defect,
        unit_defect=unit_defect,
    )


def psd_min(a):
    return float(np.linalg.eigvalsh((a + a.conj().T) / 2)[0])


class TestCombine:
    def test_compose_identity(self, rng):
        s = random_superop(rng, 2, 3)
        assert identity_map((3,)).compose(s).allclose(s, tol=1e-14)
        assert s.compose(identity_map((2,))).allclose(s, tol=1e-14)

    def test_compose_action(self, rng):
        s, t = random_superop(rng, 2, 3), random_superop(rng, 3, 2)
        x = rand_complex(rng, 2)
        assert np.allclose(t.compose(s)(x), t(s(x)))

    def test_compose_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            random_superop(rng, 2).compose(random_superop(rng, 3))

    def test_tensor_of_cptp_is_cptp(self, rng):
        for _ in range(50):
            n1, n2 = rng.integers(2, 4), rng.integers(2, 4)
            s = random_cptp(rng, int(n1)).tensor(random_cptp(rng, int(n2)))
            fl = s.classify()
            assert fl.cp and fl.tp

    def test_tensor_action_is_kron(self, rng):
        s, t = random_superop(rng, 2), random_superop(rng, 2)
        st = s.tensor(t)
        x, y = rand_complex(rng, 2), rand_complex(rng, 2)
        assert np.allclose(st(kron(x, y)), kron(s(x), t(y)))

    def test_direct_sum_unital(self, rng):
        u1, u2 = rand_unitary(rng, 2), rand_unitary(rng, 3)
        s = conjugation(u1).adjoint().direct_sum(conjugation(u2).adjoint())
        assert s.classify().unital

    def test_cp_preserved_by_amplify_compose(self, rng):
        s = random_cptp(rng, 2)
        assert s.amplify(2).classify().cp
        assert s.compose(random_cptp(rng, 2)).classify().cp


class TestAmplifiedNormOne:
    def test_cptp_amplified_norm_one(self, rng):
        # ‖φ_k‖ = 1 for CPTP φ and k ≤ 3: lower by a density input, upper by ⋄
        from oscat.normlab.diamond import diamond_norm

        s = random_cptp(rng, 2)
        br = diamond_norm(s)
        assert br.upper <= 1 + 1e-6
        for k in (1, 2, 3):
            amp = s.amplify(k)
            rho = np.zeros((2 * k, 2 * k), dtype=complex)
            rho[0, 0] = 1.0
            out = amp(rho)
            assert abs(tr_norm(out) - 1.0) <= 1e-9

    def test_cpu_amplified_norm_one(self, rng):
        from oscat.normlab.diamond import cb_norm

        u = rand_unitary(rng, 2)
        s = conjugation(u).adjoint()
        br = cb_norm(s, "operator")
        assert br.upper <= 1 + 1e-6
        for k in (1, 2, 3):
            amp = s.amplify(k)
            assert abs(op_norm(amp(np.eye(2 * k))) - 1.0) <= 1e-9


class TestFunctionalMaps:
    def test_trace_map_reps(self):
        from oscat.normlab.diamond import cb_norm, diamond_norm, functional_rep

        tm = trace_map((2, 3))
        rep = functional_rep(tm)
        assert all(np.allclose(b, np.eye(k)) for b, k in zip(rep.blocks, (2, 3)))
        assert abs(cb_norm(tm, "operator").upper - 5.0) < 1e-12
        assert abs(diamond_norm(tm).upper - 1.0) < 1e-12


def _array_holders():
    from oscat.osx import M, SpaceElement, canonical_map
    from oscat.vnstruct import make_algebra, make_coalgebra

    return [
        lambda: identity_map((2,)),
        lambda: BlockMatrix.identity((2,)),
        lambda: SpaceElement(M(2), 1, np.eye(2).ravel()),
        lambda: canonical_map("double_dual", M(2)),
        lambda: make_algebra((2,)),
        lambda: make_coalgebra((2,)),
    ]


@pytest.mark.parametrize("make", _array_holders())
def test_array_holders_compare_by_identity(make):
    # ndarray fields: generated == would raise, so equality is identity and
    # value comparison is `allclose`
    a, b = make(), make()
    assert (a == b) is False and a == a
    assert len({a, b, a}) == 2


# multi-block shapes, one with a zero-size block
MULTI_BLOCK = [((2, 1), (1, 2)), ((1, 2), (3,)), ((1, 0, 2), (2,))]


def _random_map(rng, dom, cod) -> SuperOp:
    t = rand_complex(rng, sum(l * l for l in cod), sum(k * k for k in dom))
    return SuperOp.from_action(
        lambda x: BlockMatrix.from_vector(t @ x.to_vector(), cod), dom, cod
    )


def _random_element(rng, shape) -> BlockMatrix:
    return BlockMatrix([rand_complex(rng, k) for k in shape])


def _pairing(x: BlockMatrix, y: BlockMatrix) -> complex:
    return complex(sum(np.trace(a @ b) for a, b in zip(x.blocks, y.blocks)))


class TestMultiBlock:
    @pytest.mark.parametrize("dom,cod", MULTI_BLOCK)
    def test_adjoint_trace_pairing(self, dom, cod, rng):
        s = _random_map(rng, dom, cod)
        sa = s.adjoint()
        assert (sa.dom_shape, sa.cod_shape) == (cod, dom)
        for _ in range(5):
            x, y = _random_element(rng, dom), _random_element(rng, cod)
            assert abs(_pairing(s.apply(x), y) - _pairing(x, sa.apply(y))) < 1e-12

    @pytest.mark.parametrize("dom,cod", MULTI_BLOCK)
    def test_tensor_on_pair_blocks_is_blockwise_kron(self, dom, cod, rng):
        s, t = _random_map(rng, dom, cod), _random_map(rng, cod, (2, 1))
        st = s.tensor(t)
        assert st.dom_shape == tuple(a * b for a in dom for b in cod)
        assert st.cod_shape == tuple(a * b for a in cod for b in (2, 1))
        x, y = _random_element(rng, dom), _random_element(rng, cod)
        got = st.apply(BlockMatrix([np.kron(a, b) for a in x.blocks for b in y.blocks]))
        sx, ty = s.apply(x), t.apply(y)
        want = BlockMatrix([np.kron(a, b) for a in sx.blocks for b in ty.blocks])
        assert got.allclose(want, tol=1e-12)

    @pytest.mark.parametrize("dom,cod", MULTI_BLOCK)
    def test_amplify_matches_per_block_loop(self, dom, cod, rng):
        k = 2
        s = _random_map(rng, dom, cod)
        amp = s.amplify(k)
        assert amp.dom_shape == tuple(k * n for n in dom)
        x = _random_element(rng, amp.dom_shape)
        # entry (u, v) of the M_k matrix over dom is one element of dom
        want = [np.zeros((k * m, k * m), dtype=complex) for m in cod]
        for u in range(k):
            for v in range(k):
                xuv = BlockMatrix(
                    [b.reshape(k, n, k, n)[u, :, v, :] for b, n in zip(x.blocks, dom)]
                )
                for w, y, m in zip(want, s.apply(xuv).blocks, cod):
                    w.reshape(k, m, k, m)[u, :, v, :] = y
        assert amp.apply(x).allclose(BlockMatrix(want), tol=1e-12)

    def test_amplify_past_cap_raises_before_allocating(self):
        with pytest.raises(SizeLimitError):
            identity_map((2,)).amplify(2049)


def _identity_action(shape):
    return SuperOp.from_action(lambda x: x, shape, shape)


def _trace_square(shape):
    t = trace_map(shape)
    return t.adjoint().compose(t)


class TestSizeRule:
    """A transfer matrix holds at most DIM_CAP² entries, checked before allocating."""

    # one-line sessions that would each allocate gigabytes without the rule
    REPROS = [
        "map t = transpose(150);",
        "map t = depolarize(150);",
        "map i = identity([12]);\nmap t = tensor(i, i);",
        "map i = identity([12]);\nmap t = amplify(i, 12);",
    ]

    @pytest.mark.parametrize("text", REPROS)
    def test_repro_is_a_fail_record(self, text):
        import tracemalloc

        from oscat.cli import parse_session, run_session

        tracemalloc.start()
        try:
            rep = run_session(parse_session(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.status for r in rep.records] == ["fail"]
        assert "exceeds 4096^2 entries" in rep.records[0].detail["error"]
        assert peak < 8 * 2**20

    # (map constructor, an input of exactly 16² entries, the next larger input)
    BOUNDARY = [
        (identity_map, (4,), (4, 1)),
        (transpose_map, 4, 5),
        (depolarizing, 4, 5),
        (lambda n: conjugation(np.eye(n)), 4, 5),
        (trace_map, (16,), (16, 1)),
        (_identity_action, (4,), (4, 1)),
        (_trace_square, (4,), (4, 1)),
        (lambda s: identity_map((2,)).tensor(identity_map(s)), (2,), (2, 1)),
        (lambda k: identity_map((2,)).amplify(k), 2, 3),
        (lambda s: identity_map((2, 2, 2)).direct_sum(identity_map(s)), (2,), (2, 1)),
    ]

    @pytest.mark.parametrize("build,fits,too_big", BOUNDARY)
    def test_boundary(self, build, fits, too_big, monkeypatch):
        import oscat.supop as supop

        monkeypatch.setattr(supop, "DIM_CAP", 16)
        assert build(fits).transfer.size == 16 * 16
        with pytest.raises(SizeLimitError, match=r"exceeds 16\^2 entries"):
            build(too_big)

    def test_choi_repro_is_a_fail_record(self):
        # an 8192 × 4 transfer matrix whose Choi matrix would be 8192 × 8192 (1 GiB)
        ones = ",".join(["1"] * 2048)
        text = f"map i = identity([2]);\nmap t = trace([{ones}]);\nmap a = adjoint(t);\n"
        self.test_repro_is_a_fail_record(text + "map x = tensor(i, a);\nnorm diamond x;")

    def test_choi_boundary(self, monkeypatch):
        # big_choi has (ΣL·ΣK)² entries, more than the transfer matrix of a block map
        import oscat.supop as supop

        monkeypatch.setattr(supop, "DIM_CAP", 6)
        assert SuperOp((1, 1), (2, 1), np.zeros((5, 2))).big_choi().shape == (6, 6)
        assert SuperOp((2,), (3,), np.zeros((9, 4))).big_choi().shape == (6, 6)
        with pytest.raises(SizeLimitError, match=r"Choi matrix 8x8 exceeds 6\^2 entries"):
            SuperOp((1, 1), (2, 2), np.zeros((8, 2))).big_choi()
