import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscat.errors import InvalidInputError, ShapeMismatchError, SizeLimitError
from oscat.matcore import (
    BlockMatrix,
    axis_perm,
    block_norms,
    cmatrix,
    direct_sum,
    format_matrix_literal,
    herm_eig,
    kron,
    op_norm,
    parse_matrix_literal,
    psd_check,
    rand_complex,
    rand_hermitian,
    rand_unitary,
    tr_norm,
)


def _mat(seed, n, m=None):
    return rand_complex(np.random.default_rng(seed), n, m)


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(2)) == 1.0

    def test_diagonal_max_modulus(self):
        assert abs(op_norm(np.diag([3, -4j])) - 4.0) < 1e-12

    def test_unitary_is_one(self, rng):
        for n in (2, 3, 5):
            assert abs(op_norm(rand_unitary(rng, n)) - 1.0) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            op_norm([[np.nan, 0], [0, 1]])
        with pytest.raises(InvalidInputError):
            op_norm([[np.inf]])

    @pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.inf), np.inf])
    def test_cmatrix_rejects_each_non_finite_part(self, bad):
        with pytest.raises(InvalidInputError):
            cmatrix([[1, bad], [0, 1]])

    @pytest.mark.parametrize("shape", [(3, 3), (2, 5), (5, 2), (1, 4), (4, 1)])
    def test_bit_identical_to_numpy_two_norm(self, shape, rng):
        a = rand_complex(rng, *shape)
        assert op_norm(a) == float(np.linalg.norm(a, 2))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_is_zero(self, shape):
        assert op_norm(np.zeros(shape)) == 0.0


class TestBlockNorms:
    @pytest.mark.parametrize("shape", [(2,), (2, 1), (1, 0, 3), (0,), ()])
    def test_columns_match_block_matrix_norms(self, shape, rng):
        d = sum(k * k for k in shape)
        cols = rand_complex(rng, d, 4)
        elems = [BlockMatrix.from_vector(c, shape) for c in cols.T]
        op = block_norms(cols, shape, "operator")
        tr = block_norms(cols, shape, "trace")
        assert np.allclose(op, [x.op_norm() for x in elems], rtol=1e-14, atol=0)
        assert np.allclose(tr, [x.tr_norm() for x in elems], rtol=1e-14, atol=0)


class TestTrNorm:
    def test_zero(self):
        assert tr_norm(np.zeros((3, 3))) == 0.0

    def test_unitary_is_n(self, rng):
        for n in (2, 3, 4):
            assert abs(tr_norm(rand_unitary(rng, n)) - n) < 1e-10

    def test_rank_one_unit(self):
        # e_01 in M_2 has a single singular value 1
        e01 = np.zeros((2, 2))
        e01[0, 1] = 1.0
        assert abs(tr_norm(e01) - 1.0) < 1e-14

    def test_rectangular(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert abs(tr_norm(a) - 3.0) < 1e-12


class TestPsdCheck:
    def test_identity_psd(self):
        assert psd_check(np.eye(3)).kind == "psd"

    def test_explicit_spectrum(self):
        v = psd_check(np.diag([1.0, -1.0]))
        assert v.kind == "not_psd" and abs(v.diagnostic + 1.0) < 1e-12

    def test_gram_construction(self, rng):
        for _ in range(20):
            a = rand_complex(rng, 4)
            assert psd_check(a.conj().T @ a)

    def test_non_hermitian_flagged(self):
        v = psd_check(np.array([[0, 1], [0, 0]], dtype=complex))
        assert v.kind == "not_hermitian" and v.diagnostic > 0.5


class TestKron:
    def test_scalar_unit(self, rng):
        b = rand_complex(rng, 3)
        assert np.allclose(kron(np.eye(1), b), b)

    def test_index_bookkeeping(self):
        e00 = np.zeros((2, 2))
        e00[0, 0] = 1
        e11 = np.zeros((2, 2))
        e11[1, 1] = 1
        out = kron(e00, e11)
        want = np.zeros((4, 4))
        want[1, 1] = 1  # position (0*2+1, 0*2+1)
        assert np.allclose(out, want)

    def test_unitary_multiplicative(self, rng):
        u, v = rand_unitary(rng, 3), rand_unitary(rng, 2)
        assert abs(op_norm(kron(u, v)) - 1.0) < 1e-12

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            kron(np.eye(100), np.eye(100))


class TestAxisPerm:
    @pytest.mark.parametrize("da,db", [(1, 1), (2, 3), (4, 2), (0, 3)])
    def test_swap(self, da, db):
        # flip A⊗B → B⊗A: e_a⊗e_b ↦ e_b⊗e_a
        want = np.zeros((da * db, da * db))
        for a in range(da):
            for b in range(db):
                want[b * da + a, a * db + b] = 1.0
        assert np.array_equal(np.eye(da * db)[axis_perm((da, db), (1, 0))], want)

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (1, 2, 3, 2), (3, 1, 2, 4)])
    def test_shuffle(self, dims):
        # (A⊗B)⊗(C⊗D) → (A⊗C)⊗(B⊗D)
        da, db, dc, dd = dims
        n = da * db * dc * dd
        want = np.zeros((n, n))
        for ia in range(da):
            for ib in range(db):
                for ic in range(dc):
                    for id_ in range(dd):
                        src = ((ia * db + ib) * dc + ic) * dd + id_
                        dst = ((ia * dc + ic) * db + ib) * dd + id_
                        want[dst, src] = 1.0
        assert np.array_equal(np.eye(n)[axis_perm(dims, (0, 2, 1, 3))], want)

    def test_index_form_matches_reshape(self, rng):
        v = rand_complex(rng, 1, 24).ravel()
        p = axis_perm((2, 3, 4), (2, 0, 1))
        assert np.array_equal(v[p], v.reshape(2, 3, 4).transpose(2, 0, 1).ravel())


class TestHermEig:
    def test_reconstruction(self, rng):
        for n in (2, 5, 9):
            a = rand_hermitian(rng, n)
            w, v = herm_eig(a)
            err = op_norm(a - v @ np.diag(w) @ v.conj().T)
            assert err <= 1e-10 * max(op_norm(a), 1e-300)


class TestBlockMatrix:
    def test_direct_sum_norm_is_max(self, rng):
        # axiom (M1): ‖x ⊕ y‖ = max(‖x‖, ‖y‖)
        for _ in range(20):
            x, y = rand_complex(rng, 2), rand_complex(rng, 3)
            b = BlockMatrix([x, y])
            assert abs(b.op_norm() - max(op_norm(x), op_norm(y))) < 1e-12
            assert abs(op_norm(direct_sum(x, y)) - b.op_norm()) < 1e-12

    def test_zero_blocks_allowed(self):
        b = BlockMatrix([np.zeros((0, 0)), np.eye(2)])
        assert b.shape == (0, 2) and abs(b.op_norm() - 1) < 1e-15

    def test_vector_roundtrip(self, rng):
        b = BlockMatrix([rand_complex(rng, 2), rand_complex(rng, 3)])
        assert b.allclose(BlockMatrix.from_vector(b.to_vector(), b.shape), tol=0)

    def test_rectangular_blocks_rejected(self):
        with pytest.raises(ShapeMismatchError):
            BlockMatrix([np.zeros((2, 3))])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 5), m=st.integers(1, 5))
def test_scaling_axiom_m2(seed, n, m):
    # ‖α x β‖ ≤ ‖α‖ ‖x‖ ‖β‖ for scalar matrices α, β
    r = np.random.default_rng(seed)
    alpha, x, beta = rand_complex(r, n, m), rand_complex(r, m, m), rand_complex(r, m, n)
    assert op_norm(alpha @ x @ beta) <= op_norm(alpha) * op_norm(x) * op_norm(beta) + 1e-9


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 6))
def test_trace_norm_dominates(seed, n):
    a = _mat(seed, n)
    assert tr_norm(a) >= op_norm(a) - 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 5))
def test_trace_norm_equality_iff_rank_one(seed, n):
    r = np.random.default_rng(seed)
    u, v = rand_complex(r, n, 1), rand_complex(r, 1, n)
    rank1 = u @ v
    assert abs(tr_norm(rank1) - op_norm(rank1)) < 1e-10
    rank2 = u @ v + rand_complex(r, n, 1) @ rand_complex(r, 1, n)
    s = np.linalg.svd(rank2, compute_uv=False)
    if s[1] > 1e-8:  # genuinely rank ≥ 2
        assert tr_norm(rank2) > op_norm(rank2) + s[1] / 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 5))
def test_trace_duality_inequality(seed, n):
    # |tr(ab)| ≤ ‖a‖_tr ‖b‖
    r = np.random.default_rng(seed)
    a, b = rand_complex(r, n), rand_complex(r, n)
    assert abs(np.trace(a @ b)) <= tr_norm(a) * op_norm(b) + 1e-9


class TestMatrixLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("[[1]]", [[1]]),
            ("[[1+2i, -3], [0.5i, 2-1e-3i]]", [[1 + 2j, -3], [0.5j, 2 - 0.001j]]),
            ("[[-i, +i], [i, 0]]", [[-1j, 1j], [1j, 0]]),
            ("[1, 2, 3]", [[1, 2, 3]]),
        ],
    )
    def test_parse(self, text, value):
        assert np.allclose(parse_matrix_literal(text), np.array(value))

    def test_roundtrip(self, rng):
        for _ in range(10):
            a = rand_complex(rng, 3, 2)
            assert np.allclose(parse_matrix_literal(format_matrix_literal(a)), a)

    @pytest.mark.parametrize("bad", ["", "[", "[[1,2],[3]]", "[[1 2]]", "[[x]]", "1,2"])
    def test_malformed(self, bad):
        with pytest.raises(InvalidInputError):
            parse_matrix_literal(bad)
