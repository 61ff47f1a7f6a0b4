import numpy as np
import pytest

import oscat.normlab.sdp as sdp_mod
from oscat.errors import InvalidInputError, ShapeMismatchError, SizeLimitError
from oscat.matcore import op_norm, rand_complex
from oscat.normlab.sdp import (
    LMI_TRIPLE,
    HermBasis,
    SdpProblem,
    lmi_triples,
    sdp_solve,
)


def real_embed_herm(h: np.ndarray) -> np.ndarray:
    """Complex Hermitian (or general) H = A+iB ↦ [[A, -B], [B, A]].

    For Hermitian H the image is symmetric with the same spectrum, doubled;
    the tests use it to state complex problems in real arithmetic.
    """
    a, b = h.real, h.imag
    return np.block([[a, -b], [b, a]])


def herm_basis_stack(hb: HermBasis) -> np.ndarray:
    """The (n², n, n) stack of basis matrices, built from the index triples."""
    mats = np.zeros((len(hb), hb.n, hb.n), dtype=np.complex128)
    mats[hb.param, hb.row, hb.col] = hb.val
    return mats


def lmi_opnorm_problem(a):
    """‖a‖ = min t s.t. [[tI, a], [a*, tI]] ⪰ 0 — an independent SDP route.

    Stated around t₀ = ‖a‖_F + 1 > ‖a‖, so that F0 = [[t₀I, a], [a*, t₀I]] is
    positive definite: the variable is t − t₀, and ‖a‖ = value + t₀.
    Returns (problem, t₀).
    """
    n, m = a.shape
    t0 = float(np.linalg.norm(a)) + 1.0
    blk0 = t0 * np.eye(n + m, dtype=complex)
    blk0[:n, n:] = a
    blk0[n:, :n] = a.conj().T
    f0 = [real_embed_herm(blk0)]
    fs = [real_embed_herm(np.eye(n + m)).reshape(1, 2 * (n + m), 2 * (n + m))]
    return SdpProblem(c=np.array([1.0]), f0=f0, fs=fs), t0


class TestSolver:
    def test_eigenvalue_lp(self):
        # min y s.t. diag(-1, -2) + y·I ⪰ 0 is 2; around t₀ = ‖diag(-1, -2)‖_F + 1
        # the variable is y − t₀ and F0 = diag(-1, -2) + t₀·I ≻ 0
        t0 = np.sqrt(5.0) + 1.0
        res = sdp_solve(
            SdpProblem(
                c=np.array([1.0]),
                f0=[np.diag([-1.0, -2.0]) + t0 * np.eye(2)],
                fs=[np.eye(2).reshape(1, 2, 2)],
            )
        )
        assert res.status == "optimal"
        assert abs(res.value + t0 - 2.0) < 1e-6
        assert res.gap <= 1e-7 * (1 + abs(res.value))

    def test_max_trace(self, rng):
        # max Re tr(h·ρ) over 2×2 density matrices is λ_max(h).  In trace-one
        # coordinates ρ = I/2 + Σ tⱼ·Bⱼ with B = E00 − E11 and the two
        # off-diagonal HermBasis(2) matrices, so F0 = I/2 and no equality
        # remains; the objective is −Σ tⱼ·Re tr(h·Bⱼ) and the constant tr(h)/2.
        hb = HermBasis(2)
        herm = herm_basis_stack(hb)
        basis = np.array([herm[0] - herm[1], herm[2], herm[3]])
        a = rand_complex(rng, 2)
        h = a + a.conj().T
        c = -np.einsum("ab,jba->j", h, basis).real
        res = sdp_solve(
            SdpProblem(
                c=c,
                f0=[real_embed_herm(np.eye(2) / 2)],
                fs=[np.array([real_embed_herm(b) for b in basis])],
            )
        )
        assert res.status == "optimal", res.message
        assert abs(np.trace(h).real / 2 - res.value - np.linalg.eigvalsh(h)[-1]) < 1e-6

    @pytest.mark.parametrize(
        "f0",
        [-np.eye(2), np.zeros((2, 2)), np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]])],
    )
    def test_f0_not_positive_definite_raises(self, f0):
        # y = 0 must be strictly feasible: the solver has no other start
        p = SdpProblem(c=np.array([1.0]), f0=[np.eye(3), f0], fs=[np.zeros((1, 3, 3)), np.eye(2).reshape(1, 2, 2)])
        with pytest.raises(InvalidInputError, match="F0 of block 1"):
            sdp_solve(p)

    def test_opnorm_matches_svd(self, rng):
        # dual-route check: the solver against the LAPACK SVD oracle
        worst = 0.0
        for _ in range(20):
            a = rand_complex(rng, 3)
            p, t0 = lmi_opnorm_problem(a)
            res = sdp_solve(p)
            assert res.status == "optimal", res.message
            # the certified ends enclose the oracle value
            assert res.dual_value + t0 <= op_norm(a) + 1e-12 <= res.value + t0 + 2e-12
            worst = max(worst, abs(res.value + t0 - op_norm(a)))
        assert worst < 1e-7

    def test_dual_certificate_is_feasible(self, rng):
        a = rand_complex(rng, 2)
        p, _ = lmi_opnorm_problem(a)
        res = sdp_solve(p)
        # Z ⪰ 0 and tr(Fi Z) = c_i exactly define the reported gap; the dual
        # block is complex Hermitian, so the pairings are Re tr(F·Z)
        z = res.dual_blocks[0]
        assert np.linalg.eigvalsh(z)[0] >= -1e-12
        lhs = np.trace(p.fs[0][0] @ z).real
        assert abs(lhs - 1.0) < 1e-8
        dual_val = -np.trace(p.f0[0] @ z).real
        assert abs((res.value - dual_val) - res.gap) < 1e-9

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            SdpProblem(
                c=np.array([1.0]),
                f0=[np.zeros((600, 600))],
                fs=[np.zeros((1, 600, 600))],
            )

    def test_determinism(self, rng):
        a = rand_complex(rng, 3)
        r1 = sdp_solve(lmi_opnorm_problem(a)[0])
        r2 = sdp_solve(lmi_opnorm_problem(a)[0])
        assert r1.value == r2.value and r1.gap == r2.gap


def random_sparse_lmi(rng, m=6, sizes=(5, 3, 0), zero_con=2, cplx=False):
    """Dense Fi stacks and the same data as triples, with split duplicates.

    Every Fi is symmetric (Hermitian with `cplx`) and sparse; constraint
    `zero_con` is all zero, the last block has size 0, and each off-diagonal
    nonzero is given as two triples whose values sum to it (the mirror of v
    is v̄).  Values are small dyadic numbers, so the sums are exact and both
    forms hold the same matrices bit for bit; the triples come in shuffled
    order.
    """
    dense, trips = [], []
    for n in sizes:
        fs = np.zeros((m, n, n), dtype=np.complex128 if cplx else np.float64)
        con, row, col, val = [], [], [], []
        for i in range(m):
            if i == zero_con or n == 0:
                continue
            for _ in range(3):
                r, c = rng.integers(n, size=2)
                v = rng.integers(1, 9) * rng.choice([-1.0, 1.0]) / 4
                if cplx and r != c:
                    v = v + 1j * rng.integers(-8, 9) / 4
                fs[i, r, c] += v
                if r != c:
                    fs[i, c, r] += np.conj(v)
                    # the mirror entry in two halves: duplicate (i, c, r) triples
                    con += [i, i, i]
                    row += [r, c, c]
                    col += [c, r, r]
                    val += [v, 0.25 * np.conj(v), 0.75 * np.conj(v)]
                else:
                    con.append(i)
                    row.append(r)
                    col.append(c)
                    val.append(v)
        dense.append(fs)
        order = rng.permutation(len(val))
        trips.append(lmi_triples(*(np.array(a)[order] for a in (con, row, col, val))))
    return dense, trips


def box_problem(rng, fs, f0, m=6):
    """min c·y over S(y) ⪰ 0 and the box |yᵢ| ≤ 1 (as a diagonal block)."""
    box_con = np.repeat(np.arange(m), 2)
    box_idx = np.arange(2 * m)
    box = lmi_triples(box_con, box_idx, box_idx, np.tile([1.0, -1.0], m))
    dense_box = np.zeros((m, 2 * m, 2 * m))
    dense_box[box_con, box_idx, box_idx] = np.tile([1.0, -1.0], m)
    c = rng.standard_normal(m)
    return c, f0 + [np.eye(2 * m)], box, dense_box


class TestSparseCore:
    def test_schur_matches_dense_formulas(self, rng):
        # real symmetric Fᵢ, then complex Hermitian ones, against dense einsums
        for cplx in (False, True):
            dense, trips = random_sparse_lmi(rng, cplx=cplx)
            f0 = [4.0 * np.eye(f.shape[1]) for f in dense]
            p = SdpProblem(c=np.zeros(6), f0=f0, fs=trips)
            y = 0.1 * rng.standard_normal(6)
            for blk, fs, f0b in zip(p.blocks, dense, f0):
                s = f0b + np.einsum("i,iab->ab", y, fs)
                assert np.allclose(blk.s(y), s, rtol=0, atol=1e-14)
                assert np.array_equal(blk.s(y), blk.s(y).conj().T)
                w = rng.standard_normal(6)
                assert np.allclose(blk.lin(w), np.einsum("i,iab->ab", w, fs), rtol=0, atol=1e-14)
                if blk.n == 0:
                    g, h = blk.grad_hess(np.zeros((0, 0)), np.zeros((0, 0)))
                    assert np.array_equal(g, np.zeros(6)) and np.array_equal(h, np.zeros((6, 6)))
                    continue
                sinv = np.linalg.inv(s)
                sinv = (sinv + sinv.conj().T) / 2
                g, h = blk.grad_hess(sinv, sinv)
                g_ref = np.einsum("ab,iba->i", sinv, fs).real
                h_ref = np.einsum("ab,ibc,cd,jda->ij", sinv, fs, sinv, fs).real
                assert np.allclose(g, g_ref, rtol=0, atol=1e-13)
                assert np.allclose(h, h_ref, rtol=0, atol=1e-13)
                assert not h[2].any() and not h[:, 2].any()  # the all-zero constraint
                z = sinv + 0.5 * np.eye(blk.n)
                assert np.allclose(blk.traces(z), np.einsum("iab,ba->i", fs, z).real, rtol=0, atol=1e-13)
                # the primal-dual Newton matrix Re tr(Fᵢ Z Fⱼ S⁻¹) for a Z ≠ S⁻¹
                a = rng.standard_normal((blk.n, blk.n)) + (1j * rng.standard_normal((blk.n, blk.n)) if cplx else 0)
                z = a @ a.conj().T + np.eye(blk.n)
                g, h = blk.grad_hess(sinv, z)
                assert np.allclose(g, g_ref, rtol=0, atol=1e-13)
                h_ref = np.einsum("ab,ibc,cd,jda->ij", z, fs, sinv, fs).real
                assert np.allclose(h, h_ref, rtol=0, atol=1e-12)
                assert np.array_equal(h, h.T)

    def test_newton_matrix_over_slabs(self, rng, monkeypatch):
        # a byte budget that splits the 5×5 block's 6 constraints into 3 slabs
        # and the 3×3 block's into 2 must not change the Newton matrix
        dense, trips = random_sparse_lmi(rng, cplx=True)
        f0 = [4.0 * np.eye(f.shape[1]) for f in dense]
        one = SdpProblem(c=np.zeros(6), f0=f0, fs=trips)
        monkeypatch.setattr(sdp_mod, "_SLAB_ENTRIES", 50)
        many = SdpProblem(c=np.zeros(6), f0=f0, fs=trips)
        assert [len(b.slabs) for b in one.blocks] == [1, 1, 1]
        assert [len(b.slabs) for b in many.blocks] == [3, 2, 1]
        y = 0.1 * rng.standard_normal(6)
        for b1, bm in zip(one.blocks, many.blocks):
            sinv = np.linalg.inv(b1.s(y))
            sinv = (sinv + sinv.conj().T) / 2
            z = sinv + 0.25 * np.eye(b1.n)
            (g1, h1), (gm, hm) = b1.grad_hess(sinv, z), bm.grad_hess(sinv, z)
            assert np.array_equal(g1, gm)
            assert np.allclose(hm, h1, rtol=0, atol=1e-12)

    def test_dense_and_triple_inputs_identical(self, rng):
        dense, trips = random_sparse_lmi(rng)
        f0 = [np.eye(f.shape[1]) for f in dense]
        c, f0_all, box, dense_box = box_problem(rng, dense, f0)
        r_dense = sdp_solve(SdpProblem(c=c, f0=list(f0_all), fs=dense + [dense_box]))
        r_trip = sdp_solve(SdpProblem(c=c, f0=list(f0_all), fs=trips + [box]))
        assert r_dense.status == "optimal", r_dense.message
        for name in ("status", "value", "gap", "dual_value", "iterations", "message"):
            assert getattr(r_dense, name) == getattr(r_trip, name), name
        assert np.array_equal(r_dense.y, r_trip.y)
        assert all(np.array_equal(a, b) for a, b in zip(r_dense.dual_blocks, r_trip.dual_blocks))

    @pytest.mark.parametrize("left", ["z", "barrier"])
    def test_certificate_meets_equalities(self, rng, left):
        # Z_c = X + sym(X·Lin(w)·S⁻¹) with M w = c − tr(F·X), for the iterate's
        # Z and for the barrier-metric fallback X = μS⁻¹
        dense, trips = random_sparse_lmi(rng)
        f0 = [4.0 * np.eye(f.shape[1]) for f in dense]
        p = SdpProblem(c=np.zeros(6), f0=f0, fs=trips)
        y = 0.1 * rng.standard_normal(6)
        sinvs = [np.linalg.inv(blk.s(y)) for blk in p.blocks]
        xs = [0.3 * si if left == "barrier" else si + 0.1 * np.eye(si.shape[0]) for si in sinvs]
        mat = sum(blk.grad_hess(si, x)[1] for blk, si, x in zip(p.blocks, sinvs, xs))
        tx = sum(blk.traces(x) for blk, x in zip(p.blocks, xs))
        # a small dual residual; c₂ stays 0, the only value the all-zero F₂ can meet
        c = tx + 1e-3 * rng.standard_normal(6)
        c[2] = 0.0
        mat[2, 2] = 1.0
        w = np.linalg.solve(mat, c - tx)
        zcs, dual = sdp_mod._certificate(c, p.blocks, sinvs, xs, w, -np.inf)
        got = sum(np.einsum("iab,ba->i", fs, zc) for fs, zc in zip(dense, zcs))
        assert np.allclose(got, c, rtol=0, atol=1e-12)
        # the core's pairing of Hermitian blocks: Re tr(F0·Z_c) = Re Σ conj(F0)·Z_c
        assert dual == -sum(float(np.vdot(f, zc).real) for f, zc in zip(f0, zcs))
        # a dual value at or below the floor is not certified
        assert sdp_mod._certificate(c, p.blocks, sinvs, xs, w, dual) is None

    def test_crossed_certificate_ends_solve(self, rng, monkeypatch):
        # a certificate whose dual value exceeds an attained primal value has
        # rounding beyond its tolerances: it is dropped and the path stops
        # there, leaving one try of the barrier-metric fallback
        dense, trips = random_sparse_lmi(rng, cplx=True)
        c, f0_all, box, _ = box_problem(rng, dense, [np.eye(f.shape[1]) for f in dense])
        certificate, calls = sdp_mod._certificate, []

        def crossing_once(*args):
            cert = certificate(*args)
            calls.append(cert is not None)
            if cert is not None and calls.count(True) == 1:
                return cert[0], cert[1] + 1.0
            return cert

        monkeypatch.setattr(sdp_mod, "_certificate", crossing_once)
        res = sdp_solve(SdpProblem(c=c, f0=f0_all, fs=trips + [box]))
        assert True in calls and len(calls) == calls.index(True) + 2
        assert res.status in ("optimal", "numerical_failure")
        assert res.status == "numerical_failure" or res.dual_value <= res.value

    def test_caller_fs_kept(self, rng):
        dense, trips = random_sparse_lmi(rng)
        p = SdpProblem(c=np.zeros(6), f0=[np.eye(f.shape[1]) for f in dense], fs=trips)
        assert all(f is t for f, t in zip(p.fs, trips))
        assert all(f.dtype == LMI_TRIPLE for f in p.fs)

    def test_triple_index_out_of_range(self):
        with pytest.raises(ShapeMismatchError):
            SdpProblem(c=np.zeros(1), f0=[np.eye(2)], fs=[lmi_triples([0], [2], [0], [1.0])])
        with pytest.raises(ShapeMismatchError):
            SdpProblem(c=np.zeros(1), f0=[np.eye(2)], fs=[lmi_triples([1], [0], [0], [1.0])])


def loop_herm_mats(n):
    """The basis matrices one at a time, in parameter order."""
    mats = []
    for p in range(n):
        m = np.zeros((n, n), dtype=np.complex128)
        m[p, p] = 1.0
        mats.append(m)
    for p in range(n):
        for q in range(p + 1, n):
            m = np.zeros((n, n), dtype=np.complex128)
            m[p, q] = m[q, p] = 1.0
            mats.append(m)
            m = np.zeros((n, n), dtype=np.complex128)
            m[p, q] = -1j
            m[q, p] = 1j
            mats.append(m)
    return mats


class TestHermBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_loop_reference(self, n):
        hb = HermBasis(n)
        mats = loop_herm_mats(n)
        assert len(hb) == len(mats) == n * n
        assert np.array_equal(herm_basis_stack(hb), np.array(mats))
