import os
import subprocess
import sys
from pathlib import Path

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


def dense_triples(fs: np.ndarray) -> np.ndarray:
    """The LMI_TRIPLE array of the nonzeros of a dense (m, n, n) stack F1..Fm."""
    con, row, col = np.nonzero(fs)
    return lmi_triples(con, row, col, fs[con, row, col])


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
    f0 = real_embed_herm(blk0)
    fs = dense_triples(real_embed_herm(np.eye(n + m)).reshape(1, 2 * (n + m), 2 * (n + m)))
    return SdpProblem(c=np.array([1.0]), f0=f0, fs=fs), t0


class TestSolver:
    def test_eigenvalue_lp(self):
        # min y s.t. diag(-1, -2) + y·I ⪰ 0 is 2; around t₀ = ‖diag(-1, -2)‖_F + 1
        # the variable is y − t₀ and F0 = diag(-1, -2) + t₀·I ≻ 0
        t0 = np.sqrt(5.0) + 1.0
        res = sdp_solve(
            SdpProblem(
                c=np.array([1.0]),
                f0=np.diag([-1.0, -2.0]) + t0 * np.eye(2),
                fs=dense_triples(np.eye(2).reshape(1, 2, 2)),
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
                f0=real_embed_herm(np.eye(2) / 2),
                fs=dense_triples(np.array([real_embed_herm(b) for b in basis])),
            )
        )
        assert res.status == "optimal", res.message
        assert abs(np.trace(h).real / 2 - res.value - np.linalg.eigvalsh(h)[-1]) < 1e-6

    @pytest.mark.parametrize(
        "f0",
        [-np.eye(2), np.zeros((2, 2)), np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]])],
    )
    def test_f0_not_positive_definite_raises(self, f0):
        # y = 0 must be strictly feasible: the solver has no other start; the
        # bad part sits beside a positive definite diagonal block I₃
        full = np.zeros((5, 5))
        full[:3, :3], full[3:, 3:] = np.eye(3), f0
        fs = np.zeros((1, 5, 5))
        fs[0, 3:, 3:] = np.eye(2)
        p = SdpProblem(c=np.array([1.0]), f0=full, fs=dense_triples(fs))
        with pytest.raises(InvalidInputError, match="F0 is not positive definite"):
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
        z = res.dual_z
        assert np.linalg.eigvalsh(z)[0] >= -1e-12
        # tr(F1·Z) from the caller's triples of F1, independently of the core
        assert np.all(p.fs["con"] == 0)
        lhs = np.sum(p.fs["val"] * z[p.fs["col"], p.fs["row"]]).real
        assert abs(lhs - 1.0) < 1e-8
        dual_val = -np.trace(p.f0 @ z).real
        assert abs((res.value - dual_val) - res.gap) < 1e-9

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            SdpProblem(
                c=np.array([1.0]),
                f0=np.zeros((600, 600)),
                fs=dense_triples(np.zeros((1, 600, 600))),
            )

    def test_empty_lmi(self):
        # no constraint: min c·y is unbounded below for c ≠ 0 and 0 for c = 0
        empty = lmi_triples([], [], [], [])
        res = sdp_solve(SdpProblem(c=np.array([1.0]), f0=np.zeros((0, 0)), fs=empty))
        assert res.status == "numerical_failure"
        assert res.message.startswith("unbounded")
        res = sdp_solve(SdpProblem(c=np.array([0.0]), f0=np.zeros((0, 0)), fs=empty))
        assert res.status == "optimal" and res.value == 0.0 and res.gap == 0.0

    def test_determinism(self, rng):
        a = rand_complex(rng, 3)
        r1 = sdp_solve(lmi_opnorm_problem(a)[0])
        r2 = sdp_solve(lmi_opnorm_problem(a)[0])
        assert r1.value == r2.value and r1.gap == r2.gap


def random_sparse_lmi(rng, n, m=6, zero_con=2, cplx=False):
    """A dense Fi stack of one block of size n and the same data as triples, with split duplicates.

    Every Fi is symmetric (Hermitian with `cplx`) and sparse; constraint
    `zero_con` is all zero, and each off-diagonal nonzero is given as two
    triples whose values sum to it (the mirror of v is v̄).  Values are small
    dyadic numbers, so the sums are exact and both forms hold the same
    matrices bit for bit; the triples come in shuffled order.
    """
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
    order = rng.permutation(len(val))
    return fs, lmi_triples(*(np.array(a)[order] for a in (con, row, col, val)))


def box_problem(f0, trips, m=6):
    """S(y) ⪰ 0 and the box |yᵢ| ≤ 1 on the diagonal of the same block: (F0, triples).

    The box takes rows and columns n..n+2m, and F0 = diag(f0, I).
    """
    n = f0.shape[0]
    box_con = np.repeat(np.arange(m), 2)
    box_idx = n + np.arange(2 * m)
    box = lmi_triples(box_con, box_idx, box_idx, np.tile([1.0, -1.0], m))
    f0_all = np.eye(n + 2 * m)
    f0_all[:n, :n] = f0
    return f0_all, np.concatenate([trips, box])


SIZES = [5, 3, 0]


class TestSparseCore:
    @pytest.mark.parametrize("n", SIZES)
    def test_schur_matches_dense_formulas(self, rng, n):
        # real symmetric Fᵢ, then complex Hermitian ones, against dense einsums
        for cplx in (False, True):
            fs, trips = random_sparse_lmi(rng, n, cplx=cplx)
            f0 = 4.0 * np.eye(n)
            blk = SdpProblem(c=np.zeros(6), f0=f0, fs=trips).block
            y = 0.1 * rng.standard_normal(6)
            s = f0 + np.einsum("i,iab->ab", y, fs)
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

    @pytest.mark.parametrize("n, slabs", [(5, 3), (3, 2), (0, 1)])
    def test_newton_matrix_over_slabs(self, rng, monkeypatch, n, slabs):
        # a byte budget that splits the 6 constraints of a 5×5 block into 3
        # slabs and of a 3×3 block into 2 must not change the Newton matrix
        _, trips = random_sparse_lmi(rng, n, cplx=True)
        f0 = 4.0 * np.eye(n)
        one = SdpProblem(c=np.zeros(6), f0=f0, fs=trips).block
        monkeypatch.setattr(sdp_mod, "_SLAB_ENTRIES", 50)
        many = SdpProblem(c=np.zeros(6), f0=f0, fs=trips).block
        assert len(one.slabs) == 1
        assert len(many.slabs) == slabs
        y = 0.1 * rng.standard_normal(6)
        sinv = np.linalg.inv(one.s(y))
        sinv = (sinv + sinv.conj().T) / 2
        z = sinv + 0.25 * np.eye(n)
        (g1, h1), (gm, hm) = one.grad_hess(sinv, z), many.grad_hess(sinv, z)
        assert np.array_equal(g1, gm)
        assert np.allclose(hm, h1, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", SIZES)
    def test_shuffled_and_canonical_triples_identical(self, rng, n):
        # shuffled triples with split duplicates, and the canonical triples of
        # the same dense stack, are one problem: bit-identical results
        fs, trips = random_sparse_lmi(rng, n)
        f0_all, shuffled = box_problem(np.eye(n), trips)
        _, canonical = box_problem(np.eye(n), dense_triples(fs))
        c = rng.standard_normal(6)
        r_canon = sdp_solve(SdpProblem(c=c, f0=f0_all, fs=canonical))
        r_trip = sdp_solve(SdpProblem(c=c, f0=f0_all, fs=shuffled))
        assert r_canon.status == "optimal", r_canon.message
        for name in ("status", "value", "gap", "dual_value", "iterations", "message"):
            assert getattr(r_canon, name) == getattr(r_trip, name), name
        assert np.array_equal(r_canon.y, r_trip.y)
        assert np.array_equal(r_canon.dual_z, r_trip.dual_z)

    @pytest.mark.parametrize("left", ["z", "barrier"])
    def test_certificate_meets_equalities(self, rng, left):
        # Z_c = X + sym(X·Lin(w)·S⁻¹) with M w = c − tr(F·X), for the iterate's
        # Z and for the barrier-metric fallback X = μS⁻¹, at every block size
        for n in SIZES:
            fs, trips = random_sparse_lmi(rng, n)
            f0 = 4.0 * np.eye(n)
            blk = SdpProblem(c=np.zeros(6), f0=f0, fs=trips).block
            y = 0.1 * rng.standard_normal(6)
            sinv = np.linalg.inv(blk.s(y))
            x = 0.3 * sinv if left == "barrier" else sinv + 0.1 * np.eye(n)
            mat = blk.grad_hess(sinv, x)[1]
            tx = blk.traces(x)
            # a small dual residual; the cᵢ of an all-zero Fᵢ (F₂, and every Fᵢ
            # of the empty block) stay 0, the only value it can meet
            c = tx + 1e-3 * rng.standard_normal(6)
            idle = np.flatnonzero(np.diagonal(mat) == 0)
            assert 2 in idle
            c[idle] = 0.0
            mat[idle, idle] = 1.0
            w = np.linalg.solve(mat, c - tx)
            zc, dual = sdp_mod._certificate(c, blk, sinv, x, w, -np.inf)
            got = np.einsum("iab,ba->i", fs, zc)
            assert np.allclose(got, c, rtol=0, atol=1e-12)
            # the core's pairing of Hermitian blocks: Re tr(F0·Z_c) = Re Σ conj(F0)·Z_c
            assert dual == -float(np.vdot(f0, zc).real)
            # a dual value at or below the floor is not certified
            assert sdp_mod._certificate(c, blk, sinv, x, w, dual) is None

    def test_crossed_certificate_ends_solve(self, rng, monkeypatch):
        # a certificate whose dual value exceeds an attained primal value has
        # rounding beyond its tolerances: it is dropped and the path stops
        # there, leaving one try of the barrier-metric fallback
        _, trips = random_sparse_lmi(rng, 5, cplx=True)
        f0_all, fs_all = box_problem(np.eye(5), trips)
        c = rng.standard_normal(6)
        certificate, calls = sdp_mod._certificate, []

        def crossing_once(*args):
            cert = certificate(*args)
            calls.append(cert is not None)
            if cert is not None and calls.count(True) == 1:
                return cert[0], cert[1] + 1.0
            return cert

        monkeypatch.setattr(sdp_mod, "_certificate", crossing_once)
        res = sdp_solve(SdpProblem(c=c, f0=f0_all, fs=fs_all))
        assert True in calls and len(calls) == calls.index(True) + 2
        assert res.status in ("optimal", "numerical_failure")
        assert res.status == "numerical_failure" or res.dual_value <= res.value

    def test_caller_fs_kept(self, rng):
        _, trips = random_sparse_lmi(rng, 5)
        p = SdpProblem(c=np.zeros(6), f0=np.eye(5), fs=trips)
        assert p.fs is trips
        assert p.fs.dtype == LMI_TRIPLE

    def test_triple_index_out_of_range(self):
        with pytest.raises(ShapeMismatchError):
            SdpProblem(c=np.zeros(1), f0=np.eye(2), fs=lmi_triples([0], [2], [0], [1.0]))
        with pytest.raises(ShapeMismatchError):
            SdpProblem(c=np.zeros(1), f0=np.eye(2), fs=lmi_triples([1], [0], [0], [1.0]))

    def test_rejects_all_but_one_square_block_of_triples(self):
        # one (n, n) F0 and one LMI_TRIPLE array: a dense stack, a list of
        # triple arrays and a non-square or stacked F0 are refused
        trips = lmi_triples([0], [0], [0], [1.0])
        with pytest.raises(ShapeMismatchError, match="LMI_TRIPLE"):
            SdpProblem(c=np.zeros(1), f0=np.eye(2), fs=np.eye(2).reshape(1, 2, 2))
        with pytest.raises(ShapeMismatchError, match="LMI_TRIPLE"):
            SdpProblem(c=np.zeros(1), f0=np.eye(2), fs=[trips])
        with pytest.raises(ShapeMismatchError, match="not square"):
            SdpProblem(c=np.zeros(1), f0=np.ones((2, 3)), fs=trips)
        with pytest.raises(ShapeMismatchError, match="not square"):
            SdpProblem(c=np.zeros(1), f0=[np.eye(2)], fs=trips)

    def test_lapack_failure_is_numerical_failure(self, monkeypatch):
        # a LAPACK non-convergence inside the solve is an answer, not a crash
        def no_convergence(*args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(sdp_mod, "_steps", no_convergence)
        p, _ = lmi_opnorm_problem(np.eye(2))
        res = sdp_solve(p)
        assert res.status == "numerical_failure"
        assert "Eigenvalues did not converge" in res.message

    def test_first_sdp_imports_no_masked_arrays(self):
        # np.unique imports numpy.ma on its first call, which a fresh process
        # would pay inside its first SDP
        code = (
            "import sys, numpy as np\n"
            "from oscat.normlab.diamond import _diamond_sdp\n"
            "j = np.array([[1, 2, 0, 1], [0, 1, 3, 0], [1, 0, 0, 2], [2, 1, 0, 1]], dtype=complex)\n"
            "assert _diamond_sdp(j, 2, 2).witnesses['route'] == 'sdp'\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


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
