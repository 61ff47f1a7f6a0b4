import numpy as np
import pytest

from conftest import random_cptp, random_superop
from oscat.acceptance import entangled_witness
from oscat.matcore import op_norm, rand_complex, rand_unitary, tr_norm
from oscat.normlab.brackets import (
    FlatSpace,
    NormBracket,
    elem_coords,
    haagerup_bracket_flat,
    inj_norm_flat,
    proj_bracket_flat,
)
from oscat.normlab.diamond import cb_norm, diamond_norm, dual_level_norm
from oscat.matcore import BlockMatrix
from oscat.normlab import brackets as brackets_mod
from oscat.normlab import diamond as diamond_mod
from oscat.normlab import sdp as sdp_mod
from oscat.normlab.sdp import SdpResult
from oscat.supop import SuperOp, conjugation, identity_map, trace_map, transpose_map

F2 = FlatSpace.base(2, 2)


def sdp_bound_map():
    """A fixed random non-Hermitian map that only the SDP decides.

    Its closed-form bracket is too wide, and its optimal density pair is
    rank-deficient, so the reweighting hands it on after a few iterations,
    and the rank-one face does not certify it.
    """
    return random_superop(np.random.default_rng(4), 2)


def cptp_difference(rng, n):
    """Φ₁ − Φ₂ for two random channels: Hermitian-preserving, not CP."""
    j = random_cptp(rng, n).big_choi() - random_cptp(rng, n).big_choi()
    return SuperOp.from_big_choi(j, (n,), (n,))


class TestNormBracket:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            NormBracket(2.0, 1.0, "bracket")

    def test_exact_requires_tight(self):
        with pytest.raises(ValueError):
            NormBracket(0.0, 1.0, "exact")
        with pytest.raises(ValueError):
            NormBracket(1.0, np.inf, "exact")

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_exactly_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            NormBracket.exactly(value)

    def test_statuses(self):
        assert NormBracket.from_bounds(1.0, 1.0).status == "exact"
        assert NormBracket.from_bounds(0.5, 1.0).status == "bracket"
        assert NormBracket.from_bounds(0.0, 1.0).status == "upper_only"
        assert NormBracket.unknown().status == "unknown"

    def test_crossing_within_rounding_raises_upper(self):
        br = NormBracket.from_bounds(1.0 + 1e-12, 1.0, {"route": "sdp"})
        assert br.status == "exact" and br.lower == br.upper == 1.0 + 1e-12
        assert br.witnesses == {"route": "sdp"}

    def test_crossing_beyond_rounding_is_unknown(self):
        # the threshold is 1e-12·(1 + |upper|) = 2e-12 here
        br = NormBracket.from_bounds(1.0 + 3e-12, 1.0, {"route": "sdp"})
        assert br.status == "unknown" and br.witnesses["reason"] == "crossed bracket"
        assert br.witnesses["lower"] == 1.0 + 3e-12 and br.witnesses["upper"] == 1.0
        assert br.witnesses["route"] == "sdp"

    def test_infinite_upper_is_unknown(self):
        br = NormBracket.from_bounds(1.0, np.inf, {"route": "sdp"})
        assert br.status == "unknown" and br.witnesses["reason"] == "no finite upper end"
        assert br.witnesses["route"] == "sdp"


class TestDiamond:
    def test_identity(self):
        br = diamond_norm(identity_map((2,)))
        assert br.status == "exact" and abs(br.mid - 1.0) <= 1e-6

    def test_cptp_is_one(self, rng):
        for _ in range(5):
            br = diamond_norm(random_cptp(rng, int(rng.integers(2, 4))))
            assert abs(br.mid - 1.0) <= 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_transpose_is_n(self, n):
        br = diamond_norm(transpose_map(n))
        assert abs(br.mid - n) <= 1e-4
        # oracle: the maximally entangled input attains n exactly
        assert entangled_witness(transpose_map(n), n) >= n - 1e-12

    def test_amplified_pairs_below_diamond(self, rng):
        # ‖(id_k ⊗ Φ)(ψφ*)‖₁ at unit ψ, φ is a primal value at every level k,
        # and zero-padding a level-k pair to level k + 1 keeps its value
        s = random_superop(rng, 2)
        br = diamond_norm(s)

        def value(psi, phi):
            return s.amplify(psi.size // 2).apply(BlockMatrix([np.outer(psi, phi.conj())])).tr_norm()

        for k in (1, 2, 3):
            psi, phi = (v / np.linalg.norm(v) for v in rand_complex(rng, 2, 2 * k))
            low = value(psi, phi)
            assert 0 < low <= br.upper
            padded = value(*(np.concatenate([v, np.zeros(2)]) for v in (psi, phi)))
            assert abs(padded - low) <= 1e-12 * low

    def test_block_map_diamond(self, rng):
        s = random_cptp(rng, 2).direct_sum(random_cptp(rng, 2))
        br = diamond_norm(s)
        assert abs(br.mid - 1.0) <= 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_transpose_bracket_contains_n(self, monkeypatch, n):
        # |J| = I for the swap, so Tr_L|J| = n·I and both closed-form ends are ‖J‖₁/n = n
        br = _closed_form(monkeypatch, lambda: diamond_norm(transpose_map(n)))
        assert br.status == "exact" and br.lower <= n <= br.upper

    @pytest.mark.parametrize("n", [2, 3])
    def test_cptp_bracket_contains_one(self, n, rng):
        for _ in range(3):
            br = diamond_norm(random_cptp(rng, n))
            assert br.status == "exact" and br.lower <= 1.0 <= br.upper

    def test_random_n3_newton_systems(self, monkeypatch, rng):
        # one Newton system per predictor–corrector iteration, about ten per
        # solve; a warm shape reuses its y = 0 start, so it forms one fewer.
        # Random n = 3 maps mostly take the reweighted closed form, so the
        # SDP is called directly.
        diamond_mod._diamond_lmi.cache_clear()
        calls = []
        grad_hess = sdp_mod._Block.grad_hess
        monkeypatch.setattr(
            sdp_mod._Block, "grad_hess", lambda blk, sinv, z: calls.append(1) or grad_hess(blk, sinv, z)
        )
        for k in range(3):
            calls.clear()
            br = diamond_mod._diamond_sdp(random_superop(rng, 3).big_choi(), 3, 3)
            assert br.status == "exact"
            its = br.witnesses["sdp_iterations"]
            assert len(calls) == (its if k == 0 else its - 1) and its <= 20

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("make", [random_superop, cptp_difference])
    def test_lmi_cache_is_invisible(self, monkeypatch, rng, make, n):
        # the per-shape LMI and SDP start change no answer: a cold and a warm
        # SDP on the same map agree in every end, status and witness
        j = make(rng, n).big_choi()
        diamond_mod._diamond_lmi.cache_clear()
        blocks, calls = [], []
        block_init, grad_hess = sdp_mod._Block.__init__, sdp_mod._Block.grad_hess
        monkeypatch.setattr(sdp_mod._Block, "__init__", lambda blk, *a: blocks.append(1) or block_init(blk, *a))
        monkeypatch.setattr(
            sdp_mod._Block, "grad_hess", lambda blk, sinv, z: calls.append(1) or grad_hess(blk, sinv, z)
        )
        cold = diamond_mod._diamond_sdp(j, n, n)
        cold_blocks, cold_calls = len(blocks), len(calls)
        warm = diamond_mod._diamond_sdp(j, n, n)
        assert cold.witnesses["route"] == "sdp" and cold.status == "exact"
        assert (warm.lower, warm.upper, warm.status) == (cold.lower, cold.upper, cold.status)
        assert warm.witnesses == cold.witnesses
        assert cold_blocks == 1 and len(blocks) == 1
        assert len(calls) - cold_calls == cold_calls - 1
        # everything the cache holds is read-only
        prob = diamond_mod._diamond_lmi(n, n, make is cptp_difference)
        blk, start = prob.block, prob.block.start()
        for arr in (prob.fs["val"], prob.f0, blk.val, blk.slabs[0][2][0][2], start[2], start[3]):
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 1.0

    @pytest.mark.parametrize("make", [random_superop, cptp_difference])
    def test_lmi_is_one_complex_block(self, monkeypatch, rng, make):
        # the Hermitian LMI goes to the core as complex triples, not through
        # the real embedding: one block of complex size 2·n² for n = 3
        seen = []
        solve = diamond_mod.sdp_solve
        monkeypatch.setattr(diamond_mod, "sdp_solve", lambda p: seen.append(p) or solve(p))
        assert diamond_mod._diamond_sdp(make(rng, 3).big_choi(), 3, 3).status == "exact"
        (p,) = seen
        assert p.f0.shape == (18, 18) and p.block.n == 18
        assert p.fs.dtype == sdp_mod.LMI_TRIPLE and np.iscomplexobj(p.fs["val"])
        assert np.any(p.fs["val"].imag != 0)

    def test_solver_failure_reason_kept(self, monkeypatch):
        monkeypatch.setattr(
            diamond_mod, "sdp_solve",
            lambda p: SdpResult(status="numerical_failure", message="barrier stalled"),
        )
        br = diamond_norm(sdp_bound_map())
        assert br.witnesses["route"] == "sdp"
        assert br.status == "unknown"
        assert br.witnesses["sdp_status"] == "numerical_failure"
        assert br.witnesses["reason"] == "sdp numerical_failure: barrier stalled"

    def test_crossed_certificate_is_unknown(self, monkeypatch):
        # dual value above the primal value: upper end -dual below lower end -value
        crossed = SdpResult(status="optimal", value=-2.0, dual_value=-1.5, gap=-0.5)
        monkeypatch.setattr(diamond_mod, "sdp_solve", lambda p: crossed)
        br = diamond_norm(sdp_bound_map())
        assert br.status == "unknown" and br.witnesses["reason"] == "crossed certificate"
        assert br.witnesses["value"] == -2.0 and br.witnesses["dual_value"] == -1.5

    def test_rounding_crossing_kept(self, monkeypatch):
        # a crossing within 1e-12·(1+|value|) is rounding, not a bug
        near = SdpResult(status="optimal", value=-2.0, dual_value=-2.0 + 2e-12, gap=-2e-12)
        monkeypatch.setattr(diamond_mod, "sdp_solve", lambda p: near)
        br = diamond_norm(sdp_bound_map())
        assert br.status == "exact" and br.lower == br.upper == 2.0

    def test_lapack_failure_at_huge_scale_is_unknown(self):
        # at 3e153 the SDP's squares overflow and an eigenvalue solve does not
        # converge: the answer is `unknown` with the LAPACK error as its reason
        rng = np.random.default_rng(0)
        w = rand_unitary(rng, 9)
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        j = 3e153 * (w + 0.3 * g / np.linalg.norm(g, 2))
        with np.errstate(all="ignore"):
            br = diamond_norm(SuperOp.from_big_choi(j, (3,), (3,)))
        assert br.witnesses["route"] == "sdp"
        assert br.status == "unknown"
        assert br.witnesses["sdp_status"] == "numerical_failure"
        assert br.witnesses["reason"].startswith("sdp numerical_failure: LAPACK error: ")


def random_cp(rng, n, rank=2):
    """CP map with `rank` random Kraus operators: Choi matrix V·V†, not trace preserving."""
    v = rand_complex(rng, n * n, rank)
    return SuperOp.from_big_choi(v @ v.conj().T, (n,), (n,))


def elementary_map(a, b):
    """x ↦ a·x·b from M_k to M_l, for a of shape (l, k) and b of shape (k, l)."""
    l, k = a.shape
    return SuperOp.from_action(lambda x: BlockMatrix([a @ x.blocks[0] @ b]), (k,), (l,))


def _no_sdp(*a, **kw):
    raise AssertionError("SDP solved for a map with a closed form")


def _closed_form(monkeypatch, norm):
    """norm() with the SDP patched to fail: it must come from the closed form."""
    with monkeypatch.context() as mp:
        mp.setattr(diamond_mod, "sdp_solve", _no_sdp)
        br = norm()
    assert br.status == "exact" and br.witnesses["route"] == "closed form"
    return br


def _overlaps_sdp(br, s):
    """The bracket overlaps `_diamond_sdp`'s on the same map."""
    sdp = diamond_mod._diamond_sdp(s.big_choi(), sum(s.dom_shape), sum(s.cod_shape))
    assert sdp.lower <= br.upper and br.lower <= sdp.upper


class TestClosedForm:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cptp_diamond_encloses_one(self, monkeypatch, rng, n):
        s = random_cptp(rng, n)
        br = _closed_form(monkeypatch, lambda: diamond_norm(s))
        assert br.lower <= 1.0 <= br.upper and br.width <= 1e-11
        assert type(br.lower) is float and type(br.upper) is float  # JSON-ready, like the SDP's
        _overlaps_sdp(br, s)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cp_cb_encloses_unit_image(self, monkeypatch, rng, n):
        # operator picture: ‖Φ‖_cb = ‖Φ(1)‖ for a CP map
        s = random_cp(rng, n)
        want = s.apply(BlockMatrix.identity(s.dom_shape)).op_norm()
        br = _closed_form(monkeypatch, lambda: cb_norm(s, "operator"))
        assert br.lower <= want * (1 + 1e-14) and want * (1 - 1e-14) <= br.upper
        _overlaps_sdp(br, s.adjoint())

    def test_block_map_encloses_one(self, monkeypatch, rng):
        s = random_cptp(rng, 2).direct_sum(random_cptp(rng, 3))
        br = _closed_form(monkeypatch, lambda: diamond_norm(s))
        assert br.lower <= 1.0 <= br.upper
        _overlaps_sdp(br, s)

    @pytest.mark.parametrize("n", [2, 3])
    def test_negative_shift_gets_certified_bracket(self, monkeypatch, n):
        # J − δI is not CP, so the closed form is too wide for most of these.
        # The reweighted closed form decides them `exact`; where it hands
        # the map to the SDP, the SDP's attained primal value (a feasible
        # point, certificate or not) lies in both brackets.
        seen = []
        solve = diamond_mod.sdp_solve
        monkeypatch.setattr(diamond_mod, "sdp_solve", lambda p: seen.append(solve(p)) or seen[-1])
        routes = set()
        for seed in range(4):
            for delta in (1e-5, 1e-6, 1e-7):
                j = random_cptp(np.random.default_rng(seed), n).big_choi() - delta * np.eye(n * n)
                lo, hi, _ = diamond_mod._closed_form_bracket(j, n, n)
                seen.clear()
                br = diamond_norm(SuperOp.from_big_choi(j, (n,), (n,)))
                route = br.witnesses["route"]
                routes.add(route)
                assert lo <= br.upper and br.lower <= hi, (seed, delta, br)
                if route == "sdp":
                    (res,) = seen
                    assert lo <= -res.value <= hi and br.lower <= -res.value <= br.upper
                else:
                    assert route in ("closed form", "reweighted closed form") and not seen
                    assert br.status == "exact" and br.width <= 1e-8 * (1.0 + br.lower)
        assert "reweighted closed form" in routes

    def test_anti_hermitian_defect_stays_closed_form(self, monkeypatch, rng):
        b = rand_complex(rng, 9)
        j = random_cptp(rng, 3).big_choi() + 1e-14 * (b - b.conj().T)
        s = SuperOp.from_big_choi(j, (3,), (3,))
        _overlaps_sdp(_closed_form(monkeypatch, lambda: diamond_norm(s)), s)

    @pytest.mark.parametrize("n, seed", [(2, 0), (2, 1), (3, 0)])
    def test_weyl_channel_difference(self, monkeypatch, n, seed):
        # Φ_p − Φ_q for Weyl-covariant channels Φ_p(x) = Σ p_ab·W_ab x W_ab*,
        # W_ab = XᵃZᵇ (the Pauli channels at n = 2): ‖·‖⋄ = Σ|p_ab − q_ab|
        r = np.random.default_rng(seed)
        p, q = r.dirichlet(np.ones(n * n)), r.dirichlet(np.ones(n * n))
        shift = np.roll(np.eye(n), 1, axis=0)
        clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
        weyl = [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
                for a in range(n) for b in range(n)]
        j = sum((a - b) * conjugation(w).big_choi() for a, b, w in zip(p, q, weyl))
        want = float(np.abs(p - q).sum())
        br = _closed_form(monkeypatch, lambda: diamond_norm(SuperOp.from_big_choi(j, (n,), (n,))))
        assert br.lower <= want * (1 + 1e-14) and want * (1 - 1e-14) <= br.upper

    @pytest.mark.parametrize("k, l", [(2, 2), (3, 3), (2, 3)])
    def test_elementary_operator(self, monkeypatch, rng, k, l):
        # x ↦ a·x·b, M_k → M_l: J is rank one and ‖·‖⋄ = ‖a‖·‖b‖
        a, b = rand_complex(rng, l, k), rand_complex(rng, k, l)
        want = op_norm(a) * op_norm(b)
        br = _closed_form(monkeypatch, lambda: diamond_norm(elementary_map(a, b)))
        assert br.lower <= want * (1 + 1e-13) and want * (1 - 1e-13) <= br.upper

    @pytest.mark.parametrize("scale", [1 + 1e-10, 1 - 1e-10])
    def test_svd_residual_charged(self, monkeypatch, rng, scale):
        # factors off by a relative 1e-10: only the residual term r keeps the
        # upper end above the norm when they shrink
        svd = np.linalg.svd

        def skewed(m, *a, **kw):
            out = svd(m, *a, **kw)
            if kw.get("compute_uv", True) is False:
                return out
            u, s, vh = out
            return u * scale, s, vh * scale

        a, b = rand_complex(rng, 3, 2), rand_complex(rng, 2, 3)
        cases = [
            (transpose_map(3), 3.0),
            (random_cptp(rng, 3), 1.0),
            (elementary_map(a, b), op_norm(a) * op_norm(b)),
        ]
        monkeypatch.setattr(np.linalg, "svd", skewed)
        for s, want in cases:
            lo, hi, _ = diamond_mod._closed_form_bracket(s.big_choi(), sum(s.dom_shape), sum(s.cod_shape))
            assert lo <= want * (1 + 1e-13) and want * (1 - 1e-13) <= hi

    def test_product_input_only_when_needed(self, monkeypatch, rng):
        # ‖J‖₁/K closes the bracket of CPTP maps and transposes, so the
        # product input's L×L svd is skipped; it does not close that of an
        # elementary operator with non-unitary factors, whose bracket needs it
        svd, calls = np.linalg.svd, []

        def counted(m, *a, **kw):
            calls.append(m.shape)
            return svd(m, *a, **kw)

        monkeypatch.setattr(np.linalg, "svd", counted)
        a, b = rand_complex(rng, 3, 2), 0.5 * rand_complex(rng, 2, 3)
        cases = [(random_cptp(rng, n), 1.0, 1) for n in (2, 3)]
        cases += [(transpose_map(n), float(n), 1) for n in (2, 3)]
        cases += [(elementary_map(a, b), op_norm(a) * op_norm(b), 2)]
        for s, want, n_svd in cases:
            calls.clear()
            lo, hi, _ = diamond_mod._closed_form_bracket(s.big_choi(), sum(s.dom_shape), sum(s.cod_shape))
            assert len(calls) == n_svd, (s.dom_shape, s.cod_shape, calls)
            assert NormBracket.from_bounds(max(0.0, lo), hi).status == "exact"
            assert lo <= want * (1 + 1e-13) and want * (1 - 1e-13) <= hi


def _sweep_choi(rng, kind, k, l):
    """Choi matrix (output factor first) of a random map M_k → M_l of one kind."""
    d = k * l
    if kind == "random":
        return rand_complex(rng, d, d)
    if kind == "cp":
        v = rand_complex(rng, d, 2)
        return v @ v.conj().T
    if kind == "hermitian":
        g = rand_complex(rng, d, d)
        return (g + g.conj().T) / 2
    if kind == "cp difference":
        v, w = rand_complex(rng, d, 2), rand_complex(rng, d, 2)
        return v @ v.conj().T - w @ w.conj().T
    a, b = rand_complex(rng, l, k), rand_complex(rng, k, l)  # x ↦ a·x·b
    return np.einsum("xa,by->xayb", a, b).reshape(d, d)


SWEEP_KINDS = ("random", "cp", "hermitian", "cp difference", "elementary")


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_closed_form_overlaps_sdp_sweep(kind):
    # 5 kinds × 24 seeded maps, domain and codomain sizes 2..4 but not both 4
    sizes = [(k, l) for k in (2, 3, 4) for l in (2, 3, 4) if k + l < 8]
    for seed in range(24):
        r = np.random.default_rng([seed, SWEEP_KINDS.index(kind)])
        k, l = sizes[seed % len(sizes)]
        j = _sweep_choi(r, kind, k, l)
        lo, hi, _ = diamond_mod._closed_form_bracket(j, k, l)
        sdp = diamond_mod._diamond_sdp(j, k, l)
        assert sdp.status != "unknown" and sdp.lower <= hi and lo <= sdp.upper, (kind, seed, lo, hi, sdp)
        if kind in ("cp", "elementary"):
            assert hi - lo <= 1e-8 * (1.0 + lo), (kind, seed, lo, hi)


@pytest.mark.parametrize("k, l", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("kind", ["random", "hermitian"])
def test_sdp_route_unitary_invariance(kind, k, l):
    # Φ′(x) = W₁·Φ(U₁·x·U₂)·W₂ has the Choi matrix J′ = (W₁⊗U₁ᵀ)·J·(W₂⊗U₂ᵀ)
    # (codomain factor first) and the same diamond norm; W₂ = W₁*, U₂ = U₁*
    # keep a Hermitian J Hermitian, so both SDP variants are covered
    r = np.random.default_rng([k, l, kind == "hermitian"])
    j = _sweep_choi(r, kind, k, l)
    w1, u1 = rand_unitary(r, l), rand_unitary(r, k)
    if kind == "hermitian":
        w2, u2 = w1.conj().T, u1.conj().T
    else:
        w2, u2 = rand_unitary(r, l), rand_unitary(r, k)
    j2 = np.kron(w1, u1.T) @ j @ np.kron(w2, u2.T)
    assert np.allclose(j2, j2.conj().T) == (kind == "hermitian")
    a, b = diamond_mod._diamond_sdp(j, k, l), diamond_mod._diamond_sdp(j2, k, l)
    assert a.status == b.status == "exact", (a, b)
    assert a.lower <= b.upper and b.lower <= a.upper, (a, b)


def _closed_form_reference(J, K, L):
    """The unweighted one-SVD closed form written out without weights: the reference
    that `_closed_form_bracket(J, K, L)` must match bit for bit."""
    g, fro, charge = diamond_mod._gamma, diamond_mod._fro, diamond_mod._eig_charge
    d = L * K
    u, s, vh = np.linalg.svd(J)
    res = fro(J - (u * s) @ vh)
    res_abs = fro((np.abs(u) * s) @ np.abs(vh))
    r = (res + g(2 * d + 8) * res_abs) * (1.0 + g(2 * d * d + d + 8))
    ends, tops = [], []
    sl = np.tile(s, L)
    rows = [w.reshape(L, K, d).transpose(1, 0, 2).reshape(K, L * d) for w in (u, vh.conj().T)]
    ms = np.stack([(rw * sl) @ rw.conj().T for rw in rows])
    lams, vecs = np.linalg.eigh(ms)
    for rw, m, lam, vec in zip(rows, ms, lams, vecs):
        m_abs = (np.abs(rw) * sl) @ np.abs(rw).T
        top = max(0.0, float(lam[-1])) + charge(m) + g(L * d + 4) * fro(m_abs)
        ends.append((top + r * L) * (1.0 + g(4)))
        tops.append(vec[:, -1])
    upper = float(np.sqrt(ends[0] * ends[1])) * (1.0 + g(4))
    lower_me = (float(s.sum()) * (1.0 - g(d + 2)) - d * charge(J)) / K * (1.0 - g(2))
    x, y = tops
    J4 = J.reshape(L, K, L, K)
    img = np.einsum("lamb,a,b->lm", J4, x.conj(), y)
    img_abs = np.einsum("lamb,a,b->lm", np.abs(J4), np.abs(x), np.abs(y))
    tn = float(np.linalg.svd(img, compute_uv=False).sum()) * (1.0 - g(L + 2))
    tn -= L * charge(img) + L**0.5 * g(K * K + 8) * fro(img_abs)
    lower_xy = tn / (fro(x) * fro(y)) * (1.0 - g(4 * K + 8))
    return max(lower_me, lower_xy), upper


class TestReweighted:
    @pytest.mark.parametrize("k, l", [(2, 2), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("kind", ["random", "hermitian"])
    def test_brackets_overlap_sdp(self, kind, k, l):
        # every reweighted bracket is exact, within the requested gap, and
        # overlaps the SDP's on the same map
        reweighted = 0
        for seed in range(8):
            j = _sweep_choi(np.random.default_rng([seed, k, l, kind == "hermitian"]), kind, k, l)
            br = diamond_norm(SuperOp.from_big_choi(j, (k,), (l,)))
            if br.witnesses["route"] != "reweighted closed form":
                continue
            reweighted += 1
            assert br.status == "exact" and 1 <= br.witnesses["iterations"] <= diamond_mod._MAX_ITER
            assert br.width <= diamond_mod._REL_GAP * (1.0 + br.lower)
            sdp = diamond_mod._diamond_sdp(j, k, l)
            assert sdp.lower <= br.upper and br.lower <= sdp.upper, (seed, br, sdp)
        assert reweighted >= 1

    @pytest.mark.parametrize("k, l", [(2, 2), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("kind", ["random", "hermitian", "cp difference"])
    def test_any_weights_enclose_sdp_value(self, kind, k, l):
        # both ends stay sound at random, ill-conditioned, non-Hermitian
        # weights of any scale: the bracket holds the SDP's whole bracket
        r = np.random.default_rng([k, l, SWEEP_KINDS.index(kind)])
        j = _sweep_choi(r, kind, k, l)
        sdp = diamond_mod._diamond_sdp(j, k, l)
        for scale in (10.0, 1.0, 0.1):
            a, b = (rand_unitary(r, k) @ np.diag(np.logspace(0, -3, k)) @ rand_unitary(r, k) for _ in "ab")
            lo, hi, _ = diamond_mod._closed_form_bracket(j, k, l, scale * a, b / scale**2)
            assert lo <= sdp.lower and sdp.upper <= hi, (scale, lo, hi, sdp)

    def test_svd_residual_charged(self, monkeypatch, rng):
        # factors shrunk by a relative 1e-6: the floating-point ends then meet
        # below the norm, and only the certified bracket's residual term
        # catches it, so the route hands the map on and claims nothing
        j = random_superop(rng, 3).big_choi()
        want = diamond_mod._diamond_sdp(j, 3, 3)
        tr_l = diamond_mod._closed_form_bracket(j, 3, 3)[2]
        svd = np.linalg.svd

        def skewed(m, *a, **kw):
            out = svd(m, *a, **kw)
            if kw.get("compute_uv", True) is False:
                return out
            u, s, vh = out
            return u * (1 - 1e-6), s, vh * (1 - 1e-6)

        monkeypatch.setattr(np.linalg, "svd", skewed)
        br = diamond_mod._reweighted_bracket(j, 3, 3, tr_l)
        assert br is None or (br.status == "exact" and br.lower <= want.upper and want.lower <= br.upper)

    @pytest.mark.parametrize("kind", SWEEP_KINDS + ("transpose",))
    def test_unweighted_is_closed_form_bit_for_bit(self, kind):
        # identity weights (None) are the one-SVD closed form, in the same arithmetic
        if kind == "transpose":
            cases = [(transpose_map(n).big_choi(), n, n) for n in (2, 3, 4)]
        else:
            sizes = [(k, l) for k in (2, 3, 4) for l in (2, 3, 4)]
            cases = []
            for seed in range(18):
                k, l = sizes[seed % len(sizes)]
                cases.append((_sweep_choi(np.random.default_rng([seed, 7]), kind, k, l), k, l))
        for j, k, l in cases:
            assert diamond_mod._closed_form_bracket(j, k, l)[:2] == _closed_form_reference(j, k, l)

    def test_rank_deficient_pair_reaches_sdp(self, monkeypatch):
        # the optimal pair of this map is rank-deficient: the reweighting
        # stops on rank loss, well before its iteration cap, the rank-one
        # face does not certify it either, and the answer is the SDP's, as
        # if the map had gone to it directly
        s = sdp_bound_map()
        j = s.big_choi()
        want = diamond_mod._diamond_sdp(j, 2, 2)
        weighed, at_face, at_sdp = [], [], []
        weigh, face, solve = diamond_mod._weigh, diamond_mod._face_bracket, diamond_mod.sdp_solve
        monkeypatch.setattr(diamond_mod, "_weigh", lambda *a: weighed.append(1) or weigh(*a))
        monkeypatch.setattr(diamond_mod, "_face_bracket", lambda *a: at_face.append(len(weighed)) or face(*a))
        monkeypatch.setattr(
            diamond_mod, "sdp_solve", lambda p: at_sdp.append(len(weighed)) or solve(p)
        )
        br = diamond_norm(s)
        assert br.witnesses["route"] == "sdp"
        # the reweighting's SVDs are counted up to the face, which weighs J and |J| once
        (iterations,) = at_face
        assert 1 <= iterations < diamond_mod._MAX_ITER
        assert at_sdp == [iterations + 2]
        assert (br.lower, br.upper, br.status) == (want.lower, want.upper, want.status)
        assert br.witnesses == want.witnesses

    def test_scale_free(self):
        # the iteration squares unit-trace partial traces, never J's own
        # scale: near the overflow threshold it runs as at unit scale, and
        # past it, where the closed form's own charges overflow, it hands
        # the map on instead of raising
        r = np.random.default_rng(0)
        g = rand_complex(r, 9, 9)
        j = rand_unitary(r, 9) + 0.3 * g / op_norm(g)
        ends = []
        for c in (1.0, 1e153):
            br = diamond_mod._reweighted_bracket(c * j, 3, 3, diamond_mod._closed_form_bracket(c * j, 3, 3)[2])
            ends.append((br.lower / c, br.upper / c, br.witnesses["iterations"]))
        assert ends[0] == pytest.approx(ends[1], rel=1e-12)
        with np.errstate(over="ignore"):
            tr_l = diamond_mod._closed_form_bracket(3e153 * j, 3, 3)[2]
            assert diamond_mod._reweighted_bracket(3e153 * j, 3, 3, tr_l) is None

    def test_repeats_bit_identically(self, rng):
        s = random_superop(rng, 3)
        first, again = diamond_norm(s), diamond_norm(s)
        assert first.witnesses["route"] == "reweighted closed form"
        assert (first.lower, first.upper, first.status) == (again.lower, again.upper, again.status)
        assert first.witnesses == again.witnesses


def face_bound_map():
    """A fixed random qubit map that the reweighting hands on and the rank-one face decides."""
    return random_superop(np.random.default_rng(3), 2)


def _face_weights(monkeypatch, s):
    """diamond_norm(s) and the weights (a, b) its rank-one face route handed the closed form."""
    seen = []
    closed = diamond_mod._closed_form_bracket

    def spy(J, K, L, a=None, b=None):
        seen.append((a, b))
        return closed(J, K, L, a, b)

    with monkeypatch.context() as mp:
        mp.setattr(diamond_mod, "_closed_form_bracket", spy)
        br = diamond_norm(s)
    return br, seen[-1]


def _certifies(J, K, L, a, b):
    lo, up, _ = diamond_mod._closed_form_bracket(J, K, L, a, b)
    return up - lo <= diamond_mod._REL_GAP * (1.0 + abs(lo))


class TestRankOneFace:
    def test_pinned_map_is_exact_and_overlaps_sdp(self, monkeypatch):
        s = face_bound_map()
        with monkeypatch.context() as mp:
            mp.setattr(diamond_mod, "sdp_solve", _no_sdp)
            br = diamond_norm(s)
        assert br.witnesses["route"] == "rank-one face"
        assert br.status == "exact" and br.width <= 1e-8 * (1.0 + br.lower)
        assert 1 <= br.witnesses["iterations"] <= diamond_mod._FACE_ITER
        _overlaps_sdp(br, s)

    def test_weights_are_not_conjugated(self, monkeypatch):
        # (1⊗xx*)·J·(1⊗yy*) = Φ(x̄·yᵀ)⊗(x·ȳᵀ): a and b meet the seesaw's
        # pair, and a conjugated weight on either side does not certify
        s = face_bound_map()
        j = s.big_choi()
        br, (a, b) = _face_weights(monkeypatch, s)
        assert br.witnesses["route"] == "rank-one face"
        assert np.allclose(a, a.conj().T) and np.allclose(b, b.conj().T)
        assert _certifies(j, 2, 2, a, b)
        for wa, wb in ((a.conj(), b), (a, b.conj()), (a.conj(), b.conj())):
            assert not _certifies(j, 2, 2, wa, wb)

    def test_wrong_pair_is_no_answer_or_encloses_sdp(self, monkeypatch):
        # weights from a swapped or a random pair of unit vectors: the
        # closed form stays sound, so it either is too wide to answer or
        # encloses the SDP's value
        rng = np.random.default_rng(5)
        s = face_bound_map()
        j = s.big_choi()
        sdp = diamond_mod._diamond_sdp(j, 2, 2)
        _, (a, b) = _face_weights(monkeypatch, s)
        pairs = [(b, a)]
        for _ in range(8):
            x, y = (v / np.linalg.norm(v) for v in rand_complex(rng, 2, 2))
            pairs.append((diamond_mod._face_weight(x), diamond_mod._face_weight(y)))
        answered = 0
        for wa, wb in pairs:
            lo, up, _ = diamond_mod._closed_form_bracket(j, 2, 2, wa, wb)
            assert lo <= sdp.upper and sdp.lower <= up
            answered += _certifies(j, 2, 2, wa, wb)
        assert answered == 0

    def test_face_weight_is_the_root(self, rng):
        x = rand_complex(rng, 3, 1).ravel()
        x /= np.linalg.norm(x)
        a = diamond_mod._face_weight(x)
        want = np.outer(x, x.conj()) + diamond_mod._FACE_EPS * np.eye(3)
        assert np.allclose(a @ a, want, rtol=0.0, atol=1e-15)

    def test_sweep_overlaps_sdp(self, monkeypatch):
        # 24 qubit maps and 16 M₂⊗ₕM₂ level-1 elements: every rank-one face
        # bracket is exact and overlaps the SDP's on the map it was given
        faces = []
        face = diamond_mod._face_bracket
        monkeypatch.setattr(
            diamond_mod, "_face_bracket", lambda J, K, L, t: faces.append((J, K, L, face(J, K, L, t))) or faces[-1][3]
        )
        for seed in range(24):
            diamond_norm(random_superop(np.random.default_rng([seed, 11]), 2))
        for seed in range(16):
            w = rand_complex(np.random.default_rng([seed, 12]), 1, 16).ravel()
            haagerup_bracket_flat(w, 1, F2, F2)
        decided = [(J, K, L, br) for J, K, L, br in faces if br is not None]
        assert len(faces) >= 20 and len(decided) >= len(faces) // 2
        for J, K, L, br in decided:
            assert br.status == "exact" and br.witnesses["route"] == "rank-one face"
            sdp = diamond_mod._diamond_sdp(J, K, L)
            assert sdp.lower <= br.upper and br.lower <= sdp.upper


# block shapes of dimension 1 (one 1×1 block among empty ones) and larger
SCALAR_END_SHAPES = [(1,), (0, 1), (1, 0), (2,), (2, 1), (1, 0, 2)]


class TestCbNorm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trace_functional(self, n):
        # tr: M_n → C has cb-norm n (attained at the identity), tr: T_n → C has 1
        assert abs(cb_norm(trace_map((n,)), "operator").mid - n) <= 1e-6
        assert abs(cb_norm(trace_map((n,)), "trace").mid - 1.0) <= 1e-6

    def test_unitary_heisenberg(self, rng):
        u = rand_unitary(rng, 2)
        br = cb_norm(conjugation(u).adjoint(), "operator")
        assert abs(br.mid - 1.0) <= 1e-6

    def test_operator_picture_is_adjoint_diamond(self, rng):
        s = random_superop(rng, 2)
        a = cb_norm(s, "operator")
        b = diamond_norm(s.adjoint())
        assert abs(a.mid - b.mid) <= 1e-7

    def test_zero_size_blocks_in_scalar_domain(self):
        z = SuperOp((1, 0), (1,), np.zeros((1, 1)))
        assert diamond_norm(z).mid == 0.0 and cb_norm(z, "operator").mid == 0.0
        # C ≅ [0, 1] → M_2, 1 ↦ diag(1, −2): trace norm 3, operator norm 2
        img = np.diag([1.0, -2.0])
        s = SuperOp.from_action(lambda x: BlockMatrix([x.blocks[1][0, 0] * img]), (0, 1), (2,))
        assert abs(diamond_norm(s).mid - 3.0) <= 1e-12
        assert abs(cb_norm(s, "operator").mid - 2.0) <= 1e-12

    @pytest.mark.parametrize(
        "dom, cod",
        [(d, c) for d in SCALAR_END_SHAPES for c in SCALAR_END_SHAPES if 1 in (sum(d), sum(c))],
    )
    def test_scalar_end_table(self, dom, cod):
        # K = 1: s is fixed by s(1), whose norm is the largest block op norm
        # (operator) or the sum of block trace norms (trace).  L = 1: s(x) =
        # Σ tr(r_i x_i), norm Σ‖r_i‖₁ (operator) or max ‖r_i‖ (trace)
        rng = np.random.default_rng([*dom, 9, *cod])
        nd, nc = sum(k * k for k in dom), sum(k * k for k in cod)
        t = rng.standard_normal((nc, nd)) + 1j * rng.standard_normal((nc, nd))
        s = SuperOp(dom, cod, t)

        def blocks(vec, shape):
            offs = np.cumsum([0] + [k * k for k in shape])
            return [vec[a:b].reshape(k, k) for a, b, k in zip(offs, offs[1:], shape)]

        # a dimension-1 domain or codomain makes t one column or one row
        parts = blocks(t[:, 0], cod) if sum(dom) == 1 else blocks(t[0], dom)
        svals = [np.linalg.svd(b, compute_uv=False) for b in parts]
        big = max(v.max(initial=0.0) for v in svals)
        tot = sum(float(v.sum()) for v in svals)
        op_want, tr_want = (big, tot) if sum(dom) == 1 else (tot, big)
        op, tr = cb_norm(s, "operator"), diamond_norm(s)
        assert op.status == tr.status == "exact"
        assert abs(op.mid - op_want) <= 1e-12 * (1 + op_want)
        assert abs(tr.mid - tr_want) <= 1e-12 * (1 + tr_want)

    def test_transpose_operator_picture(self):
        # transpose is its own trace-adjoint, so both pictures give n
        br = cb_norm(transpose_map(2), "operator")
        assert abs(br.mid - 2.0) <= 1e-4


class TestDomainBlockSplit:
    """A map out of several domain blocks takes the largest norm of its restrictions (⊕₁ is a coproduct)."""

    def test_many_one_dimensional_blocks(self):
        # the whole Choi matrix of this identity would be 16384 × 16384 complex (4 GiB)
        import tracemalloc

        s = identity_map((1,) * 128)
        tracemalloc.start()
        try:
            br = diamond_norm(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (br.status, br.lower, br.upper) == ("exact", 1.0, 1.0)
        assert br.witnesses == {"route": "closed form", "blocks": 128}
        assert peak < 4 * 2**20

    SHAPES = [((2, 1), (2,)), ((1, 2), (2, 1)), ((2, 2), (1, 2)), ((1, 1, 1), (2,)), ((2, 0, 1), (1, 1))]

    @pytest.mark.parametrize("dom, cod", SHAPES)
    def test_split_overlaps_whole_map(self, dom, cod):
        # the trace picture splits the domain of s, the operator picture the
        # domain of its adjoint, the codomain of s; each bracket overlaps the
        # closed form and the SDP of the whole Choi matrix
        rng = np.random.default_rng([*dom, 5, *cod])
        nd, nc = sum(k * k for k in dom), sum(k * k for k in cod)
        for _ in range(3):
            s = SuperOp(dom, cod, rand_complex(rng, nc, nd))
            for br, t in ((diamond_norm(s), s), (cb_norm(s, "operator"), s.adjoint())):
                parts = len(tuple(filter(None, t.dom_shape)))
                assert br.status != "unknown"
                assert br.witnesses.get("blocks") == (parts if parts > 1 else None)
                lo, hi, _ = diamond_mod._closed_form_bracket(t.big_choi(), sum(t.dom_shape), sum(t.cod_shape))
                assert lo <= br.upper * (1 + 1e-12) and br.lower <= hi * (1 + 1e-12)
                _overlaps_sdp(br, t)

    def test_max_of_the_parts(self, rng):
        # ends, route and witnesses of the part with the larger upper end
        s = SuperOp((2, 1), (2,), np.hstack([random_superop(rng, 2).transfer, 1.5 * np.eye(4)[:, :1]]))
        parts = [diamond_norm(SuperOp((2,), (2,), s.transfer[:, :4])),
                 diamond_norm(SuperOp((1,), (2,), s.transfer[:, 4:]))]
        top = max(parts, key=lambda p: p.upper)
        br = diamond_norm(s)
        assert (br.lower, br.upper) == (max(p.lower for p in parts), top.upper)
        assert br.witnesses == {**top.witnesses, "blocks": 2}

    def test_operator_picture_splits_the_codomain(self):
        # x ↦ (x, …, x) from T_2 into 512 copies of M_2: its adjoint sums the copies
        x = identity_map((2,)).tensor(trace_map((1,) * 512).adjoint())
        br = cb_norm(x, "operator")
        assert br.status == "exact" and abs(br.mid - 1.0) <= 1e-12
        assert br.witnesses["blocks"] == 512


class TestDualLevelNorms:
    def test_t2_identity(self):
        br = dual_level_norm(np.eye(2).reshape(1, 1, 4).astype(complex), (2,), 1)
        assert abs(br.mid - 2.0) <= 1e-6

    def test_level1_is_trace_norm(self, rng):
        a = rand_complex(rng, 3)
        br = dual_level_norm(a.reshape(1, 1, 9), (3,), 1)
        assert abs(br.mid - tr_norm(a)) <= 1e-9

    def test_matrix_units_level2(self):
        # dual coordinates are representing matrices: [e_ji] is the identity
        # map M_2 → M_2 (cb = 1) while [e_ij] is the transpose (cb = 2)
        ident = np.zeros((2, 2, 4), dtype=complex)
        trans = np.zeros((2, 2, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                ident[i, j] = np.outer(np.eye(2)[j], np.eye(2)[i]).ravel()
                trans[i, j] = np.outer(np.eye(2)[i], np.eye(2)[j]).ravel()
        assert abs(dual_level_norm(ident, (2,), 2).mid - 1.0) <= 1e-6
        assert abs(dual_level_norm(trans, (2,), 2).mid - 2.0) <= 1e-4

    def test_matrix_units_level2_two_blocks(self):
        # the same patterns in the M_2 block of M_2 ⊕∞ M_1, zeros in the M_1 block
        ident = np.zeros((2, 2, 5), dtype=complex)
        trans = np.zeros((2, 2, 5), dtype=complex)
        for i in range(2):
            for j in range(2):
                ident[i, j, :4] = _unit(2, j, i)
                trans[i, j, :4] = _unit(2, i, j)
        assert abs(dual_level_norm(ident, (2, 1), 2).mid - 1.0) <= 1e-6
        assert abs(dual_level_norm(trans, (2, 1), 2).mid - 2.0) <= 1e-4


def _unit(n, i, j):
    return np.outer(np.eye(n)[i], np.eye(n)[j]).ravel()


class TestHaagerup:
    def test_elementary_unitaries(self, rng):
        u, v = rand_unitary(rng, 2), rand_unitary(rng, 2)
        br = haagerup_bracket_flat(elem_coords(u.ravel(), v.ravel()), 1, F2, F2)
        assert br.status == "exact"
        assert br.upper <= 1 + 1e-6 and br.lower >= 1 - 1e-6

    @pytest.mark.parametrize("shapes", [((2, 2), (2, 2)), ((3, 3), (3, 3)), ((2, 3), (3, 2))])
    def test_elementary_is_product_of_norms(self, monkeypatch, rng, shapes):
        # the cb norm of x ↦ a·x·b: rank-one Choi matrix, decided in closed form
        (n1, m1), (n2, m2) = shapes
        a, b = rand_complex(rng, n1, m1), rand_complex(rng, n2, m2)
        fa, fb = FlatSpace.base(n1, m1), FlatSpace.base(n2, m2)
        br = _closed_form(monkeypatch, lambda: haagerup_bracket_flat(elem_coords(a.ravel(), b.ravel()), 1, fa, fb))
        want = op_norm(a) * op_norm(b)
        assert br.status == "exact"
        assert abs(br.lower - want) <= 1e-7 * want and abs(br.upper - want) <= 1e-7 * want

    def test_row_column_factorization(self):
        # Σ_k e_k1 ⊗ e_1k: ‖x‖ = ‖y‖ = 1 for the row×column split
        for n in (2, 3):
            fn = FlatSpace.base(n)
            v = sum(elem_coords(_unit(n, k, 0), _unit(n, 0, k)) for k in range(n))
            br = haagerup_bracket_flat(v, 1, fn, fn)
            assert br.status == "exact"
            assert br.upper <= 1 + 1e-6
            assert br.lower >= 1 - 1e-6

    def test_swapped_version_is_n(self):
        # γv = Σ_k e_1k ⊗ e_k1 has Haagerup norm n (multiplication witness)
        for n in (2, 3):
            fn = FlatSpace.base(n)
            v = sum(elem_coords(_unit(n, 0, k), _unit(n, k, 0)) for k in range(n))
            br = haagerup_bracket_flat(v, 1, fn, fn)
            assert br.status == "exact"
            assert br.lower >= n - 1e-6 and br.upper <= n + 1e-6

    def test_level2_corner_is_level1_norm(self, rng):
        w = rand_complex(rng, 1, 16).ravel()
        v = np.zeros((2, 2, 16), dtype=complex)
        v[0, 0] = w
        b1 = haagerup_bracket_flat(w, 1, F2, F2)
        b2 = haagerup_bracket_flat(v, 2, F2, F2)
        assert b1.status == b2.status == "exact"
        assert abs(b2.mid - b1.mid) <= 1e-6 * b1.mid

    def test_zero(self):
        br = haagerup_bracket_flat(np.zeros(16), 1, F2, F2)
        assert br.status == "exact" and br.upper == 0.0

    def _capped(self, monkeypatch, v, k):
        # the SDP refuses the problem before anything is solved or allocated
        def no_solve(*a, **kw):
            raise AssertionError("SDP solved above the size cap")

        monkeypatch.setattr(sdp_mod, "MAX_PSD_DIM", 4)
        monkeypatch.setattr(diamond_mod, "sdp_solve", no_solve)
        return haagerup_bracket_flat(v, k, F2, F2)

    def test_size_cap_fallback_contains_sdp_value(self, monkeypatch):
        # fixed elements that only the SDP decides (the reweighting and the
        # rank-one face hand them on), so the cap is what stops it
        rng = np.random.default_rng(2)
        for k in (1, 2):
            v = rand_complex(rng, 1, k * k * 16).ravel().reshape(k, k, 16)
            exact = haagerup_bracket_flat(v, k, F2, F2)
            assert exact.witnesses["route"] == "sdp"
            with monkeypatch.context() as mp:
                br = self._capped(mp, v, k)
            assert br.witnesses["reason"] == "sdp size cap"
            assert br.status != "unknown"
            assert br.lower == inj_norm_flat(v, k, F2, F2).upper
            assert br.lower <= exact.lower + 1e-9 and exact.upper <= br.upper + 1e-9

    def test_factorization_witness_reconstructs(self, monkeypatch):
        # a fixed element that only the SDP decides
        w = rand_complex(np.random.default_rng(2), 1, 16).ravel()
        assert haagerup_bracket_flat(w, 1, F2, F2).witnesses["route"] == "sdp"
        br = self._capped(monkeypatch, w, 1)
        x, y = br.witnesses["x"], br.witnesses["y"]
        rebuilt = np.einsum("ila,ljb->ijab", x, y).reshape(1, 1, 16)
        assert np.allclose(rebuilt.ravel(), w, atol=1e-10)
        prod = F2.level_norm(x) * F2.level_norm(y)
        assert abs(prod - br.upper) <= 1e-9


class TestOrdering:
    def test_inj_h_proj_chain(self, rng):
        # ‖·‖_∧ ≥ ‖·‖_h ≥ ‖·‖_∨: brackets must never cross beyond slack
        for trial in range(10):
            k = 1 + trial % 2
            w = rand_complex(rng, 1, k * k * 16).ravel().reshape(k, k, 16)
            bi = inj_norm_flat(w, k, F2, F2)
            bh = haagerup_bracket_flat(w, k, F2, F2)
            bp = proj_bracket_flat(w, k, F2, F2)
            assert bh.status == "exact"
            assert bp.status == "bracket" and bp.lower == bi.upper
            assert bi.upper <= bh.lower + 1e-6
            assert bh.upper <= bp.upper + 1e-6
            assert bi.mid <= bp.upper + 1e-6

    def test_inj_flattens_without_min_placement(self, rng):
        # M(8) ⊗min M(8): the (4096, 64, 64) placement of FlatSpace.tens_min
        # would take 256 MiB; the flat 64×64 matrix takes 64 KiB
        import tracemalloc

        n = 8
        coords = rand_complex(rng, 1, n ** 4).ravel()
        want = op_norm(
            coords.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
        )
        fn = FlatSpace.base(n)
        tracemalloc.start()
        try:
            br = inj_norm_flat(coords, 1, fn, fn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert br.status == "exact" and abs(br.upper - want) <= 1e-12 * want
        assert peak < 8 * 2 ** 20

    def test_inj_exact_on_elementary(self, rng):
        u, v = rand_unitary(rng, 2), rand_unitary(rng, 3)
        fa, fb = FlatSpace.base(2), FlatSpace.base(3)
        br = inj_norm_flat(elem_coords(u.ravel(), v.ravel()), 1, fa, fb)
        assert br.status == "exact" and abs(br.mid - 1.0) <= 1e-12

    @pytest.mark.parametrize("cross, status", [(1e-13, "exact"), (1e-9, "unknown")])
    def test_proj_crossing(self, monkeypatch, rng, cross, status):
        # an injective lower end above the expansion upper end is a crossing, not clamped
        w = rand_complex(rng, 1, 16).ravel()
        upper = proj_bracket_flat(w, 1, F2, F2).upper
        monkeypatch.setattr(
            brackets_mod, "inj_norm_flat", lambda *a: NormBracket.exactly(upper + cross)
        )
        br = proj_bracket_flat(w, 1, F2, F2)
        assert br.status == status
        if status == "unknown":
            assert br.witnesses["reason"] == "crossed bracket"
            assert br.witnesses["lower"] == upper + cross and br.witnesses["upper"] == upper
        else:
            assert br.lower == br.upper == upper + cross

    def test_proj_scalar_unit(self):
        f1 = FlatSpace.base(1, 1)
        br = proj_bracket_flat(np.array([1.0 + 0j]), 1, f1, f1)
        assert abs(br.lower - 1.0) <= 1e-9 and abs(br.upper - 1.0) <= 1e-9

    def test_appendix_cross_check(self, rng):
        # factorization uppers vs independently recomputed dual pairings; the
        # injective lower end dominates every rank-one functional
        for trial in range(10):
            w = rand_complex(rng, 1, 16).ravel()
            bp = proj_bracket_flat(w, 1, F2, F2)
            best = 0.0
            r2 = np.random.default_rng(1000 + trial)
            for _ in range(50):
                f, g = rand_complex(r2, 2), rand_complex(r2, 2)
                val = abs(
                    np.einsum("z,z->", np.outer(_func(f), _func(g)).ravel(), w)
                )
                best = max(best, val / (tr_norm(f) * tr_norm(g)))
            assert best <= bp.lower + 1e-9


class TestProjExpansion:
    SPACES = {
        "M2": FlatSpace.base(2),
        "M2x3": FlatSpace.base(2, 3),
        "M2+M1": FlatSpace.sum_inf(FlatSpace.base(2), FlatSpace.base(1)),
        # permuted placements: the basis does not sit at the matrix units in order
        "oppM2x3": FlatSpace.base(2, 3).opp(),
        "M1x2*minM2": FlatSpace.tens_min(FlatSpace.base(1, 2), FlatSpace.base(2)),
    }

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize(
        "a, b", [("M2", "M2"), ("M2x3", "M2+M1"), ("oppM2x3", "M1x2*minM2"), ("M1x2*minM2", "oppM2x3")]
    )
    def test_upper_bit_identical_to_per_term_sum(self, a, b, level, rng):
        fa, fb = self.SPACES[a], self.SPACES[b]
        for trial in range(8):
            v = rand_complex(rng, level * level, fa.dim * fb.dim).reshape(level, level, -1)
            if trial % 2:  # an elementary tensor: one term, and numerically rank-deficient splits
                v = np.einsum("ija,b->ijab", rand_complex(rng, level * level, fa.dim).reshape(level, level, -1),
                              rand_complex(rng, 1, fb.dim).ravel()).reshape(level, level, -1)
            br = proj_bracket_flat(v, level, fa, fb)
            # from_bounds raises an upper end that rounding left just below the lower one
            assert br.upper == max(_proj_upper_per_term(v, level, fa, fb), br.lower)

    @pytest.mark.parametrize("level", [1, 2])
    def test_no_svd_per_term(self, level, rng, linalg_calls):
        # two split SVDs, one stacked SVD per factor and split, and the
        # injective norm: 7 calls whatever the number of terms (4 per split here)
        v = rand_complex(rng, level * level, 16).reshape(level, level, 16)
        proj_bracket_flat(v, level, F2, F2)
        assert linalg_calls["svd"] == 7

    @pytest.mark.parametrize("k, n", [(2, 3), (3, 2)])
    def test_elementary_tensor_exact_at_every_level(self, k, n, rng):
        # ‖x ⊗ B‖∧ = ‖x‖·‖B‖ for x in X and B in M_k(Y): the mirrored split
        # Σ x_l ⊗ B_l must read B_l over (i, j, b), or its sum is no upper end
        fn = FlatSpace.base(n)
        x, B = rand_complex(rng, 1, n * n).ravel(), rand_complex(rng, k * k, n * n).reshape(k, k, -1)
        for v in (np.einsum("a,ijb->ijab", x, B), np.einsum("ija,b->ijab", B, x)):
            br = proj_bracket_flat(v.reshape(k, k, -1), k, fn, fn)
            want = op_norm(x.reshape(n, n)) * fn.level_norm(B)
            assert br.status == "exact" and abs(br.mid - want) <= 1e-9 * want

    def test_tiny_element_is_not_zero(self):
        # only an element whose coordinates are all 0 is exactly 0
        v = np.zeros(16, dtype=complex)
        v[0] = 1e-301
        br = proj_bracket_flat(v, 1, F2, F2)
        assert br.status == "exact" and br.lower <= 1e-301 <= br.upper
        assert proj_bracket_flat(np.zeros(16), 1, F2, F2) == NormBracket.exactly(0.0)


def _proj_upper_per_term(v, k, fa, fb) -> float:
    """The expansion upper end with one level_norm (one SVD) per term, summed in term order."""
    v4 = v.reshape(k, k, fa.dim, fb.dim)
    uppers = []
    for split, f_lev, f_one in ((v4, fa, fb), (v4.transpose(0, 1, 3, 2), fb, fa)):
        u, s, vh = np.linalg.svd(split.reshape(-1, f_one.dim), full_matrices=False)
        total = 0.0
        for l in range(np.count_nonzero(s)):
            a_l, y_l = (u[:, l] * s[l]).reshape(k, k, f_lev.dim), vh[l].reshape(1, 1, f_one.dim)
            total += f_lev.level_norm(a_l) * f_one.level_norm(y_l)
        if total > 0:
            uppers.append(total)
    return min(uppers)


def _func(rep):
    """Functional coordinates w_α = tr(rep · e_α) on M_2."""
    return np.array(
        [np.trace(rep @ E) for E in (np.outer(np.eye(2)[i], np.eye(2)[j]) for i in range(2) for j in range(2))]
    )


class TestShuffleContractivity:
    def test_w_shuffle_does_not_increase(self, rng):
        # w : (A⊗hB) ⊗̂ (C⊗hD) → (A⊗̂C) ⊗h (B⊗̂D) is completely contractive:
        # certified lowers of the image never exceed certified uppers of the
        # source, 50 random samples at levels 1 and 2
        from oscat.osx import M, canonical_map

        shuffle = canonical_map("shuffle_w", M(2), M(2), M(2), M(2)).matrix
        for trial in range(50):
            k = 1 + trial % 2
            upper = 0.0
            v = np.zeros((k, k, 256), dtype=complex)
            for _ in range(2):
                # level-k term A_l ⊗ t_l with h-certified factors
                a_flat = rand_complex(rng, 2 * k, 2 * k)
                b, c, d = (rand_complex(rng, 2) for _ in range(3))
                a_coords = a_flat.reshape(k, 2, k, 2).transpose(0, 2, 1, 3).reshape(k, k, 4)
                s_l = np.einsum("ijA,B->ijAB", a_coords, b.ravel()).reshape(k, k, 16)
                t_l = elem_coords(c.ravel(), d.ravel())
                v += np.einsum("ijA,B->ijAB", s_l, t_l).reshape(k, k, 256)
                upper += op_norm(a_flat) * op_norm(b) * op_norm(c) * op_norm(d)
            img = np.einsum("ab,ijb->ija", shuffle, v)
            lower = _dst_h_lower_level(img, k, rng)
            assert lower <= upper + 1e-6, (k, lower, upper)

    def test_v_shuffle_on_permutation_basis(self, rng):
        from oscat.osx import M, canonical_map

        cm = canonical_map("shuffle_v", M(2), M(2), M(2), M(2))
        va, vb, vc, vd = (rand_complex(rng, 2).ravel() for _ in range(4))
        src = np.einsum("a,b,c,d->abcd", va, vb, vc, vd).ravel()
        dst = cm.matrix @ src
        want = np.einsum("a,c,b,d->acbd", va, vc, vb, vd).ravel()
        assert np.allclose(dst, want)


def _dst_h_lower_level(img_coords, k, rng):
    """Certified lower bound in (A⊗̂C) ⊗h (B⊗̂D) from θ(F1⊗F2) witnesses.

    The witness is a complete contraction after normalization, so the operator
    norm of its scalar amplification [F(v_ij)] bounds the level-k norm below.
    """
    best = 0.0
    t = img_coords.reshape(k, k, 4, 4, 4, 4)  # (i, j, a, c, b, d)
    for _ in range(40):
        reps = [rand_complex(rng, 2) for _ in range(4)]
        funcs = [_func(r) for r in reps]
        g = np.einsum("ijacbd,a,c,b,d->ij", t, *funcs)
        cert = np.prod([tr_norm(r) for r in reps])
        if cert > 1e-12:
            best = max(best, op_norm(g) / cert)
    return best
