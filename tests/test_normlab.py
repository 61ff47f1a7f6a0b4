import numpy as np
import pytest

from conftest import random_cptp, random_superop
from oscat.matcore import op_norm, rand_complex, rand_unitary, tr_norm
from oscat.normlab.brackets import (
    FlatSpace,
    NormBracket,
    elem_coords,
    haagerup_bracket_flat,
    inj_norm_flat,
    proj_bracket_flat,
)
from oscat.normlab.diamond import (
    cb_norm,
    diamond_norm,
    diamond_seesaw_lower,
    dual_level_norm,
)
from oscat.matcore import BlockMatrix
from oscat.normlab import brackets as brackets_mod
from oscat.normlab import diamond as diamond_mod
from oscat.normlab import sdp as sdp_mod
from oscat.normlab.sdp import SdpResult
from oscat.supop import SuperOp, conjugation, identity_map, trace_map, transpose_map, zero_map

F2 = FlatSpace.base(2, 2)


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


class TestDiamond:
    def test_identity(self):
        br = diamond_norm(identity_map((2,)))
        assert br.status == "exact" and abs(br.mid - 1.0) <= 1e-6

    def test_cptp_is_one(self, rng):
        for _ in range(5):
            br = diamond_norm(random_cptp(rng, int(rng.integers(2, 4))))
            assert abs(br.mid - 1.0) <= 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_transpose_is_n(self, n, rng):
        br = diamond_norm(transpose_map(n))
        assert abs(br.mid - n) <= 1e-4
        # oracle: brute-force maximization at amplification level n
        low, _ = diamond_seesaw_lower(
            transpose_map(n), level=n, rng=np.random.default_rng(7), starts=4, iters=40
        )
        assert low >= n - 1e-4

    def test_seesaw_below_diamond(self, rng):
        s = random_superop(rng, 2)
        br = diamond_norm(s)
        prev = 0.0
        pair = None
        for k in (1, 2, 3):
            init = None
            if pair is not None:
                psi = np.zeros(2 * k, dtype=complex)
                phi = np.zeros(2 * k, dtype=complex)
                psi[: pair[0].size] = pair[0]
                phi[: pair[1].size] = pair[1]
                init = [(psi / np.linalg.norm(psi), phi / np.linalg.norm(phi))]
            low, pair = diamond_seesaw_lower(
                s, level=k, rng=np.random.default_rng(k), starts=3, iters=40,
                init_pairs=init,
            )
            # amplified norms approach the diamond norm from below, monotonely
            assert low <= br.upper + 1e-7
            assert low >= prev - 1e-9
            prev = low

    def test_block_map_diamond(self, rng):
        s = random_cptp(rng, 2).direct_sum(random_cptp(rng, 2))
        br = diamond_norm(s)
        assert abs(br.mid - 1.0) <= 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_transpose_bracket_contains_n(self, n):
        br = diamond_norm(transpose_map(n))
        assert br.status == "exact" and br.lower <= n <= br.upper

    @pytest.mark.parametrize("n", [2, 3])
    def test_cptp_bracket_contains_one(self, n, rng):
        for _ in range(3):
            br = diamond_norm(random_cptp(rng, n))
            assert br.status == "exact" and br.lower <= 1.0 <= br.upper

    def test_random_n3_newton_systems(self, monkeypatch, rng):
        # one Newton system per predictor–corrector iteration, about ten per solve
        from oscat.normlab import sdp as sdp_mod

        calls = []
        grad_hess = sdp_mod._Block.grad_hess
        monkeypatch.setattr(
            sdp_mod._Block, "grad_hess", lambda blk, sinv, z: calls.append(1) or grad_hess(blk, sinv, z)
        )
        for _ in range(3):
            calls.clear()
            br = diamond_norm(random_superop(rng, 3))
            assert br.status == "exact"
            assert len(calls) == br.witnesses["sdp_iterations"] <= 20

    @pytest.mark.parametrize("make", [random_superop, cptp_difference])
    def test_lmi_is_one_complex_block(self, monkeypatch, rng, make):
        # the Hermitian LMI goes to the core as complex triples, not through
        # the real embedding: one block of complex size 2·n² for n = 3
        seen = []
        solve = diamond_mod.sdp_solve
        monkeypatch.setattr(diamond_mod, "sdp_solve", lambda p, rel_gap: seen.append(p) or solve(p, rel_gap))
        assert diamond_norm(make(rng, 3)).status == "exact"
        (p,) = seen
        assert [f.shape for f in p.f0] == [(18, 18)] and [blk.n for blk in p.blocks] == [18]
        assert p.fs[0].dtype == sdp_mod.LMI_TRIPLE and np.iscomplexobj(p.fs[0]["val"])
        assert np.any(p.fs[0]["val"].imag != 0)

    def test_solver_failure_reason_kept(self, monkeypatch):
        monkeypatch.setattr(
            diamond_mod, "sdp_solve",
            lambda p, rel_gap: SdpResult(status="numerical_failure", message="barrier stalled"),
        )
        br = diamond_norm(random_superop(np.random.default_rng(1), 2))
        assert br.status == "unknown"
        assert br.witnesses["sdp_status"] == "numerical_failure"
        assert br.witnesses["reason"] == "sdp numerical_failure: barrier stalled"

    def test_crossed_certificate_is_unknown(self, monkeypatch):
        # dual value above the primal value: upper end -dual below lower end -value
        crossed = SdpResult(status="optimal", value=-2.0, dual_value=-1.5, gap=-0.5)
        monkeypatch.setattr(diamond_mod, "sdp_solve", lambda p, rel_gap: crossed)
        br = diamond_norm(transpose_map(2))
        assert br.status == "unknown" and br.witnesses["reason"] == "crossed certificate"
        assert br.witnesses["value"] == -2.0 and br.witnesses["dual_value"] == -1.5

    def test_rounding_crossing_kept(self, monkeypatch):
        # a crossing within 1e-12·(1+|value|) is rounding, not a bug
        near = SdpResult(status="optimal", value=-2.0, dual_value=-2.0 + 2e-12, gap=-2e-12)
        monkeypatch.setattr(diamond_mod, "sdp_solve", lambda p, rel_gap: near)
        br = diamond_norm(transpose_map(2))
        assert br.status == "exact" and br.lower == br.upper == 2.0


def random_cp(rng, n, rank=2):
    """CP map with `rank` random Kraus operators: Choi matrix V·V†, not trace preserving."""
    v = rand_complex(rng, n * n, rank)
    return SuperOp.from_big_choi(v @ v.conj().T, (n,), (n,))


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
    sdp = diamond_mod._diamond_sdp(s.big_choi(), sum(s.dom_shape), sum(s.cod_shape), 1e-8)
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
    def test_negative_shift_falls_back_to_sdp(self, monkeypatch, rng, n):
        # J − δI is not CP: the 2εL term makes the closed form too wide.  The
        # SDP's attained primal value (a feasible point, certificate or not)
        # lies in both brackets.
        j = random_cptp(rng, n).big_choi() - 1e-6 * np.eye(n * n)
        lo, hi = diamond_mod._closed_form_bracket(j, n, n)
        assert hi - lo > 1e-6
        seen = []
        solve = diamond_mod.sdp_solve
        monkeypatch.setattr(diamond_mod, "sdp_solve", lambda p, rel_gap: seen.append(solve(p, rel_gap)) or seen[-1])
        br = diamond_norm(SuperOp.from_big_choi(j, (n,), (n,)))
        (res,) = seen
        assert br.witnesses["route"] == "sdp"
        assert lo <= -res.value <= hi and br.lower <= -res.value <= br.upper
        if br.status != "unknown":
            assert lo <= br.upper and br.lower <= hi

    def test_anti_hermitian_defect_stays_closed_form(self, monkeypatch, rng):
        b = rand_complex(rng, 9)
        j = random_cptp(rng, 3).big_choi() + 1e-14 * (b - b.conj().T)
        s = SuperOp.from_big_choi(j, (3,), (3,))
        _overlaps_sdp(_closed_form(monkeypatch, lambda: diamond_norm(s)), s)


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
        z = zero_map((1, 0), (1,))
        assert diamond_norm(z).mid == 0.0 and cb_norm(z, "operator").mid == 0.0
        # C ≅ [0, 1] → M_2, 1 ↦ diag(1, −2): trace norm 3, operator norm 2
        img = np.diag([1.0, -2.0])
        s = SuperOp.from_action(lambda x: BlockMatrix([x.blocks[1][0, 0] * img]), (0, 1), (2,))
        assert abs(diamond_norm(s).mid - 3.0) <= 1e-12
        assert abs(cb_norm(s, "operator").mid - 2.0) <= 1e-12

    def test_transpose_operator_picture(self):
        # transpose is its own trace-adjoint, so both pictures give n
        br = cb_norm(transpose_map(2), "operator")
        assert abs(br.mid - 2.0) <= 1e-4


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
    def test_elementary_is_product_of_norms(self, rng, shapes):
        (n1, m1), (n2, m2) = shapes
        a, b = rand_complex(rng, n1, m1), rand_complex(rng, n2, m2)
        fa, fb = FlatSpace.base(n1, m1), FlatSpace.base(n2, m2)
        br = haagerup_bracket_flat(elem_coords(a.ravel(), b.ravel()), 1, fa, fb)
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

    def test_size_cap_fallback_contains_sdp_value(self, monkeypatch, rng):
        for k in (1, 2):
            v = rand_complex(rng, 1, k * k * 16).ravel().reshape(k, k, 16)
            exact = haagerup_bracket_flat(v, k, F2, F2)
            with monkeypatch.context() as mp:
                br = self._capped(mp, v, k)
            assert br.witnesses["reason"] == "sdp size cap"
            assert br.status != "unknown"
            assert br.lower == inj_norm_flat(v, k, F2, F2).upper
            assert br.lower <= exact.lower + 1e-9 and exact.upper <= br.upper + 1e-9

    def test_factorization_witness_reconstructs(self, monkeypatch, rng):
        w = rand_complex(rng, 1, 16).ravel()
        br = self._capped(monkeypatch, w, 1)
        x, y = br.witnesses["x"], br.witnesses["y"]
        rebuilt = np.einsum("ila,ljb->ijab", x, y).reshape(1, 1, 16)
        assert np.allclose(rebuilt.ravel(), w, atol=1e-10)
        prod = F2.rect_norm(x) * F2.rect_norm(y)
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
