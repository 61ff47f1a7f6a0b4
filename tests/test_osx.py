import numpy as np
import pytest

from oscat import osx
from oscat.config import RunConfig
from oscat.errors import UnsupportedSpaceError
from oscat.matcore import kron, op_norm, rand_complex, rand_unitary, tr_norm
from oscat.osx import (
    M,
    SpaceElement,
    SpaceSyntaxError,
    T,
    algebra_space,
    canonical_map,
    coalgebra_space,
    conj,
    conj_opp_push,
    dim,
    dual,
    flat_realization,
    format_space,
    norm_at,
    normalize_space,
    opp,
    parse_space,
    sum_1,
    sum_inf,
    tens_h,
    tens_min,
    tens_proj,
)


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "M(2)",
            "M(2,3)",
            "T(3)",
            "dual(M(2,3))",
            "conj(opp(M(2)))",
            "M(2) (*h) M(2)",
            "(M(2) (+inf) M(3)) (*min) T(2)",
            "dual(M(2) (+inf) M(3))",
            "M(2) (+1) M(3) (*proj) T(2)",
        ],
    )
    def test_roundtrip(self, text):
        e = parse_space(text)
        assert parse_space(format_space(e)) == e

    @pytest.mark.parametrize("bad", ["", "M(", "M(2", "M(2,)", "Q(2)", "M(2) (*q) M(2)", "M(2))"])
    def test_errors(self, bad):
        with pytest.raises(SpaceSyntaxError):
            parse_space(bad)

    def test_name_resolution(self):
        e = parse_space("A (*h) M(2)", names={"A": M(3)})
        assert e == tens_h(M(3), M(2))

    def test_dims(self):
        assert dim(parse_space("M(2,3)")) == 6
        assert dim(parse_space("T(3)")) == 9
        assert dim(parse_space("M(2) (+1) M(3)")) == 13
        assert dim(parse_space("M(2) (*h) M(3)")) == 36


class TestNormalization:
    def test_involutions_square_to_identity(self):
        assert conj(conj(M(2))) == M(2)
        assert opp(opp(M(2))) == M(2)
        assert opp(conj(M(2))) == conj(opp(M(2)))

    def test_dual_rules(self):
        assert normalize_space(dual(dual(M(2)))) == M(2)
        assert normalize_space(dual(sum_inf(M(2), M(3)))) == sum_1(T(2), T(3))
        assert normalize_space(dual(sum_1(T(2), T(3)))) == sum_inf(M(2), M(3))
        assert normalize_space(dual(tens_min(M(2), M(3)))) == tens_proj(T(2), T(3))
        assert normalize_space(dual(tens_h(M(2), M(3)))) == tens_h(T(2), T(3))
        assert normalize_space(dual(opp(M(2)))) == opp(T(2))


class TestNormAt:
    def test_unitary_level_one(self, rng, config):
        u = rand_unitary(rng, 3)
        br = norm_at(SpaceElement(M(3), 1, u.ravel()), config)
        assert br.status == "exact" and abs(br.mid - 1.0) < 1e-12

    def test_trace_class_identity(self, config):
        br = norm_at(SpaceElement(T(2), 1, np.eye(2).ravel()), config)
        assert abs(br.mid - 2.0) <= 1e-6

    def test_rect_dual(self, rng, config):
        # Dual(M(1,2)): functional norm is the ℓ2 norm of the representing col
        rep = rand_complex(rng, 2, 1)
        br = norm_at(SpaceElement(dual(M(1, 2)), 1, rep.ravel()), config)
        assert abs(br.mid - np.linalg.norm(rep)) <= 1e-9

    def test_suminf_is_max(self, rng, config):
        x, y = rand_unitary(rng, 2), 3 * rand_unitary(rng, 2)
        el = SpaceElement(sum_inf(M(2), M(2)), 1, np.concatenate([x.ravel(), y.ravel()]))
        assert abs(norm_at(el, config).mid - 3.0) < 1e-12

    def test_sum1_of_trace_classes(self, rng, config):
        c1, c2 = rand_complex(rng, 2), rand_complex(rng, 3)
        el = SpaceElement(sum_1(T(2), T(3)), 1, np.concatenate([c1.ravel(), c2.ravel()]))
        br = norm_at(el, config)
        assert abs(br.mid - (tr_norm(c1) + tr_norm(c2))) <= 1e-6

    def test_sum1_levels_via_dual_algebra(self, rng, config):
        # level-2 norm of a ⊕₁T element dispatches through the dual algebra
        coords = np.zeros((2, 2, 8), dtype=complex)
        for i in range(2):
            for j in range(2):
                coords[i, j] = np.concatenate(
                    [rand_complex(rng, 2).ravel() * 0.3, rand_complex(rng, 2).ravel() * 0.3]
                )
        br = norm_at(SpaceElement(sum_1(T(2), T(2)), 2, coords), config)
        assert br.status in ("exact", "bracket") and br.upper < np.inf

    def test_min_tensor_is_kron_opnorm(self, rng, config):
        a, b = rand_complex(rng, 2), rand_complex(rng, 3)
        el = SpaceElement(tens_min(M(2), M(3)), 1, np.outer(a.ravel(), b.ravel()).ravel())
        br = norm_at(el, config)
        assert br.status == "exact"
        assert abs(br.mid - op_norm(kron(a, b))) < 1e-12

    def test_opp_outer_transpose(self, rng, config):
        xs = [[rand_complex(rng, 2) for _ in range(2)] for _ in range(2)]
        coords = np.zeros((2, 2, 4), complex)
        swapped = np.zeros((2, 2, 4), complex)
        for i in range(2):
            for j in range(2):
                coords[i, j] = xs[i][j].ravel()
                swapped[j, i] = xs[i][j].ravel()
        b1 = norm_at(SpaceElement(opp(M(2)), 2, coords), config)
        b2 = norm_at(SpaceElement(M(2), 2, swapped), config)
        assert abs(b1.mid - b2.mid) < 1e-12

    def test_conj_same_norm(self, rng, config):
        x = rand_complex(rng, 2)
        b1 = norm_at(SpaceElement(conj(M(2)), 1, x.ravel()), config)
        assert abs(b1.mid - op_norm(x)) < 1e-12

    def test_level_embedding_monotone(self, rng, config):
        # x ↦ x ⊕ 0 never decreases the norm (axiom M1 consequence)
        for space in (M(2), T(2), tens_min(M(2), M(2))):
            d = dim(space)
            x = rand_complex(rng, 1, d).ravel()
            lo = norm_at(SpaceElement(space, 1, x), config)
            coords = np.zeros((2, 2, d), dtype=complex)
            coords[0, 0] = x
            hi = norm_at(SpaceElement(space, 2, coords), config)
            assert hi.upper >= lo.lower - 1e-7
            assert abs(hi.mid - lo.mid) <= 1e-6  # embedding is isometric here

    def test_unknown_is_honest(self, config):
        deep = tens_proj(T(2), tens_proj(T(2), T(2)))
        br = norm_at(SpaceElement(deep, 1, np.zeros(64, complex) + 1), config)
        assert br.status in ("unknown", "bracket", "upper_only")

    def test_min_tensor_skips_whole_placement(self, monkeypatch, rng, config):
        # M(8) ⊗min M(8): FlatSpace.tens_min's (4096, 64, 64) placement would
        # take 256 MiB; the flat 64×64 matrix takes 64 KiB
        import tracemalloc
        from collections import OrderedDict

        monkeypatch.setattr(osx, "_NORM_CACHE", OrderedDict())
        n = 8
        coords = rand_complex(rng, 1, n ** 4).ravel()
        want = op_norm(coords.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n))
        el = SpaceElement(tens_min(M(n), M(n)), 1, coords)
        tracemalloc.start()
        try:
            br = norm_at(el, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert br.status == "exact" and abs(br.upper - want) <= 1e-12 * want
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("op", ["(+inf)", "(+1)"])
    def test_sum_with_unknown_part_is_unknown(self, op, config):
        # the unknown part's infinite upper end must not become an exact bracket
        sp = parse_space(f"(T(2) (*h) T(2)) {op} M(1)")
        br = norm_at(SpaceElement(sp, 1, np.ones(17, complex)), config)
        assert br.status == "unknown"
        assert br.witnesses["reason"] == "no route for (T(2) (*h) T(2))"

    def test_norm_cache_hit(self, rng, config):
        u = rand_unitary(rng, 2)
        el = SpaceElement(M(2), 1, u.ravel())
        assert norm_at(el, config) is norm_at(el, config)

    def test_norm_cache_is_bounded_lru(self, monkeypatch, config):
        monkeypatch.setattr(osx, "NORM_CACHE_SIZE", 3)
        osx._NORM_CACHE.clear()
        els = [SpaceElement(M(2), 1, (i + 1.0) * np.eye(2).ravel()) for i in range(4)]
        first = [norm_at(e, config) for e in els[:3]]
        assert norm_at(els[0], config) is first[0]  # a repeat hits and becomes the newest entry
        norm_at(els[3], config)  # past the bound: the least recently used entry goes
        assert len(osx._NORM_CACHE) == 3
        assert norm_at(els[0], config) is first[0]
        assert norm_at(els[2], config) is first[2]
        assert norm_at(els[1], config) is not first[1]
        osx._NORM_CACHE.clear()

    def test_norm_cache_keyed_on_seed_and_tol(self):
        # the cache is keyed on (seed, tol); no tensor bracket depends on the seed
        rng = np.random.default_rng(0)
        coords = rng.standard_normal((2, 2, 16)) + 1j * rng.standard_normal((2, 2, 16))
        for space in (tens_h(M(2), M(2)), tens_proj(M(2), M(2))):
            el = SpaceElement(space, 2, coords)
            osx._NORM_CACHE.clear()
            first = norm_at(el, RunConfig(seed=1))
            assert norm_at(el, RunConfig(seed=1)) is first
            other = norm_at(el, RunConfig(seed=2))
            loose = norm_at(el, RunConfig(seed=1, tol=1e-6))
            assert len(osx._NORM_CACHE) == 3
            assert other is not first and loose is not first
            assert (other.lower, other.upper) == (first.lower, first.upper)
        osx._NORM_CACHE.clear()


class TestFlatRealization:
    def test_base_and_sums(self):
        fs = flat_realization(sum_inf(M(2), M(1, 3)))
        assert (fs.rows, fs.cols, fs.dim) == (3, 5, 7)

    def test_dual_unsupported(self):
        with pytest.raises(UnsupportedSpaceError):
            flat_realization(T(2))


class TestCanonicalMaps:
    def test_double_dual_identity(self, rng):
        cm = canonical_map("double_dual", M(2))
        el = SpaceElement(M(2), 1, rand_complex(rng, 2).ravel())
        out = cm.apply(el)
        assert np.allclose(out.coords, el.coords)
        assert normalize_space(out.space) == M(2)

    def test_swap_on_elementary(self, rng):
        g = canonical_map("swap", M(2), M(3))
        a, b = rand_complex(rng, 2), rand_complex(rng, 3)
        el = SpaceElement(tens_h(M(2), M(3)), 1, np.outer(a.ravel(), b.ravel()).ravel())
        out = g.apply(el)
        assert np.allclose(out.coords.ravel(), np.outer(b.ravel(), a.ravel()).ravel())

    def test_theta_is_identity_matrix(self):
        th = canonical_map("haagerup_self_dual", M(2), M(2))
        assert np.allclose(th.matrix, np.eye(16))

    def test_theta_pairing_on_basis(self):
        # θ(f⊗g)(x⊗y) = f(x)·g(y), exactly, via the coordinate pairing
        from oscat.qglue import pairing

        for fi in range(4):
            for xi in range(4):
                for gi in range(4):
                    for yi in range(4):
                        f = np.eye(4)[fi]
                        g = np.eye(4)[gi]
                        x = np.eye(4)[xi]
                        y = np.eye(4)[yi]
                        lhs = pairing(
                            tens_h(M(2), M(2)), np.outer(f, g).ravel(), np.outer(x, y).ravel()
                        )
                        rhs = pairing(M(2), f, x) * pairing(M(2), g, y)
                        assert lhs == rhs

    def test_shuffle_is_permutation(self):
        cm = canonical_map("shuffle_w", M(2), M(2), M(2), M(2))
        m = cm.matrix
        assert np.allclose(m @ m.T, np.eye(m.shape[0]))
        assert np.allclose(np.abs(m).sum(axis=0), 1)


class TestConjOppPush:
    def test_double_conj_element(self, rng):
        el = SpaceElement(conj(conj(M(2))), 1, rand_complex(rng, 2).ravel())
        assert el.space == M(2)

    def test_opp_over_haagerup_swaps(self, rng):
        a, b = rand_complex(rng, 2), rand_complex(rng, 3)
        el = SpaceElement(
            opp(tens_h(M(2), M(3))), 1, np.outer(a.ravel(), b.ravel()).ravel()
        )
        out = conj_opp_push(el)
        assert out.space == tens_h(opp(M(3)), opp(M(2)))
        want = np.outer(b.ravel(), a.ravel()).ravel()
        assert np.allclose(out.coords.ravel(), want)

    def test_opp_distributes_over_sums(self, rng):
        el = SpaceElement(
            opp(sum_inf(M(2), M(3))), 1, rand_complex(rng, 1, 13).ravel()
        )
        out = conj_opp_push(el)
        assert out.space == sum_inf(opp(M(2)), opp(M(3)))
        assert np.allclose(out.coords, el.coords)

    def test_norms_agree_after_push(self, rng, config):
        a, b = rand_complex(rng, 2), rand_complex(rng, 2)
        el = SpaceElement(
            opp(tens_h(M(2), M(2))), 1, np.outer(a.ravel(), b.ravel()).ravel()
        )
        out = conj_opp_push(el)
        b1, b2 = norm_at(el, config), norm_at(out, config)
        assert b1.lower <= b2.upper + 1e-6 and b2.lower <= b1.upper + 1e-6


class TestDualIsometryQuotient:
    def test_row_inclusion_dual_is_quotient(self, rng, config):
        # the dual of M_{1,2} ↪ M_2 maps the T_2 ball onto the dual ball:
        # every functional on the row space lifts at equal norm
        worst = 0.0
        for _ in range(25):
            rep = rand_complex(rng, 2, 1)  # functional on M_{1,2}
            fnorm = norm_at(SpaceElement(dual(M(1, 2)), 1, rep.ravel()), config).mid
            if fnorm > 1.0:
                rep = rep / fnorm
                fnorm = 1.0
            lift = np.zeros((2, 2), dtype=complex)
            lift[:, :1] = rep  # rank-one extension, same trace norm
            lift_norm = norm_at(SpaceElement(T(2), 1, lift.ravel()), config).mid
            worst = max(worst, abs(lift_norm - fnorm))
        assert worst <= 1e-3

    def test_haagerup_not_symmetric(self, config):
        # an expected witness: h(v) = 1 but h(γv) = 2 for v = Σ e_k1 ⊗ e_1k
        n = 2
        v = np.zeros(16, dtype=complex)
        gv = np.zeros(16, dtype=complex)
        for k in range(n):
            v += np.outer(
                np.outer(np.eye(n)[k], np.eye(n)[0]).ravel(),
                np.outer(np.eye(n)[0], np.eye(n)[k]).ravel(),
            ).ravel()
            gv += np.outer(
                np.outer(np.eye(n)[0], np.eye(n)[k]).ravel(),
                np.outer(np.eye(n)[k], np.eye(n)[0]).ravel(),
            ).ravel()
        sp = tens_h(M(2), M(2))
        b1 = norm_at(SpaceElement(sp, 1, v), config)
        b2 = norm_at(SpaceElement(sp, 1, gv), config)
        slack = (b1.upper - b1.lower) + (b2.upper - b2.lower) + 1e-9
        assert abs(b2.mid - b1.mid) > slack


class TestBlockSpaces:
    def test_algebra_space_roundtrip(self):
        sp = algebra_space([2, 3])
        assert dim(sp) == 13
        assert normalize_space(dual(coalgebra_space([2, 3]))) == sp
