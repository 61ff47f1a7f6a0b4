import numpy as np
import pytest

from oscat.config import RunConfig
from oscat.errors import UnsupportedSpaceError
from oscat.matcore import kron, op_norm, rand_complex, rand_unitary, tr_norm
from oscat.osx import (
    _flat,
    M,
    SpaceElement,
    SpaceSyntaxError,
    T,
    algebra_space,
    canonical_map,
    coalgebra_space,
    conj,
    dim,
    dual,
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

    LEAVES = [M(2), M(2, 3), T(2), opp(M(2)), conj(M(2))]
    DUAL_CTOR = {sum_inf: sum_1, sum_1: sum_inf, tens_min: tens_proj, tens_proj: tens_min, tens_h: tens_h}

    @pytest.mark.parametrize("ctor", list(DUAL_CTOR), ids=lambda c: c.__name__)
    def test_duality_table(self, ctor):
        # De Morgan rows of the duality, the double dual, dual through opp,
        # and idempotence, on every pair of leaves
        for a in self.LEAVES:
            for b in self.LEAVES:
                x = ctor(a, b)
                nx, ndx = normalize_space(x), normalize_space(dual(x))
                assert ndx == self.DUAL_CTOR[ctor](normalize_space(dual(a)), normalize_space(dual(b)))
                assert normalize_space(dual(dual(x))) == nx
                assert normalize_space(dual(opp(x))) == opp(ndx)
                assert normalize_space(nx) == nx and normalize_space(ndx) == ndx


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

    def test_min_tensor_skips_whole_placement(self, rng, config):
        # M(8) ⊗min M(8): FlatSpace.tens_min's (4096, 64, 64) placement would
        # take 256 MiB; the flat 64×64 matrix takes 64 KiB
        import tracemalloc

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

    def test_nested_min_tensor_flattens_by_index(self, rng, config):
        # (M(8) ⊗min M(8)) ⊕∞ M(1) goes through _flat's placement; a dense
        # (4097, 65, 65) placement would take over 256 MiB
        import tracemalloc

        n = 8
        coords = rand_complex(rng, 1, n ** 4 + 1).ravel()
        kron_norm = op_norm(coords[:-1].reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n))
        want = max(kron_norm, abs(coords[-1]))
        el = SpaceElement(sum_inf(tens_min(M(n), M(n)), M(1)), 1, coords)
        tracemalloc.start()
        try:
            br = norm_at(el, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert br.status == "exact" and abs(br.upper - want) <= 1e-12 * want
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("op", ["(+inf)", "(+1)"])
    def test_sum_with_unknown_part_is_unknown(self, op, config):
        # the unknown part's infinite upper end must not become an exact bracket
        sp = parse_space(f"(T(2) (*h) T(2)) {op} M(1)")
        br = norm_at(SpaceElement(sp, 1, np.ones(17, complex)), config)
        assert br.status == "unknown"
        assert br.witnesses["reason"] == "no route for (T(2) (*h) T(2))"

    def test_brackets_independent_of_config(self):
        # no route reads the seed or the tolerance
        rng = np.random.default_rng(0)
        coords = rng.standard_normal((2, 2, 16)) + 1j * rng.standard_normal((2, 2, 16))
        for space in (tens_h(M(2), M(2)), tens_proj(M(2), M(2))):
            el = SpaceElement(space, 2, coords)
            ends = {
                (b.lower, b.upper, b.status)
                for b in (norm_at(el, RunConfig(seed=s, tol=t)) for s in (1, 2) for t in (1e-9, 1e-6))
            }
            assert len(ends) == 1

    def test_sdp_bracket_repeats_bit_identically(self):
        # a non-elementary ⊗h element that only the SDP decides (neither
        # closed form does), so the route is checked first
        rng = np.random.default_rng(3)
        el = SpaceElement(tens_h(M(2), M(2)), 1, rand_complex(rng, 1, 16).ravel())
        first, again = norm_at(el), norm_at(el)
        assert first.witnesses["route"] == "sdp"
        assert first is not again
        assert (first.lower, first.upper, first.status) == (again.lower, again.upper, again.status)


class TestFlatRealization:
    def test_base_and_sums(self, rng):
        # the flat placement of M(2) ⊕∞ M(1,3) stacks the blocks diagonally
        space = sum_inf(M(2), M(1, 3))
        fs = _flat(space)
        assert (fs.rows, fs.cols, fs.dim) == (3, 5, 7)
        x, y = rand_complex(rng, 2), rand_complex(rng, 1, 3)
        br = norm_at(SpaceElement(space, 1, np.concatenate([x.ravel(), y.ravel()])))
        assert br.status == "exact"
        assert abs(br.mid - max(op_norm(x), op_norm(y))) < 1e-12

    def test_dual_unsupported(self):
        with pytest.raises(UnsupportedSpaceError):
            _flat(T(2))

    CORPUS = [
        M(3), M(2, 3), opp(M(2, 3)), conj(M(2)), sum_inf(M(2), M(1, 3)), tens_min(M(2), M(1, 2)),
        tens_min(opp(M(2, 3)), sum_inf(M(1), M(2))), sum_inf(tens_min(M(2), M(2)), opp(M(1, 2))),
        opp(tens_min(sum_inf(M(1, 2), M(2)), M(2, 1))),
    ]

    @pytest.mark.parametrize("space", CORPUS, ids=format_space)
    def test_placement_is_matrix_units(self, space, rng):
        # pos sends the basis injectively onto matrix units, at the places the
        # dense construction (kron, transpose, block diagonal) puts them, and
        # the scatter flatten equals the einsum with that dense placement
        fs = _flat(space)
        assert fs.dim == dim(space)
        assert len(np.unique(fs.pos)) == fs.dim
        assert 0 <= fs.pos.min() and fs.pos.max() < fs.rows * fs.cols
        dense = np.eye(fs.rows * fs.cols)[fs.pos].reshape(fs.dim, fs.rows, fs.cols)
        assert np.array_equal(dense, _dense_place(space))
        for lead in ((1, 1), (2, 2), (2, 1), (3, 2, 2)):
            coords = rand_complex(rng, int(np.prod(lead)), fs.dim).reshape(*lead, fs.dim)
            want = np.einsum("...ija,arc->...irjc", coords, dense)
            want = want.reshape(*lead[:-2], lead[-2] * fs.rows, lead[-1] * fs.cols)
            assert np.array_equal(fs.flatten(coords), want)


def _dense_place(x):
    """(dim, rows, cols) placement of a flat space built from whole matrices."""
    if x.kind == "base":
        n, m = x.args
        return np.eye(n * m).reshape(n * m, n, m)
    if x.kind == "conj":
        return _dense_place(x.args[0])
    if x.kind == "opp":
        return _dense_place(x.args[0]).transpose(0, 2, 1)
    a, b = (_dense_place(y) for y in x.args)
    if x.kind == "tens_min":
        return np.array([np.kron(pa, pb) for pa in a for pb in b])
    out = np.zeros((len(a) + len(b), a.shape[1] + b.shape[1], a.shape[2] + b.shape[2]))
    out[: len(a), : a.shape[1], : a.shape[2]] = a
    out[len(a) :, a.shape[1] :, a.shape[2] :] = b
    return out


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


def _swap_factors(coords, da, db):
    """γ on level-k coordinates: swap the tensor factors, keep the outer indices."""
    k = coords.shape[0]
    return coords.reshape(k, k, da, db).transpose(0, 1, 3, 2).reshape(k, k, da * db)


class TestConjOppPush:
    """The conj/opp identities, stated through the one norm path `norm_at`."""

    def test_double_conj_element(self, rng):
        el = SpaceElement(conj(conj(M(2))), 1, rand_complex(rng, 2).ravel())
        assert el.space == M(2)

    def test_opp_over_haagerup_swaps(self):
        # (X ⊗h Y)^op ≅ Y^op ⊗h X^op through γ (Effros–Ruan, Operator Spaces,
        # ch. 9); at level 2 the value is not the plain ⊗h norm
        rng = np.random.default_rng(5)
        for n, m in ((2, 2), (2, 3)):
            for k in (1, 2):
                v = rand_complex(rng, k, k * n * n * m * m).reshape(k, k, -1)
                lhs = norm_at(SpaceElement(opp(tens_h(M(n), M(m))), k, v))
                gv = _swap_factors(v, n * n, m * m)
                rhs = norm_at(SpaceElement(tens_h(opp(M(m)), opp(M(n))), k, gv))
                assert lhs.status == rhs.status == "exact"
                assert abs(lhs.lower - rhs.lower) <= 1e-10 * rhs.upper
                assert abs(lhs.upper - rhs.upper) <= 1e-10 * rhs.upper
                if (n, m, k) == (2, 2, 2):
                    plain = norm_at(SpaceElement(tens_h(M(n), M(m)), k, v))
                    assert abs(plain.mid - lhs.mid) > 1e-3 * lhs.mid

    def test_opp_distributes_over_sums(self, rng):
        # (X ⊕∞ Y)^op = X^op ⊕∞ Y^op on the same coordinates
        v = rand_complex(rng, 2, 2 * 13).reshape(2, 2, 13)
        b1 = norm_at(SpaceElement(opp(sum_inf(M(2), M(3))), 2, v))
        b2 = norm_at(SpaceElement(sum_inf(opp(M(2)), opp(M(3))), 2, v))
        assert b1.status == b2.status == "exact"
        assert abs(b1.mid - b2.mid) < 1e-12

    def test_norms_agree_after_push(self, rng):
        # conj(X ⊗h Y) = conj(X) ⊗h conj(Y), with the norms of X ⊗h Y
        a, b = rand_complex(rng, 2), rand_complex(rng, 2)
        v = np.outer(a.ravel(), b.ravel()).ravel()
        brs = [
            norm_at(SpaceElement(sp, 1, v))
            for sp in (conj(tens_h(M(2), M(2))), tens_h(conj(M(2)), conj(M(2))), tens_h(M(2), M(2)))
        ]
        assert all(br.status == "exact" for br in brs)
        assert max(br.mid for br in brs) - min(br.mid for br in brs) < 1e-12
        assert abs(brs[0].mid - op_norm(a) * op_norm(b)) <= 1e-8


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
