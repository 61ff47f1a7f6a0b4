import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_cptp, random_superop
from oscat import vnstruct
from oscat.errors import InvalidInputError, SizeLimitError
from oscat.matcore import (
    BlockMatrix,
    blockwise_transpose,
    pair_reindex,
    pair_shape,
    rand_complex,
    rand_hermitian,
    rand_unitary,
)
from oscat.supop import SuperOp, conjugation, depolarizing, identity_map, transpose_map
from oscat.vnstruct import (
    VnAlgebra,
    VnCoalgebra,
    abstract_positive_functional,
    certify_morphism,
    check_laws,
    direct_sum_algebra,
    direct_sum_coalgebra,
    dualize,
    make_algebra,
    make_coalgebra,
    positivity,
    tensor_algebra,
    tensor_coalgebra,
    trace_pairing,
)

SHAPES = ([1], [2], [3], [2, 1], [2, 2])


def _structure(shape, product, star, unit_blocks) -> VnAlgebra:
    """Algebra whose tensors are read off blockwise formulas, one basis pair at a time.

    product(x, y) and star(x) act on lists of blocks; i(e_a) = P[:, a] since
    the basis is real.
    """
    d = sum(k * k for k in shape)
    basis = [BlockMatrix.from_vector(e, shape).blocks for e in np.eye(d)]
    mult = np.array(
        [BlockMatrix(product(x, y)).to_vector() for x in basis for y in basis]
    ).T
    inv = np.array([BlockMatrix(star(x)).to_vector() for x in basis]).T
    return VnAlgebra(tuple(shape), BlockMatrix(unit_blocks).to_vector(), mult, inv)


def _unitary_twist(shape, rng, anti=None) -> VnAlgebra:
    """C*-algebra: unit u, x·u*·y (or y·u*·x on anti blocks), involution u·x*·u."""
    us = [rand_unitary(rng, k) for k in shape]
    anti = [i % 2 == 1 for i in range(len(shape))] if anti is None else anti

    def product(x, y):
        return [b @ u.conj().T @ a if f else a @ u.conj().T @ b for a, b, u, f in zip(x, y, us, anti)]

    return _structure(shape, product, lambda x: [u @ a.conj().T @ u for a, u in zip(x, us)], us)


def _positive_twist(shape, rng, scale=1.0) -> VnAlgebra:
    """*-algebra x·a·y, unit a⁻¹, involution a⁻¹·x*·a, a = gg* + I ≻ I: not C*.

    g is a complex Gaussian times `scale`; larger scales give larger entries.
    """
    aa = []
    for k in shape:
        g = scale * rand_complex(rng, k)
        aa.append(g @ g.conj().T + np.eye(k))
    ai = [np.linalg.inv(a) for a in aa]

    def product(x, y):
        return [p @ a @ q for p, q, a in zip(x, y, aa)]

    return _structure(shape, product, lambda x: [b @ p.conj().T @ a for p, a, b in zip(x, aa, ai)], ai)


def _involution_twist(shape, rng) -> VnAlgebra:
    """⊕M_k with involution h·x*·h⁻¹, h Hermitian and invertible: not C* unless h is scalar."""
    hs = [rand_hermitian(rng, k) + 3 * np.eye(k) for k in shape]

    def product(x, y):
        return [p @ q for p, q in zip(x, y)]

    def star(x):
        return [h @ p.conj().T @ np.linalg.inv(h) for p, h in zip(x, hs)]

    return _structure(shape, product, star, [np.eye(k) for k in shape])


def _cstar_defect(alg: VnAlgebra, x: BlockMatrix) -> float:
    return abs(alg.multiply(alg.involute(x), x).op_norm() - x.op_norm() ** 2)


class TestConstruction:
    def test_comultiplication_formula(self):
        # δ(e_00) = e_00 ⊗ e_00 + e_10 ⊗ e_01 on T_2, expanded symbolically
        co = make_coalgebra([2])
        e00 = BlockMatrix([np.array([[1, 0], [0, 0]], dtype=complex)])
        dv = co.comult(e00).reshape(4, 4)
        want = np.zeros((4, 4))
        want[0, 0] = 1.0  # e_00 ⊗ e_00
        want[2, 1] = 1.0  # e_10 ⊗ e_01
        assert np.allclose(dv, want)

    def test_symbolic_delta_oracle(self):
        # independent expansion of δ(e_ij) = Σ_k e_kj ⊗ e_ik for every basis unit
        n = 3
        co = make_coalgebra([n])
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1.0
                dv = co.comult(BlockMatrix([e])).reshape(n * n, n * n)
                want = np.zeros((n * n, n * n))
                for k in range(n):
                    want[k * n + j, i * n + k] += 1.0
                assert np.allclose(dv, want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_mult_mat_matches_block_products(self, shape):
        alg = make_algebra(shape)
        d = alg.dim
        for a in range(d):
            xa = BlockMatrix.from_vector(np.eye(d)[a], shape)
            for b in range(d):
                xb = BlockMatrix.from_vector(np.eye(d)[b], shape)
                assert np.array_equal(alg.mult_mat[:, a * d + b], (xa @ xb).to_vector())

    def test_scalar_algebra(self):
        alg = make_algebra([1])
        assert np.allclose(alg.unit_vec, [1.0])
        assert np.allclose(alg.mult_mat, [[1.0]])

    def test_mixed_shape_unit(self):
        alg = make_algebra([2, 3])
        u = alg.unit()
        assert np.allclose(u.blocks[0], np.eye(2)) and np.allclose(u.blocks[1], np.eye(3))

    @pytest.mark.parametrize("shape", [[2], [3, 1], [2, 0, 2], []])
    def test_blockwise_transpose_index(self, shape):
        d = sum(k * k for k in shape)
        want = np.zeros((d, d))
        off = 0
        for k in shape:
            for i in range(k):
                for j in range(k):
                    want[off + j * k + i, off + i * k + j] = 1.0
            off += k * k
        assert np.array_equal(np.eye(d)[blockwise_transpose(shape)], want)
        assert np.array_equal(make_algebra(shape).inv_mat, want)

    def test_structure_size_cap(self):
        # a 1000x10^6 structure matrix could not be allocated either way
        with pytest.raises(SizeLimitError):
            make_algebra([1000])
        with pytest.raises(SizeLimitError):
            make_coalgebra([1000])


class TestLaws:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_algebra_laws(self, shape):
        rep = check_laws(make_algebra(shape))
        assert rep.passed, rep.failures

    @pytest.mark.parametrize("shape", SHAPES)
    def test_coalgebra_laws(self, shape):
        rep = check_laws(make_coalgebra(shape))
        assert rep.passed, rep.failures

    def test_laws_at_m6(self):
        assert check_laws(make_algebra([6])).passed
        assert check_laws(make_coalgebra([6])).passed

    def test_mutated_comult_flagged(self):
        co = make_coalgebra([2])
        bad = replace(co, comult_mat=co.comult_mat.copy())
        bad.comult_mat[3, 1] += 1e-3
        rep = check_laws(bad)
        assert not rep.passed
        assert any("coassociativity" == f[0] for f in rep.failures)

    def test_mutated_mult_flagged(self):
        alg = make_algebra([2])
        bad = replace(alg, mult_mat=alg.mult_mat.copy())
        bad.mult_mat[2, 9] += 1e-3
        assert not check_laws(bad).passed

    def test_associativity_errors_match_whole_tensor(self, rng):
        # the slice-by-slice check reports the max-abs error of the d⁴ identity
        alg, co = make_algebra([2, 1]), make_coalgebra([2, 1])
        d = alg.dim
        bad_a = replace(alg, mult_mat=alg.mult_mat + 1e-3 * rand_complex(rng, d, d * d))
        bad_c = replace(co, comult_mat=co.comult_mat + 1e-3 * rand_complex(rng, d * d, d))
        m = bad_a.mult_mat.reshape(d, d, d)
        dv = bad_c.comult_mat.reshape(d, d, d)
        ref_a = np.abs(
            np.einsum("exc,xab->eabc", m, m) - np.einsum("eax,xbc->eabc", m, m)
        ).max()
        ref_c = np.abs(
            np.einsum("ijx,xka->ijka", dv, dv) - np.einsum("jkx,ixa->ijka", dv, dv)
        ).max()
        got_a = dict(check_laws(bad_a).failures)["associativity"]
        got_c = dict(check_laws(bad_c).failures)["coassociativity"]
        assert got_a == pytest.approx(ref_a, rel=1e-12)
        assert got_c == pytest.approx(ref_c, rel=1e-12)

    def test_mutated_involution_flagged(self):
        alg = make_algebra([2])
        bad = replace(alg, inv_mat=alg.inv_mat.copy())
        bad.inv_mat[0, 3] += 1e-3
        assert not check_laws(bad).passed


class TestCstarDecision:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_unitary_twists_pass(self, shape, rng):
        # mixed homomorphism/anti-homomorphism blocks, and the opposite algebra
        for alg in (_unitary_twist(shape, rng), _unitary_twist(shape, rng, [True] * len(shape))):
            rep = check_laws(alg)
            assert rep.passed, rep.failures
            assert rep.details["cstar_worst"] <= 1e-12
            co_rep = check_laws(dualize(alg))
            assert co_rep.passed, co_rep.failures

    # M₈ twists with entries up to ~10²–10³ leave rounding residuals above
    # 1e-12 in the exact laws; the tolerance scales with the entries
    @pytest.mark.parametrize(
        "shape, scale",
        [(shape, 1.0) for shape in SHAPES] + [([8], 2.0), ([8], 4.0)],
        ids=[f"shape{i}" for i in range(len(SHAPES))] + ["m8-scale2", "m8-scale4"],
    )
    def test_positive_twist_fails_only_cstar(self, shape, scale, rng):
        alg = _positive_twist(shape, rng, scale)
        rep = check_laws(alg)
        assert [name for name, _ in rep.failures] == ["cstar_identity"]
        x, defect = rep.details["cstar_witness"], rep.details["cstar_witness_defect"]
        assert defect > 1e-9
        assert _cstar_defect(alg, x) == pytest.approx(defect, rel=1e-9)
        co_rep = check_laws(dualize(alg))
        assert [name for name, _ in co_rep.failures] == ["co_cstar_identity"]
        assert co_rep.details["co_cstar_witness_defect"] > 1e-9

    @pytest.mark.parametrize("shape", SHAPES)
    def test_involution_twist_fails_only_cstar(self, shape, rng):
        alg = _involution_twist(shape, rng)
        rep, co_rep = check_laws(alg), check_laws(dualize(alg))
        if max(shape) == 1:
            # a 1×1 Hermitian h is a real scalar, so h·x*·h⁻¹ = x*
            assert rep.passed and co_rep.passed
            return
        assert [name for name, _ in rep.failures] == ["cstar_identity"]
        x, defect = rep.details["cstar_witness"], rep.details["cstar_witness_defect"]
        assert defect > 1e-9
        assert _cstar_defect(alg, x) == pytest.approx(defect, rel=1e-9)
        assert [name for name, _ in co_rep.failures] == ["co_cstar_identity"]
        assert co_rep.details["co_cstar_witness_defect"] > 1e-9

    def test_exact_law_failure_carries_no_witness(self):
        alg = make_algebra([2])
        bad = replace(alg, mult_mat=alg.mult_mat.copy())
        bad.mult_mat[2, 9] += 1e-3
        rep = check_laws(bad)
        assert "cstar_identity" in dict(rep.failures)
        assert "cstar_witness" not in rep.details


class TestDuality:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_dualize_transports_twisted_involution(self, shape, rng):
        # the dual involution is Q = t·Pᴴ·t; copying P breaks (ab)* = b*a* on the dual
        alg = _unitary_twist(shape, rng)
        co = dualize(alg)
        assert check_laws(co).passed
        t = blockwise_transpose(shape)
        assert np.array_equal(co.inv_mat, alg.inv_mat.conj().T[np.ix_(t, t)])
        if max(shape) > 1:
            copied = replace(co, inv_mat=alg.inv_mat)
            assert "reverse_comultiplicativity" in dict(check_laws(copied).failures)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_dualize_algebra_gives_canonical_coalgebra(self, shape):
        co = dualize(make_algebra(shape))
        canon = make_coalgebra(shape)
        assert np.allclose(co.comult_mat, canon.comult_mat)
        assert np.allclose(co.counit_vec, canon.counit_vec)
        # the involution transport t·Pᴴ·t is bit-exact on canonical structures
        assert np.array_equal(co.inv_mat, canon.inv_mat)
        assert np.array_equal(dualize(canon).inv_mat, make_algebra(shape).inv_mat)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_double_dual_identity(self, shape, rng):
        alg = make_algebra(shape)
        rt = dualize(dualize(alg))
        assert np.array_equal(rt.mult_mat, alg.mult_mat)
        assert np.array_equal(rt.unit_vec, alg.unit_vec)
        co = make_coalgebra(shape)
        rt = dualize(dualize(co))
        assert np.array_equal(rt.comult_mat, co.comult_mat)
        # a twisted involution round-trips exactly too
        twisted = _unitary_twist(shape, rng)
        assert np.array_equal(dualize(dualize(twisted)).inv_mat, twisted.inv_mat)
        assert np.array_equal(dualize(dualize(dualize(twisted))).inv_mat, dualize(twisted).inv_mat)

    def test_delta_is_mu_star(self):
        # ⟨δ(f), x ⊗ y⟩ = ⟨f, x·y⟩ for all basis triples via tr(e_ij ab)
        shape = [2]
        alg = make_algebra(shape)
        co = dualize(alg)
        d = alg.dim
        eye = np.eye(d)
        for a in range(d):
            fa = BlockMatrix.from_vector(eye[a], shape)
            dv = co.comult(fa).reshape(d, d)
            for b in range(d):
                xb = BlockMatrix.from_vector(eye[b], shape)
                for c in range(d):
                    yc = BlockMatrix.from_vector(eye[c], shape)
                    lhs = sum(
                        dv[p, q]
                        * trace_pairing(BlockMatrix.from_vector(eye[p], shape), xb)
                        * trace_pairing(BlockMatrix.from_vector(eye[q], shape), yc)
                        for p in range(d)
                        for q in range(d)
                    )
                    assert lhs == trace_pairing(fa, xb @ yc)

    def test_shape_roles_swap(self):
        # ⊕∞ algebras dualize to ⊕₁ coalgebras on the same block shape
        co = dualize(make_algebra([2, 3]))
        assert co.shape == (2, 3)
        assert abs(co.counit(BlockMatrix.identity((2, 3))) - 5.0) < 1e-12


class TestPositivity:
    def test_identity_positive(self):
        v = positivity(BlockMatrix([np.eye(2)]))
        assert v.positive
        w = v.witness
        assert (w @ w.adjoint() - BlockMatrix([np.eye(2)])).op_norm() < 1e-10

    def test_indefinite_flagged(self):
        v = positivity(BlockMatrix([np.diag([1.0, -1.0])]))
        assert not v.positive and abs(v.diagnostic + 1.0) < 1e-12

    def test_gram_witness_roundtrip(self, rng):
        for _ in range(20):
            t = rand_complex(rng, 3)
            p = BlockMatrix([t.conj().T @ t])
            v = positivity(p)
            assert v.positive
            w = v.witness
            err = (BlockMatrix([w.blocks[0].conj().T @ w.blocks[0]]) - p).op_norm()
            assert err <= 1e-8

    def test_abstract_route_matches_concrete(self, rng):
        co = make_coalgebra([2, 1])
        for trial in range(40):
            if trial % 2 == 0:
                p = BlockMatrix([b.conj().T @ b for b in (rand_complex(rng, 2), rand_complex(rng, 1))])
            else:
                p = BlockMatrix([rand_complex(rng, 2) + rand_complex(rng, 2).conj().T, rand_complex(rng, 1).real.astype(complex)])
            ok_abs, _, _ = abstract_positive_functional(co, p)
            ok_con = positivity(p, tol=1e-8).positive
            assert ok_abs == ok_con


class TestMorphisms:
    def test_heisenberg_unitary_cpu_and_hom(self, rng):
        u = rand_unitary(rng, 2)
        heis = conjugation(u).adjoint()
        alg = make_algebra([2])
        assert certify_morphism(heis, alg, alg, "cpu").ok
        assert certify_morphism(heis, alg, alg, "alg_hom").ok

    def test_schroedinger_unitary_cptp(self, rng):
        u = rand_unitary(rng, 2)
        co = make_coalgebra([2])
        v = certify_morphism(conjugation(u), co, co, "cptp")
        assert v.ok
        lo, hi = v.diagnostics["cb_norm"]
        assert abs((lo + hi) / 2 - 1.0) <= 1e-6

    def test_negation_not_positive(self):
        neg = SuperOp.from_action(lambda x: BlockMatrix([-x.blocks[0]]), (2,), (2,))
        v = certify_morphism(neg, make_algebra([2]), make_algebra([2]), "cpu")
        assert not v.ok and any(f[0] == "cp" for f in v.failures)

    def test_identity_is_coalg_hom(self):
        co = make_coalgebra([2])
        assert certify_morphism(identity_map((2,)), co, co, "coalg_hom").ok

    def test_depolarizing_not_coalg_hom(self):
        co = make_coalgebra([2])
        v = certify_morphism(depolarizing(2), co, co, "coalg_hom")
        assert [name for name, _ in v.failures] == ["comultiplicative"]
        assert abs(v.failures[0][1] - 0.5) <= 1e-12

    @pytest.mark.parametrize(
        "make,mode,names",
        [
            (make_algebra, "alg_hom", ["unital", "multiplicative", "involutive"]),
            (make_coalgebra, "coalg_hom", ["counital", "comultiplicative", "involutive"]),
        ],
    )
    def test_phase_map_fails_every_diagram(self, make, mode, names):
        # x ↦ i·x: unit/counit off by |i−1| = √2, products by |i+1| = √2,
        # involution by |i−(−i)| = 2
        f = SuperOp.from_action(lambda x: x * 1j, (2,), (2,))
        v = certify_morphism(f, make([2]), make([2]), mode)
        assert [name for name, _ in v.failures] == names
        want = [np.sqrt(2), np.sqrt(2), 2.0]
        assert all(abs(val - w) <= 1e-12 for (_, val), w in zip(v.failures, want))

    @pytest.mark.parametrize("dom,cod", [((2,), (2,)), ((2, 1), (1, 2)), ((1, 2), (3,))])
    def test_hom_errors_match_basis_loops(self, dom, cod, rng):
        # the whole-tensor identities against the diagrams checked one basis
        # element (pair) at a time
        blocks = [[rand_complex(rng, l * l, k * k) for l in cod] for k in dom]
        f = SuperOp(dom, cod, np.block([list(row) for row in zip(*blocks)]))
        alg_a, alg_b = make_algebra(dom), make_algebra(cod)
        co_c, co_d = make_coalgebra(dom), make_coalgebra(cod)
        basis = [BlockMatrix.from_vector(e, dom) for e in np.eye(alg_a.dim)]
        unit = (f.apply(alg_a.unit()) - alg_b.unit()).op_norm()
        mult = max(
            (f.apply(alg_a.multiply(x, y)) - alg_b.multiply(f.apply(x), f.apply(y))).op_norm()
            for x in basis
            for y in basis
        )
        inv = max(
            (f.apply(alg_a.involute(x)) - alg_b.involute(f.apply(x))).op_norm() for x in basis
        )
        counit = max(abs(co_d.counit(f.apply(x)) - co_c.counit(x)) for x in basis)
        tm = np.stack([f.apply(x).to_vector() for x in basis], axis=1)
        comult = max(
            np.max(np.abs(co_d.comult(f.apply(x)) - np.kron(tm, tm) @ co_c.comult(x)))
            for x in basis
        )
        co_inv = max(
            (f.apply(co_c.involute(x)) - co_d.involute(f.apply(x))).tr_norm() for x in basis
        )
        va = certify_morphism(f, alg_a, alg_b, "alg_hom").diagnostics
        vc = certify_morphism(f, co_c, co_d, "coalg_hom").diagnostics
        got = [va[k] for k in ("unit_err", "mult_err", "inv_err")] + [
            vc[k] for k in ("counit_err", "comult_err", "inv_err")
        ]
        assert np.allclose(got, [unit, mult, inv, counit, comult, co_inv], rtol=1e-12, atol=1e-12)

    def test_alg_hom_one_svd_on_one_block(self, rng, linalg_calls):
        # the unital, multiplicative and involutive columns share one SVD
        alg = make_algebra([3])
        f = conjugation(rand_unitary(rng, 3)).adjoint()
        linalg_calls.clear()
        assert certify_morphism(f, alg, alg, "alg_hom").ok
        assert linalg_calls["svd"] == 1

    def test_alg_hom_errors_bit_identical_to_per_family(self, rng):
        # the batched norms split per family read exactly what one
        # block_norms call per family reads
        shapes = [(2,), (3,), (2, 1), (1, 2), (2, 2, 1)]
        for trial in range(40):
            dom, cod = shapes[trial % 5], shapes[(trial // 5) % 5]
            alg_a, alg_b = make_algebra(dom), make_algebra(cod)
            if trial % 3 == 0 and dom == cod == (2,):
                f = conjugation(rand_unitary(rng, 2)).adjoint()
            else:
                f = SuperOp(dom, cod, rand_complex(rng, alg_b.dim, alg_a.dim))
            got = certify_morphism(f, alg_a, alg_b, "alg_hom").diagnostics
            t, db, da = f.transfer, alg_b.dim, alg_a.dim
            mu_b = alg_b.mult_mat.reshape(db, db, db)
            families = {
                "unit_err": (t @ alg_a.unit_vec - alg_b.unit_vec)[:, None],
                "mult_err": t @ alg_a.mult_mat - (t.T @ mu_b @ t).reshape(db, da * da),
                "inv_err": t @ alg_a.inv_mat - alg_b.inv_mat @ t.conj(),
            }
            for key, cols in families.items():
                assert got[key] == vnstruct._worst_block_norm(cols, cod, "operator"), (trial, key)

    def test_transpose_is_alg_antihom_not_hom(self):
        # transpose reverses products, so the multiplicative diagram fails
        alg = make_algebra([2])
        v = certify_morphism(transpose_map(2), alg, alg, "alg_hom")
        assert not v.ok and any(f[0] == "multiplicative" for f in v.failures)

    def test_cc_cp_equivalence_unital_maps(self, rng):
        # unital + completely contractive ⇔ CPU, both directions, via cb-norms
        from oscat.normlab.diamond import cb_norm

        for trial in range(12):
            if trial % 2 == 0:
                # unital CP map from normalized Kraus operators
                ops = [rand_complex(rng, 2) for _ in range(2)]
                s = sum(k @ k.conj().T for k in ops)
                w = np.linalg.inv(np.linalg.cholesky(s))
                ops = [w @ k for k in ops]
                f = SuperOp.from_action(
                    lambda x, ops=ops: BlockMatrix(
                        [sum(k @ x.blocks[0] @ k.conj().T for k in ops)]
                    ),
                    (2,),
                    (2,),
                )
            else:
                f = transpose_map(2)  # unital but not CP
            flags = f.classify()
            assert flags.unital
            br = cb_norm(f, "operator")
            contractive = br.upper <= 1 + 1e-6
            assert contractive == flags.cp

    def test_cc_cp_equivalence_tp_maps(self, rng):
        from oscat.normlab.diamond import diamond_norm

        for trial in range(12):
            if trial % 2 == 0:
                f = random_cptp(rng, 2)
            else:
                # trace preserving but visibly not CP
                f = transpose_map(2).compose(random_cptp(rng, 2))
                if f.classify().cp:
                    continue
            flags = f.classify()
            assert flags.tp
            br = diamond_norm(f)
            contractive = br.upper <= 1 + 1e-6
            assert contractive == flags.cp, (flags.min_choi_eig, br)

    def test_tp_iff_counital(self, rng):
        co = make_coalgebra([2])
        for trial in range(20):
            s = random_cptp(rng, 2) if trial % 2 == 0 else random_superop(rng, 2)
            counital = all(
                abs(
                    co.counit(s.apply(BlockMatrix.from_vector(np.eye(4)[a], (2,))))
                    - co.counit(BlockMatrix.from_vector(np.eye(4)[a], (2,)))
                )
                <= 1e-9
                for a in range(4)
            )
            assert counital == s.classify().tp


# lawful factor pairs whose tensor and direct sum must be the standard structures
LAWFUL_PAIRS = (([2], [2]), ([2], [3]), ([2, 1], [2]), ([1, 0, 2], [2, 1]), ([2], [4]))


def _same_structure(x, y) -> bool:
    """Exact equality of every structure tensor and the shape."""
    fields = ("unit_vec", "mult_mat") if isinstance(x, VnAlgebra) else ("counit_vec", "comult_mat")
    return x.shape == y.shape and all(
        np.array_equal(getattr(x, name), getattr(y, name)) for name in fields + ("inv_mat",)
    )


class TestTensorStructures:
    def test_tensor_algebra_composite_equals_canonical(self):
        # (μ_A⊗μ_B)∘v gathered onto the pair shape is the standard structure there
        for sa, sb in LAWFUL_PAIRS:
            a, b = make_algebra(sa), make_algebra(sb)
            assert _same_structure(tensor_algebra(a, b), make_algebra(pair_shape(sa, sb)))
            assert _same_structure(direct_sum_algebra(a, b), make_algebra(sa + sb))

    def test_tensor_coalgebra_composite_equals_canonical(self):
        for sa, sb in LAWFUL_PAIRS:
            c, d = make_coalgebra(sa), make_coalgebra(sb)
            assert _same_structure(tensor_coalgebra(c, d), make_coalgebra(pair_shape(sa, sb)))
            assert _same_structure(direct_sum_coalgebra(c, d), make_coalgebra(sa + sb))

    def test_composite_structures_satisfy_raw_laws(self, rng):
        # twisted C*-structures (unit u, x·u*·y, or y·u*·x on every block) carry
        # over: the tensor has unit u_A⊗u_B and passes every law, the C* one too
        for anti in (False, True):
            a = _unitary_twist([2, 1], rng, [anti] * 2)
            b = _unitary_twist([2], rng, [anti])
            t = tensor_algebra(a, b)
            assert np.array_equal(t.unit_vec, np.kron(a.unit_vec, b.unit_vec)[pair_reindex(a.shape, b.shape)])
            for alg in (t, direct_sum_algebra(a, b)):
                rep = check_laws(alg)
                assert rep.passed, rep.failures
                assert check_laws(dualize(alg)).passed

    def test_mixed_type_factors_give_cstar_tensor(self, rng):
        # M₂ (x·y) ⊗ the all-anti twist of M₂ (y·v*·x): the pair block holds
        # x⊗yᵀ, whose unit is 1⊗vᵀ, and the tensor and its dual pass every
        # law, the C* identity too (residual 0.71–0.86 before the transpose)
        anti = _unitary_twist([2], rng, [True])
        t_anti = blockwise_transpose(anti.shape)
        for hom in (make_algebra([2]), _unitary_twist([2], rng, [False])):
            for a, b, ua, ub in (
                (hom, anti, hom.unit_vec, anti.unit_vec[t_anti]),
                (anti, hom, anti.unit_vec[t_anti], hom.unit_vec),
            ):
                t = tensor_algebra(a, b)
                assert np.array_equal(t.unit_vec, np.kron(ua, ub)[pair_reindex(a.shape, b.shape)])
                rep = check_laws(t)
                assert rep.passed, rep.failures
                co_rep = check_laws(tensor_coalgebra(dualize(a), dualize(b)))
                assert co_rep.passed, co_rep.failures
        # a factor with one block of each type, against either pure type
        mixed = _unitary_twist([2, 1], rng)
        for other in (anti, _unitary_twist([2], rng, [False])):
            for a, b in ((mixed, other), (other, mixed)):
                assert check_laws(tensor_algebra(a, b)).passed
                assert check_laws(tensor_coalgebra(dualize(a), dualize(b))).passed

    def test_lawless_factor_makes_lawless_tensor_and_sum(self):
        # every single-entry 1e-3 mutation of μ (δ) of one factor, the other
        # factor M₁ or M₂, fails a law of the tensor and of the direct sum
        missed, total = [], 0
        for shape in ([1], [2], [2, 1]):
            alg, co = make_algebra(shape), make_coalgebra(shape)
            d = alg.dim
            for other in ([1], [2]):
                b, e = make_algebra(other), make_coalgebra(other)
                for r, c in np.ndindex(d, d * d):
                    bad = replace(alg, mult_mat=alg.mult_mat.copy())
                    bad.mult_mat[r, c] += 1e-3
                    bad_co = replace(co, comult_mat=co.comult_mat.copy())
                    bad_co.comult_mat[c, r] += 1e-3
                    for built in (
                        tensor_algebra(bad, b),
                        direct_sum_algebra(bad, b),
                        tensor_coalgebra(bad_co, e),
                        direct_sum_coalgebra(bad_co, e),
                    ):
                        total += 1
                        if check_laws(built).passed:
                            missed.append((shape, other, r, c, type(built).__name__))
        assert total == 1520 and not missed, missed[:5]

    def test_pair_shape_over_cap_raises_before_allocating(self):
        # M₃⊗M₃ = M₉ needs an 81×6561 structure matrix, over the cap
        a3 = make_algebra([3])
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError):
                tensor_algebra(a3, a3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(SizeLimitError):
            make_algebra([9])

    def test_m2_m4_memory(self):
        a2, a4 = make_algebra([2]), make_algebra([4])
        c2, c4 = make_coalgebra([2]), make_coalgebra([4])
        for build in (lambda: tensor_algebra(a2, a4), lambda: tensor_coalgebra(c2, c4)):
            tracemalloc.start()
            try:
                built = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert built.shape == (8,) and peak < 50e6

    @pytest.mark.parametrize("shapes", [([2], [2]), ([2], [3]), ([2, 1], [2])])
    def test_tensor_and_sums_pass_laws(self, shapes):
        sa, sb = shapes
        assert check_laws(tensor_algebra(make_algebra(sa), make_algebra(sb))).passed
        assert check_laws(direct_sum_algebra(make_algebra(sa), make_algebra(sb))).passed
        assert check_laws(tensor_coalgebra(make_coalgebra(sa), make_coalgebra(sb))).passed
        assert check_laws(direct_sum_coalgebra(make_coalgebra(sa), make_coalgebra(sb))).passed


# ---------------------------------------------------------------------------
# the laws decided from the Kadison form, against the dense residuals

_LAW_NAMES = ("associativity", "left_unit", "right_unit", "involution_squared", "reverse_multiplicativity")


def _dense_tensors(structure):
    """(shape, unit, μ as (d, d, d), P) of an algebra, or of a coalgebra's trace-pairing dual."""
    d = structure.dim
    if isinstance(structure, VnAlgebra):
        return structure.shape, structure.unit_vec, structure.mult_mat.reshape(d, d, d), structure.inv_mat
    t = blockwise_transpose(structure.shape)
    m = structure.comult_mat.reshape(d, d, d)[np.ix_(t, t, t)].transpose(2, 0, 1)
    return structure.shape, structure.counit_vec, m, structure.inv_mat.conj().T[np.ix_(t, t)]


def _dense_oracle(structure, tol=1e-9):
    """(failures, residuals): every law's whole-tensor residual and the Kadison match.

    The algebraic laws are the slab and GEMM formulas, the Kadison residual
    is matched block by block with `einsum`, for an algebra or the dual of a
    coalgebra, named as `check_laws` names them.
    """
    shape, u, m, p = _dense_tensors(structure)
    d = u.size
    flat, eye = m.reshape(d, d * d), np.eye(d)
    slab = max(1, 4096 // max(1, d**3))
    assoc = [
        np.abs(flat.T @ m[e : e + slab] - (m[e : e + slab] @ flat).reshape(-1, d * d, d)).max()
        for e in range(0, d, slab)
    ]
    t = (p.T @ m.transpose(1, 0, 2).reshape(d, d * d)).reshape(d * d, d) @ p
    diffs = {
        "associativity": np.max(assoc) if assoc else 0.0,
        "left_unit": u @ m - eye,
        "right_unit": m @ u - eye,
        "involution_squared": p @ p.conj() - eye,
        "reverse_multiplicativity": (p @ flat.conj()).reshape(d, d, d)
        - t.reshape(d, d, d).transpose(1, 2, 0),
    }
    mu, pm, um = (float(np.abs(x).max(initial=0.0)) for x in (m, p, u))
    sizes = {
        "associativity": mu * mu,
        "left_unit": um * mu,
        "right_unit": um * mu,
        "involution_squared": pm * pm,
        "reverse_multiplicativity": pm * pm * mu,
    }
    residuals, failures = {}, []
    for name in _LAW_NAMES:
        err = residuals[name] = float(np.abs(diffs[name]).max(initial=0.0))
        thr = 1e-12 * max(1.0, sizes[name])
        if not (err <= thr and np.isfinite(thr)):
            failures.append((name, err))
    worst = []
    mult, inv = np.zeros((d, d, d), dtype=complex), np.zeros((d, d), dtype=complex)
    off = 0
    for k in shape:
        s, ek = slice(off, off + k * k), np.eye(k)
        ub = u[s].reshape(k, k)
        hom = np.einsum("ip,mq,lj->impjlq", ek, ek, ub.conj()).reshape((k * k,) * 3)
        anti = hom.transpose(0, 2, 1)
        dh, da = np.abs(m[s, s, s] - hom).max(initial=0.0), np.abs(m[s, s, s] - anti).max(initial=0.0)
        mult[s, s, s] = anti if da < dh else hom
        inv[s, s] = np.einsum("ij,lm->imlj", ub, ub).reshape(k * k, k * k)
        worst.append(np.abs(ub @ ub.conj().T - ek).max(initial=0.0))
        off += k * k
    worst += [np.abs(m - mult).max(initial=0.0), np.abs(p - inv).max(initial=0.0)]
    cstar = float(np.max(worst))
    if not cstar <= tol:
        failures.append(("cstar_identity", cstar))
    if isinstance(structure, VnCoalgebra):
        co = dict(
            associativity="coassociativity",
            left_unit="left_counit",
            right_unit="right_counit",
            reverse_multiplicativity="reverse_comultiplicativity",
            cstar_identity="co_cstar_identity",
        )
        failures = [(co.get(name, name), err) for name, err in failures]
        residuals = {co.get(name, name): err for name, err in residuals.items()}
    return failures, residuals


def _mutated(structure, field_name, index, delta):
    """A copy with one entry of one tensor moved by delta, in place after construction."""
    arr = getattr(structure, field_name).astype(np.complex128)
    bad = replace(structure, **{field_name: arr})
    arr[index] += delta
    return bad


def _oracle_cases():
    rng = np.random.default_rng(5)
    cases = []
    for shape in SHAPES + ([6],):
        cases += [make_algebra(shape), make_coalgebra(shape)]
    for shape in SHAPES:
        for alg in (
            _unitary_twist(shape, rng),
            _unitary_twist(shape, rng, [True] * len(shape)),
            _positive_twist(shape, rng),
        ):
            cases += [alg, dualize(alg)]
    # single entries of size 1e-15 … 1e-3, on a block and across blocks, of
    # every tensor; NaN in place
    alg, co = make_algebra([2, 1]), make_coalgebra([2, 1])
    for delta in (1e-15, 1e-13, 1e-11, 1e-3, np.nan):
        for field_name, index in (
            ("mult_mat", (0, 0)),
            ("mult_mat", (1, 6)),
            ("mult_mat", (4, 0)),
            ("mult_mat", (0, 24)),
            ("inv_mat", (1, 2)),
            ("inv_mat", (4, 0)),
            ("unit_vec", 3),
            ("unit_vec", 1),
        ):
            cases.append(_mutated(alg, field_name, index, delta))
        for field_name, index in (("comult_mat", (0, 0)), ("comult_mat", (24, 0)), ("counit_vec", 4)):
            cases.append(_mutated(co, field_name, index, delta))
    return cases


class TestKadisonCertificate:
    def test_matches_dense_oracle(self):
        for structure in _oracle_cases():
            with np.errstate(invalid="ignore", over="ignore"):
                rep = check_laws(structure)
                want, residuals = _dense_oracle(structure)
            assert [n for n, _ in rep.failures] == [n for n, _ in want]
            assert rep.passed == (not want)
            # failing laws report the dense residual bit for bit (NaN as NaN)
            got = np.array([v for _, v in rep.failures])
            assert np.array_equal(got, np.array([v for _, v in want]), equal_nan=True)
            key = "co_law_bounds" if isinstance(structure, VnCoalgebra) else "law_bounds"
            for name, bound in rep.details[key].items():
                assert bound >= residuals[name], (name, bound, residuals[name])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_algebra([8]),
            lambda: make_coalgebra([8]),
            lambda: tensor_algebra(make_algebra([2]), make_algebra([4])),
            lambda: direct_sum_coalgebra(make_coalgebra([6]), make_coalgebra([4])),
        ],
        ids=["m8", "t8", "m2-tensor-m4", "t6-sum-t4"],
    )
    def test_large_valid_structures_skip_the_dense_residuals(self, build, monkeypatch):
        structure = build()
        dense = []
        monkeypatch.setattr(vnstruct, "_law_residual", lambda name, *args: dense.append(name))
        rep = check_laws(structure)
        assert rep.passed and not dense
        key = "co_law_bounds" if isinstance(structure, VnCoalgebra) else "law_bounds"
        assert len(rep.details[key]) == 5
        # the canonical tensors are the Kadison form exactly, so each bound is
        # only the rounding charge of the dense formulas
        key = "co_cstar_worst" if isinstance(structure, VnCoalgebra) else "cstar_worst"
        assert rep.details[key] == 0.0


class TestNonFinite:
    PROBES = [
        (make_algebra, "mult_mat", (4, 0)),
        (make_algebra, "mult_mat", (0, 0)),
        (make_algebra, "inv_mat", (0, 0)),
        (make_algebra, "unit_vec", 0),
        (make_coalgebra, "comult_mat", (0, 0)),
        (make_coalgebra, "comult_mat", (0, 4)),
        (make_coalgebra, "counit_vec", 0),
        (make_coalgebra, "inv_mat", (0, 0)),
    ]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("make, field_name, index", PROBES)
    def test_refused_at_construction_and_failed_after(self, make, field_name, index, value):
        structure = make([2, 1])
        arr = getattr(structure, field_name).astype(np.complex128)
        arr[index] = value
        with pytest.raises(InvalidInputError):
            replace(structure, **{field_name: arr})
        with np.errstate(invalid="ignore", over="ignore"):
            rep = check_laws(_mutated(structure, field_name, index, value))
        assert not rep.passed and rep.failures

    @pytest.mark.parametrize(
        "make, mode, field_name, index, names",
        [
            # a NaN counit defect fails the counital diagram instead of passing it
            (make_coalgebra, "coalg_hom", "counit_vec", 0, ["counital"]),
            # NaN in a blockwise norm's input fails the diagram, not the SVD
            (make_coalgebra, "coalg_hom", "inv_mat", (0, 0), ["involutive"]),
            (make_algebra, "alg_hom", "mult_mat", (0, 0), ["multiplicative"]),
        ],
    )
    def test_morphism_fails_a_nan_diagram(self, make, mode, field_name, index, names):
        good = make([2])
        bad = _mutated(good, field_name, index, np.nan)
        with np.errstate(invalid="ignore"):
            v = certify_morphism(identity_map((2,)), good, bad, mode)
        assert not v.ok and [name for name, _ in v.failures] == names
