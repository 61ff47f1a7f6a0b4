import numpy as np
import pytest

from conftest import random_cptp, random_superop
from oscat.config import RunConfig
from oscat.errors import ShapeMismatchError
from oscat.matcore import BlockMatrix, kron, op_norm, rand_complex, rand_hermitian, rand_unitary
from oscat.osx import M, normalize_space, tens_proj
from oscat.qglue import (
    QObject,
    SetSpec,
    check_morphism,
    connective,
    density_ops,
    embed_H,
    embed_S,
    finite_set,
    generators,
    membership,
    pairing,
    polar,
    quantum_switch,
    quantum_switch_map,
    singleton_unitary,
    unit_object,
    unit_set,
)
from oscat.supop import SuperOp, conjugation, identity_map, transpose_map
from oscat.vnstruct import dualize, make_algebra, make_coalgebra


class TestMembership:
    def test_density_ops(self):
        s = embed_S(make_coalgebra([2])).set
        assert membership(s, np.diag([0.5, 0.5]).ravel()) == "yes"
        assert membership(s, np.diag([1.0, -0.01]).ravel()) == "no"
        assert membership(s, np.diag([0.5, 0.6]).ravel()) == "no"

    def test_unit_set_is_singleton(self):
        s = embed_H(make_algebra([2])).set
        assert membership(s, np.eye(2).ravel()) == "yes"
        assert membership(s, (0.999 * np.eye(2)).ravel()) == "no"

    def test_singleton_unitary(self, rng):
        u = rand_unitary(rng, 2)
        s = singleton_unitary(BlockMatrix([u]))
        assert membership(s, u.ravel()) == "yes"
        assert membership(s, np.eye(2).ravel()) == "no"

    def test_non_unitary_rejected(self, rng):
        with pytest.raises(ShapeMismatchError):
            singleton_unitary(BlockMatrix([0.5 * np.eye(2)]))

    def test_finite_set(self, rng):
        a, b = rand_complex(rng, 2), rand_complex(rng, 2)
        s = finite_set([a.ravel(), b.ravel()], M(2))
        assert membership(s, a.ravel()) == "yes"
        assert membership(s, rand_complex(rng, 2).ravel()) == "no"

    def test_empty_and_terminal(self):
        # the initial object carries the empty set on the zero space
        z = SetSpec("empty", M(0))
        assert membership(z, np.zeros(0)) == "no"
        fb = polar(z)
        assert fb.kind == "full_ball"
        assert membership(fb, np.zeros(0)) == "yes"


class TestPolar:
    def test_unit_set_polar_is_states(self):
        p = polar(unit_set((2,)))
        assert p.kind == "density_ops"
        assert membership(p, np.diag([0.3, 0.7]).ravel()) == "yes"

    def test_density_polar_is_counit(self):
        p = polar(density_ops((2,)))
        assert p.kind == "unit_set"

    def test_unitary_polar_membership(self, rng):
        # (1/n)·tr(u*·) lies in {u}° for every unitary u
        for n in (2, 3):
            u = rand_unitary(rng, n)
            pol = polar(singleton_unitary(BlockMatrix([u])))
            assert membership(pol, (u.conj().T / n).ravel()) == "yes"
            v = rand_unitary(rng, n)
            assert membership(pol, (v.conj().T / n).ravel()) == "no"

    def test_triple_polar_absorption(self, rng):
        u = rand_unitary(rng, 2)
        s = singleton_unitary(BlockMatrix([u]))
        p1 = polar(s)
        p3 = polar(polar(p1))
        assert p3.kind == p1.kind and p3.payload == p1.payload

    def test_bipolar_of_singleton(self, rng):
        u = rand_unitary(rng, 2)
        s = singleton_unitary(BlockMatrix([u]))
        assert polar(polar(s)).kind == "singleton_unitary"

    def test_polar_of_density_contains_counit_only(self):
        # P_C° = {ε}: the counit's representation is the identity
        p = polar(density_ops((2,)))
        gens, exhaustive = generators(SetSpec("polar_of", p.space, (density_ops((2,)),)))
        assert exhaustive and np.allclose(gens[0], np.eye(2).ravel())

    def test_galois_on_finite_sets(self, rng):
        # S ⊆ S°° and S°°° = S° at the membership level, sampled
        x = np.concatenate([[1.0], [1.0]])
        y = np.concatenate([[1.0], [-1.0]])
        sp = normalize_space(M(1))  # placeholder, carrier set below
        from oscat.osx import sum_inf

        carrier = sum_inf(M(1), M(1))
        s = finite_set([x, y], carrier)
        pol = polar(s)
        f = np.array([1.0, 0.0])  # the (1,0) functional pairs to 1 with both
        assert membership(pol, f) == "yes"
        # affine combinations of S inside the ball belong to S°°
        for lam in (0.0, 0.3, 1.0):
            z = lam * x + (1 - lam) * y
            for g in [f]:
                assert abs(pairing(carrier, g, z) - 1) <= 1e-9


class TestConnectives:
    def test_with_product(self):
        w = connective("with", embed_H(make_algebra([2])), embed_H(make_algebra([3])))
        z = np.concatenate([np.eye(2).ravel(), np.eye(3).ravel()])
        assert membership(w.set, z) == "yes"
        z_bad = np.concatenate([np.eye(2).ravel(), (0.5 * np.eye(3)).ravel()])
        assert membership(w.set, z_bad) == "no"

    def test_plus_of_h_objects(self):
        pl = connective("plus", embed_H(make_algebra([2])), embed_H(make_algebra([3])))
        for lam, want in ((0.3, "yes"), (0.0, "yes"), (1.3, "no")):
            z = np.concatenate(
                [(lam * np.eye(2)).ravel(), ((1 - lam) * np.eye(3)).ravel()]
            )
            assert membership(pl.set, z) == want

    def test_plus_of_s_objects_collapses(self):
        pl = connective("plus", embed_S(make_coalgebra([2])), embed_S(make_coalgebra([1])))
        assert pl.set.kind == "density_ops" and pl.set.payload[0] == (2, 1)
        z = np.concatenate([np.diag([0.25, 0.25]).ravel(), [0.5]])
        assert membership(pl.set, z) == "yes"

    def test_tensor_of_s_objects(self, rng):
        tt = connective("tensor", embed_S(make_coalgebra([2])), embed_S(make_coalgebra([2])))
        assert tt.set.kind == "density_ops" and tt.set.payload[0] == (4,)
        rho = rand_complex(rng, 4)
        rho = rho @ rho.conj().T
        rho /= np.trace(rho)
        assert membership(tt.set, rho.ravel()) == "yes"

    def test_tensor_of_singletons(self, rng):
        # {u}⊗{v} collapses to the one-point set on the ⊗̂ carrier
        u, v = rand_unitary(rng, 2), rand_unitary(rng, 2)
        o1 = QObject(embed_H(make_algebra([2])).space, singleton_unitary(BlockMatrix([u])))
        o2 = QObject(embed_H(make_algebra([2])).space, singleton_unitary(BlockMatrix([v])))
        ot = connective("tensor", o1, o2)
        assert ot.set.kind == "finite" and ot.set.payload[1] == "bipolar"
        assert normalize_space(ot.space) == tens_proj(M(2), M(2))
        elem = np.outer(u.ravel(), v.ravel()).ravel()
        assert membership(ot.set, elem) == "yes"
        assert membership(ot.set, np.outer(np.eye(2).ravel(), v.ravel()).ravel()) == "no"
        # {u⊗v}°° = {u⊗v}: triple absorption keeps the singleton
        assert polar(polar(ot.set)) == ot.set

    def test_par_of_unit_sets(self):
        op_ = connective("par", embed_H(make_algebra([2])), embed_H(make_algebra([3])))
        assert op_.set.kind == "unit_set" and op_.set.payload[0] == (6,)

    def test_dual_duality(self, rng):
        s2 = embed_S(make_coalgebra([2]))
        dd = connective("dual", connective("dual", s2))
        rho = np.diag([0.5, 0.5]).ravel()
        assert membership(dd.set, rho) == membership(s2.set, rho) == "yes"

    def test_hs_embedding_duality(self):
        # H(A)* = S(A*) and S(C)* = H(C*), spaces and sets alike
        alg = make_algebra([2, 1])
        left = connective("dual", embed_H(alg))
        right = embed_S(dualize(alg))
        assert normalize_space(left.space) == normalize_space(right.space)
        assert left.set == right.set
        co = make_coalgebra([2, 1])
        left = connective("dual", embed_S(co))
        right = embed_H(dualize(co))
        assert normalize_space(left.space) == normalize_space(right.space)
        assert left.set == right.set

    def test_unit_object(self):
        one = unit_object()
        assert membership(one.set, np.array([1.0])) == "yes"
        assert membership(one.set, np.array([0.5])) == "no"

    def test_unknown_closure_is_honest(self, rng):
        h2 = embed_H(make_algebra([2]))
        tt = connective("tensor", h2, h2)
        assert tt.set.kind == "tensor_bipolar"
        one = np.outer(np.eye(2).ravel(), np.eye(2).ravel()).ravel()
        assert membership(tt.set, one) == "yes"
        assert membership(tt.set, 0.9 * one) in ("no", "unknown")


class TestSphereAndRigidity:
    def test_sphere_forcing_on_blocks(self):
        # nonempty polar pins both sides to the unit sphere, incl. ⊕ spaces
        from oscat.osx import sum_inf

        carrier = sum_inf(M(1), M(1))
        s = finite_set([np.array([1.0, 1.0]), np.array([1.0, -1.0])], carrier)
        f = np.array([1.0, 0.0])
        pol = polar(s)
        assert membership(pol, f) == "yes"
        for member in s.payload[0]:
            assert abs(np.max(np.abs(member)) - 1.0) <= 1e-12  # ℓ∞ norm 1
        assert abs(np.sum(np.abs(f)) - 1.0) <= 1e-12  # ℓ1 norm 1

    def test_unitary_rigidity(self, rng):
        for n in (2, 3):
            u = rand_unitary(rng, n)
            for _ in range(50):
                h = rand_hermitian(rng, n)
                h -= np.trace(h) * np.eye(n) / n
                nh = op_norm(h)
                if nh < 1e-12:
                    continue
                eps = float(rng.uniform(0, 2.4e-5)) / nh
                w, v = np.linalg.eigh(h)
                g = u @ (v @ np.diag(np.exp(1j * eps * w)) @ v.conj().T)
                if np.trace(u.conj().T @ g).real < n - 1e-9:
                    continue
                assert op_norm(g - u) <= 1e-4


class TestDensityBipolarity:
    def test_two_characterizations(self, rng):
        co = make_coalgebra([2])
        agree = 0
        for _ in range(200):
            b = BlockMatrix([rand_hermitian(rng, 2)])
            tr = b.trace().real
            if abs(tr) > 1e-9:
                b = b * (1.0 / tr)
            psd_def = membership(density_ops((2,)), b.to_vector()) == "yes"
            norm_def = abs(b.tr_norm() - 1.0) <= 1e-9 and abs(b.trace() - 1.0) <= 1e-9
            assert psd_def == norm_def
            agree += 1
        assert agree == 200


class TestMorphisms:
    def test_unitary_evolution_valid(self, rng):
        u = rand_unitary(rng, 4)
        s4 = embed_S(make_coalgebra([4]))
        assert check_morphism(conjugation(u), s4, s4).verdict == "valid"

    def test_negation_invalid(self):
        h2 = embed_H(make_algebra([2]))
        neg = SuperOp.from_action(lambda x: BlockMatrix([-x.blocks[0]]), (2,), (2,))
        r = check_morphism(neg, h2, h2)
        assert r.verdict == "invalid" and "unit" in r.reason

    def test_identity_valid(self):
        h2 = embed_H(make_algebra([2]))
        assert check_morphism(identity_map((2,)), h2, h2).verdict == "valid"

    def test_transpose_invalid_on_s(self):
        s2 = embed_S(make_coalgebra([2]))
        r = check_morphism(transpose_map(2), s2, s2)
        assert r.verdict == "invalid" and "positive" in r.reason

    def test_hs_duality_of_validity(self, rng):
        # f : S(C) → S(D) valid ⇔ adjoint f : H(D*) → H(C*) valid
        for trial in range(10):
            f = random_cptp(rng, 2) if trial % 2 == 0 else random_superop(rng, 2)
            s2 = embed_S(make_coalgebra([2]))
            h2 = embed_H(dualize(make_coalgebra([2])))
            r1 = check_morphism(f, s2, s2)
            r2 = check_morphism(f.adjoint(), h2, h2)
            assert r1.verdict == r2.verdict

    def test_singleton_transport(self, rng):
        u = rand_unitary(rng, 2)
        w = rand_unitary(rng, 2)
        o1 = QObject(embed_H(make_algebra([2])).space, singleton_unitary(BlockMatrix([u])))
        o2 = QObject(
            embed_H(make_algebra([2])).space,
            singleton_unitary(BlockMatrix([w @ u @ w.conj().T])),
        )
        assert check_morphism(conjugation(w), o1, o2).verdict == "valid"
        o3 = QObject(embed_H(make_algebra([2])).space, singleton_unitary(BlockMatrix([u])))
        r = check_morphism(conjugation(w), o1, o3)
        assert r.verdict in ("invalid", "unknown")

    def test_unsupported_carrier_unknown(self):
        h2 = embed_H(make_algebra([2]))
        tt = connective("tensor", h2, h2)
        r = check_morphism(identity_map((4,)), tt, tt)
        assert r.verdict == "unknown"


class TestQuantumSwitch:
    def test_exact_formula(self, rng):
        for n in (1, 2, 3):
            qsw = quantum_switch_map(n)
            a, b = rand_complex(rng, n), rand_complex(rng, n)
            out = qsw(kron(a, b))
            want = np.zeros((2 * n, 2 * n), dtype=complex)
            want[:n, :n] = a @ b
            want[n:, n:] = b @ a
            assert np.allclose(out, want)

    def test_scalar_case_commutes(self, rng):
        # n = 1: qsw(a⊗b) = diag(ab, ba) with ab = ba
        qsw = quantum_switch_map(1)
        a, b = rand_complex(rng, 1), rand_complex(rng, 1)
        out = qsw(kron(a, b))
        assert np.allclose(out, np.diag([a[0, 0] * b[0, 0]] * 2))

    def test_singleton_typing(self, rng):
        u, v = rand_unitary(rng, 2), rand_unitary(rng, 2)
        qsw = quantum_switch_map(2)
        out = qsw(kron(u, v))
        want = np.zeros((4, 4), dtype=complex)
        want[:2, :2] = u @ v
        want[2:, 2:] = v @ u
        target = singleton_unitary(BlockMatrix([want]))
        assert membership(target, out.ravel()) == "yes"

    def test_report_structure(self):
        _, report = quantum_switch(2, RunConfig(seed=11))
        assert [c["verdict"] for c in report["claims"]] == ["pass", "pass", "pass"]
        assert report["claims"][2]["evidence"]["ratio"] == 2
        assert "h_violation_witness" in report

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_haagerup_violation_is_n(self, n):
        # v = Σ e_i1 ⊗ e_1i: ‖v‖_h = 1 exactly and ‖qsw(v)‖ = n
        _, report = quantum_switch(n)
        claim = report["claims"][2]
        ev = claim["evidence"]
        assert claim["verdict"] == ("unknown" if n == 1 else "pass")
        assert abs(ev["ratio"] - n) <= 1e-9 and abs(ev["h_upper"] - 1.0) <= 1e-12
        lo, hi = ev["h_bracket"]
        assert ev["h_status"] == "exact" and lo <= 1.0 <= hi


class TestSerialization:
    def test_qobject_describe(self):
        o = connective("tensor", embed_S(make_coalgebra([2])), embed_S(make_coalgebra([2])))
        d = o.describe()
        assert d["setspec"]["kind"] == "density_ops"
        assert "T(4)" in d["space"] or "dual" in d["space"]

    def test_decision_tags(self, rng):
        assert embed_S(make_coalgebra([2])).set.decision == "decidable"
        assert embed_H(make_algebra([2])).set.decision == "decidable"
        u = rand_unitary(rng, 2)
        # {u}° has exhaustive generators and a decidable trace-norm ball
        assert polar(singleton_unitary(BlockMatrix([u]))).decision == "decidable"
        h2 = embed_H(make_algebra([2]))
        assert connective("tensor", h2, h2).set.decision == "semi"
