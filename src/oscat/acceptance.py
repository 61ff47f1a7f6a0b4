"""Acceptance battery: one callable per criterion, shared by pytest and the CLI.

Each criterion returns an AcceptanceResult with a pass/fail flag and a short
summary; expected values come from independent oracles (closed-form
constants, see-saw maximization, Gram constructions) rather than from the
code paths under test.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .matcore import BlockMatrix, op_norm, rand_complex, rand_hermitian, rand_unitary, tr_norm
from .normlab.brackets import elem_coords
from .normlab.diamond import _diamond_sdp, cb_norm, diamond_norm, diamond_seesaw_lower
from .osx import M, SpaceElement, norm_at, tens_h, tens_min, tens_proj
from .qglue import (
    density_ops,
    generators,
    membership,
    pairing,
    polar,
    quantum_switch,
    singleton_unitary,
)
from .supop import SuperOp, partial_trace, trace_map, transpose_map
from .vnstruct import (
    abstract_positive_functional,
    check_laws,
    dualize,
    make_algebra,
    make_coalgebra,
    positivity,
    trace_pairing,
)

__all__ = ["AcceptanceResult", "run_all", "CRITERIA"]


@dataclass
class AcceptanceResult:
    name: str
    passed: bool
    summary: str
    details: dict = field(default_factory=dict)


def random_cptp(rng, n, env=None) -> SuperOp:
    """Stinespring-random channel: x ↦ Tr_env(V x V†) for a Haar-ish isometry."""
    env = env or n
    v = np.linalg.qr(rand_complex(rng, n * env, n))[0][:, :n]

    def act(x):
        big = v @ x.blocks[0] @ v.conj().T
        return BlockMatrix([partial_trace(big, (n, env), 1)])

    return SuperOp.from_action(act, (n,), (n,))


def random_superop(rng, n, m=None) -> SuperOp:
    m = m or n
    k = rand_complex(rng, m * m, n * n)
    return SuperOp.from_transfer_blocks([[k]], (n,), (m,))


# ---------------------------------------------------------------------------

def criterion_1(config: RunConfig) -> AcceptanceResult:
    """Trace functional norms: cb(tr: M_n→C) = n, cb(tr: T_n→C) = 1, n = 1..4."""
    t0 = time.perf_counter()
    worst_m = worst_t = 0.0
    for n in range(1, 5):
        tr = trace_map((n,))
        # oracle for the operator picture: the value n is witnessed by the
        # identity (‖1‖ = 1, tr(1) = n) and capped by Σσ_i(a) ≤ n‖a‖
        br_m = cb_norm(tr, "operator")
        br_t = cb_norm(tr, "trace")
        worst_m = max(worst_m, abs(br_m.mid - n))
        worst_t = max(worst_t, abs(br_t.mid - 1))
    elapsed = time.perf_counter() - t0
    ok = worst_m <= 1e-6 and worst_t <= 1e-6 and elapsed < 10
    return AcceptanceResult(
        "1 trace functional norms",
        ok,
        f"max|cb-n|={worst_m:.2e}, max|cb-1|={worst_t:.2e}, {elapsed:.1f}s",
    )


def criterion_2(config: RunConfig) -> AcceptanceResult:
    """cb-norm = operator norm for scalar domain/codomain (SDP vs closed form)."""
    rng = config.rng(salt=2)
    worst = 0.0
    for trial in range(100):
        n = 2 + trial % 2  # M_2 and M_3 functionals
        rep = rand_complex(rng, n)
        f = SuperOp.from_action(
            lambda x, rep=rep: BlockMatrix([np.array([[np.trace(rep @ x.blocks[0])]])]),
            (n,),
            (1,),
        )
        op = tr_norm(rep)  # closed form: sup over the operator-norm ball
        adj = f.adjoint()
        br = _diamond_sdp(adj.big_choi(), sum(adj.dom_shape), sum(adj.cod_shape), 1e-8)
        worst = max(worst, abs(br.mid - op))
    for trial in range(100):
        n = 1 + trial % 3
        img = rand_complex(rng, n)
        f = SuperOp.from_action(
            lambda x, img=img: BlockMatrix([x.blocks[0][0, 0] * img]), (1,), (n,)
        )
        op = op_norm(img)
        adj = f.adjoint()
        br = _diamond_sdp(adj.big_choi(), sum(adj.dom_shape), sum(adj.cod_shape), 1e-8)
        worst = max(worst, abs(br.mid - op))
    ok = worst <= 1e-6
    return AcceptanceResult(
        "2 cb-norm equals operator norm at scalar ends",
        ok,
        f"max |cb_sdp - op| = {worst:.2e} over 200 maps",
    )


def criterion_3(config: RunConfig) -> AcceptanceResult:
    """Channel calculus: transpose flags, transpose diamonds, CPTP diamonds."""
    t0 = time.perf_counter()
    rng = config.rng(salt=3)
    fl = transpose_map(2).classify(config.tol)
    ok_flags = (not fl.cp) and abs(fl.min_choi_eig + 1) <= 1e-9
    worst_tr = 0.0
    oracle_gap = 0.0
    for n in (2, 3):
        br = diamond_norm(transpose_map(n))
        worst_tr = max(worst_tr, abs(br.mid - n))
        low, _ = diamond_seesaw_lower(
            transpose_map(n), level=n, rng=config.rng(salt=30 + n), starts=4, iters=40
        )
        oracle_gap = max(oracle_gap, n - low)
    worst_cptp = 0.0
    for trial in range(100):
        n = 2 + trial % 2
        br = diamond_norm(random_cptp(rng, n))
        worst_cptp = max(worst_cptp, abs(br.mid - 1))
    elapsed = time.perf_counter() - t0
    ok = ok_flags and worst_tr <= 1e-4 and oracle_gap <= 1e-4 and worst_cptp <= 1e-6 and elapsed < 60
    return AcceptanceResult(
        "3 channel calculus",
        ok,
        f"transpose eig ok={ok_flags}, max|⋄-n|={worst_tr:.2e}, "
        f"oracle gap={oracle_gap:.2e}, max|⋄-1|={worst_cptp:.2e}, {elapsed:.1f}s",
    )


_SHAPES4 = ([1], [2], [3], [2, 1], [2, 2])


def criterion_4(config: RunConfig) -> AcceptanceResult:
    """Law suites exact + C*; every single-entry mutation of δ or μ detected."""
    exact_ok = True
    worst_c = 0.0
    for shape in _SHAPES4:
        alg = make_algebra(shape)
        rep = check_laws(alg, tol=1e-9)
        exact_ok &= rep.passed
        worst_c = max(worst_c, rep.details.get("cstar_worst", 0.0))
        co = make_coalgebra(shape)
        rep = check_laws(co, tol=1e-9)
        exact_ok &= rep.passed
        worst_c = max(worst_c, rep.details.get("co_cstar_worst", 0.0))
    missed = 0
    total = 0
    for shape in _SHAPES4:
        alg = make_algebra(shape)
        d = alg.dim
        for r in range(d):
            for c in range(d * d):
                total += 1
                bad = replace(alg, mult_mat=alg.mult_mat.copy())
                bad.mult_mat[r, c] += 1e-3
                if check_laws(bad).passed:
                    missed += 1
        co = make_coalgebra(shape)
        for r in range(d * d):
            for c in range(d):
                total += 1
                bad = replace(co, comult_mat=co.comult_mat.copy())
                bad.comult_mat[r, c] += 1e-3
                if check_laws(bad).passed:
                    missed += 1
    ok = exact_ok and missed == 0
    return AcceptanceResult(
        "4 vN law suites and mutation detection",
        ok,
        f"laws pass={exact_ok}, C* worst={worst_c:.2e}, "
        f"mutations missed={missed}/{total}",
    )


def criterion_5(config: RunConfig) -> AcceptanceResult:
    """Duality: double dual identity, δ = μ* on basis pairs, tp ⇔ unital dual."""
    rng = config.rng(salt=5)
    dd_exact = True
    pairing_worst = 0.0
    for shape in ([2], [3], [2, 1]):
        alg = make_algebra(shape)
        rt = dualize(dualize(alg))
        dd_exact &= np.array_equal(rt.mult_mat, alg.mult_mat) and np.array_equal(
            rt.unit_vec, alg.unit_vec
        )
        co = dualize(alg)
        d = alg.dim
        # ⟨δ(f), x⊗y⟩ = ⟨f, x·y⟩ for all basis triples, computed independently
        for a in range(d):
            fa = BlockMatrix.from_vector(np.eye(d)[a], shape)
            dv = co.comult(fa).reshape(d, d)
            for b in range(d):
                xb = BlockMatrix.from_vector(np.eye(d)[b], shape)
                for cdx in range(d):
                    yc = BlockMatrix.from_vector(np.eye(d)[cdx], shape)
                    lhs = 0.0 + 0.0j
                    for p in range(d):
                        for q in range(d):
                            if dv[p, q] != 0:
                                lhs += dv[p, q] * trace_pairing(
                                    BlockMatrix.from_vector(np.eye(d)[p], shape), xb
                                ) * trace_pairing(
                                    BlockMatrix.from_vector(np.eye(d)[q], shape), yc
                                )
                    rhs = trace_pairing(fa, xb @ yc)
                    pairing_worst = max(pairing_worst, abs(lhs - rhs))
    tp_dual_ok = True
    for trial in range(100):
        n = 2 + trial % 2
        s = random_cptp(rng, n) if trial % 2 == 0 else random_superop(rng, n)
        fl, fl_adj = s.classify(), s.adjoint().classify()
        tp_dual_ok &= fl.tp == fl_adj.unital
    ok = dd_exact and pairing_worst == 0.0 and tp_dual_ok
    return AcceptanceResult(
        "5 duality transport",
        ok,
        f"double-dual exact={dd_exact}, δ=μ* worst={pairing_worst:.1e}, "
        f"tp⇔unital* on 100 maps={tp_dual_ok}",
    )


def criterion_6(config: RunConfig) -> AcceptanceResult:
    """Abstract (factorization) vs concrete (PSD) positivity: no disagreements."""
    rng = config.rng(salt=6)
    disagreements = 0
    for trial in range(200):
        shape = ([2], [3], [2, 1])[trial % 3]
        co = make_coalgebra(shape)
        if trial % 2 == 0:
            t = BlockMatrix([rand_complex(rng, k) for k in shape])
            p = BlockMatrix([b.conj().T @ b for b in t.blocks])
        else:
            p = BlockMatrix([rand_hermitian(rng, k) for k in shape])
        concrete = positivity(p, co, tol=1e-8).positive
        abstract, _, _ = abstract_positive_functional(co, p, tol=1e-8)
        disagreements += concrete != abstract
    return AcceptanceResult(
        "6 abstract vs concrete positivity",
        disagreements == 0,
        f"{disagreements} disagreements over 200 functionals",
    )


def criterion_7(config: RunConfig) -> AcceptanceResult:
    """Polar machinery: Galois laws, sphere forcing, rigidity, density sets."""
    rng = config.rng(salt=7)
    checks = {}

    # Galois on sampled finite data: S ⊆ S°°, monotone polars, S°°° = S°
    galois_ok = True
    for n in (2, 3):
        u = rand_unitary(rng, n)
        s = singleton_unitary(BlockMatrix([u]))
        pol = polar(s)
        gens, _ = generators(pol)
        for g in gens:  # every S° member pairs to 1 with S (S ⊆ S°°)
            galois_ok &= abs(pairing(s.space, g, u.ravel()) - 1) <= 1e-9
        bip = polar(pol)
        galois_ok &= bip.kind == "singleton_unitary"
        tri = polar(polar(pol))
        galois_ok &= tri.kind == pol.kind and tri.payload == pol.payload
        # R ⊆ S ⇒ S° ⊆ R°: with R = {u} ⊆ S = {u, u'} finite, any f ∈ S°
        # must satisfy the R-pairing by definition — verified on members
        f0 = (u.conj().T / n).ravel()
        galois_ok &= membership(pol, f0) == "yes"
    checks["galois"] = galois_ok

    # sphere forcing: nonempty polar pins members and functionals to norm 1
    sphere_ok = True
    for trial in range(500):
        n = 2 + trial % 2
        u = rand_unitary(rng, n)
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        f_rep = np.outer(psi, psi.conj()) @ u.conj().T  # ⟨ψ|u*·|ψ⟩
        sphere_ok &= abs(op_norm(u) - 1) <= 1e-9
        sphere_ok &= abs(tr_norm(f_rep) - 1) <= 1e-9
        sphere_ok &= abs(np.trace(f_rep @ u) - 1) <= 1e-9
    checks["sphere"] = sphere_ok

    # unitary rigidity: pairing ≥ n − 1e-9 forces ‖g − u‖ ≤ 1e-4
    rigid_ok = True
    tested = 0
    for n in (2, 3):
        count = 0
        while count < 500:
            u = rand_unitary(rng, n)
            h = rand_hermitian(rng, n)
            h = h - np.trace(h) * np.eye(n) / n
            nh = op_norm(h)
            if nh < 1e-12:
                continue
            eps = float(rng.uniform(0.0, 2.4e-5)) / nh
            w, v = np.linalg.eigh(h)
            g = u @ (v @ np.diag(np.exp(1j * eps * w)) @ v.conj().T)
            if np.trace(u.conj().T @ g).real < n - 1e-9:
                continue
            count += 1
            tested += 1
            rigid_ok &= op_norm(g - u) <= 1e-4
    checks["rigidity"] = rigid_ok and tested == 1000

    # density operators: PSD ∧ ε=1 agrees with ‖·‖_tr = 1 = ε on Hermitians
    dens_ok = True
    for trial in range(500):
        shape = ([2], [3], [2, 1])[trial % 3]
        co = make_coalgebra(shape)
        b = BlockMatrix([rand_hermitian(rng, k) for k in shape])
        tr = b.trace().real
        if abs(tr) > 1e-9:
            b = b * (1.0 / tr)
        lhs = positivity(b, co, tol=1e-9).positive and abs(b.trace() - 1) <= 1e-9
        rhs = abs(b.tr_norm() - 1) <= 1e-9 and abs(b.trace() - 1) <= 1e-9
        dens_ok &= lhs == rhs
        sset = density_ops(shape)
        dens_ok &= (membership(sset, b.to_vector()) == "yes") == lhs
    checks["density"] = dens_ok

    ok = all(checks.values())
    return AcceptanceResult(
        "7 polar and bipolar properties",
        ok,
        ", ".join(f"{k}={v}" for k, v in checks.items()),
    )


def criterion_8(config: RunConfig) -> AcceptanceResult:
    """Norm ordering inj ≤ h ≤ proj and Haagerup primal/dual agreement."""
    rng = config.rng(salt=8)
    spaces = [tens(M(2), M(2)) for tens in (tens_min, tens_h, tens_proj)]
    crossings = 0
    for trial in range(50):
        k = 1 + trial % 2
        w = rand_complex(rng, 1, k * k * 16).ravel().reshape(k, k, 16)
        bi, bh, bp = (norm_at(SpaceElement(sp, k, w), config) for sp in spaces)
        if bi.upper > bh.upper + 1e-6 or bh.lower > bp.upper + 1e-6:
            crossings += 1
    bad_width = 0
    for trial in range(20):
        x, y = rand_complex(rng, 2), rand_complex(rng, 2)
        w = elem_coords(x.ravel(), y.ravel()) + 0.05 * rand_complex(rng, 1, 16).ravel()
        bh = norm_at(SpaceElement(spaces[1], 1, w), config)
        if (bh.upper - bh.lower) > 0.10 * max(bh.upper, 1e-12):
            bad_width += 1
    ok = crossings == 0 and bad_width == 0
    return AcceptanceResult(
        "8 norm ordering and bracket agreement",
        ok,
        f"crossings={crossings}/50, loose elementary brackets={bad_width}/20",
    )


def criterion_9(config: RunConfig) -> AcceptanceResult:
    """Quantum switch: exactness, projective evidence, Haagerup violation of ratio n."""
    results, ratios = {}, {}
    for n in (2, 3):
        _, report = quantum_switch(n, config)
        results[n] = [c["verdict"] for c in report["claims"]]
        ratios[n] = report["claims"][2]["evidence"]["ratio"]
    ok = all(results[n] == ["pass"] * 3 and abs(ratios[n] - n) <= 1e-9 for n in (2, 3))
    return AcceptanceResult(
        "9 quantum switch",
        ok,
        f"verdicts={results}, violation ratios={ratios} (want n)",
    )


def criterion_10(config: RunConfig) -> AcceptanceResult:
    """CLI determinism, parser totality under fuzz, exit-code contract."""
    import random as pyrandom

    from .cli import ParseError, emit_report, parse_session, run_session

    tutorial = _tutorial_session()
    ast = parse_session(tutorial)
    rep1 = emit_report(run_session(ast, config), "json")
    rep2 = emit_report(run_session(parse_session(tutorial), config), "json")
    deterministic = rep1 == rep2

    rnd = pyrandom.Random(1234)
    alphabet = "abMT()[]{};:=,+*#->0123456789 \t\nε◦"
    crashes = 0
    for _ in range(100_000):
        s = "".join(rnd.choice(alphabet) for _ in range(rnd.randrange(0, 60)))
        try:
            parse_session(s)
        except ParseError:
            pass
        except Exception:
            crashes += 1

    codes = []
    for text, want in (
        ("norm op [[1]];", 0),
        ("check cp t;\nmap t = transpose(2);", 1),  # undefined first
        ("alg A = [2];\nmap f = identity([2]);\nnorm op [[1]];", 0),
        ("space A = M(2,;", 3),
        (
            # only-unknown session: morphism over an unsupported carrier
            "alg A = [2];\nmap f = identity([4]);\n"
            "obj h = H(A);\nobj t = tensor(h, h);\ncheck morphism f : t -> t;",
            2,
        ),
    ):
        try:
            ast = parse_session(text)
            r = run_session(ast, config)
            codes.append((r.exit_code, want))
        except ParseError:
            codes.append((3, want))
    exit_ok = all(got == want for got, want in codes)

    ok = deterministic and crashes == 0 and exit_ok
    return AcceptanceResult(
        "10 cli determinism, fuzz, exit codes",
        ok,
        f"deterministic={deterministic}, crashes={crashes}/100000, exit codes ok={exit_ok}",
    )


def _tutorial_session() -> str:
    from importlib import resources

    return resources.files("oscat").joinpath("data/tutorial.oscat").read_text()


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
]


def run_all(config: RunConfig | None = None) -> list[AcceptanceResult]:
    config = config or RunConfig()
    return [crit(config) for crit in CRITERIA]
