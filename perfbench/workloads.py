"""Seeded inputs, item runners and answer checks for the benchmark workloads.

Each workload is a fixed batch of items.  Its composition (how many items of
each kind and size) does not depend on the seed; the seed draws only the
numbers (unitaries, Choi matrices, tensor coordinates) and the order, so the
work per batch is steady across seeds.  Inputs are generated with numpy and
handed to oscat as data.  Checks run after the timed loop and use numpy
oracles, never the code under test.

`build(workload, seed)` returns a `Batch`: the items, and a cross-item check
for answers that relate several items (norm orderings, repeated queries).
"""
from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

import oscat.cli as cli
import oscat.normlab as normlab
import oscat.osx as osx
import oscat.qglue as qglue
from oscat.config import BracketCaps, RunConfig
from oscat.supop import SuperOp

# NormBracket.from_bounds calls a bracket exact when its width is at most
# 1e-6 * max(1, upper): the resolution of a certified answer.
EXACT_REL = 1e-6


class Item:
    """One unit of user-visible work: `run()` is timed, `check(out)` is not.

    `check` returns (errors, brackets): a list of error strings and the
    (lower, upper, status) of every norm the item computed.  `gauge` names
    the host-speed gauge (gauge.py) that does the same kind of work.
    """

    def __init__(self, kind, run, check, gauge="mix"):
        self.kind = kind
        self.run = run
        self.check = check
        self.gauge = gauge


class Batch:
    def __init__(self, items, cross_check=None, digest=None):
        self.items = items
        self.cross_check = cross_check or (lambda outs: [])
        self.digest = digest


def build(workload: str, seed: int) -> Batch:
    return {"session_mix": _session_mix, "diamond": _diamond,
            "tensor_search": _tensor_search}[workload](seed)


PROBE_SESSION = """alg A = [1];
coalg C = [1];
map i = identity([1]);
assert laws A;
check cptp i : C -> C;
norm haagerup [[1]] in M(1) (*h) M(1);
obj s = S(C);
check morphism i : s -> s;
"""


def probe(seed: int) -> None:
    """Call every traced layer once, with known answers.

    A traced round runs this before its batch, so that no layer's time reads
    a constant 0 on a workload that otherwise leaves the layer idle.
    """
    config = RunConfig(seed=seed)
    report = cli.run_session(cli.parse_session(PROBE_SESSION), config)
    cli.emit_report(report, "json")
    element = osx.SpaceElement(osx.parse_space("M(1) (*min) M(1)"), 1, np.ones(1))
    norm = osx.norm_at(element, config).mid
    # scalars commute, so the n = 1 switch has no Haagerup violation to find
    _, qsw = qglue.quantum_switch(1, replace(config, caps=BracketCaps(ascent_steps=0)))
    got = ([r.status for r in report.records], [c["verdict"] for c in qsw["claims"]])
    if got != (["pass"] * 4, ["pass", "pass", "unknown"]) or abs(norm - 1.0) > EXACT_REL:
        raise RuntimeError(f"probe answered {got}, norm {norm}")


# ---------------------------------------------------------------------------
# numpy helpers and oracles

def _cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _haar(rng, n):
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _opn(m) -> float:
    return float(np.linalg.norm(m, 2))


def _trn(m) -> float:
    return float(np.linalg.norm(m, "nuc"))


def _slack(x) -> float:
    return EXACT_REL * max(1.0, abs(x))


def _contains(br, want, what):
    lo, hi = br
    if lo - _slack(want) <= want <= hi + _slack(want):
        return None
    return f"{what}: [{lo!r}, {hi!r}] does not contain {want!r}"


def _upper_at_least(br, bound, what):
    lo, hi = br
    if lo > hi + _slack(hi):
        return f"{what}: crossed bracket [{lo!r}, {hi!r}]"
    if hi < bound - _slack(bound):
        return f"{what}: upper {hi!r} below the independent bound {bound!r}"
    return None


def _entry(z) -> str:
    """Matrix-literal entry that parses back to exactly this double pair."""
    im = float(z.imag)
    return f"{float(z.real)!r}{'-' if im < 0 else '+'}{abs(im)!r}i"


def _lit(m) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(_entry(z) for z in row) + "]" for row in np.asarray(m)
    ) + "]"


# ---------------------------------------------------------------------------
# session_mix: generated .oscat sessions through parse -> run -> emit(json)

SHAPES = ((2,), (3,), (2, 1), (2, 2), (4,), (3, 2), (2, 2, 1))
N_SESSIONS = 100
TENSOR_OPS = {"haagerup": "(*h)", "proj": "(*proj)", "inj": "(*min)"}


def _session(i: int, rng):
    """Session text and, per report record, its expected status and check.

    Verdicts are known by construction: conjugations are CPTP, unital and
    (co)algebra homomorphisms with diamond norm 1; transposes are not CP and
    have diamond norm n; depolarizing maps are unital CPTP but not
    multiplicative.
    """
    n = 3 if i % 5 == 4 else 2
    shape = ",".join(str(k) for k in SHAPES[i % len(SHAPES)])
    lines = [
        f"alg A = [{n}];",
        f"coalg C = [{n}];",
        f"{'alg' if i % 2 == 0 else 'coalg'} B = [{shape}];",
        f"map u = conj_by({_lit(_haar(rng, n))});",
        "map h = adjoint(u);",
        f"map t = transpose({n});",
        f"map d = depolarize({n});",
        "map c = compose(u, d);",
    ]
    want = []

    def stmt(text, status, check=None):
        lines.append(text)
        want.append((status, check))

    def cb_contains(value):
        return lambda r: _contains(r.detail.get("cb_norm", (np.nan, np.nan)), value, "cb check")

    def bracket_contains(value):
        return lambda r: _contains(r.bracket, value, "norm")

    stmt("assert laws B;", "pass")
    stmt("check cp t;", "fail")
    stmt("check tp t;", "pass")
    stmt("check unital d;", "pass")
    if i % 2:
        stmt("check alghom d : A -> A;", "fail")
    else:
        stmt("check alghom h : A -> A;", "pass")
    stmt("check coalghom u : C -> C;", "pass")
    # small SDPs: the cb check inside certify_morphism, cb and diamond norms
    if i % 3 == 0:
        stmt("check cptp c : C -> C;", "pass", cb_contains(1.0))
    elif i % 3 == 1:
        stmt("check cpu h : A -> A;", "pass", cb_contains(1.0))
    else:
        stmt("norm cb h operator;", "pass", bracket_contains(1.0))
    if n == 2:
        if i % 2:
            stmt("norm diamond t;", "pass", bracket_contains(float(n)))
        else:
            stmt("norm diamond c;", "pass", bracket_contains(1.0))
    m = _cgauss(rng, n, n)
    kind, want_value = ("op", _opn(m)) if i % 2 else ("tr", _trn(m))
    stmt(f"norm {kind} {_lit(m)};", "pass",
         lambda r, w=want_value: _contains((r.value, r.value), w, "closed-form norm"))
    kind = ("haagerup", "proj", "inj")[i % 3]
    if (i // 3) % 2 == 0:
        x, y = _cgauss(rng, 2, 2), _cgauss(rng, 2, 2)
        v = np.kron(x, y)
        tcheck = bracket_contains(_opn(x) * _opn(y))
    else:
        v = _cgauss(rng, 4, 4)
        if kind == "inj":
            tcheck = bracket_contains(_opn(v))
        else:  # the min norm is the smallest of the three tensor norms
            tcheck = lambda r, b=_opn(v): _upper_at_least(r.bracket, b, "tensor norm")
    stmt(f"norm {kind} {_lit(v)} in M(2) {TENSOR_OPS[kind]} M(2);", "pass", tcheck)
    lines += ["obj s = S(C);", "obj k = H(A);"]
    stmt("check morphism u : s -> s;", "pass")
    if i % 2:
        stmt("check morphism t : s -> s;", "fail")
    else:
        stmt("check morphism h : k -> k;", "pass")
    if n == 2 and i % 4 == 0:
        lines += [f"map v = conj_by({_lit(_haar(rng, 2))});", "map w = tensor(u, v);",
                  "obj s4 = tensor(s, s);"]
        stmt("check morphism w : s4 -> s4;", "pass")
    return "\n".join(lines) + "\n", want


def _check_session(want, out):
    report, _ = out
    errors, brackets = [], []
    if len(report.records) != len(want):
        return [f"{len(report.records)} records, want {len(want)}"], brackets
    for rec, (status, check) in zip(report.records, want):
        if rec.status != status:
            errors.append(f"{rec.command[:60]!r}: status {rec.status}, want {status}")
            continue
        err = check(rec) if check else None
        if err:
            errors.append(f"{rec.command[:60]!r}: {err}")
        if rec.command.startswith("norm "):
            if rec.bracket is not None:
                brackets.append((rec.bracket[0], rec.bracket[1], rec.detail.get("norm_status")))
            else:
                brackets.append((rec.value, rec.value, "exact"))
    return errors, brackets


def _session_mix(seed: int) -> Batch:
    rng = np.random.default_rng([seed, 1])
    config = RunConfig(seed=seed)
    items = []
    for i in rng.permutation(N_SESSIONS):
        text, want = _session(int(i), rng)

        def run(text=text):
            report = cli.run_session(cli.parse_session(text), config)
            return report, cli.emit_report(report, "json")

        items.append(Item(f"session-n{3 if i % 5 == 4 else 2}", run,
                          lambda out, w=want: _check_session(w, out)))
    return Batch(items, digest=lambda out: hashlib.sha256(out[1]).hexdigest()[:16])


# ---------------------------------------------------------------------------
# diamond: diamond and operator-picture cb norms of single maps

# (n, map kind, items); norms alternate diamond / cb.  Most items are n = 3,
# so the median falls inside the cluster of Hermitian n = 3 SDPs, and the 90th
# percentile near the middle of the 22 slowest items (random n = 3, and n = 4),
# not at the edge of a cluster.
DIAMOND_MIX = (
    (2, "random", 14), (2, "cptp", 14), (2, "transpose", 14),
    (3, "random", 20), (3, "cptp", 18), (3, "transpose", 18),
)
DIAMOND_N4 = ((4, "transpose", "diamond"), (4, "cptp", "cb"))


def _choi_of_kraus(kraus):
    """J = Σ φ(E_ab) ⊗ E_ab (codomain factor first) for φ(x) = Σ K x K†."""
    return sum(np.outer(k.ravel(), k.ravel().conj()) for k in kraus)


def _diamond_input(rng, n, kind):
    """(Choi matrix, diamond check, cb check) for one map."""
    if kind == "transpose":
        j = np.eye(n * n)[np.arange(n * n).reshape(n, n).T.ravel()]
        return j, (lambda br: _contains(br, float(n), "transpose diamond"),
                   lambda br: _contains(br, float(n), "transpose cb"))
    if kind == "cptp":
        v = np.linalg.qr(_cgauss(rng, n * n, n))[0]  # Stinespring isometry
        kraus = [v[e * n:(e + 1) * n] for e in range(n)]
        unit_image = sum(k @ k.conj().T for k in kraus)
        # CPTP maps have diamond norm 1; a CP map has cb norm ‖φ(1)‖
        return _choi_of_kraus(kraus), (
            lambda br: _contains(br, 1.0, "cptp diamond"),
            lambda br, b=_opn(unit_image): _contains(br, b, "cp cb"))
    j = _cgauss(rng, n * n, n * n)
    unit_image = np.einsum("yaza->yz", j.reshape(n, n, n, n))
    # the maximally entangled input gives ‖J‖_tr/n; the unit gives ‖φ(1)‖
    return j, (lambda br, b=_trn(j) / n: _upper_at_least(br, b, "random diamond"),
               lambda br, b=_opn(unit_image): _upper_at_least(br, b, "random cb"))


def _diamond(seed: int) -> Batch:
    rng = np.random.default_rng([seed, 2])
    specs = [(n, kind, ("diamond", "cb")[j % 2])
             for n, kind, count in DIAMOND_MIX for j in range(count)]
    specs += list(DIAMOND_N4)
    items = []
    for idx in rng.permutation(len(specs)):
        n, kind, norm = specs[idx]
        j, checks = _diamond_input(rng, n, kind)
        s = SuperOp.from_big_choi(j, (n,), (n,))
        check = checks[0] if norm == "diamond" else checks[1]
        if norm == "diamond":
            run = lambda s=s: normlab.diamond_norm(s)
        else:
            run = lambda s=s: normlab.cb_norm(s, "operator")

        def check_out(br, check=check):
            err = None if br.status != "unknown" else "status unknown"
            err = err or check((br.lower, br.upper))
            return ([err] if err else []), [(br.lower, br.upper, br.status)]

        items.append(Item(f"{norm}-{kind}-n{n}", run, check_out,
                          f"sdp{n}{'r' if kind == 'random' else 'h'}"))
    return Batch(items)


# ---------------------------------------------------------------------------
# tensor_search: norm_at on tensor, dual and sum spaces, plus one qswitch

TENSOR_RANDOM = ((2, 1, 7), (2, 2, 7), (3, 1, 6), (3, 2, 2))  # (n, level, elements)
TENSOR_ELEMENTARY = ((2, 1), (2, 2), (3, 1), (3, 2))
DUAL_SPACES = (  # (space, block sizes of the representing matrices)
    ("dual(M(2) (+inf) M(1))", (2, 1)), ("T(2) (+1) T(1)", (2, 1)), ("dual(M(3))", (3,)),
)
TENSOR_REPEATS = {("random", "(*h)"): 7, ("random", "(*proj)"): 7, ("random", "(*min)"): 3,
                  ("dual", "dual(M(3))"): 3}


def _min_flat(coords, k, n):
    """Level-k element of M(n) (x)min M(n) as one (k n², k n²) matrix."""
    return coords.reshape(k, k, n, n, n, n).transpose(0, 2, 4, 1, 3, 5).reshape(
        k * n * n, k * n * n)


def _level1_dual_norm(vec, blocks):
    """Σ_i ‖r_i‖_tr: the norm of x ↦ Σ tr(r_i x_i) on ⊕∞ M, and of ⊕₁ T."""
    out, off = 0.0, 0
    for b in blocks:
        out += _trn(vec[off:off + b * b].reshape(b, b))
        off += b * b
    return out


def _tensor_search(seed: int) -> Batch:
    rng = np.random.default_rng([seed, 3])
    config = RunConfig(seed=seed)
    spaces = {op: {n: osx.parse_space(f"M({n}) {op} M({n})") for n in (2, 3)}
              for op in ("(*h)", "(*proj)", "(*min)")}
    queries = []  # (element id, space key, SpaceElement)
    facts = {}  # element id -> oracle values for the cross checks
    eid = 0
    for n, k, count in TENSOR_RANDOM:
        for c in range(count):
            coords = _cgauss(rng, k, k, n ** 4)
            facts[eid] = ("random", _opn(_min_flat(coords, k, n)))
            # every element is queried in (*h) and (*proj), half also in (*min)
            for op in ("(*h)", "(*proj)", "(*min)") if c % 2 == 0 else ("(*h)", "(*proj)"):
                queries.append((eid, op, osx.SpaceElement(spaces[op][n], k, coords)))
            eid += 1
    for n, k in TENSOR_ELEMENTARY:
        x, y = _cgauss(rng, k, k, n * n), _cgauss(rng, n, n)
        coords = np.einsum("ija,b->ijab", x, y.ravel()).reshape(k, k, n ** 4)
        xflat = x.reshape(k, k, n, n).transpose(0, 2, 1, 3).reshape(k * n, k * n)
        facts[eid] = ("elementary", _opn(xflat) * _opn(y))
        for op in ("(*h)", "(*proj)", "(*min)"):
            queries.append((eid, op, osx.SpaceElement(spaces[op][n], k, coords)))
        eid += 1
    for text, blocks in DUAL_SPACES:
        space = osx.parse_space(text)
        d = sum(b * b for b in blocks)
        for k in (1, 2, 1, 2):
            coords = _cgauss(rng, k, k, d)
            entries = [_level1_dual_norm(coords[i, j], blocks) for i in range(k) for j in range(k)]
            facts[eid] = ("dual", max(entries), sum(entries))
            queries.append((eid, text, osx.SpaceElement(space, k, coords)))
            eid += 1
    # about one query in five repeats an earlier one, so the norm cache works;
    # a fixed number of repeats per space keeps the mix the same for every seed
    repeats = []
    for (kind, key), count in TENSOR_REPEATS.items():
        pool = [q for q in queries if facts[q[0]][0] == kind and q[1] == key]
        repeats += [pool[i] for i in rng.choice(len(pool), count, replace=False)]
    order = [queries[q] for q in rng.permutation(len(queries))]
    for query in repeats:
        first = next(i for i, q in enumerate(order) if q is query)
        order.insert(int(rng.integers(first + 1, len(order) + 1)), query)
    qswitch_at = int(rng.integers(0, len(order) + 1))

    items = []
    for e, key, el in order:
        def check(br, e=e, key=key):
            fact = facts[e]
            if br.status == "unknown":
                err = "status unknown"
            elif fact[0] == "elementary":
                err = _contains((br.lower, br.upper), fact[1], f"elementary {key}")
            elif fact[0] == "dual":  # entry norms bound the matrix norm both ways
                err = _upper_at_least((br.lower, br.upper), fact[1], "dual level norm")
                if not err and br.lower > fact[2] + _slack(fact[2]):
                    err = f"dual level norm: lower {br.lower!r} above Σ entries {fact[2]!r}"
            elif key == "(*min)":
                err = _contains((br.lower, br.upper), fact[1], "min norm")
            else:
                err = _upper_at_least((br.lower, br.upper), fact[1], f"{key} norm")
            return ([err] if err else []), [(br.lower, br.upper, br.status)]

        items.append(Item(f"norm_at {key} L{el.level} d{el.coords.shape[-1]}",
                          lambda el=el: osx.norm_at(el, config), check))

    def check_qswitch(out):
        verdicts = [c["verdict"] for c in out[1]["claims"]]
        ok = verdicts == ["pass", "pass", "pass"]
        return ([] if ok else [f"quantum_switch(2) claims {verdicts}"]), []

    items.insert(qswitch_at, Item("quantum_switch", lambda: qglue.quantum_switch(2, config),
                                  check_qswitch))
    keys = [(e, key) for e, key, _ in order]
    keys.insert(qswitch_at, None)

    def cross_check(outs):
        """Orderings inj ≤ h.upper, h.lower ≤ proj.upper; repeats answer the same."""
        errors, first, seen = [], {}, {}
        for idx, (key, out) in enumerate(zip(keys, outs)):
            if key is None or out is None:
                continue
            br = (out.lower, out.upper)
            if key in first and first[key] != br:
                errors.append((idx, f"repeat of {key} gave {br}, first {first[key]}"))
            first.setdefault(key, br)
            seen.setdefault(key[0], {})[key[1]] = (idx, br)
        for q in seen.values():
            h, p, m = q.get("(*h)"), q.get("(*proj)"), q.get("(*min)")
            if h and m and m[1][1] > h[1][1] + _slack(h[1][1]):
                errors.append((m[0], f"inj {m[1][1]!r} above h.upper {h[1][1]!r}"))
            if h and p and h[1][0] > p[1][1] + _slack(p[1][1]):
                errors.append((h[0], f"h.lower {h[1][0]!r} above proj.upper {p[1][1]!r}"))
        return errors

    return Batch(items, cross_check=cross_check)
