"""Self-contained primal-dual SDP solver on sparse LMI data (log-barrier path following).

Problems are stated in inequality (LMI) form over real symmetric blocks:

    minimize    c·y
    subject to  S_b(y) = F0_b + Σ_i y_i Fi_b  ⪰ 0   for every block b,
                A y = b_eq                          (optional equalities)

Every Fi_b is held as the (constraint, row, col, value) triples of its
nonzeros (`lmi_triples`); a dense (m, nb, nb) stack is accepted and converted
once.  S(y) is assembled by scatter-add, and the Schur complement
tr(S⁻¹FᵢS⁻¹Fⱼ) is formed by one scatter, one GEMM and a gather over the
triples (Fujisawa–Kojima–Nakata, Math. Prog. 79, 1997).  Equalities are
eliminated on the triples by an affine reparameterization before the barrier
loop.

An `optimal` result carries a dual certificate Z ⪰ 0 with tr(Fi·Z) = c_i,
built from the S⁻¹ and Hessian of Newton's last point and accepted when the
equality residual is below 1e-9 (relative) and λ_min(Z) ≥ −1e-14·scale.  The
duality gap is therefore a two-sided bound up to those floating-point
tolerances; they are not yet charged against the bound.  Complex Hermitian
data enters through `real_embed_herm` (dense) or the index arrays of
`HermBasis` (triples).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeMismatchError, SizeLimitError

MAX_PSD_DIM = 512

# one nonzero Fᵢ[row, col] = val of an LMI block, i = con
LMI_TRIPLE = np.dtype([("con", np.int32), ("row", np.int32), ("col", np.int32), ("val", np.float64)])


def lmi_triples(con, row, col, val) -> np.ndarray:
    """Pack parallel index/value arrays as one block's LMI_TRIPLE array."""
    out = np.empty(np.size(val), dtype=LMI_TRIPLE)
    out["con"], out["row"], out["col"], out["val"] = con, row, col, val
    return out


def real_embed_herm(h: np.ndarray) -> np.ndarray:
    """Complex Hermitian (or general) H = A+iB ↦ [[A, -B], [B, A]].

    For Hermitian H the image is symmetric with the same spectrum, doubled.
    """
    a, b = h.real, h.imag
    return np.block([[a, -b], [b, a]])


class HermBasis:
    """Real parameterization of complex Hermitian n×n matrices.

    Parameter order: n diagonal entries, then (Re, Im) for each p<q pair in
    row-major order.  The basis is held as the triples (param, row, col, val)
    of its nonzero entries: `mats[param[l]][row[l], col[l]] = val[l]`.
    """

    def __init__(self, n: int):
        self.n = n
        diag = np.arange(n)
        iu, ju = np.triu_indices(n, 1)
        re = n + 2 * np.arange(iu.size)  # Re parameter of pair (iu, ju); Im is re + 1
        self.param = np.concatenate([diag, re, re, re + 1, re + 1])
        self.row = np.concatenate([diag, iu, ju, iu, ju])
        self.col = np.concatenate([diag, ju, iu, ju, iu])
        self.val = np.concatenate(
            [np.ones(n + 2 * iu.size), np.full(iu.size, -1j), np.full(iu.size, 1j)]
        )
        self.mats = np.zeros((n * n, n, n), dtype=np.complex128)
        self.mats[self.param, self.row, self.col] = self.val

    def __len__(self) -> int:
        return self.n * self.n

    def assemble(self, params) -> np.ndarray:
        acc = np.zeros((self.n, self.n), dtype=np.complex128)
        np.add.at(acc, (self.row, self.col), np.asarray(params, dtype=np.float64)[self.param] * self.val)
        return acc

    def coords(self, h: np.ndarray) -> np.ndarray:
        """Parameters of the Hermitian part of h (the inverse of `assemble`)."""
        h = np.asarray(h)
        proj = (self.val.conj() * h[self.row, self.col]).real
        return np.bincount(self.param, weights=proj, minlength=len(self)) / np.bincount(
            self.param, minlength=len(self)
        )


def _by_length(starts, size):
    """Group contiguous runs (first indices `starts` in a sequence of `size`) by length.

    Returns [(run numbers, (runs, k) sequence indices)] per length k, so a
    weighted sum over every run is one einsum per group.
    """
    lens = np.diff(np.append(starts, size))
    groups = []
    for k in np.unique(lens):
        sel = np.flatnonzero(lens == k)
        groups.append((sel, starts[sel][:, None] + np.arange(k)))
    return groups


class _Block:
    """One LMI block: size n, dense F0, and F1..Fm as canonical triples.

    Only the symmetric part of each Fᵢ enters S(y) ⪰ 0, so the triples are
    symmetrized (mirror entries bit-equal, hence S(y) is exactly symmetric),
    duplicates are summed, zeros dropped, and the rest sorted by
    (con, row, col), which makes every (con, row) run and every con run
    contiguous.
    """

    def __init__(self, f0, m, con, row, col, val):
        n = f0.shape[0]
        con, row, col = (np.asarray(a, dtype=np.intp).ravel() for a in (con, row, col))
        val = np.asarray(val, dtype=np.float64).ravel()
        if not con.size == row.size == col.size == val.size:
            raise ShapeMismatchError("LMI triple arrays differ in length")
        if con.size and (
            min(con.min(), row.min(), col.min()) < 0 or con.max() >= m or max(row.max(), col.max()) >= n
        ):
            raise ShapeMismatchError(f"LMI triple index outside {m} constraints of size {n}")
        nn = max(n * n, 1)
        keys, inv = np.unique(
            np.concatenate([con * nn + row * n + col, con * nn + col * n + row]), return_inverse=True
        )
        v = np.bincount(inv, weights=np.concatenate([val, val]) * 0.5, minlength=keys.size)
        con, rc = np.divmod(keys, nn)
        row, col = np.divmod(rc, max(n, 1))
        v = (v + v[np.searchsorted(keys, con * nn + col * n + row)]) * 0.5
        keep = v != 0
        self.n, self.m, self.f0 = n, m, (f0 + f0.T) * 0.5
        self.con, self.row, self.col, self.val = con[keep], row[keep], col[keep], v[keep]
        self.flat = self.row * n + self.col
        # (con, row) runs and con runs, grouped by length for the Schur sums
        run = np.flatnonzero(np.diff(self.con * n + self.row, prepend=-1))
        self.run_groups = [
            (self.con[run[sel]], self.row[run[sel]], self.val[idx], self.col[idx])
            for sel, idx in _by_length(run, self.val.size)
        ]
        cons = np.flatnonzero(np.diff(self.con, prepend=-1))
        self.con_groups = [
            (self.con[cons[sel]], self.val[idx], self.col[idx], self.row[idx])
            for sel, idx in _by_length(cons, self.val.size)
        ]

    def lin(self, w) -> np.ndarray:
        """Σᵢ wᵢ Fᵢ."""
        n = self.n
        return np.bincount(self.flat, weights=w[self.con] * self.val, minlength=n * n).reshape(n, n)

    def s(self, y) -> np.ndarray:
        """S(y) = F0 + Σᵢ yᵢ Fᵢ."""
        return self.f0 + self.lin(y)

    def traces(self, z) -> np.ndarray:
        """tr(Fᵢ Z) for every i, Z symmetric."""
        return np.bincount(self.con, weights=self.val * z.ravel()[self.flat], minlength=self.m)

    def grad_hess(self, sinv):
        """tr(S⁻¹Fᵢ) and the Schur complement tr(S⁻¹FᵢS⁻¹Fⱼ)."""
        n, m = self.n, self.m
        # g[p, b, i] = (Fᵢ S⁻¹)[p, b]: one scatter of summed S⁻¹ rows per (i, p) run
        g = np.zeros((n, n, m))
        for cons, rows, val, col in self.run_groups:
            g[rows, :, cons] = np.einsum("rk,rkb->rb", val, sinv[col])
        w = (sinv @ g.reshape(n, n * m)).reshape(n, n, m)  # w[a, b, i] = (S⁻¹FᵢS⁻¹)[a, b]
        # h[j, i] = tr(Fⱼ (S⁻¹FᵢS⁻¹)), gathered over the triples of each j
        h = np.zeros((m, m))
        for cons, val, col, row in self.con_groups:
            h[cons] = np.einsum("jk,jki->ji", val, w[col, row])
        return self.traces(sinv), (h + h.T) * 0.5

    def substitute(self, y0, null) -> "_Block":
        """The block of z ↦ S(y0 + N z): F0' = S(y0) and F'ⱼ = Σᵢ N[i, j] Fᵢ."""
        src, j = np.nonzero((null != 0)[self.con])  # triple l feeds every j with N[con_l, j] ≠ 0
        return _Block(
            self.s(y0), null.shape[1], j, self.row[src], self.col[src], self.val[src] * null[self.con[src], j]
        )


@dataclass
class SdpProblem:
    """LMI-form SDP; `f0[b]` has shape (nb, nb) and `fs[b]` holds F1..Fm of block b.

    `fs[b]` is either a dense (m, nb, nb) array or an LMI_TRIPLE array of the
    nonzeros; it is converted once, and `fs` keeps what the caller gave.
    """

    c: np.ndarray
    f0: list
    fs: list
    eq_a: np.ndarray | None = None
    eq_b: np.ndarray | None = None
    slater: np.ndarray | None = None
    obj_offset: float = 0.0
    blocks: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        m = self.c.size
        if len(self.f0) != len(self.fs):
            raise ShapeMismatchError(f"{len(self.f0)} F0 blocks but {len(self.fs)} Fi blocks")
        f0s = [np.asarray(f0b, dtype=np.float64) for f0b in self.f0]
        total = 0
        for b, f0b in enumerate(f0s):
            if f0b.ndim != 2 or f0b.shape[0] != f0b.shape[1]:
                raise ShapeMismatchError(f"F0 of block {b} is not square")
            total += f0b.shape[0]
        if total > MAX_PSD_DIM:
            raise SizeLimitError(f"total PSD dimension {total} exceeds {MAX_PSD_DIM}")
        self.blocks = []
        for b, (f0b, fsb) in enumerate(zip(f0s, self.fs)):
            fsb = np.asarray(fsb)
            if fsb.dtype == LMI_TRIPLE:
                t = fsb.ravel()
                con, row, col, val = t["con"], t["row"], t["col"], t["val"]
            else:
                fsb = np.asarray(fsb, dtype=np.float64)
                if fsb.shape != (m,) + f0b.shape:
                    raise ShapeMismatchError(f"inconsistent LMI data in block {b}")
                con, row, col = np.nonzero(fsb)
                val = fsb[con, row, col]
            self.blocks.append(_Block(f0b, m, con, row, col, val))

    @property
    def nu(self) -> int:
        return sum(blk.n for blk in self.blocks)


@dataclass
class SdpResult:
    status: str  # optimal | infeasible | numerical_failure
    value: float = np.nan
    y: np.ndarray | None = None
    dual_blocks: list = field(default_factory=list)
    gap: float = np.nan
    dual_value: float = np.nan
    iterations: int = 0
    message: str = ""


def _chol_or_none(s):
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None


def _interior(y, blocks) -> bool:
    return all(blk.n == 0 or _chol_or_none(blk.s(y)) is not None for blk in blocks)


def _barrier_value(tau, cvec, y, blocks):
    val = tau * float(cvec @ y)
    for blk in blocks:
        if blk.n == 0:
            continue
        l = _chol_or_none(blk.s(y))
        if l is None:
            return None
        val -= 2.0 * float(np.sum(np.log(np.diagonal(l))))
    return val


def _schur(y, blocks):
    """(S⁻¹ per block, Σ tr(S⁻¹Fᵢ), Σ tr(S⁻¹FᵢS⁻¹Fⱼ)) at y, or None off the interior."""
    m = y.size
    sinvs, grad, hess = [], np.zeros(m), np.zeros((m, m))
    for blk in blocks:
        if blk.n == 0:
            sinvs.append(np.zeros((0, 0)))
            continue
        s = blk.s(y)
        if _chol_or_none(s) is None:
            return None
        sinv = np.linalg.inv(s)
        sinv = (sinv + sinv.T) / 2
        g, h = blk.grad_hess(sinv)
        sinvs.append(sinv)
        grad += g
        hess += h
    return sinvs, grad, hess


def _newton_center(tau, cvec, y, blocks, lam_tol=0.2, max_iter=80):
    """Damped Newton on  tau·c·y − Σ log det S(y).

    Returns (y, lam, ok, at) with `at` the `_schur` data of the returned y,
    or None where it was not formed there.
    """
    m = cvec.size
    for it in range(max_iter):
        at = _schur(y, blocks)
        if at is None:
            return y, np.inf, False, None
        grad = tau * cvec - at[1]
        hess = at[2]
        try:
            dg = np.sqrt(np.clip(np.diagonal(hess), 1e-300, None))
            hs = hess / np.outer(dg, dg)
            d = np.linalg.solve(hs + 1e-13 * np.eye(m), -grad / dg) / dg
        except np.linalg.LinAlgError:
            return y, np.inf, False, at
        lam2 = float(-grad @ d)
        if lam2 < 0:  # hessian numerically indefinite
            d = -grad
            lam2 = float(grad @ grad)
        lam = np.sqrt(max(lam2, 0.0))
        if lam < lam_tol:
            return y, lam, True, at
        if np.max(np.abs(y)) > 1e12:
            return y, lam, False, at
        f_cur = _barrier_value(tau, cvec, y, blocks)
        step, ok_step = 1.0, False
        for _ in range(60):
            y_new = y + step * d
            f_new = _barrier_value(tau, cvec, y_new, blocks)
            if f_new is not None and f_new < f_cur - 1e-4 * step * lam2:
                y = y_new
                ok_step = True
                break
            step *= 0.5
        if not ok_step:
            # no decrease found: treat current point as centered enough
            return y, lam, lam < 1.0, at
    return y, lam, lam < 1.0, None


def _dual_certificate(tau, cvec, y, blocks, at=None):
    """Exactly dual-feasible Z from the near-central point, or None.

    The correction to Ẑ = S⁻¹/τ runs along S⁻¹FᵢS⁻¹ (the Hessian metric), so
    tr(Fᵢ·Z) = cᵢ is met exactly while positivity survives near the path.
    `at` is `_schur(y, blocks)` when the caller already has it.
    """
    if at is None:
        at = _schur(y, blocks)
        if at is None:
            return None
    sinvs, grad, hess = at
    resid = cvec - grad / tau  # want tr(Fi Z) = c_i
    try:
        w = np.linalg.solve(hess, resid)
    except np.linalg.LinAlgError:
        try:
            w = np.linalg.lstsq(hess, resid, rcond=None)[0]
        except np.linalg.LinAlgError:
            return None
    out, left = [], np.zeros(cvec.size)
    for blk, sinv in zip(blocks, sinvs):
        if blk.n == 0:
            out.append(sinv)
            continue
        zc = sinv / tau + sinv @ blk.lin(w) @ sinv
        zc = (zc + zc.T) / 2
        if np.linalg.eigvalsh(zc)[0] < -1e-14 * max(1.0, np.abs(zc).max()):
            return None
        out.append(zc)
        left += blk.traces(zc)
    # residual after correction must be negligible
    if np.max(np.abs(left - cvec)) > 1e-9 * (1.0 + np.max(np.abs(cvec))):
        return None
    return out


def _try_cert(tau, cvec, y, blocks, best, iters, at=None):
    zs = _dual_certificate(tau, cvec, y, blocks, at)
    if zs is None:
        return best
    primal = float(cvec @ y)
    dual = -sum(float(np.tensordot(blk.f0, z)) for blk, z in zip(blocks, zs) if z.shape[0])
    gap = primal - dual
    if best is None or gap < best[4]:
        return ("optimal", y.copy(), zs, primal, gap, iters)
    return best


def _solve_lmi(cvec, blocks, y0, rel_gap, max_outer=60):
    """Barrier loop from strictly feasible y0.  Returns SdpResult-like tuple."""
    y = y0.copy()
    nu = sum(blk.n for blk in blocks)
    if nu == 0 or cvec.size == 0:
        value = float(cvec @ y) if cvec.size else 0.0
        return ("optimal", y, [np.zeros((blk.n, blk.n)) for blk in blocks], value, value, 0)

    def good_enough(b):
        return b is not None and b[4] <= rel_gap * (1.0 + abs(b[3]))

    tau, mu, fails, iters, best, best_at = 1.0, 20.0, 0, 0, None, None
    for _ in range(max_outer):
        y, lam, ok, at = _newton_center(tau, cvec, y, blocks)
        iters += 1
        if at is None:
            at = _schur(y, blocks)
        found = _try_cert(tau, cvec, y, blocks, best, iters, at)
        if found is not best:
            best, best_at = found, at
        if good_enough(best):
            return best
        if not ok:
            fails += 1
            mu = max(2.0, np.sqrt(mu))
            if fails >= 4:
                break
        else:
            fails = 0
        tau *= mu
        if tau > 1e15:
            break
    # terminal squeeze: the certificate at inflated τ' is the Newton-step dual
    # at that τ'; it stays valid whenever the PSD check passes
    if best is not None:
        tau_p = tau
        for _ in range(30):
            tau_p *= 3.0
            improved = _try_cert(tau_p, cvec, best[1], blocks, best, iters, best_at)
            if improved is best:
                break
            best = improved
            if good_enough(best):
                return best
    if best is not None:
        return best
    return ("numerical_failure", y, [], float(cvec @ y), np.inf, iters)


def _eliminate_equalities(p: SdpProblem):
    """y = y0 + N z; returns (cz, blocks', y0, N, const) or None if infeasible."""
    m = p.c.size
    if p.eq_a is None:
        return p.c, p.blocks, np.zeros(m), np.eye(m), 0.0
    a = np.asarray(p.eq_a, dtype=np.float64).reshape(-1, m)
    b = np.asarray(p.eq_b, dtype=np.float64).ravel()
    y0, res, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if np.linalg.norm(a @ y0 - b) > 1e-10 * (1.0 + np.linalg.norm(b)):
        return None
    _, sv, vt = np.linalg.svd(a)
    tol = max(a.shape) * (sv[0] if sv.size else 0.0) * np.finfo(float).eps
    null = vt[np.sum(sv > tol) :].T  # (m, m - rank)
    blocks = [blk.substitute(y0, null) for blk in p.blocks]
    return null.T @ p.c, blocks, y0, null, float(p.c @ y0)


def _phase_one(cz, blocks):
    """Find strictly feasible z via  min t  s.t.  S(z) + t·I ⪰ 0, t ≥ -1.

    The t ≥ -1 cap keeps the objective bounded; any t < 0 certifies strict
    feasibility of the original constraints.
    """
    m = cz.size
    aug = []
    for blk in blocks:
        diag = np.arange(blk.n)
        aug.append(
            _Block(
                blk.f0,
                m + 1,
                np.concatenate([blk.con, np.full(blk.n, m)]),
                np.concatenate([blk.row, diag]),
                np.concatenate([blk.col, diag]),
                np.concatenate([blk.val, np.ones(blk.n)]),
            )
        )
    aug.append(_Block(np.eye(1), m + 1, [m], [0], [0], [1.0]))
    c_aug = np.zeros(m + 1)
    c_aug[m] = 1.0
    z = np.zeros(m + 1)
    t0 = 1.0
    for blk in blocks:
        if blk.n:
            t0 = max(t0, -float(np.linalg.eigvalsh(blk.f0)[0]) * 1.5 + 1.0)
    z[m] = t0

    def strictly_feasible(zv):
        for blk in blocks:
            if blk.n == 0:
                continue
            s = blk.s(zv)
            scale = max(1.0, float(np.abs(s).max()))
            try:
                w0 = float(np.linalg.eigvalsh(s)[0])
            except np.linalg.LinAlgError:
                return False
            if w0 < 1e-10 * scale:
                return False
        return True

    # short Newton bursts with direct feasibility checks: the phase-1 center
    # need not exist (unbounded sets), but iterates go strictly feasible fast
    tau, fails = 1.0, 0
    for _ in range(60):
        z, lam, ok, at = _newton_center(tau, c_aug, z, aug, max_iter=8)
        if z[m] < -1e-9 or strictly_feasible(z[:m]):
            return z[:m].copy(), "feasible"
        if not ok:
            fails += 1
            if fails >= 4:
                return None, "numerical_failure"
            continue
        zs = _dual_certificate(tau, c_aug, z, aug, at)
        if zs is not None:
            dual = -sum(float(np.tensordot(blk.f0, zb)) for blk, zb in zip(aug, zs) if zb.shape[0])
            if dual > 1e-9:
                return None, "infeasible"
            if lam < 0.2 and z[m] - dual < 1e-11:
                # optimum pinched at ~0: no strict interior
                return None, "infeasible"
        tau *= 5.0
    return None, "numerical_failure"


def sdp_solve(p: SdpProblem, rel_gap: float = 1e-8) -> SdpResult:
    """Solve the LMI-form SDP with a certified duality gap.

    status 'optimal' guarantees: S(y) ⪰ 0 (strictly, up to 1e-12), equalities
    to 1e-10, and value within `gap` of the true optimum with gap ≤
    rel_gap·(1+|value|) unless the path stalled (then numerical_failure).
    """
    elim = _eliminate_equalities(p)
    if elim is None:
        return SdpResult(status="infeasible", message="inconsistent equalities")
    cz, blocks, y0, null, const = elim

    z_start = None
    if p.slater is not None:
        z_cand = np.linalg.lstsq(null, np.asarray(p.slater, float) - y0, rcond=None)[0]
        if _interior(z_cand, blocks):
            z_start = z_cand
    if z_start is None and _interior(np.zeros(cz.size), blocks):
        z_start = np.zeros(cz.size)
    if z_start is None:
        z_start, verdict = _phase_one(cz, blocks)
        if z_start is None:
            return SdpResult(status=verdict, message="phase-1: " + verdict)

    status, z, duals, primal, gap, iters = _solve_lmi(cz, blocks, z_start, rel_gap)
    y = y0 + null @ z
    value = primal + const + p.obj_offset
    if status != "optimal":
        return SdpResult(
            status="numerical_failure",
            value=value,
            y=y,
            gap=gap,
            iterations=iters,
            message="barrier stalled",
        )
    ok = gap <= rel_gap * (1.0 + abs(primal)) * 10 + 1e-12
    return SdpResult(
        status="optimal" if ok else "numerical_failure",
        value=value,
        y=y,
        dual_blocks=duals,
        gap=gap,
        dual_value=primal - gap + const + p.obj_offset,
        iterations=iters,
        message="" if ok else f"gap {gap:.3e} above target",
    )
