"""Self-contained primal-dual SDP solver on sparse LMI data (HKM predictor–corrector).

Problems are stated in inequality (LMI) form over complex Hermitian blocks,
with real variables y:

    minimize    c·y
    subject to  S_b(y) = F0_b + Σ_i y_i Fi_b  ⪰ 0   for every block b,
                A y = b_eq                          (optional equalities)

Every Fi_b is held as the (constraint, row, col, value) triples of its
nonzeros, with complex values (`lmi_triples`); a dense (m, nb, nb) stack is
accepted and converted once.  Only the Hermitian part of each Fi_b counts.
There is one code path: a real symmetric Fi_b is the special case of zero
imaginary parts, and Hermitian data is never doubled through the real
embedding [[A, −B], [B, A]].  S(y) is assembled by scatter-add, and the Newton
matrix M_ij = Re tr(Fᵢ Z Fⱼ S⁻¹) is formed by a scatter, a complex GEMM and a
gather over the triples (Fujisawa–Kojima–Nakata, Math. Prog. 79, 1997), over
slabs of constraints i so that each (nb, nb, slab) array stays within a
fixed byte budget.  Every inner product ⟨S, Z⟩ is Re tr(S·Z).  Equalities
are eliminated on the triples by an affine reparameterization (one SVD).

The solve is the HKM primal–dual predictor–corrector (Helmberg–Rendl–
Vanderbei–Wolkowicz, SIAM J. Optim. 6, 1996) with Mehrotra's σ = (μₐ/μ)³
(SIAM J. Optim. 2, 1992).  y keeps S(y) ≻ 0, so c·y is always attained; the
dual iterate Z ≻ 0 may violate tr(Fᵢ·Z) = cᵢ.  Each iteration forms one
Newton system and factors it once for the predictor, the corrector and the
certificate.  Phase one (min t s.t. S(z) + t·I ⪰ 0) runs on the same
iteration.

An `optimal` result carries a dual certificate built from the iterate's own
Z: Z_c = Z + sym(Z·Lin(w)·S⁻¹) with M w = c − tr(F·Z), which meets
tr(Fᵢ·Z_c) = cᵢ exactly in exact arithmetic; the barrier-metric correction of
μS⁻¹ is the fallback.  Z_c is accepted when the equality residual is below
1e-9 (relative) and λ_min(Z_c) ≥ −1e-14·scale.  The duality gap is therefore
a two-sided bound up to those floating-point tolerances; they are not yet
charged against the bound.  `HermBasis` gives the index arrays of the real
parameterization of a Hermitian matrix, from which triples are built.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeMismatchError, SizeLimitError

# cap on the summed (complex) size of the LMI blocks
MAX_PSD_DIM = 256

# one nonzero Fᵢ[row, col] = val of an LMI block, i = con
LMI_TRIPLE = np.dtype([("con", np.int32), ("row", np.int32), ("col", np.int32), ("val", np.complex128)])

# complex entries of each (nb, nb, slab) array of the Newton formation (32 MiB)
_SLAB_ENTRIES = 1 << 21


def lmi_triples(con, row, col, val) -> np.ndarray:
    """Pack parallel index/value arrays as one block's LMI_TRIPLE array."""
    out = np.empty(np.size(val), dtype=LMI_TRIPLE)
    out["con"], out["row"], out["col"], out["val"] = con, row, col, val
    return out


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


def _csum(idx, w, size) -> np.ndarray:
    """Sums of the complex weights w per index (np.bincount takes real weights only)."""
    out = np.empty(size, dtype=np.complex128)
    out.real = np.bincount(idx, weights=w.real, minlength=size)
    out.imag = np.bincount(idx, weights=w.imag, minlength=size)
    return out


def _herm(x):
    """The Hermitian part (X + Xᴴ)/2; its mirror entries are bit-exact conjugates."""
    return (x + x.conj().T) * 0.5


def _re_tr(a, b) -> float:
    """Re tr(A·B) for Hermitian A, B, as Re Σ conj(Aᵢⱼ)·Bᵢⱼ."""
    return float(np.vdot(a, b).real)


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
    """One LMI block: size n, dense Hermitian F0, and F1..Fm as canonical triples.

    Only the Hermitian part of each Fᵢ enters S(y) ⪰ 0, so the triples are
    symmetrized by Hermitian mirror: (r, c, v) gets the partner (c, r, v̄), and
    mirror entries are bit-exact conjugates, hence S(y) is exactly Hermitian.
    Duplicates are summed, zeros dropped, and the rest sorted by
    (con, row, col), which makes every (con, row) run and every con run
    contiguous.  The Newton matrix is formed over `slabs` of constraints,
    each holding its (con, row) runs grouped by length.
    """

    def __init__(self, f0, m, con, row, col, val):
        f0 = np.asarray(f0, dtype=np.complex128)
        n = f0.shape[0]
        con, row, col = (np.asarray(a, dtype=np.intp).ravel() for a in (con, row, col))
        val = np.asarray(val, dtype=np.complex128).ravel()
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
        v = _csum(inv, np.concatenate([val, val.conj()]) * 0.5, keys.size)
        con, rc = np.divmod(keys, nn)
        row, col = np.divmod(rc, max(n, 1))
        v = (v + v[np.searchsorted(keys, con * nn + col * n + row)].conj()) * 0.5
        keep = v != 0
        self.n, self.m, self.f0 = n, m, _herm(f0)
        self.con, self.row, self.col, self.val = con[keep], row[keep], col[keep], v[keep]
        self.flat = self.row * n + self.col
        self.tflat = self.col * n + self.row
        # slabs [lo, hi) of constraints with their (con, row) runs grouped by
        # length (slab-local con), and con runs grouped by length: the Schur sums
        run = np.flatnonzero(np.diff(self.con * n + self.row, prepend=-1))
        run_con = self.con[run]
        chunk = max(1, _SLAB_ENTRIES // max(n * n, 1))
        self.slabs = []
        for lo in range(0, m, chunk):
            hi = min(m, lo + chunk)
            a, b = np.searchsorted(run_con, [lo, hi])
            end = run[b] if b < run.size else self.val.size
            starts = run[a:b]
            groups = [
                (self.con[starts[sel]] - lo, self.row[starts[sel]], self.val[idx], self.col[idx])
                for sel, idx in _by_length(starts, end)
            ]
            self.slabs.append((lo, hi, groups))
        cons = np.flatnonzero(np.diff(self.con, prepend=-1))
        self.con_groups = [
            (self.con[cons[sel]], self.val[idx], self.col[idx], self.row[idx])
            for sel, idx in _by_length(cons, self.val.size)
        ]

    def lin(self, w) -> np.ndarray:
        """Σᵢ wᵢ Fᵢ for real w."""
        n = self.n
        return _csum(self.flat, w[self.con] * self.val, n * n).reshape(n, n)

    def s(self, y) -> np.ndarray:
        """S(y) = F0 + Σᵢ yᵢ Fᵢ."""
        return self.f0 + self.lin(y)

    def traces(self, z) -> np.ndarray:
        """Re tr(Fᵢ Z) = Re Σ v·Z[c, r] over the triples (r, c, v) of each i; Z need not be Hermitian."""
        return np.bincount(self.con, weights=(self.val * z.ravel()[self.tflat]).real, minlength=self.m)

    def grad_hess(self, sinv, z):
        """Re tr(S⁻¹Fᵢ) and the Newton matrix Re tr(Fᵢ Z Fⱼ S⁻¹); Z = S⁻¹ gives the barrier Hessian.

        The columns i are formed slab by slab, so the (n, n, slab) scatter and
        product arrays hold at most _SLAB_ENTRIES complex entries each.
        """
        n, m = self.n, self.m
        h = np.zeros((m, m))
        for lo, hi, run_groups in self.slabs:
            # g[p, b, i] = (Fᵢ S⁻¹)[p, b]: one scatter of summed S⁻¹ rows per (i, p) run
            g = np.zeros((n, n, hi - lo), dtype=np.complex128)
            for cons, rows, val, col in run_groups:
                g[rows, :, cons] = np.einsum("rk,rkb->rb", val, sinv[col])
            w = (z @ g.reshape(n, n * (hi - lo))).reshape(n, n, hi - lo)  # w[a, b, i] = (Z FᵢS⁻¹)[a, b]
            # h[j, i] = Re tr(Fⱼ (Z FᵢS⁻¹)), gathered over the triples of each j
            for cons, val, col, row in self.con_groups:
                h[cons, lo:hi] = np.matmul(val[:, None, :], w[col, row])[:, 0].real
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
    nonzeros, real or complex; it is converted once, and `fs` keeps what the
    caller gave.  The summed block size is capped at MAX_PSD_DIM.
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
        f0s = [np.asarray(f0b, dtype=np.complex128) for f0b in self.f0]
        total = 0
        for b, f0b in enumerate(f0s):
            if f0b.ndim != 2 or f0b.shape[0] != f0b.shape[1]:
                raise ShapeMismatchError(f"F0 of block {b} is not square")
            total += f0b.shape[0]
        if total > MAX_PSD_DIM:
            raise SizeLimitError(f"total complex PSD dimension {total} exceeds {MAX_PSD_DIM}")
        self.blocks = []
        for b, (f0b, fsb) in enumerate(zip(f0s, self.fs)):
            fsb = np.asarray(fsb)
            if fsb.dtype == LMI_TRIPLE:
                t = fsb.ravel()
                con, row, col, val = t["con"], t["row"], t["col"], t["val"]
            else:
                fsb = np.asarray(fsb, dtype=np.complex128)
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
    iterations: int = 0  # Newton systems formed, phase one included
    message: str = ""


def _chol_or_none(s):
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None


def _interior(y, blocks) -> bool:
    return all(_chol_or_none(blk.s(y)) is not None for blk in blocks)


def _inv_factor(x):
    """L⁻¹ for the Cholesky factor L of x, or None when x is not positive definite."""
    l = _chol_or_none(x)
    return None if l is None else np.linalg.inv(l)


def _step(lis, dxs) -> float:
    """0.95 of the step to the boundary of every X + α·dX ⪰ 0, capped at 1; lis are L⁻¹ of each X."""
    lam = min(float(np.linalg.eigvalsh(li @ dx @ li.conj().T).min(initial=0.0)) for li, dx in zip(lis, dxs))
    return 1.0 if lam >= -0.95 else -0.95 / lam


def _newton_solver(mat):
    """A solver from one Cholesky factorization of the diagonally scaled,
    1e-13-regularized Newton matrix, or None.

    Each solve is a block substitution through L and Lᵀ with the inverted
    diagonal blocks of L, so a second right-hand side costs no factorization.
    """
    dg = np.sqrt(np.clip(np.diagonal(mat), 1e-300, None))[:, None]
    l = _chol_or_none(mat / (dg * dg.T) + 1e-13 * np.eye(dg.size))
    if l is None:
        return None
    cuts = [(k, k + 64, np.linalg.inv(l[k : k + 64, k : k + 64])) for k in range(0, dg.size, 64)]

    def solve(rhs):
        x = rhs.reshape(dg.size, -1) / dg
        for a, b, di in cuts:
            x[a:b] = di @ (x[a:b] - l[a:b, :a] @ x[:a])
        for a, b, di in reversed(cuts):
            x[a:b] = di.T @ (x[a:b] - l[b:, a:b].T @ x[b:])
        return (x / dg).reshape(rhs.shape)

    return solve


def _certificate(cvec, blocks, sinvs, lefts, w, floor):
    """(Z_c, −Σ Re tr(F0·Z_c)) for Z_c = X + herm(X·Lin(w)·S⁻¹) per block, or None.

    When M w = c − tr(F·X) with M_ij = Re tr(Fᵢ X Fⱼ S⁻¹), tr(Fᵢ·Z_c) = cᵢ holds
    exactly; Z_c is accepted when the residual is below 1e-9 (relative) and
    λ_min(Z_c) ≥ −1e-14·scale.  A dual value ≤ `floor` is of no use and skips
    the eigenvalue test.
    """
    zcs = [_herm(x + x @ blk.lin(w) @ sinv) for blk, sinv, x in zip(blocks, sinvs, lefts)]
    left = sum(blk.traces(zc) for blk, zc in zip(blocks, zcs))
    if np.max(np.abs(left - cvec), initial=0.0) > 1e-9 * (1.0 + np.max(np.abs(cvec), initial=0.0)):
        return None
    dual = -sum(_re_tr(blk.f0, zc) for blk, zc in zip(blocks, zcs))
    if dual <= floor:
        return None
    for zc in zcs:
        if np.linalg.eigvalsh(zc).min(initial=0.0) < -1e-14 * max(1.0, np.abs(zc).max(initial=0.0)):
            return None
    return zcs, dual


def _newton_system(y, zs, blocks):
    """At (y, Z): S, L⁻¹ and S⁻¹ per block, Σ tr(FᵢS⁻¹), Σ Re tr(Fᵢ Z Fⱼ S⁻¹) and Σ tr(Fᵢ Z).

    zs None means Z = S⁻¹, which makes the matrix the barrier Hessian.  None
    when some S is not positive definite.
    """
    m = y.size
    ss = [blk.s(y) for blk in blocks]
    lis = [_inv_factor(s) for s in ss]
    if any(li is None for li in lis):
        return None
    sinvs = [_herm(li.conj().T @ li) for li in lis]
    grad, mat, tz = np.zeros(m), np.zeros((m, m)), np.zeros(m)
    for blk, sinv, z in zip(blocks, sinvs, sinvs if zs is None else zs):
        g, h = blk.grad_hess(sinv, z)
        grad += g
        mat += h
        tz += blk.traces(z)
    return ss, lis, sinvs, grad, mat, tz


def _pd_solve(cvec, blocks, y, rel_gap, stop=None):
    """HKM primal–dual predictor–corrector from strictly feasible y.

    y keeps S(y) ≻ 0, so c·y is an upper end; Z ≻ 0 starts at S(y)⁻¹ and may
    be dual-infeasible.  After each Newton system the iterate's certificate
    is tried, and `stop(y, dual)` (the best certified dual value, or None) may
    end the solve with its own verdict.  Returns (status, y, Z_c, primal,
    gap, newton_systems).
    """
    nu = sum(blk.n for blk in blocks)
    if nu == 0 or cvec.size == 0:
        value = float(cvec @ y) if cvec.size else 0.0
        return ("optimal", y, [np.zeros((blk.n, blk.n), dtype=np.complex128) for blk in blocks], value, 0.0, 0)
    best_y, primal, best_z, dual, zs, last, it = y, float(cvec @ y), None, -np.inf, None, None, 0

    def certify(sinvs, lefts, w) -> bool:
        """Keep the certificate if it is better; False when it crosses the primal value.

        A dual value above an attained primal value breaks weak duality: the
        certificate's rounding exceeds its tolerances, so the iterate is at
        the limit of working precision and the previous certificate stays.
        """
        nonlocal best_z, dual
        floor = max(dual, primal - 10 * rel_gap * (1.0 + abs(primal)) - 1e-12)
        cert = _certificate(cvec, blocks, sinvs, lefts, w, floor)
        if cert is not None and cert[1] > primal + 1e-12 * (1.0 + abs(primal)):
            return False
        if cert is not None:
            best_z, dual = cert
        return True

    while it < 50 and np.max(np.abs(y)) <= 1e12:
        at = _newton_system(y, zs, blocks)
        if at is None:
            break
        it += 1
        ss, lis, sinvs, grad, mat, tz = at
        zs = [s.copy() for s in sinvs] if zs is None else zs
        mu = sum(_re_tr(s, z) for s, z in zip(ss, zs)) / nu
        last = (y, mu)
        solve = _newton_solver(mat)
        lzs = [_inv_factor(z) for z in zs]
        if solve is None or any(lz is None for lz in lzs):
            break
        if float(cvec @ y) < primal:
            best_y, primal = y, float(cvec @ y)
        w, dya = solve(np.column_stack([cvec - tz, -cvec])).T
        crossed = not certify(sinvs, zs, w)
        if stop is not None and (verdict := stop(y, None if best_z is None else dual)):
            return (verdict, y, best_z, primal, primal - dual, it)
        if crossed or primal - dual <= rel_gap * (1.0 + abs(primal)):
            break
        # predictor (σ = 0), then Mehrotra's σ = (μₐ/μ)³ and the second-order corrector
        dsa = [blk.lin(dya) for blk in blocks]
        dza = [-z - _herm(z @ ds @ sinv) for z, ds, sinv in zip(zs, dsa, sinvs)]
        ap, ad = _step(lis, dsa), _step(lzs, dza)
        mu_a = sum(_re_tr(s + ap * ds, z + ad * dz) for s, ds, z, dz in zip(ss, dsa, zs, dza))
        sm = min(1.0, mu_a / (nu * mu)) ** 3 * mu  # σμ
        corr = [dz @ ds @ sinv for dz, ds, sinv in zip(dza, dsa, sinvs)]
        rhs = sm * grad - cvec - sum(blk.traces(c) for blk, c in zip(blocks, corr))
        dy = solve(rhs)
        dss = [blk.lin(dy) for blk in blocks]
        dzs = [sm * sinv - z - _herm(z @ ds @ sinv + c) for z, ds, sinv, c in zip(zs, dss, sinvs, corr)]
        ap, ad = _step(lis, dss), _step(lzs, dzs)
        y = y + ap * dy
        zs = [z + ad * dz for z, dz in zip(zs, dzs)]
    if primal - dual > rel_gap * (1.0 + abs(primal)) and last is not None:
        # fallback: the barrier-metric correction of μS⁻¹ (τ = 1/μ) at the last iterate
        y, mu = last
        at = _newton_system(y, None, blocks)
        if at is not None:
            it += 1
            _, _, sinvs, grad, mat, _ = at
            solve = _newton_solver(mu * mat)
            if solve is not None:
                certify(sinvs, [mu * s for s in sinvs], solve(cvec - mu * grad))
    if best_z is None:
        return ("numerical_failure", y, [], float(cvec @ y), np.inf, it)
    return ("optimal", best_y, best_z, primal, primal - dual, it)


def _eliminate_equalities(p: SdpProblem):
    """y = y0 + N z; returns (cz, blocks', y0, N, const) or None if infeasible.

    One SVD of A gives both y0 = A⁺b and the orthonormal null basis N.
    """
    m = p.c.size
    if p.eq_a is None:
        return p.c, p.blocks, np.zeros(m), np.eye(m), 0.0
    a = np.asarray(p.eq_a, dtype=np.float64).reshape(-1, m)
    b = np.asarray(p.eq_b, dtype=np.float64).ravel()
    u, sv, vt = np.linalg.svd(a)
    rank = int(np.sum(sv > max(a.shape) * (sv[0] if sv.size else 0.0) * np.finfo(float).eps))
    y0 = vt[:rank].T @ ((u[:, :rank].T @ b) / sv[:rank])
    if np.linalg.norm(a @ y0 - b) > 1e-10 * (1.0 + np.linalg.norm(b)):
        return None
    null = vt[rank:].T  # (m, m - rank)
    blocks = [blk.substitute(y0, null) for blk in p.blocks]
    return null.T @ p.c, blocks, y0, null, float(p.c @ y0)


def _phase_one(cz, blocks):
    """Find strictly feasible z via  min t  s.t.  S(z) + t·I ⪰ 0, t ≥ -1.

    The t ≥ -1 cap keeps the objective bounded.  The solve stops as soon as
    t < 0 or S(z) ≻ 0 (feasible) or a certified dual value exceeds 1e-9
    (infeasible); an optimum pinched at t ≈ 0 means no strict interior.
    Returns (z or None, verdict, newton_systems).
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
    z[m] = max([1.0] + [1.0 - 1.5 * np.linalg.eigvalsh(blk.f0)[0] for blk in blocks if blk.n])

    def strictly_feasible(zv):
        for blk in blocks:
            s = blk.s(zv)
            try:
                w0 = np.linalg.eigvalsh(s).min(initial=np.inf)
            except np.linalg.LinAlgError:
                return False
            if w0 < 1e-10 * max(1.0, np.abs(s).max(initial=0.0)):
                return False
        return True

    def stop(zv, dual):
        if zv[m] < -1e-9 or strictly_feasible(zv[:m]):
            return "feasible"
        if dual is not None and dual > 1e-9:
            return "infeasible"
        return None

    status, zv, _, _, _, iters = _pd_solve(c_aug, aug, z, 1e-11, stop)
    if status == "feasible":
        return zv[:m].copy(), status, iters
    # an optimum within 1e-11 of a dual value ≤ 1e-9 is pinched at 0: no strict interior
    return None, "infeasible" if status in ("infeasible", "optimal") else "numerical_failure", iters


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

    z_start, iters = None, 0
    if p.slater is not None:
        z_cand = null.T @ (np.asarray(p.slater, float) - y0)
        if _interior(z_cand, blocks):
            z_start = z_cand
    if z_start is None and _interior(np.zeros(cz.size), blocks):
        z_start = np.zeros(cz.size)
    if z_start is None:
        z_start, verdict, iters = _phase_one(cz, blocks)
        if z_start is None:
            return SdpResult(status=verdict, iterations=iters, message="phase-1: " + verdict)

    status, z, duals, primal, gap, n_sys = _pd_solve(cz, blocks, z_start, rel_gap)
    iters += n_sys
    y = y0 + null @ z
    value = primal + const + p.obj_offset
    if status != "optimal":
        return SdpResult(
            status="numerical_failure",
            value=value,
            y=y,
            gap=gap,
            iterations=iters,
            message="path stalled",
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
