"""Self-contained primal-dual SDP solver on sparse LMI data (HKM predictor–corrector).

Problems are stated in inequality (LMI) form over complex Hermitian blocks,
with real variables y:

    minimize    c·y
    subject to  S_b(y) = F0_b + Σ_i y_i Fi_b  ⪰ 0   for every block b.

The one entry contract is that y = 0 is strictly feasible: every F0_b is
positive definite, which `sdp_solve` checks with one Cholesky per block.  A
problem with affine constraints states them in its coordinates, as the
diamond-norm LMI writes each density matrix as I/K plus a traceless part.

Every Fi_b is held as the (constraint, row, col, value) triples of its
nonzeros, with complex values (`lmi_triples`); a dense (m, nb, nb) stack is
accepted and converted once.  Only the Hermitian part of each Fi_b counts.
There is one code path: a real symmetric Fi_b is the special case of zero
imaginary parts, and Hermitian data is never doubled through the real
embedding [[A, −B], [B, A]].  S(y) is assembled by scatter-add, and the Newton
matrix M_ij = Re tr(Fᵢ Z Fⱼ S⁻¹) is formed by a scatter, a complex GEMM and a
gather over the triples (Fujisawa–Kojima–Nakata, Math. Prog. 79, 1997), over
slabs of constraints i so that each (nb, nb, slab) array stays within a
fixed byte budget.  Every inner product ⟨S, Z⟩ is Re tr(S·Z).

The structure of a problem (F0, the canonical triples and their slabs) does
not depend on c, and neither does the first Newton system: y = 0 with
Z = S(0)⁻¹.  `SdpProblem.with_objective` gives a problem with another c over
the same structure, and the start (S(0), its L⁻¹ and S⁻¹, the barrier Hessian
and its factorization, and L⁻¹ of Z) is computed at the first solve over a
structure and reused by every later one, while its m×m factor fits the slab
byte budget.  The arithmetic is the same either way, so a reused start gives
bit-identical results.

The solve is the HKM primal–dual predictor–corrector (Helmberg–Rendl–
Vanderbei–Wolkowicz, SIAM J. Optim. 6, 1996) with Mehrotra's σ = (μₐ/μ)³
(SIAM J. Optim. 2, 1992).  y keeps S(y) ≻ 0, so c·y is always attained; the
dual iterate Z ≻ 0 may violate tr(Fᵢ·Z) = cᵢ.  Each iteration uses one
Newton system, factored once for the predictor, the corrector and the
certificate, and takes both steps to the boundary of each block from one
stacked eigenvalue call.

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

import copy
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidInputError, ShapeMismatchError, SizeLimitError

__all__ = ["MAX_PSD_DIM", "LMI_TRIPLE", "lmi_triples", "HermBasis", "SdpProblem", "SdpResult", "sdp_solve"]

# cap on the summed (complex) size of the LMI blocks
MAX_PSD_DIM = 256

# one nonzero Fᵢ[row, col] = val of an LMI block, i = con
LMI_TRIPLE = np.dtype([("con", np.int32), ("row", np.int32), ("col", np.int32), ("val", np.complex128)])

# complex entries of each (nb, nb, slab) array of the Newton formation (32 MiB);
# a held start factorization keeps to the same budget (m·m float64 entries)
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
    of its nonzero entries: basis matrix param[l] has val[l] at (row[l], col[l]).
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

    def __len__(self) -> int:
        return self.n * self.n


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


def _freeze(x):
    """Make every array in x, through nested lists and tuples, read-only; returns x."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, (list, tuple)):
        for v in x:
            _freeze(v)
    return x


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
    each holding its (con, row) runs grouped by length.  Every array is
    read-only, so blocks can be shared between problems.
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
        _freeze(list(vars(self).values()))

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


def _check_size(total: int):
    if total > MAX_PSD_DIM:
        raise SizeLimitError(f"total complex PSD dimension {total} exceeds {MAX_PSD_DIM}")


class _Lmi:
    """The blocks of one LMI over m variables and its y = 0 start, shared by every objective."""

    def __init__(self, blocks, m):
        self.blocks, self.m = blocks, m
        self.nu = sum(blk.n for blk in blocks)
        self._start = None

    def start(self):
        """The Newton data at y = 0 with Z = S(0)⁻¹ (`_state`); none of it depends on c.

        Computed at the first solve and held, read-only, while the m×m Newton
        factor fits the slab byte budget (m·m ≤ 2·_SLAB_ENTRIES, m ≤ 2048);
        a larger structure recomputes it in every solve.
        """
        if self._start is not None:
            return self._start
        st = _state(np.zeros(self.m), None, self.blocks, self.nu)
        if st is not None and self.m * self.m <= 2 * _SLAB_ENTRIES:
            self._start = _freeze(st)
        return st


@dataclass
class SdpProblem:
    """LMI-form SDP; `f0[b]` has shape (nb, nb) and `fs[b]` holds F1..Fm of block b.

    `fs[b]` is either a dense (m, nb, nb) array or an LMI_TRIPLE array of the
    nonzeros, real or complex; it is converted once, and `fs` keeps what the
    caller gave.  The summed block size is capped at MAX_PSD_DIM.  The
    converted blocks and the y = 0 start form the structure, which does not
    depend on c: `with_objective` shares it, so the start is computed once per
    structure, not once per solve.
    """

    c: np.ndarray
    f0: list
    fs: list
    lmi: _Lmi = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        m = self.c.size
        if len(self.f0) != len(self.fs):
            raise ShapeMismatchError(f"{len(self.f0)} F0 blocks but {len(self.fs)} Fi blocks")
        f0s = [np.asarray(f0b, dtype=np.complex128) for f0b in self.f0]
        for b, f0b in enumerate(f0s):
            if f0b.ndim != 2 or f0b.shape[0] != f0b.shape[1]:
                raise ShapeMismatchError(f"F0 of block {b} is not square")
        _check_size(sum(f0b.shape[0] for f0b in f0s))
        blocks = []
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
            blocks.append(_Block(f0b, m, con, row, col, val))
        self.lmi = _Lmi(blocks, m)

    @property
    def blocks(self) -> list:
        return self.lmi.blocks

    def with_objective(self, c) -> "SdpProblem":
        """The problem with objective c over this structure (f0, fs, blocks and start are shared).

        The length of c and MAX_PSD_DIM are checked on every call.
        """
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (self.lmi.m,):
            raise ShapeMismatchError(f"objective of shape {c.shape} for {self.lmi.m} variables")
        _check_size(self.lmi.nu)
        out = copy.copy(self)
        out.c = c
        return out


@dataclass
class SdpResult:
    status: str  # optimal | numerical_failure
    value: float = np.nan
    y: np.ndarray | None = None
    dual_blocks: list = field(default_factory=list)
    gap: float = np.nan
    dual_value: float = np.nan
    iterations: int = 0  # Newton systems used, a reused y = 0 start included
    message: str = ""


def _chol_or_none(s):
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None


def _inv_factor(x):
    """L⁻¹ for the Cholesky factor L of x, or None when x is not positive definite."""
    l = _chol_or_none(x)
    return None if l is None else np.linalg.inv(l)


def _steps(lss, lzs, dss, dzs) -> tuple[float, float]:
    """0.95 of the steps to the boundaries of every S + α·dS ⪰ 0 and Z + α·dZ ⪰ 0, each capped at 1.

    lss and lzs are L⁻¹ of each S and Z; both eigenvalue problems of a block
    are one stacked `eigvalsh`.
    """
    lam = np.zeros(2)
    for ls, lz, ds, dz in zip(lss, lzs, dss, dzs):
        pair = np.stack([ls @ ds @ ls.conj().T, lz @ dz @ lz.conj().T])
        lam = np.minimum(lam, np.linalg.eigvalsh(pair).min(axis=1, initial=0.0))
    return tuple(1.0 if x >= -0.95 else -0.95 / float(x) for x in lam)


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


def _state(y, zs, blocks, nu):
    """The iterate's Newton data, or None when some S(y) is not positive definite.

    (S, L⁻¹ of S, S⁻¹, Σ tr(FᵢS⁻¹), Σ tr(Fᵢ Z), Z, μ = ⟨S, Z⟩/ν, the Newton
    solver or None, L⁻¹ of each Z or None); zs None means Z = S⁻¹.
    """
    at = _newton_system(y, zs, blocks)
    if at is None:
        return None
    ss, lis, sinvs, grad, mat, tz = at
    zs = sinvs if zs is None else zs
    mu = sum(_re_tr(s, z) for s, z in zip(ss, zs)) / nu
    return ss, lis, sinvs, grad, tz, zs, mu, _newton_solver(mat), [_inv_factor(z) for z in zs]


def _pd_solve(cvec, lmi, rel_gap):
    """HKM primal–dual predictor–corrector from the strictly feasible y = 0.

    y keeps S(y) ≻ 0, so c·y is an upper end; Z ≻ 0 starts at S(0)⁻¹ and may
    be dual-infeasible.  The first Newton system is the structure's start
    (`_Lmi.start`).  After each Newton system the iterate's certificate is
    tried.  Returns (status, y, Z_c, primal, gap, newton_systems).
    """
    blocks, nu, y = lmi.blocks, lmi.nu, np.zeros(cvec.size)
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
        at = lmi.start() if it == 0 else _state(y, zs, blocks, nu)
        if at is None:
            break
        it += 1
        ss, lis, sinvs, grad, tz, zs, mu, solve, lzs = at
        last = (y, mu)
        if solve is None or any(lz is None for lz in lzs):
            break
        if float(cvec @ y) < primal:
            best_y, primal = y, float(cvec @ y)
        w, dya = solve(np.column_stack([cvec - tz, -cvec])).T
        if not certify(sinvs, zs, w) or primal - dual <= rel_gap * (1.0 + abs(primal)):
            break
        # predictor (σ = 0), then Mehrotra's σ = (μₐ/μ)³ and the second-order corrector
        dsa = [blk.lin(dya) for blk in blocks]
        dza = [-z - _herm(z @ ds @ sinv) for z, ds, sinv in zip(zs, dsa, sinvs)]
        ap, ad = _steps(lis, lzs, dsa, dza)
        mu_a = sum(_re_tr(s + ap * ds, z + ad * dz) for s, ds, z, dz in zip(ss, dsa, zs, dza))
        sm = min(1.0, mu_a / (nu * mu)) ** 3 * mu  # σμ
        corr = [dz @ ds @ sinv for dz, ds, sinv in zip(dza, dsa, sinvs)]
        rhs = sm * grad - cvec - sum(blk.traces(c) for blk, c in zip(blocks, corr))
        dy = solve(rhs)
        dss = [blk.lin(dy) for blk in blocks]
        dzs = [sm * sinv - z - _herm(z @ ds @ sinv + c) for z, ds, sinv, c in zip(zs, dss, sinvs, corr)]
        ap, ad = _steps(lis, lzs, dss, dzs)
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


def sdp_solve(p: SdpProblem, rel_gap: float = 1e-8) -> SdpResult:
    """Solve the LMI-form SDP from y = 0 with a certified duality gap.

    Every F0 block must be positive definite, so that y = 0 is strictly
    feasible; otherwise InvalidInputError.  status 'optimal' guarantees
    S(y) ⪰ 0 (strictly, up to 1e-12) and value within `gap` of the true
    optimum with gap ≤ 10·rel_gap·(1+|value|) + 1e-12; a stalled path or a
    wider gap gives numerical_failure.
    """
    for b, blk in enumerate(p.blocks):
        if _chol_or_none(blk.f0) is None:
            raise InvalidInputError(f"F0 of block {b} is not positive definite (y = 0 must be strictly feasible)")
    status, y, duals, primal, gap, iters = _pd_solve(p.c, p.lmi, rel_gap)
    if status != "optimal":
        return SdpResult(
            status="numerical_failure",
            value=primal,
            y=y,
            gap=gap,
            iterations=iters,
            message="path stalled",
        )
    ok = gap <= rel_gap * (1.0 + abs(primal)) * 10 + 1e-12
    return SdpResult(
        status="optimal" if ok else "numerical_failure",
        value=primal,
        y=y,
        dual_blocks=duals,
        gap=gap,
        dual_value=primal - gap,
        iterations=iters,
        message="" if ok else f"gap {gap:.3e} above target",
    )
