"""Self-contained primal-dual SDP solver on one sparse LMI block (HKM predictor–corrector).

Problems are stated in inequality (LMI) form over one complex Hermitian
block, with real variables y:

    minimize    c·y
    subject to  S(y) = F0 + Σ_i y_i Fi  ⪰ 0.

The one entry contract is that y = 0 is strictly feasible: F0 is positive
definite, which `sdp_solve` checks with one Cholesky.  A problem with affine
constraints states them in its coordinates, as the diamond-norm LMI writes
each density matrix as I/K plus a traceless part, and a problem with several
blocks states them as one block-diagonal block.

F1..Fm are given as one LMI_TRIPLE array of (constraint, row, col, value)
triples of their nonzeros, with complex values (`lmi_triples`); there is no
dense input.  Only the Hermitian part of each Fi counts.  There is one code
path: a real symmetric Fi is the special case of zero imaginary parts, and
Hermitian data is never doubled through the real embedding [[A, −B], [B, A]].
S(y) is assembled by scatter-add, and the Newton matrix
M_ij = Re tr(Fᵢ Z Fⱼ S⁻¹) is formed by a scatter, a complex GEMM and a
gather over the triples (Fujisawa–Kojima–Nakata, Math. Prog. 79, 1997), over
slabs of constraints i so that each (n, n, slab) array stays within a fixed
byte budget.  Every inner product ⟨S, Z⟩ is Re tr(S·Z).

The structure of a problem (F0, the canonical triples and their slabs) does
not depend on c, and neither does the first Newton system: y = 0 with
Z = S(0)⁻¹.  `SdpProblem.with_objective` gives a problem with another c over
the same structure, and the start (S(0), its L⁻¹ and S⁻¹, the barrier Hessian
and its factorization, and L⁻¹ of Z) is computed at the first solve over a
structure and held by its block, while its m×m factor fits the slab byte
budget.  The arithmetic is the same either way, so a reused start gives
bit-identical results.

The solve is the HKM primal–dual predictor–corrector (Helmberg–Rendl–
Vanderbei–Wolkowicz, SIAM J. Optim. 6, 1996) with Mehrotra's σ = (μₐ/μ)³
(SIAM J. Optim. 2, 1992).  y keeps S(y) ≻ 0, so c·y is always attained; the
dual iterate Z ≻ 0 may violate tr(Fᵢ·Z) = cᵢ.  Each iteration uses one
Newton system, factored once for the predictor, the corrector and the
certificate, and takes both steps to the boundary from one stacked
eigenvalue call.

An `optimal` result carries a dual certificate built from the iterate's own
Z: Z_c = Z + sym(Z·Lin(w)·S⁻¹) with M w = c − tr(F·Z), which meets
tr(Fᵢ·Z_c) = cᵢ exactly in exact arithmetic; the barrier-metric correction of
μS⁻¹ is the fallback, for the solve whose path ends before an iterate's own
certificate closes the gap.  Z_c is accepted when the equality residual is
below 1e-9 (relative) and λ_min(Z_c) ≥ −1e-14·scale.  The duality gap is
therefore a two-sided bound up to those floating-point tolerances; they are
not yet charged against the bound.  A LAPACK failure inside the solve gives
`numerical_failure` with the error in the message.  `HermBasis` gives the
index arrays of the real parameterization of a Hermitian matrix, from which
triples are built.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidInputError, ShapeMismatchError, SizeLimitError

__all__ = ["MAX_PSD_DIM", "REL_GAP", "LMI_TRIPLE", "lmi_triples", "HermBasis", "SdpProblem", "SdpResult",
           "sdp_solve"]

# cap on the (complex) size of the LMI block
MAX_PSD_DIM = 256

# relative duality gap every solve runs to: gap ≤ REL_GAP·(1 + |primal|) ends the path
REL_GAP = 1e-8

# one nonzero Fᵢ[row, col] = val of the LMI, i = con
LMI_TRIPLE = np.dtype([("con", np.int32), ("row", np.int32), ("col", np.int32), ("val", np.complex128)])

# complex entries of each (n, n, slab) array of the Newton formation (32 MiB);
# a held start factorization keeps to the same budget (m·m float64 entries)
_SLAB_ENTRIES = 1 << 21


def lmi_triples(con, row, col, val) -> np.ndarray:
    """Pack parallel index/value arrays as an LMI_TRIPLE array."""
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
    # sorted distinct lengths without np.unique, which imports numpy.ma on first use
    for k in sorted(set(lens.tolist())):
        sel = np.flatnonzero(lens == k)
        groups.append((sel, starts[sel][:, None] + np.arange(k)))
    return groups


class _Block:
    """The LMI block: size n, dense Hermitian F0, F1..Fm as canonical triples, and the y = 0 start.

    Only the Hermitian part of each Fᵢ enters S(y) ⪰ 0, so the triples are
    symmetrized by Hermitian mirror: (r, c, v) gets the partner (c, r, v̄), and
    mirror entries are bit-exact conjugates, hence S(y) is exactly Hermitian.
    Duplicates are summed, zeros dropped, and the rest sorted by
    (con, row, col), which makes every (con, row) run and every con run
    contiguous.  The Newton matrix is formed over `slabs` of constraints,
    each holding its (con, row) runs grouped by length.  Every array is
    read-only, so a block is shared by every objective over it.
    """

    def __init__(self, f0, m, trips):
        n = f0.shape[0]
        con, row, col = (trips[k].astype(np.intp) for k in ("con", "row", "col"))
        val = trips["val"]
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
        self._start = None
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

    def start(self):
        """The Newton data at y = 0 with Z = S(0)⁻¹ (`_state`); none of it depends on c.

        Computed at the first solve and held, read-only, while the m×m Newton
        factor fits the slab byte budget (m·m ≤ 2·_SLAB_ENTRIES, m ≤ 2048);
        a larger structure recomputes it in every solve.
        """
        if self._start is not None:
            return self._start
        st = _state(np.zeros(self.m), None, self)
        if st is not None and self.m * self.m <= 2 * _SLAB_ENTRIES:
            self._start = _freeze(st)
        return st


def _check_size(n: int):
    if n > MAX_PSD_DIM:
        raise SizeLimitError(f"complex PSD dimension {n} exceeds {MAX_PSD_DIM}")


@dataclass
class SdpProblem:
    """LMI-form SDP over one block: `f0` is (n, n) and `fs` is the LMI_TRIPLE array of F1..Fm.

    The triples may be real or complex, in any order and with duplicates;
    they are converted once, and `fs` keeps what the caller gave.  n is
    capped at MAX_PSD_DIM.  The converted block and its y = 0 start form the
    structure, which does not depend on c: `with_objective` shares it, so the
    start is computed once per structure, not once per solve.
    """

    c: np.ndarray
    f0: np.ndarray
    fs: np.ndarray
    block: _Block = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        f0 = np.asarray(self.f0, dtype=np.complex128)
        if f0.ndim != 2 or f0.shape[0] != f0.shape[1]:
            raise ShapeMismatchError(f"F0 of shape {f0.shape} is not square")
        if not (isinstance(self.fs, np.ndarray) and self.fs.dtype == LMI_TRIPLE and self.fs.ndim == 1):
            raise ShapeMismatchError("Fi must be one LMI_TRIPLE array (see lmi_triples)")
        _check_size(f0.shape[0])
        self.block = _Block(f0, self.c.size, self.fs)

    def with_objective(self, c) -> "SdpProblem":
        """The problem with objective c over this structure (f0, fs, block and start are shared).

        The length of c and MAX_PSD_DIM are checked on every call.
        """
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (self.block.m,):
            raise ShapeMismatchError(f"objective of shape {c.shape} for {self.block.m} variables")
        _check_size(self.block.n)
        out = copy.copy(self)
        out.c = c
        return out


@dataclass
class SdpResult:
    status: str  # optimal | numerical_failure
    value: float = np.nan
    y: np.ndarray | None = None
    dual_z: np.ndarray | None = None
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


def _steps(ls, lz, ds, dz) -> tuple[float, float]:
    """0.95 of the steps to the boundaries of S + α·dS ⪰ 0 and Z + α·dZ ⪰ 0, each capped at 1.

    ls and lz are L⁻¹ of S and Z; both eigenvalue problems are one stacked
    `eigvalsh`.
    """
    pair = np.stack([ls @ ds @ ls.conj().T, lz @ dz @ lz.conj().T])
    lam = np.linalg.eigvalsh(pair).min(axis=1, initial=0.0)
    return tuple(1.0 if x >= -0.95 else -0.95 / float(x) for x in lam)


def _newton_solver(mat):
    """A solver from one Cholesky factorization of the diagonally scaled,
    1e-13-regularized Newton matrix, or None.

    Each solve is a block substitution through L and Lᵀ with the inverted
    diagonal blocks of L, so a second right-hand side costs no factorization.
    mat is scaled and regularized in place, so no m×m copy of it is made;
    every caller passes a fresh array that it does not keep.
    """
    dg = np.sqrt(np.clip(np.diagonal(mat), 1e-300, None))[:, None]
    np.divide(mat, dg * dg.T, out=mat)
    mat[np.diag_indices_from(mat)] += 1e-13
    l = _chol_or_none(mat)
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


def _certificate(cvec, blk, sinv, x, w, floor):
    """(Z_c, −Re tr(F0·Z_c)) for Z_c = X + herm(X·Lin(w)·S⁻¹), or None.

    When M w = c − tr(F·X) with M_ij = Re tr(Fᵢ X Fⱼ S⁻¹), tr(Fᵢ·Z_c) = cᵢ holds
    exactly; Z_c is accepted when the residual is below 1e-9 (relative) and
    λ_min(Z_c) ≥ −1e-14·scale.  A dual value ≤ `floor` is of no use and skips
    the eigenvalue test.
    """
    zc = _herm(x + x @ blk.lin(w) @ sinv)
    if np.max(np.abs(blk.traces(zc) - cvec), initial=0.0) > 1e-9 * (1.0 + np.max(np.abs(cvec), initial=0.0)):
        return None
    dual = -_re_tr(blk.f0, zc)
    if dual <= floor:
        return None
    if np.linalg.eigvalsh(zc).min(initial=0.0) < -1e-14 * max(1.0, np.abs(zc).max(initial=0.0)):
        return None
    return zc, dual


def _newton_system(y, z, blk):
    """At (y, Z): S, L⁻¹ and S⁻¹, tr(FᵢS⁻¹), Re tr(Fᵢ Z Fⱼ S⁻¹) and tr(Fᵢ Z).

    z None means Z = S⁻¹, which makes the matrix the barrier Hessian.  None
    when S is not positive definite.
    """
    s = blk.s(y)
    li = _inv_factor(s)
    if li is None:
        return None
    sinv = _herm(li.conj().T @ li)
    z = sinv if z is None else z
    grad, mat = blk.grad_hess(sinv, z)
    return s, li, sinv, grad, mat, blk.traces(z)


def _state(y, z, blk):
    """The iterate's Newton data, or None when S(y) is not positive definite.

    (S, L⁻¹ of S, S⁻¹, tr(FᵢS⁻¹), tr(Fᵢ Z), Z, μ = ⟨S, Z⟩/n, the Newton
    solver or None, L⁻¹ of Z or None); z None means Z = S⁻¹.
    """
    at = _newton_system(y, z, blk)
    if at is None:
        return None
    s, li, sinv, grad, mat, tz = at
    z = sinv if z is None else z
    mu = _re_tr(s, z) / blk.n
    return s, li, sinv, grad, tz, z, mu, _newton_solver(mat), _inv_factor(z)


def _pd_solve(cvec, blk):
    """HKM primal–dual predictor–corrector from the strictly feasible y = 0.

    y keeps S(y) ≻ 0, so c·y is an upper end; Z ≻ 0 starts at S(0)⁻¹ and may
    be dual-infeasible.  The first Newton system is the structure's start
    (`_Block.start`).  After each Newton system the iterate's certificate is
    tried.  Returns (status, y, Z_c, primal, gap, newton_systems).
    """
    n, y = blk.n, np.zeros(cvec.size)
    if n == 0 or cvec.size == 0:
        # no LMI constrains y: min c·y is 0 for c = 0 and unbounded below otherwise
        if np.any(cvec):
            return ("unbounded", y, None, -np.inf, np.inf, 0)
        return ("optimal", y, np.zeros((n, n), dtype=np.complex128), 0.0, 0.0, 0)
    best_y, primal, best_z, dual, z, last, it = y, float(cvec @ y), None, -np.inf, None, None, 0

    def certify(sinv, left, w) -> bool:
        """Keep the certificate if it is better; False when it crosses the primal value.

        A dual value above an attained primal value breaks weak duality: the
        certificate's rounding exceeds its tolerances, so the iterate is at
        the limit of working precision and the previous certificate stays.
        """
        nonlocal best_z, dual
        floor = max(dual, primal - 10 * REL_GAP * (1.0 + abs(primal)) - 1e-12)
        cert = _certificate(cvec, blk, sinv, left, w, floor)
        if cert is not None and cert[1] > primal + 1e-12 * (1.0 + abs(primal)):
            return False
        if cert is not None:
            best_z, dual = cert
        return True

    while it < 50 and np.max(np.abs(y)) <= 1e12:
        at = blk.start() if it == 0 else _state(y, z, blk)
        if at is None:
            break
        it += 1
        s, ls, sinv, grad, tz, z, mu, solve, lz = at
        last = (y, mu)
        if solve is None or lz is None:
            break
        if float(cvec @ y) < primal:
            best_y, primal = y, float(cvec @ y)
        w, dya = solve(np.column_stack([cvec - tz, -cvec])).T
        if not certify(sinv, z, w) or primal - dual <= REL_GAP * (1.0 + abs(primal)):
            break
        # predictor (σ = 0), then Mehrotra's σ = (μₐ/μ)³ and the second-order corrector
        dsa = blk.lin(dya)
        dza = -z - _herm(z @ dsa @ sinv)
        ap, ad = _steps(ls, lz, dsa, dza)
        mu_a = _re_tr(s + ap * dsa, z + ad * dza)
        sm = min(1.0, mu_a / (n * mu)) ** 3 * mu  # σμ
        corr = dza @ dsa @ sinv
        dy = solve(sm * grad - cvec - blk.traces(corr))
        ds = blk.lin(dy)
        dz = sm * sinv - z - _herm(z @ ds @ sinv + corr)
        ap, ad = _steps(ls, lz, ds, dz)
        y = y + ap * dy
        z = z + ad * dz
    if primal - dual > REL_GAP * (1.0 + abs(primal)) and last is not None:
        # fallback: the barrier-metric correction of μS⁻¹ (τ = 1/μ) at the last iterate
        y, mu = last
        at = _newton_system(y, None, blk)
        if at is not None:
            it += 1
            _, _, sinv, grad, mat, _ = at
            solve = _newton_solver(mu * mat)
            if solve is not None:
                certify(sinv, mu * sinv, solve(cvec - mu * grad))
    if best_z is None:
        return ("numerical_failure", y, None, float(cvec @ y), np.inf, it)
    return ("optimal", best_y, best_z, primal, primal - dual, it)


def sdp_solve(p: SdpProblem) -> SdpResult:
    """Solve the LMI-form SDP from y = 0 with a certified duality gap.

    F0 must be positive definite, so that y = 0 is strictly feasible;
    otherwise InvalidInputError.  status 'optimal' guarantees S(y) ⪰ 0
    (strictly, up to 1e-12) and value within `gap` of the true optimum with
    gap ≤ 10·REL_GAP·(1+|value|) + 1e-12; an objective unbounded below (an
    LMI of size 0 with c ≠ 0), a stalled path, a wider gap or a LAPACK
    failure gives numerical_failure.
    """
    if _chol_or_none(p.block.f0) is None:
        raise InvalidInputError("F0 is not positive definite (y = 0 must be strictly feasible)")
    try:
        status, y, z, primal, gap, iters = _pd_solve(p.c, p.block)
    except np.linalg.LinAlgError as err:
        return SdpResult(status="numerical_failure", message=f"LAPACK error: {err}")
    if status != "optimal":
        return SdpResult(
            status="numerical_failure",
            value=primal,
            y=y,
            gap=gap,
            iterations=iters,
            message="unbounded: no LMI constrains c·y" if status == "unbounded" else "path stalled",
        )
    ok = gap <= REL_GAP * (1.0 + abs(primal)) * 10 + 1e-12
    return SdpResult(
        status="optimal" if ok else "numerical_failure",
        value=primal,
        y=y,
        dual_z=z,
        gap=gap,
        dual_value=primal - gap,
        iterations=iters,
        message="" if ok else f"gap {gap:.3e} above target",
    )
