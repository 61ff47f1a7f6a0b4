"""Bracketed tensor norms: Haagerup, projective upper bounds, injective exact.

Spaces enter as flat realizations (completely isometric placements into a
rectangular matrix space); levelled norms of flat spaces are single operator
norms.  All bounds returned here are mathematically valid two-sided bounds:
uppers come from explicit factorizations, lowers from certified dual
witnesses, so brackets can only be loose, never wrong.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import BracketCaps
from ..errors import ShapeMismatchError
from ..matcore import op_norm, tr_norm

__all__ = [
    "NormBracket",
    "FlatSpace",
    "haagerup_bracket_flat",
    "proj_bracket_flat",
    "inj_norm_flat",
    "elem_coords",
]


@dataclass(frozen=True)
class NormBracket:
    """Certified enclosure lower ≤ ‖·‖ ≤ upper."""

    lower: float
    upper: float
    status: str  # exact | bracket | upper_only | unknown
    witnesses: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"crossed bracket [{self.lower}, {self.upper}]")
        if self.status == "exact" and self.upper - self.lower > 1e-6 * max(1.0, self.upper):
            raise ValueError("exact status requires a tight bracket")

    @staticmethod
    def exactly(v: float, witnesses: dict | None = None) -> "NormBracket":
        return NormBracket(v, v, "exact", witnesses or {})

    @staticmethod
    def from_bounds(lo: float, hi: float, witnesses: dict | None = None) -> "NormBracket":
        lo = max(0.0, min(lo, hi))
        if hi - lo <= 1e-6 * max(1.0, hi):
            status = "exact"
        elif lo > 1e-12:
            status = "bracket"
        else:
            status = "upper_only"
        return NormBracket(lo, hi, status, witnesses or {})

    @staticmethod
    def unknown(witnesses: dict | None = None) -> "NormBracket":
        return NormBracket(0.0, np.inf, "unknown", witnesses or {})

    @property
    def mid(self) -> float:
        return (self.lower + self.upper) / 2

    @property
    def width(self) -> float:
        return self.upper - self.lower


class FlatSpace:
    """Complete isometry of a space onto block-placed rectangular matrices.

    `place` has shape (dim, rows, cols): the α-th canonical basis vector sits
    at the matrix place[α].  Level-k coordinates are (k, k, dim) arrays and
    flatten to (k·rows, k·cols); the levelled norm is the flat operator norm.
    """

    def __init__(self, place: np.ndarray, base_rect: tuple[int, int] | None = None):
        self.place = np.asarray(place, dtype=np.complex128)
        self.dim, self.rows, self.cols = self.place.shape
        # set for plain M_{n,m} atoms (possibly transposed): enables exact
        # trace-norm duals for witness certification
        self.base_rect = base_rect

    # -- constructors --------------------------------------------------------

    @staticmethod
    def base(n: int, m: int | None = None) -> "FlatSpace":
        m = n if m is None else m
        place = np.eye(n * m, dtype=np.complex128).reshape(n * m, n, m)
        return FlatSpace(place, base_rect=(n, m))

    def opp(self) -> "FlatSpace":
        """Transposed placement realizes the opposite space isometrically."""
        rect = (self.base_rect[1], self.base_rect[0]) if self.base_rect else None
        return FlatSpace(self.place.transpose(0, 2, 1), base_rect=rect)

    @staticmethod
    def sum_inf(a: "FlatSpace", b: "FlatSpace") -> "FlatSpace":
        place = np.zeros(
            (a.dim + b.dim, a.rows + b.rows, a.cols + b.cols), dtype=np.complex128
        )
        place[: a.dim, : a.rows, : a.cols] = a.place
        place[a.dim :, a.rows :, a.cols :] = b.place
        return FlatSpace(place)

    @staticmethod
    def tens_min(a: "FlatSpace", b: "FlatSpace") -> "FlatSpace":
        place = np.einsum("arc,bsd->abrsdc", a.place, b.place)
        # index (α,β) → row (r,s), col (c,d) with kron ordering
        place = place.transpose(0, 1, 2, 3, 5, 4).reshape(
            a.dim * b.dim, a.rows * b.rows, a.cols * b.cols
        )
        rect = None
        if a.base_rect and b.base_rect:
            rect = (a.base_rect[0] * b.base_rect[0], a.base_rect[1] * b.base_rect[1])
        return FlatSpace(place, base_rect=rect)

    # -- levelled norms -------------------------------------------------------

    def flatten(self, coords: np.ndarray) -> np.ndarray:
        """(k, k, dim) → (k·rows, k·cols)."""
        coords = np.asarray(coords, dtype=np.complex128)
        k = coords.shape[0]
        if coords.shape != (k, k, self.dim):
            raise ShapeMismatchError(f"coords shape {coords.shape} for dim {self.dim}")
        flat = np.einsum("ija,arc->irjc", coords, self.place)
        return flat.reshape(k * self.rows, k * self.cols)

    def flatten_rect(self, coords: np.ndarray) -> np.ndarray:
        """(k, r, dim) rectangular block matrix over the space → flat matrix."""
        coords = np.asarray(coords, dtype=np.complex128)
        k, r = coords.shape[0], coords.shape[1]
        flat = np.einsum("ija,arc->irjc", coords, self.place)
        return flat.reshape(k * self.rows, r * self.cols)

    def level_norm(self, coords: np.ndarray) -> float:
        return op_norm(self.flatten(coords))

    def rect_norm(self, coords: np.ndarray) -> float:
        return op_norm(self.flatten_rect(coords))

    def dual_norm_base(self, func_coords: np.ndarray) -> float:
        """Exact dual (level-1) norm of a functional, base atoms only.

        The functional with coordinates w acts as x ↦ Σ_α w_α x_α; on a base
        M_{n,m} atom its norm is the trace norm of the representing matrix.
        """
        if self.base_rect is None:
            raise ShapeMismatchError("exact duals only for base atoms")
        n, m = self.base_rect
        rep = np.einsum("a,arc->rc", np.asarray(func_coords, complex), self.place)
        return tr_norm(rep)


def elem_coords(x_coords: np.ndarray, y_coords: np.ndarray) -> np.ndarray:
    """Tensor coordinates of x ⊗ y (level-1 factors)."""
    return np.outer(np.asarray(x_coords).ravel(), np.asarray(y_coords).ravel()).ravel()


def _tensor_coords_reshape(v: np.ndarray, k: int, da: int, db: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.shape == (k, k, da * db):
        return v
    if k == 1 and v.shape == (da * db,):
        return v.reshape(1, 1, da * db)
    raise ShapeMismatchError(f"tensor coords shape {v.shape}, expected {(k, k, da*db)}")


def _contract(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix inner product ⊙ on coordinates: (k,r,da),(r,k,db) → (k,k,da·db)."""
    k, r, da = x.shape
    db = y.shape[2]
    out = np.einsum("ila,ljb->ijab", x, y)
    return out.reshape(k, k, da * db)


# ---------------------------------------------------------------------------
# Haagerup bracket

def _svd_factorization(v: np.ndarray, k: int, da: int, db: int, rank_cap: int):
    """Exact v = x ⊙ y from the SVD of the (k·da, k·db) unfolding."""
    w = v.reshape(k, k, da, db).transpose(0, 2, 1, 3).reshape(k * da, k * db)
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    keep = [i for i in range(s.size) if s[i] > max(1e-14, 1e-14 * s[0] if s.size else 0)]
    r = len(keep)
    trunc = r > rank_cap
    if trunc:
        keep = keep[:rank_cap]
        r = rank_cap
    rs = np.sqrt(s[keep])
    x = (u[:, keep] * rs).reshape(k, da, r).transpose(0, 2, 1)
    y = (vh[keep, :].conj().T * rs).conj().T.reshape(r, k, db)
    return x, y, trunc


def _solve_x_given_y(v, y, k, da, db):
    """Least-squares x with v ≈ x ⊙ y: design D[(l,a'),(j,a,b)] = δ_{a,a'} y[l,j,b]."""
    r = y.shape[0]
    d = np.einsum("ac,ljb->lajcb", np.eye(da), y).reshape(r * da, k * da * db)
    tgt = v.reshape(k, k * da * db)
    sol = np.linalg.lstsq(d.T, tgt.T, rcond=None)[0].T
    return sol.reshape(k, r, da)


def _solve_y_given_x(v, x, k, da, db):
    r = x.shape[1]
    d2 = np.einsum("ila,bc->lbiac", x, np.eye(db)).reshape(r * db, k * da * db)
    tgt2 = v.transpose(1, 0, 2).reshape(k, k * da * db)
    sol2 = np.linalg.lstsq(d2.T, tgt2.T, rcond=None)[0].T
    return sol2.reshape(k, r, db).transpose(1, 0, 2)


def _altmin_sweep(v, x, y, k, da, db):
    """One alternating least-squares pass toward v = x ⊙ y."""
    x = _solve_x_given_y(v, y, k, da, db)
    y = _solve_y_given_x(v, x, k, da, db)
    return x, y


def _balance(x, y, fa: FlatSpace, fb: FlatSpace):
    nx, ny = fa.rect_norm(x), fb.rect_norm(y)
    if nx > 0 and ny > 0:
        alpha = np.sqrt(nx / ny)
        return x / alpha, y * alpha
    return x, y


def _residual_patch(v, x, y, k, da, db, rank_cap):
    """Append an SVD factorization of the residual so v = x⊙y holds exactly."""
    res = v - _contract(x, y)
    if np.max(np.abs(res)) < 1e-14 * max(1.0, np.max(np.abs(v))):
        return x, y, 0.0
    xr, yr, trunc = _svd_factorization(res, k, da, db, rank_cap)
    if trunc:
        return x, y, np.inf
    return np.concatenate([x, xr], axis=1), np.concatenate([y, yr], axis=0), 0.0


def _sandwich_value(v, k, fa: FlatSpace, fb: FlatSpace, a, c, b):
    """Lower-bound datum from the witness F(ξ⊗υ) = a·ξ·c·υ·b.

    Returns (|pairing matrix| operator norm, certified ‖F‖ upper bound).
    """
    fmat = np.einsum(
        "r,arc,cs,bst,t->ab", a.conj(), fa.place, c, fb.place, b.conj()
    )
    g = np.einsum("ijz,z->ij", v.reshape(k, k, -1), fmat.ravel())
    cert = float(np.linalg.norm(a) * op_norm(c) * np.linalg.norm(b))
    return op_norm(g), cert


def _seed_sandwiches(v, k, fa, fb, rng, caps):
    """Candidate (a, c, b) witness parameters: structured + random + ascent."""
    cands = []
    for _ in range(max(4, caps.witnesses // 4)):
        a = rng.standard_normal(fa.rows) + 1j * rng.standard_normal(fa.rows)
        c = rng.standard_normal((fa.cols, fb.rows)) + 1j * rng.standard_normal(
            (fa.cols, fb.rows)
        )
        b = rng.standard_normal(fb.cols) + 1j * rng.standard_normal(fb.cols)
        cands.append((a, c, b))
    for i in range(min(fa.rows, fb.cols)):
        a = np.zeros(fa.rows, complex)
        a[i % fa.rows] = 1.0
        b = np.zeros(fb.cols, complex)
        b[i % fb.cols] = 1.0
        c = np.eye(fa.cols, fb.rows)
        cands.append((a, c, b))
    return cands


def _ascend_sandwich(v, k, fa, fb, a, c, b, steps, rng):
    best_val, best_cert = _sandwich_value(v, k, fa, fb, a, c, b)
    best_ratio = best_val / best_cert if best_cert > 1e-14 else 0.0
    state = (a, c, b)
    scale = 0.4
    for i in range(steps):
        a, c, b = state
        which = i % 3
        da_ = scale * (rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape))
        dc = scale * (rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape))
        db_ = scale * (rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape))
        trial = (
            (a + da_, c, b) if which == 0 else (a, c + dc, b) if which == 1 else (a, c, b + db_)
        )
        val, cert = _sandwich_value(v, k, fa, fb, *trial)
        ratio = val / cert if cert > 1e-14 else 0.0
        if ratio > best_ratio:
            best_ratio, state = ratio, trial
        else:
            scale *= 0.97
    return best_ratio, state


def _rank1_witness_lower(v, k, fa: FlatSpace, fb: FlatSpace):
    """Dual witness from the dominant singular pair: exact on elementaries.

    Needs base atoms (exact trace-norm duals).  Returns a lower bound datum
    computed through the self-duality pairing with F = f ⊗ g.
    """
    if fa.base_rect is None or fb.base_rect is None:
        return 0.0
    da, db = fa.dim, fb.dim
    w = v.reshape(k, k, da, db).transpose(0, 2, 1, 3).reshape(k * da, k * db)
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    if s.size == 0 or s[0] < 1e-15:
        return 0.0
    best = 0.0
    for idx in range(min(2, s.size)):
        xc = u[:, idx].reshape(k, da)
        yc = vh[idx, :].reshape(k, db)
        # attaining functionals of the dominant level-1 slices
        for i in range(k):
            for j in range(k):
                fx, fy = _attaining_functional(xc[i], fa), _attaining_functional(yc[j], fb)
                if fx is None or fy is None:
                    continue
                fmat = np.outer(fx, fy).ravel()
                g = np.einsum("uvz,z->uv", v, fmat)
                nf = fa.dual_norm_base(fx)
                ng = fb.dual_norm_base(fy)
                if nf > 1e-14 and ng > 1e-14:
                    best = max(best, op_norm(g) / (nf * ng))
    return best


def _attaining_functional(x_coords, fs: FlatSpace):
    """Coordinates of a norm-attaining functional for a level-1 element."""
    n, m = fs.base_rect
    flat = np.einsum("a,arc->rc", x_coords, fs.place)
    if op_norm(flat) < 1e-15:
        return None
    u, s, vh = np.linalg.svd(flat)
    rep = np.outer(vh[0].conj(), u[:, 0].conj())  # cols×rows with tr(rep·flat) = σ₁
    # functional coordinates: w_α = F(e_α) = tr(rep · place[α])
    return np.einsum("cr,arc->a", rep, fs.place)


def haagerup_bracket_flat(
    v,
    level: int,
    fa: FlatSpace,
    fb: FlatSpace,
    caps: BracketCaps | None = None,
    rng: np.random.Generator | None = None,
) -> NormBracket:
    caps = caps or BracketCaps()
    rng = rng or np.random.default_rng(0)
    k, da, db = level, fa.dim, fb.dim
    v = _tensor_coords_reshape(v, k, da, db)
    if np.max(np.abs(v)) < 1e-300:
        return NormBracket.exactly(0.0)
    rank_cap = caps.inner_rank or k * min(da, db)

    # -- upper: alternating least squares over exact factorizations
    best_upper, best_xy = np.inf, None
    starts = [_svd_factorization(v, k, da, db, rank_cap)[:2]]
    for _ in range(caps.restarts - 1):
        r = int(max(1, rng.integers(1, rank_cap + 1)))
        x0 = rng.standard_normal((k, r, da)) + 1j * rng.standard_normal((k, r, da))
        starts.append((x0, _solve_y_given_x(v, x0, k, da, db)))
    for x, y in starts:
        prev = np.inf
        for _ in range(caps.sweeps):
            x, y = _altmin_sweep(v, x, y, k, da, db)
            x, y = _balance(x, y, fa, fb)
            xe, ye, slack = _residual_patch(v, x, y, k, da, db, rank_cap)
            if slack == 0.0:
                val = fa.rect_norm(xe) * fb.rect_norm(ye)
                if val < best_upper:
                    best_upper, best_xy = val, (xe, ye)
            cur = fa.rect_norm(x) * fb.rect_norm(y)
            if prev - cur < 1e-12 * max(1.0, prev):
                break
            prev = cur
    if best_upper is np.inf:
        return NormBracket.unknown()

    # -- lower: certified dual witnesses
    lower = _rank1_witness_lower(v, k, fa, fb)
    best_ratio, best_seed = 0.0, None
    for cand in _seed_sandwiches(v, k, fa, fb, rng, caps):
        val, cert = _sandwich_value(v, k, fa, fb, *cand)
        if cert > 1e-14 and val / cert >= best_ratio:
            best_ratio, best_seed = val / cert, cand
    if best_seed is not None:
        ratio, _ = _ascend_sandwich(
            v, k, fa, fb, *best_seed, caps.ascent_steps, rng
        )
        best_ratio = max(best_ratio, ratio)
    lower = max(lower, best_ratio)
    lower = min(lower, best_upper)  # guard against fp crumbs

    wit = {}
    if best_xy is not None:
        wit = {"x": best_xy[0], "y": best_xy[1]}
    return NormBracket.from_bounds(lower, best_upper, wit)


# ---------------------------------------------------------------------------
# projective bracket and injective norm

def proj_bracket_flat(
    v,
    level: int,
    fa: FlatSpace,
    fb: FlatSpace,
    caps: BracketCaps | None = None,
    rng: np.random.Generator | None = None,
) -> NormBracket:
    caps = caps or BracketCaps()
    rng = rng or np.random.default_rng(0)
    k, da, db = level, fa.dim, fb.dim
    v = _tensor_coords_reshape(v, k, da, db)
    if np.max(np.abs(v)) < 1e-300:
        return NormBracket.exactly(0.0)

    # upper: expansion v = Σ_l A_l ⊗ y_l (and the mirrored split), each term
    # bounded by ‖A_l‖·‖y_l‖; SVD over the split picks the directions
    uppers = []
    m1 = v.reshape(k * k * da, db)
    u, s, vh = np.linalg.svd(m1, full_matrices=False)
    total = 0.0
    for l in range(np.sum(s > 1e-14)):
        a_l = (u[:, l] * s[l]).reshape(k, k, da)
        y_l = vh[l, :]
        total += fa.level_norm(a_l) * fb.level_norm(y_l.reshape(1, 1, db))
    if total > 0:
        uppers.append(total)
    m2 = v.transpose(2, 0, 1).reshape(da, k * k * db)
    u, s, vh = np.linalg.svd(m2.T, full_matrices=False)
    total = 0.0
    for l in range(np.sum(s > 1e-14)):
        b_l = (u[:, l] * s[l]).reshape(k, k, db)
        x_l = vh[l, :]
        total += fa.level_norm(x_l.reshape(1, 1, da)) * fb.level_norm(b_l)
    if total > 0:
        uppers.append(total)
    upper = min(uppers) if uppers else np.inf

    # lower: rank-1 dual functionals, exact injective-ball membership
    lower = 0.0
    if fa.base_rect is not None and fb.base_rect is not None:
        lower = _rank1_witness_lower(v, k, fa, fb)
        for _ in range(caps.witnesses):
            fx = rng.standard_normal(da) + 1j * rng.standard_normal(da)
            fy = rng.standard_normal(db) + 1j * rng.standard_normal(db)
            nf, ng = fa.dual_norm_base(fx), fb.dual_norm_base(fy)
            if nf < 1e-14 or ng < 1e-14:
                continue
            g = np.einsum("uvz,z->uv", v, np.outer(fx, fy).ravel())
            lower = max(lower, op_norm(g) / (nf * ng))
    lower = min(lower, upper)
    return NormBracket.from_bounds(lower, upper)


def inj_norm_flat(v, level: int, fa: FlatSpace, fb: FlatSpace) -> NormBracket:
    """Exact: the completely injective tensor of flat spaces is their kron."""
    k = level
    v = _tensor_coords_reshape(v, k, fa.dim, fb.dim)
    val = FlatSpace.tens_min(fa, fb).level_norm(v)
    return NormBracket.exactly(val)
