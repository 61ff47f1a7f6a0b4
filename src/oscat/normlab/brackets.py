"""Tensor norms of flat spaces: Haagerup by SDP, projective bracket, injective exact.

Spaces enter as flat realizations (completely isometric placements into a
rectangular matrix space); levelled norms of flat spaces are single operator
norms.  The Haagerup norm is the cb norm of an elementary-operator map
(Haagerup's theorem), solved by the certified cb-norm SDP; past the SDP size
cap it falls back to an SVD factorization and a rank-one dual witness.
Projective uppers come from explicit expansions and lowers from certified dual
witnesses.  All bounds are mathematically valid two-sided bounds, so brackets
can only be loose, never wrong.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import BracketCaps
from ..errors import ShapeMismatchError, SizeLimitError
from ..matcore import op_norm, tr_norm
from ..supop import SuperOp

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
        """Bracket [lo, hi] of two certified ends, classified by width.

        Ends that cross by more than 1e-12·(1 + |hi|) cannot both be right:
        the result is `unknown`, with both values as witnesses.  A smaller
        crossing is rounding, and the upper end is raised to the lower.
        """
        witnesses = witnesses or {}
        if lo - hi > 1e-12 * (1.0 + abs(hi)):
            crossed = {"reason": "crossed bracket", "lower": lo, "upper": hi}
            return NormBracket.unknown({**witnesses, **crossed})
        lo = max(0.0, lo)
        hi = max(lo, hi)
        if hi - lo <= 1e-6 * max(1.0, hi):
            status = "exact"
        elif lo > 1e-12:
            status = "bracket"
        else:
            status = "upper_only"
        return NormBracket(lo, hi, status, witnesses)

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


# ---------------------------------------------------------------------------
# Haagerup norm

def _svd_factorization(v: np.ndarray, k: int, da: int, db: int):
    """Exact v = x ⊙ y from the SVD of the (k·da, k·db) unfolding."""
    w = v.reshape(k, k, da, db).transpose(0, 2, 1, 3).reshape(k * da, k * db)
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    keep = s > max(1e-14, 1e-14 * s[0])
    rs = np.sqrt(s[keep])
    x = (u[:, keep] * rs).reshape(k, da, -1).transpose(0, 2, 1)
    y = (rs[:, None] * vh[keep, :]).reshape(-1, k, db)
    return x, y


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


def haagerup_bracket_flat(v, level: int, fa: FlatSpace, fb: FlatSpace) -> NormBracket:
    """‖v‖ in M_k(X ⊗_h Y) as one operator-picture cb norm (Haagerup's theorem).

    M_k(X ⊗_h Y) = (C_k ⊗_h X) ⊗_h (Y ⊗_h R_k), and ⊗_h is injective, so with
    the flat placements A_a, B_b the norm is the cb norm of
    φ(x) = Σ v[i,j,a,b]·(e_i ⊗ A_a)·x·(B_b ⊗ e_jᵀ), zero-padded to M_p → M_q.
    Past the SDP size cap the SVD factorization gives the upper end and the
    rank-one dual witness the lower end.
    """
    from .diamond import cb_norm

    k, da, db = level, fa.dim, fb.dim
    v = _tensor_coords_reshape(v, k, da, db)
    if np.max(np.abs(v)) < 1e-300:
        return NormBracket.exactly(0.0)
    m, p = max(fa.rows, fb.cols), max(fa.cols, fb.rows)
    t = np.zeros((k, m, k, m, p, p), dtype=np.complex128)
    t[:, : fa.rows, :, : fb.cols, : fa.cols, : fb.rows] = np.einsum(
        "ijab,arc,bst->irjtcs", v.reshape(k, k, da, db), fa.place, fb.place
    )
    q = k * m
    phi = SuperOp.from_transfer_blocks([[t.reshape(q * q, p * p)]], (p,), (q,))
    try:
        return cb_norm(phi, "operator")
    except SizeLimitError:
        x, y = _svd_factorization(v, k, da, db)
        upper = fa.rect_norm(x) * fb.rect_norm(y)
        wit = {"x": x, "y": y, "route": "sdp size cap", "reason": "sdp size cap"}
        return NormBracket.from_bounds(_rank1_witness_lower(v, k, fa, fb), upper, wit)


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
    return NormBracket.from_bounds(lower, upper)


def inj_norm_flat(v, level: int, fa: FlatSpace, fb: FlatSpace) -> NormBracket:
    """Exact: the completely injective tensor of flat spaces is their kron."""
    k = level
    v = _tensor_coords_reshape(v, k, fa.dim, fb.dim)
    val = FlatSpace.tens_min(fa, fb).level_norm(v)
    return NormBracket.exactly(val)
