"""Tensor norms of flat spaces: Haagerup by SDP, projective bracket, injective exact.

Spaces enter as flat realizations (completely isometric placements of the
basis onto matrix units of a rectangular matrix space); levelled norms of
flat spaces are single operator norms.  The Haagerup norm is the cb norm of
an elementary-operator map (Haagerup's theorem), decided by the certified cb
norm (in closed form for elementary tensors, else by SDP); past the SDP size
cap it falls back to an SVD factorization.  Projective uppers come from
explicit expansions.  Every lower end that is not a cb-norm bracket is the
exact injective (min) norm, since ‖·‖∨ ≤ ‖·‖_h ≤ ‖·‖∧ (Effros–Ruan,
*Operator Spaces*, ch. 9); no routine here draws random numbers.  All bounds
are mathematically valid two-sided bounds, so brackets can only be loose,
never wrong.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeMismatchError, SizeLimitError
from ..matcore import op_norm
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
        # both tests are written so that a NaN end fails them
        if not (self.lower <= self.upper + 1e-12):
            raise ValueError(f"crossed bracket [{self.lower}, {self.upper}]")
        tight = self.upper - self.lower <= 1e-6 * max(1.0, self.upper)
        if self.status == "exact" and not (tight and np.isfinite(self.upper)):
            raise ValueError(
                f"exact status needs a tight finite bracket, got [{self.lower}, {self.upper}]"
            )

    @staticmethod
    def exactly(v: float, witnesses: dict | None = None) -> "NormBracket":
        return NormBracket(v, v, "exact", witnesses or {})

    @staticmethod
    def from_bounds(lo: float, hi: float, witnesses: dict | None = None) -> "NormBracket":
        """Bracket [lo, hi] of two certified ends, classified by width.

        Ends that cross by more than 1e-12·(1 + |hi|) cannot both be right:
        the result is `unknown`, with both values as witnesses.  A smaller
        crossing is rounding, and the upper end is raised to the lower.  An
        upper end that is not finite bounds nothing: `unknown` too.
        """
        witnesses = witnesses or {}
        if not np.isfinite(hi):
            return NormBracket.unknown({**witnesses, "reason": "no finite upper end", "lower": lo})
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
    """Complete isometry of a space onto the matrix units of rows×cols matrices.

    Basis vector α sits at flat entry `pos[α]` of the row-major rows×cols
    matrix; `pos` is injective.  Coordinates (…, k, r, dim) flatten to
    (…, k·rows, r·cols) block matrices, and a levelled norm is the flat
    operator norm.
    """

    def __init__(self, rows: int, cols: int, pos):
        self.rows, self.cols = int(rows), int(cols)
        self.pos = np.asarray(pos, dtype=np.intp)
        self.dim = self.pos.size

    # -- constructors: each reads its placement off a grid of flat entries ----

    @staticmethod
    def base(n: int, m: int | None = None) -> "FlatSpace":
        m = n if m is None else m
        return FlatSpace(n, m, np.arange(n * m))

    def opp(self) -> "FlatSpace":
        """Transposed placement realizes the opposite space isometrically."""
        grid = np.arange(self.rows * self.cols).reshape(self.cols, self.rows).T
        return FlatSpace(self.cols, self.rows, grid.ravel()[self.pos])

    @staticmethod
    def sum_inf(a: "FlatSpace", b: "FlatSpace") -> "FlatSpace":
        """Block-diagonal placement: a in the top-left block, b in the bottom-right."""
        rows, cols = a.rows + b.rows, a.cols + b.cols
        grid = np.arange(rows * cols).reshape(rows, cols)
        top, bottom = grid[: a.rows, : a.cols].ravel(), grid[a.rows :, a.cols :].ravel()
        return FlatSpace(rows, cols, np.concatenate([top[a.pos], bottom[b.pos]]))

    @staticmethod
    def tens_min(a: "FlatSpace", b: "FlatSpace") -> "FlatSpace":
        """Kronecker placement: (α, β) sits at row (r_α, s_β), column (c_α, d_β)."""
        rows, cols = a.rows * b.rows, a.cols * b.cols
        # kron[(r, c), (s, d)] is the flat entry of row (r, s), column (c, d)
        kron = np.arange(rows * cols).reshape(a.rows, b.rows, a.cols, b.cols).transpose(0, 2, 1, 3)
        pos = kron.reshape(a.rows * a.cols, b.rows * b.cols)[a.pos[:, None], b.pos]
        return FlatSpace(rows, cols, pos.ravel())

    # -- levelled norms -------------------------------------------------------

    def flatten(self, coords: np.ndarray) -> np.ndarray:
        """(…, k, r, dim) coordinates → (…, k·rows, r·cols) matrices, by one scatter."""
        coords = np.asarray(coords, dtype=np.complex128)
        if coords.ndim < 3 or coords.shape[-1] != self.dim:
            raise ShapeMismatchError(f"coords shape {coords.shape} for dim {self.dim}")
        *lead, k, r, _ = coords.shape
        flat = np.zeros((*lead, k, r, self.rows * self.cols), dtype=np.complex128)
        flat[..., self.pos] = coords
        flat = flat.reshape(*lead, k, r, self.rows, self.cols).swapaxes(-3, -2)
        return flat.reshape(*lead, k * self.rows, r * self.cols)

    def level_norm(self, coords: np.ndarray) -> float:
        """Operator norm of a (k, r, dim) block matrix over the space."""
        return op_norm(self.flatten(coords))


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
    keep = s > 1e-14 * s[0]
    rs = np.sqrt(s[keep])
    x = (u[:, keep] * rs).reshape(k, da, -1).transpose(0, 2, 1)
    y = (rs[:, None] * vh[keep, :]).reshape(-1, k, db)
    return x, y


def haagerup_bracket_flat(v, level: int, fa: FlatSpace, fb: FlatSpace) -> NormBracket:
    """‖v‖ in M_k(X ⊗_h Y) as one operator-picture cb norm (Haagerup's theorem).

    M_k(X ⊗_h Y) = (C_k ⊗_h X) ⊗_h (Y ⊗_h R_k), and ⊗_h is injective, so with
    the flat placements A_a, B_b the norm is the cb norm of
    φ(x) = Σ v[i,j,a,b]·(e_i ⊗ A_a)·x·(B_b ⊗ e_jᵀ), zero-padded to M_p → M_q.
    Past the SDP size cap the SVD factorization gives the upper end and the
    injective norm the lower end.
    """
    from .diamond import cb_norm

    k, da, db = level, fa.dim, fb.dim
    v = _tensor_coords_reshape(v, k, da, db)
    if np.max(np.abs(v)) < 1e-300:
        return NormBracket.exactly(0.0)
    m, p = max(fa.rows, fb.cols), max(fa.cols, fb.rows)
    (ra, ca), (rb, cb) = np.divmod(fa.pos, fa.cols), np.divmod(fb.pos, fb.cols)
    # t[i, r_a, j, c_b, c_a, r_b] = v[i, j, a, b] at the matrix units of a and b
    t = np.zeros((k, m, k, m, p, p), dtype=np.complex128)
    t[:, ra[:, None], :, cb, ca[:, None], rb] = v.reshape(k, k, da, db).transpose(2, 3, 0, 1)
    q = k * m
    phi = SuperOp((p,), (q,), t.reshape(q * q, p * p))
    try:
        return cb_norm(phi, "operator")
    except SizeLimitError:
        x, y = _svd_factorization(v, k, da, db)
        upper = fa.level_norm(x) * fb.level_norm(y)
        wit = {"x": x, "y": y, "route": "sdp size cap", "reason": "sdp size cap"}
        return NormBracket.from_bounds(inj_norm_flat(v, k, fa, fb).upper, upper, wit)


# ---------------------------------------------------------------------------
# projective bracket and injective norm

def proj_bracket_flat(v, level: int, fa: FlatSpace, fb: FlatSpace) -> NormBracket:
    """‖v‖ in M_k(X ⊗̂ Y): expansion upper end, injective-norm lower end.

    The injective norm dominates every rank-one dual witness f ⊗ g, because
    f ⊗ g is completely contractive on X ⊗min Y when f and g are.
    """
    k, da, db = level, fa.dim, fb.dim
    v = _tensor_coords_reshape(v, k, da, db)
    if not v.any():
        return NormBracket.exactly(0.0)

    # upper: expansion v = Σ_l A_l ⊗ y_l (and the mirrored split
    # Σ_l x_l ⊗ B_l), each term bounded by ‖A_l‖·‖y_l‖; SVD over the split
    # picks the directions, and one stacked SVD per factor takes the level
    # norms of all terms
    v4 = v.reshape(k, k, da, db)
    uppers = []
    for split, f_lev, f_one in ((v4, fa, fb), (v4.transpose(0, 1, 3, 2), fb, fa)):
        u, s, vh = np.linalg.svd(split.reshape(-1, f_one.dim), full_matrices=False)
        r = np.count_nonzero(s)
        levelled = _level_norms(f_lev, (u[:, :r] * s[:r]).T.reshape(r, k, k, f_lev.dim))
        single = _level_norms(f_one, vh[:r].reshape(r, 1, 1, f_one.dim))
        total = 0.0
        for term in (levelled * single).tolist():  # summed in term order
            total += term
        if total > 0:
            uppers.append(total)
    upper = min(uppers) if uppers else np.inf
    return NormBracket.from_bounds(inj_norm_flat(v, k, fa, fb).upper, upper)


def _level_norms(fs: FlatSpace, coords: np.ndarray) -> np.ndarray:
    """`fs.level_norm` of each of r stacked (r, k, k, dim) coordinate arrays, by one SVD call."""
    return np.linalg.svd(fs.flatten(coords), compute_uv=False).max(axis=-1, initial=0.0)


def inj_norm_flat(v, level: int, fa: FlatSpace, fb: FlatSpace) -> NormBracket:
    """Exact: the completely injective tensor of flat spaces is their Kronecker placement."""
    v = _tensor_coords_reshape(v, level, fa.dim, fb.dim)
    return NormBracket.exactly(FlatSpace.tens_min(fa, fb).level_norm(v))
