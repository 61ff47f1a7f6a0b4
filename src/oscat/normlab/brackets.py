"""Tensor norms of flat spaces: Haagerup by SDP, projective bracket, injective exact.

Spaces enter as flat realizations (completely isometric placements into a
rectangular matrix space); levelled norms of flat spaces are single operator
norms.  The Haagerup norm is the cb norm of an elementary-operator map
(Haagerup's theorem), decided by the certified cb norm (in closed form for
elementary tensors, else by SDP); past the SDP size cap it falls back to an
SVD factorization.  Projective uppers come from explicit expansions.  Every
lower end that is not a cb-norm bracket is the exact injective (min) norm,
since ‖·‖∨ ≤ ‖·‖_h ≤ ‖·‖∧ (Effros–Ruan, *Operator Spaces*, ch. 9); no
routine here draws random numbers.  All bounds are mathematically valid
two-sided bounds, so brackets can only be loose, never wrong.
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
    """Complete isometry of a space onto block-placed rectangular matrices.

    `place` has shape (dim, rows, cols): the α-th canonical basis vector sits
    at the matrix place[α].  Level-k coordinates are (k, k, dim) arrays and
    flatten to (k·rows, k·cols); the levelled norm is the flat operator norm.
    """

    def __init__(self, place: np.ndarray):
        self.place = np.asarray(place, dtype=np.complex128)
        self.dim, self.rows, self.cols = self.place.shape

    # -- constructors --------------------------------------------------------

    @staticmethod
    def base(n: int, m: int | None = None) -> "FlatSpace":
        m = n if m is None else m
        place = np.eye(n * m, dtype=np.complex128).reshape(n * m, n, m)
        return FlatSpace(place)

    def opp(self) -> "FlatSpace":
        """Transposed placement realizes the opposite space isometrically."""
        return FlatSpace(self.place.transpose(0, 2, 1))

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
        return FlatSpace(place)

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
    t = np.zeros((k, m, k, m, p, p), dtype=np.complex128)
    t[:, : fa.rows, :, : fb.cols, : fa.cols, : fb.rows] = np.einsum(
        "ijab,arc,bst->irjtcs", v.reshape(k, k, da, db), fa.place, fb.place
    )
    q = k * m
    phi = SuperOp((p,), (q,), t.reshape(q * q, p * p))
    try:
        return cb_norm(phi, "operator")
    except SizeLimitError:
        x, y = _svd_factorization(v, k, da, db)
        upper = fa.rect_norm(x) * fb.rect_norm(y)
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
    r, k = coords.shape[:2]
    flat = np.einsum("lija,arc->lirjc", coords, fs.place).reshape(r, k * fs.rows, k * fs.cols)
    return np.linalg.svd(flat, compute_uv=False).max(axis=-1, initial=0.0)


def inj_norm_flat(v, level: int, fa: FlatSpace, fb: FlatSpace) -> NormBracket:
    """Exact: the completely injective tensor of flat spaces is their kron.

    v is contracted with one placement at a time, so memory stays near the
    size of the flat matrix; `FlatSpace.tens_min` would build the whole
    (da·db, ra·rb, ca·cb) placement to flatten one element.
    """
    k, da, db = level, fa.dim, fb.dim
    v = _tensor_coords_reshape(v, k, da, db).reshape(k, k, da, db)
    half = np.einsum("ijab,arc->ijbrc", v, fa.place)
    flat = np.einsum("ijbrc,bsd->irsjcd", half, fb.place)
    flat = flat.reshape(k * fa.rows * fb.rows, k * fa.cols * fb.cols)
    return NormBracket.exactly(op_norm(flat))
