"""Dense complex matrix kernel.

Everything downstream works with plain complex128 ndarrays; this module owns
validation, the two base norms (operator and trace) and their batched
blockwise form, PSD certification, Kronecker products, block-diagonal direct
sums, the coordinate-reordering helpers, and the shared matrix literal text
format.  Eigen/SVD work is delegated to LAPACK through numpy.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .config import DIM_CAP
from .errors import InvalidInputError, ShapeMismatchError, SizeLimitError

__all__ = [
    "cmatrix",
    "op_norm",
    "tr_norm",
    "herm_eig",
    "psd_check",
    "PsdVerdict",
    "kron",
    "direct_sum",
    "axis_perm",
    "block_shape",
    "block_dim",
    "block_offsets",
    "block_embedding",
    "block_norms",
    "unit_vector",
    "blockwise_transpose",
    "pair_shape",
    "pair_reindex",
    "BlockMatrix",
    "rand_complex",
    "rand_hermitian",
    "rand_unitary",
    "parse_matrix_literal",
    "format_matrix_literal",
]


def cmatrix(data) -> np.ndarray:
    """Validate and return a 2-D complex128 matrix with finite entries."""
    a = np.asarray(data, dtype=np.complex128)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():  # a complex entry is finite iff both parts are
        raise InvalidInputError("matrix has non-finite entries")
    return a


def op_norm(a) -> float:
    """Largest singular value: one LAPACK call, the value of numpy's matrix 2-norm."""
    a = cmatrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).max())


def tr_norm(a) -> float:
    """Sum of singular values (rectangular allowed)."""
    a = cmatrix(a)
    if a.size == 0:
        return 0.0
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""
    a = cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError("herm_eig needs a square matrix")
    w, v = np.linalg.eigh(a)
    return w, v


@dataclass(frozen=True)
class PsdVerdict:
    """Result of a PSD test: kind in {'psd', 'not_psd', 'not_hermitian'}.

    diagnostic carries the minimum eigenvalue (not_psd / psd) or the
    Hermiticity defect ||a - a*|| (not_hermitian).
    """

    kind: str
    diagnostic: float

    def __bool__(self) -> bool:
        return self.kind == "psd"


def psd_check(a, tol: float = 1e-9) -> PsdVerdict:
    a = cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError("psd_check needs a square matrix")
    if a.size == 0:
        return PsdVerdict("psd", 0.0)
    defect = op_norm(a - a.conj().T)
    if defect > tol:
        return PsdVerdict("not_hermitian", float(defect))
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    min_eig = float(w[0])
    if min_eig >= -tol:
        return PsdVerdict("psd", min_eig)
    return PsdVerdict("not_psd", min_eig)


def kron(a, b) -> np.ndarray:
    """Kronecker product with index order (i,k),(j,l); each side at most DIM_CAP."""
    a, b = cmatrix(a), cmatrix(b)
    if a.shape[0] * b.shape[0] > DIM_CAP or a.shape[1] * b.shape[1] > DIM_CAP:
        raise SizeLimitError(
            f"kron result {a.shape[0] * b.shape[0]}x{a.shape[1] * b.shape[1]} "
            f"exceeds cap {DIM_CAP}"
        )
    return np.kron(a, b)


def direct_sum(*mats) -> np.ndarray:
    """Block-diagonal direct sum of matrices."""
    ms = [cmatrix(m) for m in mats]
    if not ms:
        return np.zeros((0, 0), dtype=np.complex128)
    rows = sum(m.shape[0] for m in ms)
    cols = sum(m.shape[1] for m in ms)
    out = np.zeros((rows, cols), dtype=np.complex128)
    r = c = 0
    for m in ms:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def axis_perm(dims, order) -> np.ndarray:
    """Index array p with v[p] = v.reshape(dims).transpose(order).ravel().

    Every coordinate reordering (factor swaps, shuffles, blockwise
    transposes) is one of these; np.eye(n)[p] is the matching permutation
    matrix when a dense one is needed.
    """
    dims = tuple(int(k) for k in dims)
    return np.arange(math.prod(dims)).reshape(dims).transpose(order).ravel()


def block_shape(shape) -> tuple[int, ...]:
    """Validated block-size tuple of a block-diagonal space."""
    shape = tuple(int(k) for k in shape)
    if any(k < 0 for k in shape):
        raise ShapeMismatchError("block sizes must be >= 0")
    return shape


def block_dim(shape) -> int:
    """Dimension Σk² of the block-diagonal space ⊕M_k."""
    return sum(k * k for k in shape)


def _per_shape(fn):
    """Memoize fn per tuple of block shapes; the cached index arrays are read-only.

    The cache is bounded: a session touches few shapes, and each entry holds
    an index array as long as the space it describes.
    """

    @functools.lru_cache(maxsize=64)
    def cached(*shapes):
        idx = fn(*shapes)
        idx.flags.writeable = False
        return idx

    @functools.wraps(fn)
    def wrapper(*shapes):
        return cached(*map(tuple, shapes))

    wrapper.cache_info, wrapper.cache_clear = cached.cache_info, cached.cache_clear
    return wrapper


def block_offsets(shape):
    """(coordinate offset, size) of each block of BlockMatrix.to_vector."""
    off = 0
    for k in shape:
        yield off, k
        off += k * k


@_per_shape
def block_embedding(shape) -> np.ndarray:
    """Flat index in M_K (K = Σk) of each to_vector coordinate of ⊕M_k."""
    K = sum(shape)
    parts, row = [np.zeros(0, dtype=np.intp)], 0
    for k in shape:
        rows = np.arange(row, row + k)
        parts.append((rows[:, None] * K + rows[None, :]).ravel())
        row += k
    return np.concatenate(parts)


def unit_vector(shape) -> np.ndarray:
    """vec(1) of ⊕M_k over BlockMatrix.to_vector coordinates."""
    v = np.zeros(block_dim(shape), dtype=np.complex128)
    for off, k in block_offsets(shape):
        v[off : off + k * k : k + 1] = 1.0  # the diagonal of block k
    return v


def block_norms(cols: np.ndarray, shape, picture: str) -> np.ndarray:
    """BlockMatrix norm of each column of cols (coordinate vectors over shape).

    Operator picture: max over blocks of the operator norm; trace picture:
    sum over blocks of the trace norm.  All columns are batched per block.
    """
    per_col = np.zeros(cols.shape[1])
    for off, k in block_offsets(shape):
        if k == 0:
            continue
        sv = np.linalg.svd(cols[off : off + k * k].T.reshape(-1, k, k), compute_uv=False)
        if picture == "operator":
            per_col = np.maximum(per_col, sv[:, 0])
        else:
            per_col = per_col + sv.sum(axis=1)
    return per_col


@_per_shape
def blockwise_transpose(shape) -> np.ndarray:
    """Index array t with vec(x)[t] = vec(xᵀ) blockwise, over to_vector coordinates.

    It is an involution, and it is also the trace pairing:
    ⟨f, x⟩ = f_vec[t] · x_vec.
    """
    parts = [np.zeros(0, dtype=np.intp)]
    for off, k in block_offsets(shape):
        parts.append(off + axis_perm((k, k), (1, 0)))
    return np.concatenate(parts)


def pair_shape(a_shape, b_shape) -> tuple[int, ...]:
    """Block sizes k_i·l_j of ⊕M_{k_i} ⊗ ⊕M_{l_j}, (i, j) lexicographically."""
    return tuple(ka * kb for ka in a_shape for kb in b_shape)


@_per_shape
def pair_reindex(a_shape, b_shape) -> np.ndarray:
    """Index array r taking kron(vec(x), vec(y)) to the pair-block coordinates.

    Over `pair_shape(a_shape, b_shape)`,
    e_pq^(i) ⊗ e_rs^(j) ↦ E_{(p,r),(q,s)} in block (i, j): with v over
    V(A)⊗V(B), v[r] is its vector over V(⊕_{ij} M_{k_i·l_j}).
    """
    db = block_dim(b_shape)
    src = [np.zeros(0, dtype=np.intp)]
    for a_off, ka in block_offsets(a_shape):
        for b_off, kb in block_offsets(b_shape):
            # block (i,j) lists its (p,r),(q,s) coordinates in order; local
            # index (p,q,r,s) sits at (a_off + pq)·db + b_off + rs in V(A)⊗V(B)
            idx = axis_perm((ka, ka, kb, kb), (0, 2, 1, 3))
            src.append((a_off + idx // (kb * kb)) * db + b_off + idx % (kb * kb))
    return np.concatenate(src)


@dataclass(frozen=True, eq=False)
class BlockMatrix:
    """Element of a block-diagonal space ⊕ M_{k_i}: ordered square blocks.

    Zero-size blocks are allowed (they model the zero space).
    """

    blocks: tuple[np.ndarray, ...]

    def __init__(self, blocks):
        bs = tuple(cmatrix(b) for b in blocks)
        for b in bs:
            if b.shape[0] != b.shape[1]:
                raise ShapeMismatchError("BlockMatrix blocks must be square")
        object.__setattr__(self, "blocks", bs)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    @property
    def dim(self) -> int:
        return block_dim(self.shape)

    @staticmethod
    def identity(shape) -> "BlockMatrix":
        return BlockMatrix([np.eye(k) for k in shape])

    @staticmethod
    def from_vector(vec, shape) -> "BlockMatrix":
        vec = np.asarray(vec, dtype=np.complex128).ravel()
        blocks, pos = [], 0
        for k in shape:
            blocks.append(vec[pos : pos + k * k].reshape(k, k))
            pos += k * k
        if pos != vec.size:
            raise ShapeMismatchError("vector length does not match block shape")
        return BlockMatrix(blocks)

    def to_vector(self) -> np.ndarray:
        if not self.blocks:
            return np.zeros(0, dtype=np.complex128)
        return np.concatenate([b.ravel() for b in self.blocks])

    def op_norm(self) -> float:
        """max over blocks (axiom (M1) for direct sums)."""
        return max((op_norm(b) for b in self.blocks), default=0.0)

    def tr_norm(self) -> float:
        """sum over blocks (the ℓ¹ ground norm of ⊕ T_{k_i})."""
        return sum(tr_norm(b) for b in self.blocks)

    def trace(self) -> complex:
        return complex(sum(np.trace(b) for b in self.blocks))

    def adjoint(self) -> "BlockMatrix":
        return BlockMatrix([b.conj().T for b in self.blocks])

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._check(other)
        return BlockMatrix([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._check(other)
        return BlockMatrix([a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, scalar) -> "BlockMatrix":
        return BlockMatrix([scalar * b for b in self.blocks])

    __rmul__ = __mul__

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._check(other)
        return BlockMatrix([a @ b for a, b in zip(self.blocks, other.blocks)])

    def _check(self, other: "BlockMatrix") -> None:
        if self.shape != other.shape:
            raise ShapeMismatchError(
                f"block shapes differ: {self.shape} vs {other.shape}"
            )

    def allclose(self, other: "BlockMatrix", tol: float = 1e-12) -> bool:
        self._check(other)
        return all(
            np.allclose(a, b, atol=tol, rtol=0.0)
            for a, b in zip(self.blocks, other.blocks)
        )


# ---------------------------------------------------------------------------
# seeded random generators (tests and the acceptance battery)

def rand_complex(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def rand_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rand_complex(rng, n)
    return (a + a.conj().T) / 2


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary via QR with phase fixing."""
    q, r = np.linalg.qr(rand_complex(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# matrix literal text format: nested brackets of a+bi entries, row-major

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_ENTRY_RE = re.compile(
    rf"^\s*(?:(?P<re>{_NUM})\s*(?P<im>[+-]\s*(?:{_NUM})?)\s*i"
    rf"|(?P<imonly>[+-]?(?:{_NUM})?)\s*i"
    rf"|(?P<reonly>{_NUM}))\s*$"
)


def _parse_entry(text: str) -> complex:
    m = _ENTRY_RE.match(text)
    if m is None:
        raise InvalidInputError(f"bad matrix entry {text!r}")
    if m.group("reonly") is not None:
        return complex(float(m.group("reonly")), 0.0)
    if m.group("imonly") is not None:
        s = m.group("imonly").replace(" ", "")
        if s in ("", "+"):
            return 1j
        if s == "-":
            return -1j
        return complex(0.0, float(s))
    re_part = float(m.group("re"))
    s = m.group("im").replace(" ", "")
    im_part = 1.0 if s == "+" else -1.0 if s == "-" else float(s)
    return complex(re_part, im_part)


_BRACKET_RE = re.compile(r"[\[\]]|\Z")


def parse_matrix_literal(text: str) -> np.ndarray:
    """Parse `[[a+bi, ...], ...]`; a bare `[a, b]` is read as a 1-row matrix."""
    text = text.strip()
    if not text.startswith("[") or not text.endswith("]"):
        raise InvalidInputError("matrix literal must be bracketed")
    inner = text[1:-1].strip()
    if inner.startswith("["):
        # between rows, and after the last, only ", \t" may stand
        rows, depth, start, end = [], 0, 0, 0
        for m in _BRACKET_RE.finditer(inner):  # every bracket, then the end
            i, ch = m.start(), m.group()
            if depth == 0:
                gap = inner[end:i].lstrip(", \t")
                if gap:
                    raise InvalidInputError(f"unexpected character {gap[0]!r} between rows")
                start = i
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth < 0:
                    raise InvalidInputError("unbalanced brackets in matrix literal")
                if depth == 0:
                    rows.append(inner[start + 1 : i])
                    end = i + 1
        if depth != 0:
            raise InvalidInputError("unbalanced brackets in matrix literal")
        parsed = [[_parse_entry(e) for e in _split_entries(r)] for r in rows]
    else:
        parsed = [[_parse_entry(e) for e in _split_entries(inner)]] if inner else [[]]
    widths = {len(r) for r in parsed}
    if len(widths) > 1:
        raise InvalidInputError("ragged rows in matrix literal")
    return cmatrix(np.array(parsed, dtype=np.complex128))


def _split_entries(row: str) -> list[str]:
    parts = [p for p in row.split(",") if p.strip()]
    if not parts and row.strip():
        raise InvalidInputError(f"bad row {row!r}")
    if not parts:
        raise InvalidInputError("empty row in matrix literal")
    return parts


def _format_entry(z: complex) -> str:
    re_s = f"{z.real:.12g}"
    if z.imag == 0:
        return re_s
    sign = "+" if z.imag >= 0 else "-"
    return f"{re_s}{sign}{abs(z.imag):.12g}i"


def format_matrix_literal(a) -> str:
    a = cmatrix(a)
    rows = ["[" + ", ".join(_format_entry(z) for z in row) + "]" for row in a]
    return "[" + ", ".join(rows) + "]"
