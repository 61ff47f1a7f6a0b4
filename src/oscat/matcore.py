"""Dense complex matrix kernel.

Everything downstream works with plain complex128 ndarrays; this module owns
validation, the two base norms (operator and trace), PSD certification,
Kronecker products, block-diagonal direct sums, the one coordinate-reordering
helper, and the shared matrix literal text format.  Eigen/SVD work is
delegated to LAPACK through numpy.
"""
from __future__ import annotations

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
    "BlockMatrix",
    "rand_complex",
    "rand_hermitian",
    "rand_psd",
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
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise InvalidInputError("matrix has non-finite entries")
    return a


def op_norm(a) -> float:
    """Largest singular value."""
    a = cmatrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


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


def kron(a, b, cap: int = DIM_CAP) -> np.ndarray:
    """Kronecker product with index order (i,k),(j,l); dimension-capped."""
    a, b = cmatrix(a), cmatrix(b)
    if a.shape[0] * b.shape[0] > cap or a.shape[1] * b.shape[1] > cap:
        raise SizeLimitError(
            f"kron result {a.shape[0] * b.shape[0]}x{a.shape[1] * b.shape[1]} "
            f"exceeds cap {cap}"
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


@dataclass(frozen=True)
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
        return sum(k * k for k in self.shape)

    @staticmethod
    def zeros(shape) -> "BlockMatrix":
        return BlockMatrix([np.zeros((k, k)) for k in shape])

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
# seeded random generators (tests, witness searches)

def rand_complex(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def rand_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rand_complex(rng, n)
    return (a + a.conj().T) / 2


def rand_psd(rng: np.random.Generator, n: int, trace: float | None = None) -> np.ndarray:
    a = rand_complex(rng, n)
    p = a @ a.conj().T
    if trace is not None:
        p *= trace / np.trace(p).real
    return p


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


def parse_matrix_literal(text: str) -> np.ndarray:
    """Parse `[[a+bi, ...], ...]`; a bare `[a, b]` is read as a 1-row matrix."""
    text = text.strip()
    if not text.startswith("[") or not text.endswith("]"):
        raise InvalidInputError("matrix literal must be bracketed")
    inner = text[1:-1].strip()
    if inner.startswith("["):
        rows, depth, start = [], 0, None
        for i, ch in enumerate(inner):
            if ch == "[":
                if depth == 0:
                    start = i
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth < 0:
                    raise InvalidInputError("unbalanced brackets in matrix literal")
                if depth == 0:
                    rows.append(inner[start + 1 : i])
            elif depth == 0 and ch not in ", \t":
                raise InvalidInputError(f"unexpected character {ch!r} between rows")
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
