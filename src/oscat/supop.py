"""Superoperators between block-matrix spaces.

A map φ: ⊕M_{k_i} → ⊕M_{l_j} is stored as its transfer matrix (Watrous,
*The Theory of Quantum Information* (2018), §2.2, the natural
representation): shape (Σl², Σk²) over `BlockMatrix.to_vector` coordinates,
with transfer[:, a] = vec(φ(e_a)).  Apply, compose, adjoint, tensor and
direct sum are whole-matrix expressions on it.  Choi matrices are derived
where the theory asks for them (cb norms, the CP test), with the convention
J(φ) = Σ_ab φ(E_ab) ⊗ E_ab (codomain factor first); cross-block coherence is
zero by construction, which is exactly the shape of morphisms between
block-diagonal spaces.  The bilinear trace pairing tr(φ(x)·y) = tr(x·φ†(y))
defines the adjoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, SizeLimitError
from .config import DIM_CAP
from .matcore import (
    BlockMatrix,
    block_dim,
    block_embedding,
    block_norms,
    block_offsets,
    block_shape,
    blockwise_transpose,
    cmatrix,
    direct_sum,
    op_norm,
    pair_reindex,
    pair_shape,
    unit_vector,
)

__all__ = [
    "SuperOp",
    "ChannelFlags",
    "partial_trace",
    "identity_map",
    "transpose_map",
    "conjugation",
    "depolarizing",
    "trace_map",
]


# the largest cross-block Choi entry `from_big_choi` reads as rounding
_COHERENCE_TOL = 1e-12
# smallest positive normal double: a sum of squares below it may have underflowed
_NORMAL_MIN = np.finfo(np.float64).tiny


def _check_size(rows: int, cols: int, what: str = "transfer matrix") -> None:
    """The size rule, checked before allocating: a transfer or Choi matrix holds at most DIM_CAP² entries."""
    if rows * cols > DIM_CAP * DIM_CAP:
        raise SizeLimitError(f"{what} {rows}x{cols} exceeds {DIM_CAP}^2 entries")


def partial_trace(m: np.ndarray, dims: tuple[int, int], axis: int) -> np.ndarray:
    """Trace out the factor `axis` (0 or 1) of an operator on C^d0 ⊗ C^d1."""
    d0, d1 = dims
    m4 = cmatrix(m).reshape(d0, d1, d0, d1)
    if axis == 0:
        return np.einsum("aiaj->ij", m4)
    return np.einsum("aibi->ab", m4)


@dataclass(frozen=True)
class ChannelFlags:
    cp: bool
    tp: bool
    unital: bool
    herm_preserving: bool
    min_choi_eig: float
    trace_defect: float
    unit_defect: float


@dataclass(frozen=True, eq=False)
class SuperOp:
    """Linear map between block-matrix spaces: transfer[:, a] = vec(φ(e_a))."""

    dom_shape: tuple[int, ...]
    cod_shape: tuple[int, ...]
    transfer: np.ndarray

    def __init__(self, dom_shape, cod_shape, transfer):
        dom_shape, cod_shape = block_shape(dom_shape), block_shape(cod_shape)
        transfer = cmatrix(transfer)
        want = (block_dim(cod_shape), block_dim(dom_shape))
        if transfer.shape != want:
            raise ShapeMismatchError(
                f"transfer matrix has shape {transfer.shape}, want {want[0]}x{want[1]}"
            )
        object.__setattr__(self, "dom_shape", dom_shape)
        object.__setattr__(self, "cod_shape", cod_shape)
        object.__setattr__(self, "transfer", transfer)

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_action(action, dom_shape, cod_shape) -> "SuperOp":
        """Fill the transfer matrix by applying `action` to every basis element.

        `action` maps BlockMatrix → BlockMatrix.
        """
        dom_shape, cod_shape = block_shape(dom_shape), block_shape(cod_shape)
        _check_size(block_dim(cod_shape), block_dim(dom_shape))
        basis = np.eye(block_dim(dom_shape))
        transfer = np.zeros((block_dim(cod_shape), basis.shape[0]), dtype=np.complex128)
        for a, e in enumerate(basis):
            out = action(BlockMatrix.from_vector(e, dom_shape))
            if tuple(out.shape) != cod_shape:
                raise ShapeMismatchError("action output shape mismatch")
            transfer[:, a] = out.to_vector()
        return SuperOp(dom_shape, cod_shape, transfer)

    # -- Choi representation ------------------------------------------------

    def big_choi(self) -> np.ndarray:
        """Choi of the map T_K → T_L through the block-diagonal embeddings.

        J[(y1,a),(y2,b)] = φ(E_ab)[y1,y2]; cross-block sectors are zero.  J has
        (ΣL·ΣK)² entries, more than the transfer matrix of a block map, so the
        size rule is checked on it before allocating.
        """
        K, L = sum(self.dom_shape), sum(self.cod_shape)
        _check_size(L * K, L * K, "Choi matrix")
        if len(self.dom_shape) == len(self.cod_shape) == 1:
            big = self.transfer  # one sector, all of it; np.array below copies
        else:
            big = np.zeros((L * L, K * K), dtype=np.complex128)
            big[np.ix_(block_embedding(self.cod_shape), block_embedding(self.dom_shape))] = self.transfer
        return np.array(big.reshape(L, L, K, K).transpose(0, 2, 1, 3), order="C").reshape(L * K, L * K)

    @staticmethod
    def from_big_choi(J, dom_shape, cod_shape) -> "SuperOp":
        """Inverse of big_choi; rejects cross-block coherence above _COHERENCE_TOL."""
        dom_shape, cod_shape = block_shape(dom_shape), block_shape(cod_shape)
        K, L = sum(dom_shape), sum(cod_shape)
        J = cmatrix(J)
        if J.shape != (L * K, L * K):
            raise ShapeMismatchError("big choi has wrong dimensions")
        big = J.reshape(L, K, L, K).transpose(0, 2, 1, 3).reshape(L * L, K * K)
        sectors = np.ix_(block_embedding(cod_shape), block_embedding(dom_shape))
        outside = np.ones(big.shape, dtype=bool)
        outside[sectors] = False
        if float(np.abs(big[outside]).max(initial=0.0)) > _COHERENCE_TOL:
            raise ShapeMismatchError("choi has cross-block coherence")
        return SuperOp(dom_shape, cod_shape, big[sectors])

    # -- action --------------------------------------------------------------

    def apply(self, x: BlockMatrix) -> BlockMatrix:
        if tuple(x.shape) != self.dom_shape:
            raise ShapeMismatchError(
                f"input shape {x.shape} does not match domain {self.dom_shape}"
            )
        return BlockMatrix.from_vector(self.transfer @ x.to_vector(), self.cod_shape)

    def __call__(self, x):
        if isinstance(x, BlockMatrix):
            return self.apply(x)
        if len(self.dom_shape) != 1:
            raise ShapeMismatchError("bare-matrix apply needs a single-block domain")
        out = self.apply(BlockMatrix([x]))
        return out.blocks[0] if len(self.cod_shape) == 1 else out

    # -- algebra -------------------------------------------------------------

    def adjoint(self) -> "SuperOp":
        """Trace-pairing adjoint: tr(s(x)·y) = tr(x·adjoint(s)(y)) for all x,y."""
        t_dom, t_cod = blockwise_transpose(self.dom_shape), blockwise_transpose(self.cod_shape)
        return SuperOp(self.cod_shape, self.dom_shape, self.transfer[t_cod][:, t_dom].T)

    def amplify(self, k: int) -> "SuperOp":
        """id_{M_k} ⊗ s under M_k(X) ≅ M_k ⊗ X."""
        if k < 1:
            raise ShapeMismatchError("amplification level must be >= 1")
        _check_size(k * k * self.transfer.shape[0], k * k * self.transfer.shape[1])
        return identity_map((k,)).tensor(self)

    def compose(self, other: "SuperOp") -> "SuperOp":
        """self ∘ other."""
        if other.cod_shape != self.dom_shape:
            raise ShapeMismatchError(
                f"cannot compose: inner shapes {other.cod_shape} vs {self.dom_shape}"
            )
        _check_size(self.transfer.shape[0], other.transfer.shape[1])
        return SuperOp(other.dom_shape, self.cod_shape, self.transfer @ other.transfer)

    def tensor(self, other: "SuperOp") -> "SuperOp":
        """Kronecker action; block lists combine lexicographically."""
        dom = pair_shape(self.dom_shape, other.dom_shape)
        cod = pair_shape(self.cod_shape, other.cod_shape)
        _check_size(block_dim(cod), block_dim(dom))
        rows = pair_reindex(self.cod_shape, other.cod_shape)
        cols = pair_reindex(self.dom_shape, other.dom_shape)
        return SuperOp(dom, cod, np.kron(self.transfer, other.transfer)[np.ix_(rows, cols)])

    def direct_sum(self, other: "SuperOp") -> "SuperOp":
        (r0, c0), (r1, c1) = self.transfer.shape, other.transfer.shape
        _check_size(r0 + r1, c0 + c1)
        return SuperOp(
            self.dom_shape + other.dom_shape,
            self.cod_shape + other.cod_shape,
            direct_sum(self.transfer, other.transfer),
        )

    # -- classification ------------------------------------------------------

    def classify(self, tol: float = 1e-9) -> ChannelFlags:
        """CP per (cod, dom) Choi sector: big_choi's spectrum is theirs, at Σ(l·k)³ not (Σl·Σk)³.

        A sector is Hermitian when ‖J − J*‖₂ ≤ tol.  Since ‖·‖₂ ≤ ‖·‖_F
        (Higham, *Accuracy and Stability of Numerical Algorithms* (2002),
        §6.2), a Frobenius norm of at most tol/2 accepts the sector without
        an SVD: the factor 2 is far wider than the rounding of either norm.
        Below the normal range the squares may have underflowed, so there,
        and above tol/2, the SVD decides.

        The trace and unit defects are the blockwise operator norms of
        vec(1_cod)·transfer − vec(1_dom) and transfer·vec(1_dom) − vec(1_cod):
        an exactly zero one reads 0.0 with no SVD, and when domain and
        codomain shapes agree the two share one `block_norms` call.
        """
        herm_defect, min_eig = 0.0, np.inf
        sectors = {}  # l·k → the Hermitian parts of the nonzero l·k × l·k sectors
        for row, l in block_offsets(self.cod_shape):
            for col, k in block_offsets(self.dom_shape):
                t = self.transfer[row : row + l * l, col : col + k * k]
                if not t.size:
                    continue
                if not t.any():  # a zero sector: Hermitian, spectrum {0}
                    min_eig = min(min_eig, 0.0)
                    continue
                J = t.reshape(l, l, k, k).transpose(0, 2, 1, 3).reshape(l * k, l * k)
                skew = J - J.conj().T
                fro2 = np.vdot(skew, skew).real
                if not (math.sqrt(fro2) <= tol / 2 and (fro2 >= _NORMAL_MIN or not skew.any())):
                    herm_defect = max(herm_defect, op_norm(skew))
                sectors.setdefault(l * k, []).append((J + J.conj().T) / 2)
        for group in sectors.values():  # one eigvalsh per sector size
            min_eig = min(min_eig, *np.linalg.eigvalsh(np.array(group))[:, 0].tolist())
        if min_eig == np.inf:
            min_eig = 0.0
        herm_preserving = herm_defect <= tol
        cp = herm_preserving and min_eig >= -tol

        unit_dom, unit_cod = unit_vector(self.dom_shape), unit_vector(self.cod_shape)
        traces = unit_cod @ self.transfer - unit_dom
        units = self.transfer @ unit_dom - unit_cod
        if self.dom_shape == self.cod_shape and traces.any() and units.any():
            both = np.stack([traces, units], axis=1)
            trace_defect, unit_defect = block_norms(both, self.dom_shape, "operator")
        else:
            trace_defect = _op_defect(traces, self.dom_shape)
            unit_defect = _op_defect(units, self.cod_shape)
        return ChannelFlags(
            cp=bool(cp),
            tp=bool(trace_defect <= tol),
            unital=bool(unit_defect <= tol),
            herm_preserving=bool(herm_preserving),
            min_choi_eig=float(min_eig),
            trace_defect=float(trace_defect),
            unit_defect=float(unit_defect),
        )

    def allclose(self, other: "SuperOp", tol: float = 1e-12) -> bool:
        if self.dom_shape != other.dom_shape or self.cod_shape != other.cod_shape:
            return False
        return bool(np.allclose(self.transfer, other.transfer, atol=tol, rtol=0.0))


def _op_defect(v: np.ndarray, shape) -> float:
    """Blockwise operator norm of one coordinate vector; 0.0, with no SVD, when it is zero."""
    return block_norms(v[:, None], shape, "operator")[0] if v.any() else 0.0


# ---------------------------------------------------------------------------
# stock maps

def identity_map(shape) -> SuperOp:
    shape = block_shape(shape)
    _check_size(block_dim(shape), block_dim(shape))
    return SuperOp(shape, shape, np.eye(block_dim(shape)))


def transpose_map(n: int) -> SuperOp:
    shape = block_shape((n,))
    _check_size(n * n, n * n)
    return SuperOp(shape, shape, np.eye(n * n)[blockwise_transpose(shape)])


def conjugation(u) -> SuperOp:
    """x ↦ u x u*; use .adjoint() for the Heisenberg direction a ↦ u* a u."""
    u = cmatrix(u)
    n = u.shape[0]
    _check_size(n * n, u.shape[1] ** 2)
    return SuperOp((n,), (n,), np.kron(u, u.conj()))


def depolarizing(n: int) -> SuperOp:
    shape = block_shape((n,))
    _check_size(n * n, n * n)
    unit = np.eye(n).ravel()
    return SuperOp(shape, shape, np.outer(unit, unit) / n)


def trace_map(shape) -> SuperOp:
    """The functional x ↦ Σ_i tr(x_i) as a map into the [1] block space."""
    shape = block_shape(shape)
    _check_size(1, block_dim(shape))
    return SuperOp(shape, (1,), unit_vector(shape))
