"""Superoperators between block-matrix spaces.

A map ⊕M_{k_i} → ⊕M_{l_j} is stored as one Choi matrix per (domain block,
codomain block) pair; cross-block coherence is zero by construction, which is
exactly the shape of morphisms between block-diagonal spaces.  The Choi
convention is J(φ) = Σ_ab φ(E_ab) ⊗ E_ab (codomain factor first), and the
trace pairing tr(φ(x)·y) = tr(x·φ†(y)) defines the adjoint.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, SizeLimitError
from .config import DIM_CAP
from .matcore import BlockMatrix, cmatrix, op_norm

__all__ = [
    "SuperOp",
    "ChannelFlags",
    "choi_from_transfer",
    "transfer_from_choi",
    "partial_trace",
    "identity_map",
    "zero_map",
    "transpose_map",
    "conjugation",
    "depolarizing",
    "trace_map",
]


def choi_from_transfer(k: np.ndarray, dom: int, cod: int) -> np.ndarray:
    """J[(y1,a),(y2,b)] = K[(y1,y2),(a,b)]."""
    return (
        k.reshape(cod, cod, dom, dom).transpose(0, 2, 1, 3).reshape(cod * dom, cod * dom)
    )


def transfer_from_choi(j: np.ndarray, dom: int, cod: int) -> np.ndarray:
    return (
        j.reshape(cod, dom, cod, dom).transpose(0, 2, 1, 3).reshape(cod * cod, dom * dom)
    )


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


@dataclass(frozen=True)
class SuperOp:
    """Linear map between block-matrix spaces, Choi blocks indexed [dom][cod]."""

    dom_shape: tuple[int, ...]
    cod_shape: tuple[int, ...]
    choi: tuple[tuple[np.ndarray, ...], ...]

    def __init__(self, dom_shape, cod_shape, choi):
        dom_shape = tuple(int(k) for k in dom_shape)
        cod_shape = tuple(int(k) for k in cod_shape)
        rows = []
        if len(choi) != len(dom_shape):
            raise ShapeMismatchError("choi grid does not match dom_shape")
        for i, row in enumerate(choi):
            if len(row) != len(cod_shape):
                raise ShapeMismatchError("choi grid does not match cod_shape")
            fixed = []
            for j, blk in enumerate(row):
                blk = cmatrix(blk)
                want = cod_shape[j] * dom_shape[i]
                if blk.shape != (want, want):
                    raise ShapeMismatchError(
                        f"choi block ({i},{j}) has shape {blk.shape}, want {want}x{want}"
                    )
                fixed.append(blk)
            rows.append(tuple(fixed))
        object.__setattr__(self, "dom_shape", dom_shape)
        object.__setattr__(self, "cod_shape", cod_shape)
        object.__setattr__(self, "choi", tuple(rows))

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_action(action, dom_shape, cod_shape) -> "SuperOp":
        """Build the Choi grid by applying `action` to every basis element.

        `action` maps BlockMatrix → BlockMatrix.
        """
        dom_shape = tuple(dom_shape)
        cod_shape = tuple(cod_shape)
        grid = [
            [
                np.zeros((l * k, l * k), dtype=np.complex128)
                for l in cod_shape
            ]
            for k in dom_shape
        ]
        for i, k in enumerate(dom_shape):
            for a in range(k):
                for b in range(k):
                    basis = BlockMatrix.zeros(dom_shape)
                    blocks = [blk.copy() for blk in basis.blocks]
                    blocks[i][a, b] = 1.0
                    out = action(BlockMatrix(blocks))
                    if tuple(out.shape) != cod_shape:
                        raise ShapeMismatchError("action output shape mismatch")
                    for j, l in enumerate(cod_shape):
                        y = out.blocks[j]
                        # J[(y1,a),(y2,b)] += y[y1,y2]
                        jm = grid[i][j].reshape(l, k, l, k)
                        jm[:, a, :, b] += y
        return SuperOp(dom_shape, cod_shape, [[g for g in row] for row in grid])

    @staticmethod
    def from_transfer_blocks(blocks, dom_shape, cod_shape) -> "SuperOp":
        grid = [
            [
                choi_from_transfer(blocks[i][j], dom_shape[i], cod_shape[j])
                for j in range(len(cod_shape))
            ]
            for i in range(len(dom_shape))
        ]
        return SuperOp(dom_shape, cod_shape, grid)

    # -- representations ----------------------------------------------------

    def transfer_block(self, i: int, j: int) -> np.ndarray:
        return transfer_from_choi(self.choi[i][j], self.dom_shape[i], self.cod_shape[j])

    def big_choi(self) -> np.ndarray:
        """Choi of the map T_K → T_L through the block-diagonal embeddings.

        Cross-block sectors are zero; sector (j,i) carries choi[i][j].
        """
        K, L = sum(self.dom_shape), sum(self.cod_shape)
        J = np.zeros((L * K, L * K), dtype=np.complex128)
        dom_off = np.cumsum((0,) + self.dom_shape)
        cod_off = np.cumsum((0,) + self.cod_shape)
        J4 = J.reshape(L, K, L, K)
        for i, k in enumerate(self.dom_shape):
            for j, l in enumerate(self.cod_shape):
                blk = self.choi[i][j].reshape(l, k, l, k)
                J4[
                    cod_off[j] : cod_off[j] + l,
                    dom_off[i] : dom_off[i] + k,
                    cod_off[j] : cod_off[j] + l,
                    dom_off[i] : dom_off[i] + k,
                ] = blk
        return J

    @staticmethod
    def from_big_choi(J, dom_shape, cod_shape, tol: float = 1e-12) -> "SuperOp":
        """Inverse of big_choi; rejects cross-block coherence above tol."""
        dom_shape, cod_shape = tuple(dom_shape), tuple(cod_shape)
        K, L = sum(dom_shape), sum(cod_shape)
        J = cmatrix(J)
        if J.shape != (L * K, L * K):
            raise ShapeMismatchError("big choi has wrong dimensions")
        J4 = J.reshape(L, K, L, K)
        dom_off = np.cumsum((0,) + dom_shape)
        cod_off = np.cumsum((0,) + cod_shape)
        grid = []
        mask = np.zeros((L, K, L, K), dtype=bool)
        for i, k in enumerate(dom_shape):
            row = []
            for j, l in enumerate(cod_shape):
                sl = (
                    slice(cod_off[j], cod_off[j] + l),
                    slice(dom_off[i], dom_off[i] + k),
                    slice(cod_off[j], cod_off[j] + l),
                    slice(dom_off[i], dom_off[i] + k),
                )
                row.append(J4[sl].reshape(l * k, l * k))
                mask[sl] = True
            grid.append(row)
        leak = float(np.max(np.abs(J4[~mask]))) if (~mask).any() else 0.0
        if leak > tol:
            raise ShapeMismatchError("choi has cross-block coherence")
        return SuperOp(dom_shape, cod_shape, grid)

    # -- action --------------------------------------------------------------

    def apply(self, x: BlockMatrix) -> BlockMatrix:
        if tuple(x.shape) != self.dom_shape:
            raise ShapeMismatchError(
                f"input shape {x.shape} does not match domain {self.dom_shape}"
            )
        out = [np.zeros((l, l), dtype=np.complex128) for l in self.cod_shape]
        for i, k in enumerate(self.dom_shape):
            xv = x.blocks[i].ravel()
            for j, l in enumerate(self.cod_shape):
                if l == 0 or k == 0:
                    continue
                out[j] += (self.transfer_block(i, j) @ xv).reshape(l, l)
        return BlockMatrix(out)

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
        grid = []
        for j, l in enumerate(self.cod_shape):
            row = []
            for i, k in enumerate(self.dom_shape):
                # K†[(a,b),(y1,y2)] = K[(y2,y1),(b,a)]: reverse all four transfer axes
                kt = self.transfer_block(i, j).reshape(l, l, k, k).transpose(3, 2, 1, 0)
                row.append(choi_from_transfer(kt.reshape(k * k, l * l), l, k))
            grid.append(row)
        return SuperOp(self.cod_shape, self.dom_shape, grid)

    def amplify(self, k: int) -> "SuperOp":
        """id_{M_k} ⊗ s under M_k(X) ≅ M_k ⊗ X."""
        if k < 1:
            raise ShapeMismatchError("amplification level must be >= 1")
        dom = tuple(k * d for d in self.dom_shape)
        cod = tuple(k * c for c in self.cod_shape)
        if max(dom + cod, default=0) > DIM_CAP:
            raise SizeLimitError("amplified dimensions exceed cap")
        eye = np.eye(k)
        grid = []
        for i, n in enumerate(self.dom_shape):
            row = []
            for j, m in enumerate(self.cod_shape):
                k4 = self.transfer_block(i, j).reshape(m, m, n, n)
                t8 = np.einsum("ux,vy,cdab->ucvdxayb", eye, eye, k4)
                row.append(
                    choi_from_transfer(
                        t8.reshape((k * m) ** 2, (k * n) ** 2), k * n, k * m
                    )
                )
            grid.append(row)
        return SuperOp(dom, cod, grid)

    def compose(self, other: "SuperOp") -> "SuperOp":
        """self ∘ other."""
        if other.cod_shape != self.dom_shape:
            raise ShapeMismatchError(
                f"cannot compose: inner shapes {other.cod_shape} vs {self.dom_shape}"
            )
        grid = []
        for i, k in enumerate(other.dom_shape):
            row = []
            for j, l in enumerate(self.cod_shape):
                acc = np.zeros((l * l, k * k), dtype=np.complex128)
                for m in range(len(self.dom_shape)):
                    acc += self.transfer_block(m, j) @ other.transfer_block(i, m)
                row.append(choi_from_transfer(acc, k, l))
            grid.append(row)
        return SuperOp(other.dom_shape, self.cod_shape, grid)

    def tensor(self, other: "SuperOp") -> "SuperOp":
        """Kronecker action; block lists combine lexicographically."""
        dom = tuple(a * b for a in self.dom_shape for b in other.dom_shape)
        cod = tuple(a * b for a in self.cod_shape for b in other.cod_shape)
        if max(dom + cod, default=0) > DIM_CAP:
            raise SizeLimitError("tensor dimensions exceed cap")
        grid = []
        for i1, n1 in enumerate(self.dom_shape):
            for i2, n2 in enumerate(other.dom_shape):
                row = []
                for j1, m1 in enumerate(self.cod_shape):
                    for j2, m2 in enumerate(other.cod_shape):
                        ka = self.transfer_block(i1, j1).reshape(m1, m1, n1, n1)
                        kb = other.transfer_block(i2, j2).reshape(m2, m2, n2, n2)
                        t8 = np.einsum("cdab,efgh->cedfagbh", ka, kb)
                        row.append(
                            choi_from_transfer(
                                t8.reshape((m1 * m2) ** 2, (n1 * n2) ** 2),
                                n1 * n2,
                                m1 * m2,
                            )
                        )
                grid.append(row)
        return SuperOp(dom, cod, grid)

    def direct_sum(self, other: "SuperOp") -> "SuperOp":
        dom = self.dom_shape + other.dom_shape
        cod = self.cod_shape + other.cod_shape
        grid = []
        for i, k in enumerate(dom):
            row = []
            for j, l in enumerate(cod):
                if i < len(self.dom_shape) and j < len(self.cod_shape):
                    row.append(self.choi[i][j])
                elif i >= len(self.dom_shape) and j >= len(self.cod_shape):
                    row.append(other.choi[i - len(self.dom_shape)][j - len(self.cod_shape)])
                else:
                    row.append(np.zeros((l * k, l * k), dtype=np.complex128))
            grid.append(row)
        return SuperOp(dom, cod, grid)

    # -- classification ------------------------------------------------------

    def classify(self, tol: float = 1e-9) -> ChannelFlags:
        herm_defect = 0.0
        min_eig = np.inf
        for row in self.choi:
            for blk in row:
                if blk.size == 0:
                    continue
                herm_defect = max(herm_defect, op_norm(blk - blk.conj().T))
                w = np.linalg.eigvalsh((blk + blk.conj().T) / 2)
                min_eig = min(min_eig, float(w[0]))
        if min_eig is np.inf:
            min_eig = 0.0
        herm_preserving = herm_defect <= tol
        cp = herm_preserving and min_eig >= -tol

        trace_defect = 0.0
        for i, k in enumerate(self.dom_shape):
            acc = np.zeros((k, k), dtype=np.complex128)
            for j, l in enumerate(self.cod_shape):
                acc += partial_trace(self.choi[i][j], (l, k), 0)
            trace_defect = max(trace_defect, op_norm(acc - np.eye(k)))
        tp = trace_defect <= tol

        unit = self.apply(BlockMatrix.identity(self.dom_shape))
        unit_defect = (unit - BlockMatrix.identity(self.cod_shape)).op_norm()
        unital = unit_defect <= tol

        return ChannelFlags(
            cp=bool(cp),
            tp=bool(tp),
            unital=bool(unital),
            herm_preserving=bool(herm_preserving),
            min_choi_eig=float(min_eig),
            trace_defect=float(trace_defect),
            unit_defect=float(unit_defect),
        )

    def kraus(self, tol: float = 1e-9):
        """Diagnostic Kraus operators per (dom,cod) block pair via eigendecomposition.

        Only meaningful when the map is CP; raises otherwise.
        """
        flags = self.classify(tol)
        if not flags.cp:
            raise ValueError("Kraus extraction needs a CP map")
        out = {}
        for i, k in enumerate(self.dom_shape):
            for j, l in enumerate(self.cod_shape):
                w, v = np.linalg.eigh((self.choi[i][j] + self.choi[i][j].conj().T) / 2)
                ops = []
                for idx in range(len(w)):
                    if w[idx] > tol:
                        ops.append(
                            np.sqrt(w[idx]) * v[:, idx].reshape(l, k)
                        )
                out[(i, j)] = ops
        return out

    def allclose(self, other: "SuperOp", tol: float = 1e-12) -> bool:
        if self.dom_shape != other.dom_shape or self.cod_shape != other.cod_shape:
            return False
        return all(
            np.allclose(a, b, atol=tol, rtol=0.0)
            for ra, rb in zip(self.choi, other.choi)
            for a, b in zip(ra, rb)
        )


# ---------------------------------------------------------------------------
# stock maps

def identity_map(shape) -> SuperOp:
    return SuperOp.from_action(lambda x: x, shape, shape)


def zero_map(dom_shape, cod_shape) -> SuperOp:
    dom_shape, cod_shape = tuple(dom_shape), tuple(cod_shape)
    grid = [
        [np.zeros((l * k, l * k)) for l in cod_shape]
        for k in dom_shape
    ]
    return SuperOp(dom_shape, cod_shape, grid)


def transpose_map(n: int) -> SuperOp:
    return SuperOp.from_action(
        lambda x: BlockMatrix([x.blocks[0].T]), (n,), (n,)
    )


def conjugation(u) -> SuperOp:
    """x ↦ u x u*; use .adjoint() for the Heisenberg direction a ↦ u* a u."""
    u = cmatrix(u)
    n = u.shape[0]
    return SuperOp.from_action(
        lambda x: BlockMatrix([u @ x.blocks[0] @ u.conj().T]), (n,), (n,)
    )


def depolarizing(n: int) -> SuperOp:
    return SuperOp.from_action(
        lambda x: BlockMatrix([np.trace(x.blocks[0]) * np.eye(n) / n]), (n,), (n,)
    )


def trace_map(shape) -> SuperOp:
    """The functional x ↦ Σ_i tr(x_i) as a map into the [1] block space."""
    return SuperOp.from_action(
        lambda x: BlockMatrix([np.array([[x.trace()]])]), shape, (1,)
    )
