"""Spaces of B-bimodule maps A^(⊗_B n) -> A with canonical bases.

A hom element is a matrix from quotient coordinates of the tensor power
to A.  The space is cut out by two families of intertwining constraints
(left B-action on the first slot, right B-action on the last), solved
once into a kernel-canonical basis: basis element t has a 1 in the t-th
free coordinate of the flattened matrix, so re-expressing a member is a
single gather plus one verification product.
"""

from __future__ import annotations

import numpy as np

from .algebras import Extension
from .errors import ElementNotInSpaceError
from .linalg import Matrix, induced_map, kernel_rows_with_free, member_coords, mul_mod
from .tensors import RelativeTensorPower


class BimoduleHomSpace:
    """Hom_{B-B}(A^(⊗_B n), A) with its echelon coordinate system."""

    __slots__ = ("extension", "source", "rows", "free", "basis")

    def __init__(self, extension, source, rows, free):
        self.extension = extension
        self.source = source
        self.rows = rows          # dim x (dim A * source.dim), kernel-canonical
        self.free = free          # identity positions in the flattened matrix
        d_a = extension.ambient.dim
        self.basis = [Matrix(extension.p, r.reshape(d_a, source.dim)) for r in rows]

    @property
    def p(self) -> int:
        return self.extension.p

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def matrix_of(self, coords) -> Matrix:
        coords = np.asarray(coords, dtype=np.int64).reshape(1, -1) % self.p
        if coords.shape[1] != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {coords.shape[1]}")
        d_a = self.extension.ambient.dim
        flat = mul_mod(coords, self.rows, self.p)[0]
        return Matrix(self.p, flat.reshape(d_a, self.source.dim))

    def coords_of(self, mat: Matrix) -> np.ndarray:
        """Echelon coordinates of a B-bimodule map; raises if not one."""
        coords = member_coords(self.rows, self.free, mat.a.reshape(-1), self.p)
        if coords is None:
            raise ElementNotInSpaceError(
                "matrix does not satisfy the B-bimodule constraints"
            )
        return coords

    def contains(self, mat: Matrix) -> bool:
        return member_coords(self.rows, self.free, mat.a.reshape(-1), self.p) is not None

    def __repr__(self):
        return f"BimoduleHomSpace(n={self.source.n}, dim={self.dim})"


def outer_left_action(e: Extension, t: RelativeTensorPower, x) -> Matrix:
    """Quotient matrix of v1 ⊗ ... -> (x·v1) ⊗ ... for x in A."""
    a = e.ambient
    amb = np.kron(a.left_mul(x).a, np.eye(a.dim ** (t.n - 1), dtype=np.int64))
    return induced_map(t.space, t.space, Matrix(a.p, amb))


def outer_right_action(e: Extension, t: RelativeTensorPower, x) -> Matrix:
    """Quotient matrix of ... ⊗ vn -> ... ⊗ (vn·x) for x in A."""
    a = e.ambient
    amb = np.kron(np.eye(a.dim ** (t.n - 1), dtype=np.int64), a.right_mul(x).a)
    return induced_map(t.space, t.space, Matrix(a.p, amb))


def build_hom(e: Extension, t: RelativeTensorPower) -> BimoduleHomSpace:
    """Solve the intertwining constraints for Hom_{B-B}(power, A)."""
    a = e.ambient
    p, d_a, q = a.p, a.dim, t.dim
    eye_a = np.eye(d_a, dtype=np.int64)
    eye_q = np.eye(q, dtype=np.int64)
    blocks = []
    for b in e.sub_images():
        lq = outer_left_action(e, t, b).a
        rq = outer_right_action(e, t, b).a
        bl = (np.kron(a.left_mul(b).a, eye_q) - np.kron(eye_a, lq.T)) % p
        br = (np.kron(a.right_mul(b).a, eye_q) - np.kron(eye_a, rq.T)) % p
        if bl.any():
            blocks.append(bl)
        if br.any():
            blocks.append(br)
    nvars = d_a * q
    if blocks:
        rows, free = kernel_rows_with_free(np.vstack(blocks), p)
    else:
        rows = np.eye(nvars, dtype=np.int64)
        free = list(range(nvars))
    return BimoduleHomSpace(e, t, rows, free)
