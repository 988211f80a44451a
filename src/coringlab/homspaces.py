"""Spaces of B-bimodule maps A^(⊗_B n) -> A with canonical bases.

A hom element is a matrix from quotient coordinates of the tensor power
to A.  The space is cut out by two families of intertwining constraints,
one per algebra generator of B: its left action on the first factor
(the tower's ``concat(0, n)``) and its right action on the last
(``right_on(n)``).  They are solved once into a kernel-canonical
basis: basis element t has a 1 in the t-th free coordinate of the
flattened matrix, so re-expressing a member is a single gather plus one
verification product.  The solve estimates its dense constraint matrix
first and refuses one above ``tensors.RELATION_ENTRY_BUDGET``.
"""

from __future__ import annotations

import numpy as np

from .algebras import Extension, generating_indices
from .errors import ElementNotInSpaceError
from .linalg import Matrix, kernel_rows_with_free, member_coords, mul_mod
from .tensors import RelativeTensorPower, check_entry_budget


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


def build_hom(e: Extension, t: RelativeTensorPower) -> BimoduleHomSpace:
    """Solve the intertwining constraints for Hom_{B-B}(power, A)."""
    a = e.ambient
    p, d_a, q = a.p, a.dim, t.dim
    gens = generating_indices(e.sub)
    nvars = d_a * q
    # two constraint blocks per generator of B, each nvars square; with
    # none, the kernel basis is the nvars-square identity
    check_entry_budget(2 * len(gens), nvars,
                       f"a bimodule hom space with {nvars} unknowns needs a dense constraint matrix")
    tower = t.tower
    eye_a = np.eye(d_a, dtype=np.int64)
    eye_q = np.eye(q, dtype=np.int64)
    # B on the first factor is concat(0, n), on the last right_on(n);
    # algebra generators of B constrain as much as its basis does
    lefts, rights = tower.concat(0, t.n).a, tower.right_on(t.n)
    blocks = []
    for j in gens:
        lq = lefts[:, j * q:(j + 1) * q]
        bl = (np.kron(tower.left_mats[j].a, eye_q) - np.kron(eye_a, lq.T)) % p
        br = (np.kron(tower.right_mats[j].a, eye_q) - np.kron(eye_a, rights[j].a.T)) % p
        if bl.any():
            blocks.append(bl)
        if br.any():
            blocks.append(br)
    if blocks:
        rows, free = kernel_rows_with_free(np.vstack(blocks), p)
    else:
        rows = np.eye(nvars, dtype=np.int64)
        free = list(range(nvars))
    return BimoduleHomSpace(e, t, rows, free)
