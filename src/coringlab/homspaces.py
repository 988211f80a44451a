"""Spaces of B-bimodule maps A^(⊗_B n) -> A with canonical bases.

A hom element is a matrix from quotient coordinates of the tensor power
to A.  The space is cut out by two families of intertwining constraints,
one per algebra generator of B: its left action on the first factor
(the tower's ``concat(0, n)``) and its right action on the last
(``right_on(n)``).  The space is their common kernel in its canonical
basis: basis element t has a 1 in the t-th free coordinate of the
flattened matrix, so re-expressing a member is a single gather plus one
verification product.  When every generator acts diagonally on A and on
the power, as the vertex idempotents of an incidence algebra do, each
constraint block is diagonal and the kernel is the unit vectors where
every block vanishes, read off the diagonals.  Otherwise the blocks
stream, one by one, into a single row reduction.  Either way the solve
first estimates its constraint matrix as if every block were stacked,
and refuses one above ``tensors.RELATION_ENTRY_BUDGET``.
"""

from __future__ import annotations

import numpy as np

from .algebras import Extension, generating_indices
from .errors import ElementNotInSpaceError
from .linalg import Matrix, RrefAccumulator, diagonal_kept, member_coords, unit_rows
from .tensors import RelativeTensorPower, check_entry_budget


class BimoduleHomSpace:
    """Hom_{B-B}(A^(⊗_B n), A) with its echelon coordinate system."""

    __slots__ = ("extension", "source", "rows", "free")

    def __init__(self, extension, source, rows, free):
        self.extension = extension
        self.source = source
        self.rows = rows          # dim x (dim A * source.dim), kernel-canonical
        self.free = free          # identity positions in the flattened matrix

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def coords_of(self, mat: Matrix) -> np.ndarray:
        """Echelon coordinates of a B-bimodule map; raises if not one."""
        coords = member_coords(self.rows, self.free, mat.a.reshape(-1), self.extension.p)
        if coords is None:
            raise ElementNotInSpaceError(
                "matrix does not satisfy the B-bimodule constraints"
            )
        return coords

    def __repr__(self):
        return f"BimoduleHomSpace(n={self.source.n}, dim={self.dim})"


def build_hom(e: Extension, t: RelativeTensorPower) -> BimoduleHomSpace:
    """Solve the intertwining constraints for Hom_{B-B}(power, A)."""
    a = e.ambient
    p, d_a, q = a.p, a.dim, t.dim
    gens = generating_indices(e.sub)
    nvars = d_a * q
    # budgeted as the two nvars-square blocks of every generator stacked;
    # they stream into one reduction instead, so one block and the
    # echelon rows are all that is held at once
    check_entry_budget(2 * len(gens), nvars,
                       f"a bimodule hom space with {nvars} unknowns needs a dense constraint matrix")
    tower = t.tower
    # B on the first factor is concat(0, n), on the last right_on(n);
    # algebra generators of B constrain as much as its basis does.  Each
    # (L, M) is the block kron(L, I_q) - kron(I_a, M)
    lefts, rights = tower.concat(0, t.n).a, tower.right_on(t.n)
    blocks = []
    for j in gens:
        blocks.append((tower.left_mats[j].a, lefts[:, j * q:(j + 1) * q].T))
        blocks.append((tower.right_mats[j].a, rights[j].a.T))
    kept = diagonal_kept(p, d_a, q, blocks)
    if kept is not None:
        return BimoduleHomSpace(e, t, unit_rows(kept), np.flatnonzero(kept).tolist())
    eye_a = np.eye(d_a, dtype=np.int64)
    eye_q = np.eye(q, dtype=np.int64)
    acc = RrefAccumulator(nvars, p)
    for left, right in blocks:
        acc.add(np.kron(left, eye_q) - np.kron(eye_a, right))
    rows, free = acc.kernel()
    return BimoduleHomSpace(e, t, rows, free)
