"""Spaces of B-bimodule maps A^(⊗_B n) -> A with canonical bases.

A hom element is a matrix from quotient coordinates of the tensor power
to A.  The space is cut out by two families of intertwining constraints,
one per algebra generator of B that the tower picked: its left action on
the first factor (the tower's ``left_on(n)``) and its right action on
the last (``right_on(n)``).  Each is a block kron(L, I) - kron(I, M), so
the space is their ``linalg.commutant`` in its canonical basis, or, on a
tower with ``diagonals``, ``linalg.kept_rows`` of A's and power(n)'s
diagonals, with no block formed: basis element t has a 1 in the t-th
free coordinate of the flattened matrix.  So a hom space is a
``linalg.Subspace`` whose members ``linalg.span_coords`` reads with a
gather plus one verification product, or the gather alone on a
``selection``.  The solve first estimates its constraint matrix as if
every block were stacked, and refuses one above ``tensors.RELATION_ENTRY_BUDGET``.
"""

from __future__ import annotations

import numpy as np

from .algebras import Extension
from .linalg import Matrix, Subspace, commutant, kept_rows
from .tensors import RelativeTensorPower, check_entry_budget


class BimoduleHomSpace(Subspace):
    """Hom_{B-B}(A^(⊗_B n), A) in its canonical basis: each row a
    flattened dim A x dim power(n) matrix, with the identity at the free
    coordinates of the commutant."""

    __slots__ = ("extension", "source")

    def __init__(self, extension, source, rows, free):
        super().__init__(extension.p, rows, free)
        self.extension = extension
        self.source = source

    def coords_of(self, mat: Matrix) -> np.ndarray:
        """Echelon coordinates of a B-bimodule map; raises if not one."""
        return self.coords(mat.a.reshape(1, -1),
                           "matrix does not satisfy the B-bimodule constraints")[0]

    def __repr__(self):
        return f"BimoduleHomSpace(n={self.source.n}, dim={self.dim})"


def build_hom(e: Extension, t: RelativeTensorPower) -> BimoduleHomSpace:
    """Solve the intertwining constraints for Hom_{B-B}(power, A)."""
    tower = t.tower
    d_a, q = e.ambient.dim, t.dim
    nvars = d_a * q
    # budgeted as the two nvars-square blocks of every generator stacked;
    # they stream into one reduction instead, so one block and the
    # echelon rows are all that is held at once
    check_entry_budget(2 * len(tower.gens), nvars,
                       f"a bimodule hom space with {nvars} unknowns needs a dense constraint matrix")
    if tower.diagonals(1) is not None:    # A's two diagonals against power(n)'s
        ends, far = (np.concatenate(tower.diagonals(k)) for k in (1, t.n))
        return BimoduleHomSpace(e, t, *kept_rows(ends[:, :, None], far[:, None, :]))
    lefts, rights = tower.left_on(t.n), tower.right_on(t.n)
    pairs = []
    for j in tower.gens:
        pairs.append((tower.left_mats[j].a, lefts[j].a.T))
        pairs.append((tower.right_mats[j].a, rights[j].a.T))
    return BimoduleHomSpace(e, t, *commutant(e.p, d_a, q, pairs))
