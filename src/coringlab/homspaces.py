"""Spaces of B-bimodule maps A^(⊗_B n) -> A with canonical bases.

A hom element is a matrix from quotient coordinates of the tensor power
to A.  The space is cut out by two families of intertwining constraints,
one per algebra generator of B that the tower picked: its left action on
the first factor (the tower's ``left_on(n)``) and its right action on
the last (``right_on(n)``).  Each is a block kron(L, I) - kron(I, M),
and the tower's step type solves them: their ``linalg.commutant`` in its
canonical basis, or, on a tower of selections, the ``linalg.Selection``
of the coordinates where A's and power(n)'s kept diagonals agree, with
no block formed.  Either way basis element t has a 1 in the t-th free
coordinate of the flattened matrix.  The solve first estimates its
constraint matrix as if every block were stacked, and refuses one above
``tensors.RELATION_ENTRY_BUDGET``.
"""

from __future__ import annotations

import numpy as np

from .algebras import Extension
from .linalg import Matrix
from .tensors import RelativeTensorPower, check_entry_budget


class BimoduleHomSpace:
    """Hom_{B-B}(A^(⊗_B n), A) in its canonical basis, each member a
    flattened dim A x dim power(n) matrix: the ``space`` its tower's
    step type solves, read through it."""

    __slots__ = ("extension", "source", "space")

    def __init__(self, extension, source, space):
        self.extension, self.source, self.space = extension, source, space

    def __getattr__(self, name):
        # dim, rows, members, coords; an unset slot raises, not recurses
        return getattr(object.__getattribute__(self, "space"), name)

    def coords_of(self, mat: Matrix) -> np.ndarray:
        """Echelon coordinates of a B-bimodule map; raises if not one."""
        return self.coords(mat.a.reshape(1, -1),
                           "matrix does not satisfy the B-bimodule constraints")[0]

    def __repr__(self):
        return f"BimoduleHomSpace(n={self.source.n}, dim={self.dim})"


def build_hom(e: Extension, t: RelativeTensorPower) -> BimoduleHomSpace:
    """Solve the intertwining constraints for Hom_{B-B}(power, A)."""
    tower = t.tower
    nvars = e.ambient.dim * t.dim
    # budgeted as the two nvars-square blocks of every generator stacked;
    # they stream into one reduction instead, so one block and the
    # echelon rows are all that is held at once
    check_entry_budget(2 * len(tower.gens), nvars,
                       f"a bimodule hom space with {nvars} unknowns needs a dense constraint matrix")
    return BimoduleHomSpace(e, t, tower.step.hom(tower, t.n))
