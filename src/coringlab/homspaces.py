"""Spaces of B-bimodule maps A^(⊗_B n) -> A with canonical bases.

A hom element is a matrix from quotient coordinates of the tensor power
to A.  The space is cut out by two families of intertwining constraints,
one per algebra generator of B that the tower picked: its left action on
the first factor (the tower's ``left_on(n)``) and its right action on
the last (``right_on(n)``).  Each is a block kron(L, I) - kron(I, M),
and the tower's step type solves them: their ``linalg.commutant`` in its
canonical basis; on a tower of selections, the ``linalg.Selection`` of
the coordinates where A's and power(n)'s kept diagonals agree; on a
tower of monomial steps, ``linalg.orbit_kernel`` of the actions' index
arrays.  The last two form no block.  Either way basis element t has a
1 in the t-th free coordinate of the flattened matrix.  The solve first
estimates what it forms, as the step type counts it (every block
stacked, or the index arrays), and refuses it above
``tensors.RELATION_ENTRY_BUDGET``.
"""

from __future__ import annotations

import numpy as np

from .algebras import Extension
from .linalg import Matrix
from .tensors import RelativeTensorPower, check_step_budget


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
    # two blocks for each generator, as the step type counts what its
    # solve forms: for those held by matrices, the blocks stacked, though
    # they stream into one reduction, one block and the echelon rows at once
    check_step_budget(tower.step, 2 * len(tower.gens), nvars, "constraint",
                      f"a bimodule hom space with {nvars} unknowns")
    return BimoduleHomSpace(e, t, tower.step.hom(tower, t.n))
