"""The tensor-algebra complex of a coring with grouplike element.

Degree zero is the base algebra, degree n the n-fold tensor power of
the carrier over the base, in the coring's coordinates: power(n) is
power(n-1) (x)_R carrier, not a quotient of the dense carrier**n.  The
product concatenates tensor factors, with degree-zero elements acting
through the base actions: ``omega_product`` forms it on column-paired
batches, as the coring's ``concat(m, n)`` applied to the Khatri-Rao
product of the two batches (``TensorTower.concat_batches``, blockwise
on dual steps), and is the complex's ``products``.  The
differential is the shared ``dga.coboundaries`` with the grouplike as
unit and the coring's slotwise ``coproducts`` as slot maps; in degree
zero it sends r to ``right_action(r)(g) - left_action(r)(g)``, which
matches the degree-zero coboundary of the relative cochain complex on
the nose.

Everything is exact mod p.
"""

from __future__ import annotations

import numpy as np

from .corings import CoringWithGrouplike
from .dga import DGA, coboundaries, paired
# this complex's cohomology and law check are the shared ones
from .dga import cohomology_dims as amitsur_cohomology, verify_dga as verify_amitsur_dga
from .linalg import Matrix, QuotientSpace, trivial_quotient


class AmitsurComplex(DGA):
    """Spaces Omega^0..Omega^N and differentials d^0..d^{N-1}; the
    product is the coring's concatenation."""

    __slots__ = ("coring", "spaces")
    title = "amitsur-dga"

    def __init__(self, coring: CoringWithGrouplike, max_degree: int,
                 spaces: list[QuotientSpace], d: list[Matrix]):
        super().__init__(coring.p, max_degree, [q.dim for q in spaces], d)
        self.coring = coring
        self.spaces = spaces

    def products(self, m: int, n: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return omega_product(self, m, n, xs, ys)


def omega_product(x: AmitsurComplex, m: int, n: int, xs, ys) -> np.ndarray:
    """The concatenation product of column-paired batches (see
    ``DGA.products``); degree-zero factors act via the base actions."""
    return x.coring.concat_batches(m, n, *paired(x, m, n, xs, ys))


def build_amitsur(c: CoringWithGrouplike, max_degree: int = 3) -> AmitsurComplex:
    """Assemble spaces and differentials up to the requested degree.

    Omega^n = power(n) is power(n-1) ⊗_R carrier, so every summand of d^n
    is the coring's concatenation with the grouplike, or one of its
    slotwise coproducts; each of those was descended through the
    well-definedness check when the coring built it, and none can fail it
    for a coring that passed construction.
    """
    if max_degree < 1:
        raise ValueError("the complex needs max_degree >= 1")
    spaces = [trivial_quotient(c.p, c.base.dim)]
    for n in range(1, max_degree + 1):
        spaces.append(c.power(n))
    x = AmitsurComplex(c, max_degree, spaces, [])
    x.d = coboundaries(x, c.grouplike, c.coproducts)
    return x
