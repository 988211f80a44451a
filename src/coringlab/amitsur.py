"""The tensor-algebra complex of a coring with grouplike element.

Degree zero is the base algebra, degree n the n-fold tensor power of
the carrier over the base, in the coring's coordinates: power(n) is
power(n-1) (x)_R carrier, not a quotient of the dense carrier**n.  The
differential inserts the grouplike at the two outer positions and the
coproduct at each inner slot, with alternating signs; the product
concatenates tensor factors, with degree-zero elements acting through
the base actions.  Every one of these maps comes from the coring
(``concat``, ``coproducts``), and the product of each pair of degrees
is one precomputed matrix on the plain product of the two spaces.

Everything is exact mod p.  The differential in degree zero sends r to
``right_action(r)(g) - left_action(r)(g)``: this orientation (rather
than its negative) is the one satisfying the graded Leibniz rule with
the concatenation product, and it matches the degree-zero coboundary of
the relative cochain complex on the nose.
"""

from __future__ import annotations

import numpy as np

from .corings import CoringWithGrouplike
from .dga import DGA, Element
# this complex's cohomology and law check are the shared ones
from .dga import cohomology_dims as amitsur_cohomology, verify_dga as verify_amitsur_dga
from .linalg import Matrix, QuotientSpace, mul_mod, trivial_quotient


class AmitsurComplex(DGA):
    """Spaces Omega^0..Omega^N, differentials d^0..d^{N-1}, and the product
    of each pair of degrees as one matrix on the plain product."""

    __slots__ = ("coring", "spaces", "products")
    title = "amitsur-dga"

    def __init__(self, coring: CoringWithGrouplike, max_degree: int,
                 spaces: list[QuotientSpace], d: list[Matrix]):
        super().__init__(coring.p, max_degree, [q.dim for q in spaces], d)
        self.coring = coring
        self.spaces = spaces
        self.products = {(m, n): coring.concat(m, n)
                         for m in range(max_degree + 1) for n in range(max_degree + 1 - m)}

    def product(self, a: Element, b: Element) -> Element:
        return omega_product(self, a, b)


def build_amitsur(c: CoringWithGrouplike, max_degree: int = 3) -> AmitsurComplex:
    """Assemble spaces, differentials and products up to the requested degree.

    Omega^n = power(n) is power(n-1) ⊗_R carrier, so every summand of d^n
    is the coring's concatenation with the grouplike, or one of its
    slotwise coproducts; each of those was descended through the
    well-definedness check when the coring built it, and none can fail it
    for a coring that passed construction.
    """
    if max_degree < 1:
        raise ValueError("the complex needs max_degree >= 1")
    p = c.p
    spaces = [trivial_quotient(p, c.base.dim)]
    for n in range(1, max_degree + 1):
        spaces.append(c.power(n))

    g = c.grouplike
    cols = [(c.right_mats[j].a @ g - c.left_mats[j].a @ g) % p
            for j in range(c.base.dim)]
    d = [Matrix(p, np.stack(cols, axis=1))]

    g_col = g.reshape(-1, 1)
    for n in range(1, max_degree):
        eye_n = np.eye(spaces[n].dim, dtype=np.int64)
        total = mul_mod(c.concat(1, n).a, np.kron(g_col, eye_n), p)
        outer_sign = 1 if (n + 1) % 2 == 0 else p - 1
        right = mul_mod(c.concat(n, 1).a, np.kron(eye_n, g_col), p)
        total = (total + outer_sign * right) % p
        for i, term in enumerate(c.coproducts(n)):
            sign = p - 1 if (i + 1) % 2 else 1
            total = (total + sign * term.a) % p
        d.append(Matrix(p, total))
    return AmitsurComplex(c, max_degree, spaces, d)


def omega_product(x: AmitsurComplex, a: Element, b: Element) -> Element:
    """Concatenation product; degree-zero factors act via the base actions."""
    m, n = a.degree, b.degree
    if m + n > x.max_degree:
        raise ValueError(
            f"product degree {m + n} exceeds the built range {x.max_degree}")
    return Element(m + n, x.products[(m, n)].apply(np.kron(a.coords, b.coords)))
