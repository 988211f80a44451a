"""The tensor-algebra complex of a coring with grouplike element.

Degree zero is the base algebra, degree n the n-fold tensor power of
the carrier over the base.  The differential inserts the grouplike at
the two outer positions and the coproduct at each inner slot, with
alternating signs; the product concatenates tensor factors, with
degree-zero elements acting through the base actions.

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
from .linalg import Matrix, QuotientSpace, induced_map, mul_mod, trivial_quotient


class AmitsurComplex(DGA):
    """Spaces Omega^0..Omega^N and differentials d^0..d^{N-1}."""

    __slots__ = ("coring", "spaces")
    title = "amitsur-dga"

    def __init__(self, coring: CoringWithGrouplike, max_degree: int,
                 spaces: list[QuotientSpace], d: list[Matrix]):
        super().__init__(coring.p, max_degree, [q.dim for q in spaces], d)
        self.coring = coring
        self.spaces = spaces

    def product(self, a: Element, b: Element) -> Element:
        return omega_product(self, a, b)


def build_amitsur(c: CoringWithGrouplike, max_degree: int = 3) -> AmitsurComplex:
    """Assemble spaces and differentials up to the requested degree.

    Each summand of d^n descends separately through induced_map; none of
    them can fail the well-definedness check for a coring that passed
    construction.
    """
    if max_degree < 1:
        raise ValueError("the complex needs max_degree >= 1")
    p = c.p
    car = c.carrier_dim
    spaces = [trivial_quotient(p, c.base.dim)]
    for n in range(1, max_degree + 1):
        spaces.append(c.power(n))

    g = c.grouplike
    cols = [(c.right_mats[j].a @ g - c.left_mats[j].a @ g) % p
            for j in range(c.base.dim)]
    d = [Matrix(p, np.stack(cols, axis=1))]

    g_col = g.reshape(car, 1)
    cop_amb = mul_mod(c.power(2).section.a, c.coproduct.a, p)
    for n in range(1, max_degree):
        src, dst = spaces[n], spaces[n + 1]
        eye_n = np.eye(car**n, dtype=np.int64)
        total = induced_map(src, dst, Matrix(p, np.kron(g_col, eye_n))).a.copy()
        outer_sign = 1 if (n + 1) % 2 == 0 else p - 1
        right = induced_map(src, dst, Matrix(p, np.kron(eye_n, g_col))).a
        total = (total + outer_sign * right) % p
        for i in range(n):
            amb = np.kron(np.eye(car**i, dtype=np.int64),
                          np.kron(cop_amb, np.eye(car**(n - 1 - i), dtype=np.int64)))
            term = induced_map(src, dst, Matrix(p, amb)).a
            sign = p - 1 if (i + 1) % 2 else 1
            total = (total + sign * term) % p
        d.append(Matrix(p, total))
    return AmitsurComplex(c, max_degree, spaces, d)


def omega_product(x: AmitsurComplex, a: Element, b: Element) -> Element:
    """Concatenation product; degree-zero factors act via the base actions."""
    m, n = a.degree, b.degree
    if m + n > x.max_degree:
        raise ValueError(
            f"product degree {m + n} exceeds the built range {x.max_degree}")
    p = x.p
    car = x.coring.carrier_dim
    if m == 0 and n == 0:
        return Element(0, x.coring.base.multiply(a.coords, b.coords))
    if m == 0:
        block = x.spaces[n].lift(b.coords).reshape(car, -1)
        acted = mul_mod(x.coring.left_action(a.coords).a, block, p)
        return Element(n, x.spaces[n].project(acted.reshape(-1)))
    if n == 0:
        block = x.spaces[m].lift(a.coords).reshape(-1, car)
        acted = mul_mod(block, x.coring.right_action(b.coords).a.T, p)
        return Element(m, x.spaces[m].project(acted.reshape(-1)))
    joined = np.kron(x.spaces[m].lift(a.coords), x.spaces[n].lift(b.coords)) % p
    return Element(m + n, x.spaces[m + n].project(joined))
