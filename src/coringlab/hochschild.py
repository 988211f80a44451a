"""The relative Hochschild cochain complex of an extension, as a DGA.

Degree 0 is the centralizer R; degree n >= 1 is the bimodule hom space
on the n-fold relative tensor power.  The coboundary alternates the
outer module actions with the slotwise multiplications:

    (delta f)(a1 ... a_{n+1}) = a1 f(a2 ... a_{n+1})
        + sum_i (-1)^i f(... a_i a_{i+1} ...)
        + (-1)^{n+1} f(a1 ... a_n) a_{n+1}

and delta^0 sends r to left-mult-by-r minus right-mult-by-r.  The cup
product concatenates arguments: value = f(first m factors) * g(rest);
degree-0 elements act through left/right multiplication on values.

A complex built to max_degree N stores spaces for degrees 0..N and the
coboundaries delta^0..delta^{N-1}; cohomology is therefore certified
for degrees 0..N-1.
"""

from __future__ import annotations

import numpy as np

from .algebras import Extension, centralizer
from .dga import DGA, Element
# this complex's cohomology and law check are the shared ones
from .dga import cohomology_dims, verify_dga as verify_hochschild_dga
from .linalg import Matrix, induced_map, mul_mod, trivial_quotient
from .homspaces import build_hom
from .tensors import build_power, mult_at

DEFAULT_DEGREE = 3
HARD_DEGREE_CAP = 4


class CochainComplex(DGA):
    """Cochain spaces C^0..C^N and coboundaries delta^0..delta^{N-1}."""

    __slots__ = ("extension", "r_space", "powers", "homs", "_a_quot")
    symbol = "delta"
    title = "hochschild-dga"

    def __init__(self, extension, max_degree, r_space, powers, homs, delta):
        dims = [r_space.dim] + [homs[n].dim for n in range(1, max_degree + 1)]
        super().__init__(extension.p, max_degree, dims, delta)
        self.extension = extension
        self.r_space = r_space          # Subspace of A: degree-0 coordinates
        self.powers = powers            # {n: RelativeTensorPower}, n = 1..N
        self.homs = homs                # {n: BimoduleHomSpace}, n = 1..N
        self._a_quot = trivial_quotient(extension.p, extension.ambient.dim)

    def product(self, f: Element, g: Element) -> Element:
        return cup(self, f, g)

    def r_vector(self, coords) -> np.ndarray:
        """Ambient A-vector of a degree-0 element."""
        coords = np.asarray(coords, dtype=np.int64).reshape(1, -1) % self.p
        return mul_mod(coords, self.r_space.rows, self.p)[0]


def _hom_matrix_ambient(c: CochainComplex, n: int, mat: Matrix) -> np.ndarray:
    """A hom element as a map on the plain (ambient) tensor power."""
    return mul_mod(mat.a, c.powers[n].space.projection.a, c.p)


def _outer_left(c: CochainComplex, n_src: int, f_amb: np.ndarray) -> Matrix:
    """x1 ... x_{n+1} -> x1 * f(x2 ... x_{n+1}), descended to the quotient."""
    a = c.extension.ambient
    amb = mul_mod(a.mult.a, np.kron(np.eye(a.dim, dtype=np.int64), f_amb), c.p)
    return induced_map(c.powers[n_src].space, c._a_quot, Matrix(c.p, amb))


def _outer_right(c: CochainComplex, n_src: int, f_amb: np.ndarray) -> Matrix:
    """x1 ... x_{n+1} -> f(x1 ... x_n) * x_{n+1}, descended to the quotient."""
    a = c.extension.ambient
    amb = mul_mod(a.mult.a, np.kron(f_amb, np.eye(a.dim, dtype=np.int64)), c.p)
    return induced_map(c.powers[n_src].space, c._a_quot, Matrix(c.p, amb))


def build_complex(e: Extension, max_degree: int = DEFAULT_DEGREE) -> CochainComplex:
    if not (1 <= max_degree <= HARD_DEGREE_CAP):
        raise ValueError(f"max_degree must be between 1 and {HARD_DEGREE_CAP}")
    a = e.ambient
    p = a.p
    r_space = centralizer(e)
    # top power first: it is the largest, so an oversized request fails
    # its size check before any other power is built
    powers = {n: build_power(e, n, max_n=max_degree) for n in range(max_degree, 0, -1)}
    homs = {n: build_hom(e, powers[n]) for n in range(1, max_degree + 1)}
    c = CochainComplex(e, max_degree, r_space, powers, homs, [])

    # delta^0 is the n = 0 instance of the coboundary formula: the outer
    # terms degenerate to x*r - r*x, i.e. right-mult minus left-mult.
    # (This sign, not its negative, satisfies graded Leibniz with the cup;
    # kernel, image, and cohomology are identical either way.)
    s1 = homs[1]
    cols = []
    for r in r_space.rows:
        mat = a.right_mul(r) - a.left_mul(r)
        cols.append(s1.coords_of(mat))
    d0 = (
        np.stack(cols, axis=1)
        if cols
        else np.zeros((s1.dim, 0), dtype=np.int64)
    )
    c.d.append(Matrix(p, d0.reshape(s1.dim, r_space.dim)))

    for n in range(1, max_degree):
        src = homs[n]
        dst = homs[n + 1]
        mults = [mult_at(powers[n + 1], powers[n], i) for i in range(1, n + 1)]
        cols = []
        for mat in src.basis:
            f_amb = _hom_matrix_ambient(c, n, mat)
            total = _outer_left(c, n + 1, f_amb).a.copy()
            sign = 1
            for i in range(1, n + 1):
                sign = -sign
                total = (total + sign * mul_mod(mat.a, mults[i - 1].a, p)) % p
            sign = -sign
            total = (total + sign * _outer_right(c, n + 1, f_amb).a) % p
            cols.append(dst.coords_of(Matrix(p, total)))
        dn = np.stack(cols, axis=1) if cols else np.zeros((dst.dim, 0), dtype=np.int64)
        c.d.append(Matrix(p, dn.reshape(dst.dim, src.dim)))
    return c


def cup(c: CochainComplex, f: Element, g: Element) -> Element:
    """The cup product; degrees must sum to at most the built maximum."""
    m, n = f.degree, g.degree
    if m + n > c.max_degree:
        raise ValueError(f"cup degree {m}+{n} exceeds max_degree {c.max_degree}")
    p = c.p
    a = c.extension.ambient
    if m == 0 and n == 0:
        prod = a.multiply(c.r_vector(f.coords), c.r_vector(g.coords))
        coords = c.r_space.coords_of(prod)
        if coords is None:
            raise AssertionError("R is closed under multiplication")
        return Element(0, coords)
    if m == 0:
        lam = a.left_mul(c.r_vector(f.coords))
        mat = lam @ c.homs[n].matrix_of(g.coords)
        return Element(n, c.homs[n].coords_of(mat))
    if n == 0:
        rho = a.right_mul(c.r_vector(g.coords))
        mat = rho @ c.homs[m].matrix_of(f.coords)
        return Element(m, c.homs[m].coords_of(mat))
    f_amb = _hom_matrix_ambient(c, m, c.homs[m].matrix_of(f.coords))
    g_amb = _hom_matrix_ambient(c, n, c.homs[n].matrix_of(g.coords))
    amb = mul_mod(a.mult.a, np.kron(f_amb, g_amb) % p, p)
    descended = induced_map(c.powers[m + n].space, c._a_quot, Matrix(p, amb))
    return Element(m + n, c.homs[m + n].coords_of(descended))
