"""The relative Hochschild cochain complex of an extension, as a DGA.

Degree 0 is the centralizer R; degree n >= 1 is the bimodule hom space
on A^(⊗_B n), power n of the extension's tensor tower.  The cup product
concatenates arguments: mult·kron(f, g) on the plain product of power(m)
and power(n), descended through the tower's concatenation onto
power(m+n); degree-0 elements act through left/right multiplication on
values.  With iota the identity 1-cochain and mu_i the slot
multiplication ``tensors.mult_at``, the coboundary is

    delta f = iota ∪ f + sum_i (-1)^i f∘mu_i + (-1)^{n+1} f ∪ iota,

and delta^0 sends r to right-mult-by-r minus left-mult-by-r.

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
from .errors import NotWellDefinedError
from .linalg import Matrix, mul_mod
from .homspaces import build_hom
from .tensors import RelativeTensorPower, extension_tower, mult_at

DEFAULT_DEGREE = 3
HARD_DEGREE_CAP = 4


class CochainComplex(DGA):
    """Cochain spaces C^0..C^N and coboundaries delta^0..delta^{N-1}."""

    __slots__ = ("extension", "r_space", "tower", "powers", "homs")
    symbol = "delta"
    title = "hochschild-dga"

    def __init__(self, extension, max_degree, r_space, powers, homs, delta):
        dims = [r_space.dim] + [homs[n].dim for n in range(1, max_degree + 1)]
        super().__init__(extension.p, max_degree, dims, delta)
        self.extension = extension
        self.r_space = r_space          # Subspace of A: degree-0 coordinates
        self.powers = powers            # {n: RelativeTensorPower}, n = 1..N
        self.tower = powers[1].tower    # the one tower all powers come from
        self.homs = homs                # {n: BimoduleHomSpace}, n = 1..N

    def product(self, f: Element, g: Element) -> Element:
        return cup(self, f, g)

    def r_vector(self, coords) -> np.ndarray:
        """Ambient A-vector of a degree-0 element."""
        coords = np.asarray(coords, dtype=np.int64).reshape(1, -1) % self.p
        return mul_mod(coords, self.r_space.rows, self.p)[0]


def _cup_matrix(c: CochainComplex, m: int, n: int, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The hom matrix of f ∪ g for hom matrices of degrees m, n >= 1.

    mult·kron(f, g) on the plain product of power(m) and power(n) is
    pushed through a section of concat(m, n); it descends exactly when
    the result composed with concat(m, n) gives it back.
    """
    p = c.p
    plain = mul_mod(c.extension.ambient.mult.a, np.kron(f, g) % p, p)
    h = mul_mod(plain, c.tower.concat_section(m, n).a, p)
    if not np.array_equal(mul_mod(h, c.tower.concat(m, n).a, p), plain):
        raise NotWellDefinedError(f"the cup product of degrees {m} and {n} does not descend")
    return h


def build_complex(e: Extension, max_degree: int = DEFAULT_DEGREE) -> CochainComplex:
    if not (1 <= max_degree <= HARD_DEGREE_CAP):
        raise ValueError(f"max_degree must be between 1 and {HARD_DEGREE_CAP}")
    a = e.ambient
    p = a.p
    r_space = centralizer(e)
    # top power first: it is the largest, so an oversized request fails
    # its size check before any hom space is solved
    tower = extension_tower(e)
    tower.power(max_degree)
    powers = {n: RelativeTensorPower(e, tower, n) for n in range(1, max_degree + 1)}
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
    d0 = np.stack(cols, axis=1) if cols else np.zeros((s1.dim, 0), dtype=np.int64)
    c.d.append(Matrix(p, d0.reshape(s1.dim, r_space.dim)))

    iota = np.eye(a.dim, dtype=np.int64)
    for n in range(1, max_degree):
        src = homs[n]
        dst = homs[n + 1]
        mults = [mult_at(powers[n + 1], powers[n], i).a for i in range(1, n + 1)]
        outer_sign = 1 if n % 2 else p - 1
        cols = []
        for mat in src.basis:
            f = mat.a
            total = (_cup_matrix(c, 1, n, iota, f)
                     + outer_sign * _cup_matrix(c, n, 1, f, iota)) % p
            for i, mu in enumerate(mults, start=1):
                sign = p - 1 if i % 2 else 1
                total = (total + sign * mul_mod(f, mu, p)) % p
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
    h = _cup_matrix(c, m, n, c.homs[m].matrix_of(f.coords).a, c.homs[n].matrix_of(g.coords).a)
    return Element(m + n, c.homs[m + n].coords_of(Matrix(p, h)))
