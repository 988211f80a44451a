"""The relative Hochschild cochain complex of an extension, as a DGA.

Degree 0 is the centralizer R; degree n >= 1 is the bimodule hom space
on A^(⊗_B n), power n of the extension's tensor tower.  A cochain is
handled as its matrix from power(n) to A; a degree-0 cochain is its
value r, a matrix on the one-dimensional power(0).  The cup product
concatenates arguments: f ∪ g is mult·kron(f, g) on the plain product
of power(m) and power(n), descended onto power(m+n) through the pair
(``concat(m, n)``, ``concat_section(m, n)``) when both degrees are
positive, so r ∪ g = r·g and f ∪ r = f·r.  ``cup`` forms it on
column-paired batches, f_i ∪ g_i for every column i, and is the
complex's ``products``.  The coboundary is
the shared ``dga.coboundaries`` with iota, the identity 1-cochain, as
unit and the pullbacks f -> f∘mu_i along the slot multiplications
``tensors.mult_at`` as slot maps:

    delta f = iota ∪ f + sum_i (-1)^i f∘mu_i + (-1)^{n+1} f ∪ iota,

so delta^0 sends r to right-mult-by-r minus left-mult-by-r.

A complex built to max_degree N stores spaces for degrees 0..N and the
coboundaries delta^0..delta^{N-1}; cohomology is therefore certified
for degrees 0..N-1.
"""

from __future__ import annotations

import numpy as np

from .algebras import Extension, centralizer
from .dga import DGA, coboundaries, paired
# this complex's cohomology and law check are the shared ones
from .dga import cohomology_dims, verify_dga as verify_hochschild_dga
from .errors import ElementNotInSpaceError
from .linalg import Matrix, QuotientSpace, descend, mul_mod
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

    def _basis(self, n: int):
        """Basis rows of degree n, each a flattened dim A x dim power(n)
        matrix, and the positions of their identity pattern."""
        if n == 0:
            return self.r_space.rows, self.r_space.pivots
        return self.homs[n].rows, self.homs[n].free

    def _matrices(self, n: int, xs: np.ndarray) -> np.ndarray:
        """The cochains in the columns of xs, stacked: k x dim A x dim power(n)."""
        rows, _ = self._basis(n)
        d = self.extension.ambient.dim
        return mul_mod(xs.T, rows, self.p).reshape(xs.shape[1], d, rows.shape[1] // d)

    def _coords(self, n: int, flat: np.ndarray) -> np.ndarray:
        """Degree-n coordinates, as columns, of cochain matrices given as
        flattened rows."""
        rows, at = self._basis(n)
        coords = flat[:, list(at)]
        if not np.array_equal(mul_mod(coords, rows, self.p), flat):
            raise ElementNotInSpaceError(
                f"a degree-{n} matrix does not satisfy the B-bimodule constraints")
        return coords.T

    def products(self, m: int, n: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return cup(self, m, n, xs, ys)


def cup(c: CochainComplex, m: int, n: int, xs, ys) -> np.ndarray:
    """The cup product of column-paired batches (see ``DGA.products``)."""
    xs, ys = paired(c, m, n, xs, ys)
    p, d = c.p, c.extension.ambient.dim
    f, g = c._matrices(m, xs), c._matrices(n, ys)
    k, qm, qn = f.shape[0], f.shape[2], g.shape[2]
    # mult[r, a, b] against f[i, a, x], rows (r, b) and columns (i, x)
    mult = c.extension.ambient.mult.a.reshape(d, d, d).transpose(0, 2, 1)
    t = mul_mod(mult.reshape(d * d, d), f.transpose(1, 0, 2).reshape(d, k * qm), p)
    # then against g[i, b, y] with the same i: a stack of k products,
    # each with rows (r, x) and columns y
    t = t.reshape(d, d, k, qm).transpose(2, 0, 3, 1).reshape(k, d * qm, d)
    # f_i ∪ g_i on the plain product of power(m) and power(n)
    plain = mul_mod(t, g, p).reshape(k * d, qm * qn)
    if m and n:
        # power(m+n) as a retract of that plain product
        concat = QuotientSpace(p, c.tower.concat(m, n), c.tower.concat_section(m, n))
        plain = descend(concat, plain)
    return c._coords(m + n, plain.reshape(k, d * plain.shape[1]))


def _pullbacks(c: CochainComplex, n: int) -> list[Matrix]:
    """f -> f∘mu_i from degree n to n+1, for the slots i = 1..n."""
    mats = c._matrices(n, np.eye(c.dim(n), dtype=np.int64))
    k, d, q = mats.shape
    flat = mats.reshape(k * d, q)
    maps = []
    for i in range(1, n + 1):
        pulled = mul_mod(flat, mult_at(c.powers[n + 1], c.powers[n], i).a, c.p)
        maps.append(Matrix(c.p, c._coords(n + 1, pulled.reshape(k, d * pulled.shape[1]))))
    return maps


def build_complex(e: Extension, max_degree: int = DEFAULT_DEGREE) -> CochainComplex:
    if not (1 <= max_degree <= HARD_DEGREE_CAP):
        raise ValueError(f"max_degree must be between 1 and {HARD_DEGREE_CAP}")
    a = e.ambient
    r_space = centralizer(e)
    # top power first: it is the largest, so an oversized request fails
    # its size check before any hom space is solved
    tower = extension_tower(e)
    tower.power(max_degree)
    powers = {n: RelativeTensorPower(e, tower, n) for n in range(1, max_degree + 1)}
    homs = {n: build_hom(e, powers[n]) for n in range(1, max_degree + 1)}
    c = CochainComplex(e, max_degree, r_space, powers, homs, [])
    iota = homs[1].coords_of(Matrix.identity(a.p, a.dim))
    c.d = coboundaries(c, iota, lambda n: _pullbacks(c, n))
    return c
