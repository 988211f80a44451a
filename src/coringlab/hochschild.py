"""The relative Hochschild cochain complex of an extension, as a DGA.

Degree 0 is the centralizer R; degree n >= 1 is the bimodule hom space
on A^(⊗_B n), power n of the extension's tensor tower.  A cochain is
handled as its matrix from power(n) to A; a degree-0 cochain is its
value r, a matrix on the one-dimensional power(0).  Each degree is a
``linalg.Subspace`` of such matrices, flattened, in one list, and
``span_coords`` reads every product and pullback back into its
coordinates.  The cup product concatenates arguments: f ∪ g is
mult(f(x) ⊗ g(y)) at x ⊗ y, and power(m+n) is power(m) ⊗_B power(n)
through ``concat(m, n)``.  So ``cup`` reads it at power(m+n)'s own
coordinates only, each lifted to a pure tensor e_x ⊗ y by the tower's
``lift``: mult(f(e_x) ⊗ g(y)), with no plain product formed.  That is
well defined because degree-m cochains are right-linear and degree-n
ones left-linear over the tower's generators, checked once per complex
and degree; and r ∪ g = r·g, f ∪ r = f·r in degree 0.  ``cup`` forms
it on column-paired batches, f_i ∪ g_i for every column i, as the
reduced outer products f_i(e_x) ⊗ g_i(y) contracted with the structure
tensor in one ``mul_mod``, or one element against a batch, contracted
with the structure tensor once; every product is a ``mul_mod``, which
alone decides how to keep it exact.  ``cup`` is the complex's
``products``; it refuses an intermediate above
``linalg.RELATION_ENTRY_BUDGET`` before forming it.  The coboundary is the shared
``dga.coboundaries`` with iota, the identity 1-cochain, as unit and the
pullbacks f -> f∘mu_i along the slot multiplications
``tensors.mult_at`` as slot maps:

    delta f = iota ∪ f + sum_i (-1)^i f∘mu_i + (-1)^{n+1} f ∪ iota,

so delta^0 sends r to right-mult-by-r minus left-mult-by-r.

A complex built to max_degree N stores spaces for degrees 0..N and the
coboundaries delta^0..delta^{N-1}; cohomology is therefore certified
for degrees 0..N-1; ``grow_complex`` raises N, solving the new degrees.
"""

from __future__ import annotations

import numpy as np

from .algebras import Extension, centralizer
from .dga import DGA, coboundaries, paired
# this complex's cohomology and law check are the shared ones
from .dga import cohomology_dims, verify_dga as verify_hochschild_dga
from .linalg import RELATION_ENTRY_BUDGET, Matrix, check_entries, mul_mod
from .homspaces import build_hom
from .tensors import HARD_DEGREE_CAP  # the one cap, re-exported for callers
from .tensors import RelativeTensorPower, _intertwines, extension_tower, mult_at

DEFAULT_DEGREE = 3

# entries of the outer products of one slice of paired cochains, d² per
# pair and coordinate: a constant, so a wide batch costs slices, not a
# larger array
PAIR_SLICE = 2**21


class CochainComplex(DGA):
    """Cochain spaces C^0..C^N and coboundaries delta^0..delta^{N-1}."""

    __slots__ = ("extension", "tower", "powers", "homs", "_linear")
    symbol = "delta"
    title = "hochschild-dga"

    def __init__(self, extension, max_degree, homs, powers, delta):
        super().__init__(extension.p, max_degree, [h.dim for h in homs], delta)
        self.extension = extension
        self.homs = homs                # [Subspace]: C^n at n, the centralizer R at 0
        self.powers = powers            # {n: RelativeTensorPower}, n = 1..N
        self.tower = powers[1].tower    # the one tower all powers come from
        self._linear = set()            # (n, kind) checked by ``_check_balanced``

    def _matrices(self, n: int, xs: np.ndarray) -> np.ndarray:
        """The cochains in the columns of xs, stacked: k x dim A x dim power(n)."""
        rows = self.homs[n].rows
        d = self.extension.ambient.dim
        return mul_mod(xs.T, rows, self.p).reshape(xs.shape[1], d, rows.shape[1] // d)

    def _coords(self, n: int, flat: np.ndarray) -> np.ndarray:
        """Degree-n coordinates, as columns, of cochain matrices given as
        flattened rows."""
        return self.homs[n].coords(
            flat, f"a degree-{n} matrix does not satisfy the B-bimodule constraints").T

    def products(self, m: int, n: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return cup(self, m, n, xs, ys)


def cup(c: CochainComplex, m: int, n: int, xs, ys) -> np.ndarray:
    """The cup product of column-paired batches (see ``DGA.products``),
    read at the lifts of power(m+n)'s coordinates: at coordinate z,
    lifted to e_x ⊗ y with x = at[z] and y column z of ``lift``, f ∪ g
    is mult(f(e_x) ⊗ g(y)).  A degree-0 factor is the ground field, so
    there the pairs are trivial; otherwise they are the tower's ``lift``,
    after the check that the product is balanced over the tower's
    generators.  A one-element side is contracted with the structure
    tensor once."""
    xs, ys, k = paired(c, m, n, xs, ys)
    p, d = c.p, c.extension.ambient.dim
    size = c.homs[m + n].rows.shape[1] // d
    if m and n:
        _check_balanced(c, m, "right-linear")
        _check_balanced(c, n, "left-linear")
        at, lift = c.tower.lift(m, n)
    elif m:
        at, lift = np.arange(size), np.ones((1, size), dtype=np.int64)
    else:
        at, lift = np.zeros(size, dtype=np.intp), np.eye(size, dtype=np.int64)
    f, g = c._matrices(m, xs), c._matrices(n, ys)
    single = 1 in (xs.shape[1], ys.shape[1])     # one element against a batch
    # the largest arrays: a batch, d entries per cochain and coordinate,
    # and d² entries for the one element's products with t or each pair's
    # outer products in a slice
    width = max(size, f.shape[2])
    step = max(1, PAIR_SLICE // (d * d * width))
    slab = (1 if single else min(k, step)) * d * d * width
    check_entries(max(slab, k * d * width), RELATION_ENTRY_BUDGET,
                  f"the cup product of degrees {m} and {n} needs an array")
    g = mul_mod(g, lift, p)
    t = c.extension.ambient.tensor     # e_a·e_b = Σ_r t[a, b, r] e_r
    if single:
        # one element, contracted with t at each lift z, then applied to
        # the whole other batch: [z, r, ·] against [z, ·, i]
        if xs.shape[1] == 1:
            one = mul_mod(f[0].T, t.reshape(d, d * d), p).reshape(-1, d, d)[at]
            other = g
        else:
            one = mul_mod(g[0].T, t.transpose(1, 0, 2).reshape(d, d * d), p).reshape(-1, d, d)
            other = f[:, :, at]
        out = mul_mod(one.transpose(0, 2, 1), other.transpose(2, 1, 0), p).transpose(2, 1, 0)
    else:
        out = np.concatenate([_each_pair(f[lo:lo + step], g[lo:lo + step], t, at, p)
                              for lo in range(0, max(k, 1), step)])
    return c._coords(m + n, out.reshape(k, d * size))


def _each_pair(f: np.ndarray, g: np.ndarray, t: np.ndarray, at: np.ndarray,
               p: int) -> np.ndarray:
    """out[i, r, z] = Σ_{a,b} t[a, b, r]·f[i, a, at[z]]·g[i, b, z] mod p.

    The outer products f_i(e_x) ⊗ g_i(y), one per pair i and lift z, are
    formed reduced in [i, z, a, b] order and contracted with t in one
    ``mul_mod`` of inner dimension d², which keeps it exact at every p.
    """
    k, d, z = g.shape
    outer = f[:, :, at].transpose(0, 2, 1)[..., None] * g.transpose(0, 2, 1)[..., None, :]
    outer %= p
    out = mul_mod(outer.reshape(k * z, d * d), t.reshape(d * d, d), p)
    return out.reshape(k, z, d).transpose(0, 2, 1)


def _check_balanced(c: CochainComplex, n: int, kind: str) -> None:
    """Raise NotWellDefinedError unless every degree-n cochain is
    ``kind`` (right- or left-linear) over the tower's generators, as a
    left or a right factor of a cup must be for mult(f(x) ⊗ g(y)) to
    kill the balancing relations (x·b) ⊗ y − x ⊗ (b·y); checked once per
    complex, degree and kind."""
    if (n, kind) in c._linear:
        return
    t, d = c.tower, c.extension.ambient.dim
    maps = c.homs[n].rows.reshape(-1, d, t.power(n).dim).transpose(1, 0, 2)
    if kind == "right-linear":      # f(x·b) = f(x)·b
        ins, outs = t.right_on(n), t.right_mats
    else:                           # g(b·y) = b·g(y)
        ins, outs = t.left_on(n), t.left_mats
    _intertwines(c.p, maps, [ins[j].a for j in t.gens], [outs[j].a for j in t.gens],
                 t.gens, kind)
    c._linear.add((n, kind))


def _pullbacks(c: CochainComplex, n: int) -> list[Matrix]:
    """f -> f∘mu_i from degree n to n+1, for the slots i = 1..n."""
    rows, k, d = c.homs[n].rows, c.dim(n), c.extension.ambient.dim
    flat = rows.reshape(k * d, rows.shape[1] // d)    # the cochains' matrices, stacked
    maps = []
    for i in range(1, n + 1):
        pulled = mul_mod(flat, mult_at(c.powers[n + 1], c.powers[n], i).a, c.p)
        maps.append(Matrix._wrap(c.p, c._coords(n + 1, pulled.reshape(k, d * pulled.shape[1]))))
    return maps


def build_complex(e: Extension, max_degree: int = DEFAULT_DEGREE) -> CochainComplex:
    c = CochainComplex(e, 0, [centralizer(e)], {1: RelativeTensorPower(e, extension_tower(e), 1)}, [])
    return grow_complex(c, max_degree)


def grow_complex(c: CochainComplex, max_degree: int) -> CochainComplex:
    """``c`` grown in place to ``max_degree`` when that is above its own,
    keeping its tower, spaces and coboundaries: only new degrees are solved."""
    if not (1 <= max_degree <= HARD_DEGREE_CAP):
        raise ValueError(f"max_degree must be between 1 and {HARD_DEGREE_CAP}")
    e, top = c.extension, c.max_degree
    if max_degree <= top:
        return c
    # top power first: it is the largest, so an oversized request fails
    # its size check before any hom space is solved
    c.tower.power(max_degree)
    for n in range(top + 1, max_degree + 1):
        c.powers[n] = RelativeTensorPower(e, c.tower, n)
        c.homs.append(build_hom(e, c.powers[n]))
    c.max_degree, c._dims = max_degree, [h.dim for h in c.homs]
    iota = c.homs[1].coords_of(Matrix.identity(e.p, e.ambient.dim))
    c.d += coboundaries(c, iota, lambda n: _pullbacks(c, n), start=top)
    return c
