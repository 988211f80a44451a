"""Iterated tensor powers over a subring, as explicit quotient spaces.

A product V ⊗_R W of two spaces the base R acts on (from the right on V,
from the left on W) is the plain product GF(p)^(dim V * dim W), index
v * dim W + w, modulo the balancing relations (v·b) ⊗ w − v ⊗ (b·w).
``balanced_pair`` builds that quotient in one row reduction; the coring
powers C ⊗_R ... ⊗_R C are grown from it one factor at a time, as
power(n-1) ⊗_R C (see ``corings``).

A ⊗_B ... ⊗_B A is built by ``balanced_power`` instead, as the plain
power GF(p)^(dim^n) modulo the span of every one-slot balancing
relation.  That span is assembled slot by slot.  The slot-1 block
kron(L2, I) of a reduced pairwise span L2 is itself already a reduced
echelon basis with predictable pivots, so it seeds the accumulator
without any elimination; only the later slots pay for row reduction.

Both builders estimate the entries of their largest dense relation
matrix before allocating it and raise SizeLimitError above
``RELATION_ENTRY_BUDGET``.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeLimitError
from .algebras import Extension
from .linalg import (
    Matrix,
    QuotientSpace,
    RrefAccumulator,
    Subspace,
    induced_map,
    quotient_of,
    rref_rows,
    trivial_quotient,
)

DEFAULT_MAX_POWER = 4

# Entries of the largest dense relation matrix a build may hold: 0.8 GB
# as int64.  A ⊗_B A ⊗_B A of the 19-dim incidence algebra of the filled
# triangle (ambient 19**3, about 4.7e7 entries) is the largest build in
# use; its fourth power (about 1.7e10) is refused.
RELATION_ENTRY_BUDGET = 10**8


def relation_entries(pair_ambient: int, n_base: int, ambient: int) -> int:
    """Entries of the largest dense relation matrix of a power build.

    The pairwise generators are ``n_base`` blocks of ``pair_ambient``
    rows, each ``pair_ambient`` wide; the reduced relation span in the
    full ambient has at most ``ambient`` rows of ``ambient`` entries.
    """
    return max(n_base * pair_ambient * pair_ambient, ambient * ambient)


def _check_relation_budget(pair_ambient: int, n_base: int, ambient: int) -> None:
    """Raise SizeLimitError before a relation build above the budget."""
    entries = relation_entries(pair_ambient, n_base, ambient)
    if entries > RELATION_ENTRY_BUDGET:
        raise SizeLimitError(
            f"a tensor power with ambient dimension {ambient} needs a dense "
            f"relation matrix of about {entries:.2e} entries, over the budget "
            f"of {RELATION_ENTRY_BUDGET:.0e}")


def pair_relation_rows(p: int, dim_left: int, dim_right: int, rights, lefts) -> np.ndarray:
    """Generators (as rows) of the balancing span inside V ⊗ W.

    ``rights[b]`` is the matrix of v -> v·b on V and ``lefts[b]`` the
    matrix of w -> b·w on W, for each base basis element b.  The span is
    generated by the columns of kron(rights[b], I) − kron(I, lefts[b]).
    """
    eye_l = np.eye(dim_left, dtype=np.int64)
    eye_r = np.eye(dim_right, dtype=np.int64)
    blocks = []
    for rb, lb in zip(rights, lefts):
        rb = np.asarray(rb, dtype=np.int64) % p
        lb = np.asarray(lb, dtype=np.int64) % p
        m = (np.kron(rb, eye_r) - np.kron(eye_l, lb)) % p
        if m.any():
            blocks.append(m.T)
    if not blocks:
        return np.zeros((0, dim_left * dim_right), dtype=np.int64)
    return np.vstack(blocks)


def balanced_pair(p: int, dim_left: int, dim_right: int, rights, lefts) -> QuotientSpace:
    """V ⊗_R W as a quotient of the plain product, index v * dim_right + w.

    ``rights[b]`` is the matrix of v -> v·b on V and ``lefts[b]`` that of
    w -> b·w on W, for each b in a set that generates the base as an
    algebra (a basis does).
    """
    ambient = dim_left * dim_right
    _check_relation_budget(ambient, len(rights), ambient)
    rows, piv = rref_rows(pair_relation_rows(p, dim_left, dim_right, rights, lefts), p)
    return quotient_of(ambient, Subspace(p, ambient, rows, piv))


def balanced_power(p: int, dim: int, rights, lefts, n: int) -> QuotientSpace:
    """The n-fold power of a carrier over its base actions, as a quotient
    of the dense ambient GF(p)^(dim^n).

    rights/lefts are the per-base-basis action matrices on the carrier
    (dim x dim).  n = 1 gives the carrier itself with no relations.
    """
    ambient = dim**n
    if n == 1:
        return trivial_quotient(p, ambient)
    _check_relation_budget(dim * dim, len(rights), ambient)
    l2 = pair_relation_rows(p, dim, dim, rights, lefts)
    l2_rows, l2_piv = rref_rows(l2, p)
    r2 = l2_rows.shape[0]
    if r2 == 0:
        return trivial_quotient(p, ambient)
    acc = RrefAccumulator(ambient, p)
    post = dim ** (n - 2)
    if post == 1:
        acc.seed(l2_rows, l2_piv)
    else:
        seed = np.kron(l2_rows, np.eye(post, dtype=np.int64))
        seed_piv = [pv * post + t for pv in l2_piv for t in range(post)]
        acc.seed(seed, seed_piv)
    for slot in range(2, n):
        pre = dim ** (slot - 1)
        post_i = dim ** (n - slot - 1)
        w = l2_rows if post_i == 1 else np.kron(l2_rows, np.eye(post_i, dtype=np.int64))
        width = dim * dim * post_i
        for a in range(pre):
            block = np.zeros((w.shape[0], ambient), dtype=np.int64)
            block[:, a * width : (a + 1) * width] = w
            acc.add(block)
    rel_rows, rel_piv = acc.result()
    relations = Subspace(p, ambient, rel_rows, rel_piv)
    return quotient_of(ambient, relations)


class RelativeTensorPower:
    """A ⊗_B ... ⊗_B A (n factors) over an extension."""

    __slots__ = ("extension", "n", "space")

    def __init__(self, extension: Extension, n: int, space: QuotientSpace):
        self.extension = extension
        self.n = n
        self.space = space

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def ambient_dim(self) -> int:
        return self.space.ambient_dim

    def __repr__(self):
        return f"RelativeTensorPower(n={self.n}, dim={self.dim})"


def build_power(e: Extension, n: int, max_n: int = DEFAULT_MAX_POWER) -> RelativeTensorPower:
    """The n-fold relative tensor power of the extension."""
    if n < 1:
        raise ValueError("tensor powers start at n = 1")
    if n > max_n:
        raise SizeLimitError(f"power {n} exceeds the configured maximum {max_n}")
    a = e.ambient
    rights = [a.right_mul(b).a for b in e.sub_images()]
    lefts = [a.left_mul(b).a for b in e.sub_images()]
    return RelativeTensorPower(e, n, balanced_power(a.p, a.dim, rights, lefts, n))


def embed_pure(t: RelativeTensorPower, factors) -> np.ndarray:
    """Quotient coordinates of f1 ⊗ f2 ⊗ ... ⊗ fn."""
    if len(factors) != t.n:
        raise ValueError(f"expected {t.n} factors, got {len(factors)}")
    p = t.space.p
    vec = np.asarray(factors[0], dtype=np.int64) % p
    for f in factors[1:]:
        vec = np.kron(vec, np.asarray(f, dtype=np.int64) % p) % p
    return t.space.project(vec)


def mult_at_ambient(e: Extension, n_src: int, i: int) -> np.ndarray:
    """Ambient matrix multiplying slots i, i+1 of an n_src-fold plain power."""
    a = e.ambient
    d = a.dim
    m = a.mult.a
    pre = d ** (i - 1)
    post = d ** (n_src - i - 1)
    out = m
    if pre > 1:
        out = np.kron(np.eye(pre, dtype=np.int64), out)
    if post > 1:
        out = np.kron(out, np.eye(post, dtype=np.int64))
    return out


def mult_at(t_src: RelativeTensorPower, t_dst: RelativeTensorPower, i: int) -> Matrix:
    """The map multiplying slots i, i+1: power n+1 -> power n.

    Descends through both quotients with the well-definedness check; the
    check can only fail on inconsistent inputs (the multiplication is
    B-balanced in every slot).
    """
    if t_src.extension is not t_dst.extension and t_src.extension.ambient is not t_dst.extension.ambient:
        raise ValueError("powers built over different extensions")
    if t_src.n != t_dst.n + 1:
        raise ValueError("mult_at needs source power n+1 and destination power n")
    if not (1 <= i <= t_dst.n):
        raise ValueError(f"slot {i} out of range 1..{t_dst.n}")
    amb = mult_at_ambient(t_src.extension, t_src.n, i)
    return induced_map(t_src.space, t_dst.space, Matrix(t_src.space.p, amb))
