"""Tensor powers over a subring, grown one factor at a time.

V ⊗_R W is the plain product GF(p)^(dim V * dim W), index v * dim W + w,
modulo the balancing relations (v·b) ⊗ w − v ⊗ (b·w).  ``balanced_pair``
builds it: the relations are the columns of kron(r, I) − kron(I, l), so
the projection, which kills them, is ``linalg.commutant`` of the
transposed actions, and the section lifts to its unit representatives.
``TensorTower`` grows the powers of a carrier C from it, power(n) =
power(n-1) ⊗_R C, balanced over algebra generators of the base that the
tower picks once, so no power is built in the dense dim**n ambient.
Each power is a (projection, section) pair on its plain product, and
every structure map on power(n), a map on power(n-1) tensored with the
identity of the last factor or one on the last factor alone, descends
through ``linalg.descend``; so can maps out of power(m) ⊗ power(n), with
``concat_section`` as concat(m, n)'s section.
A coring's S ⊗_R ... ⊗_R S and an extension's A ⊗_B ... ⊗_B A
(``build_power``, B acting by multiplication) are both towers.
``balanced_power`` is the dense reference the tests check them against.
Every build estimates its largest dense matrix first and raises
SizeLimitError above ``RELATION_ENTRY_BUDGET``; the bimodule-hom solves
of ``homspaces`` are held to the same budget.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeLimitError
from .algebras import Extension, FinDimAlgebra, generating_indices
from .linalg import (
    Matrix,
    QuotientSpace,
    commutant,
    descend,
    kernel_rows_with_free,
    mul_mod,
    trivial_quotient,
)

DEFAULT_MAX_POWER = 4

# Entries of the largest dense matrix a build may hold: 0.8 GB as int64.
# The largest tower step in use is the fourth power of the filled
# triangle's 19-dim incidence algebra over its 6 generating vertex
# idempotents (ambient 61 * 19, about 8.1e6 entries, gs-compare
# --max-degree 3); the fourth power of an 11-dim algebra over the ground
# field (ambient 11**4, about 2.1e8) is refused.
RELATION_ENTRY_BUDGET = 10**8


def relation_entries(n_blocks: int, ambient: int) -> int:
    """Entries of the largest dense matrix of a power build.

    The generators are ``n_blocks`` blocks of ``ambient`` rows, each
    ``ambient`` wide; with no generators the projection and section of
    the quotient, at most ``ambient`` square, are the largest.
    """
    return max(n_blocks, 1) * ambient * ambient


def check_entry_budget(n_blocks: int, ambient: int, what: str) -> None:
    """Raise SizeLimitError before a build whose largest dense matrix,
    ``relation_entries(n_blocks, ambient)`` entries, is above the budget;
    ``what`` names the build and its matrix."""
    entries = relation_entries(n_blocks, ambient)
    if entries > RELATION_ENTRY_BUDGET:
        raise SizeLimitError(
            f"{what} of about {entries:.2e} entries, over the budget "
            f"of {RELATION_ENTRY_BUDGET:.0e}")


def _check_relation_budget(n_blocks: int, ambient: int) -> None:
    """Raise SizeLimitError before a relation build above the budget."""
    check_entry_budget(n_blocks, ambient,
                       f"a tensor power with ambient dimension {ambient} needs a dense relation matrix")


def pair_relation_rows(p: int, dim_left: int, dim_right: int, rights, lefts) -> np.ndarray:
    """Generators (as rows) of the balancing span inside V ⊗ W, the
    input of the dense reference ``balanced_power``.

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
    algebra (a basis does).  The relations are the columns of the blocks
    kron(r, I) − kron(I, l), so the projection is the commutant of the
    transposes (rᵀ, lᵀ).
    """
    _check_relation_budget(len(rights), dim_left * dim_right)
    pairs = [(np.asarray(r).T, np.asarray(l).T) for r, l in zip(rights, lefts)]
    return QuotientSpace.from_kernel(p, *commutant(p, dim_left, dim_right, pairs))


def balanced_power(p: int, dim: int, rights, lefts, n: int) -> QuotientSpace:
    """The n-fold power of a carrier as a quotient of the dense ambient
    GF(p)^(dim^n) by every slot's pair relations, reduced at once: the
    reference for the towers.  rights/lefts are the per-base-basis action
    matrices on the carrier; n = 1 gives the carrier itself."""
    ambient = dim**n
    _check_relation_budget((n - 1) * len(rights), ambient)
    core = pair_relation_rows(p, dim, dim, rights, lefts)
    gens = [np.kron(np.kron(np.eye(dim ** (slot - 1), dtype=np.int64), core),
                    np.eye(dim ** (n - slot - 1), dtype=np.int64))
            for slot in range(1, n)]
    rows = np.vstack([np.zeros((0, ambient), dtype=np.int64)] + gens)
    return QuotientSpace.from_kernel(p, *kernel_rows_with_free(rows, p))


def _side_by_side(mats) -> np.ndarray:
    """The matrix on the plain product whose column x * len(mats) + j is
    column x of mats[j]: the j-th basis element of a factor acting on x."""
    stack = np.stack([m.a for m in mats])
    return stack.transpose(1, 2, 0).reshape(stack.shape[1], -1)


class TensorTower:
    """The powers of a carrier over a base that acts on it from both
    sides, and the maps between them, all cached.

    ``left_mats[j]`` / ``right_mats[j]`` are the carrier matrices of the
    j-th base basis element acting on the left / right.  ``gens`` are
    the basis indices of algebra generators of the base: they balance
    every power and constrain every hom space on it as much as the whole
    basis does (the relation of a product a·b is the sum of
    ((x·a)·b) ⊗ v − (x·a) ⊗ (b·v) and (x·a) ⊗ (b·v) − x ⊗ (a·(b·v))).
    """

    __slots__ = ("base", "gens", "carrier_dim", "left_mats", "right_mats", "_powers",
                 "_rights", "_concats", "_sections")

    def __init__(self, base: FinDimAlgebra, carrier_dim: int, left_mats, right_mats,
                 powers=None):
        self.base = base
        self.gens = generating_indices(base)
        self.carrier_dim = int(carrier_dim)
        self.left_mats = list(left_mats)
        self.right_mats = list(right_mats)
        self._powers = dict(powers) if powers else {}
        self._rights = {}
        self._concats = {}
        self._sections = {}

    @property
    def p(self) -> int:
        return self.base.p

    def power(self, n: int) -> QuotientSpace:
        """The carrier's n-fold tensor power over the base.

        power(n) is power(n-1) ⊗_R carrier: a quotient of the plain
        product whose index is x * carrier_dim + v, for x a power(n-1)
        coordinate and v a carrier coordinate.
        """
        if n < 1:
            raise ValueError("tensor powers start at n = 1")
        q = self._powers.get(n)
        if q is None:
            if n == 1:
                q = trivial_quotient(self.p, self.carrier_dim)
            else:
                rights = self.right_on(n - 1)
                q = balanced_pair(self.p, self.power(n - 1).dim, self.carrier_dim,
                                  [rights[j].a for j in self.gens],
                                  [self.left_mats[j].a for j in self.gens])
            self._powers[n] = q
        return q

    def on_last(self, n: int, mats) -> list[Matrix]:
        """x ⊗ v -> x ⊗ m(v) on power(n), for each carrier matrix m: the
        map id ⊗ m, descended; m must commute with the base's left action."""
        if n == 1:
            return list(mats)
        # projection @ kron(I, m), without forming the kron
        q = self.power(n)
        proj = q.projection.a.reshape(-1, self.carrier_dim)
        return [Matrix(self.p, descend(q, mul_mod(proj, m.a, self.p).reshape(q.dim, -1)))
                for m in mats]

    def right_on(self, n: int) -> list[Matrix]:
        """x -> x·b on power(n), one matrix per base basis element."""
        mats = self._rights.get(n)
        if mats is None:
            mats = self._rights[n] = self.on_last(n, self.right_mats)
        return mats

    def concat(self, m: int, n: int) -> Matrix:
        """The product x ⊗ y of power(m) and power(n) in power(m+n).

        A matrix on the plain product, index x * dim(n) + y.  Degree 0 is
        the base: it acts through the left or right action, and two
        degree-0 factors multiply in the base.
        """
        key = (m, n)
        prod = self._concats.get(key)
        if prod is None:
            p = self.p
            if n == 0 and m == 0:
                prod = self.base.mult
            elif n == 0:
                prod = Matrix(p, _side_by_side(self.right_on(m)))
            elif n == 1 and m == 0:
                prod = Matrix(p, np.hstack([mat.a for mat in self.left_mats]))
            elif n == 1:
                # power(m+1) is a quotient of exactly this plain product
                prod = self.power(m + 1).projection
            else:
                lead = self.base.dim if m == 0 else self.power(m).dim
                prod = self.then_identity(self.concat(m, n - 1), n, m + n, lead)
            self._concats[key] = prod
        return prod

    def concat_section(self, m: int, n: int) -> Matrix:
        """A section of concat(m, n) for m, n >= 1, built from the powers'
        own pairs: power(m+n)'s section lifts z to w ⊗ v with w in
        power(m+n-1), the section one power down lifts w to the plain
        product of power(m) and power(n-1), and power(n)'s projection
        joins that power(n-1) part with v."""
        key = (m, n)
        sec = self._sections.get(key)
        if sec is None:
            q = self.power(m + n)
            if n == 1:
                sec = q.section
            else:
                p, c = self.p, self.carrier_dim
                d_m, d_prev = self.power(m).dim, self.power(n - 1).dim
                # rows (x, y), columns (v, z): x ⊗ y ⊗ v lifts z
                lifted = mul_mod(self.concat_section(m, n - 1).a,
                                 q.section.a.reshape(-1, c * q.dim), p)
                lifted = lifted.reshape(d_m, d_prev * c, q.dim).transpose(1, 0, 2)
                joined = mul_mod(self.power(n).projection.a, lifted.reshape(d_prev * c, -1), p)
                joined = joined.reshape(-1, d_m, q.dim).transpose(1, 0, 2)
                sec = Matrix(p, joined.reshape(-1, q.dim))
            self._sections[key] = sec
        return sec

    def then_identity(self, phi: Matrix, n: int, k: int, lead: int = 1) -> Matrix:
        """phi ⊗ id_carrier, descended to ``lead`` ⊗ power(n) -> power(k).

        phi maps the plain product of ``lead`` coordinates with power(n-1)
        into power(k-1).  Each of the ``lead`` slices must kill the
        relations of power(n); one ``descend`` checks them all.
        """
        p, c = self.p, self.carrier_dim
        src, dst = self.power(n), self.power(k)
        d_in, d_out = self.power(n - 1).dim, self.power(k - 1).dim
        # dst.projection @ kron(phi slice x, I_c), for every x at once
        proj = dst.projection.a.reshape(dst.dim, d_out, c).transpose(0, 2, 1)
        b = mul_mod(proj.reshape(-1, d_out), phi.a, p)
        b = b.reshape(dst.dim, c, lead, d_in).transpose(2, 0, 3, 1)
        out = descend(src, b.reshape(lead * dst.dim, d_in * c))
        out = out.reshape(lead, dst.dim, src.dim).transpose(1, 0, 2)
        return Matrix(p, out.reshape(dst.dim, lead * src.dim))


def extension_tower(e: Extension) -> TensorTower:
    """The tower of A over B, with B acting by multiplication in A."""
    a = e.ambient
    subs = e.sub_images()
    return TensorTower(e.sub, a.dim, [a.left_mul(b) for b in subs],
                       [a.right_mul(b) for b in subs])


class RelativeTensorPower:
    """A ⊗_B ... ⊗_B A (n factors): power n of an extension's tower."""

    __slots__ = ("extension", "tower", "n")

    def __init__(self, extension: Extension, tower: TensorTower, n: int):
        self.extension = extension
        self.tower = tower
        self.n = n

    @property
    def space(self) -> QuotientSpace:
        return self.tower.power(self.n)

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
    t = RelativeTensorPower(e, extension_tower(e), n)
    t.tower.power(n)
    return t


def _mult(tower: TensorTower, a: FinDimAlgebra, n: int, i: int) -> Matrix:
    """Slots i, i+1 multiplied, power(n+1) -> power(n) of an extension tower."""
    if i < n:
        return tower.then_identity(_mult(tower, a, n - 1, i), n + 1, n)
    # the last slot: y ⊗ x -> y·x, A acting on the last factor of power(n)
    acts = tower.on_last(n, [a.right_mul(x) for x in np.eye(a.dim, dtype=np.int64)])
    return Matrix(a.p, descend(tower.power(n + 1), _side_by_side(acts)))


def mult_at(t_src: RelativeTensorPower, t_dst: RelativeTensorPower, i: int) -> Matrix:
    """The map multiplying slots i, i+1: power n+1 -> power n.

    On power(n+1) = power(n) ⊗ A the last slot is A acting on the last
    factor of power(n), and an earlier slot is the map one power down
    tensored with the identity of A.  Each descends through the
    well-definedness check, which can only fail on inconsistent inputs
    (the multiplication is B-balanced in every slot).
    """
    if t_src.extension is not t_dst.extension and t_src.extension.ambient is not t_dst.extension.ambient:
        raise ValueError("powers built over different extensions")
    if t_src.n != t_dst.n + 1:
        raise ValueError("mult_at needs source power n+1 and destination power n")
    if not (1 <= i <= t_dst.n):
        raise ValueError(f"slot {i} out of range 1..{t_dst.n}")
    return _mult(t_src.tower, t_src.extension.ambient, t_dst.n, i)
