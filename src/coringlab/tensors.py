"""Tensor powers over a subring, grown one factor at a time.

V ⊗_R W is the plain product GF(p)^(dim V * dim W), index v * dim W + w,
modulo the balancing relations (v·b) ⊗ w − v ⊗ (b·w).  ``balanced_pair``
builds it: the relations are the columns of kron(r, I) − kron(I, l), so
the projection, which kills them, is ``linalg.commutant`` of the
transposed actions, and the section lifts to its unit representatives.
``TensorTower`` grows the powers of a carrier C from it, power(n) =
power(n-1) ⊗_R C, balanced over algebra generators of the base that the
tower picks once, so no power is built in the dense dim**n ambient.
When the carrier is free as a left base module, on w_1..w_m, a step
needs no relations at all: power(n) is power(n-1)^m, x ⊗ v -> (x·φ_j(v))_j
for the coordinate maps φ_j of ``dual_basis``, with index j * dim
power(n-1) + y.  ``free_pair`` builds that projection and the section
e_y ⊗ w_j, and checks that the projection kills exactly the relations;
such a dual step keeps these coordinates, which are not ``commutant``'s
canonical ones.  Carriers on which every generator acts diagonally keep
``commutant``'s coordinate selection, and the rest its reduction.
Each power is a (projection, section) pair on its plain product, and
every structure map on power(n) is a map on power(n-1) tensored with the
identity of the last factor (``then_identity``) or one on the last
factor alone (``on_last``).  The first is well defined when it is
right-linear over the generators, the second when it is left-linear
over them, since the generators' relations span power(n)'s; each map
checks that certificate with one product a side.  Between dual steps
the map is then a block matrix: phi ⊗ id is phi on each of the m
blocks, and id ⊗ m mixes the blocks through power(n-1)'s right actions.
Otherwise only the columns of power(n)'s free coordinates are computed,
a gather of the projection.  A map that fails its certificate is formed
on the whole plain product and checked by ``linalg.descend``, which
names the first coordinate it fails on.  Maps out of power(m) ⊗ power(n)
descend with ``concat_section`` as concat(m, n)'s section, and
``concat_batches`` multiplies batches of pairs blockwise, without
forming concat(m, n) where the steps are dual.
A coring's S ⊗_R ... ⊗_R S and an extension's A ⊗_B ... ⊗_B A
(``build_power``, B acting by multiplication) are both towers.
``balanced_power`` is the dense reference the tests check them against.
Every build estimates its largest dense matrix first and raises
SizeLimitError above ``RELATION_ENTRY_BUDGET``; the bimodule-hom solves
of ``homspaces`` are held to the same budget.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SizeLimitError
from .algebras import Extension, FinDimAlgebra, generating_indices
from .linalg import (
    Matrix,
    QuotientSpace,
    commutant,
    descend,
    diagonal_kept,
    inverse,
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

# Draws of a candidate dual basis.  Over GF(2), 4 random vectors of the
# M2 carrier (16 = 4 * 4) are a basis about 29% of the time, so 32 draws
# all miss with odds under 2e-5.
DUAL_BASIS_DRAWS = 32

_UNSEARCHED = object()


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


class DualBasis(NamedTuple):
    """A basis w_1..w_m of a carrier as a free left base module, and its
    coordinate maps: ``w`` is c x m with column j the vector w_j, and
    ``phi`` the (m, dim R, c) array Φ with v = Σ_j φ_j(v)·w_j for
    φ_j(v) = Σ_b Φ[j, b, v] e_b."""

    w: np.ndarray
    phi: np.ndarray


def dual_basis(base: FinDimAlgebra, gens, left_mats) -> DualBasis | None:
    """A basis of the carrier as a free left module over the base, with
    its coordinate maps, or None when none is found or it fails its check.

    Say the carrier is c-dimensional and free on w_1..w_m, m = c / dim R:
    the c x (m * dim R) matrix M with column (j, b) the vector b·w_j is
    then invertible.  The w_j are drawn at random, with a fixed seed, at
    most ``DUAL_BASIS_DRAWS`` times; a greedy pass over basis vectors
    would miss the M2 carriers, which need combinations.  Φ is M⁻¹,
    reshaped.  The pair is returned only when each φ_j is left-linear
    over every generator, φ_j(g·v) = g·φ_j(v), and 1·w_j = w_j:
    ``free_pair`` needs both.
    """
    p, dim_r = base.p, base.dim
    c = left_mats[0].rows
    if not gens or c % dim_r:
        return None
    m = c // dim_r
    stack = np.stack([mat.a for mat in left_mats])
    rng = np.random.default_rng(0)  # a fixed seed: every run draws the same basis
    for _ in range(DUAL_BASIS_DRAWS):
        w = rng.integers(0, p, size=(c, m), dtype=np.int64)
        # column (j, b) of M is b·w_j
        big = mul_mod(stack, w, p).transpose(1, 2, 0).reshape(c, m * dim_r)
        try:
            phi = inverse(Matrix(p, big)).a.reshape(m, dim_r, c)
        except ValueError:  # singular: these w_j are not a basis
            continue
        break
    else:
        return None
    for g in gens:
        # φ(g·v) against g·φ(v), with g acting on R by left multiplication
        lhs = mul_mod(phi.reshape(-1, c), stack[g], p)
        rhs = mul_mod(base.left_mul(np.eye(dim_r, dtype=np.int64)[g]).a, phi, p)
        if not np.array_equal(lhs, rhs.reshape(-1, c)):
            return None
    unit = mul_mod(base.unit.reshape(1, -1), stack.reshape(dim_r, -1), p).reshape(c, c)
    if not np.array_equal(mul_mod(unit, w, p), w):
        return None
    return DualBasis(w, phi)


def free_pair(base: FinDimAlgebra, gens, rights, dual: DualBasis) -> QuotientSpace | None:
    """V ⊗_R C for a carrier C with the ``dual_basis`` w, Φ, or None when
    V's right action fails the step's check.

    ``rights[k]`` is V's matrix of x -> x·e_k, one per base basis element.
    The quotient is V^m, index j * dim V + y.  The projection is
    x ⊗ v -> (x·φ_j(v))_j, the sum over b of kron(R_b, Φ[:, b, :]), and
    the section sends coordinate (j, y) to e_y ⊗ w_j; projection @
    section is the identity because φ_i(w_j) = δ_ij·1 and x·1 = x.  The
    projection's kernel is exactly the generators' relations, the
    quotient ``balanced_pair`` gives in other coordinates, once
    (x·g)·k = x·(g·k) for every generator g and basis element k, and
    x·1 = x:
    - with φ_j left-linear over g, it kills (x·g) ⊗ v − x ⊗ g·v;
    - words in the generators, reached from 1, span R, so by induction
      x ⊗ r·w_j is x·r ⊗ w_j modulo the relations for every r, and
      every x ⊗ v is x·φ_j(v) ⊗ w_j summed over j: the projection's
      kernel is no larger than the relations.
    """
    p, dim_r = base.p, base.dim
    w, phi = dual
    m, _, c = phi.shape
    d = rights[0].rows
    stack = np.stack([mat.a for mat in rights]).reshape(dim_r, d * d)
    for g in gens:
        # R_k R_g = R_{g·k} for every k at once
        if not np.array_equal(mul_mod(stack.reshape(dim_r, d, d), rights[g].a, p),
                              mul_mod(base.tensor[g], stack, p).reshape(dim_r, d, d)):
            return None
    if not np.array_equal(mul_mod(base.unit.reshape(1, -1), stack, p).reshape(d, d),
                          np.eye(d, dtype=np.int64)):
        return None
    # rows (j, y), columns (x, v): Σ_b Φ[j, b, v] R_b[y, x]
    proj = mul_mod(phi.transpose(0, 2, 1).reshape(m * c, dim_r), stack, p)
    proj = proj.reshape(m, c, d, d).transpose(0, 2, 3, 1).reshape(m * d, d * c)
    # rows (x, v), columns (j, y): w_j[v] where x = y
    sect = np.zeros((d, c, m, d), dtype=np.int64)
    diag = np.arange(d)
    sect[diag, :, :, diag] = w
    return QuotientSpace(p, Matrix(p, proj), Matrix(p, sect.reshape(d * c, m * d)))


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
                 "_rights", "_concats", "_sections", "_blocks", "_dual", "_dual_steps",
                 "_left_linear")

    def __init__(self, base: FinDimAlgebra, carrier_dim: int, left_mats, right_mats):
        self.base = base
        self.gens = generating_indices(base)
        self.carrier_dim = int(carrier_dim)
        self.left_mats = list(left_mats)
        self.right_mats = list(right_mats)
        self._powers = {}
        self._rights = {}
        self._concats = {}
        self._sections = {}
        self._blocks = {}
        self._dual = _UNSEARCHED
        self._dual_steps = set()
        self._left_linear = {}

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def dual(self) -> DualBasis | None:
        """The carrier's ``dual_basis``, searched for once, on first use.

        There is no search when every generator acts diagonally on the
        carrier from both sides: ``commutant`` selects those steps'
        coordinates without elimination.
        """
        if self._dual is _UNSEARCHED:
            pairs = [(self.right_mats[j].a, self.left_mats[j].a) for j in self.gens]
            diagonal = diagonal_kept(self.p, self.carrier_dim, self.carrier_dim, pairs)
            self._dual = (None if diagonal is not None
                          else dual_basis(self.base, self.gens, self.left_mats))
        return self._dual

    def power(self, n: int) -> QuotientSpace:
        """The carrier's n-fold tensor power over the base.

        power(n) is power(n-1) ⊗_R carrier: a quotient of the plain
        product whose index is x * carrier_dim + v, for x a power(n-1)
        coordinate and v a carrier coordinate.  It is read off the
        carrier's dual basis when there is one and the step passes its
        check (``free_pair``), in the dual step's coordinates
        power(n-1)^m; otherwise it is the commutant of the generators'
        relations, in canonical coordinates with ``free`` columns.
        """
        if n < 1:
            raise ValueError("tensor powers start at n = 1")
        q = self._powers.get(n)
        if q is None:
            if n == 1:
                q = trivial_quotient(self.p, self.carrier_dim)
            else:
                rights = self.right_on(n - 1)
                dim = self.power(n - 1).dim
                # the budget refuses a step before it picks a path
                _check_relation_budget(len(self.gens), dim * self.carrier_dim)
                if self.dual is not None:
                    q = free_pair(self.base, self.gens, rights, self.dual)
                if q is None:
                    q = balanced_pair(self.p, dim, self.carrier_dim,
                                      [rights[j].a for j in self.gens],
                                      [self.left_mats[j].a for j in self.gens])
                else:
                    self._dual_steps.add(n)
            self._powers[n] = q
        return q

    def is_dual_step(self, n: int) -> bool:
        """Whether power(n) was read off the dual basis, so that it is
        power(n-1)^m with coordinate (j, y) the tensor e_y ⊗ w_j."""
        self.power(n)
        return n in self._dual_steps

    def on_last(self, n: int, mats) -> list[Matrix]:
        """x ⊗ v -> x ⊗ m(v) on power(n), for each carrier matrix m: the
        map id ⊗ m, descended; m must commute with the base's left action.

        When every m commutes with the generators' left actions,
        m·L_g = L_g·m, id ⊗ m sends each relation (x·g) ⊗ v − x ⊗ g·v to
        (x·g) ⊗ m(v) − x ⊗ g·m(v), another relation, and those span the
        relations of power(n); so it descends.  That certificate depends
        on the carrier matrices alone and is kept for the tower.  On a
        dual step, e_y ⊗ w_j goes to Σ_i e_y·φ_i(m(w_j)) ⊗ w_i, the block
        matrix Σ_b Ψ[i, j, b]·R_b with Ψ[i, j] = φ_i(m(w_j)) and R_b
        power(n-1)'s right actions; otherwise only the columns of
        power(n)'s free coordinates are computed.  A map that fails the
        certificate is formed on the whole plain product and ``descend``
        checks it.
        """
        if n == 1:
            return list(mats)
        p, c = self.p, self.carrier_dim
        stack = np.stack([m.a for m in mats])
        k = stack.shape[0]
        if not self._commutes_with_left(stack):
            return [Matrix(p, h) for h in _on_last_dense(self, n, stack)]
        q = self.power(n)
        d_prev = self.power(n - 1).dim
        if self.is_dual_step(n):
            w, phi = self.dual
            m, dim_r, _ = phi.shape
            # psi[t, (i, b), j]: coefficient b of φ_i(mats[t](w_j))
            psi = mul_mod(phi.reshape(m * dim_r, c), mul_mod(stack, w, p), p)
            psi = psi.reshape(k, m, dim_r, m).transpose(0, 1, 3, 2).reshape(k * m * m, dim_r)
            rights = np.stack([r.a for r in self.right_on(n - 1)])
            out = mul_mod(psi, rights.reshape(dim_r, d_prev * d_prev), p)
            out = out.reshape(k, m, m, d_prev, d_prev).transpose(0, 1, 3, 2, 4)
            return [Matrix(p, h) for h in out.reshape(k, q.dim, q.dim)]
        # row w of map j at [w, j]
        maps = stack.transpose(1, 0, 2)
        proj = q.projection.a.reshape(q.dim, d_prev, c)
        out = np.empty((k, q.dim, q.dim), dtype=np.int64)
        # free column t is the plain coordinate x_t ⊗ v_t: P[:, x_t, :] @ m(v_t),
        # one product per v (a stack of these thin products is slower)
        for v, ts, xs in zip(*self._free_by_last(n)):
            cols = mul_mod(proj[:, xs, :].reshape(q.dim * ts.size, c), maps[:, :, v], p)
            out[:, :, ts] = cols.reshape(q.dim, ts.size, k).transpose(2, 0, 1)
        return [Matrix(p, h) for h in out]

    def _commutes_with_left(self, stack: np.ndarray) -> bool:
        """Whether every carrier matrix in the stack commutes with the
        generators' left actions, checked once per stack and tower."""
        key = stack.tobytes()
        ok = self._left_linear.get(key)
        if ok is None:
            lefts = [self.left_mats[g].a for g in self.gens]
            ok = self._left_linear[key] = _intertwines(self.p, stack.transpose(1, 0, 2),
                                                       lefts, lefts)
        return ok

    def _free_by_last(self, n: int):
        """power(n)'s free coordinates x * c + v grouped by v, worked out
        once per power, as (vs, ts, xs): row i of ts holds the positions in
        ``free`` of the coordinates whose v is vs[i], and xs their x's.
        Rows shorter than the longest repeat their last position, so that
        the groups stack."""
        blocks = self._blocks.get(n)
        if blocks is None:
            xs, vs = np.divmod(self.power(n).free, self.carrier_dim)
            order = np.argsort(vs, kind="stable")
            groups, start, count = np.unique(vs[order], return_index=True, return_counts=True)
            width = np.arange(count.max(initial=0))
            ts = order[start[:, None] + np.minimum(width, count[:, None] - 1)]
            blocks = self._blocks[n] = (groups, ts, xs[ts])
        return blocks

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

    def concat_batches(self, m: int, n: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """concat(m, n) of column-paired batches: column i is the product
        of xs[:, i] in power(m) and ys[:, i] in power(n).

        Where power(n) and power(m+n) are dual steps, concat(m, n) is
        concat(m, n-1) on each of the m blocks, so the batch is applied
        blockwise to the first power below that is not, and
        concat(m, n) itself is never formed.  concat(m, n-1) is
        right-linear because every power's right action is id ⊗ R_b,
        which ``on_last`` certified, so the blocks need no check.
        """
        p, k = self.p, xs.shape[1]
        blocks = 1
        while n >= 2 and self.is_dual_step(n) and self.is_dual_step(m + n):
            blocks *= self.dual.w.shape[1]
            n -= 1
        ys = ys.reshape(blocks, -1, k)
        # column (J, i) is kron(xs[:, i], ys[J, :, i])
        pairs = (xs[:, None, None, :] * ys[None]).transpose(0, 2, 1, 3) % p
        out = mul_mod(self.concat(m, n).a, pairs.reshape(-1, blocks * k), p)
        return out.reshape(-1, blocks, k).transpose(1, 0, 2).reshape(-1, k)

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
                d_n, d_top = self.power(n).dim, self.power(m + n - 1).dim
                # rows (x, y), columns (v, z): x ⊗ y ⊗ v lifts z
                lifted = mul_mod(self.concat_section(m, n - 1).a,
                                 q.section.a.reshape(d_top, c * q.dim), p)
                lifted = lifted.reshape(d_m, d_prev * c, q.dim).transpose(1, 0, 2)
                joined = mul_mod(self.power(n).projection.a,
                                 lifted.reshape(d_prev * c, d_m * q.dim), p)
                joined = joined.reshape(d_n, d_m, q.dim).transpose(1, 0, 2)
                sec = Matrix(p, joined.reshape(d_m * d_n, q.dim))
            self._sections[key] = sec
        return sec

    def then_identity(self, phi: Matrix, n: int, k: int, lead: int = 1) -> Matrix:
        """phi ⊗ id_carrier, descended to ``lead`` ⊗ power(n) -> power(k).

        phi maps the plain product of ``lead`` coordinates with power(n-1)
        into power(k-1).  Each of the ``lead`` slices must kill the
        relations of power(n).  They do when every slice phi_x is
        right-linear over the generators, phi_x·R_g = R_g·phi_x with R_g
        the right actions on power(n-1) and power(k-1): phi_x ⊗ id then
        sends (y·g) ⊗ v − y ⊗ g·v to (phi_x(y)·g) ⊗ v − phi_x(y) ⊗ g·v,
        a relation of power(k), and those relations span power(n)'s.
        Then, between two dual steps, block j of the image is phi applied
        to block j, e_y ⊗ w_j -> phi(e_y) ⊗ w_j, placed by index with no
        product; otherwise only the columns of power(n)'s free coordinates
        are computed.  A phi that fails the check, or a dual power(n)
        with a power(k) that is not, is tensored on the whole plain
        product, and one ``descend`` checks every slice.
        """
        p, c = self.p, self.carrier_dim
        src, dst = self.power(n), self.power(k)
        d_in, d_out = self.power(n - 1).dim, self.power(k - 1).dim
        slices = phi.a.reshape(d_out, lead, d_in)
        if not _intertwines(p, slices, [self.right_on(n - 1)[j].a for j in self.gens],
                            [self.right_on(k - 1)[j].a for j in self.gens]):
            return _then_identity_dense(self, phi, n, k, lead)
        if self.is_dual_step(n) and self.is_dual_step(k):
            m = self.dual.w.shape[1]
            out = np.zeros((m, d_out, lead, m, d_in), dtype=np.int64)
            diag = np.arange(m)
            out[diag, :, :, diag, :] = slices
            return Matrix(p, out.reshape(dst.dim, lead * src.dim))
        if src.free is None:
            return _then_identity_dense(self, phi, n, k, lead)
        proj = dst.projection.a.reshape(dst.dim, d_out, c)
        # free column t is the plain coordinate y_t ⊗ v_t: P[:, :, v_t] @ phi_x(y_t),
        # one product per v in a stack
        vs, ts, ys = self._free_by_last(n)
        g, w = ts.shape
        cols = mul_mod(proj[:, :, vs].transpose(2, 0, 1),
                       slices[:, :, ys].transpose(2, 0, 1, 3).reshape(g, d_out, lead * w), p)
        out = np.empty((dst.dim, lead, src.dim), dtype=np.int64)
        out[:, :, ts] = cols.reshape(g, dst.dim, lead, w).transpose(1, 2, 0, 3)
        return Matrix(p, out.reshape(dst.dim, lead * src.dim))


def _intertwines(p: int, maps: np.ndarray, ins, outs) -> bool:
    """Whether m·A = B·m for every map m and every pair (A, B) of ``ins``
    and ``outs``, with one product a side.  ``maps`` is d_out x k x d_in,
    map j at [:, j, :]."""
    if not ins:
        return True
    d_out, k, d_in = maps.shape
    after = mul_mod(maps.reshape(d_out * k, d_in), np.hstack(ins), p)
    before = mul_mod(np.vstack(outs), maps.reshape(d_out, k * d_in), p)
    return np.array_equal(after.reshape(d_out, k, len(ins), d_in).transpose(2, 0, 1, 3),
                          before.reshape(len(outs), d_out, k, d_in))


def _on_last_dense(tower: TensorTower, n: int, stack: np.ndarray) -> np.ndarray:
    """``TensorTower.on_last`` for a stack of carrier matrices, formed on
    the whole plain product and descended: the path for maps that fail
    the left-linearity check."""
    p, c = tower.p, tower.carrier_dim
    q = tower.power(n)
    d_prev = tower.power(n - 1).dim
    # projection @ kron(I, m), without forming the kron
    proj = q.projection.a.reshape(q.dim * d_prev, c)
    return np.stack([descend(q, mul_mod(proj, m, p).reshape(q.dim, d_prev * c))
                     for m in stack])


def _then_identity_dense(tower: TensorTower, phi: Matrix, n: int, k: int, lead: int) -> Matrix:
    """``TensorTower.then_identity`` formed on the whole plain product and
    descended: the path for a phi that fails the right-linearity check."""
    p, c = tower.p, tower.carrier_dim
    src, dst = tower.power(n), tower.power(k)
    d_in, d_out = tower.power(n - 1).dim, tower.power(k - 1).dim
    # dst.projection @ kron(phi slice x, I_c), for every x at once
    proj = dst.projection.a.reshape(dst.dim, d_out, c).transpose(0, 2, 1)
    b = mul_mod(proj.reshape(dst.dim * c, d_out), phi.a, p)
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
