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
power(n-1) + y, and section e_y ⊗ w_j.  ``free_pair`` holds such a step
as the ``linalg.DualStep`` (w, Φ, R_b) that defines it, and its
projection, descents and lifts are read blockwise from those.  A tower
decides once (``TensorTower.dual``) whether every step is such a dual
step or none is; dual coordinates are not ``commutant``'s canonical
ones.  A tower whose generators act diagonally on the carrier keeps
their ``diagonals`` on every power, by index arithmetic, and reads each
power off them as a coordinate selection (``linalg.kept_rows``); the
rest take ``commutant``'s reduction.
Each power is a quotient of its plain product, and every structure map
on power(n) is a map on power(n-1) tensored with the identity of the
last factor (``then_identity``) or one on the last factor alone
(``on_last``).  The first is well defined when it is
right-linear over the generators, the second when it is left-linear
over them, since the generators' relations span power(n)'s; each map
checks that certificate with one product a side, or entry by entry
against the kept diagonals, and a map that fails it raises
NotWellDefinedError at the first entry where it fails.  On a
dual tower the map is then a block matrix: phi ⊗ id is phi on each of
the m blocks, and id ⊗ m mixes the blocks through power(n-1)'s right
actions.  On a selection, the image at x_s ⊗ v_s of x_t ⊗ v_t is
[x_s = x_t]·m[v_s, v_t] for id ⊗ m and [v_s = v_t]·phi[x_s, x_t] for
phi ⊗ id, gathered with no product; otherwise only the columns of
power(n)'s free coordinates are computed.  ``lift`` lifts each coordinate
of power(m+n) through concat(m, n) to a pure tensor e_x ⊗ y, certified
once, so a map out of power(m) ⊗ power(n) that kills the balancing
relations is read on power(m+n) at those pairs alone; and
``concat_batches`` multiplies batches of pairs blockwise, forming
neither concat(m, n) nor, for m, n >= 1, a Khatri-Rao product on a
dual tower.
A coring's S ⊗_R ... ⊗_R S and an extension's A ⊗_B ... ⊗_B A
(``build_power``, B acting by multiplication) are both towers.
``balanced_power`` is the dense reference the tests check them against.
Every build estimates its largest dense matrix first and raises
SizeLimitError above ``RELATION_ENTRY_BUDGET`` (``linalg``'s, bound
here); the bimodule-hom solves of ``homspaces`` are held to the same
budget.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NotWellDefinedError, SizeLimitError
from .algebras import Extension, FinDimAlgebra, generating_indices
from .dga import every_pair
# this module's budget checks read its own binding of the budget
from .linalg import (
    RELATION_ENTRY_BUDGET,
    DualStep,
    Matrix,
    QuotientSpace,
    check_entries,
    commutant,
    descend,
    inverse,
    kept_rows,
    kernel_rows_with_free,
    mul_mod,
    _diagonal_of,
    trivial_quotient,
)

# the top tensor power, and so the top cochain degree, that any build makes
HARD_DEGREE_CAP = 4

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
    check_entries(relation_entries(n_blocks, ambient), RELATION_ENTRY_BUDGET, what)


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
            phi = inverse(Matrix._wrap(p, big)).a.reshape(m, dim_r, c)
        except ValueError:  # singular: these w_j are not a basis
            continue
        break
    else:
        return None
    for g in gens:
        # φ(g·v) against g·φ(v), with g acting on R by left multiplication
        lhs = mul_mod(phi.reshape(-1, c), stack[g], p)
        rhs = mul_mod(base.tensor[g].T, phi, p)  # x -> e_g·x is t[g].T
        if not np.array_equal(lhs, rhs.reshape(-1, c)):
            return None
    unit = mul_mod(base.unit.reshape(1, -1), stack.reshape(dim_r, -1), p).reshape(c, c)
    if not np.array_equal(mul_mod(unit, w, p), w):
        return None
    return DualBasis(w, phi)


def _is_right_module(base: FinDimAlgebra, gens, rights) -> bool:
    """Whether ``rights[k]``, the matrices of x -> x·e_k, make a unital
    right module over the generators: R_k·R_g = R_{g·k} for every
    generator g and basis element k, and R_1 = I."""
    p, dim_r = base.p, base.dim
    d = rights[0].rows
    stack = np.stack([mat.a for mat in rights]).reshape(dim_r, d * d)
    for g in gens:
        # R_k R_g = R_{g·k} for every k at once
        if not np.array_equal(mul_mod(stack.reshape(dim_r, d, d), rights[g].a, p),
                              mul_mod(base.tensor[g], stack, p).reshape(dim_r, d, d)):
            return False
    return np.array_equal(mul_mod(base.unit.reshape(1, -1), stack, p).reshape(d, d),
                          np.eye(d, dtype=np.int64))


def free_pair(base: FinDimAlgebra, rights, dual: DualBasis) -> DualStep:
    """V ⊗_R C for a carrier C with the ``dual_basis`` w, Φ.

    ``rights[k]`` is V's matrix of x -> x·e_k, one per base basis element.
    The quotient is V^m, index j * dim V + y.  The projection is
    x ⊗ v -> (x·φ_j(v))_j, the sum over b of kron(R_b, Φ[:, b, :]), and
    the section sends coordinate (j, y) to e_y ⊗ w_j, both held as the
    ``linalg.DualStep`` (w, Φ, R) that defines them.  Projection @
    section is the identity because φ_i(w_j) = δ_ij·1 and x·1 = x.  The
    projection's kernel is exactly the generators' relations, the
    quotient ``balanced_pair`` gives in other coordinates, once
    (x·g)·k = x·(g·k) for every generator g and basis element k, and
    x·1 = x, which ``TensorTower.dual`` makes sure of for every power:
    - with φ_j left-linear over g, it kills (x·g) ⊗ v − x ⊗ g·v;
    - words in the generators, reached from 1, span R, so by induction
      x ⊗ r·w_j is x·r ⊗ w_j modulo the relations for every r, and
      every x ⊗ v is x·φ_j(v) ⊗ w_j summed over j: the projection's
      kernel is no larger than the relations.
    """
    return DualStep(base.p, dual.w, dual.phi, np.stack([mat.a for mat in rights]))


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
                 "_rights", "_concats", "_lifts", "_blocks", "_dual", "_left_linear",
                 "_diagonals")

    def __init__(self, base: FinDimAlgebra, carrier_dim: int, left_mats, right_mats):
        self.base = base
        self.gens = generating_indices(base)
        self.carrier_dim = int(carrier_dim)
        self.left_mats = list(left_mats)
        self.right_mats = list(right_mats)
        self._powers = {}
        self._rights = {}
        self._concats = {}
        self._lifts = {}
        self._blocks = {}
        self._dual = _UNSEARCHED
        self._left_linear = set()
        self._diagonals = _UNSEARCHED

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def dual(self) -> DualBasis | None:
        """The carrier's ``dual_basis``, searched for once, on first use:
        the tower's one choice of coordinates, dual at every step or at
        none.

        There is no search on a tower with ``diagonals``: those steps
        are selections of coordinates.  Nor is there one unless the
        carrier's right action is a unital module action over the
        generators, R_k·R_g = R_{g·k} and R_1 = I, which ``free_pair``
        needs of every power(n-1).  The carrier alone is checked: the
        right action on power(n) is ``on_last(n, right_mats)``, and
        ``on_last`` is linear and, on maps that pass its certificate,
        multiplicative, so both identities carry up to every power.
        """
        if self._dual is _UNSEARCHED:
            self._dual = (dual_basis(self.base, self.gens, self.left_mats)
                          if self.diagonals(1) is None
                          and _is_right_module(self.base, self.gens, self.right_mats)
                          else None)
        return self._dual

    def diagonals(self, n: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The diagonals of the generators' left and right actions on
        power(n), |gens| x dim power(n) each, or None unless they all act
        diagonally on the carrier from both sides: decided once, on the
        carrier, the one place a tower scans matrices.  Every power is
        then a selection, and b·(x ⊗ v)·b' = b·x ⊗ v·b': at x ⊗ v the left
        diagonal is power(n-1)'s at x, the right the carrier's at v."""
        if self._diagonals is _UNSEARCHED:
            found = [_diagonal_of(mats[j].a, self.p)
                     for mats in (self.left_mats, self.right_mats) for j in self.gens]
            self._diagonals = None if any(d is None for d in found) else {1: tuple(
                np.array(found, dtype=np.int64).reshape(2, len(self.gens), self.carrier_dim))}
        if self._diagonals is None:
            return None
        got = self._diagonals.get(n)
        if got is None:
            xs, vs = np.divmod(self.power(n).free, self.carrier_dim)
            got = self._diagonals[n] = (self.diagonals(n - 1)[0][:, xs], self._diagonals[1][1][:, vs])
        return got

    def power(self, n: int) -> QuotientSpace:
        """The carrier's n-fold tensor power over the base.

        power(n) is power(n-1) ⊗_R carrier: a quotient of the plain
        product whose index is x * carrier_dim + v, for x a power(n-1)
        coordinate and v a carrier coordinate.  On a tower with a
        ``dual`` basis it is read off that basis (``free_pair``), in the
        coordinates power(n-1)^m; otherwise it is the commutant of the
        generators' relations, in canonical coordinates with ``free``
        columns; on a tower with ``diagonals``, the selection (``kept_rows``)
        of the x ⊗ v where power(n-1)'s right and the carrier's left agree.
        """
        if n < 1:
            raise ValueError("tensor powers start at n = 1")
        q = self._powers.get(n)
        if q is None:
            if n == 1:
                q = trivial_quotient(self.p, self.carrier_dim)
            else:
                dim = self.power(n - 1).dim
                # the budget refuses a step before it picks a path
                _check_relation_budget(len(self.gens), dim * self.carrier_dim)
                if self.diagonals(1) is not None:
                    q = QuotientSpace.from_kernel(self.p, *kept_rows(
                        self.diagonals(n - 1)[1][:, :, None], self.diagonals(1)[0][:, None, :]))
                elif self.dual is not None:
                    q = free_pair(self.base, self.right_on(n - 1), self.dual)
                else:
                    rights = self.right_on(n - 1)
                    q = balanced_pair(self.p, dim, self.carrier_dim,
                                      [rights[j].a for j in self.gens],
                                      [self.left_mats[j].a for j in self.gens])
            self._powers[n] = q
        return q

    def on_last(self, n: int, mats) -> list[Matrix]:
        """x ⊗ v -> x ⊗ m(v) on power(n), for each carrier matrix m: the
        map id ⊗ m, descended; m must commute with the base's left action.

        When every m commutes with the generators' left actions,
        m·L_g = L_g·m, id ⊗ m sends each relation (x·g) ⊗ v − x ⊗ g·v to
        (x·g) ⊗ m(v) − x ⊗ g·m(v), another relation, and those span the
        relations of power(n); so it descends.  That certificate depends
        on the carrier matrices alone and is kept for the tower; a stack
        that fails it raises NotWellDefinedError.  On a dual tower,
        e_y ⊗ w_j goes to Σ_i e_y·φ_i(m(w_j)) ⊗ w_i, the block matrix
        Σ_b Ψ[i, j, b]·R_b with Ψ[i, j] = φ_i(m(w_j)) and R_b
        power(n-1)'s right actions; otherwise only the columns of
        power(n)'s free coordinates are computed.
        """
        if n == 1:
            return list(mats)
        p, c = self.p, self.carrier_dim
        stack = np.stack([m.a for m in mats])
        k, key = stack.shape[0], stack.tobytes()
        if key not in self._left_linear:    # the stack's certificate, run once
            _intertwines(p, stack.transpose(1, 0, 2), *self._sides(1, 1, 0), self.gens,
                         "left-linear")
            self._left_linear.add(key)
        q = self.power(n)
        d_prev = self.power(n - 1).dim
        if self.dual is not None:
            w, phi = self.dual
            m, dim_r, _ = phi.shape
            # psi[t, (i, b), j]: coefficient b of φ_i(mats[t](w_j))
            psi = mul_mod(phi.reshape(m * dim_r, c), mul_mod(stack, w, p), p)
            psi = psi.reshape(k, m, dim_r, m).transpose(0, 1, 3, 2).reshape(k * m * m, dim_r)
            out = mul_mod(psi, q.rights.reshape(dim_r, d_prev * d_prev), p)
            out = out.reshape(k, m, m, d_prev, d_prev).transpose(0, 1, 3, 2, 4)
            return [Matrix._wrap(p, h) for h in out.reshape(k, q.dim, q.dim)]
        if q.selection:
            # coordinate s is the plain x_s ⊗ v_s: [x_s = x_t]·m[v_s, v_t], a gather
            xs, vs = np.divmod(q.free, c)
            out = stack[:, vs[:, None], vs] * (xs[:, None] == xs)
            return [Matrix._wrap(p, h) for h in out]
        # row w of map j at [w, j]
        maps = stack.transpose(1, 0, 2)
        proj = q.projection.a.reshape(q.dim, d_prev, c)
        out = np.empty((k, q.dim, q.dim), dtype=np.int64)
        # free column t is the plain coordinate x_t ⊗ v_t: P[:, x_t, :] @ m(v_t),
        # one product per v (a stack of these thin products is slower)
        for v, ts, xs in zip(*self._free_by_last(n)):
            cols = mul_mod(proj[:, xs, :].reshape(q.dim * ts.size, c), maps[:, :, v], p)
            out[:, :, ts] = cols.reshape(q.dim, ts.size, k).transpose(2, 0, 1)
        return [Matrix._wrap(p, h) for h in out]

    def _sides(self, n_in: int, n_out: int, side: int):
        """The generators' left (side 0) or right (side 1) actions on
        power(n_in) and on power(n_out), as ``_intertwines`` takes them:
        their ``diagonals`` on a tower that has them, else the matrices."""
        if self.diagonals(1) is not None:
            return self.diagonals(n_in)[side], self.diagonals(n_out)[side]
        acts = self.right_on if side else self.left_on
        return tuple([acts(n)[j].a for j in self.gens] for n in (n_in, n_out))

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

    def left_on(self, n: int) -> list[Matrix]:
        """x -> b·x on power(n), one matrix per base basis element: the
        column blocks of concat(0, n), so ``left_on(1)`` is ``left_mats``.
        Not cached: concat(0, n) is, and a cached copy of its blocks would
        only double what it holds."""
        return [Matrix._wrap(self.p, b) for b in np.hsplit(self.concat(0, n).a, self.base.dim)]

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
                prod = Matrix._wrap(p, _side_by_side(self.right_on(m)))
            elif n == 1 and m == 0:
                prod = Matrix._wrap(p, np.hstack([mat.a for mat in self.left_mats]))
            elif n == 1 and self.dual is not None:
                # a dual step's projection, read at every pair e_x ⊗ e_v
                eye = np.eye(self.power(m).dim, dtype=np.int64), np.eye(self.carrier_dim, dtype=np.int64)
                prod = Matrix._wrap(p, self.concat_batches(m, 1, *every_pair(*eye)))
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
        of xs[:, i] in power(m) and ys[:, i] in power(n), a side of one
        column being paired with every column of the other.

        On a dual tower, power(n) is the carrier^(r^(n-1)) for the rank r
        of the dual basis, and concat(m, n) is concat(m, 1) on each of
        those r^(n-1) blocks; each concat(m, j) is right-linear because
        every power's right action is id ⊗ R_b, which ``on_last``
        certified, so the blocks need no check.  For m >= 1, concat(m, 1)
        is power(m+1)'s step, x ⊗ v -> Σ_b φ(v)_b ⊗ R_b·x, applied to
        each pair with no plain product formed; otherwise concat(m, n) is
        applied to the Khatri-Rao product of the batches.  An xs of None is
        the basis of power(m), whose R_b·x there are the R_b themselves.
        """
        p, blocks = self.p, 1
        if self.dual is not None and n >= 2:
            blocks, n = self.dual.w.shape[1] ** (n - 1), 1
        ys = ys.reshape(blocks, ys.shape[0] // blocks, ys.shape[1])
        if self.dual is not None and m and n:
            q = self.power(m + 1)
            (rank, r, c), d = q.phi.shape, len(q.across)
            # φ(v) at [i, (J, j), b] and R_b·x at [i, b, y], one column i a slice
            at = mul_mod(q.phi.reshape(rank * r, c), ys.transpose(1, 0, 2).reshape(c, -1), p)
            at = at.reshape(rank, r, blocks, -1).transpose(3, 2, 0, 1).reshape(-1, blocks * rank, r)
            moved = (q.rights if xs is None else
                     mul_mod(q.rights.reshape(r * d, d), xs, p).reshape(r, d, -1)).transpose(2, 0, 1)
            return mul_mod(at, moved, p).transpose(1, 2, 0).reshape(blocks * rank * d, -1)
        if xs is None:
            xs = np.eye(self.power(m).dim if m else self.base.dim, dtype=np.int64)
        # column (J, i) is kron(xs[:, i], ys[J, :, i]); a side of one
        # column broadcasts against the other
        pairs = (xs[:, None, None, :] * ys[None]).transpose(0, 2, 1, 3) % p
        k = pairs.shape[3]
        out = mul_mod(self.concat(m, n).a, pairs.reshape(xs.shape[0] * ys.shape[1], blocks * k), p)
        rows = out.shape[0]
        return out.reshape(rows, blocks, k).transpose(1, 0, 2).reshape(blocks * rows, k)

    def lift(self, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """power(m+n)'s coordinates lifted through concat(m, n) to pure
        tensors, for m, n >= 1: coordinate z lifts to e_x ⊗ y with x = xs[z]
        a power(m) coordinate and y = ys[:, z] in power(n).

        Every power's section lifts z to a pure w ⊗ v, w in power(m+n-1):
        a free column w * c + v, or a dual step's coordinate (j, y), which
        lifts to e_y ⊗ w_j.  For n = 1 that is the lift, since concat(m, 1)
        is power(m+1)'s projection; above it w lifts to e_x ⊗ y' one power
        down, and y is power(n)'s projection of y' ⊗ v.  The lift is
        certified once, concat(m, n) of the pairs is the identity, and a
        lift that fails raises NotWellDefinedError.
        """
        key = (m, n)
        got = self._lifts.get(key)
        if got is None:
            p, q, c = self.p, self.power(m + n), self.carrier_dim
            if isinstance(q, DualStep):
                w = np.tile(np.arange(len(q.across)), q.w.shape[1])
                v = np.repeat(q.w, len(q.across), axis=1)
            else:
                w, v = np.divmod(q.free, c)
                v = np.eye(c, dtype=np.int64)[:, v]
            if n == 1:
                xs, ys = w, v
            else:
                below, lower = self.lift(m, n - 1)
                pairs = (lower[:, None, w] * v[None]) % p
                xs, ys = below[w], self.power(n).project(pairs.reshape(lower.shape[0] * c, q.dim))
            ones = np.eye(self.power(m).dim, dtype=np.int64)[:, xs]
            bad = self.concat_batches(m, n, ones, ys) != np.eye(q.dim, dtype=np.int64)
            if bad.any():
                row, col = np.argwhere(bad)[0]
                raise NotWellDefinedError(
                    f"power({m + n}) coordinate {col} does not lift through concat({m}, {n}): "
                    f"its image differs at coordinate {row}")
            got = self._lifts[key] = (xs, ys)
        return got

    def then_identity(self, phi: Matrix, n: int, k: int, lead: int = 1) -> Matrix:
        """phi ⊗ id_carrier, descended to ``lead`` ⊗ power(n) -> power(k).

        phi maps the plain product of ``lead`` coordinates with power(n-1)
        into power(k-1).  Each of the ``lead`` slices must kill the
        relations of power(n).  They do when every slice phi_x is
        right-linear over the generators, phi_x·R_g = R_g·phi_x with R_g
        the right actions on power(n-1) and power(k-1): phi_x ⊗ id then
        sends (y·g) ⊗ v − y ⊗ g·v to (phi_x(y)·g) ⊗ v − phi_x(y) ⊗ g·v,
        a relation of power(k), and those relations span power(n)'s.  A
        phi that fails the check raises NotWellDefinedError.  On a dual
        tower, block j of the image is then phi applied to block j,
        e_y ⊗ w_j -> phi(e_y) ⊗ w_j, placed by index with no product;
        otherwise only the columns of power(n)'s free coordinates are
        computed.
        """
        p, c = self.p, self.carrier_dim
        src, dst = self.power(n), self.power(k)
        d_in, d_out = self.power(n - 1).dim, self.power(k - 1).dim
        slices = phi.a.reshape(d_out, lead, d_in)
        _intertwines(p, slices, *self._sides(n - 1, k - 1, 1), self.gens, "right-linear")
        if self.dual is not None:
            m = self.dual.w.shape[1]
            out = np.zeros((m, d_out, lead, m, d_in), dtype=np.int64)
            diag = np.arange(m)
            out[diag, :, :, diag, :] = slices
            return Matrix._wrap(p, out.reshape(dst.dim, lead * src.dim))
        if dst.selection:
            # [v_s = v_t]·phi_x[y_s, y_t] from y_t ⊗ v_t to y_s ⊗ v_s, a gather
            (ys, vs), (yd, vd) = np.divmod(src.free, c), np.divmod(dst.free, c)
            out = slices[yd][:, :, ys] * (vd[:, None, None] == vs)
            return Matrix._wrap(p, out.reshape(dst.dim, lead * src.dim))
        proj = dst.projection.a.reshape(dst.dim, d_out, c)
        # free column t is the plain coordinate y_t ⊗ v_t: P[:, :, v_t] @ phi_x(y_t),
        # one product per v in a stack
        vs, ts, ys = self._free_by_last(n)
        g, w = ts.shape
        cols = mul_mod(proj[:, :, vs].transpose(2, 0, 1),
                       slices[:, :, ys].transpose(2, 0, 1, 3).reshape(g, d_out, lead * w), p)
        out = np.empty((dst.dim, lead, src.dim), dtype=np.int64)
        out[:, :, ts] = cols.reshape(g, dst.dim, lead, w).transpose(1, 2, 0, 3)
        return Matrix._wrap(p, out.reshape(dst.dim, lead * src.dim))


def _intertwines(p: int, maps: np.ndarray, ins, outs, gens, kind: str) -> None:
    """Raise NotWellDefinedError unless m·A = B·m for every map m and
    every pair (A, B) of ``ins`` and ``outs``, one per generator in
    ``gens``, naming the ``kind`` of linearity, the generator's base
    index and the first entry that differs; one product a side.  On a
    tower with ``diagonals``, ``ins`` and ``outs`` are the |gens| x d
    stacks of the A's and B's diagonals, and there is no product:
    m·A − B·m is m[r, c]·(A[c, c] − B[r, r]) at [r, c].
    ``maps`` is d_out x k x d_in, map j at [:, j, :]."""
    if not len(gens):
        return
    d_out, k, d_in = maps.shape
    if isinstance(ins, np.ndarray) and ins.ndim == 2:
        bad = (outs[:, :, None, None] != ins[:, None, None, :]) & (maps % p != 0)
    else:
        after = mul_mod(maps.reshape(d_out * k, d_in), np.hstack(ins), p)
        before = mul_mod(np.vstack(outs), maps.reshape(d_out, k * d_in), p)
        bad = (after.reshape(d_out, k, len(ins), d_in).transpose(2, 0, 1, 3)
               != before.reshape(len(outs), d_out, k, d_in))
    if bad.any():
        g, row, j, col = np.argwhere(bad)[0]
        raise NotWellDefinedError(
            f"the map is not {kind} over the base: for generator {gens[g]}, "
            f"entry ({row}, {col}) of map {j} differs between m·A and B·m")


def extension_tower(e: Extension) -> TensorTower:
    """The tower of A over B, with B acting by multiplication in A."""
    a = e.ambient
    lefts, rights = a.actions(e.sub_images())
    return TensorTower(e.sub, a.dim, [Matrix._wrap(a.p, m) for m in lefts],
                       [Matrix._wrap(a.p, m) for m in rights])


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


def build_power(e: Extension, n: int) -> RelativeTensorPower:
    """The n-fold relative tensor power of the extension."""
    if n < 1:
        raise ValueError("tensor powers start at n = 1")
    if n > HARD_DEGREE_CAP:
        raise SizeLimitError(f"power {n} exceeds the configured maximum {HARD_DEGREE_CAP}")
    t = RelativeTensorPower(e, extension_tower(e), n)
    t.tower.power(n)
    return t


def _mult(tower: TensorTower, a: FinDimAlgebra, n: int, i: int) -> Matrix:
    """Slots i, i+1 multiplied, power(n+1) -> power(n) of an extension tower."""
    if i < n:
        return tower.then_identity(_mult(tower, a, n - 1, i), n + 1, n)
    # the last slot: y ⊗ x -> y·x, A acting on the last factor of power(n)
    # through x -> x·e_j, the slice t[:, j].T
    acts = tower.on_last(n, [Matrix._wrap(a.p, a.tensor[:, j].T) for j in range(a.dim)])
    return Matrix._wrap(a.p, descend(tower.power(n + 1), _side_by_side(acts)))


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
