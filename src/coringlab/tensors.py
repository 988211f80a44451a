"""Tensor powers over a subring, grown one factor at a time.

V ⊗_R W is the plain product GF(p)^(dim V * dim W), index v * dim W + w,
modulo the balancing relations (v·b) ⊗ w − v ⊗ (b·w).  ``balanced_pair``
builds it: the relations are the columns of kron(r, I) − kron(I, l), so
the projection, which kills them, is ``linalg.commutant`` of the
transposed actions.  ``TensorTower`` grows the powers of a carrier C,
power(n) = power(n-1) ⊗_R C, balanced over algebra generators of the
base that the tower picks once, so no power is built in the dense
dim**n ambient.  Every power above the carrier is a step of one of the
four types of ``linalg``, picked once, from the carrier
(``TensorTower._choose``), and the same type solves the tower's hom
spaces and C⁰:
- a ``Selection`` when the generators act diagonally on the carrier:
  the tower keeps their diagonals on every power, by index arithmetic,
  and each power is the selection of the x ⊗ v where they agree;
- a ``Dual`` step when the carrier is free as a left base module, on
  w_1..w_m: power(n) is power(n-1)^m, x ⊗ v -> (x·φ_j(v))_j for the
  coordinate maps φ_j of ``dual_basis``, with section e_y ⊗ w_j;
- of those, a ``Monomial`` step when the w_j are coset representatives,
  which ``dual_basis``'s greedy coset pass finds, and the generators act
  by monomial matrices, as a group algebra over a subgroup's does: the
  tower keeps their actions on every power as (index, scalar) arrays,
  and solves hom spaces by orbits;
- a ``Reduction`` of the generators' relations otherwise.
Every structure map on power(n) is a map on power(n-1) tensored with
the identity of the last factor (``then_identity``) or one on the last
factor alone (``on_last``), well defined when it is right-, resp.
left-linear over the generators, whose relations span power(n)'s.  Each
map checks that certificate, by products or, on a selection, entry by
entry against the kept diagonals, and raises NotWellDefinedError at the
first entry where it fails; power(n)'s type then forms it.  ``lift``
lifts each coordinate of power(m+n) through concat(m, n) to a pure
tensor e_x ⊗ y, certified once, so a map out of power(m) ⊗ power(n)
that kills the balancing relations is read on power(m+n) at those pairs
alone; and ``concat_batches`` multiplies batches of pairs by
power(m+1)'s own step, forming neither concat(m, n) nor, for
m, n >= 1, a Khatri-Rao product on a dual tower.
A coring's S ⊗_R ... ⊗_R S and an extension's A ⊗_B ... ⊗_B A
(``build_power``, B acting by multiplication) are both towers.
``balanced_power`` is the dense reference the tests check them against.
Every build estimates its largest array first, as its step type counts
it (``QuotientSpace.budget``: the stacked relation blocks, or a
monomial step's index arrays), and raises SizeLimitError above
``RELATION_ENTRY_BUDGET`` (``linalg``'s, bound here); the bimodule-hom
solves of ``homspaces`` are held to the same budget.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NotWellDefinedError, SizeLimitError
from .algebras import Extension, FinDimAlgebra, generating_indices
# this module's budget checks read its own binding of the budget
from .linalg import (
    RELATION_ENTRY_BUDGET,
    Dual,
    Matrix,
    Monomial,
    QuotientSpace,
    Reduction,
    Selection,
    check_entries,
    commutant,
    descend,
    inverse,
    kernel_rows_with_free,
    mul_mod,
    _diagonal_of,
    _monomial_of,
    _orbit_walk,
    trivial_quotient,
)

# the top tensor power, and so the top cochain degree, that any build makes
HARD_DEGREE_CAP = 4

# Draws of a candidate dual basis.  Over GF(2), 4 random vectors of the
# M2 carrier (16 = 4 * 4) are a basis about 29% of the time, so 32 draws
# all miss with odds under 2e-5.
DUAL_BASIS_DRAWS = 32


def check_step_budget(step: type[QuotientSpace], n_blocks: int, width: int, kind: str,
                      what: str) -> None:
    """Raise SizeLimitError before a power build (``kind`` "relation") or a
    hom solve ("constraint") on ``width`` unknowns under ``n_blocks``
    generator blocks whose largest array, as the step type counts it
    (``budget``), is above the budget; ``what`` names the build."""
    entries, array = step.budget(n_blocks, width, kind)
    check_entries(entries, RELATION_ENTRY_BUDGET, f"{what} needs {array}")


def _check_relation_budget(n_blocks: int, ambient: int, step=QuotientSpace) -> None:
    """Raise SizeLimitError before a relation build above the budget."""
    check_step_budget(step, n_blocks, ambient, "relation",
                      f"a tensor power with ambient dimension {ambient}")


def balanced_pair(p: int, dim_left: int, dim_right: int, rights, lefts) -> Reduction:
    """V ⊗_R W as a quotient of the plain product, index v * dim_right + w.

    ``rights[b]`` is the matrix of v -> v·b on V and ``lefts[b]`` that of
    w -> b·w on W, for each b in a set that generates the base as an
    algebra (a basis does).  The relations are the columns of the blocks
    kron(r, I) − kron(I, l), so the projection is the commutant of the
    transposes (rᵀ, lᵀ).
    """
    _check_relation_budget(len(rights), dim_left * dim_right)
    pairs = [(np.asarray(r).T, np.asarray(l).T) for r, l in zip(rights, lefts)]
    return Reduction(p, *commutant(p, dim_left, dim_right, pairs))


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
    then invertible.  The first candidate is the greedy coset pass: when
    every generator acts on the left by a monomial matrix, the basis
    vector opening each orbit of their index maps, read off by index
    arithmetic, as coset representatives are for a group algebra over a
    subgroup's.  Otherwise, or when the pass finds other than m orbits,
    the w_j are drawn at random, with a fixed seed, at most
    ``DUAL_BASIS_DRAWS`` times; the M2 carriers need combinations.  The
    first candidate with M invertible is kept, and Φ is M⁻¹, reshaped.
    The pair is returned only when each φ_j is left-linear over every
    generator, φ_j(g·v) = g·φ_j(v), and 1·w_j = w_j: a ``linalg.Dual``
    step needs both.
    """
    p, dim_r = base.p, base.dim
    c = left_mats[0].rows
    if not gens or c % dim_r:
        return None
    m = c // dim_r
    stack = np.stack([mat.a for mat in left_mats])
    for w in _candidates(p, stack[gens], m):
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


def _candidates(p: int, gen_mats: np.ndarray, m: int):
    """The bases ``dual_basis`` tries, as c x m arrays: the greedy coset
    pass, when every generator matrix is monomial and their index maps
    have m orbits, then the random draws."""
    c = gen_mats.shape[1]
    found = [_monomial_of(a, p) for a in gen_mats]
    if all(f is not None for f in found):
        reps = _orbit_walk(np.array([at for at, _ in found]), range(c))[0]
        if len(reps) == m:
            yield np.eye(c, dtype=np.int64)[:, reps]
    rng = np.random.default_rng(0)  # a fixed seed: every run draws the same basis
    for _ in range(DUAL_BASIS_DRAWS):
        yield rng.integers(0, p, size=(c, m), dtype=np.int64)


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


def balanced_power(p: int, dim: int, rights, lefts, n: int) -> Reduction:
    """The n-fold power of a carrier as a quotient of the dense ambient
    GF(p)^(dim^n) by every slot's pair relations, reduced at once: the
    reference for the towers.  rights/lefts are the per-base-basis action
    matrices on the carrier; n = 1 gives the carrier itself."""
    ambient = dim**n
    _check_relation_budget((n - 1) * len(rights), ambient)
    # the columns of kron(r, I) − kron(I, l) span the relations of one slot
    eye = np.eye(dim, dtype=np.int64)
    core = np.vstack([np.zeros((0, dim * dim), dtype=np.int64)]
                     + [(np.kron(np.asarray(r), eye) - np.kron(eye, np.asarray(l))).T % p
                        for r, l in zip(rights, lefts)])
    gens = [np.kron(np.kron(np.eye(dim ** (slot - 1), dtype=np.int64), core),
                    np.eye(dim ** (n - slot - 1), dtype=np.int64))
            for slot in range(1, n)]
    rows = np.vstack([np.zeros((0, ambient), dtype=np.int64)] + gens)
    return Reduction(p, *kernel_rows_with_free(rows, p))


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
                 "_rights", "_concats", "_lifts", "_left_linear", "_step", "_dual",
                 "_diagonals", "_monomials")

    def __init__(self, base: FinDimAlgebra, carrier_dim: int, left_mats, right_mats):
        self.base = base
        self.gens = generating_indices(base)
        self.carrier_dim = int(carrier_dim)
        self.left_mats = list(left_mats)
        self.right_mats = list(right_mats)
        self._powers, self._rights, self._concats, self._lifts = {}, {}, {}, {}
        self._left_linear = set()
        self._step = self._dual = self._diagonals = self._monomials = None

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def step(self) -> type[QuotientSpace]:
        """The type of every power above the carrier (``_choose``)."""
        if self._step is None:
            self._step = self._choose()
        return self._step

    def _choose(self) -> type[QuotientSpace]:
        """The tower's one choice of coordinates, hom solve and C⁰, made on
        the carrier, the one place a tower scans matrices: ``Selection``
        when every generator acts diagonally on it from both sides; a
        ``Dual`` step when it is free as a left base module, on a
        ``dual_basis``, and its right action is a unital module action over
        the generators, R_k·R_g = R_{g·k} and R_1 = I, which carries up to
        every power as ``on_last`` is linear and, on certified maps,
        multiplicative; of it, a ``Monomial`` step when the dual basis is
        the coset basis and every generator acts by a monomial matrix
        from both sides; ``Reduction`` otherwise."""
        found = [_diagonal_of(mats[j].a, self.p) for mats in (self.left_mats, self.right_mats)
                 for j in self.gens]
        if all(d is not None for d in found):
            self._diagonals = {1: tuple(
                np.array(found, dtype=np.int64).reshape(2, len(self.gens), self.carrier_dim))}
            return Selection
        if _is_right_module(self.base, self.gens, self.right_mats):
            self._dual = dual_basis(self.base, self.gens, self.left_mats)
        if self._dual is None:
            return Reduction
        sides = [_monomial_of(mats[j].a, self.p) for mats in (self.left_mats, self.right_mats)
                 for j in self.gens]
        w = self._dual.w
        if any(side is None for side in sides) or not np.array_equal(
                w, np.eye(self.carrier_dim, dtype=np.int64)[:, w.argmax(axis=0)]):
            return Dual
        self._monomials = tuple(np.array([side[k] for side in sides]).reshape(
            2, len(self.gens), self.carrier_dim) for k in (0, 1))
        return Monomial

    @property
    def dual(self) -> DualBasis | None:
        """The carrier's ``dual_basis`` on a tower of ``Dual`` steps, None
        on the others."""
        self.step       # made by the choice
        return self._dual

    def diagonals(self, n: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The generators' left and right diagonals on power(n), |gens| x
        dim power(n) each, on a tower of ``Selection`` steps, else None: at
        x ⊗ v the left is power(n-1)'s at x, the right the carrier's at v."""
        self.step       # the choice reads them off the carrier
        if self._diagonals is None:
            return None
        got = self._diagonals.get(n)
        if got is None:
            xs, vs = np.divmod(self.power(n).free, self.carrier_dim)
            got = self._diagonals[n] = (self.diagonals(n - 1)[0][:, xs], self._diagonals[1][1][:, vs])
        return got

    def monomials(self, n: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The generators' left and right actions on power(n) as (index,
        scalar) arrays, (2, |gens|, dim power(n)) each, column t of an
        action having its one nonzero at row index[t], on a tower of
        ``Monomial`` steps, else None: the choice reads the carrier's off
        its matrices, and each step above derives its own."""
        self.step       # the choice reads the carrier's
        if self._monomials is None or n == 1:
            return self._monomials
        return self.power(n).sides

    def power(self, n: int) -> QuotientSpace:
        """The carrier's n-fold tensor power over the base, power(n-1) ⊗_R
        carrier: a quotient of the plain product, index x * carrier_dim + v
        for x a power(n-1) coordinate, grown as the tower's ``step`` type."""
        if n < 1:
            raise ValueError("tensor powers start at n = 1")
        q = self._powers.get(n)
        if q is None:
            if n == 1:
                q = trivial_quotient(self.p, self.carrier_dim)
            else:
                # the budget refuses a step by what its type forms, before it grows
                _check_relation_budget(len(self.gens), self.power(n - 1).dim * self.carrier_dim,
                                       self.step)
                q = self.step.grow(self, n)
            self._powers[n] = q
        return q

    def on_last(self, n: int, mats) -> list[Matrix]:
        """x ⊗ v -> x ⊗ m(v) on power(n), for each carrier matrix m: the
        map id ⊗ m, descended.  When every m commutes with the generators'
        left actions, m·L_g = L_g·m, id ⊗ m sends each relation
        (x·g) ⊗ v − x ⊗ g·v to (x·g) ⊗ m(v) − x ⊗ g·m(v), another
        relation, and those span power(n)'s; so it descends.  That
        certificate depends on the carrier matrices alone and is kept for
        the tower; a stack that fails it raises NotWellDefinedError."""
        if n == 1:
            return list(mats)
        stack = np.stack([m.a for m in mats])
        key = stack.tobytes()
        if key not in self._left_linear:    # the stack's certificate, run once
            self._certify(stack.transpose(1, 0, 2), 1, 1, 0, "left-linear")
            self._left_linear.add(key)
        return [Matrix._wrap(self.p, h) for h in self.power(n).on_last(stack, self.carrier_dim)]

    def _certify(self, maps: np.ndarray, n_in: int, n_out: int, side: int, kind: str) -> None:
        # ``_intertwines`` with the generators' left (side 0) or right
        # (side 1) actions, as the tower's step type keeps them
        _intertwines(self.p, maps, *self.step.actions(self, n_in, n_out, side), self.gens, kind,
                     self.step.mismatch)

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
        """The product x ⊗ y of power(m) and power(n) in power(m+n), on the
        plain product, index x * dim(n) + y.  Degree 0 is the base, acting
        through the left or right action or multiplying in the base."""
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
            elif n == 1:
                # power(m+1) is a quotient of exactly this plain product
                prod = Matrix._wrap(p, self.power(m + 1).rows)
            else:
                lead = self.base.dim if m == 0 else self.power(m).dim
                prod = self.then_identity(self.concat(m, n - 1), n, m + n, lead)
            self._concats[key] = prod
        return prod

    def concat_batches(self, m: int, n: int, xs: np.ndarray | None, ys: np.ndarray) -> np.ndarray:
        """concat(m, n) of column-paired batches: column i is the product
        of xs[:, i] in power(m) (None: the basis) and ys[:, i] in power(n),
        a side of one column paired with every column of the other; read
        pair by pair by power(m+1)'s own step where the type can."""
        return self.step.concat_batches(self, m, n, xs, ys)

    def product_batches(self, m: int, n: int, xs: np.ndarray | None, ys: np.ndarray,
                        blocks: int = 1) -> np.ndarray:
        """concat(m, n) on the Khatri-Rao product of column-paired batches,
        ys holding ``blocks`` power(n) elements per column, each alike."""
        p = self.p
        if xs is None:
            xs = np.eye(self.power(m).dim if m else self.base.dim, dtype=np.int64)
        ys = ys.reshape(blocks, ys.shape[0] // blocks, ys.shape[1])
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
        a power(m) coordinate and y = ys[:, z] in power(n).  power(m+n)'s
        section lifts z to a pure w ⊗ v (its ``lifts``): for n = 1 the
        lift; above it w lifts to e_x ⊗ y' one power down, and y is
        power(n)'s projection of y' ⊗ v.  The lift is certified once,
        concat(m, n) of the pairs is the identity, or NotWellDefinedError.
        """
        key = (m, n)
        got = self._lifts.get(key)
        if got is None:
            p, q, c = self.p, self.power(m + n), self.carrier_dim
            w, v = q.lifts(c)
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
        """phi ⊗ id_carrier, descended to ``lead`` ⊗ power(n) -> power(k), for
        phi from the plain product of ``lead`` coordinates with power(n-1)
        to power(k-1).  Each of the ``lead`` slices must kill the
        relations of power(n).  They do when every slice phi_x is
        right-linear over the generators, phi_x·R_g = R_g·phi_x with R_g
        the right actions on power(n-1) and power(k-1): phi_x ⊗ id then
        sends (y·g) ⊗ v − y ⊗ g·v to (phi_x(y)·g) ⊗ v − phi_x(y) ⊗ g·v,
        a relation of power(k), and those relations span power(n)'s.  A
        phi that fails the check raises NotWellDefinedError.
        """
        src, dst = self.power(n), self.power(k)
        slices = phi.a.reshape(self.power(k - 1).dim, lead, self.power(n - 1).dim)
        self._certify(slices, n - 1, k - 1, 1, "right-linear")
        out = dst.then_identity(src, slices, self.carrier_dim)
        return Matrix._wrap(self.p, out.reshape(dst.dim, lead * src.dim))


def _intertwines(p: int, maps: np.ndarray, ins, outs, gens, kind: str,
                 mismatch=QuotientSpace.mismatch) -> None:
    """Raise NotWellDefinedError unless m·A = B·m for every map m (of
    ``maps``, d_out x k x d_in, map j at [:, j, :]) and every pair (A, B)
    of ``ins`` and ``outs``, one per generator in ``gens``, naming the
    ``kind`` of linearity, the generator and the first entry that
    differs, as the step type's ``mismatch`` compares them."""
    if not len(gens):
        return
    bad = mismatch(p, maps, ins, outs)
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
