"""Corings with a grouplike element over a finite-dimensional base.

A coring is handed to the constructor as the tower of its carrier over
the base (which holds the base algebra and the commuting left/right
base actions), the coproduct into the carrier's tensor square, the
counit and the grouplike vector, and every axiom is checked exactly
before the constructor returns, so a CoringWithGrouplike value in hand
is itself a certificate.  The base-action laws run as stacked products,
every j of a basis pair (i, j) at once, and report each failing pair.

A coring is a ``tensors.TensorTower``: its carrier's powers over the
base are grown one factor at a time, power(n) = power(n-1) (x)_R
carrier, and the tower caches them with the right base action on each
and the concatenation products between them.  The coring adds the
slotwise coproducts, each a map on power(n-1) tensored with the
identity of the last factor (well defined because it is right-linear,
which the tower checks) or the coproduct on the last factor alone,
descended through the mandatory well-definedness check.  The Amitsur
complex and the axiom check share them.  The Sweedler coring's carrier
is itself power 2 of an extension's tower, and A acts on it through the
same two kinds of tower map.

Three builders produce the corings the theory needs: the endomorphism
coring of a depth-two extension (with its f2 certificate), the
canonical coring on A (x)_B A, and the coalgebra of a Hopf algebra
viewed as a coring over the ground field.  Each grows power(2) as a step
of the carrier's tower before the coproduct exists, and the coring
takes that tower over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import Extension, HopfData, one_dim_algebra, subalgebra_on
from .dga import every_pair
from .errors import AxiomError, NoD2CertificateError, NotWellDefinedError
from .hochschild import CochainComplex, build_complex
from .homspaces import BimoduleHomSpace
from .linalg import (
    Matrix,
    QuotientSpace,
    Subspace,
    descend,
    induced_map,
    inverse,
    mul_mod,
    rank_of,
)
from .tensors import RelativeTensorPower, TensorTower, build_power, mult_at


class CoringWithGrouplike(TensorTower):
    """Verified (tower, coproduct, counit, grouplike) data.

    The coring is the tower of its carrier's powers over the base, whose
    ``left_mats[j]`` / ``right_mats[j]`` are the carrier matrices of the
    j-th base basis element acting on the left / right.  ``coproduct``
    maps carrier coordinates into ``power(2)`` coordinates, ``counit``
    maps them to base coordinates.  The coring takes over the tower it
    is given, with its generators, dual basis and built powers, instead
    of picking and building them again.
    """

    __slots__ = ("coproduct", "counit", "grouplike", "_coproducts")

    def __init__(self, tower: TensorTower, coproduct: Matrix, counit: Matrix, grouplike):
        for name in TensorTower.__slots__:
            setattr(self, name, getattr(tower, name))
        self.coproduct = coproduct
        self.counit = counit
        self.grouplike = np.asarray(grouplike, dtype=np.int64) % self.p
        self._coproducts = {}
        failures = self._axiom_failures()
        if failures:
            raise AxiomError("coring axioms violated: " + "; ".join(failures))

    def left_action(self, coords) -> Matrix:
        """Carrier matrix of the base element with the given coordinates."""
        return self._combine(coords, self.left_mats)

    def right_action(self, coords) -> Matrix:
        return self._combine(coords, self.right_mats)

    def _combine(self, coords, mats) -> Matrix:
        c = self.carrier_dim
        coords = np.asarray(coords, dtype=np.int64).reshape(1, -1) % self.p
        stack = np.stack([m.a for m in mats]).reshape(len(mats), c * c)
        return Matrix._wrap(self.p, mul_mod(coords, stack, self.p).reshape(c, c))

    def coproducts(self, n: int) -> list[Matrix]:
        """The coproduct applied in slot i = 1..n of power(n), each a map
        power(n) -> power(n+1)."""
        maps = self._coproducts.get(n)
        if maps is None:
            if n == 1:
                maps = [self.coproduct]
            else:
                # slots before the last act as (the map on power(n-1)) ⊗ id
                maps = [self.then_identity(m, n, n + 1) for m in self.coproducts(n - 1)]
                maps.append(self._last_coproduct(n))
            self._coproducts[n] = maps
        return maps

    def _last_coproduct(self, n: int) -> Matrix:
        """The coproduct in the last slot of power(n), n >= 2: x ⊗ v ->
        x ⊗ coproduct(v), concatenated.

        On a dual tower, the coproduct is v -> Σ_j Δ_j(v) ⊗ w_j with Δ_j
        its block j, each left-linear with it, so block j of the image is
        ``on_last(n, Δ_j)``.  Otherwise it
        is concat(n-1, 2) @ kron(I, coproduct), without forming the kron,
        descended.
        """
        p, c = self.p, self.carrier_dim
        if self.dual is not None:
            blocks = self.coproduct.a.reshape(-1, c, c)
            last = self.on_last(n, [Matrix._wrap(p, b) for b in blocks])
            return Matrix._wrap(p, np.vstack([h.a for h in last]))
        rows, d_prev = self.power(n + 1).dim, self.power(n - 1).dim
        concat = self.concat(n - 1, 2).a.reshape(rows * d_prev, self.power(2).dim)
        last = mul_mod(concat, self.coproduct.a, p)
        return Matrix._wrap(p, descend(self.power(n), last.reshape(rows, d_prev * c)))

    # -- construction-time verification ------------------------------------

    def _axiom_failures(self) -> list[str]:
        p = self.p
        c = self.carrier_dim
        db = self.base.dim
        if len(self.left_mats) != db or len(self.right_mats) != db:
            raise AxiomError("one action matrix per base basis element is required")
        for m in self.left_mats + self.right_mats:
            if m.shape != (c, c):
                raise AxiomError(f"action matrix shape {m.shape}, expected {(c, c)}")
        sq = self.power(2)
        if self.coproduct.shape != (sq.dim, c):
            raise AxiomError(
                f"coproduct shape {self.coproduct.shape}, expected {(sq.dim, c)}")
        if self.counit.shape != (db, c):
            raise AxiomError(f"counit shape {self.counit.shape}, expected {(db, c)}")
        if self.grouplike.shape != (c,):
            raise AxiomError(f"grouplike has length {self.grouplike.shape}, expected {c}")

        fails = []
        ident = Matrix.identity(p, c)
        if self.left_action(self.base.unit) != ident:
            fails.append("left action is not unital")
        if self.right_action(self.base.unit) != ident:
            fails.append("right action is not unital")
        # L(e_i e_j) = L_i L_j, R(e_i e_j) = R_j R_i and L_i R_j = R_j L_i as
        # stacked products over j, one base index i at a time
        ls, rs = (np.stack([m.a for m in mats]) for mats in (self.left_mats, self.right_mats))
        laws = ("left action not multiplicative", "right action not antimultiplicative",
                "left and right actions do not commute")
        for i, t_i in enumerate(self.base.tensor):     # row j of t_i: e_i·e_j
            bad = np.stack([mul_mod(t_i, ls.reshape(db, -1), p).reshape(ls.shape) != mul_mod(ls[i], ls, p),
                            mul_mod(t_i, rs.reshape(db, -1), p).reshape(rs.shape) != mul_mod(rs, rs[i], p),
                            mul_mod(ls[i], rs, p) != mul_mod(rs, ls[i], p)], axis=1).any(axis=(2, 3))
            fails += [f"{laws[k]} (i={i}, j={j})" for j, k in zip(*np.nonzero(bad))]
        if fails:
            # bimodule structure is broken; the quotient checks below would
            # only cascade
            return fails

        eps, t = self.counit.a, self.base.tensor     # x -> e_j·x is t[j].T, x -> x·e_j t[:, j].T
        try:
            lefts, rights = self.left_on(2), self.right_on(2)
            for j in range(db):
                if self.coproduct @ self.left_mats[j] != lefts[j] @ self.coproduct:
                    fails.append(f"coproduct is not left-linear over the base (index {j})")
                if self.coproduct @ self.right_mats[j] != rights[j] @ self.coproduct:
                    fails.append(f"coproduct is not right-linear over the base (index {j})")
                if self.counit @ self.left_mats[j] != Matrix._wrap(p, t[j].T) @ self.counit:
                    fails.append(f"counit is not left-linear over the base (index {j})")
                if self.counit @ self.right_mats[j] != Matrix._wrap(p, t[:, j].T) @ self.counit:
                    fails.append(f"counit is not right-linear over the base (index {j})")

            # coproduct ⊗ id against id ⊗ coproduct, both power(2) -> power(3)
            first, second = self.coproducts(2)
            if first @ self.coproduct != second @ self.coproduct:
                fails.append("coproduct is not coassociative")

            left_amb = np.zeros((c, c * c), dtype=np.int64)
            right_amb = np.zeros((c, c * c), dtype=np.int64)
            for j in range(db):
                left_amb = (left_amb + np.kron(eps[j : j + 1, :], self.left_mats[j].a)) % p
                right_amb = (right_amb + np.kron(self.right_mats[j].a, eps[j : j + 1, :])) % p
            if Matrix._wrap(p, descend(sq, left_amb)) @ self.coproduct != ident:
                fails.append("left counit law fails")
            if Matrix._wrap(p, descend(sq, right_amb)) @ self.coproduct != ident:
                fails.append("right counit law fails")
        except NotWellDefinedError as err:
            fails.append(f"structure maps do not descend to the base quotient: {err}")

        g = self.grouplike
        if not np.array_equal(self.coproduct.apply(g), sq.project(np.kron(g, g))):
            fails.append("grouplike does not split under the coproduct")
        if not np.array_equal(self.counit.apply(g), self.base.unit):
            fails.append("counit of the grouplike is not one")
        return fails


# ---------------------------------------------------------------------------
# the endomorphism coring and its depth-two certificate


@dataclass
class D2Certificate:
    """Outcome of the f2 bijectivity test, plus the spaces it was built on:
    ``f2_inverse`` is f2⁻¹, or None when f2 is not square and invertible."""

    extension: Extension
    s_space: BimoduleHomSpace
    r_space: Subspace
    hom_space: BimoduleHomSpace
    tower: TensorTower
    square: QuotientSpace
    left_mats: list
    right_mats: list
    f2: Matrix
    f2_inverse: Matrix | None
    s_dim: int
    r_dim: int
    square_dim: int
    hom_dim: int

    @property
    def bijective(self) -> bool:
        return self.f2_inverse is not None

    @property
    def f2_rank(self) -> int:
        return rank_of(self.f2.a, self.extension.p)


def build_f2(e: Extension, cc: CochainComplex | None = None) -> D2Certificate:
    """Evaluate alpha (x) beta |-> (x (x) y |-> alpha(x) beta(y)) and test rank.

    R = C^0, S = C^1, the hom space C^2 and every product come from the
    cochain complex to degree 2: r . alpha is r ∪ alpha, alpha . r is
    alpha ∪ r, and f2 is the cup product of S with itself, descended to
    S (x)_R S, power 2 of the tower of S over R that the endomorphism
    coring then grows further.  A cochain complex of ``e`` to degree 2 or
    more already in hand can be passed in to avoid rebuilding it.
    """
    if cc is None:
        cc = build_complex(e, 2)
    p = e.p
    s, r = cc.dim(1), cc.dim(0)
    eye_s, eye_r = np.eye(s, dtype=np.int64), np.eye(r, dtype=np.int64)
    lefts = cc.products(0, 1, *every_pair(eye_r, eye_s))    # column i * s + j: r_i ∪ alpha_j
    rights = cc.products(1, 0, *every_pair(eye_s, eye_r))   # column j * r + i: alpha_j ∪ r_i
    left_mats = [Matrix._wrap(p, lefts[:, i * s:(i + 1) * s]) for i in range(r)]
    right_mats = [Matrix._wrap(p, rights[:, i::r]) for i in range(r)]
    base, _ = subalgebra_on(e.ambient, cc.homs[0], [f"r{i}" for i in range(r)])
    tower = TensorTower(base, s, left_mats, right_mats)
    square = tower.power(2)
    f2 = Matrix._wrap(p, descend(square, cc.products(1, 1, *every_pair(eye_s, eye_s))))
    hom_space, f2_inverse = cc.homs[2], None
    if hom_space.dim == square.dim:
        try:
            f2_inverse = inverse(f2)
        except ValueError:  # singular
            pass
    return D2Certificate(
        extension=e, s_space=cc.homs[1], r_space=cc.homs[0], hom_space=hom_space,
        tower=tower, square=square, left_mats=left_mats, right_mats=right_mats, f2=f2,
        f2_inverse=f2_inverse, s_dim=s, r_dim=r, square_dim=square.dim, hom_dim=hom_space.dim)


def endo_coring(e: Extension, cert: D2Certificate | None = None) -> CoringWithGrouplike:
    """The coring of B-bimodule endomorphisms of A over the centralizer.

    Requires the depth-two certificate; the coproduct is obtained by
    pulling alpha o (multiplication) back through f2.  A certificate
    already in hand can be passed in to avoid rebuilding it.
    """
    if cert is None:
        cert = build_f2(e)
    if not cert.bijective:
        raise NoD2CertificateError(
            f"f2 is {cert.hom_dim} x {cert.square_dim} with rank "
            f"{cert.f2_rank}; the depth-two certificate fails")
    a = e.ambient
    p, d = a.p, a.dim
    s_space, r_space = cert.s_space, cert.r_space
    # the basis of S, stacked as dim A x dim A matrices
    alphas = s_space.rows.reshape(-1, d, d)
    mu = descend(cert.hom_space.source.space, a.mult.a)
    after_mult = cert.hom_space.coords(mul_mod(alphas, mu, p).reshape(cert.s_dim, -1),
                                       "alpha after the multiplication is not a B-bimodule map")
    coproduct = cert.f2_inverse @ Matrix._wrap(p, after_mult.T)
    at_unit = r_space.coords(mul_mod(alphas, a.unit.reshape(d, 1), p)[..., 0],
                             "evaluation at the unit does not land in the centralizer")
    counit = Matrix._wrap(p, at_unit.T)
    grouplike = s_space.coords_of(Matrix.identity(p, a.dim))
    coring = CoringWithGrouplike(cert.tower, coproduct, counit, grouplike)
    # the two splitting laws particular to this coring, on lambda_r and
    # rho_r for each basis element r of R, projected as one batch
    mults = [a.left_mul(r).a for r in r_space.rows] + [a.right_mul(r).a for r in r_space.rows]
    split = s_space.coords(np.stack(mults).reshape(len(mults), -1),
                           "a multiplication by the centralizer is not in S")
    lams, rhos = np.split(split, 2)
    want = cert.square.project(np.hstack([np.kron(lams.T, grouplike[:, None]),
                                          np.kron(grouplike[:, None], rhos.T)]))
    bad = (mul_mod(coproduct.a, split.T, p) != want).any(axis=0).reshape(2, -1)
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=0))[0])
        raise AxiomError(
            f"coproduct of a left multiplication is not lambda (x) identity (index {i})"
            if bad[0, i] else
            f"coproduct of a right multiplication is not identity (x) rho (index {i})")
    return coring


def sweedler_coring(e: Extension) -> CoringWithGrouplike:
    """A (x)_B A as a coring over A, with x (x) y |-> x (x) 1 (x) y."""
    a = e.ambient
    p = a.p
    d = a.dim
    t2 = build_power(e, 2)
    q = t2.space
    eye_d = np.eye(d, dtype=np.int64)
    # A acts on the first factor as its multiplication ⊗ id, one column
    # block per basis element, and on the last factor alone
    left_mats = [Matrix._wrap(p, b) for b in np.hsplit(t2.tower.then_identity(a.mult, 2, 2, d).a, d)]
    right_mats = t2.tower.on_last(2, [Matrix._wrap(p, a.tensor[:, j].T) for j in range(d)])
    tower = TensorTower(a, q.dim, left_mats, right_mats)
    into_left = q.project(np.kron(eye_d, a.unit.reshape(d, 1)))
    into_right = q.project(np.kron(a.unit.reshape(d, 1), eye_d))
    coproduct = induced_map(q, tower.power(2), Matrix(p, np.kron(into_left, into_right)))
    counit = mult_at(t2, RelativeTensorPower(e, t2.tower, 1), 1)
    grouplike = q.project(np.kron(a.unit, a.unit))
    return CoringWithGrouplike(tower, coproduct, counit, grouplike)


def hopf_coring(h: HopfData) -> CoringWithGrouplike:
    """The underlying coalgebra of a Hopf algebra, as a coring over the
    ground field with the unit as grouplike."""
    base = one_dim_algebra(h.algebra.field)
    p = h.algebra.p
    d = h.algebra.dim
    ident = Matrix.identity(p, d)
    tower = TensorTower(base, d, [ident], [ident])
    coproduct = Matrix._wrap(p, tower.power(2).project(h.coproduct.a))
    return CoringWithGrouplike(tower, coproduct, h.counit, h.algebra.unit)
