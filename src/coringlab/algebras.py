"""Finite-dimensional associative algebras over GF(p) by structure constants.

An algebra is a dense structure tensor ``t[i, j, k]`` (coefficient of
``e_k`` in ``e_i * e_j``) plus a unit vector.  The module provides the
standard example constructors (matrix algebras, group algebras,
upper-triangular algebras, simple field extensions), extensions B -> A
with an explicit inclusion matrix, centralizer computation, and
finite-dimensional Hopf data with dualization.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product as iproduct

import numpy as np

from .errors import AxiomError, ElementNotInSpaceError
from .linalg import Field, Matrix, Subspace, kernel_rows_with_free, mul_mod, rank_of


class FinDimAlgebra:
    """Associative unital algebra by structure constants over GF(p).

    The constructor does not verify associativity or the unit laws --
    use :func:`validate` for that -- so that deliberately broken inputs
    can be represented and reported on.
    """

    __slots__ = ("field", "basis_names", "tensor", "unit", "_mult")

    def __init__(self, field: Field, basis_names, structure, unit):
        self.field = field
        self.basis_names = tuple(str(nm) for nm in basis_names)
        d = len(self.basis_names)
        p = field.p
        tensor = np.zeros((d, d, d), dtype=np.int64)
        for i, row in enumerate(structure):
            for j, terms in enumerate(row):
                for k, c in terms:
                    tensor[i, j, int(k)] = (tensor[i, j, int(k)] + int(c)) % p
        tensor.setflags(write=False)
        self.tensor = tensor
        u = np.asarray(unit, dtype=np.int64).reshape(-1) % p
        if u.shape[0] != d:
            raise ValueError(f"unit has length {u.shape[0]}, expected {d}")
        u.setflags(write=False)
        self.unit = u
        self._mult = None

    @classmethod
    def from_tensor(cls, field: Field, basis_names, tensor, unit) -> "FinDimAlgebra":
        a = cls.__new__(cls)
        a.field = field
        a.basis_names = tuple(str(nm) for nm in basis_names)
        t = np.asarray(tensor, dtype=np.int64) % field.p
        d = len(a.basis_names)
        if t.shape != (d, d, d):
            raise ValueError(f"tensor shape {t.shape}, expected {(d, d, d)}")
        t.setflags(write=False)
        a.tensor = t
        u = np.asarray(unit, dtype=np.int64).reshape(-1) % field.p
        u.setflags(write=False)
        a.unit = u
        a._mult = None
        return a

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    @property
    def mult(self) -> Matrix:
        """Multiplication as a dim x dim^2 matrix; column i*dim+j is e_i*e_j."""
        if self._mult is None:
            d = self.dim
            self._mult = Matrix(self.p, self.tensor.reshape(d * d, d).T)
        return self._mult

    def multiply(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64) % self.p
        y = np.asarray(y, dtype=np.int64) % self.p
        return self.mult.apply(np.kron(x, y))

    def left_mul(self, x) -> Matrix:
        """Matrix of y -> x*y."""
        x = np.asarray(x, dtype=np.int64).reshape(1, -1) % self.p
        d = self.dim
        lb = self.tensor.transpose(0, 2, 1).reshape(d, d * d)
        return Matrix(self.p, mul_mod(x, lb, self.p).reshape(d, d))

    def right_mul(self, x) -> Matrix:
        """Matrix of y -> y*x."""
        x = np.asarray(x, dtype=np.int64).reshape(1, -1) % self.p
        d = self.dim
        rb = self.tensor.transpose(1, 2, 0).reshape(d, d * d)
        return Matrix(self.p, mul_mod(x, rb, self.p).reshape(d, d))

    def __eq__(self, other):
        return (
            isinstance(other, FinDimAlgebra)
            and other.field == self.field
            and other.basis_names == self.basis_names
            and np.array_equal(other.tensor, self.tensor)
            and np.array_equal(other.unit, self.unit)
        )

    def __repr__(self):
        return f"FinDimAlgebra(p={self.p}, dim={self.dim})"


@dataclass
class ValidationReport:
    ok: bool
    failures: list = dc_field(default_factory=list)

    def __bool__(self):
        return self.ok


def algebra_violations(a: FinDimAlgebra) -> list[str]:
    """Every violated associativity or unit identity, as readable strings."""
    p, d = a.p, a.dim
    out: list[str] = []
    m = a.mult.a
    eye = np.eye(d, dtype=np.int64)
    # (e_i e_j) e_k vs e_i (e_j e_k), all triples at once
    lhs = mul_mod(m, np.kron(m, eye), p)
    rhs = mul_mod(m, np.kron(eye, m), p)
    bad = np.argwhere(lhs != rhs)
    for l, col in bad:
        i, rem = divmod(int(col), d * d)
        j, k = divmod(rem, d)
        out.append(f"associativity fails at (i={i}, j={j}, k={k}, l={int(l)})")
    lu = a.left_mul(a.unit).a
    ru = a.right_mul(a.unit).a
    for i in range(d):
        if not np.array_equal(lu[:, i], eye[:, i]):
            out.append(f"left unit law fails at basis index {i}")
        if not np.array_equal(ru[:, i], eye[:, i]):
            out.append(f"right unit law fails at basis index {i}")
    return out


def validate(a: FinDimAlgebra) -> ValidationReport:
    failures = algebra_violations(a)
    return ValidationReport(ok=not failures, failures=failures)


class Extension:
    """An algebra inclusion B -> A, validated at construction.

    The inclusion is an explicit dim(A) x dim(B) matrix, so non-split
    embeddings such as GF(p) inside GF(p^2) are represented the same way
    as sub-basis inclusions.
    """

    __slots__ = ("ambient", "sub", "inclusion")

    def __init__(self, ambient: FinDimAlgebra, sub: FinDimAlgebra, inclusion: Matrix):
        if ambient.field != sub.field:
            raise AxiomError("ambient and subalgebra live over different fields")
        if inclusion.shape != (ambient.dim, sub.dim):
            raise AxiomError(
                f"inclusion shape {inclusion.shape}, expected {(ambient.dim, sub.dim)}"
            )
        p = ambient.p
        if rank_of(inclusion.a, p) != sub.dim:
            raise AxiomError("inclusion matrix is not injective")
        if not np.array_equal(inclusion.apply(sub.unit), ambient.unit):
            raise AxiomError("inclusion does not send the unit of B to the unit of A")
        images = inclusion.a.T  # row b = iota(e_b)
        for i in range(sub.dim):
            for j in range(sub.dim):
                want = inclusion.apply(sub.tensor[i, j])
                got = ambient.multiply(images[i], images[j])
                if not np.array_equal(got, want):
                    raise AxiomError(
                        f"inclusion is not multiplicative at basis pair (i={i}, j={j})"
                    )
        self.ambient = ambient
        self.sub = sub
        self.inclusion = inclusion

    @property
    def p(self) -> int:
        return self.ambient.p

    def sub_images(self) -> np.ndarray:
        """iota(b) for each B basis vector b, as rows."""
        return self.inclusion.a.T

    def __repr__(self):
        return f"Extension(dim A={self.ambient.dim}, dim B={self.sub.dim}, p={self.p})"


def centralizer(e: Extension) -> Subspace:
    """R = {a in A : a * iota(b) = iota(b) * a for all b}, echelon basis."""
    a = e.ambient
    blocks = []
    for b in e.sub_images():
        blocks.append((a.left_mul(b).a - a.right_mul(b).a) % a.p)
    return Subspace.from_spanning(a.p, a.dim, kernel_rows_with_free(np.vstack(blocks), a.p)[0])


def generating_indices(a: FinDimAlgebra) -> list[int]:
    """Basis indices whose elements generate the algebra, picked greedily.

    A basis element is picked when it lies outside the subalgebra that
    the unit and the earlier picks generate: the span of the words in the
    picks, reached from the unit by left multiplications.
    """
    p, d = a.p, a.dim
    eye = np.eye(d, dtype=np.int64)
    span = Subspace.from_spanning(p, d, a.unit.reshape(1, -1))
    picks: list[int] = []
    for i in range(d):
        if span.contains(eye[i]):
            continue
        picks.append(i)
        while True:
            words = [span.rows] + [mul_mod(span.rows, a.left_mul(eye[j]).a.T, p)
                                   for j in picks]
            grown = Subspace.from_spanning(p, d, np.vstack(words))
            if grown.dim == span.dim:
                break
            span = grown
    return picks


# ---------------------------------------------------------------------------
# example constructors


def one_dim_algebra(f: Field) -> FinDimAlgebra:
    return FinDimAlgebra(f, ("1",), [[[[0, 1]]]], [1])


def matrix_algebra(f: Field, n: int) -> FinDimAlgebra:
    """Full matrix algebra M_n; basis e_{rc} at index r*n + c."""
    d = n * n
    tensor = np.zeros((d, d, d), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    if b == c:
                        tensor[a * n + b, c * n + e, a * n + e] = 1
    unit = np.zeros(d, dtype=np.int64)
    for a in range(n):
        unit[a * n + a] = 1
    names = [f"e{r}{c}" for r in range(n) for c in range(n)]
    return FinDimAlgebra.from_tensor(f, names, tensor, unit)


def upper_triangular(f: Field, n: int) -> FinDimAlgebra:
    """Upper-triangular n x n matrices; basis e_{rc} for r <= c."""
    pairs = [(r, c) for r in range(n) for c in range(r, n)]
    index = {rc: t for t, rc in enumerate(pairs)}
    d = len(pairs)
    tensor = np.zeros((d, d, d), dtype=np.int64)
    for (a, b), i in index.items():
        for (c, e), j in index.items():
            if b == c:
                tensor[i, j, index[(a, e)]] = 1
    unit = np.zeros(d, dtype=np.int64)
    for a in range(n):
        unit[index[(a, a)]] = 1
    names = [f"e{r}{c}" for r, c in pairs]
    return FinDimAlgebra.from_tensor(f, names, tensor, unit)


def diagonal_algebra(f: Field, n: int) -> FinDimAlgebra:
    """k^n with componentwise product."""
    tensor = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        tensor[i, i, i] = 1
    names = [f"d{i}" for i in range(n)]
    return FinDimAlgebra.from_tensor(f, names, tensor, np.ones(n, dtype=np.int64))


def group_algebra(f: Field, table, names=None) -> FinDimAlgebra:
    """Group algebra k[G] from a full multiplication table.

    ``table[i][j]`` is the index of g_i g_j.  The table is checked to be
    an actual group (Latin square, two-sided identity, associativity).
    """
    n = len(table)
    tab = [[int(x) for x in row] for row in table]
    for i, row in enumerate(tab):
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise ValueError(f"invalid group table: row {i} is not a permutation range")
        if sorted(row) != list(range(n)):
            raise ValueError(f"invalid group table: row {i} repeats an element")
    for j in range(n):
        col = [tab[i][j] for i in range(n)]
        if sorted(col) != list(range(n)):
            raise ValueError(f"invalid group table: column {j} repeats an element")
    ident = None
    for e in range(n):
        if all(tab[e][j] == j and tab[j][e] == j for j in range(n)):
            ident = e
            break
    if ident is None:
        raise ValueError("invalid group table: no two-sided identity")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if tab[tab[i][j]][k] != tab[i][tab[j][k]]:
                    raise ValueError(
                        f"invalid group table: associativity fails at ({i},{j},{k})"
                    )
    tensor = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            tensor[i, j, tab[i][j]] = 1
    unit = np.zeros(n, dtype=np.int64)
    unit[ident] = 1
    if names is None:
        names = [f"g{i}" for i in range(n)]
    return FinDimAlgebra.from_tensor(f, names, tensor, unit)


def _poly_mod(coeffs, poly, p):
    """Residue of a coefficient list modulo a monic ``poly`` over GF(p)."""
    out = [c % p for c in coeffs]
    m = len(poly) - 1
    while len(out) > m:
        lead = out.pop()
        if lead:
            for t in range(m):
                out[len(out) - m + t] = (out[len(out) - m + t] - lead * poly[t]) % p
    out.extend([0] * (m - len(out)))
    return out


def _poly_is_irreducible(poly, p) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    m = len(poly) - 1
    if m < 1:
        return False
    for deg in range(1, m // 2 + 1):
        for tail in iproduct(range(p), repeat=deg):
            divisor = list(tail) + [1]
            # long division remainder
            rem = [c % p for c in poly]
            while len(rem) - 1 >= deg and any(rem):
                while rem and rem[-1] == 0:
                    rem.pop()
                if len(rem) - 1 < deg:
                    break
                shift = len(rem) - 1 - deg
                lead = rem[-1]
                for t in range(deg + 1):
                    rem[shift + t] = (rem[shift + t] - lead * divisor[t]) % p
            if not any(c % p for c in rem):
                return False
    return True


def field_ext_algebra(p: int, poly) -> FinDimAlgebra:
    """GF(p)[x]/(poly) for a monic irreducible ``poly`` (low-to-high coeffs)."""
    f = Field(p)
    poly = [int(c) % p for c in poly]
    if not poly or poly[-1] % p != 1:
        raise ValueError("polynomial must be monic (leading coefficient 1)")
    if not _poly_is_irreducible(poly, p):
        raise ValueError("polynomial is reducible over GF(%d)" % p)
    m = len(poly) - 1
    tensor = np.zeros((m, m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            prod = [0] * (i + j) + [1]
            tensor[i, j] = _poly_mod(prod, poly, p)
    unit = np.zeros(m, dtype=np.int64)
    unit[0] = 1
    names = ["1"] + [f"x{'' if t == 1 else t}" for t in range(1, m)]
    return FinDimAlgebra.from_tensor(f, names, tensor, unit)


# ---------------------------------------------------------------------------
# derived extensions


def subalgebra_on(a: FinDimAlgebra, span: Subspace, names=None) -> tuple[FinDimAlgebra, Matrix]:
    """Repackage a multiplicatively closed subspace as a standalone algebra.

    Returns the structure-constant algebra on the span's echelon basis
    together with the inclusion matrix back into ``a``.  Raises
    ElementNotInSpaceError if the span is not closed under the product
    or does not contain the unit.
    """
    rows = span.rows
    k = span.dim
    tensor = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            prod = a.multiply(rows[i], rows[j])
            coords = span.coords_of(prod)
            if coords is None:
                raise ElementNotInSpaceError(
                    f"product of span vectors {i} and {j} leaves the span"
                )
            tensor[i, j] = coords
    unit_coords = span.coords_of(a.unit)
    if unit_coords is None:
        raise ElementNotInSpaceError("span does not contain the unit")
    if names is None:
        names = [f"r{i}" for i in range(k)]
    sub = FinDimAlgebra.from_tensor(a.field, names, tensor, unit_coords)
    return sub, Matrix(a.p, rows.T)


def trivial_extension(a: FinDimAlgebra) -> Extension:
    """The extension k*1 -> A (B is the scalars)."""
    one = one_dim_algebra(a.field)
    return Extension(a, one, Matrix(a.p, a.unit.reshape(-1, 1)))


def self_extension(a: FinDimAlgebra) -> Extension:
    """The extension A -> A along the identity."""
    return Extension(a, a, Matrix.identity(a.p, a.dim))


# ---------------------------------------------------------------------------
# Hopf data


class HopfData:
    """A finite-dimensional bialgebra: algebra + coproduct + counit.

    ``coproduct`` is a dim^2 x dim matrix into the plain tensor square
    (row-major: index u*dim + v is e_u (x) e_v); ``counit`` is a 1 x dim
    row.  All bialgebra axioms the package relies on are verified here;
    the antipode is never used and is not stored.
    """

    __slots__ = ("algebra", "coproduct", "counit")

    def __init__(self, algebra: FinDimAlgebra, coproduct: Matrix, counit: Matrix):
        d, p = algebra.dim, algebra.p
        if coproduct.shape != (d * d, d):
            raise AxiomError(f"coproduct shape {coproduct.shape}, expected {(d * d, d)}")
        if counit.shape != (1, d):
            raise AxiomError(f"counit shape {counit.shape}, expected {(1, d)}")
        self.algebra = algebra
        self.coproduct = coproduct
        self.counit = counit
        problems = self._violations()
        if problems:
            raise AxiomError("bialgebra axioms fail: " + "; ".join(problems))

    def _violations(self) -> list[str]:
        a, cop, eps = self.algebra, self.coproduct.a, self.counit.a
        d, p = a.dim, a.p
        out = []
        eye = np.eye(d, dtype=np.int64)
        left = mul_mod(np.kron(cop, eye), cop, p)
        right = mul_mod(np.kron(eye, cop), cop, p)
        if not np.array_equal(left, right):
            out.append("coproduct is not coassociative")
        if not np.array_equal(mul_mod(np.kron(eps, eye), cop, p), eye):
            out.append("left counit law fails")
        if not np.array_equal(mul_mod(np.kron(eye, eps), cop, p), eye):
            out.append("right counit law fails")
        m = a.mult.a
        # Delta is an algebra map: Delta(xy) = Delta(x)Delta(y) with the
        # componentwise product on the tensor square (middle-swap shuffle)
        lhs = mul_mod(cop, m, p)
        dd = np.kron(cop, cop) % p
        dd = dd.reshape(d, d, d, d, d * d).transpose(0, 2, 1, 3, 4).reshape(d**4, d * d)
        rhs = mul_mod(np.kron(m, m), dd, p)
        if not np.array_equal(lhs, rhs):
            out.append("coproduct is not an algebra map")
        if not np.array_equal(mul_mod(eps, m, p), np.kron(eps, eps)):
            out.append("counit is not an algebra map")
        if not np.array_equal(mul_mod(cop, a.unit.reshape(-1, 1), p)[:, 0],
                              np.kron(a.unit, a.unit)):
            out.append("unit is not grouplike under the coproduct")
        if int(mul_mod(eps, a.unit.reshape(-1, 1), p)[0, 0]) != 1:
            out.append("counit does not send the unit to 1")
        return out

    def __repr__(self):
        return f"HopfData(p={self.algebra.p}, dim={self.algebra.dim})"


def group_hopf(f: Field, table, names=None) -> HopfData:
    """Group algebra with its standard Hopf structure Delta(g) = g (x) g."""
    a = group_algebra(f, table, names)
    d = a.dim
    cop = np.zeros((d * d, d), dtype=np.int64)
    for g in range(d):
        cop[g * d + g, g] = 1
    eps = np.ones((1, d), dtype=np.int64)
    return HopfData(a, Matrix(a.p, cop), Matrix(a.p, eps))


def dual_hopf(h: HopfData) -> HopfData:
    """The dual bialgebra on the dual basis.

    Multiplication of the dual is the transpose of the coproduct, the
    coproduct of the dual is the transpose of multiplication, the unit
    is the counit vector and the counit is the unit vector.
    """
    a = h.algebra
    d, p = a.dim, a.p
    mult_dual = h.coproduct.a.T           # d x d^2
    tensor = mult_dual.T.reshape(d, d, d)
    unit_dual = h.counit.a[0]
    names = [nm + "*" for nm in a.basis_names]
    dual_alg = FinDimAlgebra.from_tensor(a.field, names, tensor, unit_dual)
    rep = validate(dual_alg)
    if not rep.ok:
        raise AxiomError("dual multiplication fails algebra axioms: " + rep.failures[0])
    cop_dual = Matrix(p, a.mult.a.T)      # d^2 x d
    counit_dual = Matrix(p, a.unit.reshape(1, -1))
    return HopfData(dual_alg, cop_dual, counit_dual)
