"""Exact dense linear algebra over prime fields GF(p).

Every space in this package (tensor powers, hom spaces, cochain groups)
is a coordinate space over GF(p) with 2 <= p < 2**31, and every map is a
dense integer matrix of residues.  This module supplies the primitives:

* ``mul_mod`` -- exact matrix products.  When ``inner * (p-1)**2 < 2**53``
  the product is computed in float64 (BLAS) and rounded back, which is
  exact integer arithmetic; otherwise it falls back to chunked int64
  accumulation.  Both paths are exact for every supported prime.
* reduced row echelon forms with deterministic first-nonzero pivoting,
  including an incremental accumulator for large relation spans,
* kernels and inverses,
* ``QuotientSpace`` with an explicit projection/section pair, and
  ``induced_map``/``descend`` with a mandatory well-definedness check.

Everything is deterministic: the RREF of a row span is unique, kernel
bases are the canonical free-column bases, and sections pick the
free-coordinate unit representatives.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NotWellDefinedError

_INT64_BUDGET = 2**62


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3_215_031_751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"field characteristic must be an integer, got {p!r}")
    if not (2 <= p < 2**31):
        raise ValueError(f"field characteristic must satisfy 2 <= p < 2**31, got {p}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p for int64 residue matrices."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    inner = a.shape[-1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    top = (p - 1) * (p - 1)
    if inner * top < 2**53:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return np.rint(prod).astype(np.int64) % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    step = max(1, _INT64_BUDGET // top)
    for lo in range(0, inner, step):
        out = (out + a[:, lo : lo + step] @ b[lo : lo + step, :]) % p
    return out


def _rref_inplace(a: np.ndarray, p: int, col_stop: int | None = None) -> list[int]:
    """Gauss-Jordan in place; first-nonzero pivoting; returns pivot columns.

    Only columns < col_stop are eligible as pivots (used for augmented
    systems).  After the call rows [0:rank] hold the RREF and the rest
    are zero up to col_stop (trailing augmented columns may be nonzero).
    """
    m, n = a.shape
    stop = n if col_stop is None else col_stop
    piv: list[int] = []
    r = 0
    for col in range(stop):
        if r == m:
            break
        below = np.flatnonzero(a[r:, col])
        if below.size == 0:
            continue
        k = r + int(below[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        lead = int(a[r, col])
        if lead != 1:
            a[r] = a[r] * pow(lead, p - 2, p) % p
        hit = np.flatnonzero(a[:, col])
        hit = hit[hit != r]
        if hit.size:
            a[hit] = (a[hit] - np.outer(a[hit, col], a[r])) % p
        piv.append(col)
        r += 1
    return piv


class RrefAccumulator:
    """Incremental RREF basis of a growing row span.

    Rows are inserted in chunks: each chunk is first reduced against the
    accumulated basis with one BLAS-backed product, then echelonized, and
    the existing basis is back-substituted against the new pivots.  The
    result is the canonical RREF of the whole span regardless of insertion
    order (RREF of a row space is unique).
    """

    def __init__(self, ncols: int, p: int, chunk: int = 768):
        self.p = p
        self.ncols = ncols
        self.chunk = chunk
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: list[int] = []

    def add(self, block) -> None:
        block = np.atleast_2d(np.asarray(block, dtype=np.int64)) % self.p
        if block.shape[0] == 0:
            return
        if block.shape[1] != self.ncols:
            raise ValueError(f"expected {self.ncols} columns, got {block.shape[1]}")
        for lo in range(0, block.shape[0], self.chunk):
            self._add_chunk(block[lo : lo + self.chunk].copy())

    def _add_chunk(self, c: np.ndarray) -> None:
        p = self.p
        if self.pivots:
            coef = c[:, self.pivots]
            if coef.any():
                c = (c - mul_mod(coef, self.rows, p)) % p
        new_piv = _rref_inplace(c, p)
        if not new_piv:
            return
        c = c[: len(new_piv)]
        if self.pivots:
            coef = self.rows[:, new_piv]
            if coef.any():
                self.rows = (self.rows - mul_mod(coef, c, p)) % p
        merged = self.pivots + new_piv
        order = np.argsort(np.asarray(merged), kind="stable")
        self.rows = np.vstack([self.rows, c])[order]
        self.pivots = [merged[i] for i in order]

    def result(self) -> tuple[np.ndarray, tuple[int, ...]]:
        return self.rows, tuple(self.pivots)


def rref_rows(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Canonical RREF (nonzero rows only) of the row space of ``a``."""
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    acc = RrefAccumulator(a.shape[1], p)
    acc.add(a)
    return acc.result()


def kernel_rows_with_free(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Canonical kernel basis plus its identity (free-column) positions.

    Row t has a 1 in the t-th free column and zeros in the other free
    columns, so a kernel member's coordinates in this basis are just its
    entries at the free positions.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    n = a.shape[1]
    rows, piv = rref_rows(a, p)
    piv_set = set(piv)
    free = [c for c in range(n) if c not in piv_set]
    k = np.zeros((len(free), n), dtype=np.int64)
    for t, f in enumerate(free):
        k[t, f] = 1
        if piv:
            k[t, list(piv)] = (-rows[:, f]) % p
    return k, free


def kernel_rows(a: np.ndarray, p: int) -> np.ndarray:
    return kernel_rows_with_free(a, p)[0]


def free_columns(ncols: int, pivots: Sequence[int]) -> list[int]:
    piv_set = set(pivots)
    return [c for c in range(ncols) if c not in piv_set]


def member_coords(basis_rows: np.ndarray, positions: Sequence[int], x: np.ndarray, p: int):
    """Coordinates of ``x`` in a basis with identity pattern at ``positions``.

    Works for both canonical basis shapes used in this package: RREF rows
    (identity at the pivot columns) and kernel rows (identity at the free
    columns).  Returns None when ``x`` is not in the span.
    """
    x = np.asarray(x, dtype=np.int64) % p
    coords = x[list(positions)]
    back = mul_mod(coords.reshape(1, -1), basis_rows, p)[0] if len(positions) else np.zeros_like(x)
    if not np.array_equal(back, x):
        return None
    return coords


class Field:
    """A prime field GF(p), validated at construction."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = check_prime(p)

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.p})"


class Matrix:
    """Immutable dense matrix over GF(p)."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, data):
        self.p = p
        a = np.atleast_2d(np.asarray(data, dtype=np.int64)) % p
        a.setflags(write=False)
        self.a = a

    @classmethod
    def identity(cls, p: int, n: int) -> "Matrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.p != other.p:
            raise ValueError("field mismatch")
        return Matrix(self.p, mul_mod(self.a, other.a, self.p))

    def apply(self, v) -> np.ndarray:
        """Matrix-vector product on a coordinate vector."""
        v = np.asarray(v, dtype=np.int64) % self.p
        return mul_mod(self.a, v.reshape(-1, 1), self.p)[:, 0]

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.p == self.p
            and other.a.shape == self.a.shape
            and np.array_equal(other.a, self.a)
        )

    def __repr__(self):
        return f"Matrix(p={self.p}, shape={self.a.shape})"


class Subspace:
    """A subspace of GF(p)^n held as canonical RREF rows.

    ``rows[i]`` is the i-th basis vector; ``pivots`` are its leading
    columns.  Because the rows are an RREF, the coordinates of a member
    vector are simply its entries at the pivot positions.
    """

    __slots__ = ("p", "ambient_dim", "rows", "pivots")

    def __init__(self, p: int, ambient_dim: int, rows: np.ndarray, pivots: tuple[int, ...]):
        self.p = p
        self.ambient_dim = ambient_dim
        r = np.ascontiguousarray(rows, dtype=np.int64) % p
        r.setflags(write=False)
        self.rows = r
        self.pivots = tuple(int(c) for c in pivots)

    @classmethod
    def from_spanning(cls, p: int, ambient_dim: int, vectors) -> "Subspace":
        """Subspace spanned by the given vectors (rows)."""
        vectors = np.asarray(vectors, dtype=np.int64)
        if vectors.size == 0:
            vectors = vectors.reshape(0, ambient_dim)
        vectors = np.atleast_2d(vectors)
        if vectors.shape[1] != ambient_dim:
            raise ValueError(f"vectors live in dim {vectors.shape[1]}, expected {ambient_dim}")
        rows, piv = rref_rows(vectors, p)
        return cls(p, ambient_dim, rows, piv)

    @classmethod
    def zero(cls, p: int, ambient_dim: int) -> "Subspace":
        return cls(p, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64), ())

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @property
    def basis(self) -> Matrix:
        """Basis vectors as matrix columns."""
        return Matrix(self.p, self.rows.T)

    def reduce(self, v) -> np.ndarray:
        """Residual of v after subtracting its component in this subspace."""
        v = np.asarray(v, dtype=np.int64) % self.p
        if self.dim == 0:
            return v
        coef = v[list(self.pivots)]
        return (v - mul_mod(coef.reshape(1, -1), self.rows, self.p)[0]) % self.p

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    def coords_of(self, v):
        return member_coords(self.rows, self.pivots, np.asarray(v), self.p)

    def __repr__(self):
        return f"Subspace(p={self.p}, ambient={self.ambient_dim}, dim={self.dim})"


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = np.hstack([m.a, np.eye(n, dtype=np.int64)]).copy()
    piv = _rref_inplace(aug, m.p, col_stop=n)
    if len(piv) != n:
        raise ValueError("matrix is singular")
    return Matrix(m.p, aug[:, n:])


def rank_of(a: np.ndarray, p: int) -> int:
    return len(rref_rows(a, p)[1])


class QuotientSpace:
    """GF(p)^ambient modulo a relation subspace.

    ``projection`` (quotient x ambient) and ``section`` (ambient x
    quotient) satisfy projection @ section = identity and
    projection @ (any relation vector) = 0.  The section lifts quotient
    coordinates to the canonical representatives supported on the free
    (non-pivot) columns of the relation RREF.
    """

    __slots__ = ("p", "ambient_dim", "relations", "projection", "section", "free")

    def __init__(self, p: int, ambient_dim: int, relations: Subspace,
                 projection: Matrix, section: Matrix, free: tuple[int, ...]):
        self.p = p
        self.ambient_dim = ambient_dim
        self.relations = relations
        self.projection = projection
        self.section = section
        self.free = free

    @property
    def dim(self) -> int:
        return self.projection.rows

    def project(self, v) -> np.ndarray:
        return self.projection.apply(v)

    def lift(self, q) -> np.ndarray:
        return self.section.apply(q)

    def __repr__(self):
        return f"QuotientSpace(p={self.p}, ambient={self.ambient_dim}, dim={self.dim})"


def quotient_of(ambient_dim: int, relations: Subspace) -> QuotientSpace:
    """Quotient of GF(p)^ambient_dim by the span of ``relations``."""
    if relations.ambient_dim != ambient_dim:
        raise ValueError(
            f"relations live in dim {relations.ambient_dim}, expected {ambient_dim}"
        )
    p = relations.p
    free = free_columns(ambient_dim, relations.pivots)
    q = len(free)
    proj = np.zeros((q, ambient_dim), dtype=np.int64)
    proj[range(q), free] = 1
    if relations.dim:
        proj[:, list(relations.pivots)] = (-relations.rows[:, free].T) % p
    sect = np.zeros((ambient_dim, q), dtype=np.int64)
    sect[free, range(q)] = 1
    return QuotientSpace(p, ambient_dim, relations, Matrix(p, proj), Matrix(p, sect),
                         tuple(free))


def trivial_quotient(p: int, n: int) -> QuotientSpace:
    """The identity quotient (no relations)."""
    return quotient_of(n, Subspace.zero(p, n))


def induced_map(q_dom: QuotientSpace, q_cod: QuotientSpace, ambient_map: Matrix) -> Matrix:
    """Descend an ambient-space map to quotient coordinates.

    Verifies first that the map sends every domain relation into the
    codomain relation span; this check is mandatory and raising
    NotWellDefinedError is the only alternative to a correct descent.
    """
    p = q_dom.p
    if ambient_map.shape != (q_cod.ambient_dim, q_dom.ambient_dim):
        raise ValueError(
            f"ambient map shape {ambient_map.shape} does not match "
            f"({q_cod.ambient_dim}, {q_dom.ambient_dim})"
        )
    projected = ambient_map.a
    if q_cod.relations.dim:
        projected = mul_mod(q_cod.projection.a, projected, p)
    return Matrix(p, descend(q_dom, projected))


def descend(q_dom: QuotientSpace, projected: np.ndarray) -> np.ndarray:
    """Quotient-coordinate matrix of a map from q_dom's ambient whose
    values are already in codomain coordinates.

    The map descends exactly when it kills every relation of q_dom; that
    check is the same mandatory one ``induced_map`` makes, and its
    failure raises NotWellDefinedError.
    """
    p = q_dom.p
    rel = q_dom.relations
    # the section is the unit vectors at the free coordinates, and each
    # relation row is a unit vector at its pivot plus free-column entries
    on_free = projected[:, list(q_dom.free)]
    if rel.dim:
        residual = (projected[:, list(rel.pivots)]
                    + mul_mod(on_free, rel.rows[:, list(q_dom.free)].T, p)) % p
        if residual.any():
            bad = int(np.flatnonzero(residual.any(axis=0))[0])
            raise NotWellDefinedError(
                f"relation vector {bad} maps outside the codomain relations"
            )
    return on_free % p
