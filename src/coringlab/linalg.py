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
* ``commutant``, the one solve for the common kernel of blocks
  kron(L, I) - kron(I, M): the balancing relations of a tensor product
  over a subring and the intertwining constraints of a bimodule-hom
  space both have this shape.  When every L and M is diagonal the
  kernel is read off the diagonals with no elimination; otherwise the
  blocks stream, one at a time, into one row reduction,
* ``QuotientSpace``, a (projection, section) pair with projection @
  section = identity, and ``descend``, the one well-definedness check
  (``induced_map`` goes through it).  A quotient built from a canonical
  kernel basis records its ``free`` columns: its section is the unit
  columns there and its projection is the identity on them, so
  ``descend`` is a gather plus a check of the other columns.  Any other
  pair (a tensor step read off a dual basis, say) descends through
  products by its section and projection.

Everything is deterministic: the RREF of a row span is unique, kernel
bases are the canonical free-column bases, and a quotient built from
one (``QuotientSpace.from_kernel``) lifts to the free-coordinate unit
representatives.
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
    """Exact (a @ b) % p for int64 residue matrices, or for stacks of them
    (3-D operands, multiplied slice by slice as ``np.matmul`` does)."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    inner = a.shape[-1]
    top = (p - 1) * (p - 1)
    # an empty inner dimension takes this path too, and gives zeros
    if inner * top < 2**53:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return np.rint(prod).astype(np.int64) % p
    out = 0
    step = max(1, _INT64_BUDGET // top)
    for lo in range(0, inner, step):
        out = (out + a[..., lo : lo + step] @ b[..., lo : lo + step, :]) % p
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

    def kernel(self) -> tuple[np.ndarray, list[int]]:
        """The kernel basis of the rows, as ``kernel_rows_with_free``."""
        return _kernel_of_rref(self.rows, self.pivots, self.ncols, self.p)


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
    return _kernel_of_rref(*rref_rows(a, p), a.shape[1], p)


def _kernel_of_rref(rows: np.ndarray, pivots: Sequence[int], ncols: int,
                    p: int) -> tuple[np.ndarray, list[int]]:
    """The kernel basis of ``kernel_rows_with_free`` from an RREF."""
    piv_set = set(pivots)
    free = [c for c in range(ncols) if c not in piv_set]
    k = np.zeros((len(free), ncols), dtype=np.int64)
    k[range(len(free)), free] = 1
    if len(pivots):
        k[:, list(pivots)] = (-rows[:, free].T) % p
    return k, free


def commutant(p: int, dim_left: int, dim_right: int, pairs) -> tuple[np.ndarray, list[int]]:
    """The common kernel of the blocks kron(L, I) - kron(I, M), one per
    (L, M) in the list ``pairs``, as ``kernel_rows_with_free`` gives it.

    When every L and M is diagonal mod p the kernel is the unit vectors
    that ``diagonal_kept`` finds, with ``free`` their positions: RREF is
    canonical, so these are the rows a reduction would give.  Otherwise
    the nonzero blocks stream, one at a time, into one reduction.
    """
    kept = diagonal_kept(p, dim_left, dim_right, pairs)
    if kept is not None:
        free = np.flatnonzero(kept)
        rows = np.zeros((free.size, kept.size), dtype=np.int64)
        rows[np.arange(free.size), free] = 1
        return rows, free.tolist()
    eye_l = np.eye(dim_left, dtype=np.int64)
    eye_r = np.eye(dim_right, dtype=np.int64)
    acc = RrefAccumulator(dim_left * dim_right, p)
    for left, right in pairs:
        block = (np.kron(left, eye_r) - np.kron(eye_l, right)) % p
        if block.any():
            acc.add(block)
    return acc.kernel()


def diagonal_kept(p: int, dim_left: int, dim_right: int, pairs) -> np.ndarray | None:
    """The kernel of the blocks kron(L, I) - kron(I, M), one per (L, M)
    in ``pairs``, when every L and M is diagonal mod p; None otherwise.

    Each block is then diagonal, with entry L[l, l] - M[m, m] at index
    l * dim_right + m, so its kernel is spanned by unit vectors.  The
    result is the boolean mask of the coordinates where every block's
    entry vanishes.
    """
    kept = np.ones((dim_left, dim_right), dtype=bool)
    for left, right in pairs:
        dl, dr = _diagonal_of(left, p), _diagonal_of(right, p)
        if dl is None or dr is None:
            return None
        kept &= dl[:, None] == dr[None, :]
    return kept.reshape(-1)


def _diagonal_of(m, p: int) -> np.ndarray | None:
    """The diagonal of a square matrix mod p, or None if an entry off it
    is nonzero mod p."""
    m = np.asarray(m, dtype=np.int64) % p
    diag = np.diagonal(m)
    if np.count_nonzero(m) != np.count_nonzero(diag):
        return None
    return diag


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

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

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
    """A quotient of GF(p)^ambient, held as a retract of it.

    ``projection`` (dim x ambient) and ``section`` (ambient x dim)
    satisfy projection @ section = identity; the relations are the
    kernel of the projection, and section @ projection fixes the
    section's image and kills that kernel.  ``from_kernel`` builds the
    pair from a canonical kernel basis and records its ``free`` columns
    (an int array, or None for a pair built otherwise): there the
    projection is the identity and the section has its unit columns.
    """

    __slots__ = ("p", "projection", "section", "free")

    def __init__(self, p: int, projection: Matrix, section: Matrix, free=None):
        self.p = p
        self.projection = projection
        self.section = section
        self.free = free

    @classmethod
    def from_kernel(cls, p: int, rows: np.ndarray, free) -> "QuotientSpace":
        """The projection is a canonical kernel basis (``rows``, with the
        identity at the ``free`` columns); the section lifts to the unit
        representatives on those columns."""
        free = np.asarray(free, dtype=np.int64)
        sect = np.zeros((rows.shape[1], free.size), dtype=np.int64)
        sect[free, np.arange(free.size)] = 1
        return cls(p, Matrix(p, rows), Matrix(p, sect), free)

    @property
    def ambient_dim(self) -> int:
        return self.projection.cols

    @property
    def dim(self) -> int:
        return self.projection.rows

    def project(self, v) -> np.ndarray:
        return self.projection.apply(v)

    def __repr__(self):
        return f"QuotientSpace(p={self.p}, ambient={self.ambient_dim}, dim={self.dim})"


def quotient_of(ambient_dim: int, relations: Subspace) -> QuotientSpace:
    """Quotient of GF(p)^ambient_dim by the span of ``relations``: the
    projection is the canonical kernel basis of their RREF."""
    if relations.ambient_dim != ambient_dim:
        raise ValueError(
            f"relations live in dim {relations.ambient_dim}, expected {ambient_dim}"
        )
    p = relations.p
    return QuotientSpace.from_kernel(
        p, *_kernel_of_rref(relations.rows, relations.pivots, ambient_dim, p))


def trivial_quotient(p: int, n: int) -> QuotientSpace:
    """The identity quotient (no relations): the kernel of nothing."""
    return QuotientSpace.from_kernel(p, np.eye(n, dtype=np.int64), range(n))


def induced_map(q_dom: QuotientSpace, q_cod: QuotientSpace, ambient_map: Matrix) -> Matrix:
    """Descend an ambient-space map to quotient coordinates: ``descend``
    of its composite with the codomain projection, which raises
    NotWellDefinedError unless the map sends every domain relation into
    the codomain relations."""
    if ambient_map.shape != (q_cod.ambient_dim, q_dom.ambient_dim):
        raise ValueError(
            f"ambient map shape {ambient_map.shape} does not match "
            f"({q_cod.ambient_dim}, {q_dom.ambient_dim})"
        )
    p = q_dom.p
    return Matrix(p, descend(q_dom, mul_mod(q_cod.projection.a, ambient_map.a, p)))


def descend(q: QuotientSpace, m: np.ndarray) -> np.ndarray:
    """h = m @ section, the map m (residues) on q's ambient read on
    quotient coordinates.  m kills the relations, ker(projection),
    exactly when h @ projection = m; otherwise NotWellDefinedError
    names the first ambient coordinate whose image differs from its
    representative's.

    When q records its ``free`` columns, h is m gathered at them, and
    h @ projection = m needs checking only off them, where the
    projection is not the identity; the failing coordinate is the same.
    """
    p = q.p
    if q.free is None:
        h = mul_mod(m, q.section.a, p)
        bad = (mul_mod(h, q.projection.a, p) != m).any(axis=0)
    else:
        h = m[:, q.free] % p
        rest = np.ones(q.ambient_dim, dtype=bool)
        rest[q.free] = False
        bad = np.empty(q.ambient_dim, dtype=bool)
        bad[q.free] = (h != m[:, q.free]).any(axis=0)
        bad[rest] = (mul_mod(h, q.projection.a[:, rest], p) != m[:, rest]).any(axis=0)
    if bad.any():
        col = int(np.flatnonzero(bad)[0])
        raise NotWellDefinedError(
            f"the map does not kill the relations: ambient coordinate {col} "
            f"and its representative have different images")
    return h
