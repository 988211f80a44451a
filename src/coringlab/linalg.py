"""Exact dense linear algebra over prime fields GF(p).

Every space in this package (tensor powers, hom spaces, cochain groups)
is a coordinate space over GF(p) with 2 <= p < 2**31, and every map is a
dense int64 matrix of residues in [0, p), which stay residues: each
kernel reduces once, ``Matrix._wrap`` holds its output as it is, and
only ``Matrix(p, data)`` reduces, for arrays from outside.  Primitives:

* ``mul_mod`` -- exact matrix products.  When ``inner * (p-1)**2 < 2**53``
  the product is computed in float64 (BLAS): every term and partial sum
  is then an integer below 2**53, which float64 holds exactly, so the
  result needs no rounding, only a cast back and one ``% p``.  Otherwise
  it falls back to chunked int64 accumulation.  Both paths are exact for
  every supported prime, and this is the one exactness decision: no
  other module converts residues to floating point.
* reduced row echelon forms with deterministic first-nonzero pivoting,
  each pivot step touching only the columns from the pivot on, and an
  incremental accumulator for large relation spans,
* kernels and inverses,
* ``span_coords``, the one coordinate reader, for a basis with the
  identity at known columns; ``Subspace`` is a space held in one (the
  centralizer, each hom space of ``homspaces``),
* ``commutant``, the one solve for the common kernel of blocks
  kron(L, I) - kron(I, M): the balancing relations of a tensor product
  over a subring and the intertwining constraints of a bimodule-hom
  space both have this shape.  When every L and M is diagonal the
  kernel is ``kept_rows`` of the diagonals, which a diagonal tower
  keeps, so it scans no matrix; otherwise the blocks stream, one at a
  time, into one row reduction,
* ``QuotientSpace``, a (projection, section) pair with projection @
  section = identity, and ``descend``, the one well-definedness check
  (``induced_map`` goes through it).  A quotient built from a canonical
  kernel basis records its ``free`` columns: its section is the unit
  columns there and its projection is the identity on them, so
  ``descend`` reads the map's rows with ``span_coords``.  A tensor step
  read off a dual basis is a ``DualStep``, held as the data that
  defines it: ``project`` and ``descend`` apply it blockwise, and form
  neither its projection nor its section.
* a selection, a basis of unit rows at its identity columns (as
  ``commutant``'s diagonal path gives), is held, like a ``DualStep``, as
  its data: the kept indices.  A quotient or subspace recognizes one from
  its rows (``selection``); there ``project`` is ``xs[free]``, ``descend``
  is ``m[:, free]`` once m vanishes off ``free``, and ``span_coords``
  checks members with no product.

A build or an axiom check that would form a dense array above
``RELATION_ENTRY_BUDGET`` entries refuses first, through
``check_entries``.

Everything is deterministic: the RREF of a row span is unique, kernel
bases are the canonical free-column bases, and a quotient built from
one (``QuotientSpace.from_kernel``) lifts to the free-coordinate unit
representatives.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ElementNotInSpaceError, NotWellDefinedError, SizeLimitError

_INT64_BUDGET = 2**62

# Entries of the largest dense array a build or an axiom check may form:
# 0.8 GB as int64.  The largest tower step in use is the fourth power of
# the filled triangle's 19-dim incidence algebra over its 6 generating
# vertex idempotents (ambient 61 * 19, about 8.1e6 entries, gs-compare
# --max-degree 3); the fourth power of an 11-dim algebra over the ground
# field (ambient 11**4, about 2.1e8) is refused, and so are the d**4
# entries of the associativity check of an algebra of dimension d > 100.
RELATION_ENTRY_BUDGET = 10**8

# rows an ``RrefAccumulator`` reduces and echelonizes at once
RREF_CHUNK = 768


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


def check_entries(entries: int, budget: int, what: str) -> None:
    """Raise SizeLimitError before forming an array of ``entries``
    entries above ``budget``; ``what`` names the array."""
    if entries > budget:
        raise SizeLimitError(
            f"{what} of about {entries:.2e} entries, over the budget of {budget:.0e}")


def mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p for int64 arrays of residues in [0, p), or for
    stacks of them (3-D operands, multiplied slice by slice as
    ``np.matmul`` does); any strides will do.  The result is a fresh
    int64 array of residues."""
    inner = a.shape[-1]
    top = (p - 1) * (p - 1)
    # an empty inner dimension takes this path too, and gives zeros
    if inner * top < 2**53:
        # exact in float64: every partial sum is an integer below 2**53
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        out %= p
        return out
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
        below = a[r:, col].nonzero()[0]
        if below.size == 0:
            continue
        k = r + int(below[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        row = a[r, col:]    # rows r.. are zero left of col: work from col on
        if row[0] != 1:
            row[:] = row * pow(int(row[0]), p - 2, p) % p
        hit = a[:, col].nonzero()[0]
        hit = hit[hit != r]
        if hit.size:
            a[hit, col:] = (a[hit, col:] - np.outer(a[hit, col], row)) % p
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

    def __init__(self, ncols: int, p: int):
        self.p = p
        self.ncols = ncols
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: list[int] = []

    def add(self, block) -> None:
        block = np.atleast_2d(np.asarray(block, dtype=np.int64)) % self.p
        if block.shape[0] == 0:
            return
        if block.shape[1] != self.ncols:
            raise ValueError(f"expected {self.ncols} columns, got {block.shape[1]}")
        for lo in range(0, block.shape[0], RREF_CHUNK):
            self._add_chunk(block[lo : lo + RREF_CHUNK])

    def _add_chunk(self, c: np.ndarray) -> None:
        p = self.p
        if self.pivots:
            coef = c[:, self.pivots]
            if coef.any():
                c = (c - mul_mod(coef, self.rows, p)) % p
        if not c.any():     # the chunk lies in the span already
            return
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

    When every L and M is diagonal mod p the kernel is read off their
    diagonals (``diagonal_kept``); otherwise the nonzero blocks stream,
    one at a time, into one reduction.
    """
    kept = diagonal_kept(p, dim_left, dim_right, pairs)
    if kept is not None:
        return kept
    eye_l = np.eye(dim_left, dtype=np.int64)
    eye_r = np.eye(dim_right, dtype=np.int64)
    acc = RrefAccumulator(dim_left * dim_right, p)
    for left, right in pairs:
        block = (np.kron(left, eye_r) - np.kron(eye_l, right)) % p
        if block.any():
            acc.add(block)
    return acc.kernel()


def diagonal_kept(p: int, dim_left: int, dim_right: int, pairs) -> tuple[np.ndarray, list[int]] | None:
    """``commutant``'s kernel when every L and M in ``pairs`` is diagonal
    mod p, from ``kept_rows`` of their diagonals; None otherwise.

    Each block is then diagonal, with entry L[l, l] - M[m, m] at index
    l * dim_right + m.
    """
    diagonals = [], []
    for pair in pairs:
        for side, m in zip(diagonals, pair):
            side.append(_diagonal_of(m, p))
            if side[-1] is None:
                return None
    lefts, rights = (np.array(side, dtype=np.int64) for side in diagonals)
    return kept_rows(lefts.reshape(-1, dim_left, 1), rights.reshape(-1, 1, dim_right))


def kept_rows(lefts: np.ndarray, rights: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The kernel of the blocks diag(lefts[g] - rights[g]), for stacks of
    diagonals that broadcast against each other: the unit vectors at the
    flattened coordinates where every g's entries agree, with ``free``
    their positions, the rows a reduction gives (RREF is canonical)."""
    kept = (lefts == rights).all(axis=0).reshape(-1)
    free = np.flatnonzero(kept)
    rows = np.zeros((free.size, kept.size), dtype=np.int64)
    rows[np.arange(free.size), free] = 1
    return rows, free.tolist()


def _diagonal_of(m, p: int) -> np.ndarray | None:
    """The diagonal of a square matrix mod p, or None if an entry off it
    is nonzero mod p."""
    m = np.asarray(m, dtype=np.int64) % p
    diag = np.diagonal(m)
    if np.count_nonzero(m) != np.count_nonzero(diag):
        return None
    return diag


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
    """Immutable dense matrix over GF(p): ``a`` is a read-only 2-D int64
    array of residues.  The constructor reduces whatever it is given."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, data):
        self.p = p
        a = np.atleast_2d(np.asarray(data, dtype=np.int64)) % p
        a.setflags(write=False)
        self.a = a

    @classmethod
    def _wrap(cls, p: int, a: np.ndarray) -> "Matrix":
        """A matrix on ``a``, a 2-D int64 array of residues (a kernel's output, or
        a slice or stack of matrices), as a read-only view: not copied or reduced."""
        m = cls.__new__(cls)
        m.p, m.a = p, a.view()
        m.a.setflags(write=False)
        return m

    @classmethod
    def identity(cls, p: int, n: int) -> "Matrix":
        return cls._wrap(p, np.eye(n, dtype=np.int64))

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
        return Matrix._wrap(self.p, mul_mod(self.a, other.a, self.p))

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


def _is_selection(rows: np.ndarray, at) -> bool:
    """Whether ``rows`` (residues) are the unit vectors at the columns
    ``at``, in order: a selection of plain coordinates."""
    return (at is not None and np.count_nonzero(rows) == len(at)
            and bool((rows[np.arange(len(at)), at] == 1).all()))


def span_coords(rows: np.ndarray | None, at, xs: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the rows of ``xs`` in the span of ``rows``, a basis
    with the identity at the columns ``at`` (RREF rows at their pivots,
    kernel rows at their free columns): a member's entries there, checked
    on the other columns with one product, or, for rows None, the unit
    vectors at ``at`` (a selection), by their vanishing there.  Returns
    them, k x dim, and the k x n mask of the entries where a row and its
    combination differ; a row is a member exactly when its row of the
    mask is all False."""
    at = np.asarray(at, dtype=np.intp)
    coords = xs[:, at] % p
    rest = np.ones(xs.shape[1], dtype=bool)
    rest[at] = False
    off = np.empty(xs.shape, dtype=bool)
    off[:, at] = coords != xs[:, at]
    off[:, rest] = (0 if rows is None else mul_mod(coords, rows[:, rest], p)) != xs[:, rest]
    return coords, off


class Subspace:
    """A subspace of GF(p)^n in a canonical basis: ``rows[i]`` is the
    i-th basis vector, and the rows carry the identity at the columns
    ``at`` (an int array), the pivots of an RREF or the free columns of a
    kernel basis, where ``span_coords`` reads a member's coordinates;
    with no product when the rows are unit vectors (``selection``)."""

    __slots__ = ("p", "rows", "at", "selection")

    def __init__(self, p: int, rows: np.ndarray, at):
        self.p = p
        r = np.ascontiguousarray(rows, dtype=np.int64) % p
        r.setflags(write=False)
        self.rows = r
        self.at = np.asarray(at, dtype=np.int64)
        self.selection = _is_selection(r, self.at)

    @classmethod
    def from_spanning(cls, p: int, ambient_dim: int, vectors) -> "Subspace":
        """Subspace spanned by the given vectors (rows), in RREF."""
        vectors = np.asarray(vectors, dtype=np.int64)
        if vectors.size == 0:
            vectors = vectors.reshape(0, ambient_dim)
        vectors = np.atleast_2d(vectors)
        if vectors.shape[1] != ambient_dim:
            raise ValueError(f"vectors live in dim {vectors.shape[1]}, expected {ambient_dim}")
        return cls(p, *rref_rows(vectors, p))

    @property
    def ambient_dim(self) -> int:
        return self.rows.shape[1]

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def coords(self, xs: np.ndarray, what: str) -> np.ndarray:
        """The coordinates of the rows of xs (residues), as rows; raises
        ElementNotInSpaceError(what) unless every row is a member."""
        coords, off = span_coords(None if self.selection else self.rows, self.at, xs, self.p)
        if off.any():
            raise ElementNotInSpaceError(what)
        return coords

    def coords_of(self, v):
        """The coordinates of the vector v, or None if it is not a member."""
        v = np.asarray(v, dtype=np.int64).reshape(1, -1) % self.p
        coords, off = span_coords(None if self.selection else self.rows, self.at, v, self.p)
        return None if off.any() else coords[0]

    def __repr__(self):
        return f"Subspace(p={self.p}, ambient={self.ambient_dim}, dim={self.dim})"


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = np.hstack([m.a, np.eye(n, dtype=np.int64)])
    piv = _rref_inplace(aug, m.p, col_stop=n)
    if len(piv) != n:
        raise ValueError("matrix is singular")
    # a copy: a view of the augmented half would keep all of aug
    return Matrix._wrap(m.p, aug[:, n:].copy())


def rank_of(a: np.ndarray, p: int) -> int:
    return len(rref_rows(a, p)[1])


class QuotientSpace:
    """A quotient of GF(p)^ambient, held as a retract of it.

    ``projection`` (dim x ambient) and ``section`` (ambient x dim)
    satisfy projection @ section = identity; the relations are the
    kernel of the projection, and section @ projection fixes the
    section's image and kills that kernel.  ``from_kernel`` builds the
    pair from a canonical kernel basis and records its ``free`` columns
    (an int array): there the projection is the identity and the section
    has its unit columns.  When the projection's rows are unit vectors
    as well, the quotient is a ``selection`` of the plain coordinates at
    ``free``.  A ``DualStep`` holds no pair.
    """

    __slots__ = ("p", "projection", "section", "free", "dim", "ambient_dim", "selection")

    def __init__(self, p: int, projection: Matrix, section: Matrix, free):
        self.p = p
        self.projection = projection
        self.section = section
        self.free = free
        self.dim, self.ambient_dim = projection.shape
        self.selection = _is_selection(projection.a, free)

    @classmethod
    def from_kernel(cls, p: int, rows: np.ndarray, free) -> "QuotientSpace":
        """The projection is a canonical kernel basis (``rows``, with the
        identity at the ``free`` columns); the section lifts to the unit
        representatives on those columns."""
        free = np.asarray(free, dtype=np.int64)
        sect = np.zeros((rows.shape[1], free.size), dtype=np.int64)
        sect[free, np.arange(free.size)] = 1
        return cls(p, Matrix._wrap(p, rows), Matrix._wrap(p, sect), free)

    def project(self, xs) -> np.ndarray:
        """The projection of the vector xs, or of each column of xs."""
        xs = np.asarray(xs, dtype=np.int64) % self.p
        out = self._project(xs.reshape(self.ambient_dim, int(np.prod(xs.shape[1:]))))
        return out.reshape((self.dim,) + xs.shape[1:])

    def _project(self, xs: np.ndarray) -> np.ndarray:
        return xs[self.free] if self.selection else mul_mod(self.projection.a, xs, self.p)

    def __repr__(self):
        return f"QuotientSpace(p={self.p}, ambient={self.ambient_dim}, dim={self.dim})"


class DualStep(QuotientSpace):
    """V ⊗_R C for a carrier C free over R on the columns w_j of ``w``
    (c x m), held as the data that defines it: the coordinate maps
    ``phi``, the (m, dim R, c) array Φ of ``tensors.dual_basis``, and V's
    right actions ``rights``, the (dim R, d, d) array of x -> x·e_b, also
    side by side in ``across``, R_b[y, x] at [y, b·d + x].  The quotient
    is V^m, index j·d + y, of the plain product, index x·c + v: its
    projection is x ⊗ v -> (Σ_b Φ[j, b, v]·R_b·x)_j and its section sends
    (j, y) to e_y ⊗ w_j, neither formed as a matrix.
    """

    __slots__ = ("w", "phi", "rights", "across")

    def __init__(self, p: int, w: np.ndarray, phi: np.ndarray, rights: np.ndarray):
        self.p, self.free, self.selection, self.w, self.phi, self.rights = p, None, False, w, phi, rights
        (c, m), d = w.shape, rights.shape[1]
        self.across = rights.transpose(1, 0, 2).reshape(d, -1)
        self.dim, self.ambient_dim = m * d, d * c

    def _project(self, xs: np.ndarray) -> np.ndarray:
        # t[(j, b), (x, i)] = Σ_v Φ[j, b, v]·xs[x·c + v, i], then Σ_{b, x} R_b[y, x]·t
        (m, r, c), d, k = self.phi.shape, len(self.across), xs.shape[1]
        t = mul_mod(self.phi.reshape(m * r, c), xs.reshape(d, c, k).transpose(1, 0, 2).reshape(c, d * k), self.p)
        t = mul_mod(self.across, t.reshape(m, r, d, k).transpose(1, 2, 0, 3).reshape(r * d, m * k), self.p)
        return t.reshape(d, m, k).transpose(1, 0, 2)


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
    return Matrix._wrap(q_dom.p, descend(q_dom, q_cod.project(ambient_map.a)))


def descend(q: QuotientSpace, m: np.ndarray) -> np.ndarray:
    """h = m @ section, the map m (residues) on q's ambient read on
    quotient coordinates.  m kills the relations, ker(projection),
    exactly when h @ projection = m; otherwise NotWellDefinedError
    names the first ambient coordinate whose image differs from its
    representative's.

    When q records its ``free`` columns, its projection is a canonical
    basis with the identity there, and h is ``span_coords`` of m's rows:
    on a selection, m[:, free], once m vanishes off ``free``.
    On a ``DualStep``, h at (j, y) is m at e_y ⊗ w_j, and h @ projection
    at x ⊗ v is Σ_{j, b} Φ[j, b, v]·(h_j R_b)[:, x].
    """
    p = q.p
    if isinstance(q, DualStep):
        (k, r, c), rows, d = q.phi.shape, m.shape[0], len(q.across)
        h = mul_mod(m.reshape(rows * d, c), q.w, p).reshape(rows, d, k).transpose(0, 2, 1)
        # (h_j R_b)[i, x] at [i, x, (j, b)], then against Φ
        back = mul_mod(h.reshape(rows * k, d), q.across, p).reshape(rows, k, r, d).transpose(0, 3, 1, 2)
        back = mul_mod(back.reshape(rows * d, k * r), q.phi.reshape(k * r, c), p)
        h = h.reshape(rows, k * d)
        bad = (back.reshape(rows, d * c) != m).any(axis=0)
    else:
        h, off = span_coords(None if q.selection else q.projection.a, q.free, m, p)
        bad = off.any(axis=0)
    if bad.any():
        col = int(np.flatnonzero(bad)[0])
        raise NotWellDefinedError(
            f"the map does not kill the relations: ambient coordinate {col} "
            f"and its representative have different images")
    return h
