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
  centralizer, the hom spaces of ``homspaces``),
* ``commutant``, the one reduction for the common kernel of blocks
  kron(L, I) - kron(I, M): the balancing relations of a tensor product
  over a subring and the intertwining constraints of a bimodule-hom
  space both have this shape.  The blocks stream, one at a time, into
  one row reduction.  ``orbit_kernel`` gives the same basis for
  monomial L and M by a union-find over the unknowns,
* one ``QuotientSpace`` type per coordinate system of a tower step,
  and ``descend``, the one well-definedness check (``induced_map`` goes
  through it): a ``Selection`` of plain coordinates, held as its kept
  indices and read by gathers, which serves as a ``Subspace`` too; a
  ``Reduction`` by a canonical kernel basis, read by ``span_coords``;
  a ``Dual`` step, held as the dual basis data that defines it and
  read blockwise; and a ``Monomial`` step, a dual step on a coset basis
  held as index arrays and read by gathers.  A ``tensors.TensorTower``
  picks one type, once.

A build or an axiom check that would form an array above
``RELATION_ENTRY_BUDGET`` entries refuses first, through
``check_entries``; each step type counts what its builds form
(``QuotientSpace.budget``).

Everything is deterministic: the RREF of a row span is unique, kernel
bases are the canonical free-column bases, and a ``Reduction`` by one,
like a ``Selection``, lifts to the free-coordinate unit representatives.
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


def relation_entries(n_blocks: int, ambient: int) -> int:
    """Entries of the largest dense matrix of a solve by relation blocks.

    The generators are ``n_blocks`` blocks of ``ambient`` rows, each
    ``ambient`` wide; with no generators the quotient's projection, at
    most ``ambient`` square, is the largest.
    """
    return max(n_blocks, 1) * ambient * ambient


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
    (L, M) in the list ``pairs``, as ``kernel_rows_with_free`` gives it:
    the nonzero blocks stream, one at a time, into one reduction."""
    eye_l = np.eye(dim_left, dtype=np.int64)
    eye_r = np.eye(dim_right, dtype=np.int64)
    acc = RrefAccumulator(dim_left * dim_right, p)
    for left, right in pairs:
        block = (np.kron(left, eye_r) - np.kron(eye_l, right)) % p
        if block.any():
            acc.add(block)
    return acc.kernel()


def _diagonal_of(m, p: int) -> np.ndarray | None:
    """The diagonal of a square matrix mod p, or None if an entry off it
    is nonzero mod p."""
    m = np.asarray(m, dtype=np.int64) % p
    diag = np.diagonal(m)
    if np.count_nonzero(m) != np.count_nonzero(diag):
        return None
    return diag


def _monomial_of(m, p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """A square matrix mod p with exactly one nonzero in each row and each
    column as (index, scalar) arrays, m[index[t], t] = scalar[t], or None."""
    m = np.asarray(m, dtype=np.int64) % p
    nz = m != 0
    if not ((nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all()):
        return None
    at = nz.argmax(axis=0)
    return at, m[at, np.arange(len(at))]


def _inverses(a: np.ndarray, p: int) -> np.ndarray:
    """a^(p-2) mod p entry by entry: the inverses of nonzero residues."""
    out, base, e = np.ones_like(a), a % p, p - 2
    while e:
        if e & 1:
            out = out * base % p
        base, e = base * base % p, e >> 1
    return out


def _orbit_walk(maps: np.ndarray, starts) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Walk the orbits of the index maps ``maps`` (one row per map, each a
    permutation of range(c)), opening one at each index of ``starts`` not
    reached yet: the indices that opened one, and the steps (u, g, v),
    v = maps[g, u], that first reached each other index, in order."""
    seen = np.zeros(maps.shape[1], dtype=bool)
    opened, steps = [], []
    for s in starts:
        if seen[s]:
            continue
        seen[s], queue = True, [int(s)]
        opened.append(int(s))
        for u in queue:
            for g, v in enumerate(maps[:, u].tolist()):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
                    steps.append((u, g, v))
    return opened, steps


def orbit_kernel(p: int, dim_left: int, dim_right: int, pairs) -> tuple[np.ndarray, list[int]]:
    """``commutant`` of monomial pairs, each matrix held as (index,
    scalar) arrays as ``_monomial_of`` gives them: the same rows and
    free columns, by orbits instead of a reduction.

    Row (L[l], M[r]) of the block of (L, M) reads
    L_s[l]·x[l, M[r]] = M_s[r]·x[L[l], r]: an edge between two unknowns
    (l, m) with the ratio of their values.  A union-find over the edges
    carries each unknown's ratio to its root.  An orbit whose ratios
    disagree around a cycle, a one-term relation among them, is 0 in
    the kernel; every other orbit is one kernel vector, which the
    canonical basis normalizes to 1 at the orbit's largest index, its
    free column, and lists in the order of those.
    """
    n = dim_left * dim_right
    ls, rs = np.divmod(np.arange(n), dim_right)
    src, dst, ratio = [], [], []
    for (l_at, l_s), (m_at, m_s) in pairs:
        src.append(ls * dim_right + m_at[rs])
        dst.append(l_at[ls] * dim_right + rs)
        ratio.append(l_s[ls] * _inverses(m_s, p)[rs] % p)
    parent, pot, bad = list(range(n)), [1] * n, [False] * n

    def find(i):
        # the root of i and x[i] / x[root], compressing the path
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        acc = 1
        for j in reversed(path):
            acc = acc * pot[j] % p
            parent[j], pot[j] = i, acc
        return i, (pot[path[0]] if path else 1)

    edges = (np.concatenate(e).tolist() if e else [] for e in (src, dst, ratio))
    for a, b, w in zip(*edges):
        # x[b] = w·x[a]
        (ra, pa), (rb, pb) = find(a), find(b)
        if ra == rb:
            bad[ra] = bad[ra] or pb != w * pa % p
        else:
            parent[rb], pot[rb] = ra, w * pa * pow(pb, p - 2, p) % p
            bad[ra] = bad[ra] or bad[rb]
    found = [find(i) for i in range(n)]
    roots = np.array([r for r, _ in found], dtype=np.int64)
    ratios = np.array([x for _, x in found], dtype=np.int64)
    # each kept unknown's orbit top, a free column; its row is the top's rank
    top = np.zeros(n, dtype=np.int64)
    np.maximum.at(top, roots, np.arange(n))
    kept = ~np.array(bad, dtype=bool)[roots]
    tops = top[roots[kept]]
    is_free = np.zeros(n, dtype=bool)
    is_free[tops] = True
    free = np.flatnonzero(is_free)
    check_entries(len(free) * n, RELATION_ENTRY_BUDGET, f"a kernel of {n} unknowns needs rows")
    row = (np.cumsum(is_free) - 1)[tops]
    rows = np.zeros((len(free), n), dtype=np.int64)
    rows[row, np.flatnonzero(kept)] = ratios[kept] * _inverses(ratios[free], p)[row] % p
    return rows, free.tolist()


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


def span_coords(rows: np.ndarray, at, xs: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the rows of ``xs`` in the span of ``rows``, a basis
    with the identity at the columns ``at`` (RREF rows at their pivots,
    kernel rows at their free columns): a member's entries there, checked
    on the other columns with one product.  Returns them, k x dim, and
    the k x n mask of the entries where a row and its combination differ;
    a row is a member exactly when its row of the mask is all False."""
    at = np.asarray(at, dtype=np.intp)
    coords = xs[:, at] % p
    rest = np.ones(xs.shape[1], dtype=bool)
    rest[at] = False
    off = np.empty(xs.shape, dtype=bool)
    off[:, at] = coords != xs[:, at]
    off[:, rest] = mul_mod(coords, rows[:, rest], p) != xs[:, rest]
    return coords, off


class Subspace:
    """A subspace of GF(p)^n in a canonical basis: ``rows[i]`` is the
    i-th basis vector, and the rows carry the identity at the columns
    ``at`` (an int array), the pivots of an RREF or the free columns of a
    kernel basis, where ``read`` takes a member's coordinates.  A
    ``Selection`` serves as one too, with no rows held."""

    __slots__ = ("p", "rows", "at")

    def __init__(self, p: int, rows: np.ndarray, at):
        self.p = p
        r = np.ascontiguousarray(rows, dtype=np.int64) % p
        r.setflags(write=False)
        self.rows = r
        self.at = np.asarray(at, dtype=np.int64)

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

    def read(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return span_coords(self.rows, self.at, xs, self.p)

    def members(self, xs: np.ndarray | None = None) -> np.ndarray:
        """The members with the columns of xs as coordinates, as rows; the
        basis for None."""
        return self.rows if xs is None else mul_mod(xs.T, self.rows, self.p)

    def coords(self, xs: np.ndarray, what: str) -> np.ndarray:
        """The coordinates of the rows of xs (residues), as rows; raises
        ElementNotInSpaceError(what) unless every row is a member."""
        coords, off = self.read(xs)
        if off.any():
            raise ElementNotInSpaceError(what)
        return coords

    def coords_of(self, v):
        """The coordinates of the vector v, or None if it is not a member."""
        coords, off = self.read(np.asarray(v, dtype=np.int64).reshape(1, -1) % self.p)
        return None if off.any() else coords[0]

    def __repr__(self):
        return f"Subspace(p={self.p}, ambient={self.ambient_dim}, dim={self.dim})"


def fixed_space(p: int, lefts, rights) -> Subspace:
    """The x with L·x = R·x for every pair of square matrices (L, R) in
    the stacks ``lefts`` and ``rights``, in echelon form: the
    centralizer, for the two actions of a subalgebra."""
    blocks = (np.asarray(lefts, dtype=np.int64) - np.asarray(rights, dtype=np.int64)) % p
    d = blocks.shape[-1]
    return Subspace.from_spanning(p, d, kernel_rows_with_free(blocks.reshape(-1, d), p)[0])


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
    """A tower step: a quotient of GF(p)^ambient_dim, the plain product of
    a power and a c-dimensional carrier, index x * c + v, as a
    ``Selection``, a ``Reduction``, a ``Dual`` or a ``Monomial`` step.  Each type
    implements once ``project``; ``descended`` (a map on the ambient read
    on the quotient, with the mask of the ambient coordinates where it
    fails to kill the relations); ``lifts``, the section's pure tensors;
    ``pairs`` and ``rows``, the projection of pure tensors and as a
    matrix; and ``on_last`` and ``then_identity``, behind the tower maps
    id ⊗ m and phi ⊗ id.  A ``tensors.TensorTower`` picks one type, once,
    and asks its class methods the rest (``grow`` and its ``budget``,
    ``actions`` and ``mismatch``, ``hom``, ``centre``, ``concat_batches``,
    ``square_on_last``); the defaults here serve towers held by matrices.
    """

    __slots__ = ("p", "dim", "ambient_dim")

    def project(self, xs) -> np.ndarray:
        """The projection of the vector xs, or of each column of xs."""
        xs = np.asarray(xs, dtype=np.int64) % self.p
        out = self._project(xs.reshape(self.ambient_dim, int(np.prod(xs.shape[1:]))))
        return out.reshape((self.dim,) + xs.shape[1:])

    def descended(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # with the identity at ``free``, h is ``read`` of m's rows
        h, off = self.read(m)
        return h, off.any(axis=0)

    def lifts(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate t lifts to e_w[t] ⊗ v[:, t], for w[t] a coordinate of
        the power below and v c x dim: at ``free``, the plain w * c + v."""
        w, v = np.divmod(self.free, c)
        return w, np.eye(c, dtype=np.int64)[:, v]

    @staticmethod
    def budget(n_blocks: int, width: int, kind: str) -> tuple[int, str]:
        """The entries of the largest array that ``grow`` (``kind``
        "relation") or ``hom`` ("constraint") forms on ``width`` unknowns
        under ``n_blocks`` generator blocks, as the budget counts it, and
        what that array is: for the types held by matrices, the blocks
        stacked (``relation_entries``)."""
        return relation_entries(n_blocks, width), f"a dense {kind} matrix"

    @staticmethod
    def actions(tower, n_in: int, n_out: int, side: int):
        """The generators' left (side 0) or right (side 1) actions on
        power(n_in) and power(n_out)."""
        acts = tower.right_on if side else tower.left_on
        return tuple([acts(n)[j].a for j in tower.gens] for n in (n_in, n_out))

    @staticmethod
    def mismatch(p: int, maps: np.ndarray, ins, outs) -> np.ndarray:
        """Where m·A and B·m differ, at [g, row, j, col], for the maps
        (d_out x k x d_in) and A = ins[g], B = outs[g]: one product a side."""
        d_out, k, d_in = maps.shape
        after = mul_mod(maps.reshape(d_out * k, d_in), np.hstack(ins), p)
        before = mul_mod(np.vstack(outs), maps.reshape(d_out, k * d_in), p)
        return (after.reshape(d_out, k, len(ins), d_in).transpose(2, 0, 1, 3)
                != before.reshape(len(outs), d_out, k, d_in))

    @staticmethod
    def hom(tower, n: int) -> Subspace:
        """Hom_{B-B}(power(n), carrier), flattened: the ``commutant`` of the
        generators' actions on the carrier and, transposed, on power(n)."""
        sides = (tower.left_mats, tower.left_on(n)), (tower.right_mats, tower.right_on(n))
        pairs = [(mats[j].a, acts[j].a.T) for j in tower.gens for mats, acts in sides]
        return Subspace(tower.p, *commutant(tower.p, tower.carrier_dim, tower.power(n).dim, pairs))

    @staticmethod
    def centre(tower) -> Subspace:
        """The x with b·x = x·b for every base element b: C⁰."""
        return fixed_space(tower.p, [m.a for m in tower.left_mats], [m.a for m in tower.right_mats])

    @staticmethod
    def concat_batches(tower, m: int, n: int, xs, ys) -> np.ndarray:
        if m and n == 1:
            basis = np.eye(tower.power(m).dim, dtype=np.int64)
            return tower.power(m + 1).pairs(basis if xs is None else xs, ys)
        return tower.product_batches(m, n, xs, ys)

    @staticmethod
    def square_on_last(tower, n: int, square: Matrix) -> Matrix:
        """id ⊗ square from power(n) to power(n+1), for a map from the
        carrier into power(2): concat(n-1, 2) after kron(I, square),
        without forming the kron, descended."""
        p, c = tower.p, tower.carrier_dim
        rows, d_prev = tower.power(n + 1).dim, tower.power(n - 1).dim
        concat = tower.concat(n - 1, 2).a.reshape(rows * d_prev, tower.power(2).dim)
        last = mul_mod(concat, square.a, p)
        return Matrix._wrap(p, descend(tower.power(n), last.reshape(rows, d_prev * c)))

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p}, ambient={self.ambient_dim}, dim={self.dim})"


class Selection(QuotientSpace):
    """The plain coordinates at the kept indices ``free``: as a quotient,
    xs -> xs[free] with the unit columns there as section; as a
    ``Subspace``, the span of the unit vectors there, ``rows`` formed
    only when asked for.  Reads are gathers and members scatters.  The
    steps, hom spaces and C⁰ of a tower whose generators act diagonally,
    b·(x ⊗ v)·b' = b·x ⊗ v·b', are where the kept diagonals agree."""

    __slots__ = ("free",)

    def __init__(self, p: int, ambient_dim: int, free):
        self.p, self.ambient_dim = p, int(ambient_dim)
        self.free = np.asarray(free, dtype=np.int64)
        self.dim = self.free.size

    @classmethod
    def agreeing(cls, p: int, lefts: np.ndarray, rights: np.ndarray) -> "Selection":
        """The kernel of the blocks diag(lefts[g] - rights[g]) for broadcast
        stacks of diagonals, the unit rows a reduction would give."""
        kept = (lefts == rights).all(axis=0)
        return cls(p, kept.size, np.flatnonzero(kept))

    coords, coords_of = Subspace.coords, Subspace.coords_of    # through ``read``
    at = property(lambda self: self.free)                       # its Subspace name

    def members(self, xs: np.ndarray | None = None) -> np.ndarray:
        # scattered into the kept indices
        if xs is None:
            xs = np.eye(self.dim, dtype=np.int64)
        out = np.zeros((xs.shape[1], self.ambient_dim), dtype=np.int64)
        out[:, self.free] = xs.T
        return out

    rows = property(members)

    def read(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # a row differs from its members at its nonzero entries off ``free``
        coords = xs[:, self.free] % self.p
        off = xs != 0
        off[:, self.free] = coords != xs[:, self.free]
        return coords, off

    def _project(self, xs: np.ndarray) -> np.ndarray:
        return xs[self.free]

    def pairs(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # x_i ⊗ y_i at the kept x ⊗ v is xs[x, i]·ys[v, i]
        x, v = np.divmod(self.free, ys.shape[0])
        return xs[x] * ys[v] % self.p

    def on_last(self, stack: np.ndarray, c: int) -> np.ndarray:
        # the image at x_s ⊗ v_s of x_t ⊗ v_t is [x_s = x_t]·m[v_s, v_t]
        xs, vs = np.divmod(self.free, c)
        return stack[:, vs[:, None], vs] * (xs[:, None] == xs)

    def then_identity(self, src: "Selection", slices: np.ndarray, c: int) -> np.ndarray:
        # the image at y_s ⊗ v_s of y_t ⊗ v_t is [v_s = v_t]·phi_x[y_s, y_t]
        (ys, vs), (yd, vd) = np.divmod(src.free, c), np.divmod(self.free, c)
        return slices[yd][:, :, ys] * (vd[:, None, None] == vs)

    @classmethod
    def grow(cls, tower, n: int) -> "Selection":
        # the x ⊗ v where power(n-1)'s right diagonals and the carrier's left agree
        return cls.agreeing(tower.p, tower.diagonals(n - 1)[1][:, :, None],
                            tower.diagonals(1)[0][:, None, :])

    @staticmethod
    def actions(tower, n_in: int, n_out: int, side: int):
        return tower.diagonals(n_in)[side], tower.diagonals(n_out)[side]

    @staticmethod
    def mismatch(p: int, maps: np.ndarray, ins, outs) -> np.ndarray:
        # m·A − B·m is m[r, c]·(A[c, c] − B[r, r]) at [r, c] for diagonal A, B
        return (outs[:, :, None, None] != ins[:, None, None, :]) & (maps % p != 0)

    @classmethod
    def hom(cls, tower, n: int) -> "Selection":
        # the a ⊗ x that every generator scales alike on both sides
        ends, far = (np.concatenate(tower.diagonals(k)) for k in (1, n))
        return cls.agreeing(tower.p, ends[:, :, None], far[:, None, :])

    @classmethod
    def centre(cls, tower) -> "Selection":
        return cls.agreeing(tower.p, *tower.diagonals(1))


class Reduction(QuotientSpace):
    """GF(p)^ambient_dim modulo the kernel of ``rows``, a canonical kernel
    basis with the identity at the ``free`` columns: the projection is
    xs -> rows @ xs and the section the unit columns at ``free``, so a
    map's descent is ``span_coords`` of its rows.  Maps into it are
    computed at the free columns only."""

    __slots__ = ("rows", "free", "_by_last")

    def __init__(self, p: int, rows: np.ndarray, free):
        self.p, self.rows, self.free = p, rows, np.asarray(free, dtype=np.int64)
        self.dim, self.ambient_dim = rows.shape
        self._by_last = None

    @classmethod
    def grow(cls, tower, n: int) -> "Reduction":
        # the commutant of power(n-1)'s right and the carrier's left actions, transposed
        rights = tower.right_on(n - 1)
        pairs = [(rights[j].a.T, tower.left_mats[j].a.T) for j in tower.gens]
        return cls(tower.p, *commutant(tower.p, tower.power(n - 1).dim, tower.carrier_dim, pairs))

    def read(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return span_coords(self.rows, self.free, xs, self.p)

    def _project(self, xs: np.ndarray) -> np.ndarray:
        return mul_mod(self.rows, xs, self.p)

    def pairs(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # the projection of the Khatri-Rao product
        plain = (xs[:, None, :] * ys[None]) % self.p
        return mul_mod(self.rows, plain.reshape(self.ambient_dim, -1), self.p)

    def by_last(self, c: int):
        """The free coordinates x * c + v grouped by v, worked out once, as
        (vs, ts, xs): row i of ts holds the positions in ``free`` of the
        coordinates whose v is vs[i], and xs their x's.  Rows shorter than
        the longest repeat their last position, so that the groups stack."""
        if self._by_last is None:
            xs, vs = np.divmod(self.free, c)
            order = np.argsort(vs, kind="stable")
            groups, start, count = np.unique(vs[order], return_index=True, return_counts=True)
            width = np.arange(count.max(initial=0))
            ts = order[start[:, None] + np.minimum(width, count[:, None] - 1)]
            self._by_last = (groups, ts, xs[ts])
        return self._by_last

    def on_last(self, stack: np.ndarray, c: int) -> np.ndarray:
        # free column t is the plain x_t ⊗ v_t: P[:, x_t, :] @ m(v_t), one
        # product per v (a stack of these thin products is slower)
        k, d_prev = len(stack), self.ambient_dim // c
        maps = stack.transpose(1, 0, 2)     # row w of map j at [w, j]
        proj = self.rows.reshape(self.dim, d_prev, c)
        out = np.empty((k, self.dim, self.dim), dtype=np.int64)
        for v, ts, xs in zip(*self.by_last(c)):
            cols = mul_mod(proj[:, xs, :].reshape(self.dim * ts.size, c), maps[:, :, v], self.p)
            out[:, :, ts] = cols.reshape(self.dim, ts.size, k).transpose(2, 0, 1)
        return out

    def then_identity(self, src: "Reduction", slices: np.ndarray, c: int) -> np.ndarray:
        # free column t of src is the plain y_t ⊗ v_t: P[:, :, v_t] @ phi_x(y_t),
        # one product per v in a stack
        d_out, lead, _ = slices.shape
        proj = self.rows.reshape(self.dim, d_out, c)
        vs, ts, ys = src.by_last(c)
        g, w = ts.shape
        cols = mul_mod(proj[:, :, vs].transpose(2, 0, 1),
                       slices[:, :, ys].transpose(2, 0, 1, 3).reshape(g, d_out, lead * w), self.p)
        out = np.empty((self.dim, lead, src.dim), dtype=np.int64)
        out[:, :, ts] = cols.reshape(g, self.dim, lead, w).transpose(1, 2, 0, 3)
        return out


class Dual(QuotientSpace):
    """V ⊗_R C for a carrier C free over R on the columns w_j of ``w``
    (c x m), held as the data that defines it: the coordinate maps
    ``phi``, the (m, dim R, c) array Φ of ``tensors.dual_basis``, and V's
    right actions ``rights``, the (dim R, d, d) array of x -> x·e_b, also
    side by side in ``across``, R_b[y, x] at [y, b·d + x].  The quotient
    is V^m, index j·d + y, of the plain product, index x·c + v: its
    projection is x ⊗ v -> (Σ_b Φ[j, b, v]·R_b·x)_j and its section sends
    (j, y) to e_y ⊗ w_j, neither formed but read blockwise: every power
    of a dual tower is carrier blocks, and its maps block matrices.
    Projection @ section is the identity as φ_i(w_j) = δ_ij·1 and x·1 = x.
    The projection's kernel is exactly the generators' relations once
    (x·g)·k = x·(g·k) for every generator g and basis element k, and
    x·1 = x, which ``tensors.TensorTower._choose`` makes sure of: with φ_j
    left-linear over g, it kills (x·g) ⊗ v − x ⊗ g·v; and words in the
    generators, reached from 1, span R, so by induction x ⊗ r·w_j is
    x·r ⊗ w_j modulo the relations, and x ⊗ v is Σ_j x·φ_j(v) ⊗ w_j.
    """

    __slots__ = ("w", "phi", "rights", "across")

    def __init__(self, p: int, w: np.ndarray, phi: np.ndarray, rights: np.ndarray):
        self.p, self.w, self.phi, self.rights = p, w, phi, rights
        (c, m), d = w.shape, rights.shape[1]
        self.across = rights.transpose(1, 0, 2).reshape(d, -1)
        self.dim, self.ambient_dim = m * d, d * c

    @classmethod
    def grow(cls, tower, n: int) -> "Dual":
        # read off the tower's ``dual`` basis and power(n-1)'s right actions
        w, phi = tower.dual
        return cls(tower.p, w, phi, np.stack([m.a for m in tower.right_on(n - 1)]))

    def _project(self, xs: np.ndarray) -> np.ndarray:
        # t[(j, b), (x, i)] = Σ_v Φ[j, b, v]·xs[x·c + v, i], then Σ_{b, x} R_b[y, x]·t
        (m, r, c), d, k = self.phi.shape, len(self.across), xs.shape[1]
        t = mul_mod(self.phi.reshape(m * r, c), xs.reshape(d, c, k).transpose(1, 0, 2).reshape(c, d * k), self.p)
        t = mul_mod(self.across, t.reshape(m, r, d, k).transpose(1, 2, 0, 3).reshape(r * d, m * k), self.p)
        return t.reshape(d, m, k).transpose(1, 0, 2)

    def descended(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # h at (j, y) is m at e_y ⊗ w_j; h @ projection at x ⊗ v is
        # Σ_{j, b} Φ[j, b, v]·(h_j R_b)[:, x]
        p, (k, r, c), rows, d = self.p, self.phi.shape, m.shape[0], len(self.across)
        h = mul_mod(m.reshape(rows * d, c), self.w, p).reshape(rows, d, k).transpose(0, 2, 1)
        # (h_j R_b)[i, x] at [i, x, (j, b)], then against Φ
        back = mul_mod(h.reshape(rows * k, d), self.across, p).reshape(rows, k, r, d).transpose(0, 3, 1, 2)
        back = mul_mod(back.reshape(rows * d, k * r), self.phi.reshape(k * r, c), p)
        return h.reshape(rows, k * d), (back.reshape(rows, d * c) != m).any(axis=0)

    def lifts(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        d = self.ambient_dim // c
        return np.tile(np.arange(d), self.w.shape[1]), np.repeat(self.w, d, axis=1)

    @property
    def rows(self) -> np.ndarray:
        # the projection read at every pair e_x ⊗ e_v
        (c, _), d = self.w.shape, len(self.across)
        return self.pairs(np.repeat(np.eye(d, dtype=np.int64), c, axis=1),
                          np.tile(np.eye(c, dtype=np.int64), (1, d)))

    def pairs(self, xs: np.ndarray | None, ys: np.ndarray) -> np.ndarray:
        """x ⊗ v -> Σ_b φ(v)_b ⊗ R_b·x on each column pair, ys perhaps
        carrier blocks read alike, xs None the basis (R_b·x is R_b)."""
        (rank, r, c), d, p = self.phi.shape, len(self.across), self.p
        blocks = ys.shape[0] // c
        # φ(v) at [i, (J, j), b] and R_b·x at [i, b, y], one column i a slice
        at = mul_mod(self.phi.reshape(rank * r, c), ys.reshape(blocks, c, -1).transpose(1, 0, 2).reshape(c, -1), p)
        at = at.reshape(rank, r, blocks, -1).transpose(3, 2, 0, 1).reshape(-1, blocks * rank, r)
        moved = (self.rights if xs is None else
                 mul_mod(self.rights.reshape(r * d, d), xs, p).reshape(r, d, -1)).transpose(2, 0, 1)
        return mul_mod(at, moved, p).transpose(1, 2, 0).reshape(blocks * rank * d, -1)

    def on_last(self, stack: np.ndarray, c: int) -> np.ndarray:
        # e_y ⊗ w_j goes to Σ_i e_y·φ_i(m(w_j)) ⊗ w_i, the block matrix
        # Σ_b Ψ[i, j, b]·R_b with Ψ[i, j] = φ_i(m(w_j)), at psi[t, (i, b), j]
        p, (m, r, _), d, k = self.p, self.phi.shape, len(self.across), len(stack)
        psi = mul_mod(self.phi.reshape(m * r, c), mul_mod(stack, self.w, p), p)
        psi = psi.reshape(k, m, r, m).transpose(0, 1, 3, 2).reshape(k * m * m, r)
        out = mul_mod(psi, self.rights.reshape(r, d * d), p)
        return out.reshape(k, m, m, d, d).transpose(0, 1, 3, 2, 4).reshape(k, self.dim, self.dim)

    def then_identity(self, src: "Dual", slices: np.ndarray, c: int) -> np.ndarray:
        # block j of the image is phi of block j, e_y ⊗ w_j -> phi(e_y) ⊗ w_j
        m, (d_out, lead, d_in) = self.w.shape[1], slices.shape
        out = np.zeros((m, d_out, lead, m, d_in), dtype=np.int64)
        diag = np.arange(m)
        out[diag, :, :, diag, :] = slices
        return out

    @staticmethod
    def concat_batches(tower, m: int, n: int, xs, ys) -> np.ndarray:
        """concat(m, n) is concat(m, 1) on each carrier block of power(n):
        each concat(m, j) is right-linear, as every right action is
        id ⊗ R_b, which ``on_last`` certified."""
        if m and n:
            return tower.power(m + 1).pairs(xs, ys)
        return tower.product_batches(m, min(n, 1), xs, ys, ys.shape[0] // tower.carrier_dim if n else 1)

    @staticmethod
    def square_on_last(tower, n: int, square: Matrix) -> Matrix:
        # square is v -> Σ_j square_j(v) ⊗ w_j, each block left-linear with
        # it, and block j of the image is on_last(n, square_j)
        c = tower.carrier_dim
        last = tower.on_last(n, [Matrix._wrap(tower.p, b) for b in square.a.reshape(-1, c, c)])
        return Matrix._wrap(tower.p, np.vstack([h.a for h in last]))


class Monomial(Dual):
    """A ``Dual`` step on a coset dual basis, w_j = e_{i_j} for one
    carrier index i_j per orbit of the generators' left actions, when
    every generator acts by a monomial matrix from both sides: then every
    power's actions are monomial too, and the step is held as index
    arrays.  Its projection sends the plain x ⊗ v to
    scale[x, v]·e_{to[x, v]}: walking the carrier's orbit from i_j, where
    x ⊗ w_j is (j, x), each step v = g·u with g·e_u = s·e_v gives
    x ⊗ e_v = s⁻¹·(x·g) ⊗ e_u, and x·g is one scaled coordinate of the
    power below.  For each v, x -> to[x, v] is one-to-one onto block
    j_v, so each quotient coordinate is the image of |orbit| = dim R
    plain ones, its fiber; reads are gathers over the fibers.  The
    generators' actions on the power, ``sides``, are (index, scalar)
    arrays (2, |gens|, dim), read off below: g·(y ⊗ w_j) = (g·y) ⊗ w_j
    and (y ⊗ w_j)·g = s·y ⊗ e_v for w_j·g = s·e_v, projected.  The hom
    solve is ``orbit_kernel`` of those arrays, and the certificates
    compare maps by gathers.
    """

    __slots__ = ("reps", "to", "scale", "sides", "_columns")

    def __init__(self, p: int, w: np.ndarray, to: np.ndarray, scale: np.ndarray, sides):
        self.p, self.w, self.to, self.scale, self.sides = p, w, to, scale, sides
        self.reps = w.argmax(axis=0)
        (d, c), m = to.shape, w.shape[1]
        self.dim, self.ambient_dim = m * d, d * c
        # x -> to[x, v] is one-to-one onto v's block, so fiber column k of
        # a block's coordinates holds the k-th carrier index v of its orbit
        rank, seen = np.zeros(c, dtype=np.int64), [0] * m
        for v, j in enumerate((to[0] // d).tolist() if d else []):
            rank[v], seen[j] = seen[j], seen[j] + 1
        fibers = np.empty((self.dim, c // m), dtype=np.int64)
        fibers[to, rank] = np.arange(d * c).reshape(d, c)
        # each column of the fibers as its plain indices x·c + v, its x
        # and v, and its weights, None where all are 1 (as on a group)
        self._columns = [(at, *np.divmod(at, c), None if (wt == 1).all() else wt[:, None])
                         for at, wt in zip(fibers.T, scale.ravel()[fibers].T)]

    @classmethod
    def grow(cls, tower, n: int) -> "Monomial":
        # the tower's coset basis, the carrier's actions and power(n-1)'s
        p, w = tower.p, tower.dual.w
        (at, s), (below, below_s) = tower.monomials(1), tower.monomials(n - 1)
        d, c, reps = below.shape[2], tower.carrier_dim, w.argmax(axis=0)
        to, scale = np.empty((d, c), dtype=np.int64), np.empty((d, c), dtype=np.int64)
        to[:, reps] = np.arange(reps.size) * d + np.arange(d)[:, None]
        scale[:, reps] = 1
        inverse = _inverses(s[0], p)
        for u, g, v in _orbit_walk(at[0], reps)[1]:
            # g·e_u = s·e_v and x·g = r·e_ρ(x): x ⊗ e_v = s⁻¹·r·e_ρ(x) ⊗ e_u
            rho = below[1, g]
            to[:, v] = to[rho, u]
            scale[:, v] = inverse[g, u] * below_s[1, g] % p * scale[rho, u] % p
        gens, m = len(at[0]), reps.size
        lefts = (np.arange(m)[:, None] * d + below[0][:, None, :]).reshape(gens, m * d)
        vs = at[1][:, reps]
        rights = to[:, vs].transpose(1, 2, 0).reshape(gens, m * d)
        right_s = s[1][:, reps, None] * scale[:, vs].transpose(1, 2, 0) % p
        sides = (np.stack([lefts, rights]),
                 np.stack([np.tile(below_s[0], (1, m)), right_s.reshape(gens, m * d)]))
        return cls(p, w, to, scale, sides)

    def _project(self, xs: np.ndarray) -> np.ndarray:
        # one column of the fibers at a time holds one dim x k array
        out = np.zeros((self.dim, xs.shape[1]), dtype=np.int64)
        for at, _, _, wt in self._columns:
            out += xs[at] if wt is None else xs[at] * wt % self.p
        return out % self.p

    def descended(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # h at (j, y) is m at y ⊗ w_j; h @ projection at x ⊗ v is scale·h at to
        d, c = self.to.shape
        h = m[:, (np.arange(d) * c + self.reps[:, None]).ravel()]
        back = h[:, self.to.ravel()] * self.scale.ravel() % self.p
        return h, (back != m).any(axis=0)

    @property
    def rows(self) -> np.ndarray:
        out = np.zeros((self.dim, self.ambient_dim), dtype=np.int64)
        out[self.to.ravel(), np.arange(self.ambient_dim)] = self.scale.ravel()
        return out

    def pairs(self, xs: np.ndarray | None, ys: np.ndarray) -> np.ndarray:
        # the projection of the Khatri-Rao pairs of each carrier block of
        # ys: at coordinate t, Σ over its fiber of weight·x_i[x]·y_i[v]
        p, (d, c) = self.p, self.to.shape
        if xs is None:
            xs = np.eye(d, dtype=np.int64)
        # a side of one column pairs with every column of the other
        blocks, k = ys.shape[0] // c, ys.shape[1] if xs.shape[1] == 1 else xs.shape[1]
        ys = ys.reshape(blocks, c, ys.shape[1])
        out = np.zeros((blocks, self.dim, k), dtype=np.int64)
        for _, x, v, wt in self._columns:
            term = xs[x] * ys[:, v] % p
            out += term if wt is None else term * wt % p
        return out.reshape(blocks * self.dim, k) % p

    def on_last(self, stack: np.ndarray, c: int) -> np.ndarray:
        # y ⊗ w_j goes to Σ_v m[v, i_j]·y ⊗ e_v: the plain x ⊗ v of fiber
        # row t adds its weight times m[v, i_j] at [t, (j, x)], one fiber
        # column at a time, in which each t has one x
        (d, _), m, at = self.to.shape, self.reps.size, np.arange(self.dim)
        out = np.zeros((len(stack), self.dim, m, d), dtype=np.int64)
        for _, x, v, wt in self._columns:
            vals = stack[:, v][:, :, self.reps].transpose(1, 0, 2)
            out[:, at, :, x] += vals if wt is None else vals * wt[:, :, None] % self.p
        return out.reshape(len(stack), self.dim, self.dim) % self.p

    @staticmethod
    def budget(n_blocks: int, width: int, kind: str) -> tuple[int, str]:
        # at most an index and a scalar per unknown for each block's two
        # sides (a step's actions, a solve's edges), and three arrays over
        # the unknowns (a step's to, scale and fibers; the union-find's)
        return (4 * max(n_blocks, 1) + 3) * width, "index arrays"

    @staticmethod
    def actions(tower, n_in: int, n_out: int, side: int):
        return tuple(tuple(a[side] for a in tower.monomials(n)) for n in (n_in, n_out))

    @staticmethod
    def mismatch(p: int, maps: np.ndarray, ins, outs) -> np.ndarray:
        # (m·A)[:, :, t] is A_s[t]·m[:, :, A[t]]; row B[r] of B·m is B_s[r]·m[r]
        (a_at, a_s), (b_at, b_s) = ins, outs
        after = (maps[:, :, a_at] * a_s % p).transpose(2, 0, 1, 3)
        gens = np.arange(len(b_at))[:, None]
        back = np.empty_like(b_at)
        back[gens, b_at] = np.arange(b_at.shape[1])
        before = maps[back] * b_s[gens, back][:, :, None, None] % p
        return after != before

    @classmethod
    def hom(cls, tower, n: int) -> Subspace:
        # the commutant's pairs (L_g, A_gᵀ), each monomial; the transpose
        # of (index, scalar) is the inverse index with its scalars moved
        (ends, end_s), (far, far_s) = tower.monomials(1), tower.monomials(n)
        dim = tower.power(n).dim
        pairs = []
        for side in (0, 1):
            for g in range(len(tower.gens)):
                back, moved = np.empty(dim, dtype=np.int64), np.empty(dim, dtype=np.int64)
                back[far[side, g]], moved[far[side, g]] = np.arange(dim), far_s[side, g]
                pairs.append(((ends[side, g], end_s[side, g]), (back, moved)))
        return Subspace(tower.p, *orbit_kernel(tower.p, tower.carrier_dim, dim, pairs))


def trivial_quotient(p: int, n: int) -> Selection:
    """The identity quotient (no relations): every coordinate kept."""
    return Selection(p, n, np.arange(n))


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
    quotient coordinates, as q's type reads it (``descended``).  m kills
    the relations, ker(projection), exactly when h @ projection = m;
    otherwise NotWellDefinedError names the first ambient coordinate
    whose image differs from its representative's."""
    h, bad = q.descended(m)
    if bad.any():
        col = int(np.flatnonzero(bad)[0])
        raise NotWellDefinedError(
            f"the map does not kill the relations: ambient coordinate {col} "
            f"and its representative have different images")
    return h
