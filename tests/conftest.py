"""Shared test helpers: naive reference implementations and heavy fixtures.

The naive_* helpers are deliberately written in plain Python over lists,
independent of the package's numpy-based code paths, so that agreement
between the two is meaningful evidence of correctness.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest


def naive_rank(rows, p):
    """Rank by textbook Gaussian elimination on python ints."""
    m = [[int(x) % p for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(m)):
            if m[r][col] % p:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [(a - c * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def naive_solve(rows, rhs, p):
    """One solution of rows @ x = rhs by elimination, or None."""
    m = [[int(x) % p for x in row] + [int(b) % p] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(m)):
            if m[r][col] % p:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [(a - c * b) % p for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(m)):
        if m[r][-1] % p:
            return None
    x = [0] * ncols
    for i, col in enumerate(pivots):
        x[col] = m[i][-1]
    return x


def enumerate_kernel(rows, p, ncols):
    """All kernel vectors of a small system, by brute enumeration."""
    out = []
    for v in itertools.product(range(p), repeat=ncols):
        if all(sum(r[j] * v[j] for j in range(ncols)) % p == 0 for r in rows):
            out.append(v)
    return out


def span_from_vectors(vectors, p):
    """The full set of vectors in the span, by brute enumeration."""
    vecs = [tuple(int(x) % p for x in v) for v in vectors]
    if not vecs:
        return {()}
    n = len(vecs[0])
    seen = set()
    for coeffs in itertools.product(range(p), repeat=len(vecs)):
        w = tuple(sum(c * v[j] for c, v in zip(coeffs, vecs)) % p for j in range(n))
        seen.add(w)
    return seen


def random_matrix(rng, rows, cols, p):
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


def s3_c2_extension(p):
    """GF(p)[S3] over the subgroup algebra of a transposition.

    The multiplication table is computed from permutation composition
    here, independently of any table shipped with the package.
    """
    from coringlab import Extension, Field, Matrix, group_algebra

    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    idx = {q: i for i, q in enumerate(perms)}
    table = [[idx[tuple(a[b[i]] for i in range(3))] for b in perms] for a in perms]
    big = group_algebra(Field(p), table, [f"g{i}" for i in range(6)])
    small = group_algebra(Field(p), [[0, 1], [1, 0]], ["e", "t"])
    inc = np.zeros((6, 2), dtype=np.int64)
    inc[0, 0] = 1
    inc[1, 1] = 1
    return Extension(big, small, Matrix(p, inc))


def naive_absolute_hochschild_dims(tensor, unit, p, top):
    """dim H^0..H^{top-1} of the classical complex C^n = Hom(A^(x)n, A).

    Valid for extensions by the scalars (B = k*1), where the relative
    complex coincides with the absolute one.  Everything is pure-python
    index shuffling over the structure tensor; nothing is shared with
    the package's quotient/vectorized machinery.
    """
    d = len(unit)
    t = [[[int(tensor[i][j][k]) % p for k in range(d)] for j in range(d)] for i in range(d)]

    def tuples(n):
        return list(itertools.product(range(d), repeat=n))

    def delta_matrix(n):
        """delta^n as rows over C^{n+1} basis, cols over C^n basis."""
        src = [(s, k) for s in tuples(n) for k in range(d)]
        col_index = {bk: c for c, bk in enumerate(src)}
        rows = []
        for big in tuples(n + 1):
            for out in range(d):
                row = [0] * len(src)
                if n == 0:
                    # (delta r)(a1) = a1*r - r*a1, with r ranging over e_k
                    for k in range(d):
                        coef = (t[big[0]][k][out] - t[k][big[0]][out]) % p
                        row[col_index[((), k)]] = coef
                else:
                    for k in range(d):
                        # a1 * f(a2..)
                        tail = big[1:]
                        c = col_index[(tail, k)]
                        row[c] = (row[c] + t[big[0]][k][out]) % p
                        # (-1)^{n+1} f(a1..an) * a_{n+1}
                        head = big[:-1]
                        c = col_index[(head, k)]
                        sgn = 1 if (n + 1) % 2 == 0 else p - 1
                        row[c] = (row[c] + sgn * t[k][big[-1]][out]) % p
                    for i in range(1, n + 1):
                        sgn = 1 if i % 2 == 0 else p - 1
                        a, b = big[i - 1], big[i]
                        for m in range(d):
                            coef = t[a][b][m]
                            if not coef:
                                continue
                            merged = big[: i - 1] + (m,) + big[i + 1 :]
                            c = col_index[(merged, out)]
                            row[c] = (row[c] + sgn * coef) % p
                rows.append(row)
        return rows

    deltas = [delta_matrix(n) for n in range(top)]
    ranks = [naive_rank(m, p) for m in deltas]
    dims = []
    for n in range(top):
        c_dim = d * (d**n)
        kernel = c_dim - ranks[n]
        prev = ranks[n - 1] if n >= 1 else 0
        dims.append(kernel - prev)
    return dims


def pure_tensor(t, factors):
    """Coordinates of f1 (x) ... (x) fn in a tensor power record, joined
    one factor at a time: power(k) is power(k-1) (x) A in its tower."""
    if len(factors) != t.n:
        raise ValueError(f"expected {t.n} factors, got {len(factors)}")
    p = t.space.p
    vec = np.asarray(factors[0], dtype=np.int64) % p
    for k, f in enumerate(factors[1:], start=2):
        vec = t.tower.power(k).project(np.kron(vec, np.asarray(f, dtype=np.int64) % p))
    return vec


def concat_section_failures(tower, top):
    """The degree pairs (m, n), m, n >= 1 and m + n <= top, at which
    concat(m, n) @ concat_section(m, n) is not the identity of
    power(m + n)."""
    from coringlab import Matrix

    return [(m, n) for m in range(1, top) for n in range(1, top - m + 1)
            if tower.concat(m, n) @ tower.concat_section(m, n)
            != Matrix.identity(tower.p, tower.power(m + n).dim)]


def span_with_free(a, p):
    """The row space of ``a`` in ``kernel_rows_with_free``'s form: the
    RREF of the columns read backwards, so row t ends in a 1 at column
    free[t], which every other row has zero.  A subspace has one such
    basis, so when the row space is the kernel of some matrix these are
    exactly the rows and free columns ``kernel_rows_with_free`` gives
    for it: the canonical pair of a quotient known by its projection."""
    from coringlab.linalg import rref_rows

    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    rows, pivots = rref_rows(a[:, ::-1], p)
    last = a.shape[1] - 1
    return rows[::-1, ::-1], [last - c for c in reversed(pivots)]


def dual_step_mismatches(tower, top):
    """The n in 2..top at which power(n-1) (x)_R carrier read off the
    tower's dual basis (``tensors.free_pair``) is not the tower's
    power(n), or is not the quotient the commutant gives
    (``tensors.balanced_pair``) in other coordinates.  Byte for
    byte: the dual projection and section compose to the identity, the
    canonical form of the dual projection's rows is the commutant's
    projection, T = canonical projection @ dual section is invertible,
    and the canonical projection is T @ dual projection."""
    from coringlab.linalg import Matrix, inverse
    from coringlab.tensors import balanced_pair, free_pair

    out = []
    for n in range(2, top + 1):
        rights = tower.right_on(n - 1)
        dual = free_pair(tower.base, rights, tower.dual)
        canon = balanced_pair(tower.p, tower.power(n - 1).dim, tower.carrier_dim,
                              [rights[j].a for j in tower.gens],
                              [tower.left_mats[j].a for j in tower.gens])
        mine = tower.power(n)
        rows, free = span_with_free(dual.projection.a, tower.p)
        change = canon.projection @ dual.section
        try:
            inverse(change)
            invertible = True
        except ValueError:
            invertible = False
        if not (mine.projection == dual.projection and mine.section == dual.section
                and dual.projection @ dual.section == Matrix.identity(tower.p, dual.dim)
                and np.array_equal(rows, canon.projection.a)
                and free == canon.free.tolist()
                and invertible
                and change @ dual.projection == canon.projection):
            out.append(n)
    return out


def quotient_of(ambient_dim, relations):
    """GF(p)^ambient_dim modulo the span of the Subspace ``relations``:
    the projection is the canonical kernel basis of their rows."""
    from coringlab.linalg import QuotientSpace, kernel_rows_with_free

    rows = relations.rows.reshape(-1, ambient_dim)
    return QuotientSpace.from_kernel(relations.p, *kernel_rows_with_free(rows, relations.p))


def right_module_failures(tower, top):
    """The n in 1..top at which the right action on power(n) is not a
    unital module action over the whole base basis: R_k R_j = R_{j·k}
    for every pair of basis elements, and R_1 = I."""
    from coringlab.linalg import mul_mod

    base, p = tower.base, tower.p
    out = []
    for n in range(1, top + 1):
        rights = np.stack([m.a for m in tower.right_on(n)])
        d = rights.shape[1]
        flat = rights.reshape(base.dim, d * d)
        ok = np.array_equal(mul_mod(base.unit.reshape(1, -1), flat, p).reshape(d, d),
                            np.eye(d, dtype=np.int64))
        for j in range(base.dim):
            ok = ok and np.array_equal(mul_mod(rights, rights[j], p),
                                       mul_mod(base.tensor[j], flat, p).reshape(-1, d, d))
        if not ok:
            out.append(n)
    return out


def off_choice_steps(tower, top):
    """The n in 2..top at which power(n) is not in the coordinates the
    tower chose once: read off its dual basis by ``tensors.free_pair``
    when it has one, canonical with ``free`` columns otherwise.  On a
    dual tower also the n at which power(n-1)'s right action, which
    ``free_pair`` needs to be a unital module action, is not one."""
    from coringlab.tensors import free_pair

    if tower.dual is None:
        return [n for n in range(2, top + 1) if tower.power(n).free is None]
    out = [n + 1 for n in right_module_failures(tower, top - 1)]
    for n in range(2, top + 1):
        dual = free_pair(tower.base, tower.right_on(n - 1), tower.dual)
        q = tower.power(n)
        if not (q.projection == dual.projection and q.section == dual.section):
            out.append(n)
    return sorted(set(out))


def dense_descend(q, m):
    """``linalg.descend`` through the section and projection as matrices,
    h = m @ section checked by h @ projection = m on every column: the
    reference for the gather on a quotient's free columns."""
    from coringlab.linalg import QuotientSpace, descend

    return descend(QuotientSpace(q.p, q.projection, q.section), m)


def dense_on_last(tower, n, m):
    """id ⊗ m on power(n), formed on the whole plain product with an
    explicit kron and descended by ``dense_descend``."""
    from coringlab.linalg import mul_mod

    q = tower.power(n)
    eye = np.eye(tower.power(n - 1).dim, dtype=np.int64)
    return dense_descend(q, mul_mod(q.projection.a, np.kron(eye, m.a), tower.p))


def dense_then_identity(tower, phi, n, k, lead=1):
    """phi ⊗ id_carrier from lead ⊗ power(n) to power(k), one slice of phi
    at a time on the whole plain product with an explicit kron, each
    descended by ``dense_descend``; columns x * dim power(n) + t."""
    from coringlab.linalg import mul_mod

    p, dst = tower.p, tower.power(k)
    eye = np.eye(tower.carrier_dim, dtype=np.int64)
    slices = phi.a.reshape(tower.power(k - 1).dim, lead, tower.power(n - 1).dim)
    return np.hstack([
        dense_descend(tower.power(n),
                      mul_mod(dst.projection.a, np.kron(slices[:, x, :], eye), p))
        for x in range(lead)])


def gathered_map_mismatches(tower, top):
    """The tower maps up to power(top) whose block or gathered columns
    differ from the map formed densely (``dense_on_last``,
    ``dense_then_identity``): right_on(n), phi ⊗ id for
    phi = concat(m, n - 1) into power(m + n),
    ``concat_batches`` against that dense concat(m, n) on a Khatri-Rao
    batch, and, on a coring, the coproduct in every slot, the last one
    against concat(n - 1, 2) @ kron(I, coproduct) descended densely."""
    from coringlab.linalg import mul_mod

    p = tower.p
    rng = np.random.default_rng(top)
    out = []
    for n in range(2, top + 1):
        want = np.stack([dense_on_last(tower, n, m) for m in tower.right_mats])
        got = np.stack([m.a for m in tower.on_last(n, tower.right_mats)])
        if not np.array_equal(got, want):
            out.append(("on_last", n))
        phis = [(f"concat({m}, {n - 1})", tower.concat(m, n - 1), m + n,
                 tower.base.dim if m == 0 else tower.power(m).dim)
                for m in range(0, top - n + 1)]
        if hasattr(tower, "coproducts") and n < top:
            phis += [(f"coproduct slot {i}", phi, n + 1, 1)
                     for i, phi in enumerate(tower.coproducts(n - 1), start=1)]
        for name, phi, k, lead in phis:
            want = dense_then_identity(tower, phi, n, k, lead)
            if not np.array_equal(tower.then_identity(phi, n, k, lead).a, want):
                out.append((name, n))
            if name.startswith("concat"):
                # want is concat(m, n) formed densely
                m = k - n
                xs = rng.integers(0, p, size=(lead, 5), dtype=np.int64)
                ys = rng.integers(0, p, size=(tower.power(n).dim, 5), dtype=np.int64)
                pairs = (xs[:, None, :] * ys[None, :, :]).reshape(-1, 5) % p
                if not np.array_equal(tower.concat_batches(m, n, xs, ys), mul_mod(want, pairs, p)):
                    out.append((f"concat_batches({m}, {n})", n))
        if hasattr(tower, "coproducts") and n < top:
            d_prev = tower.power(n - 1).dim
            concat = dense_then_identity(tower, tower.concat(n - 1, 1), 2, n + 1, d_prev)
            last = mul_mod(concat, np.kron(np.eye(d_prev, dtype=np.int64), tower.coproduct.a), p)
            if not np.array_equal(tower.coproducts(n)[-1].a, dense_descend(tower.power(n), last)):
                out.append(("coproduct last slot", n))
    return out


def kron_algebra_violations(a):
    """``algebra_violations`` with associativity checked as
    m·kron(m, I) = m·kron(I, m), d x d**3 products of d**2 x d**3 krons:
    the reference for the contracted check."""
    from coringlab.linalg import mul_mod

    p, d = a.p, a.dim
    out = []
    m = a.mult.a
    eye = np.eye(d, dtype=np.int64)
    lhs = mul_mod(m, np.kron(m, eye), p)
    rhs = mul_mod(m, np.kron(eye, m), p)
    for l, col in np.argwhere(lhs != rhs):
        i, rem = divmod(int(col), d * d)
        j, k = divmod(rem, d)
        out.append(f"associativity fails at (i={i}, j={j}, k={k}, l={int(l)})")
    lu, ru = a.left_mul(a.unit).a, a.right_mul(a.unit).a
    for i in range(d):
        if not np.array_equal(lu[:, i], eye[:, i]):
            out.append(f"left unit law fails at basis index {i}")
        if not np.array_equal(ru[:, i], eye[:, i]):
            out.append(f"right unit law fails at basis index {i}")
    return out


def kron_bialgebra_violations(algebra, cop, eps):
    """``HopfData._violations`` of the algebra with coproduct ``cop``
    (d**2 x d) and counit ``eps`` (1 x d), with the coproduct's laws
    checked through kron(cop, I), kron(I, cop), kron(cop, cop) and
    kron(m, m): the reference for the contracted check."""
    from coringlab.linalg import mul_mod

    d, p = algebra.dim, algebra.p
    out = []
    eye = np.eye(d, dtype=np.int64)
    if not np.array_equal(mul_mod(np.kron(cop, eye), cop, p), mul_mod(np.kron(eye, cop), cop, p)):
        out.append("coproduct is not coassociative")
    if not np.array_equal(mul_mod(np.kron(eps, eye), cop, p), eye):
        out.append("left counit law fails")
    if not np.array_equal(mul_mod(np.kron(eye, eps), cop, p), eye):
        out.append("right counit law fails")
    m = algebra.mult.a
    # componentwise product on the tensor square: a middle-swap shuffle
    dd = np.kron(cop, cop) % p
    dd = dd.reshape(d, d, d, d, d * d).transpose(0, 2, 1, 3, 4).reshape(d**4, d * d)
    if not np.array_equal(mul_mod(cop, m, p), mul_mod(np.kron(m, m), dd, p)):
        out.append("coproduct is not an algebra map")
    if not np.array_equal(mul_mod(eps, m, p), np.kron(eps, eps)):
        out.append("counit is not an algebra map")
    if not np.array_equal(mul_mod(cop, algebra.unit.reshape(-1, 1), p)[:, 0],
                          np.kron(algebra.unit, algebra.unit)):
        out.append("unit is not grouplike under the coproduct")
    if int(mul_mod(eps, algebra.unit.reshape(-1, 1), p)[0, 0]) != 1:
        out.append("counit does not send the unit to 1")
    return out


def hom_matrix(space, coords):
    """The matrix of the member of a bimodule hom space with the given
    coordinates: coords @ rows, reshaped to dim A x dim power(n)."""
    from coringlab import Matrix

    p = space.extension.p
    flat = np.asarray(coords, dtype=np.int64) @ space.rows % p
    return Matrix(p, flat.reshape(-1, space.source.dim))


def multiply(a, x, y):
    """x·y in the algebra ``a``: its multiplication matrix applied to kron(x, y)."""
    x = np.asarray(x, dtype=np.int64) % a.p
    y = np.asarray(y, dtype=np.int64) % a.p
    return a.mult.apply(np.kron(x, y))


def leibniz_residual(x, m, n, a, b):
    """d(ab) - d(a)b - (-1)^m a d(b) for one pair, a of degree m and b of
    degree n, from one-column products."""
    p = x.p
    a, b = (np.reshape(v, (-1, 1)) % p for v in (a, b))
    d = [mat.a for mat in x.d]
    lhs = d[m + n] @ x.products(m, n, a, b)
    da, db = d[m] @ a % p, d[n] @ b % p
    rhs = x.products(m + 1, n, da, b) + (-1) ** m * x.products(m, n + 1, a, db)
    return (lhs - rhs)[:, 0] % p


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250817)


@pytest.fixture(scope="session")
def m2_gf5_extension():
    from coringlab import Field, matrix_algebra, trivial_extension

    return trivial_extension(matrix_algebra(Field(5), 2))


@pytest.fixture(scope="session")
def m2_gf5_cert(m2_gf5_extension):
    from coringlab import build_f2

    return build_f2(m2_gf5_extension)


@pytest.fixture(scope="session")
def m2_gf5_endo(m2_gf5_extension):
    from coringlab import endo_coring

    return endo_coring(m2_gf5_extension)
