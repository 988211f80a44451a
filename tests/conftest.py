"""Shared test helpers: naive reference implementations and heavy fixtures.

The naive_* helpers are deliberately written in plain Python over lists,
independent of the package's numpy-based code paths, so that agreement
between the two is meaningful evidence of correctness.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest


def naive_rref(rows, p, ncols):
    """The reduced row echelon form (nonzero rows only) and pivot columns
    of rows with ``ncols`` columns, by textbook Gauss-Jordan on python
    ints with first-nonzero pivoting."""
    m = [[int(x) % p for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][col], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                c = m[i][col]
                m[i] = [(a - c * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m[:len(pivots)], pivots


def naive_rank(rows, p):
    """Rank by textbook Gaussian elimination on python ints."""
    rows = [list(row) for row in rows]
    return len(naive_rref(rows, p, len(rows[0]) if rows else 0)[1])


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


def self_extension(a):
    """The extension A -> A along the identity."""
    from coringlab import Extension, Matrix

    return Extension(a, a, Matrix.identity(a.p, a.dim))


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


def concat_lift_failures(tower, top):
    """The degree pairs (m, n), m, n >= 1 and m + n <= top, at which
    concat(m, n) does not send the tower's lifts, formed densely as
    kron(e_x, y) on the plain product of power(m) and power(n), to the
    identity of power(m + n)."""
    from coringlab import Matrix

    out = []
    for m in range(1, top):
        for n in range(1, top - m + 1):
            xs, ys = tower.lift(m, n)
            eye = np.eye(tower.power(m).dim, dtype=np.int64)
            lifts = np.zeros((eye.shape[0] * ys.shape[0], xs.size), dtype=np.int64)
            for z, x in enumerate(xs):
                lifts[:, z] = np.kron(eye[x], ys[:, z])
            if (tower.concat(m, n) @ Matrix(tower.p, lifts)
                    != Matrix.identity(tower.p, tower.power(m + n).dim)):
                out.append((m, n))
    return out


def dense_cup(c, m, n, xs, ys):
    """The cup product of column-paired batches formed on the whole plain
    product of power(m) and power(n), f_i ∪ g_i = mult·kron(f_i, g_i),
    then descended through concat(m, n) and a section of it read off its
    pivot columns, which checks that every product kills the balancing
    relations: the reference for ``hochschild.cup``."""
    from coringlab.linalg import Matrix, inverse, mul_mod, rref_rows

    p, d = c.p, c.extension.ambient.dim
    xs, ys = np.asarray(xs, dtype=np.int64) % p, np.asarray(ys, dtype=np.int64) % p
    f, g = c._matrices(m, xs), c._matrices(n, ys)
    k, qm, qn = f.shape[0], f.shape[2], g.shape[2]
    # mult[r, a, b] against f[i, a, x], rows (r, b) and columns (i, x)
    mult = c.extension.ambient.mult.a.reshape(d, d, d).transpose(0, 2, 1)
    t = mul_mod(mult.reshape(d * d, d), f.transpose(1, 0, 2).reshape(d, k * qm), p)
    # then against g[i, b, y] with the same i: rows (r, x), columns y
    t = t.reshape(d, d, k, qm).transpose(2, 0, 3, 1).reshape(k, d * qm, d)
    plain = mul_mod(t, g, p).reshape(k * d, qm * qn)
    if m and n:
        concat = c.tower.concat(m, n)
        pivots = list(rref_rows(concat.a, p)[1])
        section = np.zeros((concat.cols, concat.rows), dtype=np.int64)
        section[pivots] = inverse(Matrix(p, concat.a[:, pivots])).a
        plain = descend_by(concat.a, section, plain, p)
    return c._coords(m + n, plain.reshape(k, d * plain.shape[1]))


def rebuilt_generating_indices(a):
    """``algebras.generating_indices`` with the span rebuilt from every
    word on each closure round: the reference for the incremental search."""
    from coringlab.linalg import Subspace, mul_mod

    p, d = a.p, a.dim
    eye = np.eye(d, dtype=np.int64)
    span = Subspace.from_spanning(p, d, a.unit.reshape(1, -1))
    picks = []
    for i in range(d):
        if span.coords_of(eye[i]) is not None:
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
    from coringlab.linalg import Matrix, inverse, mul_mod
    from coringlab.tensors import balanced_pair, free_pair

    p, out = tower.p, []
    for n in range(2, top + 1):
        rights = tower.right_on(n - 1)
        proj, sect = dense_pair(free_pair(tower.base, rights, tower.dual))
        canon = balanced_pair(p, tower.power(n - 1).dim, tower.carrier_dim,
                              [rights[j].a for j in tower.gens],
                              [tower.left_mats[j].a for j in tower.gens])
        mine = dense_pair(tower.power(n))
        rows, free = span_with_free(proj, p)
        change = mul_mod(canon.projection.a, sect, p)
        try:
            inverse(Matrix(p, change))
            invertible = True
        except ValueError:
            invertible = False
        if not (np.array_equal(mine[0], proj) and np.array_equal(mine[1], sect)
                and np.array_equal(mul_mod(proj, sect, p), np.eye(len(proj), dtype=np.int64))
                and np.array_equal(rows, canon.projection.a)
                and free == canon.free.tolist()
                and invertible
                and np.array_equal(mul_mod(change, proj, p), canon.projection.a)):
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
        dual = dense_pair(free_pair(tower.base, tower.right_on(n - 1), tower.dual))
        mine = dense_pair(tower.power(n))
        if not (np.array_equal(mine[0], dual[0]) and np.array_equal(mine[1], dual[1])):
            out.append(n)
    return sorted(set(out))


def descend_by(projection, section, m, p):
    """``linalg.descend`` through a projection and a section as matrices,
    h = m @ section checked by h @ projection = m on every column, with
    the same NotWellDefinedError naming the first ambient coordinate
    that fails: the dense reference for every path of ``descend``."""
    from coringlab.errors import NotWellDefinedError
    from coringlab.linalg import mul_mod

    h = mul_mod(m, section, p)
    bad = (mul_mod(h, projection, p) != m).any(axis=0)
    if bad.any():
        raise NotWellDefinedError(
            f"the map does not kill the relations: ambient coordinate "
            f"{int(np.flatnonzero(bad)[0])} and its representative have different images")
    return h


def dense_pair(q):
    """q's projection and section as arrays.  A ``linalg.DualStep``
    holds neither, so its pair is formed here entry by entry from its
    (w, Φ, R_b): projection[(j, y), (x, v)] = Σ_b Φ[j, b, v]·R_b[y, x]
    and section[(x, v), (j, y)] = w_j[v] where x = y.  The dense
    reference for the blockwise paths."""
    from coringlab.linalg import DualStep

    if not isinstance(q, DualStep):
        return q.projection.a, q.section.a
    (m, r, c), d = q.phi.shape, q.rights.shape[1]
    proj = np.zeros((m, d, d, c), dtype=np.int64)
    for b in range(r):
        proj = (proj + q.phi[:, b, None, None, :] * q.rights[b][None, :, :, None]) % q.p
    sect = np.zeros((d, c, m, d), dtype=np.int64)
    for x in range(d):
        sect[x, :, :, x] = q.w
    return proj.reshape(m * d, d * c), sect.reshape(d * c, m * d)


def dense_descend(q, m):
    """``descend_by`` q's ``dense_pair``: the reference for the gather on
    a quotient's free columns and for a dual step's blockwise descent."""
    return descend_by(*dense_pair(q), m, q.p)


def dense_on_last(tower, n, m):
    """id ⊗ m on power(n), formed on the whole plain product with an
    explicit kron and descended by ``dense_descend``."""
    from coringlab.linalg import mul_mod

    q = tower.power(n)
    eye = np.eye(tower.power(n - 1).dim, dtype=np.int64)
    return dense_descend(q, mul_mod(dense_pair(q)[0], np.kron(eye, m.a), tower.p))


def dense_then_identity(tower, phi, n, k, lead=1):
    """phi ⊗ id_carrier from lead ⊗ power(n) to power(k), one slice of phi
    at a time on the whole plain product with an explicit kron, each
    descended through power(n)'s ``dense_pair``; columns x * dim
    power(n) + t."""
    from coringlab.linalg import mul_mod

    p, onto, src = tower.p, dense_pair(tower.power(k))[0], dense_pair(tower.power(n))
    eye = np.eye(tower.carrier_dim, dtype=np.int64)
    slices = phi.a.reshape(tower.power(k - 1).dim, lead, tower.power(n - 1).dim)
    return np.hstack([descend_by(*src, mul_mod(onto, np.kron(slices[:, x, :], eye), p), p)
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


def blockwise_step_failures(tower, top, seed=0):
    """The (path, n) at which a dual power(n), n in 2..top, read
    blockwise differs from its ``dense_pair``: ``project`` of a batch and
    of one vector; ``concat(n - 1, 1)`` and ``concat_batches(n - 1, 1)``
    on paired batches, on a one-column side on either side and on zero
    columns, against the projection of their Khatri-Rao pairs;
    ``descend`` of a map through the projection against ``descend_by``;
    the refusal of that map with one ambient entry moved, which must
    name the coordinate the dense check names; and ``lift(n - 1, 1)``
    against the section's columns."""
    from coringlab.errors import NotWellDefinedError
    from coringlab.linalg import DualStep, descend, mul_mod

    p, c = tower.p, tower.carrier_dim
    rng = np.random.default_rng(seed)
    out = []
    for n in range(2, top + 1):
        q = tower.power(n)
        if not isinstance(q, DualStep):
            continue
        proj, sect = dense_pair(q)
        d = tower.power(n - 1).dim
        xs = rng.integers(0, p, size=(q.ambient_dim, 5), dtype=np.int64)
        if not (np.array_equal(q.project(xs), mul_mod(proj, xs, p))
                and np.array_equal(q.project(xs[:, 0]), mul_mod(proj, xs[:, :1], p)[:, 0])):
            out.append(("project", n))
        if not np.array_equal(tower.concat(n - 1, 1).a, proj):
            out.append(("concat", n))
        left = rng.integers(0, p, size=(d, 5), dtype=np.int64)
        right = rng.integers(0, p, size=(c, 5), dtype=np.int64)
        for name, a, b in [("paired", left, right), ("one left", left[:, :1], right),
                           ("one right", left, right[:, :1]), ("none", left[:, :0], right[:, :0])]:
            k = max(a.shape[1], b.shape[1]) if a.shape[1] and b.shape[1] else 0
            pairs = (np.broadcast_to(a[:, None, :], (d, c, k))
                     * np.broadcast_to(b[None, :, :], (d, c, k))).reshape(d * c, k) % p
            if not np.array_equal(tower.concat_batches(n - 1, 1, a, b), mul_mod(proj, pairs, p)):
                out.append((f"concat_batches {name}", n))
        m = mul_mod(rng.integers(0, p, size=(3, q.dim), dtype=np.int64), proj, p)
        if not np.array_equal(descend(q, m), descend_by(proj, sect, m, p)):
            out.append(("descend", n))
        m[1, rng.integers(q.ambient_dim)] += 1 + rng.integers(p - 1)
        m %= p
        try:
            descend_by(proj, sect, m, p)
            out.append(("moved entry kept", n))
        except NotWellDefinedError as dense:
            try:
                descend(q, m)
                out.append(("moved entry descended", n))
            except NotWellDefinedError as err:
                if str(err) != str(dense):
                    out.append(("moved entry named", n))
        at, ys = tower.lift(n - 1, 1)
        lifted = (np.eye(d, dtype=np.int64)[:, None, at] * ys[None]).reshape(d * c, -1)
        if not np.array_equal(lifted, sect):
            out.append(("lift", n))
    return out


def shown_violations(failures):
    """A full list of violations as ``algebra_violations`` reports it: the
    first ``VIOLATIONS_SHOWN``, then one line counting the rest."""
    from coringlab.algebras import VIOLATIONS_SHOWN

    if len(failures) <= VIOLATIONS_SHOWN:
        return failures
    return failures[:VIOLATIONS_SHOWN] + [f"… and {len(failures) - VIOLATIONS_SHOWN} more"]


def kron_algebra_violations(a):
    """Every violation ``algebra_violations`` looks for, with associativity
    checked as m·kron(m, I) = m·kron(I, m), d x d**3 products of
    d**2 x d**3 krons: the reference for the contracted check."""
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
