"""Exact linear algebra over GF(p): frozen examples and random cross-checks."""

import contextlib
import io
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coringlab import cli
from coringlab.corpus import corpus_path, extension_names, hopf_names
from coringlab.errors import NotWellDefinedError
from coringlab.linalg import (
    Field,
    Matrix,
    RrefAccumulator,
    Subspace,
    check_prime,
    commutant,
    descend,
    induced_map,
    inverse,
    is_prime,
    kernel_rows_with_free,
    mul_mod,
    orbit_kernel,
    rank_of,
    rref_rows,
    span_coords,
    trivial_quotient,
)

from conftest import (
    dense_descend,
    dense_pair,
    descend_by,
    enumerate_kernel,
    naive_rank,
    naive_rref,
    naive_solve,
    quotient_of,
    random_matrix,
    span_from_vectors,
    span_with_free,
)


def test_kernel_of_sum_constraint_gf3():
    # Oracle: enumerate all (a, b) in GF(3)^2 with a + b = 0.
    expected = set(enumerate_kernel([[1, 1]], 3, 2))
    assert expected == {(0, 0), (1, 2), (2, 1)}

    ker, free = kernel_rows_with_free(np.array([[1, 1]]), 3)
    assert free == [1]
    assert span_from_vectors(ker, 3) == expected
    assert [tuple(r) for r in ker] == [(2, 1)]


def solve(m: Matrix, rhs):
    """One solution of m x = rhs from the kernel of [m | rhs], or None.

    (x, -1) spans the solutions whose last coordinate is nonzero, so a
    kernel row with a nonzero last entry, scaled to -1 there, solves it.
    """
    p = m.p
    aug = np.hstack([m.a, np.asarray(rhs, dtype=np.int64).reshape(-1, 1) % p])
    ker, _ = kernel_rows_with_free(aug, p)
    for row in ker:
        if row[-1]:
            return row[:-1] * (p - pow(int(row[-1]), p - 2, p)) % p
    return None


def test_solve_single_equation_gf5():
    x = solve(Matrix(5, [[2]]), [3])
    assert x is not None
    assert list(x) == [4]
    assert 2 * 4 % 5 == 3
    assert list(inverse(Matrix(5, [[2]])).apply([3])) == [4]


def test_rank_of_dependent_rows_gf7():
    rows, piv = rref_rows(np.array([[1, 2], [2, 4]]), 7)
    assert len(piv) == rank_of(np.array([[1, 2], [2, 4]]), 7) == 1
    assert naive_rank([[1, 2], [2, 4]], 7) == 1
    assert piv == (0,)
    # only the nonzero rows of the reduced form are kept
    assert rows.tolist() == [[1, 2]]


def test_quotient_identifies_coordinates_gf5():
    rel = Subspace.from_spanning(5, 2, [[1, -1]])
    q = quotient_of(2, rel)
    assert q.dim == 1
    pa = q.project([1, 0])
    pb = q.project([0, 1])
    assert np.array_equal(pa, pb)
    # the section lifts back to a representative in the same class
    lifted = mul_mod(dense_pair(q)[1], pa.reshape(-1, 1), 5)[:, 0]
    assert np.array_equal(q.project(lifted), pa)


def test_row_reduce_idempotent(rng):
    for p in (2, 3, 7, 31):
        for _ in range(8):
            once = rref_rows(random_matrix(rng, 6, 9, p), p)
            twice = rref_rows(once[0], p)
            assert np.array_equal(once[0], twice[0])
            assert once[1] == twice[1]


def test_rank_nullity(rng):
    for p in (2, 5, 101):
        for _ in range(10):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            m = random_matrix(rng, rows, cols, p)
            rank = len(rref_rows(m, p)[1])
            ker, _ = kernel_rows_with_free(m, p)
            assert rank + ker.shape[0] == cols
            assert rank == naive_rank(m.tolist(), p)
            if ker.shape[0]:
                assert not mul_mod(m, ker.T, p).any()


def test_solve_roundtrip(rng):
    for p in (3, 13):
        for _ in range(12):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            m = Matrix(p, random_matrix(rng, rows, cols, p))
            x = rng.integers(0, p, size=cols, dtype=np.int64)
            rhs = mul_mod(m.a, x.reshape(-1, 1), p)[:, 0]
            y = solve(m, rhs)
            assert y is not None
            assert np.array_equal(mul_mod(m.a, y.reshape(-1, 1), p)[:, 0], rhs)
            got = naive_solve(m.a.tolist(), rhs.tolist(), p)
            assert got is not None


def test_solve_detects_inconsistency():
    m = Matrix(5, [[1, 2], [2, 4]])
    assert solve(m, [1, 3]) is None
    assert naive_solve([[1, 2], [2, 4]], [1, 3], 5) is None


def test_inverse_roundtrip(rng):
    for p in (2, 7, 1009):
        n = 5
        while True:
            m = Matrix(p, random_matrix(rng, n, n, p))
            if rank_of(m.a, p) == n:
                break
        assert (m @ inverse(m)) == Matrix.identity(p, n)
        assert (inverse(m) @ m) == Matrix.identity(p, n)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse(Matrix(3, [[1, 2], [2, 4]]))


def test_mul_mod_large_prime_paths(rng):
    # large enough that the float64 product would overflow: forces the
    # chunked int64 path, checked against python-int arithmetic
    p = 2147483629
    assert is_prime(p)
    a = rng.integers(0, p, size=(3, 4), dtype=np.int64)
    b = rng.integers(0, p, size=(4, 2), dtype=np.int64)
    got = mul_mod(a, b, p)
    for i in range(3):
        for j in range(2):
            want = sum(int(a[i, k]) * int(b[k, j]) for k in range(4)) % p
            assert int(got[i, j]) == want


def test_mul_mod_empty_inner():
    out = mul_mod(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64), 7)
    assert out.shape == (2, 3)
    assert not out.any()


@pytest.mark.parametrize("p", [5, 2**31 - 1])
def test_mul_mod_stacked_is_slice_by_slice(rng, p):
    # at 2**31 - 1 every product takes the chunked int64 path
    a = rng.integers(0, p, size=(4, 3, 5), dtype=np.int64)
    b = rng.integers(0, p, size=(4, 5, 2), dtype=np.int64)
    got = mul_mod(a, b, p)
    assert got.shape == (4, 3, 2)
    for k in range(4):
        assert np.array_equal(got[k], mul_mod(a[k], b[k], p))
    empty = mul_mod(np.zeros((4, 3, 0), dtype=np.int64), np.zeros((4, 0, 2), dtype=np.int64), p)
    assert empty.shape == (4, 3, 2)
    assert not empty.any()


# primes at both ends of ``mul_mod``'s range: at 1048573 (the largest
# prime below 2**20) an inner dimension of up to 8192 stays in float64,
# and at 2**31 - 1 every product accumulates in int64
KERNEL_PRIMES = [2, 3, 5, 7, 1048573, 2**31 - 1]


def naive_product(a, b, p):
    """(a @ b) % p on python ints, slice by slice for stacks."""
    if a.ndim == 3:
        return np.array([naive_product(x, y, p) for x, y in zip(a, b)],
                        dtype=np.int64).reshape(a.shape[0], a.shape[1], b.shape[2])
    out = [[sum(int(a[i, t]) * int(b[t, j]) for t in range(a.shape[1])) % p
            for j in range(b.shape[1])] for i in range(a.shape[0])]
    return np.array(out, dtype=np.int64).reshape(a.shape[0], b.shape[1])


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(KERNEL_PRIMES), st.integers(0, 3), st.integers(0, 4), st.integers(0, 5),
       st.integers(0, 4), st.sampled_from(["contiguous", "transposed", "sliced"]),
       st.integers(0, 2**32 - 1))
def test_mul_mod_is_the_python_int_product(p, stack, rows, inner, cols, layout, seed):
    # residues weighted to 0 and p - 1, so that products and sums of the
    # largest residues and exact multiples of p come up often; stack 0
    # means 2-D operands
    rng = np.random.default_rng(seed)
    lead = (stack,) if stack else ()

    def residues(*shape):
        pick = rng.integers(0, 3, size=shape)
        return np.where(pick == 0, 0, np.where(pick == 1, p - 1, rng.integers(0, p, size=shape)))

    if layout == "transposed":      # Fortran-ordered operands, as views
        a = residues(*lead, inner, rows).swapaxes(-1, -2)
        b = residues(*lead, cols, inner).swapaxes(-1, -2)
    elif layout == "sliced":        # every other row and column of larger arrays
        a = residues(*lead, 2 * rows + 1, 2 * inner + 1)[..., 1::2, ::2][..., :rows, :inner]
        b = residues(*lead, 2 * inner + 1, 2 * cols + 1)[..., ::2, 1::2][..., :inner, :cols]
    else:
        a, b = residues(*lead, rows, inner), residues(*lead, inner, cols)
    assert a.shape == (*lead, rows, inner) and b.shape == (*lead, inner, cols)
    got = mul_mod(a, b, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, naive_product(a, b, p))


@pytest.mark.parametrize("extra", [0, 1])
def test_mul_mod_at_the_largest_float_inner_dimension(extra):
    # inner * (p-1)**2 < 2**53 is the float64 path's bound; all-(p-1)
    # operands reach the largest exact sum on it.  One more term takes the
    # int64 path, where the (p-2) row and column sum to an odd integer
    # above 2**53, which float64 cannot hold
    p = 1048573
    inner = (2**53 - 1) // (p - 1) ** 2 + extra
    a = np.full((2, inner), p - 1, dtype=np.int64)
    a[1] = p - 2
    b = np.full((inner, 3), p - 1, dtype=np.int64)
    b[:, 1] = p - 2
    assert (inner * (p - 1) ** 2 < 2**53) == (not extra)
    got = mul_mod(a, b.T.copy().T, p)
    want = [[inner * x * y % p for y in (p - 1, p - 2, p - 1)] for x in (p - 1, p - 2)]
    assert got.tolist() == want


@st.composite
def echelon_cases(draw):
    """(p, a) with a random matrix of rank at most r: wide, tall or square,
    rank-deficient when r < min(rows, cols), built as a product of
    random rows x r and r x cols factors on python ints."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left, right = random_matrix(rng, rows, r, p), random_matrix(rng, r, cols, p)
    return p, naive_product(left, right, p)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(echelon_cases())
def test_rref_and_kernel_are_python_gauss_jordan(case):
    p, a = case
    ncols = a.shape[1]
    want_rows, want_piv = naive_rref(a.tolist(), p, ncols)
    rows, piv = rref_rows(a, p)
    assert list(piv) == want_piv
    assert rows.tolist() == want_rows
    # the canonical kernel: row t is the t-th free unit vector minus its
    # column of the RREF at the pivots
    free = [c for c in range(ncols) if c not in want_piv]
    want_ker = [[1 if c == f else 0 for c in range(ncols)] for f in free]
    for row, col in zip(want_rows, want_piv):
        for t, f in enumerate(free):
            want_ker[t][col] = -row[f] % p
    ker, got_free = kernel_rows_with_free(a, p)
    assert got_free == free
    assert ker.reshape(len(free), ncols).tolist() == want_ker
    assert all(sum(int(x) * int(y) for x, y in zip(row, k)) % p == 0
               for row in a.tolist() for k in want_ker)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(KERNEL_PRIMES), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.booleans())
def test_inverse_is_python_gauss_jordan(p, n, seed, singular):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, n, n, p)
    if singular:    # a row that combines the others
        m[-1] = naive_product(random_matrix(rng, 1, n - 1, p), m[:-1], p)[0] if n > 1 else 0
    rows, piv = naive_rref([row + [int(i == j) for j in range(n)]
                            for i, row in enumerate(m.tolist())], p, n)
    if len(piv) < n:
        with pytest.raises(ValueError, match="singular"):
            inverse(Matrix(p, m))
        return
    got = inverse(Matrix(p, m))
    assert got.a.tolist() == [row[n:] for row in rows]
    assert got.a.base is None or got.a.base.shape == (n, n)


def test_accumulator_matches_oneshot(rng, monkeypatch):
    from coringlab import linalg

    monkeypatch.setattr(linalg, "RREF_CHUNK", 7)
    for p in (2, 5, 31):
        m = random_matrix(rng, 40, 17, p)
        acc = RrefAccumulator(17, p)
        for lo in range(0, 40, 11):
            acc.add(m[lo : lo + 11])
        rows, piv = acc.result()
        want_rows, want_piv = rref_rows(m, p)
        assert piv == want_piv
        assert np.array_equal(rows, want_rows)


def test_accumulator_does_not_reduce_a_chunk_it_spans(rng, monkeypatch):
    # a chunk that reduces to zero against the basis returns before the
    # echelon pass; one that does not still runs it
    from coringlab import linalg

    p = 7
    rows = random_matrix(rng, 4, 9, p)
    acc = RrefAccumulator(9, p)
    acc.add(rows)
    before = acc.result()
    calls = []
    real = linalg._rref_inplace

    def counted(a, p, col_stop=None):
        calls.append(a.shape)
        return real(a, p, col_stop)

    monkeypatch.setattr(linalg, "_rref_inplace", counted)
    acc.add(mul_mod(random_matrix(rng, 6, 4, p), rows, p))
    assert calls == []
    assert np.array_equal(acc.result()[0], before[0]) and acc.result()[1] == before[1]
    acc.add(np.eye(9, dtype=np.int64)[:2])
    assert len(calls) == 1
    assert len(acc.pivots) == naive_rank(np.vstack([rows, np.eye(9, dtype=np.int64)[:2]]), p)


def test_subspace_membership_and_coords(rng):
    p = 7
    vecs = random_matrix(rng, 3, 6, p)
    sp = Subspace.from_spanning(p, 6, vecs)
    combo = mul_mod(rng.integers(0, p, size=(1, 3), dtype=np.int64), vecs, p)[0]
    coords = sp.coords_of(combo)
    assert coords is not None
    back = mul_mod(coords.reshape(1, -1), sp.rows, p)[0]
    assert np.array_equal(back, combo)
    # a unit vector off the pivots lies outside the span: its pivot
    # entries are 0, so its combination is 0
    for col in sorted(set(range(6)) - set(sp.at.tolist())):
        outside = np.eye(6, dtype=np.int64)[col]
        assert sp.coords_of(outside) is None
        assert sp.coords_of((combo + outside) % p) is None


@pytest.mark.parametrize("p", [2, 5, 31])
def test_span_coords_reads_members_and_marks_the_rest(rng, p):
    # RREF rows (identity at the pivots) and kernel rows (identity at the
    # free columns), each read against members and random vectors
    a = random_matrix(rng, 4, 9, p)
    bases = [rref_rows(a, p), kernel_rows_with_free(a, p)]
    for rows, at in bases:
        members = mul_mod(rng.integers(0, p, size=(5, rows.shape[0])), rows, p)
        xs = np.vstack([members, random_matrix(rng, 5, 9, p)])
        coords, off = span_coords(rows, at, xs, p)
        assert np.array_equal(coords, xs[:, list(at)])
        # the mask is exactly where the combination misses the row
        assert np.array_equal(off, mul_mod(coords, rows, p) != xs)
        for x, row_off in zip(xs, off):
            inside = naive_rank(np.vstack([rows, x]), p) == rows.shape[0]
            assert inside == (not row_off.any())


def test_induced_map_identity(rng):
    p = 5
    rel = Subspace.from_spanning(p, 4, random_matrix(rng, 2, 4, p))
    q = quotient_of(4, rel)
    ind = induced_map(q, q, Matrix.identity(p, 4))
    assert ind == Matrix.identity(p, q.dim)


def test_induced_map_rejects_unbalanced():
    # the map (x, y) -> (x, 0) does not preserve the relation x = y
    rel = Subspace.from_spanning(5, 2, [[1, -1]])
    q = quotient_of(2, rel)
    with pytest.raises(NotWellDefinedError):
        induced_map(q, q, Matrix(5, [[1, 0], [0, 0]]))


def test_quotient_projection_section_contract(rng):
    for p in (2, 11):
        rel = Subspace.from_spanning(p, 7, random_matrix(rng, 3, 7, p))
        q = quotient_of(7, rel)
        proj, sect = dense_pair(q)
        assert q.dim == 7 - rel.dim
        # projection kills exactly the relation span
        if rel.dim:
            assert not mul_mod(proj, rel.rows.T, p).any()
        assert Matrix(p, proj) @ Matrix(p, sect) == Matrix.identity(p, q.dim)
        # lifting then projecting is the identity on quotient coordinates
        v = rng.integers(0, p, size=7, dtype=np.int64)
        assert np.array_equal(q.project(Matrix(p, sect).apply(q.project(v))), q.project(v))


@st.composite
def quotients_and_maps(draw):
    """A quotient of GF(p)^n by a random span and a map from GF(p)^n:
    random, or a random map on the quotient composed with the projection
    (so it kills the relations), perhaps moved by one unit entry."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 6))

    def matrix(rows, cols):
        flat = st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
        return draw(flat.map(lambda v: np.array(v, dtype=np.int64).reshape(rows, cols)))

    rel = Subspace.from_spanning(p, n, matrix(draw(st.integers(0, n)), n))
    q = quotient_of(n, rel)
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return rel, q, matrix(k, n)
    m = mul_mod(matrix(k, q.dim), q.rows, p)
    if draw(st.booleans()):
        m[draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))] += 1
    return rel, q, m % p


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(quotients_and_maps())
def test_descend_raises_exactly_when_a_relation_survives(case):
    rel, q, m = case
    p = q.p
    if mul_mod(m, rel.rows.T, p).any():
        with pytest.raises(NotWellDefinedError):
            descend(q, m)
    else:
        assert np.array_equal(descend(q, m), mul_mod(m, dense_pair(q)[1], p))


def test_every_section_descends_alike(rng):
    for p in (3, 7):
        rel = Subspace.from_spanning(p, 7, random_matrix(rng, 3, 7, p))
        q = quotient_of(7, rel)
        # s + K X is a section too when the columns of K span the relations
        moved = mul_mod(rel.rows.T, random_matrix(rng, rel.dim, q.dim, p), p)
        assert moved.any()
        proj, sect = dense_pair(q)
        other = (sect + moved) % p
        assert Matrix(p, proj) @ Matrix(p, other) == Matrix.identity(p, q.dim)
        # maps that kill the relations are the maps through the projection
        maps = mul_mod(random_matrix(rng, 5, q.dim, p), proj, p)
        assert np.array_equal(descend_by(proj, other, maps, p), descend(q, maps))


def test_descend_names_the_first_failing_coordinate():
    # (x, y, z) -> y on GF(5)^3 modulo y = z: coordinates 0 and 2 are
    # their own representatives, and coordinate 1 is represented by 2
    q = quotient_of(3, Subspace.from_spanning(5, 3, [[0, 1, -1]]))
    with pytest.raises(NotWellDefinedError, match="ambient coordinate 1 "):
        descend(q, np.array([[0, 1, 0]]))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([2, 5, 2**31 - 1]), st.integers(1, 7), st.integers(0, 7),
       st.integers(1, 3), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_descent_gathers_the_product_by_the_section(p, n, n_rel, k, moved, seed):
    # a map through the projection, with up to two entries moved: the
    # gather on the free columns returns m @ section, or refuses at the
    # coordinate the products by the section and projection name
    rng = np.random.default_rng(seed)
    q = quotient_of(n, Subspace.from_spanning(p, n, random_matrix(rng, n_rel, n, p)))
    assert q.free is not None
    m = mul_mod(random_matrix(rng, k, q.dim, p), q.rows, p)
    for _ in range(moved):
        m[rng.integers(k), rng.integers(n)] = rng.integers(p)
    try:
        want = dense_descend(q, m)
    except NotWellDefinedError as err:
        with pytest.raises(NotWellDefinedError, match=re.escape(str(err))):
            descend(q, m)
    else:
        assert np.array_equal(want, mul_mod(m, dense_pair(q)[1], p))
        assert np.array_equal(descend(q, m), want)


def test_trivial_quotient_is_identity():
    q = trivial_quotient(3, 4)
    assert q.dim == 4
    assert all(Matrix(3, a) == Matrix.identity(3, 4) for a in dense_pair(q))


@st.composite
def commutant_pairs(draw):
    """(p, dim_left, dim_right, pairs) for ``commutant``: diagonals drawn
    from a few values, so that entries repeat and some agree only mod p;
    the entry at the top right is zero, p (zero mod p) or 1, the one
    entry off the diagonal that sends the solve to the reduction; a pair
    of equal scalars gives an all-zero block."""
    p = draw(st.sampled_from([2, 5, 2**31 - 1]))
    dim_left, dim_right = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    value = st.sampled_from([0, 1, 2, p - 1, p + 1])

    def matrix(dim):
        m = np.diag(np.array(draw(st.lists(value, min_size=dim, max_size=dim)), dtype=np.int64))
        if dim > 1:
            m[0, dim - 1] = draw(st.sampled_from([0, p, 1]))
        return m

    pairs = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            c = draw(value)
            pairs.append((c * np.eye(dim_left, dtype=np.int64),
                          c * np.eye(dim_right, dtype=np.int64)))
        else:
            pairs.append((matrix(dim_left), matrix(dim_right)))
    return p, dim_left, dim_right, pairs


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(commutant_pairs())
def test_commutant_is_the_kernel_of_the_stacked_blocks(case):
    p, dim_left, dim_right, pairs = case
    n = dim_left * dim_right
    blocks = [np.zeros((0, n), dtype=np.int64)]
    for left, right in pairs:
        blocks.append(np.kron(left, np.eye(dim_right, dtype=np.int64))
                      - np.kron(np.eye(dim_left, dtype=np.int64), right))
    rows, free = commutant(p, dim_left, dim_right, pairs)
    expected_rows, expected_free = kernel_rows_with_free(np.vstack(blocks) % p, p)
    assert np.array_equal(rows, expected_rows)
    assert free == expected_free


@st.composite
def monomial_pairs(draw):
    """(p, dim_left, dim_right, pairs) for ``orbit_kernel``: each matrix a
    random permutation with scalars, as (index, scalar) arrays.  The
    scalars are all 1 or drawn at random, so that the orbits of some
    draws keep their ratios and others disagree around a cycle, a fixed
    point with two scalars that differ among them."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim_left, dim_right = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ones = draw(st.booleans())

    def monomial(dim):
        at = np.array(draw(st.permutations(range(dim))), dtype=np.int64)
        if ones:
            return at, np.ones(dim, dtype=np.int64)
        return at, np.array(draw(st.lists(st.integers(1, p - 1), min_size=dim, max_size=dim)),
                            dtype=np.int64)

    pairs = [(monomial(dim_left), monomial(dim_right)) for _ in range(draw(st.integers(0, 3)))]
    return p, dim_left, dim_right, pairs


def dense_monomial(at, scalars):
    m = np.zeros((len(at), len(at)), dtype=np.int64)
    m[at, np.arange(len(at))] = scalars
    return m


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(monomial_pairs())
def test_the_orbit_kernel_is_the_commutant(case):
    # the same rows and free columns as the streamed reduction, byte for byte
    p, dim_left, dim_right, pairs = case
    dense = [tuple(dense_monomial(*side) for side in pair) for pair in pairs]
    rows, free = orbit_kernel(p, dim_left, dim_right, pairs)
    want_rows, want_free = commutant(p, dim_left, dim_right, dense)
    assert (rows.dtype, rows.shape, rows.tobytes()) == (want_rows.dtype, want_rows.shape,
                                                         want_rows.tobytes())
    assert free == want_free


def test_an_orbit_whose_ratios_disagree_is_dropped():
    # a 3-cycle of unknowns: scalars whose product around it is 1 keep
    # its one kernel vector, a product of 2 drops it
    p, cycle = 5, np.array([1, 2, 0])
    keep = ((cycle, np.array([2, 3, 1])), (np.arange(1), np.ones(1, dtype=np.int64)))
    drop = ((cycle, np.array([2, 1, 1])), (np.arange(1), np.ones(1, dtype=np.int64)))
    rows, free = orbit_kernel(p, 3, 1, [keep])
    assert rows.shape == (1, 3) and free == [2]
    assert orbit_kernel(p, 3, 1, [drop])[0].shape == (0, 3)
    assert np.array_equal(rows, commutant(p, 3, 1, [tuple(dense_monomial(*s) for s in keep)])[0])


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([2, 5, 2**31 - 1]), st.integers(1, 5), st.integers(1, 7),
       st.integers(0, 2**32 - 1))
def test_span_with_free_is_the_kernel_basis_it_spans(p, nrows, ncols, seed):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, nrows, ncols, p)
    a[rng.random(nrows) < 0.3] = 0
    rows, free = kernel_rows_with_free(a, p)
    # the same span, scrambled: random combinations, then the rows backwards
    mixed = np.vstack([mul_mod(random_matrix(rng, 2, len(free), p), rows, p), rows[::-1]])
    got_rows, got_free = span_with_free(mixed, p)
    assert np.array_equal(got_rows, rows)
    assert got_free == free


def test_primality_gate():
    assert is_prime(2) and is_prime(3) and is_prime(2147483629)
    assert not is_prime(1) and not is_prime(9) and not is_prime(2147483629 + 2)
    with pytest.raises(ValueError):
        check_prime(6)
    with pytest.raises(ValueError):
        check_prime(2**31 + 11)  # prime, but out of range
    with pytest.raises(ValueError):
        Field(10)
    assert Field(97).p == 97


def test_kernels_take_and_give_residues_on_the_corpus(monkeypatch):
    # the residue contract: every operand and result of ``mul_mod`` is an
    # int64 array in [0, p), and so is every 2-D array ``Matrix._wrap``
    # holds without reducing it, on every corpus command
    import coringlab.linalg as linalg

    def residues(a, p):
        return a.dtype == np.int64 and (a.size == 0 or 0 <= a.min() <= a.max() < p)

    plain_mul, plain_wrap = linalg.mul_mod, Matrix._wrap.__func__
    seen = {"mul_mod": 0, "wrap": 0}

    def mul_mod_checked(a, b, p):
        assert residues(a, p) and residues(b, p), (a.dtype, b.dtype, p)
        out = plain_mul(a, b, p)
        assert residues(out, p)
        seen["mul_mod"] += 1
        return out

    def wrap_checked(cls, p, a):
        assert a.ndim == 2 and residues(a, p), (a.shape, a.dtype, p)
        seen["wrap"] += 1
        return plain_wrap(cls, p, a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coringlab" and vars(module).get("mul_mod") is plain_mul:
            monkeypatch.setattr(module, "mul_mod", mul_mod_checked)
    monkeypatch.setattr(Matrix, "_wrap", classmethod(wrap_checked))
    commands = [[c, str(corpus_path(f"{n}.json"))] for n in extension_names()
                for c in ("cohomology", "amitsur", "verify-iso")]
    commands += [["hopf-check", str(corpus_path(f"{n}.json"))] for n in hopf_names()]
    commands += [["gs-compare", str(corpus_path(f"{n}.facets")), "--max-degree", "2"]
                 for n in ("filled_triangle", "hollow_triangle")]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) in (0, 1), argv
    assert seen["mul_mod"] > 1000 and seen["wrap"] > 1000, seen
