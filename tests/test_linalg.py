"""Exact linear algebra over GF(p): frozen examples and random cross-checks."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coringlab.errors import NotWellDefinedError
from coringlab.linalg import (
    Field,
    Matrix,
    QuotientSpace,
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
    quotient_of,
    rank_of,
    rref_rows,
    trivial_quotient,
)

from conftest import (
    enumerate_kernel,
    naive_rank,
    naive_solve,
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
    lifted = q.section.apply(pa)
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


def test_accumulator_matches_oneshot(rng):
    for p in (2, 5, 31):
        m = random_matrix(rng, 40, 17, p)
        acc = RrefAccumulator(17, p, chunk=7)
        for lo in range(0, 40, 11):
            acc.add(m[lo : lo + 11])
        rows, piv = acc.result()
        want_rows, want_piv = rref_rows(m, p)
        assert piv == want_piv
        assert np.array_equal(rows, want_rows)


def test_subspace_membership_and_coords(rng):
    p = 7
    vecs = random_matrix(rng, 3, 6, p)
    sp = Subspace.from_spanning(p, 6, vecs)
    combo = mul_mod(rng.integers(0, p, size=(1, 3), dtype=np.int64), vecs, p)[0]
    assert sp.contains(combo)
    coords = sp.coords_of(combo)
    assert coords is not None
    back = mul_mod(coords.reshape(1, -1), sp.rows, p)[0]
    assert np.array_equal(back, combo)
    # a vector outside the span (if the span is proper) has no coordinates
    if sp.dim < 6:
        outside = sp.reduce(np.eye(6, dtype=np.int64)[0])
        if outside.any():
            assert sp.coords_of((combo + outside) % p) is None


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
        assert q.dim == 7 - rel.dim
        # projection kills exactly the relation span
        if rel.dim:
            assert not mul_mod(q.projection.a, rel.rows.T, p).any()
        assert (q.projection @ q.section) == Matrix.identity(p, q.dim)
        # lifting then projecting is the identity on quotient coordinates
        v = rng.integers(0, p, size=7, dtype=np.int64)
        assert np.array_equal(q.project(q.section.apply(q.project(v))), q.project(v))


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
    m = mul_mod(matrix(k, q.dim), q.projection.a, p)
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
        assert np.array_equal(descend(q, m), mul_mod(m, q.section.a, p))


def test_every_section_descends_alike(rng):
    for p in (3, 7):
        rel = Subspace.from_spanning(p, 7, random_matrix(rng, 3, 7, p))
        q = quotient_of(7, rel)
        # s + K X is a section too when the columns of K span the relations
        moved = mul_mod(rel.rows.T, random_matrix(rng, rel.dim, q.dim, p), p)
        assert moved.any()
        other = QuotientSpace(p, q.projection, Matrix(p, (q.section.a + moved) % p))
        assert other.projection @ other.section == Matrix.identity(p, q.dim)
        # maps that kill the relations are the maps through the projection
        maps = mul_mod(random_matrix(rng, 5, q.dim, p), q.projection.a, p)
        assert np.array_equal(descend(other, maps), descend(q, maps))


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
    m = mul_mod(random_matrix(rng, k, q.dim, p), q.projection.a, p)
    for _ in range(moved):
        m[rng.integers(k), rng.integers(n)] = rng.integers(p)
    dense = QuotientSpace(p, q.projection, q.section)
    try:
        want = descend(dense, m)
    except NotWellDefinedError as err:
        with pytest.raises(NotWellDefinedError, match=re.escape(str(err))):
            descend(q, m)
    else:
        assert np.array_equal(want, mul_mod(m, q.section.a, p))
        assert np.array_equal(descend(q, m), want)


def test_trivial_quotient_is_identity():
    q = trivial_quotient(3, 4)
    assert q.dim == 4
    assert q.projection == Matrix.identity(3, 4)
    assert q.section == Matrix.identity(3, 4)


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
