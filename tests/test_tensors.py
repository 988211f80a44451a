"""Relative tensor powers: dimensions, balancedness, multiplication maps."""

import numpy as np
import pytest

from coringlab.algebras import matrix_algebra, self_extension, trivial_extension
from coringlab.errors import SizeLimitError
from coringlab.linalg import Field, rref_rows
from coringlab.tensors import (
    RELATION_ENTRY_BUDGET,
    balanced_pair,
    balanced_power,
    build_power,
    embed_pure,
    mult_at,
    pair_relation_rows,
    relation_entries,
)

from test_algebras import ut2_diag_extension


def brute_relation_rank(e, n):
    """Slot relations enumerated one generator at a time, nothing shared
    with the structured construction in tensors.py."""
    a = e.ambient
    d, p = a.dim, a.p
    eye = np.eye(d, dtype=np.int64)
    vecs = []
    for slot in range(1, n):
        pre = d ** (slot - 1)
        post = d ** (n - slot - 1)
        for b in e.sub_images():
            for u in range(d):
                for v in range(d):
                    xb = a.multiply(eye[u], b)
                    bv = a.multiply(b, eye[v])
                    core = (np.kron(xb, eye[v]) - np.kron(eye[u], bv)) % p
                    for c in range(pre):
                        lead = np.zeros(pre, dtype=np.int64)
                        lead[c] = 1
                        vec = np.kron(lead, core)
                        if post > 1:
                            for t in range(post):
                                tail = np.zeros(post, dtype=np.int64)
                                tail[t] = 1
                                vecs.append(np.kron(vec, tail) % p)
                        else:
                            vecs.append(vec % p)
    if not vecs:
        return 0
    return len(rref_rows(np.vstack(vecs), p)[1])


def test_trivial_base_gives_plain_powers():
    e = trivial_extension(matrix_algebra(Field(5), 2))
    t = build_power(e, 2)
    assert t.dim == 16
    assert t.space.relations.dim == 0


def test_ut2_diag_power_dims():
    e = ut2_diag_extension(5)
    assert build_power(e, 1).dim == 3
    assert build_power(e, 2).dim == 4
    assert build_power(e, 3).dim == 5


def test_structured_relations_match_bruteforce():
    e = ut2_diag_extension(5)
    for n in (2, 3):
        t = build_power(e, n)
        want_rank = brute_relation_rank(e, n)
        assert t.space.relations.dim == want_rank
        assert t.dim == e.ambient.dim**n - want_rank
    m2 = self_extension(matrix_algebra(Field(3), 2))
    t = build_power(m2, 2)
    assert t.dim == 4  # A tensor_A A is A itself
    assert t.space.relations.dim == brute_relation_rank(m2, 2) == 12


def test_embed_pure_balanced(rng):
    e = ut2_diag_extension(5)
    t = build_power(e, 2)
    a = e.ambient
    for _ in range(25):
        x = rng.integers(0, 5, size=3, dtype=np.int64)
        y = rng.integers(0, 5, size=3, dtype=np.int64)
        bc = rng.integers(0, 5, size=2, dtype=np.int64)
        b = e.inclusion.apply(bc)
        lhs = embed_pure(t, [a.multiply(x, b), y])
        rhs = embed_pure(t, [x, a.multiply(b, y)])
        assert np.array_equal(lhs, rhs)


def test_embed_unit_tensor_nonzero():
    e = ut2_diag_extension(5)
    t = build_power(e, 2)
    v = embed_pure(t, [e.ambient.unit, e.ambient.unit])
    assert v.any()


def test_embed_idempotent_absorption():
    # e11 lies in B and is idempotent, so it can hop across the tensor sign
    e = ut2_diag_extension(5)
    t = build_power(e, 2)
    a = e.ambient
    e01 = np.array([0, 1, 0], dtype=np.int64)
    e11 = np.array([0, 0, 1], dtype=np.int64)
    lhs = embed_pure(t, [a.multiply(e01, e11), e11])
    rhs = embed_pure(t, [e01, a.multiply(e11, e11)])
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(rhs, embed_pure(t, [e01, e11]))


def test_mult_at_collapses_pure_tensors(rng):
    e = ut2_diag_extension(5)
    t2 = build_power(e, 2)
    t1 = build_power(e, 1)
    m = mult_at(t2, t1, 1)
    a = e.ambient
    for _ in range(20):
        x = rng.integers(0, 5, size=3, dtype=np.int64)
        y = rng.integers(0, 5, size=3, dtype=np.int64)
        got = m.apply(embed_pure(t2, [x, y]))
        want = t1.space.project(a.multiply(x, y))
        assert np.array_equal(got, want)
    unit = m.apply(embed_pure(t2, [a.unit, a.unit]))
    assert np.array_equal(unit, t1.space.project(a.unit))


def test_mult_at_simplicial_identities():
    e = ut2_diag_extension(5)
    t = {n: build_power(e, n) for n in (2, 3, 4)}
    mu = {(n, i): mult_at(t[n + 1], t[n], i) for n in (2, 3) for i in range(1, n + 1)}
    # mu_i . mu_{j+1} = mu_j . mu_i for i <= j, on the 4 -> 3 -> 2 chain
    for i in range(1, 3):
        for j in range(i, 3):
            lhs = mu[(2, i)] @ mu[(3, j + 1)]
            rhs = mu[(2, j)] @ mu[(3, i)]
            assert lhs == rhs


def test_mult_at_matches_self_extension_dims():
    m2 = self_extension(matrix_algebra(Field(3), 2))
    t2 = build_power(m2, 2)
    t1 = build_power(m2, 1)
    m = mult_at(t2, t1, 1)
    # A tensor_A A -> A is a bijection: square with full rank
    assert m.shape == (4, 4)
    from coringlab.linalg import rank_of

    assert rank_of(m.a, 3) == 4


def test_power_size_cap():
    e = ut2_diag_extension(5)
    with pytest.raises(SizeLimitError):
        build_power(e, 5)
    with pytest.raises(ValueError):
        build_power(e, 0)


def test_pair_relation_rows_empty_for_scalar_base():
    e = trivial_extension(matrix_algebra(Field(5), 2))
    a = e.ambient
    rights = [a.right_mul(b).a for b in e.sub_images()]
    lefts = [a.left_mul(b).a for b in e.sub_images()]
    rows = pair_relation_rows(5, 4, 4, rights, lefts)
    assert rows.shape[0] == 0


def test_balanced_power_seeding_consistency(rng):
    # random action pair: compare the seeded accumulator result with a
    # one-shot reduction of the very same generator matrix
    p, d = 5, 3
    rights = [rng.integers(0, p, size=(d, d), dtype=np.int64)]
    lefts = [rng.integers(0, p, size=(d, d), dtype=np.int64)]
    q = balanced_power(p, d, rights, lefts, 3)
    core = pair_relation_rows(p, d, d, rights, lefts)
    eye = np.eye(d, dtype=np.int64)
    gens = np.vstack([np.kron(core, eye), np.kron(eye, core)])
    rows, piv = rref_rows(gens, p)
    assert q.relations.dim == len(piv)
    assert np.array_equal(q.relations.rows, rows)


def test_relation_budget_admits_the_builds_in_use():
    # A (x)_B A (x)_B A of the filled triangle's 19-dim incidence algebra
    # over its 7 vertex idempotents (gs-compare --max-degree 2)
    assert relation_entries(19 * 19, 7, 19**3) == 19**6
    assert relation_entries(19 * 19, 7, 19**3) <= RELATION_ENTRY_BUDGET
    # coring power(3) as power(2) (x) carrier: M2 endomorphism coring
    # (64 x 16 over a 4-dim base), S3/C2 Sweedler coring (54 x 18 over 6)
    assert relation_entries(1024, 4, 1024) == 4 * 1024**2
    assert relation_entries(972, 6, 972) <= RELATION_ENTRY_BUDGET
    # the generator blocks dominate a pairwise build
    assert relation_entries(10, 3, 10) == 300
    # the filled triangle's fourth power would take about 1.7e10 entries
    assert relation_entries(19 * 19, 7, 19**4) > RELATION_ENTRY_BUDGET


def test_oversized_powers_are_refused_before_allocating():
    p = 5
    eye19 = [np.eye(19, dtype=np.int64)]
    with pytest.raises(SizeLimitError, match="ambient dimension 130321"):
        balanced_power(p, 19, eye19, eye19, 4)
    with pytest.raises(SizeLimitError, match="ambient dimension 16000"):
        balanced_pair(p, 400, 40, [np.eye(400, dtype=np.int64)], [np.eye(40, dtype=np.int64)])


def test_balanced_pair_is_the_dense_square():
    e = ut2_diag_extension(5)
    a = e.ambient
    rights = [a.right_mul(b).a for b in e.sub_images()]
    lefts = [a.left_mul(b).a for b in e.sub_images()]
    pair = balanced_pair(5, a.dim, a.dim, rights, lefts)
    square = balanced_power(5, a.dim, rights, lefts, 2)
    assert np.array_equal(pair.relations.rows, square.relations.rows)
    assert np.array_equal(pair.projection.a, square.projection.a)
