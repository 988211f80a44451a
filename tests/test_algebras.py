"""Structure-constant algebras: constructors, validation, centralizers, duals."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coringlab import algebras
from coringlab.algebras import (
    Extension,
    FinDimAlgebra,
    HopfData,
    centralizer,
    diagonal_algebra,
    dual_hopf,
    field_ext_algebra,
    group_algebra,
    group_hopf,
    matrix_algebra,
    one_dim_algebra,
    self_extension,
    subalgebra_on,
    algebra_violations,
    trivial_extension,
    upper_triangular,
    validate,
)
from coringlab.errors import AxiomError, ElementNotInSpaceError, SizeLimitError
from coringlab.linalg import Field, Matrix, Subspace

from conftest import (kron_algebra_violations, kron_bialgebra_violations, multiply,
                      span_from_vectors)

C2 = [[0, 1], [1, 0]]
C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def ut2_diag_extension(p):
    """Upper-triangular 2x2 over its diagonal subalgebra."""
    a = upper_triangular(Field(p), 2)
    b = diagonal_algebra(Field(p), 2)
    incl = Matrix(p, [[1, 0], [0, 0], [0, 1]])
    return Extension(a, b, incl)


def test_matrix_algebra_units():
    a = matrix_algebra(Field(5), 2)
    assert a.dim == 4
    assert validate(a).ok
    # e12 * e21 = e11 (indices: e11=0, e12=1, e21=2, e22=3)
    e12 = np.eye(4, dtype=np.int64)[1]
    e21 = np.eye(4, dtype=np.int64)[2]
    e11 = np.eye(4, dtype=np.int64)[0]
    assert np.array_equal(a.left_mul(e12).apply(e21), e11)
    assert np.array_equal(multiply(a, e12, e21), e11)
    assert np.array_equal(a.left_mul(a.unit).a, np.eye(4, dtype=np.int64))


def test_validate_reports_corrupted_slot():
    a = matrix_algebra(Field(5), 2)
    bad = np.array(a.tensor)
    bad[1, 2, 3] = (bad[1, 2, 3] + 1) % 5  # e12*e21 picks up a spurious e22
    broken = FinDimAlgebra.from_tensor(a.field, a.basis_names, bad, a.unit)
    rep = validate(broken)
    assert not rep.ok
    assert any("associativity" in f for f in rep.failures)


def test_group_algebra_c3_commutative():
    a = group_algebra(Field(7), C3)
    assert a.dim == 3
    assert validate(a).ok
    for i in range(3):
        for j in range(3):
            ei = np.eye(3, dtype=np.int64)[i]
            ej = np.eye(3, dtype=np.int64)[j]
            assert np.array_equal(multiply(a, ei, ej), multiply(a, ej, ei))


def test_group_algebra_c2_gf2():
    assert validate(group_algebra(Field(2), C2)).ok


def test_group_algebra_rejects_bad_tables():
    with pytest.raises(ValueError):
        group_algebra(Field(5), [[0, 1], [0, 1]])  # repeated column entries
    with pytest.raises(ValueError, match="identity"):
        group_algebra(Field(5), [[1, 0, 2], [0, 2, 1], [2, 1, 0]])  # no identity row
    # smallest nonassociative loop: Latin square with identity, order 5
    loop5 = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associativity"):
        group_algebra(Field(5), loop5)


def test_field_ext_algebra_sqrt2():
    # x^2 - 2 over GF(5); 2 is not a square mod 5 (squares are 0, 1, 4)
    assert {x * x % 5 for x in range(5)} == {0, 1, 4}
    a = field_ext_algebra(5, [-2, 0, 1])
    assert a.dim == 2
    assert validate(a).ok
    x = np.array([0, 1], dtype=np.int64)
    assert np.array_equal(multiply(a, x, x), np.array([2, 0]))


def test_field_ext_algebra_rejects_reducible():
    with pytest.raises(ValueError, match="reducible"):
        field_ext_algebra(5, [-1, 0, 1])  # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(ValueError, match="monic"):
        field_ext_algebra(5, [1, 2])


def test_centralizer_ut2_diag_is_diagonal():
    e = ut2_diag_extension(5)
    r = centralizer(e)
    assert r.dim == 2
    # oracle: brute-force enumeration of all 125 elements of A
    want = set()
    ims = e.sub_images()
    for v in itertools.product(range(5), repeat=3):
        x = np.array(v, dtype=np.int64)
        if all(
            np.array_equal(multiply(e.ambient, x, b), multiply(e.ambient, b, x))
            for b in ims
        ):
            want.add(v)
    assert span_from_vectors(r.rows, 5) == want
    # which is exactly the diagonal span {e00, e11}
    assert want == span_from_vectors([[1, 0, 0], [0, 0, 1]], 5)


def test_center_matrix_algebra_is_scalars():
    # the center is the centralizer of the algebra in itself
    a = matrix_algebra(Field(3), 2)
    z = centralizer(self_extension(a))
    assert z.dim == 1
    want = set()
    for v in itertools.product(range(3), repeat=4):
        x = np.array(v, dtype=np.int64)
        eye = np.eye(4, dtype=np.int64)
        if all(np.array_equal(multiply(a, x, eye[i]), multiply(a, eye[i], x)) for i in range(4)):
            want.add(v)
    assert span_from_vectors(z.rows, 3) == want
    assert z.contains(a.unit)


def test_center_upper_triangular_is_scalars():
    z = centralizer(self_extension(upper_triangular(Field(5), 2)))
    assert z.dim == 1
    assert [tuple(r) for r in z.rows] == [(1, 0, 1)]


def test_centralizer_extreme_cases():
    a = matrix_algebra(Field(5), 2)
    full = centralizer(trivial_extension(a))
    assert full.dim == a.dim
    over_self = centralizer(self_extension(a))
    assert over_self.dim == 1
    assert over_self.contains(a.unit)


def test_left_right_mul_laws(rng):
    a = group_algebra(Field(7), C3)
    for _ in range(10):
        x = rng.integers(0, 7, size=3, dtype=np.int64)
        y = rng.integers(0, 7, size=3, dtype=np.int64)
        assert a.left_mul(x) @ a.left_mul(y) == a.left_mul(multiply(a, x, y))
        assert a.right_mul(x) @ a.right_mul(y) == a.right_mul(multiply(a, y, x))
        assert a.left_mul(x) @ a.right_mul(y) == a.right_mul(y) @ a.left_mul(x)


def test_extension_rejects_bad_inclusions():
    a = upper_triangular(Field(5), 2)
    b = diagonal_algebra(Field(5), 2)
    with pytest.raises(AxiomError, match="multiplicative"):
        # images sum to the unit but d0 -> 2*e00 is not idempotent
        Extension(a, b, Matrix(5, [[2, 4], [0, 0], [0, 1]]))
    with pytest.raises(AxiomError, match="injective"):
        Extension(a, b, Matrix(5, [[1, 1], [0, 0], [1, 1]]))
    with pytest.raises(AxiomError, match="unit"):
        Extension(a, b, Matrix(5, [[1, 0], [0, 1], [0, 0]]))


def test_field_extension_as_extension():
    # GF(25) over GF(5), non-split embedding via the unit
    big = field_ext_algebra(5, [-2, 0, 1])
    small = one_dim_algebra(Field(5))
    ext = Extension(big, small, Matrix(5, [[1], [0]]))
    assert centralizer(ext).dim == 2  # commutative ambient


def test_subalgebra_on_centralizer():
    e = ut2_diag_extension(5)
    r_space = centralizer(e)
    r_alg, incl = subalgebra_on(e.ambient, r_space)
    assert r_alg.dim == 2
    assert validate(r_alg).ok
    # componentwise product on the two diagonal idempotents
    assert np.array_equal(multiply(r_alg, [1, 0], [1, 0]), np.array([1, 0]))
    assert np.array_equal(multiply(r_alg, [1, 0], [0, 1]), np.array([0, 0]))
    # inclusion reproduces ambient products
    x = incl.apply([1, 0])
    assert np.array_equal(multiply(e.ambient, x, x), x)


def test_subalgebra_on_rejects_unclosed_span():
    a = upper_triangular(Field(5), 2)
    span = Subspace.from_spanning(5, 3, [[0, 1, 0]])  # e01 alone, no unit
    with pytest.raises(ElementNotInSpaceError):
        subalgebra_on(a, span)


def test_group_hopf_and_dual_c2():
    h = group_hopf(Field(2), C2)
    dual = dual_hopf(h)
    assert dual.algebra.dim == 2
    # dual of k[C2] is functions on two points: orthogonal idempotents
    e0 = np.array([1, 0], dtype=np.int64)
    e1 = np.array([0, 1], dtype=np.int64)
    assert np.array_equal(multiply(dual.algebra, e0, e0), e0)
    assert np.array_equal(multiply(dual.algebra, e1, e1), e1)
    assert np.array_equal(multiply(dual.algebra, e0, e1), np.zeros(2, dtype=np.int64))
    # counit of the dual is the unit of h
    assert np.array_equal(dual.counit.a[0], h.algebra.unit)
    # double dual gives back the original structure tensors
    dd = dual_hopf(dual)
    assert np.array_equal(dd.algebra.tensor, h.algebra.tensor)
    assert np.array_equal(dd.coproduct.a, h.coproduct.a)
    assert np.array_equal(dd.counit.a, h.counit.a)
    assert np.array_equal(dd.algebra.unit, h.algebra.unit)


def test_hopf_rejects_broken_coproduct():
    a = group_algebra(Field(2), C2)
    cop = np.zeros((4, 2), dtype=np.int64)
    cop[0, 0] = 1
    cop[1, 1] = 1  # not coassociative / wrong counit behavior
    with pytest.raises(AxiomError):
        HopfData(a, Matrix(2, cop), Matrix(2, np.ones((1, 2), dtype=np.int64)))


@st.composite
def bialgebra_data(draw):
    """A small algebra with a coproduct and counit: the group bialgebra of
    a cyclic group, its product replaced by a random one half the time,
    and up to two entries of each structure array changed, so that most
    draws break some law, associativity included."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 4))
    h = group_hopf(Field(p), [[(i + j) % d for j in range(d)] for i in range(d)])
    tensor, cop, eps = h.algebra.tensor.copy(), h.coproduct.a.copy(), h.counit.a.copy()
    if draw(st.booleans()):
        tensor = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, p, tensor.shape)
    for arr in (tensor, cop, eps):
        for at, by in draw(st.lists(st.tuples(st.integers(0, arr.size - 1),
                                              st.integers(1, p - 1)), max_size=2)):
            arr.flat[at] = (arr.flat[at] + by) % p
    algebra = FinDimAlgebra.from_tensor(Field(p), h.algebra.basis_names, tensor, h.algebra.unit)
    return algebra, cop, eps


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(bialgebra_data())
def test_contracted_algebra_check_matches_the_kron_reference(data):
    algebra, _, _ = data
    assert algebra_violations(algebra) == kron_algebra_violations(algebra)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(bialgebra_data())
def test_contracted_bialgebra_check_matches_the_kron_reference(data):
    algebra, cop, eps = data
    h = HopfData.__new__(HopfData)  # the constructor would raise on the broken ones
    h.algebra, h.coproduct, h.counit = algebra, Matrix(algebra.p, cop), Matrix(algebra.p, eps)
    assert h._violations() == kron_bialgebra_violations(algebra, cop, eps)


def test_axiom_checks_refuse_above_the_budget(monkeypatch):
    # both checks form arrays of d**4 entries: dimension 3 fits a budget
    # of 81, dimension 4 does not
    monkeypatch.setattr(algebras, "RELATION_ENTRY_BUDGET", 3**4)
    assert validate(group_algebra(Field(5), C3)).ok
    group_hopf(Field(5), C3)
    with pytest.raises(SizeLimitError, match=re.escape(
            "the associativity check of a 4-dimensional algebra needs two arrays "
            "of about 2.56e+02 entries, over the budget of 8e+01")):
        validate(matrix_algebra(Field(5), 2))
    with pytest.raises(SizeLimitError, match=re.escape(
            "the bialgebra check of a 4-dimensional coproduct needs arrays "
            "of about 2.56e+02 entries, over the budget of 8e+01")):
        group_hopf(Field(5), [[(i + j) % 4 for j in range(4)] for i in range(4)])


def test_one_dim_algebra():
    k = one_dim_algebra(Field(7))
    assert validate(k).ok
    assert k.dim == 1
