"""Coboundary complex, cup product, and cohomology dimensions.

Cohomology values are cross-checked against the classical (absolute)
complex computed by the pure-python oracle in conftest.  For a trivial
base B = k*1 the relative and absolute complexes are literally the
same; for the upper-triangular/diagonal pair the base is separable, so
the relative theory must again agree with the absolute one.
"""

import numpy as np
import pytest

from conftest import (hom_matrix, leibniz_residual, multiply, naive_absolute_hochschild_dims,
                      pure_tensor, s3_c2_extension)
from coringlab import (
    Field,
    Matrix,
    build_complex,
    cohomology_dims,
    cup,
    group_algebra,
    matrix_algebra,
    trivial_extension,
    verify_dga,
)
from coringlab.errors import NotWellDefinedError
from coringlab.hochschild import HARD_DEGREE_CAP

from test_algebras import ut2_diag_extension

C2_TABLE = [[0, 1], [1, 0]]


@pytest.fixture(scope="module")
def m2_complex():
    return build_complex(trivial_extension(matrix_algebra(Field(5), 2)))


@pytest.fixture(scope="module")
def ut2_complex():
    return build_complex(ut2_diag_extension(5))


def test_m2_dims_and_cohomology(m2_complex):
    c = m2_complex
    assert c.dims() == [4, 16, 64, 256]
    a = c.extension.ambient
    assert cohomology_dims(c) == [1, 0, 0]
    assert cohomology_dims(c) == naive_absolute_hochschild_dims(a.tensor, a.unit, 5, 3)


def test_m2_degree_one_kernel_is_inner(m2_complex):
    # ker delta^1 = derivations; for a matrix algebra every derivation is
    # inner, so the kernel coincides with the image of delta^0.
    from coringlab.linalg import rank_of

    c = m2_complex
    ker1 = c.dim(1) - rank_of(c.d[1].a, 5)
    assert ker1 == 3
    assert rank_of(c.d[0].a, 5) == 3


@pytest.mark.parametrize("p,expected", [(2, [2, 2, 2]), (3, [2, 0, 0])])
def test_group_algebra_cohomology(p, expected):
    g = group_algebra(Field(p), C2_TABLE, ["e", "g"])
    c = build_complex(trivial_extension(g))
    assert cohomology_dims(c) == expected
    assert naive_absolute_hochschild_dims(g.tensor, g.unit, p, 3) == expected


def test_ut2_relative_matches_absolute(ut2_complex):
    # The diagonal base is separable, so relative cohomology agrees with
    # the absolute cohomology of the ambient algebra.
    c = ut2_complex
    assert c.dims() == [2, 3, 4, 5]
    a = c.extension.ambient
    absolute = naive_absolute_hochschild_dims(a.tensor, a.unit, 5, 3)
    assert cohomology_dims(c) == absolute
    assert cohomology_dims(c)[0] == 1


def test_delta1_of_identity_is_multiplication(ut2_complex):
    c = ut2_complex
    a = c.extension.ambient
    ident = c.homs[1].coords_of(Matrix.identity(c.p, a.dim)).reshape(-1, 1)
    image = c.d[1].a @ ident % c.p
    # (delta f)(x, y) = x f(y) - f(xy) + f(x) y = xy for f = id, checked
    # on the pure basis tensors, which span the power
    mat = hom_matrix(c.homs[2], image[:, 0])
    eye = np.eye(a.dim, dtype=np.int64)
    for x in eye:
        for y in eye:
            assert np.array_equal(mat.apply(pure_tensor(c.powers[2], [x, y])), multiply(a, x, y))
    # and the same element is id cup id
    assert np.array_equal(image, cup(c, 1, 1, ident, ident))


@pytest.mark.parametrize("make", [lambda: ut2_diag_extension(5), lambda: s3_c2_extension(7)],
                         ids=["ut2_diag", "s3_c2"])
def test_degree_two_coboundary_and_cups_pointwise(make, rng):
    """On pure tensors of power 3, whose tower coordinates are not the
    dense layout's: (delta b)(x y z) = x b(y z) - b(xy z) + b(x yz) - b(x y) z,
    (a ∪ b)(x y z) = a(x) b(y z) and (b ∪ a)(x y z) = b(x y) a(z)."""
    e = make()
    c = build_complex(e, 3)
    a = e.ambient
    p = a.p
    alphas = rng.integers(0, p, size=(c.dim(1), 5))
    betas = rng.integers(0, p, size=(c.dim(2), 5))
    images = {"delta b": c.d[2].a @ betas % p, "a ∪ b": cup(c, 1, 2, alphas, betas),
              "b ∪ a": cup(c, 2, 1, betas, alphas)}
    for i in range(5):
        am = hom_matrix(c.homs[1], alphas[:, i])
        bm = hom_matrix(c.homs[2], betas[:, i])

        def b(u, v):
            return bm.apply(pure_tensor(c.powers[2], [u, v]))

        def on(name, u, v, w):
            mat = hom_matrix(c.homs[3], images[name][:, i])
            return mat.apply(pure_tensor(c.powers[3], [u, v, w]))

        x, y, z = (rng.integers(0, p, size=a.dim) for _ in range(3))
        want = (multiply(a, x, b(y, z)) - b(multiply(a, x, y), z)
                + b(x, multiply(a, y, z)) - multiply(a, b(x, y), z)) % p
        assert np.array_equal(on("delta b", x, y, z), want)
        assert np.array_equal(on("a ∪ b", x, y, z), multiply(a, am.apply(x), b(y, z)))
        assert np.array_equal(on("b ∪ a", x, y, z), multiply(a, b(x, y), am.apply(z)))


def test_cup_refuses_a_product_that_does_not_descend():
    # with a section that does not invert concat(1, 2), id ∪ (id ∪ id)
    # fails the descent check instead of returning a wrong cochain
    c = build_complex(ut2_diag_extension(5), 3)
    ident = c.homs[1].coords_of(Matrix.identity(5, 3)).reshape(-1, 1)
    square = cup(c, 1, 1, ident, ident)
    c.tower._sections[(1, 2)] = Matrix(5, np.zeros_like(c.tower.concat_section(1, 2).a))
    with pytest.raises(NotWellDefinedError, match="does not kill the relations: ambient coordinate"):
        cup(c, 1, 2, ident, square)


def test_cup_unit_laws(m2_complex, rng):
    c = m2_complex
    # 1_R as a degree-0 cochain, once per column
    ones = np.repeat(c.homs[0].coords_of(c.extension.ambient.unit).reshape(-1, 1), 4, axis=1)
    for degree in range(c.max_degree + 1):
        f = rng.integers(0, c.p, size=(c.dim(degree), 4))
        assert np.array_equal(cup(c, 0, degree, ones, f), f)
        # inputs are reduced mod p
        assert np.array_equal(cup(c, degree, 0, f + c.p, ones - c.p), f)


def test_cup_associativity(ut2_complex, rng):
    c = ut2_complex
    splits = [(0, 0, 0), (1, 1, 1), (0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0)]
    for dm, dn, dk in splits:
        f, g, h = (rng.integers(0, c.p, size=(c.dim(d), 5)) for d in (dm, dn, dk))
        left = cup(c, dm + dn, dk, cup(c, dm, dn, f, g), h)
        right = cup(c, dm, dn + dk, f, cup(c, dn, dk, g, h))
        assert left.shape == right.shape == (c.dim(dm + dn + dk), 5)
        assert np.array_equal(left, right)


def test_cup_degree_cap(m2_complex, rng):
    c = m2_complex
    f = rng.integers(0, c.p, size=(c.dim(2), 1))
    with pytest.raises(ValueError):
        cup(c, 2, 2, f, f)


def test_dga_laws(ut2_complex):
    report = verify_dga(ut2_complex, trials=25, seed=7)
    assert report.ok, report.failures()
    names = [check.name for check in report.checks]
    # degree-0 Leibniz cases are exercised explicitly
    assert "leibniz deg (0,1)" in names
    assert "leibniz deg (1,0)" in names
    assert "delta^2 . delta^1 = 0" in names


def test_corrupted_coboundary_is_detected():
    c = build_complex(ut2_diag_extension(3), max_degree=2)
    # tamper with a column of delta^1 that meets a nonzero row of delta^0,
    # so the corruption must show up in the square
    j = int(np.flatnonzero(c.d[0].a.any(axis=1))[0])
    tampered = c.d[1].a.copy()
    tampered[0, j] = (tampered[0, j] + 1) % 3
    c.d[1] = Matrix(3, tampered)
    report = verify_dga(c, trials=10, seed=1)
    assert not report.ok
    failing = {check.name: check for check in report.failures()}
    assert "delta^1 . delta^0 = 0" in failing
    # delta^1 acts on the degree-1 factor of a (1,0) pair; the first
    # failing trial is attached and really fails
    check = failing["leibniz deg (1,0)"]
    assert 0 < check.detail["failures"] <= check.detail["trials"]
    witness = check.detail["witness"]
    assert witness["degrees"] == [1, 0]
    residual = leibniz_residual(c, 1, 0, *witness["inputs"])
    assert np.flatnonzero(residual).tolist() == witness["residual_at"] != []


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        build_complex(ut2_diag_extension(3), max_degree=HARD_DEGREE_CAP + 1)
    with pytest.raises(ValueError):
        build_complex(ut2_diag_extension(3), max_degree=0)



def test_incidence_complex_builds_without_reducing_a_power_or_hom(monkeypatch):
    # every vertex idempotent acts diagonally, so each tower step and hom
    # space is a coordinate selection.  Only the reductions of the base's
    # generators and of the centralizer, at most dim A = 19 columns wide,
    # may run; a power (361 or more) or a hom solve (19 or more times a
    # power) would fail here
    from coringlab import linalg
    from coringlab.corpus import read_facets
    from coringlab.simplicial import incidence_extension, parse_complex

    e = incidence_extension(parse_complex(read_facets("filled_triangle")), Field(5))

    class NarrowOnly(linalg.RrefAccumulator):
        def __init__(self, ncols, p, *args, **kwargs):
            if ncols > e.ambient.dim:
                raise AssertionError(f"a {ncols}-column row reduction ran")
            super().__init__(ncols, p, *args, **kwargs)

    monkeypatch.setattr(linalg, "RrefAccumulator", NarrowOnly)
    assert build_complex(e, 3).dims() == [7, 19, 37, 61]
