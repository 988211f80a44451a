"""Differential, product, and cohomology of the coring tensor complex."""

import numpy as np
import pytest

from coringlab import (
    Field,
    build_complex,
    build_power,
    cohomology_dims,
    dual_hopf,
    endo_coring,
    field_ext_algebra,
    group_hopf,
    hopf_coring,
    sweedler_coring,
    trivial_extension,
    verify_dga,
)
from coringlab.amitsur import build_amitsur, omega_product

from conftest import leibniz_residual, pure_tensor
from test_algebras import ut2_diag_extension

C2_TABLE = [[0, 1], [1, 0]]


@pytest.fixture(scope="module")
def ut2_omega():
    return build_amitsur(endo_coring(ut2_diag_extension(5)), 3)


@pytest.fixture(scope="module")
def gf25_sweedler():
    e = trivial_extension(field_ext_algebra(5, [3, 0, 1]))
    return e, build_amitsur(sweedler_coring(e), 3)


def test_degree_zero_and_one_are_base_and_carrier(ut2_omega):
    x = ut2_omega
    assert [x.dim(n) for n in range(4)] == [2, 3, 4, 5]
    assert x.dim(0) == x.coring.base.dim
    assert x.dim(1) == x.coring.carrier_dim
    assert len(x.d) == 3


def test_endo_differential_zero_matches_hochschild(ut2_omega, m2_gf5_extension,
                                                   m2_gf5_endo):
    cc = build_complex(ut2_diag_extension(5), 3)
    assert ut2_omega.d[0] == cc.d[0]

    x = build_amitsur(m2_gf5_endo, 3)
    assert [x.dim(n) for n in range(4)] == [4, 16, 64, 256]
    assert x.d[0] == build_complex(m2_gf5_extension, 3).d[0]
    assert cohomology_dims(x) == [1, 0, 0]


def test_differential_of_grouplike(ut2_omega):
    # the two outer insertions survive and the coproduct term cancels one
    x = ut2_omega
    g = x.coring.grouplike
    assert np.array_equal(x.d[1].apply(g), x.spaces[2].project(np.kron(g, g)))


def test_sweedler_differential_on_pure_tensors(gf25_sweedler, rng):
    """d^1(x (x) y) = g (x) (x(x)y) - (x(x)1) (x) (1(x)y) + (x(x)y) (x) g,
    evaluated without the assembled matrix."""
    e, x = gf25_sweedler
    c = x.coring
    t2 = build_power(e, 2)
    sq = c.power(2)
    unit = e.ambient.unit
    for _ in range(10):
        xv = rng.integers(0, 5, size=2)
        yv = rng.integers(0, 5, size=2)
        v = pure_tensor(t2, [xv, yv])
        split_l = pure_tensor(t2, [xv, unit])
        split_r = pure_tensor(t2, [unit, yv])
        want = (sq.project(np.kron(c.grouplike, v))
                - sq.project(np.kron(split_l, split_r))
                + sq.project(np.kron(v, c.grouplike))) % 5
        assert np.array_equal(x.d[1].apply(v), want)
    assert not (x.d[2] @ x.d[1]).a.any()


def test_cohomology_dims(ut2_omega, gf25_sweedler):
    assert cohomology_dims(ut2_omega) == [1, 0, 0]
    assert cohomology_dims(gf25_sweedler[1]) == [1, 0, 0]


@pytest.mark.parametrize("p,dims", [(2, [1, 1, 1]), (3, [1, 0, 0])])
def test_cobar_of_dual_group_hopf(p, dims):
    h = group_hopf(Field(p), C2_TABLE, ["e", "g"])
    x = build_amitsur(hopf_coring(dual_hopf(h)), 3)
    assert cohomology_dims(x) == dims


def test_degree_zero_cohomology_counts_coinvariants(ut2_omega):
    x = ut2_omega
    c = x.coring
    g = c.grouplike
    count = 0
    for i in range(5):
        for j in range(5):
            r = np.array([i, j], dtype=np.int64)
            if np.array_equal(c.left_action(r).apply(g), c.right_action(r).apply(g)):
                count += 1
    assert count == 5 ** cohomology_dims(x)[0]


def test_product_unit_law(ut2_omega, rng):
    x = ut2_omega
    ones = np.repeat(x.coring.base.unit.reshape(-1, 1), 4, axis=1)
    for degree in range(4):
        w = rng.integers(0, x.p, size=(x.dim(degree), 4))
        assert np.array_equal(omega_product(x, 0, degree, ones, w), w)
        # inputs are reduced mod p
        assert np.array_equal(omega_product(x, degree, 0, w + x.p, ones - x.p), w)


def test_product_of_grouplikes(ut2_omega):
    x = ut2_omega
    g = x.coring.grouplike
    gg = omega_product(x, 1, 1, g.reshape(-1, 1), g.reshape(-1, 1))
    assert gg.shape == (x.dim(2), 1)
    assert np.array_equal(gg[:, 0], x.spaces[2].project(np.kron(g, g)))


@pytest.mark.parametrize("split", [(1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0),
                                   (0, 0, 2), (2, 0, 1)])
def test_product_associativity(ut2_omega, rng, split):
    x = ut2_omega
    dm, dn, dk = split
    a, b, c = (rng.integers(0, x.p, size=(x.dim(d), 5)) for d in split)
    left = omega_product(x, dm + dn, dk, omega_product(x, dm, dn, a, b), c)
    right = omega_product(x, dm, dn + dk, a, omega_product(x, dn, dk, b, c))
    assert np.array_equal(left, right)


def test_product_degree_cap(ut2_omega, rng):
    x = ut2_omega
    w = rng.integers(0, x.p, size=(x.dim(2), 1))
    with pytest.raises(ValueError):
        omega_product(x, 2, 2, w, w)


def test_dga_laws(ut2_omega, gf25_sweedler):
    rep = verify_dga(ut2_omega, trials=30)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "d^2 . d^1 = 0" in names
    assert "leibniz deg (0,1)" in names
    assert "leibniz deg (1,1)" in names
    assert verify_dga(gf25_sweedler[1], trials=30).ok


def test_corrupted_differential_is_detected(ut2_omega):
    x = ut2_omega
    from coringlab.amitsur import AmitsurComplex
    from coringlab.linalg import Matrix

    j = int(np.flatnonzero(x.d[0].a.any(axis=1))[0])
    arr = x.d[1].a.copy()
    arr[0, j] = (arr[0, j] + 1) % 5
    tampered = list(x.d)
    tampered[1] = Matrix(5, arr)
    broken = AmitsurComplex(x.coring, x.max_degree, x.spaces, tampered)
    rep = verify_dga(broken, trials=10)
    assert not rep.ok
    failing = {c.name: c for c in rep.failures()}
    assert "d^1 . d^0 = 0" in failing
    # the first failing Leibniz trial is attached and really fails
    check = failing["leibniz deg (1,0)"]
    witness = check.detail["witness"]
    assert witness["degrees"] == [1, 0]
    residual = leibniz_residual(broken, 1, 0, *witness["inputs"])
    assert np.flatnonzero(residual).tolist() == witness["residual_at"] != []


def test_build_requires_positive_degree(ut2_omega):
    with pytest.raises(ValueError):
        build_amitsur(ut2_omega.coring, 0)


def test_products_check_their_batches(ut2_omega):
    x = ut2_omega
    one = x.coring.base.unit.reshape(-1, 1)
    # a column of the wrong length, batches of different widths, and
    # vectors in place of batches
    with pytest.raises(ValueError, match="dimensions 3 and 2"):
        x.products(1, 0, np.zeros((7, 1), dtype=np.int64), one)
    with pytest.raises(ValueError, match="do not pair"):
        x.products(0, 0, np.repeat(one, 2, axis=1), one)
    with pytest.raises(ValueError, match="do not pair"):
        x.products(0, 0, one[:, 0], one[:, 0])
    assert np.array_equal(x.products(0, 0, one, one), one)


def test_one_element_products_equal_every_pair_batches(ut2_omega, gf25_sweedler, rng):
    # a 1-D side is one element against every column of the other batch,
    # on an endomorphism coring, a dual one (s3 over c2 at p = 7 is not
    # certified, so M2's), a Sweedler coring and a Hopf coring
    from coringlab.corpus import load_corpus_extension
    from coringlab.dga import every_pair

    complexes = [ut2_omega, gf25_sweedler[1],
                 build_amitsur(endo_coring(load_corpus_extension("m2_gf5")), 2),
                 build_amitsur(hopf_coring(group_hopf(Field(3), C2_TABLE)), 3)]
    for x in complexes:
        for m in range(x.max_degree + 1):
            for n in range(x.max_degree + 1 - m):
                u = rng.integers(0, x.p, size=x.dim(m), dtype=np.int64)
                v = rng.integers(0, x.p, size=x.dim(n), dtype=np.int64)
                xs = rng.integers(0, x.p, size=(x.dim(m), 4), dtype=np.int64)
                ys = rng.integers(0, x.p, size=(x.dim(n), 4), dtype=np.int64)
                assert np.array_equal(x.products(m, n, u, ys),
                                      x.products(m, n, *every_pair(u[:, None], ys)))
                assert np.array_equal(x.products(m, n, xs, v),
                                      x.products(m, n, *every_pair(xs, v[:, None])))
                assert x.products(m, n, u, ys[:, :0]).shape == (x.dim(m + n), 0)


def test_m2_complex_reduces_nothing_wider_than_the_carrier(monkeypatch):
    # the M2 carrier is free of rank 4 over M2, so every power above it is
    # read off the dual basis, power(n) = power(n-1)^4, in the dual step's
    # own coordinates: no 256- or 1024-wide reduction of a power runs.
    # The 64 x 64 f2 of the depth-two certificate is inverted once, by
    # Gauss-Jordan on its augmented matrix, and never ranked, so no
    # reduction wider than the 16-dim carrier runs at all
    from coringlab import linalg
    from coringlab.corpus import load_corpus_extension

    widths = []

    class Counted(linalg.RrefAccumulator):
        def __init__(self, ncols, p, *args, **kwargs):
            super().__init__(ncols, p, *args, **kwargs)
            widths.append(ncols)

    monkeypatch.setattr(linalg, "RrefAccumulator", Counted)
    x = build_amitsur(endo_coring(load_corpus_extension("m2_gf5")), 3)
    assert x.dims() == [4, 16, 64, 256]
    assert x.coring.carrier_dim == 16
    assert [w for w in widths if w > 16] == []


def test_m2_tower_maps_take_no_dense_path(monkeypatch):
    # every structure map of the M2 coring and of the extension tower
    # under its f2 certificate passes its linearity check (one that
    # failed would be refused), and the coring's tower is dual, so its
    # maps are block matrices.  Its dual steps are projected, descended
    # and lifted blockwise: building the complex and its cohomology
    # forms no concat(m, n) with m, n >= 1 on a dual tower, the one way
    # to a step's dense projection, and a dual step holds no section
    from coringlab.corpus import load_corpus_extension
    from coringlab.tensors import TensorTower

    formed = []
    concat = TensorTower.concat

    def counted(tower, m, n):
        if tower.dual is not None and m and n:
            formed.append((m, n))
        return concat(tower, m, n)

    monkeypatch.setattr(TensorTower, "concat", counted)
    x = build_amitsur(endo_coring(load_corpus_extension("m2_gf5")), 3)
    assert cohomology_dims(x) == [1, 0, 0]
    assert x.dims() == [4, 16, 64, 256]
    assert x.coring.dual is not None
    assert formed == []
    assert not hasattr(x.coring.power(3), "section")
