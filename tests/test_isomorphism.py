"""The comparison maps between the two complexes, and the main verification."""

import numpy as np
import pytest

from coringlab import (
    Element,
    Field,
    Matrix,
    NoD2CertificateError,
    build_complex,
    build_f2,
    cup,
    endo_coring,
    group_algebra,
    trivial_extension,
)
from coringlab import isomorphism
from coringlab.amitsur import build_amitsur, omega_product
from coringlab.isomorphism import build_fn, verify_main_theorem

from conftest import pure_tensor, s3_c2_extension
from test_algebras import ut2_diag_extension


@pytest.fixture(scope="module")
def ut2_witness():
    return verify_main_theorem(ut2_diag_extension(5), 3, trials=25)


@pytest.fixture(scope="module")
def m2_witness(m2_gf5_extension):
    return verify_main_theorem(m2_gf5_extension, 3, trials=25)


def test_low_degrees_are_identity_maps(ut2_witness):
    w = ut2_witness
    assert w.f[0] == Matrix.identity(5, 2)
    assert w.f[1] == Matrix.identity(5, 3)


def test_degree_two_matches_certificate(m2_gf5_extension, m2_gf5_cert):
    e = m2_gf5_extension
    ac = build_amitsur(endo_coring(e, m2_gf5_cert), 2)
    cc = build_complex(e, 2)
    assert build_fn(e, ac, cc, 2)[2] == m2_gf5_cert.f2


def test_ut2_witness_passes(ut2_witness):
    w = ut2_witness
    assert w.ok
    assert w.bijective == [True] * 4
    assert w.chain_ok == [True] * 3
    dims = [c.detail["omega_dim"] for c in w.report.checks if "bijective" in c.name]
    assert dims == [2, 3, 4, 5]
    assert w.hochschild_dims == [1, 0, 0]
    assert w.amitsur_dims == [1, 0, 0]


def test_m2_witness_passes(m2_witness):
    w = m2_witness
    assert w.ok
    dims = [c.detail["omega_dim"] for c in w.report.checks if "bijective" in c.name]
    assert dims == [4, 16, 64, 256]
    assert w.hochschild_dims == w.amitsur_dims == [1, 0, 0]


def test_group_algebra_witness_passes():
    e = trivial_extension(group_algebra(Field(2), [[0, 1], [1, 0]], ["e", "g"]))
    w = verify_main_theorem(e, 3, trials=25)
    assert w.ok
    # nonvanishing higher cohomology, still matched degreewise
    assert w.hochschild_dims == w.amitsur_dims == [2, 2, 2]


# every mul_mod at this prime takes the exact int64 path, inside the
# batched products as well
BIG_P = 2**31 - 1
BIG_P_EXTENSIONS = {
    "c2": lambda: trivial_extension(group_algebra(Field(BIG_P), [[0, 1], [1, 0]])),
    "ut2_diag": lambda: ut2_diag_extension(BIG_P),
}


@pytest.mark.parametrize("name", BIG_P_EXTENSIONS)
def test_main_theorem_at_a_large_prime(name):
    w = verify_main_theorem(BIG_P_EXTENSIONS[name](), 3, trials=5)
    assert w.ok, w.report.failures()


@pytest.mark.parametrize("name", BIG_P_EXTENSIONS)
def test_batched_products_are_the_per_pair_products(name, rng):
    e = BIG_P_EXTENSIONS[name]()
    for x in (build_complex(e, 3), build_amitsur(endo_coring(e), 3)):
        for m in range(4):
            for n in range(4 - m):
                xs = rng.integers(0, BIG_P, size=(x.dim(m), 3))
                ys = rng.integers(0, BIG_P, size=(x.dim(n), 2))
                batch = x.products(m, n, xs, ys)
                for i in range(3):
                    for j in range(2):
                        pair = x.product(Element(m, xs[:, i]), Element(n, ys[:, j]))
                        assert np.array_equal(batch[:, i * 2 + j], pair.coords)


def test_no_certificate_raises():
    with pytest.raises(NoD2CertificateError):
        verify_main_theorem(s3_c2_extension(7), 2, trials=5)


def test_chain_identity_pointwise(rng):
    """The degree-1 square, recomputed pointwise on random arguments:
    (delta^1 alpha)(a1 (x) a2) = a1 alpha(a2) - alpha(a1 a2) + alpha(a1) a2."""
    e = ut2_diag_extension(5)
    cc = build_complex(e, 2)
    a = e.ambient
    for _ in range(10):
        alpha = rng.integers(0, 5, size=cc.dim(1))
        mat = cc.homs[1].matrix_of(alpha)
        image = cc.homs[2].matrix_of(cc.d[1].apply(alpha))
        a1 = rng.integers(0, 5, size=a.dim)
        a2 = rng.integers(0, 5, size=a.dim)
        lhs = image.apply(pure_tensor(cc.powers[2], [a1, a2]))
        rhs = (a.multiply(a1, mat.apply(a2))
               - mat.apply(a.multiply(a1, a2))
               + a.multiply(mat.apply(a1), a2)) % 5
        assert np.array_equal(lhs, rhs)


def test_build_fn_rejects_out_of_range(ut2_witness):
    e = ut2_diag_extension(5)
    cert = build_f2(e)
    ac = build_amitsur(endo_coring(e, cert), 2)
    cc = build_complex(e, 2)
    with pytest.raises(ValueError):
        build_fn(e, ac, cc, 3)


def test_corrupted_comparison_map_carries_witnesses(monkeypatch):
    """Zeroing one row of f2 must fail f2's bijectivity with its rank, the
    chain squares next to it with a differing entry, and multiplicativity
    with a failing pair whose residual is recomputed here."""
    real_build_fn = isomorphism.build_fn

    def corrupted(e, ac, cc, n):
        f = real_build_fn(e, ac, cc, n)
        rows = f[2].a.copy()
        rows[0] = 0
        f[2] = Matrix(f[2].p, rows)
        return f

    monkeypatch.setattr(isomorphism, "build_fn", corrupted)
    e = ut2_diag_extension(5)
    w = verify_main_theorem(e, 3, trials=10)
    assert not w.ok
    checks = {c.name: c for c in w.report.checks}
    assert w.bijective == [True, True, False, True]
    assert checks["f2 bijective"].detail["rank"] == 3
    assert "rank" not in checks["f1 bijective"].detail

    ac = build_amitsur(endo_coring(e), 3)
    cc = build_complex(e, 3)
    assert w.chain_ok == [True, False, False]
    for n in (1, 2):
        r, c = checks[f"chain square degree {n}"].detail["differs_at"]
        assert (w.f[n + 1] @ ac.d[n]).a[r, c] != (cc.d[n] @ w.f[n]).a[r, c]

    failing = [c for c in w.report.failures() if c.name.startswith("multiplicative")]
    assert failing
    witness = failing[0].detail["witness"]
    m, k = witness["degrees"]
    x, y = (Element(n, v) for n, v in zip(witness["degrees"], witness["inputs"]))
    lhs = w.f[m + k].apply(omega_product(ac, x, y).coords)
    rhs = cup(cc, Element(m, w.f[m].apply(x.coords)), Element(k, w.f[k].apply(y.coords))).coords
    assert np.flatnonzero((lhs - rhs) % 5).tolist() == witness["residual_at"] != []
