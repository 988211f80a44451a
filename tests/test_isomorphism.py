"""The comparison maps between the two complexes, and the main verification."""

import numpy as np
import pytest

from coringlab import (
    Field,
    Matrix,
    NoD2CertificateError,
    build_complex,
    build_f2,
    endo_coring,
    group_algebra,
    trivial_extension,
)
from coringlab import dga, hochschild, isomorphism
from coringlab.amitsur import build_amitsur
from coringlab.corpus import load_corpus_extension
from coringlab.dga import verify_dga, verify_morphism
from coringlab.isomorphism import build_fn, verify_main_theorem
from coringlab.linalg import descend

from conftest import hom_matrix, leibniz_residual, multiply, pure_tensor, s3_c2_extension
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
    """f2 is the cup of two 1-cochains descended to the coring's power(2),
    the product ``build_fn`` forms one degree up from it."""
    e, cert = m2_gf5_extension, m2_gf5_cert
    ac = build_amitsur(endo_coring(e, cert), 3)
    cc = build_complex(e, 3)
    units = np.eye(cc.dim(1), dtype=np.int64)
    cup = cc.products(1, 1, *dga.every_pair(units, units))
    assert Matrix(5, descend(ac.spaces[2], cup)) == cert.f2
    assert build_fn(cert, ac, cc, 2)[2] == cert.f2


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
                xs = rng.integers(0, BIG_P, size=(x.dim(m), 4))
                ys = rng.integers(0, BIG_P, size=(x.dim(n), 4))
                batch = x.products(m, n, xs, ys)
                for i in range(4):
                    pair = x.products(m, n, xs[:, i:i + 1], ys[:, i:i + 1])
                    assert np.array_equal(batch[:, i:i + 1], pair)


def test_no_certificate_raises():
    with pytest.raises(NoD2CertificateError):
        verify_main_theorem(s3_c2_extension(7), 2, trials=5)


@pytest.mark.parametrize("name, certified", [("c3_gf3", True), ("s3_c2_gf7", False)])
def test_verify_iso_solves_each_cochain_degree_once(monkeypatch, name, certified):
    # the certificate's complex to degree 2 grows to max_degree only once
    # the coring stands, so an uncertified extension solves no degree 3
    solved = []
    plain = hochschild.build_hom

    def build_hom(e, t):
        solved.append(t.n)
        return plain(e, t)

    monkeypatch.setattr(hochschild, "build_hom", build_hom)
    if certified:
        witness = verify_main_theorem(load_corpus_extension(name), 4, trials=5)
        assert witness.ok
        assert len(witness.hochschild_dims) == 4
    else:
        with pytest.raises(NoD2CertificateError):
            verify_main_theorem(load_corpus_extension(name), 4, trials=5)
    assert solved == ([1, 2, 3, 4] if certified else [1, 2])


def test_verify_iso_below_degree_two_reads_the_certificate_complex(ut2_witness):
    low = verify_main_theorem(ut2_diag_extension(5), 1, trials=5)
    assert low.ok
    assert low.hochschild_dims == ut2_witness.hochschild_dims[:1]
    assert [fn.shape for fn in low.f] == [fn.shape for fn in ut2_witness.f[:2]]


def test_chain_identity_pointwise(rng):
    """The degree-1 square, recomputed pointwise on random arguments:
    (delta^1 alpha)(a1 (x) a2) = a1 alpha(a2) - alpha(a1 a2) + alpha(a1) a2."""
    e = ut2_diag_extension(5)
    cc = build_complex(e, 2)
    a = e.ambient
    for _ in range(10):
        alpha = rng.integers(0, 5, size=cc.dim(1))
        mat = hom_matrix(cc.homs[1], alpha)
        image = hom_matrix(cc.homs[2], cc.d[1].apply(alpha))
        a1 = rng.integers(0, 5, size=a.dim)
        a2 = rng.integers(0, 5, size=a.dim)
        lhs = image.apply(pure_tensor(cc.powers[2], [a1, a2]))
        rhs = (multiply(a, a1, mat.apply(a2))
               - mat.apply(multiply(a, a1, a2))
               + multiply(a, mat.apply(a1), a2)) % 5
        assert np.array_equal(lhs, rhs)


def test_build_fn_rejects_out_of_range(ut2_witness):
    e = ut2_diag_extension(5)
    cert = build_f2(e)
    ac = build_amitsur(endo_coring(e, cert), 2)
    cc = build_complex(e, 2)
    with pytest.raises(ValueError):
        build_fn(cert, ac, cc, 3)


def test_corrupted_comparison_map_carries_witnesses(monkeypatch):
    """Zeroing one row of f2 must fail f2's bijectivity with its rank, the
    chain squares next to it with a differing entry, and multiplicativity
    with a failing pair whose residual is recomputed here."""
    real_build_fn = isomorphism.build_fn

    def corrupted(cert, ac, cc, n):
        f = real_build_fn(cert, ac, cc, n)
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
    x, y = (np.reshape(v, (-1, 1)) for v in witness["inputs"])
    lhs = w.f[m + k].a @ ac.products(m, k, x, y)
    rhs = cc.products(m, k, w.f[m].a @ x, w.f[k].a @ y)
    assert np.flatnonzero((lhs - rhs) % 5).tolist() == witness["residual_at"] != []


def comparison(e, tamper):
    """The comparison of ``e`` to degree 3; with ``tamper``, entry [0, 0]
    of delta^1 and row 0 of f2 are corrupted, so d squared, Leibniz, the
    chain squares and multiplicativity all fail."""
    cert = build_f2(e)
    ac, cc = build_amitsur(endo_coring(e, cert), 3), build_complex(e, 3)
    f = build_fn(cert, ac, cc, 3)
    if tamper:
        d1 = cc.d[1].a.copy()
        d1[0, 0] = (d1[0, 0] + 1) % e.p
        cc.d[1] = Matrix(e.p, d1)
        f2 = f[2].a.copy()
        f2[0] = 0
        f[2] = Matrix(e.p, f2)
    return ac, cc, f


def test_witness_is_the_first_failing_draw():
    """A degree pair with dim(m)·dim(n) <= trials is checked on its basis
    pairs, in every_pair order, and draws nothing; every other pair draws
    a before b, trial by trial, from one seeded stream, as a check of one
    pair at a time did.  Every witness is that order's first failing pair,
    and every failure count its number of failing pairs, recounted here
    one pair at a time."""
    _, cc, _ = comparison(load_corpus_extension("c3_gf3"), True)
    trials, seed = 70, 11
    checks = {c.name: c.detail for c in verify_dga(cc, trials=trials, seed=seed).checks}
    rng = np.random.default_rng(seed)
    witnesses = {True: 0, False: 0}
    for m in range(3):
        for n in range(3 - m):
            dm, dn = cc.dim(m), cc.dim(n)
            proof = dm * dn <= trials
            if proof:
                pairs = [(a, b) for a in np.eye(dm, dtype=np.int64)
                         for b in np.eye(dn, dtype=np.int64)]
            else:
                pairs = [(rng.integers(0, 3, size=dm, dtype=np.int64),
                          rng.integers(0, 3, size=dn, dtype=np.int64)) for _ in range(trials)]
            failing = [[a.tolist(), b.tolist()] for a, b in pairs
                       if leibniz_residual(cc, m, n, a, b).any()]
            detail = checks[f"leibniz deg ({m},{n})"]
            assert detail.get("basis_pairs") == (dm * dn if proof else None)
            assert detail["trials"] == trials
            assert detail["failures"] == len(failing)
            if failing:
                witnesses[proof] += 1
                assert detail["witness"]["inputs"] == failing[0]
            else:
                assert "witness" not in detail
    assert witnesses[True] and witnesses[False]


def test_a_one_entry_tamper_is_proved_at_every_seed():
    """One corrupted entry of delta^1 on ut2/diag breaks Leibniz at one
    basis pair of degrees (1, 1).  With trials at every basis-pair count
    each Leibniz check is a proof, so every seed reports that pair."""
    _, cc, _ = comparison(ut2_diag_extension(5), True)
    reports = [[(c.name, c.ok, c.detail) for c in verify_dga(cc, trials=9, seed=seed).checks]
               for seed in range(20)]
    assert all(r == reports[0] for r in reports)
    laws = {name: detail for name, _, detail in reports[0] if "deg (" in name}
    assert all("basis_pairs" in detail for detail in laws.values())
    assert {name: d["failures"] for name, d in laws.items() if d["failures"]} == \
        {"leibniz deg (1,1)": 1}


def test_basis_pairs_appear_exactly_when_the_basis_fits_the_trials():
    ac, cc, f = comparison(ut2_diag_extension(5), False)
    for trials in (1, 4, 8, 9, 12, 50):
        reports = (verify_dga(cc, trials=trials), verify_morphism(f, ac, cc, trials=trials))
        for check in (c for r in reports for c in r.checks if "deg (" in c.name):
            m, n = (int(k) for k in check.name[-4:-1].split(","))
            size = cc.dim(m) * cc.dim(n)
            assert check.detail == {"trials": trials, "failures": 0,
                                    **({"basis_pairs": size} if size <= trials else {})}


@pytest.mark.parametrize("tamper", [False, True], ids=["passing", "broken"])
def test_law_checks_do_not_depend_on_the_batch_size(monkeypatch, tamper):
    ac, cc, f = comparison(load_corpus_extension("c3_gf3"), tamper)

    def run():
        reports = (verify_dga(cc, trials=130, seed=3),
                   verify_morphism(f, ac, cc, trials=130, seed=3))
        return [(c.name, c.ok, c.detail) for r in reports for c in r.checks]

    batched = run()    # batches of 64, 64 and 2 trials, or 64 and 17 basis pairs
    monkeypatch.setattr(dga, "LAW_BATCH", 130)
    assert run() == batched
    laws = [detail for name, _, detail in batched if "deg (" in name]
    assert all(detail["trials"] == 130 for detail in laws)
    # dims 3, 9, 27, 81: some checks are proofs over more than one batch, some sampled
    assert max(detail.get("basis_pairs", 0) for detail in laws) == 81
    sampled = [detail["failures"] for detail in laws if "basis_pairs" not in detail]
    if tamper:
        # some sampled check fails in more than one batch
        assert max(sampled) > 64
    else:
        assert sampled and not any(detail["failures"] for detail in laws)
