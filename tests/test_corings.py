"""Coring constructors and the depth-two certificate."""

import numpy as np
import pytest

from coringlab import (
    AxiomError,
    CoringWithGrouplike,
    Field,
    Matrix,
    NoD2CertificateError,
    build_f2,
    build_power,
    dual_hopf,
    endo_coring,
    field_ext_algebra,
    group_hopf,
    hopf_coring,
    sweedler_coring,
    trivial_extension,
)
from coringlab.algebras import generating_indices, matrix_algebra, one_dim_algebra
from coringlab.corpus import extension_names, hopf_names, load_corpus_extension, load_corpus_hopf
from coringlab.linalg import mul_mod
from coringlab.tensors import TensorTower, balanced_pair, balanced_power

from conftest import (blockwise_step_failures, concat_lift_failures, dense_pair,
                      dual_step_mismatches, gathered_map_mismatches, hom_matrix, multiply,
                      naive_rank, off_choice_steps, pure_tensor, s3_c2_extension, span_with_free)
from test_algebras import ut2_diag_extension
from test_homspaces import brute_hom_dim

C2_TABLE = [[0, 1], [1, 0]]


def tower_of(coring):
    """A fresh tower on the coring's base, carrier and actions."""
    return TensorTower(coring.base, coring.carrier_dim, coring.left_mats, coring.right_mats)


def test_ut2_certificate():
    cert = build_f2(ut2_diag_extension(5))
    assert (cert.s_dim, cert.r_dim) == (3, 2)
    assert (cert.square_dim, cert.hom_dim) == (4, 4)
    assert cert.f2.shape == (4, 4)
    assert cert.bijective


def test_m2_certificate(m2_gf5_cert):
    cert = m2_gf5_cert
    assert (cert.s_dim, cert.r_dim) == (16, 4)
    assert (cert.square_dim, cert.hom_dim) == (64, 64)
    assert cert.bijective


def test_s3_certificate_fails_and_agrees_with_bruteforce():
    """Group algebra of S3 over a transposition subgroup at p = 7.

    Both sides of the dimension mismatch are recomputed here from
    scratch: the tensor-square dimension by naive elimination on the
    balancing relations, the hom dimension by the entry-by-entry
    constraint solver.  The extension is not depth two.
    """
    e = s3_c2_extension(7)
    cert = build_f2(e)
    assert (cert.s_dim, cert.r_dim) == (10, 4)
    assert (cert.square_dim, cert.hom_dim) == (26, 28)
    assert not cert.bijective
    assert cert.f2.shape == (28, 26)

    eye = np.eye(cert.s_dim, dtype=np.int64)
    rows = []
    for lm, rm in zip(cert.left_mats, cert.right_mats):
        rows.extend((((np.kron(rm.a, eye) - np.kron(eye, lm.a)) % 7).T).tolist())
    assert cert.square_dim == cert.s_dim**2 - naive_rank(rows, 7)
    assert cert.hom_dim == brute_hom_dim(e, build_power(e, 2))

    with pytest.raises(NoD2CertificateError, match="depth-two certificate fails"):
        endo_coring(e)


def test_endo_counit_is_evaluation_at_unit():
    e = ut2_diag_extension(5)
    cert = build_f2(e)
    c = endo_coring(e)
    # centralizer of the diagonal base is spanned by the two corner
    # idempotents, so evaluation at 1 of each component projection has
    # a known coordinate pattern
    projections = [np.diag([1, 0, 0]), np.diag([0, 1, 0]), np.diag([0, 0, 1])]
    expected = [(1, 0), (0, 0), (0, 1)]
    for mat, want in zip(projections, expected):
        coords = cert.s_space.coords_of(Matrix(5, mat))
        assert np.array_equal(c.counit.apply(coords), np.array(want))
    assert np.array_equal(c.counit.apply(c.grouplike), c.base.unit)
    assert np.array_equal(c.base.unit, np.array([1, 1]))


def test_endo_measuring_identity(m2_gf5_extension, m2_gf5_cert, m2_gf5_endo, rng):
    """sum alpha_(1)(x) . alpha_(2)(y) == alpha(x . y), expanded by hand.

    The coproduct is lifted to the ambient tensor square and evaluated
    pure pair by pure pair, instead of going back through f2.
    """
    a = m2_gf5_extension.ambient
    s = m2_gf5_cert.s_space
    c = m2_gf5_endo
    sq = c.power(2)
    basis = [hom_matrix(s, row) for row in np.eye(s.dim, dtype=np.int64)]
    for _ in range(5):
        alpha = rng.integers(0, 5, size=s.dim)
        x = rng.integers(0, 5, size=a.dim)
        y = rng.integers(0, 5, size=a.dim)
        lhs = hom_matrix(s, alpha).apply(multiply(a, x, y))
        lift = mul_mod(dense_pair(sq)[1], c.coproduct.apply(alpha).reshape(-1, 1), 5)[:, 0]
        rhs = np.zeros(a.dim, dtype=np.int64)
        for k in range(s.dim):
            xk = basis[k].apply(x)
            for l in range(s.dim):
                coeff = int(lift[k * s.dim + l])
                if coeff:
                    rhs = (rhs + coeff * multiply(a, xk, basis[l].apply(y))) % 5
        assert np.array_equal(lhs, rhs)


def test_endo_coproduct_splits_multiplications():
    e = ut2_diag_extension(5)
    cert = build_f2(e)
    c = endo_coring(e)
    sq = c.power(2)
    lam = cert.s_space.coords_of(e.ambient.left_mul(np.array([1, 0, 0])))
    assert np.array_equal(c.coproduct.apply(lam),
                          sq.project(np.kron(lam, c.grouplike)))
    rho = cert.s_space.coords_of(e.ambient.right_mul(np.array([0, 0, 1])))
    assert np.array_equal(c.coproduct.apply(rho),
                          sq.project(np.kron(c.grouplike, rho)))


def test_sweedler_coring_on_a_field_extension():
    e = trivial_extension(field_ext_algebra(5, [3, 0, 1]))
    c = sweedler_coring(e)
    assert c.carrier_dim == 4
    assert c.base.dim == 2
    assert np.array_equal(c.coproduct.apply(c.grouplike),
                          c.power(2).project(np.kron(c.grouplike, c.grouplike)))
    # counit multiplies the two legs: t (x) t |-> t^2 = 2
    t2 = build_power(e, 2)
    gen = np.array([0, 1], dtype=np.int64)
    assert np.array_equal(c.counit.apply(pure_tensor(t2, [gen, gen])),
                          np.array([2, 0]))


def test_sweedler_coring_over_noncommutative_base():
    c = sweedler_coring(ut2_diag_extension(3))
    assert c.carrier_dim == 4
    assert np.array_equal(c.counit.apply(c.grouplike), c.base.unit)


@pytest.mark.parametrize("p", [2, 3])
def test_hopf_corings_construct(p):
    h = group_hopf(Field(p), C2_TABLE, ["e", "g"])
    c = hopf_coring(h)
    assert c.carrier_dim == 2
    assert c.base.dim == 1
    assert np.array_equal(c.counit.apply(c.grouplike), np.array([1]))

    d = hopf_coring(dual_hopf(h))
    assert d.carrier_dim == 2
    # the unit of the dual is the counit of the original: all ones
    assert np.array_equal(d.grouplike, np.array([1, 1]))


def test_tampered_coproduct_is_rejected():
    good = sweedler_coring(ut2_diag_extension(3))
    bad = Matrix(3, (good.coproduct.a + np.eye(good.coproduct.shape[0],
                                               good.carrier_dim, dtype=np.int64)) % 3)
    with pytest.raises(AxiomError):
        CoringWithGrouplike(tower_of(good), bad, good.counit, good.grouplike)


def test_tampered_coproduct_on_a_dual_tower_is_rejected(m2_gf5_endo):
    # the M2 coring's tower is dual; a coproduct that is not right-linear
    # fails the certificate of coproduct ⊗ id there, which the axiom
    # check reports instead of raising it
    good = m2_gf5_endo
    assert good.dual is not None
    bad = Matrix(5, (good.coproduct.a + np.eye(good.coproduct.shape[0],
                                               good.carrier_dim, dtype=np.int64)) % 5)
    with pytest.raises(AxiomError, match="structure maps do not descend to the base quotient: "
                                         "the map is not right-linear over the base"):
        CoringWithGrouplike(tower_of(good), bad, good.counit, good.grouplike)


def base_action_failures(coring, lefts, rights):
    """The unit and base-action law failures of the actions ``lefts`` and
    ``rights`` (arrays of matrices) over the coring's base, one basis pair
    (i, j) at a time, in the order the constructor reports them."""
    p, base = coring.p, coring.base
    ident = np.eye(coring.carrier_dim, dtype=np.int64)

    def act(mats, coords):
        return sum(int(x) * m for x, m in zip(coords, mats)) % p

    fails = []
    if not np.array_equal(act(lefts, base.unit), ident):
        fails.append("left action is not unital")
    if not np.array_equal(act(rights, base.unit), ident):
        fails.append("right action is not unital")
    for i in range(base.dim):
        for j in range(base.dim):
            prod = base.tensor[i, j]
            if not np.array_equal(act(lefts, prod), lefts[i] @ lefts[j] % p):
                fails.append(f"left action not multiplicative (i={i}, j={j})")
            if not np.array_equal(act(rights, prod), rights[j] @ rights[i] % p):
                fails.append(f"right action not antimultiplicative (i={i}, j={j})")
            if not np.array_equal(lefts[i] @ rights[j] % p, rights[j] @ lefts[i] % p):
                fails.append(f"left and right actions do not commute (i={i}, j={j})")
    return fails


@pytest.mark.parametrize("name", ["ut2_diag_gf5", "s3_c2_gf7"])
def test_a_broken_base_action_is_reported_pair_by_pair(name):
    good = sweedler_coring(load_corpus_extension(name))
    p, db = good.p, good.base.dim
    lefts = np.stack([m.a for m in good.left_mats])
    rights = np.stack([m.a for m in good.right_mats])
    assert base_action_failures(good, lefts, rights) == []
    # swap the first and last basis elements' actions on both sides, then
    # let the last act on the right as the second does on the left; the
    # balanced square keeps its dimension, so the action laws report
    swap = [0, db - 1], [db - 1, 0]
    lefts[swap[0]], rights[swap[0]] = lefts[swap[1]], rights[swap[1]]
    rights[db - 1] = lefts[1]
    want = base_action_failures(good, lefts, rights)
    assert all(any(kind in f for f in want)
               for kind in ("not unital", "multiplicative", "antimultiplicative", "commute"))
    broken = TensorTower(good.base, good.carrier_dim, [Matrix(p, m) for m in lefts],
                         [Matrix(p, m) for m in rights])
    with pytest.raises(AxiomError) as exc:
        CoringWithGrouplike(broken, good.coproduct, good.counit, good.grouplike)
    assert str(exc.value) == "coring axioms violated: " + "; ".join(want)


def test_non_coassociative_coproduct_is_rejected():
    """Over k with basis {1, x, y}: counital, k-linear, 1 grouplike, but
    (cop (x) id) cop(y) - (id (x) cop) cop(y) = -x (x) x (x) y."""
    p = 5
    one, x, y = np.eye(3, dtype=np.int64)
    ident = Matrix.identity(p, 3)
    counit = Matrix(p, [[1, 0, 0]])

    def coring(cop_y):
        cop = np.stack([np.kron(one, one), np.kron(x, one) + np.kron(one, x), cop_y], axis=1)
        tower = TensorTower(one_dim_algebra(Field(p)), 3, [ident], [ident])
        return CoringWithGrouplike(tower, Matrix(p, cop), counit, one)

    coring(np.kron(y, one) + np.kron(one, y))  # primitive y: a coring
    with pytest.raises(AxiomError) as exc:
        coring(np.kron(y, one) + np.kron(one, y) + np.kron(x, y))
    assert str(exc.value) == "coring axioms violated: coproduct is not coassociative"


# -- iterated tensor powers ---------------------------------------------------


@pytest.fixture(scope="module")
def corpus_corings():
    """Every coring the corpus gives: the endomorphism coring of each
    certified extension, the Sweedler coring of each extension, and the
    coring of each dual bialgebra."""
    out = {}
    for name in extension_names():
        e = load_corpus_extension(name)
        cert = build_f2(e)
        if cert.bijective:
            out[f"{name} endo"] = endo_coring(e, cert)
        out[f"{name} sweedler"] = sweedler_coring(e)
    for name in hopf_names():
        out[f"{name} hopf"] = hopf_coring(dual_hopf(load_corpus_hopf(name)))
    return out


def test_iterated_powers_match_the_dense_oracle(corpus_corings):
    """power(n) = power(n-1) (x)_R carrier against the slotwise relation
    span in the dense ambient carrier^n: power(3) for carriers up to 9,
    power(4) for carriers up to 4."""
    checked = []
    for name, c in corpus_corings.items():
        rights = [m.a for m in c.right_mats]
        lefts = [m.a for m in c.left_mats]
        for n, top in ((3, 9), (4, 4)):
            if c.carrier_dim <= top:
                dense = balanced_power(c.p, c.carrier_dim, rights, lefts, n)
                assert c.power(n).dim == dense.dim, (name, n)
                checked.append((name, n))
    assert len(checked) >= 20


# the dense references of the tests below stay under a second a coring up
# to this carrier; the Sweedler coring of a4_v4_gf3 (36) would take half a
# minute
DENSE_CARRIER = 18


def test_dual_basis_steps_are_the_commutant_quotients(corpus_corings):
    # every corpus carrier is free over its base but the ut2/diag ones
    # (3 over 2, 4 over 3) and the Hopf coalgebras, over the ground field
    # with no generators
    free = sorted(name for name, c in corpus_corings.items() if c.dual is not None)
    assert free == sorted(name for name in corpus_corings
                          if "ut2" not in name and "hopf" not in name)
    for name in free:
        if corpus_corings[name].carrier_dim <= DENSE_CARRIER:
            assert dual_step_mismatches(corpus_corings[name], 3) == [], name


def test_every_corpus_coring_is_dual_at_every_step_or_at_none(corpus_corings):
    for name, c in corpus_corings.items():
        assert off_choice_steps(c, 3) == [], name


def test_powers_grow_by_one_carrier_factor(corpus_corings):
    for name, c in corpus_corings.items():
        for n in range(2, 5 if c.carrier_dim <= 4 else 4):
            assert c.power(n).ambient_dim == c.power(n - 1).dim * c.carrier_dim, (name, n)


def test_large_carrier_power_dims(corpus_corings):
    # M2 over itself: the carrier is free of rank 4 over R = M2 on each
    # side, so power(n) has dim 4 * 4^n; A (x)_B A for S3 over C2 is free
    # of rank 3 over A, so power(n) has dim 6 * 3^n
    m2 = corpus_corings["m2_gf5 endo"]
    assert [m2.power(n).dim for n in (1, 2, 3)] == [16, 64, 256]
    s3 = corpus_corings["s3_c2_gf7 sweedler"]
    assert [s3.power(n).dim for n in (1, 2, 3)] == [18, 54, 162]


def test_concat_lifts_invert_concat(corpus_corings):
    # up to power(3), which every corpus coring builds in well under a second
    for name, c in corpus_corings.items():
        assert concat_lift_failures(c, 3) == [], name


def test_coring_maps_gather_the_dense_maps(corpus_corings):
    for name, c in corpus_corings.items():
        if c.carrier_dim > DENSE_CARRIER:
            continue
        assert gathered_map_mismatches(c, 3) == [], name
        # dual steps read blockwise, up to power(4) on three of them
        top = 4 if name in ("m2_gf5 endo", "c3_gf3 endo", "s3_c2_gf7 sweedler") else 3
        assert blockwise_step_failures(c, top) == [], name


def test_base_generators_balance_like_the_whole_basis(corpus_corings):
    # power(n) is balanced over algebra generators of the base only; the
    # relation span, hence the canonical echelon basis of the projection's
    # rows (a dual step's coordinates are not canonical), is the same as
    # over every basis element
    for name, c in corpus_corings.items():
        if c.carrier_dim > 9:
            continue
        for n in (2, 3):
            full = balanced_pair(c.p, c.power(n - 1).dim, c.carrier_dim,
                                 [m.a for m in c.right_on(n - 1)],
                                 [m.a for m in c.left_mats])
            rows, free = span_with_free(dense_pair(c.power(n))[0], c.p)
            assert np.array_equal(rows, full.rows), (name, n)
            assert free == full.free.tolist(), (name, n)


def test_generating_indices():
    f5 = Field(5)
    assert generating_indices(one_dim_algebra(f5)) == []
    # e11, e12 and e21 generate M2; e22 = 1 - e11
    assert generating_indices(matrix_algebra(f5, 2)) == [0, 1, 2]
    # S3 is generated by two of its transpositions
    s3 = load_corpus_extension("s3_c2_gf7").ambient
    assert len(generating_indices(s3)) == 2
