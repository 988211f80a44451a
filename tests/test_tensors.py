"""Relative tensor powers: dimensions, balancedness, multiplication maps,
and the shape of the tower they are grown in."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coringlab import algebras, tensors
from coringlab.algebras import (
    FinDimAlgebra,
    diagonal_algebra,
    generating_indices,
    group_algebra,
    matrix_algebra,
    self_extension,
    trivial_extension,
)
from coringlab.amitsur import build_amitsur
from coringlab.corings import endo_coring, sweedler_coring
from coringlab.corpus import extension_names, facet_names, load_corpus_extension, read_facets
from coringlab.errors import NotWellDefinedError, SizeLimitError
from coringlab.hochschild import build_complex
from coringlab.linalg import (
    Field,
    Matrix,
    Subspace,
    diagonal_kept,
    inverse,
    mul_mod,
    quotient_of,
    rank_of,
    rref_rows,
)
from coringlab.simplicial import incidence_extension, parse_complex
from coringlab.tensors import (
    RELATION_ENTRY_BUDGET,
    TensorTower,
    balanced_pair,
    balanced_power,
    build_power,
    dual_basis,
    extension_tower,
    free_pair,
    mult_at,
    pair_relation_rows,
    relation_entries,
)

from conftest import (concat_section_failures, dense_on_last, dense_then_identity,
                      dual_step_mismatches, gathered_map_mismatches, pure_tensor,
                      s3_c2_extension)
from test_algebras import C3, ut2_diag_extension


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
    assert t.space.ambient_dim - t.space.dim == 0


def test_ut2_diag_power_dims():
    e = ut2_diag_extension(5)
    assert build_power(e, 1).dim == 3
    assert build_power(e, 2).dim == 4
    assert build_power(e, 3).dim == 5


def test_structured_relations_match_bruteforce():
    e = ut2_diag_extension(5)
    for n in (2, 3):
        t = build_power(e, n)
        assert t.dim == e.ambient.dim**n - brute_relation_rank(e, n)
    m2 = self_extension(matrix_algebra(Field(3), 2))
    t = build_power(m2, 2)
    assert t.dim == 4  # A tensor_A A is A itself
    assert t.space.ambient_dim - t.space.dim == brute_relation_rank(m2, 2) == 12


def test_embed_pure_balanced(rng):
    e = ut2_diag_extension(5)
    t = build_power(e, 2)
    a = e.ambient
    for _ in range(25):
        x = rng.integers(0, 5, size=3, dtype=np.int64)
        y = rng.integers(0, 5, size=3, dtype=np.int64)
        bc = rng.integers(0, 5, size=2, dtype=np.int64)
        b = e.inclusion.apply(bc)
        lhs = pure_tensor(t, [a.multiply(x, b), y])
        rhs = pure_tensor(t, [x, a.multiply(b, y)])
        assert np.array_equal(lhs, rhs)


def test_embed_unit_tensor_nonzero():
    e = ut2_diag_extension(5)
    t = build_power(e, 2)
    v = pure_tensor(t, [e.ambient.unit, e.ambient.unit])
    assert v.any()


def test_embed_idempotent_absorption():
    # e11 lies in B and is idempotent, so it can hop across the tensor sign
    e = ut2_diag_extension(5)
    t = build_power(e, 2)
    a = e.ambient
    e01 = np.array([0, 1, 0], dtype=np.int64)
    e11 = np.array([0, 0, 1], dtype=np.int64)
    lhs = pure_tensor(t, [a.multiply(e01, e11), e11])
    rhs = pure_tensor(t, [e01, a.multiply(e11, e11)])
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(rhs, pure_tensor(t, [e01, e11]))


def test_mult_at_collapses_pure_tensors(rng):
    e = ut2_diag_extension(5)
    t2 = build_power(e, 2)
    t1 = build_power(e, 1)
    m = mult_at(t2, t1, 1)
    a = e.ambient
    for _ in range(20):
        x = rng.integers(0, 5, size=3, dtype=np.int64)
        y = rng.integers(0, 5, size=3, dtype=np.int64)
        got = m.apply(pure_tensor(t2, [x, y]))
        want = t1.space.project(a.multiply(x, y))
        assert np.array_equal(got, want)
    unit = m.apply(pure_tensor(t2, [a.unit, a.unit]))
    assert np.array_equal(unit, t1.space.project(a.unit))


def test_mult_at_on_pure_tensors_of_power_three(rng):
    # power(3) of S3 over C2 is power(2) (x)_B A with ambient 18 * 6, not 6**3
    e = s3_c2_extension(7)
    a = e.ambient
    t3, t2 = build_power(e, 3), build_power(e, 2)
    assert t3.ambient_dim == 108
    first, last = mult_at(t3, t2, 1), mult_at(t3, t2, 2)
    for _ in range(10):
        x, y, z = (rng.integers(0, 7, size=a.dim, dtype=np.int64) for _ in range(3))
        xyz = pure_tensor(t3, [x, y, z])
        assert np.array_equal(first.apply(xyz), pure_tensor(t2, [a.multiply(x, y), z]))
        assert np.array_equal(last.apply(xyz), pure_tensor(t2, [x, a.multiply(y, z)]))


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


def test_relation_budget_admits_the_builds_in_use():
    # the fourth tower power of the filled triangle's 19-dim incidence
    # algebra, power(3) (x)_B A over 6 generating vertex idempotents
    # (gs-compare --max-degree 3), and its third (--max-degree 2)
    assert relation_entries(6, 61 * 19) == 6 * 1159**2
    assert relation_entries(6, 61 * 19) <= RELATION_ENTRY_BUDGET
    assert relation_entries(6, 37 * 19) <= RELATION_ENTRY_BUDGET
    # coring power(3) as power(2) (x) carrier: M2 endomorphism coring
    # (64 x 16 over 3 generators of M2), S3/C2 Sweedler coring (54 x 18
    # over 2 generators of S3)
    assert relation_entries(3, 1024) <= RELATION_ENTRY_BUDGET
    assert relation_entries(2, 972) <= RELATION_ENTRY_BUDGET
    # the largest hom solve: Hom_{B-B}(power(4), A) of the filled
    # triangle, 19 * 91 = 1729 unknowns under two blocks per generator
    assert relation_entries(12, 19 * 91) <= RELATION_ENTRY_BUDGET
    # with no generators the projection and section bound a build
    assert relation_entries(0, 10) == relation_entries(1, 10) == 100
    # the fourth power of an 11-dim algebra over the ground field
    # (ambient 11**4, no relations) is refused
    assert relation_entries(0, 11**4) > RELATION_ENTRY_BUDGET
    # a 9-dim algebra over the ground field builds power(4) (ambient
    # 9**4), but its hom space, 9 * 9**4 unknowns, is refused
    assert relation_entries(0, 9**4) <= RELATION_ENTRY_BUDGET
    assert relation_entries(0, 9 * 9**4) > RELATION_ENTRY_BUDGET


def test_oversized_powers_are_refused_before_allocating():
    p = 5
    eye19 = [np.eye(19, dtype=np.int64)]
    with pytest.raises(SizeLimitError, match="ambient dimension 130321"):
        balanced_power(p, 19, eye19, eye19, 4)
    with pytest.raises(SizeLimitError, match="ambient dimension 16000"):
        balanced_pair(p, 400, 40, [np.eye(400, dtype=np.int64)], [np.eye(40, dtype=np.int64)])
    # the tower builds power(3) of k^11 over k and refuses power(4)
    e = trivial_extension(diagonal_algebra(Field(p), 11))
    with pytest.raises(SizeLimitError, match="ambient dimension 14641"):
        build_power(e, 4)


def test_balanced_pair_is_the_dense_square():
    e = ut2_diag_extension(5)
    a = e.ambient
    rights = [a.right_mul(b).a for b in e.sub_images()]
    lefts = [a.left_mul(b).a for b in e.sub_images()]
    pair = balanced_pair(5, a.dim, a.dim, rights, lefts)
    square = balanced_power(5, a.dim, rights, lefts, 2)
    assert pair.projection == square.projection
    assert pair.section == square.section


# -- diagonal actions: the quotient as a selection -----------------------------


def dense_pair_quotient(p, dim_left, dim_right, rights, lefts):
    """V (x)_R W by reducing every balancing relation, the path a base
    acting off the diagonal takes."""
    ambient = dim_left * dim_right
    rows = pair_relation_rows(p, dim_left, dim_right, rights, lefts)
    return quotient_of(ambient, Subspace.from_spanning(p, ambient, rows))


@st.composite
def diagonal_actions(draw):
    """(p, dims, rights, lefts) for a base whose generators act by
    diagonal matrices, drawn from a few values so that diagonal entries
    repeat across the factors, some equal only mod p; an entry p off the
    diagonal is zero mod p and keeps a matrix diagonal."""
    p = draw(st.sampled_from([2, 5, 2**31 - 1]))
    dim_left, dim_right = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    value = st.sampled_from([0, 1, 2, p - 1, p + 1])

    def diagonal(dim):
        m = np.diag(np.array(draw(st.lists(value, min_size=dim, max_size=dim)), dtype=np.int64))
        if dim > 1 and draw(st.booleans()):
            m[0, dim - 1] = p
        return m

    n = draw(st.integers(0, 3))
    return (p, dim_left, dim_right, [diagonal(dim_left) for _ in range(n)],
            [diagonal(dim_right) for _ in range(n)])


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(diagonal_actions())
def test_diagonal_selection_is_the_dense_quotient(case):
    p, dim_left, dim_right, rights, lefts = case
    assert diagonal_kept(p, dim_left, dim_right, zip(rights, lefts)) is not None
    pair = balanced_pair(p, dim_left, dim_right, rights, lefts)
    dense = dense_pair_quotient(p, dim_left, dim_right, rights, lefts)
    assert pair.projection == dense.projection
    assert pair.section == dense.section


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
def test_one_entry_off_the_diagonal_takes_the_reduction(p):
    rights = [np.diag([1, 0, 1]).astype(np.int64), np.diag([0, 1, 1]).astype(np.int64)]
    lefts = [np.diag([1, 1]).astype(np.int64), np.diag([0, 1]).astype(np.int64)]
    rights[1][2, 0] = 1
    assert diagonal_kept(p, 3, 2, zip(rights, lefts)) is None
    pair = balanced_pair(p, 3, 2, rights, lefts)
    dense = dense_pair_quotient(p, 3, 2, rights, lefts)
    assert pair.projection == dense.projection
    assert pair.section == dense.section
    # the entry ties a relation coordinate to a kept one, so the quotient
    # is no longer the selection its diagonals alone give
    diagonals = [np.diag(np.diag(r)) for r in rights]
    selection = balanced_pair(p, 3, 2, diagonals, lefts)
    assert pair.projection != selection.projection


def test_selection_is_budgeted_like_the_reduction(monkeypatch):
    # power(2) of the filled triangle's incidence algebra: 361 ambient
    # coordinates under 6 generating vertex idempotents
    e = incidence_extension(parse_complex(read_facets("filled_triangle")), Field(5))
    a, subs = e.ambient, e.sub_images()
    gens = generating_indices(e.sub)
    rights = [a.right_mul(subs[j]).a for j in gens]
    lefts = [a.left_mul(subs[j]).a for j in gens]
    estimate = relation_entries(len(gens), a.dim**2)
    monkeypatch.setattr(tensors, "RELATION_ENTRY_BUDGET", estimate)
    assert balanced_pair(5, a.dim, a.dim, rights, lefts).dim == 37
    monkeypatch.setattr(tensors, "RELATION_ENTRY_BUDGET", estimate - 1)
    with pytest.raises(SizeLimitError, match=re.escape(
            "a tensor power with ambient dimension 361 needs a dense relation matrix "
            f"of about {estimate:.2e} entries, over the budget of {estimate - 1:.0e}")):
        balanced_pair(5, a.dim, a.dim, rights, lefts)


# -- the extension tower ------------------------------------------------------

TOP = 4


@pytest.fixture(scope="module")
def corpus_towers():
    return {name: build_power(load_corpus_extension(name), TOP).tower
            for name in extension_names()}


@pytest.mark.parametrize("build, calls", [
    # one extension tower
    (lambda: build_complex(incidence_extension(
        parse_complex(read_facets("filled_triangle")), Field(5)), 3), 1),
    # the extension's tower, then the coring's
    (lambda: build_amitsur(endo_coring(load_corpus_extension("m2_gf5")), 3), 2),
    (lambda: sweedler_coring(load_corpus_extension("s3_c2_gf7")), 2),
], ids=["incidence complex", "endo amitsur", "sweedler coring"])
def test_generators_are_picked_once_per_tower(monkeypatch, build, calls):
    picked = []
    original = algebras.generating_indices

    def counted(a):
        picked.append(a.dim)
        return original(a)

    # every coringlab module that holds the function gets the counter
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coringlab" and vars(module).get("generating_indices") is original:
            monkeypatch.setattr(module, "generating_indices", counted)
    build()
    assert len(picked) == calls, picked


def test_extension_powers_grow_by_one_factor(corpus_towers):
    # power(n) is power(n-1) (x)_B A: a return to the dense A^(dim^n)
    # ambient fails here
    for name, tower in corpus_towers.items():
        for n in range(2, TOP + 1):
            assert tower.power(n).ambient_dim == tower.power(n - 1).dim * tower.carrier_dim, (
                name, n)


def test_concat_sections_invert_concat(corpus_towers):
    for name, tower in corpus_towers.items():
        assert concat_section_failures(tower, TOP) == [], name


# the dense reference stays under a second up to this ambient size; the
# largest corpus case, power 4 of s3_c2_gf7 (ambient 6**4), takes about
# half of one
DENSE_REFERENCE_AMBIENT = 1300


def test_extension_powers_match_the_dense_oracle(corpus_towers):
    checked = []
    for name, tower in corpus_towers.items():
        rights = [m.a for m in tower.right_mats]
        lefts = [m.a for m in tower.left_mats]
        for n in range(2, TOP + 1):
            if tower.carrier_dim**n <= DENSE_REFERENCE_AMBIENT:
                dense = balanced_power(tower.p, tower.carrier_dim, rights, lefts, n)
                assert tower.power(n).dim == dense.dim, (name, n)
                checked.append((name, n))
    # every corpus power up to the top fits
    assert len(checked) == (TOP - 1) * len(corpus_towers)


def test_dual_basis_steps_on_extension_towers(corpus_towers):
    # the other corpus extensions are over the ground field, with no
    # generators, or ut2 over its diagonal (3 over 2)
    assert sorted(name for name, t in corpus_towers.items() if t.dual is not None) == [
        "s3_c2_gf7"]
    assert dual_step_mismatches(corpus_towers["s3_c2_gf7"], 3) == []


def test_tower_maps_gather_the_dense_maps(corpus_towers):
    # the extension towers, and the selection towers of the incidence
    # algebras over their vertex idempotents
    towers = dict(corpus_towers)
    for name in facet_names():
        e = incidence_extension(parse_complex(read_facets(name)), Field(5))
        towers[f"{name} incidence"] = extension_tower(e)
    for name, tower in towers.items():
        assert gathered_map_mismatches(tower, 3) == [], name


def test_maps_that_fail_their_certificate_are_refused_like_the_dense_maps(m2_gf5_endo):
    # x -> x·e12 is not right-linear over M2 and v -> e12·v is not
    # left-linear: neither, tensored with an identity, descends, and the
    # refusal names the coordinate that the map formed densely fails on
    c = m2_gf5_endo
    cases = [
        (lambda: c.then_identity(c.right_mats[1], 2, 2),
         lambda: dense_then_identity(c, c.right_mats[1], 2, 2)),
        (lambda: c.on_last(2, [c.left_mats[1]]),
         lambda: dense_on_last(c, 2, c.left_mats[1])),
    ]
    for tower_map, dense in cases:
        with pytest.raises(NotWellDefinedError) as want:
            dense()
        with pytest.raises(NotWellDefinedError, match=re.escape(str(want.value))):
            tower_map()


def test_a_tower_holds_zero_dimensional_powers():
    # one arrow a = e0·a·e1 over k x k: a ⊗ a = a·e1 ⊗ a = a ⊗ e1·a = 0,
    # so power(2) and every power above it are zero
    p = 5
    tower = TensorTower(diagonal_algebra(Field(p), 2), 1,
                        [Matrix(p, [[1]]), Matrix(p, [[0]])],
                        [Matrix(p, [[0]]), Matrix(p, [[1]])])
    assert tower.power(2).dim == 0
    assert [m.shape for m in tower.right_on(2)] == [(0, 0), (0, 0)]
    assert tower.power(3).projection.shape == (0, 0)
    assert tower.concat(1, 2).shape == (0, 0)
    assert tower.concat_section(1, 2).shape == (0, 0)


# -- free carriers: a dual basis ----------------------------------------------


def dual_numbers(f):
    """k[x]/x^2 on the basis 1, x."""
    return FinDimAlgebra(f, ("1", "x"), [[[(0, 1)], [(1, 1)]], [[(1, 1)], []]], [1, 0])


FREE_BASES = {
    "M2": lambda f: matrix_algebra(f, 2),
    "k[C3]": lambda f: group_algebra(f, C3),
    "k[x]/x^2": dual_numbers,
}


@st.composite
def free_towers(draw):
    """(tower, n): the tower of R^m, R acting on each copy by left and by
    right multiplication, in coordinates changed by a random invertible
    matrix so that no dual basis is made of unit vectors; n is the top
    power to check, 3 while the dense ambient carrier^3 stays small."""
    p = draw(st.sampled_from([2, 5, 2**31 - 1]))
    base = FREE_BASES[draw(st.sampled_from(sorted(FREE_BASES)))](Field(p))
    m = draw(st.integers(1, 8 // base.dim))
    c = base.dim * m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    change = rng.integers(0, p, size=(c, c), dtype=np.int64)
    while rank_of(change, p) < c:
        change = rng.integers(0, p, size=(c, c), dtype=np.int64)
    change = Matrix(p, change)
    back = inverse(change)

    def moved(mat):
        return change @ Matrix(p, np.kron(np.eye(m, dtype=np.int64), mat.a)) @ back

    eye = np.eye(base.dim, dtype=np.int64)
    tower = TensorTower(base, c, [moved(base.left_mul(b)) for b in eye],
                        [moved(base.right_mul(b)) for b in eye])
    return tower, 3 if c <= 6 else 2


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(free_towers())
def test_dual_basis_powers_match_the_dense_oracle(case):
    tower, n = case
    p, c = tower.p, tower.carrier_dim
    assert tower.dual is not None
    for k in range(2, n + 1):
        assert free_pair(tower.base, tower.gens, tower.right_on(k - 1), tower.dual) is not None
    dense = balanced_power(p, c, [m.a for m in tower.right_mats],
                           [m.a for m in tower.left_mats], n)
    # the tower's power(n) read on the dense ambient, projecting one
    # factor at a time, kills exactly the dense relations
    onto = tower.power(2).projection.a
    for k in range(3, n + 1):
        onto = mul_mod(tower.power(k).projection.a, np.kron(onto, np.eye(c, dtype=np.int64)), p)
    assert tower.power(n).dim == dense.dim
    assert np.array_equal(Subspace.from_spanning(p, c**n, onto).rows,
                          Subspace.from_spanning(p, c**n, dense.projection.a).rows)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(free_towers())
def test_dual_step_maps_are_the_dense_maps(case):
    # on_last, then_identity, concat and concat_batches between dual
    # steps are built block by block; formed instead with an explicit
    # kron and descended through the same dual pair, they agree byte for
    # byte, and each dual pair is the commutant's quotient in coordinates
    # changed by an invertible T
    tower, n = case
    assert all(tower.is_dual_step(k) for k in range(2, n + 1))
    assert dual_step_mismatches(tower, n) == []
    assert gathered_map_mismatches(tower, n) == []


def test_dual_steps_run_no_row_reduction(monkeypatch, m2_gf5_endo):
    # power(2) and power(3) of the M2 carrier, with their right actions and
    # products, are read off the dual basis: no RrefAccumulator is made
    from coringlab import linalg

    c = m2_gf5_endo
    tower = TensorTower(c.base, c.carrier_dim, c.left_mats, c.right_mats)

    def reduction(*args, **kwargs):
        raise AssertionError("a row reduction ran")

    monkeypatch.setattr(linalg, "RrefAccumulator", reduction)
    assert [tower.power(n).dim for n in (2, 3)] == [64, 256]
    assert all(tower.is_dual_step(n) for n in (2, 3))
    tower.right_on(3)
    ones = np.ones((16, 1), dtype=np.int64)
    assert tower.concat_batches(1, 2, ones, np.ones((64, 1), dtype=np.int64)).shape == (256, 1)
    assert tower.concat(1, 2).shape == (256, 16 * 64)


def test_the_left_linearity_certificate_runs_once_per_action_list(monkeypatch):
    # the right actions on power(2..4) of an extension tower share one
    # certificate, and so do the last-slot multiplications of mult_at
    e = load_corpus_extension("s3_c2_gf7")
    tower = extension_tower(e)
    calls = []
    original = tensors._intertwines

    def counted(*args):
        calls.append(args[1].shape)
        return original(*args)

    monkeypatch.setattr(tensors, "_intertwines", counted)
    tower.power(4)
    assert calls == [(6, len(tower.right_mats), 6)]
    calls.clear()
    powers = {n: tensors.RelativeTensorPower(e, tower, n) for n in (2, 3, 4)}
    mult_at(powers[3], powers[2], 2)
    mult_at(powers[4], powers[3], 3)
    assert calls == [(6, 6, 6)]


def test_a_left_action_that_is_no_module_gets_no_dual_basis():
    p = 5
    base = dual_numbers(Field(p))
    gens = generating_indices(base)
    one, x = (base.left_mul(b) for b in np.eye(2, dtype=np.int64))
    assert dual_basis(base, gens, [one, x]) is not None
    # x acting as a nonzero idempotent: 1, x·1 is a basis, but x·x is not 0
    assert dual_basis(base, gens, [one, Matrix(p, [[0, 0], [1, 1]])]) is None


@pytest.mark.parametrize("right_one, right_x, dim", [
    # x acting as a nonzero idempotent: (v·x)·x is not v·(x·x), and the
    # relations leave 1 dimension of the 2 the dual basis would read off
    ([[1, 0], [0, 1]], [[0, 0], [1, 1]], 1),
    # nothing acting, not even 1: the dual basis would read off 0
    ([[0, 0], [0, 0]], [[0, 0], [0, 0]], 2),
], ids=["not associative", "not unital"])
def test_a_right_action_that_fails_the_check_takes_the_commutant(right_one, right_x, dim):
    p = 5
    base = dual_numbers(Field(p))
    lefts = [base.left_mul(b) for b in np.eye(2, dtype=np.int64)]
    rights = [Matrix(p, right_one), Matrix(p, right_x)]
    tower = TensorTower(base, 2, lefts, rights)
    assert tower.dual is not None
    assert free_pair(base, tower.gens, tower.right_on(1), tower.dual) is None
    reduced = balanced_pair(p, 2, 2, [rights[j].a for j in tower.gens],
                            [lefts[j].a for j in tower.gens])
    assert tower.power(2).projection == reduced.projection
    assert tower.power(2).section == reduced.section
    assert reduced.dim == dim


def test_dual_steps_are_budgeted_like_the_reduction(monkeypatch, m2_gf5_endo):
    # power(3) of the M2 endomorphism coring: 64 * 16 ambient coordinates
    # under 3 generators of M2
    c = m2_gf5_endo

    def fresh_power_three():
        tower = TensorTower(c.base, c.carrier_dim, c.left_mats, c.right_mats)
        return tower.power(3)

    def reduction(*args):
        raise AssertionError("the commutant ran")

    estimate = relation_entries(len(c.gens), 1024)
    monkeypatch.setattr(tensors, "balanced_pair", reduction)
    monkeypatch.setattr(tensors, "RELATION_ENTRY_BUDGET", estimate)
    assert fresh_power_three().dim == 256
    monkeypatch.setattr(tensors, "RELATION_ENTRY_BUDGET", estimate - 1)
    with pytest.raises(SizeLimitError, match=re.escape(
            "a tensor power with ambient dimension 1024 needs a dense relation matrix "
            f"of about {estimate:.2e} entries, over the budget of {estimate - 1:.0e}")):
        fresh_power_three()


def multichain_count(faces, n):
    """Multichains sigma_0 <= ... <= sigma_n in the face poset, counted
    by extending each chain at its top."""
    below = {t: [s for s in faces if set(s) <= set(t)] for t in faces}
    ending = {t: 1 for t in faces}
    for _ in range(n):
        ending = {t: sum(ending[s] for s in below[t]) for t in faces}
    return sum(ending.values())


def test_facet_complex_powers_count_multichains():
    # e[s0|s1] (x) e[s1|s2] (x) ... spans A^(x_B n) of an incidence
    # algebra over its diagonal, one basis tensor per multichain.  A
    # B-bimodule map sends each into the line of e[s0|sn], so the cochain
    # space C^n has one basis element per multichain s0 <= ... <= sn too,
    # and C^0, the diagonal, one per face
    for name in facet_names():
        s = parse_complex(read_facets(name))
        e = incidence_extension(s, Field(5))
        t = build_power(e, TOP)
        dims = [t.tower.power(n).dim for n in range(1, TOP + 1)]
        assert dims == [multichain_count(s.faces, n) for n in range(1, TOP + 1)], name
        cochains = build_complex(e, 3).dims()
        assert cochains == [multichain_count(s.faces, n) for n in range(4)], name
        if name == "filled_triangle":
            assert dims == [19, 37, 61, 91]
            assert cochains == [7, 19, 37, 61]
