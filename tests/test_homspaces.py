"""B-bimodule hom spaces: dimensions against brute-force constraint solving."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coringlab import tensors
from coringlab.algebras import (
    Extension,
    FinDimAlgebra,
    centralizer,
    diagonal_algebra,
    generating_indices,
    matrix_algebra,
    trivial_extension,
)
from coringlab.corpus import facet_names, read_facets
from coringlab.errors import ElementNotInSpaceError, SizeLimitError
from coringlab.hochschild import build_complex
from coringlab.homspaces import build_hom
from coringlab.linalg import Field, Matrix, Selection, kernel_rows_with_free, mul_mod
from coringlab.simplicial import SimplicialComplex, incidence_extension, parse_complex
from coringlab.linalg import relation_entries
from coringlab.tensors import balanced_power, build_power

from conftest import hom_matrix, multiply, naive_rank, pure_tensor
from test_algebras import ut2_diag_extension


def brute_hom_dim(e, t):
    """Dimension of the constraint kernel, built entry by entry in loops.

    The power is rebuilt as the dense reference quotient of A^(dim^n),
    whose dimension must be the tower's.  Constraints are imposed on
    images of projected ambient basis tensors, which span the quotient;
    equations are assembled with plain python arithmetic and ranked by
    the naive eliminator from conftest.
    """
    a = e.ambient
    p, d_a = a.p, a.dim
    space = balanced_power(p, d_a, [a.right_mul(b).a for b in e.sub_images()],
                           [a.left_mul(b).a for b in e.sub_images()], t.n)
    q = space.dim
    assert q == t.dim
    eqs = []
    ambient_dim = d_a**t.n
    for b in e.sub_images():
        lamb = np.kron(a.left_mul(b).a, np.eye(d_a ** (t.n - 1), dtype=np.int64))
        ramb = np.kron(np.eye(d_a ** (t.n - 1), dtype=np.int64), a.right_mul(b).a)
        lb = a.left_mul(b).a
        rb = a.right_mul(b).a
        for col in range(ambient_dim):
            unit = np.zeros(ambient_dim, dtype=np.int64)
            unit[col] = 1
            v = space.project(unit)
            lv = space.project(lamb @ unit % p)
            rv = space.project(ramb @ unit % p)
            # rows for T(b.v) - b.T(v) = 0 and T(v.b) - T(v).b = 0
            for out_row in range(d_a):
                eq_left = [0] * (d_a * q)
                eq_right = [0] * (d_a * q)
                for cc in range(q):
                    eq_left[out_row * q + cc] += int(lv[cc])
                    eq_right[out_row * q + cc] += int(rv[cc])
                for rr in range(d_a):
                    for cc in range(q):
                        eq_left[rr * q + cc] -= int(lb[out_row, rr]) * int(v[cc])
                        eq_right[rr * q + cc] -= int(rb[out_row, rr]) * int(v[cc])
                eqs.append([x % p for x in eq_left])
                eqs.append([x % p for x in eq_right])
    if not eqs:
        return d_a * q
    return d_a * q - naive_rank(eqs, p)


def test_scalar_base_gives_all_linear_maps():
    e = trivial_extension(matrix_algebra(Field(5), 2))
    s = build_hom(e, build_power(e, 1))
    assert s.dim == 16


def test_ut2_diag_hom_dims_match_bruteforce():
    e = ut2_diag_extension(5)
    t1 = build_power(e, 1)
    s = build_hom(e, t1)
    assert s.dim == 3
    assert brute_hom_dim(e, t1) == 3
    t2 = build_power(e, 2)
    h2 = build_hom(e, t2)
    assert h2.dim == 4
    assert brute_hom_dim(e, t2) == 4


def test_basis_elements_satisfy_constraints(rng):
    e = ut2_diag_extension(5)
    t2 = build_power(e, 2)
    h2 = build_hom(e, t2)
    a = e.ambient
    for mat in (hom_matrix(h2, row) for row in np.eye(h2.dim, dtype=np.int64)):
        for _ in range(10):
            x = rng.integers(0, 5, size=3, dtype=np.int64)
            y = rng.integers(0, 5, size=3, dtype=np.int64)
            bc = rng.integers(0, 5, size=2, dtype=np.int64)
            b = e.inclusion.apply(bc)
            lhs = mat.apply(pure_tensor(t2, [multiply(a, b, x), y]))
            rhs = multiply(a, b, mat.apply(pure_tensor(t2, [x, y])))
            assert np.array_equal(lhs, rhs)
            lhs = mat.apply(pure_tensor(t2, [x, multiply(a, y, b)]))
            rhs = multiply(a, mat.apply(pure_tensor(t2, [x, y])), b)
            assert np.array_equal(lhs, rhs)


def test_coords_roundtrip(rng):
    e = ut2_diag_extension(5)
    s = build_hom(e, build_power(e, 1))
    for _ in range(10):
        c = rng.integers(0, 5, size=s.dim, dtype=np.int64)
        assert np.array_equal(s.coords_of(hom_matrix(s, c)), c)


def test_rejects_non_bimodule_map():
    e = ut2_diag_extension(5)
    s = build_hom(e, build_power(e, 1))
    # e00 -> e01 is not a bimodule map (breaks the component grading)
    bad = Matrix(5, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(ElementNotInSpaceError):
        s.coords_of(bad)


def test_lambda_rho_composites_are_members(rng):
    # left-then-right multiplication by centralizer elements stays in S
    from coringlab.algebras import centralizer

    e = ut2_diag_extension(5)
    s = build_hom(e, build_power(e, 1))
    r_space = centralizer(e)
    a = e.ambient
    for _ in range(10):
        rc = rng.integers(0, 5, size=r_space.dim, dtype=np.int64)
        sc = rng.integers(0, 5, size=r_space.dim, dtype=np.int64)
        r = (r_space.rows.T @ rc) % 5
        t = (r_space.rows.T @ sc) % 5
        composite = a.left_mul(r) @ a.right_mul(t)
        # coords_of raises for a matrix outside the space
        assert hom_matrix(s, s.coords_of(composite)) == composite


def compose_endo(s, f, g):
    """Coordinates of f o g for two endomorphisms given by coordinates."""
    return s.coords_of(hom_matrix(s, f) @ hom_matrix(s, g))


def test_compose_endo_algebra():
    e = ut2_diag_extension(5)
    s = build_hom(e, build_power(e, 1))
    one = s.coords_of(Matrix.identity(5, e.ambient.dim))
    eye = np.eye(s.dim, dtype=np.int64)
    for i in range(s.dim):
        assert np.array_equal(compose_endo(s, eye[i], one), eye[i])
        assert np.array_equal(compose_endo(s, one, eye[i]), eye[i])
    for i in range(s.dim):
        for j in range(s.dim):
            for k in range(s.dim):
                ab = compose_endo(s, eye[i], eye[j])
                bc = compose_endo(s, eye[j], eye[k])
                assert np.array_equal(
                    compose_endo(s, ab, eye[k]), compose_endo(s, eye[i], bc)
                )


def test_compose_matches_matrix_product_scalar_base(rng):
    e = trivial_extension(matrix_algebra(Field(5), 2))
    s = build_hom(e, build_power(e, 1))
    for _ in range(10):
        f = rng.integers(0, 5, size=s.dim, dtype=np.int64)
        g = rng.integers(0, 5, size=s.dim, dtype=np.int64)
        got = hom_matrix(s, compose_endo(s, f, g))
        want = hom_matrix(s, f) @ hom_matrix(s, g)
        assert got == want


def test_idempotent_component_projection_squares():
    # S of upper-triangular/diagonal acts componentwise; each projection
    # onto a component is idempotent under composition
    e = ut2_diag_extension(5)
    s = build_hom(e, build_power(e, 1))
    eye = np.eye(s.dim, dtype=np.int64)
    for i in range(s.dim):
        sq = compose_endo(s, eye[i], eye[i])
        # basis elements are unit matrices on single components
        assert np.array_equal(sq, eye[i]) or not sq.any()


@pytest.mark.parametrize("make,entries", [
    # two constraint blocks for the one generator of the diagonal, over
    # 3 * 4 unknowns
    (lambda: ut2_diag_extension(5), 2 * 12**2),
    # no generators over the ground field: the 27-square identity
    (lambda: trivial_extension(diagonal_algebra(Field(5), 3)), 27**2),
])
def test_oversized_hom_solve_is_refused_before_allocating(monkeypatch, make, entries):
    e = make()
    t = build_power(e, 2)
    monkeypatch.setattr(tensors, "RELATION_ENTRY_BUDGET", entries)
    assert build_hom(e, t).dim > 0
    monkeypatch.setattr(tensors, "RELATION_ENTRY_BUDGET", entries - 1)
    with pytest.raises(SizeLimitError, match=f"{e.ambient.dim * t.dim} unknowns"):
        build_hom(e, t)


# -- diagonal actions: the hom space as a selection ---------------------------


def stacked_constraint_kernel(e, t):
    """The canonical kernel of every intertwining block stacked into one
    matrix, two blocks for each basis element of B (its generators
    constrain no more): the solve a base acting off the diagonal takes,
    without the streaming."""
    p, d_a, q, tower = e.p, e.ambient.dim, t.dim, t.tower
    lefts, rights = tower.concat(0, t.n).a, tower.right_on(t.n)
    eye_a, eye_q = np.eye(d_a, dtype=np.int64), np.eye(q, dtype=np.int64)
    blocks = []
    for j in range(e.sub.dim):
        blocks.append(np.kron(tower.left_mats[j].a, eye_q)
                      - np.kron(eye_a, lefts[:, j * q:(j + 1) * q].T))
        blocks.append(np.kron(tower.right_mats[j].a, eye_q) - np.kron(eye_a, rights[j].a.T))
    return kernel_rows_with_free(np.vstack(blocks) % p, p)


def seeded_graph(seed, n_vertices, n_edges):
    """A simple graph with exactly n_edges edges, isolated vertices kept."""
    pairs = [(a, b) for a in range(n_vertices) for b in range(a + 1, n_vertices)]
    edges = random.Random(seed).sample(pairs, n_edges)
    used = {v for edge in edges for v in edge}
    return SimplicialComplex(edges + [(v,) for v in range(n_vertices) if v not in used])


INCIDENCE_CASES = {name: (lambda name=name: parse_complex(read_facets(name)))
                   for name in facet_names()}
INCIDENCE_CASES["graph-seed1"] = lambda: seeded_graph(1, 5, 4)
INCIDENCE_CASES["graph-seed2"] = lambda: seeded_graph(2, 6, 3)


@pytest.mark.parametrize("name", sorted(INCIDENCE_CASES))
def test_incidence_hom_selection_is_the_stacked_kernel(name):
    e = incidence_extension(INCIDENCE_CASES[name](), Field(5))
    for n in (1, 2):
        t = build_power(e, n)
        hom = build_hom(e, t)
        rows, free = stacked_constraint_kernel(e, t)
        assert np.array_equal(hom.rows, rows), (name, n)
        assert hom.at.tolist() == free, (name, n)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", sorted(INCIDENCE_CASES))
def test_incidence_degree_zero_is_the_centralizer(name, p):
    # C⁰ read off the tower's diagonals is the reduced centralizer
    e = incidence_extension(INCIDENCE_CASES[name](), Field(p))
    c0, reduced = build_complex(e, 1).homs[0], centralizer(e)
    assert np.array_equal(c0.rows, reduced.rows), name
    assert np.array_equal(c0.at, reduced.at), name


def test_incidence_hom_selection_is_budgeted_like_the_reduction(monkeypatch):
    # Hom_{B-B}(power(2), A) of the filled triangle: 19 * 37 unknowns
    # under two blocks for each of 6 generating vertex idempotents
    e = incidence_extension(parse_complex(read_facets("filled_triangle")), Field(5))
    t = build_power(e, 2)
    estimate = relation_entries(2 * len(generating_indices(e.sub)), 19 * 37)
    monkeypatch.setattr(tensors, "RELATION_ENTRY_BUDGET", estimate)
    assert build_hom(e, t).dim == 37
    monkeypatch.setattr(tensors, "RELATION_ENTRY_BUDGET", estimate - 1)
    with pytest.raises(SizeLimitError, match=re.escape(
            "a bimodule hom space with 703 unknowns needs a dense constraint matrix "
            f"of about {estimate:.2e} entries, over the budget of {estimate - 1:.0e}")):
        build_hom(e, t)


@st.composite
def poset_extensions(draw):
    """The incidence algebra of a random poset on up to four points over
    its diagonal, p = 2, 3, 5 or 7: x <= y is drawn for x < y and closed
    transitively, and e_xy·e_yz = e_xz."""
    f, k = Field(draw(st.sampled_from([2, 3, 5, 7]))), draw(st.integers(1, 4))
    below = np.eye(k, dtype=bool)
    for x in range(k):
        for y in range(x + 1, k):
            below[x, y] = draw(st.booleans())
    for z in range(k):      # Warshall: x <= z <= y gives x <= y
        below |= below[:, z, None] & below[None, z, :]
    pairs = [tuple(xy) for xy in np.argwhere(below)]
    at = {xy: i for i, xy in enumerate(pairs)}
    tensor = np.zeros((len(pairs),) * 3, dtype=np.int64)
    for (x, y), i in at.items():
        for (y2, z), j in at.items():
            if y == y2:
                tensor[i, j, at[(x, z)]] = 1
    inclusion = np.zeros((len(pairs), k), dtype=np.int64)
    for x in range(k):
        inclusion[at[(x, x)], x] = 1
    ambient = FinDimAlgebra(f, [f"e{x}{y}" for x, y in pairs], tensor, inclusion.sum(axis=1))
    return Extension(ambient, diagonal_algebra(f, k), Matrix(f.p, inclusion))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(poset_extensions())
def test_poset_hom_spaces_are_selections_of_the_stacked_kernel(e):
    # over a diagonal base every hom space is a selection: the stacked
    # reduction's rows, read and refused by a gather
    rng = np.random.default_rng(e.ambient.dim)
    for n in (1, 2):
        t = build_power(e, n)
        hom = build_hom(e, t)
        rows, free = stacked_constraint_kernel(e, t)
        assert isinstance(hom.space, Selection) and isinstance(t.space, Selection), n
        assert np.array_equal(hom.rows, rows) and hom.at.tolist() == free, n
        coords = rng.integers(0, e.p, size=(3, hom.dim), dtype=np.int64)
        members = mul_mod(coords, rows, e.p)
        assert np.array_equal(hom.coords(members, "not a member"), coords), n
        if hom.dim < hom.ambient_dim:
            members[0, np.setdiff1d(np.arange(hom.ambient_dim), free)[0]] = 1
            with pytest.raises(ElementNotInSpaceError, match="not a member"):
                hom.coords(members, "not a member")
