"""Every tower through every step type it admits.

``TensorTower._choose`` is the one place a tower picks the step type of
its powers, hom spaces and C⁰.  Patched to demote a ``Selection`` or a
``Dual`` tower to a ``Reduction``, or a ``Monomial`` tower to ``Dual``
steps on the same coset basis, it runs the same extension through each
type: a diagonal tower as selections and as reductions, a tower on a
free carrier as dual steps and as reductions, and a group algebra over
a subgroup's four ways: as monomial steps, as dual steps on the coset
basis and on randomly drawn ones (no matrix read as monomial), and as
reductions.  Every run gives the same power and hom dims, cohomology and
``verify_main_theorem`` checks; a selection and the reduction of the
same relations are the same canonical basis, byte for byte, and so are
the orbit solve and the reduction on the same coset coordinates.  A
coring built on a tower keeps the tower's choice.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from coringlab import tensors
from coringlab.amitsur import amitsur_cohomology, build_amitsur
from coringlab.corings import CoringWithGrouplike, endo_coring, sweedler_coring
from coringlab.corpus import load_corpus_extension, read_facets
from coringlab.errors import NoD2CertificateError
from coringlab.hochschild import build_complex, cohomology_dims
from coringlab.isomorphism import verify_main_theorem
from coringlab.linalg import Dual, Field, Monomial, Reduction, Selection
from coringlab.simplicial import incidence_extension, parse_complex
from coringlab.tensors import TensorTower

from test_homspaces import poset_extensions


def demote(monkeypatch, kind, to=Reduction):
    """Make every tower that would pick ``kind``, or a type derived from
    it, a tower of ``to``: of reductions, or of dual steps on the dual
    basis the choice found; returns the list of the types the towers
    would have picked."""
    plain, picked = TensorTower._choose, []

    def choose(tower):
        step = plain(tower)
        picked.append(step)
        if not issubclass(step, kind):
            return step
        tower._diagonals = tower._monomials = None
        if to is Reduction:
            tower._dual = None
        return to

    monkeypatch.setattr(TensorTower, "_choose", choose)
    return picked


def verdict(e, top):
    """The checks of ``verify_main_theorem``, or the refusal."""
    try:
        return [check.to_dict() for check in verify_main_theorem(e, top).report.checks]
    except NoD2CertificateError as err:
        return str(err)


def run(e, top):
    c = build_complex(e, top)
    dims = [c.powers[n].dim for n in c.powers] + [c.dim(n) for n in range(top + 1)]
    return c, dims, cohomology_dims(c), verdict(e, top)


def assert_selections_are_reductions(e, top, monkeypatch):
    chosen, dims, cohomology, checks = run(e, top)
    picked = demote(monkeypatch, Selection)
    again = run(e, top)
    assert Selection in picked
    assert again[1:] == (dims, cohomology, checks)
    assert chosen.tower.step is Selection and again[0].tower.step is Reduction
    for n, power in chosen.powers.items():
        mine, reduced = power.space, again[0].powers[n].space
        assert isinstance(mine, Selection), n
        assert (mine.rows.tobytes(), mine.free.tobytes()) == (reduced.rows.tobytes(),
                                                              reduced.free.tobytes()), n
    # the hom spaces, and C⁰ at 0
    for n, (mine, reduced) in enumerate(zip(chosen.homs, again[0].homs)):
        assert (mine.rows.tobytes(), mine.at.tobytes()) == (reduced.rows.tobytes(),
                                                            reduced.at.tobytes()), n


DIAGONAL = {
    "ut2_diag_gf5": (lambda: load_corpus_extension("ut2_diag_gf5"), 3),
    "filled_triangle": (lambda: incidence_extension(parse_complex(read_facets("filled_triangle")),
                                                    Field(5)), 2),
    "hollow_triangle": (lambda: incidence_extension(parse_complex(read_facets("hollow_triangle")),
                                                    Field(5)), 3),
}


@pytest.mark.parametrize("name", sorted(DIAGONAL))
def test_diagonal_towers_run_alike_as_selections_and_reductions(name, monkeypatch):
    make, top = DIAGONAL[name]
    assert_selections_are_reductions(make(), top, monkeypatch)


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(poset_extensions())
def test_poset_towers_run_alike_as_selections_and_reductions(e):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_selections_are_reductions(e, 3, monkeypatch)


def coring_run(e, top):
    coring = endo_coring(e)
    x = build_amitsur(coring, top)
    return coring, [x.dim(n) for n in range(top + 1)], amitsur_cohomology(x), verdict(e, top)


@pytest.mark.parametrize("name", ["c3_gf3", "gf25_gf5", "m2_gf5"])
def test_free_carrier_towers_run_alike_as_dual_steps_and_reductions(name, monkeypatch):
    e = load_corpus_extension(name)
    chosen, dims, cohomology, checks = coring_run(e, 3)
    picked = demote(monkeypatch, Dual)
    again = coring_run(e, 3)
    assert any(issubclass(step, Dual) for step in picked)
    assert again[1:] == (dims, cohomology, checks)
    assert issubclass(chosen.step, Dual) and again[0].step is Reduction
    assert isinstance(chosen.power(3), Dual) and isinstance(again[0].power(3), Reduction)


def test_a_coring_keeps_the_choice_of_its_tower(monkeypatch):
    # a coring copies its tower's slots: built on a tower of reductions,
    # it grows reductions, though a fresh tower on the same carrier picks
    # monomial dual steps
    e = load_corpus_extension("c3_gf3")
    with monkeypatch.context() as patched:
        demote(patched, Dual)
        forced = endo_coring(e)
    coring = CoringWithGrouplike(forced, forced.coproduct, forced.counit, forced.grouplike)
    fresh = TensorTower(forced.base, forced.carrier_dim, forced.left_mats, forced.right_mats)
    assert fresh.step is Monomial
    assert 4 not in forced._powers
    assert coring.step is Reduction and isinstance(coring.power(4), Reduction)
    assert np.array_equal(coring.coproducts(2)[1].a, forced.coproducts(2)[1].a)


def random_draws(monkeypatch):
    """Read no matrix as monomial: no tower takes monomial steps, and the
    dual bases are drawn at random."""
    monkeypatch.setattr(tensors, "_monomial_of", lambda m, p: None)


# each way a group-algebra extension runs, and the step types its
# extension tower and its Sweedler coring then take
WAYS = {
    "monomial": (lambda monkeypatch: None, Monomial),
    "coset dual": (lambda monkeypatch: demote(monkeypatch, Monomial, Dual), Dual),
    "random dual": (random_draws, Dual),
    "reduction": (lambda monkeypatch: demote(monkeypatch, Dual), Reduction),
}


def galois_run(e, top, sweedler):
    c, dims, cohomology, checks = run(e, top)
    steps, answers = [c.tower.step], [dims, cohomology, checks]
    if sweedler:
        coring = sweedler_coring(e)
        x = build_amitsur(coring, top)
        steps.append(coring.step)
        answers += [[x.dim(n) for n in range(top + 1)], amitsur_cohomology(x)]
    return c, steps, answers


# (top degree, whether the Sweedler coring runs too): as a reduction, the
# coring check of a4_v4_gf3's 36-dim Sweedler carrier takes 9 s
GALOIS = {"s3_c2_gf7": (3, True), "s3_c3_gf2": (3, True), "s3_c3_gf7": (3, True),
          "a4_v4_gf3": (2, False)}


@pytest.mark.parametrize("name", sorted(GALOIS))
def test_group_algebra_towers_run_alike_four_ways(name, monkeypatch):
    e = load_corpus_extension(name)
    top, sweedler = GALOIS[name]
    complexes, answers = {}, {}
    for way, (patch, step) in WAYS.items():
        with monkeypatch.context() as patched:
            patch(patched)
            complexes[way], steps, answers[way] = galois_run(e, top, sweedler)
        assert steps == [step] * (1 + sweedler), way
        assert answers[way] == answers["monomial"], way
    # on the same coset coordinates the orbit solve is the reduction's
    # canonical basis, byte for byte
    for n, (mine, reduced) in enumerate(zip(complexes["monomial"].homs,
                                            complexes["coset dual"].homs)):
        assert (mine.rows.tobytes(), mine.at.tobytes()) == (reduced.rows.tobytes(),
                                                            reduced.at.tobytes()), n
