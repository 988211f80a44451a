"""JSON loader/writer round trips and the error paths with JSON-path messages."""

import copy
import json

import numpy as np
import pytest

from coringlab.algebras import FinDimAlgebra, validate
from coringlab.corpus import s3_over_c2, ut2_over_diagonal
from coringlab.errors import AxiomError, SchemaError
from coringlab.schemas import (
    detect_kind,
    dump_algebra,
    dump_extension,
    dump_hopf,
    load_algebra,
    load_extension,
    load_hopf,
    read_json,
)
from coringlab.algebras import Field, group_hopf


def c2_obj(p=3):
    return {
        "field": {"prime": p},
        "dim": 2,
        "basis": ["e", "g"],
        "structure": [[[[0, 1]], [[1, 1]]], [[[1, 1]], [[0, 1]]]],
        "unit": [1, 0],
    }


def test_algebra_round_trip():
    a = load_algebra(c2_obj())
    again = load_algebra(dump_algebra(a))
    assert np.array_equal(again.tensor, a.tensor)
    assert again.basis_names == a.basis_names
    assert np.array_equal(again.unit, a.unit)
    assert validate(a).ok


def test_extension_round_trip():
    e = ut2_over_diagonal(5)
    obj = dump_extension(e)
    again = load_extension(obj)
    assert np.array_equal(again.ambient.tensor, e.ambient.tensor)
    assert np.array_equal(again.sub.tensor, e.sub.tensor)
    assert np.array_equal(again.inclusion.a, e.inclusion.a)
    # a serialize -> parse -> serialize cycle is the identity on the text too
    assert json.dumps(dump_extension(again), sort_keys=True) == json.dumps(obj, sort_keys=True)


def test_hopf_round_trip():
    h = group_hopf(Field(2), [[0, 1], [1, 0]], ["e", "g"])
    again = load_hopf(dump_hopf(h))
    assert np.array_equal(again.coproduct.a, h.coproduct.a)
    assert np.array_equal(again.counit.a, h.counit.a)


def test_detect_kind():
    assert detect_kind(c2_obj()) == "algebra"
    assert detect_kind(dump_extension(ut2_over_diagonal(5))) == "extension"
    assert detect_kind(dump_hopf(group_hopf(Field(3), [[0, 1], [1, 0]], ["e", "g"]))) == "hopf"
    with pytest.raises(SchemaError, match="expected an object"):
        detect_kind([1, 2])


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda o: o.pop("field"), "algebra: missing key 'field'"),
        (lambda o: o["field"].pop("prime"), "algebra.field: missing key 'prime'"),
        (lambda o: o["field"].__setitem__("prime", 6), "algebra.field.prime"),
        (lambda o: o["field"].__setitem__("prime", True), "expected an integer, got bool"),
        (lambda o: o.__setitem__("dim", 0), "algebra.dim: must be positive"),
        (lambda o: o.__setitem__("basis", ["e"]), "algebra.basis: expected 2 names"),
        (lambda o: o.__setitem__("structure", []), "algebra.structure: expected 2 rows"),
        (lambda o: o["structure"][0].pop(), r"algebra.structure\[0\]: expected 2 entries"),
        (
            lambda o: o["structure"][0].__setitem__(1, [[1]]),
            r"algebra.structure\[0\]\[1\]\[0\]: expected a \[k, c\] pair",
        ),
        (
            lambda o: o["structure"][1][0].__setitem__(0, [5, 1]),
            "basis index 5 out of range",
        ),
        (lambda o: o.__setitem__("unit", [1, 0, 0]), "algebra.unit: expected a list of 2 integers"),
        (lambda o: o.__setitem__("unit", [1, "x"]), r"algebra.unit\[1\]: expected an integer"),
    ],
)
def test_bad_algebra_objects(mutate, message):
    obj = c2_obj()
    mutate(obj)
    with pytest.raises(SchemaError, match=message):
        load_algebra(obj)


def test_repeated_terms_add_up_mod_p_from_the_widest_coefficients():
    # every coefficient is within the loader's range, and three of them
    # summed unreduced would overflow int64
    big = 2**62 - 1
    p = 7
    structure = [[[[0, big], [0, big], [1, -big], [0, big]], [[1, -big], [1, -big], [1, 3]]],
                 [[[1, big], [0, -big], [1, big]], []]]
    obj = {"field": {"prime": p}, "dim": 2, "basis": ["a", "b"],
           "structure": structure, "unit": [1, 0]}
    want = [[[sum(c for at, c in structure[i][j] if at == k) % p for k in range(2)]
             for j in range(2)] for i in range(2)]
    assert load_algebra(obj).tensor.tolist() == want


def test_a_wrong_unit_length_is_refused_by_the_loader_and_the_constructor():
    obj = c2_obj()
    obj["unit"] = [1, 0, 0]
    with pytest.raises(SchemaError, match="algebra.unit: expected a list of 2 integers"):
        load_algebra(obj)
    a = load_algebra(c2_obj())
    with pytest.raises(ValueError, match="unit has length 3, expected 2"):
        FinDimAlgebra(a.field, a.basis_names, a.tensor, [1, 0, 0])


def test_bad_extension_objects():
    base = dump_extension(ut2_over_diagonal(5))

    obj = copy.deepcopy(base)
    del obj["sub"]
    with pytest.raises(SchemaError, match="extension: missing key 'sub'"):
        load_extension(obj)

    obj = copy.deepcopy(base)
    obj["sub"]["field"]["prime"] = 7
    with pytest.raises(SchemaError, match="sub.field.prime: differs from the ambient prime"):
        load_extension(obj)

    obj = copy.deepcopy(base)
    obj["inclusion"] = obj["inclusion"][:2]
    with pytest.raises(SchemaError, match="inclusion: expected 3 rows"):
        load_extension(obj)


def test_extension_axioms_checked_by_constructor_not_loader():
    # redirect the involution onto a 3-cycle: shapes and unit fine, squares wrong
    obj = dump_extension(s3_over_c2(7))
    obj["inclusion"] = [[1, 0], [0, 0], [0, 0], [0, 0], [0, 1], [0, 0]]
    with pytest.raises(AxiomError, match="multiplicative"):
        load_extension(obj)


def test_bad_hopf_objects():
    base = dump_hopf(group_hopf(Field(2), [[0, 1], [1, 0]], ["e", "g"]))

    obj = copy.deepcopy(base)
    obj["coproduct"] = obj["coproduct"][:3]
    with pytest.raises(SchemaError, match="coproduct: expected 4 rows"):
        load_hopf(obj)

    obj = copy.deepcopy(base)
    obj["counit"] = [1]
    with pytest.raises(SchemaError, match="counit: expected a list of 2 integers"):
        load_hopf(obj)


def test_loading_skips_algebra_laws():
    # e*g = 0 breaks the unit law; the loader accepts it, validate() flags it
    obj = c2_obj()
    obj["structure"] = [[[[0, 1]], []], [[[1, 1]], [[0, 1]]]]
    a = load_algebra(obj)
    assert not validate(a).ok


def test_read_json_errors(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        read_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="invalid json"):
        read_json(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(c2_obj()), encoding="utf-8")
    assert read_json(good)["dim"] == 2
