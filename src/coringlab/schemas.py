"""JSON encoding of algebras, extensions, and bialgebras.

An algebra object looks like::

    {"field": {"prime": 5}, "dim": 2, "basis": ["e", "t"],
     "structure": [[[[0, 1]], [[1, 1]]], [[[1, 1]], [[0, 2]]]],
     "unit": [1, 0]}

``structure[i][j]`` lists the nonzero terms of e_i * e_j as ``[k, c]``
pairs.  An extension file adds ``"sub"`` (a nested algebra object) and
``"inclusion"`` (a row-major dim(A) x dim(B) matrix); a bialgebra file
adds ``"coproduct"`` (row-major dim^2 x dim) and ``"counit"`` (length
dim).  Loading never checks algebra laws — the validate command exists
to report on deliberately broken inputs — but shapes, the prime, and
coefficient types are all enforced here with the offending JSON path.
A structure tensor above ``linalg.RELATION_ENTRY_BUDGET`` entries is
refused before it is allocated; the rest is filled as the terms are
checked, so a large file commits only the pages its terms touch.
"""

from __future__ import annotations

import json

import numpy as np

from .algebras import Extension, FinDimAlgebra, HopfData
from .errors import SchemaError
from .linalg import RELATION_ENTRY_BUDGET, Field, Matrix, check_entries


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    return obj[key]


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {type(value).__name__}")
    # every integer is stored as int64, with a residue mod p < 2**31 added
    if not -2**62 < value < 2**62:
        raise SchemaError(f"{where}: integer out of the range -2**62..2**62")
    return value


def _int_list(value, length: int, where: str) -> list[int]:
    if not isinstance(value, list) or len(value) != length:
        raise SchemaError(f"{where}: expected a list of {length} integers")
    return [_int(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _matrix(value, rows: int, cols: int, p: int, where: str) -> Matrix:
    if not isinstance(value, list) or len(value) != rows:
        raise SchemaError(f"{where}: expected {rows} rows")
    return Matrix(p, [_int_list(row, cols, f"{where}[{r}]")
                      for r, row in enumerate(value)])


def load_algebra(obj, where: str = "algebra") -> FinDimAlgebra:
    field_obj = _require(obj, "field", where)
    prime = _int(_require(field_obj, "prime", f"{where}.field"), f"{where}.field.prime")
    try:
        field = Field(prime)
    except ValueError as err:
        raise SchemaError(f"{where}.field.prime: {err}")
    dim = _int(_require(obj, "dim", where), f"{where}.dim")
    if dim < 1:
        raise SchemaError(f"{where}.dim: must be positive")
    basis = _require(obj, "basis", where)
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(b, str) for b in basis)):
        raise SchemaError(f"{where}.basis: expected {dim} names")
    structure = _require(obj, "structure", where)
    if not isinstance(structure, list) or len(structure) != dim:
        raise SchemaError(f"{where}.structure: expected {dim} rows")
    check_entries(dim**3, RELATION_ENTRY_BUDGET,
                  f"{where}: a {dim}-dimensional algebra needs a structure tensor")
    tensor = np.zeros((dim, dim, dim), dtype=np.int64)
    for i, row in enumerate(structure):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"{where}.structure[{i}]: expected {dim} entries")
        for j, terms in enumerate(row):
            if not isinstance(terms, list):
                raise SchemaError(f"{where}.structure[{i}][{j}]: expected a list of [k, c] pairs")
            for t_idx, term in enumerate(terms):
                spot = f"{where}.structure[{i}][{j}][{t_idx}]"
                if not isinstance(term, list) or len(term) != 2:
                    raise SchemaError(f"{spot}: expected a [k, c] pair")
                k = _int(term[0], f"{spot}[0]")
                c = _int(term[1], f"{spot}[1]")
                if not 0 <= k < dim:
                    raise SchemaError(f"{spot}: basis index {k} out of range")
                # repeated terms of one product add up; |c| < 2**62 and
                # the running sum is below p < 2**31, so int64 holds both
                tensor[i, j, k] = (tensor[i, j, k] + c) % prime
    unit = _int_list(_require(obj, "unit", where), dim, f"{where}.unit")
    return FinDimAlgebra(field, basis, tensor, unit)


def load_extension(obj) -> Extension:
    """Extension file: ambient algebra fields at top level, plus sub/inclusion.

    Axiom violations in the inclusion raise AxiomError from the
    Extension constructor, not SchemaError — shape problems stay here.
    """
    ambient = load_algebra(obj, "ambient")
    sub = load_algebra(_require(obj, "sub", "extension"), "sub")
    if sub.p != ambient.p:
        raise SchemaError("sub.field.prime: differs from the ambient prime")
    inclusion = _matrix(_require(obj, "inclusion", "extension"),
                        ambient.dim, sub.dim, ambient.p, "inclusion")
    return Extension(ambient, sub, inclusion)


def load_hopf(obj) -> HopfData:
    algebra = load_algebra(obj, "algebra")
    d = algebra.dim
    cop = _matrix(_require(obj, "coproduct", "bialgebra"), d * d, d,
                  algebra.p, "coproduct")
    eps = _int_list(_require(obj, "counit", "bialgebra"), d, "counit")
    return HopfData(algebra, cop, Matrix(algebra.p, [eps]))


def detect_kind(obj) -> str:
    """'hopf', 'extension', or 'algebra', from the keys present."""
    if not isinstance(obj, dict):
        raise SchemaError("top level: expected an object")
    if "coproduct" in obj or "counit" in obj:
        return "hopf"
    if "sub" in obj or "inclusion" in obj:
        return "extension"
    return "algebra"


def read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: invalid json: {err}")


# ---------------------------------------------------------------------------
# writers (inverse of the loaders, used for the bundled corpus)


def dump_algebra(a: FinDimAlgebra) -> dict:
    structure = [[[[int(k), int(c)] for k, c in enumerate(a.tensor[i, j]) if c]
                  for j in range(a.dim)] for i in range(a.dim)]
    return {
        "field": {"prime": a.p},
        "dim": a.dim,
        "basis": list(a.basis_names),
        "structure": structure,
        "unit": [int(c) for c in a.unit],
    }


def dump_extension(e: Extension) -> dict:
    obj = dump_algebra(e.ambient)
    obj["sub"] = dump_algebra(e.sub)
    obj["inclusion"] = [[int(c) for c in row] for row in e.inclusion.a]
    return obj


def dump_hopf(h: HopfData) -> dict:
    obj = dump_algebra(h.algebra)
    obj["coproduct"] = [[int(c) for c in row] for row in h.coproduct.a]
    obj["counit"] = [int(c) for c in h.counit.a[0]]
    return obj
