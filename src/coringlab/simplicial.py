"""Facet-list parsing, face-poset incidence algebras, and the simplicial
cohomology oracle used to cross-check the relative cochain complex."""

from __future__ import annotations

import itertools

import numpy as np

from .algebras import Extension, FinDimAlgebra, diagonal_algebra
from .errors import FacetParseError, SizeLimitError
from .dga import cohomology_dims
from .hochschild import HARD_DEGREE_CAP, build_complex
from .linalg import Field, Matrix, rank_of
from .reporting import Report

DEFAULT_DIM_CAP = 20
# H^n needs the cochain complex up to degree n + 1
GS_DEGREE_CAP = HARD_DEGREE_CAP - 1


class SimplicialComplex:
    """Finite abstract simplicial complex stored as sorted faces.

    Faces are every nonempty subset of the given facets, deduplicated,
    each a tuple of increasing vertex ids, listed in (size, lex) order.
    """

    __slots__ = ("n_vertices", "facets", "faces")

    def __init__(self, facets):
        cleaned = []
        for facet in facets:
            verts = tuple(sorted(set(int(v) for v in facet)))
            if not verts:
                raise ValueError("empty facet")
            if verts[0] < 0:
                raise ValueError(f"negative vertex id in facet {verts}")
            cleaned.append(verts)
        if not cleaned:
            raise ValueError("a complex needs at least one facet")
        self.facets = tuple(cleaned)
        self.n_vertices = 1 + max(v for f in cleaned for v in f)
        seen = set()
        for facet in cleaned:
            for r in range(1, len(facet) + 1):
                seen.update(itertools.combinations(facet, r))
        self.faces = tuple(sorted(seen, key=lambda f: (len(f), f)))

    def faces_of_dim(self, n: int) -> list[tuple]:
        """Faces with n+1 vertices, in lex order."""
        return [f for f in self.faces if len(f) == n + 1]

    def __repr__(self):
        return f"SimplicialComplex({len(self.faces)} faces, {self.n_vertices} vertices)"


def parse_complex(text: str, cap: int | None = None) -> SimplicialComplex:
    """Read the facet-list format: one facet per line as whitespace-separated
    vertex ids, '#' starting a comment, blank lines skipped.

    With a ``cap`` on the incidence-algebra dimension, a facet whose own
    pairs already exceed it is refused before any face is enumerated.
    """
    facets = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            verts = [int(tok) for tok in body.split()]
        except ValueError:
            raise FacetParseError(f"vertex ids must be integers, got {body!r}", ln)
        if any(v < 0 for v in verts):
            raise FacetParseError("vertex ids must be non-negative", ln)
        facets.append(verts)
    if not facets:
        raise FacetParseError("no facets in input")
    if cap is not None:
        # a k-vertex facet alone spans 3^k - 2^k pairs sigma <= tau: each
        # vertex lies outside tau, in tau only, or in sigma, and sigma is
        # nonempty.  The count is named, not printed: it can run to more
        # digits than an int may be converted to
        k = max(len(set(f)) for f in facets)
        if 3**k - 2**k > cap:
            raise SizeLimitError(
                f"incidence algebra dimension exceeds the cap {cap}: a facet of "
                f"{k} vertices alone spans 3^{k} - 2^{k} pairs of faces")
    return SimplicialComplex(facets)


def incidence_extension(s: SimplicialComplex, field: Field) -> Extension:
    """The poset algebra on pairs sigma <= tau of faces, over its diagonal.

    e_{sigma,tau} e_{tau',rho} = [tau = tau'] e_{sigma,rho}; the
    subalgebra is spanned by the idempotents e_{sigma,sigma}.
    """
    faces = s.faces
    index = {f: i for i, f in enumerate(faces)}
    pairs = [(a, b) for a in faces for b in faces if set(a) <= set(b)]
    pair_index = {ab: i for i, ab in enumerate(pairs)}
    m = len(pairs)
    tensor = np.zeros((m, m, m), dtype=np.int64)
    for i, (sig, tau) in enumerate(pairs):
        for j, (tau2, rho) in enumerate(pairs):
            if tau == tau2:
                tensor[i, j, pair_index[(sig, rho)]] = 1
    unit = np.zeros(m, dtype=np.int64)
    for f in faces:
        unit[pair_index[(f, f)]] = 1

    def pair_name(ab):
        sig, tau = ab
        left = ".".join(map(str, sig))
        right = ".".join(map(str, tau))
        return f"e[{left}|{right}]"

    ambient = FinDimAlgebra.from_tensor(field, [pair_name(ab) for ab in pairs],
                                        tensor, unit)
    sub = diagonal_algebra(field, len(faces))
    inclusion = np.zeros((m, len(faces)), dtype=np.int64)
    for f in faces:
        inclusion[pair_index[(f, f)], index[f]] = 1
    return Extension(ambient, sub, Matrix(field.p, inclusion))


def simplicial_cohomology(s: SimplicialComplex, field: Field, max_n: int) -> list[int]:
    """dim H^0 .. dim H^max_n over GF(p), sorted-vertex orientation."""
    p = field.p
    levels = [s.faces_of_dim(n) for n in range(max_n + 2)]
    deltas = []
    for n in range(max_n + 1):
        lower, upper = levels[n], levels[n + 1]
        idx = {f: i for i, f in enumerate(lower)}
        mat = np.zeros((len(upper), len(lower)), dtype=np.int64)
        for r, tau in enumerate(upper):
            for i in range(len(tau)):
                face = tau[:i] + tau[i + 1:]
                mat[r, idx[face]] = 1 if i % 2 == 0 else p - 1
        deltas.append(mat)
    ranks = [rank_of(d, p) if d.size else 0 for d in deltas]
    dims = [len(levels[0]) - ranks[0]]
    for n in range(1, max_n + 1):
        dims.append(len(levels[n]) - ranks[n] - ranks[n - 1])
    return dims


def gs_compare(s: SimplicialComplex, field: Field, max_n: int = 1,
               cap: int = DEFAULT_DIM_CAP) -> Report:
    """Relative cochain cohomology of the incidence extension against the
    simplicial oracle, degree by degree."""
    if not 0 <= max_n <= GS_DEGREE_CAP:
        raise SizeLimitError(
            f"gs-compare degree {max_n} is outside 0..{GS_DEGREE_CAP}")
    # the pairs sigma <= tau, counted before the algebra's dense
    # structure tensor is allocated: 2^|tau| - 1 faces below each tau
    dim = sum(2 ** len(tau) - 1 for tau in s.faces)
    if dim > cap:
        raise SizeLimitError(f"incidence algebra dimension {dim} exceeds the cap {cap}")
    e = incidence_extension(s, field)
    rep = Report("gs-compare")
    algebra_side = cohomology_dims(build_complex(e, max_n + 1))[:max_n + 1]
    space_side = simplicial_cohomology(s, field, max_n)
    for n in range(max_n + 1):
        rep.add(f"H^{n} dims match", algebra_side[n] == space_side[n],
                extension=algebra_side[n], simplicial=space_side[n])
    return rep
