"""The differential graded algebra core shared by both complexes.

A DGA here is a coordinate space in each degree 0..N, the differentials
d^0..d^{N-1} as matrices, and one batched bilinear map that each
concrete complex supplies, ``products(m, n, xs, ys)``: the cup product
of relative Hochschild cochains, or the concatenation product of a
coring's tensor powers.  The per-pair product, the coboundaries, the
cohomology, the DGA law checks and the check of a comparison morphism
are written once here against that map.

Both complexes have one coboundary (the paper's cochains under cup
product are the Amitsur complex of End(_B A_B) with grouplike 1):

    d a = u·a + sum_{i=1..n} (-1)^i (slot map i)(a) + (-1)^{n+1} a·u

for a of degree n, with u a degree-1 unit (the identity cochain, or the
grouplike) and the slot maps the pullbacks along the slot
multiplications, or the slotwise coproducts.  ``coboundaries`` builds
d^0..d^{N-1} from it; d^0 is its n = 0 case, r -> u·r - r·u.

Products are checked on seeded random pairs of homogeneous elements; a
failing check carries its first failing pair, and the nonzero positions
of that pair's residual, as a ``witness``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, rank_of
from .reporting import Report


@dataclass
class Element:
    """A homogeneous element, stored as coordinates in its degree's space."""

    degree: int
    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.int64)


class DGA:
    """Spaces of degrees 0..N, differentials d^0..d^{N-1}, and a product.

    Subclasses supply ``products``.  ``symbol`` names the differential in
    check labels and ``title`` is the title of the law report.
    """

    __slots__ = ("p", "max_degree", "d", "_dims")
    symbol = "d"
    title = "dga"

    def __init__(self, p: int, max_degree: int, dims, d: list[Matrix]):
        self.p = p
        self.max_degree = max_degree
        self._dims = list(dims)
        self.d = d

    def dim(self, degree: int) -> int:
        return self._dims[degree]

    def dims(self) -> list[int]:
        return list(self._dims)

    def element(self, degree: int, coords) -> Element:
        el = Element(degree, coords)
        if el.coords.shape != (self.dim(degree),):
            raise ValueError(
                f"degree {degree} expects {self.dim(degree)} coordinates, "
                f"got {el.coords.shape}")
        return el

    def differential(self, x: Element) -> Element:
        return Element(x.degree + 1, self.d[x.degree].apply(x.coords))

    def products(self, m: int, n: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """x·y for every column x of ``xs`` (degree m) and every column y
        of ``ys`` (degree n), both reduced mod p, as the columns of one
        matrix over degree m+n; column i * cols(ys) + j is xs[:, i]·ys[:, j]."""
        raise NotImplementedError

    def product(self, x: Element, y: Element) -> Element:
        """The product of one pair; degrees must sum to at most the built maximum."""
        m, n = x.degree, y.degree
        if m + n > self.max_degree:
            raise ValueError(f"product degree {m}+{n} exceeds max_degree {self.max_degree}")
        xs = (x.coords % self.p).reshape(-1, 1)
        ys = (y.coords % self.p).reshape(-1, 1)
        return Element(m + n, self.products(m, n, xs, ys)[:, 0])


def coboundaries(x: DGA, unit, inner) -> list[Matrix]:
    """d^0..d^{N-1} of ``x`` from the one coboundary formula.

    ``unit`` holds the degree-1 coordinates of u; ``inner(n)`` lists the
    slot maps i = 1..n out of degree n >= 1, each a matrix from degree n
    to degree n+1.
    """
    p = x.p
    u = np.asarray(unit, dtype=np.int64).reshape(-1, 1) % p
    d = []
    for n in range(x.max_degree):
        eye = np.eye(x.dim(n), dtype=np.int64)
        outer = x.products(n, 1, eye, u)
        total = x.products(1, n, u, eye)
        total = (total + outer if n % 2 else total - outer) % p
        for i, term in enumerate(inner(n) if n else [], start=1):
            total = (total - term.a if i % 2 else total + term.a) % p
        d.append(Matrix(p, total))
    return d


def cohomology_dims(x: DGA) -> list[int]:
    """dim H^0 .. dim H^{N-1} by rank-nullity."""
    ranks = [rank_of(m.a, x.p) for m in x.d]
    return [x.dim(n) - ranks[n] - (ranks[n - 1] if n else 0)
            for n in range(x.max_degree)]


def random_element(x: DGA, degree: int, rng) -> Element:
    return Element(degree, rng.integers(0, x.p, size=x.dim(degree), dtype=np.int64))


def _sample_law(rep: Report, label: str, x: DGA, pairs, residual, trials: int,
                seed: int) -> None:
    """Add one check per degree pair (m, n): residual(a, b) vanishes on
    ``trials`` random pairs, a of degree m drawn before b of degree n."""
    rng = np.random.default_rng(seed)
    for m, n in pairs:
        bad, witness = 0, None
        for _ in range(trials):
            a = random_element(x, m, rng)
            b = random_element(x, n, rng)
            r = residual(a, b)
            if r.any():
                bad += 1
                if witness is None:
                    witness = {"degrees": [m, n],
                               "inputs": [a.coords.tolist(), b.coords.tolist()],
                               "residual_at": np.flatnonzero(r).tolist()}
        check = rep.add(f"{label} deg ({m},{n})", bad == 0, trials=trials, failures=bad)
        if witness:
            check.detail["witness"] = witness


def verify_dga(x: DGA, trials: int = 50, seed: int = 0) -> Report:
    """Exact d-squared checks, then the graded Leibniz rule per degree pair."""
    rep = Report(x.title)
    s, p = x.symbol, x.p
    for n in range(len(x.d) - 1):
        rep.add(f"{s}^{n + 1} . {s}^{n} = 0", (x.d[n + 1] @ x.d[n]).is_zero())

    def leibniz(a: Element, b: Element) -> np.ndarray:
        sign = 1 if a.degree % 2 == 0 else p - 1
        lhs = x.differential(x.product(a, b)).coords
        rhs = (x.product(x.differential(a), b).coords
               + sign * x.product(a, x.differential(b)).coords)
        return (lhs - rhs) % p

    top = x.max_degree
    pairs = [(m, n) for m in range(top) for n in range(top - m)]
    _sample_law(rep, "leibniz", x, pairs, leibniz, trials, seed)
    return rep


def verify_morphism(f: list[Matrix], src: DGA, dst: DGA, trials: int = 50,
                    seed: int = 0) -> Report:
    """Exact chain squares f^{n+1} d^n = d^n f^n, then f(xy) = f(x) f(y)
    per degree pair; ``f[n]`` maps degree n of src to degree n of dst."""
    rep = Report("morphism")
    for n in range(src.max_degree):
        lhs, rhs = f[n + 1] @ src.d[n], dst.d[n] @ f[n]
        check = rep.add(f"chain square degree {n}", lhs == rhs)
        if not check.ok:
            check.detail["differs_at"] = np.argwhere(lhs.a != rhs.a)[0].tolist()

    def multiplicative(a: Element, b: Element) -> np.ndarray:
        image = f[a.degree + b.degree].apply(src.product(a, b).coords)
        fa = Element(a.degree, f[a.degree].apply(a.coords))
        fb = Element(b.degree, f[b.degree].apply(b.coords))
        return (image - dst.product(fa, fb).coords) % dst.p

    top = src.max_degree
    pairs = [(m, k) for m in range(top + 1) for k in range(top + 1 - m)]
    _sample_law(rep, "multiplicative", src, pairs, multiplicative, trials, seed)
    return rep
