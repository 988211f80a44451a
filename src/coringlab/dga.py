"""The differential graded algebra core shared by both complexes.

A DGA here is a coordinate space in each degree 0..N, the differentials
d^0..d^{N-1} as matrices, and the one product each concrete complex
supplies, ``products(m, n, xs, ys)`` on column-paired batches: the cup
product of relative Hochschild cochains, or the concatenation product
of a coring's tensor powers.  Either side may instead be one element,
a 1-D vector, paired with every column of the other batch.  The
coboundaries, the cohomology, the DGA law checks and the check of a
comparison morphism are written once here against it.

Both complexes have one coboundary (the paper's cochains under cup
product are the Amitsur complex of End(_B A_B) with grouplike 1):

    d a = u·a + sum_{i=1..n} (-1)^i (slot map i)(a) + (-1)^{n+1} a·u

for a of degree n, with u a degree-1 unit (the identity cochain, or the
grouplike) and the slot maps the pullbacks along the slot
multiplications, or the slotwise coproducts.  ``coboundaries`` builds
d^0..d^{N-1} from it, passing u as one element against the basis of
degree n; d^0 is its n = 0 case, r -> u·r - r·u.

The product laws are bilinear, so a degree pair (m, n) with
dim(m)·dim(n) <= ``trials`` is proved on every basis pair, and its check
reports ``basis_pairs``; any other pair is checked on ``trials`` seeded
random pairs of homogeneous elements, drawn a before b, trial by trial.
Either way the pairs are the columns of batches of at most ``LAW_BATCH``;
a failing check carries its first failing pair, and the nonzero
positions of that pair's residual, as a ``witness``.
"""

from __future__ import annotations

import numpy as np

from .linalg import Matrix, mul_mod, rank_of
from .reporting import Report

# pairs per batch of a law check: a constant, so --trials sizes no allocation
LAW_BATCH = 64
# pairs per degree pair of a law check when the caller gives no count
DEFAULT_TRIALS = 50


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

    def products(self, m: int, n: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Column i is xs[:, i]·ys[:, i], for xs of degree m and ys of degree n
        reduced mod p; a 1-D xs or ys is one element, paired with every
        column of the other batch.  Raises ValueError past max_degree or on
        unpaired batches."""
        raise NotImplementedError


def paired(x: DGA, m: int, n: int, xs, ys) -> tuple[np.ndarray, np.ndarray, int]:
    """The batches of a product of degrees m and n, reduced mod p, as
    2-D arrays, and the number k of products: a one-element side is one
    column."""
    if m + n > x.max_degree:
        raise ValueError(f"product degree {m}+{n} exceeds max_degree {x.max_degree}")
    xs, ys = np.asarray(xs, dtype=np.int64) % x.p, np.asarray(ys, dtype=np.int64) % x.p
    dm, dn = x.dim(m), x.dim(n)
    # a 1-D side against a batch takes its width; two of them pair nothing
    one_x, one_y = xs.ndim == 1 and ys.ndim == 2, ys.ndim == 1 and xs.ndim == 2
    k = ys.shape[1] if one_x else xs.shape[1] if xs.ndim == 2 else -1
    if xs.shape != ((dm,) if one_x else (dm, k)) or ys.shape != ((dn,) if one_y else (dn, k)):
        raise ValueError(f"batches of shape {xs.shape} and {ys.shape} do not pair "
                         f"degrees {m} and {n} of dimensions {dm} and {dn}")
    return xs.reshape(dm, -1), ys.reshape(dn, -1), k


def every_pair(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batches whose product's column i * cols(ys) + j is xs[:, i]·ys[:, j]."""
    return np.repeat(xs, ys.shape[1], axis=1), np.tile(ys, (1, xs.shape[1]))


def coboundaries(x: DGA, unit, inner, start: int = 0) -> list[Matrix]:
    """d^start..d^{N-1} of ``x`` from the one coboundary formula.

    ``unit`` holds the degree-1 coordinates of u; ``inner(n)`` lists the
    slot maps i = 1..n out of degree n >= 1, each a matrix from degree n
    to degree n+1.
    """
    p = x.p
    u = np.asarray(unit, dtype=np.int64).reshape(-1) % p
    d = []
    for n in range(start, x.max_degree):
        eye = np.eye(x.dim(n), dtype=np.int64)
        outer = x.products(n, 1, eye, u)
        total = x.products(1, n, u, eye)
        total = (total + outer if n % 2 else total - outer) % p
        for i, term in enumerate(inner(n) if n else [], start=1):
            total = (total - term.a if i % 2 else total + term.a) % p
        d.append(Matrix._wrap(p, total))
    return d


def cohomology_dims(x: DGA) -> list[int]:
    """dim H^0 .. dim H^{N-1} by rank-nullity."""
    ranks = [rank_of(m.a, x.p) for m in x.d]
    return [x.dim(n) - ranks[n] - (ranks[n - 1] if n else 0)
            for n in range(x.max_degree)]


def _check_law(rep: Report, label: str, x: DGA, pairs, residual, trials: int,
               seed: int) -> None:
    """Add one check per degree pair (m, n): ``residual(m, n, xs, ys)`` has a
    zero column for every basis pair, in ``every_pair`` order, when
    dim(m)·dim(n) <= ``trials``, and otherwise for ``trials`` random pairs."""
    rng = np.random.default_rng(seed)
    for m, n in pairs:
        bad, witness = 0, None
        dm, dn = x.dim(m), x.dim(n)
        basis = dm * dn <= trials
        for start in range(0, dm * dn if basis else trials, LAW_BATCH):
            if basis:   # columns start.. of every_pair(eye(dm), eye(dn))
                at = np.arange(start, min(start + LAW_BATCH, dm * dn))
                xs = np.eye(dm, dtype=np.int64)[:, at // dn]
                ys = np.eye(dn, dtype=np.int64)[:, at % dn]
            else:
                draws = [(rng.integers(0, x.p, size=dm, dtype=np.int64),
                          rng.integers(0, x.p, size=dn, dtype=np.int64))
                         for _ in range(min(LAW_BATCH, trials - start))]
                xs, ys = (np.stack(column, axis=1) for column in zip(*draws))
            r = residual(m, n, xs, ys)
            failing = np.flatnonzero(r.any(axis=0))
            bad += failing.size
            if witness is None and failing.size:
                i = failing[0]
                witness = {"degrees": [m, n],
                           "inputs": [xs[:, i].tolist(), ys[:, i].tolist()],
                           "residual_at": np.flatnonzero(r[:, i]).tolist()}
        check = rep.add(f"{label} deg ({m},{n})", bad == 0, trials=trials, failures=bad)
        if basis:
            check.detail["basis_pairs"] = dm * dn
        if witness:
            check.detail["witness"] = witness


def verify_dga(x: DGA, trials: int = DEFAULT_TRIALS, seed: int = 0) -> Report:
    """Exact d-squared checks, then the graded Leibniz rule per degree
    pair, d(ab) = d(a)b + (-1)^m a d(b), on basis or sampled pairs."""
    rep = Report(x.title)
    s, p = x.symbol, x.p
    for n in range(len(x.d) - 1):
        rep.add(f"{s}^{n + 1} . {s}^{n} = 0", (x.d[n + 1] @ x.d[n]).is_zero())
    d = [mat.a for mat in x.d]

    def leibniz(m: int, n: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        sign = 1 if m % 2 == 0 else p - 1
        lhs = mul_mod(d[m + n], x.products(m, n, xs, ys), p)
        rhs = (x.products(m + 1, n, mul_mod(d[m], xs, p), ys)
               + sign * x.products(m, n + 1, xs, mul_mod(d[n], ys, p)))
        return (lhs - rhs) % p

    top = x.max_degree
    pairs = [(m, n) for m in range(top) for n in range(top - m)]
    _check_law(rep, "leibniz", x, pairs, leibniz, trials, seed)
    return rep


def verify_morphism(f: list[Matrix], src: DGA, dst: DGA, trials: int = DEFAULT_TRIALS,
                    seed: int = 0) -> Report:
    """Exact chain squares f^{n+1} d^n = d^n f^n, then f(xy) = f(x) f(y)
    per degree pair on basis or sampled pairs; ``f[n]`` maps degree n
    of src to degree n of dst."""
    rep = Report("morphism")
    for n in range(src.max_degree):
        lhs, rhs = f[n + 1] @ src.d[n], dst.d[n] @ f[n]
        check = rep.add(f"chain square degree {n}", lhs == rhs)
        if not check.ok:
            check.detail["differs_at"] = np.argwhere(lhs.a != rhs.a)[0].tolist()
    p = dst.p

    def multiplicative(m: int, n: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        image = mul_mod(f[m + n].a, src.products(m, n, xs, ys), p)
        fx, fy = mul_mod(f[m].a, xs, p), mul_mod(f[n].a, ys, p)
        return (image - dst.products(m, n, fx, fy)) % p

    top = src.max_degree
    pairs = [(m, k) for m in range(top + 1) for k in range(top + 1 - m)]
    _check_law(rep, "multiplicative", src, pairs, multiplicative, trials, seed)
    return rep
